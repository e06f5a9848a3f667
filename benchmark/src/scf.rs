//! The three SCF workloads — RHF to a converged energy under the serial,
//! work-stealing and static-block executors — and the layer metrics of
//! emx-chem, emx-linalg, emx-sched + emx-runtime, emx-core and emx-obs.

use crate::harness::measure;
use crate::host::workers;
use crate::report::{Run, DEFAULT_SEED};
use crate::stats::{coeff_of_variation, median};
use crate::trace::{self_seconds, Tracer};
use emx_chem::basis::{BasisSet, BasisedMolecule, Element};
use emx_chem::boys::boys_ladder;
use emx_chem::fock::FockBuilder;
use emx_chem::md::{hermite_r_into, RScratch};
use emx_chem::molecule::{Molecule, ANGSTROM};
use emx_chem::oneint::{core_hamiltonian, overlap};
use emx_chem::scf::{rhf_with, IterationPhases, ScfConfig, ScfResult};
use emx_chem::screening::ScreenedPairs;
use emx_core::fockexec::{rhf_parallel, ParallelFock};
use emx_core::workload::estimate_fock_workload;
use emx_linalg::{jacobi_eigen, Matrix};
use emx_runtime::{ExecutionReport, Executor, PolicyKind, StealConfig};
use emx_sched::SplitMix64;
use std::cell::Cell;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Ket pairs per Fock task, as in every stamped run of the repository.
const CHUNK: usize = 8;
/// Arms must agree on every energy to this (the SCF's own `e_tol`).
const ARM_TOL_HA: f64 = 1e-9;
/// Agreement with the pinned energies (pinned to eight decimals), at
/// every seed: a seed only turns and shifts the molecule.
const PIN_TOL_HA: f64 = 1e-7;
/// Timed repeats of each layer probe in a traced run.
const PROBE_SAMPLES: usize = 3;

/// Pinned: (H₂O)₃/6-31G from this repository's SCF, benzene/STO-3G
/// which is also the literature value in `results/00_validation_*.csv`,
/// and the 48 scan points from the first run of this benchmark.
const PIN_W3: [f64; 1] = [-227.96499856];
const PIN_BENZENE: [f64; 1] = [-227.89060057];
#[rustfmt::skip]
const PIN_SCAN: [f64; 48] = [
    -75.95547777, -75.96128071, -75.96630585, -75.97060396,
    -75.97422264, -75.97720653, -75.97959745, -75.98143463,
    -75.98275482, -75.98359253, -75.98398008, -75.98394780,
    -75.98352412, -75.98273572, -75.98160762, -75.98016328,
    -75.97842471, -75.97641255, -75.97414617, -75.97164373,
    -75.96892228, -75.96599779, -75.96288526, -75.95959874,
    -75.95615143, -75.95255569, -75.94882311, -75.94496457,
    -75.94099027, -75.93690975, -75.93273196, -75.92846530,
    -75.92411762, -75.91969628, -75.91520816, -75.91065971,
    -75.90605695, -75.90140552, -75.89671070, -75.89197740,
    -75.88721023, -75.88241347, -75.87759114, -75.87274697,
    -75.86788444, -75.86300680, -75.85811706, -75.85321806,
];

#[derive(Clone, Copy, PartialEq)]
enum Arm {
    Serial,
    Ws,
    Static,
}

impl Arm {
    fn name(self) -> &'static str {
        match self {
            Arm::Serial => "serial",
            Arm::Ws => "ws",
            Arm::Static => "static",
        }
    }

    fn policy(self) -> PolicyKind {
        match self {
            Arm::Serial => PolicyKind::Serial,
            Arm::Ws => PolicyKind::WorkStealing(StealConfig::default()),
            Arm::Static => PolicyKind::StaticBlock,
        }
    }

    fn executor(self) -> Executor {
        let w = if self == Arm::Serial { 1 } else { workers() };
        Executor::new(w, self.policy())
    }
}

/// One SCF workload: the geometries of a pass and their pinned energies.
pub struct ScfCase {
    geometries: Vec<Molecule>,
    basis: BasisSet,
    pins: Vec<f64>,
}

/// The seed's part in an SCF input: a rigid motion of the whole
/// molecule — a uniformly random rotation (Shoemake's quaternion) and a
/// shift of up to 1 bohr per axis; the identity at the default seed.
/// The kernel gets different coordinates, shell-pair geometry and Boys
/// arguments each seed, while the energy, the iteration count and the
/// amount of work stay those of the named molecule — so the pins hold
/// at every seed and the spread over seeds is the host's, not the
/// input's. (Moving single atoms instead was tried: a 0.01 bohr jitter
/// breaks benzene's symmetry and takes 14–16 iterations, not 9.)
fn moved(mut mols: Vec<Molecule>, seed: u64) -> Vec<Molecule> {
    if seed == DEFAULT_SEED {
        return mols;
    }
    let mut rng = SplitMix64::new(seed);
    let (u1, u2, u3) = (rng.unit(), rng.unit(), rng.unit());
    let (a, b) = ((1.0 - u1).sqrt(), u1.sqrt());
    let (t2, t3) = (std::f64::consts::TAU * u2, std::f64::consts::TAU * u3);
    let (x, y, z, w) = (a * t2.sin(), a * t2.cos(), b * t3.sin(), b * t3.cos());
    let rot = [
        [
            1.0 - 2.0 * (y * y + z * z),
            2.0 * (x * y - z * w),
            2.0 * (x * z + y * w),
        ],
        [
            2.0 * (x * y + z * w),
            1.0 - 2.0 * (x * x + z * z),
            2.0 * (y * z - x * w),
        ],
        [
            2.0 * (x * z - y * w),
            2.0 * (y * z + x * w),
            1.0 - 2.0 * (x * x + y * y),
        ],
    ];
    let shift = [0; 3].map(|_| 2.0 * rng.unit() - 1.0);
    for atom in mols.iter_mut().flat_map(|m| &mut m.atoms) {
        let p = atom.position;
        atom.position =
            [0, 1, 2].map(|i| rot[i][0] * p[0] + rot[i][1] * p[1] + rot[i][2] * p[2] + shift[i]);
    }
    mols
}

/// Points of the full scan, and the stride at which `--smoke` and the
/// companion runs sample the same grid (12 points, same pins).
const SCAN_POINTS: usize = 48;
const SMALL_STRIDE: usize = 4;

/// Symmetric O–H stretch of water at the experimental angle: every
/// `stride`-th of 48 bond lengths from 0.85 Å to 1.32 Å in 0.01 Å steps.
fn scan_case(stride: usize, seed: u64) -> ScfCase {
    let half = (104.52f64 / 2.0).to_radians();
    let geometries = (0..SCAN_POINTS)
        .step_by(stride)
        .map(|i| {
            let r = (0.85 + 0.01 * i as f64) * ANGSTROM;
            let mut m = Molecule::new();
            m.push(Element::O, [0.0, 0.0, 0.0]);
            m.push(Element::H, [r * half.sin(), 0.0, r * half.cos()]);
            m.push(Element::H, [-r * half.sin(), 0.0, r * half.cos()]);
            m
        })
        .collect();
    ScfCase {
        geometries: moved(geometries, seed),
        basis: BasisSet::SixThirtyOneG,
        pins: PIN_SCAN.iter().step_by(stride).copied().collect(),
    }
}

/// The named SCF workloads; `None` for a name of another family.
pub fn case(workload: &str, seed: u64, smoke: bool) -> Option<ScfCase> {
    Some(match workload {
        "scf-w3-631g" => ScfCase {
            geometries: moved(vec![Molecule::water_cluster(3, 42)], seed),
            basis: BasisSet::SixThirtyOneG,
            pins: PIN_W3.to_vec(),
        },
        "scf-benzene-sto3g" => ScfCase {
            geometries: moved(vec![Molecule::benzene()], seed),
            basis: BasisSet::Sto3g,
            pins: PIN_BENZENE.to_vec(),
        },
        "scf-scan-h2o" if smoke => small(seed),
        "scf-scan-h2o" => scan_case(1, seed),
        _ => return None,
    })
}

/// The 12-point scan: `--smoke`'s SCF size, and the size at which a
/// traced run of a non-SCF workload still measures these layers.
pub fn small(seed: u64) -> ScfCase {
    scan_case(SMALL_STRIDE, seed)
}

/// H₂/STO-3G at 1.4 bohr: the harness's own tests, which run unoptimised.
#[cfg(test)]
pub fn tiny() -> ScfCase {
    ScfCase {
        geometries: vec![Molecule::h2(1.4)],
        basis: BasisSet::Sto3g,
        pins: vec![-1.11671433],
    }
}

/// What set-up leaves behind for the timed passes.
struct Prepared {
    bms: Vec<BasisedMolecule>,
    /// Fock tasks per build, per geometry.
    ntasks: Vec<usize>,
    pins: Vec<f64>,
    /// Energies of the first pass; every later pass must reproduce them.
    reference: Vec<f64>,
}

/// The fixed symmetric density the repository's Fock benches warm up on.
fn mock_density(nbf: usize) -> Matrix {
    let mut d = Matrix::from_fn(nbf, nbf, |i, j| 0.2 / (1.0 + (i as f64 - j as f64).abs()));
    d.symmetrize();
    d
}

/// Set-up: basis assignment, the task count of every geometry, and one
/// warm-up Fock build per arm on the first geometry.
fn prepare(case: ScfCase) -> Prepared {
    let tau = ScfConfig::default().tau;
    let bms: Vec<BasisedMolecule> = case
        .geometries
        .iter()
        .map(|m| BasisedMolecule::assign(m, case.basis))
        .collect();
    let mut ntasks = Vec::new();
    for (i, bm) in bms.iter().enumerate() {
        let pairs = ScreenedPairs::build(bm, tau * 1e-2);
        let pf = ParallelFock::new(bm, &pairs, tau, CHUNK);
        ntasks.push(pf.ntasks());
        if i == 0 {
            let d = mock_density(bm.nbf);
            for arm in [Arm::Serial, Arm::Ws, Arm::Static] {
                black_box(pf.execute(&d, &arm.executor()));
            }
        }
    }
    Prepared {
        bms,
        ntasks,
        pins: case.pins,
        reference: Vec::new(),
    }
}

/// One pass over the geometries under one arm.
struct Pass {
    wall: f64,
    results: Vec<ScfResult>,
    reports: Vec<Vec<ExecutionReport>>,
}

impl Pass {
    fn builds(&self) -> usize {
        self.reports.iter().map(Vec::len).sum()
    }

    fn mean_over_builds(&self, f: impl Fn(&ExecutionReport) -> f64) -> f64 {
        self.reports.iter().flatten().map(f).sum::<f64>() / self.builds() as f64
    }
}

/// The pass a user would run: `rhf_parallel` per geometry.
fn plain_pass(p: &Prepared, arm: Arm) -> Pass {
    let cfg = ScfConfig::default();
    let ex = arm.executor();
    let t = Instant::now();
    let (results, reports) = p
        .bms
        .iter()
        .map(|bm| rhf_parallel(bm, &cfg, &ex, CHUNK))
        .unzip();
    Pass {
        wall: t.elapsed().as_secs_f64(),
        results,
        reports,
    }
}

/// The same pass with `rhf_parallel`'s body spelt out so that each call
/// into a layer gets a span; `chem.rhf_with`'s self time is then the
/// SCF loop around the Fock builds (one-electron integrals,
/// orthogonaliser, DIIS, diagonalisation).
fn traced_pass(p: &Prepared, arm: Arm, tr: &mut Tracer) -> Pass {
    let cfg = ScfConfig::default();
    let ex = arm.executor();
    let t = Instant::now();
    let (results, reports) = tr.span(&format!("scf.{}", arm.name()), |tr| {
        p.bms
            .iter()
            .map(|bm| {
                let pairs = tr.span("chem.pairs_build", |_| {
                    ScreenedPairs::build(bm, cfg.tau * 1e-2)
                });
                let pf = tr.span("core.fock_tasks", |_| {
                    ParallelFock::new(bm, &pairs, cfg.tau, CHUNK)
                });
                let mut reports = Vec::new();
                let result = tr.span("chem.rhf_with", |tr| {
                    rhf_with(bm, &cfg, |d| {
                        let (g, r) = tr.span("core.fock_execute", |_| pf.execute(d, &ex));
                        reports.push(r);
                        g
                    })
                });
                (result, reports)
            })
            .unzip()
    });
    Pass {
        wall: t.elapsed().as_secs_f64(),
        results,
        reports,
    }
}

/// The correctness gate of one pass: converged, every task of every
/// build run once, energies equal to the pins (first pass) or to the
/// first pass's (later ones).
fn check_pass(run: &mut Run, p: &mut Prepared, pass: &Pass, arm: Arm) {
    let arm = arm.name();
    run.check(pass.results.iter().all(|r| r.converged), || {
        format!("{arm}: an SCF did not converge")
    });
    let tasks_ok = pass
        .reports
        .iter()
        .zip(&p.ntasks)
        .all(|(rs, &n)| rs.iter().all(|r| r.total_tasks_run() == n));
    run.check(tasks_ok, || {
        format!("{arm}: a build ran a task count other than ntasks")
    });
    let energies: Vec<f64> = pass.results.iter().map(|r| r.energy).collect();
    if p.reference.is_empty() {
        run.check(max_abs_diff(&energies, &p.pins) < PIN_TOL_HA, || {
            format!(
                "{arm}: energies {energies:?} differ from the pinned {:?}",
                p.pins
            )
        });
        p.reference = energies;
    } else {
        run.check(max_abs_diff(&energies, &p.reference) < ARM_TOL_HA, || {
            format!(
                "{arm}: energies {energies:?} differ from the first pass's {:?}",
                p.reference
            )
        });
    }
}

fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "one energy per geometry");
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

/// The untraced run: `baseline_s` serial, `headline_s` work stealing,
/// `contrast_s` static block, each the wall of one pass to converged
/// energies.
pub fn untraced(run: &mut Run, case: impl Fn() -> ScfCase, seconds: f64, smoke: bool) {
    let sample = |arm: Arm| {
        move |p: &mut Prepared, run: &mut Run| {
            let pass = plain_pass(p, arm);
            check_pass(run, p, &pass, arm);
            pass.wall
        }
    };
    measure(
        run,
        seconds,
        smoke,
        || prepare(case()),
        &[
            ("baseline_s", &sample(Arm::Serial)),
            ("headline_s", &sample(Arm::Ws)),
            ("contrast_s", &sample(Arm::Static)),
        ],
    );
}

/// The traced run: one plain and one traced pass per arm (two more
/// plain ones for work stealing, whose first sample is the cold one),
/// then the layer probes at the first geometry's converged density.
/// Returns `(traced, plain)` walls summed over the arms, from which the
/// caller derives `trace.overhead_frac`.
pub fn traced(run: &mut Run, tr: &mut Tracer, case: ScfCase) -> (f64, f64) {
    let molecule = case.geometries[0].clone();
    let basis = case.basis;
    let mut p = prepare(case);

    let arms = [Arm::Serial, Arm::Ws, Arm::Static];
    let plain = arms.map(|arm| {
        let pass = plain_pass(&p, arm);
        check_pass(run, &mut p, &pass, arm);
        pass.wall
    });
    let mark = tr.mark();
    let traced = arms.map(|arm| {
        let pass = traced_pass(&p, arm, tr);
        check_pass(run, &mut p, &pass, arm);
        pass
    });
    let pairs_build_s = self_seconds(tr.spans(), mark)["chem.pairs_build"];
    let ws_warm: Vec<f64> = (0..2)
        .map(|_| {
            let pass = plain_pass(&p, Arm::Ws);
            check_pass(run, &mut p, &pass, Arm::Ws);
            pass.wall
        })
        .collect();
    let [serial_s, ws_cold_s, static_s] = plain;
    let ws_s = median(&ws_warm);
    let w = workers() as f64;
    run.put("runtime.ws_efficiency", serial_s / (w * ws_s));
    run.put("runtime.static_efficiency", serial_s / (w * static_s));
    run.put("runtime.cold_first_over_median.ws", ws_cold_s / ws_s);

    // All three arms built the pairs; report one pass's worth.
    run.put("chem.pairs_build_s", pairs_build_s / arms.len() as f64);
    pass_metrics(run, &p, &traced);
    let oneint = tr.samples("chem.oneint", 1, || {
        for bm in &p.bms {
            black_box((overlap(bm), core_hamiltonian(bm)));
        }
    });
    run.put("chem.oneint_s", oneint[0]);

    let cfg = ScfConfig::default();
    let bm = &p.bms[0];
    let d = &traced[0].results[0].density;
    let pairs = ScreenedPairs::build(bm, cfg.tau * 1e-2);
    let pf = ParallelFock::new(bm, &pairs, cfg.tau, CHUNK);
    kernel_probes(run, tr, &FockBuilder::new(bm, &pairs, cfg.tau), &pf, d);
    runtime_probes(run, tr, bm.nbf);
    blame_table(run, tr, &pf, d);
    let estimate = tr.samples("core.estimate_fock_workload", PROBE_SAMPLES, || {
        estimate_fock_workload(&molecule, basis, CHUNK, cfg.tau, 1.0, "probe")
    });
    run.put("core.estimate_workload_s", median(&estimate));

    (
        traced.iter().map(|pass| pass.wall).sum(),
        serial_s + ws_s + static_s,
    )
}

/// What the traced passes themselves tell: iterations, phase shares and
/// energy error from the SCF results, scheduling statistics from the
/// builds' execution reports.
fn pass_metrics(run: &mut Run, p: &Prepared, traced: &[Pass; 3]) {
    let [serial, ws, stat] = traced;
    run.put("chem.scf_iterations", serial.builds() as f64);
    let share = |phase: fn(&IterationPhases) -> Duration| {
        let secs: f64 = serial
            .results
            .iter()
            .flat_map(|r| &r.phase_timings)
            .map(|ph| phase(ph).as_secs_f64())
            .sum();
        secs / serial.wall
    };
    run.put("chem.fock_share", share(|ph| ph.fock));
    run.put("chem.diag_share", share(|ph| ph.diag));
    run.put("chem.diis_share", share(|ph| ph.diis));
    let energy_err = traced
        .iter()
        .map(|pass| {
            let e: Vec<f64> = pass.results.iter().map(|r| r.energy).collect();
            max_abs_diff(&e, &p.pins)
        })
        .fold(0.0, f64::max);
    run.put("chem.energy_err_ha", energy_err);

    run.put(
        "runtime.steals_per_build",
        ws.mean_over_builds(|r| r.total_steals() as f64),
    );
    run.put(
        "runtime.utilization.ws",
        ws.mean_over_builds(ExecutionReport::utilization),
    );
    run.put(
        "runtime.utilization.static",
        stat.mean_over_builds(ExecutionReport::utilization),
    );
    run.put(
        "runtime.busy_imbalance.static",
        stat.mean_over_builds(ExecutionReport::busy_imbalance),
    );
}

/// emx-chem's kernel at density `d`, emx-linalg's eigensolver on the
/// resulting Fock matrix, and what emx-core and emx-obs add on top of a
/// serial build.
fn kernel_probes(run: &mut Run, tr: &mut Tracer, fb: &FockBuilder, pf: &ParallelFock, d: &Matrix) {
    let (bm, pairs, tau) = (fb.bm, fb.pairs, fb.tau);
    let fock_build = median(&tr.samples("chem.fock_build_serial", PROBE_SAMPLES, || {
        fb.build_serial(d)
    }));
    run.put("chem.fock_build_s", fock_build);
    let mut g = Matrix::zeros(bm.nbf, bm.nbf);
    let mut scratch = pf.scratch();
    let quartets: u64 = (0..pf.ntasks())
        .map(|i| pf.execute_task_into(i, d, &mut g, &mut scratch))
        .sum();
    run.put("chem.quartets_per_build", quartets as f64);
    run.put("chem.quartets_per_s", quartets as f64 / fock_build);
    // Computed, not measured: the primitive quartets behind the
    // surviving contracted ones — the kernel's operation count.
    let prim_quartets: usize = (0..pairs.len())
        .flat_map(|bra| (0..=bra).map(move |ket| (bra, ket)))
        .filter(|&(bra, ket)| pairs.survives(bra, ket, tau))
        .map(|(bra, ket)| pairs.pairs[bra].prims.len() * pairs.pairs[ket].prims.len())
        .sum();
    run.put("chem.prim_quartets_per_build", prim_quartets as f64);
    run.put("chem.tasks_per_build", pf.ntasks() as f64);
    run.put(
        "chem.task_cost_cv",
        coeff_of_variation(&pf.estimated_costs()),
    );
    let tasks = fb.tasks(CHUNK);
    let scalar = median(&tr.samples("chem.fock_build_scalar", PROBE_SAMPLES, || {
        let mut g = Matrix::zeros(bm.nbf, bm.nbf);
        for t in &tasks {
            fb.execute_scalar(t, d, &mut g, &mut scratch);
        }
        g
    }));
    run.put("chem.fock_scalar_build_s", scalar);
    run.put("chem.batched_vs_scalar", scalar / fock_build);

    // Micro-timings at the largest total angular momentum the basis
    // reaches (four shells of l_max) over T = 0 … 47, which straddles
    // the Boys function's series / asymptotic crossover at 36.
    const MICRO_REPS: usize = 2000;
    let l = 4 * bm.shells.iter().map(|s| s.l).max().unwrap_or(0);
    let ts: Vec<f64> = (0..64).map(|k| 0.75 * k as f64).collect();
    let ns_per_call = |samples: &[f64]| median(samples) / (MICRO_REPS * ts.len()) as f64 * 1e9;
    let mut ladder = vec![0.0; l + 1];
    let boys = tr.samples("chem.boys_ladder", PROBE_SAMPLES, || {
        for _ in 0..MICRO_REPS {
            for &t in &ts {
                boys_ladder(l, black_box(t), &mut ladder);
                black_box(&ladder);
            }
        }
    });
    run.put("chem.boys_ladder_ns", ns_per_call(&boys));
    let mut rs = RScratch::new();
    let hermite = tr.samples("chem.hermite_r", PROBE_SAMPLES, || {
        for _ in 0..MICRO_REPS {
            for &t in &ts {
                hermite_r_into(&mut rs, l, 1.0, black_box(t.sqrt()), 0.0, 0.0);
                black_box(rs.r());
            }
        }
    });
    run.put("chem.hermite_r_ns", ns_per_call(&hermite));

    // `g` is G(d) from the quartet count above.
    let f = core_hamiltonian(bm).add(&g).expect("H and G are nbf × nbf");
    let eigen = tr.samples("linalg.jacobi_eigen", PROBE_SAMPLES, || {
        jacobi_eigen(&f, 1e-12, 100).expect("Fock matrix diagonalises")
    });
    run.put("linalg.jacobi_eigen_s", median(&eigen));

    let serial_ex = Arm::Serial.executor();
    let exec_serial = tr.samples("core.fock_execute.serial", PROBE_SAMPLES, || {
        pf.execute(d, &serial_ex)
    });
    run.put(
        "core.fock_exec_overhead_frac",
        median(&exec_serial) / fock_build - 1.0,
    );
}

/// emx-sched + emx-runtime with empty task bodies at W workers: what
/// dispatching a task and running a build cost before any work is done.
fn runtime_probes(run: &mut Run, tr: &mut Tracer, nbf: usize) {
    const DISPATCH_TASKS: usize = 100_000;
    const FIXED_REPS: usize = 200;
    let w = workers();
    for (label, kind) in [
        ("ws", Arm::Ws.policy()),
        ("static", Arm::Static.policy()),
        ("counter", PolicyKind::DynamicCounter { chunk: 1 }),
    ] {
        let ex = Executor::new(w, kind);
        let dispatch = tr.samples(&format!("runtime.dispatch.{label}"), PROBE_SAMPLES, || {
            ex.run(DISPATCH_TASKS, |_| (), |_, _| {})
        });
        run.put(
            &format!("runtime.dispatch_ns_per_task.{label}"),
            median(&dispatch) / DISPATCH_TASKS as f64 * 1e9,
        );
        if label == "counter" {
            continue;
        }
        // One task per worker: what a build pays to spawn, join and
        // report however little work it carries.
        let fixed = tr.samples(&format!("runtime.run_fixed.{label}"), PROBE_SAMPLES, || {
            for _ in 0..FIXED_REPS {
                black_box(ex.run(w, |_| (), |_, _| {}));
            }
        });
        run.put(
            &format!("runtime.run_fixed_us.{label}"),
            median(&fixed) / FIXED_REPS as f64 * 1e6,
        );
    }
    // The merge closure is the benchmark's own, so it times itself.
    let merge_ns = Cell::new(0u64);
    let ex = Arm::Ws.executor();
    for _ in 0..FIXED_REPS {
        black_box(ex.run_reduced(
            w,
            |_| Matrix::zeros(nbf, nbf),
            |_, _| {},
            |acc, other| {
                let t = Instant::now();
                acc.axpy(1.0, &other).expect("locals share a shape");
                merge_ns.set(merge_ns.get() + t.elapsed().as_nanos() as u64);
            },
        ));
    }
    run.put(
        "runtime.merge_us",
        merge_ns.get() as f64 / FIXED_REPS as f64 * 1e-3,
    );
}

/// One profiled build per policy — the blame table and the critical
/// path — and the cost of profiling itself.
fn blame_table(run: &mut Run, tr: &mut Tracer, pf: &ParallelFock, d: &Matrix) {
    let w = workers();
    let ring_capacity = 4 * pf.ntasks() + 1024;
    let mut overwritten = 0;
    for arm in [Arm::Ws, Arm::Static] {
        let label = arm.name();
        let (_, report, profile) = tr.span(&format!("core.execute_profiled.{label}"), |_| {
            pf.execute_profiled(d, w, arm.policy(), ring_capacity)
        });
        run.check(report.total_tasks_run() == pf.ntasks(), || {
            format!("{label}: profiled build lost tasks")
        });
        let a = &profile.attribution;
        let total = a.totals();
        let denom = a.wall_ns as f64 * w as f64;
        let fracs = [
            ("compute", total.compute_ns),
            ("counter", total.counter_ns),
            ("steal", total.steal_ns),
            ("merge", total.merge_ns),
            ("idle", total.idle_ns),
        ]
        .map(|(cat, ns)| (cat, ns as f64 / denom));
        let sum: f64 = fracs.iter().map(|(_, frac)| frac).sum();
        run.check((sum - 1.0).abs() <= 0.01, || {
            format!("{label}: blame fractions sum to {sum}, not 1 ± 0.01")
        });
        for (cat, frac) in fracs {
            run.put(&format!("runtime.blame_{cat}_frac.{label}"), frac);
        }
        run.put(
            &format!("runtime.critical_path_frac.{label}"),
            a.critical_path_fraction(),
        );
        overwritten += a.overwritten;
    }
    run.check(overwritten == 0, || {
        format!("profiling rings overwrote {overwritten} events")
    });
    run.put("runtime.ring_overwritten", overwritten as f64);

    let ws_ex = Arm::Ws.executor();
    let plain = tr.samples("core.fock_execute.ws", PROBE_SAMPLES, || {
        pf.execute(d, &ws_ex)
    });
    let profiled = tr.samples("core.execute_profiled.ws", PROBE_SAMPLES, || {
        pf.execute_profiled(d, w, Arm::Ws.policy(), ring_capacity)
    });
    run.put(
        "obs.ring_overhead_frac",
        median(&profiled) / median(&plain) - 1.0,
    );
}
