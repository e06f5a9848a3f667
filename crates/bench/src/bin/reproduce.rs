//! `reproduce` — regenerates every table/figure of the study.
//!
//! ```text
//! cargo run --release -p emx-bench --bin reproduce            # all
//! cargo run --release -p emx-bench --bin reproduce e2 e3      # subset
//! ```
//!
//! Experiment ids follow `DESIGN.md` (E1–E8) plus `faults` (fault
//! injection, see `docs/FAULT_MODEL.md`), `f1` (utilization
//! timelines), `ablations`, `smoke` (CI's fast check: the full policy
//! roster through both substrates), `profile` (ring-captured blame
//! attribution of the real Fock build per policy — see
//! `docs/OBSERVABILITY.md`; `EMX_PROFILE_SMOKE=1` shrinks it for CI) and
//! `distsim` (the simulator event core at 10⁴–10⁵ ranks, calendar queue
//! vs the binary-heap oracle — see `docs/ARCHITECTURE.md`;
//! `EMX_DISTSIM_SMOKE=1` shrinks it for CI).
//! Output is plain-text tables; pass `--csv DIR` to also write stamped
//! CSV files and, with `profile`, `--trace-out DIR` for one Chrome
//! trace JSON per roster policy. Nothing else is written. A flag
//! without its value, an unknown flag or experiment id, or
//! `--trace-out` without `profile` prints the usage and exits with
//! status 2 before any experiment runs.

use emx_balance::prelude::{movement, rebalance, Problem};
use emx_bench::{chem_workload_medium, synthetic_workload_large};
use emx_chem::synthetic::CostModel;
use emx_core::prelude::*;
use emx_distsim::machine::MachineModel;
use emx_obs::{git_describe_string, render_timeline, ChromeTrace, RunMeta};
use emx_sched::block_partition;

const USAGE: &str =
    "usage: reproduce [EXPERIMENT ...] [--csv DIR] [--trace-out DIR (with profile)]";

/// What an experiment may read besides its own inputs.
struct Ctx {
    machine: MachineModel,
    trace_dir: Option<String>,
}

/// An experiment's body: prints what it reports, returns its tables.
type Run = fn(&Ctx) -> Vec<Table>;

/// Every experiment, declared once: its id, whether `all` runs it, and
/// its body. `all` runs the default ones in table order, which also
/// numbers the CSVs.
const EXPERIMENTS: &[(&str, bool, Run)] = &[
    ("validate", true, |_| vec![validate_chemistry()]),
    ("e1", true, |c| {
        let w = chem_workload_medium();
        vec![e1_scaling(&w, &[1, 2, 4, 8, 16, 32, 64], &c.machine)]
    }),
    ("e2", true, run_e2),
    ("e3", true, |c| {
        let w = measure_fock_workload(
            &Molecule::water_cluster(2, 5),
            BasisSet::Sto3g,
            8,
            1e-10,
            "(H2O)2/STO-3G",
        );
        vec![
            e3_balancer_quality(&w, &[4, 8, 16, 32]),
            e3_comm_aware(&w, 16, &c.machine, 1 << 16),
        ]
    }),
    ("e4", true, |_| {
        vec![e4_partition_cost(&[1_000, 4_000, 16_000, 64_000], 16, 7)]
    }),
    ("e5", true, run_e5),
    ("e6", true, |c| {
        let uniform = synthetic_workload(
            CostModel::Uniform { scale: 1.0 },
            4096,
            3,
            4.0,
            "uniform-4096",
        );
        let w = chem_workload_medium();
        vec![
            e6_variability(&uniform, 16, &c.machine),
            e6_variability(&w, 16, &c.machine),
        ]
    }),
    ("e7", true, |_| vec![e7_overheads(&[1, 2, 4])]),
    ("e8", true, |c| {
        let w = synthetic_workload_large(100_000);
        vec![e8_distributed(
            &w,
            &[64, 256, 1024, 4096, 16_384],
            &c.machine,
        )]
    }),
    ("e9", true, |c| {
        let base = chem_workload_medium();
        vec![
            e9_weak_scaling(&base, &[4, 16, 64, 256, 1024], 128, &c.machine),
            overhead_decomposition(&base, 64, &c.machine),
        ]
    }),
    ("faults", true, run_faults),
    ("f1", true, |c| {
        figure_timelines(&c.machine);
        Vec::new()
    }),
    ("ablations", true, |c| {
        let m = &c.machine;
        vec![
            ablation_steal_policy(m),
            ablation_counter_chunk(m),
            ablation_screening_skew(),
            ablation_seed_partition(m),
            ablation_persistence_warmup(),
            ablation_incremental_drift(),
            ablation_hybrid_seeding(m),
        ]
    }),
    ("smoke", false, |c| vec![smoke_full_roster(&c.machine)]),
    ("profile", false, |c| {
        vec![run_profile(c.trace_dir.as_deref())]
    }),
    ("distsim", false, |_| vec![run_distsim()]),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut ctx = Ctx {
        machine: MachineModel::default(),
        trace_dir: None,
    };
    let mut csv_dir: Option<String> = None;
    let mut wanted: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        let slot = match a.as_str() {
            "--csv" => &mut csv_dir,
            "--trace-out" => &mut ctx.trace_dir,
            flag if flag.starts_with("--") => {
                eprintln!("unknown flag: {flag}\n{USAGE}");
                std::process::exit(2);
            }
            _ => {
                wanted.push(a.to_lowercase());
                continue;
            }
        };
        match it.next() {
            Some(value) => *slot = Some(value),
            None => {
                eprintln!("{a} needs a value\n{USAGE}");
                std::process::exit(2);
            }
        }
    }
    // A typo'd id must fail the run before anything runs, not after.
    let run_of = |id: &str| EXPERIMENTS.iter().find(|e| e.0 == id).map(|e| e.2);
    if let Some(bad) = wanted.iter().find(|w| *w != "all" && run_of(w).is_none()) {
        let ids: Vec<&str> = EXPERIMENTS.iter().map(|e| e.0).collect();
        eprintln!(
            "unknown experiment id: {bad} (known: all {})\n{USAGE}",
            ids.join(" ")
        );
        std::process::exit(2);
    }
    if wanted.is_empty() || wanted.iter().any(|w| w == "all") {
        wanted = EXPERIMENTS
            .iter()
            .filter(|e| e.1)
            .map(|e| e.0.to_string())
            .collect();
    }
    if ctx.trace_dir.is_some() && !wanted.iter().any(|w| w == "profile") {
        eprintln!("--trace-out needs the profile experiment\n{USAGE}");
        std::process::exit(2);
    }

    let tables: Vec<Table> = wanted
        .iter()
        .flat_map(|id| run_of(id).expect("validated above")(&ctx))
        .collect();

    for t in &tables {
        println!("{t}");
    }
    if let Some(dir) = csv_dir {
        std::fs::create_dir_all(&dir).expect("create csv dir");
        let meta = RunMeta::new("reproduce", git_describe_string());
        for (i, t) in tables.iter().enumerate() {
            let path = format!("{dir}/{i:02}_{}.csv", emx_bench::csv_slug(&t.title));
            std::fs::write(&path, stamped_csv(&meta, t)).expect("write csv");
            println!("wrote {path}");
        }
    }
    // After the tables are out (CI uploads them either way): the
    // hypergraph rows of E3/E4 must meet the ε the weights allow.
    let misses: Vec<String> = tables.iter().flat_map(hypergraph_misses_epsilon).collect();
    if !misses.is_empty() {
        for m in &misses {
            eprintln!("epsilon check: {m}");
        }
        std::process::exit(1);
    }
}

fn run_e2(c: &Ctx) -> Vec<Table> {
    let w = chem_workload_medium();
    let h = e2_headline(&w, 16, &c.machine);
    println!(
        "[e2] work stealing improves {:.0}% over naive block partitioning and \
         {:.0}% over the best static partition (paper: ~50% over its static \
         baseline — between the two readings)\n",
        (h.vs_block - 1.0) * 100.0,
        (h.vs_best_static - 1.0) * 100.0
    );
    vec![h.table]
}

fn run_e5(c: &Ctx) -> Vec<Table> {
    let mol = Molecule::water_cluster(2, 42);
    let workloads: Vec<(usize, KernelWorkload)> = [1usize, 2, 8, 32, 128, usize::MAX]
        .into_iter()
        .map(|chunk| {
            let w = estimate_fock_workload(
                &mol,
                BasisSet::SixThirtyOneG,
                chunk,
                1e-10,
                1.0,
                format!("chunk={chunk}"),
            );
            (chunk, w)
        })
        .collect();
    vec![e5_granularity(&workloads, 64, &c.machine)]
}

fn run_faults(c: &Ctx) -> Vec<Table> {
    let w = chem_workload_medium();
    let table = e10_faults(&w, 16, &c.machine);
    // One fail-stop stealing run, read off its fault report.
    let ideal = w.total() / 16.0;
    let cfg = SimConfig {
        workers: 16,
        machine: c.machine,
        ..SimConfig::new(16)
    };
    let plan = FaultPlan::fault_free().with_rank_failure(3, 0.25 * ideal);
    let r = simulate_with_faults(
        &w.costs,
        &SimModel::WorkStealing { steal_half: true },
        &cfg,
        &plan,
    );
    println!(
        "[faults] fail-stop capture on {}: injected {}, detected {}, \
         orphaned {}, recovered {}, lost {}\n",
        w.name,
        r.faults.injected,
        r.faults.detected,
        r.faults.orphaned,
        r.faults.recovered,
        r.faults.lost,
    );
    vec![table]
}

/// The `profile` experiment — the always-on profiling pipeline end to
/// end. Every roster policy's Fock build runs with per-worker event
/// rings attached; each capture is decomposed into blame categories
/// (compute / counter / steal / merge / idle, summing to the wall
/// clock), compared differentially against the headline static policy,
/// and exported as one Chrome trace per policy when `--trace-out` is
/// given. The measured rings-on vs obs-off recording overhead is
/// printed and, outside smoke mode, held to its ceiling.
fn run_profile(trace_dir: Option<&str>) -> Table {
    use emx_bench::profbench::{self, OVERHEAD_CEILING_FRAC};
    use emx_obs::AttributionDiff;

    let smoke = profbench::profile_smoke();
    let workers = if smoke { 2 } else { 4 };
    let report = profbench::profile_fock_roster(workers, smoke);

    let mut t = Table::new(
        format!(
            "Profile: ring-captured blame attribution on {}/{} ({} tasks, P={})",
            report.molecule, report.basis, report.ntasks, report.workers
        ),
        &[
            "policy",
            "wall ms",
            "crit path",
            "compute%",
            "counter%",
            "steal%",
            "merge%",
            "idle%",
            "lost",
        ],
    );
    for p in &report.policies {
        let a = &p.profile.attribution;
        let tot = a.totals();
        // Percentages of the P·wall budget, so the five categories of a
        // multi-worker run still sum to ~100.
        let budget = (a.wall_ns.max(1) * a.workers.len().max(1) as u64) as f64;
        let pct = |ns: u64| format!("{:.1}", ns as f64 / budget * 100.0);
        t.push(vec![
            p.label.clone(),
            format!("{:.3}", a.wall_ns as f64 / 1e6),
            format!("{:.0}%", a.critical_path_fraction() * 100.0),
            pct(tot.compute_ns),
            pct(tot.counter_ns),
            pct(tot.steal_ns),
            pct(tot.merge_ns),
            pct(tot.idle_ns),
            a.overwritten.to_string(),
        ]);
    }

    // Per-worker detail for the headline policy, plus the differential
    // against the static baseline the paper compares it to.
    let ws = report.policies.iter().find(|p| p.label == "work-stealing");
    if let Some(ws) = ws {
        println!("{}", ws.profile.attribution.render());
        if let Some(sb) = report.policies.iter().find(|p| p.label == "static-block") {
            println!(
                "{}",
                AttributionDiff::between(&sb.profile.attribution, &ws.profile.attribution).render()
            );
        }
    }

    if let Some(dir) = trace_dir {
        std::fs::create_dir_all(dir).expect("create trace dir");
        for p in &report.policies {
            let slug = emx_bench::csv_slug(&p.label);
            let path = format!("{dir}/profile_{slug}.trace.json");
            let mut trace = ChromeTrace::new();
            trace.set_process_name(1, format!("{} fock build", p.label));
            trace.add_event_streams(1, "worker", &p.profile.events);
            std::fs::write(&path, trace.to_json_string()).expect("write trace");
            println!("wrote {path}");
        }
    }

    let o = &report.overhead;
    println!(
        "[profile] recording overhead on the warmed Fock build (P={}, {} ABBA pairs): \
         obs-off {:.2} builds/s, rings-on {:.2} builds/s, median pair {:+.2}% (ceiling {:.0}%)\n",
        o.workers,
        o.pairs,
        o.obs_off_builds_per_sec,
        o.rings_on_builds_per_sec,
        o.overhead_frac() * 100.0,
        OVERHEAD_CEILING_FRAC * 100.0
    );
    if !smoke {
        assert!(
            o.overhead_frac() <= OVERHEAD_CEILING_FRAC,
            "ring recording overhead {:.2}% exceeds the {:.0}% ceiling",
            o.overhead_frac() * 100.0,
            OVERHEAD_CEILING_FRAC * 100.0
        );
    }
    t
}

/// The `distsim` experiment — event-core throughput of the simulator
/// at cluster scale. The full scheduling-model roster runs at 10⁴ and
/// 10⁵ simulated ranks on both event-queue backends (the production
/// calendar queue and the retained binary-heap oracle — see
/// `docs/ARCHITECTURE.md`); every pair is asserted bitwise identical,
/// and the metric is simulated events per second of wall clock.
/// The gate is host-independent: aggregate calendar throughput must
/// be at least [`emx_bench::DISTSIM_FLOOR_RATIO`] times the heap
/// oracle's on the same host. `EMX_DISTSIM_SMOKE=1` shrinks the
/// sweep to 10³/10⁴ ranks for CI.
fn run_distsim() -> Table {
    use emx_bench::distsimbench;

    let smoke = distsimbench::distsim_smoke();
    let report = distsimbench::distsim_measure(smoke);

    let mut t = Table::new(
        format!(
            "Distsim: event-core throughput, roster x ranks ({} samples, \
             calendar vs heap oracle)",
            report.samples
        ),
        &[
            "model",
            "ranks",
            "events",
            "cal wall s",
            "cal ev/s",
            "heap wall s",
            "heap ev/s",
            "vs heap",
        ],
    );
    for r in &report.rows {
        t.push(vec![
            r.model.to_string(),
            r.ranks.to_string(),
            r.events.to_string(),
            format!("{:.4}", r.calendar_wall_secs),
            format!("{:.0}", r.calendar_events_per_sec()),
            format!("{:.4}", r.heap_wall_secs),
            format!("{:.0}", r.heap_events_per_sec()),
            format!("{:.2}x", r.speedup_vs_heap()),
        ]);
    }
    println!(
        "[distsim] aggregate calendar {:.0} events/s vs heap oracle {:.0} events/s \
         (ratio {:.2}, floor {:.2}) — every cell bitwise identical across backends\n",
        report.calendar_rate(),
        report.heap_rate(),
        report.ratio_vs_heap(),
        emx_bench::DISTSIM_FLOOR_RATIO
    );
    assert!(
        report.ratio_vs_heap() >= emx_bench::DISTSIM_FLOOR_RATIO,
        "calendar event core fell below {:.2}x of the heap oracle's throughput \
         (ratio {:.4}) — event-core regression",
        emx_bench::DISTSIM_FLOOR_RATIO,
        report.ratio_vs_heap()
    );
    t
}

/// The `smoke` experiment — CI's fast end-to-end check. Runs the entire
/// policy roster through BOTH substrates on a small skewed workload:
/// every policy executes on real threads (exactly-once asserted by the
/// executor) and replays in the discrete-event simulator. Seconds, not
/// minutes.
fn smoke_full_roster(machine: &MachineModel) -> Table {
    let w = synthetic_workload(
        CostModel::LogNormal {
            mu: 0.0,
            sigma: 1.2,
        },
        96,
        7,
        1e-4,
        "smoke-96",
    );
    let p = 4;
    let n = w.ntasks();
    let cfg = SimConfig {
        workers: p,
        machine: *machine,
        ..SimConfig::new(p)
    };
    let mut t = Table::new(
        format!(
            "Smoke: full policy roster on both substrates ({}, P={p})",
            w.name
        ),
        &[
            "model",
            "threads wall",
            "threads tasks",
            "sim makespan",
            "sim util",
        ],
    );
    for (label, kind) in full_roster(&w.costs, p, 8) {
        let ex = Executor::new(p, kind.clone());
        let (sums, report) = ex.run(
            n,
            |_| 0.0f64,
            |i, acc| {
                *acc += (w.costs[i] * 1e6).sqrt();
            },
        );
        assert!(sums.iter().sum::<f64>() > 0.0);
        let sim = simulate_policy(&w.costs, &kind, &cfg);
        assert_eq!(sim.assignment.len(), n, "{label}: simulator lost tasks");
        t.push(vec![
            label,
            fmt_secs(report.wall.as_secs_f64()),
            report.total_tasks_run().to_string(),
            fmt_secs(sim.makespan),
            format!("{:.2}", sim.utilization()),
        ]);
    }
    t
}

/// A result table's CSV, self-described with `#` header comments: the
/// schema version, experiment id, a git-describe string and the table
/// title — so a results directory outlives the producing binary.
fn stamped_csv(meta: &RunMeta, t: &Table) -> String {
    format!(
        "# schema_version: {}\n# experiment: {}\n# git: {}\n# table: {}\n{}",
        meta.schema_version,
        meta.experiment_id,
        meta.git_describe,
        t.title,
        t.to_csv()
    )
}

/// Figure F1: per-worker utilization timelines, static vs work stealing
/// at P = 16 on the measured chemistry workload — the study's
/// utilization picture in text form.
fn figure_timelines(machine: &MachineModel) {
    use emx_distsim::prelude::*;
    let w = chem_workload_medium();
    let p = 16;
    let cfg = SimConfig {
        workers: p,
        machine: *machine,
        events: true,
        ..SimConfig::new(p)
    };
    println!(
        "## F1: utilization timelines on {} at P={p} (# = busy)",
        w.name
    );
    let strips = |r: &SimReport| {
        let makespan_ns = (r.makespan * 1e9).round() as u64;
        render_timeline(&r.events, makespan_ns, 72, 16)
    };
    let owners = block_partition(w.ntasks(), p);
    let st = simulate(&w.costs, &SimModel::Static(owners), &cfg);
    println!(
        "\nstatic-block   (makespan {}, utilization {:.2}):",
        fmt_secs(st.makespan),
        st.utilization()
    );
    print!("{}", strips(&st));
    let ws = simulate(&w.costs, &SimModel::WorkStealing { steal_half: true }, &cfg);
    println!(
        "\nwork-stealing  (makespan {}, utilization {:.2}):",
        fmt_secs(ws.makespan),
        ws.utilization()
    );
    print!("{}", strips(&ws));
    println!();
}

/// Chemistry validation: the kernel's answers against literature values
/// — the precondition for any execution-model comparison to be
/// meaningful.
fn validate_chemistry() -> Table {
    use emx_chem::prelude::*;
    let mut t = Table::new(
        "Validation: kernel results vs literature",
        &["quantity", "measured", "reference"],
    );
    let cases: Vec<(&str, Molecule, BasisSet, f64)> = vec![
        (
            "E(H2, STO-3G, R=1.4)",
            Molecule::h2(1.4),
            BasisSet::Sto3g,
            -1.1167,
        ),
        (
            "E(H2, 6-31G, R=1.4)",
            Molecule::h2(1.4),
            BasisSet::SixThirtyOneG,
            -1.1267,
        ),
        // The two water/STO-3G rows resolve a former 3 mHa "gap": the
        // literature value −74.9659 belongs to the STO-3G-*optimized*
        // geometry, while the experimental geometry sits at −74.9629 on
        // the same surface. Each geometry is validated against its own
        // reference.
        (
            "E(H2O, STO-3G, exp geom)",
            Molecule::water(),
            BasisSet::Sto3g,
            -74.9629,
        ),
        (
            "E(H2O, STO-3G, opt geom)",
            Molecule::water_sto3g_opt(),
            BasisSet::Sto3g,
            -74.9659,
        ),
        // Like the STO-3G rows: −75.9854 is the 6-31G-optimized-geometry
        // minimum; the experimental geometry sits at −75.9840.
        (
            "E(H2O, 6-31G, exp geom)",
            Molecule::water(),
            BasisSet::SixThirtyOneG,
            -75.9840,
        ),
        // −76.0107 again belongs to the basis's own optimized geometry;
        // the experimental geometry (Cartesian 6d shells) gives −76.0105.
        (
            "E(H2O, 6-31G*, exp geom)",
            Molecule::water(),
            BasisSet::SixThirtyOneGStar,
            -76.0105,
        ),
        // Experimental hexagon (r_CC 1.397 Å, r_CH 1.084 Å); −227.8914
        // belongs to the STO-3G-optimized ring.
        (
            "E(C6H6, STO-3G, exp geom)",
            Molecule::benzene(),
            BasisSet::Sto3g,
            -227.8906,
        ),
    ];
    // References are quoted to 4 decimals; half a unit in the last
    // printed place plus convergence slack is the honest tolerance. A
    // violation means the kernel (or the reference's geometry pairing)
    // regressed — it fails the run rather than printing a wrong table.
    const E_TOL: f64 = 6e-5;
    for (name, mol, basis, lit) in cases {
        let r = rhf(&BasisedMolecule::assign(&mol, basis), &ScfConfig::default());
        assert!(r.converged, "{name} did not converge");
        assert!(
            (r.energy - lit).abs() < E_TOL,
            "{name}: measured {:.6} vs reference {lit:.4}",
            r.energy
        );
        t.push(vec![
            name.into(),
            format!("{:.4} Ha", r.energy),
            format!("{lit:.4} Ha"),
        ]);
    }
    t
}

/// Ablation: steal granularity (single task vs half the deque).
fn ablation_steal_policy(machine: &MachineModel) -> Table {
    let w = chem_workload_medium();
    let mut t = Table::new(
        "Ablation: steal granularity (simulated, P=64)",
        &["policy", "makespan", "steals", "attempts"],
    );
    let cfg = SimConfig {
        workers: 64,
        machine: *machine,
        ..SimConfig::new(64)
    };
    for (name, half) in [("steal-one", false), ("steal-half", true)] {
        let r = simulate(&w.costs, &SimModel::WorkStealing { steal_half: half }, &cfg);
        t.push(vec![
            name.into(),
            fmt_secs(r.makespan),
            r.steals.to_string(),
            r.steal_attempts.to_string(),
        ]);
    }
    t
}

/// Ablation: counter chunk sweep (the overhead/imbalance dial).
fn ablation_counter_chunk(machine: &MachineModel) -> Table {
    let w = synthetic_workload_large(16_384);
    let mut t = Table::new(
        "Ablation: shared-counter chunk size (simulated, P=256)",
        &["chunk", "makespan", "fetches", "utilization"],
    );
    let mut m = *machine;
    m.latency = 10e-6;
    m.counter_service = 1e-6;
    let cfg = SimConfig {
        workers: 256,
        machine: m,
        ..SimConfig::new(256)
    };
    for chunk in [1usize, 4, 16, 64, 256, 2048] {
        let r = simulate(&w.costs, &SimModel::Counter { chunk }, &cfg);
        t.push(vec![
            chunk.to_string(),
            fmt_secs(r.makespan),
            r.counter_fetches.to_string(),
            fmt3(r.utilization()),
        ]);
    }
    t
}

/// Ablation: Schwarz screening as the source of task-cost skew.
fn ablation_screening_skew() -> Table {
    let mol = Molecule::alkane(8);
    let mut t = Table::new(
        "Ablation: screening threshold vs task-cost skew (C8H18/STO-3G)",
        &["tau", "tasks", "total-cost", "max/mean", "gini"],
    );
    for (label, tau) in [
        ("0 (off)", 0.0),
        ("1e-12", 1e-12),
        ("1e-8", 1e-8),
        ("1e-6", 1e-6),
    ] {
        let w = estimate_fock_workload(&mol, BasisSet::Sto3g, usize::MAX, tau, 1.0, "s");
        let s = CostStats::from_costs(&w.costs);
        t.push(vec![
            label.into(),
            s.count.to_string(),
            fmt3(s.total),
            fmt3(s.max_over_mean),
            fmt3(s.gini),
        ]);
    }
    t
}

/// Ablation: initial seed partition of the stealing deques (simulated,
/// P=16): the steals each seed needs on the skewed chemistry workload.
fn ablation_seed_partition(machine: &MachineModel) -> Table {
    let w = chem_workload_medium();
    let p = 16;
    let mut t = Table::new(
        "Ablation: work-stealing seed partition (simulated, P=16)",
        &["seed", "makespan", "steals", "attempts", "utilization"],
    );
    let cfg = SimConfig {
        workers: p,
        machine: *machine,
        ..SimConfig::new(p)
    };
    for (name, seed) in [
        ("block", SeedPartition::Block),
        ("cyclic", SeedPartition::Cyclic),
    ] {
        let kind = PolicyKind::WorkStealing(StealConfig {
            seed,
            ..StealConfig::default()
        });
        let r = simulate_policy(&w.costs, &kind, &cfg);
        t.push(vec![
            name.into(),
            fmt_secs(r.makespan),
            r.steals.to_string(),
            r.steal_attempts.to_string(),
            fmt3(r.utilization()),
        ]);
    }
    t
}

/// Ablation: the hybrid execution model — balancer-seeded work stealing.
/// A cost-model assignment removes the *predictable* imbalance up front;
/// stealing handles only the residual, slashing steal traffic.
fn ablation_hybrid_seeding(machine: &MachineModel) -> Table {
    let mut t = Table::new(
        "Ablation: balancer-seeded (hybrid) work stealing, quartet-level tasks",
        &["scenario", "configuration", "makespan", "steals"],
    );
    // Three regimes on the chunk-1 (per-quartet) decomposition:
    //  * P=16, no variability — costs are predictable, the balancer
    //    alone is optimal, the hybrid steals ~nothing;
    //  * P=16, 2 slow cores — the static assignment breaks, residual
    //    stealing routes around the slow cores and beats even the
    //    block-seeded thief;
    //  * P=64, 4 slow cores — the heaviest single quartet exceeds the
    //    balanced share, so NO scheduler helps once its worker is slow:
    //    the work-units lesson at the kernel's own granularity floor.
    let mol = emx_chem::molecule::Molecule::water_cluster(2, 42);
    let w = emx_core::prelude::estimate_fock_workload(
        &mol,
        emx_chem::basis::BasisSet::SixThirtyOneG,
        1,
        1e-10,
        1.0,
        "hybrid",
    );
    let scenarios: [(&str, usize, emx_runtime::Variability); 3] = [
        ("P=16, stable", 16, emx_runtime::Variability::None),
        (
            "P=16, 2 slow ×2",
            16,
            emx_runtime::Variability::SlowCores {
                factor: 2.0,
                count: 2,
            },
        ),
        (
            "P=64, 4 slow ×2",
            64,
            emx_runtime::Variability::SlowCores {
                factor: 2.0,
                count: 4,
            },
        ),
    ];
    for (sname, p, var) in scenarios {
        let (sm, _) = emx_core::prelude::balance(
            emx_core::prelude::BalancerKind::SemiMatching,
            &w.costs,
            p,
            None,
        );
        let cfg = emx_distsim::sim::SimConfig {
            workers: p,
            machine: *machine,
            variability: var,
            ..emx_distsim::sim::SimConfig::new(p)
        };
        for (name, model) in [
            ("static (semi-matching)", SimModel::Static(sm.clone())),
            (
                "stealing, block seed",
                SimModel::WorkStealing { steal_half: true },
            ),
            (
                "stealing, semi-matching seed",
                SimModel::SeededStealing {
                    owners: sm.clone(),
                    steal_half: true,
                },
            ),
        ] {
            let r = simulate(&w.costs, &model, &cfg);
            t.push(vec![
                sname.into(),
                name.into(),
                fmt_secs(r.makespan),
                r.steals.to_string(),
            ]);
        }
    }
    t
}

/// Ablation: incremental Fock builds make per-task costs *drift* across
/// iterations — the execution-model assumption behind persistence-based
/// balancing erodes, while work stealing is indifferent.
///
/// The table tracks the first ten builds of an incremental SCF on
/// butane (a full rebuild at builds 0 and 8, ΔD-screened builds between):
/// the surviving quartets, ‖ΔD‖, and the load imbalance of (a) the
/// assignment frozen from the first incremental build vs (b) an
/// assignment re-derived from each build's actual costs.
fn ablation_incremental_drift() -> Table {
    use emx_chem::prelude::*;
    use emx_core::prelude::{balance, BalancerKind};

    let bm = BasisedMolecule::assign(&Molecule::alkane(4), BasisSet::Sto3g);
    let cfg = ScfConfig {
        tau: 1e-8,
        ..ScfConfig::default()
    };
    let p_workers = 8;
    let mut t = Table::new(
        "Ablation: incremental-Fock cost drift vs persistence balancing (C4H10, P=8)",
        &[
            "iteration",
            "quartets",
            "|dD|",
            "imbalance(frozen)",
            "imbalance(retuned)",
        ],
    );
    let mut frozen: Option<Vec<u32>> = None;
    rhf_incremental(&bm, &cfg, |build, dnorm, quartets| {
        if build >= 10 {
            return;
        }
        let per_task: Vec<f64> = quartets.iter().map(|&q| q as f64).collect();
        let problem = Problem::new(per_task.clone(), p_workers);
        let (retuned, _) = balance(BalancerKind::SemiMatching, &per_task, p_workers, None);
        // Freeze the assignment computed from the FIRST incremental
        // build's costs (build 1 — build 0 is the full build that
        // persistence schemes calibrate on).
        if build == 1 {
            frozen = Some(retuned.clone());
        }
        t.push(vec![
            build.to_string(),
            quartets.iter().sum::<u64>().to_string(),
            fmt3(dnorm),
            frozen
                .as_ref()
                .map_or_else(|| "-".into(), |a| fmt3(problem.imbalance(a))),
            fmt3(problem.imbalance(&retuned)),
        ]);
    });
    t
}

/// Ablation: persistence-based rebalancing warm-up trajectory.
fn ablation_persistence_warmup() -> Table {
    let w = chem_workload_medium();
    let p = 16;
    let mut t = Table::new(
        "Ablation: persistence rebalancer warm-up (P=16)",
        &["iteration", "imbalance", "migrated-tasks"],
    );
    let mut assignment = block_partition(w.ntasks(), p);
    for iter in 0..5 {
        let problem = Problem::new(w.costs.clone(), p);
        let before = assignment.clone();
        assignment = rebalance(&problem, &assignment);
        t.push(vec![
            iter.to_string(),
            fmt3(problem.imbalance(&assignment)),
            movement(&before, &assignment).to_string(),
        ]);
    }
    t
}
