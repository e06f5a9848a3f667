//! The two simulator workloads — host wall of a six-family roster pass,
//! of a fault-plan pass and of the roster on the heap oracle — and the
//! layer metrics of emx-distsim. Every time here is *host* time; the
//! simulated statistics go into `distsim.stats_hash`, which a change
//! that only speeds the simulator up must leave as it is.

use crate::harness::measure;
use crate::inputs::{lognormal, shuffled};
use crate::report::Run;
use crate::stats::median;
use crate::trace::Tracer;
use emx_distsim::prelude::*;
use std::time::Instant;

/// Families the fault plan runs through (one per loop in `faults.rs`).
const FAULT_FAMILIES: [&str; 3] = ["static", "counter", "work-stealing"];

pub struct SimCase {
    ranks: usize,
    tasks_per_rank: usize,
    /// σ of the log-normal task costs; `None` for the wide workload's
    /// seven-level skew.
    sigma: Option<f64>,
    seed: u64,
}

/// The named simulator workloads; `None` for a name of another family.
pub fn case(workload: &str, seed: u64, smoke: bool) -> Option<SimCase> {
    Some(match workload {
        "sim-wide" | "sim-deep" if smoke => small(seed),
        "sim-wide" => SimCase {
            ranks: 100_000,
            tasks_per_rank: 2,
            sigma: None,
            seed,
        },
        "sim-deep" => SimCase {
            ranks: 4096,
            tasks_per_rank: 128,
            sigma: Some(1.3),
            seed,
        },
        _ => return None,
    })
}

/// 10⁴ ranks × 2 tasks: `--smoke`'s simulator size, and the size at
/// which a traced run of a non-simulator workload measures this layer.
pub fn small(seed: u64) -> SimCase {
    SimCase {
        ranks: 10_000,
        tasks_per_rank: 2,
        sigma: None,
        seed,
    }
}

/// 64 ranks: the harness's own tests, which run unoptimised.
#[cfg(test)]
pub fn tiny() -> SimCase {
    SimCase {
        ranks: 64,
        tasks_per_rank: 2,
        sigma: None,
        seed: 1,
    }
}

struct Prepared {
    costs: Vec<f64>,
    models: Vec<SimModel>,
    cfg: SimConfig,
    plan: FaultPlan,
    /// Reports of the last roster pass on the default queue, which the
    /// heap pass must reproduce bit for bit.
    last_roster: Vec<SimReport>,
}

/// Task costs in seconds: 1–7 µs in seven equally frequent levels (the
/// wide workload: two tasks per rank, so the endgame is the whole run),
/// or log-normal around 10 µs (the deep workload: long per-rank queues);
/// the seed places them.
fn costs(case: &SimCase) -> Vec<f64> {
    let n = case.ranks * case.tasks_per_rank;
    let set = match case.sigma {
        None => (0..n).map(|i| (i % 7 + 1) as f64 * 1e-6).collect(),
        Some(sigma) => lognormal(n, sigma).iter().map(|c| c * 10e-6).collect(),
    };
    shuffled(set, case.seed)
}

/// Set-up: the cost vector, the six models (parameters as in the
/// repository's `reproduce distsim` roster), the fault plan (one
/// fail-stop rank a quarter into the ideal run, 5 % drops, 10 % delays of
/// 5 µs — experiment E10's settings combined), and one warm-up pass.
fn prepare(case: &SimCase) -> Prepared {
    let costs = costs(case);
    let (n, p) = (costs.len(), case.ranks);
    let owners: Vec<u32> = (0..n).map(|i| (i * p / n) as u32).collect();
    let models = vec![
        SimModel::Static(owners),
        SimModel::Counter { chunk: 4 },
        SimModel::Guided { min_chunk: 2 },
        SimModel::HierCounters {
            chunk: 4,
            node_size: 32,
            parent_chunk: 32,
        },
        SimModel::WorkStealing { steal_half: true },
        SimModel::TopologyStealing { steal_half: true },
    ];
    let mut cfg = SimConfig::new(p);
    cfg.machine = MachineModel::with_topology();
    cfg.seed ^= case.seed;
    let ideal = costs.iter().sum::<f64>() / p as f64;
    let mut plan = FaultPlan::fault_free()
        .with_rank_failure(p / 3, 0.25 * ideal)
        .with_message_faults(0.05, 0.10, 5e-6);
    plan.seed ^= case.seed;
    let prepared = Prepared {
        costs,
        models,
        cfg,
        plan,
        last_roster: Vec::new(),
    };
    roster_pass(&prepared, QueueKind::default(), None);
    prepared
}

/// Runs `f` per model, inside a `root` span with one child span per
/// family when a tracer is given; returns the pass's wall and results.
fn pass<'m, R>(
    models: impl Iterator<Item = &'m SimModel>,
    root: &str,
    tr: Option<&mut Tracer>,
    f: impl Fn(&SimModel) -> R,
) -> (f64, Vec<R>) {
    let t = Instant::now();
    let out = match tr {
        None => models.map(&f).collect(),
        Some(tr) => tr.span(root, |tr| {
            models
                .map(|m| tr.span(&format!("{root}.{}", m.name()), |_| f(m)))
                .collect()
        }),
    };
    (t.elapsed().as_secs_f64(), out)
}

fn roster_pass(p: &Prepared, queue: QueueKind, tr: Option<&mut Tracer>) -> (f64, Vec<SimReport>) {
    let mut cfg = p.cfg.clone();
    cfg.queue = queue;
    let root = match queue {
        QueueKind::Heap => "distsim.simulate_heap",
        _ => "distsim.simulate",
    };
    pass(p.models.iter(), root, tr, |m| simulate(&p.costs, m, &cfg))
}

fn fault_pass(p: &Prepared, plan: &FaultPlan, tr: Option<&mut Tracer>) -> (f64, Vec<FaultReport>) {
    let models = p
        .models
        .iter()
        .filter(|m| FAULT_FAMILIES.contains(&m.name()));
    pass(models, "distsim.simulate_with_faults", tr, |m| {
        simulate_with_faults(&p.costs, m, &p.cfg, plan)
    })
}

/// Simulated statistics that must not depend on the event queue.
fn same_stats(a: &SimReport, b: &SimReport) -> bool {
    a.makespan.to_bits() == b.makespan.to_bits()
        && a.tasks == b.tasks
        && (a.counter_fetches, a.steals, a.steal_attempts)
            == (b.counter_fetches, b.steals, b.steal_attempts)
}

fn check_conserved(run: &mut Run, p: &Prepared, what: &str, reports: &[&SimReport]) {
    let n = p.costs.len();
    run.check(
        reports.iter().all(|r| r.tasks.iter().sum::<usize>() == n),
        || format!("{what}: a family did not run exactly {n} tasks"),
    );
}

fn check_roster(run: &mut Run, p: &mut Prepared, queue: QueueKind, reports: Vec<SimReport>) {
    check_conserved(run, p, "roster", &reports.iter().collect::<Vec<_>>());
    if queue == QueueKind::Heap {
        let same = reports
            .iter()
            .zip(&p.last_roster)
            .all(|(a, b)| same_stats(a, b));
        run.check(same, || "heap and default queue disagree bitwise".into());
    } else {
        p.last_roster = reports;
    }
}

fn check_faults(run: &mut Run, p: &Prepared, reports: &[FaultReport]) {
    check_conserved(
        run,
        p,
        "fault plan",
        &reports.iter().map(|r| &r.sim).collect::<Vec<_>>(),
    );
    run.check(reports.iter().all(|r| r.faults.lost == 0), || {
        "the recovering fault plan lost tasks".into()
    });
}

/// The untraced run: `headline_s` one fault-free roster pass on the
/// default queue, `contrast_s` one fault-plan pass, `baseline_s` the
/// roster pass on the binary-heap oracle.
pub fn untraced(run: &mut Run, case: &SimCase, seconds: f64, smoke: bool) {
    let roster = |queue: QueueKind| {
        move |p: &mut Prepared, run: &mut Run| {
            let (wall, reports) = roster_pass(p, queue, None);
            check_roster(run, p, queue, reports);
            wall
        }
    };
    measure(
        run,
        seconds,
        smoke,
        || prepare(case),
        &[
            ("headline_s", &roster(QueueKind::default())),
            ("contrast_s", &|p, run| {
                let (wall, reports) = fault_pass(p, &p.plan, None);
                check_faults(run, p, &reports);
                wall
            }),
            ("baseline_s", &roster(QueueKind::Heap)),
        ],
    );
}

fn events(r: &SimReport) -> u64 {
    r.tasks.iter().sum::<usize>() as u64 + r.counter_fetches + r.steal_attempts
}

/// FNV-1a over every simulated statistic, cut to 48 bits so that it
/// survives a JSON number.
struct StatsHash(u64);

impl StatsHash {
    fn add(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn add_sim(&mut self, r: &SimReport) {
        self.add(r.makespan.to_bits());
        r.tasks.iter().for_each(|&t| self.add(t as u64));
        for x in [r.counter_fetches, r.steals, r.steal_attempts] {
            self.add(x);
        }
    }

    fn add_faults(&mut self, f: &FaultStats) {
        for x in [
            f.injected,
            f.detected,
            f.orphaned,
            f.recovered,
            f.lost,
            f.dropped_messages,
            f.delayed_messages,
            f.rpc_timeouts,
            f.counter_failovers,
        ] {
            self.add(x);
        }
        f.recovery_latency
            .iter()
            .for_each(|l| self.add(l.to_bits()));
    }
}

/// The traced run: one plain roster and fault pass, then `PASSES` traced
/// passes of roster, fault plan and heap roster with a span per family.
/// Returns `(traced, plain)` walls of roster + fault pass.
pub fn traced(run: &mut Run, tr: &mut Tracer, case: &SimCase) -> (f64, f64) {
    const PASSES: usize = 2;
    let mut p = prepare(case);
    let plan = p.plan.clone();
    let (plain_roster, _) = roster_pass(&p, QueueKind::default(), None);
    let (plain_fault, _) = fault_pass(&p, &plan, None);

    let mark = tr.mark();
    let (mut roster_walls, mut fault_walls, mut heap_walls) = (vec![], vec![], vec![]);
    let mut faulted = Vec::new();
    for _ in 0..PASSES {
        let (wall, reports) = roster_pass(&p, QueueKind::default(), Some(tr));
        roster_walls.push(wall);
        check_roster(run, &mut p, QueueKind::default(), reports);
        let (wall, reports) = fault_pass(&p, &plan, Some(tr));
        fault_walls.push(wall);
        check_faults(run, &p, &reports);
        faulted = reports;
        let (wall, reports) = roster_pass(&p, QueueKind::Heap, Some(tr));
        heap_walls.push(wall);
        check_roster(run, &mut p, QueueKind::Heap, reports);
    }

    // Simulated statistics, from the last pass (every pass repeats them).
    let mut hash = StatsHash(0xcbf2_9ce4_8422_2325);
    p.last_roster.iter().for_each(|r| hash.add_sim(r));
    for r in &faulted {
        hash.add_sim(&r.sim);
        hash.add_faults(&r.faults);
    }
    run.put("distsim.stats_hash", (hash.0 & 0xffff_ffff_ffff) as f64);
    let makespan = |name: &str| {
        let i = p.models.iter().position(|m| m.name() == name);
        p.last_roster[i.expect("family in roster")].makespan
    };
    run.put(
        "distsim.ws_vs_static_makespan",
        makespan("static") / makespan("work-stealing"),
    );

    // A fault-free plan through the fault loops must be the plain
    // simulator, statistic for statistic.
    let (_, degenerate) = fault_pass(&p, &FaultPlan::fault_free(), None);
    let plain = p
        .models
        .iter()
        .zip(&p.last_roster)
        .filter(|(m, _)| FAULT_FAMILIES.contains(&m.name()));
    let mismatches = degenerate
        .iter()
        .zip(plain)
        .filter(|(d, (_, r))| !same_stats(&d.sim, r))
        .count();
    run.check(mismatches == 0, || {
        format!("{mismatches} families differ under a fault-free plan")
    });
    run.put("distsim.fault_free_mismatches", mismatches as f64);

    // Per-family host walls: the median over the traced passes of each
    // family's span.
    let family_wall = |root: &str, name: &str| {
        let full = format!("{root}.{name}");
        let walls: Vec<f64> = tr.spans()[mark..]
            .iter()
            .filter(|s| s.name == full)
            .map(|s| s.seconds())
            .collect();
        median(&walls)
    };
    let (mut total_events, mut total_wall) = (0.0, 0.0);
    for (m, r) in p.models.iter().zip(&p.last_roster) {
        let wall = family_wall("distsim.simulate", m.name());
        run.put(&format!("distsim.wall_s.{}", m.name()), wall);
        run.put(&format!("distsim.events.{}", m.name()), events(r) as f64);
        total_events += events(r) as f64;
        total_wall += wall;
        if FAULT_FAMILIES.contains(&m.name()) {
            let fault = family_wall("distsim.simulate_with_faults", m.name());
            run.put(&format!("distsim.fault_wall_s.{}", m.name()), fault);
            run.put(
                &format!("distsim.fault_over_plain.{}", m.name()),
                fault / wall,
            );
        }
    }
    run.put("distsim.events_per_s", total_events / total_wall);
    run.put(
        "distsim.heap_over_calendar",
        median(&heap_walls) / median(&roster_walls),
    );
    (
        median(&roster_walls) + median(&fault_walls),
        plain_roster + plain_fault,
    )
}
