//! The balancer workload — host wall of semi-matching, of the multilevel
//! hypergraph partitioner and of greedy LPT on one task set — and the
//! layer metrics of emx-balance. Nothing here touches chem, runtime or
//! distsim: for a change to those layers the prediction is "no change".

use crate::harness::measure;
use crate::inputs::{lognormal, shuffled};
use crate::report::Run;
use crate::stats::median;
use crate::trace::Tracer;
use emx_balance::prelude::*;
use emx_core::balancer::{balance, BalancerKind, TaskAffinity};
use emx_core::experiments::synthetic_affinity;
use std::hint::black_box;
use std::time::Instant;

/// Back-to-back calls behind one sample of the cheap arms, so that a
/// sample is tens of milliseconds rather than one or two.
const SEMIMATCH_CALLS: usize = 8;
const LPT_CALLS: usize = 32;

pub struct BalCase {
    ntasks: usize,
    workers: usize,
    seed: u64,
}

/// The named balancer workload; `None` for a name of another family.
pub fn case(workload: &str, seed: u64, smoke: bool) -> Option<BalCase> {
    match workload {
        "balance-16k" if smoke => Some(small(seed)),
        "balance-16k" => Some(BalCase {
            ntasks: 16_000,
            workers: 16,
            seed,
        }),
        _ => None,
    }
}

/// 2 000 tasks: `--smoke`'s balancer size, and the size at which a
/// traced run of another workload measures this layer.
pub fn small(seed: u64) -> BalCase {
    BalCase {
        ntasks: 2_000,
        workers: 16,
        seed,
    }
}

/// 200 tasks: the harness's own tests, which run unoptimised.
#[cfg(test)]
pub fn tiny() -> BalCase {
    BalCase {
        ntasks: 200,
        workers: 4,
        seed: 1,
    }
}

struct Prepared {
    costs: Vec<f64>,
    affinity: TaskAffinity,
    workers: usize,
}

/// Set-up: log-normal task costs (σ = 1.3, the skew of the screened
/// kernel) placed by the seed, three-block affinities over n/4 blocks as in experiments
/// E3/E4, and a warm-up of the two cheap arms.
fn prepare(case: &BalCase) -> Prepared {
    let costs = shuffled(lognormal(case.ntasks, 1.3), case.seed);
    let affinity = synthetic_affinity(case.ntasks, case.ntasks / 4, case.seed);
    let p = Prepared {
        costs,
        affinity,
        workers: case.workers,
    };
    for kind in [BalancerKind::SemiMatching, BalancerKind::Lpt] {
        black_box(balance(kind, &p.costs, p.workers, Some(&p.affinity)));
    }
    p
}

/// `calls` back-to-back `balance` calls of one technique; returns the
/// mean wall of a call, having checked every assignment.
fn sample(p: &Prepared, run: &mut Run, kind: BalancerKind, calls: usize) -> f64 {
    let t = Instant::now();
    let assignments: Vec<Vec<u32>> = (0..calls)
        .map(|_| balance(kind, &p.costs, p.workers, Some(&p.affinity)).0)
        .collect();
    let wall = t.elapsed().as_secs_f64() / calls as f64;
    run.check(
        assignments
            .iter()
            .all(|a| is_valid(a, p.costs.len(), p.workers)),
        || format!("{}: invalid assignment", kind.name()),
    );
    wall
}

/// The untraced run: `headline_s` semi-matching, `contrast_s` the
/// hypergraph partitioner, `baseline_s` LPT, each the wall of one
/// `emx_core::balancer::balance` call.
pub fn untraced(run: &mut Run, case: &BalCase, seconds: f64, smoke: bool) {
    measure(
        run,
        seconds,
        smoke,
        || prepare(case),
        &[
            ("headline_s", &|p, run| {
                sample(p, run, BalancerKind::SemiMatching, SEMIMATCH_CALLS)
            }),
            ("contrast_s", &|p, run| {
                sample(p, run, BalancerKind::Hypergraph, 1)
            }),
            ("baseline_s", &|p, run| {
                sample(p, run, BalancerKind::Lpt, LPT_CALLS)
            }),
        ],
    );
}

/// The traced run: `balance`'s body spelt out with a span per step of
/// each technique, and the quality of every assignment. Returns
/// `(traced, plain)` walls of semi-matching + hypergraph + LPT.
pub fn traced(run: &mut Run, tr: &mut Tracer, case: &BalCase) -> (f64, f64) {
    const CHEAP_SAMPLES: usize = 5;
    const HYPERGRAPH_SAMPLES: usize = 2;
    let p = prepare(case);
    let (n, k) = (p.costs.len(), p.workers);
    let plain: f64 = [
        BalancerKind::SemiMatching,
        BalancerKind::Hypergraph,
        BalancerKind::Lpt,
    ]
    .iter()
    .map(|&kind| sample(&p, run, kind, 1))
    .sum();

    let problem = Problem::new(p.costs.clone(), k);
    let hg = Hypergraph::from_affinities(p.costs.clone(), &p.affinity.touches, p.affinity.nblocks);
    let quality = |run: &mut Run, label: &str, a: &[u32]| {
        run.check(is_valid(a, n, k), || format!("{label}: invalid assignment"));
        run.put(&format!("balance.imbalance.{label}"), problem.imbalance(a));
        run.put(
            &format!("balance.comm_volume.{label}"),
            hg.connectivity_cut(a, k),
        );
    };

    let lpt_s = median(&tr.samples("balance.lpt", CHEAP_SAMPLES, || lpt(&problem)));
    run.put("balance.lpt_s", lpt_s);
    quality(run, "lpt", &lpt(&problem));
    let kk = tr.samples("balance.karmarkar_karp", CHEAP_SAMPLES, || {
        karmarkar_karp(&problem)
    });
    run.put("balance.kk_s", median(&kk));
    quality(run, "kk", &karmarkar_karp(&problem));

    let adjacency = tr.samples("balance.full_adjacency", CHEAP_SAMPLES, || {
        full_adjacency(n, k)
    });
    let adj = full_adjacency(n, k);
    let matching = tr.samples("balance.semi_matching", CHEAP_SAMPLES, || {
        semi_matching(&problem, &adj, &SemiMatchConfig::default())
    });
    run.put("balance.sm_adjacency_s", median(&adjacency));
    run.put("balance.sm_match_s", median(&matching));
    quality(
        run,
        "sm",
        &semi_matching(&problem, &adj, &SemiMatchConfig::default()),
    );

    let build = tr.samples("balance.hypergraph_build", HYPERGRAPH_SAMPLES, || {
        Hypergraph::from_affinities(p.costs.clone(), &p.affinity.touches, p.affinity.nblocks)
    });
    let mut parts = Vec::new();
    let partition_s = tr.samples("balance.hypergraph_partition", HYPERGRAPH_SAMPLES, || {
        parts = partition(&hg, k, &HgpConfig::default());
    });
    run.put("balance.hg_build_s", median(&build));
    run.put("balance.hg_partition_s", median(&partition_s));
    quality(run, "hg", &parts);

    let traced =
        median(&adjacency) + median(&matching) + median(&build) + median(&partition_s) + lpt_s;
    (traced, plain)
}
