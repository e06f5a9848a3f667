//! Cross-commit golden: one hash per (seed, model, fault plan) cell over
//! every simulated statistic, with the constants taken at the commit
//! *before* the fault-free and fault-injected loops were merged. The
//! merged loop must reproduce its two predecessors bit for bit: the plain
//! simulator on fault-free cells (assignment and profiling events
//! included, through both entry points) and the fault loops everywhere
//! else.
//!
//! To re-take the constants after an intended behaviour change:
//! `cargo test -p emx-distsim --test golden -- --ignored --nocapture`.

mod common;

use emx_distsim::prelude::*;

const P: usize = 64;
const N: usize = 8 * P;
const SEEDS: [u64; 2] = [1, 7];
const PLANS: [&str; 4] = ["fault-free", "fail-stop", "drop+delay", "outage"];

/// `GOLDEN[seed][model][plan]`, models in `common::roster` order.
#[rustfmt::skip]
const GOLDEN: [[[u64; 4]; 7]; 2] = [
    [
        [0x022be5654c620e39, 0xab1e9ee402763017, 0x40494355d4e4ccf9, 0x40494355d4e4ccf9],
        [0xcf26b4bb9656bc85, 0xf09c24c335b2e1ac, 0x7b72ad3848938f22, 0x24aa6a50e511c00c],
        [0xe47c11ff1414a4d6, 0x2f471ea883522747, 0x5e6a71cd13c48e7a, 0xe284c1e3b0a522f6],
        [0x770588f601f92fe9, 0x98fc1a0ddee8767d, 0x8043e5975977394e, 0xc1276b81de744223],
        [0xf53a5c6cf9495a1c, 0x1c37f0b88af063a2, 0xf64020dc9252e968, 0xc11b7ae29c0b4341],
        [0x6df39256b74200bb, 0x6fb9034a4d1cff25, 0x52d9f92a444c5ccb, 0x1a1905f7e348c3fb],
        [0xfa39774aab57f546, 0xc7b32f58ecc1dd4a, 0x3613bd0074d1267f, 0x54d9984d78cc4725],
    ],
    [
        [0x022be5654c620e39, 0xab1e9ee402763017, 0x40494355d4e4ccf9, 0x40494355d4e4ccf9],
        [0xcf26b4bb9656bc85, 0xf09c24c335b2e1ac, 0x0406ab800810247d, 0x24aa6a50e511c00c],
        [0xe47c11ff1414a4d6, 0x2f471ea883522747, 0x74a052f474e20dd0, 0xe284c1e3b0a522f6],
        [0x770588f601f92fe9, 0x98fc1a0ddee8767d, 0x0944ebf787f51e66, 0xc1276b81de744223],
        [0x6bbe8f74fe980af4, 0x812403ccd517681a, 0x92090c8f07046964, 0xa5de2943d8ef700d],
        [0x0fd66d8c1b7c789d, 0xbb970fc50f270496, 0xaf4e89fab0aefd5e, 0xa9ec8bd6cb551130],
        [0x286c04578d0403cb, 0x82cde2f52c484948, 0x8d8729df7691d103, 0x16b293e3a43f3f5b],
    ],
];

/// `GAP_GOLDEN[seed][model][recovery]`: the quiescent-gap cell
/// (`common::gap_cell`, where idle thieves wait for the detector instead
/// of polling) for the stealing models of `common::stealing_roster` under
/// `common::RECOVERIES`, assignment and events included. Taken with the
/// quiescence rule; the polling loop it replaced never produced them.
#[rustfmt::skip]
const GAP_GOLDEN: [[[u64; 3]; 3]; 2] = [
    [
        [0x2eb6237154bd6eff, 0x2eb6237154bd6eff, 0x87dcaa25942712ec],
        [0x2eb6237154bd6eff, 0x2eb6237154bd6eff, 0x87dcaa25942712ec],
        [0x6c2ffbfcfe929225, 0x6c2ffbfcfe929225, 0x79b0ab9a7d303316],
    ],
    [
        [0xcd3931461330e519, 0xcd3931461330e519, 0xb5e4aaf41155ea96],
        [0xcd3931461330e519, 0xcd3931461330e519, 0xb5e4aaf41155ea96],
        [0x911f1b8ac6361e00, 0x911f1b8ac6361e00, 0xc178561c4fb21b77],
    ],
];

/// Scattered 1–13× costs on a ramp that makes the last quarter of the
/// ranks four times as loaded as the first, so thieves meet long queues.
fn costs() -> Vec<f64> {
    (0..N)
        .map(|i| (((i * 29) % 13 + 1) * (1 + i * 4 / N)) as f64 * 1e-4)
        .collect()
}

fn cfg(seed: u64) -> SimConfig {
    let mut cfg = SimConfig::new(P);
    cfg.machine = MachineModel::with_topology();
    cfg.seed = seed;
    cfg.events = true;
    cfg
}

fn plans(seed: u64) -> [FaultPlan; 4] {
    let ideal = costs().iter().sum::<f64>() / P as f64;
    let seeded = |mut plan: FaultPlan| {
        plan.seed ^= seed;
        plan
    };
    [
        FaultPlan::fault_free(),
        FaultPlan::fault_free().with_rank_failure(P / 3, 0.25 * ideal),
        FaultPlan::fault_free().with_message_faults(0.05, 0.10, 5e-6),
        FaultPlan::fault_free().with_counter_outage(0.3 * ideal, 0.1 * ideal),
    ]
    .map(seeded)
}

/// FNV-1a over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn add(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Hash of one run. `streams` adds `assignment` and `events`, which the
/// pre-merge fault loops left empty and so pin nothing on faulted cells.
fn hash(sim: &SimReport, f: &FaultStats, streams: bool) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    h.add(sim.makespan.to_bits());
    sim.busy.iter().for_each(|b| h.add(b.to_bits()));
    sim.tasks.iter().for_each(|&t| h.add(t as u64));
    for x in [sim.steals, sim.steal_attempts, sim.counter_fetches] {
        h.add(x);
    }
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
        h.add(x);
    }
    f.recovery_latency.iter().for_each(|l| h.add(l.to_bits()));
    if streams {
        sim.assignment.iter().for_each(|&w| h.add(u64::from(w)));
        for stream in &sim.events {
            h.add(stream.len() as u64);
            for e in stream {
                h.add(e.kind as u64);
                h.add(e.arg);
                h.add(e.t_ns);
            }
        }
    }
    h.0
}

/// The cell as its own entry point computes it: `simulate` when the plan
/// injects nothing, `simulate_with_faults` otherwise.
fn cell(costs: &[f64], model: &SimModel, cfg: &SimConfig, plan: &FaultPlan) -> u64 {
    if plan.is_fault_free() {
        hash(&simulate(costs, model, cfg), &FaultStats::default(), true)
    } else {
        let r = simulate_with_faults(costs, model, cfg, plan);
        hash(&r.sim, &r.faults, false)
    }
}

#[test]
fn every_cell_matches_the_pre_merge_simulators() {
    let costs = costs();
    let mut drift = Vec::new();
    for (s, &seed) in SEEDS.iter().enumerate() {
        let cfg = cfg(seed);
        for (m, model) in common::roster(N, P).iter().enumerate() {
            for (k, plan) in plans(seed).iter().enumerate() {
                let label = format!("seed {seed} {} {}", model.name(), PLANS[k]);
                if cell(&costs, model, &cfg, plan) != GOLDEN[s][m][k] {
                    drift.push(label.clone());
                }
                if plan.is_fault_free() {
                    // The degenerate plan is the plain simulator.
                    let r = simulate_with_faults(&costs, model, &cfg, plan);
                    if hash(&r.sim, &r.faults, true) != GOLDEN[s][m][k] {
                        drift.push(label + " via simulate_with_faults");
                    }
                }
            }
        }
    }
    assert!(drift.is_empty(), "cells drifted: {drift:#?}");
}

/// One row of the gap table: `model` at `seed` under each recovery policy.
fn gap_row(seed: u64, model: &SimModel) -> [u64; 3] {
    common::RECOVERIES.map(|recovery| {
        let mut cell = common::gap_cell(P, seed, recovery);
        cell.cfg.events = true;
        let r = simulate_with_faults(&cell.costs, model, &cell.cfg, &cell.plan);
        hash(&r.sim, &r.faults, true)
    })
}

#[test]
fn gap_cells_match_the_quiescence_rule() {
    let mut drift = Vec::new();
    for (s, &seed) in SEEDS.iter().enumerate() {
        for (m, model) in common::stealing_roster(2 * P, P).iter().enumerate() {
            if gap_row(seed, model) != GAP_GOLDEN[s][m] {
                drift.push(format!("seed {seed} {}", model.name()));
            }
        }
    }
    assert!(drift.is_empty(), "gap cells drifted: {drift:#?}");
}

#[test]
#[ignore = "prints the GOLDEN and GAP_GOLDEN tables for the current code"]
fn print_golden() {
    let costs = costs();
    println!("const GOLDEN: [[[u64; 4]; 7]; 2] = [");
    for &seed in &SEEDS {
        let cfg = cfg(seed);
        println!("    [");
        for model in &common::roster(N, P) {
            let row = plans(seed).map(|plan| format!("{:#018x}", cell(&costs, model, &cfg, &plan)));
            println!("        [{}],", row.join(", "));
        }
        println!("    ],");
    }
    println!("];");
    println!("const GAP_GOLDEN: [[[u64; 3]; 3]; 2] = [");
    for &seed in &SEEDS {
        println!("    [");
        for model in &common::stealing_roster(2 * P, P) {
            let row = gap_row(seed, model).map(|h| format!("{h:#018x}"));
            println!("        [{}],", row.join(", "));
        }
        println!("    ],");
    }
    println!("];");
}
