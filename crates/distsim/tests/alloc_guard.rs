//! Allocation-count guard on the stealing loop.
//!
//! The loop used to keep a `VecDeque` of tasks and a `Vec` of stolen
//! tasks per rank, and the calendar queue a heap per touched bucket: the
//! number of allocations of one simulation grew with the rank count
//! (2·10⁵ small buffers at 10⁵ ranks). The arena (`RankQueues`) and the
//! pooled calendar allocate a fixed set of vectors whose *sizes* follow
//! the rank count; a counting `#[global_allocator]` shows the *number* of
//! allocations does not — ten times the ranks may cost a few more
//! doublings of the vectors that grow by `push`, and nothing else. This
//! file holds a single test on purpose: the default harness runs tests
//! on several threads, and a concurrent test's allocations would leak
//! into the counter.

use emx_distsim::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: pure pass-through to the System allocator; the only added
// behaviour is two Relaxed counter bumps, which never allocate and
// never touch the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: caller upholds GlobalAlloc's contract; we forward the
    // layout to System unchanged.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: same layout the caller guaranteed valid.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: caller upholds GlobalAlloc's contract; ptr/layout are
    // forwarded to System unchanged.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: ptr was allocated by this allocator (i.e. System)
        // with `layout`, per the caller's contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    // SAFETY: caller upholds GlobalAlloc's contract.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: ptr came from System.alloc/realloc with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations (malloc or realloc) of one fault-free simulation of
/// `model` at `p` ranks, two tasks of 1–7 µs a rank on the topology
/// machine — the benchmark's `sim-wide` shape.
fn allocs(model: &SimModel, p: usize) -> u64 {
    let costs: Vec<f64> = (0..2 * p)
        .map(|i| ((i * 13) % 7 + 1) as f64 * 1e-6)
        .collect();
    let mut cfg = SimConfig::new(p);
    cfg.machine = MachineModel::with_topology();
    ALLOCS.store(0, Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    let report = simulate(&costs, model, &cfg);
    COUNTING.store(false, Ordering::SeqCst);
    assert_eq!(report.tasks.iter().sum::<usize>(), 2 * p);
    assert!(report.steals > 0, "{}: nothing was stolen", model.name());
    ALLOCS.load(Ordering::SeqCst)
}

#[test]
fn stealing_allocations_do_not_grow_with_the_rank_count() {
    for model in [
        SimModel::WorkStealing { steal_half: true },
        SimModel::TopologyStealing { steal_half: true },
    ] {
        let (small, large) = (allocs(&model, 2_000), allocs(&model, 20_000));
        // Measured 27 and 33 (work stealing), 32 and 38 (topology): the
        // calendar's rebuilds as the run drains, and log₂ 10 more
        // doublings of the vectors it fills by `push`. The per-rank
        // containers made it 3 050 and 24 073.
        assert!(
            large <= small + 16 && large <= 80,
            "{}: {small} allocations at 2 000 ranks, {large} at 20 000",
            model.name()
        );
    }
}
