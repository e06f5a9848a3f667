//! Allocation-count guard on the Fock hot path.
//!
//! A counting `#[global_allocator]` wrapper proves the scratch-buffer
//! rework actually removed the per-quartet heap traffic: once a warmed
//! [`EriScratch`] exists, executing every Fock task — plain and
//! density-screened, both through the batched SoA kernel, plus the
//! retained scalar arm — performs **zero** allocations, on water in
//! 6-31G and in 6-31G* (whose oxygen d shell reaches the kernel's
//! l ≥ 2 branches). This is the guard against a per-call `Vec` or a
//! shell-pair rebuild (`ShellPair::build`, `HermiteE::build`) in the
//! quartet loop: both allocate. The batched
//! path stages its surviving-ket list and per-ket output blocks in the
//! scratch too (`mem::take`/restore around the kernel call), so the
//! guard would catch a regression in that plumbing as well. The same
//! guard covers the observability layer's capture path: driving the
//! warmed kernel with event recording into a pre-sized [`EventRing`]
//! stays allocation-free. This file holds a single test on purpose: the
//! default test harness runs tests on several threads, and a concurrent
//! test's allocations would leak into the counter.

use emx_chem::basis::{BasisSet, BasisedMolecule};
use emx_chem::fock::FockBuilder;
use emx_chem::molecule::Molecule;
use emx_chem::screening::ScreenedPairs;
use emx_linalg::Matrix;
use emx_obs::{EventKind, EventRing};
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

/// Runs `f` with allocation counting on; returns how many allocations
/// (malloc or realloc) happened inside.
fn count_allocs(f: impl FnOnce()) -> u64 {
    ALLOCS.store(0, Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    f();
    COUNTING.store(false, Ordering::SeqCst);
    ALLOCS.load(Ordering::SeqCst)
}

#[test]
fn fock_execute_paths_are_allocation_free() {
    // Split-valence basis: resizing scratch across quartet shapes is
    // exactly where a hidden re-allocation would hide. 6-31G* adds the
    // oxygen d shell, so the kernel's l ≥ 2 branches run too.
    for basis in [BasisSet::SixThirtyOneG, BasisSet::SixThirtyOneGStar] {
        check_execute_paths(basis);
    }
}

fn check_execute_paths(basis: BasisSet) {
    let bm = BasisedMolecule::assign(&Molecule::water(), basis);
    let pairs = ScreenedPairs::build(&bm, 1e-12);
    let fb = FockBuilder::new(&bm, &pairs, 1e-10);
    let tasks = fb.tasks(4);
    let mut d = Matrix::from_fn(bm.nbf, bm.nbf, |i, j| {
        0.2 / (1.0 + (i as f64 - j as f64).abs())
    });
    d.symmetrize();
    let delta = d.clone();
    let dmax = fb.pair_density_max(&delta);
    let mut g = Matrix::zeros(bm.nbf, bm.nbf);
    let mut scratch = fb.scratch();

    // Warm-up: grows the scratch block to the largest quartet shape and
    // builds the process-global Boys table.
    let mut quartets = 0u64;
    for t in &tasks {
        quartets += fb.execute(t, &d, &mut g, &mut scratch);
    }
    assert!(quartets > 0, "workload must be nontrivial");

    let n = count_allocs(|| {
        for t in &tasks {
            fb.execute(t, &d, &mut g, &mut scratch);
            fb.execute_density_screened(t, &delta, &dmax, &mut g, &mut scratch);
            fb.execute_scalar(t, &d, &mut g, &mut scratch);
        }
    });
    assert_eq!(
        n,
        0,
        "Fock hot path allocated {n} times with a warmed scratch ({})",
        basis.name()
    );

    // The profiling rings hold the same guarantee with recording on:
    // once the fixed-capacity ring exists, recording a start/end event
    // pair per task is store-only — no allocation on the hot path.
    let ring = EventRing::new(tasks.len().next_power_of_two() * 2);
    let mut writer = ring.writer();
    let n = count_allocs(|| {
        for (i, t) in tasks.iter().enumerate() {
            let start = i as u64 * 100;
            writer.record(EventKind::TaskStart, i as u64, start);
            fb.execute(t, &d, &mut g, &mut scratch);
            writer.record(EventKind::TaskEnd, i as u64, start + 100);
        }
    });
    assert_eq!(
        n,
        0,
        "ring recording allocated {n} times in the loop ({})",
        basis.name()
    );
    assert_eq!(ring.recorded(), 2 * tasks.len() as u64);
}
