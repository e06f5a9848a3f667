//! Per-worker lock-free profiling event rings.
//!
//! The crate's one per-worker capture path. An always-on profiler's
//! capture must be bounded, allocation-free after setup and immune to a
//! slow consumer, so this is one bounded single-producer/single-consumer
//! [`EventRing`] per worker, fixed capacity, overwrite-oldest, cycle
//! timestamps carried by the caller (the runtime reuses the clock reads
//! it already makes for busy accounting; the simulator stamps virtual
//! time), and a seqlock-style slot protocol so a reader may snapshot the
//! ring *while the worker is still writing* without locks, torn events
//! or unsafe code.
//!
//! ## Event schema
//!
//! One [`ProfEvent`] is `(kind, arg, t_ns)`. The same schema is emitted
//! by both substrates — real threads (`emx-runtime`'s pool) and the
//! discrete-event simulator (`emx-distsim`, in virtual nanoseconds) — so
//! one attribution pipeline ([`crate::attrib`]) serves both.
//!
//! | kind                | arg            | marks                          |
//! |---------------------|----------------|--------------------------------|
//! | `TaskStart/TaskEnd` | task index     | task body execution            |
//! | `StealAttempt`      | victim worker  | one steal probe (point event)  |
//! | `StealSuccess`      | victim worker  | probe succeeded, hunt over     |
//! | `StealFail`         | victim worker  | probe failed                   |
//! | `CounterFetchStart/End` | first index fetched | shared-counter round trip |
//! | `IdleStart`         | failed probes without events | out of local work, hunt begins |
//! | `IdleEnd`           | 0              | hunt ends without a steal      |
//! | `MergeStart/MergeEnd` | other slot   | pairwise reduction-tree merge  |
//!
//! A hunt costs a ring O(1) events however long it lasts: the thread
//! runtime counts a thief's failed probes and, when the hunt closes,
//! writes `IdleStart` (stamped at the hunt's start, carrying the count)
//! and the winning `StealAttempt` + `StealSuccess`, or `IdleEnd`. The
//! simulator's probes are few, so it writes one event pair per probe.
//!
//! ## Slot protocol
//!
//! Each slot is three `AtomicU64`s: a sequence word and two payload
//! words. Writing event `n` into slot `n % capacity`:
//!
//! 1. `seq ← 2n+1` (odd: in flight),
//! 2. release fence — orders the odd store before the payload stores,
//!    so on weakly-ordered hardware (ARM/POWER) a reader that sees a
//!    new payload word is guaranteed to see the odd sequence too,
//! 3. payload stores,
//! 4. `seq ← 2n+2` (even, Release: event `n` complete).
//!
//! A reader accepts a slot only if it reads `seq == 2n+2` both before
//! and after the payload loads (with an acquire fence between), so an
//! event is returned iff it was completely written and not overwritten
//! mid-read. The ring head counts every event ever recorded; drains
//! report how many were overwritten so analysis can refuse to trust a
//! truncated window.

use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::sync::Arc;

/// What a [`ProfEvent`] marks. Stored in the top byte of a packed word;
/// the discriminants are part of the on-ring layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum EventKind {
    /// Task body begins (`arg` = task index).
    TaskStart = 1,
    /// Task body ends (`arg` = task index).
    TaskEnd = 2,
    /// One steal probe issued (`arg` = victim worker).
    StealAttempt = 3,
    /// A probe succeeded (`arg` = victim worker).
    StealSuccess = 4,
    /// A probe failed (`arg` = victim worker).
    StealFail = 5,
    /// Shared-counter fetch begins (`arg` = 0; the index is not yet known).
    CounterFetchStart = 6,
    /// Shared-counter fetch returned (`arg` = first index fetched).
    CounterFetchEnd = 7,
    /// Worker ran out of local work (`arg` = failed probes of this hunt
    /// that have no `StealAttempt`/`StealFail` events of their own).
    IdleStart = 8,
    /// Hunt for work ended without a steal — exhaustion or abort (`arg` = 0).
    IdleEnd = 9,
    /// Reduction-tree merge begins (`arg` = the other slot index).
    MergeStart = 10,
    /// Reduction-tree merge ends (`arg` = the other slot index).
    MergeEnd = 11,
}

impl EventKind {
    fn from_u8(b: u8) -> Option<EventKind> {
        Some(match b {
            1 => EventKind::TaskStart,
            2 => EventKind::TaskEnd,
            3 => EventKind::StealAttempt,
            4 => EventKind::StealSuccess,
            5 => EventKind::StealFail,
            6 => EventKind::CounterFetchStart,
            7 => EventKind::CounterFetchEnd,
            8 => EventKind::IdleStart,
            9 => EventKind::IdleEnd,
            10 => EventKind::MergeStart,
            11 => EventKind::MergeEnd,
            _ => return None,
        })
    }

    /// Short stable name (used by exports and tables).
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::TaskStart => "task_start",
            EventKind::TaskEnd => "task_end",
            EventKind::StealAttempt => "steal_attempt",
            EventKind::StealSuccess => "steal_success",
            EventKind::StealFail => "steal_fail",
            EventKind::CounterFetchStart => "counter_fetch_start",
            EventKind::CounterFetchEnd => "counter_fetch_end",
            EventKind::IdleStart => "idle_start",
            EventKind::IdleEnd => "idle_end",
            EventKind::MergeStart => "merge_start",
            EventKind::MergeEnd => "merge_end",
        }
    }
}

/// One profiling event: kind, a 56-bit argument and a timestamp in
/// nanoseconds (real for the thread runtime, virtual for the simulator),
/// measured from the run's start.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProfEvent {
    /// What happened.
    pub kind: EventKind,
    /// Kind-specific argument (task index, victim, other merge slot).
    pub arg: u64,
    /// Nanoseconds since the run started.
    pub t_ns: u64,
}

/// Arguments wider than 56 bits are clamped on record (task counts and
/// worker ids never approach this).
const ARG_MASK: u64 = (1 << 56) - 1;

fn pack(kind: EventKind, arg: u64) -> u64 {
    ((kind as u64) << 56) | (arg & ARG_MASK)
}

fn unpack(w0: u64, w1: u64) -> Option<ProfEvent> {
    let kind = EventKind::from_u8((w0 >> 56) as u8)?;
    Some(ProfEvent {
        kind,
        arg: w0 & ARG_MASK,
        t_ns: w1,
    })
}

struct Slot {
    seq: AtomicU64,
    w0: AtomicU64,
    w1: AtomicU64,
}

impl Slot {
    fn empty() -> Slot {
        Slot {
            seq: AtomicU64::new(0),
            w0: AtomicU64::new(0),
            w1: AtomicU64::new(0),
        }
    }
}

/// A bounded single-producer/single-consumer profiling ring.
///
/// One worker writes through a [`RingWriter`]; any thread may
/// [`snapshot`](EventRing::snapshot) concurrently. Capacity is rounded
/// up to a power of two at construction and never reallocated; once
/// full, each new event overwrites the oldest.
pub struct EventRing {
    slots: Box<[Slot]>,
    mask: u64,
    /// Total events ever recorded (monotonic; not reset by snapshots).
    head: AtomicU64,
}

impl EventRing {
    /// A ring holding the most recent `capacity` events (rounded up to a
    /// power of two, minimum 2). All allocation happens here.
    pub fn new(capacity: usize) -> Arc<EventRing> {
        let cap = capacity.max(2).next_power_of_two();
        let slots: Vec<Slot> = (0..cap).map(|_| Slot::empty()).collect();
        Arc::new(EventRing {
            slots: slots.into_boxed_slice(),
            mask: (cap as u64) - 1,
            head: AtomicU64::new(0),
        })
    }

    /// Slot count.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Total events ever recorded into this ring.
    pub fn recorded(&self) -> u64 {
        self.head.load(Ordering::Acquire)
    }

    /// A producer handle starting at the current head. Single-producer
    /// discipline: at most one live writer at a time (sequential handoff
    /// — e.g. worker thread, then the merge phase on the main thread —
    /// is fine).
    pub fn writer(self: &Arc<EventRing>) -> RingWriter {
        RingWriter {
            next: self.head.load(Ordering::Acquire),
            ring: Arc::clone(self),
        }
    }

    /// Snapshots the ring: the most recent `min(recorded, capacity)`
    /// events oldest-first, plus the number of older events already
    /// overwritten. Safe while the producer is still writing — slots
    /// caught mid-write are skipped, never torn.
    ///
    /// Protocol `seqlock-ring` role `reader` (docs/protocols.toml),
    /// paired with the writer's Release side.
    pub fn snapshot(&self) -> RingSnapshot {
        let head = self.head.load(Ordering::Acquire);
        let cap = self.slots.len() as u64;
        let start = head.saturating_sub(cap);
        let mut events = Vec::with_capacity((head - start) as usize);
        for n in start..head {
            let slot = &self.slots[(n & self.mask) as usize];
            let s1 = slot.seq.load(Ordering::Acquire);
            if s1 != 2 * n + 2 {
                continue; // in flight or already overwritten
            }
            let w0 = slot.w0.load(Ordering::Relaxed);
            let w1 = slot.w1.load(Ordering::Relaxed);
            fence(Ordering::Acquire);
            if slot.seq.load(Ordering::Relaxed) != s1 {
                continue; // overwritten mid-read
            }
            if let Some(e) = unpack(w0, w1) {
                events.push(e);
            }
        }
        RingSnapshot {
            events,
            overwritten: start,
        }
    }
}

/// Result of [`EventRing::snapshot`].
#[derive(Debug, Clone)]
pub struct RingSnapshot {
    /// Surviving events, oldest first.
    pub events: Vec<ProfEvent>,
    /// Events recorded before the oldest surviving slot (lost to
    /// overwrite). Non-zero means the window is truncated.
    pub overwritten: u64,
}

/// The single producer's handle to an [`EventRing`]. Records one event
/// with three atomic stores and no allocation; the slot index is derived
/// from a writer-local counter, so the hot path performs no atomic RMW.
pub struct RingWriter {
    ring: Arc<EventRing>,
    next: u64,
}

impl RingWriter {
    /// Records one event. Never blocks, never allocates; overwrites the
    /// oldest event once the ring is full.
    ///
    /// Protocol `seqlock-ring` role `writer` (docs/protocols.toml):
    /// the exact store/fence sequence below is pinned by the manifest
    /// and checked by emx-srclint, which `cargo xtask lint` runs.
    #[inline]
    pub fn record(&mut self, kind: EventKind, arg: u64, t_ns: u64) {
        let n = self.next;
        self.next = n + 1;
        let slot = &self.ring.slots[(n & self.ring.mask) as usize];
        slot.seq.store(2 * n + 1, Ordering::Relaxed);
        // Pairs with the acquire fence in `snapshot`: a reader that
        // observes either payload store below is guaranteed to observe
        // the odd sequence word on its re-check, so a slot caught
        // mid-overwrite is rejected instead of read torn. Without this
        // fence the payload stores may become visible before the odd
        // store on weakly-ordered hardware (ARM/POWER).
        fence(Ordering::Release);
        slot.w0.store(pack(kind, arg), Ordering::Relaxed);
        slot.w1.store(t_ns, Ordering::Relaxed);
        slot.seq.store(2 * n + 2, Ordering::Release);
        self.ring.head.store(n + 1, Ordering::Release);
    }
}

/// One ring per worker — the unit the runtime and simulator attach.
pub struct RingSet {
    rings: Vec<Arc<EventRing>>,
}

impl std::fmt::Debug for RingSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "RingSet({} workers)", self.rings.len())
    }
}

impl RingSet {
    /// `workers` rings of `capacity` events each (all allocation up
    /// front).
    pub fn new(workers: usize, capacity: usize) -> Arc<RingSet> {
        Arc::new(RingSet {
            rings: (0..workers).map(|_| EventRing::new(capacity)).collect(),
        })
    }

    /// The producer handle for `worker`. Panics on an out-of-range
    /// index: callers must size the set to the worker count — wrapping
    /// would silently hand two live workers the same ring and break the
    /// single-producer discipline.
    pub fn writer(&self, worker: usize) -> RingWriter {
        assert!(
            worker < self.rings.len(),
            "worker {worker} out of range for a {}-ring set",
            self.rings.len()
        );
        self.rings[worker].writer()
    }

    /// Per-worker event snapshots, oldest-first within each worker.
    pub fn snapshot_all(&self) -> Vec<RingSnapshot> {
        self.rings.iter().map(|r| r.snapshot()).collect()
    }

    /// Per-worker event vectors (the shape the attribution pipeline
    /// takes), discarding overwrite counts.
    pub fn events_per_worker(&self) -> Vec<Vec<ProfEvent>> {
        self.rings.iter().map(|r| r.snapshot().events).collect()
    }

    /// Total events overwritten across all rings (0 ⇒ complete capture).
    pub fn total_overwritten(&self) -> u64 {
        self.rings.iter().map(|r| r.snapshot().overwritten).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_snapshots_in_order() {
        let ring = EventRing::new(16);
        let mut w = ring.writer();
        for i in 0..5u64 {
            w.record(EventKind::TaskStart, i, 10 * i);
            w.record(EventKind::TaskEnd, i, 10 * i + 5);
        }
        let snap = ring.snapshot();
        assert_eq!(snap.overwritten, 0);
        assert_eq!(snap.events.len(), 10);
        assert_eq!(snap.events[0].kind, EventKind::TaskStart);
        assert_eq!(
            snap.events[9],
            ProfEvent {
                kind: EventKind::TaskEnd,
                arg: 4,
                t_ns: 45,
            }
        );
        let ts: Vec<u64> = snap.events.iter().map(|e| e.t_ns).collect();
        let mut sorted = ts.clone();
        sorted.sort_unstable();
        assert_eq!(ts, sorted, "snapshot preserves record order");
    }

    #[test]
    fn wraparound_overwrites_oldest_and_counts_losses() {
        let ring = EventRing::new(8); // exact power of two
        let mut w = ring.writer();
        for i in 0..20u64 {
            w.record(EventKind::StealAttempt, i, i);
        }
        let snap = ring.snapshot();
        assert_eq!(snap.overwritten, 12, "20 recorded into 8 slots");
        assert_eq!(snap.events.len(), 8);
        let args: Vec<u64> = snap.events.iter().map(|e| e.arg).collect();
        assert_eq!(
            args,
            (12..20).collect::<Vec<_>>(),
            "newest 8 survive, oldest first"
        );
        assert_eq!(ring.recorded(), 20);
    }

    #[test]
    fn capacity_rounds_up_to_power_of_two() {
        assert_eq!(EventRing::new(0).capacity(), 2);
        assert_eq!(EventRing::new(3).capacity(), 4);
        assert_eq!(EventRing::new(1024).capacity(), 1024);
        assert_eq!(EventRing::new(1025).capacity(), 2048);
    }

    #[test]
    fn arg_wider_than_56_bits_is_clamped_not_corrupting_kind() {
        let ring = EventRing::new(4);
        let mut w = ring.writer();
        w.record(EventKind::MergeEnd, u64::MAX, 7);
        let snap = ring.snapshot();
        assert_eq!(snap.events.len(), 1);
        assert_eq!(snap.events[0].kind, EventKind::MergeEnd);
        assert_eq!(snap.events[0].arg, ARG_MASK);
        assert_eq!(snap.events[0].t_ns, 7);
    }

    #[test]
    fn writer_handoff_continues_the_sequence() {
        let ring = EventRing::new(8);
        {
            let mut w = ring.writer();
            w.record(EventKind::TaskStart, 0, 0);
        }
        let mut w2 = ring.writer();
        w2.record(EventKind::TaskEnd, 0, 1);
        let snap = ring.snapshot();
        assert_eq!(snap.events.len(), 2);
        assert_eq!(snap.events[1].kind, EventKind::TaskEnd);
    }

    /// The `i`-th event of every writer in the concurrent tests below is
    /// `(TaskStart, arg = i, t_ns = 2i + 1)`. A slot read half from one
    /// event and half from another breaks the pairing; a slot read after
    /// the writer lapped it carries an `arg` past the snapshot's window.
    fn record_nth(w: &mut RingWriter, i: u64) {
        w.record(EventKind::TaskStart, i, 2 * i + 1);
    }

    /// Asserts that `snap` holds only whole events, in record order, all
    /// from the window `overwritten .. overwritten + capacity` it claims.
    fn check_window(snap: &RingSnapshot, capacity: usize) {
        let end = snap.overwritten + capacity as u64;
        for e in &snap.events {
            assert_eq!(e.kind, EventKind::TaskStart, "foreign kind: {e:?}");
            assert_eq!(e.t_ns, 2 * e.arg + 1, "torn event: {e:?}");
            assert!(
                (snap.overwritten..end).contains(&e.arg),
                "event {} outside the window {}..{end}",
                e.arg,
                snap.overwritten
            );
        }
        for pair in snap.events.windows(2) {
            assert!(pair[0].arg < pair[1].arg, "out of order: {pair:?}");
        }
    }

    /// Snapshots `ring` with `check` while another thread records up to
    /// `max` events into it, until `raced` snapshots saw the head move
    /// under them (the snapshots that could tear), `limit` snapshots in
    /// all, or the writer's last event. Returns how many events the
    /// writer recorded.
    fn race_reader_against_writer(
        ring: &Arc<EventRing>,
        max: u64,
        raced: u32,
        limit: u32,
        mut check: impl FnMut(&RingSnapshot),
    ) -> u64 {
        use std::sync::atomic::AtomicBool;
        /// Stops the writer however the reader leaves, so a failed
        /// check fails the test instead of hanging the scope's join.
        struct StopOnDrop<'a>(&'a AtomicBool);
        impl Drop for StopOnDrop<'_> {
            fn drop(&mut self) {
                self.0.store(true, Ordering::Relaxed);
            }
        }
        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            let writer = s.spawn(|| {
                let mut w = ring.writer();
                let mut i = 0;
                while i < max && !stop.load(Ordering::Relaxed) {
                    record_nth(&mut w, i);
                    i += 1;
                }
                i
            });
            let stop_writer = StopOnDrop(&stop);
            while ring.recorded() == 0 {
                std::hint::spin_loop();
            }
            let (mut seen, mut taken) = (0, 0);
            while seen < raced && taken < limit && ring.recorded() < max {
                let before = ring.recorded();
                let snap = ring.snapshot();
                if ring.recorded() != before {
                    seen += 1;
                }
                taken += 1;
                check(&snap);
            }
            drop(stop_writer);
            writer.join().unwrap()
        })
    }

    #[test]
    fn snapshot_while_writing_never_tears() {
        // A 4-slot ring lapped continuously under the reader: slots
        // caught mid-overwrite are skipped, never read torn or from a
        // later lap (the sequence re-check in `snapshot`), and no
        // survivor predates the loss count.
        let ring = EventRing::new(4);
        let n = race_reader_against_writer(&ring, u64::MAX, 20_000, 2_000_000, |snap| {
            check_window(snap, 4)
        });
        // With the writer joined nothing is in flight: the snapshot is
        // exactly the newest four events.
        let snap = ring.snapshot();
        assert_eq!(snap.overwritten, n - 4);
        let args: Vec<u64> = snap.events.iter().map(|e| e.arg).collect();
        assert_eq!(args, (n - 4..n).collect::<Vec<_>>());
    }

    #[test]
    fn snapshot_during_writes_without_wraparound_is_a_whole_prefix() {
        // The writer fills the ring exactly once, so every event below
        // the head a snapshot read is complete: each snapshot is exactly
        // `0..len`, and the last one holds all of them.
        const CAP: usize = 2048;
        let ring = EventRing::new(CAP);
        let n = race_reader_against_writer(&ring, CAP as u64, u32::MAX, u32::MAX, |snap| {
            check_window(snap, CAP);
            assert_eq!(snap.overwritten, 0);
            let args: Vec<u64> = snap.events.iter().map(|e| e.arg).collect();
            assert_eq!(args, (0..args.len() as u64).collect::<Vec<_>>());
        });
        assert_eq!(n, CAP as u64);
        let args: Vec<u64> = ring.snapshot().events.iter().map(|e| e.arg).collect();
        assert_eq!(args, (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn writer_handoff_under_concurrent_drain() {
        // The runtime's sequential handoff (a worker's writer, then the
        // merge phase's) while another thread drains: the second writer
        // continues the sequence, so snapshots only grow and stay whole.
        const FIRST: u64 = 3000;
        const SECOND: u64 = 2000;
        let ring = EventRing::new(8192);
        let done = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|s| {
            let reader = s.spawn(|| {
                let mut max_seen = 0;
                while !done.load(Ordering::Relaxed) {
                    let snap = ring.snapshot();
                    check_window(&snap, ring.capacity());
                    assert_eq!(snap.overwritten, 0);
                    assert!(snap.events.len() >= max_seen, "snapshot shrank");
                    max_seen = snap.events.len();
                }
            });
            let mut w = ring.writer();
            for i in 0..FIRST {
                record_nth(&mut w, i);
            }
            let mut w = ring.writer();
            for i in FIRST..FIRST + SECOND {
                record_nth(&mut w, i);
            }
            done.store(true, Ordering::Relaxed);
            reader.join().unwrap();
        });
        let snap = ring.snapshot();
        check_window(&snap, ring.capacity());
        assert_eq!(snap.events.len() as u64, FIRST + SECOND);
        assert_eq!(ring.recorded(), FIRST + SECOND);
    }

    #[test]
    fn ring_set_routes_writers_and_snapshots_per_worker() {
        let set = RingSet::new(3, 16);
        for wkr in 0..3usize {
            let mut w = set.writer(wkr);
            w.record(EventKind::TaskStart, wkr as u64, 0);
        }
        let per = set.events_per_worker();
        assert_eq!(per.len(), 3);
        for (wkr, events) in per.iter().enumerate() {
            assert_eq!(events.len(), 1);
            assert_eq!(events[0].arg, wkr as u64);
        }
        assert_eq!(set.total_overwritten(), 0);
    }
}
