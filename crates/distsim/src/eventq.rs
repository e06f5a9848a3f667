//! Shared event core of the discrete-event simulators.
//!
//! Every event-driven simulation loop in [`crate::sim`] is a
//! pop/push cycle over a pending-event set keyed by `(time, seq,
//! worker)`, where `seq` is the insertion sequence number. The `seq`
//! component makes the order *total*: equal-time events pop in
//! insertion order on every backend, which is the tie-break contract
//! the simulators rely on (historically three of five loops keyed
//! on `(time, worker)` instead, which starves high-ranked workers at
//! coincident timestamps — see the regression tests pinning
//! round-robin fairness in `sim.rs`).
//!
//! Two backends implement the same total order:
//!
//! * [`QueueKind::Calendar`] — a bucketed calendar queue (Brown 1988)
//!   with O(1) amortized push/pop, the production backend that keeps
//!   10⁴–10⁵-rank simulations inside seconds;
//! * [`QueueKind::Heap`] — a plain binary heap, O(log n), retained as
//!   the bitwise oracle. Because the key order is total, a correct
//!   calendar queue produces *bit-for-bit identical* simulation
//!   reports, which the oracle-equivalence suite asserts across the
//!   whole policy roster.
//!
//! The module also provides `ProfArena`, a single-buffer arena for
//! profiling-event emission: simulators append `(worker, event)` pairs
//! to one growing buffer instead of P independently reallocating
//! per-worker vectors, and the per-worker streams are materialized
//! once, exactly sized, at the end of the run.

use emx_obs::ProfEvent;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Total-ordered f64 wrapper for event keys (times are finite).
#[derive(PartialEq, PartialOrd, Clone, Copy)]
pub(crate) struct OrdF64(pub(crate) f64);

impl Eq for OrdF64 {}
#[allow(clippy::derive_ord_xor_partial_ord)]
impl Ord for OrdF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.partial_cmp(other).expect("NaN simulation time")
    }
}

/// Which backend an [`EventQueue`] runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QueueKind {
    /// Bucketed calendar queue — O(1) amortized, the production
    /// backend for large rank counts.
    #[default]
    Calendar,
    /// Binary heap — O(log n) per operation, retained as the bitwise
    /// oracle the calendar backend is checked against.
    Heap,
}

impl QueueKind {
    /// Stable display name (bench rows, CSV columns).
    pub fn name(self) -> &'static str {
        match self {
            QueueKind::Calendar => "calendar",
            QueueKind::Heap => "heap",
        }
    }
}

/// One pending event as a min-heap key: `Reverse((time, seq, worker))`.
/// `seq` is unique, so the order is total and `worker` never decides.
type Ev = Reverse<(OrdF64, u64, u32)>;

/// Event time of a key.
#[inline]
fn ev_time(e: &Ev) -> f64 {
    (e.0 .0).0
}

/// Pending-event set with a total `(time, seq)` order.
///
/// `seq` is assigned internally on every [`EventQueue::push`], so two
/// backends fed the same push/pop sequence assign identical keys and
/// pop in identical order — the property the oracle-equivalence suite
/// leans on.
pub struct EventQueue {
    seq: u64,
    imp: Backend,
}

enum Backend {
    Calendar(Calendar),
    Heap(BinaryHeap<Ev>),
}

impl EventQueue {
    /// Empty queue on the given backend.
    pub fn new(kind: QueueKind) -> EventQueue {
        EventQueue::with_capacity(kind, 0)
    }

    /// Empty queue sized for about `cap` concurrently pending events
    /// (one per live worker in the simulators).
    pub fn with_capacity(kind: QueueKind, cap: usize) -> EventQueue {
        let imp = match kind {
            QueueKind::Calendar => Backend::Calendar(Calendar::with_capacity(cap)),
            QueueKind::Heap => Backend::Heap(BinaryHeap::with_capacity(cap)),
        };
        EventQueue { seq: 0, imp }
    }

    /// Schedules `worker` at time `t` (seconds). Panics on NaN times —
    /// the same contract the heap's `OrdF64` key enforces.
    #[inline]
    pub fn push(&mut self, t: f64, worker: usize) {
        assert!(!t.is_nan(), "NaN simulation time");
        let ev: Ev = Reverse((OrdF64(t), self.seq, worker as u32));
        self.seq += 1;
        match &mut self.imp {
            Backend::Calendar(c) => c.push(ev),
            Backend::Heap(h) => h.push(ev),
        }
    }

    /// Removes and returns the earliest `(time, worker)` event
    /// (insertion order at equal times).
    #[inline]
    pub fn pop(&mut self) -> Option<(f64, usize)> {
        match &mut self.imp {
            Backend::Calendar(c) => c.pop(),
            Backend::Heap(h) => h.pop(),
        }
        .map(|Reverse((OrdF64(t), _, w))| (t, w as usize))
    }

    /// Time of the earliest pending event without removing it. Takes
    /// `&mut self` because the calendar backend may advance its bucket
    /// cursor while searching (a pure-speedup side effect).
    pub fn peek_time(&mut self) -> Option<f64> {
        match &mut self.imp {
            Backend::Calendar(c) => c.peek_time(),
            Backend::Heap(h) => h.peek().map(|Reverse((OrdF64(t), _, _))| *t),
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        match &self.imp {
            Backend::Calendar(c) => c.len,
            Backend::Heap(h) => h.len(),
        }
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Calendar queue: `nbuckets` (power of two) time-sliced buckets of
/// width `width` seconds; an event at time `t` lives in bucket
/// `(t / width) mod nbuckets`. Pops sweep the bucket "year" from the
/// current window; pushes are a hash-style append. Width and bucket
/// count are recalibrated from the live event population whenever the
/// sweep cost degenerates, so the structure adapts to any event-time
/// scale without a priori knowledge.
///
/// Each bucket is itself a small min-heap on the `(time, seq)` key, so
/// an overfull bucket costs O(log b) per operation instead of a linear
/// rescan per pop. That keeps the two degenerate regimes the simulators
/// actually produce — 10⁵ coincident t=0 start events (same key, same
/// bucket at any width) and a cold queue whose initial width has not
/// adapted yet — at heap complexity instead of O(population²), while a
/// well-calibrated bucket of O(1) events still pays O(1).
struct Calendar {
    buckets: Vec<BinaryHeap<Ev>>,
    /// `buckets.len() - 1`; bucket count is a power of two.
    mask: usize,
    width: f64,
    /// Current bucket of the sweep.
    cur: usize,
    /// Virtual bucket number of the sweep window (`cur == cur_vb & mask`).
    /// Window membership is tested as `vbucket(t) == cur_vb` — the exact
    /// computation that placed the event — so the sweep can never
    /// disagree with the push-side placement (an accumulated float
    /// upper bound drifts by ULPs and reorders events near window
    /// edges).
    cur_vb: u64,
    len: usize,
    /// Accumulated sweep work since the last recalibration; when it
    /// outgrows the population the bucket layout no longer fits the
    /// event-time distribution and is rebuilt.
    scan_debt: usize,
    /// Pops remaining before the occupancy trigger may fire again.
    /// Coincident-time populations (span 0) cannot be spread by any
    /// width, so an unconditional "bucket too full → rebuild" would
    /// thrash; the cooldown amortizes each rebuild over ~half the
    /// population it inspected.
    cooldown: usize,
}

const MIN_BUCKETS: usize = 16;
const MAX_BUCKETS: usize = 1 << 22;

impl Calendar {
    fn with_capacity(cap: usize) -> Calendar {
        let nb = cap.next_power_of_two().clamp(MIN_BUCKETS, MAX_BUCKETS);
        Calendar {
            buckets: vec![BinaryHeap::new(); nb],
            mask: nb - 1,
            width: 1.0,
            cur: 0,
            cur_vb: 0,
            len: 0,
            scan_debt: 0,
            cooldown: 0,
        }
    }

    /// Virtual bucket number of time `t` (year × nbuckets + index).
    /// Negative times saturate to 0 — they all share the first bucket.
    #[inline]
    fn vbucket(&self, t: f64) -> u64 {
        (t / self.width).floor() as u64
    }

    #[inline]
    fn push(&mut self, ev: Ev) {
        let k = self.vbucket(ev_time(&ev));
        let idx = (k as usize) & self.mask;
        self.buckets[idx].push(ev);
        self.len += 1;
        // An event earlier than the current window rewinds the sweep so
        // it cannot be skipped (the simulators rarely schedule into the
        // past, but retry clamps make it legal).
        if k < self.cur_vb {
            self.cur = idx;
            self.cur_vb = k;
        }
        if self.len > 2 * self.buckets.len() {
            self.recalibrate();
        }
    }

    fn pop(&mut self) -> Option<Ev> {
        let bi = self.locate()?;
        let ev = self.buckets[bi].pop().expect("located bucket is nonempty");
        self.len -= 1;
        let blen = self.buckets[bi].len();
        if (self.len * 4 < self.buckets.len() && self.buckets.len() > MIN_BUCKETS)
            || self.scan_debt > 8 * (self.len + MIN_BUCKETS)
        {
            self.recalibrate();
        } else if self.cooldown > 0 {
            self.cooldown -= 1;
        } else if blen > 128 && blen * self.buckets.len() > 8 * self.len {
            // Occupancy trigger: one bucket holds far more than its
            // population share (e.g. a cold queue whose initial width
            // funnels everything into bucket 0). The per-bucket heap
            // keeps such pops at O(log b), but a rebuild restores the
            // O(1) calendar regime when the span allows it.
            self.recalibrate();
        }
        Some(ev)
    }

    fn peek_time(&mut self) -> Option<f64> {
        let bi = self.locate()?;
        self.buckets[bi].peek().map(ev_time)
    }

    /// Finds the bucket whose top is the earliest pending event. Sweeps
    /// the current year window by window; advancing past provably-empty
    /// windows is committed to `cur`/`cur_vb` (safe without removal).
    /// When a whole year holds nothing, falls back to a direct scan of
    /// all bucket tops and re-anchors the sweep at the found event.
    ///
    /// A bucket's heap top is its global minimum, so if the top is in
    /// the current window it is the overall minimum (earlier virtual
    /// buckets were already drained, and any other in-window event in
    /// any bucket has a larger key). If the top's virtual bucket is in
    /// a *later* year, the bucket holds nothing in the current window —
    /// an in-window event would have a smaller key than the top.
    fn locate(&mut self) -> Option<usize> {
        if self.len == 0 {
            return None;
        }
        let nb = self.buckets.len();
        for _ in 0..nb {
            self.scan_debt += 1;
            if let Some(e) = self.buckets[self.cur].peek() {
                // Test membership with the same `vbucket` that placed
                // the event so sweep and placement agree exactly (an
                // accumulated float bound drifts by ULPs).
                if self.vbucket(ev_time(e)) == self.cur_vb {
                    return Some(self.cur);
                }
            }
            self.cur = (self.cur + 1) & self.mask;
            self.cur_vb += 1;
        }
        // Empty year: direct search of the bucket tops for the global
        // minimum key (largest `Reverse`, i.e. smallest inner tuple).
        let mut best: Option<usize> = None;
        for (bi, bucket) in self.buckets.iter().enumerate() {
            self.scan_debt += 1;
            if let Some(e) = bucket.peek() {
                if best.is_none_or(|b| e.0 < self.buckets[b].peek().expect("nonempty").0) {
                    best = Some(bi);
                }
            }
        }
        let bi = best.expect("len > 0 but no event found");
        let k = self.vbucket(ev_time(self.buckets[bi].peek().expect("nonempty")));
        self.cur = (k as usize) & self.mask;
        self.cur_vb = k;
        debug_assert_eq!(self.cur, bi, "re-anchored window must cover the minimum");
        Some(bi)
    }

    /// Rebuilds the bucket array sized for the live population and a
    /// width matched to its event-time spread. Deterministic: a pure
    /// function of the current contents.
    fn recalibrate(&mut self) {
        self.scan_debt = 0;
        let evs: Vec<Ev> = self
            .buckets
            .iter_mut()
            .flat_map(|b| std::mem::take(b).into_vec())
            .collect();
        let nb = evs
            .len()
            .next_power_of_two()
            .clamp(MIN_BUCKETS, MAX_BUCKETS);
        if self.buckets.len() != nb {
            self.buckets = vec![BinaryHeap::new(); nb];
            self.mask = nb - 1;
        }
        let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
        for e in &evs {
            lo = lo.min(ev_time(e));
            hi = hi.max(ev_time(e));
        }
        // Target ~half-full buckets over the live span; the clamps keep
        // `t / width` finite and representable for any simulated scale.
        let mut width = if evs.len() > 1 {
            2.0 * (hi - lo) / evs.len() as f64
        } else {
            0.0
        };
        let floor = (hi.abs() * 1e-12).max(1e-12);
        if !(width.is_finite() && width > floor) {
            width = if floor > 1e-12 { floor } else { 1.0 };
        }
        self.width = width;
        let anchor = if lo.is_finite() { lo } else { 0.0 };
        let k = self.vbucket(anchor);
        self.cur = (k as usize) & self.mask;
        self.cur_vb = k;
        self.len = 0;
        for e in evs {
            let idx = (self.vbucket(ev_time(&e)) as usize) & self.mask;
            self.buckets[idx].push(e);
            self.len += 1;
        }
        // Amortize the next occupancy-triggered rebuild over roughly the
        // population this one inspected.
        self.cooldown = self.len / 2 + MIN_BUCKETS;
    }
}

/// O(1) nonempty-queue tracking across nested stealing domains.
///
/// The stealing simulators used to answer "does any queue (in my node /
/// rack / anywhere) still hold work?" by scanning all P queues per
/// steal attempt — quadratic at 10⁴–10⁵ ranks. The tracker maintains a
/// global nonempty count plus one count per domain at every locality
/// level; queue mutations report their new emptiness via
/// [`WorkTracker::update`] and every query is a counter read.
pub(crate) struct WorkTracker {
    nonempty: Vec<bool>,
    global: usize,
    /// Per level: (domain size in workers, per-domain nonempty count).
    levels: Vec<(usize, Vec<usize>)>,
}

impl WorkTracker {
    pub(crate) fn new(p: usize, level_sizes: &[usize]) -> WorkTracker {
        WorkTracker {
            nonempty: vec![false; p],
            global: 0,
            levels: level_sizes
                .iter()
                .map(|&s| {
                    let s = s.max(1);
                    (s, vec![0usize; p.div_ceil(s)])
                })
                .collect(),
        }
    }

    /// Records the current emptiness of worker `w`'s queue. Idempotent:
    /// call it after any queue mutation with the queue's new state.
    #[inline]
    pub(crate) fn update(&mut self, w: usize, nonempty: bool) {
        if self.nonempty[w] == nonempty {
            return;
        }
        self.nonempty[w] = nonempty;
        if nonempty {
            self.global += 1;
            for (size, counts) in &mut self.levels {
                counts[w / *size] += 1;
            }
        } else {
            self.global -= 1;
            for (size, counts) in &mut self.levels {
                counts[w / *size] -= 1;
            }
        }
    }

    /// True while any queue anywhere holds work.
    #[inline]
    pub(crate) fn any(&self) -> bool {
        self.global > 0
    }

    /// True when some queue in `w`'s level-`l` domain holds work. The
    /// caller's own queue is empty whenever it hunts for victims, so no
    /// self-exclusion is needed (debug-asserted).
    #[inline]
    pub(crate) fn domain_has_work(&self, l: usize, w: usize) -> bool {
        debug_assert!(!self.nonempty[w], "thief queue must be empty");
        let (size, counts) = &self.levels[l];
        counts[w / size] > 0
    }
}

/// Arena for profiling-event emission: one flat `(worker, event)`
/// buffer instead of per-worker vectors growing independently in the
/// hot loop. Disabled arenas (events off) make every push a branch on
/// a cold flag and allocate nothing.
pub(crate) struct ProfArena {
    on: bool,
    buf: Vec<(u32, ProfEvent)>,
}

impl ProfArena {
    pub(crate) fn new(on: bool) -> ProfArena {
        ProfArena {
            on,
            buf: Vec::new(),
        }
    }

    /// True when event emission is enabled.
    #[inline]
    pub(crate) fn on(&self) -> bool {
        self.on
    }

    #[inline]
    pub(crate) fn push(&mut self, worker: usize, ev: ProfEvent) {
        if self.on {
            self.buf.push((worker as u32, ev));
        }
    }

    /// Materializes per-worker streams (exactly sized), preserving
    /// per-worker emission order. Returns the empty vec when emission
    /// was off — the [`crate::sim::SimReport::events`] convention.
    pub(crate) fn into_streams(self, p: usize) -> Vec<Vec<ProfEvent>> {
        if !self.on {
            return Vec::new();
        }
        let mut counts = vec![0usize; p];
        for &(w, _) in &self.buf {
            counts[w as usize] += 1;
        }
        let mut streams: Vec<Vec<ProfEvent>> = counts.into_iter().map(Vec::with_capacity).collect();
        for (w, ev) in self.buf {
            streams[w as usize].push(ev);
        }
        streams
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::SplitMix;

    fn both() -> [EventQueue; 2] {
        [
            EventQueue::new(QueueKind::Calendar),
            EventQueue::new(QueueKind::Heap),
        ]
    }

    #[test]
    fn equal_time_events_pop_in_insertion_order_on_both_backends() {
        for mut q in both() {
            q.push(5.0, 3);
            q.push(5.0, 1);
            q.push(1.0, 7);
            q.push(5.0, 2);
            let order: Vec<(f64, usize)> = std::iter::from_fn(|| q.pop()).collect();
            assert_eq!(order, vec![(1.0, 7), (5.0, 3), (5.0, 1), (5.0, 2)]);
        }
    }

    #[test]
    fn backends_agree_on_a_randomized_des_workload() {
        let mut cal = EventQueue::new(QueueKind::Calendar);
        let mut heap = EventQueue::new(QueueKind::Heap);
        let mut rng = SplitMix::new(0xbeef);
        // DES-like mix: pops followed by re-pushes at later times, with
        // deliberate equal-time collisions and scale jumps.
        let scales = [1e-6, 1.0, 1e3];
        for w in 0..64 {
            cal.push(0.0, w);
            heap.push(0.0, w);
        }
        let mut t = 0.0f64;
        for i in 0..5000 {
            let a = cal.pop();
            let b = heap.pop();
            assert_eq!(a, b, "divergence at step {i}");
            let (pt, w) = a.unwrap();
            t = t.max(pt);
            let scale = scales[(rng.next() % 3) as usize];
            let dt = if rng.next() % 4 == 0 {
                0.0 // coincident timestamp on purpose
            } else {
                (rng.next() % 1000) as f64 * scale * 1e-3
            };
            cal.push(t + dt, w);
            heap.push(t + dt, w);
            assert_eq!(cal.peek_time(), heap.peek_time(), "peek at step {i}");
            assert_eq!(cal.len(), heap.len());
        }
        while let Some(a) = cal.pop() {
            assert_eq!(Some(a), heap.pop());
        }
        assert!(heap.is_empty());
    }

    #[test]
    fn coincident_mass_drains_fifo() {
        for mut q in both() {
            for w in 0..1000 {
                q.push(2.5, w);
            }
            for w in 0..1000 {
                assert_eq!(q.pop(), Some((2.5, w)));
            }
            assert_eq!(q.pop(), None);
        }
    }

    #[test]
    fn calendar_survives_population_growth_and_collapse() {
        let mut q = EventQueue::new(QueueKind::Calendar);
        for i in 0..10_000 {
            q.push(i as f64 * 1e-6, i % 7);
        }
        assert_eq!(q.len(), 10_000);
        let mut last = f64::NEG_INFINITY;
        for _ in 0..9_990 {
            let (t, _) = q.pop().unwrap();
            assert!(t >= last);
            last = t;
        }
        assert_eq!(q.len(), 10);
        // Push far in the future after the collapse, then drain.
        q.push(1e4, 0);
        while let Some((t, _)) = q.pop() {
            assert!(t >= last);
            last = t;
        }
    }

    #[test]
    fn rewind_pushes_are_not_skipped() {
        let mut q = EventQueue::new(QueueKind::Calendar);
        for w in 0..32 {
            q.push(100.0 + w as f64, w);
        }
        assert_eq!(q.pop(), Some((100.0, 0)));
        // Schedule into the past relative to the sweep window.
        q.push(3.0, 9);
        assert_eq!(q.pop(), Some((3.0, 9)));
        assert_eq!(q.pop(), Some((101.0, 1)));
    }

    #[test]
    fn peek_matches_pop_and_is_stable() {
        for mut q in both() {
            assert_eq!(q.peek_time(), None);
            q.push(4.0, 1);
            q.push(2.0, 2);
            assert_eq!(q.peek_time(), Some(2.0));
            assert_eq!(q.peek_time(), Some(2.0), "peek must not consume");
            assert_eq!(q.pop(), Some((2.0, 2)));
            assert_eq!(q.peek_time(), Some(4.0));
        }
    }

    #[test]
    #[should_panic(expected = "NaN simulation time")]
    fn nan_times_are_rejected() {
        let mut q = EventQueue::new(QueueKind::Calendar);
        q.push(f64::NAN, 0);
    }

    #[test]
    fn tracker_counts_match_a_direct_scan() {
        let p = 13;
        let mut tr = WorkTracker::new(p, &[4, 8]);
        let mut state = vec![false; p];
        let mut rng = SplitMix::new(7);
        for _ in 0..2000 {
            let w = (rng.next() as usize) % p;
            let ne = rng.next() % 2 == 0;
            state[w] = ne;
            tr.update(w, ne);
            assert_eq!(tr.any(), state.iter().any(|&x| x));
            for (l, &size) in [4usize, 8].iter().enumerate() {
                let probe = (rng.next() as usize) % p;
                if state[probe] {
                    continue; // domain_has_work requires an empty prober
                }
                let dom = probe / size;
                let expect = state.iter().enumerate().any(|(v, &x)| x && v / size == dom);
                assert_eq!(tr.domain_has_work(l, probe), expect);
            }
        }
    }

    #[test]
    fn arena_materializes_exact_per_worker_streams() {
        use emx_obs::{EventKind, ProfEvent};
        let mut a = ProfArena::new(true);
        let ev = |arg| ProfEvent {
            kind: EventKind::TaskStart,
            arg,
            t_ns: arg,
        };
        a.push(2, ev(0));
        a.push(0, ev(1));
        a.push(2, ev(2));
        let streams = a.into_streams(3);
        assert_eq!(streams[0].len(), 1);
        assert_eq!(streams[1].len(), 0);
        assert_eq!(streams[2].iter().map(|e| e.arg).collect::<Vec<_>>(), [0, 2]);
        let off = ProfArena::new(false);
        assert!(off.into_streams(3).is_empty());
    }
}
