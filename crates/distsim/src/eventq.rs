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
//! * [`QueueKind::Calendar`] — a calendar queue (Brown 1988) that keeps
//!   far events unsorted in one slot pool and sorts each time window
//!   once, when the sweep opens it: O(1) amortized push/pop and no
//!   allocation per bucket, the production backend;
//! * [`QueueKind::Heap`] — `std`'s binary heap, O(log n), sharing
//!   nothing with the calendar but the key type, retained as the bitwise
//!   oracle. Because the key order is total, a correct calendar queue
//!   produces *bit-for-bit identical* simulation reports, which the
//!   oracle-equivalence suite asserts across the whole policy roster.
//!
//! The module also holds the loops' flat structures: `RankQueues`, the
//! stealing loop's task queues and in-flight hauls as linked lists in
//! one arena, and `ProfArena`, one growing `(worker, event)` buffer for
//! profiling events instead of P independently reallocating per-worker
//! vectors, materialized as exactly sized per-worker streams at the end.

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
    /// Sort-on-open calendar queue — O(1) amortized, the production
    /// backend.
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

/// One pending event, `(time, seq, worker)`. `seq` is unique, so the
/// order is total and `worker` never decides.
type Key = (OrdF64, u64, u32);

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
    Heap(BinaryHeap<Reverse<Key>>),
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

    /// Schedules `worker` at time `t` (seconds). Every finite time is
    /// accepted, negative, subnormal or `f64::MAX` included (`-0.0` is
    /// `0.0`); NaN and ±∞ panic on both backends — no event can follow
    /// one at ∞, and a NaN has no place in the order.
    #[inline]
    pub fn push(&mut self, t: f64, worker: usize) {
        assert!(!t.is_nan(), "NaN simulation time");
        assert!(t.is_finite(), "infinite simulation time");
        let key: Key = (OrdF64(t), self.seq, worker as u32);
        self.seq += 1;
        match &mut self.imp {
            Backend::Calendar(c) => c.push(key),
            Backend::Heap(h) => h.push(Reverse(key)),
        }
    }

    /// Removes and returns the earliest `(time, worker)` event
    /// (insertion order at equal times).
    #[inline]
    pub fn pop(&mut self) -> Option<(f64, usize)> {
        match &mut self.imp {
            Backend::Calendar(c) => c.pop(),
            Backend::Heap(h) => h.pop().map(|Reverse(key)| key),
        }
        .map(|(OrdF64(t), _, w)| (t, w as usize))
    }

    /// Time of the earliest pending event without removing it. Takes
    /// `&mut self` because the calendar backend may have to open its
    /// next window to find it.
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

/// Calendar queue that sorts each window once, when the sweep opens it.
///
/// Time is cut into windows of `1 / inv_width` seconds, and window `k`
/// maps to bucket `k mod nbuckets`. Events of later windows wait
/// *unsorted* in one slot pool threaded into per-bucket lists: a push is
/// a multiply, a cast and two stores, and no bucket owns an allocation.
/// Reaching a window, the sweep unlinks its events into `run` and sorts
/// them once on `(time, seq)`; pops drain `run` with a cursor. A push
/// into the window that is already open — the past-dated wake-ups and
/// retry clamps the loops legally make, or anything at all while the
/// width is still a guess — is appended to `run` if it sorts after its
/// last element (so a coincident mass stays a FIFO) and else goes to the
/// small `late` heap; `pop` takes the smaller of the two heads.
///
/// The layout is rebuilt when the population doubles past or quarters
/// below the bucket count, and when an epoch of `epoch_len` pops
/// overdraws one of two budgets: sweep steps (windows too narrow, or the
/// population a year away) and pushes sent to `late` (too wide).
struct Calendar {
    /// First slot of each bucket's list; a power of two of them.
    heads: Vec<u32>,
    slots: Vec<Slot>,
    /// Head of the list of unused slots.
    free: u32,
    inv_width: f64,
    /// The open window; every event in `slots` belongs to a later one.
    /// Placement and membership both go through [`Calendar::vbucket`],
    /// so the sweep cannot disagree with a push about where an event is
    /// (a window bound accumulated in floats drifts by ULPs and reorders
    /// events at the edges).
    cur_vb: u64,
    /// The open window in key order; `run[pos..]` is still pending.
    run: Vec<Key>,
    pos: usize,
    late: BinaryHeap<Reverse<Key>>,
    len: usize,
    /// Pops per epoch, and this epoch's pops, sweep steps and late pushes.
    epoch_len: usize,
    pops: usize,
    steps: usize,
    lates: usize,
    /// Lifetime counts, for the bounds the tests hold them to.
    #[cfg(test)]
    totals: tests::SweepStats,
}

/// A far event and the next slot of its bucket's (or the free) list.
#[derive(Clone, Copy)]
struct Slot {
    key: Key,
    next: u32,
}

const NIL: u32 = u32::MAX;
const MIN_BUCKETS: usize = 16;
const MAX_BUCKETS: usize = 1 << 22;
/// Events per window, averaged over the nearer half of the population.
const EVENTS_PER_WINDOW: f64 = 3.0;
/// First epoch of a queue, whose width is a guess.
const COLD_EPOCH: usize = 64;
/// An epoch may take this many sweep steps per pop …
const STEPS_PER_POP: usize = 2;
/// … and send one push in this many to the late heap.
const POPS_PER_LATE: usize = 4;

impl Calendar {
    fn with_capacity(cap: usize) -> Calendar {
        let nb = cap.next_power_of_two().clamp(MIN_BUCKETS, MAX_BUCKETS);
        Calendar {
            heads: vec![NIL; nb],
            slots: Vec::with_capacity(cap),
            free: NIL,
            inv_width: 1.0,
            cur_vb: 0,
            run: Vec::new(),
            pos: 0,
            late: BinaryHeap::new(),
            len: 0,
            epoch_len: COLD_EPOCH,
            pops: 0,
            steps: 0,
            lates: 0,
            #[cfg(test)]
            totals: Default::default(),
        }
    }

    /// Window of time `t`: monotone, and saturating at both ends —
    /// negative times share window 0 and times past `u64::MAX` widths the
    /// last one, which costs sorting time, never order.
    #[inline]
    fn vbucket(&self, t: f64) -> u64 {
        (t * self.inv_width) as u64
    }

    #[inline]
    fn push(&mut self, key: Key) {
        let k = self.vbucket(key.0 .0);
        if self.len == 0 {
            // Nothing pending: the open window follows the event.
            self.cur_vb = k;
            self.run.clear();
            self.pos = 0;
        }
        self.len += 1;
        if k > self.cur_vb {
            self.link(key, k);
            if self.len > 2 * self.heads.len() {
                self.rebuild();
            }
        } else if self.run.last().is_none_or(|last| last.0 <= key.0) {
            // `seq` only grows, so at an equal time the new key is last.
            self.run.push(key);
        } else {
            self.late.push(Reverse(key));
            self.lates += 1;
            if self.lates * POPS_PER_LATE > self.epoch_len {
                self.rebuild();
            }
        }
    }

    /// Threads `key`, of window `k`, onto its bucket's list.
    #[inline]
    fn link(&mut self, key: Key, k: u64) {
        let b = k as usize & (self.heads.len() - 1);
        let slot = Slot {
            key,
            next: self.heads[b],
        };
        self.heads[b] = if self.free == NIL {
            assert!(self.slots.len() < NIL as usize, "event pool overflow");
            self.slots.push(slot);
            (self.slots.len() - 1) as u32
        } else {
            let s = self.free;
            self.free = std::mem::replace(&mut self.slots[s as usize], slot).next;
            s
        };
    }

    fn pop(&mut self) -> Option<Key> {
        let key = if self.head_is_late()? {
            self.late.pop().expect("head is late").0
        } else {
            self.pos += 1;
            self.run[self.pos - 1]
        };
        self.len -= 1;
        self.pops += 1;
        if self.len * 4 < self.heads.len() && self.heads.len() > MIN_BUCKETS {
            self.rebuild();
        } else if self.pops >= self.epoch_len {
            self.next_epoch();
        }
        Some(key)
    }

    fn peek_time(&mut self) -> Option<f64> {
        Some(if self.head_is_late()? {
            self.late.peek().expect("head is late").0 .0 .0
        } else {
            self.run[self.pos].0 .0
        })
    }

    /// Whether the earliest pending event is `late`'s top, not `run[pos]`
    /// (opening the next window if both ran out); `None` when empty.
    #[inline]
    fn head_is_late(&mut self) -> Option<bool> {
        if self.len == 0 {
            return None;
        }
        if self.pos == self.run.len() && self.late.is_empty() {
            self.open_next();
        }
        Some(match (self.run.get(self.pos), self.late.peek()) {
            (Some(r), Some(Reverse(l))) => l < r,
            (r, _) => r.is_none(),
        })
    }

    /// Sweeps to the next window that holds an event and opens it.
    fn open_next(&mut self) {
        self.run.clear();
        self.pos = 0;
        loop {
            // Some event waits in a later window, so this stops at or
            // before `u64::MAX`.
            self.cur_vb += 1;
            self.steps += 1;
            let b = self.cur_vb as usize & (self.heads.len() - 1);
            if self.heads[b] != NIL && self.unlink_window(b) {
                return self.run.sort_unstable();
            }
            if self.steps > STEPS_PER_POP * self.epoch_len {
                return self.rebuild();
            }
        }
    }

    /// Moves the events of window `cur_vb` from bucket `b`'s list to
    /// `run`; false when the list held later years only.
    fn unlink_window(&mut self, b: usize) -> bool {
        let (mut prev, mut s) = (NIL, self.heads[b]);
        while s != NIL {
            let Slot { key, next } = self.slots[s as usize];
            if self.vbucket(key.0 .0) != self.cur_vb {
                prev = s;
            } else {
                self.run.push(key);
                match prev {
                    NIL => self.heads[b] = next,
                    _ => self.slots[prev as usize].next = next,
                }
                self.slots[s as usize].next = self.free;
                self.free = s;
            }
            s = next;
        }
        !self.run.is_empty()
    }

    /// Starts an epoch with fresh budgets, and drops the consumed part
    /// of a window that outlives it (a coincident population appends to
    /// one `run` for a whole simulation).
    fn next_epoch(&mut self) {
        #[cfg(test)]
        self.totals.add(0, self.pops, self.steps, self.lates);
        (self.pops, self.steps, self.lates) = (0, 0, 0);
        if self.pos > self.run.len() / 2 {
            self.run.drain(..self.pos);
            self.pos = 0;
        }
    }

    /// Lays the pending events out afresh — a bucket per event, windows of
    /// `EVENTS_PER_WINDOW` events, the earliest event's window open — as
    /// a pure function of the contents.
    fn rebuild(&mut self) {
        #[cfg(test)]
        self.totals.add(1, 0, 0, 0);
        let mut evs = Vec::with_capacity(self.len);
        evs.extend_from_slice(&self.run[self.pos..]);
        evs.extend(self.late.drain().map(|Reverse(key)| key));
        for &head in &self.heads {
            let mut s = head;
            while s != NIL {
                evs.push(self.slots[s as usize].key);
                s = self.slots[s as usize].next;
            }
        }
        debug_assert_eq!(evs.len(), self.len);
        let nb = self.len.next_power_of_two().clamp(MIN_BUCKETS, MAX_BUCKETS);
        self.heads.clear();
        self.heads.resize(nb, NIL);
        self.slots.clear();
        self.free = NIL;
        self.run.clear();
        self.pos = 0;
        self.epoch_len = nb;
        self.next_epoch();

        let (mut lo, mut hi, mut ties) = (f64::INFINITY, f64::NEG_INFINITY, 0);
        for key in &evs {
            let t = key.0 .0;
            if t < lo {
                (lo, ties) = (t, 0);
            }
            ties += usize::from(t == lo);
            hi = hi.max(t);
        }
        if ties < evs.len() {
            // Width from the nearer half — far stragglers must not widen
            // the windows the sweep crosses next — of the events past
            // `lo`, as if all were spread like them: right after a start
            // most still sit on one instant and say nothing.
            let n = evs.len();
            let median = evs.select_nth_unstable(ties + (n - ties) / 2).1 .0 .0;
            let width = EVENTS_PER_WINDOW * (median - lo) / (n as f64 / 2.0);
            // The floor keeps `t * inv_width` below 10¹² windows.
            let floor = (lo.abs().max(hi.abs()) * 1e-12).max(1e-300);
            if width.is_finite() {
                self.inv_width = 1.0 / width.max(floor);
            }
        }
        self.cur_vb = self.vbucket(lo);
        for key in evs {
            match self.vbucket(key.0 .0) {
                k if k == self.cur_vb => self.run.push(key),
                k => self.link(key, k),
            }
        }
        self.run.sort_unstable();
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

/// The task queues of the stealing loop, and the stolen hauls in flight
/// between them, in one arena: doubly linked lists over task ids and
/// one record per rank. A task is in one queue *or* one haul, never
/// both, so both kinds of chain share the links, three vectors are all
/// that is allocated whatever the rank count, and landing is a splice.
pub(crate) struct RankQueues {
    /// `[next, prev]` of each task, side by side: every move reads both.
    links: Vec<[u32; 2]>,
    ranks: Vec<RankRecord>,
}

#[derive(Clone, Copy)]
struct RankRecord {
    queue: Chain,
    /// Tasks stolen by this rank that have not landed yet.
    haul: Chain,
}

/// A linked run of tasks (`NIL` ends when `len` is 0).
#[derive(Clone, Copy)]
struct Chain {
    head: u32,
    tail: u32,
    len: u32,
}

const EMPTY: Chain = Chain {
    head: NIL,
    tail: NIL,
    len: 0,
};

impl RankQueues {
    /// `p` empty queues over tasks `0..ntasks`.
    pub(crate) fn new(ntasks: usize, p: usize) -> RankQueues {
        assert!(ntasks < NIL as usize, "task ids are 32-bit");
        let rank = RankRecord {
            queue: EMPTY,
            haul: EMPTY,
        };
        RankQueues {
            links: vec![[NIL; 2]; ntasks],
            ranks: vec![rank; p],
        }
    }

    /// Number of ranks.
    pub(crate) fn ranks(&self) -> usize {
        self.ranks.len()
    }

    /// Tasks queued on `w`.
    #[inline]
    pub(crate) fn len(&self, w: usize) -> usize {
        self.ranks[w].queue.len as usize
    }

    /// Tasks in flight to `w`.
    #[inline]
    pub(crate) fn in_flight(&self, w: usize) -> usize {
        self.ranks[w].haul.len as usize
    }

    /// Next task `w` will run.
    #[inline]
    pub(crate) fn front(&self, w: usize) -> Option<usize> {
        let head = self.ranks[w].queue.head;
        (head != NIL).then_some(head as usize)
    }

    fn iter(&self, chain: Chain) -> impl Iterator<Item = usize> + '_ {
        let mut i = chain.head;
        std::iter::from_fn(move || {
            let task = (i != NIL).then_some(i as usize)?;
            i = self.links[task][0];
            Some(task)
        })
    }

    /// `w`'s queue, front to back.
    pub(crate) fn queue(&self, w: usize) -> impl Iterator<Item = usize> + '_ {
        self.iter(self.ranks[w].queue)
    }

    /// The haul in flight to `w`, in landing order.
    pub(crate) fn haul(&self, w: usize) -> impl Iterator<Item = usize> + '_ {
        self.iter(self.ranks[w].haul)
    }

    /// Links `tail` behind `w`'s queue.
    #[inline]
    fn append(&mut self, w: usize, tail: Chain) {
        let queue = &mut self.ranks[w].queue;
        if queue.len == 0 {
            *queue = tail;
        } else if tail.len > 0 {
            self.links[queue.tail as usize][0] = tail.head;
            self.links[tail.head as usize][1] = queue.tail;
            queue.tail = tail.tail;
            queue.len += tail.len;
        }
    }

    #[inline]
    pub(crate) fn push_back(&mut self, w: usize, task: usize) {
        let (head, tail) = (task as u32, task as u32);
        self.links[task] = [NIL, NIL];
        self.append(w, Chain { head, tail, len: 1 });
    }

    #[inline]
    pub(crate) fn pop_front(&mut self, w: usize) -> Option<usize> {
        let task = self.front(w)?;
        let queue = &mut self.ranks[w].queue;
        queue.head = self.links[task][0];
        queue.len -= 1;
        match queue.head {
            NIL => queue.tail = NIL,
            head => self.links[head as usize][1] = NIL,
        }
        Some(task)
    }

    /// Sends the last `take` tasks of `victim`'s queue on their way to
    /// `thief`, coldest first (the order a thief popping the back one
    /// task at a time collects them in).
    pub(crate) fn steal(&mut self, victim: usize, thief: usize, take: usize) {
        debug_assert!(take > 0 && take <= self.len(victim) && self.in_flight(thief) == 0);
        let head = self.ranks[victim].queue.tail;
        let (mut i, mut tail) = (head, NIL);
        for _ in 0..take {
            let before = self.links[i as usize][1];
            self.links[i as usize][1] = tail;
            self.links[i as usize][0] = before;
            (tail, i) = (i, before);
        }
        self.links[tail as usize][0] = NIL;
        let queue = &mut self.ranks[victim].queue;
        queue.tail = i;
        queue.len -= take as u32;
        match i {
            NIL => queue.head = NIL,
            _ => self.links[i as usize][0] = NIL,
        }
        let len = take as u32;
        self.ranks[thief].haul = Chain { head, tail, len };
    }

    /// Splices the haul in flight to `w` onto the back of its queue.
    #[inline]
    pub(crate) fn land(&mut self, w: usize) {
        let haul = std::mem::replace(&mut self.ranks[w].haul, EMPTY);
        self.append(w, haul);
    }

    /// Empties `w`'s queue, front to back; a haul in flight stays so.
    pub(crate) fn take_all(&mut self, w: usize) -> Vec<usize> {
        let tasks = self.queue(w).collect();
        self.ranks[w].queue = EMPTY;
        tasks
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
    use proptest::prelude::*;
    use std::collections::VecDeque;

    /// Lifetime counts of a calendar queue.
    #[derive(Debug, Default, Clone, Copy)]
    pub(super) struct SweepStats {
        rebuilds: usize,
        pops: usize,
        steps: usize,
        lates: usize,
    }

    impl SweepStats {
        pub(super) fn add(&mut self, rebuilds: usize, pops: usize, steps: usize, lates: usize) {
            self.rebuilds += rebuilds;
            self.pops += pops;
            self.steps += steps;
            self.lates += lates;
        }
    }

    /// Counts of `q`'s calendar, the running epoch included.
    fn sweep_stats(q: &EventQueue) -> SweepStats {
        let Backend::Calendar(c) = &q.imp else {
            panic!("the heap backend does not sweep");
        };
        let mut stats = c.totals;
        stats.add(0, c.pops, c.steps, c.lates);
        stats
    }

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

    /// `exp(σ·z)`, Box–Muller on the simulator's RNG.
    fn lognormal(rng: &mut SplitMix, sigma: f64) -> f64 {
        let r = (-2.0 * (1.0 - rng.unit()).ln()).sqrt();
        (sigma * r * (std::f64::consts::TAU * rng.unit()).cos()).exp()
    }

    /// Hold model: `p` events at 0, then `ops` times pop the earliest and
    /// push it back `inc()` later.
    fn hold(p: usize, ops: usize, mut inc: impl FnMut() -> f64) -> SweepStats {
        let mut q = EventQueue::with_capacity(QueueKind::Calendar, p);
        (0..p).for_each(|w| q.push(0.0, w));
        for _ in 0..ops {
            let (t, w) = q.pop().unwrap();
            q.push(t + inc(), w);
        }
        sweep_stats(&q)
    }

    #[test]
    fn sweep_steps_late_pushes_and_rebuilds_stay_within_counted_bounds() {
        // What makes the calendar O(1): a pop crosses a bounded number of
        // windows, a push rarely lands in the window that is already
        // open, and the layout is rebuilt a bounded number of times
        // however long the run. Bounds are twice the measured counts;
        // no clock is read.
        let mut rng = SplitMix::new(11);
        let mut level = 0;
        let mut lattice = move || {
            level = (level + 3) % 7;
            (level + 1) as f64 * 1e-6
        };
        // Measured, over 400 000 pops each: one rebuild (the cold one),
        // 17 late pushes (all before it), and 0.35 / 0.15 / 0.14 sweep
        // steps per pop.
        let cells = [
            (
                "σ 1.3, 4096",
                hold(4096, 400_000, || 1e-5 * lognormal(&mut rng, 1.3)),
            ),
            (
                "σ 1.3, 10⁵",
                hold(100_000, 400_000, || 1e-5 * lognormal(&mut rng, 1.3)),
            ),
            ("7 levels, 10⁵", hold(100_000, 400_000, &mut lattice)),
        ];
        for (cell, s) in cells {
            assert_eq!(s.pops, 400_000, "{cell}");
            assert!(s.rebuilds <= 2, "{cell}: {s:?}");
            assert!(s.steps * 10 <= s.pops * 7, "{cell}: {s:?}");
            assert!(s.lates * 10_000 <= s.pops, "{cell}: {s:?}");
        }
    }

    /// Panic message of `f`, if it panicked.
    fn panic_message(f: impl FnOnce() + std::panic::UnwindSafe) -> Option<String> {
        let payload = std::panic::catch_unwind(f).err()?;
        let text = payload.downcast_ref::<&str>().map(|s| s.to_string());
        text.or_else(|| payload.downcast_ref::<String>().cloned())
    }

    #[test]
    fn non_finite_times_are_rejected_on_both_backends() {
        for kind in [QueueKind::Calendar, QueueKind::Heap] {
            for (t, what) in [
                (f64::NAN, "NaN"),
                (f64::INFINITY, "infinite"),
                (f64::NEG_INFINITY, "infinite"),
            ] {
                let message = panic_message(move || EventQueue::new(kind).push(t, 0));
                assert_eq!(
                    message,
                    Some(format!("{what} simulation time")),
                    "{} {t}",
                    kind.name()
                );
            }
        }
    }

    #[test]
    fn every_finite_time_is_accepted_and_ordered_on_both_backends() {
        // A nanosecond-scale population calibrates nanosecond windows;
        // the extremes then land 10³⁰⁰ windows away (the placement
        // saturates) or before window 0, and must neither hang the sweep
        // nor overflow its window counter in a debug build.
        let tiny = f64::MIN_POSITIVE / 4.0; // subnormal
        let edges = [
            1e300,
            f64::MAX,
            -1e-9,
            0.0,
            -0.0,
            tiny,
            -tiny,
            f64::MIN,
            -1e300,
            f64::MAX,
            0.0,
        ];
        let drained = [QueueKind::Calendar, QueueKind::Heap].map(|kind| {
            let mut q = EventQueue::with_capacity(kind, 0);
            assert_eq!((q.pop(), q.peek_time(), q.len()), (None, None, 0));
            (0..300).for_each(|w| q.push(w as f64 * 1e-9, w));
            let mut out: Vec<(u64, usize)> = Vec::new();
            let mut take = |q: &mut EventQueue, n: usize| {
                for _ in 0..n {
                    let t = q.peek_time();
                    let (popped, w) = q.pop().expect("pending");
                    assert_eq!(t.map(f64::to_bits), Some(popped.to_bits()));
                    out.push((popped.to_bits(), w));
                }
            };
            take(&mut q, 100);
            edges
                .iter()
                .enumerate()
                .for_each(|(w, &t)| q.push(t, 1000 + w));
            take(&mut q, 200 + edges.len());
            assert_eq!((q.pop(), q.peek_time(), q.len()), (None, None, 0));
            // An emptied queue starts over anywhere.
            q.push(f64::MAX, 1);
            q.push(-5.0, 2);
            take(&mut q, 2);
            out
        });
        assert_eq!(drained[0], drained[1]);
        // Nanosecond windows again, emptied: the window counter follows
        // the next event to the saturated last window and stays there.
        let mut q = EventQueue::new(QueueKind::Calendar);
        (0..300).for_each(|w| q.push(w as f64 * 1e-9, w));
        while q.pop().is_some() {}
        for (w, t) in [f64::MAX, 1e300, f64::MAX, -1.0].into_iter().enumerate() {
            q.push(t, w);
        }
        let order: Vec<usize> = std::iter::from_fn(|| q.pop()).map(|(_, w)| w).collect();
        assert_eq!(order, [3, 1, 0, 2]);
        // `-0.0` and `0.0` are one time: workers 1003, 1004, 1010 pop in
        // push order, among the first-pushed event at 0 that is gone.
        let zeros: Vec<usize> = drained[0]
            .iter()
            .filter(|&&(t, w)| f64::from_bits(t) == 0.0 && w >= 1000)
            .map(|&(_, w)| w)
            .collect();
        assert_eq!(zeros, [1003, 1004, 1010]);
        let times: Vec<f64> = drained[0][100..100 + 200 + edges.len()]
            .iter()
            .map(|&(t, _)| f64::from_bits(t))
            .collect();
        assert!(times.windows(2).all(|p| p[0] <= p[1]), "{times:?}");
    }

    #[test]
    #[should_panic(expected = "NaN simulation time")]
    fn nan_times_are_rejected() {
        let mut q = EventQueue::new(QueueKind::Calendar);
        q.push(f64::NAN, 0);
    }

    /// Applies `f` to both backends and checks they answer alike.
    fn both_agree<R: PartialEq + std::fmt::Debug>(
        queues: &mut [EventQueue; 2],
        f: impl Fn(&mut EventQueue) -> R,
    ) -> R {
        let [cal, heap] = queues;
        let (a, b) = (f(cal), f(heap));
        assert_eq!(a, b);
        assert_eq!(cal.len(), heap.len());
        a
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The heap is the model: whatever mix of mass ties, pushes dated
        /// before the open window in mid-drain, 10⁹× jumps of the time
        /// scale, collapses to one event, regrowth past two doublings and
        /// peeks the generator draws, both backends pop the same events
        /// and hold the same number at every step.
        #[test]
        fn the_calendar_pops_what_the_heap_pops(
            program in proptest::collection::vec(0u64..u64::MAX, 20..120),
        ) {
            let mut queues = both();
            let (mut now, mut scale, mut worker) = (0.0f64, 1e-6f64, 0usize);
            for word in program {
                let unit = (word >> 11) as f64 / (1u64 << 53) as f64;
                let count = (word >> 8) as usize % 200 + 1;
                let mut push = |queues: &mut [EventQueue; 2], t: f64| {
                    worker += 1;
                    both_agree(queues, |q| q.push(t, worker));
                };
                match word % 8 {
                    0 => (0..count).for_each(|_| push(&mut queues, now + scale * unit)),
                    1 | 2 => {
                        for i in 0..count {
                            let Some((t, _)) = both_agree(&mut queues, |q| q.pop()) else { break };
                            now = t;
                            push(&mut queues, t + scale * unit * (i * 5 % 7) as f64);
                        }
                    }
                    3 => push(&mut queues, now - scale * unit),
                    4 if scale < 1.0 => scale *= 1e9,
                    4 => scale /= 1e9,
                    5 => {
                        while queues[0].len() > 1 {
                            now = both_agree(&mut queues, |q| q.pop()).expect("pending").0;
                        }
                    }
                    6 if queues[0].len() < 2048 => {
                        let grow = 4 * (queues[0].len() + 16) + count;
                        (0..grow).for_each(|i| push(&mut queues, now + scale * (i % 97) as f64 * unit));
                    }
                    _ => {
                        both_agree(&mut queues, |q| q.peek_time());
                    }
                }
            }
            while both_agree(&mut queues, |q| q.pop()).is_some() {}
        }

        /// `Vec<VecDeque>` queues and `Vec<Vec>` hauls are the model of
        /// the arena: the same pushes, pops, steals (half a queue, or one
        /// task — the thief-side `pop_back`), landings (onto a queue that
        /// was handed tasks meanwhile, too) and take-alls (with a haul
        /// still in flight, too) leave the same tasks in the same order.
        #[test]
        fn the_arena_is_deques_and_hauls(
            p in 1usize..6,
            ntasks in 1usize..40,
            program in proptest::collection::vec(0usize..usize::MAX, 1..200),
        ) {
            let mut arena = RankQueues::new(ntasks, p);
            let mut queues: Vec<VecDeque<usize>> = vec![VecDeque::new(); p];
            let mut hauls: Vec<Vec<usize>> = vec![Vec::new(); p];
            let mut unqueued: Vec<usize> = (0..ntasks).collect();
            for word in program {
                let (w, v) = ((word >> 8) % p, (word >> 16) % p);
                match word % 6 {
                    0 | 1 => {
                        if let Some(task) = unqueued.pop() {
                            arena.push_back(w, task);
                            queues[w].push_back(task);
                        }
                    }
                    2 => {
                        let task = arena.pop_front(w);
                        prop_assert_eq!(task, queues[w].pop_front());
                        unqueued.extend(task);
                    }
                    3 if v != w && hauls[w].is_empty() && !queues[v].is_empty() => {
                        let take = [1, queues[v].len().div_ceil(2)][(word >> 24) % 2];
                        arena.steal(v, w, take);
                        hauls[w].extend((0..take).map(|_| queues[v].pop_back().expect("take <= len")));
                    }
                    4 => {
                        arena.land(w);
                        queues[w].extend(hauls[w].drain(..));
                    }
                    5 => {
                        let orphans = arena.take_all(w);
                        prop_assert_eq!(&orphans, &Vec::from(std::mem::take(&mut queues[w])));
                        unqueued.extend(orphans);
                    }
                    _ => {}
                }
                for w in 0..p {
                    prop_assert_eq!(arena.queue(w).collect::<Vec<_>>(), Vec::from(queues[w].clone()));
                    prop_assert_eq!(arena.haul(w).collect::<Vec<_>>(), hauls[w].clone());
                    prop_assert_eq!((arena.len(w), arena.in_flight(w)), (queues[w].len(), hauls[w].len()));
                    prop_assert_eq!(arena.front(w), queues[w].front().copied());
                    // `prev` mirrors `next` along every queue.
                    let mut back = arena.ranks[w].queue.tail;
                    for &task in queues[w].iter().rev() {
                        prop_assert_eq!(back as usize, task);
                        back = arena.links[task][1];
                    }
                }
            }
        }
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
