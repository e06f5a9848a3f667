//! Critical-path and blame attribution over profiling event streams.
//!
//! The paper's overhead-decomposition experiment (e7) answers *where
//! does each execution model lose time* from aggregate counters. This
//! module recomputes that decomposition from real events: given the
//! per-worker [`ProfEvent`] streams captured by the
//! [`ring`](crate::ring) layer (or emitted in virtual time by the
//! simulator), it reconstructs per-worker timelines and splits each
//! worker's share of wall time into five blame categories —
//!
//! * **compute** — inside task bodies (`TaskStart`→`TaskEnd`),
//! * **counter** — shared-counter fetch round trips
//!   (`CounterFetchStart`→`CounterFetchEnd`),
//! * **steal** — hunts for work that end in a successful steal
//!   (`IdleStart`→`StealSuccess`): the price of moving a task,
//! * **merge** — pairwise reduction-tree merges
//!   (`MergeStart`→`MergeEnd`),
//! * **idle** — everything else: hunts that end in exhaustion, startup
//!   and shutdown gaps, waiting at the implicit end barrier.
//!
//! Idle is the complement of the measured categories inside the
//! harness-measured wall time, so per worker the five categories sum to
//! wall *exactly* — unless the measured categories themselves exceed
//! wall, which is the inconsistency [`WorkerBlame::sum_error`] exposes
//! and the test suite pins below 1% for every roster policy.
//!
//! The **critical path** is the longest dependency chain through the
//! run DAG: task bodies chained in execution order per worker, joined by
//! the deterministic pairwise reduction tree's merge edges (merge of
//! slot *j* into slot *i* depends on both workers' chains). Idle and
//! hunt time never extend the path — it is the classic lower bound on
//! achievable wall time, and `wall − critical_path` is scheduling slack.

use crate::ring::{EventKind, ProfEvent, RingSet};
use crate::timeline::task_spans;

/// One worker's share of wall time, split into blame categories (all in
/// nanoseconds), plus its event tallies.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WorkerBlame {
    /// Worker index within the run.
    pub worker: usize,
    /// Time inside task bodies.
    pub compute_ns: u64,
    /// Time in shared-counter fetch round trips.
    pub counter_ns: u64,
    /// Time hunting for work when the hunt ended in a successful steal.
    pub steal_ns: u64,
    /// Time merging reduction-tree partials.
    pub merge_ns: u64,
    /// Complement: exhausted hunts, startup/shutdown gaps, end barrier.
    pub idle_ns: u64,
    /// Tasks completed.
    pub tasks: u64,
    /// Steal probes issued: one per `StealAttempt` event plus the
    /// failed probes each `IdleStart` carries.
    pub steal_attempts: u64,
    /// Steal probes that succeeded.
    pub steals: u64,
}

impl WorkerBlame {
    /// Sum of all five blame categories.
    pub fn total_ns(&self) -> u64 {
        self.measured_ns() + self.idle_ns
    }

    /// Sum of the *measured* categories (everything but idle).
    pub fn measured_ns(&self) -> u64 {
        self.compute_ns + self.counter_ns + self.steal_ns + self.merge_ns
    }

    /// Relative error of the sums-to-wall invariant for this worker:
    /// `|total − wall| / wall` (0 when wall is 0). Non-zero only when
    /// the measured categories overran the harness wall measurement.
    pub fn sum_error(&self, wall_ns: u64) -> f64 {
        if wall_ns == 0 {
            return 0.0;
        }
        (self.total_ns() as f64 - wall_ns as f64).abs() / wall_ns as f64
    }
}

/// The full attribution of one run: per-worker blame, the critical path
/// and capture-quality accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct Attribution {
    /// Scheduling policy name (`PolicyKind::name()` or a sim label).
    pub policy: String,
    /// Harness-measured wall time of the attributed region in ns
    /// (including the reduction merges).
    pub wall_ns: u64,
    /// One entry per worker.
    pub workers: Vec<WorkerBlame>,
    /// Longest dependency chain (task bodies + merge tree) in ns.
    pub critical_path_ns: u64,
    /// Nodes on that chain.
    pub critical_path_nodes: u64,
    /// Events lost to ring overwrite (0 ⇒ the attribution saw the whole
    /// run; non-zero windows under-count the measured categories).
    pub overwritten: u64,
}

impl Attribution {
    /// Builds the attribution from per-worker event streams (each
    /// oldest-first, as [`RingSet::events_per_worker`] and
    /// the simulator emit them) and the harness-measured wall time.
    /// `overwritten` is 0; a caller whose rings lost events sets it.
    pub fn build(policy: &str, wall_ns: u64, events: &[Vec<ProfEvent>]) -> Attribution {
        let workers: Vec<WorkerBlame> = events
            .iter()
            .enumerate()
            .map(|(w, stream)| blame_worker(w, stream, wall_ns))
            .collect();
        let (critical_path_ns, critical_path_nodes) = critical_path(events);
        Attribution {
            policy: policy.to_string(),
            wall_ns,
            workers,
            critical_path_ns,
            critical_path_nodes,
            overwritten: 0,
        }
    }

    /// Convenience: attribution straight from a run's ring set.
    pub fn from_rings(policy: &str, wall_ns: u64, rings: &RingSet) -> Attribution {
        let snaps = rings.snapshot_all();
        let overwritten = snaps.iter().map(|s| s.overwritten).sum();
        let events: Vec<Vec<ProfEvent>> = snaps.into_iter().map(|s| s.events).collect();
        Attribution {
            overwritten,
            ..Attribution::build(policy, wall_ns, &events)
        }
    }

    /// Aggregate blame over all workers (the `worker` field is the
    /// worker count).
    pub fn totals(&self) -> WorkerBlame {
        let mut t = WorkerBlame {
            worker: self.workers.len(),
            ..WorkerBlame::default()
        };
        for w in &self.workers {
            t.compute_ns += w.compute_ns;
            t.counter_ns += w.counter_ns;
            t.steal_ns += w.steal_ns;
            t.merge_ns += w.merge_ns;
            t.idle_ns += w.idle_ns;
            t.tasks += w.tasks;
            t.steal_attempts += w.steal_attempts;
            t.steals += w.steals;
        }
        t
    }

    /// Worst per-worker sums-to-wall error (see [`WorkerBlame::sum_error`]).
    pub fn max_sum_error(&self) -> f64 {
        self.workers
            .iter()
            .map(|w| w.sum_error(self.wall_ns))
            .fold(0.0, f64::max)
    }

    /// `critical_path / wall` — 1.0 means the run is dependency-bound,
    /// lower means scheduling slack remains.
    pub fn critical_path_fraction(&self) -> f64 {
        if self.wall_ns == 0 {
            return 0.0;
        }
        self.critical_path_ns as f64 / self.wall_ns as f64
    }

    /// Renders the attribution as a fixed-width text table (the
    /// `reproduce profile` output).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "policy {}: wall {:.3} ms, critical path {:.3} ms ({:.1}% of wall), {} events lost\n",
            self.policy,
            self.wall_ns as f64 / 1e6,
            self.critical_path_ns as f64 / 1e6,
            100.0 * self.critical_path_fraction(),
            self.overwritten,
        ));
        out.push_str(
            "  worker  compute%  counter%   steal%   merge%    idle%    tasks  attempts  steals\n",
        );
        let pct = |ns: u64| {
            if self.wall_ns == 0 {
                0.0
            } else {
                100.0 * ns as f64 / self.wall_ns as f64
            }
        };
        for w in &self.workers {
            out.push_str(&format!(
                "  {:>6}  {:>8.2}  {:>8.2}  {:>7.2}  {:>7.2}  {:>7.2}  {:>7}  {:>8}  {:>6}\n",
                w.worker,
                pct(w.compute_ns),
                pct(w.counter_ns),
                pct(w.steal_ns),
                pct(w.merge_ns),
                pct(w.idle_ns),
                w.tasks,
                w.steal_attempts,
                w.steals,
            ));
        }
        out
    }
}

/// Folds one worker's event stream into its blame breakdown.
fn blame_worker(worker: usize, stream: &[ProfEvent], wall_ns: u64) -> WorkerBlame {
    let mut b = WorkerBlame {
        worker,
        ..WorkerBlame::default()
    };
    for (_, t0, t1) in task_spans(stream) {
        b.compute_ns += t1.saturating_sub(t0);
        b.tasks += 1;
    }
    let mut fetch_open: Option<u64> = None;
    let mut merge_open: Option<u64> = None;
    let mut hunt_open: Option<u64> = None;
    for e in stream {
        match e.kind {
            EventKind::TaskStart | EventKind::TaskEnd => {}
            EventKind::CounterFetchStart => fetch_open = Some(e.t_ns),
            EventKind::CounterFetchEnd => {
                if let Some(t0) = fetch_open.take() {
                    b.counter_ns += e.t_ns.saturating_sub(t0);
                }
            }
            EventKind::MergeStart => merge_open = Some(e.t_ns),
            EventKind::MergeEnd => {
                if let Some(t0) = merge_open.take() {
                    b.merge_ns += e.t_ns.saturating_sub(t0);
                }
            }
            EventKind::IdleStart => {
                hunt_open = Some(e.t_ns);
                b.steal_attempts += e.arg;
            }
            EventKind::StealAttempt => b.steal_attempts += 1,
            EventKind::StealSuccess => {
                b.steals += 1;
                if let Some(t0) = hunt_open.take() {
                    b.steal_ns += e.t_ns.saturating_sub(t0);
                }
            }
            // A failed probe is a point event inside the hunt; the hunt
            // keeps running until success or exhaustion.
            EventKind::StealFail => {}
            // Exhausted hunts land in the idle complement below.
            EventKind::IdleEnd => {
                hunt_open = None;
            }
        }
    }
    b.idle_ns = wall_ns.saturating_sub(b.measured_ns());
    b
}

/// Longest dependency chain through the run DAG: per-worker task chains
/// joined by the pairwise reduction tree. Returns `(length_ns, nodes)`.
fn critical_path(events: &[Vec<ProfEvent>]) -> (u64, u64) {
    let n = events.len();
    // Chain state per worker: (critical length ending at its last node,
    // nodes on that chain).
    let mut cpl = vec![(0u64, 0u64); n];
    // Merges must be applied in dependency order; the stride-doubling
    // tree records them with globally increasing timestamps, so sorting
    // merge intervals by start time recovers the order.
    let mut merges: Vec<(u64, u64, usize, usize)> = Vec::new(); // (t0, dur, acc, other)
    for (w, stream) in events.iter().enumerate() {
        for (_, t0, t1) in task_spans(stream) {
            cpl[w] = (cpl[w].0 + t1.saturating_sub(t0), cpl[w].1 + 1);
        }
        let mut merge_open: Option<(u64, u64)> = None; // (t0, other)
        for e in stream {
            match e.kind {
                EventKind::MergeStart => merge_open = Some((e.t_ns, e.arg)),
                EventKind::MergeEnd => {
                    if let Some((t0, other)) = merge_open.take() {
                        merges.push((t0, e.t_ns.saturating_sub(t0), w, other as usize));
                    }
                }
                _ => {}
            }
        }
    }
    merges.sort_unstable_by_key(|&(t0, ..)| t0);
    for (_, dur, acc, other) in merges {
        if acc >= n || other >= n {
            continue;
        }
        let joined = cpl[acc].0.max(cpl[other].0);
        let nodes = if cpl[acc].0 >= cpl[other].0 {
            cpl[acc].1
        } else {
            cpl[other].1
        };
        cpl[acc] = (joined + dur, nodes + 1);
    }
    cpl.into_iter().max().unwrap_or((0, 0))
}

/// Per-category deltas between two attributions (B relative to A).
#[derive(Debug, Clone)]
pub struct AttributionDiff {
    /// Baseline run label.
    pub a_policy: String,
    /// Comparison run label.
    pub b_policy: String,
    /// Wall times of A and B in ns.
    pub wall_ns: (u64, u64),
    /// `(category, a_total_ns, b_total_ns)` for the five blame
    /// categories, in fixed order.
    pub categories: Vec<(&'static str, u64, u64)>,
    /// Per-worker total deltas `b_total − a_total` in ns (present only
    /// when both runs used the same worker count).
    pub per_worker_delta_ns: Option<Vec<i64>>,
}

impl AttributionDiff {
    /// Compares run B against baseline run A.
    pub fn between(a: &Attribution, b: &Attribution) -> AttributionDiff {
        let (ta, tb) = (a.totals(), b.totals());
        let categories = vec![
            ("compute", ta.compute_ns, tb.compute_ns),
            ("counter", ta.counter_ns, tb.counter_ns),
            ("steal", ta.steal_ns, tb.steal_ns),
            ("merge", ta.merge_ns, tb.merge_ns),
            ("idle", ta.idle_ns, tb.idle_ns),
        ];
        let per_worker_delta_ns = (a.workers.len() == b.workers.len()).then(|| {
            a.workers
                .iter()
                .zip(&b.workers)
                .map(|(wa, wb)| wb.total_ns() as i64 - wa.total_ns() as i64)
                .collect()
        });
        AttributionDiff {
            a_policy: a.policy.clone(),
            b_policy: b.policy.clone(),
            wall_ns: (a.wall_ns, b.wall_ns),
            categories,
            per_worker_delta_ns,
        }
    }

    /// Renders the differential report as text: wall delta, then one
    /// line per category with both totals and the signed delta.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let (wa, wb) = self.wall_ns;
        out.push_str(&format!(
            "diff {} -> {}: wall {:.3} ms -> {:.3} ms ({:+.1}%)\n",
            self.a_policy,
            self.b_policy,
            wa as f64 / 1e6,
            wb as f64 / 1e6,
            rel_delta(wa, wb),
        ));
        out.push_str("  category      A(ms)      B(ms)    delta(ms)   delta%\n");
        for (name, a, b) in &self.categories {
            out.push_str(&format!(
                "  {:<8}  {:>9.3}  {:>9.3}  {:>+11.3}  {:>+7.1}\n",
                name,
                *a as f64 / 1e6,
                *b as f64 / 1e6,
                (*b as f64 - *a as f64) / 1e6,
                rel_delta(*a, *b),
            ));
        }
        if let Some(per) = &self.per_worker_delta_ns {
            out.push_str("  per-worker total delta (ms):");
            for d in per {
                out.push_str(&format!(" {:+.3}", *d as f64 / 1e6));
            }
            out.push('\n');
        }
        out
    }
}

fn rel_delta(a: u64, b: u64) -> f64 {
    if a == 0 {
        if b == 0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        100.0 * (b as f64 - a as f64) / a as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(kind: EventKind, arg: u64, t_ns: u64) -> ProfEvent {
        ProfEvent { kind, arg, t_ns }
    }

    /// Two workers, one steal, a counter fetch and one merge: the
    /// categories land where the events say and idle is the exact
    /// complement.
    #[test]
    fn blame_categories_sum_to_wall_exactly() {
        let w0 = vec![
            ev(EventKind::TaskStart, 0, 0),
            ev(EventKind::TaskEnd, 0, 40),
            ev(EventKind::CounterFetchStart, 0, 40),
            ev(EventKind::CounterFetchEnd, 1, 45),
            ev(EventKind::TaskStart, 1, 45),
            ev(EventKind::TaskEnd, 1, 80),
            ev(EventKind::MergeStart, 1, 90),
            ev(EventKind::MergeEnd, 1, 100),
        ];
        let w1 = vec![
            ev(EventKind::TaskStart, 2, 0),
            ev(EventKind::TaskEnd, 2, 30),
            ev(EventKind::IdleStart, 0, 30),
            ev(EventKind::StealAttempt, 0, 35),
            ev(EventKind::StealSuccess, 0, 42),
            ev(EventKind::TaskStart, 3, 42),
            ev(EventKind::TaskEnd, 3, 70),
            // Three failed probes, carried by the hunt's opening event.
            ev(EventKind::IdleStart, 3, 70),
            ev(EventKind::IdleEnd, 0, 85),
        ];
        let a = Attribution::build("test", 100, &[w0, w1]);
        let b0 = &a.workers[0];
        assert_eq!(b0.compute_ns, 75);
        assert_eq!(b0.counter_ns, 5);
        assert_eq!(b0.merge_ns, 10);
        assert_eq!(b0.idle_ns, 10);
        assert_eq!(b0.tasks, 2);
        let b1 = &a.workers[1];
        assert_eq!(b1.compute_ns, 58);
        assert_eq!(b1.steal_ns, 12);
        assert_eq!(b1.idle_ns, 30, "exhausted hunt folds into idle");
        assert_eq!(b1.steal_attempts, 4, "one probe event + three carried");
        assert_eq!(b1.steals, 1);
        for w in &a.workers {
            assert_eq!(w.total_ns(), 100);
            assert_eq!(w.sum_error(100), 0.0);
        }
        assert_eq!(a.max_sum_error(), 0.0);
    }

    /// Critical path: the merge joins both chains, so the path is the
    /// longer chain plus the merge duration — not the sum of chains.
    #[test]
    fn critical_path_joins_chains_through_merges() {
        let w0 = vec![
            ev(EventKind::TaskStart, 0, 0),
            ev(EventKind::TaskEnd, 0, 40), // chain 40
            ev(EventKind::MergeStart, 1, 60),
            ev(EventKind::MergeEnd, 1, 70), // join with w1, +10
        ];
        let w1 = vec![
            ev(EventKind::TaskStart, 1, 0),
            ev(EventKind::TaskEnd, 1, 55), // chain 55 (longer)
        ];
        let a = Attribution::build("test", 80, &[w0, w1]);
        assert_eq!(a.critical_path_ns, 65, "max(40, 55) + 10");
        assert_eq!(a.critical_path_nodes, 2, "w1's task, then the merge");
        assert!((a.critical_path_fraction() - 65.0 / 80.0).abs() < 1e-12);
    }

    /// A four-worker pairwise tree: merges apply in timestamp order so
    /// the second-level merge sees the first-level results.
    #[test]
    fn critical_path_pairwise_tree_order() {
        let task = |w: &mut Vec<ProfEvent>, i, t0, t1| {
            w.push(ev(EventKind::TaskStart, i, t0));
            w.push(ev(EventKind::TaskEnd, i, t1));
        };
        let merge = |w: &mut Vec<ProfEvent>, other, t0, t1| {
            w.push(ev(EventKind::MergeStart, other, t0));
            w.push(ev(EventKind::MergeEnd, other, t1));
        };
        let mut w0 = Vec::new();
        let mut w1 = Vec::new();
        let mut w2 = Vec::new();
        let mut w3 = Vec::new();
        task(&mut w0, 0, 0, 10);
        task(&mut w1, 1, 0, 20);
        task(&mut w2, 2, 0, 30);
        task(&mut w3, 3, 0, 40);
        merge(&mut w0, 1, 50, 55); // (0,1): max(10,20)+5 = 25
        merge(&mut w2, 3, 56, 60); // (2,3): max(30,40)+4 = 44
        merge(&mut w0, 2, 61, 68); // (0,2): max(25,44)+7 = 51
        let a = Attribution::build("test", 70, &[w0, w1, w2, w3]);
        assert_eq!(a.critical_path_ns, 51);
        assert_eq!(a.critical_path_nodes, 3, "w3 task, merge(2,3), merge(0,2)");
    }

    #[test]
    fn diff_reports_category_and_worker_deltas() {
        let mk = |compute, idle| {
            let w = vec![
                ev(EventKind::TaskStart, 0, 0),
                ev(EventKind::TaskEnd, 0, compute),
            ];
            Attribution::build("p", compute + idle, &[w])
        };
        let a = mk(40, 10);
        let b = mk(60, 20);
        let d = AttributionDiff::between(&a, &b);
        assert_eq!(d.wall_ns, (50, 80));
        assert_eq!(d.categories[0], ("compute", 40, 60));
        assert_eq!(d.categories[4], ("idle", 10, 20));
        assert_eq!(d.per_worker_delta_ns, Some(vec![30]));
        let text = d.render();
        assert!(text.contains("compute"), "{text}");
        assert!(text.contains("+60.0"), "wall +60%: {text}");
    }

    #[test]
    fn render_contains_all_workers_and_policy() {
        let w0 = vec![
            ev(EventKind::TaskStart, 0, 0),
            ev(EventKind::TaskEnd, 0, 40),
        ];
        let a = Attribution::build("guided", 50, &[w0.clone(), w0]);
        let text = a.render();
        assert!(text.contains("policy guided"));
        assert_eq!(text.lines().count(), 4, "header + column row + 2 workers");
    }

    /// Truncated streams (lost starts) must not panic or produce
    /// nonsense: unmatched ends are dropped.
    #[test]
    fn unmatched_events_are_ignored() {
        let w0 = vec![
            ev(EventKind::TaskEnd, 0, 40),      // start was overwritten
            ev(EventKind::StealSuccess, 0, 50), // no hunt open
            ev(EventKind::MergeEnd, 1, 60),
        ];
        let a = Attribution {
            overwritten: 5,
            ..Attribution::build("ws", 100, &[w0])
        };
        assert_eq!(a.workers[0].compute_ns, 0);
        assert_eq!(a.workers[0].steal_ns, 0);
        assert_eq!(a.workers[0].merge_ns, 0);
        assert_eq!(a.workers[0].idle_ns, 100);
        assert_eq!(a.overwritten, 5);
    }
}
