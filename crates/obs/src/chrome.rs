//! Chrome trace-event JSON export (`chrome://tracing` / Perfetto).
//!
//! The workspace's one trace format. Builds the "JSON Array with
//! metadata" flavour of the trace-event format: one process per source
//! (a Fock build on threads, a simulated run), one thread track per
//! worker or rank, complete (`"ph":"X"`) events with microsecond
//! timestamps. Events are sorted by timestamp at export, so `ts` is
//! monotonic across the file — some viewers require it. Perfetto,
//! `chrome://tracing` and speedscope's importer all open the result.
//!
//! Slices come from the per-worker [`ProfEvent`] streams that both
//! substrates emit — the thread runtime's rings and the simulator's
//! virtual-time events — through [`ChromeTrace::add_event_streams`].

use crate::json::Json;
use crate::ring::{EventKind, ProfEvent};
use std::collections::BTreeMap;

/// One complete ("X") trace event.
#[derive(Debug)]
struct Span {
    pid: u32,
    tid: u32,
    name: String,
    cat: String,
    ts_us: f64,
    dur_us: f64,
}

/// Accumulates spans and track names, then serializes to trace JSON.
#[derive(Debug, Default)]
pub struct ChromeTrace {
    spans: Vec<Span>,
    process_names: BTreeMap<u32, String>,
    thread_names: BTreeMap<(u32, u32), String>,
}

impl ChromeTrace {
    /// An empty trace.
    pub fn new() -> ChromeTrace {
        ChromeTrace::default()
    }

    /// Names a process (a top-level group in the viewer).
    pub fn set_process_name(&mut self, pid: u32, name: impl Into<String>) {
        self.process_names.insert(pid, name.into());
    }

    /// Adds one complete event.
    fn add_span(
        &mut self,
        pid: u32,
        tid: u32,
        name: impl Into<String>,
        cat: impl Into<String>,
        ts_us: f64,
        dur_us: f64,
    ) {
        self.spans.push(Span {
            pid,
            tid,
            name: name.into(),
            cat: cat.into(),
            ts_us,
            dur_us: dur_us.max(0.0),
        });
    }

    /// Adds per-worker event streams (nanosecond timestamps) under
    /// `pid`: stream `w` becomes the track `<track> w`, and each
    /// start/end pair in it one slice — `task N` (category `compute`),
    /// `counter fetch` (`counter`), `merge +k` (`merge`), and a hunt
    /// that opened with `IdleStart` as `steal hunt` (`steal`) when it
    /// closed with `StealSuccess` or `idle` (`idle`) when it closed with
    /// `IdleEnd`. Unmatched events — the truncated window of a wrapped
    /// ring — are dropped rather than guessed at.
    pub fn add_event_streams(&mut self, pid: u32, track: &str, streams: &[Vec<ProfEvent>]) {
        for (w, stream) in streams.iter().enumerate() {
            let tid = w as u32;
            self.thread_names.insert((pid, tid), format!("{track} {w}"));
            let (mut task, mut fetch, mut merge, mut hunt) = (None, None, None, None);
            for e in stream {
                let closed = match e.kind {
                    EventKind::TaskStart => {
                        task = Some((e.arg, e.t_ns));
                        None
                    }
                    EventKind::TaskEnd => task
                        .take()
                        .map(|(i, t0)| (format!("task {i}"), "compute", t0)),
                    EventKind::CounterFetchStart => {
                        fetch = Some(e.t_ns);
                        None
                    }
                    EventKind::CounterFetchEnd => fetch
                        .take()
                        .map(|t0| ("counter fetch".to_string(), "counter", t0)),
                    EventKind::MergeStart => {
                        merge = Some((e.arg, e.t_ns));
                        None
                    }
                    EventKind::MergeEnd => merge
                        .take()
                        .map(|(k, t0)| (format!("merge +{k}"), "merge", t0)),
                    EventKind::IdleStart => {
                        hunt = Some(e.t_ns);
                        None
                    }
                    EventKind::StealSuccess => hunt
                        .take()
                        .map(|t0| ("steal hunt".to_string(), "steal", t0)),
                    EventKind::IdleEnd => hunt.take().map(|t0| ("idle".to_string(), "idle", t0)),
                    EventKind::StealAttempt | EventKind::StealFail => None,
                };
                if let Some((name, cat, t0)) = closed {
                    let dur_ns = e.t_ns.saturating_sub(t0);
                    self.add_span(pid, tid, name, cat, t0 as f64 / 1e3, dur_ns as f64 / 1e3);
                }
            }
        }
    }

    /// Number of complete events added so far.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether no events have been added.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Serializes to the trace-event JSON object.
    pub fn to_json(&self) -> Json {
        let mut events: Vec<Json> = Vec::new();
        // Metadata events first: process and thread names.
        for (pid, name) in &self.process_names {
            events.push(Json::obj(vec![
                ("ph", Json::Str("M".into())),
                ("name", Json::Str("process_name".into())),
                ("pid", Json::Num(*pid as f64)),
                ("tid", Json::Num(0.0)),
                ("args", Json::obj(vec![("name", Json::Str(name.clone()))])),
            ]));
        }
        for ((pid, tid), name) in &self.thread_names {
            events.push(Json::obj(vec![
                ("ph", Json::Str("M".into())),
                ("name", Json::Str("thread_name".into())),
                ("pid", Json::Num(*pid as f64)),
                ("tid", Json::Num(*tid as f64)),
                ("args", Json::obj(vec![("name", Json::Str(name.clone()))])),
            ]));
        }
        // Complete events, sorted so ts is monotonic across the file.
        let mut spans: Vec<&Span> = self.spans.iter().collect();
        spans.sort_by(|a, b| {
            a.ts_us
                .total_cmp(&b.ts_us)
                .then(a.pid.cmp(&b.pid))
                .then(a.tid.cmp(&b.tid))
        });
        for s in spans {
            events.push(Json::obj(vec![
                ("ph", Json::Str("X".into())),
                ("name", Json::Str(s.name.clone())),
                ("cat", Json::Str(s.cat.clone())),
                ("pid", Json::Num(s.pid as f64)),
                ("tid", Json::Num(s.tid as f64)),
                ("ts", Json::Num(s.ts_us)),
                ("dur", Json::Num(s.dur_us)),
            ]));
        }
        Json::obj(vec![
            ("traceEvents", Json::Arr(events)),
            ("displayTimeUnit", Json::Str("ms".into())),
        ])
    }

    /// Serializes to a JSON string ready to load in Perfetto.
    pub fn to_json_string(&self) -> String {
        self.to_json().to_json_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(kind: EventKind, arg: u64, t_ns: u64) -> ProfEvent {
        ProfEvent { kind, arg, t_ns }
    }

    /// The `(name, cat, tid)` of every slice, in export order.
    fn slices(t: &ChromeTrace) -> Vec<(String, String, u32)> {
        let v = Json::parse(&t.to_json_string()).unwrap();
        v.get("traceEvents")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .filter(|e| e.get("ph").unwrap().as_str() == Some("X"))
            .map(|e| {
                (
                    e.get("name").unwrap().as_str().unwrap().to_string(),
                    e.get("cat").unwrap().as_str().unwrap().to_string(),
                    e.get("tid").unwrap().as_f64().unwrap() as u32,
                )
            })
            .collect()
    }

    #[test]
    fn spans_sorted_and_named() {
        let mut t = ChromeTrace::new();
        t.set_process_name(0, "runtime");
        t.add_event_streams(
            0,
            "worker",
            &[
                vec![
                    ev(EventKind::TaskStart, 1, 2000),
                    ev(EventKind::TaskEnd, 1, 3000),
                ],
                vec![
                    ev(EventKind::TaskStart, 0, 0),
                    ev(EventKind::TaskEnd, 0, 1000),
                ],
            ],
        );
        let v = Json::parse(&t.to_json_string()).unwrap();
        let events = v.get("traceEvents").unwrap().as_arr().unwrap();
        // 1 process-name + 2 thread-name + 2 X events.
        assert_eq!(events.len(), 5);
        let xs: Vec<&Json> = events
            .iter()
            .filter(|e| e.get("ph").unwrap().as_str() == Some("X"))
            .collect();
        assert_eq!(xs.len(), 2);
        // Monotonic ts: worker 1's earlier slice comes first.
        assert!(xs[0].get("ts").unwrap().as_f64() <= xs[1].get("ts").unwrap().as_f64());
        assert_eq!(xs[0].get("tid").unwrap().as_f64(), Some(1.0));
        // One thread-name track per worker.
        let names: Vec<&str> = events
            .iter()
            .filter(|e| e.get("name").unwrap().as_str() == Some("thread_name"))
            .map(|e| {
                e.get("args")
                    .unwrap()
                    .get("name")
                    .unwrap()
                    .as_str()
                    .unwrap()
            })
            .collect();
        assert_eq!(names, vec!["worker 0", "worker 1"]);
    }

    #[test]
    fn ring_events_convert_ns_to_us() {
        let mut t = ChromeTrace::new();
        t.add_event_streams(
            2,
            "rank",
            &[
                vec![],
                vec![
                    ev(EventKind::IdleStart, 0, 3000),
                    ev(EventKind::StealAttempt, 0, 4500),
                    ev(EventKind::StealSuccess, 0, 4500),
                ],
            ],
        );
        let v = Json::parse(&t.to_json_string()).unwrap();
        let events = v.get("traceEvents").unwrap().as_arr().unwrap();
        let x = events
            .iter()
            .find(|e| e.get("ph").unwrap().as_str() == Some("X"))
            .unwrap();
        assert_eq!(x.get("ts").unwrap().as_f64(), Some(3.0));
        assert_eq!(x.get("dur").unwrap().as_f64(), Some(1.5));
        assert_eq!(x.get("pid").unwrap().as_f64(), Some(2.0));
        assert_eq!(x.get("tid").unwrap().as_f64(), Some(1.0));
    }

    #[test]
    fn ring_streams_become_five_labelled_slices() {
        let mut t = ChromeTrace::new();
        t.add_event_streams(
            0,
            "worker",
            &[
                vec![
                    ev(EventKind::CounterFetchStart, 0, 0),
                    ev(EventKind::CounterFetchEnd, 0, 5),
                    ev(EventKind::TaskStart, 0, 5),
                    ev(EventKind::TaskEnd, 0, 40),
                    ev(EventKind::MergeStart, 1, 50),
                    ev(EventKind::MergeEnd, 1, 60),
                ],
                vec![
                    ev(EventKind::TaskStart, 1, 0),
                    ev(EventKind::TaskEnd, 1, 30),
                    ev(EventKind::IdleStart, 0, 30),
                    ev(EventKind::StealAttempt, 0, 32),
                    ev(EventKind::StealFail, 0, 32),
                    ev(EventKind::StealAttempt, 0, 35),
                    ev(EventKind::StealSuccess, 0, 35),
                    ev(EventKind::TaskStart, 2, 35),
                    ev(EventKind::TaskEnd, 2, 45),
                    ev(EventKind::IdleStart, 0, 45),
                    ev(EventKind::IdleEnd, 0, 70),
                ],
            ],
        );
        let got = slices(&t);
        let want = [
            ("counter fetch", "counter", 0),
            ("task 1", "compute", 1),
            ("task 0", "compute", 0),
            ("steal hunt", "steal", 1),
            ("task 2", "compute", 1),
            ("idle", "idle", 1),
            ("merge +1", "merge", 0),
        ];
        let want: Vec<(String, String, u32)> = want
            .iter()
            .map(|&(n, c, w)| (n.to_string(), c.to_string(), w))
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn truncated_stream_drops_unmatched_events() {
        let mut t = ChromeTrace::new();
        t.add_event_streams(
            0,
            "worker",
            &[vec![
                ev(EventKind::TaskEnd, 9, 10), // lost start
                ev(EventKind::TaskStart, 10, 20),
                ev(EventKind::TaskEnd, 10, 30),
                ev(EventKind::TaskStart, 11, 40),   // never ends
                ev(EventKind::StealSuccess, 0, 50), // hunt opened before the window
            ]],
        );
        let got = slices(&t);
        assert_eq!(got.len(), 1, "only the matched pair survives: {got:?}");
        assert_eq!(got[0].0, "task 10");
    }

    #[test]
    fn negative_durations_clamped() {
        let mut t = ChromeTrace::new();
        t.add_span(0, 0, "x", "c", 1.0, -5.0);
        assert_eq!(t.spans[0].dur_us, 0.0);
    }
}
