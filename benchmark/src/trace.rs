//! In-memory spans around the benchmark's calls into each layer.
//!
//! The caller is single-threaded (closed loop, one caller), so a span is
//! opened and closed on a stack and its parent is whatever was open when
//! it started. Spans live in memory and are written out once, at exit.
//! Spans *inside* the crates are a later issue: everything here wraps a
//! call into a crate's `pub` function from outside.

use emx_obs::Json;
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    /// Index of the enclosing span; `None` for a root. All spans under
    /// one root belong to one request (one arm sample).
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span called `name`; spans `f` opens become its
    /// children.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Runs `f` `n` times, each inside its own span called `name`, and
    /// returns the spans' durations in seconds.
    pub fn samples<R>(&mut self, name: &str, n: usize, mut f: impl FnMut() -> R) -> Vec<f64> {
        (0..n)
            .map(|_| {
                let id = self.mark();
                std::hint::black_box(self.span(name, |_| f()));
                self.spans[id].seconds()
            })
            .collect()
    }

    /// Index the next span will get — `spans()[mark..]` afterwards is
    /// what one pass recorded.
    pub fn mark(&self) -> usize {
        self.spans.len()
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn to_json(&self, workload: &str) -> Json {
        let spans = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                Json::obj(vec![
                    ("id", Json::Num(id as f64)),
                    ("name", Json::Str(s.name.clone())),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    ),
                    ("request", Json::Num(root_of(&self.spans, id) as f64)),
                    ("start_ns", Json::Num(s.start_ns as f64)),
                    ("end_ns", Json::Num(s.end_ns as f64)),
                ])
            })
            .collect();
        Json::obj(vec![
            ("workload", Json::Str(workload.to_string())),
            ("spans", Json::Arr(spans)),
        ])
    }
}

fn root_of(spans: &[Span], mut id: usize) -> usize {
    while let Some(p) = spans[id].parent {
        id = p;
    }
    id
}

/// Self time in seconds per span name over `spans[from..]`: each span's
/// duration minus the duration of its direct children (which cannot
/// overlap: one caller), summed over spans of the same name.
pub fn self_seconds(spans: &[Span], from: usize) -> BTreeMap<String, f64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in &spans[from..] {
        if let Some(p) = s.parent {
            child_ns[p] += s.end_ns - s.start_ns;
        }
    }
    let mut out = BTreeMap::new();
    for (id, s) in spans.iter().enumerate().skip(from) {
        let own = (s.end_ns - s.start_ns).saturating_sub(child_ns[id]);
        *out.entry(s.name.clone()).or_insert(0.0) += own as f64 * 1e-9;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: name.into(),
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        // root [0,100) ─ a [10,40) ─ a1 [15,25)
        //              └ b [50,90)
        let spans = vec![
            span("root", None, 0, 100),
            span("a", Some(0), 10, 40),
            span("a1", Some(1), 15, 25),
            span("b", Some(0), 50, 90),
        ];
        let s = self_seconds(&spans, 0);
        assert!((s["root"] - 30e-9).abs() < 1e-18, "100 − (30 + 40)");
        assert!((s["a"] - 20e-9).abs() < 1e-18, "30 − 10");
        assert!((s["a1"] - 10e-9).abs() < 1e-18);
        assert!((s["b"] - 40e-9).abs() < 1e-18);
        let total: f64 = s.values().sum();
        assert!((total - 100e-9).abs() < 1e-18, "self times sum to the root");
    }

    #[test]
    fn same_name_spans_add_up_and_from_skips_earlier_passes() {
        let spans = vec![
            span("pass", None, 0, 10),
            span("pass", None, 10, 30),
            span("k", Some(1), 12, 20),
        ];
        assert!((self_seconds(&spans, 0)["pass"] - 22e-9).abs() < 1e-18);
        assert!((self_seconds(&spans, 1)["pass"] - 12e-9).abs() < 1e-18);
    }

    #[test]
    fn tracer_records_parents_from_the_open_stack() {
        let mut tr = Tracer::new();
        let v = tr.span("outer", |tr| {
            tr.span("first", |_| ());
            tr.span("second", |tr| tr.span("leaf", |_| 7))
        });
        assert_eq!(v, 7);
        let parents: Vec<_> = tr.spans().iter().map(|s| (&*s.name, s.parent)).collect();
        assert_eq!(
            parents,
            [
                ("outer", None),
                ("first", Some(0)),
                ("second", Some(0)),
                ("leaf", Some(2))
            ]
        );
        assert!(tr.spans().iter().all(|s| s.end_ns >= s.start_ns));
        assert!(tr.spans()[0].end_ns >= tr.spans()[3].end_ns);
    }

    #[test]
    fn trace_json_round_trips_through_the_obs_parser() {
        let mut tr = Tracer::new();
        tr.span("a \"quoted\" name", |tr| tr.span("child", |_| ()));
        let text = tr.to_json("scf-w3-631g").to_json_string();
        let v = Json::parse(&text).expect("writer output parses");
        assert_eq!(v, tr.to_json("scf-w3-631g"));
        let spans = v.get("spans").and_then(Json::as_arr).expect("spans");
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].get("parent").and_then(Json::as_f64), Some(0.0));
        assert_eq!(spans[1].get("request").and_then(Json::as_f64), Some(0.0));
        assert_eq!(spans[0].get("parent"), Some(&Json::Null));
    }
}
