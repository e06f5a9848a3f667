//! Flamegraph-family exports for profiling event streams: speedscope
//! JSON and Brendan-Gregg collapsed stacks, alongside the existing
//! Chrome trace.
//!
//! Both exporters consume the same per-worker [`ProfEvent`] streams the
//! attribution pipeline takes, so one captured run can be inspected as
//! an attribution table, a Chrome/Perfetto timeline, a speedscope
//! time-ordered view (<https://www.speedscope.app>) or a collapsed-stack
//! flamegraph — no re-capture, no format-specific instrumentation.

use crate::json::Json;
use crate::ring::{EventKind, ProfEvent};

/// One closed interval reconstructed from a worker stream.
struct Interval {
    label: String,
    start_ns: u64,
    end_ns: u64,
}

/// Matches start/end pairs in one worker stream into labeled intervals
/// (in stream order). Unmatched events — a truncated ring window — are
/// dropped rather than guessed at.
fn intervals(stream: &[ProfEvent]) -> Vec<Interval> {
    let mut out = Vec::new();
    let mut task_open: Option<(u64, u64)> = None;
    let mut fetch_open: Option<u64> = None;
    let mut merge_open: Option<(u64, u64)> = None;
    let mut hunt_open: Option<u64> = None;
    for e in stream {
        match e.kind {
            EventKind::TaskStart => task_open = Some((e.arg, e.t_ns)),
            EventKind::TaskEnd => {
                if let Some((task, t0)) = task_open.take() {
                    out.push(Interval {
                        label: format!("task {task}"),
                        start_ns: t0,
                        end_ns: e.t_ns.max(t0),
                    });
                }
            }
            EventKind::CounterFetchStart => fetch_open = Some(e.t_ns),
            EventKind::CounterFetchEnd => {
                if let Some(t0) = fetch_open.take() {
                    out.push(Interval {
                        label: "counter fetch".to_string(),
                        start_ns: t0,
                        end_ns: e.t_ns.max(t0),
                    });
                }
            }
            EventKind::MergeStart => merge_open = Some((e.arg, e.t_ns)),
            EventKind::MergeEnd => {
                if let Some((other, t0)) = merge_open.take() {
                    out.push(Interval {
                        label: format!("merge +{other}"),
                        start_ns: t0,
                        end_ns: e.t_ns.max(t0),
                    });
                }
            }
            EventKind::IdleStart => hunt_open = Some(e.t_ns),
            EventKind::StealSuccess => {
                if let Some(t0) = hunt_open.take() {
                    out.push(Interval {
                        label: "steal hunt".to_string(),
                        start_ns: t0,
                        end_ns: e.t_ns.max(t0),
                    });
                }
            }
            EventKind::IdleEnd => {
                if let Some(t0) = hunt_open.take() {
                    out.push(Interval {
                        label: "idle".to_string(),
                        start_ns: t0,
                        end_ns: e.t_ns.max(t0),
                    });
                }
            }
            EventKind::StealAttempt | EventKind::StealFail => {}
        }
    }
    out
}

/// Renders per-worker event streams as a speedscope file (`"evented"`
/// profile type, nanosecond unit, one profile per worker). Load the
/// result directly at <https://www.speedscope.app>.
pub fn speedscope_json(name: &str, events: &[Vec<ProfEvent>]) -> String {
    let mut frames: Vec<String> = Vec::new();
    let frame_index = |label: &str, frames: &mut Vec<String>| -> usize {
        match frames.iter().position(|f| f == label) {
            Some(i) => i,
            None => {
                frames.push(label.to_string());
                frames.len() - 1
            }
        }
    };
    let mut profiles = Vec::new();
    for (w, stream) in events.iter().enumerate() {
        let ivs = intervals(stream);
        let end = ivs.iter().map(|i| i.end_ns).max().unwrap_or(0);
        let mut evs = Vec::with_capacity(ivs.len() * 2);
        for iv in &ivs {
            let f = frame_index(&iv.label, &mut frames) as f64;
            evs.push(Json::obj(vec![
                ("type", Json::Str("O".into())),
                ("frame", Json::Num(f)),
                ("at", Json::Num(iv.start_ns as f64)),
            ]));
            evs.push(Json::obj(vec![
                ("type", Json::Str("C".into())),
                ("frame", Json::Num(f)),
                ("at", Json::Num(iv.end_ns as f64)),
            ]));
        }
        profiles.push(Json::obj(vec![
            ("type", Json::Str("evented".into())),
            ("name", Json::Str(format!("worker {w}"))),
            ("unit", Json::Str("nanoseconds".into())),
            ("startValue", Json::Num(0.0)),
            ("endValue", Json::Num(end as f64)),
            ("events", Json::Arr(evs)),
        ]));
    }
    Json::obj(vec![
        (
            "$schema",
            Json::Str("https://www.speedscope.app/file-format-schema.json".into()),
        ),
        ("name", Json::Str(name.to_string())),
        (
            "shared",
            Json::obj(vec![(
                "frames",
                Json::Arr(
                    frames
                        .into_iter()
                        .map(|f| Json::obj(vec![("name", Json::Str(f))]))
                        .collect(),
                ),
            )]),
        ),
        ("profiles", Json::Arr(profiles)),
        ("activeProfileIndex", Json::Num(0.0)),
        ("exporter", Json::Str("emx-obs".into())),
    ])
    .to_json_string()
}

/// Renders per-worker streams in collapsed-stack format (one
/// `stack;frames count` line per aggregated stack, nanoseconds as the
/// count) — the input `flamegraph.pl` and `inferno` take. Category
/// totals are aggregated per worker so the flame width is the blame
/// breakdown.
pub fn collapsed_stacks(events: &[Vec<ProfEvent>]) -> String {
    let mut out = String::new();
    for (w, stream) in events.iter().enumerate() {
        // Aggregate by category label (task indices fold together —
        // collapsed stacks answer "where did the time go", the
        // per-task view lives in speedscope/Chrome).
        let mut totals: Vec<(&'static str, u64)> = Vec::new();
        let mut add = |cat: &'static str, ns: u64| match totals.iter_mut().find(|(c, _)| *c == cat)
        {
            Some((_, v)) => *v += ns,
            None => totals.push((cat, ns)),
        };
        for iv in intervals(stream) {
            let dur = iv.end_ns - iv.start_ns;
            let cat = if iv.label.starts_with("task") {
                "compute"
            } else if iv.label.starts_with("counter") {
                "counter-fetch"
            } else if iv.label.starts_with("merge") {
                "merge"
            } else if iv.label.starts_with("steal") {
                "steal-hunt"
            } else {
                "idle"
            };
            add(cat, dur);
        }
        for (cat, ns) in totals {
            out.push_str(&format!("worker {w};{cat} {ns}\n"));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(kind: EventKind, arg: u64, t_ns: u64) -> ProfEvent {
        ProfEvent { kind, arg, t_ns }
    }

    fn sample_streams() -> Vec<Vec<ProfEvent>> {
        vec![
            vec![
                ev(EventKind::TaskStart, 0, 0),
                ev(EventKind::TaskEnd, 0, 40),
                ev(EventKind::MergeStart, 1, 50),
                ev(EventKind::MergeEnd, 1, 60),
            ],
            vec![
                ev(EventKind::TaskStart, 1, 0),
                ev(EventKind::TaskEnd, 1, 30),
                ev(EventKind::IdleStart, 0, 30),
                ev(EventKind::StealAttempt, 0, 32),
                ev(EventKind::StealSuccess, 0, 35),
                ev(EventKind::TaskStart, 2, 35),
                ev(EventKind::TaskEnd, 2, 45),
            ],
        ]
    }

    #[test]
    fn speedscope_is_valid_and_balanced() {
        let text = speedscope_json("demo", &sample_streams());
        let v = Json::parse(&text).unwrap();
        assert!(v
            .get("$schema")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("speedscope"));
        let profiles = v.get("profiles").unwrap().as_arr().unwrap();
        assert_eq!(profiles.len(), 2);
        for p in profiles {
            assert_eq!(p.get("type").unwrap().as_str(), Some("evented"));
            assert_eq!(p.get("unit").unwrap().as_str(), Some("nanoseconds"));
            let evs = p.get("events").unwrap().as_arr().unwrap();
            assert!(!evs.is_empty());
            // Balanced: every O has a matching C, `at` non-decreasing.
            let mut depth = 0i64;
            let mut last_at = f64::NEG_INFINITY;
            for e in evs {
                let at = e.get("at").unwrap().as_f64().unwrap();
                assert!(at >= last_at, "at went backwards");
                last_at = at;
                match e.get("type").unwrap().as_str().unwrap() {
                    "O" => depth += 1,
                    "C" => depth -= 1,
                    other => panic!("unexpected event type {other}"),
                }
                assert!(depth >= 0);
            }
            assert_eq!(depth, 0, "unbalanced profile");
            let end = p.get("endValue").unwrap().as_f64().unwrap();
            assert!(end >= last_at);
        }
        // Frames are shared and referenced in range.
        let nframes = v
            .get("shared")
            .unwrap()
            .get("frames")
            .unwrap()
            .as_arr()
            .unwrap()
            .len() as f64;
        for p in profiles {
            for e in p.get("events").unwrap().as_arr().unwrap() {
                assert!(e.get("frame").unwrap().as_f64().unwrap() < nframes);
            }
        }
    }

    #[test]
    fn collapsed_stacks_aggregate_categories() {
        let text = collapsed_stacks(&sample_streams());
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines.contains(&"worker 0;compute 40"), "{text}");
        assert!(lines.contains(&"worker 0;merge 10"), "{text}");
        assert!(lines.contains(&"worker 1;compute 40"), "{text}");
        assert!(lines.contains(&"worker 1;steal-hunt 5"), "{text}");
        for l in &lines {
            let (stack, count) = l.rsplit_once(' ').unwrap();
            assert!(stack.contains(';'));
            count.parse::<u64>().unwrap();
        }
    }

    #[test]
    fn truncated_stream_drops_unmatched_events() {
        let stream = vec![
            ev(EventKind::TaskEnd, 9, 10), // lost start
            ev(EventKind::TaskStart, 10, 20),
            ev(EventKind::TaskEnd, 10, 30),
            ev(EventKind::TaskStart, 11, 40), // never ends
        ];
        let text = speedscope_json("t", &[stream]);
        let v = Json::parse(&text).unwrap();
        let evs = v.get("profiles").unwrap().as_arr().unwrap()[0]
            .get("events")
            .unwrap()
            .as_arr()
            .unwrap();
        assert_eq!(evs.len(), 2, "only the matched pair survives");
    }
}
