//! Per-task intervals read off [`ProfEvent`] streams, and the text
//! occupancy strips drawn from them.
//!
//! Both substrates record a task as a `TaskStart`/`TaskEnd` pair: the
//! thread runtime in its rings, the simulator in virtual time. Measured
//! task costs ([`task_spans`]) and the paper's per-worker utilization
//! pictures ([`render_timeline`]) are both read from those streams.

use crate::ring::{EventKind, ProfEvent};

/// The `(task, start_ns, end_ns)` of every `TaskStart`/`TaskEnd` pair in
/// `stream`, in stream order. Unmatched events — an end whose start was
/// lost to a wrapped ring, a start that never ends — are dropped, as
/// [`ChromeTrace::add_event_streams`](crate::ChromeTrace::add_event_streams)
/// drops them.
pub fn task_spans(stream: &[ProfEvent]) -> impl Iterator<Item = (usize, u64, u64)> + '_ {
    let mut open = None;
    stream.iter().filter_map(move |e| match e.kind {
        EventKind::TaskStart => {
            open = Some((e.arg, e.t_ns));
            None
        }
        EventKind::TaskEnd => open
            .take()
            .filter(|&(task, _)| task == e.arg)
            .map(|(task, t0)| (task as usize, t0, e.t_ns)),
        _ => None,
    })
}

/// Maps a bucket's busy fraction to its strip glyph: `·` empty, `▂` up
/// to a quarter busy, `▅` up to three quarters, `#` (near-)solid.
fn occupancy_glyph(fraction: f64) -> char {
    if fraction < 1e-9 {
        '·'
    } else if fraction <= 0.25 {
        '▂'
    } else if fraction <= 0.75 {
        '▅'
    } else {
        '#'
    }
}

/// Renders one occupancy strip per stream over `width` time buckets of
/// `span_ns`: `#` where the worker was inside task bodies for (almost)
/// the whole bucket, `▅`/`▂` for partially busy buckets, `·` where it
/// was idle or scheduling. At most `max_rows` rows are drawn, followed
/// by a `… N more workers` line when streams are left out.
///
/// A task that ends after `span_ns` extends the rendered span rather
/// than being clipped away (a worker's clock may read past the wall
/// measurement). Nothing is rendered when the span is zero.
pub fn render_timeline(
    streams: &[Vec<ProfEvent>],
    span_ns: u64,
    width: usize,
    max_rows: usize,
) -> String {
    assert!(width > 0, "need at least one column");
    let span = streams
        .iter()
        .flat_map(|s| task_spans(s))
        .map(|(.., end)| end)
        .fold(span_ns, u64::max) as f64;
    let mut out = String::new();
    if span <= 0.0 {
        return out;
    }
    let bucket = span / width as f64;
    for (w, stream) in streams.iter().enumerate().take(max_rows) {
        let mut busy = vec![0.0f64; width];
        for (_, s, e) in task_spans(stream) {
            let (s, e) = (s as f64, (e as f64).min(span));
            let mut b = (s / bucket) as usize;
            while b < width {
                let b_start = b as f64 * bucket;
                if b_start >= e {
                    break;
                }
                busy[b] += e.min(b_start + bucket) - s.max(b_start);
                b += 1;
            }
        }
        out.push_str(&format!("w{w:<4}|"));
        out.extend(busy.iter().map(|&x| occupancy_glyph(x / bucket)));
        out.push_str("|\n");
    }
    if streams.len() > max_rows {
        out.push_str(&format!("… {} more workers\n", streams.len() - max_rows));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use EventKind::*;

    fn ev(kind: EventKind, arg: u64, t_ns: u64) -> ProfEvent {
        ProfEvent { kind, arg, t_ns }
    }

    /// Strips of one stream per worker, its tasks numbered from 0 and
    /// busy over `(start, end)` ms, in a `span_ms` span.
    fn render(span_ms: u64, workers: &[&[(u64, u64)]], width: usize, max_rows: usize) -> String {
        let ms = 1_000_000;
        let pair =
            |(i, &(s, e)): (u64, &(u64, u64))| [ev(TaskStart, i, s * ms), ev(TaskEnd, i, e * ms)];
        let streams: Vec<Vec<ProfEvent>> = workers
            .iter()
            .map(|w| (0..).zip(w.iter()).flat_map(pair).collect())
            .collect();
        render_timeline(&streams, span_ms * ms, width, max_rows)
    }

    /// The strip of one worker busy over `spans`.
    fn row(span_ms: u64, spans: &[(u64, u64)], width: usize) -> String {
        render(span_ms, &[spans], width, 1)
    }

    #[test]
    fn fully_busy_worker_renders_solid() {
        assert_eq!(row(100, &[(0, 100)], 10), "w0   |##########|\n");
    }

    #[test]
    fn idle_second_half_renders_dots() {
        assert_eq!(row(100, &[(0, 50)], 10), "w0   |#####·····|\n");
    }

    #[test]
    fn one_row_per_worker() {
        let s = render(100, &[&[(0, 100)], &[(50, 100)], &[]], 4, 3);
        assert_eq!(s, "w0   |####|\nw1   |··##|\nw2   |····|\n");
    }

    #[test]
    fn zero_wall_is_safe() {
        assert_eq!(row(0, &[], 5), "");
        assert_eq!(render_timeline(&[], 0, 5, 4), "");
    }

    #[test]
    fn untraced_report_renders_all_idle_rows() {
        // A span but no events: every stream renders, fully idle.
        let s = render(100, &[&[], &[]], 6, 2);
        assert_eq!(s, "w0   |······|\nw1   |······|\n");
    }

    #[test]
    fn single_bucket_aggregates_everything() {
        assert_eq!(row(100, &[(0, 50)], 1), "w0   |▅|\n");
    }

    #[test]
    fn partial_buckets_use_fractional_glyphs() {
        // Busy for the first `end` ms of 100, in `width` buckets; the
        // band edges: ¼ is still `▂`, ¾ still `▅`, anything above `#`.
        for (end, width, glyphs) in [
            (20, 5, "#····"),
            (20, 1, "▂"),
            (25, 1, "▂"),
            (30, 1, "▅"),
            (75, 1, "▅"),
            (76, 1, "#"),
            (30, 10, "###·······"),
        ] {
            assert_eq!(row(100, &[(0, end)], width), format!("w0   |{glyphs}|\n"));
        }
    }

    #[test]
    fn event_past_wall_extends_span_instead_of_vanishing() {
        // The task ends at 200 ms but the span reads 100 ms: the strip
        // shows the second half busy rather than clipping the task away.
        assert_eq!(row(100, &[(100, 200)], 10), "w0   |·····#####|\n");
    }

    #[test]
    fn zero_wall_with_events_still_renders() {
        // No span measured, real events: the span comes from the events.
        assert_eq!(row(0, &[(0, 40)], 4), "w0   |####|\n");
    }

    #[test]
    fn worker_cap_truncates_with_ellipsis() {
        let busy: &[(u64, u64)] = &[(0, 10)];
        let s = render(0, &[busy; 6], 5, 4);
        let tail: Vec<&str> = s.lines().skip(3).collect();
        assert_eq!(tail, ["w3   |#####|", "… 2 more workers"]);
        // At the cap exactly, no ellipsis.
        assert_eq!(render(0, &[busy; 4], 5, 4).lines().count(), 4);
    }

    #[test]
    fn task_spans_drop_a_lost_start_and_a_start_that_never_ends() {
        let stream = [
            ev(TaskEnd, 9, 10), // start lost to a wrapped ring
            ev(TaskStart, 10, 20),
            ev(TaskEnd, 10, 30),
            ev(TaskStart, 11, 40), // never ends
        ];
        assert_eq!(task_spans(&stream).collect::<Vec<_>>(), [(10, 20, 30)]);
        // A start whose end names another task pairs with nothing.
        let crossed = [ev(TaskStart, 1, 0), ev(TaskEnd, 2, 5)];
        assert_eq!(task_spans(&crossed).count(), 0);
    }

    #[test]
    fn task_spans_skip_the_events_of_an_interleaved_hunt() {
        // A thief's stream: task, failed probe, winning steal, stolen
        // task, final idle hunt — only the two tasks are spans.
        let stream = [
            (TaskStart, 0, 0),
            (TaskEnd, 0, 30),
            (IdleStart, 1, 30),
            (StealAttempt, 0, 32),
            (StealFail, 0, 32),
            (StealAttempt, 0, 35),
            (StealSuccess, 0, 35),
            (TaskStart, 7, 35),
            (TaskEnd, 7, 45),
            (IdleStart, 0, 45),
            (IdleEnd, 0, 70),
        ]
        .map(|(kind, arg, t)| ev(kind, arg, t));
        let spans: Vec<_> = task_spans(&stream).collect();
        assert_eq!(spans, [(0, 0, 30), (7, 35, 45)]);
    }
}
