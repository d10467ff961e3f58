//! The benchmark's own span recorder.
//!
//! Spans are taken from outside the program, around calls into each crate's
//! public functions; nothing inside the program is read (`VELA_TRACE` stays
//! unset). They are kept in memory and written out when the run ends. All
//! spans are recorded on the benchmark's main thread.

use std::cell::RefCell;
use std::io::{self, Write};
use std::time::Instant;

/// Round label of the single-worker local run.
pub const ROUND_LOCAL: u32 = 1000;
/// Round label of the layer probes.
pub const ROUND_PROBE: u32 = 2000;

/// One closed interval on the benchmark's main thread.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that was open when this one started.
    pub parent: Option<usize>,
    pub round: u32,
    /// Step index inside the round: negative during warm-up, `None`
    /// outside the step loop.
    pub step: Option<i64>,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }

    /// Whether the span belongs to a timed (not warm-up) step of `round`.
    pub fn in_timed_step(&self, round: u32) -> bool {
        self.round == round && self.step.is_some_and(|s| s >= 0)
    }
}

struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    round: u32,
    step: Option<i64>,
}

thread_local! {
    static REC: RefCell<Recorder> = RefCell::new(Recorder {
        enabled: false,
        origin: Instant::now(),
        spans: Vec::new(),
        open: Vec::new(),
        round: 0,
        step: None,
    });
}

/// Turns span recording on or off. Timing through [`timed`] works either way.
pub fn enable(on: bool) {
    REC.with_borrow_mut(|r| r.enabled = on);
}

/// Whether spans are being recorded.
pub fn enabled() -> bool {
    REC.with_borrow(|r| r.enabled)
}

/// Labels the spans that follow with a round and a step.
pub fn at(round: u32, step: Option<i64>) {
    REC.with_borrow_mut(|r| {
        r.round = round;
        r.step = step;
    });
}

/// Runs `f`, returns its result and its wall seconds, and records a span
/// named `name` (child of whichever span is open) when recording is on.
pub fn timed<R>(name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
    let id = REC.with_borrow_mut(|r| {
        r.enabled.then(|| {
            let id = r.spans.len();
            let now = r.origin.elapsed().as_nanos() as u64;
            r.spans.push(Span {
                name,
                start_ns: now,
                end_ns: now,
                parent: r.open.last().copied(),
                round: r.round,
                step: r.step,
            });
            r.open.push(id);
            id
        })
    });
    let t0 = Instant::now();
    let out = f();
    let secs = t0.elapsed().as_secs_f64();
    if let Some(id) = id {
        REC.with_borrow_mut(|r| {
            r.spans[id].end_ns = r.origin.elapsed().as_nanos() as u64;
            r.open.pop();
        });
    }
    (out, secs)
}

/// Removes and returns every span recorded so far.
pub fn take() -> Vec<Span> {
    REC.with_borrow_mut(|r| std::mem::take(&mut r.spans))
}

/// A span's duration minus the part of it its children cover, in seconds.
pub fn self_secs(spans: &[Span], id: usize) -> f64 {
    let me = &spans[id];
    let mut kids: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(|s| (s.start_ns.max(me.start_ns), s.end_ns.min(me.end_ns)))
        .filter(|(a, b)| a < b)
        .collect();
    kids.sort_unstable();
    let mut covered = 0u64;
    let mut reach = me.start_ns;
    for (a, b) in kids {
        let a = a.max(reach);
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    (me.end_ns - me.start_ns - covered) as f64 * 1e-9
}

/// Total seconds of the spans named `name` inside timed steps of `round`.
pub fn total(spans: &[Span], name: &str, round: u32) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name && s.in_timed_step(round))
        .map(Span::secs)
        .sum()
}

/// Total self seconds of the spans named `name` inside timed steps of `round`.
pub fn self_total(spans: &[Span], name: &str, round: u32) -> f64 {
    (0..spans.len())
        .filter(|&i| spans[i].name == name && spans[i].in_timed_step(round))
        .map(|i| self_secs(spans, i))
        .sum()
}

/// Writes one JSON object per span, one per line.
pub fn write_jsonl(spans: &[Span], out: &mut dyn Write) -> io::Result<()> {
    for (id, s) in spans.iter().enumerate() {
        let opt = |v: Option<i64>| v.map_or("null".to_string(), |v| v.to_string());
        writeln!(
            out,
            "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"round\":{},\"step\":{}}}",
            s.name,
            s.start_ns,
            s.end_ns,
            opt(s.parent.map(|p| p as i64)),
            s.round,
            opt(s.step),
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            round: 0,
            step: Some(0),
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("step", 0, 1000, None),
            span("a", 100, 300, Some(0)),
            // Overlaps `a`: only 300..400 is newly covered.
            span("b", 200, 400, Some(0)),
            span("c", 600, 700, Some(0)),
            // A grandchild is covered by its own parent, not counted twice.
            span("a.inner", 150, 250, Some(1)),
        ];
        let ns = |s: f64| (s * 1e9).round() as u64;
        assert_eq!(ns(self_secs(&spans, 0)), 1000 - 300 - 100);
        assert_eq!(ns(self_secs(&spans, 1)), 200 - 100);
        assert_eq!(ns(self_secs(&spans, 3)), 100);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let spans = vec![span("p", 100, 200, None), span("k", 50, 150, Some(0))];
        assert_eq!((self_secs(&spans, 0) * 1e9).round() as u64, 50);
    }

    #[test]
    fn rows_and_self_time_add_up_to_the_parent() {
        let spans = vec![
            span("step", 0, 500, None),
            span("fwd", 50, 150, Some(0)),
            span("bwd", 200, 450, Some(0)),
        ];
        let rows =
            total(&spans, "fwd", 0) + total(&spans, "bwd", 0) + self_total(&spans, "step", 0);
        assert!((rows - total(&spans, "step", 0)).abs() < 1e-12);
    }

    #[test]
    fn warm_up_and_other_rounds_are_left_out_of_totals() {
        let mut warm = span("x", 0, 10, None);
        warm.step = Some(-1);
        let mut other = span("x", 0, 10, None);
        other.round = 7;
        let mut outside = span("x", 0, 10, None);
        outside.step = None;
        let spans = vec![warm, other, outside, span("x", 0, 10, None)];
        assert!((total(&spans, "x", 0) - 10e-9).abs() < 1e-15);
    }

    #[test]
    fn recorder_nests_spans_and_times_when_off() {
        enable(true);
        at(3, Some(5));
        let ((), outer) = timed("outer", || {
            timed("inner", || std::hint::black_box(1 + 1));
        });
        enable(false);
        let (v, off) = timed("unrecorded", || 7);
        let spans = take();
        assert_eq!(v, 7);
        assert!(outer >= 0.0 && off >= 0.0);
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].name, spans[0].parent), ("outer", None));
        assert_eq!((spans[1].name, spans[1].parent), ("inner", Some(0)));
        assert_eq!((spans[1].round, spans[1].step), (3, Some(5)));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);

        let mut buf = Vec::new();
        write_jsonl(&spans, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert!(text
            .lines()
            .nth(1)
            .unwrap()
            .contains("\"parent\":0,\"round\":3,\"step\":5"));
    }
}
