//! The process-global trace sink: serialises drained events as JSONL
//! into a file (or an in-memory buffer for tests). Write errors are
//! swallowed after downgrading the sink to discard — observability must
//! never take the workload down.

use std::fmt::Write as _;
use std::io::Write as _;
use std::sync::Mutex;

use crate::reader::{escape_into, write_pairs};
use crate::span::Event;

enum Target {
    File(std::io::BufWriter<std::fs::File>),
    Memory(Vec<u8>),
    Discard,
}

impl Target {
    fn write(&mut self, bytes: &[u8]) {
        let failed = match self {
            Target::File(w) => w.write_all(bytes).is_err(),
            Target::Memory(buf) => {
                buf.extend_from_slice(bytes);
                false
            }
            Target::Discard => false,
        };
        if failed {
            *self = Target::Discard;
        }
    }

    fn flush(&mut self) {
        if let Target::File(w) = self {
            if w.flush().is_err() {
                *self = Target::Discard;
            }
        }
    }
}

static SINK: Mutex<Option<Target>> = Mutex::new(None);

fn open_default() -> Target {
    let path = std::env::var("VELA_TRACE_OUT").unwrap_or_else(|_| "vela-trace.jsonl".to_string());
    match std::fs::File::create(&path) {
        Ok(f) => Target::File(std::io::BufWriter::new(f)),
        Err(e) => {
            crate::warn!("cannot open trace output {path}: {e}; trace events discarded");
            Target::Discard
        }
    }
}

fn with_sink<R>(f: impl FnOnce(&mut Target) -> R) -> R {
    let mut guard = SINK.lock().unwrap();
    let sink = guard.get_or_insert_with(open_default);
    f(sink)
}

/// Redirect the sink to an in-memory buffer (tests). Replaces any
/// already-open sink.
pub fn set_memory_sink() {
    *SINK.lock().unwrap() = Some(Target::Memory(Vec::new()));
}

/// Take everything the in-memory sink captured so far. Empty when the
/// sink is not a memory sink.
pub fn take_memory() -> String {
    let mut guard = SINK.lock().unwrap();
    match guard.as_mut() {
        Some(Target::Memory(buf)) => String::from_utf8(std::mem::take(buf)).unwrap_or_default(),
        _ => String::new(),
    }
}

fn fmt_jsonl(out: &mut String, tid: u64, ev: &Event) {
    match ev {
        Event::Enter { name, t, step } => {
            let _ = write!(
                out,
                "{{\"ev\":\"b\",\"t\":{t},\"tid\":{tid},\"step\":{step},\"name\":\"{name}\"}}"
            );
        }
        Event::Exit { name, t } => {
            let _ = write!(
                out,
                "{{\"ev\":\"e\",\"t\":{t},\"tid\":{tid},\"name\":\"{name}\"}}"
            );
        }
        Event::Flow { ph, corr, t, step } => {
            let _ = write!(
                out,
                "{{\"ev\":\"f\",\"t\":{t},\"tid\":{tid},\"step\":{step},\"ph\":\"{}\",\"corr\":{corr}}}",
                ph.letter()
            );
        }
        Event::ExpertRows {
            pass,
            src,
            block,
            t,
            step,
            rows,
        } => {
            let _ = write!(
                out,
                "{{\"ev\":\"x\",\"t\":{t},\"tid\":{tid},\"step\":{step},\"name\":\"{pass}\",\"src\":\"{src}\",\"block\":{block},\"rows\":"
            );
            write_pairs(out, rows);
            out.push('}');
        }
    }
    out.push('\n');
}

pub(crate) fn write_events(tid: u64, events: &[Event]) {
    if events.is_empty() {
        return;
    }
    with_sink(|s| {
        let mut out = String::with_capacity(events.len() * 64);
        for ev in events {
            fmt_jsonl(&mut out, tid, ev);
        }
        s.write(out.as_bytes());
    });
}

/// Append a cumulative counter + histogram snapshot (pseudo-thread 0).
/// Snapshot and timestamp are both taken *inside* the sink lock: two
/// racing flushes (say an engine shutdown and a worker thread exiting)
/// would otherwise stamp their batches before serializing on the lock
/// and could write them in reverse timestamp order, breaking the
/// tid-0 monotonicity `trace_summary --check` enforces.
pub(crate) fn write_snapshots() {
    with_sink(|s| {
        let counters = crate::counters::counter_snapshot();
        let hists = crate::counters::histogram_snapshot();
        if counters.is_empty() && hists.is_empty() {
            return;
        }
        let t = crate::now_us();
        let mut out = String::new();
        for (name, value) in &counters {
            let _ = write!(out, "{{\"ev\":\"c\",\"t\":{t},\"tid\":0,\"name\":\"");
            escape_into(&mut out, name);
            let _ = writeln!(out, "\",\"value\":{value}}}");
        }
        for (name, total, buckets) in &hists {
            let _ = write!(out, "{{\"ev\":\"h\",\"t\":{t},\"tid\":0,\"name\":\"");
            escape_into(&mut out, name);
            let _ = write!(out, "\",\"total\":{total},\"buckets\":");
            write_pairs(&mut out, buckets);
            out.push_str("}\n");
        }
        s.write(out.as_bytes());
    });
}

/// Append one clock-offset sample for `worker` (pseudo-thread 0). The
/// timestamp is taken *inside* the sink lock so tid-0 records stay
/// monotone even when samples race a snapshot flush.
pub(crate) fn write_clock(worker: u64, offset_us: i64, rtt_us: u64) {
    with_sink(|s| {
        let t = crate::now_us();
        let line = format!(
            "{{\"ev\":\"k\",\"t\":{t},\"tid\":0,\"worker\":{worker},\"offset\":{offset_us},\"rtt\":{rtt_us}}}\n"
        );
        s.write(line.as_bytes());
    });
}

pub(crate) fn flush_writer() {
    with_sink(|s| s.flush());
}
