//! The process-global trace sink: writes [`Record`]s as JSONL, each line
//! through the one writer [`crate::reader::to_jsonl`] uses, into a file
//! (or an in-memory buffer for tests). Drained thread buffers arrive
//! whole; the snapshot and clock records of pseudo-thread 0 are built and
//! stamped here, inside the sink lock. Write errors are swallowed after
//! downgrading the sink to discard — observability must never take the
//! workload down.

use std::io::Write as _;
use std::sync::Mutex;

use crate::reader::write_jsonl;
use crate::{Kind, Record};

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

fn write_lines(s: &mut Target, records: &[Record]) {
    let mut out = String::with_capacity(records.len() * 64);
    for record in records {
        write_jsonl(&mut out, record);
        out.push('\n');
    }
    s.write(out.as_bytes());
}

pub(crate) fn write_records(records: &[Record]) {
    if !records.is_empty() {
        with_sink(|s| write_lines(s, records));
    }
}

/// Appends pseudo-thread-0 records, built by `kinds` and stamped *inside*
/// the sink lock: two racing writers (say an engine shutdown's flush and
/// a clock sample) would otherwise stamp their records before serializing
/// on the lock and could write them in reverse timestamp order, breaking
/// the tid-0 monotonicity `trace_summary --check` enforces.
fn write_stamped(kinds: impl FnOnce() -> Vec<Kind>) {
    with_sink(|s| {
        let kinds = kinds();
        let t = crate::now_us();
        let records: Vec<Record> = kinds
            .into_iter()
            .map(|kind| Record {
                t,
                tid: 0,
                pid: 0,
                kind,
            })
            .collect();
        write_lines(s, &records);
    });
}

/// Appends a cumulative counter + histogram snapshot.
pub(crate) fn write_snapshots() {
    write_stamped(|| {
        let counters = crate::counters::counter_snapshot().into_iter();
        let hists = crate::counters::histogram_snapshot().into_iter();
        counters
            .map(|(name, value)| Kind::Counter {
                name: name.into(),
                value,
            })
            .chain(hists.map(|(name, total, buckets)| Kind::Histogram {
                name: name.into(),
                total,
                buckets,
            }))
            .collect()
    });
}

/// Appends one clock-offset sample for `worker`.
pub(crate) fn write_clock(worker: u64, offset: i64, rtt: u64) {
    write_stamped(|| {
        vec![Kind::Clock {
            worker,
            offset,
            rtt,
        }]
    });
}

pub(crate) fn flush_writer() {
    with_sink(|s| s.flush());
}
