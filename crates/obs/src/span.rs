//! The live probes (spans, flow endpoints, expert rows), the thread-local
//! [`Record`] buffers they append to and the cross-thread drain registry,
//! and the per-name duration histograms span closes feed.
//!
//! Every recording thread owns an `Arc<Mutex<Vec<Record>>>` buffer that
//! is also registered in a process-global list, so [`crate::flush`]
//! can drain threads that never exit (the `vela-tensor` pool workers
//! park forever — a TLS-destructor-only design would strand their
//! records). The buffer mutex is uncontended in steady state: only the
//! owning thread pushes, and drains swap the whole vector out. A span or
//! flow record borrows its `&'static` name, so recording one allocates
//! nothing beyond the buffer's growth; serialisation happens at drain.

use std::borrow::Cow;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use crate::{Histogram, Kind, Record};

/// Position of a flow record within its dispatch → worker-compute →
/// result chain. The letters mirror the Chrome `trace_event` flow
/// phases so a merged trace renders arrows between process lanes. The
/// discriminants are chain order: `reader::validate` indexes by them.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FlowPhase {
    /// Producer end: the master serialized a dispatch frame.
    Start = 0,
    /// Intermediate hop: the worker entered / left the serve for the
    /// frame (emitted twice, so the pair bounds worker compute).
    Step = 1,
    /// Consumer end: the master drained the matching result frame.
    Finish = 2,
}

impl FlowPhase {
    pub(crate) fn letter(self) -> &'static str {
        match self {
            FlowPhase::Start => "s",
            FlowPhase::Step => "t",
            FlowPhase::Finish => "f",
        }
    }

    pub(crate) fn from_letter(letter: &str) -> Option<Self> {
        match letter {
            "s" => Some(FlowPhase::Start),
            "t" => Some(FlowPhase::Step),
            "f" => Some(FlowPhase::Finish),
            _ => None,
        }
    }
}

/// Buffered records per thread before an automatic drain: as many as fit
/// in 640 KiB, which bounds what one recording thread holds.
const FLUSH_THRESHOLD: usize = (640 << 10) / std::mem::size_of::<Record>();

type SharedBuf = Arc<Mutex<Vec<Record>>>;

fn registry() -> &'static Mutex<Vec<SharedBuf>> {
    static R: OnceLock<Mutex<Vec<SharedBuf>>> = OnceLock::new();
    R.get_or_init(|| Mutex::new(Vec::new()))
}

static NEXT_TID: AtomicU64 = AtomicU64::new(1);

struct Local {
    tid: u64,
    buf: SharedBuf,
}

thread_local! {
    static LOCAL: Local = {
        let tid = NEXT_TID.fetch_add(1, Ordering::Relaxed);
        let buf: SharedBuf = Arc::new(Mutex::new(Vec::new()));
        registry().lock().unwrap().push(buf.clone());
        Local { tid, buf }
    };
}

fn record(t: u64, kind: Kind) {
    LOCAL.with(|l| {
        let mut buf = l.buf.lock().unwrap();
        buf.push(Record {
            t,
            tid: l.tid,
            pid: 0,
            kind,
        });
        if buf.len() >= FLUSH_THRESHOLD {
            let records = std::mem::take(&mut *buf);
            drop(buf);
            crate::sink::write_records(&records);
        }
    });
}

/// Drain every registered thread buffer into the sink.
pub(crate) fn drain_all() {
    let bufs: Vec<SharedBuf> = registry().lock().unwrap().clone();
    for buf in bufs {
        let records = std::mem::take(&mut *buf.lock().unwrap());
        crate::sink::write_records(&records);
    }
}

thread_local! {
    /// This thread's span histogram handles, keyed by the name's address:
    /// each name takes the registry mutex once per thread, so a close on a
    /// pool thread never contends on it.
    static SPAN_HISTOGRAMS: RefCell<Vec<(&'static str, Histogram)>> =
        const { RefCell::new(Vec::new()) };
}

fn span_histogram(name: &'static str) -> Histogram {
    SPAN_HISTOGRAMS.with(|cache| {
        let mut cache = cache.borrow_mut();
        if let Some(&(_, h)) = cache.iter().find(|(n, _)| std::ptr::eq(*n, name)) {
            return h;
        }
        let h = crate::histogram(name);
        cache.push((name, h));
        h
    })
}

/// RAII guard closing the span on drop. Inert when the span was opened
/// while observability was off.
pub struct SpanGuard {
    name: &'static str,
    /// The enter stamp, µs; `None` when the span was opened disabled.
    enter: Option<u64>,
    /// The enter event was written, so the exit must be too.
    traced: bool,
}

/// Open a named span attributed to the current logical step. When
/// observability is off this is one relaxed load and returns an inert
/// guard. Otherwise the close records `exit − enter` µs into the
/// histogram named after the span, and under [`crate::tracing`] the
/// enter and exit also become `"b"`/`"e"` records carrying those same two
/// stamps.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    if !crate::enabled() {
        return SpanGuard {
            name,
            enter: None,
            traced: false,
        };
    }
    let t = crate::now_us();
    let traced = crate::tracing();
    if traced {
        record(
            t,
            Kind::Enter {
                name: Cow::Borrowed(name),
                step: crate::current_step(),
            },
        );
    }
    SpanGuard {
        name,
        enter: Some(t),
        traced,
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(enter) = self.enter else { return };
        let t = crate::now_us();
        span_histogram(self.name).record(t - enter);
        if self.traced {
            record(
                t,
                Kind::Exit {
                    name: Cow::Borrowed(self.name),
                },
            );
        }
    }
}

/// Record one end of a cross-process flow identified by its correlation
/// key (see [`crate::corr`]). The master emits [`FlowPhase::Start`] when
/// it serializes a dispatch frame and [`FlowPhase::Finish`] when it
/// drains the matching result; the worker emits [`FlowPhase::Step`]
/// twice — on entering and leaving the serve — so the pair bounds the
/// worker compute for that frame.
#[inline]
pub fn flow(ph: FlowPhase, corr: u64) {
    if !crate::tracing() {
        return;
    }
    record(
        crate::now_us(),
        Kind::Flow {
            ph,
            corr,
            step: crate::current_step(),
        },
    );
}

/// Record per-expert routed-row counts for one (step, block, pass)
/// observation. `src` distinguishes the runtime's dispatch view from
/// the model's routing view so readers never double-count.
pub fn expert_rows(src: &'static str, pass: &'static str, block: usize, rows: &[(usize, usize)]) {
    if !crate::tracing() || rows.is_empty() {
        return;
    }
    record(
        crate::now_us(),
        Kind::Rows {
            pass: Cow::Borrowed(pass),
            src: Cow::Borrowed(src),
            block: block as u64,
            step: crate::current_step(),
            rows: rows.iter().map(|&(e, r)| (e as u64, r as u64)).collect(),
        },
    );
}
