//! Span events, thread-local buffers and the cross-thread drain
//! registry, and the per-name duration histograms span closes feed.
//!
//! Every recording thread owns an `Arc<Mutex<Vec<Event>>>` buffer that
//! is also registered in a process-global list, so [`crate::flush`]
//! can drain threads that never exit (the `vela-tensor` pool workers
//! park forever — a TLS-destructor-only design would strand their
//! events). The buffer mutex is uncontended in steady state: only the
//! owning thread pushes, and drains swap the whole vector out.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use crate::Histogram;

/// Position of a flow record within its dispatch → worker-compute →
/// result chain. The letters mirror the Chrome `trace_event` flow
/// phases so a merged trace renders arrows between process lanes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FlowPhase {
    /// Producer end: the master serialized a dispatch frame.
    Start,
    /// Intermediate hop: the worker entered / left the serve for the
    /// frame (emitted twice, so the pair bounds worker compute).
    Step,
    /// Consumer end: the master drained the matching result frame.
    Finish,
}

impl FlowPhase {
    pub(crate) fn letter(self) -> &'static str {
        match self {
            FlowPhase::Start => "s",
            FlowPhase::Step => "t",
            FlowPhase::Finish => "f",
        }
    }
}

/// An in-memory trace event; serialisation happens at drain time.
pub(crate) enum Event {
    Enter {
        name: &'static str,
        t: u64,
        step: u64,
    },
    Exit {
        name: &'static str,
        t: u64,
    },
    Flow {
        ph: FlowPhase,
        corr: u64,
        t: u64,
        step: u64,
    },
    ExpertRows {
        /// `"fwd"` or `"bwd"`.
        pass: &'static str,
        /// Which layer observed the rows: `"runtime"` or `"model"`.
        src: &'static str,
        block: u32,
        t: u64,
        step: u64,
        /// `(expert id, rows routed to it)` pairs.
        rows: Vec<(u32, u64)>,
    },
}

/// Buffered events per thread before an automatic drain.
const FLUSH_THRESHOLD: usize = 8192;

type SharedBuf = Arc<Mutex<Vec<Event>>>;

fn registry() -> &'static Mutex<Vec<(u64, SharedBuf)>> {
    static R: OnceLock<Mutex<Vec<(u64, SharedBuf)>>> = OnceLock::new();
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
        registry().lock().unwrap().push((tid, buf.clone()));
        Local { tid, buf }
    };
}

pub(crate) fn record(ev: Event) {
    LOCAL.with(|l| {
        let mut buf = l.buf.lock().unwrap();
        buf.push(ev);
        if buf.len() >= FLUSH_THRESHOLD {
            let events = std::mem::take(&mut *buf);
            drop(buf);
            crate::sink::write_events(l.tid, &events);
        }
    });
}

/// Drain every registered thread buffer into the sink.
pub(crate) fn drain_all() {
    let bufs: Vec<(u64, SharedBuf)> = registry().lock().unwrap().clone();
    for (tid, buf) in bufs {
        let events = std::mem::take(&mut *buf.lock().unwrap());
        if !events.is_empty() {
            crate::sink::write_events(tid, &events);
        }
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
/// enter and exit also become `"b"`/`"e"` events carrying those same two
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
        record(Event::Enter {
            name,
            t,
            step: crate::current_step(),
        });
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
            record(Event::Exit { name: self.name, t });
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
    record(Event::Flow {
        ph,
        corr,
        t: crate::now_us(),
        step: crate::current_step(),
    });
}

/// Record per-expert routed-row counts for one (step, block, pass)
/// observation. `src` distinguishes the runtime's dispatch view from
/// the model's routing view so readers never double-count.
pub fn expert_rows(src: &'static str, pass: &'static str, block: usize, rows: &[(usize, usize)]) {
    if !crate::tracing() || rows.is_empty() {
        return;
    }
    record(Event::ExpertRows {
        pass,
        src,
        block: block as u32,
        t: crate::now_us(),
        step: crate::current_step(),
        rows: rows.iter().map(|&(e, r)| (e as u32, r as u64)).collect(),
    });
}
