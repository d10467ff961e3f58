//! Std-only structured tracing, counters and per-step attribution.
//!
//! The crate is the workspace's observability substrate: every other
//! crate may depend on it (it depends on nothing), and every recording
//! call collapses to a single relaxed atomic load + branch when tracing
//! is disabled, so instrumented hot paths stay benchmark-neutral.
//!
//! ## Model
//!
//! * **Spans** ([`span`]) are the one timing instrument. Whenever
//!   anything is recorded (`counters` or `jsonl`), a span's close adds
//!   its `exit − enter` µs to the histogram named after the span, so the
//!   trace snapshot carries every span's count and total. Under `jsonl` the same two stamps are also written as
//!   enter/exit events tagged with the current *logical step* (a
//!   process-global counter advanced by [`step_begin`]). Records land in
//!   thread-local buffers that are drained to the process-global sink
//!   either when a buffer fills or when [`flush`] is called.
//! * **Counters / histograms** ([`counter`], [`histogram`]) are named
//!   process-global atomics; recording is a relaxed `fetch_add`, and a
//!   histogram keeps the running total of what it recorded beside its
//!   buckets. Snapshots are emitted into the trace at every [`flush`] as
//!   cumulative values (readers keep the last value per name).
//! * **Expert-row events** ([`expert_rows`]) attribute per-expert token
//!   counts to a (step, block, pass) triple — the raw material for
//!   re-deriving the paper's Fig. 3 locality profile from a trace.
//!
//! ## Knobs
//!
//! * `VELA_TRACE` — `0`/unset: off; `counters`: counters and histograms
//!   only, written as snapshot records at every [`flush`]; `jsonl`/`1`:
//!   the full JSONL event stream. Any other value warns and turns tracing
//!   off.
//! * `VELA_TRACE_OUT` — output path (default `vela-trace.jsonl`).
//! * `VELA_LOG` — stderr logger level: `error`, `warn` (default),
//!   `info`, `debug`.
//!
//! ## Trace schema (JSONL)
//!
//! One [`Record`] per line, from the thread buffer that records it to the
//! reader that decodes it: [`reader::to_jsonl`] writes every line, live or
//! merged, and [`reader::parse_line`] is the one parser. `t` is integer
//! microseconds since process start, `tid` a small per-thread integer
//! (0 = snapshot pseudo-thread), and `"ev"` names the [`Kind`]:
//!
//! ```text
//! {"ev":"b","t":12,"tid":1,"step":3,"name":"runtime.step"}      span enter
//! {"ev":"e","t":90,"tid":1,"name":"runtime.step"}               span exit
//! {"ev":"c","t":99,"tid":0,"name":"tensor.workspace.hit","value":42}
//! {"ev":"h","t":99,"tid":0,"name":"model.moe.group_rows","total":208,"buckets":[[16,7],[32,3]]}
//! {"ev":"x","t":50,"tid":1,"step":3,"name":"fwd","src":"runtime","block":0,"rows":[[0,128],[3,64]]}
//! {"ev":"f","t":60,"tid":1,"step":3,"ph":"s","corr":412317122560}   flow endpoint
//! {"ev":"k","t":70,"tid":0,"worker":1,"offset":-1423,"rtt":88}      clock sample
//! ```
//!
//! `"f"` records are the endpoints of one dispatch → worker-compute →
//! result chain, keyed by the [`corr`] correlation key: the master
//! emits `ph:"s"` at serialize and `ph:"f"` at result drain, the
//! worker emits `ph:"t"` twice around the serve. `"k"` records are
//! NTP-style clock samples (`offset` = worker clock − master clock,
//! signed; `rtt` the round trip that measured it) that let
//! `trace_summary merge` rebase a worker trace onto the master
//! timeline. An `"h"` record's `total` is the sum of the values it
//! counted; for a span histogram that is the span's total µs, equal to
//! Σ(exit − enter) over the span's `"b"`/`"e"` pairs in the same
//! process. A merged trace additionally carries a `"pid"` field on
//! every worker record (`i + 1` = worker `i`); the field is omitted
//! when 0, the master lane and every unmerged trace.
//!
//! The Chrome `trace_event` view (`chrome://tracing` / Perfetto) is
//! rendered from a finished trace by [`reader::to_chrome`], which
//! `trace_summary merge` writes next to the merged JSONL.

pub mod counters;
pub mod logger;
pub mod reader;
pub mod sink;
pub mod span;

use std::borrow::Cow;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

pub use counters::{
    counter, counter_snapshot, histogram, histogram_snapshot, reset_counters, Counter, Histogram,
    HistogramEntry, LazyCounter, LazyHistogram,
};
pub use logger::Level;
pub use span::{expert_rows, flow, span, FlowPhase, SpanGuard};

/// One trace line: the thread buffers' element, the sink's input,
/// [`reader::parse_line`]'s output and every reader's input.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// Microseconds since the recording process's trace epoch (a merge
    /// rebases worker records onto the master's).
    pub t: u64,
    /// Recording thread; 0 for the snapshot pseudo-thread.
    pub tid: u64,
    /// Process lane of a merged trace: 0 = master, `i + 1` = worker `i`.
    pub pid: u64,
    pub kind: Kind,
}

/// What a [`Record`] says: one variant per schema kind (its `"ev"` letter
/// in brackets), each carrying exactly the fields that kind requires.
/// Live span, flow and row records borrow their `&'static` names; decoded
/// records own theirs.
#[derive(Debug, Clone, PartialEq)]
pub enum Kind {
    /// `"b"`: a span opened during logical step `step`.
    Enter { name: Cow<'static, str>, step: u64 },
    /// `"e"`: the lane's innermost open span closed.
    Exit { name: Cow<'static, str> },
    /// `"c"`: a counter's cumulative value.
    Counter { name: Cow<'static, str>, value: u64 },
    /// `"h"`: a histogram's cumulative total and its `(bucket lower
    /// bound, count)` pairs.
    Histogram {
        name: Cow<'static, str>,
        total: u64,
        buckets: Vec<(u64, u64)>,
    },
    /// `"x"`: `(expert, rows)` routed in one `(step, block, pass)`, as
    /// the `src` layer (`"runtime"`, `"model"`, `"workerN"`) saw them.
    /// The pass (`"fwd"`/`"bwd"`) is written as the line's `"name"`.
    Rows {
        pass: Cow<'static, str>,
        src: Cow<'static, str>,
        block: u64,
        step: u64,
        rows: Vec<(u64, u64)>,
    },
    /// `"f"`: one endpoint of the dispatch → worker compute → result chain
    /// keyed `corr` (see [`corr`]).
    Flow { ph: FlowPhase, corr: u64, step: u64 },
    /// `"k"`: a clock sample: worker clock − master clock (µs, signed)
    /// and the round trip of the probe that measured it.
    Clock { worker: u64, offset: i64, rtt: u64 },
}

/// Compact correlation key identifying one dispatch frame of one
/// exchange: `(step, worker, block, pass)` packed into a `u64`.
///
/// The layout is part of the trace schema (readers decode it without
/// the runtime):
///
/// ```text
/// bits 63..38   step   (mod 2^26)
/// bits 37..33   worker (mod 2^5)
/// bits 32..17   block  (mod 2^16)
/// bit  16       pass   (0 = forward, 1 = backward)
/// bits 15..0    zero   (the chunk index of the retired microbatch ring;
///                       kept so traces written before and after parse alike)
/// ```
///
/// Within one run the tuple is unique per in-flight frame: the exchange
/// sends exactly one dispatch per `(worker, block, pass)` per step, and
/// the step component keeps keys distinct for the lifetime of any
/// realistic trace.
pub mod corr {
    /// Pack a correlation key. `pass` is 0 for forward, 1 for backward.
    #[inline]
    pub fn pack(step: u64, worker: u64, block: u64, pass: u64) -> u64 {
        ((step & 0x3ff_ffff) << 38)
            | ((worker & 0x1f) << 33)
            | ((block & 0xffff) << 17)
            | ((pass & 1) << 16)
    }

    /// The step component of a packed key.
    #[inline]
    pub fn step(corr: u64) -> u64 {
        (corr >> 38) & 0x3ff_ffff
    }

    /// The worker component of a packed key.
    #[inline]
    pub fn worker(corr: u64) -> u64 {
        (corr >> 33) & 0x1f
    }

    /// The pass component of a packed key (0 = forward, 1 = backward).
    #[inline]
    pub fn pass(corr: u64) -> u64 {
        (corr >> 16) & 1
    }
}

/// What the process records, ordered by increasing capability.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
#[repr(u8)]
pub enum TraceMode {
    /// Nothing is recorded; every probe is a relaxed load + branch.
    Off = 1,
    /// Counters and histograms (span durations included) accumulate, and
    /// [`flush`] writes their snapshot to the trace — no span, row, flow or
    /// clock event. `trace_summary` reads such a file like any other.
    Counters = 2,
    /// Counters plus span/row events streamed as JSONL.
    Jsonl = 3,
}

/// 0 = not yet initialised from the environment.
static MODE: AtomicU8 = AtomicU8::new(0);

fn init_mode_from_env() -> TraceMode {
    match std::env::var("VELA_TRACE").ok().as_deref() {
        None | Some("") | Some("0") | Some("off") => TraceMode::Off,
        Some("counters") => TraceMode::Counters,
        Some("jsonl") | Some("1") => TraceMode::Jsonl,
        Some(other) => {
            logger::log(
                Level::Warn,
                format_args!("unknown VELA_TRACE value {other:?}; tracing disabled"),
            );
            TraceMode::Off
        }
    }
}

#[inline]
fn mode_raw() -> u8 {
    let m = MODE.load(Ordering::Relaxed);
    if m != 0 {
        return m;
    }
    // Racing initialisers compute the same value from the same env.
    let m = init_mode_from_env() as u8;
    MODE.store(m, Ordering::Relaxed);
    m
}

/// Current mode (initialising from `VELA_TRACE` on first call).
pub fn mode() -> TraceMode {
    match mode_raw() {
        2 => TraceMode::Counters,
        3 => TraceMode::Jsonl,
        _ => TraceMode::Off,
    }
}

/// Programmatic override of the env-selected mode (used by tests and
/// embedding harnesses). Takes effect for all subsequent probes.
pub fn set_mode(m: TraceMode) {
    MODE.store(m as u8, Ordering::Relaxed);
}

/// Are counters (and anything stronger) being recorded? This is the
/// disabled-fast-path gate: a relaxed load plus one compare.
#[inline]
pub fn enabled() -> bool {
    mode_raw() >= TraceMode::Counters as u8
}

/// Are span/row *events* being recorded (Jsonl mode)?
#[inline]
pub fn tracing() -> bool {
    mode_raw() >= TraceMode::Jsonl as u8
}

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Microseconds since the process trace epoch (first call wins).
#[inline]
pub fn now_us() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_micros() as u64
}

static STEP: AtomicU64 = AtomicU64::new(0);

/// Advance the process-global logical step clock. Training loops call
/// this once per optimisation step; spans opened afterwards are tagged
/// with the new step.
#[inline]
pub fn step_begin(step: u64) {
    STEP.store(step, Ordering::Relaxed);
}

/// The logical step spans opened now will be attributed to.
#[inline]
pub fn current_step() -> u64 {
    STEP.load(Ordering::Relaxed)
}

static NEXT_STEP: AtomicU64 = AtomicU64::new(0);

/// Allocate the next process-unique trace step and make it current.
///
/// Distributed engines use this instead of [`step_begin`] on the master
/// side: several engine launches in one process each restart their local
/// step counter at 1, and were they to tag traces with it, correlation
/// keys from different runs would collide in one trace file. The master
/// broadcasts the returned value in `StepBegin` so workers tag the same
/// step via [`step_begin`].
#[inline]
pub fn next_trace_step() -> u64 {
    let step = NEXT_STEP.fetch_add(1, Ordering::Relaxed) + 1;
    STEP.store(step, Ordering::Relaxed);
    step
}

/// Record one NTP-style clock sample for `worker`: `offset_us` is the
/// worker clock minus the master clock (signed), `rtt_us` the round
/// trip of the probe that measured it. Written directly to the sink as
/// a [`Kind::Clock`] record; `trace_summary merge` uses the minimum-RTT sample
/// per worker to rebase that worker's timestamps.
pub fn clock_sample(worker: usize, offset_us: i64, rtt_us: u64) {
    if !tracing() {
        return;
    }
    sink::write_clock(worker as u64, offset_us, rtt_us);
}

/// Drain every thread's event buffer to the sink (under `jsonl`), append a
/// cumulative counter/histogram snapshot, and flush the underlying writer.
/// Cheap no-op when nothing is recorded. Engines call this at shutdown;
/// call it at the end of any program that traces.
pub fn flush() {
    if !enabled() {
        return;
    }
    if tracing() {
        span::drain_all();
    }
    sink::write_snapshots();
    sink::flush_writer();
}
