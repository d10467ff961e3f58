//! End-to-end tests for vela-obs: mode gating, counters, histograms,
//! span recording through the memory sink, the JSONL reader and the
//! structural validator.
//!
//! The trace mode and sink are process-global, so every test that
//! touches them serialises on one mutex and restores `Off` before
//! releasing it.

use std::sync::Mutex;

use vela_obs::reader::{parse_json, parse_line, validate, Json};
use vela_obs::{sink, Kind, Record, TraceMode};

static GLOBAL: Mutex<()> = Mutex::new(());

/// The span records of one kind (enter or exit) named `name`.
fn spans_named<'a>(records: &'a [Record], enter: bool, name: &str) -> Vec<&'a Record> {
    records
        .iter()
        .filter(|r| match &r.kind {
            Kind::Enter { name: n, .. } => enter && n == name,
            Kind::Exit { name: n } => !enter && n == name,
            _ => false,
        })
        .collect()
}

/// The `(total, buckets)` of every histogram record named `name`.
fn histograms_named<'a>(records: &'a [Record], name: &str) -> Vec<(u64, &'a [(u64, u64)])> {
    records
        .iter()
        .filter_map(|r| match &r.kind {
            Kind::Histogram {
                name: n,
                total,
                buckets,
            } if n == name => Some((*total, &buckets[..])),
            _ => None,
        })
        .collect()
}

fn lock() -> std::sync::MutexGuard<'static, ()> {
    GLOBAL.lock().unwrap_or_else(|e| e.into_inner())
}

#[test]
fn disabled_mode_records_nothing() {
    let _g = lock();
    vela_obs::set_mode(TraceMode::Off);
    assert!(!vela_obs::enabled());
    assert!(!vela_obs::tracing());
    let before = vela_obs::counter("test.disabled").get();
    static C: vela_obs::LazyCounter = vela_obs::LazyCounter::new("test.disabled");
    C.add(5);
    {
        let _s = vela_obs::span("test.disabled.span");
    }
    assert_eq!(vela_obs::counter("test.disabled").get(), before);
}

#[test]
fn counters_and_histograms_accumulate() {
    let _g = lock();
    vela_obs::set_mode(TraceMode::Counters);
    assert!(vela_obs::enabled());
    assert!(!vela_obs::tracing());

    let c = vela_obs::counter("test.counter");
    let start = c.get();
    static LC: vela_obs::LazyCounter = vela_obs::LazyCounter::new("test.counter");
    LC.add(3);
    LC.add(4);
    assert_eq!(c.get(), start + 7);
    let snap = vela_obs::counter_snapshot();
    assert_eq!(
        snap.iter().find(|(n, _)| n == "test.counter").map(|p| p.1),
        Some(start + 7)
    );

    let h = vela_obs::histogram("test.hist");
    h.record(0); // bucket lo 0
    h.record(1); // bucket lo 1
    h.record(5); // bucket lo 4
    h.record(5);
    let hsnap = vela_obs::histogram_snapshot();
    let (_, total, buckets) = hsnap.iter().find(|(n, _, _)| n == "test.hist").unwrap();
    assert_eq!(*total, 11);
    assert!(buckets.contains(&(0, 1)));
    assert!(buckets.contains(&(1, 1)));
    assert!(buckets.contains(&(4, 2)));

    vela_obs::set_mode(TraceMode::Off);
}

#[test]
fn spans_roundtrip_through_jsonl_and_validate() {
    let _g = lock();
    vela_obs::set_mode(TraceMode::Jsonl);
    sink::set_memory_sink();

    vela_obs::step_begin(7);
    {
        let _outer = vela_obs::span("test.outer");
        {
            let _inner = vela_obs::span("test.inner");
        }
        vela_obs::expert_rows("runtime", "fwd", 2, &[(0, 128), (3, 64)]);
    }
    static C: vela_obs::LazyCounter = vela_obs::LazyCounter::new("test.roundtrip");
    C.add(11);
    vela_obs::flush();
    let text = sink::take_memory();
    vela_obs::set_mode(TraceMode::Off);

    let events: Vec<_> = text
        .lines()
        .map(|l| parse_line(l).expect("schema-valid line"))
        .collect();
    let stats = validate(&events).expect("structurally valid trace");
    assert!(stats.spans >= 2);

    let enter = spans_named(&events, true, "test.inner");
    assert!(matches!(
        enter[..],
        [Record {
            kind: Kind::Enter { step: 7, .. },
            ..
        }]
    ));

    let rows = events
        .iter()
        .find_map(|e| match &e.kind {
            Kind::Rows {
                pass,
                src,
                block,
                rows,
                ..
            } => Some((pass, src, *block, rows)),
            _ => None,
        })
        .expect("expert rows");
    assert_eq!(
        rows,
        (
            &"fwd".into(),
            &"runtime".into(),
            2,
            &vec![(0, 128), (3, 64)]
        )
    );

    let counted = events
        .iter()
        .find_map(|e| match &e.kind {
            Kind::Counter { name, value } if name == "test.roundtrip" => Some(*value),
            _ => None,
        })
        .expect("counter snapshot event");
    assert!(counted >= 11);
}

/// `(count, total)` of the named histogram, if it has recorded anything.
fn histogram_of(name: &str) -> Option<(u64, u64)> {
    vela_obs::histogram_snapshot()
        .into_iter()
        .find(|(n, _, _)| n == name)
        .map(|(_, total, buckets)| (buckets.iter().map(|&(_, c)| c).sum(), total))
}

#[test]
fn span_closes_feed_a_histogram_in_every_enabled_mode() {
    let _g = lock();
    // Off: the guard is inert.
    vela_obs::set_mode(TraceMode::Off);
    {
        let _s = vela_obs::span("test.hist.off");
    }
    assert_eq!(histogram_of("test.hist.off"), None);

    // Counters: a histogram sample and no event; the flush writes the
    // snapshot and nothing else.
    vela_obs::set_mode(TraceMode::Counters);
    sink::set_memory_sink();
    {
        let _s = vela_obs::span("test.hist.counters");
        vela_obs::expert_rows("runtime", "fwd", 0, &[(1, 8)]);
        vela_obs::flow(vela_obs::FlowPhase::Start, vela_obs::corr::pack(3, 0, 0, 0));
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    vela_obs::counter("test.hist.counters.calls").add(1);
    let (count, total) = histogram_of("test.hist.counters").expect("counters-mode histogram");
    assert_eq!(count, 1);
    assert!(total >= 1000, "total is the span's µs: {total}");
    vela_obs::flush();
    let snapshot: Vec<_> = sink::take_memory()
        .lines()
        .map(|l| parse_line(l).expect("schema-valid line"))
        .collect();
    assert!(
        snapshot
            .iter()
            .all(|r| matches!(r.kind, Kind::Counter { .. } | Kind::Histogram { .. })),
        "a counters-mode flush writes only the snapshot: {snapshot:?}"
    );
    assert_eq!(
        histograms_named(&snapshot, "test.hist.counters"),
        [(total, &[(1u64 << total.ilog2(), 1u64)][..])]
    );
    assert!(snapshot.iter().any(|r| matches!(
        &r.kind,
        Kind::Counter { name, value: 1.. } if name == "test.hist.counters.calls"
    )));

    // Jsonl: both, from the same two stamps.
    vela_obs::set_mode(TraceMode::Jsonl);
    sink::set_memory_sink();
    {
        let _s = vela_obs::span("test.hist.jsonl");
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    vela_obs::flush();
    let text = sink::take_memory();
    vela_obs::set_mode(TraceMode::Off);

    let events: Vec<_> = text
        .lines()
        .map(|l| parse_line(l).expect("schema-valid line"))
        .collect();
    assert!(spans_named(&events, true, "test.hist.counters").is_empty());
    assert!(spans_named(&events, false, "test.hist.counters").is_empty());
    let (b, e) = (
        spans_named(&events, true, "test.hist.jsonl"),
        spans_named(&events, false, "test.hist.jsonl"),
    );
    assert_eq!((b.len(), e.len()), (1, 1));
    let h = histograms_named(&events, "test.hist.jsonl");
    assert_eq!(h.len(), 1, "one snapshot record per flush");
    assert_eq!(h[0].0, e[0].t - b[0].t, "total = exit − enter");
    assert_eq!(h[0].1.iter().map(|&(_, c)| c).sum::<u64>(), 1);
    assert_eq!(
        histograms_named(&events, "test.hist.counters")[0].0,
        total,
        "the counters-mode close is in the snapshot too"
    );
}

#[test]
fn spans_survive_worker_threads() {
    let _g = lock();
    vela_obs::set_mode(TraceMode::Jsonl);
    sink::set_memory_sink();

    let handles: Vec<_> = (0..3)
        .map(|i| {
            std::thread::spawn(move || {
                let _s = vela_obs::span("test.worker");
                std::hint::black_box(i)
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    vela_obs::flush();
    let text = sink::take_memory();
    vela_obs::set_mode(TraceMode::Off);

    let events: Vec<_> = text
        .lines()
        .map(|l| parse_line(l).expect("schema-valid line"))
        .collect();
    let stats = validate(&events).expect("valid trace");
    assert_eq!(spans_named(&events, false, "test.worker").len(), 3);
    assert!(stats.threads >= 3);
}

#[test]
fn validator_rejects_malformed_traces() {
    // Pure reader tests: no global state touched.
    let ok = |l: &str| parse_line(l).unwrap();

    // Backwards timestamp on one thread.
    let events = vec![
        ok(r#"{"ev":"b","t":10,"tid":1,"step":0,"name":"a"}"#),
        ok(r#"{"ev":"e","t":5,"tid":1,"name":"a"}"#),
    ];
    assert!(validate(&events).unwrap_err().contains("backwards"));

    // Exit without matching enter.
    let events = vec![ok(r#"{"ev":"e","t":5,"tid":1,"name":"a"}"#)];
    assert!(validate(&events).unwrap_err().contains("no open span"));

    // Mismatched nesting.
    let events = vec![
        ok(r#"{"ev":"b","t":1,"tid":1,"step":0,"name":"a"}"#),
        ok(r#"{"ev":"b","t":2,"tid":1,"step":0,"name":"b"}"#),
        ok(r#"{"ev":"e","t":3,"tid":1,"name":"a"}"#),
    ];
    assert!(validate(&events).unwrap_err().contains("does not match"));

    // Unclosed span at end of stream.
    let events = vec![ok(r#"{"ev":"b","t":1,"tid":1,"step":0,"name":"a"}"#)];
    assert!(validate(&events).unwrap_err().contains("still open"));

    // Per-thread monotonicity: interleaved threads may disagree globally.
    let events = vec![
        ok(r#"{"ev":"b","t":100,"tid":1,"step":0,"name":"a"}"#),
        ok(r#"{"ev":"b","t":1,"tid":2,"step":0,"name":"b"}"#),
        ok(r#"{"ev":"e","t":2,"tid":2,"name":"b"}"#),
        ok(r#"{"ev":"e","t":101,"tid":1,"name":"a"}"#),
    ];
    let stats = validate(&events).unwrap();
    assert_eq!(stats.spans, 2);
    assert_eq!(stats.threads, 2);

    // Schema errors surface at parse time.
    let rejected = |line: &str| parse_line(line).unwrap_err();
    let b_without_step = rejected(r#"{"ev":"b","t":1,"tid":1,"name":"a"}"#);
    assert_eq!(b_without_step, r#"span enter missing "step""#);
    let c_without_value = rejected(r#"{"ev":"c","t":1,"tid":0,"name":"a"}"#);
    assert_eq!(c_without_value, r#"counter event missing "value""#);
    let unknown_kind = rejected(r#"{"ev":"q","t":1,"tid":0,"name":"a"}"#);
    assert_eq!(unknown_kind, r#"unknown event kind "q""#);
    assert!(parse_line("not json").is_err());
}

#[test]
fn json_parser_handles_nesting_and_escapes() {
    let v = parse_json(r#"{"a":[1,2,{"b":"x\ny"}],"c":true,"d":null,"e":-1.5e2}"#).unwrap();
    assert_eq!(
        v.get("a").unwrap(),
        &Json::Arr(vec![
            Json::Num(1.0),
            Json::Num(2.0),
            Json::Obj(vec![("b".to_string(), Json::Str("x\ny".to_string()))]),
        ])
    );
    assert_eq!(v.get("c"), Some(&Json::Bool(true)));
    assert_eq!(v.get("d"), Some(&Json::Null));
    assert_eq!(v.get("e"), Some(&Json::Num(-150.0)));
    assert!(parse_json(r#"{"a":}"#).is_err());
    assert!(parse_json(r#"[1,2"#).is_err());
    assert!(parse_json(r#"{} extra"#).is_err());
}

#[test]
fn logger_levels_gate_output() {
    use vela_obs::logger::{log_enabled, set_log_level};
    use vela_obs::Level;
    let _g = lock();
    set_log_level(Level::Warn);
    assert!(log_enabled(Level::Error));
    assert!(log_enabled(Level::Warn));
    assert!(!log_enabled(Level::Info));
    set_log_level(Level::Debug);
    assert!(log_enabled(Level::Debug));
    set_log_level(Level::Warn);
}
