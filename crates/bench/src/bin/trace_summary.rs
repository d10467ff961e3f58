//! Summarises a vela JSONL trace (`VELA_TRACE=jsonl`).
//!
//! Reads the trace written by `VELA_TRACE_OUT` and prints:
//!
//! * per-span totals (count, total time, mean) and a top-N *self-time*
//!   table (time in a span minus time in its children) — the per-step
//!   attribution the paper's breakdowns are built from;
//! * per-expert token counts per MoE block, re-deriving the Fig. 3
//!   locality heat rows from the `"x"` (expert-rows) events;
//! * final counter values and histogram snapshots (every span is also a
//!   histogram of its durations, with its count and total µs).
//!
//! With `--check` it instead validates the trace — schema-valid lines,
//! per-lane monotone timestamps, balanced enter/exit, complete dispatch →
//! compute → result flow chains, the reconciliation of the two views of
//! every span (per process lane and span name, the last histogram
//! snapshot's count and total equal the closed enter/exit pairs and
//! their summed durations, exactly), exchange spans
//! (`reader::EXCHANGE_SPANS`) if and only if `runtime.pipeline.serialize`
//! spans, and (on merged distributed traces) ≥90% attribution coverage of
//! exchange wall time — exiting non-zero on any violation (used by
//! `scripts/verify.sh`).
//!
//! With `merge` it joins a process-mode run's master trace with its
//! `FILE.worker{i}` siblings — looked up by the worker indices of the
//! master's clock samples, since the worker the master serves on its own
//! thread writes none — into one timeline: worker timestamps are
//! rebased onto the master clock using the minimum-RTT offset samples of
//! the master's clock probes, every record gains a process lane (`pid`),
//! and the result is written both as mergeable JSONL (`FILE.merged`) and
//! as a Chrome trace (`FILE.merged.json`) whose flow arrows connect each
//! dispatch to its worker compute span and result. A single-process
//! trace (no siblings) merges as the master lane alone, which is how to
//! get its Chrome view. A per-step phase attribution report (serialize /
//! wire / worker compute / stall / combine, per-worker busy time,
//! straggler index) is printed after the merge.
//!
//! Usage: `trace_summary [--check | merge] [--top N] FILE`

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{BufRead, BufReader};
use std::process::ExitCode;

use vela_obs::reader::{
    attribute, clock_table, merge_traces, parse_line, reconcile_spans, to_chrome, to_jsonl,
    validate, Attribution, EXCHANGE_SPANS,
};
use vela_obs::{Kind, Record};

fn usage() -> ExitCode {
    eprintln!("usage: trace_summary [--check | merge] [--top N] FILE");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut check = false;
    let mut merge = false;
    let mut top = 10usize;
    let mut file: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--check" => check = true,
            "merge" if file.is_none() => merge = true,
            "--top" => match args.next().and_then(|n| n.parse().ok()) {
                Some(n) => top = n,
                None => return usage(),
            },
            other if file.is_none() && !other.starts_with('-') => file = Some(arg),
            _ => return usage(),
        }
    }
    let Some(path) = file else { return usage() };
    if check && merge {
        return usage();
    }
    // Every failure ends here: one message on stderr, a non-zero exit.
    let failed = |e: String| format!("trace_summary: {e}");
    let run = match load_trace(&path) {
        Ok(events) if merge => run_merge(&path, events).map_err(failed),
        Ok(events) if check => run_check(&events),
        Ok(events) => {
            summarize(&events, top);
            Ok(())
        }
        Err(e) => Err(failed(e)),
    };
    match run {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

fn load_trace(path: &str) -> Result<Vec<Record>, String> {
    let f = File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    let mut events = Vec::new();
    for (lineno, line) in BufReader::new(f).lines().enumerate() {
        let line = line.map_err(|e| format!("read error at {path}:{}: {e}", lineno + 1))?;
        if line.trim().is_empty() {
            continue;
        }
        events.push(parse_line(&line).map_err(|e| format!("{path}:{}: {e}", lineno + 1))?);
    }
    Ok(events)
}

fn run_check(events: &[Record]) -> Result<(), String> {
    let invalid = |e: String| format!("trace INVALID: {e}");
    let stats = validate(events).map_err(invalid)?;
    let reconciled = check_pipeline_instrumentation(events)
        .and_then(|()| check_replica_shares(events))
        .and_then(|()| reconcile_spans(events))
        .map_err(invalid)?;
    // A merged distributed trace (multiple process lanes, flow-correlated
    // exchanges) must attribute ≥90% of the exchange wall time to the
    // serialize/inflight/combine phases; less means the pipeline
    // instrumentation lost track of where a step's time went.
    let distributed = events.iter().any(|ev| ev.pid != 0);
    if distributed && stats.flows > 0 {
        let attr = attribute(events);
        if attr.exchange_us > 0 && attr.coverage() < 0.9 {
            return Err(invalid(format!(
                "attribution covers only {:.1}% of exchange wall time (< 90%)",
                attr.coverage() * 100.0
            )));
        }
    }
    println!(
        "trace OK: {} events, {} spans, {} flows, {} threads, {:.3} ms span of wall time; \
         {reconciled} span histograms reconcile with their enter/exit pairs",
        stats.events,
        stats.spans,
        stats.flows,
        stats.threads,
        stats.max_t as f64 / 1e3
    );
    Ok(())
}

fn run_merge(path: &str, master: Vec<Record>) -> Result<(), String> {
    // The master probes every worker's clock, so its clock table names the
    // workers; only those in another process wrote a sibling (the one the
    // master serves itself, and thread workers, did not). A sibling the
    // table misses stays out, and its half of every flow fails `--check`.
    let clocks = clock_table(&master);
    let mut workers: Vec<(u64, Vec<Record>)> = Vec::new();
    for &w in clocks.keys() {
        let wpath = format!("{path}.worker{w}");
        if !std::path::Path::new(&wpath).exists() {
            continue;
        }
        workers.push((w, load_trace(&wpath)?));
    }
    let n_workers = workers.len();
    let merged = merge_traces(master, workers)?;
    let out_jsonl = format!("{path}.merged");
    let out_chrome = format!("{path}.merged.json");
    write_merged(&out_jsonl, &out_chrome, &merged)?;
    println!(
        "merged 1 master + {n_workers} worker traces: {} events",
        merged.len()
    );
    for (w, (offset, rtt)) in &clocks {
        println!("  worker {w}: clock offset {offset:+} µs (min rtt {rtt} µs)");
    }
    println!("wrote {out_jsonl} (JSONL) and {out_chrome} (Chrome trace)");
    print_attribution(&attribute(&merged));
    Ok(())
}

/// Writes the merged timeline as (a) JSONL in the trace's own schema
/// (with `pid` lanes, so `--check` and a re-merge both accept it) and
/// (b) its Chrome `chrome://tracing` / Perfetto view.
fn write_merged(out_jsonl: &str, out_chrome: &str, merged: &[Record]) -> Result<(), String> {
    let jsonl: String = merged.iter().map(|ev| to_jsonl(ev) + "\n").collect();
    std::fs::write(out_jsonl, jsonl).map_err(|e| format!("cannot write {out_jsonl}: {e}"))?;
    std::fs::write(out_chrome, to_chrome(merged))
        .map_err(|e| format!("cannot write {out_chrome}: {e}"))
}

fn print_attribution(attr: &Attribution) {
    let steps = attr.steps.max(1);
    let per = |v: u64| v as f64 / steps as f64;
    println!("\n-- per-step attribution ({} steps) --", attr.steps);
    println!("{:<18} {:>12}", "phase", "µs/step");
    println!("{:<18} {:>12.1}", "serialize", per(attr.serialize_us));
    println!("{:<18} {:>12.1}", "wire", per(attr.wire_us));
    println!("{:<18} {:>12.1}", "worker compute", per(attr.compute_us));
    println!("{:<18} {:>12.1}", "stall", per(attr.stall_us));
    println!("{:<18} {:>12.1}", "combine", per(attr.combine_us));
    println!(
        "{:<18} {:>12.1}   (coverage {:.1}%)",
        "exchange wall",
        per(attr.exchange_us),
        100.0 * attr.coverage()
    );
    if !attr.worker_busy_us.is_empty() {
        let busy: Vec<String> = attr
            .worker_busy_us
            .iter()
            .map(|(w, us)| format!("w{w}:{:.1}", per(*us)))
            .collect();
        println!(
            "worker busy µs/step: {}   (straggler index {:.2})",
            busy.join("  "),
            attr.straggler_index()
        );
    }
}

/// Replica routing data recovered from the trace's `"x"` (expert-rows)
/// events: the broker emits one event per worker (`src: "workerN"`) per
/// routed exchange when the placement holds ≥ 2 replicas of anything,
/// alongside the usual per-exchange totals (`src: "runtime"`).
#[derive(Default)]
struct ReplicaRows<'a> {
    /// `(pass, block, expert) -> worker -> rows` from `workerN` events.
    per_worker: BTreeMap<(&'a str, u64, u64), BTreeMap<u64, u64>>,
    /// `(pass, block, expert) -> rows` from the runtime totals.
    totals: BTreeMap<(&'a str, u64, u64), u64>,
}

fn replica_rows(events: &[Record]) -> ReplicaRows<'_> {
    let mut out = ReplicaRows::default();
    for ev in events {
        let Kind::Rows {
            pass,
            src,
            block,
            rows,
            ..
        } = &ev.kind
        else {
            continue;
        };
        if let Some(w) = src.strip_prefix("worker") {
            let Ok(w) = w.parse::<u64>() else {
                continue;
            };
            for &(expert, rows) in rows {
                *out.per_worker
                    .entry((pass, *block, expert))
                    .or_default()
                    .entry(w)
                    .or_insert(0) += rows;
            }
        } else if src == "runtime" {
            for &(expert, rows) in rows {
                *out.totals.entry((pass, *block, expert)).or_insert(0) += rows;
            }
        }
    }
    out
}

/// When the trace carries per-replica routing events, every routed row
/// must be accounted: for each `(pass, block, expert)`, the per-worker
/// shares must sum to exactly the runtime's per-expert total.
fn check_replica_shares(events: &[Record]) -> Result<(), String> {
    let rows = replica_rows(events);
    for (key, workers) in &rows.per_worker {
        let split: u64 = workers.values().sum();
        let total = rows.totals.get(key).copied().unwrap_or(0);
        if split != total {
            let (pass, block, expert) = key;
            return Err(format!(
                "replica shares for block {block} expert {expert} ({pass}) sum to {split}, \
                 runtime total is {total}"
            ));
        }
    }
    Ok(())
}

/// Exchange spans (`reader::EXCHANGE_SPANS`) and the serialize spans they
/// enclose come together. Exchanges without serialize spans mean the phase
/// instrumentation has silently regressed; serialize spans without a named
/// exchange mean the exchange span was renamed and `EXCHANGE_SPANS` left
/// behind, so attribution would count no exchange time at all.
fn check_pipeline_instrumentation(events: &[Record]) -> Result<(), String> {
    let span_present = |name: &str| {
        events
            .iter()
            .any(|ev| matches!(&ev.kind, Kind::Enter { name: n, .. } if n == name))
    };
    let exchange = EXCHANGE_SPANS.iter().any(|s| span_present(s));
    match (exchange, span_present("runtime.pipeline.serialize")) {
        (true, false) => Err(
            "trace has exchange spans but no runtime.pipeline.serialize spans \
             (exchange phase instrumentation missing)"
                .into(),
        ),
        (false, true) => Err(format!(
            "trace has runtime.pipeline.serialize spans but none of the exchange spans \
             {EXCHANGE_SPANS:?} (exchange renamed without the reader)"
        )),
        _ => Ok(()),
    }
}

/// Accumulated statistics for one span name.
#[derive(Default)]
struct SpanStat {
    count: u64,
    total_us: u64,
    self_us: u64,
}

fn summarize(events: &[Record], top: usize) {
    // ---- span walk: per-tid stacks give total and self time --------------
    let mut stats: BTreeMap<&str, SpanStat> = BTreeMap::new();
    // Per tid: stack of (name, enter t, accumulated child time).
    let mut stacks: BTreeMap<u64, Vec<(&str, u64, u64)>> = BTreeMap::new();
    // Last value per counter name; last bucket set per histogram name.
    let mut counters: BTreeMap<&str, u64> = BTreeMap::new();
    let mut histograms: BTreeMap<&str, &[(u64, u64)]> = BTreeMap::new();
    // (block -> expert -> rows), per source, forward pass only.
    let mut rows_runtime: BTreeMap<u64, BTreeMap<u64, u64>> = BTreeMap::new();
    let mut rows_model: BTreeMap<u64, BTreeMap<u64, u64>> = BTreeMap::new();
    let mut max_step = 0u64;

    for ev in events {
        if let Kind::Enter { step, .. } | Kind::Rows { step, .. } | Kind::Flow { step, .. } =
            &ev.kind
        {
            max_step = max_step.max(*step);
        }
        match &ev.kind {
            Kind::Enter { name, .. } => stacks.entry(ev.tid).or_default().push((name, ev.t, 0)),
            Kind::Exit { .. } => {
                let stack = stacks.entry(ev.tid).or_default();
                // Tolerate truncated traces: skip exits with no open span.
                if let Some((name, start, child)) = stack.pop() {
                    let dur = ev.t.saturating_sub(start);
                    let s = stats.entry(name).or_default();
                    s.count += 1;
                    s.total_us += dur;
                    s.self_us += dur.saturating_sub(child);
                    if let Some(parent) = stack.last_mut() {
                        parent.2 += dur;
                    }
                }
            }
            Kind::Counter { name, value } => {
                counters.insert(name, *value);
            }
            Kind::Histogram { name, buckets, .. } => {
                histograms.insert(name, buckets);
            }
            Kind::Rows {
                pass,
                src,
                block,
                rows,
                ..
            } => {
                if pass != "fwd" {
                    continue;
                }
                let by_block = match src.as_ref() {
                    "model" => &mut rows_model,
                    // Per-replica worker events feed the replication
                    // section, not the per-expert totals.
                    s if s.starts_with("worker") => continue,
                    _ => &mut rows_runtime,
                };
                let per_expert = by_block.entry(*block).or_default();
                for &(expert, rows) in rows {
                    *per_expert.entry(expert).or_insert(0) += rows;
                }
            }
            _ => {}
        }
    }

    println!(
        "== trace summary: {} events, {max_step} steps ==",
        events.len()
    );

    if !stats.is_empty() {
        println!("\n-- span totals --");
        println!(
            "{:<32} {:>8} {:>12} {:>10}",
            "span", "count", "total (ms)", "mean (µs)"
        );
        for (name, s) in &stats {
            println!(
                "{:<32} {:>8} {:>12.3} {:>10.1}",
                name,
                s.count,
                s.total_us as f64 / 1e3,
                s.total_us as f64 / s.count as f64
            );
        }

        println!("\n-- top {top} self-time --");
        println!("{:<32} {:>12} {:>7}", "span", "self (ms)", "share");
        let total_self: u64 = stats.values().map(|s| s.self_us).sum();
        let mut by_self: Vec<(&str, &SpanStat)> = stats.iter().map(|(n, s)| (*n, s)).collect();
        by_self.sort_by_key(|&(_, s)| std::cmp::Reverse(s.self_us));
        for (name, s) in by_self.iter().take(top) {
            println!(
                "{:<32} {:>12.3} {:>6.1}%",
                name,
                s.self_us as f64 / 1e3,
                100.0 * s.self_us as f64 / total_self.max(1) as f64
            );
        }
    }

    // Prefer the runtime's view of expert traffic (it is what the broker
    // actually moved); fall back to the model-side dispatch counts.
    let (rows, src) = if !rows_runtime.is_empty() {
        (&rows_runtime, "runtime")
    } else {
        (&rows_model, "model")
    };
    if !rows.is_empty() {
        println!("\n-- per-expert tokens per block (src: {src}, forward) --");
        for (block, per_expert) in rows {
            let total: u64 = per_expert.values().sum();
            let parts: Vec<String> = per_expert
                .iter()
                .map(|(e, r)| format!("e{e}:{r} ({:.1}%)", 100.0 * *r as f64 / total.max(1) as f64))
                .collect();
            println!("  block {block:>2} | {}", parts.join("  "));
        }
    }

    // Replication: when the broker routed over ≥ 2 replicas it traced a
    // per-worker row split — report replica counts, token shares, and the
    // resulting load balance.
    let replicas = replica_rows(events);
    let fwd: Vec<_> = replicas
        .per_worker
        .iter()
        .filter(|(k, _)| k.0 == "fwd")
        .collect();
    if !fwd.is_empty() {
        println!("\n-- replication (per-replica token shares, forward) --");
        let mut worker_totals: BTreeMap<u64, u64> = BTreeMap::new();
        for (key, workers) in &fwd {
            let (_, block, expert) = key;
            let total: u64 = workers.values().sum();
            for (&w, &r) in workers.iter() {
                *worker_totals.entry(w).or_insert(0) += r;
            }
            if workers.len() < 2 {
                continue; // routed but never actually split
            }
            let shares: Vec<String> = workers
                .iter()
                .map(|(w, r)| format!("w{w}:{:.1}%", 100.0 * *r as f64 / total.max(1) as f64))
                .collect();
            println!(
                "  block {block:>2} expert {expert:>2} | replicas {} | {}  (rows {total})",
                workers.len(),
                shares.join("  ")
            );
        }
        let split_pairs = fwd.iter().filter(|(_, w)| w.len() >= 2).count();
        let max = worker_totals.values().copied().max().unwrap_or(0) as f64;
        let mean = worker_totals.values().sum::<u64>() as f64 / worker_totals.len().max(1) as f64;
        println!(
            "  {} expert(s) split across replicas; load imbalance (max/mean worker rows): {:.2}",
            split_pairs,
            if mean > 0.0 { max / mean } else { 1.0 }
        );
    }

    // Wire-format economics: encoded bytes by frame kind, split into
    // framing headers vs exact data payloads (the header share is what the
    // packed layout exists to shrink).
    let wire_rows: Vec<(&str, u64, u64)> = ["dispatch", "result", "expert_state"]
        .iter()
        .map(|kind| {
            let get = |field: &str| {
                counters
                    .get(format!("wire.{kind}.{field}").as_str())
                    .copied()
                    .unwrap_or(0)
            };
            (*kind, get("header_bytes"), get("payload_bytes"))
        })
        .filter(|&(_, h, p)| h + p > 0)
        .collect();
    if !wire_rows.is_empty() {
        println!("\n-- wire bytes by frame kind --");
        println!(
            "{:<14} {:>14} {:>14} {:>9}",
            "kind", "header", "payload", "overhead"
        );
        for &(kind, header, payload) in &wire_rows {
            println!(
                "{:<14} {:>14} {:>14} {:>8.2}%",
                kind,
                header,
                payload,
                100.0 * header as f64 / (header + payload).max(1) as f64
            );
        }
    }

    // Migration: the chunk relay's counters and the step-boundary pump
    // span, when the run moved experts.
    let mig = |field: &str| {
        counters
            .get(format!("runtime.migration.{field}").as_str())
            .copied()
            .unwrap_or(0)
    };
    let (chunks, mig_bytes, commits) = (mig("chunks"), mig("bytes"), mig("commits"));
    if chunks + mig_bytes + commits > 0 {
        println!("\n-- migration --");
        println!(
            "  {commits} cutover(s); {chunks} chunk frame(s), {mig_bytes} payload bytes relayed"
        );
        if let Some(s) = stats.get("runtime.migration.pump") {
            println!(
                "  pump span: {} boundary service(s), mean {:.1} µs",
                s.count,
                s.total_us as f64 / s.count.max(1) as f64
            );
        }
    }

    if !counters.is_empty() {
        println!("\n-- counters (final) --");
        for (name, value) in &counters {
            println!("{name:<40} {value:>14}");
        }
    }

    // A span's histogram is the span-totals row above in bucket form.
    histograms.retain(|name, _| !stats.contains_key(name));
    if !histograms.is_empty() {
        println!("\n-- histograms (power-of-two buckets) --");
        for (name, buckets) in &histograms {
            let parts: Vec<String> = buckets
                .iter()
                .map(|(lo, count)| format!("≥{lo}:{count}"))
                .collect();
            println!("{name:<40} {}", parts.join(" "));
        }
    }
}
