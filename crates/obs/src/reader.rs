//! Reading side of the JSONL trace schema: a minimal JSON parser (the
//! workspace is hermetic — no serde), typed [`RawEvent`] decoding, the
//! structural validator and the span/histogram reconciliation behind
//! `trace_summary --check`, the cross-process merge and span/flow
//! attribution, and the two writers of a decoded trace — JSONL
//! ([`to_jsonl`]) and the Chrome view ([`to_chrome`]).

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::{Display, Write as _};

/// A parsed JSON value. Numbers are kept as `f64`; every integer the
/// trace schema emits (µs timestamps, row counts, byte totals) is well
/// below 2^53 so the round-trip is exact.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// Signed integer view — the clock-offset field is the one place
    /// the schema emits a negative number.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Num(n) if n.fract() == 0.0 => Some(*n as i64),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

struct Parser<'a> {
    src: &'a str,
    bytes: &'a [u8],
    /// Always on a char boundary: everything but string contents is
    /// ASCII, and string contents advance a whole scalar at a time.
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(s: &'a str) -> Self {
        Parser {
            src: s,
            bytes: s.as_bytes(),
            pos: 0,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected '{}' at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            ))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => Err(format!(
                "unexpected {:?} at byte {}",
                other.map(|c| c as char),
                self.pos
            )),
        }
    }

    fn literal(&mut self, lit: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let val = self.value()?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                other => {
                    return Err(format!(
                        "expected ',' or '}}' at byte {}, found {:?}",
                        self.pos,
                        other.map(|c| c as char)
                    ))
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                other => {
                    return Err(format!(
                        "expected ',' or ']' at byte {}, found {:?}",
                        self.pos,
                        other.map(|c| c as char)
                    ))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                                16,
                            )
                            .map_err(|_| "bad \\u escape")?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        other => return Err(format!("bad escape {other:?}")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar. Slicing `src` costs O(1);
                    // re-validating the rest of the input per character
                    // would make a whole-file parse (a Chrome trace)
                    // quadratic.
                    let c = self.src[self.pos..].chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Json::Num)
            .ok_or_else(|| format!("bad number at byte {start}"))
    }
}

/// Parse one complete JSON value (trailing whitespace allowed).
pub fn parse_json(s: &str) -> Result<Json, String> {
    let mut p = Parser::new(s);
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(v)
}

/// One decoded JSONL trace event.
#[derive(Debug, Clone)]
pub struct RawEvent {
    /// `"b"`, `"e"`, `"c"`, `"h"`, `"x"`, `"f"` (flow endpoint) or
    /// `"k"` (clock sample).
    pub ev: String,
    /// Span/counter/histogram name; empty for `"f"`/`"k"` records.
    pub name: String,
    pub t: u64,
    pub tid: u64,
    /// Process lane: 0 = master, `i + 1` = worker `i`. Only merged
    /// traces carry the field; single-process traces decode as pid 0.
    pub pid: u64,
    pub step: Option<u64>,
    /// Counter value (`"c"` events).
    pub value: Option<u64>,
    /// Sum of every recorded value (`"h"` events); a span histogram's
    /// total µs.
    pub total: Option<u64>,
    /// Observing layer for `"x"` events (`"runtime"` / `"model"`).
    pub src: Option<String>,
    /// MoE block index for `"x"` events.
    pub block: Option<u64>,
    /// `(expert, rows)` pairs for `"x"` events.
    pub rows: Vec<(u64, u64)>,
    /// `(bucket lower bound, count)` pairs for `"h"` events.
    pub buckets: Vec<(u64, u64)>,
    /// Flow phase for `"f"` events: `"s"`, `"t"` or `"f"`.
    pub ph: Option<String>,
    /// Correlation key for `"f"` events (see [`crate::corr`]).
    pub corr: Option<u64>,
    /// Worker index for `"k"` events.
    pub worker: Option<u64>,
    /// Clock offset (worker minus master, µs, signed) for `"k"` events.
    pub offset: Option<i64>,
    /// Probe round-trip time (µs) for `"k"` events.
    pub rtt: Option<u64>,
}

fn pairs(v: &Json, what: &str) -> Result<Vec<(u64, u64)>, String> {
    let Json::Arr(items) = v else {
        return Err(format!("{what} must be an array"));
    };
    items
        .iter()
        .map(|item| {
            let Json::Arr(pair) = item else {
                return Err(format!("{what} entries must be [a,b] pairs"));
            };
            match (
                pair.first().and_then(Json::as_u64),
                pair.get(1).and_then(Json::as_u64),
            ) {
                (Some(a), Some(b)) if pair.len() == 2 => Ok((a, b)),
                _ => Err(format!("{what} entries must be [u64,u64] pairs")),
            }
        })
        .collect()
}

/// Decode one JSONL line into a [`RawEvent`], checking every field the
/// schema requires for that event kind.
pub fn parse_line(line: &str) -> Result<RawEvent, String> {
    let v = parse_json(line)?;
    let ev = v
        .get("ev")
        .and_then(Json::as_str)
        .ok_or("missing \"ev\"")?
        .to_string();
    let t = v
        .get("t")
        .and_then(Json::as_u64)
        .ok_or("missing integer \"t\"")?;
    let tid = v
        .get("tid")
        .and_then(Json::as_u64)
        .ok_or("missing integer \"tid\"")?;
    let pid = v.get("pid").and_then(Json::as_u64).unwrap_or(0);
    let name = v.get("name").and_then(Json::as_str).map(str::to_string);
    let step = v.get("step").and_then(Json::as_u64);
    let value = v.get("value").and_then(Json::as_u64);
    let total = v.get("total").and_then(Json::as_u64);
    let src = v.get("src").and_then(Json::as_str).map(str::to_string);
    let block = v.get("block").and_then(Json::as_u64);
    let rows = match v.get("rows") {
        Some(r) => pairs(r, "rows")?,
        None => Vec::new(),
    };
    let buckets = match v.get("buckets") {
        Some(b) => pairs(b, "buckets")?,
        None => Vec::new(),
    };
    let ph = v.get("ph").and_then(Json::as_str).map(str::to_string);
    let corr = v.get("corr").and_then(Json::as_u64);
    let worker = v.get("worker").and_then(Json::as_u64);
    let offset = v.get("offset").and_then(Json::as_i64);
    let rtt = v.get("rtt").and_then(Json::as_u64);
    if matches!(ev.as_str(), "b" | "e" | "c" | "h" | "x") && name.is_none() {
        return Err("missing \"name\"".to_string());
    }
    match ev.as_str() {
        "b" => {
            step.ok_or("span enter missing \"step\"")?;
        }
        "e" => {}
        "c" => {
            value.ok_or("counter event missing \"value\"")?;
        }
        "h" => {
            total.ok_or("histogram event missing \"total\"")?;
            if buckets.is_empty() {
                return Err("histogram event missing \"buckets\"".to_string());
            }
        }
        "x" => {
            step.ok_or("expert-rows event missing \"step\"")?;
            block.ok_or("expert-rows event missing \"block\"")?;
            src.as_deref().ok_or("expert-rows event missing \"src\"")?;
            if rows.is_empty() {
                return Err("expert-rows event missing \"rows\"".to_string());
            }
        }
        "f" => {
            step.ok_or("flow event missing \"step\"")?;
            corr.ok_or("flow event missing \"corr\"")?;
            match ph.as_deref() {
                Some("s" | "t" | "f") => {}
                Some(other) => return Err(format!("flow event has bad phase {other:?}")),
                None => return Err("flow event missing \"ph\"".to_string()),
            }
        }
        "k" => {
            worker.ok_or("clock event missing \"worker\"")?;
            offset.ok_or("clock event missing integer \"offset\"")?;
            rtt.ok_or("clock event missing \"rtt\"")?;
        }
        other => return Err(format!("unknown event kind {other:?}")),
    }
    Ok(RawEvent {
        ev,
        name: name.unwrap_or_default(),
        t,
        tid,
        pid,
        step,
        value,
        total,
        src,
        block,
        rows,
        buckets,
        ph,
        corr,
        worker,
        offset,
        rtt,
    })
}

/// Aggregate structural facts reported by [`validate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceStats {
    pub events: usize,
    /// Completed enter/exit span pairs.
    pub spans: usize,
    pub threads: usize,
    /// Complete dispatch → worker-compute → result flow chains.
    pub flows: usize,
    pub max_t: u64,
}

/// Structural validation of a decoded trace: per-lane (`(pid, tid)`)
/// timestamps must be monotone non-decreasing, span enter/exit events
/// must be balanced with stack discipline (an exit always closes the
/// most recent open span of its lane; nothing stays open at end of
/// stream), and every correlation key that appears in a flow record
/// must form a *complete* chain — at least one master start (`"s"`),
/// the worker serve pair (two `"t"`), and one master finish (`"f"`).
/// The completeness rule is what makes an unmerged distributed trace
/// fail `--check`: a master trace alone has no `"t"` records, a worker
/// trace alone has no `"s"`/`"f"`.
pub fn validate(events: &[RawEvent]) -> Result<TraceStats, String> {
    let mut last_t: BTreeMap<(u64, u64), u64> = BTreeMap::new();
    let mut stacks: BTreeMap<(u64, u64), Vec<String>> = BTreeMap::new();
    let mut chains: BTreeMap<u64, [usize; 3]> = BTreeMap::new();
    let mut spans = 0usize;
    let mut max_t = 0u64;
    for (i, ev) in events.iter().enumerate() {
        let lane = (ev.pid, ev.tid);
        let prev = last_t.entry(lane).or_insert(0);
        if ev.t < *prev {
            return Err(format!(
                "event {i} (pid {} tid {}): timestamp {} goes backwards (previous {})",
                ev.pid, ev.tid, ev.t, prev
            ));
        }
        *prev = ev.t;
        max_t = max_t.max(ev.t);
        match ev.ev.as_str() {
            "b" => stacks.entry(lane).or_default().push(ev.name.clone()),
            "e" => {
                let stack = stacks.entry(lane).or_default();
                match stack.pop() {
                    Some(top) if top == ev.name => spans += 1,
                    Some(top) => {
                        return Err(format!(
                            "event {i} (pid {} tid {}): exit {:?} does not match open span {:?}",
                            ev.pid, ev.tid, ev.name, top
                        ));
                    }
                    None => {
                        return Err(format!(
                            "event {i} (pid {} tid {}): exit {:?} with no open span",
                            ev.pid, ev.tid, ev.name
                        ));
                    }
                }
            }
            "f" => {
                let slot = match ev.ph.as_deref() {
                    Some("s") => 0,
                    Some("t") => 1,
                    _ => 2,
                };
                chains.entry(ev.corr.unwrap_or(0)).or_default()[slot] += 1;
            }
            _ => {}
        }
    }
    for (lane, stack) in &stacks {
        if let Some(open) = stack.last() {
            return Err(format!(
                "pid {} tid {}: span {open:?} still open at end of trace",
                lane.0, lane.1
            ));
        }
    }
    for (corr, [s, t, f]) in &chains {
        if *s == 0 || *f == 0 {
            return Err(format!(
                "flow {corr}: missing master endpoint ({s} start, {f} finish records) \
                 — is this an unmerged worker trace?"
            ));
        }
        if *t < 2 {
            return Err(format!(
                "flow {corr}: {t} worker serve records (need 2) \
                 — merge the .worker traces before checking"
            ));
        }
    }
    Ok(TraceStats {
        events: events.len(),
        spans,
        threads: last_t.len(),
        flows: chains.len(),
        max_t,
    })
}

/// The minimum-RTT clock sample per worker from a master trace:
/// `worker → (offset_us, rtt_us)`. The lowest-RTT probe bounds the
/// offset error tightest (classic NTP filtering), so that is the one
/// the merge rebases with.
pub fn clock_table(events: &[RawEvent]) -> BTreeMap<u64, (i64, u64)> {
    let mut best: BTreeMap<u64, (i64, u64)> = BTreeMap::new();
    for ev in events {
        if ev.ev != "k" {
            continue;
        }
        let (Some(w), Some(offset), Some(rtt)) = (ev.worker, ev.offset, ev.rtt) else {
            continue;
        };
        match best.get(&w) {
            Some(&(_, prev_rtt)) if prev_rtt <= rtt => {}
            _ => {
                best.insert(w, (offset, rtt));
            }
        }
    }
    best
}

/// Reconciles the two views of every span's time. Per process lane and
/// span name, the lane's last `"h"` snapshot must count exactly the
/// closed `"b"`/`"e"` pairs, and its total must be exactly their summed
/// `e.t − b.t`: a span close feeds its histogram from the same two stamps
/// it writes as events, and a merge shifts a lane by one offset, so any
/// difference is an instrument fault. Histograms no span feeds are not
/// checked. Returns the number of `(lane, span)` pairs reconciled.
pub fn reconcile_spans(events: &[RawEvent]) -> Result<usize, String> {
    let mut stacks: BTreeMap<(u64, u64), Vec<(&str, u64)>> = BTreeMap::new();
    // (pid, name) → (count, total µs), from the events and from the last
    // histogram snapshot respectively.
    let mut closed: BTreeMap<(u64, &str), (u64, u64)> = BTreeMap::new();
    let mut hists: BTreeMap<(u64, &str), (u64, u64)> = BTreeMap::new();
    for ev in events {
        match ev.ev.as_str() {
            "b" => stacks
                .entry((ev.pid, ev.tid))
                .or_default()
                .push((&ev.name, ev.t)),
            "e" => {
                if let Some((name, start)) = stacks.entry((ev.pid, ev.tid)).or_default().pop() {
                    let c = closed.entry((ev.pid, name)).or_default();
                    c.0 += 1;
                    c.1 += ev.t.saturating_sub(start);
                }
            }
            "h" => {
                let count = ev.buckets.iter().map(|&(_, n)| n).sum();
                hists.insert((ev.pid, &ev.name), (count, ev.total.unwrap_or(0)));
            }
            _ => {}
        }
    }
    for (&(pid, name), &(count, total)) in &closed {
        let (h_count, h_total) = hists.get(&(pid, name)).copied().unwrap_or((0, 0));
        if (h_count, h_total) != (count, total) {
            return Err(format!(
                "pid {pid}: span {name:?} has {count} closed pairs totalling {total} µs, \
                 but its histogram counts {h_count} totalling {h_total} µs"
            ));
        }
    }
    Ok(closed.len())
}

/// Join a master trace with per-worker traces into one timeline.
///
/// Each worker's timestamps are rebased onto the master clock using
/// the minimum-RTT offset sample from the master's clock probes
/// (`t_master = t_worker − offset`), every event is tagged
/// with its process lane (`pid` 0 = master, `i + 1` = worker `i`), and
/// the result is stably sorted by time — per-lane order (and therefore
/// span stack discipline) survives. A uniform shift keeps all
/// timestamps non-negative when a rebased worker event lands before
/// the master epoch.
pub fn merge_traces(
    master: Vec<RawEvent>,
    workers: Vec<(u64, Vec<RawEvent>)>,
) -> Result<Vec<RawEvent>, String> {
    let clocks = clock_table(&master);
    let mut earliest = 0i64;
    let mut lanes: Vec<(u64, i64, Vec<RawEvent>)> = Vec::new();
    for (w, events) in workers {
        let &(offset, _) = clocks.get(&w).ok_or_else(|| {
            format!(
                "worker {w}: no clock sample in the master trace \
                 (the master probes every worker's clock at its first traced step)"
            )
        })?;
        for ev in &events {
            earliest = earliest.min(ev.t as i64 - offset);
        }
        lanes.push((w, offset, events));
    }
    let shift = (-earliest).max(0);
    let mut merged: Vec<RawEvent> =
        Vec::with_capacity(master.len() + lanes.iter().map(|(_, _, e)| e.len()).sum::<usize>());
    for mut ev in master {
        ev.pid = 0;
        ev.t += shift as u64;
        merged.push(ev);
    }
    for (w, offset, events) in lanes {
        for mut ev in events {
            ev.pid = w + 1;
            ev.t = (ev.t as i64 - offset + shift) as u64;
            merged.push(ev);
        }
    }
    merged.sort_by_key(|ev| ev.t);
    Ok(merged)
}

/// Appends `s` as the body of a JSON string literal. The one escaper of
/// the crate: the sink, [`to_jsonl`] and [`to_chrome`] all write through
/// it.
pub(crate) fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// Appends `[[a,b],...]` — the schema's pair arrays (expert rows,
/// histogram buckets).
pub(crate) fn write_pairs<A: Display, B: Display>(out: &mut String, pairs: &[(A, B)]) {
    out.push('[');
    for (i, (a, b)) in pairs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "[{a},{b}]");
    }
    out.push(']');
}

/// Re-encode an event as one JSONL line (no trailing newline). Merged
/// traces round-trip through [`parse_line`]; the `pid` field is always
/// written so process lanes survive.
pub fn to_jsonl(ev: &RawEvent) -> String {
    let mut out = String::with_capacity(96);
    let _ = write!(
        out,
        "{{\"ev\":\"{}\",\"t\":{},\"tid\":{},\"pid\":{}",
        ev.ev, ev.t, ev.tid, ev.pid
    );
    if let Some(step) = ev.step {
        let _ = write!(out, ",\"step\":{step}");
    }
    if !ev.name.is_empty() {
        out.push_str(",\"name\":\"");
        escape_into(&mut out, &ev.name);
        out.push('"');
    }
    if let Some(value) = ev.value {
        let _ = write!(out, ",\"value\":{value}");
    }
    if let Some(total) = ev.total {
        let _ = write!(out, ",\"total\":{total}");
    }
    if let Some(src) = &ev.src {
        out.push_str(",\"src\":\"");
        escape_into(&mut out, src);
        out.push('"');
    }
    if let Some(block) = ev.block {
        let _ = write!(out, ",\"block\":{block}");
    }
    for (key, pairs) in [("rows", &ev.rows), ("buckets", &ev.buckets)] {
        if pairs.is_empty() {
            continue;
        }
        let _ = write!(out, ",\"{key}\":");
        write_pairs(&mut out, pairs);
    }
    if let Some(ph) = &ev.ph {
        let _ = write!(out, ",\"ph\":\"{ph}\"");
    }
    if let Some(corr) = ev.corr {
        let _ = write!(out, ",\"corr\":{corr}");
    }
    if let Some(worker) = ev.worker {
        let _ = write!(out, ",\"worker\":{worker}");
    }
    if let Some(offset) = ev.offset {
        let _ = write!(out, ",\"offset\":{offset}");
    }
    if let Some(rtt) = ev.rtt {
        let _ = write!(out, ",\"rtt\":{rtt}");
    }
    out.push('}');
    out
}

/// Render a decoded (usually merged) trace as one Chrome `trace_event`
/// JSON array for `chrome://tracing` / Perfetto: a named process lane per
/// `pid` (0 = master, `i + 1` = worker `i`), spans as `B`/`E` slices,
/// counters as `C` tracks, flow endpoints as `s`/`t`/`f` arrows
/// (dispatch → worker compute → result), and expert rows, histograms and
/// clock samples as instant events carrying their payload in `args`.
pub fn to_chrome(events: &[RawEvent]) -> String {
    let mut out = String::from("[");
    let pids: BTreeSet<u64> = events.iter().map(|ev| ev.pid).collect();
    for pid in pids {
        let lane = match pid {
            0 => "master".to_string(),
            w => format!("worker {}", w - 1),
        };
        let _ = write!(
            out,
            "\n{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\"args\":{{\"name\":\"{lane}\"}}}},"
        );
    }
    for ev in events {
        let name = match ev.ev.as_str() {
            "x" => format!(
                "rows.{}.{}.b{}",
                ev.src.as_deref().unwrap_or(""),
                ev.name,
                ev.block.unwrap_or(0)
            ),
            "f" => "exchange".to_string(),
            "k" => "clock sample".to_string(),
            _ => ev.name.clone(),
        };
        let ph = match ev.ev.as_str() {
            "b" => "B",
            "e" => "E",
            "c" => "C",
            "f" => ev.ph.as_deref().unwrap_or("t"),
            _ => "i",
        };
        out.push_str("\n{\"name\":\"");
        escape_into(&mut out, &name);
        let _ = write!(
            out,
            "\",\"ph\":\"{ph}\",\"pid\":{},\"tid\":{},\"ts\":{}",
            ev.pid, ev.tid, ev.t
        );
        match ev.ev.as_str() {
            "b" => {
                if let Some(step) = ev.step {
                    let _ = write!(out, ",\"args\":{{\"step\":{step}}}");
                }
            }
            "c" => {
                let _ = write!(out, ",\"args\":{{\"value\":{}}}", ev.value.unwrap_or(0));
            }
            "h" => {
                let _ = write!(
                    out,
                    ",\"s\":\"g\",\"args\":{{\"total\":{},\"buckets\":",
                    ev.total.unwrap_or(0)
                );
                write_pairs(&mut out, &ev.buckets);
                out.push('}');
            }
            "x" => {
                let _ = write!(
                    out,
                    ",\"s\":\"t\",\"args\":{{\"step\":{},\"rows\":",
                    ev.step.unwrap_or(0)
                );
                write_pairs(&mut out, &ev.rows);
                out.push('}');
            }
            "f" => {
                // Chrome binds a flow endpoint to the slice enclosing
                // (tid, ts); `bp:"e"` keeps the finish on its slice.
                let _ = write!(out, ",\"cat\":\"exchange\",\"id\":{}", ev.corr.unwrap_or(0));
                if ph == "f" {
                    out.push_str(",\"bp\":\"e\"");
                }
            }
            "k" => {
                let _ = write!(
                    out,
                    ",\"s\":\"g\",\"args\":{{\"worker\":{},\"offset_us\":{},\"rtt_us\":{}}}",
                    ev.worker.unwrap_or(0),
                    ev.offset.unwrap_or(0),
                    ev.rtt.unwrap_or(0)
                );
            }
            _ => {}
        }
        out.push_str("},");
    }
    if out.ends_with(',') {
        out.pop();
    }
    out.push_str("\n]\n");
    out
}

/// Where exchange wall time went, derived from the pipeline spans and
/// the flow chains of one (usually merged) trace. All totals are in
/// microseconds, summed over every step the trace covers.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Attribution {
    /// Distinct steps tagged on exchange-span enters.
    pub steps: u64,
    /// Wall time inside broker/virtual exchange spans.
    pub exchange_us: u64,
    /// Master-side frame encoding + send (`runtime.pipeline.serialize`).
    pub serialize_us: u64,
    /// Master-side blocking receive (`runtime.pipeline.inflight`).
    pub inflight_us: u64,
    /// Master-side reply combination (`runtime.pipeline.combine`).
    pub combine_us: u64,
    /// Worker compute, bounded by each chain's serve (`"t"`) pair.
    pub compute_us: u64,
    /// Wire time: chain start → finish minus the worker compute.
    pub wire_us: u64,
    /// In-flight time not explained by wire transfer or compute.
    pub stall_us: u64,
    /// Complete flow chains accounted.
    pub flows: usize,
    /// Per-worker busy (compute) time, keyed by worker index.
    pub worker_busy_us: BTreeMap<u64, u64>,
}

impl Attribution {
    /// Share of exchange wall time explained by the three pipeline
    /// phases (the attribution-completeness gate; 1.0 when the trace
    /// has no exchanges).
    pub fn coverage(&self) -> f64 {
        if self.exchange_us == 0 {
            return 1.0;
        }
        (self.serialize_us + self.inflight_us + self.combine_us) as f64 / self.exchange_us as f64
    }

    /// Max over mean per-worker busy time; 1.0 = perfectly balanced,
    /// higher = one worker is the straggler the step waits on.
    pub fn straggler_index(&self) -> f64 {
        let n = self.worker_busy_us.len();
        if n == 0 {
            return 1.0;
        }
        let max = *self.worker_busy_us.values().max().unwrap() as f64;
        let mean = self.worker_busy_us.values().sum::<u64>() as f64 / n as f64;
        if mean == 0.0 {
            1.0
        } else {
            max / mean
        }
    }
}

/// Span names whose wall time counts as "the exchange".
pub const EXCHANGE_SPANS: [&str; 2] = ["runtime.broker.fwd", "runtime.broker.bwd"];

/// Derive the per-phase attribution report from a decoded trace.
///
/// Phase totals come from the master's pipeline spans; worker compute
/// and wire time come from the flow chains (compute = the serve pair,
/// wire = chain wall time minus compute); stall is the in-flight
/// remainder. Busy time goes to the worker index the flow key carries,
/// whatever lane the serve pair is on: the worker the master serves on
/// its own thread records it on the master's. Incomplete chains (e.g. in an unmerged trace) are
/// skipped, not errors — [`validate`] is where incompleteness fails.
pub fn attribute(events: &[RawEvent]) -> Attribution {
    let mut a = Attribution::default();
    let mut steps = BTreeSet::new();
    let mut stacks: BTreeMap<(u64, u64), Vec<(&str, u64)>> = BTreeMap::new();
    // corr → (start, first serve, last serve, finish) timestamps.
    type Chain = (Option<u64>, Option<u64>, Option<u64>, Option<u64>);
    let mut chains: BTreeMap<u64, Chain> = BTreeMap::new();
    for ev in events {
        match ev.ev.as_str() {
            "b" => {
                if EXCHANGE_SPANS.contains(&ev.name.as_str()) {
                    if let Some(step) = ev.step {
                        steps.insert(step);
                    }
                }
                stacks
                    .entry((ev.pid, ev.tid))
                    .or_default()
                    .push((&ev.name, ev.t));
            }
            "e" => {
                if let Some((name, start)) = stacks.entry((ev.pid, ev.tid)).or_default().pop() {
                    let dur = ev.t.saturating_sub(start);
                    match name {
                        "runtime.pipeline.serialize" => a.serialize_us += dur,
                        "runtime.pipeline.inflight" => a.inflight_us += dur,
                        "runtime.pipeline.combine" => a.combine_us += dur,
                        n if EXCHANGE_SPANS.contains(&n) => a.exchange_us += dur,
                        _ => {}
                    }
                }
            }
            "f" => {
                let (Some(corr), Some(ph)) = (ev.corr, ev.ph.as_deref()) else {
                    continue;
                };
                let c = chains.entry(corr).or_default();
                match ph {
                    "s" => c.0 = Some(ev.t),
                    "t" => {
                        if c.1.is_none() {
                            c.1 = Some(ev.t);
                        }
                        c.2 = Some(ev.t);
                    }
                    _ => c.3 = Some(ev.t),
                }
            }
            _ => {}
        }
    }
    for (corr, chain) in chains {
        let (Some(s), Some(t0), Some(t1), Some(f)) = chain else {
            continue;
        };
        let compute = t1.saturating_sub(t0);
        let wire = f.saturating_sub(s).saturating_sub(compute);
        a.compute_us += compute;
        a.wire_us += wire;
        a.flows += 1;
        *a.worker_busy_us
            .entry(crate::corr::worker(corr))
            .or_insert(0) += compute;
    }
    a.stall_us = a.inflight_us.saturating_sub(a.wire_us + a.compute_us);
    a.steps = steps.len() as u64;
    a
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_escaped_strings() {
        let v = parse_json(r#"{"a":"q\"uo\\te\n\t\rAé"}"#).unwrap();
        assert_eq!(v.get("a").and_then(Json::as_str), Some("q\"uo\\te\n\t\rAé"));
        assert!(parse_json(r#""unterminated"#).is_err());
        assert!(parse_json(r#""bad \q escape""#).is_err());
        assert!(parse_json(r#""trunc \u00""#).is_err());
    }

    #[test]
    fn parses_nested_objects_and_arrays() {
        let v = parse_json(r#"{"a":[{"b":[1,[2,3]]},{"c":{"d":null}}],"e":{}}"#).unwrap();
        let a = v.get("a").unwrap();
        let Json::Arr(items) = a else { panic!() };
        assert_eq!(items.len(), 2);
        let inner = items[0].get("b").unwrap();
        let Json::Arr(b) = inner else { panic!() };
        assert_eq!(b[0].as_u64(), Some(1));
        assert_eq!(items[1].get("c").unwrap().get("d"), Some(&Json::Null));
        assert_eq!(v.get("e"), Some(&Json::Obj(vec![])));
        assert!(parse_json(r#"{"a":[1,}"#).is_err());
        assert!(parse_json(r#"{"a":1}{"#).is_err(), "trailing data");
    }

    #[test]
    fn numbers_beyond_u64_do_not_panic() {
        // 2^64 doesn't fit u64; the f64-backed parser keeps it as an
        // integer-valued float and the as-cast saturates.
        let v = parse_json("18446744073709551616").unwrap();
        assert_eq!(v.as_u64(), Some(u64::MAX));
        assert_eq!(parse_json("1e300").unwrap().as_u64(), Some(u64::MAX));
        assert_eq!(parse_json("-5").unwrap().as_u64(), None);
        assert_eq!(parse_json("-5").unwrap().as_i64(), Some(-5));
        assert_eq!(parse_json("2.5").unwrap().as_i64(), None);
    }

    #[test]
    fn parses_flow_and_clock_records() {
        let f = parse_line(r#"{"ev":"f","t":60,"tid":1,"step":3,"ph":"s","corr":412317122560}"#)
            .unwrap();
        assert_eq!((f.ev.as_str(), f.ph.as_deref()), ("f", Some("s")));
        assert_eq!(f.corr, Some(412317122560));
        assert_eq!(f.pid, 0, "unmerged traces decode as pid 0");

        let k =
            parse_line(r#"{"ev":"k","t":70,"tid":0,"worker":1,"offset":-1423,"rtt":88}"#).unwrap();
        assert_eq!(
            (k.worker, k.offset, k.rtt),
            (Some(1), Some(-1423), Some(88))
        );

        let merged =
            parse_line(r#"{"ev":"f","t":9,"tid":2,"pid":3,"step":0,"ph":"t","corr":7}"#).unwrap();
        assert_eq!(merged.pid, 3);

        assert!(parse_line(r#"{"ev":"f","t":1,"tid":1,"step":0,"ph":"s"}"#).is_err());
        assert!(parse_line(r#"{"ev":"f","t":1,"tid":1,"step":0,"ph":"x","corr":1}"#).is_err());
        assert!(parse_line(r#"{"ev":"k","t":1,"tid":0,"worker":0,"offset":3}"#).is_err());
        assert!(parse_line(r#"{"ev":"z","t":1,"tid":1,"name":"n"}"#).is_err());
        assert!(
            parse_line(r#"{"ev":"b","t":1,"tid":1,"step":0}"#).is_err(),
            "span needs name"
        );
    }

    fn ev(line: &str) -> RawEvent {
        parse_line(line).unwrap()
    }

    #[test]
    fn validate_requires_complete_flow_chains() {
        let s = ev(r#"{"ev":"f","t":1,"tid":1,"step":0,"ph":"s","corr":9}"#);
        let t0 = ev(r#"{"ev":"f","t":2,"tid":1,"pid":1,"step":0,"ph":"t","corr":9}"#);
        let t1 = ev(r#"{"ev":"f","t":3,"tid":1,"pid":1,"step":0,"ph":"t","corr":9}"#);
        let f = ev(r#"{"ev":"f","t":4,"tid":2,"step":0,"ph":"f","corr":9}"#);

        // Master-only trace (no worker serve records) must fail.
        assert!(validate(&[s.clone(), f.clone()]).is_err());
        // Worker-only trace (no master endpoints) must fail.
        assert!(validate(&[t0.clone(), t1.clone()]).is_err());
        // The merged chain passes and is counted.
        let stats = validate(&[s, t0, t1, f]).unwrap();
        assert_eq!(stats.flows, 1);
    }

    #[test]
    fn validate_keys_lanes_by_pid_and_tid() {
        // Same tid in two pids: independent clocks and span stacks.
        let trace = [
            ev(r#"{"ev":"b","t":10,"tid":1,"pid":0,"step":0,"name":"a"}"#),
            ev(r#"{"ev":"b","t":5,"tid":1,"pid":1,"step":0,"name":"w"}"#),
            ev(r#"{"ev":"e","t":6,"tid":1,"pid":1,"name":"w"}"#),
            ev(r#"{"ev":"e","t":20,"tid":1,"pid":0,"name":"a"}"#),
        ];
        let stats = validate(&trace).unwrap();
        assert_eq!((stats.spans, stats.threads), (2, 2));
        // Collapsed onto one pid the same sequence goes backwards.
        let mut collapsed = trace.clone();
        for e in &mut collapsed {
            e.pid = 0;
        }
        assert!(validate(&collapsed).is_err());
    }

    #[test]
    fn merge_rebases_onto_master_clock() {
        let master = vec![
            ev(r#"{"ev":"k","t":1,"tid":0,"worker":0,"offset":100,"rtt":50}"#),
            ev(r#"{"ev":"k","t":2,"tid":0,"worker":0,"offset":40,"rtt":8}"#),
            ev(r#"{"ev":"b","t":10,"tid":1,"step":0,"name":"a"}"#),
            ev(r#"{"ev":"e","t":30,"tid":1,"name":"a"}"#),
        ];
        let worker = vec![
            ev(r#"{"ev":"b","t":55,"tid":1,"step":0,"name":"w"}"#),
            ev(r#"{"ev":"e","t":60,"tid":1,"name":"w"}"#),
        ];
        let merged = merge_traces(master.clone(), vec![(0, worker)]).unwrap();
        // The min-RTT sample (offset 40) wins: worker t 55 → master 15.
        let w: Vec<(u64, u64)> = merged
            .iter()
            .filter(|e| e.pid == 1)
            .map(|e| (e.t, e.tid))
            .collect();
        assert_eq!(w, vec![(15, 1), (20, 1)]);
        validate(&merged).unwrap();

        // A worker without any clock sample cannot be merged.
        let lone = vec![ev(r#"{"ev":"e","t":1,"tid":1,"name":"w"}"#)];
        assert!(merge_traces(master, vec![(3, lone)]).is_err());
    }

    #[test]
    fn reconciliation_matches_span_pairs_with_the_last_histogram_per_lane() {
        let trace = |last: &str| {
            [
                r#"{"ev":"b","t":10,"tid":1,"step":0,"name":"a"}"#,
                r#"{"ev":"e","t":13,"tid":1,"name":"a"}"#,
                r#"{"ev":"h","t":14,"tid":0,"name":"a","total":3,"buckets":[[2,1]]}"#,
                r#"{"ev":"b","t":5,"tid":2,"step":0,"name":"a"}"#,
                r#"{"ev":"e","t":9,"tid":2,"name":"a"}"#,
                r#"{"ev":"b","t":1,"tid":1,"pid":1,"step":0,"name":"a"}"#,
                r#"{"ev":"e","t":2,"tid":1,"pid":1,"name":"a"}"#,
                r#"{"ev":"h","t":20,"tid":0,"pid":1,"name":"a","total":1,"buckets":[[1,1]]}"#,
                r#"{"ev":"h","t":30,"tid":0,"name":"not.a.span","total":208,"buckets":[[16,7]]}"#,
                last,
            ]
            .map(ev)
        };
        // Lane 0 closed `a` twice for 3 + 4 µs; lane 1 once for 1 µs. The
        // stale snapshot at t 14 is superseded by the last one.
        let exact = r#"{"ev":"h","t":40,"tid":0,"name":"a","total":7,"buckets":[[2,1],[4,1]]}"#;
        assert_eq!(reconcile_spans(&trace(exact)), Ok(2));
        let off_by_one =
            r#"{"ev":"h","t":40,"tid":0,"name":"a","total":8,"buckets":[[2,1],[4,1]]}"#;
        let err = reconcile_spans(&trace(off_by_one)).unwrap_err();
        assert!(
            err.contains("totalling 7 µs") && err.contains("totalling 8 µs"),
            "{err}"
        );
        let lost_close = r#"{"ev":"h","t":40,"tid":0,"name":"a","total":7,"buckets":[[4,1]]}"#;
        assert!(reconcile_spans(&trace(lost_close)).is_err());
        // A span with no histogram at all is an instrument fault too.
        let unfed: Vec<RawEvent> = trace(exact)
            .into_iter()
            .filter(|e| !(e.ev == "h" && e.pid == 0 && e.name == "a"))
            .collect();
        assert!(reconcile_spans(&unfed)
            .unwrap_err()
            .contains("histogram counts 0"));
    }

    #[test]
    fn merge_shifts_negative_rebased_timestamps() {
        // Worker clock is *behind* rebasing: t 5 − offset 20 = −15, so
        // every timestamp shifts by +15 and stays u64.
        let master = vec![
            ev(r#"{"ev":"k","t":1,"tid":0,"worker":0,"offset":20,"rtt":4}"#),
            ev(r#"{"ev":"c","t":8,"tid":0,"name":"n","value":1}"#),
        ];
        let worker = vec![ev(r#"{"ev":"c","t":5,"tid":1,"name":"n","value":2}"#)];
        let merged = merge_traces(master, vec![(0, worker)]).unwrap();
        assert_eq!(merged[0].t, 0, "worker event lands at the new epoch");
        assert_eq!(merged[0].pid, 1);
        assert_eq!(merged[2].t, 23, "master events shift by the same 15");
    }

    #[test]
    fn jsonl_roundtrip_preserves_every_kind() {
        let lines = [
            r#"{"ev":"b","t":12,"tid":1,"pid":2,"step":3,"name":"runtime.step"}"#,
            r#"{"ev":"e","t":90,"tid":1,"name":"run \"x\""}"#,
            r#"{"ev":"c","t":99,"tid":0,"name":"c.n","value":42}"#,
            r#"{"ev":"h","t":99,"tid":0,"name":"h.n","total":208,"buckets":[[16,7],[32,3]]}"#,
            r#"{"ev":"x","t":50,"tid":1,"step":3,"name":"fwd","src":"runtime","block":0,"rows":[[0,128]]}"#,
            r#"{"ev":"f","t":60,"tid":1,"step":3,"ph":"s","corr":412317122560}"#,
            r#"{"ev":"k","t":70,"tid":0,"worker":1,"offset":-1423,"rtt":88}"#,
        ];
        for line in lines {
            let first = parse_line(line).unwrap();
            let second = parse_line(&to_jsonl(&first)).unwrap();
            assert_eq!(to_jsonl(&first), to_jsonl(&second), "stable for {line}");
        }
    }

    #[test]
    fn chrome_renders_every_record_kind() {
        let trace = [
            r#"{"ev":"b","t":12,"tid":1,"step":3,"name":"run \"x\""}"#,
            r#"{"ev":"e","t":90,"tid":1,"name":"run \"x\""}"#,
            r#"{"ev":"c","t":99,"tid":0,"name":"c.n","value":42}"#,
            r#"{"ev":"h","t":99,"tid":0,"name":"h.n","total":208,"buckets":[[16,7],[32,3]]}"#,
            r#"{"ev":"x","t":50,"tid":1,"step":3,"name":"fwd","src":"runtime","block":2,"rows":[[0,128],[3,64]]}"#,
            r#"{"ev":"f","t":60,"tid":1,"step":3,"ph":"s","corr":7}"#,
            r#"{"ev":"f","t":61,"tid":4,"pid":1,"step":3,"ph":"t","corr":7}"#,
            r#"{"ev":"f","t":70,"tid":1,"step":3,"ph":"f","corr":7}"#,
            r#"{"ev":"k","t":80,"tid":0,"worker":0,"offset":-1423,"rtt":88}"#,
        ]
        .map(ev);
        let Json::Arr(records) = parse_json(&to_chrome(&trace)).unwrap() else {
            panic!("a Chrome trace is one JSON array")
        };
        // One named lane per pid, then one record per event in order.
        assert_eq!(records.len(), 2 + trace.len());
        let lanes: Vec<(Option<u64>, Option<&str>)> = records[..2]
            .iter()
            .map(|r| {
                assert_eq!(r.get("ph").and_then(Json::as_str), Some("M"));
                let name = r.get("args").and_then(|a| a.get("name"));
                (
                    r.get("pid").and_then(Json::as_u64),
                    name.and_then(Json::as_str),
                )
            })
            .collect();
        assert_eq!(
            lanes,
            [(Some(0), Some("master")), (Some(1), Some("worker 0"))]
        );

        let r = &records[2..];
        let field = |i: usize, key: &str| r[i].get(key).cloned();
        let arg = |i: usize, key: &str| r[i].get("args").and_then(|a| a.get(key)).cloned();
        let s = |v: &str| Some(Json::Str(v.to_string()));
        let n = |v: f64| Some(Json::Num(v));
        let pairs = |p: &[(f64, f64)]| {
            Some(Json::Arr(
                p.iter()
                    .map(|&(a, b)| Json::Arr(vec![Json::Num(a), Json::Num(b)]))
                    .collect(),
            ))
        };
        // Spans: B/E slices on the span's own lane; names survive escaping.
        assert_eq!(field(0, "ph"), s("B"));
        assert_eq!(field(0, "name"), s("run \"x\""));
        assert_eq!((field(0, "tid"), field(0, "ts")), (n(1.0), n(12.0)));
        assert_eq!(arg(0, "step"), n(3.0));
        assert_eq!((field(1, "ph"), field(1, "ts")), (s("E"), n(90.0)));
        // Counter track.
        assert_eq!((field(2, "ph"), field(2, "name")), (s("C"), s("c.n")));
        assert_eq!(arg(2, "value"), n(42.0));
        // Histogram and expert rows: instants carrying their pairs.
        assert_eq!((field(3, "ph"), field(3, "name")), (s("i"), s("h.n")));
        assert_eq!(arg(3, "buckets"), pairs(&[(16.0, 7.0), (32.0, 3.0)]));
        assert_eq!(arg(3, "total"), n(208.0));
        assert_eq!(
            (field(4, "ph"), field(4, "name")),
            (s("i"), s("rows.runtime.fwd.b2"))
        );
        assert_eq!(arg(4, "step"), n(3.0));
        assert_eq!(arg(4, "rows"), pairs(&[(0.0, 128.0), (3.0, 64.0)]));
        // Flow arrows: one id across the master and worker lanes, the
        // finish bound to its enclosing slice.
        for (i, ph, pid) in [(5, "s", 0.0), (6, "t", 1.0), (7, "f", 0.0)] {
            assert_eq!((field(i, "ph"), field(i, "pid")), (s(ph), n(pid)));
            assert_eq!((field(i, "cat"), field(i, "id")), (s("exchange"), n(7.0)));
            assert_eq!(field(i, "bp"), (ph == "f").then(|| Json::Str("e".into())));
        }
        // Clock sample.
        assert_eq!(
            (field(8, "ph"), field(8, "name")),
            (s("i"), s("clock sample"))
        );
        assert_eq!(
            (arg(8, "worker"), arg(8, "offset_us"), arg(8, "rtt_us")),
            (n(0.0), n(-1423.0), n(88.0))
        );

        assert_eq!(to_chrome(&[]), "[\n]\n");
    }

    #[test]
    fn attribution_decomposes_exchange_time() {
        let corr0 = crate::corr::pack(1, 0, 0, 0);
        let corr1 = crate::corr::pack(1, 1, 0, 0);
        let mut trace = vec![
            ev(r#"{"ev":"b","t":0,"tid":1,"step":1,"name":"runtime.broker.fwd"}"#),
            ev(r#"{"ev":"b","t":0,"tid":1,"step":1,"name":"runtime.pipeline.serialize"}"#),
            ev(r#"{"ev":"e","t":10,"tid":1,"name":"runtime.pipeline.serialize"}"#),
            ev(r#"{"ev":"b","t":10,"tid":1,"step":1,"name":"runtime.pipeline.inflight"}"#),
            ev(r#"{"ev":"e","t":80,"tid":1,"name":"runtime.pipeline.inflight"}"#),
            ev(r#"{"ev":"b","t":80,"tid":1,"step":1,"name":"runtime.pipeline.combine"}"#),
            ev(r#"{"ev":"e","t":95,"tid":1,"name":"runtime.pipeline.combine"}"#),
            ev(r#"{"ev":"e","t":100,"tid":1,"name":"runtime.broker.fwd"}"#),
        ];
        // Chain 0: dispatch at 5, worker busy 20..50, result at 60
        //   → compute 30, wire (60−5)−30 = 25.
        // Chain 1: dispatch at 6, worker busy 20..30, result at 40
        //   → compute 10, wire (40−6)−10 = 24.
        // Worker 0 is the one the master serves on its own thread: its
        // serve pair sits on the master's lane (pid 0), and still counts
        // as worker 0's compute, by the worker index in the flow key.
        for (corr, s, t0, t1, f, pid) in [(corr0, 5, 20, 50, 60, 0), (corr1, 6, 20, 30, 40, 2)] {
            trace.push(ev(&format!(
                r#"{{"ev":"f","t":{s},"tid":2,"step":1,"ph":"s","corr":{corr}}}"#
            )));
            trace.push(ev(&format!(
                r#"{{"ev":"f","t":{t0},"tid":1,"pid":{pid},"step":1,"ph":"t","corr":{corr}}}"#
            )));
            trace.push(ev(&format!(
                r#"{{"ev":"f","t":{t1},"tid":1,"pid":{pid},"step":1,"ph":"t","corr":{corr}}}"#
            )));
            trace.push(ev(&format!(
                r#"{{"ev":"f","t":{f},"tid":2,"step":1,"ph":"f","corr":{corr}}}"#
            )));
        }
        let a = attribute(&trace);
        assert_eq!(a.steps, 1);
        assert_eq!(a.exchange_us, 100);
        assert_eq!(a.serialize_us, 10);
        assert_eq!(a.inflight_us, 70);
        assert_eq!(a.combine_us, 15);
        assert_eq!(a.compute_us, 40);
        assert_eq!(a.wire_us, 49);
        assert_eq!(a.stall_us, 0, "70 in flight fully explained by 89? clamped");
        assert_eq!(a.flows, 2);
        assert!((a.coverage() - 0.95).abs() < 1e-9);
        // Worker 0 was busy 30 µs, worker 1 only 10: max/mean = 1.5.
        assert_eq!(a.worker_busy_us, BTreeMap::from([(0, 30), (1, 10)]));
        assert!((a.straggler_index() - 1.5).abs() < 1e-9);
    }
}
