//! Both ends of the JSONL trace schema and everything that reads a trace:
//! a minimal JSON parser (the workspace is hermetic — no serde), the one
//! parser of a line into a [`Record`] ([`parse_line`]) and the one writer
//! of a record as a line ([`to_jsonl`], which the live sink writes
//! through too), the structural validator and the span/histogram
//! reconciliation behind `trace_summary --check`, the cross-process merge
//! and span/flow attribution, and the Chrome view ([`to_chrome`]). Every
//! reader matches on [`Kind`]; no kind letter is compared outside
//! [`parse_line`].

use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

use crate::{FlowPhase, Kind, Record};

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

    /// What the cursor is on, for an error message.
    fn found(&self) -> String {
        match self.peek() {
            Some(c) => format!("{:?}", c as char),
            None => "end of input".to_string(),
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected '{}' at byte {}, found {}",
                b as char,
                self.pos,
                self.found()
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
            _ => Err(format!("unexpected {} at byte {}", self.found(), self.pos)),
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
                _ => {
                    return Err(format!(
                        "expected ',' or '}}' at byte {}, found {}",
                        self.pos,
                        self.found()
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
                _ => {
                    return Err(format!(
                        "expected ',' or ']' at byte {}, found {}",
                        self.pos,
                        self.found()
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

/// Decodes one JSONL line into a [`Record`], built per kind from the
/// fields that kind requires; a missing or mistyped one is an error that
/// names it. A `pid` is optional (0 when absent).
pub fn parse_line(line: &str) -> Result<Record, String> {
    let v = parse_json(line)?;
    let ev = v.get("ev").and_then(Json::as_str).ok_or("missing \"ev\"")?;
    let int = |key: &str, err: &str| v.get(key).and_then(Json::as_u64).ok_or(err.to_string());
    let t = int("t", "missing integer \"t\"")?;
    let tid = int("tid", "missing integer \"tid\"")?;
    let pid = v.get("pid").and_then(Json::as_u64).unwrap_or(0);
    let text = |key: &str, err: &str| {
        v.get(key)
            .and_then(Json::as_str)
            .map(|s| Cow::Owned(s.to_string()))
            .ok_or(err.to_string())
    };
    let name = || text("name", "missing \"name\"");
    // A pair array that is present must be well formed; one a kind
    // requires must also be non-empty.
    let pairs_of = |key: &str, err: &str| match v.get(key).map(|p| pairs(p, key)) {
        Some(Ok(p)) if !p.is_empty() => Ok(p),
        Some(Err(e)) => Err(e),
        _ => Err(err.to_string()),
    };
    let kind = match ev {
        "b" => Kind::Enter {
            name: name()?,
            step: int("step", "span enter missing \"step\"")?,
        },
        "e" => Kind::Exit { name: name()? },
        "c" => Kind::Counter {
            name: name()?,
            value: int("value", "counter event missing \"value\"")?,
        },
        "h" => Kind::Histogram {
            name: name()?,
            total: int("total", "histogram event missing \"total\"")?,
            buckets: pairs_of("buckets", "histogram event missing \"buckets\"")?,
        },
        "x" => Kind::Rows {
            pass: name()?,
            step: int("step", "expert-rows event missing \"step\"")?,
            block: int("block", "expert-rows event missing \"block\"")?,
            src: text("src", "expert-rows event missing \"src\"")?,
            rows: pairs_of("rows", "expert-rows event missing \"rows\"")?,
        },
        "f" => Kind::Flow {
            step: int("step", "flow event missing \"step\"")?,
            corr: int("corr", "flow event missing \"corr\"")?,
            ph: match v.get("ph").and_then(Json::as_str) {
                Some(letter) => FlowPhase::from_letter(letter)
                    .ok_or_else(|| format!("flow event has bad phase {letter:?}"))?,
                None => return Err("flow event missing \"ph\"".to_string()),
            },
        },
        "k" => Kind::Clock {
            worker: int("worker", "clock event missing \"worker\"")?,
            offset: v
                .get("offset")
                .and_then(Json::as_i64)
                .ok_or("clock event missing integer \"offset\"")?,
            rtt: int("rtt", "clock event missing \"rtt\"")?,
        },
        other => return Err(format!("unknown event kind {other:?}")),
    };
    Ok(Record { t, tid, pid, kind })
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
pub fn validate(events: &[Record]) -> Result<TraceStats, String> {
    let mut last_t: BTreeMap<(u64, u64), u64> = BTreeMap::new();
    let mut stacks: BTreeMap<(u64, u64), Vec<&str>> = BTreeMap::new();
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
        match &ev.kind {
            Kind::Enter { name, .. } => stacks.entry(lane).or_default().push(name),
            Kind::Exit { name } => {
                let stack = stacks.entry(lane).or_default();
                match stack.pop() {
                    Some(top) if top == name => spans += 1,
                    Some(top) => {
                        return Err(format!(
                            "event {i} (pid {} tid {}): exit {name:?} does not match open span {top:?}",
                            ev.pid, ev.tid
                        ));
                    }
                    None => {
                        return Err(format!(
                            "event {i} (pid {} tid {}): exit {name:?} with no open span",
                            ev.pid, ev.tid
                        ));
                    }
                }
            }
            // A chain's slots are indexed by `FlowPhase`'s discriminants.
            Kind::Flow { ph, corr, .. } => chains.entry(*corr).or_default()[*ph as usize] += 1,
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
pub fn clock_table(events: &[Record]) -> BTreeMap<u64, (i64, u64)> {
    let mut best: BTreeMap<u64, (i64, u64)> = BTreeMap::new();
    for ev in events {
        let Kind::Clock {
            worker: w,
            offset,
            rtt,
        } = ev.kind
        else {
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
pub fn reconcile_spans(events: &[Record]) -> Result<usize, String> {
    let mut stacks: BTreeMap<(u64, u64), Vec<(&str, u64)>> = BTreeMap::new();
    // (pid, name) → (count, total µs), from the events and from the last
    // histogram snapshot respectively.
    let mut closed: BTreeMap<(u64, &str), (u64, u64)> = BTreeMap::new();
    let mut hists: BTreeMap<(u64, &str), (u64, u64)> = BTreeMap::new();
    for ev in events {
        match &ev.kind {
            Kind::Enter { name, .. } => stacks
                .entry((ev.pid, ev.tid))
                .or_default()
                .push((name, ev.t)),
            Kind::Exit { .. } => {
                if let Some((name, start)) = stacks.entry((ev.pid, ev.tid)).or_default().pop() {
                    let c = closed.entry((ev.pid, name)).or_default();
                    c.0 += 1;
                    c.1 += ev.t.saturating_sub(start);
                }
            }
            Kind::Histogram {
                name,
                total,
                buckets,
            } => {
                let count = buckets.iter().map(|&(_, n)| n).sum();
                hists.insert((ev.pid, name), (count, *total));
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
    master: Vec<Record>,
    workers: Vec<(u64, Vec<Record>)>,
) -> Result<Vec<Record>, String> {
    let clocks = clock_table(&master);
    let mut earliest = 0i64;
    let mut lanes: Vec<(u64, i64, Vec<Record>)> = Vec::new();
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
    let mut merged: Vec<Record> =
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
/// the crate: [`to_jsonl`] and [`to_chrome`] both write through it.
fn escape_into(out: &mut String, s: &str) {
    if !s.bytes().any(|b| b == b'"' || b == b'\\' || b < 0x20) {
        out.push_str(s);
        return;
    }
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

/// Appends `v` in decimal. The writer's integers go through here rather
/// than `write!`: formatting is most of what a traced step pays per record.
fn push_u64(out: &mut String, v: u64) {
    if v >= 10 {
        push_u64(out, v / 10);
    }
    out.push(char::from(b'0' + (v % 10) as u8));
}

/// Appends `,"key":v`.
fn write_u64(out: &mut String, key: &str, v: u64) {
    out.push_str(",\"");
    out.push_str(key);
    out.push_str("\":");
    push_u64(out, v);
}

/// Appends `[[a,b],...]` — the schema's pair arrays (expert rows,
/// histogram buckets).
fn write_pairs(out: &mut String, pairs: &[(u64, u64)]) {
    out.push('[');
    for (i, &(a, b)) in pairs.iter().enumerate() {
        out.push_str(if i > 0 { ",[" } else { "[" });
        push_u64(out, a);
        out.push(',');
        push_u64(out, b);
        out.push(']');
    }
    out.push(']');
}

/// Appends `,"key":"value"` with the value escaped.
fn write_str(out: &mut String, key: &str, value: &str) {
    out.push_str(",\"");
    out.push_str(key);
    out.push_str("\":\"");
    escape_into(out, value);
    out.push('"');
}

/// Encodes a record as one JSONL line (no trailing newline): `ev`, `t`,
/// `tid`, `pid` unless it is 0, then the kind's own fields. Merged traces
/// round-trip through [`parse_line`].
pub fn to_jsonl(record: &Record) -> String {
    let mut out = String::with_capacity(96);
    write_jsonl(&mut out, record);
    out
}

/// [`to_jsonl`] appending to `out`: the one writer of a trace line, which
/// the live sink writes every record through.
pub(crate) fn write_jsonl(out: &mut String, record: &Record) {
    let Record { t, tid, pid, kind } = record;
    out.push_str(match kind {
        Kind::Enter { .. } => "{\"ev\":\"b\"",
        Kind::Exit { .. } => "{\"ev\":\"e\"",
        Kind::Counter { .. } => "{\"ev\":\"c\"",
        Kind::Histogram { .. } => "{\"ev\":\"h\"",
        Kind::Rows { .. } => "{\"ev\":\"x\"",
        Kind::Flow { .. } => "{\"ev\":\"f\"",
        Kind::Clock { .. } => "{\"ev\":\"k\"",
    });
    write_u64(out, "t", *t);
    write_u64(out, "tid", *tid);
    if *pid != 0 {
        write_u64(out, "pid", *pid);
    }
    match kind {
        Kind::Enter { name, step } => {
            write_u64(out, "step", *step);
            write_str(out, "name", name);
        }
        Kind::Exit { name } => write_str(out, "name", name),
        Kind::Counter { name, value } => {
            write_str(out, "name", name);
            write_u64(out, "value", *value);
        }
        Kind::Histogram {
            name,
            total,
            buckets,
        } => {
            write_str(out, "name", name);
            write_u64(out, "total", *total);
            out.push_str(",\"buckets\":");
            write_pairs(out, buckets);
        }
        Kind::Rows {
            pass,
            src,
            block,
            step,
            rows,
        } => {
            write_u64(out, "step", *step);
            write_str(out, "name", pass);
            write_str(out, "src", src);
            write_u64(out, "block", *block);
            out.push_str(",\"rows\":");
            write_pairs(out, rows);
        }
        Kind::Flow { ph, corr, step } => {
            write_u64(out, "step", *step);
            write_str(out, "ph", ph.letter());
            write_u64(out, "corr", *corr);
        }
        Kind::Clock {
            worker,
            offset,
            rtt,
        } => {
            write_u64(out, "worker", *worker);
            out.push_str(",\"offset\":");
            if *offset < 0 {
                out.push('-');
            }
            push_u64(out, offset.unsigned_abs());
            write_u64(out, "rtt", *rtt);
        }
    }
    out.push('}');
}

/// Render a decoded (usually merged) trace as one Chrome `trace_event`
/// JSON array for `chrome://tracing` / Perfetto: a named process lane per
/// `pid` (0 = master, `i + 1` = worker `i`), spans as `B`/`E` slices,
/// counters as `C` tracks, flow endpoints as `s`/`t`/`f` arrows
/// (dispatch → worker compute → result), and expert rows, histograms and
/// clock samples as instant events carrying their payload in `args`.
pub fn to_chrome(events: &[Record]) -> String {
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
        let head = |out: &mut String, name: &str, ph: &str| {
            out.push_str("\n{\"name\":\"");
            escape_into(out, name);
            let _ = write!(
                out,
                "\",\"ph\":\"{ph}\",\"pid\":{},\"tid\":{},\"ts\":{}",
                ev.pid, ev.tid, ev.t
            );
        };
        match &ev.kind {
            Kind::Enter { name, step } => {
                head(&mut out, name, "B");
                let _ = write!(out, ",\"args\":{{\"step\":{step}}}");
            }
            Kind::Exit { name } => head(&mut out, name, "E"),
            Kind::Counter { name, value } => {
                head(&mut out, name, "C");
                let _ = write!(out, ",\"args\":{{\"value\":{value}}}");
            }
            Kind::Histogram {
                name,
                total,
                buckets,
            } => {
                head(&mut out, name, "i");
                let _ = write!(
                    out,
                    ",\"s\":\"g\",\"args\":{{\"total\":{total},\"buckets\":"
                );
                write_pairs(&mut out, buckets);
                out.push('}');
            }
            Kind::Rows {
                pass,
                src,
                block,
                step,
                rows,
            } => {
                head(&mut out, &format!("rows.{src}.{pass}.b{block}"), "i");
                let _ = write!(out, ",\"s\":\"t\",\"args\":{{\"step\":{step},\"rows\":");
                write_pairs(&mut out, rows);
                out.push('}');
            }
            Kind::Flow { ph, corr, .. } => {
                // Chrome binds a flow endpoint to the slice enclosing
                // (tid, ts); `bp:"e"` keeps the finish on its slice.
                head(&mut out, "exchange", ph.letter());
                let _ = write!(out, ",\"cat\":\"exchange\",\"id\":{corr}");
                if *ph == FlowPhase::Finish {
                    out.push_str(",\"bp\":\"e\"");
                }
            }
            Kind::Clock {
                worker,
                offset,
                rtt,
            } => {
                head(&mut out, "clock sample", "i");
                let _ = write!(
                    out,
                    ",\"s\":\"g\",\"args\":{{\"worker\":{worker},\"offset_us\":{offset},\"rtt_us\":{rtt}}}"
                );
            }
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
pub fn attribute(events: &[Record]) -> Attribution {
    let mut a = Attribution::default();
    let mut steps = BTreeSet::new();
    let mut stacks: BTreeMap<(u64, u64), Vec<(&str, u64)>> = BTreeMap::new();
    // corr → (start, first serve, last serve, finish) timestamps.
    type Chain = (Option<u64>, Option<u64>, Option<u64>, Option<u64>);
    let mut chains: BTreeMap<u64, Chain> = BTreeMap::new();
    for ev in events {
        match &ev.kind {
            Kind::Enter { name, step } => {
                if EXCHANGE_SPANS.contains(&name.as_ref()) {
                    steps.insert(*step);
                }
                stacks
                    .entry((ev.pid, ev.tid))
                    .or_default()
                    .push((name, ev.t));
            }
            Kind::Exit { .. } => {
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
            Kind::Flow { ph, corr, .. } => {
                let c = chains.entry(*corr).or_default();
                match ph {
                    FlowPhase::Start => c.0 = Some(ev.t),
                    FlowPhase::Step => {
                        if c.1.is_none() {
                            c.1 = Some(ev.t);
                        }
                        c.2 = Some(ev.t);
                    }
                    FlowPhase::Finish => c.3 = Some(ev.t),
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
        // A truncated document says where the input ended, not `None`.
        assert_eq!(
            parse_json("{\"kernels\": [\n"),
            Err("unexpected end of input at byte 14".to_string())
        );
        assert_eq!(
            parse_json("[1"),
            Err("expected ',' or ']' at byte 2, found end of input".to_string())
        );
        assert_eq!(
            parse_json("{\"a\" 1}"),
            Err("expected ':' at byte 5, found '1'".to_string())
        );
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
        assert_eq!(
            f,
            Record {
                t: 60,
                tid: 1,
                pid: 0,
                kind: Kind::Flow {
                    ph: FlowPhase::Start,
                    corr: 412317122560,
                    step: 3
                }
            },
            "unmerged traces decode as pid 0"
        );

        let k =
            parse_line(r#"{"ev":"k","t":70,"tid":0,"worker":1,"offset":-1423,"rtt":88}"#).unwrap();
        assert_eq!(
            k.kind,
            Kind::Clock {
                worker: 1,
                offset: -1423,
                rtt: 88
            }
        );

        let merged =
            parse_line(r#"{"ev":"f","t":9,"tid":2,"pid":3,"step":0,"ph":"t","corr":7}"#).unwrap();
        assert_eq!(merged.pid, 3);

        let rejects = [
            (
                r#"{"ev":"f","t":1,"tid":1,"step":0,"ph":"s"}"#,
                r#"flow event missing "corr""#,
            ),
            (
                r#"{"ev":"f","t":1,"tid":1,"step":0,"ph":"x","corr":1}"#,
                r#"flow event has bad phase "x""#,
            ),
            (
                r#"{"ev":"k","t":1,"tid":0,"worker":0,"offset":3}"#,
                r#"clock event missing "rtt""#,
            ),
            (
                r#"{"ev":"z","t":1,"tid":1,"name":"n"}"#,
                r#"unknown event kind "z""#,
            ),
            (r#"{"ev":"b","t":1,"tid":1,"step":0}"#, r#"missing "name""#),
        ];
        for (line, why) in rejects {
            assert_eq!(parse_line(line), Err(why.to_string()), "{line}");
        }
    }

    fn ev(line: &str) -> Record {
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
        let unfed: Vec<Record> = trace(exact)
            .into_iter()
            .filter(|e| {
                !(e.pid == 0 && matches!(&e.kind, Kind::Histogram { name, .. } if name == "a"))
            })
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

    /// splitmix64: the draws of the round-trip test, from a fixed seed.
    struct Draw(u64);

    impl Draw {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        /// Below 2^53, where the f64-backed parser is exact.
        fn int(&mut self) -> u64 {
            match self.next() % 4 {
                0 => 0,
                1 => self.next() % 100,
                _ => self.next() >> 11,
            }
        }

        fn name(&mut self) -> Cow<'static, str> {
            const PIECES: [&str; 8] = [
                "runtime", ".step", "\"q\"", "\\", "\n\t\r", "\u{1}", "é", "🦀",
            ];
            let n = 1 + self.next() % 4;
            Cow::Owned((0..n).map(|_| PIECES[(self.next() % 8) as usize]).collect())
        }

        fn pairs(&mut self) -> Vec<(u64, u64)> {
            let n = 1 + self.next() % 4;
            (0..n).map(|_| (self.int(), self.int())).collect()
        }

        fn record(&mut self) -> Record {
            let kind = match self.next() % 7 {
                0 => Kind::Enter {
                    name: self.name(),
                    step: self.int(),
                },
                1 => Kind::Exit { name: self.name() },
                2 => Kind::Counter {
                    name: self.name(),
                    value: self.int(),
                },
                3 => Kind::Histogram {
                    name: self.name(),
                    total: self.int(),
                    buckets: self.pairs(),
                },
                4 => Kind::Rows {
                    pass: self.name(),
                    src: self.name(),
                    block: self.int(),
                    step: self.int(),
                    rows: self.pairs(),
                },
                5 => Kind::Flow {
                    ph: [FlowPhase::Start, FlowPhase::Step, FlowPhase::Finish]
                        [(self.next() % 3) as usize],
                    corr: self.int(),
                    step: self.int(),
                },
                _ => Kind::Clock {
                    worker: self.int(),
                    offset: self.int() as i64 * if self.next().is_multiple_of(2) { -1 } else { 1 },
                    rtt: self.int(),
                },
            };
            let pid = if self.next().is_multiple_of(2) {
                0
            } else {
                self.int()
            };
            Record {
                t: self.int(),
                tid: self.int(),
                pid,
                kind,
            }
        }
    }

    #[test]
    fn jsonl_roundtrip_preserves_every_kind() {
        let mut draw = Draw(40);
        for _ in 0..4096 {
            let record = draw.record();
            let line = to_jsonl(&record);
            assert_eq!(parse_line(&line).as_ref(), Ok(&record), "{line}");
        }
    }

    /// One line per kind, verbatim from traces the sink wrote before the
    /// schema became one record type (a tensor-body quickstart, its tcp
    /// run and the merge of that run): the writer must reproduce each byte
    /// for byte.
    #[test]
    fn the_writer_reproduces_recorded_lines() {
        let golden = [
            r#"{"ev":"b","t":0,"tid":1,"step":0,"name":"tensor.gemm"}"#,
            r#"{"ev":"e","t":9,"tid":1,"name":"tensor.gemm.pack"}"#,
            r#"{"ev":"c","t":2221092,"tid":0,"name":"cluster.bytes.external","value":6064844}"#,
            r#"{"ev":"h","t":2221092,"tid":0,"name":"model.moe.bwd","total":394505,"buckets":[[128,9],[256,679],[512,124],[1024,14],[2048,14]]}"#,
            r#"{"ev":"x","t":498,"tid":1,"step":0,"name":"fwd","src":"model","block":0,"rows":[[0,48],[1,24],[2,40],[3,18],[4,26],[5,100]]}"#,
            r#"{"ev":"f","t":1847998,"tid":1,"step":1,"ph":"s","corr":283467841536}"#,
            r#"{"ev":"f","t":2319,"tid":1,"step":1,"ph":"t","corr":283467841536}"#,
            r#"{"ev":"f","t":1848463,"tid":1,"step":1,"ph":"f","corr":317827579904}"#,
            r#"{"ev":"k","t":1905999,"tid":0,"worker":1,"offset":-1905807,"rtt":36}"#,
            r#"{"ev":"b","t":1908116,"tid":1,"pid":2,"step":1,"name":"runtime.worker.serve"}"#,
        ];
        for line in golden {
            assert_eq!(to_jsonl(&ev(line)), line);
        }
    }

    /// The writer's integers agree with `Display` at both ends of their
    /// ranges, where a hand-written digit loop would go wrong first.
    #[test]
    fn the_writer_formats_integers_as_display_does() {
        for v in [0, 1, 9, 10, 99, 100, 1 << 53, u64::MAX - 1, u64::MAX] {
            for offset in [0, -1, v as i64, i64::MIN, i64::MAX] {
                let r = Record {
                    t: v,
                    tid: 1,
                    pid: v,
                    kind: Kind::Clock {
                        worker: v,
                        offset,
                        rtt: v,
                    },
                };
                let want = if v == 0 {
                    format!(r#"{{"ev":"k","t":0,"tid":1,"worker":0,"offset":{offset},"rtt":0}}"#)
                } else {
                    format!(
                        r#"{{"ev":"k","t":{v},"tid":1,"pid":{v},"worker":{v},"offset":{offset},"rtt":{v}}}"#
                    )
                };
                assert_eq!(to_jsonl(&r), want);
            }
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
