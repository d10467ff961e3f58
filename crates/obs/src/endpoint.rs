//! Live plain-text metrics endpoint.
//!
//! When `VELA_METRICS_ADDR` is set (e.g. `127.0.0.1:9188`), a detached
//! listener thread serves a point-in-time counter + histogram snapshot
//! to every connection and closes it — `nc 127.0.0.1 9188` mid-run
//! prints the current state of a long job without waiting for trace
//! files. Every span is a histogram of its durations in µs (its count
//! and total are the span's call count and wall time), so the snapshot
//! is also the live timing view. The output is plain text, one metric
//! per line, counters then histograms, each sorted by name, so two
//! snapshots diff cleanly:
//!
//! ```text
//! counter runtime.migration.chunks 62
//! histogram model.moe.group_rows count=10 total=208 16:7 32:3
//! histogram runtime.pipeline.serialize count=96 total=1874 8:30 16:61 32:5
//! ```
//!
//! Everything is `std`-only: one `TcpListener`, one thread, no HTTP.
//! Setting `VELA_METRICS_ADDR` implies at least
//! [`TraceMode::Counters`](crate::TraceMode::Counters) — a snapshot of
//! counters nobody records would always be empty.

use std::fmt::Write as _;
use std::io::Write as _;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};

/// The current counter + histogram snapshot in the endpoint's wire
/// format. Deterministically sorted by metric name (the snapshot
/// functions guarantee the order).
pub fn render() -> String {
    let mut out = String::new();
    for (name, value) in crate::counter_snapshot() {
        let _ = writeln!(out, "counter {name} {value}");
    }
    for (name, total, buckets) in crate::histogram_snapshot() {
        let count: u64 = buckets.iter().map(|&(_, n)| n).sum();
        let _ = write!(out, "histogram {name} count={count} total={total}");
        for (lo, count) in buckets {
            let _ = write!(out, " {lo}:{count}");
        }
        out.push('\n');
    }
    out
}

/// Bind `addr` and serve metric snapshots from a detached thread, one
/// connection at a time. Returns the bound address (pass `port` 0 to
/// let the OS pick, e.g. in tests).
pub fn serve(addr: &str) -> std::io::Result<SocketAddr> {
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    std::thread::Builder::new()
        .name("vela-metrics".into())
        .spawn(move || {
            for stream in listener.incoming() {
                if let Ok(mut sock) = stream {
                    let _ = sock.write_all(render().as_bytes());
                }
            }
        })?;
    Ok(local)
}

static STARTED: AtomicBool = AtomicBool::new(false);

/// Start the endpoint for `VELA_METRICS_ADDR` exactly once (the trace
/// mode initialiser may race). Bind failures are logged, not fatal —
/// observability must never take the workload down.
pub(crate) fn start_from_env(addr: &str) {
    if STARTED.swap(true, Ordering::SeqCst) {
        return;
    }
    match serve(addr) {
        Ok(local) => crate::info!("metrics endpoint listening on {local}"),
        Err(e) => crate::warn!("cannot serve metrics on {addr}: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use std::io::Read as _;
    use std::net::TcpStream;

    #[test]
    fn endpoint_serves_sorted_snapshot_per_connection() {
        crate::set_mode(crate::TraceMode::Counters);
        crate::counter("endpoint.test.zz").add(7);
        crate::counter("endpoint.test.aa").add(3);
        let addr = super::serve("127.0.0.1:0").expect("bind");
        // Two sequential connections each get a full snapshot.
        for _ in 0..2 {
            let mut sock = TcpStream::connect(addr).expect("connect");
            let mut body = String::new();
            sock.read_to_string(&mut body).expect("read");
            let aa = body.find("counter endpoint.test.aa 3").expect("aa line");
            let zz = body.find("counter endpoint.test.zz 7").expect("zz line");
            assert!(aa < zz, "metrics must be sorted by name:\n{body}");
        }
    }

    #[test]
    fn span_closes_are_served_with_count_and_total() {
        crate::set_mode(crate::TraceMode::Counters);
        for _ in 0..2 {
            let _s = crate::span("endpoint.test.span.zz");
        }
        {
            let _s = crate::span("endpoint.test.span.aa");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let body = super::render();
        let line_at = |name: &str, count: u64| {
            let (_, total, _) = crate::histogram_snapshot()
                .into_iter()
                .find(|(n, _, _)| n == name)
                .expect("span histogram");
            let line = format!("histogram {name} count={count} total={total} ");
            let at = body
                .find(&line)
                .unwrap_or_else(|| panic!("no `{line}` in:\n{body}"));
            (at, total)
        };
        let (aa, aa_total) = line_at("endpoint.test.span.aa", 1);
        let (zz, _) = line_at("endpoint.test.span.zz", 2);
        assert!(aa_total >= 2000, "the slept span's total is its µs");
        assert!(aa < zz, "metrics must be sorted by name:\n{body}");
    }
}
