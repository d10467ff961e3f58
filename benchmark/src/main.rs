//! The end-to-end fine-tuning benchmark of the VELA reproduction.
//!
//! `vela-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! --out <dir>` runs one workload in this process, prints one
//! `name value unit` line per metric and, as the last line of standard
//! output, one JSON object `{correct, attempted, failed, metrics}`. With
//! `--trace 0` the metrics are the end-to-end ones, measured with tracing
//! off; with `--trace 1` the per-layer ones, from a traced round, the
//! single-worker run and the probes. See `benchmark/README.md`.

mod alloc_count;
mod json;
mod layers;
mod reference;
mod report;
mod rounds;
mod stats;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use json::Json;
use report::{Report, END_TO_END, PER_LAYER};

#[global_allocator]
static ALLOC: alloc_count::Counting = alloc_count::Counting;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 2025,
        seconds: 20.0,
        trace: false,
        out: PathBuf::from("benchmark/out"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: not {what}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| bad("a whole number"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("a number"))?;
                if args.seconds.is_nan() || args.seconds <= 0.0 {
                    return Err(bad("positive"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--out" => args.out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if workloads::by_name(&args.workload).is_none() {
        return Err(format!(
            "--workload must be one of {}",
            workloads::NAMES.join(", ")
        ));
    }
    Ok(args)
}

/// First line a command prints, or "unknown" (the driver's checkout is not
/// a git repository).
fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".into())
}

fn write_outputs(args: &Args, report: &Report, metrics: &Json, nproc: usize, threads: &str) {
    let kind = if args.trace { "layers" } else { "e2e" };
    let mut fields = vec![
        ("workload", Json::str(&args.workload)),
        ("trace", Json::Bool(args.trace)),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds)),
        ("nproc", Json::Num(nproc as f64)),
        ("VELA_THREADS", Json::str(threads)),
        (
            "git_commit",
            Json::str(first_line_of("git", &["rev-parse", "HEAD"])),
        ),
        ("rustc", Json::str(first_line_of("rustc", &["--version"]))),
        ("correct", Json::Bool(report.problems.is_empty())),
        ("attempted", Json::Num(report.attempted as f64)),
        ("failed", Json::Num(report.failed as f64)),
        (
            "problems",
            Json::Arr(report.problems.iter().map(Json::str).collect()),
        ),
        ("metrics", metrics.clone()),
        (
            "unscaled",
            Json::obj(report.unscaled.iter().map(|&(k, v, _)| (k, Json::Num(v)))),
        ),
        (
            "reference_nominal_s",
            Json::nums(&[reference::NOMINAL.serial_s, reference::NOMINAL.parallel_s]),
        ),
    ];
    fields.extend(report.detail.iter().cloned());
    let write = |path: &Path, bytes: &[u8]| {
        if let Err(e) = std::fs::write(path, bytes) {
            eprintln!("vela-benchmark: cannot write {}: {e}", path.display());
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.out) {
        eprintln!("vela-benchmark: cannot create {}: {e}", args.out.display());
        return;
    }
    let base = args.out.join(&args.workload);
    write(
        &base.with_extension(format!("{kind}.json")),
        format!("{}\n", Json::obj(fields)).as_bytes(),
    );
    if args.trace {
        let mut lines = Vec::new();
        trace::write_jsonl(&report.spans, &mut lines).expect("writing to memory");
        write(&base.with_extension("trace.jsonl"), &lines);
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("vela-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    // Master and workers share the host: on one core every timing would
    // measure the scheduler, the mistake BENCH_kernels.json made.
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    if nproc < 2 {
        eprintln!("vela-benchmark: {nproc} core available; timings need at least 2");
        return ExitCode::from(2);
    }
    // One compute thread per process, or master and workers oversubscribe
    // the cores; run.sh exports it so worker processes inherit it.
    let threads = std::env::var("VELA_THREADS").unwrap_or_default();
    if threads != "1" {
        eprintln!("vela-benchmark: VELA_THREADS must be 1 (use benchmark/run.sh)");
        return ExitCode::from(2);
    }

    let workload = workloads::by_name(&args.workload).expect("checked by parse_args");
    let (mut report, table) = if args.trace {
        (report::per_layer(&workload, args.seed), PER_LAYER)
    } else {
        (
            report::end_to_end(&workload, args.seed, args.seconds),
            END_TO_END,
        )
    };

    let mut metrics = Vec::new();
    for &(name, unit) in table {
        // A per-layer metric the workload has no work for reads 0; an
        // end-to-end metric is measured on every workload.
        let value = match report.values.get(name) {
            Some(&v) => v,
            None if args.trace => 0.0,
            None => panic!("end-to-end metric {name} was not measured"),
        };
        if !value.is_finite() {
            report.problems.push(format!("{name} is {value}"));
        }
        println!("{name} {value} {unit}");
        metrics.push((
            name,
            Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]),
        ));
    }
    let metrics = Json::obj(metrics);
    for (name, value, unit) in &report.unscaled {
        println!("unscaled.{name} {value} {unit}");
    }
    for p in &report.problems {
        eprintln!("vela-benchmark: INCORRECT: {p}");
    }
    write_outputs(&args, &report, &metrics, nproc, &threads);

    let correct = report.problems.is_empty() && report.failed == 0;
    println!(
        "{}",
        Json::obj([
            ("correct", Json::Bool(correct)),
            ("attempted", Json::Num(report.attempted as f64)),
            ("failed", Json::Num(report.failed as f64)),
            ("metrics", metrics),
        ])
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` is what the driver reads; the tables are what the
    /// binary prints. They must name the same metrics with the same units.
    #[test]
    fn benchmark_json_lists_every_metric_with_its_unit() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = text.matches("\"unit\":").count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len());
        for name in workloads::NAMES {
            assert!(text.contains(&format!("{{\"name\": \"{name}\", \"why\":")));
        }
    }
}
