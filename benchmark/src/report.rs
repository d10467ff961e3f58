//! Runs a workload and turns its rounds into the named metrics.

use std::collections::BTreeMap;
use std::time::Instant;

use vela::prelude::Placement;

use crate::json::Json;
use crate::layers;
use crate::reference::{median_of, Burst, Reference};
use crate::rounds::{real_round, virtual_round, Round};
use crate::stats::{all_equal, mean, median, percentile};
use crate::trace::{self, Span, ROUND_LOCAL};
use crate::workloads::{warm_up, RealInputs, Transport, VirtualInputs, Workload};

/// End-to-end metrics `(name, unit)`, measured with tracing off. Must match
/// `BENCHMARK.json`. The three times (`step_s_p50`, `tokens_per_s`,
/// `setup_s`) are scaled to the reference host, see [`crate::reference`].
pub const END_TO_END: &[(&str, &str)] = &[
    ("step_s_p50", "s"),
    ("tokens_per_s", "tokens/s"),
    ("external_bytes_per_step", "bytes"),
    ("wire_bytes_per_step", "bytes"),
    ("modelled_step_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics `(name, unit)`. Unit `s` marks a one-off duration
/// measured on every workload; `s/step` a per-step cost, 0 where the layer
/// does no work on the workload. Must match `BENCHMARK.json`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("tensor.gemm_gflops", "GFLOP/s"),
    ("tensor.gemm_nt_gflops", "GFLOP/s"),
    ("tensor.gemm_tn_gflops", "GFLOP/s"),
    ("tensor.allocs_per_step", "count"),
    ("nn.attention_s", "s/step"),
    ("nn.swiglu_s", "s/step"),
    ("nn.rmsnorm_s", "s/step"),
    ("nn.loss_s", "s/step"),
    ("nn.optim_s", "s/step"),
    ("data.batch_s", "s/step"),
    ("model.local_step_s", "s/step"),
    ("model.backbone_s", "s/step"),
    ("model.expert_fwd_s", "s/step"),
    ("model.expert_bwd_s", "s/step"),
    ("model.router_s", "s/step"),
    ("model.loss_final", "nats"),
    ("locality.profile_s", "s"),
    ("locality.concentration", "ratio"),
    ("placement.solve_s", "s"),
    ("placement.expected_external_bytes", "bytes"),
    ("placement.external_reduction_frac", "ratio"),
    ("cluster.modelled_comm_s", "s/step"),
    ("cluster.modelled_compute_s", "s/step"),
    ("cluster.modelled_sync_s", "s/step"),
    ("cluster.internal_bytes_per_step", "bytes"),
    ("cluster.sync_bytes_per_step", "bytes"),
    ("cluster.migration_bytes_per_step", "bytes"),
    ("runtime.launch_s", "s"),
    ("runtime.shutdown_s", "s"),
    ("runtime.step_s_p90", "s"),
    ("runtime.exchange_exposed_s", "s/step"),
    ("runtime.exchange_overhead_s", "s/step"),
    ("runtime.exchange_efficiency", "ratio"),
    ("runtime.frames_per_step", "count"),
    ("runtime.wire_header_bytes_per_step", "bytes"),
    ("runtime.wire_payload_bytes_per_step", "bytes"),
    ("runtime.wire_control_bytes_per_step", "bytes"),
    ("runtime.transport.step_s.channel", "s"),
    ("runtime.transport.step_s.tcp-threads", "s"),
    ("runtime.transport.step_s.tcp", "s"),
    ("runtime.migration_apply_s_p50", "s/apply"),
    ("runtime.migration_window_steps", "steps"),
    ("runtime.migration_blocked_s", "s/step"),
    ("bench.generate_s", "s"),
    ("bench.trace_overhead_frac", "ratio"),
    ("bench.reference_s", "s"),
];

/// Fewest rounds a timing median is taken over.
const MIN_ROUNDS: usize = 3;

/// What a run produced.
#[derive(Default)]
pub struct Report {
    pub values: BTreeMap<&'static str, f64>,
    /// The scaled end-to-end times as the clock read them, and the median
    /// reference burst they were scaled by.
    pub unscaled: Vec<(&'static str, f64, &'static str)>,
    /// Per-round raw values and run facts for the output file.
    pub detail: Vec<(&'static str, Json)>,
    pub attempted: usize,
    pub failed: usize,
    /// Correctness checks that did not hold; empty means correct.
    pub problems: Vec<String>,
    pub spans: Vec<Span>,
}

impl Report {
    fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    fn absorb(&mut self, label: &str, round: &Round) {
        self.attempted += round.attempted;
        self.failed += round.failed;
        self.problems
            .extend(round.problems.iter().map(|p| format!("{label}: {p}")));
    }
}

/// A workload's generated inputs and the way to run one round on them.
enum Inputs {
    Real(crate::workloads::RealSpec, RealInputs),
    Virtual(crate::workloads::VirtualSpec, VirtualInputs),
}

impl Inputs {
    fn generate(workload: &Workload, seed: u64) -> Self {
        match workload {
            Workload::Real(spec) => Inputs::Real(spec.clone(), RealInputs::generate(spec, seed)),
            Workload::Virtual(spec) => Inputs::Virtual(spec.clone(), VirtualInputs::generate(seed)),
        }
    }

    fn transport(&self) -> Transport {
        match self {
            Inputs::Real(spec, _) => spec.transport,
            Inputs::Virtual(..) => Transport::Channel,
        }
    }

    fn steps(&self) -> usize {
        match self {
            Inputs::Real(spec, _) => spec.steps,
            Inputs::Virtual(spec, _) => spec.steps,
        }
    }

    fn tokens_per_step(&self) -> usize {
        match self {
            Inputs::Real(spec, _) => spec.tokens_per_step(),
            Inputs::Virtual(_, inputs) => inputs.scale.tokens(),
        }
    }

    fn workers(&self) -> usize {
        match self {
            Inputs::Real(spec, _) => spec.workers().len(),
            Inputs::Virtual(_, inputs) => inputs.workers.len(),
        }
    }

    fn round(
        &self,
        transport: Transport,
        id: u32,
        reuse: Option<&Placement>,
        reference: &mut Reference,
    ) -> (Round, Placement) {
        match self {
            Inputs::Real(spec, inputs) => real_round(spec, inputs, transport, id, reuse, reference),
            Inputs::Virtual(spec, inputs) => {
                virtual_round(spec, inputs, transport, id, reuse, reference)
            }
        }
    }

    /// Steps (warm-up first) over which a distributed run must equal the
    /// single-worker one bit for bit: all of them, except that a migrated
    /// expert starts with fresh optimizer moments on its new worker, so
    /// parity ends at the first re-placement.
    fn parity_steps(&self) -> usize {
        match self {
            Inputs::Real(spec, _) => spec
                .replace_every
                .map_or(usize::MAX, |every| warm_up(spec.steps) + every),
            Inputs::Virtual(..) => 0,
        }
    }

    /// Losses of the single-worker run over the first `steps` timed steps
    /// (and the warm-up before them); `None` for the virtual engine.
    fn local_run(&self, steps: usize) -> Option<(Vec<f32>, Vec<f64>)> {
        match self {
            Inputs::Real(spec, inputs) => Some(layers::local_run(
                spec,
                inputs,
                steps as i64,
                warm_up(spec.steps) as i64,
            )),
            Inputs::Virtual(..) => None,
        }
    }
}

fn bits(losses: &[f32]) -> Vec<u32> {
    losses.iter().map(|l| l.to_bits()).collect()
}

/// Check (a): the distributed loss of each of the first `limit` steps the
/// local run covers equals the local run's bit for bit.
fn check_parity(report: &mut Report, label: &str, round: &Round, local: &[f32], limit: usize) {
    let n = local.len().min(round.losses.len()).min(limit);
    if let Some(i) = (0..n).find(|&i| local[i].to_bits() != round.losses[i].to_bits()) {
        report.problems.push(format!(
            "{label}: distributed loss {} != local loss {} at step {i} (warm-up first)",
            round.losses[i], local[i]
        ));
    }
}

/// Check (b): the deterministic quantities of two rounds are identical.
fn check_repeat(report: &mut Report, label: &str, first: &Round, other: &Round) {
    let same = first.external_bytes == other.external_bytes
        && first.internal_bytes == other.internal_bytes
        && first.sync_bytes == other.sync_bytes
        && first.migration_bytes == other.migration_bytes
        && first.wire == other.wire
        && first.frames == other.frames
        && all_equal(&[first.modelled_s(), other.modelled_s()])
        && bits(&first.losses) == bits(&other.losses);
    if !same {
        report.problems.push(format!(
            "{label}: deterministic metrics differ from round 0"
        ));
    }
}

/// Each burst as `[serial_s, parallel_s]`.
fn bursts_json(bursts: &[Burst]) -> Json {
    Json::Arr(
        bursts
            .iter()
            .map(|b| Json::nums(&[b.serial_s, b.parallel_s]))
            .collect(),
    )
}

fn round_json(r: &Round, tokens: usize) -> Json {
    Json::obj([
        ("setup_s", Json::Num(r.setup_s)),
        ("setup_scale", Json::Num(r.setup_scale())),
        ("step_scale", Json::Num(r.step_scale())),
        ("locality_s", Json::Num(r.locality_s)),
        ("solve_s", Json::Num(r.solve_s)),
        ("launch_s", Json::Num(r.launch_s)),
        ("shutdown_s", Json::Num(r.shutdown_s)),
        ("step_s_p50", Json::Num(median(&r.step_s))),
        ("step_s_p90", Json::Num(percentile(&r.step_s, 90.0))),
        ("loop_s", Json::Num(r.loop_s)),
        ("round_wall_s", Json::Num(r.wall_s)),
        ("round_cpu_s", Json::Num(r.cpu_s)),
        ("tokens_per_s", Json::Num(r.tokens_per_s(tokens))),
        ("external_bytes", Json::Num(r.external_bytes as f64)),
        ("wire_bytes", Json::Num(r.wire.total() as f64)),
        ("frames", Json::Num(r.frames as f64)),
        ("modelled_s", Json::Num(r.modelled_s())),
        ("migration_blocked_s", Json::Num(r.blocked_s)),
        ("step_s", Json::nums(&r.step_s)),
        ("step_bursts", bursts_json(&r.step_bursts)),
        ("setup_bursts", bursts_json(&r.setup_bursts)),
        ("apply_s", Json::nums(&r.apply_s)),
        ("window_steps", Json::nums(&r.window_steps)),
        (
            "loss_last",
            Json::Num(r.losses.last().copied().map_or(0.0, f64::from)),
        ),
    ])
}

/// Restarts the kernel's peak-RSS record of this process from its current
/// RSS. Best effort: where the write is refused the peak keeps whatever
/// came before.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// `VmHWM` of this process in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The end-to-end run: rounds with tracing off until `seconds` have been
/// spent measuring (never fewer than [`MIN_ROUNDS`]).
pub fn end_to_end(workload: &Workload, seed: u64, seconds: f64) -> Report {
    let mut report = Report::default();
    let (inputs, generate_s) = trace::timed("bench.generate", || Inputs::generate(workload, seed));
    let (steps, tokens) = (inputs.steps(), inputs.tokens_per_step());

    // Memory is what one launch costs: the peak from inputs ready to the
    // end of the first round. Later rounds reuse the process, and what
    // their threads leave behind in the allocator is not the program's.
    reset_peak_rss();
    let mut peak_rss = 0.0;
    let mut reference = Reference::new();
    let clock = Instant::now();
    let mut rounds: Vec<Round> = Vec::new();
    loop {
        let t0 = Instant::now();
        let (round, _) = inputs.round(
            inputs.transport(),
            rounds.len() as u32,
            None,
            &mut reference,
        );
        rounds.push(round);
        if rounds.len() == 1 {
            peak_rss = peak_rss_mb();
        }
        let spent = clock.elapsed().as_secs_f64();
        if rounds.len() >= MIN_ROUNDS && spent + t0.elapsed().as_secs_f64() > seconds {
            break;
        }
    }

    // The first steps of the single-worker run stand in for the whole of
    // it here; the traced run compares every step.
    let local = inputs.local_run(0);
    for (i, round) in rounds.iter().enumerate() {
        let label = format!("round {i}");
        report.absorb(&label, round);
        if let Some((losses, _)) = &local {
            check_parity(&mut report, &label, round, losses, inputs.parity_steps());
        }
        if i > 0 {
            check_repeat(&mut report, &label, &rounds[0], round);
        }
    }

    let per_round = |f: &dyn Fn(&Round) -> f64| rounds.iter().map(f).collect::<Vec<f64>>();
    let first = &rounds[0];
    let n = steps as f64;
    // Each round's times are scaled by the reference bursts taken inside
    // that round, so a host that changes speed mid-run is followed.
    report.set(
        "step_s_p50",
        median(&per_round(&|r| median(&r.step_s) * r.step_scale())),
    );
    report.set(
        "tokens_per_s",
        median(&per_round(&|r| r.tokens_per_s(tokens) / r.step_scale())),
    );
    report.set("external_bytes_per_step", first.external_bytes as f64 / n);
    report.set("wire_bytes_per_step", first.wire.total() as f64 / n);
    report.set("modelled_step_s", first.modelled_s() / n);
    report.set(
        "setup_s",
        median(&per_round(&|r| r.setup_s * r.setup_scale())),
    );
    report.set("peak_rss_mb", peak_rss);
    report.unscaled = vec![
        (
            "step_s_p50",
            median(&per_round(&|r| median(&r.step_s))),
            "s",
        ),
        (
            "tokens_per_s",
            median(&per_round(&|r| r.tokens_per_s(tokens))),
            "tokens/s",
        ),
        ("setup_s", median(&per_round(&|r| r.setup_s)), "s"),
        (
            "reference_s",
            median(&per_round(&|r| median_of(&r.step_bursts, Burst::total_s))),
            "s",
        ),
    ];

    report.detail = vec![
        ("generate_s", Json::Num(generate_s)),
        ("steps_per_round", Json::Num(n)),
        ("warm_up_steps_per_round", Json::Num(warm_up(steps) as f64)),
        (
            "rounds",
            Json::Arr(rounds.iter().map(|r| round_json(r, tokens)).collect()),
        ),
    ];
    report
}

/// The traced run: one round with tracing off, one with it on, the local
/// run, the probes, and a short round on each other transport.
pub fn per_layer(workload: &Workload, seed: u64) -> Report {
    let mut report = Report::default();
    let (inputs, generate_s) = trace::timed("bench.generate", || Inputs::generate(workload, seed));
    let (steps, tokens) = (inputs.steps(), inputs.tokens_per_step());
    let n = steps as f64;

    // The traced round goes first: the first round of a process also pays
    // for a cold heap, and the plain round feeds more of the rows below.
    let mut reference = Reference::new();
    trace::enable(true);
    let (traced, placement) = inputs.round(inputs.transport(), 1, None, &mut reference);
    trace::enable(false);
    let (plain, _) = inputs.round(inputs.transport(), 0, None, &mut reference);
    trace::enable(true);
    let local = inputs.local_run(steps);
    if let Inputs::Real(spec, real) = &inputs {
        for (name, value) in layers::probes(spec, real.cfg.vocab) {
            report.set(name, value);
        }
    }
    trace::enable(false);
    report.set(inputs.transport().metric(), median(&plain.step_s));
    let mut others = Vec::new();
    for (k, transport) in Transport::ALL.into_iter().enumerate() {
        if transport != inputs.transport() {
            let (round, _) =
                inputs.round(transport, 10 + k as u32, Some(&placement), &mut reference);
            report.set(transport.metric(), median(&round.step_s));
            others.push(round);
        }
    }
    let spans = trace::take();

    report.absorb("plain round", &plain);
    report.absorb("traced round", &traced);
    check_repeat(&mut report, "traced round", &plain, &traced);
    for (round, label) in others.iter().zip(["second transport", "third transport"]) {
        report.absorb(label, round);
        if bits(&round.losses) != bits(&plain.losses) {
            report.problems.push(format!(
                "{label}: losses differ from the workload's own transport"
            ));
        }
    }

    let step_p50 = median(&plain.step_s);
    // Local-run rows: seconds per step inside each layer.
    let (mut backbone, mut fwd, mut bwd, mut optim_master) = (0.0, 0.0, 0.0, 0.0);
    if let Some((losses, walls)) = &local {
        check_parity(
            &mut report,
            "plain round",
            &plain,
            losses,
            inputs.parity_steps(),
        );
        let row = |name: &str| trace::total(&spans, name, ROUND_LOCAL) / n;
        backbone = trace::self_total(&spans, "model.train_step", ROUND_LOCAL) / n;
        fwd = row("model.expert_fwd");
        bwd = row("model.expert_bwd");
        optim_master = row("nn.optim.backbone");
        let optim = optim_master + row("nn.optim.experts");
        let data = row("data.batch");
        let covered = (backbone + fwd + bwd + optim + data) / row("bench.local_step");
        if covered < 0.98 {
            report.problems.push(format!(
                "local-run rows cover {covered:.4} of the local step, below 0.98"
            ));
        }
        let timed = &walls[walls.len() - steps..];
        report.set("model.local_step_s", median(timed));
        report.set("model.backbone_s", backbone);
        report.set("model.expert_fwd_s", fwd);
        report.set("model.expert_bwd_s", bwd);
        report.set("nn.optim_s", optim);
        report.set("data.batch_s", data);
        let last = &plain.losses[plain.losses.len().saturating_sub(10)..];
        report.set(
            "model.loss_final",
            mean(&last.iter().map(|&l| f64::from(l)).collect::<Vec<_>>()),
        );
        report.detail.push(("local_rows_cover", Json::Num(covered)));
    }
    // Time per step the master spends inside the runtime, and what is left
    // of it after ideally-parallel expert compute.
    let exposed = step_p50 - backbone - optim_master;
    let ideal = (fwd + bwd) / inputs.workers() as f64;
    report.set("runtime.exchange_exposed_s", exposed);
    report.set("runtime.exchange_overhead_s", exposed - ideal);
    report.set("runtime.exchange_efficiency", ideal / exposed);

    let pooled: Vec<f64> = plain.step_s.iter().chain(&traced.step_s).copied().collect();
    report.set("runtime.step_s_p90", percentile(&pooled, 90.0));
    report.set(
        "bench.trace_overhead_frac",
        median(&traced.step_s) / step_p50 - 1.0,
    );
    report.set("bench.generate_s", generate_s);
    report.set(
        "bench.reference_s",
        median_of(&plain.step_bursts, Burst::total_s),
    );
    report.set("tensor.allocs_per_step", traced.allocs as f64 / n);

    let profile_s = match &inputs {
        Inputs::Real(..) => traced.locality_s,
        Inputs::Virtual(_, v) => v.profile_s,
    };
    report.set("locality.profile_s", profile_s);
    report.set("locality.concentration", traced.concentration);
    report.set("placement.solve_s", traced.solve_s);
    report.set(
        "placement.expected_external_bytes",
        traced.expected_external,
    );
    report.set(
        "placement.external_reduction_frac",
        1.0 - traced.expected_external / traced.sequential_external,
    );
    report.set("cluster.modelled_comm_s", plain.comm_s / n);
    report.set("cluster.modelled_compute_s", plain.compute_s / n);
    report.set("cluster.modelled_sync_s", plain.sync_s / n);
    report.set(
        "cluster.internal_bytes_per_step",
        plain.internal_bytes as f64 / n,
    );
    report.set("cluster.sync_bytes_per_step", plain.sync_bytes as f64 / n);
    report.set(
        "cluster.migration_bytes_per_step",
        plain.migration_bytes as f64 / n,
    );
    report.set("runtime.launch_s", traced.launch_s);
    report.set("runtime.shutdown_s", traced.shutdown_s);
    let w = plain.wire;
    report.set("runtime.frames_per_step", plain.frames as f64 / n);
    report.set(
        "runtime.wire_header_bytes_per_step",
        (w.dispatch_header + w.result_header + w.expert_state_header) as f64 / n,
    );
    report.set(
        "runtime.wire_payload_bytes_per_step",
        (w.dispatch_payload + w.result_payload + w.expert_state_payload) as f64 / n,
    );
    report.set("runtime.wire_control_bytes_per_step", w.control as f64 / n);
    if !plain.apply_s.is_empty() {
        report.set("runtime.migration_apply_s_p50", median(&plain.apply_s));
    }
    if !plain.window_steps.is_empty() {
        report.set(
            "runtime.migration_window_steps",
            median(&plain.window_steps),
        );
    }
    report.set("runtime.migration_blocked_s", plain.blocked_s / n);

    report.detail.extend([
        ("steps_per_round", Json::Num(n)),
        ("warm_up_steps_per_round", Json::Num(warm_up(steps) as f64)),
        ("step_s_p50", Json::Num(step_p50)),
        ("step_samples_pooled", Json::Num(pooled.len() as f64)),
        ("plain_round", round_json(&plain, tokens)),
        ("traced_round", round_json(&traced, tokens)),
    ]);
    report.spans = spans;
    report
}
