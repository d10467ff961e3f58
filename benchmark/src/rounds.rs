//! One round of a workload: fresh launch, warm-up, timed steps, shutdown.
//!
//! Closed loop, one client: step *n+1* is issued when step *n* returns.

use std::time::Instant;

use vela::prelude::*;
use vela::runtime::WireStats;

use crate::alloc_count;
use crate::reference::{self, Burst, Reference};
use crate::trace;
use crate::workloads::{
    warm_up, RealInputs, RealSpec, Transport, VirtualInputs, VirtualSpec, EXPERTS, MASTER,
    PROFILE_BATCHES,
};

/// What one round measured. Sums run over the timed steps only.
#[derive(Debug, Default)]
pub struct Round {
    pub setup_s: f64,
    pub locality_s: f64,
    pub solve_s: f64,
    pub launch_s: f64,
    pub shutdown_s: f64,
    pub concentration: f64,
    /// `PlacementProblem::expected_external_bytes` of the Vela placement.
    pub expected_external: f64,
    /// The same for `Strategy::Sequential`, the reduction's base.
    pub sequential_external: f64,

    /// Wall seconds of each timed `train_step` / `step` call.
    pub step_s: Vec<f64>,
    /// Wall seconds of the whole timed loop: steps, data sampling and
    /// re-placement calls.
    pub loop_s: f64,
    /// Loss of every step, warm-up first (empty for the virtual engine).
    pub losses: Vec<f32>,
    pub external_bytes: u64,
    pub internal_bytes: u64,
    pub sync_bytes: u64,
    pub migration_bytes: u64,
    pub comm_s: f64,
    pub compute_s: f64,
    pub sync_s: f64,
    pub wire: WireStats,
    pub frames: u64,
    pub blocked_s: f64,
    pub apply_s: Vec<f64>,
    /// Steps each re-placement took to settle.
    pub window_steps: Vec<f64>,
    /// CPU seconds this process and the worker processes it reaped spent
    /// over the whole round, and the round's wall seconds.
    pub cpu_s: f64,
    pub wall_s: f64,
    /// Heap allocations in this process during the timed steps (traced
    /// rounds only).
    pub allocs: u64,
    /// The reference bursts taken between the timed steps, and those taken
    /// just before and just after the set-up.
    pub step_bursts: Vec<Burst>,
    pub setup_bursts: Vec<Burst>,

    pub attempted: usize,
    pub failed: usize,
    /// Correctness checks that did not hold.
    pub problems: Vec<String>,
}

impl Round {
    pub fn modelled_s(&self) -> f64 {
        self.comm_s + self.compute_s + self.sync_s
    }

    /// Tokens through the whole timed loop per wall second.
    pub fn tokens_per_s(&self, tokens_per_step: usize) -> f64 {
        (tokens_per_step * self.step_s.len()) as f64 / self.loop_s
    }

    /// What turns a time of the step loop into reference-host time: a
    /// step is the master alone, then two workers at once, like a burst.
    pub fn step_scale(&self) -> f64 {
        reference::scale(&self.step_bursts, Burst::total_s)
    }

    /// What turns the set-up time into reference-host time: the set-up
    /// computes on one thread, like the first half of a burst.
    pub fn setup_scale(&self) -> f64 {
        reference::scale(&self.setup_bursts, |b| b.serial_s)
    }

    fn add_traffic(&mut self, t: &vela::cluster::StepTraffic) {
        self.external_bytes += t.external_total();
        self.internal_bytes += t.internal_bytes;
        self.sync_bytes += t.sync_bytes;
        self.migration_bytes += t.migration_bytes;
    }

    fn add_step(&mut self, m: &StepMetrics, secs: f64) {
        self.step_s.push(secs);
        self.add_traffic(&m.traffic);
        self.comm_s += m.time.comm_s;
        self.compute_s += m.time.compute_s;
        self.sync_s += m.time.sync_s;
    }

    fn add_wire(&mut self, before: WireStats, after: WireStats) {
        self.wire = WireStats {
            dispatch_header: after.dispatch_header - before.dispatch_header,
            dispatch_payload: after.dispatch_payload - before.dispatch_payload,
            result_header: after.result_header - before.result_header,
            result_payload: after.result_payload - before.result_payload,
            expert_state_header: after.expert_state_header - before.expert_state_header,
            expert_state_payload: after.expert_state_payload - before.expert_state_payload,
            control: after.control - before.control,
        };
    }
}

/// User + system CPU seconds of this process (all threads) and of the
/// children it has waited for, from `/proc/self/stat`.
fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime is the 14th
    // field of the line, so the 12th after the closing parenthesis.
    let ticks: u64 = stat
        .rsplit_once(')')
        .map(|(_, rest)| rest.split_whitespace().skip(11).take(4))
        .into_iter()
        .flatten()
        .filter_map(|f| f.parse::<u64>().ok())
        .sum();
    ticks as f64 / 100.0
}

/// Reference bursts a round takes between its timed steps, evenly spaced.
const BURSTS_PER_ROUND: usize = 25;

/// Reference bursts taken before and again after a set-up.
const SETUP_BURSTS: usize = 8;

/// The counters read at the first timed step and again after the last.
struct LoopStart {
    clock: Instant,
    wire: WireStats,
    frames: (u64, u64),
}

impl LoopStart {
    fn now(wire: WireStats, frames: (u64, u64)) -> Self {
        if trace::enabled() {
            alloc_count::start();
        }
        LoopStart {
            clock: Instant::now(),
            wire,
            frames,
        }
    }

    fn finish(self, round: &mut Round, wire: WireStats, frames: (u64, u64)) {
        // The bursts ran inside the loop but are not the program's time.
        round.loop_s = self.clock.elapsed().as_secs_f64()
            - round.step_bursts.iter().map(Burst::total_s).sum::<f64>();
        if trace::enabled() {
            round.allocs = alloc_count::stop();
        }
        round.add_wire(self.wire, wire);
        round.frames = (frames.0 - self.frames.0) + (frames.1 - self.frames.1);
    }
}

/// Set-up of a real-tensor round: inputs ready → first step possible.
fn launch_real(
    spec: &RealSpec,
    inputs: &RealInputs,
    transport: Transport,
    reuse: Option<&Placement>,
    reference: &mut Reference,
    out: &mut Round,
) -> RealRuntime {
    let (mut model, mut experts) = inputs.fresh_model();
    let topology = Topology::paper_testbed();
    let workers = spec.workers();
    reference.bursts(SETUP_BURSTS, &mut out.setup_bursts);
    let (rt, setup_s) = trace::timed("bench.setup", || {
        let placement = match reuse {
            Some(p) => p.clone(),
            None => {
                let (profile, locality_s) = trace::timed("locality.profile", || {
                    measure_locality(
                        &mut model,
                        &mut experts,
                        &inputs.dataset,
                        spec.batch,
                        PROFILE_BATCHES,
                    )
                });
                let problem = PlacementProblem::new(
                    topology.clone(),
                    MASTER,
                    workers.clone(),
                    profile.to_matrix(),
                    (spec.tokens_per_step() * spec.top_k) as f64,
                    (spec.dim * 4) as u64,
                    PlacementProblem::even_capacities(spec.blocks, EXPERTS, workers.len(), 0),
                );
                let (placement, solve_s) =
                    trace::timed("placement.solve", || Strategy::Vela.place(&problem));
                out.locality_s = locality_s;
                out.solve_s = solve_s;
                out.concentration = profile.mean_concentration();
                out.expected_external = problem.expected_external_bytes(&placement);
                out.sequential_external =
                    problem.expected_external_bytes(&Strategy::Sequential.place(&problem));
                placement
            }
        };
        let mut placed = ReplicatedPlacement::from(&placement);
        if spec.replace_every.is_some() {
            // One replica to keep in sync: the last expert of each block,
            // on the worker that does not own it.
            for block in 0..spec.blocks {
                let other = 1 - placement.worker_of(block, EXPERTS - 1);
                placed.add_replica(block, EXPERTS - 1, other);
            }
        }
        let (rt, launch_s) = trace::timed("runtime.launch", || {
            RealRuntime::launch_with(
                transport.config(),
                model,
                experts,
                placed,
                topology.clone(),
                MASTER,
                workers.clone(),
                AdamWConfig::default(),
            )
        });
        out.launch_s = launch_s;
        rt
    });
    out.setup_s = setup_s;
    reference.bursts(SETUP_BURSTS, &mut out.setup_bursts);
    rt
}

/// The current primaries with experts 0–3 of every block on the other worker.
fn swapped(current: &Placement) -> Placement {
    let mut target = current.clone();
    for block in 0..current.blocks() {
        for expert in 0..4 {
            target.set_worker(block, expert, 1 - current.worker_of(block, expert));
        }
    }
    target
}

/// One round of a real-tensor workload over `transport`, labelled `id` in
/// the trace. With `reuse`, set-up skips the locality measurement and the
/// solve and launches on that placement.
pub fn real_round(
    spec: &RealSpec,
    inputs: &RealInputs,
    transport: Transport,
    id: u32,
    reuse: Option<&Placement>,
    reference: &mut Reference,
) -> (Round, Placement) {
    let mut out = Round::default();
    let (cpu0, wall0) = (cpu_seconds(), Instant::now());
    trace::at(id, None);
    let mut rt = launch_real(spec, inputs, transport, reuse, reference, &mut out);
    let launched = rt.placement().primaries();

    let mut rng = inputs.batch_rng();
    let warm = warm_up(spec.steps) as i64;
    let burst_every = (spec.steps / BURSTS_PER_ROUND).max(1);
    let mut start = None;
    // The re-placement target still settling and the steps it has taken.
    let mut settling: Option<(Placement, usize)> = None;
    for i in -warm..spec.steps as i64 {
        trace::at(id, Some(i));
        if i == 0 {
            start = Some(LoopStart::now(rt.wire_stats(), rt.frame_counts()));
        }
        if i > 0 && spec.replace_every.is_some_and(|n| i % n as i64 == 0) {
            let target = swapped(&rt.placement().primaries());
            let (handle, secs) =
                trace::timed("runtime.apply_placement", || rt.apply_placement(&target));
            match handle {
                Ok(handle) => {
                    out.apply_s.push(secs);
                    out.add_traffic(&handle.traffic);
                    settling = Some((target, 0));
                }
                Err(e) => {
                    out.problems
                        .push(format!("apply_placement before step {i}: {e}"));
                    break;
                }
            }
        }
        if settling.is_some() && rt.migrations_in_flight() == 0 {
            let (target, steps) = settling.take().expect("checked above");
            out.window_steps.push(steps as f64);
            if rt.placement().primaries() != target {
                out.problems
                    .push(format!("re-placement before step {i} settled off target"));
            }
        }

        let (result, _) = trace::timed("bench.step", || {
            let (batch, _) = trace::timed("data.batch", || {
                inputs.dataset.sample_batch(spec.batch, spec.seq, &mut rng)
            });
            trace::timed("runtime.train_step", || {
                rt.train_step(
                    &batch.inputs,
                    &batch.targets,
                    batch.batch_size,
                    batch.seq_len,
                )
            })
        });
        let (metrics, secs) = match result {
            (Ok(m), secs) => (m, secs),
            (Err(e), _) => {
                out.problems.push(format!("step {i}: {e}"));
                break;
            }
        };
        match metrics.loss {
            Some(loss) if loss.is_finite() => out.losses.push(loss),
            loss => {
                out.problems.push(format!("step {i}: loss {loss:?}"));
                break;
            }
        }
        if i >= 0 {
            out.add_step(&metrics, secs);
            if (i as usize).is_multiple_of(burst_every) {
                out.step_bursts.push(reference.burst());
            }
        }
        if let Some((_, steps)) = &mut settling {
            *steps += 1;
        }
    }
    // After a failure the rest of the round counts as failed.
    out.attempted = warm as usize + spec.steps;
    out.failed = out.attempted - out.losses.len();

    if let Some(start) = start {
        start.finish(&mut out, rt.wire_stats(), rt.frame_counts());
    }
    if settling.is_some() {
        out.problems.push("a re-placement never settled".into());
    }
    if !out.apply_s.is_empty() && out.migration_bytes == 0 {
        out.problems
            .push("re-placements moved no parameter bytes".into());
    }
    out.blocked_s = rt.migration_blocked_secs();
    trace::at(id, None);
    let (_, shutdown_s) = trace::timed("runtime.shutdown", || rt.shutdown());
    out.shutdown_s = shutdown_s;
    out.cpu_s = cpu_seconds() - cpu0;
    out.wall_s = wall0.elapsed().as_secs_f64();
    (out, launched)
}

/// One round of the virtual workload: solve at Mixtral scale, launch six
/// echo workers, step with header-only frames.
pub fn virtual_round(
    spec: &VirtualSpec,
    inputs: &VirtualInputs,
    transport: Transport,
    id: u32,
    reuse: Option<&Placement>,
    reference: &mut Reference,
) -> (Round, Placement) {
    let mut out = Round::default();
    let (cpu0, wall0) = (cpu_seconds(), Instant::now());
    trace::at(id, None);
    reference.bursts(SETUP_BURSTS, &mut out.setup_bursts);
    let ((mut engine, placement), setup_s) = trace::timed("bench.setup", || {
        let placement = match reuse {
            Some(p) => p.clone(),
            None => {
                let problem = inputs.problem();
                let (placement, solve_s) =
                    trace::timed("placement.solve", || Strategy::Vela.place(&problem));
                out.solve_s = solve_s;
                out.concentration = inputs.profile.mean_concentration();
                out.expected_external = problem.expected_external_bytes(&placement);
                out.sequential_external =
                    problem.expected_external_bytes(&Strategy::Sequential.place(&problem));
                if !placement.respects_capacities(problem.capacities()) {
                    out.problems.push("placement exceeds a capacity".into());
                }
                if out.expected_external >= out.sequential_external {
                    out.problems
                        .push("Vela placement does not reduce external bytes".into());
                }
                placement
            }
        };
        let (engine, launch_s) = trace::timed("runtime.launch", || {
            VirtualEngine::launch_with(
                transport.config(),
                inputs.topology.clone(),
                MASTER,
                inputs.workers.clone(),
                placement.clone(),
                inputs.profile.clone(),
                inputs.scale.clone(),
            )
        });
        out.launch_s = launch_s;
        (engine, placement)
    });
    out.setup_s = setup_s;
    reference.bursts(SETUP_BURSTS, &mut out.setup_bursts);

    let warm = warm_up(spec.steps) as i64;
    let burst_every = (spec.steps / BURSTS_PER_ROUND).max(1);
    let mut start = None;
    for i in -warm..spec.steps as i64 {
        trace::at(id, Some(i));
        if i == 0 {
            start = Some(LoopStart::now(engine.wire_stats(), engine.frame_counts()));
        }
        let ((metrics, secs), _) = trace::timed("bench.step", || {
            trace::timed("runtime.step", || engine.step())
        });
        if i >= 0 {
            out.add_step(&metrics, secs);
            if (i as usize).is_multiple_of(burst_every) {
                out.step_bursts.push(reference.burst());
            }
        }
    }
    out.attempted = warm as usize + spec.steps;
    start.expect("at least one timed step").finish(
        &mut out,
        engine.wire_stats(),
        engine.frame_counts(),
    );
    trace::at(id, None);
    let (_, shutdown_s) = trace::timed("runtime.shutdown", || engine.shutdown());
    out.shutdown_s = shutdown_s;
    out.cpu_s = cpu_seconds() - cpu0;
    out.wall_s = wall0.elapsed().as_secs_f64();
    (out, placement)
}
