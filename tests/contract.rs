//! The one contract (the paper's §V-A claim): distributed fine-tuning
//! computes exactly what single-process fine-tuning computes.
//!
//! A [`Scenario`] drawn from `DetRng(seed)` picks the engine, a model shape,
//! batches and steps, a transport, a placement and a re-placement schedule
//! with its target: new owners, or a replica relation that adds, drops and
//! moves copies. One invariant: on real tensors each step's loss bits and
//! routing, the eval loss and every final parameter's bits equal the
//! single-process oracle's, which replays a re-placement as the runtime
//! schedules it by dropping the AdamW moments of every expert that gains a
//! copy at its cutover; `StepMetrics`
//! and ledger bytes are equal across transports; and `sync_bytes > 0` exactly
//! on the steps whose placement is replicated. A failing seed is printed with
//! a greedily shrunk scenario. Named seeds keep the arms of the retired
//! parity grids, beside the golden pins and the migration API facts.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use vela::cluster::TrafficLedger;
use vela::model::finetune::prepare_for_finetune;
use vela::model::provider::ExpertBatch;
use vela::model::RoutingInfo;
use vela::nn::param::Module;
use vela::placement::replicate_by_cost;
use vela::prelude::*;
use vela::runtime::transport::build_star;
use vela::runtime::worker::{ExpertManager, WorkerBootstrap};
use vela::runtime::{BrokerClient, Message, WireStats};

/// Seeds the sweep draws: a property of the build, not an option.
const SEEDS: u64 = if cfg!(debug_assertions) { 64 } else { 512 };

type Transport = (&'static str, fn() -> TransportConfig);
const TRANSPORTS: [Transport; 3] = [
    ("channel", TransportConfig::channel),
    ("tcp-threads", TransportConfig::tcp_threads),
    ("tcp", TransportConfig::tcp_processes),
];

#[derive(Clone, Copy, Debug, PartialEq)]
enum Arrange {
    Sequential,
    Random,
    AllOnOne,
    /// Sequential, with replicas grafted onto the first and last expert.
    Grafted,
    /// Sequential, with `budget:1.0` replicas chosen by the cost model.
    Budget,
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum Replace {
    None,
    /// `apply_placement` (or `apply_relation`), the lanes cut over under
    /// the following steps.
    Streamed,
    /// The same + `finish_migrations` at one boundary.
    Flushed,
}

#[derive(Clone, Debug)]
struct Scenario {
    seed: u64,
    /// Real tensors (checked against the oracle) or the virtual engine.
    real: bool,
    /// LoRA adapters on a frozen base, or every tensor trainable.
    lora: bool,
    blocks: usize,
    experts: usize,
    top_k: usize,
    workers: usize,
    batch: usize,
    steps: usize,
    transport: usize,
    arrange: Arrange,
    replace: Replace,
    /// Steps taken before the re-placement is requested.
    replace_at: usize,
    /// The re-placement targets a replica relation (`apply_relation`)
    /// rather than new owners (`apply_placement`).
    relation: bool,
}

fn optim() -> AdamWConfig {
    AdamWConfig {
        lr: 3e-3,
        ..AdamWConfig::default()
    }
}

impl Scenario {
    fn draw(seed: u64) -> Self {
        use Arrange::*;
        let mut rng = DetRng::new(seed);
        let real = rng.below(4) != 0;
        let (blocks, experts) = (1 + rng.below(3), 2 + rng.below(5));
        let top_k = 1 + rng.below(experts.min(2));
        let (workers, batch, steps) = (1 + rng.below(6), 1 + rng.below(2), 1 + rng.below(6));
        let arrange = [Sequential, Random, AllOnOne, Grafted, Budget][rng.below(5)];
        let replace = [Replace::None, Replace::Streamed, Replace::Flushed][rng.below(3)];
        Scenario {
            seed,
            real,
            lora: rng.chance(0.5),
            blocks,
            experts,
            top_k,
            workers,
            batch,
            steps,
            transport: rng.below(3),
            arrange,
            replace: if real { replace } else { Replace::None },
            replace_at: rng.below(steps.div_ceil(2)),
            relation: rng.chance(0.5),
        }
    }

    /// One-step-smaller variants, in the order the shrinker tries them.
    fn smaller(&self) -> Vec<Scenario> {
        let mut out = Vec::new();
        let mut push = |ok: bool, f: &dyn Fn(&mut Scenario)| {
            if ok {
                let mut s = self.clone();
                f(&mut s);
                out.push(s);
            }
        };
        push(self.steps > 1, &|s| {
            s.steps -= 1;
            s.replace_at = s.replace_at.min(s.steps - 1);
        });
        push(self.blocks > 1, &|s| s.blocks -= 1);
        push(self.experts > 2, &|s| {
            s.experts -= 1;
            s.top_k = s.top_k.min(s.experts);
        });
        push(self.workers > 1, &|s| s.workers -= 1);
        push(self.replace != Replace::None, &|s| {
            s.replace = Replace::None
        });
        push(self.relation, &|s| s.relation = false);
        out
    }

    fn cfg(&self) -> ModelConfig {
        ModelConfig {
            blocks: self.blocks,
            experts: self.experts,
            top_k: self.top_k,
            ..ModelConfig::test_small()
        }
    }

    fn devices(&self) -> Vec<DeviceId> {
        (0..self.workers).map(DeviceId).collect()
    }

    fn build(&self) -> (MoeModel, LocalExpertStore) {
        let (mut model, mut experts) = MoeModel::new(&self.cfg(), &mut DetRng::new(self.seed));
        if self.lora {
            let rng = &mut DetRng::new(self.seed + 1);
            prepare_for_finetune(&mut model, &mut experts, LoraConfig::default(), rng);
        }
        (model, experts)
    }

    fn placement(&self) -> ReplicatedPlacement {
        let (w, last) = (self.workers, self.experts - 1);
        let mut rng = DetRng::new(self.seed ^ 0x5eed);
        let assign = (0..self.blocks)
            .map(|_| {
                (0..self.experts)
                    .map(|e| match self.arrange {
                        Arrange::Random => rng.below(w),
                        Arrange::AllOnOne => self.seed as usize % w,
                        _ => e % w,
                    })
                    .collect()
            })
            .collect();
        let base = Placement::new(assign, w);
        let mut placed = ReplicatedPlacement::from(&base);
        match self.arrange {
            Arrange::Grafted => {
                for l in 0..self.blocks {
                    placed.add_replica(l, 0, 1 % w);
                    placed.add_replica(l, 0, 2 % w);
                    placed.add_replica(l, last, 0);
                }
            }
            Arrange::Budget => {
                let profile =
                    LocalityProfile::synthetic("skew", self.blocks, self.experts, 1.5, self.seed);
                let problem = self.problem(profile.to_matrix());
                placed = replicate_by_cost(&base, &problem, 1.0);
            }
            _ => {}
        }
        placed
    }

    /// The placement LP's problem for `probs` on this scenario's workers.
    fn problem(&self, probs: Vec<Vec<f64>>) -> PlacementProblem {
        let cfg = self.cfg();
        let tokens = (self.batch * cfg.seq_len * cfg.top_k) as f64;
        let bytes = cfg.dim as u64 * 4;
        let slots = PlacementProblem::even_capacities(cfg.blocks, cfg.experts, self.workers, 2);
        let (topology, devices) = (Topology::paper_testbed(), self.devices());
        PlacementProblem::new(topology, DeviceId(0), devices, probs, tokens, bytes, slots)
    }

    /// Every expert scattered, then the replicated pairs sent alternately
    /// onto one of their replicas and off their replica set (a lane move of
    /// a replicated expert), where the workers allow it.
    fn owners(&self, placed: &ReplicatedPlacement) -> Placement {
        let mut rng = DetRng::new(self.seed ^ 0x7a46);
        let mut target = placed.primaries();
        for l in 0..self.blocks {
            for e in 0..self.experts {
                target.set_worker(l, e, rng.below(self.workers));
            }
        }
        for (i, (l, e)) in placed.replicated_pairs().into_iter().enumerate() {
            let reps = placed.replicas_of(l, e);
            let off: Vec<usize> = (0..self.workers).filter(|w| !reps.contains(w)).collect();
            let off_set = i % 2 == 1 && !off.is_empty();
            let to = if off_set {
                off[rng.below(off.len())]
            } else {
                reps[1]
            };
            target.set_worker(l, e, to);
        }
        target
    }

    /// Each expert keeps its copies, gains one, drops one (the primary's
    /// moves the expert onto its other copies), or trades one for a worker
    /// off its replica set (an add plus a drop), where the workers allow it.
    fn relation_target(&self, placed: &ReplicatedPlacement) -> ReplicatedPlacement {
        let mut rng = DetRng::new(self.seed ^ 0x4e1a);
        let relation = (0..self.blocks)
            .map(|l| {
                (0..self.experts)
                    .map(|e| {
                        let mut reps = placed.replicas_of(l, e).to_vec();
                        let off: Vec<usize> =
                            (0..self.workers).filter(|w| !reps.contains(w)).collect();
                        match rng.below(4) {
                            1 if !off.is_empty() => reps.push(off[rng.below(off.len())]),
                            2 if reps.len() > 1 => {
                                reps.remove(rng.below(reps.len()));
                            }
                            3 if !off.is_empty() => {
                                let i = rng.below(reps.len());
                                reps[i] = off[rng.below(off.len())];
                            }
                            _ => {}
                        }
                        reps[1..].sort_unstable();
                        reps
                    })
                    .collect()
            })
            .collect();
        ReplicatedPlacement::new(relation, self.workers)
    }

    /// The placement the re-placement settles on.
    fn target(&self, placed: &ReplicatedPlacement) -> ReplicatedPlacement {
        if self.relation {
            self.relation_target(placed)
        } else {
            placed.with_primaries(&self.owners(placed))
        }
    }

    /// The experts whose replica set the re-placement changes, in plan
    /// order, as `(block, expert, gains a copy)`: only those take a lane.
    fn moves(&self, placed: &ReplicatedPlacement) -> Vec<(usize, usize, bool)> {
        if self.replace == Replace::None {
            return Vec::new();
        }
        let target = self.target(placed);
        let mut out = Vec::new();
        for l in 0..self.blocks {
            for e in 0..self.experts {
                let (now, to) = (placed.replicas_of(l, e), target.replicas_of(l, e));
                let gains = to.iter().any(|w| !now.contains(w));
                if gains || now.len() > to.len() {
                    out.push((l, e, gains));
                }
            }
        }
        out
    }

    /// The oracle's moment resets, `(steps taken, block, expert)`: a flush
    /// cuts every lane over where it is applied, a stream two lanes at each
    /// later boundary, in plan order. An expert that only drops copies
    /// keeps its moments.
    fn resets(&self, placed: &ReplicatedPlacement) -> Vec<(usize, usize, usize)> {
        let lanes = self.moves(placed).into_iter().filter(|m| m.2);
        lanes
            .enumerate()
            .map(|(i, (l, e, _))| match self.replace {
                Replace::Streamed => (self.replace_at + i / 2 + 1, l, e),
                _ => (self.replace_at, l, e),
            })
            .collect()
    }

    /// The step batches, then the eval batch.
    fn batches(&self) -> Vec<(Vec<usize>, Vec<usize>)> {
        let mut rng = DetRng::new(self.seed ^ 0xba7c);
        let (vocab, n) = (self.cfg().vocab, self.batch * self.cfg().seq_len);
        let mut draw = || (0..n).map(|_| rng.below(vocab)).collect::<Vec<_>>();
        (0..=self.steps).map(|_| (draw(), draw())).collect()
    }
}

/// What a real-tensor run is held to.
#[derive(Default)]
struct Trace {
    losses: Vec<u32>,
    routing: Vec<Vec<RoutingInfo>>,
    eval: u32,
    params: Vec<(String, Vec<u32>)>,
}

fn param_bits(model: &mut MoeModel, experts: &mut LocalExpertStore) -> Vec<(String, Vec<u32>)> {
    let mut out = Vec::new();
    let mut visit = |p: &mut vela::nn::param::Param| {
        let bits = p.value.as_slice().iter().map(|v| v.to_bits()).collect();
        out.push((p.name().to_string(), bits));
    };
    model.visit_params(&mut visit);
    experts.visit_params(&mut visit);
    out
}

/// Single-process fine-tuning with the same moment resets.
fn oracle(s: &Scenario) -> Trace {
    let (mut model, mut experts) = s.build();
    let (mut opt_m, mut opt_e) = (AdamW::new(optim()), AdamW::new(optim()));
    let resets = s.resets(&s.placement());
    let (batches, seq) = (s.batches(), s.cfg().seq_len);
    let mut trace = Trace::default();
    for (step, (inputs, targets)) in batches[..s.steps].iter().enumerate() {
        for &(_, l, e) in resets.iter().filter(|r| r.0 == step) {
            let ffn = experts.expert_mut(l, e);
            ffn.visit_params(&mut |p| drop(opt_e.take_moments(p.name())));
        }
        experts.zero_grad();
        let stats = model.train_step(inputs, targets, s.batch, seq, &mut experts);
        opt_m.step(&mut model);
        opt_e.step(&mut experts);
        trace.losses.push(stats.loss.to_bits());
        trace.routing.push(stats.routing);
    }
    let (inputs, targets) = &batches[s.steps];
    let eval = model.evaluate(inputs, targets, s.batch, seq, &mut experts);
    trace.eval = eval.to_bits();
    trace.params = param_bits(&mut model, &mut experts);
    trace
}

/// Launches `(model, experts)` on `placement`, one worker per device.
fn launch(
    transport: TransportConfig,
    (model, experts): (MoeModel, LocalExpertStore),
    placement: ReplicatedPlacement,
    devices: Vec<DeviceId>,
) -> RealRuntime {
    let (topology, master) = (Topology::paper_testbed(), DeviceId(0));
    RealRuntime::launch_with(
        transport,
        model,
        experts,
        placement,
        topology,
        master,
        devices,
        optim(),
    )
}

macro_rules! ensure {
    ($cond:expr, $($why:tt)+) => {
        if !$cond {
            return Err(format!($($why)+));
        }
    };
}

/// `s` on `transport`: its trace, step metrics and migration-bucket bytes.
fn distributed(
    s: &Scenario,
    transport: TransportConfig,
) -> Result<(Trace, Vec<StepMetrics>, u64), String> {
    let placed = s.placement();
    let mut rt = launch(transport, s.build(), placed.clone(), s.devices());
    let (moves, batches, seq) = (s.moves(&placed), s.batches(), s.cfg().seq_len);
    let lanes = moves.iter().filter(|m| m.2).count();
    let (mut trace, mut metrics) = (Trace::default(), Vec::new());
    let fail = |e: vela::runtime::TransportError| e.to_string();
    for (step, (inputs, targets)) in batches[..s.steps].iter().enumerate() {
        if s.replace != Replace::None && step == s.replace_at {
            let handle = if s.relation {
                rt.apply_relation(&s.target(&placed))
            } else {
                rt.apply_placement(&s.owners(&placed))
            };
            let handle = handle.map_err(fail)?;
            let got = (handle.moved, handle.in_flight);
            ensure!(got == (moves.len(), lanes), "apply admitted {got:?}");
            if s.replace == Replace::Flushed {
                let cut = rt.finish_migrations().map_err(fail)?;
                ensure!(cut == lanes, "the flush cut {cut} lanes over");
            }
        }
        let replicated = !rt.placement().is_degree_one();
        let m = rt.train_step(inputs, targets, s.batch, seq).map_err(fail)?;
        synced(&m, replicated)?;
        trace.losses.push(m.loss.expect("real loss").to_bits());
        trace.routing.push(rt.model().routing_snapshot());
        metrics.push(m);
    }
    if s.replace != Replace::None {
        rt.finish_migrations().map_err(fail)?;
        let settled = rt.placement() == &s.target(&placed);
        ensure!(settled, "the re-placement settled off its target");
    }
    let (inputs, targets) = &batches[s.steps];
    trace.eval = rt.evaluate(inputs, targets, s.batch, seq).to_bits();
    let migration_bytes = rt.migration_bytes();
    let (mut model, mut experts) = rt.shutdown();
    trace.params = param_bits(&mut model, &mut experts);
    Ok((trace, metrics, migration_bytes))
}

/// Virtual `s` on `transport`, its sync bytes checked: metrics and frames.
fn virtual_run(
    s: &Scenario,
    transport: TransportConfig,
) -> Result<(Vec<StepMetrics>, (u64, u64)), String> {
    let mut scale = ScaleConfig::paper_default(s.cfg().spec());
    (scale.batch, scale.seq, scale.drift, scale.seed) = (s.batch, 16, 1e-3, s.seed);
    let profile = LocalityProfile::synthetic("contract", s.blocks, s.experts, 1.2, s.seed);
    let placed = s.placement();
    let replicated = !placed.is_degree_one();
    let (metrics, frames) = run_virtual(transport, placed, profile, scale, s.steps);
    metrics.iter().try_for_each(|m| synced(m, replicated))?;
    Ok((metrics, frames))
}

/// The sync half of the invariant for one step.
fn synced(m: &StepMetrics, replicated: bool) -> Result<(), String> {
    let (step, sync) = (m.step, m.traffic.sync_bytes);
    ensure!((sync > 0) == replicated, "step {step}: {sync} sync bytes");
    Ok(())
}

/// `steps` virtual steps, one worker per device: metrics and frame counts.
fn run_virtual(
    transport: TransportConfig,
    placement: ReplicatedPlacement,
    profile: LocalityProfile,
    scale: ScaleConfig,
    steps: usize,
) -> (Vec<StepMetrics>, (u64, u64)) {
    let devices = (0..placement.workers()).map(DeviceId).collect();
    let (topology, master) = (Topology::paper_testbed(), DeviceId(0));
    let mut engine = VirtualEngine::launch_with(
        transport, topology, master, devices, placement, profile, scale,
    );
    let metrics = engine.run(steps);
    let frames = engine.frame_counts();
    engine.shutdown();
    (metrics, frames)
}

/// `Err` naming the first of `got` that differs from `want`.
fn agree<T: PartialEq>(what: &str, got: &[T], want: &[T]) -> Result<(), String> {
    match (0..got.len().max(want.len())).find(|&i| got.get(i) != want.get(i)) {
        Some(i) => Err(format!("{what} differs from the oracle at index {i}")),
        None => Ok(()),
    }
}

/// The invariant: the scenario on its transport, and on `channel` when that
/// is another one, against the oracle and against each other.
fn check(s: &Scenario) -> Result<(), String> {
    let mut labels = vec![0, s.transport];
    labels.dedup();
    if !s.real {
        let runs = labels.iter().map(|&t| virtual_run(s, TRANSPORTS[t].1()));
        let runs = runs.collect::<Result<Vec<_>, _>>()?;
        let same = runs.windows(2).all(|r| r[0] == r[1]);
        ensure!(same, "virtual metrics or frames differ across transports");
        return Ok(());
    }
    let want = oracle(s);
    let mut seen = None;
    for t in labels {
        let (label, transport) = TRANSPORTS[t];
        let (got, metrics, migration_bytes) = distributed(s, transport())?;
        let at = |what: &str| format!("{label}: {what}");
        agree(&at("loss of a step"), &got.losses, &want.losses)?;
        agree(&at("routing of a step"), &got.routing, &want.routing)?;
        agree(&at("eval loss"), &[got.eval], &[want.eval])?;
        agree(&at("a parameter"), &got.params, &want.params)?;
        let ledger = Some((metrics, migration_bytes));
        let moved = seen.is_some() && seen != ledger;
        ensure!(!moved, "{label}: StepMetrics or migration bytes moved");
        seen = ledger;
    }
    if s.replace == Replace::Streamed {
        let mut flushed = s.clone();
        flushed.replace = Replace::Flushed;
        let (_, _, bytes) = distributed(&flushed, TransportConfig::channel())?;
        let same = seen.is_some_and(|l| l.1 == bytes);
        ensure!(same, "a stream moved other migration bytes than a flush");
    }
    Ok(())
}

/// [`check`] with panics (transport failures, worker crashes) as failures.
fn outcome(s: &Scenario) -> Result<(), String> {
    catch_unwind(AssertUnwindSafe(|| check(s))).unwrap_or_else(|panic| {
        let why = panic.downcast_ref::<String>().cloned();
        let why = why.or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()));
        Err(format!("panicked: {}", why.unwrap_or_default()))
    })
}

/// Checks `s`; on failure shrinks it greedily and panics with both.
fn assert_contract(s: Scenario) {
    let Err(why) = outcome(&s) else { return };
    let fails = |c: Scenario| outcome(&c).err().map(|w| (c, w));
    let mut small = (s.clone(), why.clone());
    while let Some(next) = small.0.smaller().into_iter().find_map(fails) {
        small = next;
    }
    let (seed, (small, small_why)) = (s.seed, small);
    panic!(
        "seed {seed} broke the contract: {why}\n  drawn:  {s:?}\n  shrunk: {small:?}: {small_why}"
    );
}

#[test]
fn seeded_scenarios_keep_the_contract() {
    for seed in 0..SEEDS {
        assert_contract(Scenario::draw(seed));
    }
}

/// A named seed keeps an arm: a generator change that loses it fails here.
fn named(seed: u64, arm: impl Fn(&Scenario, &ReplicatedPlacement) -> bool) {
    let s = Scenario::draw(seed);
    assert!(arm(&s, &s.placement()), "seed {seed} left its arm: {s:?}");
    assert_contract(s);
}

fn no_move(s: &Scenario, arrange: Arrange, transport: usize) -> bool {
    s.real && s.arrange == arrange && s.transport == transport && s.replace == Replace::None
}

/// Lanes that cut over after a step, with moments to drop, before the
/// last step: of a replicated expert when `p` is replicated.
fn dropped(s: &Scenario, p: &ReplicatedPlacement) -> usize {
    let resets = s.resets(p).into_iter().filter(|r| r.0 > 0 && r.0 < s.steps);
    resets
        .filter(|r| p.is_degree_one() || p.degree(r.1, r.2) > 1)
        .count()
}

/// A stream with a lane move of a replicated expert that drops moments,
/// beside a move onto a replica (a change that gains no copy).
fn streamed(s: &Scenario, p: &ReplicatedPlacement, transport: usize) -> bool {
    let onto_replica = s.moves(p).iter().any(|m| !m.2);
    s.replace == Replace::Streamed && s.transport == transport && dropped(s, p) > 0 && onto_replica
}

/// A relation re-placement (`replace` on `transport`) that gives an expert
/// a copy and drops none, drops a copy of another and gains none, and
/// resets moments between two steps.
fn relation_arm(s: &Scenario, p: &ReplicatedPlacement, replace: Replace, transport: usize) -> bool {
    let target = s.target(p);
    let keeps = |l, e| {
        p.replicas_of(l, e)
            .iter()
            .all(|w| target.replicas_of(l, e).contains(w))
    };
    let moves = s.moves(p);
    let add = moves.iter().any(|&(l, e, gains)| gains && keeps(l, e));
    let drop_only = moves.iter().any(|m| !m.2);
    let arm = s.relation && s.replace == replace && s.transport == transport;
    arm && add && drop_only && dropped(s, p) > 0
}

/// One `#[test]` per named seed, asserting the arm it stands for.
macro_rules! named_seeds {
    ($($(#[doc = $doc:literal])* $name:ident: $seed:literal, $arm:expr;)*) => {$(
        $(#[doc = $doc])*
        #[test]
        fn $name() {
            named($seed, $arm);
        }
    )*};
}

named_seeds! {
    parity_with_sequential_placement: 307, |s, _| no_move(s, Arrange::Sequential, 0);
    parity_with_random_placement: 152, |s, _| no_move(s, Arrange::Random, 0);
    parity_with_all_experts_on_one_worker: 167, |s, _| no_move(s, Arrange::AllOnOne, 0);
    parity_holds_over_tcp_loopback_too: 40, |s, _| no_move(s, Arrange::Sequential, 1);
    replicated_training_is_loss_for_loss_identical_to_single_copy: 103,
        |s, p| no_move(s, Arrange::Grafted, 0) && p.max_degree() == 3;
    /// Worker processes: teardown fetches every expert back from its primary.
    replicated_session_evaluates_and_reassembles_exactly: 62,
        |s, p| no_move(s, Arrange::Grafted, 2) && !p.is_degree_one();
    budget_replication_from_the_knob_stays_transparent: 180,
        |s, p| no_move(s, Arrange::Budget, 0) && !p.is_degree_one();
    migration_preserves_computation_exactly: 314,
        |s, p| s.lora && s.replace == Replace::Flushed && s.transport == 2 && dropped(s, p) > 0;
    /// Nothing frozen: every stream is empty and the cutover carries all.
    training_continues_after_migration: 16,
        |s, p| !s.lora && s.replace == Replace::Flushed && dropped(s, p) > 0;
    overlap_migration_matches_sync_over_channel: 393, |s, p| streamed(s, p, 0);
    overlap_migration_matches_sync_over_tcp_threads: 304, |s, p| streamed(s, p, 1);
    overlap_migration_matches_sync_over_tcp_processes: 108, |s, p| streamed(s, p, 2);
    relation_stream_adds_and_drops_copies_over_channel: 424,
        |s, p| relation_arm(s, p, Replace::Streamed, 0);
    relation_flush_adds_drops_and_moves_copies_over_tcp_threads: 13,
        |s, p| relation_arm(s, p, Replace::Flushed, 1);
    relation_stream_adds_and_drops_copies_over_tcp_processes: 463,
        |s, p| relation_arm(s, p, Replace::Streamed, 2);
    ledger_windows_are_bitwise_identical_across_transports: 32,
        |s, p| !s.real && s.transport == 1 && p.is_degree_one() && s.steps > 1;
    replicated_arm_is_bitwise_identical_across_transports_and_shapes: 48,
        |s, p| !s.real && s.transport == 2 && !p.is_degree_one();
}

/// What a run reported at commit `8456ee6` on `channel`, under the then-default
/// exchange (legacy group frames, sequential grad sync) and its per-batch
/// framing alike, but for the frame count: the coalesced one. The replicated
/// pins less the replica-sync ack: one 9-byte frame per peer install, in
/// the ledger unless the peer shares the master's device, and one leg of the
/// modelled sync time.
struct Golden {
    /// Hub frames (out, in) over the run's steps.
    frames: (u64, u64),
    /// Per step: loss bits (0 for a virtual run), ledger total bytes,
    /// cross-node bytes, replica-sync bytes, modelled step time bits.
    steps: &'static [(u32, u64, u64, u64, u64)],
}

const VIRTUAL: Golden = Golden {
    frames: (300, 270),
    steps: &[
        (0x00000000, 13575063, 10003052, 0, 0x3f78856be03b31b6),
        (0x00000000, 13673367, 9863788, 0, 0x3f77671719c8aa6a),
        (0x00000000, 13632407, 10109548, 0, 0x3f79023b7ef06620),
        (0x00000000, 13566871, 9888364, 0, 0x3f7825fa48bfaf46),
        (0x00000000, 13648791, 10166892, 0, 0x3f791842045bab9c),
    ],
};

const VIRTUAL_REPLICATED: Golden = Golden {
    frames: (400, 310),
    steps: &[
        (0x00000000, 22324364, 16032632, 7864529, 0x3f882d0d9b88eafc),
        (0x00000000, 22422668, 14582599, 7864529, 0x3f857b6f9e700b2c),
        (0x00000000, 22357132, 14639943, 7864529, 0x3f864901d103e908),
        (0x00000000, 23078077, 15213432, 7864542, 0x3f8663c2ef8707de),
        (0x00000000, 22275212, 14623559, 7864529, 0x3f86540513b98bc6),
    ],
};

const REAL_REPLICATED: Golden = Golden {
    frames: (84, 57),
    steps: &[
        (0x40948f91, 71371, 54801, 46222, 0x3f6026e57f7c5681),
        (0x4087e6ec, 71407, 54033, 46222, 0x3f6025851725a229),
        (0x40829a19, 71407, 54289, 46222, 0x3f60243533b2fe46),
    ],
};

impl Golden {
    fn assert_matches(&self, what: &str, (metrics, frames): (Vec<StepMetrics>, (u64, u64))) {
        let got: Vec<_> = metrics
            .iter()
            .map(|m| {
                (
                    m.loss.map_or(0, f32::to_bits),
                    m.traffic.total_bytes,
                    m.traffic.external_total(),
                    m.traffic.sync_bytes,
                    m.time.total().to_bits(),
                )
            })
            .collect();
        assert_eq!(got, self.steps, "{what}: step metrics left the golden pin");
        assert_eq!(frames, self.frames, "{what}: hub frame counts moved");
    }
}

/// Five virtual steps of the 4 × 8 golden shape on the sequential
/// placement, plus, with `replicated`, replicas of degree 3 and 2 grafted
/// onto the hot low-index experts.
fn golden_virtual(transport: TransportConfig, replicated: bool) -> (Vec<StepMetrics>, (u64, u64)) {
    let spec = MoeSpec {
        blocks: 4,
        experts: 8,
        top_k: 2,
        hidden: 1024,
        ffn: 4096,
        bits: 16,
    };
    let seq = Placement::new(vec![(0..8).map(|e| e % 6).collect(); 4], 6);
    let mut placement = ReplicatedPlacement::from(&seq);
    for l in (0..4).filter(|_| replicated) {
        placement.add_replica(l, 0, 1);
        placement.add_replica(l, 0, 3);
        placement.add_replica(l, 1, 5);
    }
    let mut scale = ScaleConfig::paper_default(spec);
    (scale.batch, scale.seq, scale.drift) = (4, 64, 1e-3);
    let profile = LocalityProfile::synthetic("parity", 4, 8, 1.2, 17);
    run_virtual(transport, placement, profile, scale, 5)
}

/// Three real-tensor steps, replicated, every worker hosting several experts
/// and none on the master's device. Frames are counted over the steps only:
/// process mode seeds its workers over the same hub.
fn golden_real(transport: TransportConfig) -> (Vec<StepMetrics>, (u64, u64)) {
    let cfg = ModelConfig {
        experts: 8,
        ..ModelConfig::test_small()
    };
    let seq = Placement::new(vec![(0..8).map(|e| e % 3).collect(); cfg.blocks], 3);
    let mut placement = ReplicatedPlacement::from(&seq);
    for l in 0..cfg.blocks {
        placement.add_replica(l, 0, 1);
        placement.add_replica(l, 0, 2);
        placement.add_replica(l, 1, 2);
    }
    let devices = vec![DeviceId(1), DeviceId(2), DeviceId(4)];
    let model = MoeModel::new(&cfg, &mut DetRng::new(11));
    let mut rt = launch(transport, model, placement, devices);
    let before = rt.frame_counts();
    let mut rng = DetRng::new(2);
    let n = 2 * cfg.seq_len;
    let inputs: Vec<usize> = (0..n).map(|_| rng.below(cfg.vocab)).collect();
    let targets: Vec<usize> = (0..n).map(|_| rng.below(cfg.vocab)).collect();
    let metrics = (0..3)
        .map(|_| rt.train_step(&inputs, &targets, 2, cfg.seq_len).unwrap())
        .collect();
    let after = rt.frame_counts();
    rt.shutdown();
    (metrics, (after.0 - before.0, after.1 - before.1))
}

fn golden_pins_hold_on(transports: &[Transport]) {
    for (label, transport) in transports {
        VIRTUAL.assert_matches(label, golden_virtual(transport(), false));
        VIRTUAL_REPLICATED.assert_matches(label, golden_virtual(transport(), true));
        REAL_REPLICATED.assert_matches(label, golden_real(transport()));
    }
}

/// The surviving exchange reports, on the in-process transports, exactly
/// what the parent's arms did — with replicas syncing gradients every step,
/// the loss bits too.
#[test]
fn surviving_exchange_reproduces_the_parent_golden_pin() {
    golden_pins_hold_on(&TRANSPORTS[..2]);
}

/// The same pins over real OS worker processes.
#[test]
fn process_transport_matches_the_per_batch_baseline() {
    golden_pins_hold_on(&TRANSPORTS[2..]);
}

/// Steps of the wire-byte workload; its byte counts are deterministic.
const WIRE_STEPS: u64 = 4;

/// Encoded bytes of a fine-grained broker workload — 32 single-row expert
/// batches × 2 blocks at width 8 over two channel workers, forward and
/// backward — where per-item framing is at its worst. Unlike the ledger's
/// accounted bytes these depend on the framing.
fn wire_stats() -> WireStats {
    const WORKERS: usize = 2;
    let cfg = ModelConfig {
        dim: 8,
        ffn_hidden: 8,
        experts: 32,
        ..ModelConfig::test_small()
    };
    let mut rng = DetRng::new(40);
    let mut population = LocalExpertStore::new(&cfg, &mut rng);
    let mut shards: Vec<LocalExpertStore> = (0..WORKERS)
        .map(|_| LocalExpertStore::empty(cfg.blocks, cfg.experts))
        .collect();
    for l in 0..cfg.blocks {
        for e in 0..cfg.experts {
            shards[e % WORKERS].insert(l, e, population.take(l, e));
        }
    }
    let ledger = Arc::new(TrafficLedger::new(Topology::paper_testbed()));
    let devices: Vec<DeviceId> = (0..WORKERS).map(DeviceId).collect();
    let (mut hub, ports) = build_star(
        TransportConfig::channel(),
        ledger,
        DeviceId(0),
        &devices,
        None,
    )
    .expect("channel star");
    let workers: Vec<ExpertManager> = ports
        .into_iter()
        .zip(shards)
        .map(|(port, shard)| ExpertManager::spawn(port, shard))
        .collect();
    let bootstrap = WorkerBootstrap {
        blocks: cfg.blocks,
        experts: cfg.experts,
        optim: AdamWConfig::default(),
        template: None,
    };
    hub.broadcast(&Message::Bootstrap(bootstrap)).unwrap();
    let placement = Placement::new(vec![(0..cfg.experts).map(|e| e % WORKERS).collect(); 2], 2);
    let mut broker = BrokerClient::new(hub, placement);
    let mut batches = || -> Vec<ExpertBatch> {
        (0..cfg.experts)
            .map(|e| ExpertBatch {
                expert: e,
                xs: Tensor::uniform((1, cfg.dim), -1.0, 1.0, &mut rng),
            })
            .collect()
    };
    let (xs, grads) = (batches(), batches());
    for _ in 0..WIRE_STEPS {
        broker.step_begin().expect("step begin");
        for block in 0..cfg.blocks {
            let _ = broker.forward_block(block, &xs);
            let _ = broker.backward_block(block, &grads);
        }
        broker.step_end().expect("step end");
        broker.wait_step_done().expect("step done");
    }
    let stats = broker.hub().wire_stats();
    broker.shutdown().expect("worker shutdown");
    workers.into_iter().for_each(|w| drop(w.join().unwrap()));
    stats
}

/// `(dispatch, result, total)` encoded bytes per step of the exact
/// exchange, recorded when the packed frame became the only framing.
#[test]
fn exact_wire_bytes_are_pinned() {
    let w = wire_stats();
    let per_step = (
        (w.dispatch_header + w.dispatch_payload) / WIRE_STEPS,
        (w.result_header + w.result_payload) / WIRE_STEPS,
        w.total() / WIRE_STEPS,
    );
    assert_eq!(per_step, (5_224, 4_232, 9_478));
}

/// For the migration API facts no scenario expresses: the 2 × 4 LoRA micro
/// model on six channel workers, expert `e` of each block on `assign(e)`.
fn session(assign: impl Fn(usize) -> usize) -> (RealRuntime, Scenario) {
    session_on(Placement::new(vec![(0..4).map(&assign).collect(); 2], 6).into())
}

/// [`session`] launched on `placement`.
fn session_on(placement: ReplicatedPlacement) -> (RealRuntime, Scenario) {
    let mut s = Scenario::draw(0);
    (s.real, s.lora, s.blocks, s.experts, s.top_k, s.workers) = (true, true, 2, 4, 2, 6);
    (s.batch, s.steps) = (4, 2);
    let rt = launch(
        TransportConfig::channel(),
        s.build(),
        placement,
        s.devices(),
    );
    (rt, s)
}

#[test]
fn apply_placement_is_idempotent() {
    let (mut rt, _) = session(|e| e);
    let same = rt.placement().primaries();
    let handle = rt.apply_placement(&same).expect("migration failed");
    assert_eq!((handle.moved, handle.in_flight), (0, 0));
    assert_eq!(handle.traffic.total_bytes, 0);
    assert_eq!(rt.finish_migrations().expect("flush failed"), 0);
    assert_eq!(rt.migration_bytes(), 0);
    rt.shutdown();
}

#[test]
fn migration_bytes_are_accounted_as_traffic() {
    let (mut rt, s) = session(|e| e);
    // Move one expert from worker 1 to worker 2.
    let mut target = rt.placement().primaries();
    target.set_worker(0, 1, 2);
    let handle = rt.apply_placement(&target).expect("migration failed");
    // The call only admits: it asks the source for its stream, moves nothing.
    assert_eq!((handle.moved, handle.in_flight), (1, 1));
    let request = handle.traffic.migration_bytes;
    assert!((1..64).contains(&request), "{request} bytes in the call");
    assert_eq!(handle.traffic.total_bytes, request);
    assert_eq!(rt.migration_bytes(), request);

    assert_eq!(rt.finish_migrations().expect("flush failed"), 1);
    // The three base projections alone are this many f32 bytes.
    let cfg = s.cfg();
    // Parameters move twice (via the master), both legs in the bucket.
    let base = (3 * cfg.dim * cfg.ffn_hidden * 4) as u64;
    let moved = rt.migration_bytes();
    assert!(moved >= 2 * base, "{moved} bytes moved, {base} a leg");
    rt.shutdown();
}

#[test]
fn dynamic_replanning_improves_traffic_mid_run() {
    // Start with everything on remote node 2 (workers 4, 5), measure the
    // live routing, re-plan with the LP: per-step external traffic drops.
    let (mut rt, s) = session(|e| 4 + e % 2);
    let (cfg, batches) = (s.cfg(), s.batches());
    let external = |rt: &mut RealRuntime, (inputs, targets): &(Vec<usize>, Vec<usize>)| {
        let m = rt.train_step(inputs, targets, 4, cfg.seq_len).unwrap();
        m.traffic.external_total()
    };
    let before = external(&mut rt, &batches[0]);
    let freqs: Vec<Vec<f64>> = rt
        .model()
        .routing_snapshot()
        .iter()
        .map(|i| i.frequencies().iter().map(|&f| f as f64).collect())
        .collect();
    let problem = s.problem(LocalityProfile::from_frequencies("live", freqs).to_matrix());
    let handle = rt.apply_placement(&Strategy::Vela.place(&problem)).unwrap();
    assert!(handle.in_flight > 0 && handle.traffic.total_bytes > 0);
    rt.finish_migrations().expect("flush failed");
    external(&mut rt, &batches[1]);
    let after = external(&mut rt, &batches[2]);
    assert!(after < before / 2, "external bytes {before} -> {after}");
    rt.shutdown();
}

/// A lane move of expert `(0, 1)` off worker 1 onto worker 2, expert `e`
/// of each block on worker `e` and `(0, 1)` also on worker 3 when
/// `replicated`, applied as a `&Placement` and flushed: the migration-bucket
/// ledger bytes and the hub frames (out, in) the move cost.
fn lane_move(replicated: bool) -> (u64, (u64, u64)) {
    let mut placed = ReplicatedPlacement::from(&Placement::new(vec![(0..4).collect(); 2], 6));
    if replicated {
        placed.add_replica(0, 1, 3);
    }
    let (mut rt, _) = session_on(placed);
    let mut target = rt.placement().primaries();
    target.set_worker(0, 1, 2);
    let before = rt.frame_counts();
    rt.apply_placement(&target).expect("migration failed");
    rt.finish_migrations().expect("flush failed");
    let after = rt.frame_counts();
    let bytes = rt.migration_bytes();
    rt.shutdown();
    (bytes, (after.0 - before.0, after.1 - before.1))
}

/// A `&Placement` target lifts to the relation and comes out as the plan
/// the primaries-only mover made: ledger bytes and hub frames recorded from
/// it, for a lane move and for a lane move of a replicated expert (whose
/// `DropMoments` and `Evict` are off the books).
#[test]
fn a_lifted_placement_is_todays_plan() {
    assert_eq!(lane_move(false), (17_648, (4, 4)));
    assert_eq!(lane_move(true), (17_648, (4, 4)));
}
