//! Live expert migration: the runtime-flexibility feature VELA's framework
//! design enables (§IV-A: users can "manipulate expert distribution at
//! runtime").
//!
//! These tests verify migration is *semantically invisible* — the model
//! computes identical results before and after experts move — and that
//! moved parameter bytes are accounted as real traffic. There is one
//! mover: an expert's frozen tensors stream while it keeps training, its
//! trainable ones cross at a step boundary. The parity grid at the bottom
//! proves that a move overlapped with training steps is, bit for bit, the
//! same moves done synchronously (`apply_placement` + `finish_migrations`)
//! at the boundaries the overlapped run cut over at, on every transport.

use vela::model::finetune::prepare_for_finetune;
use vela::prelude::*;

/// Launches the micro model on `placement`. With `lora` the experts are
/// prepared as in fine-tuning (frozen base, trainable adapters); without,
/// every expert tensor trains and a move has nothing frozen to stream.
fn launch_on(
    transport: TransportConfig,
    placement: impl Into<ReplicatedPlacement>,
    lora: bool,
) -> (RealRuntime, ModelConfig, TokenDataset) {
    let mut cfg = ModelConfig::test_small();
    cfg.vocab = CharTokenizer::new().vocab_size();
    let pre = pretrain(
        &cfg,
        &PretrainConfig {
            steps: 20,
            batch_size: 4,
            corpus_chars: 20_000,
            seed: 91,
            ..PretrainConfig::default()
        },
    );
    let (mut model, mut experts) = (pre.model, pre.experts);
    if lora {
        prepare_for_finetune(
            &mut model,
            &mut experts,
            LoraConfig::default(),
            &mut DetRng::new(2),
        );
    }
    let topology = Topology::paper_testbed();
    let workers: Vec<DeviceId> = topology.devices().iter().map(|d| d.id).collect();
    let runtime = RealRuntime::launch_with(
        transport,
        model,
        experts,
        placement,
        topology,
        DeviceId(0),
        workers,
        AdamWConfig::default(),
    );
    let tok = CharTokenizer::new();
    let data = TokenDataset::from_text(&tok, &Corpus::TinyShakespeare.generate(20_000, 5));
    (runtime, cfg, data)
}

fn launch(placement: Placement) -> (RealRuntime, ModelConfig, TokenDataset) {
    launch_on(TransportConfig::from_env(), placement, true)
}

fn seq_placement(cfg: &ModelConfig) -> Placement {
    Placement::new(
        (0..cfg.blocks)
            .map(|_| (0..cfg.experts).map(|e| e % 6).collect())
            .collect(),
        6,
    )
}

/// Deterministic shuffle of every expert; identical across arms because
/// both start from the same placement and the rng is seeded.
fn scatter_target(rt: &RealRuntime, cfg: &ModelConfig) -> Placement {
    let mut rng = DetRng::new(3);
    let mut target = rt.placement().primaries();
    for l in 0..cfg.blocks {
        for e in 0..cfg.experts {
            target.set_worker(l, e, rng.below(6));
        }
    }
    target
}

#[test]
fn migration_preserves_computation_exactly() {
    // A move ships exact f32 bytes, so the loss does not change by a bit
    // when the experts change workers.
    let (mut rt, cfg, data) = launch(seq_placement(&ModelConfig::test_small()));
    let batch = data.sample_batch(2, cfg.seq_len, &mut DetRng::new(1));

    let loss_before = rt.evaluate(
        &batch.inputs,
        &batch.targets,
        batch.batch_size,
        batch.seq_len,
    );

    // Scatter every expert somewhere else.
    let target = scatter_target(&rt, &cfg);
    let handle = rt.apply_placement(&target).expect("migration failed");
    assert!(handle.moved > 0, "the shuffle should move something");
    assert!(handle.in_flight > 0, "apply_placement only admits the plan");
    assert_eq!(rt.finish_migrations().expect("flush failed"), handle.moved);
    assert_eq!(rt.placement().primaries(), target);
    assert!(rt.migration_bytes() > 0, "moved experts carry bytes");

    let loss_after = rt.evaluate(
        &batch.inputs,
        &batch.targets,
        batch.batch_size,
        batch.seq_len,
    );
    assert_eq!(
        loss_before.to_bits(),
        loss_after.to_bits(),
        "migration must be computation-invisible"
    );
    rt.shutdown();
}

#[test]
fn training_continues_after_migration() {
    let (mut rt, cfg, data) = launch(seq_placement(&ModelConfig::test_small()));
    let mut rng = DetRng::new(4);
    let batch = data.sample_batch(2, cfg.seq_len, &mut rng);
    let first = rt
        .train_step(
            &batch.inputs,
            &batch.targets,
            batch.batch_size,
            batch.seq_len,
        )
        .expect("transport failed mid-step")
        .loss
        .unwrap();

    // Consolidate everything onto worker 3 mid-run.
    let target = Placement::new(vec![vec![3; cfg.experts]; cfg.blocks], 6);
    let handle = rt.apply_placement(&target).expect("migration failed");
    assert!(handle.in_flight > 0);
    rt.finish_migrations().expect("flush failed");
    assert_eq!(rt.migrations_in_flight(), 0);

    let mut last = first;
    for _ in 0..5 {
        let b = data.sample_batch(2, cfg.seq_len, &mut rng);
        last = rt
            .train_step(&b.inputs, &b.targets, b.batch_size, b.seq_len)
            .expect("transport failed mid-step")
            .loss
            .unwrap();
        assert!(last.is_finite());
    }
    // All experts now on one worker: dispatch traffic goes to device 3.
    let b = data.sample_batch(2, cfg.seq_len, &mut rng);
    let m = rt
        .train_step(&b.inputs, &b.targets, b.batch_size, b.seq_len)
        .expect("transport failed mid-step");
    assert!(
        m.traffic.external_total() > 0,
        "device 3 is off the master node"
    );
    let _ = last;
    let (_, merged) = rt.shutdown();
    assert_eq!(merged.present_count(), cfg.blocks * cfg.experts);
}

#[test]
fn apply_placement_is_idempotent() {
    let (mut rt, _, _) = launch(seq_placement(&ModelConfig::test_small()));
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
    let (mut rt, cfg, _data) = launch(seq_placement(&ModelConfig::test_small()));
    // Move one expert from worker 1 to worker 2.
    let mut target = rt.placement().primaries();
    target.set_worker(0, 1, 2);
    let handle = rt.apply_placement(&target).expect("migration failed");
    assert_eq!((handle.moved, handle.in_flight), (1, 1));
    // The call itself asks the source for its stream and moves nothing.
    let request = handle.traffic.migration_bytes;
    assert!((1..64).contains(&request), "{request} bytes in the call");
    assert_eq!(handle.traffic.total_bytes, request);
    assert_eq!(rt.migration_bytes(), request);

    assert_eq!(rt.finish_migrations().expect("flush failed"), 1);
    // The three base projections alone are this many f32 bytes.
    let base = (3 * cfg.dim * cfg.ffn_hidden * 4) as u64;
    assert!(
        rt.migration_bytes() >= 2 * base,
        "parameters move twice (via the master), both legs in the migration bucket: {} vs {base}",
        rt.migration_bytes()
    );
    rt.shutdown();
}

#[test]
fn dynamic_replanning_improves_traffic_mid_run() {
    // Start with a deliberately bad placement, measure routing, re-plan
    // with the LP, and verify per-step external traffic drops.
    let cfg = ModelConfig::test_small();
    // Everything on remote node 2 (workers 4,5): worst case.
    let bad = Placement::new(
        (0..cfg.blocks)
            .map(|_| (0..cfg.experts).map(|e| 4 + (e % 2)).collect())
            .collect(),
        6,
    );
    let (mut rt, cfg, data) = launch(bad);
    let mut rng = DetRng::new(7);
    let batch = data.sample_batch(4, cfg.seq_len, &mut rng);
    let before = rt
        .train_step(
            &batch.inputs,
            &batch.targets,
            batch.batch_size,
            batch.seq_len,
        )
        .expect("transport failed mid-step")
        .traffic
        .external_total();

    // Measure the live routing and re-plan.
    let freqs: Vec<Vec<f64>> = rt
        .model()
        .routing_snapshot()
        .iter()
        .map(|i| i.frequencies().iter().map(|&f| f as f64).collect())
        .collect();
    let profile = LocalityProfile::from_frequencies("live", freqs);
    let problem = PlacementProblem::new(
        Topology::paper_testbed(),
        DeviceId(0),
        (0..6).map(DeviceId).collect(),
        profile.to_matrix(),
        (4 * cfg.seq_len * cfg.top_k) as f64,
        (cfg.dim * 4) as u64,
        PlacementProblem::even_capacities(cfg.blocks, cfg.experts, 6, 2),
    );
    let better = Strategy::Vela.place(&problem);
    let handle = rt.apply_placement(&better).expect("migration failed");
    assert!(handle.in_flight > 0);
    assert!(handle.traffic.total_bytes > 0);
    rt.finish_migrations().expect("flush failed");
    let b2 = data.sample_batch(4, cfg.seq_len, &mut rng);
    rt.train_step(&b2.inputs, &b2.targets, b2.batch_size, b2.seq_len)
        .expect("transport failed mid-step");

    let b3 = data.sample_batch(4, cfg.seq_len, &mut rng);
    let after = rt
        .train_step(&b3.inputs, &b3.targets, b3.batch_size, b3.seq_len)
        .expect("transport failed mid-step")
        .traffic
        .external_total();
    assert!(
        after < before / 2,
        "re-planning should slash external traffic: {before} -> {after}"
    );
    rt.shutdown();
}

// ---------------------------------------------------------------------------
// Overlapped ≡ synchronous: a re-placement streamed under training steps
// must produce the same training run, bit for bit, as flushing the same
// moves at the boundaries it cut over at — and must move exactly the same
// migration-bucket bytes.
// ---------------------------------------------------------------------------

/// Steps taken before the placement change is requested.
const PRE_STEPS: usize = 2;
/// Steps compared after the last cutover.
const POST_STEPS: usize = 3;
/// Safety cap on the window (a move that never completes is a bug).
const MAX_WINDOW: usize = 32;

/// Which session the grid runs.
#[derive(Clone, Copy, Debug)]
enum Arm {
    /// LoRA experts, one copy each.
    Lora,
    /// LoRA experts with `budget:0.25` replicas: gradient sync runs beside
    /// the streams, and a move onto a replica ships nothing.
    Replicated,
    /// Nothing frozen: the stream is empty and the cutover carries all.
    TrainableBase,
}

fn launch_arm(transport: TransportConfig, arm: Arm) -> (RealRuntime, ModelConfig, TokenDataset) {
    let cfg = ModelConfig::test_small();
    let base = seq_placement(&cfg);
    let lora = !matches!(arm, Arm::TrainableBase);
    if !matches!(arm, Arm::Replicated) {
        return launch_on(transport, base, lora);
    }
    let profile = LocalityProfile::synthetic("skew", cfg.blocks, cfg.experts, 1.5, 3);
    let problem = PlacementProblem::new(
        Topology::paper_testbed(),
        DeviceId(0),
        (0..6).map(DeviceId).collect(),
        profile.to_matrix(),
        (2 * cfg.seq_len * cfg.top_k) as f64,
        (cfg.dim * 4) as u64,
        PlacementProblem::even_capacities(cfg.blocks, cfg.experts, 6, 2),
    );
    let placed = ReplicationConfig::parse("budget:0.25").apply(&base, &problem);
    assert!(placed.max_degree() > 1, "the budget should admit replicas");
    launch_on(transport, placed, lora)
}

struct Run {
    /// Loss of every training step, in order.
    losses: Vec<f32>,
    /// Gradient-sync ledger bytes of every training step, in order.
    sync_bytes: Vec<u64>,
    /// Full metrics of the `POST_STEPS` steps after the last cutover.
    post: Vec<StepMetrics>,
    /// Migration-bucket ledger bytes of the whole run.
    migration_bytes: u64,
    /// Loss of a fixed eval batch after the run: final-weight parity.
    final_eval: f32,
    /// Every boundary the primaries changed at, as (steps taken so far,
    /// primaries from then on).
    boundaries: Vec<(usize, Placement)>,
}

/// Runs one side of the parity experiment. `replay: None` is the
/// overlapped run: request the whole re-placement after `PRE_STEPS` steps,
/// let it stream under the following ones and record each boundary at
/// which experts changed workers. `Some(boundaries)` replays that record
/// synchronously: at each boundary, the same moves flushed at once.
fn run(transport: TransportConfig, arm: Arm, replay: Option<&[(usize, Placement)]>) -> Run {
    let (mut rt, cfg, data) = launch_arm(transport, arm);
    let mut target = scatter_target(&rt, &cfg);
    if let Some(&(l, e)) = rt.placement().replicated_pairs().first() {
        // Make sure one move lands on a worker that holds a replica.
        target.set_worker(l, e, rt.placement().replicas_of(l, e)[1]);
    }
    let mut rng = DetRng::new(11);
    let mut losses = Vec::new();
    let mut sync_bytes = Vec::new();
    let mut boundaries = Vec::new();
    let mut step = |rt: &mut RealRuntime, losses: &mut Vec<f32>| -> StepMetrics {
        let b = data.sample_batch(2, cfg.seq_len, &mut rng);
        let m = rt
            .train_step(&b.inputs, &b.targets, b.batch_size, b.seq_len)
            .expect("transport failed mid-step");
        losses.push(m.loss.unwrap());
        sync_bytes.push(m.traffic.sync_bytes);
        m
    };

    for _ in 0..PRE_STEPS {
        step(&mut rt, &mut losses);
    }

    match replay {
        None => {
            let before = rt.placement().primaries();
            let handle = rt.apply_placement(&target).expect("migration failed");
            assert!(handle.moved > 0, "the shuffle should move something");
            assert!(
                handle.in_flight > 0,
                "apply_placement must return with the streams still to run"
            );
            if matches!(arm, Arm::Replicated) {
                // The move onto a replica completed inside the call, and
                // only stream requests were accounted there.
                assert!(handle.in_flight < handle.moved);
                assert!(handle.traffic.total_bytes <= 9 * handle.in_flight as u64);
                assert_ne!(rt.placement().primaries(), before);
            }
            let mut current = before;
            let mut window = 0;
            loop {
                let now = rt.placement().primaries();
                if now != current {
                    boundaries.push((losses.len(), now.clone()));
                    current = now;
                }
                if rt.migrations_in_flight() == 0 {
                    break;
                }
                assert!(window < MAX_WINDOW, "the moves never completed");
                step(&mut rt, &mut losses);
                window += 1;
            }
            assert!(window > 1, "the plan should span several boundaries");
        }
        Some(recorded) => {
            for (at, primaries) in recorded {
                while losses.len() < *at {
                    step(&mut rt, &mut losses);
                }
                rt.apply_placement(primaries).expect("migration failed");
                rt.finish_migrations().expect("flush failed");
                assert_eq!(&rt.placement().primaries(), primaries);
            }
        }
    }
    assert_eq!(rt.placement().primaries(), target);

    let post = (0..POST_STEPS)
        .map(|_| step(&mut rt, &mut losses))
        .collect();
    let eval_batch = data.sample_batch(2, cfg.seq_len, &mut DetRng::new(13));
    let final_eval = rt.evaluate(
        &eval_batch.inputs,
        &eval_batch.targets,
        eval_batch.batch_size,
        eval_batch.seq_len,
    );
    let migration_bytes = rt.migration_bytes();
    rt.shutdown();
    Run {
        losses,
        sync_bytes,
        post,
        migration_bytes,
        final_eval,
        boundaries,
    }
}

fn overlap_matches_sync_on(transport: fn() -> TransportConfig) {
    for arm in [Arm::Lora, Arm::Replicated, Arm::TrainableBase] {
        let overlapped = run(transport(), arm, None);
        let last = overlapped.boundaries.last().expect("experts moved").0;
        assert!(
            last > PRE_STEPS,
            "{arm:?}: cutovers must land on later step boundaries, got {last}"
        );
        let flushed = run(transport(), arm, Some(&overlapped.boundaries));

        assert_eq!(
            overlapped.losses.len(),
            flushed.losses.len(),
            "{arm:?}: both runs must train the same number of steps"
        );
        for (i, (a, b)) in overlapped.losses.iter().zip(&flushed.losses).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{arm:?}: loss diverged at step {} ({a} vs {b})",
                i + 1
            );
        }
        // No lane is ever open during a step of the flushed run, so this
        // is "a lane adds no gradient sync to the steps it rides".
        assert_eq!(
            overlapped.sync_bytes, flushed.sync_bytes,
            "{arm:?}: streaming changed some step's gradient-sync bytes"
        );
        assert_eq!(
            overlapped.sync_bytes.iter().any(|&b| b > 0),
            matches!(arm, Arm::Replicated)
        );
        assert_eq!(
            overlapped.post, flushed.post,
            "{arm:?}: post-cutover step metrics must be bitwise identical"
        );
        assert_eq!(
            overlapped.migration_bytes, flushed.migration_bytes,
            "{arm:?}: both schedules must move the same migration-bucket bytes"
        );
        assert!(overlapped.migration_bytes > 0);
        assert_eq!(
            overlapped.final_eval.to_bits(),
            flushed.final_eval.to_bits(),
            "{arm:?}: final weights diverged ({} vs {})",
            overlapped.final_eval,
            flushed.final_eval
        );
    }
}

#[test]
fn overlap_migration_matches_sync_over_channel() {
    overlap_matches_sync_on(TransportConfig::channel);
}

#[test]
fn overlap_migration_matches_sync_over_tcp_threads() {
    overlap_matches_sync_on(TransportConfig::tcp_threads);
}

#[test]
fn overlap_migration_matches_sync_over_tcp_processes() {
    overlap_matches_sync_on(TransportConfig::tcp_processes);
}
