//! Cost-aware expert replication, end to end on the real runtime.
//!
//! Replication breaks the single-owner assumption — an expert may live on
//! several workers, token batches go to the least-loaded live replica —
//! but it must be *computation-transparent*: replicas start bit-identical
//! (checkpoint clones at launch), exactly one replica serves an expert
//! per step, and the post-backward gradient sync copies the serving
//! replica's gradients into every peer before the workers' optimizers
//! run. A replicated session therefore trains the mathematically
//! identical model, loss for loss, while the byte ledger shows the sync
//! traffic it paid for the privilege.

use vela::model::finetune::prepare_for_finetune;
use vela::prelude::*;

fn launch(placement: impl Into<ReplicatedPlacement>) -> (RealRuntime, ModelConfig, TokenDataset) {
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
    prepare_for_finetune(
        &mut model,
        &mut experts,
        LoraConfig::default(),
        &mut DetRng::new(2),
    );
    let topology = Topology::paper_testbed();
    let workers: Vec<DeviceId> = topology.devices().iter().map(|d| d.id).collect();
    let runtime = RealRuntime::launch(
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

fn seq_placement(cfg: &ModelConfig) -> Placement {
    Placement::new(
        (0..cfg.blocks)
            .map(|_| (0..cfg.experts).map(|e| e % 6).collect())
            .collect(),
        6,
    )
}

/// The seed placement with replicas grafted onto the low-index experts
/// of every block (degrees 3 and 2).
fn replicated(cfg: &ModelConfig) -> ReplicatedPlacement {
    let mut rep = ReplicatedPlacement::from(&seq_placement(cfg));
    for l in 0..cfg.blocks {
        rep.add_replica(l, 0, 2);
        rep.add_replica(l, 0, 4);
        rep.add_replica(l, 1, 5);
    }
    rep
}

/// Runs `steps` fine-tuning steps from identical pretrain + data seeds
/// and returns the per-step metrics.
fn train(placement: impl Into<ReplicatedPlacement>, steps: usize) -> Vec<StepMetrics> {
    let (mut rt, cfg, data) = launch(placement);
    let mut rng = DetRng::new(5);
    let metrics = (0..steps)
        .map(|_| {
            let b = data.sample_batch(2, cfg.seq_len, &mut rng);
            rt.train_step(&b.inputs, &b.targets, b.batch_size, b.seq_len)
                .expect("transport failed mid-step")
        })
        .collect();
    rt.shutdown();
    metrics
}

#[test]
fn replicated_training_is_loss_for_loss_identical_to_single_copy() {
    let cfg = ModelConfig::test_small();
    let single = train(seq_placement(&cfg), 6);
    let multi = train(replicated(&cfg), 6);
    for (s, m) in single.iter().zip(&multi) {
        assert_eq!(
            s.loss, m.loss,
            "step {}: replication must be computation-transparent",
            s.step
        );
    }
    // The single-owner run never syncs; the replicated run pays real,
    // ledgered sync bytes on every step.
    assert!(single.iter().all(|m| m.traffic.sync_bytes == 0));
    assert!(single.iter().all(|m| m.time.sync_s == 0.0));
    for m in &multi {
        assert!(m.traffic.sync_bytes > 0, "replicas must sync every step");
        assert!(
            m.traffic.sync_bytes < m.traffic.total_bytes,
            "sync bytes are a subset of the ledger"
        );
        assert!(m.time.sync_s > 0.0, "sync time must be modeled");
    }
}

#[test]
fn replicated_session_evaluates_and_reassembles_exactly() {
    let cfg = ModelConfig::test_small();
    let (mut single, s_cfg, data) = launch(seq_placement(&cfg));
    let (mut multi, _, _) = launch(replicated(&cfg));
    let batch = data.sample_batch(2, s_cfg.seq_len, &mut DetRng::new(9));

    // Same pretrain seeds, bit-identical replicas: the forward pass must
    // agree no matter which replica serves each expert batch.
    let a = single.evaluate(
        &batch.inputs,
        &batch.targets,
        batch.batch_size,
        batch.seq_len,
    );
    let b = multi.evaluate(
        &batch.inputs,
        &batch.targets,
        batch.batch_size,
        batch.seq_len,
    );
    assert_eq!(a, b, "routing to a replica must not change the math");

    // Teardown dedupes replicas (first copy wins — they are identical)
    // and still reassembles the full population.
    let (_, merged) = multi.shutdown();
    assert_eq!(merged.present_count(), cfg.blocks * cfg.experts);
    single.shutdown();
}

#[test]
fn budget_replication_from_the_knob_stays_transparent() {
    // The VELA_REPLICATION=budget:<frac> path: degrees chosen by the cost
    // model from a skewed access histogram, not hand-picked.
    let cfg = ModelConfig::test_small();
    let base = seq_placement(&cfg);
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
    assert!(
        ReplicationConfig::parse("off")
            .apply(&base, &problem)
            .is_degree_one(),
        "off must be the degree-1 identity"
    );
    let rep = ReplicationConfig::parse("budget:1.0").apply(&base, &problem);
    assert!(rep.max_degree() > 1, "the budget should admit replicas");

    let single = train(base, 4);
    let multi = train(rep, 4);
    for (s, m) in single.iter().zip(&multi) {
        assert_eq!(s.loss, m.loss, "cost-model degrees must stay transparent");
    }
    assert!(multi.iter().all(|m| m.traffic.sync_bytes > 0));
}
