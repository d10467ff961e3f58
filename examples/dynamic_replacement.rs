//! Dynamic re-placement: start fine-tuning with a naive placement, watch
//! the live routing statistics, then re-solve the placement LP and migrate
//! experts *mid-run* — the runtime flexibility VELA's broker design makes
//! possible (§IV-A).
//!
//! Run: `cargo run --release -p vela --example dynamic_replacement`

use vela::model::finetune::prepare_for_finetune;
use vela::prelude::*;

fn main() {
    let tok = CharTokenizer::new();
    let mut cfg = ModelConfig::tiny_mistral(tok.vocab_size());
    cfg.seq_len = 32;

    println!("pre-training...");
    let pre = pretrain(
        &cfg,
        &PretrainConfig {
            steps: 80,
            batch_size: 4,
            corpus_chars: 50_000,
            seed: 13,
            ..PretrainConfig::default()
        },
    );
    let (mut model, mut experts) = (pre.model, pre.experts);
    prepare_for_finetune(
        &mut model,
        &mut experts,
        LoraConfig::default(),
        &mut DetRng::new(1),
    );

    // Start with sequential placement — no locality awareness.
    let topology = Topology::paper_testbed();
    let workers: Vec<DeviceId> = topology.devices().iter().map(|d| d.id).collect();
    let naive = Placement::new(
        (0..cfg.blocks)
            .map(|_| (0..cfg.experts).map(|e| e % 6).collect())
            .collect(),
        6,
    );
    let mut rt = RealRuntime::launch(
        model,
        experts,
        naive,
        topology.clone(),
        DeviceId(0),
        workers.clone(),
        AdamWConfig::default(),
    );

    let data = TokenDataset::from_text(&tok, &Corpus::WikiText.generate(60_000, 4));
    let mut rng = DetRng::new(2);
    let mut tracker = AccessTracker::new(cfg.blocks, cfg.experts);

    println!("\nphase 1: naive placement, observing routing");
    let mut naive_external = 0u64;
    for step in 1..=6 {
        let b = data.sample_batch(4, cfg.seq_len, &mut rng);
        let m = rt
            .train_step(&b.inputs, &b.targets, b.batch_size, b.seq_len)
            .expect("transport failed mid-step");
        tracker.record(&rt.model().routing_snapshot());
        naive_external += m.traffic.external_total();
        println!(
            "  step {step}: loss {:.4}, external {:.2} MB",
            m.loss.unwrap(),
            m.traffic.external_total() as f64 / 1048576.0
        );
    }

    // Re-plan from the observed routing distribution.
    println!("\nre-planning from live routing statistics...");
    let profile = LocalityProfile::from_frequencies("live", tracker.frequency_matrix());
    let problem = PlacementProblem::new(
        topology,
        DeviceId(0),
        workers,
        profile.to_matrix(),
        (4 * cfg.seq_len * cfg.top_k) as f64,
        (cfg.dim * 4) as u64,
        PlacementProblem::even_capacities(cfg.blocks, cfg.experts, 6, 2),
    );
    let optimized = Strategy::Vela.place(&problem);
    // The call only admits the plan: two experts at a time stream their
    // frozen base weights under the steps below and are cut over at the
    // next step boundary, where the LoRA adapters cross.
    let handle = rt
        .apply_placement(&optimized)
        .expect("transport failed mid-migration");
    println!(
        "moving {} experts while the session stays live ({} still to complete \
         under the next steps)",
        handle.moved, handle.in_flight
    );

    println!("\nphase 2: locality-aware placement");
    let mut optimized_external = 0u64;
    for step in 7..=12 {
        let b = data.sample_batch(4, cfg.seq_len, &mut rng);
        let m = rt
            .train_step(&b.inputs, &b.targets, b.batch_size, b.seq_len)
            .expect("transport failed mid-step");
        optimized_external += m.traffic.external_total();
        println!(
            "  step {step}: loss {:.4}, external {:.2} MB",
            m.loss.unwrap(),
            m.traffic.external_total() as f64 / 1048576.0
        );
    }

    println!(
        "\nexternal traffic per phase: naive {:.2} MB -> optimized {:.2} MB ({:+.1}%)",
        naive_external as f64 / 1048576.0,
        optimized_external as f64 / 1048576.0,
        (optimized_external as f64 / naive_external as f64 - 1.0) * 100.0
    );
    // A plan too long for phase 2 completes here, stop-the-world.
    if rt.migrations_in_flight() > 0 {
        let cut_over = rt
            .finish_migrations()
            .expect("transport failed flushing migrations");
        println!("completed the last {cut_over} moves before shutdown");
    }
    println!(
        "migration moved {:.2} MB through the master",
        rt.migration_bytes() as f64 / 1048576.0
    );
    rt.shutdown();
}
