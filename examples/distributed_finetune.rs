//! Distributed fine-tuning, assembled by hand from the library pieces —
//! the long-form version of what `VelaSession` automates — ending with a
//! live parity check against a single-process run (the paper's §V-A
//! "identical computation logic" claim).
//!
//! Run: `cargo run --release -p vela --example distributed_finetune`

use vela::model::finetune::prepare_for_finetune;
use vela::prelude::*;

fn main() {
    let tok = CharTokenizer::new();
    let mut cfg = ModelConfig::test_small();
    cfg.vocab = tok.vocab_size();

    // 1. Pre-train (twice, identically: one copy fine-tunes locally, the
    //    other distributed).
    println!("pre-training two identical model copies...");
    let pcfg = PretrainConfig {
        steps: 40,
        batch_size: 4,
        corpus_chars: 30_000,
        seed: 21,
        ..PretrainConfig::default()
    };
    let a = pretrain(&cfg, &pcfg);
    let b = pretrain(&cfg, &pcfg);
    let (mut local_model, mut local_experts) = (a.model, a.experts);
    let (mut dist_model, mut dist_experts) = (b.model, b.experts);
    prepare_for_finetune(
        &mut local_model,
        &mut local_experts,
        LoraConfig::default(),
        &mut DetRng::new(5),
    );
    prepare_for_finetune(
        &mut dist_model,
        &mut dist_experts,
        LoraConfig::default(),
        &mut DetRng::new(5),
    );

    // 2. Measure locality and solve the placement.
    let dataset = TokenDataset::from_text(&tok, &Corpus::WikiText.generate(30_000, 8));
    let profile = measure_locality(&mut dist_model, &mut dist_experts, &dataset, 4, 8);
    let topology = Topology::paper_testbed();
    let workers: Vec<DeviceId> = topology.devices().iter().map(|d| d.id).collect();
    let problem = PlacementProblem::new(
        topology.clone(),
        DeviceId(0),
        workers.clone(),
        profile.to_matrix(),
        (4 * cfg.seq_len * cfg.top_k) as f64,
        (cfg.dim * 4) as u64,
        PlacementProblem::even_capacities(cfg.blocks, cfg.experts, workers.len(), 2),
    );
    let placement = Strategy::Vela.place(&problem);
    println!("placement load per worker: {:?}", placement.load());

    // 3. Launch the master-worker runtime and fine-tune.
    let mut runtime = RealRuntime::launch_with(
        TransportConfig::from_env(),
        dist_model,
        dist_experts,
        placement,
        topology,
        DeviceId(0),
        workers,
        AdamWConfig::default(),
    );
    let mut opt_m = AdamW::new(AdamWConfig::default());
    let mut opt_e = AdamW::new(AdamWConfig::default());

    println!(
        "\n{:>4} | {:>10} | {:>10} | {:>12}",
        "step", "dist loss", "local loss", "ext MB/node"
    );
    let mut rng = DetRng::new(77);
    use vela::nn::param::Module;
    for step in 1..=8 {
        let batch = dataset.sample_batch(4, cfg.seq_len, &mut rng);
        // Distributed step.
        let m = runtime
            .train_step(
                &batch.inputs,
                &batch.targets,
                batch.batch_size,
                batch.seq_len,
            )
            .expect("transport failed mid-step");
        // Identical local step.
        local_experts.zero_grad();
        let stats = local_model.train_step(
            &batch.inputs,
            &batch.targets,
            batch.batch_size,
            batch.seq_len,
            &mut local_experts,
        );
        opt_m.step(&mut local_model);
        opt_e.step(&mut local_experts);
        println!(
            "{step:>4} | {:>10.5} | {:>10.5} | {:>12.3}",
            m.loss.unwrap(),
            stats.loss,
            m.traffic.external_avg_per_node() / (1024.0 * 1024.0)
        );
        assert_eq!(
            m.loss.unwrap(),
            stats.loss,
            "distributed must equal local bit-for-bit"
        );
    }
    runtime.shutdown();
    println!("\nparity verified: distributed fine-tuning is computation-identical to local");
}
