//! Small-scale versions of the paper's headline results (Figs. 5 and 6),
//! run end-to-end: measured locality → placement LP → live engines.

use vela::model::finetune::prepare_for_finetune;
use vela::prelude::*;

/// A Mixtral-shaped (8-expert, top-2) spec small enough for tests.
fn test_spec() -> MoeSpec {
    MoeSpec {
        blocks: 8,
        experts: 8,
        top_k: 2,
        hidden: 4096,
        ffn: 14336,
        bits: 16,
    }
}

/// Measured profile from a quickly pre-trained micro proxy.
fn measured_profile(corpus: Corpus, spec: &MoeSpec) -> LocalityProfile {
    let mut cfg = ModelConfig::mixtral_micro(CharTokenizer::new().vocab_size());
    cfg.blocks = spec.blocks;
    let pre = pretrain(
        &cfg,
        &PretrainConfig {
            steps: 80,
            batch_size: 8,
            corpus_chars: 60_000,
            seed: 31,
            ..PretrainConfig::default()
        },
    );
    let (mut model, mut experts) = (pre.model, pre.experts);
    prepare_for_finetune(
        &mut model,
        &mut experts,
        LoraConfig::default(),
        &mut DetRng::new(4),
    );
    let tok = CharTokenizer::new();
    let data = TokenDataset::from_text(&tok, &corpus.generate(40_000, 6));
    measure_locality(&mut model, &mut experts, &data, 8, 12)
}

fn summaries(profile: &LocalityProfile, spec: &MoeSpec, steps: usize) -> Vec<(String, RunSummary)> {
    let topology = Topology::paper_testbed();
    let workers: Vec<DeviceId> = topology.devices().iter().map(|d| d.id).collect();
    let scale = ScaleConfig {
        batch: 8,
        seq: 128,
        ..ScaleConfig::paper_default(*spec)
    };
    // Capacity scaled to the instance (memory-derived capacity would let
    // the small 8-block test spec fit entirely on one node).
    let caps = PlacementProblem::even_capacities(spec.blocks, spec.experts, workers.len(), 3);
    let problem = PlacementProblem::new(
        topology.clone(),
        DeviceId(0),
        workers.clone(),
        profile.to_matrix(),
        (scale.tokens() * spec.top_k) as f64,
        spec.token_bytes(),
        caps,
    );

    let mut out = Vec::new();
    // EP baseline.
    let mut ep = EpEngine::new(
        topology.clone(),
        workers.clone(),
        profile.clone(),
        scale.clone(),
    );
    out.push(("EP".to_string(), RunSummary::from_steps(&ep.run(steps))));
    // Master-worker strategies.
    for strategy in [
        Strategy::Sequential,
        Strategy::Random { seed: 3 },
        Strategy::Vela,
    ] {
        let placement = strategy.place(&problem);
        let mut engine = VirtualEngine::launch_with(
            TransportConfig::from_env(),
            topology.clone(),
            DeviceId(0),
            workers.clone(),
            placement,
            profile.clone(),
            scale.clone(),
        );
        let metrics = engine.run(steps);
        engine.shutdown();
        out.push((
            strategy.label().to_string(),
            RunSummary::from_steps(&metrics),
        ));
    }
    out
}

fn get<'a>(rows: &'a [(String, RunSummary)], label: &str) -> &'a RunSummary {
    &rows.iter().find(|(l, _)| l == label).expect("label").1
}

#[test]
fn fig5_shape_vela_has_lowest_external_traffic() {
    let spec = test_spec();
    let profile = measured_profile(Corpus::WikiText, &spec);
    let rows = summaries(&profile, &spec, 8);
    let vela = get(&rows, "Vela").avg_external_per_node;
    for label in ["EP", "Sequential", "Random"] {
        let other = get(&rows, label).avg_external_per_node;
        assert!(
            vela < other,
            "Vela ({vela:.0} B) must beat {label} ({other:.0} B)"
        );
    }
    // The reduction vs EP lands in a plausible band (paper: 17–25%).
    let reduction = RunSummary::reduction_vs(vela, get(&rows, "EP").avg_external_per_node);
    assert!(
        (0.05..0.80).contains(&reduction),
        "reduction vs EP out of band: {:.1}%",
        reduction * 100.0
    );
}

#[test]
fn fig5_shape_baselines_are_roughly_equal() {
    let spec = test_spec();
    let profile = measured_profile(Corpus::Alpaca, &spec);
    let rows = summaries(&profile, &spec, 8);
    let seq = get(&rows, "Sequential").avg_external_per_node;
    let rand = get(&rows, "Random").avg_external_per_node;
    let ep = get(&rows, "EP").avg_external_per_node;
    // Sequential vs random: same framework, no optimization — same
    // regime. (Sequential tends to land somewhat below random on measured
    // profiles, since it keeps each block's experts on few nodes.)
    assert!(
        (seq - rand).abs() / seq < 0.60,
        "seq {seq:.0} vs random {rand:.0}"
    );
    // EP is in the same regime (the paper: "roughly the same", slightly
    // higher due to gradient sync).
    assert!(
        ep > 0.4 * seq && ep < 2.5 * seq,
        "EP {ep:.0} vs sequential {seq:.0}"
    );
}

#[test]
fn fig6_shape_vela_is_fastest_and_ep_pays_sync() {
    let spec = test_spec();
    let profile = measured_profile(Corpus::WikiText, &spec);
    let rows = summaries(&profile, &spec, 8);
    let vela = get(&rows, "Vela");
    let ep = get(&rows, "EP");
    let seq = get(&rows, "Sequential");
    assert!(
        vela.avg_step_time < ep.avg_step_time,
        "Vela {} vs EP {}",
        vela.avg_step_time,
        ep.avg_step_time
    );
    assert!(
        vela.avg_step_time < seq.avg_step_time,
        "Vela {} vs Sequential {}",
        vela.avg_step_time,
        seq.avg_step_time
    );
    // The architectural difference: only EP accumulates sync time.
    assert!(ep.avg_sync_time > 0.0);
    assert_eq!(vela.avg_sync_time, 0.0);
    assert_eq!(seq.avg_sync_time, 0.0);
}

#[test]
fn wikitext_benefit_exceeds_alpaca_benefit() {
    // §V-B performance analysis: concentrated WikiText routing gives VELA
    // more to exploit than the broader Alpaca mix.
    let spec = test_spec();
    let wiki = measured_profile(Corpus::WikiText, &spec);
    let alpaca = measured_profile(Corpus::Alpaca, &spec);
    assert!(
        wiki.mean_concentration() >= alpaca.mean_concentration() * 0.8,
        "unexpected concentrations: wiki {:.3} vs alpaca {:.3}",
        wiki.mean_concentration(),
        alpaca.mean_concentration()
    );
}
