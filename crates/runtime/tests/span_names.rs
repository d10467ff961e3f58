//! Both step bodies speak one span vocabulary: a tensor step and a
//! virtual step each record `runtime.step` and `runtime.grad_sync`, their
//! exchanges are the `reader::EXCHANGE_SPANS`, and the only
//! `runtime.virtual.*` span left is the simulated gate. Lives in its own
//! integration binary because trace mode is process-global.

use vela_cluster::{DeviceId, Topology};
use vela_locality::LocalityProfile;
use vela_model::{ModelConfig, MoeModel, MoeSpec};
use vela_nn::optim::AdamWConfig;
use vela_obs::reader::EXCHANGE_SPANS;
use vela_placement::Placement;
use vela_runtime::{RealRuntime, ScaleConfig, TransportConfig, VirtualEngine};
use vela_tensor::rng::DetRng;

fn round_robin(blocks: usize, experts: usize, workers: usize) -> Placement {
    let assign = (0..blocks)
        .map(|_| (0..experts).map(|e| e % workers).collect())
        .collect();
    Placement::new(assign, workers)
}

#[test]
fn tensor_and_virtual_steps_share_one_span_vocabulary() {
    vela_obs::set_mode(vela_obs::TraceMode::Counters);
    // A counters-mode flush writes the snapshot; keep it off the disk.
    vela_obs::sink::set_memory_sink();
    vela_obs::reset_counters();
    let devices: Vec<DeviceId> = (0..6).map(DeviceId).collect();

    let cfg = ModelConfig::test_small();
    let (model, experts) = MoeModel::new(&cfg, &mut DetRng::new(11));
    let mut rt = RealRuntime::launch_with(
        TransportConfig::channel(),
        model,
        experts,
        round_robin(cfg.blocks, cfg.experts, 6),
        Topology::paper_testbed(),
        DeviceId(0),
        devices.clone(),
        AdamWConfig::default(),
    );
    let mut rng = DetRng::new(1);
    let tokens: Vec<usize> = (0..2 * cfg.seq_len).map(|_| rng.below(cfg.vocab)).collect();
    rt.train_step(&tokens, &tokens, 2, cfg.seq_len).unwrap();
    rt.shutdown();

    let spec = MoeSpec {
        blocks: 2,
        experts: 8,
        top_k: 2,
        hidden: 1024,
        ffn: 4096,
        bits: 16,
    };
    let scale = ScaleConfig {
        batch: 1,
        seq: 16,
        ..ScaleConfig::paper_default(spec)
    };
    let profile = LocalityProfile::synthetic("p", spec.blocks, spec.experts, 1.0, 2);
    let mut engine = VirtualEngine::launch_with(
        TransportConfig::channel(),
        Topology::paper_testbed(),
        DeviceId(0),
        devices,
        round_robin(spec.blocks, spec.experts, 6),
        profile,
        scale,
    );
    engine.step();
    engine.shutdown();

    let spans: Vec<(String, u64)> = vela_obs::histogram_snapshot()
        .into_iter()
        .map(|(name, _, buckets)| (name, buckets.iter().map(|&(_, n)| n).sum()))
        .collect();
    let count = |name: &str| spans.iter().find(|(n, _)| n == name).map_or(0, |s| s.1);
    assert_eq!(count("runtime.step"), 2, "{spans:?}");
    assert_eq!(count("runtime.grad_sync"), 2, "{spans:?}");
    for name in EXCHANGE_SPANS {
        assert!(count(name) > 0, "no {name} span in {spans:?}");
    }
    let stray: Vec<&str> = spans
        .iter()
        .map(|(n, _)| n.as_str())
        .filter(|n| n.starts_with("runtime.virtual.") && *n != "runtime.virtual.route")
        .collect();
    assert!(stray.is_empty(), "engine-specific spans remain: {stray:?}");
}
