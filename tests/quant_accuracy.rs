//! The int8 wire format's accuracy gate (fig5-style loss-curve check).
//!
//! `VELA_QUANT=int8` is the one exchange knob that is *allowed* to change
//! numbers: activations and gradients cross the wire as int8 codes with
//! per-row f32 scales, so expert inputs are reconstructed to within
//! `amax/254` of the exact values. The transport-parity golden pin holds
//! the exact exchange bit for bit; this test pins the lossy one to a
//! tolerance —
//! quantized training must still learn, and its loss curve must track the
//! exact curve closely, step by step.

use vela::prelude::*;
use vela::runtime::{ExchangeConfig, Quant};

const STEPS: usize = 16;

fn loss_curve(quant: Quant) -> Vec<f32> {
    let cfg = ModelConfig::test_small();
    let mut rng = DetRng::new(11);
    let (model, experts) = MoeModel::new(&cfg, &mut rng);
    let workers = 6;
    let placement = Placement::new(
        (0..cfg.blocks)
            .map(|_| (0..cfg.experts).map(|e| e % workers).collect())
            .collect(),
        workers,
    );
    let mut rt = RealRuntime::launch_with(
        TransportConfig::channel(),
        model,
        experts,
        placement,
        Topology::paper_testbed(),
        DeviceId(0),
        (0..workers).map(DeviceId).collect(),
        AdamWConfig {
            lr: 3e-3,
            ..AdamWConfig::default()
        },
    );
    rt.set_exchange(ExchangeConfig { quant });

    let mut data_rng = DetRng::new(2);
    let n = 2 * cfg.seq_len;
    let inputs: Vec<usize> = (0..n).map(|_| data_rng.below(cfg.vocab)).collect();
    let targets: Vec<usize> = (0..n).map(|_| data_rng.below(cfg.vocab)).collect();

    let losses: Vec<f32> = (0..STEPS)
        .map(|_| {
            rt.train_step(&inputs, &targets, 2, cfg.seq_len)
                .expect("transport failed mid-step")
                .loss
                .unwrap()
        })
        .collect();
    rt.shutdown();
    losses
}

#[test]
fn int8_wire_training_tracks_the_exact_loss_curve() {
    let exact = loss_curve(Quant::Off);
    let lossy = loss_curve(Quant::Int8);

    // Exact training learns (sanity — also pinned elsewhere).
    assert!(
        exact.last().unwrap() < exact.first().unwrap(),
        "exact curve must decrease: {exact:?}"
    );
    // Quantized training still learns.
    assert!(
        lossy.last().unwrap() < lossy.first().unwrap(),
        "int8 curve must decrease: {lossy:?}"
    );
    // And tracks the exact curve step by step: int8 reconstruction error
    // is <0.4% per activation, so the curves may drift but not diverge.
    for (step, (e, l)) in exact.iter().zip(&lossy).enumerate() {
        let rel = (e - l).abs() / e.abs().max(1e-6);
        assert!(
            rel < 0.05,
            "step {step}: int8 loss {l} deviates {:.2}% from exact {e} (>5%)\nexact: {exact:?}\nint8:  {lossy:?}",
            100.0 * rel
        );
    }
}

/// The quantized wire is genuinely lossy — the gate above must not be
/// passing because int8 silently fell back to the exact path.
#[test]
fn int8_wire_is_actually_lossy() {
    let exact = loss_curve(Quant::Off);
    let lossy = loss_curve(Quant::Int8);
    assert_ne!(
        exact, lossy,
        "int8 training reproduced the exact losses bit for bit — quantization is not engaged"
    );
}
