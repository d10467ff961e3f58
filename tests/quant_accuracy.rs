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
//!
//! What int8 buys is pinned too: the encoded bytes of a fine-grained
//! broker workload, exact and int8, to the byte.

use std::sync::Arc;

use vela::cluster::TrafficLedger;
use vela::model::provider::ExpertBatch;
use vela::prelude::*;
use vela::runtime::launch::WorkerHandle;
use vela::runtime::transport::build_star;
use vela::runtime::worker::ExpertManager;
use vela::runtime::{BrokerClient, Quant, WireStats};

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
    rt.set_quant(quant);

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

/// Steps of the wire-byte workload; byte counts are deterministic, so a
/// few suffice.
const WIRE_STEPS: u64 = 4;

/// Encoded bytes of a fine-grained broker workload — 32 single-row expert
/// batches × 2 blocks at width 8 over two channel workers, forward and
/// backward — where per-item framing is at its worst. Unlike the ledger's
/// accounted bytes these depend on the encoding: they are what `VELA_QUANT`
/// exists to shrink.
fn wire_stats(quant: Quant) -> WireStats {
    const WORKERS: usize = 2;
    let cfg = ModelConfig {
        vocab: 32,
        dim: 8,
        heads: 1,
        kv_heads: 1,
        ffn_hidden: 8,
        blocks: 2,
        experts: 32,
        top_k: 2,
        seq_len: 8,
        aux_loss_weight: 0.0,
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
    let (hub, ports) = build_star(TransportConfig::channel(), ledger, DeviceId(0), &devices)
        .expect("channel star");
    let workers: Vec<WorkerHandle> = ports
        .into_iter()
        .zip(shards)
        .map(|(port, shard)| {
            WorkerHandle::Thread(ExpertManager::spawn(port, shard, AdamWConfig::default()))
        })
        .collect();
    let placement = Placement::new(
        (0..cfg.blocks)
            .map(|_| (0..cfg.experts).map(|e| e % WORKERS).collect())
            .collect(),
        WORKERS,
    );
    let mut broker = BrokerClient::new(hub, placement);
    broker.set_quant(quant);

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
    let stats = broker.wire_stats();
    broker.shutdown().expect("worker shutdown");
    for w in workers {
        w.finish();
    }
    stats
}

/// `(dispatch, result, total)` encoded bytes per step.
fn per_step(w: WireStats) -> (u64, u64, u64) {
    (
        (w.dispatch_header + w.dispatch_payload) / WIRE_STEPS,
        (w.result_header + w.result_payload) / WIRE_STEPS,
        w.total() / WIRE_STEPS,
    )
}

#[test]
fn int8_wire_bytes_are_pinned() {
    let exact = per_step(wire_stats(Quant::Off));
    let int8 = per_step(wire_stats(Quant::Int8));
    // Recorded when the packed frame became the only framing.
    assert_eq!(exact, (5_224, 4_232, 9_478));
    assert_eq!(int8, (2_664, 1_672, 4_358));
    // At width 8 a row shrinks 32 → 12 bytes (−62.5 %); the 8-byte span of
    // each single-row item, which int8 cannot touch, dilutes that to 49 %
    // of the dispatch frame. Wider rows only do better.
    let cut = 1.0 - int8.0 as f64 / exact.0 as f64;
    assert!(
        cut >= 0.45,
        "int8 cuts dispatch bytes by only {:.1} %",
        100.0 * cut
    );
}
