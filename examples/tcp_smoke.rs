//! Multi-process loopback smoke test: a master and a real `vela_worker`
//! OS process over TCP, checked byte-for-byte against the in-process
//! channel transport. Of the two workers, the one on the master's node
//! (device 1) is served on the master's own thread and the other (device
//! 2) is the child process, as in every session.
//!
//! Exercises the whole process-mode path — spawn, handshake, bootstrap,
//! the launch re-placement from the hosted worker, real-tensor training,
//! virtual-payload stepping, the teardown re-placement back to it and
//! clean shutdown — and exits non-zero if the TCP ledger windows differ
//! from the channel ones by a single byte.
//!
//! Run: `cargo run --release -p vela --example tcp_smoke`
//! (requires the `vela_worker` binary, built by `cargo build --release`).

use std::process::ExitCode;

use vela::prelude::*;

/// Same VirtualEngine workload under `transport`; returns per-step traffic.
fn virtual_run(transport: TransportConfig) -> Vec<(u64, u64)> {
    let spec = MoeSpec {
        blocks: 2,
        experts: 4,
        top_k: 2,
        hidden: 256,
        ffn: 512,
        bits: 16,
    };
    let scale = ScaleConfig {
        batch: 2,
        seq: 32,
        ..ScaleConfig::paper_default(spec)
    };
    let placement = Placement::new(
        (0..spec.blocks)
            .map(|_| (0..spec.experts).map(|e| e % 2).collect())
            .collect(),
        2,
    );
    let profile = LocalityProfile::synthetic("smoke", spec.blocks, spec.experts, 1.0, 3);
    let mut engine = VirtualEngine::launch_with(
        transport,
        Topology::paper_testbed(),
        DeviceId(0),
        vec![DeviceId(1), DeviceId(2)],
        placement,
        profile,
        scale,
    );
    let metrics = engine.run(3);
    println!(
        "  virtual over {:>11}: {} steps, {} total bytes",
        engine.transport_label(),
        metrics.len(),
        metrics.iter().map(|m| m.traffic.total_bytes).sum::<u64>()
    );
    engine.shutdown();
    metrics
        .iter()
        .map(|m| (m.traffic.total_bytes, m.traffic.external_total()))
        .collect()
}

/// A tiny real-tensor training run under `transport`; returns the losses.
fn real_run(transport: TransportConfig) -> Vec<f32> {
    let cfg = ModelConfig::test_small_with_tokenizer_vocab();
    let mut rng = DetRng::new(41);
    let (model, experts) = MoeModel::new(&cfg, &mut rng);
    let placement = Placement::new(
        (0..cfg.blocks)
            .map(|_| (0..cfg.experts).map(|e| e % 2).collect())
            .collect(),
        2,
    );
    let mut rt = RealRuntime::launch_with(
        transport,
        model,
        experts,
        placement,
        Topology::paper_testbed(),
        DeviceId(0),
        vec![DeviceId(1), DeviceId(2)],
        AdamWConfig::default(),
    );
    let n = 2 * cfg.seq_len;
    let inputs: Vec<usize> = (0..n).map(|_| rng.below(cfg.vocab)).collect();
    let targets: Vec<usize> = (0..n).map(|_| rng.below(cfg.vocab)).collect();
    let losses: Vec<f32> = (0..2)
        .map(|_| {
            rt.train_step(&inputs, &targets, 2, cfg.seq_len)
                .expect("transport failed mid-step")
                .loss
                .unwrap()
        })
        .collect();
    println!(
        "  real    over {:>11}: losses {:?}",
        rt.transport_label(),
        losses
    );
    let (_, merged) = rt.shutdown();
    assert_eq!(
        merged.present_count(),
        cfg.blocks * cfg.experts,
        "expert population must reassemble completely"
    );
    losses
}

fn main() -> ExitCode {
    println!("VELA multi-process TCP smoke (master hosting worker 0 + 1 vela_worker process)");

    let channel_traffic = virtual_run(TransportConfig::channel());
    let tcp_traffic = virtual_run(TransportConfig::tcp_processes());
    if channel_traffic != tcp_traffic {
        eprintln!("FAIL: ledger windows differ across transports");
        eprintln!("  channel: {channel_traffic:?}");
        eprintln!("  tcp:     {tcp_traffic:?}");
        return ExitCode::FAILURE;
    }
    println!("  ledger parity: channel == tcp, byte for byte");

    let channel_losses = real_run(TransportConfig::channel());
    let tcp_losses = real_run(TransportConfig::tcp_processes());
    let same = channel_losses
        .iter()
        .zip(&tcp_losses)
        .all(|(a, b)| a.to_bits() == b.to_bits());
    if !same {
        eprintln!("FAIL: losses differ across transports");
        eprintln!("  channel: {channel_losses:?}");
        eprintln!("  tcp:     {tcp_losses:?}");
        return ExitCode::FAILURE;
    }
    println!("  training parity: channel == tcp, bit for bit");

    vela::obs::flush();
    println!("ok");
    ExitCode::SUCCESS
}
