//! Cross-engine integration tests: determinism, accounting consistency and
//! the structural relationships between the virtual engines.

use vela_cluster::{DeviceId, Topology};
use vela_locality::LocalityProfile;
use vela_model::MoeSpec;
use vela_placement::Placement;
use vela_runtime::{EpEngine, RunSummary, ScaleConfig, TransportConfig, VirtualEngine};

fn spec() -> MoeSpec {
    MoeSpec {
        blocks: 6,
        experts: 8,
        top_k: 2,
        hidden: 4096,
        ffn: 14336,
        bits: 16,
    }
}

fn scale(spec: MoeSpec) -> ScaleConfig {
    ScaleConfig {
        batch: 4,
        seq: 64,
        drift: 0.0,
        ..ScaleConfig::paper_default(spec)
    }
}

fn seq_placement(spec: &MoeSpec) -> Placement {
    Placement::new(
        (0..spec.blocks)
            .map(|_| (0..spec.experts).map(|e| e % 6).collect())
            .collect(),
        6,
    )
}

fn run_virtual(steps: usize) -> RunSummary {
    let spec = spec();
    let profile = LocalityProfile::synthetic("d", spec.blocks, spec.experts, 1.0, 3);
    let mut engine = VirtualEngine::launch_with(
        TransportConfig::from_env(),
        Topology::paper_testbed(),
        DeviceId(0),
        (0..6).map(DeviceId).collect(),
        seq_placement(&spec),
        profile,
        scale(spec),
    );
    let metrics = engine.run(steps);
    engine.shutdown();
    RunSummary::from_steps(&metrics)
}

#[test]
fn virtual_engine_is_deterministic() {
    let a = run_virtual(4);
    let b = run_virtual(4);
    assert_eq!(a, b);
}

#[test]
fn virtual_traffic_scales_linearly_with_workload() {
    let spec = spec();
    let profile = LocalityProfile::synthetic("d", spec.blocks, spec.experts, 1.0, 3);
    let run = |seq: usize| {
        let mut engine = VirtualEngine::launch_with(
            TransportConfig::from_env(),
            Topology::paper_testbed(),
            DeviceId(0),
            (0..6).map(DeviceId).collect(),
            seq_placement(&spec),
            profile.clone(),
            ScaleConfig {
                batch: 4,
                seq,
                drift: 0.0,
                ..ScaleConfig::paper_default(spec)
            },
        );
        let m = engine.step();
        engine.shutdown();
        m.traffic.total_bytes
    };
    let small = run(32);
    let large = run(128);
    let ratio = large as f64 / small as f64;
    assert!(
        (ratio - 4.0).abs() < 0.25,
        "4x tokens should be ~4x bytes, got {ratio:.2}x"
    );
}

#[test]
fn ep_and_virtual_account_the_same_token_volume() {
    // Same spec, same workload, near-uniform profile: EP moves ~(N-1)/N of
    // assignments (sharded sources), the star moves ~(N-1)/N of them too
    // (master-colocated worker is free), so total token bytes should be
    // within a factor ~2 of each other (EP adds the all-reduce ring).
    let spec = spec();
    let profile = LocalityProfile::synthetic("u", spec.blocks, spec.experts, 0.1, 7);
    let mut engine = VirtualEngine::launch_with(
        TransportConfig::from_env(),
        Topology::paper_testbed(),
        DeviceId(0),
        (0..6).map(DeviceId).collect(),
        seq_placement(&spec),
        profile.clone(),
        scale(spec),
    );
    let star = engine.step().traffic.total_bytes;
    engine.shutdown();

    let mut ep = EpEngine::new(
        Topology::paper_testbed(),
        (0..6).map(DeviceId).collect(),
        profile,
        scale(spec),
    );
    let ep_bytes = ep.step().traffic.total_bytes;
    let ratio = ep_bytes as f64 / star as f64;
    assert!(
        (0.5..2.0).contains(&ratio),
        "EP {ep_bytes} vs star {star} (ratio {ratio:.2})"
    );
}

#[test]
fn hot_placement_on_master_cuts_traffic() {
    let spec = spec();
    // Experts 0 and 1 hot (top-2 routing selects two distinct experts per
    // token, so a single hot expert can capture at most half the mass).
    let mut rows = vec![vec![0.001; spec.experts]; spec.blocks];
    for row in &mut rows {
        row[0] = 0.5;
        row[1] = 0.5;
    }
    let profile = LocalityProfile::from_frequencies("hot", rows);
    let run = |hot_worker: usize| {
        let placement = Placement::new(
            (0..spec.blocks)
                .map(|_| {
                    (0..spec.experts)
                        .map(|e| if e < 2 { hot_worker } else { 5 })
                        .collect()
                })
                .collect(),
            6,
        );
        let mut engine = VirtualEngine::launch_with(
            TransportConfig::from_env(),
            Topology::paper_testbed(),
            DeviceId(0),
            (0..6).map(DeviceId).collect(),
            placement,
            profile.clone(),
            scale(spec),
        );
        let m = engine.step();
        engine.shutdown();
        m.traffic.external_total()
    };
    let hot_on_master = run(0);
    let hot_remote = run(4);
    assert!(
        hot_on_master < hot_remote / 2,
        "master-local hot expert: {hot_on_master} vs remote {hot_remote}"
    );
}
