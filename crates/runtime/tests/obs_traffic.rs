//! Cross-checks the vela-obs per-link counters against the engine's own
//! [`StepTraffic`] accounting: both observe `TrafficLedger::record`, so
//! over a run their totals must agree *exactly* — bit-for-bit, not
//! approximately. Lives in its own integration binary because trace mode
//! is process-global.

use vela_cluster::{DeviceId, Topology};
use vela_locality::LocalityProfile;
use vela_model::MoeSpec;
use vela_placement::Placement;
use vela_runtime::virtual_engine::ScaleConfig;
use vela_runtime::{TransportConfig, VirtualEngine};

#[test]
fn obs_link_counters_match_step_traffic_exactly() {
    vela_obs::set_mode(vela_obs::TraceMode::Counters);
    // A counters-mode flush writes the snapshot; keep it off the disk.
    vela_obs::sink::set_memory_sink();
    vela_obs::reset_counters();

    let spec = MoeSpec {
        blocks: 4,
        experts: 8,
        top_k: 2,
        hidden: 4096,
        ffn: 14336,
        bits: 16,
    };
    let scale = ScaleConfig {
        batch: 4,
        seq: 64,
        ..ScaleConfig::paper_default(spec)
    };
    let topology = Topology::paper_testbed();
    let profile = LocalityProfile::synthetic("p", spec.blocks, spec.experts, 1.2, 3);
    let placement = Placement::new(
        (0..spec.blocks)
            .map(|_| (0..spec.experts).map(|e| e % 6).collect())
            .collect(),
        6,
    );
    let mut engine = VirtualEngine::launch_with(
        TransportConfig::from_env(),
        topology.clone(),
        DeviceId(0),
        (0..6).map(DeviceId).collect(),
        placement,
        profile,
        scale,
    );

    let metrics = engine.run(3);
    let mut internal = 0u64;
    let mut external = 0u64;
    for m in &metrics {
        internal += m.traffic.internal_bytes;
        external += m.traffic.external_total();
    }
    let total: u64 = metrics.iter().map(|m| m.traffic.total_bytes).sum();
    assert_eq!(total, internal + external, "StepTraffic self-consistency");
    assert!(external > 0, "run must produce cross-node traffic");

    // Snapshot before shutdown: the shutdown broadcast is recorded by the
    // ledger too, but never drained into a StepTraffic by another
    // take_step, so it must not be in the comparison window.
    let counters = vela_obs::counter_snapshot();
    engine.shutdown();

    let mut obs_internal = 0u64;
    let mut obs_external = 0u64;
    for (name, value) in &counters {
        let Some(link) = name.strip_prefix("cluster.link.") else {
            continue;
        };
        let (src, dst) = link.split_once("->").expect("link counter name");
        let src: usize = src.parse().expect("src device id");
        let dst: usize = dst.parse().expect("dst device id");
        if topology.node_of(DeviceId(src)) == topology.node_of(DeviceId(dst)) {
            obs_internal += value;
        } else {
            obs_external += value;
        }
    }
    assert_eq!(obs_internal, internal, "internal bytes must match exactly");
    assert_eq!(obs_external, external, "external bytes must match exactly");

    // The aggregate counters mirror the same split.
    let get = |key: &str| {
        counters
            .iter()
            .find(|(n, _)| n == key)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    };
    assert_eq!(get("cluster.bytes.internal"), internal);
    assert_eq!(get("cluster.bytes.external"), external);
}
