//! A traced run takes its worker clock offsets from the master's one clock
//! probe (`ClockProbe` frames before the first step), on every transport:
//! the connect handshake carries none. Lives in its own integration binary
//! because trace mode and the trace sink are process-global.

use std::collections::BTreeSet;

use vela_cluster::{DeviceId, Topology};
use vela_locality::LocalityProfile;
use vela_model::MoeSpec;
use vela_obs::reader::parse_line;
use vela_obs::Kind;
use vela_placement::Placement;
use vela_runtime::{ScaleConfig, TransportConfig, VirtualEngine};

#[test]
fn a_traced_first_step_samples_every_worker_clock() {
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
    let workers = 6;
    let profile = LocalityProfile::synthetic("p", spec.blocks, spec.experts, 1.0, 2);
    let placement = Placement::new(
        (0..spec.blocks)
            .map(|_| (0..spec.experts).map(|e| e % workers).collect())
            .collect(),
        workers,
    );

    vela_obs::set_mode(vela_obs::TraceMode::Jsonl);
    vela_obs::sink::set_memory_sink();
    for transport in [TransportConfig::channel(), TransportConfig::tcp_threads()] {
        let label = transport.label();
        let mut engine = VirtualEngine::launch_with(
            transport,
            Topology::paper_testbed(),
            DeviceId(0),
            (0..workers).map(DeviceId).collect(),
            placement.clone(),
            profile.clone(),
            scale.clone(),
        );
        engine.step();
        engine.shutdown();
        let sampled: BTreeSet<u64> = vela_obs::sink::take_memory()
            .lines()
            .map(|line| parse_line(line).expect("schema-valid trace line"))
            .filter_map(|record| match record.kind {
                Kind::Clock { worker, .. } => Some(worker),
                _ => None,
            })
            .collect();
        assert_eq!(
            sampled,
            (0..workers as u64).collect(),
            "{label}: one traced step must leave a clock sample per worker"
        );
    }
}
