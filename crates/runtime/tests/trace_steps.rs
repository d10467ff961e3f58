//! Trace steps are process-unique across engines: fig6 runs a
//! `VirtualEngine` and then an `EpEngine` in one process, and the EP steps
//! must not reuse the step numbers the virtual run already tagged. Lives
//! in its own integration binary because the trace step clock is
//! process-global.

use vela_cluster::{DeviceId, Topology};
use vela_locality::LocalityProfile;
use vela_model::MoeSpec;
use vela_placement::Placement;
use vela_runtime::{EpEngine, ScaleConfig, TransportConfig, VirtualEngine};

#[test]
fn ep_steps_follow_the_virtual_run_on_the_trace_clock() {
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
    let devices: Vec<DeviceId> = (0..6).map(DeviceId).collect();
    let placement = Placement::new(
        (0..spec.blocks)
            .map(|_| (0..spec.experts).map(|e| e % 6).collect())
            .collect(),
        6,
    );

    let mut virtual_engine = VirtualEngine::launch_with(
        TransportConfig::channel(),
        Topology::paper_testbed(),
        DeviceId(0),
        devices.clone(),
        placement,
        profile.clone(),
        scale.clone(),
    );
    virtual_engine.step();
    virtual_engine.shutdown();
    let after_virtual = vela_obs::current_step();

    let mut ep = EpEngine::new(Topology::paper_testbed(), devices, profile, scale);
    let mut last = after_virtual;
    for _ in 0..2 {
        ep.step();
        let step = vela_obs::current_step();
        assert!(step > last, "EP trace step {step} after {last}");
        last = step;
    }
}
