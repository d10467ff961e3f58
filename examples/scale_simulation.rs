//! Full-scale workload simulation without any training: drive the
//! master–worker virtual engine and the expert-parallelism baseline at
//! genuine Mixtral-8x7B dimensions on the paper's testbed, directly from a
//! synthetic locality profile.
//!
//! Useful for what-if studies: tweak the topology, the routing skew or the
//! placement strategy and watch traffic/time respond in seconds.
//!
//! Run: `cargo run --release -p vela --example scale_simulation`

use vela::prelude::*;
use vela::runtime::virtual_engine::capacity_from_memory;

fn main() {
    let spec = MoeSpec::mixtral_8x7b();
    let scale = ScaleConfig::paper_default(spec);
    let topology = Topology::paper_testbed();
    let workers: Vec<DeviceId> = topology.devices().iter().map(|d| d.id).collect();
    println!(
        "simulating {} blocks x {} experts (H={}, fp{}), batch {} x {} tokens, 3x2-GPU testbed",
        spec.blocks, spec.experts, spec.hidden, spec.bits, scale.batch, scale.seq
    );

    let profile = LocalityProfile::synthetic("whatif", spec.blocks, spec.experts, 1.1, 42);
    println!(
        "routing concentration: {:.3}\n",
        profile.mean_concentration()
    );

    // Expert parallelism.
    let mut ep = EpEngine::new(
        topology.clone(),
        workers.clone(),
        profile.clone(),
        scale.clone(),
    );
    let ep_summary = RunSummary::from_steps(&ep.run(25));

    // Master-worker with the LP placement.
    let caps = capacity_from_memory(&topology, &workers, &spec, 0.5);
    let problem = PlacementProblem::new(
        topology.clone(),
        DeviceId(0),
        workers.clone(),
        profile.to_matrix(),
        (scale.tokens() * spec.top_k) as f64,
        spec.token_bytes(),
        caps,
    );
    println!(
        "placement LP: {} variables, solving...",
        6 * spec.blocks * spec.experts + spec.blocks
    );
    let placement = Strategy::Vela.place(&problem);
    println!("experts per worker: {:?}", placement.load());
    let mut engine = VirtualEngine::launch_with(
        TransportConfig::from_env(),
        topology,
        DeviceId(0),
        workers,
        placement,
        profile,
        scale,
    );
    let vela_summary = RunSummary::from_steps(&engine.run(25));
    engine.shutdown();

    println!(
        "\n{:>8} | {:>14} | {:>12} | {:>10}",
        "engine", "ext MB/node", "step (s)", "sync (s)"
    );
    for (name, s) in [("EP", &ep_summary), ("Vela", &vela_summary)] {
        println!(
            "{name:>8} | {:>14.1} | {:>12.4} | {:>10.4}",
            s.avg_external_per_node / 1048576.0,
            s.avg_step_time,
            s.avg_sync_time
        );
    }
    println!(
        "\nVela: {:.1}% less cross-node traffic, {:.1}% faster steps",
        RunSummary::reduction_vs(
            vela_summary.avg_external_per_node,
            ep_summary.avg_external_per_node
        ) * 100.0,
        RunSummary::reduction_vs(vela_summary.avg_step_time, ep_summary.avg_step_time) * 100.0
    );
}
