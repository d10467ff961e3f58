//! Transport parity: the pluggable transport seam must be invisible in
//! every number the system reports — and the one surviving exchange must
//! report the numbers its retired siblings did.
//!
//! The same VirtualEngine workload runs once over in-process channels and
//! once over loopback TCP sockets; every [`StepMetrics`] — ledger traffic
//! windows, simulated time breakdowns, step indices — must be *bitwise*
//! identical, because the hub accounts protocol bytes identically no
//! matter what carries the frames.
//!
//! The exchange used to come in a {coalesce × microbatch × depth × wire}
//! grid of framings proven identical to a per-batch baseline. Only the
//! packed, one-frame-per-worker arm is left; what the grid compared it
//! against survives as [`Golden`] constants recorded at the last commit
//! that had the other arms. Every row crosses as exact f32 on every
//! transport, so nothing is exempt; the encoded bytes of that one framing
//! are pinned here too.

use std::sync::Arc;

use vela::cluster::TrafficLedger;
use vela::model::provider::ExpertBatch;
use vela::placement::ReplicatedPlacement;
use vela::prelude::*;
use vela::runtime::launch::WorkerHandle;
use vela::runtime::transport::build_star;
use vela::runtime::worker::ExpertManager;
use vela::runtime::{BrokerClient, WireStats};

/// What a run reported at commit `8456ee6`, on `channel`, under both the
/// then-default exchange (legacy group frames, sequential grad sync) and
/// its per-batch framing — the two agreed on everything but
/// the frame count, which is the coalesced one. Recorded by running this
/// file's workloads through a scratch test there
/// (`cargo test --release --test golden_record -- --nocapture`).
struct Golden {
    /// Hub frames (out, in) over the run's steps.
    frames: (u64, u64),
    /// Per step: loss bits (0 for a virtual run), ledger total bytes,
    /// cross-node bytes, replica-sync bytes, modelled step time bits.
    steps: &'static [(u32, u64, u64, u64, u64)],
}

const VIRTUAL: Golden = Golden {
    frames: (300, 270),
    steps: &[
        (0x00000000, 13575063, 10003052, 0, 0x3f78856be03b31b6),
        (0x00000000, 13673367, 9863788, 0, 0x3f77671719c8aa6a),
        (0x00000000, 13632407, 10109548, 0, 0x3f79023b7ef06620),
        (0x00000000, 13566871, 9888364, 0, 0x3f7825fa48bfaf46),
        (0x00000000, 13648791, 10166892, 0, 0x3f791842045bab9c),
    ],
};

const VIRTUAL_REPLICATED: Golden = Golden {
    frames: (400, 370),
    steps: &[
        (0x00000000, 22324463, 16032668, 7864628, 0x3f89237c881400e2),
        (0x00000000, 22422767, 14582644, 7864628, 0x3f86a10f1ad76f3e),
        (0x00000000, 22357231, 14639988, 7864628, 0x3f876ea14d6b4d19),
        (0x00000000, 23078167, 15213468, 7864632, 0x3f8754f39dc9f262),
        (0x00000000, 22275311, 14623604, 7864628, 0x3f8779a49020efd7),
    ],
};

const REAL_REPLICATED: Golden = Golden {
    frames: (84, 75),
    steps: &[
        (0x40948f91, 71425, 54846, 46276, 0x3f6454869376831a),
        (0x4087e6ec, 71461, 54078, 46276, 0x3f6453262b1fcec2),
        (0x40829a19, 71461, 54334, 46276, 0x3f6451d647ad2adf),
    ],
};

impl Golden {
    fn assert_matches(&self, what: &str, metrics: &[StepMetrics], frames: (u64, u64)) {
        let got: Vec<_> = metrics
            .iter()
            .map(|m| {
                (
                    m.loss.map_or(0, f32::to_bits),
                    m.traffic.total_bytes,
                    m.traffic.external_total(),
                    m.traffic.sync_bytes,
                    m.time.total().to_bits(),
                )
            })
            .collect();
        assert_eq!(got, self.steps, "{what}: step metrics left the golden pin");
        assert_eq!(frames, self.frames, "{what}: hub frame counts moved");
    }
}

const TRANSPORTS: [(&str, fn() -> TransportConfig); 3] = [
    ("channel", TransportConfig::channel),
    ("tcp-threads", TransportConfig::tcp_threads),
    ("tcp", TransportConfig::tcp_processes),
];

fn parity_spec() -> MoeSpec {
    MoeSpec {
        blocks: 4,
        experts: 8,
        top_k: 2,
        hidden: 1024,
        ffn: 4096,
        bits: 16,
    }
}

fn parity_placement() -> Placement {
    let spec = parity_spec();
    Placement::new(
        (0..spec.blocks)
            .map(|_| (0..spec.experts).map(|e| e % 6).collect())
            .collect(),
        6,
    )
}

/// The seed placement with real replicas grafted on: the hot low-index
/// experts gain extra copies (degrees 3 and 2), everything else stays
/// single-owner. Exercises least-loaded routing and replica gradient
/// sync on every step.
fn replicated_parity_placement() -> ReplicatedPlacement {
    let mut rep = ReplicatedPlacement::from(&parity_placement());
    for l in 0..parity_spec().blocks {
        rep.add_replica(l, 0, 1);
        rep.add_replica(l, 0, 3);
        rep.add_replica(l, 1, 5);
    }
    rep
}

/// Five virtual steps; returns the metrics and the hub's frame counts.
fn workload_on(
    transport: TransportConfig,
    placement: impl Into<ReplicatedPlacement>,
) -> (Vec<StepMetrics>, (u64, u64)) {
    let spec = parity_spec();
    let scale = ScaleConfig {
        batch: 4,
        seq: 64,
        drift: 1e-3,
        ..ScaleConfig::paper_default(spec)
    };
    let profile = LocalityProfile::synthetic("parity", spec.blocks, spec.experts, 1.2, 17);
    let mut engine = VirtualEngine::launch_with(
        transport,
        Topology::paper_testbed(),
        DeviceId(0),
        (0..6).map(DeviceId).collect(),
        placement,
        profile,
        scale,
    );
    let metrics = engine.run(5);
    let frames = engine.frame_counts();
    engine.shutdown();
    (metrics, frames)
}

fn workload(transport: TransportConfig) -> Vec<StepMetrics> {
    workload_on(transport, parity_placement()).0
}

/// Three real-tensor steps on a replicated placement where every worker
/// hosts several experts (so one frame carries several batches) and none
/// shares the master's device (so every byte is on the ledger). Frame
/// counts are taken over the steps only: process mode seeds its workers
/// over the same hub.
fn real_workload(transport: TransportConfig) -> (Vec<StepMetrics>, (u64, u64)) {
    let cfg = ModelConfig {
        experts: 8,
        ..ModelConfig::test_small()
    };
    let (model, experts) = MoeModel::new(&cfg, &mut DetRng::new(11));
    let mut placement = ReplicatedPlacement::from(&Placement::new(
        (0..cfg.blocks)
            .map(|_| (0..cfg.experts).map(|e| e % 3).collect())
            .collect(),
        3,
    ));
    for l in 0..cfg.blocks {
        placement.add_replica(l, 0, 1);
        placement.add_replica(l, 0, 2);
        placement.add_replica(l, 1, 2);
    }
    let mut rt = RealRuntime::launch_with(
        transport,
        model,
        experts,
        placement,
        Topology::paper_testbed(),
        DeviceId(0),
        vec![DeviceId(1), DeviceId(2), DeviceId(4)],
        AdamWConfig {
            lr: 3e-3,
            ..AdamWConfig::default()
        },
    );
    let before = rt.frame_counts();
    let mut rng = DetRng::new(2);
    let n = 2 * cfg.seq_len;
    let inputs: Vec<usize> = (0..n).map(|_| rng.below(cfg.vocab)).collect();
    let targets: Vec<usize> = (0..n).map(|_| rng.below(cfg.vocab)).collect();
    let metrics = (0..3)
        .map(|_| {
            rt.train_step(&inputs, &targets, 2, cfg.seq_len)
                .expect("transport failed mid-step")
        })
        .collect();
    let after = rt.frame_counts();
    rt.shutdown();
    (metrics, (after.0 - before.0, after.1 - before.1))
}

#[test]
fn ledger_windows_are_bitwise_identical_across_transports() {
    let over_channel = workload(TransportConfig::channel());
    let over_tcp = workload(TransportConfig::tcp_threads());
    assert_eq!(
        over_channel, over_tcp,
        "every StepMetrics field must be transport-independent"
    );
    // Spot-check the comparison had teeth: real bytes moved.
    assert!(over_channel.iter().all(|m| m.traffic.total_bytes > 0));
    assert!(over_channel.iter().all(|m| m.traffic.external_total() > 0));
}

#[test]
fn run_summaries_agree_except_for_the_label() {
    let a = RunSummary::from_steps(&workload(TransportConfig::channel())).with_transport("channel");
    let b =
        RunSummary::from_steps(&workload(TransportConfig::tcp_threads())).with_transport("channel");
    assert_eq!(a, b, "aggregates must be transport-independent");
    assert_eq!(a.steps, 5);
    assert!(a.total_bytes > 0);
}

/// The surviving exchange reports, on the in-process transports, exactly
/// what the parent's arms did: ledger windows and modelled time of the
/// virtual workload, and — on real tensors, with replicas syncing
/// gradients every step — the loss bits too.
#[test]
fn surviving_exchange_reproduces_the_parent_golden_pin() {
    for (label, transport) in &TRANSPORTS[..2] {
        let (metrics, frames) = workload_on(transport(), parity_placement());
        VIRTUAL.assert_matches(label, &metrics, frames);
        let (metrics, frames) = real_workload(transport());
        REAL_REPLICATED.assert_matches(label, &metrics, frames);
    }
}

/// Degree 1 is the identity refactor: a [`ReplicatedPlacement`] built
/// from the seed placement (one replica everywhere) must reproduce the
/// single-owner run bit for bit — and move zero gradient-sync bytes,
/// because there are no peers to keep in sync.
#[test]
fn degree_one_replication_is_bitwise_identical_to_the_single_owner_seed() {
    let baseline = workload(TransportConfig::channel());
    assert!(
        baseline.iter().all(|m| m.traffic.sync_bytes == 0),
        "degree 1 must not move sync bytes"
    );
    for (label, transport) in &TRANSPORTS[..2] {
        let (metrics, _) = workload_on(transport(), ReplicatedPlacement::from(&parity_placement()));
        assert_eq!(
            baseline, metrics,
            "degree-1 replication diverged from the seed on {label}"
        );
    }
}

/// A placement with real replicas must itself be a fixed point: least-
/// loaded routing and the replica gradient-sync round are deterministic,
/// so every transport — OS worker processes included — reports the
/// parent's metrics, with the sync traffic honestly on the ledger.
#[test]
fn replicated_arm_is_bitwise_identical_across_transports_and_shapes() {
    for (label, transport) in TRANSPORTS {
        let (metrics, frames) = workload_on(transport(), replicated_parity_placement());
        for m in &metrics {
            assert!(m.traffic.sync_bytes > 0, "replicas must sync every step");
            assert!(
                m.traffic.sync_bytes < m.traffic.total_bytes,
                "sync traffic is a strict subset of the ledger"
            );
            assert!(m.time.sync_s > 0.0, "sync time must be modeled");
        }
        VIRTUAL_REPLICATED.assert_matches(label, &metrics, frames);
    }
}

/// The golden pin over real OS worker processes (process spawns are
/// expensive, hence their own test). The constants are the per-batch
/// baseline's: process transport must be exactly as invisible as the
/// in-process backends.
#[test]
fn process_transport_matches_the_per_batch_baseline() {
    let (metrics, frames) = workload_on(TransportConfig::tcp_processes(), parity_placement());
    VIRTUAL.assert_matches("tcp", &metrics, frames);
    let (metrics, frames) = real_workload(TransportConfig::tcp_processes());
    REAL_REPLICATED.assert_matches("tcp", &metrics, frames);
}

/// Steps of the wire-byte workload; byte counts are deterministic, so a
/// few suffice.
const WIRE_STEPS: u64 = 4;

/// Encoded bytes of a fine-grained broker workload — 32 single-row expert
/// batches × 2 blocks at width 8 over two channel workers, forward and
/// backward — where per-item framing is at its worst. Unlike the ledger's
/// accounted bytes these depend on the framing.
fn wire_stats() -> WireStats {
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

/// `(dispatch, result, total)` encoded bytes per step of the exact
/// exchange, recorded when the packed frame became the only framing.
#[test]
fn exact_wire_bytes_are_pinned() {
    let w = wire_stats();
    let per_step = (
        (w.dispatch_header + w.dispatch_payload) / WIRE_STEPS,
        (w.result_header + w.result_payload) / WIRE_STEPS,
        w.total() / WIRE_STEPS,
    );
    assert_eq!(per_step, (5_224, 4_232, 9_478));
}
