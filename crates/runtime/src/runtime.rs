//! The real-tensor step body: master process + Expert Manager workers at
//! micro scale, as a [`Session`] over [`TensorBody`].
//!
//! This is the paper's full system running end-to-end: the backbone trains
//! on the master thread, experts live in workers per the placement, and
//! every activation/gradient crosses the transport as serialized bytes.
//! Because the broker is computation-transparent, a distributed run is
//! bit-identical to a single-process run — the §V-A claim, verified by
//! the `contract` integration test (`tests/contract.rs`).
//!
//! The transport behind the broker is pluggable
//! ([`TransportConfig`]): in-process channels (default), TCP loopback with
//! worker threads, or TCP loopback with real `vela_worker` OS processes
//! (`VELA_TRANSPORT=tcp`). Worker processes start and end empty: every
//! copy the placement puts on one rests on the hosted worker outside the
//! steps, and the one mover ([`BrokerClient::apply_relation`]) carries it
//! there and back — [`RealRuntime::launch_with`] re-places from that
//! relation, [`RealRuntime::shutdown`] back to it — so shutdown reassembles
//! the identical population regardless of backend.

use vela_cluster::{DeviceId, Topology};
use vela_model::{checkpoint, LocalExpertStore, MoeModel};
use vela_nn::loss::cross_entropy;
use vela_nn::optim::{AdamW, AdamWConfig};

use vela_placement::{Placement, ReplicatedPlacement};

use crate::broker::BrokerClient;
use crate::launch::hosted_worker;
use crate::metrics::StepMetrics;
use crate::session::Session;
use crate::transport::{TransportConfig, TransportError};
use crate::worker::{expert_grads, ExpertTemplate};

/// What one [`RealRuntime::apply_relation`] call set in motion.
///
/// The call plans, admits and drops; it moves no parameters itself. Each
/// admitted lane streams its expert's frozen tensors under the training
/// steps that follow and is cut over at the next step boundary, `in_flight`
/// counts the lanes still to complete, and
/// [`RealRuntime::finish_migrations`] completes them at once instead.
#[derive(Debug, Clone)]
pub struct MigrationHandle {
    /// Experts whose replica set changes under the target.
    pub moved: usize,
    /// Lanes still streaming or queued when the call returned (an expert
    /// that gains no worker only drops copies, inside the call).
    pub in_flight: usize,
    /// Ledger window of the apply call itself: the stream requests of the
    /// lanes it admitted. The chunks and the cutovers land in the step
    /// windows they ride in.
    pub traffic: vela_cluster::StepTraffic,
}

/// The real-tensor step body: the backbone and its optimizer on the
/// master, and where the expert copies rest outside the steps.
#[derive(Debug)]
pub struct TensorBody {
    model: MoeModel,
    opt_model: AdamW,
    /// The hosted worker in process mode, where every copy rests (see
    /// [`resting`]); `None` beside threads.
    hosted: Option<usize>,
}

/// A live distributed fine-tuning session with real tensors.
pub type RealRuntime = Session<TensorBody>;

impl RealRuntime {
    /// Distributes `experts` across workers per `placement` and launches
    /// the workers over `transport`.
    ///
    /// `optim` is used by the master for the backbone *and* by each worker
    /// for its shard, matching the paper's per-device optimization.
    ///
    /// Every worker boots on the `resting` relation, the hosted one
    /// taking its shard by value: beside threads that is the placement
    /// itself, in process mode every copy on the hosted worker, which the
    /// mover then re-places onto the `vela_worker` children (its ledger
    /// window is discarded, so per-step traffic and
    /// [`migration_bytes`](Self::migration_bytes) stay
    /// transport-independent).
    ///
    /// # Panics
    /// Panics if the placement shape disagrees with the model or the
    /// worker list, if any expert is missing from `experts`, or if the
    /// transport cannot be brought up or re-placed onto (e.g. the
    /// `vela_worker` binary is missing in process mode).
    #[allow(clippy::too_many_arguments)]
    pub fn launch_with(
        transport: TransportConfig,
        model: MoeModel,
        mut experts: LocalExpertStore,
        placement: impl Into<ReplicatedPlacement>,
        topology: Topology,
        master: DeviceId,
        worker_devices: Vec<DeviceId>,
        optim: AdamWConfig,
    ) -> Self {
        let spec = model.config().spec();
        let template = ExpertTemplate::from_expert(experts.expert_mut(0, 0));
        let grad_bytes = (expert_grads(experts.expert_mut(0, 0)).len() * 4) as u32;
        let hosted = transport
            .is_process_mode()
            .then(|| hosted_worker(&topology, master, &worker_devices));
        let placement = placement.into();
        let body = TensorBody {
            model,
            opt_model: AdamW::new(optim),
            hosted,
        };
        let mut rt = Session::bring_up(
            transport,
            topology,
            master,
            worker_devices,
            resting(&placement, hosted),
            spec,
            grad_bytes,
            optim,
            Some(template),
            |resting| shard_experts(&mut experts, resting, &template),
            body,
        );
        // Straight to the broker: launch is not time the training loop
        // spends blocked on migration, and its window is dropped.
        rt.broker
            .apply_relation(&placement)
            .and_then(|_| rt.broker.finish_migrations())
            .unwrap_or_else(|e| panic!("placing the experts on the workers failed: {e}"));
        rt.ledger.take_step();
        rt
    }

    /// The backbone model (e.g. for routing snapshots).
    pub fn model(&self) -> &MoeModel {
        &self.body.model
    }

    /// Starts changing expert copies so the session's placement becomes
    /// `target`, between steps, and returns as soon as the plan is
    /// admitted ([`BrokerClient::apply_relation`], DESIGN.md §4l). Dropped
    /// copies go inside the call; each expert that gains workers takes a
    /// lane, streamed under the next step and cut over at the boundary
    /// after it, where every copy restarts from fresh moments. So a run is
    /// bitwise the run that applies the same changes stop-the-world at the
    /// same boundaries: `apply_relation` followed by
    /// [`finish_migrations`](Self::finish_migrations). Lanes still in
    /// flight from a previous call are completed first.
    ///
    /// # Panics
    /// Panics if `target`'s shape disagrees with the session. Transport
    /// and protocol failures surface as [`TransportError`].
    pub fn apply_relation(
        &mut self,
        target: &ReplicatedPlacement,
    ) -> Result<MigrationHandle, TransportError> {
        self.finish_migrations()?;
        let moved = self.blocked(|broker| broker.apply_relation(target))?;
        Ok(MigrationHandle {
            moved,
            in_flight: self.broker.migrations_in_flight(),
            traffic: self.take_traffic(),
        })
    }

    /// [`apply_relation`](Self::apply_relation) to the settled placement
    /// re-rooted on `target`'s owners
    /// ([`ReplicatedPlacement::with_primaries`]): each expert whose owner
    /// changes gets it as primary, loses its old primary's copy and keeps
    /// its other copies.
    pub fn apply_placement(
        &mut self,
        target: &Placement,
    ) -> Result<MigrationHandle, TransportError> {
        self.finish_migrations()?;
        self.apply_relation(&self.placement().with_primaries(target))
    }

    /// Lanes requested by [`apply_relation`](Self::apply_relation) and not
    /// yet cut over.
    pub fn migrations_in_flight(&self) -> usize {
        self.broker.migrations_in_flight()
    }

    /// Migration-bucket ledger bytes accounted since launch, whichever
    /// window they fell in: an apply call, a training step or a flush.
    pub fn migration_bytes(&self) -> u64 {
        self.migration_bytes
    }

    /// Completes every move in flight now, without steps to hide the
    /// streams under, and returns how many experts it cut over (0 when
    /// nothing was in flight). After an `apply_relation` this is
    /// stop-the-world migration.
    pub fn finish_migrations(&mut self) -> Result<usize, TransportError> {
        let cut_over = self.blocked(BrokerClient::finish_migrations)?;
        // The flush is a ledger window of its own (a step would discard
        // whatever it found open).
        self.take_traffic();
        Ok(cut_over)
    }

    /// Cumulative wall seconds the training loop has been blocked on
    /// parameter movement since launch: the apply calls, the cutovers at
    /// step boundaries (with any wait for a stream that had not landed)
    /// and the flushes. The chunk streams ride the step windows and do
    /// not accrue here — the benchmark's exposed-time column reads this.
    pub fn migration_blocked_secs(&self) -> f64 {
        self.migration_blocked
    }

    /// Runs one full distributed fine-tuning step and returns its metrics.
    /// The master's AdamW step runs while the workers step theirs.
    ///
    /// # Panics
    /// Panics if `inputs.len() != batch * seq` (propagated from the model)
    /// or the transport fails mid-exchange (the [`ExpertProvider`] seam is
    /// infallible); control-plane failures surface as [`TransportError`].
    ///
    /// [`ExpertProvider`]: vela_model::provider::ExpertProvider
    pub fn train_step(
        &mut self,
        inputs: &[usize],
        targets: &[usize],
        batch: usize,
        seq: usize,
    ) -> Result<StepMetrics, TransportError> {
        self.run_step(
            inputs.len(),
            seq,
            |body, broker| {
                let stats = body.model.train_step(inputs, targets, batch, seq, broker);
                Ok(Some(stats.loss))
            },
            |body| {
                let _opt = vela_obs::span("runtime.optimizer");
                body.opt_model.step(&mut body.model);
            },
        )
    }

    /// Evaluates the loss on a batch without updating anything (the
    /// `contract` integration test reads it).
    pub fn evaluate(
        &mut self,
        inputs: &[usize],
        targets: &[usize],
        batch: usize,
        seq: usize,
    ) -> f32 {
        let logits = self
            .body
            .model
            .forward(inputs, batch, seq, &mut self.broker);
        self.broker.take_phase_logs();
        cross_entropy(&logits, targets).0
    }

    /// Shuts the workers down and reassembles the expert population.
    ///
    /// Moves in flight complete first (a shadow is not an expert), then
    /// every copy goes back to its `resting` place — in process mode the
    /// hosted worker, beside threads where it already is — so the shards
    /// the hosted and thread workers hand back hold every expert. A
    /// transport failure on the way is logged, and the store then holds
    /// what came back.
    pub fn shutdown(mut self) -> (MoeModel, LocalExpertStore) {
        let home = resting(self.placement(), self.body.hosted);
        let broker = &mut self.broker;
        if let Err(e) = broker
            .finish_migrations()
            .and_then(|_| broker.apply_relation(&home))
            .and_then(|_| broker.finish_migrations())
        {
            vela_obs::warn!("moving the experts home at shutdown failed: {e}");
        }
        let (blocks, experts) = (home.blocks(), home.experts());
        let mut merged = LocalExpertStore::empty(blocks, experts);
        let (body, shards) = self.close();
        for mut shard in shards {
            for l in 0..blocks {
                for e in 0..experts {
                    // Replicas are bit-identical, so the first copy seen
                    // wins and the rest are dropped.
                    if shard.contains(l, e) && !merged.contains(l, e) {
                        merged.insert(l, e, shard.take(l, e));
                    }
                }
            }
        }
        (body.model, merged)
    }
}

/// Where `placement`'s copies rest outside the steps, at launch and at
/// shutdown. A copy on a worker process rests on the `hosted` worker
/// instead, which takes its shard by value and hands it back, so in
/// process mode (`hosted` is `Some`) every copy rests there; beside
/// threads every copy rests where it is placed.
fn resting(placement: &ReplicatedPlacement, hosted: Option<usize>) -> ReplicatedPlacement {
    match hosted {
        None => placement.clone(),
        Some(h) => {
            let all = vec![vec![h; placement.experts()]; placement.blocks()];
            Placement::new(all, placement.workers()).into()
        }
    }
}

/// Shards the expert population per `placement`, one store per worker,
/// for the workers that take theirs by value. The primary gets the expert
/// itself; any extra replicas get exact f32 checkpoint clones, so every
/// copy starts bit-identical.
fn shard_experts(
    experts: &mut LocalExpertStore,
    placement: &ReplicatedPlacement,
    template: &ExpertTemplate,
) -> Vec<LocalExpertStore> {
    let (blocks, per_block) = (placement.blocks(), placement.experts());
    let mut shards: Vec<LocalExpertStore> = (0..placement.workers())
        .map(|_| LocalExpertStore::empty(blocks, per_block))
        .collect();
    for l in 0..blocks {
        for e in 0..per_block {
            let mut ffn = experts.take(l, e);
            let replicas = placement.replicas_of(l, e);
            if replicas.len() > 1 {
                let mut data = Vec::new();
                checkpoint::save(&mut ffn, &mut data).expect("in-memory save");
                for &w in &replicas[1..] {
                    let mut copy = template.instantiate(l, e);
                    checkpoint::load(&mut copy, &mut data.as_slice()).expect("in-memory load");
                    shards[w].insert(l, e, copy);
                }
            }
            shards[replicas[0]].insert(l, e, ffn);
        }
    }
    shards
}

#[cfg(test)]
mod tests {
    use super::*;
    use vela_model::ModelConfig;
    use vela_placement::{PlacementProblem, Strategy};
    use vela_tensor::rng::DetRng;

    fn build() -> (MoeModel, LocalExpertStore, ModelConfig) {
        let cfg = ModelConfig::test_small();
        let mut rng = DetRng::new(11);
        let (model, experts) = MoeModel::new(&cfg, &mut rng);
        (model, experts, cfg)
    }

    fn sequential_placement(cfg: &ModelConfig, workers: usize) -> Placement {
        let assign: Vec<Vec<usize>> = (0..cfg.blocks)
            .map(|_| (0..cfg.experts).map(|e| e % workers).collect())
            .collect();
        Placement::new(assign, workers)
    }

    fn toy_batch(cfg: &ModelConfig, batch: usize, seed: u64) -> (Vec<usize>, Vec<usize>) {
        let mut rng = DetRng::new(seed);
        let n = batch * cfg.seq_len;
        (
            (0..n).map(|_| rng.below(cfg.vocab)).collect(),
            (0..n).map(|_| rng.below(cfg.vocab)).collect(),
        )
    }

    #[test]
    fn distributed_step_produces_metrics() {
        let (model, experts, cfg) = build();
        let topology = Topology::paper_testbed();
        let workers: Vec<DeviceId> = (0..6).map(DeviceId).collect();
        let mut rt = RealRuntime::launch_with(
            TransportConfig::channel(),
            model,
            experts,
            sequential_placement(&cfg, 6),
            topology,
            DeviceId(0),
            workers,
            AdamWConfig::default(),
        );
        assert_eq!(rt.transport_label(), "channel");
        let (inputs, targets) = toy_batch(&cfg, 2, 1);
        let m = rt.train_step(&inputs, &targets, 2, cfg.seq_len).unwrap();
        assert_eq!(m.step, 1);
        assert!(m.loss.unwrap().is_finite());
        assert!(m.traffic.total_bytes > 0, "tokens must cross the transport");
        assert!(m.traffic.external_total() > 0, "some experts are off-node");
        assert!(m.time.total() > 0.0);
        let (_, merged) = rt.shutdown();
        assert_eq!(merged.present_count(), cfg.blocks * cfg.experts);
    }

    #[test]
    fn losses_decrease_over_steps() {
        let (model, experts, cfg) = build();
        let topology = Topology::paper_testbed();
        let mut rt = RealRuntime::launch_with(
            TransportConfig::from_env(),
            model,
            experts,
            sequential_placement(&cfg, 6),
            topology,
            DeviceId(0),
            (0..6).map(DeviceId).collect(),
            AdamWConfig {
                lr: 3e-3,
                ..AdamWConfig::default()
            },
        );
        let (inputs, targets) = toy_batch(&cfg, 2, 2);
        let first = rt
            .train_step(&inputs, &targets, 2, cfg.seq_len)
            .unwrap()
            .loss
            .unwrap();
        let mut last = first;
        for _ in 0..15 {
            last = rt
                .train_step(&inputs, &targets, 2, cfg.seq_len)
                .unwrap()
                .loss
                .unwrap();
        }
        assert!(
            last < first,
            "distributed training must learn: {first} -> {last}"
        );
        rt.shutdown();
    }

    #[test]
    fn placement_on_master_device_moves_traffic_off_the_wire() {
        // All experts on the master-colocated worker: zero accounted bytes.
        let (model, experts, cfg) = build();
        let topology = Topology::paper_testbed();
        let all_on_zero = Placement::new(vec![vec![0; cfg.experts]; cfg.blocks], 6);
        let mut rt = RealRuntime::launch_with(
            TransportConfig::from_env(),
            model,
            experts,
            all_on_zero,
            topology,
            DeviceId(0),
            (0..6).map(DeviceId).collect(),
            AdamWConfig::default(),
        );
        let (inputs, targets) = toy_batch(&cfg, 1, 3);
        let m = rt.train_step(&inputs, &targets, 1, cfg.seq_len).unwrap();
        // Only tiny control messages (StepBegin/StepEnd/StepDone) remain.
        assert!(
            m.traffic.total_bytes < 200,
            "master-local experts should leave only control traffic, got {}",
            m.traffic.total_bytes
        );
        rt.shutdown();
    }

    #[test]
    fn tcp_threads_transport_is_a_drop_in_replacement() {
        // Same model, same batch, same steps, expert (0, 0) replicated —
        // once over channels, once over real loopback sockets. Losses must
        // agree bit-for-bit and the reassembled population must be
        // complete. Beside threads every worker, replicas included, took
        // its shard by value: nothing crossed before the first step.
        let run = |transport: TransportConfig| {
            let (model, experts, cfg) = build();
            let mut placement = ReplicatedPlacement::from(sequential_placement(&cfg, 6));
            placement.add_replica(0, 0, 3);
            let mut rt = RealRuntime::launch_with(
                transport,
                model,
                experts,
                placement,
                Topology::paper_testbed(),
                DeviceId(0),
                (0..6).map(DeviceId).collect(),
                AdamWConfig::default(),
            );
            let label = transport.label();
            assert_eq!(rt.frame_counts(), (0, 0), "{label}");
            assert_eq!(rt.migration_bytes(), 0, "{label}");
            let (inputs, targets) = toy_batch(&cfg, 2, 9);
            let losses: Vec<f32> = (0..2)
                .map(|_| {
                    rt.train_step(&inputs, &targets, 2, cfg.seq_len)
                        .unwrap()
                        .loss
                        .unwrap()
                })
                .collect();
            let (_, merged) = rt.shutdown();
            assert_eq!(merged.present_count(), cfg.blocks * cfg.experts);
            losses
        };
        let over_channel = run(TransportConfig::channel());
        let over_tcp = run(TransportConfig::tcp_threads());
        assert_eq!(
            over_channel.iter().map(|l| l.to_bits()).collect::<Vec<_>>(),
            over_tcp.iter().map(|l| l.to_bits()).collect::<Vec<_>>(),
            "transport must not change a single bit of the computation"
        );
    }

    #[test]
    fn vela_placement_reduces_external_traffic_at_micro_scale() {
        // Build a skewed problem from a synthetic profile, then compare
        // sequential vs LP placement on the real runtime.
        let run = |placement: Placement| -> u64 {
            let (model, experts, cfg) = build();
            let mut rt = RealRuntime::launch_with(
                TransportConfig::from_env(),
                model,
                experts,
                placement,
                Topology::paper_testbed(),
                DeviceId(0),
                (0..6).map(DeviceId).collect(),
                AdamWConfig::default(),
            );
            let (inputs, targets) = toy_batch(&cfg, 2, 4);
            let mut total = 0;
            for _ in 0..3 {
                total += rt
                    .train_step(&inputs, &targets, 2, cfg.seq_len)
                    .unwrap()
                    .traffic
                    .external_total();
            }
            rt.shutdown();
            total
        };

        // Measure the actual access frequencies first.
        let (mut model, mut experts, cfg) = build();
        let (inputs, _) = toy_batch(&cfg, 2, 4);
        model.forward(&inputs, 2, cfg.seq_len, &mut experts);
        let freqs: Vec<Vec<f64>> = model
            .routing_snapshot()
            .iter()
            .map(|info| info.frequencies().iter().map(|&f| f as f64).collect())
            .collect();
        let profile = vela_locality::LocalityProfile::from_frequencies("measured", freqs);

        let problem = PlacementProblem::new(
            Topology::paper_testbed(),
            DeviceId(0),
            (0..6).map(DeviceId).collect(),
            profile.to_matrix(),
            (2 * cfg.seq_len * cfg.top_k) as f64,
            (cfg.dim * 4) as u64,
            PlacementProblem::even_capacities(cfg.blocks, cfg.experts, 6, 1),
        );
        let vela_bytes = run(Strategy::Vela.place(&problem));
        let seq_bytes = run(Strategy::Sequential.place(&problem));
        assert!(
            vela_bytes < seq_bytes,
            "vela {vela_bytes} must beat sequential {seq_bytes}"
        );
    }
}
