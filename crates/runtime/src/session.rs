//! One master–worker session (§IV-A): the star of Expert Manager workers
//! behind a [`BrokerClient`], brought up, stepped and shut down once.
//!
//! A [`Session`] owns what both engines share and writes the step
//! skeleton: ledger window, `StepBegin`, the body's block passes under
//! `runtime.step`, replica gradient sync under `runtime.grad_sync`,
//! `StepEnd`, the body's work while the workers step their optimizers,
//! `StepDone`, the boundary migration pump and the modelled step time.
//! The body `B` is real tensors ([`RealRuntime`](crate::RealRuntime)) or
//! size-only rows sampled from a locality profile
//! ([`VirtualEngine`](crate::VirtualEngine)).
//!
//! Some workers run on the master's own thread: the session's hub serves
//! them whenever the master would otherwise wait for a reply. That is
//! every worker of a virtual session on `channel`, whose echo workers
//! compute nothing, and one worker otherwise (see the `launch` module).
//! The others are threads or `vela_worker` processes, which boot empty: a
//! body whose workers hold experts places copies on them with the
//! broker's one mover.

use std::sync::Arc;

use vela_cluster::{CostModel, DeviceId, StepTraffic, Topology, TrafficLedger};
use vela_model::{LocalExpertStore, MoeSpec};
use vela_nn::optim::AdamWConfig;
use vela_placement::ReplicatedPlacement;

use crate::broker::BrokerClient;
use crate::launch::{launch_star, WorkerHandle};
use crate::metrics::{backbone_flops_per_token, step_time, StepMetrics};
use crate::transport::{TransportConfig, TransportError, WireStats};
use crate::worker::{ExpertTemplate, WorkerBootstrap};

/// A live master–worker session over step body `B`.
#[derive(Debug)]
pub struct Session<B> {
    pub(crate) body: B,
    pub(crate) broker: BrokerClient,
    workers: Vec<WorkerHandle>,
    pub(crate) ledger: Arc<TrafficLedger>,
    cost: CostModel,
    master: DeviceId,
    worker_devices: Vec<DeviceId>,
    spec: MoeSpec,
    /// Flattened trainable-gradient bytes of one expert — the payload
    /// size of each replica gradient-sync transfer.
    grad_bytes: u32,
    step: usize,
    /// Wall seconds spent in [`blocked`](Self::blocked) calls.
    pub(crate) migration_blocked: f64,
    /// Migration-bucket ledger bytes of every window taken so far.
    pub(crate) migration_bytes: u64,
}

impl<B> Session<B> {
    /// Launches the workers over `transport` — hosted on this thread (all
    /// of them on `channel` without a `template`, else one), the others
    /// threads or processes — with `optim` and `template` as their
    /// bootstrap, and wraps `body` around them. Hosted workers and
    /// thread workers take their `shards(&placement)` store by value;
    /// processes boot empty and theirs are dropped.
    ///
    /// # Panics
    /// Panics if the placement shape disagrees with `spec` or the worker
    /// list, or if the transport cannot be brought up.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn bring_up(
        transport: TransportConfig,
        topology: Topology,
        master: DeviceId,
        worker_devices: Vec<DeviceId>,
        placement: ReplicatedPlacement,
        spec: MoeSpec,
        grad_bytes: u32,
        optim: AdamWConfig,
        template: Option<ExpertTemplate>,
        shards: impl FnOnce(&ReplicatedPlacement) -> Vec<LocalExpertStore>,
        body: B,
    ) -> Self {
        assert_eq!(
            (placement.blocks(), placement.experts(), placement.workers()),
            (spec.blocks, spec.experts, worker_devices.len()),
            "placement (blocks, experts, workers) mismatch"
        );
        let ledger = Arc::new(TrafficLedger::new(topology.clone()));
        let bootstrap = WorkerBootstrap {
            blocks: spec.blocks,
            experts: spec.experts,
            optim,
            template,
        };
        let (hub, workers) = launch_star(
            transport,
            ledger.clone(),
            master,
            &worker_devices,
            bootstrap,
            || shards(&placement),
        )
        .unwrap_or_else(|e| panic!("bringing up the {} star failed: {e}", transport.label()));
        Session {
            body,
            broker: BrokerClient::new(hub, placement),
            workers,
            ledger,
            cost: CostModel::new(topology),
            master,
            worker_devices,
            spec,
            grad_bytes,
            step: 0,
            migration_blocked: 0.0,
            migration_bytes: 0,
        }
    }

    /// The placement currently in force (the replica relation; degree 1
    /// everywhere when replication is off).
    pub fn placement(&self) -> &ReplicatedPlacement {
        self.broker.placement()
    }

    /// Label of the transport backend carrying this session's traffic.
    pub fn transport_label(&self) -> &'static str {
        self.broker.hub.transport()
    }

    /// Wire frames shipped/drained by the master hub so far (out, in).
    pub fn frame_counts(&self) -> (u64, u64) {
        self.broker.hub.frame_counts()
    }

    /// Actual encoded wire bytes by frame kind (headers vs payloads).
    /// Unlike the traffic ledger this *does* depend on the wire framing.
    pub fn wire_stats(&self) -> WireStats {
        self.broker.hub.wire_stats()
    }

    /// Closes the ledger window, keeping count of the migration bytes
    /// that fell in it.
    pub(crate) fn take_traffic(&mut self) -> StepTraffic {
        let traffic = self.ledger.take_step();
        self.migration_bytes += traffic.migration_bytes;
        traffic
    }

    /// Runs `f` on the broker, counting its wall time as time the training
    /// loop was blocked on parameter movement.
    pub(crate) fn blocked<T>(&mut self, f: impl FnOnce(&mut BrokerClient) -> T) -> T {
        let t0 = std::time::Instant::now();
        let out = f(&mut self.broker);
        self.migration_blocked += t0.elapsed().as_secs_f64();
        out
    }

    /// Runs one step: `passes` drives every block's exchanges through the
    /// broker and returns the loss, if any; `between` runs while the
    /// workers step their optimizers. `tokens` and `seq` price the
    /// master's backbone compute.
    pub(crate) fn run_step(
        &mut self,
        tokens: usize,
        seq: usize,
        passes: impl FnOnce(&mut B, &mut BrokerClient) -> Result<Option<f32>, TransportError>,
        between: impl FnOnce(&mut B),
    ) -> Result<StepMetrics, TransportError> {
        self.step += 1;
        self.take_traffic();
        // `step_begin` advances the process-unique trace step, so it must
        // precede the span open for the span to be tagged with this step.
        self.broker.step_begin()?;
        let _span = vela_obs::span("runtime.step");
        let loss = passes(&mut self.body, &mut self.broker)?;
        // Replica gradient sync rides between backward and StepEnd: the
        // workers' optimizers only run on StepEnd, so every replica steps
        // on the serving replica's gradients and copies stay bit-identical.
        let sync_flows = {
            let _sync = vela_obs::span("runtime.grad_sync");
            self.broker.sync_replica_grads(self.grad_bytes)?
        };
        // The master's work and the workers' optimizers touch disjoint
        // parameters, so they run side by side: StepEnd goes out first.
        self.broker.step_end()?;
        between(&mut self.body);
        self.broker.wait_step_done()?;
        // Step boundary: cut over the lanes that streamed under this step
        // and admit the next ones; both sides observe the flip before the
        // next `StepBegin` on their FIFO links.
        if self.broker.migrations_in_flight() > 0 {
            self.blocked(BrokerClient::pump_migrations)?;
        }

        let traffic = self.take_traffic();
        let logs = self.broker.take_phase_logs();
        let master_flops = tokens as f64 * backbone_flops_per_token(&self.spec, seq) * 3.0;
        let time = step_time(
            &self.cost,
            self.master,
            &self.worker_devices,
            &logs,
            &sync_flows,
            &self.spec,
            master_flops,
        );
        Ok(StepMetrics {
            step: self.step,
            loss,
            traffic,
            time,
        })
    }

    /// Broadcasts `Shutdown`, which the hub's shutdown serves to the
    /// hosted workers, joins the worker threads (or reaps the processes)
    /// and flushes the trace. Returns the body and the shards the hosted
    /// and thread workers hand back, in worker order.
    pub(crate) fn close(mut self) -> (B, Vec<LocalExpertStore>) {
        if let Err(e) = self.broker.shutdown() {
            vela_obs::warn!("shutdown broadcast failed (workers already gone?): {e}");
        }
        let shards = self
            .workers
            .into_iter()
            .filter_map(WorkerHandle::finish)
            .collect();
        vela_obs::flush();
        (self.body, shards)
    }
}
