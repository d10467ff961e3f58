//! The Expert Manager worker process (§IV-A, Fig. 4).
//!
//! Each worker owns a disjoint shard of experts, executes forward/backward
//! requests from the master's broker, and runs its own optimizer at step
//! end — exactly the worker role in the paper's framework, where expert
//! optimization never leaves the hosting device.
//!
//! Every worker is one `Worker`, driven a frame at a time. A thread
//! ([`ExpertManager::spawn`], over any [`WorkerPort`]) or a separate OS
//! process (the `vela_worker` binary) drives it through [`run_worker`];
//! the worker the master hosts is driven by the master's hub, on the
//! master's thread, whenever the master would otherwise wait for a reply.
//! Either way its first frame is an ordinary [`Message::Bootstrap`]
//! carrying a [`WorkerBootstrap`]; a thread, and the hosted worker on
//! every transport, is also handed its shard by value. A master disconnect is a
//! *clean* exit — the worker flushes its observability buffers and
//! returns its shard instead of aborting the process.
//!
//! Expert parameters cross one way in either direction: the frozen part as
//! a [`Message::ExpertChunk`] stream, then the trainable part as another.
//! A worker asked (`FetchShadow`, `FetchTrained`) streams the part and
//! keeps its copy; a worker receiving builds a shadow from the first
//! stream, completes the copy on it with the second, and acks each with
//! `InstallDone`. Only the master's migration lanes ask for either, also
//! for a process's copies, which arrive from the hosted worker after
//! launch and go back to it before shutdown.

use std::collections::HashMap;
use std::thread::JoinHandle;

use vela_model::checkpoint;
use vela_model::LocalExpertStore;
use vela_nn::optim::{AdamW, AdamWConfig};
use vela_nn::param::Module;
use vela_nn::swiglu::SwiGlu;
use vela_tensor::rng::DetRng;

use vela_obs::FlowPhase;

use crate::message::{
    chunk_expert_state, ChunkAssembler, GroupPass, Message, PackedData, PackedGroup, PackedReply,
    PackedRow,
};
use crate::pipeline::exchange_corr;
use crate::transport::{TransportError, WorkerPort};

/// The worker-side span wrapping one serve (+ its reply send).
const SPAN_SERVE: &str = "runtime.worker.serve";

/// Flattens an expert's trainable-parameter gradients into one row, in
/// `visit_params` order — the wire format of [`Message::GradState`].
pub(crate) fn expert_grads(ffn: &mut SwiGlu) -> Vec<f32> {
    let mut out = Vec::new();
    ffn.visit_params(&mut |p| {
        if p.is_trainable() {
            out.extend_from_slice(p.grad.as_slice());
        }
    });
    out
}

/// Installs a [`expert_grads`] row back into an expert's trainable
/// gradients, overwriting whatever the replica accumulated locally.
/// Returns `false`, touching nothing, when the row is not exactly as long
/// as the expert's trainable gradients — the peer's protocol violation.
fn install_expert_grads(ffn: &mut SwiGlu, grads: &[f32]) -> bool {
    let mut len = 0;
    ffn.visit_params(&mut |p| {
        if p.is_trainable() {
            len += p.grad.len();
        }
    });
    if len != grads.len() {
        return false;
    }
    let mut rest = grads;
    ffn.visit_params(&mut |p| {
        if p.is_trainable() {
            let g = p.grad.as_mut_slice();
            let (head, tail) = rest.split_at(g.len());
            g.copy_from_slice(head);
            rest = tail;
        }
    });
    true
}

/// Takes an expert's AdamW entries out of the optimizer: its next step
/// starts from fresh moments.
fn drop_moments(ffn: &mut SwiGlu, opt: &mut AdamW) {
    ffn.visit_params(&mut |p| {
        if p.is_trainable() {
            opt.take_moments(p.name());
        }
    });
}

/// The copies arriving at this worker, keyed by `(block, expert)`. Each
/// arrives as two [`Message::ExpertChunk`] streams: the frozen tensors,
/// then the trainable ones.
#[derive(Debug, Default)]
struct Shadows {
    /// Chunk streams still arriving.
    streaming: HashMap<(u32, u32), ChunkAssembler>,
    /// Experts built from a completed first stream: resident, but neither
    /// served nor trained until the second stream brings the trainable
    /// tensors.
    resident: HashMap<(u32, u32), SwiGlu>,
}

/// Architectural description of an expert, enough for a worker to rebuild
/// one that migrates in (the weights arrive as checkpoint bytes).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExpertTemplate {
    /// Model width.
    pub dim: usize,
    /// Expert FFN inner width.
    pub ffn_hidden: usize,
    /// `(rank, α)` when experts carry LoRA adapters.
    pub lora: Option<(usize, f32)>,
    /// Whether base projections are frozen.
    pub base_frozen: bool,
}

impl ExpertTemplate {
    /// Builds an architecturally matching blank expert for `(block,
    /// expert)`; migration then overwrites its weights.
    pub fn instantiate(&self, block: usize, expert: usize) -> SwiGlu {
        let mut rng = DetRng::new(0); // weights are overwritten by the load
        let mut ffn = SwiGlu::new(
            format!("block{block}.expert{expert}"),
            self.dim,
            self.ffn_hidden,
            &mut rng,
        );
        if self.base_frozen {
            ffn.freeze_base();
        }
        if let Some((rank, alpha)) = self.lora {
            ffn.attach_lora(rank, alpha, &mut rng);
        }
        ffn
    }

    /// Derives the template from an existing expert.
    pub fn from_expert(ffn: &SwiGlu) -> Self {
        ExpertTemplate {
            dim: ffn.dim(),
            ffn_hidden: ffn.hidden(),
            lora: ffn.lora_spec(),
            base_frozen: ffn.base_frozen(),
        }
    }
}

/// What a worker learns from its first frame, [`Message::Bootstrap`]:
/// shard shape, optimizer hyper-parameters, and (when the run migrates
/// real experts in) the expert architecture. The master sends it to every
/// worker on every transport; only the shard itself travels by value, to
/// a worker thread.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerBootstrap {
    /// MoE block count of the shard grid.
    pub blocks: usize,
    /// Experts per block of the shard grid.
    pub experts: usize,
    /// Optimizer configuration for the worker's local AdamW.
    pub optim: AdamWConfig,
    /// Expert architecture, when the worker must be able to *receive*
    /// experts (`None` for echo-only virtual workers).
    pub template: Option<ExpertTemplate>,
}

/// Handle to a spawned Expert Manager thread.
#[derive(Debug)]
pub struct ExpertManager {
    handle: JoinHandle<Result<LocalExpertStore, TransportError>>,
    index: usize,
}

impl ExpertManager {
    /// Spawns a worker thread that boots from the first frame on `port`
    /// and then serves `shard` (see [`run_worker`]).
    pub fn spawn(port: WorkerPort, shard: LocalExpertStore) -> Self {
        let index = port.index;
        let handle = std::thread::Builder::new()
            .name(format!("expert-manager-{index}"))
            .spawn(move || run_worker(port, Some(shard)))
            .expect("failed to spawn expert manager");
        ExpertManager { handle, index }
    }

    /// This worker's index in the master's worker list.
    pub fn index(&self) -> usize {
        self.index
    }

    /// Waits for the worker to exit (after `Shutdown`) and returns its
    /// shard, or why it never booted (see [`run_worker`]).
    ///
    /// # Panics
    /// Panics if the worker thread panicked.
    pub fn join(self) -> Result<LocalExpertStore, TransportError> {
        self.handle.join().expect("expert manager panicked")
    }
}

/// The one entry of every Expert Manager thread and `vela_worker` process:
/// serves frames until the worker stops (see `Worker::serve_next`) and
/// returns the final shard.
///
/// A thread brings its `shard` by value; a process passes `None` and starts
/// from an empty shard of the bootstrap's shape (migration lanes move its
/// copies in from the hosted worker, and normally back before `Shutdown`). An error means
/// the worker never booted: the link failed, the first frame was not a
/// bootstrap (a stale peer's version included), or the bootstrap's shape is
/// not the shard's.
pub fn run_worker(
    port: WorkerPort,
    shard: Option<LocalExpertStore>,
) -> Result<LocalExpertStore, TransportError> {
    let mut worker = Worker::new(port, shard);
    while worker.serve_next() {}
    worker.finish()
}

/// One Expert Manager, driven a frame at a time by whoever holds it: its
/// own thread or process through [`run_worker`], or the master's thread,
/// which serves the worker it hosts from inside its hub's receive.
#[derive(Debug)]
pub(crate) struct Worker {
    port: WorkerPort,
    stage: Stage,
}

#[derive(Debug)]
enum Stage {
    /// Waiting for [`Message::Bootstrap`], holding the shard handed over by
    /// value, if any.
    Booting(Option<LocalExpertStore>),
    Serving(Box<Serving>),
    /// The first frame was not a bootstrap of the shard's shape, or the
    /// link failed before one arrived.
    Refused(TransportError),
}

/// A booted worker: its shard, the optimizer that steps it, the
/// migrations landing here, and the template experts migrate in from.
#[derive(Debug)]
struct Serving {
    shard: LocalExpertStore,
    opt: AdamW,
    shadows: Shadows,
    template: Option<ExpertTemplate>,
}

impl Worker {
    /// A worker behind `port` that has not booted yet.
    pub(crate) fn new(port: WorkerPort, shard: Option<LocalExpertStore>) -> Self {
        Worker {
            port,
            stage: Stage::Booting(shard),
        }
    }

    /// Receives the next frame and acts on it; `false` once the worker has
    /// stopped. The first frame must be a bootstrap of the shard's shape.
    /// After it, the worker stops on `Shutdown`, on a master disconnect or
    /// failed link, and on a frame it cannot act on, which it logs.
    pub(crate) fn serve_next(&mut self) -> bool {
        let next = self.port.recv();
        let index = self.port.index;
        match &mut self.stage {
            Stage::Booting(shard) => match next.and_then(|msg| boot(msg, shard.take())) {
                Ok(state) => {
                    let shape = (state.shard.blocks(), state.shard.experts_per_block());
                    vela_obs::info!("worker {index} serving a {shape:?} shard");
                    self.stage = Stage::Serving(state);
                    true
                }
                Err(e) => {
                    self.stage = Stage::Refused(e);
                    false
                }
            },
            Stage::Serving(state) => {
                match next.and_then(|msg| handle(&mut self.port, state, msg)) {
                    Ok(Flow::Continue) => true,
                    Ok(Flow::Stop) => false,
                    Err(TransportError::Disconnected) => {
                        vela_obs::warn!("worker {index}: master disconnected, exiting cleanly");
                        false
                    }
                    Err(e) => {
                        vela_obs::error!("worker {index}: transport error, exiting: {e}");
                        false
                    }
                }
            }
            Stage::Refused(_) => false,
        }
    }

    /// Closes the port (a channel port posts its hang-up as it drops),
    /// flushes the observability buffers and returns the shard, or why the
    /// worker never booted.
    pub(crate) fn finish(mut self) -> Result<LocalExpertStore, TransportError> {
        self.port.shutdown();
        vela_obs::flush();
        match self.stage {
            Stage::Serving(state) => Ok(state.shard),
            Stage::Refused(e) => Err(e),
            Stage::Booting(_) => Err(TransportError::Disconnected),
        }
    }
}

/// Boots from the first frame: a bootstrap whose shape is the handed
/// shard's, or any shape when no shard was handed over.
fn boot(first: Message, shard: Option<LocalExpertStore>) -> Result<Box<Serving>, TransportError> {
    let boot = match first {
        Message::Bootstrap(boot) => boot,
        other => {
            return Err(TransportError::Protocol(format!(
                "expected Bootstrap as the first frame, got {other:?}"
            )))
        }
    };
    let shard = shard.unwrap_or_else(|| LocalExpertStore::empty(boot.blocks, boot.experts));
    let shape = (boot.blocks, boot.experts);
    if (shard.blocks(), shard.experts_per_block()) != shape {
        let why = format!("bootstrap shape {shape:?} is not the handed shard's");
        return Err(TransportError::Protocol(why));
    }
    Ok(Box::new(Serving {
        shard,
        opt: AdamW::new(boot.optim),
        shadows: Shadows::default(),
        template: boot.template,
    }))
}

/// Whether the worker keeps serving after a message.
enum Flow {
    Continue,
    Stop,
}

fn handle(
    port: &mut WorkerPort,
    state: &mut Serving,
    msg: Message,
) -> Result<Flow, TransportError> {
    let Serving {
        shard,
        opt,
        shadows,
        template,
    } = state;
    let template = template.as_ref();
    match msg {
        Message::StepBegin { step } => {
            // Tag this worker's spans/flows with the master's step: every
            // dispatch that follows on this FIFO link belongs to it.
            vela_obs::step_begin(step);
            shard.zero_grad();
        }
        Message::ClockProbe { t1 } => {
            let t2 = vela_obs::now_us();
            let t3 = vela_obs::now_us();
            port.send(&Message::ClockReply { t1, t2, t3 })?;
        }
        Message::PackedDispatch(group) => {
            if let Err(why) = servable(shard, &group) {
                vela_obs::error!(
                    "worker {}: cannot serve a dispatch: {why}, exiting",
                    port.index
                );
                return Ok(Flow::Stop);
            }
            // The same key the master derived: the step comes from the last
            // `StepBegin` (per-link FIFO order makes that the step this
            // frame belongs to), the worker index from the port.
            let corr = exchange_corr(port.index, group.block as usize, group.pass);
            let _serve = vela_obs::span(SPAN_SERVE);
            // The flow pair bounds the compute; the reply send after the
            // second endpoint is wire time from the master's viewpoint.
            vela_obs::flow(FlowPhase::Step, corr);
            let reply = serve_packed(shard, group);
            vela_obs::flow(FlowPhase::Step, corr);
            port.send(&Message::PackedResult(reply))?;
        }
        Message::StepEnd => {
            opt.step(shard);
            port.send(&Message::StepDone)?;
        }
        Message::FetchGrads {
            block,
            expert,
            grad_bytes,
        } => {
            // Replica sync: ship this replica's accumulated gradients to
            // the master as one row. Only an echo worker (no template)
            // answers for a copy it lacks, with a virtual row of the
            // declared size, so simulated runs account a real run's bytes.
            let row = if shard.contains(block as usize, expert as usize) {
                let grads = expert_grads(shard.expert_mut(block as usize, expert as usize));
                PackedRow {
                    width: grads.len() as u32,
                    data: PackedData::F32(grads),
                }
            } else if template.is_none() {
                PackedRow {
                    width: grad_bytes,
                    data: PackedData::Virtual,
                }
            } else {
                vela_obs::error!(
                    "worker {}: grad fetch for absent expert ({block}, {expert}), exiting",
                    port.index
                );
                return Ok(Flow::Stop);
            };
            port.send(&Message::GradState { block, expert, row })?;
        }
        Message::GradState { block, expert, row } => {
            // No reply: the `StepDone` this link carries after the install
            // answers for it. Only an echo worker takes a virtual row.
            let (b, e) = (block as usize, expert as usize);
            let installed = match &row.data {
                PackedData::F32(data) => {
                    shard.contains(b, e) && install_expert_grads(shard.expert_mut(b, e), data)
                }
                PackedData::Virtual => template.is_none(),
            };
            if !installed {
                vela_obs::error!(
                    "worker {}: cannot install grad state for ({block}, {expert}), exiting",
                    port.index
                );
                return Ok(Flow::Stop);
            }
        }
        Message::FetchShadow { block, expert } | Message::FetchTrained { block, expert } => {
            if !shard.contains(block as usize, expert as usize) {
                vela_obs::error!(
                    "worker {}: fetch for absent expert ({block}, {expert}), exiting",
                    port.index
                );
                return Ok(Flow::Stop);
            }
            // Stream the frozen or the trainable part and keep the copy:
            // whether it stays is the master's `Evict` to send. No step
            // changes the frozen part, so a shadow built from it is still
            // exact at the cutover, whenever that comes.
            let trainable = matches!(msg, Message::FetchTrained { .. });
            let ffn = shard.expert_mut(block as usize, expert as usize);
            let mut data = Vec::new();
            checkpoint::save_part(ffn, &mut data, trainable).expect("in-memory save");
            for frame in chunk_expert_state(block, expert, &data) {
                port.send(&frame)?;
            }
        }
        Message::ExpertChunk {
            block,
            expert,
            offset,
            total,
            data,
        } => {
            let key = (block, expert);
            // The chunk at offset 0 opens a stream (the assembler rejects
            // any other first offset), but never over a copy this worker
            // already holds.
            if !shadows.streaming.contains_key(&key)
                && shard.contains(block as usize, expert as usize)
            {
                vela_obs::error!(
                    "worker {}: expert chunk for ({block}, {expert}), already held here, exiting",
                    port.index
                );
                return Ok(Flow::Stop);
            }
            let asm = shadows
                .streaming
                .entry(key)
                .or_insert_with(|| ChunkAssembler::new(block, expert));
            if let Err(e) = asm.accept(offset, total, &data) {
                vela_obs::error!("worker {}: rejected expert chunk: {e}, exiting", port.index);
                return Ok(Flow::Stop);
            }
            if asm.is_complete() {
                let blob = shadows
                    .streaming
                    .remove(&key)
                    .expect("assembler present")
                    .into_bytes();
                // A first stream builds a shadow; a second completes the
                // copy on it, which then serves.
                let shadow = shadows.resident.remove(&key);
                let completes = shadow.is_some();
                match build_expert(template, shadow, block, expert, &blob) {
                    Ok(ffn) if completes => shard.insert(block as usize, expert as usize, ffn),
                    Ok(shadow) => {
                        shadows.resident.insert(key, shadow);
                    }
                    Err(why) => {
                        vela_obs::error!(
                            "worker {}: cannot install expert ({block}, {expert}): {why}, exiting",
                            port.index
                        );
                        return Ok(Flow::Stop);
                    }
                }
                port.send(&Message::InstallDone { block, expert })?;
            }
        }
        Message::Evict { block, expert } => {
            // The placement dropped this copy. An expert that later
            // returns to this worker starts from fresh moments, as on any
            // other destination.
            if shard.contains(block as usize, expert as usize) {
                drop_moments(&mut shard.take(block as usize, expert as usize), opt);
            } else {
                vela_obs::warn!(
                    "worker {}: evict for absent expert ({block}, {expert})",
                    port.index
                );
            }
        }
        Message::DropMoments { block, expert } => {
            // A lane gave this expert a new copy, which starts from fresh
            // moments, so this one does too.
            if shard.contains(block as usize, expert as usize) {
                drop_moments(shard.expert_mut(block as usize, expert as usize), opt);
            } else {
                vela_obs::warn!(
                    "worker {}: moment drop for absent expert ({block}, {expert})",
                    port.index
                );
            }
        }
        Message::Shutdown => return Ok(Flow::Stop),
        other => {
            vela_obs::error!(
                "worker {}: unexpected message {other:?}, exiting",
                port.index
            );
            return Ok(Flow::Stop);
        }
    }
    Ok(Flow::Continue)
}

/// Builds the expert a blob of checkpoint bytes describes: loaded onto
/// `shadow` when a first stream already built one (the blob then holds the
/// tensors the shadow lacks), else onto a blank instance of the template.
/// A worker launched without a template, or bytes the loader rejects, are
/// the peer's protocol violation: the reason comes back for the caller's
/// log-and-stop exit.
fn build_expert(
    template: Option<&ExpertTemplate>,
    shadow: Option<SwiGlu>,
    block: u32,
    expert: u32,
    data: &[u8],
) -> Result<SwiGlu, String> {
    let mut ffn = match shadow {
        Some(shadow) => shadow,
        None => template
            .ok_or("this worker has no expert template")?
            .instantiate(block as usize, expert as usize),
    };
    checkpoint::load(&mut ffn, &mut &data[..]).map_err(|e| format!("checkpoint rejected: {e}"))?;
    Ok(ffn)
}

/// Whether this worker can serve a dispatch, checked before any compute:
/// real rows need every expert the frame names to be held here (so its
/// block exists) and named once, and the rows to be as wide as the
/// experts; a backward also needs each expert's forward cache, of as many
/// rows as the backward brings. Virtual rows are echoed and need none of
/// it.
fn servable(shard: &mut LocalExpertStore, group: &PackedGroup) -> Result<(), String> {
    let (block, width) = (group.block as usize, group.width as usize);
    if matches!(group.data, PackedData::Virtual) {
        return Ok(());
    }
    for (i, span) in group.spans.iter().enumerate() {
        let expert = span.expert as usize;
        if !shard.contains(block, expert) {
            return Err(format!("expert ({block}, {expert}) is not held here"));
        }
        if group.spans[..i].iter().any(|s| s.expert == span.expert) {
            return Err(format!("expert ({block}, {expert}) is named twice"));
        }
        let ffn = shard.expert_mut(block, expert);
        let dim = ffn.dim();
        if width != dim {
            return Err(format!(
                "rows {width} wide for expert ({block}, {expert}) of dim {dim}"
            ));
        }
        let cached = ffn.cached_rows();
        if group.pass == GroupPass::Backward && cached != Some(span.rows as usize) {
            return Err(format!(
                "a backward of {} rows for expert ({block}, {expert}), whose forward cache holds {cached:?}",
                span.rows
            ));
        }
    }
    Ok(())
}

/// Serves one dispatch: the frame's single row region goes through one
/// `forward_rows`/`backward_rows` call — the same per-expert kernels a
/// local `forward_block`/`backward_block` over the same batches runs, so
/// the reply is bit-identical to single-process compute — and it is again
/// one contiguous region with no per-item headers.
fn serve_packed(shard: &mut LocalExpertStore, group: PackedGroup) -> PackedReply {
    let PackedGroup {
        block,
        pass,
        width,
        spans,
        data,
    } = group;
    let items = spans.len() as u32;
    let rows: u32 = spans.iter().map(|s| s.rows).sum();
    let data = match data {
        PackedData::Virtual => PackedData::Virtual,
        PackedData::F32(region) => {
            let parts: Vec<(usize, usize)> = spans
                .iter()
                .map(|s| (s.expert as usize, s.rows as usize))
                .collect();
            let (block, width) = (block as usize, width as usize);
            let mut out = Vec::new();
            match pass {
                GroupPass::Forward => shard.forward_rows(block, width, &parts, &region, &mut out),
                GroupPass::Backward => shard.backward_rows(block, width, &parts, &region, &mut out),
            }
            PackedData::F32(out)
        }
    };
    PackedReply {
        block,
        pass,
        width,
        items,
        rows,
        data,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::{build_star, TransportConfig};
    use std::sync::Arc;
    use vela_cluster::{DeviceId, Topology, TrafficLedger};
    use vela_model::provider::ExpertBatch;
    use vela_model::{ExpertProvider, ModelConfig};
    use vela_tensor::rng::DetRng;
    use vela_tensor::Tensor;

    /// The bootstrap of a `ModelConfig::test_small` shard.
    fn bootstrap(template: Option<ExpertTemplate>) -> Message {
        let cfg = ModelConfig::test_small();
        Message::Bootstrap(WorkerBootstrap {
            blocks: cfg.blocks,
            experts: cfg.experts,
            optim: AdamWConfig::default(),
            template,
        })
    }

    fn spawn_one() -> (crate::transport::MasterHub, ExpertManager, ModelConfig) {
        let cfg = ModelConfig::test_small();
        let ledger = Arc::new(TrafficLedger::new(Topology::paper_testbed()));
        let (mut hub, mut ports) = build_star(
            TransportConfig::channel(),
            ledger,
            DeviceId(0),
            &[DeviceId(2)],
            None,
        )
        .unwrap();
        let shard = LocalExpertStore::new(&cfg, &mut DetRng::new(5));
        let manager = ExpertManager::spawn(ports.remove(0), shard);
        hub.send(0, &bootstrap(None)).unwrap();
        (hub, manager, cfg)
    }

    /// Ships `parts` as one dispatch frame and returns the worker's reply.
    fn dispatch(
        hub: &mut crate::transport::MasterHub,
        block: u32,
        pass: GroupPass,
        parts: &[(u32, &Tensor)],
    ) -> PackedReply {
        let width = parts[0].1.cols() as u32;
        hub.send(
            0,
            &Message::PackedDispatch(PackedGroup::pack(
                block,
                pass,
                width,
                parts.iter().map(|&(e, t)| (e, t.as_slice())),
            )),
        )
        .unwrap();
        match hub.recv().unwrap() {
            (0, Message::PackedResult(reply)) => reply,
            other => panic!("expected PackedResult from worker 0, got {other:?}"),
        }
    }

    #[test]
    fn serves_forward_and_backward() {
        let (mut hub, manager, cfg) = spawn_one();
        let mut rng = DetRng::new(1);
        let xs = Tensor::uniform((3, cfg.dim), -1.0, 1.0, &mut rng);

        hub.send(0, &Message::StepBegin { step: 0 }).unwrap();
        let reply = dispatch(&mut hub, 0, GroupPass::Forward, &[(1, &xs)]);
        assert_eq!((reply.block, reply.pass), (0, GroupPass::Forward));
        assert_eq!((reply.items, reply.rows), (1, 3));
        assert_eq!(reply.width as usize, cfg.dim);
        assert_eq!(reply.data.as_f32().unwrap().len(), 3 * cfg.dim);

        let reply = dispatch(
            &mut hub,
            0,
            GroupPass::Backward,
            &[(1, &Tensor::ones((3, cfg.dim)))],
        );
        assert_eq!((reply.pass, reply.rows), (GroupPass::Backward, 3));

        hub.send(0, &Message::StepEnd).unwrap();
        let (_, done) = hub.recv().unwrap();
        assert_eq!(done, Message::StepDone);

        hub.send(0, &Message::Shutdown).unwrap();
        let shard = manager.join().unwrap();
        assert_eq!(shard.present_count(), cfg.blocks * cfg.experts);
    }

    #[test]
    fn virtual_payloads_are_echoed() {
        let (mut hub, manager, _) = spawn_one();
        hub.send(
            0,
            &Message::PackedDispatch(PackedGroup::pack_virtual(
                3,
                GroupPass::Forward,
                8192,
                [(2, 77), (5, 4)].into_iter(),
            )),
        )
        .unwrap();
        let (_, reply) = hub.recv().unwrap();
        assert_eq!(
            reply,
            Message::PackedResult(PackedReply {
                block: 3,
                pass: GroupPass::Forward,
                width: 8192,
                items: 2,
                rows: 81,
                data: PackedData::Virtual,
            })
        );
        hub.send(0, &Message::Shutdown).unwrap();
        manager.join().unwrap();
    }

    #[test]
    fn matches_local_computation_exactly() {
        // The worker must compute exactly what a local store computes.
        let cfg = ModelConfig::test_small();
        let mut local = LocalExpertStore::new(&cfg, &mut DetRng::new(5));
        let (mut hub, manager, _) = spawn_one(); // same seed inside
        let mut rng = DetRng::new(2);
        let xs = Tensor::uniform((4, cfg.dim), -1.0, 1.0, &mut rng);

        let local_out = local
            .forward_block(
                1,
                &[ExpertBatch {
                    expert: 0,
                    xs: xs.clone(),
                }],
            )
            .pop()
            .unwrap();

        let reply = dispatch(&mut hub, 1, GroupPass::Forward, &[(0, &xs)]);
        assert_eq!(
            reply.data.as_f32().unwrap(),
            local_out.as_slice(),
            "bit-exact parity"
        );
        hub.send(0, &Message::Shutdown).unwrap();
        manager.join().unwrap();
    }

    #[test]
    fn one_frame_of_two_batches_matches_serving_each_alone_bitwise() {
        // Two batches in one frame: the reply region must be, bit for bit,
        // what serving each batch on its own produces, in dispatch order.
        let cfg = ModelConfig::test_small();
        let mut local = LocalExpertStore::new(&cfg, &mut DetRng::new(5));
        let (mut hub, manager, _) = spawn_one(); // same seed inside
        let mut rng = DetRng::new(9);
        let xs0 = Tensor::uniform((3, cfg.dim), -1.0, 1.0, &mut rng);
        let xs1 = Tensor::uniform((2, cfg.dim), -1.0, 1.0, &mut rng);

        let expect: Vec<f32> = [(0, &xs0), (2, &xs1)]
            .into_iter()
            .flat_map(|(expert, xs)| {
                let batch = ExpertBatch {
                    expert,
                    xs: xs.clone(),
                };
                local.forward_block(0, &[batch]).remove(0).into_vec()
            })
            .collect();

        let reply = dispatch(&mut hub, 0, GroupPass::Forward, &[(0, &xs0), (2, &xs1)]);
        assert_eq!((reply.block, reply.pass), (0, GroupPass::Forward));
        assert_eq!((reply.items, reply.rows), (2, 5));
        assert_eq!(reply.data.as_f32().unwrap(), expect, "bit-exact parity");
        hub.send(0, &Message::Shutdown).unwrap();
        manager.join().unwrap();
    }

    /// Sends `frames` to a lone worker holding `shard` and checks the
    /// unhappy path's contract: the worker logs and leaves its loop — so
    /// `join` hands back the shard instead of propagating a panic — and the
    /// master's next receive after the acks of any streams that landed is
    /// a typed error, not a hang.
    fn assert_clean_stop(
        shard: LocalExpertStore,
        template: Option<ExpertTemplate>,
        frames: &[Message],
    ) {
        let ledger = Arc::new(TrafficLedger::new(Topology::paper_testbed()));
        let (mut hub, mut ports) = build_star(
            TransportConfig::channel(),
            ledger,
            DeviceId(0),
            &[DeviceId(2)],
            None,
        )
        .unwrap();
        let held = shard.present_count();
        let manager = ExpertManager::spawn(ports.remove(0), shard);
        hub.send(0, &bootstrap(template)).unwrap();
        for frame in frames {
            hub.send(0, frame).unwrap();
        }
        assert_eq!(manager.join().unwrap().present_count(), held, "{frames:?}");
        let next = loop {
            match hub.recv_timeout(std::time::Duration::from_secs(10)) {
                Ok((_, Message::InstallDone { .. } | Message::PackedResult(_))) => continue,
                next => break next,
            }
        };
        assert!(
            matches!(next, Err(TransportError::Disconnected)),
            "{frames:?}: master saw {next:?}"
        );
    }

    fn small_template() -> (ExpertTemplate, Vec<u8>) {
        let cfg = ModelConfig::test_small();
        let mut store = LocalExpertStore::new(&cfg, &mut DetRng::new(5));
        let ffn = store.expert_mut(0, 0);
        let mut blob = Vec::new();
        checkpoint::save(ffn, &mut blob).unwrap();
        (ExpertTemplate::from_expert(ffn), blob)
    }

    fn empty_shard() -> LocalExpertStore {
        let cfg = ModelConfig::test_small();
        LocalExpertStore::empty(cfg.blocks, cfg.experts)
    }

    #[test]
    fn fetch_for_an_absent_expert_stops_the_worker_cleanly() {
        let (block, expert) = (0, 1);
        assert_clean_stop(
            empty_shard(),
            None,
            &[Message::FetchTrained { block, expert }],
        );
    }

    #[test]
    fn shadow_fetch_for_an_absent_expert_stops_the_worker_cleanly() {
        let (block, expert) = (0, 1);
        assert_clean_stop(
            empty_shard(),
            None,
            &[Message::FetchShadow { block, expert }],
        );
    }

    #[test]
    fn a_real_worker_never_sends_or_accepts_a_virtual_gradient_row() {
        // A template-booted worker holds real experts only: it neither
        // answers a grad fetch for a copy it lacks with a virtual row nor
        // takes one in place of real gradients.
        let (template, _) = small_template();
        let (block, expert) = (0, 1);
        let fetch = Message::FetchGrads {
            block,
            expert,
            grad_bytes: 64,
        };
        assert_clean_stop(empty_shard(), Some(template), &[fetch]);
        let install = Message::GradState {
            block,
            expert,
            row: PackedRow {
                width: 64,
                data: PackedData::Virtual,
            },
        };
        let held = LocalExpertStore::new(&ModelConfig::test_small(), &mut DetRng::new(5));
        assert_clean_stop(held, Some(template), &[install]);
    }

    #[test]
    fn a_gradient_row_of_the_wrong_length_stops_the_worker_cleanly() {
        let cfg = ModelConfig::test_small();
        let held = || LocalExpertStore::new(&cfg, &mut DetRng::new(5));
        let len = expert_grads(held().expert_mut(0, 1)).len();
        for width in [len - 1, len + 1] {
            let install = Message::GradState {
                block: 0,
                expert: 1,
                row: PackedRow {
                    width: width as u32,
                    data: PackedData::F32(vec![0.0; width]),
                },
            };
            assert_clean_stop(held(), None, &[install]);
        }
    }

    #[test]
    fn a_dispatch_the_worker_cannot_serve_stops_it_cleanly() {
        let cfg = ModelConfig::test_small();
        let held = || LocalExpertStore::new(&cfg, &mut DetRng::new(5));
        let missing = || {
            let mut shard = held();
            shard.take(0, 1);
            shard
        };
        let rows = |width: usize| vec![0.5; 2 * width];
        let (fit, wide) = (rows(cfg.dim), rows(cfg.dim + 1));
        // (shard, block, width, spans): a block out of range, an expert not
        // held here, one named twice, rows wider than the experts.
        type Case<'a> = (LocalExpertStore, u32, usize, Vec<(u32, &'a [f32])>);
        for pass in [GroupPass::Forward, GroupPass::Backward] {
            let cases: [Case; 4] = [
                (held(), cfg.blocks as u32, cfg.dim, vec![(0, &fit)]),
                (missing(), 0, cfg.dim, vec![(0, &fit), (1, &fit)]),
                (held(), 0, cfg.dim, vec![(2, &fit), (2, &fit)]),
                (held(), 0, cfg.dim + 1, vec![(0, &wide)]),
            ];
            for (shard, block, width, spans) in cases {
                let group = PackedGroup::pack(block, pass, width as u32, spans.into_iter());
                assert_clean_stop(shard, None, &[Message::PackedDispatch(group)]);
            }
        }
    }

    #[test]
    fn a_backward_without_its_forward_stops_the_worker_cleanly() {
        let cfg = ModelConfig::test_small();
        let held = || LocalExpertStore::new(&cfg, &mut DetRng::new(5));
        let dispatch = |pass, rows: usize| {
            let data = vec![0.5; rows * cfg.dim];
            let group = PackedGroup::pack(0, pass, cfg.dim as u32, [(1, &data[..])].into_iter());
            Message::PackedDispatch(group)
        };
        // No forward at all, then a forward of two rows and a backward of
        // three: either would panic in `SwiGlu::backward`.
        assert_clean_stop(held(), None, &[dispatch(GroupPass::Backward, 2)]);
        let mismatched = [
            dispatch(GroupPass::Forward, 2),
            dispatch(GroupPass::Backward, 3),
        ];
        assert_clean_stop(held(), None, &mismatched);
    }

    #[test]
    fn uninstallable_expert_state_stops_the_worker_cleanly() {
        // The second stream completes the copy on the shadow the first one
        // built; bytes no loader accepts stop the worker there, and the
        // shadow never serves.
        let (template, blob) = small_template();
        let mut frames = chunk_expert_state(0, 1, &blob);
        frames.extend(chunk_expert_state(0, 1, b"not a checkpoint"));
        assert_clean_stop(empty_shard(), Some(template), &frames);
    }

    #[test]
    fn uninstallable_shadow_stops_the_worker_cleanly() {
        let (template, blob) = small_template();
        // Same two violations through the chunked path: the shadow only
        // materialises once the last chunk has arrived.
        for (template, data) in [(None, blob), (Some(template), b"not a checkpoint".to_vec())] {
            let frames = chunk_expert_state(0, 1, &data);
            assert_clean_stop(empty_shard(), template, &frames);
        }
    }

    #[test]
    fn a_chunk_that_cannot_open_an_install_stops_the_worker_cleanly() {
        let (template, blob) = small_template();
        let cfg = ModelConfig::test_small();
        // A stream must start at offset 0...
        let late = Message::ExpertChunk {
            block: 0,
            expert: 1,
            offset: 8,
            total: 16,
            data: vec![0; 8],
        };
        assert_clean_stop(empty_shard(), Some(template), &[late]);
        // ...and never lands on a copy the worker already serves.
        let held = LocalExpertStore::new(&cfg, &mut DetRng::new(5));
        let frames = chunk_expert_state(0, 0, &blob);
        assert_clean_stop(held, Some(template), &frames[..1]);
    }

    /// Hands `worker` the next frame its port holds; it must keep serving.
    fn serve(worker: &mut Worker) {
        assert!(worker.serve_next(), "worker {} stopped", worker.port.index);
    }

    /// A booted worker's state, in reach of the test.
    fn state(worker: &mut Worker) -> &mut Serving {
        match &mut worker.stage {
            Stage::Serving(state) => state,
            other => panic!("worker {} is not serving: {other:?}", worker.port.index),
        }
    }

    fn holds_moments_for(worker: &mut Worker, names: &[String]) -> bool {
        let opt = &state(worker).opt;
        names.iter().any(|n| opt.moments(n).is_some())
    }

    /// Moves expert `(0, 0)` between two workers served on the test's own
    /// thread (the channel transport never blocks a sender), playing the
    /// master: per part, stream request, chunk relay, ack; then evict.
    fn migrate(hub: &mut crate::transport::MasterHub, from: &mut Worker, to: &mut Worker) {
        let (block, expert) = (0, 0);
        for fetch in [
            Message::FetchShadow { block, expert },
            Message::FetchTrained { block, expert },
        ] {
            hub.send(from.port.index, &fetch).unwrap();
            serve(from);
            loop {
                let (w, msg) = hub.recv().unwrap();
                if msg == (Message::InstallDone { block, expert }) {
                    assert_eq!(w, to.port.index);
                    break;
                }
                assert!(matches!(msg, Message::ExpertChunk { .. }), "{msg:?}");
                hub.send(to.port.index, &msg).unwrap();
                serve(to);
            }
            let serves = matches!(fetch, Message::FetchTrained { .. });
            assert_eq!(state(to).shard.contains(0, 0), serves, "after {fetch:?}");
        }
        assert!(state(from).shard.contains(0, 0), "a fetch keeps the copy");
        hub.send(from.port.index, &Message::Evict { block, expert })
            .unwrap();
        serve(from);
        assert!(state(to).shard.contains(0, 0) && !state(from).shard.contains(0, 0));
    }

    /// Steps `worker`'s optimizer over its shard, as a `StepEnd` would.
    fn step_optimizer(worker: &mut Worker) {
        let Serving { shard, opt, .. } = state(worker);
        opt.step(shard);
    }

    #[test]
    fn an_expert_that_returns_finds_no_moments_from_its_last_stay() {
        // Expert (0, 0) trains on A, moves to B, trains there, moves back.
        // Between the two stays A's optimizer must hold nothing for it.
        let cfg = ModelConfig::test_small();
        let ledger = Arc::new(TrafficLedger::new(Topology::paper_testbed()));
        let (mut hub, ports) = build_star(
            TransportConfig::channel(),
            ledger,
            DeviceId(0),
            &[DeviceId(1), DeviceId(2)],
            None,
        )
        .unwrap();
        let mut full = LocalExpertStore::new(&cfg, &mut DetRng::new(5));
        let template = ExpertTemplate::from_expert(full.expert_mut(0, 0));
        let mut names = Vec::new();
        full.expert_mut(0, 0).visit_params(&mut |p| {
            if p.is_trainable() {
                names.push(p.name().to_string());
            }
        });
        assert!(!names.is_empty());
        let shards = [full, LocalExpertStore::empty(cfg.blocks, cfg.experts)];
        let mut sides = ports
            .into_iter()
            .zip(shards)
            .map(|(port, shard)| Worker::new(port, Some(shard)));
        let (mut a, mut b) = (sides.next().unwrap(), sides.next().unwrap());
        hub.broadcast(&bootstrap(Some(template))).unwrap();
        serve(&mut a);
        serve(&mut b);

        step_optimizer(&mut a);
        assert!(holds_moments_for(&mut a, &names));
        migrate(&mut hub, &mut a, &mut b);
        assert!(
            !holds_moments_for(&mut a, &names),
            "the source kept moments for an expert it no longer holds"
        );
        step_optimizer(&mut b);
        assert!(holds_moments_for(&mut b, &names));
        migrate(&mut hub, &mut b, &mut a);
        assert!(!holds_moments_for(&mut a, &names) && !holds_moments_for(&mut b, &names));
    }

    #[test]
    fn master_disconnect_exits_cleanly_with_shard_intact() {
        let (hub, manager, cfg) = spawn_one();
        // Drop the hub without sending Shutdown: the worker must observe
        // the hang-up, exit its loop, and still hand back its shard.
        drop(hub);
        let shard = manager.join().unwrap();
        assert_eq!(shard.present_count(), cfg.blocks * cfg.experts);
    }

    #[test]
    fn bootstrap_roundtrips() {
        let cases = vec![
            WorkerBootstrap {
                blocks: 4,
                experts: 8,
                optim: AdamWConfig::default(),
                template: None,
            },
            WorkerBootstrap {
                blocks: 32,
                experts: 8,
                optim: AdamWConfig {
                    lr: 3e-4,
                    beta1: 0.95,
                    beta2: 0.999,
                    eps: 1e-9,
                    weight_decay: 0.01,
                },
                template: Some(ExpertTemplate {
                    dim: 64,
                    ffn_hidden: 128,
                    lora: Some((8, 16.0)),
                    base_frozen: true,
                }),
            },
            WorkerBootstrap {
                blocks: 2,
                experts: 4,
                optim: AdamWConfig::default(),
                template: Some(ExpertTemplate {
                    dim: 16,
                    ffn_hidden: 32,
                    lora: None,
                    base_frozen: false,
                }),
            },
        ];
        for b in cases {
            let msg = Message::Bootstrap(b);
            assert_eq!(Message::decode(&msg.encode()).unwrap(), msg);
        }
    }

    #[test]
    fn a_worker_boots_only_from_a_bootstrap_of_its_shard_shape() {
        // Anything else first, or a shape the handed shard does not have,
        // ends the worker with a typed error before it serves a frame; the
        // master sees the link drop.
        let cfg = ModelConfig::test_small();
        let other_shape = Message::Bootstrap(WorkerBootstrap {
            blocks: cfg.blocks + 1,
            experts: cfg.experts,
            optim: AdamWConfig::default(),
            template: None,
        });
        for first in [Message::StepBegin { step: 0 }, other_shape] {
            let ledger = Arc::new(TrafficLedger::new(Topology::paper_testbed()));
            let (mut hub, mut ports) = build_star(
                TransportConfig::channel(),
                ledger,
                DeviceId(0),
                &[DeviceId(2)],
                None,
            )
            .unwrap();
            let shard = LocalExpertStore::new(&cfg, &mut DetRng::new(5));
            let manager = ExpertManager::spawn(ports.remove(0), shard);
            hub.send(0, &first).unwrap();
            let booted = manager.join();
            assert!(
                matches!(booted, Err(TransportError::Protocol(_))),
                "{first:?}: {booted:?}"
            );
            assert!(matches!(hub.recv(), Err(TransportError::Disconnected)));
        }
    }
}
