//! The master-side Expert Broker (§IV-A, Fig. 4).
//!
//! `BrokerClient` implements the backbone's
//! [`ExpertProvider`] seam over the star
//! transport: the token dispatcher ships per-expert token groups to
//! whichever worker the placement assigns, the token receiver collects the
//! results, and the conjugated gradient dispatcher/receiver handle the
//! backward pass. It also logs, per MoE block and pass, the bytes and rows
//! exchanged with each worker — the inputs to the Eq. (7) time model.
//!
//! It also moves the Expert Managers' copies, with one mover
//! ([`BrokerClient::apply_relation`]): a migration lane relays an expert's
//! frozen part as an `ExpertChunk` stream from its primary to every worker
//! it gains, under the training steps, then its trainable part as another
//! at the cutover, each acked with `InstallDone`. Process-mode launch and
//! teardown are re-placements too (from and back to the hosted worker), so
//! lanes are the only traffic of that kind the master accepts.

use std::collections::{HashMap, VecDeque};
use std::sync::Mutex;

use vela_model::provider::{ExpertBatch, ExpertProvider};
use vela_obs::Counter;
use vela_placement::ReplicatedPlacement;
use vela_tensor::Tensor;

use crate::message::{Message, PackedData, PackedGroup};
use crate::pipeline::{
    DispatchPlan, Rows, MIGRATION_BYTES, MIGRATION_CHUNKS, MIGRATION_COMMITS, SPAN_COMBINE,
    SPAN_MIGRATION_PUMP,
};
use crate::transport::{MasterHub, TransportError};

/// One worker's byte/row counter handles, resolved once per worker index
/// instead of re-registering `runtime.worker.{w}.*` by formatted name on
/// every completed phase.
#[derive(Clone, Copy)]
struct WorkerCounters {
    out: Counter,
    back: Counter,
    rows: Counter,
}

/// Process-global cache of per-worker counter handles, grown lazily to
/// cover the highest worker index observed.
fn worker_counters(w: usize) -> WorkerCounters {
    static CACHE: Mutex<Vec<WorkerCounters>> = Mutex::new(Vec::new());
    let mut cache = CACHE.lock().unwrap();
    while cache.len() <= w {
        let i = cache.len();
        cache.push(WorkerCounters {
            out: vela_obs::counter(&format!("runtime.worker.{i}.bytes_out")),
            back: vela_obs::counter(&format!("runtime.worker.{i}.bytes_back")),
            rows: vela_obs::counter(&format!("runtime.worker.{i}.rows")),
        });
    }
    cache[w]
}

/// Short span/event tag for a pass.
pub(crate) fn pass_name(pass: Pass) -> &'static str {
    match pass {
        Pass::Forward => "fwd",
        Pass::Backward => "bwd",
    }
}

/// Mirrors one completed [`PhaseLog`] into `vela-obs`: per-worker
/// byte/row counters plus a per-expert rows event
/// (`src: "runtime"` — the dispatch-level view of routing, which the
/// trace summarizer prefers over the model-level view to avoid double
/// counting).
pub(crate) fn observe_phase(log: &PhaseLog, expert_rows: &[(usize, usize)]) {
    if !vela_obs::enabled() {
        return;
    }
    for (w, ((&out, &back), &rows)) in log
        .bytes_out
        .iter()
        .zip(&log.bytes_back)
        .zip(&log.rows)
        .enumerate()
    {
        if out == 0 && back == 0 && rows == 0 {
            continue;
        }
        let c = worker_counters(w);
        c.out.add(out);
        c.back.add(back);
        c.rows.add(rows);
    }
    vela_obs::expert_rows("runtime", pass_name(log.pass), log.block, expert_rows);
}

/// Trace `src` labels for per-replica row events, one per worker index
/// (the obs layer wants `&'static str`; 16 covers every testbed here).
const WORKER_SRCS: [&str; 16] = [
    "worker0", "worker1", "worker2", "worker3", "worker4", "worker5", "worker6", "worker7",
    "worker8", "worker9", "worker10", "worker11", "worker12", "worker13", "worker14", "worker15",
];

pub(crate) fn worker_src(w: usize) -> &'static str {
    WORKER_SRCS.get(w).copied().unwrap_or("worker+")
}

/// Routes one block-pass's expert batches onto replicas.
///
/// `loads` is `(expert, rows)` per batch in dispatch order. Forward:
/// single-replica batches have no freedom and pin the base load; the
/// replicated ones are then placed largest-first on the least-loaded
/// replica (LPT), every tie broken on the lowest index, and the choice is
/// cached in `routes`. Backward mirrors the cached forward route — the
/// serving replica holds the activations backward needs — falling back to
/// the primary. Degree 1 everywhere degenerates to the single-owner
/// mapping exactly.
pub(crate) fn route_experts(
    placement: &ReplicatedPlacement,
    routes: &mut HashMap<(usize, usize), usize>,
    block: usize,
    backward: bool,
    loads: &[(usize, u64)],
) -> Vec<usize> {
    if backward {
        return loads
            .iter()
            .map(|&(e, _)| {
                routes
                    .get(&(block, e))
                    .copied()
                    .unwrap_or_else(|| placement.primary(block, e))
            })
            .collect();
    }
    let mut load = vec![0u64; placement.workers()];
    let mut out = vec![usize::MAX; loads.len()];
    let mut free: Vec<usize> = Vec::new();
    for (i, &(e, rows)) in loads.iter().enumerate() {
        let reps = placement.replicas_of(block, e);
        if reps.len() == 1 {
            out[i] = reps[0];
            load[reps[0]] += rows;
        } else {
            free.push(i);
        }
    }
    free.sort_by_key(|&i| (std::cmp::Reverse(loads[i].1), i));
    for i in free {
        let (e, rows) = loads[i];
        let w = placement
            .replicas_of(block, e)
            .iter()
            .copied()
            .min_by_key(|&w| (load[w], w))
            .expect("non-empty replica set");
        out[i] = w;
        load[w] += rows;
        routes.insert((block, e), w);
    }
    out
}

/// One expert's change of replica set that gains workers: the primary
/// streams the expert's frozen tensors once, the master relays each chunk
/// to every gained worker, and the change completes at the next step
/// boundary with the cutover (see [`BrokerClient::pump_migrations`]).
/// Queued until a lane slot frees; meanwhile the current copies keep
/// serving and training the expert.
#[derive(Debug)]
struct Lane {
    block: usize,
    expert: usize,
    /// The target replica set, primary first.
    target: Vec<usize>,
    /// The `InstallDone`s still owed: each gained worker once per stream
    /// requested and not landed there — the frozen one from admission, the
    /// trainable one from the cutover. Nothing keeps a shadow current
    /// meanwhile: the tensors it holds are the ones no step changes.
    landing: Vec<usize>,
}

/// The workers of `set` that are not in `minus`, in `set`'s order.
fn without(set: &[usize], minus: &[usize]) -> Vec<usize> {
    set.iter().copied().filter(|w| !minus.contains(w)).collect()
}

/// How many lanes may be admitted at once, which is also how many shadows
/// can be resident on the workers: a shadow is a second copy of most of an
/// expert, so the memory a re-placement may occupy is bounded by this
/// constant and not by the size of the plan. It also spreads a
/// full-population move over several step boundaries, so each step carries
/// a slice of the stream small enough to hide in worker idle time.
const MAX_ACTIVE_LANES: usize = 2;

/// Book-keeping for migrations. Empty between re-placements (and always,
/// in the virtual engine), in which case every routed drain degenerates to
/// a plain `recv`.
#[derive(Debug, Default)]
struct MigrationState {
    /// Admitted lanes in admission order, at most [`MAX_ACTIVE_LANES`].
    lanes: Vec<Lane>,
    /// Lanes waiting for a slot, in request order. Their experts keep
    /// training where they are, untouched.
    queued: VecDeque<Lane>,
}

impl MigrationState {
    /// Lanes admitted or queued.
    fn in_flight(&self) -> usize {
        self.lanes.len() + self.queued.len()
    }
}

/// One gradient-sync target: the serving worker's gradients for
/// `(block, expert)` are copied into each peer.
struct SyncTarget {
    block: usize,
    expert: usize,
    serving: usize,
    peers: Vec<usize>,
}

/// Which half of the step a phase belongs to: the pass its frames carry.
pub use crate::message::GroupPass as Pass;

/// Communication log of one MoE block's dispatch/gather for one pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseLog {
    /// The MoE block.
    pub block: usize,
    /// Forward or backward.
    pub pass: Pass,
    /// Bytes sent master → worker, per worker index.
    pub bytes_out: Vec<u64>,
    /// Bytes received worker → master, per worker index.
    pub bytes_back: Vec<u64>,
    /// Token rows processed per worker (drives expert compute time).
    pub rows: Vec<u64>,
}

/// The master-side broker: routes expert work to workers per the
/// placement — a [`ReplicatedPlacement`], so each expert batch goes to
/// the least-loaded live replica (degree 1 reduces to the single-owner
/// mapping bit-for-bit).
///
/// It is the only master-side speaker of the protocol: the
/// [`Session`](crate::Session) drives its steps, exchanges, gradient sync,
/// re-placements and teardown through it, and nothing else holds the
/// [`MasterHub`].
#[derive(Debug)]
pub struct BrokerClient {
    // The first five fields are what `pipeline.rs`'s exchange drives.
    pub(crate) hub: MasterHub,
    pub(crate) placement: ReplicatedPlacement,
    /// The replica that served each `(block, expert)`'s last forward —
    /// backward must follow it (the replica holds the cached activations).
    pub(crate) routes: HashMap<(usize, usize), usize>,
    pub(crate) phase_logs: Vec<PhaseLog>,
    pub(crate) plan: DispatchPlan,
    step: u64,
    /// Migration lanes; empty in the virtual engine, which never migrates.
    migrations: MigrationState,
}

impl BrokerClient {
    /// Creates a broker over `hub` using `placement` (a plain
    /// [`Placement`](vela_placement::Placement) converts to the degree-1
    /// relation).
    ///
    /// # Panics
    /// Panics if the placement's worker count differs from the hub's.
    pub fn new(hub: MasterHub, placement: impl Into<ReplicatedPlacement>) -> Self {
        let placement = placement.into();
        assert_eq!(
            placement.workers(),
            hub.worker_count(),
            "placement targets {} workers but hub has {}",
            placement.workers(),
            hub.worker_count()
        );
        BrokerClient {
            hub,
            placement,
            routes: HashMap::new(),
            phase_logs: Vec::new(),
            step: 0,
            plan: DispatchPlan::default(),
            migrations: MigrationState::default(),
        }
    }

    /// The placement in force.
    pub fn placement(&self) -> &ReplicatedPlacement {
        &self.placement
    }

    /// The hub under this broker, for its counts: frames, wire bytes and
    /// the transport's label.
    pub fn hub(&self) -> &MasterHub {
        &self.hub
    }

    /// Broadcasts `StepBegin`, starting a new step on every worker. The
    /// step sent on the wire is the process-unique trace step (not the
    /// engine-local count): the master tags its own trace stream with it
    /// and the workers adopt it from the frame, so flow correlation keys
    /// agree across processes and never collide across engine launches.
    /// Under tracing the master also probes worker clocks in the quiescent
    /// window before the first step and every 64 steps after it (one
    /// sample would drift on long runs); that probe is the only source of
    /// the offsets `trace_summary merge` rebases worker traces with, on
    /// every transport. Untraced runs send no probe frames.
    pub fn step_begin(&mut self) -> Result<(), TransportError> {
        self.step += 1;
        let trace_step = vela_obs::next_trace_step();
        if vela_obs::tracing() && self.step % 64 == 1 {
            self.hub.probe_clocks(4);
        }
        self.hub.broadcast(&Message::StepBegin { step: trace_step })
    }

    /// Broadcasts `StepEnd`: every worker steps its optimizers and answers
    /// `StepDone`. Returns at once, so the master can step its own
    /// optimizer meanwhile; [`wait_step_done`](Self::wait_step_done)
    /// collects the answers.
    pub fn step_end(&mut self) -> Result<(), TransportError> {
        self.hub.broadcast(&Message::StepEnd)
    }

    /// Waits for every worker's `StepDone`. Migration-lane frames drained
    /// while waiting are relayed, not errors: the wait is a natural window
    /// for background transfers.
    pub fn wait_step_done(&mut self) -> Result<(), TransportError> {
        let mut pending = self.hub.worker_count();
        while pending > 0 {
            let (w, msg) = self.recv_routed()?;
            if msg != Message::StepDone {
                return Err(TransportError::Protocol(format!(
                    "worker {w}: expected StepDone, got {msg:?}"
                )));
            }
            pending -= 1;
        }
        Ok(())
    }

    /// Shuts down all workers and closes the links; the caller joins
    /// their threads (or reaps their processes) to finish teardown.
    pub fn shutdown(&mut self) -> Result<(), TransportError> {
        let sent = self.hub.broadcast(&Message::Shutdown);
        self.hub.shutdown();
        sent
    }

    /// Starts moving experts so the placement becomes `target`, between
    /// steps, and returns how many experts' replica sets change. Each
    /// `(block, expert)`, in ascending order, diffs its replica set against
    /// the target's: an expert that gains no worker only drops copies
    /// (`Evict`, 0 accounted bytes) and settles here; one that gains
    /// workers queues a lane for one of the `MAX_ACTIVE_LANES` slots.
    /// Once admitted, the primary is asked (`FetchShadow`) to stream the
    /// frozen tensors, which whatever routed drain runs next relays to
    /// every gained worker — the transfer rides the per-link writer threads
    /// underneath training compute — and the current copies keep serving
    /// until the lane is cut over at a step boundary (see
    /// [`Self::pump_migrations`]), where its drops apply too.
    ///
    /// # Panics
    /// Panics if `target`'s shape disagrees with the placement. A call
    /// while lanes are in flight (a plan must diff against settled state),
    /// or a misbehaving worker, surfaces as [`TransportError::Protocol`].
    pub fn apply_relation(
        &mut self,
        target: &ReplicatedPlacement,
    ) -> Result<usize, TransportError> {
        let shape = |p: &ReplicatedPlacement| (p.blocks(), p.experts(), p.workers());
        assert_eq!(shape(target), shape(&self.placement), "shape mismatch");
        if self.migrations.in_flight() > 0 {
            let why = "a re-placement is still in flight";
            return Err(TransportError::Protocol(why.into()));
        }
        let mut moved = 0;
        for (block, expert) in
            (0..target.blocks()).flat_map(|l| (0..target.experts()).map(move |e| (l, e)))
        {
            let now = self.placement.replicas_of(block, expert);
            let to = target.replicas_of(block, expert).to_vec();
            if now == to {
                continue;
            }
            let landing = without(&to, now);
            // A reordered set is no change of copies.
            moved += usize::from(!landing.is_empty() || now.len() > to.len());
            if landing.is_empty() {
                self.settle(block, expert, &to, false)?;
            } else {
                let lane = Lane {
                    block,
                    expert,
                    target: to,
                    landing,
                };
                self.migrations.queued.push_back(lane);
                self.admit_queued()?;
            }
        }
        Ok(moved)
    }

    /// Fills free lane slots from the queue, in request order: each
    /// admitted source is asked for its frozen-tensor stream.
    fn admit_queued(&mut self) -> Result<(), TransportError> {
        while self.migrations.lanes.len() < MAX_ACTIVE_LANES {
            let Some(lane) = self.migrations.queued.pop_front() else {
                break;
            };
            self.hub.send(
                self.placement.primary(lane.block, lane.expert),
                &Message::FetchShadow {
                    block: lane.block as u32,
                    expert: lane.expert as u32,
                },
            )?;
            self.migrations.lanes.push(lane);
        }
        Ok(())
    }

    /// Boundary service, called between steps: cuts every admitted lane
    /// over, in admission order, then admits the next lanes from the queue.
    /// Returns the number of lanes cut over.
    ///
    /// A lane is cut over at the first boundary after its admission. Its
    /// stream has had a whole step to hide under by then and has normally
    /// landed; when it has not, the master waits for the acks here. That
    /// makes the boundary each expert's copies change at a function of the
    /// plan alone, never of thread timing — which it must be, because
    /// optimizer moments do not travel (every copy restarts from fresh
    /// ones), so the boundary is visible in every later loss.
    ///
    /// The cutover itself is a stop-the-world stream of the tensors that
    /// train, overlapped across lanes: every admitted lane's primary is
    /// asked for them at once, before any stream is waited for, and keeps
    /// its copy (`FetchTrained` → `ExpertChunk`s); FIFO links put each
    /// behind its lane's frozen stream. The master relays each stream to
    /// its gained workers as it relayed the frozen one, and each completes
    /// the copy on its shadow, starts serving and acks. Only when every
    /// stream has landed, in admission order, every surviving copy drops
    /// its moments (`DropMoments`, so all copies restart alike) and the
    /// dropped copies are evicted. FIFO links order all of it before the
    /// next step's traffic, so every side switches exactly at the boundary.
    pub fn pump_migrations(&mut self) -> Result<usize, TransportError> {
        if self.migrations.in_flight() == 0 {
            return Ok(0);
        }
        let _g = vela_obs::span(SPAN_MIGRATION_PUMP);
        let hub = &mut self.hub;
        for lane in &mut self.migrations.lanes {
            let (block, expert) = (lane.block, lane.expert);
            let gained = without(&lane.target, self.placement.replicas_of(block, expert));
            lane.landing.extend(gained);
            hub.send(
                self.placement.primary(block, expert),
                &Message::FetchTrained {
                    block: block as u32,
                    expert: expert as u32,
                },
            )?;
        }
        self.land_lanes()?;
        let lanes = std::mem::take(&mut self.migrations.lanes);
        for lane in &lanes {
            // The gained copies start from fresh moments; so must every
            // surviving one, or the copies stop being clones.
            self.settle(lane.block, lane.expert, &lane.target, true)?;
            MIGRATION_COMMITS.add(1);
        }
        self.admit_queued()?;
        Ok(lanes.len())
    }

    /// Completes every requested move now — boundary service with no steps
    /// in between, so each stream is waited for instead of hidden — and
    /// returns the number of lanes cut over. Stop-the-world migration is
    /// this after [`apply_relation`](Self::apply_relation); it also runs
    /// before re-planning (a new plan must diff against settled state) and
    /// at shutdown.
    pub fn finish_migrations(&mut self) -> Result<usize, TransportError> {
        let mut cut_over = 0;
        while self.migrations.in_flight() > 0 {
            cut_over += self.pump_migrations()?;
        }
        Ok(cut_over)
    }

    /// Drops (`Evict`) every copy of an expert that `target` leaves out —
    /// with `reset`, every copy it keeps drops its moments (`DropMoments`)
    /// — makes `target` its replica set, and forgets the forward route to
    /// it so backward never follows a stale one.
    fn settle(
        &mut self,
        block: usize,
        expert: usize,
        target: &[usize],
        reset: bool,
    ) -> Result<(), TransportError> {
        let copies = self.placement.replicas_of(block, expert).to_vec();
        self.placement.set_replicas(block, expert, target);
        self.routes.remove(&(block, expert));
        let (block, expert) = (block as u32, expert as u32);
        for w in copies {
            if !target.contains(&w) {
                self.hub.send(w, &Message::Evict { block, expert })?;
            } else if reset {
                self.hub.send(w, &Message::DropMoments { block, expert })?;
            }
        }
        Ok(())
    }

    /// Drains lane frames until every stream requested for an admitted lane
    /// has landed on every gained worker. Between steps the workers owe
    /// nothing but lane frames.
    fn land_lanes(&mut self) -> Result<(), TransportError> {
        while self.migrations.lanes.iter().any(|l| !l.landing.is_empty()) {
            let (w, msg) = self.hub.recv()?;
            if let Some((w, msg)) = self.route_lane_frame(w, msg)? {
                return Err(TransportError::Protocol(format!(
                    "unexpected frame from worker {w} while lanes were landing: {msg:?}"
                )));
            }
        }
        Ok(())
    }

    /// Lanes requested and not yet cut over (streaming or queued).
    pub fn migrations_in_flight(&self) -> usize {
        self.migrations.in_flight()
    }

    /// Drains the per-block communication logs accumulated since the last
    /// call (two entries per block per step: forward and backward).
    pub fn take_phase_logs(&mut self) -> Vec<PhaseLog> {
        std::mem::take(&mut self.phase_logs)
    }

    /// Synchronises replica gradients after the backward pass: for every
    /// `(block, expert)` with degree ≥ 2, fetches the serving replica's
    /// accumulated gradients and installs them into each peer replica.
    /// Exactly one replica serves an expert per step (batches are whole),
    /// so this is a copy, never a summation — peers end the step with
    /// bit-identical gradients, and the deterministic optimizer step that
    /// follows keeps their weights bit-identical too. Every frame rides
    /// the accounted hub path, so the byte ledger sees sync traffic
    /// honestly.
    ///
    /// `grad_bytes` is the flattened trainable-gradient size of one
    /// expert; echo (virtual) workers use it to size their replies, and a
    /// row of any other size is a `Protocol` error, never relayed.
    ///
    /// Returns the `(worker, accounted bytes)` flows in protocol order —
    /// the input to the cost model's sync-time term. Empty at degree 1:
    /// the sync is free exactly when replication is off.
    ///
    /// Every `FetchGrads` is issued up front and each gradient state is
    /// forwarded to the peers as it arrives, so per-target round-trips
    /// ride the wire concurrently. Installs are not acknowledged: each
    /// link is FIFO, so a peer installs before it reads the `StepEnd` the
    /// caller sends next, and its `StepDone` answers for both. Flow
    /// accounting is slotted per target, so the returned list comes out in
    /// canonical per-target order (fetch, state, then one install per
    /// peer) no matter how replies interleave, keeping the modeled sync
    /// time deterministic.
    pub fn sync_replica_grads(
        &mut self,
        grad_bytes: u32,
    ) -> Result<Vec<(usize, u64)>, TransportError> {
        let targets = self.sync_targets();
        let mut slots: Vec<Vec<(usize, u64)>> = Vec::with_capacity(targets.len());
        let mut index: HashMap<(usize, usize), usize> = HashMap::new();
        for (i, t) in targets.iter().enumerate() {
            index.insert((t.block, t.expert), i);
            let req = Message::FetchGrads {
                block: t.block as u32,
                expert: t.expert as u32,
                grad_bytes,
            };
            slots.push(vec![(t.serving, req.accounted_bytes())]);
            self.hub.send(t.serving, &req)?;
        }
        for _ in 0..targets.len() {
            let (w, msg) = self.recv_routed()?;
            let Message::GradState { block, expert, row } = msg else {
                return Err(TransportError::Protocol(format!(
                    "unexpected frame during grad sync: {msg:?}"
                )));
            };
            let key = (block as usize, expert as usize);
            let &i = index.get(&key).ok_or_else(|| {
                TransportError::Protocol(format!(
                    "grad state for unsynced expert ({block},{expert})"
                ))
            })?;
            let t = &targets[i];
            if w != t.serving {
                return Err(TransportError::Protocol(format!(
                    "grad state arrived from worker {w}, expected {}",
                    t.serving
                )));
            }
            let carried = row.data.row_cost(row.width);
            if carried != u64::from(grad_bytes) {
                return Err(TransportError::Protocol(format!(
                    "grad state for expert ({block},{expert}) carries {carried} bytes, \
                     expected {grad_bytes}"
                )));
            }
            if slots[i].len() > 1 {
                return Err(TransportError::Protocol(format!(
                    "duplicate grad state for expert ({block},{expert})"
                )));
            }
            // The relayed frame is the one received, so both legs account
            // alike.
            let install = Message::GradState { block, expert, row };
            let bytes = install.accounted_bytes();
            slots[i].push((w, bytes));
            for &p in &t.peers {
                slots[i].push((p, bytes));
                self.hub.send(p, &install)?;
            }
        }
        Ok(slots.concat())
    }

    /// The sync fan-out for this step: every replicated pair. Migration
    /// lanes are not in it — a shadow holds no tensor a gradient changes.
    fn sync_targets(&self) -> Vec<SyncTarget> {
        let (placement, routes) = (&self.placement, &self.routes);
        placement
            .replicated_pairs()
            .into_iter()
            .map(|(block, expert)| {
                let serving = routes
                    .get(&(block, expert))
                    .copied()
                    .unwrap_or_else(|| placement.primary(block, expert));
                let peers = placement
                    .replicas_of(block, expert)
                    .iter()
                    .copied()
                    .filter(|&w| w != serving)
                    .collect();
                SyncTarget {
                    block,
                    expert,
                    serving,
                    peers,
                }
            })
            .collect()
    }

    /// `hub.recv()` that transparently services migration-lane traffic:
    /// chunk relays interleave with whatever protocol frames the caller is
    /// actually waiting on. Every blocking drain of a step goes through
    /// here, so a background migration makes progress at any point of the
    /// step — not just at boundaries. With no lane in flight it is a plain
    /// `recv`.
    pub(crate) fn recv_routed(&mut self) -> Result<(usize, Message), TransportError> {
        loop {
            let (w, msg) = self.hub.recv()?;
            if let Some(out) = self.route_lane_frame(w, msg)? {
                return Ok(out);
            }
        }
    }

    /// Inspects a drained frame: lane traffic is serviced here — the
    /// primary's `ExpertChunk`s, frozen or trainable, relay to every gained
    /// worker over the accounted hub path, and each gained worker's
    /// `InstallDone` marks the stream landed there — and `None` is
    /// returned. Any other frame is handed back to the caller's protocol
    /// loop untouched. Lanes are the only streams there are, so a chunk or
    /// an ack no admitted lane owes is a [`TransportError::Protocol`].
    fn route_lane_frame(
        &mut self,
        w: usize,
        msg: Message,
    ) -> Result<Option<(usize, Message)>, TransportError> {
        let key = match &msg {
            Message::ExpertChunk { block, expert, .. } | Message::InstallDone { block, expert } => {
                (*block as usize, *expert as usize)
            }
            _ => return Ok(Some((w, msg))),
        };
        let placement = &self.placement;
        let lane = self
            .migrations
            .lanes
            .iter_mut()
            .find(|l| (l.block, l.expert) == key);
        let owed = lane
            .as_ref()
            .and_then(|l| l.landing.iter().position(|&g| g == w));
        // The primary streams chunks; a gained worker acks each stream once.
        match (lane, &msg, owed) {
            (Some(lane), Message::ExpertChunk { data, .. }, _)
                if w == placement.primary(lane.block, lane.expert) =>
            {
                MIGRATION_CHUNKS.add(1);
                MIGRATION_BYTES.add(data.len() as u64);
                for to in without(&lane.target, placement.replicas_of(lane.block, lane.expert)) {
                    self.hub.send(to, &msg)?;
                }
            }
            (Some(lane), Message::InstallDone { .. }, Some(at)) => {
                lane.landing.swap_remove(at);
            }
            _ => {
                return Err(TransportError::Protocol(format!(
                    "migration frame for expert ({},{}) arrived from worker {w}, \
                     which owes none: {msg:?}",
                    key.0, key.1
                )))
            }
        }
        Ok(None)
    }

    /// Dispatch + gather of real tensors for one block and pass through
    /// the shared [`exchange`](Self::exchange): one packed frame of exact
    /// f32 tensor rows per worker. `sink` is
    /// called with the completed *ascending prefix* of batch indices as
    /// soon as it exists, so delivery order is the same whichever worker
    /// answers first.
    ///
    /// # Panics
    /// [`ExpertProvider`] is an infallible seam (the model crate knows
    /// nothing about transports), so a transport failure mid-exchange
    /// surfaces here as a panic with the underlying error. Control-plane
    /// methods (`step_begin`/`step_end`/`wait_step_done`/`shutdown`/
    /// `pump_migrations`) propagate `TransportError` instead, which is where
    /// disconnects actually occur in practice (between steps, or while
    /// waiting on acks).
    fn exchange_tensors(
        &mut self,
        block: usize,
        pass: Pass,
        batches: &[ExpertBatch],
        sink: &mut dyn FnMut(usize, Tensor),
    ) {
        let mut rows = TensorRows {
            batches,
            pending: batches.iter().map(|_| None).collect(),
            next_emit: 0,
            sink,
        };
        self.exchange(block, pass, &mut rows).unwrap_or_else(|e| {
            panic!("transport failed during {} exchange: {e}", pass_name(pass))
        });
    }
}

/// Real tensors as exchange rows: dispatch regions are packed from the
/// batches' own storage, reply regions are re-sliced into one tensor per
/// batch and handed to the sink.
struct TensorRows<'a> {
    batches: &'a [ExpertBatch],
    /// Replies slotted by batch index, waiting for everything before them.
    pending: Vec<Option<Tensor>>,
    /// The ascending prefix already handed to the sink.
    next_emit: usize,
    sink: &'a mut dyn FnMut(usize, Tensor),
}

impl Rows for TensorRows<'_> {
    fn loads(&self) -> Vec<(usize, u64)> {
        self.batches
            .iter()
            .map(|b| (b.expert, b.xs.rows() as u64))
            .collect()
    }

    fn width(&self) -> u32 {
        self.batches.first().map_or(0, |b| b.xs.cols() as u32)
    }

    fn pack(&self, block: u32, pass: Pass, items: &[usize]) -> PackedGroup {
        PackedGroup::pack(
            block,
            pass,
            self.width(),
            items
                .iter()
                .map(|&i| (self.batches[i].expert as u32, self.batches[i].xs.as_slice())),
        )
    }

    fn deliver(
        &mut self,
        layout: impl Iterator<Item = (usize, usize, usize)>,
        data: PackedData,
    ) -> Result<(), TransportError> {
        // A virtual region here means the peer is running a different
        // engine.
        let PackedData::F32(region) = data else {
            return Err(TransportError::Protocol(
                "virtual packed reply in a real exchange".into(),
            ));
        };
        // The reply region's layout is implied by the dispatch plan:
        // re-slice it per batch in dispatch order.
        let width = self.width() as usize;
        for (index, lo, rows) in layout {
            let vals = region[lo * width..(lo + rows) * width].to_vec();
            self.pending[index] = Some(Tensor::from_vec((rows, width), vals));
        }
        self.flush_prefix();
        Ok(())
    }
}

impl TensorRows<'_> {
    /// Hands the sink every completed batch in ascending index order. The
    /// prefix gate is the determinism lever: a reply that arrives early
    /// waits in `pending` until everything before it has been delivered.
    fn flush_prefix(&mut self) {
        if !matches!(self.pending.get(self.next_emit), Some(Some(_))) {
            return;
        }
        let _g = vela_obs::span(SPAN_COMBINE);
        while let Some(t) = self.pending.get_mut(self.next_emit).and_then(Option::take) {
            (self.sink)(self.next_emit, t);
            self.next_emit += 1;
        }
    }
}

impl ExpertProvider for BrokerClient {
    fn replica_degree(&self, block: usize, expert: usize) -> usize {
        self.placement.degree(block, expert)
    }

    fn forward_block(&mut self, block: usize, batches: &[ExpertBatch]) -> Vec<Tensor> {
        let mut out = Vec::with_capacity(batches.len());
        self.forward_block_streamed(block, batches, &mut |_, t| out.push(t));
        out
    }

    fn backward_block(&mut self, block: usize, grads: &[ExpertBatch]) -> Vec<Tensor> {
        let mut out = Vec::with_capacity(grads.len());
        self.backward_block_streamed(block, grads, &mut |_, t| out.push(t));
        out
    }

    // The streamed overrides are where the model-layer overlap comes
    // from: `MoeBlock` scatters one worker's results into its output
    // buffer while the other workers' replies are still on the wire,
    // instead of parking them in a Vec until the block-pass completes.
    fn forward_block_streamed(
        &mut self,
        block: usize,
        batches: &[ExpertBatch],
        emit: &mut dyn FnMut(usize, Tensor),
    ) {
        self.exchange_tensors(block, Pass::Forward, batches, emit);
    }

    fn backward_block_streamed(
        &mut self,
        block: usize,
        grads: &[ExpertBatch],
        emit: &mut dyn FnMut(usize, Tensor),
    ) {
        self.exchange_tensors(block, Pass::Backward, grads, emit);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{chunk_expert_state, PackedReply, PackedRow, EXPERT_CHUNK_BYTES};
    use crate::transport::{build_star, MasterHub, TransportConfig};
    use crate::worker::{ExpertManager, ExpertTemplate, WorkerBootstrap};
    use std::sync::Arc;
    use std::thread::JoinHandle;
    use vela_cluster::{DeviceId, Topology, TrafficLedger};
    use vela_model::{LocalExpertStore, ModelConfig};
    use vela_nn::optim::AdamWConfig;
    use vela_nn::param::Module;
    use vela_placement::Placement;
    use vela_tensor::rng::DetRng;

    /// Sends every worker the bootstrap of a `cfg`-shaped shard.
    fn boot(hub: &mut MasterHub, cfg: &ModelConfig, template: Option<ExpertTemplate>) {
        let bootstrap = WorkerBootstrap {
            blocks: cfg.blocks,
            experts: cfg.experts,
            optim: AdamWConfig::default(),
            template,
        };
        hub.broadcast(&Message::Bootstrap(bootstrap)).unwrap();
    }

    /// A full micro setup: 2 workers, experts split by expert parity.
    fn setup() -> (
        BrokerClient,
        Vec<ExpertManager>,
        LocalExpertStore,
        ModelConfig,
    ) {
        let cfg = ModelConfig::test_small();
        let ledger = Arc::new(TrafficLedger::new(Topology::paper_testbed()));
        let (mut hub, ports) = build_star(
            TransportConfig::channel(),
            ledger,
            DeviceId(0),
            &[DeviceId(1), DeviceId(2)],
            &[],
        )
        .unwrap();

        let reference = LocalExpertStore::new(&cfg, &mut DetRng::new(7));
        let mut source = LocalExpertStore::new(&cfg, &mut DetRng::new(7));
        let template = Some(ExpertTemplate::from_expert(source.expert_mut(0, 0)));
        let mut shard0 = LocalExpertStore::empty(cfg.blocks, cfg.experts);
        let mut shard1 = LocalExpertStore::empty(cfg.blocks, cfg.experts);
        let mut assign = Vec::new();
        for l in 0..cfg.blocks {
            let mut row = Vec::new();
            for e in 0..cfg.experts {
                let ffn = source.take(l, e);
                if e % 2 == 0 {
                    shard0.insert(l, e, ffn);
                    row.push(0);
                } else {
                    shard1.insert(l, e, ffn);
                    row.push(1);
                }
            }
            assign.push(row);
        }
        let placement = Placement::new(assign, 2);

        let managers = ports
            .into_iter()
            .zip([shard0, shard1])
            .map(|(port, shard)| ExpertManager::spawn(port, shard))
            .collect();
        boot(&mut hub, &cfg, template);
        (BrokerClient::new(hub, placement), managers, reference, cfg)
    }

    /// The flattened trainable-gradient size of one `cfg` expert, in
    /// bytes: what a replica's grad state must carry.
    fn grad_bytes(cfg: &ModelConfig) -> u32 {
        let mut store = LocalExpertStore::new(cfg, &mut DetRng::new(0));
        (crate::worker::expert_grads(store.expert_mut(0, 0)).len() * 4) as u32
    }

    fn teardown(broker: &mut BrokerClient, managers: Vec<ExpertManager>) {
        broker.shutdown().unwrap();
        for m in managers {
            m.join().unwrap();
        }
    }

    #[test]
    fn forward_matches_local_store() {
        let (mut broker, managers, mut reference, cfg) = setup();
        let mut rng = DetRng::new(3);
        let batches = vec![
            ExpertBatch {
                expert: 0,
                xs: vela_tensor::Tensor::uniform((3, cfg.dim), -1.0, 1.0, &mut rng),
            },
            ExpertBatch {
                expert: 1,
                xs: vela_tensor::Tensor::uniform((2, cfg.dim), -1.0, 1.0, &mut rng),
            },
            ExpertBatch {
                expert: 3,
                xs: vela_tensor::Tensor::uniform((4, cfg.dim), -1.0, 1.0, &mut rng),
            },
        ];
        let remote = broker.forward_block(0, &batches);
        let local = reference.forward_block(0, &batches);
        assert_eq!(remote, local, "broker must be computation-transparent");
        teardown(&mut broker, managers);
    }

    #[test]
    fn backward_matches_local_store() {
        let (mut broker, managers, mut reference, cfg) = setup();
        let mut rng = DetRng::new(4);
        let xs = vela_tensor::Tensor::uniform((3, cfg.dim), -1.0, 1.0, &mut rng);
        let batches = vec![ExpertBatch {
            expert: 2,
            xs: xs.clone(),
        }];
        broker.forward_block(1, &batches);
        reference.forward_block(1, &batches);
        let g = vec![ExpertBatch {
            expert: 2,
            xs: vela_tensor::Tensor::ones((3, cfg.dim)),
        }];
        let remote = broker.backward_block(1, &g);
        let local = reference.backward_block(1, &g);
        assert_eq!(remote, local);
        teardown(&mut broker, managers);
    }

    #[test]
    fn phase_logs_track_bytes_and_rows() {
        let (mut broker, managers, _, cfg) = setup();
        let mut rng = DetRng::new(5);
        let batches = vec![
            ExpertBatch {
                expert: 0, // worker 0
                xs: vela_tensor::Tensor::uniform((3, cfg.dim), -1.0, 1.0, &mut rng),
            },
            ExpertBatch {
                expert: 1, // worker 1
                xs: vela_tensor::Tensor::uniform((5, cfg.dim), -1.0, 1.0, &mut rng),
            },
        ];
        broker.forward_block(0, &batches);
        let logs = broker.take_phase_logs();
        assert_eq!(logs.len(), 1);
        let log = &logs[0];
        assert_eq!(log.pass, Pass::Forward);
        assert_eq!(log.rows, vec![3, 5]);
        assert!(log.bytes_out[1] > log.bytes_out[0], "5 rows > 3 rows");
        assert_eq!(log.bytes_out, log.bytes_back, "results mirror inputs");
        assert!(broker.take_phase_logs().is_empty(), "logs drained");
        teardown(&mut broker, managers);
    }

    #[test]
    fn step_control_round_trips() {
        let (mut broker, managers, _, _) = setup();
        broker.step_begin().unwrap();
        broker.step_end().unwrap();
        broker.wait_step_done().unwrap(); // must not deadlock
        teardown(&mut broker, managers);
    }

    #[test]
    fn streamed_delivery_is_an_ascending_prefix() {
        // Two echo workers answer in either order. The sink must see batch
        // indices 0..n ascending both times: when worker 1 (batches 1, 3)
        // answers first, its results wait in `pending` behind batch 0.
        for first in [0usize, 1] {
            let ledger = Arc::new(TrafficLedger::new(Topology::paper_testbed()));
            let (hub, mut ports) = build_star(
                TransportConfig::channel(),
                ledger,
                DeviceId(0),
                &[DeviceId(1), DeviceId(2)],
                &[],
            )
            .unwrap();
            let echo = std::thread::spawn(move || {
                let replies: Vec<Message> = ports
                    .iter_mut()
                    .map(|port| match port.recv().unwrap() {
                        Message::PackedDispatch(group) => Message::PackedResult(PackedReply {
                            block: group.block,
                            pass: group.pass,
                            width: group.width,
                            items: group.spans.len() as u32,
                            rows: group.total_rows(),
                            data: group.data,
                        }),
                        other => panic!("expected a dispatch, got {other:?}"),
                    })
                    .collect();
                for w in [first, 1 - first] {
                    ports[w].send(&replies[w]).unwrap();
                }
                for port in &mut ports {
                    assert_eq!(port.recv().unwrap(), Message::Shutdown);
                }
            });
            let mut broker = BrokerClient::new(hub, Placement::new(vec![vec![0, 1, 0, 1]], 2));
            let mut rng = DetRng::new(21);
            let batches: Vec<ExpertBatch> = (0..4)
                .map(|e| ExpertBatch {
                    expert: e,
                    xs: vela_tensor::Tensor::uniform((2 + e, 8), -1.0, 1.0, &mut rng),
                })
                .collect();
            let mut order = Vec::new();
            let mut streamed = Vec::new();
            broker.forward_block_streamed(0, &batches, &mut |i, t| {
                order.push(i);
                streamed.push(t);
            });
            assert_eq!(order, vec![0, 1, 2, 3], "worker {first} answered first");
            let sent: Vec<_> = batches.iter().map(|b| b.xs.clone()).collect();
            assert_eq!(streamed, sent, "an echo must come back bit for bit");
            broker.shutdown().unwrap();
            echo.join().unwrap();
        }
    }

    #[test]
    fn coalescing_shrinks_frames_not_bytes() {
        let (mut broker, managers, _, model_cfg) = setup();
        let mut rng = DetRng::new(13);
        let batches: Vec<ExpertBatch> = (0..model_cfg.experts)
            .map(|e| ExpertBatch {
                expert: e,
                xs: vela_tensor::Tensor::uniform((3, model_cfg.dim), -1.0, 1.0, &mut rng),
            })
            .collect();
        broker.forward_block(0, &batches);
        // 2 workers × 4 experts: one frame per worker each way...
        assert_eq!(broker.hub.frame_counts(), (2, 2));
        // ...accounting what one frame per expert batch cost at the commit
        // that retired them (8456ee6): 2 × (9 + 3 rows · 16 · 4) a worker.
        let log = broker.take_phase_logs().pop().unwrap();
        assert_eq!(log.bytes_out, vec![402, 402]);
        assert_eq!(log.bytes_back, vec![402, 402]);
        teardown(&mut broker, managers);
    }

    #[test]
    fn routing_is_lpt_with_deterministic_ties() {
        // 2 workers; experts 1 and 2 are replicated on both, experts 0
        // and 3 are pinned.
        let placement =
            ReplicatedPlacement::new(vec![vec![vec![0], vec![0, 1], vec![0, 1], vec![1]]], 2);
        let loads = [(0usize, 5u64), (1, 4), (2, 4), (3, 1)];
        let mut routes = HashMap::new();
        let fwd = route_experts(&placement, &mut routes, 0, false, &loads);
        // Pinned batches set the base load (w0: 5, w1: 1); the free ones
        // go largest-first, index-ascending on equal rows: expert 1 →
        // worker 1 (1 < 5), expert 2 → worker 0 (5 = 5, tie → lowest
        // index).
        assert_eq!(fwd, vec![0, 1, 0, 1]);
        assert_eq!(routes.get(&(0, 1)), Some(&1));
        assert_eq!(routes.get(&(0, 2)), Some(&0));
        // Same inputs, fresh cache → same answer, at any thread count or
        // transport: routing reads nothing but the placement and loads.
        let again = route_experts(&placement, &mut HashMap::new(), 0, false, &loads);
        assert_eq!(again, fwd);
    }

    #[test]
    fn backward_follows_the_cached_forward_route() {
        let placement =
            ReplicatedPlacement::new(vec![vec![vec![0], vec![0, 1], vec![0, 1], vec![1]]], 2);
        let loads = [(0usize, 5u64), (1, 4), (2, 4), (3, 1)];
        let mut routes = HashMap::new();
        let fwd = route_experts(&placement, &mut routes, 0, false, &loads);
        // Backward row counts differ (grads, not tokens) but the route
        // must mirror forward — the serving replica holds the activations.
        let grad_loads = [(0usize, 1u64), (1, 9), (2, 9), (3, 9)];
        let bwd = route_experts(&placement, &mut routes, 0, true, &grad_loads);
        assert_eq!(bwd, fwd);
        // With no cached forward (fresh session), backward falls back to
        // the primary.
        let cold = route_experts(&placement, &mut HashMap::new(), 0, true, &grad_loads);
        assert_eq!(cold, vec![0, 0, 0, 1]);
    }

    #[test]
    fn degree_one_routing_is_the_single_owner_mapping() {
        let base = Placement::new(vec![vec![0, 1, 0, 1]], 2);
        let placement = ReplicatedPlacement::from(&base);
        let mut routes = HashMap::new();
        let loads = [(0usize, 9u64), (1, 1), (2, 3), (3, 7)];
        let fwd = route_experts(&placement, &mut routes, 0, false, &loads);
        assert_eq!(fwd, vec![0, 1, 0, 1], "load must not sway a pinned expert");
        assert!(routes.is_empty(), "degree 1 caches nothing");
        let bwd = route_experts(&placement, &mut routes, 0, true, &loads);
        assert_eq!(bwd, fwd);
    }

    /// Like [`setup`], but expert 0 of every block is replicated on both
    /// workers (bit-identical copies from identical seeds).
    fn setup_replicated() -> (
        BrokerClient,
        Vec<ExpertManager>,
        LocalExpertStore,
        ModelConfig,
    ) {
        setup_replicated_on(Arc::new(TrafficLedger::new(Topology::paper_testbed())))
    }

    /// [`setup_replicated`] accounting into `ledger`.
    fn setup_replicated_on(
        ledger: Arc<TrafficLedger>,
    ) -> (
        BrokerClient,
        Vec<ExpertManager>,
        LocalExpertStore,
        ModelConfig,
    ) {
        let cfg = ModelConfig::test_small();
        let (mut hub, ports) = build_star(
            TransportConfig::channel(),
            ledger,
            DeviceId(0),
            &[DeviceId(1), DeviceId(2)],
            &[],
        )
        .unwrap();

        let reference = LocalExpertStore::new(&cfg, &mut DetRng::new(7));
        let mut a = LocalExpertStore::new(&cfg, &mut DetRng::new(7));
        let mut b = LocalExpertStore::new(&cfg, &mut DetRng::new(7));
        let mut shard0 = LocalExpertStore::empty(cfg.blocks, cfg.experts);
        let mut shard1 = LocalExpertStore::empty(cfg.blocks, cfg.experts);
        let mut replicas = Vec::new();
        for l in 0..cfg.blocks {
            let mut row = Vec::new();
            for e in 0..cfg.experts {
                if e == 0 {
                    shard0.insert(l, e, a.take(l, e));
                    shard1.insert(l, e, b.take(l, e));
                    row.push(vec![0, 1]);
                } else if e % 2 == 0 {
                    shard0.insert(l, e, a.take(l, e));
                    row.push(vec![0]);
                } else {
                    shard1.insert(l, e, a.take(l, e));
                    row.push(vec![1]);
                }
            }
            replicas.push(row);
        }
        let placement = ReplicatedPlacement::new(replicas, 2);

        let mut ports = ports.into_iter();
        let managers = vec![
            ExpertManager::spawn(ports.next().unwrap(), shard0),
            ExpertManager::spawn(ports.next().unwrap(), shard1),
        ];
        boot(&mut hub, &cfg, None);
        (BrokerClient::new(hub, placement), managers, reference, cfg)
    }

    #[test]
    fn replicated_exchange_is_computation_transparent_and_syncs_grads() {
        let (mut broker, managers, mut reference, cfg) = setup_replicated();
        let mut rng = DetRng::new(31);
        let batches: Vec<ExpertBatch> = (0..cfg.experts)
            .map(|e| ExpertBatch {
                expert: e,
                xs: vela_tensor::Tensor::uniform((2 + e, cfg.dim), -1.0, 1.0, &mut rng),
            })
            .collect();
        // Which replica serves is a routing detail; the math must match
        // the local single-store reference bit for bit.
        assert_eq!(
            broker.forward_block(0, &batches),
            reference.forward_block(0, &batches)
        );
        let grads: Vec<ExpertBatch> = batches
            .iter()
            .map(|b| ExpertBatch {
                expert: b.expert,
                xs: vela_tensor::Tensor::ones(b.xs.shape().as_2d()),
            })
            .collect();
        assert_eq!(
            broker.backward_block(0, &grads),
            reference.backward_block(0, &grads)
        );
        // One replicated pair per block; each degree-2 sync is 3 flows
        // (fetch + state from the serving replica, one install per peer),
        // and every flow carries bytes the ledger will see.
        let flows = broker.sync_replica_grads(grad_bytes(&cfg)).unwrap();
        assert_eq!(flows.len(), cfg.blocks * 3);
        assert!(flows.iter().all(|&(_, bytes)| bytes > 0));
        teardown(&mut broker, managers);
    }

    #[test]
    fn replica_sync_drains_one_grad_state_per_pair_and_no_ack() {
        // One replicated channel step. Each block's expert 0 lives on both
        // workers, so its sync is one fetch, one state and one install; the
        // install lands ahead of `StepEnd` on the same FIFO link, and the
        // peer's `StepDone` is the only answer the master waits for.
        let (mut broker, managers, _, cfg) = setup_replicated();
        let mut rng = DetRng::new(37);
        broker.step_begin().unwrap();
        for l in 0..cfg.blocks {
            let batches: Vec<ExpertBatch> = (0..cfg.experts)
                .map(|e| ExpertBatch {
                    expert: e,
                    xs: vela_tensor::Tensor::uniform((2, cfg.dim), -1.0, 1.0, &mut rng),
                })
                .collect();
            broker.forward_block(l, &batches);
            broker.backward_block(l, &batches);
        }
        let pairs = broker.placement().replicated_pairs().len() as u64;
        assert_eq!(pairs, cfg.blocks as u64);
        let (sent, drained) = broker.hub.frame_counts();
        broker.sync_replica_grads(grad_bytes(&cfg)).unwrap();
        broker.step_end().unwrap();
        broker.wait_step_done().unwrap();
        let (sent_after, drained_after) = broker.hub.frame_counts();
        // Out: a fetch and an install per pair, a `StepEnd` per worker.
        assert_eq!(sent_after - sent, 2 * pairs + 2);
        // In: one `GradState` per pair and a `StepDone` per worker.
        assert_eq!(drained_after - drained, pairs + 2);
        teardown(&mut broker, managers);
    }

    #[test]
    fn replica_degree_reports_the_placement() {
        let (broker, managers, _, cfg) = setup_replicated();
        let mut broker = broker;
        assert_eq!(broker.replica_degree(0, 0), 2);
        assert_eq!(broker.replica_degree(cfg.blocks - 1, 1), 1);
        teardown(&mut broker, managers);
    }

    #[test]
    fn a_full_population_move_holds_at_most_two_shadows_and_syncs_nothing() {
        let (mut broker, managers, mut reference, cfg) = setup();
        let mut ref_opt = vela_nn::optim::AdamW::new(AdamWConfig::default());
        let moves = cfg.blocks * cfg.experts;
        let before = broker.placement().primaries();
        let mut swapped = before.clone();
        for l in 0..cfg.blocks {
            for e in 0..cfg.experts {
                swapped.set_worker(l, e, 1 - before.worker_of(l, e));
            }
        }
        let target = broker.placement().with_primaries(&swapped);
        assert_eq!(broker.apply_relation(&target).unwrap(), moves);
        assert_eq!(broker.migrations_in_flight(), moves);
        assert!(broker.apply_relation(&target).is_err(), "already moving");

        let mut rng = DetRng::new(17);
        let mut boundaries = 0;
        while broker.migrations_in_flight() > 0 {
            // Between steps the lane table is what can be resident on the
            // workers as shadows; everything else waits in the queue.
            let lanes = broker.migrations.lanes.len();
            assert!((1..=MAX_ACTIVE_LANES).contains(&lanes), "{lanes} lanes");
            assert_eq!(
                lanes + broker.migrations.queued.len(),
                moves - MAX_ACTIVE_LANES * boundaries
            );

            // The old owners serve the step while the streams ride it.
            broker.step_begin().unwrap();
            let batches: Vec<ExpertBatch> = (0..cfg.experts)
                .map(|e| ExpertBatch {
                    expert: e,
                    xs: vela_tensor::Tensor::uniform((2, cfg.dim), -1.0, 1.0, &mut rng),
                })
                .collect();
            for l in 0..cfg.blocks {
                assert_eq!(
                    broker.forward_block(l, &batches),
                    reference.forward_block(l, &batches)
                );
            }
            // A shadow holds nothing a gradient changes: no lane syncs.
            assert!(broker.sync_replica_grads(64).unwrap().is_empty());
            broker.step_end().unwrap();
            ref_opt.step(&mut reference);
            broker.wait_step_done().unwrap();
            assert_eq!(broker.pump_migrations().unwrap(), lanes);
            boundaries += 1;
        }
        assert_eq!(boundaries, moves.div_ceil(MAX_ACTIVE_LANES));
        for l in 0..cfg.blocks {
            for e in 0..cfg.experts {
                assert_eq!(broker.placement().primary(l, e), 1 - before.worker_of(l, e));
            }
        }
        teardown(&mut broker, managers);
    }

    #[test]
    fn a_move_onto_a_replica_ships_nothing() {
        let (mut broker, managers, mut reference, cfg) = setup_replicated();
        // Expert 0 lives on both workers, rooted on worker 0.
        assert_eq!(broker.placement().replicas_of(0, 0), [0, 1]);
        let shipped = broker.hub.wire_stats();
        let mut target = broker.placement().primaries();
        target.set_worker(0, 0, 1);
        let target = broker.placement().with_primaries(&target);
        assert_eq!(broker.apply_relation(&target).unwrap(), 1);
        assert_eq!(broker.migrations_in_flight(), 0);
        assert_eq!(broker.placement().replicas_of(0, 0), [1]);
        assert_eq!(
            broker.hub.wire_stats(),
            shipped,
            "an evict is off the books"
        );
        assert_eq!(broker.hub.frame_counts(), (0, 0));
        let mut rng = DetRng::new(23);
        let batches = vec![ExpertBatch {
            expert: 0,
            xs: vela_tensor::Tensor::uniform((3, cfg.dim), -1.0, 1.0, &mut rng),
        }];
        assert_eq!(
            broker.forward_block(0, &batches),
            reference.forward_block(0, &batches)
        );
        // The old primary gives its copy up: one copy of (0, 0) comes back.
        broker.shutdown().unwrap();
        let held: usize = managers
            .into_iter()
            .map(|m| usize::from(m.join().unwrap().contains(0, 0)))
            .sum();
        assert_eq!(held, 1);
    }

    /// Three workers over `transport`, expert `e` of each block on worker
    /// `e % 3` and, with `replicated`, `(0, 0)` also on worker 1. With
    /// `stray`, worker 2 also holds a copy of `(0, 0)` the placement does
    /// not list. Every copy of an expert starts bit-identical.
    fn three_workers(
        transport: TransportConfig,
        cfg: &ModelConfig,
        replicated: bool,
        stray: bool,
    ) -> (BrokerClient, Vec<ExpertManager>) {
        let ledger = Arc::new(TrafficLedger::new(Topology::paper_testbed()));
        let devices = [DeviceId(1), DeviceId(2), DeviceId(3)];
        let (mut hub, ports) = build_star(transport, ledger, DeviceId(0), &devices, &[]).unwrap();
        let mut source = LocalExpertStore::new(cfg, &mut DetRng::new(7));
        let template = Some(ExpertTemplate::from_expert(source.expert_mut(0, 0)));
        let mut shards: Vec<LocalExpertStore> = (0..3)
            .map(|_| LocalExpertStore::empty(cfg.blocks, cfg.experts))
            .collect();
        let mut replicas = vec![vec![Vec::new(); cfg.experts]; cfg.blocks];
        for (l, row) in replicas.iter_mut().enumerate() {
            for (e, reps) in row.iter_mut().enumerate() {
                shards[e % 3].insert(l, e, source.take(l, e));
                reps.push(e % 3);
            }
        }
        let clone = || LocalExpertStore::new(cfg, &mut DetRng::new(7)).take(0, 0);
        if replicated {
            shards[1].insert(0, 0, clone());
            replicas[0][0].push(1);
        }
        if stray {
            shards[2].insert(0, 0, clone());
        }
        let managers = ports
            .into_iter()
            .zip(shards)
            .map(|(port, shard)| ExpertManager::spawn(port, shard))
            .collect();
        boot(&mut hub, cfg, template);
        (
            BrokerClient::new(hub, ReplicatedPlacement::new(replicas, 3)),
            managers,
        )
    }

    /// What [`copies_after`] saw of `(0, 0)`.
    struct Copies {
        /// Its settled replica set.
        settled: Vec<usize>,
        /// The parameter bits of each of its copies at shutdown, in worker
        /// order.
        bits: Vec<Vec<u32>>,
        /// Hub frames `(out, in)` and expert-state wire bytes `(header,
        /// payload)` of the boundary that cut the change over.
        cutover: ((u64, u64), (u64, u64)),
    }

    /// Six steps on [`three_workers`] over channels; before step 3 the
    /// placement becomes `change` of itself, and the boundary after it
    /// cuts the change over.
    fn copies_after(
        cfg: &ModelConfig,
        replicated: bool,
        change: impl Fn(&ReplicatedPlacement) -> ReplicatedPlacement,
    ) -> Copies {
        let (mut broker, managers) =
            three_workers(TransportConfig::channel(), cfg, replicated, false);
        let mut rng = DetRng::new(29);
        let mut cutover = ((0, 0), (0, 0));
        for step in 0..6 {
            if step == 3 {
                let target = change(broker.placement());
                broker.apply_relation(&target).unwrap();
            }
            broker.step_begin().unwrap();
            for l in 0..cfg.blocks {
                let batches: Vec<ExpertBatch> = (0..cfg.experts)
                    .map(|e| ExpertBatch {
                        expert: e,
                        xs: vela_tensor::Tensor::uniform((2 + e, cfg.dim), -1.0, 1.0, &mut rng),
                    })
                    .collect();
                broker.forward_block(l, &batches);
                broker.backward_block(l, &batches);
            }
            broker.sync_replica_grads(grad_bytes(cfg)).unwrap();
            broker.step_end().unwrap();
            broker.wait_step_done().unwrap();
            let (frames, wire) = (broker.hub.frame_counts(), broker.hub.wire_stats());
            broker.pump_migrations().unwrap();
            if step == 3 {
                let (now, after) = (broker.hub.frame_counts(), broker.hub.wire_stats());
                cutover = (
                    (now.0 - frames.0, now.1 - frames.1),
                    (
                        after.expert_state_header - wire.expert_state_header,
                        after.expert_state_payload - wire.expert_state_payload,
                    ),
                );
            }
        }
        let settled = broker.placement().replicas_of(0, 0).to_vec();
        broker.shutdown().unwrap();
        let bits = managers
            .into_iter()
            .map(|m| m.join().unwrap())
            .filter(|shard| shard.contains(0, 0))
            .map(|mut shard| {
                let mut bits = Vec::new();
                shard.expert_mut(0, 0).visit_params(&mut |p| {
                    bits.extend(p.value.as_slice().iter().map(|v| v.to_bits()));
                });
                bits
            })
            .collect();
        Copies {
            settled,
            bits,
            cutover,
        }
    }

    /// `Err` unless there are two copies and they agree bit for bit.
    fn clones(copies: &[Vec<u32>]) -> Result<(), String> {
        let [a, b] = copies else {
            return Err(format!("{} copies", copies.len()));
        };
        match a.iter().zip(b).filter(|(x, y)| x != y).count() {
            0 => Ok(()),
            differ => Err(format!("{differ} of {} values differ", a.len())),
        }
    }

    #[test]
    fn a_lane_move_of_a_replicated_expert_keeps_its_copies_clones() {
        // Expert (0, 0) lives on workers 0 and 1; a lane moves it from 0 to
        // 2. The new primary starts from fresh moments, so the surviving
        // peer must too, or the two copies part after the next step.
        let moved = copies_after(&ModelConfig::test_small(), true, |placed| {
            let mut target = placed.primaries();
            target.set_worker(0, 0, 2);
            placed.with_primaries(&target)
        });
        assert_eq!(moved.settled, [2, 1]);
        clones(&moved.bits).unwrap();
    }

    #[test]
    fn an_added_copy_steps_bit_identically_with_its_source() {
        // Expert (0, 0) gains a copy on worker 2 and keeps the one on
        // worker 0: an add with no drop. Both start the next step from
        // fresh moments and the same weights, and stay clones — also at a
        // width whose trainable blob needs many chunks.
        let wide = ModelConfig {
            dim: 128,
            ffn_hidden: 576,
            ..ModelConfig::test_small()
        };
        for (cfg, min_chunks) in [(ModelConfig::test_small(), 1), (wide, 2)] {
            let moved = copies_after(&cfg, false, |placed| {
                let mut target = placed.clone();
                target.add_replica(0, 0, 2);
                target
            });
            assert_eq!(moved.settled, [0, 2]);
            clones(&moved.bits).unwrap();
            // The base trains, so nothing is frozen and the whole expert
            // rides the cutover's trainable stream: `FetchTrained` out, the
            // stream in from worker 0 and relayed to worker 2, its ack in.
            // Each leg is `n` bounded chunks with one chunk header each,
            // never one frame holding the blob.
            let ((out, back), (header, payload)) = moved.cutover;
            let blob = payload / 2;
            assert!(
                blob >= (3 * cfg.dim * cfg.ffn_hidden * 4) as u64,
                "{blob} bytes"
            );
            let n = blob.div_ceil(EXPERT_CHUNK_BYTES as u64);
            let chunk_header = chunk_expert_state(0, 0, &[])[0].encode().len() as u64;
            assert_eq!(
                ((out, back), header),
                ((1 + n, n + 1), 2 * n * chunk_header)
            );
            assert!(n >= min_chunks, "{blob} bytes crossed as {n} chunk(s)");
        }
    }

    #[test]
    fn a_gained_worker_that_holds_the_expert_refuses_the_stream() {
        // Worker 2 holds a copy of (0, 0) the placement does not list, and
        // the target adds one there. The worker refuses the opening chunk
        // and stops; the flush reports a dead worker instead of hanging or
        // panicking, on either in-process transport.
        for transport in [TransportConfig::channel(), TransportConfig::tcp_threads()] {
            let cfg = ModelConfig::test_small();
            let (mut broker, managers) = three_workers(transport, &cfg, false, true);
            let mut target = broker.placement().clone();
            target.add_replica(0, 0, 2);
            assert_eq!(broker.apply_relation(&target).unwrap(), 1);
            let flushed = broker.finish_migrations();
            assert!(
                matches!(flushed, Err(TransportError::Disconnected)),
                "{}: {flushed:?}",
                transport.label()
            );
            let _ = broker.shutdown();
            let held: Vec<bool> = managers
                .into_iter()
                .map(|m| m.join().unwrap().contains(0, 0))
                .collect();
            assert_eq!(held, [true, false, true], "{}", transport.label());
        }
    }

    #[test]
    fn a_drop_only_target_ships_nothing_and_settles_in_the_call() {
        let ledger = Arc::new(TrafficLedger::new(Topology::paper_testbed()));
        let (mut broker, managers, mut reference, cfg) = setup_replicated_on(ledger.clone());
        ledger.take_step();
        // Every block's expert 0 lives on both workers; the target keeps
        // only the primary's copy.
        let mut target = broker.placement().clone();
        for l in 0..cfg.blocks {
            target.set_replicas(l, 0, &[0]);
        }
        assert_eq!(broker.apply_relation(&target).unwrap(), cfg.blocks);
        assert_eq!(broker.migrations_in_flight(), 0);
        assert_eq!(broker.placement(), &target);
        assert_eq!(ledger.take_step().migration_bytes, 0);
        assert_eq!(
            broker.hub.frame_counts(),
            (0, 0),
            "an evict is off the books"
        );
        let mut rng = DetRng::new(41);
        let batches = vec![ExpertBatch {
            expert: 0,
            xs: vela_tensor::Tensor::uniform((3, cfg.dim), -1.0, 1.0, &mut rng),
        }];
        assert_eq!(
            broker.forward_block(0, &batches),
            reference.forward_block(0, &batches)
        );
        assert!(broker.sync_replica_grads(64).unwrap().is_empty());
        broker.shutdown().unwrap();
        let held: Vec<bool> = managers
            .into_iter()
            .map(|m| m.join().unwrap().contains(0, 0))
            .collect();
        assert_eq!(held, [true, false]);
    }

    /// A broker over two rogue workers on `transport`, expert `(0, 0)` on
    /// the workers `replicas` lists: each answers every frame but
    /// `Shutdown` with `reply`.
    fn rogue_star(
        transport: TransportConfig,
        replicas: Vec<usize>,
        reply: Message,
    ) -> (BrokerClient, Vec<JoinHandle<()>>) {
        let ledger = Arc::new(TrafficLedger::new(Topology::paper_testbed()));
        let devices = [DeviceId(1), DeviceId(2)];
        let (hub, ports) = build_star(transport, ledger, DeviceId(0), &devices, &[]).unwrap();
        let rogues = ports
            .into_iter()
            .map(|mut port| {
                let reply = reply.clone();
                std::thread::spawn(move || {
                    while let Ok(msg) = port.recv() {
                        if msg == Message::Shutdown || port.send(&reply).is_err() {
                            break;
                        }
                    }
                })
            })
            .collect();
        let placement = ReplicatedPlacement::new(vec![vec![replicas]], 2);
        (BrokerClient::new(hub, placement), rogues)
    }

    #[test]
    fn wrong_reply_is_a_protocol_error_not_a_panic() {
        // A lane's primary answers its `FetchShadow` with `StepDone`: the
        // flush ends in a typed error, with no hang.
        for transport in [TransportConfig::channel(), TransportConfig::tcp_threads()] {
            let (mut broker, rogues) = rogue_star(transport, vec![0], Message::StepDone);
            let target = ReplicatedPlacement::new(vec![vec![vec![1]]], 2);
            assert_eq!(broker.apply_relation(&target).unwrap(), 1);
            let flushed = broker.finish_migrations();
            assert!(
                matches!(flushed, Err(TransportError::Protocol(_))),
                "{}: {flushed:?}",
                transport.label()
            );
            broker.shutdown().unwrap();
            rogues.into_iter().for_each(|r| r.join().unwrap());
        }
    }

    #[test]
    fn a_stray_install_ack_is_a_protocol_error() {
        // Workers answer `StepEnd` with an `InstallDone` no lane owes: the
        // lane router refuses it inside the wait for `StepDone`, a typed
        // error with no hang.
        for transport in [TransportConfig::channel(), TransportConfig::tcp_threads()] {
            let stray = Message::InstallDone {
                block: 0,
                expert: 0,
            };
            let (mut broker, rogues) = rogue_star(transport, vec![0], stray);
            broker.step_end().unwrap();
            let waited = broker.wait_step_done();
            assert!(
                matches!(&waited, Err(TransportError::Protocol(why)) if why.contains("owes none")),
                "{}: {waited:?}",
                transport.label()
            );
            broker.shutdown().unwrap();
            rogues.into_iter().for_each(|r| r.join().unwrap());
        }
    }

    #[test]
    fn a_grad_state_of_the_wrong_length_is_a_protocol_error() {
        // The serving replica of (0, 0) answers `FetchGrads` with a row one
        // value short: the master refuses to relay it to the peer, a typed
        // error with no hang.
        for transport in [TransportConfig::channel(), TransportConfig::tcp_threads()] {
            let short = Message::GradState {
                block: 0,
                expert: 0,
                row: PackedRow {
                    width: 15,
                    data: PackedData::F32(vec![0.0; 15]),
                },
            };
            let (mut broker, rogues) = rogue_star(transport, vec![0, 1], short);
            let synced = broker.sync_replica_grads(64);
            assert!(
                matches!(&synced, Err(TransportError::Protocol(why)) if why.contains("carries 60 bytes")),
                "{}: {synced:?}",
                transport.label()
            );
            broker.shutdown().unwrap();
            rogues.into_iter().for_each(|r| r.join().unwrap());
        }
    }

    #[test]
    fn dead_workers_surface_as_errors_not_panics() {
        let (mut broker, managers, _, _) = setup();
        broker.shutdown().unwrap();
        for m in managers {
            m.join().unwrap();
        }
        // Workers are gone and links closed: control-plane calls must
        // report the disconnect instead of aborting.
        assert!(broker.step_begin().is_err());
    }
}
