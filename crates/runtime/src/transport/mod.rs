//! The pluggable transport seam between the master and its Expert Manager
//! workers.
//!
//! The paper's master–worker star (§IV-A) is a *topology*, not an
//! implementation: the broker only needs hub/port endpoints with send,
//! recv and shutdown semantics, plus a timeout-recv on the hub for clock
//! probes. This module defines that seam ([`HubBackend`] /
//! [`PortBackend`]) and two std-only implementations:
//!
//! * [`channel`] — the original in-process `std::sync::mpsc` star;
//! * [`tcp`] — loopback `std::net` sockets with length-prefixed framing,
//!   a connect handshake with bounded-backoff retry, read timeouts, and a
//!   clean shutdown handshake. The same code path serves both the
//!   hermetic "tcp-threads" mode (workers as threads, sockets in between)
//!   and true multi-process runs via the `vela_worker` binary.
//!
//! A session's star uses both around one more piece: `hosted`, which
//! serves the worker nearest the master on the master's own thread, over
//! a [`channel`] link, beside a backend that links the others
//! (`MasterHub::host`). Its frames pass through the same
//! [`MasterHub::send`]/[`MasterHub::recv`] as every other worker's.
//! [`build_star`] builds every in-process star, with or without that
//! hosted slot; a process-mode star is assembled by [`TcpStarBuilder`] as
//! the `vela_worker` children dial in.
//!
//! **Traffic accounting is transport-independent by construction**: every
//! accounted byte is recorded by the *master-side* [`MasterHub`] wrapper —
//! downlink bytes when it sends, uplink bytes when it receives — so the
//! [`TrafficLedger`] sees the identical byte stream whether the peer is a
//! thread an mpsc hop away or a separate OS process across a socket.
//! (Workers cannot share the master's ledger once they live in another
//! process, which is why the accounting lives here and not in the ports.)
//! Fig. 5/6 traffic numbers are therefore byte-exact across transports —
//! pinned by `tests/contract.rs`.

pub mod channel;
mod hosted;
pub mod tcp;

use std::collections::VecDeque;
use std::fmt;
use std::sync::mpsc::Receiver;
use std::sync::Arc;
use std::time::Duration;

use vela_cluster::{DeviceId, TrafficLedger};
use vela_model::LocalExpertStore;
use vela_obs::LazyCounter;

use crate::message::{Bucket, FrameKind, Message};
use crate::wire::WireError;

pub use tcp::{connect_worker, TcpStarBuilder};

/// A transport-layer failure. Unlike the original mpsc star, which
/// panicked on any hiccup, every condition a real link can produce is an
/// error value the broker and worker loops handle explicitly.
#[derive(Debug)]
pub enum TransportError {
    /// The peer hung up: channel closed, socket EOF, or connection reset.
    Disconnected,
    /// No frame arrived within the requested timeout.
    Timeout,
    /// A socket-level failure other than a clean close.
    Io(std::io::Error),
    /// A frame arrived but could not be decoded.
    Wire(WireError),
    /// The star could not be assembled: the connect handshake failed (bad
    /// magic, duplicate worker index, device mismatch, or the retry budget
    /// ran out), or the worker side could not be started.
    Handshake(String),
    /// The peer spoke the protocol wrong: an unexpected message kind, a
    /// reply for the wrong block/pass/expert, or an ack from the wrong
    /// worker. The link itself is healthy — the *conversation* is not.
    Protocol(String),
}

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransportError::Disconnected => write!(f, "peer disconnected"),
            TransportError::Timeout => write!(f, "timed out waiting for a frame"),
            TransportError::Io(e) => write!(f, "transport i/o error: {e}"),
            TransportError::Wire(e) => write!(f, "malformed frame: {e}"),
            TransportError::Handshake(why) => write!(f, "transport handshake failed: {why}"),
            TransportError::Protocol(why) => write!(f, "protocol violation: {why}"),
        }
    }
}

impl std::error::Error for TransportError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TransportError::Io(e) => Some(e),
            TransportError::Wire(e) => Some(e),
            _ => None,
        }
    }
}

impl From<WireError> for TransportError {
    fn from(e: WireError) -> Self {
        TransportError::Wire(e)
    }
}

impl From<std::io::Error> for TransportError {
    fn from(e: std::io::Error) -> Self {
        use std::io::ErrorKind;
        match e.kind() {
            ErrorKind::BrokenPipe
            | ErrorKind::ConnectionReset
            | ErrorKind::ConnectionAborted
            | ErrorKind::UnexpectedEof => TransportError::Disconnected,
            _ => TransportError::Io(e),
        }
    }
}

/// Chooses and labels a transport: build one with [`channel`](Self::channel),
/// [`tcp_threads`](Self::tcp_threads), [`tcp_processes`](Self::tcp_processes)
/// or [`from_env`](Self::from_env).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TransportConfig {
    backend: Backend,
}

/// How the star network is realized.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum Backend {
    /// In-process `std::sync::mpsc` channels, workers as threads.
    #[default]
    Channel,
    /// Loopback TCP sockets, workers still as threads in this process:
    /// the full wire path, hermetically.
    TcpThreads,
    /// Loopback TCP sockets, workers as separate OS processes running the
    /// `vela_worker` binary.
    TcpProcesses,
}

impl TransportConfig {
    /// The in-process mpsc star (the default; fastest).
    pub fn channel() -> Self {
        TransportConfig {
            backend: Backend::Channel,
        }
    }

    /// TCP loopback with in-process worker threads
    /// (`VELA_TRANSPORT=tcp-threads`).
    pub fn tcp_threads() -> Self {
        TransportConfig {
            backend: Backend::TcpThreads,
        }
    }

    /// TCP loopback with worker OS processes (`VELA_TRANSPORT=tcp`).
    pub fn tcp_processes() -> Self {
        TransportConfig {
            backend: Backend::TcpProcesses,
        }
    }

    /// Reads `VELA_TRANSPORT` (`channel` | `tcp` | `tcp-threads`,
    /// default `channel`). Unknown values fall back to the default with a
    /// warning rather than aborting a long run.
    pub fn from_env() -> Self {
        match std::env::var("VELA_TRANSPORT").as_deref() {
            Ok("tcp") => Self::tcp_processes(),
            Ok("tcp-threads") => Self::tcp_threads(),
            Ok("channel") | Err(_) => Self::channel(),
            Ok(other) => {
                vela_obs::warn!("unknown VELA_TRANSPORT={other:?}, using channel");
                Self::channel()
            }
        }
    }

    /// Stable label recorded in [`RunSummary`](crate::RunSummary) and the
    /// fig6 output columns.
    pub fn label(&self) -> &'static str {
        match self.backend {
            Backend::Channel => "channel",
            Backend::TcpThreads => "tcp-threads",
            Backend::TcpProcesses => "tcp",
        }
    }

    /// Whether workers run as separate OS processes.
    pub fn is_process_mode(&self) -> bool {
        self.backend == Backend::TcpProcesses
    }
}

/// Master-side raw frame mover. Implementations ship opaque frames; all
/// message encoding and traffic accounting happens in [`MasterHub`].
pub trait HubBackend: Send + fmt::Debug {
    /// Ships a frame to worker `index`. Takes the frame by value so
    /// queueing backends (mpsc, the tcp writer threads) move the encoded
    /// buffer instead of copying it — one allocation per frame, total.
    fn send(&mut self, index: usize, frame: Vec<u8>) -> Result<(), TransportError>;
    /// Blocks for the next `(worker_index, frame)` pair.
    fn recv(&mut self) -> Result<(usize, Vec<u8>), TransportError>;
    /// Like [`recv`](Self::recv) with a deadline.
    fn recv_timeout(&mut self, timeout: Duration) -> Result<(usize, Vec<u8>), TransportError>;
    /// Closes all links (best effort; repeated calls are harmless).
    fn shutdown(&mut self);
}

/// Worker-side raw frame mover.
pub trait PortBackend: Send + fmt::Debug {
    /// Ships a frame to the master (by value; see [`HubBackend::send`]).
    fn send(&mut self, frame: Vec<u8>) -> Result<(), TransportError>;
    /// Blocks for the next frame from the master.
    fn recv(&mut self) -> Result<Vec<u8>, TransportError>;
    /// Closes the link to the master (best effort).
    fn shutdown(&mut self);
}

static WIRE_DISPATCH_HEADER: LazyCounter = LazyCounter::new("wire.dispatch.header_bytes");
static WIRE_DISPATCH_PAYLOAD: LazyCounter = LazyCounter::new("wire.dispatch.payload_bytes");
static WIRE_RESULT_HEADER: LazyCounter = LazyCounter::new("wire.result.header_bytes");
static WIRE_RESULT_PAYLOAD: LazyCounter = LazyCounter::new("wire.result.payload_bytes");
static WIRE_EXPERT_STATE_HEADER: LazyCounter = LazyCounter::new("wire.expert_state.header_bytes");
static WIRE_EXPERT_STATE_PAYLOAD: LazyCounter = LazyCounter::new("wire.expert_state.payload_bytes");

/// Actual encoded bytes moved through a [`MasterHub`], split by frame
/// kind and header vs payload.
///
/// This is the *wire* view, distinct from the [`TrafficLedger`]'s
/// *accounted* view: the ledger counts tokens moved, not how they were
/// framed, while these counters measure what serialization actually
/// costs. Virtual payloads carry no wire payload bytes, only their
/// headers.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct WireStats {
    /// Header bytes of master→worker activation/gradient frames.
    pub dispatch_header: u64,
    /// Payload bytes of master→worker activation/gradient frames.
    pub dispatch_payload: u64,
    /// Header bytes of worker→master result frames.
    pub result_header: u64,
    /// Payload bytes of worker→master result frames.
    pub result_payload: u64,
    /// Header bytes of expert-state transfers.
    pub expert_state_header: u64,
    /// Payload (checkpoint blob) bytes of expert-state transfers.
    pub expert_state_payload: u64,
    /// Bytes of control frames (step markers, acks, fetch requests).
    pub control: u64,
}

impl WireStats {
    /// Total encoded bytes in both directions.
    pub fn total(&self) -> u64 {
        self.dispatch_header
            + self.dispatch_payload
            + self.result_header
            + self.result_payload
            + self.expert_state_header
            + self.expert_state_payload
            + self.control
    }

    fn record(&mut self, kind: FrameKind, header: u64, payload: u64) {
        match kind {
            FrameKind::Dispatch => {
                self.dispatch_header += header;
                self.dispatch_payload += payload;
                WIRE_DISPATCH_HEADER.add(header);
                WIRE_DISPATCH_PAYLOAD.add(payload);
            }
            FrameKind::Result => {
                self.result_header += header;
                self.result_payload += payload;
                WIRE_RESULT_HEADER.add(header);
                WIRE_RESULT_PAYLOAD.add(payload);
            }
            FrameKind::ExpertState => {
                self.expert_state_header += header;
                self.expert_state_payload += payload;
                WIRE_EXPERT_STATE_HEADER.add(header);
                WIRE_EXPERT_STATE_PAYLOAD.add(payload);
            }
            FrameKind::Control => self.control += header + payload,
        }
    }
}

/// Master-side endpoint of the star network.
///
/// Wraps any [`HubBackend`] and performs the *only* traffic accounting in
/// the system: downlink bytes are recorded at send, uplink bytes at
/// receive, always against the (source, destination) device pair, so
/// ledger totals are identical across transports.
#[derive(Debug)]
pub struct MasterHub {
    backend: Box<dyn HubBackend>,
    ledger: Arc<TrafficLedger>,
    device: DeviceId,
    workers: Vec<DeviceId>,
    transport: &'static str,
    frames_out: u64,
    frames_in: u64,
    wire_stats: WireStats,
    /// Frames drained out of order (e.g. a migration chunk surfacing
    /// during a clock-probe window) are stashed here, already accounted,
    /// and re-delivered by the next `recv`/`recv_timeout` — the hub never
    /// drops a frame it has read off the wire.
    pending: VecDeque<(usize, Message)>,
}

impl MasterHub {
    /// Wraps `backend` as the hub of a star between `master` and
    /// `workers`, accounting all traffic in `ledger`.
    pub fn new(
        backend: Box<dyn HubBackend>,
        ledger: Arc<TrafficLedger>,
        master: DeviceId,
        workers: Vec<DeviceId>,
        transport: &'static str,
    ) -> Self {
        MasterHub {
            backend,
            ledger,
            device: master,
            workers,
            transport,
            frames_out: 0,
            frames_in: 0,
            wire_stats: WireStats::default(),
            pending: VecDeque::new(),
        }
    }

    /// Protocol frames shipped and drained since construction (a packed
    /// dispatch carrying many expert batches is one frame).
    pub fn frame_counts(&self) -> (u64, u64) {
        (self.frames_out, self.frames_in)
    }

    /// Actual encoded wire bytes moved so far, by frame kind (see
    /// [`WireStats`]).
    pub fn wire_stats(&self) -> WireStats {
        self.wire_stats
    }

    /// The master's device.
    pub fn device(&self) -> DeviceId {
        self.device
    }

    /// Number of workers attached.
    pub fn worker_count(&self) -> usize {
        self.workers.len()
    }

    /// Label of the backend in use (`channel`, `tcp-threads`, `tcp`).
    pub fn transport(&self) -> &'static str {
        self.transport
    }

    /// Sends a message to worker `index`, recording its bytes.
    pub fn send(&mut self, index: usize, msg: &Message) -> Result<(), TransportError> {
        let frame = msg.encode();
        if self.account(self.device, self.workers[index], msg, frame.len()) {
            self.frames_out += 1;
        }
        self.backend.send(index, frame)
    }

    /// Broadcasts a message to every worker.
    pub fn broadcast(&mut self, msg: &Message) -> Result<(), TransportError> {
        for index in 0..self.workers.len() {
            self.send(index, msg)?;
        }
        Ok(())
    }

    /// Blocks for the next worker message, recording its bytes; returns
    /// `(worker_index, message)`. Frames stashed by an earlier
    /// out-of-order drain are delivered first.
    pub fn recv(&mut self) -> Result<(usize, Message), TransportError> {
        self.recv_with(|backend| backend.recv())
    }

    /// Like [`recv`](Self::recv) with a deadline.
    pub fn recv_timeout(&mut self, timeout: Duration) -> Result<(usize, Message), TransportError> {
        self.recv_with(|backend| backend.recv_timeout(timeout))
    }

    fn recv_with(
        &mut self,
        next: impl FnOnce(&mut dyn HubBackend) -> Result<(usize, Vec<u8>), TransportError>,
    ) -> Result<(usize, Message), TransportError> {
        if let Some(stashed) = self.pending.pop_front() {
            return Ok(stashed);
        }
        let (index, frame) = next(self.backend.as_mut())?;
        let msg = Message::decode(&frame)?;
        if self.account(self.workers[index], self.device, &msg, frame.len()) {
            self.frames_in += 1;
        }
        Ok((index, msg))
    }

    /// The only traffic accounting in the system, shared by both
    /// directions: records the frame's accounted bytes in its ledger
    /// bucket against the `(src, dst)` device pair and splits its encoded
    /// length into the wire counters. Returns whether the frame counts at
    /// all: `Unaccounted` frames skip the ledger, the frame counters *and*
    /// the wire stats, so a traced run (clock probes) and a dropped
    /// copy's `Evict` leave every total as it was.
    fn account(&mut self, src: DeviceId, dst: DeviceId, msg: &Message, encoded_len: usize) -> bool {
        let info = msg.info();
        match info.bucket {
            Bucket::Unaccounted => return false,
            Bucket::Plain => self.ledger.record(src, dst, info.accounted),
            Bucket::Sync => self.ledger.record_sync(src, dst, info.accounted),
            Bucket::Migration => self.ledger.record_migration(src, dst, info.accounted),
        }
        let header = (encoded_len as u64).saturating_sub(info.payload);
        self.wire_stats.record(info.kind, header, info.payload);
        true
    }

    /// Runs `rounds` NTP-style clock probes against every worker and
    /// records the minimum-RTT sample per worker as a trace `"k"`
    /// record (via [`vela_obs::clock_sample`]). Must be called in a
    /// quiescent window — between steps, when no exchange replies are
    /// pending — because it drains the hub inline waiting for each
    /// reply. Failures are swallowed: a lost probe only degrades trace
    /// alignment, never the run.
    pub fn probe_clocks(&mut self, rounds: usize) {
        for index in 0..self.workers.len() {
            let mut best: Option<(u64, i64)> = None;
            'rounds: for _ in 0..rounds {
                let t1 = vela_obs::now_us();
                if self.send(index, &Message::ClockProbe { t1 }).is_err() {
                    return;
                }
                let (t2, t3) = loop {
                    match self.recv_timeout(Duration::from_millis(500)) {
                        Ok((i, Message::ClockReply { t1: echoed, t2, t3 }))
                            if i == index && echoed == t1 =>
                        {
                            break (t2, t3);
                        }
                        // A stale reply from an earlier, timed-out
                        // round is clock traffic too — keep draining.
                        Ok((_, Message::ClockReply { .. })) => continue,
                        Ok((i, msg)) => {
                            // A background migration frame can surface
                            // during the probe window; stash it for the
                            // next real recv instead of dropping it, and
                            // stop probing.
                            vela_obs::warn!(
                                "clock probe drained unexpected frame from worker {i}: \
                                 {msg:?}; stashing and aborting probes"
                            );
                            self.pending.push_back((i, msg));
                            return;
                        }
                        Err(_) => break 'rounds,
                    }
                };
                let t4 = vela_obs::now_us();
                let rtt = (t4 - t1).saturating_sub(t3.saturating_sub(t2));
                let offset = ((t2 as i64 - t1 as i64) + (t3 as i64 - t4 as i64)) / 2;
                if best.map_or(true, |(r, _)| rtt < r) {
                    best = Some((rtt, offset));
                }
            }
            if let Some((rtt, offset)) = best {
                vela_obs::clock_sample(index, offset, rtt);
            }
        }
    }

    /// Closes all links (best effort).
    pub fn shutdown(&mut self) {
        self.backend.shutdown();
    }

    /// Serves worker `index` on this thread from now on, as an Expert
    /// Manager booting from `shard`. The backend must have left that
    /// worker's link out (see [`build_star`]'s `hosted`); frames to and
    /// from it still pass through [`send`](Self::send) and
    /// [`recv`](Self::recv) and the codec, so every count this hub keeps is
    /// the same as over a link. The receiver gets its shard, or why it
    /// never booted, once it stops.
    pub(crate) fn host(
        self,
        index: usize,
        shard: LocalExpertStore,
    ) -> (
        MasterHub,
        Receiver<Result<LocalExpertStore, TransportError>>,
    ) {
        let (backend, shard_back) =
            hosted::HostedHub::new(self.backend, index, self.workers[index], shard);
        let hub = MasterHub {
            backend: Box::new(backend),
            ..self
        };
        (hub, shard_back)
    }
}

/// Worker-side endpoint.
///
/// Carries no ledger: traffic accounting is the master's job (see the
/// module docs), which is what lets a port live in a different process.
#[derive(Debug)]
pub struct WorkerPort {
    /// This worker's index in the master's worker list.
    pub index: usize,
    /// The device this worker runs on.
    pub device: DeviceId,
    backend: Box<dyn PortBackend>,
}

impl WorkerPort {
    /// Wraps `backend` as the endpoint of worker `index` on `device`.
    pub fn new(backend: Box<dyn PortBackend>, index: usize, device: DeviceId) -> Self {
        WorkerPort {
            index,
            device,
            backend,
        }
    }

    /// Blocks for the next message from the master.
    pub fn recv(&mut self) -> Result<Message, TransportError> {
        Ok(Message::decode(&self.backend.recv()?)?)
    }

    /// Sends a message to the master.
    pub fn send(&mut self, msg: &Message) -> Result<(), TransportError> {
        self.backend.send(msg.encode())
    }

    /// Closes the link to the master (best effort).
    pub fn shutdown(&mut self) {
        self.backend.shutdown();
    }
}

/// Builds the star between `master` and `workers` for an in-process
/// `config` (`channel` or `tcp-threads`), with no link for worker `hosted`
/// when it is `Some`: `MasterHub::host` fills that slot, and the other
/// ports keep their index in `workers`. Process mode has an asymmetric
/// construction (the hub accepts, each worker process connects) and goes
/// through [`TcpStarBuilder`] / [`connect_worker`] instead; asking for it
/// here is a [`TransportError::Handshake`].
///
/// # Panics
/// Panics if `workers` is empty.
pub fn build_star(
    config: TransportConfig,
    ledger: Arc<TrafficLedger>,
    master: DeviceId,
    workers: &[DeviceId],
    hosted: Option<usize>,
) -> Result<(MasterHub, Vec<WorkerPort>), TransportError> {
    match config.backend {
        Backend::Channel => Ok(channel::channel_star(ledger, master, workers, hosted)),
        Backend::TcpThreads => tcp::tcp_star(ledger, master, workers, hosted),
        Backend::TcpProcesses => Err(TransportError::Handshake(
            "process mode builds its star with TcpStarBuilder, not build_star".into(),
        )),
    }
}

#[cfg(test)]
mod tests {
    //! One backend suite: every case runs over [`build_star`] on `channel`
    //! and on `tcp-threads`. What only TCP has — the handshake, connect
    //! retry, stray connections, the writer queue, split reads and the
    //! oversized header — is tested in `tcp.rs`.

    use super::*;
    use crate::message::{GroupPass, PackedData, PackedGroup, PackedReply, PackedRow};
    use crate::worker::WorkerBootstrap;
    use vela_cluster::Topology;
    use vela_nn::optim::AdamWConfig;

    /// Runs `case` once per in-process backend, on a star of six workers on
    /// devices 0..6 around a master on device 0.
    fn each_backend(
        case: impl Fn(TransportConfig, Arc<TrafficLedger>, MasterHub, Vec<WorkerPort>),
    ) {
        for config in [TransportConfig::channel(), TransportConfig::tcp_threads()] {
            let ledger = Arc::new(TrafficLedger::new(Topology::paper_testbed()));
            let workers: Vec<DeviceId> = (0..6).map(DeviceId).collect();
            let (hub, ports) = build_star(config, ledger.clone(), DeviceId(0), &workers, None)
                .unwrap_or_else(|e| panic!("{}: {e}", config.label()));
            case(config, ledger, hub, ports);
        }
    }

    #[test]
    fn messages_flow_both_ways() {
        each_backend(|config, _, mut hub, mut ports| {
            hub.send(2, &Message::StepBegin { step: 1 }).unwrap();
            assert_eq!(ports[2].recv().unwrap(), Message::StepBegin { step: 1 });
            ports[4].send(&Message::StepDone).unwrap();
            let got = hub.recv().unwrap();
            assert_eq!(got, (4, Message::StepDone), "{}", config.label());
        });
    }

    #[test]
    fn broadcast_reaches_everyone() {
        each_backend(|_, _, mut hub, mut ports| {
            hub.broadcast(&Message::StepEnd).unwrap();
            for port in &mut ports {
                assert_eq!(port.recv().unwrap(), Message::StepEnd);
            }
        });
    }

    #[test]
    fn traffic_is_recorded_per_link() {
        // The same figures on every backend: accounting is the hub's, not
        // the wire's.
        each_backend(|config, ledger, mut hub, mut ports| {
            let msg = Message::PackedDispatch(PackedGroup::pack_virtual(
                0,
                GroupPass::Forward,
                100,
                std::iter::once((0, 10)),
            ));
            hub.send(0, &msg).unwrap(); // master → worker on the same device: free
            hub.send(1, &msg).unwrap(); // same node: internal
            hub.send(2, &msg).unwrap(); // cross-node: external
            ports[2].send(&msg).unwrap(); // reply crosses back...
            hub.recv().unwrap(); // ...accounted when the master receives it
            let t = ledger.peek();
            assert_eq!(
                t.internal_bytes,
                msg.accounted_bytes(),
                "{}",
                config.label()
            );
            assert_eq!(t.external_total(), 2 * msg.accounted_bytes());
        });
    }

    #[test]
    fn uplink_bytes_are_accounted_at_master_recv() {
        // The worker side carries no ledger (it may live in another
        // process); nothing is recorded until the master drains the
        // message.
        each_backend(|_, ledger, mut hub, mut ports| {
            ports[2].send(&Message::StepDone).unwrap();
            assert_eq!(ledger.peek().external_total(), 0);
            hub.recv().unwrap();
            assert_eq!(
                ledger.peek().external_total(),
                Message::StepDone.accounted_bytes()
            );
        });
    }

    #[test]
    fn worker_metadata() {
        each_backend(|config, _, hub, ports| {
            assert_eq!(hub.worker_count(), 6);
            assert_eq!(hub.device(), DeviceId(0));
            assert!(config.label().starts_with(hub.transport()));
            assert_eq!(ports[5].index, 5);
            assert_eq!(ports[5].device, DeviceId(5));
        });
    }

    #[test]
    fn cross_thread_usage() {
        each_backend(|_, _, mut hub, mut ports| {
            let mut port = ports.remove(0);
            let handle = std::thread::spawn(move || {
                let msg = port.recv().unwrap();
                port.send(&Message::StepDone).unwrap();
                msg
            });
            hub.send(0, &Message::StepBegin { step: 9 }).unwrap();
            let (idx, reply) = hub.recv().unwrap();
            assert_eq!((idx, reply), (0, Message::StepDone));
            assert_eq!(handle.join().unwrap(), Message::StepBegin { step: 9 });
        });
    }

    #[test]
    fn large_real_payload_roundtrips() {
        // 16 MB each way: past any socket buffer, and hundreds of reads
        // into one growing reassembly buffer on TCP.
        each_backend(|_, _, mut hub, mut ports| {
            let data: Vec<f32> = (0..4_000_000).map(|i| i as f32 * 0.5 - 7.0).collect();
            let msg = Message::GradState {
                block: 1,
                expert: 2,
                row: PackedRow {
                    width: 4_000_000,
                    data: PackedData::F32(data),
                },
            };
            hub.send(0, &msg).unwrap();
            assert_eq!(ports[0].recv().unwrap(), msg);
            ports[0].send(&msg).unwrap();
            assert_eq!(hub.recv().unwrap(), (0, msg));
            hub.shutdown();
        });
    }

    #[test]
    fn disconnect_is_an_error_not_a_panic() {
        each_backend(|config, _, mut hub, ports| {
            drop(ports);
            assert!(matches!(hub.recv(), Err(TransportError::Disconnected)));
            // A TCP writer learns of the hang-up from a failed write, so
            // the send side may take a few frames to see it.
            let refused = (0..200).find_map(|_| {
                let sent = hub.send(0, &Message::StepEnd).err();
                if sent.is_none() {
                    std::thread::sleep(Duration::from_millis(5));
                }
                sent
            });
            assert!(
                matches!(refused, Some(TransportError::Disconnected)),
                "{}: {refused:?}",
                config.label()
            );
        });
    }

    #[test]
    fn worker_disconnect_surfaces_as_error() {
        // One of several workers dies — its thread exits, dropping its
        // port — while the others live on: the master's next receive is a
        // typed error within the deadline, not a hang, and the survivors'
        // frames still arrive.
        each_backend(|config, _, mut hub, mut ports| {
            let dead = ports.remove(3);
            std::thread::spawn(move || drop(dead)).join().unwrap();
            let next = hub.recv_timeout(Duration::from_secs(3));
            assert!(
                matches!(next, Err(TransportError::Disconnected)),
                "{}: {next:?}",
                config.label()
            );
            ports[0].send(&Message::StepDone).unwrap();
            assert_eq!(hub.recv().unwrap(), (0, Message::StepDone));
        });
    }

    #[test]
    fn master_disconnect_surfaces_as_error() {
        each_backend(|_, _, mut hub, mut ports| {
            hub.shutdown();
            assert!(matches!(ports[0].recv(), Err(TransportError::Disconnected)));
        });
    }

    #[test]
    fn queued_frames_are_flushed_on_shutdown() {
        // Frames accepted by send() reach the worker before the hang-up
        // (TCP joins its writer threads before closing the sockets).
        each_backend(|_, _, mut hub, mut ports| {
            for step in 0..10 {
                hub.send(1, &Message::StepBegin { step }).unwrap();
            }
            hub.shutdown();
            for step in 0..10 {
                assert_eq!(ports[1].recv().unwrap(), Message::StepBegin { step });
            }
            assert!(matches!(ports[1].recv(), Err(TransportError::Disconnected)));
        });
    }

    #[test]
    fn recv_timeout_expires_cleanly() {
        each_backend(|_, _, mut hub, _ports| {
            assert!(matches!(
                hub.recv_timeout(Duration::from_millis(10)),
                Err(TransportError::Timeout)
            ));
        });
    }

    #[test]
    fn frames_are_counted_per_wire_frame() {
        each_backend(|_, _, mut hub, mut ports| {
            assert_eq!(hub.frame_counts(), (0, 0));
            hub.broadcast(&Message::StepEnd).unwrap();
            for port in &mut ports {
                port.recv().unwrap();
                port.send(&Message::StepDone).unwrap();
            }
            for _ in 0..ports.len() {
                hub.recv().unwrap();
            }
            assert_eq!(hub.frame_counts(), (6, 6));
        });
    }

    #[test]
    fn unaccounted_frames_leave_every_total_untouched() {
        // The bootstrap, clock probes and a dropped copy's `Evict`
        // travel like any other frame and decode on the far side, but no
        // accounting layer may see them: not the ledger, not the frame
        // counters, not the wire stats.
        each_backend(|_, ledger, mut hub, mut ports| {
            let frames = [
                Message::Bootstrap(WorkerBootstrap {
                    blocks: 4,
                    experts: 8,
                    optim: AdamWConfig::default(),
                    template: None,
                }),
                Message::Evict {
                    block: 1,
                    expert: 2,
                },
                Message::ClockProbe { t1: 7 },
            ];
            for frame in &frames {
                hub.send(2, frame).unwrap();
                assert_eq!(&ports[2].recv().unwrap(), frame);
            }
            ports[2]
                .send(&Message::ClockReply {
                    t1: 7,
                    t2: 8,
                    t3: 9,
                })
                .unwrap();
            hub.recv().unwrap();
            assert_eq!(hub.frame_counts(), (0, 0));
            assert_eq!(hub.wire_stats(), WireStats::default());
            assert_eq!(ledger.peek().total_bytes, 0);
            // The same link does count an ordinary frame.
            hub.send(2, &Message::StepEnd).unwrap();
            assert_eq!(hub.frame_counts(), (1, 0));
            assert_eq!(ledger.peek().total_bytes, 1);
        });
    }

    #[test]
    fn wire_stats_split_header_from_payload_per_kind() {
        each_backend(|_, _, mut hub, mut ports| {
            let rows = [1.0f32; 6];
            let msg = Message::PackedDispatch(PackedGroup::pack(
                0,
                GroupPass::Forward,
                3,
                std::iter::once((0, &rows[..])),
            ));
            hub.send(1, &msg).unwrap();
            let w = hub.wire_stats();
            assert_eq!(w.dispatch_payload, 24);
            assert_eq!(w.dispatch_header, msg.encode().len() as u64 - 24);
            assert_eq!(w.result_header + w.result_payload, 0);

            ports[1].recv().unwrap();
            ports[1]
                .send(&Message::PackedResult(PackedReply {
                    block: 0,
                    pass: GroupPass::Forward,
                    width: 3,
                    items: 1,
                    rows: 2,
                    data: PackedData::F32(rows.to_vec()),
                }))
                .unwrap();
            hub.recv().unwrap();
            let w = hub.wire_stats();
            assert_eq!(w.result_payload, 24);
            assert!(w.result_header > 0);

            hub.send(
                2,
                &Message::ExpertChunk {
                    block: 0,
                    expert: 0,
                    offset: 0,
                    total: 100,
                    data: vec![7; 100],
                },
            )
            .unwrap();
            hub.send(2, &Message::StepEnd).unwrap();
            let w = hub.wire_stats();
            assert_eq!(w.expert_state_payload, 100);
            assert_eq!(w.expert_state_header, 33);
            assert_eq!(w.control, 1);
            assert_eq!(
                w.total(),
                w.dispatch_header
                    + w.dispatch_payload
                    + w.result_header
                    + w.result_payload
                    + w.expert_state_header
                    + w.expert_state_payload
                    + w.control
            );
        });
    }

    #[test]
    fn process_mode_is_an_error_not_a_panic() {
        let ledger = Arc::new(TrafficLedger::new(Topology::paper_testbed()));
        let built = build_star(
            TransportConfig::tcp_processes(),
            ledger,
            DeviceId(0),
            &[DeviceId(1), DeviceId(2)],
            None,
        );
        assert!(
            matches!(built, Err(TransportError::Handshake(_))),
            "{:?}",
            built.map(|(hub, _)| hub.transport())
        );
    }

    #[test]
    fn env_knob_selects_transport() {
        // Pure constructors only — env vars are process-global, so the
        // parse itself is tested through explicit configs.
        assert_eq!(TransportConfig::default().label(), "channel");
        assert_eq!(TransportConfig::tcp_threads().label(), "tcp-threads");
        assert_eq!(TransportConfig::tcp_processes().label(), "tcp");
        assert!(TransportConfig::tcp_processes().is_process_mode());
        assert!(!TransportConfig::channel().is_process_mode());
    }
}
