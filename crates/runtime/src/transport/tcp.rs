//! Loopback TCP transport over `std::net`.
//!
//! ## Frame format
//!
//! Every [`Message`](crate::Message) frame is shipped as
//!
//! ```text
//! +----------------+----------------------+
//! | u32 BE length  |  length bytes        |
//! +----------------+----------------------+
//! ```
//!
//! i.e. the encoded message preceded by its byte count in network order.
//! Lengths above [`MAX_FRAME`] are rejected before any allocation.
//!
//! ## Connect handshake
//!
//! The master binds first ([`TcpStarBuilder::bind`]) and accepts; each
//! worker dials in ([`connect_worker`]) with bounded-backoff retry and
//! introduces itself with a 16-byte hello (`"VELW"` + `u32` worker index +
//! `u64` device id). The master validates index and device against its
//! expected roster and acknowledges with `"VELM"`; anything else (bad
//! magic, duplicate index, a stray or self-connected socket) is dropped
//! and the worker retries. Only an acknowledged connection becomes a link.
//! The handshake is hello + ack and nothing else: a traced master measures
//! worker clocks afterwards with `ClockProbe` frames
//! ([`MasterHub::probe_clocks`]), the same way on every transport.
//!
//! ## Shutdown
//!
//! Closing is a socket-level FIN in both directions
//! (`TcpStream::shutdown(Both)`): the peer's next read observes EOF and
//! surfaces [`TransportError::Disconnected`]. The hub joins its reader
//! threads so no thread outlives an explicit shutdown.

use std::io::{ErrorKind, IoSlice, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::mpsc::{channel, sync_channel, Receiver, RecvTimeoutError, Sender, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use vela_cluster::{DeviceId, TrafficLedger};

use super::{HubBackend, MasterHub, PortBackend, TransportError, WorkerPort};
use crate::wire::{ByteReader, ByteWriter, WireError};

/// Upper bound on a single frame; a length above this is treated as
/// corruption, not an allocation request.
pub const MAX_FRAME: usize = 1 << 30;

const HELLO_MAGIC: &[u8; 4] = b"VELW";
const ACK_MAGIC: &[u8; 4] = b"VELM";
const HELLO_LEN: usize = 16;

/// Default budget for a worker to reach the master.
pub const CONNECT_DEADLINE: Duration = Duration::from_secs(10);
/// Default budget for the master to collect all workers.
pub const ACCEPT_DEADLINE: Duration = Duration::from_secs(10);

/// Depth of each per-link writer queue, in frames. Deep enough to absorb
/// a full block-pass of dispatches (one coalesced group, or tens of
/// per-batch frames) without blocking the broker; shallow enough that a
/// stalled worker exerts backpressure instead of buffering a whole run.
pub const WRITER_QUEUE_FRAMES: usize = 64;

fn frame_too_big(len: u64) -> TransportError {
    TransportError::Wire(WireError::BadLength {
        what: "tcp frame",
        declared: len,
        available: MAX_FRAME,
    })
}

/// Writes the length prefix and the body with one `writev`: on a
/// `TCP_NODELAY` socket two `write`s are two segments, and up to two wake-ups
/// of the reader, per frame. What a full socket buffer leaves unwritten
/// follows through `write_all`.
fn write_frame(sock: &mut TcpStream, frame: &[u8]) -> Result<(), TransportError> {
    let prefix = (frame.len() as u32).to_be_bytes();
    let sent = loop {
        match sock.write_vectored(&[IoSlice::new(&prefix), IoSlice::new(frame)]) {
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            sent => break sent?,
        }
    };
    if sent == 0 {
        return Err(std::io::Error::from(ErrorKind::WriteZero).into());
    }
    if let Some(rest) = prefix.get(sent..) {
        sock.write_all(rest)?;
    }
    sock.write_all(&frame[sent.saturating_sub(prefix.len())..])?;
    Ok(())
}

/// Bytes of spare buffer a socket read is offered at least.
const READ_CHUNK: usize = 64 * 1024;

/// Accumulates raw socket bytes and extracts complete frames. A read may
/// end anywhere in a frame: the partial bytes stay buffered here, and the
/// next read resumes exactly where the stream stopped.
#[derive(Debug, Default)]
struct FrameBuf {
    /// `data[start..end]` is what the socket delivered and no frame has
    /// claimed yet; past `end` is initialized scratch that reads land in, so
    /// a read costs no zeroing and no copy out of a staging array.
    data: Vec<u8>,
    start: usize,
    end: usize,
}

impl FrameBuf {
    /// Pops one complete frame if the buffer holds one.
    fn extract(&mut self) -> Result<Option<Vec<u8>>, TransportError> {
        let pending = &self.data[self.start..self.end];
        let Some((prefix, body)) = pending.split_first_chunk::<4>() else {
            return Ok(None);
        };
        let len = u32::from_be_bytes(*prefix) as usize;
        if len > MAX_FRAME {
            return Err(frame_too_big(len as u64));
        }
        let Some(frame) = body.get(..len) else {
            return Ok(None);
        };
        let frame = frame.to_vec();
        self.start += 4 + len;
        Ok(Some(frame))
    }

    /// The scratch past the received bytes, at least [`READ_CHUNK`] long.
    /// Unclaimed bytes move to the front here, once per read, not once per
    /// extracted frame.
    fn spare(&mut self) -> &mut [u8] {
        self.data.copy_within(self.start..self.end, 0);
        self.end -= self.start;
        self.start = 0;
        if self.data.len() < self.end + READ_CHUNK {
            self.data.resize(self.end + READ_CHUNK, 0);
        }
        &mut self.data[self.end..]
    }

    /// Counts the first `n` bytes of [`spare`](Self::spare) as received.
    fn advance(&mut self, n: usize) {
        self.end += n;
    }
}

fn is_wait(e: &std::io::Error) -> bool {
    matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut)
}

/// Worker-side endpoint: one socket plus a reassembly buffer.
#[derive(Debug)]
struct TcpPort {
    sock: TcpStream,
    buf: FrameBuf,
}

impl TcpPort {
    /// Reads some bytes into the buffer; `Ok(())` means progress was made.
    fn fill(&mut self) -> Result<(), std::io::Error> {
        let n = self.sock.read(self.buf.spare())?;
        if n == 0 {
            return Err(ErrorKind::UnexpectedEof.into());
        }
        self.buf.advance(n);
        Ok(())
    }
}

impl PortBackend for TcpPort {
    fn send(&mut self, frame: Vec<u8>) -> Result<(), TransportError> {
        write_frame(&mut self.sock, &frame)
    }

    fn recv(&mut self) -> Result<Vec<u8>, TransportError> {
        loop {
            if let Some(frame) = self.buf.extract()? {
                return Ok(frame);
            }
            self.fill()?;
        }
    }

    fn shutdown(&mut self) {
        let _ = self.sock.shutdown(Shutdown::Both);
    }
}

/// Master-side endpoint: a writer *thread* per worker plus one inbox fed
/// by per-socket reader threads, mirroring the mpsc hub's shared-receiver
/// shape so `recv` stays a single blocking pop regardless of fan-in.
///
/// `send` only enqueues the frame on the link's bounded queue
/// ([`WRITER_QUEUE_FRAMES`]); the writer thread does the actual socket
/// write. That makes the hub full-duplex: the broker can start draining
/// replies from early dispatches while later dispatches are still being
/// written out. A write failure tears the writer down and surfaces as
/// [`TransportError::Disconnected`] on the next `send` to that link.
#[derive(Debug)]
struct TcpHub {
    writers: Vec<LinkWriter>,
    sockets: Vec<TcpStream>,
    inbox: Receiver<(usize, Result<Vec<u8>, TransportError>)>,
    readers: Vec<JoinHandle<()>>,
}

/// One link's outbound half: the bounded queue into its writer thread.
#[derive(Debug)]
struct LinkWriter {
    queue: Option<SyncSender<Vec<u8>>>,
    thread: Option<JoinHandle<()>>,
}

impl LinkWriter {
    /// The slot of a worker the master hosts: every send is refused.
    fn absent() -> LinkWriter {
        LinkWriter {
            queue: None,
            thread: None,
        }
    }

    fn spawn(index: usize, mut sock: TcpStream) -> LinkWriter {
        let (tx, rx) = sync_channel::<Vec<u8>>(WRITER_QUEUE_FRAMES);
        let thread = std::thread::Builder::new()
            .name(format!("tcp-hub-writer-{index}"))
            .spawn(move || {
                // Exiting on error drops `rx`; the hub sees the closed
                // queue on its next send to this link.
                for frame in rx {
                    if let Err(e) = write_frame(&mut sock, &frame) {
                        vela_obs::warn!("writer for worker {index} failed: {e}");
                        return;
                    }
                }
            })
            .expect("failed to spawn hub writer");
        LinkWriter {
            queue: Some(tx),
            thread: Some(thread),
        }
    }

    fn enqueue(&self, frame: Vec<u8>) -> Result<(), TransportError> {
        match &self.queue {
            // A full queue blocks here — bounded backpressure, not
            // unbounded buffering.
            Some(q) => q.send(frame).map_err(|_| TransportError::Disconnected),
            None => Err(TransportError::Disconnected),
        }
    }

    /// Drops the queue and joins the thread, flushing queued frames.
    fn finish(&mut self) {
        drop(self.queue.take());
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

fn reader_loop(
    index: usize,
    mut sock: TcpStream,
    tx: Sender<(usize, Result<Vec<u8>, TransportError>)>,
) {
    loop {
        let mut len_buf = [0u8; 4];
        if let Err(e) = sock.read_exact(&mut len_buf) {
            let _ = tx.send((index, Err(e.into())));
            return;
        }
        let len = u32::from_be_bytes(len_buf) as usize;
        if len > MAX_FRAME {
            let _ = tx.send((index, Err(frame_too_big(len as u64))));
            return;
        }
        let mut frame = vec![0u8; len];
        if let Err(e) = sock.read_exact(&mut frame) {
            let _ = tx.send((index, Err(e.into())));
            return;
        }
        if tx.send((index, Ok(frame))).is_err() {
            return; // hub dropped
        }
    }
}

impl TcpHub {
    fn close_sockets(&mut self) {
        for sock in &self.sockets {
            let _ = sock.shutdown(Shutdown::Both);
        }
    }
}

impl HubBackend for TcpHub {
    fn send(&mut self, index: usize, frame: Vec<u8>) -> Result<(), TransportError> {
        self.writers[index].enqueue(frame)
    }

    fn recv(&mut self) -> Result<(usize, Vec<u8>), TransportError> {
        let (index, frame) = self
            .inbox
            .recv()
            .map_err(|_| TransportError::Disconnected)?;
        Ok((index, frame?))
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<(usize, Vec<u8>), TransportError> {
        let (index, frame) = self.inbox.recv_timeout(timeout).map_err(|e| match e {
            RecvTimeoutError::Timeout => TransportError::Timeout,
            RecvTimeoutError::Disconnected => TransportError::Disconnected,
        })?;
        Ok((index, frame?))
    }

    fn shutdown(&mut self) {
        // Flush and retire the writers first so queued frames (e.g. a
        // Shutdown broadcast) reach the wire before the FIN.
        for writer in &mut self.writers {
            writer.finish();
        }
        self.close_sockets();
        for handle in self.readers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for TcpHub {
    fn drop(&mut self) {
        // Closing the queues lets the writers drain and exit; closing the
        // sockets unblocks any reader still parked in read() (EOF).
        for writer in &mut self.writers {
            writer.finish();
        }
        self.close_sockets();
    }
}

/// Bound-but-not-yet-connected master side of a TCP star. Binding before
/// any worker is spawned guarantees the advertised address is listening,
/// so worker connect retries are a resilience measure, not a required
/// startup dance.
#[derive(Debug)]
pub struct TcpStarBuilder {
    listener: TcpListener,
    addr: SocketAddr,
    ledger: Arc<TrafficLedger>,
    master: DeviceId,
    workers: Vec<DeviceId>,
    /// The worker the master serves itself: it never dials in.
    hosted: Option<usize>,
}

impl TcpStarBuilder {
    /// Binds a loopback listener for a star between `master` and
    /// `workers`.
    ///
    /// # Panics
    /// Panics if `workers` is empty.
    pub fn bind(
        ledger: Arc<TrafficLedger>,
        master: DeviceId,
        workers: &[DeviceId],
    ) -> Result<Self, TransportError> {
        assert!(!workers.is_empty(), "star needs at least one worker");
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let addr = listener.local_addr()?;
        Ok(TcpStarBuilder {
            listener,
            addr,
            ledger,
            master,
            workers: workers.to_vec(),
            hosted: None,
        })
    }

    /// Leaves worker `hosted` out of the star: it is not accepted, and
    /// its slot stays empty for [`MasterHub::host`] to fill. The others
    /// keep their index in the roster.
    pub(crate) fn hosting(mut self, hosted: Option<usize>) -> Self {
        self.hosted = hosted;
        self
    }

    /// The address workers must dial (pass to [`connect_worker`], or to the
    /// `vela_worker` binary as its first argument).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Accepts and validates one connection per linked worker (in any
    /// order), then assembles the hub. Sockets that fail the hello
    /// handshake are dropped and accepting continues until `deadline`
    /// elapses.
    pub fn accept_workers(self, deadline: Duration) -> Result<MasterHub, TransportError> {
        let until = Instant::now() + deadline;
        let n = self.workers.len();
        let linked = n - usize::from(self.hosted.is_some());
        let mut slots: Vec<Option<TcpStream>> = (0..n).map(|_| None).collect();
        let mut connected = 0usize;
        self.listener.set_nonblocking(true)?;
        while connected < linked {
            match self.listener.accept() {
                Ok((sock, _)) => match self.admit(sock) {
                    Ok((index, sock)) => {
                        if slots[index].is_some() {
                            vela_obs::warn!("duplicate connection for worker {index}, dropping");
                            continue;
                        }
                        slots[index] = Some(sock);
                        connected += 1;
                    }
                    Err(why) => {
                        vela_obs::warn!("rejected connection: {why}");
                    }
                },
                Err(e) if is_wait(&e) => {
                    if Instant::now() >= until {
                        return Err(TransportError::Handshake(format!(
                            "only {connected}/{linked} workers connected within {deadline:?}"
                        )));
                    }
                    std::thread::sleep(Duration::from_millis(2));
                }
                Err(e) => return Err(e.into()),
            }
        }

        let (tx, inbox) = channel();
        let mut writers = Vec::with_capacity(n);
        let mut sockets = Vec::with_capacity(n);
        let mut readers = Vec::with_capacity(n);
        for (index, slot) in slots.into_iter().enumerate() {
            let Some(sock) = slot else {
                writers.push(LinkWriter::absent());
                continue;
            };
            let reader = sock.try_clone().map_err(TransportError::Io)?;
            let writer = sock.try_clone().map_err(TransportError::Io)?;
            let tx = tx.clone();
            readers.push(
                std::thread::Builder::new()
                    .name(format!("tcp-hub-reader-{index}"))
                    .spawn(move || reader_loop(index, reader, tx))
                    .expect("failed to spawn hub reader"),
            );
            writers.push(LinkWriter::spawn(index, writer));
            sockets.push(sock);
        }
        Ok(MasterHub::new(
            Box::new(TcpHub {
                writers,
                sockets,
                inbox,
                readers,
            }),
            self.ledger,
            self.master,
            self.workers,
            "tcp",
        ))
    }

    /// Validates one incoming socket's hello; returns its worker index.
    fn admit(&self, sock: TcpStream) -> Result<(usize, TcpStream), String> {
        let mut sock = sock;
        sock.set_nonblocking(false).map_err(|e| e.to_string())?;
        sock.set_read_timeout(Some(Duration::from_secs(2)))
            .map_err(|e| e.to_string())?;
        let mut hello = [0u8; HELLO_LEN];
        sock.read_exact(&mut hello).map_err(|e| e.to_string())?;
        if &hello[..4] != HELLO_MAGIC {
            return Err(format!("bad hello magic {:?}", &hello[..4]));
        }
        let mut r = ByteReader::new(&hello[4..]);
        let index = r.get_u32().map_err(|e| e.to_string())? as usize;
        let device = r.get_u64().map_err(|e| e.to_string())? as usize;
        if index >= self.workers.len() {
            return Err(format!(
                "worker index {index} out of range (expected < {})",
                self.workers.len()
            ));
        }
        if Some(index) == self.hosted {
            return Err(format!("worker {index} is served by the master itself"));
        }
        if self.workers[index] != DeviceId(device) {
            return Err(format!(
                "worker {index} reported device {device} but roster says {:?}",
                self.workers[index]
            ));
        }
        sock.write_all(ACK_MAGIC).map_err(|e| e.to_string())?;
        sock.set_nodelay(true).map_err(|e| e.to_string())?;
        sock.set_read_timeout(None).map_err(|e| e.to_string())?;
        Ok((index, sock))
    }
}

/// Dials the master at `addr` as worker `index` on `device`, retrying
/// with bounded backoff (10 ms doubling to 400 ms) until `deadline`
/// elapses. A connection that closes before the master's ack — a refused
/// dial, a stray peer, or the loopback self-connect artifact — counts as
/// one failed attempt and is retried.
pub fn connect_worker_with_deadline(
    addr: SocketAddr,
    index: usize,
    device: DeviceId,
    deadline: Duration,
) -> Result<WorkerPort, TransportError> {
    let until = Instant::now() + deadline;
    let mut backoff = Duration::from_millis(10);
    let mut attempts = 0u32;
    loop {
        attempts += 1;
        let last_err = match try_connect(addr, index, device) {
            Ok(sock) => {
                if attempts > 1 {
                    vela_obs::info!("worker {index} connected after {attempts} attempts");
                }
                return Ok(WorkerPort::new(
                    Box::new(TcpPort {
                        sock,
                        buf: FrameBuf::default(),
                    }),
                    index,
                    device,
                ));
            }
            Err(e) => e,
        };
        if Instant::now() + backoff >= until {
            return Err(TransportError::Handshake(format!(
                "worker {index} could not reach {addr} after {attempts} attempts: {last_err}"
            )));
        }
        std::thread::sleep(backoff);
        backoff = (backoff * 2).min(Duration::from_millis(400));
    }
}

/// [`connect_worker_with_deadline`] with the default
/// [`CONNECT_DEADLINE`].
pub fn connect_worker(
    addr: SocketAddr,
    index: usize,
    device: DeviceId,
) -> Result<WorkerPort, TransportError> {
    connect_worker_with_deadline(addr, index, device, CONNECT_DEADLINE)
}

fn try_connect(addr: SocketAddr, index: usize, device: DeviceId) -> Result<TcpStream, String> {
    let mut sock =
        TcpStream::connect_timeout(&addr, Duration::from_secs(2)).map_err(|e| e.to_string())?;
    let mut hello = ByteWriter::with_capacity(HELLO_LEN);
    hello.put_slice(HELLO_MAGIC);
    hello.put_u32(index as u32);
    hello.put_u64(device.0 as u64);
    sock.write_all(&hello.into_vec())
        .map_err(|e| e.to_string())?;
    sock.set_read_timeout(Some(Duration::from_secs(2)))
        .map_err(|e| e.to_string())?;
    let mut ack = [0u8; 4];
    sock.read_exact(&mut ack).map_err(|e| e.to_string())?;
    if &ack != ACK_MAGIC {
        return Err(format!("bad ack magic {ack:?}"));
    }
    sock.set_nodelay(true).map_err(|e| e.to_string())?;
    sock.set_read_timeout(None).map_err(|e| e.to_string())?;
    Ok(sock)
}

/// Builds a complete TCP star *within this process*: the hub accepts on a
/// background thread while each worker port dials in. This is the
/// hermetic `tcp-threads` mode — every byte crosses a real loopback
/// socket, but workers stay threads, so tests need no child binaries. No
/// port dials in for worker `hosted` (see [`build_star`](super::build_star)).
///
/// # Panics
/// Panics if `workers` is empty.
pub(super) fn tcp_star(
    ledger: Arc<TrafficLedger>,
    master: DeviceId,
    workers: &[DeviceId],
    hosted: Option<usize>,
) -> Result<(MasterHub, Vec<WorkerPort>), TransportError> {
    let builder = TcpStarBuilder::bind(ledger, master, workers)?.hosting(hosted);
    let addr = builder.addr();
    let accept = std::thread::Builder::new()
        .name("tcp-star-accept".into())
        .spawn(move || builder.accept_workers(ACCEPT_DEADLINE))?;
    let mut ports = Vec::with_capacity(workers.len());
    for (index, &device) in workers.iter().enumerate() {
        if Some(index) != hosted {
            ports.push(connect_worker(addr, index, device)?);
        }
    }
    let hub = accept
        .join()
        .map_err(|_| TransportError::Handshake("the accept thread panicked".into()))??;
    Ok((hub, ports))
}

#[cfg(test)]
mod tests {
    //! What only TCP has, plus direct loopback checks of a three-worker
    //! TCP star. The cases every backend shares run over both `channel`
    //! and `tcp-threads` in the suite in `transport/mod.rs`.

    use super::*;
    use crate::message::{Message, PackedData, PackedRow};
    use crate::transport::{build_star, TransportConfig};
    use vela_cluster::Topology;

    fn setup() -> (Arc<TrafficLedger>, MasterHub, Vec<WorkerPort>) {
        let ledger = Arc::new(TrafficLedger::new(Topology::paper_testbed()));
        let workers: Vec<DeviceId> = (1..4).map(DeviceId).collect();
        let (hub, ports) = tcp_star(ledger.clone(), DeviceId(0), &workers, None).unwrap();
        (ledger, hub, ports)
    }

    #[test]
    fn frames_flow_both_ways_over_loopback() {
        let (_, mut hub, mut ports) = setup();
        hub.send(1, &Message::StepBegin { step: 3 }).unwrap();
        assert_eq!(ports[1].recv().unwrap(), Message::StepBegin { step: 3 });
        ports[2].send(&Message::StepDone).unwrap();
        let (idx, msg) = hub.recv().unwrap();
        assert_eq!((idx, msg), (2, Message::StepDone));
        hub.shutdown();
    }

    #[test]
    fn ledger_accounts_identically_to_channel() {
        let workers: Vec<DeviceId> = (0..6).map(DeviceId).collect();
        let msg = Message::GradState {
            block: 0,
            expert: 0,
            row: PackedRow {
                width: 1000,
                data: PackedData::Virtual,
            },
        };
        let drive = |mut hub: MasterHub, mut ports: Vec<WorkerPort>| {
            hub.send(0, &msg).unwrap();
            hub.send(1, &msg).unwrap();
            hub.send(2, &msg).unwrap();
            ports[2].send(&msg).unwrap();
            hub.recv().unwrap();
            hub.shutdown();
        };
        let chan_ledger = Arc::new(TrafficLedger::new(Topology::paper_testbed()));
        let channel = TransportConfig::channel();
        let (hub, ports) =
            build_star(channel, chan_ledger.clone(), DeviceId(0), &workers, None).unwrap();
        drive(hub, ports);
        let tcp_ledger = Arc::new(TrafficLedger::new(Topology::paper_testbed()));
        let (hub, ports) = tcp_star(tcp_ledger.clone(), DeviceId(0), &workers, None).unwrap();
        drive(hub, ports);
        let (c, t) = (chan_ledger.peek(), tcp_ledger.peek());
        assert_eq!(c.internal_bytes, t.internal_bytes);
        assert_eq!(c.external_total(), t.external_total());
    }

    #[test]
    fn connect_retries_until_master_binds() {
        // Reserve a port, release it, dial it while nothing listens, and
        // only then bind the real listener: the worker's bounded backoff
        // must carry it through the listener-less window.
        let probe = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let addr = probe.local_addr().unwrap();
        drop(probe);
        let dialer = std::thread::spawn(move || {
            connect_worker_with_deadline(addr, 0, DeviceId(1), Duration::from_secs(10))
        });
        std::thread::sleep(Duration::from_millis(150));
        let ledger = Arc::new(TrafficLedger::new(Topology::paper_testbed()));
        let builder = TcpStarBuilder {
            listener: TcpListener::bind(addr).expect("rebind reserved port"),
            addr,
            ledger,
            master: DeviceId(0),
            workers: vec![DeviceId(1)],
            hosted: None,
        };
        let mut hub = builder.accept_workers(Duration::from_secs(10)).unwrap();
        let mut port = dialer.join().unwrap().expect("retry should succeed");
        port.send(&Message::StepDone).unwrap();
        assert_eq!(hub.recv().unwrap(), (0, Message::StepDone));
        hub.shutdown();
    }

    #[test]
    fn retry_budget_is_bounded() {
        let probe = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let addr = probe.local_addr().unwrap();
        drop(probe);
        let started = Instant::now();
        let err = connect_worker_with_deadline(addr, 0, DeviceId(1), Duration::from_millis(200))
            .unwrap_err();
        assert!(matches!(err, TransportError::Handshake(_)));
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "retry must respect its deadline"
        );
    }

    #[test]
    fn stray_connections_are_rejected_without_poisoning_the_star() {
        let ledger = Arc::new(TrafficLedger::new(Topology::paper_testbed()));
        let builder = TcpStarBuilder::bind(ledger, DeviceId(0), &[DeviceId(1)]).unwrap();
        let addr = builder.addr();
        let accept = std::thread::spawn(move || builder.accept_workers(Duration::from_secs(10)));
        // A stray peer with the wrong magic is dropped...
        let mut stray = TcpStream::connect(addr).unwrap();
        stray.write_all(b"GET / HTTP/1.1\r\n\r\n").unwrap();
        drop(stray);
        // ...while the legitimate worker still gets through.
        let mut port = connect_worker(addr, 0, DeviceId(1)).unwrap();
        let mut hub = accept.join().unwrap().unwrap();
        port.send(&Message::StepDone).unwrap();
        assert_eq!(hub.recv().unwrap(), (0, Message::StepDone));
        hub.shutdown();
    }

    #[test]
    fn writer_queue_decouples_send_from_drain() {
        // The hub's send only enqueues; a port that reads nothing for a
        // while must not stall the master (up to the queue bound).
        let ledger = Arc::new(TrafficLedger::new(Topology::paper_testbed()));
        let (mut hub, mut ports) = tcp_star(ledger, DeviceId(0), &[DeviceId(1)], None).unwrap();
        for step in 0..40 {
            hub.send(0, &Message::StepBegin { step }).unwrap();
        }
        for step in 0..40 {
            assert_eq!(ports[0].recv().unwrap(), Message::StepBegin { step });
        }
        hub.shutdown();
    }

    #[test]
    fn frames_reassemble_from_reads_split_anywhere() {
        let frames: [&[u8]; 3] = [b"first", b"", b"third frame"];
        let stream: Vec<u8> = frames
            .iter()
            .flat_map(|f| [&(f.len() as u32).to_be_bytes()[..], f].concat())
            .collect();
        for read_len in 1..=stream.len() {
            let mut buf = FrameBuf::default();
            let mut got = Vec::new();
            for read in stream.chunks(read_len) {
                buf.spare()[..read.len()].copy_from_slice(read);
                buf.advance(read.len());
                while let Some(frame) = buf.extract().unwrap() {
                    got.push(frame);
                }
            }
            assert_eq!(got, frames, "reads of {read_len} bytes");
        }
    }

    #[test]
    fn oversized_frame_header_is_rejected() {
        let mut buf = FrameBuf::default();
        buf.spare()[..4].copy_from_slice(&u32::MAX.to_be_bytes());
        buf.advance(4);
        assert!(matches!(
            buf.extract(),
            Err(TransportError::Wire(WireError::BadLength { .. }))
        ));
    }
}
