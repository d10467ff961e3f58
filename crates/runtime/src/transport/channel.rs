//! The in-process `std::sync::mpsc` star — the original transport,
//! re-expressed as a [`HubBackend`]/[`PortBackend`] pair.
//!
//! Frames never leave the process: the "wire" is the encoded `Vec<u8>`
//! itself, moved through a channel without ever being copied. A dropped
//! port posts its own hang-up into the shared inbox, as the TCP hub's
//! reader does on EOF, so one dead worker thread among several surfaces as
//! [`TransportError::Disconnected`] rather than a hang.
//!
//! The full-duplex contract the TCP hub earns with per-link writer
//! threads holds here for free: an mpsc `send` never blocks on the
//! receiver, so the master can always keep dispatching while replies
//! queue in its inbox. No extra threads are needed.
//!
//! One such link, `link`, is also how the master reaches the worker it
//! serves on its own thread (`transport::hosted`), on every transport.

use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::Duration;

use vela_cluster::{DeviceId, TrafficLedger};

use super::{HubBackend, MasterHub, PortBackend, TransportError, WorkerPort};

/// What an inbox carries: a worker's frame, or its hang-up.
pub(super) type Inbound = (usize, Result<Vec<u8>, TransportError>);

/// Master side: one sender per linked worker, one shared inbox.
#[derive(Debug)]
struct ChannelHub {
    /// Indexed by worker; `None` for the worker the master hosts. Emptied
    /// by `shutdown`, which is what closes the downlinks.
    to_workers: Vec<Option<Sender<Vec<u8>>>>,
    inbox: Receiver<Inbound>,
}

/// Worker side: a receiver for the downlink, the shared inbox sender for
/// the uplink (tagged with this worker's index).
#[derive(Debug)]
struct ChannelPort {
    rx: Receiver<Vec<u8>>,
    up: Sender<Inbound>,
    index: usize,
}

impl HubBackend for ChannelHub {
    fn send(&mut self, index: usize, frame: Vec<u8>) -> Result<(), TransportError> {
        match self.to_workers.get(index).and_then(Option::as_ref) {
            Some(link) => link.send(frame).map_err(|_| TransportError::Disconnected),
            None => Err(TransportError::Disconnected),
        }
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
        // Queued frames stay readable; the ports see the hang-up after them.
        self.to_workers.clear();
    }
}

impl PortBackend for ChannelPort {
    fn send(&mut self, frame: Vec<u8>) -> Result<(), TransportError> {
        self.up
            .send((self.index, Ok(frame)))
            .map_err(|_| TransportError::Disconnected)
    }

    fn recv(&mut self) -> Result<Vec<u8>, TransportError> {
        self.rx.recv().map_err(|_| TransportError::Disconnected)
    }

    fn shutdown(&mut self) {}
}

impl Drop for ChannelPort {
    fn drop(&mut self) {
        // The inbox outlives any one port while others hold a sender, so
        // the hang-up is posted, not inferred from the channel closing.
        let _ = self
            .up
            .send((self.index, Err(TransportError::Disconnected)));
    }
}

/// One in-process link: the master's sender into worker `index`'s
/// downlink, and that worker's port, whose uplink (its hang-up included,
/// posted when the port drops) goes to `up`.
pub(super) fn link(
    up: Sender<Inbound>,
    index: usize,
    device: DeviceId,
) -> (Sender<Vec<u8>>, WorkerPort) {
    let (down_tx, down_rx) = channel();
    let port = ChannelPort {
        rx: down_rx,
        up,
        index,
    };
    (down_tx, WorkerPort::new(Box::new(port), index, device))
}

/// Builds the mpsc star between `master` and `workers`, accounting all
/// traffic in `ledger`, with no link for worker `hosted` (see
/// [`build_star`](super::build_star)).
///
/// # Panics
/// Panics if `workers` is empty.
pub(super) fn channel_star(
    ledger: Arc<TrafficLedger>,
    master: DeviceId,
    workers: &[DeviceId],
    hosted: Option<usize>,
) -> (MasterHub, Vec<WorkerPort>) {
    assert!(!workers.is_empty(), "star needs at least one worker");
    let (up_tx, up_rx) = channel();
    let mut to_workers = Vec::with_capacity(workers.len());
    let mut ports = Vec::with_capacity(workers.len());
    for (index, &dev) in workers.iter().enumerate() {
        if Some(index) == hosted {
            to_workers.push(None);
            continue;
        }
        let (down, port) = link(up_tx.clone(), index, dev);
        to_workers.push(Some(down));
        ports.push(port);
    }
    let hub = MasterHub::new(
        Box::new(ChannelHub {
            to_workers,
            inbox: up_rx,
        }),
        ledger,
        master,
        workers.to_vec(),
        "channel",
    );
    (hub, ports)
}
