//! The worker the master serves on its own thread.
//!
//! In the paper's framework (§IV-A) the master shares a node with its
//! nearest Expert Manager, and the placement LP, pricing that link as
//! nearly free, hands it the hot experts. Over a real link every one of
//! its frames would still pay a writer wake-up, a socket or queue hop and
//! a wake-up on each side, while the master has nothing to compute until
//! the reply is back. [`HostedHub`] serves that worker from inside the
//! master's receive instead: its frames still go through
//! [`MasterHub`](super::MasterHub)'s `send`/`recv` and the codec (so the
//! ledger, frame counts and wire stats see the same bytes), cross one
//! in-process [`link`](super::channel::link), and are handled by the same
//! [`Worker`] a thread or a `vela_worker` process runs.
//!
//! A queued frame is served only when the master would otherwise block
//! in `recv`/`recv_timeout`, so every remote dispatch of a block-pass is
//! already on its way while the hosted worker computes. A hosted worker
//! that stops (`Shutdown`, a bad frame, a request it cannot serve) is a
//! dead worker: its port posts its hang-up, the next receive that reaches
//! it returns [`TransportError::Disconnected`], and so does every send.

use std::sync::mpsc::{channel, Receiver, Sender};
use std::time::Duration;

use vela_cluster::DeviceId;
use vela_model::LocalExpertStore;
use vela_tensor::workspace::{self, Workspace};

use super::channel::{link, Inbound};
use super::{HubBackend, TransportError};
use crate::worker::Worker;

/// A hub whose worker `index` runs on the master's thread, beside a
/// backend that links every other worker.
#[derive(Debug)]
pub(super) struct HostedHub {
    remote: Box<dyn HubBackend>,
    index: usize,
    /// The master's end of the hosted worker's link.
    down: Sender<Vec<u8>>,
    up: Receiver<Inbound>,
    /// `None` once it has stopped.
    worker: Option<Worker>,
    /// Frames sent down and not served yet.
    queued: usize,
    /// Where the shard goes when the worker stops.
    shard_back: Sender<Result<LocalExpertStore, TransportError>>,
    /// The worker's own scratch pool: sharing the master's would crowd it
    /// and send the worker's buffers back through the allocator
    /// (EXPERIMENTS.md measures that as +5 % `ffn-heavy` peak RSS).
    scratch: Workspace,
}

impl HostedHub {
    /// Hosts worker `index` on `device` beside `remote`, which has no link
    /// for it. Returns the hub and where the worker's shard comes back.
    pub(super) fn new(
        remote: Box<dyn HubBackend>,
        index: usize,
        device: DeviceId,
        shard: LocalExpertStore,
    ) -> (Self, Receiver<Result<LocalExpertStore, TransportError>>) {
        let (up_tx, up) = channel();
        let (down, port) = link(up_tx, index, device);
        let (shard_back, shard_rx) = channel();
        let hub = HostedHub {
            remote,
            index,
            down,
            up,
            worker: Some(Worker::new(port, Some(shard))),
            queued: 0,
            shard_back,
            scratch: Workspace::default(),
        };
        (hub, shard_rx)
    }

    /// Serves one frame queued for the hosted worker; `false` if none is.
    fn serve_queued(&mut self) -> bool {
        if self.queued == 0 {
            return false;
        }
        let Some(worker) = self.worker.as_mut() else {
            return false;
        };
        self.queued -= 1;
        if !workspace::scoped(&mut self.scratch, || worker.serve_next()) {
            self.stop();
        }
        true
    }

    /// Ends the hosted worker, if it still runs, and hands its shard back.
    fn stop(&mut self) {
        self.queued = 0;
        if let Some(worker) = self.worker.take() {
            // The receiver is gone only if nobody waits for the shard.
            let _ = self.shard_back.send(worker.finish());
        }
    }

    /// The hosted worker's replies first, then its queued frames, and only
    /// when neither is left, `wait` on the linked workers.
    fn recv_with(
        &mut self,
        wait: impl FnOnce(&mut dyn HubBackend) -> Result<(usize, Vec<u8>), TransportError>,
    ) -> Result<(usize, Vec<u8>), TransportError> {
        loop {
            if let Ok((index, frame)) = self.up.try_recv() {
                return Ok((index, frame?));
            }
            if !self.serve_queued() {
                return wait(self.remote.as_mut());
            }
        }
    }
}

impl HubBackend for HostedHub {
    fn send(&mut self, index: usize, frame: Vec<u8>) -> Result<(), TransportError> {
        if index != self.index {
            return self.remote.send(index, frame);
        }
        self.down
            .send(frame)
            .map_err(|_| TransportError::Disconnected)?;
        self.queued += 1;
        Ok(())
    }

    fn recv(&mut self) -> Result<(usize, Vec<u8>), TransportError> {
        self.recv_with(|remote| remote.recv())
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<(usize, Vec<u8>), TransportError> {
        self.recv_with(|remote| remote.recv_timeout(timeout))
    }

    fn shutdown(&mut self) {
        // What is queued (normally the `Shutdown` broadcast) is served
        // first; a worker still running after it sees the master leave.
        while self.serve_queued() {}
        self.stop();
        self.remote.shutdown();
    }
}

impl Drop for HostedHub {
    fn drop(&mut self) {
        // Dropped without `shutdown`: the master is gone, and the frames
        // still queued go unserved, as they would on a severed link.
        self.stop();
    }
}
