//! The workers the master serves on its own thread.
//!
//! In the paper's framework (§IV-A) the master shares a node with its
//! nearest Expert Manager, and the placement LP, pricing that link as
//! nearly free, hands it the hot experts. Over a real link every one of
//! its frames would still pay a writer wake-up, a socket or queue hop and
//! a wake-up on each side, while the master has nothing to compute until
//! the reply is back. The same holds for every worker of a session that
//! computes nothing (echo workers). [`HostedHub`] serves a set of workers
//! from inside the master's receive instead: their frames still go through
//! [`MasterHub`](super::MasterHub)'s `send`/`recv` and the codec (so the
//! ledger, frame counts and wire stats see the same bytes), each crosses
//! its worker's own in-process [`link`](super::channel::link), and each is
//! handled by the same [`Worker`] a thread or a `vela_worker` process runs.
//!
//! One FIFO holds the frames queued across the hosted workers. Its oldest
//! frame is served only when the master would otherwise block in
//! `recv`/`recv_timeout`, so every remote dispatch of a block-pass is
//! already on its way while a hosted worker computes, and a reply is
//! returned as soon as it is produced. With no worker linked there is
//! nothing to wait for: a receive with no reply and no frame queued is
//! [`TransportError::Disconnected`] at once. A hosted worker that stops
//! (`Shutdown`, a bad frame, a request it cannot serve) is a dead worker:
//! its port posts its hang-up, the next receive that reaches it returns
//! `Disconnected`, and so does every send to it; the others keep serving.

use std::collections::VecDeque;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::time::Duration;

use vela_cluster::DeviceId;
use vela_model::LocalExpertStore;
use vela_tensor::workspace::{self, Workspace};

use super::channel::{link, Inbound};
use super::{HubBackend, TransportError};
use crate::worker::Worker;

/// Where a hosted worker's shard, or why it never booted, goes when it
/// stops.
pub(crate) type ShardBack = Receiver<Result<LocalExpertStore, TransportError>>;

/// A hub whose hosted workers run on the master's thread, beside a
/// backend that links every other worker.
#[derive(Debug)]
pub(super) struct HostedHub {
    /// The linked workers' backend; `None` when every worker is hosted.
    remote: Option<Box<dyn HubBackend>>,
    /// Indexed by worker; `Some` for a hosted one.
    hosted: Vec<Option<Hosted>>,
    /// Every hosted worker's uplink: its replies and its hang-up.
    up: Receiver<Inbound>,
    /// The worker of each frame sent down and not served yet, oldest
    /// first. Only live workers appear.
    queue: VecDeque<usize>,
}

/// One hosted worker.
#[derive(Debug)]
struct Hosted {
    /// The master's end of the worker's link.
    down: Sender<Vec<u8>>,
    /// `None` once it has stopped.
    worker: Option<Worker>,
    /// Where the shard goes when the worker stops.
    shard_back: Sender<Result<LocalExpertStore, TransportError>>,
    /// The worker's own scratch pool: sharing the master's would crowd it
    /// and send the worker's buffers back through the allocator
    /// (EXPERIMENTS.md measures that as +5 % `ffn-heavy` peak RSS).
    scratch: Workspace,
}

impl Hosted {
    /// Ends the worker, if it still runs, and hands its shard back.
    fn stop(&mut self) {
        if let Some(worker) = self.worker.take() {
            // The receiver is gone only if nobody waits for the shard.
            let _ = self.shard_back.send(worker.finish());
        }
    }
}

impl HostedHub {
    /// Hosts each `(index, shard)` of `hosted` on its device in `workers`,
    /// beside `remote`, which has no link for any of them. Returns the hub
    /// and, in `hosted`'s order, where each worker's shard comes back.
    pub(super) fn new(
        remote: Box<dyn HubBackend>,
        workers: &[DeviceId],
        hosted: Vec<(usize, LocalExpertStore)>,
    ) -> (Self, Vec<ShardBack>) {
        let (up_tx, up) = channel();
        let mut slots: Vec<Option<Hosted>> = workers.iter().map(|_| None).collect();
        let mut shards_back = Vec::with_capacity(hosted.len());
        for (index, shard) in hosted {
            let (down, port) = link(up_tx.clone(), index, workers[index]);
            let (shard_back, shard_rx) = channel();
            slots[index] = Some(Hosted {
                down,
                worker: Some(Worker::new(port, Some(shard))),
                shard_back,
                scratch: Workspace::default(),
            });
            shards_back.push(shard_rx);
        }
        let linked = slots.iter().any(Option::is_none);
        let hub = HostedHub {
            remote: linked.then_some(remote),
            hosted: slots,
            up,
            queue: VecDeque::new(),
        };
        (hub, shards_back)
    }

    /// Serves the oldest queued frame; `false` if none is.
    fn serve_queued(&mut self) -> bool {
        let Some(index) = self.queue.pop_front() else {
            return false;
        };
        if let Some(Hosted {
            worker: Some(worker),
            scratch,
            ..
        }) = self.hosted[index].as_mut()
        {
            if !workspace::scoped(scratch, || worker.serve_next()) {
                self.stop(index);
            }
        }
        true
    }

    /// Ends hosted worker `index` and drops its queued frames.
    fn stop(&mut self, index: usize) {
        self.queue.retain(|&queued| queued != index);
        if let Some(hosted) = self.hosted[index].as_mut() {
            hosted.stop();
        }
    }

    /// Ends every hosted worker.
    fn stop_all(&mut self) {
        self.queue.clear();
        self.hosted.iter_mut().flatten().for_each(Hosted::stop);
    }

    /// The hosted workers' replies first, then their queued frames, and
    /// only when neither is left, `wait` on the linked workers, if any.
    fn recv_with(
        &mut self,
        wait: impl FnOnce(&mut dyn HubBackend) -> Result<(usize, Vec<u8>), TransportError>,
    ) -> Result<(usize, Vec<u8>), TransportError> {
        loop {
            if let Ok((index, frame)) = self.up.try_recv() {
                return Ok((index, frame?));
            }
            if !self.serve_queued() {
                return match self.remote.as_deref_mut() {
                    Some(remote) => wait(remote),
                    None => Err(TransportError::Disconnected),
                };
            }
        }
    }
}

impl HubBackend for HostedHub {
    fn send(&mut self, index: usize, frame: Vec<u8>) -> Result<(), TransportError> {
        let Some(hosted) = self.hosted.get(index).and_then(Option::as_ref) else {
            return match self.remote.as_deref_mut() {
                Some(remote) => remote.send(index, frame),
                None => Err(TransportError::Disconnected),
            };
        };
        hosted
            .down
            .send(frame)
            .map_err(|_| TransportError::Disconnected)?;
        self.queue.push_back(index);
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
        self.stop_all();
        if let Some(remote) = self.remote.as_deref_mut() {
            remote.shutdown();
        }
    }
}

impl Drop for HostedHub {
    fn drop(&mut self) {
        // Dropped without `shutdown`: the master is gone, and the frames
        // still queued go unserved, as they would on a severed link.
        self.stop_all();
    }
}
