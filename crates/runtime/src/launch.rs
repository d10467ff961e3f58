//! Launch plumbing: bringing up the star and its workers over any transport
//! ([`launch_star`]), and what process mode needs on top — spawning
//! `vela_worker` OS processes and wiring them into a TCP star.
//!
//! Thread mode and process mode share every protocol byte, the first one
//! included: [`launch_star`] sends each worker the same
//! [`Message::Bootstrap`] on every transport. The only extra machinery
//! process mode adds is locating the worker binary and handing each child
//! its connect coordinates via environment variables; a thread worker is
//! also handed its shard by value. Worker processes are always reaped —
//! teardown waits with a deadline and kills stragglers, so a crashed
//! master never leaks children past [`WorkerHandle::finish`].

use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use vela_cluster::{DeviceId, TrafficLedger};
use vela_model::LocalExpertStore;

use crate::message::Message;
use crate::transport::tcp::ACCEPT_DEADLINE;
use crate::transport::{build_star, MasterHub, TcpStarBuilder, TransportConfig, TransportError};
use crate::worker::{ExpertManager, WorkerBootstrap};

/// Environment variables a `vela_worker` process reads at startup.
pub mod env_keys {
    /// `host:port` of the master's listener.
    pub const CONNECT: &str = "VELA_WORKER_CONNECT";
    /// This worker's index in the master's worker list.
    pub const INDEX: &str = "VELA_WORKER_INDEX";
    /// Numeric device id this worker represents.
    pub const DEVICE: &str = "VELA_WORKER_DEVICE";
    /// Overrides the worker binary path used by the spawner.
    pub const BIN: &str = "VELA_WORKER_BIN";
}

/// A launched worker: a thread in this process or a child OS process.
#[derive(Debug)]
pub enum WorkerHandle {
    /// In-process Expert Manager thread.
    Thread(ExpertManager),
    /// `vela_worker` child process.
    Process(Child),
}

impl WorkerHandle {
    /// Finishes the worker: joins a thread (returning its shard, or `None`
    /// if it never booted) or reaps a process (returning `None` — process
    /// shards are fetched back over the wire before shutdown). A process
    /// that ignores the shutdown is killed after a 10 s grace period; none
    /// are ever leaked.
    pub fn finish(self) -> Option<LocalExpertStore> {
        match self {
            WorkerHandle::Thread(manager) => manager
                .join()
                .map_err(|e| vela_obs::error!("expert manager never booted: {e}"))
                .ok(),
            WorkerHandle::Process(mut child) => {
                let deadline = Instant::now() + Duration::from_secs(10);
                loop {
                    match child.try_wait() {
                        Ok(Some(status)) => {
                            if !status.success() {
                                vela_obs::warn!("vela_worker exited with {status}");
                            }
                            return None;
                        }
                        Ok(None) if Instant::now() < deadline => {
                            std::thread::sleep(Duration::from_millis(20));
                        }
                        Ok(None) => {
                            vela_obs::error!("vela_worker ignored shutdown; killing it");
                            kill(&mut child);
                            return None;
                        }
                        Err(e) => {
                            vela_obs::error!("waiting on vela_worker failed: {e}; killing it");
                            kill(&mut child);
                            return None;
                        }
                    }
                }
            }
        }
    }
}

/// Locates the `vela_worker` binary: `VELA_WORKER_BIN` if set, otherwise
/// next to the current executable (hopping out of `deps/` or `examples/`
/// subdirectories cargo uses for tests and examples).
pub fn worker_binary() -> Result<PathBuf, TransportError> {
    if let Ok(path) = std::env::var(env_keys::BIN) {
        let path = PathBuf::from(path);
        if path.is_file() {
            return Ok(path);
        }
        return Err(TransportError::Handshake(format!(
            "{}={} does not exist",
            env_keys::BIN,
            path.display()
        )));
    }
    let exe = std::env::current_exe().map_err(TransportError::Io)?;
    let mut dir = exe.parent().map(PathBuf::from).unwrap_or_default();
    // target/{profile}/deps/test-… and target/{profile}/examples/… both
    // live one level below the directory that holds the worker binary.
    if matches!(
        dir.file_name().and_then(|n| n.to_str()),
        Some("deps") | Some("examples")
    ) {
        dir.pop();
    }
    let candidate = dir.join("vela_worker");
    if candidate.is_file() {
        return Ok(candidate);
    }
    Err(TransportError::Handshake(format!(
        "vela_worker binary not found at {} — build it with `cargo build --release -p \
         vela-runtime` or set {}",
        candidate.display(),
        env_keys::BIN
    )))
}

/// Spawns one `vela_worker` process per device, pointed at `addr`.
///
/// Children inherit this process's environment (so `VELA_THREADS`,
/// `VELA_LOG` etc. apply), with `VELA_TRACE_OUT` suffixed per worker so
/// tracing children never clobber the master's trace file.
pub fn spawn_worker_processes(
    addr: std::net::SocketAddr,
    workers: &[DeviceId],
) -> Result<Vec<Child>, TransportError> {
    let bin = worker_binary()?;
    let mut children = Vec::with_capacity(workers.len());
    for (index, &device) in workers.iter().enumerate() {
        let mut cmd = Command::new(&bin);
        cmd.env(env_keys::CONNECT, addr.to_string())
            .env(env_keys::INDEX, index.to_string())
            .env(env_keys::DEVICE, device.0.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::inherit());
        match std::env::var("VELA_TRACE_OUT") {
            Ok(out) => {
                cmd.env("VELA_TRACE_OUT", format!("{out}.worker{index}"));
            }
            // Tracing without an explicit output file would have every
            // process write the same default path; disable it in children.
            Err(_) => {
                cmd.env_remove("VELA_TRACE");
            }
        }
        let child = cmd.spawn().map_err(|e| {
            TransportError::Handshake(format!("spawning {} failed: {e}", bin.display()))
        })?;
        children.push(child);
    }
    Ok(children)
}

/// Builds a complete process-mode star: bind, spawn one `vela_worker` per
/// device and accept them all. Children are killed if the star cannot be
/// assembled.
pub fn launch_process_star(
    ledger: Arc<TrafficLedger>,
    master: DeviceId,
    workers: &[DeviceId],
) -> Result<(MasterHub, Vec<Child>), TransportError> {
    let builder = TcpStarBuilder::bind(ledger, master, workers)?;
    let mut children = spawn_worker_processes(builder.addr(), workers)?;
    match builder.accept_workers(ACCEPT_DEADLINE) {
        Ok(hub) => Ok((hub, children)),
        Err(e) => {
            children.iter_mut().for_each(kill);
            Err(e)
        }
    }
}

/// Kills a child and reaps it.
fn kill(child: &mut Child) {
    let _ = child.kill();
    let _ = child.wait();
}

/// Brings up the star between `master` and `workers` over `transport`,
/// with one Expert Manager behind every port, and sends each the
/// `bootstrap` frame — the bring-up of every [`Session`](crate::Session).
/// Thread-backed transports call `shards` for one store per worker and
/// hand each worker its shard by value. Process mode never calls it: its
/// `vela_worker` children start with empty shards, and the caller seeds
/// whatever they should hold over the wire.
pub(crate) fn launch_star(
    transport: TransportConfig,
    ledger: Arc<TrafficLedger>,
    master: DeviceId,
    workers: &[DeviceId],
    bootstrap: WorkerBootstrap,
    shards: impl FnOnce() -> Vec<LocalExpertStore>,
) -> Result<(MasterHub, Vec<WorkerHandle>), TransportError> {
    let (mut hub, handles) = if transport.is_process_mode() {
        let (hub, children) = launch_process_star(ledger, master, workers)?;
        let handles = children.into_iter().map(WorkerHandle::Process).collect();
        (hub, handles)
    } else {
        let (hub, ports) = build_star(transport, ledger, master, workers)?;
        let threads = ports.into_iter().zip(shards());
        let handles = threads
            .map(|(port, shard)| WorkerHandle::Thread(ExpertManager::spawn(port, shard)))
            .collect();
        (hub, handles)
    };
    // A thread that never boots ends when the hub drops; a process is
    // killed, like one the star could not seat.
    if let Err(e) = hub.broadcast(&Message::Bootstrap(bootstrap)) {
        for handle in handles {
            if let WorkerHandle::Process(mut child) = handle {
                kill(&mut child);
            }
        }
        return Err(e);
    }
    Ok((hub, handles))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn missing_worker_binary_is_a_clear_error() {
        // Tests run from target/{profile}/deps; unless a prior build left
        // a vela_worker binary around, the locator must explain itself
        // rather than panic. Either outcome is acceptable here — the point
        // is that it never aborts.
        match worker_binary() {
            Ok(path) => assert!(path.is_file()),
            Err(TransportError::Handshake(msg)) => {
                assert!(msg.contains("vela_worker"), "unhelpful error: {msg}")
            }
            Err(other) => panic!("unexpected error kind: {other}"),
        }
    }
}
