//! Launch plumbing: bringing up the star and its workers over any transport
//! (`launch_star`), and what process mode needs on top — spawning
//! `vela_worker` OS processes and wiring them into a TCP star.
//!
//! The master serves some workers on its own thread, by one rule with no
//! setting (`hosted_workers`). On `channel`, a session of echo workers
//! (no expert template: nothing to compute) hosts them all, so it starts
//! no thread and a frame costs a function call. Every other session hosts
//! one: the worker on the master's device, else the one with the highest
//! bandwidth to it (`hosted_worker`), chosen from the topology. Its others
//! run as threads (`channel`, `tcp-threads`) or as `vela_worker` children
//! (`tcp`), so process mode spawns one process fewer than there are
//! workers, and a one-worker star spawns none. Real-tensor workers have
//! compute to overlap with the master's, and `tcp-threads` and `tcp` exist
//! to put frames through sockets.
//!
//! Every mode shares every protocol byte, the first one included:
//! `launch_star` sends each worker the same [`Message::Bootstrap`] on
//! every transport, the hosted one too. The only extra machinery process
//! mode adds is locating the worker binary and handing each child its
//! coordinates (master address, worker index, device) as arguments; a
//! thread worker, and the hosted worker on every transport, is also handed
//! its shard by value, while a child starts empty. Worker processes are
//! always reaped — teardown waits with a deadline and kills stragglers, so
//! a crashed master never leaks children past [`WorkerHandle::finish`].

use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use vela_cluster::{DeviceId, Topology, TrafficLedger};
use vela_model::LocalExpertStore;

use crate::message::Message;
use crate::transport::tcp::ACCEPT_DEADLINE;
use crate::transport::{
    build_star, MasterHub, ShardBack, TcpStarBuilder, TransportConfig, TransportError,
};
use crate::worker::{ExpertManager, WorkerBootstrap};

/// A launched worker: a thread in this process, a child OS process, or
/// a worker the master's hub serves on the master's thread.
#[derive(Debug)]
pub enum WorkerHandle {
    /// In-process Expert Manager thread.
    Thread(ExpertManager),
    /// `vela_worker` child process.
    Process(Child),
    /// Served by the master's hub, which sends its shard (or why it never
    /// booted) here when the worker stops, at the latest when the hub
    /// shuts down.
    Hosted(ShardBack),
}

impl WorkerHandle {
    /// Finishes the worker: joins a thread or takes a hosted worker's
    /// result (returning its shard, or `None` if it never booted), or
    /// reaps a process (returning `None` — a process's copies are moved to
    /// the hosted worker before shutdown). A process that ignores the shutdown
    /// is killed after a 10 s grace period; none are ever leaked. Shut the
    /// hub down first: a hosted worker still running has no shard to give.
    pub fn finish(self) -> Option<LocalExpertStore> {
        match self {
            WorkerHandle::Thread(manager) => manager
                .join()
                .map_err(|e| vela_obs::error!("expert manager never booted: {e}"))
                .ok(),
            WorkerHandle::Hosted(shard) => shard
                .try_recv()
                .unwrap_or(Err(TransportError::Disconnected))
                .map_err(|e| vela_obs::error!("hosted expert manager never booted: {e}"))
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
    if let Ok(path) = std::env::var("VELA_WORKER_BIN") {
        let path = PathBuf::from(path);
        if path.is_file() {
            return Ok(path);
        }
        return Err(TransportError::Handshake(format!(
            "VELA_WORKER_BIN={} does not exist",
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
         vela-runtime` or set VELA_WORKER_BIN",
        candidate.display()
    )))
}

/// Spawns one `vela_worker <addr> <index> <device>` process per
/// `(index, device)` link; no links, no binary lookup.
///
/// Children inherit this process's environment (so `VELA_THREADS`,
/// `VELA_LOG` etc. apply), with `VELA_TRACE_OUT` suffixed by the worker's
/// index so tracing children never clobber the master's trace file.
fn spawn_worker_processes(
    addr: std::net::SocketAddr,
    links: &[(usize, DeviceId)],
) -> Result<Vec<Child>, TransportError> {
    let mut children = Vec::with_capacity(links.len());
    if links.is_empty() {
        return Ok(children);
    }
    let bin = worker_binary()?;
    for &(index, device) in links {
        let mut cmd = Command::new(&bin);
        cmd.args([addr.to_string(), index.to_string(), device.0.to_string()])
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

/// `(index, device)` of every worker not in `hosted`: the ones with a link.
fn linked(workers: &[DeviceId], hosted: &[usize]) -> Vec<(usize, DeviceId)> {
    workers
        .iter()
        .copied()
        .enumerate()
        .filter(|(index, _)| !hosted.contains(index))
        .collect()
}

/// Builds a process-mode star around the workers in `hosted`, which the
/// master serves itself: bind, spawn one `vela_worker` per other worker
/// and accept them all. Children are killed if the star cannot be
/// assembled.
fn launch_process_star(
    ledger: Arc<TrafficLedger>,
    master: DeviceId,
    workers: &[DeviceId],
    hosted: &[usize],
) -> Result<(MasterHub, Vec<Child>), TransportError> {
    let builder = TcpStarBuilder::bind(ledger, master, workers)?.hosting(hosted);
    let mut children = spawn_worker_processes(builder.addr(), &linked(workers, hosted))?;
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

/// The one worker the master serves on its own thread when it does not
/// serve them all (see [`hosted_workers`]): the one on the master's device
/// if there is one, else the one with the highest bandwidth to it, the
/// lowest index on ties.
pub(crate) fn hosted_worker(topology: &Topology, master: DeviceId, workers: &[DeviceId]) -> usize {
    if let Some(index) = workers.iter().position(|&device| device == master) {
        return index;
    }
    let bandwidth = |index: usize| topology.bandwidth(master, workers[index]);
    (1..workers.len()).fold(0, |best, index| {
        if bandwidth(index) > bandwidth(best) {
            index
        } else {
            best
        }
    })
}

/// The workers, in ascending order, that the master serves on its own
/// thread: all of them on `channel` when `bootstrap` carries no expert
/// template (echo workers: nothing to compute, so a thread would add only
/// its wake-ups), else the one [`hosted_worker`].
fn hosted_workers(
    transport: TransportConfig,
    topology: &Topology,
    master: DeviceId,
    workers: &[DeviceId],
    bootstrap: &WorkerBootstrap,
) -> Vec<usize> {
    if transport == TransportConfig::channel() && bootstrap.template.is_none() {
        (0..workers.len()).collect()
    } else {
        vec![hosted_worker(topology, master, workers)]
    }
}

/// Brings up the star between `master` and `workers` over `transport`,
/// with one Expert Manager per worker, and sends each the `bootstrap`
/// frame — the bring-up of every [`Session`](crate::Session). The
/// [`hosted_workers`] are served on this thread by the returned hub; the
/// others run behind ports. `shards` gives one store per worker: hosted
/// workers and thread workers take theirs by value, while `vela_worker`
/// children start empty and their stores are dropped, so whatever a
/// process should hold the mover carries over the wire. The handles come
/// back in worker order.
pub(crate) fn launch_star(
    transport: TransportConfig,
    ledger: Arc<TrafficLedger>,
    master: DeviceId,
    workers: &[DeviceId],
    bootstrap: WorkerBootstrap,
    shards: impl FnOnce() -> Vec<LocalExpertStore>,
) -> Result<(MasterHub, Vec<WorkerHandle>), TransportError> {
    let hosted = hosted_workers(transport, ledger.topology(), master, workers, &bootstrap);
    let (hosted_shards, linked_shards): (Vec<_>, Vec<_>) = shards()
        .into_iter()
        .enumerate()
        .partition(|(index, _)| hosted.contains(index));
    let (hub, mut handles) = if transport.is_process_mode() {
        let (hub, children) = launch_process_star(ledger, master, workers, &hosted)?;
        let handles: Vec<WorkerHandle> = children.into_iter().map(WorkerHandle::Process).collect();
        (hub, handles)
    } else {
        let (hub, ports) = build_star(transport, ledger, master, workers, &hosted)?;
        let threads = ports.into_iter().zip(linked_shards);
        let handles = threads
            .map(|(port, (_, shard))| WorkerHandle::Thread(ExpertManager::spawn(port, shard)))
            .collect();
        (hub, handles)
    };
    let (mut hub, shards_back) = hub.host(hosted_shards);
    // Ascending, so each lands at its index among the linked handles.
    for (&index, shard_back) in hosted.iter().zip(shards_back) {
        handles.insert(index, WorkerHandle::Hosted(shard_back));
    }
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
    use crate::worker::ExpertTemplate;
    use vela_nn::optim::AdamWConfig;

    /// Launches a star of echo workers (empty `(2, 4)` shards, no
    /// template) around a master on device 0 of the paper testbed.
    fn echo_star(
        transport: TransportConfig,
        workers: &[DeviceId],
    ) -> (MasterHub, Vec<WorkerHandle>) {
        star(transport, workers, None)
    }

    /// [`echo_star`] with `template` in the bootstrap.
    fn star(
        transport: TransportConfig,
        workers: &[DeviceId],
        template: Option<ExpertTemplate>,
    ) -> (MasterHub, Vec<WorkerHandle>) {
        let ledger = Arc::new(TrafficLedger::new(Topology::paper_testbed()));
        let bootstrap = WorkerBootstrap {
            blocks: 2,
            experts: 4,
            optim: AdamWConfig::default(),
            template,
        };
        let shards = || {
            workers
                .iter()
                .map(|_| LocalExpertStore::empty(2, 4))
                .collect()
        };
        launch_star(transport, ledger, DeviceId(0), workers, bootstrap, shards)
            .unwrap_or_else(|e| panic!("{}: {e}", transport.label()))
    }

    fn kind(handle: &WorkerHandle) -> &'static str {
        match handle {
            WorkerHandle::Thread(_) => "thread",
            WorkerHandle::Process(_) => "process",
            WorkerHandle::Hosted(_) => "hosted",
        }
    }

    /// Steps every worker once, then shuts the star down in order.
    fn step_and_close(mut hub: MasterHub, handles: Vec<WorkerHandle>) {
        hub.broadcast(&Message::StepEnd).unwrap();
        let mut done: Vec<usize> = (0..handles.len())
            .map(|_| match hub.recv().unwrap() {
                (w, Message::StepDone) => w,
                other => panic!("expected StepDone, got {other:?}"),
            })
            .collect();
        done.sort_unstable();
        assert_eq!(done, (0..handles.len()).collect::<Vec<_>>());
        hub.broadcast(&Message::Shutdown).unwrap();
        hub.shutdown();
        for handle in handles {
            handle.finish();
        }
    }

    #[test]
    fn the_master_hosts_the_worker_on_its_device_else_its_widest_link() {
        // Paper testbed: devices 0 and 1 share node 0, 2 and 3 node 1, 4
        // and 5 node 2, and every cross-node link is the same.
        let topology = Topology::paper_testbed();
        let choose = |workers: &[usize]| {
            let workers: Vec<DeviceId> = workers.iter().copied().map(DeviceId).collect();
            hosted_worker(&topology, DeviceId(0), &workers)
        };
        assert_eq!(choose(&[1, 2]), 0, "same node beats cross-node");
        assert_eq!(
            choose(&[2, 0, 1]),
            1,
            "the master's own device beats its node"
        );
        assert_eq!(choose(&[2, 4]), 0, "ties go to the lowest index");
        assert_eq!(choose(&[3, 2, 1]), 2);
    }

    #[test]
    fn channel_hosts_every_echo_worker_and_every_other_star_hosts_one() {
        let workers = [DeviceId(2), DeviceId(1), DeviceId(3)];
        let template = ExpertTemplate {
            dim: 4,
            ffn_hidden: 8,
            lora: None,
            base_frozen: false,
        };
        let table = [
            (TransportConfig::channel(), None, ["hosted"; 3]),
            (
                TransportConfig::channel(),
                Some(template),
                ["thread", "hosted", "thread"],
            ),
            (
                TransportConfig::tcp_threads(),
                None,
                ["thread", "hosted", "thread"],
            ),
        ];
        for (transport, template, expected) in table {
            let (hub, handles) = star(transport, &workers, template);
            let kinds: Vec<&str> = handles.iter().map(kind).collect();
            let what = format!("{}, template {:?}", transport.label(), template.is_some());
            assert_eq!(kinds, expected, "{what}");
            step_and_close(hub, handles);
        }
    }

    #[test]
    fn an_all_hosted_hub_with_nothing_queued_is_disconnected_at_once() {
        // No worker is linked, so no reply can come from anywhere else:
        // a receive with nothing queued must not block. A hang fails the
        // deadline below instead of the run.
        let workers: Vec<DeviceId> = (0..6).map(DeviceId).collect();
        let (mut hub, handles) = echo_star(TransportConfig::channel(), &workers);
        assert!(handles.iter().all(|h| kind(h) == "hosted"));
        let (done, outcome) = std::sync::mpsc::channel();
        let receiver = std::thread::spawn(move || {
            // The six bootstraps are served on the way to the first answer.
            let first = hub.recv();
            let timed = hub.recv_timeout(Duration::from_secs(60));
            let disconnected = |r: &Result<_, _>| matches!(r, Err(TransportError::Disconnected));
            let _ = done.send((disconnected(&first), disconnected(&timed)));
            step_and_close(hub, handles);
        });
        let outcome = outcome
            .recv_timeout(Duration::from_secs(5))
            .expect("a receive on a hub with no links blocked");
        assert_eq!(outcome, (true, true), "(recv, recv_timeout)");
        receiver.join().unwrap();
    }

    #[test]
    fn process_mode_spawns_a_child_per_worker_but_the_hosted_one() {
        // A one-worker star spawns nothing (so needs no worker binary); a
        // three-worker one spawns two `vela_worker` children.
        for workers in [
            vec![DeviceId(1)],
            vec![DeviceId(1), DeviceId(2), DeviceId(3)],
        ] {
            let (hub, handles) = echo_star(TransportConfig::tcp_processes(), &workers);
            let kinds: Vec<&str> = handles.iter().map(kind).collect();
            let mut expected = vec!["hosted"];
            expected.resize(workers.len(), "process");
            assert_eq!(kinds, expected);
            step_and_close(hub, handles);
        }
    }

    #[test]
    fn a_hosted_worker_that_stops_is_a_dead_worker() {
        // A frame it cannot act on, a fetch for an expert it lacks, and
        // `Shutdown` each stop a worker the master hosts. From then on a
        // send to it and the receive that reaches it are `Disconnected`,
        // never a hang, while every other worker, hosted (all six on
        // channel) or linked, keeps serving.
        let stops = [
            Message::StepDone,
            Message::FetchTrained {
                block: 0,
                expert: 1,
            },
            Message::Shutdown,
        ];
        let one = vec![DeviceId(1)];
        let two = vec![DeviceId(1), DeviceId(2)];
        let six: Vec<DeviceId> = (0..6).map(DeviceId).collect();
        let cases = [
            (TransportConfig::channel(), &one, 0),
            (TransportConfig::channel(), &two, 0),
            (TransportConfig::channel(), &six, 3),
            (TransportConfig::tcp_threads(), &one, 0),
            (TransportConfig::tcp_threads(), &two, 0),
        ];
        for (transport, workers, stopped) in cases {
            for stop in &stops {
                let what = format!(
                    "{} × {} workers, worker {stopped}, {stop:?}",
                    transport.label(),
                    workers.len()
                );
                let (mut hub, mut handles) = echo_star(transport, workers);
                assert_eq!(kind(&handles[stopped]), "hosted", "{what}");
                hub.send(stopped, stop).unwrap();
                let next = hub.recv_timeout(Duration::from_secs(10));
                assert!(
                    matches!(next, Err(TransportError::Disconnected)),
                    "{what}: {next:?}"
                );
                let sent = hub.send(stopped, &Message::StepEnd);
                assert!(
                    matches!(sent, Err(TransportError::Disconnected)),
                    "{what}: {sent:?}"
                );
                let others: Vec<usize> = (0..workers.len()).filter(|&w| w != stopped).collect();
                if others.is_empty() {
                    let again = hub.recv();
                    assert!(matches!(again, Err(TransportError::Disconnected)), "{what}");
                } else {
                    for &w in &others {
                        hub.send(w, &Message::StepEnd).unwrap();
                    }
                    let mut done: Vec<usize> = others
                        .iter()
                        .map(|_| match hub.recv() {
                            Ok((w, Message::StepDone)) => w,
                            other => panic!("{what}: expected StepDone, got {other:?}"),
                        })
                        .collect();
                    done.sort_unstable();
                    assert_eq!(done, others, "{what}");
                    for &w in &others {
                        hub.send(w, &Message::Shutdown).unwrap();
                    }
                }
                hub.shutdown();
                let shard = handles.remove(stopped).finish();
                assert!(
                    shard.is_some(),
                    "{what}: a stopped worker hands its shard back"
                );
                handles.into_iter().for_each(|h| drop(h.finish()));
            }
        }
    }

    #[test]
    fn a_hosted_worker_refuses_a_backward_without_its_forward() {
        // What would panic in `SwiGlu::backward` on the master's thread is
        // a dead hosted worker instead: a backward for an expert that ran
        // no forward, and one whose rows differ from its forward's.
        use crate::message::{GroupPass, PackedGroup};
        use vela_model::ModelConfig;
        use vela_tensor::rng::DetRng;

        let cfg = ModelConfig::test_small();
        let dispatch = |pass, rows: usize| {
            let data = vec![0.5; rows * cfg.dim];
            let group = PackedGroup::pack(0, pass, cfg.dim as u32, [(1, &data[..])].into_iter());
            Message::PackedDispatch(group)
        };
        for forward_rows in [None, Some(2)] {
            let ledger = Arc::new(TrafficLedger::new(Topology::paper_testbed()));
            let bootstrap = WorkerBootstrap {
                blocks: cfg.blocks,
                experts: cfg.experts,
                optim: AdamWConfig::default(),
                template: None,
            };
            let shards = || vec![LocalExpertStore::new(&cfg, &mut DetRng::new(5))];
            let transport = TransportConfig::channel();
            let (mut hub, mut handles) = launch_star(
                transport,
                ledger,
                DeviceId(0),
                &[DeviceId(1)],
                bootstrap,
                shards,
            )
            .unwrap();
            assert_eq!(kind(&handles[0]), "hosted");
            if let Some(rows) = forward_rows {
                hub.send(0, &dispatch(GroupPass::Forward, rows)).unwrap();
                let reply = hub.recv().unwrap();
                assert!(matches!(reply, (0, Message::PackedResult(_))), "{reply:?}");
            }
            hub.send(0, &dispatch(GroupPass::Backward, 3)).unwrap();
            let next = hub.recv_timeout(Duration::from_secs(10));
            assert!(
                matches!(next, Err(TransportError::Disconnected)),
                "forward of {forward_rows:?} rows: {next:?}"
            );
            hub.shutdown();
            assert!(handles.remove(0).finish().is_some());
        }
    }

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
