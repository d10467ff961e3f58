//! Standalone Expert Manager worker process.
//!
//! Spawned by the process-mode launcher (`VELA_TRANSPORT=tcp`): connects
//! to the master's loopback listener and hands the link to
//! [`run_worker`](vela_runtime::worker::run_worker), the entry every
//! worker thread starts through too. That boots from the first frame, an
//! ordinary `Message::Bootstrap`, and serves the Expert Manager loop until
//! `Shutdown` or master disconnect — either way exiting cleanly with
//! flushed observability buffers. A worker that never boots (a stale
//! binary's version mismatch included) exits with a failure status.
//!
//! Reads `VELA_WORKER_CONNECT` (`host:port`), `VELA_WORKER_INDEX` and
//! `VELA_WORKER_DEVICE` from the environment; the launcher sets all
//! three.

use std::net::SocketAddr;
use std::process::ExitCode;

use vela_cluster::DeviceId;
use vela_runtime::launch::env_keys;
use vela_runtime::transport::connect_worker;
use vela_runtime::worker::run_worker;

fn required(key: &str) -> Result<String, String> {
    std::env::var(key).map_err(|_| format!("{key} must be set (the launcher sets it)"))
}

fn run() -> Result<(), String> {
    let addr: SocketAddr = required(env_keys::CONNECT)?
        .parse()
        .map_err(|e| format!("bad {}: {e}", env_keys::CONNECT))?;
    let index: usize = required(env_keys::INDEX)?
        .parse()
        .map_err(|e| format!("bad {}: {e}", env_keys::INDEX))?;
    let device: usize = required(env_keys::DEVICE)?
        .parse()
        .map_err(|e| format!("bad {}: {e}", env_keys::DEVICE))?;

    let port = connect_worker(addr, index, DeviceId(device))
        .map_err(|e| format!("connect to master at {addr} failed: {e}"))?;
    run_worker(port, None).map_err(|e| format!("bootstrap failed: {e}"))?;
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("vela_worker: {msg}");
            ExitCode::FAILURE
        }
    }
}
