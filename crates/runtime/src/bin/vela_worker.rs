//! Standalone Expert Manager worker process.
//!
//! Spawned by the process-mode launcher (`VELA_TRANSPORT=tcp`) as
//! `vela_worker <master addr> <worker index> <device id>`: connects to the
//! master's loopback listener at `host:port` as that worker on that device
//! and hands the link to [`run_worker`](vela_runtime::worker::run_worker),
//! the entry every worker thread starts through too. That boots from the
//! first frame, an ordinary `Message::Bootstrap`, and serves the Expert
//! Manager loop until `Shutdown` or master disconnect — either way exiting
//! cleanly with flushed observability buffers. A worker that never boots
//! (a stale binary's version mismatch included), or is given arguments it
//! cannot parse, exits with status 1.

use std::net::SocketAddr;
use std::process::ExitCode;

use vela_cluster::DeviceId;
use vela_runtime::transport::connect_worker;
use vela_runtime::worker::run_worker;

const USAGE: &str = "usage: vela_worker <master addr> <worker index> <device id>";

fn run(args: &[String]) -> Result<(), String> {
    let [addr, index, device] = args else {
        return Err(USAGE.to_string());
    };
    let addr: SocketAddr = addr
        .parse()
        .map_err(|e| format!("bad master addr {addr:?}: {e}"))?;
    let index: usize = index
        .parse()
        .map_err(|e| format!("bad worker index {index:?}: {e}"))?;
    let device: usize = device
        .parse()
        .map_err(|e| format!("bad device id {device:?}: {e}"))?;

    let port = connect_worker(addr, index, DeviceId(device))
        .map_err(|e| format!("connect to master at {addr} failed: {e}"))?;
    run_worker(port, None).map_err(|e| format!("bootstrap failed: {e}"))?;
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("vela_worker: {msg}");
            ExitCode::FAILURE
        }
    }
}
