//! Micro-bench: message serialization and the master↔worker transport.
//!
//! Run with `cargo bench -p vela-bench --bench transport`.

use std::sync::Arc;
use vela::cluster::TrafficLedger;
use vela::prelude::*;
use vela::runtime::message::{GroupPass, Message, PackedGroup};
use vela::runtime::transport::{star, tcp_star, MasterHub, WorkerPort};
use vela_bench::microbench::bench;

/// One expert's `t` as a dispatch frame.
fn dispatch(t: &Tensor) -> Message {
    Message::PackedDispatch(PackedGroup::pack(
        5,
        GroupPass::Forward,
        t.cols() as u32,
        false,
        std::iter::once((3, t.as_slice())),
    ))
}

fn bench_encode_decode() {
    let mut rng = DetRng::new(1);
    let msg = dispatch(&Tensor::uniform((96, 32), -1.0, 1.0, &mut rng));
    let bytes = msg.encode();
    println!("wire frame: {} bytes", bytes.len());
    bench("wire/encode_real_96x32", || msg.encode());
    bench("wire/decode_real_96x32", || {
        Message::decode(&bytes).unwrap()
    });
    let virt = Message::PackedDispatch(PackedGroup::pack_virtual(
        5,
        GroupPass::Forward,
        8192,
        std::iter::once((3, 4096)),
    ));
    bench("wire/encode_virtual", || virt.encode());
}

fn bench_star_roundtrip(name: &str, mut hub: MasterHub, mut ports: Vec<WorkerPort>) {
    let mut port = ports.remove(0);
    // Echo thread.
    let echo = std::thread::spawn(move || loop {
        match port.recv() {
            Ok(Message::Shutdown) | Err(_) => break,
            Ok(msg) => port.send(&msg).unwrap(),
        }
    });
    let mut rng = DetRng::new(2);
    let msg = dispatch(&Tensor::uniform((96, 32), -1.0, 1.0, &mut rng));
    bench(name, || {
        hub.send(0, &msg).unwrap();
        hub.recv().unwrap()
    });
    hub.send(0, &Message::Shutdown).unwrap();
    echo.join().unwrap();
}

fn main() {
    bench_encode_decode();
    let ledger = Arc::new(TrafficLedger::new(Topology::paper_testbed()));
    let (hub, ports) = star(ledger, DeviceId(0), &[DeviceId(2)]);
    bench_star_roundtrip("star_roundtrip_96x32/channel", hub, ports);
    let ledger = Arc::new(TrafficLedger::new(Topology::paper_testbed()));
    let (hub, ports) = tcp_star(ledger, DeviceId(0), &[DeviceId(2)]).unwrap();
    bench_star_roundtrip("star_roundtrip_96x32/tcp", hub, ports);
}
