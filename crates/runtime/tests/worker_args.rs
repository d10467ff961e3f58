//! `vela_worker` takes its coordinates as `<master addr> <worker index>
//! <device id>`. Run from outside with arguments it cannot use, it must
//! exit with status 1 (not a panic's 101), say why on stderr, and never
//! dial: each run is pointed at a live listener that must see no
//! connection.

use std::io::ErrorKind;
use std::net::TcpListener;
use std::process::{Command, Stdio};

#[test]
fn bad_arguments_exit_1_without_dialing() {
    let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
    listener.set_nonblocking(true).unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let usage = "usage: vela_worker <master addr> <worker index> <device id>";
    let cases: [(&[&str], &str); 4] = [
        (&[], usage),
        (&[&addr, "0"], usage),
        (&[&addr, "first", "1"], "bad worker index \"first\""),
        (&["localhost", "0", "1"], "bad master addr \"localhost\""),
    ];
    for (args, says) in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_vela_worker"))
            .args(args)
            .stdin(Stdio::null())
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stderr.contains(says), "{args:?}: {stderr}");
        match listener.accept() {
            Err(e) if e.kind() == ErrorKind::WouldBlock => {}
            other => panic!("{args:?} dialed the master: {other:?}"),
        }
    }
}
