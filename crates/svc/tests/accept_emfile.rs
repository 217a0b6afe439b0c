//! Accepting under descriptor exhaustion must back off, not spin.
//!
//! When `accept` fails with EMFILE the pending connection stays queued,
//! so a level-triggered listener keeps reporting itself ready. A worker
//! that simply retried would burn a core until a descriptor frees up;
//! the server instead pauses accepting for a short back-off and tries
//! again. This test exhausts the process's descriptors with one
//! connection queued, then measures the process's CPU time over a
//! quiet stretch.
//!
//! It is the only test in this binary: it takes every free descriptor
//! in the process, which would break any test running beside it.

// It reads `/proc`, so it exists on Linux only.
#![cfg(target_os = "linux")]

use std::fs::File;
use std::os::unix::fs::FileExt;
use std::time::Duration;

use rtas_svc::{Client, ClientConfig, Server, SvcConfig};

/// The soft `RLIMIT_NOFILE`, from `/proc/self/limits` (`None` when
/// unlimited or unreadable).
fn soft_fd_limit() -> Option<u64> {
    let limits = std::fs::read_to_string("/proc/self/limits").ok()?;
    let line = limits.lines().find(|l| l.starts_with("Max open files"))?;
    line["Max open files".len()..]
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// The process's utime + stime in clock ticks, read through an already
/// open `/proc/self/stat` handle (opening one would need a free
/// descriptor).
fn cpu_ticks(stat: &File) -> u64 {
    let mut buf = [0u8; 4096];
    let n = stat.read_at(&mut buf, 0).expect("read /proc/self/stat");
    let text = std::str::from_utf8(&buf[..n]).expect("utf-8 stat");
    // Fields after the parenthesized command name start at field 3
    // (state); utime and stime are fields 14 and 15.
    let rest = &text[text.rfind(')').expect("stat has a comm field") + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: u64 = fields[11].parse().expect("utime");
    let stime: u64 = fields[12].parse().expect("stime");
    utime + stime
}

#[test]
fn accept_backs_off_when_descriptors_run_out() {
    match soft_fd_limit() {
        Some(limit) if limit <= 65_536 => {}
        other => {
            eprintln!("skipping: soft fd limit {other:?} is too high to exhaust quickly");
            return;
        }
    }
    let srv = Server::spawn(SvcConfig::default()).expect("spawn server");
    let addr = srv.addr().to_string();
    let stat = File::open("/proc/self/stat").expect("open /proc/self/stat");

    // Take every free descriptor, then give one back for the client.
    let mut hoard = Vec::with_capacity(65_536);
    loop {
        match File::open("/dev/null") {
            Ok(file) => hoard.push(file),
            Err(e) if e.raw_os_error() == Some(24) => break, // EMFILE
            Err(e) => panic!("hoarding descriptors: {e}"),
        }
    }
    hoard.pop();
    let mut client = Client::connect_with(
        &addr,
        ClientConfig {
            read_timeout: Some(Duration::from_secs(10)),
            ..ClientConfig::default()
        },
    )
    .expect("connect");

    // The connection is queued and the server cannot accept it.
    let before = cpu_ticks(&stat);
    std::thread::sleep(Duration::from_millis(300));
    let spent = cpu_ticks(&stat) - before;

    drop(hoard);
    assert!(
        spent < 10,
        "the process burned {spent} clock ticks in 300 ms while accept failed with EMFILE"
    );
    // Descriptors are back: the queued connection is accepted and served.
    assert!(client.tas(b"accept/emfile").expect("TAS").won);
    drop(client);
    srv.shutdown();
}
