//! The reactor's accept path: where connections land and how the
//! pool stops.
//!
//! The workers accept in their own event loops, passing the listener
//! from one worker to the next after each admitted connection. These
//! tests pin what that must preserve: round-robin placement
//! (connection *i* on worker *i* mod `workers`) and a shutdown that
//! reaches every worker, however idle.

use std::io;
use std::sync::mpsc;
use std::time::Duration;

use rtas_svc::{Client, ClientConfig, ClientError, Server, SvcConfig};

fn server(workers: usize) -> Server {
    Server::spawn(SvcConfig {
        workers,
        ..SvcConfig::default()
    })
    .expect("spawn server")
}

#[test]
fn connections_round_robin_across_workers() {
    let srv = server(3);
    let addr = srv.addr().to_string();
    // Five clients, each admitted (one TAS answered) before the next
    // connects: workers 0, 1, 2, 0, 1.
    let clients: Vec<Client> = (0..5)
        .map(|i| {
            let mut client = Client::connect(&addr).expect("connect");
            let key = format!("accept/rr/{i}").into_bytes();
            assert!(client.tas(&key).expect("TAS").won);
            client
        })
        .collect();
    // The sixth lands on worker 2 and is live while it scrapes.
    let mut scraper = Client::connect(&addr).expect("connect scraper");
    let text = scraper.metrics().expect("METRICS op");
    let parsed = rtas_svc::obs::parse_metrics(&text).expect("valid exposition");
    for k in 0..3 {
        let name = format!("reactor.worker{k}.slab_live");
        let live = parsed
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("exposition missing {name}:\n{text}"))
            .1;
        assert_eq!(live, 2.0, "{name} in\n{text}");
    }
    drop(clients);
    drop(scraper);
    srv.shutdown();
}

#[test]
fn shutdown_reaches_every_idle_worker_promptly() {
    let srv = server(4);
    let addr = srv.addr().to_string();
    // One idle connection per worker, each known admitted.
    let config = ClientConfig {
        read_timeout: Some(Duration::from_secs(5)),
        ..ClientConfig::default()
    };
    let mut clients: Vec<Client> = (0..4)
        .map(|i| {
            let mut client = Client::connect_with(&addr, config.clone()).expect("connect");
            let key = format!("accept/stop/{i}").into_bytes();
            assert!(client.tas(&key).expect("TAS").won);
            client
        })
        .collect();
    let (done_tx, done_rx) = mpsc::channel();
    std::thread::spawn(move || {
        srv.shutdown();
        let _ = done_tx.send(());
    });
    done_rx
        .recv_timeout(Duration::from_secs(5))
        .expect("Server::shutdown did not return within 5 s");
    // Every worker closed its connection on the way out: a read ends
    // at once instead of running into the client's deadline.
    for client in &mut clients {
        match client.recv() {
            Err(ClientError::Io(e))
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                panic!("a connection outlived shutdown")
            }
            Err(_) => {}
            Ok(other) => panic!("a shut-down server answered {other:?}"),
        }
    }
}
