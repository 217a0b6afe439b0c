//! Wire-protocol integration tests against a live loopback server:
//! malformed/truncated frames, pipelining, concurrent clients racing
//! `TAS` on one key, `RESET`-then-reuse round trips under 8 real
//! client threads, leases, and read deadlines.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Barrier;
use std::time::{Duration, Instant};

use rtas::Backend;
use rtas_svc::protocol::MAX_PAYLOAD;
use rtas_svc::server::SvcConfig;
use rtas_svc::{server, Client, ClientConfig, ClientError, Op, Response, Server};

fn spawn_server(shards: usize, capacity: usize) -> rtas_svc::Server {
    server::spawn_local(Backend::Combined, shards, capacity).expect("bind loopback")
}

#[test]
fn truncated_frame_closes_the_connection_but_not_the_server() {
    let srv = spawn_server(2, 4);

    // Half a header, then hang up.
    let mut raw = TcpStream::connect(srv.addr()).unwrap();
    raw.write_all(&[7u8, 0]).unwrap();
    drop(raw);

    // Full header promising more payload than ever arrives.
    let mut raw = TcpStream::connect(srv.addr()).unwrap();
    raw.write_all(&20u32.to_le_bytes()).unwrap();
    raw.write_all(&[1, 2, 3]).unwrap();
    drop(raw);

    // The server is unfazed: a fresh client works.
    let mut client = Client::connect(srv.addr()).unwrap();
    assert!(client.tas(b"alive").unwrap().won);
    srv.shutdown();
}

#[test]
fn oversized_declared_length_gets_an_err_and_a_hangup() {
    let srv = spawn_server(1, 1);
    let mut raw = TcpStream::connect(srv.addr()).unwrap();
    raw.write_all(&((MAX_PAYLOAD as u32) + 1).to_le_bytes())
        .unwrap();
    // The server must answer with an ERR frame naming the violation and
    // then close — it must NOT try to read the bogus payload.
    let mut header = [0u8; 4];
    raw.read_exact(&mut header).unwrap();
    let len = u32::from_le_bytes(header) as usize;
    let mut payload = vec![0u8; len];
    raw.read_exact(&mut payload).unwrap();
    match rtas_svc::protocol::decode_response(&payload).unwrap() {
        Response::Err(msg) => assert!(msg.contains("frame limit"), "{msg}"),
        other => panic!("expected ERR, got {other:?}"),
    }
    // ... and the stream is closed afterwards.
    assert_eq!(raw.read(&mut header).unwrap(), 0, "connection must close");
    srv.shutdown();
}

#[test]
fn bad_requests_get_err_responses_and_the_connection_survives() {
    let srv = spawn_server(1, 2);
    let mut raw = TcpStream::connect(srv.addr()).unwrap();

    // Unknown opcode: clean frame, recoverable.
    raw.write_all(&2u32.to_le_bytes()).unwrap();
    raw.write_all(&[99, b'k']).unwrap();
    // Empty key on TAS: clean frame, recoverable.
    raw.write_all(&1u32.to_le_bytes()).unwrap();
    raw.write_all(&[Op::Tas.code()]).unwrap();

    let read_response = |raw: &mut TcpStream| {
        let mut header = [0u8; 4];
        raw.read_exact(&mut header).unwrap();
        let mut payload = vec![0u8; u32::from_le_bytes(header) as usize];
        raw.read_exact(&mut payload).unwrap();
        rtas_svc::protocol::decode_response(&payload).unwrap()
    };
    assert!(matches!(read_response(&mut raw), Response::Err(_)));
    assert!(matches!(read_response(&mut raw), Response::Err(_)));

    // Same connection, now a valid request: still served.
    raw.write_all(&4u32.to_le_bytes()).unwrap();
    raw.write_all(&[Op::Tas.code(), b'o', b'k', b'!']).unwrap();
    match read_response(&mut raw) {
        Response::Acquired(a) => assert!(a.won),
        other => panic!("expected a verdict, got {other:?}"),
    }
    srv.shutdown();
}

#[test]
fn kind_mismatch_is_a_remote_error_not_a_disconnect() {
    let srv = spawn_server(1, 2);
    let mut client = Client::connect(srv.addr()).unwrap();
    assert!(client.elect(b"leader").unwrap().won);
    match client.tas(b"leader") {
        Err(ClientError::Remote(msg)) => assert!(msg.contains("kind mismatch"), "{msg}"),
        other => panic!("expected a remote refusal, got {other:?}"),
    }
    // The connection is still good.
    assert!(!client.elect(b"leader").unwrap().won);
    srv.shutdown();
}

#[test]
fn pipelined_requests_are_answered_in_order() {
    let srv = spawn_server(2, 16);
    let mut client = Client::connect(srv.addr()).unwrap();
    let depth = 10;
    for _ in 0..depth {
        client.send(Op::Tas, b"pipelined").unwrap();
    }
    let mut wins = 0;
    for i in 0..depth {
        match client.recv().unwrap() {
            Response::Acquired(a) => {
                assert_eq!(a.epoch, 0);
                if a.won {
                    assert_eq!(i, 0, "first pipelined TAS must be the winner");
                    wins += 1;
                }
            }
            other => panic!("expected a verdict, got {other:?}"),
        }
    }
    assert_eq!(wins, 1);
    // A pipelined RESET then TAS: the reuse round trip in one batch.
    client.send(Op::Reset, b"pipelined").unwrap();
    client.send(Op::Tas, b"pipelined").unwrap();
    assert!(matches!(
        client.recv().unwrap(),
        Response::Reset { epoch: 1 }
    ));
    match client.recv().unwrap() {
        Response::Acquired(a) => {
            assert!(a.won, "fresh epoch after pipelined reset");
            assert_eq!(a.epoch, 1);
        }
        other => panic!("expected a verdict, got {other:?}"),
    }
    srv.shutdown();
}

#[test]
fn eight_clients_racing_one_key_have_exactly_one_winner_per_epoch() {
    let threads = 8;
    let epochs = 25u64;
    let srv = spawn_server(4, threads);
    let barrier = Barrier::new(threads);
    let addr = srv.addr();
    let wins: u64 = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let barrier = &barrier;
                s.spawn(move || {
                    let mut client = Client::connect(addr).unwrap();
                    let mut wins = 0u64;
                    for epoch in 0..epochs {
                        // All 8 threads enter each epoch together; the
                        // winner acks the resolution with RESET, which
                        // the others' next barrier round waits out.
                        barrier.wait();
                        let verdict = client.tas(b"contended/key").unwrap();
                        wins += verdict.won as u64;
                        barrier.wait();
                        if verdict.won {
                            let next = client.reset(b"contended/key").unwrap();
                            assert_eq!(next, epoch + 1, "epochs advance one at a time");
                        }
                        barrier.wait();
                    }
                    wins
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).sum()
    });
    assert_eq!(wins, epochs, "exactly one winner per epoch");
    let stats = srv.namespace().stats();
    assert_eq!(stats.keys, 1);
    assert_eq!(stats.ops, threads as u64 * epochs);
    assert_eq!(stats.wins, epochs);
    assert_eq!(stats.resets, epochs);
    srv.shutdown();
}

#[test]
fn reset_then_reuse_round_trips_under_eight_real_client_threads() {
    // RESET-driven reuse with *unsynchronized* clients: every thread
    // hammers its own key plus one shared key, recycling its own key
    // after every verdict. One winner per completed epoch everywhere.
    let threads = 8;
    let rounds = 50u64;
    let srv = spawn_server(4, threads);
    let addr = srv.addr();
    std::thread::scope(|s| {
        for t in 0..threads {
            s.spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                let key = format!("private/{t}").into_bytes();
                for round in 0..rounds {
                    let verdict = client.tas(&key).unwrap();
                    assert!(verdict.won, "sole participant always wins");
                    assert_eq!(verdict.epoch, round);
                    assert_eq!(client.reset(&key).unwrap(), round + 1);
                    // Interleave traffic on a shared, never-reset key.
                    let shared = client.tas(b"shared").unwrap();
                    assert_eq!(shared.epoch, 0);
                }
            });
        }
    });
    let stats = srv.namespace().stats();
    assert_eq!(stats.keys, threads as u64 + 1);
    // Private keys: one win per round per thread. Shared key: epoch 0
    // resolved once, so exactly one more win overall.
    assert_eq!(stats.wins, threads as u64 * rounds + 1);
    assert_eq!(stats.resets, threads as u64 * rounds);
    assert_eq!(stats.ops, 2 * threads as u64 * rounds);
    srv.shutdown();
}

#[test]
fn mid_epoch_disconnect_is_reclaimed_by_the_lease_with_no_second_winner() {
    let srv = Server::spawn(SvcConfig {
        shards: 1,
        capacity: 1,
        lease: Some(Duration::from_millis(20)),
        ..SvcConfig::default()
    })
    .expect("bind loopback");

    // The holder wins epoch 0, then vanishes without a RESET.
    let mut holder = Client::connect(srv.addr()).unwrap();
    let verdict = holder.tas(b"leased").unwrap();
    assert!(verdict.won);
    assert_eq!(verdict.epoch, 0);
    drop(holder);

    // A second client polls: nothing but losses on the stranded epoch
    // until the lease expires, then a win on a FRESH epoch — the
    // stranded epoch 0 is retired as a loss, never re-awarded.
    let mut other = Client::connect(srv.addr()).unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    let win = loop {
        let v = other.tas(b"leased").unwrap();
        if v.won {
            break v;
        }
        assert_eq!(v.epoch, 0, "losses stay on the stranded epoch");
        assert!(Instant::now() < deadline, "lease never reclaimed the slot");
        std::thread::sleep(Duration::from_millis(1));
    };
    assert!(
        win.epoch >= 1,
        "the second win is on a reclaimed, fresh epoch"
    );
    let stats = srv.namespace().stats();
    assert!(stats.reclaimed >= 1, "the reclaim is counted");
    assert_eq!(stats.wins, 2, "exactly one winner per epoch, ever");
    srv.shutdown();
}

#[test]
fn server_read_deadline_expires_a_stalled_connection() {
    let srv = Server::spawn(SvcConfig {
        shards: 1,
        capacity: 1,
        read_timeout: Some(Duration::from_millis(50)),
        ..SvcConfig::default()
    })
    .expect("bind loopback");
    let mut raw = TcpStream::connect(srv.addr()).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    // A header promising payload that never comes: the handler must
    // answer ERR at its deadline and close, not pin a thread forever.
    raw.write_all(&10u32.to_le_bytes()).unwrap();
    let mut header = [0u8; 4];
    raw.read_exact(&mut header).unwrap();
    let mut payload = vec![0u8; u32::from_le_bytes(header) as usize];
    raw.read_exact(&mut payload).unwrap();
    match rtas_svc::protocol::decode_response(&payload).unwrap() {
        Response::Err(msg) => assert!(msg.contains("read deadline"), "{msg}"),
        other => panic!("expected ERR, got {other:?}"),
    }
    assert_eq!(
        raw.read(&mut header).unwrap(),
        0,
        "closed after the deadline"
    );
    srv.shutdown();
}

#[test]
fn read_deadline_closes_a_silent_connection_and_spares_an_active_one() {
    let timeout = Duration::from_millis(200);
    // One reactor worker: both connections share its slab and its
    // deadline sweeps.
    let srv = Server::spawn(SvcConfig {
        workers: 1,
        read_timeout: Some(timeout),
        ..SvcConfig::default()
    })
    .expect("bind loopback");
    let addr = srv.addr();
    let mut active = Client::connect(addr).unwrap();

    // The active connection sends one TAS every 50 ms for 600 ms,
    // three timeouts' worth: every request gets a verdict.
    let start = Instant::now();
    let mut verdicts = 0;
    let mut reader = None;
    while start.elapsed() < Duration::from_millis(600) {
        active.tas(b"deadline/active").expect("verdict");
        verdicts += 1;
        if verdicts == 2 {
            // The silent connection joins ~50 ms in and never sends a
            // byte; its deadline is not the one that armed the
            // worker's pending sweep, so expiring it takes a
            // rescheduled sweep. A reader thread notes when its ERR and
            // EOF arrive.
            reader = Some(std::thread::spawn(move || {
                let connected = Instant::now();
                let mut silent = TcpStream::connect(addr).unwrap();
                silent
                    .set_read_timeout(Some(Duration::from_secs(10)))
                    .unwrap();
                let mut header = [0u8; 4];
                silent.read_exact(&mut header).unwrap();
                let mut payload = vec![0u8; u32::from_le_bytes(header) as usize];
                silent.read_exact(&mut payload).unwrap();
                let err_at = connected.elapsed();
                let eof = silent.read(&mut header).unwrap() == 0;
                let reply = rtas_svc::protocol::decode_response(&payload).unwrap();
                (reply, err_at, eof)
            }));
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    assert!(verdicts >= 6, "only {verdicts} requests sent");

    let (reply, err_at, eof) = reader.expect("silent connection").join().unwrap();
    match reply {
        Response::Err(msg) => assert_eq!(msg, "read deadline expired"),
        other => panic!("expected ERR, got {other:?}"),
    }
    assert!(eof, "the silent connection is closed after its ERR");
    assert!(
        err_at >= timeout && err_at <= 2 * timeout,
        "deadline fired {err_at:?} after connect, timeout {timeout:?}"
    );
    // Still open: the active connection is served right away.
    active
        .tas(b"deadline/active")
        .expect("active connection open");
    srv.shutdown();
}

#[test]
fn client_read_timeout_expires_against_a_silent_server() {
    // A listener that never answers (the connection sits in the accept
    // backlog): the client's read deadline must surface as an error
    // instead of hanging the caller.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let mut client = Client::connect_with(
        addr,
        ClientConfig {
            read_timeout: Some(Duration::from_millis(50)),
            ..ClientConfig::default()
        },
    )
    .unwrap();
    let start = Instant::now();
    match client.tas(b"never-answered") {
        Err(ClientError::Io(e)) => assert!(
            matches!(
                e.kind(),
                std::io::ErrorKind::TimedOut | std::io::ErrorKind::WouldBlock
            ),
            "expected a timeout kind, got {e}"
        ),
        other => panic!("expected a read timeout, got {other:?}"),
    }
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "the deadline must bound the wait"
    );
    drop(listener);
}

#[test]
fn connect_timeout_dial_is_bounded_and_serves_a_live_server() {
    // The timeout dialer must resolve a dial to a non-answering
    // address inside its bound — 203.0.113.1 (TEST-NET-3) drops SYNs
    // on real networks, though some sandboxes answer for everything,
    // so only boundedness is asserted, not failure.
    let config = ClientConfig {
        connect_timeout: Some(Duration::from_millis(250)),
        ..ClientConfig::default()
    };
    let start = Instant::now();
    let _ = Client::connect_with("203.0.113.1:9", config.clone());
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "the connect timeout must bound the dial"
    );

    // And the same timeout-dial path must serve a real server: the
    // deadline applies to the dial, never to established traffic.
    let srv = spawn_server(1, 2);
    let mut client = Client::connect_with(srv.addr(), config).unwrap();
    assert!(client.tas(b"dialed-with-deadline").unwrap().won);
    srv.shutdown();
}

#[test]
fn stats_round_trip_over_the_wire_matches_in_process_counters() {
    let srv = spawn_server(2, 2);
    let mut client = Client::connect(srv.addr()).unwrap();
    assert!(client.tas(b"a").unwrap().won);
    assert!(!client.tas(b"a").unwrap().won);
    assert!(client.elect(b"b").unwrap().won);
    client.reset(b"a").unwrap();
    assert_eq!(client.reset(b"missing").unwrap(), 0, "no such key");
    let wire = client.stats().unwrap();
    // The namespace-backed counters agree field for field; the
    // connection gauges are the server's own — an in-process
    // `Namespace::stats` has no accept loop, so it reports zeros there,
    // while the wire answer counts at least the connection asking.
    let local = srv.namespace().stats();
    assert_eq!(wire.keys, local.keys);
    assert_eq!(wire.ops, local.ops);
    assert_eq!(wire.wins, local.wins);
    assert_eq!(wire.resets, local.resets);
    assert_eq!(wire.registers, local.registers);
    assert_eq!(wire.reclaimed, local.reclaimed);
    assert_eq!(local.conns, 0);
    assert_eq!(local.refused, 0);
    assert_eq!(wire.conns, 1, "the STATS connection counts itself");
    assert_eq!(wire.refused, 0);
    assert_eq!(wire.keys, 2);
    assert_eq!(wire.ops, 3);
    assert_eq!(wire.wins, 2);
    assert_eq!(wire.resets, 1);
    assert!(wire.registers > 0);
    srv.shutdown();
}

/// Count one acquire verdict into `(ops, wins)`.
fn count_verdict(counts: &mut (u64, u64), response: Response) {
    match response {
        Response::Acquired(a) => {
            counts.0 += 1;
            counts.1 += u64::from(a.won);
        }
        other => panic!("expected a verdict, got {other:?}"),
    }
}

#[test]
fn stats_count_every_acquire_of_pipelined_elect_bursts() {
    let srv = spawn_server(2, 64);
    let keys: [&[u8]; 4] = [b"hot/0", b"hot/1", b"hot/2", b"hot/3"];
    let mut clients = [0, 1].map(|_| Client::connect(srv.addr()).unwrap());
    // 8 ELECTs of each key per burst, and both connections' bursts in
    // flight together before either reads.
    let burst: Vec<(Op, &[u8])> = (0..32).map(|i| (Op::Elect, keys[i % 4])).collect();
    let mut counts = (0u64, 0u64);
    let rounds = 20;
    for _ in 0..rounds {
        for client in &mut clients {
            client.send_batch(&burst).unwrap();
        }
        for client in &mut clients {
            for _ in 0..burst.len() {
                count_verdict(&mut counts, client.recv().unwrap());
            }
        }
        for key in keys {
            clients[0].reset(key).unwrap();
        }
    }
    assert_eq!(counts.1, 4 * rounds, "one winner per key-epoch");
    for client in &mut clients {
        let stats = client.stats().unwrap();
        assert_eq!((stats.ops, stats.wins), counts);
    }

    // A STATS in the middle of a burst counts the acquires framed
    // before it on its own connection, and none framed after it.
    let mut mixed = burst[..5].to_vec();
    mixed.push((Op::Stats, b""));
    mixed.extend_from_slice(&burst[..5]);
    clients[1].send_batch(&mixed).unwrap();
    for _ in 0..5 {
        count_verdict(&mut counts, clients[1].recv().unwrap());
    }
    match clients[1].recv().unwrap() {
        Response::Stats(stats) => assert_eq!((stats.ops, stats.wins), counts),
        other => panic!("expected stats, got {other:?}"),
    }
    for _ in 0..5 {
        count_verdict(&mut counts, clients[1].recv().unwrap());
    }
    let stats = clients[0].stats().unwrap();
    assert_eq!((stats.ops, stats.wins), counts);
    srv.shutdown();
}

#[test]
fn every_send_is_one_wire_write_with_nodelay() {
    // The socket-level coalescing assertions: TCP_NODELAY is on (a
    // coalesced frame must leave immediately, not sit behind Nagle)
    // and every send — convenience round trip, pipelined half, or a
    // whole batch — costs exactly ONE transport write, so a frame can
    // never straddle two syscalls and tear under a crashing client.
    let srv = spawn_server(2, 4);
    let mut client = Client::connect(srv.addr()).unwrap();
    assert!(client.nodelay().unwrap(), "TCP_NODELAY must be set");
    assert_eq!(client.wire_writes(), 0);

    client.tas(b"one").unwrap();
    assert_eq!(client.wire_writes(), 1, "tas = one write");
    client.reset(b"one").unwrap();
    assert_eq!(client.wire_writes(), 2, "reset = one write");
    client.stats().unwrap();
    assert_eq!(client.wire_writes(), 3, "stats = one write");

    client.send(Op::Tas, b"two").unwrap();
    assert_eq!(client.wire_writes(), 4, "pipelined send = one write");
    client.recv().unwrap();

    // A whole pipelined burst: 16 requests, ONE write syscall.
    let reqs: Vec<(Op, &[u8])> = (0..16).map(|_| (Op::Tas, b"three".as_ref())).collect();
    client.send_batch(&reqs).unwrap();
    assert_eq!(client.wire_writes(), 5, "a 16-frame batch = one write");
    let mut wins = 0;
    for _ in 0..16 {
        match client.recv().unwrap() {
            Response::Acquired(a) => wins += a.won as u64,
            other => panic!("expected a verdict, got {other:?}"),
        }
    }
    assert_eq!(wins, 1, "the batch's epoch still has exactly one winner");
    srv.shutdown();
}

#[test]
fn connections_beyond_max_conns_are_refused_with_a_named_err() {
    let srv = Server::spawn(SvcConfig {
        shards: 1,
        capacity: 4,
        max_conns: 2,
        ..SvcConfig::default()
    })
    .expect("bind loopback");

    // Fill the ceiling with live connections (prove them live with a
    // round trip each — the gauge counts served connections, not
    // accept-queue residents).
    let mut a = Client::connect(srv.addr()).unwrap();
    let mut b = Client::connect(srv.addr()).unwrap();
    assert!(a.tas(b"slots").unwrap().won);
    assert!(!b.tas(b"slots").unwrap().won);

    // One more: refused with an ERR naming the limit, then closed.
    let mut raw = TcpStream::connect(srv.addr()).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut header = [0u8; 4];
    raw.read_exact(&mut header).unwrap();
    let mut payload = vec![0u8; u32::from_le_bytes(header) as usize];
    raw.read_exact(&mut payload).unwrap();
    match rtas_svc::protocol::decode_response(&payload).unwrap() {
        Response::Err(msg) => {
            assert!(msg.contains("2-connection limit"), "{msg}");
        }
        other => panic!("expected ERR, got {other:?}"),
    }
    assert_eq!(raw.read(&mut header).unwrap(), 0, "refused then closed");
    drop(raw);

    // The refusal is visible in the wire STATS gauges.
    let stats = a.stats().unwrap();
    assert_eq!(stats.conns, 2, "both live connections are counted");
    assert_eq!(stats.refused, 1, "the refusal is counted");

    // Releasing a slot readmits: drop one client, and a retry loop gets
    // in (the worker may take a moment to observe the EOF).
    drop(b);
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if let Ok(mut c) = Client::connect(srv.addr()) {
            if c.tas(b"readmitted").is_ok() {
                break;
            }
        }
        assert!(Instant::now() < deadline, "slot never released");
        std::thread::sleep(Duration::from_millis(2));
    }
    srv.shutdown();
}
