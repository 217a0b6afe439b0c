//! Layer replays: the workload's own request stream, fed straight to
//! one layer's public functions and timed from outside.
//!
//! * `native` — a bare `rtas::Arbiter` per key (the server's backend
//!   and capacity): `try_acquire` and `reset`;
//! * `namespace` — a private `Namespace`: `acquire` and `reset`;
//! * `conn` — a private `Connection` per client connection over a
//!   private `Namespace`: `ingest` of each burst's framed bytes.
//!
//! As in the server, each client connection's bursts run on a thread
//! of their own (hot-elect's two connections contend on the same keys
//! the way two reactor workers do); a barrier between rounds keeps
//! every RESET after the ELECTs of the epoch it retires.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use rtas::native::NativeRunner;
use rtas::{Arbiter, LeaderElection, TestAndSet};
use rtas_svc::protocol::frame_request;
use rtas_svc::{ConnGauges, ConnStatus, Connection, Kind, Namespace, Op, TraceMode};

use crate::stats::ns;
use crate::workload::{Generator, Plan};

/// What the replays measured.
#[derive(Debug, Default)]
pub struct Replays {
    /// `Arbiter::try_acquire`, ns per call.
    pub native_acquire_ns: Vec<u64>,
    /// `Arbiter::reset`, ns per call.
    pub native_reset_ns: Vec<u64>,
    /// Registers per keyed object.
    pub registers: u64,
    /// `Namespace::acquire`, ns per call.
    pub ns_acquire_ns: Vec<u64>,
    /// `Namespace::reset`, ns per call.
    pub ns_reset_ns: Vec<u64>,
    /// Namespace verdicts that won.
    pub ns_wins: u64,
    /// Namespace verdicts.
    pub ns_ops: u64,
    /// `Connection::ingest`, ns per burst, by burst shape.
    pub conn_ingest_ns: Vec<Vec<u64>>,
    /// (acquires, resets) per burst, by burst shape.
    pub conn_mix: Vec<(usize, usize)>,
}

/// One replay thread's state and samples.
#[derive(Default)]
struct Lane {
    runner: NativeRunner,
    conn: Connection,
    bytes: Vec<u8>,
    acquire_ns: Vec<u64>,
    reset_ns: Vec<u64>,
    wins: u64,
    /// Per burst: (shape, acquires, resets, ns).
    bursts: Vec<(usize, usize, usize, u64)>,
}

/// Feed each connection's bursts to `f` on that connection's own
/// thread, round by round, until `budget` elapses.
fn replay_rounds(
    plan: &Plan,
    budget: Duration,
    f: impl Fn(&mut Lane, &[(Op, usize)], usize) + Sync,
) -> Vec<Lane> {
    let conns = plan.workload.conns();
    let barrier = Barrier::new(conns);
    let go = AtomicBool::new(true);
    let deadline = Instant::now() + budget;
    std::thread::scope(|s| {
        let threads: Vec<_> = (0..conns)
            .map(|c| {
                let (barrier, go, f) = (&barrier, &go, &f);
                s.spawn(move || {
                    let mut gen = Generator::new(plan);
                    let mut lane = Lane::default();
                    loop {
                        // Lane 0 decides; the others read the decision
                        // between the two barriers.
                        if c == 0 {
                            go.store(Instant::now() < deadline, Ordering::SeqCst);
                        }
                        barrier.wait();
                        if !go.load(Ordering::SeqCst) {
                            return lane;
                        }
                        let round = gen.advance();
                        f(&mut lane, &round.bursts[c], round.shape);
                        barrier.wait();
                    }
                })
            })
            .collect();
        threads
            .into_iter()
            .map(|t| t.join().expect("replay thread panicked"))
            .collect()
    })
}

fn server_namespace() -> Namespace {
    let c = crate::wire::config(TraceMode::Off);
    Namespace::with_max_keys(c.backend, c.shards, c.capacity, c.max_keys)
}

/// A namespace holding every key at epoch 1, as the wire set-up leaves
/// the server's.
fn namespace_with_keys(plan: &Plan) -> Namespace {
    let ns = server_namespace();
    let mut runner = NativeRunner::new();
    for key in &plan.keys {
        ns.acquire(plan.workload.kind(), key, &mut runner)
            .expect("replay namespace admits every benchmark key");
        ns.reset(key);
    }
    ns
}

/// Replay every layer, each for `budget`.
pub fn replay(plan: &Plan, budget: Duration) -> Replays {
    let mut out = Replays::default();
    let c = crate::wire::config(TraceMode::Off);

    // native: one object per key.
    let objects: Vec<Box<dyn Arbiter>> = plan
        .keys
        .iter()
        .map(|_| -> Box<dyn Arbiter> {
            match plan.workload.kind() {
                Kind::Tas => Box::new(TestAndSet::with_backend(c.backend, c.capacity)),
                Kind::Elect => Box::new(LeaderElection::with_backend(c.backend, c.capacity)),
            }
        })
        .collect();
    out.registers = objects[0].registers();
    for lane in replay_rounds(plan, budget, |lane, burst, _| {
        for &(op, k) in burst {
            let t = Instant::now();
            if op == Op::Reset {
                objects[k].reset();
                lane.reset_ns.push(ns(t.elapsed()));
            } else {
                std::hint::black_box(objects[k].try_acquire(&mut lane.runner));
                lane.acquire_ns.push(ns(t.elapsed()));
            }
        }
    }) {
        out.native_acquire_ns.extend(lane.acquire_ns);
        out.native_reset_ns.extend(lane.reset_ns);
    }
    drop(objects);

    // namespace: the same stream through admission and the key maps.
    let namespace = namespace_with_keys(plan);
    let kind = plan.workload.kind();
    for lane in replay_rounds(plan, budget, |lane, burst, _| {
        for &(op, k) in burst {
            let key = &plan.keys[k];
            let t = Instant::now();
            if op == Op::Reset {
                std::hint::black_box(namespace.reset(key));
                lane.reset_ns.push(ns(t.elapsed()));
            } else {
                let a = namespace
                    .acquire(kind, key, &mut lane.runner)
                    .expect("replay acquire");
                lane.acquire_ns.push(ns(t.elapsed()));
                lane.wins += u64::from(a.won);
            }
        }
    }) {
        out.ns_ops += lane.acquire_ns.len() as u64;
        out.ns_wins += lane.wins;
        out.ns_acquire_ns.extend(lane.acquire_ns);
        out.ns_reset_ns.extend(lane.reset_ns);
    }
    drop(namespace);

    // conn: each burst's wire bytes through its connection's machine.
    let namespace = namespace_with_keys(plan);
    let gauges = ConnGauges::default();
    let shapes = plan.workload.shapes().len();
    out.conn_ingest_ns = vec![Vec::new(); shapes];
    out.conn_mix = vec![(0, 0); shapes];
    for lane in replay_rounds(plan, budget, |lane, burst, shape| {
        lane.bytes.clear();
        for &(op, k) in burst {
            frame_request(op, &plan.keys[k], &mut lane.bytes);
        }
        let t = Instant::now();
        let status = lane.conn.ingest(&lane.bytes, &namespace, &gauges);
        let took = ns(t.elapsed());
        assert!(
            status == ConnStatus::Open && !lane.conn.output().is_empty(),
            "replayed burst was refused"
        );
        lane.conn.clear_output();
        let resets = burst.iter().filter(|&&(op, _)| op == Op::Reset).count();
        lane.bursts
            .push((shape, burst.len() - resets, resets, took));
    }) {
        for (shape, acquires, resets, took) in lane.bursts {
            out.conn_ingest_ns[shape].push(took);
            out.conn_mix[shape] = (acquires, resets);
        }
    }
    out
}
