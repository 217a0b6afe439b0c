//! The end-to-end run: an in-process server, driven through the public
//! `Client` from this one thread, with every verdict checked.

use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use rtas_load::ArrivalSchedule;
use rtas_svc::obs::parse_metrics;
use rtas_svc::{Acquired, Client, Op, Response, Server, SvcConfig, SvcStats, TraceMode};

use crate::stats::{ns, quantiles, status_kb};
use crate::workload::{Generator, Plan, Round, Workload, LOCKSTEP_RATE};

/// Unmeasured traffic between set-up and measurement.
const WARMUP: Duration = Duration::from_millis(500);
/// Measurement window: end-to-end figures are read across windows
/// (`main.rs`), so a slow stretch of the host moves some windows and
/// not the result. Short windows let a run's calm stretches show.
pub const WINDOW: Duration = Duration::from_millis(50);
/// Latency samples one window may hold before its buffer grows: five
/// times what hot-elect's 50 ms windows hold, so a faster program does
/// not grow the harness's memory into `peak_rss_mb`.
const WINDOW_SAMPLES: usize = 1 << 18;
/// Set-ups an untraced run makes at least, the time it keeps setting
/// up for, and the most it makes: cheap set-ups (a few ms) repeat a
/// hundred times, so their median holds still.
const MIN_SETUPS: usize = 5;
const SETUP_BUDGET: Duration = Duration::from_millis(500);
const MAX_SETUPS: usize = 200;
/// Keys created per set-up burst.
const SETUP_BATCH: usize = 128;

/// A span of the traced run, kept in memory until the run ends.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// What the span times.
    pub name: SpanName,
    /// Burst shape (index into `Workload::shapes`).
    pub shape: u8,
    /// Duration in nanoseconds.
    pub ns: u64,
}

/// Span names, after the layer boundary they time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanName {
    /// Burst send to its last response decoded.
    Rtt,
    /// The `Client::send_batch` call.
    Send,
    /// The first `Client::recv` of the burst: waiting for the server.
    RecvWait,
    /// A round's due instant (closed loop: the previous round's
    /// completion) to its first send.
    Lag,
}

/// Everything one run measured.
#[derive(Debug, Default)]
pub struct Tally {
    /// Set-up durations, seconds (one per set-up performed).
    pub setup_s: Vec<f64>,
    /// RSS growth while creating keys in the first set-up, per key.
    pub bytes_per_key: f64,
    /// Acquire latency per verdict in the open window, ns.
    pub acquire_ns: Vec<u64>,
    /// RESET ack latency per ack in the open window, ns.
    pub ack_ns: Vec<u64>,
    /// Measured wall time, seconds.
    pub wall_s: f64,
    /// Per closed measurement window: acquire p50 and p99, ack p50 and
    /// p99 (ns), and verdicts per second.
    pub windows: Vec<[f64; 5]>,
    /// Requests sent in the measured phase.
    pub attempted: u64,
    /// ERR responses, wrong response kinds and transport errors.
    pub failed: u64,
    /// Verdicts decoded.
    pub verdicts: u64,
    /// Winning verdicts.
    pub wins: u64,
    /// RESET acks decoded.
    pub acks: u64,
    /// `Client::wire_writes` spent in the measured phase.
    pub writes: u64,
    /// Correctness violations (the first few, described).
    pub violations: Vec<String>,
    /// Traced runs: the spans, kept until the end.
    pub spans: Vec<Span>,
    /// Traced runs: `METRICS` instruments at the end of the run.
    pub metrics: Vec<(String, f64)>,
    /// Traced runs: `reactor.*` counter deltas over the measured phase.
    pub wake_writes: f64,
    /// As above, for `reactor.carryovers`.
    pub carryovers: f64,
    /// `VmHWM` at the end of the run less `VmRSS` before the server
    /// was spawned, kB: the server's memory, not the harness's.
    pub peak_rss_kb: u64,
    /// Keep-awake children that ran while traffic was measured.
    pub keep_awake: usize,
}

impl Tally {
    /// Close the open window, `secs` long: summarize and drop its
    /// samples.
    fn close_window(&mut self, secs: f64) {
        let a = quantiles(&mut self.acquire_ns, &[0.5, 0.99]);
        let k = quantiles(&mut self.ack_ns, &[0.5, 0.99]);
        let rate = self.acquire_ns.len() as f64 / secs;
        self.windows.push([a[0], a[1], k[0], k[1], rate]);
        self.acquire_ns.clear();
        self.ack_ns.clear();
    }

    fn violate(&mut self, msg: String) {
        if self.violations.len() < 8 {
            self.violations.push(msg);
        }
    }
}

/// The server config every run uses: the defaults, traced or not.
pub fn config(trace: TraceMode) -> SvcConfig {
    SvcConfig {
        trace,
        ..SvcConfig::default()
    }
}

struct Rig {
    server: Server,
    clients: Vec<Client>,
}

impl Rig {
    fn shutdown(self) {
        drop(self.clients);
        self.server.shutdown();
    }
}

fn acquired(resp: Response) -> Option<Acquired> {
    match resp {
        Response::Acquired(a) => Some(a),
        _ => None,
    }
}

fn reset_ack(resp: Response) -> Option<u64> {
    match resp {
        Response::Reset { epoch } => Some(epoch),
        _ => None,
    }
}

/// Spawn, connect, and create every key (one winning acquire and its
/// RESET each, leaving every key at a fresh epoch 1). Returns the rig,
/// the seconds it took, and the RSS growth while creating keys.
fn setup(plan: &Plan, trace: TraceMode) -> Result<(Rig, f64, u64), String> {
    let t0 = Instant::now();
    let server = Server::spawn(config(trace)).map_err(|e| format!("server spawn: {e}"))?;
    let mut rig = Rig {
        server,
        clients: Vec::new(),
    };
    let rss0 = status_kb("VmRSS");
    match create_keys(plan, &mut rig) {
        Ok(()) => {
            let grown = status_kb("VmRSS").saturating_sub(rss0) * 1024;
            Ok((rig, t0.elapsed().as_secs_f64(), grown))
        }
        Err(e) => {
            rig.shutdown();
            Err(e)
        }
    }
}

fn create_keys(plan: &Plan, rig: &mut Rig) -> Result<(), String> {
    for _ in 0..plan.workload.conns() {
        let client = Client::connect(rig.server.addr()).map_err(|e| format!("connect: {e}"))?;
        rig.clients.push(client);
    }
    let op = plan.workload.acquire_op();
    let client = &mut rig.clients[0];
    for chunk in plan.keys.chunks(SETUP_BATCH) {
        let reqs: Vec<(Op, &[u8])> = chunk
            .iter()
            .flat_map(|k| [(op, k.as_slice()), (Op::Reset, k.as_slice())])
            .collect();
        client
            .send_batch(&reqs)
            .map_err(|e| format!("setup send: {e}"))?;
        for _ in chunk {
            let a = client.recv().map_err(|e| format!("setup: {e}"))?;
            let r = client.recv().map_err(|e| format!("setup: {e}"))?;
            if acquired(a)
                != Some(Acquired {
                    won: true,
                    epoch: 0,
                })
                || reset_ack(r) != Some(1)
            {
                return Err("setup: a fresh key did not resolve to one winner".into());
            }
        }
    }
    Ok(())
}

/// Per-key epoch and winner bookkeeping: every key-epoch must yield
/// exactly one winning verdict, and every ack must open the next epoch.
struct Checker {
    epochs: Vec<u64>,
    wins: Vec<u32>,
    /// Keys with a failed request: their epochs are no longer predicted.
    tainted: Vec<bool>,
    touched: Vec<usize>,
}

impl Checker {
    fn new(keys: usize) -> Checker {
        Checker {
            epochs: vec![1; keys],
            wins: vec![0; keys],
            tainted: vec![false; keys],
            touched: Vec::new(),
        }
    }

    fn verdict(&mut self, k: usize, a: Acquired, tally: &mut Tally) {
        if !self.tainted[k] && a.epoch != self.epochs[k] {
            tally.violate(format!(
                "key {k}: verdict for epoch {} while epoch {} is open",
                a.epoch, self.epochs[k]
            ));
        }
        if self.wins[k] == 0 && !self.touched.contains(&k) {
            self.touched.push(k);
        }
        self.wins[k] += u32::from(a.won);
    }

    fn ack(&mut self, k: usize, epoch: u64, tally: &mut Tally) {
        if !self.tainted[k] && epoch != self.epochs[k] + 1 {
            tally.violate(format!(
                "key {k}: RESET opened epoch {epoch}, expected {}",
                self.epochs[k] + 1
            ));
        }
        self.epochs[k] = epoch;
    }

    /// Close a round: each key that got verdicts had one winner.
    fn end_round(&mut self, tally: &mut Tally) {
        for &k in &self.touched {
            if !self.tainted[k] && self.wins[k] != 1 {
                tally.violate(format!("key {k}: {} winners in one epoch", self.wins[k]));
            }
            self.wins[k] = 0;
        }
        self.touched.clear();
    }
}

/// Sends and receives rounds, timing and checking every response.
struct Rounds<'p> {
    plan: &'p Plan,
    checker: Checker,
    traced: bool,
    reqs: Vec<(Op, &'p [u8])>,
    sent_at: Vec<Instant>,
}

impl<'p> Rounds<'p> {
    /// Send every burst of `round`, then drain the responses connection
    /// by connection. `due` starts the acquire clock (open loop);
    /// otherwise each verdict is timed from its burst's send. `lag_from`
    /// is when the round should have gone out.
    fn round(
        &mut self,
        clients: &mut [Client],
        round: &Round,
        due: Option<Instant>,
        lag_from: Option<Instant>,
        tally: &mut Tally,
    ) -> Result<Instant, String> {
        let span = |name, start: Instant, end: Instant| Span {
            name,
            shape: round.shape as u8,
            ns: ns(end - start),
        };
        self.sent_at.clear();
        for (c, burst) in round.bursts.iter().enumerate() {
            self.reqs.clear();
            self.reqs.extend(
                burst
                    .iter()
                    .map(|&(op, k)| (op, self.plan.keys[k].as_slice())),
            );
            let t_send = Instant::now();
            if let (Some(from), true, 0) = (lag_from, self.traced, c) {
                tally
                    .spans
                    .push(span(SpanName::Lag, from.min(t_send), t_send));
            }
            tally.attempted += burst.len() as u64;
            clients[c].send_batch(&self.reqs).map_err(|e| {
                tally.failed += burst.len() as u64;
                format!("send: {e}")
            })?;
            if self.traced {
                tally
                    .spans
                    .push(span(SpanName::Send, t_send, Instant::now()));
            }
            self.sent_at.push(t_send);
        }
        let mut done = Instant::now();
        for (c, burst) in round.bursts.iter().enumerate() {
            let t_send = self.sent_at[c];
            let t_wait = Instant::now();
            for (i, &(op, k)) in burst.iter().enumerate() {
                let resp = clients[c].recv();
                done = Instant::now();
                if self.traced && i == 0 {
                    tally.spans.push(span(SpanName::RecvWait, t_wait, done));
                }
                let resp = match resp {
                    Ok(r) => r,
                    Err(e) => {
                        tally.failed += (burst.len() - i) as u64;
                        return Err(format!("recv: {e}"));
                    }
                };
                let kind_ok = match op {
                    Op::Reset => reset_ack(resp).map(|epoch| {
                        tally.ack_ns.push(ns(done - t_send));
                        tally.acks += 1;
                        self.checker.ack(k, epoch, tally);
                    }),
                    _ => acquired(resp).map(|a| {
                        tally.acquire_ns.push(ns(done - due.unwrap_or(t_send)));
                        tally.verdicts += 1;
                        tally.wins += u64::from(a.won);
                        self.checker.verdict(k, a, tally);
                    }),
                };
                // An ERR response is the wrong kind, too.
                if kind_ok.is_none() {
                    tally.failed += 1;
                    self.checker.tainted[k] = true;
                }
            }
            if self.traced {
                tally.spans.push(span(SpanName::Rtt, t_send, done));
            }
        }
        self.checker.end_round(tally);
        Ok(done)
    }
}

/// Busy-wait until `due`: a sleep overshoots by the timer's slack,
/// tens of microseconds that would read as generator lag.
fn wait_until(due: Instant) {
    while Instant::now() < due {
        std::hint::spin_loop();
    }
}

/// Drive `gen`: an open loop by its `arrivals`, a closed loop back to
/// back for `dur`. Closes a measurement window every [`WINDOW`].
fn drive(
    rounds: &mut Rounds<'_>,
    clients: &mut [Client],
    gen: &mut Generator<'_>,
    arrivals: Option<&ArrivalSchedule>,
    dur: Duration,
    tally: &mut Tally,
) -> Result<(), String> {
    let start = Instant::now();
    let mut prev = start;
    let mut opened = start;
    let mut window = |tally: &mut Tally, done: Instant| {
        if done - opened >= WINDOW {
            tally.close_window((done - opened).as_secs_f64());
            opened = done;
        }
    };
    if let Some(schedule) = arrivals {
        let origin = start + Duration::from_millis(1);
        for &at in schedule.starts_ns() {
            let due = origin + Duration::from_nanos(at);
            wait_until(due);
            rounds.round(clients, gen.advance(), Some(due), Some(due), tally)?;
            prev = rounds.round(clients, gen.advance(), None, None, tally)?;
            window(tally, prev);
        }
    } else {
        let deadline = start + dur;
        while prev < deadline {
            prev = rounds.round(clients, gen.advance(), None, Some(prev), tally)?;
            window(tally, prev);
        }
    }
    // A trailing window of at least half the length still counts.
    if prev - opened >= WINDOW / 2 {
        tally.close_window((prev - opened).as_secs_f64());
    }
    tally.wall_s = (prev - start).as_secs_f64();
    Ok(())
}

fn stats(client: &mut Client) -> Result<SvcStats, String> {
    client.stats().map_err(|e| format!("STATS: {e}"))
}

fn scrape(client: &mut Client) -> Result<Vec<(String, f64)>, String> {
    let text = client.metrics().map_err(|e| format!("METRICS: {e}"))?;
    parse_metrics(&text).ok_or_else(|| "METRICS: unparseable exposition".to_string())
}

/// The value of instrument `name` in a scrape (0 when absent).
pub fn metric(scrape: &[(String, f64)], name: &str) -> f64 {
    scrape
        .iter()
        .find(|(n, _)| n == name)
        .map_or(0.0, |&(_, v)| v)
}

/// One complete run: set-up, warm-up, `dur` of measured traffic, and
/// the server's own counters checked against the client's. With
/// `repeat_setup`, more set-ups follow, each shut down at once, until
/// there are [`MIN_SETUPS`] and [`SETUP_BUDGET`] has passed (at most
/// [`MAX_SETUPS`]): `setup_s` is the median of all of them, and
/// `peak_rss_kb` is read before them.
pub fn run(
    plan: &Plan,
    trace: TraceMode,
    repeat_setup: bool,
    dur: Duration,
) -> Result<Tally, String> {
    let mut tally = Tally::default();
    // Touch the sample buffers before the server exists, so that the
    // baseline holds all of the harness's own memory and the peak does
    // not depend on how many samples a window happened to hold.
    for buf in [&mut tally.acquire_ns, &mut tally.ack_ns] {
        buf.resize(WINDOW_SAMPLES, 1);
        buf.clear();
    }
    // Open-loop arrivals are made before the harness's memory is read,
    // too. Warm-up's come from a stream of their own, so the measured
    // schedule is the same whatever the warm-up length.
    let arrivals = plan.workload.open_loop().then(|| {
        [(WARMUP, !plan.seed), (dur, plan.seed)]
            .map(|(d, seed)| ArrivalSchedule::poisson(LOCKSTEP_RATE, d.as_secs_f64(), seed))
    });
    let harness_kb = status_kb("VmRSS");
    let (mut rig, secs, grown) = setup(plan, trace)?;
    tally.setup_s.push(secs);
    tally.bytes_per_key = grown as f64 / plan.keys.len() as f64;
    let measured = measure(
        plan,
        &mut rig,
        trace != TraceMode::Off,
        arrivals.as_ref(),
        dur,
        &mut tally,
    );
    rig.shutdown();
    measured?;
    tally.peak_rss_kb = status_kb("VmHWM").saturating_sub(harness_kb);
    let started = Instant::now();
    while repeat_setup
        && tally.setup_s.len() < MAX_SETUPS
        && (tally.setup_s.len() < MIN_SETUPS || started.elapsed() < SETUP_BUDGET)
    {
        let (rig, secs, _) = setup(plan, trace)?;
        tally.setup_s.push(secs);
        rig.shutdown();
    }
    Ok(tally)
}

fn measure(
    plan: &Plan,
    rig: &mut Rig,
    traced: bool,
    arrivals: Option<&[ArrivalSchedule; 2]>,
    dur: Duration,
    tally: &mut Tally,
) -> Result<(), String> {
    let awake = KeepAwake::start();
    tally.keep_awake = awake.0.len();
    let mut gen = Generator::new(plan);
    let mut rounds = Rounds {
        plan,
        checker: Checker::new(plan.keys.len()),
        traced: false,
        reqs: Vec::new(),
        sent_at: Vec::new(),
    };
    // Warm-up samples go to the measured run's buffers, which are
    // already touched.
    let mut warm = Tally {
        acquire_ns: std::mem::take(&mut tally.acquire_ns),
        ack_ns: std::mem::take(&mut tally.ack_ns),
        ..Tally::default()
    };
    drive(
        &mut rounds,
        &mut rig.clients,
        &mut gen,
        arrivals.map(|a| &a[0]),
        WARMUP,
        &mut warm,
    )?;
    if warm.failed > 0 {
        return Err(format!("{} requests failed during warm-up", warm.failed));
    }
    tally.violations = warm.violations;
    tally.acquire_ns = warm.acquire_ns;
    tally.ack_ns = warm.ack_ns;
    tally.acquire_ns.clear();
    tally.ack_ns.clear();

    let before = stats(&mut rig.clients[0])?;
    let scraped0 = if traced {
        scrape(&mut rig.clients[0])?
    } else {
        Vec::new()
    };
    let writes0: u64 = rig.clients.iter().map(Client::wire_writes).sum();
    rounds.traced = traced;
    let driven = drive(
        &mut rounds,
        &mut rig.clients,
        &mut gen,
        arrivals.map(|a| &a[1]),
        dur,
        tally,
    );
    tally.writes = rig.clients.iter().map(Client::wire_writes).sum::<u64>() - writes0;
    driven?;
    let after = stats(&mut rig.clients[0])?;
    if traced {
        tally.metrics = scrape(&mut rig.clients[0])?;
        let delta = |name| metric(&tally.metrics, name) - metric(&scraped0, name);
        tally.wake_writes = delta("reactor.wake_writes");
        tally.carryovers = delta("reactor.carryovers");
    }
    let counts = [
        ("ops", after.ops - before.ops, tally.verdicts),
        ("wins", after.wins - before.wins, tally.wins),
        ("resets", after.resets - before.resets, tally.acks),
    ];
    for (what, server, client) in counts {
        if server != client {
            tally.violate(format!(
                "server counted {server} {what}, the client {client}"
            ));
        }
    }
    Ok(())
}

/// The flag that turns this program into a keep-awake child.
pub const KEEP_AWAKE: &str = "--keep-awake";

/// Lowest-priority processes, one per CPU, that only yield, for as
/// long as this value lives. An idle virtual CPU halts, and how long
/// the host then takes to wake it flips between regimes minutes apart;
/// with no CPU ever idle, a wake-up costs a context switch, steadily.
/// At nice 19 they take next to no CPU time from the benchmark, and
/// because they yield, a woken thread never waits for them to use up
/// a time slice (a child that only spins can hold a CPU that long).
struct KeepAwake(Vec<Child>);

impl KeepAwake {
    /// Start one child per CPU. Where some cannot start, say so on
    /// standard error: idle CPUs then change what latencies read.
    fn start() -> KeepAwake {
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        let mut children = Vec::new();
        let mut error = None;
        match std::env::current_exe() {
            Ok(exe) => {
                for _ in 0..cpus {
                    match Command::new("nice")
                        .args(["-n", "19"])
                        .arg(&exe)
                        .arg(KEEP_AWAKE)
                        .stdin(Stdio::piped())
                        .stdout(Stdio::null())
                        .spawn()
                    {
                        Ok(child) => children.push(child),
                        Err(e) => error = Some(e.to_string()),
                    }
                }
            }
            Err(e) => error = Some(e.to_string()),
        }
        if let Some(e) = error {
            eprintln!(
                "perfbench: warning: {} of {cpus} keep-awake children started ({e}); \
                 latencies read higher while CPUs idle",
                children.len()
            );
        }
        KeepAwake(children)
    }
}

impl Drop for KeepAwake {
    fn drop(&mut self) {
        for child in &mut self.0 {
            drop(child.stdin.take());
        }
        for child in &mut self.0 {
            let _ = child.wait();
        }
    }
}

/// The keep-awake child: yield until standard input closes (the parent
/// exited or dropped its [`KeepAwake`]).
pub fn keep_awake_child() {
    let closed = AtomicBool::new(false);
    std::thread::scope(|s| {
        s.spawn(|| {
            let _ = std::io::copy(&mut std::io::stdin(), &mut std::io::sink());
            closed.store(true, Ordering::Relaxed);
        });
        while !closed.load(Ordering::Relaxed) {
            std::thread::yield_now();
        }
    });
}

/// Workload-level description for the report header.
pub fn describe(w: Workload) -> String {
    let c = config(TraceMode::Off);
    format!(
        "{}: {} keys, {} connection(s), 1 generator thread, {}; server {:?} capacity {} shards {} workers {} engine {:?}",
        w.name(),
        w.keys(),
        w.conns(),
        if w.open_loop() {
            format!("open loop at {LOCKSTEP_RATE} acquires/s")
        } else {
            "closed loop".to_string()
        },
        c.backend,
        c.capacity,
        c.shards,
        c.workers,
        c.engine,
    )
}
