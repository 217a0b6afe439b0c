//! The three workloads and the seeded request stream every layer is
//! fed from.
//!
//! A [`Generator`] turns a [`Plan`] into *rounds*: one burst of frames
//! per connection, all of a round's bursts in flight together. The
//! wire run sends them through `Client::send_batch`; the layer replays
//! (`layers.rs`) feed the very same stream to `Connection::ingest`,
//! `Namespace::acquire`/`reset` and the bare `Arbiter`, so every layer
//! sees each workload's own per-epoch sequence.

use rtas::sim::rng::SplitMix64;
use rtas_svc::{Kind, Op};

/// Lockstep's offered rate, acquires per second (open loop, Poisson).
pub const LOCKSTEP_RATE: f64 = 5_000.0;
/// (TAS, RESET) pairs per pipelined burst: 32 frames per write.
pub const PIPELINE_PAIRS: usize = 16;
/// ELECT participants per hot key-epoch: the server's default capacity.
pub const HOT_PARTICIPANTS: usize = 64;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Open loop, one connection, 16 keys: every TAS is followed by its
    /// RESET, so nothing waits for a peer — per-round-trip costs.
    Lockstep,
    /// Closed loop, one connection, bursts of 16 (TAS, RESET) pairs
    /// round-robin over 4,096 keys — server CPU per operation.
    Pipelined,
    /// Closed loop, two connections, 4 hot keys, 64 ELECTs per
    /// key-epoch split 32/32 — many acquires per reset.
    HotElect,
}

impl Workload {
    /// Parse a `--workload` value.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "lockstep" => Some(Workload::Lockstep),
            "pipelined" => Some(Workload::Pipelined),
            "hot-elect" => Some(Workload::HotElect),
            _ => None,
        }
    }

    /// The workload's name as `--workload` spells it.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Lockstep => "lockstep",
            Workload::Pipelined => "pipelined",
            Workload::HotElect => "hot-elect",
        }
    }

    /// Keys the workload arbitrates.
    pub fn keys(self) -> usize {
        match self {
            Workload::Lockstep => 16,
            Workload::Pipelined => 4_096,
            Workload::HotElect => 4,
        }
    }

    /// Client connections the generator thread drives.
    pub fn conns(self) -> usize {
        match self {
            Workload::HotElect => 2,
            _ => 1,
        }
    }

    /// The keys' arbitration semantics.
    pub fn kind(self) -> Kind {
        match self {
            Workload::HotElect => Kind::Elect,
            _ => Kind::Tas,
        }
    }

    /// The acquire opcode for [`Workload::kind`].
    pub fn acquire_op(self) -> Op {
        match self.kind() {
            Kind::Tas => Op::Tas,
            Kind::Elect => Op::Elect,
        }
    }

    /// Whether requests are sent on a schedule (open loop) rather than
    /// when the previous round completes (closed loop).
    pub fn open_loop(self) -> bool {
        self == Workload::Lockstep
    }

    /// Distinct burst shapes, for per-shape round-trip accounting:
    /// lockstep's lone TAS and lone RESET, one shape otherwise.
    pub fn shapes(self) -> &'static [&'static str] {
        match self {
            Workload::Lockstep => &["TAS", "RESET"],
            Workload::Pipelined => &["16x(TAS,RESET)"],
            Workload::HotElect => &["RESET+64xELECT"],
        }
    }
}

/// The seeded inputs of one run: key names and key order.
#[derive(Debug)]
pub struct Plan {
    /// The workload.
    pub workload: Workload,
    /// The `--seed` every input derives from.
    pub seed: u64,
    /// Key bytes, by key index.
    pub keys: Vec<Vec<u8>>,
    /// Pipelined: the round-robin key permutation. Hot-elect: the key
    /// permutation whose halves alternate rounds.
    order: Vec<usize>,
    /// Hot-elect: per connection, which key of the round's half each
    /// of its 64 ELECT slots targets (32 each, seeded interleaving).
    slots: [Vec<usize>; 2],
}

fn shuffle<T>(items: &mut [T], rng: &mut SplitMix64) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.next_below(i as u64 + 1) as usize);
    }
}

impl Plan {
    /// Inputs for `workload` drawn from `seed`.
    pub fn new(workload: Workload, seed: u64) -> Plan {
        let keys = (0..workload.keys())
            .map(|k| format!("perfbench/{}/{k:04}", workload.name()).into_bytes())
            .collect();
        let mut rng = SplitMix64::split(seed, 1);
        let mut order: Vec<usize> = (0..workload.keys()).collect();
        shuffle(&mut order, &mut rng);
        let slots = [0, 1].map(|_| {
            let mut s: Vec<usize> = (0..HOT_PARTICIPANTS).map(|i| i % 2).collect();
            shuffle(&mut s, &mut rng);
            s
        });
        Plan {
            workload,
            seed,
            keys,
            order,
            slots,
        }
    }
}

/// One round: `bursts[c]` is what connection `c` sends, as
/// `(op, key index)` frames.
#[derive(Debug)]
pub struct Round {
    /// Per-connection bursts.
    pub bursts: Vec<Vec<(Op, usize)>>,
    /// Index into [`Workload::shapes`].
    pub shape: usize,
}

/// The deterministic request stream of a plan.
#[derive(Debug)]
pub struct Generator<'a> {
    plan: &'a Plan,
    rng: SplitMix64,
    round: u64,
    cursor: usize,
    last_key: usize,
    /// The current round's frames, reused.
    current: Round,
}

impl<'a> Generator<'a> {
    /// A stream over `plan`, starting at round 0 (all keys at a fresh
    /// epoch, as setup leaves them).
    pub fn new(plan: &'a Plan) -> Generator<'a> {
        Generator {
            plan,
            rng: SplitMix64::split(plan.seed, 2),
            round: 0,
            cursor: 0,
            last_key: 0,
            current: Round {
                bursts: vec![Vec::new(); plan.workload.conns()],
                shape: 0,
            },
        }
    }

    /// Advance to the next round.
    pub fn advance(&mut self) -> &Round {
        let r = self.round;
        self.round += 1;
        let round = &mut self.current;
        for b in &mut round.bursts {
            b.clear();
        }
        match self.plan.workload {
            // A TAS (sent at its scheduled instant), then its RESET as a
            // round of its own: group 1.
            Workload::Lockstep => {
                if r.is_multiple_of(2) {
                    self.last_key = self.rng.next_below(self.plan.keys.len() as u64) as usize;
                    round.bursts[0].push((Op::Tas, self.last_key));
                    round.shape = 0;
                } else {
                    round.bursts[0].push((Op::Reset, self.last_key));
                    round.shape = 1;
                }
            }
            Workload::Pipelined => {
                let n = self.plan.order.len();
                for _ in 0..PIPELINE_PAIRS {
                    let k = self.plan.order[self.cursor % n];
                    self.cursor += 1;
                    round.bursts[0].push((Op::Tas, k));
                    round.bursts[0].push((Op::Reset, k));
                }
            }
            // Halves of the key permutation alternate rounds. Each
            // epoch's RESET rides at the head of the next round's
            // bursts — one key per connection — and that half gets its
            // ELECTs only in the round after, once both connections'
            // acks are in: every epoch sees exactly 32 + 32 ELECTs.
            Workload::HotElect => {
                let half = |h: u64| &self.plan.order[(h as usize % 2) * 2..][..2];
                let (cur, prev) = (half(r), half(r + 1));
                for (c, burst) in round.bursts.iter_mut().enumerate() {
                    if r >= 1 {
                        burst.push((Op::Reset, prev[c]));
                    }
                    burst.extend(self.plan.slots[c].iter().map(|&s| (Op::Elect, cur[s])));
                }
            }
        }
        &self.current
    }
}
