//! Randomized 2-process leader election from two atomic registers.
//!
//! This object fills the role of the Tromp–Vitányi (2002) 2-process
//! test-and-set that the paper uses as a black box: a randomized,
//! wait-free leader election for two processes with **constant expected
//! step complexity against the adaptive adversary** (see DESIGN.md §3 for
//! the substitution note).
//!
//! ## The claim-round algorithm
//!
//! Each role `i ∈ {0,1}` owns a single-writer register `R[i]` holding a
//! triple `(round, coin, claim)`, initially `(0, 0, NO)`. A process at
//! round `r` repeatedly:
//!
//! 1. flips a fresh coin `c` and **announces** `R[me] := (r, c, NO)`;
//! 2. reads the peer register `(r', c', k')`:
//!    * peer **claim at round `r' ≥ r`** → lose;
//!    * peer ahead (`r' > r`, no claim) → set `r := r'`, re-announce;
//!    * peer behind (`r' < r`) → **claim**: write `R[me] := (r, c, CLAIM)`
//!      and *confirm* with a re-read (step 3);
//!    * same round, equal coins → advance to `r + 1`, re-announce;
//!    * same round, differing coins → coin 1 advances to `r + 1` (it will
//!      claim from there); coin 0 loses — unless this process itself
//!      claimed at round `r` earlier, in which case the peer's
//!      announcement may be the frozen last write of a process that
//!      already lost to that claim, so it advances instead;
//! 3. confirm re-read `(r₂, c₂, k₂)` after a claim:
//!    * peer claim at round `r₂ ≥ r` → lose;
//!    * peer still behind (`r₂ < r`) → **win**;
//!    * peer at the same round with coin 0 against our coin 1 → **win**
//!      (any value of ours the peer can still read makes it lose);
//!    * otherwise (same round equal coins, same round our coin 0, or peer
//!      ahead) → *withdraw*: re-announce with a fresh coin at round
//!      `max(r, r₂)` — exactly, never beyond, so a peer claim at that
//!      round is still caught by the next read (skipping a round past a
//!      live claim is how two winners could arise).
//!
//! Claims dominate *by round*: any visible peer claim at a round not
//! below yours is fatal. Two claims at the same round are impossible (a
//! happens-before cycle), so same-round claim comparisons never arise, and
//! a claim at a strictly lower round than yours belongs to a peer that
//! already lost to you — the confirm's `r₂ < r` rule wins over it soundly.
//!
//! Safety — never two winners; exactly one winner in every crash-free
//! complete execution — is machine-verified in the tests by exhaustively
//! exploring *all* schedules and coin outcomes up to a step budget
//! ([`rtas_sim::explore`]), and the expected step count is measured to be
//! a small constant under adaptive, lockstep, and random schedules.

use rtas_sim::memory::Memory;
use rtas_sim::op::MemOp;
use rtas_sim::protocol::{ret, Ctx, Poll, Protocol, Resume};
use rtas_sim::word::{RegId, Word};

use crate::object::RoleLeaderElect;

/// Claim flag values inside the packed register.
const NO: Word = 0;
const CLAIM: Word = 1;

/// Packed register value: `(round << 2) | (coin << 1) | claim`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Slot {
    round: Word,
    coin: Word,
    claim: Word,
}

impl Slot {
    fn pack(self) -> Word {
        (self.round << 2) | (self.coin << 1) | self.claim
    }

    fn unpack(v: Word) -> Slot {
        Slot {
            round: v >> 2,
            coin: (v >> 1) & 1,
            claim: v & 1,
        }
    }
}

/// Descriptor of one 2-process leader-election object (2 registers:
/// role `i` owns the `i`-th).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TwoProcessLe {
    base: RegId,
}

impl TwoProcessLe {
    /// Allocate the object's registers under the given label.
    pub fn new(memory: &mut Memory, label: &str) -> Self {
        TwoProcessLe::at(memory.alloc(2, label).start())
    }

    /// Build from a pre-allocated 2-register range (lazy structures).
    pub fn from_range(range: rtas_sim::memory::RegRange) -> Self {
        assert!(range.len() >= 2, "2-process LE needs 2 registers");
        TwoProcessLe::at(range.start())
    }

    /// The object whose 2 registers start at `base`.
    #[inline]
    pub fn at(base: RegId) -> Self {
        TwoProcessLe { base }
    }

    /// Number of registers the object occupies.
    pub const REGISTERS: u64 = 2;

    /// The frame of one `elect()` call as `role`.
    ///
    /// # Panics
    ///
    /// Panics if `role >= 2`.
    #[inline]
    pub fn frame(self, role: usize) -> TwoProcessFrame {
        assert!(role < 2, "2-process LE has roles 0 and 1, got {role}");
        TwoProcessFrame {
            le: self,
            role: role as u8,
            coin: 0,
            state: State::Announce,
            round: 1,
            claimed_round: None,
        }
    }
}

impl RoleLeaderElect for TwoProcessLe {
    fn roles(&self) -> usize {
        2
    }

    fn elect_as(&self, role: usize) -> Box<dyn Protocol> {
        Box::new(self.frame(role))
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    /// Flip a coin and write the announcement.
    Announce,
    /// Announcement written; issue the peer read.
    ReadPeer,
    /// Peer read returned; decide, possibly write a claim.
    DecideAfterRead,
    /// Claim written; issue the confirm read.
    Confirm,
    /// Confirm read returned; decide.
    DecideAfterConfirm,
}

/// One 2-process `elect()` call in progress.
#[derive(Debug, Clone, Copy)]
pub struct TwoProcessFrame {
    le: TwoProcessLe,
    role: u8,
    coin: u8,
    state: State,
    round: Word,
    /// Round of this process's most recent claim (withdrawn or not).
    /// Guards the tiebreak: a frozen peer announcement with the winning
    /// coin may belong to a victim of that claim, so it must not beat us.
    claimed_round: Option<Word>,
}

impl TwoProcessFrame {
    fn my_reg(&self) -> RegId {
        self.le.base.offset(u64::from(self.role))
    }

    fn peer_reg(&self) -> RegId {
        self.le.base.offset(u64::from(1 - self.role))
    }

    fn announce(&mut self, ctx: &mut Ctx<'_>) -> Poll {
        self.coin = ctx.rng.coin() as u8;
        self.state = State::ReadPeer;
        let v = Slot {
            round: self.round,
            coin: Word::from(self.coin),
            claim: NO,
        }
        .pack();
        Poll::Op(MemOp::Write(self.my_reg(), v))
    }

    fn claim(&mut self) -> Poll {
        self.claimed_round = Some(self.round);
        self.state = State::Confirm;
        let v = Slot {
            round: self.round,
            coin: Word::from(self.coin),
            claim: CLAIM,
        }
        .pack();
        Poll::Op(MemOp::Write(self.my_reg(), v))
    }
}

impl Protocol for TwoProcessFrame {
    #[inline(always)]
    fn resume(&mut self, input: Resume, ctx: &mut Ctx<'_>) -> Poll {
        let coin = Word::from(self.coin);
        match self.state {
            State::Announce => self.announce(ctx),
            State::ReadPeer => {
                self.state = State::DecideAfterRead;
                Poll::Op(MemOp::Read(self.peer_reg()))
            }
            State::DecideAfterRead => {
                let peer = Slot::unpack(input.read_value());
                if peer.claim == CLAIM && peer.round >= self.round {
                    return Poll::Done(ret::LOSE);
                }
                if peer.round > self.round {
                    // Peer ahead without a (relevant) claim: catch up.
                    self.round = peer.round;
                    return self.announce(ctx);
                }
                if peer.round < self.round {
                    // Peer behind (or holding a stale claim of a loser):
                    // claim the win and confirm.
                    return self.claim();
                }
                // Same round; a same-round peer claim was handled above.
                if peer.coin == coin {
                    self.round += 1;
                    return self.announce(ctx);
                }
                if coin == 0 {
                    if self.claimed_round == Some(self.round) {
                        // We withdrew a claim at this round; the peer's
                        // announcement may be frozen by that claim (it lost
                        // upon seeing it), so the tiebreak does not apply —
                        // move on instead of losing to a ghost.
                        self.round += 1;
                        return self.announce(ctx);
                    }
                    return Poll::Done(ret::LOSE);
                }
                // Tiebreak winner: advance instead of claiming; the peer
                // either already lost or will lose on its next read.
                self.round += 1;
                self.announce(ctx)
            }
            State::Confirm => {
                match input {
                    Resume::Wrote => {}
                    other => panic!("unexpected resume {other:?} in Confirm"),
                }
                self.state = State::DecideAfterConfirm;
                Poll::Op(MemOp::Read(self.peer_reg()))
            }
            State::DecideAfterConfirm => {
                let peer = Slot::unpack(input.read_value());
                if peer.claim == CLAIM && peer.round >= self.round {
                    return Poll::Done(ret::LOSE);
                }
                if peer.round < self.round {
                    return Poll::Done(ret::WIN);
                }
                if peer.round == self.round && coin == 1 && peer.coin == 0 {
                    // The peer can only ever observe our round-r state
                    // (announce or claim), and loses to either.
                    return Poll::Done(ret::WIN);
                }
                // Ambiguous: withdraw the claim by re-announcing at the
                // highest round seen — never one past it, so a peer claim
                // at that round is still detected by the next read.
                self.round = self.round.max(peer.round);
                self.announce(ctx)
            }
        }
    }

    fn name(&self) -> &'static str {
        "two-process-le"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtas_sim::adversary::{AdversaryClass, FnAdversary, RandomSchedule, RoundRobin, View};
    use rtas_sim::executor::Execution;
    use rtas_sim::explore::{explore, ExploreConfig, Explored};
    use rtas_sim::word::ProcessId;

    fn system() -> (Memory, Vec<Box<dyn Protocol>>) {
        let mut mem = Memory::new();
        let le = TwoProcessLe::new(&mut mem, "2le");
        (mem, vec![le.elect_as(0), le.elect_as(1)])
    }

    fn check_safety(e: &Explored) {
        let winners = e.with_outcome(ret::WIN).len();
        assert!(winners <= 1, "two winners: {:?}", e.outcomes);
        if e.all_finished() {
            assert_eq!(
                winners, 1,
                "complete execution without a winner: {:?}",
                e.outcomes
            );
        }
    }

    #[test]
    fn slot_packing_roundtrip() {
        for round in [0u64, 1, 2, 100] {
            for coin in [0u64, 1] {
                for claim in [NO, CLAIM] {
                    let s = Slot { round, coin, claim };
                    assert_eq!(Slot::unpack(s.pack()), s);
                }
            }
        }
        assert_eq!(
            Slot::unpack(0),
            Slot {
                round: 0,
                coin: 0,
                claim: NO
            }
        );
    }

    #[test]
    fn solo_run_wins_in_four_steps() {
        let mut mem = Memory::new();
        let le = TwoProcessLe::new(&mut mem, "2le");
        let res = Execution::new(mem, vec![le.elect_as(0)], 0).run(&mut RoundRobin::new(1));
        assert_eq!(res.outcome(ProcessId(0)), Some(ret::WIN));
        assert_eq!(res.steps().of(ProcessId(0)), 4);
    }

    #[test]
    fn solo_role_one_also_wins() {
        let mut mem = Memory::new();
        let le = TwoProcessLe::new(&mut mem, "2le");
        let res = Execution::new(mem, vec![le.elect_as(1)], 0).run(&mut RoundRobin::new(1));
        assert_eq!(res.outcome(ProcessId(0)), Some(ret::WIN));
    }

    #[test]
    fn random_schedules_have_unique_winner() {
        for seed in 0..300 {
            let (mem, protos) = system();
            let res = Execution::new(mem, protos, seed).run(&mut RandomSchedule::new(seed * 7));
            assert!(res.all_finished(), "seed {seed}");
            let winners = res.processes_with_outcome(ret::WIN).len();
            assert_eq!(winners, 1, "seed {seed}: {:?}", res.outcomes());
        }
    }

    #[test]
    fn exhaustive_safety_all_schedules_and_coins() {
        // Path counts grow ~5× per two extra steps, so the budget trades
        // depth for runtime. Both safety bugs found during development
        // manifested within 14 steps; 16 (debug) / 18 (release) gives
        // comfortable margin while keeping the test fast.
        let max_steps = if cfg!(debug_assertions) { 16 } else { 18 };
        let stats = explore(
            system,
            ExploreConfig {
                max_steps,
                max_paths: 40_000_000,
            },
            check_safety,
        );
        assert!(stats.paths > 1000, "explored {} paths", stats.paths);
    }

    #[test]
    fn expected_steps_constant_under_random_schedules() {
        let mut total = 0u64;
        let trials = 400;
        for seed in 0..trials {
            let (mem, protos) = system();
            let res = Execution::new(mem, protos, seed).run(&mut RandomSchedule::new(seed + 1));
            total += res.steps().max();
        }
        let mean = total as f64 / trials as f64;
        assert!(mean < 14.0, "mean max steps {mean}");
    }

    #[test]
    fn lockstep_round_robin_terminates_quickly() {
        let mut total = 0u64;
        let trials = 400;
        for seed in 0..trials {
            let (mem, protos) = system();
            let res = Execution::new(mem, protos, seed).run(&mut RoundRobin::new(2));
            assert!(res.all_finished());
            assert_eq!(res.processes_with_outcome(ret::WIN).len(), 1);
            total += res.steps().max();
        }
        let mean = total as f64 / trials as f64;
        assert!(mean < 18.0, "mean max steps {mean}");
    }

    #[test]
    fn adaptive_greedy_laggard_adversary_terminates() {
        // Adaptive strategy: always schedule the process with fewer steps
        // (keeps them in lockstep as tightly as possible).
        let mut total = 0u64;
        let trials = 300;
        for seed in 0..trials {
            let (mem, protos) = system();
            let mut adv = FnAdversary::new(AdversaryClass::Adaptive, |view: &View<'_>| {
                view.active().into_iter().min_by_key(|&p| view.steps_of(p))
            });
            let res = Execution::new(mem, protos, seed).run(&mut adv);
            assert!(res.all_finished());
            assert_eq!(res.processes_with_outcome(ret::WIN).len(), 1);
            total += res.steps().max();
        }
        let mean = total as f64 / trials as f64;
        assert!(mean < 22.0, "mean max steps {mean}");
    }

    #[test]
    fn one_crashed_peer_does_not_block_winner() {
        // P1 takes two steps then is never scheduled again; P0 must still
        // finish (wait-freedom) without producing a second winner.
        for seed in 0..50 {
            let (mem, protos) = system();
            let mut adv = FnAdversary::new(AdversaryClass::Adaptive, |view: &View<'_>| {
                if view.steps_of(ProcessId(1)) < 2 && view.is_active(ProcessId(1)) {
                    Some(ProcessId(1))
                } else if view.is_active(ProcessId(0)) {
                    Some(ProcessId(0))
                } else {
                    None
                }
            });
            let res = Execution::new(mem, protos, seed).run(&mut adv);
            assert!(res.outcome(ProcessId(0)).is_some(), "seed {seed}");
            assert!(res.processes_with_outcome(ret::WIN).len() <= 1);
        }
    }

    #[test]
    #[should_panic(expected = "roles 0 and 1")]
    fn bad_role_panics() {
        let mut mem = Memory::new();
        let le = TwoProcessLe::new(&mut mem, "2le");
        let _ = le.elect_as(2);
    }

    #[test]
    fn register_accounting() {
        let mut mem = Memory::new();
        let _ = TwoProcessLe::new(&mut mem, "2le");
        assert_eq!(mem.declared_registers(), TwoProcessLe::REGISTERS);
    }

    #[test]
    fn first_solo_step_is_a_write() {
        // Required by the covering argument of Section 5: a process running
        // solo must write before it can win.
        let mut mem = Memory::new();
        let le = TwoProcessLe::new(&mut mem, "2le");
        let mut seen_first_op = None;
        {
            let mut adv = FnAdversary::new(AdversaryClass::Adaptive, |view: &View<'_>| {
                if seen_first_op.is_none() {
                    seen_first_op = view.pending(ProcessId(0)).and_then(|p| p.kind);
                }
                view.active().first().copied()
            });
            let res = Execution::new(mem, vec![le.elect_as(0)], 0).run(&mut adv);
            assert!(res.all_finished());
        }
        assert_eq!(seen_first_op, Some(rtas_sim::op::OpKind::Write));
    }
}
