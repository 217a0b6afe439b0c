//! Adversary independence (Section 4, Theorem 4.1).
//!
//! Given any leader election `A` designed for a weak (location- or
//! R/W-oblivious) adversary, the combiner runs `A` and RatRace **in
//! parallel, round-robin**: each process performs a RatRace step on odd
//! steps and an `A` step on even steps, with the combination rules:
//!
//! 1. winning *either* execution stops the other and sends the process to
//!    a top-level 2-process election `LEtop` (RatRace winner as role 0,
//!    `A` winner as role 1); winning `LEtop` wins the combined object;
//! 2. losing RatRace stops `A` and loses;
//! 3. losing `A` stops RatRace and loses — **unless** the process has
//!    already won a splitter in RatRace, in which case it abandons `A`
//!    and continues RatRace alone (this is what rules out executions
//!    where the two sides eliminate each other and nobody wins).
//!
//! The result (Theorem 4.1): O(log k) steps against the adaptive
//! adversary (RatRace's bound) *and* `A`'s step complexity against `A`'s
//! weak adversary — experiment E5 regenerates this table, pairing the
//! O(log* k) algorithm with the ascending-write attack of
//! [`crate::attacks`].
//!
//! Implementation note: the combiner is one [`CombinedFrame`] that keeps
//! each side as an inline stack of [`SideFrame`]s (at most three deep for
//! any backend) and interleaves the two sides' operation streams one
//! shared-memory operation at a time, exactly as the paper's round-robin
//! demands. Only `LEtop` is a child call.

use std::sync::Arc;

use rtas_primitives::TwoProcessLe;
use rtas_sim::memory::Memory;
use rtas_sim::op::MemOp;
use rtas_sim::protocol::{ret, Ctx, Poll, Protocol, Resume};
use rtas_sim::word::Word;

use crate::frame::{LeRoot, SideFrame, SideStack, StackFrame, Step};
use crate::ratrace::SpaceEfficientRatRace;
use crate::LeaderElect;

/// The Section 4 combined leader election.
#[derive(Debug, Clone, Copy)]
pub struct Combined {
    ratrace: SpaceEfficientRatRace,
    /// The weak side's `elect()`, in its initial state.
    weak: SideFrame,
    letop: TwoProcessLe,
}

impl Combined {
    /// Combine `weak` (an algorithm for a weak adversary) with a RatRace
    /// sized for `n` processes.
    ///
    /// # Panics
    ///
    /// Panics if `weak` is itself a combiner.
    pub fn new(memory: &mut Memory, weak: Arc<dyn LeaderElect>, n: usize) -> Self {
        let LeRoot::Side(weak) = weak.root() else {
            panic!("a combiner's weak side cannot itself be a combiner");
        };
        let ratrace = SpaceEfficientRatRace::new(memory, n);
        let letop = TwoProcessLe::new(memory, "combined-letop");
        Combined {
            ratrace,
            weak,
            letop,
        }
    }

    /// Build the per-process `elect()` protocol.
    pub fn elect(&self) -> Box<dyn Protocol> {
        LeaderElect::elect(self)
    }

    /// The frame of one `elect()` call.
    #[inline(always)]
    pub(crate) fn frame(self) -> CombinedFrame {
        CombinedFrame {
            rr: Side::new(SideFrame::RatRace(self.ratrace.frame())),
            weak: Side::new(self.weak),
            letop: self.letop,
            pending: None,
            next_turn: Turn::RatRace,
            state: State::Interleaving,
        }
    }
}

impl LeaderElect for Combined {
    fn root(&self) -> LeRoot {
        LeRoot::Combined(*self)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Turn {
    RatRace,
    Weak,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    /// Alternating steps between the two sides.
    Interleaving,
    /// Waiting for `LEtop`.
    AfterTop,
}

/// One side of the interleaving: its frame stack, the operation it is
/// poised on, and its result or stopped flag.
#[derive(Debug, Clone, Copy)]
struct Side {
    stack: SideStack,
    pending: Option<MemOp>,
    finished: Option<Word>,
    stopped: bool,
}

impl Side {
    #[inline]
    fn new(root: SideFrame) -> Self {
        Side {
            stack: SideStack::new(root),
            pending: None,
            finished: None,
            stopped: false,
        }
    }

    /// Whether this side can still take a step.
    #[inline]
    fn live(&self) -> bool {
        !self.stopped && self.finished.is_none()
    }
}

/// One combined `elect()` call in progress.
#[derive(Debug, Clone, Copy)]
pub struct CombinedFrame {
    rr: Side,
    weak: Side,
    letop: TwoProcessLe,
    pending: Option<Turn>,
    next_turn: Turn,
    state: State,
}

/// What the rule engine decided after a side produced a result.
enum RuleOutcome {
    /// Keep interleaving (or continuing one side).
    Continue,
    /// Enter `LEtop` with this role.
    Top(usize),
    /// The combined election is lost.
    Lose,
}

impl CombinedFrame {
    /// Apply rules 1–3 for a side that just finished with `value`.
    #[inline]
    fn on_side_finished(&mut self, side: Turn, value: Word, won_splitter: bool) -> RuleOutcome {
        match (side, value) {
            (Turn::RatRace, v) if v == ret::WIN => {
                // Rule 1: stop A, go for LEtop as the RatRace winner.
                self.weak.stopped = true;
                RuleOutcome::Top(0)
            }
            (Turn::RatRace, _) => {
                // Rule 2: losing RatRace loses everything.
                self.weak.stopped = true;
                RuleOutcome::Lose
            }
            (Turn::Weak, v) if v == ret::WIN => {
                // Rule 1: stop RatRace, go for LEtop as the A winner.
                self.rr.stopped = true;
                RuleOutcome::Top(1)
            }
            (Turn::Weak, _) => {
                if won_splitter {
                    // Rule 3 (exception): already holds a RatRace
                    // splitter — continue RatRace alone.
                    RuleOutcome::Continue
                } else {
                    // Rule 3: stop RatRace and lose.
                    self.rr.stopped = true;
                    RuleOutcome::Lose
                }
            }
        }
    }

    #[inline]
    fn side_mut(&mut self, turn: Turn) -> &mut Side {
        match turn {
            Turn::RatRace => &mut self.rr,
            Turn::Weak => &mut self.weak,
        }
    }
}

impl CombinedFrame {
    /// Resume `turn`'s side with `input` until it is poised on an
    /// operation or finished, applying the combination rules if it
    /// finished. Returns the combined election's next step when the rules
    /// decide it.
    #[inline(always)]
    fn advance(&mut self, turn: Turn, input: Resume, ctx: &mut Ctx<'_>) -> Option<Step> {
        let side = self.side_mut(turn);
        side.pending = None;
        let v = match side.stack.advance(input, ctx) {
            Poll::Op(op) => {
                side.pending = Some(op);
                return None;
            }
            Poll::Done(v) => v,
        };
        side.finished = Some(v);
        match self.on_side_finished(turn, v, ctx.notes.won_splitter) {
            RuleOutcome::Continue => None,
            RuleOutcome::Lose => Some(Step::Done(ret::LOSE)),
            RuleOutcome::Top(role) => {
                self.state = State::AfterTop;
                Some(Step::Call(SideFrame::TwoProcess(self.letop.frame(role))))
            }
        }
    }
}

impl StackFrame for CombinedFrame {
    #[inline(always)]
    fn step(&mut self, input: Resume, ctx: &mut Ctx<'_>) -> Step {
        if self.state == State::AfterTop {
            return Step::Done(input.child_value());
        }
        // Deliver the result of the op we issued on behalf of a side, or
        // bring both sides to their first operation. (One call site, so
        // the side dispatch is inlined once.)
        let sides = match self.pending.take() {
            Some(turn) => {
                match input {
                    Resume::Read(_) | Resume::Wrote => {}
                    other => panic!("unexpected resume {other:?} while interleaving"),
                }
                [Some(turn), None]
            }
            None => {
                debug_assert!(matches!(input, Resume::Start));
                [Some(Turn::RatRace), Some(Turn::Weak)]
            }
        };
        for turn in sides.into_iter().flatten() {
            if let Some(step) = self.advance(turn, input, ctx) {
                return step;
            }
        }
        // Every live side is now poised. Step the next one, alternating
        // when both are live.
        let turn = match (self.rr.live(), self.weak.live()) {
            (true, true) => {
                let t = self.next_turn;
                self.next_turn = match t {
                    Turn::RatRace => Turn::Weak,
                    Turn::Weak => Turn::RatRace,
                };
                t
            }
            (true, false) => Turn::RatRace,
            (false, true) => Turn::Weak,
            (false, false) => {
                // Both sides stopped without triggering a rule — only
                // possible if a side finished while stopped, which the
                // rules exclude; be safe and lose.
                debug_assert!(false, "combined: both sides dead without outcome");
                return Step::Done(ret::LOSE);
            }
        };
        let op = self.side_mut(turn).pending.expect("a live side is poised");
        self.pending = Some(turn);
        Step::Op(op)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logstar::LogStarLe;
    use rtas_sim::adversary::{AdversaryClass, FnAdversary, RandomSchedule, RoundRobin, View};
    use rtas_sim::executor::Execution;
    use rtas_sim::protocol::Protocol;
    use rtas_sim::word::ProcessId;

    fn combined_system(k: usize, n: usize) -> (Memory, Vec<Box<dyn Protocol>>) {
        let mut mem = Memory::new();
        let weak = Arc::new(LogStarLe::new(&mut mem, n));
        let comb = Combined::new(&mut mem, weak, n);
        let protos = (0..k).map(|_| comb.elect()).collect();
        (mem, protos)
    }

    #[test]
    fn solo_process_wins() {
        let (mem, protos) = combined_system(1, 8);
        let res = Execution::new(mem, protos, 0).run(&mut RoundRobin::new(1));
        assert_eq!(res.outcome(ProcessId(0)), Some(ret::WIN));
    }

    #[test]
    fn unique_winner_random_schedules() {
        for k in [2usize, 4, 10] {
            for seed in 0..40 {
                let (mem, protos) = combined_system(k, k);
                let res =
                    Execution::new(mem, protos, seed).run(&mut RandomSchedule::new(seed * 37));
                assert!(res.all_finished(), "k={k} seed={seed}");
                assert_eq!(
                    res.processes_with_outcome(ret::WIN).len(),
                    1,
                    "k={k} seed={seed}: {:?}",
                    res.outcomes()
                );
            }
        }
    }

    #[test]
    fn unique_winner_lockstep() {
        for k in [2usize, 6, 12] {
            for seed in 0..15 {
                let (mem, protos) = combined_system(k, k);
                let res = Execution::new(mem, protos, seed).run(&mut RoundRobin::new(k));
                assert!(res.all_finished());
                assert_eq!(res.processes_with_outcome(ret::WIN).len(), 1);
            }
        }
    }

    #[test]
    fn unique_winner_adaptive_laggard() {
        for seed in 0..20 {
            let (mem, protos) = combined_system(6, 6);
            let mut adv = FnAdversary::new(AdversaryClass::Adaptive, |view: &View<'_>| {
                view.active().into_iter().min_by_key(|&p| view.steps_of(p))
            });
            let res = Execution::new(mem, protos, seed).run(&mut adv);
            assert!(res.all_finished());
            assert_eq!(res.processes_with_outcome(ret::WIN).len(), 1);
        }
    }

    #[test]
    fn combined_with_ratrace_as_weak_side() {
        // The paper's pathological example: A = RatRace. The combination
        // rules must still produce exactly one winner.
        for seed in 0..20 {
            let k = 5;
            let mut mem = Memory::new();
            let weak = Arc::new(SpaceEfficientRatRace::new(&mut mem, k));
            let comb = Combined::new(&mut mem, weak, k);
            let protos = (0..k).map(|_| comb.elect()).collect();
            let res = Execution::new(mem, protos, seed).run(&mut RandomSchedule::new(seed));
            assert!(res.all_finished());
            assert_eq!(
                res.processes_with_outcome(ret::WIN).len(),
                1,
                "seed {seed}: {:?}",
                res.outcomes()
            );
        }
    }

    #[test]
    #[should_panic(expected = "cannot itself be a combiner")]
    fn combiner_cannot_be_a_weak_side() {
        let mut mem = Memory::new();
        let weak = Arc::new(LogStarLe::new(&mut mem, 4));
        let inner = Arc::new(Combined::new(&mut mem, weak, 4));
        let _ = Combined::new(&mut mem, inner, 4);
    }

    #[test]
    fn space_overhead_is_linear() {
        let mut mem = Memory::new();
        let weak = Arc::new(LogStarLe::new(&mut mem, 256));
        let weak_regs = mem.declared_registers();
        let _comb = Combined::new(&mut mem, weak, 256);
        let total = mem.declared_registers();
        assert!(
            total - weak_regs <= 40 * 256 + 200,
            "combiner overhead {} not Θ(n)",
            total - weak_regs
        );
    }
}
