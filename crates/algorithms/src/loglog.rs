//! Theorem 2.4: adaptive leader election with O(log log k) expected steps
//! against the R/W-oblivious adversary, from O(n) registers.
//!
//! Two layers, following Section 2.3:
//!
//! 1. **Non-adaptive core** — the Section 2.1 ladder instantiated with
//!    *sifting* group elections (Alistarh–Aspnes): round `i` uses write
//!    probability `π_i = 1/√s_i` where `s_i = n^(1/2^i)` is the expected
//!    survivor count, so Θ(log log n) rounds reduce the contenders to
//!    O(1).
//! 2. **Adaptivity wrapper** — a cascade of such ladders `LE₀, LE₁, …` of
//!    doubly-exponentially increasing capacity `n_j = 2^(2^(2^j))`
//!    (clamped at `n`). In ladder `j`, a process participates in only
//!    `Θ(log log n_j) = Θ(2^j)` levels; one that exhausts them without
//!    losing or winning a splitter **overflows** into `LE_{j+1}`. A
//!    process with true contention `k` stabilizes in the ladder with
//!    `log log n_j = Θ(log log k)` after O(log log k) total steps. The
//!    winner of each ladder enters a final chain of 2-process elections
//!    that decides the overall winner.
//!
//! The last ladder is sized for `n` with a full `n` levels (sifting
//! rounds followed by dummy group elections), so it can never overflow —
//! every execution elects exactly one leader.

use rtas_primitives::TwoProcessLe;
use rtas_sim::memory::Memory;
use rtas_sim::protocol::{ret, Protocol, Resume};
use rtas_sim::word::RegId;

use crate::frame::{LeRoot, SideFrame, Step};
use crate::group_elect::ceil_log2;
use crate::le_chain::{chain_ret, GeLevels, LeChain, OverflowPolicy};
use crate::LeaderElect;

/// The **non-adaptive** Alistarh–Aspnes leader election (the prior work
/// the paper's Theorem 2.4 makes adaptive): one Section 2.1 ladder with
/// Θ(log log n) sifting rounds followed by dummy levels up to `n`, giving
/// O(log log n) expected steps (in `n`, not `k`) from O(n) registers.
///
/// Kept as a distinct object because it is the baseline the paper
/// compares against; [`LogLogLe`] stacks these to get adaptivity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AaLe {
    chain: LeChain,
    sifting_rounds: usize,
}

impl AaLe {
    /// Build the structure for up to `n` processes.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(memory: &mut Memory, n: usize) -> Self {
        assert!(n >= 1, "need at least one process");
        let n_eff = n.max(4);
        let rounds = sifting_rounds(n_eff);
        let ges = GeLevels::sifting(memory, rounds, n_eff, "aa-sift");
        let chain = LeChain::new(
            memory,
            ges,
            rounds.max(n_eff),
            OverflowPolicy::Lose,
            "aa-ladder",
        );
        AaLe {
            chain,
            sifting_rounds: rounds,
        }
    }

    /// Number of sifting rounds (Θ(log log n)).
    pub fn sifting_rounds(&self) -> usize {
        self.sifting_rounds
    }

    /// Build the per-process `elect()` protocol.
    pub fn elect(&self) -> Box<dyn Protocol> {
        LeaderElect::elect(self)
    }
}

impl LeaderElect for AaLe {
    fn root(&self) -> LeRoot {
        self.chain.root()
    }
}

/// The Theorem 2.4 leader election.
///
/// Layout, one block from `first`: each stage's sifting rounds and then
/// its ladder, stage after stage, then one final 2-process election per
/// stage. Stage `j`'s capacity, round count and level count follow from
/// `n` alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LogLogLe {
    first: RegId,
    stages: usize,
    finals: RegId,
    n: usize,
}

/// Number of sifting rounds for a ladder sized for `cap` processes:
/// `⌈log₂ log₂ cap⌉ + 2`.
fn sifting_rounds(cap: usize) -> usize {
    let log = ceil_log2(cap.max(4)) as usize;
    let loglog = ceil_log2(log.max(2)) as usize;
    loglog + 2
}

/// Capacity of stage `j` of a cascade for `n_eff` processes:
/// `n_j = 2^(2^(2^j))` (4, 16, 65536, …), clamped at `n_eff`.
fn stage_cap(n_eff: usize, j: usize) -> usize {
    let e = 1u32.checked_shl(j as u32).unwrap_or(u32::MAX); // n_j = 2^(2^e)
    if e >= 6 {
        n_eff // 2^64 and beyond: clamp
    } else {
        (1u64 << (1u64 << e)).min(n_eff as u64) as usize
    }
}

impl LogLogLe {
    /// Build the structure for up to `n` processes.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(memory: &mut Memory, n: usize) -> Self {
        assert!(n >= 1, "need at least one process");
        let n_eff = n.max(4);
        // Stage capacities 4, 16, 65536, …, up to the first that reaches n.
        let stages = (0..)
            .position(|j| stage_cap(n_eff, j) >= n_eff)
            .expect("the cascade reaches n")
            + 1;
        let mut first = None;
        for j in 0..stages {
            let cap = stage_cap(n_eff, j);
            let rounds = sifting_rounds(cap);
            let ges = GeLevels::sifting(memory, rounds, cap, "loglog-sift");
            if let GeLevels::Sifting { first: reg, .. } = ges {
                first.get_or_insert(reg);
            }
            let (levels, policy) = stage_shape(n_eff, j, stages);
            LeChain::new(memory, ges, levels, policy, "loglog-ladder");
        }
        let finals = memory
            .alloc(TwoProcessLe::REGISTERS, "loglog-final")
            .start();
        for _ in 1..stages {
            memory.alloc(TwoProcessLe::REGISTERS, "loglog-final");
        }
        LogLogLe {
            first: first.expect("every stage has sifting rounds"),
            stages,
            finals,
            n,
        }
    }

    /// Maximum number of participating processes.
    pub fn capacity(&self) -> usize {
        self.n
    }

    /// Number of ladders in the cascade.
    pub fn stages(&self) -> usize {
        self.stages
    }

    /// Build the per-process `elect()` protocol.
    pub fn elect(&self) -> Box<dyn Protocol> {
        LeaderElect::elect(self)
    }

    /// The frame of one `elect()` call.
    #[inline]
    pub(crate) fn frame(self) -> LogLogFrame {
        LogLogFrame {
            le: self,
            state: State::Stage,
            index: 0,
        }
    }

    /// Ladder `j` of the cascade.
    fn stage(self, j: usize) -> LeChain {
        let n_eff = self.n.max(4);
        let mut at = self.first;
        for i in 0.. {
            let cap = stage_cap(n_eff, i);
            let rounds = sifting_rounds(cap);
            let (levels, policy) = stage_shape(n_eff, i, self.stages);
            let ges = GeLevels::Sifting {
                first: at,
                count: rounds,
                cap,
            };
            let ladder = at.offset(rounds as u64);
            let chain = LeChain::at(ladder, levels, ges, policy);
            if i == j {
                return chain;
            }
            at = ladder.offset(chain.ladder_registers());
        }
        unreachable!("stage {j} past the cascade")
    }

    #[inline]
    fn final_le(self, j: usize) -> TwoProcessLe {
        TwoProcessLe::at(self.finals.offset(j as u64 * TwoProcessLe::REGISTERS))
    }
}

/// Levels and overflow policy of stage `j` of `stages`: an early stage
/// has one level per sifting round and overflows into the next; the last
/// pads with dummies to `n_eff` levels so it can never overflow (each
/// splitter retires ≥ 1 process).
fn stage_shape(n_eff: usize, j: usize, stages: usize) -> (usize, OverflowPolicy) {
    let rounds = sifting_rounds(stage_cap(n_eff, j));
    if j + 1 == stages {
        (rounds.max(n_eff), OverflowPolicy::Lose)
    } else {
        (rounds, OverflowPolicy::Overflow)
    }
}

impl LeaderElect for LogLogLe {
    fn root(&self) -> LeRoot {
        LeRoot::Side(SideFrame::LogLog(self.frame()))
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    /// About to enter ladder `index`.
    Stage,
    /// Waiting for ladder `index`.
    AfterStage,
    /// About to play final `index` as role 0 (fresh stage winner).
    FinalAsWinner,
    /// About to play final `index` as role 1 (came from final `index+1`).
    FinalAsClimber,
    /// Waiting for final `index`.
    AfterFinal,
}

/// One cascade `elect()` call in progress.
#[derive(Debug, Clone, Copy)]
pub struct LogLogFrame {
    le: LogLogLe,
    state: State,
    index: usize,
}

impl LogLogFrame {
    #[inline(always)]
    pub(crate) fn step(&mut self, input: Resume) -> Step {
        loop {
            match self.state {
                State::Stage => {
                    self.state = State::AfterStage;
                    return Step::Call(SideFrame::Chain(self.le.stage(self.index).frame()));
                }
                State::AfterStage => match input.child_value() {
                    v if v == chain_ret::WIN => {
                        self.state = State::FinalAsWinner;
                    }
                    v if v == chain_ret::LOSE => return Step::Done(ret::LOSE),
                    v if v == chain_ret::OVERFLOW => {
                        self.index += 1;
                        debug_assert!(self.index < self.le.stages);
                        self.state = State::Stage;
                    }
                    other => panic!("invalid stage result {other}"),
                },
                State::FinalAsWinner => {
                    self.state = State::AfterFinal;
                    return Step::Call(SideFrame::TwoProcess(
                        self.le.final_le(self.index).frame(0),
                    ));
                }
                State::FinalAsClimber => {
                    self.state = State::AfterFinal;
                    return Step::Call(SideFrame::TwoProcess(
                        self.le.final_le(self.index).frame(1),
                    ));
                }
                State::AfterFinal => {
                    if input.child_value() == ret::LOSE {
                        return Step::Done(ret::LOSE);
                    }
                    if self.index == 0 {
                        return Step::Done(ret::WIN);
                    }
                    self.index -= 1;
                    self.state = State::FinalAsClimber;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::le_chain::sifting_probability;
    use rtas_sim::adversary::{RandomSchedule, RoundRobin};
    use rtas_sim::executor::Execution;
    use rtas_sim::word::ProcessId;

    #[test]
    fn sifting_rounds_grow_doubly_logarithmically() {
        assert!(sifting_rounds(4) <= 4);
        assert!(sifting_rounds(65536) <= 7);
        assert!(sifting_rounds(1 << 20) <= 8);
    }

    #[test]
    fn probability_schedule_is_decreasing_in_survivors() {
        let probs: Vec<f64> = (0..5).map(|i| sifting_probability(65536, i)).collect();
        assert_eq!(probs.len(), 5);
        // π grows as survivors shrink.
        for w in probs.windows(2) {
            assert!(w[1] >= w[0]);
        }
        assert!((probs[0] - 1.0 / 256.0).abs() < 1e-9);
    }

    #[test]
    fn solo_process_wins() {
        let mut mem = Memory::new();
        let le = LogLogLe::new(&mut mem, 16);
        let res = Execution::new(mem, vec![le.elect()], 0).run(&mut RoundRobin::new(1));
        assert_eq!(res.outcome(ProcessId(0)), Some(ret::WIN));
    }

    #[test]
    fn unique_winner_random_schedules() {
        for k in [2usize, 4, 10, 32] {
            for seed in 0..30 {
                let mut mem = Memory::new();
                let le = LogLogLe::new(&mut mem, k);
                let protos = (0..k).map(|_| le.elect()).collect();
                let res =
                    Execution::new(mem, protos, seed).run(&mut RandomSchedule::new(seed * 41));
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
        for k in [2usize, 6, 16] {
            for seed in 0..15 {
                let mut mem = Memory::new();
                let le = LogLogLe::new(&mut mem, k);
                let protos = (0..k).map(|_| le.elect()).collect();
                let res = Execution::new(mem, protos, seed).run(&mut RoundRobin::new(k));
                assert!(res.all_finished());
                assert_eq!(res.processes_with_outcome(ret::WIN).len(), 1);
            }
        }
    }

    #[test]
    fn aa_le_solo_wins() {
        let mut mem = Memory::new();
        let le = AaLe::new(&mut mem, 16);
        let res = Execution::new(mem, vec![le.elect()], 0).run(&mut RoundRobin::new(1));
        assert_eq!(res.outcome(ProcessId(0)), Some(ret::WIN));
    }

    #[test]
    fn aa_le_unique_winner_random_schedules() {
        for k in [2usize, 6, 20] {
            for seed in 0..25 {
                let mut mem = Memory::new();
                let le = AaLe::new(&mut mem, k);
                let protos = (0..k).map(|_| le.elect()).collect();
                let res =
                    Execution::new(mem, protos, seed).run(&mut RandomSchedule::new(seed * 53));
                assert!(res.all_finished(), "k={k} seed={seed}");
                assert_eq!(
                    res.processes_with_outcome(ret::WIN).len(),
                    1,
                    "k={k} seed={seed}"
                );
            }
        }
    }

    #[test]
    fn aa_le_sifting_round_count() {
        let mut mem = Memory::new();
        let le = AaLe::new(&mut mem, 1 << 16);
        // ⌈log₂ log₂ 65536⌉ + 2 = 6.
        assert_eq!(le.sifting_rounds(), 6);
    }

    #[test]
    fn stages_tile_the_cascade_block() {
        // Each stage's sifting rounds and ladder sit right after the
        // previous stage's; the finals follow the last ladder.
        for n in [4usize, 16, 17, 100, 1 << 16] {
            let mut mem = Memory::new();
            let le = LogLogLe::new(&mut mem, n);
            let mut end = le.first;
            for j in 0..le.stages() {
                let chain = le.stage(j);
                let (levels, _) = stage_shape(n.max(4), j, le.stages());
                assert_eq!(chain.levels(), levels, "n={n} stage {j}");
                end = end.offset(sifting_rounds(stage_cap(n.max(4), j)) as u64);
                end = end.offset(chain.ladder_registers());
            }
            assert_eq!(end, le.finals, "n={n}");
            let total = le.finals.offset(le.stages() as u64 * 2);
            assert_eq!(total.0, mem.declared_registers(), "n={n}");
        }
    }

    #[test]
    fn stage_count_is_tiny() {
        let mut mem = Memory::new();
        let le = LogLogLe::new(&mut mem, 1 << 16);
        // 4, 16, 65536 → 3 stages.
        assert_eq!(le.stages(), 3);
    }

    #[test]
    fn space_is_linear_in_n() {
        for n in [64usize, 256, 1024] {
            let mut mem = Memory::new();
            let _le = LogLogLe::new(&mut mem, n);
            let declared = mem.declared_registers();
            assert!(
                declared <= 8 * n as u64 + 400,
                "n={n}: {declared} registers not O(n)"
            );
        }
    }

    #[test]
    fn low_contention_on_big_structure_is_fast() {
        // k = 4 on an n = 1024 structure: the process should stabilize in
        // an early stage; steps should be far below log n territory.
        let mut total = 0u64;
        let trials = 20;
        for seed in 0..trials {
            let mut mem = Memory::new();
            let le = LogLogLe::new(&mut mem, 1024);
            let protos = (0..4).map(|_| le.elect()).collect();
            let res = Execution::new(mem, protos, seed).run(&mut RandomSchedule::new(seed));
            assert!(res.all_finished());
            assert_eq!(res.processes_with_outcome(ret::WIN).len(), 1);
            total += res.steps().max();
        }
        let mean = total as f64 / trials as f64;
        assert!(mean < 60.0, "mean max steps {mean}");
    }
}
