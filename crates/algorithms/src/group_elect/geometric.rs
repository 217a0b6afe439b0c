//! Figure 1: Group Election for the location-oblivious adversary.
//!
//! The object uses `ℓ + 1` array registers `R[1..ℓ+1]` (with `ℓ = ⌈log₂ n⌉`)
//! plus one `flag` register. `elect()`:
//!
//! ```text
//! 1  if flag.Read() = 1 return False
//! 2  flag.Write(1)
//! 3  choose x ∈ {1..ℓ} with Pr[x = i] = 2⁻ⁱ  (and 2^−(ℓ−1) at the cap)
//! 4  R[x].Write(1)
//! 5  if R[x+1].Read() = 0 return True
//! 6  return False
//! ```
//!
//! Lemma 2.2: step complexity O(1), space O(log n), and performance
//! parameter `f(k) ≤ 2·log₂ k + 6` against the location-oblivious
//! adversary — the adversary cannot see *which* `R[x]` a poised process
//! will write, so by deferred decisions the elected count is the number
//! of processes whose slot `x` is not followed by an earlier write to
//! `x + 1`. Experiment E1 regenerates this bound.

use rtas_sim::memory::Memory;
use rtas_sim::op::MemOp;
use rtas_sim::protocol::{ret, Ctx, Poll, Protocol, Resume};
use rtas_sim::word::{RegId, Word};

use super::GroupElect;

/// Descriptor of one geometric group election (Figure 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GeometricGroupElect {
    /// The `flag` register; `R[1..=ell+1]` follow it.
    flag: RegId,
    ell: u64,
}

impl GeometricGroupElect {
    /// Allocate a geometric group election sized for `n` processes
    /// (`ℓ = ⌈log₂ n⌉`, clamped to at least 1).
    pub fn new(memory: &mut Memory, n: usize, label: &str) -> Self {
        Self::with_ell(memory, ceil_log2(n.max(2)) as u64, label)
    }

    /// Allocate with an explicit array parameter `ℓ` (ablation knob: the
    /// paper fixes `ℓ = ⌈log₂ n⌉`; smaller caps concentrate the geometric
    /// distribution and raise the elected count for large `k`).
    ///
    /// # Panics
    ///
    /// Panics if `ell == 0`.
    pub fn with_ell(memory: &mut Memory, ell: u64, label: &str) -> Self {
        assert!(ell >= 1, "ell must be at least 1");
        let flag = memory.alloc(ell + 2, label).start(); // flag + R[1..=ell+1]
        GeometricGroupElect { flag, ell }
    }

    /// The array length parameter `ℓ`.
    pub fn ell(&self) -> u64 {
        self.ell
    }

    /// Registers used: `ℓ + 2`.
    pub fn registers(&self) -> u64 {
        self.ell + 2
    }

    /// The group election `i` strides after this one, in a block of
    /// equally sized group elections allocated one after the other.
    #[inline]
    pub(crate) fn nth(self, i: u64) -> Self {
        GeometricGroupElect {
            flag: self.flag.offset(i * self.registers()),
            ell: self.ell,
        }
    }

    /// The frame of one `elect()` call.
    #[inline]
    pub(crate) fn frame(self) -> GeometricFrame {
        GeometricFrame {
            ge: self,
            state: State::Start,
            x: 0,
        }
    }

    #[inline]
    fn r(&self, index: Word) -> RegId {
        debug_assert!((1..=self.ell + 1).contains(&index));
        self.flag.offset(index)
    }
}

/// `⌈log₂ n⌉` for `n ≥ 1` (so `ceil_log2(5) == 3`).
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn ceil_log2(n: usize) -> u32 {
    assert!(n >= 1);
    usize::BITS - (n - 1).leading_zeros()
}

impl GroupElect for GeometricGroupElect {
    fn elect(&self) -> Box<dyn Protocol> {
        Box::new(self.frame())
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Start,
    ReadFlag,
    WroteFlag,
    WroteSlot,
    ReadNext,
}

/// One geometric `elect()` call in progress.
#[derive(Debug, Clone, Copy)]
pub struct GeometricFrame {
    ge: GeometricGroupElect,
    state: State,
    x: Word,
}

impl Protocol for GeometricFrame {
    #[inline(always)]
    fn resume(&mut self, input: Resume, ctx: &mut Ctx<'_>) -> Poll {
        match self.state {
            State::Start => {
                self.state = State::ReadFlag;
                Poll::Op(MemOp::Read(self.ge.flag))
            }
            State::ReadFlag => {
                if input.read_value() == 1 {
                    return Poll::Done(ret::LOSE);
                }
                self.state = State::WroteFlag;
                Poll::Op(MemOp::Write(self.ge.flag, 1))
            }
            State::WroteFlag => {
                // Line 3: the geometric slot choice. This is the decision
                // the location-oblivious adversary cannot see.
                self.x = ctx.rng.geometric_capped(self.ge.ell);
                self.state = State::WroteSlot;
                Poll::Op(MemOp::Write(self.ge.r(self.x), 1))
            }
            State::WroteSlot => {
                self.state = State::ReadNext;
                Poll::Op(MemOp::Read(self.ge.r(self.x + 1)))
            }
            State::ReadNext => {
                if input.read_value() == 0 {
                    Poll::Done(ret::WIN)
                } else {
                    Poll::Done(ret::LOSE)
                }
            }
        }
    }

    fn name(&self) -> &'static str {
        "geometric-group-elect"
    }
}

#[cfg(test)]
mod tests {
    use super::super::run_group_election;
    use super::*;
    use rtas_sim::adversary::{RandomSchedule, RoundRobin};
    use rtas_sim::executor::Execution;
    use rtas_sim::explore::{explore, ExploreConfig};
    use rtas_sim::metrics::Aggregate;
    use rtas_sim::word::ProcessId;

    #[test]
    fn ceil_log2_values() {
        assert_eq!(ceil_log2(1), 0);
        assert_eq!(ceil_log2(2), 1);
        assert_eq!(ceil_log2(3), 2);
        assert_eq!(ceil_log2(4), 2);
        assert_eq!(ceil_log2(5), 3);
        assert_eq!(ceil_log2(1024), 10);
        assert_eq!(ceil_log2(1025), 11);
    }

    #[test]
    fn solo_caller_is_elected_in_four_steps() {
        let mut mem = Memory::new();
        let ge = GeometricGroupElect::new(&mut mem, 8, "ge");
        let res = Execution::new(mem, vec![ge.elect()], 1).run(&mut RoundRobin::new(1));
        assert_eq!(res.outcome(ProcessId(0)), Some(ret::WIN));
        assert_eq!(res.steps().total(), 4);
    }

    #[test]
    fn at_least_one_elected_random_schedules() {
        for k in [2usize, 3, 8, 32] {
            for seed in 0..40 {
                let mut mem = Memory::new();
                let ge = GeometricGroupElect::new(&mut mem, k.max(2), "ge");
                let (elected, finished) = run_group_election(
                    mem,
                    &ge,
                    k,
                    seed,
                    &mut RandomSchedule::new(seed * 11 + k as u64),
                );
                assert_eq!(finished, k);
                assert!(elected >= 1, "k={k} seed={seed}");
            }
        }
    }

    #[test]
    fn exhaustive_two_processes_at_least_one_elected() {
        let stats = explore(
            || {
                let mut mem = Memory::new();
                let ge = GeometricGroupElect::new(&mut mem, 4, "ge");
                (mem, (0..2).map(|_| ge.elect()).collect())
            },
            ExploreConfig::default(),
            |e| {
                assert!(e.all_finished());
                assert!(!e.with_outcome(ret::WIN).is_empty(), "{:?}", e.outcomes);
            },
        );
        assert_eq!(stats.truncated_paths, 0);
        assert!(stats.paths > 10);
    }

    #[test]
    fn performance_parameter_within_lemma_bound() {
        // Lemma 2.2: E[elected] ≤ 2·log₂ k + 6. Check the empirical mean
        // under random (oblivious) schedules with slack for sampling noise.
        for &k in &[4usize, 16, 64, 256] {
            let mut agg = Aggregate::new();
            for seed in 0..60 {
                let mut mem = Memory::new();
                let ge = GeometricGroupElect::new(&mut mem, 1024, "ge");
                let (elected, _) =
                    run_group_election(mem, &ge, k, seed, &mut RandomSchedule::new(seed * 31 + 7));
                agg.push(elected as f64);
            }
            let bound = 2.0 * (k as f64).log2() + 6.0;
            assert!(
                agg.mean() <= bound,
                "k={k}: mean elected {} > bound {bound}",
                agg.mean()
            );
        }
    }

    #[test]
    fn flag_shortcut_rejects_late_arrivals() {
        // Run one process to completion, then another: the second reads
        // flag == 1 and loses in one step.
        let mut mem = Memory::new();
        let ge = GeometricGroupElect::new(&mut mem, 4, "ge");
        let protos = vec![ge.elect(), ge.elect()];
        let mut adv = rtas_sim::adversary::ObliviousAdversary::new(
            rtas_sim::schedule::Schedule::from_pids([0, 0, 0, 0, 1]),
        )
        .then_fair();
        let res = Execution::new(mem, protos, 3).run(&mut adv);
        assert_eq!(res.outcome(ProcessId(0)), Some(ret::WIN));
        assert_eq!(res.outcome(ProcessId(1)), Some(ret::LOSE));
        assert_eq!(res.steps().of(ProcessId(1)), 1);
    }

    #[test]
    fn register_accounting_is_log_n() {
        let mut mem = Memory::new();
        let ge = GeometricGroupElect::new(&mut mem, 1024, "ge");
        assert_eq!(ge.ell(), 10);
        assert_eq!(mem.declared_registers(), 12);
        assert_eq!(ge.registers(), 12);
    }
}
