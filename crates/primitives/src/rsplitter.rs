//! The randomized splitter of Attiya, Kuhn, Plaxton, Wattenhofer &
//! Wattenhofer (Distributed Computing 2006), as used by RatRace's primary
//! tree.
//!
//! Same register structure as the deterministic splitter, but a caller that
//! does not win returns `L` or `R` **independently with probability 1/2**
//! (so it is possible that all callers return the same direction). The two
//! guarantees that remain are: at most one `S`, and a solo caller gets `S`.
//! These weaker guarantees are what make the RatRace tree analysis a
//! balls-into-bins argument (Claim 3.2).

use rtas_sim::memory::Memory;
use rtas_sim::op::MemOp;
use rtas_sim::protocol::{ret, Ctx, Poll, Protocol, Resume};
use rtas_sim::word::{RegId, Word};

use crate::object::SplitterObject;

/// Descriptor of one randomized splitter (2 registers).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RSplitter {
    /// `X`; the door `Y` is the register after it.
    x: RegId,
}

impl RSplitter {
    /// Allocate a randomized splitter's registers under the given label.
    pub fn new(memory: &mut Memory, label: &str) -> Self {
        RSplitter::at(memory.alloc(2, label).start())
    }

    /// Build from a pre-allocated 2-register range (lazy structures).
    pub fn from_range(range: rtas_sim::memory::RegRange) -> Self {
        assert!(range.len() >= 2, "rsplitter needs 2 registers");
        RSplitter::at(range.start())
    }

    /// The randomized splitter whose 2 registers start at `base`.
    #[inline]
    pub fn at(base: RegId) -> Self {
        RSplitter { x: base }
    }

    /// Number of registers a randomized splitter occupies.
    pub const REGISTERS: u64 = 2;

    /// The frame of one `split()` call.
    #[inline]
    pub fn frame(self) -> RSplitFrame {
        RSplitFrame {
            sp: self,
            state: State::Init,
        }
    }

    #[inline]
    fn y(self) -> RegId {
        self.x.offset(1)
    }
}

impl SplitterObject for RSplitter {
    fn split(&self) -> Box<dyn Protocol> {
        Box::new(self.frame())
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Init,
    WroteX,
    ReadY,
    WroteY,
    ReadX,
}

/// One randomized `split()` call in progress.
#[derive(Debug, Clone, Copy)]
pub struct RSplitFrame {
    sp: RSplitter,
    state: State,
}

fn random_direction(ctx: &mut Ctx<'_>) -> Word {
    if ctx.rng.coin() {
        ret::SPLIT_LEFT
    } else {
        ret::SPLIT_RIGHT
    }
}

impl Protocol for RSplitFrame {
    #[inline(always)]
    fn resume(&mut self, input: Resume, ctx: &mut Ctx<'_>) -> Poll {
        let me = ctx.pid.index() as Word + 1;
        match self.state {
            State::Init => {
                self.state = State::WroteX;
                Poll::Op(MemOp::Write(self.sp.x, me))
            }
            State::WroteX => {
                self.state = State::ReadY;
                Poll::Op(MemOp::Read(self.sp.y()))
            }
            State::ReadY => {
                if input.read_value() != 0 {
                    return Poll::Done(random_direction(ctx));
                }
                self.state = State::WroteY;
                Poll::Op(MemOp::Write(self.sp.y(), 1))
            }
            State::WroteY => {
                self.state = State::ReadX;
                Poll::Op(MemOp::Read(self.sp.x))
            }
            State::ReadX => {
                if input.read_value() == me {
                    Poll::Done(ret::SPLIT_STOP)
                } else {
                    Poll::Done(random_direction(ctx))
                }
            }
        }
    }

    fn name(&self) -> &'static str {
        "rsplitter"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtas_sim::adversary::{RandomSchedule, RoundRobin};
    use rtas_sim::executor::Execution;
    use rtas_sim::explore::{explore, ExploreConfig};
    use rtas_sim::word::ProcessId;

    fn run_k(k: usize, seed: u64) -> Vec<Word> {
        let mut mem = Memory::new();
        let sp = RSplitter::new(&mut mem, "rsp");
        let protos = (0..k).map(|_| sp.split()).collect();
        let res = Execution::new(mem, protos, seed).run(&mut RandomSchedule::new(seed));
        assert!(res.all_finished());
        (0..k).map(|i| res.outcome(ProcessId(i)).unwrap()).collect()
    }

    #[test]
    fn solo_caller_stops() {
        assert_eq!(run_k(1, 3), vec![ret::SPLIT_STOP]);
    }

    #[test]
    fn at_most_one_stop_random_schedules() {
        for k in [2usize, 3, 8] {
            for seed in 0..60 {
                let outs = run_k(k, seed);
                let stops = outs.iter().filter(|&&o| o == ret::SPLIT_STOP).count();
                assert!(stops <= 1);
            }
        }
    }

    #[test]
    fn exhaustive_two_processes_at_most_one_stop() {
        let stats = explore(
            || {
                let mut mem = Memory::new();
                let sp = RSplitter::new(&mut mem, "rsp");
                (mem, (0..2).map(|_| sp.split()).collect())
            },
            ExploreConfig::default(),
            |e| {
                assert!(e.all_finished());
                let stops = e.with_outcome(ret::SPLIT_STOP).len();
                assert!(stops <= 1);
            },
        );
        assert_eq!(stats.truncated_paths, 0);
        assert!(stats.paths >= 6);
    }

    #[test]
    fn exhaustive_three_processes_at_most_one_stop() {
        let stats = explore(
            || {
                let mut mem = Memory::new();
                let sp = RSplitter::new(&mut mem, "rsp");
                (mem, (0..3).map(|_| sp.split()).collect())
            },
            ExploreConfig::default(),
            |e| {
                assert!(e.all_finished());
                assert!(e.with_outcome(ret::SPLIT_STOP).len() <= 1);
            },
        );
        assert_eq!(stats.truncated_paths, 0);
    }

    #[test]
    fn losers_directions_are_roughly_fair() {
        // Run many 2-process rounds in lockstep; the non-winner's direction
        // must be close to a fair coin.
        let mut lefts = 0u32;
        let mut total = 0u32;
        for seed in 0..2000 {
            let mut mem = Memory::new();
            let sp = RSplitter::new(&mut mem, "rsp");
            let protos = (0..2).map(|_| sp.split()).collect();
            let res = Execution::new(mem, protos, seed).run(&mut RoundRobin::new(2));
            for i in 0..2 {
                match res.outcome(ProcessId(i)).unwrap() {
                    x if x == ret::SPLIT_LEFT => {
                        lefts += 1;
                        total += 1;
                    }
                    x if x == ret::SPLIT_RIGHT => total += 1,
                    _ => {}
                }
            }
        }
        assert!(total > 0);
        let frac = lefts as f64 / total as f64;
        assert!((0.42..0.58).contains(&frac), "L fraction {frac}");
    }

    #[test]
    fn register_accounting() {
        let mut mem = Memory::new();
        let _sp = RSplitter::new(&mut mem, "rsp");
        assert_eq!(mem.declared_registers(), RSplitter::REGISTERS);
    }
}
