//! Exhaustive exploration of schedules × coin outcomes.
//!
//! The offline crate set has no `loom`, so this module provides the
//! equivalent for our simulated machine: a depth-first enumeration of
//! **every** adversarial schedule and **every** coin outcome of a small
//! system (2–3 processes, bounded steps), invoking a checker on each
//! complete execution. The building blocks of the paper — splitters, the
//! 2-process leader election, the 3-process leader election, TAS-from-LE —
//! are verified this way: within the explored bounds the safety properties
//! are *proved*, not sampled.
//!
//! Random decisions are intercepted through [`crate::rng::Randomness`]:
//! every decision has a finite domain, so the decision tree (interleaved
//! scheduling choices and coin choices) is finite once the step budget is
//! bounded. Executions are replayed from scratch along each path; protocol
//! states are tiny, so this is fast up to millions of leaves.

use crate::executor::Runtime;
use crate::memory::Memory;
use crate::op::MemOp;
use crate::protocol::{Ctx, Notes, Protocol, Resume};
use crate::rng::Randomness;
use crate::word::{ProcessId, Word};

/// One entry of a decision script: the domain that was offered and the
/// branch that was taken.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Decision {
    domain: u64,
    chosen: u64,
}

/// A scripted randomness source: replays recorded coin decisions and flags
/// when fresh randomness is demanded beyond the script.
struct ScriptCursor<'a> {
    script: &'a [Decision],
    pos: usize,
    /// Domain of the first unscripted decision encountered, if any.
    need: Option<u64>,
}

impl Randomness for ScriptCursor<'_> {
    fn choose(&mut self, domain: u64) -> u64 {
        assert!(domain > 0, "choose with zero domain");
        if self.need.is_some() {
            // Already off-script: values are throwaway, the replay will be
            // discarded and restarted with a longer script.
            return 0;
        }
        if self.pos < self.script.len() {
            let d = self.script[self.pos];
            assert_eq!(
                d.domain, domain,
                "replay divergence: script domain {} vs requested {}",
                d.domain, domain
            );
            self.pos += 1;
            d.chosen
        } else {
            self.need = Some(domain);
            0
        }
    }

    fn bernoulli(&mut self, _p: f64) -> bool {
        // Exploration ignores weights: both branches are enumerated.
        self.choose(2) == 1
    }
}

/// Result of one completely explored execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Explored {
    /// Final outcome per process (`None` = still running when the per-path
    /// step budget ran out).
    pub outcomes: Vec<Option<Word>>,
    /// Total shared-memory steps taken on this path.
    pub total_steps: u64,
    /// Whether the path was truncated by the step budget.
    pub truncated: bool,
}

impl Explored {
    /// Ids of processes whose outcome equals `value`.
    pub fn with_outcome(&self, value: Word) -> Vec<ProcessId> {
        self.outcomes
            .iter()
            .enumerate()
            .filter(|(_, o)| **o == Some(value))
            .map(|(i, _)| ProcessId(i))
            .collect()
    }

    /// Whether all processes finished on this path.
    pub fn all_finished(&self) -> bool {
        self.outcomes.iter().all(|o| o.is_some())
    }
}

/// Configuration of an exploration.
#[derive(Debug, Clone, Copy)]
pub struct ExploreConfig {
    /// Per-path cap on total shared-memory steps. Paths hitting the cap are
    /// reported with `truncated = true`.
    pub max_steps: u64,
    /// Global cap on the number of explored complete paths.
    ///
    /// # Panics
    ///
    /// [`explore`] panics if the tree has more leaves than this — raise the
    /// limit or tighten the step budget.
    pub max_paths: u64,
}

impl Default for ExploreConfig {
    fn default() -> Self {
        ExploreConfig {
            max_steps: 64,
            max_paths: 20_000_000,
        }
    }
}

/// Statistics returned by [`explore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExploreStats {
    /// Number of complete paths (leaves) visited.
    pub paths: u64,
    /// Number of paths truncated by the step budget.
    pub truncated_paths: u64,
    /// Maximum decision depth reached.
    pub max_depth: usize,
}

enum ReplayEnd {
    /// Execution finished (or was truncated); leaf reached.
    Leaf(Explored),
    /// A fresh decision with this domain is required at the current depth.
    Need(u64),
}

/// Replay one path given the decision script. The first `script.len()`
/// decisions are forced; if the execution demands another decision, report
/// its domain instead of finishing.
fn replay<F>(factory: &F, script: &[Decision], max_steps: u64) -> ReplayEnd
where
    F: Fn() -> (Memory, Vec<Box<dyn Protocol>>),
{
    let (mut memory, protocols) = factory();
    let n = protocols.len();
    let mut runtimes: Vec<Runtime> = protocols.into_iter().map(Runtime::new).collect();
    let mut notes = vec![Notes::default(); n];
    let mut pos = 0usize; // cursor into `script`
    let mut steps = 0u64;

    // Advance a process until poised/finished, consuming coin decisions.
    // Returns the domain of a missing decision, if one was hit.
    macro_rules! advance {
        ($i:expr) => {{
            let mut cur = ScriptCursor {
                script,
                pos,
                need: None,
            };
            cur.pos = pos;
            let mut ctx = Ctx {
                pid: ProcessId($i),
                rng: &mut cur,
                notes: &mut notes[$i],
            };
            let _ = runtimes[$i].advance(&mut ctx);
            let need = cur.need;
            let new_pos = cur.pos;
            match need {
                Some(d) => Some(d),
                None => {
                    pos = new_pos;
                    None
                }
            }
        }};
    }

    for i in 0..n {
        if let Some(d) = advance!(i) {
            return ReplayEnd::Need(d);
        }
    }

    loop {
        let active: Vec<usize> = (0..n)
            .filter(|&i| runtimes[i].finished().is_none())
            .collect();
        if active.is_empty() || steps >= max_steps {
            return ReplayEnd::Leaf(Explored {
                outcomes: (0..n).map(|i| runtimes[i].finished()).collect(),
                total_steps: steps,
                truncated: !active.is_empty(),
            });
        }
        // Scheduling decision: which active process steps next.
        let idx = if active.len() == 1 {
            0
        } else if pos < script.len() {
            let d = script[pos];
            assert_eq!(d.domain, active.len() as u64, "schedule domain divergence");
            pos += 1;
            d.chosen as usize
        } else {
            return ReplayEnd::Need(active.len() as u64);
        };
        let i = active[idx];
        let op = runtimes[i].pending().expect("active process not poised");
        let input = match op {
            MemOp::Read(reg) => Resume::Read(memory.read(reg).value),
            MemOp::Write(reg, value) => {
                memory.write(reg, value, ProcessId(i));
                Resume::Wrote
            }
        };
        steps += 1;
        runtimes[i].feed(input);
        if let Some(d) = advance!(i) {
            return ReplayEnd::Need(d);
        }
    }
}

/// Exhaustively explore every schedule and coin outcome of the system
/// produced by `factory`, calling `check` on each complete path.
///
/// `factory` must be deterministic: each call must build an identical
/// initial system (fresh memory + fresh protocol states).
///
/// # Panics
///
/// Panics if the number of paths exceeds `config.max_paths`, or if a
/// replay diverges (which indicates a non-deterministic factory).
pub fn explore<F, C>(factory: F, config: ExploreConfig, mut check: C) -> ExploreStats
where
    F: Fn() -> (Memory, Vec<Box<dyn Protocol>>),
    C: FnMut(&Explored),
{
    let mut script: Vec<Decision> = Vec::new();
    let mut stats = ExploreStats::default();
    loop {
        match replay(&factory, &script, config.max_steps) {
            ReplayEnd::Need(domain) => {
                script.push(Decision { domain, chosen: 0 });
                stats.max_depth = stats.max_depth.max(script.len());
            }
            ReplayEnd::Leaf(explored) => {
                stats.paths += 1;
                if explored.truncated {
                    stats.truncated_paths += 1;
                }
                assert!(
                    stats.paths <= config.max_paths,
                    "exploration exceeded {} paths",
                    config.max_paths
                );
                check(&explored);
                // Backtrack: advance the deepest decision that has
                // remaining branches.
                while let Some(last) = script.last() {
                    if last.chosen + 1 < last.domain {
                        break;
                    }
                    script.pop();
                }
                match script.last_mut() {
                    Some(last) => last.chosen += 1,
                    None => return stats,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::Poll;
    use crate::word::RegId;

    /// Writes its id then reads, returning the value seen.
    struct WriteRead {
        reg: RegId,
        state: u8,
    }

    impl Protocol for WriteRead {
        fn resume(&mut self, input: Resume, ctx: &mut Ctx<'_>) -> Poll {
            match self.state {
                0 => {
                    self.state = 1;
                    Poll::Op(MemOp::Write(self.reg, ctx.pid.index() as Word + 1))
                }
                1 => {
                    self.state = 2;
                    Poll::Op(MemOp::Read(self.reg))
                }
                _ => Poll::Done(input.read_value()),
            }
        }
    }

    /// Flips one fair coin, returns it; no shared memory.
    struct OneCoin;
    impl Protocol for OneCoin {
        fn resume(&mut self, _input: Resume, ctx: &mut Ctx<'_>) -> Poll {
            Poll::Done(ctx.rng.coin() as Word)
        }
    }

    #[test]
    fn enumerates_all_interleavings_of_two_write_read() {
        // 2 processes × 2 ops each: the number of interleavings is
        // C(4,2) = 6; scheduling decisions only exist while both active.
        let mut outcomes = std::collections::HashSet::new();
        let stats = explore(
            || {
                let mut mem = Memory::new();
                let reg = mem.alloc(1, "t").start();
                let protos: Vec<Box<dyn Protocol>> = (0..2)
                    .map(|_| Box::new(WriteRead { reg, state: 0 }) as Box<dyn Protocol>)
                    .collect();
                (mem, protos)
            },
            ExploreConfig::default(),
            |e| {
                assert!(e.all_finished());
                outcomes.insert((e.outcomes[0], e.outcomes[1]));
            },
        );
        assert_eq!(stats.paths, 6);
        assert_eq!(stats.truncated_paths, 0);
        // Possible results: each process reads 1 or 2 depending on order,
        // but its own write always happened, so reads see the last write.
        assert!(outcomes.contains(&(Some(2), Some(2)))); // W0 W1 R0 R1
        assert!(outcomes.contains(&(Some(1), Some(1)))); // W1 W0 R1 R0
        assert!(outcomes.contains(&(Some(1), Some(2)))); // solo runs
                                                         // (2,1) would need both writes to precede each other — impossible.
        assert!(!outcomes.contains(&(Some(2), Some(1))));
    }

    #[test]
    fn enumerates_coin_outcomes() {
        let mut seen = std::collections::HashSet::new();
        let stats = explore(
            || (Memory::new(), vec![Box::new(OneCoin) as Box<dyn Protocol>]),
            ExploreConfig::default(),
            |e| {
                seen.insert(e.outcomes[0]);
            },
        );
        assert_eq!(stats.paths, 2);
        assert_eq!(seen.len(), 2);
    }

    #[test]
    fn coins_and_schedules_multiply() {
        // Two OneCoin processes: no shared ops, so no scheduling decisions;
        // 2 × 2 coin outcomes.
        let stats = explore(
            || {
                (
                    Memory::new(),
                    (0..2)
                        .map(|_| Box::new(OneCoin) as Box<dyn Protocol>)
                        .collect(),
                )
            },
            ExploreConfig::default(),
            |_| {},
        );
        assert_eq!(stats.paths, 4);
    }

    #[test]
    fn truncation_is_reported() {
        struct Spin {
            reg: RegId,
        }
        impl Protocol for Spin {
            fn resume(&mut self, _input: Resume, _ctx: &mut Ctx<'_>) -> Poll {
                Poll::Op(MemOp::Read(self.reg))
            }
        }
        let stats = explore(
            || {
                let mut mem = Memory::new();
                let reg = mem.alloc(1, "s").start();
                (mem, vec![Box::new(Spin { reg }) as Box<dyn Protocol>])
            },
            ExploreConfig {
                max_steps: 5,
                max_paths: 10,
            },
            |e| {
                assert!(e.truncated);
                assert_eq!(e.total_steps, 5);
                assert_eq!(e.outcomes[0], None);
            },
        );
        assert_eq!(stats.paths, 1);
        assert_eq!(stats.truncated_paths, 1);
    }

    #[test]
    fn geometric_capped_explores_all_branches() {
        struct Geo;
        impl Protocol for Geo {
            fn resume(&mut self, _input: Resume, ctx: &mut Ctx<'_>) -> Poll {
                Poll::Done(ctx.rng.geometric_capped(3))
            }
        }
        let mut seen = std::collections::HashSet::new();
        explore(
            || (Memory::new(), vec![Box::new(Geo) as Box<dyn Protocol>]),
            ExploreConfig::default(),
            |e| {
                seen.insert(e.outcomes[0].unwrap());
            },
        );
        assert_eq!(seen, [1, 2, 3].into_iter().collect());
    }
}
