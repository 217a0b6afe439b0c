//! The space-efficient RatRace (Section 3.2): Θ(n) registers, O(log k)
//! expected steps against the adaptive adversary.
//!
//! Structure:
//!
//! * a complete binary **primary tree** of height `⌈log₂ n⌉`, each node
//!   holding a randomized splitter and a 3-process leader election;
//! * `⌈leaves / log n⌉` **overflow elimination paths** of length
//!   `4·⌈log₂ n⌉`; a process that falls off leaf `j` enters path
//!   `⌊j / log n⌋`; the winner of path `i` re-enters the tree at leaf `i`
//!   and climbs;
//! * one length-`n` **backup elimination path** for processes that fall
//!   off an overflow path (Claims 3.1/3.2 make this w.h.p. unreachable);
//! * a top-level 2-process election between the tree winner and the
//!   backup winner.
//!
//! Descent: at node `v`, try `RSplitter_v`; `S` stops and climbs, `L`/`R`
//! move to the corresponding child. Climb: win the 3-process election of
//! every node back to the root (role 2 where the splitter was won, role
//! 0/1 at ancestors according to the child the process came from; an
//! overflow-path winner enters its leaf as role 0).

use rtas_primitives::{RSplitter, ThreeProcessLe, TwoProcessLe};
use rtas_sim::memory::Memory;
use rtas_sim::protocol::{ret, Ctx, Protocol, Resume};
use rtas_sim::word::RegId;

use crate::elimination_path::{path_ret, EliminationPath};
use crate::frame::{LeRoot, SideFrame, Step};
use crate::group_elect::ceil_log2;
use crate::LeaderElect;

/// Registers per tree node: a randomized splitter (2) and a 3-process
/// election (4).
const NODE_REGISTERS: u64 = RSplitter::REGISTERS + ThreeProcessLe::REGISTERS;

/// The Section 3.2 leader election.
///
/// Layout, one block from `tree`: the `2 · 2^height` heap-ordered tree
/// nodes at 6 registers each (node 0 is unused padding; the root is node
/// 1 and the children of `i` are `2i` and `2i + 1`), then the overflow
/// paths, the backup path and `LEtop`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpaceEfficientRatRace {
    tree: RegId,
    height: u32,
    /// `⌈log₂ n⌉` (at least 1), used for the leaf → path mapping.
    log_n: usize,
    /// Number of overflow paths.
    paths: usize,
    backup: EliminationPath,
    letop: TwoProcessLe,
    n: usize,
}

impl SpaceEfficientRatRace {
    /// Build the structure for up to `n` processes.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(memory: &mut Memory, n: usize) -> Self {
        assert!(n >= 1, "need at least one process");
        let n_eff = n.max(2);
        let height = ceil_log2(n_eff);
        let leaves = 1usize << height;
        let node_count = 2 * leaves; // indices 1 .. 2*leaves - 1, plus pad 0
        let mut tree = None;
        for _ in 0..node_count {
            let node = memory.alloc(RSplitter::REGISTERS, "ratrace-tree").start();
            ThreeProcessLe::new(memory, "ratrace-tree");
            tree.get_or_insert(node);
        }
        let tree = tree.expect("the tree has nodes");
        let log_n = (height as usize).max(1);
        let paths = leaves.div_ceil(log_n);
        for _ in 0..paths {
            EliminationPath::new(memory, 4 * log_n, "ratrace-overflow-path");
        }
        let backup = EliminationPath::new(memory, n_eff, "ratrace-backup-path");
        let letop = TwoProcessLe::new(memory, "ratrace-letop");
        SpaceEfficientRatRace {
            tree,
            height,
            log_n,
            paths,
            backup,
            letop,
            n,
        }
    }

    /// Maximum number of participating processes.
    pub fn capacity(&self) -> usize {
        self.n
    }

    /// Primary-tree height.
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Number of overflow elimination paths.
    pub fn overflow_paths(&self) -> usize {
        self.paths
    }

    /// Build the per-process `elect()` protocol.
    pub fn elect(&self) -> Box<dyn Protocol> {
        LeaderElect::elect(self)
    }

    /// The frame of one `elect()` call.
    #[inline]
    pub(crate) fn frame(self) -> RatRaceFrame {
        RatRaceFrame {
            rr: self,
            state: State::Split,
            node: 1,
            role: 2,
        }
    }

    /// First leaf index: `2^height`.
    #[inline]
    fn leaf_base(self) -> usize {
        1 << self.height
    }

    /// Heap index one past the last tree node.
    #[inline]
    fn nodes(self) -> usize {
        2 * self.leaf_base()
    }

    #[inline]
    fn node(self, index: usize) -> RegId {
        self.tree.offset(index as u64 * NODE_REGISTERS)
    }

    /// Overflow path `index`; the paths follow the tree.
    #[inline]
    fn path(self, index: usize) -> EliminationPath {
        let length = 4 * self.log_n;
        let stride = EliminationPath::at(self.tree, length).registers();
        EliminationPath::at(
            self.node(self.nodes()).offset(index as u64 * stride),
            length,
        )
    }
}

impl LeaderElect for SpaceEfficientRatRace {
    fn root(&self) -> LeRoot {
        LeRoot::Side(SideFrame::RatRace(self.frame()))
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    /// About to try the splitter at `node`.
    Split,
    /// Waiting for the splitter at `node`.
    AfterSplit,
    /// About to enter the overflow path for leaf `node`.
    EnterPath,
    /// Waiting for the overflow path (index stored in `node`).
    AfterPath,
    /// Waiting for the backup path.
    AfterBackup,
    /// About to play the 3-process election at `node` as `role`.
    Climb,
    /// Waiting for the 3-process election at `node`.
    AfterClimb,
    /// Waiting for the top 2-process election.
    AfterTop,
}

/// One space-efficient RatRace `elect()` call in progress.
#[derive(Debug, Clone, Copy)]
pub struct RatRaceFrame {
    rr: SpaceEfficientRatRace,
    state: State,
    /// Current tree node (heap index) or path index, depending on state.
    node: usize,
    /// Role for the next 3-process election.
    role: usize,
}

impl RatRaceFrame {
    #[inline(always)]
    pub(crate) fn step(&mut self, input: Resume, ctx: &mut Ctx<'_>) -> Step {
        let s = self.rr;
        loop {
            match self.state {
                State::Split => {
                    self.state = State::AfterSplit;
                    return Step::Call(SideFrame::RSplit(RSplitter::at(s.node(self.node)).frame()));
                }
                State::AfterSplit => {
                    match input.child_value() {
                        v if v == ret::SPLIT_STOP => {
                            ctx.notes.won_splitter = true;
                            self.role = 2;
                            self.state = State::Climb;
                        }
                        v => {
                            let child = 2 * self.node + usize::from(v == ret::SPLIT_RIGHT);
                            if child >= s.nodes() {
                                // Fell off a leaf: leaf index j, enter
                                // overflow path ⌊j / log n⌋.
                                let leaf_j = self.node - s.leaf_base();
                                self.node = (leaf_j / s.log_n).min(s.paths - 1);
                                self.state = State::EnterPath;
                            } else {
                                self.node = child;
                                self.state = State::Split;
                            }
                        }
                    }
                }
                State::EnterPath => {
                    self.state = State::AfterPath;
                    return Step::Call(SideFrame::Path(s.path(self.node).frame()));
                }
                State::AfterPath => match input.child_value() {
                    v if v == path_ret::WIN => {
                        // Re-enter the tree at leaf `path index` as role 0.
                        self.node += s.leaf_base();
                        self.role = 0;
                        self.state = State::Climb;
                    }
                    v if v == path_ret::LOSE => return Step::Done(ret::LOSE),
                    v if v == path_ret::FELL_OFF => {
                        self.state = State::AfterBackup;
                        return Step::Call(SideFrame::Path(s.backup.frame()));
                    }
                    other => panic!("invalid path result {other}"),
                },
                State::AfterBackup => match input.child_value() {
                    v if v == path_ret::WIN => {
                        self.state = State::AfterTop;
                        return Step::Call(SideFrame::TwoProcess(s.letop.frame(1)));
                    }
                    v if v == path_ret::LOSE => return Step::Done(ret::LOSE),
                    v if v == path_ret::FELL_OFF => {
                        // Unreachable with k ≤ n entrants (Claim 3.1);
                        // losing is the safe fallback.
                        debug_assert!(false, "backup path overflow with k <= n");
                        return Step::Done(ret::LOSE);
                    }
                    other => panic!("invalid backup result {other}"),
                },
                State::Climb => {
                    self.state = State::AfterClimb;
                    let le = ThreeProcessLe::at(s.node(self.node).offset(RSplitter::REGISTERS));
                    return Step::Call(SideFrame::ThreeProcess(le.frame(self.role)));
                }
                State::AfterClimb => {
                    if input.child_value() == ret::LOSE {
                        return Step::Done(ret::LOSE);
                    }
                    if self.node == 1 {
                        self.state = State::AfterTop;
                        return Step::Call(SideFrame::TwoProcess(s.letop.frame(0)));
                    }
                    // Move to the parent; the role encodes which child we
                    // came from (even heap index = left child = role 0).
                    self.role = self.node % 2;
                    self.node /= 2;
                    self.state = State::Climb;
                }
                State::AfterTop => return Step::Done(input.child_value()),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtas_sim::adversary::{AdversaryClass, FnAdversary, RandomSchedule, RoundRobin, View};
    use rtas_sim::executor::Execution;
    use rtas_sim::word::ProcessId;

    #[test]
    fn solo_process_wins() {
        let mut mem = Memory::new();
        let rr = SpaceEfficientRatRace::new(&mut mem, 8);
        let res = Execution::new(mem, vec![rr.elect()], 0).run(&mut RoundRobin::new(1));
        assert_eq!(res.outcome(ProcessId(0)), Some(ret::WIN));
    }

    #[test]
    fn unique_winner_random_schedules() {
        for k in [2usize, 3, 8, 24] {
            for seed in 0..40 {
                let mut mem = Memory::new();
                let rr = SpaceEfficientRatRace::new(&mut mem, k);
                let protos = (0..k).map(|_| rr.elect()).collect();
                let res =
                    Execution::new(mem, protos, seed).run(&mut RandomSchedule::new(seed * 17));
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
        for k in [2usize, 5, 16] {
            for seed in 0..20 {
                let mut mem = Memory::new();
                let rr = SpaceEfficientRatRace::new(&mut mem, k);
                let protos = (0..k).map(|_| rr.elect()).collect();
                let res = Execution::new(mem, protos, seed).run(&mut RoundRobin::new(k));
                assert!(res.all_finished());
                assert_eq!(res.processes_with_outcome(ret::WIN).len(), 1);
            }
        }
    }

    #[test]
    fn unique_winner_adaptive_laggard() {
        for seed in 0..30 {
            let k = 6;
            let mut mem = Memory::new();
            let rr = SpaceEfficientRatRace::new(&mut mem, k);
            let protos = (0..k).map(|_| rr.elect()).collect();
            let mut adv = FnAdversary::new(AdversaryClass::Adaptive, |view: &View<'_>| {
                view.active().into_iter().min_by_key(|&p| view.steps_of(p))
            });
            let res = Execution::new(mem, protos, seed).run(&mut adv);
            assert!(res.all_finished());
            assert_eq!(res.processes_with_outcome(ret::WIN).len(), 1);
        }
    }

    #[test]
    fn space_is_linear() {
        // Θ(n): tree ≈ 2n·6 + paths ≈ n·4·(4+?) … well within c·n.
        for n in [64usize, 256, 1024] {
            let mut mem = Memory::new();
            let _rr = SpaceEfficientRatRace::new(&mut mem, n);
            let declared = mem.declared_registers();
            assert!(
                declared <= 40 * n as u64 + 200,
                "n={n}: {declared} registers not Θ(n)"
            );
        }
    }

    #[test]
    fn space_grows_linearly_not_cubically() {
        let declared_for = |n: usize| {
            let mut mem = Memory::new();
            let _rr = SpaceEfficientRatRace::new(&mut mem, n);
            mem.declared_registers()
        };
        let d64 = declared_for(64);
        let d512 = declared_for(512);
        // Linear growth: ×8 input → ≈×8 output (allow 2× slack), far from ×512.
        assert!(d512 < d64 * 16, "d64={d64} d512={d512}");
    }

    #[test]
    fn crashed_majority_still_yields_winner_among_survivors() {
        // Only P0 and P1 ever run; the rest crash before their first step.
        let k = 8;
        let mut mem = Memory::new();
        let rr = SpaceEfficientRatRace::new(&mut mem, k);
        let protos = (0..k).map(|_| rr.elect()).collect();
        let mut adv = FnAdversary::new(AdversaryClass::Adaptive, |view: &View<'_>| {
            [ProcessId(0), ProcessId(1)]
                .into_iter()
                .find(|&p| view.is_active(p))
        });
        let res = Execution::new(mem, protos, 3).run(&mut adv);
        assert!(res.outcome(ProcessId(0)).is_some());
        assert!(res.outcome(ProcessId(1)).is_some());
        assert_eq!(res.processes_with_outcome(ret::WIN).len(), 1);
    }

    #[test]
    fn mean_steps_logarithmic() {
        let mean_for = |k: usize| {
            let trials = 15u64;
            let mut total = 0u64;
            for seed in 0..trials {
                let mut mem = Memory::new();
                let rr = SpaceEfficientRatRace::new(&mut mem, k);
                let protos = (0..k).map(|_| rr.elect()).collect();
                let res =
                    Execution::new(mem, protos, seed).run(&mut RandomSchedule::new(seed + 23));
                assert!(res.all_finished());
                total += res.steps().max();
            }
            total as f64 / trials as f64
        };
        let m8 = mean_for(8);
        let m64 = mean_for(64);
        // O(log k): going 8 → 64 should far less than 8× the steps.
        assert!(m64 < m8 * 4.0, "m8={m8} m64={m64}");
    }
}
