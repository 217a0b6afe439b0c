//! The original RatRace (Section 3.1): Θ(n³) registers.
//!
//! * **Primary tree** of height `3·log₂ n` — Θ(n³) nodes, each with a
//!   randomized splitter and a 3-process election. Registers are lazily
//!   materialized: the structure *declares* Θ(n³) registers (the paper's
//!   space complexity) but an execution only touches O(k·log k).
//! * **Backup grid** `n × n` — node `(i, j)` has a deterministic splitter
//!   and a 3-process election; children are `(i+1, j)` (on `L`) and
//!   `(i, j+1)` (on `R`). A process that falls off a tree leaf enters at
//!   `(0, 0)`, descends until it wins a splitter (guaranteed before it
//!   leaves the grid), then climbs back along its own descent path.
//! * The tree winner and the grid winner meet in a 2-process election.
//!
//! This implementation exists as the baseline for experiment E4's space
//! table (Θ(n³) declared vs Θ(n) for the Section 3.2 redesign) and for
//! step-complexity cross-checks.

use rtas_primitives::{RSplitter, Splitter, ThreeProcessLe, TwoProcessLe};
use rtas_sim::memory::Memory;
use rtas_sim::protocol::{ret, Ctx, Protocol, Resume};
use rtas_sim::word::RegId;

use crate::frame::{LeRoot, SideFrame, Step};
use crate::group_elect::ceil_log2;
use crate::LeaderElect;

/// Registers per tree/grid node: one randomized/deterministic splitter (2)
/// plus one 3-process election (4).
const NODE_REGS: u64 = 6;

/// The longest grid descent a frame records. With `k` processes in the
/// grid, every process wins a splitter within `k − 1` moves, so this
/// covers up to 129 grid entrants; reaching the grid at all needs a
/// process to fall off a tree of height `3·log₂ n`.
const MAX_GRID_MOVES: u32 = 128;

/// The original RatRace leader election.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OriginalRatRace {
    /// Node `h` (heap index, from 1) owns the 6 registers at
    /// `tree + 6(h − 1)`.
    tree: RegId,
    tree_height: u32,
    /// Number of tree nodes (heap indices `1 ..= tree_nodes`).
    tree_nodes: u64,
    /// Grid node `(i, j)` owns the 6 registers at `grid + 6(i·n + j)`.
    grid: RegId,
    n: u64,
    letop: TwoProcessLe,
    capacity: usize,
}

impl OriginalRatRace {
    /// Build (declare) the structure for up to `n` processes.
    ///
    /// Declares Θ(n³) registers; host memory is only consumed for touched
    /// registers.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(memory: &mut Memory, n: usize) -> Self {
        assert!(n >= 1, "need at least one process");
        let n_eff = (n.max(2)) as u64;
        let tree_height = 3 * ceil_log2(n_eff as usize);
        let tree_nodes = (1u64 << (tree_height + 1)) - 1;
        let tree = memory.alloc_lazy(tree_nodes * NODE_REGS, "ratrace-orig-tree");
        let grid = memory.alloc_lazy(n_eff * n_eff * NODE_REGS, "ratrace-orig-grid");
        let letop = TwoProcessLe::new(memory, "ratrace-orig-letop");
        OriginalRatRace {
            tree: tree.start(),
            tree_height,
            tree_nodes,
            grid: grid.start(),
            n: n_eff,
            letop,
            capacity: n,
        }
    }

    /// Maximum number of participating processes.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Height of the primary tree (`3·⌈log₂ n⌉`).
    pub fn tree_height(&self) -> u32 {
        self.tree_height
    }

    /// Total declared registers (Θ(n³)).
    pub fn declared_registers(&self) -> u64 {
        self.tree_nodes * NODE_REGS + self.n * self.n * NODE_REGS + TwoProcessLe::REGISTERS
    }

    /// Build the per-process `elect()` protocol.
    pub fn elect(&self) -> Box<dyn Protocol> {
        LeaderElect::elect(self)
    }

    /// The frame of one `elect()` call.
    #[inline]
    pub(crate) fn frame(self) -> OriginalFrame {
        OriginalFrame {
            rr: self,
            node: 1,
            gi: 0,
            gj: 0,
            grid_path: [0; 2],
            grid_moves: 0,
            role: 2,
            state: State::TreeSplit,
        }
    }

    #[inline]
    fn tree_node(self, heap_index: u64) -> RegId {
        debug_assert!((1..=self.tree_nodes).contains(&heap_index));
        self.tree.offset((heap_index - 1) * NODE_REGS)
    }

    #[inline]
    fn grid_node(self, i: u64, j: u64) -> RegId {
        debug_assert!(i < self.n && j < self.n);
        self.grid.offset((i * self.n + j) * NODE_REGS)
    }
}

impl LeaderElect for OriginalRatRace {
    fn root(&self) -> LeRoot {
        LeRoot::Side(SideFrame::OriginalRatRace(self.frame()))
    }
}

/// The 3-process election of the node whose registers start at `node`.
#[inline]
fn node_le(node: RegId) -> ThreeProcessLe {
    ThreeProcessLe::at(node.offset(Splitter::REGISTERS))
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    TreeSplit,
    AfterTreeSplit,
    TreeClimb,
    AfterTreeClimb,
    GridSplit,
    AfterGridSplit,
    GridClimb,
    AfterGridClimb,
    AfterTop,
}

/// One original RatRace `elect()` call in progress.
#[derive(Debug, Clone, Copy)]
pub struct OriginalFrame {
    rr: OriginalRatRace,
    /// Tree heap index during tree phases.
    node: u64,
    /// Grid coordinates during grid phases.
    gi: u64,
    gj: u64,
    /// Descent path through the grid, one bit per move: set = moved
    /// down (`L`, i+1), clear = moved right (`R`, j+1). Needed to climb
    /// back.
    grid_path: [u64; 2],
    grid_moves: u32,
    /// Role for the next 3-process election.
    role: u8,
    state: State,
}

impl OriginalFrame {
    #[inline]
    fn push_move(&mut self, went_down: bool) {
        assert!(
            self.grid_moves < MAX_GRID_MOVES,
            "grid descent longer than {MAX_GRID_MOVES} moves"
        );
        let (word, bit) = (self.grid_moves as usize / 64, self.grid_moves % 64);
        self.grid_path[word] &= !(1 << bit);
        self.grid_path[word] |= u64::from(went_down) << bit;
        self.grid_moves += 1;
    }

    #[inline]
    fn pop_move(&mut self) -> Option<bool> {
        if self.grid_moves == 0 {
            return None;
        }
        self.grid_moves -= 1;
        let (word, bit) = (self.grid_moves as usize / 64, self.grid_moves % 64);
        Some(self.grid_path[word] >> bit & 1 == 1)
    }

    #[inline(always)]
    pub(crate) fn step(&mut self, input: Resume, ctx: &mut Ctx<'_>) -> Step {
        let s = self.rr;
        loop {
            match self.state {
                State::TreeSplit => {
                    self.state = State::AfterTreeSplit;
                    let sp = RSplitter::at(s.tree_node(self.node));
                    return Step::Call(SideFrame::RSplit(sp.frame()));
                }
                State::AfterTreeSplit => match input.child_value() {
                    v if v == ret::SPLIT_STOP => {
                        ctx.notes.won_splitter = true;
                        self.role = 2;
                        self.state = State::TreeClimb;
                    }
                    v => {
                        let child = 2 * self.node + u64::from(v == ret::SPLIT_RIGHT);
                        if child > s.tree_nodes {
                            // Fell off the tree: enter the grid at (0,0).
                            self.gi = 0;
                            self.gj = 0;
                            self.grid_moves = 0;
                            self.state = State::GridSplit;
                        } else {
                            self.node = child;
                            self.state = State::TreeSplit;
                        }
                    }
                },
                State::TreeClimb => {
                    self.state = State::AfterTreeClimb;
                    let le = node_le(s.tree_node(self.node));
                    return Step::Call(SideFrame::ThreeProcess(le.frame(self.role.into())));
                }
                State::AfterTreeClimb => {
                    if input.child_value() == ret::LOSE {
                        return Step::Done(ret::LOSE);
                    }
                    if self.node == 1 {
                        self.state = State::AfterTop;
                        return Step::Call(SideFrame::TwoProcess(s.letop.frame(0)));
                    }
                    self.role = (self.node % 2) as u8;
                    self.node /= 2;
                    self.state = State::TreeClimb;
                }
                State::GridSplit => {
                    self.state = State::AfterGridSplit;
                    let sp = Splitter::at(s.grid_node(self.gi, self.gj));
                    return Step::Call(SideFrame::Split(sp.frame()));
                }
                State::AfterGridSplit => match input.child_value() {
                    v if v == ret::SPLIT_STOP => {
                        ctx.notes.won_splitter = true;
                        self.role = 2;
                        self.state = State::GridClimb;
                    }
                    v if v == ret::SPLIT_LEFT => {
                        // Deterministic splitters guarantee a win before the
                        // grid's edge for k ≤ n processes.
                        assert!(self.gi + 1 < s.n, "fell off the grid (L edge)");
                        self.gi += 1;
                        self.push_move(true);
                        self.state = State::GridSplit;
                    }
                    v if v == ret::SPLIT_RIGHT => {
                        assert!(self.gj + 1 < s.n, "fell off the grid (R edge)");
                        self.gj += 1;
                        self.push_move(false);
                        self.state = State::GridSplit;
                    }
                    other => panic!("invalid splitter result {other}"),
                },
                State::GridClimb => {
                    self.state = State::AfterGridClimb;
                    let le = node_le(s.grid_node(self.gi, self.gj));
                    return Step::Call(SideFrame::ThreeProcess(le.frame(self.role.into())));
                }
                State::AfterGridClimb => {
                    if input.child_value() == ret::LOSE {
                        return Step::Done(ret::LOSE);
                    }
                    match self.pop_move() {
                        None => {
                            // Back at (0,0): grid winner.
                            self.state = State::AfterTop;
                            return Step::Call(SideFrame::TwoProcess(s.letop.frame(1)));
                        }
                        Some(went_down) => {
                            if went_down {
                                self.gi -= 1;
                                self.role = 0;
                            } else {
                                self.gj -= 1;
                                self.role = 1;
                            }
                            self.state = State::GridClimb;
                        }
                    }
                }
                State::AfterTop => return Step::Done(input.child_value()),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtas_sim::adversary::{RandomSchedule, RoundRobin};
    use rtas_sim::executor::Execution;
    use rtas_sim::word::ProcessId;

    #[test]
    fn solo_process_wins() {
        let mut mem = Memory::new();
        let rr = OriginalRatRace::new(&mut mem, 8);
        let res = Execution::new(mem, vec![rr.elect()], 0).run(&mut RoundRobin::new(1));
        assert_eq!(res.outcome(ProcessId(0)), Some(ret::WIN));
    }

    #[test]
    fn unique_winner_random_schedules() {
        for k in [2usize, 4, 12] {
            for seed in 0..30 {
                let mut mem = Memory::new();
                let rr = OriginalRatRace::new(&mut mem, k);
                let protos = (0..k).map(|_| rr.elect()).collect();
                let res =
                    Execution::new(mem, protos, seed).run(&mut RandomSchedule::new(seed * 29));
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
    fn declared_space_is_cubic_but_touched_is_small() {
        let mut mem = Memory::new();
        let rr = OriginalRatRace::new(&mut mem, 64);
        let declared = mem.declared_registers();
        // 3·log₂ 64 = 18 → 2^19 − 1 nodes ≈ 5·10⁵ · 6 regs plus 64² grid.
        assert!(declared > 3_000_000, "declared {declared}");
        assert_eq!(declared, rr.declared_registers());
        let protos = (0..8).map(|_| rr.elect()).collect();
        let res = Execution::new(mem, protos, 1).run(&mut RandomSchedule::new(2));
        assert!(res.all_finished());
        let touched = res.memory().touched_registers();
        assert!(touched < 3_000, "touched {touched} registers for k=8");
    }

    #[test]
    fn grid_path_records_long_descents() {
        let mut mem = Memory::new();
        let mut frame = OriginalRatRace::new(&mut mem, 4).frame();
        let moves: Vec<bool> = (0..MAX_GRID_MOVES).map(|i| i % 3 == 0).collect();
        for &m in &moves {
            frame.push_move(m);
        }
        for &m in moves.iter().rev() {
            assert_eq!(frame.pop_move(), Some(m));
        }
        assert_eq!(frame.pop_move(), None);
    }

    #[test]
    fn tree_height_is_three_log_n() {
        let mut mem = Memory::new();
        let rr = OriginalRatRace::new(&mut mem, 64);
        assert_eq!(rr.tree_height(), 18);
    }

    #[test]
    fn grid_handles_forced_collisions() {
        // Lockstep maximizes splitter collisions and exercises the grid
        // path-climb logic when processes fall off the (short) tree of a
        // tiny instance.
        for seed in 0..20 {
            let k = 4;
            let mut mem = Memory::new();
            let rr = OriginalRatRace::new(&mut mem, k);
            let protos = (0..k).map(|_| rr.elect()).collect();
            let res = Execution::new(mem, protos, seed).run(&mut RoundRobin::new(k));
            assert!(res.all_finished());
            assert_eq!(res.processes_with_outcome(ret::WIN).len(), 1);
        }
    }
}
