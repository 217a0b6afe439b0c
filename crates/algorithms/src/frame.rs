//! One protocol core: every algorithm as a closed enum of `Copy` frames.
//!
//! Each of the paper's thirteen protocol types is a *frame*: a small
//! `Copy` state machine that carries its object's `Copy` descriptor (base
//! register ids and sizes — every composite lays its registers out at
//! fixed strides) and advances one step per [`StackFrame::step`] call. A
//! step either requests one shared-memory operation, finishes with a
//! result, or calls a child protocol by returning the child's frame *by
//! value* ([`Step::Call`]); the caller resumes with [`Resume::Child`] once
//! the child finishes.
//!
//! * The leaves — splitters, randomized splitters, 2- and 3-process
//!   elections (`rtas_primitives`), geometric and sifting group
//!   elections — never call.
//! * [`SideFrame`] closes over every protocol that can run as one side of
//!   Section 4's combiner: the leaves plus the ladder, the elimination
//!   path, both RatRaces and the O(log log k) cascade.
//! * [`Frame`] adds the two protocols that only run at the root: the
//!   combiner, which keeps both of its sides as inline [`Stack`]s of
//!   `SideFrame`s, and TAS-from-LE, which runs its election in one. So
//!   every child a frame calls is a small `SideFrame`.
//!
//! A [`FrameStack`] steps a root `Frame` and its children in a buffer
//! sized once for the deepest chain ([`MAX_DEPTH`]). It is the *only* way a
//! protocol runs: the simulator, the explorer and E1–E12 drive it through
//! [`rtas_sim::protocol::Protocol`] (one boxed `FrameStack` per process),
//! and `rtas::native::NativeRunner` reuses one per thread on real atomics
//! — no allocation, no `Arc` traffic and no dynamic dispatch per step.

use rtas_primitives::{RSplitFrame, SplitFrame, Splitter, ThreeProcessFrame, TwoProcessFrame};
use rtas_sim::op::MemOp;
use rtas_sim::protocol::{Ctx, Poll, Protocol, Resume};
use rtas_sim::word::{RegId, Word};

use crate::combined::{Combined, CombinedFrame};
use crate::elimination_path::PathFrame;
use crate::group_elect::{GeometricFrame, SiftingFrame};
use crate::le_chain::ChainFrame;
use crate::loglog::LogLogFrame;
use crate::ratrace::{OriginalFrame, RatRaceFrame};
use crate::tas_from_le::TasFrame;

/// What a frame does next.
#[derive(Debug, Clone, Copy)]
pub enum Step {
    /// Perform one shared-memory operation; its result arrives in the next
    /// [`Resume`].
    Op(MemOp),
    /// Run this child frame to completion; its result arrives as
    /// [`Resume::Child`]. Every child is a [`SideFrame`]: the two
    /// root-only protocols run their own sub-protocols inline.
    Call(SideFrame),
    /// The frame finished with this result.
    Done(Word),
}

impl Step {
    /// A leaf frame's [`Poll`] as a step (leaves never call).
    #[inline(always)]
    fn leaf(poll: Poll) -> Self {
        match poll {
            Poll::Op(op) => Step::Op(op),
            Poll::Done(v) => Step::Done(v),
        }
    }
}

/// A frame type that can sit at the root of a [`Stack`].
pub trait StackFrame: Copy {
    /// Advance by one step. The first call passes [`Resume::Start`];
    /// afterwards the stack passes the event answering the previous
    /// [`Step`].
    fn step(&mut self, input: Resume, ctx: &mut Ctx<'_>) -> Step;
}

/// Every protocol that can run as one side of a [`Combined`]: all but the
/// combiner itself and TAS-from-LE.
#[derive(Debug, Clone, Copy)]
pub enum SideFrame {
    /// A deterministic splitter's `split()`.
    Split(SplitFrame),
    /// A randomized splitter's `split()`.
    RSplit(RSplitFrame),
    /// A 2-process election.
    TwoProcess(TwoProcessFrame),
    /// A 3-process election.
    ThreeProcess(ThreeProcessFrame),
    /// Figure 1's geometric group election.
    Geometric(GeometricFrame),
    /// One sifting round.
    Sifting(SiftingFrame),
    /// The Section 2.1 ladder.
    Chain(ChainFrame),
    /// An elimination path.
    Path(PathFrame),
    /// The space-efficient RatRace.
    RatRace(RatRaceFrame),
    /// The original RatRace.
    OriginalRatRace(OriginalFrame),
    /// The O(log log k) cascade of ladders.
    LogLog(LogLogFrame),
}

/// A placeholder for a stack's unused call slots.
const IDLE: SideFrame = SideFrame::Split(Splitter::at(RegId(0)).frame());

impl StackFrame for SideFrame {
    #[inline(always)]
    fn step(&mut self, input: Resume, ctx: &mut Ctx<'_>) -> Step {
        match self {
            SideFrame::Split(f) => Step::leaf(f.resume(input, ctx)),
            SideFrame::RSplit(f) => Step::leaf(f.resume(input, ctx)),
            SideFrame::TwoProcess(f) => Step::leaf(f.resume(input, ctx)),
            SideFrame::ThreeProcess(f) => Step::leaf(f.resume(input, ctx)),
            SideFrame::Geometric(f) => Step::leaf(f.resume(input, ctx)),
            SideFrame::Sifting(f) => Step::leaf(f.resume(input, ctx)),
            SideFrame::Chain(f) => f.step(input),
            SideFrame::Path(f) => f.step(input, ctx),
            SideFrame::RatRace(f) => f.step(input, ctx),
            SideFrame::OriginalRatRace(f) => f.step(input, ctx),
            SideFrame::LogLog(f) => f.step(input),
        }
    }
}

/// The closed set of protocol frames: every protocol of the paper.
/// Combined and TAS-from-LE only run at the root of a stack.
#[derive(Debug, Clone, Copy)]
pub enum Frame {
    /// Any protocol that can also run inside a combiner's side.
    Side(SideFrame),
    /// Section 4's combiner.
    Combined(CombinedFrame),
    /// TAS from leader election plus one register.
    Tas(TasFrame),
}

impl StackFrame for Frame {
    #[inline(always)]
    fn step(&mut self, input: Resume, ctx: &mut Ctx<'_>) -> Step {
        match self {
            Frame::Side(f) => f.step(input, ctx),
            Frame::Combined(f) => f.step(input, ctx),
            Frame::Tas(f) => f.step(input, ctx),
        }
    }
}

/// Where a leader election's `elect()` starts: the descriptor of any
/// [`LeaderElect`], as a `Copy` value.
#[derive(Debug, Clone, Copy)]
pub enum LeRoot {
    /// A side protocol, in its initial state.
    Side(SideFrame),
    /// A combiner.
    Combined(Combined),
}

impl LeRoot {
    /// The root frame of one `elect()` call.
    #[inline(always)]
    pub fn frame(self) -> Frame {
        match self {
            LeRoot::Side(frame) => Frame::Side(frame),
            LeRoot::Combined(c) => Frame::Combined(c.frame()),
        }
    }
}

/// A leader-election object any number of processes may enter.
///
/// At most one `elect()` protocol may return [`rtas_sim::protocol::ret::WIN`]
/// in any execution; if no participating process crashes, exactly one does.
/// Each process calls `elect()` at most once.
pub trait LeaderElect: Send + Sync {
    /// The object's descriptor: what each `elect()` call starts from.
    fn root(&self) -> LeRoot;

    /// Build the per-process protocol performing one `elect()` call: a
    /// [`FrameStack`] over [`LeaderElect::root`].
    fn elect(&self) -> Box<dyn Protocol> {
        Box::new(FrameStack::new(self.root().frame()))
    }
}

/// The most frames a [`FrameStack`] ever holds: the O(log log k)
/// cascade, a ladder, and a leaf; or a RatRace, an elimination path and
/// a leaf. A combiner's sides and TAS-from-LE's election run in stacks
/// of their own inside their frames, so they add no depth.
pub const MAX_DEPTH: usize = 3;

/// A root frame and the frames it called, innermost last, in a fixed
/// buffer of `N` call slots.
#[derive(Debug, Clone, Copy)]
pub struct Stack<R, const N: usize> {
    root: R,
    /// `calls[..len]` are live; the rest are stale.
    calls: [SideFrame; N],
    len: usize,
}

/// The stack every protocol runs on.
pub type FrameStack = Stack<Frame, { MAX_DEPTH - 1 }>;

/// The stack one side of a combiner (or TAS-from-LE's election) runs on.
pub(crate) type SideStack = Stack<SideFrame, { MAX_DEPTH - 1 }>;

impl<R: StackFrame, const N: usize> Stack<R, N> {
    /// A stack about to start `root`.
    pub fn new(root: R) -> Self {
        Stack {
            root,
            calls: [IDLE; N],
            len: 0,
        }
    }

    /// Discard whatever runs and start `root`, keeping the buffer.
    #[inline(always)]
    pub fn restart(&mut self, root: R) {
        self.root = root;
        self.len = 0;
    }

    /// Step the innermost frame, entering and leaving children, until the
    /// stack is poised on an operation or the root finished. The first
    /// call after the stack is built or restarted passes
    /// [`Resume::Start`]; every later one answers the operation the
    /// previous call returned.
    ///
    /// # Panics
    ///
    /// Panics if calls would nest deeper than `N` frames below the root.
    #[inline(always)]
    pub fn advance(&mut self, mut input: Resume, ctx: &mut Ctx<'_>) -> Poll {
        loop {
            let step = match self.len {
                0 => self.root.step(input, ctx),
                len => self.calls[len - 1].step(input, ctx),
            };
            match step {
                Step::Op(op) => return Poll::Op(op),
                Step::Call(child) => {
                    assert!(self.len < N, "frame stack deeper than {}", N + 1);
                    self.calls[self.len] = child;
                    self.len += 1;
                    input = Resume::Start;
                }
                Step::Done(v) => {
                    if self.len == 0 {
                        return Poll::Done(v);
                    }
                    self.len -= 1;
                    input = Resume::Child(v);
                }
            }
        }
    }
}

impl<const N: usize> Default for Stack<Frame, N> {
    /// An idle stack, to be restarted with [`Stack::restart`].
    fn default() -> Self {
        Stack::new(Frame::Side(IDLE))
    }
}

impl Protocol for FrameStack {
    fn resume(&mut self, input: Resume, ctx: &mut Ctx<'_>) -> Poll {
        self.advance(input, ctx)
    }

    fn name(&self) -> &'static str {
        "frame-stack"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_stay_small() {
        // Frames are copied by value on every call; keep them to a few
        // cache lines (the combiner holds two inline side stacks).
        assert!(std::mem::size_of::<SideFrame>() <= 128);
        assert!(std::mem::size_of::<Frame>() <= 1024);
        assert!(std::mem::size_of::<FrameStack>() <= 1280);
        assert!(std::mem::size_of::<LeRoot>() <= 256);
    }
}
