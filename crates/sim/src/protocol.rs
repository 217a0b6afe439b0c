//! Protocols as resumable state machines.
//!
//! An algorithm for one process is a [`Protocol`]: a state machine that the
//! per-process runtime drives by calling [`Protocol::resume`]. Each call
//! either requests one shared-memory operation ([`Poll::Op`]) or terminates
//! with a result ([`Poll::Done`]).
//!
//! The simulator composes nothing itself. The paper's object compositions
//! (group elections inside leader-election ladders inside combiners) are
//! frame stacks inside one protocol: `rtas_algorithms::frame` steps a
//! closed enum of `Copy` frames, each child call returning the child frame
//! by value and each finished child resuming its caller with
//! [`Resume::Child`]. The same frames run natively on real atomics.
//!
//! Local computation and coin flips happen *inside* `resume`, between
//! shared-memory steps. After `resume` returns `Poll::Op`, the process is
//! *poised* on that committed operation; the adversary observes a filtered
//! view of it (see [`crate::adversary`]) before deciding who runs. This is
//! exactly the visibility structure the paper's adversary definitions
//! require: a location-oblivious adversary sees the pending operation's type
//! and write value but not its register, an R/W-oblivious adversary sees the
//! register but not the type.

use crate::op::MemOp;
use crate::rng::Randomness;
use crate::word::{ProcessId, Word};

/// Return conventions used by protocols, as `Word` values.
///
/// Leader election: `WIN`/`LOSE`. Splitters: `SPLIT_STOP`/`SPLIT_LEFT`/
/// `SPLIT_RIGHT`. TAS: `0` (won, old bit was 0) / `1`.
pub mod ret {
    use crate::word::Word;

    /// The process won (elect() returned true).
    pub const WIN: Word = 1;
    /// The process lost (elect() returned false).
    pub const LOSE: Word = 0;
    /// split() returned S (the process won the splitter).
    pub const SPLIT_STOP: Word = 0;
    /// split() returned L.
    pub const SPLIT_LEFT: Word = 1;
    /// split() returned R.
    pub const SPLIT_RIGHT: Word = 2;
}

/// What a protocol does next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Poll {
    /// Perform one shared-memory operation; its result arrives in the next
    /// [`Resume`].
    Op(MemOp),
    /// The protocol finished with this result.
    Done(Word),
}

/// The event a protocol is resumed with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Resume {
    /// First activation of the protocol.
    Start,
    /// The read requested by the previous `Poll::Op` returned this value.
    Read(Word),
    /// The write requested by the previous `Poll::Op` completed.
    Wrote,
    /// A child frame called by the resumed frame finished with this
    /// value. Only frame stacks deliver it; the executor never does.
    Child(Word),
}

impl Resume {
    /// Extract the read value.
    ///
    /// # Panics
    ///
    /// Panics if this is not [`Resume::Read`] — protocols use this when
    /// their state machine knows a read must be pending.
    #[inline]
    pub fn read_value(self) -> Word {
        match self {
            Resume::Read(v) => v,
            other => panic!("expected Resume::Read, got {other:?}"),
        }
    }

    /// Extract the child result.
    ///
    /// # Panics
    ///
    /// Panics if this is not [`Resume::Child`].
    #[inline]
    pub fn child_value(self) -> Word {
        match self {
            Resume::Child(v) => v,
            other => panic!("expected Resume::Child, got {other:?}"),
        }
    }
}

/// Per-process scratch flags shared between composed protocols.
///
/// Section 4's combiner needs to know whether the RatRace side has already
/// won a splitter (Rule 3); the RatRace protocol raises
/// [`Notes::won_splitter`] and the combiner reads it. Keeping this in the
/// process context avoids plumbing side channels through every layer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Notes {
    /// Set by RatRace-style protocols when the process wins any
    /// (deterministic or randomized) splitter.
    pub won_splitter: bool,
}

/// Execution context handed to [`Protocol::resume`]: the process identity,
/// its private coin-flip source, and scratch notes.
pub struct Ctx<'a> {
    /// The process running this protocol.
    pub pid: ProcessId,
    /// Private random source (local coin flips). A [`crate::rng::SplitMix64`]
    /// in normal executions, a scripted source under the explorer.
    pub rng: &'a mut dyn Randomness,
    /// Cross-protocol scratch flags for this process.
    pub notes: &'a mut Notes,
}

impl std::fmt::Debug for Ctx<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ctx")
            .field("pid", &self.pid)
            .field("notes", &self.notes)
            .finish()
    }
}

/// A resumable, per-process state machine.
///
/// Implementations must be deterministic given the `Resume` inputs and the
/// coin flips drawn from `ctx.rng`; all inter-process communication goes
/// through `Poll::Op` operations. This is what makes executions replayable
/// and exhaustively explorable.
pub trait Protocol: Send {
    /// Advance the state machine.
    ///
    /// The first call passes [`Resume::Start`]; afterwards the runtime
    /// passes the event corresponding to the previous [`Poll`].
    fn resume(&mut self, input: Resume, ctx: &mut Ctx<'_>) -> Poll;

    /// Human-readable name for debugging and history recording.
    fn name(&self) -> &'static str {
        "protocol"
    }
}

/// A protocol that immediately finishes with a constant value.
///
/// Used for the "dummy" group elections of Theorem 2.3 (everyone gets
/// elected, zero registers, zero steps) and as a test fixture.
#[derive(Debug, Clone, Copy)]
pub struct Const(pub Word);

impl Protocol for Const {
    fn resume(&mut self, _input: Resume, _ctx: &mut Ctx<'_>) -> Poll {
        Poll::Done(self.0)
    }

    fn name(&self) -> &'static str {
        "const"
    }
}

/// Boxed protocol constructor helpers.
pub fn boxed<P: Protocol + 'static>(p: P) -> Box<dyn Protocol> {
    Box::new(p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::word::RegId;

    #[test]
    fn resume_accessors() {
        assert_eq!(Resume::Read(5).read_value(), 5);
        assert_eq!(Resume::Child(7).child_value(), 7);
    }

    #[test]
    #[should_panic(expected = "expected Resume::Read")]
    fn read_value_panics_on_wrong_variant() {
        Resume::Wrote.read_value();
    }

    #[test]
    #[should_panic(expected = "expected Resume::Child")]
    fn child_value_panics_on_wrong_variant() {
        Resume::Start.child_value();
    }

    #[test]
    fn const_protocol_finishes_immediately() {
        let mut rng = crate::rng::SplitMix64::new(0);
        let mut notes = Notes::default();
        let mut ctx = Ctx {
            pid: ProcessId(0),
            rng: &mut rng,
            notes: &mut notes,
        };
        let mut c = Const(9);
        match c.resume(Resume::Start, &mut ctx) {
            Poll::Done(9) => {}
            other => panic!("unexpected poll {other:?}"),
        }
    }

    #[test]
    fn poll_debug_is_informative() {
        assert_eq!(
            format!("{:?}", Poll::Op(MemOp::Read(RegId(1)))),
            "Op(Read(r1))"
        );
        assert_eq!(format!("{:?}", Poll::Done(3)), "Done(3)");
    }
}
