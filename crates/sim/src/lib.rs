//! # rtas-sim — asynchronous shared-memory simulator
//!
//! A discrete, step-granular simulator of the asynchronous shared-memory
//! model used in Giakkoupis & Woelfel, *On the time and space complexity of
//! randomized test-and-set* (PODC 2012): `n` processes communicate through
//! atomic multi-reader multi-writer registers, scheduling is controlled by an
//! adversary, and processes may crash (equivalently: never be scheduled
//! again).
//!
//! The simulator provides:
//!
//! * [`memory`] — a register file with labeled regions, dense and lazy
//!   allocation, and exact space accounting (used to verify the paper's
//!   Θ(n) vs Θ(n³) space claims).
//! * [`protocol`] — algorithms written as resumable state machines
//!   ([`protocol::Protocol`]); each shared-memory operation is one *step*
//!   in the paper's sense.
//! * [`adversary`] — the adversary hierarchy of the paper (adaptive,
//!   location-oblivious, R/W-oblivious, oblivious), with views filtered by
//!   construction so an adversary physically cannot see more than its class
//!   allows.
//! * [`executor`] — runs a set of processes against an adversary, recording
//!   per-process step counts and (optionally) the full history; supports
//!   mid-run lifecycle changes (late arrivals, crashes, churn respawns)
//!   without per-step allocation.
//! * [`scenario`] — composable workloads: one [`scenario::Scenario`]
//!   combines an arrival pattern, a fault plan, and a scheduling strategy
//!   into a ready adversary, with class enforcement preserved by
//!   construction.
//! * [`explore`] — an exhaustive interleaving + coin-outcome explorer
//!   (loom-style) used to verify safety of the 2- and 3-process building
//!   blocks over *all* schedules within bounded depth.
//! * [`rng`] — a deterministic, splittable PRNG so executions are
//!   reproducible from a single seed.
//!
//! ## Example
//!
//! A one-register "write then read" protocol run with two processes:
//!
//! ```
//! use rtas_sim::prelude::*;
//!
//! struct WriteThenRead { reg: RegId, state: u8 }
//! impl Protocol for WriteThenRead {
//!     fn resume(&mut self, input: Resume, _ctx: &mut Ctx<'_>) -> Poll {
//!         match self.state {
//!             0 => { self.state = 1; Poll::Op(MemOp::Write(self.reg, 7)) }
//!             1 => { self.state = 2; Poll::Op(MemOp::Read(self.reg)) }
//!             _ => match input {
//!                 Resume::Read(v) => Poll::Done(v),
//!                 _ => unreachable!(),
//!             },
//!         }
//!     }
//! }
//!
//! let mut mem = Memory::new();
//! let reg = mem.alloc(1, "demo").start();
//! let procs = (0..2)
//!     .map(|_| Box::new(WriteThenRead { reg, state: 0 }) as Box<dyn Protocol>)
//!     .collect();
//! let mut adv = RoundRobin::new(2);
//! let result = Execution::new(mem, procs, 1234).run(&mut adv);
//! assert!(result.all_finished());
//! assert_eq!(result.outcome(ProcessId(0)), Some(7));
//! ```

pub mod adversary;
pub mod executor;
pub mod explore;
pub mod history;
pub mod memory;
pub mod metrics;
pub mod op;
pub mod protocol;
pub mod rng;
pub mod scenario;
pub mod schedule;
pub mod trace;
pub mod word;

/// Convenient glob import of the simulator's core types.
pub mod prelude {
    pub use crate::adversary::{
        Adversary, AdversaryClass, FnAdversary, Injection, ObliviousAdversary, PendingView,
        RandomSchedule, RoundRobin, Strategy, View,
    };
    pub use crate::executor::{Execution, ExecutionResult, RunOutcome};
    pub use crate::explore::{explore, ExploreConfig, ExploreStats, Explored};
    pub use crate::history::RecordMode;
    pub use crate::memory::{Memory, RegRange, RegionStats};
    pub use crate::metrics::{Aggregate, StepCounts};
    pub use crate::op::{MemOp, OpKind};
    pub use crate::protocol::{boxed, ret, Const, Ctx, Notes, Poll, Protocol, Resume};
    pub use crate::rng::{Randomness, SplitMix64};
    pub use crate::scenario::{ArrivalSpec, FaultSpec, Scenario, ScenarioAdversary, StrategySpec};
    pub use crate::schedule::Schedule;
    pub use crate::word::{ProcessId, RegId, Word};
}
