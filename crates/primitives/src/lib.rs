//! # rtas-primitives — the paper's building blocks
//!
//! Shared-object primitives used by every leader-election algorithm in
//! Giakkoupis & Woelfel (PODC 2012), each implemented from O(1) atomic
//! registers on the [`rtas_sim`] machine:
//!
//! * [`splitter`] — the deterministic splitter of Moir & Anderson: of `k`
//!   callers at most one gets `S` (stop), at most `k−1` get `L`, at most
//!   `k−1` get `R`; a solo caller gets `S`.
//! * [`rsplitter`] — the randomized splitter of Attiya et al.: at most one
//!   `S`, a solo caller gets `S`, and a non-`S` result is an independent
//!   fair coin in `{L, R}`.
//! * [`two_process`] — a randomized 2-process leader election with constant
//!   expected step complexity against the adaptive adversary (the role the
//!   paper assigns to Tromp–Vitányi 2002; see DESIGN.md §3 for the
//!   substitution note). Safety is verified exhaustively in the tests.
//! * [`three_process`] — the 3-process leader election used at RatRace tree
//!   nodes, built from two 2-process elections.
//!
//! All objects follow the same pattern: a small `Copy` *descriptor* holds
//! the base register id (allocated from a [`rtas_sim::memory::Memory`], or
//! computed at a fixed stride inside a composite's block), and `frame()`
//! returns the `Copy` state machine one process runs to perform one
//! operation. Every frame here is a leaf: it implements
//! [`rtas_sim::protocol::Protocol`] directly and never calls another
//! protocol (the 3-process election plays its 2-process matches inline),
//! so `rtas_algorithms::frame` embeds these frames unchanged.
//!
//! ```
//! use rtas_primitives::{RoleLeaderElect, TwoProcessLe};
//! use rtas_sim::prelude::*;
//! use rtas_sim::protocol::ret;
//!
//! let mut mem = Memory::new();
//! let le = TwoProcessLe::new(&mut mem, "demo");
//! let protos = vec![le.elect_as(0), le.elect_as(1)];
//! let res = Execution::new(mem, protos, 42).run(&mut RandomSchedule::new(7));
//! assert_eq!(res.processes_with_outcome(ret::WIN).len(), 1);
//! ```

pub mod object;
pub mod rsplitter;
pub mod splitter;
pub mod three_process;
pub mod two_process;

pub use object::{RoleLeaderElect, SplitterObject};
pub use rsplitter::{RSplitFrame, RSplitter};
pub use splitter::{SplitFrame, Splitter};
pub use three_process::{ThreeProcessFrame, ThreeProcessLe};
pub use two_process::{TwoProcessFrame, TwoProcessLe};
