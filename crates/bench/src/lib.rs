//! # rtas-bench — the experiment harness
//!
//! One function per experiment (E1–E10 from DESIGN.md §2, plus the E11
//! scenario grid and the E12 epoch-reuse check), each regenerating the
//! corresponding quantitative claim of the paper as a printed table.
//! `cargo run -p rtas-bench --release --bin experiments` runs them all;
//! EXPERIMENTS.md records paper-vs-measured for each.

pub mod diff;
pub mod experiments;
pub mod microbench;
pub mod runner;
pub mod scenarios;

/// Scale knobs shared by all experiments.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Largest contention / structure size used in sweeps.
    pub max_k: usize,
    /// Trials per data point.
    pub trials: u64,
    /// Base seed (vary for independent repetitions).
    pub seed: u64,
}

impl Scale {
    /// Full scale: the numbers recorded in EXPERIMENTS.md.
    pub fn full() -> Self {
        Scale {
            max_k: 1 << 10,
            trials: 24,
            seed: 0xdead_beef,
        }
    }

    /// Reduced scale for CI and smoke runs (`--fast`).
    pub fn fast() -> Self {
        Scale {
            max_k: 1 << 7,
            trials: 8,
            seed: 0xdead_beef,
        }
    }
}
