//! Native ≡ simulator: the frames a `NativeRunner` steps on real atomics
//! are the frames the simulator steps.
//!
//! For every backend, capacities 8 and 64, `k ∈ {1, 2, 8}` participants
//! and seeds 0..50, the `k` participants run one after another on a fresh
//! `NativeMemory`, participant `p` drawing the coin stream the simulator
//! gives process `p` (`SplitMix64::split(seed, p)`). The simulator runs
//! the same election under a schedule that runs each process to
//! completion in order. Every participant's result and step count must
//! match exactly.

use std::sync::Arc;

use rtas::algorithms::{Combined, Frame, LeaderElect, LogLogLe, LogStarLe, SpaceEfficientRatRace};
use rtas::native::{NativeMemory, NativeRunner};
use rtas::sim::adversary::{AdversaryClass, FnAdversary, View};
use rtas::sim::executor::Execution;
use rtas::sim::memory::Memory;
use rtas::sim::rng::SplitMix64;
use rtas::sim::word::{ProcessId, Word};
use rtas::Backend;

const BACKENDS: [Backend; 4] = [
    Backend::LogStar,
    Backend::LogLog,
    Backend::RatRace,
    Backend::Combined,
];

/// The election a `backend` object runs, laid out in `layout`.
fn election(backend: Backend, layout: &mut Memory, capacity: usize) -> Arc<dyn LeaderElect> {
    match backend {
        Backend::LogStar => Arc::new(LogStarLe::new(layout, capacity)),
        Backend::LogLog => Arc::new(LogLogLe::new(layout, capacity)),
        Backend::RatRace => Arc::new(SpaceEfficientRatRace::new(layout, capacity)),
        Backend::Combined => {
            let weak = Arc::new(LogStarLe::new(layout, capacity));
            Arc::new(Combined::new(layout, weak, capacity))
        }
    }
}

/// `(result, steps)` per participant, run natively one after another
/// from the election's `start` frame.
fn native(start: &Frame, layout: &Memory, k: usize, seed: u64) -> Vec<(Word, u64)> {
    let memory = NativeMemory::from_layout(layout);
    let mut runner = NativeRunner::new();
    (0..k)
        .map(|p| {
            let mut coins = SplitMix64::split(seed, p as u64);
            let result = runner.run_with_coins(start, &memory, p, &mut coins);
            (result, runner.steps())
        })
        .collect()
}

/// `(result, steps)` per process, simulated with each process run to
/// completion in pid order.
fn simulated(le: &dyn LeaderElect, layout: Memory, k: usize, seed: u64) -> Vec<(Word, u64)> {
    let protocols = (0..k).map(|_| le.elect()).collect();
    let mut in_order = FnAdversary::new(AdversaryClass::Adaptive, |view: &View<'_>| {
        view.active().first().copied()
    });
    let result = Execution::new(layout, protocols, seed).run(&mut in_order);
    (0..k)
        .map(|p| {
            let pid = ProcessId(p);
            let outcome = result.outcome(pid).expect("every process finishes");
            (outcome, result.steps().of(pid))
        })
        .collect()
}

#[test]
fn native_runs_match_the_simulator_step_for_step() {
    for backend in BACKENDS {
        for capacity in [8usize, 64] {
            let mut layout = Memory::new();
            let le = election(backend, &mut layout, capacity);
            for k in [1usize, 2, 8] {
                for seed in 0..50 {
                    let native = native(&le.root().frame(), &layout, k, seed);
                    let mut fresh = Memory::new();
                    let twin = election(backend, &mut fresh, capacity);
                    let simulated = simulated(twin.as_ref(), fresh, k, seed);
                    assert_eq!(
                        native, simulated,
                        "{backend:?} capacity {capacity} k {k} seed {seed}: (result, steps) per participant"
                    );
                }
            }
        }
    }
}
