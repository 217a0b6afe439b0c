//! Integration: the native (real-atomics) objects under genuine OS-thread
//! concurrency, across all backends — fresh objects, recycled (reset)
//! objects, and the raw group-election primitive.

use std::sync::Arc;

use rtas::algorithms::{
    Combined, GeometricGroupElect, GroupElect, LeaderElect, LogLogLe, LogStarLe, SiftingGroupElect,
    SpaceEfficientRatRace,
};
use rtas::native::{run_protocol, NativeMemory, NativeRunner};
use rtas::sim::memory::Memory;
use rtas::sim::protocol::ret;
use rtas::sim::word::{RegId, Word};
use rtas::{Backend, LeaderElection, TestAndSet};

const BACKENDS: [Backend; 4] = [
    Backend::LogStar,
    Backend::LogLog,
    Backend::RatRace,
    Backend::Combined,
];

#[test]
fn hammered_leader_election_unique_winner() {
    for backend in BACKENDS {
        for round in 0..20 {
            let n = 16;
            let le = LeaderElection::with_backend(backend, n);
            let wins: Vec<bool> = std::thread::scope(|s| {
                let handles: Vec<_> = (0..n).map(|_| s.spawn(|| le.elect())).collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            assert_eq!(
                wins.iter().filter(|&&w| w).count(),
                1,
                "{backend:?} round {round}"
            );
        }
    }
}

#[test]
fn hammered_tas_exactly_one_winner() {
    for backend in BACKENDS {
        for round in 0..15 {
            let n = 12;
            let tas = TestAndSet::with_backend(backend, n);
            let outs: Vec<bool> = std::thread::scope(|s| {
                let handles: Vec<_> = (0..n).map(|_| s.spawn(|| tas.test_and_set())).collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            assert_eq!(
                outs.iter().filter(|&&set| !set).count(),
                1,
                "{backend:?} round {round}: {outs:?}"
            );
        }
    }
}

#[test]
fn staggered_arrivals_still_one_winner() {
    // Threads arrive with real delays; later arrivals should overwhelmingly
    // lose, and there must never be more than one winner.
    let n = 8;
    let tas = TestAndSet::new(n);
    let outs: Vec<(usize, bool)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..n)
            .map(|i| {
                let tas = &tas;
                s.spawn(move || {
                    std::thread::sleep(std::time::Duration::from_micros(i as u64 * 200));
                    (i, tas.test_and_set())
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert_eq!(outs.iter().filter(|(_, set)| !set).count(), 1);
}

#[test]
fn tas_chain_assigns_distinct_names() {
    // The renaming construction (examples/renaming.rs) as a test.
    let n = 6;
    let slots: Vec<TestAndSet> = (0..n).map(|_| TestAndSet::new(n)).collect();
    let names: Vec<usize> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..n)
            .map(|_| {
                let slots = &slots;
                s.spawn(move || {
                    slots
                        .iter()
                        .position(|slot| !slot.test_and_set())
                        .expect("pigeonhole guarantees a name")
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let mut sorted = names.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(sorted.len(), n, "duplicate names: {names:?}");
}

#[test]
fn capacity_one_object_is_trivially_won() {
    let le = LeaderElection::new(1);
    assert!(le.elect());
}

/// Run one native group-election round with `n` threads on `shared`,
/// returning the number of elected (WIN) participants.
fn native_group_election_round(
    ge: &dyn GroupElect,
    shared: &NativeMemory,
    n: usize,
    round: u64,
) -> usize {
    let wins: Vec<u64> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..n)
            .map(|p| s.spawn(move || run_protocol(ge.elect(), shared, p, round * 64 + p as u64)))
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    wins.iter().filter(|&&w| w == ret::WIN).count()
}

#[test]
fn geometric_group_election_on_8_real_threads() {
    // Group election's safety property: when every participant runs to
    // completion, at least one is elected (Lemma 2.2's performance side
    // says *few* are — checked statistically over the rounds). The
    // structure is built once and recycled by register reset.
    let n = 8;
    let mut mem = Memory::new();
    let ge = GeometricGroupElect::new(&mut mem, n, "native-ge");
    let shared = NativeMemory::from_layout(&mem);
    let mut total_elected = 0;
    let rounds = 30;
    for round in 0..rounds {
        let elected = native_group_election_round(&ge, &shared, n, round);
        assert!(
            (1..=n).contains(&elected),
            "round {round}: {elected} elected out of {n}"
        );
        total_elected += elected;
        shared.reset();
    }
    // E[elected] <= 2 log2 k + 6 = 12 at k = 8; the mean over 30 rounds
    // staying below the bound is a very weak (hence robust) check.
    assert!(
        (total_elected as f64 / rounds as f64) <= 2.0 * (n as f64).log2() + 6.0,
        "mean elected {} suspiciously high",
        total_elected as f64 / rounds as f64
    );
}

#[test]
fn sifting_group_election_on_8_real_threads() {
    let n = 8;
    let mut mem = Memory::new();
    let ge = SiftingGroupElect::new(
        &mut mem,
        SiftingGroupElect::probability_for_expected(2.0),
        "native-sift",
    );
    let shared = NativeMemory::from_layout(&mem);
    for round in 0..30 {
        let elected = native_group_election_round(&ge, &shared, n, round);
        assert!(
            (1..=n).contains(&elected),
            "round {round}: {elected} elected out of {n}"
        );
        shared.reset();
    }
}

#[test]
fn recycled_backends_on_8_threads_exactly_one_winner_per_round() {
    // Satellite coverage beyond 2-process LE: LogStar, RatRace, and
    // Combined at 8 real threads, one object per backend recycled by
    // reset() across repeated rounds — exactly one winner every round.
    for backend in [Backend::LogStar, Backend::RatRace, Backend::Combined] {
        let n = 8;
        let le = LeaderElection::with_backend(backend, n);
        let tas = TestAndSet::with_backend(backend, n);
        for round in 0..20 {
            let wins: Vec<bool> = std::thread::scope(|s| {
                let handles: Vec<_> = (0..n)
                    .map(|_| {
                        let le = &le;
                        s.spawn(move || {
                            let mut runner = NativeRunner::new();
                            le.elect_with(&mut runner)
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            assert_eq!(
                wins.iter().filter(|&&w| w).count(),
                1,
                "{backend:?} LE round {round}: {wins:?}"
            );
            let outs: Vec<bool> = std::thread::scope(|s| {
                let handles: Vec<_> = (0..n).map(|_| s.spawn(|| tas.test_and_set())).collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            assert_eq!(
                outs.iter().filter(|&&set| !set).count(),
                1,
                "{backend:?} TAS round {round}: {outs:?}"
            );
            le.reset();
            tas.reset();
        }
    }
}

/// The descriptor a [`LeaderElection`] of `backend` runs, laid out in
/// `layout`.
fn descriptor(backend: Backend, layout: &mut Memory, capacity: usize) -> Arc<dyn LeaderElect> {
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

fn register_values(memory: &NativeMemory) -> Vec<Word> {
    (0..memory.len() as u64)
        .map(|i| memory.read(RegId(i)))
        .collect()
}

/// The largest value a native register word stores.
const MAX_VALUE: Word = (1 << 48) - 1;

#[test]
fn recycled_memory_matches_fresh_memory_across_the_tag_wrap() {
    // Register words carry a 16-bit epoch tag, so the 65,536th reset
    // brings back the first epoch's tag. Elections at checked epochs on
    // one recycled memory must match the same elections on a fresh one.
    const WRAP: u64 = 1 << 16;
    const PARTICIPANTS: usize = 4;
    for backend in BACKENDS {
        let mut layout = Memory::new();
        let le = descriptor(backend, &mut layout, 64);
        let recycled = NativeMemory::from_layout(&layout);
        for epoch in 0..WRAP + 4_000 {
            if epoch % 1_000 == 0 || (WRAP - 2..WRAP + 2).contains(&epoch) {
                let fresh = NativeMemory::from_layout(&layout);
                // At epoch WRAP this also shows that the words written
                // just before the wrap read 0 after it.
                assert_eq!(
                    register_values(&recycled),
                    register_values(&fresh),
                    "{backend:?} epoch {epoch}: recycled memory does not read as zero"
                );
                let elect = |memory: &NativeMemory| -> Vec<Word> {
                    (0..PARTICIPANTS)
                        .map(|p| run_protocol(le.elect(), memory, p, epoch * 64 + p as u64))
                        .collect()
                };
                let verdicts = elect(&recycled);
                assert_eq!(verdicts, elect(&fresh), "{backend:?} epoch {epoch}");
                assert_eq!(
                    verdicts.iter().filter(|&&v| v == ret::WIN).count(),
                    1,
                    "{backend:?} epoch {epoch}: {verdicts:?}"
                );
                assert_eq!(
                    register_values(&recycled),
                    register_values(&fresh),
                    "{backend:?} epoch {epoch}"
                );
            }
            if epoch == 0 {
                // Words left under the first epoch's tag must not read
                // as live when the tag comes round again.
                for i in 0..recycled.len() as u64 {
                    recycled.write(RegId(i), MAX_VALUE);
                    assert_eq!(recycled.read(RegId(i)), MAX_VALUE);
                }
            }
            recycled.reset();
        }
    }
}

#[test]
#[should_panic(expected = "does not fit in 48 bits")]
fn writing_a_value_above_48_bits_panics() {
    let mut layout = Memory::new();
    let reg = layout.alloc(1, "t").get(0);
    NativeMemory::from_layout(&layout).write(reg, MAX_VALUE + 1);
}
