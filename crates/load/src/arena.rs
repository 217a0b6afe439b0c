//! The sharded arena: a fixed pool of recyclable native TAS objects.
//!
//! The paper's objects are one-shot — `capacity` participants, one call
//! each, exactly one winner. A load harness wants *sustained* traffic,
//! so the arena recycles a fixed pool instead of constructing a fresh
//! object per resolution:
//!
//! * **Shards** — `shards` independent test-and-set objects, each in its
//!   own register block and each fronted by a cache-line-padded header,
//!   so resolutions on different shards never false-share. Every shard
//!   runs the arena's one [`Layout`], computed once; a shard owns only
//!   its registers and counters ([`ObjectState`]).
//! * **Epochs** — each shard advances through *epochs*. An epoch is one
//!   full resolution: exactly `group` participants call
//!   [`TasArena::resolve`] for that epoch, exactly one of them wins, and
//!   the **last finisher** recycles the object with the allocation-free
//!   [`ObjectState::reset`] and opens the next epoch by bumping the
//!   shard's epoch counter with release ordering. Participants of epoch
//!   `e + 1` spin on the counter with acquire ordering before touching
//!   the object, so the reset happens-before every next-epoch operation
//!   — the quiescence contract of [`rtas::native::NativeMemory::reset`]
//!   discharged by construction.
//!
//! Epoch membership is static: the workload driver assigns each
//! operation a `(shard, epoch)` pair such that every epoch receives
//! exactly `group` operations (see `crate::driver`), so no entry tickets
//! or queues are needed — the op path is a spin-wait, the protocol run
//! itself, and two atomic RMWs. The steady-state path allocates nothing:
//! the protocol's frames run on a reused [`NativeRunner`] stack.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use rtas::native::NativeRunner;
use rtas::sync::{Backoff, CachePadded};
use rtas::{Backend, Layout, ObjectState};

/// One shard: a recyclable TAS's state plus its epoch-recycling header.
#[derive(Debug)]
struct Shard {
    tas: ObjectState,
    /// The currently open epoch. Bumped with `Release` by the finisher
    /// that performed the reset; read with `Acquire` by entrants.
    epoch: AtomicU64,
    /// Completed calls within the open epoch (`0..=group`).
    done: AtomicUsize,
    /// Resolutions won on this shard, accumulated across epochs. Updated
    /// by winners only — one per epoch — so contention is negligible.
    wins: AtomicU64,
}

/// A sharded pool of recyclable test-and-set objects.
///
/// See the [module docs](self) for the epoch protocol.
#[derive(Debug)]
pub struct TasArena {
    shards: Vec<CachePadded<Shard>>,
    /// The layout every shard's object shares.
    layout: &'static Layout,
}

impl TasArena {
    /// An arena of `shards` independent TAS objects, each sized for
    /// `group` participants per epoch.
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0` or `group == 0`.
    pub fn new(backend: Backend, shards: usize, group: usize) -> Self {
        assert!(shards >= 1, "arena needs at least one shard");
        assert!(group >= 1, "arena needs at least one participant per epoch");
        let layout = Layout::shared(backend, group);
        let shards = (0..shards)
            .map(|_| {
                CachePadded(Shard {
                    tas: layout.state(),
                    epoch: AtomicU64::new(0),
                    done: AtomicUsize::new(0),
                    wins: AtomicU64::new(0),
                })
            })
            .collect();
        TasArena { shards, layout }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Participants per epoch (the capacity of each pooled object).
    pub fn group(&self) -> usize {
        self.layout.capacity()
    }

    /// The backend every pooled object runs.
    pub fn backend(&self) -> Backend {
        self.layout.backend()
    }

    /// The currently open epoch of `shard` — the epoch index a driver
    /// must target for the shard's next `group` operations.
    pub fn epoch(&self, shard: usize) -> u64 {
        self.shards[shard].0.epoch.load(Ordering::Acquire)
    }

    /// Completed resolutions (closed epochs) on `shard` so far.
    pub fn epochs_completed(&self, shard: usize) -> u64 {
        // `epoch` only advances when an epoch fully closes.
        self.epoch(shard)
    }

    /// Wins recorded on `shard` so far — equals
    /// [`TasArena::epochs_completed`] whenever every epoch ran to
    /// completion, the exactly-one-winner invariant.
    pub fn wins(&self, shard: usize) -> u64 {
        self.shards[shard].0.wins.load(Ordering::Acquire)
    }

    /// Total registers held by the pool (all shards).
    pub fn registers(&self) -> u64 {
        self.shards.len() as u64 * self.layout.tas_registers()
    }

    /// Perform one operation of epoch `epoch` on `shard`: wait for the
    /// epoch to open, run `test_and_set`, and — as the epoch's last
    /// finisher — recycle the object and open the next epoch.
    ///
    /// Returns `true` iff this call *won* its resolution (observed the
    /// bit clear). The caller must be one of the epoch's `group`
    /// designated participants: calling with an epoch ahead of the
    /// shard's current epoch simply waits until the intervening epochs
    /// complete, but over-subscribing a single epoch (more than `group`
    /// calls) trips the one-shot capacity assertion.
    ///
    /// # Panics
    ///
    /// Panics if `epoch` has already closed on this shard (the epoch
    /// counter only advances, so waiting for the past would spin
    /// forever — e.g. a reused arena driven without offsetting by
    /// [`TasArena::epoch`]).
    pub fn resolve(&self, shard: usize, epoch: u64, runner: &mut NativeRunner) -> bool {
        let shard = &self.shards[shard].0;
        // Wait for our epoch. Spin briefly, then yield: workloads with
        // more workers than cores must not livelock the finisher out of
        // its reset.
        let mut backoff = Backoff::new();
        loop {
            let current = shard.epoch.load(Ordering::Acquire);
            if current == epoch {
                break;
            }
            assert!(
                current < epoch,
                "epoch {epoch} already closed (shard is at {current}): \
                 a reused arena must offset by TasArena::epoch"
            );
            backoff.snooze();
        }
        let won = !self.layout.test_and_set(&shard.tas, runner);
        if won {
            shard.wins.fetch_add(1, Ordering::AcqRel);
        }
        if shard.done.fetch_add(1, Ordering::AcqRel) + 1 == self.group() {
            // Every call of this epoch has returned: the object is
            // quiescent. Recycle it and publish the reset to the next
            // epoch's participants through the epoch counter.
            shard.tas.reset();
            shard.done.store(0, Ordering::Relaxed);
            shard.epoch.fetch_add(1, Ordering::Release);
        }
        won
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solo_arena_recycles_across_epochs() {
        let arena = TasArena::new(Backend::LogStar, 2, 1);
        let mut runner = NativeRunner::new();
        for epoch in 0..200 {
            for shard in 0..2 {
                assert!(
                    arena.resolve(shard, epoch, &mut runner),
                    "group of one always wins (shard {shard}, epoch {epoch})"
                );
            }
        }
        assert_eq!(arena.epochs_completed(0), 200);
        assert_eq!(arena.wins(1), 200);
        assert_eq!(arena.group(), 1);
        assert_eq!(arena.shards(), 2);
        assert!(arena.registers() > 0);
    }

    #[test]
    fn contended_shard_has_exactly_one_winner_per_epoch() {
        let group = 4;
        let epochs = 50u64;
        let arena = TasArena::new(Backend::Combined, 1, group);
        let wins: u64 = std::thread::scope(|s| {
            let handles: Vec<_> = (0..group)
                .map(|_| {
                    let arena = &arena;
                    s.spawn(move || {
                        let mut runner = NativeRunner::new();
                        let mut wins = 0u64;
                        for epoch in 0..epochs {
                            if arena.resolve(0, epoch, &mut runner) {
                                wins += 1;
                            }
                        }
                        wins
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).sum()
        });
        assert_eq!(wins, epochs, "exactly one winner per epoch");
        assert_eq!(arena.epochs_completed(0), epochs);
        assert_eq!(arena.wins(0), epochs);
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        let _ = TasArena::new(Backend::LogStar, 0, 1);
    }

    #[test]
    #[should_panic(expected = "already closed")]
    fn resolving_a_past_epoch_panics_instead_of_hanging() {
        let arena = TasArena::new(Backend::LogStar, 1, 1);
        let mut runner = NativeRunner::new();
        for epoch in 0..3 {
            let _ = arena.resolve(0, epoch, &mut runner);
        }
        let _ = arena.resolve(0, 1, &mut runner);
    }
}
