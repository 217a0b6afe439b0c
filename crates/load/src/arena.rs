//! The sharded arena: a fixed pool of recyclable native TAS objects.
//!
//! The paper's objects are one-shot — `capacity` participants, one call
//! each, exactly one winner. A load harness wants *sustained* traffic,
//! so the arena recycles a fixed pool instead of constructing a fresh
//! object per resolution:
//!
//! * **Shards** — `shards` independent test-and-set objects, each behind
//!   cache-line padding and in its own register block, which starts on
//!   a cache line of its own, so resolutions on different shards never
//!   false-share. Every shard runs the arena's one [`Layout`], computed
//!   once; a shard owns only its registers and counters
//!   ([`ObjectState`]).
//! * **Epochs** — the driver's per-shard epoch gate (see
//!   [`crate::driver`]) admits exactly `group` participants into each
//!   epoch, and its **last finisher** calls
//!   [`recycle`](LoadTarget::recycle): the allocation-free
//!   [`ObjectState::reset`], published to the next epoch's participants
//!   by the gate's release store — the quiescence contract of
//!   [`rtas::native::NativeMemory::reset`] discharged by construction.
//!
//! The arena itself is only the objects: [`acquire`](LoadTarget::acquire)
//! is one protocol run, and it allocates nothing — the protocol's
//! frames run on the worker's reused [`NativeRunner`] stack.

use rtas::native::NativeRunner;
use rtas::sync::CachePadded;
use rtas::{Backend, Layout, ObjectState};

use crate::driver::LoadTarget;

/// A sharded pool of recyclable test-and-set objects.
///
/// See the [module docs](self) for how the driver recycles it.
#[derive(Debug)]
pub struct TasArena {
    shards: Vec<CachePadded<ObjectState>>,
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
        let shards = (0..shards).map(|_| CachePadded(layout.state())).collect();
        TasArena { shards, layout }
    }
}

impl LoadTarget for TasArena {
    type Ctx = NativeRunner;

    fn shards(&self) -> usize {
        self.shards.len()
    }

    fn group(&self) -> usize {
        self.layout.capacity()
    }

    fn context(&self) -> NativeRunner {
        NativeRunner::new()
    }

    /// One `test_and_set` on `shard`'s object: `true` iff it won.
    fn acquire(&self, runner: &mut NativeRunner, shard: usize) -> bool {
        !self.layout.test_and_set(&self.shards[shard].0, runner)
    }

    fn recycle(&self, _: &mut NativeRunner, shard: usize, _: u64) {
        self.shards[shard].0.reset();
    }

    fn registers(&self) -> u64 {
        self.shards.len() as u64 * self.layout.tas_registers()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solo_arena_recycles_across_epochs() {
        let arena = TasArena::new(Backend::LogStar, 2, 1);
        let mut runner = arena.context();
        for epoch in 0..200 {
            for shard in 0..2 {
                assert!(
                    arena.acquire(&mut runner, shard),
                    "group of one always wins (shard {shard}, epoch {epoch})"
                );
                arena.recycle(&mut runner, shard, epoch);
            }
        }
        assert_eq!(arena.group(), 1);
        assert_eq!(arena.shards(), 2);
        assert!(arena.registers() > 0);
    }

    #[test]
    fn an_unrecycled_object_has_no_second_winner() {
        let arena = TasArena::new(Backend::Combined, 1, 4);
        let mut runner = arena.context();
        let wins = (0..4).filter(|_| arena.acquire(&mut runner, 0)).count();
        assert_eq!(wins, 1, "exactly one winner per epoch");
        arena.recycle(&mut runner, 0, 0);
        assert!(arena.acquire(&mut runner, 0), "a recycled object is fresh");
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        let _ = TasArena::new(Backend::LogStar, 0, 1);
    }
}
