//! Native execution: the verified protocols on real atomics.
//!
//! The simulator protocols ([`rtas_sim::protocol::Protocol`]) are pure
//! state machines that interact with the world only through single-register
//! atomic reads and writes. That makes them directly executable on real
//! hardware: [`NativeMemory`] maps every simulated register onto a
//! `std::sync::atomic::AtomicU64`, and [`run_protocol`] drives a protocol
//! to completion on the calling thread, performing each `Poll::Op` as a
//! sequentially-consistent load or store.
//!
//! Because the *same* state machines run in both worlds, every safety
//! property established by the exhaustive explorer and the simulator test
//! suite carries over to the native objects — the only difference is who
//! schedules the interleaving (the OS instead of an adversary).

//!
//! Native objects are also *recyclable*: [`NativeMemory::reset`] returns
//! every register to 0 in O(1) and without allocating, by moving to a
//! new epoch tag under which older register words read as 0 (see
//! [`NativeMemory`]), and [`NativeRunner`] reuses one protocol-stack buffer
//! across operations — together the foundation of the `rtas-load`
//! sharded arena, which resolves sustained traffic on a fixed pool of
//! objects instead of constructing one per operation.

mod driver;

pub use driver::{run_protocol, NativeMemory, NativeRunner};

#[cfg(test)]
mod tests {
    use super::*;
    use rtas_primitives::{RoleLeaderElect, TwoProcessLe};
    use rtas_sim::memory::Memory;
    use rtas_sim::protocol::ret;

    #[test]
    fn two_process_le_on_real_threads() {
        for round in 0..50 {
            let mut mem = Memory::new();
            let le = TwoProcessLe::new(&mut mem, "2le");
            let shared = NativeMemory::from_layout(&mem);
            let wins: Vec<u64> = std::thread::scope(|s| {
                let handles: Vec<_> = (0..2)
                    .map(|role| {
                        let shared = &shared;
                        s.spawn(move || {
                            run_protocol(le.elect_as(role), shared, role, round * 2 + role as u64)
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            let winners = wins.iter().filter(|&&w| w == ret::WIN).count();
            assert_eq!(winners, 1, "round {round}: {wins:?}");
        }
    }

    #[test]
    fn reset_arena_resolves_correctly_across_100_epochs() {
        // One register block, built once, recycled by reset() — the
        // arena's reuse contract: every epoch must still elect exactly
        // one of the two concurrent participants.
        let mut mem = Memory::new();
        let le = TwoProcessLe::new(&mut mem, "2le");
        let shared = NativeMemory::from_layout(&mem);
        for epoch in 0..100u64 {
            let wins: Vec<u64> = std::thread::scope(|s| {
                let handles: Vec<_> = (0..2)
                    .map(|role| {
                        let shared = &shared;
                        s.spawn(move || {
                            run_protocol(le.elect_as(role), shared, role, epoch * 2 + role as u64)
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            let winners = wins.iter().filter(|&&w| w == ret::WIN).count();
            assert_eq!(winners, 1, "epoch {epoch}: {wins:?}");
            shared.reset();
        }
    }
}
