//! Native execution: the verified protocols on real atomics.
//!
//! Every protocol is a stack of `Copy` frames ([`rtas_algorithms::frame`])
//! that interacts with the world only through single-register atomic reads
//! and writes. That makes the frames directly executable on real hardware:
//! [`NativeMemory`] maps every simulated register onto a
//! `std::sync::atomic::AtomicU64`, and [`NativeRunner`] steps a root frame
//! and its children to completion on the calling thread, performing each
//! operation as a sequentially-consistent load or store.
//!
//! Because the *same* frames run in both worlds, every safety property
//! established by the exhaustive explorer and the simulator test suite
//! carries over to the native objects — the only difference is who
//! schedules the interleaving (the OS instead of an adversary).
//!
//! Native objects are also *recyclable*: [`NativeMemory::reset`] returns
//! every register to 0 in O(1) and without allocating, by moving to a
//! new epoch tag under which older register words read as 0 (see
//! [`NativeMemory`]), and [`NativeRunner`] reuses one frame stack across
//! operations — together the foundation of the `rtas-load` sharded arena
//! and the `rtas-svc` namespaces, which resolve sustained traffic on
//! recycled objects without allocating.

mod driver;

pub use driver::{run_protocol, NativeMemory, NativeRunner};

#[cfg(test)]
mod tests {
    use super::*;
    use rtas_algorithms::{LeRoot, SideFrame};
    use rtas_primitives::TwoProcessLe;
    use rtas_sim::memory::Memory;
    use rtas_sim::protocol::ret;

    /// One 2-process election as `role`, on a fresh runner.
    fn elect_as(le: TwoProcessLe, role: usize, memory: &NativeMemory, seed: u64) -> u64 {
        let root = LeRoot::Side(SideFrame::TwoProcess(le.frame(role)));
        NativeRunner::new().run(&root.frame(), memory, role, seed)
    }

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
                        s.spawn(move || elect_as(le, role, shared, round * 2 + role as u64))
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
                        s.spawn(move || elect_as(le, role, shared, epoch * 2 + role as u64))
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
