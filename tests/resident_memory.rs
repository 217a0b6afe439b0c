//! Resident memory follows the registers an object's epochs write, not
//! the registers its layout declares.
//!
//! * 4,096 keys of a Combined, capacity-64 namespace (the service's
//!   default shape), each created by one solo test-and-set and its
//!   `RESET`, grow the resident set by at most 6 KiB per key. Their
//!   declared registers take 20,384 bytes per key.
//! * A tag wrap commits no page its memory never wrote: after one write
//!   to a 32 MiB memory, 65,536 resets (the last one sweeps the block)
//!   grow the resident set by less than 1 MiB, and every register reads
//!   0 afterwards.
//!
//! Linux only: the resident set is `VmRSS` in `/proc/self/status`, and
//! the test returns at once where that cannot be read. Everything runs
//! in ONE test function, in a binary of its own, so no other test's
//! memory moves the figures. The keys come first: freeing a large block
//! raises glibc's threshold for mapping fresh pages, and the 32 MiB
//! memory is not freed before the keys are made.

use rtas::native::{NativeMemory, NativeRunner};
use rtas::sim::word::RegId;
use rtas::Backend;
use rtas_svc::{Kind, Namespace};

/// The resident set in bytes, if this platform reports it.
fn resident_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb = status
        .lines()
        .find_map(|line| line.strip_prefix("VmRSS:"))?
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse::<u64>()
        .ok()?;
    Some(kb * 1024)
}

#[test]
fn resident_memory_follows_the_registers_written() {
    let Some(start) = resident_bytes() else {
        eprintln!("skipped: no VmRSS in /proc/self/status");
        return;
    };

    // Per key: one solo epoch writes the registers at the front of the
    // key's block, so about one page of it.
    const KEYS: u64 = 4_096;
    const KEY_BUDGET: u64 = 6 * 1024;
    let keys: Vec<Vec<u8>> = (0..KEYS).map(|k| format!("key-{k}").into_bytes()).collect();
    let namespace = Namespace::new(Backend::Combined, 8, 64);
    let mut runner = NativeRunner::new();
    let before = resident_bytes().unwrap_or(start);
    for key in &keys {
        let verdict = namespace
            .acquire(Kind::Tas, key, &mut runner)
            .expect("the namespace admits every key");
        assert!(verdict.won, "a solo caller wins");
        assert_eq!(namespace.reset(key), Some(1));
    }
    let per_key = resident_bytes().unwrap_or(before).saturating_sub(before) / KEYS;
    eprintln!("{KEYS} keys: {per_key} B resident per key");
    assert!(
        per_key <= KEY_BUDGET,
        "{KEYS} keys grew the resident set by {per_key} B per key (budget {KEY_BUDGET} B)"
    );

    // The wrap: one written word, so the sweep stores to one word.
    const REGISTERS: usize = 4 << 20;
    const WRAP_BUDGET: u64 = 1 << 20;
    let memory = NativeMemory::zeroed(REGISTERS);
    memory.write(RegId(REGISTERS as u64 / 2 + 3), 42);
    let before = resident_bytes().unwrap_or(start);
    for _ in 0..=u16::MAX {
        memory.reset();
    }
    let grown = resident_bytes().unwrap_or(before).saturating_sub(before);
    eprintln!("tag wrap: resident set grew {grown} B");
    assert!(
        grown < WRAP_BUDGET,
        "65,536 resets of a memory with one written register grew the resident set by {grown} B"
    );
    for i in 0..REGISTERS as u64 {
        assert_eq!(memory.read(RegId(i)), 0, "register {i} after the wrap");
    }
}
