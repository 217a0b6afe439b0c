//! Integration: the paper's space claims, measured end-to-end.

use std::sync::Arc;

use rtas::algorithms::{Combined, LogLogLe, LogStarLe, OriginalRatRace, SpaceEfficientRatRace};
use rtas::sim::memory::Memory;
use rtas_lowerbound::recurrence::register_lower_bound;

#[test]
fn space_efficient_structures_are_linear() {
    // All the O(n)/Θ(n) structures should stay within a generous c·n.
    for n in [64usize, 256, 1024, 4096] {
        let declared = |f: &dyn Fn(&mut Memory)| {
            let mut mem = Memory::new();
            f(&mut mem);
            mem.declared_registers()
        };
        let logstar = declared(&|m| {
            LogStarLe::new(m, n);
        });
        let loglog = declared(&|m| {
            LogLogLe::new(m, n);
        });
        let ratrace = declared(&|m| {
            SpaceEfficientRatRace::new(m, n);
        });
        let combined = declared(&|m| {
            let weak = Arc::new(LogStarLe::new(m, n));
            Combined::new(m, weak, n);
        });
        for (name, regs) in [
            ("logstar", logstar),
            ("loglog", loglog),
            ("ratrace-se", ratrace),
            ("combined", combined),
        ] {
            assert!(
                regs <= 45 * n as u64 + 500,
                "{name} n={n}: {regs} registers is not O(n)"
            );
            assert!(regs >= n as u64, "{name} n={n}: implausibly small ({regs})");
        }
    }
}

#[test]
fn original_ratrace_is_cubic_in_declared_space() {
    let declared = |n: usize| {
        let mut mem = Memory::new();
        let _ = OriginalRatRace::new(&mut mem, n);
        mem.declared_registers()
    };
    let d32 = declared(32);
    let d64 = declared(64);
    let d128 = declared(128);
    // Doubling n multiplies the declared registers by ≈ 8 (tree height
    // 3·log n gains 3 levels).
    assert!(d64 > 6 * d32, "d32={d32} d64={d64}");
    assert!(d128 > 6 * d64, "d64={d64} d128={d128}");
}

#[test]
fn space_separation_matches_paper_orders() {
    // At n = 256 the original should already exceed the space-efficient
    // version by more than n (Θ(n³) vs Θ(n) with small constants).
    let n = 256;
    let mut mem_o = Memory::new();
    let _ = OriginalRatRace::new(&mut mem_o, n);
    let mut mem_s = Memory::new();
    let _ = SpaceEfficientRatRace::new(&mut mem_s, n);
    let ratio = mem_o.declared_registers() / mem_s.declared_registers().max(1);
    assert!(ratio > n as u64, "separation ratio only {ratio}");
}

#[test]
fn all_upper_bounds_respect_the_lower_bound() {
    // Theorem 5.1: Ω(log n) registers are necessary. Every implementation
    // obviously uses more; check the bound machinery and the structures
    // agree on ordering.
    for n in [64u64, 1024, 4096] {
        let lower = register_lower_bound(n);
        let mut mem = Memory::new();
        let _ = SpaceEfficientRatRace::new(&mut mem, n as usize);
        assert!(mem.declared_registers() >= lower);
        assert!(lower >= (n.ilog2() as u64).saturating_sub(1));
    }
}

#[test]
fn labels_partition_the_space() {
    let n = 128;
    let mut mem = Memory::new();
    let _ = SpaceEfficientRatRace::new(&mut mem, n);
    let stats = mem.stats_by_label();
    let total: u64 = stats.values().map(|s| s.declared).sum();
    assert_eq!(total, mem.declared_registers());
    // The big components are present.
    assert!(stats.contains_key("ratrace-tree"));
    assert!(stats.contains_key("ratrace-overflow-path"));
    assert!(stats.contains_key("ratrace-backup-path"));
    assert!(stats.contains_key("ratrace-letop"));
}
