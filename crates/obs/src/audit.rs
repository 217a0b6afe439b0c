//! The trace-evidence auditor: verify the paper's safety property from
//! recorded evidence alone.
//!
//! Live harnesses assert one-winner-per-key-epoch while they run; this
//! module proves the same invariants *offline* from any flight-recorder
//! dump — a production incident dump, a chaos CI cell's artifact, or a
//! merged client+server trace. [`audit_events`] replays the arbitration
//! evidence ([`ArbiterVerdict`], [`ResetAck`], [`LeaseReclaim`]) and
//! checks:
//!
//! 1. **One winner**: at most one *winning* verdict per `(key, epoch)`.
//! 2. **No post-reclaim wins**: a winning verdict never timestamps
//!    after the reclaim that tore its epoch down (losing verdicts may —
//!    a losing arbitration racing the reclaiming arrival records late,
//!    benignly).
//! 3. **One ack**: at most one `RESET` ack per `(key, epoch)` (acks
//!    that found no key, `epoch == 0`, are informational and exempt).
//! 4. **One reclaim**: an epoch is torn down by at most one reclaiming
//!    arrival.
//! 5. **Single opener**: an epoch is opened by a `RESET` ack *or* by a
//!    reclaim of its predecessor, never both.
//!
//! Every check is **presence-based**: the rings are lossy by design, so
//! the auditor never treats a *missing* event as a violation — dropped
//! evidence weakens the audit (reported via the dump's drop counters),
//! it does not fail it. A clean audit therefore means "the retained
//! evidence contains no counterexample to the paper's claim".
//!
//! [`ArbiterVerdict`]: crate::EventKind::ArbiterVerdict
//! [`ResetAck`]: crate::EventKind::ResetAck
//! [`LeaseReclaim`]: crate::EventKind::LeaseReclaim

use std::collections::HashMap;

use crate::event::{EventKind, TraceEvent};

/// What the auditor replayed and what it found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditReport {
    /// Arbiter verdicts replayed (wins and losses).
    pub verdicts: usize,
    /// Winning verdicts among them.
    pub wins: usize,
    /// `RESET` acks replayed (including no-such-key acks).
    pub resets: usize,
    /// Lease reclaims replayed.
    pub reclaims: usize,
    /// Distinct `(key, epoch)` pairs with arbitration evidence.
    pub key_epochs: usize,
    /// Human-readable invariant violations; empty means the evidence is
    /// consistent with exactly-one-winner semantics.
    pub violations: Vec<String>,
}

impl AuditReport {
    /// Whether the retained evidence passed every invariant.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }

    /// One-paragraph human summary (the `rtas-trace audit` output).
    pub fn render(&self) -> String {
        let mut out = format!(
            "audited {} verdicts ({} wins), {} resets, {} reclaims \
             across {} key-epochs\n",
            self.verdicts, self.wins, self.resets, self.reclaims, self.key_epochs
        );
        if self.passed() {
            out.push_str("PASS: no counterexample to one-winner-per-key-epoch\n");
        } else {
            out.push_str(&format!("FAIL: {} violation(s)\n", self.violations.len()));
            for v in &self.violations {
                out.push_str(&format!("  - {v}\n"));
            }
        }
        out
    }
}

#[derive(Default)]
struct KeyEpoch {
    wins: Vec<u64>,     // timestamps of winning verdicts
    losses: usize,      // losing verdicts (counted, never constrained)
    resets: usize,      // acks with a real epoch
    reclaims: Vec<u64>, // reclaim timestamps
}

/// Replay arbitration evidence and check the five invariants above.
/// Pass any event list — other kinds (spans, reactor events) are
/// ignored, so merged client+server timelines audit directly.
pub fn audit_events(events: &[TraceEvent]) -> AuditReport {
    let mut by_key_epoch: HashMap<(u64, u64), KeyEpoch> = HashMap::new();
    let (mut verdicts, mut wins, mut resets, mut reclaims) = (0, 0, 0, 0);
    for e in events {
        match e.kind() {
            Some(EventKind::ArbiterVerdict) => {
                verdicts += 1;
                let entry = by_key_epoch.entry((e.c, e.b)).or_default();
                if e.a == 1 {
                    wins += 1;
                    entry.wins.push(e.ts_ns);
                } else {
                    entry.losses += 1;
                }
            }
            Some(EventKind::ResetAck) => {
                resets += 1;
                // b == 0 is the "no such key" ack — it opened nothing
                // and may legitimately repeat.
                if e.b != 0 {
                    by_key_epoch.entry((e.c, e.b)).or_default().resets += 1;
                }
            }
            Some(EventKind::LeaseReclaim) => {
                reclaims += 1;
                by_key_epoch
                    .entry((e.c, e.b))
                    .or_default()
                    .reclaims
                    .push(e.ts_ns);
            }
            _ => {}
        }
    }

    let mut violations = Vec::new();
    let mut keys: Vec<&(u64, u64)> = by_key_epoch.keys().collect();
    keys.sort();
    for &&(key, epoch) in &keys {
        let entry = &by_key_epoch[&(key, epoch)];
        if entry.wins.len() > 1 {
            violations.push(format!(
                "key=0x{key:016x} epoch={epoch}: {} winning verdicts (want at most one)",
                entry.wins.len()
            ));
        }
        if entry.resets > 1 {
            violations.push(format!(
                "key=0x{key:016x} epoch={epoch}: {} RESET acks opened the epoch (want at most one)",
                entry.resets
            ));
        }
        if entry.reclaims.len() > 1 {
            violations.push(format!(
                "key=0x{key:016x} epoch={epoch}: reclaimed {} times (want at most one)",
                entry.reclaims.len()
            ));
        }
        if let (Some(&win_ts), Some(&reclaim_ts)) =
            (entry.wins.iter().max(), entry.reclaims.iter().min())
        {
            if win_ts > reclaim_ts {
                violations.push(format!(
                    "key=0x{key:016x} epoch={epoch}: winning verdict at {win_ts}ns \
                     after the epoch was reclaimed at {reclaim_ts}ns"
                ));
            }
        }
        // Double-open: epoch e acked into existence *and* opened by a
        // reclaim of e-1. (The per-key entry is serialized server-side,
        // so both present is structurally impossible in a sound run —
        // and absence of either is just a lossy ring, not a pass/fail.)
        if entry.resets > 0 && epoch > 0 {
            if let Some(prev) = by_key_epoch.get(&(key, epoch - 1)) {
                if !prev.reclaims.is_empty() {
                    violations.push(format!(
                        "key=0x{key:016x} epoch={epoch}: opened by both a RESET ack \
                         and a reclaim of epoch {}",
                        epoch - 1
                    ));
                }
            }
        }
    }

    AuditReport {
        verdicts,
        wins,
        resets,
        reclaims,
        key_epochs: by_key_epoch.len(),
        violations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(kind: EventKind, ts_ns: u64, a: u32, b: u64, c: u64) -> TraceEvent {
        TraceEvent {
            ts_ns,
            lane: 2,
            ticket: ts_ns,
            kind: kind as u32,
            a,
            b,
            c,
        }
    }

    const KEY: u64 = 0xabc;

    #[test]
    fn a_clean_epoch_cycle_passes() {
        let events = [
            ev(EventKind::ArbiterVerdict, 10, 1, 0, KEY), // win epoch 0
            ev(EventKind::ArbiterVerdict, 11, 0, 0, KEY), // loss epoch 0
            ev(EventKind::ResetAck, 20, 0, 1, KEY),       // opens epoch 1
            ev(EventKind::ArbiterVerdict, 30, 1, 1, KEY), // win epoch 1
            ev(EventKind::LeaseReclaim, 99, 0, 1, KEY),   // an arrival tears 1 down
            ev(EventKind::ArbiterVerdict, 120, 1, 2, KEY), // win the reclaim-opened 2
        ];
        let report = audit_events(&events);
        assert!(report.passed(), "{:?}", report.violations);
        assert_eq!(report.verdicts, 4);
        assert_eq!(report.wins, 3);
        assert_eq!(report.resets, 1);
        assert_eq!(report.reclaims, 1);
        assert_eq!(report.key_epochs, 3);
        assert!(report.render().contains("PASS"));
    }

    #[test]
    fn two_winners_in_one_epoch_fail() {
        let events = [
            ev(EventKind::ArbiterVerdict, 10, 1, 3, KEY),
            ev(EventKind::ArbiterVerdict, 12, 1, 3, KEY),
        ];
        let report = audit_events(&events);
        assert!(!report.passed());
        assert_eq!(report.violations.len(), 1);
        assert!(report.violations[0].contains("2 winning verdicts"));
        assert!(report.render().contains("FAIL"));
    }

    #[test]
    fn a_win_after_the_reclaim_fails_but_a_loss_does_not() {
        let base = [
            ev(EventKind::LeaseReclaim, 50, 0, 3, KEY),
            ev(EventKind::ArbiterVerdict, 60, 0, 3, KEY), // late loss: benign
        ];
        assert!(audit_events(&base).passed());
        let mut bad = base.to_vec();
        bad.push(ev(EventKind::ArbiterVerdict, 70, 1, 3, KEY)); // late win
        let report = audit_events(&bad);
        assert!(!report.passed());
        assert!(report.violations[0].contains("after the epoch was reclaimed"));
    }

    #[test]
    fn duplicate_acks_and_reclaims_fail_but_no_key_acks_repeat_freely() {
        let dup_ack = [
            ev(EventKind::ResetAck, 10, 0, 2, KEY),
            ev(EventKind::ResetAck, 11, 0, 2, KEY),
        ];
        assert!(audit_events(&dup_ack).violations[0].contains("RESET acks"));
        let dup_reclaim = [
            ev(EventKind::LeaseReclaim, 10, 0, 2, KEY),
            ev(EventKind::LeaseReclaim, 11, 0, 2, KEY),
        ];
        assert!(audit_events(&dup_reclaim).violations[0].contains("reclaimed 2 times"));
        let no_key = [
            ev(EventKind::ResetAck, 10, 0, 0, KEY),
            ev(EventKind::ResetAck, 11, 0, 0, KEY),
        ];
        assert!(audit_events(&no_key).passed());
    }

    #[test]
    fn a_double_opened_epoch_fails() {
        let events = [
            ev(EventKind::LeaseReclaim, 10, 0, 4, KEY), // opens epoch 5
            ev(EventKind::ResetAck, 12, 0, 5, KEY),     // ... which this also opens
        ];
        let report = audit_events(&events);
        assert!(!report.passed());
        assert!(report.violations[0].contains("opened by both"));
    }

    #[test]
    fn missing_evidence_is_not_a_violation() {
        // A lossy ring kept only the tail of the story: a win in epoch
        // 7 with no ack or reclaim in sight. Presence-based checks
        // stay quiet.
        let events = [
            ev(EventKind::ArbiterVerdict, 10, 1, 7, KEY),
            ev(EventKind::ClientSpan, 11, 1, 42, 100), // ignored kind
        ];
        let report = audit_events(&events);
        assert!(report.passed());
        assert_eq!(report.key_epochs, 1);
    }
}
