//! A lazy hashed timer wheel for per-connection read deadlines.
//!
//! The blocking server got deadlines for free from
//! `set_read_timeout`; a reactor must multiplex thousands of deadlines
//! onto one `epoll_wait` timeout. The classic answer is a hashed
//! wheel: 64 slots, each holding the connections whose deadline lands
//! in that slot's time band, swept in O(slots touched) as time
//! advances — no per-deadline heap traffic, no ordering work.
//!
//! This wheel is *lazy*, which is what makes it allocation-free and
//! cancellation-free in steady state:
//!
//! * Entries are `(slot index, generation)` pairs, never pointers. A
//!   connection that closes early is not removed from the wheel — its
//!   slot generation is bumped, and the stale entry is discarded when
//!   the sweep surfaces it.
//! * A connection that stays active is not rescheduled on every read —
//!   the worker just refreshes its `last_activity` stamp. When the
//!   sweep surfaces the entry, the worker compares the *actual*
//!   deadline (`last_activity + timeout`) against now and reinserts
//!   the entry at the true deadline if it has not expired.
//!
//! Both rules mean an entry firing is a *hint* ("this connection might
//! be overdue — check it"), never a verdict. That tolerance is also
//! why slot aliasing (two ticks 64 apart sharing a slot) needs no
//! handling: an early-surfaced entry is simply reinserted. The tick is
//! `timeout / 32`, so a deadline error is at most ~3% of the timeout.

use std::time::{Duration, Instant};

/// Slot count; live entries span at most `timeout / tick` = 32 ticks,
/// so one wheel revolution always covers every pending deadline.
const SLOTS: usize = 64;

/// See the [module docs](self). Entries are `(index, generation)`
/// pairs whose meaning belongs to the worker's connection slab.
#[derive(Debug)]
pub(crate) struct TimerWheel {
    slots: [Vec<(u32, u32)>; SLOTS],
    tick: Duration,
    start: Instant,
    /// First tick not yet swept by [`TimerWheel::advance`].
    cursor: u64,
    /// Live entries across all slots.
    len: usize,
}

impl TimerWheel {
    /// A wheel sized for deadlines of roughly `timeout`: the tick is
    /// `timeout / 32` (floored at 1 ms), giving ≤ ~3% deadline error.
    pub(crate) fn new(timeout: Duration, now: Instant) -> TimerWheel {
        TimerWheel {
            slots: std::array::from_fn(|_| Vec::new()),
            tick: (timeout / 32).max(Duration::from_millis(1)),
            start: now,
            cursor: 0,
            len: 0,
        }
    }

    /// The tick containing instant `t`.
    fn tick_of(&self, t: Instant) -> u64 {
        let dt = t.saturating_duration_since(self.start);
        (dt.as_nanos() / self.tick.as_nanos().max(1)) as u64
    }

    /// Insert an entry due at `deadline`. A deadline already behind the
    /// sweep cursor lands in the cursor's slot and surfaces on the next
    /// [`TimerWheel::advance`].
    pub(crate) fn schedule(&mut self, idx: u32, gen: u32, deadline: Instant) {
        let tick = self.tick_of(deadline).max(self.cursor);
        self.slots[(tick % SLOTS as u64) as usize].push((idx, gen));
        self.len += 1;
    }

    /// Sweep every tick up to `now`, draining surfaced entries into
    /// `due`. The caller checks each entry's real deadline and either
    /// expires the connection or [`TimerWheel::schedule`]s it again.
    pub(crate) fn advance(&mut self, now: Instant, due: &mut Vec<(u32, u32)>) {
        let now_tick = self.tick_of(now);
        if now_tick < self.cursor {
            return;
        }
        if self.len == 0 {
            // Nothing pending: jump the cursor rather than walking a
            // long-idle gap slot by slot.
            self.cursor = now_tick;
            return;
        }
        if now_tick - self.cursor >= SLOTS as u64 {
            // A full revolution elapsed: every slot is due (or a
            // reinsertion candidate — the caller sorts that out).
            for slot in &mut self.slots {
                due.append(slot);
            }
            self.len = 0;
            self.cursor = now_tick;
            return;
        }
        while self.cursor <= now_tick {
            let slot = &mut self.slots[(self.cursor % SLOTS as u64) as usize];
            self.len -= slot.len();
            due.append(slot);
            self.cursor += 1;
        }
    }

    /// Live entries across all slots (stale generations included until
    /// a sweep surfaces and discards them) — the level behind the
    /// `reactor.worker<k>.wheel_entries` gauge.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// How long `epoll_wait` may sleep before the earliest possibly-due
    /// entry: the end of the first non-empty slot's tick. `None` when
    /// the wheel is empty (sleep indefinitely; a new connection or
    /// shutdown wakes the worker through epoll).
    pub(crate) fn next_timeout(&self, now: Instant) -> Option<Duration> {
        if self.len == 0 {
            return None;
        }
        let tick = (0..SLOTS as u64)
            .map(|k| self.cursor + k)
            .find(|t| !self.slots[(t % SLOTS as u64) as usize].is_empty())?;
        let due_ns = (self.tick.as_nanos() as u64).saturating_mul(tick + 1);
        let due_at = self.start + Duration::from_nanos(due_ns);
        Some(due_at.saturating_duration_since(now))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entries_surface_once_their_tick_elapses() {
        let t0 = Instant::now();
        let mut wheel = TimerWheel::new(Duration::from_millis(320), t0);
        // tick = 10ms
        wheel.schedule(1, 0, t0 + Duration::from_millis(320));
        wheel.schedule(2, 0, t0 + Duration::from_millis(50));

        let mut due = Vec::new();
        wheel.advance(t0 + Duration::from_millis(20), &mut due);
        assert!(due.is_empty(), "nothing due after 20ms");

        wheel.advance(t0 + Duration::from_millis(70), &mut due);
        assert_eq!(due, vec![(2, 0)], "the 50ms entry surfaced");

        due.clear();
        wheel.advance(t0 + Duration::from_millis(400), &mut due);
        assert_eq!(due, vec![(1, 0)], "the 320ms entry surfaced");
        assert!(wheel
            .next_timeout(t0 + Duration::from_millis(400))
            .is_none());
    }

    #[test]
    fn a_full_revolution_drains_everything() {
        let t0 = Instant::now();
        let mut wheel = TimerWheel::new(Duration::from_millis(32), t0); // 1ms tick
        for i in 0..10u32 {
            wheel.schedule(i, 7, t0 + Duration::from_millis(u64::from(i) * 3));
        }
        let mut due = Vec::new();
        // Jump far past one revolution (64 ticks) in a single step.
        wheel.advance(t0 + Duration::from_secs(5), &mut due);
        assert_eq!(due.len(), 10, "every entry surfaced exactly once");
        let mut idxs: Vec<u32> = due.iter().map(|&(i, _)| i).collect();
        idxs.sort_unstable();
        assert_eq!(idxs, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn next_timeout_tracks_the_earliest_pending_slot() {
        let t0 = Instant::now();
        let mut wheel = TimerWheel::new(Duration::from_millis(320), t0); // 10ms tick
        assert!(
            wheel.next_timeout(t0).is_none(),
            "empty wheel sleeps forever"
        );

        wheel.schedule(1, 0, t0 + Duration::from_millis(100));
        let sleep = wheel.next_timeout(t0).expect("an entry is pending");
        // Due at the end of the 100ms deadline's tick: within (0, 110ms].
        assert!(sleep <= Duration::from_millis(110), "sleep {sleep:?}");
        assert!(sleep > Duration::ZERO);

        // Once surfaced and not reinserted, the wheel empties again.
        let mut due = Vec::new();
        wheel.advance(t0 + Duration::from_millis(150), &mut due);
        assert_eq!(due.len(), 1);
        assert!(wheel
            .next_timeout(t0 + Duration::from_millis(150))
            .is_none());
    }

    #[test]
    fn reinsertion_keeps_capacity_and_stays_live() {
        let t0 = Instant::now();
        let mut wheel = TimerWheel::new(Duration::from_millis(64), t0); // 2ms tick
        wheel.schedule(3, 1, t0 + Duration::from_millis(10));
        let mut due = Vec::new();
        let mut now = t0;
        // Surface + reinsert repeatedly, as a worker does for a
        // connection that keeps refreshing its activity stamp.
        for round in 1..=50u64 {
            now = t0 + Duration::from_millis(10 * round);
            wheel.advance(now, &mut due);
            if !due.is_empty() {
                assert_eq!(due, vec![(3, 1)]);
                due.clear();
                wheel.schedule(3, 1, now + Duration::from_millis(10));
            }
        }
        assert!(wheel.next_timeout(now).is_some(), "entry still live");
    }
}
