//! The batch trial engine: deterministic Monte Carlo sweeps across OS
//! threads.
//!
//! Every quantitative claim of the paper is verified by repeated
//! independent executions ("trials") over a sweep of contention values.
//! Trials are embarrassingly parallel, and [`TrialRunner`] fans them out
//! over `std::thread::scope` workers while keeping the results **bit
//! identical** to a serial run:
//!
//! * each trial's randomness is a pure function of `(base_seed, trial
//!   index)` — derived with [`SplitMix64::split`], never from thread
//!   identity or scheduling;
//! * workers pull trial indices from an atomic counter and deposit each
//!   result into its trial's dedicated slot;
//! * results are folded into [`StatsAccumulator`] statistics *in
//!   trial-index order* after all workers join, so even floating-point
//!   summation order is independent of the thread count.
//!
//! Consequently `TrialRunner::new(1)` and `TrialRunner::new(32)` produce
//! identical statistics for the same seed — the thread count only changes
//! wall-clock time. This property is asserted by the
//! `runner_determinism` integration tests.
//!
//! Workers can also keep per-thread scratch state (a warm [`Execution`]
//! reused via [`Execution::reset`]) through [`TrialRunner::run_trials_with`],
//! which is what makes the executor's allocation-light reuse path usable
//! from a parallel sweep: each worker builds its simulated memory once and
//! re-runs trials in place.
//!
//! [`Execution`]: rtas::sim::executor::Execution
//! [`Execution::reset`]: rtas::sim::executor::Execution::reset
//!
//! ```
//! use rtas_bench::runner::{Trial, TrialRunner};
//!
//! let runner = TrialRunner::new(4);
//! let agg = runner.aggregate(100, 0xd00d, |trial: Trial| {
//!     // any deterministic function of trial.seed
//!     (trial.seed % 7) as f64
//! });
//! assert_eq!(agg.count(), 100);
//! ```

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use rtas::sim::rng::SplitMix64;
use rtas_obs::stats::{StatsAccumulator, Summary};

/// One trial's identity: its index within the batch and its derived seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Trial {
    /// Trial index in `0..trials`.
    pub index: u64,
    /// Seed for this trial, derived deterministically from the batch's
    /// base seed and `index` via [`SplitMix64::split`].
    pub seed: u64,
}

impl Trial {
    fn derive(base_seed: u64, index: u64) -> Trial {
        Trial {
            index,
            seed: SplitMix64::split(base_seed, index).next_u64(),
        }
    }

    /// An independent-looking substream of this trial's seed, for closures
    /// that need several seeds (e.g. one for coins, one for the schedule).
    pub fn subseed(&self, stream: u64) -> u64 {
        SplitMix64::split(self.seed, stream).next_u64()
    }
}

/// Fans independent trials out across OS threads, deterministically.
///
/// See the [module docs](self) for the determinism contract.
#[derive(Debug, Clone)]
pub struct TrialRunner {
    threads: usize,
}

impl TrialRunner {
    /// A runner using `threads` worker threads (clamped to at least 1).
    /// `TrialRunner::new(1)` runs everything inline on the caller's
    /// thread.
    pub fn new(threads: usize) -> Self {
        TrialRunner {
            threads: threads.max(1),
        }
    }

    /// A serial runner (one thread, no spawning).
    pub fn serial() -> Self {
        TrialRunner::new(1)
    }

    /// A runner sized from the environment: `RTAS_THREADS` if set,
    /// otherwise the host's available parallelism.
    pub fn from_env() -> Self {
        let threads = std::env::var("RTAS_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            });
        TrialRunner::new(threads)
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Run `trials` independent trials and return their results in trial
    /// order.
    ///
    /// `init` builds one scratch value per worker thread; `trial` receives
    /// it mutably along with the trial identity. The scratch is how
    /// workers keep a warm `Execution`/`Memory` between trials; it must
    /// not carry information *between* trials that affects results, or
    /// determinism across thread counts is lost (trial assignment to
    /// workers is scheduling-dependent).
    ///
    /// Panics in `trial` propagate to the caller (the batch aborts).
    pub fn run_trials_with<S, R, I, F>(
        &self,
        trials: u64,
        base_seed: u64,
        init: I,
        trial: F,
    ) -> Vec<R>
    where
        R: Send,
        I: Fn() -> S + Sync,
        F: Fn(&mut S, Trial) -> R + Sync,
    {
        let workers = self.threads.min(trials as usize);
        if workers <= 1 {
            let mut scratch = init();
            return (0..trials)
                .map(|t| trial(&mut scratch, Trial::derive(base_seed, t)))
                .collect();
        }
        // One slot per trial: workers race only on the index counter, and
        // each result lands in its own slot, keyed by trial index.
        let slots: Vec<Mutex<Option<R>>> = (0..trials as usize).map(|_| Mutex::new(None)).collect();
        let next = AtomicU64::new(0);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| {
                    let mut scratch = init();
                    loop {
                        let t = next.fetch_add(1, Ordering::Relaxed);
                        if t >= trials {
                            break;
                        }
                        let r = trial(&mut scratch, Trial::derive(base_seed, t));
                        *slots[t as usize].lock().expect("trial slot poisoned") = Some(r);
                    }
                });
            }
        });
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("trial slot poisoned")
                    .expect("worker exited without filling its slot")
            })
            .collect()
    }

    /// [`TrialRunner::run_trials_with`] without per-worker scratch.
    pub fn run_trials<R, F>(&self, trials: u64, base_seed: u64, trial: F) -> Vec<R>
    where
        R: Send,
        F: Fn(Trial) -> R + Sync,
    {
        self.run_trials_with(trials, base_seed, || (), |(), t| trial(t))
    }

    /// Run trials that each produce one observation, folded into a
    /// [`StatsAccumulator`] in trial order (thread-count independent).
    pub fn aggregate<F>(&self, trials: u64, base_seed: u64, trial: F) -> StatsAccumulator
    where
        F: Fn(Trial) -> f64 + Sync,
    {
        self.aggregate_with(trials, base_seed, || (), |(), t| trial(t))
    }

    /// [`TrialRunner::aggregate`] with per-worker scratch state.
    pub fn aggregate_with<S, I, F>(
        &self,
        trials: u64,
        base_seed: u64,
        init: I,
        trial: F,
    ) -> StatsAccumulator
    where
        I: Fn() -> S + Sync,
        F: Fn(&mut S, Trial) -> f64 + Sync,
    {
        let values = self.run_trials_with(trials, base_seed, init, trial);
        let mut agg = StatsAccumulator::new();
        for v in values {
            agg.push(v);
        }
        agg
    }
}

impl Default for TrialRunner {
    fn default() -> Self {
        TrialRunner::from_env()
    }
}

/// One measured point of a [`Sweep`]: distribution statistics plus the
/// wall-clock cost of producing them.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// The sweep parameter (contention, structure size, round, ...).
    pub k: usize,
    /// Trials aggregated into `stats`.
    pub trials: u64,
    /// Full distribution statistics over the per-trial observations.
    pub stats: StatsAccumulator,
    /// Wall-clock time for the whole batch of trials.
    pub wall: Duration,
}

impl SweepPoint {
    /// Mean observation.
    pub fn mean(&self) -> f64 {
        self.stats.mean()
    }

    /// Worst (maximum) observation.
    pub fn worst(&self) -> f64 {
        self.stats.max()
    }

    /// 99th-percentile estimate.
    pub fn p99(&self) -> f64 {
        self.stats.p99()
    }

    /// Snapshot of every derived statistic.
    pub fn summary(&self) -> Summary {
        self.stats.summary()
    }

    /// Wall-clock in fractional milliseconds.
    pub fn wall_ms(&self) -> f64 {
        self.wall.as_secs_f64() * 1e3
    }
}

/// A parameter sweep driven through one [`TrialRunner`].
///
/// `Sweep` owns the trial count and base seed shared by all points, and
/// derives an independent seed stream per parameter value, so adding or
/// reordering points does not perturb any point's results.
#[derive(Debug, Clone)]
pub struct Sweep<'r> {
    runner: &'r TrialRunner,
    trials: u64,
    base_seed: u64,
}

impl<'r> Sweep<'r> {
    /// A sweep of `trials` trials per point with the given base seed.
    pub fn new(runner: &'r TrialRunner, trials: u64, base_seed: u64) -> Self {
        Sweep {
            runner,
            trials,
            base_seed,
        }
    }

    /// Trials per point.
    pub fn trials(&self) -> u64 {
        self.trials
    }

    /// The seed stream for parameter value `k` — exposed so callers that
    /// need side measurements (e.g. one reference execution per `k`) can
    /// stay inside the sweep's reproducibility envelope.
    pub fn point_seed(&self, k: usize) -> u64 {
        SplitMix64::split(self.base_seed, k as u64).next_u64()
    }

    /// Measure one sweep point: run the batch of trials for parameter `k`
    /// with per-worker scratch, timing the whole batch.
    pub fn measure_with<S, I, F>(&self, k: usize, init: I, trial: F) -> SweepPoint
    where
        I: Fn() -> S + Sync,
        F: Fn(&mut S, Trial) -> f64 + Sync,
    {
        let start = Instant::now();
        let stats = self
            .runner
            .aggregate_with(self.trials, self.point_seed(k), init, trial);
        SweepPoint {
            k,
            trials: self.trials,
            stats,
            wall: start.elapsed(),
        }
    }

    /// [`Sweep::measure_with`] without per-worker scratch.
    pub fn measure<F>(&self, k: usize, trial: F) -> SweepPoint
    where
        F: Fn(Trial) -> f64 + Sync,
    {
        self.measure_with(k, || (), |(), t| trial(t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trial_seeds_are_deterministic_and_distinct() {
        let a = Trial::derive(7, 0);
        let b = Trial::derive(7, 1);
        assert_eq!(a, Trial::derive(7, 0));
        assert_ne!(a.seed, b.seed);
        assert_ne!(Trial::derive(8, 0).seed, a.seed);
        assert_ne!(a.subseed(0), a.subseed(1));
    }

    #[test]
    fn serial_and_parallel_agree_exactly() {
        let f = |t: Trial| (t.seed % 1000) as f64 + t.index as f64;
        let serial = TrialRunner::serial().aggregate(64, 42, f);
        for threads in [2, 3, 8] {
            let par = TrialRunner::new(threads).aggregate(64, 42, f);
            assert_eq!(serial, par, "threads={threads}");
        }
    }

    #[test]
    fn results_come_back_in_trial_order() {
        let vals = TrialRunner::new(4).run_trials(32, 0, |t| t.index);
        assert_eq!(vals, (0..32).collect::<Vec<_>>());
    }

    #[test]
    fn zero_trials_is_empty() {
        let vals = TrialRunner::new(4).run_trials(0, 0, |t| t.index);
        assert!(vals.is_empty());
        assert_eq!(TrialRunner::new(4).aggregate(0, 0, |_| 1.0).count(), 0);
    }

    #[test]
    fn scratch_is_per_worker_and_reused() {
        // With one thread the scratch must be built exactly once.
        let runner = TrialRunner::serial();
        let vals = runner.run_trials_with(
            10,
            0,
            || 0u64,
            |calls, _t| {
                *calls += 1;
                *calls
            },
        );
        assert_eq!(vals, (1..=10).collect::<Vec<_>>());
    }

    #[test]
    fn sweep_points_are_independent_of_order() {
        let runner = TrialRunner::new(2);
        let sweep = Sweep::new(&runner, 16, 99);
        let first = sweep.measure(8, |t| t.seed as f64);
        let _other = sweep.measure(16, |t| t.seed as f64);
        let again = sweep.measure(8, |t| t.seed as f64);
        assert_eq!(first.stats, again.stats);
        assert_eq!(first.k, 8);
        assert_eq!(first.trials, 16);
    }

    #[test]
    fn threads_clamped_to_one() {
        assert_eq!(TrialRunner::new(0).threads(), 1);
    }
}
