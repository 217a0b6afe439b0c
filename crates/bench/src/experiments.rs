//! Experiments E1–E12: one per quantitative claim of the paper, plus
//! the E11 scenario grid and the E12 arena-epoch-reuse check.
//!
//! Every function prints a table (pipe-separated, one row per parameter
//! point) and returns the raw rows so integration tests can assert the
//! claims' *shape* (who wins, growth order, crossovers) rather than
//! absolute constants.
//!
//! All Monte Carlo trials go through the [`crate::runner`] batch engine:
//! one [`TrialRunner`] fans a point's trials out across OS threads with
//! deterministic per-trial seeds, so every table below is reproducible
//! bit for bit at any thread count. Step-complexity sweeps additionally
//! use the executor's allocation-light reuse path: each worker builds its
//! simulated memory once per sweep point and re-runs trials in place via
//! [`Execution::reset`].

use std::sync::{Arc, OnceLock};

use rtas::algorithms::attacks::AscendingWriteAttack;
use rtas::algorithms::group_elect::{run_group_election, GeometricGroupElect, SiftingGroupElect};
use rtas::algorithms::logstar::log_star;
use rtas::algorithms::{Combined, LogLogLe, LogStarLe, OriginalRatRace, SpaceEfficientRatRace};
use rtas::primitives::{LeaderElect, RoleLeaderElect, TwoProcessLe};
use rtas::sim::executor::Execution;
use rtas::sim::memory::Memory;
use rtas::sim::protocol::{ret, Protocol};
use rtas::sim::scenario::Scenario;
use rtas_lowerbound::covering::covering_base_case;
use rtas_lowerbound::hitting_time::{geometric_ge_rate, iterated_rate_depth};
use rtas_lowerbound::recurrence::{closed_form_f, f_sequence};
use rtas_lowerbound::yao::schedule_tail_probabilities;
use rtas_obs::report::{BenchReport, BenchRow};
use rtas_obs::stats::{StatsAccumulator, Summary};

use crate::runner::{Sweep, SweepPoint, Trial, TrialRunner};
use crate::scenarios;
use crate::Scale;

/// The workload every pre-scenario experiment ran implicitly: all
/// processes live from slot 0, no faults, fresh uniformly random
/// scheduling. The scenario passes the strategy seed through verbatim,
/// so results are bit-identical to the former direct `RandomSchedule`
/// wiring.
fn baseline() -> &'static Scenario {
    static S: OnceLock<Scenario> = OnceLock::new();
    S.get_or_init(|| Scenario::builder().named("baseline-random").build())
}

/// The Section 4 attack as a scenario: simultaneous arrivals, no faults,
/// ascending-write adaptive scheduling (E5/E9).
fn attack() -> &'static Scenario {
    static S: OnceLock<Scenario> = OnceLock::new();
    S.get_or_init(|| {
        Scenario::builder()
            .strategy(AscendingWriteAttack::spec())
            .named("baseline-attack")
            .build()
    })
}

/// One row of a step-complexity sweep.
#[derive(Debug, Clone, Copy)]
pub struct StepRow {
    /// Contention.
    pub k: usize,
    /// Mean over trials of the max steps taken by any process.
    pub mean_max_steps: f64,
    /// Max over trials.
    pub worst_max_steps: f64,
    /// Full distribution snapshot over the trials (quantiles, stddev,
    /// CI) — the paper's claims are distributional, so the JSON rows
    /// carry more than the point mean.
    pub dist: Summary,
    /// Wall-clock cost of the point's whole trial batch, in milliseconds.
    pub wall_ms: f64,
}

impl From<&SweepPoint> for StepRow {
    fn from(p: &SweepPoint) -> Self {
        StepRow {
            k: p.k,
            mean_max_steps: p.mean(),
            worst_max_steps: p.worst(),
            dist: p.summary(),
            wall_ms: p.wall_ms(),
        }
    }
}

impl StepRow {
    /// This row as a [`BenchRow`] for a `BENCH_*.json` report; extras are
    /// appended with [`BenchRow::with`].
    pub fn bench_row(&self) -> BenchRow {
        BenchRow::from_summary(self.k as u64, &self.dist, self.wall_ms)
    }
}

/// The contention values of a sweep up to `max_k`: powers of four from 2,
/// plus `max_k` itself. Empty when `max_k < 2` (there is nothing to
/// sweep), never panics.
pub(crate) fn k_sweep(max_k: usize) -> Vec<usize> {
    let mut ks = Vec::new();
    let mut k = 2;
    while k <= max_k {
        ks.push(k);
        k *= 4;
    }
    if max_k >= 2 && ks.last() != Some(&max_k) {
        ks.push(max_k);
    }
    ks
}

/// Per-worker scratch of a step-complexity sweep point: the structure is
/// built once, then every trial reuses the warm memory and executor.
struct LeScratch {
    le: Arc<dyn LeaderElect>,
    exec: Execution,
}

fn le_scratch<F>(k: usize, build: &F) -> LeScratch
where
    F: Fn(&mut Memory, usize) -> Arc<dyn LeaderElect> + Sync,
{
    let mut mem = Memory::new();
    let le = build(&mut mem, k);
    LeScratch {
        le,
        exec: Execution::new(mem, Vec::new(), 0),
    }
}

fn le_trial(scratch: &mut LeScratch, k: usize, trial: Trial) -> f64 {
    let protos: Vec<Box<dyn Protocol>> = (0..k).map(|_| scratch.le.elect()).collect();
    scratch.exec.reset(protos, trial.seed);
    let mut adv = baseline().begin(&mut scratch.exec, trial.subseed(1));
    let out = scratch.exec.run_in_place(&mut adv);
    assert!(
        out.all_finished(),
        "k={k} trial={} did not finish",
        trial.index
    );
    assert_eq!(
        scratch.exec.count_outcome(ret::WIN),
        1,
        "k={k} trial={}: winner count wrong",
        trial.index
    );
    scratch.exec.steps().max() as f64
}

fn measure_steps<F>(sweep: &Sweep<'_>, k: usize, build: F) -> SweepPoint
where
    F: Fn(&mut Memory, usize) -> Arc<dyn LeaderElect> + Sync,
{
    sweep.measure_with(
        k,
        || le_scratch(k, &build),
        |scratch, trial| le_trial(scratch, k, trial),
    )
}

fn print_header(id: &str, claim: &str) {
    println!();
    println!("== {id}: {claim}");
}

/// One row of the E1 sweep: elected-count distribution vs the lemma's
/// bound.
#[derive(Debug, Clone, Copy)]
pub struct E1Row {
    /// Contention.
    pub k: usize,
    /// Distribution of the elected count over trials.
    pub elected: Summary,
    /// The lemma's bound `2·log₂ k + 6`.
    pub bound: f64,
    /// Wall-clock cost of the point's trial batch, in milliseconds.
    pub wall_ms: f64,
}

impl E1Row {
    /// This row as a [`BenchRow`] for `BENCH_group_election.json`.
    pub fn bench_row(&self) -> BenchRow {
        BenchRow::from_summary(self.k as u64, &self.elected, self.wall_ms).with("bound", self.bound)
    }
}

/// E1 — Lemma 2.2: the geometric group election's performance parameter
/// stays below `2·log₂ k + 6`.
pub fn e1_group_election_performance(scale: Scale, runner: &TrialRunner) -> Vec<E1Row> {
    print_header("E1", "Fig.1 group election: E[elected] <= 2 log2 k + 6");
    println!("k | mean elected | p99 | bound");
    let sweep = Sweep::new(runner, scale.trials, scale.seed);
    let mut rows = Vec::new();
    for k in k_sweep(scale.max_k) {
        let point = sweep.measure(k, |trial| {
            let mut mem = Memory::new();
            let ge = GeometricGroupElect::new(&mut mem, scale.max_k.max(2), "ge");
            let (elected, _) = run_group_election(
                mem,
                &ge,
                k,
                trial.seed,
                &mut baseline().adversary(k, trial.subseed(1)),
            );
            elected as f64
        });
        let bound = 2.0 * (k as f64).log2() + 6.0;
        println!(
            "{k} | {:.2} | {:.1} | {bound:.2}",
            point.mean(),
            point.p99()
        );
        rows.push(E1Row {
            k,
            elected: point.summary(),
            bound,
            wall_ms: point.wall_ms(),
        });
    }
    rows
}

/// One row of the E2 sweep: steps, the log* yardstick, and space.
#[derive(Debug, Clone, Copy)]
pub struct E2Row {
    /// Step statistics and timing at this contention.
    pub steps: StepRow,
    /// `log* k`.
    pub log_star: u32,
    /// Registers the structure declares at this `k`.
    pub registers: u64,
}

/// E2 — Theorem 2.3: O(log* k) step complexity of the log* algorithm,
/// with its register count.
pub fn e2_logstar_steps(scale: Scale, runner: &TrialRunner) -> Vec<E2Row> {
    print_header(
        "E2",
        "Theorem 2.3: log* LE steps vs k (random oblivious schedules)",
    );
    println!("k | mean max steps | worst | log* k | registers | wall ms");
    let sweep = Sweep::new(runner, scale.trials, scale.seed);
    let mut rows = Vec::new();
    for k in k_sweep(scale.max_k) {
        let point = measure_steps(&sweep, k, |mem, k| Arc::new(LogStarLe::new(mem, k)));
        let mut mem = Memory::new();
        let _ = LogStarLe::new(&mut mem, k);
        let regs = mem.declared_registers();
        let ls = log_star(k as f64);
        println!(
            "{k} | {:.1} | {:.0} | {ls} | {regs} | {:.1}",
            point.mean(),
            point.worst(),
            point.wall_ms()
        );
        rows.push(E2Row {
            steps: StepRow::from(&point),
            log_star: ls,
            registers: regs,
        });
    }
    rows
}

/// One row of the E3 sweep: the adaptive algorithm against the
/// non-adaptive baseline.
#[derive(Debug, Clone, Copy)]
pub struct E3Row {
    /// Adaptive sifting-ladder steps at this contention.
    pub steps: StepRow,
    /// Alistarh–Aspnes baseline (sized for `n = max_k`) at the same `k`.
    pub baseline: StepRow,
    /// `log₂ log₂ k`.
    pub loglog: f64,
}

/// E3 — Theorem 2.4: O(log log k) step complexity of the sifting ladder,
/// next to the non-adaptive Alistarh–Aspnes baseline it improves on.
pub fn e3_loglog_steps(scale: Scale, runner: &TrialRunner) -> Vec<E3Row> {
    print_header(
        "E3",
        "Theorem 2.4: adaptive sifting LE steps vs k (with non-adaptive AA baseline)",
    );
    println!("k | adaptive mean max steps | worst | AA baseline (n=max_k) | log2 log2 k");
    let mut rows = Vec::new();
    let n_big = scale.max_k;
    let sweep = Sweep::new(runner, scale.trials, scale.seed + 7);
    let baseline_sweep = Sweep::new(runner, scale.trials.min(8), scale.seed + 9);
    for k in k_sweep(scale.max_k) {
        let point = measure_steps(&sweep, k, |mem, k| Arc::new(LogLogLe::new(mem, k)));
        // The baseline is sized for n = max_k regardless of k: its step
        // count depends on n, which is exactly the non-adaptivity the
        // theorem removes.
        let baseline = measure_steps(&baseline_sweep, k, |mem, _| {
            Arc::new(rtas::algorithms::AaLe::new(mem, n_big))
        });
        let ll = (k as f64).log2().max(1.0).log2().max(0.0);
        println!(
            "{k} | {:.1} | {:.0} | {:.1} | {ll:.2}",
            point.mean(),
            point.worst(),
            baseline.mean()
        );
        rows.push(E3Row {
            steps: StepRow::from(&point),
            baseline: StepRow::from(&baseline),
            loglog: ll,
        });
    }
    rows
}

/// One row of the E4 sweep: steps and the space separation.
#[derive(Debug, Clone, Copy)]
pub struct E4Row {
    /// Space-efficient RatRace steps at this contention.
    pub steps: StepRow,
    /// Registers the space-efficient variant declares.
    pub regs_space_efficient: u64,
    /// Registers the original declares (Θ(n³)).
    pub regs_original_declared: u64,
    /// Registers the original actually touches in one execution.
    pub regs_original_touched: u64,
}

/// E4 — Section 3: step complexity and space of the two RatRaces.
pub fn e4_ratrace(scale: Scale, runner: &TrialRunner) -> Vec<E4Row> {
    print_header(
        "E4",
        "Section 3: RatRace steps O(log k); space Θ(n) vs Θ(n³)",
    );
    println!("n=k | mean max steps (space-eff) | regs space-eff | regs original (declared) | original touched");
    let mut rows = Vec::new();
    let sweep = Sweep::new(runner, scale.trials, scale.seed + 13);
    // The original declares Θ(n³) registers; cap the sweep so tables stay
    // readable (the asymptotic is visible long before 2^12).
    for k in k_sweep(scale.max_k.min(1 << 9)) {
        let point = measure_steps(&sweep, k, |mem, k| {
            Arc::new(SpaceEfficientRatRace::new(mem, k))
        });
        let mut mem_se = Memory::new();
        let _ = SpaceEfficientRatRace::new(&mut mem_se, k);
        let regs_se = mem_se.declared_registers();

        let mut mem_o = Memory::new();
        let orr = OriginalRatRace::new(&mut mem_o, k);
        let declared_o = mem_o.declared_registers();
        let protos: Vec<Box<dyn Protocol>> = (0..k).map(|_| orr.elect()).collect();
        let res = Execution::new(mem_o, protos, scale.seed)
            .run(&mut baseline().adversary(k, scale.seed + 1));
        assert!(res.all_finished());
        let touched_o = res.memory().touched_registers();

        println!(
            "{k} | {:.1} | {regs_se} | {declared_o} | {touched_o}",
            point.mean()
        );
        rows.push(E4Row {
            steps: StepRow::from(&point),
            regs_space_efficient: regs_se,
            regs_original_declared: declared_o,
            regs_original_touched: touched_o,
        });
    }
    rows
}

/// One `(k, algorithm, adversary)` cell of the E5 matrix.
#[derive(Debug, Clone, Copy)]
pub struct E5Row {
    /// Contention.
    pub k: usize,
    /// `"logstar"` or `"combined"`.
    pub algorithm: &'static str,
    /// `"random"` or `"attack"`.
    pub adversary: &'static str,
    /// Distribution of the max-steps observation over trials.
    pub steps: Summary,
    /// Wall-clock cost of the cell's trial batch, in milliseconds.
    pub wall_ms: f64,
}

impl E5Row {
    /// This row as a [`BenchRow`] for `BENCH_combiner.json`.
    pub fn bench_row(&self) -> BenchRow {
        BenchRow::from_summary(self.k as u64, &self.steps, self.wall_ms)
            .with_label("algorithm", self.algorithm)
            .with_label("adversary", self.adversary)
    }
}

/// E5 — Theorem 4.1: the combiner inherits the best of both worlds.
pub fn e5_combiner(scale: Scale, runner: &TrialRunner) -> Vec<E5Row> {
    print_header(
        "E5",
        "Theorem 4.1: combined = log* under oblivious AND O(log k) under attack",
    );
    println!("k | algorithm | adversary | mean max steps");
    let mut rows = Vec::new();
    let ks: Vec<usize> = k_sweep(scale.max_k.min(1 << 8));
    for &k in &ks {
        for (combo, (alg_name, adv_name)) in [
            ("logstar", "random"),
            ("logstar", "attack"),
            ("combined", "random"),
            ("combined", "attack"),
        ]
        .into_iter()
        .enumerate()
        {
            // One seed stream per (algorithm, adversary) combination, so
            // combinations stay statistically independent at equal k.
            let sweep = Sweep::new(
                runner,
                scale.trials.min(10),
                scale.seed + 1000 * combo as u64,
            );
            let point = sweep.measure(k, |trial| {
                let mut mem = Memory::new();
                let le: Arc<dyn LeaderElect> = if alg_name == "logstar" {
                    Arc::new(LogStarLe::new(&mut mem, k))
                } else {
                    let weak = Arc::new(LogStarLe::new(&mut mem, k));
                    Arc::new(Combined::new(&mut mem, weak, k))
                };
                let protos: Vec<Box<dyn Protocol>> = (0..k).map(|_| le.elect()).collect();
                let scenario = if adv_name == "random" {
                    baseline()
                } else {
                    attack()
                };
                let mut adv = scenario.adversary(k, trial.subseed(1));
                let res = Execution::new(mem, protos, trial.seed).run(&mut adv);
                assert!(res.all_finished());
                assert_eq!(res.processes_with_outcome(ret::WIN).len(), 1);
                res.steps().max() as f64
            });
            println!("{k} | {alg_name} | {adv_name} | {:.1}", point.mean());
            rows.push(E5Row {
                k,
                algorithm: alg_name,
                adversary: adv_name,
                steps: point.summary(),
                wall_ms: point.wall_ms(),
            });
        }
    }
    rows
}

/// E6 — Theorem 5.1 / Claim 5.5: the covering recurrence and the base
/// case on real implementations.
pub fn e6_space_lower_bound(scale: Scale, runner: &TrialRunner) -> Vec<(u64, u64, u64)> {
    print_header(
        "E6",
        "Theorem 5.1: f(n-4) = 4(log2 n - 1); covering base case on real algorithms",
    );
    println!("n | f(n-4) recurrence | 4(log2 n - 1) closed form");
    let mut rows = Vec::new();
    for exp in 3..=20u32 {
        let n = 1u64 << exp;
        let rec = f_sequence(n)[(n - 4) as usize];
        let closed = closed_form_f(n, n - 4);
        assert_eq!(rec, closed);
        assert_eq!(closed, 4 * (exp as u64 - 1));
        if exp <= 6 || exp % 4 == 0 {
            println!("{n} | {rec} | {closed}");
        }
        rows.push((n, rec, closed));
    }
    println!("covering base case (all n processes poised to write, no process visible):");
    // The three base cases are independent executions: route them through
    // the runner so they run concurrently on multi-core hosts.
    let ns = [8usize, 16, 32];
    let reports = runner.run_trials(ns.len() as u64, scale.seed, |trial| {
        let n = ns[trial.index as usize];
        let mut mem = Memory::new();
        let le = LogStarLe::new(&mut mem, n);
        let protos = (0..n).map(|_| le.elect()).collect();
        covering_base_case(mem, protos, scale.seed)
    });
    for (n, report) in ns.iter().zip(&reports) {
        println!(
            "  logstar n={n}: covering={}/{} distinct registers={}",
            report.covering_processes,
            report.processes,
            report.distinct_covered()
        );
        assert!(report.all_cover());
    }
    rows
}

/// E7 — Theorem 6.1: schedule-forced tail probabilities vs `1/4^t`.
pub fn e7_two_process_tail(
    scale: Scale,
    runner: &TrialRunner,
) -> Vec<rtas_lowerbound::yao::TailReport> {
    print_header(
        "E7",
        "Theorem 6.1: max over schedules of Pr[some proc needs >= t steps] >= 1/4^t",
    );
    println!("t | schedules | max tail | mean tail | 1/4^t");
    // Each t is an independent schedule search; fan them out.
    let ts: Vec<usize> = (1..=7).collect();
    let rows = runner.run_trials(ts.len() as u64, scale.seed, |trial| {
        let t = ts[trial.index as usize];
        schedule_tail_probabilities(t, scale.trials.max(20), scale.seed, || {
            let mut mem = Memory::new();
            let le = TwoProcessLe::new(&mut mem, "2le");
            (mem, vec![le.elect_as(0), le.elect_as(1)])
        })
    });
    for (t, report) in ts.iter().zip(&rows) {
        println!(
            "{t} | {} | {:.3} | {:.3} | {:.5}",
            report.schedules, report.max_tail, report.mean_tail, report.bound
        );
        assert!(report.meets_bound(), "t={t}");
    }
    rows
}

/// One round of the E8 sifting cascade.
#[derive(Debug, Clone, Copy)]
pub struct E8Row {
    /// Round number, starting at 1.
    pub round: usize,
    /// Participants entering this round.
    pub k: usize,
    /// Distribution of the elected (surviving) count over trials.
    pub elected: Summary,
    /// The section's prediction `π·k + 1/π`.
    pub predicted: f64,
    /// Wall-clock cost of the round's trial batch, in milliseconds.
    pub wall_ms: f64,
}

impl E8Row {
    /// This row as a [`BenchRow`] for `BENCH_sifting_rounds.json` (`k`
    /// is the participant count; the round number is a label so rows
    /// stay uniquely keyed even if the cascade stagnates at one `k`).
    pub fn bench_row(&self) -> BenchRow {
        BenchRow::from_summary(self.k as u64, &self.elected, self.wall_ms)
            .with("predicted", self.predicted)
            .with_label("round", self.round.to_string())
    }
}

/// E8 — Section 2.3: sifting survivor counts per round (`π·k + 1/π`).
pub fn e8_sifting_rounds(scale: Scale, runner: &TrialRunner) -> Vec<E8Row> {
    print_header("E8", "Sifting rounds: survivors ~ pi*k + 1/pi per round");
    println!("round | participants k | mean elected | predicted");
    let mut rows = Vec::new();
    let mut k = scale.max_k;
    let mut round = 1;
    // Rounds are sequential by construction (each round's k is the
    // previous round's mean), but the trials within a round are parallel.
    while k > 4 && round <= 8 {
        let pi = SiftingGroupElect::probability_for_expected(k as f64);
        let sweep = Sweep::new(runner, scale.trials, scale.seed + round as u64);
        let point = sweep.measure(k, |trial| {
            let mut mem = Memory::new();
            let ge = SiftingGroupElect::new(&mut mem, pi, "sift");
            let (elected, _) = run_group_election(
                mem,
                &ge,
                k,
                trial.seed,
                &mut baseline().adversary(k, trial.subseed(1)),
            );
            elected as f64
        });
        let predicted = pi * k as f64 + 1.0 / pi;
        println!("{round} | {k} | {:.1} | {predicted:.1}", point.mean());
        rows.push(E8Row {
            round,
            k,
            elected: point.summary(),
            predicted,
            wall_ms: point.wall_ms(),
        });
        k = point.mean().round() as usize;
        round += 1;
    }
    rows
}

/// One contention point of the E9 attacked-vs-random comparison.
#[derive(Debug, Clone, Copy)]
pub struct E9Row {
    /// Contention.
    pub k: usize,
    /// Max-steps distribution under the adaptive attack.
    pub attacked: Summary,
    /// Max-steps distribution under the random oblivious schedule.
    pub random: Summary,
    /// Wall-clock of the attacked batch, in milliseconds.
    pub attacked_wall_ms: f64,
    /// Wall-clock of the random batch, in milliseconds.
    pub random_wall_ms: f64,
}

impl E9Row {
    /// This point as two [`BenchRow`]s (one per adversary mode) for
    /// `BENCH_adaptive_attack.json`.
    pub fn bench_rows(&self) -> [BenchRow; 2] {
        [
            BenchRow::from_summary(self.k as u64, &self.attacked, self.attacked_wall_ms)
                .with_label("adversary", "attack"),
            BenchRow::from_summary(self.k as u64, &self.random, self.random_wall_ms)
                .with_label("adversary", "random"),
        ]
    }
}

/// E9 — Section 4 motivation: the adaptive attack forces ~linear steps on
/// the log* algorithm.
pub fn e9_adaptive_attack(scale: Scale, runner: &TrialRunner) -> Vec<E9Row> {
    print_header(
        "E9",
        "Adaptive adversary forces Ω(k) on the log* algorithm (vs random schedule)",
    );
    println!("k | attacked mean max steps | random mean max steps");
    let mut rows = Vec::new();
    for k in k_sweep(scale.max_k.min(1 << 8)) {
        let run_mode = |attack: bool| {
            // Distinct seed streams for the attacked and random modes.
            let sweep = Sweep::new(
                runner,
                scale.trials.min(8),
                scale.seed + 500 * attack as u64,
            );
            sweep.measure(k, |trial: Trial| {
                let mut mem = Memory::new();
                let le = LogStarLe::new(&mut mem, k);
                let protos: Vec<Box<dyn Protocol>> = (0..k).map(|_| le.elect()).collect();
                let scenario = if attack { self::attack() } else { baseline() };
                let mut adv = scenario.adversary(k, trial.subseed(1));
                let res = Execution::new(mem, protos, trial.seed).run(&mut adv);
                assert!(res.all_finished());
                res.steps().max() as f64
            })
        };
        let attacked = run_mode(true);
        let random = run_mode(false);
        println!("{k} | {:.1} | {:.1}", attacked.mean(), random.mean());
        rows.push(E9Row {
            k,
            attacked: attacked.summary(),
            random: random.summary(),
            attacked_wall_ms: attacked.wall_ms(),
            random_wall_ms: random.wall_ms(),
        });
    }
    rows
}

/// One contention point of the E10 ladder-depth comparison.
#[derive(Debug, Clone, Copy)]
pub struct E10Row {
    /// Contention.
    pub k: usize,
    /// The lemma's iterated-rate depth bound.
    pub bound: u32,
    /// Distribution of the measured levels-used estimate over trials.
    pub levels: Summary,
    /// Wall-clock cost of the point's trial batch, in milliseconds.
    pub wall_ms: f64,
}

impl E10Row {
    /// This row as a [`BenchRow`] for `BENCH_ladder_depth.json`.
    pub fn bench_row(&self) -> BenchRow {
        BenchRow::from_summary(self.k as u64, &self.levels, self.wall_ms)
            .with("depth_bound", self.bound as f64)
    }
}

/// E10 — Lemma 2.1: the iterated-rate ladder depth vs measured depth.
pub fn e10_ladder_depth(scale: Scale, runner: &TrialRunner) -> Vec<E10Row> {
    print_header(
        "E10",
        "Lemma 2.1: ladder depth bound Δ_{f-1}(k) (log*-like) vs measured levels",
    );
    println!("k | depth bound (iterated rate) | measured mean levels used");
    let mut rows = Vec::new();
    let sweep = Sweep::new(runner, scale.trials.min(10), scale.seed);
    for k in k_sweep(scale.max_k.min(1 << 10)) {
        let bound = iterated_rate_depth(geometric_ge_rate, k as f64, 1.0);
        // Measured: run the log* algorithm and count the deepest group
        // election actually touched, via the per-label touched counts.
        let point = sweep.measure(k, |trial| {
            let mut mem = Memory::new();
            let le = LogStarLe::new(&mut mem, k);
            let protos: Vec<Box<dyn Protocol>> = (0..k).map(|_| le.elect()).collect();
            let res = Execution::new(mem, protos, trial.seed)
                .run(&mut baseline().adversary(k, trial.subseed(1)));
            assert!(res.all_finished());
            // Ladder registers are 4 per level, allocated level by level;
            // the deepest touched ladder register reveals the level count.
            let stats = res.memory().stats_by_label();
            let ge_touched = stats.get("logstar-ge").map(|s| s.touched).unwrap_or(0);
            // Each geometric GE level has ~log n + 2 registers; touching
            // any marks the level as used. Approximate levels used by
            // touched ladder register count / 4 (lower bound).
            let ladder_touched = stats.get("logstar-ladder").map(|s| s.touched).unwrap_or(0);
            (ladder_touched as f64 / 4.0).max(ge_touched as f64 / 12.0)
        });
        println!("{k} | {bound} | {:.1}", point.mean());
        rows.push(E10Row {
            k,
            bound,
            levels: point.summary(),
            wall_ms: point.wall_ms(),
        });
    }
    rows
}

/// One `(algorithm, scenario cell)` row of the E11 grid.
#[derive(Debug, Clone)]
pub struct E11Row {
    /// Algorithm under test.
    pub algorithm: &'static str,
    /// The cell's `arrival+fault+strategy` name.
    pub scenario: String,
    /// Arrival-axis label.
    pub arrival: &'static str,
    /// Fault-axis label.
    pub fault: &'static str,
    /// Strategy-axis label.
    pub strategy: &'static str,
    /// Contention (processes at the start; churn may add more over time).
    pub k: usize,
    /// Trials aggregated into the statistics.
    pub trials: u64,
    /// Distribution over trials of the max steps taken by any process
    /// slot.
    pub steps: Summary,
    /// Mean number of processes that finished (crashed slots never do).
    pub mean_finished: f64,
    /// Mean number of winners — at most 1 in every trial; 0 happens when
    /// the would-be winner crashed.
    pub mean_winners: f64,
    /// Wall-clock cost of the cell's whole trial batch, in milliseconds.
    pub wall_ms: f64,
}

impl E11Row {
    /// This row as a [`BenchRow`] for `BENCH_scenario_grid.json`.
    pub fn bench_row(&self) -> BenchRow {
        let mut row = BenchRow::from_summary(self.k as u64, &self.steps, self.wall_ms);
        row.trials = self.trials;
        row.with("mean_finished", self.mean_finished)
            .with("mean_winners", self.mean_winners)
            .with_label("algorithm", self.algorithm)
            .with_label("scenario", self.scenario.clone())
            .with_label("arrival", self.arrival)
            .with_label("fault", self.fault)
            .with_label("strategy", self.strategy)
    }
}

/// The contention E11 runs at: enough processes for the fault and
/// arrival axes to matter, small enough that the full grid stays fast.
pub fn e11_contention(scale: Scale) -> usize {
    scale.max_k.clamp(2, 24)
}

/// E11 — the scenario grid: RatRace (original and space-efficient) and
/// the Theorem 4.1 combiner across arrivals × faults × strategies.
///
/// Safety (at most one winner) is asserted in every cell of every trial;
/// the returned rows record steps, completions, and winners per cell.
pub fn e11_scenario_grid(scale: Scale, runner: &TrialRunner) -> Vec<E11Row> {
    print_header(
        "E11",
        "scenario grid: RatRace / space-efficient / combined across arrivals x faults x strategies",
    );
    let k = e11_contention(scale);
    e11_cells(scale, runner, &scenarios::grid(k), k)
}

/// Run E11 over an explicit set of scenario cells (the full grid, or a
/// single cell for the CLI's `--scenario`).
pub fn e11_cells(scale: Scale, runner: &TrialRunner, cells: &[Scenario], k: usize) -> Vec<E11Row> {
    use rtas::sim::rng::SplitMix64;
    use std::time::Instant;

    type AlgBuilder = fn(&mut Memory, usize) -> Arc<dyn LeaderElect>;
    let algorithms: [(&'static str, AlgBuilder); 3] = [
        ("ratrace", |m, n| Arc::new(OriginalRatRace::new(m, n))),
        ("ratrace-space-efficient", |m, n| {
            Arc::new(SpaceEfficientRatRace::new(m, n))
        }),
        ("combined", |m, n| {
            let weak = Arc::new(LogStarLe::new(m, n));
            Arc::new(Combined::new(m, weak, n))
        }),
    ];
    let trials = scale.trials.clamp(1, 6);
    println!("k={k} trials={trials} cells={}", cells.len());
    println!("scenario | algorithm | mean max steps | mean finished | mean winners");
    // One seed stream per (algorithm, cell name): keyed by the cell's
    // stable name — not its position in `cells` — so a single-cell
    // `--scenario` run reproduces that cell's full-grid numbers exactly.
    let cell_seed = |ai: usize, name: &str| {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325; // FNV-1a over the name
        for b in name.bytes() {
            h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
        SplitMix64::split(scale.seed.wrapping_add(h), ai as u64).next_u64()
    };
    let mut rows = Vec::new();
    for (ai, (alg_name, build)) in algorithms.iter().enumerate() {
        for cell in cells.iter() {
            let base_seed = cell_seed(ai, cell.name());
            let start = Instant::now();
            let results = runner.run_trials_with(
                trials,
                base_seed,
                || {
                    let mut mem = Memory::new();
                    let le = build(&mut mem, k);
                    let exec = Execution::new(mem, Vec::new(), 0).with_step_cap(5_000_000);
                    (le, exec)
                },
                |(le, exec), trial| {
                    let protos: Vec<Box<dyn Protocol>> = (0..k).map(|_| le.elect()).collect();
                    exec.reset(protos, trial.seed);
                    let respawn_le = Arc::clone(le);
                    let mut adv = cell
                        .begin(exec, trial.subseed(1))
                        .with_respawn(move |_| respawn_le.elect());
                    let out = exec.run_in_place(&mut adv);
                    assert!(
                        !out.hit_cap,
                        "{} / {alg_name} k={k} trial={}: hit step cap",
                        cell.name(),
                        trial.index
                    );
                    let winners = exec.count_outcome(ret::WIN);
                    assert!(
                        winners <= 1,
                        "{} / {alg_name} k={k} trial={}: {winners} winners",
                        cell.name(),
                        trial.index
                    );
                    (
                        exec.steps().max() as f64,
                        out.finished as f64,
                        winners as f64,
                    )
                },
            );
            let wall_ms = start.elapsed().as_secs_f64() * 1e3;
            // Folded in trial order (the runner returns results in trial
            // order), so the statistics are thread-count invariant.
            let mut steps = StatsAccumulator::new();
            let mut finished = StatsAccumulator::new();
            let mut winners = StatsAccumulator::new();
            for r in &results {
                steps.push(r.0);
                finished.push(r.1);
                winners.push(r.2);
            }
            let mean_finished = finished.mean();
            let mean_winners = winners.mean();
            println!(
                "{} | {alg_name} | {:.1} | {mean_finished:.1} | {mean_winners:.2}",
                cell.name(),
                steps.mean()
            );
            rows.push(E11Row {
                algorithm: alg_name,
                scenario: cell.name().to_string(),
                arrival: cell.arrivals().label(),
                fault: cell.faults().label(),
                strategy: cell.strategy().name(),
                k,
                trials,
                steps: steps.summary(),
                mean_finished,
                mean_winners,
                wall_ms,
            });
        }
    }
    rows
}

/// Epochs of structure reuse per E12 trial.
pub const E12_EPOCHS: u64 = 8;

/// One `(algorithm)` row of E12: the step distribution across reuse
/// epochs of one recycled structure.
#[derive(Debug, Clone)]
pub struct E12Row {
    /// Algorithm under test.
    pub algorithm: &'static str,
    /// Contention per epoch.
    pub k: usize,
    /// Reuse epochs per trial ([`E12_EPOCHS`]).
    pub epochs: u64,
    /// Distribution of max steps over all `trials × epochs` resolutions.
    pub steps: Summary,
    /// Mean max steps over first-epoch (pristine-structure) resolutions.
    pub first_epoch_mean: f64,
    /// Mean max steps over all later (recycled-structure) resolutions.
    pub later_epoch_mean: f64,
    /// Wall-clock cost of the algorithm's whole trial batch, ms.
    pub wall_ms: f64,
}

impl E12Row {
    /// This row as a [`BenchRow`] for `BENCH_epoch_reuse.json`.
    pub fn bench_row(&self) -> BenchRow {
        BenchRow::from_summary(self.k as u64, &self.steps, self.wall_ms)
            .with("epochs", self.epochs as f64)
            .with("first_epoch_mean", self.first_epoch_mean)
            .with("later_epoch_mean", self.later_epoch_mean)
            .with_label("algorithm", self.algorithm)
    }
}

/// E12 — arena epoch reuse: a structure recycled by register reset must
/// resolve with the *same* step distribution as a pristine one.
///
/// This is the simulator twin of the native load harness's sharded
/// arena (`rtas-load`): each trial builds one structure, then resolves
/// [`E12_EPOCHS`] epochs on it back to back, resetting registers (never
/// reallocating) between epochs — exactly what
/// [`rtas::TestAndSet::reset`] does natively, but with deterministic
/// seeds and step counting, so the claim "reuse epochs are
/// distributionally indistinguishable from fresh constructions" is
/// baseline-gated bit for bit. Exactly one winner is asserted per
/// epoch.
pub fn e12_epoch_reuse(scale: Scale, runner: &TrialRunner) -> Vec<E12Row> {
    use rtas::sim::rng::SplitMix64;
    use std::time::Instant;

    print_header(
        "E12",
        "arena epoch reuse: recycled structures match pristine step distributions",
    );
    let k = e11_contention(scale);
    type AlgBuilder = fn(&mut Memory, usize) -> Arc<dyn LeaderElect>;
    let algorithms: [(&'static str, AlgBuilder); 3] = [
        ("logstar", |m, n| Arc::new(LogStarLe::new(m, n))),
        ("ratrace-space-efficient", |m, n| {
            Arc::new(SpaceEfficientRatRace::new(m, n))
        }),
        ("combined", |m, n| {
            let weak = Arc::new(LogStarLe::new(m, n));
            Arc::new(Combined::new(m, weak, n))
        }),
    ];
    println!("k={k} epochs={E12_EPOCHS} trials={}", scale.trials);
    println!("algorithm | mean max steps | first-epoch mean | later-epoch mean");
    let mut rows = Vec::new();
    for (ai, (alg_name, build)) in algorithms.iter().enumerate() {
        let base_seed = SplitMix64::split(scale.seed ^ 0xe12, ai as u64).next_u64();
        let start = Instant::now();
        let results: Vec<Vec<f64>> = runner.run_trials_with(
            scale.trials,
            base_seed,
            || {
                let mut mem = Memory::new();
                let le = build(&mut mem, k);
                (le, Execution::new(mem, Vec::new(), 0))
            },
            |(le, exec), trial| {
                let mut per_epoch = Vec::with_capacity(E12_EPOCHS as usize);
                for epoch in 0..E12_EPOCHS {
                    let protos: Vec<Box<dyn Protocol>> = (0..k).map(|_| le.elect()).collect();
                    // reset() zeroes the registers of the *same* warm
                    // memory — the recycle under test.
                    exec.reset(protos, trial.subseed(2 * epoch));
                    let mut adv = baseline().begin(exec, trial.subseed(2 * epoch + 1));
                    let out = exec.run_in_place(&mut adv);
                    assert!(
                        out.all_finished(),
                        "{alg_name} k={k} trial={} epoch={epoch}: did not finish",
                        trial.index
                    );
                    assert_eq!(
                        exec.count_outcome(ret::WIN),
                        1,
                        "{alg_name} k={k} trial={} epoch={epoch}: winner count wrong",
                        trial.index
                    );
                    per_epoch.push(exec.steps().max() as f64);
                }
                per_epoch
            },
        );
        let wall_ms = start.elapsed().as_secs_f64() * 1e3;
        // Folded in trial order (results come back in trial order), so
        // the statistics are thread-count invariant.
        let mut steps = StatsAccumulator::new();
        let mut first = StatsAccumulator::new();
        let mut later = StatsAccumulator::new();
        for per_epoch in &results {
            for (epoch, &v) in per_epoch.iter().enumerate() {
                steps.push(v);
                if epoch == 0 {
                    first.push(v);
                } else {
                    later.push(v);
                }
            }
        }
        println!(
            "{alg_name} | {:.1} | {:.1} | {:.1}",
            steps.mean(),
            first.mean(),
            later.mean()
        );
        rows.push(E12Row {
            algorithm: alg_name,
            k,
            epochs: E12_EPOCHS,
            steps: steps.summary(),
            first_epoch_mean: first.mean(),
            later_epoch_mean: later.mean(),
            wall_ms,
        });
    }
    rows
}

/// Run every experiment at the given scale through one runner.
pub fn run_all(scale: Scale, runner: &TrialRunner) {
    e1_group_election_performance(scale, runner);
    e2_logstar_steps(scale, runner);
    e3_loglog_steps(scale, runner);
    e4_ratrace(scale, runner);
    e5_combiner(scale, runner);
    e6_space_lower_bound(scale, runner);
    e7_two_process_tail(scale, runner);
    e8_sifting_rounds(scale, runner);
    e9_adaptive_attack(scale, runner);
    e10_ladder_depth(scale, runner);
    e11_scenario_grid(scale, runner);
    e12_epoch_reuse(scale, runner);
}

/// Every experiment, in table order.
pub const IDS: [&str; 12] = [
    "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "e12",
];

/// A report named `name` holding `rows`.
pub fn report_from_rows(
    name: &'static str,
    threads: usize,
    rows: impl IntoIterator<Item = BenchRow>,
) -> BenchReport {
    let mut report = BenchReport::new(name, threads);
    for row in rows {
        report.push(row);
    }
    report
}

/// Run experiment `id` (one of [`IDS`]), printing its table, and return
/// its `BENCH_<name>.json` report; `None` for an unknown id.
pub fn bench_report(id: &str, scale: Scale, runner: &TrialRunner) -> Option<BenchReport> {
    let threads = runner.threads();
    let report = match id {
        "e1" => {
            let rows = e1_group_election_performance(scale, runner);
            report_from_rows(
                "group_election",
                threads,
                rows.iter().map(|r| r.bench_row()),
            )
        }
        "e2" => {
            let rows = e2_logstar_steps(scale, runner);
            report_from_rows(
                "step_complexity",
                threads,
                rows.iter().map(|r| {
                    r.steps
                        .bench_row()
                        .with("log_star", r.log_star as f64)
                        .with("registers", r.registers as f64)
                }),
            )
        }
        "e3" => {
            let rows = e3_loglog_steps(scale, runner);
            report_from_rows(
                "loglog_steps",
                threads,
                rows.iter().map(|r| {
                    r.steps
                        .bench_row()
                        .with("baseline_mean", r.baseline.mean_max_steps)
                }),
            )
        }
        "e4" => {
            let rows = e4_ratrace(scale, runner);
            report_from_rows(
                "ratrace",
                threads,
                rows.iter().map(|r| {
                    r.steps
                        .bench_row()
                        .with("regs_space_efficient", r.regs_space_efficient as f64)
                        .with("regs_original_declared", r.regs_original_declared as f64)
                        .with("regs_original_touched", r.regs_original_touched as f64)
                }),
            )
        }
        "e5" => {
            let rows = e5_combiner(scale, runner);
            report_from_rows("combiner", threads, rows.iter().map(|r| r.bench_row()))
        }
        "e6" => {
            // The recurrence is exact, not sampled: one deterministic
            // observation per n, so the distribution fields are the
            // honest single-value summary (quantiles = the value,
            // stddev/ci = 0). Wall-clock is not measured per row: null.
            let rows = e6_space_lower_bound(scale, runner);
            report_from_rows(
                "space_recurrence",
                threads,
                rows.iter().map(|&(n, rec, closed)| {
                    let single = StatsAccumulator::from_value(rec as f64);
                    BenchRow::from_summary(n, &single.summary(), f64::NAN)
                        .with("closed_form", closed as f64)
                }),
            )
        }
        "e7" => {
            // Only the mean and max tail probabilities exist here (the
            // schedule search reports per-schedule tails, not a trial
            // distribution); the unavailable fields serialize as null
            // rather than fabricated zeros.
            let rows = e7_two_process_tail(scale, runner);
            report_from_rows(
                "two_process_tail",
                threads,
                rows.iter().map(|r| {
                    BenchRow::from_mean_worst(
                        r.t as u64,
                        r.schedules as u64,
                        r.mean_tail,
                        r.max_tail,
                    )
                    .with("bound", r.bound)
                }),
            )
        }
        "e8" => {
            let rows = e8_sifting_rounds(scale, runner);
            report_from_rows(
                "sifting_rounds",
                threads,
                rows.iter().map(|r| r.bench_row()),
            )
        }
        "e9" => {
            let rows = e9_adaptive_attack(scale, runner);
            report_from_rows(
                "adaptive_attack",
                threads,
                rows.iter().flat_map(|r| r.bench_rows()),
            )
        }
        "e10" => {
            let rows = e10_ladder_depth(scale, runner);
            report_from_rows("ladder_depth", threads, rows.iter().map(|r| r.bench_row()))
        }
        "e11" => {
            let rows = e11_scenario_grid(scale, runner);
            report_from_rows("scenario_grid", threads, rows.iter().map(|r| r.bench_row()))
        }
        "e12" => {
            let rows = e12_epoch_reuse(scale, runner);
            report_from_rows("epoch_reuse", threads, rows.iter().map(|r| r.bench_row()))
        }
        _ => return None,
    };
    Some(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Scale {
        Scale {
            max_k: 32,
            trials: 4,
            seed: 42,
        }
    }

    fn runner() -> TrialRunner {
        TrialRunner::new(2)
    }

    /// Least-squares slope of `ln y` against `ln x`: the power-law
    /// exponent behind the growth-shape assertions. Points with a
    /// non-positive coordinate are skipped.
    fn log_log_slope(points: &[(f64, f64)]) -> f64 {
        let logs: Vec<(f64, f64)> = points
            .iter()
            .filter(|&&(x, y)| x > 0.0 && y > 0.0)
            .map(|&(x, y)| (x.ln(), y.ln()))
            .collect();
        assert!(logs.len() >= 2, "need at least two positive points");
        let n = logs.len() as f64;
        let sx: f64 = logs.iter().map(|p| p.0).sum();
        let sy: f64 = logs.iter().map(|p| p.1).sum();
        let sxx: f64 = logs.iter().map(|p| p.0 * p.0).sum();
        let sxy: f64 = logs.iter().map(|p| p.0 * p.1).sum();
        let denom = n * sxx - sx * sx;
        assert!(denom.abs() > 1e-12, "x values are degenerate");
        (n * sxy - sx * sy) / denom
    }

    #[test]
    fn slope_recovers_power_law_exponents() {
        let slope = |f: fn(f64) -> f64| {
            log_log_slope(&(1..=6).map(|k| (k as f64, f(k as f64))).collect::<Vec<_>>())
        };
        assert!((slope(|k| 3.0 * k) - 1.0).abs() < 1e-9);
        assert!((slope(|k| 0.5 * k * k) - 2.0).abs() < 1e-9);
        assert!(slope(|_| 7.0).abs() < 1e-9);
        let s = slope(|k| k.log2() + 5.0);
        assert!(s > 0.0 && s < 0.5, "slope {s}");
    }

    #[test]
    #[should_panic(expected = "two positive points")]
    fn too_few_points_panics() {
        let _ = log_log_slope(&[(1.0, 1.0)]);
    }

    #[test]
    #[should_panic(expected = "x values are degenerate")]
    fn slope_with_degenerate_x_panics() {
        let _ = log_log_slope(&[(3.0, 1.0), (3.0, 2.0), (3.0, 4.0)]);
    }

    #[test]
    fn k_sweep_handles_degenerate_max() {
        assert!(k_sweep(0).is_empty());
        assert!(k_sweep(1).is_empty());
        assert_eq!(k_sweep(2), vec![2]);
        assert_eq!(k_sweep(8), vec![2, 8]);
        assert_eq!(k_sweep(32), vec![2, 8, 32]);
        assert_eq!(k_sweep(33), vec![2, 8, 32, 33]);
        // The final point is never duplicated.
        let ks = k_sweep(128);
        assert_eq!(ks, vec![2, 8, 32, 128]);
    }

    #[test]
    fn e1_respects_bound() {
        for r in e1_group_election_performance(tiny(), &runner()) {
            assert!(
                r.elected.mean <= r.bound,
                "k={}: {} > {}",
                r.k,
                r.elected.mean,
                r.bound
            );
            // The distribution snapshot must be internally consistent.
            assert!(r.elected.min <= r.elected.p50);
            assert!(r.elected.p50 <= r.elected.max);
        }
    }

    #[test]
    fn e2_is_sublinear() {
        let rows = e2_logstar_steps(tiny(), &runner());
        let last = rows.last().unwrap();
        assert!(last.steps.mean_max_steps < last.steps.k as f64);
    }

    #[test]
    fn e12_reuse_epochs_match_pristine_distribution() {
        let scale = Scale {
            max_k: 16,
            trials: 12,
            seed: 42,
        };
        let rows = e12_epoch_reuse(scale, &runner());
        assert_eq!(rows.len(), 3);
        for r in &rows {
            assert_eq!(r.epochs, E12_EPOCHS);
            assert_eq!(r.steps.count, scale.trials * E12_EPOCHS);
            // Recycled epochs must look like pristine ones: the means
            // are independent samples of the same distribution, so
            // allow generous sampling noise but catch systematic drift
            // (e.g. stale register state inflating later epochs).
            let drift = (r.later_epoch_mean - r.first_epoch_mean).abs();
            assert!(
                drift <= 0.75 * r.first_epoch_mean.max(4.0),
                "{}: first-epoch mean {} vs later-epoch mean {}",
                r.algorithm,
                r.first_epoch_mean,
                r.later_epoch_mean
            );
        }
    }

    #[test]
    fn e12_is_thread_count_invariant() {
        let scale = Scale {
            max_k: 8,
            trials: 6,
            seed: 7,
        };
        let serial = e12_epoch_reuse(scale, &TrialRunner::serial());
        let parallel = e12_epoch_reuse(scale, &TrialRunner::new(4));
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s.steps, p.steps, "{}", s.algorithm);
            assert_eq!(s.first_epoch_mean, p.first_epoch_mean);
            assert_eq!(s.later_epoch_mean, p.later_epoch_mean);
        }
    }

    #[test]
    fn e4_space_separation() {
        let rows = e4_ratrace(tiny(), &runner());
        for row in rows {
            let k = row.steps.k;
            if k >= 16 {
                assert!(
                    row.regs_original_declared > 20 * row.regs_space_efficient,
                    "k={k}: original {} vs SE {}",
                    row.regs_original_declared,
                    row.regs_space_efficient
                );
            }
            assert!(row.regs_original_touched < row.regs_original_declared);
        }
    }

    #[test]
    fn e6_exact() {
        let rows = e6_space_lower_bound(tiny(), &runner());
        assert!(rows.iter().all(|&(_, a, b)| a == b));
    }

    #[test]
    fn e9_attack_dominates_random() {
        let rows = e9_adaptive_attack(
            Scale {
                max_k: 64,
                trials: 4,
                seed: 3,
            },
            &runner(),
        );
        let last = rows.last().unwrap();
        assert!(last.attacked.mean > last.random.mean);
    }

    #[test]
    fn e9_attacked_growth_is_linear_friendly_is_flat() {
        let rows = e9_adaptive_attack(
            Scale {
                max_k: 128,
                trials: 4,
                seed: 5,
            },
            &runner(),
        );
        let attacked: Vec<(f64, f64)> =
            rows.iter().map(|r| (r.k as f64, r.attacked.mean)).collect();
        let random: Vec<(f64, f64)> = rows.iter().map(|r| (r.k as f64, r.random.mean)).collect();
        let s_att = log_log_slope(&attacked);
        let s_rnd = log_log_slope(&random);
        assert!(s_att > 0.6, "attacked slope {s_att} not ~linear");
        assert!(s_rnd < 0.35, "random slope {s_rnd} not ~flat");
    }

    #[test]
    fn e2_growth_is_essentially_flat() {
        let rows = e2_logstar_steps(
            Scale {
                max_k: 256,
                trials: 6,
                seed: 4,
            },
            &runner(),
        );
        let pts: Vec<(f64, f64)> = rows
            .iter()
            .map(|r| (r.steps.k as f64, r.steps.mean_max_steps))
            .collect();
        let slope = log_log_slope(&pts);
        assert!(slope < 0.25, "log* steps slope {slope} too steep");
    }

    #[test]
    fn e11_covers_axes_and_is_safe() {
        use std::collections::HashSet;
        let rows = e11_scenario_grid(tiny(), &runner());
        let arrivals: HashSet<_> = rows.iter().map(|r| r.arrival).collect();
        let faults: HashSet<_> = rows.iter().map(|r| r.fault).collect();
        let strategies: HashSet<_> = rows.iter().map(|r| r.strategy).collect();
        let algorithms: HashSet<_> = rows.iter().map(|r| r.algorithm).collect();
        assert!(arrivals.len() >= 3, "arrival axis too small: {arrivals:?}");
        assert!(faults.len() >= 3, "fault axis too small: {faults:?}");
        assert!(strategies.len() >= 3, "strategy axis: {strategies:?}");
        assert_eq!(algorithms.len(), 3);
        assert_eq!(
            rows.len(),
            arrivals.len() * faults.len() * strategies.len() * algorithms.len()
        );
        let k = e11_contention(tiny()) as f64;
        for r in &rows {
            // Safety is asserted per trial inside the runs; the
            // aggregates must reflect it too.
            assert!(r.mean_winners <= 1.0, "{}: {}", r.scenario, r.mean_winners);
            assert!(r.mean_finished <= k);
            // Fault-free cells complete everyone.
            if r.fault == "none" {
                assert_eq!(r.mean_finished, k, "{} should complete", r.scenario);
            }
        }
    }

    #[test]
    fn e11_is_thread_count_invariant() {
        let scale = tiny();
        let k = 8;
        let cells: Vec<_> = [
            "staggered+churn+laggard-first",
            "random-late+crash-ops+random",
            "batched+crash-slot+contention-max",
        ]
        .iter()
        .map(|name| crate::scenarios::find(k, name).expect("cell exists"))
        .collect();
        let serial = e11_cells(scale, &TrialRunner::serial(), &cells, k);
        let parallel = e11_cells(scale, &TrialRunner::new(4), &cells, k);
        assert_eq!(serial.len(), parallel.len());
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s.scenario, p.scenario);
            // The whole distribution snapshot — quantiles included —
            // must be bit-identical, not just the means.
            assert_eq!(s.steps, p.steps, "{}", s.scenario);
            assert_eq!(s.mean_finished, p.mean_finished, "{}", s.scenario);
            assert_eq!(s.mean_winners, p.mean_winners, "{}", s.scenario);
        }
    }

    #[test]
    fn e2_is_thread_count_invariant() {
        // The whole experiment — not just one batch — must be identical
        // between a serial and a parallel runner.
        let serial = e2_logstar_steps(tiny(), &TrialRunner::serial());
        let parallel = e2_logstar_steps(tiny(), &TrialRunner::new(4));
        assert_eq!(serial.len(), parallel.len());
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s.steps.k, p.steps.k);
            assert_eq!(s.steps.mean_max_steps, p.steps.mean_max_steps);
            assert_eq!(s.steps.worst_max_steps, p.steps.worst_max_steps);
            // Quantiles, stddev, and CI must be bit-identical too.
            assert_eq!(s.steps.dist, p.steps.dist);
            assert_eq!(s.registers, p.registers);
        }
    }
}
