//! The three workloads: their set-up, the untraced sweep the end-to-end
//! metrics are measured on, and the output check.
//!
//! Every sweep goes through the entry points the artifact binaries use:
//! `hcrf::run_suite` (what `table6::run_configs` and `fig6::run_configs`
//! call per configuration) and `hcrf_explore::explore` + `build_report`
//! (what the `explore` CLI calls).

use crate::util::{calibration_pass_s, shuffle, speed_scale};
use hcrf::experiments::{FIG6_CONFIGS, TABLE5_CONFIGS};
use hcrf::{run_suite, suite_fingerprint, ConfiguredMachine, RunOptions, SuiteRun};
use hcrf_explore::{
    build_report, explore, DesignSpace, ExploreOptions, ExploreOutcome, ResultCache,
};
use hcrf_ir::Loop;
use hcrf_machine::RfOrganization;
use hcrf_perf::SuiteAggregate;
use hcrf_sched::{validate_schedule, SchedulerStats};
use hcrf_workloads::suite::suite;
use hcrf_workloads::SuiteParams;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Loops in the explore CLI's default suite.
pub const EXPLORE_LOOPS: usize = 96;

/// Upper bound on explore workers, so the sweep measures the same
/// parallelism on any machine with at least this many CPUs.
pub const EXPLORE_MAX_WORKERS: usize = 4;

/// Decorrelates the configuration order from the loop order.
const CONFIG_ORDER_SALT: u64 = 0xc0f1_6a11;

/// One named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The 1258-loop suite × the 15 Table 5 configurations, ideal memory.
    Table6Ideal,
    /// The 1258-loop suite × the 7 Figure 6 configurations, real memory.
    Fig6Real,
    /// The default design space × the explore CLI's 96-loop suite, cold
    /// into an empty result store, then warm.
    ExploreSweep,
}

impl Workload {
    /// Every workload, in the order the benchmark documents them.
    pub const ALL: [Workload; 3] = [
        Workload::Table6Ideal,
        Workload::Fig6Real,
        Workload::ExploreSweep,
    ];

    /// The workload's name on the command line and in results.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Table6Ideal => "table6_ideal",
            Workload::Fig6Real => "fig6_real",
            Workload::ExploreSweep => "explore_sweep",
        }
    }

    /// Parse a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Loops in the workload's suite when no reduced size is asked for.
    pub fn default_loops(self) -> usize {
        match self {
            Workload::ExploreSweep => EXPLORE_LOOPS,
            _ => SuiteParams::default().total_loops,
        }
    }

    /// Engine workers the workload runs on.
    pub fn workers(self) -> usize {
        match self {
            Workload::ExploreSweep => crate::util::nproc().min(EXPLORE_MAX_WORKERS),
            _ => 1,
        }
    }

    /// The configurations a paper workload sweeps (none for explore).
    pub fn paper_configs(self) -> &'static [&'static str] {
        match self {
            Workload::Table6Ideal => &TABLE5_CONFIGS,
            Workload::Fig6Real => &FIG6_CONFIGS,
            Workload::ExploreSweep => &[],
        }
    }

    /// Run options of the paper workloads, as the artifact binaries build
    /// them (`fig6::run_configs` switches on real memory itself).
    pub fn run_options(self) -> RunOptions {
        let options = RunOptions::default().with_threads(self.workers());
        match self {
            Workload::Fig6Real => options.with_real_memory(),
            _ => options,
        }
    }

    /// Explore options: the CLI's defaults with a fixed worker count.
    pub fn explore_options(self) -> ExploreOptions {
        ExploreOptions {
            threads: self.workers(),
            ..Default::default()
        }
    }
}

/// What one run is asked to do.
#[derive(Debug, Clone)]
pub struct Params {
    /// The workload.
    pub workload: Workload,
    /// The order seed: which order the suite's loops, the configurations
    /// and the design points are handed to the program in. Every order
    /// gives the same results, so the deterministic metrics do not move
    /// with it.
    pub seed: u64,
    /// Seed of the synthetic loop population (`SuiteParams::seed`).
    pub population_seed: u64,
    /// Loops in the suite.
    pub loops: usize,
    /// Directory for result files, traces and explore stores.
    pub out_dir: PathBuf,
}

impl Params {
    /// The loop population, in generation order.
    pub fn population(&self) -> Vec<Loop> {
        suite(SuiteParams {
            total_loops: self.loops,
            seed: self.population_seed,
        })
    }

    /// The loop suite of this run: the population in the seed's order.
    pub fn suite(&self) -> Vec<Loop> {
        let mut loops = self.population();
        shuffle(&mut loops, self.seed);
        loops
    }

    /// The configurations of a paper workload, in the seed's order.
    pub fn config_names(&self) -> Vec<&'static str> {
        let mut names = self.workload.paper_configs().to_vec();
        shuffle(&mut names, self.seed ^ CONFIG_ORDER_SALT);
        names
    }

    /// The explore design points, in the seed's order.
    pub fn orgs(&self) -> Vec<RfOrganization> {
        let mut orgs = DesignSpace::default().enumerate();
        shuffle(&mut orgs, self.seed ^ CONFIG_ORDER_SALT);
        orgs
    }

    /// A fresh, empty directory for one explore result store.
    pub fn fresh_store_dir(&self) -> std::io::Result<PathBuf> {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let dir = stores_dir(&self.out_dir).join(NEXT.fetch_add(1, Ordering::Relaxed).to_string());
        if dir.exists() {
            std::fs::remove_dir_all(&dir)?;
        }
        std::fs::create_dir_all(&dir)?;
        Ok(dir)
    }
}

/// Everything a sweep needs, built by [`prepare`] (the timed set-up).
pub enum Prepared {
    /// Table 6 / Figure 6: the suite and the configured machines.
    Paper {
        /// The loop suite.
        suite: Vec<Loop>,
        /// One configured machine per configuration, in the paper's order.
        configs: Vec<ConfiguredMachine>,
    },
    /// The explore sweep: suite, design points and an empty result store.
    Explore {
        /// The loop suite.
        suite: Vec<Loop>,
        /// The enumerated design points.
        orgs: Vec<RfOrganization>,
        /// The result store, opened on `store`.
        cache: Box<ResultCache>,
        /// The store's directory.
        store: PathBuf,
    },
}

impl Prepared {
    /// Number of (loop, configuration) pairs one sweep schedules.
    pub fn pairs(&self) -> usize {
        match self {
            Prepared::Paper { suite, configs } => suite.len() * configs.len(),
            Prepared::Explore { suite, orgs, .. } => suite.len() * orgs.len(),
        }
    }
}

/// The set-up of one sweep: everything from start until the first schedule
/// can run.
pub fn prepare(params: &Params) -> std::io::Result<Prepared> {
    let workload = params.workload;
    if workload == Workload::ExploreSweep {
        let orgs = params.orgs();
        let suite = params.suite();
        // The store keys results on the fingerprint; explore recomputes it.
        black_box(suite_fingerprint(&suite));
        let store = params.fresh_store_dir()?;
        let cache = Box::new(ResultCache::open(&store)?);
        return Ok(Prepared::Explore {
            suite,
            orgs,
            cache,
            store,
        });
    }
    let suite = params.suite();
    let configs = params
        .config_names()
        .iter()
        .map(|name| ConfiguredMachine::from_name(name).expect("paper configuration names parse"))
        .collect();
    Ok(Prepared::Paper { suite, configs })
}

/// What the check compares per pair: the schedule's decisions and work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PairSummary {
    /// Achieved II.
    pub ii: u32,
    /// MII lower bound.
    pub mii: u32,
    /// No schedule found up to `max_ii`.
    pub failed: bool,
    /// Work counters.
    pub stats: SchedulerStats,
}

/// One untraced sweep.
#[derive(Debug, Clone, Default)]
pub struct Sweep {
    /// Wall time of the sweep: the summed `run_suite` calls, or for explore
    /// the cold sweep plus its report.
    pub wall_s: f64,
    /// Wall time of each configuration's `run_suite` (paper workloads; for
    /// explore the one cold sweep).
    pub part_s: Vec<f64>,
    /// The machine-speed scale of each part, from the calibration passes
    /// around it (see [`speed_scale`]).
    pub part_scale: Vec<f64>,
    /// Configurations or design points, in sweep order.
    pub rfs: Vec<RfOrganization>,
    /// Their aggregates.
    pub aggregates: Vec<SuiteAggregate>,
    /// Per-pair decisions, per configuration (paper workloads only).
    pub pairs: Vec<Vec<PairSummary>>,
    /// Scheduler time samples in µs, speed-scaled: one per pair for the
    /// paper workloads; one per design point (its mean loop time) for
    /// explore, whose outcome does not expose per-pair times.
    pub samples_us: Vec<f64>,
    /// Wall time of the warm rerun (explore only).
    pub warm_s: f64,
    /// Pairs whose output failed a check during the sweep (explore: design
    /// points whose warm rerun missed the cache or disagreed with the cold
    /// sweep), listed by name.
    pub invalid: Vec<String>,
}

impl Sweep {
    /// Whether two sweeps decided every pair identically.
    pub fn same_decisions(&self, other: &Sweep) -> bool {
        self.rfs == other.rfs && self.aggregates == other.aggregates && self.pairs == other.pairs
    }

    /// The speed-scaled wall time of each part.
    pub fn scaled_parts(&self) -> impl Iterator<Item = f64> + '_ {
        self.part_s.iter().zip(&self.part_scale).map(|(t, s)| t * s)
    }

    /// Fold one configuration's run, `wall_s` long at speed scale `scale`,
    /// into the sweep, keeping only what the metrics and the checks need.
    fn absorb(&mut self, run: SuiteRun, wall_s: f64, scale: f64) {
        self.part_s.push(wall_s);
        self.part_scale.push(scale);
        self.rfs.push(run.config.machine.rf);
        self.samples_us.extend(
            run.loops
                .iter()
                .map(|l| l.phases.total().as_secs_f64() * 1e6 * scale),
        );
        self.pairs.push(run.loops.iter().map(summary_of).collect());
        self.aggregates.push(run.aggregate);
    }
}

/// Run one untraced sweep on a prepared set-up.
pub fn sweep(workload: Workload, prepared: Prepared) -> Sweep {
    match prepared {
        Prepared::Paper { suite, configs } => {
            // Each configuration's run is summarized (its schedules dropped)
            // before the next starts, so memory holds one run at a time. A
            // calibration pass between runs tracks the machine's speed.
            let options = workload.run_options();
            let mut sweep = Sweep::default();
            let mut pass = calibration_pass_s();
            for config in &configs {
                let started = Instant::now();
                let run = run_suite(config, &suite, &options);
                let wall_s = started.elapsed().as_secs_f64();
                let next = calibration_pass_s();
                sweep.absorb(run, wall_s, speed_scale(pass, next));
                pass = next;
            }
            sweep.wall_s = sweep.part_s.iter().sum();
            sweep
        }
        Prepared::Explore {
            suite,
            orgs,
            mut cache,
            store,
            ..
        } => {
            let options = workload.explore_options();
            let pass = calibration_pass_s();
            let started = Instant::now();
            let cold = explore(&orgs, &suite, &options, &mut cache);
            black_box(build_report(&cold));
            let wall_s = started.elapsed().as_secs_f64();
            let scale = speed_scale(pass, calibration_pass_s());
            drop(cache);

            let started = Instant::now();
            let warm = ResultCache::open(&store).map(|mut reopened| {
                let outcome = explore(&orgs, &suite, &options, &mut reopened);
                black_box(build_report(&outcome));
                outcome
            });
            let warm_s = started.elapsed().as_secs_f64();
            let _ = std::fs::remove_dir_all(&store);

            let invalid = match warm {
                Ok(warm) => warm_check(&cold, &warm, orgs.len()),
                Err(e) => vec![format!("warm rerun: cannot reopen the store: {e}")],
            };
            let loops = cold.suite_loops.max(1) as f64;
            Sweep {
                wall_s,
                part_s: vec![wall_s],
                part_scale: vec![scale],
                rfs: cold.points.iter().map(|p| p.rf).collect(),
                samples_us: cold
                    .points
                    .iter()
                    .map(|p| p.scheduling_seconds / loops * 1e6 * scale)
                    .collect(),
                aggregates: cold.points.into_iter().map(|p| p.aggregate).collect(),
                pairs: Vec::new(),
                warm_s,
                invalid,
            }
        }
    }
}

/// Check an explore sweep: the cold sweep evaluated every point, and the
/// warm rerun served every point from the store, unchanged. Returns the
/// offending points by name.
pub fn warm_check(cold: &ExploreOutcome, warm: &ExploreOutcome, points: usize) -> Vec<String> {
    let mut invalid = Vec::new();
    if cold.points.len() != points {
        invalid.push(format!(
            "cold sweep evaluated {} of {points} points",
            cold.points.len()
        ));
    }
    if warm.cache.hits != points as u64 || warm.cache.misses != 0 {
        invalid.push(format!(
            "warm rerun: {} hits, {} misses of {points} points",
            warm.cache.hits, warm.cache.misses
        ));
    }
    for (c, w) in cold.points.iter().zip(&warm.points) {
        if c.name != w.name || c.aggregate != w.aggregate || !w.from_cache {
            invalid.push(format!("{} (warm rerun differs from cold)", c.name));
        }
    }
    invalid
}

fn summary_of(run: &hcrf::LoopRun) -> PairSummary {
    PairSummary {
        ii: run.schedule.ii,
        mii: run.schedule.mii,
        failed: run.schedule.failed,
        stats: run.schedule.stats,
    }
}

/// Outcome of the output check of a paper workload.
#[derive(Debug, Default)]
pub struct Check {
    /// Pairs whose final schedule failed `validate_schedule`, by name.
    pub invalid: Vec<String>,
    /// Pairs whose kept-schedule rerun decided differently from the timed
    /// sweep, by name.
    pub mismatched: Vec<String>,
    /// Final schedules validated.
    pub validated: usize,
    /// Seconds spent inside `validate_schedule`.
    pub validate_s: f64,
}

impl Check {
    /// Every offending pair, by name.
    pub fn offending(&self) -> impl Iterator<Item = String> + '_ {
        self.invalid.iter().chain(&self.mismatched).cloned()
    }
}

/// The untimed output check after the timed sweeps. Explore checks its
/// outputs inside every sweep (the warm rerun), so this is a no-op there.
pub fn check_outputs(params: &Params, reference: &Sweep) -> Check {
    match params.workload {
        Workload::ExploreSweep => Check::default(),
        workload => check_paper(workload, &params.suite(), reference),
    }
}

/// The untimed output check of a paper workload: rerun every
/// configuration with `keep_schedule` on, require the same decisions as
/// the timed sweep, and validate every non-failed final schedule.
fn check_paper(workload: Workload, suite: &[Loop], reference: &Sweep) -> Check {
    let mut options = workload.run_options();
    options.scheduler.keep_schedule = true;
    let mut check = Check::default();
    for (rf, expected) in reference.rfs.iter().zip(&reference.pairs) {
        let config = ConfiguredMachine::from_rf(*rf);
        let name = config.name();
        let run = run_suite(&config, suite, &options);
        for (l, run) in suite.iter().zip(&run.loops) {
            let pair = || format!("{}@{}", l.ddg.name, name);
            if expected.get(run.index) != Some(&summary_of(run)) {
                check.mismatched.push(pair());
            }
            if run.schedule.failed {
                continue;
            }
            let started = Instant::now();
            let verdict = validate_schedule(&l.ddg, &config.machine, &run.schedule);
            check.validate_s += started.elapsed().as_secs_f64();
            check.validated += 1;
            if let Err(e) = verdict {
                check.invalid.push(format!("{} ({e})", pair()));
            }
        }
        if run.loops.len() != suite.len() {
            check.mismatched.push(format!(
                "{name}: {} of {} loops",
                run.loops.len(),
                suite.len()
            ));
        }
    }
    check
}

/// Aggregate figures of one sweep: the deterministic end-to-end metrics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Totals {
    /// (loop, configuration) pairs.
    pub pairs: usize,
    /// ΣII, failed pairs counted at `max_ii` as `SuiteAggregate` does.
    pub sum_ii: u64,
    /// Pairs with no schedule up to `max_ii`.
    pub failed: usize,
    /// Pairs scheduled at their MII.
    pub at_mii: usize,
    /// Σ useful + stall cycles.
    pub exec_cycles: u64,
    /// Σ memory traffic, spill traffic included.
    pub mem_traffic: u64,
    /// Σ stall cycles.
    pub stall_cycles: u64,
    /// Geometric mean of the speedup over S64 of the hierarchical
    /// clustered points (two or more clusters plus a shared bank).
    pub hier_speedup_gmean: f64,
}

impl Totals {
    /// Fold per-configuration aggregates.
    pub fn of(rfs: &[RfOrganization], aggregates: &[SuiteAggregate]) -> Totals {
        let s64 = RfOrganization::parse("S64").expect("S64 parses");
        let baseline = rfs
            .iter()
            .position(|rf| *rf == s64)
            .map(|i| &aggregates[i])
            .expect("every workload evaluates S64");
        let mut speedups: Vec<f64> = rfs
            .iter()
            .zip(aggregates)
            .filter(|(rf, _)| rf.is_hierarchical() && rf.clusters() >= 2)
            .map(|(_, a)| a.speedup_vs(baseline))
            .collect();
        // A fixed summation order keeps the mean bit-identical for any
        // configuration order.
        speedups.sort_by(f64::total_cmp);
        Totals {
            pairs: aggregates.iter().map(|a| a.loops).sum(),
            sum_ii: aggregates.iter().map(|a| a.sum_ii).sum(),
            failed: aggregates.iter().map(|a| a.failed_loops).sum(),
            at_mii: aggregates.iter().map(|a| a.loops_at_mii).sum(),
            exec_cycles: aggregates.iter().map(|a| a.total_cycles()).sum(),
            mem_traffic: aggregates.iter().map(|a| a.memory_traffic).sum(),
            stall_cycles: aggregates.iter().map(|a| a.stall_cycles).sum(),
            hier_speedup_gmean: crate::util::gmean(&speedups),
        }
    }
}

/// This process's explore stores live under `out_dir/stores/<pid>`.
fn stores_dir(out_dir: &Path) -> PathBuf {
    out_dir.join("stores").join(std::process::id().to_string())
}

/// Remove the explore stores this process left under `out_dir`.
pub fn remove_stores(out_dir: &Path) {
    let _ = std::fs::remove_dir_all(stores_dir(out_dir));
    // Succeeds only once no other run keeps stores there.
    let _ = std::fs::remove_dir(out_dir.join("stores"));
}
