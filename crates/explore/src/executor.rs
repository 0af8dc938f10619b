//! Parallel, cache-aware evaluation of a set of design points.
//!
//! The executor turns a list of register-file organizations into evaluated
//! points: it fingerprints the suite once, probes the [`ResultCache`] for
//! every point, then groups the uncached points by *scheduling class*
//! ([`IterativeScheduler::class_key`]: the machine with its register
//! capacities erased) and submits the classes to the
//! [`hcrf_engine::Engine`] as *two-level* tasks — each class decomposes
//! into one task per loop, and workers take the loops of every class from
//! one shared cursor, so a slow class (the paper's large-II S128 sweeps)
//! does not serialize the sweep behind it.
//!
//! A class's loop task walks its points largest capacity first. Each point
//! is served by an earlier point's schedule whose
//! [`hcrf_sched::CapacityWindow`] covers its capacities (every capacity
//! check comes out the same there, so the schedule is identical), or is
//! scheduled itself and adds its window to the list. Every point is still
//! measured, folded, persisted and reported on its own.
//!
//! Completed classes stream back to the caller's thread, where their points
//! are persisted to the cache as they land — *before* any later worker
//! panic propagates, so an interrupted sweep keeps every finished class.
//! Results fold in fixed loop order per point and land in input order,
//! making every [`PointResult`]'s aggregate bit-identical for any thread
//! count.

use crate::cache::{CacheKey, CacheStats, CachedResult, Scenario};
use crate::store::ResultCache;
use hcrf::driver::{
    fold_aggregate, measure_loop_traced, suite_fingerprint, ConfiguredMachine, RunOptions,
};
use hcrf_engine::{Engine, FailurePolicy, FaultPlan, TaskFailure};
use hcrf_ir::Loop;
use hcrf_machine::{MachineConfig, RfOrganization};
use hcrf_perf::LoopPerformance;
use hcrf_sched::{ArenaPool, IterativeScheduler, PhaseTimings, ScheduleResult, SchedulerParams};
use hcrf_telemetry::{Telemetry, Verbosity};
use std::cmp::Reverse;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Options of one exploration run.
#[derive(Debug, Clone, Copy)]
pub struct ExploreOptions {
    /// Memory scenario to evaluate under.
    pub scenario: Scenario,
    /// Scheduler parameters (prefetching and schedule retention are adjusted
    /// to the scenario automatically, mirroring [`RunOptions`]).
    pub scheduler: SchedulerParams,
    /// Worker threads across design points (0 = one per available CPU).
    pub threads: usize,
    /// Iteration cap of the cache simulation in the real-memory scenario.
    pub max_simulated_iterations: u64,
    /// Stream per-point progress lines to stderr. [`explore`] honors this by
    /// constructing a [`Telemetry`] reporter at [`Verbosity::Progress`];
    /// [`explore_traced`] reports at its telemetry handle's own verbosity
    /// instead.
    pub progress: bool,
    /// How the engine responds to a panicking loop task: fail fast (the
    /// default) or isolate-and-retry, quarantining design points whose
    /// tasks keep panicking instead of poisoning the sweep.
    pub failure: FailurePolicy,
    /// Deterministic fault injection for chaos drills and the
    /// fault-tolerance tests; `None` (the default) runs no injection code.
    pub fault_plan: Option<FaultPlan>,
}

impl Default for ExploreOptions {
    fn default() -> Self {
        ExploreOptions {
            scenario: Scenario::Ideal,
            scheduler: SchedulerParams::default().without_schedule(),
            threads: 0,
            max_simulated_iterations: 64,
            progress: false,
            failure: FailurePolicy::default(),
            fault_plan: None,
        }
    }
}

impl ExploreOptions {
    /// The `RunOptions` a point's loops are scheduled under.
    ///
    /// The executor decomposes points into per-loop engine tasks itself, so
    /// the `threads` field here is fixed at 1 — parallelism is owned by the
    /// sweep-level [`Engine`], not by nested suite runs.
    pub fn run_options(&self) -> RunOptions {
        let options = RunOptions {
            scheduler: self.scheduler,
            real_memory: false,
            max_simulated_iterations: self.max_simulated_iterations,
            threads: 1,
            failure: self.failure,
        };
        match self.scenario {
            Scenario::Ideal => options,
            Scenario::Real => options.with_real_memory(),
        }
    }
}

/// One evaluated design point.
#[derive(Debug, Clone)]
pub struct PointResult {
    /// The organization evaluated.
    pub rf: RfOrganization,
    /// Its `xCy-Sz` name.
    pub name: String,
    /// Aggregated suite metrics.
    pub aggregate: hcrf_perf::SuiteAggregate,
    /// Clock period (ns).
    pub clock_ns: f64,
    /// Total register-file area (Mλ²).
    pub total_area: f64,
    /// Seconds of scheduler time the point cost: the summed per-loop phase
    /// totals (CPU time, not wall time — the point's loops interleave with
    /// other points' on the engine workers). A loop a sibling point's
    /// schedule served counts that schedule's phase times, so this is what
    /// scheduling the point costs, not what this sweep paid for it. Cached
    /// points report the value their original evaluation stored.
    pub scheduling_seconds: f64,
    /// Whether this point was served from the result cache.
    pub from_cache: bool,
}

/// A design point whose evaluation was quarantined: one or more of its
/// loop tasks kept panicking under [`FailurePolicy::Isolate`], so the
/// point has no result — but the sweep completed and every other point
/// persisted. The Pareto report lists these in its failure manifest. A
/// loop task serves every point of its scheduling class, so a task that
/// keeps panicking quarantines each of them, each with its own copy of the
/// class's failure list.
#[derive(Debug, Clone)]
pub struct QuarantinedPoint {
    /// The organization whose evaluation failed.
    pub rf: RfOrganization,
    /// Its `xCy-Sz` name.
    pub name: String,
    /// The failed loop tasks (index = loop index in the suite, group = the
    /// engine group of the point's scheduling class), sorted.
    pub failures: Vec<TaskFailure>,
}

/// The outcome of an exploration sweep.
#[derive(Debug, Clone)]
pub struct ExploreOutcome {
    /// Evaluated points, in the input organization order. Quarantined
    /// points are absent here and listed in
    /// [`ExploreOutcome::quarantined`]; `points.len() + quarantined.len()`
    /// always equals the input organization count.
    pub points: Vec<PointResult>,
    /// Design points quarantined under [`FailurePolicy::Isolate`], in
    /// input order. Always empty under the default fail-fast policy.
    pub quarantined: Vec<QuarantinedPoint>,
    /// Cache counters of this run (hits + misses = points).
    pub cache: CacheStats,
    /// Fingerprint of the suite the points were evaluated on.
    pub suite_fingerprint: u64,
    /// Number of loops in that suite.
    pub suite_loops: usize,
    /// Wall-clock seconds of the whole sweep.
    pub wall_seconds: f64,
}

/// Evaluate `orgs` over `suite`, serving repeat points from `cache`.
pub fn explore(
    orgs: &[RfOrganization],
    suite: &[Loop],
    options: &ExploreOptions,
    cache: &mut ResultCache,
) -> ExploreOutcome {
    let telemetry = if options.progress {
        Telemetry::reporter(Verbosity::Progress)
    } else {
        Telemetry::disabled()
    };
    explore_traced(orgs, suite, options, cache, &telemetry)
}

/// [`explore`] with a telemetry sink: progress lines go through the handle's
/// verbosity knob, every design-point evaluation is recorded as a labeled
/// `design_point` span (cache hits as `cache_hit` instants), and sweep-level
/// counters land in the metrics registry under the `explore.` prefix.
pub fn explore_traced(
    orgs: &[RfOrganization],
    suite: &[Loop],
    options: &ExploreOptions,
    cache: &mut ResultCache,
    telemetry: &Telemetry,
) -> ExploreOutcome {
    let started = std::time::Instant::now();
    let stats_at_entry = cache.stats();
    let fingerprint = suite_fingerprint(suite);
    let run_options = options.run_options();
    let total = orgs.len();

    // Probe the cache for every point first. One shared counter numbers the
    // progress lines of hits and evaluations alike, so the `[n/total]`
    // sequence stays monotonic on a partially warm cache.
    let mut completed = 0usize;
    let mut hit_buf = telemetry.trace_buf();
    let mut points: Vec<Option<PointResult>> = Vec::with_capacity(total);
    let mut pending: Vec<(usize, ConfiguredMachine, CacheKey)> = Vec::new();
    for (index, rf) in orgs.iter().enumerate() {
        let configured = ConfiguredMachine::from_rf(*rf);
        let key = CacheKey::for_run(
            &configured.machine,
            fingerprint,
            &run_options.scheduler,
            options.scenario,
            options.max_simulated_iterations,
        );
        match cache.lookup(&key) {
            Some(cached) => {
                completed += 1;
                telemetry.progress(format!(
                    "[{completed:>3}/{total}] {:<10} cache hit",
                    cached.config
                ));
                hit_buf.instant_labeled("cache_hit", "explore", Some(&cached.config), &[]);
                points.push(Some(PointResult {
                    rf: *rf,
                    name: cached.config.clone(),
                    aggregate: cached.aggregate,
                    clock_ns: cached.clock_ns,
                    total_area: cached.total_area,
                    scheduling_seconds: cached.scheduling_seconds,
                    from_cache: true,
                }));
            }
            None => {
                points.push(None);
                pending.push((index, configured, key));
            }
        }
    }

    // Evaluate the misses on the engine: every scheduling class is a task
    // group whose inner tasks are the suite's loops, each class's points are
    // persisted to the cache on this thread as they land (before any worker
    // panic would propagate), and the per-point folds run over index-ordered
    // loop results so aggregates are thread-count-invariant.
    let params = run_options.scheduler_params();
    let schedulers: Vec<IterativeScheduler> = pending
        .iter()
        .map(|(_, configured, _)| {
            IterativeScheduler::new(configured.machine.clone(), params)
                .with_telemetry(telemetry.clone())
        })
        .collect();
    let classes = class_groups(&schedulers);
    let mut engine = Engine::new(options.threads)
        .with_telemetry(telemetry.clone())
        .with_failure_policy(options.failure);
    if let Some(plan) = options.fault_plan {
        engine = engine.with_fault_plan(plan);
    }
    let sweep_t0 = hit_buf.now_ns();
    telemetry.flush(&mut hit_buf);
    let progress = AtomicUsize::new(completed);
    let evaluate_loop = |pool: &mut ArenaPool, ctx: hcrf_engine::TaskCtx| -> Vec<PairRun> {
        let l = &suite[ctx.index];
        let mut runs: Vec<(ScheduleResult, PhaseTimings)> = Vec::new();
        let mut pairs = Vec::with_capacity(classes[ctx.group].len());
        for &p in &classes[ctx.group] {
            let (_, configured, _) = &pending[p];
            let t0 = telemetry.trace_buf().now_ns();
            let served = runs
                .iter()
                .position(|(r, _)| r.window.covers(&configured.machine));
            let k = served.unwrap_or_else(|| {
                runs.push(schedulers[p].schedule_with_timings_pooled(&l.ddg, pool));
                runs.len() - 1
            });
            let (schedule, phases) = &runs[k];
            let performance = measure_loop_traced(
                schedule,
                configured,
                l,
                ctx.index,
                &run_options,
                telemetry,
                ctx.worker,
                t0,
            );
            pairs.push(PairRun {
                performance,
                phases: *phases,
                served: served.is_some(),
            });
        }
        pairs
    };
    let fold_class = |g: usize, loops: Vec<Vec<PairRun>>| -> Vec<PointResult> {
        let served = loops.iter().flatten().filter(|r| r.served).count();
        telemetry.counter_add("explore.shared_pairs", served as u64);
        classes[g]
            .iter()
            .enumerate()
            .map(|(m, &p)| {
                let (_, configured, _) = &pending[p];
                let (aggregate, phases) = fold_aggregate(
                    configured,
                    loops
                        .iter()
                        .map(|pairs| (&pairs[m].performance, &pairs[m].phases)),
                );
                let result = PointResult {
                    rf: configured.machine.rf,
                    name: configured.name(),
                    aggregate,
                    clock_ns: configured.hardware.clock_ns,
                    total_area: configured.hardware.total_area,
                    scheduling_seconds: phases.total().as_secs_f64(),
                    from_cache: false,
                };
                let mut buf = telemetry.trace_buf();
                buf.span_labeled(
                    "design_point",
                    "explore",
                    sweep_t0,
                    Some(&result.name),
                    &[
                        ("sum_ii", result.aggregate.sum_ii as i64),
                        ("loops", result.aggregate.loops as i64),
                        ("failed", result.aggregate.failed_loops as i64),
                    ],
                );
                telemetry.flush(&mut buf);
                let finished = progress.fetch_add(1, Ordering::Relaxed) + 1;
                telemetry.progress(format!(
                    "[{finished:>3}/{total}] {:<10} evaluated in {:.2}s (ΣII {}, {} loops)",
                    result.name,
                    result.scheduling_seconds,
                    result.aggregate.sum_ii,
                    result.aggregate.loops,
                ));
                result
            })
            .collect()
    };
    let group_sizes = vec![suite.len(); classes.len()];
    let run = engine.run_two_level(
        &group_sizes,
        |_| ArenaPool::new(),
        evaluate_loop,
        fold_class,
        |g, results| {
            for (&p, result) in classes[g].iter().zip(results) {
                let cached = CachedResult {
                    config: result.name.clone(),
                    aggregate: result.aggregate.clone(),
                    clock_ns: result.clock_ns,
                    total_area: result.total_area,
                    scheduling_seconds: result.scheduling_seconds,
                };
                if let Err(e) = cache.store(&pending[p].2, &cached) {
                    telemetry.warn(format!("failed to cache {}: {e}", result.name));
                }
            }
        },
    );
    if telemetry.is_enabled() {
        let rebinds: u64 = run.states.iter().map(|p| p.rebinds()).sum();
        telemetry.counter_add("engine.arena_rebinds", rebinds);
    }
    // A `None` group result is a quarantined class (isolate policy only):
    // its points stay out of `points` and land in the failure manifest, each
    // with the class's failed loop tasks. `run.quarantined` is sorted by
    // (group, index), so per-point failure lists come out sorted by loop
    // index; the manifest is sorted into input order.
    let mut quarantined: Vec<(usize, QuarantinedPoint)> = Vec::new();
    for (g, result) in run.results.into_iter().enumerate() {
        match result {
            Some(results) => {
                for (&p, result) in classes[g].iter().zip(results) {
                    points[pending[p].0] = Some(result);
                }
            }
            None => {
                let failures: Vec<TaskFailure> = run
                    .quarantined
                    .iter()
                    .filter(|f| f.group == g)
                    .cloned()
                    .collect();
                for &p in &classes[g] {
                    let (index, configured, _) = &pending[p];
                    quarantined.push((
                        *index,
                        QuarantinedPoint {
                            rf: configured.machine.rf,
                            name: configured.name(),
                            failures: failures.clone(),
                        },
                    ));
                }
            }
        }
    }
    quarantined.sort_by_key(|(index, _)| *index);
    let quarantined: Vec<QuarantinedPoint> = quarantined.into_iter().map(|(_, q)| q).collect();
    for q in &quarantined {
        telemetry.warn(format!(
            "{}: quarantined ({} loop task(s) kept panicking)",
            q.name,
            q.failures.len()
        ));
    }

    let cache_stats = cache.stats().since(&stats_at_entry);
    let wall_seconds = started.elapsed().as_secs_f64();
    if telemetry.is_enabled() {
        telemetry.counter_add("explore.points", total as u64);
        telemetry.counter_add("explore.cache_hits", cache_stats.hits);
        telemetry.counter_add("explore.cache_misses", cache_stats.misses);
        telemetry.counter_add("explore.points_quarantined", quarantined.len() as u64);
        telemetry.gauge_set("explore.wall_seconds", wall_seconds);
    }
    let points: Vec<PointResult> = points.into_iter().flatten().collect();
    assert_eq!(
        points.len() + quarantined.len(),
        total,
        "every design point must be either evaluated or quarantined"
    );
    ExploreOutcome {
        points,
        quarantined,
        cache: cache_stats,
        suite_fingerprint: fingerprint,
        suite_loops: suite.len(),
        wall_seconds,
    }
}

/// One (loop, design point) pair of a class's loop task: what the point's
/// fold reads. The schedule itself stays on the worker that produced it.
struct PairRun {
    performance: LoopPerformance,
    /// The phase times of the schedule that served the pair: its own, or
    /// the earlier point's whose window covered it.
    phases: PhaseTimings,
    /// Whether an earlier point's schedule served the pair.
    served: bool,
}

/// The pending points grouped by scheduling class: groups in the order of
/// their first point, each group's points by descending bank capacities
/// (cluster bank first), so the largest capacity is scheduled first.
fn class_groups(schedulers: &[IterativeScheduler]) -> Vec<Vec<usize>> {
    let mut keys: Vec<MachineConfig> = Vec::new();
    let mut groups: Vec<Vec<usize>> = Vec::new();
    for (p, scheduler) in schedulers.iter().enumerate() {
        let key = scheduler.class_key();
        match keys.iter().position(|k| *k == key) {
            Some(g) => groups[g].push(p),
            None => {
                keys.push(key);
                groups.push(vec![p]);
            }
        }
    }
    for members in &mut groups {
        members.sort_by_key(|&p| {
            let m = schedulers[p].machine();
            Reverse((m.cluster_regs(), m.shared_regs()))
        });
    }
    groups
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::DesignSpace;
    use hcrf_workloads::small_suite;

    fn tiny_space() -> Vec<RfOrganization> {
        ["S64", "4C32", "4C32S16"]
            .iter()
            .map(|n| RfOrganization::parse(n).unwrap())
            .collect()
    }

    #[test]
    fn explores_without_a_cache_directory() {
        let suite = small_suite(0);
        let orgs = tiny_space();
        let mut cache = ResultCache::disabled();
        let outcome = explore(&orgs, &suite, &ExploreOptions::default(), &mut cache);
        assert_eq!(outcome.points.len(), 3);
        assert_eq!(outcome.cache.hits, 0);
        assert_eq!(outcome.cache.misses, 3);
        for p in &outcome.points {
            assert!(!p.from_cache);
            assert!(p.aggregate.sum_ii > 0);
            assert!(p.clock_ns > 0.0);
            assert_eq!(p.aggregate.failed_loops, 0, "{}", p.name);
        }
        // Results come back in input order.
        let names: Vec<&str> = outcome.points.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(names, vec!["S64", "4C32", "4C32S16"]);
    }

    #[test]
    fn second_run_is_served_from_cache_and_agrees() {
        let dir =
            std::env::temp_dir().join(format!("hcrf-explore-exec-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let suite = small_suite(0);
        let orgs = tiny_space();
        let options = ExploreOptions::default();

        let mut cache = ResultCache::open(&dir).unwrap();
        let first = explore(&orgs, &suite, &options, &mut cache);
        assert_eq!(first.cache.misses, 3);

        let mut cache = ResultCache::open(&dir).unwrap();
        let second = explore(&orgs, &suite, &options, &mut cache);
        assert_eq!(second.cache.hits, 3);
        assert_eq!(second.cache.misses, 0);
        assert!((second.cache.hit_rate() - 1.0).abs() < 1e-12);
        for (a, b) in first.points.iter().zip(second.points.iter()) {
            assert!(b.from_cache);
            assert_eq!(a.aggregate, b.aggregate, "{} changed across runs", a.name);
            assert_eq!(a.total_area, b.total_area);
        }
        // A further sweep on the SAME cache session reports per-run counters
        // (hits + misses = points), not cumulative session totals.
        let third = explore(&orgs, &suite, &options, &mut cache);
        assert_eq!(third.cache.hits, 3);
        assert_eq!(third.cache.misses, 0);
        assert!((third.cache.hit_rate() - 1.0).abs() < 1e-12);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// `run_options` takes the real-memory rule from
    /// `RunOptions::with_real_memory`. Every default-space key must stay
    /// what the hand-written rule (`binding_prefetch` on, `keep_schedule`
    /// untouched) produced, or existing stores would stop hitting.
    #[test]
    fn run_options_keep_every_default_space_key() {
        for scenario in [Scenario::Ideal, Scenario::Real] {
            let options = ExploreOptions {
                scenario,
                ..Default::default()
            };
            let run = options.run_options();
            assert_eq!(run.real_memory, scenario == Scenario::Real);
            let mut by_hand = options.scheduler;
            by_hand.binding_prefetch |= scenario == Scenario::Real;
            for rf in DesignSpace::default().enumerate() {
                let machine = ConfiguredMachine::from_rf(rf).machine;
                let key = |params: &SchedulerParams| {
                    CacheKey::for_run(&machine, 7, params, scenario, 64).digest()
                };
                assert_eq!(key(&run.scheduler), key(&by_hand), "{rf} {scenario}");
            }
        }
    }

    #[test]
    fn cold_sweep_and_compaction_leave_only_the_segment() {
        let dir =
            std::env::temp_dir().join(format!("hcrf-explore-layout-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let orgs = tiny_space();
        let mut cache = ResultCache::open(&dir).unwrap();
        let cold = explore(
            &orgs,
            &small_suite(0),
            &ExploreOptions::default(),
            &mut cache,
        );
        assert_eq!(cold.cache.stores, orgs.len() as u64);
        cache.compact().unwrap();
        drop(cache);
        let files: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(files, ["results.seg"]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn scenario_and_suite_changes_invalidate_entries() {
        let dir = std::env::temp_dir().join(format!(
            "hcrf-explore-invalidate-test-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let orgs: Vec<RfOrganization> = vec![RfOrganization::parse("S64").unwrap()];
        let suite = small_suite(0);
        let ideal = ExploreOptions::default();
        let mut cache = ResultCache::open(&dir).unwrap();
        explore(&orgs, &suite, &ideal, &mut cache);

        // Same everything but the real-memory scenario: a miss.
        let real = ExploreOptions {
            scenario: Scenario::Real,
            ..ideal
        };
        let mut cache = ResultCache::open(&dir).unwrap();
        let outcome = explore(&orgs, &suite, &real, &mut cache);
        assert_eq!(outcome.cache.misses, 1);
        assert!(outcome.points[0].aggregate.stall_cycles > 0);

        // A different suite: also a miss.
        let bigger = small_suite(4);
        let mut cache = ResultCache::open(&dir).unwrap();
        let outcome = explore(&orgs, &bigger, &ideal, &mut cache);
        assert_eq!(outcome.cache.misses, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn generator_space_runs_end_to_end() {
        // A thin slice of the generated space (few loops, single thread) to
        // keep the test fast while exercising generator → executor wiring.
        let space = DesignSpace {
            bank_sizes: vec![32, 64],
            max_total_regs: 128,
            ..Default::default()
        };
        let orgs = space.enumerate();
        assert!(orgs.len() >= 6);
        let suite = small_suite(0);
        let mut cache = ResultCache::disabled();
        let outcome = explore(&orgs[..4], &suite, &ExploreOptions::default(), &mut cache);
        assert_eq!(outcome.points.len(), 4);
        assert_eq!(outcome.suite_loops, suite.len());
    }
}
