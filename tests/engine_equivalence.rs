//! The execution engine must be thread-count-invisible: suite runs and
//! exploration sweeps produce bit-identical results for any worker count.
//!
//! The engine's deterministic reduction contract (results land in
//! index-order slots, folds walk them in a fixed order) is proven here by
//! running the standard, churn and wide suites across the four standard
//! machine configurations at 1/2/4/8 workers and requiring:
//!
//! * every per-loop `ScheduleResult` — placements, stats, everything — is
//!   bit-identical to the single-threaded baseline;
//! * the folded `SuiteAggregate`s are equal as whole values;
//! * `explore` points (name, organization, aggregate, hardware numbers)
//!   are invariant too, with only the timing fields allowed to differ,
//!   including on a space rich in sibling points whose loops are served
//!   from a capacity window (the count of served pairs is invariant too);
//! * the `engine.arena_rebinds` counter is positive, confirming that the
//!   per-worker `AttemptArena` pool actually engaged instead of silently
//!   rebuilding arenas from scratch.
//!
//! CI runs this suite several times with `HCRF_ENGINE_THREADS` pinned to a
//! single worker count per step; unset, every run compares 2/4/8 workers
//! against the 1-worker baseline.

use hcrf::driver::{run_suite_traced, ConfiguredMachine, RunOptions};
use hcrf_engine::FailurePolicy;
use hcrf_explore::{explore_traced, ExploreOptions, ResultCache};
use hcrf_ir::Loop;
use hcrf_machine::RfOrganization;
use hcrf_sched::SchedulerParams;
use hcrf_telemetry::Telemetry;
use hcrf_workloads::{churn_suite, small_suite, suite::suite, wide_window_suite, SuiteParams};

const CONFIGS: [&str; 4] = ["S128", "4C32S16", "8C16S16", "4C16S64"];

/// Worker counts compared against the 1-worker baseline. `HCRF_ENGINE_THREADS`
/// (comma-separated) restricts the set so CI can pin one count per step.
fn thread_counts() -> Vec<usize> {
    match std::env::var("HCRF_ENGINE_THREADS") {
        Ok(v) => v
            .split(',')
            .map(|s| s.trim().parse().expect("HCRF_ENGINE_THREADS: N[,N...]"))
            .collect(),
        Err(_) => vec![2, 4, 8],
    }
}

fn churn_params() -> SchedulerParams {
    SchedulerParams {
        max_ii: 256,
        ..Default::default()
    }
}

fn assert_suite_thread_invariant(loops: &[Loop], params: SchedulerParams, suite_name: &str) {
    let options = RunOptions {
        scheduler: params,
        ..Default::default()
    };
    for name in CONFIGS {
        let cfg = ConfiguredMachine::from_name(name).unwrap();
        // The baseline runs with live telemetry so the same pass also proves
        // enabled-vs-disabled bit-identity and lets us observe the pool.
        let telemetry = Telemetry::enabled();
        let baseline = run_suite_traced(&cfg, loops, &options.with_threads(1), &telemetry);
        let rebinds = telemetry
            .metrics_snapshot()
            .counter("engine.arena_rebinds")
            .unwrap_or(0);
        assert!(
            rebinds > 0,
            "{suite_name}/{name}: arena pool never rebound ({} loops) — pooling disengaged",
            loops.len()
        );
        for workers in thread_counts() {
            let run = run_suite_traced(
                &cfg,
                loops,
                &options.with_threads(workers),
                &Telemetry::disabled(),
            );
            assert_eq!(
                baseline.loops.len(),
                run.loops.len(),
                "{suite_name}/{name}: loop count changed at {workers} workers"
            );
            for (a, b) in baseline.loops.iter().zip(run.loops.iter()) {
                assert_eq!(
                    a.index, b.index,
                    "{suite_name}/{name}: loop order changed at {workers} workers"
                );
                // Full structural equality of the schedules: II, MaxLive per
                // bank, spills, placements, stats — everything.
                assert_eq!(
                    a.schedule, b.schedule,
                    "{suite_name}/{name}/loop {}: schedule diverged at {workers} workers",
                    a.index
                );
                assert_eq!(
                    a.performance, b.performance,
                    "{suite_name}/{name}/loop {}: performance diverged at {workers} workers",
                    a.index
                );
            }
            assert_eq!(
                baseline.aggregate, run.aggregate,
                "{suite_name}/{name}: aggregate diverged at {workers} workers"
            );
        }
    }
}

#[test]
fn suite_runs_bit_identical_across_thread_counts_small_suite() {
    assert_suite_thread_invariant(&small_suite(8), SchedulerParams::default(), "small_suite");
}

#[test]
fn suite_runs_bit_identical_across_thread_counts_churn_suite() {
    assert_suite_thread_invariant(&churn_suite(6), churn_params(), "churn_suite");
}

#[test]
fn suite_runs_bit_identical_across_thread_counts_wide_suite() {
    assert_suite_thread_invariant(
        &wide_window_suite(6),
        SchedulerParams::default(),
        "wide_suite",
    );
}

/// The two-level decomposition (points into loop tasks, taken by any
/// worker from one shared cursor) must leave every `PointResult`
/// invariant: only the timing fields may depend on how work was
/// distributed.
#[test]
fn explore_points_invariant_across_thread_counts() {
    let suite = small_suite(4);
    let orgs: Vec<RfOrganization> = CONFIGS
        .iter()
        .map(|n| RfOrganization::parse(n).unwrap())
        .collect();
    let run_at = |threads: usize| {
        let options = ExploreOptions {
            threads,
            ..Default::default()
        };
        // A fresh disabled cache per run: every point is genuinely
        // evaluated, never served from a previous thread count's results.
        let mut cache = ResultCache::disabled();
        explore_traced(&orgs, &suite, &options, &mut cache, &Telemetry::disabled())
    };
    let baseline = run_at(1);
    assert_eq!(baseline.points.len(), orgs.len());
    for workers in thread_counts() {
        let outcome = run_at(workers);
        assert_eq!(outcome.points.len(), baseline.points.len());
        for (a, b) in baseline.points.iter().zip(outcome.points.iter()) {
            assert_eq!(a.name, b.name, "point order changed at {workers} workers");
            assert_eq!(a.rf, b.rf);
            assert_eq!(
                a.aggregate, b.aggregate,
                "{}: aggregate diverged at {workers} workers",
                a.name
            );
            assert_eq!(a.clock_ns, b.clock_ns);
            assert_eq!(a.total_area, b.total_area);
            assert!(!a.from_cache && !b.from_cache);
        }
        assert_eq!(outcome.cache.misses, baseline.cache.misses);
    }
}

/// Sibling points (one scheduling class, different bank sizes) share their
/// loop tasks: a class's task serves a point from an earlier point's
/// capacity window. Which schedules are shared must not depend on the
/// worker count either. The space's classes are `S64`/`S32`/`S16`,
/// `1C32S64`/`1C16S16`, `2C16S128`/`2C16S64`/`2C16S32` and
/// `4C16S64`/`4C16S32`; the suite adds three spill storms of the default
/// suite to `small_suite`.
#[test]
fn explore_sibling_classes_invariant_across_thread_counts() {
    let mut loops = small_suite(0);
    loops.extend(
        suite(SuiteParams::default())
            .into_iter()
            .filter(|l| ["syn0220_fu", "syn0574_fu", "syn0187_fu"].contains(&l.ddg.name.as_str())),
    );
    let orgs: Vec<RfOrganization> = [
        "S64", "S32", "S16", "1C16S16", "1C32S64", "2C16S32", "2C16S64", "2C16S128", "4C16S32",
        "4C16S64",
    ]
    .iter()
    .map(|n| RfOrganization::parse(n).unwrap())
    .collect();
    let run_at = |threads: usize| {
        let options = ExploreOptions {
            threads,
            ..Default::default()
        };
        let telemetry = Telemetry::enabled();
        let outcome = explore_traced(
            &orgs,
            &loops,
            &options,
            &mut ResultCache::disabled(),
            &telemetry,
        );
        let served = telemetry
            .metrics_snapshot()
            .counter("explore.shared_pairs")
            .unwrap_or(0);
        (outcome, served)
    };
    let (baseline, baseline_served) = run_at(1);
    assert_eq!(baseline.points.len(), orgs.len());
    assert!(
        baseline_served > 0,
        "no pair was served from a sibling's window"
    );
    for workers in thread_counts() {
        let (outcome, served) = run_at(workers);
        assert_eq!(
            served, baseline_served,
            "served pairs changed at {workers} workers"
        );
        assert_eq!(outcome.points.len(), baseline.points.len());
        for (a, b) in baseline.points.iter().zip(outcome.points.iter()) {
            assert_eq!(a.name, b.name, "point order changed at {workers} workers");
            assert_eq!(a.rf, b.rf);
            assert_eq!(
                a.aggregate, b.aggregate,
                "{}: aggregate diverged at {workers} workers",
                a.name
            );
            assert_eq!(a.clock_ns, b.clock_ns);
            assert_eq!(a.total_area, b.total_area);
        }
    }
}

/// Switching on the isolate failure policy must be invisible when nothing
/// panics: suite results stay bit-identical to the fail-fast baseline at
/// every worker count, and no retry/quarantine bookkeeping leaks into the
/// `ScheduleResult`s or the folded `SuiteAggregate`.
#[test]
fn suite_results_identical_under_isolate_policy() {
    let loops = small_suite(4);
    let options = RunOptions::default();
    let isolate = options.with_failure(FailurePolicy::Isolate { retries: 2 });
    for name in CONFIGS {
        let cfg = ConfiguredMachine::from_name(name).unwrap();
        let baseline = run_suite_traced(
            &cfg,
            &loops,
            &options.with_threads(1),
            &Telemetry::disabled(),
        );
        assert!(baseline.quarantined.is_empty());
        let mut workers_under_test = vec![1];
        workers_under_test.extend(thread_counts());
        for workers in workers_under_test {
            let run = run_suite_traced(
                &cfg,
                &loops,
                &isolate.with_threads(workers),
                &Telemetry::disabled(),
            );
            assert!(
                run.quarantined.is_empty(),
                "{name}: fault-free isolate run quarantined tasks at {workers} workers"
            );
            assert_eq!(baseline.loops.len(), run.loops.len());
            for (a, b) in baseline.loops.iter().zip(run.loops.iter()) {
                assert_eq!(
                    a.schedule, b.schedule,
                    "{name}/loop {}: isolate policy changed the schedule at {workers} workers",
                    a.index
                );
                assert_eq!(a.performance, b.performance);
            }
            assert_eq!(
                baseline.aggregate, run.aggregate,
                "{name}: isolate policy changed the aggregate at {workers} workers"
            );
        }
    }
}

/// Same invariant one layer up: an exploration sweep under the isolate
/// policy matches the fail-fast sweep point for point, at every worker
/// count, with an empty failure manifest.
#[test]
fn explore_points_identical_under_isolate_policy() {
    let suite = small_suite(4);
    let orgs: Vec<RfOrganization> = CONFIGS
        .iter()
        .map(|n| RfOrganization::parse(n).unwrap())
        .collect();
    let run_at = |threads: usize, failure: FailurePolicy| {
        let options = ExploreOptions {
            threads,
            failure,
            ..Default::default()
        };
        let mut cache = ResultCache::disabled();
        explore_traced(&orgs, &suite, &options, &mut cache, &Telemetry::disabled())
    };
    let baseline = run_at(1, FailurePolicy::FailFast);
    let mut workers_under_test = vec![1];
    workers_under_test.extend(thread_counts());
    for workers in workers_under_test {
        let outcome = run_at(workers, FailurePolicy::Isolate { retries: 2 });
        assert!(
            outcome.quarantined.is_empty(),
            "fault-free isolate sweep quarantined points at {workers} workers"
        );
        assert_eq!(outcome.points.len(), baseline.points.len());
        for (a, b) in baseline.points.iter().zip(outcome.points.iter()) {
            assert_eq!(a.name, b.name, "point order changed at {workers} workers");
            assert_eq!(
                a.aggregate, b.aggregate,
                "{}: isolate policy changed the aggregate at {workers} workers",
                a.name
            );
            assert_eq!(a.clock_ns, b.clock_ns);
            assert_eq!(a.total_area, b.total_area);
        }
    }
}

/// The sweep-level engine pools arenas across design points too: one
/// telemetry-enabled exploration must report rebinds.
#[test]
fn explore_engages_the_arena_pool() {
    let suite = small_suite(2);
    let orgs: Vec<RfOrganization> = ["S64", "4C32"]
        .iter()
        .map(|n| RfOrganization::parse(n).unwrap())
        .collect();
    let telemetry = Telemetry::enabled();
    let mut cache = ResultCache::disabled();
    let outcome = explore_traced(
        &orgs,
        &suite,
        &ExploreOptions::default(),
        &mut cache,
        &telemetry,
    );
    assert_eq!(outcome.points.len(), 2);
    let rebinds = telemetry
        .metrics_snapshot()
        .counter("engine.arena_rebinds")
        .unwrap_or(0);
    assert!(
        rebinds > 0,
        "exploration never rebound a pooled arena across its loop tasks"
    );
}
