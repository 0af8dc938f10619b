//! Chaos drills for the fault-tolerant explore runtime.
//!
//! A seeded [`FaultPlan`] injects task panics into the engine and write
//! truncation / record corruption into the result store, and the tests
//! require graceful degradation end to end:
//!
//! * a faulted sweep under [`FailurePolicy::Isolate`] completes: points
//!   whose loop tasks keep panicking are quarantined (and listed in the
//!   Pareto report's failure manifest) while every other point evaluates
//!   bit-identically to a never-faulted run;
//! * the quarantine set is exactly what the plan predicts — fault decisions
//!   key on task identity, never on workers or timing, so the same drill is
//!   bit-identical at 1, 2 and 4 workers;
//! * completed points persist across the injected store faults: a fault-free
//!   rerun over the surviving cache serves the clean appends as hits,
//!   re-evaluates the damaged ones, and its results are bit-identical to a
//!   run that never saw a fault;
//! * a loop task serves every point of its scheduling class, so a task that
//!   keeps panicking quarantines each of the class's points, each with the
//!   class's failure list, and leaves other classes untouched;
//! * a plan with all rates at zero is a no-op.

use hcrf::driver::{suite_fingerprint, ConfiguredMachine};
use hcrf_engine::{FailurePolicy, FaultPlan};
use hcrf_explore::{build_report, explore, CacheKey, ExploreOptions, ExploreOutcome, ResultCache};
use hcrf_ir::Loop;
use hcrf_machine::RfOrganization;
use hcrf_sched::IterativeScheduler;
use hcrf_workloads::small_suite;
use std::path::PathBuf;

const CONFIGS: [&str; 4] = ["S128", "4C32S16", "8C16S16", "4C16S64"];

fn orgs() -> Vec<RfOrganization> {
    CONFIGS
        .iter()
        .map(|n| RfOrganization::parse(n).unwrap())
        .collect()
}

/// The drill plan. The seed was picked (by the `#[ignore]`d
/// `find_drill_seed` searcher below) so that over `small_suite(0)` and
/// [`CONFIGS`] every recovery path fires: one point quarantined, one
/// completed append persisted cleanly, one truncated, one corrupted, and a
/// transient panic retried to success. Retune with the searcher if the
/// suite or the configs change.
fn drill_plan() -> FaultPlan {
    FaultPlan {
        seed: 0x2170,
        transient_task_panics_per_mille: 150,
        permanent_task_panics_per_mille: 60,
        truncated_writes_per_mille: 250,
        corrupt_records_per_mille: 250,
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hcrf-fault-drill-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Loop indices of point `g` the plan predicts will exhaust `retries`
/// attempts: with transient faults hitting only attempt 0, a task is
/// quarantined under `retries >= 1` exactly when its permanent fault fires.
fn predicted_failed_loops(plan: &FaultPlan, group: usize, loops: usize) -> Vec<usize> {
    (0..loops)
        .filter(|&i| plan.panics_task(group as u64, i as u64, 1))
        .collect()
}

/// The cache key of point `g`, as the executor computes it.
fn point_key(org: RfOrganization, suite: &[Loop], options: &ExploreOptions) -> CacheKey {
    let configured = ConfiguredMachine::from_rf(org);
    CacheKey::for_run(
        &configured.machine,
        suite_fingerprint(suite),
        &options.run_options().scheduler,
        options.scenario,
        options.max_simulated_iterations,
    )
}

/// `S64` and `S32` share a scheduling class, so the executor evaluates
/// them as one engine group (group 0, the class of the first point) whose
/// loop tasks serve both; `4C32S16` is a class of its own (group 1). A
/// permanent fault in one of group 0's loop tasks quarantines both
/// siblings, each with the same failure list, at every worker count.
#[test]
fn panicking_class_task_quarantines_every_point_of_the_class() {
    let suite = small_suite(0);
    let orgs: Vec<RfOrganization> = ["S64", "4C32S16", "S32"]
        .iter()
        .map(|n| RfOrganization::parse(n).unwrap())
        .collect();
    let params = ExploreOptions::default().run_options().scheduler_params();
    let key = |rf: RfOrganization| {
        IterativeScheduler::new(ConfiguredMachine::from_rf(rf).machine, params).class_key()
    };
    assert_eq!(key(orgs[0]), key(orgs[2]), "S64 and S32 must be siblings");
    assert_ne!(key(orgs[0]), key(orgs[1]));

    // The first plan seed that faults group 0 (the siblings) for good and
    // leaves group 1 alone.
    let plan = (1u64..)
        .map(|seed| FaultPlan {
            seed,
            permanent_task_panics_per_mille: 40,
            ..Default::default()
        })
        .find(|plan| {
            !predicted_failed_loops(plan, 0, suite.len()).is_empty()
                && predicted_failed_loops(plan, 1, suite.len()).is_empty()
        })
        .unwrap();
    let predicted = predicted_failed_loops(&plan, 0, suite.len());
    let baseline = explore(
        &orgs,
        &suite,
        &ExploreOptions::default(),
        &mut ResultCache::disabled(),
    );
    for threads in [1, 2, 4] {
        let options = ExploreOptions {
            threads,
            failure: FailurePolicy::Isolate { retries: 1 },
            fault_plan: Some(plan),
            ..Default::default()
        };
        let outcome = explore(&orgs, &suite, &options, &mut ResultCache::disabled());
        let names: Vec<&str> = outcome
            .quarantined
            .iter()
            .map(|q| q.name.as_str())
            .collect();
        assert_eq!(names, ["S64", "S32"], "{threads} workers: input order");
        for q in &outcome.quarantined {
            let failed: Vec<usize> = q.failures.iter().map(|f| f.index).collect();
            assert_eq!(failed, predicted, "{}: failed loop set", q.name);
            assert!(q.failures.iter().all(|f| f.group == 0 && f.attempts == 2));
        }
        assert_eq!(outcome.points.len(), 1);
        assert_eq!(outcome.points[0].name, "4C32S16");
        assert_eq!(outcome.points[0].aggregate, baseline.points[1].aggregate);
    }
}

fn assert_outcomes_match(a: &ExploreOutcome, b: &ExploreOutcome, what: &str) {
    assert_eq!(a.points.len(), b.points.len(), "{what}: point count");
    for (x, y) in a.points.iter().zip(b.points.iter()) {
        assert_eq!(x.name, y.name, "{what}: point order");
        assert_eq!(x.rf, y.rf, "{what}: {}", x.name);
        assert_eq!(x.aggregate, y.aggregate, "{what}: {} aggregate", x.name);
        assert_eq!(x.clock_ns, y.clock_ns, "{what}: {} clock", x.name);
        assert_eq!(x.total_area, y.total_area, "{what}: {} area", x.name);
    }
}

#[test]
fn faulted_sweep_degrades_gracefully_and_rerun_matches_baseline() {
    let suite = small_suite(0);
    let orgs = orgs();
    let plan = drill_plan();
    let faulted_options = ExploreOptions {
        failure: FailurePolicy::Isolate { retries: 1 },
        fault_plan: Some(plan),
        ..Default::default()
    };

    // What the plan predicts for this suite. The drill needs both recovery
    // paths exercised: some points quarantined, some completed.
    let predicted: Vec<Vec<usize>> = (0..orgs.len())
        .map(|g| predicted_failed_loops(&plan, g, suite.len()))
        .collect();
    let quarantined_groups: Vec<usize> = (0..orgs.len())
        .filter(|&g| !predicted[g].is_empty())
        .collect();
    assert!(
        !quarantined_groups.is_empty() && quarantined_groups.len() < orgs.len(),
        "drill seed must quarantine some but not all points; got {quarantined_groups:?}"
    );

    // The reference: a sweep that never sees a fault.
    let baseline = explore(
        &orgs,
        &suite,
        &ExploreOptions::default(),
        &mut ResultCache::disabled(),
    );

    // The drill: engine faults via options, store faults via the cache.
    let dir = temp_dir("sweep");
    let mut cache = ResultCache::open(&dir).unwrap().with_fault_plan(plan);
    let faulted = explore(&orgs, &suite, &faulted_options, &mut cache);
    drop(cache);

    // Quarantine manifest is exactly the predicted set, in input order,
    // with per-loop failures sorted and attempt counts = retries + 1.
    assert_eq!(faulted.quarantined.len(), quarantined_groups.len());
    for (q, &g) in faulted.quarantined.iter().zip(quarantined_groups.iter()) {
        assert_eq!(q.name, CONFIGS[g], "quarantine order follows input order");
        let failed_loops: Vec<usize> = q.failures.iter().map(|f| f.index).collect();
        assert_eq!(failed_loops, predicted[g], "{}: failed loop set", q.name);
        for f in &q.failures {
            assert_eq!(f.attempts, 2, "{}: attempts = retries + 1", q.name);
            assert!(!f.message.is_empty());
        }
    }
    // The report's failure manifest lists the same points.
    let report = build_report(&faulted);
    let manifest: Vec<&str> = report.quarantined.iter().map(|q| q.name.as_str()).collect();
    let expected: Vec<&str> = faulted
        .quarantined
        .iter()
        .map(|q| q.name.as_str())
        .collect();
    assert_eq!(manifest, expected);

    // Every completed point is bit-identical to the never-faulted baseline.
    assert_eq!(faulted.points.len() + faulted.quarantined.len(), orgs.len());
    for p in &faulted.points {
        let b = baseline
            .points
            .iter()
            .find(|b| b.name == p.name)
            .expect("completed point exists in baseline");
        assert_eq!(
            p.aggregate, b.aggregate,
            "{}: degraded run diverged",
            p.name
        );
        assert_eq!(p.clock_ns, b.clock_ns);
        assert_eq!(p.total_area, b.total_area);
    }

    // Persistence: completed points whose append the plan left alone must
    // survive as cache hits; truncated or corrupted appends degrade into
    // re-evaluation — never a wrong result.
    let completed_digests: Vec<u64> = (0..orgs.len())
        .filter(|g| !quarantined_groups.contains(g))
        .map(|g| point_key(orgs[g], &suite, &faulted_options).digest())
        .collect();
    let persisted = completed_digests
        .iter()
        .filter(|&&d| !plan.truncates_write(d) && !plan.corrupts_record(d))
        .count();
    assert!(
        persisted >= 1,
        "drill seed must leave at least one clean append"
    );

    // Fault-free rerun over the surviving store: recovery quarantines the
    // injected corruption, the rerun fills the gaps, and the result is
    // bit-identical to the never-faulted baseline.
    let mut cache = ResultCache::open(&dir).unwrap();
    let rerun = explore(&orgs, &suite, &ExploreOptions::default(), &mut cache);
    drop(cache);
    assert!(rerun.quarantined.is_empty());
    assert_outcomes_match(&baseline, &rerun, "fault-free rerun");
    assert_eq!(rerun.cache.hits, persisted as u64, "surviving appends hit");
    assert_eq!(rerun.cache.misses, (orgs.len() - persisted) as u64);

    // After recovery + rerun the store is whole again: fsck is clean and a
    // third sweep is all hits.
    let fsck = ResultCache::fsck(&dir).unwrap();
    assert!(fsck.is_clean(), "{fsck:?}");
    assert_eq!(fsck.live_keys, orgs.len() as u64);
    let mut cache = ResultCache::open(&dir).unwrap();
    let warm = explore(&orgs, &suite, &ExploreOptions::default(), &mut cache);
    assert_eq!(warm.cache.hits, orgs.len() as u64);
    assert_eq!(warm.cache.misses, 0);
    assert_outcomes_match(&baseline, &warm, "warm sweep");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The same drill is bit-identical at every worker count: fault decisions
/// key on task identity, and retry/quarantine bookkeeping on the faulted
/// tasks alone, so neither the completed points nor the failure manifest
/// may depend on how work was distributed.
#[test]
fn faulted_sweep_is_bit_identical_across_thread_counts() {
    let suite = small_suite(0);
    let orgs = orgs();
    let plan = drill_plan();
    let run_at = |threads: usize| {
        let options = ExploreOptions {
            threads,
            failure: FailurePolicy::Isolate { retries: 1 },
            fault_plan: Some(plan),
            ..Default::default()
        };
        explore(&orgs, &suite, &options, &mut ResultCache::disabled())
    };
    let baseline = run_at(1);
    assert!(!baseline.quarantined.is_empty(), "drill must quarantine");
    for workers in [2, 4] {
        let outcome = run_at(workers);
        assert_outcomes_match(&baseline, &outcome, "faulted sweep");
        assert_eq!(
            outcome.quarantined.len(),
            baseline.quarantined.len(),
            "failure manifest size changed at {workers} workers"
        );
        for (a, b) in baseline.quarantined.iter().zip(outcome.quarantined.iter()) {
            assert_eq!(
                a.name, b.name,
                "manifest order changed at {workers} workers"
            );
            assert_eq!(
                a.failures, b.failures,
                "{}: failure list diverged at {workers} workers",
                a.name
            );
        }
    }
}

/// A plan with every rate at zero runs the injection seams without firing
/// them: the sweep is indistinguishable from one with no plan at all.
#[test]
fn zero_rate_plan_is_a_noop() {
    let suite = small_suite(0);
    let orgs = orgs();
    let baseline = explore(
        &orgs,
        &suite,
        &ExploreOptions::default(),
        &mut ResultCache::disabled(),
    );
    let options = ExploreOptions {
        failure: FailurePolicy::Isolate { retries: 1 },
        fault_plan: Some(FaultPlan {
            seed: 7,
            ..Default::default()
        }),
        ..Default::default()
    };
    let outcome = explore(&orgs, &suite, &options, &mut ResultCache::disabled());
    assert!(outcome.quarantined.is_empty());
    assert_outcomes_match(&baseline, &outcome, "zero-rate plan");
}

#[test]
#[ignore]
fn find_drill_seed() {
    let suite = small_suite(0);
    let orgs = orgs();
    let options = ExploreOptions::default();
    let digests: Vec<u64> = orgs
        .iter()
        .map(|&o| point_key(o, &suite, &options).digest())
        .collect();
    println!("suite loops: {}", suite.len());
    for seed in 0..200_000u64 {
        let plan = FaultPlan {
            seed,
            ..drill_plan()
        };
        let predicted: Vec<Vec<usize>> = (0..orgs.len())
            .map(|g| predicted_failed_loops(&plan, g, suite.len()))
            .collect();
        let quarantined: Vec<usize> = (0..orgs.len())
            .filter(|&g| !predicted[g].is_empty())
            .collect();
        if quarantined.is_empty() || quarantined.len() > 2 {
            continue;
        }
        let completed: Vec<usize> = (0..orgs.len())
            .filter(|g| !quarantined.contains(g))
            .collect();
        let persisted = completed
            .iter()
            .filter(|&&g| !plan.truncates_write(digests[g]) && !plan.corrupts_record(digests[g]))
            .count();
        let truncated = completed
            .iter()
            .filter(|&&g| plan.truncates_write(digests[g]))
            .count();
        let corrupted = completed
            .iter()
            .filter(|&&g| !plan.truncates_write(digests[g]) && plan.corrupts_record(digests[g]))
            .count();
        // Want every path exercised: some quarantined, some persisted, at
        // least one truncated and one corrupted append, and a transient
        // fault somewhere on a completed point.
        let transient = completed.iter().any(|&g| {
            (0..suite.len()).any(|i| {
                plan.panics_task(g as u64, i as u64, 0) && !plan.panics_task(g as u64, i as u64, 1)
            })
        });
        if persisted >= 1 && truncated >= 1 && corrupted >= 1 && transient {
            println!(
                "seed {seed:#x}: quarantined {quarantined:?} persisted {persisted} truncated {truncated} corrupted {corrupted}"
            );
            return;
        }
    }
    panic!("no seed found");
}
