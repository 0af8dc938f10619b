//! `SchedulerStats` bookkeeping invariants across warm starts, skip gaps
//! and arena resets. The warm-started ladder strides and skips like the
//! cold one, retrying failed warm probes cold at the same rung; the
//! budget-aware skipping's success-side gap re-scan converts skips back
//! into restarts; and the persistent arena counts resets per attempted
//! rung — the counters must stay consistent through all of it:
//!
//! * every attempt beyond a loop's first resets the arena, so
//!   `arena_resets == ii_restarts - 1` exactly (including warm attempts,
//!   cold retries, gap re-scan attempts, and identically in reference
//!   mode, which rebuilds the arena for every attempt);
//! * the ladder covers every rung from the MII to the final II either by
//!   attempting it or by skipping it, so
//!   `ii_restarts + ii_skips >= ii - mii + 1` for scheduled loops;
//! * `budget_exhausts` counts a subset of attempted rungs' failures;
//! * every warm start is seeded by a budget-limited failure
//!   (`warm_starts <= budget_exhausts`) and the first attempt is always
//!   cold (`warm_starts <= ii_restarts - 1`);
//! * the warm ladder strides and skips like the cold one (a failed warm
//!   probe is retried cold at the same rung, so a warm start adds one
//!   attempt to an already-covered rung), and at most one warm probe can
//!   succeed — the one that ends the ladder — which pins
//!   `ii_restarts + ii_skips >= rungs + warm_starts - 1` for scheduled
//!   loops;
//! * the cold-attempts oracle records no warm activity at all;
//! * the unit-ladder oracle under cold attempts never skips and attempts
//!   each rung exactly once.

use hcrf::driver::ConfiguredMachine;
use hcrf_sched::{IterativeScheduler, ScheduleResult, SchedulerParams};
use hcrf_workloads::{churn_suite, small_suite};

const CONFIGS: [&str; 4] = ["S128", "4C32S16", "8C16S16", "4C16S64"];

fn churn_params() -> SchedulerParams {
    SchedulerParams {
        max_ii: 256,
        ..SchedulerParams::default().without_schedule()
    }
}

fn assert_invariants(r: &ScheduleResult, tag: &str) {
    let s = &r.stats;
    assert!(s.ii_restarts >= 1, "{tag}: no II was ever attempted");
    assert_eq!(
        s.arena_resets,
        s.ii_restarts - 1,
        "{tag}: every attempt beyond the first must reset the arena \
         (restarts {}, resets {})",
        s.ii_restarts,
        s.arena_resets
    );
    assert!(
        s.budget_exhausts <= s.ii_restarts,
        "{tag}: budget exhausts ({}) exceed attempted rungs ({})",
        s.budget_exhausts,
        s.ii_restarts
    );
    assert!(
        s.warm_starts <= s.budget_exhausts,
        "{tag}: every warm start must be seeded by a budget-limited failure \
         (warm starts {}, budget exhausts {})",
        s.warm_starts,
        s.budget_exhausts
    );
    if s.warm_starts > 0 {
        assert!(
            s.warm_starts < s.ii_restarts,
            "{tag}: the first attempt is always cold \
             (warm starts {}, restarts {})",
            s.warm_starts,
            s.ii_restarts
        );
    }
    if s.warm_starts == 0 {
        assert_eq!(
            s.warm_nodes_retained, 0,
            "{tag}: retained nodes without a warm start"
        );
    }
    if !r.failed {
        // Every rung in [mii, ii] was either attempted or skipped; the gap
        // re-scan moves rungs from the skip column to the restart column
        // without losing any.
        let rungs = (r.ii - r.mii.max(1)) as u64 + 1;
        assert!(
            s.ii_restarts as u64 + s.ii_skips as u64 >= rungs,
            "{tag}: {} restarts + {} skips cannot cover the {} ladder rungs \
             from MII {} to II {}",
            s.ii_restarts,
            s.ii_skips,
            rungs,
            r.mii,
            r.ii
        );
    }
}

/// Invariants specific to the default (warm-started) ladder.
///
/// The warm ladder strides and skips just like the cold one, so the
/// rung-coverage bound lives in `assert_invariants`. What remains
/// warm-specific: a failed warm probe is retried cold at the same rung, so
/// each warm start adds one attempt to an already-covered rung, and at most
/// one warm probe can succeed — the one that ends the ladder. Together those
/// extend the coverage bound by the warm-start count (minus that one
/// possible probe success).
fn assert_warm_invariants(r: &ScheduleResult, tag: &str) {
    let s = &r.stats;
    if !r.failed {
        let rungs = (r.ii - r.mii.max(1)) as u64 + 1;
        let restarts = s.ii_restarts as u64;
        let skips = s.ii_skips as u64;
        let warm = s.warm_starts as u64;
        assert!(
            restarts + skips + 1 >= rungs + warm,
            "{tag}: every failed warm probe pays a cold retry on the same \
             rung, so coverage must grow with the warm starts \
             ({} restarts, {} skips, {} rungs, {} warm starts)",
            restarts,
            skips,
            rungs,
            warm
        );
    }
}

#[test]
fn counters_stay_consistent_under_warm_starts() {
    let mut warm_seen = 0u32;
    let mut retained_seen = 0u64;
    for name in CONFIGS {
        let cfg = ConfiguredMachine::from_name(name).unwrap();
        let sched = IterativeScheduler::new(cfg.machine.clone(), churn_params());
        for l in churn_suite(8) {
            let r = sched.schedule(&l.ddg);
            let tag = format!("churn / {name} / {}", l.ddg.name);
            assert_invariants(&r, &tag);
            assert_warm_invariants(&r, &tag);
            warm_seen += r.stats.warm_starts;
            retained_seen += r.stats.warm_nodes_retained;
        }
    }
    // The churn family exists to storm the ladder: if it no longer
    // warm-starts (or the warm starts retain nothing), the invariants above
    // test nothing.
    assert!(warm_seen > 0, "churn suite exercised no warm starts");
    assert!(retained_seen > 0, "warm starts retained no placements");
}

#[test]
fn counters_stay_consistent_under_skip_gaps() {
    let mut skipping_seen = 0u32;
    let mut exhausts_seen = 0u32;
    for name in CONFIGS {
        let cfg = ConfiguredMachine::from_name(name).unwrap();
        let sched =
            IterativeScheduler::new(cfg.machine.clone(), churn_params()).with_cold_attempts();
        for l in churn_suite(8) {
            let r = sched.schedule(&l.ddg);
            let tag = format!("cold churn / {name} / {}", l.ddg.name);
            assert_invariants(&r, &tag);
            assert_eq!(
                r.stats.warm_starts, 0,
                "{tag}: cold oracle recorded a warm start"
            );
            assert_eq!(
                r.stats.warm_nodes_retained, 0,
                "{tag}: cold oracle retained warm placements"
            );
            skipping_seen += r.stats.ii_skips;
            exhausts_seen += r.stats.budget_exhausts;
        }
    }
    // The churn family exists to storm the ladder: if the cold oracle no
    // longer skips or exhausts budgets anywhere, the invariants above test
    // nothing.
    assert!(skipping_seen > 0, "churn suite exercised no skip gaps");
    assert!(
        exhausts_seen > 0,
        "churn suite exercised no budget exhausts"
    );
}

#[test]
fn counters_stay_consistent_on_the_standard_suite() {
    let params = SchedulerParams::default().without_schedule();
    for name in CONFIGS {
        let cfg = ConfiguredMachine::from_name(name).unwrap();
        let sched = IterativeScheduler::new(cfg.machine.clone(), params);
        for l in small_suite(8) {
            let r = sched.schedule(&l.ddg);
            let tag = format!("standard / {name} / {}", l.ddg.name);
            assert_invariants(&r, &tag);
            assert_warm_invariants(&r, &tag);
        }
    }
}

#[test]
fn reference_mode_counts_resets_identically() {
    let cfg = ConfiguredMachine::from_name("4C16S64").unwrap();
    let default = IterativeScheduler::new(cfg.machine.clone(), churn_params());
    let reference = IterativeScheduler::new(cfg.machine.clone(), churn_params()).with_reference();
    for l in churn_suite(8) {
        let a = default.schedule(&l.ddg);
        let b = reference.schedule(&l.ddg);
        assert_eq!(
            a.stats, b.stats,
            "{}: reference mode changed the recorded stats",
            l.ddg.name
        );
        assert_invariants(&b, &format!("reference / {}", l.ddg.name));
    }
}

#[test]
fn unit_ladder_never_skips_and_walks_every_rung() {
    let cfg = ConfiguredMachine::from_name("4C16S64").unwrap();
    let unit = IterativeScheduler::new(cfg.machine.clone(), churn_params())
        .with_unit_ladder()
        .with_cold_attempts();
    for l in churn_suite(8) {
        let r = unit.schedule(&l.ddg);
        assert_eq!(
            r.stats.ii_skips, 0,
            "{}: the unit ladder must not skip",
            l.ddg.name
        );
        if !r.failed {
            assert_eq!(
                r.stats.ii_restarts as u64,
                (r.ii - r.mii.max(1)) as u64 + 1,
                "{}: the unit ladder attempts each rung exactly once",
                l.ddg.name
            );
        }
        assert_invariants(&r, &format!("unit / {}", l.ddg.name));
    }
}
