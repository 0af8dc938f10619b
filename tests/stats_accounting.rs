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
//!   each rung exactly once;
//! * each attempt exit moves the counters its failure class implies: the
//!   budget exit and the spill-round limit count as budget exhausts and
//!   seed warm starts, a missing free slot without backtracking does
//!   neither and never gallops.

use hcrf::driver::ConfiguredMachine;
use hcrf_ir::{Ddg, DdgBuilder, OpKind};
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

/// A wide fan of long-lived values: twelve loads consumed late by a chain
/// of adds, which overflows a 16-register file at the first rungs.
fn pressure_loop() -> Ddg {
    let mut b = DdgBuilder::new("pressure");
    let defs: Vec<_> = (0..12).map(|i| b.load(i, 8)).collect();
    let mut prev = b.op(OpKind::FAdd);
    b.flow(defs[0], prev, 0);
    for d in &defs[1..] {
        let a = b.op(OpKind::FAdd);
        b.flow(prev, a, 0).flow(*d, a, 0);
        prev = a;
    }
    let s = b.store(30, 8);
    b.flow(prev, s, 0);
    b.build()
}

/// What a budget-limited failure implies: it counts in `budget_exhausts`
/// and seeds the next rung's warm start (a structural failure does neither).
fn assert_budget_classified(r: &ScheduleResult, tag: &str) {
    let s = &r.stats;
    assert!(s.budget_exhausts > 0, "{tag}: no budget-limited failure");
    assert!(s.warm_starts > 0, "{tag}: no warm start followed one");
}

#[test]
fn budget_exit_is_a_budget_failure() {
    // With one budget unit per node and no register bound, churn attempts
    // end in the budget exit: nodes left unplaced when the budget runs out.
    let cfg = ConfiguredMachine::from_name("Sinf").unwrap();
    let params = SchedulerParams {
        budget_ratio: 1,
        ..churn_params()
    };
    let sched = IterativeScheduler::new(cfg.machine.clone(), params);
    for l in churn_suite(4) {
        let r = sched.schedule(&l.ddg);
        let tag = format!("budget 1 / Sinf / {}", l.ddg.name);
        assert_budget_classified(&r, &tag);
        // On a monolithic machine a structural failure resets the gallop,
        // so skips left standing come from budget-limited streaks.
        assert!(r.stats.ii_skips > 0, "{tag}: no gallop over the rungs");
    }
}

#[test]
fn spill_limit_is_a_budget_failure() {
    // A budget far beyond the attempt's needs leaves the register file as
    // the only limit: the first rungs end when the spill rounds run out
    // with the bank still over capacity.
    let cfg = ConfiguredMachine::from_name("S16").unwrap();
    let params = SchedulerParams {
        budget_ratio: 1000,
        ..SchedulerParams::default()
    };
    let g = pressure_loop();
    let r = IterativeScheduler::new(cfg.machine.clone(), params).schedule(&g);
    assert!(!r.failed, "the pressure loop schedules on S16");
    assert_budget_classified(&r, "pressure / S16");
    // Cold and one rung at a time, every failed rung is budget-limited.
    let unit = IterativeScheduler::new(cfg.machine.clone(), params)
        .with_unit_ladder()
        .with_cold_attempts()
        .schedule(&g);
    assert!(unit.stats.ii_restarts > 1, "pressure / S16: no failed rung");
    assert_eq!(
        unit.stats.budget_exhausts,
        unit.stats.ii_restarts - 1,
        "pressure / S16: a failed rung was not budget-limited"
    );
}

#[test]
fn no_slot_exit_is_a_structural_failure() {
    // Without backtracking an op that finds no free slot ends the attempt.
    // With unbounded registers nothing else can: the budget never runs out
    // when nothing is ejected. A structural failure is no budget exhaust,
    // seeds no warm start and never gallops on a shallow attempt.
    let mut restarts = 0;
    for name in ["Sinf", "4CinfSinf", "8CinfSinf"] {
        let cfg = ConfiguredMachine::from_name(name).unwrap();
        let sched = IterativeScheduler::new(cfg.machine.clone(), SchedulerParams::baseline36());
        for l in small_suite(8) {
            let r = sched.schedule(&l.ddg);
            let tag = format!("baseline36 / {name} / {}", l.ddg.name);
            assert_invariants(&r, &tag);
            let s = &r.stats;
            assert_eq!(
                s.budget_exhausts, 0,
                "{tag}: budget exhaust without backtracking"
            );
            assert_eq!(
                s.warm_starts, 0,
                "{tag}: warm start after a structural failure"
            );
            assert_eq!(s.ii_skips, 0, "{tag}: gallop over structural failures");
            restarts += s.ii_restarts - 1;
        }
    }
    assert!(restarts > 0, "no attempt ran out of free slots");
}
