//! The two decision-changing ladder policies must never cost schedule
//! quality, and the warm remap must never corrupt the placement store.
//!
//! Unlike the bit-identical oracle suites (`oracle_equivalence`,
//! `engine_equivalence`), warm starts and rung skipping deliberately change
//! scheduling decisions: a warm-seeded rung can succeed where a cold attempt
//! fails, and a skipped rung is never attempted. The contracts are:
//!
//! * **relaxed ladder contract** — against the paper-literal
//!   [`IterativeScheduler::with_cold_attempts`] oracle, the warm ladder's
//!   final II is never *higher* (a failed warm attempt never advances the
//!   ladder on its own: the rung is retried cold, and attempts are
//!   Markovian in the II after a reset), and the warm ladder never fails a
//!   loop the cold ladder can schedule — the converse is allowed, since a
//!   warm-seeded rung succeeding where every cold attempt fails is a strict
//!   improvement (it happens on the churn family) — asserted per loop on
//!   the standard, churn and wide suites across the four standard machine
//!   configurations, plus on the suite `sum_ii` aggregates;
//! * **skipping ladder contract** — on cold attempts, the budget-aware
//!   skipping ladder never lands on a higher final II than the
//!   [`IterativeScheduler::with_unit_ladder`] oracle and agrees with it on
//!   failure;
//! * **store integrity** — after every explicit
//!   [`AttemptArena::capture_warm_snapshot`] + [`AttemptArena::reset_warm`]
//!   round trip, `validate_store` (slot-index scan, MRT replay and
//!   `Mrt::check_fu_free`) passes, every retained node still satisfies its
//!   active dependence windows, and every active node is either retained or
//!   back on the worklist.

use hcrf::driver::ConfiguredMachine;
use hcrf_ir::{OpKind, OpLatencies};
use hcrf_sched::{validate_store, AttemptArena, IterativeScheduler, SchedulerParams};
use hcrf_telemetry::Telemetry;
use hcrf_workloads::{churn_suite, small_suite, wide_window_suite};

const CONFIGS: [&str; 4] = ["S128", "4C32S16", "8C16S16", "4C16S64"];

fn churn_params() -> SchedulerParams {
    SchedulerParams {
        max_ii: 256,
        ..Default::default()
    }
}

#[test]
fn warm_ladder_never_lands_on_higher_final_ii() {
    let suites: [(&str, Vec<hcrf_ir::Loop>, SchedulerParams); 3] = [
        ("small_suite", small_suite(8), SchedulerParams::default()),
        ("churn_suite", churn_suite(6), churn_params()),
        (
            "wide_suite",
            wide_window_suite(6),
            SchedulerParams::default(),
        ),
    ];
    let mut warm_starts_seen = 0u64;
    for (suite_name, loops, params) in &suites {
        for name in CONFIGS {
            let cfg = ConfiguredMachine::from_name(name).unwrap();
            let warm = IterativeScheduler::new(cfg.machine.clone(), *params);
            let cold = IterativeScheduler::new(cfg.machine.clone(), *params).with_cold_attempts();
            let mut sum_warm = 0u64;
            let mut sum_cold = 0u64;
            for l in loops {
                let a = warm.schedule(&l.ddg);
                let b = cold.schedule(&l.ddg);
                assert!(
                    a.ii <= b.ii,
                    "{suite_name} / {name} / {}: warm ladder landed on II {} above the \
                     cold ladder's {}",
                    l.ddg.name,
                    a.ii,
                    b.ii
                );
                assert!(
                    !a.failed || b.failed,
                    "{suite_name} / {name} / {}: warm ladder failed a loop the cold \
                     ladder schedules",
                    l.ddg.name
                );
                assert_eq!(
                    b.stats.warm_starts, 0,
                    "{suite_name} / {name} / {}: cold oracle warm-started",
                    l.ddg.name
                );
                warm_starts_seen += a.stats.warm_starts as u64;
                sum_warm += a.ii as u64;
                sum_cold += b.ii as u64;
            }
            assert!(
                sum_warm <= sum_cold,
                "{suite_name}/{name}: warm sum_ii {sum_warm} above cold {sum_cold}"
            );
        }
    }
    assert!(
        warm_starts_seen > 0,
        "the suites exercised no warm starts at all"
    );
}

/// The budget-aware ladder skips rungs — on warm ladders as well as cold
/// ones — but re-checks the final gap from below on success, so it must
/// never land on a higher final II than the unit ladder. Both sides run
/// with cold attempts, so warm starts cannot mix into the comparison; since
/// both scan upward, "never higher" means the final IIs (and the failure
/// outcomes) are exactly equal on these suites.
#[test]
fn skipping_ladder_never_lands_on_higher_final_ii() {
    let suites: [(&str, Vec<hcrf_ir::Loop>, SchedulerParams); 3] = [
        ("small_suite", small_suite(8), SchedulerParams::default()),
        ("churn_suite", churn_suite(6), churn_params()),
        (
            "wide_suite",
            wide_window_suite(6),
            SchedulerParams::default(),
        ),
    ];
    for (suite_name, loops, params) in &suites {
        for name in CONFIGS {
            let cfg = ConfiguredMachine::from_name(name).unwrap();
            let skipping = IterativeScheduler::new(cfg.machine.clone(), *params)
                .with_cold_attempts()
                .with_telemetry(Telemetry::enabled());
            let unit = IterativeScheduler::new(cfg.machine.clone(), *params)
                .with_unit_ladder()
                .with_cold_attempts();
            for l in loops {
                let s = skipping.schedule(&l.ddg);
                let u = unit.schedule(&l.ddg);
                assert!(
                    s.ii <= u.ii,
                    "{suite_name} / {name} / {}: skipping ladder landed on II {} above the \
                     unit ladder's {}",
                    l.ddg.name,
                    s.ii,
                    u.ii
                );
                assert_eq!(
                    s.failed, u.failed,
                    "{suite_name} / {name} / {}: ladders disagree on failure",
                    l.ddg.name
                );
                // Every rung the unit ladder attempted was either attempted
                // or skipped by the skipping ladder (it may additionally
                // have attempted overshoot rungs above the final II).
                assert!(
                    s.stats.ii_restarts + s.stats.ii_skips >= u.stats.ii_restarts,
                    "{suite_name} / {name} / {}: skip accounting broken \
                     ({} restarts + {} skips < {} unit restarts)",
                    l.ddg.name,
                    s.stats.ii_restarts,
                    s.stats.ii_skips,
                    u.stats.ii_restarts
                );
            }
        }
    }
}

/// Drive explicit snapshot/remap round trips through the arena: greedy
/// resource-legal placements (deliberately *not* dependence-legal — the
/// remap must re-validate and drop violators itself) captured at one II and
/// remapped at several higher ones.
#[test]
fn warm_remap_keeps_the_store_valid() {
    let lat = OpLatencies::paper_baseline();
    for name in ["S128", "4C16S64"] {
        let cfg = ConfiguredMachine::from_name(name).unwrap();
        let clusters = cfg.machine.clusters();
        for l in churn_suite(4) {
            let mut arena = AttemptArena::new(&l.ddg, &cfg.machine);
            let ii0 = 4u32;
            arena.reset(ii0, &lat);
            let (w, store) = arena.parts_mut();
            let nodes: Vec<_> = w.active_nodes().collect();
            for &n in &nodes {
                let kind = w.ddg.node(n).kind;
                let cluster = if matches!(kind, OpKind::Load | OpKind::Store) {
                    0
                } else {
                    n.index() as u32 % clusters
                };
                let horizon = (0, 4 * ii0 as i64);
                if let Some(c) = store
                    .mrt()
                    .first_free_row_in(kind, cluster, horizon, true, &lat)
                {
                    store.place(w, n, c, cluster, &lat);
                }
            }
            let mut snap = Vec::new();
            arena.capture_warm_snapshot(&mut snap);
            assert!(!snap.is_empty(), "{name} / {}: nothing placed", l.ddg.name);
            for bump in [1u32, 2, 7] {
                let ii = ii0 + bump;
                let r = arena.reset_warm(ii, &lat, &snap, false);
                let tag = format!("{name} / {} at II {ii}", l.ddg.name);
                if let Err(diff) = validate_store(arena.store(), arena.workgraph(), &lat) {
                    panic!("{tag}: {diff}");
                }
                let w = arena.workgraph();
                let store = arena.store();
                let mut retained = 0u32;
                for n in w.active_nodes() {
                    if let Some((cycle, _)) = store.placement(n) {
                        retained += 1;
                        for (_, e) in w.active_pred_edges(n) {
                            if let Some((src_cycle, _)) = store.placement(e.src) {
                                let delay = w.edge_delay(e, &lat, false);
                                assert!(
                                    src_cycle + delay - (ii as i64) * e.distance as i64 <= cycle,
                                    "{tag}: retained {n} violates its window from {}",
                                    e.src
                                );
                            }
                        }
                    }
                }
                assert_eq!(
                    retained, r.retained,
                    "{tag}: reported retention diverges from the store"
                );
                // Remapping the same snapshot at the same II must be
                // deterministic: a second round trip retains the same count.
                let r2 = arena.reset_warm(ii, &lat, &snap, false);
                assert_eq!(r.retained, r2.retained, "{tag}: remap not deterministic");
                // Every active node is either retained or back on the
                // worklist, exactly once.
                let (w, store) = arena.parts_mut();
                let active = w.active_nodes().count() as u32;
                let mut queued = 0u32;
                while let Some(n) = store.pop_worklist() {
                    assert!(
                        w.is_active(n) && !store.is_placed(n),
                        "{tag}: worklist holds a placed or inactive node {n}"
                    );
                    queued += 1;
                }
                assert_eq!(
                    queued + r2.retained,
                    active,
                    "{tag}: worklist + retained do not cover the active nodes"
                );
            }
        }
    }
}
