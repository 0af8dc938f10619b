//! The decision-invisible fast paths must stay bit-identical to their
//! paper-literal counterparts:
//!
//! * the reference scheduler (`IterativeScheduler::with_reference`: a fresh
//!   arena per attempt, the linear victim scan and batch pressure
//!   snapshots) schedules the standard, churn and wide suites across four
//!   machine configurations to results — and therefore `SuiteAggregate`s —
//!   bit-identical to the default scheduler's, every work counter included;
//! * the reference also matches the default on `small_suite` across all
//!   15 Table 5 organizations, where the paper's numbers come from;
//! * the suites actually drive pressure refreshes and MRT row maintenance,
//!   and the always-zero `refresh_skips` counter stays zero.
//!
//! Each mechanism is also isolated by its own unit or property test: the
//! arena by `arena_reset_equals_fresh_build` and
//! `rebind_to_new_loop_and_machine_matches_fresh_build`, the victim search
//! by `slot_index_matches_scan_and_victim_policies_agree` and
//! `indexed_victim_matches_linear_scan`, and the tracker by
//! `incremental_pressure_matches_batch_oracle`.

mod common;

use common::{assert_bit_identical, churn_params, CONFIGS};
use hcrf::driver::ConfiguredMachine;
use hcrf::experiments::TABLE5_CONFIGS;
use hcrf_sched::{IterativeScheduler, SchedulerParams};
use hcrf_workloads::{churn_suite, small_suite, wide_window_suite};

#[test]
fn reference_bit_identical_to_default_small_suite() {
    assert_bit_identical(
        &small_suite(8),
        SchedulerParams::default(),
        "small_suite",
        &CONFIGS,
    );
}

#[test]
fn reference_bit_identical_to_default_churn_suite() {
    assert_bit_identical(&churn_suite(6), churn_params(), "churn_suite", &CONFIGS);
}

#[test]
fn reference_bit_identical_to_default_wide_suite() {
    assert_bit_identical(
        &wide_window_suite(6),
        SchedulerParams::default(),
        "wide_suite",
        &CONFIGS,
    );
}

#[test]
fn reference_bit_identical_to_default_on_table5_configs() {
    assert_bit_identical(
        &small_suite(8),
        SchedulerParams::default(),
        "small_suite",
        &TABLE5_CONFIGS,
    );
}

/// The churn suite must drive real pressure-tracker refreshes and MRT row
/// maintenance, and the tracker, which rescans every refresh request, must
/// report no skips.
#[test]
fn churn_suite_drives_refreshes_and_row_updates() {
    let cfg = ConfiguredMachine::from_name("4C16S64").unwrap();
    let sched = IterativeScheduler::new(cfg.machine.clone(), churn_params());
    let mut refreshes = 0u64;
    let mut skips = 0u64;
    let mut fused = 0u64;
    for l in churn_suite(6) {
        let r = sched.schedule(&l.ddg);
        refreshes += r.stats.pressure_refreshes;
        skips += r.stats.refresh_skips;
        fused += r.stats.fused_row_updates;
    }
    assert!(refreshes > 0, "churn suite drove no pressure refreshes");
    assert_eq!(skips, 0, "the tracker skipped a refresh request");
    assert!(fused > 0, "churn suite drove no MRT row updates");
}
