//! The decision-invisible fast paths must stay bit-identical to their
//! paper-literal oracles all together, not only one at a time:
//!
//! * the full [`Oracles::REFERENCE`] set schedules the standard, churn and
//!   wide suites across four machine configurations to results — and
//!   therefore `SuiteAggregate`s — bit-identical to the default scheduler's;
//! * the reference set also matches the default on `small_suite` across all
//!   15 Table 5 organizations, where the paper's numbers come from;
//! * the suites actually drive pressure refreshes and MRT row maintenance,
//!   and the always-zero `refresh_skips` counter stays zero.
//!
//! Each flag on its own is checked with the same harness (`tests/common`)
//! in the file of its mechanism: `ladder_equivalence` (`fresh_arena`),
//! `victim_equivalence` (`linear_victim_scan`) and `pressure_equivalence`
//! (`batch_pressure`).

mod common;

use common::{assert_bit_identical, churn_params, CONFIGS};
use hcrf::driver::ConfiguredMachine;
use hcrf::experiments::TABLE5_CONFIGS;
use hcrf_sched::{IterativeScheduler, Oracles, SchedulerParams};
use hcrf_workloads::{churn_suite, small_suite, wide_window_suite};

const REFERENCE: [(&str, Oracles); 1] = [("reference", Oracles::REFERENCE)];

#[test]
fn reference_bit_identical_to_default_small_suite() {
    assert_bit_identical(
        &small_suite(8),
        SchedulerParams::default(),
        "small_suite",
        &CONFIGS,
        &REFERENCE,
    );
}

#[test]
fn reference_bit_identical_to_default_churn_suite() {
    assert_bit_identical(
        &churn_suite(6),
        churn_params(),
        "churn_suite",
        &CONFIGS,
        &REFERENCE,
    );
}

#[test]
fn reference_bit_identical_to_default_wide_suite() {
    assert_bit_identical(
        &wide_window_suite(6),
        SchedulerParams::default(),
        "wide_suite",
        &CONFIGS,
        &REFERENCE,
    );
}

#[test]
fn reference_bit_identical_to_default_on_table5_configs() {
    assert_bit_identical(
        &small_suite(8),
        SchedulerParams::default(),
        "small_suite",
        &TABLE5_CONFIGS,
        &REFERENCE,
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
