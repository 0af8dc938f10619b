//! The availability-bitmask slot search must be decision-invisible:
//! scheduling entire suites with `Mrt::first_free_row_in` produces results —
//! and therefore `SuiteAggregate`s — bit-identical to the per-row
//! `can_place` walk it replaces (`Oracles::linear_slot_scan`), on the
//! standard population, the ejection-churn-heavy suite (where forced
//! placements re-run the window scan after every ejection) and the
//! wide-window suite (where the scans walk crowded large-II tables and
//! multi-row divides/square roots exercise the span checks).

mod common;

use common::{assert_bit_identical, churn_params, only, CONFIGS};
use hcrf_sched::{Oracles, SchedulerParams};
use hcrf_workloads::{churn_suite, small_suite, wide_window_suite};

fn linear_slot_scan() -> [(&'static str, Oracles); 1] {
    [("linear_slot_scan", only(|o| o.linear_slot_scan = true))]
}

#[test]
fn suite_aggregates_bit_identical_between_slot_scans() {
    assert_bit_identical(
        &small_suite(8),
        SchedulerParams::default(),
        "small_suite",
        &CONFIGS,
        &linear_slot_scan(),
    );
}

#[test]
fn churn_suite_bit_identical_between_slot_scans() {
    assert_bit_identical(
        &churn_suite(6),
        churn_params(),
        "churn_suite",
        &CONFIGS,
        &linear_slot_scan(),
    );
}

#[test]
fn wide_window_suite_bit_identical_between_slot_scans() {
    assert_bit_identical(
        &wide_window_suite(6),
        SchedulerParams::default(),
        "wide_suite",
        &CONFIGS,
        &linear_slot_scan(),
    );
}
