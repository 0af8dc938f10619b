//! The SlotIndex-backed victim search must be decision-invisible: scheduling
//! entire suites with the indexed `pick_victim` produces results — and
//! therefore `SuiteAggregate`s — bit-identical to the linear-scan oracle it
//! replaces (`Oracles::linear_victim_scan`), including on the
//! ejection-churn-heavy suite where victim selection actually runs hot.

mod common;

use common::{assert_bit_identical, churn_params, only, CONFIGS};
use hcrf_sched::{Oracles, SchedulerParams};
use hcrf_workloads::{churn_suite, small_suite, wide_window_suite};

fn linear_victim_scan() -> [(&'static str, Oracles); 1] {
    [("linear_victim_scan", only(|o| o.linear_victim_scan = true))]
}

#[test]
fn suite_aggregates_bit_identical_between_victim_policies() {
    assert_bit_identical(
        &small_suite(8),
        SchedulerParams::default(),
        "small_suite",
        &CONFIGS,
        &linear_victim_scan(),
    );
}

#[test]
fn churn_suite_bit_identical_between_victim_policies() {
    assert_bit_identical(
        &churn_suite(6),
        churn_params(),
        "churn_suite",
        &CONFIGS,
        &linear_victim_scan(),
    );
}

#[test]
fn wide_window_suite_bit_identical_between_victim_policies() {
    assert_bit_identical(
        &wide_window_suite(6),
        SchedulerParams::default(),
        "wide_suite",
        &CONFIGS,
        &linear_victim_scan(),
    );
}
