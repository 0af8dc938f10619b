//! The incremental register-pressure engine must be decision-invisible:
//! scheduling entire suites with the `PressureTracker` produces results —
//! and therefore `SuiteAggregate`s — bit-identical to the batch
//! `pressure()` recompute-the-world path it replaces
//! (`Oracles::batch_pressure`).

mod common;

use common::{assert_bit_identical, churn_params, only, CONFIGS};
use hcrf_sched::{Oracles, SchedulerParams};
use hcrf_workloads::{churn_suite, small_suite, wide_window_suite};

fn batch_pressure() -> [(&'static str, Oracles); 1] {
    [("batch_pressure", only(|o| o.batch_pressure = true))]
}

#[test]
fn suite_aggregates_bit_identical_between_pressure_engines() {
    assert_bit_identical(
        &small_suite(8),
        SchedulerParams::default(),
        "small_suite",
        &CONFIGS,
        &batch_pressure(),
    );
}

#[test]
fn churn_suite_bit_identical_between_pressure_engines() {
    assert_bit_identical(
        &churn_suite(6),
        churn_params(),
        "churn_suite",
        &CONFIGS,
        &batch_pressure(),
    );
}

#[test]
fn wide_window_suite_bit_identical_between_pressure_engines() {
    assert_bit_identical(
        &wide_window_suite(6),
        SchedulerParams::default(),
        "wide_suite",
        &CONFIGS,
        &batch_pressure(),
    );
}
