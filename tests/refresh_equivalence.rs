//! The ejection-aware pressure-refresh skip and the fused word-parallel MRT
//! row maintenance must be decision-invisible:
//!
//! * scheduling entire suites with the epoch-gated refresh skip produces
//!   results bit-identical to the always-rescan oracle
//!   (`Oracles::eager_refresh`), on the standard, churn and wide suites
//!   across the four standard machine configurations — including the
//!   `pressure_refreshes` / `refresh_skips` classification, which the
//!   shared harness asserts explicitly: both modes see the identical
//!   refresh-request stream, the oracle merely *performs* the rescans the
//!   fast path skips;
//! * the fused FU span transaction produces results — and a
//!   `fused_row_updates` row count, which IS part of schedule equality —
//!   bit-identical to the split per-row walk it replaces
//!   (`Oracles::split_row_update`).

mod common;

use common::{assert_bit_identical, churn_params, only, CONFIGS};
use hcrf_sched::{Oracles, SchedulerParams};
use hcrf_workloads::{churn_suite, small_suite, wide_window_suite};

fn eager_refresh() -> [(&'static str, Oracles); 1] {
    [("eager_refresh", only(|o| o.eager_refresh = true))]
}

fn split_row_update() -> [(&'static str, Oracles); 1] {
    [("split_row_update", only(|o| o.split_row_update = true))]
}

#[test]
fn refresh_skip_bit_identical_to_eager_small_suite() {
    assert_bit_identical(
        &small_suite(8),
        SchedulerParams::default(),
        "small_suite",
        &CONFIGS,
        &eager_refresh(),
    );
}

#[test]
fn refresh_skip_bit_identical_to_eager_churn_suite() {
    assert_bit_identical(
        &churn_suite(6),
        churn_params(),
        "churn_suite",
        &CONFIGS,
        &eager_refresh(),
    );
}

#[test]
fn refresh_skip_bit_identical_to_eager_wide_suite() {
    assert_bit_identical(
        &wide_window_suite(6),
        SchedulerParams::default(),
        "wide_suite",
        &CONFIGS,
        &eager_refresh(),
    );
}

#[test]
fn fused_rows_bit_identical_to_split_small_suite() {
    assert_bit_identical(
        &small_suite(8),
        SchedulerParams::default(),
        "small_suite",
        &CONFIGS,
        &split_row_update(),
    );
}

#[test]
fn fused_rows_bit_identical_to_split_churn_suite() {
    assert_bit_identical(
        &churn_suite(6),
        churn_params(),
        "churn_suite",
        &CONFIGS,
        &split_row_update(),
    );
}

#[test]
fn fused_rows_bit_identical_to_split_wide_suite() {
    assert_bit_identical(
        &wide_window_suite(6),
        SchedulerParams::default(),
        "wide_suite",
        &CONFIGS,
        &split_row_update(),
    );
}
