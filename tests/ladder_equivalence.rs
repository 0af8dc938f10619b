//! The persistent `AttemptArena` must be decision-invisible: scheduling
//! entire suites with the arena reset (not rebuilt) across II restarts, and
//! pooled across loops, produces results — and therefore `SuiteAggregate`s
//! — bit-identical to rebuilding the complete per-attempt state for every
//! II (`Oracles::fresh_arena`), on the standard, churn and wide suites
//! across the four standard machine configurations.

mod common;

use common::{assert_bit_identical, churn_params, only, CONFIGS};
use hcrf_sched::{Oracles, SchedulerParams};
use hcrf_workloads::{churn_suite, small_suite, wide_window_suite};

fn fresh_arena() -> [(&'static str, Oracles); 1] {
    [("fresh_arena", only(|o| o.fresh_arena = true))]
}

#[test]
fn arena_reuse_bit_identical_to_fresh_build_small_suite() {
    assert_bit_identical(
        &small_suite(8),
        SchedulerParams::default(),
        "small_suite",
        &CONFIGS,
        &fresh_arena(),
    );
}

#[test]
fn arena_reuse_bit_identical_to_fresh_build_churn_suite() {
    assert_bit_identical(
        &churn_suite(6),
        churn_params(),
        "churn_suite",
        &CONFIGS,
        &fresh_arena(),
    );
}

#[test]
fn arena_reuse_bit_identical_to_fresh_build_wide_suite() {
    assert_bit_identical(
        &wide_window_suite(6),
        SchedulerParams::default(),
        "wide_suite",
        &CONFIGS,
        &fresh_arena(),
    );
}
