//! The decision-invisible fast paths must stay bit-identical to their
//! paper-literal oracles all together, not only one at a time:
//!
//! * the full [`Oracles::REFERENCE`] set schedules the standard, churn and
//!   wide suites across four machine configurations to results — and
//!   therefore `SuiteAggregate`s — bit-identical to the default scheduler's,
//!   refresh/skip classification included;
//! * the reference set also matches the default on `small_suite` across all
//!   15 Table 5 organizations, where the paper's numbers come from;
//! * the suites actually exercise both sides of the refresh skip and the
//!   fused row maintenance, so the equivalence proofs are not vacuous.
//!
//! Each flag on its own is checked with the same harness (`tests/common`)
//! in the file of its mechanism: `ladder_equivalence` (`fresh_arena`),
//! `victim_equivalence` (`linear_victim_scan`), `slot_equivalence`
//! (`linear_slot_scan`), `pressure_equivalence` (`batch_pressure`) and
//! `refresh_equivalence` (`eager_refresh`, `split_row_update`).

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

/// The suites must actually exercise both sides of the skip decision —
/// an equivalence proof over zero skips (or zero refreshes) would be
/// vacuous — and the fused row maintenance must see real traffic.
#[test]
fn suites_exercise_the_skip_and_the_fused_path() {
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
    assert!(skips > 0, "churn suite never skipped a refresh");
    assert!(fused > 0, "churn suite drove no fused row updates");
}
