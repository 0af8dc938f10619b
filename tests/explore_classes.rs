//! Exploration schedules each loop once per scheduling class and serves
//! sibling design points from the capacity window, so every point must
//! still evaluate exactly as a sweep of its own would.
//!
//! The space here is rich in siblings: `S64`/`S32`/`S16`,
//! `1C32S64`/`1C16S16`, `2C16S128`/`2C16S64`/`2C16S32` and
//! `4C16S64`/`4C16S32` each share a class once the clock model has
//! rescaled their latencies. The suite is `small_suite` plus three spill
//! storms of the default suite. Every `PointResult` (aggregate, clock,
//! area) must equal a per-point `run_suite`, under ideal memory and under
//! real memory (where the load-miss latency joins the class key and the
//! cache simulation still runs per point), and the sweep must report
//! served pairs in `explore.shared_pairs`. The thread-count variant lives
//! in `tests/engine_equivalence.rs`.

use hcrf::driver::{run_suite, ConfiguredMachine};
use hcrf_explore::{explore_traced, ExploreOptions, ResultCache, Scenario};
use hcrf_ir::Loop;
use hcrf_machine::RfOrganization;
use hcrf_sched::IterativeScheduler;
use hcrf_telemetry::Telemetry;
use hcrf_workloads::{small_suite, suite::suite, SuiteParams};

const SIBLING_SPACE: [&str; 10] = [
    "S64", "S32", "S16", "1C16S16", "1C32S64", "2C16S32", "2C16S64", "2C16S128", "4C16S32",
    "4C16S64",
];

/// Spill storms of the default suite (see `tests/alloc_steady_state.rs`).
const STORMS: [&str; 3] = ["syn0220_fu", "syn0574_fu", "syn0187_fu"];

fn suite_with_storms() -> Vec<Loop> {
    let mut loops = small_suite(0);
    loops.extend(
        suite(SuiteParams::default())
            .into_iter()
            .filter(|l| STORMS.contains(&l.ddg.name.as_str())),
    );
    assert_eq!(loops.len(), small_suite(0).len() + STORMS.len());
    loops
}

fn orgs() -> Vec<RfOrganization> {
    SIBLING_SPACE
        .iter()
        .map(|n| RfOrganization::parse(n).unwrap())
        .collect()
}

/// Explore the sibling space under `scenario`, compare every point with a
/// per-point `run_suite`, and return the served pair count.
fn assert_points_match_per_point_runs(scenario: Scenario) -> u64 {
    let loops = suite_with_storms();
    let orgs = orgs();
    let options = ExploreOptions {
        scenario,
        ..Default::default()
    };
    let telemetry = Telemetry::enabled();
    let outcome = explore_traced(
        &orgs,
        &loops,
        &options,
        &mut ResultCache::disabled(),
        &telemetry,
    );
    assert_eq!(outcome.points.len(), orgs.len());
    assert!(outcome.quarantined.is_empty());
    let run_options = options.run_options();
    for (point, rf) in outcome.points.iter().zip(&orgs) {
        assert_eq!(point.rf, *rf, "points come back in input order");
        let config = ConfiguredMachine::from_rf(*rf);
        let run = run_suite(&config, &loops, &run_options);
        assert_eq!(
            point.aggregate, run.aggregate,
            "{scenario:?}/{}: the class sweep diverged from a run of its own",
            point.name
        );
        assert_eq!(point.clock_ns, config.hardware.clock_ns, "{}", point.name);
        assert_eq!(
            point.total_area, config.hardware.total_area,
            "{}",
            point.name
        );
        assert!(point.scheduling_seconds > 0.0, "{}", point.name);
    }
    let snapshot = telemetry.metrics_snapshot();
    let served = snapshot.counter("explore.shared_pairs").unwrap_or(0);
    let scheduled = snapshot.counter("sched.loops").unwrap_or(0);
    assert_eq!(
        served + scheduled,
        (loops.len() * orgs.len()) as u64,
        "{scenario:?}: every pair is either served or scheduled"
    );
    served
}

#[test]
fn sibling_space_matches_per_point_runs_under_ideal_memory() {
    let served = assert_points_match_per_point_runs(Scenario::Ideal);
    assert!(served > 0, "no pair was served from a sibling's window");
}

#[test]
fn sibling_space_matches_per_point_runs_under_real_memory() {
    let served = assert_points_match_per_point_runs(Scenario::Real);
    assert!(served > 0, "no pair was served from a sibling's window");
}

/// The premise of the space: the clock model leaves these siblings in one
/// scheduling class under ideal memory.
#[test]
fn sibling_space_has_multi_point_classes() {
    let params = ExploreOptions::default().run_options().scheduler_params();
    let key = |name: &str| {
        let machine = ConfiguredMachine::from_name(name).unwrap().machine;
        IterativeScheduler::new(machine, params).class_key()
    };
    for class in [
        &["S64", "S32", "S16"][..],
        &["1C32S64", "1C16S16"],
        &["2C16S128", "2C16S64", "2C16S32"],
        &["4C16S64", "4C16S32"],
    ] {
        for name in &class[1..] {
            assert_eq!(key(name), key(class[0]), "{name} vs {}", class[0]);
        }
    }
    assert_ne!(key("S64"), key("4C16S64"));
}
