//! Shared table-driven harness of the oracle equivalence tests: schedule a
//! suite with the default scheduler and with each given [`Oracles`] set,
//! and assert the two bit-identical.
//!
//! The default side always runs with live tracing, so every comparison also
//! proves an enabled telemetry sink decision-invisible.

// Each test file uses its own subset of these helpers.
#![allow(dead_code)]

use hcrf::driver::ConfiguredMachine;
use hcrf_perf::{LoopPerformance, SuiteAggregate};
use hcrf_sched::{IterativeScheduler, Oracles, ScheduleResult, SchedulerParams};
use hcrf_telemetry::Telemetry;

/// The four machine configurations every oracle is checked on.
pub const CONFIGS: [&str; 4] = ["S128", "4C32S16", "8C16S16", "4C16S64"];

/// The default (all fast paths) set with one flag switched on by `set`.
pub fn only(set: fn(&mut Oracles)) -> Oracles {
    let mut oracles = Oracles::default();
    set(&mut oracles);
    oracles
}

pub fn churn_params() -> SchedulerParams {
    // The churn family climbs long II ladders by design; give it room.
    SchedulerParams {
        max_ii: 256,
        ..Default::default()
    }
}

fn aggregate(
    name: &str,
    clock_ns: f64,
    loops: &[hcrf_ir::Loop],
    results: &[ScheduleResult],
) -> SuiteAggregate {
    let mut agg = SuiteAggregate::new(name, clock_ns);
    for (r, l) in results.iter().zip(loops) {
        agg.add(&LoopPerformance::from_schedule(r, l, 0));
    }
    agg
}

/// Schedule `loops` on every config with the default scheduler and with
/// each oracle set in `sets`, asserting full structural equality per loop
/// (II, MaxLive per bank, spill and communication counts, placements,
/// stats) and equal suite aggregates. Whenever both sides run the pressure
/// tracker, the refresh count (`pressure_refreshes`), which schedule
/// equality deliberately ignores, must match too: every oracle that keeps
/// the tracker sees the identical refresh-request stream.
pub fn assert_bit_identical(
    loops: &[hcrf_ir::Loop],
    params: SchedulerParams,
    suite_name: &str,
    configs: &[&str],
    sets: &[(&str, Oracles)],
) {
    for &name in configs {
        let cfg = ConfiguredMachine::from_name(name).unwrap();
        let clock_ns = cfg.hardware.clock_ns;
        let default = IterativeScheduler::new(cfg.machine.clone(), params)
            .with_telemetry(Telemetry::enabled());
        let expected: Vec<_> = loops.iter().map(|l| default.schedule(&l.ddg)).collect();
        let agg_def = aggregate(name, clock_ns, loops, &expected);
        for &(oracle_name, oracles) in sets {
            let oracle = IterativeScheduler::new(cfg.machine.clone(), params).with_oracles(oracles);
            let got: Vec<_> = loops.iter().map(|l| oracle.schedule(&l.ddg)).collect();
            for ((a, b), l) in expected.iter().zip(&got).zip(loops) {
                let tag = format!("{suite_name} / {name} / {} / {oracle_name}", l.ddg.name);
                assert_eq!(a, b, "{tag}: default diverged from the oracle");
                if !oracles.batch_pressure {
                    assert_eq!(
                        a.stats.pressure_refreshes, b.stats.pressure_refreshes,
                        "{tag}: pressure refresh count diverged"
                    );
                }
            }
            let agg_ora = aggregate(name, clock_ns, loops, &got);
            let tag = format!("{suite_name}/{name}/{oracle_name}");
            assert_eq!(agg_def.sum_ii, agg_ora.sum_ii, "{tag}: sum_ii");
            assert_eq!(
                agg_def.useful_cycles, agg_ora.useful_cycles,
                "{tag}: useful_cycles"
            );
            assert_eq!(
                agg_def.memory_traffic, agg_ora.memory_traffic,
                "{tag}: memory_traffic"
            );
            assert_eq!(agg_def.loops_at_mii, agg_ora.loops_at_mii, "{tag}");
            assert_eq!(agg_def.failed_loops, agg_ora.failed_loops, "{tag}");
        }
    }
}
