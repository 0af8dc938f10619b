//! Table-driven harness of the reference equivalence tests: schedule a
//! suite with the default scheduler and with the reference scheduler
//! ([`IterativeScheduler::with_reference`]), and assert the two
//! bit-identical.
//!
//! The default side always runs with live tracing, so every comparison also
//! proves an enabled telemetry sink decision-invisible.

use hcrf::driver::ConfiguredMachine;
use hcrf_perf::{LoopPerformance, SuiteAggregate};
use hcrf_sched::{IterativeScheduler, ScheduleResult, SchedulerParams};
use hcrf_telemetry::Telemetry;

/// The four machine configurations the reference is checked on.
pub const CONFIGS: [&str; 4] = ["S128", "4C32S16", "8C16S16", "4C16S64"];

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
/// the reference scheduler, asserting full structural equality per loop
/// (II, MaxLive per bank, spill and communication counts, placements, every
/// [`hcrf_sched::SchedulerStats`] counter) and equal suite aggregates.
pub fn assert_bit_identical(
    loops: &[hcrf_ir::Loop],
    params: SchedulerParams,
    suite_name: &str,
    configs: &[&str],
) {
    for &name in configs {
        let cfg = ConfiguredMachine::from_name(name).unwrap();
        let clock_ns = cfg.hardware.clock_ns;
        let default = IterativeScheduler::new(cfg.machine.clone(), params)
            .with_telemetry(Telemetry::enabled());
        let expected: Vec<_> = loops.iter().map(|l| default.schedule(&l.ddg)).collect();
        let agg_def = aggregate(name, clock_ns, loops, &expected);
        let reference = IterativeScheduler::new(cfg.machine.clone(), params).with_reference();
        let got: Vec<_> = loops.iter().map(|l| reference.schedule(&l.ddg)).collect();
        for ((a, b), l) in expected.iter().zip(&got).zip(loops) {
            assert_eq!(
                a, b,
                "{suite_name} / {name} / {}: default diverged from the reference",
                l.ddg.name
            );
        }
        let agg_ref = aggregate(name, clock_ns, loops, &got);
        let tag = format!("{suite_name}/{name}");
        assert_eq!(agg_def.sum_ii, agg_ref.sum_ii, "{tag}: sum_ii");
        assert_eq!(
            agg_def.useful_cycles, agg_ref.useful_cycles,
            "{tag}: useful_cycles"
        );
        assert_eq!(
            agg_def.memory_traffic, agg_ref.memory_traffic,
            "{tag}: memory_traffic"
        );
        assert_eq!(agg_def.loops_at_mii, agg_ref.loops_at_mii, "{tag}");
        assert_eq!(agg_def.failed_loops, agg_ref.failed_loops, "{tag}");
    }
}
