//! The II attempt budget must end attempts that make no progress.
//!
//! A popped node that inserts a communication chain towards a placed
//! consumer, finds no slot, and is forced into a cycle that violates the
//! fresh chain ejects itself (the chain's owner) when the chain goes. If such
//! a pop kept the chain's Budget_Ratio credit, the budget would grow on every
//! re-pop and only the attempt cap would end the ping-pong: tens of
//! thousands of scheduling attempts on the loops below. The no-progress rule
//! drops that credit; these pairs from the full 1258-loop suite pin both the
//! final II and the work it takes to get there.

use hcrf::driver::ConfiguredMachine;
use hcrf_ir::Loop;
use hcrf_sched::{
    validate_schedule, IterativeScheduler, ScheduleResult, SchedulerParams, ATTEMPT_CAP_BUDGETS,
};
use hcrf_telemetry::{Telemetry, Verbosity, DEFAULT_TRACE_CAPACITY};
use hcrf_workloads::{suite::suite, SuiteParams};

/// Schedule one loop of the default suite on one Table 5 organization with
/// the schedule kept, returning the result and the telemetry it published.
fn schedule_pair(loops: &[Loop], name: &str, config: &str) -> (ScheduleResult, Telemetry) {
    let l = loops
        .iter()
        .find(|l| l.ddg.name == name)
        .unwrap_or_else(|| panic!("{name} missing from the default suite"));
    let cfg = ConfiguredMachine::from_name(config).unwrap();
    let telemetry = Telemetry::new(Verbosity::Silent, DEFAULT_TRACE_CAPACITY);
    let params = SchedulerParams {
        keep_schedule: true,
        ..SchedulerParams::default()
    };
    let result = IterativeScheduler::new(cfg.machine.clone(), params)
        .with_telemetry(telemetry.clone())
        .schedule(&l.ddg);
    assert!(!result.failed, "{name}@{config} failed to schedule");
    validate_schedule(&l.ddg, &cfg.machine, &result)
        .unwrap_or_else(|e| panic!("{name}@{config}: {e}"));
    (result, telemetry)
}

fn counter(telemetry: &Telemetry, key: &str) -> u64 {
    telemetry.metrics_snapshot().counter(key).unwrap_or(0)
}

#[test]
fn self_ejecting_pops_do_not_run_attempts_to_the_cap() {
    let loops = suite(SuiteParams::default());
    // (loop, config, final II). Without the no-progress rule these took
    // 76 127, 61 970 and 53 935 scheduling attempts, measured when the
    // attempt cap was 64 budgets (`ATTEMPT_CAP_BUDGETS` is lower now, so
    // the same storms would stop sooner at the cap).
    for (name, config, ii) in [
        ("syn1006_fu", "4C32S16", 27),
        ("syn0502_fu", "2C32", 44),
        ("syn0613_fu", "2C64", 15),
    ] {
        let (r, telemetry) = schedule_pair(&loops, name, config);
        assert_eq!(r.ii, ii, "{name}@{config}: final II moved");
        assert!(
            r.stats.attempts < 5_000,
            "{name}@{config}: {} scheduling attempts — a self-ejection storm is back",
            r.stats.attempts
        );
        assert!(
            counter(&telemetry, "sched.self_ejections") > 0,
            "{name}@{config}: the storm pattern no longer occurs, so this pair pins nothing"
        );
        assert_eq!(
            counter(&telemetry, "sched.attempt_caps"),
            0,
            "{name}@{config}: an attempt still ran to the cap"
        );
    }
}

#[test]
fn remaining_attempt_cap_hits_are_counted_and_traced() {
    let loops = suite(SuiteParams::default());
    // This loop's II 11 rung still reaches the cap. About every other pop
    // there self-ejects, but the pops in between insert chains that stay
    // placed and keep their credit.
    let (r, telemetry) = schedule_pair(&loops, "syn1056_fu", "2C64");
    let nodes = loops
        .iter()
        .find(|l| l.ddg.name == "syn1056_fu")
        .map(|l| l.ddg.num_nodes() as u64)
        .unwrap();
    assert_eq!(r.ii, 22, "syn1056_fu@2C64: final II moved");
    assert_eq!(counter(&telemetry, "sched.attempt_caps"), 1);
    let caps: Vec<_> = telemetry
        .trace_snapshot()
        .into_iter()
        .filter(|e| e.name == "attempt_cap" && e.is_instant())
        .collect();
    assert_eq!(caps.len(), 1, "expected one attempt_cap trace instant");
    let arg = |key: &str| {
        caps[0]
            .args()
            .iter()
            .find(|&&(k, _)| k == key)
            .map(|&(_, v)| v)
            .unwrap_or_else(|| panic!("attempt_cap instant lacks `{key}`"))
    };
    assert_eq!(arg("ii"), 11);
    // The attempt fails on the first pop past the cap, 8·(28+8)·6 + 1 pops,
    // so retuning `ATTEMPT_CAP_BUDGETS` has to change this number.
    let budget_ratio = u64::from(SchedulerParams::default().budget_ratio);
    assert_eq!(ATTEMPT_CAP_BUDGETS * (nodes + 8) * budget_ratio + 1, 1729);
    assert_eq!(
        arg("attempts"),
        1729,
        "syn1056_fu@2C64: the II 11 attempt stopped elsewhere than at the cap"
    );
    assert!(arg("ejections") > 0);
    assert!(arg("node") >= 0);
}
