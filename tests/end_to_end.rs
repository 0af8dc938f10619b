//! End-to-end integration tests: the paper's qualitative claims, checked on
//! a reduced loop suite across the whole crate stack (workloads → scheduler →
//! hardware model → performance model → memory simulator).

use hcrf::driver::{run_suite, ConfiguredMachine, RunOptions};
use hcrf::experiments::{fig1, fig6, hardware, table4, table6};
use hcrf_sched::validate_schedule;
use hcrf_workloads::{small_suite, standard_suite, SuiteParams};

fn fast() -> RunOptions {
    RunOptions::fast()
}

#[test]
fn every_kernel_schedules_and_validates_on_every_organization_family() {
    let loops = small_suite(0);
    for name in [
        "S128", "S32", "2C64", "4C32", "1C64S64", "4C16S64", "8C16S16",
    ] {
        let cfg = ConfiguredMachine::from_name(name).unwrap();
        let run = run_suite(&cfg, &loops, &fast());
        assert_eq!(
            run.aggregate.failed_loops, 0,
            "{name}: loops failed to schedule"
        );
        for (l, r) in loops.iter().zip(run.loops.iter()) {
            validate_schedule(&l.ddg, &cfg.machine, &r.schedule)
                .unwrap_or_else(|e| panic!("{name} / {}: {e}", l.ddg.name));
        }
    }
}

#[test]
fn partitioning_never_reduces_cycles_but_hierarchy_recovers_time() {
    // The central trade-off of the paper on a reduced suite.
    let loops = small_suite(16);
    let rows = table6::run_configs(&loops, &fast(), &["S128", "S64", "4C32", "8C16S16"]);
    let s128 = rows.iter().find(|r| r.config == "S128").unwrap();
    let c4 = rows.iter().find(|r| r.config == "4C32").unwrap();
    let h8 = rows.iter().find(|r| r.config == "8C16S16").unwrap();
    // Monolithic RF with plenty of registers achieves the fewest cycles.
    assert!(c4.execution_cycles >= s128.execution_cycles);
    assert!(h8.execution_cycles >= s128.execution_cycles);
    // Execution time: the partitioned organizations beat the S64 baseline.
    assert!(h8.speedup > 1.0, "8C16S16 speedup {}", h8.speedup);
    assert!(c4.speedup > 1.0, "4C32 speedup {}", c4.speedup);
    // And their register files are much smaller.
    assert!(h8.area < s128.area);
    assert!(c4.area < s128.area);
}

#[test]
fn shared_bank_keeps_memory_traffic_at_the_no_spill_minimum() {
    let loops = small_suite(8);
    let rows = table6::run_configs(&loops, &fast(), &["S128", "S32", "4C32S16"]);
    let s128 = rows.iter().find(|r| r.config == "S128").unwrap();
    let s32 = rows.iter().find(|r| r.config == "S32").unwrap();
    let hier = rows.iter().find(|r| r.config == "4C32S16").unwrap();
    // The small monolithic RF adds spill traffic over the 128-register one.
    assert!(s32.memory_traffic >= s128.memory_traffic);
    // The hierarchical-clustered organization stays below the spilling
    // monolithic configuration.
    assert!(hier.memory_traffic <= s32.memory_traffic);
}

#[test]
fn ipc_saturates_with_more_resources() {
    let loops = small_suite(8);
    let points = fig1::run(&loops, &fast());
    assert_eq!(points.len(), 5);
    for w in points.windows(2) {
        assert!(
            w[1].ipc + 1e-9 >= w[0].ipc,
            "IPC must not decrease with more resources"
        );
    }
    // The paper's Perfect Club workbench reaches efficiency > 0.5 at 8+4;
    // the reduced kernel suite is recurrence-heavier, so only a loose lower
    // bound is asserted here (the full-suite number is produced by the
    // fig1_ipc_resources bench binary).
    let base = points.iter().find(|p| p.fus == 8).unwrap();
    assert!(base.efficiency > 0.10, "efficiency {}", base.efficiency);
    assert!(base.ipc > 1.0, "IPC {}", base.ipc);
}

#[test]
fn hardware_model_reproduces_the_paper_orderings() {
    let rows = hardware::table5();
    let get = |name: &str| rows.iter().find(|r| r.config == name).unwrap();
    // Cycle time strictly improves along the monolithic -> clustered ->
    // hierarchical-clustered chain the paper highlights.
    assert!(get("4C32").reference.clock_ns < get("S128").reference.clock_ns);
    assert!(get("8C16S16").reference.clock_ns < get("4C32").reference.clock_ns);
    // Every partitioned organization is smaller than the monolithic S64.
    for r in &rows {
        if r.config != "S128" && r.config != "S64" {
            assert!(
                r.reference.total_area <= get("S64").reference.total_area + 1e-9,
                "{} larger than S64",
                r.config
            );
        }
    }
}

#[test]
fn mirs_hc_beats_the_non_iterative_baseline_in_total() {
    let loops = small_suite(32);
    let summary = table4::run(&loops);
    assert!(summary.total_mirs_hc <= summary.total_baseline);
    assert_eq!(
        summary.baseline_better + summary.equal + summary.baseline_worse,
        loops.len()
    );
}

#[test]
fn real_memory_scenario_produces_stalls_and_prefetching_reduces_them() {
    // Binding prefetching only applies to loads that are not on recurrences,
    // so measure it on the streaming kernels (the loops the paper's
    // prefetching discussion is about); recurrence-dominated loops dilute
    // the effect into the noise.
    let streaming = [
        "daxpy",
        "dscal",
        "stream_triad",
        "jacobi3",
        "stencil5",
        "lk12_firstdiff",
        "lerp",
    ];
    let loops: Vec<_> = small_suite(0)
        .into_iter()
        .filter(|l| streaming.contains(&l.ddg.name.as_str()))
        .collect();
    assert!(loops.len() >= 5, "streaming kernels missing from the suite");
    let cfg = ConfiguredMachine::from_name("S64").unwrap();
    // Without prefetching: schedule at hit latency, every miss stalls.
    let mut no_prefetch = RunOptions::fast();
    no_prefetch.real_memory = true;
    no_prefetch.scheduler.binding_prefetch = false;
    no_prefetch.scheduler.keep_schedule = true;
    let stalls_without = run_suite(&cfg, &loops, &no_prefetch).aggregate.stall_cycles;
    // With selective binding prefetching.
    let with_prefetch = RunOptions::fast().with_real_memory();
    let stalls_with = run_suite(&cfg, &loops, &with_prefetch)
        .aggregate
        .stall_cycles;
    assert!(stalls_without > 0);
    assert!(
        stalls_with < stalls_without,
        "prefetching must reduce stalls: {stalls_with} vs {stalls_without}"
    );
}

#[test]
fn real_memory_runs_keep_the_kernel_they_replay() {
    // A hand-built real-memory option set leaves `keep_schedule` at its
    // default, off. The run must keep the kernels anyway: the memory
    // simulation replays them, and an unkept kernel replays no access and
    // reports no stall.
    let loops = small_suite(0);
    let cfg = ConfiguredMachine::from_name("S64").unwrap();
    let hand_built = RunOptions {
        real_memory: true,
        ..Default::default()
    };
    assert!(!hand_built.scheduler.keep_schedule);
    let mut reference = RunOptions::fast().with_real_memory();
    reference.scheduler.binding_prefetch = false;
    let expected = run_suite(&cfg, &loops, &reference).aggregate.stall_cycles;
    assert!(expected > 0);
    let got = run_suite(&cfg, &loops, &hand_built).aggregate.stall_cycles;
    assert_eq!(got, expected);
}

#[test]
fn fig6_relative_metrics_are_internally_consistent() {
    let loops = small_suite(0);
    let bars = fig6::run_configs(&loops, &fast(), &["S64", "4C32S16"]);
    for b in &bars {
        assert!(b.relative_useful_cycles > 0.0);
        assert!(b.relative_stall_cycles >= 0.0);
        assert!(b.relative_useful_time > 0.0);
        assert!(b.speedup > 0.0);
    }
}

#[test]
fn suite_sizes_match_the_paper_workbench() {
    assert_eq!(standard_suite().len(), 1258);
    assert_eq!(
        hcrf_workloads::suite::suite(SuiteParams {
            total_loops: 100,
            ..Default::default()
        })
        .len(),
        100
    );
}
