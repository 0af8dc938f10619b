//! The capacity window is sound: a machine of the same scheduling class
//! whose register capacities lie inside a schedule's window gets exactly
//! the same `ScheduleResult`.
//!
//! The scheduler reads a bank's capacity only when it compares a MaxLive
//! with it (`over_capacity_bank`, plus the bounded/unbounded test). Every
//! such comparison of every rung of a ladder is folded into the result's
//! `CapacityWindow`. These tests schedule `small_suite`, the churn and
//! wide stress suites and three spill-storm loops of the default suite on
//! sibling machines (one class, different bank sizes) and require:
//!
//! * every sibling a window covers gets a result identical to the producing
//!   run's in every field, `SchedulerStats` and the window included;
//! * so does a machine built with its capacities at the window's edges;
//! * some sibling outside its window really is scheduled differently, so
//!   the tests cannot pass with windows that cover nothing;
//! * the reference scheduler computes the same window.

use hcrf_ir::Loop;
use hcrf_machine::{Capacity, MachineConfig, RfOrganization};
use hcrf_sched::{IterativeScheduler, ScheduleResult, SchedulerParams};
use hcrf_workloads::{churn_suite, small_suite, suite::suite, wide_window_suite, SuiteParams};

/// Sibling classes on the paper's baseline core (one set of latencies for
/// every organization), largest capacities first.
const CLASSES: [&[&str]; 4] = [
    &["S128", "S64", "S32", "S16"],
    &["4C64", "4C32", "4C16"],
    &["4C32S64", "4C32S16", "4C16S64", "4C16S32", "4C16S16"],
    &["8C32S16", "8C16S32", "8C16S16"],
];

/// Spill storms of the default suite, the same pairs
/// `tests/alloc_steady_state.rs` stresses the pool with.
const STORMS: [&str; 3] = ["syn0220_fu", "syn0574_fu", "syn0187_fu"];

fn churn_params() -> SchedulerParams {
    // The churn family climbs long II ladders by design; give it room.
    SchedulerParams {
        max_ii: 256,
        ..Default::default()
    }
}

fn machine(name: &str) -> MachineConfig {
    MachineConfig::paper_baseline(RfOrganization::parse(name).unwrap())
}

fn storm_loops() -> Vec<Loop> {
    suite(SuiteParams::default())
        .into_iter()
        .filter(|l| STORMS.contains(&l.ddg.name.as_str()))
        .collect()
}

/// `m` with its bounded banks resized to `cluster` and `shared` registers.
fn resized(m: &MachineConfig, cluster: u32, shared: u32) -> MachineConfig {
    let size = |c: Capacity, n: u32| match c {
        Capacity::Bounded(_) => Capacity::Bounded(n),
        Capacity::Unbounded => Capacity::Unbounded,
    };
    let rf = match m.rf {
        RfOrganization::Monolithic { regs } => RfOrganization::Monolithic {
            regs: size(regs, cluster),
        },
        RfOrganization::Clustered {
            clusters,
            regs_per_cluster,
        } => RfOrganization::Clustered {
            clusters,
            regs_per_cluster: size(regs_per_cluster, cluster),
        },
        RfOrganization::Hierarchical {
            clusters,
            cluster_regs,
            shared_regs,
        } => RfOrganization::Hierarchical {
            clusters,
            cluster_regs: size(cluster_regs, cluster),
            shared_regs: size(shared_regs, shared),
        },
    };
    MachineConfig { rf, ..m.clone() }
}

#[derive(Default)]
struct Tally {
    /// Siblings a window covered (each checked identical).
    served: usize,
    /// Window edges checked identical.
    edges: usize,
    /// Siblings no window covered that got a different schedule.
    outside_and_different: usize,
}

impl Tally {
    /// The suite put siblings inside windows and at their edges, and
    /// scheduled some sibling outside every window differently.
    fn assert_nonvacuous(&self) {
        assert!(self.served > 0, "no sibling fell inside a window");
        assert!(self.edges > 0, "no window edge was checked");
        assert!(
            self.outside_and_different > 0,
            "no sibling outside its window scheduled differently, so the windows are not \
             shown to exclude anything"
        );
    }
}

/// Schedule every loop on every sibling of every class, checking each
/// covered sibling and each window edge against its producing run.
fn check_windows(loops: &[Loop], params: SchedulerParams, what: &str) -> Tally {
    let mut tally = Tally::default();
    for class in CLASSES {
        let schedulers: Vec<IterativeScheduler> = class
            .iter()
            .map(|n| IterativeScheduler::new(machine(n), params))
            .collect();
        let key = schedulers[0].class_key();
        for (s, name) in schedulers.iter().zip(class.iter()) {
            assert_eq!(s.class_key(), key, "{name} is not in {}'s class", class[0]);
        }
        for l in loops {
            let mut runs: Vec<(&str, ScheduleResult)> = Vec::new();
            for (s, &name) in schedulers.iter().zip(class.iter()) {
                let result = s.schedule(&l.ddg);
                let pair = format!("{what}/{}@{name}", l.ddg.name);
                let mut covered = false;
                for (producer, run) in &runs {
                    if run.window.covers(s.machine()) {
                        covered = true;
                        assert_eq!(
                            &result, run,
                            "{pair}: inside the window of its run on {producer}, but scheduled \
                             differently"
                        );
                    }
                }
                if covered {
                    tally.served += 1;
                    continue;
                }
                if runs.iter().any(|(_, run)| *run != result) {
                    tally.outside_and_different += 1;
                }
                // The window's own edges: every capacity check must come
                // out as it did on `name`.
                let w = result.window;
                let m = s.machine();
                let shared = m.shared_regs().unwrap_or(0);
                let cluster_edges = [w.cluster.min, w.cluster.max.min(1 << 20)];
                let shared_edges = [w.shared.min, w.shared.max.min(1 << 20)];
                for (c, sh) in cluster_edges.into_iter().zip(shared_edges) {
                    let cluster = if m.rf.cluster_capacity().is_bounded() {
                        c
                    } else {
                        m.cluster_regs()
                    };
                    let shared = if m.rf.is_hierarchical() { sh } else { shared };
                    let edge = resized(m, cluster, shared);
                    assert!(w.covers(&edge), "{pair}: an edge outside its own window");
                    if edge == *m {
                        continue;
                    }
                    let at_edge = IterativeScheduler::new(edge, params).schedule(&l.ddg);
                    assert_eq!(
                        at_edge, result,
                        "{pair}: capacities ({cluster}, {shared}) at the window's edge \
                         scheduled differently"
                    );
                    tally.edges += 1;
                }
                runs.push((name, result));
            }
        }
    }
    tally
}

#[test]
fn window_siblings_schedule_identically_small_suite_and_storms() {
    let mut loops = small_suite(8);
    loops.extend(storm_loops());
    assert_eq!(loops.len(), small_suite(8).len() + STORMS.len());
    check_windows(&loops, SchedulerParams::default(), "small+storms").assert_nonvacuous();
}

#[test]
fn window_siblings_schedule_identically_churn_suite() {
    check_windows(&churn_suite(4), churn_params(), "churn").assert_nonvacuous();
}

#[test]
fn window_siblings_schedule_identically_wide_suite() {
    check_windows(&wide_window_suite(4), SchedulerParams::default(), "wide").assert_nonvacuous();
}

/// A spill-heavy loop on the smallest monolithic file falls outside the
/// window of its run on the largest one, and its schedule differs.
#[test]
fn spill_storm_falls_outside_the_large_files_window() {
    let storm = storm_loops()
        .into_iter()
        .find(|l| l.ddg.name == "syn0220_fu")
        .unwrap();
    let params = SchedulerParams::default();
    let large = IterativeScheduler::new(machine("S64"), params).schedule(&storm.ddg);
    let small = IterativeScheduler::new(machine("S16"), params).schedule(&storm.ddg);
    assert!(!large.window.covers(&machine("S16")));
    assert_ne!(large, small);
    assert!(small.stats.budget_exhausts > 0 || small.spill_loads + small.spill_stores > 0);
}

/// The reference scheduler (batch pressure snapshots, a fresh arena per
/// attempt) makes the same capacity checks, so it records the same window.
#[test]
fn reference_mode_records_the_same_window() {
    let mut loops = small_suite(4);
    loops.extend(storm_loops());
    let mut bounded = 0;
    for class in CLASSES {
        for name in class.iter().take(2).chain(class.last()) {
            let m = machine(name);
            let default = IterativeScheduler::new(m.clone(), SchedulerParams::default());
            let reference = default.clone().with_reference();
            for l in &loops {
                let a = default.schedule(&l.ddg);
                let b = reference.schedule(&l.ddg);
                assert_eq!(a.window, b.window, "{}@{name}: windows differ", l.ddg.name);
                assert_eq!(a, b, "{}@{name}: results differ", l.ddg.name);
                bounded += usize::from(a.window.cluster.max < u32::MAX);
            }
        }
    }
    assert!(bounded > 0, "no check ever found a bank over capacity");
}
