//! Per-loop and aggregate performance metrics.

use hcrf_ir::Loop;
use hcrf_sched::ScheduleResult;

/// Execution cycles of one loop: `II * (N + (SC - 1) * E) + stalls`.
pub fn execution_cycles(result: &ScheduleResult, l: &Loop, stall_cycles: u64) -> u64 {
    let ii = result.ii as u64;
    let n = l.iterations;
    let e = l.invocations.max(1);
    let sc = result.sc.max(1) as u64;
    ii * (n + (sc - 1) * e) + stall_cycles
}

/// Execution time in nanoseconds given the configuration's clock period.
pub fn execution_time_ns(cycles: u64, clock_ns: f64) -> f64 {
    cycles as f64 * clock_ns
}

/// Memory traffic of one loop across the run: `N * trf` where `trf` counts
/// the original references plus any spill accesses in the final kernel.
pub fn memory_traffic(result: &ScheduleResult, l: &Loop) -> u64 {
    l.iterations * result.memory_traffic_per_iteration() as u64
}

/// Instructions (original operations) executed per cycle of the kernel:
/// the useful IPC of the schedule.
pub fn ipc(result: &ScheduleResult) -> f64 {
    if result.ii == 0 {
        return 0.0;
    }
    result.original_ops as f64 / result.ii as f64
}

/// Performance of one loop under one configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct LoopPerformance {
    /// Loop name.
    pub name: String,
    /// Achieved II.
    pub ii: u32,
    /// MII lower bound.
    pub mii: u32,
    /// Stage count.
    pub sc: u32,
    /// Useful execution cycles (no stalls).
    pub useful_cycles: u64,
    /// Stall cycles (0 in the ideal-memory scenario).
    pub stall_cycles: u64,
    /// Memory traffic in accesses.
    pub memory_traffic: u64,
    /// Whether the schedule achieved the MII.
    pub achieved_mii: bool,
    /// Whether scheduling failed.
    pub failed: bool,
}

impl LoopPerformance {
    /// Build the per-loop record from a schedule and the stall count.
    pub fn from_schedule(result: &ScheduleResult, l: &Loop, stall_cycles: u64) -> Self {
        LoopPerformance {
            name: l.ddg.name.clone(),
            ii: result.ii,
            mii: result.mii,
            sc: result.sc,
            useful_cycles: execution_cycles(result, l, 0),
            stall_cycles,
            memory_traffic: memory_traffic(result, l),
            achieved_mii: result.achieved_mii,
            failed: result.failed,
        }
    }

    /// Total cycles including stalls.
    pub fn total_cycles(&self) -> u64 {
        self.useful_cycles + self.stall_cycles
    }
}

/// Aggregate of a whole suite under one configuration.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SuiteAggregate {
    /// Configuration label.
    pub config: String,
    /// Clock period used for the time metrics (ns).
    pub clock_ns: f64,
    /// Sum of the per-loop IIs (the paper's ΣII).
    pub sum_ii: u64,
    /// Sum of useful execution cycles.
    pub useful_cycles: u64,
    /// Sum of stall cycles.
    pub stall_cycles: u64,
    /// Sum of memory traffic.
    pub memory_traffic: u64,
    /// Number of loops that achieved their MII.
    pub loops_at_mii: usize,
    /// Number of loops that failed to schedule.
    pub failed_loops: usize,
    /// Number of loops aggregated.
    pub loops: usize,
}

impl SuiteAggregate {
    /// Create an empty aggregate for a configuration.
    pub fn new(config: impl Into<String>, clock_ns: f64) -> Self {
        SuiteAggregate {
            config: config.into(),
            clock_ns,
            ..Default::default()
        }
    }

    /// Add one loop's performance.
    pub fn add(&mut self, perf: &LoopPerformance) {
        self.sum_ii += perf.ii as u64;
        self.useful_cycles += perf.useful_cycles;
        self.stall_cycles += perf.stall_cycles;
        self.memory_traffic += perf.memory_traffic;
        if perf.achieved_mii {
            self.loops_at_mii += 1;
        }
        if perf.failed {
            self.failed_loops += 1;
        }
        self.loops += 1;
    }

    /// Total cycles (useful + stall).
    pub fn total_cycles(&self) -> u64 {
        self.useful_cycles + self.stall_cycles
    }

    /// Execution time in nanoseconds.
    pub fn execution_time_ns(&self) -> f64 {
        execution_time_ns(self.total_cycles(), self.clock_ns)
    }

    /// Percentage of loops that achieved their MII.
    pub fn percent_at_mii(&self) -> f64 {
        if self.loops == 0 {
            0.0
        } else {
            100.0 * self.loops_at_mii as f64 / self.loops as f64
        }
    }

    /// Speed-up of this configuration relative to `baseline`
    /// (ratio of execution times; > 1 means this one is faster).
    pub fn speedup_vs(&self, baseline: &SuiteAggregate) -> f64 {
        let own = self.execution_time_ns();
        if own == 0.0 {
            return 0.0;
        }
        baseline.execution_time_ns() / own
    }

    /// Execution time relative to `baseline` (< 1 means faster).
    pub fn relative_time(&self, baseline: &SuiteAggregate) -> f64 {
        let base = baseline.execution_time_ns();
        if base == 0.0 {
            return 0.0;
        }
        self.execution_time_ns() / base
    }

    /// Cycle count relative to `baseline`.
    pub fn relative_cycles(&self, baseline: &SuiteAggregate) -> f64 {
        let base = baseline.total_cycles();
        if base == 0 {
            return 0.0;
        }
        self.total_cycles() as f64 / base as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcrf_ir::{DdgBuilder, OpKind};
    use hcrf_machine::{MachineConfig, RfOrganization};
    use hcrf_sched::{schedule_loop, SchedulerParams};

    fn sample() -> (Loop, ScheduleResult) {
        let mut b = DdgBuilder::new("s");
        let l = b.load(0, 8);
        let a = b.op(OpKind::FAdd);
        let s = b.store(1, 8);
        b.flow(l, a, 0).flow(a, s, 0);
        let lp = Loop::new(b.build(), 1000, 10);
        let m = MachineConfig::paper_baseline(RfOrganization::monolithic(64));
        let r = schedule_loop(&lp.ddg, &m, &SchedulerParams::default());
        (lp, r)
    }

    #[test]
    fn execution_cycle_formula() {
        let (lp, r) = sample();
        let cycles = execution_cycles(&r, &lp, 0);
        let expected = r.ii as u64 * (1000 + (r.sc as u64 - 1) * 10);
        assert_eq!(cycles, expected);
        assert_eq!(execution_cycles(&r, &lp, 500), expected + 500);
    }

    #[test]
    fn memory_traffic_counts_spill() {
        let (lp, mut r) = sample();
        let base = memory_traffic(&r, &lp);
        assert_eq!(base, 1000 * 2);
        r.memory_ops += 1; // pretend one spill access per iteration
        assert_eq!(memory_traffic(&r, &lp), 1000 * 3);
    }

    #[test]
    fn ipc_is_ops_over_ii() {
        let (_, r) = sample();
        let expected = r.original_ops as f64 / r.ii as f64;
        assert!((ipc(&r) - expected).abs() < 1e-12);
    }

    #[test]
    fn aggregate_and_speedup() {
        let (lp, r) = sample();
        let perf = LoopPerformance::from_schedule(&r, &lp, 100);
        let mut fast = SuiteAggregate::new("4C32", 0.5);
        let mut slow = SuiteAggregate::new("S64", 1.0);
        fast.add(&perf);
        slow.add(&perf);
        // Same cycles, half the clock period: exactly 2x speedup.
        assert!((fast.speedup_vs(&slow) - 2.0).abs() < 1e-9);
        assert!((fast.relative_time(&slow) - 0.5).abs() < 1e-9);
        assert!((fast.relative_cycles(&slow) - 1.0).abs() < 1e-9);
        assert_eq!(fast.loops, 1);
        assert_eq!(fast.percent_at_mii(), 100.0);
    }

    #[test]
    fn time_is_cycles_times_clock() {
        assert!((execution_time_ns(1000, 1.181) - 1181.0).abs() < 1e-9);
    }
}
