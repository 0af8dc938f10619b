//! Table 6: ideal-memory performance of the 15 register-file configurations
//! (execution cycles, memory traffic, execution time and speedup relative to
//! the monolithic S64 baseline).

use crate::driver::{run_suite, ConfiguredMachine, RunOptions};
use crate::experiments::TABLE5_CONFIGS;
use hcrf_ir::Loop;

/// One row of Table 6.
#[derive(Debug, Clone, PartialEq)]
pub struct Table6Row {
    /// Configuration name.
    pub config: String,
    /// lp-sp ports of the configuration.
    pub lp_sp: (u32, u32),
    /// Total execution cycles over the suite.
    pub execution_cycles: u64,
    /// Total memory traffic (accesses) over the suite.
    pub memory_traffic: u64,
    /// Execution time relative to S64 (< 1 is faster).
    pub relative_time: f64,
    /// Speedup relative to S64 (> 1 is faster).
    pub speedup: f64,
    /// Total register file area in Mλ².
    pub area: f64,
    /// Clock period in ns.
    pub clock_ns: f64,
    /// Number of loops that failed to schedule.
    pub failed_loops: usize,
}

/// Run the Table 6 sweep (ideal memory: no stall cycles).
pub fn run(suite: &[Loop], options: &RunOptions) -> Vec<Table6Row> {
    run_configs(suite, options, &TABLE5_CONFIGS)
}

/// Run the sweep over an arbitrary set of configurations
/// (the baseline `S64` is added if missing, since it normalises the table).
pub fn run_configs(suite: &[Loop], options: &RunOptions, configs: &[&str]) -> Vec<Table6Row> {
    let mut names: Vec<&str> = configs.to_vec();
    if !names.contains(&"S64") {
        names.push("S64");
    }
    let runs: Vec<(ConfiguredMachine, crate::driver::SuiteRun)> = names
        .iter()
        .map(|name| {
            let cfg = ConfiguredMachine::from_name(name).expect("valid configuration");
            let run = run_suite(&cfg, suite, options);
            (cfg, run)
        })
        .collect();
    let baseline = runs
        .iter()
        .find(|(c, _)| c.name() == "S64")
        .map(|(_, r)| r.aggregate.clone())
        .expect("baseline S64 present");
    let mut rows: Vec<Table6Row> = runs
        .iter()
        .filter(|(c, _)| configs.contains(&c.name().as_str()))
        .map(|(cfg, run)| Table6Row {
            config: cfg.name(),
            lp_sp: (cfg.machine.lp, cfg.machine.sp),
            execution_cycles: run.aggregate.total_cycles(),
            memory_traffic: run.aggregate.memory_traffic,
            relative_time: run.aggregate.relative_time(&baseline),
            speedup: run.aggregate.speedup_vs(&baseline),
            area: cfg.hardware.total_area,
            clock_ns: cfg.hardware.clock_ns,
            failed_loops: run.aggregate.failed_loops,
        })
        .collect();
    // Keep the caller's ordering.
    rows.sort_by_key(|r| {
        configs
            .iter()
            .position(|c| *c == r.config)
            .unwrap_or(usize::MAX)
    });
    rows
}

/// Format rows like the paper's Table 6.
pub fn format(rows: &[Table6Row]) -> String {
    let mut out = String::from(
        "Config    lp-sp   ExeC        MemTrf      ExeT(rel)  Speedup   Area(Mλ²)  Clk(ns)\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{:<9} {}-{}   {:>11} {:>11}  {:8.3}  {:7.3}   {:8.2}  {:6.3}\n",
            r.config,
            r.lp_sp.0,
            r.lp_sp.1,
            r.execution_cycles,
            r.memory_traffic,
            r.relative_time,
            r.speedup,
            r.area,
            r.clock_ns,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcrf_workloads::small_suite;

    #[test]
    fn hierarchical_clustered_wins_on_time_but_not_cycles() {
        let suite = small_suite(0);
        let rows = run_configs(&suite, &RunOptions::fast(), &["S64", "8C16S16"]);
        let s64 = rows.iter().find(|r| r.config == "S64").unwrap();
        let h8 = rows.iter().find(|r| r.config == "8C16S16").unwrap();
        assert_eq!(s64.failed_loops, 0);
        assert_eq!(h8.failed_loops, 0);
        // More cycles on the partitioned machine...
        assert!(h8.execution_cycles >= s64.execution_cycles);
        // ...but the 3x faster clock wins overall (paper: 1.96x).
        assert!(h8.speedup > 1.0, "speedup {}", h8.speedup);
        assert!((s64.speedup - 1.0).abs() < 1e-9);
    }

    #[test]
    fn shared_bank_removes_spill_traffic() {
        let suite = small_suite(0);
        let rows = run_configs(&suite, &RunOptions::fast(), &["S32", "4C32S16", "S128"]);
        let s32 = rows.iter().find(|r| r.config == "S32").unwrap();
        let hier = rows.iter().find(|r| r.config == "4C32S16").unwrap();
        let s128 = rows.iter().find(|r| r.config == "S128").unwrap();
        // The small monolithic RF spills; the hierarchical organization's
        // traffic stays at (or near) the big monolithic RF's minimum.
        assert!(s32.memory_traffic >= s128.memory_traffic);
        assert!(hier.memory_traffic <= s32.memory_traffic);
    }
}
