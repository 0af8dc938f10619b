//! Figure 6: real-memory evaluation with selective binding prefetching —
//! useful and stall cycles (and times) relative to the monolithic S64
//! baseline's useful cycles.

use crate::driver::{run_suite, ConfiguredMachine, RunOptions};
use crate::experiments::FIG6_CONFIGS;
use hcrf_ir::Loop;

/// One bar pair of Figure 6.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig6Bar {
    /// Configuration name.
    pub config: String,
    /// Useful cycles relative to S64's useful cycles.
    pub relative_useful_cycles: f64,
    /// Stall cycles relative to S64's useful cycles.
    pub relative_stall_cycles: f64,
    /// Useful time relative to S64's useful time.
    pub relative_useful_time: f64,
    /// Stall time relative to S64's useful time.
    pub relative_stall_time: f64,
    /// Speedup (total time) over S64.
    pub speedup: f64,
}

/// Run the Figure 6 experiment (real memory, binding prefetching).
pub fn run(suite: &[Loop], options: &RunOptions) -> Vec<Fig6Bar> {
    run_configs(suite, options, &FIG6_CONFIGS)
}

/// Run over an arbitrary configuration list (S64 is the normaliser).
pub fn run_configs(suite: &[Loop], options: &RunOptions, configs: &[&str]) -> Vec<Fig6Bar> {
    let opts = options.with_real_memory();
    let mut names: Vec<&str> = configs.to_vec();
    if !names.contains(&"S64") {
        names.push("S64");
    }
    let runs: Vec<(ConfiguredMachine, crate::driver::SuiteRun)> = names
        .iter()
        .map(|name| {
            let cfg = ConfiguredMachine::from_name(name).expect("valid configuration");
            let run = run_suite(&cfg, suite, &opts);
            (cfg, run)
        })
        .collect();
    let (base_cfg, base_run) = runs
        .iter()
        .find(|(c, _)| c.name() == "S64")
        .expect("baseline present");
    let base_useful_cycles = base_run.aggregate.useful_cycles.max(1) as f64;
    let base_useful_time = base_useful_cycles * base_cfg.hardware.clock_ns;
    let base_total_time = (base_run.aggregate.total_cycles() as f64) * base_cfg.hardware.clock_ns;
    let mut bars: Vec<Fig6Bar> = runs
        .iter()
        .filter(|(c, _)| configs.contains(&c.name().as_str()))
        .map(|(cfg, run)| {
            let clk = cfg.hardware.clock_ns;
            let useful = run.aggregate.useful_cycles as f64;
            let stall = run.aggregate.stall_cycles as f64;
            Fig6Bar {
                config: cfg.name(),
                relative_useful_cycles: useful / base_useful_cycles,
                relative_stall_cycles: stall / base_useful_cycles,
                relative_useful_time: useful * clk / base_useful_time,
                relative_stall_time: stall * clk / base_useful_time,
                speedup: base_total_time / ((useful + stall) * clk),
            }
        })
        .collect();
    bars.sort_by_key(|b| {
        configs
            .iter()
            .position(|c| *c == b.config)
            .unwrap_or(usize::MAX)
    });
    bars
}

/// Format the bars as a table (cycles and time, split useful/stall).
pub fn format(bars: &[Fig6Bar]) -> String {
    let mut out = String::from(
        "Config     CyclesUseful CyclesStall | TimeUseful TimeStall | Speedup(vs S64)\n",
    );
    for b in bars {
        out.push_str(&format!(
            "{:<10} {:11.3} {:11.3} | {:10.3} {:9.3} | {:7.3}\n",
            b.config,
            b.relative_useful_cycles,
            b.relative_stall_cycles,
            b.relative_useful_time,
            b.relative_stall_time,
            b.speedup,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcrf_workloads::small_suite;

    #[test]
    fn partitioned_rfs_close_the_gap_on_time_under_real_memory() {
        // On the reduced kernel suite (recurrence heavy) the clock advantage
        // does not always fully offset the extra cycles, but the time picture
        // must be a large improvement over the cycle picture and stay in the
        // same ballpark as the baseline. The full-suite run does not yet
        // reproduce the paper's >1 speedups either: its geometric-mean
        // hierarchical speedup is about 0.81, and 8C16S16 sits at 0.68.
        let suite = small_suite(0);
        let bars = run_configs(&suite, &RunOptions::fast(), &["S64", "8C16S16"]);
        let s64 = bars.iter().find(|b| b.config == "S64").unwrap();
        let h8 = bars.iter().find(|b| b.config == "8C16S16").unwrap();
        // Baseline is its own normaliser.
        assert!((s64.relative_useful_cycles - 1.0).abs() < 1e-9);
        assert!((s64.relative_useful_time - 1.0).abs() < 1e-9);
        // The hierarchical-clustered machine needs more cycles...
        assert!(h8.relative_useful_cycles >= s64.relative_useful_cycles);
        // ...but its faster clock recovers most (or all) of the difference.
        assert!(
            h8.relative_useful_time < 0.6 * h8.relative_useful_cycles,
            "time {} vs cycles {}",
            h8.relative_useful_time,
            h8.relative_useful_cycles
        );
        assert!(h8.speedup > 0.7, "speedup {}", h8.speedup);
    }
}
