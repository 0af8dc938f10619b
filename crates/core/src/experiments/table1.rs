//! Table 1: breakdown of execution cycles by loop bound class for three
//! equally-sized register files (S128, 4C32, 1C64S64).

use crate::driver::{run_suite, ConfiguredMachine, RunOptions};
use hcrf_ir::Loop;
use hcrf_perf::{classify_loop, BoundClass};

/// The three configurations the table compares (all 128 registers total).
pub const CONFIGS: [&str; 3] = ["S128", "4C32", "1C64S64"];

/// Breakdown for one configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct Table1Column {
    /// Configuration name.
    pub config: String,
    /// Percentage of loops in each class (same order as [`BoundClass::all`]).
    pub percent_loops: [f64; 4],
    /// Execution cycles attributed to each class.
    pub cycles: [u64; 4],
    /// Total execution cycles.
    pub total_cycles: u64,
}

/// Run the Table 1 experiment.
pub fn run(suite: &[Loop], options: &RunOptions) -> Vec<Table1Column> {
    CONFIGS
        .iter()
        .map(|name| column(suite, options, name))
        .collect()
}

/// Evaluate one configuration column.
pub fn column(suite: &[Loop], options: &RunOptions, name: &str) -> Table1Column {
    let config = ConfiguredMachine::from_name(name).expect("valid configuration");
    let run = run_suite(&config, suite, options);
    let mut counts = [0usize; 4];
    let mut cycles = [0u64; 4];
    for (l, r) in suite.iter().zip(run.loops.iter()) {
        let class = classify_loop(
            l,
            &r.schedule,
            &config.machine.latencies,
            config.machine.fu_count,
            config.machine.mem_ports,
        );
        let idx = BoundClass::all().iter().position(|c| *c == class).unwrap();
        counts[idx] += 1;
        cycles[idx] += r.performance.total_cycles();
    }
    let n = suite.len().max(1) as f64;
    Table1Column {
        config: name.to_string(),
        percent_loops: [
            100.0 * counts[0] as f64 / n,
            100.0 * counts[1] as f64 / n,
            100.0 * counts[2] as f64 / n,
            100.0 * counts[3] as f64 / n,
        ],
        cycles,
        total_cycles: cycles.iter().sum(),
    }
}

/// Format the table like the paper (rows = bound classes, columns = configs).
pub fn format(columns: &[Table1Column]) -> String {
    let mut out = String::from("Loop bounded   ");
    for c in columns {
        out.push_str(&format!("| {:>18} ", c.config));
    }
    out.push('\n');
    for (i, class) in BoundClass::all().iter().enumerate() {
        out.push_str(&format!("{:<14} ", class.label()));
        for c in columns {
            out.push_str(&format!(
                "| {:6.1}% {:>10} ",
                c.percent_loops[i], c.cycles[i]
            ));
        }
        out.push('\n');
    }
    out.push_str("Total          ");
    for c in columns {
        out.push_str(&format!("| 100.0%  {:>10} ", c.total_cycles));
    }
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcrf_workloads::small_suite;

    #[test]
    fn percentages_sum_to_100() {
        let suite = small_suite(0);
        let col = column(&suite, &RunOptions::fast(), "S128");
        let sum: f64 = col.percent_loops.iter().sum();
        assert!((sum - 100.0).abs() < 1e-6, "sum {sum}");
        assert_eq!(col.total_cycles, col.cycles.iter().sum::<u64>());
    }

    #[test]
    fn formatting_mentions_all_classes() {
        let suite = small_suite(0);
        let cols = vec![column(&suite, &RunOptions::fast(), "S128")];
        let s = format(&cols);
        for label in ["F.U.", "MemPort", "Rec.", "Com.", "Total"] {
            assert!(s.contains(label), "{label} missing from\n{s}");
        }
    }
}
