//! Table 3: static evaluation of the scheduler with unbounded registers,
//! with unlimited and limited bandwidth between register banks.

use crate::driver::{run_suite, ConfiguredMachine, RunOptions};
use hcrf_ir::Loop;
use hcrf_machine::{Capacity, RfOrganization};

/// The register-file shapes of Table 3 (all banks unbounded).
pub fn configurations() -> Vec<(String, RfOrganization)> {
    vec![
        (
            "S∞".to_string(),
            RfOrganization::Monolithic {
                regs: Capacity::Unbounded,
            },
        ),
        ("1C∞S∞".to_string(), hier(1)),
        (
            "2C∞".to_string(),
            RfOrganization::Clustered {
                clusters: 2,
                regs_per_cluster: Capacity::Unbounded,
            },
        ),
        ("2C∞S∞".to_string(), hier(2)),
        (
            "4C∞".to_string(),
            RfOrganization::Clustered {
                clusters: 4,
                regs_per_cluster: Capacity::Unbounded,
            },
        ),
        ("4C∞S∞".to_string(), hier(4)),
        ("8C∞S∞".to_string(), hier(8)),
    ]
}

fn hier(clusters: u32) -> RfOrganization {
    RfOrganization::Hierarchical {
        clusters,
        cluster_regs: Capacity::Unbounded,
        shared_regs: Capacity::Unbounded,
    }
}

/// One row of Table 3.
#[derive(Debug, Clone, PartialEq)]
pub struct Table3Row {
    /// Configuration label (with ∞ marks).
    pub config: String,
    /// Percentage of loops achieving their MII (unlimited bandwidth).
    pub unlimited_percent_mii: f64,
    /// ΣII with unlimited bandwidth.
    pub unlimited_sum_ii: u64,
    /// Scheduling time in seconds with unlimited bandwidth.
    pub unlimited_sched_seconds: f64,
    /// `lp-sp` ports used in the limited-bandwidth run.
    pub lp_sp: (u32, u32),
    /// Percentage of loops achieving their MII (limited bandwidth).
    pub limited_percent_mii: f64,
    /// ΣII with limited bandwidth.
    pub limited_sum_ii: u64,
    /// Scheduling time in seconds with limited bandwidth.
    pub limited_sched_seconds: f64,
}

/// Run the Table 3 experiment.
pub fn run(suite: &[Loop], options: &RunOptions) -> Vec<Table3Row> {
    configurations()
        .into_iter()
        .map(|(label, rf)| row(suite, options, label, rf))
        .collect()
}

/// Evaluate one configuration (both bandwidth scenarios).
pub fn row(suite: &[Loop], options: &RunOptions, label: String, rf: RfOrganization) -> Table3Row {
    // Unlimited bandwidth: baseline latencies, infinite lp/sp/buses.
    let unlimited_cfg = {
        let mut c = ConfiguredMachine::with_baseline_latencies(rf);
        c.machine = c.machine.with_unbounded_bandwidth();
        c
    };
    let unlimited = run_suite(&unlimited_cfg, suite, options);

    // Limited bandwidth: the Section 4 port counts.
    let limited_cfg = ConfiguredMachine::with_baseline_latencies(rf);
    let lp_sp = (limited_cfg.machine.lp, limited_cfg.machine.sp);
    let limited = run_suite(&limited_cfg, suite, options);

    Table3Row {
        config: label,
        unlimited_percent_mii: unlimited.aggregate.percent_at_mii(),
        unlimited_sum_ii: unlimited.aggregate.sum_ii,
        unlimited_sched_seconds: unlimited.scheduling_seconds,
        lp_sp,
        limited_percent_mii: limited.aggregate.percent_at_mii(),
        limited_sum_ii: limited.aggregate.sum_ii,
        limited_sched_seconds: limited.scheduling_seconds,
    }
}

/// Format rows like the paper's table.
pub fn format(rows: &[Table3Row]) -> String {
    let mut out =
        String::from("Config     | %MII    ΣII    time(s) | lp-sp  %MII    ΣII    time(s)\n");
    for r in rows {
        out.push_str(&format!(
            "{:<10} | {:5.1} {:>7} {:8.2} | {}-{}   {:5.1} {:>7} {:8.2}\n",
            r.config,
            r.unlimited_percent_mii,
            r.unlimited_sum_ii,
            r.unlimited_sched_seconds,
            r.lp_sp.0,
            r.lp_sp.1,
            r.limited_percent_mii,
            r.limited_sum_ii,
            r.limited_sched_seconds,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcrf_workloads::small_suite;

    #[test]
    fn monolithic_unbounded_achieves_mii_for_most_loops() {
        let suite = small_suite(0);
        let r = row(
            &suite,
            &RunOptions::fast(),
            "S∞".into(),
            RfOrganization::Monolithic {
                regs: Capacity::Unbounded,
            },
        );
        assert!(
            r.unlimited_percent_mii > 80.0,
            "{}",
            r.unlimited_percent_mii
        );
        // With a monolithic RF the bandwidth limit is irrelevant.
        assert_eq!(r.unlimited_sum_ii, r.limited_sum_ii);
    }

    #[test]
    fn more_clusters_cannot_reduce_sum_ii() {
        let suite = small_suite(0);
        let opts = RunOptions::fast();
        let mono = row(
            &suite,
            &opts,
            "S∞".into(),
            RfOrganization::Monolithic {
                regs: Capacity::Unbounded,
            },
        );
        let hier8 = row(&suite, &opts, "8C∞S∞".into(), hier(8));
        assert!(hier8.unlimited_sum_ii >= mono.unlimited_sum_ii);
        // Limiting the bandwidth can only make things worse (or equal).
        assert!(hier8.limited_sum_ii >= hier8.unlimited_sum_ii);
    }
}
