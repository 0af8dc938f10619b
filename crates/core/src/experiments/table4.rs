//! Table 4: MIRS_HC against the non-iterative scheduler for hierarchical
//! non-clustered register files ([36] in the paper).

use hcrf_ir::Loop;
use hcrf_machine::{Capacity, MachineConfig, RfOrganization};
use hcrf_sched::{schedule_loop, schedule_loop_baseline36, SchedulerParams};

/// Aggregate comparison between the two schedulers.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Table4Summary {
    /// Loops where the baseline achieves a smaller II than MIRS_HC.
    pub baseline_better: usize,
    /// Loops where both achieve the same II.
    pub equal: usize,
    /// Loops where MIRS_HC achieves a smaller II.
    pub baseline_worse: usize,
    /// ΣII of the baseline over loops where it is better.
    pub baseline_better_sum: (u64, u64),
    /// ΣII over loops where they are equal (same for both).
    pub equal_sum: u64,
    /// ΣII of (baseline, MIRS_HC) over loops where the baseline is worse.
    pub baseline_worse_sum: (u64, u64),
    /// Total ΣII of the baseline scheduler.
    pub total_baseline: u64,
    /// Total ΣII of MIRS_HC.
    pub total_mirs_hc: u64,
}

/// The hierarchical non-clustered machine the comparison runs on
/// (unbounded banks so register capacity does not interfere).
pub fn comparison_machine() -> MachineConfig {
    MachineConfig::paper_baseline(RfOrganization::Hierarchical {
        clusters: 1,
        cluster_regs: Capacity::Unbounded,
        shared_regs: Capacity::Unbounded,
    })
}

/// Run the comparison over a suite.
pub fn run(suite: &[Loop]) -> Table4Summary {
    let machine = comparison_machine();
    let params = SchedulerParams::default().without_schedule();
    let mut summary = Table4Summary::default();
    for l in suite {
        let mirs = schedule_loop(&l.ddg, &machine, &params);
        let base = schedule_loop_baseline36(&l.ddg, &machine);
        let mirs_ii = mirs.ii as u64;
        let base_ii = base.ii as u64;
        summary.total_baseline += base_ii;
        summary.total_mirs_hc += mirs_ii;
        if base_ii < mirs_ii {
            summary.baseline_better += 1;
            summary.baseline_better_sum.0 += base_ii;
            summary.baseline_better_sum.1 += mirs_ii;
        } else if base_ii == mirs_ii {
            summary.equal += 1;
            summary.equal_sum += base_ii;
        } else {
            summary.baseline_worse += 1;
            summary.baseline_worse_sum.0 += base_ii;
            summary.baseline_worse_sum.1 += mirs_ii;
        }
    }
    summary
}

/// Format the summary like the paper's table.
pub fn format(s: &Table4Summary) -> String {
    let total = s.baseline_better + s.equal + s.baseline_worse;
    format!(
        "[36] vs MIRS_HC                 #loops   ΣII[36]   ΣII MIRS_HC\n\
         [36] better than MIRS_HC     {:>8}  {:>8}   {:>8}\n\
         [36] equal as MIRS_HC        {:>8}  {:>8}   {:>8}\n\
         [36] worse than MIRS_HC      {:>8}  {:>8}   {:>8}\n\
         Total                        {:>8}  {:>8}   {:>8}\n",
        s.baseline_better,
        s.baseline_better_sum.0,
        s.baseline_better_sum.1,
        s.equal,
        s.equal_sum,
        s.equal_sum,
        s.baseline_worse,
        s.baseline_worse_sum.0,
        s.baseline_worse_sum.1,
        total,
        s.total_baseline,
        s.total_mirs_hc,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcrf_workloads::small_suite;

    #[test]
    fn mirs_hc_total_not_worse_than_baseline() {
        let suite = small_suite(0);
        let s = run(&suite);
        assert_eq!(s.baseline_better + s.equal + s.baseline_worse, suite.len());
        // The paper's headline: MIRS_HC reduces the total ΣII.
        assert!(
            s.total_mirs_hc <= s.total_baseline,
            "MIRS_HC {} vs baseline {}",
            s.total_mirs_hc,
            s.total_baseline
        );
        // Most loops should be equal (both achieve MII).
        assert!(s.equal > suite.len() / 2);
    }

    #[test]
    fn format_contains_counts() {
        let s = Table4Summary {
            baseline_better: 1,
            equal: 2,
            baseline_worse: 3,
            ..Default::default()
        };
        let txt = format(&s);
        assert!(txt.contains("Total"));
        assert!(txt.contains("MIRS_HC"));
    }
}
