//! Measurement of the inter-level port requirements of scheduled loops
//! (Figure 4 of the paper).
//!
//! The paper sizes the `lp` (LoadR) and `sp` (StoreR) ports between the
//! cluster banks and the shared bank by scheduling every loop on a machine
//! with unbounded registers and unbounded inter-level bandwidth and then
//! measuring how many ports per distributed bank each loop actually needs;
//! the port counts are chosen so at least 95 % of the loops are satisfied.

use crate::scheduler::schedule_loop;
use crate::types::{ScheduleResult, SchedulerParams};
use hcrf_ir::{Ddg, OpKind};
use hcrf_machine::{Capacity, MachineConfig, RfOrganization};

/// Port requirement of one loop: the number of LoadR / StoreR ports per
/// cluster bank the schedule needs in its busiest kernel row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PortRequirement {
    /// LoadR (shared-bank read) ports needed per cluster bank.
    pub lp: u32,
    /// StoreR (shared-bank write) ports needed per cluster bank.
    pub sp: u32,
}

/// Measure the port requirement of one already-scheduled loop.
///
/// The paper sizes the ports by the number of LoadR/StoreR issues each
/// distributed bank needs *on average* per kernel cycle: a bank that issues
/// `k` LoadR operations across the `II` rows of the kernel needs
/// `ceil(k / II)` LoadR ports (a scheduler with that many ports can always
/// spread the issues over the rows). The requirement of the loop is the
/// worst bank's value.
pub fn measure_ports(result: &ScheduleResult, clusters: u32) -> PortRequirement {
    let Some(kernel) = &result.kernel else {
        return PortRequirement { lp: 0, sp: 0 };
    };
    let ii = result.ii.max(1);
    let c = clusters.max(1) as usize;
    let mut loadr = vec![0u32; c];
    let mut storer = vec![0u32; c];
    for (node, p) in kernel.nodes.iter().zip(kernel.placements.iter()) {
        let cl = (p.cluster as usize).min(c - 1);
        match node.kind {
            OpKind::LoadR => loadr[cl] += 1,
            OpKind::StoreR => storer[cl] += 1,
            _ => {}
        }
    }
    let per_port = |count: u32| count.div_ceil(ii);
    let lp = loadr.iter().map(|&k| per_port(k)).max().unwrap_or(0);
    let sp = storer.iter().map(|&k| per_port(k)).max().unwrap_or(0);
    PortRequirement { lp, sp }
}

/// Schedule a loop on a hierarchical machine with `clusters` clusters,
/// unbounded register banks and unbounded inter-level bandwidth, and measure
/// its port requirement (the Figure 4 experiment for a single loop).
pub fn port_requirements(ddg: &Ddg, clusters: u32) -> PortRequirement {
    let rf = RfOrganization::Hierarchical {
        clusters,
        cluster_regs: Capacity::Unbounded,
        shared_regs: Capacity::Unbounded,
    };
    let machine = MachineConfig::paper_baseline(rf).with_unbounded_bandwidth();
    let result = schedule_loop(ddg, &machine, &SchedulerParams::default());
    measure_ports(&result, clusters)
}

/// Cumulative distribution of port requirements over a set of loops:
/// `cdf[k]` is the percentage of loops that need at most `k` ports.
pub fn cumulative_distribution(requirements: &[u32], max_ports: u32) -> Vec<f64> {
    let n = requirements.len().max(1) as f64;
    (0..=max_ports)
        .map(|k| {
            let satisfied = requirements.iter().filter(|&&r| r <= k).count();
            100.0 * satisfied as f64 / n
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcrf_ir::DdgBuilder;

    fn kernel() -> Ddg {
        let mut b = DdgBuilder::new("k");
        let l1 = b.load(0, 8);
        let l2 = b.load(1, 8);
        let m = b.op(OpKind::FMul);
        let a = b.op(OpKind::FAdd);
        let s = b.store(2, 8);
        b.flow(l1, m, 0).flow(l2, a, 0).flow(m, a, 0).flow(a, s, 0);
        b.build()
    }

    #[test]
    fn simple_kernel_needs_few_ports() {
        let g = kernel();
        for clusters in [1u32, 2, 4, 8] {
            let req = port_requirements(&g, clusters);
            assert!(req.lp >= 1, "{clusters} clusters: lp {}", req.lp);
            assert!(req.lp <= 4);
            assert!(req.sp <= 2);
        }
    }

    #[test]
    fn cdf_is_monotone_and_reaches_100() {
        let reqs = vec![1, 1, 2, 3, 1, 2];
        let cdf = cumulative_distribution(&reqs, 4);
        assert_eq!(cdf.len(), 5);
        for w in cdf.windows(2) {
            assert!(w[1] >= w[0]);
        }
        assert!((cdf[4] - 100.0).abs() < 1e-9);
        assert!((cdf[0] - 0.0).abs() < 1e-9);
    }

    #[test]
    fn loop_without_memory_needs_no_ports() {
        let mut b = DdgBuilder::new("nomem");
        let a = b.op(OpKind::FAdd);
        b.flow(a, a, 1);
        let g = b.build();
        let req = port_requirements(&g, 4);
        assert_eq!(req.lp, 0);
        assert_eq!(req.sp, 0);
    }
}
