//! The per-cluster span floor in the MII is the MRT's own feasibility edge.
//!
//! `hcrf_ir::cluster_res_mii` is `max ceil(occ / fus_per_cluster)` over a
//! loop's FU ops. It must be exactly the smallest II at which
//! `Mrt::placeable_on_empty` accepts every op, with each Table 5
//! configuration's own clock-scaled latencies. `hcrf_ir::mii` folds it in,
//! and the scheduler's ladder starts there, so on those ladders no rung is
//! infeasible by construction.

use hcrf::driver::ConfiguredMachine;
use hcrf::experiments::TABLE5_CONFIGS;
use hcrf_ir::{cluster_res_mii, rec_mii, res_mii, DdgBuilder, OpKind, ResourceClass};
use hcrf_sched::mrt::{Mrt, ResourceCaps};
use hcrf_sched::{IterativeScheduler, SchedulerParams};
use hcrf_workloads::small_suite;

const FU_KINDS: [OpKind; 5] = [
    OpKind::FAdd,
    OpKind::FMul,
    OpKind::FDiv,
    OpKind::FSqrt,
    OpKind::Copy,
];

#[test]
fn floor_is_the_first_ii_every_fu_op_fits_an_empty_table() {
    for name in TABLE5_CONFIGS {
        let m = ConfiguredMachine::from_name(name).unwrap().machine;
        let caps = ResourceCaps::from_machine(&m);
        // The MII reads the machine's resource counts, the MRT its caps.
        assert_eq!(m.resource_counts().fus_per_cluster, caps.fus_per_cluster);
        for kind in FU_KINDS {
            assert_eq!(kind.resource_class(), ResourceClass::Fu);
            let mut b = DdgBuilder::new("one-op");
            let _ = b.op(kind);
            let floor = cluster_res_mii(&b.build(), &m.latencies, caps.fus_per_cluster);
            let fits = |ii| Mrt::new(ii, caps).placeable_on_empty(kind, &m.latencies);
            assert!(
                fits(floor),
                "{name} {kind:?}: rejected at its floor {floor}"
            );
            if floor > 1 {
                assert!(
                    !fits(floor - 1),
                    "{name} {kind:?}: accepted below its floor {floor}"
                );
            }
        }
    }
}

#[test]
fn table5_ladders_start_at_the_floor_and_never_cut_off() {
    let loops = small_suite(150);
    for name in TABLE5_CONFIGS {
        let m = ConfiguredMachine::from_name(name).unwrap().machine;
        let fus_per_cluster = ResourceCaps::from_machine(&m).fus_per_cluster;
        let scheduler = IterativeScheduler::new(m.clone(), SchedulerParams::default());
        let mut raised = 0;
        for l in &loops {
            let base = res_mii(&l.ddg, &m.latencies, m.resource_counts())
                .max(rec_mii(&l.ddg, &m.latencies));
            let floor = cluster_res_mii(&l.ddg, &m.latencies, fus_per_cluster);
            let r = scheduler.schedule(&l.ddg);
            assert_eq!(r.mii, base.max(floor), "{name} {}", l.ddg.name);
            assert_eq!(r.stats.infeasible_cutoffs, 0, "{name} {}", l.ddg.name);
            if m.clusters() == 1 {
                assert_eq!(r.mii, base, "{name} {}: 1 cluster moved", l.ddg.name);
            }
            raised += usize::from(floor > base);
        }
        if name == "8C16S16" {
            assert!(raised > 0, "no divide loop in the reduced suite");
        }
    }
}
