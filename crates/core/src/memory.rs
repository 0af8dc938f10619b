//! Adapter between scheduled loops and the cache simulator.

use hcrf_machine::MachineConfig;
use hcrf_memsim::{is_prefetchable, ScheduledAccess};
use hcrf_sched::ScheduleResult;

/// Extract the memory accesses of a scheduled kernel, with the latency the
/// scheduler assumed for each: the hit latency normally, the miss latency for
/// loads covered by binding prefetching — but only when the schedule was
/// actually produced with `binding_prefetch` enabled; otherwise every load
/// was scheduled at the hit latency and every miss will stall.
///
/// Returns an empty vector when the schedule was produced without keeping the
/// final kernel (`SchedulerParams::keep_schedule == false`).
pub fn kernel_accesses(
    schedule: &ScheduleResult,
    machine: &MachineConfig,
    binding_prefetch: bool,
) -> Vec<ScheduledAccess> {
    let Some(kernel) = &schedule.kernel else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for (node, p) in kernel.nodes.iter().zip(kernel.placements.iter()) {
        let Some(mem) = node.mem else { continue };
        if !node.kind.is_memory() {
            continue;
        }
        let is_load = node.kind == hcrf_ir::OpKind::Load;
        let assumed = if is_load {
            if binding_prefetch && is_prefetchable(node) {
                machine.latencies.load_miss
            } else {
                machine.latencies.load
            }
        } else {
            machine.latencies.store
        };
        out.push(ScheduledAccess {
            issue_cycle: p.cycle,
            is_load,
            access: mem,
            assumed_latency: assumed,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcrf_ir::{DdgBuilder, OpKind};
    use hcrf_machine::RfOrganization;
    use hcrf_sched::{schedule_loop, SchedulerParams};

    #[test]
    fn accesses_extracted_with_assumed_latencies() {
        let mut b = DdgBuilder::new("m");
        let l = b.load(0, 8);
        let a = b.op(OpKind::FAdd);
        let s = b.store(1, 8);
        b.flow(l, a, 0).flow(a, s, 0);
        let g = b.build();
        let machine = MachineConfig::paper_baseline(RfOrganization::monolithic(64));
        let params = SchedulerParams::default().with_binding_prefetch();
        let r = schedule_loop(&g, &machine, &params);
        let accesses = kernel_accesses(&r, &machine, true);
        assert_eq!(accesses.len(), 2);
        let load = accesses.iter().find(|a| a.is_load).unwrap();
        // The streaming load is prefetchable: it was scheduled at miss latency.
        assert_eq!(load.assumed_latency, machine.latencies.load_miss);
        let store = accesses.iter().find(|a| !a.is_load).unwrap();
        assert_eq!(store.assumed_latency, machine.latencies.store);
    }

    #[test]
    fn no_schedule_kept_gives_empty_accesses() {
        let mut b = DdgBuilder::new("m");
        let l = b.load(0, 8);
        let s = b.store(1, 8);
        b.flow(l, s, 0);
        let g = b.build();
        let machine = MachineConfig::paper_baseline(RfOrganization::monolithic(64));
        let r = schedule_loop(&g, &machine, &SchedulerParams::default().without_schedule());
        assert!(kernel_accesses(&r, &machine, true).is_empty());
    }
}
