//! Public parameter and result types of the schedulers.

use hcrf_ir::{Edge, Node, NodeId};
use hcrf_machine::MachineConfig;
use hcrf_telemetry::Telemetry;

/// Which register bank a value lives in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BankAssignment {
    /// A first-level cluster bank (or the single monolithic bank).
    Cluster(u32),
    /// The shared second-level bank of a hierarchical organization.
    Shared,
}

/// The register capacities of one bank type for which every capacity check
/// of a `schedule()` call comes out as it did: `min..=max`. `min` is the
/// largest MaxLive a check found within capacity, `max` is one below the
/// smallest MaxLive a check found over capacity. A check never made leaves
/// the window at `0..=u32::MAX`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BankWindow {
    /// Smallest capacity inside the window.
    pub min: u32,
    /// Largest capacity inside the window.
    pub max: u32,
}

impl Default for BankWindow {
    fn default() -> Self {
        BankWindow {
            min: 0,
            max: u32::MAX,
        }
    }
}

impl BankWindow {
    /// Record one capacity check, `live > capacity`, and return its outcome.
    #[inline]
    pub fn check(&mut self, live: u32, capacity: u32) -> bool {
        if live > capacity {
            self.max = self.max.min(live - 1);
            true
        } else {
            self.min = self.min.max(live);
            false
        }
    }

    /// Whether `capacity` makes every recorded check come out the same.
    pub fn contains(&self, capacity: u32) -> bool {
        (self.min..=self.max).contains(&capacity)
    }
}

/// The capacity window of one `schedule()` call, per bank type: every
/// capacity check of every rung (cold and warm attempts, gap-scan rungs,
/// the spill checks after each pop and the end-of-attempt check) folded
/// into one [`BankWindow`] for the cluster banks and one for the shared
/// bank.
///
/// The scheduler reads a machine's register capacities only in those
/// checks. A machine of the same scheduling class
/// ([`crate::IterativeScheduler::class_key`]) whose capacities the window
/// [covers](CapacityWindow::covers) therefore makes every check, and so
/// every decision, come out the same: its [`ScheduleResult`] is identical,
/// window included.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CapacityWindow {
    /// Capacities of the cluster banks (the single bank of a monolithic
    /// organization).
    pub cluster: BankWindow,
    /// Capacities of the shared bank of a hierarchical organization.
    pub shared: BankWindow,
}

impl CapacityWindow {
    /// Whether `machine`'s bank capacities lie inside the window. Only
    /// meaningful for a machine of the scheduling class the window was
    /// recorded on.
    pub fn covers(&self, machine: &MachineConfig) -> bool {
        self.cluster.contains(machine.cluster_regs())
            && machine
                .shared_regs()
                .is_none_or(|cap| self.shared.contains(cap))
    }
}

/// Placement of one operation in the final modulo schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Placement {
    /// Issue cycle within the flat (non-modulo) schedule, normalised so the
    /// earliest operation issues at cycle 0.
    pub cycle: u32,
    /// Cluster executing the operation (0 for monolithic machines and for
    /// memory operations of hierarchical machines, which use no cluster FU).
    pub cluster: u32,
}

impl Placement {
    /// Row of the modulo reservation table this placement occupies.
    pub fn row(&self, ii: u32) -> u32 {
        self.cycle % ii.max(1)
    }

    /// Stage (iteration offset) of the placement.
    pub fn stage(&self, ii: u32) -> u32 {
        self.cycle / ii.max(1)
    }
}

/// The final kernel of a successful schedule: every operation of the
/// scheduled loop body (original and inserted), the dependences between
/// them and each operation's placement, as flat arrays indexed by the
/// kernel's own [`NodeId`]s. It holds no adjacency lists and no loop name:
/// its readers ([`crate::validate_schedule`], [`crate::port_profile`], the
/// memory simulator's access replay) only walk the arrays.
#[derive(Debug, Clone, PartialEq)]
pub struct Kernel {
    /// Operations, in the order of the working graph they were scheduled in.
    pub nodes: Box<[Node]>,
    /// Dependences between the operations, in kernel node ids.
    pub edges: Box<[Edge]>,
    /// Placement of each operation, aligned with `nodes`, normalised so the
    /// earliest operation issues at cycle 0.
    pub placements: Box<[Placement]>,
}

impl Kernel {
    /// The operation `id`.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// Number of memory operations (original and spill).
    pub fn memory_ops(&self) -> usize {
        self.nodes.iter().filter(|n| n.kind.is_memory()).count()
    }
}

/// Tuning knobs of the iterative scheduler.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SchedulerParams {
    /// Attempts allowed per node at a given II before giving up
    /// (the paper's *Budget Ratio*; it uses values around 5-6).
    pub budget_ratio: u32,
    /// Hard upper bound on the II explored before declaring failure.
    pub max_ii: u32,
    /// Enable backtracking (`Force_and_Eject`). Disabling it yields the
    /// non-iterative baseline scheduler of Table 4.
    pub backtracking: bool,
    /// Schedule loads with the miss latency unless they sit on a recurrence
    /// or are spill reloads (selective binding prefetching, Section 6.2).
    pub binding_prefetch: bool,
    /// Keep the final [`Kernel`] (operations, dependences and placements)
    /// in the result. A kept kernel is three exact-size arrays behind one
    /// box, about 1 KB and four allocations per pair on the paper's loops;
    /// disable it in sweeps that only read the summary numbers.
    pub keep_schedule: bool,
}

impl Default for SchedulerParams {
    fn default() -> Self {
        SchedulerParams {
            budget_ratio: 6,
            max_ii: 128,
            backtracking: true,
            binding_prefetch: false,
            keep_schedule: true,
        }
    }
}

impl SchedulerParams {
    /// Parameters of the non-iterative baseline scheduler ([36] in the
    /// paper): same ordering and heuristics but no backtracking.
    pub fn baseline36() -> Self {
        SchedulerParams {
            backtracking: false,
            ..Default::default()
        }
    }

    /// Enable selective binding prefetching (real-memory scenario).
    pub fn with_binding_prefetch(mut self) -> Self {
        self.binding_prefetch = true;
        self
    }

    /// Do not keep the final [`Kernel`] in the result.
    pub fn without_schedule(mut self) -> Self {
        self.keep_schedule = false;
        self
    }
}

/// Counters describing the work the scheduler performed. Every counter is
/// deterministic, so equality compares all of them: the reference scheduler
/// ([`crate::IterativeScheduler::with_reference`]) must match the default on
/// each one.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedulerStats {
    /// Number of node scheduling attempts performed (across all IIs).
    pub attempts: u64,
    /// Number of nodes ejected by backtracking (across all IIs, including
    /// attempts that were abandoned).
    pub ejections: u64,
    /// Number of II values actually attempted.
    pub ii_restarts: u32,
    /// Number of candidate II values the budget-aware ladder skipped over
    /// without attempting them (zero under
    /// [`crate::IterativeScheduler::with_unit_ladder`]). IIs inside a skip
    /// gap that are attempted after all by the success-side verification
    /// scan count as restarts, not skips.
    pub ii_skips: u32,
    /// Attempt-state preparations beyond the first: arena resets by default,
    /// full rebuilds in reference mode (counted the same so results stay
    /// bit-comparable between the two).
    pub arena_resets: u32,
    /// Attempts that failed on a budget-family limit (scheduling budget,
    /// spill-round limit or a completed-but-over-capacity schedule) rather
    /// than a structural conflict — the recorded ejection-pressure signal
    /// the budget-aware ladder bases its skip stride on.
    pub budget_exhausts: u32,
    /// Times the ejection guard
    /// ([`crate::scheduler::EJECTION_GUARD_LIMIT`]) tripped while forcing a
    /// slot, abandoning the II attempt. Accumulated across all IIs of the
    /// loop, including attempts that failed.
    pub guard_trips: u64,
    /// Times a forced placement was abandoned *before* its ejection cascade
    /// because [`crate::mrt::Mrt::placeable_on_empty`] proved the conflict
    /// structurally unsatisfiable — zero capacity for the operation's class at any row
    /// even on an empty table (e.g. a divide longer than the II on this
    /// cluster's units), so no victim set could ever free the slot.
    /// Accumulated across all IIs of the loop, like `guard_trips`. The
    /// ladder starts at [`crate::IterativeScheduler::mii`], which includes
    /// the per-cluster span floor, so this reads 0 on the Table 5 ladders;
    /// it stays as the guard for a machine with no unit of some class.
    pub infeasible_cutoffs: u64,
    /// II restarts that warm-started: seeded by modulo-remapping the
    /// previous failed attempt's surviving placements instead of an empty
    /// store (zero under
    /// [`crate::IterativeScheduler::with_cold_attempts`] and whenever the
    /// previous failure was ineligible — see the warm-eligibility rules in
    /// the ladder).
    pub warm_starts: u32,
    /// Total placements retained across all warm starts — the nodes that
    /// kept their cycle and cluster through the modulo-remap.
    pub warm_nodes_retained: u64,
    /// Pressure-tracker refresh requests; every one rescans the def's
    /// consumer edges. The tracker runs in every mode, so reference runs
    /// count the same refreshes as the default.
    pub pressure_refreshes: u64,
    /// Always 0: the tracker no longer skips refresh requests, so every
    /// request counts in `pressure_refreshes`. The field stays because the
    /// `perfbench` harness builds this struct field by field.
    pub refresh_skips: u64,
    /// Reservation rows the MRT updates of place/unplace cover:
    /// `min(occupancy, II)` per reservation, so a 17-cycle divide placed at
    /// II 24 counts 17 — the row volume of the store's place/eject
    /// transactions, whether or not a row is walked one at a time.
    pub fused_row_updates: u64,
}

impl SchedulerStats {
    /// Fold one attempt's counters into a ladder-level accumulator. This is
    /// the single place per-attempt work is summed across II restarts; the
    /// ladder-owned counters (`ii_restarts`, `ii_skips`, `arena_resets`,
    /// `budget_exhausts`, `warm_starts`, `warm_nodes_retained`) are
    /// maintained directly by the ladder loop and deliberately not absorbed
    /// here.
    pub fn absorb_attempt(&mut self, attempt: &SchedulerStats) {
        self.attempts += attempt.attempts;
        self.ejections += attempt.ejections;
        self.guard_trips += attempt.guard_trips;
        self.infeasible_cutoffs += attempt.infeasible_cutoffs;
        self.pressure_refreshes += attempt.pressure_refreshes;
        self.fused_row_updates += attempt.fused_row_updates;
    }

    /// Publish every counter into the telemetry metrics registry under the
    /// `sched.` prefix (no-op on a disabled handle).
    pub fn publish(&self, telemetry: &Telemetry) {
        telemetry.counter_add("sched.attempts", self.attempts);
        telemetry.counter_add("sched.ejections", self.ejections);
        telemetry.counter_add("sched.ii_restarts", self.ii_restarts as u64);
        telemetry.counter_add("sched.ii_skips", self.ii_skips as u64);
        telemetry.counter_add("sched.arena_resets", self.arena_resets as u64);
        telemetry.counter_add("sched.budget_exhausts", self.budget_exhausts as u64);
        telemetry.counter_add("sched.guard_trips", self.guard_trips);
        telemetry.counter_add("sched.infeasible_cutoffs", self.infeasible_cutoffs);
        telemetry.counter_add("sched.warm_starts", self.warm_starts as u64);
        telemetry.counter_add("sched.warm_nodes_retained", self.warm_nodes_retained);
        telemetry.counter_add("pressure.refreshes", self.pressure_refreshes);
        telemetry.counter_add("mrt.fused_row_updates", self.fused_row_updates);
    }
}

/// Result of scheduling one loop for one machine configuration: the summary
/// numbers every sweep reads and, when [`SchedulerParams::keep_schedule`] is
/// set, the final [`Kernel`]. A kept kernel costs four allocations (the box
/// and its three arrays), about 1 KB per pair on the paper's loops; the
/// rest of the result allocates only its cluster MaxLive vector. It names
/// neither the loop nor the machine: its caller knows both.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduleResult {
    /// Achieved initiation interval.
    pub ii: u32,
    /// Lower bound `max(ResMII, RecMII, per-cluster span floor)` for this
    /// loop and machine ([`crate::IterativeScheduler::mii`]).
    pub mii: u32,
    /// Stage count of the schedule (number of II-cycle stages of the kernel).
    pub sc: u32,
    /// Whether the loop achieved its MII.
    pub achieved_mii: bool,
    /// `true` when no valid schedule was found up to `max_ii`.
    pub failed: bool,
    /// Maximum number of live values in each cluster bank.
    pub max_live_cluster: Vec<u32>,
    /// Maximum number of live values in the shared bank (0 when the
    /// organization has no second level).
    pub max_live_shared: u32,
    /// Number of `LoadR` operations in the final kernel (communication +
    /// spill reloads from the shared bank).
    pub loadr_ops: u32,
    /// Number of `StoreR` operations in the final kernel.
    pub storer_ops: u32,
    /// Number of inter-cluster `Move` operations (clustered organization).
    pub move_ops: u32,
    /// Memory loads added by spilling to memory.
    pub spill_loads: u32,
    /// Memory stores added by spilling to memory.
    pub spill_stores: u32,
    /// Total memory operations in the final kernel (original + spill).
    pub memory_ops: u32,
    /// Memory operations of the original loop body.
    pub original_memory_ops: u32,
    /// Number of operations in the final kernel (original + inserted).
    pub total_ops: u32,
    /// Number of operations in the original loop body.
    pub original_ops: u32,
    /// Work counters.
    pub stats: SchedulerStats,
    /// The register capacities, per bank type, that give this same result
    /// on any machine of the scheduling class.
    pub window: CapacityWindow,
    /// The final kernel of a successful schedule, kept only when
    /// [`SchedulerParams::keep_schedule`] is set. Boxed, so an unkept
    /// result pays one pointer for it.
    pub kernel: Option<Box<Kernel>>,
}

impl ScheduleResult {
    /// Memory accesses executed per iteration of the scheduled kernel
    /// (original references plus spill traffic) — the paper's `trf`.
    pub fn memory_traffic_per_iteration(&self) -> u32 {
        self.memory_ops
    }

    /// Number of communication operations inserted (Move + LoadR + StoreR).
    pub fn communication_ops(&self) -> u32 {
        self.loadr_ops + self.storer_ops + self.move_ops
    }

    /// Spill traffic added per iteration (memory accesses beyond the
    /// original loop body).
    pub fn spill_traffic(&self) -> u32 {
        self.memory_ops.saturating_sub(self.original_memory_ops)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn placement_row_and_stage() {
        let p = Placement {
            cycle: 13,
            cluster: 2,
        };
        assert_eq!(p.row(5), 3);
        assert_eq!(p.stage(5), 2);
        assert_eq!(p.row(1), 0);
    }

    #[test]
    fn default_params_backtrack() {
        let p = SchedulerParams::default();
        assert!(p.backtracking);
        assert!(!p.binding_prefetch);
        let b = SchedulerParams::baseline36();
        assert!(!b.backtracking);
    }

    #[test]
    fn result_traffic_helpers() {
        let r = ScheduleResult {
            ii: 4,
            mii: 4,
            sc: 3,
            achieved_mii: true,
            failed: false,
            max_live_cluster: vec![10],
            max_live_shared: 0,
            loadr_ops: 2,
            storer_ops: 1,
            move_ops: 0,
            spill_loads: 2,
            spill_stores: 1,
            memory_ops: 9,
            original_memory_ops: 6,
            total_ops: 20,
            original_ops: 14,
            stats: SchedulerStats::default(),
            window: CapacityWindow::default(),
            kernel: None,
        };
        assert_eq!(r.communication_ops(), 3);
        assert_eq!(r.spill_traffic(), 3);
        assert_eq!(r.memory_traffic_per_iteration(), 9);
    }
}
