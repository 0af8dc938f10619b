//! The per-attempt state arena of the iterative scheduler.
//!
//! Before this module every II restart of the ladder rebuilt the complete
//! per-attempt machinery from scratch: a fresh [`WorkGraph`] (cloning the
//! loop body and re-inserting the memory-interface chains), a fresh
//! [`crate::order::PriorityOrder`] and a fresh [`PlacementStore`] (MRT,
//! slot index, pressure tracker, worklist — all reallocated). Profiling
//! after PR 4 showed the ladder itself had become a scheduler-perf
//! frontier: churn loops restart ~74 times each, paying the rebuild per
//! rung.
//!
//! [`AttemptArena`] owns all of that machinery for the lifetime of one
//! `schedule()` call and is *reset, not rebuilt*, across II restarts:
//!
//! * the working graph snapshots its pristine state (loop body + permanent
//!   memory-interface chains) once and [`WorkGraph::reset_to_pristine`]
//!   truncates the communication/spill insertions of the failed attempt;
//! * the priority order is recomputed in place (reusing its buffers) — and
//!   skipped entirely when the graph has no loop-carried dependence, since
//!   the ASAP/ALAP bounds it derives from are then II-independent;
//! * [`PlacementStore::reset_for_ii`] re-shapes the MRT, slot index and
//!   pressure tracker for the new II by clearing rather than reallocating,
//!   and shrinks the per-node arrays back to the pristine node count so
//!   capacity grown for spill nodes of one II never leaks into the next.
//!
//! Every reset must leave the arena indistinguishable (for scheduling
//! decisions) from a freshly built one: `tests/ladder_equivalence.rs`
//! asserts bit-identical suite results against the
//! [`Oracles::fresh_arena`] oracle, and the
//! randomized arena property test validates the store (including the MRT
//! free-slot totals) after every reset.

use crate::mrt::ResourceCaps;
use crate::order::{priority_order_into, OrderScratch, PriorityOrder};
use crate::store::PlacementStore;
use crate::types::{Oracles, SchedulerStats};
use crate::workgraph::WorkGraph;
use hcrf_ir::{Ddg, EdgeId, NodeId, OpLatencies};
use hcrf_machine::MachineConfig;
use hcrf_telemetry::TraceBuf;
use std::time::{Duration, Instant};

/// Reusable per-attempt state: working graph, placement store, priority
/// order and the scheduler's scratch buffers. Created once per
/// `schedule()` call and [`AttemptArena::reset`] for every II attempt.
#[derive(Debug, Clone)]
pub struct AttemptArena {
    /// The working graph (pristine-marked at construction).
    pub(crate) w: WorkGraph,
    /// The unified placement store (owns the order and worklist).
    pub(crate) store: PlacementStore,
    /// Scratch buffers for the in-place priority-order recomputation.
    order_scratch: OrderScratch,
    /// Whether the order depends on the candidate II (any loop-carried
    /// dependence). When `false`, the order computed by the first reset is
    /// reused verbatim by every later one.
    order_ii_sensitive: bool,
    /// Whether the order has been computed at least once.
    order_ready: bool,
    /// Node count of the pristine graph; per-node store arrays shrink back
    /// to it on every reset.
    pristine_nodes: usize,
    /// Scheduling budget of the current attempt (set by the scheduler).
    pub(crate) budget: i64,
    /// Whether the current attempt is a warm probe: it only places into
    /// free slots and hands the rung to the cold retry at the first forced
    /// ejection (set per attempt by the scheduler).
    pub(crate) warm_probe: bool,
    /// Pops of the current attempt whose node ended its own placement
    /// unplaced (see the no-progress rule in the scheduler's attempt loop).
    /// Published as the `sched.self_ejections` telemetry counter, outside
    /// [`SchedulerStats`].
    pub(crate) self_ejections: u64,
    /// Work counters of the current attempt only (the ladder accumulates
    /// them across restarts).
    pub(crate) stats: SchedulerStats,
    /// II of the current attempt.
    pub(crate) ii: u32,
    /// Scratch buffer for the dependence violators of a forced placement,
    /// cleared (not reallocated) by every `schedule_node` call — ejection
    /// storms run this path thousands of times per attempt.
    pub(crate) violators: Vec<NodeId>,
    /// Scratch for the estart walk: each placed predecessor with the
    /// earliest cycle its dependence allows (`pc + delay - II·distance`).
    /// The forced-placement path re-reads these as violator candidates
    /// instead of re-walking the edges.
    pub(crate) pred_bounds: Vec<(NodeId, i64)>,
    /// Scratch for the lstart walk: each placed successor with the latest
    /// cycle its dependence allows.
    pub(crate) succ_bounds: Vec<(NodeId, i64)>,
    /// Scratch for `select_cluster_recording`: edges between the popped node
    /// and placed neighbours that could need communication for some cluster
    /// choice, reused by the communication-insertion scan.
    pub(crate) comm_cands: Vec<(EdgeId, u32)>,
    /// Scratch for the nodes of one inserted communication/spill chain,
    /// reused across every insertion of the attempt.
    pub(crate) chain_nodes: Vec<NodeId>,
    /// Trace buffer the hot paths record into. Disabled (recording nothing)
    /// unless the scheduler swaps its live buffer in around an attempt.
    pub(crate) trace: TraceBuf,
}

impl AttemptArena {
    /// Build the arena for one loop on one machine: clones the body into a
    /// working graph, marks it pristine and shapes an empty placement store.
    /// [`AttemptArena::reset`] must run before the first attempt.
    pub fn new(ddg: &Ddg, machine: &MachineConfig, oracles: Oracles) -> Self {
        let mut w = WorkGraph::new(ddg, machine);
        w.mark_pristine();
        let caps = ResourceCaps::from_machine(machine);
        let pristine_nodes = w.ddg.num_nodes();
        let order_ii_sensitive = w.has_loop_carried_deps();
        let store = PlacementStore::new(1, caps, pristine_nodes, PriorityOrder::empty(), oracles);
        AttemptArena {
            w,
            store,
            order_scratch: OrderScratch::default(),
            order_ii_sensitive,
            order_ready: false,
            pristine_nodes,
            budget: 0,
            warm_probe: false,
            self_ejections: 0,
            stats: SchedulerStats::default(),
            ii: 1,
            violators: Vec::new(),
            pred_bounds: Vec::new(),
            succ_bounds: Vec::new(),
            comm_cands: Vec::new(),
            chain_nodes: Vec::new(),
            trace: TraceBuf::default(),
        }
    }

    /// Re-target a used arena at a *different* loop (and possibly a
    /// different machine), reusing every allocation it has grown:
    /// [`WorkGraph::rebind`] refills the working graph in place,
    /// [`PlacementStore::rebind`] re-shapes the MRT/slot-index/tracker for
    /// the new capacities, the priority-order buffers are recomputed into by
    /// the next [`AttemptArena::reset`], and the scheduler scratch vectors
    /// keep their capacity. Semantically equivalent to
    /// [`AttemptArena::new`]: `tests/engine_equivalence.rs` proves suite
    /// results are bit-identical whether arenas are pooled across loops,
    /// reused within one loop, or rebuilt per attempt
    /// ([`Oracles::fresh_arena`]).
    pub fn rebind(&mut self, ddg: &Ddg, machine: &MachineConfig, oracles: Oracles) {
        self.w.rebind(ddg, machine);
        self.w.mark_pristine();
        let caps = ResourceCaps::from_machine(machine);
        self.pristine_nodes = self.w.ddg.num_nodes();
        self.order_ii_sensitive = self.w.has_loop_carried_deps();
        self.order_ready = false;
        self.store.rebind(caps, self.pristine_nodes, oracles);
        self.budget = 0;
        self.stats = SchedulerStats::default();
        self.ii = 1;
        self.violators.clear();
        self.pred_bounds.clear();
        self.succ_bounds.clear();
        self.comm_cands.clear();
        self.chain_nodes.clear();
        self.trace = TraceBuf::default();
    }

    /// Prepare the arena for an attempt at `ii`: restore the pristine graph
    /// (undoing the previous attempt's communication/spill insertions),
    /// recompute the priority order in place (skipped when the order is
    /// II-independent and already computed), clear-and-reshape the placement
    /// store and requeue every active node.
    ///
    /// Returns the time spent recomputing the order (zero when skipped), so
    /// callers can split reset cost from ordering cost in phase timings.
    pub fn reset(&mut self, ii: u32, lat: &OpLatencies) -> Duration {
        let ii = ii.max(1);
        self.w.reset_to_pristine();
        self.store.reset_for_ii(ii, self.pristine_nodes);
        let order_time = if self.order_ii_sensitive || !self.order_ready {
            let t = Instant::now();
            priority_order_into(
                &self.w,
                lat,
                ii,
                self.store.order_mut(),
                &mut self.order_scratch,
            );
            self.order_ready = true;
            t.elapsed()
        } else {
            Duration::ZERO
        };
        for n in self.w.active_nodes() {
            self.store.requeue(n);
        }
        self.ii = ii;
        self.budget = 0;
        self.stats = SchedulerStats::default();
        order_time
    }

    /// Snapshot the surviving placements of the current (failed) attempt
    /// for a warm-started restart: one `(node, cycle, cluster)` triple per
    /// placed *original* node, in ascending node id. Placements of inserted
    /// communication/spill nodes are deliberately excluded — the restart
    /// truncates those chains exactly like a cold reset, and their owners
    /// re-insert what the new II still needs.
    pub fn capture_warm_snapshot(&self, buf: &mut Vec<(NodeId, i64, u32)>) {
        buf.clear();
        for i in 0..self.pristine_nodes {
            let n = NodeId(i as u32);
            if let Some((cycle, cluster)) = self.store.placement(n) {
                buf.push((n, cycle, cluster));
            }
        }
    }

    /// [`AttemptArena::reset`] for a warm-started attempt: the cold reset
    /// runs first (pristine graph, re-shaped store, priority order), then
    /// [`PlacementStore::warm_remap`] modulo-remaps the snapshot's surviving
    /// placements into the new MRT, and only the nodes it could not retain
    /// are requeued. In debug builds every remap is cross-checked against
    /// [`PlacementStore::check_consistency`].
    pub fn reset_warm(
        &mut self,
        ii: u32,
        lat: &OpLatencies,
        snapshot: &[(NodeId, i64, u32)],
        binding_prefetch: bool,
    ) -> WarmReset {
        let ii = ii.max(1);
        self.w.reset_to_pristine();
        self.store.reset_for_ii(ii, self.pristine_nodes);
        let order_time = if self.order_ii_sensitive || !self.order_ready {
            let t = Instant::now();
            priority_order_into(
                &self.w,
                lat,
                ii,
                self.store.order_mut(),
                &mut self.order_scratch,
            );
            self.order_ready = true;
            t.elapsed()
        } else {
            Duration::ZERO
        };
        let t = Instant::now();
        let retained = self
            .store
            .warm_remap(&mut self.w, snapshot, lat, binding_prefetch);
        for n in self.w.active_nodes() {
            if !self.store.is_placed(n) {
                self.store.requeue(n);
            }
        }
        let remap_time = t.elapsed();
        self.ii = ii;
        self.budget = 0;
        self.stats = SchedulerStats::default();
        #[cfg(debug_assertions)]
        if let Some(err) = self.store.check_consistency(&self.w, lat) {
            panic!("warm remap corrupted the store at II {ii}: {err}");
        }
        WarmReset {
            order_time,
            remap_time,
            retained,
        }
    }

    /// Read access to the working graph.
    pub fn workgraph(&self) -> &WorkGraph {
        &self.w
    }

    /// Read access to the placement store.
    pub fn store(&self) -> &PlacementStore {
        &self.store
    }

    /// Work counters of the current (or last finished) attempt.
    pub fn attempt_stats(&self) -> &SchedulerStats {
        &self.stats
    }

    /// Drain the store's engine counters (pressure refreshes, fused
    /// row updates) into this attempt's stats. The scheduler calls it once
    /// per attempt, right before absorbing the attempt into the ladder
    /// totals — the store zeroes its side on every reset, so nothing can be
    /// counted twice.
    pub fn fold_store_counters(&mut self) {
        let (refreshes, fused) = self.store.take_engine_counters();
        self.stats.pressure_refreshes += refreshes;
        self.stats.fused_row_updates += fused;
    }

    /// Mutable access to graph and store together, for tests that drive
    /// place/eject sequences through the transactional store API between
    /// resets.
    pub fn parts_mut(&mut self) -> (&mut WorkGraph, &mut PlacementStore) {
        (&mut self.w, &mut self.store)
    }
}

/// What one [`AttemptArena::reset_warm`] did: the order/remap split of its
/// wall time and how many snapshot placements survived the remap.
#[derive(Debug, Clone, Copy)]
pub struct WarmReset {
    /// Time spent recomputing the priority order (zero when skipped).
    pub order_time: Duration,
    /// Time spent remapping and requeueing.
    pub remap_time: Duration,
    /// Snapshot placements retained at the new II.
    pub retained: u32,
}

/// A reusable slot holding one worker's [`AttemptArena`] *across* loops.
///
/// PR 5 made the arena persistent across the II restarts of one
/// `schedule()` call; the pool extends its lifetime across an entire suite:
/// each execution-engine worker owns one `ArenaPool`, and
/// [`crate::IterativeScheduler::schedule_with_timings_pooled`] takes the
/// arena out ([`ArenaPool::take`] rebinds it to the new loop instead of
/// allocating) and returns it when the ladder finishes. The first loop a
/// worker ever schedules pays the one fresh build.
///
/// The pool deliberately counts its rebinds *outside*
/// [`crate::types::SchedulerStats`]: whether a given loop's arena was
/// rebound or freshly built depends on which worker picked the task up, and
/// schedule results must stay bit-identical for any thread count. Callers
/// harvest [`ArenaPool::rebinds`] into the `engine.arena_rebinds` telemetry
/// counter instead.
#[derive(Debug, Default)]
pub struct ArenaPool {
    arena: Option<AttemptArena>,
    rebinds: u64,
    builds: u64,
}

impl ArenaPool {
    /// An empty pool (first take builds fresh).
    pub fn new() -> Self {
        Self::default()
    }

    /// Take an arena bound to `(ddg, machine)`: rebind the pooled one when
    /// present, build a fresh one otherwise.
    pub fn take(&mut self, ddg: &Ddg, machine: &MachineConfig, oracles: Oracles) -> AttemptArena {
        match self.arena.take() {
            Some(mut a) => {
                a.rebind(ddg, machine, oracles);
                self.rebinds += 1;
                a
            }
            None => {
                self.builds += 1;
                AttemptArena::new(ddg, machine, oracles)
            }
        }
    }

    /// Return an arena for the next loop to reuse.
    pub fn put(&mut self, arena: AttemptArena) {
        self.arena = Some(arena);
    }

    /// How many takes re-targeted a pooled arena instead of building.
    pub fn rebinds(&self) -> u64 {
        self.rebinds
    }

    /// How many takes had to build a fresh arena.
    pub fn builds(&self) -> u64 {
        self.builds
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::validate_store;
    use hcrf_ir::{DdgBuilder, DepKind, OpKind};
    use hcrf_machine::RfOrganization;

    fn lat() -> OpLatencies {
        OpLatencies::paper_baseline()
    }

    /// A wide fan of long-lived values: on a tiny register file every II
    /// attempt inserts spill chains, which is exactly the state a reset
    /// must undo.
    fn spill_heavy() -> Ddg {
        let mut b = DdgBuilder::new("spill-heavy");
        let mut defs = Vec::new();
        for i in 0..12 {
            defs.push(b.load(i, 8));
        }
        let mut prev = b.op(OpKind::FAdd);
        b.flow(defs[0], prev, 0);
        for d in defs.iter().skip(1) {
            let a = b.op(OpKind::FAdd);
            b.flow(prev, a, 0);
            b.flow(*d, a, 0);
            prev = a;
        }
        let s = b.store(30, 8);
        b.flow(prev, s, 0);
        b.build()
    }

    /// Spill insertions at one II grow the store's per-node arrays; the next
    /// II's reset must shrink them back to the pristine node count instead
    /// of leaking the capacity (and the ghost placements that would ride
    /// along in `check_consistency`'s replay).
    #[test]
    fn spill_growth_does_not_leak_into_next_reset() {
        let machine = MachineConfig::paper_baseline(RfOrganization::parse("S16").unwrap());
        let mut arena = AttemptArena::new(&spill_heavy(), &machine, Oracles::default());
        let pristine_nodes = arena.workgraph().ddg.num_nodes();
        let pristine_edges = arena.workgraph().ddg.num_edges();
        arena.reset(3, &lat());
        // Simulate the spill path of a failing attempt: insert a spill chain
        // through the working graph, grow the store, place the new nodes.
        let (w, store) = arena.parts_mut();
        let (edge_id, edge) = w
            .ddg
            .edges()
            .find(|(id, e)| w.edge_is_active(*id) && e.kind == DepKind::Flow)
            .map(|(id, e)| (id, *e))
            .expect("flow edge");
        let new_nodes = w.insert_spill_to_memory(edge.dst, edge_id);
        store.grow(w.ddg.num_nodes());
        assert!(store.placements().len() > pristine_nodes);
        for (k, n) in new_nodes.iter().enumerate() {
            store.place(w, *n, k as i64, 0, &lat());
        }
        assert!(validate_store(store, w, &lat()).is_ok());

        // The next II's reset restores the pristine shapes exactly.
        arena.reset(4, &lat());
        assert_eq!(arena.workgraph().ddg.num_nodes(), pristine_nodes);
        assert_eq!(arena.workgraph().ddg.num_edges(), pristine_edges);
        assert_eq!(arena.store().placements().len(), pristine_nodes);
        assert!(arena.workgraph().active_nodes().count() == pristine_nodes);
        assert!(validate_store(arena.store(), arena.workgraph(), &lat()).is_ok());
    }

    /// A second kernel with a different shape (loop-carried recurrence,
    /// fewer nodes) for the rebind tests to re-target an arena at.
    fn recurrence_kernel() -> Ddg {
        let mut b = DdgBuilder::new("recurrence");
        let l = b.load(0, 8);
        let m = b.op(OpKind::FMul);
        let a = b.op(OpKind::FAdd);
        let s = b.store(1, 8);
        b.flow(l, m, 0);
        b.flow(m, a, 0);
        b.flow(a, a, 1);
        b.flow(a, s, 0);
        b.build()
    }

    /// Rebinding a dirty arena (spill chains inserted, nodes placed) to a
    /// different loop on a different machine — including a cluster-count
    /// change, which reshapes the slot index and pressure tracker — must
    /// leave it indistinguishable from a freshly built arena: same graph
    /// shape, a store that validates, and a clean pristine snapshot the next
    /// reset restores.
    #[test]
    fn rebind_to_new_loop_and_machine_matches_fresh_build() {
        let m1 = MachineConfig::paper_baseline(RfOrganization::parse("S16").unwrap());
        let mut arena = AttemptArena::new(&spill_heavy(), &m1, Oracles::default());
        arena.reset(3, &lat());
        // Dirty the arena exactly like a failing attempt would.
        let (w, store) = arena.parts_mut();
        let (edge_id, edge) = w
            .ddg
            .edges()
            .find(|(id, e)| w.edge_is_active(*id) && e.kind == DepKind::Flow)
            .map(|(id, e)| (id, *e))
            .expect("flow edge");
        let new_nodes = w.insert_spill_to_memory(edge.dst, edge_id);
        store.grow(w.ddg.num_nodes());
        for (k, n) in new_nodes.iter().enumerate() {
            store.place(w, *n, k as i64, 0, &lat());
        }

        // Re-target at a clustered-hierarchical machine and a new loop.
        let g2 = recurrence_kernel();
        let m2 = MachineConfig::paper_baseline(RfOrganization::parse("4C16S64").unwrap());
        arena.rebind(&g2, &m2, Oracles::default());
        let fresh = {
            let mut f = AttemptArena::new(&g2, &m2, Oracles::default());
            f.reset(2, &lat());
            f
        };
        arena.reset(2, &lat());
        assert_eq!(
            arena.workgraph().ddg.num_nodes(),
            fresh.workgraph().ddg.num_nodes()
        );
        assert_eq!(
            arena.workgraph().ddg.num_edges(),
            fresh.workgraph().ddg.num_edges()
        );
        assert_eq!(
            arena.workgraph().active_nodes().count(),
            fresh.workgraph().active_nodes().count()
        );
        assert_eq!(
            arena.store().placements().len(),
            fresh.store().placements().len()
        );
        assert!(validate_store(arena.store(), arena.workgraph(), &lat()).is_ok());

        // The rebound arena survives its own dirty-attempt/reset cycle.
        arena.reset(3, &lat());
        assert!(validate_store(arena.store(), arena.workgraph(), &lat()).is_ok());
    }

    /// End-to-end oracle for the pool: scheduling a sequence of different
    /// loops across different machines through ONE pool (every loop after
    /// the first rebinds a used arena) must produce bit-identical results to
    /// pool-less scheduling.
    #[test]
    fn pooled_scheduling_across_loops_is_bit_identical() {
        use crate::scheduler::IterativeScheduler;
        use crate::types::SchedulerParams;
        let loops = [spill_heavy(), recurrence_kernel(), spill_heavy()];
        let params = SchedulerParams::default();
        let mut pool = ArenaPool::new();
        let mut scheduled = 0u64;
        for name in ["S16", "4C16S64", "8C16S16"] {
            let machine = MachineConfig::paper_baseline(RfOrganization::parse(name).unwrap());
            let sched = IterativeScheduler::new(machine, params);
            for g in &loops {
                let pooled = sched.schedule_with_timings_pooled(g, &mut pool).0;
                let fresh = sched.schedule(g);
                assert_eq!(pooled, fresh, "{name}/{}", g.name);
                scheduled += 1;
            }
        }
        assert_eq!(pool.builds(), 1, "only the first loop builds");
        assert_eq!(pool.rebinds(), scheduled - 1);
    }

    /// End-to-end on the spill-heavy kernel: the reused arena must schedule
    /// it bit-identically to fresh per-attempt state (the II ladder here
    /// discards several spill-inserting attempts before succeeding).
    #[test]
    fn spill_heavy_kernel_schedules_identically_with_arena_reuse() {
        use crate::scheduler::IterativeScheduler;
        use crate::types::SchedulerParams;
        let g = spill_heavy();
        let machine = MachineConfig::paper_baseline(RfOrganization::parse("S16").unwrap());
        let params = SchedulerParams::default();
        let reused = IterativeScheduler::new(machine.clone(), params).schedule(&g);
        let fresh = IterativeScheduler::new(machine, params)
            .with_oracles(Oracles {
                fresh_arena: true,
                ..Oracles::default()
            })
            .schedule(&g);
        assert!(!reused.failed);
        assert!(reused.stats.ii_restarts > 1, "ladder should have restarted");
        assert_eq!(reused, fresh);
    }
}
