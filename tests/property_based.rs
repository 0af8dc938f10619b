//! Property-based tests (proptest) over randomly generated loops: scheduler
//! invariants, MII bounds, register-file model monotonicity and notation
//! round-trips.

use hcrf_ir::{
    mii, res_mii, Ddg, DdgBuilder, DepKind, OpKind, OpLatencies, ResourceClass, ResourceCounts,
};
use hcrf_machine::{MachineConfig, RfOrganization};
use hcrf_rfmodel::AnalyticRfModel;
use hcrf_sched::mrt::ResourceCaps;
use hcrf_sched::order::priority_order;
use hcrf_sched::workgraph::WorkGraph;
use hcrf_sched::{
    schedule_loop, validate_schedule, validate_store, AttemptArena, PlacementStore,
    PressureTracker, SchedulerParams,
};
use proptest::prelude::*;

/// Strategy: a random but well-formed loop body.
///
/// Nodes are generated in topological order for the intra-iteration edges
/// (an edge only points from a lower to a higher index), and a recurrence
/// back-edge with distance ≥ 1 is added with some probability, which keeps
/// every generated graph a legal dependence graph.
fn arb_loop(max_nodes: usize) -> impl Strategy<Value = Ddg> {
    let node_kinds = prop::collection::vec(0u8..100, 2..max_nodes);
    (node_kinds, any::<u64>()).prop_map(|(kinds, seed)| {
        let mut b = DdgBuilder::new(format!("prop{seed:x}"));
        let mut ids = Vec::new();
        let mut array = 0u32;
        for k in &kinds {
            let id = match k % 10 {
                0..=2 => {
                    array += 1;
                    b.load(array, 8)
                }
                3 => {
                    array += 1;
                    b.store(array, 8)
                }
                4..=6 => b.op(OpKind::FAdd),
                7 | 8 => b.op(OpKind::FMul),
                _ => b.op(OpKind::FDiv),
            };
            ids.push(id);
        }
        // Forward edges: connect each node to an earlier producer
        // (stores define no value, so they are skipped as producers).
        let is_store = |i: usize| kinds[i] % 10 == 3;
        for i in 1..ids.len() {
            let mut j = (kinds[i] as usize * 7 + i) % i;
            let mut hops = 0;
            while is_store(j) && hops <= i {
                j = (j + 1) % i;
                hops += 1;
            }
            if !is_store(j) {
                b.flow(ids[j], ids[i], 0);
            }
        }
        // Optional recurrence: close a cycle with a loop-carried edge.
        if kinds.len() > 3 && kinds[0] % 3 == 0 && !is_store(kinds.len() - 1) {
            let from = ids[ids.len() - 1];
            let to = ids[1];
            b.flow(from, to, 1 + (kinds[1] % 3) as u32);
        }
        b.build()
    })
}

fn machines() -> Vec<MachineConfig> {
    [
        "S64", "S32", "4C32", "2C64", "1C64S64", "4C16S64", "8C16S16",
    ]
    .iter()
    .map(|s| MachineConfig::paper_baseline(RfOrganization::parse(s).unwrap()))
    .collect()
}

/// Op kinds of the brute-force slot-search oracle: every resource class,
/// pipelined and multi-row FU ops.
const BRUTE_KINDS: [OpKind; 7] = [
    OpKind::FAdd,
    OpKind::FDiv,
    OpKind::FSqrt,
    OpKind::Load,
    OpKind::Move,
    OpKind::LoadR,
    OpKind::StoreR,
];

/// The (resource pool, row) units one op issued at `cycle` takes, with no
/// MRT code involved: a pool is a class plus the cluster for cluster-local
/// resources, and an FU op holds one unit in each of its `occupancy` cycles
/// folded modulo the II.
fn brute_force_units(
    caps: &ResourceCaps,
    ii: u32,
    kind: OpKind,
    cycle: i64,
    cluster: u32,
    lat: &OpLatencies,
) -> Vec<(ResourceClass, u32, i64)> {
    let class = kind.resource_class();
    let global =
        class == ResourceClass::Bus || (class == ResourceClass::MemPort && caps.memory_is_shared());
    let pool = if global { 0 } else { cluster };
    let cycles = if class == ResourceClass::Fu {
        lat.occupancy(kind) as i64
    } else {
        1
    };
    (0..cycles)
        .map(|j| (class, pool, (cycle + j).rem_euclid(ii as i64)))
        .collect()
}

/// Whether `kind` fits at `t` on `cluster`, by recounting every pool's
/// units per row from the `live` reservations.
fn brute_force_fits(
    caps: &ResourceCaps,
    ii: u32,
    live: &[(OpKind, i64, u32)],
    kind: OpKind,
    t: i64,
    cluster: u32,
    lat: &OpLatencies,
) -> bool {
    let cap = match kind.resource_class() {
        ResourceClass::Fu => caps.fus_per_cluster,
        ResourceClass::MemPort if caps.memory_is_shared() => caps.shared_mem_ports,
        ResourceClass::MemPort => caps.mem_ports_per_cluster,
        ResourceClass::Bus => caps.buses,
        ResourceClass::SharedReadPort => caps.lp,
        ResourceClass::SharedWritePort => caps.sp,
    } as usize;
    let held: Vec<_> = live
        .iter()
        .flat_map(|&(k, c, cl)| brute_force_units(caps, ii, k, c, cl, lat))
        .collect();
    let wanted = brute_force_units(caps, ii, kind, t, cluster, lat);
    wanted.iter().all(|unit| {
        let count =
            |units: &[(ResourceClass, u32, i64)]| units.iter().filter(|u| *u == unit).count();
        count(&held) + count(&wanted) <= cap
    })
}

/// Scheduler parameters for the property tests: generated loops can contain
/// long recurrences through divides, so allow large IIs.
fn prop_params() -> SchedulerParams {
    SchedulerParams {
        max_ii: 1024,
        ..Default::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every schedule the iterative scheduler produces passes the full
    /// validator: dependences, resources, register capacity and bank
    /// consistency.
    #[test]
    fn schedules_are_always_valid(ddg in arb_loop(14), which in 0usize..7) {
        let machine = &machines()[which];
        let result = schedule_loop(&ddg, machine, &prop_params());
        prop_assert!(!result.failed, "loop failed to schedule on {}", machine.rf);
        if let Err(e) = validate_schedule(&ddg, machine, &result) {
            return Err(TestCaseError::fail(format!("{}: {e}", machine.rf)));
        }
    }

    /// The achieved II never beats the MII lower bound, and the MII never
    /// beats the resource bound computed directly.
    #[test]
    fn ii_respects_lower_bounds(ddg in arb_loop(14)) {
        let lat = OpLatencies::paper_baseline();
        let res = ResourceCounts::paper_baseline();
        let machine = MachineConfig::paper_baseline(RfOrganization::monolithic(128));
        let result = schedule_loop(&ddg, &machine, &prop_params());
        prop_assert!(!result.failed);
        let bound = mii::mii(&ddg, &lat, res);
        prop_assert!(result.ii >= bound);
        prop_assert!(bound >= res_mii(&ddg, &lat, res));
    }

    /// Scheduling for a partitioned register file never reduces the II below
    /// the monolithic one (communication can only add constraints), and the
    /// schedulers never lose memory operations.
    #[test]
    fn partitioned_never_beats_monolithic_ii(ddg in arb_loop(12)) {
        let params = prop_params();
        let mono = schedule_loop(&ddg, &machines()[0], &params); // S64
        let hier = schedule_loop(&ddg, &machines()[6], &params); // 8C16S16
        prop_assert!(!mono.failed && !hier.failed);
        prop_assert!(hier.ii >= mono.mii);
        prop_assert!(hier.memory_ops as usize >= ddg.memory_ops());
        prop_assert!(mono.memory_ops as usize >= ddg.memory_ops());
    }

    /// The incremental pressure tracker equals the batch `pressure()`
    /// oracle on every bank (and on the stored lifetime set) after each of a
    /// random sequence of place/eject operations, on both a hierarchical
    /// (`4C16S64`) and a monolithic (`S64`) machine.
    #[test]
    fn incremental_pressure_matches_batch_oracle(
        ddg in arb_loop(14),
        ops in prop::collection::vec((any::<u16>(), 0u32..4, 0i64..48), 4..48),
        hier in any::<bool>(),
        ii in 1u32..9,
    ) {
        let cfg = if hier { "4C16S64" } else { "S64" };
        let machine = MachineConfig::paper_baseline(RfOrganization::parse(cfg).unwrap());
        let clusters = machine.clusters();
        let mut w = WorkGraph::new(&ddg, &machine);
        let mut placements: Vec<Option<(i64, u32)>> = vec![None; w.ddg.num_nodes()];
        let mut tracker = PressureTracker::new(ii, clusters, w.ddg.num_nodes());
        // The hierarchical preprocessing rewires edges before the tracker
        // exists; drain the dirty set once, like the scheduler does.
        let mut dirty = Vec::new();
        w.swap_pressure_dirty(&mut dirty);
        for n in dirty {
            tracker.refresh(&w, &placements, n);
        }
        let nodes: Vec<_> = w.active_nodes().collect();
        for (sel, cluster, cycle) in ops {
            let n = nodes[sel as usize % nodes.len()];
            if placements[n.index()].is_some() {
                placements[n.index()] = None; // eject
            } else {
                placements[n.index()] = Some((cycle, cluster % clusters)); // place
            }
            tracker.touch(&w, &placements, n);
            if let Some(diff) = tracker.diff_from_batch(&w, &placements) {
                return Err(TestCaseError::fail(format!("{cfg} II={ii}: {diff}")));
            }
        }
    }

    /// On randomized place/eject sequences driven through the
    /// `PlacementStore`, the `SlotIndex` membership always equals a
    /// from-scratch scan of the placements (and the MRT equals a replayed
    /// table), and the victim chosen by the indexed `pick_victim` equals the
    /// linear-scan oracle's choice for arbitrary (kind, cycle, cluster)
    /// conflict probes — mirroring the PR 2 pressure-oracle pattern. IIs up
    /// to 48 put 17-cycle divides on partial, wrapping multi-row spans, and
    /// 8C16S16's one-FU clusters make unchecked placements fill and
    /// over-subscribe one-row slots.
    #[test]
    fn slot_index_matches_scan_and_victim_policies_agree(
        ddg in arb_loop(14),
        ops in prop::collection::vec((any::<u16>(), 0u32..8, 0i64..96), 4..48),
        probes in prop::collection::vec((0u8..5, 0i64..96, 0u32..8), 1..12),
        which in 0usize..3,
        ii in 1u32..49,
    ) {
        let lat = OpLatencies::paper_baseline();
        let cfg = ["S64", "4C16S64", "8C16S16"][which];
        let machine = MachineConfig::paper_baseline(RfOrganization::parse(cfg).unwrap());
        let mut w = WorkGraph::new(&ddg, &machine);
        let caps = ResourceCaps::from_machine(&machine);
        let order = priority_order(&w, &lat, ii);
        let mut store = PlacementStore::new(ii, caps, w.ddg.num_nodes(), order);
        store.sync_pressure(&mut w);
        let nodes: Vec<_> = w.active_nodes().collect();
        let probe_kinds = [OpKind::FAdd, OpKind::FDiv, OpKind::Load, OpKind::LoadR, OpKind::StoreR];
        for (sel, cluster, cycle) in ops {
            let n = nodes[sel as usize % nodes.len()];
            if !w.is_active(n) {
                continue; // removed by an earlier chain-removing ejection
            }
            if store.is_placed(n) {
                store.eject(&mut w, n, &lat);
            } else {
                store.place(&w, n, cycle, cluster % machine.clusters(), &lat);
            }
            if let Err(diff) = validate_store(&store, &w, &lat) {
                return Err(TestCaseError::fail(format!("{cfg} II={ii}: {diff}")));
            }
            for &(k, pc, pcl) in &probes {
                let kind = probe_kinds[k as usize % probe_kinds.len()];
                let cl = pcl % machine.clusters();
                let probe_node = hcrf_ir::NodeId(u32::MAX - 1);
                let indexed = store.pick_victim(&w, probe_node, kind, pc, cl);
                let linear = store.pick_victim_linear(&w, probe_node, kind, pc, cl, &lat);
                if indexed != linear {
                    return Err(TestCaseError::fail(format!(
                        "{cfg} II={ii}: victim diverged for {kind:?}@{pc}/c{cl}: {indexed:?} vs {linear:?}"
                    )));
                }
            }
        }
    }

    /// On randomized place/remove sequences driven directly through the
    /// [`hcrf_sched::mrt::Mrt`], the window search `first_free_row_in`
    /// answers exactly as on a table rebuilt by replaying the live
    /// reservations, for arbitrary windows — including windows that wrap
    /// around the II, windows anchored at negative cycles, both scan
    /// directions and multi-row operations (17-cycle divides and 30-cycle
    /// square roots whose occupancy can exceed the II) — and the incremental
    /// FU free-slot totals always match a recount of the row counts
    /// (`check_fu_free`).
    #[test]
    fn slot_search_matches_replayed_table(
        ops in prop::collection::vec((0u8..6, 0u32..4, 0i64..64), 4..64),
        probes in prop::collection::vec((0u8..6, 0u32..4, -40i64..64, 0i64..40, any::<bool>()), 1..16),
        which in 0usize..7,
        ii in 1u32..40,
    ) {
        use hcrf_sched::mrt::{Mrt, ResourceCaps};
        let lat = OpLatencies::paper_baseline();
        let machine = &machines()[which];
        let caps = ResourceCaps::from_machine(machine);
        let clusters = machine.clusters();
        let mut mrt = Mrt::new(ii, caps);
        let kinds = [OpKind::FAdd, OpKind::FDiv, OpKind::FSqrt, OpKind::Load,
                     OpKind::LoadR, OpKind::StoreR];
        // Multiset of live reservations so removes always mirror a place.
        let mut live: Vec<(OpKind, i64, u32)> = Vec::new();
        for (k, cluster, cycle) in ops {
            let kind = kinds[k as usize % kinds.len()];
            let cluster = cluster % clusters;
            if k % 2 == 0 || live.is_empty() {
                mrt.place(kind, cycle, cluster, &lat);
                live.push((kind, cycle, cluster));
            } else {
                let (rk, rc, rcl) = live.swap_remove(cycle as usize % live.len());
                mrt.remove(rk, rc, rcl, &lat);
            }
            if let Some(diff) = mrt.check_fu_free() {
                return Err(TestCaseError::fail(format!("{} II={ii}: {diff}", machine.rf)));
            }
            let mut replay = Mrt::new(ii, caps);
            for &(rk, rc, rcl) in &live {
                replay.place(rk, rc, rcl, &lat);
            }
            for &(pk, pcl, start, len, upward) in &probes {
                let kind = kinds[pk as usize % kinds.len()];
                let cl = pcl % clusters;
                let window = (start, start + len);
                let got = mrt.first_free_row_in(kind, cl, window, upward, &lat);
                let want = replay.first_free_row_in(kind, cl, window, upward, &lat);
                if got != want {
                    return Err(TestCaseError::fail(format!(
                        "{} II={ii}: slot search diverged from the replayed table for \
                         {kind:?} in {window:?} ({}): {got:?} vs {want:?}",
                        machine.rf,
                        if upward { "up" } else { "down" },
                    )));
                }
            }
        }
    }

    /// Brute-force oracle for the MRT's placement queries: the unit count
    /// of every (resource, row) is recomputed from the live reservation
    /// list alone — an op of occupancy `o` issued at `c` takes one unit of
    /// its class in row `(c + j) mod II` for every `j < o` (FU), or in its
    /// issue row (every other class) — and `can_place` and both directions
    /// of `first_free_row_in` must agree with a naive walk over those
    /// counts. IIs below, at and above the 17-cycle divide's and 30-cycle
    /// square root's occupancy, windows that wrap around the II or start
    /// at negative cycles, and 1-, 2- and 8-FU clusters are all covered.
    #[test]
    fn slot_search_matches_brute_force_counts(
        ops in prop::collection::vec((0u8..7, 0u32..8, -30i64..64), 4..40),
        probes in prop::collection::vec((0u8..7, 0u32..8, -40i64..64, 0i64..40), 1..8),
    ) {
        use hcrf_sched::mrt::Mrt;
        let lat = OpLatencies::paper_baseline();
        for cfg in ["8C16S16", "4C16S64", "4C32", "S64"] {
            let machine = MachineConfig::paper_baseline(RfOrganization::parse(cfg).unwrap());
            let caps = ResourceCaps::from_machine(&machine);
            for ii in [1u32, 9, 16, 17, 18, 30, 33] {
                let mut mrt = Mrt::new(ii, caps);
                let mut live: Vec<(OpKind, i64, u32)> = Vec::new();
                for &(k, cluster, cycle) in &ops {
                    let kind = BRUTE_KINDS[k as usize % BRUTE_KINDS.len()];
                    let cluster = cluster % caps.clusters;
                    if k % 3 != 0 || live.is_empty() {
                        mrt.place(kind, cycle, cluster, &lat);
                        live.push((kind, cycle, cluster));
                    } else {
                        let (rk, rc, rcl) = live.swap_remove(cycle.unsigned_abs() as usize % live.len());
                        mrt.remove(rk, rc, rcl, &lat);
                    }
                    for &(pk, pcl, start, len) in &probes {
                        let kind = BRUTE_KINDS[pk as usize % BRUTE_KINDS.len()];
                        let cl = pcl % caps.clusters;
                        let fits = |t: i64| brute_force_fits(&caps, ii, &live, kind, t, cl, &lat);
                        let window = (start, start + len);
                        for t in start..=start + len {
                            prop_assert_eq!(
                                mrt.can_place(kind, t, cl, &lat), fits(t),
                                "{} II={} can_place {:?}@{}/c{}", cfg, ii, kind, t, cl
                            );
                        }
                        let up = (start..=start + len).find(|&t| fits(t));
                        let down = (start..=start + len).rev().find(|&t| fits(t));
                        prop_assert_eq!(
                            mrt.first_free_row_in(kind, cl, window, true, &lat), up,
                            "{} II={} upward {:?} in {:?}/c{}", cfg, ii, kind, window, cl
                        );
                        prop_assert_eq!(
                            mrt.first_free_row_in(kind, cl, window, false, &lat), down,
                            "{} II={} downward {:?} in {:?}/c{}", cfg, ii, kind, window, cl
                        );
                    }
                }
            }
        }
    }

    /// Across a random sequence of II resets, the reused [`AttemptArena`]
    /// is indistinguishable from freshly built per-attempt state: the
    /// priority order equals a from-scratch computation, the store arrays
    /// are back at the pristine node count (no capacity leak from spill or
    /// communication chains inserted at an earlier II — they are undone by
    /// the pristine-graph restore), and `validate_store` (slot-index scan,
    /// MRT replay and `check_fu_free`) passes after the reset and after every
    /// subsequent randomized place/eject step driven through the store.
    #[test]
    fn arena_reset_equals_fresh_build(
        ddg in arb_loop(12),
        iis in prop::collection::vec(1u32..10, 2..5),
        ops in prop::collection::vec((any::<u16>(), 0u32..4, 0i64..48), 4..32),
        which in 0usize..7,
    ) {
        let lat = OpLatencies::paper_baseline();
        let machine = &machines()[which];
        let mut arena = AttemptArena::new(&ddg, machine);
        let pristine_nodes = arena.workgraph().ddg.num_nodes();
        let pristine_edges = arena.workgraph().ddg.num_edges();
        for ii in iis {
            arena.reset(ii, &lat);
            // The restored graph and reshaped store equal a fresh build.
            let fresh_w = WorkGraph::new(&ddg, machine);
            prop_assert_eq!(arena.workgraph().ddg.num_nodes(), pristine_nodes);
            prop_assert_eq!(arena.workgraph().ddg.num_edges(), pristine_edges);
            prop_assert_eq!(&arena.workgraph().ddg, &fresh_w.ddg);
            prop_assert_eq!(arena.store().placements().len(), pristine_nodes);
            let fresh_order = priority_order(arena.workgraph(), &lat, ii);
            prop_assert_eq!(&arena.store().order().order, &fresh_order.order);
            prop_assert_eq!(&arena.store().order().rank, &fresh_order.rank);
            if let Err(diff) = validate_store(arena.store(), arena.workgraph(), &lat) {
                return Err(TestCaseError::fail(format!("{} II={ii} after reset: {diff}", machine.rf)));
            }
            // Dirty the arena: random place/eject traffic through the store,
            // plus a spill-chain insertion (with its store `grow`) so the
            // next reset has real per-attempt garbage to undo.
            let (w, store) = arena.parts_mut();
            let nodes: Vec<_> = w.active_nodes().collect();
            for &(sel, cluster, cycle) in &ops {
                let n = nodes[sel as usize % nodes.len()];
                if !w.is_active(n) {
                    continue;
                }
                if store.is_placed(n) {
                    store.eject(w, n, &lat);
                } else {
                    store.place(w, n, cycle, cluster % machine.clusters(), &lat);
                }
                if let Err(diff) = validate_store(store, w, &lat) {
                    return Err(TestCaseError::fail(format!("{} II={ii} mid-attempt: {diff}", machine.rf)));
                }
            }
            let spill_edge = w
                .ddg
                .edges()
                .find(|(id, e)| {
                    w.edge_is_active(*id)
                        && e.kind == DepKind::Flow
                        && w.is_active(e.src)
                        && w.is_active(e.dst)
                })
                .map(|(id, e)| (id, *e));
            if let Some((edge_id, edge)) = spill_edge {
                let mut new_nodes = Vec::new();
                w.insert_spill_to_memory_into(edge.dst, edge_id, &mut new_nodes);
                store.grow(w.ddg.num_nodes());
                prop_assert!(store.placements().len() > pristine_nodes);
                for n in new_nodes {
                    store.place(w, n, 0, 0, &lat);
                    if let Err(diff) = validate_store(store, w, &lat) {
                        return Err(TestCaseError::fail(format!("{} II={ii} post-spill: {diff}", machine.rf)));
                    }
                }
            }
        }
    }

    /// Warm remaps of arbitrary snapshots never corrupt the store: random
    /// place/eject traffic driven through the `PlacementStore` at one II is
    /// captured and remapped at a bumped II, after which `validate_store`
    /// (slot-index scan, MRT replay and `Mrt::check_fu_free`) passes, every
    /// retained node satisfies its active dependence windows, and the remap
    /// is deterministic (a second round trip retains the same count). The
    /// traffic is resource-legal but deliberately not dependence-legal —
    /// the remap must re-validate and drop violators itself.
    #[test]
    fn warm_remap_preserves_validity(
        ddg in arb_loop(12),
        ops in prop::collection::vec((any::<u16>(), 0u32..4, 0i64..48), 4..32),
        ii0 in 1u32..10,
        bump in 1u32..8,
        which in 0usize..7,
    ) {
        let lat = OpLatencies::paper_baseline();
        let machine = &machines()[which];
        let mut arena = AttemptArena::new(&ddg, machine);
        arena.reset(ii0, &lat);
        let (w, store) = arena.parts_mut();
        let nodes: Vec<_> = w.active_nodes().collect();
        for &(sel, cluster, cycle) in &ops {
            let n = nodes[sel as usize % nodes.len()];
            if !w.is_active(n) {
                continue;
            }
            if store.is_placed(n) {
                store.eject(w, n, &lat);
            } else {
                store.place(w, n, cycle, cluster % machine.clusters(), &lat);
            }
        }
        let mut snap = Vec::new();
        arena.capture_warm_snapshot(&mut snap);
        let ii = ii0 + bump;
        let r = arena.reset_warm(ii, &lat, &snap, false);
        if let Err(diff) = validate_store(arena.store(), arena.workgraph(), &lat) {
            return Err(TestCaseError::fail(format!("{} II={ii}: {diff}", machine.rf)));
        }
        let w = arena.workgraph();
        let store = arena.store();
        for n in w.active_nodes() {
            if let Some((cycle, _)) = store.placement(n) {
                for (_, e) in w.active_pred_edges(n) {
                    if let Some((src_cycle, _)) = store.placement(e.src) {
                        let delay = w.edge_delay(e, &lat, false);
                        prop_assert!(
                            src_cycle + delay - (ii as i64) * e.distance as i64 <= cycle,
                            "{} II={ii}: retained {n} violates its window from {}",
                            machine.rf, e.src
                        );
                    }
                }
            }
        }
        let r2 = arena.reset_warm(ii, &lat, &snap, false);
        prop_assert_eq!(r.retained, r2.retained, "remap not deterministic");
    }

    /// The RF timing/area model is monotone in both capacity and port count.
    #[test]
    fn rf_model_is_monotone(regs in 8u32..512, ports in 2u32..40) {
        let m = AnalyticRfModel::at_100nm();
        let t = m.access_ns(regs, ports, ports / 2);
        let t_more_regs = m.access_ns(regs * 2, ports, ports / 2);
        let t_more_ports = m.access_ns(regs, ports + 4, ports / 2 + 2);
        prop_assert!(t_more_regs > t);
        prop_assert!(t_more_ports > t);
        let a = m.area_mlambda2(regs, ports, ports / 2);
        let a_more_regs = m.area_mlambda2(regs * 2, ports, ports / 2);
        let a_more_ports = m.area_mlambda2(regs, ports + 4, ports / 2 + 2);
        prop_assert!(a_more_regs > a);
        prop_assert!(a_more_ports > a);
    }

    /// The `xCy-Sz` notation round-trips through parse/display.
    #[test]
    fn rf_notation_round_trips(clusters in 1u32..16, cregs in 1u32..512, sregs in 1u32..512, form in 0u8..3) {
        let rf = match form {
            0 => RfOrganization::monolithic(sregs),
            1 => RfOrganization::clustered(clusters, cregs),
            _ => RfOrganization::hierarchical(clusters, cregs, sregs),
        };
        let text = rf.to_string();
        let parsed = RfOrganization::parse(&text).unwrap();
        prop_assert_eq!(parsed, rf);
    }

    /// Cache simulation invariants: misses never exceed accesses, and
    /// binding prefetching hides the full miss latency, so a fully
    /// prefetched kernel can only stall *structurally* — when more miss
    /// streams are in flight than the lockup-free cache sustains. The
    /// streams' 1 MiB-aligned bases conflict in the same set, so each stream
    /// keeps up to two line generations outstanding; within the MSHR budget
    /// there must be no stall at all.
    #[test]
    fn cache_sim_invariants(streams in 1usize..12, iterations in 1u64..200) {
        use hcrf_ir::MemAccess;
        use hcrf_memsim::{simulate_kernel, CacheConfig, ScheduledAccess};
        let cfg = CacheConfig::paper_baseline();
        let accesses: Vec<ScheduledAccess> = (0..streams)
            .map(|k| ScheduledAccess {
                issue_cycle: (k % 4) as u32,
                is_load: true,
                access: MemAccess::unit(k as u32),
                assumed_latency: cfg.miss_latency,
            })
            .collect();
        let r = simulate_kernel(&accesses, 4, iterations, cfg, 256);
        prop_assert!(r.misses <= r.accesses);
        if streams as u32 * 2 <= cfg.mshrs {
            prop_assert_eq!(
                r.stall_cycles,
                0,
                "fully prefetched accesses cannot stall within the MSHR budget"
            );
        }
    }
}
