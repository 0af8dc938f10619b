//! Unified, transactional placement state for the iterative schedulers.
//!
//! [`PlacementStore`] owns every piece of mutable placement state of an II
//! attempt — placements, the `prev_cycle` memory of Rau's force heuristic,
//! the [`Mrt`] slot counts, the incremental [`PressureTracker`], a
//! [`SlotIndex`] and the worklist — behind three transactions:
//! [`PlacementStore::place`], [`PlacementStore::eject`] and
//! [`PlacementStore::remove_chain_members`]. Each leaves all of them
//! mutually consistent, so a new mutation path (a swing modulo scheduler,
//! an alternate victim policy) cannot forget one. Every ejection — a
//! victim of a forced slot, a dependence violator of a forced placement,
//! the owner of a removed chain — is one `eject` transaction.
//!
//! The [`SlotIndex`] records, per (resource class, row, cluster), the placed
//! nodes whose reservation touches that row (global classes such as buses
//! and shared memory ports are indexed cluster-agnostically), so the
//! backtracking victim search enumerates only the nodes actually reserving
//! the conflicting row — O(row occupancy) — instead of walking every active
//! node. One-row reservations sit in flat per-class slot arrays; the
//! multi-row reservations of non-pipelined divides and square roots are one
//! `(node, start row, span)` entry each in a per-(class, cluster) span list.
//! So a place or eject never walks the 21–60 rows such an op covers on the
//! paper's faster clustered clocks, and a rung reset zeroes the slot
//! lengths and empties the span lists. The linear scan survives as
//! [`PlacementStore::pick_victim_linear`], the reference scheduler's victim
//! search, which must choose the exact same victim (`tests/property_based.rs`
//! asserts it on randomized place/eject sequences;
//! `tests/oracle_equivalence.rs` asserts bit-identical suite results).

use crate::mrt::{Mrt, ResourceCaps};
use crate::order::PriorityOrder;
use crate::pressure::{PlacementView, PressureTracker};
use crate::workgraph::WorkGraph;
use hcrf_ir::{NodeId, OpKind, OpLatencies, ResourceClass};
use std::cmp::Reverse;

/// Most unit slots a one-row (row, group) slot keeps inline. Only classes
/// modelled as unbounded (Table 3's static studies give LoadR/StoreR ports
/// and buses `u32::MAX` units) are wider; their surplus entries spill into
/// the span list like any over-subscribed slot.
const MAX_SLOT_UNITS: u32 = 16;

/// One span-list entry: `node` reserves the `len` consecutive rows (modulo
/// the II) from row `start`.
#[derive(Debug, Clone, Copy)]
struct Span {
    node: NodeId,
    start: u32,
    len: u32,
}

/// The slot-index entries of one resource class.
#[derive(Debug, Clone, Default)]
struct ClassSlots {
    /// Whether the class conflicts regardless of cluster (one group).
    global: bool,
    /// Groups per row: 1 for a global class, else the cluster count.
    groups: usize,
    /// Entries per (row, group) slot: the class's units per row, capped at
    /// [`MAX_SLOT_UNITS`].
    stride: usize,
    /// One-row reservations: slot `row * groups + group` holds the
    /// `len[slot]` nodes from `nodes[slot * stride]`.
    nodes: Vec<NodeId>,
    len: Vec<u8>,
    /// Per group: every reservation spanning more than one row, plus the
    /// one-row reservations that found their slot full.
    spans: Vec<Vec<Span>>,
}

/// Per-(resource class, row, cluster) occupancy: which placed nodes reserve
/// each row of the modulo reservation table.
///
/// A node of occupancy `o` reserves the `min(o, II)` consecutive rows
/// (modulo the II) from its issue row — the same "touches" predicate the
/// linear victim scan evaluates per candidate. Cluster-local classes (FUs,
/// per-cluster memory ports, LoadR/StoreR ports) keep one group per cluster;
/// global classes (buses, and memory ports when the machine routes all
/// memory traffic through a shared pool) keep one group.
///
/// Two layouts, so that no update walks rows:
/// * a one-row reservation takes an entry of its (row, group) slot in a flat
///   per-class array, `stride` = the class's units per row entries wide;
/// * a multi-row one (`min(o, II) > 1`, the non-pipelined divides and
///   square roots) is one `(node, start row, span)` entry of its group's
///   span list, which [`SlotIndex::candidates`] filters by
///   `(row − start) mod II < span`.
///
/// A slot is full only when the MRT row is over-subscribed, which the
/// scheduler never does (it ejects until [`Mrt::can_place`] holds); an entry
/// that finds its slot full spills into the span list with span 1. Place and
/// eject are O(1) plus a search of one slot or one group's span list, and a
/// rung reset zeroes the slot lengths and empties the span lists.
#[derive(Debug, Clone, Default)]
pub struct SlotIndex {
    ii: u32,
    /// Indexed by `ResourceClass as usize`.
    classes: [ClassSlots; 5],
}

impl SlotIndex {
    /// Empty index for an II attempt.
    pub fn new(ii: u32, caps: &ResourceCaps) -> Self {
        let mut index = SlotIndex::default();
        index.rebind(ii, caps);
        index
    }

    /// Re-shape the index for a new II and empty it, keeping its
    /// allocations: zero the slot lengths, clear the span lists. The attempt
    /// arena calls this once per II restart.
    pub fn reset_for_ii(&mut self, ii: u32) {
        let ii = ii.max(1);
        self.ii = ii;
        for slots in &mut self.classes {
            let n = ii as usize * slots.groups;
            slots.len.clear();
            slots.len.resize(n, 0);
            // Entries past a slot's length are never read.
            slots.nodes.resize(n * slots.stride, NodeId(u32::MAX));
            slots.spans.iter_mut().for_each(Vec::clear);
        }
    }

    /// Re-shape the index for a new machine's capacities (cluster count,
    /// units per row and memory-port sharing can all change) and clear it
    /// for an attempt at `ii`, reusing the allocations. Called by
    /// [`PlacementStore::rebind`].
    pub fn rebind(&mut self, ii: u32, caps: &ResourceCaps) {
        let shared = caps.memory_is_shared();
        for (class, units, global) in [
            (ResourceClass::Fu, caps.fus_per_cluster, false),
            (
                ResourceClass::MemPort,
                if shared {
                    caps.shared_mem_ports
                } else {
                    caps.mem_ports_per_cluster
                },
                shared,
            ),
            (ResourceClass::Bus, caps.buses, true),
            (ResourceClass::SharedReadPort, caps.lp, false),
            (ResourceClass::SharedWritePort, caps.sp, false),
        ] {
            let slots = &mut self.classes[class as usize];
            slots.global = global;
            slots.groups = if global { 1 } else { caps.clusters as usize };
            slots.stride = units.min(MAX_SLOT_UNITS) as usize;
            if slots.spans.len() < slots.groups {
                slots.spans.resize_with(slots.groups, Vec::new);
            }
        }
        self.reset_for_ii(ii);
    }

    /// Add (`add`) or remove `n` for one reservation: the `min(occupancy,
    /// II)` consecutive rows (modulo the II) from its issue row — the
    /// slot-index leg of the store's place/eject transaction.
    pub(crate) fn update_span(
        &mut self,
        n: NodeId,
        kind: OpKind,
        cycle: i64,
        cluster: u32,
        lat: &OpLatencies,
        add: bool,
    ) {
        let class = kind.resource_class();
        let ii = self.ii;
        let start = cycle.rem_euclid(ii as i64) as u32;
        let len = lat.occupancy(kind).min(ii);
        let slots = &mut self.classes[class as usize];
        let group = if slots.global { 0 } else { cluster as usize };
        if len == 1 {
            let slot = start as usize * slots.groups + group;
            let first = slot * slots.stride;
            let held = usize::from(slots.len[slot]);
            if add {
                if held < slots.stride {
                    slots.nodes[first + held] = n;
                    slots.len[slot] += 1;
                    return;
                }
            } else if let Some(pos) = slots.nodes[first..first + held]
                .iter()
                .position(|&x| x == n)
            {
                slots.nodes[first + pos] = slots.nodes[first + held - 1];
                slots.len[slot] -= 1;
                return;
            }
        }
        let spans = &mut slots.spans[group];
        if add {
            spans.push(Span {
                node: n,
                start,
                len,
            });
        } else if let Some(pos) = spans.iter().position(|s| s.node == n) {
            spans.swap_remove(pos);
        } else {
            debug_assert!(false, "SlotIndex: {n} missing from {class:?} row {start}");
        }
    }

    /// Record a placement: the node reserves the `min(occupancy, II)`
    /// consecutive rows (modulo the II) starting at its issue row.
    pub fn insert(&mut self, n: NodeId, kind: OpKind, cycle: i64, cluster: u32, lat: &OpLatencies) {
        self.update_span(n, kind, cycle, cluster, lat, true);
    }

    /// Erase a placement (must mirror a previous [`SlotIndex::insert`]).
    pub fn remove(&mut self, n: NodeId, kind: OpKind, cycle: i64, cluster: u32, lat: &OpLatencies) {
        self.update_span(n, kind, cycle, cluster, lat, false);
    }

    /// Placed nodes whose reservation of `class` touches `row` (on `cluster`
    /// for cluster-local classes; the cluster is ignored for global ones),
    /// in no particular order: the row's one-row slot, then the group's span
    /// entries that cover the row.
    pub fn candidates(
        &self,
        class: ResourceClass,
        row: u32,
        cluster: u32,
    ) -> impl Iterator<Item = NodeId> + '_ {
        let slots = &self.classes[class as usize];
        let group = if slots.global { 0 } else { cluster as usize };
        let slot = row as usize * slots.groups + group;
        let one_row = &slots.nodes[slot * slots.stride..][..usize::from(slots.len[slot])];
        let ii = self.ii;
        let covers = move |s: &&Span| {
            let offset = if row >= s.start {
                row - s.start
            } else {
                row + ii - s.start
            };
            offset < s.len
        };
        one_row
            .iter()
            .copied()
            .chain(slots.spans[group].iter().filter(covers).map(|s| s.node))
    }

    /// Compare against an index rebuilt from scratch; returns a description
    /// of the first (class, row, group) whose candidate sets differ, if any.
    /// Membership is compared as a set per row, so it does not depend on
    /// which layout holds an entry or in what order (`swap_remove` reorders
    /// entries; victim selection is order-independent).
    pub fn diff(&self, other: &SlotIndex) -> Option<String> {
        if self.ii != other.ii {
            return Some(format!("II {} vs {}", self.ii, other.ii));
        }
        let classes = [
            ResourceClass::Fu,
            ResourceClass::MemPort,
            ResourceClass::Bus,
            ResourceClass::SharedReadPort,
            ResourceClass::SharedWritePort,
        ];
        for class in classes {
            let (a, b) = (
                &self.classes[class as usize],
                &other.classes[class as usize],
            );
            if a.groups != b.groups {
                return Some(format!("{class:?}: {} groups vs {}", a.groups, b.groups));
            }
            for row in 0..self.ii {
                for group in 0..a.groups as u32 {
                    let set = |index: &SlotIndex| {
                        let mut v: Vec<u32> =
                            index.candidates(class, row, group).map(|n| n.0).collect();
                        v.sort_unstable();
                        v
                    };
                    let (x, y) = (set(self), set(other));
                    if x != y {
                        return Some(format!("{class:?} row {row} group {group}: {x:?} vs {y:?}"));
                    }
                }
            }
        }
        None
    }
}

/// The per-node hot fields of the attempt inner loop, packed into one
/// 24-byte record so a placement transaction and the neighbour walks of
/// cluster selection and pressure tracking each touch a single contiguous
/// array instead of parallel `Vec<Option<…>>`s (which padded the same data
/// across 40 bytes and two cache-line streams).
///
/// Validity lives in `flags` instead of `Option` discriminants: bit 0 says
/// the `(cycle, cluster)` placement is live, bit 1 says `prev_cycle` (the
/// memory of Rau's force heuristic, deliberately retained across ejections)
/// has ever been written.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeHot {
    cycle: i64,
    prev_cycle: i64,
    cluster: u32,
    flags: u32,
}

impl NodeHot {
    const PLACED: u32 = 1;
    const HAS_PREV: u32 = 1 << 1;
    /// An unplaced node with no placement history.
    pub const EMPTY: NodeHot = NodeHot {
        cycle: 0,
        prev_cycle: 0,
        cluster: 0,
        flags: 0,
    };

    /// Current placement, `None` when unplaced.
    #[inline]
    pub fn placement(&self) -> Option<(i64, u32)> {
        if self.flags & Self::PLACED != 0 {
            Some((self.cycle, self.cluster))
        } else {
            None
        }
    }

    /// Whether the node is currently placed.
    #[inline]
    pub fn is_placed(&self) -> bool {
        self.flags & Self::PLACED != 0
    }

    /// Cycle of the most recent placement, if any.
    #[inline]
    pub fn prev_cycle(&self) -> Option<i64> {
        if self.flags & Self::HAS_PREV != 0 {
            Some(self.prev_cycle)
        } else {
            None
        }
    }
}

impl PlacementView for [NodeHot] {
    #[inline]
    fn placement_of(&self, n: NodeId) -> Option<(i64, u32)> {
        self[n.index()].placement()
    }
}

impl PlacementView for Vec<NodeHot> {
    #[inline]
    fn placement_of(&self, n: NodeId) -> Option<(i64, u32)> {
        self[n.index()].placement()
    }
}

/// Two-tier bitset priority queue over the worklist's total `(rank, id)`
/// order. Ranks are unique (a rank is a position in the priority order), so
/// the ranked tier is one bit per rank; nodes the order does not know
/// (inserted after ordering, all at `usize::MAX`) tie-break by id, so the
/// unranked tier is one bit per node id and pops after every ranked node. A
/// membership bit also deduplicates a node pushed twice; a duplicate pop
/// would only be dropped by the caller's placed/inactive filter, so
/// collapsing duplicates never changes the sequence of pops that survive
/// the filter.
#[derive(Debug, Clone, Default)]
struct RankQueue {
    /// One bit per priority rank.
    ranked: Vec<u64>,
    /// Lowest word of `ranked` that may contain a set bit.
    ranked_hint: usize,
    ranked_len: usize,
    /// One bit per node id, for nodes without a rank.
    unranked: Vec<u64>,
    unranked_hint: usize,
    unranked_len: usize,
}

/// A popped [`RankQueue`] entry: either a priority rank (resolve through
/// `order.order[rank]`) or a raw node index.
enum QueueSlot {
    Ranked(usize),
    Unranked(usize),
}

impl RankQueue {
    fn clear(&mut self) {
        self.ranked.iter_mut().for_each(|w| *w = 0);
        self.unranked.iter_mut().for_each(|w| *w = 0);
        self.ranked_hint = 0;
        self.unranked_hint = 0;
        self.ranked_len = 0;
        self.unranked_len = 0;
    }

    fn is_empty(&self) -> bool {
        self.ranked_len == 0 && self.unranked_len == 0
    }

    fn set(bits: &mut Vec<u64>, hint: &mut usize, len: &mut usize, i: usize) {
        let word = i / 64;
        if word >= bits.len() {
            bits.resize(word + 1, 0);
        }
        let mask = 1u64 << (i % 64);
        if bits[word] & mask == 0 {
            bits[word] |= mask;
            *len += 1;
            *hint = (*hint).min(word);
        }
    }

    fn push_ranked(&mut self, rank: usize) {
        Self::set(
            &mut self.ranked,
            &mut self.ranked_hint,
            &mut self.ranked_len,
            rank,
        );
    }

    fn push_unranked(&mut self, id: usize) {
        Self::set(
            &mut self.unranked,
            &mut self.unranked_hint,
            &mut self.unranked_len,
            id,
        );
    }

    fn take_first(bits: &mut [u64], hint: &mut usize, len: &mut usize) -> usize {
        let mut w = *hint;
        loop {
            let word = bits[w];
            if word != 0 {
                let bit = word.trailing_zeros() as usize;
                bits[w] = word & (word - 1);
                *hint = w;
                *len -= 1;
                return w * 64 + bit;
            }
            w += 1;
        }
    }

    fn pop(&mut self) -> Option<QueueSlot> {
        if self.ranked_len > 0 {
            return Some(QueueSlot::Ranked(Self::take_first(
                &mut self.ranked,
                &mut self.ranked_hint,
                &mut self.ranked_len,
            )));
        }
        if self.unranked_len > 0 {
            return Some(QueueSlot::Unranked(Self::take_first(
                &mut self.unranked,
                &mut self.unranked_hint,
                &mut self.unranked_len,
            )));
        }
        None
    }
}

/// The unified placement state of one II attempt: every mutation is a
/// `place`, `eject` or `remove_chain_members` transaction. See the module
/// docs.
#[derive(Debug, Clone, Default)]
pub struct PlacementStore {
    ii: u32,
    mrt: Mrt,
    index: SlotIndex,
    /// Per-node hot fields (placement + `prev_cycle`), structure-of-arrays.
    hot: Vec<NodeHot>,
    tracker: PressureTracker,
    /// Reservation rows covered by the MRT updates of
    /// [`PlacementStore::apply_reservation`] this attempt (`min(occ, II)` per
    /// reservation) — the event-volume side of
    /// [`crate::SchedulerStats::fused_row_updates`].
    fused_rows: u64,
    order: PriorityOrder,
    worklist: RankQueue,
    /// Scratch for the chain ids removed by one ejection (reused; the
    /// collect-then-remove two-phase is required because removal mutates the
    /// index being enumerated).
    chain_ids_scratch: Vec<usize>,
    /// Scratch for the member nodes of one removed chain (reused).
    chain_members_scratch: Vec<NodeId>,
    /// Reusable drain buffer for the graph's pressure-dirty set (swapped
    /// back and forth so neither side reallocates at steady state).
    dirty_scratch: Vec<NodeId>,
    /// Reusable `(rank, snapshot index)` sort buffer for
    /// [`PlacementStore::warm_remap`].
    warm_scratch: Vec<(usize, u32)>,
}

impl PlacementStore {
    /// Empty store for an attempt at the given II.
    pub fn new(ii: u32, caps: ResourceCaps, num_nodes: usize, order: PriorityOrder) -> Self {
        let mut store = PlacementStore {
            order,
            ..PlacementStore::default()
        };
        store.rebind(ii, caps, num_nodes);
        store
    }

    /// Clear every piece of placement state and re-shape the II-sized tables
    /// for a new attempt, reusing every allocation.
    /// `num_nodes` is the *pristine* node count of the working graph: the
    /// per-node arrays shrink back to it, so capacity grown for
    /// spill/communication nodes of a previous II cannot leak into this one.
    /// The priority order is updated separately (see
    /// [`PlacementStore::order_mut`]); the worklist is emptied, callers
    /// requeue the active nodes afterwards.
    pub fn reset_for_ii(&mut self, ii: u32, num_nodes: usize) {
        self.mrt.reset_for_ii(ii);
        self.index.reset_for_ii(ii);
        self.tracker.reset_for_ii(ii, num_nodes);
        self.clear_placements(ii, num_nodes);
    }

    /// Re-target the store at a new machine's capacities and clear it for an
    /// attempt at `ii`, reusing the MRT, slot-index, tracker and per-node
    /// array allocations. `num_nodes` is the pristine node count of the
    /// newly bound working graph. The priority order is kept; the arena
    /// recomputes it at its first reset (via [`PlacementStore::order_mut`]).
    pub fn rebind(&mut self, ii: u32, caps: ResourceCaps, num_nodes: usize) {
        self.mrt.rebind(ii, caps);
        self.index.rebind(ii, &caps);
        self.tracker.rebind(ii, caps.clusters, num_nodes);
        self.clear_placements(ii, num_nodes);
    }

    /// The per-node and worklist tail of [`PlacementStore::reset_for_ii`]
    /// and [`PlacementStore::rebind`].
    fn clear_placements(&mut self, ii: u32, num_nodes: usize) {
        self.ii = ii.max(1);
        self.hot.clear();
        self.hot.resize(num_nodes, NodeHot::EMPTY);
        self.fused_rows = 0;
        self.worklist.clear();
    }

    /// Mutable access to the priority order, for the attempt arena's
    /// in-place recomputation across II restarts. Replacing the order while
    /// the worklist is non-empty would desynchronise the queued ranks; the
    /// arena only calls this right after [`PlacementStore::reset_for_ii`].
    pub fn order_mut(&mut self) -> &mut PriorityOrder {
        debug_assert!(self.worklist.is_empty());
        &mut self.order
    }

    /// II of the attempt.
    pub fn ii(&self) -> u32 {
        self.ii
    }

    /// The modulo reservation table (read-only: mutations go through
    /// [`PlacementStore::place`] / [`PlacementStore::eject`]).
    pub fn mrt(&self) -> &Mrt {
        &self.mrt
    }

    /// The slot index (read-only; exposed for cross-checks and tests).
    pub fn slot_index(&self) -> &SlotIndex {
        &self.index
    }

    /// The incremental pressure tracker (read-only).
    pub fn tracker(&self) -> &PressureTracker {
        &self.tracker
    }

    /// Drain the attempt's engine counters:
    /// `(pressure refreshes, fused row updates)`. The arena folds them into
    /// its [`crate::SchedulerStats`] after each attempt.
    pub fn take_engine_counters(&mut self) -> (u64, u64) {
        let refreshes = self.tracker.take_refreshes();
        let fused = std::mem::take(&mut self.fused_rows);
        (refreshes, fused)
    }

    /// The scheduling priority order of this attempt.
    pub fn order(&self) -> &PriorityOrder {
        &self.order
    }

    /// Current (partial) placements as the contiguous per-node hot block —
    /// a [`PlacementView`], so pressure and cluster queries take it directly.
    pub fn placements(&self) -> &[NodeHot] {
        &self.hot
    }

    /// Placement of one node.
    pub fn placement(&self, n: NodeId) -> Option<(i64, u32)> {
        self.hot[n.index()].placement()
    }

    /// Whether a node is currently placed.
    pub fn is_placed(&self, n: NodeId) -> bool {
        self.hot[n.index()].is_placed()
    }

    /// Cycle of the node's most recent placement (Rau's force heuristic
    /// never re-forces at or before it).
    pub fn prev_cycle(&self, n: NodeId) -> Option<i64> {
        self.hot[n.index()].prev_cycle()
    }

    /// Push a node (back) onto the worklist at its priority rank.
    pub fn requeue(&mut self, n: NodeId) {
        match self.order.rank_of(n) {
            usize::MAX => self.worklist.push_unranked(n.index()),
            rank => self.worklist.push_ranked(rank),
        }
    }

    /// Pop the highest-priority worklist entry. Entries may be stale
    /// (already placed or deactivated since they were pushed); the caller
    /// filters, so a pop is not necessarily a scheduling attempt.
    pub fn pop_worklist(&mut self) -> Option<NodeId> {
        match self.worklist.pop()? {
            QueueSlot::Ranked(rank) => Some(self.order.order[rank]),
            QueueSlot::Unranked(id) => Some(NodeId(id as u32)),
        }
    }

    /// Keep the per-node arrays in sync with a growing graph.
    pub fn grow(&mut self, num_nodes: usize) {
        if num_nodes > self.hot.len() {
            self.hot.resize(num_nodes, NodeHot::EMPTY);
        }
        self.tracker.grow(num_nodes);
    }

    /// Bring the incremental tracker up to date with any graph rewiring
    /// (chain insertion/removal) since the last query.
    pub fn sync_pressure(&mut self, w: &mut WorkGraph) {
        if !w.has_pressure_dirty() {
            // Nothing rewired since the last drain — the common case on the
            // per-pop sync. Draining an empty set would only shuffle the two
            // scratch buffers around.
            return;
        }
        let mut dirty = std::mem::take(&mut self.dirty_scratch);
        w.swap_pressure_dirty(&mut dirty);
        // One chain rewiring pushes the same def once per flow edge it
        // touches; refresh is idempotent and order-independent, so the
        // duplicates are pure waste — each one re-derives the def's full
        // lifetime from its consumer edges.
        dirty.sort_unstable_by_key(|n| n.index());
        dirty.dedup();
        for &n in &dirty {
            self.tracker.refresh(w, self.hot.as_slice(), n);
        }
        self.dirty_scratch = dirty;
    }

    /// The reservation kernel shared by place and unplace: the MRT row
    /// counts and the [`SlotIndex`] entry move together. Non-FU classes pin
    /// their MRT resource only in the issue row; every class is indexed
    /// across its whole occupancy span.
    fn apply_reservation(
        &mut self,
        kind: OpKind,
        n: NodeId,
        cycle: i64,
        cluster: u32,
        lat: &OpLatencies,
        add: bool,
    ) {
        if add {
            self.mrt.place(kind, cycle, cluster, lat);
        } else {
            self.mrt.remove(kind, cycle, cluster, lat);
        }
        self.fused_rows += u64::from(lat.occupancy(kind).min(self.ii));
        self.index.update_span(n, kind, cycle, cluster, lat, add);
    }

    /// Place a node: reserve its MRT slots, index the reservation, record
    /// the placement and `prev_cycle`, and update the pressure tracker —
    /// one transaction, nothing to forget.
    pub fn place(&mut self, w: &WorkGraph, n: NodeId, cycle: i64, cluster: u32, lat: &OpLatencies) {
        debug_assert!(!self.hot[n.index()].is_placed(), "{n} placed twice");
        // Placing a deactivated node would leak its MRT reservation (no
        // eject can ever reach it again) and let the indexed victim search
        // see a node the active-node scan cannot — the scheduler checks
        // activity after every ejection cascade instead.
        debug_assert!(w.is_active(n), "{n} placed while inactive");
        let kind = w.ddg.node(n).kind;
        self.apply_reservation(kind, n, cycle, cluster, lat, true);
        self.hot[n.index()] = NodeHot {
            cycle,
            prev_cycle: cycle,
            cluster,
            flags: NodeHot::PLACED | NodeHot::HAS_PREV,
        };
        self.tracker.touch(w, self.hot.as_slice(), n);
    }

    /// The single unplace path shared by `eject` and chain removal: release
    /// the MRT slots, erase the index entries, forget the placement and
    /// refresh the pressure tracker. `prev_cycle` is deliberately retained.
    fn unplace(&mut self, w: &WorkGraph, n: NodeId, lat: &OpLatencies) {
        if let Some((cycle, cluster)) = self.hot[n.index()].placement() {
            let kind = w.ddg.node(n).kind;
            self.apply_reservation(kind, n, cycle, cluster, lat, false);
            self.hot[n.index()].flags &= !NodeHot::PLACED;
        }
        // Refresh even when the node was unplaced: chain removal
        // deactivates nodes, which perturbs lifetimes on its own.
        self.tracker.touch(w, self.hot.as_slice(), n);
    }

    /// Eject a node: unplace it, push it back on the worklist and remove the
    /// communication/spill chains that depended on it (recursively ejecting
    /// chain owners). Returns the number of ejections performed (for
    /// [`crate::types::SchedulerStats::ejections`]).
    pub fn eject(&mut self, w: &mut WorkGraph, v: NodeId, lat: &OpLatencies) -> u64 {
        let mut count = 1u64;
        self.unplace(w, v, lat);
        if w.is_inserted(v) {
            if w.is_permanent(v) {
                // Memory-interface operations are a permanent part of the
                // graph for hierarchical targets: ejecting one just requeues
                // it, and unlike an original node it removes no chain.
                self.requeue(v);
            } else if let Some(chain) = w.chain_containing(v) {
                // Removing a chain node removes its whole chain and requeues
                // (or recursively ejects) the owner.
                let owner = w.chain_owner(chain);
                self.remove_chain_members(w, chain, lat);
                if owner != v && w.is_active(owner) {
                    if self.is_placed(owner) {
                        count += self.eject(w, owner, lat);
                    } else {
                        self.requeue(owner);
                    }
                }
            }
            return count;
        }
        // Remove chains attached to this node and unplace their members.
        let mut chains = std::mem::take(&mut self.chain_ids_scratch);
        chains.clear();
        w.chains_to_remove_into(v, &mut chains);
        for &chain in &chains {
            self.remove_chain_members(w, chain, lat);
        }
        self.chain_ids_scratch = chains;
        self.requeue(v);
        count
    }

    /// Deactivate one chain in the graph and unplace every member — the
    /// chain-removal notification from [`WorkGraph::remove_chain_into`] flows
    /// through the store so no mutation path can forget the MRT, index or
    /// tracker updates.
    pub fn remove_chain_members(&mut self, w: &mut WorkGraph, chain: usize, lat: &OpLatencies) {
        let mut members = std::mem::take(&mut self.chain_members_scratch);
        members.clear();
        w.remove_chain_into(chain, &mut members);
        for &r in &members {
            self.unplace(w, r, lat);
        }
        self.chain_members_scratch = members;
    }

    /// Choose an ejection victim that frees the resource `kind` needs at
    /// `cycle` on `cluster`, enumerating only the nodes the [`SlotIndex`]
    /// records for the conflicting (class, row, cluster) — O(row occupancy
    /// plus the cluster's multi-row reservations) instead of O(active
    /// nodes). Original nodes with the lowest priority
    /// are preferred; inserted nodes are a last resort (removing them drags
    /// their owner out too); ties break towards the lowest node id, exactly
    /// like the linear scan.
    pub fn pick_victim(
        &self,
        w: &WorkGraph,
        u: NodeId,
        kind: OpKind,
        cycle: i64,
        cluster: u32,
    ) -> Option<NodeId> {
        let class = kind.resource_class();
        let cands = self.index.candidates(class, self.row_of(cycle), cluster);
        self.best_victim(w, u, cands)
    }

    /// The paper-literal O(active nodes) victim scan: the reference
    /// scheduler's victim search, which the property and equivalence tests
    /// compare [`PlacementStore::pick_victim`] against (and the baseline of
    /// `benches/ejection.rs`).
    pub fn pick_victim_linear(
        &self,
        w: &WorkGraph,
        u: NodeId,
        kind: OpKind,
        cycle: i64,
        cluster: u32,
        lat: &OpLatencies,
    ) -> Option<NodeId> {
        let ii = self.ii;
        let class = kind.resource_class();
        let row = self.row_of(cycle);
        let caps = self.mrt.caps();
        let global = matches!(class, ResourceClass::Bus)
            || (class == ResourceClass::MemPort && caps.memory_is_shared());
        let candidates = w.active_nodes().filter(|&v| {
            let Some((vc, vcl)) = self.hot[v.index()].placement() else {
                return false;
            };
            let vkind = w.ddg.node(v).kind;
            if vkind.resource_class() != class {
                return false;
            }
            // Cluster-local resources must match clusters; global resources
            // (shared memory ports, buses) conflict regardless of cluster.
            if !global && vcl != cluster {
                return false;
            }
            // Does v's reservation touch the conflicting row?
            let occ = lat.occupancy(vkind).min(ii);
            let vrow = vc.rem_euclid(ii as i64) as u32;
            (0..occ).any(|k| (vrow + k) % ii == row)
        });
        self.best_victim(w, u, candidates)
    }

    /// The MRT row a forced placement at `cycle` conflicts in — the one row
    /// both victim searches draw their candidates from.
    fn row_of(&self, cycle: i64) -> u32 {
        cycle.rem_euclid(self.ii as i64) as u32
    }

    /// Shared victim ranking: max over `(is_original, rank, lowest id)`.
    fn best_victim(
        &self,
        w: &WorkGraph,
        u: NodeId,
        candidates: impl Iterator<Item = NodeId>,
    ) -> Option<NodeId> {
        candidates
            .filter(|&v| v != u && self.hot[v.index()].is_placed())
            .max_by_key(|&v| (!w.is_inserted(v), self.order.rank_of(v), Reverse(v.0)))
    }

    /// Warm-start remap: re-seed a just-reset store with the surviving
    /// placements of the previous (failed, lower-II) attempt. Each snapshot
    /// entry keeps its absolute `(cycle, cluster)` — the MRT row falls out
    /// as `cycle mod new-II` — after passing two checks against the
    /// survivors re-placed before it:
    ///
    /// * every active dependence edge window still holds
    ///   (`dst ≥ src + delay − II·distance`; on an *upward* II bump the
    ///   ladder's windows only widen, but the proptests drive arbitrary
    ///   snapshots, and self-edges are probed at the candidate cycle), and
    ///   the edge needs no communication between the two retained clusters
    ///   — the reset truncated the failed attempt's comm chains, and
    ///   retained nodes never pass through communication insertion;
    /// * the MRT accepts the exact cycle ([`Mrt::can_place`]).
    ///
    /// Entries are processed in ascending `(rank, id)` — worklist pop order
    /// — so when survivors collide in the smaller row space, the node the
    /// scheduler would have scheduled first keeps its slot. Conflicting
    /// nodes are simply skipped; the caller requeues every node left
    /// unplaced. Returns the number of placements retained.
    pub fn warm_remap(
        &mut self,
        w: &mut WorkGraph,
        snapshot: &[(NodeId, i64, u32)],
        lat: &OpLatencies,
        binding_prefetch: bool,
    ) -> u32 {
        // The pristine reset just truncated the failed attempt's chains;
        // drain the dirty set before the first tracker touch.
        self.sync_pressure(w);
        let ii = self.ii as i64;
        let mut idxs = std::mem::take(&mut self.warm_scratch);
        idxs.clear();
        // Snapshot entries arrive in ascending node id, so sorting by
        // (rank, snapshot index) is sorting by (rank, id) — the worklist's
        // total pop order.
        idxs.extend(
            snapshot
                .iter()
                .enumerate()
                .map(|(i, &(n, _, _))| (self.order.rank_of(n), i as u32)),
        );
        idxs.sort_unstable();
        let mut retained = 0u32;
        'entries: for &(_, i) in &idxs {
            let (n, cycle, cluster) = snapshot[i as usize];
            if !w.is_active(n) || self.hot[n.index()].is_placed() {
                continue;
            }
            for (_, e) in w.active_pred_edges(n) {
                let (src_cycle, src_cluster) = if e.src == n {
                    (cycle, cluster)
                } else {
                    match self.hot[e.src.index()].placement() {
                        Some(p) => p,
                        None => continue,
                    }
                };
                if w.needs_communication(e, src_cluster, cluster) {
                    continue 'entries;
                }
                let delay = w.edge_delay(e, lat, binding_prefetch);
                if src_cycle + delay - ii * e.distance as i64 > cycle {
                    continue 'entries;
                }
            }
            for (_, e) in w.active_succ_edges(n) {
                let (dst_cycle, dst_cluster) = if e.dst == n {
                    (cycle, cluster)
                } else {
                    match self.hot[e.dst.index()].placement() {
                        Some(p) => p,
                        None => continue,
                    }
                };
                if w.needs_communication(e, cluster, dst_cluster) {
                    continue 'entries;
                }
                let delay = w.edge_delay(e, lat, binding_prefetch);
                if cycle + delay - ii * e.distance as i64 > dst_cycle {
                    continue 'entries;
                }
            }
            let kind = w.ddg.node(n).kind;
            if !self.mrt.can_place(kind, cycle, cluster, lat) {
                continue;
            }
            self.place(w, n, cycle, cluster, lat);
            retained += 1;
        }
        self.warm_scratch = idxs;
        retained
    }

    /// Desynchronise the index on purpose (test aid for the store
    /// validator): erases one node's index entries while leaving its
    /// placement and MRT reservation in place — exactly the drift a
    /// mutation path bypassing the transactional API would cause.
    #[cfg(test)]
    pub(crate) fn desync_index_for_test(&mut self, w: &WorkGraph, n: NodeId, lat: &OpLatencies) {
        let (cycle, cluster) = self.hot[n.index()]
            .placement()
            .expect("node must be placed");
        let kind = w.ddg.node(n).kind;
        self.index.remove(n, kind, cycle, cluster, lat);
    }

    /// Cross-check the derived structures against the ground truth: the
    /// [`SlotIndex`] membership must equal a from-scratch scan of the
    /// placements, and the MRT must equal a table rebuilt by replaying every
    /// placement. Returns a description of the first divergence, if any.
    pub fn check_consistency(&self, w: &WorkGraph, lat: &OpLatencies) -> Option<String> {
        let caps = *self.mrt.caps();
        let mut index = SlotIndex::new(self.ii, &caps);
        let mut mrt = Mrt::new(self.ii, caps);
        for n in w.active_nodes() {
            if let Some((cycle, cluster)) = self.hot.get(n.index()).and_then(|r| r.placement()) {
                let kind = w.ddg.node(n).kind;
                index.insert(n, kind, cycle, cluster, lat);
                mrt.place(kind, cycle, cluster, lat);
            }
        }
        if let Some(diff) = self.index.diff(&index) {
            return Some(format!("SlotIndex diverges from placement scan: {diff}"));
        }
        if mrt != self.mrt {
            return Some("MRT diverges from a table rebuilt from the placements".to_string());
        }
        // The incremental free-slot totals must match a recount of the
        // live row counts (the replayed-table equality above compares two
        // totals that went through the same `adjust` path, so it cannot
        // catch a maintenance bug on its own).
        if let Some(diff) = self.mrt.check_fu_free() {
            return Some(format!("MRT free-slot total stale: {diff}"));
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::order::priority_order;
    use hcrf_ir::DdgBuilder;
    use hcrf_machine::{MachineConfig, RfOrganization};

    fn machine(cfg: &str) -> MachineConfig {
        MachineConfig::paper_baseline(RfOrganization::parse(cfg).unwrap())
    }

    fn lat() -> OpLatencies {
        OpLatencies::paper_baseline()
    }

    fn store_for(w: &WorkGraph, m: &MachineConfig, ii: u32) -> PlacementStore {
        let caps = ResourceCaps::from_machine(m);
        let order = priority_order(w, &lat(), ii);
        PlacementStore::new(ii, caps, w.ddg.num_nodes(), order)
    }

    #[test]
    fn place_and_eject_keep_index_and_mrt_consistent() {
        let mut b = DdgBuilder::new("s");
        let l = b.load(0, 8);
        let a = b.op(OpKind::FAdd);
        let d = b.op(OpKind::FDiv);
        b.flow(l, a, 0).flow(a, d, 0);
        let g = b.build();
        let m = machine("4C32");
        let mut w = WorkGraph::new(&g, &m);
        let mut store = store_for(&w, &m, 4);
        store.place(&w, l, 0, 0, &lat());
        store.place(&w, a, 2, 1, &lat());
        store.place(&w, d, 3, 1, &lat());
        assert_eq!(store.check_consistency(&w, &lat()), None);
        // The divide (occupancy 17 > II 4) must appear in every row of its
        // cluster's FU lists.
        for row in 0..4 {
            assert!(store
                .slot_index()
                .candidates(ResourceClass::Fu, row, 1)
                .any(|n| n == d));
        }
        assert_eq!(store.eject(&mut w, d, &lat()), 1);
        assert!(!store.is_placed(d));
        assert_eq!(store.prev_cycle(d), Some(3));
        assert_eq!(store.check_consistency(&w, &lat()), None);
    }

    #[test]
    fn ejecting_an_interface_loadr_requeues_it_and_keeps_its_chain() {
        let mut b = DdgBuilder::new("iface");
        let l = b.load(0, 8);
        let a = b.op(OpKind::FAdd);
        b.flow(l, a, 0);
        let g = b.build();
        let m = machine("4C16S64");
        let mut w = WorkGraph::new(&g, &m);
        // The memory interface feeds the add from a LoadR; communicate that
        // value to the add's cluster.
        let (edge, ldr) = w
            .active_pred_edges(a)
            .map(|(id, e)| (id, e.src))
            .next()
            .unwrap();
        assert_eq!(w.ddg.node(ldr).kind, OpKind::LoadR);
        let mut chain = Vec::new();
        w.insert_communication_into(a, edge, &mut chain);
        assert_eq!(chain.len(), 2);
        let mut store = store_for(&w, &m, 4);
        store.place(&w, l, 0, 0, &lat());
        store.place(&w, ldr, 1, 0, &lat());
        store.place(&w, chain[0], 2, 0, &lat());
        store.place(&w, chain[1], 3, 1, &lat());

        // The interface LoadR is permanent: ejecting it only requeues it,
        // although the chain's replaced edge touches it.
        assert_eq!(store.eject(&mut w, ldr, &lat()), 1);
        assert_eq!(store.pop_worklist(), Some(ldr));
        assert_eq!(store.pop_worklist(), None);
        assert!(w.is_active(ldr));
        assert!(chain.iter().all(|&n| w.is_active(n) && store.is_placed(n)));
        assert!(w.chain_containing(chain[0]).is_some());
        assert!(!w.edge_is_active(edge));
        assert_eq!(store.check_consistency(&w, &lat()), None);

        // Ejecting the original node at its other end removes the chain.
        store.eject(&mut w, a, &lat());
        assert!(chain.iter().all(|&n| !w.is_active(n)));
        assert!(w.edge_is_active(edge));
        assert_eq!(store.check_consistency(&w, &lat()), None);
    }

    #[test]
    fn global_memory_ports_indexed_cluster_agnostically() {
        let mut b = DdgBuilder::new("g");
        let l1 = b.load(0, 8);
        let l2 = b.load(1, 8);
        let g = b.build();
        let m = machine("4C16S64"); // hierarchical: shared memory ports
        let w = WorkGraph::new(&g, &m);
        let mut store = store_for(&w, &m, 2);
        store.place(&w, l1, 0, 0, &lat());
        store.place(&w, l2, 0, 3, &lat());
        // Both loads conflict in row 0 regardless of the cluster queried.
        for c in 0..4 {
            let cands = store.slot_index().candidates(ResourceClass::MemPort, 0, c);
            assert_eq!(cands.count(), 2, "cluster {c}");
        }
        assert_eq!(store.check_consistency(&w, &lat()), None);
    }

    #[test]
    fn indexed_victim_matches_linear_scan() {
        let mut b = DdgBuilder::new("v");
        let mut nodes = Vec::new();
        for i in 0..6 {
            nodes.push(b.load(i, 8));
        }
        for _ in 0..4 {
            nodes.push(b.op(OpKind::FAdd));
        }
        let g = b.build();
        let m = machine("S128");
        let w = WorkGraph::new(&g, &m);
        let mut store = store_for(&w, &m, 2);
        for (i, n) in nodes.iter().enumerate() {
            store.place(&w, *n, i as i64 % 3, 0, &lat());
        }
        let probe = NodeId(u32::MAX - 1);
        for kind in [OpKind::Load, OpKind::FAdd] {
            for cycle in 0..3i64 {
                assert_eq!(
                    store.pick_victim(&w, probe, kind, cycle, 0),
                    store.pick_victim_linear(&w, probe, kind, cycle, 0, &lat()),
                    "{kind:?} @ {cycle}"
                );
            }
        }
    }

    #[test]
    fn divide_above_its_occupancy_is_a_candidate_in_exactly_its_span_rows() {
        let mut b = DdgBuilder::new("span");
        let d = b.op(OpKind::FDiv);
        let g = b.build();
        let m = machine("8C16S16"); // 1 FU per cluster
        let w = WorkGraph::new(&g, &m);
        let ii = 24;
        let mut store = store_for(&w, &m, ii);
        // Issue row 20: the 17-row span wraps onto rows 0..=12.
        store.place(&w, d, 44, 3, &lat());
        assert_eq!(store.check_consistency(&w, &lat()), None);
        let probe = NodeId(u32::MAX - 1);
        for row in 0..ii {
            let covered = (row + ii - 20) % ii < 17;
            let on = |cluster| {
                store
                    .slot_index()
                    .candidates(ResourceClass::Fu, row, cluster)
                    .any(|n| n == d)
            };
            assert_eq!(on(3), covered, "row {row}");
            assert!(!on(2), "row {row} on another cluster");
            assert_eq!(
                store.pick_victim(&w, probe, OpKind::FAdd, row as i64, 3),
                store.pick_victim_linear(&w, probe, OpKind::FAdd, row as i64, 3, &lat()),
                "row {row}"
            );
        }
    }

    #[test]
    fn over_subscribed_one_row_slot_matches_the_scan() {
        let mut b = DdgBuilder::new("over");
        let adds: Vec<_> = (0..3).map(|_| b.op(OpKind::FAdd)).collect();
        let g = b.build();
        let m = machine("8C16S16"); // a one-entry FU slot per (row, cluster)
        let mut w = WorkGraph::new(&g, &m);
        let mut store = store_for(&w, &m, 4);
        let in_row = |store: &PlacementStore| {
            let mut v: Vec<_> = store
                .slot_index()
                .candidates(ResourceClass::Fu, 1, 5)
                .collect();
            v.sort();
            v
        };
        // Three adds forced into one row of a one-FU cluster: the slot
        // fills, and the other two spill.
        for &n in &adds {
            store.place(&w, n, 5, 5, &lat());
            assert_eq!(store.check_consistency(&w, &lat()), None);
        }
        assert_eq!(in_row(&store), adds);
        store.eject(&mut w, adds[0], &lat());
        assert_eq!(store.check_consistency(&w, &lat()), None);
        assert_eq!(in_row(&store), adds[1..]);
        store.place(&w, adds[0], 1, 5, &lat());
        store.eject(&mut w, adds[2], &lat());
        assert_eq!(store.check_consistency(&w, &lat()), None);
        assert_eq!(in_row(&store), adds[..2]);
        for &n in &adds[..2] {
            store.eject(&mut w, n, &lat());
        }
        assert_eq!(store.check_consistency(&w, &lat()), None);
        assert!(in_row(&store).is_empty());
    }

    #[test]
    fn reset_empties_both_layouts() {
        let mut b = DdgBuilder::new("reset");
        let d = b.op(OpKind::FDiv);
        let adds: Vec<_> = (0..3).map(|_| b.op(OpKind::FAdd)).collect();
        let l = b.load(0, 8);
        let g = b.build();
        let m = machine("8C16S16");
        let w = WorkGraph::new(&g, &m);
        let caps = ResourceCaps::from_machine(&m);
        let mut store = store_for(&w, &m, 20);
        store.place(&w, d, 3, 0, &lat()); // span list
        for &n in &adds {
            store.place(&w, n, 7, 1, &lat()); // a slot, then its spill
        }
        store.place(&w, l, 2, 0, &lat());
        assert!(store
            .slot_index()
            .diff(&SlotIndex::new(20, &caps))
            .is_some());
        for ii in [20, 7] {
            store.reset_for_ii(ii, g.num_nodes());
            assert_eq!(store.slot_index().diff(&SlotIndex::new(ii, &caps)), None);
            assert_eq!(store.check_consistency(&w, &lat()), None);
        }
    }

    #[test]
    fn worklist_pops_by_priority_rank() {
        let mut b = DdgBuilder::new("w");
        let l = b.load(0, 8);
        let a = b.op(OpKind::FAdd);
        b.flow(l, a, 0).flow(a, a, 1);
        let g = b.build();
        let m = machine("S64");
        let w = WorkGraph::new(&g, &m);
        let mut store = store_for(&w, &m, 4);
        store.requeue(l);
        store.requeue(a);
        // The recurrence node outranks the free load.
        assert_eq!(store.pop_worklist(), Some(a));
        assert_eq!(store.pop_worklist(), Some(l));
        assert_eq!(store.pop_worklist(), None);
    }
}
