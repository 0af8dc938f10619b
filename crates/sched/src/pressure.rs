//! Register lifetimes and per-bank register requirements (MaxLive).
//!
//! The register requirement of a modulo schedule is computed per bank as the
//! maximum, over the II rows of the kernel, of the number of simultaneously
//! live values: a value defined at cycle `d` and last consumed at cycle `e`
//! is live during `[d, e)` of the flat schedule, and in the kernel it
//! overlaps itself `floor((e - d) / II)` times in every row plus once more
//! in the rows of the remaining partial window. Loop invariants occupy one
//! register in every bank where they are consumed for the whole execution of
//! the loop.

use crate::types::{BankAssignment, Placement};
use crate::workgraph::WorkGraph;
use hcrf_ir::{DepKind, NodeId, OpLatencies};
use std::cell::Cell;
use std::collections::HashMap;

/// Lifetime of one value in one bank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ValueLifetime {
    /// Node defining the value.
    pub def: NodeId,
    /// Bank the value lives in.
    pub bank: BankAssignment,
    /// Definition cycle (flat schedule).
    pub start: i64,
    /// End of the lifetime: one past the last consumption cycle.
    pub end: i64,
    /// Consumer whose read ends the lifetime (useful for spilling: rerouting
    /// this consumer shortens the lifetime the most).
    pub last_consumer: Option<NodeId>,
}

impl ValueLifetime {
    /// Length of the lifetime in cycles.
    pub fn length(&self) -> i64 {
        (self.end - self.start).max(0)
    }

    /// Number of registers this value occupies in its bank at steady state.
    pub fn registers(&self, ii: u32) -> u32 {
        let ii = ii.max(1) as i64;
        ((self.length() + ii - 1) / ii).max(1) as u32
    }
}

/// Per-bank register pressure of a (partial) schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct Pressure {
    /// MaxLive of every cluster bank.
    pub cluster: Vec<u32>,
    /// MaxLive of the shared bank (0 when the machine has none).
    pub shared: u32,
    /// Lifetimes of all currently computable values (defs already placed).
    pub lifetimes: Vec<ValueLifetime>,
}

impl Pressure {
    /// MaxLive of a specific bank.
    pub fn of(&self, bank: BankAssignment) -> u32 {
        match bank {
            BankAssignment::Cluster(c) => self.cluster.get(c as usize).copied().unwrap_or(0),
            BankAssignment::Shared => self.shared,
        }
    }
}

/// Read-only view of the register pressure of a (partial) schedule.
///
/// Implemented both by the batch [`Pressure`] snapshot and by the
/// incremental [`PressureTracker`], so cluster selection and spill checking
/// can run against either without knowing which engine produced the numbers.
pub trait PressureQuery {
    /// MaxLive of cluster bank `c` (0 for out-of-range banks).
    fn cluster_live(&self, c: u32) -> u32;
    /// MaxLive of the shared bank (0 when the machine has none).
    fn shared_live(&self) -> u32;
    /// MaxLive of an arbitrary bank.
    fn live(&self, bank: BankAssignment) -> u32 {
        match bank {
            BankAssignment::Cluster(c) => self.cluster_live(c),
            BankAssignment::Shared => self.shared_live(),
        }
    }
}

impl PressureQuery for Pressure {
    fn cluster_live(&self, c: u32) -> u32 {
        self.cluster.get(c as usize).copied().unwrap_or(0)
    }
    fn shared_live(&self) -> u32 {
        self.shared
    }
}

/// Read-only view of the per-node placements a pressure or cluster query
/// walks. Implemented by the plain `Option<(cycle, cluster)>` slices the
/// batch oracle and the tests build, and by the store's contiguous SoA hot
/// block ([`crate::store::NodeHot`]), so the exact same generic code runs
/// over either layout — the two engines cannot diverge on representation.
pub trait PlacementView {
    /// Placement of node `n`: `(cycle, cluster)`, or `None` when unplaced.
    fn placement_of(&self, n: NodeId) -> Option<(i64, u32)>;
}

impl PlacementView for [Option<(i64, u32)>] {
    #[inline]
    fn placement_of(&self, n: NodeId) -> Option<(i64, u32)> {
        self[n.index()]
    }
}

impl PlacementView for Vec<Option<(i64, u32)>> {
    #[inline]
    fn placement_of(&self, n: NodeId) -> Option<(i64, u32)> {
        self[n.index()]
    }
}

/// Compute the register pressure of the (possibly partial) schedule held in
/// `placements` (`None` = not yet scheduled).
///
/// Only values whose definition is placed contribute; consumers that are not
/// yet placed are ignored (their future contribution will be re-checked when
/// they are scheduled, which is when the paper's `Check_&_Insert_Spill`
/// runs again).
pub fn pressure<P: PlacementView + ?Sized>(
    w: &WorkGraph,
    placements: &P,
    ii: u32,
    clusters: u32,
    lat: &OpLatencies,
    binding_prefetch: bool,
) -> Pressure {
    let ii = ii.max(1);
    let mut lifetimes = Vec::new();
    let mut rows_cluster: Vec<Vec<u32>> = vec![vec![0; ii as usize]; clusters as usize];
    let mut rows_shared: Vec<u32> = vec![0; ii as usize];
    // Invariant values: one register per (bank) where an invariant-reading
    // node is placed. Multiple invariant readers in the same cluster are
    // counted individually (conservative: each flag is a distinct invariant).
    let mut invariant_cluster: Vec<u32> = vec![0; clusters as usize];
    let mut invariant_shared = 0u32;

    for def in w.active_nodes() {
        let Some((def_cycle, def_cluster)) = placements.placement_of(def) else {
            continue;
        };
        let node = w.ddg.node(def);
        if node.reads_invariant {
            match w.def_bank(def, def_cluster) {
                Some(BankAssignment::Shared) => invariant_shared += 1,
                _ => invariant_cluster[def_cluster as usize] += 1,
            }
        }
        if !node.kind.defines_value() {
            continue;
        }
        let Some(bank) = w.def_bank(def, def_cluster) else {
            continue;
        };
        // The value becomes live when it is produced; we use the issue cycle
        // as the start (write-back time differs by a constant that does not
        // change MaxLive comparisons between configurations).
        let start = def_cycle;
        let mut end = start + 1;
        let mut last_consumer = None;
        for (_, e) in w.active_succ_edges(def) {
            if e.kind != DepKind::Flow {
                continue;
            }
            if !w.is_active(e.dst) {
                continue;
            }
            let Some((use_cycle, _)) = placements.placement_of(e.dst) else {
                continue;
            };
            let read = use_cycle + (ii as i64) * e.distance as i64;
            if read + 1 > end {
                end = read + 1;
                last_consumer = Some(e.dst);
            }
        }
        let lt = ValueLifetime {
            def,
            bank,
            start,
            end,
            last_consumer,
        };
        // Accumulate the per-row contribution.
        let length = lt.length();
        let full = (length / ii as i64) as u32;
        let rem = (length % ii as i64) as u32;
        let rows = match bank {
            BankAssignment::Cluster(c) => &mut rows_cluster[c as usize],
            BankAssignment::Shared => &mut rows_shared,
        };
        for r in rows.iter_mut() {
            *r += full;
        }
        let start_row = start.rem_euclid(ii as i64) as u32;
        for k in 0..rem {
            let r = ((start_row + k) % ii) as usize;
            rows[r] += 1;
        }
        lifetimes.push(lt);
        // `binding_prefetch` influences latencies, not lifetimes directly;
        // the parameter is accepted so call sites stay uniform.
        let _ = (lat, binding_prefetch);
    }

    let cluster = rows_cluster
        .iter()
        .zip(invariant_cluster.iter())
        .map(|(rows, inv)| rows.iter().copied().max().unwrap_or(0) + inv)
        .collect();
    let shared = rows_shared.iter().copied().max().unwrap_or(0) + invariant_shared;
    Pressure {
        cluster,
        shared,
        lifetimes,
    }
}

/// Pressure computed from final placements (no `Option`s).
pub fn pressure_final(
    w: &WorkGraph,
    placements: &HashMap<NodeId, Placement>,
    ii: u32,
    clusters: u32,
    lat: &OpLatencies,
) -> Pressure {
    let mut partial: Vec<Option<(i64, u32)>> = vec![None; w.ddg.num_nodes()];
    for (n, p) in placements {
        partial[n.index()] = Some((p.cycle as i64, p.cluster));
    }
    pressure(w, &partial, ii, clusters, lat, false)
}

/// Incremental register-pressure engine.
///
/// Maintains exactly the state the batch [`pressure`] function derives from
/// scratch — per-bank row-occupancy vectors, per-def [`ValueLifetime`]s and
/// per-node invariant-register counts — but as deltas: placing or ejecting a
/// node only perturbs the lifetime of that node's own def and of the defs
/// feeding it through active flow edges, so [`PressureTracker::touch`]
/// re-derives just those few lifetimes and applies the row difference.
/// Bank queries then cost O(II) instead of O(nodes · edges · II).
///
/// The contract with the batch oracle: after every mutation is reported
/// (placements via `touch`, graph rewirings via [`PressureTracker::refresh`]
/// on the defs the [`WorkGraph`] marks dirty), every bank query and the
/// stored lifetime set equal what `pressure()` would compute from the same
/// placements. `tests/property_based.rs` asserts this after each step of
/// randomized place/eject sequences.
///
/// Since the [`crate::store::PlacementStore`] refactor the scheduler no
/// longer calls `touch` directly: every `touch`/`refresh` happens inside the
/// store's `place`/`eject`/`remove_chain_members`/`sync_pressure`
/// transactions, so a new scheduler mutation path cannot forget the tracker
/// (the oracle tests would catch it if one did).
#[derive(Debug, Clone)]
pub struct PressureTracker {
    ii: u32,
    clusters: u32,
    rows_cluster: Vec<Vec<u32>>,
    rows_shared: Vec<u32>,
    invariant_cluster: Vec<u32>,
    invariant_shared: u32,
    /// Stored contribution of each def node (`None` = contributes nothing).
    lifetimes: Vec<Option<ValueLifetime>>,
    /// Bank in which each placed invariant-reading node pins one register.
    invariant_of: Vec<Option<BankAssignment>>,
    /// Lazily cached per-bank row maximum (`(max, valid)`): queries cost
    /// O(1) for every bank untouched since the last query instead of O(II).
    max_cluster: Vec<Cell<(u32, bool)>>,
    max_shared: Cell<(u32, bool)>,
    /// Reusable buffer for the flow predecessors visited by `touch`.
    scratch: Vec<NodeId>,
    /// Refresh requests (each one rescans) since the last drain.
    refreshes: u64,
}

impl PressureTracker {
    /// Empty tracker for a schedule attempt at the given II.
    pub fn new(ii: u32, clusters: u32, num_nodes: usize) -> Self {
        let ii = ii.max(1);
        PressureTracker {
            ii,
            clusters,
            rows_cluster: vec![vec![0; ii as usize]; clusters as usize],
            rows_shared: vec![0; ii as usize],
            invariant_cluster: vec![0; clusters as usize],
            invariant_shared: 0,
            lifetimes: vec![None; num_nodes],
            invariant_of: vec![None; num_nodes],
            max_cluster: vec![Cell::new((0, true)); clusters as usize],
            max_shared: Cell::new((0, true)),
            scratch: Vec::new(),
            refreshes: 0,
        }
    }

    /// Drain the count of refresh requests accumulated since the last call
    /// (or reset).
    pub fn take_refreshes(&mut self) -> u64 {
        std::mem::take(&mut self.refreshes)
    }

    /// II the tracker was built for.
    pub fn ii(&self) -> u32 {
        self.ii
    }

    /// Clear every stored lifetime, row count and cache and re-shape the row
    /// vectors for a new II — equivalent to [`PressureTracker::new`] with the
    /// same cluster count but reusing the allocations. `num_nodes` is the
    /// pristine node count: capacity grown for spill/communication nodes of
    /// the previous II attempt is released so it cannot leak into the next.
    pub fn reset_for_ii(&mut self, ii: u32, num_nodes: usize) {
        let ii = ii.max(1);
        self.ii = ii;
        for rows in &mut self.rows_cluster {
            rows.clear();
            rows.resize(ii as usize, 0);
        }
        self.rows_shared.clear();
        self.rows_shared.resize(ii as usize, 0);
        for inv in &mut self.invariant_cluster {
            *inv = 0;
        }
        self.invariant_shared = 0;
        self.lifetimes.clear();
        self.lifetimes.resize(num_nodes, None);
        self.invariant_of.clear();
        self.invariant_of.resize(num_nodes, None);
        for m in &mut self.max_cluster {
            m.set((0, true));
        }
        self.max_shared.set((0, true));
        self.scratch.clear();
        self.refreshes = 0;
    }

    /// Re-target the tracker at a new machine's cluster count and clear it
    /// for an attempt at `ii` — equivalent to [`PressureTracker::new`] but
    /// reusing the row-vector allocations of the clusters both machines
    /// have. Called by [`crate::store::PlacementStore::rebind`].
    pub fn rebind(&mut self, ii: u32, clusters: u32, num_nodes: usize) {
        let c = clusters as usize;
        self.clusters = clusters;
        self.rows_cluster.truncate(c);
        self.rows_cluster.resize_with(c, Vec::new);
        self.invariant_cluster.resize(c, 0);
        self.max_cluster.resize(c, Cell::new((0, true)));
        self.reset_for_ii(ii, num_nodes);
    }

    /// Keep the per-node arrays in sync with a growing graph.
    pub fn grow(&mut self, num_nodes: usize) {
        if num_nodes > self.lifetimes.len() {
            self.lifetimes.resize(num_nodes, None);
            self.invariant_of.resize(num_nodes, None);
        }
    }

    /// Report that `node` was placed or ejected: re-derives the lifetime of
    /// `node` itself and updates every def feeding it through an active flow
    /// edge (the only lifetimes its placement can perturb).
    ///
    /// The feeding defs are updated without re-walking their consumer edges
    /// in the two common cases: a *placement* of `node` can only stretch a
    /// producer's lifetime, which the pred edge at hand already determines
    /// (the full rescan is needed only when the new read lands exactly on
    /// the current end, where the rescan's first-in-edge-order tie-breaking
    /// of `last_consumer` must be reproduced); an *ejection* of `node`
    /// leaves every producer whose recorded `last_consumer` is a different
    /// node untouched — removing a non-final consumer cannot move the end.
    pub fn touch<P: PlacementView + ?Sized>(
        &mut self,
        w: &WorkGraph,
        placements: &P,
        node: NodeId,
    ) {
        self.touch_all(w, placements, std::slice::from_ref(&node));
    }

    /// [`PressureTracker::touch`] over a whole ejection batch: the producer
    /// rescans every member demands are collected across the batch and
    /// deduplicated before running, so a def feeding several victims is
    /// re-derived once instead of once per victim. Refreshing is idempotent
    /// and depends only on the current graph and placements, so the deferred,
    /// id-ordered rescans converge to the exact tracker state the per-victim
    /// eager rescans reach.
    pub fn touch_all<P: PlacementView + ?Sized>(
        &mut self,
        w: &WorkGraph,
        placements: &P,
        nodes: &[NodeId],
    ) {
        let mut preds = std::mem::take(&mut self.scratch);
        preds.clear();
        for &node in nodes {
            self.refresh(w, placements, node);
            let placed = placements.placement_of(node);
            for (_, e) in w
                .active_pred_edges(node)
                .filter(|(_, e)| e.kind == DepKind::Flow && e.src != node)
            {
                let p = e.src;
                match (placed, self.lifetimes[p.index()]) {
                    (Some((use_cycle, _)), Some(lt)) => {
                        let read = use_cycle + (self.ii as i64) * e.distance as i64;
                        if read + 1 > lt.end {
                            // The new consumer strictly extends the lifetime:
                            // a rescan would find `node` as the unique
                            // maximum.
                            let new_lt = ValueLifetime {
                                end: read + 1,
                                last_consumer: Some(node),
                                ..lt
                            };
                            self.delta_apply(Some(&lt), Some(&new_lt));
                            self.lifetimes[p.index()] = Some(new_lt);
                        } else if read + 1 == lt.end {
                            // Tie with the current end: `last_consumer`
                            // follows edge order, which only the rescan
                            // knows.
                            preds.push(p);
                        }
                    }
                    (None, Some(lt)) => {
                        if lt.last_consumer == Some(node) {
                            preds.push(p);
                        }
                        // Ejecting a non-final consumer cannot move the end.
                    }
                    // No stored lifetime: the producer is unplaced, inactive
                    // or defines no value; the rescan derives whether it
                    // contributes now.
                    _ => preds.push(p),
                }
            }
        }
        preds.sort_unstable_by_key(|n| n.index());
        preds.dedup();
        for &p in &preds {
            self.refresh(w, placements, p);
        }
        self.scratch = preds;
    }

    /// Recompute the stored contribution of one def from the current graph
    /// and placements (idempotent; clears the contribution when the node is
    /// inactive or unplaced).
    pub fn refresh<P: PlacementView + ?Sized>(
        &mut self,
        w: &WorkGraph,
        placements: &P,
        node: NodeId,
    ) {
        self.grow(node.index() + 1);
        self.refreshes += 1;
        self.rescan(w, placements, node);
    }

    /// The full successor-edge rescan behind [`PressureTracker::refresh`].
    ///
    /// The update is a *delta*: the freshly derived lifetime is diffed
    /// against the stored one and only the rows whose register count
    /// actually changes are touched. It runs for the node and the affected
    /// subset of its flow predecessors on every place/eject plus once per
    /// dirty def after graph rewiring, and most of those calls end with
    /// an unchanged (or only slightly stretched) lifetime — the old
    /// clear-and-rebuild paid O(II) row writes and a cache invalidation for
    /// every one of them.
    fn rescan<P: PlacementView + ?Sized>(&mut self, w: &WorkGraph, placements: &P, node: NodeId) {
        let i = node.index();
        // Derive the node's current contributions.
        let mut new_invariant = None;
        let mut new_lt = None;
        if w.is_active(node) {
            if let Some((def_cycle, def_cluster)) = placements.placement_of(node) {
                let n = w.ddg.node(node);
                if n.reads_invariant {
                    new_invariant = Some(match w.def_bank(node, def_cluster) {
                        Some(BankAssignment::Shared) => BankAssignment::Shared,
                        _ => BankAssignment::Cluster(def_cluster),
                    });
                }
                if n.kind.defines_value() {
                    if let Some(bank) = w.def_bank(node, def_cluster) {
                        let start = def_cycle;
                        let mut end = start + 1;
                        let mut last_consumer = None;
                        for (_, e) in w.active_succ_edges(node) {
                            if e.kind != DepKind::Flow || !w.is_active(e.dst) {
                                continue;
                            }
                            let Some((use_cycle, _)) = placements.placement_of(e.dst) else {
                                continue;
                            };
                            let read = use_cycle + (self.ii as i64) * e.distance as i64;
                            if read + 1 > end {
                                end = read + 1;
                                last_consumer = Some(e.dst);
                            }
                        }
                        new_lt = Some(ValueLifetime {
                            def: node,
                            bank,
                            start,
                            end,
                            last_consumer,
                        });
                    }
                }
            }
        }
        if self.invariant_of[i] != new_invariant {
            if let Some(bank) = self.invariant_of[i] {
                match bank {
                    BankAssignment::Shared => self.invariant_shared -= 1,
                    BankAssignment::Cluster(c) => self.invariant_cluster[c as usize] -= 1,
                }
            }
            if let Some(bank) = new_invariant {
                match bank {
                    BankAssignment::Shared => self.invariant_shared += 1,
                    BankAssignment::Cluster(c) => self.invariant_cluster[c as usize] += 1,
                }
            }
            self.invariant_of[i] = new_invariant;
        }
        if self.lifetimes[i] != new_lt {
            let old = self.lifetimes[i];
            self.delta_apply(old.as_ref(), new_lt.as_ref());
            self.lifetimes[i] = new_lt;
        }
    }

    /// Run `f` over the `len` rows starting at `start` with modulo wrap, as
    /// at most two linear slices — the hot row loops previously paid a
    /// `% ii` per iteration, which also blocked vectorization.
    #[inline]
    fn for_wrapped(rows: &mut [u32], start: u32, len: u32, mut f: impl FnMut(&mut u32)) {
        let n = rows.len();
        let start = (start as usize).min(n);
        let len = (len as usize).min(n);
        let first = len.min(n - start);
        for r in &mut rows[start..start + first] {
            f(r);
        }
        for r in &mut rows[..len - first] {
            f(r);
        }
    }

    /// Per-row register occupancy of a lifetime: `full` registers in every
    /// row plus one more in the `rem` rows starting at `start_row`.
    fn decompose(lt: &ValueLifetime, ii: u32) -> (u32, u32, u32) {
        let length = lt.length();
        let full = (length / ii as i64) as u32;
        let rem = (length % ii as i64) as u32;
        let start_row = lt.start.rem_euclid(ii as i64) as u32;
        (full, rem, start_row)
    }

    /// Replace one lifetime's row contribution with another's, touching only
    /// the rows that differ. Same-bank transitions with an unchanged row
    /// footprint (only the `last_consumer` moved) touch nothing at all and
    /// keep the cached bank maximum valid; same-start stretches touch only
    /// the `|rem₂ - rem₁|` rows the partial window grew or shrank by.
    ///
    /// The cached bank maximum is carried through the row writes instead of
    /// being invalidated: increments can only raise the maximum to the
    /// largest value they write, and a decrement can only move it when it
    /// hits a row currently *at* the maximum — so the O(II) rescan is
    /// deferred to the rare shrink-from-the-max (and the `full`-count
    /// transition, where a lifetime crosses a multiple of II).
    fn delta_apply(&mut self, old: Option<&ValueLifetime>, new: Option<&ValueLifetime>) {
        match (old, new) {
            (Some(o), Some(n)) if o.bank == n.bank => {
                let ii = self.ii;
                let (f1, r1, s1) = Self::decompose(o, ii);
                let (f2, r2, s2) = Self::decompose(n, ii);
                if (f1, r1, s1) == (f2, r2, s2) {
                    return;
                }
                let (cell, rows) = match n.bank {
                    BankAssignment::Cluster(c) => (
                        &self.max_cluster[c as usize],
                        &mut self.rows_cluster[c as usize],
                    ),
                    BankAssignment::Shared => (&self.max_shared, &mut self.rows_shared),
                };
                if f1 != f2 {
                    // Every row moves by the full-count delta; the window
                    // adjustment below may then touch some rows a second
                    // time, so per-write max tracking cannot see final
                    // values — fall back to invalidation.
                    cell.set((0, false));
                    let d = f2 as i64 - f1 as i64;
                    for r in rows.iter_mut() {
                        *r = (*r as i64 + d) as u32;
                    }
                    if s1 == s2 {
                        let (lo, hi) = (r1.min(r2), r1.max(r2));
                        if r2 > r1 {
                            Self::for_wrapped(rows, (s1 + lo) % ii, hi - lo, |r| *r += 1);
                        } else {
                            Self::for_wrapped(rows, (s1 + lo) % ii, hi - lo, |r| *r -= 1);
                        }
                    } else {
                        Self::for_wrapped(rows, s1, r1, |r| *r -= 1);
                        Self::for_wrapped(rows, s2, r2, |r| *r += 1);
                    }
                    return;
                }
                let (cached, valid) = cell.get();
                let mut grew_to = 0u32;
                let mut shrank_from_max = false;
                if s1 == s2 {
                    let (lo, hi) = (r1.min(r2), r1.max(r2));
                    if r2 > r1 {
                        Self::for_wrapped(rows, (s1 + lo) % ii, hi - lo, |r| {
                            *r += 1;
                            grew_to = grew_to.max(*r);
                        });
                    } else {
                        Self::for_wrapped(rows, (s1 + lo) % ii, hi - lo, |r| {
                            shrank_from_max |= *r == cached;
                            *r -= 1;
                        });
                    }
                } else {
                    // Shrink first, grow last: a row in both windows ends on
                    // its increment, so `grew_to` reads final values.
                    Self::for_wrapped(rows, s1, r1, |r| {
                        shrank_from_max |= *r == cached;
                        *r -= 1;
                    });
                    Self::for_wrapped(rows, s2, r2, |r| {
                        *r += 1;
                        grew_to = grew_to.max(*r);
                    });
                }
                if valid {
                    if shrank_from_max {
                        cell.set((0, false));
                    } else {
                        cell.set((cached.max(grew_to), true));
                    }
                }
            }
            _ => {
                if let Some(o) = old {
                    self.apply(o, false);
                }
                if let Some(n) = new {
                    self.apply(n, true);
                }
            }
        }
    }

    /// Add or remove one lifetime's per-row register occupancy, carrying the
    /// cached bank maximum through the writes (see [`Self::delta_apply`]):
    /// an add tracks the largest value it writes (and, when it touches every
    /// row, *revalidates* an invalid cache for free); a remove only
    /// invalidates when it decrements a row sitting at the cached maximum.
    fn apply(&mut self, lt: &ValueLifetime, add: bool) {
        let ii = self.ii;
        let length = lt.length();
        let full = (length / ii as i64) as u32;
        let rem = (length % ii as i64) as u32;
        let (cell, rows) = match lt.bank {
            BankAssignment::Cluster(c) => (
                &self.max_cluster[c as usize],
                &mut self.rows_cluster[c as usize],
            ),
            BankAssignment::Shared => (&self.max_shared, &mut self.rows_shared),
        };
        let (cached, valid) = cell.get();
        let start_row = lt.start.rem_euclid(ii as i64) as u32;
        if add {
            let mut grew_to = 0u32;
            if full > 0 {
                for r in rows.iter_mut() {
                    *r += full;
                }
            }
            if full > 0 || valid {
                Self::for_wrapped(rows, start_row, rem, |r| {
                    *r += 1;
                    grew_to = grew_to.max(*r);
                });
            } else {
                Self::for_wrapped(rows, start_row, rem, |r| *r += 1);
            }
            if full > 0 {
                // Every row was touched: the scan below is exact whether or
                // not the cache was valid before.
                for &r in rows.iter() {
                    grew_to = grew_to.max(r);
                }
                cell.set((grew_to, true));
            } else if valid {
                cell.set((cached.max(grew_to), true));
            }
        } else {
            let mut shrank_from_max = false;
            if full > 0 {
                for r in rows.iter_mut() {
                    shrank_from_max |= *r == cached;
                    *r -= full;
                }
            }
            Self::for_wrapped(rows, start_row, rem, |r| {
                shrank_from_max |= *r == cached;
                *r -= 1;
            });
            if valid && shrank_from_max {
                cell.set((0, false));
            }
        }
    }

    /// Currently stored lifetimes, in ascending def-node order — the same
    /// order `pressure()` emits them in, so spill-candidate tie-breaking is
    /// identical between the two engines.
    pub fn live_lifetimes(&self) -> impl Iterator<Item = &ValueLifetime> {
        self.lifetimes.iter().filter_map(|l| l.as_ref())
    }

    /// Compare against the batch oracle; returns a description of the first
    /// divergence, if any. Test/debug aid.
    pub fn diff_from_batch<P: PlacementView + ?Sized>(
        &self,
        w: &WorkGraph,
        placements: &P,
        lat: &OpLatencies,
    ) -> Option<String> {
        let oracle = pressure(w, placements, self.ii, self.clusters, lat, false);
        for c in 0..self.clusters {
            if self.cluster_live(c) != oracle.of(BankAssignment::Cluster(c)) {
                return Some(format!(
                    "cluster {c}: tracker {} vs batch {}",
                    self.cluster_live(c),
                    oracle.of(BankAssignment::Cluster(c))
                ));
            }
        }
        if self.shared_live() != oracle.shared {
            return Some(format!(
                "shared: tracker {} vs batch {}",
                self.shared_live(),
                oracle.shared
            ));
        }
        let mine: Vec<ValueLifetime> = self.live_lifetimes().copied().collect();
        if mine != oracle.lifetimes {
            return Some(format!(
                "lifetimes diverge: tracker {mine:?} vs batch {:?}",
                oracle.lifetimes
            ));
        }
        None
    }

    /// Publish a pressure snapshot into the telemetry metrics registry under
    /// the `pressure.` prefix (no-op on a disabled handle): live-value count,
    /// the worst cluster-bank MaxLive and the shared-bank MaxLive.
    pub fn publish_metrics(&self, telemetry: &hcrf_telemetry::Telemetry) {
        if !telemetry.is_enabled() {
            return;
        }
        telemetry.gauge_set("pressure.live_values", self.live_lifetimes().count() as f64);
        let worst = (0..self.clusters).map(|c| self.cluster_live(c)).max();
        telemetry.gauge_set("pressure.cluster_live_max", worst.unwrap_or(0) as f64);
        telemetry.gauge_set("pressure.shared_live", self.shared_live() as f64);
    }
}

impl PressureQuery for PressureTracker {
    fn cluster_live(&self, c: u32) -> u32 {
        let Some(rows) = self.rows_cluster.get(c as usize) else {
            return 0;
        };
        let (cached, valid) = self.max_cluster[c as usize].get();
        let max = if valid {
            cached
        } else {
            let m = rows.iter().copied().max().unwrap_or(0);
            self.max_cluster[c as usize].set((m, true));
            m
        };
        max + self.invariant_cluster[c as usize]
    }
    fn shared_live(&self) -> u32 {
        let (cached, valid) = self.max_shared.get();
        let max = if valid {
            cached
        } else {
            let m = self.rows_shared.iter().copied().max().unwrap_or(0);
            self.max_shared.set((m, true));
            m
        };
        max + self.invariant_shared
    }
}

/// Pick the best value to spill from an over-pressured bank: the live value
/// with the longest lifetime whose last consumer can still be rerouted
/// (it must be reachable through an active flow edge and must not already be
/// fed through a spill chain).
pub fn pick_spill_candidate<'a>(
    w: &WorkGraph,
    pressure: &'a Pressure,
    bank: BankAssignment,
) -> Option<&'a ValueLifetime> {
    pick_spill_candidate_from(w, pressure.lifetimes.iter(), bank)
}

/// [`pick_spill_candidate`] over any lifetime source — the incremental
/// tracker and the batch snapshot must feed lifetimes in the same (def-node)
/// order for the two engines to break length ties identically.
pub fn pick_spill_candidate_from<'a>(
    w: &WorkGraph,
    lifetimes: impl Iterator<Item = &'a ValueLifetime>,
    bank: BankAssignment,
) -> Option<&'a ValueLifetime> {
    lifetimes
        .filter(|lt| lt.bank == bank)
        .filter(|lt| lt.last_consumer.is_some())
        .filter(|lt| {
            // Do not spill values that are themselves produced by spill
            // reloads or communication chains — rerouting them again would
            // not reduce pressure and risks ping-ponging.
            let kind = w.ddg.node(lt.def).kind;
            !matches!(kind, hcrf_ir::OpKind::LoadR | hcrf_ir::OpKind::Load if w.is_inserted(lt.def))
        })
        .filter(|lt| lt.length() > 1)
        .max_by_key(|lt| lt.length())
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcrf_ir::{DdgBuilder, OpKind};
    use hcrf_machine::{MachineConfig, RfOrganization};

    fn machine(cfg: &str) -> MachineConfig {
        MachineConfig::paper_baseline(RfOrganization::parse(cfg).unwrap())
    }

    fn lat() -> OpLatencies {
        OpLatencies::paper_baseline()
    }

    #[test]
    fn single_chain_pressure() {
        // load -> add -> store scheduled at 0, 2, 6 with II = 2.
        let mut b = DdgBuilder::new("p");
        let l = b.load(0, 8);
        let a = b.op(OpKind::FAdd);
        let s = b.store(1, 8);
        b.flow(l, a, 0).flow(a, s, 0);
        let g = b.build();
        let w = WorkGraph::new(&g, &machine("S64"));
        let mut place = vec![None; w.ddg.num_nodes()];
        place[l.index()] = Some((0i64, 0u32));
        place[a.index()] = Some((2, 0));
        place[s.index()] = Some((6, 0));
        let p = pressure(&w, &place, 2, 1, &lat(), false);
        // load's value lives [0,3) -> 2 registers at peak; add's lives [2,7)
        // -> ceil(5/2) = 3 at peak; they overlap.
        assert_eq!(p.cluster.len(), 1);
        assert!(p.cluster[0] >= 3, "pressure {:?}", p.cluster);
        assert_eq!(p.shared, 0);
        assert_eq!(p.lifetimes.len(), 2);
    }

    #[test]
    fn longer_lifetime_more_registers() {
        let lt = ValueLifetime {
            def: NodeId(0),
            bank: BankAssignment::Cluster(0),
            start: 0,
            end: 10,
            last_consumer: None,
        };
        assert_eq!(lt.registers(2), 5);
        assert_eq!(lt.registers(10), 1);
        assert_eq!(lt.length(), 10);
    }

    #[test]
    fn hierarchical_split_between_banks() {
        let mut b = DdgBuilder::new("h");
        let l = b.load(0, 8);
        let a = b.op(OpKind::FAdd);
        let s = b.store(1, 8);
        b.flow(l, a, 0).flow(a, s, 0);
        let g = b.build();
        let m = machine("4C16S64");
        let w = WorkGraph::new(&g, &m);
        // place everything: load at 0, its LoadR at 3, add at 5, StoreR at 10, store at 12
        let mut place = vec![None; w.ddg.num_nodes()];
        for n in w.ddg.node_ids() {
            let cyc = match w.ddg.node(n).kind {
                OpKind::Load => 0,
                OpKind::LoadR => 3,
                OpKind::FAdd => 5,
                OpKind::StoreR => 10,
                OpKind::Store => 12,
                _ => 0,
            };
            place[n.index()] = Some((cyc as i64, 1u32));
        }
        let p = pressure(&w, &place, 4, 4, &lat(), false);
        // The load's value and the StoreR copy live in the shared bank.
        assert!(p.shared >= 1);
        // The LoadR result and the add result live in cluster 1.
        assert!(p.cluster[1] >= 1);
        assert_eq!(p.cluster[0], 0);
    }

    #[test]
    fn invariants_occupy_registers() {
        let mut b = DdgBuilder::new("inv");
        let m1 = b.op_invariant(OpKind::FMul);
        let m2 = b.op_invariant(OpKind::FMul);
        let g = b.build();
        let w = WorkGraph::new(&g, &machine("S64"));
        let mut place = vec![None; w.ddg.num_nodes()];
        place[m1.index()] = Some((0i64, 0u32));
        place[m2.index()] = Some((1, 0));
        let p = pressure(&w, &place, 2, 1, &lat(), false);
        // Each invariant reader pins one source register for the whole loop,
        // on top of the registers its own result occupies.
        assert!(p.cluster[0] >= 3, "pressure {:?}", p.cluster);
    }

    #[test]
    fn unplaced_defs_do_not_contribute() {
        let mut b = DdgBuilder::new("u");
        let a = b.op(OpKind::FAdd);
        let c = b.op(OpKind::FMul);
        b.flow(a, c, 0);
        let g = b.build();
        let w = WorkGraph::new(&g, &machine("S64"));
        let place = vec![None; w.ddg.num_nodes()];
        let p = pressure(&w, &place, 2, 1, &lat(), false);
        assert_eq!(p.cluster[0], 0);
        assert!(p.lifetimes.is_empty());
    }

    #[test]
    fn tracker_matches_batch_after_each_step() {
        // Place and eject the nodes of a small fanout loop one at a time on
        // a hierarchical machine; after every step the incremental tracker
        // must agree with the batch oracle on every bank and lifetime.
        let mut b = DdgBuilder::new("t");
        let l = b.load(0, 8);
        let m1 = b.op_invariant(OpKind::FMul);
        let a = b.op(OpKind::FAdd);
        let s = b.store(1, 8);
        b.flow(l, m1, 0).flow(m1, a, 0).flow(a, a, 1).flow(a, s, 0);
        let g = b.build();
        let machine = machine("4C16S64");
        let mut w = WorkGraph::new(&g, &machine);
        let ii = 3;
        let clusters = 4;
        let mut place: Vec<Option<(i64, u32)>> = vec![None; w.ddg.num_nodes()];
        let mut tracker = PressureTracker::new(ii, clusters, w.ddg.num_nodes());
        for n in w.take_pressure_dirty() {
            tracker.refresh(&w, &place, n);
        }
        let nodes: Vec<NodeId> = w.active_nodes().collect();
        for (step, n) in nodes.iter().enumerate() {
            place[n.index()] = Some((step as i64 * 2, (step as u32) % clusters));
            tracker.touch(&w, &place, *n);
            assert_eq!(tracker.diff_from_batch(&w, &place, &lat()), None);
        }
        for n in nodes.iter().step_by(2) {
            place[n.index()] = None;
            tracker.touch(&w, &place, *n);
            assert_eq!(tracker.diff_from_batch(&w, &place, &lat()), None);
        }
    }

    #[test]
    fn tracker_follows_chain_insertion_and_removal() {
        // A communication chain rewires flow edges; draining the dirty set
        // must bring the tracker back in line with the batch oracle.
        let mut b = DdgBuilder::new("c");
        let p = b.op(OpKind::FMul);
        let c = b.op(OpKind::FAdd);
        b.flow(p, c, 0);
        let g = b.build();
        let machine = machine("2C64");
        let mut w = WorkGraph::new(&g, &machine);
        let ii = 2;
        let mut place: Vec<Option<(i64, u32)>> = vec![None; w.ddg.num_nodes()];
        let mut tracker = PressureTracker::new(ii, 2, w.ddg.num_nodes());
        place[p.index()] = Some((0, 0));
        tracker.touch(&w, &place, p);
        place[c.index()] = Some((9, 1));
        tracker.touch(&w, &place, c);
        let edge_id = w.ddg.edges().next().map(|(id, _)| id).unwrap();
        let new_nodes = w.insert_communication(c, edge_id);
        place.resize(w.ddg.num_nodes(), None);
        tracker.grow(w.ddg.num_nodes());
        for n in w.take_pressure_dirty() {
            tracker.refresh(&w, &place, n);
        }
        assert_eq!(tracker.diff_from_batch(&w, &place, &lat()), None);
        place[new_nodes[0].index()] = Some((5, 1));
        tracker.touch(&w, &place, new_nodes[0]);
        assert_eq!(tracker.diff_from_batch(&w, &place, &lat()), None);
        // Undo the chain; the producer's lifetime must stretch to the
        // consumer again.
        for r in w.remove_chains_for(c) {
            place[r.index()] = None;
            tracker.touch(&w, &place, r);
        }
        for n in w.take_pressure_dirty() {
            tracker.refresh(&w, &place, n);
        }
        assert_eq!(tracker.diff_from_batch(&w, &place, &lat()), None);
        let producer_lt = tracker.live_lifetimes().find(|lt| lt.def == p).unwrap();
        assert_eq!(producer_lt.end, 10);
    }

    #[test]
    fn spill_candidate_prefers_longest_lifetime() {
        let mut b = DdgBuilder::new("s");
        let a = b.op(OpKind::FAdd); // long lifetime
        let c = b.op(OpKind::FMul); // short lifetime
        let u1 = b.op(OpKind::FAdd);
        let u2 = b.op(OpKind::FAdd);
        b.flow(a, u1, 0).flow(c, u2, 0);
        let g = b.build();
        let w = WorkGraph::new(&g, &machine("S64"));
        let mut place = vec![None; w.ddg.num_nodes()];
        place[a.index()] = Some((0i64, 0u32));
        place[c.index()] = Some((0, 0));
        place[u1.index()] = Some((40, 0));
        place[u2.index()] = Some((5, 0));
        let p = pressure(&w, &place, 4, 1, &lat(), false);
        let cand = pick_spill_candidate(&w, &p, BankAssignment::Cluster(0)).unwrap();
        assert_eq!(cand.def, a);
        assert_eq!(cand.last_consumer, Some(u1));
    }
}
