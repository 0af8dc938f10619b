//! Modulo reservation table.
//!
//! Resource accounting is done per *resource class* and cluster with
//! slot-count semantics: every row of the table (one per cycle of the II) has
//! a capacity per resource, and a non-pipelined operation of occupancy `o`
//! reserves one slot in each of the `o` consecutive rows (modulo the II)
//! starting at its issue row. This aggregates units of the same class rather
//! than binding operations to individual units, which is the usual
//! abstraction for modulo-scheduling resource models and matches the ResMII
//! bound of [`hcrf_ir::res_mii`].
//!
//! The table holds nothing but those counts (plus a per-cluster free FU
//! slot total for the cluster-selection heuristic). Every span walk takes
//! one `rem_euclid` for the issue row and then steps a wrapping row
//! counter; the unit copies per row follow from `occ` and the II once per
//! call (`Mrt::span`).
//!
//! The scheduler's slot-window search ([`Mrt::first_free_row_in`]) returns
//! the first cycle of the window that [`Mrt::can_place`] accepts, as in
//! Rau's iterative modulo scheduler, but does not probe every candidate: a
//! full row rules out every start whose span covers it, so the search skips
//! ahead past the span's blocked row instead of re-walking a 17- or 30-row
//! divide or square root span at every candidate cycle.
//!
//! [`Mrt::placeable_on_empty`] is the per-cluster span floor of
//! [`hcrf_ir::cluster_res_mii`]: every FU op fits an empty table exactly
//! when the II is at least that floor, which is why the scheduler's MII
//! includes it.

use hcrf_ir::{OpKind, OpLatencies, ResourceClass};
use hcrf_machine::MachineConfig;

/// Capacity of every resource class, per cluster where applicable.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResourceCaps {
    /// Functional units per cluster.
    pub fus_per_cluster: u32,
    /// Memory ports per cluster (0 for hierarchical organizations).
    pub mem_ports_per_cluster: u32,
    /// Memory ports shared by all clusters (hierarchical organizations and
    /// monolithic machines route all memory traffic here).
    pub shared_mem_ports: u32,
    /// Inter-cluster buses (purely clustered organizations).
    pub buses: u32,
    /// LoadR ports per cluster (reads from the shared bank).
    pub lp: u32,
    /// StoreR ports per cluster (writes into the shared bank).
    pub sp: u32,
    /// Number of clusters.
    pub clusters: u32,
}

impl ResourceCaps {
    /// Derive the capacities from a machine configuration.
    pub fn from_machine(m: &MachineConfig) -> Self {
        let clusters = m.clusters();
        let hierarchical = m.rf.is_hierarchical();
        ResourceCaps {
            fus_per_cluster: m.fu_count / clusters,
            mem_ports_per_cluster: if hierarchical {
                0
            } else {
                m.mem_ports / clusters
            },
            shared_mem_ports: if hierarchical || clusters == 1 {
                m.mem_ports
            } else {
                0
            },
            buses: if m.rf.is_clustered() && !hierarchical {
                if m.buses == 0 {
                    clusters
                } else {
                    m.buses
                }
            } else {
                0
            },
            lp: m.lp,
            sp: m.sp,
            clusters,
        }
    }

    /// Whether memory operations are accounted against the shared port pool
    /// (monolithic and hierarchical organizations) instead of per cluster.
    pub fn memory_is_shared(&self) -> bool {
        self.shared_mem_ports > 0
    }
}

/// One resource's row counts as a strided view of a table vector: row
/// `r`'s count is `counts[r * stride + offset]`.
struct Rows<'a> {
    counts: &'a [u16],
    stride: usize,
    offset: usize,
    cap: u32,
}

impl Rows<'_> {
    fn count(&self, row: usize) -> u32 {
        u32::from(self.counts[row * self.stride + self.offset])
    }
}

/// The modulo reservation table itself.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Mrt {
    ii: u32,
    caps: ResourceCaps,
    /// `fu[cluster * ii + row]`: FU unit count of one (row, cluster).
    fu: Vec<u16>,
    /// `mem[row * clusters + cluster]` (per-cluster memory ports)
    mem: Vec<u16>,
    /// `shared_mem[row]`
    shared_mem: Vec<u16>,
    /// `bus[row]`
    bus: Vec<u16>,
    /// `lp[row * clusters + cluster]`
    lp: Vec<u16>,
    /// `sp[row * clusters + cluster]`
    sp: Vec<u16>,
    /// Free FU slots per cluster across the whole table, maintained
    /// incrementally by [`Mrt::adjust`] so the cluster-selection heuristic's
    /// [`Mrt::free_fu_slots`] costs O(1) instead of O(II) — it is called
    /// once per cluster per scheduling attempt, which dominated
    /// ejection-churn-heavy loops.
    fu_free: Vec<u32>,
}

impl Mrt {
    /// Create an empty table for the given II.
    pub fn new(ii: u32, caps: ResourceCaps) -> Self {
        let mut mrt = Mrt::default();
        mrt.rebind(ii, caps);
        mrt
    }

    /// Re-shape the table for a new II, clearing every row count but
    /// keeping the allocations. The attempt arena calls this once per II
    /// restart instead of rebuilding the table.
    pub fn reset_for_ii(&mut self, ii: u32) {
        let ii = ii.max(1);
        self.ii = ii;
        let rows = ii as usize;
        let c = self.caps.clusters as usize;
        fn refill<T: Copy>(v: &mut Vec<T>, len: usize, val: T) {
            v.clear();
            v.resize(len, val);
        }
        refill(&mut self.fu, rows * c, 0);
        refill(&mut self.mem, rows * c, 0);
        refill(&mut self.shared_mem, rows, 0);
        refill(&mut self.bus, rows, 0);
        refill(&mut self.lp, rows * c, 0);
        refill(&mut self.sp, rows * c, 0);
        refill(&mut self.fu_free, c, ii * self.caps.fus_per_cluster);
    }

    /// Re-target the table at a new machine's capacities and clear it for an
    /// attempt at `ii`, reusing every row vector allocation. The pooled
    /// attempt arena calls this when re-binding its store to a new (loop,
    /// machine) pair.
    pub fn rebind(&mut self, ii: u32, caps: ResourceCaps) {
        self.caps = caps;
        self.reset_for_ii(ii);
    }

    /// The II of the table.
    pub fn ii(&self) -> u32 {
        self.ii
    }

    /// The resource capacities.
    pub fn caps(&self) -> &ResourceCaps {
        &self.caps
    }

    fn row_of(&self, cycle: i64) -> usize {
        (cycle.rem_euclid(self.ii as i64)) as usize
    }

    /// Index of one (row, cluster) FU count in `fu`.
    fn fu_idx(&self, row: usize, cluster: u32) -> usize {
        cluster as usize * self.ii as usize + row
    }

    fn idx(&self, cycle: i64, cluster: u32) -> usize {
        self.row_of(cycle) * self.caps.clusters as usize + cluster as usize
    }

    /// The rows one reservation of a `class` op with occupancy `occ` holds:
    /// `(span, base, extra)` — it covers `span` consecutive rows from its
    /// issue row, each holding `base` unit copies plus one more in the first
    /// `extra` rows. Non-FU classes pin only their issue row. An FU op with
    /// `occ <= II` holds one copy in each of `occ` rows; a longer one keeps a
    /// unit busy in every row for `occ / II` overlapped iterations, plus one
    /// in the first `occ % II` rows.
    fn span(&self, class: ResourceClass, occ: u32) -> (u32, u32, u32) {
        if class != ResourceClass::Fu {
            (1, 1, 0)
        } else if occ <= self.ii {
            (occ, 1, 0)
        } else {
            (self.ii, occ / self.ii, occ % self.ii)
        }
    }

    /// The row counts and capacity `class` draws on for `cluster` (global
    /// classes ignore it).
    fn rows(&self, class: ResourceClass, cluster: u32) -> Rows<'_> {
        let caps = &self.caps;
        let (counts, stride, offset, cap) = match class {
            ResourceClass::Fu => (
                &self.fu[self.fu_idx(0, cluster)..][..self.ii as usize],
                1,
                0,
                caps.fus_per_cluster,
            ),
            ResourceClass::MemPort if caps.memory_is_shared() => {
                (&self.shared_mem[..], 1, 0, caps.shared_mem_ports)
            }
            ResourceClass::MemPort => (
                &self.mem[..],
                caps.clusters,
                cluster,
                caps.mem_ports_per_cluster,
            ),
            ResourceClass::Bus => (&self.bus[..], 1, 0, caps.buses),
            ResourceClass::SharedReadPort => (&self.lp[..], caps.clusters, cluster, caps.lp),
            ResourceClass::SharedWritePort => (&self.sp[..], caps.clusters, cluster, caps.sp),
        };
        Rows {
            counts,
            stride: stride as usize,
            offset: offset as usize,
            cap,
        }
    }

    /// Check whether `kind` can be issued at `cycle` on `cluster`.
    pub fn can_place(&self, kind: OpKind, cycle: i64, cluster: u32, lat: &OpLatencies) -> bool {
        let class = kind.resource_class();
        let (span, base, extra) = self.span(class, lat.occupancy(kind));
        let rows = self.rows(class, cluster);
        let mut row = self.row_of(cycle);
        for k in 0..span {
            if rows.count(row) + base + u32::from(k < extra) > rows.cap {
                return false;
            }
            row += 1;
            if row == self.ii as usize {
                row = 0;
            }
        }
        true
    }

    /// First cycle inside the inclusive `window` of flat cycles at which
    /// `kind` can be issued on `cluster`, searching upward (`upward`) or
    /// downward from the window's far end.
    ///
    /// An op that needs one unit in each row of its span (any FU op with
    /// `occ <= II`, and every one-row class) cannot start where its span
    /// covers a full row, so the upward search jumps from `t` to `t + k + 1`
    /// past the span's last full offset `k`, and the downward one to
    /// `t + k - occ` below its first. An FU op longer than the II covers
    /// every row with `occ / II` copies, and one more in its first
    /// `occ % II` rows: it fits nowhere if some row lacks room for the
    /// former, and otherwise the same skip runs over those first rows. Every
    /// case lands on exactly the cycle a [`Mrt::can_place`] probe of every
    /// candidate would.
    pub fn first_free_row_in(
        &self,
        kind: OpKind,
        cluster: u32,
        window: (i64, i64),
        upward: bool,
        lat: &OpLatencies,
    ) -> Option<i64> {
        let (start, end) = window;
        let class = kind.resource_class();
        let (mut span, base, extra) = self.span(class, lat.occupancy(kind));
        let rows = self.rows(class, cluster);
        let ii = self.ii as usize;
        let mut need = base;
        if (base, extra) != (1, 0) {
            // Longer than the II: the span covers every row, so a row
            // without room for `base` copies rules out the whole window, and
            // only the first `extra` rows need one copy more.
            if (0..ii).any(|row| rows.count(row) + base > rows.cap) {
                return None;
            }
            (span, need) = (extra, base + 1);
        }
        // Every step below moves the start row by at most `span <= II`, so
        // one conditional wrap keeps it in range.
        let full = |row0: usize, k: u32| {
            let row = row0 + k as usize;
            rows.count(if row >= ii { row - ii } else { row }) + need > rows.cap
        };
        if upward {
            let (mut t, mut row0) = (start, self.row_of(start));
            while t <= end {
                let Some(k) = (0..span).rev().find(|&k| full(row0, k)) else {
                    return Some(t);
                };
                t += i64::from(k) + 1;
                row0 += k as usize + 1;
                if row0 >= ii {
                    row0 -= ii;
                }
            }
        } else {
            let (mut t, mut row0) = (end, self.row_of(end));
            while t >= start {
                let Some(k) = (0..span).find(|&k| full(row0, k)) else {
                    return Some(t);
                };
                let back = (span - k) as usize;
                t -= back as i64;
                row0 = if row0 >= back {
                    row0 - back
                } else {
                    row0 + ii - back
                };
            }
        }
        None
    }

    /// Whether `kind` could be issued on a completely empty table — `false`
    /// means the conflict is *structurally unsatisfiable*: no sequence of
    /// ejections can ever free the resource (the canonical case is a
    /// non-pipelined operation whose occupancy needs more unit copies per
    /// row than the class owns, e.g. a 17-cycle divide at II 4 on a 2-FU
    /// cluster). The forced-placement path consults this before starting an
    /// ejection cascade and abandons the attempt immediately instead
    /// (counted in [`crate::SchedulerStats::infeasible_cutoffs`]).
    pub fn placeable_on_empty(&self, kind: OpKind, lat: &OpLatencies) -> bool {
        let cap = match kind.resource_class() {
            ResourceClass::Fu => {
                // Peak unit copies any row of the span needs (see
                // `Mrt::span`): `ceil(occ / II)`.
                let occ = lat.occupancy(kind);
                return occ.div_ceil(self.ii).min(occ).max(1) <= self.caps.fus_per_cluster;
            }
            ResourceClass::MemPort if self.caps.memory_is_shared() => self.caps.shared_mem_ports,
            ResourceClass::MemPort => self.caps.mem_ports_per_cluster,
            ResourceClass::Bus => self.caps.buses,
            ResourceClass::SharedReadPort => self.caps.lp,
            ResourceClass::SharedWritePort => self.caps.sp,
        };
        cap > 0
    }

    /// Recount every cluster's free FU slots from the row counts and compare
    /// them with the incrementally maintained totals behind
    /// [`Mrt::free_fu_slots`]; returns a description of the first drift, if
    /// any. Run by `validate_store` after every step of the randomized
    /// property tests.
    pub fn check_fu_free(&self) -> Option<String> {
        let cap = self.caps.fus_per_cluster;
        for cluster in 0..self.caps.clusters {
            let start = self.fu_idx(0, cluster);
            let free: u64 = self.fu[start..][..self.ii as usize]
                .iter()
                .map(|&count| cap.saturating_sub(count as u32) as u64)
                .sum();
            if free != self.fu_free[cluster as usize] as u64 {
                return Some(format!(
                    "FU free-slot total drifted from the row counts: cluster {cluster} \
                     (tracked {}, recounted {free})",
                    self.fu_free[cluster as usize]
                ));
            }
        }
        None
    }

    /// Reserve the resources for `kind` issued at `cycle` on `cluster`.
    /// Call only after [`Mrt::can_place`] (or when deliberately forcing an
    /// over-subscription that will be repaired by ejection).
    pub fn place(&mut self, kind: OpKind, cycle: i64, cluster: u32, lat: &OpLatencies) {
        self.adjust(kind, cycle, cluster, lat, 1);
    }

    /// Release the resources previously reserved for an operation.
    pub fn remove(&mut self, kind: OpKind, cycle: i64, cluster: u32, lat: &OpLatencies) {
        self.adjust(kind, cycle, cluster, lat, -1);
    }

    /// Move the row counts of one reservation by `delta`. Non-FU classes pin
    /// their resource only in the issue row.
    fn adjust(&mut self, kind: OpKind, cycle: i64, cluster: u32, lat: &OpLatencies, delta: i32) {
        let apply = |v: &mut u16| *v = (*v as i32 + delta).max(0) as u16;
        match kind.resource_class() {
            ResourceClass::Fu => {
                let start = self.row_of(cycle);
                self.fu_adjust_span(start, lat.occupancy(kind), cluster, delta);
            }
            ResourceClass::MemPort if self.caps.memory_is_shared() => {
                let r = self.row_of(cycle);
                apply(&mut self.shared_mem[r]);
            }
            ResourceClass::MemPort => {
                let i = self.idx(cycle, cluster);
                apply(&mut self.mem[i]);
            }
            ResourceClass::Bus => {
                let r = self.row_of(cycle);
                apply(&mut self.bus[r]);
            }
            ResourceClass::SharedReadPort => {
                let i = self.idx(cycle, cluster);
                apply(&mut self.lp[i]);
            }
            ResourceClass::SharedWritePort => {
                let i = self.idx(cycle, cluster);
                apply(&mut self.sp[i]);
            }
        }
    }

    /// FU rows of one reservation: each occupied row's count moves by
    /// `delta` times its unit copies ([`Mrt::span`]), and the free-slot
    /// total moves with it.
    fn fu_adjust_span(&mut self, start: usize, occ: u32, cluster: u32, delta: i32) {
        let cap = self.caps.fus_per_cluster as i64;
        let (span, base, extra) = self.span(ResourceClass::Fu, occ);
        let first = self.fu_idx(0, cluster);
        let rows = &mut self.fu[first..][..self.ii as usize];
        let free = &mut self.fu_free[cluster as usize];
        let mut row = start;
        for k in 0..span {
            let old = rows[row];
            let copies = (base + u32::from(k < extra)) as i32;
            let new = (old as i32 + delta * copies).max(0) as u16;
            rows[row] = new;
            // Free slots clamp at 0 on (transient) over-subscription,
            // mirroring what the O(II) recount would see.
            let free_delta = (cap - new as i64).max(0) - (cap - old as i64).max(0);
            *free = (*free as i64 + free_delta).max(0) as u32;
            row += 1;
            if row == rows.len() {
                row = 0;
            }
        }
    }

    /// Number of free FU slots in a cluster across the whole table
    /// (used by the cluster-selection heuristic to balance load).
    /// O(1): maintained incrementally by every place/remove.
    pub fn free_fu_slots(&self, cluster: u32) -> u32 {
        self.fu_free[cluster as usize]
    }

    /// Publish a table-occupancy snapshot into the telemetry metrics
    /// registry under the `mrt.` prefix (no-op on a disabled handle):
    /// the current II and the total/free FU slots over all clusters.
    pub fn publish_metrics(&self, telemetry: &hcrf_telemetry::Telemetry) {
        if !telemetry.is_enabled() {
            return;
        }
        telemetry.gauge_set("mrt.ii", self.ii as f64);
        let free: u32 = (0..self.caps.clusters).map(|c| self.free_fu_slots(c)).sum();
        let total = self.ii * self.caps.fus_per_cluster * self.caps.clusters;
        telemetry.gauge_set("mrt.fu_slots_free", free as f64);
        telemetry.gauge_set("mrt.fu_slots_total", total as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcrf_machine::RfOrganization;

    fn caps(cfg: &str) -> ResourceCaps {
        let m = MachineConfig::paper_baseline(RfOrganization::parse(cfg).unwrap());
        ResourceCaps::from_machine(&m)
    }

    #[test]
    fn caps_monolithic() {
        let c = caps("S128");
        assert_eq!(c.fus_per_cluster, 8);
        assert_eq!(c.shared_mem_ports, 4);
        assert_eq!(c.clusters, 1);
        assert!(c.memory_is_shared());
    }

    #[test]
    fn caps_clustered() {
        let c = caps("4C32");
        assert_eq!(c.fus_per_cluster, 2);
        assert_eq!(c.mem_ports_per_cluster, 1);
        assert_eq!(c.shared_mem_ports, 0);
        assert_eq!(c.buses, 4);
        assert!(!c.memory_is_shared());
    }

    #[test]
    fn caps_hierarchical() {
        let c = caps("4C16S64");
        assert_eq!(c.fus_per_cluster, 2);
        assert_eq!(c.mem_ports_per_cluster, 0);
        assert_eq!(c.shared_mem_ports, 4);
        assert_eq!(c.lp, 2);
        assert_eq!(c.sp, 1);
        assert!(c.memory_is_shared());
    }

    #[test]
    fn fu_slots_fill_up() {
        let lat = OpLatencies::paper_baseline();
        let mut mrt = Mrt::new(1, caps("S128"));
        for _ in 0..8 {
            assert!(mrt.can_place(OpKind::FAdd, 0, 0, &lat));
            mrt.place(OpKind::FAdd, 0, 0, &lat);
        }
        assert!(!mrt.can_place(OpKind::FAdd, 0, 0, &lat));
        mrt.remove(OpKind::FAdd, 0, 0, &lat);
        assert!(mrt.can_place(OpKind::FAdd, 0, 0, &lat));
    }

    #[test]
    fn mem_ports_shared_pool() {
        let lat = OpLatencies::paper_baseline();
        let mut mrt = Mrt::new(1, caps("S128"));
        for _ in 0..4 {
            assert!(mrt.can_place(OpKind::Load, 5, 0, &lat));
            mrt.place(OpKind::Load, 5, 0, &lat);
        }
        assert!(!mrt.can_place(OpKind::Store, 5, 0, &lat));
        // A different row of a larger II is unaffected.
        let mut mrt2 = Mrt::new(2, caps("S128"));
        mrt2.place(OpKind::Load, 0, 0, &lat);
        assert!(mrt2.can_place(OpKind::Load, 1, 0, &lat));
    }

    #[test]
    fn per_cluster_memory_ports_for_clustered_rf() {
        let lat = OpLatencies::paper_baseline();
        let mut mrt = Mrt::new(1, caps("4C32"));
        assert!(mrt.can_place(OpKind::Load, 0, 0, &lat));
        mrt.place(OpKind::Load, 0, 0, &lat);
        // Cluster 0's single port is now busy, but cluster 1 is free.
        assert!(!mrt.can_place(OpKind::Load, 0, 0, &lat));
        assert!(mrt.can_place(OpKind::Load, 0, 1, &lat));
    }

    #[test]
    fn non_pipelined_div_blocks_multiple_rows() {
        let lat = OpLatencies::paper_baseline();
        // 1 FU per cluster (8C16S16): a 17-cycle divide needs II >= 17 to fit
        // on a single unit; at II = 17 it saturates the cluster's FU.
        let mut small = Mrt::new(4, caps("8C16S16"));
        assert!(
            !small.can_place(OpKind::FDiv, 0, 3, &lat),
            "a 17-cycle divide cannot recur every 4 cycles on one FU"
        );
        let mut mrt = Mrt::new(17, caps("8C16S16"));
        assert!(mrt.can_place(OpKind::FDiv, 0, 3, &lat));
        mrt.place(OpKind::FDiv, 0, 3, &lat);
        for row in 0..17 {
            assert!(!mrt.can_place(OpKind::FAdd, row, 3, &lat), "row {row}");
        }
        // Another cluster is unaffected.
        assert!(mrt.can_place(OpKind::FAdd, 0, 2, &lat));
        let _ = &mut small;
    }

    #[test]
    fn lp_sp_ports_per_cluster() {
        let lat = OpLatencies::paper_baseline();
        let mut mrt = Mrt::new(1, caps("8C16S16")); // lp = sp = 1
        mrt.place(OpKind::LoadR, 0, 0, &lat);
        assert!(!mrt.can_place(OpKind::LoadR, 0, 0, &lat));
        assert!(mrt.can_place(OpKind::LoadR, 0, 1, &lat));
        mrt.place(OpKind::StoreR, 0, 0, &lat);
        assert!(!mrt.can_place(OpKind::StoreR, 0, 0, &lat));
    }

    #[test]
    fn buses_are_global() {
        let lat = OpLatencies::paper_baseline();
        let mut mrt = Mrt::new(1, caps("2C64")); // 2 buses
        mrt.place(OpKind::Move, 0, 0, &lat);
        mrt.place(OpKind::Move, 0, 1, &lat);
        assert!(!mrt.can_place(OpKind::Move, 0, 0, &lat));
    }

    #[test]
    fn unbounded_bandwidth() {
        let lat = OpLatencies::paper_baseline();
        let m = MachineConfig::paper_baseline(RfOrganization::parse("4C16S64").unwrap())
            .with_unbounded_bandwidth();
        let mut mrt = Mrt::new(1, ResourceCaps::from_machine(&m));
        for _ in 0..100 {
            assert!(mrt.can_place(OpKind::LoadR, 0, 0, &lat));
            mrt.place(OpKind::LoadR, 0, 0, &lat);
        }
    }

    #[test]
    fn negative_cycles_wrap_correctly() {
        let lat = OpLatencies::paper_baseline();
        let mut mrt = Mrt::new(4, caps("S128"));
        mrt.place(OpKind::Load, -1, 0, &lat); // row 3
        assert_eq!(mrt.row_of(-1), 3);
        mrt.remove(OpKind::Load, -1, 0, &lat);
        // fully released
        for _ in 0..4 {
            assert!(mrt.can_place(OpKind::Load, 3, 0, &lat));
            mrt.place(OpKind::Load, 3, 0, &lat);
        }
    }

    #[test]
    fn masks_track_place_and_remove() {
        let lat = OpLatencies::paper_baseline();
        let mut mrt = Mrt::new(3, caps("S128"));
        assert_eq!(mrt.check_fu_free(), None);
        for _ in 0..8 {
            mrt.place(OpKind::FAdd, 1, 0, &lat);
            assert_eq!(mrt.check_fu_free(), None);
        }
        // Row 1 is full: the window search must skip it.
        assert_eq!(
            mrt.first_free_row_in(OpKind::FAdd, 0, (1, 5), true, &lat),
            Some(2)
        );
        mrt.remove(OpKind::FAdd, 1, 0, &lat);
        assert_eq!(mrt.check_fu_free(), None);
        assert_eq!(
            mrt.first_free_row_in(OpKind::FAdd, 0, (1, 5), true, &lat),
            Some(1)
        );
    }

    #[test]
    fn window_search_matches_linear_walk_on_crowded_table() {
        let lat = OpLatencies::paper_baseline();
        let mut mrt = Mrt::new(70, caps("S128")); // 4 shared memory ports
                                                  // Fill the first 40 rows' memory ports and a stripe near the wrap.
        for row in 0..40 {
            for _ in 0..4 {
                mrt.place(OpKind::Load, row, 0, &lat);
            }
        }
        for row in 66..70 {
            for _ in 0..4 {
                mrt.place(OpKind::Store, row, 0, &lat);
            }
        }
        // Rows 40..=65 are the only free ones; windows longer than the II
        // or crossing the wrap land on cycles of those rows.
        for (window, up, down) in [
            ((0i64, 69i64), Some(40), Some(65)),
            ((-10, 45), Some(-10), Some(45)),
            ((35, 104), Some(40), Some(65)),
            ((60, 80), Some(60), Some(65)),
            ((68, 68), None, None),
        ] {
            assert_eq!(
                mrt.first_free_row_in(OpKind::Load, 0, window, true, &lat),
                up,
                "window {window:?} upward"
            );
            assert_eq!(
                mrt.first_free_row_in(OpKind::Load, 0, window, false, &lat),
                down,
                "window {window:?} downward"
            );
        }
        // The upward scan lands on the first non-full row, 40 probes in.
        assert_eq!(
            mrt.first_free_row_in(OpKind::Load, 0, (0, 69), true, &lat),
            Some(40)
        );
        // The downward scan from inside the full wrap stripe walks back.
        assert_eq!(
            mrt.first_free_row_in(OpKind::Load, 0, (0, 68), false, &lat),
            Some(65)
        );
    }

    #[test]
    fn window_search_handles_multi_row_spans() {
        let lat = OpLatencies::paper_baseline();
        // 2 FUs per cluster (4C16S64): a 17-cycle divide at II 20 needs 17
        // consecutive rows with a free unit.
        let mut mrt = Mrt::new(20, caps("4C16S64"));
        mrt.place(OpKind::FDiv, 0, 1, &lat); // rows 0..=16 hold one unit each
        mrt.place(OpKind::FAdd, 0, 1, &lat); // row 0 full
        mrt.place(OpKind::FAdd, 18, 1, &lat);
        mrt.place(OpKind::FAdd, 18, 1, &lat); // row 18 full
        assert_eq!(mrt.check_fu_free(), None);
        // A second divide needs 17 consecutive rows with a free unit. Row 0
        // and row 18 are full, so the only feasible issue row is 1 (span
        // 1..=17) — starts 2..=17 cross row 18, start 19 wraps onto row 0 —
        // in both scan directions, and in every window that holds a cycle
        // of that row.
        for (window, t) in [((0i64, 19i64), 1i64), ((5, 30), 21), ((-20, -1), -19)] {
            for upward in [true, false] {
                assert_eq!(
                    mrt.first_free_row_in(OpKind::FDiv, 1, window, upward, &lat),
                    Some(t),
                    "window {window:?} upward {upward}"
                );
            }
        }
    }

    #[test]
    fn infeasible_conflicts_detected_on_empty_table() {
        let lat = OpLatencies::paper_baseline();
        // 1 FU per cluster (8C16S16): a 17-cycle divide cannot recur at any
        // II below 17, no matter what is ejected.
        let small = Mrt::new(4, caps("8C16S16"));
        assert!(!small.placeable_on_empty(OpKind::FDiv, &lat));
        assert!(small.placeable_on_empty(OpKind::FAdd, &lat));
        assert!(small.placeable_on_empty(OpKind::Load, &lat));
        let fits = Mrt::new(17, caps("8C16S16"));
        assert!(fits.placeable_on_empty(OpKind::FDiv, &lat));
        // 2 FUs per cluster (4C16S64): two overlapped copies fit at II 9.
        let two = Mrt::new(9, caps("4C16S64"));
        assert!(two.placeable_on_empty(OpKind::FDiv, &lat));
        let one_short = Mrt::new(8, caps("4C16S64"));
        assert!(!one_short.placeable_on_empty(OpKind::FDiv, &lat));
    }

    #[test]
    fn unbounded_classes_always_available() {
        let lat = OpLatencies::paper_baseline();
        let m = MachineConfig::paper_baseline(RfOrganization::parse("4C16S64").unwrap())
            .with_unbounded_bandwidth();
        let mut mrt = Mrt::new(2, ResourceCaps::from_machine(&m));
        for _ in 0..100 {
            mrt.place(OpKind::LoadR, 0, 0, &lat);
        }
        assert_eq!(mrt.check_fu_free(), None);
        assert_eq!(
            mrt.first_free_row_in(OpKind::LoadR, 0, (0, 1), true, &lat),
            Some(0)
        );
        assert!(mrt.placeable_on_empty(OpKind::LoadR, &lat));
    }

    #[test]
    fn free_slot_total_survives_crossing_capacity() {
        let lat = OpLatencies::paper_baseline();
        // 2 FUs per cluster (4C16S64); at II 10 a 17-cycle divide holds one
        // unit in every row and a second in rows 4..=10 mod 10.
        let mut mrt = Mrt::new(10, caps("4C16S64"));
        let steps: [(OpKind, i64, i32); 8] = [
            (OpKind::FDiv, 4, 1), // within capacity
            (OpKind::FAdd, 2, 1), // row 2 full
            (OpKind::FAdd, 2, 1), // row 2 over capacity: free slots clamp
            (OpKind::FAdd, 5, 1), // row 5 over capacity
            (OpKind::FDiv, 4, 1), // over capacity in every row
            (OpKind::FDiv, 4, -1),
            (OpKind::FAdd, 2, -1),
            (OpKind::FAdd, 5, -1), // back within capacity
        ];
        for (i, &(kind, cycle, delta)) in steps.iter().enumerate() {
            if delta > 0 {
                mrt.place(kind, cycle, 2, &lat);
            } else {
                mrt.remove(kind, cycle, 2, &lat);
            }
            assert_eq!(mrt.check_fu_free(), None, "after step {i}");
        }
        // The divide and one add are left: rows 1 and 3 hold one free unit.
        assert_eq!(mrt.free_fu_slots(2), 2);
        mrt.remove(OpKind::FAdd, 2, 2, &lat);
        mrt.remove(OpKind::FDiv, 4, 2, &lat);
        assert_eq!(mrt.check_fu_free(), None);
        assert_eq!(mrt.free_fu_slots(2), 20);
        assert_eq!(mrt, Mrt::new(10, caps("4C16S64")));
    }

    #[test]
    fn free_fu_slots_counts() {
        let lat = OpLatencies::paper_baseline();
        let mut mrt = Mrt::new(2, caps("4C32"));
        assert_eq!(mrt.free_fu_slots(0), 4); // 2 FUs x 2 rows
        mrt.place(OpKind::FAdd, 0, 0, &lat);
        assert_eq!(mrt.free_fu_slots(0), 3);
        assert_eq!(mrt.free_fu_slots(1), 4);
    }
}
