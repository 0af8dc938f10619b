//! Lower bounds on the initiation interval: ResMII, RecMII and the
//! per-cluster span floor.
//!
//! The minimum initiation interval (MII) of a modulo schedule is the
//! largest of three bounds ([`mii`]):
//!
//! * **ResMII** — resource-constrained bound: for every resource class, the
//!   total occupancy of the loop body divided by the machine's total number
//!   of units.
//! * **RecMII** — recurrence-constrained bound: for every dependence cycle
//!   `c`, `ceil(latency(c) / distance(c))`. It is computed here by a binary
//!   search on the II using positive-cycle detection on the graph whose edge
//!   weights are `delay(e) - II * distance(e)`. Every cycle lies inside one
//!   strongly connected component, so each probe relaxes one SCC's own
//!   edges ([`crate::analysis::RecurrenceAnalysis::rec_mii`]).
//!
//! On a clustered machine every operation runs on the units of one cluster,
//! so a non-pipelined op of occupancy `occ` needs `ceil(occ / II)` unit
//! copies in some row of its cluster's table. [`cluster_res_mii`] is the
//! smallest II at which that fits for every FU op: `ceil(occ /
//! fus_per_cluster)`, for example 17 for a divide on a 1-FU cluster, where
//! ResMII over the total units reports 3. On a 1-cluster machine the floor
//! never exceeds ResMII.

use crate::analysis::RecurrenceAnalysis;
use crate::ddg::Ddg;
use crate::op::{OpKind, OpLatencies, ResourceClass};

/// Resource counts available to a loop when computing ResMII.
///
/// For a clustered machine `fus`, `mem_ports` and `buses` are the *total*
/// resources (the best any cluster assignment could do), the convention the
/// paper follows for ResMII. They cannot see that one op's occupancy is
/// confined to one cluster's units; `fus_per_cluster` carries that, for the
/// per-cluster span floor [`cluster_res_mii`]. [`mii`] folds both in, and
/// the scheduler reports it and starts its II ladder from it, so "% of
/// loops achieving MII" counts against the larger of the two.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResourceCounts {
    /// Number of general purpose floating-point units.
    pub fus: u32,
    /// Floating-point units of one cluster (`fus` on a monolithic machine).
    pub fus_per_cluster: u32,
    /// Number of memory (load/store) ports.
    pub mem_ports: u32,
    /// Number of inter-cluster buses (0 when not applicable / unbounded).
    pub buses: u32,
}

impl ResourceCounts {
    /// The paper's baseline: 8 FUs in one cluster and 4 memory ports.
    pub fn paper_baseline() -> Self {
        ResourceCounts {
            fus: 8,
            fus_per_cluster: 8,
            mem_ports: 4,
            buses: 0,
        }
    }
}

/// Resource-constrained lower bound on the II.
pub fn res_mii(g: &Ddg, lat: &OpLatencies, res: ResourceCounts) -> u32 {
    let mut fu_occ = 0u64;
    let mut mem_occ = 0u64;
    let mut bus_occ = 0u64;
    for (_, n) in g.nodes() {
        let occ = lat.occupancy(n.kind) as u64;
        match n.kind.resource_class() {
            ResourceClass::Fu => fu_occ += occ,
            ResourceClass::MemPort => mem_occ += occ,
            ResourceClass::Bus => bus_occ += occ,
            // LoadR/StoreR port pressure is accounted separately by the
            // scheduler (they are per-cluster port resources, not global).
            ResourceClass::SharedReadPort | ResourceClass::SharedWritePort => {}
        }
    }
    let mut mii = 1u64;
    if res.fus > 0 {
        mii = mii.max(div_ceil(fu_occ, res.fus as u64));
    }
    if res.mem_ports > 0 {
        mii = mii.max(div_ceil(mem_occ, res.mem_ports as u64));
    }
    if res.buses > 0 {
        mii = mii.max(div_ceil(bus_occ, res.buses as u64));
    }
    mii as u32
}

/// Per-cluster span floor on the II: the largest `ceil(occ /
/// fus_per_cluster)` over the loop's FU-class operations, 1 without any.
///
/// A non-pipelined op of occupancy `occ` at II `ii` needs `ceil(occ / ii)`
/// units of its cluster in the busiest row of its span, so this is the
/// smallest II at which every FU op fits an empty table (the scheduler's
/// `Mrt::placeable_on_empty`). Below it every attempt fails whatever the
/// scheduler does. `fus_per_cluster == 0` bounds nothing, as in [`res_mii`].
pub fn cluster_res_mii(g: &Ddg, lat: &OpLatencies, fus_per_cluster: u32) -> u32 {
    if fus_per_cluster == 0 {
        return 1;
    }
    g.nodes()
        .filter(|(_, n)| n.kind.resource_class() == ResourceClass::Fu)
        .map(|(_, n)| lat.occupancy(n.kind).div_ceil(fus_per_cluster))
        .fold(1, u32::max)
}

fn div_ceil(a: u64, b: u64) -> u64 {
    if a == 0 {
        0
    } else {
        a.div_ceil(b)
    }
}

/// Recurrence-constrained lower bound on the II for the whole graph.
///
/// Allocates its buffers; [`crate::analysis::RecurrenceAnalysis::rec_mii`]
/// computes the same value in reusable ones.
pub fn rec_mii(g: &Ddg, lat: &OpLatencies) -> u32 {
    RecurrenceAnalysis::default().rec_mii(g, lat)
}

/// One edge of a [`SubsetProbe`], endpoints renumbered inside the subset.
#[derive(Debug, Clone, Copy)]
struct ProbeEdge {
    src: u32,
    dst: u32,
    delay: i64,
    distance: i64,
}

/// The edges of one node subset (in practice one SCC), renumbered locally,
/// and the distance vector its positive-cycle probes relax. Every probe of
/// the RecMII binary search passes over the subset's own edges and node
/// count only, and reuses both buffers.
#[derive(Debug, Clone, Default)]
pub(crate) struct SubsetProbe {
    edges: Vec<ProbeEdge>,
    dist: Vec<i64>,
    nodes: usize,
    /// `1 + Σ max(delay, 0)`: no cycle of the subset is longer, so every
    /// loop-carried cycle is non-positive at this II.
    hi: i64,
    back_edge: bool,
}

impl SubsetProbe {
    /// Start loading a subset of `nodes` nodes (local ids `0..nodes`).
    pub(crate) fn clear(&mut self, nodes: usize) {
        self.edges.clear();
        self.nodes = nodes;
        self.hi = 1;
        self.back_edge = false;
    }

    /// Add an edge between two local ids.
    pub(crate) fn push(&mut self, src: u32, dst: u32, delay: i64, distance: u32) {
        self.hi += delay.max(0);
        self.back_edge |= distance > 0;
        self.edges.push(ProbeEdge {
            src,
            dst,
            delay,
            distance: distance as i64,
        });
    }

    /// RecMII of the loaded subset on its own: the smallest II at which it
    /// has no cycle of positive weight `delay(e) - II * distance(e)`, 1
    /// without a loop-carried edge, and `hi` when a zero-distance cycle of
    /// positive delay makes every II infeasible.
    pub(crate) fn subset_rec_mii(&mut self) -> u32 {
        if !self.back_edge {
            // No cycles possible without a loop-carried edge.
            return 1;
        }
        match self.bound() {
            Ok(ii) | Err(ii) => ii,
        }
    }

    /// The smallest II without a positive cycle (1 without a loop-carried
    /// edge), or `Err(hi)` when even `hi` has one: then some zero-distance
    /// cycle has positive delay (a malformed graph) and no II is feasible.
    pub(crate) fn bound(&mut self) -> Result<u32, u32> {
        let mut lo: i64 = 1;
        let mut hi: i64 = self.hi.max(1);
        if self.has_positive_cycle(hi) {
            // Degenerate: return the conservative upper bound.
            return Err(hi as u32);
        }
        if !self.back_edge {
            return Ok(1);
        }
        // Invariant: feasible(hi) is true, feasible(lo - 1) is false (or lo == 1).
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.has_positive_cycle(mid) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        Ok(lo as u32)
    }

    /// Whether the subset has a cycle of positive weight when edge weights
    /// are `delay(e) - ii * distance(e)`.
    ///
    /// Bellman-Ford-style relaxation from a virtual source connected to
    /// every node with weight 0: if any distance can still be increased
    /// after `nodes` full passes, a positive cycle exists. The answer does
    /// not depend on the edge order.
    fn has_positive_cycle(&mut self, ii: i64) -> bool {
        let n = self.nodes;
        self.dist.clear();
        self.dist.resize(n, 0);
        for pass in 0..=n {
            let mut changed = false;
            for e in &self.edges {
                let cand = self.dist[e.src as usize] + e.delay - ii * e.distance;
                if cand > self.dist[e.dst as usize] {
                    self.dist[e.dst as usize] = cand;
                    changed = true;
                }
            }
            if !changed {
                return false;
            }
            if pass == n {
                return true;
            }
        }
        false
    }
}

/// The MII: `max(ResMII, RecMII)` raised to the per-cluster span floor
/// [`cluster_res_mii`].
///
/// Allocates its RecMII buffers; [`mii_with`] computes the same value in
/// reusable ones.
pub fn mii(g: &Ddg, lat: &OpLatencies, res: ResourceCounts) -> u32 {
    mii_with(g, lat, res, &mut RecurrenceAnalysis::default())
}

/// [`mii`] computing RecMII in the caller's `recurrences` buffers, so a warm
/// analysis makes it allocation-free.
pub fn mii_with(
    g: &Ddg,
    lat: &OpLatencies,
    res: ResourceCounts,
    recurrences: &mut RecurrenceAnalysis,
) -> u32 {
    res_mii(g, lat, res)
        .max(recurrences.rec_mii(g, lat))
        .max(cluster_res_mii(g, lat, res.fus_per_cluster))
}

/// Convenience: count operations by resource class.
pub fn op_counts(g: &Ddg) -> (usize, usize) {
    let mut fu = 0;
    let mut mem = 0;
    for (_, n) in g.nodes() {
        match n.kind {
            OpKind::Load | OpKind::Store => mem += 1,
            OpKind::FAdd | OpKind::FMul | OpKind::FDiv | OpKind::FSqrt => fu += 1,
            _ => {}
        }
    }
    (fu, mem)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::DdgBuilder;
    use crate::op::OpKind;

    fn lat() -> OpLatencies {
        OpLatencies::paper_baseline()
    }

    #[test]
    fn res_mii_counts_occupancy() {
        let mut b = DdgBuilder::new("res");
        // 9 adds on 8 FUs -> ResMII = 2; 2 memory ops on 4 ports -> 1.
        let mut prev = b.load(0, 8);
        for _ in 0..9 {
            let a = b.op(OpKind::FAdd);
            b.flow(prev, a, 0);
            prev = a;
        }
        let s = b.store(1, 8);
        b.flow(prev, s, 0);
        let g = b.build();
        assert_eq!(res_mii(&g, &lat(), ResourceCounts::paper_baseline()), 2);
    }

    #[test]
    fn res_mii_divider_occupancy() {
        // A single 17-cycle divide on 8 FUs still forces ResMII = ceil(17/8) = 3.
        let mut b = DdgBuilder::new("div");
        let d = b.op(OpKind::FDiv);
        let _ = d;
        let g = b.build();
        assert_eq!(res_mii(&g, &lat(), ResourceCounts::paper_baseline()), 3);
    }

    #[test]
    fn res_mii_memory_bound() {
        let mut b = DdgBuilder::new("mem");
        for i in 0..9 {
            let _ = b.load(i, 8);
        }
        let g = b.build();
        // 9 memory ops on 4 ports -> ceil(9/4) = 3
        assert_eq!(res_mii(&g, &lat(), ResourceCounts::paper_baseline()), 3);
    }

    fn loop_of(kinds: &[OpKind]) -> Ddg {
        let mut b = DdgBuilder::new("floor");
        for &k in kinds {
            let _ = b.op(k);
        }
        let _ = b.load(0, 8);
        b.build()
    }

    #[test]
    fn cluster_floor_without_fu_ops_is_one() {
        let mut b = DdgBuilder::new("mem-only");
        let l = b.load(0, 8);
        let s = b.store(1, 8);
        b.flow(l, s, 0);
        let g = b.build();
        for fus in [0, 1, 2, 8] {
            assert_eq!(cluster_res_mii(&g, &lat(), fus), 1, "{fus} FUs");
        }
    }

    #[test]
    fn cluster_floor_of_a_divide() {
        // occ 17: one unit needs II 17, two overlap at 9, four at 5, eight
        // at 3 (= ResMII on the 8-FU monolithic machine).
        let g = loop_of(&[OpKind::FAdd, OpKind::FDiv, OpKind::FMul]);
        for (fus, floor) in [(1, 17), (2, 9), (4, 5), (8, 3)] {
            assert_eq!(cluster_res_mii(&g, &lat(), fus), floor, "{fus} FUs");
        }
        assert_eq!(res_mii(&g, &lat(), ResourceCounts::paper_baseline()), 3);
    }

    #[test]
    fn cluster_floor_is_per_op_not_summed() {
        // Several divides spread over the clusters: the floor is one op's
        // span, not their sum; the square root's 30 cycles dominate.
        let divs = loop_of(&[OpKind::FDiv, OpKind::FDiv, OpKind::FDiv]);
        assert_eq!(cluster_res_mii(&divs, &lat(), 1), 17);
        assert_eq!(cluster_res_mii(&divs, &lat(), 2), 9);
        let mixed = loop_of(&[OpKind::FDiv, OpKind::FSqrt, OpKind::FDiv]);
        assert_eq!(lat().occupancy(OpKind::FSqrt), 30);
        assert_eq!(cluster_res_mii(&mixed, &lat(), 1), 30);
        assert_eq!(cluster_res_mii(&mixed, &lat(), 4), 8);
        // Pipelined ops alone never raise it.
        let adds = loop_of(&[OpKind::FAdd, OpKind::FMul]);
        assert_eq!(cluster_res_mii(&adds, &lat(), 1), 1);
    }

    #[test]
    fn rec_mii_simple_recurrence() {
        let mut b = DdgBuilder::new("rec");
        let a = b.op(OpKind::FAdd);
        b.flow(a, a, 1);
        let g = b.build();
        assert_eq!(rec_mii(&g, &lat()), 4);
    }

    #[test]
    fn rec_mii_distance_two() {
        let mut b = DdgBuilder::new("rec2");
        let a = b.op(OpKind::FAdd);
        let m = b.op(OpKind::FMul);
        b.flow(a, m, 0).flow(m, a, 2);
        let g = b.build();
        // cycle latency 8, total distance 2 -> ceil(8/2) = 4
        assert_eq!(rec_mii(&g, &lat()), 4);
    }

    #[test]
    fn rec_mii_of_dag_is_one() {
        let mut b = DdgBuilder::new("dag");
        let a = b.op(OpKind::FAdd);
        let m = b.op(OpKind::FMul);
        b.flow(a, m, 0);
        let g = b.build();
        assert_eq!(rec_mii(&g, &lat()), 1);
    }

    #[test]
    fn rec_mii_takes_critical_cycle() {
        let mut b = DdgBuilder::new("two-cycles");
        // cycle 1: fadd self-loop distance 1 -> 4
        let a = b.op(OpKind::FAdd);
        b.flow(a, a, 1);
        // cycle 2: fdiv -> fadd -> fdiv distance 1 -> (17 + 4) / 1 = 21
        let d = b.op(OpKind::FDiv);
        let e = b.op(OpKind::FAdd);
        b.flow(d, e, 0).flow(e, d, 1);
        let g = b.build();
        assert_eq!(rec_mii(&g, &lat()), 21);
    }

    #[test]
    fn mii_is_max_of_both() {
        let mut b = DdgBuilder::new("mix");
        let a = b.op(OpKind::FAdd);
        b.flow(a, a, 1); // RecMII 4
        for i in 0..20 {
            let _ = b.load(i, 8); // ResMII ceil(20/4) = 5
        }
        let g = b.build();
        assert_eq!(mii(&g, &lat(), ResourceCounts::paper_baseline()), 5);
    }

    #[test]
    fn mii_includes_the_cluster_span_floor() {
        // A divide on a 1-FU cluster raises it to its span floor.
        let mut b = DdgBuilder::new("div");
        let _ = b.op(OpKind::FDiv);
        let g = b.build();
        let one_fu = ResourceCounts {
            fus_per_cluster: 1,
            ..ResourceCounts::paper_baseline()
        };
        assert_eq!(mii(&g, &lat(), ResourceCounts::paper_baseline()), 3);
        assert_eq!(mii(&g, &lat(), one_fu), 17);
    }

    #[test]
    fn op_counts_split() {
        let mut b = DdgBuilder::new("counts");
        let _ = b.op(OpKind::FAdd);
        let _ = b.op(OpKind::FDiv);
        let _ = b.load(0, 8);
        let g = b.build();
        assert_eq!(op_counts(&g), (2, 1));
    }

    #[test]
    fn rec_mii_longer_distance_lowers_bound() {
        let mut b = DdgBuilder::new("d4");
        let a = b.op(OpKind::FMul);
        b.flow(a, a, 4);
        let g = b.build();
        // latency 4 / distance 4 = 1
        assert_eq!(rec_mii(&g, &lat()), 1);
    }
}
