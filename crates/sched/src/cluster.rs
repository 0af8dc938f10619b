//! Cluster selection heuristic (`Select_Cluster` in Figure 5 of the paper).
//!
//! When a node is picked from the priority list the scheduler chooses the
//! cluster it will execute on, trying to (a) minimise the number of new
//! communication operations, (b) balance the use of functional units across
//! clusters and (c) balance register pressure.

use crate::mrt::Mrt;
use crate::pressure::{PlacementView, PressureQuery};
use crate::workgraph::WorkGraph;
use hcrf_ir::{NodeId, OpKind, ResourceClass};

/// Decision produced by [`select_cluster`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterChoice {
    /// Cluster the node should be scheduled on.
    pub cluster: u32,
    /// Number of neighbouring placed operations in *other* clusters
    /// (an estimate of the communication this placement will require).
    pub comm_cost: u32,
}

/// Pick the cluster for node `u`.
///
/// * Memory operations of a hierarchical machine execute on the memory ports
///   of the shared bank, so the cluster is irrelevant; cluster 0 is used as a
///   placeholder.
/// * `LoadR` nodes go to the cluster of their (placed or unplaced) FU
///   consumers; `StoreR` nodes to the cluster of their producer.
/// * Every other node is scored against each cluster.
pub fn select_cluster<P: PlacementView + ?Sized>(
    u: NodeId,
    w: &WorkGraph,
    mrt: &Mrt,
    placements: &P,
    pressure: &dyn PressureQuery,
) -> ClusterChoice {
    let clusters = mrt.caps().clusters;
    let kind = w.ddg.node(u).kind;
    if clusters <= 1 || (w.is_hierarchical() && kind.is_memory()) {
        return ClusterChoice {
            cluster: 0,
            comm_cost: 0,
        };
    }
    // Communication-anchored kinds follow their neighbour directly.
    let anchor = match kind {
        OpKind::StoreR => placed_neighbor_cluster(w, placements, u, Direction::Producers),
        OpKind::LoadR => placed_neighbor_cluster(w, placements, u, Direction::Consumers),
        _ => None,
    };
    if let Some(c) = anchor {
        return ClusterChoice {
            cluster: c,
            comm_cost: 0,
        };
    }

    // One pass over u's placed neighbours instead of one `communication_cost`
    // walk per cluster: for a fixed edge and neighbour cluster `nc`, the cost
    // as a function of the candidate cluster is either constant or "1 unless
    // the candidate is `nc`" — probing `needs_communication` at `nc` and at
    // one other cluster classifies the edge without duplicating its logic.
    // `communication_cost(c)` then reads `base + dep_total - dep_in[c]`.
    let mut base = 0u32;
    let mut dep_total = 0u32;
    let mut dep_in = [0u32; MAX_FAST_CLUSTERS];
    let fast = clusters as usize <= MAX_FAST_CLUSTERS;
    if fast {
        let other = |nc: u32| if nc == 0 { 1 } else { 0 };
        for (_, e) in w.active_pred_edges(u) {
            if let Some((_, pc)) = placements.placement_of(e.src) {
                let same = w.needs_communication(e, pc, pc);
                let diff = w.needs_communication(e, pc, other(pc));
                if same == diff {
                    base += u32::from(same);
                } else {
                    dep_total += 1;
                    dep_in[pc as usize] += 1;
                }
            }
        }
        for (_, e) in w.active_succ_edges(u) {
            if let Some((_, sc)) = placements.placement_of(e.dst) {
                let same = w.needs_communication(e, sc, sc);
                let diff = w.needs_communication(e, other(sc), sc);
                if same == diff {
                    base += u32::from(same);
                } else {
                    dep_total += 1;
                    dep_in[sc as usize] += 1;
                }
            }
        }
    }
    let mut best = ClusterChoice {
        cluster: 0,
        comm_cost: u32::MAX,
    };
    let mut best_score = i64::MAX;
    for c in 0..clusters {
        let comm = if fast {
            base + dep_total - dep_in[c as usize]
        } else {
            communication_cost(w, placements, u, c)
        };
        let free_slots = mrt.free_fu_slots(c) as i64;
        let press = pressure.cluster_live(c) as i64;
        // Lower is better: communication dominates, then register pressure,
        // then (negated) free slots for load balance.
        let score = (comm as i64) * 1000 + press * 10 - free_slots;
        if score < best_score {
            best_score = score;
            best = ClusterChoice {
                cluster: c,
                comm_cost: comm,
            };
        }
    }
    best
}

/// Widest machine the one-pass communication-cost aggregation handles on the
/// stack; wider machines (none exist in the design spaces explored so far)
/// fall back to the per-cluster walk.
const MAX_FAST_CLUSTERS: usize = 64;

enum Direction {
    Producers,
    Consumers,
}

fn placed_neighbor_cluster<P: PlacementView + ?Sized>(
    w: &WorkGraph,
    placements: &P,
    u: NodeId,
    dir: Direction,
) -> Option<u32> {
    // Prefer the first placed FU neighbour; fall back to the first placed
    // neighbour of any kind, in one pass in edge order.
    let mut fu_cluster = None;
    let mut any_cluster = None;
    let mut visit = |n: NodeId| {
        let Some((_, c)) = placements.placement_of(n) else {
            return;
        };
        if w.ddg.node(n).kind.resource_class() == ResourceClass::Fu {
            fu_cluster.get_or_insert(c);
        }
        any_cluster.get_or_insert(c);
    };
    match dir {
        Direction::Producers => {
            for (_, e) in w
                .active_pred_edges(u)
                .filter(|(_, e)| e.kind == hcrf_ir::DepKind::Flow)
            {
                visit(e.src);
            }
        }
        Direction::Consumers => {
            for (_, e) in w
                .active_succ_edges(u)
                .filter(|(_, e)| e.kind == hcrf_ir::DepKind::Flow)
            {
                visit(e.dst);
            }
        }
    }
    fu_cluster.or(any_cluster)
}

/// Number of placed flow neighbours of `u` that would sit in a different
/// cluster if `u` were placed on cluster `c` (and would therefore require a
/// communication chain).
pub fn communication_cost<P: PlacementView + ?Sized>(
    w: &WorkGraph,
    placements: &P,
    u: NodeId,
    c: u32,
) -> u32 {
    let mut cost = 0u32;
    for (_, e) in w.active_pred_edges(u) {
        if let Some((_, pc)) = placements.placement_of(e.src) {
            if w.needs_communication(e, pc, c) {
                cost += 1;
            }
        }
    }
    for (_, e) in w.active_succ_edges(u) {
        if let Some((_, sc)) = placements.placement_of(e.dst) {
            if w.needs_communication(e, c, sc) {
                cost += 1;
            }
        }
    }
    cost
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mrt::ResourceCaps;
    use crate::pressure::pressure;
    use hcrf_ir::{DdgBuilder, OpLatencies};
    use hcrf_machine::{MachineConfig, RfOrganization};

    fn setup(cfg: &str, g: &hcrf_ir::Ddg) -> (WorkGraph, Mrt, MachineConfig) {
        let m = MachineConfig::paper_baseline(RfOrganization::parse(cfg).unwrap());
        let w = WorkGraph::new(g, &m);
        let mrt = Mrt::new(4, ResourceCaps::from_machine(&m));
        (w, mrt, m)
    }

    #[test]
    fn monolithic_always_cluster_zero() {
        let mut b = DdgBuilder::new("m");
        let a = b.op(OpKind::FAdd);
        let g = b.build();
        let (w, mrt, _) = setup("S64", &g);
        let place = vec![None; w.ddg.num_nodes()];
        let p = pressure(&w, &place, 4, 1);
        let choice = select_cluster(a, &w, &mrt, &place, &p);
        assert_eq!(choice.cluster, 0);
    }

    #[test]
    fn prefers_cluster_of_placed_producer() {
        let mut b = DdgBuilder::new("prod");
        let p0 = b.op(OpKind::FMul);
        let c0 = b.op(OpKind::FAdd);
        b.flow(p0, c0, 0);
        let g = b.build();
        let (w, mrt, _) = setup("4C16S64", &g);
        let mut place = vec![None; w.ddg.num_nodes()];
        place[p0.index()] = Some((0i64, 2u32));
        let pr = pressure(&w, &place, 4, 4);
        let choice = select_cluster(c0, &w, &mrt, &place, &pr);
        assert_eq!(choice.cluster, 2);
        assert_eq!(choice.comm_cost, 0);
    }

    #[test]
    fn balances_towards_empty_cluster_when_no_neighbors() {
        let mut b = DdgBuilder::new("bal");
        let a = b.op(OpKind::FAdd);
        let x = b.op(OpKind::FMul);
        let g = b.build();
        let _ = x;
        let (w, mut mrt, m) = setup("2C64", &g);
        let lat = OpLatencies::paper_baseline();
        // Fill cluster 0's FUs at every row so it looks busy.
        for row in 0..4 {
            for _ in 0..m.fus_per_cluster() {
                mrt.place(OpKind::FAdd, row, 0, &lat);
            }
        }
        let place = vec![None; w.ddg.num_nodes()];
        let p = pressure(&w, &place, 4, 2);
        let choice = select_cluster(a, &w, &mrt, &place, &p);
        assert_eq!(choice.cluster, 1);
    }

    #[test]
    fn memory_ops_on_hierarchical_machines_get_cluster_zero() {
        let mut b = DdgBuilder::new("mem");
        let l = b.load(0, 8);
        let a = b.op(OpKind::FAdd);
        b.flow(l, a, 0);
        let g = b.build();
        let (w, mrt, _) = setup("8C16S16", &g);
        let place = vec![None; w.ddg.num_nodes()];
        let p = pressure(&w, &place, 4, 8);
        let choice = select_cluster(l, &w, &mrt, &place, &p);
        assert_eq!(choice.cluster, 0);
        assert_eq!(choice.comm_cost, 0);
    }

    #[test]
    fn one_pass_scoring_matches_per_cluster_walk() {
        // A mixed neighbourhood on a hierarchical machine: placed producers
        // in two clusters, one placed consumer, one unplaced neighbour. The
        // one-pass aggregation must reproduce `communication_cost` for the
        // chosen cluster.
        let mut b = DdgBuilder::new("op");
        let p0 = b.op(OpKind::FMul);
        let p1 = b.op(OpKind::FMul);
        let p2 = b.op(OpKind::FMul); // stays unplaced
        let u = b.op(OpKind::FAdd);
        let c0 = b.op(OpKind::FAdd);
        b.flow(p0, u, 0)
            .flow(p1, u, 0)
            .flow(p2, u, 0)
            .flow(u, c0, 0);
        let g = b.build();
        let (w, mrt, _) = setup("4C16S64", &g);
        let mut place = vec![None; w.ddg.num_nodes()];
        place[p0.index()] = Some((0i64, 0u32));
        place[p1.index()] = Some((0, 2));
        place[c0.index()] = Some((9, 2));
        let pr = pressure(&w, &place, 4, 4);
        let choice = select_cluster(u, &w, &mrt, &place, &pr);
        assert_eq!(
            choice.comm_cost,
            communication_cost(&w, &place, u, choice.cluster)
        );
    }

    #[test]
    fn communication_cost_counts_cross_cluster_neighbors() {
        let mut b = DdgBuilder::new("cc");
        let p0 = b.op(OpKind::FMul);
        let p1 = b.op(OpKind::FMul);
        let c0 = b.op(OpKind::FAdd);
        b.flow(p0, c0, 0).flow(p1, c0, 0);
        let g = b.build();
        let (w, _, _) = setup("4C32", &g);
        let mut place = vec![None; w.ddg.num_nodes()];
        place[p0.index()] = Some((0i64, 0u32));
        place[p1.index()] = Some((0, 1));
        assert_eq!(communication_cost(&w, &place, c0, 0), 1);
        assert_eq!(communication_cost(&w, &place, c0, 1), 1);
        assert_eq!(communication_cost(&w, &place, c0, 2), 2);
    }
}
