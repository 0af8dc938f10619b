//! Scheduling priority order.
//!
//! The paper orders nodes with HRMS (Hypernode Reduction Modulo Scheduling),
//! whose goal is to schedule the nodes of the critical recurrences first and
//! to visit every other node while it still has scheduling freedom on at
//! least one side (only predecessors or only successors already scheduled),
//! keeping lifetimes short.
//!
//! This module implements a documented approximation with the same intent:
//!
//! 1. recurrences (non-trivial SCCs) are ordered first, most critical
//!    (highest RecMII) first;
//! 2. the remaining nodes are appended in a breadth-first sweep outwards from
//!    the already-ordered set (so each node is adjacent to the ordered set
//!    when possible), preferring nodes with the least slack;
//! 3. ties break on graph depth and node id for determinism.
//!
//! The arena computes the order at the first reset of every (loop, machine)
//! pair and again only at II restarts of graphs with a loop-carried
//! dependence. Each computation runs the SCC/recurrence analysis and the
//! ASAP/ALAP bounds of [`hcrf_ir::analysis`] on the working graph (loop body
//! plus memory interface, inactive edges included) in the arena's
//! [`OrderScratch`], and sorts with keys that are unique per item, so the
//! unstable sorts reproduce the stable ones and nothing allocates once the
//! buffers have grown.

use crate::workgraph::WorkGraph;
use hcrf_ir::analysis::{AcyclicSchedule, RecurrenceAnalysis};
use hcrf_ir::{NodeId, OpLatencies};
use std::cmp::Reverse;
use std::collections::VecDeque;

/// Priority order for the iterative scheduler: `order[k]` is the node to
/// schedule at the `k`-th position; `rank[node]` is its position (lower =
/// higher priority).
#[derive(Debug, Clone, Default)]
pub struct PriorityOrder {
    /// Nodes in scheduling order.
    pub order: Vec<NodeId>,
    /// Rank (position in `order`) per node id; `usize::MAX` for nodes that
    /// were inactive when the order was computed (they get lowest priority).
    pub rank: Vec<usize>,
}

impl PriorityOrder {
    /// Rank of a node (lower is scheduled earlier). Nodes unknown at ordering
    /// time (inserted later) are given the lowest priority.
    pub fn rank_of(&self, n: NodeId) -> usize {
        self.rank.get(n.index()).copied().unwrap_or(usize::MAX)
    }
}

/// Reusable scratch for [`priority_order_into`]: the attempt arena keeps one,
/// so computing the order allocates nothing once the buffers have grown to
/// the largest working graph — neither across II restarts nor across the
/// loops a pooled arena is rebound to.
#[derive(Debug, Clone, Default)]
pub struct OrderScratch {
    /// SCCs and recurrences of the working graph.
    recurrences: RecurrenceAnalysis,
    /// ASAP/ALAP bounds at the candidate II.
    bounds: AcyclicSchedule,
    /// Recurrence indices, most critical first.
    by_criticality: Vec<(Reverse<u32>, u32)>,
    members: Vec<NodeId>,
    in_order: Vec<bool>,
    frontier: VecDeque<NodeId>,
    remaining: Vec<NodeId>,
}

/// Compute the priority order for the active nodes of a working graph at the
/// given candidate II.
pub fn priority_order(w: &WorkGraph, lat: &OpLatencies, ii: u32) -> PriorityOrder {
    let mut out = PriorityOrder::default();
    priority_order_into(w, lat, ii, &mut out, &mut OrderScratch::default());
    out
}

/// [`priority_order`] writing into an existing [`PriorityOrder`], reusing its
/// `order`/`rank` buffers and the caller's [`OrderScratch`]. Produces exactly
/// the order a fresh computation would (the arena-equivalence property test
/// asserts it).
pub fn priority_order_into(
    w: &WorkGraph,
    lat: &OpLatencies,
    ii: u32,
    out: &mut PriorityOrder,
    scratch: &mut OrderScratch,
) {
    let g = &w.ddg;
    let n = g.num_nodes();
    let OrderScratch {
        recurrences,
        bounds,
        by_criticality,
        members,
        in_order,
        frontier,
        remaining,
    } = scratch;
    bounds.compute(g, lat, ii.max(1));
    recurrences.compute(g, lat);
    let sched = &*bounds;

    let mut ordered = std::mem::take(&mut out.order);
    ordered.clear();
    ordered.reserve(n);
    in_order.clear();
    in_order.resize(n, false);

    // 1. Recurrences, most constrained first (ties in SCC order); inside a
    //    recurrence follow increasing earliest start time so dependences
    //    flow forward.
    by_criticality.clear();
    by_criticality.extend(
        recurrences
            .iter()
            .enumerate()
            .map(|(i, r)| (Reverse(r.rec_mii), i as u32)),
    );
    by_criticality.sort_unstable();
    for &(_, i) in by_criticality.iter() {
        members.clear();
        members.extend(
            recurrences
                .get(i as usize)
                .nodes
                .iter()
                .copied()
                .filter(|id| w.is_active(*id) && !in_order[id.index()]),
        );
        members.sort_unstable_by_key(|id| (sched.estart[id.index()], id.index()));
        for &m in members.iter() {
            in_order[m.index()] = true;
            ordered.push(m);
        }
    }

    // 2. Breadth-first sweep outwards from the ordered set; if nothing is
    //    ordered yet (a DAG loop body), seed with the minimum-slack node.
    frontier.clear();
    // Expand along *active* edges only: scheduler-inserted interface
    // operations (LoadR/StoreR) sit between memory operations and their FU
    // consumers, and walking the deactivated original edges would order the
    // endpoints before the interface node — exactly the "sandwiched between
    // two placed neighbours" situation HRMS avoids.
    let push_neighbors = |node: NodeId, frontier: &mut VecDeque<NodeId>| {
        for (_, e) in w.active_succ_edges(node) {
            frontier.push_back(e.dst);
        }
        for (_, e) in w.active_pred_edges(node) {
            frontier.push_back(e.src);
        }
    };
    for o in &ordered {
        push_neighbors(*o, frontier);
    }

    remaining.clear();
    remaining.extend(
        g.node_ids()
            .filter(|id| w.is_active(*id) && !in_order[id.index()]),
    );
    // Sort remaining by (slack, depth) so the seed choices are deterministic
    // and critical nodes go first.
    remaining.sort_unstable_by_key(|id| {
        (
            sched.slack(*id),
            Reverse(sched.estart[id.index()]),
            id.index(),
        )
    });

    let mut remaining_cursor = 0usize;
    loop {
        // Drain the frontier first (stay adjacent to the ordered set).
        let mut advanced = false;
        while let Some(cand) = frontier.pop_front() {
            if w.is_active(cand) && !in_order[cand.index()] {
                in_order[cand.index()] = true;
                ordered.push(cand);
                push_neighbors(cand, frontier);
                advanced = true;
            }
        }
        // Seed from the remaining pool.
        while remaining_cursor < remaining.len() {
            let cand = remaining[remaining_cursor];
            remaining_cursor += 1;
            if !in_order[cand.index()] {
                in_order[cand.index()] = true;
                ordered.push(cand);
                push_neighbors(cand, frontier);
                advanced = true;
                break;
            }
        }
        if !advanced {
            break;
        }
    }

    let rank = &mut out.rank;
    rank.clear();
    rank.resize(n, usize::MAX);
    for (i, id) in ordered.iter().enumerate() {
        rank[id.index()] = i;
    }
    out.order = ordered;
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcrf_ir::{DdgBuilder, OpKind};
    use hcrf_machine::{MachineConfig, RfOrganization};

    fn machine() -> MachineConfig {
        MachineConfig::paper_baseline(RfOrganization::monolithic(64))
    }

    #[test]
    fn covers_every_active_node_exactly_once() {
        let mut b = DdgBuilder::new("cover");
        let l1 = b.load(0, 8);
        let l2 = b.load(1, 8);
        let m = b.op(OpKind::FMul);
        let a = b.op(OpKind::FAdd);
        let s = b.store(2, 8);
        b.flow(l1, m, 0)
            .flow(l2, m, 0)
            .flow(m, a, 0)
            .flow(a, a, 1)
            .flow(a, s, 0);
        let g = b.build();
        let w = WorkGraph::new(&g, &machine());
        let order = priority_order(&w, &OpLatencies::paper_baseline(), 4);
        assert_eq!(order.order.len(), 5);
        let mut seen = [false; 5];
        for n in &order.order {
            assert!(!seen[n.index()], "node {n} ordered twice");
            seen[n.index()] = true;
        }
        assert!(seen.iter().all(|s| *s));
    }

    #[test]
    fn recurrence_nodes_come_first() {
        let mut b = DdgBuilder::new("rec-first");
        let free = b.load(0, 8);
        let a = b.op(OpKind::FAdd);
        let m = b.op(OpKind::FMul);
        b.flow(a, m, 0).flow(m, a, 1);
        b.flow(free, a, 0);
        let g = b.build();
        let w = WorkGraph::new(&g, &machine());
        let order = priority_order(&w, &OpLatencies::paper_baseline(), 8);
        assert!(order.rank_of(a) < order.rank_of(free));
        assert!(order.rank_of(m) < order.rank_of(free));
    }

    #[test]
    fn most_critical_recurrence_first() {
        let mut b = DdgBuilder::new("two-recs");
        // slow recurrence: div
        let d = b.op(OpKind::FDiv);
        let x = b.op(OpKind::FAdd);
        b.flow(d, x, 0).flow(x, d, 1);
        // fast recurrence: add
        let a = b.op(OpKind::FAdd);
        b.flow(a, a, 1);
        let g = b.build();
        let w = WorkGraph::new(&g, &machine());
        let order = priority_order(&w, &OpLatencies::paper_baseline(), 21);
        assert!(order.rank_of(d) < order.rank_of(a));
    }

    #[test]
    fn inactive_nodes_are_skipped() {
        let mut b = DdgBuilder::new("skip");
        let a = b.op(OpKind::FAdd);
        let c = b.op(OpKind::FMul);
        b.flow(a, c, 0);
        let g = b.build();
        // Hierarchical machine adds no interface nodes here (no memory ops),
        // so active set == original set.
        let w = WorkGraph::new(&g, &machine());
        let order = priority_order(&w, &OpLatencies::paper_baseline(), 1);
        assert_eq!(order.order.len(), 2);
    }

    #[test]
    fn rank_of_unknown_node_is_lowest_priority() {
        let mut b = DdgBuilder::new("unknown");
        let a = b.op(OpKind::FAdd);
        let _ = a;
        let g = b.build();
        let w = WorkGraph::new(&g, &machine());
        let order = priority_order(&w, &OpLatencies::paper_baseline(), 1);
        assert_eq!(order.rank_of(NodeId(500)), usize::MAX);
    }
}
