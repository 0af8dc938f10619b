//! Property tests of the IR layer: SCC computation against a brute-force
//! reachability oracle, MII bounds, ASAP/ALAP consistency, exactness of
//! the buffer-reusing analyses against the straightforward implementations
//! kept in [`reference`], and the invisibility of a graph's detached tail.

// The oracle comparisons index two matrices in lockstep; iterator zipping
// would only obscure them.
#![allow(clippy::needless_range_loop)]

use hcrf_ir::analysis::{AcyclicSchedule, RecurrenceAnalysis};
use hcrf_ir::{
    analysis, mii, Ddg, DdgBuilder, DepKind, Edge, Node, NodeId, OpKind, OpLatencies,
    ResourceCounts,
};
use proptest::prelude::*;

/// The loop analyses as they were written before they moved into reusable
/// buffers: Tarjan collecting each frame's successors, one `Vec` per
/// component, and RecMII probes (`rec_mii_of_subset`, once a library
/// function) relaxing every edge of the graph over all its nodes. The
/// exactness properties below compare the library against them.
mod reference {
    use hcrf_ir::analysis::{Recurrence, SccId, SccResult};
    use hcrf_ir::{Ddg, NodeId, OpLatencies};

    pub fn strongly_connected_components(g: &Ddg) -> SccResult {
        let n = g.num_nodes();
        let mut index = vec![usize::MAX; n];
        let mut lowlink = vec![usize::MAX; n];
        let mut on_stack = vec![false; n];
        let mut stack: Vec<usize> = Vec::new();
        let mut component = vec![SccId(u32::MAX); n];
        let mut next_index = 0usize;
        let mut comp_count = 0usize;

        enum Frame {
            Enter(usize),
            Continue(usize, usize),
        }

        for start in 0..n {
            if index[start] != usize::MAX {
                continue;
            }
            let mut frames = vec![Frame::Enter(start)];
            while let Some(frame) = frames.pop() {
                match frame {
                    Frame::Enter(v) => {
                        index[v] = next_index;
                        lowlink[v] = next_index;
                        next_index += 1;
                        stack.push(v);
                        on_stack[v] = true;
                        frames.push(Frame::Continue(v, 0));
                    }
                    Frame::Continue(v, succ_pos) => {
                        let succs: Vec<usize> =
                            g.successors(NodeId(v as u32)).map(|s| s.index()).collect();
                        if succ_pos < succs.len() {
                            let w = succs[succ_pos];
                            frames.push(Frame::Continue(v, succ_pos + 1));
                            if index[w] == usize::MAX {
                                frames.push(Frame::Enter(w));
                            } else if on_stack[w] {
                                lowlink[v] = lowlink[v].min(index[w]);
                            }
                        } else {
                            for &w in &succs {
                                if on_stack[w] {
                                    lowlink[v] = lowlink[v].min(lowlink[w]);
                                }
                            }
                            if lowlink[v] == index[v] {
                                loop {
                                    let w = stack.pop().expect("tarjan stack underflow");
                                    on_stack[w] = false;
                                    component[w] = SccId(comp_count as u32);
                                    if w == v {
                                        break;
                                    }
                                }
                                comp_count += 1;
                            }
                        }
                    }
                }
            }
        }
        SccResult {
            component,
            count: comp_count,
        }
    }

    pub fn recurrences(g: &Ddg, lat: &OpLatencies) -> Vec<Recurrence> {
        let sccs = strongly_connected_components(g);
        let mut members: Vec<Vec<NodeId>> = vec![Vec::new(); sccs.count];
        for (i, c) in sccs.component.iter().enumerate() {
            members[c.0 as usize].push(NodeId(i as u32));
        }
        let mut self_loop = vec![false; g.num_nodes()];
        for (_, e) in g.edges() {
            if e.src == e.dst {
                self_loop[e.src.index()] = true;
            }
        }
        let mut out = Vec::new();
        for nodes in members {
            let non_trivial = nodes.len() > 1 || (nodes.len() == 1 && self_loop[nodes[0].index()]);
            if !non_trivial {
                continue;
            }
            let rec_mii = rec_mii_of_subset(g, lat, &nodes);
            out.push(Recurrence { nodes, rec_mii });
        }
        out
    }

    pub fn rec_mii(g: &Ddg, lat: &OpLatencies) -> u32 {
        let all: Vec<NodeId> = g.node_ids().collect();
        rec_mii_of_subset(g, lat, &all)
    }

    pub fn rec_mii_of_subset(g: &Ddg, lat: &OpLatencies, nodes: &[NodeId]) -> u32 {
        let mut in_set = vec![false; g.num_nodes()];
        for n in nodes {
            in_set[n.index()] = true;
        }
        let mut hi: i64 = 1;
        let mut any_back_edge = false;
        for (_, e) in g.edges() {
            if in_set[e.src.index()] && in_set[e.dst.index()] {
                hi += e.delay(g.node(e.src).kind, lat).max(0);
                if e.distance > 0 {
                    any_back_edge = true;
                }
            }
        }
        if !any_back_edge {
            return 1;
        }
        let mut lo: i64 = 1;
        let mut hi: i64 = hi.max(1);
        if has_positive_cycle(g, lat, &in_set, hi) {
            return hi as u32;
        }
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if has_positive_cycle(g, lat, &in_set, mid) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo as u32
    }

    fn has_positive_cycle(g: &Ddg, lat: &OpLatencies, in_set: &[bool], ii: i64) -> bool {
        let n = g.num_nodes();
        let mut dist = vec![0i64; n];
        for pass in 0..=n {
            let mut changed = false;
            for (_, e) in g.edges() {
                if !in_set[e.src.index()] || !in_set[e.dst.index()] {
                    continue;
                }
                let w = e.delay(g.node(e.src).kind, lat) - ii * e.distance as i64;
                let cand = dist[e.src.index()] + w;
                if cand > dist[e.dst.index()] {
                    dist[e.dst.index()] = cand;
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

    /// `(estart, lstart, length)`.
    pub fn acyclic_schedule(g: &Ddg, lat: &OpLatencies, ii: u32) -> (Vec<i64>, Vec<i64>, i64) {
        let n = g.num_nodes();
        let mut estart = vec![0i64; n];
        for _ in 0..n.max(1) {
            let mut changed = false;
            for (_, e) in g.edges() {
                let d = e.delay(g.node(e.src).kind, lat);
                let cand = estart[e.src.index()] + d - (ii as i64) * e.distance as i64;
                if cand > estart[e.dst.index()] {
                    estart[e.dst.index()] = cand;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        let length = estart
            .iter()
            .enumerate()
            .map(|(i, &s)| s + lat.of(g.node(NodeId(i as u32)).kind) as i64)
            .max()
            .unwrap_or(0);
        let mut lstart: Vec<i64> = (0..n)
            .map(|i| length - lat.of(g.node(NodeId(i as u32)).kind) as i64)
            .collect();
        for _ in 0..n.max(1) {
            let mut changed = false;
            for (_, e) in g.edges() {
                let d = e.delay(g.node(e.src).kind, lat);
                let cand = lstart[e.dst.index()] - d + (ii as i64) * e.distance as i64;
                if cand < lstart[e.src.index()] {
                    lstart[e.src.index()] = cand;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        (estart, lstart, length)
    }
}

/// Random graph: `n` nodes, arbitrary edges (cycles allowed) with small
/// distances on back edges so the graph remains a legal dependence graph.
fn arb_graph() -> impl Strategy<Value = Ddg> {
    (
        2usize..12,
        prop::collection::vec((0usize..12, 0usize..12, 0u32..3), 0..30),
    )
        .prop_map(|(n, edges)| {
            let mut b = DdgBuilder::new("prop");
            let ids: Vec<NodeId> = (0..n)
                .map(|i| {
                    b.op(match i % 3 {
                        0 => OpKind::FAdd,
                        1 => OpKind::FMul,
                        _ => OpKind::FDiv,
                    })
                })
                .collect();
            for (s, d, dist) in edges {
                let src = ids[s % n];
                let dst = ids[d % n];
                // Forward edges may have distance 0; edges that do not go
                // strictly forward must carry a positive distance so every
                // cycle has distance > 0 (a well-formed dependence graph).
                let distance = if s % n < d % n { dist } else { dist.max(1) };
                b.flow(src, dst, distance);
            }
            b.build()
        })
}

/// Random graph without [`arb_graph`]'s well-formedness rule: zero-distance
/// cycles, self-loops, parallel edges and every dependence kind between
/// every source op kind. It reaches RecMII's zero-distance-cycle branch and,
/// at IIs below RecMII, the ASAP/ALAP relaxation that stops after `n`
/// passes without converging.
fn arb_any_graph() -> impl Strategy<Value = Ddg> {
    (
        1usize..12,
        prop::collection::vec(0usize..6, 12..13),
        prop::collection::vec(
            (0usize..12, 0usize..12, 0u32..3, 0usize..4, any::<bool>()),
            0..40,
        ),
    )
        .prop_map(|(n, kinds, edges)| {
            let mut b = DdgBuilder::new("any");
            let ids: Vec<NodeId> = (0..n)
                .map(|i| match kinds[i] {
                    0 => b.op(OpKind::FAdd),
                    1 => b.op(OpKind::FMul),
                    2 => b.op(OpKind::FDiv),
                    3 => b.op(OpKind::FSqrt),
                    4 => b.load(i as u32, 8),
                    _ => b.store(i as u32, 8),
                })
                .collect();
            for (s, d, distance, kind, parallel) in edges {
                let (src, dst) = (ids[s % n], ids[d % n]);
                for _ in 0..1 + usize::from(parallel) {
                    match kind {
                        0 => b.flow(src, dst, distance),
                        1 => b.anti(src, dst, distance),
                        2 => b.output(src, dst, distance),
                        _ => b.mem_dep(src, dst, distance),
                    };
                }
            }
            b.build()
        })
}

/// Either graph family.
fn arb_exactness_graph() -> impl Strategy<Value = Ddg> {
    (any::<bool>(), arb_graph(), arb_any_graph()).prop_map(|(pick, a, b)| if pick { a } else { b })
}

/// Every analysis of `g` equals its reference, through `a` and `sched`
/// (which may hold another graph's results) and through the allocating
/// wrappers.
fn assert_matches_reference(
    g: &Ddg,
    a: &mut RecurrenceAnalysis,
    sched: &mut AcyclicSchedule,
) -> Result<(), TestCaseError> {
    let lat = OpLatencies::paper_baseline();
    let want = reference::strongly_connected_components(g);
    let got = analysis::strongly_connected_components(g);
    prop_assert_eq!(&got.component, &want.component);
    prop_assert_eq!(got.count, want.count);
    let got = a.compute_sccs(g);
    prop_assert_eq!(&got.component, &want.component);
    prop_assert_eq!(got.count, want.count);

    let want: Vec<(Vec<NodeId>, u32)> = reference::recurrences(g, &lat)
        .into_iter()
        .map(|r| (r.nodes, r.rec_mii))
        .collect();
    let got: Vec<(Vec<NodeId>, u32)> = analysis::recurrences(g, &lat)
        .into_iter()
        .map(|r| (r.nodes, r.rec_mii))
        .collect();
    prop_assert_eq!(&got, &want);
    a.compute(g, &lat);
    let got: Vec<(Vec<NodeId>, u32)> = a.iter().map(|r| (r.nodes.to_vec(), r.rec_mii)).collect();
    prop_assert_eq!(&got, &want);

    let rec = reference::rec_mii(g, &lat);
    prop_assert_eq!(mii::rec_mii(g, &lat), rec);
    prop_assert_eq!(a.rec_mii(g, &lat), rec);

    for ii in 1..=rec + 3 {
        let (estart, lstart, length) = reference::acyclic_schedule(g, &lat, ii);
        let fresh = analysis::acyclic_schedule(g, &lat, ii);
        prop_assert_eq!(&fresh.estart, &estart, "estart at II {}", ii);
        prop_assert_eq!(&fresh.lstart, &lstart, "lstart at II {}", ii);
        prop_assert_eq!(fresh.length, length);
        sched.compute(g, &lat, ii);
        prop_assert_eq!(&sched.estart, &estart, "reused estart at II {}", ii);
        prop_assert_eq!(&sched.lstart, &lstart, "reused lstart at II {}", ii);
        prop_assert_eq!(sched.length, length);
    }
    Ok(())
}

/// Brute-force SCC oracle: mutual reachability via Floyd–Warshall.
fn brute_force_same_scc(g: &Ddg) -> Vec<Vec<bool>> {
    let n = g.num_nodes();
    let mut reach = vec![vec![false; n]; n];
    for (_, e) in g.edges() {
        reach[e.src.index()][e.dst.index()] = true;
    }
    for k in 0..n {
        for i in 0..n {
            for j in 0..n {
                if reach[i][k] && reach[k][j] {
                    reach[i][j] = true;
                }
            }
        }
    }
    let mut same = vec![vec![false; n]; n];
    for i in 0..n {
        for j in 0..n {
            same[i][j] = i == j || (reach[i][j] && reach[j][i]);
        }
    }
    same
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Tarjan's SCC agrees with the mutual-reachability oracle.
    #[test]
    fn scc_matches_brute_force(g in arb_graph()) {
        let sccs = analysis::strongly_connected_components(&g);
        let oracle = brute_force_same_scc(&g);
        let n = g.num_nodes();
        for i in 0..n {
            for j in 0..n {
                let same = sccs.component[i] == sccs.component[j];
                prop_assert_eq!(
                    same, oracle[i][j],
                    "nodes {} and {} disagree (tarjan {} vs oracle {})",
                    i, j, same, oracle[i][j]
                );
            }
        }
    }

    /// RecMII is at least 1, at most the sum of all delays, and equals 1 for
    /// graphs without any loop-carried edge.
    #[test]
    fn rec_mii_bounds(g in arb_graph()) {
        let lat = OpLatencies::paper_baseline();
        let rec = mii::rec_mii(&g, &lat);
        prop_assert!(rec >= 1);
        let total_delay: i64 = g
            .edges()
            .map(|(_, e)| e.delay(g.node(e.src).kind, &lat))
            .sum::<i64>()
            .max(1);
        prop_assert!(rec as i64 <= total_delay + 1);
        if g.edges().all(|(_, e)| e.distance == 0) {
            prop_assert_eq!(rec, 1);
        }
    }

    /// At an II no smaller than RecMII, every node's ALAP is no earlier than
    /// its ASAP (the acyclic schedule is feasible) and every edge constraint
    /// holds between the ASAP times.
    #[test]
    fn asap_alap_consistent(g in arb_graph()) {
        let lat = OpLatencies::paper_baseline();
        let ii = mii::rec_mii(&g, &lat).max(1);
        let sched = analysis::acyclic_schedule(&g, &lat, ii);
        for id in g.node_ids() {
            prop_assert!(
                sched.lstart[id.index()] >= sched.estart[id.index()],
                "negative slack at node {} (ii {})",
                id,
                ii
            );
        }
        for (_, e) in g.edges() {
            let d = e.delay(g.node(e.src).kind, &lat);
            prop_assert!(
                sched.estart[e.src.index()] + d - (ii as i64) * e.distance as i64
                    <= sched.estart[e.dst.index()]
            );
        }
    }

    /// MII bounds each of its three components and ResMII scales down with
    /// more resources.
    #[test]
    fn mii_composition(g in arb_graph()) {
        let lat = OpLatencies::paper_baseline();
        let small = ResourceCounts { fus: 2, fus_per_cluster: 2, mem_ports: 1, buses: 0 };
        let big = ResourceCounts { fus: 16, fus_per_cluster: 16, mem_ports: 8, buses: 0 };
        let res_small = mii::res_mii(&g, &lat, small);
        let res_big = mii::res_mii(&g, &lat, big);
        prop_assert!(res_big <= res_small);
        let m = mii::mii(&g, &lat, big);
        prop_assert!(m >= res_big);
        prop_assert!(m >= mii::rec_mii(&g, &lat));
        prop_assert!(m >= mii::cluster_res_mii(&g, &lat, big.fus_per_cluster));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The analyses equal their reference implementations bit for bit:
    /// the SCC numbering (not just membership), the recurrence list in
    /// order with each SCC's RecMII, the whole graph's RecMII, and ASAP/ALAP at every II
    /// from 1 to RecMII + 3 — also when the buffers last held another graph.
    #[test]
    fn analyses_match_reference(
        first in arb_exactness_graph(),
        second in arb_exactness_graph(),
    ) {
        let mut a = RecurrenceAnalysis::default();
        let mut sched = AcyclicSchedule::default();
        assert_matches_reference(&first, &mut a, &mut sched)?;
        assert_matches_reference(&second, &mut a, &mut sched)?;
        assert_matches_reference(&first, &mut a, &mut sched)?;
    }
}

/// A detached tail for a graph of at least one node: new node kinds (the
/// register-to-register kinds the scheduler inserts) and edges as
/// `(src, dst, distance)` picks, reduced modulo the grown node count so
/// they join old and new nodes alike.
fn arb_tail() -> impl Strategy<Value = (Vec<usize>, Vec<(usize, usize, u32)>)> {
    (
        prop::collection::vec(0usize..3, 0..6),
        prop::collection::vec((0usize..32, 0usize..32, 0u32..3), 0..12),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Appending a detached tail changes nothing the adjacency or the
    /// analyses see: every linked node keeps its edge lists, a detached
    /// node has none, and the SCCs, recurrences, RecMII and ASAP/ALAP equal
    /// those of the same graph with the tail's nodes linked and its edges
    /// left out. Truncating the tail gives back the graph before it.
    #[test]
    fn detached_tail_is_invisible_and_truncates_away(
        g in arb_exactness_graph(),
        (kinds, edges) in arb_tail(),
    ) {
        let lat = OpLatencies::paper_baseline();
        let pristine = g.clone();
        let (n, e) = (g.num_nodes(), g.num_edges());
        let mut g = g;
        let mut isolated = pristine.clone();
        for k in &kinds {
            let kind = [OpKind::Move, OpKind::LoadR, OpKind::StoreR][*k];
            g.add_detached_node(Node::new(kind));
            isolated.add_node(Node::new(kind));
        }
        for &(s, d, distance) in &edges {
            let total = g.num_nodes();
            g.add_detached_edge(Edge {
                src: NodeId((s % total) as u32),
                dst: NodeId((d % total) as u32),
                kind: DepKind::Flow,
                distance,
            });
        }
        prop_assert!(g.validate().is_ok());
        prop_assert_eq!(g.num_linked_edges(), e);
        for v in g.node_ids() {
            prop_assert_eq!(g.succ_edge_ids(v), isolated.succ_edge_ids(v));
            prop_assert_eq!(g.pred_edge_ids(v), isolated.pred_edge_ids(v));
        }

        let mut a = RecurrenceAnalysis::default();
        let mut want = RecurrenceAnalysis::default();
        prop_assert_eq!(
            &a.compute_sccs(&g).component,
            &want.compute_sccs(&isolated).component
        );
        a.compute(&g, &lat);
        want.compute(&isolated, &lat);
        let recs = |r: &RecurrenceAnalysis| -> Vec<(Vec<NodeId>, u32)> {
            r.iter().map(|r| (r.nodes.to_vec(), r.rec_mii)).collect()
        };
        prop_assert_eq!(recs(&a), recs(&want));
        let rec = want.rec_mii(&isolated, &lat);
        prop_assert_eq!(a.rec_mii(&g, &lat), rec);
        prop_assert_eq!(mii::rec_mii(&g, &lat), rec);
        for ii in 1..=rec + 2 {
            let got = analysis::acyclic_schedule(&g, &lat, ii);
            let want = analysis::acyclic_schedule(&isolated, &lat, ii);
            prop_assert_eq!(&got.estart, &want.estart, "estart at II {}", ii);
            prop_assert_eq!(&got.lstart, &want.lstart, "lstart at II {}", ii);
            prop_assert_eq!(got.length, want.length);
        }

        g.truncate(n, e);
        prop_assert!(g.validate().is_ok());
        prop_assert_eq!(&g, &pristine);
    }
}
