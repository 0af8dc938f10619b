//! Graph analyses: strongly connected components, recurrence enumeration and
//! modulo-scheduling oriented start-time bounds (ASAP / ALAP / slack).
//!
//! The scheduler runs them for every (loop, machine) pair: RecMII on the
//! loop body for the MII, then recurrences and ASAP/ALAP on the working
//! graph for the priority order. Both work in caller-owned buffers that are
//! refilled in place, so once they have grown to the largest loop an
//! analysis allocates nothing:
//!
//! * [`RecurrenceAnalysis`] holds Tarjan's state (walking adjacency slices),
//!   the SCC numbering, the members of every component grouped in one
//!   counting pass, and the SCC-local edge list of the RecMII probes, which
//!   relax one component's edges over its own node count;
//! * [`AcyclicSchedule::compute`] refills ASAP/ALAP and evaluates each
//!   edge's weight once per call.
//!
//! [`strongly_connected_components`], [`recurrences`] and
//! [`acyclic_schedule`] are allocating wrappers around them with the same
//! results.

use crate::ddg::{Ddg, NodeId};
use crate::mii::SubsetProbe;
use crate::op::OpLatencies;

/// Identifier of a strongly connected component.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SccId(pub u32);

/// Result of Tarjan's SCC computation: the component of every node.
#[derive(Debug, Clone, Default)]
pub struct SccResult {
    /// `component[i]` is the SCC of node `i`. Components are numbered in
    /// the order Tarjan's depth-first search (roots in node order,
    /// successors in edge insertion order) completes them.
    pub component: Vec<SccId>,
    /// Number of components found.
    pub count: usize,
}

/// Compute strongly connected components with Tarjan's algorithm
/// (iterative formulation so deep graphs cannot overflow the stack).
pub fn strongly_connected_components(g: &Ddg) -> SccResult {
    let mut a = RecurrenceAnalysis::default();
    a.compute_sccs(g);
    a.scc
}

/// A recurrence (elementary dependence cycle summary) of the graph.
///
/// Only per-SCC summaries are kept: the paper's RecMII is determined by the
/// critical cycle, which the binary search in [`crate::mii::rec_mii`]
/// evaluates without enumerating every elementary cycle.
#[derive(Debug, Clone)]
pub struct Recurrence {
    /// Nodes participating in the recurrence (the non-trivial SCC).
    pub nodes: Vec<NodeId>,
    /// Lower bound on II contributed by this SCC.
    pub rec_mii: u32,
}

/// Enumerate the non-trivial SCCs of the graph together with their
/// individual RecMII contribution.
pub fn recurrences(g: &Ddg, lat: &OpLatencies) -> Vec<Recurrence> {
    let mut a = RecurrenceAnalysis::default();
    a.compute(g, lat);
    a.iter()
        .map(|r| Recurrence {
            nodes: r.nodes.to_vec(),
            rec_mii: r.rec_mii,
        })
        .collect()
}

/// One recurrence of a [`RecurrenceAnalysis`], borrowed from its buffers.
#[derive(Debug, Clone, Copy)]
pub struct RecurrenceRef<'a> {
    /// Nodes of the non-trivial SCC, in increasing id order.
    pub nodes: &'a [NodeId],
    /// Lower bound on II contributed by this SCC.
    pub rec_mii: u32,
}

/// Tarjan's SCCs, the recurrences and the RecMII of one graph at a time,
/// computed into buffers reused across graphs.
///
/// [`RecurrenceAnalysis::compute_sccs`] returns exactly
/// [`strongly_connected_components`]'s result, and after
/// [`RecurrenceAnalysis::compute`], [`RecurrenceAnalysis::iter`] yields
/// exactly what [`recurrences`] returns, in SCC order.
#[derive(Debug, Clone, Default)]
pub struct RecurrenceAnalysis {
    scc: SccResult,
    /// Tarjan: DFS index of every node (`u32::MAX` while unvisited).
    index: Vec<u32>,
    lowlink: Vec<u32>,
    on_stack: Vec<bool>,
    stack: Vec<u32>,
    /// Explicit DFS stack: (node, position in its successor slice).
    frames: Vec<(u32, u32)>,
    /// `members[start[c]..start[c + 1]]` are the nodes of component `c`.
    start: Vec<u32>,
    members: Vec<NodeId>,
    /// Position of every node in `members`.
    position: Vec<u32>,
    /// Non-trivial components: (component, RecMII).
    recs: Vec<(u32, u32)>,
    probe: SubsetProbe,
}

impl RecurrenceAnalysis {
    /// The `i`-th recurrence, in SCC order.
    pub fn get(&self, i: usize) -> RecurrenceRef<'_> {
        let (c, rec_mii) = self.recs[i];
        RecurrenceRef {
            nodes: self.component_members(c as usize),
            rec_mii,
        }
    }

    /// The recurrences in SCC order.
    pub fn iter(&self) -> impl Iterator<Item = RecurrenceRef<'_>> + '_ {
        (0..self.recs.len()).map(move |i| self.get(i))
    }

    /// Compute the SCCs (Tarjan's algorithm, iterative so deep graphs
    /// cannot overflow the stack).
    pub fn compute_sccs(&mut self, g: &Ddg) -> &SccResult {
        const UNVISITED: u32 = u32::MAX;
        let n = g.num_nodes();
        refill(&mut self.index, n, UNVISITED);
        refill(&mut self.lowlink, n, 0);
        refill(&mut self.on_stack, n, false);
        refill(&mut self.scc.component, n, SccId(u32::MAX));
        self.stack.clear();
        self.frames.clear();
        let mut next_index = 0u32;
        let mut count = 0u32;
        for root in 0..n as u32 {
            if self.index[root as usize] != UNVISITED {
                continue;
            }
            self.enter(root, &mut next_index);
            while let Some(&(v, pos)) = self.frames.last() {
                let succs = g.succ_edge_ids(NodeId(v));
                if let Some(&e) = succs.get(pos as usize) {
                    self.frames.last_mut().expect("frame").1 += 1;
                    let w = g.edge(e).dst.0;
                    if self.index[w as usize] == UNVISITED {
                        self.enter(w, &mut next_index);
                    } else if self.on_stack[w as usize] {
                        let low = &mut self.lowlink[v as usize];
                        *low = (*low).min(self.index[w as usize]);
                    }
                    continue;
                }
                self.frames.pop();
                let low_v = self.lowlink[v as usize];
                if low_v == self.index[v as usize] {
                    // v is the root of an SCC.
                    loop {
                        let w = self.stack.pop().expect("tarjan stack underflow");
                        self.on_stack[w as usize] = false;
                        self.scc.component[w as usize] = SccId(count);
                        if w == v {
                            break;
                        }
                    }
                    count += 1;
                } else if let Some(&(parent, _)) = self.frames.last() {
                    let low = &mut self.lowlink[parent as usize];
                    *low = (*low).min(low_v);
                }
            }
        }
        self.scc.count = count as usize;
        &self.scc
    }

    fn enter(&mut self, v: u32, next_index: &mut u32) {
        self.index[v as usize] = *next_index;
        self.lowlink[v as usize] = *next_index;
        *next_index += 1;
        self.stack.push(v);
        self.on_stack[v as usize] = true;
        self.frames.push((v, 0));
    }

    /// Compute the SCCs and group their members in one counting pass:
    /// `start[c]` becomes the offset of component `c` in `members`, whose
    /// slices list each component's nodes in increasing id order.
    fn group(&mut self, g: &Ddg) {
        self.compute_sccs(g);
        let count = self.scc.count;
        refill(&mut self.start, count + 1, 0);
        for c in &self.scc.component {
            self.start[c.0 as usize + 1] += 1;
        }
        for c in 0..count {
            self.start[c + 1] += self.start[c];
        }
        // Place with `start[c]` as component c's write cursor; afterwards
        // it holds the end of c, so shifting by one slot restores the
        // offsets.
        refill(&mut self.members, g.num_nodes(), NodeId(0));
        refill(&mut self.position, g.num_nodes(), 0);
        for (i, c) in self.scc.component.iter().enumerate() {
            let cursor = &mut self.start[c.0 as usize];
            self.members[*cursor as usize] = NodeId(i as u32);
            self.position[i] = *cursor;
            *cursor += 1;
        }
        self.start.copy_within(0..count, 1);
        self.start[0] = 0;
    }

    /// Compute the SCCs and the recurrences (the non-trivial SCCs) with
    /// their RecMII, each from its own SCC-local edge list.
    pub fn compute(&mut self, g: &Ddg, lat: &OpLatencies) {
        self.group(g);
        self.recs.clear();
        for c in 0..self.scc.count {
            if self.load(g, lat, c) {
                let rec_mii = self.probe.subset_rec_mii();
                self.recs.push((c as u32, rec_mii));
            }
        }
    }

    /// RecMII of the whole graph, exactly [`crate::mii::rec_mii`]: 1
    /// without a loop-carried edge; the whole graph's delay sum plus one
    /// when some zero-distance cycle has positive delay; otherwise the
    /// largest SCC bound, since a cycle never leaves its SCC.
    pub fn rec_mii(&mut self, g: &Ddg, lat: &OpLatencies) -> u32 {
        let mut hi = 1i64;
        let mut back_edge = false;
        for (_, e) in g.linked_edges() {
            hi += e.delay(g.node(e.src).kind, lat).max(0);
            back_edge |= e.distance > 0;
        }
        if !back_edge {
            // No cycles possible without a loop-carried edge.
            return 1;
        }
        self.group(g);
        let mut rec_mii = 1;
        for c in 0..self.scc.count {
            if self.load(g, lat, c) {
                match self.probe.bound() {
                    Ok(bound) => rec_mii = rec_mii.max(bound),
                    Err(_) => return hi as u32,
                }
            }
        }
        rec_mii
    }

    /// Load the edges inside component `c` into the probe, renumbered by
    /// position in the component. Returns `false` (loading nothing) for a
    /// trivial component: one node without a self-loop.
    fn load(&mut self, g: &Ddg, lat: &OpLatencies, c: usize) -> bool {
        let (begin, end) = (self.start[c], self.start[c + 1]);
        let members = &self.members[begin as usize..end as usize];
        if let [only] = members {
            if !g.successors(*only).any(|s| s == *only) {
                return false;
            }
        }
        self.probe.clear(members.len());
        for &u in members {
            let kind = g.node(u).kind;
            let src = self.position[u.index()] - begin;
            for &e in g.succ_edge_ids(u) {
                let edge = g.edge(e);
                let dst = edge.dst.index();
                if self.scc.component[dst].0 as usize == c {
                    let dst = self.position[dst] - begin;
                    self.probe
                        .push(src, dst, edge.delay(kind, lat), edge.distance);
                }
            }
        }
        true
    }

    fn component_members(&self, c: usize) -> &[NodeId] {
        &self.members[self.start[c] as usize..self.start[c + 1] as usize]
    }
}

/// Earliest/latest start times of every node for a candidate II, assuming an
/// unbounded number of resources. Used to derive scheduling priorities and
/// the slack-based HRMS-style ordering.
#[derive(Debug, Clone, Default)]
pub struct AcyclicSchedule {
    /// Earliest start time (ASAP) of every node.
    pub estart: Vec<i64>,
    /// Latest start time (ALAP) of every node.
    pub lstart: Vec<i64>,
    /// Length of the critical path for this II.
    pub length: i64,
    /// Every edge as `(src, dst, delay - ii * distance)`, in edge order.
    relax: Vec<(u32, u32, i64)>,
}

impl AcyclicSchedule {
    /// Slack (scheduling freedom) of a node: `lstart - estart`.
    pub fn slack(&self, id: NodeId) -> i64 {
        self.lstart[id.index()] - self.estart[id.index()]
    }

    /// [`acyclic_schedule`] into this schedule's buffers.
    ///
    /// Edge `(u, v)` with delay `d` and distance `w` imposes
    /// `start(v) >= start(u) + d - ii * w`; the computation is a
    /// longest-path relaxation in edge order, at most `n` passes each way.
    /// It converges because, for `ii >= RecMII`, the graph has no
    /// positive-weight cycles; below RecMII it stops after `n` passes.
    pub fn compute(&mut self, g: &Ddg, lat: &OpLatencies, ii: u32) {
        let n = g.num_nodes();
        let ii = ii as i64;
        self.relax.clear();
        self.relax.extend(g.linked_edges().map(|(_, e)| {
            let w = e.delay(g.node(e.src).kind, lat) - ii * e.distance as i64;
            (e.src.0, e.dst.0, w)
        }));
        let estart = &mut self.estart;
        refill(estart, n, 0);
        // Bellman-Ford style relaxation; at most n passes.
        for _ in 0..n.max(1) {
            let mut changed = false;
            for &(src, dst, w) in &self.relax {
                let cand = estart[src as usize] + w;
                if cand > estart[dst as usize] {
                    estart[dst as usize] = cand;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        self.length = g
            .nodes()
            .map(|(id, node)| estart[id.index()] + lat.of(node.kind) as i64)
            .max()
            .unwrap_or(0);

        // ALAP: symmetric relaxation from the sinks.
        let lstart = &mut self.lstart;
        lstart.clear();
        lstart.extend(
            g.nodes()
                .map(|(_, node)| self.length - lat.of(node.kind) as i64),
        );
        for _ in 0..n.max(1) {
            let mut changed = false;
            for &(src, dst, w) in &self.relax {
                let cand = lstart[dst as usize] - w;
                if cand < lstart[src as usize] {
                    lstart[src as usize] = cand;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
    }
}

/// Per-node slack information at a given II.
#[derive(Debug, Clone, Copy)]
pub struct SlackInfo {
    /// Earliest feasible start.
    pub estart: i64,
    /// Latest feasible start.
    pub lstart: i64,
}

/// Compute ASAP / ALAP start times for the candidate initiation interval
/// `ii` assuming unlimited resources (see [`AcyclicSchedule::compute`]).
pub fn acyclic_schedule(g: &Ddg, lat: &OpLatencies, ii: u32) -> AcyclicSchedule {
    let mut sched = AcyclicSchedule::default();
    sched.compute(g, lat, ii);
    sched
}

/// Clear `v` and refill it with `len` copies of `value`, keeping its
/// allocation.
fn refill<T: Clone>(v: &mut Vec<T>, len: usize, value: T) {
    v.clear();
    v.resize(len, value);
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::DdgBuilder;
    use crate::op::OpKind;

    #[test]
    fn scc_of_dag_is_all_singletons() {
        let mut b = DdgBuilder::new("dag");
        let a = b.op(OpKind::FAdd);
        let c = b.op(OpKind::FMul);
        let d = b.op(OpKind::FAdd);
        b.flow(a, c, 0).flow(c, d, 0);
        let g = b.build();
        let sccs = strongly_connected_components(&g);
        assert_eq!(sccs.count, 3);
        // all components distinct
        assert_ne!(sccs.component[0], sccs.component[1]);
        assert_ne!(sccs.component[1], sccs.component[2]);
    }

    #[test]
    fn scc_detects_cycle() {
        let mut b = DdgBuilder::new("cyc");
        let a = b.op(OpKind::FAdd);
        let c = b.op(OpKind::FMul);
        let d = b.op(OpKind::FAdd);
        b.flow(a, c, 0).flow(c, a, 1).flow(c, d, 0);
        let g = b.build();
        let sccs = strongly_connected_components(&g);
        assert_eq!(sccs.count, 2);
        assert_eq!(sccs.component[a.index()], sccs.component[c.index()]);
        assert_ne!(sccs.component[a.index()], sccs.component[d.index()]);
    }

    #[test]
    fn recurrences_report_rec_mii() {
        let lat = OpLatencies::paper_baseline();
        let mut b = DdgBuilder::new("rec");
        let a = b.op(OpKind::FAdd);
        let m = b.op(OpKind::FMul);
        b.flow(a, m, 0).flow(m, a, 2); // cycle latency 8, distance 2 => 4
        let g = b.build();
        let recs = recurrences(&g, &lat);
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].rec_mii, 4);
        assert_eq!(recs[0].nodes.len(), 2);
    }

    #[test]
    fn asap_alap_chain() {
        let lat = OpLatencies::paper_baseline();
        let mut b = DdgBuilder::new("chain");
        let l = b.load(0, 8);
        let a = b.op(OpKind::FAdd);
        let s = b.store(1, 8);
        b.flow(l, a, 0).flow(a, s, 0);
        let g = b.build();
        let sched = acyclic_schedule(&g, &lat, 1);
        assert_eq!(sched.estart[l.index()], 0);
        assert_eq!(sched.estart[a.index()], 2);
        assert_eq!(sched.estart[s.index()], 6);
        // chain has no slack
        assert_eq!(sched.slack(l), 0);
        assert_eq!(sched.slack(a), 0);
        assert_eq!(sched.slack(s), 0);
        assert_eq!(sched.length, 7);
    }

    #[test]
    fn slack_positive_for_off_critical_path() {
        let lat = OpLatencies::paper_baseline();
        let mut b = DdgBuilder::new("slack");
        let l = b.load(0, 8);
        let d = b.op(OpKind::FDiv); // long op: critical
        let a = b.op(OpKind::FAdd); // short op: slack
        let s = b.op(OpKind::FAdd);
        b.flow(l, d, 0).flow(l, a, 0).flow(d, s, 0).flow(a, s, 0);
        let g = b.build();
        let sched = acyclic_schedule(&g, &lat, 1);
        assert_eq!(sched.slack(d), 0);
        assert!(sched.slack(a) > 0);
    }

    #[test]
    fn larger_ii_relaxes_back_edges() {
        let lat = OpLatencies::paper_baseline();
        let mut b = DdgBuilder::new("rec2");
        let a = b.op(OpKind::FAdd);
        let m = b.op(OpKind::FMul);
        b.flow(a, m, 0).flow(m, a, 1);
        let g = b.build();
        // At II = 8 (== cycle latency) estart of a stays 0.
        let s = acyclic_schedule(&g, &lat, 8);
        assert_eq!(s.estart[a.index()], 0);
        assert_eq!(s.estart[m.index()], 4);
    }
}
