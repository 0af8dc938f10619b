//! Data dependence graphs of innermost loops.

use crate::op::{OpKind, OpLatencies};
use std::fmt;

/// Index of a node (operation) in a [`Ddg`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Index usable for slice addressing.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Index of an edge (dependence) in a [`Ddg`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EdgeId(pub u32);

impl EdgeId {
    /// Index usable for slice addressing.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The kind of a dependence edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DepKind {
    /// True (read-after-write) register dependence: the consumer must start
    /// `latency(producer)` cycles after the producer.
    Flow,
    /// Anti (write-after-read) dependence; the paper's schedulers honour it
    /// with a delay of 0 cycles (the write may issue the same cycle).
    Anti,
    /// Output (write-after-write) dependence; honoured with a 1-cycle delay.
    Output,
    /// Memory dependence between a load and a store (or two stores) that may
    /// alias; honoured with a 1-cycle delay.
    Mem,
}

/// Description of the memory reference performed by a `Load`/`Store` node.
///
/// The cache simulator replays these descriptors to derive miss and stall
/// counts without needing the original program: `base` identifies the array,
/// `stride` is the address increment per loop iteration and `offset`
/// distinguishes references into the same array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemAccess {
    /// Identifier of the array / memory stream being accessed.
    pub base: u32,
    /// Byte offset of this reference within the array.
    pub offset: i64,
    /// Stride in bytes between consecutive iterations.
    pub stride: i64,
    /// Access size in bytes (8 for the double-precision data the paper uses).
    pub size: u32,
}

impl MemAccess {
    /// A unit-stride double-precision access to array `base`.
    pub fn unit(base: u32) -> Self {
        MemAccess {
            base,
            offset: 0,
            stride: 8,
            size: 8,
        }
    }

    /// Address of the reference at iteration `i` (arrays are laid out at
    /// disjoint 1 MiB-aligned bases so different arrays never overlap).
    pub fn address(&self, iteration: u64) -> u64 {
        let base = (self.base as u64) << 20;
        let delta = self.offset + self.stride * iteration as i64;
        base.wrapping_add(delta as u64)
    }
}

/// A node of the dependence graph: one operation of the loop body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Node {
    /// Kind of operation.
    pub kind: OpKind,
    /// Memory reference descriptor (only for `Load`/`Store`).
    pub mem: Option<MemAccess>,
    /// Whether the value read by this node is a loop invariant
    /// (lives in a register for the whole loop execution).
    pub reads_invariant: bool,
    /// True when this node belongs to a recurrence (cycle) of the graph.
    /// Filled by [`Ddg::mark_recurrences`]; used for selective binding
    /// prefetching (loads in recurrences are scheduled with hit latency).
    pub on_recurrence: bool,
}

impl Node {
    /// Create a plain compute node of the given kind.
    pub fn new(kind: OpKind) -> Self {
        Node {
            kind,
            mem: None,
            reads_invariant: false,
            on_recurrence: false,
        }
    }
}

/// A dependence edge of the graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Edge {
    /// Source (producer) node.
    pub src: NodeId,
    /// Destination (consumer) node.
    pub dst: NodeId,
    /// Kind of dependence.
    pub kind: DepKind,
    /// Iteration distance (omega): 0 for intra-iteration dependences,
    /// `d > 0` when the value is consumed `d` iterations later.
    pub distance: u32,
}

impl Edge {
    /// Delay in cycles imposed by this dependence given the operation
    /// latencies in use.
    ///
    /// Flow dependences impose the full producer latency; anti dependences
    /// impose none; output and memory dependences impose a single cycle.
    pub fn delay(&self, producer_kind: OpKind, lat: &OpLatencies) -> i64 {
        match self.kind {
            DepKind::Flow => lat.of(producer_kind) as i64,
            DepKind::Anti => 0,
            DepKind::Output | DepKind::Mem => 1,
        }
    }
}

/// A data dependence graph for one innermost loop, together with the loop
/// level metadata needed by the performance model.
///
/// The node and edge arrays may end in a *detached tail*: nodes and edges
/// appended by [`Ddg::add_detached_node`] / [`Ddg::add_detached_edge`],
/// which get ids and are readable through [`Ddg::node`] / [`Ddg::edge`]
/// (and counted by [`Ddg::num_nodes`] / [`Ddg::num_edges`]) but are in no
/// adjacency list. The *linked graph* is the prefix before the tail: the
/// adjacency accessors ([`Ddg::succ_edge_ids`] and the iterators built on
/// it) and the analyses of this crate see exactly its edges, and a detached
/// node has no successors or predecessors. A linked add after a detached
/// one panics, so the linked graph is always a prefix of both arrays.
#[derive(Default)]
pub struct Ddg {
    /// Human readable loop name (kernel name or synthetic id).
    pub name: String,
    nodes: Vec<Node>,
    edges: Vec<Edge>,
    /// Adjacency of the linked nodes only: `succs.len()` is the linked
    /// node count.
    succs: Vec<Vec<EdgeId>>,
    preds: Vec<Vec<EdgeId>>,
    /// Number of linked edges (the prefix of `edges` in the adjacency).
    linked_edges: usize,
    /// Cleared `(succs, preds)` lists of the nodes a shrinking `clone_from`
    /// cut off, the lowest former node on top, so the next `add_node` (or a
    /// growing `clone_from`) gets back the list that node position held.
    /// Only `clone_from` parks lists here; `truncate` drops the lists of
    /// linked nodes it cuts off, and detached nodes have none.
    spare_adjacency: Vec<(Vec<EdgeId>, Vec<EdgeId>)>,
}

// Equality and `Debug` see the graph only, not the parked spare lists.
impl fmt::Debug for Ddg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Ddg")
            .field("name", &self.name)
            .field("nodes", &self.nodes)
            .field("edges", &self.edges)
            .field("succs", &self.succs)
            .field("preds", &self.preds)
            .field("linked_edges", &self.linked_edges)
            .finish()
    }
}

impl PartialEq for Ddg {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
            && self.nodes == other.nodes
            && self.edges == other.edges
            && self.succs == other.succs
            && self.preds == other.preds
            && self.linked_edges == other.linked_edges
    }
}

impl Clone for Ddg {
    fn clone(&self) -> Self {
        Ddg {
            name: self.name.clone(),
            nodes: self.nodes.clone(),
            edges: self.edges.clone(),
            succs: self.succs.clone(),
            preds: self.preds.clone(),
            linked_edges: self.linked_edges,
            spare_adjacency: Vec::new(),
        }
    }

    /// Clone `source` into `self` reusing every existing allocation: the
    /// flat vectors and the surviving adjacency lists are refilled in place,
    /// and the lists of surplus nodes are parked for the nodes added next.
    /// The scheduler's pooled attempt arenas lean on this to re-target a
    /// working graph at a new loop, memory-interface nodes included,
    /// without allocating once the lists have grown to the largest loop.
    fn clone_from(&mut self, source: &Self) {
        self.name.clone_from(&source.name);
        self.nodes.clone_from(&source.nodes);
        self.edges.clone_from(&source.edges);
        self.linked_edges = source.linked_edges;
        let n = source.succs.len();
        if self.succs.len() > n {
            let surplus = self.succs.drain(n..).zip(self.preds.drain(n..)).rev();
            self.spare_adjacency.extend(surplus.map(|(mut s, mut p)| {
                s.clear();
                p.clear();
                (s, p)
            }));
        }
        for (dst, src) in self.succs.iter_mut().zip(&source.succs) {
            dst.clone_from(src);
        }
        for (dst, src) in self.preds.iter_mut().zip(&source.preds) {
            dst.clone_from(src);
        }
        for i in self.succs.len()..n {
            let (mut s, mut p) = self.spare_adjacency.pop().unwrap_or_default();
            s.extend_from_slice(&source.succs[i]);
            p.extend_from_slice(&source.preds[i]);
            self.succs.push(s);
            self.preds.push(p);
        }
    }
}

impl Ddg {
    /// Create an empty graph with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        Ddg {
            name: name.into(),
            ..Ddg::default()
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Iterate over `(id, node)` pairs.
    pub fn nodes(&self) -> impl Iterator<Item = (NodeId, &Node)> {
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (NodeId(i as u32), n))
    }

    /// Iterate over all node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// Iterate over `(id, edge)` pairs, detached edges included.
    pub fn edges(&self) -> impl Iterator<Item = (EdgeId, &Edge)> {
        self.edges
            .iter()
            .enumerate()
            .map(|(i, e)| (EdgeId(i as u32), e))
    }

    /// Number of linked edges (the edges in the adjacency lists).
    pub fn num_linked_edges(&self) -> usize {
        self.linked_edges
    }

    /// Iterate over the `(id, edge)` pairs of the linked graph: every edge
    /// before the detached tail.
    pub fn linked_edges(&self) -> impl Iterator<Item = (EdgeId, &Edge)> {
        self.edges().take(self.linked_edges)
    }

    /// Whether the graph has a detached tail.
    fn has_detached(&self) -> bool {
        self.succs.len() < self.nodes.len() || self.linked_edges < self.edges.len()
    }

    /// Access a node.
    #[inline]
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// Mutable access to a node.
    pub fn node_mut(&mut self, id: NodeId) -> &mut Node {
        &mut self.nodes[id.index()]
    }

    /// Access an edge.
    #[inline]
    pub fn edge(&self, id: EdgeId) -> &Edge {
        &self.edges[id.index()]
    }

    /// Outgoing linked edges of `id`.
    pub fn succ_edges(&self, id: NodeId) -> impl Iterator<Item = (EdgeId, &Edge)> {
        self.succ_edge_ids(id)
            .iter()
            .map(move |&e| (e, &self.edges[e.index()]))
    }

    /// Incoming linked edges of `id`.
    pub fn pred_edges(&self, id: NodeId) -> impl Iterator<Item = (EdgeId, &Edge)> {
        self.pred_edge_ids(id)
            .iter()
            .map(move |&e| (e, &self.edges[e.index()]))
    }

    /// Ids of the outgoing linked edges of `id`, in insertion order; empty
    /// for a detached node.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    #[inline]
    pub fn succ_edge_ids(&self, id: NodeId) -> &[EdgeId] {
        Self::adjacency(&self.succs, self.nodes.len(), id)
    }

    /// Ids of the incoming linked edges of `id`, in insertion order; empty
    /// for a detached node.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    #[inline]
    pub fn pred_edge_ids(&self, id: NodeId) -> &[EdgeId] {
        Self::adjacency(&self.preds, self.nodes.len(), id)
    }

    #[inline]
    fn adjacency(lists: &[Vec<EdgeId>], num_nodes: usize, id: NodeId) -> &[EdgeId] {
        match lists.get(id.index()) {
            Some(list) => list,
            None => {
                assert!(id.index() < num_nodes, "node {id} out of range");
                &[]
            }
        }
    }

    /// Successor node ids (through any edge kind), with repetitions when
    /// connected by several edges.
    pub fn successors(&self, id: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.succ_edges(id).map(|(_, e)| e.dst)
    }

    /// Predecessor node ids (through any edge kind).
    pub fn predecessors(&self, id: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.pred_edges(id).map(|(_, e)| e.src)
    }

    /// Add a linked node, returning its id.
    ///
    /// # Panics
    /// Panics if the graph has a detached tail.
    pub fn add_node(&mut self, node: Node) -> NodeId {
        assert!(
            !self.has_detached(),
            "linked node added after a detached one"
        );
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(node);
        let (succs, preds) = self.spare_adjacency.pop().unwrap_or_default();
        self.succs.push(succs);
        self.preds.push(preds);
        id
    }

    /// Add a linked edge, returning its id.
    ///
    /// # Panics
    /// Panics if either endpoint is out of range or the graph has a
    /// detached tail.
    pub fn add_edge(&mut self, edge: Edge) -> EdgeId {
        assert!(
            !self.has_detached(),
            "linked edge added after a detached one"
        );
        let id = self.add_detached_edge(edge);
        self.succs[edge.src.index()].push(id);
        self.preds[edge.dst.index()].push(id);
        self.linked_edges += 1;
        id
    }

    /// Append a node to the detached tail: it gets an id and no adjacency
    /// lists, so nothing is allocated beyond the node array's own growth.
    pub fn add_detached_node(&mut self, node: Node) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(node);
        id
    }

    /// Append an edge to the detached tail: it gets an id and is readable
    /// through [`Ddg::edge`], but no adjacency list holds it.
    ///
    /// # Panics
    /// Panics if either endpoint is out of range.
    pub fn add_detached_edge(&mut self, edge: Edge) -> EdgeId {
        assert!(edge.src.index() < self.nodes.len(), "edge src out of range");
        assert!(edge.dst.index() < self.nodes.len(), "edge dst out of range");
        let id = EdgeId(self.edges.len() as u32);
        self.edges.push(edge);
        id
    }

    /// Truncate the graph back to a prefix of `num_nodes` nodes and
    /// `num_edges` edges, undoing every add past those marks. Detached
    /// nodes and edges are plain array truncation. Truncated linked edges
    /// are also popped from the adjacency lists of surviving nodes (edges
    /// are appended in increasing id order, so each list's suffix holds
    /// exactly the ids being removed).
    ///
    /// Used by the scheduler's attempt arena to restore the pristine working
    /// graph between II attempts without re-cloning the loop body; its
    /// communication and spill insertions are all detached, so there this
    /// touches no adjacency list.
    ///
    /// # Panics
    /// Panics if a surviving edge references a truncated node (callers must
    /// truncate at a point where the prefix is self-contained).
    pub fn truncate(&mut self, num_nodes: usize, num_edges: usize) {
        assert!(num_nodes <= self.nodes.len(), "node truncation grows");
        assert!(num_edges <= self.edges.len(), "edge truncation grows");
        for i in (num_edges..self.linked_edges).rev() {
            let e = self.edges[i];
            let popped = self.succs[e.src.index()].pop();
            debug_assert_eq!(popped, Some(EdgeId(i as u32)));
            let popped = self.preds[e.dst.index()].pop();
            debug_assert_eq!(popped, Some(EdgeId(i as u32)));
        }
        self.linked_edges = self.linked_edges.min(num_edges);
        self.edges.truncate(num_edges);
        for e in &self.edges {
            assert!(
                e.src.index() < num_nodes && e.dst.index() < num_nodes,
                "surviving edge references a truncated node"
            );
        }
        self.nodes.truncate(num_nodes);
        self.succs.truncate(num_nodes);
        self.preds.truncate(num_nodes);
    }

    /// Remove a set of nodes (and every edge touching them), compacting ids.
    ///
    /// Returns the mapping `old NodeId -> new NodeId` (removed nodes map to
    /// `None`). The result is fully linked: surviving detached nodes and
    /// edges join the adjacency lists.
    pub fn remove_nodes(&mut self, remove: &[NodeId]) -> Vec<Option<NodeId>> {
        let mut keep = vec![true; self.nodes.len()];
        for id in remove {
            keep[id.index()] = false;
        }
        let mut mapping: Vec<Option<NodeId>> = Vec::with_capacity(self.nodes.len());
        let mut next = 0u32;
        for k in &keep {
            if *k {
                mapping.push(Some(NodeId(next)));
                next += 1;
            } else {
                mapping.push(None);
            }
        }
        let old_nodes = std::mem::take(&mut self.nodes);
        let old_edges = std::mem::take(&mut self.edges);
        self.succs.clear();
        self.preds.clear();
        for (i, n) in old_nodes.into_iter().enumerate() {
            if keep[i] {
                self.nodes.push(n);
                self.succs.push(Vec::new());
                self.preds.push(Vec::new());
            }
        }
        for e in old_edges {
            if let (Some(src), Some(dst)) = (mapping[e.src.index()], mapping[e.dst.index()]) {
                let id = EdgeId(self.edges.len() as u32);
                self.succs[src.index()].push(id);
                self.preds[dst.index()].push(id);
                self.edges.push(Edge { src, dst, ..e });
            }
        }
        self.linked_edges = self.edges.len();
        mapping
    }

    /// Count of nodes of each source kind `(fadd, fmul, fdiv, fsqrt, load, store)`.
    pub fn kind_histogram(&self) -> [usize; 6] {
        let mut h = [0usize; 6];
        for n in &self.nodes {
            match n.kind {
                OpKind::FAdd => h[0] += 1,
                OpKind::FMul => h[1] += 1,
                OpKind::FDiv => h[2] += 1,
                OpKind::FSqrt => h[3] += 1,
                OpKind::Load => h[4] += 1,
                OpKind::Store => h[5] += 1,
                _ => {}
            }
        }
        h
    }

    /// Number of memory operations (loads + stores) in the loop body.
    pub fn memory_ops(&self) -> usize {
        self.nodes.iter().filter(|n| n.kind.is_memory()).count()
    }

    /// Number of operations executing on the general-purpose FUs.
    pub fn fu_ops(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| n.kind.resource_class() == crate::op::ResourceClass::Fu)
            .count()
    }

    /// Mark every node that belongs to a non-trivial strongly connected
    /// component (i.e. is part of a recurrence).
    pub fn mark_recurrences(&mut self) {
        let comps = crate::analysis::strongly_connected_components(self);
        let mut size = vec![0usize; comps.count];
        for c in &comps.component {
            size[c.0 as usize] += 1;
        }
        // A single node with a self edge is also a recurrence.
        let mut self_loop = vec![false; self.nodes.len()];
        for e in &self.edges[..self.linked_edges] {
            if e.src == e.dst {
                self_loop[e.src.index()] = true;
            }
        }
        for (i, node) in self.nodes.iter_mut().enumerate() {
            let c = comps.component[i];
            node.on_recurrence = size[c.0 as usize] > 1 || self_loop[i];
        }
    }

    /// Validate internal consistency (the adjacency lists hold exactly the
    /// linked edges, memory nodes carry descriptors). Intended for debug
    /// assertions and tests.
    pub fn validate(&self) -> Result<(), String> {
        if self.succs.len() > self.nodes.len() || self.preds.len() != self.succs.len() {
            return Err("adjacency list length mismatch".into());
        }
        let listed: usize = self.succs.iter().map(Vec::len).sum();
        if listed != self.linked_edges || self.preds.iter().map(Vec::len).sum::<usize>() != listed {
            return Err("adjacency lists hold other edges than the linked ones".into());
        }
        for (i, e) in self.edges.iter().enumerate() {
            if e.src.index() >= self.nodes.len() || e.dst.index() >= self.nodes.len() {
                return Err(format!("edge {i} out of range"));
            }
            if i >= self.linked_edges {
                continue;
            }
            if e.src.index() >= self.succs.len() || e.dst.index() >= self.succs.len() {
                return Err(format!("linked edge {i} touches a detached node"));
            }
            if !self.succs[e.src.index()].contains(&EdgeId(i as u32)) {
                return Err(format!("edge {i} missing from succ list"));
            }
            if !self.preds[e.dst.index()].contains(&EdgeId(i as u32)) {
                return Err(format!("edge {i} missing from pred list"));
            }
        }
        for (i, n) in self.nodes.iter().enumerate() {
            if n.kind.is_memory() && n.mem.is_none() {
                return Err(format!("memory node {i} without access descriptor"));
            }
        }
        Ok(())
    }

    /// Convenience wrapper for RecMII (see [`crate::mii`]).
    pub fn rec_mii(&self, lat: &OpLatencies) -> u32 {
        crate::mii::rec_mii(self, lat)
    }
}

/// A loop: its dependence graph plus execution metadata used by the
/// performance model (`cycles = II * (N + (SC-1) * E) + stalls`).
#[derive(Debug, Clone, PartialEq)]
pub struct Loop {
    /// The dependence graph of the loop body.
    pub ddg: Ddg,
    /// Total number of iterations executed across the whole program run (N).
    pub iterations: u64,
    /// Number of times the loop is entered (E).
    pub invocations: u64,
    /// Relative weight of this loop in the workbench (used when aggregating;
    /// 1.0 for every loop in the default suite).
    pub weight: f64,
}

impl Loop {
    /// Wrap a graph with execution counts.
    pub fn new(ddg: Ddg, iterations: u64, invocations: u64) -> Self {
        Loop {
            ddg,
            iterations,
            invocations: invocations.max(1),
            weight: 1.0,
        }
    }

    /// Memory traffic of the loop in accesses for the whole run when no spill
    /// code is added: `N * (#loads + #stores)`.
    pub fn base_memory_traffic(&self) -> u64 {
        self.iterations * self.ddg.memory_ops() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::DdgBuilder;

    fn diamond() -> Ddg {
        let mut b = DdgBuilder::new("diamond");
        let a = b.op(OpKind::FAdd);
        let m1 = b.op(OpKind::FMul);
        let m2 = b.op(OpKind::FMul);
        let s = b.op(OpKind::FAdd);
        b.flow(a, m1, 0);
        b.flow(a, m2, 0);
        b.flow(m1, s, 0);
        b.flow(m2, s, 0);
        b.build()
    }

    #[test]
    fn adjacency_consistency() {
        let g = diamond();
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.num_edges(), 4);
        g.validate().unwrap();
        assert_eq!(g.successors(NodeId(0)).count(), 2);
        assert_eq!(g.predecessors(NodeId(3)).count(), 2);
        assert_eq!(g.successors(NodeId(3)).count(), 0);
    }

    #[test]
    fn remove_nodes_remaps_edges() {
        let mut g = diamond();
        let mapping = g.remove_nodes(&[NodeId(1)]);
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(mapping[1], None);
        assert_eq!(mapping[0], Some(NodeId(0)));
        assert_eq!(mapping[2], Some(NodeId(1)));
        assert_eq!(mapping[3], Some(NodeId(2)));
        // Edges through the removed node are gone: a->m2->s remain.
        assert_eq!(g.num_edges(), 2);
        g.validate().unwrap();
    }

    #[test]
    fn truncate_undoes_appended_nodes_and_edges() {
        let mut g = diamond();
        let pristine = g.clone();
        let (n, e) = (g.num_nodes(), g.num_edges());
        // Append two nodes and edges touching both old and new nodes.
        let x = g.add_node(Node::new(OpKind::FAdd));
        let y = g.add_node(Node::new(OpKind::FMul));
        g.add_edge(Edge {
            src: NodeId(0),
            dst: x,
            kind: DepKind::Flow,
            distance: 0,
        });
        g.add_edge(Edge {
            src: x,
            dst: y,
            kind: DepKind::Flow,
            distance: 0,
        });
        g.add_edge(Edge {
            src: y,
            dst: NodeId(3),
            kind: DepKind::Flow,
            distance: 1,
        });
        g.validate().unwrap();
        g.truncate(n, e);
        g.validate().unwrap();
        assert_eq!(g, pristine);
    }

    #[test]
    fn detached_tail_is_invisible_to_the_adjacency_and_truncates_away() {
        let lat = OpLatencies::paper_baseline();
        let mut g = diamond();
        let pristine = g.clone();
        let (n, e) = (g.num_nodes(), g.num_edges());
        // A detached node on a cycle through the diamond's source: linked,
        // it would be a recurrence.
        let x = g.add_detached_node(Node::new(OpKind::Move));
        let into = g.add_detached_edge(Edge {
            src: NodeId(0),
            dst: x,
            kind: DepKind::Flow,
            distance: 0,
        });
        g.add_detached_edge(Edge {
            src: x,
            dst: NodeId(0),
            kind: DepKind::Flow,
            distance: 1,
        });
        g.validate().unwrap();
        assert_eq!((g.num_nodes(), g.num_edges()), (n + 1, e + 2));
        assert_eq!(g.num_linked_edges(), e);
        assert_eq!(g.edge(into).dst, x);
        assert_eq!(g.linked_edges().count(), e);
        for v in pristine.node_ids() {
            assert_eq!(g.succ_edge_ids(v), pristine.succ_edge_ids(v));
            assert_eq!(g.pred_edge_ids(v), pristine.pred_edge_ids(v));
        }
        assert!(g.succ_edge_ids(x).is_empty() && g.pred_edge_ids(x).is_empty());
        assert!(crate::analysis::recurrences(&g, &lat).is_empty());
        assert_eq!(crate::mii::rec_mii(&g, &lat), 1);
        let sched = crate::analysis::acyclic_schedule(&g, &lat, 1);
        let want = crate::analysis::acyclic_schedule(&pristine, &lat, 1);
        assert_eq!(sched.estart[..n], want.estart[..]);
        assert_eq!(sched.estart[x.index()], 0);
        g.truncate(n, e);
        g.validate().unwrap();
        assert_eq!(g, pristine);
        // Without the tail, linked adds work again.
        g.add_node(Node::new(OpKind::FAdd));
        g.validate().unwrap();
    }

    #[test]
    #[should_panic(expected = "linked node added after a detached one")]
    fn linked_node_after_a_detached_one_panics() {
        let mut g = diamond();
        g.add_detached_node(Node::new(OpKind::Move));
        g.add_node(Node::new(OpKind::FAdd));
    }

    #[test]
    #[should_panic(expected = "linked edge added after a detached one")]
    fn linked_edge_after_a_detached_one_panics() {
        let mut g = diamond();
        let edge = Edge {
            src: NodeId(0),
            dst: NodeId(3),
            kind: DepKind::Flow,
            distance: 0,
        };
        g.add_detached_edge(edge);
        g.add_edge(edge);
    }

    #[test]
    fn kind_histogram_counts() {
        let mut b = DdgBuilder::new("h");
        let l = b.load(0, 8);
        let a = b.op(OpKind::FAdd);
        let d = b.op(OpKind::FDiv);
        let s = b.store(1, 8);
        b.flow(l, a, 0);
        b.flow(a, d, 0);
        b.flow(d, s, 0);
        let g = b.build();
        assert_eq!(g.kind_histogram(), [1, 0, 1, 0, 1, 1]);
        assert_eq!(g.memory_ops(), 2);
        assert_eq!(g.fu_ops(), 2);
    }

    #[test]
    fn recurrence_marking() {
        let mut b = DdgBuilder::new("rec");
        let a = b.op(OpKind::FAdd);
        let m = b.op(OpKind::FMul);
        let free = b.op(OpKind::FAdd);
        b.flow(a, m, 0);
        b.flow(m, a, 1); // recurrence a -> m -> a
        let _ = free;
        let mut g = b.build();
        g.mark_recurrences();
        assert!(g.node(a).on_recurrence);
        assert!(g.node(m).on_recurrence);
        assert!(!g.node(free).on_recurrence);
    }

    #[test]
    fn self_loop_is_recurrence() {
        let mut b = DdgBuilder::new("self");
        let a = b.op(OpKind::FAdd);
        b.flow(a, a, 1);
        let mut g = b.build();
        g.mark_recurrences();
        assert!(g.node(a).on_recurrence);
    }

    #[test]
    fn mem_access_addresses_are_disjoint_per_array() {
        let a0 = MemAccess::unit(0);
        let a1 = MemAccess::unit(1);
        assert_ne!(a0.address(0), a1.address(0));
        assert_eq!(a0.address(1) - a0.address(0), 8);
    }

    #[test]
    fn loop_memory_traffic() {
        let g = {
            let mut b = DdgBuilder::new("t");
            let l = b.load(0, 8);
            let s = b.store(1, 8);
            b.flow(l, s, 0);
            b.build()
        };
        let lp = Loop::new(g, 100, 1);
        assert_eq!(lp.base_memory_traffic(), 200);
    }

    #[test]
    fn edge_delay_by_kind() {
        let lat = OpLatencies::paper_baseline();
        let flow = Edge {
            src: NodeId(0),
            dst: NodeId(1),
            kind: DepKind::Flow,
            distance: 0,
        };
        assert_eq!(flow.delay(OpKind::FMul, &lat), 4);
        let anti = Edge {
            kind: DepKind::Anti,
            ..flow
        };
        assert_eq!(anti.delay(OpKind::FMul, &lat), 0);
        let mem = Edge {
            kind: DepKind::Mem,
            ..flow
        };
        assert_eq!(mem.delay(OpKind::Store, &lat), 1);
    }
}
