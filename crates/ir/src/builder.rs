//! Fluent construction of dependence graphs.

use crate::ddg::{Ddg, DepKind, Edge, MemAccess, Node, NodeId};
use crate::op::OpKind;

/// Fluent builder for [`Ddg`]s, used by the workload kernels, the synthetic
/// generator and the tests.
///
/// ```
/// use hcrf_ir::{DdgBuilder, OpKind};
/// let mut b = DdgBuilder::new("daxpy");
/// let lx = b.load(0, 8);
/// let ly = b.load(1, 8);
/// let mul = b.op(OpKind::FMul);   // a * x[i]
/// let add = b.op(OpKind::FAdd);   // + y[i]
/// let st = b.store(1, 8);
/// b.flow(lx, mul, 0);
/// b.flow(ly, add, 0);
/// b.flow(mul, add, 0);
/// b.flow(add, st, 0);
/// let ddg = b.build();
/// assert_eq!(ddg.num_nodes(), 5);
/// ```
#[derive(Debug, Clone)]
pub struct DdgBuilder {
    ddg: Ddg,
}

impl DdgBuilder {
    /// Start building a graph with the given loop name.
    pub fn new(name: impl Into<String>) -> Self {
        DdgBuilder {
            ddg: Ddg::new(name),
        }
    }

    /// Add a compute operation of kind `kind`.
    pub fn op(&mut self, kind: OpKind) -> NodeId {
        debug_assert!(
            !kind.is_memory(),
            "memory nodes must be added with load()/store()"
        );
        self.ddg.add_node(Node::new(kind))
    }

    /// Add a compute operation that reads a loop-invariant value.
    pub fn op_invariant(&mut self, kind: OpKind) -> NodeId {
        let id = self.ddg.add_node(Node::new(kind));
        self.ddg.node_mut(id).reads_invariant = true;
        id
    }

    /// Add a load from array `base` with the given stride (bytes/iteration).
    pub fn load(&mut self, base: u32, stride: i64) -> NodeId {
        let mut node = Node::new(OpKind::Load);
        node.mem = Some(MemAccess {
            base,
            offset: 0,
            stride,
            size: 8,
        });
        self.ddg.add_node(node)
    }

    /// Add a load with an explicit access descriptor.
    pub fn load_at(&mut self, access: MemAccess) -> NodeId {
        let mut node = Node::new(OpKind::Load);
        node.mem = Some(access);
        self.ddg.add_node(node)
    }

    /// Add a store to array `base` with the given stride (bytes/iteration).
    pub fn store(&mut self, base: u32, stride: i64) -> NodeId {
        let mut node = Node::new(OpKind::Store);
        node.mem = Some(MemAccess {
            base,
            offset: 0,
            stride,
            size: 8,
        });
        self.ddg.add_node(node)
    }

    /// Add a store with an explicit access descriptor.
    pub fn store_at(&mut self, access: MemAccess) -> NodeId {
        let mut node = Node::new(OpKind::Store);
        node.mem = Some(access);
        self.ddg.add_node(node)
    }

    /// Add a flow (true) dependence with iteration distance `distance`.
    pub fn flow(&mut self, src: NodeId, dst: NodeId, distance: u32) -> &mut Self {
        self.ddg.add_edge(Edge {
            src,
            dst,
            kind: DepKind::Flow,
            distance,
        });
        self
    }

    /// Add an anti dependence.
    pub fn anti(&mut self, src: NodeId, dst: NodeId, distance: u32) -> &mut Self {
        self.ddg.add_edge(Edge {
            src,
            dst,
            kind: DepKind::Anti,
            distance,
        });
        self
    }

    /// Add an output dependence.
    pub fn output(&mut self, src: NodeId, dst: NodeId, distance: u32) -> &mut Self {
        self.ddg.add_edge(Edge {
            src,
            dst,
            kind: DepKind::Output,
            distance,
        });
        self
    }

    /// Add a memory dependence.
    pub fn mem_dep(&mut self, src: NodeId, dst: NodeId, distance: u32) -> &mut Self {
        self.ddg.add_edge(Edge {
            src,
            dst,
            kind: DepKind::Mem,
            distance,
        });
        self
    }

    /// Finish building: marks recurrences and validates the graph.
    ///
    /// # Panics
    /// Panics if the graph fails validation (a builder bug).
    pub fn build(mut self) -> Ddg {
        self.ddg.mark_recurrences();
        self.ddg
            .validate()
            .expect("DdgBuilder produced an inconsistent graph");
        self.ddg
    }

    /// Number of nodes added so far.
    pub fn len(&self) -> usize {
        self.ddg.num_nodes()
    }

    /// Whether no node has been added yet.
    pub fn is_empty(&self) -> bool {
        self.ddg.num_nodes() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::OpLatencies;

    #[test]
    fn chain_builder() {
        let mut b = DdgBuilder::new("chain");
        let l = b.load(0, 8);
        let a = b.op(OpKind::FAdd);
        let s = b.store(1, 8);
        b.flow(l, a, 0).flow(a, s, 0);
        let g = b.build();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 2);
        assert!(g.node(l).mem.is_some());
    }

    #[test]
    fn recurrence_builder_marks_nodes() {
        let mut b = DdgBuilder::new("rec");
        let a = b.op(OpKind::FAdd);
        let l = b.load(0, 8);
        b.flow(l, a, 0);
        b.flow(a, a, 1);
        let g = b.build();
        assert!(g.node(a).on_recurrence);
        assert!(!g.node(l).on_recurrence);
        // First order recurrence through a 4-cycle adder: RecMII == 4.
        assert_eq!(g.rec_mii(&OpLatencies::paper_baseline()), 4);
    }

    #[test]
    fn invariant_flag() {
        let mut b = DdgBuilder::new("inv");
        let m = b.op_invariant(OpKind::FMul);
        let g = b.build();
        assert!(g.node(m).reads_invariant);
    }

    // The check is a `debug_assert!`, so release builds do not panic.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic]
    fn memory_op_through_op_panics_in_debug() {
        let mut b = DdgBuilder::new("bad");
        let _ = b.op(OpKind::Load);
    }
}
