//! The scheduler's working graph: the original dependence graph plus the
//! memory-interface LoadR/StoreR operations inserted before scheduling and
//! the communication and spill chains inserted while scheduling, with
//! enough bookkeeping to undo a chain when backtracking ejects a node.
//!
//! The memory interface is part of the pristine graph: its nodes take the
//! ids right after the loop body's and are never removed, so an inserted
//! node is permanent exactly when its id is below the pristine node count.
//! Every other insertion is a chain that replaces one edge and appends at
//! most two nodes and three edges; since appended ids are consecutive, a
//! chain is recorded as the id ranges its insertion appended.

use crate::types::BankAssignment;
use hcrf_ir::{Ddg, DepKind, Edge, EdgeId, MemAccess, Node, NodeId, OpKind, OpLatencies};
use hcrf_machine::{MachineConfig, RfOrganization};

/// Array id of the first spill slot: spill memory accesses use dedicated
/// array ids so the cache simulator can distinguish them.
const SPILL_BASE: u32 = 1 << 16;

/// A communication or spill chain: the operations one insertion appended to
/// replace one edge, removed together.
#[derive(Debug, Clone, Copy)]
struct CommChain {
    /// Node whose scheduling caused the insertion (ejecting it removes the
    /// chain).
    owner: NodeId,
    /// The edge the chain replaced (reactivated on removal).
    replaced: EdgeId,
    /// The node ids the insertion appended, `start..end`.
    nodes: (u32, u32),
    /// The edge ids the insertion appended, `start..end`.
    edges: (u32, u32),
    /// Whether the chain is currently active.
    active: bool,
}

impl CommChain {
    fn nodes(&self) -> impl Iterator<Item = NodeId> {
        (self.nodes.0..self.nodes.1).map(NodeId)
    }

    fn edges(&self) -> impl Iterator<Item = EdgeId> {
        (self.edges.0..self.edges.1).map(EdgeId)
    }
}

/// The working graph.
#[derive(Debug, Clone, Default)]
pub struct WorkGraph {
    /// The evolving dependence graph (nodes are never physically removed
    /// within an II attempt; they are deactivated instead). The loop body
    /// and the memory interface are its linked graph; every communication
    /// and spill node and edge joins its detached tail, so the `Ddg`
    /// adjacency describes the pristine graph only and a reset is plain
    /// truncation.
    pub ddg: Ddg,
    node_active: Vec<bool>,
    edge_active: Vec<bool>,
    chains: Vec<CommChain>,
    original_nodes: usize,
    original_mem_ops: usize,
    /// Node count of the pristine graph: the loop body plus the memory
    /// interface.
    pristine_nodes: usize,
    /// Edge activity of the pristine graph (the memory interface
    /// deactivates the edges it reroutes); its length is the pristine edge
    /// count. [`WorkGraph::reset_to_pristine`] restores it.
    pristine_edge_active: Vec<bool>,
    hierarchical: bool,
    clustered: bool,
    /// Array id of the next spill slot.
    next_spill_base: u32,
    /// Per-node *active* outgoing edge ids, sorted ascending — exactly the
    /// sequence the `edge_active` filter over the full adjacency would
    /// yield. Maintained incrementally (deactivation removes, reactivation
    /// re-inserts at the sorted position) so the scheduler's neighbourhood
    /// walks never iterate the dead edges of removed chains, which would
    /// make hub-node walks O(insertion history) per visit under eject/insert
    /// ping-pong storms.
    succ_active_edges: Vec<Vec<EdgeId>>,
    /// Per-node active incoming edge ids, sorted ascending (see
    /// `succ_active_edges`).
    pred_active_edges: Vec<Vec<EdgeId>>,
    /// Defs whose value lifetime may have changed because an incident flow
    /// edge was (de)activated; drained by the scheduler into the incremental
    /// [`crate::pressure::PressureTracker`] before its next query.
    pressure_dirty: Vec<NodeId>,
    /// Chain that contains each node, `None` for pristine nodes. Chains
    /// never share nodes, so membership is unique; readers must still check
    /// the chain's `active` flag.
    chain_of_node: Vec<Option<u32>>,
    /// Per node, the chains whose owner it is or whose replaced edge
    /// touches it — the set [`WorkGraph::chains_to_remove_into`] must
    /// enumerate. Indexed at insertion so the ejection path pays O(chains
    /// touching the node) instead of scanning every chain ever inserted
    /// (ejection storms query this hundreds of thousands of times per
    /// attempt).
    chains_touching: Vec<Vec<u32>>,
    /// Bumped on every change to the edge/node topology (chain insertion or
    /// removal). Lets the scheduler detect that a snapshot of a node's
    /// neighbourhood taken before an ejection cascade is still valid — the
    /// cascade can only *unplace* nodes unless it also removed a chain,
    /// which reactivates replaced edges and shows up here.
    topo_version: u64,
    /// Recycled active-adjacency lists of truncated nodes, in the order
    /// [`WorkGraph::push_node`] pops them (see `resize_node_lists`).
    edge_list_pool: Vec<Vec<EdgeId>>,
    /// Recycled `chains_touching` lists of truncated nodes.
    chain_index_pool: Vec<Vec<u32>>,
    /// Scratch of `insert_memory_interface`: the edges one memory op's
    /// LoadR/StoreR takes over.
    interface_edges: Vec<(EdgeId, Edge)>,
}

impl WorkGraph {
    /// Build the working graph for one machine: clones the loop body and, for
    /// hierarchical organizations, inserts the memory-interface LoadR/StoreR
    /// operations (the paper's `G = G + LdRs + StRs` preprocessing step).
    pub fn new(original: &Ddg, machine: &MachineConfig) -> Self {
        let mut wg = WorkGraph::default();
        wg.rebind(original, machine);
        wg
    }

    /// Re-target this working graph at a *different* loop (and possibly a
    /// different machine), reusing every allocation the previous binding
    /// grew: the cloned dependence graph (adjacency lists included), the
    /// activity vectors, the sorted active-adjacency lists and the per-node
    /// chain indices. [`WorkGraph::new`] is this on an empty graph; the
    /// pooled [`crate::arena::AttemptArena`] calls it once per loop instead
    /// of building a fresh graph. The result is the pristine graph that
    /// [`WorkGraph::reset_to_pristine`] restores.
    pub fn rebind(&mut self, original: &Ddg, machine: &MachineConfig) {
        // The last attempt's communication and spill nodes are detached, so
        // `clone_from` parks at most the pristine graph's adjacency lists,
        // which the memory interface below takes back.
        self.ddg.clone_from(original);
        let n = original.num_nodes();
        self.resize_node_lists(n);
        for touched in &mut self.chains_touching {
            touched.clear();
        }
        self.node_active.clear();
        self.node_active.resize(n, true);
        self.edge_active.clear();
        self.edge_active.resize(original.num_edges(), true);
        self.refill_active_lists();
        self.chains.clear();
        self.original_nodes = n;
        self.original_mem_ops = original.memory_ops();
        self.hierarchical = machine.rf.is_hierarchical();
        self.clustered = matches!(machine.rf, RfOrganization::Clustered { .. });
        self.next_spill_base = SPILL_BASE;
        self.pressure_dirty.clear();
        self.chain_of_node.clear();
        self.chain_of_node.resize(n, None);
        self.topo_version += 1;
        if self.hierarchical {
            self.insert_memory_interface();
        }
        debug_assert_eq!(
            self.ddg.num_linked_edges(),
            self.ddg.num_edges(),
            "the pristine graph is linked"
        );
        self.pristine_nodes = self.ddg.num_nodes();
        self.pristine_edge_active.clone_from(&self.edge_active);
    }

    /// Resize the per-node active-adjacency and chain-index lists to `len`
    /// nodes through the pools. Surplus lists are pushed highest node first,
    /// so each pool's top is the lowest former node and `push_node` (like the
    /// growth here) pops them in ascending node order: every node position
    /// gets back the lists it held before, and their capacities settle at
    /// the largest graph instead of being shuffled between nodes.
    fn resize_node_lists(&mut self, len: usize) {
        if self.succ_active_edges.len() > len {
            let surplus = self
                .succ_active_edges
                .drain(len..)
                .zip(self.pred_active_edges.drain(len..))
                .rev();
            for (mut succ, mut pred) in surplus {
                succ.clear();
                pred.clear();
                self.edge_list_pool.push(pred);
                self.edge_list_pool.push(succ);
            }
            for mut touched in self.chains_touching.drain(len..).rev() {
                touched.clear();
                self.chain_index_pool.push(touched);
            }
        }
        while self.succ_active_edges.len() < len {
            self.push_node_lists();
        }
    }

    /// Append one node's (empty) active-adjacency and chain-index lists,
    /// recycled from the pools when they hold any.
    fn push_node_lists(&mut self) {
        self.chains_touching
            .push(self.chain_index_pool.pop().unwrap_or_default());
        self.succ_active_edges
            .push(self.edge_list_pool.pop().unwrap_or_default());
        self.pred_active_edges
            .push(self.edge_list_pool.pop().unwrap_or_default());
    }

    /// Refill every node's active-adjacency lists from the `Ddg` adjacency
    /// filtered by `edge_active`. The adjacency lists hold ascending ids, so
    /// the refilled lists come out sorted.
    fn refill_active_lists(&mut self) {
        let lists = self.succ_active_edges.iter_mut();
        for (i, (succ, pred)) in lists.zip(&mut self.pred_active_edges).enumerate() {
            let n = NodeId(i as u32);
            let active = |e: &&EdgeId| self.edge_active[e.index()];
            succ.clear();
            succ.extend(self.ddg.succ_edge_ids(n).iter().filter(active));
            pred.clear();
            pred.extend(self.ddg.pred_edge_ids(n).iter().filter(active));
        }
    }

    /// Undo every chain inserted since the last [`WorkGraph::rebind`]:
    /// truncate the appended nodes/edges/chains, restore the pristine edge
    /// activity (chains can deactivate — and their removal reactivate —
    /// *pristine* edges), refill the active lists from it and clear the
    /// per-attempt scratch. After this the graph is indistinguishable from
    /// a freshly built one except for the monotonic `topo_version` (never
    /// compared across attempts).
    ///
    /// Pristine per-node state needs no restore beyond truncation:
    /// `node_active` is only cleared for chain members and `chain_of_node`
    /// is `None` for every pristine node. `chains_touching` is the one
    /// pristine-indexed container chains write into, so its lists are
    /// cleared outright.
    pub fn reset_to_pristine(&mut self) {
        let (nodes, edges) = (self.pristine_nodes, self.pristine_edge_active.len());
        self.topo_version += 1;
        self.chains.clear();
        self.resize_node_lists(nodes);
        self.ddg.truncate(nodes, edges);
        self.node_active.truncate(nodes);
        debug_assert!(self.node_active.iter().all(|a| *a));
        self.chain_of_node.truncate(nodes);
        for touched in &mut self.chains_touching {
            touched.clear();
        }
        self.edge_active.clone_from(&self.pristine_edge_active);
        self.refill_active_lists();
        self.next_spill_base = SPILL_BASE;
        self.pressure_dirty.clear();
    }

    /// Whether any dependence of the graph is loop-carried (`distance > 0`).
    /// When none is, the ASAP/ALAP bounds — and therefore the scheduling
    /// priority order — are independent of the candidate II, so the arena
    /// can reuse the order across II restarts without recomputing it.
    pub fn has_loop_carried_deps(&self) -> bool {
        self.ddg.edges().any(|(_, e)| e.distance > 0)
    }

    /// Number of nodes of the original loop body.
    pub fn original_nodes(&self) -> usize {
        self.original_nodes
    }

    /// Number of memory operations of the original loop body.
    pub fn original_mem_ops(&self) -> usize {
        self.original_mem_ops
    }

    /// Whether the target has a shared second-level bank.
    pub fn is_hierarchical(&self) -> bool {
        self.hierarchical
    }

    /// Whether a node is currently part of the graph.
    pub fn is_active(&self, n: NodeId) -> bool {
        self.node_active[n.index()]
    }

    /// Current topology version: bumped by every chain insertion/removal.
    /// Two equal readings bracket a window in which no edge was
    /// (de)activated and no node joined the graph — placements may still
    /// have been removed.
    pub fn topo_version(&self) -> u64 {
        self.topo_version
    }

    /// Whether an edge is currently part of the graph.
    pub fn edge_is_active(&self, e: EdgeId) -> bool {
        self.edge_active[e.index()]
    }

    /// Whether a node is a spill reload (load re-reading a spilled value):
    /// the only loads the scheduler inserts.
    pub fn is_spill_reload(&self, n: NodeId) -> bool {
        self.is_inserted(n) && self.ddg.node(n).kind == OpKind::Load
    }

    /// Whether the node was inserted by the scheduler (not part of the
    /// original body).
    pub fn is_inserted(&self, n: NodeId) -> bool {
        n.index() >= self.original_nodes
    }

    /// Whether the node belongs to the pristine graph (the loop body or the
    /// memory interface), which no ejection removes.
    pub fn is_permanent(&self, n: NodeId) -> bool {
        n.index() < self.pristine_nodes
    }

    /// Iterate over the ids of all currently active nodes.
    pub fn active_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.ddg
            .node_ids()
            .filter(move |n| self.node_active[n.index()])
    }

    /// Number of currently active nodes.
    pub fn active_count(&self) -> usize {
        self.node_active.iter().filter(|a| **a).count()
    }

    /// Active outgoing edges of a node, in ascending edge-id order — the
    /// exact sequence filtering the full adjacency by `edge_active` would
    /// yield, but served from the incrementally maintained active lists so
    /// the walk never iterates dead edges of removed chains.
    pub fn active_succ_edges(&self, n: NodeId) -> impl Iterator<Item = (EdgeId, &Edge)> {
        self.succ_active_edges[n.index()]
            .iter()
            .map(move |&id| (id, self.ddg.edge(id)))
    }

    /// Active incoming edges of a node (see
    /// [`WorkGraph::active_succ_edges`]).
    pub fn active_pred_edges(&self, n: NodeId) -> impl Iterator<Item = (EdgeId, &Edge)> {
        self.pred_active_edges[n.index()]
            .iter()
            .map(move |&id| (id, self.ddg.edge(id)))
    }

    /// Effective latency of a node as a producer, honouring selective binding
    /// prefetching: loads not on a recurrence and not spill reloads are
    /// scheduled assuming the miss latency.
    pub fn producer_latency(&self, n: NodeId, lat: &OpLatencies, binding_prefetch: bool) -> u32 {
        let node = self.ddg.node(n);
        if node.kind == OpKind::Load
            && binding_prefetch
            && !node.on_recurrence
            && !self.is_spill_reload(n)
        {
            lat.load_miss
        } else {
            lat.of(node.kind)
        }
    }

    /// Delay imposed by an edge given the effective producer latency.
    pub fn edge_delay(&self, e: &Edge, lat: &OpLatencies, binding_prefetch: bool) -> i64 {
        match e.kind {
            DepKind::Flow => self.producer_latency(e.src, lat, binding_prefetch) as i64,
            DepKind::Anti => 0,
            DepKind::Output | DepKind::Mem => 1,
        }
    }

    /// The register bank the value defined by `n` lives in, given the cluster
    /// the node was assigned to. Returns `None` for nodes that define no
    /// value (stores).
    pub fn def_bank(&self, n: NodeId, cluster: u32) -> Option<BankAssignment> {
        let kind = self.ddg.node(n).kind;
        if !kind.defines_value() {
            return None;
        }
        if self.hierarchical {
            match kind {
                OpKind::Load => Some(BankAssignment::Shared),
                OpKind::StoreR => Some(BankAssignment::Shared),
                _ => Some(BankAssignment::Cluster(cluster)),
            }
        } else {
            Some(BankAssignment::Cluster(cluster))
        }
    }

    /// Whether an edge between a producer assigned to `src_cluster` and a
    /// consumer assigned to `dst_cluster` requires a communication chain.
    ///
    /// For hierarchical organizations the decision table is:
    /// * producer writes the shared bank (Load, StoreR) and consumer reads
    ///   from it (Store, LoadR) → no communication needed;
    /// * producer writes the shared bank but the consumer is a FU operation
    ///   → a LoadR into the consumer's cluster is needed (normally inserted
    ///   by the memory-interface preprocessing, but it can reappear after
    ///   backtracking removes a chain);
    /// * producer writes a cluster bank and the consumer reads the shared
    ///   bank → a StoreR is needed;
    /// * both are cluster operations → communication is needed exactly when
    ///   they sit in different clusters.
    pub fn needs_communication(&self, edge: &Edge, src_cluster: u32, dst_cluster: u32) -> bool {
        if edge.kind != DepKind::Flow {
            return false;
        }
        let src_kind = self.ddg.node(edge.src).kind;
        let dst_kind = self.ddg.node(edge.dst).kind;
        if self.hierarchical {
            let produced_in_shared = matches!(src_kind, OpKind::Load | OpKind::StoreR);
            let consumed_from_shared = matches!(dst_kind, OpKind::Store | OpKind::LoadR);
            match (produced_in_shared, consumed_from_shared) {
                (true, true) => false,
                (true, false) => true,
                (false, true) => true,
                (false, false) => src_cluster != dst_cluster,
            }
        } else if self.clustered {
            // A `Move` reads its operand from the producer's cluster bank
            // over the bus and writes it into its own (the consumer's)
            // cluster bank, so an edge *into* a Move never needs further
            // communication regardless of clusters.
            if dst_kind == OpKind::Move {
                false
            } else {
                src_cluster != dst_cluster
            }
        } else {
            false
        }
    }

    /// Append a communication or spill node. It joins the `Ddg` detached
    /// (no adjacency lists are created): the scheduler walks its own
    /// active lists, and the order and the memory interface read the `Ddg`
    /// adjacency only on the pristine graph, so the lists would never be
    /// read before the next reset truncates them.
    fn push_node(&mut self, node: Node) -> NodeId {
        let id = self.ddg.add_detached_node(node);
        self.track_node();
        id
    }

    /// Append a memory-interface node: linked, because the pristine graph's
    /// analyses (the priority order) walk the `Ddg` adjacency.
    fn push_linked_node(&mut self, node: Node) -> NodeId {
        let id = self.ddg.add_node(node);
        self.track_node();
        id
    }

    /// The per-node bookkeeping of an appended node.
    fn track_node(&mut self) {
        self.node_active.push(true);
        self.chain_of_node.push(None);
        self.push_node_lists();
    }

    /// Append a communication or spill edge, detached (see
    /// [`WorkGraph::push_node`]).
    fn push_edge(&mut self, edge: Edge) -> EdgeId {
        let id = self.ddg.add_detached_edge(edge);
        self.track_edge(id, edge);
        id
    }

    /// Append a memory-interface edge, linked.
    fn push_linked_edge(&mut self, edge: Edge) -> EdgeId {
        let id = self.ddg.add_edge(edge);
        self.track_edge(id, edge);
        id
    }

    /// The activity and active-adjacency bookkeeping of an appended edge.
    fn track_edge(&mut self, id: EdgeId, edge: Edge) {
        if edge.kind == DepKind::Flow {
            self.pressure_dirty.push(edge.src);
        }
        self.edge_active.push(true);
        // Appended ids are monotonically increasing, so pushing keeps the
        // active lists sorted.
        self.succ_active_edges[edge.src.index()].push(id);
        self.pred_active_edges[edge.dst.index()].push(id);
    }

    /// Remove an id from a sorted active-adjacency list.
    fn detach(list: &mut Vec<EdgeId>, id: EdgeId) {
        match list.binary_search(&id) {
            Ok(pos) => {
                list.remove(pos);
            }
            Err(_) => debug_assert!(false, "active list missing edge {id:?}"),
        }
    }

    /// Re-insert an id into a sorted active-adjacency list at its original
    /// position, so iteration order stays identical to a filtered walk of
    /// the full adjacency.
    fn attach(list: &mut Vec<EdgeId>, id: EdgeId) {
        match list.binary_search(&id) {
            Err(pos) => list.insert(pos, id),
            Ok(_) => debug_assert!(false, "active list already holds edge {id:?}"),
        }
    }

    fn deactivate_edge(&mut self, e: EdgeId) {
        if !self.edge_active[e.index()] {
            // Already inactive (a chain being removed can hold edges another
            // chain replaced earlier): nothing changes, and in particular no
            // lifetime is perturbed.
            return;
        }
        let edge = *self.ddg.edge(e);
        if edge.kind == DepKind::Flow {
            self.pressure_dirty.push(edge.src);
        }
        self.edge_active[e.index()] = false;
        Self::detach(&mut self.succ_active_edges[edge.src.index()], e);
        Self::detach(&mut self.pred_active_edges[edge.dst.index()], e);
    }

    /// Reactivate a previously replaced edge (chain removal).
    fn reactivate_edge(&mut self, e: EdgeId) {
        debug_assert!(!self.edge_active[e.index()]);
        let edge = *self.ddg.edge(e);
        if edge.kind == DepKind::Flow {
            self.pressure_dirty.push(edge.src);
        }
        self.edge_active[e.index()] = true;
        Self::attach(&mut self.succ_active_edges[edge.src.index()], e);
        Self::attach(&mut self.pred_active_edges[edge.dst.index()], e);
    }

    /// Whether any defs are waiting in the pressure-dirty set. The store's
    /// per-pop sync probes this before paying for the buffer swap: most
    /// worklist pops follow no chain rewiring at all.
    #[inline]
    pub fn has_pressure_dirty(&self) -> bool {
        !self.pressure_dirty.is_empty()
    }

    /// Drain the defs whose lifetimes an edge rewiring may have perturbed
    /// since the last drain into `buf` (cleared first); refreshing each in
    /// the pressure tracker is idempotent, so duplicates are harmless. The
    /// graph keeps `buf`'s old backing storage for the next rewiring, so
    /// draining an empty or small dirty set never reallocates on either
    /// side.
    pub fn swap_pressure_dirty(&mut self, buf: &mut Vec<NodeId>) {
        buf.clear();
        std::mem::swap(&mut self.pressure_dirty, buf);
    }

    /// Insert the memory-interface operations for a hierarchical target:
    /// a LoadR after every load whose value is consumed by a FU operation and
    /// a StoreR before every store whose data is produced by a FU operation.
    /// They join the pristine graph, not a chain: no ejection removes them.
    /// The rerouted edges go through one scratch buffer, so rebinding a warm
    /// graph allocates nothing here.
    fn insert_memory_interface(&mut self) {
        let mut rerouted = std::mem::take(&mut self.interface_edges);
        for i in 0..self.ddg.num_nodes() as u32 {
            let n = NodeId(i);
            let is_load = match self.ddg.node(n).kind {
                OpKind::Load => true,
                OpKind::Store => false,
                _ => continue,
            };
            // Loads reroute their consumers that need the value in a cluster
            // bank; stores their producers that hold it in one.
            let (ids, far_kind) = if is_load {
                (self.ddg.succ_edge_ids(n), OpKind::Store)
            } else {
                (self.ddg.pred_edge_ids(n), OpKind::Load)
            };
            rerouted.clear();
            rerouted.extend(
                ids.iter()
                    .map(|&id| (id, *self.ddg.edge(id)))
                    .filter(|(id, e)| {
                        let far = if is_load { e.dst } else { e.src };
                        self.edge_active[id.index()]
                            && e.kind == DepKind::Flow
                            && self.ddg.node(far).kind != far_kind
                    }),
            );
            if rerouted.is_empty() {
                continue;
            }
            let kind = if is_load {
                OpKind::LoadR
            } else {
                OpKind::StoreR
            };
            let op = self.push_linked_node(Node::new(kind));
            if is_load {
                self.push_linked_edge(flow(n, op, 0));
            }
            for &(orig, e) in &rerouted {
                self.deactivate_edge(orig);
                let (src, dst) = if is_load { (op, e.dst) } else { (e.src, op) };
                self.push_linked_edge(flow(src, dst, e.distance));
            }
            if !is_load {
                self.push_linked_edge(flow(op, n, 0));
            }
        }
        self.interface_edges = rerouted;
    }

    /// Insert inter-cluster communication for `edge_id` (a flow dependence
    /// whose producer and consumer live in different clusters), appending
    /// the newly inserted nodes that must be scheduled to `out`, in
    /// dependence order.
    ///
    /// `owner` is the node currently being scheduled (ejecting it undoes the
    /// chain). For hierarchical organizations the chain is StoreR (producer
    /// cluster) + LoadR (consumer cluster) — or just a LoadR when the value
    /// already lives in the shared bank, and no LoadR when the consumer
    /// reads the shared bank. For clustered organizations the chain is a
    /// single bus `Move`.
    ///
    /// A spill of a cluster-bank value into the shared bank is the same
    /// chain: no consumer of a cluster-bank value reads the shared bank
    /// (the memory interface gives every store fed from a cluster a StoreR,
    /// and only shared-bank values feed a LoadR), so the chain reloads it
    /// with a LoadR.
    pub fn insert_communication_into(
        &mut self,
        owner: NodeId,
        edge_id: EdgeId,
        out: &mut Vec<NodeId>,
    ) {
        self.insert_chain(owner, edge_id, out, |w, edge| {
            if !w.hierarchical {
                let mv = w.push_node(Node::new(OpKind::Move));
                w.push_edge(flow(edge.src, mv, 0));
                w.push_edge(flow(mv, edge.dst, edge.distance));
                return;
            }
            let shared_src = if matches!(w.ddg.node(edge.src).kind, OpKind::Load | OpKind::StoreR) {
                edge.src
            } else if let Some(sr) = w.existing_storer_for(edge.src) {
                // The paper inserts only one StoreR per multi-consumed value.
                sr
            } else {
                let sr = w.push_node(Node::new(OpKind::StoreR));
                w.push_edge(flow(edge.src, sr, 0));
                sr
            };
            let final_src = if matches!(w.ddg.node(edge.dst).kind, OpKind::Store | OpKind::LoadR) {
                shared_src
            } else {
                let lr = w.push_node(Node::new(OpKind::LoadR));
                w.push_edge(flow(shared_src, lr, 0));
                lr
            };
            w.push_edge(flow(final_src, edge.dst, edge.distance));
        });
    }

    /// Find an active StoreR already fed by `producer` (for StoreR reuse).
    pub fn existing_storer_for(&self, producer: NodeId) -> Option<NodeId> {
        self.active_succ_edges(producer)
            .filter(|(_, e)| e.kind == DepKind::Flow)
            .map(|(_, e)| e.dst)
            .find(|&n| self.is_active(n) && self.ddg.node(n).kind == OpKind::StoreR)
    }

    /// Insert a spill of the value defined by `def` to memory: a store after
    /// the definition and a reload before the consumer reached through
    /// `edge_id`. This is the spill used by monolithic and clustered
    /// organizations, and by the shared bank when it overflows. The new
    /// nodes (store, then reload) are appended to `out`.
    pub fn insert_spill_to_memory_into(
        &mut self,
        owner: NodeId,
        edge_id: EdgeId,
        out: &mut Vec<NodeId>,
    ) {
        self.insert_chain(owner, edge_id, out, |w, edge| {
            let access = MemAccess {
                base: w.next_spill_base,
                offset: 0,
                stride: 0,
                size: 8,
            };
            w.next_spill_base += 1;
            let mut store = Node::new(OpKind::Store);
            store.mem = Some(access);
            let st = w.push_node(store);
            let mut load = Node::new(OpKind::Load);
            load.mem = Some(access);
            let ld = w.push_node(load);
            w.push_edge(flow(edge.src, st, 0));
            w.push_edge(Edge {
                src: st,
                dst: ld,
                kind: DepKind::Mem,
                distance: 0,
            });
            w.push_edge(flow(ld, edge.dst, edge.distance));
        });
    }

    /// The one insertion path of every chain: deactivate the `replaced`
    /// edge, let `route` append the chain's nodes and edges, then record the
    /// appended id ranges, index the chain and append its nodes to `out`.
    fn insert_chain(
        &mut self,
        owner: NodeId,
        replaced: EdgeId,
        out: &mut Vec<NodeId>,
        route: impl FnOnce(&mut Self, Edge),
    ) {
        debug_assert!(self.edge_active[replaced.index()]);
        self.topo_version += 1;
        self.deactivate_edge(replaced);
        let edge = *self.ddg.edge(replaced);
        let (nodes, edges) = (self.ddg.num_nodes() as u32, self.ddg.num_edges() as u32);
        route(self, edge);
        let chain = CommChain {
            owner,
            replaced,
            nodes: (nodes, self.ddg.num_nodes() as u32),
            edges: (edges, self.ddg.num_edges() as u32),
            active: true,
        };
        let id = self.chains.len() as u32;
        for n in chain.nodes() {
            self.chain_of_node[n.index()] = Some(id);
            out.push(n);
        }
        // Chain ids only grow, so every index list stays ascending.
        for t in self.touched(&chain).into_iter().flatten() {
            self.chains_touching[t.index()].push(id);
        }
        self.chains.push(chain);
    }

    /// The nodes whose ejection removes `chain`: its owner and the endpoints
    /// of the edge it replaced, each once.
    fn touched(&self, chain: &CommChain) -> [Option<NodeId>; 3] {
        let (o, e) = (chain.owner, self.ddg.edge(chain.replaced));
        let (s, d) = (e.src, e.dst);
        [
            Some(o),
            (s != o).then_some(s),
            (d != o && d != s).then_some(d),
        ]
    }

    /// Append to `out` the chains that are removed when `node` is ejected —
    /// every active chain owned by `node` or whose replaced edge touches it
    /// — in ascending chain order. Served from the per-node index built at
    /// insertion, so ejection storms pay O(chains touching the node).
    pub fn chains_to_remove_into(&self, node: NodeId, out: &mut Vec<usize>) {
        out.extend(
            self.chains_touching[node.index()]
                .iter()
                .map(|&id| id as usize)
                .filter(|&id| self.chains[id].active),
        );
    }

    /// The active chain an inserted node belongs to, if any. O(1): chains
    /// never share nodes, so membership is indexed at insertion.
    pub fn chain_containing(&self, node: NodeId) -> Option<usize> {
        self.chain_of_node[node.index()]
            .map(|id| id as usize)
            .filter(|&id| self.chains[id].active)
    }

    /// Owner of a chain (the node whose scheduling caused the insertion).
    pub fn chain_owner(&self, chain: usize) -> NodeId {
        self.chains[chain].owner
    }

    /// Deactivate one chain, reactivating the edge it replaced, and append
    /// the deactivated nodes to `out`. A reused StoreR belongs to the chain
    /// that appended it, so it stays active.
    pub fn remove_chain_into(&mut self, chain: usize, out: &mut Vec<NodeId>) {
        let c = self.chains[chain];
        if !c.active {
            return;
        }
        self.topo_version += 1;
        self.chains[chain].active = false;
        // Unindex the (now permanently dead) chain from the nodes it
        // touched; the lists hold ascending chain ids, so the removal keeps
        // `chains_to_remove_into`'s ascending enumeration intact.
        let id = chain as u32;
        for t in self.touched(&c).into_iter().flatten() {
            let list = &mut self.chains_touching[t.index()];
            match list.binary_search(&id) {
                Ok(pos) => {
                    list.remove(pos);
                }
                Err(_) => debug_assert!(false, "chain {id} missing from touch index"),
            }
        }
        for n in c.nodes() {
            self.node_active[n.index()] = false;
        }
        for e in c.edges() {
            self.deactivate_edge(e);
        }
        self.reactivate_edge(c.replaced);
        out.extend(c.nodes());
    }

    /// Counts of inserted operations currently active, by kind:
    /// `(loadr, storer, moves, spill_loads, spill_stores)`.
    pub fn inserted_counts(&self) -> (u32, u32, u32, u32, u32) {
        let mut loadr = 0;
        let mut storer = 0;
        let mut moves = 0;
        let mut spill_loads = 0;
        let mut spill_stores = 0;
        for n in self.active_nodes() {
            if !self.is_inserted(n) {
                continue;
            }
            match self.ddg.node(n).kind {
                OpKind::LoadR => loadr += 1,
                OpKind::StoreR => storer += 1,
                OpKind::Move => moves += 1,
                OpKind::Load => spill_loads += 1,
                OpKind::Store => spill_stores += 1,
                _ => {}
            }
        }
        (loadr, storer, moves, spill_loads, spill_stores)
    }

    /// Total number of active memory operations (original + spill).
    pub fn active_memory_ops(&self) -> u32 {
        self.active_nodes()
            .filter(|&n| self.ddg.node(n).kind.is_memory())
            .count() as u32
    }
}

/// A flow dependence.
fn flow(src: NodeId, dst: NodeId, distance: u32) -> Edge {
    Edge {
        src,
        dst,
        kind: DepKind::Flow,
        distance,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcrf_ir::DdgBuilder;

    fn simple_loop() -> Ddg {
        // ld a; ld b; mul; add; st
        let mut b = DdgBuilder::new("simple");
        let la = b.load(0, 8);
        let lb = b.load(1, 8);
        let m = b.op(OpKind::FMul);
        let a = b.op(OpKind::FAdd);
        let s = b.store(2, 8);
        b.flow(la, m, 0);
        b.flow(lb, a, 0);
        b.flow(m, a, 0);
        b.flow(a, s, 0);
        b.build()
    }

    fn machine(cfg: &str) -> MachineConfig {
        MachineConfig::paper_baseline(RfOrganization::parse(cfg).unwrap())
    }

    fn insert_communication(w: &mut WorkGraph, owner: NodeId, edge_id: EdgeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        w.insert_communication_into(owner, edge_id, &mut out);
        out
    }

    /// Remove every chain an ejection of `node` removes, the way the
    /// placement store's `eject` does; returns the deactivated nodes.
    fn remove_chains_for(w: &mut WorkGraph, node: NodeId) -> Vec<NodeId> {
        let mut chains = Vec::new();
        w.chains_to_remove_into(node, &mut chains);
        let mut removed = Vec::new();
        for chain in chains {
            w.remove_chain_into(chain, &mut removed);
        }
        removed
    }

    #[test]
    fn monolithic_does_not_touch_the_graph() {
        let g = simple_loop();
        let w = WorkGraph::new(&g, &machine("S128"));
        assert_eq!(w.active_count(), 5);
        assert_eq!(w.active_memory_ops(), 3);
    }

    #[test]
    fn hierarchical_preprocessing_adds_interface_ops() {
        let g = simple_loop();
        let w = WorkGraph::new(&g, &machine("4C16S64"));
        // 2 loads feeding FU ops -> 2 LoadR; 1 store fed by a FU op -> 1 StoreR
        let (loadr, storer, moves, sl, ss) = w.inserted_counts();
        assert_eq!(loadr, 2);
        assert_eq!(storer, 1);
        assert_eq!(moves, 0);
        assert_eq!(sl, 0);
        assert_eq!(ss, 0);
        assert_eq!(w.active_count(), 8);
        // memory op count unchanged
        assert_eq!(w.active_memory_ops(), 3);
    }

    #[test]
    fn clustered_move_insertion_and_undo() {
        let g = simple_loop();
        let mut w = WorkGraph::new(&g, &machine("2C64"));
        // find the mul -> add edge
        let edge_id = w
            .ddg
            .edges()
            .find(|(_, e)| {
                w.ddg.node(e.src).kind == OpKind::FMul && w.ddg.node(e.dst).kind == OpKind::FAdd
            })
            .map(|(id, _)| id)
            .unwrap();
        let owner = w.ddg.edge(edge_id).dst;
        let new_nodes = insert_communication(&mut w, owner, edge_id);
        assert_eq!(new_nodes.len(), 1);
        assert_eq!(w.ddg.node(new_nodes[0]).kind, OpKind::Move);
        assert!(!w.edge_is_active(edge_id));
        assert_eq!(w.active_count(), 6);
        // undo by ejecting the owner
        let removed = remove_chains_for(&mut w, owner);
        assert_eq!(removed, new_nodes);
        assert!(w.edge_is_active(edge_id));
        assert_eq!(w.active_count(), 5);
    }

    #[test]
    fn hierarchical_comm_inserts_storer_loadr_and_reuses_storer() {
        let mut b = DdgBuilder::new("fanout");
        let p = b.op(OpKind::FMul);
        let c1 = b.op(OpKind::FAdd);
        let c2 = b.op(OpKind::FAdd);
        b.flow(p, c1, 0);
        b.flow(p, c2, 0);
        let g = b.build();
        let mut w = WorkGraph::new(&g, &machine("4C16S64"));
        let e1 = w
            .ddg
            .edges()
            .find(|(_, e)| e.src == p && e.dst == c1)
            .map(|(id, _)| id)
            .unwrap();
        let n1 = insert_communication(&mut w, c1, e1);
        // first chain: StoreR + LoadR
        assert_eq!(n1.len(), 2);
        let e2 = w
            .ddg
            .edges()
            .find(|(id, e)| w.edge_is_active(*id) && e.src == p && e.dst == c2)
            .map(|(id, _)| id)
            .unwrap();
        let n2 = insert_communication(&mut w, c2, e2);
        // second chain reuses the StoreR: only a LoadR is added
        assert_eq!(n2.len(), 1);
        assert_eq!(w.ddg.node(n2[0]).kind, OpKind::LoadR);
    }

    #[test]
    fn removing_a_chain_deactivates_exactly_its_own_nodes() {
        // p feeds c1 and c2 from other clusters; q's value spills to the
        // shared bank on its way to r, as `check_and_spill` inserts it.
        let mut b = DdgBuilder::new("remove");
        let p = b.op(OpKind::FMul);
        let c1 = b.op(OpKind::FAdd);
        let c2 = b.op(OpKind::FAdd);
        let q = b.op(OpKind::FMul);
        let r = b.op(OpKind::FAdd);
        b.flow(p, c1, 0).flow(p, c2, 0).flow(q, r, 2);
        let g = b.build();
        let mut w = WorkGraph::new(&g, &machine("4C16S64"));
        let edge = |w: &WorkGraph, src, dst| {
            w.active_succ_edges(src)
                .find(|(_, e)| e.dst == dst)
                .map(|(id, _)| id)
                .unwrap()
        };
        let (e1, e2, e3) = (edge(&w, p, c1), edge(&w, p, c2), edge(&w, q, r));
        let first = insert_communication(&mut w, c1, e1);
        let reuse = insert_communication(&mut w, c2, e2);
        let spill = insert_communication(&mut w, r, e3);
        let storer = first[0];
        assert_eq!(reuse.len(), 1, "the second chain reuses the StoreR");
        assert_eq!(spill.len(), 2, "StoreR + LoadR");
        let active = w.active_count();

        // The reuse chain appended one node and two edges; removing it
        // leaves the StoreR (and the first chain) active.
        assert_eq!(remove_chains_for(&mut w, c2), reuse);
        assert!(!w.is_active(reuse[0]));
        assert!(first.iter().all(|&n| w.is_active(n)));
        assert!(w.edge_is_active(e2));
        let storer_succs: Vec<NodeId> = w.active_succ_edges(storer).map(|(_, e)| e.dst).collect();
        assert_eq!(storer_succs, vec![first[1]]);
        let c2_preds: Vec<EdgeId> = w.active_pred_edges(c2).map(|(id, _)| id).collect();
        assert_eq!(c2_preds, vec![e2]);
        assert_eq!(w.active_count(), active - 1);

        // The spill chain's two nodes and three edges go; `q -> r` is back
        // with its distance.
        assert_eq!(remove_chains_for(&mut w, q), spill);
        assert!(spill.iter().all(|&n| !w.is_active(n)));
        assert!(w.active_succ_edges(spill[0]).next().is_none());
        let r_preds: Vec<EdgeId> = w.active_pred_edges(r).map(|(id, _)| id).collect();
        assert_eq!(r_preds, vec![e3]);
        assert_eq!(w.ddg.edge(e3).distance, 2);
        assert!(first.iter().all(|&n| w.is_active(n)));
        assert_eq!(w.active_count(), active - 3);
    }

    #[test]
    fn load_value_to_other_cluster_needs_only_loadr() {
        let g = simple_loop();
        let mut w = WorkGraph::new(&g, &machine("4C16S64"));
        // After preprocessing the mul consumes from a LoadR; a second consumer
        // cluster would read straight from the load (shared bank).
        // Simulate by requesting comm on the LoadR -> mul edge.
        let (edge_id, _) = w
            .ddg
            .edges()
            .find(|(id, e)| {
                w.edge_is_active(*id)
                    && w.ddg.node(e.src).kind == OpKind::LoadR
                    && w.ddg.node(e.dst).kind == OpKind::FMul
            })
            .map(|(id, e)| (id, *e))
            .unwrap();
        let owner = w.ddg.edge(edge_id).dst;
        let nodes = insert_communication(&mut w, owner, edge_id);
        // LoadR is not a shared-bank producer, so the chain is StoreR + LoadR;
        // (a smarter scheduler would reload from the original Load, but the
        // conservative chain is still correct).
        assert!(!nodes.is_empty());
    }

    #[test]
    fn spill_to_memory_adds_traffic() {
        let g = simple_loop();
        let mut w = WorkGraph::new(&g, &machine("S32"));
        let edge_id = w
            .ddg
            .edges()
            .find(|(_, e)| {
                w.ddg.node(e.src).kind == OpKind::FMul && w.ddg.node(e.dst).kind == OpKind::FAdd
            })
            .map(|(id, _)| id)
            .unwrap();
        let owner = w.ddg.edge(edge_id).dst;
        let before = w.active_memory_ops();
        let mut nodes = Vec::new();
        w.insert_spill_to_memory_into(owner, edge_id, &mut nodes);
        assert_eq!(nodes.len(), 2);
        assert_eq!(w.active_memory_ops(), before + 2);
        let (_, _, _, sl, ss) = w.inserted_counts();
        assert_eq!((sl, ss), (1, 1));
        assert!(w.is_spill_reload(nodes[1]));
    }

    #[test]
    fn mem_interface_chains_survive_ejection() {
        let g = simple_loop();
        let mut w = WorkGraph::new(&g, &machine("4C16S64"));
        let before = w.active_count();
        // Ejecting the multiply must not remove the interface LoadR.
        let removed = remove_chains_for(&mut w, NodeId(2));
        assert!(removed.is_empty());
        assert_eq!(w.active_count(), before);
    }
}
