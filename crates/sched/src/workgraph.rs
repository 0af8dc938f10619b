//! The scheduler's working graph: the original dependence graph plus the
//! communication and spill operations inserted while scheduling, with enough
//! bookkeeping to undo insertions when backtracking ejects a node.

use crate::types::BankAssignment;
use hcrf_ir::{Ddg, DepKind, Edge, EdgeId, MemAccess, Node, NodeId, OpKind, OpLatencies};
use hcrf_machine::{MachineConfig, RfOrganization};

/// Why a chain of operations was inserted into the working graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChainKind {
    /// LoadR/StoreR inserted up-front so memory operations talk to the shared
    /// bank (hierarchical organizations only). Never removed by ejection.
    MemInterface,
    /// Inter-cluster communication through the shared bank (StoreR + LoadR).
    CommHierarchical,
    /// Inter-cluster communication through a bus (`Move`).
    CommClustered,
    /// Spill of a cluster-bank value into the shared bank.
    SpillToShared,
    /// Spill of a value to memory (adds memory traffic).
    SpillToMemory,
}

/// A group of operations inserted together (and removed together).
#[derive(Debug, Clone)]
pub struct CommChain {
    /// Why the chain exists.
    pub kind: ChainKind,
    /// Node whose scheduling caused the insertion (ejecting it removes the
    /// chain, except for `MemInterface` chains).
    pub owner: NodeId,
    /// The original edges the chain replaced (re-activated on removal).
    pub replaced_edges: Vec<EdgeId>,
    /// Nodes added by the chain.
    pub nodes: Vec<NodeId>,
    /// Edges added by the chain.
    pub edges: Vec<EdgeId>,
    /// Nodes whose `chains_touching` index lists this chain (owner plus
    /// replaced-edge endpoints); remembered so removal can unindex them
    /// without rescanning the replaced edges.
    pub touched: Vec<NodeId>,
    /// Whether the chain is currently active.
    pub active: bool,
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
    /// Marks nodes that are spill reloads (scheduled with hit latency even
    /// under binding prefetching).
    spill_reload: Vec<bool>,
    chains: Vec<CommChain>,
    original_nodes: usize,
    original_mem_ops: usize,
    hierarchical: bool,
    clustered: bool,
    /// Spill memory accesses use a dedicated array id so the cache simulator
    /// can distinguish them.
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
    /// Chain that contains each (inserted) node, `None` for original nodes.
    /// Chains never share nodes, so membership is unique; readers must still
    /// check the chain's `active` flag.
    chain_of_node: Vec<Option<u32>>,
    /// Per node, the removable chains whose owner it is or whose replaced
    /// edges touch it — the set [`WorkGraph::chains_to_remove_into`] must
    /// enumerate. Indexed at insertion so the ejection path pays O(chains
    /// touching the node) instead of scanning every chain ever inserted
    /// (ejection storms query this hundreds of thousands of times per
    /// attempt). `MemInterface` chains are never removable and are not
    /// indexed.
    chains_touching: Vec<Vec<u32>>,
    /// Bumped on every change to the edge/node topology (chain insertion or
    /// removal). Lets the scheduler detect that a snapshot of a node's
    /// neighbourhood taken before an ejection cascade is still valid — the
    /// cascade can only *unplace* nodes unless it also removed a chain,
    /// which reactivates replaced edges and shows up here.
    topo_version: u64,
    /// Snapshot taken by [`WorkGraph::mark_pristine`]: the graph state right
    /// after construction (loop body + memory-interface chains), before any
    /// communication or spill chain of an II attempt. `None` until marked.
    pristine: Option<PristineMark>,
    /// Spent [`CommChain`]s recycled by [`WorkGraph::reset_to_pristine`];
    /// chain insertion pops from here so the per-attempt insert/reset cycle
    /// stops allocating (churn-heavy ladders insert tens of thousands of
    /// chains per schedule).
    chain_pool: Vec<CommChain>,
    /// Recycled active-adjacency lists of truncated nodes, in the order
    /// [`WorkGraph::push_node`] pops them (see `resize_node_lists`).
    edge_list_pool: Vec<Vec<EdgeId>>,
    /// Recycled `chains_touching` lists of truncated nodes.
    chain_index_pool: Vec<Vec<u32>>,
    /// Scratch of `insert_memory_interface`: the edges one memory op's
    /// LoadR/StoreR takes over.
    interface_edges: Vec<(EdgeId, Edge)>,
}

/// What [`WorkGraph::reset_to_pristine`] needs to restore: every container of
/// the working graph is append-only between attempts (nodes, edges, chains),
/// except `edge_active` and the sorted active-adjacency lists, whose pristine
/// prefixes can be flipped both ways by chain insertion/removal and are
/// therefore snapshotted wholesale.
#[derive(Debug, Clone, Default)]
struct PristineMark {
    nodes: usize,
    edges: usize,
    chains: usize,
    edge_active: Vec<bool>,
    succ_active_edges: FlatLists,
    pred_active_edges: FlatLists,
    next_spill_base: u32,
}

/// Per-node edge-id lists stored back to back: node `i`'s list is
/// `ids[start[i]..start[i + 1]]`. Refilling it reuses its two vectors, so
/// re-marking the pristine snapshot allocates nothing at steady state.
#[derive(Debug, Clone, Default)]
struct FlatLists {
    start: Vec<u32>,
    ids: Vec<EdgeId>,
}

impl FlatLists {
    fn fill_from(&mut self, lists: &[Vec<EdgeId>]) {
        self.start.clear();
        self.ids.clear();
        self.start.push(0);
        for l in lists {
            self.ids.extend_from_slice(l);
            self.start.push(self.ids.len() as u32);
        }
    }

    fn get(&self, i: usize) -> &[EdgeId] {
        &self.ids[self.start[i] as usize..self.start[i + 1] as usize]
    }
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

    /// Snapshot the current state as the *pristine* baseline
    /// [`WorkGraph::reset_to_pristine`] restores. Call right after
    /// construction, before any communication/spill insertion: the pristine
    /// graph is the loop body plus the permanent memory-interface chains.
    /// Re-marking (after a rebind) refills the existing snapshot in place.
    pub fn mark_pristine(&mut self) {
        debug_assert_eq!(
            self.ddg.num_linked_edges(),
            self.ddg.num_edges(),
            "the pristine graph is linked"
        );
        let mark = self.pristine.get_or_insert_with(PristineMark::default);
        mark.nodes = self.ddg.num_nodes();
        mark.edges = self.ddg.num_edges();
        mark.chains = self.chains.len();
        mark.edge_active.clone_from(&self.edge_active);
        mark.succ_active_edges.fill_from(&self.succ_active_edges);
        mark.pred_active_edges.fill_from(&self.pred_active_edges);
        mark.next_spill_base = self.next_spill_base;
    }

    /// Re-target this working graph at a *different* loop (and possibly a
    /// different machine), reusing every allocation the previous binding
    /// grew: the cloned dependence graph (adjacency lists included), the
    /// activity vectors, the sorted active-adjacency lists, the per-node
    /// chain indices and the chains themselves, which go back to the chain
    /// pool for the memory interface to refill. [`WorkGraph::new`] is this
    /// on an empty graph; the pooled [`crate::arena::AttemptArena`] calls
    /// it once per loop instead of building a fresh graph, then re-marks
    /// the pristine snapshot.
    ///
    /// The existing pristine mark (if any) describes the *previous* binding
    /// and is left untouched; callers must call [`WorkGraph::mark_pristine`]
    /// before the first reset, exactly as after `new`.
    pub fn rebind(&mut self, original: &Ddg, machine: &MachineConfig) {
        // The last attempt's communication and spill nodes are detached, so
        // `clone_from` parks at most the pristine graph's adjacency lists,
        // which the memory interface below takes back.
        self.ddg.clone_from(original);
        let n = original.num_nodes();
        self.resize_node_lists(n);
        for (i, list) in self.succ_active_edges.iter_mut().enumerate() {
            list.clear();
            list.extend_from_slice(original.succ_edge_ids(NodeId(i as u32)));
        }
        for (i, list) in self.pred_active_edges.iter_mut().enumerate() {
            list.clear();
            list.extend_from_slice(original.pred_edge_ids(NodeId(i as u32)));
        }
        for touched in &mut self.chains_touching {
            touched.clear();
        }
        self.node_active.clear();
        self.node_active.resize(n, true);
        self.edge_active.clear();
        self.edge_active.resize(original.num_edges(), true);
        self.spill_reload.clear();
        self.spill_reload.resize(n, false);
        self.recycle_chains(0);
        self.original_nodes = n;
        self.original_mem_ops = original.memory_ops();
        self.hierarchical = machine.rf.is_hierarchical();
        self.clustered = matches!(machine.rf, RfOrganization::Clustered { .. });
        self.next_spill_base = 1 << 16;
        self.pressure_dirty.clear();
        self.chain_of_node.clear();
        self.chain_of_node.resize(n, None);
        self.topo_version += 1;
        if self.hierarchical {
            self.insert_memory_interface();
        }
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

    /// Move the chains from index `from` on to the chain pool, emptied, the
    /// last chain first so [`WorkGraph::take_chain`] hands chain `from` its
    /// former shell back.
    fn recycle_chains(&mut self, from: usize) {
        for mut c in self.chains.drain(from..).rev() {
            c.replaced_edges.clear();
            c.nodes.clear();
            c.edges.clear();
            c.touched.clear();
            self.chain_pool.push(c);
        }
    }

    /// Undo every insertion since [`WorkGraph::mark_pristine`]: truncate the
    /// appended nodes/edges/chains, restore the snapshotted edge activity
    /// (chains can deactivate — and their removal reactivate — *pristine*
    /// edges) and clear the per-attempt scratch. After this the graph is
    /// indistinguishable from a freshly built one except for the monotonic
    /// `topo_version` (never compared across attempts).
    ///
    /// Pristine per-node state needs no restore beyond truncation:
    /// `node_active` is only cleared for *inserted* chain members
    /// (`MemInterface` chains are never removed), `spill_reload` is only set
    /// on inserted spill reloads, and `chain_of_node` entries of pristine
    /// nodes are written once at interface insertion. `chains_touching` is
    /// the one pristine-indexed container removable chains write into, so
    /// its lists are cleared outright (pristine `MemInterface` chains are
    /// never indexed there).
    pub fn reset_to_pristine(&mut self) {
        let mark = self.pristine.as_ref().expect("mark_pristine not called");
        let (nodes, edges, chains) = (mark.nodes, mark.edges, mark.chains);
        self.topo_version += 1;
        self.recycle_chains(chains);
        self.resize_node_lists(nodes);
        self.ddg.truncate(nodes, edges);
        self.node_active.truncate(nodes);
        debug_assert!(self.node_active.iter().all(|a| *a));
        self.spill_reload.truncate(nodes);
        debug_assert!(self.spill_reload.iter().all(|s| !*s));
        self.chain_of_node.truncate(nodes);
        for touched in &mut self.chains_touching {
            touched.clear();
        }
        let mark = self.pristine.as_ref().expect("marked");
        self.edge_active.truncate(edges);
        self.edge_active.copy_from_slice(&mark.edge_active);
        for (i, cur) in self.succ_active_edges.iter_mut().enumerate() {
            cur.clear();
            cur.extend_from_slice(mark.succ_active_edges.get(i));
        }
        for (i, cur) in self.pred_active_edges.iter_mut().enumerate() {
            cur.clear();
            cur.extend_from_slice(mark.pred_active_edges.get(i));
        }
        self.next_spill_base = mark.next_spill_base;
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

    /// Whether a node is a spill reload (load re-reading a spilled value).
    pub fn is_spill_reload(&self, n: NodeId) -> bool {
        self.spill_reload[n.index()]
    }

    /// Whether the node was inserted by the scheduler (not part of the
    /// original body).
    pub fn is_inserted(&self, n: NodeId) -> bool {
        n.index() >= self.original_nodes
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
            && !self.spill_reload[n.index()]
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
        self.spill_reload.push(false);
        self.chain_of_node.push(None);
        self.push_node_lists();
    }

    /// A fresh (or recycled) chain shell with empty member lists, ready for
    /// one of the insertion paths to fill and [`WorkGraph::push_chain`].
    fn take_chain(&mut self, kind: ChainKind, owner: NodeId) -> CommChain {
        match self.chain_pool.pop() {
            Some(mut c) => {
                debug_assert!(
                    c.replaced_edges.is_empty()
                        && c.nodes.is_empty()
                        && c.edges.is_empty()
                        && c.touched.is_empty()
                );
                c.kind = kind;
                c.owner = owner;
                c.active = true;
                c
            }
            None => CommChain {
                kind,
                owner,
                replaced_edges: Vec::new(),
                nodes: Vec::new(),
                edges: Vec::new(),
                touched: Vec::new(),
                active: true,
            },
        }
    }

    /// Register a chain, indexing its member nodes and — for removable
    /// chains — the nodes whose ejection must remove it. The touched-node
    /// set is remembered on the chain so removal can unindex it again
    /// (leaving dead chain ids in the index would make the ejection path
    /// O(insertion history) at hub nodes during eject/insert storms).
    fn push_chain(&mut self, mut chain: CommChain) {
        let id = self.chains.len() as u32;
        for n in &chain.nodes {
            debug_assert!(self.chain_of_node[n.index()].is_none());
            self.chain_of_node[n.index()] = Some(id);
        }
        if chain.kind != ChainKind::MemInterface {
            debug_assert!(chain.touched.is_empty());
            chain.touched.push(chain.owner);
            for e in &chain.replaced_edges {
                let edge = self.ddg.edge(*e);
                chain.touched.push(edge.src);
                chain.touched.push(edge.dst);
            }
            chain.touched.sort_unstable_by_key(|n| n.index());
            chain.touched.dedup();
            for t in &chain.touched {
                self.chains_touching[t.index()].push(id);
            }
        }
        self.chains.push(chain);
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
    /// Chains come from the pool and the rerouted edges go through one
    /// scratch buffer, so rebinding a warm graph allocates nothing here.
    fn insert_memory_interface(&mut self) {
        let mut rerouted = std::mem::take(&mut self.interface_edges);
        for i in 0..self.ddg.num_nodes() as u32 {
            let n = NodeId(i);
            rerouted.clear();
            match self.ddg.node(n).kind {
                OpKind::Load => {
                    // Consumers that need the value in a cluster bank.
                    rerouted.extend(
                        self.ddg
                            .succ_edges(n)
                            .filter(|(id, e)| {
                                self.edge_active[id.index()]
                                    && e.kind == DepKind::Flow
                                    && !matches!(self.ddg.node(e.dst).kind, OpKind::Store)
                            })
                            .map(|(id, e)| (id, *e)),
                    );
                    if rerouted.is_empty() {
                        continue;
                    }
                    let ldr = self.push_linked_node(Node::new(OpKind::LoadR));
                    let mut ch = self.take_chain(ChainKind::MemInterface, n);
                    ch.nodes.push(ldr);
                    ch.edges.push(self.push_linked_edge(Edge {
                        src: n,
                        dst: ldr,
                        kind: DepKind::Flow,
                        distance: 0,
                    }));
                    for &(orig, e) in &rerouted {
                        self.deactivate_edge(orig);
                        ch.replaced_edges.push(orig);
                        ch.edges.push(self.push_linked_edge(Edge {
                            src: ldr,
                            dst: e.dst,
                            kind: DepKind::Flow,
                            distance: e.distance,
                        }));
                    }
                    self.push_chain(ch);
                }
                OpKind::Store => {
                    rerouted.extend(
                        self.ddg
                            .pred_edges(n)
                            .filter(|(id, e)| {
                                self.edge_active[id.index()]
                                    && e.kind == DepKind::Flow
                                    && !matches!(self.ddg.node(e.src).kind, OpKind::Load)
                            })
                            .map(|(id, e)| (id, *e)),
                    );
                    if rerouted.is_empty() {
                        continue;
                    }
                    let str_node = self.push_linked_node(Node::new(OpKind::StoreR));
                    let mut ch = self.take_chain(ChainKind::MemInterface, n);
                    ch.nodes.push(str_node);
                    for &(orig, e) in &rerouted {
                        self.deactivate_edge(orig);
                        ch.replaced_edges.push(orig);
                        ch.edges.push(self.push_linked_edge(Edge {
                            src: e.src,
                            dst: str_node,
                            kind: DepKind::Flow,
                            distance: e.distance,
                        }));
                    }
                    ch.edges.push(self.push_linked_edge(Edge {
                        src: str_node,
                        dst: n,
                        kind: DepKind::Flow,
                        distance: 0,
                    }));
                    self.push_chain(ch);
                }
                _ => {}
            }
        }
        self.interface_edges = rerouted;
    }

    /// Insert inter-cluster communication for `edge` (a flow dependence whose
    /// producer and consumer live in different clusters), appending the newly
    /// inserted nodes that must be scheduled to `out`, in dependence order.
    ///
    /// `owner` is the node currently being scheduled (ejecting it undoes the
    /// chain). For hierarchical organizations the chain is StoreR (producer
    /// cluster) + LoadR (consumer cluster) — or just a LoadR when the value
    /// already lives in the shared bank. For clustered organizations the
    /// chain is a single bus `Move`.
    pub fn insert_communication_into(
        &mut self,
        owner: NodeId,
        edge_id: EdgeId,
        out: &mut Vec<NodeId>,
    ) {
        self.topo_version += 1;
        let edge = *self.ddg.edge(edge_id);
        debug_assert!(self.edge_active[edge_id.index()]);
        if self.hierarchical {
            self.insert_hier_communication(owner, edge_id, edge, out);
        } else {
            self.insert_move_communication(owner, edge_id, edge, out);
        }
    }

    fn insert_hier_communication(
        &mut self,
        owner: NodeId,
        edge_id: EdgeId,
        edge: Edge,
        out: &mut Vec<NodeId>,
    ) {
        let src_kind = self.ddg.node(edge.src).kind;
        let produced_in_shared = matches!(src_kind, OpKind::Load | OpKind::StoreR);
        let consumed_from_shared =
            matches!(self.ddg.node(edge.dst).kind, OpKind::Store | OpKind::LoadR);
        self.deactivate_edge(edge_id);
        let mut ch = self.take_chain(ChainKind::CommHierarchical, owner);
        ch.replaced_edges.push(edge_id);
        // Source of the value in the shared bank.
        let shared_source = if produced_in_shared {
            edge.src
        } else {
            // Reuse an existing StoreR fed by this producer if there is one
            // (the paper inserts only one StoreR per multi-consumed value).
            if let Some(existing) = self.existing_storer_for(edge.src) {
                existing
            } else {
                let sr = self.push_node(Node::new(OpKind::StoreR));
                ch.nodes.push(sr);
                ch.edges.push(self.push_edge(Edge {
                    src: edge.src,
                    dst: sr,
                    kind: DepKind::Flow,
                    distance: 0,
                }));
                sr
            }
        };
        let final_src = if consumed_from_shared {
            shared_source
        } else {
            let lr = self.push_node(Node::new(OpKind::LoadR));
            ch.nodes.push(lr);
            ch.edges.push(self.push_edge(Edge {
                src: shared_source,
                dst: lr,
                kind: DepKind::Flow,
                distance: 0,
            }));
            lr
        };
        ch.edges.push(self.push_edge(Edge {
            src: final_src,
            dst: edge.dst,
            kind: DepKind::Flow,
            distance: edge.distance,
        }));
        out.extend_from_slice(&ch.nodes);
        self.push_chain(ch);
    }

    fn insert_move_communication(
        &mut self,
        owner: NodeId,
        edge_id: EdgeId,
        edge: Edge,
        out: &mut Vec<NodeId>,
    ) {
        self.deactivate_edge(edge_id);
        let mut ch = self.take_chain(ChainKind::CommClustered, owner);
        ch.replaced_edges.push(edge_id);
        let mv = self.push_node(Node::new(OpKind::Move));
        let e1 = self.push_edge(Edge {
            src: edge.src,
            dst: mv,
            kind: DepKind::Flow,
            distance: 0,
        });
        let e2 = self.push_edge(Edge {
            src: mv,
            dst: edge.dst,
            kind: DepKind::Flow,
            distance: edge.distance,
        });
        ch.nodes.push(mv);
        ch.edges.push(e1);
        ch.edges.push(e2);
        out.push(mv);
        self.push_chain(ch);
    }

    /// Find an active StoreR already fed by `producer` (for StoreR reuse).
    pub fn existing_storer_for(&self, producer: NodeId) -> Option<NodeId> {
        self.active_succ_edges(producer)
            .filter(|(_, e)| e.kind == DepKind::Flow)
            .map(|(_, e)| e.dst)
            .find(|&n| self.is_active(n) && self.ddg.node(n).kind == OpKind::StoreR)
    }

    /// Insert a spill of the value defined by `def` towards the shared bank:
    /// the consumer reached through `edge_id` will re-load the value with a
    /// LoadR instead of keeping it live in the cluster bank. The new nodes
    /// are appended to `out`.
    pub fn insert_spill_to_shared_into(
        &mut self,
        owner: NodeId,
        edge_id: EdgeId,
        out: &mut Vec<NodeId>,
    ) {
        self.topo_version += 1;
        let edge = *self.ddg.edge(edge_id);
        self.deactivate_edge(edge_id);
        let mut ch = self.take_chain(ChainKind::SpillToShared, owner);
        ch.replaced_edges.push(edge_id);
        let shared_src = if matches!(self.ddg.node(edge.src).kind, OpKind::Load | OpKind::StoreR) {
            edge.src
        } else if let Some(sr) = self.existing_storer_for(edge.src) {
            sr
        } else {
            let sr = self.push_node(Node::new(OpKind::StoreR));
            ch.nodes.push(sr);
            ch.edges.push(self.push_edge(Edge {
                src: edge.src,
                dst: sr,
                kind: DepKind::Flow,
                distance: 0,
            }));
            sr
        };
        let lr = self.push_node(Node::new(OpKind::LoadR));
        ch.nodes.push(lr);
        ch.edges.push(self.push_edge(Edge {
            src: shared_src,
            dst: lr,
            kind: DepKind::Flow,
            distance: 0,
        }));
        ch.edges.push(self.push_edge(Edge {
            src: lr,
            dst: edge.dst,
            kind: DepKind::Flow,
            distance: edge.distance,
        }));
        out.extend_from_slice(&ch.nodes);
        self.push_chain(ch);
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
        self.topo_version += 1;
        let edge = *self.ddg.edge(edge_id);
        self.deactivate_edge(edge_id);
        let base = self.next_spill_base;
        self.next_spill_base += 1;
        let access = MemAccess {
            base,
            offset: 0,
            stride: 0,
            size: 8,
        };
        let mut store = Node::new(OpKind::Store);
        store.mem = Some(access);
        let st = self.push_node(store);
        let mut load = Node::new(OpKind::Load);
        load.mem = Some(access);
        let ld = self.push_node(load);
        self.spill_reload[ld.index()] = true;
        let e1 = self.push_edge(Edge {
            src: edge.src,
            dst: st,
            kind: DepKind::Flow,
            distance: 0,
        });
        let e2 = self.push_edge(Edge {
            src: st,
            dst: ld,
            kind: DepKind::Mem,
            distance: 0,
        });
        let e3 = self.push_edge(Edge {
            src: ld,
            dst: edge.dst,
            kind: DepKind::Flow,
            distance: edge.distance,
        });
        let mut ch = self.take_chain(ChainKind::SpillToMemory, owner);
        ch.replaced_edges.push(edge_id);
        ch.nodes.push(st);
        ch.nodes.push(ld);
        ch.edges.push(e1);
        ch.edges.push(e2);
        ch.edges.push(e3);
        out.push(st);
        out.push(ld);
        self.push_chain(ch);
    }

    /// Append to `out` the chains that are removed when `node` is ejected —
    /// every active removable chain owned by `node` or whose replaced edge
    /// touches it — in ascending chain order. Served from the per-node index
    /// built at insertion, so ejection storms pay O(chains touching the
    /// node).
    pub fn chains_to_remove_into(&self, node: NodeId, out: &mut Vec<usize>) {
        out.extend(
            self.chains_touching[node.index()]
                .iter()
                .map(|&id| id as usize)
                .filter(|&id| self.chains[id].active),
        );
    }

    /// The chain an inserted node belongs to, if any. O(1): chains never
    /// share nodes, so membership is indexed at insertion.
    pub fn chain_containing(&self, node: NodeId) -> Option<usize> {
        self.chain_of_node[node.index()]
            .map(|id| id as usize)
            .filter(|&id| self.chains[id].active)
    }

    /// Owner of a chain (the node whose scheduling caused the insertion).
    pub fn chain_owner(&self, chain: usize) -> NodeId {
        self.chains[chain].owner
    }

    /// Kind of a chain.
    pub fn chain_kind(&self, chain: usize) -> ChainKind {
        self.chains[chain].kind
    }

    /// Deactivate one chain, reactivating the edge it replaced, and append
    /// the deactivated nodes to `out`. The chain's member lists are moved aside for the duration of the walk
    /// and restored afterwards (no clones), so the insert/remove cycle of an
    /// ejection storm never allocates.
    pub fn remove_chain_into(&mut self, chain: usize, out: &mut Vec<NodeId>) {
        let c = &mut self.chains[chain];
        if !c.active {
            return;
        }
        self.topo_version += 1;
        let c = &mut self.chains[chain];
        c.active = false;
        let nodes = std::mem::take(&mut c.nodes);
        let edges = std::mem::take(&mut c.edges);
        let replaced = std::mem::take(&mut c.replaced_edges);
        let touched = std::mem::take(&mut c.touched);
        // Unindex the (now permanently dead) chain from the nodes it
        // touched; the lists hold ascending chain ids, so the removal keeps
        // `chains_to_remove_into`'s ascending enumeration intact.
        let id = chain as u32;
        for t in &touched {
            let list = &mut self.chains_touching[t.index()];
            match list.binary_search(&id) {
                Ok(pos) => {
                    list.remove(pos);
                }
                Err(_) => debug_assert!(false, "chain {id} missing from touch index"),
            }
        }
        for n in &nodes {
            self.node_active[n.index()] = false;
        }
        for e in &edges {
            self.deactivate_edge(*e);
        }
        for e in &replaced {
            self.reactivate_edge(*e);
        }
        out.extend_from_slice(&nodes);
        let c = &mut self.chains[chain];
        c.nodes = nodes;
        c.edges = edges;
        c.replaced_edges = replaced;
        c.touched = touched;
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
