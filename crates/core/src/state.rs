//! Node states and configurations (§2.1).
//!
//! A configuration `G_s` is a graph together with a state assignment
//! `s : V → S`. The state of a node holds *all its local input*: its
//! identity, and an arbitrary payload (algorithm output, input bits, …).
//! Edge weights live on the graph and are visible to a node only for its
//! incident edges, as the MST setting of §5.1 prescribes.

use rpls_bits::{bits_for, BitString};
use rpls_graph::{Graph, NodeId};

/// The state of one node: its identity plus an opaque payload.
///
/// # Examples
///
/// ```
/// use rpls_core::State;
/// use rpls_bits::BitString;
///
/// let s = State::new(42, BitString::from_bools([true, false]));
/// assert_eq!(s.id(), 42);
/// assert_eq!(s.payload().len(), 2);
/// assert_eq!(s.bit_size(), 64 + 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct State {
    id: u64,
    payload: BitString,
}

impl State {
    /// Creates a state with the given identity and payload.
    #[must_use]
    pub fn new(id: u64, payload: BitString) -> Self {
        Self { id, payload }
    }

    /// A state with an identity and empty payload.
    #[must_use]
    pub fn with_id(id: u64) -> Self {
        Self::new(id, BitString::new())
    }

    /// The node's identity.
    #[must_use]
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The opaque payload (algorithm output, inputs, …).
    #[must_use]
    pub fn payload(&self) -> &BitString {
        &self.payload
    }

    /// Replaces the payload.
    pub fn set_payload(&mut self, payload: BitString) {
        self.payload = payload;
    }

    /// The state's size in bits (64-bit identity plus payload), the `k` of
    /// Lemma 3.3 and Corollary 3.4.
    #[must_use]
    pub fn bit_size(&self) -> usize {
        64 + self.payload.len()
    }
}

/// A configuration `G_s`: a port-numbered graph plus one [`State`] per node.
///
/// # Examples
///
/// ```
/// use rpls_core::Configuration;
/// use rpls_graph::generators;
///
/// let config = Configuration::plain(generators::path(4));
/// assert_eq!(config.node_count(), 4);
/// assert_eq!(config.state(rpls_graph::NodeId::new(2)).id(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct Configuration {
    graph: Graph,
    states: Vec<State>,
    /// CSR port layout: `port_base[v]` is the global index of port 0 of
    /// node `v`; `port_base[n]` is the total number of directed ports.
    port_base: Vec<u32>,
    /// Incident edge weights in global port order (`port_weights[port_base
    /// [v] + p]` is the weight at port rank `p` of `v`).
    port_weights: Vec<Option<u64>>,
    /// Delivery map: `delivery[i]` is the global port index whose
    /// certificate arrives at port `i` (the far endpoint's port of the same
    /// edge).
    delivery: Vec<u32>,
    /// Inverse CSR: `port_owner[i]` is the node owning global port `i`.
    port_owner: Vec<u32>,
    /// Identity of this content (see `prep::fresh_id`): fresh at
    /// construction and after every mutation, copied by `Clone`. A
    /// preparation cache matches configurations by it, never by content.
    id: u64,
}

impl PartialEq for Configuration {
    fn eq(&self, other: &Self) -> bool {
        // The CSR caches are functions of the graph; comparing them would
        // be redundant. The id names content, it is not content.
        self.graph == other.graph && self.states == other.states
    }
}

impl Eq for Configuration {}

impl Configuration {
    /// Creates a configuration from a graph and explicit states.
    ///
    /// # Panics
    ///
    /// Panics if the number of states differs from the number of nodes or if
    /// two nodes share an identity (the model requires pairwise distinct
    /// IDs).
    #[must_use]
    pub fn new(graph: Graph, states: Vec<State>) -> Self {
        assert_eq!(
            states.len(),
            graph.node_count(),
            "one state per node required"
        );
        let mut ids: Vec<u64> = states.iter().map(State::id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(
            ids.len(),
            states.len(),
            "node identities must be pairwise distinct"
        );
        let (port_base, port_weights, delivery, port_owner) = Self::build_port_layout(&graph);
        Self {
            graph,
            states,
            port_base,
            port_weights,
            delivery,
            port_owner,
            id: crate::prep::fresh_id(),
        }
    }

    /// Builds the CSR port layout the engine's flat certificate buffers
    /// index by: per-node port offsets, incident weights in global port
    /// order, the delivery map routing each port to the far endpoint's
    /// port of the same edge, and the inverse map from global port to
    /// owning node.
    #[allow(clippy::type_complexity)]
    fn build_port_layout(graph: &Graph) -> (Vec<u32>, Vec<Option<u64>>, Vec<u32>, Vec<u32>) {
        let n = graph.node_count();
        let mut port_base = Vec::with_capacity(n + 1);
        let mut total: u32 = 0;
        port_base.push(0);
        for v in graph.nodes() {
            total += u32::try_from(graph.degree(v)).expect("degree fits in u32");
            port_base.push(total);
        }
        let mut port_weights = Vec::with_capacity(total as usize);
        let mut delivery = Vec::with_capacity(total as usize);
        let mut port_owner = Vec::with_capacity(total as usize);
        for v in graph.nodes() {
            for nb in graph.neighbors(v) {
                port_weights.push(nb.weight);
                delivery.push(
                    port_base[nb.node.index()]
                        + u32::try_from(nb.remote_port.rank()).expect("port fits in u32"),
                );
                port_owner.push(u32::try_from(v.index()).expect("node fits in u32"));
            }
        }
        (port_base, port_weights, delivery, port_owner)
    }

    /// The default configuration: node `v` gets identity `v` and an empty
    /// payload.
    #[must_use]
    pub fn plain(graph: Graph) -> Self {
        let states = (0..graph.node_count())
            .map(|v| State::with_id(v as u64))
            .collect();
        Self::new(graph, states)
    }

    /// Like [`Configuration::plain`] but with explicit identities.
    ///
    /// # Panics
    ///
    /// Panics if `ids` has the wrong length or repeats a value.
    #[must_use]
    pub fn with_ids(graph: Graph, ids: &[u64]) -> Self {
        let states = ids.iter().map(|&id| State::with_id(id)).collect();
        Self::new(graph, states)
    }

    /// The underlying graph.
    #[must_use]
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Number of nodes.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.graph.node_count()
    }

    /// The state of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    #[must_use]
    pub fn state(&self, node: NodeId) -> &State {
        &self.states[node.index()]
    }

    /// Mutable access to the state of `node` (used by workload builders to
    /// install algorithm outputs).
    pub fn state_mut(&mut self, node: NodeId) -> &mut State {
        // The only mutator: whatever the caller changes, this is new
        // content.
        self.id = crate::prep::fresh_id();
        &mut self.states[node.index()]
    }

    /// The identity of this configuration's content (see the `id` field).
    pub(crate) fn id(&self) -> u64 {
        self.id
    }

    /// All states, indexed by node.
    #[must_use]
    pub fn states(&self) -> &[State] {
        &self.states
    }

    /// The node carrying identity `id`, if any.
    #[must_use]
    pub fn node_with_id(&self, id: u64) -> Option<NodeId> {
        self.states
            .iter()
            .position(|s| s.id() == id)
            .map(NodeId::new)
    }

    /// Maximum state size in bits over all nodes — the `k = k(n)` of
    /// Lemma 3.3 and Corollary 3.4.
    #[must_use]
    pub fn state_bits(&self) -> usize {
        self.states.iter().map(State::bit_size).max().unwrap_or(0)
    }

    /// Width in bits sufficient to index any node of this configuration
    /// (`⌈log₂ n⌉`, at least 1).
    #[must_use]
    pub fn node_index_width(&self) -> u32 {
        rpls_bits::id_width(self.node_count() as u64)
    }

    /// Width in bits sufficient to write any identity used here.
    #[must_use]
    pub fn id_width(&self) -> u32 {
        self.states
            .iter()
            .map(|s| bits_for(s.id()))
            .max()
            .unwrap_or(1)
    }

    /// Replaces the graph while keeping the states — the operation a
    /// crossing performs on a configuration (node states, including IDs, do
    /// not move; only edges do).
    ///
    /// # Panics
    ///
    /// Panics if the new graph has a different node count.
    #[must_use]
    pub fn with_graph(&self, graph: Graph) -> Self {
        assert_eq!(
            graph.node_count(),
            self.node_count(),
            "crossing preserves the node set"
        );
        let (port_base, port_weights, delivery, port_owner) = Self::build_port_layout(&graph);
        Self {
            graph,
            states: self.states.clone(),
            port_base,
            port_weights,
            delivery,
            port_owner,
            id: crate::prep::fresh_id(),
        }
    }

    /// The CSR port layout: `port_base()[v]` is the global index of port 0
    /// of node `v`, and `port_base()[n]` the total number of directed
    /// ports. The engine's flat certificate buffers are indexed by this
    /// layout.
    #[must_use]
    pub fn port_base(&self) -> &[u32] {
        &self.port_base
    }

    /// Total number of directed ports (`Σ deg(v) = 2m`).
    #[must_use]
    pub fn port_count(&self) -> usize {
        *self.port_base.last().expect("port_base non-empty") as usize
    }

    /// The global port index of port rank `p` at `node`.
    #[must_use]
    pub fn port_index(&self, node: NodeId, p: usize) -> usize {
        self.port_base[node.index()] as usize + p
    }

    /// Incident edge weights of `node` in port order, without allocating —
    /// the strictly-local view a verifier is allowed to see.
    #[must_use]
    pub fn incident_weights(&self, node: NodeId) -> &[Option<u64>] {
        let lo = self.port_base[node.index()] as usize;
        let hi = self.port_base[node.index() + 1] as usize;
        &self.port_weights[lo..hi]
    }

    /// The delivery map: entry `i` is the global port index whose
    /// certificate arrives at global port `i` (the far endpoint's port of
    /// the same edge). `delivery` is an involution.
    #[must_use]
    pub fn delivery(&self) -> &[u32] {
        &self.delivery
    }

    /// The inverse CSR map: entry `i` is the node owning global port `i`
    /// (the sender side of the directed edge the port represents). The
    /// batched kernels and the fault layer use this to look up the sender
    /// of a delivered certificate without re-walking the adjacency lists.
    #[must_use]
    pub fn port_owner(&self) -> &[u32] {
        &self.port_owner
    }
}

/// Nodes grouped into power-of-two **degree buckets** over the CSR port
/// layout: bucket `b` holds the nodes whose degree `d` satisfies
/// `bucket_of_degree(d) == b`, i.e. `d = 0` in bucket 0, `d = 1` in
/// bucket 1, `d ∈ [2^(b−1)+1, 2^b]` in bucket `b ≥ 1`.
///
/// The batched trial engine processes dynamic probe nodes bucket by
/// bucket, cheapest first: by the time the quadratic-port hub nodes of a
/// dense or power-law graph are reached, most rejecting trials are
/// already dead and their probes are skipped — the degree-bucketed half
/// of the dense-family fix (the other half is the probe sketch, which
/// subsamples the probes a hub still runs on live trials).
#[derive(Debug, Clone)]
pub struct DegreeBuckets {
    /// Node indices sorted by (bucket, node index) — stable within a
    /// bucket so traversal order is deterministic.
    order: Vec<u32>,
    /// CSR over `order`: bucket `b` is `order[bounds[b]..bounds[b+1]]`.
    bounds: Vec<u32>,
}

impl DegreeBuckets {
    /// The bucket index of degree `d`: `0` for isolated nodes, else
    /// `⌈log₂ d⌉ + 1` (so degree 1 → bucket 1, 2 → 2, 3..=4 → 3, …).
    #[must_use]
    pub fn bucket_of_degree(d: usize) -> usize {
        match d {
            0 => 0,
            _ => 65 - (d as u64 - 1).leading_zeros() as usize,
        }
    }

    /// Buckets the nodes of `graph` by degree.
    #[must_use]
    pub fn new(graph: &Graph) -> Self {
        let n = graph.node_count();
        let mut counts = vec![0u32; 1];
        for v in graph.nodes() {
            let b = Self::bucket_of_degree(graph.degree(v));
            if b >= counts.len() {
                counts.resize(b + 1, 0);
            }
            counts[b] += 1;
        }
        // Prefix sums → CSR bounds, then a stable counting sort.
        let mut bounds = Vec::with_capacity(counts.len() + 1);
        let mut total = 0u32;
        bounds.push(0);
        for &c in &counts {
            total += c;
            bounds.push(total);
        }
        let mut next: Vec<u32> = bounds[..counts.len()].to_vec();
        let mut order = vec![0u32; n];
        for v in graph.nodes() {
            let b = Self::bucket_of_degree(graph.degree(v));
            order[next[b] as usize] = u32::try_from(v.index()).expect("node fits in u32");
            next[b] += 1;
        }
        Self { order, bounds }
    }

    /// Number of buckets (highest occupied bucket + 1).
    #[must_use]
    pub fn bucket_count(&self) -> usize {
        self.bounds.len() - 1
    }

    /// The node indices of bucket `b`, ascending.
    ///
    /// # Panics
    ///
    /// Panics if `b >= bucket_count()`.
    #[must_use]
    pub fn bucket(&self, b: usize) -> &[u32] {
        &self.order[self.bounds[b] as usize..self.bounds[b + 1] as usize]
    }

    /// Every node exactly once, cheapest bucket first (the engine's
    /// processing order).
    pub fn iter_by_bucket(&self) -> impl Iterator<Item = u32> + '_ {
        self.order.iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpls_graph::generators;

    #[test]
    fn plain_assigns_index_ids() {
        let c = Configuration::plain(generators::cycle(5));
        for v in c.graph().nodes() {
            assert_eq!(c.state(v).id(), v.index() as u64);
        }
        assert_eq!(c.state_bits(), 64);
    }

    #[test]
    fn with_ids_and_lookup() {
        let c = Configuration::with_ids(generators::path(3), &[10, 20, 30]);
        assert_eq!(c.node_with_id(20), Some(NodeId::new(1)));
        assert_eq!(c.node_with_id(99), None);
        assert_eq!(c.id_width(), 5); // 30 needs 5 bits
    }

    #[test]
    #[should_panic(expected = "pairwise distinct")]
    fn duplicate_ids_rejected() {
        let _ = Configuration::with_ids(generators::path(3), &[1, 1, 2]);
    }

    #[test]
    #[should_panic(expected = "one state per node")]
    fn state_count_mismatch_rejected() {
        let _ = Configuration::new(generators::path(3), vec![State::with_id(0)]);
    }

    #[test]
    fn payloads_count_toward_state_bits() {
        let mut c = Configuration::plain(generators::path(2));
        c.state_mut(NodeId::new(0))
            .set_payload(BitString::zeros(100));
        assert_eq!(c.state_bits(), 164);
    }

    #[test]
    fn with_graph_preserves_states() {
        let c = Configuration::with_ids(generators::cycle(4), &[7, 8, 9, 10]);
        let crossedlike = c.with_graph(generators::cycle(4));
        assert_eq!(crossedlike.state(NodeId::new(2)).id(), 9);
    }

    #[test]
    #[should_panic(expected = "preserves the node set")]
    fn with_graph_rejects_resize() {
        let c = Configuration::plain(generators::cycle(4));
        let _ = c.with_graph(generators::cycle(5));
    }

    #[test]
    fn port_layout_is_a_csr_over_degrees() {
        let c = Configuration::plain(generators::star(4)); // center + 4 leaves
        let g = c.graph();
        assert_eq!(c.port_count(), 2 * g.edge_count());
        for v in g.nodes() {
            let lo = c.port_base()[v.index()] as usize;
            let hi = c.port_base()[v.index() + 1] as usize;
            assert_eq!(hi - lo, g.degree(v));
            assert_eq!(c.incident_weights(v).len(), g.degree(v));
        }
    }

    #[test]
    fn delivery_map_is_an_involution_onto_far_ports() {
        let c = Configuration::plain(generators::wheel(6));
        let g = c.graph();
        let delivery = c.delivery();
        for v in g.nodes() {
            for nb in g.neighbors(v) {
                let here = c.port_index(v, nb.port.rank());
                let there = c.port_index(nb.node, nb.remote_port.rank());
                assert_eq!(delivery[here] as usize, there);
                assert_eq!(delivery[there] as usize, here);
            }
        }
    }

    #[test]
    fn port_owner_inverts_the_csr() {
        let c = Configuration::plain(generators::wheel(6));
        for v in c.graph().nodes() {
            let lo = c.port_base()[v.index()] as usize;
            let hi = c.port_base()[v.index() + 1] as usize;
            for i in lo..hi {
                assert_eq!(c.port_owner()[i] as usize, v.index());
            }
        }
        assert_eq!(c.port_owner().len(), c.port_count());
    }

    #[test]
    fn degree_buckets_partition_nodes_by_power_of_two() {
        assert_eq!(DegreeBuckets::bucket_of_degree(0), 0);
        assert_eq!(DegreeBuckets::bucket_of_degree(1), 1);
        assert_eq!(DegreeBuckets::bucket_of_degree(2), 2);
        assert_eq!(DegreeBuckets::bucket_of_degree(3), 3);
        assert_eq!(DegreeBuckets::bucket_of_degree(4), 3);
        assert_eq!(DegreeBuckets::bucket_of_degree(5), 4);
        assert_eq!(DegreeBuckets::bucket_of_degree(8), 4);
        assert_eq!(DegreeBuckets::bucket_of_degree(9), 5);

        let g = generators::star(6); // center degree 6, leaves degree 1
        let buckets = DegreeBuckets::new(&g);
        let mut seen: Vec<u32> = buckets.iter_by_bucket().collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..7).collect::<Vec<u32>>());
        for b in 0..buckets.bucket_count() {
            for &v in buckets.bucket(b) {
                let d = g.degree(rpls_graph::NodeId::new(v as usize));
                assert_eq!(DegreeBuckets::bucket_of_degree(d), b, "node {v}");
            }
        }
        // Leaves (degree 1) come before the hub (degree 6).
        let order: Vec<u32> = buckets.iter_by_bucket().collect();
        assert_eq!(*order.last().unwrap(), 0, "hub is processed last");
    }

    #[test]
    fn incident_weights_follow_port_order() {
        let g = generators::cycle(4).with_weights(&[10, 20, 30, 40]);
        let c = Configuration::plain(g);
        for v in c.graph().nodes() {
            let expect: Vec<Option<u64>> = c.graph().neighbors(v).map(|nb| nb.weight).collect();
            assert_eq!(c.incident_weights(v), expect.as_slice());
        }
    }
}
