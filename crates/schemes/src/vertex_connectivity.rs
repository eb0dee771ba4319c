//! s–t k-vertex-connectivity (§5.2): deciding whether the vertex
//! connectivity between two distinguished nodes is *exactly* `k`.
//!
//! The paper recalls the Θ(log n) bound for this decision problem (derived
//! from Korman–Kutten–Peleg's s-t connectivity scheme). The certificate
//! here is two-sided, following Menger's theorem:
//!
//! * **≥ k**: `k` internally node-disjoint s–t paths, stored like the
//!   k-flow labels (per used incident edge: path id and direction), with
//!   the extra constraint that a non-terminal node carries at most one
//!   path;
//! * **≤ k**: a vertex cut — every label carries the same list of `k` cut
//!   node identities, each cut node confirms its membership, every other
//!   node takes a side, and no edge joins the two sides without passing
//!   through a cut node.
//!
//! Acceptance of both halves pins the connectivity: `k` disjoint paths
//! force ≥ k, and the verified separation by at most `k` nodes forces ≤ k
//! (if some listed identity does not exist the separation uses fewer
//! nodes, contradicting the path half — so nonexistent cut ids cannot
//! slip through either).
//!
//! Labels are `O(k log n)` bits; the compiled scheme (Theorem 3.1)
//! certifies the same predicate with `O(log k + log log n)` bits.

use rpls_bits::{BitReader, BitSlice, BitString, BitWriter};
use rpls_core::{Configuration, DetView, Labeling, Pls, Predicate};
use rpls_graph::flow as graph_flow;
use rpls_graph::NodeId;

const ID_BITS: u32 = 64;
const K_BITS: u32 = 16;

/// Which side of the cut a node is on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Side {
    Source,
    Sink,
    Cut,
}

impl Side {
    fn encode(self) -> u64 {
        match self {
            Side::Source => 0,
            Side::Sink => 1,
            Side::Cut => 2,
        }
    }

    fn decode(v: u64) -> Option<Self> {
        match v {
            0 => Some(Side::Source),
            1 => Some(Side::Sink),
            2 => Some(Side::Cut),
            _ => None,
        }
    }
}

/// The s–t k-vertex-connectivity predicate.
#[derive(Debug, Clone, Copy)]
pub struct StConnectivityPredicate {
    /// Identity of the source node.
    pub source_id: u64,
    /// Identity of the sink node.
    pub sink_id: u64,
    /// The required connectivity.
    pub k: usize,
}

impl StConnectivityPredicate {
    /// Creates the predicate. `s` and `t` must be non-adjacent in legal
    /// configurations (for adjacent pairs no vertex cut exists and the
    /// predicate is false for every finite `k`... except that connectivity
    /// conventions differ; this scheme requires non-adjacency, as the
    /// classic formulation does).
    #[must_use]
    pub fn new(source_id: u64, sink_id: u64, k: usize) -> Self {
        Self {
            source_id,
            sink_id,
            k,
        }
    }
}

impl Predicate for StConnectivityPredicate {
    fn name(&self) -> String {
        format!("st-{}-vertex-connectivity", self.k)
    }

    fn holds(&self, config: &Configuration) -> bool {
        let (Some(s), Some(t)) = (
            config.node_with_id(self.source_id),
            config.node_with_id(self.sink_id),
        ) else {
            return false;
        };
        if s == t || config.graph().are_adjacent(s, t) {
            return false;
        }
        graph_flow::vertex_connectivity_st(config.graph(), s, t) == self.k
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PathEntry {
    neighbor_id: u64,
    path: u64,
    outgoing: bool,
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct StLabel {
    id: u64,
    k: u64,
    side: Side,
    cut_ids: Vec<u64>,
    entries: Vec<PathEntry>,
}

impl StLabel {
    fn encode(&self) -> BitString {
        let mut w = BitWriter::new();
        w.write_u64(self.id, ID_BITS);
        w.write_u64(self.k, K_BITS);
        w.write_u64(self.side.encode(), 2);
        for &c in &self.cut_ids {
            w.write_u64(c, ID_BITS);
        }
        w.write_u64(self.entries.len() as u64, K_BITS);
        for e in &self.entries {
            w.write_u64(e.neighbor_id, ID_BITS);
            w.write_u64(e.path, K_BITS);
            w.write_bool(e.outgoing);
        }
        w.finish()
    }

    fn decode(bits: BitSlice<'_>) -> Option<Self> {
        let mut r = BitReader::from_slice(bits);
        let id = r.read_u64(ID_BITS).ok()?;
        let k = r.read_u64(K_BITS).ok()?;
        let side = Side::decode(r.read_u64(2).ok()?)?;
        let mut cut_ids = Vec::with_capacity(k as usize);
        for _ in 0..k {
            cut_ids.push(r.read_u64(ID_BITS).ok()?);
        }
        let count = r.read_u64(K_BITS).ok()? as usize;
        let mut entries = Vec::with_capacity(count);
        for _ in 0..count {
            entries.push(PathEntry {
                neighbor_id: r.read_u64(ID_BITS).ok()?,
                path: r.read_u64(K_BITS).ok()?,
                outgoing: r.read_bool().ok()?,
            });
        }
        r.is_exhausted().then_some(Self {
            id,
            k,
            side,
            cut_ids,
            entries,
        })
    }
}

/// The `O(k log n)` deterministic s–t k-vertex-connectivity scheme.
#[derive(Debug, Clone, Copy)]
pub struct StConnectivityPls {
    predicate: StConnectivityPredicate,
}

impl StConnectivityPls {
    /// The scheme certifying [`StConnectivityPredicate`].
    #[must_use]
    pub fn new(predicate: StConnectivityPredicate) -> Self {
        Self { predicate }
    }
}

impl Pls for StConnectivityPls {
    fn name(&self) -> String {
        self.predicate.name()
    }

    fn label(&self, config: &Configuration) -> Labeling {
        let g = config.graph();
        let s = config
            .node_with_id(self.predicate.source_id)
            .expect("source exists");
        let t = config
            .node_with_id(self.predicate.sink_id)
            .expect("sink exists");
        let paths = graph_flow::vertex_disjoint_paths(g, s, t);
        assert_eq!(paths.len(), self.predicate.k, "legal configuration");
        let cut = graph_flow::minimum_vertex_cut(g, s, t).expect("non-adjacent terminals");
        assert_eq!(cut.len(), self.predicate.k, "legal configuration");
        let mut cut_ids: Vec<u64> = cut.iter().map(|&v| config.state(v).id()).collect();
        cut_ids.sort_unstable();
        let is_cut: std::collections::HashSet<NodeId> = cut.iter().copied().collect();

        // Directed path usage per edge.
        let mut usage: std::collections::HashMap<usize, (u64, NodeId)> =
            std::collections::HashMap::new();
        for (p, path) in paths.iter().enumerate() {
            for w in path.windows(2) {
                let eid = g.edge_between(w[0], w[1]).expect("path edge");
                usage.insert(eid.index(), (p as u64, w[0]));
            }
        }
        // Sides: source component of G − cut.
        let mut side = vec![Side::Sink; g.node_count()];
        for &c in &cut {
            side[c.index()] = Side::Cut;
        }
        let mut queue = std::collections::VecDeque::from([s]);
        side[s.index()] = Side::Source;
        while let Some(v) = queue.pop_front() {
            for nb in g.neighbors(v) {
                if !is_cut.contains(&nb.node) && side[nb.node.index()] == Side::Sink {
                    side[nb.node.index()] = Side::Source;
                    queue.push_back(nb.node);
                }
            }
        }

        g.nodes()
            .map(|v| {
                let entries = g
                    .neighbors(v)
                    .filter_map(|nb| {
                        usage.get(&nb.edge.index()).map(|&(p, from)| PathEntry {
                            neighbor_id: config.state(nb.node).id(),
                            path: p,
                            outgoing: from == v,
                        })
                    })
                    .collect();
                StLabel {
                    id: config.state(v).id(),
                    k: self.predicate.k as u64,
                    side: side[v.index()],
                    cut_ids: cut_ids.clone(),
                    entries,
                }
                .encode()
            })
            .collect()
    }

    fn verify(&self, view: &DetView<'_>) -> bool {
        let Some(own) = StLabel::decode(view.label) else {
            return false;
        };
        let my_id = view.local.state.id();
        if own.id != my_id || own.k != self.predicate.k as u64 {
            return false;
        }
        let mut neighbors = Vec::with_capacity(view.neighbor_labels.len());
        for &l in &view.neighbor_labels {
            let Some(nl) = StLabel::decode(l) else {
                return false;
            };
            // Everyone must agree on k and on the cut list.
            if nl.k != own.k || nl.cut_ids != own.cut_ids {
                return false;
            }
            neighbors.push(nl);
        }
        // Cut list sanity: sorted, distinct, excludes the terminals.
        if own.cut_ids.windows(2).any(|w| w[0] >= w[1]) {
            return false;
        }
        if own
            .cut_ids
            .iter()
            .any(|&c| c == self.predicate.source_id || c == self.predicate.sink_id)
        {
            return false;
        }
        // Neighbor claimed ids must be unambiguous.
        {
            let mut ids: Vec<u64> = neighbors.iter().map(|nl| nl.id).collect();
            ids.sort_unstable();
            ids.dedup();
            if ids.len() != neighbors.len() {
                return false;
            }
        }
        let is_source = my_id == self.predicate.source_id;
        let is_sink = my_id == self.predicate.sink_id;
        // Side consistency with the cut list and the terminals.
        let listed = own.cut_ids.binary_search(&my_id).is_ok();
        if listed != (own.side == Side::Cut) {
            return false;
        }
        if is_source && own.side != Side::Source {
            return false;
        }
        if is_sink && own.side != Side::Sink {
            return false;
        }
        // The terminals must not be adjacent (the predicate's premise): a
        // neighbor claiming the other terminal's id is a violation.
        if is_source && neighbors.iter().any(|nl| nl.id == self.predicate.sink_id) {
            return false;
        }
        if is_sink && neighbors.iter().any(|nl| nl.id == self.predicate.source_id) {
            return false;
        }
        // Separation: a Source-side node may not touch a Sink-side node.
        for nl in &neighbors {
            if (own.side == Side::Source && nl.side == Side::Sink)
                || (own.side == Side::Sink && nl.side == Side::Source)
            {
                return false;
            }
        }
        // Path entries: mirrored, one per incident edge, node-disjointness.
        let mut used_ports = std::collections::HashSet::new();
        let mut per_path: std::collections::HashMap<u64, (usize, usize)> =
            std::collections::HashMap::new();
        for e in &own.entries {
            if e.path >= own.k {
                return false;
            }
            let Some(port) = neighbors.iter().position(|nl| nl.id == e.neighbor_id) else {
                return false;
            };
            if !used_ports.insert(port) {
                return false;
            }
            let mirror = neighbors[port]
                .entries
                .iter()
                .find(|m| m.neighbor_id == my_id);
            let Some(mirror) = mirror else {
                return false;
            };
            if mirror.path != e.path || mirror.outgoing == e.outgoing {
                return false;
            }
            let slot = per_path.entry(e.path).or_insert((0, 0));
            if e.outgoing {
                slot.0 += 1;
            } else {
                slot.1 += 1;
            }
        }
        if is_source || is_sink {
            (0..own.k).all(|p| {
                let &(out, inn) = per_path.get(&p).unwrap_or(&(0, 0));
                if is_source {
                    out == 1 && inn == 0
                } else {
                    out == 0 && inn == 1
                }
            })
        } else {
            // A non-terminal node carries at most one path, once through.
            per_path.len() <= 1 && per_path.values().all(|&(out, inn)| out == 1 && inn == 1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpls_core::engine;
    use rpls_core::{CompiledRpls, Rpls};
    use rpls_graph::generators;

    #[test]
    fn predicate_on_grid_corners() {
        let c = Configuration::plain(generators::grid(3, 3));
        assert!(StConnectivityPredicate::new(0, 8, 2).holds(&c));
        assert!(!StConnectivityPredicate::new(0, 8, 3).holds(&c));
        // Adjacent terminals are outside the model.
        assert!(!StConnectivityPredicate::new(0, 1, 1).holds(&c));
    }

    #[test]
    fn honest_labels_accepted() {
        for (g, s, t, k) in [
            (generators::grid(3, 3), 0u64, 8u64, 2usize),
            (generators::cycle(8), 0, 4, 2),
            (generators::grid(3, 4), 0, 11, 2),
        ] {
            let c = Configuration::plain(g);
            let scheme = StConnectivityPls::new(StConnectivityPredicate::new(s, t, k));
            let labels = scheme.label(&c);
            let out = engine::run_deterministic(&scheme, &c, &labels);
            assert!(out.accepted(), "k={k}: {:?}", out.rejecting_nodes());
        }
    }

    #[test]
    fn wrong_k_resists_forging() {
        let c = Configuration::plain(generators::cycle(8));
        // True connectivity between opposite nodes is 2; claim 3.
        let scheme = StConnectivityPls::new(StConnectivityPredicate::new(0, 4, 3));
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        let report = rpls_core::adversary::random_forge(&scheme, &c, 80, 20, 250, &mut rng);
        assert!(!report.succeeded());
        // And claim 1 (under-claiming).
        let scheme = StConnectivityPls::new(StConnectivityPredicate::new(0, 4, 1));
        let report = rpls_core::adversary::random_forge(&scheme, &c, 80, 20, 250, &mut rng);
        assert!(!report.succeeded());
    }

    #[test]
    fn node_reuse_across_paths_rejected() {
        // Certify k=2 on a graph whose true connectivity is 1: the hourglass
        // (two triangles sharing a node). Any 2-path certificate must reuse
        // the shared node, which the verifier forbids.
        let mut b = rpls_graph::GraphBuilder::new(5);
        for (u, v) in [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)] {
            b.add_edge(u, v).unwrap();
        }
        let c = Configuration::plain(b.finish().unwrap());
        assert!(StConnectivityPredicate::new(0, 3, 1).holds(&c));
        let scheme = StConnectivityPls::new(StConnectivityPredicate::new(0, 3, 2));
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let report = rpls_core::adversary::random_forge(&scheme, &c, 100, 20, 250, &mut rng);
        assert!(!report.succeeded());
    }

    #[test]
    fn tampered_cut_list_rejected() {
        let c = Configuration::plain(generators::grid(3, 3));
        let scheme = StConnectivityPls::new(StConnectivityPredicate::new(0, 8, 2));
        let mut labels = scheme.label(&c);
        let mut lbl = StLabel::decode(labels.get(NodeId::new(4)).as_slice()).unwrap();
        lbl.cut_ids[0] = lbl.cut_ids[0].wrapping_add(1);
        labels.set(NodeId::new(4), lbl.encode());
        assert!(!engine::run_deterministic(&scheme, &c, &labels).accepted());
    }

    #[test]
    fn compiled_scheme_round_trip() {
        let c = Configuration::plain(generators::grid(3, 4));
        let scheme = CompiledRpls::new(StConnectivityPls::new(StConnectivityPredicate::new(
            0, 11, 2,
        )));
        let labels = scheme.label(&c);
        let rec = engine::run_randomized(&scheme, &c, &labels, 13);
        assert!(rec.outcome.accepted());
        assert!(rec.max_certificate_bits() <= 24);
    }

    #[test]
    fn label_round_trip() {
        let l = StLabel {
            id: 5,
            k: 2,
            side: Side::Cut,
            cut_ids: vec![3, 5],
            entries: vec![PathEntry {
                neighbor_id: 1,
                path: 0,
                outgoing: true,
            }],
        };
        assert_eq!(StLabel::decode(l.encode().as_slice()), Some(l));
        assert!(StLabel::decode(BitString::zeros(7).as_slice()).is_none());
    }
}
