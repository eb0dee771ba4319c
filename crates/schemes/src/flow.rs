//! The k-flow problem (§5.2 remark): is the maximum s–t flow exactly `k`?
//!
//! The deterministic scheme follows the `O(k log n)` construction of
//! Korman–Kutten–Peleg: the label carries a decomposition of the flow into
//! `k` edge-disjoint paths (per used incident edge: which path, which
//! direction) **plus** a min-cut side bit. The verifier checks
//! per-path flow conservation (source +1, sink −1, everyone else 0),
//! edge-wise agreement between endpoints, and cut consistency: every
//! cut-crossing edge carries exactly one path, forward — which makes the
//! number of cut edges equal `k` and pins the max flow from both sides
//! (Menger / max-flow–min-cut).
//!
//! Compiling the scheme (Theorem 3.1) yields the `O(log k + log log n)`
//! certificates the paper notes at the end of §5.2.

use rpls_bits::{BitReader, BitSlice, BitString, BitWriter};
use rpls_core::{Configuration, DetView, Labeling, Pls, Predicate};
use rpls_graph::{flow as graph_flow, NodeId};

const ID_BITS: u32 = 64;
const K_BITS: u32 = 16;

/// The k-flow predicate: the maximum flow between the nodes carrying the
/// two distinguished identities is exactly `k`.
#[derive(Debug, Clone, Copy)]
pub struct FlowPredicate {
    /// Identity of the source node.
    pub source_id: u64,
    /// Identity of the sink node.
    pub sink_id: u64,
    /// The required flow value.
    pub k: usize,
}

impl FlowPredicate {
    /// Creates the predicate.
    #[must_use]
    pub fn new(source_id: u64, sink_id: u64, k: usize) -> Self {
        Self {
            source_id,
            sink_id,
            k,
        }
    }
}

impl Predicate for FlowPredicate {
    fn name(&self) -> String {
        format!("{}-flow", self.k)
    }

    fn holds(&self, config: &Configuration) -> bool {
        let (Some(s), Some(t)) = (
            config.node_with_id(self.source_id),
            config.node_with_id(self.sink_id),
        ) else {
            return false;
        };
        s != t && graph_flow::max_flow_unit(config.graph(), s, t) == self.k
    }
}

/// One used incident edge in a label: the far endpoint's identity, the path
/// using the edge, and whether it leaves this node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct FlowEntry {
    neighbor_id: u64,
    path: u64,
    outgoing: bool,
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct FlowLabel {
    id: u64,
    k: u64,
    on_source_side: bool,
    entries: Vec<FlowEntry>,
}

impl FlowLabel {
    fn encode(&self) -> BitString {
        let mut w = BitWriter::new();
        w.write_u64(self.id, ID_BITS);
        w.write_u64(self.k, K_BITS);
        w.write_bool(self.on_source_side);
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
        let on_source_side = r.read_bool().ok()?;
        let count = r.read_u64(K_BITS).ok()? as usize;
        let mut entries = Vec::with_capacity(count);
        for _ in 0..count {
            entries.push(FlowEntry {
                neighbor_id: r.read_u64(ID_BITS).ok()?,
                path: r.read_u64(K_BITS).ok()?,
                outgoing: r.read_bool().ok()?,
            });
        }
        r.is_exhausted().then_some(Self {
            id,
            k,
            on_source_side,
            entries,
        })
    }
}

/// The `O(k log n)` deterministic k-flow scheme.
#[derive(Debug, Clone, Copy)]
pub struct FlowPls {
    predicate: FlowPredicate,
}

impl FlowPls {
    /// The scheme certifying [`FlowPredicate`].
    #[must_use]
    pub fn new(predicate: FlowPredicate) -> Self {
        Self { predicate }
    }
}

impl Pls for FlowPls {
    fn name(&self) -> String {
        format!("{}-flow", self.predicate.k)
    }

    fn label(&self, config: &Configuration) -> Labeling {
        let g = config.graph();
        let s = config
            .node_with_id(self.predicate.source_id)
            .expect("source exists");
        let t = config
            .node_with_id(self.predicate.sink_id)
            .expect("sink exists");
        let paths = graph_flow::edge_disjoint_paths(g, s, t);
        assert_eq!(paths.len(), self.predicate.k, "legal configuration");

        // Directed usage per edge: path id and direction.
        let mut usage: std::collections::HashMap<usize, (u64, NodeId)> =
            std::collections::HashMap::new();
        for (p, path) in paths.iter().enumerate() {
            for w in path.windows(2) {
                let eid = g.edge_between(w[0], w[1]).expect("path edge");
                usage.insert(eid.index(), (p as u64, w[0]));
            }
        }
        // Min-cut side: nodes reachable from s in the residual graph.
        let mut side = vec![false; g.node_count()];
        side[s.index()] = true;
        let mut queue = std::collections::VecDeque::from([s]);
        while let Some(v) = queue.pop_front() {
            for nb in g.neighbors(v) {
                if side[nb.node.index()] {
                    continue;
                }
                let traversable = match usage.get(&nb.edge.index()) {
                    None => true,                  // unused: both ways
                    Some(&(_, from)) => from != v, // used: only backwards
                };
                if traversable {
                    side[nb.node.index()] = true;
                    queue.push_back(nb.node);
                }
            }
        }
        assert!(!side[t.index()], "max flow leaves no augmenting path");

        g.nodes()
            .map(|v| {
                let entries = g
                    .neighbors(v)
                    .filter_map(|nb| {
                        usage.get(&nb.edge.index()).map(|&(p, from)| FlowEntry {
                            neighbor_id: config.state(nb.node).id(),
                            path: p,
                            outgoing: from == v,
                        })
                    })
                    .collect();
                FlowLabel {
                    id: config.state(v).id(),
                    k: self.predicate.k as u64,
                    on_source_side: side[v.index()],
                    entries,
                }
                .encode()
            })
            .collect()
    }

    fn verify(&self, view: &DetView<'_>) -> bool {
        let Some(own) = FlowLabel::decode(view.label) else {
            return false;
        };
        let my_id = view.local.state.id();
        if own.id != my_id || own.k != self.predicate.k as u64 {
            return false;
        }
        let mut neighbors = Vec::with_capacity(view.neighbor_labels.len());
        for &l in &view.neighbor_labels {
            let Some(nl) = FlowLabel::decode(l) else {
                return false;
            };
            if nl.k != own.k {
                return false;
            }
            neighbors.push(nl);
        }
        // The claimed neighbor ids must be unambiguous.
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
        if is_source && !own.on_source_side {
            return false;
        }
        if is_sink && own.on_source_side {
            return false;
        }

        // Each entry maps to a distinct incident edge, mirrored by the far
        // endpoint; cut edges carry exactly one forward path.
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
                return false; // two paths on one edge
            }
            // Mirror entry at the neighbor.
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
            // Cut crossing must be forward (source side → sink side).
            let nb_side = neighbors[port].on_source_side;
            if own.on_source_side != nb_side {
                let forward = own.on_source_side == e.outgoing;
                if !forward {
                    return false;
                }
            }
            let slot = per_path.entry(e.path).or_insert((0, 0));
            if e.outgoing {
                slot.0 += 1;
            } else {
                slot.1 += 1;
            }
        }
        // Every cut edge must carry a path.
        for (port, nl) in neighbors.iter().enumerate() {
            if nl.on_source_side != own.on_source_side && !used_ports.contains(&port) {
                return false;
            }
        }
        // Conservation per path.
        if is_source || is_sink {
            for p in 0..own.k {
                let &(out, inn) = per_path.get(&p).unwrap_or(&(0, 0));
                let ok = if is_source {
                    out == 1 && inn == 0
                } else {
                    out == 0 && inn == 1
                };
                if !ok {
                    return false;
                }
            }
            true
        } else {
            per_path.values().all(|&(out, inn)| out == inn && out <= 1)
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
    fn predicate_counts_disjoint_paths() {
        let c = Configuration::plain(generators::cycle(8));
        assert!(FlowPredicate::new(0, 4, 2).holds(&c));
        assert!(!FlowPredicate::new(0, 4, 3).holds(&c));
        assert!(!FlowPredicate::new(0, 4, 1).holds(&c));
        assert!(!FlowPredicate::new(0, 99, 2).holds(&c)); // missing sink
    }

    #[test]
    fn honest_labels_accepted() {
        for (g, s, t, k) in [
            (generators::cycle(8), 0usize, 4usize, 2usize),
            (generators::complete(6), 0, 5, 5),
            (generators::grid(3, 3), 0, 8, 2),
            (generators::path(5), 0, 4, 1),
        ] {
            let c = Configuration::plain(g);
            let scheme = FlowPls::new(FlowPredicate::new(s as u64, t as u64, k));
            let labeling = scheme.label(&c);
            let out = engine::run_deterministic(&scheme, &c, &labeling);
            assert!(out.accepted(), "k={k}: {:?}", out.rejecting_nodes());
        }
    }

    #[test]
    fn wrong_k_cannot_be_certified() {
        // Claim 3 on a cycle (true max flow 2): forging must fail.
        let c = Configuration::plain(generators::cycle(6));
        let scheme = FlowPls::new(FlowPredicate::new(0, 3, 3));
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let report = rpls_core::adversary::random_forge(&scheme, &c, 60, 25, 300, &mut rng);
        assert!(!report.succeeded());
    }

    #[test]
    fn under_claiming_also_fails() {
        // Claim 1 on a cycle (max flow 2): the cut side bits cannot avoid a
        // second crossing edge.
        let c = Configuration::plain(generators::cycle(6));
        let scheme = FlowPls::new(FlowPredicate::new(0, 3, 1));
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let report = rpls_core::adversary::random_forge(&scheme, &c, 60, 25, 300, &mut rng);
        assert!(!report.succeeded());
    }

    #[test]
    fn tampered_path_id_rejected() {
        let c = Configuration::plain(generators::cycle(6));
        let scheme = FlowPls::new(FlowPredicate::new(0, 3, 2));
        let mut labeling = scheme.label(&c);
        let mut lbl = FlowLabel::decode(labeling.get(NodeId::new(1)).as_slice()).unwrap();
        if let Some(e) = lbl.entries.first_mut() {
            e.path = 1 - e.path;
        }
        labeling.set(NodeId::new(1), lbl.encode());
        assert!(!engine::run_deterministic(&scheme, &c, &labeling).accepted());
    }

    #[test]
    fn label_size_scales_with_k_not_n() {
        // K6 between adjacent nodes: k = 5; path(64): k = 1.
        let big_k = FlowPls::new(FlowPredicate::new(0, 5, 5))
            .label(&Configuration::plain(generators::complete(6)))
            .max_bits();
        let small_k = FlowPls::new(FlowPredicate::new(0, 63, 1))
            .label(&Configuration::plain(generators::path(64)))
            .max_bits();
        assert!(big_k > small_k);
    }

    #[test]
    fn compiled_flow_certificates() {
        let c = Configuration::plain(generators::complete(6));
        let scheme = CompiledRpls::new(FlowPls::new(FlowPredicate::new(0, 5, 5)));
        let labeling = scheme.label(&c);
        let rec = engine::run_randomized(&scheme, &c, &labeling, 3);
        assert!(rec.outcome.accepted());
        assert!(rec.max_certificate_bits() <= 24);
    }

    #[test]
    fn label_round_trip() {
        let l = FlowLabel {
            id: 7,
            k: 3,
            on_source_side: true,
            entries: vec![FlowEntry {
                neighbor_id: 9,
                path: 2,
                outgoing: false,
            }],
        };
        assert_eq!(FlowLabel::decode(l.encode().as_slice()), Some(l));
        assert!(FlowLabel::decode(BitString::zeros(3).as_slice()).is_none());
    }
}
