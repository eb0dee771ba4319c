//! The introduction's example: certifying that parent pointers form a
//! spanning tree.
//!
//! Every node's state carries `p(v)` — the port of its parent, or a root
//! flag. The prover labels each node with the certificate `(id(r), d(v))`:
//! the root's identity and the node's tree distance to the root. The
//! verifier checks that all neighbors agree on `id(r)`, that
//! `d(p(v)) = d(v) − 1`, and that the root has `d(r) = 0` — exactly the
//! procedure described in §1 of the paper.

use rpls_bits::{BitReader, BitSlice, BitString, BitWriter};
use rpls_core::{Configuration, DetView, Labeling, Pls, Predicate};
use rpls_graph::{traversal, NodeId, Port};

/// Width of the distance field in labels (enough for any `n < 2^32`).
const DIST_BITS: u32 = 32;
/// Width of the identity field in labels.
const ID_BITS: u32 = 64;

/// Writes the parent-pointer payload: a root flag, then the parent port if
/// not root.
#[must_use]
pub fn encode_pointer(parent_port: Option<Port>) -> BitString {
    let mut w = BitWriter::new();
    match parent_port {
        None => {
            w.write_bool(true);
        }
        Some(p) => {
            w.write_bool(false);
            w.write_u64(p.rank() as u64, 16);
        }
    }
    w.finish()
}

/// Reads a parent-pointer payload back.
#[must_use]
pub fn decode_pointer(bits: &BitString) -> Option<Option<Port>> {
    let mut r = BitReader::new(bits);
    let is_root = r.read_bool().ok()?;
    if is_root {
        r.is_exhausted().then_some(None)
    } else {
        let port = r.read_u64(16).ok()? as usize;
        r.is_exhausted().then_some(Some(Port::from_rank(port)))
    }
}

/// Builds a legal workload: installs the parent pointers of a BFS tree
/// rooted at `root` into the configuration's payloads.
///
/// # Panics
///
/// Panics if the graph is disconnected.
#[must_use]
pub fn spanning_tree_config(config: &Configuration, root: NodeId) -> Configuration {
    let bfs = traversal::bfs(config.graph(), root);
    assert_eq!(
        bfs.reached_count(),
        config.node_count(),
        "graph must be connected"
    );
    let mut out = config.clone();
    for v in config.graph().nodes() {
        let pointer = bfs.parent[v.index()].map(|p| {
            config
                .graph()
                .neighbors(v)
                .find(|nb| nb.node == p)
                .expect("parent is a neighbor")
                .port
        });
        out.state_mut(v).set_payload(encode_pointer(pointer));
    }
    out
}

/// The spanning-tree predicate: the parent pointers stored in the payloads
/// form a spanning tree of the graph (exactly one root; every other node
/// points at a neighbor; following pointers reaches the root from
/// everywhere with no cycles).
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanningTreePredicate;

impl SpanningTreePredicate {
    /// Creates the predicate.
    #[must_use]
    pub fn new() -> Self {
        Self
    }
}

impl Predicate for SpanningTreePredicate {
    fn name(&self) -> String {
        "spanning-tree".into()
    }

    fn holds(&self, config: &Configuration) -> bool {
        let g = config.graph();
        let n = g.node_count();
        let mut parent = vec![None; n];
        let mut root = None;
        for v in g.nodes() {
            match decode_pointer(config.state(v).payload()) {
                Some(None) => {
                    if root.replace(v).is_some() {
                        return false; // two roots
                    }
                }
                Some(Some(port)) => match g.neighbor_by_port(v, port) {
                    Some(nb) => parent[v.index()] = Some(nb.node),
                    None => return false, // dangling port
                },
                None => return false, // malformed payload
            }
        }
        let Some(root) = root else {
            return false;
        };
        // Every node must reach the root without cycles.
        for v in g.nodes() {
            let mut seen = 0usize;
            let mut cur = v;
            while cur != root {
                let Some(p) = parent[cur.index()] else {
                    return false;
                };
                cur = p;
                seen += 1;
                if seen > n {
                    return false; // pointer cycle
                }
            }
        }
        true
    }
}

/// The §1 deterministic scheme: label `(id(r), d(v))`, verification
/// complexity Θ(log n).
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanningTreePls;

impl SpanningTreePls {
    /// Creates the scheme.
    #[must_use]
    pub fn new() -> Self {
        Self
    }
}

fn encode_label(root_id: u64, dist: u64) -> BitString {
    let mut w = BitWriter::new();
    w.write_u64(root_id, ID_BITS);
    w.write_u64(dist, DIST_BITS);
    w.finish()
}

fn decode_label(bits: BitSlice<'_>) -> Option<(u64, u64)> {
    let mut r = BitReader::from_slice(bits);
    let root_id = r.read_u64(ID_BITS).ok()?;
    let dist = r.read_u64(DIST_BITS).ok()?;
    r.is_exhausted().then_some((root_id, dist))
}

impl Pls for SpanningTreePls {
    fn name(&self) -> String {
        "spanning-tree".into()
    }

    fn label(&self, config: &Configuration) -> Labeling {
        // Follow the pointers to find the root and the tree distances.
        let g = config.graph();
        let n = g.node_count();
        let mut parent: Vec<Option<NodeId>> = vec![None; n];
        let mut root = NodeId::new(0);
        for v in g.nodes() {
            match decode_pointer(config.state(v).payload()) {
                Some(None) => root = v,
                Some(Some(port)) => {
                    parent[v.index()] = g.neighbor_by_port(v, port).map(|nb| nb.node);
                }
                None => {}
            }
        }
        let root_id = config.state(root).id();
        let mut dist = vec![u64::MAX; n];
        dist[root.index()] = 0;
        for v in g.nodes() {
            // Walk up until a known distance, then write back.
            let mut chain = Vec::new();
            let mut cur = v;
            while dist[cur.index()] == u64::MAX {
                chain.push(cur);
                cur = parent[cur.index()].expect("legal configuration");
            }
            let mut d = dist[cur.index()];
            for &u in chain.iter().rev() {
                d += 1;
                dist[u.index()] = d;
            }
        }
        (0..n).map(|v| encode_label(root_id, dist[v])).collect()
    }

    fn verify(&self, view: &DetView<'_>) -> bool {
        let Some((root_id, dist)) = decode_label(view.label) else {
            return false;
        };
        let pointer = decode_pointer(view.local.state.payload());
        let parent = pointer.flatten().map(|port| port.rank());
        // All neighbors must agree on the root identity, and carry parseable
        // labels; only the parent's distance is kept.
        let mut parent_dist = None;
        for (i, &l) in view.neighbor_labels.iter().enumerate() {
            let Some((rid, d)) = decode_label(l) else {
                return false;
            };
            if rid != root_id {
                return false;
            }
            if Some(i) == parent {
                parent_dist = Some(d);
            }
        }
        match pointer {
            Some(None) => {
                // Root: checks d(r) = 0 and that it really owns id(r).
                dist == 0 && view.local.state.id() == root_id
            }
            Some(Some(_)) => {
                // Non-root: d(p(v)) = d(v) − 1 (also forces d(v) ≥ 1).
                let Some(pd) = parent_dist else {
                    return false;
                };
                dist >= 1 && pd == dist - 1 && view.local.state.id() != root_id
            }
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpls_core::engine;
    use rpls_core::CompiledRpls;
    use rpls_graph::generators;

    fn legal_config(n: usize) -> Configuration {
        let base = Configuration::plain(generators::gnp_connected(n, 0.2, &mut rand_rng(n as u64)));
        spanning_tree_config(&base, NodeId::new(0))
    }

    fn rand_rng(seed: u64) -> rand::rngs::StdRng {
        use rand::SeedableRng;
        rand::rngs::StdRng::seed_from_u64(seed)
    }

    #[test]
    fn predicate_accepts_bfs_pointers() {
        let c = legal_config(20);
        assert!(SpanningTreePredicate.holds(&c));
    }

    #[test]
    fn predicate_rejects_pointer_cycle() {
        // Two nodes pointing at each other plus no root.
        let g = generators::path(3);
        let mut c = Configuration::plain(g);
        // 0 -> 1, 1 -> 0, 2 -> 1: cycle between 0 and 1, no root.
        c.state_mut(NodeId::new(0))
            .set_payload(encode_pointer(Some(Port::from_rank(0))));
        c.state_mut(NodeId::new(1))
            .set_payload(encode_pointer(Some(Port::from_rank(1))));
        c.state_mut(NodeId::new(2))
            .set_payload(encode_pointer(Some(Port::from_rank(0))));
        assert!(!SpanningTreePredicate.holds(&c));
    }

    #[test]
    fn predicate_rejects_two_roots() {
        let g = generators::path(2);
        let mut c = Configuration::plain(g);
        c.state_mut(NodeId::new(0))
            .set_payload(encode_pointer(None));
        c.state_mut(NodeId::new(1))
            .set_payload(encode_pointer(None));
        assert!(!SpanningTreePredicate.holds(&c));
    }

    #[test]
    fn honest_labels_accepted_everywhere() {
        for n in [2usize, 5, 12, 30] {
            let c = legal_config(n);
            let labeling = SpanningTreePls.label(&c);
            let out = engine::run_deterministic(&SpanningTreePls, &c, &labeling);
            assert!(out.accepted(), "n = {n}");
        }
    }

    #[test]
    fn fake_root_id_rejected() {
        let c = legal_config(8);
        // Claim a root id that no node owns.
        let labeling: Labeling = (0..8).map(|_| encode_label(999, 1)).collect();
        let out = engine::run_deterministic(&SpanningTreePls, &c, &labeling);
        assert!(!out.accepted());
    }

    #[test]
    fn wrong_distance_rejected() {
        let c = legal_config(8);
        let mut labeling = SpanningTreePls.label(&c);
        let (rid, d) = decode_label(labeling.get(NodeId::new(3)).as_slice()).unwrap();
        labeling.set(NodeId::new(3), encode_label(rid, d + 1));
        let out = engine::run_deterministic(&SpanningTreePls, &c, &labeling);
        assert!(!out.accepted());
    }

    #[test]
    fn multiround_schedule_certifies_spanning_tree() {
        use rpls_core::engine::RunSpec;
        use rpls_core::stats::EstimateOpts;
        use rpls_core::{CompiledRpls, Rpls};
        let c = legal_config(12);
        let scheme = CompiledRpls::new(SpanningTreePls::new());
        let labeling = Rpls::label(&scheme, &c);
        // Honest labels: perfect completeness at every schedule length,
        // with per-round communication only shrinking as t grows.
        let mut last = usize::MAX;
        for rounds in [1usize, 2, 4, 8] {
            let report = engine::run(
                &RunSpec::trial(9).with_rounds(rounds),
                &scheme,
                &c,
                &labeling,
            );
            assert!(report.accepted, "t = {rounds}");
            assert_eq!(report.decided_round, rounds);
            assert!(report.max_bits_per_round <= last, "t = {rounds}");
            last = report.max_bits_per_round;
        }
        // A corrupted claimed replica still gets caught at t = 4 with the
        // one-sided bound, and the estimator agrees with the one-round one
        // at t = 1.
        let mut tampered = labeling.clone();
        let target = tampered.get(NodeId::new(4)).len() / 2;
        let flipped: BitString = tampered
            .get(NodeId::new(4))
            .iter()
            .enumerate()
            .map(|(i, b)| if i == target { !b } else { b })
            .collect();
        tampered.set(NodeId::new(4), flipped);
        let p4 = rpls_core::stats::estimate(
            &scheme,
            &c,
            &tampered,
            &RunSpec::trial(3).with_rounds(4),
            &EstimateOpts::new(400),
        )
        .acceptance();
        assert!(p4 < 0.5, "tampered acceptance at t = 4: {p4}");
        let p1 = rpls_core::stats::estimate(
            &scheme,
            &c,
            &tampered,
            &RunSpec::trial(3).with_rounds(1),
            &EstimateOpts::new(400),
        )
        .acceptance();
        let one = rpls_core::stats::acceptance_probability(&scheme, &c, &tampered, 400, 3);
        assert!(p1 == one, "t = 1 must equal the one-round estimate");
    }

    #[test]
    fn cycle_pointers_cannot_be_certified() {
        // On a cycle configuration where pointers chase each other (no
        // root), no labeling can be accepted: follow the exhaustive forger
        // at a tiny size.
        let g = generators::cycle(3);
        let mut c = Configuration::plain(g);
        for i in 0..3 {
            // Everyone points at its port-0 neighbor (successor): a cycle.
            c.state_mut(NodeId::new(i))
                .set_payload(encode_pointer(Some(Port::from_rank(0))));
        }
        assert!(!SpanningTreePredicate.holds(&c));
        assert!(
            rpls_core::adversary::exhaustive_forge(&SpanningTreePls, &c, 3).is_none(),
            "no 3-bit labeling may fool the verifier"
        );
    }

    #[test]
    fn compiled_scheme_accepts_and_compresses() {
        let c = legal_config(16);
        let scheme = CompiledRpls::new(SpanningTreePls);
        let labeling = rpls_core::Rpls::label(&scheme, &c);
        let rec = engine::run_randomized(&scheme, &c, &labeling, 42);
        assert!(rec.outcome.accepted());
        let det_bits = SpanningTreePls.label(&c).max_bits();
        assert!(rec.max_certificate_bits() < det_bits);
    }

    #[test]
    fn pointer_payload_round_trip() {
        assert_eq!(decode_pointer(&encode_pointer(None)), Some(None));
        let p = Some(Port::from_rank(5));
        assert_eq!(decode_pointer(&encode_pointer(p)), Some(p));
        assert_eq!(decode_pointer(&BitString::new()), None);
    }
}
