//! Vertex biconnectivity (`v2con`, Theorem 5.2) — the Appendix E scheme.
//!
//! The prover runs a DFS from the minimum-id node and labels every node
//! with `(id-root, dist, preo, span, lowpt)`:
//!
//! * `id-root` — identity of the DFS root;
//! * `dist` — DFS tree depth;
//! * `preo` — preorder number;
//! * `span` — the half-open interval of preorder numbers of the node's
//!   subtree;
//! * `lowpt` — Tarjan's LOWPT as the paper defines it: the smallest
//!   preorder number among the *neighbors* of the nodes in the subtree
//!   (which includes each node's parent, so `lowpt(v) ≤ preo(parent(v))`).
//!
//! The verifier is the conjunction of the paper's predicates **P1–P8**:
//! P1–P6 force the labels to describe a genuine DFS tree (Theorem 1 of
//! Tarjan's 1972 paper), P7 pins the lowpoints, and P8 — the root has at
//! most one child and `lowpt(u) < preo(v)` for every child `u` of every
//! non-root `v` — is exactly the absence of articulation points.
//! Verification complexity Θ(log n); compiled: Θ(log log n).

use rpls_bits::{bits_for, BitReader, BitSlice, BitString, BitWriter};
use rpls_core::{Configuration, DetView, Labeling, Pls, Predicate};
use rpls_graph::{connectivity, traversal};

const WIDTH_BITS: u32 = 7;

/// The vertex-biconnectivity predicate of Theorem 5.2.
#[derive(Debug, Clone, Copy, Default)]
pub struct BiconnectivityPredicate;

impl BiconnectivityPredicate {
    /// Creates the predicate.
    #[must_use]
    pub fn new() -> Self {
        Self
    }
}

impl Predicate for BiconnectivityPredicate {
    fn name(&self) -> String {
        "v2con".into()
    }

    fn holds(&self, config: &Configuration) -> bool {
        connectivity::is_biconnected(config.graph())
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct BcLabel {
    w_id: u32,
    w: u32,
    id_root: u64,
    dist: u64,
    preo: u64,
    span_lo: u64,
    span_hi: u64,
    lowpt: u64,
}

impl BcLabel {
    fn encode(&self) -> BitString {
        let mut wtr = BitWriter::new();
        wtr.write_u64(u64::from(self.w_id), WIDTH_BITS);
        wtr.write_u64(u64::from(self.w), WIDTH_BITS);
        wtr.write_u64(self.id_root, self.w_id);
        wtr.write_u64(self.dist, self.w);
        wtr.write_u64(self.preo, self.w);
        wtr.write_u64(self.span_lo, self.w);
        wtr.write_u64(self.span_hi, self.w + 1);
        wtr.write_u64(self.lowpt, self.w);
        wtr.finish()
    }

    fn decode(bits: BitSlice<'_>) -> Option<Self> {
        let mut r = BitReader::from_slice(bits);
        let w_id = u32::try_from(r.read_u64(WIDTH_BITS).ok()?).ok()?;
        let w = u32::try_from(r.read_u64(WIDTH_BITS).ok()?).ok()?;
        if w_id == 0 || w_id > 64 || w == 0 || w > 63 {
            return None;
        }
        let out = Self {
            w_id,
            w,
            id_root: r.read_u64(w_id).ok()?,
            dist: r.read_u64(w).ok()?,
            preo: r.read_u64(w).ok()?,
            span_lo: r.read_u64(w).ok()?,
            span_hi: r.read_u64(w + 1).ok()?,
            lowpt: r.read_u64(w).ok()?,
        };
        r.is_exhausted().then_some(out)
    }
}

/// The Θ(log n) deterministic biconnectivity scheme (Appendix E).
#[derive(Debug, Clone, Copy, Default)]
pub struct BiconnectivityPls;

impl BiconnectivityPls {
    /// Creates the scheme.
    #[must_use]
    pub fn new() -> Self {
        Self
    }
}

impl Pls for BiconnectivityPls {
    fn name(&self) -> String {
        "v2con".into()
    }

    fn label(&self, config: &Configuration) -> Labeling {
        let g = config.graph();
        let root = g
            .nodes()
            .min_by_key(|&v| config.state(v).id())
            .expect("nonempty graph");
        let dfs = traversal::dfs(g, root);
        // The paper's lowpt: min over the subtree of each node's minimum
        // neighbor preorder. Computed bottom-up in reverse preorder.
        let n = g.node_count();
        let mut lowpt = vec![u64::MAX; n];
        for &v in dfs.order.iter().rev() {
            let neighbormin = g
                .neighbors(v)
                .map(|nb| dfs.preorder[nb.node.index()].expect("connected") as u64)
                .min()
                .expect("positive degree");
            lowpt[v.index()] = lowpt[v.index()].min(neighbormin);
            if let Some(p) = dfs.parent[v.index()] {
                lowpt[p.index()] = lowpt[p.index()].min(lowpt[v.index()]);
            }
        }
        let w_id = config
            .states()
            .iter()
            .map(|s| bits_for(s.id()))
            .max()
            .unwrap_or(1);
        let w = bits_for(n as u64);
        let root_id = config.state(root).id();
        g.nodes()
            .map(|v| {
                let (lo, hi) = dfs.span[v.index()].expect("connected");
                BcLabel {
                    w_id,
                    w,
                    id_root: root_id,
                    dist: dfs.depth[v.index()].expect("connected") as u64,
                    preo: dfs.preorder[v.index()].expect("connected") as u64,
                    span_lo: lo as u64,
                    span_hi: hi as u64,
                    lowpt: lowpt[v.index()],
                }
                .encode()
            })
            .collect()
    }

    fn verify(&self, view: &DetView<'_>) -> bool {
        let Some(own) = BcLabel::decode(view.label) else {
            return false;
        };
        let mut nbs = Vec::with_capacity(view.neighbor_labels.len());
        for &l in &view.neighbor_labels {
            let Some(nl) = BcLabel::decode(l) else {
                return false;
            };
            // P1: agreement on the root id (and on the widths).
            if nl.id_root != own.id_root || nl.w != own.w || nl.w_id != own.w_id {
                return false;
            }
            nbs.push(nl);
        }
        // Biconnected graphs have minimum degree 2.
        if nbs.len() < 2 {
            return false;
        }
        // Structural sanity of the span interval.
        if own.span_lo != own.preo || own.span_hi <= own.span_lo {
            return false;
        }

        // P2 is vacuous for unsigned integers. P3:
        if own.dist == 0 {
            if own.id_root != view.local.state.id() || own.preo != 0 {
                return false;
            }
        } else {
            if view.local.state.id() == own.id_root {
                return false;
            }
            let parents = nbs.iter().filter(|nl| nl.dist == own.dist - 1).count();
            if parents != 1 {
                return false;
            }
        }

        // P5: no neighbor shares our depth.
        if nbs.iter().any(|nl| nl.dist == own.dist) {
            return false;
        }

        // P4: children spans partition span(v) ∖ {preo(v)}.
        let mut child_spans: Vec<(u64, u64)> = nbs
            .iter()
            .filter(|nl| nl.dist == own.dist + 1)
            .map(|nl| (nl.span_lo, nl.span_hi))
            .collect();
        child_spans.sort_unstable();
        let mut cursor = own.preo + 1;
        for (lo, hi) in &child_spans {
            if *lo != cursor || *hi <= *lo {
                return false;
            }
            cursor = *hi;
        }
        if cursor != own.span_hi {
            return false;
        }

        // P6: span containment matches depth ordering.
        for nl in &nbs {
            if nl.dist < own.dist {
                // An ancestor: our span strictly inside theirs.
                if !(nl.span_lo <= own.span_lo && own.span_hi <= nl.span_hi && nl.preo < own.preo) {
                    return false;
                }
            } else if !(own.span_lo <= nl.span_lo
                && nl.span_hi <= own.span_hi
                && own.preo < nl.preo)
            {
                return false;
            }
        }

        // P7: lowpt = min(childmin, neighbormin).
        let childmin = nbs
            .iter()
            .filter(|nl| nl.dist == own.dist + 1)
            .map(|nl| nl.lowpt)
            .min()
            .unwrap_or(u64::MAX);
        let neighbormin = nbs.iter().map(|nl| nl.preo).min().expect("degree >= 2");
        if own.lowpt != childmin.min(neighbormin) {
            return false;
        }

        // P8: the biconnectivity test itself.
        let children = nbs.iter().filter(|nl| nl.dist == own.dist + 1);
        if own.dist == 0 {
            children.count() <= 1
        } else {
            children.into_iter().all(|nl| nl.lowpt < own.preo)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rpls_core::engine;
    use rpls_core::{CompiledRpls, Rpls};
    use rpls_graph::generators;

    #[test]
    fn predicate_matches_ground_truth() {
        assert!(BiconnectivityPredicate.holds(&Configuration::plain(generators::cycle(5))));
        assert!(BiconnectivityPredicate.holds(&Configuration::plain(generators::wheel(9))));
        assert!(BiconnectivityPredicate.holds(&Configuration::plain(generators::complete(4))));
        assert!(!BiconnectivityPredicate.holds(&Configuration::plain(generators::path(5))));
        assert!(!BiconnectivityPredicate.holds(&Configuration::plain(generators::star(4))));
    }

    #[test]
    fn honest_labels_accepted_on_biconnected_graphs() {
        let mut rng = StdRng::seed_from_u64(13);
        let mut cases = vec![
            generators::cycle(5),
            generators::cycle(12),
            generators::wheel(9),
            generators::complete(6),
            generators::grid(3, 4),
        ];
        // Dense random graphs are almost surely biconnected; filter.
        for _ in 0..5 {
            let g = generators::gnp_connected(14, 0.5, &mut rng);
            if connectivity::is_biconnected(&g) {
                cases.push(g);
            }
        }
        for g in cases {
            assert!(connectivity::is_biconnected(&g), "test case must be legal");
            let c = Configuration::plain(g);
            let labeling = BiconnectivityPls.label(&c);
            let out = engine::run_deterministic(&BiconnectivityPls, &c, &labeling);
            assert!(out.accepted(), "rejecting: {:?}", out.rejecting_nodes());
        }
    }

    #[test]
    fn honest_labels_accepted_with_permuted_ids() {
        let g = generators::wheel(8);
        let c = Configuration::with_ids(g, &[70, 10, 50, 30, 80, 20, 60, 40]);
        let labeling = BiconnectivityPls.label(&c);
        assert!(engine::run_deterministic(&BiconnectivityPls, &c, &labeling).accepted());
    }

    #[test]
    fn honest_style_labels_rejected_on_path() {
        // A path is not biconnected: labeling it with its own DFS data must
        // fail P8 somewhere.
        let c = Configuration::plain(generators::path(6));
        let labeling = BiconnectivityPls.label(&c);
        assert!(!engine::run_deterministic(&BiconnectivityPls, &c, &labeling).accepted());
    }

    #[test]
    fn two_triangles_sharing_a_node_rejected() {
        let mut b = rpls_graph::GraphBuilder::new(5);
        for (u, v) in [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)] {
            b.add_edge(u, v).unwrap();
        }
        let c = Configuration::plain(b.finish().unwrap());
        assert!(!BiconnectivityPredicate.holds(&c));
        let labeling = BiconnectivityPls.label(&c);
        assert!(!engine::run_deterministic(&BiconnectivityPls, &c, &labeling).accepted());
        // Randomized forging also fails.
        let mut rng = StdRng::seed_from_u64(21);
        let report =
            rpls_core::adversary::random_forge(&BiconnectivityPls, &c, 40, 30, 400, &mut rng);
        assert!(!report.succeeded());
    }

    #[test]
    fn tampered_lowpt_rejected() {
        let c = Configuration::plain(generators::cycle(6));
        let mut labeling = BiconnectivityPls.label(&c);
        let mut lbl = BcLabel::decode(labeling.get(rpls_graph::NodeId::new(3)).as_slice()).unwrap();
        lbl.lowpt = lbl.lowpt.saturating_add(1);
        labeling.set(rpls_graph::NodeId::new(3), lbl.encode());
        assert!(!engine::run_deterministic(&BiconnectivityPls, &c, &labeling).accepted());
    }

    #[test]
    fn label_bits_are_logarithmic() {
        let small = BiconnectivityPls
            .label(&Configuration::plain(generators::cycle(8)))
            .max_bits();
        let large = BiconnectivityPls
            .label(&Configuration::plain(generators::cycle(512)))
            .max_bits();
        // n grew 64×; labels should grow by ~6 bits per log-field.
        assert!(large - small <= 6 * 6, "{small} -> {large}");
    }

    #[test]
    fn compiled_scheme_round_trip() {
        let c = Configuration::plain(generators::wheel(10));
        let scheme = CompiledRpls::new(BiconnectivityPls);
        let labeling = scheme.label(&c);
        let rec = engine::run_randomized(&scheme, &c, &labeling, 31);
        assert!(rec.outcome.accepted());
        assert!(rec.max_certificate_bits() <= 22);
    }

    #[test]
    fn label_round_trip() {
        let l = BcLabel {
            w_id: 8,
            w: 5,
            id_root: 200,
            dist: 3,
            preo: 7,
            span_lo: 7,
            span_hi: 12,
            lowpt: 1,
        };
        assert_eq!(BcLabel::decode(l.encode().as_slice()), Some(l));
        assert_eq!(BcLabel::decode(BitString::zeros(4).as_slice()), None);
    }
}
