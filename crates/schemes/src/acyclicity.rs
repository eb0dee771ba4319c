//! Acyclicity: the Θ(log n) scheme underlying the Theorem 5.1 lower bound.
//!
//! Over the family of connected graphs, *acyclic* means *tree*. The scheme
//! labels every node with `(id(r), d(v))` — the identity of a root chosen
//! by the prover and the tree distance to it. The verifier accepts iff all
//! neighbors agree on `id(r)` and the distances look like a tree from `v`'s
//! seat:
//!
//! * `d(v) = 0` ⟹ `id(v) = id(r)` and every neighbor has distance 1;
//! * `d(v) > 0` ⟹ exactly one neighbor has distance `d(v) − 1` and every
//!   other neighbor has distance `d(v) + 1`.
//!
//! Soundness: on any cycle all adjacent distance differences are forced to
//! ±1, so a maximum-distance node of the cycle sees two neighbors at
//! `d − 1` and rejects.

use rpls_bits::{BitReader, BitSlice, BitString, BitWriter};
use rpls_core::{Configuration, DetView, Labeling, Pls, Predicate};
use rpls_graph::{cycles, traversal};

const DIST_BITS: u32 = 32;
const ID_BITS: u32 = 64;

/// The acyclicity predicate (`G` is a forest).
#[derive(Debug, Clone, Copy, Default)]
pub struct AcyclicityPredicate;

impl AcyclicityPredicate {
    /// Creates the predicate.
    #[must_use]
    pub fn new() -> Self {
        Self
    }
}

impl Predicate for AcyclicityPredicate {
    fn name(&self) -> String {
        "acyclicity".into()
    }

    fn holds(&self, config: &Configuration) -> bool {
        cycles::is_forest(config.graph())
    }
}

/// The Θ(log n) deterministic acyclicity scheme for connected graphs.
#[derive(Debug, Clone, Copy, Default)]
pub struct AcyclicityPls;

impl AcyclicityPls {
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

impl Pls for AcyclicityPls {
    fn name(&self) -> String {
        "acyclicity".into()
    }

    fn label(&self, config: &Configuration) -> Labeling {
        // Root at the minimum-identity node; BFS = tree distance on trees.
        let g = config.graph();
        let root = g
            .nodes()
            .min_by_key(|&v| config.state(v).id())
            .expect("nonempty graph");
        let root_id = config.state(root).id();
        let bfs = traversal::bfs(g, root);
        g.nodes()
            .map(|v| {
                let d = bfs.dist[v.index()].expect("connected graph") as u64;
                encode_label(root_id, d)
            })
            .collect()
    }

    fn verify(&self, view: &DetView<'_>) -> bool {
        let Some((root_id, dist)) = decode_label(view.label) else {
            return false;
        };
        let mut below = 0usize;
        for &l in &view.neighbor_labels {
            let Some((rid, d)) = decode_label(l) else {
                return false;
            };
            if rid != root_id {
                return false;
            }
            if dist > 0 && d == dist - 1 {
                below += 1;
            } else if d != dist + 1 {
                return false;
            }
        }
        if dist == 0 {
            view.local.state.id() == root_id
        } else {
            below == 1
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
    use rpls_graph::NodeId;

    #[test]
    fn predicate_matches_ground_truth() {
        assert!(AcyclicityPredicate.holds(&Configuration::plain(generators::path(6))));
        assert!(
            AcyclicityPredicate.holds(&Configuration::plain(generators::balanced_binary_tree(3)))
        );
        assert!(!AcyclicityPredicate.holds(&Configuration::plain(generators::cycle(6))));
    }

    #[test]
    fn honest_labels_accepted_on_trees() {
        let mut rng = StdRng::seed_from_u64(5);
        for n in [2usize, 3, 10, 40] {
            let c = Configuration::plain(generators::random_tree(n, &mut rng));
            let labeling = AcyclicityPls.label(&c);
            assert!(
                engine::run_deterministic(&AcyclicityPls, &c, &labeling).accepted(),
                "n = {n}"
            );
        }
        // Also on paths with permuted ids (root = min id, not index 0).
        let c = Configuration::with_ids(generators::path(5), &[9, 3, 7, 1, 5]);
        let labeling = AcyclicityPls.label(&c);
        assert!(engine::run_deterministic(&AcyclicityPls, &c, &labeling).accepted());
    }

    #[test]
    fn cycles_cannot_be_certified_small_exhaustive() {
        // On C3 with 4-bit labels, no assignment fools the verifier.
        let c = Configuration::plain(generators::cycle(3));
        assert!(rpls_core::adversary::exhaustive_forge(&AcyclicityPls, &c, 4).is_none());
    }

    #[test]
    fn cycles_reject_honest_style_labels() {
        // Even distances computed from a BFS of the cycle get rejected.
        let c = Configuration::plain(generators::cycle(8));
        let labeling = AcyclicityPls.label(&c);
        assert!(!engine::run_deterministic(&AcyclicityPls, &c, &labeling).accepted());
    }

    #[test]
    fn max_node_on_cycle_rejects() {
        // Hand-build the fooling attempt from the soundness argument: label
        // around C4 with distances 0,1,2,1 — the node with distance 2 sees
        // two neighbors at 1 and rejects.
        let c = Configuration::plain(generators::cycle(4));
        let labeling: Labeling = [0u64, 1, 2, 1]
            .iter()
            .map(|&d| encode_label(0, d))
            .collect();
        let out = engine::run_deterministic(&AcyclicityPls, &c, &labeling);
        assert!(!out.accepted());
        assert!(out.rejecting_nodes().contains(&NodeId::new(2)));
    }

    #[test]
    fn compiled_certificates_are_loglog() {
        let c = Configuration::plain(generators::path(64));
        let scheme = CompiledRpls::new(AcyclicityPls);
        let labeling = scheme.label(&c);
        let rec = engine::run_randomized(&scheme, &c, &labeling, 9);
        assert!(rec.outcome.accepted());
        // κ = 96 bits → λ = 128 → p < 768 → cert ≤ 2·10 bits.
        assert!(rec.max_certificate_bits() <= 20);
    }

    #[test]
    fn disagreeing_root_ids_rejected() {
        let c = Configuration::plain(generators::path(4));
        let mut labeling = AcyclicityPls.label(&c);
        let (_, d) = decode_label(labeling.get(NodeId::new(2)).as_slice()).unwrap();
        labeling.set(NodeId::new(2), encode_label(42, d));
        assert!(!engine::run_deterministic(&AcyclicityPls, &c, &labeling).accepted());
    }
}
