//! Minimum spanning tree certification (Theorem 5.1).
//!
//! The spanning tree lives in the states as parent pointers (the output of
//! a distributed MST algorithm). The deterministic scheme follows the
//! Korman–Kutten–Peleg approach of certifying a Borůvka-style fragment
//! hierarchy, with `O(log² n)` label bits (`O(log n)` levels ×
//! `O(log n + log W)` bits per level); compiling it (Theorem 3.1) yields
//! `O(log log n)`-bit certificates, the upper bound of Theorem 5.1.
//!
//! # Label layout
//!
//! Besides a `(root id, depth)` pair certifying that the parent pointers
//! form a spanning tree `T`, each node carries one record per fragment
//! level ℓ:
//!
//! * `frag` — the identity of its fragment's leader (minimum id inside);
//! * `dist` — its distance to the leader *within* the fragment (tree
//!   edges), anchoring fragment connectivity;
//! * `mwoe` — the weight of the fragment's minimum-weight outgoing edge.
//!
//! # Soundness
//!
//! The verifier forces, for every claimed fragment `F` (a frag-id
//! equivalence class): `F` is connected (descending-`dist` chains end at
//! the unique node whose id equals the leader id), `mwoe` is constant on
//! `F`, and every edge leaving `F` weighs at least `mwoe`. Every tree edge
//! must, at the level its endpoints' fragments first coincide, have weight
//! **equal** to one side's `mwoe` — making it a minimum-weight edge across
//! the cut `(F, V∖F)`. A spanning tree all of whose edges are cut-minimal
//! is a minimum spanning tree (exchange argument), so no labeling can
//! certify a non-MST.

use crate::spanning_tree::{decode_pointer, encode_pointer, SpanningTreePredicate};
use rpls_bits::{bits_for, BitReader, BitSlice, BitString, BitWriter};
use rpls_core::{Configuration, DetView, Labeling, Pls, Predicate};
use rpls_graph::{mst as graph_mst, EdgeId, NodeId};

const WIDTH_BITS: u32 = 7;
const LEVEL_BITS: u32 = 8;

/// The MST predicate: the parent pointers form a spanning tree whose total
/// weight is minimum among all spanning trees.
#[derive(Debug, Clone, Copy, Default)]
pub struct MstPredicate;

impl MstPredicate {
    /// Creates the predicate.
    #[must_use]
    pub fn new() -> Self {
        Self
    }
}

/// Extracts the tree edges encoded by the parent pointers, or `None` if the
/// pointers are not a valid spanning tree.
#[must_use]
pub fn tree_edges(config: &Configuration) -> Option<Vec<EdgeId>> {
    if !SpanningTreePredicate.holds(config) {
        return None;
    }
    let g = config.graph();
    let mut edges = Vec::with_capacity(g.node_count().saturating_sub(1));
    for v in g.nodes() {
        if let Some(Some(port)) = decode_pointer(config.state(v).payload()) {
            edges.push(g.neighbor_by_port(v, port)?.edge);
        }
    }
    edges.sort_unstable();
    edges.dedup();
    (edges.len() + 1 == g.node_count()).then_some(edges)
}

impl Predicate for MstPredicate {
    fn name(&self) -> String {
        "mst".into()
    }

    fn holds(&self, config: &Configuration) -> bool {
        let Some(edges) = tree_edges(config) else {
            return false;
        };
        graph_mst::is_mst(config.graph(), &edges).unwrap_or(false)
    }
}

/// Builds a legal MST workload: computes the (tie-broken) minimum spanning
/// tree of the weighted graph and installs it as parent pointers rooted at
/// the minimum-id node.
///
/// # Panics
///
/// Panics if the graph is unweighted or disconnected.
#[must_use]
pub fn mst_config(config: &Configuration) -> Configuration {
    let g = config.graph();
    let tree = graph_mst::kruskal(g).expect("weighted connected graph");
    install_tree(config, &tree)
}

/// Installs an explicit spanning tree as parent pointers (rooted at the
/// minimum-id node). Used by tests to install non-minimal trees.
///
/// # Panics
///
/// Panics if `tree` is not a spanning tree of the graph.
#[must_use]
pub fn install_tree(config: &Configuration, tree: &[EdgeId]) -> Configuration {
    let g = config.graph();
    assert!(
        graph_mst::is_spanning_tree(g, tree),
        "edge set must be a spanning tree"
    );
    let in_tree: std::collections::HashSet<EdgeId> = tree.iter().copied().collect();
    let root = g
        .nodes()
        .min_by_key(|&v| config.state(v).id())
        .expect("nonempty graph");
    // BFS over tree edges only.
    let mut parent_port: Vec<Option<rpls_graph::Port>> = vec![None; g.node_count()];
    let mut visited = vec![false; g.node_count()];
    let mut queue = std::collections::VecDeque::from([root]);
    visited[root.index()] = true;
    while let Some(v) = queue.pop_front() {
        for nb in g.neighbors(v) {
            if in_tree.contains(&nb.edge) && !visited[nb.node.index()] {
                visited[nb.node.index()] = true;
                parent_port[nb.node.index()] = Some(nb.remote_port);
                queue.push_back(nb.node);
            }
        }
    }
    let mut out = config.clone();
    for v in g.nodes() {
        let pointer = if v == root {
            encode_pointer(None)
        } else {
            encode_pointer(Some(parent_port[v.index()].expect("spanning tree")))
        };
        out.state_mut(v).set_payload(pointer);
    }
    out
}

/// One per-level record in a label.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct LevelRecord {
    frag: u64,
    dist: u64,
    mwoe: u64, // unused at the final level
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct MstLabel {
    w_id: u32,
    w_dist: u32,
    w_weight: u32,
    root_id: u64,
    depth: u64,
    levels: Vec<LevelRecord>, // length L + 1; last record's mwoe unused
}

impl MstLabel {
    fn encode(&self) -> BitString {
        let mut w = BitWriter::new();
        w.write_u64(u64::from(self.w_id), WIDTH_BITS);
        w.write_u64(u64::from(self.w_dist), WIDTH_BITS);
        w.write_u64(u64::from(self.w_weight), WIDTH_BITS);
        w.write_u64(self.levels.len() as u64 - 1, LEVEL_BITS);
        w.write_u64(self.root_id, self.w_id);
        w.write_u64(self.depth, self.w_dist);
        for (i, rec) in self.levels.iter().enumerate() {
            w.write_u64(rec.frag, self.w_id);
            w.write_u64(rec.dist, self.w_dist);
            if i + 1 < self.levels.len() {
                w.write_u64(rec.mwoe, self.w_weight);
            }
        }
        w.finish()
    }

    fn decode(bits: BitSlice<'_>) -> Option<Self> {
        let mut r = BitReader::from_slice(bits);
        let w_id = u32::try_from(r.read_u64(WIDTH_BITS).ok()?).ok()?;
        let w_dist = u32::try_from(r.read_u64(WIDTH_BITS).ok()?).ok()?;
        let w_weight = u32::try_from(r.read_u64(WIDTH_BITS).ok()?).ok()?;
        if w_id == 0 || w_id > 64 || w_dist == 0 || w_dist > 64 || w_weight == 0 || w_weight > 64 {
            return None;
        }
        let levels_minus_1 = r.read_u64(LEVEL_BITS).ok()? as usize;
        let root_id = r.read_u64(w_id).ok()?;
        let depth = r.read_u64(w_dist).ok()?;
        let mut levels = Vec::with_capacity(levels_minus_1 + 1);
        for i in 0..=levels_minus_1 {
            let frag = r.read_u64(w_id).ok()?;
            let dist = r.read_u64(w_dist).ok()?;
            let mwoe = if i < levels_minus_1 {
                r.read_u64(w_weight).ok()?
            } else {
                0
            };
            levels.push(LevelRecord { frag, dist, mwoe });
        }
        r.is_exhausted().then_some(Self {
            w_id,
            w_dist,
            w_weight,
            root_id,
            depth,
            levels,
        })
    }
}

/// The `O(log² n)`-bit deterministic MST scheme.
#[derive(Debug, Clone, Copy, Default)]
pub struct MstPls;

impl MstPls {
    /// Creates the scheme.
    #[must_use]
    pub fn new() -> Self {
        Self
    }
}

impl Pls for MstPls {
    fn name(&self) -> String {
        "mst".into()
    }

    fn label(&self, config: &Configuration) -> Labeling {
        let g = config.graph();
        let n = g.node_count();
        let tree = tree_edges(config).expect("legal MST configuration");
        let in_tree: std::collections::HashSet<EdgeId> = tree.iter().copied().collect();

        // Widths shared by all labels.
        let w_id = config
            .states()
            .iter()
            .map(|s| bits_for(s.id()))
            .max()
            .unwrap_or(1);
        let w_dist = bits_for(n as u64);
        let w_weight = g
            .edges()
            .map(|(_, r)| bits_for(r.weight.expect("weighted graph")))
            .max()
            .unwrap_or(1);

        // Spanning-tree part: root and depths.
        let root = g
            .nodes()
            .min_by_key(|&v| config.state(v).id())
            .expect("nonempty graph");
        let root_id = config.state(root).id();
        let tree_bfs = bfs_over_edges(g, root, &in_tree);

        // Fragment hierarchy: start from singletons, merge along each
        // fragment's minimum-weight outgoing tree edge.
        let mut uf = rpls_graph::unionfind::UnionFind::new(n);
        let mut levels_per_node: Vec<Vec<LevelRecord>> = vec![Vec::new(); n];
        loop {
            let frag_of: Vec<usize> = (0..n).map(|v| uf.find(v)).collect();
            // Leader id = min id per fragment.
            let mut leader_id: std::collections::HashMap<usize, u64> =
                std::collections::HashMap::new();
            for v in g.nodes() {
                let f = frag_of[v.index()];
                let id = config.state(v).id();
                leader_id
                    .entry(f)
                    .and_modify(|m| *m = (*m).min(id))
                    .or_insert(id);
            }
            // Distances to leader within fragment (tree edges only).
            let mut dist = vec![u64::MAX; n];
            for v in g.nodes() {
                if config.state(v).id() == leader_id[&frag_of[v.index()]] {
                    fragment_bfs(g, v, &frag_of, &in_tree, &mut dist);
                }
            }
            // Minimum-weight outgoing edge (weight, edge id) per fragment.
            let mut mwoe: std::collections::HashMap<usize, (u64, EdgeId)> =
                std::collections::HashMap::new();
            for (eid, rec) in g.edges() {
                let (fu, fv) = (frag_of[rec.u.index()], frag_of[rec.v.index()]);
                if fu == fv {
                    continue;
                }
                let key = (rec.weight.expect("weighted"), eid);
                for f in [fu, fv] {
                    match mwoe.get(&f) {
                        Some(&best) if best <= key => {}
                        _ => {
                            mwoe.insert(f, key);
                        }
                    }
                }
            }
            let done = mwoe.is_empty();
            for v in g.nodes() {
                let f = frag_of[v.index()];
                levels_per_node[v.index()].push(LevelRecord {
                    frag: leader_id[&f],
                    dist: dist[v.index()],
                    mwoe: mwoe.get(&f).map_or(0, |&(w, _)| w),
                });
            }
            if done {
                break;
            }
            // Merge along each fragment's minimum-weight outgoing *tree*
            // edge of the same weight (exists because the tree is an MST).
            for (&f, &(w, _)) in &mwoe {
                let chosen = g
                    .edges()
                    .filter(|&(eid, rec)| {
                        in_tree.contains(&eid) && rec.weight == Some(w) && {
                            let (a, b) = (frag_of[rec.u.index()], frag_of[rec.v.index()]);
                            (a == f) != (b == f)
                        }
                    })
                    .min_by_key(|&(eid, _)| eid)
                    .expect("an MST achieves the minimum outgoing weight with a tree edge");
                let rec = g.edge(chosen.0);
                uf.union(rec.u.index(), rec.v.index());
            }
        }

        g.nodes()
            .map(|v| {
                MstLabel {
                    w_id,
                    w_dist,
                    w_weight,
                    root_id,
                    depth: tree_bfs[v.index()].expect("spanning tree") as u64,
                    levels: levels_per_node[v.index()].clone(),
                }
                .encode()
            })
            .collect()
    }

    fn verify(&self, view: &DetView<'_>) -> bool {
        let Some(own) = MstLabel::decode(view.label) else {
            return false;
        };
        let mut neighbors = Vec::with_capacity(view.neighbor_labels.len());
        for &l in &view.neighbor_labels {
            let Some(nl) = MstLabel::decode(l) else {
                return false;
            };
            if nl.levels.len() != own.levels.len()
                || nl.w_id != own.w_id
                || nl.w_dist != own.w_dist
                || nl.w_weight != own.w_weight
                || nl.root_id != own.root_id
            {
                return false;
            }
            neighbors.push(nl);
        }
        let my_id = view.local.state.id();
        let parent_port = match decode_pointer(view.local.state.payload()) {
            Some(p) => p,
            None => return false,
        };

        // V2: spanning-tree certificate.
        match parent_port {
            None => {
                if own.depth != 0 || my_id != own.root_id {
                    return false;
                }
            }
            Some(port) => {
                let Some(parent) = neighbors.get(port.rank()) else {
                    return false;
                };
                if own.depth == 0 || parent.depth != own.depth - 1 || my_id == own.root_id {
                    return false;
                }
            }
        }

        let last = own.levels.len() - 1;
        // V3: per-level fragment certificates.
        for (l, rec) in own.levels.iter().enumerate() {
            // Level-0 fragments are singletons.
            if l == 0 && rec.frag != my_id {
                return false;
            }
            if rec.dist == 0 {
                if rec.frag != my_id {
                    return false;
                }
            } else {
                // Some same-fragment neighbor is closer to the leader.
                let witness = neighbors
                    .iter()
                    .any(|nl| nl.levels[l].frag == rec.frag && nl.levels[l].dist == rec.dist - 1);
                if !witness {
                    return false;
                }
            }
            if l < last {
                for (p, nl) in neighbors.iter().enumerate() {
                    if nl.levels[l].frag == rec.frag {
                        // mwoe constant across the fragment.
                        if nl.levels[l].mwoe != rec.mwoe {
                            return false;
                        }
                    } else {
                        // Outgoing edges weigh at least the fragment's mwoe.
                        let Some(Some(w)) = view.local.incident_weights.get(p) else {
                            return false;
                        };
                        if *w < rec.mwoe {
                            return false;
                        }
                    }
                }
            }
        }

        // V4: final level is one global fragment.
        if neighbors
            .iter()
            .any(|nl| nl.levels[last].frag != own.levels[last].frag)
        {
            return false;
        }

        // V5: the parent edge is cut-minimal at its merge level.
        if let Some(port) = parent_port {
            let parent = &neighbors[port.rank()];
            let Some(merge_level) =
                (0..=last).find(|&l| parent.levels[l].frag == own.levels[l].frag)
            else {
                return false;
            };
            if merge_level == 0 {
                return false; // level-0 fragments are singletons
            }
            let Some(Some(w)) = view.local.incident_weights.get(port.rank()) else {
                return false;
            };
            let l = merge_level - 1;
            if *w != own.levels[l].mwoe && *w != parent.levels[l].mwoe {
                return false;
            }
        }
        true
    }
}

/// BFS distances from `root` restricted to the given edge set.
fn bfs_over_edges(
    g: &rpls_graph::Graph,
    root: NodeId,
    allowed: &std::collections::HashSet<EdgeId>,
) -> Vec<Option<usize>> {
    let mut dist = vec![None; g.node_count()];
    dist[root.index()] = Some(0);
    let mut queue = std::collections::VecDeque::from([root]);
    while let Some(v) = queue.pop_front() {
        let d = dist[v.index()].expect("queued");
        for nb in g.neighbors(v) {
            if allowed.contains(&nb.edge) && dist[nb.node.index()].is_none() {
                dist[nb.node.index()] = Some(d + 1);
                queue.push_back(nb.node);
            }
        }
    }
    dist
}

/// Fills `dist` with tree distances from `leader`, staying within its
/// fragment.
fn fragment_bfs(
    g: &rpls_graph::Graph,
    leader: NodeId,
    frag_of: &[usize],
    in_tree: &std::collections::HashSet<EdgeId>,
    dist: &mut [u64],
) {
    dist[leader.index()] = 0;
    let mut queue = std::collections::VecDeque::from([leader]);
    while let Some(v) = queue.pop_front() {
        let d = dist[v.index()];
        for nb in g.neighbors(v) {
            if in_tree.contains(&nb.edge)
                && frag_of[nb.node.index()] == frag_of[leader.index()]
                && dist[nb.node.index()] == u64::MAX
            {
                dist[nb.node.index()] = d + 1;
                queue.push_back(nb.node);
            }
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

    fn weighted_config(n: usize, seed: u64) -> Configuration {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = generators::gnp_connected(n, 0.3, &mut rng);
        let w = generators::distinct_weights(&g, &mut rng);
        Configuration::plain(g.with_weights(&w))
    }

    #[test]
    fn predicate_accepts_true_mst() {
        let c = mst_config(&weighted_config(12, 1));
        assert!(MstPredicate.holds(&c));
    }

    #[test]
    fn predicate_rejects_non_minimal_tree() {
        // Cycle with one heavy edge: the tree containing it is not minimal.
        let g = generators::cycle(5).with_weights(&[1, 2, 3, 4, 100]);
        let base = Configuration::plain(g);
        let heavy_tree: Vec<EdgeId> = vec![
            EdgeId::new(0),
            EdgeId::new(1),
            EdgeId::new(2),
            EdgeId::new(4),
        ];
        let c = install_tree(&base, &heavy_tree);
        assert!(!MstPredicate.holds(&c));
        // The honest MST on the same graph passes.
        assert!(MstPredicate.holds(&mst_config(&base)));
    }

    #[test]
    fn honest_labels_accepted() {
        for seed in 0..5 {
            let c = mst_config(&weighted_config(15, seed));
            let labeling = MstPls.label(&c);
            let out = engine::run_deterministic(&MstPls, &c, &labeling);
            assert!(out.accepted(), "seed {seed}: {:?}", out.rejecting_nodes());
        }
    }

    #[test]
    fn honest_labels_accepted_with_ties() {
        // Uniform weights: everything is an MST; certification must work.
        let mut rng = StdRng::seed_from_u64(9);
        let g = generators::gnp_connected(12, 0.4, &mut rng).with_uniform_weights(7);
        let c = mst_config(&Configuration::plain(g));
        let labeling = MstPls.label(&c);
        assert!(engine::run_deterministic(&MstPls, &c, &labeling).accepted());
    }

    #[test]
    fn non_minimal_tree_rejected_under_honest_style_labels() {
        // Install a non-minimal tree, then try to label it with the honest
        // labeler of a configuration that *claims* it is fine: the verifier
        // must reject because the parent edge is not cut-minimal.
        let g = generators::cycle(5).with_weights(&[1, 2, 3, 4, 100]);
        let base = Configuration::plain(g);
        let bad = install_tree(
            &base,
            &[
                EdgeId::new(0),
                EdgeId::new(1),
                EdgeId::new(2),
                EdgeId::new(4),
            ],
        );
        // Labels must exist even for illegal configs to run the verifier;
        // reuse the honest labeler of the *good* configuration (same graph).
        let good = mst_config(&base);
        let labeling = MstPls.label(&good);
        let out = engine::run_deterministic(&MstPls, &bad, &labeling);
        assert!(!out.accepted());
    }

    #[test]
    fn random_forging_fails_on_non_mst() {
        let g = generators::cycle(4).with_weights(&[1, 1, 1, 50]);
        let base = Configuration::plain(g);
        let bad = install_tree(&base, &[EdgeId::new(0), EdgeId::new(1), EdgeId::new(3)]);
        assert!(!MstPredicate.holds(&bad));
        let mut rng = StdRng::seed_from_u64(3);
        let report = rpls_core::adversary::random_forge(&MstPls, &bad, 40, 30, 300, &mut rng);
        assert!(!report.succeeded(), "forged a non-MST certificate");
    }

    #[test]
    fn label_bits_are_polylog() {
        // n = 32 with poly(n) weights: labels should be well under n bits
        // (the hierarchy has ≤ log n levels of ~3 log n bits each).
        let c = mst_config(&weighted_config(32, 4));
        let labeling = MstPls.label(&c);
        let bits = labeling.max_bits();
        assert!(bits < 300, "label bits = {bits}");
        assert!(bits > 20, "label bits suspiciously small: {bits}");
    }

    #[test]
    fn multiround_schedule_certifies_mst() {
        use rpls_core::engine::RunSpec;
        let c = mst_config(&weighted_config(16, 8));
        let scheme = CompiledRpls::new(MstPls);
        let labeling = Rpls::label(&scheme, &c);
        // Honest MST labels verify in t rounds for every schedule length,
        // with per-round bits non-increasing in t.
        let mut last = usize::MAX;
        for rounds in [1usize, 2, 4, 8, 16] {
            let report = engine::run(
                &RunSpec::trial(5).with_rounds(rounds),
                &scheme,
                &c,
                &labeling,
            );
            assert!(report.accepted, "t = {rounds}");
            assert!(report.max_bits_per_round <= last);
            last = report.max_bits_per_round;
        }
        // A corrupted replica is still rejected with good probability
        // under the t = 4 chunked-fingerprint schedule, and the
        // rejection-round histogram decides no later than round 4.
        let mut tampered = labeling.clone();
        let node = rpls_graph::NodeId::new(3);
        let target = tampered.get(node).len() / 2;
        let flipped: rpls_bits::BitString = tampered
            .get(node)
            .iter()
            .enumerate()
            .map(|(i, b)| if i == target { !b } else { b })
            .collect();
        tampered.set(node, flipped);
        let spec = RunSpec::trial(2).with_rounds(4);
        let opts = rpls_core::stats::EstimateOpts::new(300);
        let est = rpls_core::stats::estimate(&scheme, &c, &tampered, &spec, &opts);
        let rejects = est.trials - est.accepts;
        assert!(rejects > 150, "rejects = {rejects}");
        assert!(est.quantile_reject_round(1.0) <= Some(4));
    }

    #[test]
    fn compiled_mst_certificates_are_tiny() {
        let c = mst_config(&weighted_config(24, 8));
        let scheme = CompiledRpls::new(MstPls);
        let labeling = scheme.label(&c);
        let rec = engine::run_randomized(&scheme, &c, &labeling, 77);
        assert!(rec.outcome.accepted());
        let det = MstPls.label(&c).max_bits();
        let cert = rec.max_certificate_bits();
        assert!(
            cert * 3 < det,
            "expected strong compression, got {det} -> {cert}"
        );
    }

    #[test]
    fn label_round_trip() {
        let label = MstLabel {
            w_id: 7,
            w_dist: 6,
            w_weight: 10,
            root_id: 3,
            depth: 2,
            levels: vec![
                LevelRecord {
                    frag: 3,
                    dist: 0,
                    mwoe: 17,
                },
                LevelRecord {
                    frag: 1,
                    dist: 4,
                    mwoe: 0,
                },
            ],
        };
        let decoded = MstLabel::decode(label.encode().as_slice()).unwrap();
        assert_eq!(decoded, label);
        assert!(MstLabel::decode(BitString::zeros(5).as_slice()).is_none());
    }

    #[test]
    fn tree_edges_extraction() {
        let c = mst_config(&weighted_config(10, 2));
        let edges = tree_edges(&c).unwrap();
        assert_eq!(edges.len(), 9);
        assert!(graph_mst::is_spanning_tree(c.graph(), &edges));
    }
}
