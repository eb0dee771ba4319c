//! Property-based tests (proptest) on the core invariants.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rpls::bits::{BitReader, BitString, BitWriter};
use rpls::core::{engine, Configuration, Pls};
use rpls::fingerprint::EqProtocol;
use rpls::graph::crossing::cross_copies;
use rpls::graph::{connectivity, cycles, generators, mst, NodeId};

proptest! {
    /// BitString: pushing bools then iterating returns the same sequence.
    #[test]
    fn bitstring_round_trip(bits in proptest::collection::vec(any::<bool>(), 0..200)) {
        let s = BitString::from_bools(bits.clone());
        prop_assert_eq!(s.len(), bits.len());
        let back: Vec<bool> = s.iter().collect();
        prop_assert_eq!(back, bits);
    }

    /// BitWriter/BitReader: arbitrary (value, width) sequences round-trip.
    #[test]
    fn bit_fields_round_trip(fields in proptest::collection::vec((any::<u64>(), 1u32..=64), 1..20)) {
        let mut w = BitWriter::new();
        let mut expect = Vec::new();
        for (value, width) in &fields {
            let masked = if *width == 64 { *value } else { value & ((1u64 << width) - 1) };
            w.write_u64(masked, *width);
            expect.push((masked, *width));
        }
        let s = w.finish();
        let mut r = BitReader::new(&s);
        for (value, width) in expect {
            prop_assert_eq!(r.read_u64(width).unwrap(), value);
        }
        prop_assert!(r.is_exhausted());
    }

    /// Truncation is a prefix: every surviving bit matches the original.
    #[test]
    fn truncation_is_prefix(bits in proptest::collection::vec(any::<bool>(), 0..100), cut in 0usize..120) {
        let s = BitString::from_bools(bits);
        let t = s.truncated(cut);
        prop_assert_eq!(t.len(), s.len().min(cut));
        for i in 0..t.len() {
            prop_assert_eq!(t.bit(i), s.bit(i));
        }
    }

    /// The equality protocol never rejects equal inputs (one-sidedness),
    /// for arbitrary strings and seeds.
    #[test]
    fn eq_protocol_completeness(bits in proptest::collection::vec(any::<bool>(), 1..300), seed in any::<u64>()) {
        let s = BitString::from_bools(bits);
        let proto = EqProtocol::for_length(s.len());
        let mut rng = StdRng::seed_from_u64(seed);
        let msg = proto.alice_message(&s, &mut rng);
        prop_assert!(proto.bob_accepts(&s, &msg));
    }

    /// Random connected graphs: Kruskal and Borůvka agree, and the result
    /// is a spanning tree.
    #[test]
    fn kruskal_boruvka_agree(n in 3usize..24, p in 0.05f64..0.6, seed in any::<u64>(), maxw in 1u64..32) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = generators::gnp_connected(n, p, &mut rng);
        let w = generators::random_weights(&g, maxw, &mut rng);
        let g = g.with_weights(&w);
        let k = mst::kruskal(&g).unwrap();
        let b = mst::boruvka(&g).unwrap();
        prop_assert_eq!(&k, &b.tree_edges);
        prop_assert!(mst::is_spanning_tree(&g, &k));
        prop_assert!(mst::is_mst(&g, &k).unwrap());
    }

    /// Crossing preserves the degree sequence and the port layout at every
    /// node, for any valid pair of independent path copies.
    #[test]
    fn crossing_preserves_local_structure(n in 9usize..60, i in 0usize..8, j in 0usize..8) {
        let g = generators::path(n);
        let r = n / 3 - 1;
        prop_assume!(r >= 2);
        let (i, j) = (i % r, j % r);
        prop_assume!(i != j);
        let edges: Vec<(NodeId, NodeId)> = (1..n / 3)
            .map(|t| (NodeId::new(3 * t), NodeId::new(3 * t + 1)))
            .collect();
        let fam = rpls::graph::crossing::IndependentCopies::single_edges(&g, &edges).unwrap();
        let crossed = cross_copies(&g, &fam, i, j).unwrap();
        prop_assert_eq!(g.node_count(), crossed.node_count());
        prop_assert_eq!(g.edge_count(), crossed.edge_count());
        for v in g.nodes() {
            prop_assert_eq!(g.degree(v), crossed.degree(v));
        }
        // Crossing two distinct path edges always creates a cycle.
        prop_assert!(cycles::has_cycle(&crossed));
    }

    /// The universal encoding round-trips arbitrary connected graphs.
    #[test]
    fn universal_encoding_round_trip(n in 2usize..24, p in 0.0f64..0.5, seed in any::<u64>()) {
        use rpls::core::universal::{decode_configuration, encode_configuration};
        let mut rng = StdRng::seed_from_u64(seed);
        let g = generators::gnp_connected(n, p, &mut rng);
        let config = Configuration::plain(g);
        let enc = encode_configuration(&config);
        let dec = decode_configuration(enc.as_slice()).expect("decodes");
        prop_assert_eq!(dec.node_count(), config.node_count());
        prop_assert_eq!(
            dec.graph().sorted_edge_list(),
            config.graph().sorted_edge_list()
        );
    }

    /// The acyclicity scheme is complete on arbitrary random trees with
    /// arbitrary identity assignments.
    #[test]
    fn acyclicity_complete_on_random_trees(n in 2usize..40, seed in any::<u64>()) {
        use rpls::schemes::acyclicity::AcyclicityPls;
        let mut rng = StdRng::seed_from_u64(seed);
        let g = generators::random_tree(n, &mut rng);
        // Shuffled ids.
        let mut ids: Vec<u64> = (0..n as u64).map(|i| i * 7 + 3).collect();
        for i in (1..n).rev() {
            use rand::RngExt;
            let j = rng.random_range(0..=i);
            ids.swap(i, j);
        }
        let config = Configuration::with_ids(g, &ids);
        let labels = AcyclicityPls.label(&config);
        prop_assert!(engine::run_deterministic(&AcyclicityPls, &config, &labels).accepted());
    }

    /// BFS and DFS reach every node of a connected graph, and DFS spans
    /// nest properly.
    #[test]
    fn traversals_cover_connected_graphs(n in 2usize..30, p in 0.05f64..0.5, seed in any::<u64>()) {
        use rpls::graph::traversal;
        let mut rng = StdRng::seed_from_u64(seed);
        let g = generators::gnp_connected(n, p, &mut rng);
        prop_assert!(connectivity::is_connected(&g));
        let bfs = traversal::bfs(&g, NodeId::new(0));
        prop_assert_eq!(bfs.reached_count(), n);
        let dfs = traversal::dfs(&g, NodeId::new(0));
        prop_assert_eq!(dfs.order.len(), n);
        for v in g.nodes() {
            let (lo, hi) = dfs.span[v.index()].unwrap();
            prop_assert_eq!(lo, dfs.preorder[v.index()].unwrap());
            prop_assert!(hi > lo);
        }
    }

    /// Biconnectivity scheme completeness on random biconnected graphs
    /// (dense G(n, p) conditioned on biconnectivity).
    #[test]
    fn biconnectivity_complete_on_random_biconnected(n in 4usize..20, seed in any::<u64>()) {
        use rpls::schemes::biconnectivity::BiconnectivityPls;
        let mut rng = StdRng::seed_from_u64(seed);
        let g = generators::gnp_connected(n, 0.6, &mut rng);
        prop_assume!(connectivity::is_biconnected(&g));
        let config = Configuration::plain(g);
        let labels = BiconnectivityPls.label(&config);
        let out = engine::run_deterministic(&BiconnectivityPls, &config, &labels);
        prop_assert!(out.accepted(), "rejecting: {:?}", out.rejecting_nodes());
    }
}
