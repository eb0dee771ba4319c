//! Property coverage for the dense-graph machinery: the degree-bucketed
//! CSR ([`DegreeBuckets`]) and the per-node probe sketch
//! ([`ProbeSketch`]).
//!
//! The load-bearing property is the **soundness oracle**: a sketched
//! verifier evaluates a *subset* of the full plan's edge checks at the
//! *same* probe points (the sketch draws indices from its own stream, so
//! probe values are untouched), hence a sketched **rejection implies a
//! full-probe rejection on the same seed**. One-sidedness survives
//! subsampling; only the detection probability shrinks.

use proptest::prelude::*;
use rpls::bits::BitString;
use rpls::core::engine::{self, RunSpec};
use rpls::core::{
    CompiledRpls, Configuration, DegreeBuckets, Labeling, ProbeSketch, RoundScratch, Rpls,
};
use rpls::graph::{generators, GraphBuilder, NodeId};
use rpls::schemes::spanning_tree::{spanning_tree_config, SpanningTreePls};

// ---------------------------------------------------------------------------
// DegreeBuckets: power-of-two bucketed CSR over node degrees.
// ---------------------------------------------------------------------------

proptest! {
    /// On arbitrary random graphs (isolated nodes included), the bucketed
    /// CSR is a partition: `order` is a permutation of the nodes, every
    /// node lands in the bucket its degree dictates, and bucket `b ≥ 2`
    /// holds exactly the degrees in `(2^(b-2), 2^(b-1)]`.
    #[test]
    fn degree_buckets_partition_random_graphs(
        n in 1usize..48,
        raw_edges in proptest::collection::vec((any::<u16>(), any::<u16>()), 0..160),
    ) {
        let mut b = GraphBuilder::new(n);
        for (u, v) in raw_edges {
            let (u, v) = (u as usize % n, v as usize % n);
            if u != v {
                // Duplicate edges are rejected by the builder; skipping the
                // error keeps the generator unconstrained.
                let _ = b.add_edge(NodeId::new(u), NodeId::new(v));
            }
        }
        let g = b.finish().expect("auto-assigned ports never collide");

        let buckets = DegreeBuckets::new(&g);

        // Permutation: every node exactly once across all buckets.
        let mut seen = vec![false; n];
        for u in buckets.iter_by_bucket() {
            prop_assert!(!seen[u as usize], "node {u} appears twice");
            seen[u as usize] = true;
        }
        prop_assert!(seen.iter().all(|&s| s), "some node missing from the CSR");

        // Membership matches the degree formula, and the formula matches
        // the power-of-two band.
        for bucket in 0..buckets.bucket_count() {
            for &u in buckets.bucket(bucket) {
                let d = g.degree(NodeId::new(u as usize));
                prop_assert_eq!(DegreeBuckets::bucket_of_degree(d), bucket);
                match bucket {
                    0 => prop_assert_eq!(d, 0),
                    1 => prop_assert_eq!(d, 1),
                    b => {
                        let lo = 1usize << (b - 2);
                        let hi = 1usize << (b - 1);
                        prop_assert!(lo < d && d <= hi,
                            "degree {d} outside ({lo}, {hi}] for bucket {b}");
                    }
                }
            }
        }
    }

    /// Boundary degrees 0, 1 and Δ: a star plus isolated nodes puts each
    /// where the formula says, for any star size.
    #[test]
    fn degree_bucket_boundaries_on_star_with_isolates(
        leaves in 1usize..40,
        isolates in 0usize..5,
    ) {
        let n = 1 + leaves + isolates;
        let mut b = GraphBuilder::new(n);
        for l in 0..leaves {
            b.add_edge(NodeId::new(0), NodeId::new(1 + l)).unwrap();
        }
        let g = b.finish().unwrap();
        let buckets = DegreeBuckets::new(&g);

        // Hub: degree Δ = leaves.
        let hub_bucket = DegreeBuckets::bucket_of_degree(leaves);
        prop_assert!(buckets.bucket(hub_bucket).contains(&0));
        // Leaves: degree 1 → bucket 1.
        prop_assert_eq!(buckets.bucket(1).len(), leaves + usize::from(leaves == 1));
        // Isolates: degree 0 → bucket 0.
        prop_assert_eq!(buckets.bucket(0).len(), isolates);
        // The engine sweeps cheap buckets first: hub comes last whenever
        // it is strictly the heaviest node.
        if leaves > 1 {
            prop_assert_eq!(buckets.iter_by_bucket().last(), Some(0));
        }
    }
}

// ---------------------------------------------------------------------------
// ProbeSketch: subsampled probes keep one-sided soundness.
// ---------------------------------------------------------------------------

/// Per-trial accept bits for `scheme` over `seeds`, via the batched kernel.
fn trial_verdicts<S: Rpls + ?Sized>(
    scheme: &S,
    config: &Configuration,
    labeling: &Labeling,
    seeds: &[u64],
) -> Vec<bool> {
    let prepared = scheme.prepare(config, labeling, seeds.len());
    let mut scratch = RoundScratch::new();
    let mut out = Vec::with_capacity(seeds.len());
    engine::run_trials(
        &RunSpec::trial(0),
        &*prepared,
        config,
        seeds,
        &mut scratch,
        &mut |s| out.push(s.accepted),
    );
    out
}

fn flip_label_bit(labeling: &Labeling, node: usize) -> Labeling {
    let mut out = labeling.clone();
    let old = out.get(NodeId::new(node));
    let mid = old.len() / 2;
    let flipped: BitString = old
        .iter()
        .enumerate()
        .map(|(i, b)| if i == mid { !b } else { b })
        .collect();
    out.set(NodeId::new(node), flipped);
    out
}

proptest! {
    /// The soundness oracle. On dense graphs where the sketch genuinely
    /// subsamples (degree > budget), for arbitrary tampered labelings and
    /// seeds: a trial the FULL verifier rejects may still slip past the
    /// sketch, but a trial the SKETCH rejects is always rejected by the
    /// full verifier too — per trial, full acceptance ⟹ sketched
    /// acceptance.
    #[test]
    fn sketched_rejection_implies_full_probe_rejection(
        n in 6usize..18,
        budget in 1usize..4,
        victim in any::<u16>(),
        base_seed in any::<u64>(),
    ) {
        let config = spanning_tree_config(
            &Configuration::plain(generators::complete(n)),
            NodeId::new(0),
        );
        let full = CompiledRpls::new(SpanningTreePls::new()).force_dynamic();
        let sketched = CompiledRpls::new(SpanningTreePls::new())
            .force_dynamic()
            .with_sketch(ProbeSketch::new(budget));
        let honest = Rpls::label(&full, &config);
        let tampered = flip_label_bit(&honest, victim as usize % n);

        let seeds: Vec<u64> = (0..48).map(|i| base_seed.wrapping_add(i)).collect();
        let full_ok = trial_verdicts(&full, &config, &tampered, &seeds);
        let sketch_ok = trial_verdicts(&sketched, &config, &tampered, &seeds);
        for (t, (&f, &s)) in full_ok.iter().zip(&sketch_ok).enumerate() {
            prop_assert!(
                !f || s,
                "trial {t}: full verifier accepted but sketch rejected — \
                 sketch probed a point the full plan did not"
            );
        }
    }

    /// Completeness is untouched by sketching: on honest labelings the
    /// sketched verifier accepts every trial, whatever the budget.
    #[test]
    fn sketch_preserves_completeness_on_honest_labelings(
        n in 6usize..18,
        budget in 1usize..6,
        base_seed in any::<u64>(),
    ) {
        let config = spanning_tree_config(
            &Configuration::plain(generators::complete(n)),
            NodeId::new(0),
        );
        let sketched = CompiledRpls::new(SpanningTreePls::new())
            .force_dynamic()
            .with_sketch(ProbeSketch::new(budget));
        let honest = Rpls::label(&sketched, &config);
        let seeds: Vec<u64> = (0..32).map(|i| base_seed.wrapping_mul(3).wrapping_add(i)).collect();
        prop_assert!(trial_verdicts(&sketched, &config, &honest, &seeds).iter().all(|&a| a));
    }
}

/// The sketch must bite on dense graphs: with a tiny budget on a clique, a
/// tampered labeling still gets caught within a few trials (detection
/// probability ≥ (2/3)·(1 − (1 − 1/d)^s) per trial is far from zero).
#[test]
fn sketch_still_detects_tampering_on_a_clique() {
    let config = spanning_tree_config(
        &Configuration::plain(generators::complete(20)),
        NodeId::new(0),
    );
    let sketched = CompiledRpls::new(SpanningTreePls::new())
        .force_dynamic()
        .with_sketch(ProbeSketch::new(2));
    let honest = Rpls::label(&sketched, &config);
    let tampered = flip_label_bit(&honest, 7);
    let seeds: Vec<u64> = (0..64).collect();
    let verdicts = trial_verdicts(&sketched, &config, &tampered, &seeds);
    assert!(
        verdicts.iter().any(|&a| !a),
        "64 sketched trials never rejected an inconsistent labeling"
    );
}

/// Sanity anchor for the proptest above on one fixed instance: the
/// sketched scheme rejects a strict subset of the trials the full scheme
/// rejects.
#[test]
fn sketched_rejections_are_a_subset_on_fixed_instance() {
    let config = spanning_tree_config(
        &Configuration::plain(generators::complete(12)),
        NodeId::new(0),
    );
    let full = CompiledRpls::new(SpanningTreePls::new()).force_dynamic();
    let sketched = CompiledRpls::new(SpanningTreePls::new())
        .force_dynamic()
        .with_sketch(ProbeSketch::new(1));
    let honest = Rpls::label(&full, &config);
    let tampered = flip_label_bit(&honest, 3);
    let seeds: Vec<u64> = (0..128).collect();
    let full_ok = trial_verdicts(&full, &config, &tampered, &seeds);
    let sketch_ok = trial_verdicts(&sketched, &config, &tampered, &seeds);
    let full_rejects = full_ok.iter().filter(|&&a| !a).count();
    let sketch_rejects = sketch_ok.iter().filter(|&&a| !a).count();
    assert!(sketch_rejects <= full_rejects);
    assert!(
        sketch_rejects > 0,
        "budget-1 sketch caught nothing in 128 trials"
    );
    for (f, s) in full_ok.iter().zip(&sketch_ok) {
        assert!(!*f || *s);
    }
    // Check that a dense node actually exceeded the budget, i.e. the
    // sketch was exercised rather than vacuously equal to the full plan.
    assert!(config.graph().degree(NodeId::new(3)) > 1);
}
