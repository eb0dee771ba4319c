//! Serial ≡ parallel bit-identity, pinned across the whole estimator
//! surface: every scheme kind × {one-round, multiround, faulted, cached}
//! × both stream modes × 2/4/8 worker shards.
//!
//! The parallel runner [`stats::estimate_par`] promises more than
//! statistical agreement — worker `w` runs exactly the trials
//! `w, w + k, …` with the same per-trial seeds the serial path derives,
//! so the merged [`Estimate`] (its rejection-round histogram included)
//! must equal the serial one field for field, whatever the shard count.
//! These tests hold that promise against every run-spec dimension at
//! once, including the identity between a serial sweep through one shared
//! `PrepCache` and parallel estimates whose workers each prepare through
//! a private cache.
#![cfg(feature = "parallel")]

use rpls::bits::BitString;
use rpls::core::engine::{MessagePattern, RunSpec, StreamMode};
use rpls::core::stats::{Estimate, EstimateOpts};
use rpls::core::{
    stats, CompiledRpls, Configuration, FaultPlan, FaultSpec, Labeling, PrepCache, ProbeSketch,
    RoundScratch, Rpls,
};
use rpls::graph::{generators, NodeId};
use rpls::schemes::acyclicity::AcyclicityPls;
use rpls::schemes::spanning_tree::{spanning_tree_config, SpanningTreePls};

const SHARDS: [usize; 3] = [2, 4, 8];
const TRIALS: usize = 96;

fn spanning_tree_workload() -> (CompiledRpls<SpanningTreePls>, Configuration, Labeling) {
    let config = spanning_tree_config(&Configuration::plain(generators::cycle(24)), NodeId::new(0));
    let scheme = CompiledRpls::new(SpanningTreePls::new());
    let labeling = Rpls::label(&scheme, &config);
    (scheme, config, labeling)
}

fn tamper(labeling: &Labeling, node: usize) -> Labeling {
    let mut out = labeling.clone();
    let flipped: BitString = out
        .get(NodeId::new(node))
        .iter()
        .enumerate()
        .map(|(i, b)| if i == 40 { !b } else { b })
        .collect();
    out.set(NodeId::new(node), flipped);
    out
}

/// The run-spec matrix of the ISSUE: one-round, multiround, faulted —
/// each under both stream modes (and one non-default pattern for good
/// measure).
fn spec_matrix(seed: u64) -> Vec<(String, RunSpec)> {
    let mut specs = Vec::new();
    for (mode_name, mode) in [
        ("edge_independent", StreamMode::EdgeIndependent),
        ("shared_per_node", StreamMode::SharedPerNode),
    ] {
        let base = RunSpec::trial(seed).with_stream_mode(mode);
        specs.push((format!("one_round/{mode_name}"), base.clone()));
        specs.push((
            format!("multiround_t3/{mode_name}"),
            base.clone().with_rounds(3),
        ));
        specs.push((
            format!("faulted_drop/{mode_name}"),
            base.clone()
                .with_faults(FaultPlan::new(FaultSpec::transparent().with_drop(0.02), 77)),
        ));
        specs.push((
            format!("faulted_mixed_multiround/{mode_name}"),
            base.clone().with_rounds(2).with_faults(FaultPlan::new(
                FaultSpec::transparent()
                    .with_corrupt(0.01)
                    .with_crash(0.005),
                78,
            )),
        ));
        specs.push((
            format!("broadcast/{mode_name}"),
            base.with_pattern(MessagePattern::Broadcast),
        ));
    }
    specs
}

fn assert_parallel_identical<S: Rpls + Sync + ?Sized>(
    scheme: &S,
    config: &Configuration,
    labeling: &Labeling,
    tag: &str,
) {
    let opts = EstimateOpts::new(TRIALS);
    for (name, spec) in spec_matrix(0xA11CE) {
        let serial = stats::estimate(scheme, config, labeling, &spec, &opts);
        for workers in SHARDS {
            let par = stats::estimate_par(scheme, config, labeling, &spec, &opts, Some(workers));
            assert_eq!(serial, par, "{tag}: {name} at {workers} workers");
        }
    }
}

#[test]
fn compiled_spanning_tree_honest_serial_equals_parallel() {
    let (scheme, config, labeling) = spanning_tree_workload();
    assert_parallel_identical(&scheme, &config, &labeling, "compiled_spanning_tree");
}

#[test]
fn compiled_spanning_tree_tampered_serial_equals_parallel() {
    // A tampered labeling keeps acceptance strictly between 0 and 1, so a
    // shard partitioning bug cannot hide behind an all-accepts estimate.
    let (scheme, config, labeling) = spanning_tree_workload();
    let tampered = tamper(&labeling, 5);
    let sanity = stats::estimate(
        &scheme,
        &config,
        &tampered,
        &RunSpec::trial(3),
        &EstimateOpts::new(TRIALS),
    );
    assert!(sanity.accepts < TRIALS, "tampering must reject sometimes");
    assert_parallel_identical(&scheme, &config, &tampered, "tampered_spanning_tree");
}

#[test]
fn compiled_acyclicity_serial_equals_parallel() {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let mut rng = StdRng::seed_from_u64(21);
    let config = Configuration::plain(generators::random_sparse(40, 0, &mut rng));
    let scheme = CompiledRpls::new(AcyclicityPls);
    let labeling = Rpls::label(&scheme, &config);
    assert_parallel_identical(&scheme, &config, &labeling, "compiled_acyclicity");
}

#[test]
fn sketched_dense_scheme_serial_equals_parallel() {
    // The probe sketch draws its check indices from a per-(trial, node)
    // stream, so it must shard exactly like every other path.
    let config = spanning_tree_config(
        &Configuration::plain(generators::complete(16)),
        NodeId::new(0),
    );
    let scheme = CompiledRpls::new(SpanningTreePls::new())
        .force_dynamic()
        .with_sketch(ProbeSketch::new(4));
    let labeling = Rpls::label(&scheme, &config);
    assert_parallel_identical(&scheme, &config, &labeling, "sketched_clique16");
}

/// The cached path: a serial sweep through ONE shared cache must equal
/// `estimate_par` on each candidate, whose workers prepare through
/// PRIVATE caches — caches move work, never results.
#[test]
fn estimate_par_matches_serial_shared_cache_sweep() {
    let (scheme, config, labeling) = spanning_tree_workload();
    let candidates: Vec<Labeling> = (0..6)
        .map(|i| {
            if i == 0 {
                labeling.clone()
            } else {
                tamper(&labeling, i)
            }
        })
        .collect();
    let opts = EstimateOpts::new(TRIALS);
    for (name, spec) in spec_matrix(0x5EED) {
        // Serial reference: one cache shared across all candidates.
        let mut scratch = RoundScratch::new();
        let mut cache = PrepCache::new();
        let serial: Vec<Estimate> = candidates
            .iter()
            .map(|l| {
                stats::estimate_with(&scheme, &config, l, &spec, &opts, &mut scratch, &mut cache)
            })
            .collect();
        for workers in SHARDS {
            let par: Vec<Estimate> = candidates
                .iter()
                .map(|l| stats::estimate_par(&scheme, &config, l, &spec, &opts, Some(workers)))
                .collect();
            assert_eq!(serial, par, "sweep {name} at {workers} workers");
        }
    }
}

/// Cached vs uncached serial vs parallel: all three must agree exactly,
/// whatever state the shared cache is in when the estimate runs.
#[test]
fn warm_shared_cache_equals_per_worker_caches() {
    let (scheme, config, labeling) = spanning_tree_workload();
    let tampered = tamper(&labeling, 9);
    let opts = EstimateOpts::new(TRIALS);
    let spec = RunSpec::trial(0xCAFE).with_rounds(2);
    let mut scratch = RoundScratch::new();
    let mut cache = PrepCache::new();
    // Warm the cache on a different labeling first, then estimate.
    let _ = stats::estimate_with(
        &scheme,
        &config,
        &labeling,
        &spec,
        &opts,
        &mut scratch,
        &mut cache,
    );
    let warm = stats::estimate_with(
        &scheme,
        &config,
        &tampered,
        &spec,
        &opts,
        &mut scratch,
        &mut cache,
    );
    let cold = stats::estimate(&scheme, &config, &tampered, &spec, &opts);
    assert_eq!(warm, cold, "cache state must not leak into estimates");
    for workers in SHARDS {
        let par = stats::estimate_par(&scheme, &config, &tampered, &spec, &opts, Some(workers));
        assert_eq!(warm, par, "parallel vs warm-cache serial at {workers}");
    }
}
