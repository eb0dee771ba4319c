//! Golden identity tests for the message-pattern engine axis.
//!
//! [`MessagePattern::PerPort`] is the pre-pattern engine: every execution
//! layer run under it must be transcript-identical — vote for vote,
//! certificate for certificate, report for report — across
//! honest/tampered/garbage labelings, both stream modes, and the
//! one-round, multi-round, and faulted engines. The coarser patterns have
//! their own pins: one-round `Broadcast` coincides with the
//! `SharedPerNode` stream mode's first draw (subsumption, not
//! duplication), and `KMessages(k ≥ Δ)` degenerates to per-port exactly.

use rpls::core::engine::{self, MessagePattern, RunSpec, SeedSource, StreamMode};
use rpls::core::scheme::ExchangeLabels;
use rpls::core::stats::EstimateOpts;
use rpls::core::{
    Configuration, FaultPlan, FaultSpec, Labeling, PrepCache, RoundScratch, Rpls, Unprepared,
};
use rpls::graph::generators;
use rpls::schemes::spanning_tree::{spanning_tree_config, SpanningTreePls};
use rpls_core::CompiledRpls;
use std::num::NonZeroUsize;

const ALL_PATTERNS: [MessagePattern; 5] = [
    MessagePattern::PerPort,
    MessagePattern::Broadcast,
    MessagePattern::Unicast,
    MessagePattern::KMessages(NonZeroUsize::new(1).unwrap()),
    MessagePattern::KMessages(NonZeroUsize::new(2).unwrap()),
];

fn spanning_tree_workload(n: usize) -> (Configuration, Labeling, Labeling, Labeling) {
    let config = spanning_tree_config(
        &Configuration::plain(generators::cycle(n)),
        rpls::graph::NodeId::new(0),
    );
    let scheme = CompiledRpls::new(SpanningTreePls::new());
    let honest = Rpls::label(&scheme, &config);
    let mut tampered = honest.clone();
    let flipped: rpls::bits::BitString = tampered
        .get(rpls::graph::NodeId::new(2))
        .iter()
        .enumerate()
        .map(|(i, b)| if i == 50 { !b } else { b })
        .collect();
    tampered.set(rpls::graph::NodeId::new(2), flipped);
    let garbage = Labeling::new(
        (0..n)
            .map(|i| rpls::bits::BitString::zeros(i % 4))
            .collect(),
    );
    (config, honest, tampered, garbage)
}

/// `PerPort` is the pre-pattern engine, and every layer runs it
/// transcript-identically: the materialised record, the unprepared and
/// prepared scalar trials, the batched block, the `t = 1` schedule, and the
/// faulted paths (per-node diagnostic, scalar, batched, multiround) —
/// across labelings, stream modes, and both the compiled and
/// exchange-labels schemes.
#[test]
fn per_port_is_transcript_identical_to_legacy() {
    let (config, honest, tampered, garbage) = spanning_tree_workload(10);
    let compiled = CompiledRpls::new(SpanningTreePls::new());
    let exchange = ExchangeLabels::new(SpanningTreePls::new());
    let plan = FaultPlan::new(FaultSpec::transparent().with_drop(0.2), 99);

    let mut unprepared_scratch = RoundScratch::new();
    let mut prepared_scratch = RoundScratch::new();
    let seeds = [0u64, 9, 77, 12345];
    for labeling in [&honest, &tampered, &garbage] {
        for mode in [StreamMode::EdgeIndependent, StreamMode::SharedPerNode] {
            let spec = RunSpec::trial(0)
                .with_pattern(MessagePattern::PerPort)
                .with_stream_mode(mode);
            let faulted = spec.clone().with_faults(plan.clone());
            let at = |spec: &RunSpec, seed: u64| RunSpec {
                seed_source: SeedSource::Trial(seed),
                ..spec.clone()
            };
            macro_rules! check_scheme {
                ($scheme:expr) => {
                    let prepared = $scheme.prepare(&config, labeling, seeds.len());
                    for seed in seeds {
                        // One-round scalar: unprepared and prepared.
                        let a = engine::run_prepared(
                            &at(&spec, seed),
                            &Unprepared::new($scheme, &config, labeling),
                            &config,
                            &mut unprepared_scratch,
                        );
                        let b = engine::run_prepared(
                            &at(&spec, seed),
                            &*prepared,
                            &config,
                            &mut prepared_scratch,
                        );
                        assert_eq!(a, b, "one-round report (seed {seed}, mode {mode:?})");
                        assert_eq!(unprepared_scratch.votes(), prepared_scratch.votes());
                        let certs = prepared_scratch
                            .certificates()
                            .to_nested(config.port_base());
                        assert_eq!(
                            unprepared_scratch
                                .certificates()
                                .to_nested(config.port_base()),
                            certs,
                            "certificates (seed {seed}, mode {mode:?})"
                        );
                        if mode == StreamMode::EdgeIndependent {
                            let rec = engine::run_randomized($scheme, &config, labeling, seed);
                            assert_eq!(rec.certificates, certs, "record (seed {seed})");
                            assert_eq!(rec.outcome.votes(), prepared_scratch.votes());
                        }
                        // The t = 1 schedule is the one-round trial.
                        let t1 = engine::run_prepared(
                            &at(&spec, seed).with_rounds(1),
                            &*prepared,
                            &config,
                            &mut prepared_scratch,
                        );
                        assert_eq!(t1, b, "t=1 (seed {seed}, mode {mode:?})");
                        // A longer schedule, prepared internally or not.
                        let multi = at(&spec, seed).with_rounds(3);
                        assert_eq!(
                            engine::run(&multi, $scheme, &config, labeling),
                            engine::run_prepared(
                                &multi,
                                &*prepared,
                                &config,
                                &mut prepared_scratch
                            ),
                            "t=3 (seed {seed}, mode {mode:?})"
                        );
                        // Faulted: the per-node diagnostic carries the
                        // scalar report, at t = 1 and under the overlay.
                        let degraded = engine::run_degraded(
                            &at(&faulted, seed),
                            &*prepared,
                            &config,
                            &mut prepared_scratch,
                        );
                        let scalar = engine::run_prepared(
                            &at(&faulted, seed),
                            &Unprepared::new($scheme, &config, labeling),
                            &config,
                            &mut unprepared_scratch,
                        );
                        assert_eq!(
                            degraded.report, scalar,
                            "faulted (seed {seed}, mode {mode:?})"
                        );
                        let multi = at(&faulted, seed).with_rounds(3);
                        assert_eq!(
                            engine::run(&multi, $scheme, &config, labeling),
                            engine::run_prepared(
                                &multi,
                                &*prepared,
                                &config,
                                &mut prepared_scratch
                            ),
                            "faulted multiround (seed {seed}, mode {mode:?})"
                        );
                    }
                    // Batched blocks, clean and faulted, against the scalar
                    // trials.
                    for block_spec in [&spec, &faulted] {
                        let mut batched = Vec::new();
                        engine::run_trials(
                            block_spec,
                            &*prepared,
                            &config,
                            &seeds,
                            &mut prepared_scratch,
                            &mut |r| batched.push(r),
                        );
                        let scalar: Vec<_> = seeds
                            .iter()
                            .map(|&seed| {
                                engine::run_prepared(
                                    &at(block_spec, seed),
                                    &Unprepared::new($scheme, &config, labeling),
                                    &config,
                                    &mut unprepared_scratch,
                                )
                            })
                            .collect();
                        assert_eq!(batched, scalar, "batched trials ({block_spec:?})");
                    }
                };
            }
            check_scheme!(&compiled);
            check_scheme!(&exchange);
        }
    }
}

/// One-round `Broadcast` is the `SharedPerNode` stream mode's first draw,
/// shared across the node's ports: every port of the broadcast transcript
/// carries exactly the certificate `SharedPerNode` puts on port 0, for
/// both the compiled and exchange-labels schemes — subsumption, not a
/// parallel implementation.
#[test]
fn one_round_broadcast_coincides_with_shared_per_node() {
    let (config, honest, tampered, _) = spanning_tree_workload(8);
    let compiled = CompiledRpls::new(SpanningTreePls::new());
    let exchange = ExchangeLabels::new(SpanningTreePls::new());
    let mut shared_scratch = RoundScratch::new();
    let mut broadcast_scratch = RoundScratch::new();
    for labeling in [&honest, &tampered] {
        for seed in [0u64, 5, 1234] {
            macro_rules! check_scheme {
                ($scheme:expr, $name:expr) => {
                    engine::run_prepared(
                        &RunSpec::trial(seed).with_stream_mode(StreamMode::SharedPerNode),
                        &Unprepared::new($scheme, &config, labeling),
                        &config,
                        &mut shared_scratch,
                    );
                    engine::run_prepared(
                        &RunSpec::trial(seed).with_pattern(MessagePattern::Broadcast),
                        &Unprepared::new($scheme, &config, labeling),
                        &config,
                        &mut broadcast_scratch,
                    );
                    let shared = shared_scratch.certificates().to_nested(config.port_base());
                    let broadcast = broadcast_scratch
                        .certificates()
                        .to_nested(config.port_base());
                    for (v, (s, b)) in shared.iter().zip(broadcast.iter()).enumerate() {
                        for (p, cert) in b.iter().enumerate() {
                            assert_eq!(
                                cert, &s[0],
                                "{}: node {v} port {p} (seed {seed}): broadcast must \
                                 replicate SharedPerNode's first draw",
                                $name
                            );
                        }
                    }
                };
            }
            check_scheme!(&compiled, "compiled");
            check_scheme!(&exchange, "exchange");
        }
    }
    // For exchange-labels the certificate is the label on every port, so
    // the *whole* transcript (certificates and votes) coincides.
    for seed in [0u64, 5] {
        let a = engine::run_prepared(
            &RunSpec::trial(seed).with_stream_mode(StreamMode::SharedPerNode),
            &Unprepared::new(&exchange, &config, &honest),
            &config,
            &mut shared_scratch,
        );
        let b = engine::run_prepared(
            &RunSpec::trial(seed).with_pattern(MessagePattern::Broadcast),
            &Unprepared::new(&exchange, &config, &honest),
            &config,
            &mut broadcast_scratch,
        );
        assert_eq!(a.accepted, b.accepted);
        assert_eq!(shared_scratch.votes(), broadcast_scratch.votes());
        assert_eq!(
            shared_scratch.certificates().to_nested(config.port_base()),
            broadcast_scratch
                .certificates()
                .to_nested(config.port_base()),
        );
    }
}

/// `KMessages(k ≥ Δ)` assigns every port its own slot, so under the
/// edge-independent stream it is bit-identical to `PerPort`; `Unicast`
/// shares `PerPort`'s transcript by construction (only the bit accounting
/// differs, and only for schemes that know their wire cost).
#[test]
fn saturated_k_and_unicast_share_per_port_transcripts() {
    let (config, honest, tampered, garbage) = spanning_tree_workload(9);
    let compiled = CompiledRpls::new(SpanningTreePls::new());
    let mut a_scratch = RoundScratch::new();
    let mut b_scratch = RoundScratch::new();
    for labeling in [&honest, &tampered, &garbage] {
        for seed in [0u64, 7, 321] {
            let a = engine::run_prepared(
                &RunSpec::trial(seed),
                &Unprepared::new(&compiled, &config, labeling),
                &config,
                &mut a_scratch,
            );
            // Cycle degree is 2: k = 2 saturates, as does any larger k.
            for k in [2usize, 3, 64] {
                let b = engine::run_prepared(
                    &RunSpec::trial(seed)
                        .with_pattern(MessagePattern::KMessages(NonZeroUsize::new(k).unwrap())),
                    &Unprepared::new(&compiled, &config, labeling),
                    &config,
                    &mut b_scratch,
                );
                assert_eq!(a, b, "k={k} (seed {seed})");
                assert_eq!(a_scratch.votes(), b_scratch.votes());
                assert_eq!(
                    a_scratch.certificates().to_nested(config.port_base()),
                    b_scratch.certificates().to_nested(config.port_base()),
                );
            }
            // Unicast accounting needs the prepared scheme (only the
            // labeling-static plans know the wire cost): same transcript,
            // half the (x, P(x)) width — the sender ships P(x) only.
            let prepared = compiled.prepare(&config, labeling, 1);
            let u = engine::run_prepared(
                &RunSpec::trial(seed).with_pattern(MessagePattern::Unicast),
                &*prepared,
                &config,
                &mut b_scratch,
            );
            assert_eq!(a.accepted, u.accepted, "unicast verdict (seed {seed})");
            assert_eq!(a_scratch.votes(), b_scratch.votes());
            assert_eq!(
                a_scratch.certificates().to_nested(config.port_base()),
                b_scratch.certificates().to_nested(config.port_base()),
                "unicast transcript (seed {seed})"
            );
            assert_eq!(u.max_bits_per_round, a.max_bits_per_round / 2);
            assert_eq!(u.total_bits, a.total_bits / 2);
        }
    }
}

/// The compiled batched pattern kernels agree with the patterned scalar
/// reference path, trial for trial, for every pattern (the batched
/// `Broadcast`/`KMessages` probes re-key the stream by slot; this pins
/// that re-keying against the scalar certificate generator).
#[test]
fn batched_pattern_kernels_match_scalar_reference() {
    let (config, honest, tampered, garbage) = spanning_tree_workload(11);
    let compiled = CompiledRpls::new(SpanningTreePls::new());
    let seeds = [0u64, 9, 77, 12345, 54321];
    let mut scalar_scratch = RoundScratch::new();
    let mut batched_scratch = RoundScratch::new();
    for labeling in [&honest, &tampered, &garbage] {
        let prepared = compiled.prepare(&config, labeling, seeds.len());
        for pattern in ALL_PATTERNS {
            let scalar: Vec<_> = seeds
                .iter()
                .map(|&seed| {
                    engine::run_prepared(
                        &RunSpec::trial(seed).with_pattern(pattern),
                        &*prepared,
                        &config,
                        &mut scalar_scratch,
                    )
                })
                .collect();
            let mut batched = Vec::new();
            engine::run_trials(
                &RunSpec::trial(0).with_pattern(pattern),
                &*prepared,
                &config,
                &seeds,
                &mut batched_scratch,
                &mut |s| batched.push(s),
            );
            assert_eq!(scalar, batched, "pattern {pattern:?}");
            // The faulted one-round kernel against the scalar fault model.
            let plan = FaultPlan::new(FaultSpec::transparent().with_drop(0.1), 5);
            let faulted = RunSpec::trial(0).with_pattern(pattern).with_faults(plan);
            let scalar: Vec<_> = seeds
                .iter()
                .map(|&seed| {
                    let one = RunSpec {
                        seed_source: SeedSource::Trial(seed),
                        ..faulted.clone()
                    };
                    engine::run_prepared(&one, &*prepared, &config, &mut scalar_scratch)
                })
                .collect();
            let mut batched = Vec::new();
            engine::run_trials(
                &faulted,
                &*prepared,
                &config,
                &seeds,
                &mut batched_scratch,
                &mut |s| batched.push(s),
            );
            assert_eq!(scalar, batched, "faulted pattern {pattern:?}");
            // Multiround kernels against the prepared scalar schedule.
            for rounds in [1usize, 4] {
                let scalar: Vec<_> = seeds
                    .iter()
                    .map(|&seed| {
                        engine::run_prepared(
                            &RunSpec::trial(seed)
                                .with_rounds(rounds)
                                .with_pattern(pattern),
                            &*prepared,
                            &config,
                            &mut scalar_scratch,
                        )
                    })
                    .collect();
                let mut batched = Vec::new();
                engine::run_trials(
                    &RunSpec::trial(0).with_rounds(rounds).with_pattern(pattern),
                    &*prepared,
                    &config,
                    &seeds,
                    &mut batched_scratch,
                    &mut |s| batched.push(s),
                );
                assert_eq!(scalar, batched, "pattern {pattern:?} t={rounds}");
            }
        }
    }
}

/// Completeness survives every pattern: an honest labeling accepts with
/// probability 1 under the whole spectrum (the schemes are one-sided, and
/// sharing a correct fingerprint across ports cannot create a rejection).
#[test]
fn honest_labelings_accept_under_every_pattern() {
    let (config, honest, _, _) = spanning_tree_workload(12);
    let compiled = CompiledRpls::new(SpanningTreePls::new());
    let exchange = ExchangeLabels::new(SpanningTreePls::new());
    // Each scheme's own honest labels (the compiled label carries a κ
    // prefix the exchange baseline doesn't use).
    let exchange_honest = Rpls::label(&exchange, &config);
    for pattern in ALL_PATTERNS {
        let p = rpls::core::stats::estimate(
            &compiled,
            &config,
            &honest,
            &RunSpec::trial(3).with_pattern(pattern),
            &EstimateOpts::new(60),
        )
        .acceptance();
        assert_eq!(p, 1.0, "compiled under {pattern:?}");
        let p = rpls::core::stats::estimate(
            &exchange,
            &config,
            &exchange_honest,
            &RunSpec::trial(3).with_pattern(pattern),
            &EstimateOpts::new(20),
        )
        .acceptance();
        assert_eq!(p, 1.0, "exchange under {pattern:?}");
    }
}

/// The estimators fold the scalar reference: `acceptance_probability`,
/// `estimate` and the cached `estimate_with` of a `PerPort` spec (one-round
/// and multiround) equal a manual per-trial loop over `run_prepared` with
/// the estimators' seeds, bit for bit.
#[test]
fn per_port_estimators_match_legacy_estimators() {
    use rpls::core::stats::{self, EstimateOpts};
    let (config, _, tampered, _) = spanning_tree_workload(10);
    let compiled = CompiledRpls::new(SpanningTreePls::new());
    let prepared = compiled.prepare(&config, &tampered, 300);
    let mut scratch = RoundScratch::new();
    for (trials, seed) in [(64usize, 7u64), (300, 11)] {
        let opts = EstimateOpts::new(trials);
        for rounds in [1usize, 4] {
            let spec = RunSpec::trial(seed)
                .with_rounds(rounds)
                .with_pattern(MessagePattern::PerPort);
            let manual = (0..trials as u64)
                .filter(|&t| {
                    let one = RunSpec {
                        seed_source: SeedSource::Trial(stats::trial_seed(seed, t)),
                        ..spec.clone()
                    };
                    engine::run_prepared(&one, &*prepared, &config, &mut scratch).accepted
                })
                .count() as f64
                / trials as f64;
            let estimate = stats::estimate(&compiled, &config, &tampered, &spec, &opts);
            assert!(
                manual == estimate.acceptance(),
                "t={rounds}: {manual} vs {estimate:?}"
            );
            let cached = stats::estimate_with(
                &compiled,
                &config,
                &tampered,
                &spec,
                &opts,
                &mut RoundScratch::new(),
                &mut PrepCache::new(),
            );
            assert_eq!(estimate, cached, "t={rounds}: cached");
            if rounds == 1 {
                let p = stats::acceptance_probability(&compiled, &config, &tampered, trials, seed);
                assert!(p == manual, "{p} vs {manual}");
            }
        }
    }
}

/// Serial and parallel estimates stay bit-identical now that the serial
/// path funnels through the patterned kernels — on shard counts ≥ 2, with
/// non-trivial acceptance (the satellite pin for the `parallel` CI job).
#[cfg(feature = "parallel")]
#[test]
fn parallel_shards_stay_bit_identical_after_pattern_refactor() {
    let (config, _, tampered, _) = spanning_tree_workload(14);
    let compiled = CompiledRpls::new(SpanningTreePls::new());
    for (trials, seed) in [(128usize, 3u64), (500, 21)] {
        let serial =
            rpls::core::stats::acceptance_probability(&compiled, &config, &tampered, trials, seed);
        for threads in [Some(2), Some(4), Some(7)] {
            let par = rpls::core::stats::estimate_par(
                &compiled,
                &config,
                &tampered,
                &RunSpec::trial(seed),
                &EstimateOpts::new(trials),
                threads,
            )
            .acceptance();
            assert!(
                serial == par,
                "trials {trials} seed {seed} threads {threads:?}: {serial} vs {par}"
            );
        }
    }
}
