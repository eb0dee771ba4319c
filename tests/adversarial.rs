//! Adversarial soundness probes across schemes: on illegal configurations,
//! exhaustive and randomized forging must fail against honest schemes —
//! and must succeed against the deliberately under-provisioned ones.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rpls::core::{
    adversary, engine, stats, CompiledRpls, Configuration, Labeling, Predicate, Rpls,
};
use rpls::graph::{generators, NodeId};

#[test]
fn acyclicity_on_c3_unforgeable_exhaustively() {
    use rpls::schemes::acyclicity::AcyclicityPls;
    let config = Configuration::plain(generators::cycle(3));
    assert!(adversary::exhaustive_forge(&AcyclicityPls, &config, 4).is_none());
}

#[test]
fn leader_zero_and_two_unforgeable() {
    use rpls::schemes::leader::*;
    let base = Configuration::plain(generators::cycle(3));
    let mut none = base.clone();
    for v in base.graph().nodes() {
        none.state_mut(v).set_payload(encode_flag(false));
    }
    assert!(adversary::exhaustive_forge(&LeaderPls::new(), &none, 3).is_none());

    let mut two = leader_config(&base, NodeId::new(0));
    two.state_mut(NodeId::new(2)).set_payload(encode_flag(true));
    assert!(adversary::exhaustive_forge(&LeaderPls::new(), &two, 3).is_none());
}

#[test]
fn spanning_tree_cycle_pointers_resist_hill_climbing() {
    use rpls::schemes::spanning_tree::*;
    let g = generators::cycle(8);
    let mut config = Configuration::plain(g);
    for i in 0..8 {
        config
            .state_mut(NodeId::new(i))
            .set_payload(encode_pointer(Some(rpls::graph::Port::from_rank(0))));
    }
    assert!(!SpanningTreePredicate::new().holds(&config));
    let mut rng = StdRng::seed_from_u64(4);
    let report = adversary::random_forge(&SpanningTreePls::new(), &config, 96, 25, 400, &mut rng);
    assert!(!report.succeeded(), "forged a rootless pointer cycle");
}

#[test]
fn biconnectivity_star_resists_hill_climbing() {
    use rpls::schemes::biconnectivity::BiconnectivityPls;
    let config = Configuration::plain(generators::star(4));
    let mut rng = StdRng::seed_from_u64(5);
    let report = adversary::random_forge(&BiconnectivityPls::new(), &config, 50, 25, 400, &mut rng);
    assert!(!report.succeeded());
}

#[test]
fn compiled_schemes_resist_rpls_forging() {
    use rpls::schemes::uniformity::*;
    // An illegal instance: one deviating payload on a path.
    let base = Configuration::plain(generators::path(4));
    let payload = rpls::bits::BitString::from_bools((0..32).map(|i| i % 2 == 0));
    let mut config = uniform_config(&base, &payload);
    config
        .state_mut(NodeId::new(1))
        .set_payload(rpls::bits::BitString::zeros(32));
    assert!(!UniformityPredicate::new().holds(&config));

    let scheme = CompiledRpls::new(UniformityPls::new());
    let mut rng = StdRng::seed_from_u64(6);
    let report = adversary::random_forge_rpls(&scheme, &config, 40, 6, 40, 60, 11, &mut rng);
    // One-sided soundness: no labeling should push acceptance past 1/2.
    assert!(
        report.acceptance <= 0.5,
        "forged acceptance {}",
        report.acceptance
    );
}

#[test]
fn under_provisioned_scheme_is_forgeable_where_theory_says_so() {
    // Sanity check of the adversary itself: the 1-bit modular-distance
    // scheme accepts some labeling on an *even* cycle (alternating bits),
    // and the forger finds it.
    use rpls::crossing::ModDistancePls;
    let config = Configuration::plain(generators::cycle(6));
    let scheme = ModDistancePls::new(1);
    let found = adversary::exhaustive_forge(&scheme, &config, 1);
    assert!(
        found.is_some(),
        "alternating labels must fool the mod-2 check"
    );
    let labeling = found.unwrap();
    assert!(engine::run_deterministic(&scheme, &config, &labeling).accepted());
}

#[test]
fn compiled_acyclicity_sound_against_replayed_labels() {
    use rpls::schemes::acyclicity::AcyclicityPls;
    // Replay path labels on a same-size cycle: every node has consistent
    // replicas except where the structure differs; acceptance stays low.
    let path_conf = Configuration::plain(generators::path(8));
    let cycle_conf = Configuration::plain(generators::cycle(8));
    let scheme = CompiledRpls::new(AcyclicityPls);
    let labels = scheme.label(&path_conf);
    // Degrees differ (endpoints), so the replicated labels do not even
    // parse consistently on the cycle; acceptance must be ~0.
    let acc = stats::acceptance_probability(&scheme, &cycle_conf, &labels, 200, 12);
    assert!(acc < 0.05, "acceptance {acc}");
    let _ = Labeling::empty(0);
}

/// Wide-field regression: when every node declares a huge κ, the
/// protocol prime leaves the small fields. At κ = 2³² − 64 it exceeds 2³²;
/// at the other two declared κ it is the last prime for which one Horner
/// byte step fits a `u64` (`(p − 1)(2p − 1) < 2⁶⁴`, the one-word reducer)
/// and the first past it (the wide reducer). A labeling with one tampered
/// neighbour copy (and its honest twin, probed under `force_dynamic`) must
/// get identical verdicts from the batched kernel and the scalar trial
/// paths at each.
#[test]
fn wide_field_probes_agree_across_trial_paths() {
    use rpls::bits::{BitReader, BitString, BitWriter};
    use rpls::core::engine::RunSpec;
    use rpls::core::{RoundScratch, Unprepared};
    use rpls::schemes::spanning_tree::{spanning_tree_config, SpanningTreePls};

    const LEN_BITS: u32 = 32;
    // (declared κ, whether one worst-case byte step fits a u64)
    const KAPPAS: [(u64, bool); 3] = [
        ((1 << 32) - 64, false),
        (1_012_333_465, true),
        (1_012_333_466, false),
    ];
    use rpls::fingerprint::prime::{next_prime, protocol_prime};
    let prime_of = |kappa: u64| protocol_prime(LEN_BITS as usize + kappa as usize);
    for (kappa, narrow) in KAPPAS {
        let p = prime_of(kappa);
        let first_step = u128::from(p - 1) * u128::from(2 * p - 1);
        assert_eq!(first_step < 1 << 64, narrow, "κ = {kappa}, p = {p}");
    }
    // The last two declared κ give consecutive primes, the two sides of
    // the one-word bound.
    assert_eq!(next_prime(prime_of(KAPPAS[1].0) + 1), prime_of(KAPPAS[2].0));

    // Re-declare every replicated label's κ (32-bit κ, then per part a
    // 32-bit length and the bits), keeping the parts.
    let redeclare = |label: &BitString, kappa: u64, tamper: bool| {
        let mut r = BitReader::new(label);
        r.read_u64(LEN_BITS).expect("honest label has a κ prefix");
        let mut w = BitWriter::new();
        w.write_u64(kappa, LEN_BITS);
        let mut part = 0;
        while !r.is_exhausted() {
            let len = r.read_u64(LEN_BITS).expect("part length") as usize;
            let mut bits = r.read_bits(len).expect("part bits");
            if tamper && part == 1 {
                // The first neighbour copy: flip its last bit.
                bits = bits
                    .iter()
                    .enumerate()
                    .map(|(i, b)| b ^ (i + 1 == len))
                    .collect();
            }
            w.write_u64(len as u64, LEN_BITS);
            w.write_bits(&bits);
            part += 1;
        }
        w.finish()
    };

    let config = spanning_tree_config(&Configuration::plain(generators::cycle(7)), NodeId::new(0));
    let seeds: Vec<u64> = (0..19).collect();
    for (kappa, _) in KAPPAS {
        for scheme in [
            CompiledRpls::new(SpanningTreePls::new()),
            CompiledRpls::new(SpanningTreePls::new()).force_dynamic(),
        ] {
            let honest = Rpls::label(&scheme, &config);
            for tampered in [false, true] {
                let mut labeling = honest.clone();
                for v in config.graph().nodes() {
                    let tamper = tampered && v == NodeId::new(3);
                    labeling.set(v, redeclare(honest.get(v), kappa, tamper));
                }
                let prepared = Rpls::prepare(&scheme, &config, &labeling, seeds.len());
                let mut scratch = RoundScratch::new();
                let unprepared: Vec<bool> = seeds
                    .iter()
                    .map(|&seed| {
                        engine::run_prepared(
                            &RunSpec::trial(seed),
                            &Unprepared::new(&scheme, &config, &labeling),
                            &config,
                            &mut scratch,
                        )
                        .accepted
                    })
                    .collect();
                let scalar: Vec<bool> = seeds
                    .iter()
                    .map(|&seed| {
                        engine::run_prepared(
                            &RunSpec::trial(seed),
                            &*prepared,
                            &config,
                            &mut scratch,
                        )
                        .accepted
                    })
                    .collect();
                let mut batched = Vec::new();
                engine::run_trials(
                    &RunSpec::trial(0),
                    &*prepared,
                    &config,
                    &seeds,
                    &mut scratch,
                    &mut |r| batched.push(r.accepted),
                );
                let name = scheme.name();
                assert_eq!(
                    unprepared, scalar,
                    "{name}, κ = {kappa}, tampered = {tampered}"
                );
                assert_eq!(
                    unprepared, batched,
                    "{name}, κ = {kappa}, tampered = {tampered}"
                );
                assert_eq!(
                    unprepared.contains(&true),
                    !tampered,
                    "{name}, κ = {kappa}: honest labelings accept, tampered ones reject"
                );
            }
        }
    }
}

/// Verifiers must be *total*: arbitrary garbage labelings and arbitrary
/// garbage certificates may make them reject, never panic. Every scheme in
/// `rpls-schemes` is pushed through every verifier surface — the
/// deterministic verifier, the compiled randomized verifier (unprepared,
/// prepared-scalar, and batched trial paths, in both stream modes), the
/// certificate-corruption wrapper below, and the `ExchangeLabels`
/// baseline.
mod never_panic {
    use proptest::collection::vec;
    use proptest::prelude::*;
    use rand::Rng;
    use rpls::bits::BitString;
    use rpls::core::engine::RunSpec;
    use rpls::core::scheme::ExchangeLabels;
    use rpls::core::stats::EstimateOpts;
    use rpls::core::{engine, stats, CompiledRpls, Configuration, Labeling, Pls, Rpls};
    use rpls::core::{CertView, PreparedRpls, RandView, Received, Unprepared};
    use rpls::graph::{generators, NodeId, Port};

    /// Mangles a just-generated certificate in place, drawing the
    /// corruption pattern from the round's own stream: bit flips,
    /// truncation, appended garbage, or wholesale replacement.
    fn corrupt(out: &mut BitString, rng: &mut dyn Rng) {
        match rng.next_u64() % 4 {
            0 => {
                // Flip one bit.
                if out.is_empty() {
                    out.push(true);
                    return;
                }
                let target = (rng.next_u64() % out.len() as u64) as usize;
                let flipped: BitString = out
                    .iter()
                    .enumerate()
                    .map(|(i, b)| if i == target { !b } else { b })
                    .collect();
                *out = flipped;
            }
            1 => {
                // Truncate to a random prefix.
                let keep = (rng.next_u64() % (out.len() as u64 + 1)) as usize;
                *out = out.truncated(keep);
            }
            2 => {
                // Append garbage bits.
                let extra = (rng.next_u64() % 24) as u32 + 1;
                let bits = rng.next_u64() & ((1 << extra) - 1);
                out.push_u64(bits, extra);
            }
            _ => {
                // Replace wholesale (possibly with the empty string).
                let len = (rng.next_u64() % 48) as u32;
                out.clear();
                if len > 0 {
                    out.push_u64(rng.next_u64() & ((1u64 << len) - 1), len);
                }
            }
        }
    }

    /// Wraps a randomized scheme so every certificate it emits arrives
    /// corrupted — the "arbitrary garbage certificates" half of the threat
    /// model. Both the unprepared path and the prepared path corrupt, so
    /// prepared verifiers face the same garbage.
    struct CorruptingRpls<S> {
        inner: S,
    }

    impl<S: Rpls> Rpls for CorruptingRpls<S> {
        fn name(&self) -> String {
            format!("corrupting({})", self.inner.name())
        }
        fn label(&self, config: &Configuration) -> Labeling {
            self.inner.label(config)
        }
        fn certify(&self, view: &CertView<'_>, port: Port, rng: &mut dyn Rng) -> BitString {
            let mut out = self.inner.certify(view, port, rng);
            corrupt(&mut out, rng);
            out
        }
        fn certify_into(
            &self,
            view: &CertView<'_>,
            port: Port,
            rng: &mut dyn Rng,
            out: &mut BitString,
        ) {
            self.inner.certify_into(view, port, rng, out);
            corrupt(out, rng);
        }
        fn verify(&self, view: &RandView<'_>) -> bool {
            self.inner.verify(view)
        }
        fn prepare<'a>(
            &'a self,
            config: &'a Configuration,
            labeling: &'a Labeling,
            rounds_hint: usize,
        ) -> Box<dyn PreparedRpls + 'a> {
            Box::new(CorruptingPrepared {
                inner: self.inner.prepare(config, labeling, rounds_hint),
            })
        }
    }

    struct CorruptingPrepared<'a> {
        inner: Box<dyn PreparedRpls + 'a>,
    }

    impl PreparedRpls for CorruptingPrepared<'_> {
        fn certify_into(&self, node: NodeId, port: Port, rng: &mut dyn Rng, out: &mut BitString) {
            self.inner.certify_into(node, port, rng, out);
            corrupt(out, rng);
        }
        fn verify(&self, node: NodeId, received: &Received<'_>) -> bool {
            self.inner.verify(node, received)
        }
    }

    /// Drives one deterministic scheme through every verifier surface with
    /// the given garbage label pool — including the cached-prepare path,
    /// against a `PrepCache` shared across schemes, configurations, and
    /// labelings (`cache`). Nothing is asserted about the verdicts — only
    /// that each call returns at all and the shared cache stays within its
    /// memory bounds.
    fn hammer<S: Pls + Clone>(
        scheme: S,
        config: &Configuration,
        garbage: &[BitString],
        seed: u64,
        cache: &mut rpls::core::PrepCache,
    ) {
        let n = config.node_count();
        let labeling: Labeling = (0..n).map(|i| garbage[i % garbage.len()].clone()).collect();

        // Deterministic verifier on garbage labels.
        let _ = engine::run_deterministic(&scheme, config, &labeling);

        // Compiled verifier on garbage labels: unprepared round, then the
        // prepared estimator path (which routes through the batched trial
        // engine), then the batched hook driven directly — whole blocks of
        // trials against corrupted replicas must reject, never panic.
        let compiled = CompiledRpls::new(scheme.clone());
        let _ = engine::run_randomized(&compiled, config, &labeling, seed);
        let _ = stats::acceptance_probability(&compiled, config, &labeling, 2, seed);
        {
            use rpls::core::engine::StreamMode;
            use rpls::core::{PrepCache, RoundScratch};
            let prepared = Rpls::prepare(&compiled, config, &labeling, 3);
            // The cached-prepare twin, sharing arbitrary earlier state:
            // garbage labelings must neither panic it nor blow its memory
            // bounds, and whole blocks of trials must emit the same
            // reports the fresh preparation emits.
            let cached = compiled.prepare_cached(config, &labeling, 3, cache);
            let mut scratch = RoundScratch::new();
            for mode in [StreamMode::EdgeIndependent, StreamMode::SharedPerNode] {
                let mut fresh_out = Vec::new();
                engine::run_trials(
                    &RunSpec::trial(0).with_stream_mode(mode),
                    &*prepared,
                    config,
                    &[seed, seed ^ 5, seed ^ 9],
                    &mut scratch,
                    &mut |s| fresh_out.push(s),
                );
                let mut cached_out = Vec::new();
                engine::run_trials(
                    &RunSpec::trial(0).with_stream_mode(mode),
                    &*cached,
                    config,
                    &[seed, seed ^ 5, seed ^ 9],
                    &mut scratch,
                    &mut |s| cached_out.push(s),
                );
                assert_eq!(fresh_out, cached_out, "cached vs fresh reports");
            }
            let mut cached_estimate_scratch = RoundScratch::new();
            let _ = stats::estimate_with(
                &compiled,
                config,
                &labeling,
                &RunSpec::trial(seed ^ 4),
                &EstimateOpts::new(2),
                &mut cached_estimate_scratch,
                cache,
            )
            .acceptance();
            assert!(cache.retained_key_bits() <= PrepCache::KEY_BITS_BUDGET);
            assert!(cache.table_slots_reserved() <= PrepCache::TABLE_SLOT_BUDGET);

            // The t-round trade-off engine on the same garbage: hostile
            // round counts (including absurd ones — the chunked planner
            // must stay O(label bits), never O(t)) and both stream modes
            // may reject, never panic or hang; cached and fresh
            // preparations must emit identical multi-round reports.
            for rounds in [1usize, 2, 7, 129, usize::MAX] {
                for mode in [StreamMode::EdgeIndependent, StreamMode::SharedPerNode] {
                    let mut fresh_out = Vec::new();
                    engine::run_trials(
                        &RunSpec::trial(0).with_rounds(rounds).with_stream_mode(mode),
                        &*prepared,
                        config,
                        &[seed, seed ^ 11],
                        &mut scratch,
                        &mut |s| fresh_out.push(s),
                    );
                    let mut cached_out = Vec::new();
                    engine::run_trials(
                        &RunSpec::trial(0).with_rounds(rounds).with_stream_mode(mode),
                        &*cached,
                        config,
                        &[seed, seed ^ 11],
                        &mut scratch,
                        &mut |s| cached_out.push(s),
                    );
                    assert_eq!(
                        fresh_out, cached_out,
                        "cached vs fresh multi-round reports (t = {rounds})"
                    );
                    for s in &fresh_out {
                        assert!(s.decided_round >= 1 && s.decided_round <= s.rounds);
                    }
                }
            }
            // The fault layer on the same garbage: hostile
            // fault rates (including total loss) and hostile round
            // counts may degrade the verdict, never panic or hang —
            // and cached and fresh preparations must emit identical
            // faulted reports.
            {
                use rpls::core::{FaultPlan, FaultSpec};
                let hostile = [
                    FaultSpec::transparent(),
                    FaultSpec::transparent().with_drop(1.0),
                    FaultSpec::transparent().with_crash(1.0),
                    FaultSpec::transparent()
                        .with_drop(0.4)
                        .with_corrupt(0.4)
                        .with_duplicate(0.4)
                        .with_crash(0.3)
                        .with_retry_budget(2),
                ];
                for spec in hostile {
                    let plan = FaultPlan::new(spec, seed ^ 0xFA);
                    let mut fresh_out = Vec::new();
                    engine::run_trials(
                        &RunSpec::trial(0).with_faults(plan.clone()),
                        &*prepared,
                        config,
                        &[seed, seed ^ 13],
                        &mut scratch,
                        &mut |s| fresh_out.push(s),
                    );
                    let mut cached_out = Vec::new();
                    engine::run_trials(
                        &RunSpec::trial(0).with_faults(plan.clone()),
                        &*cached,
                        config,
                        &[seed, seed ^ 13],
                        &mut scratch,
                        &mut |s| cached_out.push(s),
                    );
                    assert_eq!(fresh_out, cached_out, "cached vs fresh faulted reports");
                    // t = 1 is single-shot delivery (no retries); longer
                    // schedules run the chunked overlay with the budget.
                    for rounds in [1usize, 5, usize::MAX] {
                        let mut out = Vec::new();
                        engine::run_trials(
                            &RunSpec::trial(0)
                                .with_rounds(rounds)
                                .with_faults(plan.clone()),
                            &*prepared,
                            config,
                            &[seed ^ 17],
                            &mut scratch,
                            &mut |s| out.push(s),
                        );
                        let fault = out[0].fault.expect("faulted specs report faults");
                        assert!(rounds > 1 || fault.counts.retries == 0);
                        assert!(out[0].decided_round >= 1 && out[0].decided_round <= rounds);
                    }
                    let _ = engine::run_degraded(
                        &RunSpec::trial(seed ^ 21).with_faults(plan.clone()),
                        &Unprepared::new(&compiled, config, &labeling),
                        config,
                        &mut scratch,
                    );
                }
            }

            let _ = engine::run(
                &RunSpec::trial(seed ^ 6).with_rounds(3),
                &compiled,
                config,
                &labeling,
            );
            let _ = stats::estimate(
                &compiled,
                config,
                &labeling,
                &RunSpec::trial(seed ^ 7).with_rounds(2),
                &EstimateOpts::new(2),
            )
            .acceptance();
            // A hostile schedule length: the rejection histogram grows only
            // to the latest decided round, and never past 2^20 buckets.
            let hostile = RunSpec::trial(seed ^ 8).with_rounds(usize::MAX);
            let est = stats::estimate(
                &compiled,
                config,
                &labeling,
                &hostile,
                &EstimateOpts::new(2),
            );
            let latest = (0..2)
                .map(|t| {
                    let trial = RunSpec::trial(stats::trial_seed(seed ^ 8, t));
                    engine::run(&trial.with_rounds(usize::MAX), &compiled, config, &labeling)
                })
                .filter(|r| !r.accepted)
                .map(|r| r.decided_round)
                .max()
                .unwrap_or(0);
            assert_eq!(est.trials, 2);
            assert!(est.rejects_at.len() <= 1 << 20);
            assert!(est.rejects_at.len() <= latest);
            assert!(est.accepts < est.trials || est.rejects_at.is_empty());
        }

        // Honest labels but corrupted certificates, then garbage labels
        // *and* corrupted certificates, through both paths.
        let honest = Rpls::label(&compiled, config);
        // Honest labels under the hostile schedule: an estimate whose
        // every trial accepted holds no rejection bucket.
        let hostile = RunSpec::trial(seed ^ 8).with_rounds(usize::MAX);
        let est = stats::estimate(&compiled, config, &honest, &hostile, &EstimateOpts::new(2));
        assert!(est.accepts < est.trials || est.rejects_at.is_empty());
        let corrupting = CorruptingRpls { inner: compiled };
        let _ = engine::run_randomized(&corrupting, config, &honest, seed);
        let _ = stats::acceptance_probability(&corrupting, config, &honest, 2, seed ^ 1);
        let _ = stats::acceptance_probability(&corrupting, config, &labeling, 2, seed ^ 2);

        // The κ-bit baseline wrapper: garbage labels double as garbage
        // certificates (the certificate *is* the label), corrupted on top.
        let exchanging = CorruptingRpls {
            inner: ExchangeLabels::new(scheme),
        };
        let _ = engine::run_randomized(&exchanging, config, &labeling, seed);
        let _ = stats::acceptance_probability(&exchanging, config, &labeling, 2, seed ^ 3);
    }

    /// Assembles the garbage label pool from proptest's raw material.
    fn pool(words: &[(u64, u32)]) -> Vec<BitString> {
        words
            .iter()
            .map(|&(value, width)| {
                let mut b = BitString::new();
                let width = width % 65;
                if width > 0 {
                    let masked = if width == 64 {
                        value
                    } else {
                        value & ((1u64 << width) - 1)
                    };
                    b.push_u64(masked, width);
                }
                b
            })
            .collect()
    }

    /// Regression: the prepared `ExchangeLabels` verdict must follow the
    /// *delivered* certificates, not the labeling it was prepared for —
    /// a wrapper corrupting certificates in flight must see identical
    /// verdicts on the prepared and unprepared paths.
    #[test]
    fn corrupting_wrapper_prepared_path_matches_unprepared() {
        use rpls::core::RoundScratch;
        use rpls::schemes::spanning_tree::{spanning_tree_config, SpanningTreePls};
        let config =
            spanning_tree_config(&Configuration::plain(generators::cycle(6)), NodeId::new(0));
        let scheme = CorruptingRpls {
            inner: ExchangeLabels::new(SpanningTreePls::new()),
        };
        let labeling = Rpls::label(&scheme, &config);
        let prepared = scheme.prepare(&config, &labeling, 64);
        let mut unprepared_scratch = RoundScratch::new();
        let mut prepared_scratch = RoundScratch::new();
        for seed in 0..25u64 {
            let a = engine::run_prepared(
                &RunSpec::trial(seed),
                &Unprepared::new(&scheme, &config, &labeling),
                &config,
                &mut unprepared_scratch,
            );
            let b = engine::run_prepared(
                &RunSpec::trial(seed),
                &*prepared,
                &config,
                &mut prepared_scratch,
            );
            assert_eq!(a, b, "seed {seed}");
            assert_eq!(
                unprepared_scratch.votes(),
                prepared_scratch.votes(),
                "seed {seed}"
            );
        }
    }

    /// Wraps a randomized scheme so every certificate arrives truncated
    /// to a fixed prefix — including the empty one. Unlike
    /// [`CorruptingRpls`] the damage is deterministic, so the test can
    /// assert the verdict, not just the absence of a panic.
    struct TruncatingRpls<S> {
        inner: S,
        keep: usize,
    }

    impl<S: Rpls> Rpls for TruncatingRpls<S> {
        fn name(&self) -> String {
            format!("truncating({}, {})", self.inner.name(), self.keep)
        }
        fn label(&self, config: &Configuration) -> Labeling {
            self.inner.label(config)
        }
        fn certify(&self, view: &CertView<'_>, port: Port, rng: &mut dyn Rng) -> BitString {
            self.inner.certify(view, port, rng).truncated(self.keep)
        }
        fn certify_into(
            &self,
            view: &CertView<'_>,
            port: Port,
            rng: &mut dyn Rng,
            out: &mut BitString,
        ) {
            self.inner.certify_into(view, port, rng, out);
            *out = out.truncated(self.keep);
        }
        fn verify(&self, view: &RandView<'_>) -> bool {
            self.inner.verify(view)
        }
        fn prepare<'a>(
            &'a self,
            config: &'a Configuration,
            labeling: &'a Labeling,
            rounds_hint: usize,
        ) -> Box<dyn PreparedRpls + 'a> {
            Box::new(TruncatingPrepared {
                inner: self.inner.prepare(config, labeling, rounds_hint),
                keep: self.keep,
            })
        }
    }

    struct TruncatingPrepared<'a> {
        inner: Box<dyn PreparedRpls + 'a>,
        keep: usize,
    }

    impl PreparedRpls for TruncatingPrepared<'_> {
        fn certify_into(&self, node: NodeId, port: Port, rng: &mut dyn Rng, out: &mut BitString) {
            self.inner.certify_into(node, port, rng, out);
            *out = out.truncated(self.keep);
        }
        fn verify(&self, node: NodeId, received: &Received<'_>) -> bool {
            self.inner.verify(node, received)
        }
    }

    /// Regression for the total-read contract on delivered certificates:
    /// a certificate truncated below the bits the verifier wants to read
    /// (down to and including zero bits) must yield a reject vote — never
    /// a panic — on the unprepared and prepared paths alike.
    #[test]
    fn truncated_certificates_reject_never_panic() {
        use rpls::core::RoundScratch;
        use rpls::schemes::spanning_tree::{spanning_tree_config, SpanningTreePls};
        let config =
            spanning_tree_config(&Configuration::plain(generators::cycle(6)), NodeId::new(0));
        let mut scratch = RoundScratch::new();
        for keep in [0usize, 1, 2, 3] {
            let scheme = TruncatingRpls {
                inner: CompiledRpls::new(SpanningTreePls::new()),
                keep,
            };
            let labeling = Rpls::label(&scheme, &config);
            let prepared = scheme.prepare(&config, &labeling, 8);
            for seed in 0..8u64 {
                let a = engine::run_prepared(
                    &RunSpec::trial(seed),
                    &Unprepared::new(&scheme, &config, &labeling),
                    &config,
                    &mut scratch,
                );
                assert!(
                    !a.accepted,
                    "a {keep}-bit prefix of a fingerprint certificate must reject (seed {seed})"
                );
                assert!(scratch.votes().iter().all(|&v| !v), "every vote rejects");
                let b =
                    engine::run_prepared(&RunSpec::trial(seed), &*prepared, &config, &mut scratch);
                assert_eq!(a, b, "prepared path agrees (keep {keep}, seed {seed})");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        #[test]
        fn no_scheme_verifier_panics_on_garbage(
            words in vec((any::<u64>(), 0u32..=64), 1..6),
            seed in any::<u64>(),
        ) {
            let garbage = pool(&words);
            let plain5 = Configuration::plain(generators::cycle(5));
            let path5 = Configuration::plain(generators::path(5));
            // One preparation cache shared across every scheme,
            // configuration, and garbage labeling below — the cached
            // entries are content-keyed, so cross-pollination must be
            // harmless by construction (and memory stays bounded, checked
            // inside each hammer pass).
            let mut cache = rpls::core::PrepCache::new();

            use rpls::schemes::*;
            hammer(acyclicity::AcyclicityPls::new(), &path5, &garbage, seed, &mut cache);
            hammer(biconnectivity::BiconnectivityPls::new(), &plain5, &garbage, seed, &mut cache);
            hammer(
                coloring::ColoringPls::new(),
                &coloring::greedy_coloring_config(&plain5),
                &garbage,
                seed,
                &mut cache,
            );
            hammer(cycle_at_least::CycleAtLeastPls::new(4), &plain5, &garbage, seed, &mut cache);
            hammer(
                leader::LeaderPls::new(),
                &leader::leader_config(&plain5, NodeId::new(2)),
                &garbage,
                seed,
                &mut cache,
            );
            hammer(
                spanning_tree::SpanningTreePls::new(),
                &spanning_tree::spanning_tree_config(&plain5, NodeId::new(0)),
                &garbage,
                seed,
                &mut cache,
            );
            hammer(
                uniformity::UniformityPls::new(),
                &uniformity::uniform_config(&plain5, &BitString::zeros(16)),
                &garbage,
                seed,
                &mut cache,
            );
            hammer(
                mst::MstPls::new(),
                &mst::mst_config(&Configuration::plain(
                    generators::cycle(5).with_weights(&[4, 1, 5, 2, 3]),
                )),
                &garbage,
                seed,
                &mut cache,
            );

            // Terminals 0 and 3 are non-adjacent on a 6-cycle, giving two
            // edge-disjoint (and vertex-disjoint) paths.
            let cyc6 = Configuration::plain(generators::cycle(6));
            hammer(
                flow::FlowPls::new(flow::FlowPredicate::new(0, 3, 2)),
                &cyc6,
                &garbage,
                seed,
                &mut cache,
            );
            hammer(
                vertex_connectivity::StConnectivityPls::new(
                    vertex_connectivity::StConnectivityPredicate::new(0, 3, 2),
                ),
                &cyc6,
                &garbage,
                seed,
                &mut cache,
            );

            // The universal-only predicates ride on the Lemma 3.3 scheme.
            hammer(cycle_at_most::cycle_at_most_pls(6), &plain5, &garbage, seed, &mut cache);
            hammer(symmetry::symmetry_pls(), &path5, &garbage, seed, &mut cache);
        }
    }
}
