//! Verification complexity measurement (Definition 2.1), in exact bits.
//!
//! * Deterministic: the maximum label length the prover assigns over a set
//!   of legal configurations.
//! * Randomized: the maximum certificate length generated by the verifier
//!   over legal configurations and sampled rounds. The schemes in this
//!   repository emit fixed-size certificates per configuration, so a small
//!   number of sampled rounds measures the exact maximum.

use crate::buffer::RoundScratch;
use crate::engine::{self, MessagePattern, RunSpec};
use crate::prep::PrepCache;
use crate::scheme::{Pls, PreparedRpls, Rpls};
use crate::state::Configuration;
use rpls_graph::NodeId;

/// Maximum label bits the prover of `scheme` assigns across `configs`
/// (which must all satisfy the predicate — the prover is only defined
/// there).
pub fn deterministic_complexity<S: Pls + ?Sized>(scheme: &S, configs: &[Configuration]) -> usize {
    configs
        .iter()
        .map(|c| scheme.label(c).max_bits())
        .max()
        .unwrap_or(0)
}

/// Maximum certificate bits generated by `scheme` across `configs` and
/// `rounds` sampled rounds per configuration.
///
/// Each configuration's labeling is prepared once — through
/// [`Rpls::prepare_cached`] against one [`PrepCache`] shared across the
/// whole configuration sweep, so labels (and fingerprinted strings)
/// recurring across instances are prepared once — and its sampled rounds
/// run in blocks through [`engine::run_trials`], so schemes with a batched
/// trial hook measure at batched speed while reporting exactly the
/// per-round certificate sizes the scalar path reports.
pub fn randomized_complexity<S: Rpls + ?Sized>(
    scheme: &S,
    configs: &[Configuration],
    rounds: usize,
    seed: u64,
) -> usize {
    let spec = RunSpec::trial(seed);
    let mut cache = PrepCache::new();
    let mut scratch = RoundScratch::new();
    configs
        .iter()
        .enumerate()
        .map(|(i, c)| {
            let labeling = scheme.label(c);
            let prepared = scheme.prepare_cached(c, &labeling, rounds, &mut cache);
            sampled_max_bits(&*prepared, c, i, &spec, rounds, &mut scratch)
        })
        .max()
        .unwrap_or(0)
}

/// The largest per-round bits over `samples` sampled trials of `spec` on
/// the `index`-th configuration of a sweep, trial `r` seeded by
/// `mix_seed(spec.seed(), index, r)`.
fn sampled_max_bits(
    prepared: &dyn PreparedRpls,
    config: &Configuration,
    index: usize,
    spec: &RunSpec,
    samples: usize,
    scratch: &mut RoundScratch,
) -> usize {
    let seed = spec.seed();
    let mut max = 0usize;
    engine::run_seeded_trials(
        spec,
        prepared,
        config,
        samples,
        &|r| engine::mix_seed(seed, index as u64, r),
        scratch,
        &mut |report| max = max.max(report.max_bits_per_round),
    );
    max
}

/// The three-axis cost of a `t`-round verification schedule under a
/// [`MessagePattern`] — the `(messages, bits-per-round, rounds)` triple
/// of the broadcast/unicast/k-messages spectrum, produced by
/// [`randomized_complexity_report`]. Definition 2.1 only counts bits; the
/// triple makes the other two resources the trade-off spends explicit:
/// how many *distinct* messages a node emits per round, and how many
/// rounds the schedule takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ComplexityTriple {
    /// Maximum number of distinct messages any node sends per round
    /// (degree for per-port and unicast, 1 for broadcast, ≤ k for
    /// k-messages).
    pub messages: usize,
    /// Maximum bits of any single message in any single round.
    pub bits_per_round: usize,
    /// Rounds of the schedule the triple was measured for.
    pub rounds: usize,
}

/// Measures the `(messages, bits-per-round, rounds)` triple of `scheme`
/// under `pattern` for a `rounds`-round schedule, across `configs` — the
/// message-pattern and t-round generalisation of
/// [`randomized_complexity`], which reports only the one-round bits axis
/// (under the per-port pattern at `rounds = 1` this function's
/// `bits_per_round` equals it).
///
/// Schemes that know their pattern economics
/// ([`PreparedRpls::pattern_cost`],
/// notably the Theorem 3.1 compiler) answer from their labeling-static
/// plans; everything else is measured empirically over `samples` sampled
/// trials per configuration. The message count is graph-static either way
/// ([`MessagePattern::slots`] of each degree). One [`PrepCache`] serves
/// the whole sweep.
///
/// # Panics
///
/// Panics if `rounds` is 0.
pub fn randomized_complexity_report<S: Rpls + ?Sized>(
    scheme: &S,
    configs: &[Configuration],
    pattern: MessagePattern,
    rounds: usize,
    samples: usize,
    seed: u64,
) -> ComplexityTriple {
    let spec = RunSpec::trial(seed)
        .with_rounds(rounds)
        .with_pattern(pattern);
    let mut cache = PrepCache::new();
    let mut scratch = RoundScratch::new();
    let mut messages = 0usize;
    let mut bits = 0usize;
    for (i, c) in configs.iter().enumerate() {
        let labeling = scheme.label(c);
        let prepared = scheme.prepare_cached(c, &labeling, samples, &mut cache);
        if let Some(cost) = prepared.pattern_cost(pattern, rounds) {
            messages = messages.max(cost.messages);
            bits = bits.max(cost.max_bits_per_round);
            continue;
        }
        let g = c.graph();
        for v in 0..c.node_count() {
            messages = messages.max(pattern.slots(g.degree(NodeId::new(v))));
        }
        bits = bits.max(sampled_max_bits(
            &*prepared,
            c,
            i,
            &spec,
            samples,
            &mut scratch,
        ));
    }
    ComplexityTriple {
        messages,
        bits_per_round: bits,
        rounds,
    }
}

/// A labelled measurement row, as printed by the experiment harness.
#[derive(Debug, Clone, PartialEq)]
pub struct ComplexityRow {
    /// Instance size `n` this row was measured at.
    pub n: usize,
    /// Deterministic verification complexity κ in bits.
    pub deterministic_bits: usize,
    /// Randomized (certificate) complexity in bits.
    pub randomized_bits: usize,
}

impl ComplexityRow {
    /// Compression factor κ / certificate-bits (∞-safe: 0 when randomized
    /// is 0).
    #[must_use]
    pub fn compression(&self) -> f64 {
        if self.randomized_bits == 0 {
            0.0
        } else {
            self.deterministic_bits as f64 / self.randomized_bits as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::labeling::Labeling;
    use crate::scheme::{CertView, DetView, ErrorSides, RandView};
    use rand::Rng;
    use rpls_bits::BitString;
    use rpls_graph::{generators, Port};
    use std::num::NonZeroUsize;

    /// Labels of size n (unary!), certificates of size ⌈log n⌉.
    struct UnaryVsBinary;

    impl Pls for UnaryVsBinary {
        fn name(&self) -> String {
            "unary".into()
        }
        fn label(&self, config: &Configuration) -> Labeling {
            Labeling::new(vec![
                BitString::zeros(config.node_count());
                config.node_count()
            ])
        }
        fn verify(&self, _view: &DetView<'_>) -> bool {
            true
        }
    }

    impl Rpls for UnaryVsBinary {
        fn name(&self) -> String {
            "binary".into()
        }
        fn error_sides(&self) -> ErrorSides {
            ErrorSides::OneSided
        }
        fn label(&self, config: &Configuration) -> Labeling {
            Pls::label(self, config)
        }
        fn certify(&self, view: &CertView<'_>, _port: Port, _rng: &mut dyn Rng) -> BitString {
            BitString::zeros(rpls_bits::bits_for(view.label.len() as u64) as usize)
        }
        fn verify(&self, _view: &RandView<'_>) -> bool {
            true
        }
    }

    #[test]
    fn measures_max_over_configs() {
        let configs: Vec<Configuration> = [4usize, 9, 6]
            .iter()
            .map(|&n| Configuration::plain(generators::cycle(n)))
            .collect();
        assert_eq!(deterministic_complexity(&UnaryVsBinary, &configs), 9);
        assert_eq!(
            randomized_complexity(&UnaryVsBinary, &configs, 3, 0),
            4 // bits_for(9) = 4
        );
    }

    #[test]
    fn empty_config_set_measures_zero() {
        assert_eq!(deterministic_complexity(&UnaryVsBinary, &[]), 0);
        assert_eq!(randomized_complexity(&UnaryVsBinary, &[], 3, 0), 0);
    }

    #[test]
    fn multiround_complexity_shrinks_per_round_bits() {
        let configs: Vec<Configuration> = [4usize, 9, 6]
            .iter()
            .map(|&n| Configuration::plain(generators::cycle(n)))
            .collect();
        let multiround_complexity = |configs: &[Configuration], rounds| {
            randomized_complexity_report(
                &UnaryVsBinary,
                configs,
                MessagePattern::PerPort,
                rounds,
                3,
                0,
            )
            .bits_per_round
        };
        // The default split schedule: ⌈4 bits / t⌉ per round.
        let one = multiround_complexity(&configs, 1);
        assert_eq!(one, randomized_complexity(&UnaryVsBinary, &configs, 3, 0));
        assert_eq!(multiround_complexity(&configs, 2), 2);
        assert_eq!(multiround_complexity(&configs, 4), 1);
        assert_eq!(multiround_complexity(&configs, 64), 1);
        assert_eq!(multiround_complexity(&[], 2), 0);
    }

    /// A fault-rate sweep through one shared preparation: the transparent
    /// row is bit-identical to the clean estimator, and acceptance only
    /// falls as the loss rate grows.
    #[test]
    fn fault_profile_shares_one_preparation_and_pins_the_clean_row() {
        use crate::compiler::CompiledRpls;
        use crate::fault::{FaultPlan, FaultSpec};
        use crate::prep::PrepCache;
        use crate::stats::{self, EstimateOpts};
        let config = Configuration::plain(generators::cycle(8));
        let scheme = CompiledRpls::new(UnaryVsBinary);
        let labeling = Rpls::label(&scheme, &config);
        let trials = 40usize;
        let mut scratch = RoundScratch::new();
        let mut cache = PrepCache::new();
        let rows: Vec<stats::Estimate> = [
            FaultSpec::transparent(),
            FaultSpec::transparent().with_drop(0.1),
            FaultSpec::transparent().with_drop(1.0),
        ]
        .into_iter()
        .map(|spec| {
            let spec = RunSpec::trial(7).with_faults(FaultPlan::new(spec, 11));
            let opts = EstimateOpts::new(trials);
            stats::estimate_with(
                &scheme,
                &config,
                &labeling,
                &spec,
                &opts,
                &mut scratch,
                &mut cache,
            )
        })
        .collect();
        // One preparation served every row after the first.
        assert!(cache.hits() > 0, "{cache:?}");
        // The transparent row is bit-identical to the clean estimator.
        let clean = crate::stats::acceptance_probability(&scheme, &config, &labeling, trials, 7);
        assert_eq!(rows[0].acceptance(), clean);
        assert_eq!(rows[0].degraded_trials, 0);
        // Total loss rejects every trial; a 10% drop sits in between.
        assert_eq!(rows[2].acceptance(), 0.0);
        assert!(rows[1].acceptance() <= rows[0].acceptance());
        assert!(rows[1].acceptance() >= rows[2].acceptance());
        assert_eq!(rows[2].degraded_trials, trials);
    }

    /// Satellite pin: the `(messages, bits-per-round, rounds)` triple of
    /// the exchange-labels baseline on the cycle sweep, at t ∈ {1, 4}.
    /// Certificates are the unary labels (max 9 bits at n = 9), so the
    /// bits axis is 9 one-round and ⌈9/4⌉ = 3 per round at t = 4; the
    /// messages axis is the cycle degree 2 for the per-port-keyed
    /// patterns and 1 for broadcast.
    #[test]
    fn exchange_labels_triple_is_pinned() {
        use crate::scheme::ExchangeLabels;
        let configs: Vec<Configuration> = [4usize, 9, 6]
            .iter()
            .map(|&n| Configuration::plain(generators::cycle(n)))
            .collect();
        let exchange = ExchangeLabels::new(UnaryVsBinary);
        let triple = |pattern, rounds| {
            randomized_complexity_report(&exchange, &configs, pattern, rounds, 3, 0)
        };
        for (pattern, messages) in [
            (MessagePattern::PerPort, 2),
            (MessagePattern::Broadcast, 1),
            (MessagePattern::Unicast, 2),
            (MessagePattern::KMessages(NonZeroUsize::new(2).unwrap()), 2),
        ] {
            let one = triple(pattern, 1);
            assert_eq!(
                (one.messages, one.bits_per_round, one.rounds),
                (messages, 9, 1),
                "{pattern:?} t=1"
            );
            let four = triple(pattern, 4);
            assert_eq!(
                (four.messages, four.bits_per_round, four.rounds),
                (messages, 3, 4),
                "{pattern:?} t=4"
            );
        }
    }

    /// Satellite pin: the triple of one compiled scheme at t ∈ {1, 4} —
    /// answered from the labeling-static plans via
    /// [`PreparedRpls::pattern_cost`](crate::scheme::PreparedRpls::pattern_cost),
    /// not sampled. κ = 9 unary bits gives λ = 32 + 9 = 41, a 7-bit prime
    /// in (3λ, 6λ), and a 14-bit `(x, P(x))` message; the t = 4 slice
    /// protocol fingerprints ⌈41/4⌉ = 11-bit chunks with a 6-bit prime
    /// (12-bit messages). Unicast ships `P(x)` only — exactly half.
    #[test]
    fn compiled_triple_is_pinned() {
        use crate::compiler::CompiledRpls;
        let configs: Vec<Configuration> = [4usize, 9, 6]
            .iter()
            .map(|&n| Configuration::plain(generators::cycle(n)))
            .collect();
        let compiled = CompiledRpls::new(UnaryVsBinary);
        let triple = |pattern, rounds| {
            randomized_complexity_report(&compiled, &configs, pattern, rounds, 3, 0)
        };
        for (pattern, messages, one_bits, four_bits) in [
            (MessagePattern::PerPort, 2, 14, 12),
            (MessagePattern::Broadcast, 1, 14, 12),
            (MessagePattern::Unicast, 2, 7, 6),
            (
                MessagePattern::KMessages(NonZeroUsize::new(2).unwrap()),
                2,
                14,
                12,
            ),
        ] {
            let one = triple(pattern, 1);
            assert_eq!(
                (one.messages, one.bits_per_round, one.rounds),
                (messages, one_bits, 1),
                "{pattern:?} t=1"
            );
            let four = triple(pattern, 4);
            assert_eq!(
                (four.messages, four.bits_per_round, four.rounds),
                (messages, four_bits, 4),
                "{pattern:?} t=4"
            );
        }
    }

    /// A sweep over repeated structure shares preparations through one
    /// cache (a nonzero hit rate), and the complexity measurements agree
    /// with each other on the bits axis.
    #[test]
    fn cached_sweeps_report_nonzero_hit_rate() {
        use crate::compiler::CompiledRpls;
        use crate::prep::PrepCache;
        let configs: Vec<Configuration> = [4usize, 9, 6]
            .iter()
            .map(|&n| Configuration::plain(generators::cycle(n)))
            .collect();
        let scheme = CompiledRpls::new(UnaryVsBinary);
        let bits = randomized_complexity(&scheme, &configs, 3, 0);
        let triple =
            randomized_complexity_report(&scheme, &configs, MessagePattern::PerPort, 1, 3, 0);
        assert_eq!(bits, triple.bits_per_round);
        let mut cache = PrepCache::new();
        for c in configs.iter().chain(&configs) {
            let labeling = Rpls::label(&scheme, c);
            let _ = scheme.prepare_cached(c, &labeling, 3, &mut cache);
        }
        let stats = cache.stats();
        assert!(stats.hits > 0, "sweep should share preparations: {stats:?}");
        assert!(stats.hit_rate() > 0.0);
        assert!(stats.misses > 0);
    }

    #[test]
    fn compression_ratio() {
        let row = ComplexityRow {
            n: 10,
            deterministic_bits: 100,
            randomized_bits: 10,
        };
        assert!((row.compression() - 10.0).abs() < 1e-9);
        let zero = ComplexityRow {
            n: 10,
            deterministic_bits: 100,
            randomized_bits: 0,
        };
        assert_eq!(zero.compression(), 0.0);
    }
}
