//! Monte-Carlo acceptance estimation, with error boosting (footnote 1) and
//! the t-round rounds-to-reject histogram read off the same trials.
//!
//! # One estimator
//!
//! [`estimate`] / [`estimate_with`] / [`estimate_par`] take a [`RunSpec`]
//! naming the job (rounds, pattern, stream mode, faults, seed source) plus
//! [`EstimateOpts`] and return an [`Estimate`]. Trial `t` always runs seed
//! [`trial_seed`]`(spec.seed(), t)`, whichever of them invoked it, so all
//! of them agree bit for bit. [`acceptance_probability`] is the paper's
//! `Pr[accept]` for the default one-round spec.
//!
//! Every tally is a fold over those trials:
//!
//! * the acceptance probability and the fault statistics;
//! * the round in which each rejecting trial was decided
//!   ([`Estimate::rejects_at`]) — the t-round trade-off of the
//!   multi-round verifier, summarised by [`Estimate::mean_reject_round`]
//!   and [`Estimate::quantile_reject_round`];
//! * the paper's boosting to `1 − δ` ("repeating the verification
//!   procedure O(log(1/δ)) times independently and outputting the
//!   majority of outcomes"): one boosted verification is `2·accepts > k`
//!   of an estimate over `k` trials. Experiment E-B measures its
//!   exponential decay.
//!
//! Every estimator prepares the labeling once — through
//! [`Rpls::prepare_cached`], against a caller-owned [`PrepCache`] for
//! [`estimate_with`] or a throwaway one otherwise, so sweeps over many
//! labelings amortise preparation — and hands blocks of per-trial seeds to
//! [`engine::run_trials`]. Schemes with a batched
//! [`PreparedRpls::run_block`] (notably
//! [`CompiledRpls`](crate::compiler::CompiledRpls)) evaluate trials
//! node-at-a-time; everything else runs the scalar reference. Estimates are
//! bit-identical either way.

use crate::buffer::RoundScratch;
use crate::engine::{self, mix_seed, RunReport, RunSpec};
use crate::fault::FaultCounts;
use crate::labeling::Labeling;
use crate::prep::PrepCache;
use crate::scheme::{PreparedRpls, Rpls};
use crate::state::Configuration;

/// The most rounds [`Estimate::rejects_at`] holds a bucket for. The engine
/// accepts any schedule length (up to `usize::MAX`), so a trial decided
/// later than this is counted in the last bucket rather than growing the
/// histogram further.
const MAX_REJECT_ROUNDS: usize = 1 << 20;

/// The per-trial round seed of the estimators. Public so benches and golden
/// tests can replay individual estimator trials through the engine.
#[must_use]
pub fn trial_seed(seed: u64, trial: u64) -> u64 {
    mix_seed(seed, trial, 0)
}

/// Options of a [`estimate`] run — everything about the Monte-Carlo
/// experiment that is *not* part of the job itself (the job is the
/// [`RunSpec`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EstimateOpts {
    /// Number of independent trials (must be ≥ 1; enforced at execution).
    pub trials: usize,
}

impl EstimateOpts {
    /// Options running `trials` independent trials.
    #[must_use]
    pub fn new(trials: usize) -> Self {
        Self { trials }
    }
}

/// Aggregate outcome of one [`estimate`] run. The fault fields stay zero
/// for fault-free specs.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Estimate {
    /// Trials estimated.
    pub trials: usize,
    /// Trials whose every node voted accept.
    pub accepts: usize,
    /// Trials in which at least one node was missing input (and therefore
    /// voted [`NodeVerdict::InsufficientInput`](crate::fault::NodeVerdict));
    /// always 0 for fault-free specs.
    pub degraded_trials: usize,
    /// Total missing messages over all trials (0 for fault-free specs).
    pub missing_messages: usize,
    /// Fault events aggregated over all trials.
    pub counts: FaultCounts,
    /// `rejects_at[r]` counts the rejecting trials whose verdict became
    /// known in round `r + 1` ([`RunReport::decided_round`]): parse- and
    /// width-level garbage lands in round 1, a tampered replica in the
    /// round whose slice covers the tampering, an inner-verifier rejection
    /// in the last round. Accepting trials touch no bucket, so an
    /// all-accepting estimate has none; otherwise the histogram is exactly
    /// as long as the latest decided round, up to 2²⁰ buckets — trials
    /// decided later than that are counted in the last one, which makes
    /// the derived round statistics lower bounds for such schedules.
    pub rejects_at: Vec<usize>,
}

impl Estimate {
    /// The estimated acceptance probability.
    #[must_use]
    pub fn acceptance(&self) -> f64 {
        self.accepts as f64 / self.trials as f64
    }

    /// The fraction of trials that lost at least one message.
    #[must_use]
    pub fn degradation(&self) -> f64 {
        self.degraded_trials as f64 / self.trials as f64
    }

    /// The smallest 1-based round by which at least `q` (0 < q ≤ 1) of the
    /// rejecting trials were decided — `quantile_reject_round(0.5)` is the
    /// median rejection round. `None` when no trial rejected.
    #[must_use]
    pub fn quantile_reject_round(&self, q: f64) -> Option<usize> {
        let rejects = self.trials - self.accepts;
        let need = ((q * rejects as f64).ceil() as usize).clamp(1, rejects.max(1));
        let mut seen = 0;
        self.rejects_at
            .iter()
            .position(|&count| {
                seen += count;
                seen >= need
            })
            .map(|r| r + 1)
    }

    /// Mean 1-based rejection round over rejecting trials, `None` when no
    /// trial rejected.
    #[must_use]
    pub fn mean_reject_round(&self) -> Option<f64> {
        let rejects = self.trials - self.accepts;
        let total: usize = self
            .rejects_at
            .iter()
            .enumerate()
            .map(|(r, &count)| (r + 1) * count)
            .sum();
        (rejects > 0).then(|| total as f64 / rejects as f64)
    }

    /// Folds one trial's report in place. Only a rejection past the
    /// current histogram grows it, so a run allocates at most once per new
    /// latest decided round, never once per trial.
    fn record(&mut self, report: &RunReport) {
        self.trials += 1;
        if report.accepted {
            self.accepts += 1;
        } else {
            let round = report.decided_round.clamp(1, MAX_REJECT_ROUNDS);
            if self.rejects_at.len() < round {
                self.rejects_at.resize(round, 0);
            }
            self.rejects_at[round - 1] += 1;
        }
        if let Some(fault) = &report.fault {
            self.degraded_trials += usize::from(fault.insufficient_nodes > 0);
            self.missing_messages += fault.missing_messages;
            self.counts.absorb(fault.counts);
        }
    }

    /// Adds `other`'s tallies into `self` — how worker shards merge. Every
    /// field is a sum, so the result does not depend on how trials were
    /// split.
    #[cfg(feature = "parallel")]
    fn absorb(&mut self, other: &Estimate) {
        self.trials += other.trials;
        self.accepts += other.accepts;
        self.degraded_trials += other.degraded_trials;
        self.missing_messages += other.missing_messages;
        self.counts.absorb(other.counts);
        if self.rejects_at.len() < other.rejects_at.len() {
            self.rejects_at.resize(other.rejects_at.len(), 0);
        }
        for (mine, theirs) in self.rejects_at.iter_mut().zip(&other.rejects_at) {
            *mine += theirs;
        }
    }
}

/// The trial loop every estimator bottoms out in: runs `trials` trials of
/// `spec` whose per-trial seeds are `seed_of(0..trials)`, folding their
/// reports into an [`Estimate`].
fn estimate_prepared(
    prepared: &dyn PreparedRpls,
    config: &Configuration,
    spec: &RunSpec,
    trials: usize,
    seed_of: &dyn Fn(u64) -> u64,
    scratch: &mut RoundScratch,
) -> Estimate {
    let mut out = Estimate::default();
    engine::run_seeded_trials(spec, prepared, config, trials, seed_of, scratch, &mut |r| {
        out.record(&r);
    });
    out
}

/// Estimates the acceptance probability of one [`RunSpec`] job over
/// `opts.trials` independent trials; trial `t` runs seed
/// [`trial_seed`]`(spec.seed(), t)`.
///
/// The spec's [`SeedSource`](crate::engine::SeedSource) picks private or
/// public (beacon) coins; everything else — rounds, pattern, stream mode,
/// faults — dispatches through [`engine::run_trials`].
///
/// # Panics
///
/// Panics if `opts.trials` is 0 (and, transitively, if `spec.rounds` is 0).
pub fn estimate<S: Rpls + ?Sized>(
    scheme: &S,
    config: &Configuration,
    labeling: &Labeling,
    spec: &RunSpec,
    opts: &EstimateOpts,
) -> Estimate {
    estimate_with(
        scheme,
        config,
        labeling,
        spec,
        opts,
        &mut RoundScratch::new(),
        &mut PrepCache::new(),
    )
}

/// Like [`estimate`] but reuses caller-owned scratch and a [`PrepCache`]
/// across labelings — the form sweeps use (the hill-climbing adversary,
/// the verification service's one resident cache shared across every
/// submitted labeling, E-B's repeated boosted verifications). Under the
/// Theorem 3.1 compiler that turns per-candidate preparation from
/// O(nodes × label bits) parsing and polynomial building into O(nodes)
/// hash lookups. Estimates are bit-identical to [`estimate`] for any cache
/// state; the cache only moves work, never results.
///
/// # Panics
///
/// As [`estimate`].
pub fn estimate_with<S: Rpls + ?Sized>(
    scheme: &S,
    config: &Configuration,
    labeling: &Labeling,
    spec: &RunSpec,
    opts: &EstimateOpts,
    scratch: &mut RoundScratch,
    cache: &mut PrepCache,
) -> Estimate {
    assert!(opts.trials > 0, "need at least one trial");
    let prepared = scheme.prepare_cached(config, labeling, opts.trials, cache);
    let base = spec.seed();
    estimate_prepared(
        &*prepared,
        config,
        spec,
        opts.trials,
        &|t| trial_seed(base, t),
        scratch,
    )
}

/// Estimates `Pr[verifier accepts]` over `trials` independent rounds — the
/// [`estimate`] of the default one-round spec [`RunSpec::trial`]`(seed)`.
pub fn acceptance_probability<S: Rpls + ?Sized>(
    scheme: &S,
    config: &Configuration,
    labeling: &Labeling,
    trials: usize,
    seed: u64,
) -> f64 {
    estimate(
        scheme,
        config,
        labeling,
        &RunSpec::trial(seed),
        &EstimateOpts::new(trials),
    )
    .acceptance()
}

/// Parallel [`estimate`]: shards one labeling's trials across threads.
/// Worker `w` of `k` runs exactly the trials `w, w + k, …` with the
/// per-trial seeds the serial path derives, so the result is
/// **bit-identical** to [`estimate`] for the same inputs.
///
/// Every [`RunSpec`] parallelises, with the same transcripts trial for
/// trial: per-round streams and fault decision words are pure functions
/// of the trial seed, so sharding cannot move them, and every tally —
/// the rejection histogram included — merges additively. Each worker
/// prepares through its own private [`PrepCache`] (the cache is `Rc`-based
/// and cannot cross threads; preparation is a pure function of the
/// labeling, so per-worker caches and any shared-cache serial run produce
/// identical transcripts). `tests/parallel_identity.rs` pins serial ≡
/// parallel at 2/4/8 workers, against a serial sweep over one shared cache
/// as well.
///
/// `threads = None` uses the machine's available parallelism; one worker
/// (or one trial) runs [`estimate`] itself.
///
/// # Panics
///
/// As [`estimate`], or propagates (with worker context) any worker panic.
#[cfg(feature = "parallel")]
pub fn estimate_par<S: Rpls + Sync + ?Sized>(
    scheme: &S,
    config: &Configuration,
    labeling: &Labeling,
    spec: &RunSpec,
    opts: &EstimateOpts,
    threads: Option<usize>,
) -> Estimate {
    let trials = opts.trials;
    let workers = threads
        .unwrap_or_else(|| {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        })
        .min(trials);
    if workers <= 1 {
        return estimate(scheme, config, labeling, spec, opts);
    }
    let base = spec.seed();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                scope.spawn(move || {
                    let prepared = scheme.prepare_cached(
                        config,
                        labeling,
                        trials.div_ceil(workers),
                        &mut PrepCache::new(),
                    );
                    estimate_prepared(
                        &*prepared,
                        config,
                        spec,
                        (trials - w).div_ceil(workers),
                        &|i| trial_seed(base, w as u64 + i * workers as u64),
                        &mut RoundScratch::new(),
                    )
                })
            })
            .collect();
        let mut out = Estimate::default();
        for (w, h) in handles.into_iter().enumerate() {
            // Propagate the worker's panic with enough context to find it
            // (worker index, scheme) instead of the bare "worker" message a
            // plain `expect` would give.
            let shard = h.join().unwrap_or_else(|payload| {
                let msg = payload
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic payload".to_string());
                panic!(
                    "estimator worker {w}/{workers} for scheme '{}' panicked: {msg}",
                    scheme.name()
                )
            });
            out.absorb(&shard);
        }
        out
    })
}

/// The one-sided Clopper–Pearson upper confidence bound on a binomial
/// probability after `k` successes in `n` trials: the `p` at which
/// `Pr[Bin(n, p) ≤ k] = α`. A true probability above it would show `k` or
/// fewer successes with probability at most `α`, so "the bound is ≤ b"
/// certifies `p ≤ b` at confidence `1 − α` with no normal approximation.
///
/// Found by bisection on the binomial tail, summed in log space so that
/// `n` in the thousands neither underflows nor overflows. `α` is meant to
/// lie in `(0, 1)`. `k ≥ n` (and so `n = 0`) gives 1; for `k = 0` the
/// bound is `1 − α^{1/n}`.
#[must_use]
pub fn clopper_pearson_upper(k: usize, n: usize, alpha: f64) -> f64 {
    if k >= n {
        return 1.0;
    }
    // ln Pr[Bin(n, p) ≤ k], term by term: ln C(n, i) + i ln p + (n − i) ln(1 − p).
    let log_tail = |p: f64| {
        let (lp, lq) = (p.ln(), (-p).ln_1p());
        let (mut log_choose, mut total) = (0.0, f64::NEG_INFINITY);
        for i in 0..=k {
            let term = log_choose + i as f64 * lp + (n - i) as f64 * lq;
            let (hi, lo) = if term > total {
                (term, total)
            } else {
                (total, term)
            };
            total = hi + (lo - hi).exp().ln_1p();
            log_choose += ((n - i) as f64 / (i + 1) as f64).ln();
        }
        total
    };
    // The tail falls as p grows: keep it above α at `lo`, at most α at `hi`.
    let (mut lo, mut hi) = (k as f64 / n as f64, 1.0);
    let log_alpha = alpha.ln();
    for _ in 0..100 {
        let mid = 0.5 * (lo + hi);
        if log_tail(mid) > log_alpha {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    hi
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::{CertView, ErrorSides, RandView};
    use rand::Rng;
    use rpls_bits::BitString;
    use rpls_graph::{generators, NodeId, Port};

    /// Node 0 accepts with probability ~ 1/2 (its first received bit),
    /// everyone else always accepts. Global acceptance ≈ 1/2.
    struct CoinAtNodeZero;

    impl Rpls for CoinAtNodeZero {
        fn name(&self) -> String {
            "coin".into()
        }
        fn error_sides(&self) -> ErrorSides {
            ErrorSides::TwoSided
        }
        fn label(&self, config: &Configuration) -> Labeling {
            Labeling::empty(config.node_count())
        }
        fn certify(&self, _view: &CertView<'_>, _port: Port, rng: &mut dyn Rng) -> BitString {
            BitString::from_bools([(rng.next_u64() & 1) == 1])
        }
        fn verify(&self, view: &RandView<'_>) -> bool {
            if view.local.node != NodeId::new(0) {
                return true;
            }
            view.received.get(0).bit(0).unwrap_or(false)
        }
    }

    /// The t-round estimate of `scheme` on the 5-cycle.
    fn multiround<S: Rpls>(
        scheme: &S,
        labeling: &Labeling,
        rounds: usize,
        trials: usize,
        seed: u64,
    ) -> f64 {
        let config = Configuration::plain(generators::cycle(5));
        let spec = RunSpec::trial(seed).with_rounds(rounds);
        estimate(scheme, &config, labeling, &spec, &EstimateOpts::new(trials)).acceptance()
    }

    #[test]
    fn acceptance_estimate_near_half() {
        let config = Configuration::plain(generators::cycle(5));
        let labeling = Labeling::empty(5);
        let p = acceptance_probability(&CoinAtNodeZero, &config, &labeling, 2000, 11);
        assert!((p - 0.5).abs() < 0.05, "p = {p}");
    }

    #[cfg(feature = "parallel")]
    #[test]
    fn parallel_estimate_is_bit_identical_to_serial() {
        let config = Configuration::plain(generators::cycle(7));
        let labeling = Labeling::empty(7);
        for trials in [1usize, 7, 500] {
            for seed in [0u64, 3, 99] {
                let serial =
                    acceptance_probability(&CoinAtNodeZero, &config, &labeling, trials, seed);
                for threads in [None, Some(1), Some(2), Some(5), Some(64)] {
                    let par = estimate_par(
                        &CoinAtNodeZero,
                        &config,
                        &labeling,
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
    }

    /// Accepts with probability ~3/4 at node 0: two received bits, rejects
    /// only if both are 0... i.e. accept iff bit0 | bit1.
    struct ThreeQuarters;

    impl Rpls for ThreeQuarters {
        fn name(&self) -> String {
            "three-quarters".into()
        }
        fn error_sides(&self) -> ErrorSides {
            ErrorSides::TwoSided
        }
        fn label(&self, config: &Configuration) -> Labeling {
            Labeling::empty(config.node_count())
        }
        fn certify(&self, _view: &CertView<'_>, _port: Port, rng: &mut dyn Rng) -> BitString {
            BitString::from_bools([(rng.next_u64() & 1) == 1])
        }
        fn verify(&self, view: &RandView<'_>) -> bool {
            if view.local.node != NodeId::new(0) {
                return true;
            }
            view.received.iter().any(|c| c.bit(0).unwrap_or(false))
        }
    }

    /// The acceptance probability of the footnote-1 boosted verifier over
    /// `trials` trials: trial `t` accepts iff the majority of `repetitions`
    /// independent verifications does (ties reject).
    fn boosted<S: Rpls>(
        scheme: &S,
        config: &Configuration,
        labeling: &Labeling,
        repetitions: usize,
        trials: u64,
        seed: u64,
    ) -> f64 {
        let (mut scratch, mut cache) = (RoundScratch::new(), PrepCache::new());
        let opts = EstimateOpts::new(repetitions);
        let accepts = (0..trials)
            .filter(|&t| {
                let spec = RunSpec::trial(mix_seed(seed, t, 2));
                let votes = estimate_with(
                    scheme,
                    config,
                    labeling,
                    &spec,
                    &opts,
                    &mut scratch,
                    &mut cache,
                );
                2 * votes.accepts > repetitions
            })
            .count();
        accepts as f64 / trials as f64
    }

    #[test]
    fn boosting_amplifies_above_half_probabilities() {
        // Per-round acceptance ≈ 3/4 > 1/2, so majority-of-15 should push
        // the acceptance probability well above 0.9.
        let config = Configuration::plain(generators::cycle(5));
        let labeling = Labeling::empty(5);
        let single = acceptance_probability(&ThreeQuarters, &config, &labeling, 1500, 3);
        assert!((single - 0.75).abs() < 0.06, "single = {single}");
        let boosted = boosted(&ThreeQuarters, &config, &labeling, 15, 400, 3);
        assert!(boosted > 0.95, "boosted = {boosted}");
    }

    #[test]
    fn boosting_suppresses_below_half_probabilities() {
        // Per-round acceptance ≈ 1/2 won't boost; use the complementary
        // scheme: accept iff both bits set (≈ 1/4 < 1/2) via majority.
        struct OneQuarter;
        impl Rpls for OneQuarter {
            fn name(&self) -> String {
                "one-quarter".into()
            }
            fn error_sides(&self) -> ErrorSides {
                ErrorSides::TwoSided
            }
            fn label(&self, config: &Configuration) -> Labeling {
                Labeling::empty(config.node_count())
            }
            fn certify(&self, _v: &CertView<'_>, _p: Port, rng: &mut dyn Rng) -> BitString {
                BitString::from_bools([(rng.next_u64() & 1) == 1])
            }
            fn verify(&self, view: &RandView<'_>) -> bool {
                if view.local.node != NodeId::new(0) {
                    return true;
                }
                view.received.iter().all(|c| c.bit(0).unwrap_or(false))
            }
        }
        let config = Configuration::plain(generators::cycle(5));
        let labeling = Labeling::empty(5);
        let boosted = boosted(&OneQuarter, &config, &labeling, 15, 400, 9);
        assert!(boosted < 0.05, "boosted = {boosted}");
    }

    #[test]
    fn scratch_reuse_matches_fresh_scratch() {
        let config = Configuration::plain(generators::cycle(6));
        let labeling = Labeling::empty(6);
        let fresh = acceptance_probability(&CoinAtNodeZero, &config, &labeling, 300, 5);
        let mut scratch = RoundScratch::new();
        let mut with_scratch = |scheme: &dyn Rpls, trials: usize, seed: u64| {
            let spec = RunSpec::trial(seed);
            let opts = EstimateOpts::new(trials);
            let mut cache = PrepCache::new();
            estimate_with(
                scheme,
                &config,
                &labeling,
                &spec,
                &opts,
                &mut scratch,
                &mut cache,
            )
            .acceptance()
        };
        // Run something else first so the scratch arrives dirty.
        let _ = with_scratch(&ThreeQuarters, 50, 1);
        let reused = with_scratch(&CoinAtNodeZero, 300, 5);
        assert_eq!(fresh, reused);
    }

    #[test]
    fn multiround_t1_estimate_is_bit_identical_to_one_round() {
        let config = Configuration::plain(generators::cycle(5));
        let labeling = Labeling::empty(5);
        for (trials, seed) in [(1usize, 0u64), (500, 7), (2000, 42)] {
            let one = acceptance_probability(&CoinAtNodeZero, &config, &labeling, trials, seed);
            let multi = multiround(&CoinAtNodeZero, &labeling, 1, trials, seed);
            assert!(
                one == multi,
                "trials {trials} seed {seed}: {one} vs {multi}"
            );
        }
    }

    #[test]
    fn multiround_split_estimate_is_t_invariant_for_default_schemes() {
        // The default certificate-splitting schedule re-times the same
        // one-round trial, so its estimate must not depend on t at all.
        let labeling = Labeling::empty(5);
        let reference = multiround(&CoinAtNodeZero, &labeling, 1, 800, 3);
        for rounds in [2usize, 7, 64] {
            let p = multiround(&CoinAtNodeZero, &labeling, rounds, 800, 3);
            assert!(p == reference, "t {rounds}: {p} vs {reference}");
        }
    }

    #[test]
    fn rejection_profile_accounts_every_trial() {
        let config = Configuration::plain(generators::cycle(5));
        let labeling = Labeling::empty(5);
        let trials = 600;
        let spec = RunSpec::trial(11).with_rounds(4);
        let est = estimate(
            &CoinAtNodeZero,
            &config,
            &labeling,
            &spec,
            &EstimateOpts::new(trials),
        );
        // The default splitting schedule only decides at the last round.
        assert_eq!(est.rejects_at[..3], [0, 0, 0]);
        assert_eq!(est.rejects_at.iter().sum::<usize>(), trials - est.accepts);
        assert!(est.accepts > 0 && est.accepts < trials);
        assert_eq!(est.quantile_reject_round(0.5), Some(4));
        assert_eq!(est.quantile_reject_round(1.0), Some(4));
        assert_eq!(est.mean_reject_round(), Some(4.0));
    }

    #[test]
    fn rejection_profile_of_all_accepting_scheme_has_no_rejects() {
        let config = Configuration::plain(generators::cycle(4));
        let labeling = Labeling::empty(4);
        struct AlwaysYes;
        impl Rpls for AlwaysYes {
            fn name(&self) -> String {
                "yes".into()
            }
            fn label(&self, config: &Configuration) -> Labeling {
                Labeling::empty(config.node_count())
            }
            fn certify(&self, _v: &CertView<'_>, _p: Port, _r: &mut dyn Rng) -> BitString {
                BitString::new()
            }
            fn verify(&self, _view: &RandView<'_>) -> bool {
                true
            }
        }
        let spec = RunSpec::trial(0).with_rounds(3);
        let est = estimate(
            &AlwaysYes,
            &config,
            &labeling,
            &spec,
            &EstimateOpts::new(50),
        );
        assert_eq!(est.accepts, 50);
        assert!(est.rejects_at.is_empty());
        assert_eq!(est.quantile_reject_round(0.5), None);
        assert_eq!(est.mean_reject_round(), None);
    }

    /// Every spec shape's estimate is the fold of the scalar reference,
    /// trial by trial, over the estimator's seeds.
    #[test]
    fn estimate_matches_legacy_estimators_bit_for_bit() {
        use crate::engine::MessagePattern;
        use crate::fault::{FaultPlan, FaultSpec};
        use crate::scheme::Unprepared;
        let config = Configuration::plain(generators::cycle(6));
        let labeling = Labeling::empty(6);
        let (trials, seed) = (700usize, 13u64);
        let opts = EstimateOpts::new(trials);
        let plan = FaultPlan::new(FaultSpec::transparent().with_drop(0.2), 5);
        let unprepared = Unprepared::new(&CoinAtNodeZero, &config, &labeling);
        let mut scratch = RoundScratch::new();
        for spec in [
            RunSpec::trial(seed),
            RunSpec::trial(seed).with_pattern(MessagePattern::Broadcast),
            RunSpec::trial(seed).with_rounds(5),
            RunSpec::trial(seed).with_faults(plan.clone()),
            RunSpec::trial(seed)
                .with_rounds(3)
                .with_faults(plan.clone()),
        ] {
            let got = estimate(&CoinAtNodeZero, &config, &labeling, &spec, &opts);
            let mut want = Estimate::default();
            for t in 0..trials as u64 {
                let mut one = spec.clone();
                one.seed_source = crate::engine::SeedSource::Trial(trial_seed(seed, t));
                let report = engine::run_prepared(&one, &unprepared, &config, &mut scratch);
                want.record(&report);
            }
            assert_eq!(got, want, "{spec:?}");
            assert_eq!(got.trials, trials);
        }
        let plain = estimate(
            &CoinAtNodeZero,
            &config,
            &labeling,
            &RunSpec::trial(seed),
            &opts,
        );
        assert_eq!(plain.counts, FaultCounts::default());
        assert!(
            plain.acceptance()
                == acceptance_probability(&CoinAtNodeZero, &config, &labeling, trials, seed)
        );
    }

    #[test]
    fn beacon_estimate_is_trial_estimate_of_derived_seed() {
        let config = Configuration::plain(generators::cycle(6));
        let labeling = Labeling::empty(6);
        let opts = EstimateOpts::new(400);
        let beacon = estimate(
            &CoinAtNodeZero,
            &config,
            &labeling,
            &RunSpec::beacon(99, 0xFACE),
            &opts,
        );
        let trial = estimate(
            &CoinAtNodeZero,
            &config,
            &labeling,
            &RunSpec::trial(crate::rng::beacon_seed(99, 0xFACE)),
            &opts,
        );
        assert_eq!(beacon, trial);
    }

    #[cfg(feature = "parallel")]
    #[test]
    fn estimate_par_is_bit_identical_to_serial_estimate() {
        let config = Configuration::plain(generators::cycle(7));
        let labeling = Labeling::empty(7);
        let spec = RunSpec::trial(21).with_rounds(3);
        let opts = EstimateOpts::new(333);
        let serial = estimate(&CoinAtNodeZero, &config, &labeling, &spec, &opts);
        for threads in [None, Some(1), Some(4), Some(13)] {
            let par = estimate_par(&CoinAtNodeZero, &config, &labeling, &spec, &opts, threads);
            assert_eq!(serial, par, "threads {threads:?}");
        }
    }

    #[test]
    fn clopper_pearson_upper_matches_closed_forms_and_grows_with_k() {
        // No successes: (1 − p)^n = α.
        for (n, alpha) in [(1, 0.05), (10, 0.05), (1000, 1e-6), (5000, 0.01)] {
            let want = 1.0 - f64::powf(alpha, 1.0 / n as f64);
            let got = clopper_pearson_upper(0, n, alpha);
            assert!(
                (got - want).abs() < 1e-12,
                "n={n} α={alpha}: {got} vs {want}"
            );
        }
        // All successes (and no trials) say nothing.
        assert_eq!(clopper_pearson_upper(10, 10, 0.05), 1.0);
        assert_eq!(clopper_pearson_upper(0, 0, 0.05), 1.0);
        // The textbook one-sided 95% bound for 1 success in 10 trials:
        // (1 − p)^10 + 10p(1 − p)^9 = 0.05 at p ≈ 0.3942.
        assert!((clopper_pearson_upper(1, 10, 0.05) - 0.394_163).abs() < 1e-5);
        // Increasing in k, and never below the point estimate.
        let runs: [(usize, f64, Vec<usize>); 2] = [
            (50, 0.05, (0..=50).collect()),
            (1000, 1e-6, (0..=40).chain([999, 1000]).collect()),
        ];
        for (n, alpha, ks) in runs {
            let bounds: Vec<f64> = ks
                .iter()
                .map(|&k| clopper_pearson_upper(k, n, alpha))
                .collect();
            for (i, w) in bounds.windows(2).enumerate() {
                let k = ks[i];
                assert!(w[0] < w[1], "n={n} k={k}: {} then {}", w[0], w[1]);
                assert!(w[0] >= k as f64 / n as f64, "n={n} k={k}");
            }
        }
    }
}
