//! Monte-Carlo acceptance estimation and error boosting (footnote 1).
//!
//! The paper fixes the success probabilities at 2/3 (two-sided) and 1/2
//! (one-sided rejection) and notes that "we can boost the probability of
//! correctness to 1 − δ by repeating the verification procedure
//! O(log(1/δ)) times independently and outputting the majority of
//! outcomes." [`boosted_accepts`] implements exactly that; the experiment
//! E-B measures the promised exponential decay.
//!
//! # One estimator
//!
//! [`estimate`] / [`estimate_with`] / [`estimate_par`] take a [`RunSpec`]
//! naming the job (rounds, pattern, stream mode, faults, seed source) plus
//! [`EstimateOpts`] and return an [`Estimate`]; [`sweep_par`] estimates
//! many labelings under one spec. Trial `t` always runs seed
//! [`trial_seed`]`(spec.seed(), t)`, whichever of them invoked it, so all
//! of them agree bit for bit. [`acceptance_probability`] is the paper's
//! `Pr[accept]` for the default one-round spec.
//!
//! Every estimator prepares the labeling once — through
//! [`Rpls::prepare_cached`], against a caller-owned [`PrepCache`] for
//! [`estimate_with`] or a throwaway one otherwise, so sweeps over many
//! labelings amortise preparation — and hands blocks of per-trial seeds to
//! [`engine::run_trials`]. Schemes with a batched
//! [`PreparedRpls::run_block`] (notably
//! [`CompiledRpls`](crate::compiler::CompiledRpls)) evaluate trials
//! node-at-a-time; everything else runs the scalar reference. Estimates are
//! bit-identical either way. The boosting estimators (different seed tags,
//! majority-vote semantics) and [`rounds_to_reject_profile`] (a per-round
//! histogram) run the same trial loop with their own seeds and tallies.

use crate::buffer::RoundScratch;
use crate::engine::{self, mix_seed, RunReport, RunSpec};
use crate::fault::FaultCounts;
use crate::labeling::Labeling;
use crate::prep::PrepCache;
use crate::scheme::{PreparedRpls, Rpls};
use crate::state::Configuration;

/// The seed-derivation tag of each estimator family, so their streams never
/// collide.
const TAG_ACCEPT: u64 = 0;
const TAG_BOOST: u64 = 1;
const TAG_BOOST_TRIALS: u64 = 2;

/// The per-trial round seed of the acceptance estimators. Public so
/// benches and golden tests can replay individual estimator trials
/// through the engine without duplicating the tag constant.
#[must_use]
pub fn trial_seed(seed: u64, trial: u64) -> u64 {
    mix_seed(seed, trial, TAG_ACCEPT)
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
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
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

    /// The one-trial estimate of `report`.
    fn of_trial(report: &RunReport) -> Self {
        let fault = report.fault.unwrap_or_default();
        Self {
            trials: 1,
            accepts: usize::from(report.accepted),
            degraded_trials: usize::from(fault.insufficient_nodes > 0),
            missing_messages: fault.missing_messages,
            counts: fault.counts,
        }
    }

    /// Adds `other`'s tallies into `self` — how trials fold into an
    /// estimate and how worker shards merge. Every field is a sum, so the
    /// result does not depend on how trials were split.
    fn absorb(&mut self, other: Estimate) {
        self.trials += other.trials;
        self.accepts += other.accepts;
        self.degraded_trials += other.degraded_trials;
        self.missing_messages += other.missing_messages;
        self.counts.absorb(other.counts);
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
        out.absorb(Estimate::of_trial(&r));
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
/// submitted labeling). Under the Theorem 3.1 compiler that turns
/// per-candidate preparation from O(nodes × label bits) parsing and
/// polynomial building into O(nodes) hash lookups. Estimates are
/// bit-identical to [`estimate`] for any cache state; the cache only moves
/// work, never results.
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

/// Parallel [`estimate`]: shards trials across threads — the one-labeling
/// case of [`sweep_par`]. Per-trial seeds are identical to the serial
/// path, so the result is **bit-identical** to [`estimate`] for the same
/// inputs.
///
/// Every [`RunSpec`] parallelises, with the same transcripts trial for
/// trial: per-round streams and fault decision words are pure functions
/// of the trial seed, so sharding cannot move them, and degraded/missing
/// counts merge additively. Each worker prepares through its own private
/// [`PrepCache`] (the cache is `Rc`-based and cannot cross threads;
/// preparation is a pure function of the labeling, so per-shard caches and
/// any shared-cache serial run produce identical transcripts).
/// `tests/parallel_identity.rs` pins serial ≡ parallel at 2/4/8 workers.
///
/// `threads = None` uses the machine's available parallelism.
///
/// # Panics
///
/// Panics if `opts.trials` is 0, or propagates (with worker context) any
/// worker panic.
#[cfg(feature = "parallel")]
pub fn estimate_par<S: Rpls + Sync + ?Sized>(
    scheme: &S,
    config: &Configuration,
    labeling: &Labeling,
    spec: &RunSpec,
    opts: &EstimateOpts,
    threads: Option<usize>,
) -> Estimate {
    let mut one = sweep_par(
        scheme,
        config,
        std::slice::from_ref(labeling),
        spec,
        opts,
        threads,
    );
    one.pop().expect("one estimate per labeling")
}

/// Parallel **sweep**: estimates every labeling in `labelings` under one
/// `spec`, sharding each candidate's trials across a pool of workers that
/// each keep one long-lived [`PrepCache`] for the whole sweep — the
/// parallel twin of calling [`estimate_with`] in a loop with one shared
/// cache.
///
/// This is the "shard one cache per worker" answer to the cache being
/// `Rc`-based (`!Sync`): a cache cannot cross threads, but a cache *owned
/// by* a worker thread amortises preparation across every candidate that
/// worker touches, exactly as the serial sweep's single cache does — an
/// adversary sweep re-prepares only the labels that changed between
/// candidates, in parallel. Worker `w` runs the strided trials
/// `w, w + k, …` of every candidate with the same per-trial seeds the
/// serial path derives, so each returned [`Estimate`] is **bit-identical**
/// to its serial counterpart for any cache state (preparation is a pure
/// function of label content; caches move work, never results —
/// `tests/parallel_identity.rs` pins the shared-cache-vs-per-worker-cache
/// identity at 2/4/8 workers).
///
/// `threads = None` uses the machine's available parallelism.
///
/// # Panics
///
/// Panics if `opts.trials` is 0, or propagates (with worker context) any
/// worker panic.
#[cfg(feature = "parallel")]
pub fn sweep_par<S: Rpls + Sync + ?Sized>(
    scheme: &S,
    config: &Configuration,
    labelings: &[Labeling],
    spec: &RunSpec,
    opts: &EstimateOpts,
    threads: Option<usize>,
) -> Vec<Estimate> {
    let trials = opts.trials;
    assert!(trials > 0, "need at least one trial");
    let workers = threads
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        })
        .clamp(1, trials);
    if workers == 1 || labelings.is_empty() {
        let mut scratch = RoundScratch::new();
        let mut cache = PrepCache::new();
        return labelings
            .iter()
            .map(|l| estimate_with(scheme, config, l, spec, opts, &mut scratch, &mut cache))
            .collect();
    }
    let name = scheme.name();
    let base = spec.seed();
    // partials[w][c] = worker w's shard of candidate c.
    let partials: Vec<Vec<Estimate>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                scope.spawn(move || {
                    let mut scratch = RoundScratch::new();
                    // One cache per worker, alive across the whole sweep:
                    // candidate c+1 re-prepares only the labels c didn't
                    // share.
                    let mut cache = PrepCache::new();
                    let shard = (trials - w).div_ceil(workers);
                    labelings
                        .iter()
                        .map(|labeling| {
                            let prepared = scheme.prepare_cached(
                                config,
                                labeling,
                                trials.div_ceil(workers),
                                &mut cache,
                            );
                            estimate_prepared(
                                &*prepared,
                                config,
                                spec,
                                shard,
                                &|i| trial_seed(base, w as u64 + i * workers as u64),
                                &mut scratch,
                            )
                        })
                        .collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .enumerate()
            .map(|(w, h)| {
                // Propagate the worker's panic with enough context to find
                // it (worker index, scheme) instead of the bare "worker"
                // message a plain `expect` would give.
                h.join().unwrap_or_else(|payload| {
                    let msg = payload
                        .downcast_ref::<&str>()
                        .map(|s| (*s).to_string())
                        .or_else(|| payload.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "non-string panic payload".to_string());
                    panic!(
                        "estimator worker {w}/{workers} \
                         for scheme '{name}' panicked: {msg}"
                    )
                })
            })
            .collect()
    });
    (0..labelings.len())
        .map(|c| {
            let mut out = Estimate::default();
            for shard in &partials {
                out.absorb(shard[c]);
            }
            out
        })
        .collect()
}

/// The distribution of verdict-decision rounds over a block of t-round
/// trials: how soon the early-rejecting multi-round verifier settles, per
/// trial. Produced by [`rounds_to_reject_profile`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RejectionProfile {
    /// The schedule length `t` the trials ran with.
    pub rounds: usize,
    /// Trials that accepted (their verdict settles at round `rounds` by
    /// definition — the last chunk must arrive before a verifier can say
    /// yes).
    pub accepts: usize,
    /// `rejects_at[r]` counts the rejecting trials whose verdict became
    /// known in round `r + 1` (1-based): parse- and width-level garbage
    /// lands in round 1, a tampered replica in the round whose slice
    /// covers the tampering, an inner-verifier rejection in round
    /// `rounds`. The histogram holds at most 2²⁰ buckets — for hostile
    /// schedules with more rounds than that, later decision rounds are
    /// clamped into the last bucket (see [`rounds_to_reject_profile`]),
    /// so the derived statistics are lower bounds there.
    pub rejects_at: Vec<usize>,
}

impl RejectionProfile {
    /// Total rejecting trials.
    #[must_use]
    pub fn rejects(&self) -> usize {
        self.rejects_at.iter().sum()
    }

    /// Total trials profiled.
    #[must_use]
    pub fn trials(&self) -> usize {
        self.accepts + self.rejects()
    }

    /// The smallest 1-based round by which at least `q` (0 < q ≤ 1) of the
    /// rejecting trials were decided — `quantile_reject_round(0.5)` is the
    /// median rejection round. `None` when no trial rejected.
    #[must_use]
    pub fn quantile_reject_round(&self, q: f64) -> Option<usize> {
        let rejects = self.rejects();
        if rejects == 0 {
            return None;
        }
        let need = (q * rejects as f64).ceil().max(1.0) as usize;
        let mut seen = 0usize;
        for (r, &count) in self.rejects_at.iter().enumerate() {
            seen += count;
            if seen >= need {
                return Some(r + 1);
            }
        }
        Some(self.rounds)
    }

    /// Mean 1-based rejection round over rejecting trials, `None` when no
    /// trial rejected.
    #[must_use]
    pub fn mean_reject_round(&self) -> Option<f64> {
        let rejects = self.rejects();
        if rejects == 0 {
            return None;
        }
        let total: usize = self
            .rejects_at
            .iter()
            .enumerate()
            .map(|(r, &count)| (r + 1) * count)
            .sum();
        Some(total as f64 / rejects as f64)
    }
}

/// Profiles how many rounds the t-round verifier needs before the verdict
/// is known, over `trials` trials with the estimator's per-trial seeds —
/// the rounds-to-reject histogram of the trade-off experiments. Uses the
/// same seeds as [`estimate`] of `RunSpec::trial(seed).with_rounds(rounds)`,
/// so `accepts / trials` equals that estimate exactly.
///
/// The histogram allocates one bucket per round up to 2²⁰; a hostile
/// `rounds` beyond that (the engine accepts any `t`, including
/// `usize::MAX`) clamps later decision rounds into the last bucket rather
/// than allocating per round, so [`RejectionProfile::mean_reject_round`]
/// and friends become lower bounds for such schedules.
///
/// # Panics
///
/// Panics if `rounds` or `trials` is 0.
pub fn rounds_to_reject_profile<S: Rpls + ?Sized>(
    scheme: &S,
    config: &Configuration,
    labeling: &Labeling,
    rounds: usize,
    trials: usize,
    seed: u64,
) -> RejectionProfile {
    assert!(trials > 0, "need at least one trial");
    let spec = RunSpec::trial(seed).with_rounds(rounds);
    let prepared = scheme.prepare_cached(config, labeling, trials, &mut PrepCache::new());
    // Hostile round counts (up to usize::MAX) must not allocate a
    // histogram slot per round: decided rounds past the cap are clamped
    // into the last bucket.
    let cap = rounds.min(1 << 20);
    let mut profile = RejectionProfile {
        rounds,
        accepts: 0,
        rejects_at: vec![0; cap],
    };
    engine::run_seeded_trials(
        &spec,
        &*prepared,
        config,
        trials,
        &|t| trial_seed(seed, t),
        &mut RoundScratch::new(),
        &mut |report| {
            if report.accepted {
                profile.accepts += 1;
            } else {
                let bucket = report.decided_round.clamp(1, cap) - 1;
                profile.rejects_at[bucket] += 1;
            }
        },
    );
    profile
}

/// One boosted verification: run `repetitions` independent rounds and
/// output the majority verdict (ties count as reject).
///
/// # Panics
///
/// Panics if `repetitions` is 0.
pub fn boosted_accepts<S: Rpls + ?Sized>(
    scheme: &S,
    config: &Configuration,
    labeling: &Labeling,
    repetitions: usize,
    seed: u64,
) -> bool {
    let prepared = scheme.prepare_cached(config, labeling, repetitions, &mut PrepCache::new());
    boosted_accepts_prepared(
        &*prepared,
        config,
        repetitions,
        seed,
        &mut RoundScratch::new(),
    )
}

/// The boosted verdict against an already-prepared scheme.
fn boosted_accepts_prepared(
    prepared: &dyn PreparedRpls,
    config: &Configuration,
    repetitions: usize,
    seed: u64,
    scratch: &mut RoundScratch,
) -> bool {
    assert!(repetitions > 0, "need at least one repetition");
    let votes = estimate_prepared(
        prepared,
        config,
        &RunSpec::trial(seed),
        repetitions,
        &|r| mix_seed(seed, r, TAG_BOOST),
        scratch,
    );
    2 * votes.accepts > repetitions
}

/// Estimates the acceptance probability of the *boosted* verifier.
pub fn boosted_acceptance_probability<S: Rpls + ?Sized>(
    scheme: &S,
    config: &Configuration,
    labeling: &Labeling,
    repetitions: usize,
    trials: usize,
    seed: u64,
) -> f64 {
    assert!(trials > 0, "need at least one trial");
    let mut scratch = RoundScratch::new();
    // One preparation covers the whole trials × repetitions sweep.
    let prepared = scheme.prepare_cached(
        config,
        labeling,
        trials.saturating_mul(repetitions),
        &mut PrepCache::new(),
    );
    let accepts = (0..trials)
        .filter(|&t| {
            boosted_accepts_prepared(
                &*prepared,
                config,
                repetitions,
                mix_seed(seed, t as u64, TAG_BOOST_TRIALS),
                &mut scratch,
            )
        })
        .count();
    accepts as f64 / trials as f64
}

/// A two-sided Wald-style confidence radius for an estimated probability
/// `p_hat` over `trials` samples: `2·sqrt(p̂(1−p̂)/n) + 1/n`. The
/// z-multiplier 2 (rounded up from the exact 95% value 1.96) and the `1/n`
/// continuity pad make the radius deliberately conservative — it is used by
/// tests to assert probabilistic bounds without flaking.
#[must_use]
pub fn confidence_radius(p_hat: f64, trials: usize) -> f64 {
    assert!(trials > 0, "need at least one trial");
    2.0 * (p_hat * (1.0 - p_hat) / trials as f64).sqrt() + 1.0 / trials as f64
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

    #[test]
    fn boosting_amplifies_above_half_probabilities() {
        // Per-round acceptance ≈ 3/4 > 1/2, so majority-of-15 should push
        // the acceptance probability well above 0.9.
        let config = Configuration::plain(generators::cycle(5));
        let labeling = Labeling::empty(5);
        let single = acceptance_probability(&ThreeQuarters, &config, &labeling, 1500, 3);
        assert!((single - 0.75).abs() < 0.06, "single = {single}");
        let boosted =
            boosted_acceptance_probability(&ThreeQuarters, &config, &labeling, 15, 400, 3);
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
        let boosted = boosted_acceptance_probability(&OneQuarter, &config, &labeling, 15, 400, 9);
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
        let profile = rounds_to_reject_profile(&CoinAtNodeZero, &config, &labeling, 4, trials, 11);
        assert_eq!(profile.trials(), trials);
        assert_eq!(profile.rounds, 4);
        // The default splitting schedule only decides at the last round.
        assert_eq!(profile.rejects_at[0..3], [0, 0, 0]);
        assert!(profile.rejects() > 0 && profile.accepts > 0);
        assert_eq!(profile.quantile_reject_round(0.5), Some(4));
        assert_eq!(profile.mean_reject_round(), Some(4.0));
        let p = profile.accepts as f64 / trials as f64;
        let estimate = multiround(&CoinAtNodeZero, &labeling, 4, trials, 11);
        assert!(p == estimate, "profile accepts must match the estimator");
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
        let profile = rounds_to_reject_profile(&AlwaysYes, &config, &labeling, 3, 50, 0);
        assert_eq!(profile.accepts, 50);
        assert_eq!(profile.rejects(), 0);
        assert_eq!(profile.quantile_reject_round(0.5), None);
        assert_eq!(profile.mean_reject_round(), None);
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
                want.absorb(Estimate::of_trial(&report));
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

    #[test]
    fn confidence_radius_shrinks_with_trials() {
        assert!(confidence_radius(0.5, 10_000) < confidence_radius(0.5, 100));
        assert!(confidence_radius(0.0, 100) > 0.0);
    }
}
