//! Adversarial label forgers.
//!
//! Soundness quantifies over *every* label assignment, which no test can
//! enumerate in general. These forgers probe it from two directions:
//!
//! * [`exhaustive_forge`] really does enumerate all assignments up to a bit
//!   budget — feasible only for tiny instances, but then conclusive;
//! * [`random_forge`] / [`random_forge_rpls`] search with restarts and
//!   bit-flip hill climbing — never conclusive, but effective at finding
//!   the fooling assignments that *do* exist (e.g. for truncated schemes,
//!   where the lower-bound theorems predict forgeries).

use crate::engine;
use crate::labeling::Labeling;
use crate::scheme::{Pls, Rpls};
use crate::state::Configuration;
use crate::stats;
use rand::rngs::StdRng;
use rand::RngExt;
use rpls_bits::BitString;
use rpls_graph::NodeId;

/// Enumerates **all** label assignments in which every label has at most
/// `max_bits` bits, returning the first one the verifier accepts on
/// `config`, or `None` if none exists (a *proof* of soundness at this
/// budget).
///
/// The label space per node has `2^{max_bits+1} − 1` elements; the total
/// number of assignments is capped to keep runtimes sane.
///
/// # Panics
///
/// Panics if the total search space exceeds `2^22` assignments.
pub fn exhaustive_forge<S: Pls + ?Sized>(
    scheme: &S,
    config: &Configuration,
    max_bits: usize,
) -> Option<Labeling> {
    let n = config.node_count();
    let per_node: u64 = (1u64 << (max_bits + 1)) - 1; // strings of len 0..=max_bits
    let total = (per_node as f64).powi(n as i32);
    assert!(
        total <= (1u64 << 22) as f64,
        "search space {total} too large for exhaustive forging"
    );

    // Enumerate strings of length 0..=max_bits in a canonical order.
    let strings: Vec<BitString> = (0..=max_bits)
        .flat_map(|len| {
            (0..(1u64 << len))
                .map(move |v| BitString::from_bools((0..len).rev().map(move |i| (v >> i) & 1 == 1)))
        })
        .collect();
    debug_assert_eq!(strings.len() as u64, per_node);

    let mut counters = vec![0usize; n];
    loop {
        let labeling: Labeling = counters.iter().map(|&c| strings[c].clone()).collect();
        if engine::run_deterministic(scheme, config, &labeling).accepted() {
            return Some(labeling);
        }
        // Odometer increment.
        let mut i = 0;
        loop {
            if i == n {
                return None;
            }
            counters[i] += 1;
            if counters[i] < strings.len() {
                break;
            }
            counters[i] = 0;
            i += 1;
        }
    }
}

/// Result of a randomized forging attempt.
#[derive(Debug, Clone)]
pub struct ForgeReport {
    /// The best labeling found.
    pub labeling: Labeling,
    /// Number of rejecting nodes under the best labeling (0 = forged).
    pub rejecting: usize,
}

impl ForgeReport {
    /// Whether the attack fully succeeded (all nodes accept).
    #[must_use]
    pub fn succeeded(&self) -> bool {
        self.rejecting == 0
    }
}

/// Randomized forging against a deterministic scheme: random restarts plus
/// single-bit hill climbing on the number of rejecting nodes.
pub fn random_forge<S: Pls + ?Sized>(
    scheme: &S,
    config: &Configuration,
    label_bits: usize,
    restarts: usize,
    steps_per_restart: usize,
    rng: &mut StdRng,
) -> ForgeReport {
    let n = config.node_count();
    let mut best: Option<ForgeReport> = None;
    for _ in 0..restarts {
        let mut current: Labeling = (0..n).map(|_| random_bits(label_bits, rng)).collect();
        let mut current_rejecting = engine::run_deterministic(scheme, config, &current)
            .rejecting_nodes()
            .len();
        for _ in 0..steps_per_restart {
            if current_rejecting == 0 {
                break;
            }
            // Flip one random bit of one random node's label.
            let v = NodeId::new(rng.random_range(0..n));
            let mut candidate = current.clone();
            candidate.set(v, flip_random_bit(candidate.get(v), label_bits, rng));
            let rejecting = engine::run_deterministic(scheme, config, &candidate)
                .rejecting_nodes()
                .len();
            if rejecting <= current_rejecting {
                current = candidate;
                current_rejecting = rejecting;
            }
        }
        if best
            .as_ref()
            .is_none_or(|b| current_rejecting < b.rejecting)
        {
            best = Some(ForgeReport {
                labeling: current,
                rejecting: current_rejecting,
            });
        }
        if best.as_ref().is_some_and(ForgeReport::succeeded) {
            break;
        }
    }
    best.expect("at least one restart")
}

/// Result of a randomized forging attempt against an RPLS.
#[derive(Debug, Clone)]
pub struct RplsForgeReport {
    /// The best labeling found.
    pub labeling: Labeling,
    /// Estimated acceptance probability under the best labeling.
    pub acceptance: f64,
}

/// Randomized forging against a randomized scheme: the objective is the
/// estimated acceptance probability; success means exceeding `threshold`
/// (use `1/3` when attacking a two-sided scheme, `1/2` for one-sided).
///
/// The climb mutates one label bit per step, so consecutive candidates
/// share almost all their labels; every acceptance estimate runs through
/// one [`PrepCache`](crate::PrepCache) shared across the whole sweep, so
/// each candidate re-prepares only the labels the mutation touched instead
/// of paying a full preparation per forged labeling. Estimates are
/// bit-identical to the uncached path.
#[allow(clippy::too_many_arguments)]
pub fn random_forge_rpls<S: Rpls + ?Sized>(
    scheme: &S,
    config: &Configuration,
    label_bits: usize,
    restarts: usize,
    steps_per_restart: usize,
    trials: usize,
    seed: u64,
    rng: &mut StdRng,
) -> RplsForgeReport {
    let n = config.node_count();
    let mut best: Option<RplsForgeReport> = None;
    // One scratch and one preparation cache for the whole climb: every
    // acceptance estimate reuses both.
    let mut scratch = crate::buffer::RoundScratch::new();
    let mut cache = crate::prep::PrepCache::new();
    let spec = crate::engine::RunSpec::trial(seed);
    let opts = stats::EstimateOpts::new(trials);
    let acceptance = |labeling: &Labeling, scratch: &mut _, cache: &mut _| {
        stats::estimate_with(scheme, config, labeling, &spec, &opts, scratch, cache).acceptance()
    };
    for _ in 0..restarts {
        let mut current: Labeling = (0..n).map(|_| random_bits(label_bits, rng)).collect();
        let mut current_acc = acceptance(&current, &mut scratch, &mut cache);
        for _ in 0..steps_per_restart {
            if current_acc >= 1.0 {
                break;
            }
            let v = NodeId::new(rng.random_range(0..n));
            let mut candidate = current.clone();
            candidate.set(v, flip_random_bit(candidate.get(v), label_bits, rng));
            let acc = acceptance(&candidate, &mut scratch, &mut cache);
            if acc >= current_acc {
                current = candidate;
                current_acc = acc;
            }
        }
        if best.as_ref().is_none_or(|b| current_acc > b.acceptance) {
            best = Some(RplsForgeReport {
                labeling: current,
                acceptance: current_acc,
            });
        }
    }
    best.expect("at least one restart")
}

fn random_bits(len: usize, rng: &mut StdRng) -> BitString {
    BitString::from_bools((0..len).map(|_| rng.random_bool(0.5)))
}

fn flip_random_bit(label: &BitString, label_bits: usize, rng: &mut StdRng) -> BitString {
    if label.is_empty() {
        return random_bits(label_bits.max(1), rng);
    }
    let target = rng.random_range(0..label.len());
    label
        .iter()
        .enumerate()
        .map(|(i, b)| if i == target { !b } else { b })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::DetView;
    use rand::SeedableRng;
    use rpls_graph::generators;

    /// Accepts iff every label equals the node's id modulo 4, written in
    /// 2 bits — forgeable by construction, so the forgers must find it.
    struct IdMod4;

    impl Pls for IdMod4 {
        fn name(&self) -> String {
            "id-mod-4".into()
        }
        fn label(&self, config: &Configuration) -> Labeling {
            config
                .states()
                .iter()
                .map(|s| {
                    let v = s.id() % 4;
                    BitString::from_bools([(v >> 1) & 1 == 1, v & 1 == 1])
                })
                .collect()
        }
        fn verify(&self, view: &DetView<'_>) -> bool {
            view.label.len() == 2 && view.label.leading_u64() == view.local.state.id() % 4
        }
    }

    /// Accepts nothing — unforgeable.
    struct RejectAll;

    impl Pls for RejectAll {
        fn name(&self) -> String {
            "reject-all".into()
        }
        fn label(&self, config: &Configuration) -> Labeling {
            Labeling::empty(config.node_count())
        }
        fn verify(&self, _view: &DetView<'_>) -> bool {
            false
        }
    }

    #[test]
    fn exhaustive_finds_the_unique_accepting_assignment() {
        let config = Configuration::plain(generators::path(3));
        let found = exhaustive_forge(&IdMod4, &config, 2).expect("forgeable");
        let honest = IdMod4.label(&config);
        assert_eq!(found, honest);
    }

    #[test]
    fn exhaustive_proves_unforgeability() {
        let config = Configuration::plain(generators::path(3));
        assert!(exhaustive_forge(&RejectAll, &config, 2).is_none());
    }

    #[test]
    #[should_panic(expected = "too large")]
    fn exhaustive_rejects_oversized_spaces() {
        let config = Configuration::plain(generators::cycle(20));
        let _ = exhaustive_forge(&IdMod4, &config, 8);
    }

    #[test]
    fn random_forge_finds_easy_targets() {
        let config = Configuration::plain(generators::path(4));
        let mut rng = StdRng::seed_from_u64(1);
        let report = random_forge(&IdMod4, &config, 2, 50, 200, &mut rng);
        assert!(report.succeeded(), "rejecting = {}", report.rejecting);
    }

    #[test]
    fn random_forge_reports_failure_against_reject_all() {
        let config = Configuration::plain(generators::path(3));
        let mut rng = StdRng::seed_from_u64(2);
        let report = random_forge(&RejectAll, &config, 2, 5, 20, &mut rng);
        assert!(!report.succeeded());
        assert_eq!(report.rejecting, 3);
    }
}
