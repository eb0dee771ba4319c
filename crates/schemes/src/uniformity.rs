//! The `Unif` predicate of Lemma C.3: all node payloads are equal.
//!
//! The natural deterministic scheme copies the payload into the label
//! (κ = k bits — labels, unlike states, are visible across edges); its
//! compilation certifies uniformity with `O(log k)`-bit certificates. The
//! Ω(log k) side of Theorem 3.5 is proved on exactly this family.

use rpls_bits::BitString;
use rpls_core::{Configuration, DetView, Labeling, Pls, Predicate};

/// The uniformity predicate `Unif`.
#[derive(Debug, Clone, Copy, Default)]
pub struct UniformityPredicate;

impl UniformityPredicate {
    /// Creates the predicate.
    #[must_use]
    pub fn new() -> Self {
        Self
    }
}

impl Predicate for UniformityPredicate {
    fn name(&self) -> String {
        "unif".into()
    }

    fn holds(&self, config: &Configuration) -> bool {
        let mut payloads = config.states().iter().map(|s| s.payload());
        let Some(first) = payloads.next() else {
            return true;
        };
        payloads.all(|p| p == first)
    }
}

/// The k-bit deterministic scheme: label = payload copy.
#[derive(Debug, Clone, Copy, Default)]
pub struct UniformityPls;

impl UniformityPls {
    /// Creates the scheme.
    #[must_use]
    pub fn new() -> Self {
        Self
    }
}

impl Pls for UniformityPls {
    fn name(&self) -> String {
        "unif".into()
    }

    fn label(&self, config: &Configuration) -> Labeling {
        config
            .states()
            .iter()
            .map(|s| s.payload().clone())
            .collect()
    }

    fn verify(&self, view: &DetView<'_>) -> bool {
        // My label must be my own payload, and all neighbors must carry the
        // same label. Transitivity over the connected graph forces global
        // uniformity.
        view.label == *view.local.state.payload()
            && view.neighbor_labels.iter().all(|l| *l == view.label)
    }
}

/// Workload builder: installs `payload` at every node.
#[must_use]
pub fn uniform_config(config: &Configuration, payload: &BitString) -> Configuration {
    let mut out = config.clone();
    for v in config.graph().nodes() {
        out.state_mut(v).set_payload(payload.clone());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};
    use rpls_core::engine;
    use rpls_core::{CompiledRpls, Rpls};
    use rpls_graph::{generators, NodeId};

    fn random_payload(k: usize, seed: u64) -> BitString {
        let mut rng = StdRng::seed_from_u64(seed);
        BitString::from_bools((0..k).map(|_| rng.random_bool(0.5)))
    }

    #[test]
    fn predicate_detects_deviation() {
        let base = Configuration::plain(generators::cycle(5));
        let c = uniform_config(&base, &random_payload(32, 1));
        assert!(UniformityPredicate.holds(&c));
        let mut bad = c.clone();
        bad.state_mut(NodeId::new(3))
            .set_payload(BitString::zeros(32));
        assert!(!UniformityPredicate.holds(&bad));
    }

    #[test]
    fn honest_labels_accepted() {
        let base = Configuration::plain(generators::path(6));
        let c = uniform_config(&base, &random_payload(100, 2));
        let labeling = UniformityPls.label(&c);
        assert!(engine::run_deterministic(&UniformityPls, &c, &labeling).accepted());
    }

    #[test]
    fn deviating_node_detected_deterministically() {
        let base = Configuration::plain(generators::path(4));
        let mut c = uniform_config(&base, &random_payload(16, 3));
        c.state_mut(NodeId::new(2))
            .set_payload(random_payload(16, 4));
        // No labeling works: each node's label is pinned to its payload.
        let labeling = UniformityPls.label(&c);
        assert!(!engine::run_deterministic(&UniformityPls, &c, &labeling).accepted());
        assert!(rpls_core::adversary::exhaustive_forge(&UniformityPls, &c, 2).is_none());
    }

    #[test]
    fn label_size_equals_k() {
        let base = Configuration::plain(generators::cycle(4));
        let c = uniform_config(&base, &random_payload(257, 5));
        assert_eq!(UniformityPls.label(&c).max_bits(), 257);
    }

    #[test]
    fn compiled_certificates_are_log_k() {
        let base = Configuration::plain(generators::cycle(6));
        let k = 4096;
        let c = uniform_config(&base, &random_payload(k, 6));
        let scheme = CompiledRpls::new(UniformityPls);
        let labeling = scheme.label(&c);
        let rec = engine::run_randomized(&scheme, &c, &labeling, 9);
        assert!(rec.outcome.accepted());
        // κ = 4096 → λ = 4128 → p < 6λ < 2^15 → cert ≤ 30 bits.
        assert!(
            rec.max_certificate_bits() <= 30,
            "{}",
            rec.max_certificate_bits()
        );
    }

    #[test]
    fn compiled_detects_deviation_probabilistically() {
        let base = Configuration::plain(generators::path(5));
        let mut c = uniform_config(&base, &random_payload(64, 7));
        c.state_mut(NodeId::new(2))
            .set_payload(random_payload(64, 8));
        let scheme = CompiledRpls::new(UniformityPls);
        // Labels from the prover run on the illegal config still pin each
        // node's claimed own-label to its payload; the replicas disagree
        // across the deviation edge either way.
        let labeling = scheme.label(&c);
        let p = rpls_core::stats::acceptance_probability(&scheme, &c, &labeling, 400, 3);
        assert!(p < 1.0 / 3.0 + 0.06, "acceptance = {p}");
    }
}
