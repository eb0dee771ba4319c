//! Integration tests for verification-complexity measurement across the
//! public core API (Definition 2.1 in executable form).

use rpls_core::measure;
use rpls_core::prelude::*;
use rpls_graph::generators;

/// A tunable scheme whose labels are n bits and whose behaviour is fixed,
/// for exercising the measurement plumbing.
struct WideLabels;

impl Pls for WideLabels {
    fn name(&self) -> String {
        "wide".into()
    }
    fn label(&self, config: &Configuration) -> Labeling {
        Labeling::new(vec![
            rpls_bits::BitString::zeros(config.node_count());
            config.node_count()
        ])
    }
    fn verify(&self, _view: &DetView<'_>) -> bool {
        true
    }
}

#[test]
fn deterministic_complexity_is_max_over_family() {
    let family: Vec<Configuration> = [5usize, 17, 9]
        .iter()
        .map(|&n| Configuration::plain(generators::cycle(n)))
        .collect();
    assert_eq!(measure::deterministic_complexity(&WideLabels, &family), 17);
}

#[test]
fn randomized_complexity_of_compiled_scheme_tracks_kappa() {
    let family: Vec<Configuration> = [8usize, 16, 32]
        .iter()
        .map(|&n| Configuration::plain(generators::cycle(n)))
        .collect();
    let compiled = CompiledRpls::new(WideLabels);
    let measured = measure::randomized_complexity(&compiled, &family, 3, 0);
    // κ = 32 (the largest family member), so the certificate is the
    // predicted size for κ = 32.
    assert_eq!(
        measured,
        CompiledRpls::<WideLabels>::certificate_bits_for_kappa(32)
    );
}

#[test]
fn complexity_row_reporting() {
    let row = measure::ComplexityRow {
        n: 64,
        deterministic_bits: 96,
        randomized_bits: 18,
    };
    assert!(row.compression() > 5.0);
}

#[test]
fn engine_total_bits_accounting() {
    use rpls_core::engine;
    let config = Configuration::plain(generators::cycle(6));
    let compiled = CompiledRpls::new(WideLabels);
    let labels = compiled.label(&config);
    let rec = engine::run_randomized(&compiled, &config, &labels, 1);
    // 6 nodes × degree 2 certificates; all the same size.
    assert_eq!(
        rec.total_certificate_bits(),
        12 * rec.max_certificate_bits()
    );
}

#[test]
fn boosted_verification_is_deterministic_per_seed() {
    use rpls_core::engine::RunSpec;
    use rpls_core::stats::{self, EstimateOpts};
    let config = Configuration::plain(generators::cycle(5));
    let compiled = CompiledRpls::new(WideLabels);
    let labels = compiled.label(&config);
    // One boosted verification: the majority of 5 independent rounds.
    let boosted = || {
        let spec = RunSpec::trial(42);
        2 * stats::estimate(&compiled, &config, &labels, &spec, &EstimateOpts::new(5)).accepts > 5
    };
    let (a, b) = (boosted(), boosted());
    assert_eq!(a, b);
    assert!(a, "honest labels on a one-sided scheme always accept");
}
