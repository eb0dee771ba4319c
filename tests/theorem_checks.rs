//! Cross-crate checks of the paper's headline claims, via the public API.

use rpls::bits::BitString;
use rpls::core::{engine, CompiledRpls, Configuration, Labeling, Pls, Rpls};
use rpls::crossing::det_attack::det_crossing_attack;
use rpls::crossing::{families, ModDistancePls};
use rpls::graph::{cycles, generators};
use rpls::schemes::acyclicity::AcyclicityPls;

/// Theorem 3.1: the compiled certificate is O(log κ) — concretely, growing
/// κ by 64× moves the certificate by only a few bits.
#[test]
fn theorem_3_1_exponential_compression() {
    let small = CompiledRpls::<AcyclicityPls>::certificate_bits_for_kappa(1 << 6);
    let large = CompiledRpls::<AcyclicityPls>::certificate_bits_for_kappa(1 << 12);
    assert!(large <= small + 2 * 6, "{small} -> {large}");
    let huge = CompiledRpls::<AcyclicityPls>::certificate_bits_for_kappa(1 << 24);
    assert!(huge <= 2 * 27);
}

/// Corollary 3.4: any predicate is verifiable with O(log n + log k) bits —
/// exercised through the cycle-at-most universal scheme, which is co-NP
/// hard yet gets logarithmic certificates.
#[test]
fn corollary_3_4_hard_predicates_get_small_certificates() {
    use rpls::schemes::cycle_at_most::cycle_at_most_rpls;
    let config = Configuration::plain(generators::chain_of_cycles(2, 5));
    let scheme = cycle_at_most_rpls(5);
    let labels = scheme.label(&config);
    let rec = engine::run_randomized(&scheme, &config, &labels, 1);
    assert!(rec.outcome.accepted());
    assert!(
        rec.max_certificate_bits() <= 30,
        "cert = {}",
        rec.max_certificate_bits()
    );
    // Labels, by contrast, hold the entire configuration.
    assert!(labels.max_bits() > 10 * rec.max_certificate_bits());
}

/// Theorem 4.4: below log₂(r)/2s bits the crossing attack always lands.
#[test]
fn theorem_4_4_attack_below_threshold() {
    let f = families::acyclicity_path(120); // r = 39
    assert!(f.det_threshold_bits() > 2.0);
    // 1 bit < threshold: attack must fully succeed.
    let scheme = ModDistancePls::new(1);
    let labeling = scheme.label(&f.config);
    let report = det_crossing_attack(&f, &labeling);
    assert!(report.succeeded());
    let crossed = report.crossed.unwrap();
    assert!(cycles::has_cycle(crossed.graph()));
    // Verdict equality both ways (the "if and only if" of Prop 4.3).
    let before = engine::run_deterministic(&scheme, &f.config, &labeling);
    let after = engine::run_deterministic(&scheme, &crossed, &labeling);
    assert_eq!(before.votes(), after.votes());
}

/// Theorem 4.4 cannot break honest Θ(log n) schemes: the collision
/// disappears once labels carry real distances.
#[test]
fn theorem_4_4_honest_schemes_survive() {
    let f = families::acyclicity_path(120);
    let labeling = AcyclicityPls.label(&f.config);
    let report = det_crossing_attack(&f, &labeling);
    assert!(report.collision.is_none());
}

/// Theorem 5.2's geometry: crossing the wheel keeps it connected but
/// destroys biconnectivity, while every degree is preserved.
#[test]
fn theorem_5_2_wheel_crossing_geometry() {
    use rpls::graph::connectivity;
    let f = families::wheel(19);
    let g = f.config.graph();
    assert!(connectivity::is_biconnected(g));
    let labeling = Labeling::new(vec![BitString::zeros(1); 19]);
    let report = det_crossing_attack(&f, &labeling);
    let crossed = report.crossed.expect("constant labels always collide");
    assert!(connectivity::is_connected(crossed.graph()));
    assert!(!connectivity::is_biconnected(crossed.graph()));
    for v in g.nodes() {
        assert_eq!(g.degree(v), crossed.graph().degree(v));
    }
}

/// Theorem 5.6's geometry: crossing the chain merges two c-cycles into a
/// 2c-cycle.
#[test]
fn theorem_5_6_chain_crossing_geometry() {
    let f = families::chain_of_cycles(3, 6);
    assert!(cycles::all_cycles_at_most(f.config.graph(), 6));
    let labeling = Labeling::new(vec![BitString::zeros(1); 18]);
    let report = det_crossing_attack(&f, &labeling);
    let crossed = report.crossed.expect("constant labels always collide");
    assert_eq!(cycles::longest_cycle(crossed.graph()), Some(12));
}

/// The engine's edge-independence (Definition 4.5): certificates on
/// different ports of one node come from independent streams — regenerating
/// a round must not correlate them, unlike the shared-stream mode.
#[test]
fn definition_4_5_edge_independence_modes_differ() {
    use rand::Rng;
    use rpls::core::{CertView, RandView};
    use rpls::graph::Port;

    struct Echo;
    impl Rpls for Echo {
        fn name(&self) -> String {
            "echo".into()
        }
        fn label(&self, config: &Configuration) -> Labeling {
            Labeling::empty(config.node_count())
        }
        fn certify(&self, _v: &CertView<'_>, _p: Port, rng: &mut dyn Rng) -> BitString {
            BitString::from_bools((0..8).map(|_| rng.next_u64() & 1 == 1))
        }
        fn verify(&self, _v: &RandView<'_>) -> bool {
            true
        }
    }

    let config = Configuration::plain(generators::complete(5));
    let labels = Labeling::empty(5);
    let independent = engine::run_randomized(&Echo, &config, &labels, 5);
    let mut scratch = rpls::core::RoundScratch::new();
    engine::run_prepared(
        &engine::RunSpec::trial(5).with_stream_mode(engine::StreamMode::SharedPerNode),
        &rpls::core::Unprepared::new(&Echo, &config, &labels),
        &config,
        &mut scratch,
    );
    let shared = scratch.certificates().to_nested(config.port_base());
    assert_ne!(independent.certificates, shared);
    // In the independent mode, the first port's certificate equals itself
    // across repeated runs (determinism) but differs across ports.
    let again = engine::run_randomized(&Echo, &config, &labels, 5);
    assert_eq!(independent.certificates, again.certificates);
}
