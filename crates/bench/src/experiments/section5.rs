//! Experiments for §5: the concrete predicates, plus boosting and k-flow.

use crate::table::{fmt_b, fmt_f, Table};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rpls_bits::BitString;
use rpls_core::engine::RunSpec;
use rpls_core::stats::EstimateOpts;
use rpls_core::{
    engine, stats, CompiledRpls, Configuration, Labeling, Pls, PrepCache, RoundScratch, Rpls,
};
use rpls_crossing::det_attack::det_crossing_attack;
use rpls_crossing::families;
use rpls_crossing::iterated::iterated_crossing;
use rpls_graph::{connectivity, cycles, generators, NodeId};
use rpls_schemes::biconnectivity::BiconnectivityPls;
use rpls_schemes::cycle_at_least::CycleAtLeastPls;
use rpls_schemes::flow::{FlowPls, FlowPredicate};
use rpls_schemes::mst::{mst_config, MstPls};

/// E-5.1 — Theorem 5.1: MST labels grow like log²n; compiled certificates
/// like log log n.
#[must_use]
pub fn e51_mst() -> Table {
    let mut t = Table::new(
        "E-5.1  MST (Theorem 5.1): Theta(log^2 n) labels -> Theta(log log n) certificates",
        &[
            "n",
            "label bits",
            "label/log2(n)^2",
            "certificate bits",
            "cert/log2(log2 n)",
            "accepts legal",
        ],
    );
    let mut rng = StdRng::seed_from_u64(0x51);
    for n in [16usize, 32, 64, 128, 256] {
        let g = generators::gnp_connected(n, (4.0 / n as f64).min(0.9), &mut rng);
        let w = generators::random_weights(&g, (n * n) as u64, &mut rng);
        let config = mst_config(&Configuration::plain(g.with_weights(&w)));
        let det_bits = MstPls.label(&config).max_bits();
        let scheme = CompiledRpls::new(MstPls);
        let labeling = scheme.label(&config);
        let rec = engine::run_randomized(&scheme, &config, &labeling, 0x51);
        let log_n = (n as f64).log2();
        t.push_row(vec![
            n.to_string(),
            det_bits.to_string(),
            fmt_f(det_bits as f64 / (log_n * log_n)),
            rec.max_certificate_bits().to_string(),
            fmt_f(rec.max_certificate_bits() as f64 / log_n.log2()),
            fmt_b(rec.outcome.accepted()),
        ]);
    }
    t.push_note("weights are poly(n), so log W ~ 2 log n and labels are ~log^2 n");
    t.push_note("the Omega(log log n) side is the acyclicity crossing of E-4.3/E-4.8");
    t
}

/// E-5.2 — Theorem 5.2: biconnectivity at Θ(log n) / Θ(log log n), with
/// the wheel crossing flipping the predicate invisibly.
#[must_use]
pub fn e52_biconnectivity() -> Table {
    let mut t = Table::new(
        "E-5.2  vertex biconnectivity (Theorem 5.2)",
        &[
            "n",
            "det bits",
            "det/log2 n",
            "cert bits",
            "accepts legal",
            "wheel attack (B=1): fooled & flipped",
        ],
    );
    for n in [16usize, 64, 256] {
        let config = Configuration::plain(generators::wheel(n));
        let det_bits = BiconnectivityPls.label(&config).max_bits();
        let scheme = CompiledRpls::new(BiconnectivityPls);
        let labeling = scheme.label(&config);
        let rec = engine::run_randomized(&scheme, &config, &labeling, 0x52);

        // The Figure 2 attack under a 1-bit budget.
        let f = families::wheel(n);
        let cheap = Labeling::new(vec![BitString::zeros(1); n]);
        let report = det_crossing_attack(&f, &cheap);
        let flipped = report
            .crossed
            .as_ref()
            .is_some_and(|c| !connectivity::is_biconnected(c.graph()));
        t.push_row(vec![
            n.to_string(),
            det_bits.to_string(),
            fmt_f(det_bits as f64 / (n as f64).log2()),
            rec.max_certificate_bits().to_string(),
            fmt_b(rec.outcome.accepted()),
            fmt_b(report.succeeded() && flipped),
        ]);
    }
    t
}

/// E-5.3 — Theorem 5.3: cycle-at-least-c upper bounds and behaviour on the
/// wheel-with-tail workloads.
#[must_use]
pub fn e53_cycle_at_least() -> Table {
    let mut t = Table::new(
        "E-5.3  cycle-at-least-c upper bounds (Theorem 5.3)",
        &[
            "graph",
            "c",
            "det bits",
            "cert bits",
            "accepts legal",
            "rejects c+1 claim",
        ],
    );
    for (name, g, c) in [
        ("cycle(12)", generators::cycle(12), 12usize),
        ("wheel(13)", generators::wheel(13), 13),
        (
            "wheel_with_tail(20, 12)",
            generators::wheel_with_tail(20, 12),
            12,
        ),
    ] {
        let config = Configuration::plain(g);
        let scheme = CycleAtLeastPls::new(c);
        let det_bits = scheme.label(&config).max_bits();
        let compiled = CompiledRpls::new(scheme);
        let labeling = compiled.label(&config);
        let rec = engine::run_randomized(&compiled, &config, &labeling, 0x53);
        // An over-claiming scheme must reject the honest labels.
        let over = CycleAtLeastPls::new(c + 1);
        let over_labels = CycleAtLeastPls::new(c).label(&config);
        let rejected = !engine::run_deterministic(&over, &config, &over_labels).accepted();
        t.push_row(vec![
            name.to_owned(),
            c.to_string(),
            det_bits.to_string(),
            rec.max_certificate_bits().to_string(),
            fmt_b(rec.outcome.accepted()),
            fmt_b(rejected),
        ]);
    }
    t
}

/// E-5.4 — Theorem 5.4: the restricted-wheel crossing splits the long
/// cycle; thresholds scale with `c`, not `n`.
#[must_use]
pub fn e54_cycle_lower() -> Table {
    let mut t = Table::new(
        "E-5.4  cycle-at-least-c lower bound (Theorem 5.4)",
        &[
            "n",
            "c",
            "r copies",
            "det threshold (bits)",
            "rand threshold (bits)",
            "B=1 attack fooled",
            "longest cycle after",
        ],
    );
    for (n, c) in [(16usize, 12usize), (24, 18), (40, 30)] {
        let f = families::wheel_cycle(n, c);
        let cheap = Labeling::new(vec![BitString::zeros(1); n]);
        let report = det_crossing_attack(&f, &cheap);
        let after = report
            .crossed
            .as_ref()
            .and_then(|cc| cycles::longest_cycle(cc.graph()))
            .unwrap_or(0);
        t.push_row(vec![
            n.to_string(),
            c.to_string(),
            f.copy_count().to_string(),
            fmt_f(f.det_threshold_bits()),
            fmt_f(f.rand_threshold_bits()),
            fmt_b(report.succeeded()),
            after.to_string(),
        ]);
    }
    t.push_note("after the crossing every simple cycle is strictly shorter than c");
    t
}

/// E-5.5 — Theorem 5.5: iterated crossing on the wheel until every cycle
/// is short, invisibly.
#[must_use]
pub fn e55_iterated() -> Table {
    let mut t = Table::new(
        "E-5.5  iterated crossing (Theorem 5.5)",
        &[
            "n",
            "stop below",
            "crossings",
            "final longest cycle",
            "views preserved",
        ],
    );
    for n in [24usize, 36, 48] {
        let config = Configuration::plain(generators::wheel(n));
        let labeling = Labeling::new(vec![BitString::zeros(1); n]);
        let edges: Vec<(NodeId, NodeId)> = (1..=(n / 3 - 1))
            .map(|i| (NodeId::new(3 * i), NodeId::new(3 * i + 1)))
            .collect();
        let stop = n / 3;
        let report = iterated_crossing(&config, &labeling, &edges, stop);
        t.push_row(vec![
            n.to_string(),
            stop.to_string(),
            report.crossings.to_string(),
            report
                .final_longest_cycle
                .map_or("-".into(), |l| l.to_string()),
            fmt_b(report.views_preserved),
        ]);
    }
    t
}

/// E-5.6 — Theorem 5.6: the chain-of-cycles crossing merges two short
/// cycles into a long one; thresholds scale with `n/c`.
#[must_use]
pub fn e56_chain() -> Table {
    let mut t = Table::new(
        "E-5.6  cycle-at-most-c lower bound (Theorem 5.6)",
        &[
            "cycles r = n/c",
            "c",
            "n",
            "det threshold (bits)",
            "rand threshold (bits)",
            "B=1 attack fooled",
            "longest cycle after",
        ],
    );
    for (count, len) in [(4usize, 6usize), (8, 6), (16, 6), (8, 10)] {
        let f = families::chain_of_cycles(count, len);
        let n = f.config.node_count();
        let cheap = Labeling::new(vec![BitString::zeros(1); n]);
        let report = det_crossing_attack(&f, &cheap);
        let after = report
            .crossed
            .as_ref()
            .and_then(|cc| cycles::longest_cycle(cc.graph()))
            .unwrap_or(0);
        t.push_row(vec![
            count.to_string(),
            len.to_string(),
            n.to_string(),
            fmt_f(f.det_threshold_bits()),
            fmt_f(f.rand_threshold_bits()),
            fmt_b(report.succeeded()),
            after.to_string(),
        ]);
    }
    t.push_note("the merged cycle has ~2c nodes, violating cycle-at-most-c");
    t
}

/// E-B — footnote 1: majority boosting drives the error down
/// exponentially in the number of repetitions.
///
/// The bad proof under test is a compiled label whose replica of a
/// neighbor's inner label has one flipped bit: a single round accepts it
/// with the fingerprint collision probability `(λ−1)/p ≈ 0.32 < 1/2`, the
/// regime majority voting amplifies.
#[must_use]
pub fn eb_boosting() -> Table {
    use rpls_bits::{BitReader, BitWriter};
    use rpls_core::{DetView, Pls as PlsTrait};

    /// Inner scheme: label is the node's id in 64 bits padded to 512;
    /// neighbors only need to parse (so a corrupted replica is caught
    /// *only* by the fingerprint check, giving a clean per-round
    /// probability). κ = 512 puts the protocol prime at p = 1637, and
    /// p − 1 = 4·409 admits the two-flip corruption below with 410
    /// collision points — per-round acceptance ≈ 410/1637 ≈ 0.25.
    struct IdOnly;
    impl PlsTrait for IdOnly {
        fn name(&self) -> String {
            "id-only".into()
        }
        fn label(&self, config: &Configuration) -> Labeling {
            config
                .states()
                .iter()
                .map(|s| {
                    let mut w = BitWriter::new();
                    w.write_u64(s.id(), 64);
                    w.write_bits(&BitString::zeros(448));
                    w.finish()
                })
                .collect()
        }
        fn verify(&self, view: &DetView<'_>) -> bool {
            let mut r = BitReader::from_slice(view.label);
            r.read_u64(64).is_ok_and(|id| id == view.local.state.id())
                && view
                    .neighbor_labels
                    .iter()
                    .all(|&l| BitReader::from_slice(l).read_u64(64).is_ok())
        }
    }

    let mut t = Table::new(
        "E-B  majority boosting (footnote 1)",
        &[
            "repetitions t",
            "accept bad proof (boosted)",
            "Chernoff bound exp(-2t(1/2-p)^2)",
        ],
    );
    let config = Configuration::plain(generators::cycle(6));
    let scheme = CompiledRpls::new(IdOnly);
    let mut labeling = scheme.label(&config);
    // Corrupt two bits of node 3's replica of its port-0 neighbor, at
    // distance 409 apart: layout [κ:32][len:32][ℓ0:512][len:32][ℓ1:512]…
    // puts ℓ1 at offset 608; the difference polynomial ±x^a ± x^(a+409)
    // has gcd(409, p−1) + 1 = 410 roots in GF(1637), so one fingerprint
    // check passes with probability ≈ 0.25 — the `p < 1/2` regime the
    // footnote's majority vote suppresses.
    let corrupted: BitString = labeling
        .get(NodeId::new(3))
        .iter()
        .enumerate()
        .map(|(i, b)| if i == 618 || i == 618 + 409 { !b } else { b })
        .collect();
    labeling.set(NodeId::new(3), corrupted);

    let single = stats::acceptance_probability(&scheme, &config, &labeling, 3000, 0xB1);
    t.push_note(format!(
        "single-round acceptance of the corrupted proof: {single:.3} (fingerprint collision rate)"
    ));
    // One boosted verification is the majority of `reps` independent
    // rounds: 2·accepts > reps of one estimate over `reps` trials. All 800
    // boosted trials of a row share one preparation through the cache.
    let (mut scratch, mut cache) = (RoundScratch::new(), PrepCache::new());
    for reps in [1usize, 3, 7, 15, 31] {
        let opts = EstimateOpts::new(reps);
        let majorities = (0..800u64)
            .filter(|&trial| {
                let spec = RunSpec::trial(engine::mix_seed(0xB2, trial, 2));
                let votes = stats::estimate_with(
                    &scheme,
                    &config,
                    &labeling,
                    &spec,
                    &opts,
                    &mut scratch,
                    &mut cache,
                );
                2 * votes.accepts > reps
            })
            .count();
        let boosted = majorities as f64 / 800.0;
        let bound = (-2.0 * reps as f64 * (0.5 - single).powi(2)).exp();
        t.push_row(vec![
            reps.to_string(),
            fmt_f(boosted),
            format!("{bound:.5}"),
        ]);
    }
    t.push_note("legal proofs are still always accepted (one-sided), so boosting is free");
    t
}

/// E-F — the §5.2 remark: k-flow at O(k log n) deterministic,
/// O(log k + log log n) randomized.
#[must_use]
pub fn ef_flow() -> Table {
    let mut t = Table::new(
        "E-F  k-flow (Section 5.2 remark): O(k log n) -> O(log k + log log n)",
        &["graph", "k", "det bits", "cert bits", "accepts legal"],
    );
    for k in [2usize, 4, 8, 16] {
        let g = generators::complete(k + 1);
        let config = Configuration::plain(g);
        let scheme = FlowPls::new(FlowPredicate::new(0, k as u64, k));
        let det_bits = scheme.label(&config).max_bits();
        let compiled = CompiledRpls::new(scheme);
        let labeling = compiled.label(&config);
        let rec = engine::run_randomized(&compiled, &config, &labeling, 0xF0);
        t.push_row(vec![
            format!("K{}", k + 1),
            k.to_string(),
            det_bits.to_string(),
            rec.max_certificate_bits().to_string(),
            fmt_b(rec.outcome.accepted()),
        ]);
    }
    t.push_note("det bits grow linearly in k; certificate bits only logarithmically");
    t
}

/// E-V — §5.2: s–t k-vertex-connectivity at O(k log n) deterministic /
/// O(log k + log log n) randomized, via disjoint paths plus a vertex cut.
#[must_use]
pub fn ev_vertex_connectivity() -> Table {
    use rpls_schemes::vertex_connectivity::{StConnectivityPls, StConnectivityPredicate};
    let mut t = Table::new(
        "E-V  s-t k-vertex-connectivity (Section 5.2)",
        &["graph", "k", "det bits", "cert bits", "accepts legal"],
    );
    for (name, g, s, t_id, k) in [
        ("grid(3,3)", generators::grid(3, 3), 0u64, 8u64, 2usize),
        ("grid(4,4)", generators::grid(4, 4), 0, 15, 2),
        ("cycle(10)", generators::cycle(10), 0, 5, 2),
        ("grid(3,6)", generators::grid(3, 6), 0, 17, 2),
    ] {
        let config = Configuration::plain(g);
        let predicate = StConnectivityPredicate::new(s, t_id, k);
        let scheme = StConnectivityPls::new(predicate);
        let det_bits = scheme.label(&config).max_bits();
        let compiled = CompiledRpls::new(StConnectivityPls::new(predicate));
        let labels = compiled.label(&config);
        let rec = engine::run_randomized(&compiled, &config, &labels, 0xE5);
        t.push_row(vec![
            name.to_owned(),
            k.to_string(),
            det_bits.to_string(),
            rec.max_certificate_bits().to_string(),
            fmt_b(rec.outcome.accepted()),
        ]);
    }
    t.push_note("certificate: k node-disjoint paths (Menger >= k) plus a k-node cut (<= k)");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ev_rows_accept() {
        let t = ev_vertex_connectivity();
        for row in t.rows() {
            assert_eq!(row[4], "yes", "{row:?}");
        }
    }

    #[test]
    fn e51_certificates_tiny_and_accepted() {
        let t = e51_mst();
        for row in t.rows() {
            assert_eq!(row[5], "yes", "{row:?}");
            let det: usize = row[1].parse().unwrap();
            let cert: usize = row[3].parse().unwrap();
            assert!(cert * 2 < det, "{row:?}");
        }
    }

    #[test]
    fn e52_attacks_succeed() {
        let t = e52_biconnectivity();
        for row in t.rows() {
            assert_eq!(row[4], "yes");
            assert_eq!(row[5], "yes");
        }
    }

    #[test]
    fn e54_crossed_cycles_are_short() {
        let t = e54_cycle_lower();
        for row in t.rows() {
            assert_eq!(row[5], "yes", "{row:?}");
            let c: usize = row[1].parse().unwrap();
            let after: usize = row[6].parse().unwrap();
            assert!(after < c, "{row:?}");
        }
    }

    #[test]
    fn e56_merged_cycles_are_long() {
        let t = e56_chain();
        for row in t.rows() {
            assert_eq!(row[5], "yes", "{row:?}");
            let c: usize = row[1].parse().unwrap();
            let after: usize = row[6].parse().unwrap();
            assert!(after > c, "{row:?}");
        }
    }

    #[test]
    fn eb_boosting_decays() {
        let t = eb_boosting();
        let first: f64 = t.rows()[0][1].parse().unwrap();
        let last: f64 = t.rows()[t.row_count() - 1][1].parse().unwrap();
        assert!(last <= first);
        assert!(last < 0.05, "31 repetitions should crush the error: {last}");
    }

    #[test]
    fn ef_flow_certificates_sublinear_in_k() {
        let t = ef_flow();
        let det_k2: usize = t.rows()[0][2].parse().unwrap();
        let det_k16: usize = t.rows()[3][2].parse().unwrap();
        assert!(det_k16 > 4 * det_k2, "deterministic bits grow ~linearly");
        let cert_k2: usize = t.rows()[0][3].parse().unwrap();
        let cert_k16: usize = t.rows()[3][3].parse().unwrap();
        assert!(cert_k16 < 2 * cert_k2 + 8, "certificates stay logarithmic");
    }
}
