//! The fault-injection layer's three contracts, pinned end to end.
//!
//! 1. **Zero-fault identity**: under a transparent [`FaultPlan`] every
//!    faulted engine path — scalar, batched, multiround, and the
//!    Monte-Carlo estimator — is bit-identical to the fault-free run, for
//!    every scheme, honest and hostile labelings alike, in both stream
//!    modes.
//! 2. **Soundness preservation**: faults only ever flip accept → reject.
//!    For any fault rates (up to and including 1.0) a faulted trial
//!    accepts only if the fault-free trial with the same seed accepts, so
//!    an illegal labeling the clean engine rejects is never accepted by
//!    the faulted one.
//! 3. **Replay determinism**: the whole fault schedule is a pure function
//!    of `(trial seed, fault seed)` — re-running reproduces every report,
//!    verdict, and counter exactly.

use proptest::prelude::*;
use rpls::core::engine::{self, FaultReport, MessagePattern, RunReport, RunSpec, StreamMode};
use rpls::core::stats::{self, EstimateOpts};
use rpls::core::{
    Configuration, FaultPlan, FaultSpec, Labeling, NodeVerdict, Pls, PrepCache, RoundScratch, Rpls,
    Unprepared,
};
use rpls::graph::{generators, NodeId};
use rpls_core::scheme::ExchangeLabels;
use rpls_core::CompiledRpls;

/// Flips one mid-label bit of the first node with a non-empty label — a
/// tampered replica the clean engine rejects with probability ≥ 1/2.
fn tamper(labeling: &Labeling) -> Labeling {
    let mut out = labeling.clone();
    for v in 0..out.len() {
        let label = out.get(NodeId::new(v));
        if label.is_empty() {
            continue;
        }
        let target = label.len() / 2;
        let flipped: rpls::bits::BitString = label
            .iter()
            .enumerate()
            .map(|(i, b)| if i == target { !b } else { b })
            .collect();
        out.set(NodeId::new(v), flipped);
        break;
    }
    out
}

/// Structurally hostile labels: wrong widths, nothing parseable.
fn garbage(config: &Configuration) -> Labeling {
    Labeling::new(
        (0..config.node_count())
            .map(|i| rpls::bits::BitString::zeros(i % 5))
            .collect(),
    )
}

/// The fault specs the soundness sweep probes: each channel alone, a mixed
/// plan, and the total-loss endpoints (rate exactly 1.0).
fn hostile_specs() -> Vec<FaultSpec> {
    vec![
        FaultSpec::transparent().with_drop(0.3),
        FaultSpec::transparent()
            .with_corrupt(0.3)
            .with_retry_budget(2),
        FaultSpec::transparent().with_duplicate(0.5),
        FaultSpec::transparent().with_crash(0.2),
        FaultSpec::transparent()
            .with_drop(0.2)
            .with_corrupt(0.2)
            .with_duplicate(0.2)
            .with_crash(0.1)
            .with_retry_budget(1),
        FaultSpec::transparent().with_drop(1.0),
        FaultSpec::transparent()
            .with_corrupt(1.0)
            .with_retry_budget(3),
        FaultSpec::transparent().with_crash(1.0),
    ]
}

const FAULT_SEED: u64 = 0xFA11_5EED;

/// `report` without its fault statistics — what the clean engine reports
/// for the same trial when the plan is transparent.
fn clean_of(report: RunReport) -> RunReport {
    RunReport {
        fault: None,
        ..report
    }
}

/// Messages a faulted trial lost (after retries).
fn missing(report: &RunReport) -> usize {
    report.fault.map_or(0, |f| f.missing_messages)
}

/// Zero-fault identity for one (scheme, labeling) pair: every faulted path
/// under a transparent plan reproduces its clean twin bit for bit.
fn check_transparent_identity<S: Pls + Clone>(
    name: &str,
    scheme: &CompiledRpls<S>,
    config: &Configuration,
    labeling: &Labeling,
    cache: &mut PrepCache,
) {
    let trials = 48usize;
    let seed = 0xC0FFu64;
    let seeds: Vec<u64> = (0..trials)
        .map(|t| stats::trial_seed(seed, t as u64))
        .collect();
    let plan = FaultPlan::new(FaultSpec::transparent(), FAULT_SEED);
    assert!(plan.is_transparent());
    let mut scratch = RoundScratch::new();

    for mode in [StreamMode::EdgeIndependent, StreamMode::SharedPerNode] {
        // Unprepared scalar entry point.
        let clean = engine::run_prepared(
            &RunSpec::trial(seeds[0]).with_stream_mode(mode),
            &Unprepared::new(scheme, config, labeling),
            config,
            &mut scratch,
        );
        let clean_votes: Vec<bool> = scratch.votes().to_vec();
        let faulted = engine::run_degraded(
            &RunSpec::trial(seeds[0])
                .with_faults(plan.clone())
                .with_stream_mode(mode),
            &Unprepared::new(scheme, config, labeling),
            config,
            &mut scratch,
        );
        assert_eq!(clean_of(faulted.report), clean, "{name}: unprepared report");
        assert_eq!(faulted.report.fault, Some(FaultReport::default()));
        for (verdict, vote) in faulted.verdicts.iter().zip(&clean_votes) {
            assert_eq!(
                *verdict,
                if *vote {
                    NodeVerdict::Accept
                } else {
                    NodeVerdict::Reject
                },
                "{name}: transparent verdicts mirror clean votes"
            );
        }

        // Prepared scalar loop, against the sweep-shared cache.
        let prepared = scheme.prepare_cached(config, labeling, trials, cache);
        let scalar_clean: Vec<RunReport> = seeds
            .iter()
            .map(|&s| {
                engine::run_prepared(
                    &RunSpec::trial(s).with_stream_mode(mode),
                    &*prepared,
                    config,
                    &mut scratch,
                )
            })
            .collect();
        for (&s, want) in seeds.iter().zip(&scalar_clean) {
            let got = engine::run_degraded(
                &RunSpec::trial(s)
                    .with_faults(plan.clone())
                    .with_stream_mode(mode),
                &*prepared,
                config,
                &mut scratch,
            );
            assert_eq!(
                &clean_of(got.report),
                want,
                "{name}: prepared scalar report"
            );
            assert_eq!(got.report.fault, Some(FaultReport::default()));
            assert!(got.missing.iter().all(|&m| m == 0));
        }

        // Batched trial loop (the compiled override's transparent branch).
        let mut batched_clean: Vec<RunReport> = Vec::new();
        engine::run_trials(
            &RunSpec::trial(0).with_stream_mode(mode),
            &*prepared,
            config,
            &seeds,
            &mut scratch,
            &mut |s| batched_clean.push(s),
        );
        let mut batched_faulted: Vec<RunReport> = Vec::new();
        engine::run_trials(
            &RunSpec::trial(0)
                .with_faults(plan.clone())
                .with_stream_mode(mode),
            &*prepared,
            config,
            &seeds,
            &mut scratch,
            &mut |s| batched_faulted.push(s),
        );
        let unwrapped: Vec<RunReport> = batched_faulted
            .iter()
            .inspect(|r| {
                assert_eq!(
                    r.fault,
                    Some(FaultReport::default()),
                    "{name}: transparent batched"
                );
            })
            .map(|&r| clean_of(r))
            .collect();
        assert_eq!(unwrapped, batched_clean, "{name}: batched reports");

        // Multiround schedules.
        for rounds in [1usize, 2, 5] {
            let mut multi_clean = Vec::new();
            engine::run_trials(
                &RunSpec::trial(0).with_rounds(rounds).with_stream_mode(mode),
                &*prepared,
                config,
                &seeds[..16],
                &mut scratch,
                &mut |s| multi_clean.push(s),
            );
            let mut multi_faulted: Vec<RunReport> = Vec::new();
            engine::run_trials(
                &RunSpec::trial(0)
                    .with_rounds(rounds)
                    .with_faults(plan.clone())
                    .with_stream_mode(mode),
                &*prepared,
                config,
                &seeds[..16],
                &mut scratch,
                &mut |s| multi_faulted.push(s),
            );
            for (&got, want) in multi_faulted.iter().zip(&multi_clean) {
                assert_eq!(&clean_of(got), want, "{name}: multiround t={rounds}");
                assert_eq!(got.fault, Some(FaultReport::default()));
            }
        }
    }

    // The faulted estimator under a transparent plan reproduces the clean
    // estimate exactly (same per-trial seeds, same engine).
    let clean_p = stats::acceptance_probability(scheme, config, labeling, trials, seed);
    let faulted_p = stats::estimate(
        scheme,
        config,
        labeling,
        &RunSpec::trial(seed).with_faults(plan.clone()),
        &EstimateOpts::new(trials),
    );
    assert_eq!(faulted_p.acceptance(), clean_p, "{name}: estimator");
    assert_eq!(faulted_p.degraded_trials, 0);
    assert_eq!(faulted_p.counts, Default::default());
}

/// Soundness preservation for one (scheme, labeling) pair: under every
/// hostile spec, a faulted trial accepts only if the clean trial with the
/// same seed accepts — and the batched faulted path agrees verdict-for-
/// verdict with the scalar faulted reference.
fn check_soundness<S: Pls + Clone>(
    name: &str,
    scheme: &CompiledRpls<S>,
    config: &Configuration,
    labeling: &Labeling,
    cache: &mut PrepCache,
) {
    let trials = 32usize;
    let seed = 0x50FAu64;
    let seeds: Vec<u64> = (0..trials)
        .map(|t| stats::trial_seed(seed, t as u64))
        .collect();
    let mut scratch = RoundScratch::new();
    let prepared = scheme.prepare_cached(config, labeling, trials, cache);
    let mode = StreamMode::EdgeIndependent;

    let clean: Vec<RunReport> = seeds
        .iter()
        .map(|&s| {
            engine::run_prepared(
                &RunSpec::trial(s).with_stream_mode(mode),
                &*prepared,
                config,
                &mut scratch,
            )
        })
        .collect();

    for spec in hostile_specs() {
        let plan = FaultPlan::new(spec, FAULT_SEED);

        // Scalar faulted reference, and the batched override against it.
        let scalar: Vec<RunReport> = seeds
            .iter()
            .map(|&s| {
                engine::run_degraded(
                    &RunSpec::trial(s)
                        .with_faults(plan.clone())
                        .with_stream_mode(mode),
                    &*prepared,
                    config,
                    &mut scratch,
                )
                .report
            })
            .collect();
        let mut batched: Vec<RunReport> = Vec::new();
        engine::run_trials(
            &RunSpec::trial(0)
                .with_faults(plan.clone())
                .with_stream_mode(mode),
            &*prepared,
            config,
            &seeds,
            &mut scratch,
            &mut |s| batched.push(s),
        );
        assert_eq!(
            scalar, batched,
            "{name}: scalar vs batched faulted ({spec:?})"
        );

        for ((faulted, cl), &s) in scalar.iter().zip(&clean).zip(&seeds) {
            // The load-bearing invariant: faults never flip reject → accept.
            assert!(
                !faulted.accepted || cl.accepted,
                "{name}: faulted trial accepted a clean-rejected run (seed {s:#x}, {spec:?})"
            );
            // And a node missing input always rejects conservatively.
            assert!(
                !(missing(faulted) > 0 && faulted.accepted),
                "{name}: accepted despite missing input (seed {s:#x}, {spec:?})"
            );
        }

        // Every schedule obeys the same one-sided contract: single-shot
        // delivery at t = 1, the chunked overlay with retries beyond.
        for rounds in [1usize, 3] {
            let mut multi: Vec<RunReport> = Vec::new();
            engine::run_trials(
                &RunSpec::trial(0)
                    .with_rounds(rounds)
                    .with_faults(plan.clone())
                    .with_stream_mode(mode),
                &*prepared,
                config,
                &seeds[..12],
                &mut scratch,
                &mut |s| multi.push(s),
            );
            let mut multi_clean = Vec::new();
            engine::run_trials(
                &RunSpec::trial(0).with_rounds(rounds).with_stream_mode(mode),
                &*prepared,
                config,
                &seeds[..12],
                &mut scratch,
                &mut |s| multi_clean.push(s),
            );
            for (f, cl) in multi.iter().zip(&multi_clean) {
                assert!(
                    !f.accepted || cl.accepted,
                    "{name}: multiround t={rounds} soundness ({spec:?})"
                );
                assert!(
                    f.decided_round <= cl.decided_round,
                    "{name}: a fault can only advance the decision round"
                );
                assert!(!(missing(f) > 0 && f.accepted));
            }
        }
    }
}

/// Runs both contract checks for one scheme over honest, tampered, and
/// garbage labelings, sharing one preparation cache across the sweep.
fn contracts<S: Pls + Clone>(name: &str, inner: S, config: &Configuration) {
    let scheme = CompiledRpls::new(inner);
    let mut cache = PrepCache::new();
    let honest = Rpls::label(&scheme, config);
    for labeling in [honest.clone(), tamper(&honest), garbage(config)] {
        check_transparent_identity(name, &scheme, config, &labeling, &mut cache);
        check_soundness(name, &scheme, config, &labeling, &mut cache);
    }
}

#[test]
fn every_scheme_survives_fault_injection() {
    use rpls::schemes::*;
    let plain5 = Configuration::plain(generators::cycle(5));
    let path5 = Configuration::plain(generators::path(5));
    let cyc6 = Configuration::plain(generators::cycle(6));

    contracts("acyclicity", acyclicity::AcyclicityPls::new(), &path5);
    contracts(
        "biconnectivity",
        biconnectivity::BiconnectivityPls::new(),
        &plain5,
    );
    contracts(
        "coloring",
        coloring::ColoringPls::new(),
        &coloring::greedy_coloring_config(&plain5),
    );
    contracts(
        "cycle_at_least",
        cycle_at_least::CycleAtLeastPls::new(4),
        &plain5,
    );
    contracts(
        "leader",
        leader::LeaderPls::new(),
        &leader::leader_config(&plain5, NodeId::new(2)),
    );
    contracts(
        "spanning_tree",
        rpls::schemes::spanning_tree::SpanningTreePls::new(),
        &rpls::schemes::spanning_tree::spanning_tree_config(&plain5, NodeId::new(0)),
    );
    contracts(
        "uniformity",
        uniformity::UniformityPls::new(),
        &uniformity::uniform_config(&plain5, &rpls::bits::BitString::zeros(16)),
    );
    contracts(
        "mst",
        mst::MstPls::new(),
        &mst::mst_config(&Configuration::plain(
            generators::cycle(5).with_weights(&[4, 1, 5, 2, 3]),
        )),
    );
    contracts(
        "flow",
        flow::FlowPls::new(flow::FlowPredicate::new(0, 3, 2)),
        &cyc6,
    );
    contracts(
        "vertex_connectivity",
        vertex_connectivity::StConnectivityPls::new(
            vertex_connectivity::StConnectivityPredicate::new(0, 3, 2),
        ),
        &cyc6,
    );
    contracts(
        "cycle_at_most",
        cycle_at_most::cycle_at_most_pls(6),
        &plain5,
    );
    contracts("symmetry", symmetry::symmetry_pls(), &path5);
}

/// A node that lost input votes `InsufficientInput` — and on an honest
/// labeling (clean engine accepts with probability 1) the faulted verdict
/// is accept exactly when no message went missing.
#[test]
fn honest_acceptance_degrades_exactly_with_missing_input() {
    let config = rpls::schemes::spanning_tree::spanning_tree_config(
        &Configuration::plain(generators::cycle(16)),
        NodeId::new(0),
    );
    let scheme = CompiledRpls::new(rpls::schemes::spanning_tree::SpanningTreePls::new());
    let labeling = Rpls::label(&scheme, &config);
    // 5% per message over 32 directed ports: ≈ 19% of trials deliver
    // everything, so 64 trials all but surely see both outcomes.
    let plan = FaultPlan::new(FaultSpec::transparent().with_drop(0.05), 99);
    let mut scratch = RoundScratch::new();
    let mut saw_degraded = false;
    let mut saw_intact = false;
    for trial in 0..64u64 {
        let summary = engine::run_degraded(
            &RunSpec::trial(stats::trial_seed(5, trial)).with_faults(plan.clone()),
            &Unprepared::new(&scheme, &config, &labeling),
            &config,
            &mut scratch,
        );
        let lost = summary.fault().missing_messages;
        assert_eq!(
            summary.accepted(),
            lost == 0,
            "honest run: acceptance == full delivery"
        );
        for (verdict, &miss) in summary.verdicts.iter().zip(&summary.missing) {
            assert_eq!(
                matches!(verdict, NodeVerdict::InsufficientInput),
                miss > 0,
                "InsufficientInput exactly on the nodes that lost input"
            );
        }
        saw_degraded |= lost > 0;
        saw_intact |= lost == 0;
    }
    assert!(
        saw_degraded && saw_intact,
        "a 5% drop rate over 64 trials should produce both outcomes"
    );
}

/// Total-loss endpoints are exact, not approximate: crash rate 1.0 silences
/// every channel (zero bits on the wire), drop rate 1.0 loses every message
/// but still pays for the transmission.
#[test]
fn endpoint_rates_silence_or_lose_everything() {
    let config = rpls::schemes::spanning_tree::spanning_tree_config(
        &Configuration::plain(generators::cycle(8)),
        NodeId::new(0),
    );
    let scheme = CompiledRpls::new(rpls::schemes::spanning_tree::SpanningTreePls::new());
    let labeling = Rpls::label(&scheme, &config);
    let mut scratch = RoundScratch::new();
    let ports = config.port_count();

    let crash_all = FaultPlan::new(FaultSpec::transparent().with_crash(1.0), 7);
    let s = engine::run_degraded(
        &RunSpec::trial(42).with_faults(crash_all.clone()),
        &Unprepared::new(&scheme, &config, &labeling),
        &config,
        &mut scratch,
    );
    assert!(!s.accepted());
    assert_eq!(s.fault().counts.crashed_nodes, config.node_count());
    assert_eq!(s.fault().missing_messages, ports);
    assert_eq!(s.report.total_bits, 0, "crashed senders are silent");

    let drop_all = FaultPlan::new(FaultSpec::transparent().with_drop(1.0), 7);
    let s = engine::run_degraded(
        &RunSpec::trial(42).with_faults(drop_all.clone()),
        &Unprepared::new(&scheme, &config, &labeling),
        &config,
        &mut scratch,
    );
    assert!(!s.accepted());
    assert_eq!(s.fault().counts.dropped, ports);
    assert_eq!(s.fault().missing_messages, ports);
    assert!(
        s.report.total_bits > 0,
        "dropped messages were still transmitted"
    );
}

/// The multiround resend schedule: a retry budget can only recover
/// messages (missing never increases) and every retry is paid for in
/// `total_bits`.
#[test]
fn retries_recover_messages_and_cost_bits() {
    let config = rpls::schemes::spanning_tree::spanning_tree_config(
        &Configuration::plain(generators::cycle(24)),
        NodeId::new(0),
    );
    let scheme = CompiledRpls::new(rpls::schemes::spanning_tree::SpanningTreePls::new());
    let labeling = Rpls::label(&scheme, &config);
    let prepared = scheme.prepare(&config, &labeling, 8);
    let mut scratch = RoundScratch::new();
    let seeds: Vec<u64> = (0..8).map(|t| stats::trial_seed(11, t)).collect();

    let run = |budget: usize, scratch: &mut RoundScratch| {
        let plan = FaultPlan::new(
            FaultSpec::transparent()
                .with_corrupt(0.5)
                .with_retry_budget(budget),
            3,
        );
        let mut out: Vec<RunReport> = Vec::new();
        engine::run_trials(
            &RunSpec::trial(0).with_rounds(4).with_faults(plan.clone()),
            &*prepared,
            &config,
            &seeds,
            scratch,
            &mut |s| out.push(s),
        );
        out
    };
    let without = run(0, &mut scratch);
    let with = run(3, &mut scratch);
    let retries = |reports: &[RunReport]| -> usize {
        reports
            .iter()
            .map(|r| r.fault.unwrap().counts.retries)
            .sum()
    };
    assert!(
        retries(&with) > 0,
        "a 50% corrupt rate must trigger retries"
    );
    assert_eq!(retries(&without), 0);
    for (w, wo) in with.iter().zip(&without) {
        assert!(missing(w) <= missing(wo), "retries only recover messages");
        assert!(
            w.total_bits >= wo.total_bits,
            "every retry transmission is accounted"
        );
    }
    assert!(
        with.iter().map(missing).sum::<usize>() < without.iter().map(missing).sum::<usize>(),
        "3 retries against 50% loss recover some messages over 8 trials"
    );
}

/// FNV-1a over the little-endian bytes of `words`.
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for word in words {
        for b in word.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

/// FNV-1a over every field of a block of reports, fault statistics
/// included.
fn reports_digest(reports: &[RunReport]) -> u64 {
    fnv(reports.iter().flat_map(|r| {
        let fault = r.fault.unwrap_or_default();
        [
            u64::from(r.accepted),
            r.rounds as u64,
            r.decided_round as u64,
            r.max_bits_per_round as u64,
            r.total_bits as u64,
            u64::from(r.fault.is_some()),
            fault.insufficient_nodes as u64,
            fault.missing_messages as u64,
            fault.counts.dropped as u64,
            fault.counts.corrupted as u64,
            fault.counts.duplicated as u64,
            fault.counts.crashed_nodes as u64,
            fault.counts.retries as u64,
        ]
    }))
}

/// Every report of `spec` over `seeds` through the one trial hook.
fn block(
    spec: &RunSpec,
    prepared: &dyn rpls::core::PreparedRpls,
    config: &Configuration,
    seeds: &[u64],
) -> Vec<RunReport> {
    let mut reports = Vec::new();
    let mut scratch = RoundScratch::new();
    engine::run_trials(spec, prepared, config, seeds, &mut scratch, &mut |r| {
        reports.push(r);
    });
    reports
}

/// The faulted engine's whole reports — verdicts, counts, retries, bits
/// and decided round — pinned on every delivery schedule the fault layer
/// serves, 12 seeds per digest unless noted:
///
/// * the compiled overlay, for every hostile spec × {honest, tampered,
///   garbage} labeling at t ∈ {1, 2, 3};
/// * `ExchangeLabels` through `run_trials` at t ∈ {1, 2, 3} — the scalar
///   one-round delivery and the certificate-splitting schedule, with
///   variable-length (and empty) certificates;
/// * `run_degraded`'s per-node `missing` counts and verdicts;
/// * one-round `SharedPerNode` compiled blocks (16 seeds, per-port and
///   unicast, clean and faulted);
/// * a configuration with a port-less node under crash rates above 0.
///
/// The soundness sweep above checks these runs only by inequalities and
/// replay; a change to the faulted paths must leave every digest intact.
#[test]
fn compiled_faulted_streaming_reports_are_pinned() {
    let config = rpls::schemes::spanning_tree::spanning_tree_config(
        &Configuration::plain(generators::wheel(7)),
        NodeId::new(0),
    );
    let scheme = CompiledRpls::new(rpls::schemes::spanning_tree::SpanningTreePls::new());
    let honest = Rpls::label(&scheme, &config);
    let labelings = [honest.clone(), tamper(&honest), garbage(&config)];
    let seeds: Vec<u64> = (0..12).map(|t| stats::trial_seed(0x601D, t)).collect();
    // Columns: honest, tampered, garbage. Garbage labels parse no prover
    // prefix, so nothing is sent or hazarded at t ≥ 2 and the column is
    // constant.
    let expected: [(usize, [[u64; 3]; 8]); 3] = [
        (
            1,
            [
                [
                    0x529A_6063_F22B_A8AD,
                    0x529A_6063_F22B_A8AD,
                    0xE83B_9ACC_714A_39C5,
                ],
                [
                    0xECFC_0941_ECDD_79AD,
                    0xECFC_0941_ECDD_79AD,
                    0x998D_88CE_F1BE_AC05,
                ],
                [
                    0xF413_6127_EE67_730F,
                    0xC953_A26E_0F1F_3607,
                    0xC244_EFAE_2E35_76EB,
                ],
                [
                    0x96FB_EFB7_75E3_CB17,
                    0xC31A_FF9F_7EC3_1FBB,
                    0x56D8_3ED6_9BC0_2B88,
                ],
                [
                    0x3BB0_E28B_75E8_FF29,
                    0x3BB0_E28B_75E8_FF29,
                    0x2EE3_1C8E_334C_5A74,
                ],
                [
                    0x7E0D_6D9B_1EA2_64C5,
                    0x7E0D_6D9B_1EA2_64C5,
                    0x5228_C6A1_B1CA_8E25,
                ],
                [
                    0xA945_99A5_10BD_0BC5,
                    0xA945_99A5_10BD_0BC5,
                    0xE2BB_E27F_AE47_1625,
                ],
                [
                    0x5287_FE2A_F3BD_4765,
                    0x5287_FE2A_F3BD_4765,
                    0x5287_FE2A_F3BD_4765,
                ],
            ],
        ),
        (
            2,
            [
                [
                    0xE7CE_736A_81BF_758C,
                    0xE7CE_736A_81BF_758C,
                    0xF93F_E127_6F0F_3BA5,
                ],
                [
                    0x1A63_A373_CE96_8CEC,
                    0xB99D_56C0_D6BB_FE93,
                    0xF93F_E127_6F0F_3BA5,
                ],
                [
                    0x7A19_7A39_3326_87FA,
                    0x1B2D_67F8_B34E_C0B6,
                    0xF93F_E127_6F0F_3BA5,
                ],
                [
                    0x8433_881F_6D01_1F66,
                    0x1C2C_50C8_6332_0DAF,
                    0xF93F_E127_6F0F_3BA5,
                ],
                [
                    0x8B37_A754_0F25_61E1,
                    0x8B37_A754_0F25_61E1,
                    0xF93F_E127_6F0F_3BA5,
                ],
                [
                    0xCBA0_0903_8503_98FD,
                    0xCBA0_0903_8503_98FD,
                    0xF93F_E127_6F0F_3BA5,
                ],
                [
                    0x3BA0_9EF9_E020_2755,
                    0x3BA0_9EF9_E020_2755,
                    0xF93F_E127_6F0F_3BA5,
                ],
                [
                    0xEBED_65CB_B55B_44A5,
                    0xEBED_65CB_B55B_44A5,
                    0xF93F_E127_6F0F_3BA5,
                ],
            ],
        ),
        (
            3,
            [
                [
                    0x2BAC_7B97_D2A1_B7E6,
                    0x2BAC_7B97_D2A1_B7E6,
                    0x9A28_5BF5_7799_5A65,
                ],
                [
                    0x9AD6_92C6_7964_5146,
                    0xE874_B62C_FAAB_D79E,
                    0x9A28_5BF5_7799_5A65,
                ],
                [
                    0x900B_09D0_327E_E785,
                    0xDF3B_CC09_91DD_EF85,
                    0x9A28_5BF5_7799_5A65,
                ],
                [
                    0x7CB8_3056_0351_CC05,
                    0xE052_A825_F0A5_D005,
                    0x9A28_5BF5_7799_5A65,
                ],
                [
                    0xEAC5_1405_EF40_CFEE,
                    0xEAC5_1405_EF40_CFEE,
                    0x9A28_5BF5_7799_5A65,
                ],
                [
                    0xDC53_838D_B927_BB05,
                    0xDC53_838D_B927_BB05,
                    0x9A28_5BF5_7799_5A65,
                ],
                [
                    0xC2C5_0C16_106E_68E5,
                    0xC2C5_0C16_106E_68E5,
                    0x9A28_5BF5_7799_5A65,
                ],
                [
                    0x9DDA_7A9B_F53C_23E5,
                    0x9DDA_7A9B_F53C_23E5,
                    0x9A28_5BF5_7799_5A65,
                ],
            ],
        ),
    ];
    for (rounds, rows) in expected {
        for (spec, row) in hostile_specs().into_iter().zip(rows) {
            let plan = FaultPlan::new(spec, FAULT_SEED);
            for (kind, (labeling, want)) in ["honest", "tampered", "garbage"]
                .iter()
                .zip(labelings.iter().zip(row))
            {
                let prepared = scheme.prepare(&config, labeling, seeds.len());
                let spec = RunSpec::trial(0)
                    .with_rounds(rounds)
                    .with_faults(plan.clone());
                let got = reports_digest(&block(&spec, &*prepared, &config, &seeds));
                assert_eq!(
                    got, want,
                    "faulted report digest changed: t={rounds}, {kind}, {spec:?} (got {got:#018X})"
                );
            }
        }
    }

    let mut pins: Vec<(String, u64)> = Vec::new();
    let plans: Vec<FaultPlan> = hostile_specs()
        .into_iter()
        .map(|spec| FaultPlan::new(spec, FAULT_SEED))
        .collect();

    // The scalar schedules, on the κ-bit baseline.
    let exchange = ExchangeLabels::new(rpls::schemes::spanning_tree::SpanningTreePls::new());
    for rounds in [1usize, 2, 3] {
        let mut reports = Vec::new();
        for labeling in &labelings {
            let prepared = exchange.prepare(&config, labeling, seeds.len());
            for plan in &plans {
                let spec = RunSpec::trial(0)
                    .with_rounds(rounds)
                    .with_faults(plan.clone());
                reports.extend(block(&spec, &*prepared, &config, &seeds));
            }
        }
        pins.push((format!("exchange t={rounds}"), reports_digest(&reports)));
    }

    // The per-node diagnostic, on both schemes.
    let mut scratch = RoundScratch::new();
    let mut words = Vec::new();
    for labeling in &labelings {
        let preps = [
            scheme.prepare(&config, labeling, 1),
            exchange.prepare(&config, labeling, 1),
        ];
        for prepared in &preps {
            for plan in &plans {
                for &s in &seeds {
                    let spec = RunSpec::trial(s).with_faults(plan.clone());
                    let d = engine::run_degraded(&spec, &**prepared, &config, &mut scratch);
                    words.push(reports_digest(&[d.report]));
                    words.extend(d.missing.iter().map(|&m| u64::from(m)));
                    words.extend(d.verdicts.iter().map(|&v| v as u64));
                }
            }
        }
    }
    pins.push(("run_degraded missing".into(), fnv(words)));

    // One-round shared-stream blocks of the compiled scheme.
    let seeds16: Vec<u64> = (0..16).map(|t| stats::trial_seed(0x5EED, t)).collect();
    for pattern in [MessagePattern::PerPort, MessagePattern::Unicast] {
        let mut reports = Vec::new();
        for labeling in &labelings {
            let prepared = scheme.prepare(&config, labeling, seeds16.len());
            let shared = RunSpec::trial(0)
                .with_pattern(pattern)
                .with_stream_mode(StreamMode::SharedPerNode);
            reports.extend(block(&shared, &*prepared, &config, &seeds16));
            for plan in &plans {
                let spec = shared.clone().with_faults(plan.clone());
                reports.extend(block(&spec, &*prepared, &config, &seeds16));
            }
        }
        pins.push((
            format!("shared-stream {pattern:?}"),
            reports_digest(&reports),
        ));
    }

    // A port-less node: it sends nothing, but its crash draws still count.
    let mut b = rpls::graph::GraphBuilder::new(7);
    for i in 0..6usize {
        b.add_edge(NodeId::new(i), NodeId::new((i + 1) % 6))
            .expect("cycle edge");
    }
    let isolated = rpls::schemes::coloring::greedy_coloring_config(&Configuration::plain(
        b.finish().expect("cycle plus an isolated node"),
    ));
    let coloring = CompiledRpls::new(rpls::schemes::coloring::ColoringPls::new());
    let coloring_exchange = ExchangeLabels::new(rpls::schemes::coloring::ColoringPls::new());
    let crashy = [
        FaultSpec::transparent()
            .with_crash(0.3)
            .with_drop(0.2)
            .with_retry_budget(1),
        FaultSpec::transparent().with_crash(1.0),
    ];
    for rounds in [1usize, 2, 3] {
        let mut reports = Vec::new();
        let honest = Rpls::label(&coloring, &isolated);
        for labeling in [honest.clone(), garbage(&isolated)] {
            let preps = [
                coloring.prepare(&isolated, &labeling, seeds.len()),
                coloring_exchange.prepare(&isolated, &labeling, seeds.len()),
            ];
            for prepared in &preps {
                for spec in crashy {
                    let spec = RunSpec::trial(0)
                        .with_rounds(rounds)
                        .with_faults(FaultPlan::new(spec, FAULT_SEED));
                    reports.extend(block(&spec, &**prepared, &isolated, &seeds));
                }
            }
        }
        assert!(reports
            .iter()
            .any(|r| r.fault.unwrap().counts.crashed_nodes > 0));
        pins.push((format!("port-less t={rounds}"), reports_digest(&reports)));
    }

    let want: [(&str, u64); 9] = [
        ("exchange t=1", 0x3A47_F858_3ADA_E119),
        ("exchange t=2", 0x4E14_A3B5_AC96_499A),
        ("exchange t=3", 0x3BA2_E10C_FC68_810A),
        ("run_degraded missing", 0x90F5_8F1C_DCCE_D4F9),
        ("shared-stream PerPort", 0xB2A6_158E_B0DD_B879),
        ("shared-stream Unicast", 0x9536_3EAF_AA75_3A99),
        ("port-less t=1", 0x6C79_B310_DC34_6813),
        ("port-less t=2", 0x1ABC_772A_C109_5509),
        ("port-less t=3", 0x8A89_EDE5_AF4E_378C),
    ];
    for ((name, got), (want_name, want)) in pins.iter().zip(want) {
        assert_eq!(name, want_name);
        assert_eq!(*got, want, "{name}: digest changed (got {got:#018X})");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Replay determinism: the faulted engine is a pure function of
    /// `(trial seed, fault seed, spec)` — both the scalar report and the
    /// batched trial block reproduce exactly.
    #[test]
    fn fault_schedules_replay_deterministically(
        seed in any::<u64>(),
        fault_seed in any::<u64>(),
        drop_milli in 0u64..=1000,
        corrupt_milli in 0u64..=1000,
        crash_milli in 0u64..=500,
        budget in 0usize..3,
    ) {
        let (drop, corrupt, crash) = (
            drop_milli as f64 / 1000.0,
            corrupt_milli as f64 / 1000.0,
            crash_milli as f64 / 1000.0,
        );
        let config = rpls::schemes::spanning_tree::spanning_tree_config(
            &Configuration::plain(generators::cycle(7)),
            NodeId::new(0),
        );
        let scheme = CompiledRpls::new(rpls::schemes::spanning_tree::SpanningTreePls::new());
        let labeling = Rpls::label(&scheme, &config);
        let spec = FaultSpec::transparent()
            .with_drop(drop)
            .with_corrupt(corrupt)
            .with_crash(crash)
            .with_retry_budget(budget);
        let plan_a = FaultPlan::new(spec, fault_seed);
        let plan_b = FaultPlan::new(spec, fault_seed);
        let mut scratch = RoundScratch::new();

        let one = engine::run_degraded(&RunSpec::trial(seed).with_faults(plan_a.clone()), &Unprepared::new(&scheme, &config, &labeling), &config, &mut scratch);
        let two = engine::run_degraded(&RunSpec::trial(seed).with_faults(plan_b.clone()), &Unprepared::new(&scheme, &config, &labeling), &config, &mut scratch);
        prop_assert_eq!(one, two);

        let prepared = scheme.prepare(&config, &labeling, 4);
        let seeds: Vec<u64> = (0..4).map(|t| stats::trial_seed(seed, t)).collect();
        let mut runs: [Vec<RunReport>; 2] = [Vec::new(), Vec::new()];
        for block in &mut runs {
            engine::run_trials(&RunSpec::trial(0).with_faults(plan_a.clone()), &*prepared, &config, &seeds, &mut scratch, &mut |s| block.push(s));
        }
        let [first, second] = runs;
        prop_assert_eq!(first, second);

        let multi_a = engine::run(&RunSpec::trial(seed).with_rounds(3).with_faults(plan_a.clone()), &scheme, &config, &labeling);
        let multi_b = engine::run(&RunSpec::trial(seed).with_rounds(3).with_faults(plan_b.clone()), &scheme, &config, &labeling);
        prop_assert_eq!(multi_a, multi_b);
    }
}
