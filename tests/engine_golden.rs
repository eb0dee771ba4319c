//! Golden seed-stability tests for the refactored round engine.
//!
//! The engine is a deterministic function of `(scheme, configuration,
//! labeling, seed)`. These tests pin that function: a hardcoded digest of a
//! reference transcript guards against accidental stream or layout changes,
//! and the fast (scratch-reusing) path, the record-materialising path, and
//! the parallel trial runner are held vote-for-vote and
//! certificate-for-certificate identical.

use rpls::core::engine::{self, RoundRecord, RunReport, RunSpec, StreamMode};
use rpls::core::stats::{self, EstimateOpts};
use rpls::core::{Configuration, Labeling, Pls, RoundScratch, Rpls, Unprepared};
use rpls::graph::generators;
use rpls::schemes::spanning_tree::{spanning_tree_config, SpanningTreePls};
use rpls_core::CompiledRpls;

/// FNV-1a over a round transcript: votes, then each certificate's length
/// and bytes in global port order.
fn transcript_digest(rec: &RoundRecord) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |b: u8| {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    };
    for &v in rec.outcome.votes() {
        eat(u8::from(v));
    }
    for certs in &rec.certificates {
        for c in certs {
            for &b in (c.len() as u32).to_le_bytes().iter() {
                eat(b);
            }
            for &b in c.as_bytes() {
                eat(b);
            }
        }
    }
    h
}

fn compiled_spanning_tree_workload(
    n: usize,
) -> (CompiledRpls<SpanningTreePls>, Configuration, Labeling) {
    let config = spanning_tree_config(
        &Configuration::plain(generators::cycle(n)),
        rpls::graph::NodeId::new(0),
    );
    let scheme = CompiledRpls::new(SpanningTreePls::new());
    let labeling = Rpls::label(&scheme, &config);
    (scheme, config, labeling)
}

/// The reference transcript digests for fixed seeds. These values pin the
/// engine's random streams and certificate layout; they must only ever
/// change with a deliberate, documented engine-stream revision.
#[test]
fn golden_transcript_digests_are_stable() {
    let (scheme, config, labeling) = compiled_spanning_tree_workload(8);
    let expected: [(u64, u64); 3] = [
        (0x2A, 0x01C3_E378_0062_6F03),
        (0xD5, 0xEA94_7245_2109_C019),
        (0xBEEF, 0x2257_720F_9B49_CE63),
    ];
    for (seed, want) in expected {
        let rec = engine::run_randomized(&scheme, &config, &labeling, seed);
        assert!(
            rec.outcome.accepted(),
            "honest run must accept (seed {seed})"
        );
        assert_eq!(
            transcript_digest(&rec),
            want,
            "transcript digest changed for seed {seed:#x}"
        );
    }
}

/// Re-running the same seed reproduces the transcript exactly; the fast
/// scratch path produces the identical arena.
#[test]
fn fast_path_is_transcript_identical_to_record_path() {
    let (scheme, config, labeling) = compiled_spanning_tree_workload(12);
    let mut scratch = RoundScratch::new();
    for seed in [0u64, 1, 42, 0xFFFF_FFFF] {
        let rec = engine::run_randomized(&scheme, &config, &labeling, seed);
        let rec2 = engine::run_randomized(&scheme, &config, &labeling, seed);
        assert_eq!(rec.certificates, rec2.certificates);
        assert_eq!(rec.outcome.votes(), rec2.outcome.votes());

        let summary = engine::run_prepared(
            &RunSpec::trial(seed),
            &Unprepared::new(&scheme, &config, &labeling),
            &config,
            &mut scratch,
        );
        assert_eq!(summary.accepted, rec.outcome.accepted());
        assert_eq!(summary.max_bits_per_round, rec.max_certificate_bits());
        assert_eq!(scratch.votes(), rec.outcome.votes());
        assert_eq!(
            scratch.certificates().to_nested(config.port_base()),
            rec.certificates,
            "certificate-for-certificate identity (seed {seed})"
        );
    }
}

/// Serial and parallel Monte-Carlo runners agree exactly (not just
/// statistically) because they use identical per-trial seeds.
#[cfg(feature = "parallel")]
#[test]
fn serial_and_parallel_estimates_are_identical() {
    let (scheme, config, labeling) = compiled_spanning_tree_workload(16);
    // A tampered labeling so acceptance is non-trivial (strictly between 0
    // and 1) and any trial-partitioning bug would show up in the estimate.
    let mut tampered = labeling.clone();
    let flipped: rpls::bits::BitString = tampered
        .get(rpls::graph::NodeId::new(3))
        .iter()
        .enumerate()
        .map(|(i, b)| if i == 40 { !b } else { b })
        .collect();
    tampered.set(rpls::graph::NodeId::new(3), flipped);

    for (trials, seed) in [(64usize, 7u64), (500, 11), (1000, 0)] {
        let serial = stats::acceptance_probability(&scheme, &config, &tampered, trials, seed);
        for threads in [Some(2), Some(3), Some(8), None] {
            let par = stats::estimate_par(
                &scheme,
                &config,
                &tampered,
                &RunSpec::trial(seed),
                &EstimateOpts::new(trials),
                threads,
            )
            .acceptance();
            assert!(
                serial == par,
                "trials {trials} seed {seed} threads {threads:?}: serial {serial} != par {par}"
            );
        }
    }
}

/// The first-rejection histogram of the t-round verifier, pinned: the
/// compiled spanning tree on the 16-cycle with one flipped mid-label bit
/// at node 2, 400 trials at seed 0x60D. Each row is `(t, accepts,
/// rejects_at)` with one bucket per round of the schedule; `Estimate`
/// must reproduce it, its histogram ending at the latest decided round.
#[test]
fn rejection_round_histogram_is_stable() {
    let (scheme, config, labeling) = compiled_spanning_tree_workload(16);
    let mut tampered = labeling.clone();
    let node = rpls::graph::NodeId::new(2);
    let flipped: rpls::bits::BitString = tampered
        .get(node)
        .iter()
        .enumerate()
        .map(|(i, b)| if i == 208 { !b } else { b })
        .collect();
    tampered.set(node, flipped);
    let golden: [(usize, usize, &[usize]); 5] = [
        (1, 0, &[400]),
        (2, 0, &[398, 2]),
        (4, 0, &[0, 388, 0, 12]),
        (8, 0, &[0, 0, 0, 400, 0, 0, 0, 0]),
        (16, 0, &[0, 0, 0, 0, 0, 0, 400, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
    ];
    for (t, accepts, rejects_at) in golden {
        let spec = RunSpec::trial(0x60D).with_rounds(t);
        let est = stats::estimate(&scheme, &config, &tampered, &spec, &EstimateOpts::new(400));
        assert_eq!(est.accepts, accepts, "t = {t}");
        assert_ne!(
            est.rejects_at.last(),
            Some(&0),
            "t = {t}: trailing empty bucket"
        );
        let mut padded = est.rejects_at.clone();
        padded.resize(t, 0);
        assert_eq!(padded, rejects_at, "t = {t}");
    }
}

/// The prepared layer ([`Rpls::prepare`]) must be transcript-identical to
/// the unprepared scheme: same certificates, same votes, same randomness
/// consumption — for honest, tampered, and garbage labelings, both stream
/// modes, and both prepared variants (Horner per evaluation at small round
/// hints, full evaluation tables at Monte-Carlo hints).
#[test]
fn prepared_path_is_transcript_identical_to_unprepared() {
    let (scheme, config, honest) = compiled_spanning_tree_workload(10);
    let mut tampered = honest.clone();
    let flipped: rpls::bits::BitString = tampered
        .get(rpls::graph::NodeId::new(2))
        .iter()
        .enumerate()
        .map(|(i, b)| if i == 50 { !b } else { b })
        .collect();
    tampered.set(rpls::graph::NodeId::new(2), flipped);
    let garbage = Labeling::new(
        (0..10)
            .map(|i| rpls::bits::BitString::zeros(i % 4))
            .collect(),
    );

    let mut unprepared_scratch = RoundScratch::new();
    let mut prepared_scratch = RoundScratch::new();
    for labeling in [&honest, &tampered, &garbage] {
        for rounds_hint in [1usize, 1 << 20] {
            let prepared = scheme.prepare(&config, labeling, rounds_hint);
            for seed in [0u64, 9, 77, 12345] {
                for mode in [StreamMode::EdgeIndependent, StreamMode::SharedPerNode] {
                    let a = engine::run_prepared(
                        &RunSpec::trial(seed).with_stream_mode(mode),
                        &Unprepared::new(&scheme, &config, labeling),
                        &config,
                        &mut unprepared_scratch,
                    );
                    let b = engine::run_prepared(
                        &RunSpec::trial(seed).with_stream_mode(mode),
                        &*prepared,
                        &config,
                        &mut prepared_scratch,
                    );
                    assert_eq!(a, b, "report (seed {seed}, hint {rounds_hint})");
                    assert_eq!(
                        unprepared_scratch.votes(),
                        prepared_scratch.votes(),
                        "votes (seed {seed}, hint {rounds_hint})"
                    );
                    assert_eq!(
                        unprepared_scratch
                            .certificates()
                            .to_nested(config.port_base()),
                        prepared_scratch
                            .certificates()
                            .to_nested(config.port_base()),
                        "certificates (seed {seed}, hint {rounds_hint})"
                    );
                }
            }
        }
    }
}

/// Cached preparation ([`Rpls::prepare_cached`] with one [`PrepCache`]
/// reused across honest, tampered, and garbage labelings — then honest
/// again) must be certificate-for-certificate and vote-for-vote identical
/// to fresh preparation. Keying on content and verifying on hit makes
/// cache poisoning impossible by construction; this test is the pin.
#[test]
fn cached_preparation_sweep_is_transcript_identical() {
    use rpls::core::PrepCache;
    let (scheme, config, honest) = compiled_spanning_tree_workload(10);
    let mut tampered = honest.clone();
    let flipped: rpls::bits::BitString = tampered
        .get(rpls::graph::NodeId::new(2))
        .iter()
        .enumerate()
        .map(|(i, b)| if i == 50 { !b } else { b })
        .collect();
    tampered.set(rpls::graph::NodeId::new(2), flipped);
    let garbage = Labeling::new(
        (0..10)
            .map(|i| rpls::bits::BitString::zeros(i % 4))
            .collect(),
    );

    let mut cache = PrepCache::new();
    let mut fresh_scratch = RoundScratch::new();
    let mut cached_scratch = RoundScratch::new();
    for labeling in [&honest, &tampered, &garbage, &honest] {
        for rounds_hint in [1usize, 1 << 20] {
            let fresh = scheme.prepare(&config, labeling, rounds_hint);
            let cached = scheme.prepare_cached(&config, labeling, rounds_hint, &mut cache);
            for seed in [0u64, 9, 77, 12345] {
                for mode in [StreamMode::EdgeIndependent, StreamMode::SharedPerNode] {
                    let a = engine::run_prepared(
                        &RunSpec::trial(seed).with_stream_mode(mode),
                        &*fresh,
                        &config,
                        &mut fresh_scratch,
                    );
                    let b = engine::run_prepared(
                        &RunSpec::trial(seed).with_stream_mode(mode),
                        &*cached,
                        &config,
                        &mut cached_scratch,
                    );
                    assert_eq!(a, b, "report (seed {seed}, hint {rounds_hint})");
                    assert_eq!(
                        fresh_scratch.votes(),
                        cached_scratch.votes(),
                        "votes (seed {seed}, hint {rounds_hint})"
                    );
                    assert_eq!(
                        fresh_scratch.certificates().to_nested(config.port_base()),
                        cached_scratch.certificates().to_nested(config.port_base()),
                        "certificates (seed {seed}, hint {rounds_hint})"
                    );
                }
            }
        }
    }
    // The sweep revisited every labeling: the cache must have served most
    // of it from shared state while staying within its memory bounds.
    assert!(cache.hits() > cache.misses(), "{cache:?}");
    assert!(cache.retained_key_bits() <= PrepCache::KEY_BITS_BUDGET);
    assert!(cache.table_slots_reserved() <= PrepCache::TABLE_SLOT_BUDGET);
}

/// A cached instance must stay transcript-identical to fresh preparation
/// after the cache has turned over the epoch it was prepared in — including
/// the `t ≥ 2` plans it builds only after the turnover, whose slice
/// fingerprints land in the new epoch while its labels stay in the retired
/// one. The `force_dynamic` twin probes every slice, so a probe reading the
/// wrong epoch's fingerprint would fail on the honest labeling.
#[test]
fn cached_instance_outlives_epoch_turnover() {
    use rpls::bits::BitString;
    use rpls::core::PrepCache;
    let (scheme, config, honest) = compiled_spanning_tree_workload(10);
    let mut tampered = honest.clone();
    let flipped: BitString = tampered
        .get(rpls::graph::NodeId::new(2))
        .iter()
        .enumerate()
        .map(|(i, b)| if i == 50 { !b } else { b })
        .collect();
    tampered.set(rpls::graph::NodeId::new(2), flipped);

    let dynamic = CompiledRpls::new(SpanningTreePls::new()).force_dynamic();
    let runs = [
        (&scheme, &honest),
        (&scheme, &tampered),
        (&dynamic, &honest),
        (&dynamic, &tampered),
    ];
    let mut cache = PrepCache::new();
    let old: Vec<_> = runs
        .iter()
        .map(|&(scheme, labeling)| scheme.prepare_cached(&config, labeling, 64, &mut cache))
        .collect();
    // Flood the cache with distinct 64-kbit garbage labels until it turns
    // an epoch over; the instances above stay alive throughout.
    let start = cache.epochs();
    let mut round = 0u64;
    while cache.epochs() == start {
        let flood: Labeling = (0..10u64)
            .map(|v| {
                let mut w = rpls::bits::BitWriter::new();
                for i in 0..1024u64 {
                    w.write_u64(round.rotate_left(17) ^ (v << 40) ^ i, 64);
                }
                w.finish()
            })
            .collect();
        let _ = scheme.prepare_cached(&config, &flood, 4, &mut cache);
        round += 1;
        assert!(round < 100_000, "the flood never turned an epoch over");
    }

    let mut fresh_scratch = RoundScratch::new();
    let mut cached_scratch = RoundScratch::new();
    let seeds: Vec<u64> = (0..24).map(|t| stats::trial_seed(0x5EED, t)).collect();
    for (&(scheme, labeling), cached) in runs.iter().zip(&old) {
        let fresh = scheme.prepare(&config, labeling, 64);
        for rounds in [1usize, 2, 3] {
            for seed in [0u64, 9, 77, 12345] {
                let spec = RunSpec::trial(seed).with_rounds(rounds);
                let a = engine::run_prepared(&spec, &*fresh, &config, &mut fresh_scratch);
                let b = engine::run_prepared(&spec, &**cached, &config, &mut cached_scratch);
                assert_eq!(a, b, "report (seed {seed}, t = {rounds})");
                if rounds == 1 {
                    assert_eq!(fresh_scratch.votes(), cached_scratch.votes(), "votes");
                    assert_eq!(
                        fresh_scratch.certificates().to_nested(config.port_base()),
                        cached_scratch.certificates().to_nested(config.port_base()),
                        "certificates (seed {seed})"
                    );
                }
            }
            let block = |prepared: &dyn rpls::core::PreparedRpls, scratch: &mut RoundScratch| {
                let mut out = Vec::new();
                engine::run_trials(
                    &RunSpec::trial(0).with_rounds(rounds),
                    prepared,
                    &config,
                    &seeds,
                    scratch,
                    &mut |r| out.push(r),
                );
                out
            };
            assert_eq!(
                block(&*fresh, &mut fresh_scratch),
                block(&**cached, &mut cached_scratch),
                "block reports (t = {rounds})"
            );
        }
    }
    assert!(cache.retained_key_bits() <= PrepCache::KEY_BITS_BUDGET);
}

/// Repeated estimates of one (scheme, configuration, labeling) on one cache:
/// the cache keeps the instance from the second prepare on and serves it,
/// with its plans and memoised inner verdicts, to every later job. Each
/// repeat must equal a fresh-cache `stats::estimate`. The specs' trial
/// counts (each prepare's rounds hint) differ, so a `t ≥ 2` plan is built by
/// a later job than the one that bound the instance, under another hint.
#[test]
fn repeated_estimates_on_one_cache_match_fresh_estimates() {
    use rpls::bits::BitString;
    use rpls::core::engine::MessagePattern;
    use rpls::core::{FaultPlan, FaultSpec, PrepCache, ProbeSketch};
    let flip = |labeling: &Labeling, node: usize, bit: usize| {
        let mut out = labeling.clone();
        let v = rpls::graph::NodeId::new(node);
        let flipped: BitString = out
            .get(v)
            .iter()
            .enumerate()
            .map(|(i, b)| b ^ (i == bit))
            .collect();
        out.set(v, flipped);
        out
    };
    let (scheme, config, honest) = compiled_spanning_tree_workload(12);
    let tampered = flip(&honest, 2, 50);
    let dynamic = CompiledRpls::new(SpanningTreePls::new()).force_dynamic();
    // Degree 23 > 16: the sketch samples every node's probes.
    let clique = spanning_tree_config(
        &Configuration::plain(generators::complete(24)),
        rpls::graph::NodeId::new(0),
    );
    let sketched = CompiledRpls::new(SpanningTreePls::new())
        .force_dynamic()
        .with_sketch(ProbeSketch::new(16));
    let clique_honest = Rpls::label(&sketched, &clique);
    let clique_tampered = flip(&clique_honest, 5, 300);
    let cases = [
        ("honest", &scheme, &config, &honest),
        ("tampered", &scheme, &config, &tampered),
        ("force_dynamic honest", &dynamic, &config, &honest),
        ("force_dynamic tampered", &dynamic, &config, &tampered),
        ("sketched clique honest", &sketched, &clique, &clique_honest),
        (
            "sketched clique tampered",
            &sketched,
            &clique,
            &clique_tampered,
        ),
    ];
    let faults = FaultPlan::new(FaultSpec::transparent().with_drop(0.1), 9);
    let specs = [
        (RunSpec::trial(3), 24),
        (RunSpec::trial(4).with_rounds(4), 16),
        (
            RunSpec::trial(5)
                .with_rounds(8)
                .with_pattern(MessagePattern::Broadcast),
            12,
        ),
        (RunSpec::trial(6).with_faults(faults), 20),
    ];
    let mut cache = PrepCache::new();
    let mut scratch = RoundScratch::new();
    let mut rejected = 0;
    for (name, scheme, config, labeling) in cases {
        for (spec, trials) in &specs {
            let opts = EstimateOpts::new(*trials);
            let fresh = stats::estimate(scheme, config, labeling, spec, &opts);
            rejected += fresh.trials - fresh.accepts;
            for repeat in 0..3 {
                let est = stats::estimate_with(
                    scheme,
                    config,
                    labeling,
                    spec,
                    &opts,
                    &mut scratch,
                    &mut cache,
                );
                assert_eq!(est, fresh, "{name}, {spec:?}, repeat {repeat}");
            }
        }
    }
    assert!(rejected > 0, "the tampered labelings must reject somewhere");
}

/// Same pinning for the κ-bit baseline wrapper, whose preparation caches
/// whole verdicts.
#[test]
fn prepared_exchange_labels_is_transcript_identical_to_unprepared() {
    use rpls::core::scheme::ExchangeLabels;
    let config = spanning_tree_config(
        &Configuration::plain(generators::cycle(9)),
        rpls::graph::NodeId::new(0),
    );
    let scheme = ExchangeLabels::new(SpanningTreePls::new());
    let honest = Rpls::label(&scheme, &config);
    let mut tampered = honest.clone();
    tampered.set(rpls::graph::NodeId::new(4), rpls::bits::BitString::zeros(7));

    let mut unprepared_scratch = RoundScratch::new();
    let mut prepared_scratch = RoundScratch::new();
    for labeling in [&honest, &tampered] {
        let prepared = scheme.prepare(&config, labeling, 100);
        for seed in [0u64, 3, 1 << 40] {
            let a = engine::run_prepared(
                &RunSpec::trial(seed),
                &Unprepared::new(&scheme, &config, labeling),
                &config,
                &mut unprepared_scratch,
            );
            let b = engine::run_prepared(
                &RunSpec::trial(seed),
                &*prepared,
                &config,
                &mut prepared_scratch,
            );
            assert_eq!(a, b);
            assert_eq!(unprepared_scratch.votes(), prepared_scratch.votes());
            assert_eq!(
                unprepared_scratch
                    .certificates()
                    .to_nested(config.port_base()),
                prepared_scratch
                    .certificates()
                    .to_nested(config.port_base()),
            );
        }
    }
}

/// The Monte-Carlo estimators prepare once and reuse across trials; their
/// estimates must equal a manual per-trial loop over the unprepared engine
/// with the same seed derivation, bit for bit.
#[test]
fn prepared_estimates_match_manual_unprepared_loop() {
    let (scheme, config, labeling) = compiled_spanning_tree_workload(12);
    // Corrupt the distance field of one claimed neighbor copy (replicated
    // layout: κ:32, len:32, own:96, len:32, copy₀:96, len:32, copy₁:96;
    // each copy is id:64 then dist:32). The copy on the node's parent port
    // also trips the inner verifier (acceptance 0); the other copy's
    // distance is unconstrained by the inner scheme, so acceptance there
    // equals the fingerprint collision probability 1/p ≈ 1/389 — strictly
    // between 0 and 1 given enough trials. Corrupt each copy in turn so
    // both cases are pinned without depending on the port order.
    let mut fractional_seen = false;
    for dist_bit in [270usize, 400] {
        let mut tampered = labeling.clone();
        let flipped: rpls::bits::BitString = tampered
            .get(rpls::graph::NodeId::new(5))
            .iter()
            .enumerate()
            .map(|(i, b)| if i == dist_bit { !b } else { b })
            .collect();
        tampered.set(rpls::graph::NodeId::new(5), flipped);

        for (trials, seed) in [(64usize, 5u64), (4000, 123)] {
            let mut scratch = RoundScratch::new();
            let accepts = (0..trials)
                .filter(|&t| {
                    engine::run_prepared(
                        &RunSpec::trial(stats::trial_seed(seed, t as u64)),
                        &Unprepared::new(&scheme, &config, &tampered),
                        &config,
                        &mut scratch,
                    )
                    .accepted
                })
                .count();
            let manual = accepts as f64 / trials as f64;
            let estimate = stats::acceptance_probability(&scheme, &config, &tampered, trials, seed);
            assert!(
                manual == estimate,
                "bit {dist_bit} trials {trials} seed {seed}: manual {manual} != prepared \
                 {estimate}"
            );
            assert!(estimate < 1.0, "estimate {estimate}");
            fractional_seen |= trials >= 4000 && estimate > 0.0;
        }
    }
    assert!(
        fractional_seen,
        "one of the corrupted copies must yield a strictly fractional estimate"
    );
}

/// Every scheme in `rpls-schemes`, compiled and run across the three trial
/// paths — unprepared per-round, prepared scalar per-round, and the batched
/// trial engine — must produce identical per-trial reports and identical
/// acceptance estimates, for honest, tampered, and garbage labelings. This
/// is the contract that lets `stats`/`measure` route everything through
/// `engine::run_trials` without estimates ever depending on which path
/// executed.
mod batched_identity {
    use super::*;
    use rpls::graph::NodeId;

    /// Flips one mid-label bit of node 1 (or the first node with a
    /// non-empty label), producing a tampered-replica labeling.
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

    /// Drives one compiled scheme through the four paths on one labeling
    /// and asserts bit-identity of reports and estimates. `cache` is the
    /// sweep-wide preparation cache: callers reuse one across labelings
    /// (honest, tampered, garbage — and honest again after garbage), so
    /// this also pins that shared cached state can never poison a later
    /// preparation.
    fn check<S: Pls + Sync>(
        name: &str,
        scheme: &CompiledRpls<S>,
        config: &Configuration,
        labeling: &Labeling,
        cache: &mut rpls::core::PrepCache,
    ) {
        let trials = 120usize;
        let seed = 0xB417u64;
        let seeds: Vec<u64> = (0..trials)
            .map(|t| stats::trial_seed(seed, t as u64))
            .collect();

        // Scalar prepared per-round loop.
        let prepared = scheme.prepare(config, labeling, trials);
        let mut scratch = RoundScratch::new();
        let scalar: Vec<RunReport> = seeds
            .iter()
            .map(|&s| engine::run_prepared(&RunSpec::trial(s), &*prepared, config, &mut scratch))
            .collect();

        // Batched trial loop on a fresh preparation (the verdict memo of
        // the scalar run must not mask a batched-path divergence).
        let prepared2 = scheme.prepare(config, labeling, trials);
        let mut batched: Vec<RunReport> = Vec::new();
        engine::run_trials(
            &RunSpec::trial(0),
            &*prepared2,
            config,
            &seeds,
            &mut scratch,
            &mut |s| batched.push(s),
        );
        assert_eq!(scalar, batched, "{name}: batched vs scalar reports");

        // Cached preparation against the sweep-shared cache: reports
        // must be identical to the fresh preparation whatever the cache
        // already holds, and the estimator's cached entry point must
        // reproduce the uncached estimate bit for bit.
        let prepared3 = scheme.prepare_cached(config, labeling, trials, cache);
        let mut cached: Vec<RunReport> = Vec::new();
        engine::run_trials(
            &RunSpec::trial(0),
            &*prepared3,
            config,
            &seeds,
            &mut scratch,
            &mut |s| cached.push(s),
        );
        assert_eq!(scalar, cached, "{name}: cached vs scalar reports");
        let cached_estimate = stats::estimate_with(
            scheme,
            config,
            labeling,
            &RunSpec::trial(seed),
            &EstimateOpts::new(trials),
            &mut scratch,
            cache,
        )
        .acceptance();

        // Unprepared per-round loop, and the public estimator (which
        // routes through the batched engine).
        let mut unprepared_scratch = RoundScratch::new();
        let manual = seeds
            .iter()
            .filter(|&&s| {
                engine::run_prepared(
                    &RunSpec::trial(s),
                    &Unprepared::new(scheme, config, labeling),
                    config,
                    &mut unprepared_scratch,
                )
                .accepted
            })
            .count() as f64
            / trials as f64;
        let estimate = stats::acceptance_probability(scheme, config, labeling, trials, seed);
        assert!(
            manual == estimate,
            "{name}: unprepared {manual} != batched estimate {estimate}"
        );
        assert!(
            cached_estimate == estimate,
            "{name}: cached estimate {cached_estimate} != uncached {estimate}"
        );

        // The shared-stream violation mode falls back to the scalar path;
        // it must stay transcript-identical too.
        let shared_scalar: Vec<RunReport> = seeds
            .iter()
            .take(16)
            .map(|&s| {
                engine::run_prepared(
                    &RunSpec::trial(s).with_stream_mode(StreamMode::SharedPerNode),
                    &*prepared,
                    config,
                    &mut scratch,
                )
            })
            .collect();
        let mut shared_batched: Vec<RunReport> = Vec::new();
        engine::run_trials(
            &RunSpec::trial(0).with_stream_mode(StreamMode::SharedPerNode),
            &*prepared2,
            config,
            &seeds[..16],
            &mut scratch,
            &mut |s| shared_batched.push(s),
        );
        assert_eq!(shared_scalar, shared_batched, "{name}: shared mode");

        #[cfg(feature = "parallel")]
        {
            let par = stats::estimate_par(
                scheme,
                config,
                labeling,
                &RunSpec::trial(seed),
                &EstimateOpts::new(trials),
                Some(3),
            )
            .acceptance();
            assert!(
                par == estimate,
                "{name}: parallel {par} != serial {estimate}"
            );
        }
    }

    /// Runs the full honest/tampered/garbage matrix for one scheme, with
    /// one preparation cache shared across the whole sweep — and a second
    /// honest pass after the garbage one, so state the garbage labelings
    /// left in the cache provably cannot poison an honest preparation.
    fn matrix<S: Pls + Clone + Sync>(name: &str, inner: S, config: &Configuration) {
        let scheme = CompiledRpls::new(inner);
        let mut cache = rpls::core::PrepCache::new();
        let honest = Rpls::label(&scheme, config);
        check(name, &scheme, config, &honest, &mut cache);
        check(name, &scheme, config, &tamper(&honest), &mut cache);
        let garbage = Labeling::new(
            (0..config.node_count())
                .map(|i| rpls::bits::BitString::zeros(i % 5))
                .collect(),
        );
        check(name, &scheme, config, &garbage, &mut cache);
        check(name, &scheme, config, &honest, &mut cache);
    }

    #[test]
    fn every_scheme_is_bit_identical_across_paths() {
        use rpls::schemes::*;
        let plain5 = Configuration::plain(generators::cycle(5));
        let path5 = Configuration::plain(generators::path(5));
        let cyc6 = Configuration::plain(generators::cycle(6));

        matrix("acyclicity", acyclicity::AcyclicityPls::new(), &path5);
        matrix(
            "biconnectivity",
            biconnectivity::BiconnectivityPls::new(),
            &plain5,
        );
        matrix(
            "coloring",
            coloring::ColoringPls::new(),
            &coloring::greedy_coloring_config(&plain5),
        );
        matrix(
            "cycle_at_least",
            cycle_at_least::CycleAtLeastPls::new(4),
            &plain5,
        );
        matrix(
            "leader",
            leader::LeaderPls::new(),
            &leader::leader_config(&plain5, NodeId::new(2)),
        );
        matrix(
            "spanning_tree",
            SpanningTreePls::new(),
            &spanning_tree_config(&plain5, NodeId::new(0)),
        );
        matrix(
            "uniformity",
            uniformity::UniformityPls::new(),
            &uniformity::uniform_config(&plain5, &rpls::bits::BitString::zeros(16)),
        );
        matrix(
            "mst",
            mst::MstPls::new(),
            &mst::mst_config(&Configuration::plain(
                generators::cycle(5).with_weights(&[4, 1, 5, 2, 3]),
            )),
        );
        matrix(
            "flow",
            flow::FlowPls::new(flow::FlowPredicate::new(0, 3, 2)),
            &cyc6,
        );
        matrix(
            "vertex_connectivity",
            vertex_connectivity::StConnectivityPls::new(
                vertex_connectivity::StConnectivityPredicate::new(0, 3, 2),
            ),
            &cyc6,
        );
        matrix(
            "cycle_at_most",
            cycle_at_most::cycle_at_most_pls(6),
            &plain5,
        );
        matrix("symmetry", symmetry::symmetry_pls(), &path5);
    }
}

/// The t-round trade-off engine. Two contracts are pinned here: the
/// `t = 1` schedule of **every** scheme is bit-identical to the batched
/// one-round path (reports and estimates alike, whatever the labeling),
/// and the compiled scheme's chunked-fingerprint schedule agrees
/// trial-for-trial with an independent scalar re-implementation of the
/// slice protocol for `t > 1`.
mod multiround {
    use super::*;
    use rpls::bits::{BitReader, BitString, BitWriter};
    use rpls::core::{PortRng, Rpls};
    use rpls::fingerprint::{EqMessage, EqProtocol};
    use rpls::graph::NodeId;

    /// One mid-label bit flip (the tampered-replica labeling).
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

    /// Drives one scheme × labeling through the t = 1 schedule on both
    /// paths and both stream modes, asserting bit-identity of reports
    /// and estimates against the batched one-round engine.
    fn check_t1<S: Rpls + ?Sized>(
        name: &str,
        scheme: &S,
        config: &Configuration,
        labeling: &Labeling,
    ) {
        let trials = 60usize;
        let seed = 0x7261u64;
        let seeds: Vec<u64> = (0..trials)
            .map(|t| stats::trial_seed(seed, t as u64))
            .collect();
        let mut scratch = RoundScratch::new();
        for mode in [StreamMode::EdgeIndependent, StreamMode::SharedPerNode] {
            let prepared = scheme.prepare(config, labeling, trials);
            let mut one_round: Vec<RunReport> = Vec::new();
            engine::run_trials(
                &RunSpec::trial(0).with_stream_mode(mode),
                &*prepared,
                config,
                &seeds,
                &mut scratch,
                &mut |s| one_round.push(s),
            );
            let prepared2 = scheme.prepare(config, labeling, trials);
            let mut multi: Vec<RunReport> = Vec::new();
            engine::run_trials(
                &RunSpec::trial(0).with_rounds(1).with_stream_mode(mode),
                &*prepared2,
                config,
                &seeds,
                &mut scratch,
                &mut |s| multi.push(s),
            );
            // Both blocks equal the unprepared scalar trials.
            let expected: Vec<RunReport> = seeds
                .iter()
                .map(|&s| {
                    engine::run_prepared(
                        &RunSpec::trial(s).with_stream_mode(mode),
                        &Unprepared::new(scheme, config, labeling),
                        config,
                        &mut scratch,
                    )
                })
                .collect();
            assert_eq!(one_round, expected, "{name}: one-round reports ({mode:?})");
            assert_eq!(multi, expected, "{name}: t = 1 reports ({mode:?})");

            // The scalar multi-round entry point agrees with the batch.
            for (i, &s) in seeds.iter().take(8).enumerate() {
                let scalar = engine::run_prepared(
                    &RunSpec::trial(s).with_rounds(1).with_stream_mode(mode),
                    &*prepared2,
                    config,
                    &mut scratch,
                );
                assert_eq!(scalar, multi[i], "{name}: scalar trial {i} ({mode:?})");
            }
        }

        // Estimates: the t = 1 multi-round estimator equals the one-round
        // estimator bit for bit, cached and uncached alike.
        let one = stats::acceptance_probability(scheme, config, labeling, trials, seed);
        let multi = stats::estimate(
            scheme,
            config,
            labeling,
            &RunSpec::trial(seed).with_rounds(1),
            &EstimateOpts::new(trials),
        )
        .acceptance();
        assert!(
            one == multi,
            "{name}: t = 1 estimate {multi} != one-round {one}"
        );
        let mut cache = rpls::core::PrepCache::new();
        let cached = stats::estimate_with(
            scheme,
            config,
            labeling,
            &RunSpec::trial(seed).with_rounds(1),
            &EstimateOpts::new(trials),
            &mut scratch,
            &mut cache,
        )
        .acceptance();
        assert!(
            cached == one,
            "{name}: cached t = 1 estimate {cached} != {one}"
        );
    }

    fn matrix_t1<S: Pls + Clone + Sync>(name: &str, inner: S, config: &Configuration) {
        let scheme = CompiledRpls::new(inner);
        let honest = Rpls::label(&scheme, config);
        check_t1(name, &scheme, config, &honest);
        check_t1(name, &scheme, config, &tamper(&honest));
        let garbage = Labeling::new(
            (0..config.node_count())
                .map(|i| rpls::bits::BitString::zeros(i % 5))
                .collect(),
        );
        check_t1(name, &scheme, config, &garbage);
    }

    /// `t = 1` multi-round reports and estimates are bit-identical to
    /// the batched one-round path for every scheme in `rpls-schemes` ×
    /// {honest, tampered, garbage} × both stream modes.
    #[test]
    fn every_scheme_t1_is_bit_identical_to_batched_path() {
        use rpls::schemes::*;
        let plain5 = Configuration::plain(generators::cycle(5));
        let path5 = Configuration::plain(generators::path(5));
        let cyc6 = Configuration::plain(generators::cycle(6));

        matrix_t1("acyclicity", acyclicity::AcyclicityPls::new(), &path5);
        matrix_t1(
            "biconnectivity",
            biconnectivity::BiconnectivityPls::new(),
            &plain5,
        );
        matrix_t1(
            "coloring",
            coloring::ColoringPls::new(),
            &coloring::greedy_coloring_config(&plain5),
        );
        matrix_t1(
            "cycle_at_least",
            cycle_at_least::CycleAtLeastPls::new(4),
            &plain5,
        );
        matrix_t1(
            "leader",
            leader::LeaderPls::new(),
            &leader::leader_config(&plain5, NodeId::new(2)),
        );
        matrix_t1(
            "spanning_tree",
            SpanningTreePls::new(),
            &spanning_tree_config(&plain5, NodeId::new(0)),
        );
        matrix_t1(
            "uniformity",
            uniformity::UniformityPls::new(),
            &uniformity::uniform_config(&plain5, &rpls::bits::BitString::zeros(16)),
        );
        matrix_t1(
            "mst",
            mst::MstPls::new(),
            &mst::mst_config(&Configuration::plain(
                generators::cycle(5).with_weights(&[4, 1, 5, 2, 3]),
            )),
        );
        matrix_t1(
            "flow",
            flow::FlowPls::new(flow::FlowPredicate::new(0, 3, 2)),
            &cyc6,
        );
        matrix_t1(
            "vertex_connectivity",
            vertex_connectivity::StConnectivityPls::new(
                vertex_connectivity::StConnectivityPredicate::new(0, 3, 2),
            ),
            &cyc6,
        );
        matrix_t1(
            "cycle_at_most",
            cycle_at_most::cycle_at_most_pls(6),
            &plain5,
        );
        matrix_t1("symmetry", symmetry::symmetry_pls(), &path5);

        // The κ-bit baseline wrapper rides the default splitting schedule.
        let st_config = spanning_tree_config(&plain5, NodeId::new(0));
        let exchange = rpls::core::scheme::ExchangeLabels::new(SpanningTreePls::new());
        let labels = Rpls::label(&exchange, &st_config);
        check_t1("exchange_labels", &exchange, &st_config, &labels);
        check_t1("exchange_labels", &exchange, &st_config, &tamper(&labels));
    }

    // ----- The independent scalar reference of the compiled schedule -----

    /// The replicated-label layout of the Theorem 3.1 compiler, decoded
    /// from scratch (32-bit κ, then per part a 32-bit length and the
    /// bits) — this test owns an independent copy of the format so a
    /// compiler-side drift cannot hide.
    const LEN_BITS: u32 = 32;

    fn decode_replicated(label: &BitString) -> Option<(usize, Vec<BitString>)> {
        let mut r = BitReader::new(label);
        let kappa = r.read_u64(LEN_BITS).ok()? as usize;
        let mut parts = Vec::new();
        while !r.is_exhausted() {
            let len = r.read_u64(LEN_BITS).ok()? as usize;
            if len > kappa {
                return None;
            }
            parts.push(r.read_bits(len).ok()?);
        }
        Some((kappa, parts))
    }

    fn decode_own(label: &BitString) -> Option<(usize, BitString)> {
        let mut r = BitReader::new(label);
        let kappa = r.read_u64(LEN_BITS).ok()? as usize;
        let len = r.read_u64(LEN_BITS).ok()? as usize;
        if len > kappa {
            return None;
        }
        Some((kappa, r.read_bits(len).ok()?))
    }

    fn encode_replicated(kappa: usize, parts: &[&BitString]) -> BitString {
        let mut w = BitWriter::new();
        w.write_u64(kappa as u64, LEN_BITS);
        for part in parts {
            w.write_u64(part.len() as u64, LEN_BITS);
            w.write_bits(part);
        }
        w.finish()
    }

    fn length_prefixed(label: &BitString) -> BitString {
        let mut w = BitWriter::new();
        w.write_u64(label.len() as u64, LEN_BITS);
        w.write_bits(label);
        w.finish()
    }

    fn slice_of(lp: &BitString, r: usize, chunk: usize) -> BitString {
        let start = r * chunk;
        let end = lp.len().min(start + chunk);
        BitString::from_bools((start..end).map(|i| lp.bit(i).expect("in range")))
    }

    /// A from-first-principles scalar execution of the chunked-fingerprint
    /// schedule: real `EqProtocol` messages, real per-round `PortRng`
    /// streams, no plan, no batching. Returns `(accepted, decided_round)`.
    fn reference_multiround(
        scheme: &CompiledRpls<SpanningTreePls>,
        config: &Configuration,
        labeling: &Labeling,
        seed: u64,
        rounds: usize,
        mode: StreamMode,
    ) -> (bool, usize) {
        let g = config.graph();
        let mut decided: Option<usize> = None;
        let note = |round: usize, decided: &mut Option<usize>| {
            *decided = Some(decided.map_or(round, |k| k.min(round)));
        };
        for u in g.nodes() {
            let node_fail: Option<usize> = (|| {
                let Some((kappa_u, parts)) = decode_replicated(labeling.get(u)) else {
                    return Some(1);
                };
                if parts.len() != g.degree(u) + 1 {
                    return Some(1);
                }
                let chunk_u = (LEN_BITS as usize + kappa_u).div_ceil(rounds);
                let proto_u = EqProtocol::for_length(chunk_u);
                let mut first_fail: Option<usize> = None;
                for (i, nb) in g.neighbors(u).enumerate() {
                    let v = nb.node;
                    let sender = decode_own(labeling.get(v)).map(|(kappa_v, own)| {
                        let chunk_v = (LEN_BITS as usize + kappa_v).div_ceil(rounds);
                        (
                            chunk_v,
                            EqProtocol::for_length(chunk_v),
                            length_prefixed(&own),
                        )
                    });
                    let lp_u = length_prefixed(&parts[i + 1]);
                    let covered_u = lp_u.len().div_ceil(chunk_u);
                    let port_fail: Option<usize> = (|| {
                        let Some((chunk_v, proto_v, lp_v)) = sender else {
                            // Empty certificates where round 1 expects a
                            // slice message.
                            return Some(1);
                        };
                        let covered_v = lp_v.len().div_ceil(chunk_v);
                        for r in 0..covered_v.max(covered_u) {
                            let sends = r < covered_v;
                            let expects = r < covered_u;
                            if sends != expects {
                                return Some(r + 1);
                            }
                            if !sends {
                                continue;
                            }
                            let rseed = engine::multiround_seed(seed, r);
                            let msg = {
                                let slice = slice_of(&lp_v, r, chunk_v);
                                match mode {
                                    StreamMode::EdgeIndependent => {
                                        let mut rng = PortRng::for_edge(
                                            rseed,
                                            v.index() as u64,
                                            nb.remote_port.rank() as u64,
                                        );
                                        proto_v.alice_message(&slice, &mut rng)
                                    }
                                    StreamMode::SharedPerNode => {
                                        // The node's single per-round
                                        // stream, consumed one word per
                                        // port in port order.
                                        use rand::Rng;
                                        let mut rng = PortRng::for_node(rseed, v.index() as u64);
                                        for _ in 0..nb.remote_port.rank() {
                                            let _ = rng.next_u64();
                                        }
                                        proto_v.alice_message(&slice, &mut rng)
                                    }
                                }
                            };
                            let packed = msg.to_bits(proto_v.modulus());
                            if packed.len() != proto_u.message_bits() {
                                return Some(r + 1);
                            }
                            let Ok(reparsed) = EqMessage::from_bits(&packed, proto_u.modulus())
                            else {
                                return Some(r + 1);
                            };
                            if !proto_u.bob_accepts(&slice_of(&lp_u, r, chunk_u), &reparsed) {
                                return Some(r + 1);
                            }
                        }
                        None
                    })();
                    if let Some(k) = port_fail {
                        first_fail = Some(first_fail.map_or(k, |f: usize| f.min(k)));
                    }
                }
                if first_fail.is_none() {
                    // All fingerprint rounds passed: the inner verifier
                    // votes after the last round.
                    let det = rpls::core::DetView {
                        local: engine::local_context(config, u),
                        label: parts[0].as_slice(),
                        neighbor_labels: parts[1..].iter().map(BitString::as_slice).collect(),
                    };
                    if !scheme.inner().verify(&det) {
                        first_fail = Some(rounds);
                    }
                }
                first_fail
            })();
            if let Some(k) = node_fail {
                note(k, &mut decided);
            }
        }
        match decided {
            Some(k) => (false, k),
            None => (true, rounds),
        }
    }

    /// The compiled chunked-fingerprint schedule agrees trial-for-trial
    /// (verdict **and** decided round) with the independent scalar
    /// reference, for honest, tampered, truncated-replica, κ-mismatched
    /// and garbage labelings, several `t`s, both stream modes — one trial
    /// at a time, and as one 17-seed block (with trials already rejected
    /// by earlier nodes skipped) with and without `force_dynamic`.
    #[test]
    fn compiled_schedule_matches_independent_reference() {
        let (scheme, config, honest) = compiled_spanning_tree_workload(8);
        let dynamic = CompiledRpls::new(SpanningTreePls::new()).force_dynamic();

        let mut tampered = honest.clone();
        let flipped: BitString = tampered
            .get(NodeId::new(2))
            .iter()
            .enumerate()
            .map(|(i, b)| if i == 50 { !b } else { b })
            .collect();
        tampered.set(NodeId::new(2), flipped);

        // A claimed copy 8 bits shorter than the sender's actual label:
        // lp lengths differ, so slice schedules disagree in content (and,
        // at some t, in coverage).
        let mut truncated = honest.clone();
        let (kappa, mut parts) = decode_replicated(truncated.get(NodeId::new(3))).unwrap();
        let shorter = parts[1].truncated(parts[1].len() - 8);
        parts[1] = shorter;
        let refs: Vec<&BitString> = parts.iter().collect();
        truncated.set(NodeId::new(3), encode_replicated(kappa, &refs));

        // A node declaring a different κ: its slice protocol (and usually
        // its message width) disagrees with its neighbors'.
        let mut mismatched = honest.clone();
        let (kappa, parts) = decode_replicated(mismatched.get(NodeId::new(4))).unwrap();
        let refs: Vec<&BitString> = parts.iter().collect();
        mismatched.set(NodeId::new(4), encode_replicated(kappa * 4, &refs));

        let garbage = Labeling::new((0..8).map(|i| BitString::zeros(i % 4)).collect());

        let mut scratch = RoundScratch::new();
        for labeling in [&honest, &tampered, &truncated, &mismatched, &garbage] {
            let prepared = scheme.prepare(&config, labeling, 16);
            for rounds in [1usize, 2, 3, 5] {
                for mode in [StreamMode::EdgeIndependent, StreamMode::SharedPerNode] {
                    for seed in 0..16u64 {
                        let got = engine::run_prepared(
                            &RunSpec::trial(seed)
                                .with_rounds(rounds)
                                .with_stream_mode(mode),
                            &*prepared,
                            &config,
                            &mut scratch,
                        );
                        let (accepted, decided) =
                            reference_multiround(&scheme, &config, labeling, seed, rounds, mode);
                        assert_eq!(
                            (got.accepted, got.decided_round),
                            (accepted, decided),
                            "seed {seed}, t {rounds}, {mode:?}"
                        );
                    }
                }
            }
            let block_seeds: Vec<u64> = (0..17).collect();
            for (variant, compiled) in [("new", &scheme), ("force_dynamic", &dynamic)] {
                let prepared = compiled.prepare(&config, labeling, block_seeds.len());
                for rounds in [1usize, 2, 3, 5] {
                    for mode in [StreamMode::EdgeIndependent, StreamMode::SharedPerNode] {
                        let mut block = Vec::new();
                        engine::run_trials(
                            &RunSpec::trial(0).with_rounds(rounds).with_stream_mode(mode),
                            &*prepared,
                            &config,
                            &block_seeds,
                            &mut scratch,
                            &mut |r| block.push(r),
                        );
                        assert_eq!(block.len(), block_seeds.len());
                        for (got, &seed) in block.iter().zip(&block_seeds) {
                            let (accepted, decided) = reference_multiround(
                                &scheme, &config, labeling, seed, rounds, mode,
                            );
                            assert_eq!(
                                (got.accepted, got.decided_round),
                                (accepted, decided),
                                "block seed {seed}, t {rounds}, {mode:?}, {variant}"
                            );
                        }
                    }
                }
            }
        }
    }
}

/// The deterministic engine still agrees with the randomized compilation on
/// honest inputs (Theorem 3.1 completeness), end to end through the facade.
#[test]
fn compiled_scheme_accepts_honest_labeling_across_seeds() {
    let (scheme, config, labeling) = compiled_spanning_tree_workload(20);
    let inner = SpanningTreePls::new();
    let det = engine::run_deterministic(&inner, &config, &Pls::label(&inner, &config));
    assert!(det.accepted());
    for seed in 0..40u64 {
        assert!(
            engine::run_randomized(&scheme, &config, &labeling, seed)
                .outcome
                .accepted(),
            "seed {seed}"
        );
    }
}
