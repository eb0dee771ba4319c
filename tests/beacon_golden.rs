//! Golden tests for the public-coin (beacon) mode: a fixed
//! `(round_id, value)` pulse reproduces a published transcript
//! bit-for-bit, across schemes and message patterns, and a third party
//! holding only the pulse re-derives it independently.
//!
//! The beacon mode is a pure seed-derivation change
//! ([`rng::beacon_seed`](rpls_core::rng::beacon_seed) feeding the ordinary
//! counter streams), so these digests pin both halves at once: the
//! derivation (domain-separated keyed hashing of the pulse) and the
//! engine's randomness layout underneath it.

use rpls::core::engine::{self, MessagePattern, RunSpec};
use rpls::core::rng::beacon_seed;
use rpls::core::{Configuration, Labeling, RoundScratch, Rpls};
use rpls::graph::{generators, NodeId};
use rpls::schemes::leader::{leader_config, LeaderPls};
use rpls::schemes::spanning_tree::{spanning_tree_config, SpanningTreePls};
use rpls::schemes::uniformity::{uniform_config, UniformityPls};
use rpls_core::CompiledRpls;
use std::num::NonZeroUsize;

/// The reference beacon pulse all pinned digests below are derived from.
const ROUND_ID: u64 = 271_828;
const VALUE: u64 = 0x3141_5926_5358_9793;

/// FNV-1a over a verification transcript: the report fields, the votes,
/// then every certificate's length and bytes in global port order — what a
/// tenant would publish for audit.
fn transcript_digest(
    report: &engine::RunReport,
    scratch: &RoundScratch,
    config: &Configuration,
) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |b: u8| {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    };
    for word in [
        u64::from(report.accepted),
        report.rounds as u64,
        report.decided_round as u64,
        report.max_bits_per_round as u64,
        report.total_bits as u64,
    ] {
        for b in word.to_le_bytes() {
            eat(b);
        }
    }
    for &v in scratch.votes() {
        eat(u8::from(v));
    }
    for certs in scratch.certificates().to_nested(config.port_base()) {
        for c in certs {
            for b in (c.len() as u32).to_le_bytes() {
                eat(b);
            }
            for &b in c.as_bytes() {
                eat(b);
            }
        }
    }
    h
}

/// The three compiled workloads the digests cover.
fn workloads() -> Vec<(&'static str, Box<dyn Rpls>, Configuration)> {
    let st_config =
        spanning_tree_config(&Configuration::plain(generators::cycle(8)), NodeId::new(0));
    let leader_cfg = leader_config(&Configuration::plain(generators::wheel(7)), NodeId::new(3));
    let unif_cfg = uniform_config(
        &Configuration::plain(generators::path(6)),
        &rpls::bits::BitString::from_bools((0..40).map(|i| i % 5 == 0)),
    );
    vec![
        (
            "spanning-tree",
            Box::new(CompiledRpls::new(SpanningTreePls::new())),
            st_config,
        ),
        (
            "leader",
            Box::new(CompiledRpls::new(LeaderPls::new())),
            leader_cfg,
        ),
        (
            "uniformity",
            Box::new(CompiledRpls::new(UniformityPls::new())),
            unif_cfg,
        ),
    ]
}

const PATTERNS: [MessagePattern; 4] = [
    MessagePattern::PerPort,
    MessagePattern::Broadcast,
    MessagePattern::Unicast,
    MessagePattern::KMessages(NonZeroUsize::new(2).unwrap()),
];

/// Runs one beacon-seeded verification and returns its transcript digest.
fn beacon_digest(
    scheme: &dyn Rpls,
    config: &Configuration,
    labeling: &Labeling,
    pattern: MessagePattern,
) -> u64 {
    let spec = RunSpec::beacon(ROUND_ID, VALUE).with_pattern(pattern);
    let prepared = scheme.prepare(config, labeling, 1);
    let mut scratch = RoundScratch::new();
    let report = engine::run_prepared(&spec, &*prepared, config, &mut scratch);
    assert!(report.accepted, "honest beacon run must accept");
    transcript_digest(&report, &scratch, config)
}

/// The beacon spec is exactly the trial spec of the derived seed — across
/// every scheme and pattern, report and certificates alike.
#[test]
fn beacon_equals_trial_of_derived_seed_across_schemes_and_patterns() {
    let derived = beacon_seed(ROUND_ID, VALUE);
    for (name, scheme, config) in workloads() {
        let labeling = scheme.label(&config);
        let prepared = scheme.prepare(&config, &labeling, 1);
        for pattern in PATTERNS {
            let mut scratch = RoundScratch::new();
            let beacon = engine::run_prepared(
                &RunSpec::beacon(ROUND_ID, VALUE).with_pattern(pattern),
                &*prepared,
                &config,
                &mut scratch,
            );
            let beacon_certs = scratch.certificates().to_nested(config.port_base());
            let beacon_votes = scratch.votes().to_vec();
            let trial = engine::run_prepared(
                &RunSpec::trial(derived).with_pattern(pattern),
                &*prepared,
                &config,
                &mut scratch,
            );
            assert_eq!(beacon, trial, "{name} under {pattern:?}");
            assert_eq!(
                scratch.certificates().to_nested(config.port_base()),
                beacon_certs,
                "{name} under {pattern:?}"
            );
            assert_eq!(scratch.votes(), beacon_votes, "{name} under {pattern:?}");
        }
    }
}

/// The pinned transcripts: fixed pulse, fixed workloads, fixed digests.
/// These must only ever change with a deliberate, documented revision of
/// the engine's random streams or certificate layout — a silent change
/// here would break every published beacon transcript in the field.
#[test]
fn beacon_transcript_digests_are_pinned() {
    // Note the degree-capped coincidences: on the cycle and path workloads
    // every node has degree ≤ 2, so `KMessages(NonZeroUsize::new(2).unwrap())` assigns the same slots
    // as `PerPort` and their transcripts agree; the wheel workload
    // (degrees up to 6) separates them.
    let expected: [(&str, [u64; 4]); 3] = [
        (
            "spanning-tree",
            [
                0x5941_AE7A_AAE7_AC71,
                0xE5BB_1C23_4832_31AE,
                0x833D_3336_E687_94DD,
                0x5941_AE7A_AAE7_AC71,
            ],
        ),
        (
            "leader",
            [
                0x172C_4335_0CED_BFB5,
                0x4DAA_1CB2_47C6_D386,
                0x38CE_E9FF_8874_C97F,
                0x0774_EB7B_3D7F_A2F4,
            ],
        ),
        (
            "uniformity",
            [
                0xDC21_BEC1_5A82_20C8,
                0x2D12_7733_66D6_13EA,
                0xF093_D954_63A1_8910,
                0xDC21_BEC1_5A82_20C8,
            ],
        ),
    ];
    for ((name, scheme, config), (want_name, wants)) in workloads().into_iter().zip(expected) {
        assert_eq!(name, want_name);
        let labeling = scheme.label(&config);
        for (pattern, want) in PATTERNS.into_iter().zip(wants) {
            let got = beacon_digest(&*scheme, &config, &labeling, pattern);
            assert_eq!(
                got, want,
                "beacon transcript digest changed: {name} under {pattern:?} (got {got:#018X})"
            );
        }
    }
}

/// The audit story end to end: a tenant publishes only
/// `(round_id, value, digest)`; a third party — fresh process state, no
/// shared objects — rebuilds the public workload, re-derives every
/// certificate from the pulse, and reproduces the digest bit-for-bit.
/// A different pulse (or a forged labeling) does not.
#[test]
fn third_party_reverifies_from_pulse_and_transcript_only() {
    // Publisher side.
    let published: Vec<(&str, u64)> = workloads()
        .into_iter()
        .map(|(name, scheme, config)| {
            let labeling = scheme.label(&config);
            (
                name,
                beacon_digest(&*scheme, &config, &labeling, MessagePattern::PerPort),
            )
        })
        .collect();
    // Auditor side: everything rebuilt from scratch.
    for ((name, scheme, config), (pub_name, pub_digest)) in workloads().into_iter().zip(&published)
    {
        assert_eq!(&name, pub_name);
        let labeling = scheme.label(&config);
        let audit = beacon_digest(&*scheme, &config, &labeling, MessagePattern::PerPort);
        assert_eq!(audit, *pub_digest, "{name}: audit must reproduce");
        // A neighboring pulse yields a different transcript — the digest
        // really is bound to the beacon round.
        let spec = RunSpec::beacon(ROUND_ID + 1, VALUE);
        let prepared = scheme.prepare(&config, &labeling, 1);
        let mut scratch = RoundScratch::new();
        let report = engine::run_prepared(&spec, &*prepared, &config, &mut scratch);
        assert_ne!(
            transcript_digest(&report, &scratch, &config),
            *pub_digest,
            "{name}: a different pulse must not collide"
        );
    }
}

/// Beacon mode rides the t-round trade-off unchanged: multiround beacon
/// reports equal the trial reports of the derived seed.
#[test]
fn beacon_multiround_equals_derived_trial() {
    let derived = beacon_seed(ROUND_ID, VALUE);
    for (name, scheme, config) in workloads() {
        let labeling = scheme.label(&config);
        for rounds in [2usize, 4] {
            let beacon = engine::run(
                &RunSpec::beacon(ROUND_ID, VALUE).with_rounds(rounds),
                &*scheme,
                &config,
                &labeling,
            );
            let trial = engine::run(
                &RunSpec::trial(derived).with_rounds(rounds),
                &*scheme,
                &config,
                &labeling,
            );
            assert_eq!(beacon, trial, "{name} at t = {rounds}");
            assert!(beacon.accepted, "{name} at t = {rounds}");
        }
    }
}
