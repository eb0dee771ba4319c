//! Wire-format properties: encode/decode round-trips on randomized jobs,
//! and total decoding on adversarial bytes — no input may panic.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, RngExt, SeedableRng};
use rpls_bits::BitString;
use rpls_core::engine::{self, MessagePattern, SeedSource, StreamMode};
use rpls_core::prep::CacheStats;
use rpls_service::registry;
use rpls_service::wire::{
    self, JobReply, JobRequest, JobResponse, ShedReason, WireEdge, WireFaults,
};
use std::num::NonZeroUsize;

/// A randomized but well-formed request drawn from `seed`.
fn random_request(seed: u64) -> JobRequest {
    let mut rng = StdRng::seed_from_u64(seed);
    let node_count = rng.random_range(1u32..12);
    // A random subset of the complete graph's edges, no duplicates.
    let mut edges = Vec::new();
    for u in 0..node_count {
        for v in (u + 1)..node_count {
            if rng.random_bool(0.4) {
                let weight = rng.random_bool(0.3).then(|| rng.next_u64());
                edges.push(WireEdge { u, v, weight });
            }
        }
    }
    let ids = rng
        .random_bool(0.5)
        .then(|| (0..node_count).map(|_| rng.next_u64()).collect());
    let payload =
        BitString::from_bools((0..rng.random_range(0usize..64)).map(|_| rng.random_bool(0.5)));
    let labeling = rng.random_bool(0.5).then(|| {
        (0..node_count)
            .map(|_| {
                BitString::from_bools(
                    (0..rng.random_range(0usize..24)).map(|_| rng.random_bool(0.5)),
                )
            })
            .collect()
    });
    let pattern = match rng.random_range(0u32..4) {
        0 => MessagePattern::PerPort,
        1 => MessagePattern::Broadcast,
        2 => MessagePattern::Unicast,
        _ => MessagePattern::KMessages(NonZeroUsize::new(rng.random_range(1usize..5)).unwrap()),
    };
    let milli = |rng: &mut StdRng| rng.random_range(0u64..=1000) as f64 / 1000.0;
    let faults = rng.random_bool(0.5).then(|| WireFaults {
        drop_rate: milli(&mut rng),
        corrupt_rate: milli(&mut rng),
        duplicate_rate: milli(&mut rng),
        crash_rate: milli(&mut rng),
        retry_budget: rng.random_range(0u32..4),
        fault_seed: rng.next_u64(),
    });
    let seed_source = if rng.random_bool(0.5) {
        SeedSource::Trial(rng.next_u64())
    } else {
        SeedSource::Beacon {
            round_id: rng.next_u64(),
            value: rng.next_u64(),
        }
    };
    JobRequest {
        scheme: ["spanning-tree", "leader", "coloring", "uniformity", "x"]
            [rng.random_range(0usize..5)]
        .to_string(),
        node_count,
        edges,
        ids,
        param: rng.next_u64(),
        payload,
        labeling,
        trials: rng.random_range(1u32..1000),
        rounds: rng.random_range(1u32..8),
        pattern,
        stream_mode: if rng.random_bool(0.5) {
            StreamMode::EdgeIndependent
        } else {
            StreamMode::SharedPerNode
        },
        faults,
        seed_source,
        tenant: ["", "tenant-a", "tenant-b", "平仄"][rng.random_range(0usize..4)].to_string(),
        deadline_ms: rng
            .random_bool(0.5)
            .then(|| rng.random_range(1u32..=wire::MAX_DEADLINE_MS)),
    }
}

fn random_reply(seed: u64) -> JobReply {
    let mut rng = StdRng::seed_from_u64(seed);
    if rng.random_bool(0.5) {
        JobReply::Ok(JobResponse {
            trials: rng.next_u64(),
            accepts: rng.next_u64(),
            degraded_trials: rng.next_u64(),
            missing_messages: rng.next_u64(),
            dropped: rng.next_u64(),
            corrupted: rng.next_u64(),
            duplicated: rng.next_u64(),
            crashed_nodes: rng.next_u64(),
            retries: rng.next_u64(),
            cache: CacheStats {
                hits: rng.next_u64(),
                misses: rng.next_u64(),
                epochs: rng.next_u64(),
                retained_bytes: rng.next_u64(),
                shared_fingerprints: rng.random_range(0usize..1 << 20),
                shared_labels: rng.random_range(0usize..1 << 20),
                table_slots_reserved: rng.next_u64(),
            },
        })
    } else {
        JobReply::Shed(match rng.random_range(0u32..6) {
            0 => ShedReason::QueueFull,
            1 => ShedReason::UnknownScheme("who".into()),
            2 => ShedReason::BadJob("because".into()),
            3 => ShedReason::DeadlineExceeded,
            4 => ShedReason::WorkerFault,
            _ => ShedReason::Malformed("bytes".into()),
        })
    }
}

proptest! {
    /// Well-formed requests survive an encode/decode round trip exactly.
    #[test]
    fn request_round_trips(seed in any::<u64>()) {
        let req = random_request(seed);
        let decoded = JobRequest::decode(&req.encode());
        prop_assert_eq!(decoded, Ok(req));
    }

    /// Replies round-trip exactly, both Ok and every shed reason.
    #[test]
    fn reply_round_trips(seed in any::<u64>()) {
        let reply = random_reply(seed);
        let decoded = JobReply::decode(&reply.encode());
        prop_assert_eq!(decoded, Ok(reply));
    }

    /// Arbitrary bytes never panic either decoder — a hostile client can
    /// at worst earn a WireError.
    #[test]
    fn adversarial_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = JobRequest::decode(&bytes);
        let _ = JobReply::decode(&bytes);
    }

    /// Mutating any single byte of a valid encoding (or truncating it
    /// anywhere) decodes totally: Ok or a WireError, never a panic.
    #[test]
    fn corrupted_encodings_never_panic(seed in any::<u64>(), at in any::<usize>(), flip in any::<u8>()) {
        let encoded = random_request(seed).encode();
        let mut mutated = encoded.clone();
        let at = at % mutated.len();
        mutated[at] ^= flip | 1;
        let _ = JobRequest::decode(&mutated);
        let _ = JobRequest::decode(&encoded[..at]);
    }

    /// Version-1 frames (no tenant, no deadline) still decode, yielding
    /// the defaults. Built by stripping the v2 tail — an empty tenant
    /// (4-byte zero length) plus the no-deadline tag byte — and patching
    /// the version byte.
    #[test]
    fn v1_request_frames_still_decode(seed in any::<u64>()) {
        let mut req = random_request(seed);
        req.tenant = String::new();
        req.deadline_ms = None;
        let mut v1 = req.encode();
        v1.truncate(v1.len() - 5);
        v1[4] = 1;
        prop_assert_eq!(JobRequest::decode(&v1), Ok(req));
    }
}

/// A hostile length prefix — up to the full 4 GiB range — earns an error
/// before any allocation, in both frame flavors.
#[test]
fn oversized_length_prefix_is_rejected_before_allocation() {
    for word in [
        u32::MAX,
        wire::MAX_FRAME_LEN + 1,
        wire::FRAME_CHECKED_FLAG | (wire::MAX_FRAME_LEN + 1),
        0x7FFF_FFFF,
    ] {
        let err = wire::frame_header(word).expect_err("hostile length must be rejected");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        // The streaming reader rejects it too, without waiting for the
        // (absent) payload bytes.
        let mut bytes: &[u8] = &word.to_le_bytes();
        let err = wire::read_frame(&mut bytes).expect_err("reader must reject");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }
    // The cap itself is fine (header-wise).
    assert_eq!(
        wire::frame_header(wire::MAX_FRAME_LEN).unwrap(),
        (wire::MAX_FRAME_LEN as usize, false)
    );
}

#[test]
fn checked_frames_round_trip_and_detect_corruption() {
    let payload = random_request(7).encode();
    let mut frame = Vec::new();
    wire::write_frame_checked(&mut frame, &payload).expect("write");
    let (read, checked) = wire::read_frame_tagged(&mut frame.as_slice()).expect("read");
    assert!(checked);
    assert_eq!(read, payload);

    // Any single-byte corruption — header flag aside — is caught: flipping
    // a checksum byte or a payload byte yields a clean InvalidData error,
    // never a silently different payload.
    for at in [4, 11, frame.len() - 1] {
        let mut bad = frame.clone();
        bad[at] ^= 0x40;
        let err = wire::read_frame(&mut bad.as_slice()).expect_err("corruption detected");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    // Plain frames still read (and are tagged unchecked).
    let mut plain = Vec::new();
    wire::write_frame(&mut plain, &payload).expect("write");
    let (read, checked) = wire::read_frame_tagged(&mut plain.as_slice()).expect("read");
    assert!(!checked);
    assert_eq!(read, payload);
}

#[test]
fn deadline_field_is_validated() {
    let mut req = random_request(3);
    req.deadline_ms = Some(wire::MAX_DEADLINE_MS);
    assert_eq!(JobRequest::decode(&req.encode()), Ok(req.clone()));
    // Zero and beyond-cap deadlines are rejected at decode time.
    for bad in [0u32, wire::MAX_DEADLINE_MS + 1] {
        req.deadline_ms = Some(bad);
        assert!(JobRequest::decode(&req.encode()).is_err());
    }
}

#[test]
fn retry_budget_is_capped() {
    let mut req = random_request(5);
    let faults = WireFaults {
        drop_rate: 1.0,
        corrupt_rate: 0.0,
        duplicate_rate: 0.0,
        crash_rate: 0.0,
        retry_budget: 64,
        fault_seed: 9,
    };
    req.rounds = 4;
    req.faults = Some(faults);
    assert_eq!(JobRequest::decode(&req.encode()), Ok(req.clone()));
    // One past the cap is rejected at decode time, before any retry runs.
    for bad in [65u32, u32::MAX] {
        req.faults = Some(WireFaults {
            retry_budget: bad,
            ..faults
        });
        assert_eq!(
            JobRequest::decode(&req.encode()),
            Err(wire::WireError::Invalid("retry budget"))
        );
    }
}

/// A `k` too wide for the wire's 32-bit field still crosses it as the same
/// job: every `k` at or above a node's degree is, so the encoder saturates
/// instead of truncating `k` to its low 32 bits.
#[test]
fn wide_k_messages_cross_the_wire_as_the_same_job() {
    // A star: the hub has degree 5, so a truncated k = 3 or 0 would differ.
    let star = [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5)];
    let mut req = registry::request_skeleton("spanning-tree", 6, &star);
    let job = registry::build(&req).expect("a runnable job");
    let run = |r: &JobRequest| engine::run(&r.run_spec(), &*job.scheme, &job.config, &job.labeling);
    for k in [(1usize << 32) + 3, 1 << 32, usize::MAX] {
        req.pattern = MessagePattern::KMessages(NonZeroUsize::new(k).unwrap());
        let decoded = JobRequest::decode(&req.encode()).expect("a wide k decodes");
        assert_eq!(run(&decoded), run(&req), "k = {k}");
    }
}
