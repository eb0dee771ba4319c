//! The chaos property suite: under any chaos seed the whole stack —
//! retrying client → seeded byte-fault proxy → deadline'd TCP front →
//! supervised service — never panics and never hangs, every verdict that
//! does get delivered is bit-identical to a direct engine run, and
//! replaying the same seed reproduces the identical outcome, retry, and
//! shed accounting.

mod common;

use common::stops_within_a_second;
use proptest::prelude::*;
use rpls_bits::BitString;
use rpls_core::engine::{MessagePattern, SeedSource};
use rpls_core::stats::{self, EstimateOpts};
use rpls_service::chaos::{ChaosPlan, ChaosProxy};
use rpls_service::client::{self, ClientError, RetryPolicy};
use rpls_service::registry::{self, request_skeleton};
use rpls_service::service::{Service, ServiceStats};
use rpls_service::tcp::{FrontConfig, TcpFront};
use rpls_service::wire::{JobRequest, WireFaults};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;

/// The job mix a chaos run pushes through the proxy: three small but
/// distinct jobs (different schemes, patterns, seed sources, one with
/// engine-level faults on top of the network-level chaos) plus one
/// deliberate worker-killer.
fn chaos_batch() -> Vec<JobRequest> {
    let mut a = request_skeleton(
        "spanning-tree",
        5,
        &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)],
    );
    a.trials = 30;
    a.seed_source = SeedSource::Trial(11);
    a.tenant = "a".into();

    let mut b = request_skeleton("uniformity", 4, &[(0, 1), (1, 2), (2, 3)]);
    b.payload = BitString::from_bools((0..32).map(|i| i % 5 == 0));
    b.trials = 20;
    b.pattern = MessagePattern::Broadcast;
    b.seed_source = SeedSource::Beacon {
        round_id: 7,
        value: 0xABCD,
    };
    b.tenant = "b".into();

    let mut c = request_skeleton("leader", 4, &[(0, 1), (0, 2), (0, 3)]);
    c.trials = 25;
    c.seed_source = SeedSource::Trial(5);
    c.faults = Some(WireFaults {
        drop_rate: 0.15,
        corrupt_rate: 0.05,
        duplicate_rate: 0.0,
        crash_rate: 0.0,
        retry_budget: 1,
        fault_seed: 21,
    });
    c.tenant = "c".into();

    let mut kill = request_skeleton(registry::CRASH_TEST_SCHEME, 3, &[(0, 1), (1, 2)]);
    kill.trials = 2;
    kill.tenant = "k".into();

    vec![a, b, kill, c]
}

/// What one job's journey through the chaos reduced to — everything a
/// replay must reproduce exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Outcome {
    /// Delivered verdict (engine fields only; cache counters depend on
    /// retry-induced recomputation, which IS replayed, but they are
    /// compared via the whole-summary equality anyway).
    Delivered {
        trials: u64,
        accepts: u64,
        degraded: u64,
        attempts: u32,
        transport_retries: u32,
        shed_retries: u32,
    },
    Terminal(String),
    Exhausted {
        attempts: u32,
    },
}

/// One full chaos run: fresh service, front, and proxy; the batch pushed
/// through sequentially with deterministic retries.
fn chaos_run(seed: u64) -> (Vec<Outcome>, ServiceStats) {
    let service = Arc::new(Service::spawn());
    let front = TcpFront::spawn_with(
        Arc::clone(&service),
        FrontConfig {
            frame_timeout: Duration::from_millis(300),
            idle_timeout: Some(Duration::from_secs(2)),
        },
    )
    .expect("bind front");
    let plan = ChaosPlan {
        seed,
        drop_rate: 0.0004,
        corrupt_rate: 0.002,
        truncate_rate: 0.001,
        split_rate: 0.02,
        delay_rate: 0.01,
        delay: Duration::from_millis(1),
    };
    let proxy = ChaosProxy::spawn(front.addr(), plan).expect("bind proxy");
    let policy = RetryPolicy {
        max_attempts: 4,
        base_backoff: Duration::from_millis(5),
        max_backoff: Duration::from_millis(40),
        io_timeout: Duration::from_millis(500),
        jitter_seed: seed,
    };
    let outcomes = chaos_batch()
        .iter()
        .map(
            |req| match client::submit_with_retry(proxy.addr(), req, &policy) {
                Ok(outcome) => Outcome::Delivered {
                    trials: outcome.response.trials,
                    accepts: outcome.response.accepts,
                    degraded: outcome.response.degraded_trials,
                    attempts: outcome.attempts,
                    transport_retries: outcome.transport_retries,
                    shed_retries: outcome.shed_retries,
                },
                Err(ClientError::Terminal(reason)) => Outcome::Terminal(reason.to_string()),
                Err(ClientError::Exhausted { attempts, .. }) => Outcome::Exhausted { attempts },
            },
        )
        .collect();
    let chaos_stats = proxy.stats();
    proxy.stop();
    front.stop();
    let stats = service.stats();
    // The chaos must actually be doing something at these rates over this
    // much traffic, or the test is vacuous.
    assert!(
        chaos_stats.bytes_seen > 500,
        "batch traffic too small: {chaos_stats:?}"
    );
    drop(service);
    (outcomes, stats)
}

/// Every delivered verdict must be bit-identical to the direct engine run
/// of the same request.
fn assert_delivered_verdicts_exact(outcomes: &[Outcome]) {
    for (req, outcome) in chaos_batch().iter().zip(outcomes) {
        let Outcome::Delivered {
            trials,
            accepts,
            degraded,
            ..
        } = outcome
        else {
            continue;
        };
        let job = registry::build(req).expect("batch jobs resolve");
        let direct = stats::estimate(
            &*job.scheme,
            &job.config,
            &job.labeling,
            &req.run_spec(),
            &EstimateOpts::new(req.trials as usize),
        );
        assert_eq!(*trials, direct.trials as u64, "trials for {}", req.scheme);
        assert_eq!(
            *accepts, direct.accepts as u64,
            "accepts for {}",
            req.scheme
        );
        assert_eq!(
            *degraded, direct.degraded_trials as u64,
            "degraded for {}",
            req.scheme
        );
    }
}

/// The crash-test job can only end as retries-exhausted worker faults (or
/// a transport-exhausted attempt mix) — never a delivered verdict.
fn assert_crash_job_never_delivers(outcomes: &[Outcome]) {
    assert!(
        !matches!(outcomes[2], Outcome::Delivered { .. }),
        "the crash-test job cannot produce a verdict: {:?}",
        outcomes[2]
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The headline property, over random chaos seeds.
    #[test]
    fn chaos_is_harmless_deterministic_and_exact(seed in any::<u64>()) {
        let (outcomes, stats) = chaos_run(seed);
        assert_delivered_verdicts_exact(&outcomes);
        assert_crash_job_never_delivers(&outcomes);
        // Worker faults happened (the crash job guarantees at least one
        // attempt reached the worker — unless chaos ate every attempt's
        // request, in which case faults may be 0) and each cost one
        // restart.
        prop_assert_eq!(stats.worker_faults, stats.worker_restarts);
        // Replay: the same seed reproduces everything — outcomes,
        // attempts, retry split, and the service's shed/fault ledger.
        let (replay_outcomes, replay_stats) = chaos_run(seed);
        prop_assert_eq!(outcomes, replay_outcomes);
        prop_assert_eq!(stats, replay_stats);
    }
}

/// A pinned-seed smoke so plain `cargo test` (and the CI hardening job)
/// always exercises one full chaos replay deterministically.
#[test]
fn chaos_pinned_seed_replays_exactly() {
    let (outcomes, stats) = chaos_run(0xC0FFEE);
    assert_delivered_verdicts_exact(&outcomes);
    assert_crash_job_never_delivers(&outcomes);
    let (replay_outcomes, replay_stats) = chaos_run(0xC0FFEE);
    assert_eq!(outcomes, replay_outcomes);
    assert_eq!(stats, replay_stats);
}

/// A transparent proxy (all rates zero) delivers every verdict first try:
/// the harness itself adds no noise.
#[test]
fn transparent_proxy_is_invisible() {
    let service = Arc::new(Service::spawn());
    let front = TcpFront::spawn(Arc::clone(&service)).expect("bind front");
    let plan = ChaosPlan::seeded(123);
    assert!(plan.is_transparent());
    let proxy = ChaosProxy::spawn(front.addr(), plan).expect("bind proxy");
    let policy = RetryPolicy::default();
    for req in chaos_batch() {
        match client::submit_with_retry(proxy.addr(), &req, &policy) {
            Ok(outcome) => {
                assert_eq!(outcome.attempts, 1, "no retries without chaos");
                assert_eq!(outcome.transport_retries, 0);
            }
            Err(ClientError::Exhausted { .. }) if req.scheme == registry::CRASH_TEST_SCHEME => {}
            Err(e) => panic!("clean network must deliver {}: {e}", req.scheme),
        }
    }
    let stats = proxy.stats();
    assert_eq!(stats.bytes_corrupted, 0);
    assert_eq!(stats.bytes_dropped, 0);
    assert_eq!(stats.truncations, 0);
    proxy.stop();
    front.stop();
    drop(service);
}

/// Both ways of stopping a proxy that never saw a connection return
/// promptly.
#[test]
fn proxy_stop_and_drop_return_promptly() {
    let upstream = TcpListener::bind("127.0.0.1:0").expect("bind upstream");
    let addr = upstream.local_addr().expect("upstream addr");
    let proxy = ChaosProxy::spawn(addr, ChaosPlan::seeded(1)).expect("bind proxy");
    stops_within_a_second(move || proxy.stop());
    let proxy = ChaosProxy::spawn(addr, ChaosPlan::seeded(1)).expect("bind proxy");
    stops_within_a_second(move || drop(proxy));
}

/// The stop wake-up is not a connection: `stats().connections` counts
/// only real clients, and stopping dials nothing upstream (every counted
/// connection is dialled, so an undialled wake-up was never counted).
#[test]
fn proxy_stop_wakeup_is_never_counted_or_dialled() {
    let upstream = TcpListener::bind("127.0.0.1:0").expect("bind upstream");
    let proxy = ChaosProxy::spawn(
        upstream.local_addr().expect("upstream addr"),
        ChaosPlan::seeded(2),
    )
    .expect("bind proxy");
    let clients: Vec<TcpStream> = (0..2)
        .map(|_| TcpStream::connect(proxy.addr()).expect("connect"))
        .collect();
    let dialled: Vec<TcpStream> = (0..2)
        .map(|_| upstream.accept().expect("proxy dials upstream").0)
        .collect();
    assert_eq!(proxy.stats().connections, 2);
    stops_within_a_second(move || proxy.stop());
    upstream
        .set_nonblocking(true)
        .expect("nonblocking upstream");
    match upstream.accept() {
        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
        Ok(_) => panic!("the stop wake-up was dialled upstream"),
        Err(e) => panic!("upstream accept failed: {e}"),
    }
    drop((clients, dialled));
}

/// Deterministic jittered backoff: same policy, same pauses; jitter stays
/// inside [50%, 100%] of the exponential envelope.
#[test]
fn backoff_is_deterministic_and_bounded() {
    let policy = RetryPolicy {
        max_attempts: 8,
        base_backoff: Duration::from_millis(10),
        max_backoff: Duration::from_millis(200),
        io_timeout: Duration::from_secs(1),
        jitter_seed: 42,
    };
    let twin = policy.clone();
    for attempt in 0..8 {
        let pause = policy.backoff(attempt);
        assert_eq!(pause, twin.backoff(attempt), "same seed, same pause");
        let envelope = Duration::from_millis(10)
            .saturating_mul(1 << attempt)
            .min(Duration::from_millis(200));
        assert!(
            pause <= envelope,
            "attempt {attempt}: {pause:?} > {envelope:?}"
        );
        assert!(
            pause >= envelope / 2,
            "attempt {attempt}: {pause:?} < half of {envelope:?}"
        );
    }
    // A different jitter seed decorrelates the pauses.
    let other = RetryPolicy {
        jitter_seed: 43,
        ..policy
    };
    assert!((0..8).any(|a| other.backoff(a) != twin.backoff(a)));
}
