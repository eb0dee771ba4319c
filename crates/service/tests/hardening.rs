//! Robustness pins for the hardened service front: worker supervision,
//! deadlines, fair shedding, quotas, and slow/hostile TCP clients.

mod common;

use common::stops_within_a_second;
use rpls_service::registry::{self, request_skeleton};
use rpls_service::service::{Service, ServiceConfig};
use rpls_service::tcp::{FrontConfig, TcpFront};
use rpls_service::wire::{self, JobReply, JobRequest, ShedReason};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn small_job(tenant: &str) -> JobRequest {
    let mut req = request_skeleton("spanning-tree", 4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
    req.trials = 10;
    req.tenant = tenant.to_string();
    req
}

/// A job heavy enough to occupy the worker for a while — long relative to
/// any plausible scheduler stall of the test thread, so queue-state
/// assertions made while it computes are effectively race-free.
fn slow_job(tenant: &str) -> JobRequest {
    let mut req = request_skeleton(
        "spanning-tree",
        32,
        &(0..32).map(|i| (i, (i + 1) % 32)).collect::<Vec<_>>(),
    );
    req.trials = 1_000_000;
    req.tenant = tenant.to_string();
    req
}

fn crash_job() -> JobRequest {
    let mut req = request_skeleton(registry::CRASH_TEST_SCHEME, 3, &[(0, 1), (1, 2)]);
    req.trials = 2;
    req
}

/// Waits until the worker has dequeued everything submitted so far, i.e.
/// the latest submission is executing (or done) rather than queued.
fn wait_for_pickup(service: &Service) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while service.queued_count() > 0 {
        assert!(Instant::now() < deadline, "worker never picked the job up");
        std::thread::sleep(Duration::from_millis(1));
    }
}

// ---------------------------------------------------------------- service

/// A worker panic mid-batch costs exactly one `WorkerFault` reply; every
/// other job in the batch completes normally and the restart is counted.
#[test]
fn worker_panic_costs_exactly_one_job() {
    let service = Service::spawn();
    let direct_ok = small_job("a");
    match service.submit(direct_ok.clone()) {
        JobReply::Ok(resp) => assert_eq!(resp.accepts, resp.trials),
        other => panic!("warmup failed: {other:?}"),
    }
    assert_eq!(
        service.submit(crash_job()),
        JobReply::Shed(ShedReason::WorkerFault)
    );
    // The service keeps serving, on a fresh worker.
    match service.submit(direct_ok) {
        JobReply::Ok(resp) => assert_eq!(resp.accepts, resp.trials),
        other => panic!("service must survive the panic: {other:?}"),
    }
    let stats = service.stats();
    assert_eq!(stats.worker_faults, 1);
    assert_eq!(stats.worker_restarts, 1);
    assert_eq!(stats.completed, 3);
    service.shutdown();
}

/// Several injected panics in sequence: one fault and one restart each,
/// nothing else lost.
#[test]
fn repeated_worker_panics_each_cost_one_restart() {
    let service = Service::spawn();
    for round in 1..=3u64 {
        assert_eq!(
            service.submit(crash_job()),
            JobReply::Shed(ShedReason::WorkerFault)
        );
        match service.submit(small_job("a")) {
            JobReply::Ok(_) => {}
            other => panic!("round {round}: service died: {other:?}"),
        }
        let stats = service.stats();
        assert_eq!(stats.worker_faults, round);
        assert_eq!(stats.worker_restarts, round);
    }
    service.shutdown();
}

/// A job whose deadline passes while it waits in the queue is shed with
/// `DeadlineExceeded`, not computed uselessly; an unexpired one runs.
#[test]
fn queued_jobs_past_their_deadline_are_shed() {
    let service = Service::spawn();
    // Occupy the worker with a pipeline of slow jobs, then queue a job
    // that can only expire behind them: even if this thread stalls, the
    // worker has several slow computations between it and the doomed job.
    let busy: Vec<_> = (0..3)
        .map(|_| service.submit_nowait(slow_job("busy")).expect("room"))
        .collect();
    let mut doomed = small_job("d");
    doomed.deadline_ms = Some(1);
    let doomed_rx = service.submit_nowait(doomed).expect("queue has room");
    let mut relaxed = small_job("r");
    relaxed.deadline_ms = Some(wire::MAX_DEADLINE_MS);
    let relaxed_rx = service.submit_nowait(relaxed).expect("queue has room");
    assert_eq!(
        doomed_rx.recv().expect("always answered"),
        JobReply::Shed(ShedReason::DeadlineExceeded)
    );
    match relaxed_rx.recv().expect("always answered") {
        JobReply::Ok(_) => {}
        other => panic!("unexpired job must run: {other:?}"),
    }
    for rx in busy {
        match rx.recv().expect("always answered") {
            JobReply::Ok(_) => {}
            other => panic!("the slow jobs had no deadline: {other:?}"),
        }
    }
    let stats = service.stats();
    assert_eq!(stats.deadline_sheds, 1);
    assert_eq!(stats.completed, 5, "a deadline shed is still a disposal");
    service.shutdown();
}

/// `ServiceConfig::default_deadline` applies to jobs that carry none.
#[test]
fn default_deadline_covers_deadline_less_jobs() {
    let service = Service::with_config(ServiceConfig {
        default_deadline: Some(Duration::from_millis(1)),
        ..ServiceConfig::default()
    });
    // The busy jobs opt out of the default with their own generous
    // deadline; the doomed one carries none and inherits the 1ms default.
    let busy: Vec<_> = (0..3)
        .map(|_| {
            let mut req = slow_job("busy");
            req.deadline_ms = Some(wire::MAX_DEADLINE_MS);
            service.submit_nowait(req).expect("room")
        })
        .collect();
    let doomed_rx = service.submit_nowait(small_job("d")).expect("room");
    assert_eq!(
        doomed_rx.recv().expect("always answered"),
        JobReply::Shed(ShedReason::DeadlineExceeded)
    );
    for rx in busy {
        let _ = rx.recv();
    }
    service.shutdown();
}

/// When the queue fills, the heaviest tenant's newest queued job is
/// evicted in favor of a lighter tenant — one noisy tenant cannot starve
/// the rest.
#[test]
fn fair_shedding_evicts_the_heaviest_tenant() {
    let service = Service::with_capacity(3);
    // The noisy tenant grabs the worker and the whole queue.
    let mut noisy = vec![service.submit_nowait(slow_job("noisy")).expect("worker")];
    wait_for_pickup(&service);
    for _ in 0..3 {
        noisy.push(service.submit_nowait(slow_job("noisy")).expect("queue"));
    }
    // A light tenant arrives: it must be admitted, evicting a noisy job.
    let light = service
        .submit_nowait(small_job("light"))
        .expect("fair shedding must admit the lighter tenant");
    // Exactly one noisy job was answered QueueFull (the newest queued one).
    let shed_replies = noisy
        .iter()
        .filter(|rx| {
            matches!(
                rx.recv().expect("always answered"),
                JobReply::Shed(ShedReason::QueueFull)
            )
        })
        .count();
    assert_eq!(shed_replies, 1, "exactly one eviction");
    match light.recv().expect("always answered") {
        JobReply::Ok(resp) => assert_eq!(resp.accepts, resp.trials),
        other => panic!("light tenant's job must run: {other:?}"),
    }
    let stats = service.stats();
    assert_eq!(stats.evictions, 1);
    assert_eq!(service.shed_count(), 1);
    service.shutdown();
}

/// A tenant as heavy as the queue's heaviest gains nothing by racing
/// itself: the newcomer is shed, queued jobs stay (the pre-fairness
/// behavior, still pinned for single-tenant workloads).
#[test]
fn a_tenant_cannot_evict_itself() {
    let service = Service::with_capacity(2);
    let mut pending = vec![service.submit_nowait(slow_job("solo")).expect("worker")];
    wait_for_pickup(&service);
    for _ in 0..2 {
        pending.push(service.submit_nowait(slow_job("solo")).expect("queue"));
    }
    match service.submit_nowait(slow_job("solo")) {
        Err(ShedReason::QueueFull) => {}
        other => panic!("the newcomer must be shed, got {other:?}"),
    }
    for rx in pending {
        match rx.recv().expect("always answered") {
            JobReply::Ok(_) => {}
            other => panic!("queued jobs must survive: {other:?}"),
        }
    }
    assert_eq!(service.stats().evictions, 0);
    service.shutdown();
}

/// The hard per-tenant quota caps in-flight jobs outright, even with an
/// empty queue.
#[test]
fn tenant_quota_caps_inflight_jobs() {
    let service = Service::with_config(ServiceConfig {
        tenant_quota: Some(2),
        ..ServiceConfig::default()
    });
    let a1 = service.submit_nowait(slow_job("a")).expect("1st in quota");
    let a2 = service.submit_nowait(slow_job("a")).expect("2nd in quota");
    match service.submit_nowait(small_job("a")) {
        Err(ShedReason::QueueFull) => {}
        other => panic!("3rd must exceed the quota, got {other:?}"),
    }
    // Another tenant is unaffected.
    let b = service.submit_nowait(small_job("b")).expect("b unaffected");
    let stats = service.stats();
    assert_eq!(stats.quota_sheds, 1);
    for rx in [a1, a2, b] {
        match rx.recv().expect("always answered") {
            JobReply::Ok(_) => {}
            other => panic!("admitted jobs must run: {other:?}"),
        }
    }
    service.shutdown();
}

// -------------------------------------------------------------- tcp front

fn front_fixture(config: FrontConfig) -> (Arc<Service>, TcpFront) {
    let service = Arc::new(Service::spawn());
    let front = TcpFront::spawn_with(Arc::clone(&service), config).expect("bind localhost");
    (service, front)
}

fn quick_front() -> (Arc<Service>, TcpFront) {
    front_fixture(FrontConfig {
        frame_timeout: Duration::from_millis(250),
        idle_timeout: None,
    })
}

fn roundtrip(stream: &mut TcpStream, req: &JobRequest) -> JobReply {
    wire::write_frame(stream, &req.encode()).expect("send");
    let payload = wire::read_frame(stream).expect("reply frame");
    JobReply::decode(&payload).expect("reply decodes")
}

/// A slowloris trickling a frame one byte at a time is cut at the frame
/// deadline — while a well-behaved client on another connection keeps
/// being served throughout.
#[test]
fn slowloris_is_cut_while_others_are_served() {
    let (service, front) = quick_front();
    let mut slow = TcpStream::connect(front.addr()).expect("connect");
    let frame = {
        let mut buf = Vec::new();
        wire::write_frame(&mut buf, &small_job("slow").encode()).expect("encode");
        buf
    };
    // Trickle the first bytes to start the frame clock.
    slow.write_all(&frame[..2]).expect("trickle");
    let started = Instant::now();
    // Meanwhile the good client gets real service.
    let mut good = TcpStream::connect(front.addr()).expect("connect");
    match roundtrip(&mut good, &small_job("good")) {
        JobReply::Ok(resp) => assert_eq!(resp.accepts, resp.trials),
        other => panic!("good client starved: {other:?}"),
    }
    // The slowloris connection is closed by the deadline: subsequent
    // trickles eventually fail, and no reply ever arrives.
    slow.set_read_timeout(Some(Duration::from_millis(50))).ok();
    let mut byte = [0u8; 1];
    let dead = loop {
        std::thread::sleep(Duration::from_millis(40));
        if slow.write_all(&frame[2..3]).is_err() {
            break true;
        }
        match slow.read(&mut byte) {
            Ok(0) => break true,
            Ok(_) => panic!("no reply frame can exist for an unfinished request"),
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if started.elapsed() > Duration::from_secs(5) {
                    break false;
                }
            }
            Err(_) => break true,
        }
    };
    assert!(dead, "slowloris connection must be cut by the deadline");
    // And the good client is still fine afterwards.
    match roundtrip(&mut good, &small_job("good")) {
        JobReply::Ok(_) => {}
        other => panic!("good client must survive: {other:?}"),
    }
    drop(good);
    front.stop();
    drop(service);
}

/// A client hanging up mid-frame neither wedges the front nor earns a
/// phantom job; other connections continue unharmed.
#[test]
fn midframe_hangup_is_harmless() {
    let (service, front) = quick_front();
    let frame = {
        let mut buf = Vec::new();
        wire::write_frame(&mut buf, &small_job("gone").encode()).expect("encode");
        buf
    };
    {
        let mut quitter = TcpStream::connect(front.addr()).expect("connect");
        quitter.write_all(&frame[..frame.len() / 2]).expect("half");
    } // dropped: RST/EOF mid-frame
    let mut good = TcpStream::connect(front.addr()).expect("connect");
    match roundtrip(&mut good, &small_job("good")) {
        JobReply::Ok(_) => {}
        other => panic!("front must keep serving: {other:?}"),
    }
    // The aborted half-frame never became a job.
    assert_eq!(service.completed_count(), 1);
    drop(good);
    front.stop();
    drop(service);
}

/// A hostile 4 GiB length prefix is answered with a hangup, not an
/// allocation: the front stays healthy.
#[test]
fn hostile_length_prefix_over_tcp_is_rejected() {
    let (service, front) = quick_front();
    let mut hostile = TcpStream::connect(front.addr()).expect("connect");
    hostile.write_all(&u32::MAX.to_le_bytes()).expect("header");
    hostile.set_read_timeout(Some(Duration::from_secs(2))).ok();
    let mut buf = [0u8; 1];
    match hostile.read(&mut buf) {
        Ok(0) | Err(_) => {} // hung up (or reset) — correct
        Ok(_) => panic!("no reply can exist for a rejected frame"),
    }
    let mut good = TcpStream::connect(front.addr()).expect("connect");
    match roundtrip(&mut good, &small_job("good")) {
        JobReply::Ok(_) => {}
        other => panic!("front must keep serving: {other:?}"),
    }
    drop(good);
    front.stop();
    drop(service);
}

/// `idle_timeout` reaps parked connections that never start a frame.
#[test]
fn idle_connections_are_reaped() {
    let (service, front) = front_fixture(FrontConfig {
        frame_timeout: Duration::from_millis(250),
        idle_timeout: Some(Duration::from_millis(100)),
    });
    let mut idle = TcpStream::connect(front.addr()).expect("connect");
    idle.set_read_timeout(Some(Duration::from_secs(3))).ok();
    let mut buf = [0u8; 1];
    let started = Instant::now();
    match idle.read(&mut buf) {
        Ok(0) | Err(_) => {}
        Ok(_) => panic!("nothing to read on an idle connection"),
    }
    assert!(
        started.elapsed() < Duration::from_secs(3),
        "idle connection must be closed by the idle deadline"
    );
    front.stop();
    drop(service);
}

/// `TcpFront::stop` drains: a request already in flight when stop is
/// called still gets its reply before the connection closes.
#[test]
fn stop_drains_inflight_requests() {
    let (service, front) = front_fixture(FrontConfig {
        frame_timeout: Duration::from_secs(5),
        idle_timeout: None,
    });
    let mut stream = TcpStream::connect(front.addr()).expect("connect");
    let req = slow_job("drain");
    wire::write_frame(&mut stream, &req.encode()).expect("send");
    // Give the handler a moment to pick the frame up, then stop the front
    // while the job is still being computed.
    std::thread::sleep(Duration::from_millis(50));
    let stopper = std::thread::spawn(move || front.stop());
    let payload = wire::read_frame(&mut stream).expect("drained reply");
    match JobReply::decode(&payload).expect("reply decodes") {
        JobReply::Ok(resp) => assert_eq!(resp.accepts, resp.trials),
        other => panic!("in-flight job must be answered: {other:?}"),
    }
    stopper.join().expect("front.stop returns");
    drop(service);
}

/// Stopping a front that never saw a connection returns promptly: the
/// blocked accept is woken, not waited out.
#[test]
fn stop_returns_promptly_on_an_untouched_front() {
    let (service, front) = quick_front();
    stops_within_a_second(move || front.stop());
    drop(service);
}

/// Stopping a front whose last client has left returns promptly.
#[test]
fn stop_returns_promptly_after_the_last_client_leaves() {
    let (service, front) = quick_front();
    let mut client = TcpStream::connect(front.addr()).expect("connect");
    match roundtrip(&mut client, &small_job("gone")) {
        JobReply::Ok(resp) => assert_eq!(resp.accepts, resp.trials),
        other => panic!("job should run: {other:?}"),
    }
    drop(client);
    stops_within_a_second(move || front.stop());
    drop(service);
}

/// Checksummed frames are served and answered in kind over TCP; a frame
/// whose checksum lies is dropped without a reply.
#[test]
fn checked_frames_are_answered_in_kind() {
    let (service, front) = quick_front();
    let mut stream = TcpStream::connect(front.addr()).expect("connect");
    let req = small_job("sum");
    wire::write_frame_checked(&mut stream, &req.encode()).expect("send");
    let (payload, checked) = wire::read_frame_tagged(&mut stream).expect("reply");
    assert!(checked, "a checked request earns a checked reply");
    match JobReply::decode(&payload).expect("reply decodes") {
        JobReply::Ok(resp) => assert_eq!(resp.accepts, resp.trials),
        other => panic!("job should run: {other:?}"),
    }
    // Corrupt a checked frame on the wire: the front hangs up instead of
    // decoding garbage (or worse, a plausible different job).
    let mut bad = TcpStream::connect(front.addr()).expect("connect");
    let mut buf = Vec::new();
    wire::write_frame_checked(&mut buf, &req.encode()).expect("encode");
    let at = buf.len() - 3;
    buf[at] ^= 0x10;
    bad.write_all(&buf).expect("send corrupted");
    bad.set_read_timeout(Some(Duration::from_secs(2))).ok();
    let mut byte = [0u8; 1];
    match bad.read(&mut byte) {
        Ok(0) | Err(_) => {}
        Ok(_) => panic!("no reply can exist for a corrupted frame"),
    }
    drop(stream);
    front.stop();
    drop(service);
}
