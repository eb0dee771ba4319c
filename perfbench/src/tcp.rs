//! The `tcp_service` workload: a `Service` behind a `TcpFront` inside the
//! benchmark process, driven by a closed loop of one client thread per
//! core, each calling `client::submit_with_retry` (one connection per
//! attempt, as the shipped client does).

use crate::inproc::{
    any_copy_bit, first_call_penalty_ms, layer_metrics_common, run_trials_traced, tamper,
    LayerInputs,
};
use crate::summary::{self, Digest, Verdict};
use crate::trace::{Tracer, NO_JOB};
use crate::{mix, Metric, Opts, Outcome};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use rpls_bits::BitString;
use rpls_core::engine::{MessagePattern, SeedSource};
use rpls_core::stats::{self, EstimateOpts};
use rpls_core::{CompiledRpls, PrepCache, RoundScratch};
use rpls_graph::{generators, NodeId};
use rpls_schemes::spanning_tree::SpanningTreePls;
use rpls_service::registry::{self, request_skeleton};
use rpls_service::{
    submit_with_retry, JobReply, JobRequest, JobResponse, RetryPolicy, Service, TcpFront,
    WireFaults,
};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The layer metrics only this workload's path has, with their units.
pub const SERVICE_METRICS: [(&str, &str); 12] = [
    ("registry.build_ms", "ms"),
    ("wire.request_decode_us", "us"),
    ("wire.reply_encode_us", "us"),
    ("wire.request_bytes", "bytes"),
    ("wire.reply_bytes", "bytes"),
    ("service.submit_ms", "ms"),
    ("service.queue_wait_ms", "ms"),
    ("service.cache_hit_rate", "1"),
    ("service.sheds", "count"),
    ("service.worker_faults", "count"),
    ("tcp.overhead_ms", "ms"),
    ("client.attempts_per_job", "count"),
];

/// Jobs folded into the verdict digest: a prefix every run completes, so
/// the digest is fixed for a seed however fast the run.
const DIGEST_JOBS: usize = 256;
/// Requests built in set-up. Enough that their total cost, and so
/// `setup_s`, hardly depends on the seed's draw of graph sizes.
const SETUP_JOBS: usize = 1024;

// The traffic mix. No measured traffic exists to take it from, so every
// share below, and the scheme, shape and fault shares in `Stream::fresh`,
// is an assumption; each run reports the shares its inputs have.

/// Share of jobs, in percent, that resubmit an earlier job's graph.
const RESUBMIT_PERCENT: u32 = 30;
/// How far back a resubmission may reach.
const RESUBMIT_WINDOW: usize = 32;
/// Every this many fresh jobs, one has a labeling with one tampered
/// replica, which the verifier must reject. A fixed stride rather than a
/// random draw: a tampered job costs set-up an honest labeling, and a
/// seed-dependent count of them would make `setup_s` vary by seed.
const TAMPER_EVERY: usize = 10;
/// Tenants the jobs are spread over.
const TENANTS: u32 = 8;
/// Trials per job.
const TRIALS: u32 = 16;

/// The seeded job stream. Job `i` is a pure function of `(seed, i)`, so any
/// client thread can build any job and the traced replay rebuilds them.
#[derive(Clone, Copy)]
pub struct Stream {
    seed: u64,
}

impl Stream {
    /// The fresh job whose graph job `i` submits: `i` itself, or, for a
    /// resubmission, the origin of an earlier job.
    fn origin(&self, i: usize) -> usize {
        let mut i = i;
        loop {
            let mut rng = StdRng::seed_from_u64(mix(self.seed, 0x7c, i as u64));
            if i == 0 || rng.random_range(0u32..100) >= RESUBMIT_PERCENT {
                return i;
            }
            i -= 1 + rng.random_range(0..RESUBMIT_WINDOW.min(i));
        }
    }

    /// Whether fresh job `i` submits a tampered labeling.
    fn tampered(i: usize) -> bool {
        i % TAMPER_EVERY == TAMPER_EVERY - 1
    }

    /// Job `i`'s request.
    pub fn request(&self, i: usize) -> JobRequest {
        let origin = self.origin(i);
        let mut req = self.fresh(origin);
        let mut rng = StdRng::seed_from_u64(mix(self.seed, 0x7e, i as u64));
        req.tenant = format!("tenant-{}", rng.random_range(0..TENANTS));
        req
    }

    /// The fresh request of origin job `i`: random node ids (or a random
    /// payload), so none of its labels has been seen before.
    fn fresh(&self, i: usize) -> JobRequest {
        let mut rng = StdRng::seed_from_u64(mix(self.seed, 0x7f, i as u64));
        let roll = rng.random_range(0u32..100);
        let n = rng.random_range(64usize..=1024);
        let graph = match roll {
            0..30 => generators::cycle(n),
            30..50 | 85.. => generators::random_sparse(n, n / 4, &mut rng),
            _ => generators::random_sparse(n / 2, n / 8, &mut rng),
        };
        let edges: Vec<(u32, u32)> = graph
            .sorted_edge_list()
            .into_iter()
            .map(|(u, v)| (u as u32, v as u32))
            .collect();
        let nodes = graph.node_count() as u32;
        let scheme = match roll {
            0..50 => "spanning-tree",
            50..70 => "uniformity",
            70..85 => "leader",
            _ => "coloring",
        };
        let mut req = request_skeleton(scheme, nodes, &edges);
        // Distinct ids: an odd multiplier is a bijection mod 2^64.
        let base = rng.random_range(0..=u64::MAX);
        req.ids = Some(
            (0..u64::from(nodes))
                .map(|k| base.wrapping_add(k.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
                .collect(),
        );
        req.param = rng.random_range(0..u64::from(nodes));
        req.trials = TRIALS;
        req.seed_source = SeedSource::Trial(rng.random_range(0..=u64::MAX));
        match scheme {
            "uniformity" => {
                req.payload = BitString::from_bools((0..48).map(|_| rng.random_bool(0.5)));
                req.pattern = MessagePattern::Broadcast;
                req.rounds = 2;
                req.seed_source = SeedSource::Beacon {
                    round_id: rng.random_range(0..=u64::MAX),
                    value: rng.random_range(0..=u64::MAX),
                };
            }
            "leader" => {
                req.faults = Some(WireFaults {
                    drop_rate: 0.002,
                    corrupt_rate: 0.001,
                    duplicate_rate: 0.001,
                    crash_rate: 0.0,
                    retry_budget: 0,
                    fault_seed: rng.random_range(0..=u64::MAX),
                });
            }
            _ => {}
        }
        // Spanning-tree jobs on the compiled plan's multiround shapes: a
        // t=8 broadcast schedule, and t=4 over a lossy network with one
        // retry.
        match roll {
            36..43 => {
                req.rounds = 8;
                req.pattern = MessagePattern::Broadcast;
            }
            43..50 => {
                req.rounds = 4;
                req.faults = Some(WireFaults {
                    drop_rate: 0.002,
                    corrupt_rate: 0.0,
                    duplicate_rate: 0.0,
                    crash_rate: 0.0,
                    retry_budget: 1,
                    fault_seed: rng.random_range(0..=u64::MAX),
                });
            }
            _ => {}
        }
        if Self::tampered(i) {
            let honest = registry::build(&req)
                .expect("generated jobs are well-formed")
                .labeling;
            let labeling = tamper(&honest, 1, &mut rng, &any_copy_bit);
            req.labeling = Some(
                (0..labeling.len())
                    .map(|v| labeling.get(NodeId::new(v)).clone())
                    .collect(),
            );
        }
        req
    }
}

/// Directed ports of a request's graph.
fn ports(req: &JobRequest) -> u64 {
    2 * req.edges.len() as u64
}

/// One completed client call.
struct Call {
    index: usize,
    latency_ms: f64,
    result: Result<(Verdict, u32), String>,
}

/// The untraced TCP run's record.
struct Timed {
    calls: Vec<Call>,
    wall_s: f64,
    port_trials: u64,
}

/// Runs the closed loop: `clients` threads claim job indices in order
/// until `seconds` have passed (and the digest prefix is done). Jobs in
/// `prefix` were built in set-up; later ones are built as they are claimed.
fn run_tcp(
    front: &TcpFront,
    stream: Stream,
    prefix: &[JobRequest],
    clients: usize,
    seconds: f64,
) -> Timed {
    let next = AtomicUsize::new(0);
    let calls = Mutex::new(Vec::new());
    let start = Instant::now();
    std::thread::scope(|scope| {
        for c in 0..clients {
            let (next, calls) = (&next, &calls);
            let addr = front.addr();
            scope.spawn(move || {
                let policy = RetryPolicy {
                    jitter_seed: mix(stream.seed, 0x71, c as u64),
                    ..RetryPolicy::default()
                };
                let mut mine = Vec::new();
                loop {
                    if start.elapsed().as_secs_f64() >= seconds
                        && next.load(Ordering::SeqCst) >= DIGEST_JOBS
                    {
                        break;
                    }
                    let index = next.fetch_add(1, Ordering::SeqCst);
                    let req = prefix
                        .get(index)
                        .cloned()
                        .unwrap_or_else(|| stream.request(index));
                    let t0 = Instant::now();
                    let result = submit_with_retry(addr, &req, &policy)
                        .map(|out| (Verdict::from_response(&out.response), out.attempts))
                        .map_err(|e| e.to_string());
                    mine.push(Call {
                        index,
                        latency_ms: t0.elapsed().as_secs_f64() * 1e3,
                        result,
                    });
                }
                calls.lock().expect("no client panicked").extend(mine);
            });
        }
    });
    let wall_s = start.elapsed().as_secs_f64();
    let mut calls = calls.into_inner().expect("no client panicked");
    calls.sort_by_key(|c| c.index);
    let port_trials = calls
        .iter()
        .map(|c| ports(&stream.request(c.index)) * u64::from(TRIALS))
        .sum();
    Timed {
        calls,
        wall_s,
        port_trials,
    }
}

/// The fresh-cache reference verdict of a request.
fn reference(req: &JobRequest) -> Verdict {
    let job = registry::build(req).expect("generated jobs are well-formed");
    Verdict::from_estimate(&stats::estimate(
        &*job.scheme,
        &job.config,
        &job.labeling,
        &req.run_spec(),
        &EstimateOpts::new(req.trials as usize),
    ))
}

/// Compares every call with its reference (computed once per origin);
/// returns which calls failed: client errors and mismatches. Honest jobs
/// on a clean network must accept every trial, and tampered jobs must
/// reject some trial.
fn check(stream: Stream, calls: &[Call]) -> Vec<bool> {
    let mut refs: HashMap<usize, Verdict> = HashMap::new();
    let mut failed = Vec::with_capacity(calls.len());
    for call in calls {
        let Ok((got, _)) = &call.result else {
            failed.push(true);
            continue;
        };
        let req = stream.request(call.index);
        let want = *refs
            .entry(stream.origin(call.index))
            .or_insert_with(|| reference(&req));
        let expected = if req.labeling.is_some() {
            got.accepts < got.trials
        } else {
            req.faults.is_some() || got.accepts == got.trials
        };
        failed.push(*got != want || !expected);
    }
    failed
}

/// Spawns the service and its front.
fn spawn() -> (Arc<Service>, TcpFront) {
    let service = Arc::new(Service::spawn());
    let front = TcpFront::spawn(Arc::clone(&service)).expect("bind a loopback port");
    (service, front)
}

/// A running service and front, with the requests built in set-up.
struct Running {
    service: Arc<Service>,
    front: TcpFront,
    prefix: Vec<JobRequest>,
}

/// Set-up: build the first jobs' requests (their graphs, and honest
/// labelings for the tampered ones) and spawn the service and front.
fn setup(stream: Stream, tr: &mut Tracer) -> Running {
    let span = tr.enter("graph.build", "", NO_JOB);
    let prefix = (0..SETUP_JOBS).map(|i| stream.request(i)).collect();
    tr.exit(span);
    let (service, front) = spawn();
    Running {
        service,
        front,
        prefix,
    }
}

/// Stops the front, then the service (dropping its last handle drains
/// the queue and joins the worker).
fn stop(service: Arc<Service>, front: TcpFront) {
    front.stop();
    drop(service);
}

/// Per-job record of the in-process replay.
struct Replayed {
    verdict: Verdict,
    request_bytes: usize,
    reply_bytes: usize,
    /// Whether the job's `prepare_cached` added no cache miss.
    hit: bool,
}

/// Rebuilds jobs `0..jobs` of the service path in process: the request's
/// wire decode, `registry::build`, `prepare_cached`, `engine::run_trials`
/// and the reply's wire encode, each in a span when `tr` is enabled.
fn replay(
    stream: Stream,
    jobs: usize,
    cache: &mut PrepCache,
    tr: &mut Tracer,
) -> (Vec<Replayed>, f64) {
    let mut scratch = RoundScratch::new();
    let mut out = Vec::with_capacity(jobs);
    let mut busy_s = 0.0;
    for i in 0..jobs {
        let bytes = stream.request(i).encode();
        let id = i as u64;
        let misses = cache.stats().misses;
        let t0 = Instant::now();
        let span = tr.enter("job", "", id);
        let req = tr
            .leaf("wire.request_decode", "", id, || JobRequest::decode(&bytes))
            .expect("generated requests decode");
        let job = tr
            .leaf("registry.build", "", id, || registry::build(&req))
            .expect("generated jobs are well-formed");
        let trials = req.trials as usize;
        let prepared = tr.leaf("prep.prepare", "", id, || {
            job.scheme
                .prepare_cached(&job.config, &job.labeling, trials, cache)
        });
        let est = run_trials_traced(
            &req.run_spec(),
            &*prepared,
            &job.config,
            trials,
            &mut scratch,
            tr,
            id,
        );
        drop(prepared);
        let cache_stats = cache.stats();
        let reply = JobReply::Ok(JobResponse {
            trials: est.trials as u64,
            accepts: est.accepts as u64,
            degraded_trials: est.degraded_trials as u64,
            missing_messages: est.missing_messages as u64,
            dropped: est.counts.dropped as u64,
            corrupted: est.counts.corrupted as u64,
            duplicated: est.counts.duplicated as u64,
            crashed_nodes: est.counts.crashed_nodes as u64,
            retries: est.counts.retries as u64,
            cache: cache_stats,
        });
        let encoded = tr.leaf("wire.reply_encode", "", id, || reply.encode());
        tr.exit(span);
        busy_s += t0.elapsed().as_secs_f64();
        // Outside the job: the honest prover alone, which `registry::build`
        // runs inside its span for honest jobs.
        tr.leaf("labeling.honest", "", id, || {
            std::hint::black_box(job.scheme.label(&job.config))
        });
        out.push(Replayed {
            verdict: Verdict::from_estimate(&est),
            request_bytes: bytes.len(),
            reply_bytes: encoded.len(),
            hit: cache_stats.misses == misses,
        });
    }
    (out, busy_s)
}

/// In-process `Service::submit` of jobs `0..jobs` from `clients` threads;
/// returns each job's submit latency in milliseconds, by job index.
fn submit_in_process(stream: Stream, jobs: usize, clients: usize) -> Vec<f64> {
    let service = Service::spawn();
    let next = AtomicUsize::new(0);
    let latencies = Mutex::new(vec![0.0; jobs]);
    std::thread::scope(|scope| {
        for _ in 0..clients {
            let (next, latencies, service) = (&next, &latencies, &service);
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::SeqCst);
                if i >= jobs {
                    break;
                }
                let req = stream.request(i);
                let t0 = Instant::now();
                let reply = service.submit(req);
                let ms = t0.elapsed().as_secs_f64() * 1e3;
                assert!(matches!(reply, JobReply::Ok(_)), "in-process job {i} shed");
                latencies.lock().expect("no submitter panicked")[i] = ms;
            });
        }
    });
    service.shutdown();
    latencies.into_inner().expect("no submitter panicked")
}

/// Runs `reps` set-ups, recording their times and stopping all but the
/// last, which it returns.
fn timed_setups(stream: Stream, reps: usize, times: &mut Vec<f64>) -> Running {
    let mut last: Option<Running> = None;
    for _ in 0..reps {
        if let Some(r) = last.take() {
            stop(r.service, r.front);
        }
        let t0 = Instant::now();
        last = Some(setup(stream, &mut Tracer::new(false)));
        times.push(t0.elapsed().as_secs_f64());
    }
    last.expect("at least one set-up")
}

pub fn run(opts: &Opts) -> Outcome {
    let stream = Stream { seed: opts.seed };
    // One client (and so at most one open connection) per core.
    let clients = opts.cores;
    let mut setup_times = Vec::new();
    let Running {
        service,
        front,
        prefix,
    } = timed_setups(stream, crate::SETUP_REPS / 2, &mut setup_times);
    let timed = run_tcp(&front, stream, &prefix, clients, opts.seconds);
    let service_stats = service.stats();
    let service_cache = service.cache_stats();
    stop(service, front);
    let peak_rss_mb = crate::peak_rss_mb();
    drop(prefix);

    let jobs = timed.calls.len();
    let ok_verdicts: Vec<Verdict> = timed
        .calls
        .iter()
        .map(|c| c.result.as_ref().map_or(Verdict::default(), |(v, _)| *v))
        .collect();
    let digest = Digest::of(&ok_verdicts, DIGEST_JOBS);
    let resubmitted = (0..jobs).filter(|&i| stream.origin(i) != i).count();
    let tampered = (0..jobs)
        .filter(|&i| Stream::tampered(stream.origin(i)))
        .count();
    let mut notes = vec![
        format!("jobs={jobs} wall_s={:.3} clients={clients}", timed.wall_s),
        format!(
            "inputs: {resubmitted} of {jobs} jobs resubmit an earlier graph, \
             {tampered} carry a tampered labeling"
        ),
        format!("digest={:016x} over the first {DIGEST_JOBS} jobs", digest.0),
    ];
    let mut failed = check(stream, &timed.calls);
    notes.push(crate::expected::check(
        &opts.workload,
        opts.seed,
        digest,
        &mut failed[..DIGEST_JOBS],
    ));
    let latencies: Vec<f64> = timed.calls.iter().map(|c| c.latency_ms).collect();
    let jobs_per_s = jobs as f64 / timed.wall_s;
    let tail = summary::tail(&latencies);
    notes.push(crate::tail_note(tail.1, latencies.len()));

    let metrics = if opts.trace {
        let mut tr = Tracer::new(true);
        let traced_setup = setup(stream, &mut tr);
        stop(traced_setup.service, traced_setup.front);
        let (_, untraced_busy_s) =
            replay(stream, jobs, &mut PrepCache::new(), &mut Tracer::new(false));
        let mut cache = PrepCache::new();
        let (replayed, traced_busy_s) = replay(stream, jobs, &mut cache, &mut tr);
        let traced: Vec<Verdict> = replayed.iter().map(|r| r.verdict).collect();
        let traced_digest = Digest::of(&traced, DIGEST_JOBS);
        notes.push(format!(
            "traced digest={:016x} ({})",
            traced_digest.0,
            if traced_digest == digest {
                "equal"
            } else {
                "DIFFERENT"
            }
        ));
        for ((flag, got), v) in failed.iter_mut().zip(&ok_verdicts).zip(&traced) {
            *flag |= got != v;
        }
        let submit = submit_in_process(stream, jobs, clients);

        // Per-job spans by job id, for the queue-wait subtraction.
        let mut work_ms = vec![0.0; jobs];
        for span in tr.spans() {
            if span.job == NO_JOB {
                continue;
            }
            let ms = span.duration_ns() as f64 / 1e6;
            match span.name {
                "job" => work_ms[span.job as usize] += ms,
                "wire.request_decode" | "wire.reply_encode" => work_ms[span.job as usize] -= ms,
                _ => {}
            }
        }
        let queue_wait: Vec<f64> = submit.iter().zip(&work_ms).map(|(s, w)| s - w).collect();
        let first_prepare_ms = tr
            .spans()
            .iter()
            .find(|s| s.name == "prep.prepare")
            .map_or(0.0, |s| s.duration_ns() as f64 / 1e6);
        let stats = cache.stats();
        let n = jobs as f64;
        let job = tr.totals("job", None);
        let prep = tr.totals("prep.prepare", None);
        let trials = tr.totals("engine.run_trials", None);
        let shape_ms = |tag: &str| tr.totals("engine.run_trials", Some(tag)).self_ms_each();
        let port_trials: u64 = (0..jobs)
            .map(|i| ports(&stream.request(i)) * u64::from(TRIALS))
            .sum();
        let first_call_penalty = stream_first_call_penalty_ms(stream);
        let par_speedup = par_speedup(stream, clients);
        let mut m = layer_metrics_common(&LayerInputs {
            graph_build_ms: tr.totals("graph.build", None).total_ns as f64 / 1e6,
            labeling_ms: tr.totals("labeling.honest", None).self_ms_each(),
            cold_prepare_ms: first_prepare_ms,
            prepare_ms: prep.self_ms_each(),
            prep_share: summary::ratio(prep.self_ns as f64, job.total_ns as f64),
            hit_rate: stats.hit_rate(),
            misses_per_job: summary::ratio(stats.misses as f64, n),
            hit_job_share: summary::ratio(replayed.iter().filter(|r| r.hit).count() as f64, n),
            table_slots: stats.table_slots_reserved as f64,
            retained_key_bits: (stats.retained_bytes * 8) as f64,
            run_trials_ms: trials.self_ms_each(),
            engine_share: summary::ratio(trials.self_ns as f64, job.total_ns as f64),
            ns_per_port_trial: summary::ratio(trials.self_ns as f64, port_trials as f64),
            shape_ms: [
                shape_ms("multiround"),
                shape_ms("broadcast_t8"),
                shape_ms("faulted_t1"),
                shape_ms("faulted_multiround"),
            ],
            first_call_penalty_ms: first_call_penalty,
            accept_frac: summary::trial_fraction(&traced, |v| v.accepts),
            degraded_frac: summary::trial_fraction(&traced, |v| v.degraded_trials),
            stats_overhead_ms: job.self_ms_each(),
            par_speedup,
            trace_overhead_frac: 1.0 - summary::ratio(untraced_busy_s, traced_busy_s),
        });
        let mean_of = |f: &dyn Fn(&Replayed) -> usize| {
            summary::mean(&replayed.iter().map(|r| f(r) as f64).collect::<Vec<_>>())
        };
        let submit_ms = summary::mean(&submit);
        let attempts: Vec<f64> = timed
            .calls
            .iter()
            .filter_map(|c| c.result.as_ref().ok().map(|(_, a)| f64::from(*a)))
            .collect();
        let values = [
            tr.totals("registry.build", None).self_ms_each(),
            tr.totals("wire.request_decode", None).self_ms_each() * 1e3,
            tr.totals("wire.reply_encode", None).self_ms_each() * 1e3,
            mean_of(&|r| r.request_bytes),
            mean_of(&|r| r.reply_bytes),
            submit_ms,
            summary::mean(&queue_wait),
            service_cache.hit_rate(),
            (service_stats.queue_sheds + service_stats.evictions + service_stats.deadline_sheds)
                as f64,
            service_stats.worker_faults as f64,
            summary::mean(&latencies) - submit_ms,
            summary::mean(&attempts),
        ];
        m.extend(
            SERVICE_METRICS
                .iter()
                .zip(values)
                .map(|(&(name, unit), value)| Metric::new(name, value, unit)),
        );
        let path = crate::trace_path(opts);
        tr.write(&path, &crate::trace_meta(opts, digest))
            .expect("write the span file");
        notes.push(format!("spans written to {}", path.display()));
        m
    } else {
        let last = timed_setups(stream, crate::SETUP_REPS / 2, &mut setup_times);
        stop(last.service, last.front);
        vec![
            Metric::new(
                "setup_s",
                summary::median(&setup_times).expect("at least one set-up"),
                "s",
            ),
            Metric::new("jobs_per_s", jobs_per_s, "1/s"),
            Metric::new(
                "job_p50_ms",
                summary::median(&latencies).expect("at least one job"),
                "ms",
            ),
            Metric::new("job_p99_ms", tail.0, "ms"),
            Metric::new(
                "port_trials_per_s",
                timed.port_trials as f64 / timed.wall_s,
                "1/s",
            ),
            Metric::new("peak_rss_mb", peak_rss_mb, "MiB"),
        ]
    };
    Outcome::new(&failed, metrics, notes)
}

/// `first_call_penalty_ms` (fresh cache) averaged over the first jobs.
fn stream_first_call_penalty_ms(stream: Stream) -> f64 {
    let mut scratch = RoundScratch::new();
    let penalties: Vec<f64> = (0..8)
        .map(|i| {
            let req = stream.request(i);
            let job = registry::build(&req).expect("generated jobs are well-formed");
            let trials = req.trials as usize;
            let prepared = job.scheme.prepare_cached(
                &job.config,
                &job.labeling,
                trials,
                &mut PrepCache::new(),
            );
            first_call_penalty_ms(
                &req.run_spec(),
                &*prepared,
                &job.config,
                trials,
                &mut scratch,
            )
        })
        .collect();
    summary::mean(&penalties)
}

/// Serial over `estimate_par` time on the largest spanning-tree job among
/// the first few (the registry hands out schemes as `Box<dyn Rpls>`, which
/// cannot cross threads, so the compiled scheme is named directly).
fn par_speedup(stream: Stream, cores: usize) -> f64 {
    let req = (0..16)
        .map(|i| stream.request(i))
        .filter(|r| r.scheme == "spanning-tree")
        .max_by_key(|r| r.edges.len())
        .expect("a spanning-tree job among the first sixteen");
    let job = registry::build(&req).expect("generated jobs are well-formed");
    let scheme = CompiledRpls::new(SpanningTreePls::new());
    let (spec, opts) = (req.run_spec(), EstimateOpts::new(req.trials as usize));
    let t0 = Instant::now();
    let serial = stats::estimate(&scheme, &job.config, &job.labeling, &spec, &opts);
    let serial_s = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let par = stats::estimate_par(
        &scheme,
        &job.config,
        &job.labeling,
        &spec,
        &opts,
        Some(cores),
    );
    let par_s = t0.elapsed().as_secs_f64();
    assert_eq!(
        serial, par,
        "estimate_par must reproduce the serial estimate"
    );
    serial_s / par_s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_is_a_function_of_seed_and_index() {
        let (a, b) = (Stream { seed: 1 }, Stream { seed: 2 });
        for i in [0, 1, 17, 300] {
            assert_eq!(a.request(i), a.request(i));
        }
        assert_ne!(a.request(5), b.request(5));
        // Resubmissions reuse an earlier job's graph verbatim.
        let resubmit = (1..200)
            .find(|&i| a.origin(i) != i)
            .expect("some resubmission");
        let origin = a.origin(resubmit);
        assert!(origin < resubmit);
        assert_eq!(a.request(resubmit).edges, a.request(origin).edges);
    }

    /// Serves the digest prefix of seed `seed` over TCP from two clients,
    /// checking every call.
    fn served(seed: u64) -> (Stream, Vec<Call>) {
        let stream = Stream { seed };
        let (service, front) = spawn();
        let timed = run_tcp(&front, stream, &[], 2, 0.0);
        stop(service, front);
        assert!(!check(stream, &timed.calls).contains(&true), "seed {seed}");
        (stream, timed.calls)
    }

    fn verdicts(calls: &[Call]) -> Vec<Verdict> {
        calls
            .iter()
            .map(|c| c.result.as_ref().expect("no failures").0)
            .collect()
    }

    #[test]
    fn tcp_digest_is_stable_per_seed() {
        let a = Digest::of(&verdicts(&served(1).1), DIGEST_JOBS);
        assert_eq!(a, Digest::of(&verdicts(&served(1).1), DIGEST_JOBS));
        assert_ne!(a, Digest::of(&verdicts(&served(2).1), DIGEST_JOBS));
    }

    #[test]
    fn replay_reproduces_the_served_verdicts_and_tampering_must_reject() {
        let (stream, mut calls) = served(3);
        let (replayed, _) = replay(
            stream,
            calls.len(),
            &mut PrepCache::new(),
            &mut Tracer::new(true),
        );
        let replayed: Vec<Verdict> = replayed.iter().map(|r| r.verdict).collect();
        assert_eq!(replayed, verdicts(&calls));
        // A verifier that accepted a tampered labeling everywhere would
        // agree with a reference run by the same verifier; the expectation
        // still fails it.
        let i = (0..calls.len())
            .find(|&i| Stream::tampered(stream.origin(i)))
            .expect("a tampered job among the first");
        let (v, _) = calls[i].result.as_mut().expect("served");
        v.accepts = v.trials;
        let failed = check(stream, &calls);
        assert!(failed[i]);
        assert_eq!(failed.iter().filter(|&&f| f).count(), 1);
    }
}
