//! The in-process workload, `probe_kernel`, and the traced-run pieces both
//! workloads share. It verifies the compiled (Theorem 3.1) spanning-tree
//! scheme with `force_dynamic()`, so every fingerprint probe runs, on
//! graphs big enough that nearly all of a job's time is the probe kernel.

use crate::summary::{self, Digest, Verdict};
use crate::trace::{Tracer, NO_JOB};
use crate::{mix, Metric, Opts, Outcome};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use rpls_bits::{BitReader, BitString};
use rpls_core::engine::{self, MessagePattern, RunSpec};
use rpls_core::stats::{self, Estimate, EstimateOpts};
use rpls_core::{
    CompiledRpls, Configuration, Labeling, PrepCache, PreparedRpls, ProbeSketch, RoundScratch, Rpls,
};
use rpls_graph::{generators, Graph, NodeId};
use rpls_schemes::spanning_tree::{decode_pointer, spanning_tree_config, SpanningTreePls};
use std::time::Instant;

type Scheme = CompiledRpls<SpanningTreePls>;

/// Jobs in the pool: the honest power-law, sparse and sketched-clique jobs
/// and the tampered sparse job. A timed run repeats the pool and stops only
/// at a pass boundary, so every run's samples are whole passes; the first
/// pass is the verdict digest's prefix.
pub const POOL: usize = 4;

/// Input sizes. `full()` is what the benchmark runs; tests shrink it.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Nodes of the sparse and power-law graphs.
    pub big_n: usize,
    /// Nodes of the sketched clique.
    pub clique_n: usize,
    /// Trials of the pool's jobs, chosen so the three honest jobs take
    /// about equally long and the pool's latency percentiles do not depend
    /// on which job lands where.
    pub trials: [usize; POOL],
}

impl Sizes {
    pub fn full() -> Self {
        Self {
            big_n: 16_384,
            clique_n: 512,
            trials: [2, 3, 12, 3],
        }
    }
}

/// Probe budget of the sketched clique.
const SKETCH_PROBES: usize = 16;
/// Nodes tampered in the tampered sparse labeling: enough that some lies
/// early in the kernel's node order whatever the seed, so the job rejects
/// early and its cost hardly depends on where they fall.
const TAMPERED_NODES: usize = 64;

/// A compiled scheme bound to a configuration and its labelings
/// (`labelings[0]` is the honest one).
struct Instance {
    scheme: Scheme,
    config: Configuration,
    labelings: Vec<Labeling>,
    /// Directed ports (twice the edge count).
    ports: u64,
}

/// The `RunSpec` shape of a job, the tag of its `engine.run_trials` span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    OneRound,
    Multiround,
    BroadcastT8,
    FaultedT1,
    FaultedMultiround,
}

impl Shape {
    pub fn of(spec: &RunSpec) -> Self {
        match (spec.faults.is_some(), spec.rounds, spec.pattern) {
            (false, 1, _) => Self::OneRound,
            (false, 8, MessagePattern::Broadcast) => Self::BroadcastT8,
            (false, _, _) => Self::Multiround,
            (true, 1, _) => Self::FaultedT1,
            (true, _, _) => Self::FaultedMultiround,
        }
    }

    pub fn tag(self) -> &'static str {
        match self {
            Self::OneRound => "one_round",
            Self::Multiround => "multiround",
            Self::BroadcastT8 => "broadcast_t8",
            Self::FaultedT1 => "faulted_t1",
            Self::FaultedMultiround => "faulted_multiround",
        }
    }
}

/// What a job's result must satisfy beyond matching its reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Expect {
    /// An honest labeling: every trial accepts.
    AllAccept,
    /// A tampered labeling: some trial rejects. The reference runs the
    /// same verifier, so only this catches a verifier that stops probing.
    Rejects,
}

struct Job {
    instance: usize,
    labeling: usize,
    spec: RunSpec,
    trials: usize,
    expect: Expect,
}

/// A set-up workload: its instances and the cache every job shares.
pub struct Workload {
    seed: u64,
    sizes: Sizes,
    instances: Vec<Instance>,
    cache: PrepCache,
    scratch: RoundScratch,
}

fn instance(scheme: Scheme, graph: Graph) -> Instance {
    let ports = 2 * graph.edge_count() as u64;
    let config = spanning_tree_config(&Configuration::plain(graph), NodeId::new(0));
    Instance {
        scheme,
        config,
        labelings: Vec::new(),
        ports,
    }
}

/// The `(start, len)` bit ranges, by port, of the neighbour copies in a
/// compiled replicated label `(κ, own, copy₀, copy₁, …)`.
fn copies(label: &BitString) -> Vec<(usize, usize)> {
    let mut r = BitReader::new(label);
    let pos = |r: &BitReader<'_>| label.len() - r.remaining();
    r.read_u64(32).expect("replicated label starts with kappa");
    let mut parts = Vec::new();
    while !r.is_exhausted() {
        let len = r.read_u64(32).expect("part length") as usize;
        parts.push((pos(&r), len));
        r.read_bits(len).expect("part bits");
    }
    parts.split_off(1)
}

/// Which bit of a node's replicated label to flip, given the node and its
/// copies' ranges; `None` to leave the node alone.
pub type Pick<'a> = &'a dyn Fn(NodeId, &[(usize, usize)], &mut StdRng) -> Option<usize>;

/// Any bit of any non-empty neighbour copy. The layout stays parseable;
/// the inner verifier may or may not see the lie, the edge's fingerprint
/// always can.
pub fn any_copy_bit(_: NodeId, copies: &[(usize, usize)], rng: &mut StdRng) -> Option<usize> {
    let filled: Vec<_> = copies.iter().filter(|&&(_, len)| len > 0).collect();
    let &&(start, len) = filled.get(rng.random_range(0..filled.len().max(1)))?;
    Some(start + rng.random_range(0..len))
}

/// A copy of a compiled scheme's honest labeling with one bit flipped, as
/// `pick` chooses, at each of `nodes` distinct random nodes.
pub fn tamper(honest: &Labeling, nodes: usize, rng: &mut StdRng, pick: Pick<'_>) -> Labeling {
    let mut out = honest.clone();
    let mut touched = Vec::with_capacity(nodes);
    while touched.len() < nodes {
        let v = NodeId::new(rng.random_range(0..out.len()));
        if touched.contains(&v) {
            continue;
        }
        let label = out.get(v);
        if let Some(target) = pick(v, &copies(label), rng) {
            let flipped = label.iter().enumerate().map(|(i, b)| b ^ (i == target));
            out.set(v, flipped.collect());
            touched.push(v);
        }
    }
    out
}

/// A distance bit in a node's copy of a neighbour that is not its parent.
/// The spanning-tree verifier reads only the parent's distance, so only
/// the fingerprint of that edge catches the lie: a verifier that skipped
/// its probes would accept it.
fn unread_distance_bit(
    config: &Configuration,
    v: NodeId,
    copies: &[(usize, usize)],
    rng: &mut StdRng,
) -> Option<usize> {
    let parent = decode_pointer(config.state(v).payload())
        .expect("spanning-tree payload")
        .map(|p| p.rank());
    let others: Vec<usize> = (0..copies.len()).filter(|&i| Some(i) != parent).collect();
    let &port = others.get(rng.random_range(0..others.len().max(1)))?;
    // A copy is the neighbour's inner label (root id: 64 bits, distance:
    // 32 bits).
    Some(copies[port].0 + 64 + rng.random_range(0..32usize))
}

impl Workload {
    /// Builds the graphs, labels them, and fills the shared cache with a
    /// cold `prepare_cached` of every labeling: everything before the first
    /// timed job.
    pub fn setup(seed: u64, sizes: Sizes, tr: &mut Tracer) -> Self {
        let mut rng = StdRng::seed_from_u64(mix(seed, 0x5e7, 0));
        let n = sizes.big_n;
        let dynamic = || CompiledRpls::new(SpanningTreePls::new()).force_dynamic();
        let span = tr.enter("graph.build", "", NO_JOB);
        let mut instances = vec![
            instance(dynamic(), generators::power_law(n, 2, &mut rng)),
            instance(dynamic(), generators::random_sparse(n, n / 4, &mut rng)),
            instance(
                dynamic().with_sketch(ProbeSketch::new(SKETCH_PROBES)),
                generators::complete(sizes.clique_n),
            ),
        ];
        tr.exit(span);

        let span = tr.enter("labeling.honest", "", NO_JOB);
        for inst in &mut instances {
            let honest = Rpls::label(&inst.scheme, &inst.config);
            inst.labelings.push(honest);
        }
        tr.exit(span);
        let sparse = &mut instances[1];
        let config = &sparse.config;
        let tampered = tamper(
            &sparse.labelings[0],
            TAMPERED_NODES,
            &mut rng,
            &|v, copies, rng| unread_distance_bit(config, v, copies, rng),
        );
        sparse.labelings.push(tampered);

        let mut cache = PrepCache::new();
        let span = tr.enter("prep.cold_prepare", "", NO_JOB);
        for inst in &instances {
            for labeling in &inst.labelings {
                drop(
                    inst.scheme
                        .prepare_cached(&inst.config, labeling, 1, &mut cache),
                );
            }
        }
        tr.exit(span);

        Self {
            seed,
            sizes,
            instances,
            cache,
            scratch: RoundScratch::new(),
        }
    }

    /// Job `i` of the repeated pool.
    fn job(&self, i: usize) -> Job {
        let k = i % POOL;
        let (instance, labeling, expect) = match k {
            3 => (1, 1, Expect::Rejects),
            _ => (k, 0, Expect::AllAccept),
        };
        Job {
            instance,
            labeling,
            spec: RunSpec::trial(mix(self.seed, 0xb0, k as u64)),
            trials: self.sizes.trials[k],
            expect,
        }
    }

    /// Runs `f` against job `i`, its instance and its labeling.
    fn with_job<T>(
        &mut self,
        i: usize,
        f: impl FnOnce(&Job, &Instance, &Labeling, &mut PrepCache, &mut RoundScratch) -> T,
    ) -> T {
        let job = self.job(i);
        let inst = &self.instances[job.instance];
        f(
            &job,
            inst,
            &inst.labelings[job.labeling],
            &mut self.cache,
            &mut self.scratch,
        )
    }
}

/// The untraced timed loop's record.
pub struct Timed {
    pub verdicts: Vec<Verdict>,
    pub latencies_ms: Vec<f64>,
    pub port_trials: u64,
    pub wall_s: f64,
}

impl Timed {
    pub fn jobs_per_s(&self) -> f64 {
        self.verdicts.len() as f64 / self.wall_s
    }
}

/// Runs jobs through `stats::estimate_with` until `seconds` have passed
/// (at a pass boundary, and not before the first pass is done), or
/// exactly `jobs` jobs when given.
pub fn run_timed(w: &mut Workload, seconds: f64, jobs: Option<usize>) -> Timed {
    let mut out = Timed {
        verdicts: Vec::new(),
        latencies_ms: Vec::new(),
        port_trials: 0,
        wall_s: 0.0,
    };
    let start = Instant::now();
    let mut i = 0;
    loop {
        let done = match jobs {
            Some(n) => i >= n,
            None => i > 0 && i % POOL == 0 && start.elapsed().as_secs_f64() >= seconds,
        };
        if done {
            break;
        }
        let (est, ms, port_trials) = w.with_job(i, |job, inst, labeling, cache, scratch| {
            let t0 = Instant::now();
            let est = stats::estimate_with(
                &inst.scheme,
                &inst.config,
                labeling,
                &job.spec,
                &EstimateOpts::new(job.trials),
                scratch,
                cache,
            );
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            (est, ms, inst.ports * job.trials as u64)
        });
        out.verdicts.push(Verdict::from_estimate(&est));
        out.latencies_ms.push(ms);
        out.port_trials += port_trials;
        i += 1;
    }
    out.wall_s = start.elapsed().as_secs_f64();
    out
}

/// Checks every verdict against a fresh-cache `stats::estimate` of the
/// same job (computed once per pool slot) and against the job's
/// expectation; returns which jobs failed.
pub fn check(w: &mut Workload, verdicts: &[Verdict]) -> Vec<bool> {
    let mut reference: [Option<Verdict>; POOL] = [None; POOL];
    let mut failed = Vec::with_capacity(verdicts.len());
    for (i, got) in verdicts.iter().enumerate() {
        let want = *reference[i % POOL].get_or_insert_with(|| {
            w.with_job(i, |job, inst, labeling, _, _| {
                Verdict::from_estimate(&stats::estimate(
                    &inst.scheme,
                    &inst.config,
                    labeling,
                    &job.spec,
                    &EstimateOpts::new(job.trials),
                ))
            })
        });
        let expected = match w.job(i).expect {
            Expect::AllAccept => got.accepts == got.trials,
            Expect::Rejects => got.accepts < got.trials,
        };
        failed.push(*got != want || !expected);
    }
    failed
}

/// The trial half of `stats::estimate_with`: the spec's per-trial seeds and
/// one `engine::run_trials` call over them, inside an `engine.run_trials`
/// span tagged with the spec's shape, accumulated as the estimator does.
/// (The estimator chunks trials by 8192; every job here has fewer.)
pub fn run_trials_traced(
    spec: &RunSpec,
    prepared: &dyn PreparedRpls,
    config: &Configuration,
    trials: usize,
    scratch: &mut RoundScratch,
    tr: &mut Tracer,
    job: u64,
) -> Estimate {
    let base = spec.seed();
    let seeds: Vec<u64> = (0..trials as u64)
        .map(|t| stats::trial_seed(base, t))
        .collect();
    let mut est = Estimate {
        trials,
        ..Estimate::default()
    };
    let span = tr.enter("engine.run_trials", Shape::of(spec).tag(), job);
    engine::run_trials(spec, prepared, config, &seeds, scratch, &mut |r| {
        est.accepts += usize::from(r.accepted);
        if let Some(fault) = r.fault {
            est.degraded_trials += usize::from(fault.insufficient_nodes > 0);
            est.missing_messages += fault.missing_messages;
            est.counts.absorb(fault.counts);
        }
    });
    tr.exit(span);
    est
}

/// The first `run_trials` call on a freshly prepared instance (lazy tables
/// and plans build inside it) minus a second, steady call with the same
/// seeds.
pub fn first_call_penalty_ms(
    spec: &RunSpec,
    prepared: &dyn PreparedRpls,
    config: &Configuration,
    trials: usize,
    scratch: &mut RoundScratch,
) -> f64 {
    let seeds: Vec<u64> = (0..trials as u64)
        .map(|t| stats::trial_seed(spec.seed(), t))
        .collect();
    let mut call = || {
        let t0 = Instant::now();
        engine::run_trials(spec, prepared, config, &seeds, scratch, &mut |r| {
            std::hint::black_box(r);
        });
        t0.elapsed().as_secs_f64() * 1e3
    };
    let first = call();
    first - call()
}

/// The traced replay's record: verdicts plus the layer counters that are
/// not spans.
struct Traced {
    verdicts: Vec<Verdict>,
    wall_s: f64,
    port_trials: u64,
    hits: u64,
    misses: u64,
    /// Jobs whose `prepare_cached` added no cache miss.
    hit_jobs: u64,
}

/// Replays jobs `0..jobs`, rebuilding `stats::estimate_with` from its
/// public parts — `prepare_cached`, `stats::trial_seed` and
/// `engine::run_trials` — with a span around each.
fn run_traced(w: &mut Workload, jobs: usize, tr: &mut Tracer) -> Traced {
    let before = w.cache.stats();
    let mut out = Traced {
        verdicts: Vec::with_capacity(jobs),
        wall_s: 0.0,
        port_trials: 0,
        hits: 0,
        misses: 0,
        hit_jobs: 0,
    };
    let start = Instant::now();
    for i in 0..jobs {
        let (est, port_trials, hit) = w.with_job(i, |job, inst, labeling, cache, scratch| {
            let id = i as u64;
            let misses = cache.stats().misses;
            let span = tr.enter("job", "", id);
            let prepared = tr.leaf("prep.prepare", "", id, || {
                inst.scheme
                    .prepare_cached(&inst.config, labeling, job.trials, cache)
            });
            let est = run_trials_traced(
                &job.spec,
                &*prepared,
                &inst.config,
                job.trials,
                scratch,
                tr,
                id,
            );
            drop(prepared);
            tr.exit(span);
            let hit = cache.stats().misses == misses;
            (est, inst.ports * job.trials as u64, hit)
        });
        out.port_trials += port_trials;
        out.hit_jobs += u64::from(hit);
        out.verdicts.push(Verdict::from_estimate(&est));
    }
    out.wall_s = start.elapsed().as_secs_f64();
    let after = w.cache.stats();
    out.hits = after.hits - before.hits;
    out.misses = after.misses - before.misses;
    out
}

/// `first_call_penalty_ms` (at most 8 trials, fresh cache) averaged over
/// the pool's jobs.
fn pool_first_call_penalty_ms(w: &mut Workload) -> f64 {
    let penalties: Vec<f64> = (0..POOL)
        .map(|i| {
            w.with_job(i, |job, inst, labeling, _, scratch| {
                let trials = job.trials.min(8);
                let prepared = inst.scheme.prepare_cached(
                    &inst.config,
                    labeling,
                    trials,
                    &mut PrepCache::new(),
                );
                first_call_penalty_ms(&job.spec, &*prepared, &inst.config, trials, scratch)
            })
        })
        .collect();
    summary::mean(&penalties)
}

/// Serial `stats::estimate` time over `stats::estimate_par` time at
/// `cores` workers, on the pool's first job.
fn par_speedup(w: &mut Workload, cores: usize) -> f64 {
    w.with_job(0, |job, inst, labeling, _, _| {
        let opts = EstimateOpts::new(job.trials);
        let t0 = Instant::now();
        let serial = stats::estimate(&inst.scheme, &inst.config, labeling, &job.spec, &opts);
        let serial_s = t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        let par = stats::estimate_par(
            &inst.scheme,
            &inst.config,
            labeling,
            &job.spec,
            &opts,
            Some(cores),
        );
        let par_s = t0.elapsed().as_secs_f64();
        assert_eq!(
            serial, par,
            "estimate_par must reproduce the serial estimate"
        );
        serial_s / par_s
    })
}

/// Runs `reps` set-ups, recording their times; returns the last.
fn timed_setups(seed: u64, sizes: Sizes, reps: usize, times: &mut Vec<f64>) -> Workload {
    let mut last = None;
    for _ in 0..reps {
        drop(last.take());
        let t0 = Instant::now();
        let w = Workload::setup(seed, sizes, &mut Tracer::new(false));
        times.push(t0.elapsed().as_secs_f64());
        last = Some(w);
    }
    last.expect("at least one set-up")
}

pub fn run(opts: &Opts) -> Outcome {
    let sizes = Sizes::full();
    let mut setup_times = Vec::new();
    let mut w = timed_setups(opts.seed, sizes, crate::SETUP_REPS / 2, &mut setup_times);
    let timed = run_timed(&mut w, opts.seconds, None);
    let peak_rss_mb = crate::peak_rss_mb();
    let digest = Digest::of(&timed.verdicts, POOL);
    let mut notes = vec![
        format!("jobs={} wall_s={:.3}", timed.verdicts.len(), timed.wall_s),
        format!("digest={:016x} over the first {POOL} jobs", digest.0),
    ];
    let tail = summary::tail(&timed.latencies_ms);
    notes.push(crate::tail_note(tail.1, timed.latencies_ms.len()));
    let mut failed = check(&mut w, &timed.verdicts);
    notes.push(crate::expected::check(
        &opts.workload,
        opts.seed,
        digest,
        &mut failed[..POOL],
    ));

    let metrics = if opts.trace {
        drop(w);
        let mut tr = Tracer::new(true);
        let mut w = Workload::setup(opts.seed, sizes, &mut tr);
        let traced = run_traced(&mut w, timed.verdicts.len(), &mut tr);
        let traced_digest = Digest::of(&traced.verdicts, POOL);
        for ((flag, a), b) in failed.iter_mut().zip(&traced.verdicts).zip(&timed.verdicts) {
            *flag |= a != b;
        }
        notes.push(format!(
            "traced digest={:016x} ({})",
            traced_digest.0,
            if traced_digest == digest {
                "equal"
            } else {
                "DIFFERENT"
            }
        ));
        let cache = w.cache.stats();
        let penalty = pool_first_call_penalty_ms(&mut w);
        let speedup = par_speedup(&mut w, opts.cores);
        let jobs = traced.verdicts.len() as f64;
        let job = tr.totals("job", None);
        let prep = tr.totals("prep.prepare", None);
        let trials = tr.totals("engine.run_trials", None);
        let shape_ms = |s: Shape| tr.totals("engine.run_trials", Some(s.tag())).self_ms_each();
        let setup_ms = |name| tr.totals(name, None).total_ns as f64 / 1e6;
        let mut m = layer_metrics_common(&LayerInputs {
            graph_build_ms: setup_ms("graph.build"),
            labeling_ms: setup_ms("labeling.honest"),
            cold_prepare_ms: setup_ms("prep.cold_prepare"),
            prepare_ms: prep.self_ms_each(),
            prep_share: summary::ratio(prep.self_ns as f64, job.total_ns as f64),
            hit_rate: summary::ratio(traced.hits as f64, (traced.hits + traced.misses) as f64),
            misses_per_job: summary::ratio(traced.misses as f64, jobs),
            hit_job_share: summary::ratio(traced.hit_jobs as f64, jobs),
            table_slots: cache.table_slots_reserved as f64,
            retained_key_bits: (cache.retained_bytes * 8) as f64,
            run_trials_ms: trials.self_ms_each(),
            engine_share: summary::ratio(trials.self_ns as f64, job.total_ns as f64),
            ns_per_port_trial: summary::ratio(trials.self_ns as f64, traced.port_trials as f64),
            shape_ms: [
                shape_ms(Shape::Multiround),
                shape_ms(Shape::BroadcastT8),
                shape_ms(Shape::FaultedT1),
                shape_ms(Shape::FaultedMultiround),
            ],
            first_call_penalty_ms: penalty,
            accept_frac: summary::trial_fraction(&traced.verdicts, |v| v.accepts),
            degraded_frac: summary::trial_fraction(&traced.verdicts, |v| v.degraded_trials),
            stats_overhead_ms: job.self_ms_each(),
            par_speedup: speedup,
            trace_overhead_frac: 1.0 - summary::ratio(jobs / traced.wall_s, timed.jobs_per_s()),
        });
        m.extend(service_metrics_absent());
        let path = crate::trace_path(opts);
        tr.write(&path, &crate::trace_meta(opts, digest))
            .expect("write the span file");
        notes.push(format!("spans written to {}", path.display()));
        m
    } else {
        drop(w);
        timed_setups(opts.seed, sizes, crate::SETUP_REPS / 2, &mut setup_times);
        vec![
            Metric::new(
                "setup_s",
                summary::median(&setup_times).expect("at least one set-up"),
                "s",
            ),
            Metric::new("jobs_per_s", timed.jobs_per_s(), "1/s"),
            Metric::new(
                "job_p50_ms",
                summary::median(&timed.latencies_ms).expect("at least one job"),
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

/// The per-layer values every workload reports, in `BENCHMARK.json` order.
pub struct LayerInputs {
    pub graph_build_ms: f64,
    pub labeling_ms: f64,
    pub cold_prepare_ms: f64,
    pub prepare_ms: f64,
    pub prep_share: f64,
    pub hit_rate: f64,
    pub misses_per_job: f64,
    pub hit_job_share: f64,
    pub table_slots: f64,
    pub retained_key_bits: f64,
    pub run_trials_ms: f64,
    pub engine_share: f64,
    pub ns_per_port_trial: f64,
    /// `run_trials` self time per job of the multiround, broadcast t=8,
    /// faulted t=1 and faulted multiround shapes.
    pub shape_ms: [f64; 4],
    pub first_call_penalty_ms: f64,
    pub accept_frac: f64,
    pub degraded_frac: f64,
    pub stats_overhead_ms: f64,
    pub par_speedup: f64,
    pub trace_overhead_frac: f64,
}

pub fn layer_metrics_common(l: &LayerInputs) -> Vec<Metric> {
    vec![
        Metric::new("graph.build_ms", l.graph_build_ms, "ms"),
        Metric::new("labeling.honest_ms", l.labeling_ms, "ms"),
        Metric::new("prep.cold_prepare_ms", l.cold_prepare_ms, "ms"),
        Metric::new("prep.prepare_ms", l.prepare_ms, "ms"),
        Metric::new("prep.share", l.prep_share, "1"),
        Metric::new("prep.cache_hit_rate", l.hit_rate, "1"),
        Metric::new("prep.misses_per_job", l.misses_per_job, "count"),
        Metric::new("prep.hit_job_share", l.hit_job_share, "1"),
        Metric::new("prep.table_slots_reserved", l.table_slots, "count"),
        Metric::new("prep.retained_key_bits", l.retained_key_bits, "bits"),
        Metric::new("engine.run_trials_ms", l.run_trials_ms, "ms"),
        Metric::new("engine.share", l.engine_share, "1"),
        Metric::new("engine.ns_per_port_trial", l.ns_per_port_trial, "ns"),
        Metric::new("engine.run_trials_ms.multiround", l.shape_ms[0], "ms"),
        Metric::new("engine.run_trials_ms.broadcast_t8", l.shape_ms[1], "ms"),
        Metric::new("engine.run_trials_ms.faulted_t1", l.shape_ms[2], "ms"),
        Metric::new(
            "engine.run_trials_ms.faulted_multiround",
            l.shape_ms[3],
            "ms",
        ),
        Metric::new(
            "engine.first_call_penalty_ms",
            l.first_call_penalty_ms,
            "ms",
        ),
        Metric::new("engine.accept_frac", l.accept_frac, "1"),
        Metric::new("engine.degraded_frac", l.degraded_frac, "1"),
        Metric::new("stats.overhead_ms", l.stats_overhead_ms, "ms"),
        Metric::new("stats.par_speedup", l.par_speedup, "1"),
        Metric::new("trace.overhead_frac", l.trace_overhead_frac, "1"),
    ]
}

/// The service-side layer metrics, all 0 on the in-process workload,
/// whose jobs never touch the wire, the registry, the queue or a socket.
fn service_metrics_absent() -> Vec<Metric> {
    crate::tcp::SERVICE_METRICS
        .iter()
        .map(|&(name, unit)| Metric::new(name, 0.0, unit))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Sizes {
        Sizes {
            big_n: 128,
            clique_n: 24,
            trials: [2, 3, 2, 8],
        }
    }

    fn digest(seed: u64) -> Digest {
        let mut w = Workload::setup(seed, tiny(), &mut Tracer::new(false));
        let timed = run_timed(&mut w, 0.0, Some(POOL));
        assert!(
            !check(&mut w, &timed.verdicts).contains(&true),
            "seed {seed}"
        );
        Digest::of(&timed.verdicts, POOL)
    }

    #[test]
    fn digests_are_stable_per_seed() {
        for seed in [1, 2] {
            assert_eq!(digest(seed), digest(seed), "seed {seed}");
        }
    }

    #[test]
    fn tampered_job_must_reject() {
        let mut w = Workload::setup(4, tiny(), &mut Tracer::new(false));
        let mut timed = run_timed(&mut w, 0.0, Some(POOL));
        assert!(!check(&mut w, &timed.verdicts).contains(&true));
        // A verifier that accepted the tampered labeling everywhere would
        // agree with a reference run by the same verifier; the expectation
        // still fails it.
        let tampered = &mut timed.verdicts[3];
        tampered.accepts = tampered.trials;
        assert_eq!(check(&mut w, &timed.verdicts), [false, false, false, true]);
    }

    #[test]
    fn traced_replay_reproduces_the_untraced_verdicts() {
        let mut w = Workload::setup(3, tiny(), &mut Tracer::new(false));
        let n = 2 * POOL;
        let timed = run_timed(&mut w, 0.0, Some(n));
        let mut tr = Tracer::new(true);
        let mut w = Workload::setup(3, tiny(), &mut tr);
        let traced = run_traced(&mut w, n, &mut tr);
        assert_eq!(traced.verdicts, timed.verdicts);
        assert_eq!(tr.totals("job", None).count, n as u64);
        assert_eq!(tr.totals("engine.run_trials", None).count, n as u64);
    }
}
