//! Engine-throughput bench: rounds/sec for deterministic and randomized
//! rounds across path/cycle/clique at n ∈ {64, 256, 1024}, the
//! acceptance-probability comparison against the straightforward
//! per-trial-allocation baseline (the pre-refactor engine: one freshly
//! key-expanded ChaCha `StdRng` per (node, port), nested
//! `Vec<Vec<BitString>>` certificates, fresh buffers every trial), and the
//! adversary-sweep workload (64 forged labelings estimated with one shared
//! `PrepCache` vs a full preparation per labeling).
//!
//! Besides the criterion-style console report, the bench emits
//! machine-readable results to `BENCH_engine.json` at the workspace root so
//! later PRs have a perf trajectory. The `faults` workload records the
//! graceful-degradation curve — acceptance of the honest and tampered
//! 256-cycle spanning tree as drop/corrupt/crash rates grow — plus the two
//! correctness bits the gate enforces (`zero_fault_identical`,
//! `soundness_preserved`). The `service` workload pushes a mixed
//! multi-tenant batch through the resident `rpls_service::Service` and
//! records jobs/s, the shared-cache hit rate, and the
//! `verdicts_identical` bit (service replies equal direct engine
//! estimates exactly) that the gate enforces speed-independently. The
//! `service_chaos` workload drives the same service through the retrying
//! client and the seeded `ChaosProxy` byte-fault interposer twice with
//! one chaos seed, and records three more speed-independent bits the
//! gate enforces: delivered verdicts bit-identical to direct engine
//! runs, replay-identical outcome/retry/shed accounting, and a balanced
//! shed/fault ledger.
//!
//! Setting `BENCH_ENGINE_SMOKE=1` runs a reduced matrix (~15 s total):
//! the cheap acceptance runners keep their full 10k trials — their ratios
//! are what the gate checks — while the two slow ones (unprepared,
//! alloc-baseline) run a tenth and have their strictly-linear cost scaled
//! back up, and the round-matrix timing budgets shrink. The result goes to
//! `BENCH_engine_smoke.json` — the PR-time CI job runs this and feeds it
//! to the `bench_gate` binary, which fails the build if the within-run
//! throughput ratios or the tracked speedups regress more than 2× against
//! the committed `BENCH_engine.json`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rpls_bits::BitString;
use rpls_core::engine::{self, mix_seed, MessagePattern, RunSpec, SeedSource};
use rpls_core::stats::EstimateOpts;
use rpls_core::{
    CertView, CertificateBuffer, CompiledRpls, Configuration, DetView, Labeling, Pls, PrepCache,
    ProbeSketch, RandView, Received, RoundScratch, Rpls, Unprepared,
};
use rpls_graph::{generators, Graph, NodeId, Port};
use rpls_schemes::spanning_tree::{spanning_tree_config, SpanningTreePls};
use rpls_service::chaos::{ChaosPlan, ChaosProxy};
use rpls_service::client::{self, ClientError, RetryPolicy};
use rpls_service::registry::{self, request_skeleton};
use rpls_service::service::{Service, ServiceStats};
use rpls_service::tcp::{FrontConfig, TcpFront};
use rpls_service::wire::{JobReply, JobRequest, WireFaults};
use std::fmt::Write as _;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// An engine-pure randomized scheme: `bits` fresh random bits per (node,
/// port), constant-time verification. Isolates engine overhead — RNG
/// setup, certificate transport, view construction — from scheme logic.
struct RandomPayload {
    bits: usize,
}

impl Rpls for RandomPayload {
    fn name(&self) -> String {
        format!("random-payload({})", self.bits)
    }
    fn label(&self, config: &Configuration) -> Labeling {
        Labeling::empty(config.node_count())
    }
    fn certify(&self, view: &CertView<'_>, port: Port, rng: &mut dyn Rng) -> BitString {
        let mut out = BitString::with_capacity(self.bits);
        self.certify_into(view, port, rng, &mut out);
        out
    }
    fn certify_into(
        &self,
        _view: &CertView<'_>,
        _port: Port,
        rng: &mut dyn Rng,
        out: &mut BitString,
    ) {
        out.clear();
        let mut remaining = self.bits;
        while remaining > 0 {
            let width = remaining.min(64) as u32;
            let mask = if width == 64 {
                u64::MAX
            } else {
                (1 << width) - 1
            };
            out.push_u64(rng.next_u64() & mask, width);
            remaining -= width as usize;
        }
    }
    fn verify(&self, view: &RandView<'_>) -> bool {
        view.received.iter().all(|c| c.len() == self.bits)
    }
}

/// A trivial deterministic scheme for the deterministic-round baseline:
/// empty labels, each node checks its own degree against its view.
struct DegreeCheck;

impl Pls for DegreeCheck {
    fn name(&self) -> String {
        "degree-check".into()
    }
    fn label(&self, config: &Configuration) -> Labeling {
        Labeling::empty(config.node_count())
    }
    fn verify(&self, view: &DetView<'_>) -> bool {
        view.neighbor_labels.len() == view.local.degree()
    }
}

/// One randomized round the way the pre-refactor engine ran it: a freshly
/// key-expanded `StdRng` per (node, port) and per-trial nested certificate
/// storage. This is the baseline the ≥ 5× acceptance criterion is measured
/// against.
fn baseline_round<S: Rpls + ?Sized>(
    scheme: &S,
    config: &Configuration,
    labeling: &Labeling,
    seed: u64,
) -> bool {
    let g = config.graph();
    let nested: Vec<Vec<BitString>> = g
        .nodes()
        .map(|v| {
            let view = CertView {
                local: engine::local_context(config, v),
                label: labeling.get(v),
            };
            (0..g.degree(v))
                .map(|p| {
                    let mut rng = StdRng::seed_from_u64(mix_seed(seed, v.index() as u64, p as u64));
                    scheme.certify(&view, Port::from_rank(p), &mut rng)
                })
                .collect()
        })
        .collect();
    // Fresh transport buffer per trial, as the old path materialised fresh
    // per-node delivery vectors.
    let mut buffer = CertificateBuffer::new();
    for certs in &nested {
        for c in certs {
            buffer.push(c);
        }
    }
    let delivery = config.delivery();
    let port_base = config.port_base();
    g.nodes().all(|v| {
        let lo = port_base[v.index()] as usize;
        let hi = port_base[v.index() + 1] as usize;
        let view = RandView {
            local: engine::local_context(config, v),
            label: labeling.get(v),
            received: Received::new(&buffer, &delivery[lo..hi]),
        };
        scheme.verify(&view)
    })
}

/// `acceptance_probability` as the seed implemented it: one fully
/// allocating round per trial.
fn baseline_acceptance_probability<S: Rpls + ?Sized>(
    scheme: &S,
    config: &Configuration,
    labeling: &Labeling,
    trials: usize,
    seed: u64,
) -> f64 {
    let accepts = (0..trials)
        .filter(|&t| baseline_round(scheme, config, labeling, mix_seed(seed, t as u64, 0)))
        .count();
    accepts as f64 / trials as f64
}

/// Whether the reduced PR-time smoke matrix was requested.
fn smoke_mode() -> bool {
    std::env::var("BENCH_ENGINE_SMOKE").is_ok_and(|v| v == "1")
}

fn family(name: &str, n: usize) -> Graph {
    match name {
        "path" => generators::path(n),
        "cycle" => generators::cycle(n),
        "clique" => generators::complete(n),
        other => panic!("unknown family {other}"),
    }
}

/// Times `f` adaptively: enough iterations to fill ~`budget_ms`, at least
/// `min_iters`. Returns seconds per iteration.
fn time_per_iter<F: FnMut()>(mut f: F, budget_ms: u64, min_iters: usize) -> f64 {
    // Warm-up + estimate.
    let t0 = Instant::now();
    f();
    let est = t0.elapsed().as_secs_f64().max(1e-9);
    let iters = ((budget_ms as f64 / 1e3 / est) as usize).clamp(min_iters, 2_000_000);
    let t1 = Instant::now();
    for _ in 0..iters {
        f();
    }
    t1.elapsed().as_secs_f64() / iters as f64
}

struct MatrixRow {
    family: &'static str,
    n: usize,
    det_rounds_per_sec: f64,
    rand_rounds_per_sec: f64,
    baseline_rounds_per_sec: f64,
}

fn bench_round_matrix(c: &mut Criterion, rows: &mut Vec<MatrixRow>) {
    let scheme = RandomPayload { bits: 16 };
    let det = DegreeCheck;
    let mut group = c.benchmark_group("engine_rounds");
    group.sample_size(10);
    for fam in ["path", "cycle", "clique"] {
        for n in [64usize, 256, 1024] {
            let config = Configuration::plain(family(fam, n));
            let labeling = Labeling::empty(n);
            let mut scratch = RoundScratch::new();

            // The criterion console report duplicates the explicit
            // timings below; smoke mode skips it and keeps only the JSON
            // measurements the gate consumes.
            if !smoke_mode() {
                group.bench_with_input(BenchmarkId::new(format!("det/{fam}"), n), &n, |b, _| {
                    b.iter(|| black_box(engine::run_deterministic(&det, &config, &labeling)));
                });
                group.bench_with_input(BenchmarkId::new(format!("rand/{fam}"), n), &n, |b, _| {
                    b.iter(|| {
                        black_box(engine::run_prepared(
                            &RunSpec::trial(1),
                            &Unprepared::new(&scheme, &config, &labeling),
                            &config,
                            &mut scratch,
                        ))
                    });
                });
            }

            // Explicit timings for the JSON trajectory (bigger budget on
            // the big clique so at least a few full rounds are measured;
            // smoke mode shrinks every budget to keep the PR job fast).
            let full = if fam == "clique" && n == 1024 {
                400
            } else {
                150
            };
            let budget = if smoke_mode() { full / 3 } else { full };
            let det_t = time_per_iter(
                || {
                    black_box(engine::run_deterministic(&det, &config, &labeling));
                },
                budget,
                3,
            );
            let rand_t = time_per_iter(
                || {
                    black_box(engine::run_prepared(
                        &RunSpec::trial(1),
                        &Unprepared::new(&scheme, &config, &labeling),
                        &config,
                        &mut scratch,
                    ));
                },
                budget,
                3,
            );
            let base_t = time_per_iter(
                || {
                    black_box(baseline_round(&scheme, &config, &labeling, 1));
                },
                budget,
                3,
            );
            rows.push(MatrixRow {
                family: fam,
                n,
                det_rounds_per_sec: 1.0 / det_t,
                rand_rounds_per_sec: 1.0 / rand_t,
                baseline_rounds_per_sec: 1.0 / base_t,
            });
        }
    }
    group.finish();
}

struct AcceptanceResult {
    scheme: String,
    trials: usize,
    batched_secs: f64,
    fast_secs: f64,
    unprepared_secs: f64,
    baseline_secs: f64,
    parallel_secs: f64,
    speedup: f64,
    prepared_speedup: f64,
    batched_speedup: f64,
    parallel_speedup: f64,
    serial_estimate: f64,
    parallel_estimate: f64,
}

/// One acceptance-probability workload: the batched trial engine (what
/// `stats::acceptance_probability` runs today), the prepared scalar
/// per-round loop (PR 2's fast path, kept for the `prepared_speedup`
/// trajectory), the unprepared per-round loop, the parallel runner, and
/// the alloc-baseline — all over the same scheme and labeling.
trait Workload {
    fn batched(&self, trials: usize, seed: u64) -> f64;
    fn fast(&self, trials: usize, seed: u64) -> f64;
    fn unprepared(&self, trials: usize, seed: u64) -> f64;
    fn parallel(&self, trials: usize, seed: u64) -> f64;
    fn baseline(&self, trials: usize, seed: u64) -> f64;
}

struct SchemeWorkload<'a, S: Rpls + Sync> {
    scheme: &'a S,
    config: &'a Configuration,
    labeling: &'a Labeling,
}

impl<S: Rpls + Sync> Workload for SchemeWorkload<'_, S> {
    fn batched(&self, trials: usize, seed: u64) -> f64 {
        rpls_core::stats::acceptance_probability(
            self.scheme,
            self.config,
            self.labeling,
            trials,
            seed,
        )
    }
    /// The prepared *scalar* path: prepare once, then one
    /// `engine::run_prepared` trial per trial seed with the estimator's
    /// seed derivation. This is exactly what `acceptance_probability` ran
    /// before the batched engine, so `prepared_speedup` keeps its meaning
    /// across the JSON trajectory.
    fn fast(&self, trials: usize, seed: u64) -> f64 {
        let mut scratch = RoundScratch::new();
        let prepared = self.scheme.prepare(self.config, self.labeling, trials);
        let accepts = (0..trials)
            .filter(|&t| {
                engine::run_prepared(
                    &RunSpec::trial(rpls_core::stats::trial_seed(seed, t as u64)),
                    &*prepared,
                    self.config,
                    &mut scratch,
                )
                .accepted
            })
            .count();
        accepts as f64 / trials as f64
    }
    /// The pre-prepared-layer estimator (the PR-1 shape): the scratch-reuse
    /// engine, but re-parsing labels and rebuilding polynomials every
    /// round. Uses the same per-trial seed derivation as
    /// `acceptance_probability`, so the estimate must come out identical.
    fn unprepared(&self, trials: usize, seed: u64) -> f64 {
        let mut scratch = RoundScratch::new();
        let accepts = (0..trials)
            .filter(|&t| {
                engine::run_prepared(
                    &RunSpec::trial(rpls_core::stats::trial_seed(seed, t as u64)),
                    &Unprepared::new(self.scheme, self.config, self.labeling),
                    self.config,
                    &mut scratch,
                )
                .accepted
            })
            .count();
        accepts as f64 / trials as f64
    }
    fn parallel(&self, trials: usize, seed: u64) -> f64 {
        rpls_core::stats::estimate_par(
            self.scheme,
            self.config,
            self.labeling,
            &RunSpec::trial(seed),
            &EstimateOpts::new(trials),
            None,
        )
        .acceptance()
    }
    fn baseline(&self, trials: usize, seed: u64) -> f64 {
        baseline_acceptance_probability(self.scheme, self.config, self.labeling, trials, seed)
    }
}

fn bench_acceptance_10k(results: &mut Vec<AcceptanceResult>) {
    let n = 256;
    let trials = 10_000;
    // Smoke mode keeps the full 10k trials on the cheap runners (batched,
    // prepared-scalar, parallel — their ratios are what the gate checks)
    // and runs the two slow ones (unprepared, alloc-baseline) at a tenth,
    // scaling their measured seconds back up. Both are strictly per-trial
    // linear — no preparation, nothing amortised — so the extrapolated
    // ratios stay comparable to the committed full run, which is what
    // makes a 2x gate tolerance meaningful.
    let heavy_scale = if smoke_mode() { 10 } else { 1 };
    let heavy_trials = trials / heavy_scale;
    let seed = 0xA11CE;

    // Workload 1: the engine-pure scheme — isolates the engine speedup.
    let config = Configuration::plain(generators::cycle(n));
    let labeling = Labeling::empty(n);
    let payload = RandomPayload { bits: 16 };
    // Workload 2: a real compiled scheme end to end. Under the honest
    // labeling every fingerprint probe is statically satisfied, so this
    // row measures the batched engine's best case.
    let st_config = spanning_tree_config(&config, rpls_graph::NodeId::new(0));
    let st = CompiledRpls::new(SpanningTreePls::new());
    let st_labels = Rpls::label(&st, &st_config);
    // Workload 3: the same compiled scheme with one corrupted claimed
    // replica — fractional acceptance, so the batched path runs its
    // per-trial GF(p) probe kernel instead of the static shortcut.
    let tampered_labels = {
        let mut tampered = st_labels.clone();
        let node = rpls_graph::NodeId::new(5);
        let target = tampered.get(node).len() / 2;
        let flipped: rpls_bits::BitString = tampered
            .get(node)
            .iter()
            .enumerate()
            .map(|(i, b)| if i == target { !b } else { b })
            .collect();
        tampered.set(node, flipped);
        tampered
    };

    let run = |name: &str, results: &mut Vec<AcceptanceResult>, w: &dyn Workload| {
        // Since lazy tables, the compiled batched runs complete in well
        // under a millisecond — a single sample would put the CI-gated
        // `batched_speedup` one scheduler hiccup away from a spurious 2×
        // regression, so the batched timing is a min-of-3.
        let mut batched_secs = f64::INFINITY;
        let mut serial_estimate = 0.0;
        for _ in 0..3 {
            let t0 = Instant::now();
            serial_estimate = w.batched(trials, seed);
            batched_secs = batched_secs.min(t0.elapsed().as_secs_f64());
        }

        let t1 = Instant::now();
        let prepared_estimate = w.fast(trials, seed);
        let fast_secs = t1.elapsed().as_secs_f64();

        let t2 = Instant::now();
        let parallel_estimate = w.parallel(trials, seed);
        let parallel_secs = t2.elapsed().as_secs_f64();

        let t3 = Instant::now();
        let unprepared_estimate = w.unprepared(heavy_trials, seed);
        let unprepared_secs = t3.elapsed().as_secs_f64() * heavy_scale as f64;

        let t4 = Instant::now();
        let _ = w.baseline(heavy_trials, seed);
        let baseline_secs = t4.elapsed().as_secs_f64() * heavy_scale as f64;

        println!(
            "bench: acceptance_cycle256/{name} ({trials} trials) ... batched \
             {batched_secs:.4}s | prepared-scalar {fast_secs:.3}s | unprepared \
             {unprepared_secs:.3}s | parallel {parallel_secs:.3}s | alloc-baseline \
             {baseline_secs:.3}s | speedup {:.2}x | prepared speedup {:.2}x | batched speedup \
             {:.2}x | parallel speedup {:.2}x",
            baseline_secs / fast_secs,
            unprepared_secs / fast_secs,
            fast_secs / batched_secs,
            baseline_secs / parallel_secs,
        );
        assert!(
            serial_estimate == parallel_estimate,
            "serial and parallel estimates must be bit-identical"
        );
        assert!(
            serial_estimate == prepared_estimate,
            "batched and prepared-scalar estimates must be bit-identical"
        );
        // The unprepared runner may have used the reduced trial count;
        // compare it against the batched engine at the same count.
        let unprepared_reference = if heavy_trials == trials {
            serial_estimate
        } else {
            w.batched(heavy_trials, seed)
        };
        assert!(
            unprepared_reference == unprepared_estimate,
            "prepared and unprepared estimates must be bit-identical"
        );
        results.push(AcceptanceResult {
            scheme: name.to_string(),
            trials,
            batched_secs,
            fast_secs,
            unprepared_secs,
            baseline_secs,
            parallel_secs,
            speedup: baseline_secs / fast_secs,
            prepared_speedup: unprepared_secs / fast_secs,
            batched_speedup: fast_secs / batched_secs,
            parallel_speedup: baseline_secs / parallel_secs,
            serial_estimate,
            parallel_estimate,
        });
    };

    run(
        "random_payload16",
        results,
        &SchemeWorkload {
            scheme: &payload,
            config: &config,
            labeling: &labeling,
        },
    );
    run(
        "compiled_spanning_tree",
        results,
        &SchemeWorkload {
            scheme: &st,
            config: &st_config,
            labeling: &st_labels,
        },
    );
    run(
        "compiled_spanning_tree_tampered",
        results,
        &SchemeWorkload {
            scheme: &st,
            config: &st_config,
            labeling: &tampered_labels,
        },
    );
}

/// The adversary-sweep workload: K forged candidate labelings (single-bit
/// mutations of the honest one, the hill-climber's move set) each
/// acceptance-estimated on the 256-cycle, once with one shared `PrepCache`
/// across the whole sweep (`sweep_secs`, what `adversary::random_forge_rpls`
/// does since the cached-prepare layer) and once with a full preparation
/// per candidate (`per_prepare_secs`, the pre-cache behaviour).
/// `prep_amortized_speedup` is their ratio; estimates must be bit-identical.
struct SweepResult {
    labelings: usize,
    trials: usize,
    sweep_secs: f64,
    per_prepare_secs: f64,
    prep_amortized_speedup: f64,
    estimates_identical: bool,
}

fn bench_adversary_sweep(results: &mut Vec<SweepResult>) {
    let n = 256usize;
    let labelings = 64usize;
    // Screening resolution: the hill-climber's cheap per-candidate filter.
    // At higher trial counts the per-trial probe kernel (identical on both
    // paths) dominates and the row would measure the kernel, not the
    // preparation amortisation it exists to gate.
    let trials = 8usize;
    let seed = 0xF0C5u64;
    let config = spanning_tree_config(
        &Configuration::plain(generators::cycle(n)),
        rpls_graph::NodeId::new(0),
    );
    let st = CompiledRpls::new(SpanningTreePls::new());
    let honest = Rpls::label(&st, &config);
    let mut rng = StdRng::seed_from_u64(7);
    let candidates: Vec<Labeling> = (0..labelings)
        .map(|_| {
            let mut lab = honest.clone();
            let v = rpls_graph::NodeId::new(rng.next_u64() as usize % n);
            let target = rng.next_u64() as usize % lab.get(v).len();
            let flipped: BitString = lab
                .get(v)
                .iter()
                .enumerate()
                .map(|(i, b)| if i == target { !b } else { b })
                .collect();
            lab.set(v, flipped);
            lab
        })
        .collect();

    let mut scratch = RoundScratch::new();

    // Both paths are timed as min-of-3 repetitions (each repetition of the
    // cached path starts from a *fresh* cache, so warm state never leaks
    // between repetitions): the whole sweep runs in tens of milliseconds,
    // and the gate compares the ratio, so jitter robustness matters more
    // than averaging.
    let reps = 3usize;
    let mut sweep_secs = f64::INFINITY;
    let mut cached_estimates = Vec::new();
    for _ in 0..reps {
        let mut cache = PrepCache::new();
        let t0 = Instant::now();
        let estimates: Vec<f64> = candidates
            .iter()
            .map(|lab| {
                rpls_core::stats::estimate_with(
                    &st,
                    &config,
                    lab,
                    &RunSpec::trial(seed),
                    &EstimateOpts::new(trials),
                    &mut scratch,
                    &mut cache,
                )
                .acceptance()
            })
            .collect();
        sweep_secs = sweep_secs.min(t0.elapsed().as_secs_f64());
        cached_estimates = estimates;
    }

    // Full preparation per candidate (a fresh throwaway cache each time).
    let mut per_prepare_secs = f64::INFINITY;
    let mut fresh_estimates = Vec::new();
    for _ in 0..reps {
        let t1 = Instant::now();
        let estimates: Vec<f64> = candidates
            .iter()
            .map(|lab| {
                rpls_core::stats::estimate_with(
                    &st,
                    &config,
                    lab,
                    &RunSpec::trial(seed),
                    &EstimateOpts::new(trials),
                    &mut scratch,
                    &mut PrepCache::new(),
                )
                .acceptance()
            })
            .collect();
        per_prepare_secs = per_prepare_secs.min(t1.elapsed().as_secs_f64());
        fresh_estimates = estimates;
    }

    let estimates_identical = cached_estimates == fresh_estimates;
    let prep_amortized_speedup = per_prepare_secs / sweep_secs;
    println!(
        "bench: adversary_sweep_cycle256 ({labelings} labelings x {trials} trials) ... shared \
         cache {sweep_secs:.4}s | per-labeling prepare {per_prepare_secs:.4}s | amortized \
         speedup {prep_amortized_speedup:.2}x | estimates identical {estimates_identical}"
    );
    assert!(
        estimates_identical,
        "cached and per-prepare sweep estimates must be bit-identical"
    );
    results.push(SweepResult {
        labelings,
        trials,
        sweep_secs,
        per_prepare_secs,
        prep_amortized_speedup,
        estimates_identical,
    });
}

/// One row of the t-round trade-off sweep: the per-round communication and
/// rejection behaviour of a scheme verified over `t` rounds. The
/// scale-free metric the gate tracks is `bits_shrink` — this workload's
/// `t = 1` per-round bits divided by this row's — which grows ≈ t for the
/// κ-bit exchange-labels baseline (proof-streaming: the label is split
/// into t chunks) and logarithmically for the compiled scheme (fingerprint
/// streaming: each round fingerprints a κ/t-bit slice).
struct TradeoffRow {
    scheme: &'static str,
    t: usize,
    trials: usize,
    max_bits_per_round: usize,
    total_bits: usize,
    bits_shrink: f64,
    secs: f64,
    honest_estimate: f64,
    tampered_estimate: f64,
    /// Mean 1-based rejection round of the tampered labeling (0 when it
    /// never rejected).
    mean_reject_round: f64,
    /// `t = 1` rows only: whether the multi-round estimates and bits were
    /// bit-identical to the batched one-round path within this run.
    t1_identical: Option<bool>,
}

fn bench_tradeoff(results: &mut Vec<TradeoffRow>) {
    let n = 256usize;
    let seed = 0x7EADu64;
    let config = spanning_tree_config(
        &Configuration::plain(generators::cycle(n)),
        rpls_graph::NodeId::new(0),
    );
    let compiled = CompiledRpls::new(SpanningTreePls::new());
    let exchange = rpls_core::scheme::ExchangeLabels::new(SpanningTreePls::new());

    let tamper = |labeling: &Labeling| -> Labeling {
        let mut out = labeling.clone();
        let node = rpls_graph::NodeId::new(5);
        let target = out.get(node).len() / 2;
        let flipped: BitString = out
            .get(node)
            .iter()
            .enumerate()
            .map(|(i, b)| if i == target { !b } else { b })
            .collect();
        out.set(node, flipped);
        out
    };

    let sweep =
        |name: &'static str, scheme: &dyn Rpls, trials: usize, results: &mut Vec<TradeoffRow>| {
            let honest = scheme.label(&config);
            let tampered = tamper(&honest);
            let mut scratch = RoundScratch::new();
            let one_round_honest =
                rpls_core::stats::acceptance_probability(scheme, &config, &honest, trials, seed);
            let one_round_tampered =
                rpls_core::stats::acceptance_probability(scheme, &config, &tampered, trials, seed);
            let one_round_bits = engine::run_prepared(
                &RunSpec::trial(1),
                &Unprepared::new(scheme, &config, &honest),
                &config,
                &mut scratch,
            )
            .max_bits_per_round;

            let mut t1_bits = 0usize;
            for t in [1usize, 2, 4, 8, 16] {
                // Honest estimate timing: min-of-3, like the batched rows —
                // the compiled schedule completes in well under a millisecond.
                let mut secs = f64::INFINITY;
                let mut honest_estimate = 0.0;
                for _ in 0..3 {
                    let t0 = Instant::now();
                    honest_estimate = rpls_core::stats::estimate(
                        scheme,
                        &config,
                        &honest,
                        &RunSpec::trial(seed).with_rounds(t),
                        &EstimateOpts::new(trials),
                    )
                    .acceptance();
                    secs = secs.min(t0.elapsed().as_secs_f64());
                }
                let report = engine::run(
                    &RunSpec::trial(seed).with_rounds(t),
                    scheme,
                    &config,
                    &honest,
                );
                let profile = rpls_core::stats::rounds_to_reject_profile(
                    scheme, &config, &tampered, t, trials, seed,
                );
                let tampered_estimate = profile.accepts as f64 / trials as f64;
                if t == 1 {
                    t1_bits = report.max_bits_per_round;
                }
                let t1_identical = (t == 1).then_some(
                    honest_estimate == one_round_honest
                        && tampered_estimate == one_round_tampered
                        && report.max_bits_per_round == one_round_bits,
                );
                let row = TradeoffRow {
                    scheme: name,
                    t,
                    trials,
                    max_bits_per_round: report.max_bits_per_round,
                    total_bits: report.total_bits,
                    bits_shrink: t1_bits as f64 / report.max_bits_per_round.max(1) as f64,
                    secs,
                    honest_estimate,
                    tampered_estimate,
                    mean_reject_round: profile.mean_reject_round().unwrap_or(0.0),
                    t1_identical,
                };
                println!(
                    "bench: tradeoff_cycle256/{name} t={t} ... {} bits/round (shrink {:.2}x) | \
                 honest {honest_estimate} in {secs:.4}s | tampered {tampered_estimate:.4} | mean \
                 reject round {:.2}",
                    row.max_bits_per_round, row.bits_shrink, row.mean_reject_round,
                );
                assert!(
                    honest_estimate == 1.0,
                    "{name} t={t}: honest multi-round estimate {honest_estimate} (one-sided \
                 completeness must be perfect)"
                );
                if let Some(identical) = row.t1_identical {
                    assert!(
                        identical,
                        "{name}: t = 1 must match the batched one-round path"
                    );
                }
                results.push(row);
            }
        };

    // The compiled rows run the batched chunked-fingerprint kernel (cheap
    // at any trial count); the exchange-labels baseline materialises κ-bit
    // certificates per trial, so it runs fewer — its gated metric
    // (`bits_shrink` ≈ t) is deterministic and does not depend on trials.
    sweep("compiled_spanning_tree", &compiled, 4000, results);
    sweep("exchange_spanning_tree", &exchange, 1000, results);
}

/// One row of the fault-tolerance sweep: acceptance of the honest and
/// tampered spanning-tree labeling on the 256-cycle under one fault spec,
/// estimated through the faulted batched engine. Two correctness bits are
/// gated: `zero_fault_identical` (the transparent row reproduces the
/// fault-free estimates bit for bit) and `soundness_preserved` (the
/// faulted tampered acceptance never exceeds the clean one — faults may
/// only flip accept → reject).
struct FaultRow {
    kind: &'static str,
    rate: f64,
    trials: usize,
    honest_acceptance: f64,
    tampered_acceptance: f64,
    /// Fraction of honest trials that lost at least one message.
    honest_degraded: f64,
    secs: f64,
    soundness_preserved: bool,
    /// Transparent row only: faulted estimates == clean estimates.
    zero_fault_identical: Option<bool>,
}

fn bench_faults(results: &mut Vec<FaultRow>) {
    use rpls_core::{FaultPlan, FaultSpec};
    let n = 256usize;
    let seed = 0xFA17u64;
    let fault_seed = 0x5EEDu64;
    let trials = if smoke_mode() { 2_000 } else { 10_000 };
    let config = spanning_tree_config(
        &Configuration::plain(generators::cycle(n)),
        rpls_graph::NodeId::new(0),
    );
    let scheme = CompiledRpls::new(SpanningTreePls::new());
    let honest = Rpls::label(&scheme, &config);
    let tampered = {
        let mut out = honest.clone();
        let node = rpls_graph::NodeId::new(5);
        let target = out.get(node).len() / 2;
        let flipped: BitString = out
            .get(node)
            .iter()
            .enumerate()
            .map(|(i, b)| if i == target { !b } else { b })
            .collect();
        out.set(node, flipped);
        out
    };
    let mut scratch = RoundScratch::new();
    let mut cache = PrepCache::new();
    let clean_honest = rpls_core::stats::estimate_with(
        &scheme,
        &config,
        &honest,
        &RunSpec::trial(seed),
        &EstimateOpts::new(trials),
        &mut scratch,
        &mut cache,
    )
    .acceptance();
    let clean_tampered = rpls_core::stats::estimate_with(
        &scheme,
        &config,
        &tampered,
        &RunSpec::trial(seed),
        &EstimateOpts::new(trials),
        &mut scratch,
        &mut cache,
    )
    .acceptance();

    // 512 directed ports: per-message rates are small so the per-trial
    // survival probability (1 - p)^512 spans the whole decay curve.
    let specs: &[(&str, FaultSpec)] = &[
        ("none", FaultSpec::transparent()),
        ("drop", FaultSpec::transparent().with_drop(0.001)),
        ("drop", FaultSpec::transparent().with_drop(0.005)),
        ("drop", FaultSpec::transparent().with_drop(0.02)),
        ("corrupt", FaultSpec::transparent().with_corrupt(0.001)),
        ("corrupt", FaultSpec::transparent().with_corrupt(0.005)),
        ("crash", FaultSpec::transparent().with_crash(0.001)),
        (
            "mixed",
            FaultSpec::transparent()
                .with_drop(0.002)
                .with_corrupt(0.002)
                .with_duplicate(0.002)
                .with_crash(0.0005),
        ),
    ];
    for &(kind, spec) in specs {
        let plan = FaultPlan::new(spec, fault_seed);
        let mut secs = f64::INFINITY;
        let mut fh = rpls_core::stats::Estimate::default();
        for _ in 0..2 {
            let t0 = Instant::now();
            fh = rpls_core::stats::estimate_with(
                &scheme,
                &config,
                &honest,
                &RunSpec::trial(seed).with_faults(plan.clone()),
                &EstimateOpts::new(trials),
                &mut scratch,
                &mut cache,
            );
            secs = secs.min(t0.elapsed().as_secs_f64());
        }
        let ft = rpls_core::stats::estimate_with(
            &scheme,
            &config,
            &tampered,
            &RunSpec::trial(seed).with_faults(plan.clone()),
            &EstimateOpts::new(trials),
            &mut scratch,
            &mut cache,
        );
        let rate = spec
            .drop_rate()
            .max(spec.corrupt_rate())
            .max(spec.duplicate_rate())
            .max(spec.crash_rate());
        let row = FaultRow {
            kind,
            rate,
            trials,
            honest_acceptance: fh.acceptance(),
            tampered_acceptance: ft.acceptance(),
            honest_degraded: fh.degradation(),
            secs,
            // Exact, not statistical: the faulted and clean estimators use
            // the same per-trial seeds, and a faulted trial accepts only if
            // its clean twin does.
            soundness_preserved: ft.acceptance() <= clean_tampered,
            zero_fault_identical: spec.is_transparent().then_some(
                fh.acceptance() == clean_honest
                    && ft.acceptance() == clean_tampered
                    && fh.degraded_trials == 0
                    && ft.degraded_trials == 0,
            ),
        };
        println!(
            "bench: faults_cycle256/{kind} rate={rate} ... honest {:.4} (degraded {:.4}) | \
             tampered {:.4} | {secs:.4}s | sound {}",
            row.honest_acceptance,
            row.honest_degraded,
            row.tampered_acceptance,
            row.soundness_preserved,
        );
        assert!(
            row.soundness_preserved,
            "faults_cycle256/{kind} rate={rate}: faulted tampered acceptance \
             {} exceeds clean {clean_tampered}",
            row.tampered_acceptance,
        );
        if let Some(identical) = row.zero_fault_identical {
            assert!(
                identical,
                "faults_cycle256/{kind}: transparent plan diverged from the fault-free engine"
            );
        }
        results.push(row);
    }
}

/// One row of the message-pattern sweep: the `(messages, bits-per-round,
/// total-bits)` economics of the compiled spanning tree under one
/// [`MessagePattern`], on a sparse and a dense graph. The gate enforces
/// `per_port_identical` (the per-port pattern reproduces the pre-pattern
/// estimator and bit accounting exactly — a correctness bit, independent
/// of machine speed) and that unicast's `total_bits` never exceeds
/// per-port's on the same graph.
struct PatternRow {
    graph: &'static str,
    pattern: &'static str,
    trials: usize,
    /// Maximum distinct messages any node sends per round.
    messages: usize,
    max_bits_per_round: usize,
    total_bits: usize,
    secs: f64,
    honest_estimate: f64,
    /// Per-port rows only: estimate and bit accounting identical to the
    /// pre-pattern batched path within this run.
    per_port_identical: Option<bool>,
}

fn bench_patterns(results: &mut Vec<PatternRow>) {
    let seed = 0x9A77u64;
    let trials = if smoke_mode() { 2_000 } else { 10_000 };
    let patterns: [(&'static str, MessagePattern); 5] = [
        ("per_port", MessagePattern::PerPort),
        ("broadcast", MessagePattern::Broadcast),
        ("unicast", MessagePattern::Unicast),
        ("k2", MessagePattern::KMessages(2)),
        ("k4", MessagePattern::KMessages(4)),
    ];
    // The sparse workload (Δ = 2) and a dense one (Δ = 63), where the
    // broadcast/k-messages slot sharing actually bites.
    let workloads: [(&'static str, Configuration); 2] = [
        (
            "cycle256",
            spanning_tree_config(
                &Configuration::plain(generators::cycle(256)),
                rpls_graph::NodeId::new(0),
            ),
        ),
        (
            "clique64",
            spanning_tree_config(
                &Configuration::plain(generators::complete(64)),
                rpls_graph::NodeId::new(0),
            ),
        ),
    ];
    let scheme = CompiledRpls::new(SpanningTreePls::new());
    let mut scratch = RoundScratch::new();
    let mut cache = PrepCache::new();
    for (graph, config) in &workloads {
        let honest = Rpls::label(&scheme, config);
        // The pre-pattern reference: the legacy estimator and the legacy
        // one-round bit accounting.
        let reference =
            rpls_core::stats::acceptance_probability(&scheme, config, &honest, trials, seed);
        let reference_report = engine::run_prepared(
            &RunSpec::trial(1),
            &Unprepared::new(&scheme, config, &honest),
            config,
            &mut scratch,
        );
        let prepared = scheme.prepare_cached(config, &honest, trials, &mut cache);
        let mut per_port_total = usize::MAX;
        for (name, pattern) in patterns {
            let cost = prepared
                .pattern_cost(pattern, 1)
                .expect("compiled schemes know their pattern economics");
            let mut secs = f64::INFINITY;
            let mut honest_estimate = 0.0;
            for _ in 0..3 {
                let t0 = Instant::now();
                honest_estimate = rpls_core::stats::estimate_with(
                    &scheme,
                    config,
                    &honest,
                    &RunSpec::trial(seed).with_pattern(pattern),
                    &EstimateOpts::new(trials),
                    &mut scratch,
                    &mut cache,
                )
                .acceptance();
                secs = secs.min(t0.elapsed().as_secs_f64());
            }
            let per_port_identical = (pattern == MessagePattern::PerPort).then_some(
                honest_estimate == reference
                    && cost.max_bits_per_round == reference_report.max_bits_per_round
                    && cost.total_bits == reference_report.total_bits,
            );
            if pattern == MessagePattern::PerPort {
                per_port_total = cost.total_bits;
            }
            let row = PatternRow {
                graph,
                pattern: name,
                trials,
                messages: cost.messages,
                max_bits_per_round: cost.max_bits_per_round,
                total_bits: cost.total_bits,
                secs,
                honest_estimate,
                per_port_identical,
            };
            println!(
                "bench: patterns/{graph}/{name} ... {} msgs | {} bits/round | {} total bits | \
                 honest {honest_estimate} in {secs:.4}s",
                row.messages, row.max_bits_per_round, row.total_bits,
            );
            assert!(
                honest_estimate == 1.0,
                "patterns/{graph}/{name}: honest estimate {honest_estimate} (completeness must \
                 survive every pattern)"
            );
            if let Some(identical) = row.per_port_identical {
                assert!(
                    identical,
                    "patterns/{graph}: per-port must reproduce the pre-pattern engine"
                );
            }
            if pattern == MessagePattern::Broadcast {
                assert_eq!(
                    row.messages, 1,
                    "patterns/{graph}: broadcast must emit exactly one message per node per round"
                );
            }
            if pattern == MessagePattern::Unicast {
                assert!(
                    row.total_bits < per_port_total,
                    "patterns/{graph}: unicast total bits {} must strictly undercut per-port's \
                     {per_port_total}",
                    row.total_bits,
                );
            }
            results.push(row);
        }
    }
}

/// One row of the service workload: a mixed multi-tenant batch pushed
/// through the resident [`Service`] — three tenants with different
/// schemes, graphs, patterns, fault environments, and seed sources,
/// resubmitting so the shared `PrepCache` has recurring content to hit
/// on. The gate enforces the correctness bits (`verdicts_identical` —
/// every service reply equals a direct engine estimate run with a private
/// fresh cache, bit for bit — and a nonzero `cache_hit_rate`, both
/// deterministic functions of the batch), never the jobs/s throughput.
struct ServiceRow {
    workload: &'static str,
    jobs: usize,
    trials: usize,
    jobs_per_sec: f64,
    secs: f64,
    sheds: u64,
    cache_hit_rate: f64,
    verdicts_identical: bool,
}

/// Whether one service reply reproduces the direct estimate bit for bit.
fn reply_matches(reply: &JobReply, direct: &rpls_core::stats::Estimate) -> bool {
    let JobReply::Ok(resp) = reply else {
        return false;
    };
    resp.trials == direct.trials as u64
        && resp.accepts == direct.accepts as u64
        && resp.degraded_trials == direct.degraded_trials as u64
        && resp.missing_messages == direct.missing_messages as u64
        && resp.dropped == direct.counts.dropped as u64
        && resp.corrupted == direct.counts.corrupted as u64
        && resp.duplicated == direct.counts.duplicated as u64
        && resp.crashed_nodes == direct.counts.crashed_nodes as u64
        && resp.retries == direct.counts.retries as u64
}

fn bench_service(results: &mut Vec<ServiceRow>) {
    let (trials, repeats) = if smoke_mode() {
        (400usize, 3)
    } else {
        (4_000usize, 8)
    };

    // Tenant A: spanning tree on a 64-cycle, private coins.
    let cycle: Vec<(u32, u32)> = (0..64).map(|i| (i, (i + 1) % 64)).collect();
    let mut a = request_skeleton("spanning-tree", 64, &cycle);
    a.trials = trials as u32;
    a.seed_source = SeedSource::Trial(0xA11CE);

    // Tenant B: uniformity on a 16-path, broadcast pattern, a 2-round
    // schedule, public beacon coins.
    let path: Vec<(u32, u32)> = (0..15).map(|i| (i, i + 1)).collect();
    let mut b = request_skeleton("uniformity", 16, &path);
    b.payload = BitString::from_bools((0..96).map(|i| i % 3 == 0));
    b.trials = (trials / 2) as u32;
    b.pattern = MessagePattern::Broadcast;
    b.rounds = 2;
    b.seed_source = SeedSource::Beacon {
        round_id: 7,
        value: 0xBEAC_0000,
    };

    // Tenant C: leader election on a 12-star behind a lossy channel.
    let star: Vec<(u32, u32)> = (1..12).map(|i| (0, i)).collect();
    let mut c = request_skeleton("leader", 12, &star);
    c.param = 3;
    c.trials = (trials / 2) as u32;
    c.seed_source = SeedSource::Trial(0xC0FFEE);
    c.faults = Some(WireFaults {
        drop_rate: 0.05,
        corrupt_rate: 0.02,
        duplicate_rate: 0.0,
        crash_rate: 0.0,
        retry_budget: 0,
        fault_seed: 99,
    });

    // Ground truth first, outside the timed region: each tenant's job run
    // directly against the engine with a private fresh cache.
    let tenants = [a, b, c];
    let directs: Vec<rpls_core::stats::Estimate> = tenants
        .iter()
        .map(|req| {
            let job = registry::build(req).expect("bench tenants are well-formed");
            rpls_core::stats::estimate(
                &*job.scheme,
                &job.config,
                &job.labeling,
                &req.run_spec(),
                &rpls_core::stats::EstimateOpts::new(req.trials as usize),
            )
        })
        .collect();

    let service = Service::spawn();
    let mut replies = Vec::new();
    let t0 = Instant::now();
    for _ in 0..repeats {
        for req in &tenants {
            replies.push(service.submit(req.clone()));
        }
    }
    let secs = t0.elapsed().as_secs_f64();
    let jobs = replies.len();
    let verdicts_identical = replies
        .iter()
        .enumerate()
        .all(|(i, reply)| reply_matches(reply, &directs[i % tenants.len()]));
    let cache_hit_rate = service.cache_stats().hit_rate();
    let sheds = service.shed_count();
    service.shutdown();

    let row = ServiceRow {
        workload: "mixed_tenants",
        jobs,
        trials,
        jobs_per_sec: jobs as f64 / secs,
        secs,
        sheds,
        cache_hit_rate,
        verdicts_identical,
    };
    println!(
        "bench: service/{} ... {jobs} jobs in {secs:.4}s ({:.1} jobs/s) | hit rate {:.4} | \
         verdicts identical {verdicts_identical}",
        row.workload, row.jobs_per_sec, row.cache_hit_rate,
    );
    assert!(
        verdicts_identical,
        "service/mixed_tenants: every reply must equal the direct engine estimate"
    );
    assert!(
        cache_hit_rate > 0.0,
        "service/mixed_tenants: resubmitting tenants must hit the shared cache"
    );
    assert_eq!(
        sheds, 0,
        "service/mixed_tenants: a sequential batch must never overflow the queue"
    );
    results.push(row);
}

/// One row of the chaos workload: the full robustness stack — retrying
/// client → seeded [`ChaosProxy`] → deadline'd TCP front → supervised
/// service — driven twice with the same chaos seed. The gate enforces
/// three correctness bits, all deterministic functions of the seed and
/// never of machine speed: `verdicts_identical` (every verdict that
/// survived the chaos equals a direct engine estimate bit for bit, and
/// the deliberate crash-test job never delivers one),
/// `replay_identical` (the second run reproduces every outcome, retry
/// split, and the service's shed/fault ledger exactly), and
/// `shed_accounting_ok` (each worker panic cost exactly one restart, the
/// sequential client never pressured the queue, and the completion ledger
/// covers every delivery and fault).
struct ChaosRow {
    workload: &'static str,
    jobs: usize,
    delivered: usize,
    attempts: u32,
    transport_retries: u32,
    shed_retries: u32,
    worker_faults: u64,
    worker_restarts: u64,
    secs: f64,
    verdicts_identical: bool,
    replay_identical: bool,
    shed_accounting_ok: bool,
}

/// What one job's trip through the chaos reduced to — everything a replay
/// must reproduce: the delivered verdict triple (if any), the attempt and
/// retry accounting, and a tag naming the terminal outcome otherwise.
type ChaosOutcome = (Option<(u64, u64, u64)>, u32, u32, u32, String);

/// The chaos batch: three distinct real jobs (different schemes, graphs,
/// patterns, seed sources, one with engine-level faults under the
/// network-level chaos) plus the deliberate worker-killer that exercises
/// supervision.
fn chaos_bench_batch(trials: u32) -> Vec<JobRequest> {
    let cycle: Vec<(u32, u32)> = (0..8).map(|i| (i, (i + 1) % 8)).collect();
    let mut a = request_skeleton("spanning-tree", 8, &cycle);
    a.trials = trials;
    a.seed_source = SeedSource::Trial(0xA11CE);
    a.tenant = "a".into();

    let path: Vec<(u32, u32)> = (0..5).map(|i| (i, i + 1)).collect();
    let mut b = request_skeleton("uniformity", 6, &path);
    b.payload = BitString::from_bools((0..48).map(|i| i % 3 == 0));
    b.trials = trials / 2;
    b.pattern = MessagePattern::Broadcast;
    b.seed_source = SeedSource::Beacon {
        round_id: 7,
        value: 0xBEAC_0000,
    };
    b.tenant = "b".into();

    let mut kill = request_skeleton(registry::CRASH_TEST_SCHEME, 3, &[(0, 1), (1, 2)]);
    kill.trials = 2;
    kill.tenant = "k".into();

    let star: Vec<(u32, u32)> = (1..6).map(|i| (0, i)).collect();
    let mut c = request_skeleton("leader", 6, &star);
    c.trials = trials / 2;
    c.seed_source = SeedSource::Trial(0xC0FFEE);
    c.faults = Some(WireFaults {
        drop_rate: 0.10,
        corrupt_rate: 0.04,
        duplicate_rate: 0.0,
        crash_rate: 0.0,
        retry_budget: 1,
        fault_seed: 21,
    });
    c.tenant = "c".into();

    vec![a, b, kill, c]
}

/// One full chaos pass: fresh service, front, and seeded proxy; the batch
/// pushed through sequentially with deterministic jittered retries.
fn chaos_pass(batch: &[JobRequest], seed: u64) -> (Vec<ChaosOutcome>, ServiceStats) {
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
    let outcomes = batch
        .iter()
        .map(
            |req| match client::submit_with_retry(proxy.addr(), req, &policy) {
                Ok(o) => (
                    Some((
                        o.response.trials,
                        o.response.accepts,
                        o.response.degraded_trials,
                    )),
                    o.attempts,
                    o.transport_retries,
                    o.shed_retries,
                    String::from("ok"),
                ),
                Err(ClientError::Terminal(reason)) => (None, 0, 0, 0, format!("terminal:{reason}")),
                Err(ClientError::Exhausted { attempts, .. }) => {
                    (None, attempts, 0, 0, String::from("exhausted"))
                }
            },
        )
        .collect();
    proxy.stop();
    front.stop();
    let stats = service.stats();
    drop(service);
    (outcomes, stats)
}

fn bench_service_chaos(results: &mut Vec<ChaosRow>) {
    const CHAOS_SEED: u64 = 0xD15E_A5ED;
    let trials = if smoke_mode() { 40u32 } else { 200u32 };
    let batch = chaos_bench_batch(trials);

    // Ground truth outside the timed region: every real job run directly
    // against the engine with a private fresh cache. The crash-test job
    // has no direct verdict — its ground truth is that it never delivers.
    let directs: Vec<Option<rpls_core::stats::Estimate>> = batch
        .iter()
        .map(|req| {
            (req.scheme != registry::CRASH_TEST_SCHEME).then(|| {
                let job = registry::build(req).expect("bench chaos jobs are well-formed");
                rpls_core::stats::estimate(
                    &*job.scheme,
                    &job.config,
                    &job.labeling,
                    &req.run_spec(),
                    &rpls_core::stats::EstimateOpts::new(req.trials as usize),
                )
            })
        })
        .collect();

    let t0 = Instant::now();
    let (outcomes, stats) = chaos_pass(&batch, CHAOS_SEED);
    let secs = t0.elapsed().as_secs_f64();
    let (replay_outcomes, replay_stats) = chaos_pass(&batch, CHAOS_SEED);

    let verdicts_identical = outcomes.iter().zip(&directs).all(|(outcome, direct)| {
        match (outcome.0, direct) {
            // A delivered verdict must equal the direct engine run.
            (Some((trials, accepts, degraded)), Some(d)) => {
                trials == d.trials as u64
                    && accepts == d.accepts as u64
                    && degraded == d.degraded_trials as u64
            }
            // The crash-test job must never deliver one.
            (Some(_), None) => false,
            (None, _) => true,
        }
    });
    let replay_identical = outcomes == replay_outcomes && stats == replay_stats;
    let delivered = outcomes.iter().filter(|o| o.0.is_some()).count();
    // The ledger must balance: each panic cost exactly one restart (and
    // the crash job guarantees at least one), the one-at-a-time client
    // never pressured the queue, and `completed` covers every delivered
    // verdict (each needed at least one worker execution) plus every
    // fault.
    let shed_accounting_ok = stats.worker_faults == stats.worker_restarts
        && stats.worker_faults >= 1
        && stats.queue_sheds == 0
        && stats.evictions == 0
        && stats.deadline_sheds == 0
        && stats.completed >= delivered as u64 + stats.worker_faults;

    let row = ChaosRow {
        workload: "service_chaos",
        jobs: batch.len(),
        delivered,
        attempts: outcomes.iter().map(|o| o.1).sum(),
        transport_retries: outcomes.iter().map(|o| o.2).sum(),
        shed_retries: outcomes.iter().map(|o| o.3).sum(),
        worker_faults: stats.worker_faults,
        worker_restarts: stats.worker_restarts,
        secs,
        verdicts_identical,
        replay_identical,
        shed_accounting_ok,
    };
    println!(
        "bench: service/{} ... {} jobs ({} delivered) in {secs:.4}s | verdicts identical \
         {verdicts_identical} | replay identical {replay_identical} | accounting ok \
         {shed_accounting_ok}",
        row.workload, row.jobs, row.delivered,
    );
    assert!(
        verdicts_identical,
        "service/service_chaos: every delivered verdict must equal the direct engine estimate"
    );
    assert!(
        replay_identical,
        "service/service_chaos: the same chaos seed must reproduce the run exactly"
    );
    assert!(
        shed_accounting_ok,
        "service/service_chaos: the shed/fault ledger must balance: {stats:?}"
    );
    results.push(row);
}

/// One row of the `scale` workload: a large-graph spanning-tree
/// verification run, measured in directed-port probes per second — the
/// scale-free unit the dense-vs-sparse comparison and the thread-scaling
/// rows are stated in.
struct ScaleRow {
    workload: &'static str,
    n: usize,
    /// Directed port count (2m): the per-trial probe surface.
    ports: usize,
    trials: usize,
    secs: f64,
    ports_per_sec: f64,
    /// Sketched-clique per-port throughput over the sparse row's — the
    /// dense-family cliff, stated machine-independently.
    dense_vs_sparse_per_port: Option<f64>,
    /// Whether the dense family stays within 2× of sparse per-port
    /// throughput (the ISSUE's cliff criterion); gate-enforced.
    dense_within_2x: Option<bool>,
    /// serial secs / parallel secs at this row's worker count.
    thread_scaling: Option<f64>,
    /// Whether `estimate_par` reproduced the serial estimate bit for bit;
    /// gate-enforced.
    par_identical: Option<bool>,
}

/// Times one honest spanning-tree estimate on `graph` with the compiled
/// scheme forced dynamic (honest labelings otherwise collapse to the
/// static-pass shortcut and there is nothing to measure), optionally
/// sketched.
fn scale_run(
    workload: &'static str,
    graph: Graph,
    trials: usize,
    sketch: Option<usize>,
) -> ScaleRow {
    let n = graph.node_count();
    let ports = 2 * graph.edge_count();
    let config = spanning_tree_config(&Configuration::plain(graph), NodeId::new(0));
    let mut scheme = CompiledRpls::new(SpanningTreePls::new()).force_dynamic();
    if let Some(budget) = sketch {
        scheme = scheme.with_sketch(ProbeSketch::new(budget));
    }
    let labeling = Rpls::label(&scheme, &config);
    let spec = RunSpec::trial(0x5CA1E);
    // Warm caches and page in the plan outside the timed region.
    let _ = rpls_core::stats::estimate(
        &scheme,
        &config,
        &labeling,
        &spec,
        &rpls_core::stats::EstimateOpts::new(1),
    );
    let t0 = Instant::now();
    let est = rpls_core::stats::estimate(
        &scheme,
        &config,
        &labeling,
        &spec,
        &rpls_core::stats::EstimateOpts::new(trials),
    );
    let secs = t0.elapsed().as_secs_f64().max(1e-9);
    assert_eq!(
        est.accepts, est.trials,
        "scale/{workload}: honest labeling must accept every trial"
    );
    ScaleRow {
        workload,
        n,
        ports,
        trials,
        secs,
        ports_per_sec: ports as f64 * trials as f64 / secs,
        dense_vs_sparse_per_port: None,
        dense_within_2x: None,
        thread_scaling: None,
        par_identical: None,
    }
}

/// The `scale` workload: per-port throughput of the forced-dynamic
/// compiled spanning tree on three large families — random sparse,
/// power-law, and the clique both full-probe and sketched (the
/// dense-family cliff row) — plus serial-vs-parallel thread-scaling rows
/// carrying the gate's `par_identical` bit.
fn bench_scale(results: &mut Vec<ScaleRow>) {
    // Smoke mode keeps the full dimensions: the gate compares this
    // workload's `thread_scaling` and `dense_vs_sparse_per_port` ratios
    // against the committed full run, and both are dimension-dependent
    // (thread-spawn overhead dominates tiny runs; a smaller clique
    // subsamples less), so shrinking them would fail the gate by
    // construction, not by regression. The whole workload is ~10 s.
    let (n_sparse, n_clique, trials, clique_trials) = (16_384usize, 512usize, 32usize, 4usize);

    let mut rng = StdRng::seed_from_u64(0xBEEF);
    let sparse = scale_run(
        "sparse_random",
        generators::random_sparse(n_sparse, n_sparse / 4, &mut rng),
        trials,
        None,
    );
    let mut rng = StdRng::seed_from_u64(0xF00D);
    let power_law = scale_run(
        "power_law",
        generators::power_law(n_sparse, 2, &mut rng),
        trials,
        None,
    );
    let clique_full = scale_run(
        "clique_full",
        generators::complete(n_clique),
        clique_trials,
        None,
    );
    let mut clique_sketched = scale_run(
        "clique_sketched",
        generators::complete(n_clique),
        clique_trials,
        Some(16),
    );
    let ratio = clique_sketched.ports_per_sec / sparse.ports_per_sec;
    clique_sketched.dense_vs_sparse_per_port = Some(ratio);
    clique_sketched.dense_within_2x = Some(ratio >= 0.5);

    // Thread scaling on the sparse workload: serial vs estimate_par at 2
    // and 4 workers. The ratio is machine-bound (a single-core runner
    // reports ~1), so the gate compares it against the committed
    // reference relatively, like every other timing; `par_identical` is a
    // correctness bit enforced on every run.
    let config = spanning_tree_config(
        &Configuration::plain({
            let mut rng = StdRng::seed_from_u64(0xBEEF);
            generators::random_sparse(n_sparse, n_sparse / 4, &mut rng)
        }),
        NodeId::new(0),
    );
    let scheme = CompiledRpls::new(SpanningTreePls::new()).force_dynamic();
    let labeling = Rpls::label(&scheme, &config);
    let spec = RunSpec::trial(0x5CA1E);
    let opts = rpls_core::stats::EstimateOpts::new(trials);
    let ports = 2 * config.graph().edge_count();
    let t0 = Instant::now();
    let serial = rpls_core::stats::estimate(&scheme, &config, &labeling, &spec, &opts);
    let serial_secs = t0.elapsed().as_secs_f64().max(1e-9);
    for (workload, workers) in [("thread_scaling_2", 2usize), ("thread_scaling_4", 4)] {
        let t0 = Instant::now();
        let par = rpls_core::stats::estimate_par(
            &scheme,
            &config,
            &labeling,
            &spec,
            &opts,
            Some(workers),
        );
        let par_secs = t0.elapsed().as_secs_f64().max(1e-9);
        results.push(ScaleRow {
            workload,
            n: n_sparse,
            ports,
            trials,
            secs: par_secs,
            ports_per_sec: ports as f64 * trials as f64 / par_secs,
            dense_vs_sparse_per_port: None,
            dense_within_2x: None,
            thread_scaling: Some(serial_secs / par_secs),
            par_identical: Some(par == serial),
        });
    }

    for row in [sparse, power_law, clique_full, clique_sketched] {
        println!(
            "bench: scale/{} ... n={} ports={} {} trials in {:.4}s | {:.0} port-probes/s{}",
            row.workload,
            row.n,
            row.ports,
            row.trials,
            row.secs,
            row.ports_per_sec,
            row.dense_vs_sparse_per_port
                .map_or(String::new(), |r| format!(" | dense/sparse {r:.2}")),
        );
        results.push(row);
    }
    for row in results.iter().filter(|r| r.thread_scaling.is_some()) {
        println!(
            "bench: scale/{} ... {:.4}s | scaling {:.2} | par identical {}",
            row.workload,
            row.secs,
            row.thread_scaling.unwrap_or(0.0),
            row.par_identical.unwrap_or(false),
        );
    }
    assert!(
        results.iter().all(|r| r.par_identical != Some(false)),
        "scale: estimate_par diverged from the serial estimate"
    );
    assert!(
        results.iter().all(|r| r.dense_within_2x != Some(false)),
        "scale: the dense family regressed more than 2x vs sparse per-port throughput"
    );
}

#[allow(clippy::too_many_arguments)]
fn write_json(
    rows: &[MatrixRow],
    acceptance: &[AcceptanceResult],
    sweeps: &[SweepResult],
    tradeoff: &[TradeoffRow],
    faults: &[FaultRow],
    patterns: &[PatternRow],
    service: &[ServiceRow],
    chaos: &[ChaosRow],
    scale: &[ScaleRow],
) {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{{\n  \"bench\": \"engine\",\n  \"mode\": \"{}\",\n  \"units\": {{\"rounds_per_sec\": \
         \"1/s\", \"jobs_per_sec\": \"1/s\", \"secs\": \"s\"}},",
        if smoke_mode() { "smoke" } else { "full" }
    );
    out.push_str("  \"round_matrix\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"family\": \"{}\", \"n\": {}, \"det_rounds_per_sec\": {:.0}, \
             \"rand_rounds_per_sec\": {:.0}, \"baseline_rounds_per_sec\": {:.0}}}{}",
            r.family,
            r.n,
            r.det_rounds_per_sec,
            r.rand_rounds_per_sec,
            r.baseline_rounds_per_sec,
            if i + 1 == rows.len() { "" } else { "," }
        );
    }
    out.push_str("  ],\n  \"acceptance_probability_cycle256\": [\n");
    for (i, a) in acceptance.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"scheme\": \"{}\", \"trials\": {}, \"batched_secs\": {:.4}, \
             \"fast_secs\": {:.4}, \"unprepared_secs\": {:.4}, \"baseline_secs\": {:.4}, \
             \"parallel_secs\": {:.4}, \"speedup\": {:.2}, \"prepared_speedup\": {:.2}, \
             \"batched_speedup\": {:.2}, \"parallel_speedup\": {:.2}, \
             \"serial_estimate\": {}, \"parallel_estimate\": {}, \"estimates_identical\": {}}}{}",
            a.scheme,
            a.trials,
            a.batched_secs,
            a.fast_secs,
            a.unprepared_secs,
            a.baseline_secs,
            a.parallel_secs,
            a.speedup,
            a.prepared_speedup,
            a.batched_speedup,
            a.parallel_speedup,
            a.serial_estimate,
            a.parallel_estimate,
            a.serial_estimate == a.parallel_estimate,
            if i + 1 == acceptance.len() && sweeps.is_empty() {
                ""
            } else {
                ","
            }
        );
    }
    // The adversary-sweep rows live in the same flat array (same parser,
    // same per-scheme matching in the gate); their scale-free metric is
    // `prep_amortized_speedup`, and `estimates_identical` records that the
    // shared-cache sweep reproduced the per-prepare estimates bit for bit.
    for (i, s) in sweeps.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"scheme\": \"adversary_sweep{}\", \"trials\": {}, \"labelings\": {}, \
             \"sweep_secs\": {:.4}, \"per_prepare_secs\": {:.4}, \
             \"prep_amortized_speedup\": {:.2}, \"estimates_identical\": {}}}{}",
            s.labelings,
            s.trials,
            s.labelings,
            s.sweep_secs,
            s.per_prepare_secs,
            s.prep_amortized_speedup,
            s.estimates_identical,
            if i + 1 == sweeps.len() { "" } else { "," }
        );
    }
    // The t-round trade-off sweep: per-(scheme, t) rows whose scale-free
    // metric is `bits_shrink` (t = 1 per-round bits over this t's); the
    // t = 1 rows additionally carry the within-run `t1_identical`
    // correctness bit the gate enforces.
    out.push_str("  ],\n  \"tradeoff\": [\n");
    for (i, r) in tradeoff.iter().enumerate() {
        let t1_field = r
            .t1_identical
            .map_or(String::new(), |b| format!(", \"t1_identical\": {b}"));
        let _ = writeln!(
            out,
            "    {{\"scheme\": \"{}\", \"t\": {}, \"trials\": {}, \"max_bits_per_round\": {}, \
             \"total_bits\": {}, \"bits_shrink\": {:.2}, \"secs\": {:.4}, \
             \"honest_estimate\": {}, \"tampered_estimate\": {:.4}, \
             \"mean_reject_round\": {:.2}{}}}{}",
            r.scheme,
            r.t,
            r.trials,
            r.max_bits_per_round,
            r.total_bits,
            r.bits_shrink,
            r.secs,
            r.honest_estimate,
            r.tampered_estimate,
            r.mean_reject_round,
            t1_field,
            if i + 1 == tradeoff.len() { "" } else { "," }
        );
    }
    // The fault-tolerance sweep: acceptance decay of the 256-cycle
    // spanning tree as channels get lossier. The gate enforces the two
    // correctness bits (`zero_fault_identical`, `soundness_preserved`) on
    // every current run; the acceptance values themselves are
    // deterministic functions of the seeds, recorded for the trajectory.
    out.push_str("  ],\n  \"faults\": [\n");
    for (i, r) in faults.iter().enumerate() {
        let zero_field = r.zero_fault_identical.map_or(String::new(), |b| {
            format!(", \"zero_fault_identical\": {b}")
        });
        let _ = writeln!(
            out,
            "    {{\"kind\": \"{}\", \"rate\": {}, \"trials\": {}, \
             \"honest_acceptance\": {:.4}, \"tampered_acceptance\": {:.4}, \
             \"honest_degraded\": {:.4}, \"secs\": {:.4}, \
             \"soundness_preserved\": {}{}}}{}",
            r.kind,
            r.rate,
            r.trials,
            r.honest_acceptance,
            r.tampered_acceptance,
            r.honest_degraded,
            r.secs,
            r.soundness_preserved,
            zero_field,
            if i + 1 == faults.len() { "" } else { "," }
        );
    }
    // The message-pattern sweep: resource triples of the compiled spanning
    // tree across the broadcast/unicast/k-messages spectrum. The gate
    // enforces `per_port_identical` and the unicast ≤ per-port total-bits
    // ordering on every current run; the triples themselves are
    // labeling-static and recorded for the trajectory.
    out.push_str("  ],\n  \"patterns\": [\n");
    for (i, r) in patterns.iter().enumerate() {
        let identical_field = r
            .per_port_identical
            .map_or(String::new(), |b| format!(", \"per_port_identical\": {b}"));
        let _ = writeln!(
            out,
            "    {{\"graph\": \"{}\", \"pattern\": \"{}\", \"trials\": {}, \"messages\": {}, \
             \"max_bits_per_round\": {}, \"total_bits\": {}, \"secs\": {:.4}, \
             \"honest_estimate\": {}{}}}{}",
            r.graph,
            r.pattern,
            r.trials,
            r.messages,
            r.max_bits_per_round,
            r.total_bits,
            r.secs,
            r.honest_estimate,
            identical_field,
            if i + 1 == patterns.len() { "" } else { "," }
        );
    }
    // The service workload: a mixed multi-tenant batch through the
    // resident engine. The gate enforces `verdicts_identical` and a
    // nonzero `cache_hit_rate` on every current run (both deterministic
    // functions of the batch); `jobs_per_sec` is recorded for the
    // trajectory but never compared — absolute throughput is
    // machine-bound.
    out.push_str("  ],\n  \"service\": [\n");
    for (i, r) in service.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"workload\": \"{}\", \"jobs\": {}, \"trials\": {}, \
             \"jobs_per_sec\": {:.1}, \"secs\": {:.4}, \"sheds\": {}, \
             \"cache_hit_rate\": {:.4}, \"verdicts_identical\": {}}}{}",
            r.workload,
            r.jobs,
            r.trials,
            r.jobs_per_sec,
            r.secs,
            r.sheds,
            r.cache_hit_rate,
            r.verdicts_identical,
            if i + 1 == service.len() && chaos.is_empty() {
                ""
            } else {
                ","
            }
        );
    }
    // The chaos rows live in the same flat array (same parser, same
    // per-workload matching in the gate). All three of their bits are
    // speed-independent correctness gates; the retry/fault counters are
    // recorded for the trajectory and replay-deterministic per seed.
    for (i, r) in chaos.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"workload\": \"{}\", \"jobs\": {}, \"delivered\": {}, \"attempts\": {}, \
             \"transport_retries\": {}, \"shed_retries\": {}, \"worker_faults\": {}, \
             \"worker_restarts\": {}, \"secs\": {:.4}, \"verdicts_identical\": {}, \
             \"replay_identical\": {}, \"shed_accounting_ok\": {}}}{}",
            r.workload,
            r.jobs,
            r.delivered,
            r.attempts,
            r.transport_retries,
            r.shed_retries,
            r.worker_faults,
            r.worker_restarts,
            r.secs,
            r.verdicts_identical,
            r.replay_identical,
            r.shed_accounting_ok,
            if i + 1 == chaos.len() { "" } else { "," }
        );
    }
    // The scale workload: per-port throughput of the large-graph families.
    // The gate enforces `par_identical` and `dense_within_2x` on every
    // current run, and compares `thread_scaling` and
    // `dense_vs_sparse_per_port` relatively against the reference (both
    // are within-run ratios, so runner speed cancels); `ports_per_sec` is
    // recorded for the trajectory but never compared.
    out.push_str("  ],\n  \"scale\": [\n");
    for (i, r) in scale.iter().enumerate() {
        let dense_fields = match (r.dense_vs_sparse_per_port, r.dense_within_2x) {
            (Some(ratio), Some(ok)) => {
                format!(", \"dense_vs_sparse_per_port\": {ratio:.4}, \"dense_within_2x\": {ok}")
            }
            _ => String::new(),
        };
        let thread_fields = match (r.thread_scaling, r.par_identical) {
            (Some(scaling), Some(identical)) => {
                format!(", \"thread_scaling\": {scaling:.4}, \"par_identical\": {identical}")
            }
            _ => String::new(),
        };
        let _ = writeln!(
            out,
            "    {{\"workload\": \"{}\", \"n\": {}, \"ports\": {}, \"trials\": {}, \
             \"secs\": {:.4}, \"ports_per_sec\": {:.0}{}{}}}{}",
            r.workload,
            r.n,
            r.ports,
            r.trials,
            r.secs,
            r.ports_per_sec,
            dense_fields,
            thread_fields,
            if i + 1 == scale.len() { "" } else { "," }
        );
    }
    out.push_str("  ]\n}\n");

    let file = if smoke_mode() {
        "BENCH_engine_smoke.json"
    } else {
        "BENCH_engine.json"
    };
    let path = format!("{}/../../{file}", env!("CARGO_MANIFEST_DIR"));
    std::fs::write(&path, out).expect("write bench JSON");
    println!("bench: wrote {path}");
}

fn bench_engine(c: &mut Criterion) {
    let mut rows = Vec::new();
    let mut acceptance = Vec::new();
    let mut sweeps = Vec::new();
    let mut tradeoff = Vec::new();
    let mut faults = Vec::new();
    let mut patterns = Vec::new();
    let mut service = Vec::new();
    let mut chaos = Vec::new();
    let mut scale = Vec::new();
    bench_round_matrix(c, &mut rows);
    bench_acceptance_10k(&mut acceptance);
    bench_adversary_sweep(&mut sweeps);
    bench_tradeoff(&mut tradeoff);
    bench_faults(&mut faults);
    bench_patterns(&mut patterns);
    bench_service(&mut service);
    bench_service_chaos(&mut chaos);
    bench_scale(&mut scale);
    write_json(
        &rows,
        &acceptance,
        &sweeps,
        &tradeoff,
        &faults,
        &patterns,
        &service,
        &chaos,
        &scale,
    );
}

criterion_group!(benches, bench_engine);
criterion_main!(benches);
