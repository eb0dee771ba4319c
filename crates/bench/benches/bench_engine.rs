//! The engine bench. It writes `BENCH_engine.json` at the workspace root
//! (with `BENCH_ENGINE_SMOKE=1`, `BENCH_engine_smoke.json`), which the
//! `bench_gate` binary checks against the committed reference:
//!
//! ```text
//! cargo bench -p rpls-bench --bench bench_engine
//! BENCH_ENGINE_SMOKE=1 cargo bench -p rpls-bench --bench bench_engine
//! ```
//!
//! Every workload adds self-describing rows ([`Row`]): a section, a key,
//! and metrics whose names tell the gate how to treat them (see
//! `rpls_bench::gate`). Every gated ratio is timed by [`interleaved`]:
//! rounds of interleaved samples of both sides, reduced to the median
//! per-round ratio and its IQR. Smoke mode takes fewer rounds and runs
//! fewer trials in the informational rows; the gated ratios time the same
//! work in both modes, so a smoke run gates against a full-run reference.
//!
//! The workloads:
//! - `round_matrix`: one deterministic and one randomized round against
//!   the pre-refactor allocating round ([`baseline_round`]) on paths,
//!   cycles and cliques of 64, 256 and 1024 nodes.
//! - `acceptance`: the compiled spanning tree (honest and tampered) and
//!   the κ-bit `ExchangeLabels` baseline on the 256-cycle, per trial: the
//!   `Unprepared` loop against the prepared loop (`prepared_ratio`), and the
//!   prepared loop against the batched estimator (`batched_ratio`).
//! - `adversary_sweep`: 64 forged labelings estimated with one shared
//!   `PrepCache` against a fresh cache per labeling.
//! - `tradeoff`: per-round and total bits of t-round verification.
//! - `faults`: acceptance as drop, corruption and crash rates grow.
//! - `patterns`: messages and bits under each [`MessagePattern`].
//! - `service`: a mixed multi-tenant batch through the resident
//!   [`Service`], and the retrying client through a seeded [`ChaosProxy`],
//!   twice.
//! - `scale`: port-probe throughput on 16k-node sparse and power-law
//!   graphs and a 512-clique (full and sketched), and `estimate_par`
//!   against the serial estimator at each worker count up to `cores`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rpls_bench::gate::{Bench, Row};
use rpls_bench::timing::{interleaved, Spread};
use rpls_bits::BitString;
use rpls_core::engine::{self, mix_seed, MessagePattern, RunSpec, SeedSource};
use rpls_core::scheme::ExchangeLabels;
use rpls_core::stats::{self, Estimate, EstimateOpts};
use rpls_core::{
    CertView, CertificateBuffer, CompiledRpls, Configuration, DetView, FaultPlan, FaultSpec,
    Labeling, Pls, PrepCache, PreparedRpls, ProbeSketch, RandView, Received, RoundScratch, Rpls,
    Unprepared,
};
use rpls_graph::{generators, Graph, NodeId, Port};
use rpls_schemes::spanning_tree::{spanning_tree_config, SpanningTreePls};
use rpls_service::chaos::{ChaosPlan, ChaosProxy};
use rpls_service::client::{self, ClientError, RetryPolicy};
use rpls_service::registry::{self, request_skeleton};
use rpls_service::service::{Service, ServiceStats};
use rpls_service::tcp::{FrontConfig, TcpFront};
use rpls_service::wire::{JobReply, JobRequest, WireFaults};
use std::cell::{Cell, RefCell};
use std::hint::black_box;
use std::num::NonZeroUsize;
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
/// storage.
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

/// Whether the reduced PR-time smoke run was requested.
fn smoke_mode() -> bool {
    std::env::var("BENCH_ENGINE_SMOKE").is_ok_and(|v| v == "1")
}

/// Interleaved rounds per timed comparison.
fn rounds() -> usize {
    if smoke_mode() {
        7
    } else {
        15
    }
}

/// Trials of the informational rows: `full` in a full run, a fifth in
/// smoke mode.
fn trials(full: usize) -> usize {
    if smoke_mode() {
        full / 5
    } else {
        full
    }
}

fn family(name: &str, n: usize) -> Graph {
    match name {
        "path" => generators::path(n),
        "cycle" => generators::cycle(n),
        "clique" => generators::complete(n),
        other => panic!("unknown family {other}"),
    }
}

/// The spanning-tree configuration on `graph`, rooted at node 0.
fn spanning(graph: Graph) -> Configuration {
    spanning_tree_config(&Configuration::plain(graph), NodeId::new(0))
}

/// `labeling` with one bit flipped: bit `bit` of node `node`'s label.
fn flip(labeling: &Labeling, node: usize, bit: usize) -> Labeling {
    let mut out = labeling.clone();
    let node = NodeId::new(node);
    let flipped: BitString = out
        .get(node)
        .iter()
        .enumerate()
        .map(|(i, b)| if i == bit { !b } else { b })
        .collect();
    out.set(node, flipped);
    out
}

/// `labeling` with the middle bit of node 5's label flipped: one corrupted
/// claimed replica, so compiled acceptance becomes fractional.
fn tamper(labeling: &Labeling) -> Labeling {
    flip(labeling, 5, labeling.get(NodeId::new(5)).len() / 2)
}

fn round_matrix(rows: &mut Vec<Row>) {
    let scheme = RandomPayload { bits: 16 };
    for fam in ["path", "cycle", "clique"] {
        for n in [64usize, 256, 1024] {
            let config = Configuration::plain(family(fam, n));
            let labeling = Labeling::empty(n);
            let mut scratch = RoundScratch::new();
            let secs = interleaved(
                rounds(),
                &mut [
                    &mut || {
                        black_box(engine::run_deterministic(&DegreeCheck, &config, &labeling));
                    },
                    &mut || {
                        let prepared = Unprepared::new(&scheme, &config, &labeling);
                        let spec = RunSpec::trial(1);
                        black_box(engine::run_prepared(
                            &spec,
                            &prepared,
                            &config,
                            &mut scratch,
                        ));
                    },
                    &mut || {
                        black_box(baseline_round(&scheme, &config, &labeling, 1));
                    },
                ],
            );
            let (det, rand, base) = (&secs[0], &secs[1], &secs[2]);
            rows.push(
                Row::new("round_matrix", format!("{fam}/n={n}"))
                    .spread("det_vs_baseline_ratio", Spread::of_ratios(base, det))
                    .spread("rand_vs_baseline_ratio", Spread::of_ratios(base, rand))
                    .num("det_rounds_per_sec", 1.0 / Spread::of(det).median)
                    .num("rand_rounds_per_sec", 1.0 / Spread::of(rand).median)
                    .num("baseline_rounds_per_sec", 1.0 / Spread::of(base).median),
            );
        }
    }
}

/// Trials per sample of the `Unprepared` loop, which re-parses every label
/// every trial.
const UNPREPARED_TRIALS: usize = 100;
/// Trials per sample of the prepared loop and the batched estimator.
const PREPARED_TRIALS: usize = 1000;
/// Seed of every `acceptance` estimate.
const ACCEPTANCE_SEED: u64 = 0xA11CE;

/// The per-trial loop: one `engine::run_prepared` per trial, with the
/// estimator's trial seeds, so its estimate must equal the batched one.
fn scalar_estimate(
    prepared: &dyn PreparedRpls,
    config: &Configuration,
    trials: usize,
    scratch: &mut RoundScratch,
) -> f64 {
    let accepts = (0..trials)
        .filter(|&t| {
            let spec = RunSpec::trial(stats::trial_seed(ACCEPTANCE_SEED, t as u64));
            engine::run_prepared(&spec, prepared, config, scratch).accepted
        })
        .count();
    accepts as f64 / trials as f64
}

/// One `acceptance` row: `scheme` on `labeling` timed per trial through
/// the `Unprepared` loop, the prepared loop and (if `batched`) the batched
/// estimator. `estimates_identical` also pins the parallel estimator.
fn acceptance_row(
    rows: &mut Vec<Row>,
    name: &str,
    scheme: &(dyn Rpls + Sync),
    config: &Configuration,
    labeling: &Labeling,
    batched: bool,
) {
    let seed = ACCEPTANCE_SEED;
    let (unprepared_estimate, prepared_estimate) = (Cell::new(0.0), Cell::new(0.0));
    let (mut scratch_a, mut scratch_b) = (RoundScratch::new(), RoundScratch::new());
    let mut unprepared = || {
        let prepared = Unprepared::new(scheme, config, labeling);
        let estimate = scalar_estimate(&prepared, config, UNPREPARED_TRIALS, &mut scratch_a);
        unprepared_estimate.set(estimate);
    };
    let mut prepared = || {
        let prepared = scheme.prepare(config, labeling, PREPARED_TRIALS);
        let estimate = scalar_estimate(&*prepared, config, PREPARED_TRIALS, &mut scratch_b);
        prepared_estimate.set(estimate);
    };
    let batched_at =
        |trials: usize| stats::acceptance_probability(scheme, config, labeling, trials, seed);
    let mut batch = || {
        black_box(batched_at(PREPARED_TRIALS));
    };
    let mut sides: Vec<&mut dyn FnMut()> = vec![&mut unprepared as &mut dyn FnMut(), &mut prepared];
    if batched {
        sides.push(&mut batch);
    }
    let secs = interleaved(rounds(), &mut sides);
    let per_trial = |side: usize, trials: usize| Spread::of(&secs[side]).median / trials as f64;
    let parallel = stats::estimate_par(
        scheme,
        config,
        labeling,
        &RunSpec::trial(seed),
        &EstimateOpts::new(PREPARED_TRIALS),
        None,
    )
    .acceptance();
    let estimate = batched_at(PREPARED_TRIALS);
    let mut row = Row::new("acceptance", name)
        .count("trials", PREPARED_TRIALS)
        .spread(
            "prepared_ratio",
            Spread::of_ratios(&secs[0], &secs[1])
                .scaled(PREPARED_TRIALS as f64 / UNPREPARED_TRIALS as f64),
        );
    if batched {
        row = row
            .spread("batched_ratio", Spread::of_ratios(&secs[1], &secs[2]))
            .num("batched_trial_secs", per_trial(2, PREPARED_TRIALS));
    }
    rows.push(
        row.num("unprepared_trial_secs", per_trial(0, UNPREPARED_TRIALS))
            .num("prepared_trial_secs", per_trial(1, PREPARED_TRIALS))
            .num("estimate", estimate)
            .bool(
                "estimates_identical",
                prepared_estimate.get() == estimate
                    && parallel == estimate
                    && unprepared_estimate.get() == batched_at(UNPREPARED_TRIALS),
            ),
    );
}

fn acceptance(rows: &mut Vec<Row>) {
    let config = spanning(generators::cycle(256));
    let compiled = CompiledRpls::new(SpanningTreePls::new());
    let honest = Rpls::label(&compiled, &config);
    let exchange = ExchangeLabels::new(SpanningTreePls::new());
    let labels = Rpls::label(&exchange, &config);
    // Under the honest labeling every fingerprint probe is statically
    // satisfied (the batched engine's best case); the tampered one runs the
    // per-trial GF(p) probe kernel. The κ-bit baseline's prepared form
    // precomputes every verdict, and its batched estimator is the same
    // per-trial loop, so only its preparation has a payoff to show.
    let tampered = tamper(&honest);
    let cases: [(&str, &(dyn Rpls + Sync), &Labeling, bool); 3] = [
        ("compiled_spanning_tree", &compiled, &honest, true),
        (
            "compiled_spanning_tree_tampered",
            &compiled,
            &tampered,
            true,
        ),
        ("exchange_spanning_tree", &exchange, &labels, false),
    ];
    for (name, scheme, labeling, batched) in cases {
        acceptance_row(rows, name, scheme, &config, labeling, batched);
    }
}

/// The adversary-sweep workload: 64 forged candidate labelings (single-bit
/// mutations of the honest one, the hill-climber's move set) estimated at
/// the climber's screening resolution, once with one shared `PrepCache`
/// across the sweep and once with a fresh cache per candidate.
fn adversary_sweep(rows: &mut Vec<Row>) {
    let (n, labelings) = (256usize, 64usize);
    // At higher trial counts the per-trial probe kernel (identical on both
    // sides) dominates and the row would time the kernel, not the
    // preparation sharing it exists to gate.
    let trials = 8usize;
    let seed = 0xF0C5u64;
    let config = spanning(generators::cycle(n));
    let st = CompiledRpls::new(SpanningTreePls::new());
    let honest = Rpls::label(&st, &config);
    let mut rng = StdRng::seed_from_u64(7);
    let candidates: Vec<Labeling> = (0..labelings)
        .map(|_| {
            let v = rng.next_u64() as usize % n;
            let bit = rng.next_u64() as usize % honest.get(NodeId::new(v)).len();
            flip(&honest, v, bit)
        })
        .collect();
    // Each shared-cache sample starts from a fresh cache, so warm state
    // never leaks between samples.
    let (spec, opts) = (RunSpec::trial(seed), EstimateOpts::new(trials));
    let sweep = |shared: bool, scratch: &mut RoundScratch| -> Vec<f64> {
        let mut cache = PrepCache::new();
        candidates
            .iter()
            .map(|lab| {
                let fresh = &mut PrepCache::new();
                let cache = if shared { &mut cache } else { fresh };
                stats::estimate_with(&st, &config, lab, &spec, &opts, scratch, cache).acceptance()
            })
            .collect()
    };
    let (shared_estimates, fresh_estimates) = (RefCell::new(Vec::new()), RefCell::new(Vec::new()));
    let (mut scratch_a, mut scratch_b) = (RoundScratch::new(), RoundScratch::new());
    let secs = interleaved(
        rounds(),
        &mut [
            &mut || *shared_estimates.borrow_mut() = sweep(true, &mut scratch_a),
            &mut || *fresh_estimates.borrow_mut() = sweep(false, &mut scratch_b),
        ],
    );
    rows.push(
        Row::new("adversary_sweep", format!("cycle{n}/labelings={labelings}"))
            .count("trials", trials)
            .spread(
                "prep_amortized_ratio",
                Spread::of_ratios(&secs[1], &secs[0]),
            )
            .num("shared_secs", Spread::of(&secs[0]).median)
            .num("per_labeling_secs", Spread::of(&secs[1]).median)
            .bool(
                "estimates_identical",
                *shared_estimates.borrow() == *fresh_estimates.borrow(),
            ),
    );
}

/// The t-round trade-off sweep: per-round and total bits of the compiled
/// spanning tree (fingerprint streaming: each round fingerprints a κ/t-bit
/// slice) and the κ-bit exchange-labels baseline (proof streaming: the
/// label is split into t chunks) on the 256-cycle. `bits_shrink_ratio` is
/// the t = 1 per-round bits over this row's.
fn tradeoff(rows: &mut Vec<Row>) {
    let seed = 0x7EADu64;
    let config = spanning(generators::cycle(256));
    let compiled = CompiledRpls::new(SpanningTreePls::new());
    let exchange = ExchangeLabels::new(SpanningTreePls::new());
    // The exchange baseline materialises κ-bit certificates per trial, so
    // it runs fewer trials; its bits do not depend on the trial count.
    let schemes: [(&str, &dyn Rpls, usize); 2] = [
        ("compiled_spanning_tree", &compiled, 4000),
        ("exchange_spanning_tree", &exchange, 1000),
    ];
    for (name, scheme, trials) in schemes {
        let honest = scheme.label(&config);
        let tampered = tamper(&honest);
        let one_round_honest =
            stats::acceptance_probability(scheme, &config, &honest, trials, seed);
        let one_round_tampered =
            stats::acceptance_probability(scheme, &config, &tampered, trials, seed);
        let one_round_bits = engine::run_prepared(
            &RunSpec::trial(1),
            &Unprepared::new(scheme, &config, &honest),
            &config,
            &mut RoundScratch::new(),
        )
        .max_bits_per_round;
        let mut t1_bits = 0;
        for t in [1usize, 2, 4, 8, 16] {
            let spec = RunSpec::trial(seed).with_rounds(t);
            let opts = EstimateOpts::new(trials);
            let t0 = Instant::now();
            let honest_estimate =
                stats::estimate(scheme, &config, &honest, &spec, &opts).acceptance();
            let secs = t0.elapsed().as_secs_f64();
            let report = engine::run(&spec, scheme, &config, &honest);
            let tampered_est = stats::estimate(scheme, &config, &tampered, &spec, &opts);
            if t == 1 {
                t1_bits = report.max_bits_per_round;
            }
            let row = Row::new("tradeoff", format!("{name}/t={t}"))
                .count("trials", trials)
                .count("max_round_bits", report.max_bits_per_round)
                .count("total_bits", report.total_bits)
                .num(
                    "bits_shrink_ratio",
                    t1_bits as f64 / report.max_bits_per_round.max(1) as f64,
                )
                .num("secs", secs)
                .num("honest_estimate", honest_estimate)
                .num("tampered_estimate", tampered_est.acceptance())
                .num(
                    "mean_reject_round",
                    tampered_est.mean_reject_round().unwrap_or(0.0),
                )
                // One-sided completeness is perfect at every t.
                .bool("complete_ok", honest_estimate == 1.0);
            rows.push(if t == 1 {
                row.bool(
                    "t1_identical",
                    honest_estimate == one_round_honest
                        && tampered_est.acceptance() == one_round_tampered
                        && report.max_bits_per_round == one_round_bits,
                )
            } else {
                row
            });
        }
    }
}

/// The fault-tolerance sweep: acceptance of the honest and tampered
/// spanning-tree labeling on the 256-cycle under each fault spec.
/// `soundness_ok`: the faulted tampered acceptance never exceeds the clean
/// one (faults only flip accept to reject; exact, since both estimators
/// use the same trial seeds). `zero_fault_identical`: the transparent spec
/// reproduces the fault-free estimates bit for bit.
fn faults(rows: &mut Vec<Row>) {
    let seed = 0xFA17u64;
    let trials = trials(10_000);
    let config = spanning(generators::cycle(256));
    let scheme = CompiledRpls::new(SpanningTreePls::new());
    let honest = Rpls::label(&scheme, &config);
    let tampered = tamper(&honest);
    let mut scratch = RoundScratch::new();
    let mut cache = PrepCache::new();
    let mut estimate = |labeling: &Labeling, spec: &RunSpec| {
        let opts = EstimateOpts::new(trials);
        stats::estimate_with(
            &scheme,
            &config,
            labeling,
            spec,
            &opts,
            &mut scratch,
            &mut cache,
        )
    };
    let clean_honest = estimate(&honest, &RunSpec::trial(seed));
    let clean_tampered = estimate(&tampered, &RunSpec::trial(seed));

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
        let faulted = RunSpec::trial(seed).with_faults(FaultPlan::new(spec, 0x5EED));
        let t0 = Instant::now();
        let fh = estimate(&honest, &faulted);
        let secs = t0.elapsed().as_secs_f64();
        let ft = estimate(&tampered, &faulted);
        let rate = spec
            .drop_rate()
            .max(spec.corrupt_rate())
            .max(spec.duplicate_rate())
            .max(spec.crash_rate());
        let row = Row::new("faults", format!("{kind}/rate={rate}"))
            .count("trials", trials)
            .num("honest_acceptance", fh.acceptance())
            .num("tampered_acceptance", ft.acceptance())
            .num("honest_degraded", fh.degradation())
            .num("secs", secs)
            .bool(
                "soundness_ok",
                ft.acceptance() <= clean_tampered.acceptance(),
            );
        rows.push(if spec.is_transparent() {
            row.bool(
                "zero_fault_identical",
                fh == clean_honest && ft == clean_tampered,
            )
        } else {
            row
        });
    }
}

/// The message-pattern sweep: `(messages, bits per round, total bits)` of
/// the compiled spanning tree under each [`MessagePattern`] on a sparse and
/// a dense graph. `per_port_identical`: the per-port pattern reproduces the
/// pre-pattern estimator and bit accounting. `unicast_undercuts_ok`:
/// unicast ships strictly fewer total bits than per-port (the sender ships
/// only the evaluation; the point is shared).
fn patterns(rows: &mut Vec<Row>) {
    let seed = 0x9A77u64;
    let trials = trials(10_000);
    let patterns: [(&str, MessagePattern); 5] = [
        ("per_port", MessagePattern::PerPort),
        ("broadcast", MessagePattern::Broadcast),
        ("unicast", MessagePattern::Unicast),
        (
            "k2",
            MessagePattern::KMessages(NonZeroUsize::new(2).unwrap()),
        ),
        (
            "k4",
            MessagePattern::KMessages(NonZeroUsize::new(4).unwrap()),
        ),
    ];
    // The sparse workload (Δ = 2) and a dense one (Δ = 63), where the
    // broadcast/k-messages slot sharing actually bites.
    let workloads = [
        ("cycle256", spanning(generators::cycle(256))),
        ("clique64", spanning(generators::complete(64))),
    ];
    let scheme = CompiledRpls::new(SpanningTreePls::new());
    let mut scratch = RoundScratch::new();
    let mut cache = PrepCache::new();
    for (graph, config) in &workloads {
        let honest = Rpls::label(&scheme, config);
        let reference = stats::acceptance_probability(&scheme, config, &honest, trials, seed);
        let reference_report = engine::run_prepared(
            &RunSpec::trial(1),
            &Unprepared::new(&scheme, config, &honest),
            config,
            &mut scratch,
        );
        let prepared = scheme.prepare_cached(config, &honest, trials, &mut cache);
        let mut per_port_total = 0;
        for (name, pattern) in patterns {
            let cost = prepared
                .pattern_cost(pattern, 1)
                .expect("compiled schemes know their pattern economics");
            let spec = RunSpec::trial(seed).with_pattern(pattern);
            let opts = EstimateOpts::new(trials);
            let t0 = Instant::now();
            let honest_estimate = stats::estimate_with(
                &scheme,
                config,
                &honest,
                &spec,
                &opts,
                &mut scratch,
                &mut cache,
            )
            .acceptance();
            let secs = t0.elapsed().as_secs_f64();
            let mut row = Row::new("patterns", format!("{graph}/{name}"))
                .count("trials", trials)
                .count("messages", cost.messages)
                .count("max_round_bits", cost.max_bits_per_round)
                .count("total_bits", cost.total_bits)
                .num("secs", secs)
                .num("honest_estimate", honest_estimate)
                .bool("complete_ok", honest_estimate == 1.0);
            match pattern {
                MessagePattern::PerPort => {
                    per_port_total = cost.total_bits;
                    row = row.bool(
                        "per_port_identical",
                        honest_estimate == reference
                            && cost.max_bits_per_round == reference_report.max_bits_per_round
                            && cost.total_bits == reference_report.total_bits,
                    );
                }
                MessagePattern::Unicast => {
                    row = row.bool("unicast_undercuts_ok", cost.total_bits < per_port_total);
                }
                _ => {}
            }
            rows.push(row);
        }
    }
}

/// Whether one service reply reproduces the direct estimate bit for bit.
fn reply_matches(reply: &JobReply, direct: &Estimate) -> bool {
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

/// `req` run directly against the engine with a private fresh cache.
fn direct_estimate(req: &JobRequest) -> Estimate {
    let job = registry::build(req).expect("bench jobs are well-formed");
    stats::estimate(
        &*job.scheme,
        &job.config,
        &job.labeling,
        &req.run_spec(),
        &EstimateOpts::new(req.trials as usize),
    )
}

/// The service workload: three tenants with different schemes, graphs,
/// patterns, fault environments and seed sources, resubmitted so the
/// shared `PrepCache` has recurring content to hit on. Every reply must
/// equal the direct estimate (`verdicts_identical`), the resubmissions
/// must hit the cache (`cache_hit_ok`), and a sequential batch never
/// overflows the queue (`no_shed_ok`).
fn service(rows: &mut Vec<Row>) {
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

    let tenants = [a, b, c];
    let directs: Vec<Estimate> = tenants.iter().map(direct_estimate).collect();
    let service = Service::spawn();
    let t0 = Instant::now();
    let replies: Vec<JobReply> = (0..repeats)
        .flat_map(|_| tenants.iter())
        .map(|req| service.submit(req.clone()))
        .collect();
    let secs = t0.elapsed().as_secs_f64();
    let cache_hit_rate = service.cache_stats().hit_rate();
    let sheds = service.shed_count();
    service.shutdown();
    rows.push(
        Row::new("service", "mixed_tenants")
            .count("jobs", replies.len())
            .count("trials", trials)
            .num("jobs_per_sec", replies.len() as f64 / secs)
            .num("secs", secs)
            .num("sheds", sheds as f64)
            .num("cache_hit_rate", cache_hit_rate)
            .bool(
                "verdicts_identical",
                replies
                    .iter()
                    .enumerate()
                    .all(|(i, reply)| reply_matches(reply, &directs[i % tenants.len()])),
            )
            .bool("cache_hit_ok", cache_hit_rate > 0.0)
            .bool("no_shed_ok", sheds == 0),
    );
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

/// The chaos workload: retrying client → seeded [`ChaosProxy`] →
/// deadline'd TCP front → supervised service, driven twice with one chaos
/// seed. `verdicts_identical`: every verdict that survived equals the
/// direct estimate, and the crash-test job never delivers one.
/// `replay_identical`: the second pass reproduces every outcome, retry
/// split and the service's ledger. `shed_accounting_ok`: each worker panic
/// cost exactly one restart, the sequential client never pressured the
/// queue, and the completion ledger covers every delivery and fault.
fn service_chaos(rows: &mut Vec<Row>) {
    const CHAOS_SEED: u64 = 0xD15E_A5ED;
    let batch = chaos_bench_batch(if smoke_mode() { 40 } else { 200 });
    let directs: Vec<Option<Estimate>> = batch
        .iter()
        .map(|req| (req.scheme != registry::CRASH_TEST_SCHEME).then(|| direct_estimate(req)))
        .collect();

    let t0 = Instant::now();
    let (outcomes, stats) = chaos_pass(&batch, CHAOS_SEED);
    let secs = t0.elapsed().as_secs_f64();
    let replay = chaos_pass(&batch, CHAOS_SEED);

    let verdicts_identical =
        outcomes
            .iter()
            .zip(&directs)
            .all(|(outcome, direct)| match (outcome.0, direct) {
                (Some((trials, accepts, degraded)), Some(d)) => {
                    trials == d.trials as u64
                        && accepts == d.accepts as u64
                        && degraded == d.degraded_trials as u64
                }
                (Some(_), None) => false,
                (None, _) => true,
            });
    let delivered = outcomes.iter().filter(|o| o.0.is_some()).count();
    let shed_accounting_ok = stats.worker_faults == stats.worker_restarts
        && stats.worker_faults >= 1
        && stats.queue_sheds == 0
        && stats.evictions == 0
        && stats.deadline_sheds == 0
        && stats.completed >= delivered as u64 + stats.worker_faults;
    let sum = |field: fn(&ChaosOutcome) -> u32| outcomes.iter().map(field).sum::<u32>() as usize;
    rows.push(
        Row::new("service", "service_chaos")
            .count("jobs", batch.len())
            .count("delivered", delivered)
            .count("attempts", sum(|o| o.1))
            .count("transport_retries", sum(|o| o.2))
            .count("shed_retries", sum(|o| o.3))
            .num("worker_faults", stats.worker_faults as f64)
            .num("worker_restarts", stats.worker_restarts as f64)
            .num("secs", secs)
            .bool("verdicts_identical", verdicts_identical)
            .bool("replay_identical", (outcomes, stats) == replay)
            .bool("shed_accounting_ok", shed_accounting_ok),
    );
}

/// One large-graph workload: the compiled spanning tree forced dynamic
/// (honest labelings would otherwise take the static-pass shortcut and
/// leave nothing to time), optionally sketched.
struct ScaleCase {
    name: &'static str,
    config: Configuration,
    scheme: CompiledRpls<SpanningTreePls>,
    labeling: Labeling,
    trials: usize,
}

impl ScaleCase {
    fn new(name: &'static str, graph: Graph, trials: usize, sketch: Option<usize>) -> Self {
        let config = spanning(graph);
        let mut scheme = CompiledRpls::new(SpanningTreePls::new()).force_dynamic();
        if let Some(budget) = sketch {
            scheme = scheme.with_sketch(ProbeSketch::new(budget));
        }
        let labeling = Rpls::label(&scheme, &config);
        Self {
            name,
            config,
            scheme,
            labeling,
            trials,
        }
    }

    /// Directed-port probes per estimate: the scale-free unit of work.
    fn probes(&self) -> f64 {
        (2 * self.config.graph().edge_count() * self.trials) as f64
    }

    /// The honest estimate, serial or on `workers` threads.
    fn run(&self, workers: Option<usize>) -> Estimate {
        let (spec, opts) = (RunSpec::trial(0x5CA1E), EstimateOpts::new(self.trials));
        let (s, c, l) = (&self.scheme, &self.config, &self.labeling);
        match workers {
            None => stats::estimate(s, c, l, &spec, &opts),
            Some(w) => stats::estimate_par(s, c, l, &spec, &opts, Some(w)),
        }
    }

    /// The row for `secs` per estimate; `estimate` must accept every trial.
    fn row(&self, secs: f64, estimate: &Estimate) -> Row {
        Row::new("scale", self.name)
            .count("n", self.config.node_count())
            .count("ports", 2 * self.config.graph().edge_count())
            .count("trials", self.trials)
            .num("secs", secs)
            .num("ports_per_sec", self.probes() / secs)
            .bool("complete_ok", estimate.accepts == estimate.trials)
    }
}

/// The `scale` workload. `dense_vs_sparse_ratio` is the sketched clique's
/// per-port throughput over the sparse family's, paired; it must stay
/// above 1/2 (`dense_within_2x_ok`). `thread_scaling_k` rows time
/// `estimate_par` at k workers against the serial estimate, for each
/// k ≤ `cores`, and `par_identical` pins it to the serial estimate.
fn scale(rows: &mut Vec<Row>) {
    // Both ratios depend on the dimensions (thread-spawn overhead dominates
    // tiny runs; a smaller clique subsamples less), so smoke mode keeps them.
    let sparse = ScaleCase::new(
        "sparse_random",
        generators::random_sparse(16_384, 4096, &mut StdRng::seed_from_u64(0xBEEF)),
        32,
        None,
    );
    let sketched = ScaleCase::new("clique_sketched", generators::complete(512), 4, Some(16));
    for case in [
        ScaleCase::new(
            "power_law",
            generators::power_law(16_384, 2, &mut StdRng::seed_from_u64(0xF00D)),
            32,
            None,
        ),
        ScaleCase::new("clique_full", generators::complete(512), 4, None),
    ] {
        // Informational: one sample after the warm-up call.
        let estimate = Cell::default();
        let secs = interleaved(1, &mut [&mut || estimate.set(case.run(None))]);
        rows.push(case.row(secs[0][0], &estimate.into_inner()));
    }

    let workers: Vec<usize> = [2, 4].into_iter().filter(|&k| k <= cores()).collect();
    let sides: Vec<(&ScaleCase, Option<usize>)> = [(&sparse, None), (&sketched, None)]
        .into_iter()
        .chain(workers.iter().map(|&k| (&sparse, Some(k))))
        .collect();
    let estimates: Vec<Cell<Estimate>> = sides.iter().map(|_| Cell::default()).collect();
    let mut runs: Vec<_> = sides
        .iter()
        .zip(&estimates)
        .map(|(&(case, workers), cell)| move || cell.set(case.run(workers)))
        .collect();
    let mut runs: Vec<&mut dyn FnMut()> = runs.iter_mut().map(|f| f as &mut dyn FnMut()).collect();
    let secs = interleaved(rounds(), &mut runs);
    let estimates: Vec<Estimate> = estimates.into_iter().map(Cell::into_inner).collect();
    let median = |side: usize| Spread::of(&secs[side]).median;

    let ratio = Spread::of_ratios(&secs[0], &secs[1]).scaled(sketched.probes() / sparse.probes());
    rows.push(sparse.row(median(0), &estimates[0]));
    rows.push(
        sketched
            .row(median(1), &estimates[1])
            .spread("dense_vs_sparse_ratio", ratio)
            .bool("dense_within_2x_ok", ratio.median >= 0.5),
    );
    for (i, &k) in workers.iter().enumerate() {
        let side = 2 + i;
        rows.push(
            Row::new("scale", format!("thread_scaling_{k}"))
                .count("threads", k)
                .num("secs", median(side))
                .num("ports_per_sec", sparse.probes() / median(side))
                .spread(
                    "thread_scaling_ratio",
                    Spread::of_ratios(&secs[0], &secs[side]),
                )
                .bool("par_identical", estimates[side] == estimates[0]),
        );
    }
}

/// The machine's available parallelism.
fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

fn main() {
    let workloads: [fn(&mut Vec<Row>); 9] = [
        round_matrix,
        acceptance,
        adversary_sweep,
        tradeoff,
        faults,
        patterns,
        service,
        service_chaos,
        scale,
    ];
    let mut rows = Vec::new();
    for workload in workloads {
        let from = rows.len();
        workload(&mut rows);
        for row in &rows[from..] {
            println!("bench: {}", row.to_json());
        }
    }
    let (mode, file) = if smoke_mode() {
        ("smoke", "BENCH_engine_smoke.json")
    } else {
        ("full", "BENCH_engine.json")
    };
    let bench = Bench {
        mode: mode.into(),
        cores: Some(cores()),
        rows,
    };
    let path = format!("{}/../../{file}", env!("CARGO_MANIFEST_DIR"));
    std::fs::write(&path, bench.to_json()).expect("write bench JSON");
    println!("bench: wrote {path}");
}
