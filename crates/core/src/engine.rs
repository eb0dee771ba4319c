//! Synchronous execution of schemes.
//!
//! The model of §2.1 is a single round: every node sends one value to each
//! neighbor, receives one value from each, and outputs a boolean. The
//! engine simulates this exactly and deterministically:
//!
//! * deterministic schemes exchange labels ([`run_deterministic`]);
//! * randomized schemes generate one certificate per (node, port) from an
//!   **independent** random stream keyed by `(seed, node, port)` —
//!   edge-independence (Definition 4.5) holds by construction — and deliver
//!   each certificate to the far endpoint of its edge ([`run_randomized`]
//!   materialises the whole round as a [`RoundRecord`]).
//!
//! # One run surface
//!
//! Every other randomized run is named by one value. A [`RunSpec`] carries
//! the job's `rounds` (the t-round trade-off), `pattern` (the
//! broadcast/unicast spectrum), `stream_mode` (edge-independent streams or
//! the deliberate Proposition 4.6 violation), optional `faults`, and a
//! [`SeedSource`] (private trial seed or public beacon coins). [`run`],
//! [`run_prepared`] and [`run_trials`] execute it and return one
//! [`RunReport`] per trial.
//!
//! [`run_trials`] hands a whole block of seeds to the prepared scheme's one
//! trial hook, [`PreparedRpls::run_block`]. The hook's default is the
//! scalar reference in this module: certificate generation into a flat
//! [`CertificateBuffer`] arena, then delivery and verification.
//! [`CompiledRpls`](crate::compiler::CompiledRpls) overrides the hook with
//! batched kernels that never materialise a certificate and emit
//! bit-identical reports (`tests/engine_golden.rs` pins this). To run the
//! scalar reference on an unprepared scheme, wrap it in
//! [`Unprepared`].
//!
//! [`run_degraded`] is the one per-node diagnostic: a one-round faulted
//! trial reported with each node's verdict and missing-message count.
//!
//! # Throughput
//!
//! Monte-Carlo estimation runs tens of thousands of rounds per data point.
//! Certificates live in an arena indexed by the configuration's CSR port
//! layout, per-port randomness comes from counter-based [`PortRng`]
//! streams (no per-stream key expansion), and a round runs against a
//! caller-owned [`RoundScratch`] without allocating after warm-up.

use crate::buffer::{CertificateBuffer, Received, RoundScratch};
use crate::fault::{DegradedSummary, Delivery, EdgeSchedule, FaultCounts, FaultPlan};
use crate::labeling::Labeling;
use crate::rng::PortRng;
use crate::scheme::{DetView, LocalContext, Pls, PreparedRpls, Rpls, Unprepared};
use crate::state::Configuration;
use rpls_bits::{BitSlice, BitString};
use rpls_graph::{NodeId, Port};

pub use crate::rng::mix_seed;

/// The per-node votes of one verification round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outcome {
    votes: Vec<bool>,
}

impl Outcome {
    /// Wraps raw per-node votes (used by the alternative execution modes,
    /// e.g. label-free local decision).
    #[must_use]
    pub fn from_votes(votes: Vec<bool>) -> Self {
        Self { votes }
    }

    /// Whether the round *accepts*: every node returned `true`.
    #[must_use]
    pub fn accepted(&self) -> bool {
        self.votes.iter().all(|&v| v)
    }

    /// The nodes that returned `false`.
    #[must_use]
    pub fn rejecting_nodes(&self) -> Vec<NodeId> {
        self.votes
            .iter()
            .enumerate()
            .filter(|(_, &v)| !v)
            .map(|(i, _)| NodeId::new(i))
            .collect()
    }

    /// The raw vote of each node.
    #[must_use]
    pub fn votes(&self) -> &[bool] {
        &self.votes
    }
}

/// A full randomized round: every generated certificate plus the votes.
#[derive(Debug, Clone)]
pub struct RoundRecord {
    /// `certificates[v][p]` is the certificate node `v` generated for its
    /// port rank `p`.
    pub certificates: Vec<Vec<BitString>>,
    /// The verification outcome.
    pub outcome: Outcome,
}

impl RoundRecord {
    /// The largest certificate generated this round, in bits — one sample
    /// of the verification complexity of Definition 2.1.
    #[must_use]
    pub fn max_certificate_bits(&self) -> usize {
        self.certificates
            .iter()
            .flatten()
            .map(BitString::len)
            .max()
            .unwrap_or(0)
    }

    /// Total bits communicated this round, summed over every directed edge
    /// (the network-wide communication cost the paper's bandwidth
    /// motivation is about).
    #[must_use]
    pub fn total_certificate_bits(&self) -> usize {
        self.certificates.iter().flatten().map(BitString::len).sum()
    }
}

/// Seed-derivation tag of per-round streams beyond the first, chosen to
/// collide with neither the estimator tags in [`stats`](crate::stats) nor
/// any (node, port) mixing.
const TAG_MULTIROUND: u64 = 0x6D72_6F75_6E64; // "mround"

/// The stream seed of round `round` (0-based) within a multi-round trial
/// whose base seed is `seed`. Round 0 uses `seed` itself, so the `t = 1`
/// schedule consumes **exactly** the randomness of the one-round engine —
/// the bit-identity `tests/engine_golden.rs` pins; later rounds get
/// independently mixed seeds.
#[must_use]
pub fn multiround_seed(seed: u64, round: usize) -> u64 {
    if round == 0 {
        seed
    } else {
        mix_seed(seed, round as u64, TAG_MULTIROUND)
    }
}

/// How per-port random streams are keyed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamMode {
    /// One independent stream per (node, port) — Definition 4.5 holds.
    EdgeIndependent,
    /// One stream per node, consumed sequentially across its ports — the
    /// deliberate edge-independence violation of the Proposition 4.6
    /// probes.
    SharedPerNode,
}

/// How many **distinct** messages a node emits per round — the
/// Patt-Shamir–Perry axis ("Proof-Labeling Schemes: Broadcast, Unicast and
/// In Between"): between the broadcast model, where a node utters one
/// message heard by all neighbors, and the unicast model, where every port
/// carries its own message, lies a spectrum parameterised by the number of
/// distinct messages `k`, and the number of distinct messages is a resource
/// axis of its own with real verification-complexity consequences.
///
/// The engine realises the spectrum as a first-class parameter next to
/// [`StreamMode`]:
///
/// * [`MessagePattern::PerPort`] — one independently drawn message per
///   port, the classic RPLS model and the [`RunSpec`] default.
/// * [`MessagePattern::Broadcast`] — one message per node per round,
///   drawn from the node's single stream and shared across all its ports.
///   A one-round broadcast therefore *coincides* with what
///   [`StreamMode::SharedPerNode`] draws for port 0 — the broadcast
///   pattern subsumes the node-keyed stream machinery rather than
///   duplicating it — and ignores `StreamMode` (there is only one message,
///   so there is nothing to correlate).
/// * [`MessagePattern::Unicast`] — one distinct message per port, but the
///   random point `x` of a fingerprint message is a pure function of the
///   public round seed (Filtser–Fischer-style randomness sharing), so only
///   the evaluation `P(x)` needs the wire: compiled schemes charge half
///   the per-port message width. Transcripts are identical to `PerPort` —
///   the saving is accounting, the verdict path is untouched.
/// * [`MessagePattern::KMessages`] — `k` distinct messages interpolating
///   between the endpoints: port `p` carries slot `p mod k`'s message. At
///   `k ≥ degree` this is bit-identical to `PerPort` under
///   [`StreamMode::EdgeIndependent`].
///
/// Patterns re-time and re-share *messages*; they never change verdict
/// semantics: `PerPort` and `Unicast` are transcript-identical, and
/// `Broadcast`/`KMessages` deliver each slot's message on every port that
/// maps to the slot, so delivery and verification are untouched.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MessagePattern {
    /// One independent message per port (the classic RPLS model).
    PerPort,
    /// One message per node per round, shared across all its ports.
    Broadcast,
    /// One distinct message per port at half the wire cost for compiled
    /// fingerprint schemes (the random point rides the public round seed).
    Unicast,
    /// `k` distinct messages per node per round, or one per port at nodes
    /// of degree below `k`; port `p` carries slot `p mod k`.
    KMessages(std::num::NonZeroUsize),
}

impl MessagePattern {
    /// The number of distinct message slots a node of `degree` fills under
    /// this pattern: `degree` for per-port and unicast, 1 for broadcast,
    /// `min(k, degree)` for k-messages. A degree-0 node fills no slot
    /// under any pattern.
    #[must_use]
    pub fn slots(self, degree: usize) -> usize {
        if degree == 0 {
            return 0;
        }
        match self {
            Self::PerPort | Self::Unicast => degree,
            Self::Broadcast => 1,
            Self::KMessages(k) => k.get().min(degree),
        }
    }

    /// The message slot port rank `port` carries under this pattern at a
    /// node of `degree` (`port < degree` required): the port itself for
    /// per-port and unicast, slot 0 for broadcast, `port mod k` for
    /// k-messages.
    #[must_use]
    pub fn slot_of(self, degree: usize, port: usize) -> usize {
        match self {
            Self::PerPort | Self::Unicast => port,
            Self::Broadcast => 0,
            Self::KMessages(_) => port % self.slots(degree),
        }
    }
}

/// The per-round communication profile of a prepared scheme under one
/// [`MessagePattern`] — what [`PreparedRpls::pattern_cost`] reports and the
/// complexity triple in [`measure`](crate::measure) is built from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PatternCost {
    /// The largest number of distinct messages any node emits per round
    /// (`max_v slots(deg v)`): `Δ` for per-port/unicast, 1 for broadcast.
    pub messages: usize,
    /// The largest number of bits any single message carries in any round.
    pub max_bits_per_round: usize,
    /// Total bits on the wire over all nodes, slots, and rounds — each
    /// distinct message is counted **once** per round, which is exactly
    /// where broadcast and unicast beat per-port.
    pub total_bits: usize,
}

/// Where the base seed of a [`RunSpec`] comes from — the private-coin /
/// public-coin axis of the run surface.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeedSource {
    /// An ordinary private trial seed: the caller picks (or derives) a
    /// 64-bit seed.
    Trial(u64),
    /// GRAIL-style **public coins**: the seed is derived from a randomness
    /// beacon pulse via [`beacon_seed`](crate::rng::beacon_seed), so any
    /// third party holding `(round_id, value)` and a published transcript
    /// re-derives every certificate bit-for-bit. Verification itself is
    /// unchanged — the beacon only replaces where the seed comes from.
    Beacon {
        /// The beacon pulse's sequence number (e.g. a drand round).
        round_id: u64,
        /// The pulse's published 64-bit value.
        value: u64,
    },
}

impl SeedSource {
    /// The 64-bit engine base seed this source denotes.
    #[must_use]
    pub fn resolve(self) -> u64 {
        match self {
            Self::Trial(seed) => seed,
            Self::Beacon { round_id, value } => crate::rng::beacon_seed(round_id, value),
        }
    }
}

/// One verification job, fully specified — the engine's single run
/// surface. Every axis is a field:
///
/// * `rounds` — the t-round space–time trade-off (1 = the paper's
///   one-round model);
/// * `pattern` — the broadcast/unicast/k-messages spectrum;
/// * `stream_mode` — edge-independent randomness or the deliberate
///   Proposition 4.6 violation mode;
/// * `faults` — an optional fault plan (lossy/corrupting channels,
///   crash-stop nodes);
/// * `seed_source` — private trial seed or public beacon coins.
///
/// Execute a spec with [`run`] (unprepared convenience), [`run_prepared`]
/// (against a prepared scheme) or [`run_trials`] (whole seed blocks, the
/// Monte-Carlo regime).
///
/// Faults are delivered as the [`fault`](crate::fault) module describes,
/// single-shot at `rounds = 1`.
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// Schedule length `t` (must be ≥ 1; enforced at execution).
    pub rounds: usize,
    /// The message pattern certificates are shared under.
    pub pattern: MessagePattern,
    /// How per-port random streams are keyed.
    pub stream_mode: StreamMode,
    /// The fault environment, `None` for a clean network.
    pub faults: Option<FaultPlan>,
    /// Where the base seed comes from.
    pub seed_source: SeedSource,
}

impl RunSpec {
    /// A one-round, per-port, edge-independent, fault-free spec over
    /// `seed_source`.
    #[must_use]
    pub fn new(seed_source: SeedSource) -> Self {
        Self {
            rounds: 1,
            pattern: MessagePattern::PerPort,
            stream_mode: StreamMode::EdgeIndependent,
            faults: None,
            seed_source,
        }
    }

    /// A default spec over a private trial seed.
    #[must_use]
    pub fn trial(seed: u64) -> Self {
        Self::new(SeedSource::Trial(seed))
    }

    /// A default spec over public beacon coins (see [`SeedSource::Beacon`]).
    #[must_use]
    pub fn beacon(round_id: u64, value: u64) -> Self {
        Self::new(SeedSource::Beacon { round_id, value })
    }

    /// Sets the schedule length `t`.
    ///
    /// # Panics
    ///
    /// Panics if `rounds` is 0.
    #[must_use]
    pub fn with_rounds(mut self, rounds: usize) -> Self {
        assert!(rounds > 0, "a schedule needs at least one round");
        self.rounds = rounds;
        self
    }

    /// Sets the message pattern.
    #[must_use]
    pub fn with_pattern(mut self, pattern: MessagePattern) -> Self {
        self.pattern = pattern;
        self
    }

    /// Sets the stream mode.
    #[must_use]
    pub fn with_stream_mode(mut self, mode: StreamMode) -> Self {
        self.stream_mode = mode;
        self
    }

    /// Installs a fault plan.
    #[must_use]
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// The resolved 64-bit base seed of this spec.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed_source.resolve()
    }
}

/// The fault half of a [`RunReport`]: how much the plan actually degraded
/// the trial. Present iff the spec carried a fault plan — a transparent
/// plan still reports (all-zero) fault statistics, because the trial ran
/// through the fault layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultReport {
    /// Nodes that were missing at least one incident message (and so voted
    /// a conservative reject).
    pub insufficient_nodes: usize,
    /// Messages that never arrived, over all rounds (after retries).
    pub missing_messages: usize,
    /// Fault events that fired.
    pub counts: FaultCounts,
}

/// The result of executing one [`RunSpec`] trial — the one report type
/// every engine path emits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunReport {
    /// Whether every node's (accumulated) verdict is accept. Under faults,
    /// a node missing input rejects, so faults only flip accept → reject.
    pub accepted: bool,
    /// The schedule length the trial ran with (1 for one-round specs).
    pub rounds: usize,
    /// The 1-based round the global verdict became known in: the earliest
    /// round in which some node's accumulated verdict turned `false`
    /// (early rejection), or `rounds` for accepting trials and for
    /// schedules whose verifiers only vote once the last chunk arrived.
    pub decided_round: usize,
    /// Largest bits any single directed edge carried in any single round —
    /// the per-round communication the trade-off shrinks as ≈ κ/t. For a
    /// one-round clean trial this is the largest certificate
    /// (Definition 2.1).
    pub max_bits_per_round: usize,
    /// Total bits over all directed edges and rounds, including duplicate
    /// and retry transmissions and excluding what crashed senders never
    /// sent.
    pub total_bits: usize,
    /// Fault statistics, `Some` iff the spec carried a fault plan.
    pub fault: Option<FaultReport>,
}

impl RunReport {
    /// The report of a clean one-round trial.
    pub(crate) fn one_round(accepted: bool, max_bits: usize, total_bits: usize) -> Self {
        Self {
            accepted,
            rounds: 1,
            decided_round: 1,
            max_bits_per_round: max_bits,
            total_bits,
            fault: None,
        }
    }

    /// The default **certificate-splitting** schedule, derived from a
    /// one-round report: each directed edge's certificate is cut into
    /// `rounds` chunks (the last possibly short) and chunk `r` is delivered
    /// in round `r`; verifiers reassemble and vote after the last round.
    /// Verdicts and total bits are exactly the one-round ones; per-round
    /// communication is `⌈max_bits / rounds⌉` (ceiling division is
    /// monotone, so the per-edge maximum commutes with the split).
    fn split(self, rounds: usize) -> Self {
        Self {
            rounds,
            decided_round: rounds,
            max_bits_per_round: self.max_bits_per_round.div_ceil(rounds),
            ..self
        }
    }
}

/// Executes one [`RunSpec`] trial of `scheme` against `labeling`,
/// preparing the labeling internally — the one-shot convenience the
/// service front uses. Callers running many trials should prepare once
/// ([`Rpls::prepare`] / [`Rpls::prepare_cached`]) and use [`run_prepared`]
/// or [`run_trials`].
///
/// # Panics
///
/// Panics if `spec.rounds` is 0 or `labeling` does not assign one label
/// per node.
pub fn run<S: Rpls + ?Sized>(
    spec: &RunSpec,
    scheme: &S,
    config: &Configuration,
    labeling: &Labeling,
) -> RunReport {
    assert_eq!(
        labeling.len(),
        config.node_count(),
        "one label per node required"
    );
    let prepared = scheme.prepare(config, labeling, 1);
    run_prepared(spec, &*prepared, config, &mut RoundScratch::new())
}

/// Executes one [`RunSpec`] trial of a **prepared** scheme, seeded by
/// `spec.seed()`.
///
/// A one-round spec runs the scalar reference, so afterwards
/// `scratch.votes()` and `scratch.certificates()` hold the round (for a
/// faulted spec, the votes are the conservative faulted ones). A longer
/// schedule runs through [`PreparedRpls::run_block`], exactly as
/// [`run_trials`] would for a one-seed block.
///
/// # Panics
///
/// Panics if `spec.rounds` is 0.
pub fn run_prepared<P: PreparedRpls + ?Sized>(
    spec: &RunSpec,
    prepared: &P,
    config: &Configuration,
    scratch: &mut RoundScratch,
) -> RunReport {
    assert!(spec.rounds > 0, "a schedule needs at least one round");
    let seed = spec.seed();
    if spec.rounds == 1 {
        return scalar_trial(spec, prepared, config, seed, scratch).0;
    }
    let mut out = None;
    prepared.run_block(spec, config, &[seed], scratch, &mut |r| out = Some(r));
    out.expect("run_block emits one report per seed")
}

/// Runs one [`RunSpec`] trial per seed in `seeds` against a prepared
/// scheme, calling `emit` once per trial in seed order — the block
/// dispatch every Monte-Carlo estimator funnels into
/// ([`stats::estimate`](crate::stats::estimate) and friends).
///
/// Delegates to [`PreparedRpls::run_block`], whose reports are
/// bit-identical to calling [`run_prepared`] once per seed.
/// `spec.seed_source` is **not** consulted: the caller supplies the
/// explicit per-trial seed block (the estimators derive one from the
/// spec's base seed). Batched hooks may skip materialising certificates,
/// so no promise is made about `scratch` afterwards.
///
/// # Panics
///
/// Panics if `spec.rounds` is 0.
pub fn run_trials<P: PreparedRpls + ?Sized>(
    spec: &RunSpec,
    prepared: &P,
    config: &Configuration,
    seeds: &[u64],
    scratch: &mut RoundScratch,
    emit: &mut dyn FnMut(RunReport),
) {
    assert!(spec.rounds > 0, "a schedule needs at least one round");
    prepared.run_block(spec, config, seeds, scratch, emit);
}

/// Executes one faulted one-round trial of a prepared scheme and reports
/// it per node — the engine's per-node diagnostic. The summary's `report`
/// is exactly what [`run_prepared`] returns for the same spec; `verdicts`
/// and `missing` say which nodes rejected and which lost input. A spec
/// without faults runs clean, with verdicts mirroring the votes.
///
/// # Panics
///
/// Panics if `spec.rounds` is not 1.
pub fn run_degraded<P: PreparedRpls + ?Sized>(
    spec: &RunSpec,
    prepared: &P,
    config: &Configuration,
    scratch: &mut RoundScratch,
) -> DegradedSummary {
    assert_eq!(spec.rounds, 1, "the per-node diagnostic is one-round only");
    let (report, missing) = match scalar_trial(spec, prepared, config, spec.seed(), scratch) {
        (report, Some(delivery)) => (report, delivery.missing),
        (report, None) => (report, vec![0; config.node_count()]),
    };
    DegradedSummary::new(report, scratch.votes(), missing)
}

/// Builds the strictly-local context of `node` within `config` —
/// allocation-free, borrowing the configuration's precomputed port layout.
#[must_use]
pub fn local_context(config: &Configuration, node: NodeId) -> LocalContext<'_> {
    LocalContext {
        node,
        state: config.state(node),
        incident_weights: config.incident_weights(node),
    }
}

/// Runs a deterministic verification round: every node sees its own label
/// and its neighbors' labels, and votes.
pub fn run_deterministic<S: Pls + ?Sized>(
    scheme: &S,
    config: &Configuration,
    labeling: &Labeling,
) -> Outcome {
    assert_eq!(
        labeling.len(),
        config.node_count(),
        "one label per node required"
    );
    let g = config.graph();
    let mut neighbor_labels: Vec<BitSlice<'_>> = Vec::new();
    let votes = g
        .nodes()
        .map(|v| {
            neighbor_labels.clear();
            neighbor_labels.extend(g.neighbors(v).map(|nb| labeling.get(nb.node).as_slice()));
            let view = DetView {
                local: local_context(config, v),
                label: labeling.get(v).as_slice(),
                neighbor_labels: std::mem::take(&mut neighbor_labels),
            };
            let vote = scheme.verify(&view);
            neighbor_labels = view.neighbor_labels;
            vote
        })
        .collect();
    Outcome { votes }
}

/// Runs a randomized verification round with edge-independent randomness
/// and materialises it: node `v`'s certificate for port `p` is drawn from
/// a stream keyed by `(seed, v, p)`, independent across both nodes and
/// ports. The votes and bits are those of
/// `run_prepared(&RunSpec::trial(seed), &Unprepared::new(..), ..)`.
pub fn run_randomized<S: Rpls + ?Sized>(
    scheme: &S,
    config: &Configuration,
    labeling: &Labeling,
    seed: u64,
) -> RoundRecord {
    let mut scratch = RoundScratch::new();
    run_prepared(
        &RunSpec::trial(seed),
        &Unprepared::new(scheme, config, labeling),
        config,
        &mut scratch,
    );
    RoundRecord {
        certificates: scratch.buffer.to_nested(config.port_base()),
        outcome: Outcome {
            votes: scratch.votes,
        },
    }
}

/// The scalar reference of [`PreparedRpls::run_block`]: one
/// [`run_prepared`]-equivalent scalar trial per seed, the hook's default.
pub(crate) fn scalar_block<P: PreparedRpls + ?Sized>(
    spec: &RunSpec,
    prepared: &P,
    config: &Configuration,
    seeds: &[u64],
    scratch: &mut RoundScratch,
    emit: &mut dyn FnMut(RunReport),
) {
    for &seed in seeds {
        emit(scalar_trial(spec, prepared, config, seed, scratch).0);
    }
}

/// Runs `trials` trials of `spec` through [`run_trials`], with per-trial
/// seeds `seed_of(0..trials)` handed over in blocks of [`TRIAL_CHUNK`] —
/// the seed loop every estimator and measurement sweep shares. Chunking
/// bounds memory at O(chunk) for any trial count without changing results
/// (trials are independent).
pub(crate) fn run_seeded_trials(
    spec: &RunSpec,
    prepared: &dyn PreparedRpls,
    config: &Configuration,
    trials: usize,
    seed_of: &dyn Fn(u64) -> u64,
    scratch: &mut RoundScratch,
    emit: &mut dyn FnMut(RunReport),
) {
    let mut seeds = Vec::with_capacity(TRIAL_CHUNK.min(trials));
    let mut next = 0usize;
    while next < trials {
        let chunk = TRIAL_CHUNK.min(trials - next);
        seeds.clear();
        seeds.extend((next..next + chunk).map(|t| seed_of(t as u64)));
        next += chunk;
        run_trials(spec, prepared, config, &seeds, scratch, emit);
    }
}

/// One scalar trial of `spec` under `seed`, plus its delivery when a
/// non-transparent fault plan ran. Longer schedules re-time the one-round
/// trial (same seed, same randomness) as the certificate-splitting
/// schedule of [`RunReport::split`]; faults are delivered over the same
/// split, chunk by chunk ([`EdgeSchedule::split`]). Afterwards
/// `scratch.votes()` holds the votes, conservative under faults.
fn scalar_trial<P: PreparedRpls + ?Sized>(
    spec: &RunSpec,
    prepared: &P,
    config: &Configuration,
    seed: u64,
    scratch: &mut RoundScratch,
) -> (RunReport, Option<Delivery>) {
    let (pattern, mode, rounds) = (spec.pattern, spec.stream_mode, spec.rounds);
    let Some(plan) = spec.faults.as_ref().filter(|p| !p.is_transparent()) else {
        let report = RunReport {
            fault: spec.faults.as_ref().map(|_| FaultReport::default()),
            ..clean_round(prepared, config, seed, pattern, mode, scratch).split(rounds)
        };
        return (report, None);
    };
    let RoundScratch { buffer, votes, tmp } = scratch;
    certify_round(prepared, config, seed, pattern, mode, buffer, tmp);
    let split = |port: usize| EdgeSchedule::split(buffer.get(port).len(), rounds);
    let horizon = if rounds == 1 {
        1
    } else {
        (0..config.port_count())
            .map(|p| split(p).messages)
            .max()
            .unwrap_or(0)
    };
    let mut delivery = Delivery::default();
    plan.deliver(
        config,
        seed,
        rounds,
        horizon,
        |src, _| split(src),
        &mut delivery,
    );
    let accepted = verify_round(prepared, config, buffer, &delivery.missing, votes);
    (delivery.report(rounds, accepted, rounds), Some(delivery))
}

/// The clean scalar round: certificate generation, then delivery and
/// verification. After the call `scratch.votes()` / `scratch.certificates()`
/// hold the round. The bit accounting counts each distinct message slot
/// once, overridden by [`PreparedRpls::pattern_cost`] when the scheme
/// knows its wire cost, so scalar and batched reports agree by
/// construction.
fn clean_round<P: PreparedRpls + ?Sized>(
    prepared: &P,
    config: &Configuration,
    seed: u64,
    pattern: MessagePattern,
    mode: StreamMode,
    scratch: &mut RoundScratch,
) -> RunReport {
    let RoundScratch { buffer, votes, tmp } = scratch;
    let (max_bits, total_bits) = certify_round(prepared, config, seed, pattern, mode, buffer, tmp);
    let accepted = verify_round(prepared, config, buffer, &[], votes);
    match prepared.pattern_cost(pattern, 1) {
        Some(cost) => RunReport::one_round(accepted, cost.max_bits_per_round, cost.total_bits),
        None => RunReport::one_round(accepted, max_bits, total_bits),
    }
}

/// Certificate generation: fills the arena with one certificate per port,
/// in global port order. Port `p` of node `v` carries the message of slot
/// `pattern.slot_of(deg v, p)`:
///
/// * per-port and unicast slots are the ports themselves, drawn from the
///   edge stream of `(v, p)` — or, in [`StreamMode::SharedPerNode`], all
///   from one node stream consumed sequentially across the ports;
/// * a broadcast slot draws from the node's stream and k-message slot `s`
///   from the edge stream of `(v, s)`, whatever the stream mode. Every
///   port of a slot regenerates the slot's message from a fresh generator,
///   so the copies are bit-identical by construction.
///
/// Returns `(max_bits, total_bits)` with each distinct slot counted once —
/// the pattern's wire accounting.
fn certify_round<P: PreparedRpls + ?Sized>(
    prepared: &P,
    config: &Configuration,
    seed: u64,
    pattern: MessagePattern,
    mode: StreamMode,
    buffer: &mut CertificateBuffer,
    tmp: &mut BitString,
) -> (usize, usize) {
    let g = config.graph();
    let shared_stream = matches!(pattern, MessagePattern::PerPort | MessagePattern::Unicast)
        && mode == StreamMode::SharedPerNode;
    let mut max_bits = 0usize;
    let mut total_bits = 0usize;
    buffer.clear();
    for v in g.nodes() {
        let node = v.index() as u64;
        let degree = g.degree(v);
        let slots = pattern.slots(degree);
        let mut node_rng = PortRng::for_node(seed, node);
        for p in 0..degree {
            let slot = pattern.slot_of(degree, p);
            let port = Port::from_rank(slot);
            if shared_stream {
                prepared.certify_into(v, port, &mut node_rng, tmp);
            } else {
                let mut rng = match pattern {
                    MessagePattern::Broadcast => PortRng::for_node(seed, node),
                    _ => PortRng::for_edge(seed, node, slot as u64),
                };
                prepared.certify_into(v, port, &mut rng, tmp);
            }
            if p < slots {
                max_bits = max_bits.max(tmp.len());
                total_bits += tmp.len();
            }
            buffer.push(tmp);
        }
    }
    (max_bits, total_bits)
}

/// Delivery and verification over a filled arena. The certificate arriving
/// at `v` on port `p` is the one its neighbor generated for the far end of
/// that edge; the configuration's delivery map has the routing
/// precomputed. A node with `missing[v] > 0` lost input and votes a
/// conservative reject without consulting its verifier (`missing` is empty
/// for clean rounds). Returns whether every node accepted.
fn verify_round<P: PreparedRpls + ?Sized>(
    prepared: &P,
    config: &Configuration,
    buffer: &CertificateBuffer,
    missing: &[u32],
    votes: &mut Vec<bool>,
) -> bool {
    let delivery = config.delivery();
    let port_base = config.port_base();
    votes.clear();
    let mut accepted = true;
    for v in config.graph().nodes() {
        let i = v.index();
        let vote = missing.get(i).is_none_or(|&m| m == 0) && {
            let sources = &delivery[port_base[i] as usize..port_base[i + 1] as usize];
            prepared.verify(v, &Received::new(buffer, sources))
        };
        accepted &= vote;
        votes.push(vote);
    }
    accepted
}

/// How many per-trial seeds the estimators hand to the batched engine at
/// once. Bounds estimator memory at O(chunk) for any trial count while
/// leaving whole-node batching intact — trials are independent, so chunked
/// and unchunked runs are bit-identical, and any chunk in the thousands
/// amortises the per-block plan walk to noise.
pub(crate) const TRIAL_CHUNK: usize = 8192;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultSpec;
    use crate::scheme::{CertView, ErrorSides, RandView};
    use rand::Rng;
    use rpls_graph::generators;

    /// A scheme that accepts iff every neighbor's label equals its own —
    /// legal labelings are constant ones.
    struct AgreeOnLabel;

    impl Pls for AgreeOnLabel {
        fn name(&self) -> String {
            "agree".into()
        }
        fn label(&self, config: &Configuration) -> Labeling {
            Labeling::new(vec![
                BitString::from_bools([true, false]);
                config.node_count()
            ])
        }
        fn verify(&self, view: &DetView<'_>) -> bool {
            view.neighbor_labels.iter().all(|l| *l == view.label)
        }
    }

    #[test]
    fn deterministic_round_accepts_consistent_labels() {
        let config = Configuration::plain(generators::cycle(5));
        let labeling = AgreeOnLabel.label(&config);
        let out = run_deterministic(&AgreeOnLabel, &config, &labeling);
        assert!(out.accepted());
        assert!(out.rejecting_nodes().is_empty());
    }

    #[test]
    fn deterministic_round_flags_inconsistency() {
        let config = Configuration::plain(generators::cycle(5));
        let mut labeling = AgreeOnLabel.label(&config);
        labeling.set(NodeId::new(2), BitString::zeros(2));
        let out = run_deterministic(&AgreeOnLabel, &config, &labeling);
        assert!(!out.accepted());
        // Node 2's neighbors (1 and 3) reject; node 2 itself rejects too
        // since its neighbors now differ from it.
        let rejecting = out.rejecting_nodes();
        assert!(rejecting.contains(&NodeId::new(1)));
        assert!(rejecting.contains(&NodeId::new(3)));
    }

    /// A scheme whose certificate is one fresh random bit per port; verify
    /// accepts everything. Used to check stream independence.
    struct RandomBit;

    impl Rpls for RandomBit {
        fn name(&self) -> String {
            "random-bit".into()
        }
        fn error_sides(&self) -> ErrorSides {
            ErrorSides::TwoSided
        }
        fn label(&self, config: &Configuration) -> Labeling {
            Labeling::empty(config.node_count())
        }
        fn certify(&self, _view: &CertView<'_>, _port: Port, rng: &mut dyn Rng) -> BitString {
            BitString::from_bools([(rng.next_u64() & 1) == 1])
        }
        fn verify(&self, _view: &RandView<'_>) -> bool {
            true
        }
    }

    /// Runs one scalar trial of `spec` on the unprepared scheme and returns
    /// the report plus the round's certificates.
    fn unprepared_round<S: Rpls>(
        spec: &RunSpec,
        scheme: &S,
        config: &Configuration,
        labeling: &Labeling,
        scratch: &mut RoundScratch,
    ) -> (RunReport, Vec<Vec<BitString>>) {
        let unprepared = Unprepared::new(scheme, config, labeling);
        let report = run_prepared(spec, &unprepared, config, scratch);
        (report, scratch.certificates().to_nested(config.port_base()))
    }

    #[test]
    fn randomized_round_is_reproducible() {
        let config = Configuration::plain(generators::cycle(6));
        let labeling = RandomBit.label(&config);
        let r1 = run_randomized(&RandomBit, &config, &labeling, 99);
        let r2 = run_randomized(&RandomBit, &config, &labeling, 99);
        assert_eq!(r1.certificates, r2.certificates);
        let r3 = run_randomized(&RandomBit, &config, &labeling, 100);
        assert_ne!(r1.certificates, r3.certificates);
    }

    #[test]
    fn per_port_streams_are_independent() {
        // Different (node, port) pairs should essentially never produce
        // identical long streams; spot-check by comparing the first bits
        // across many ports — they must not all coincide.
        let config = Configuration::plain(generators::complete(8));
        let labeling = RandomBit.label(&config);
        let rec = run_randomized(&RandomBit, &config, &labeling, 7);
        // Total read: a too-short certificate counts as a zero bit instead
        // of panicking (the "reject, never panic" contract applies to every
        // consumer of delivered certificates, tests included).
        let bits: Vec<bool> = rec
            .certificates
            .iter()
            .flatten()
            .map(|c| c.bit(0).unwrap_or(false))
            .collect();
        let ones = bits.iter().filter(|&&b| b).count();
        assert!(ones > 10 && ones < bits.len() - 10, "ones = {ones}");
    }

    #[test]
    fn max_certificate_bits_reports_largest() {
        let config = Configuration::plain(generators::path(3));
        let labeling = RandomBit.label(&config);
        let rec = run_randomized(&RandomBit, &config, &labeling, 1);
        assert_eq!(rec.max_certificate_bits(), 1);
    }

    #[test]
    fn shared_mode_differs_from_independent_mode() {
        let config = Configuration::plain(generators::complete(6));
        let labeling = RandomBit.label(&config);
        let ind = run_randomized(&RandomBit, &config, &labeling, 5);
        let spec = RunSpec::trial(5).with_stream_mode(StreamMode::SharedPerNode);
        let (_, shared) = unprepared_round(
            &spec,
            &RandomBit,
            &config,
            &labeling,
            &mut RoundScratch::new(),
        );
        assert_ne!(ind.certificates, shared);
    }

    #[test]
    fn mix_seed_spreads_inputs() {
        let a = mix_seed(1, 0, 0);
        let b = mix_seed(1, 0, 1);
        let c = mix_seed(1, 1, 0);
        let d = mix_seed(2, 0, 0);
        let set: std::collections::HashSet<u64> = [a, b, c, d].into_iter().collect();
        assert_eq!(set.len(), 4);
    }

    /// A scheme with variable-length certificates exercising the arena:
    /// port p of node v sends v's id in unary followed by p random bits.
    struct VariableLength;

    impl Rpls for VariableLength {
        fn name(&self) -> String {
            "variable-length".into()
        }
        fn label(&self, config: &Configuration) -> Labeling {
            Labeling::empty(config.node_count())
        }
        fn certify(&self, view: &CertView<'_>, port: Port, rng: &mut dyn Rng) -> BitString {
            let unary = view.local.state.id() as usize;
            let mut out = BitString::with_capacity(unary + port.rank());
            for _ in 0..unary {
                out.push(true);
            }
            for _ in 0..port.rank() {
                out.push(rng.next_u64() & 1 == 1);
            }
            out
        }
        fn verify(&self, view: &RandView<'_>) -> bool {
            // Every received certificate must start with the sender's
            // unary id — cross-checks arena routing end to end.
            view.local.incident_weights.len() == view.received.len()
        }
    }

    #[test]
    fn scratch_reuse_is_bit_identical_to_record_path() {
        let config = Configuration::plain(generators::wheel(9));
        let labeling = VariableLength.label(&config);
        let mut scratch = RoundScratch::new();
        for seed in [0u64, 1, 7, 99, 12345] {
            for mode in [StreamMode::EdgeIndependent, StreamMode::SharedPerNode] {
                let spec = RunSpec::trial(seed).with_stream_mode(mode);
                let (reused, certs) =
                    unprepared_round(&spec, &VariableLength, &config, &labeling, &mut scratch);
                let votes = scratch.votes().to_vec();
                let mut fresh_scratch = RoundScratch::new();
                let fresh = unprepared_round(
                    &spec,
                    &VariableLength,
                    &config,
                    &labeling,
                    &mut fresh_scratch,
                );
                assert_eq!((reused, &certs), (fresh.0, &fresh.1));
                assert_eq!(votes, fresh_scratch.votes());
                if mode == StreamMode::EdgeIndependent {
                    let record = run_randomized(&VariableLength, &config, &labeling, seed);
                    assert_eq!(reused.accepted, record.outcome.accepted());
                    assert_eq!(reused.max_bits_per_round, record.max_certificate_bits());
                    assert_eq!(reused.total_bits, record.total_certificate_bits());
                    assert_eq!(votes, record.outcome.votes());
                    assert_eq!(certs, record.certificates);
                }
            }
        }
    }

    #[test]
    fn multiround_seed_keeps_round_zero_and_mixes_the_rest() {
        assert_eq!(multiround_seed(42, 0), 42);
        let later: std::collections::HashSet<u64> =
            (1..5).map(|r| multiround_seed(42, r)).collect();
        assert_eq!(later.len(), 4);
        assert!(!later.contains(&42));
        assert_ne!(multiround_seed(42, 1), multiround_seed(43, 1));
    }

    #[test]
    fn default_split_schedule_matches_one_round_verdicts() {
        let config = Configuration::plain(generators::wheel(9));
        let labeling = VariableLength.label(&config);
        let mut scratch = RoundScratch::new();
        for seed in [0u64, 7, 991] {
            let (one, _) = unprepared_round(
                &RunSpec::trial(seed),
                &VariableLength,
                &config,
                &labeling,
                &mut scratch,
            );
            for rounds in [1usize, 2, 3, 16, usize::MAX] {
                let spec = RunSpec::trial(seed).with_rounds(rounds);
                let (multi, _) =
                    unprepared_round(&spec, &VariableLength, &config, &labeling, &mut scratch);
                assert_eq!(multi.accepted, one.accepted);
                assert_eq!(multi.rounds, rounds);
                assert_eq!(multi.decided_round, rounds);
                assert_eq!(
                    multi.max_bits_per_round,
                    one.max_bits_per_round.div_ceil(rounds)
                );
                assert_eq!(multi.total_bits, one.total_bits);
            }
        }
    }

    #[test]
    fn multiround_batched_default_equals_scalar_per_seed() {
        let config = Configuration::plain(generators::wheel(7));
        let labeling = VariableLength.label(&config);
        let prepared = Rpls::prepare(&VariableLength, &config, &labeling, 8);
        let mut scratch = RoundScratch::new();
        let seeds: Vec<u64> = (0..8).collect();
        for rounds in [1usize, 4] {
            let spec = RunSpec::trial(0).with_rounds(rounds);
            let mut batched = Vec::new();
            run_trials(&spec, &*prepared, &config, &seeds, &mut scratch, &mut |r| {
                batched.push(r);
            });
            let scalar: Vec<RunReport> = seeds
                .iter()
                .map(|&s| {
                    let spec = RunSpec::trial(s).with_rounds(rounds);
                    run_prepared(&spec, &*prepared, &config, &mut scratch)
                })
                .collect();
            assert_eq!(batched, scalar, "rounds {rounds}");
        }
    }

    #[test]
    #[should_panic(expected = "at least one round")]
    fn zero_round_schedule_is_rejected() {
        let config = Configuration::plain(generators::path(3));
        let labeling = RandomBit.label(&config);
        let spec = RunSpec {
            rounds: 0,
            ..RunSpec::trial(0)
        };
        let _ = run(&spec, &RandomBit, &config, &labeling);
    }

    /// The four `(faults, rounds)` shapes of a spec, checked against their
    /// definitions: the materialised round, its certificate-splitting
    /// re-timing, the per-node diagnostic, and the faulted split schedule.
    #[test]
    fn run_spec_dispatch_matches_legacy_entry_points() {
        let config = Configuration::plain(generators::wheel(9));
        let labeling = VariableLength.label(&config);
        let prepared = Rpls::prepare(&VariableLength, &config, &labeling, 8);
        let mut scratch = RoundScratch::new();
        let seed = 0xABCD;

        // Clean one-round: the materialised round.
        let report = run_prepared(&RunSpec::trial(seed), &*prepared, &config, &mut scratch);
        let record = run_randomized(&VariableLength, &config, &labeling, seed);
        assert_eq!(report.accepted, record.outcome.accepted());
        assert_eq!(report.max_bits_per_round, record.max_certificate_bits());
        assert_eq!(report.total_bits, record.total_certificate_bits());
        assert!(report.fault.is_none());

        // Clean multiround: the split re-timing of the same trial.
        let spec = RunSpec::trial(seed).with_rounds(4);
        let multi = run_prepared(&spec, &*prepared, &config, &mut scratch);
        assert_eq!(multi, report.split(4));

        // Faulted one-round: the per-node diagnostic's report.
        let plan = FaultPlan::new(FaultSpec::transparent().with_drop(0.3), 7);
        let spec = RunSpec::trial(seed).with_faults(plan.clone());
        let faulted = run_prepared(&spec, &*prepared, &config, &mut scratch);
        let degraded = run_degraded(&spec, &*prepared, &config, &mut scratch);
        assert_eq!(faulted, degraded.report);
        assert_eq!(
            faulted.fault.map(|f| f.missing_messages),
            Some(degraded.missing.iter().map(|&m| m as usize).sum())
        );

        // Faulted multiround: the split schedule under loss, one-sided.
        let spec = RunSpec::trial(seed)
            .with_rounds(3)
            .with_faults(plan.clone());
        let report = run_prepared(&spec, &*prepared, &config, &mut scratch);
        let clean_spec = RunSpec::trial(seed).with_rounds(3);
        let clean = run_prepared(&clean_spec, &*prepared, &config, &mut scratch);
        let lost = report.fault.map_or(0, |f| f.missing_messages);
        assert_eq!(report.accepted, clean.accepted && lost == 0);
        assert_eq!(report.rounds, 3);
        assert!(report.decided_round <= clean.decided_round);
    }

    /// A saturated retry budget bounds the work of a total-loss run: every
    /// chunk is retried exactly `MAX_RETRY_BUDGET` times, then lost.
    #[test]
    fn saturated_retry_budget_finishes_under_total_loss() {
        let config = Configuration::plain(generators::wheel(7));
        let labeling = VariableLength.label(&config);
        let prepared = Rpls::prepare(&VariableLength, &config, &labeling, 4);
        let spec = FaultSpec::transparent()
            .with_drop(1.0)
            .with_retry_budget(usize::MAX);
        let spec = RunSpec::trial(0)
            .with_rounds(3)
            .with_faults(FaultPlan::new(spec, 5));
        let mut reports = Vec::new();
        let mut scratch = RoundScratch::new();
        run_trials(
            &spec,
            &*prepared,
            &config,
            &[1, 2, 3],
            &mut scratch,
            &mut |r| {
                reports.push(r);
            },
        );
        for r in reports {
            let fault = r.fault.expect("faulted run");
            assert!(fault.missing_messages > 0);
            assert_eq!(fault.counts.dropped, fault.missing_messages);
            assert_eq!(
                fault.counts.retries,
                crate::fault::MAX_RETRY_BUDGET * fault.missing_messages
            );
        }
    }

    #[test]
    fn run_trials_emits_reports_identical_to_scalar_dispatch() {
        let config = Configuration::plain(generators::wheel(7));
        let labeling = VariableLength.label(&config);
        let prepared = Rpls::prepare(&VariableLength, &config, &labeling, 6);
        let mut scratch = RoundScratch::new();
        let seeds: Vec<u64> = (10..16).collect();
        let plan = FaultPlan::new(FaultSpec::transparent().with_drop(0.2), 3);
        for spec in [
            RunSpec::trial(0),
            RunSpec::trial(0).with_rounds(3),
            RunSpec::trial(0).with_pattern(MessagePattern::Broadcast),
            RunSpec::trial(0).with_faults(plan.clone()),
            RunSpec::trial(0).with_rounds(2).with_faults(plan.clone()),
        ] {
            let mut batched = Vec::new();
            run_trials(&spec, &*prepared, &config, &seeds, &mut scratch, &mut |r| {
                batched.push(r);
            });
            let scalar: Vec<RunReport> = seeds
                .iter()
                .map(|&s| {
                    let mut per_seed = spec.clone();
                    per_seed.seed_source = SeedSource::Trial(s);
                    run_prepared(&per_seed, &*prepared, &config, &mut scratch)
                })
                .collect();
            assert_eq!(batched, scalar, "spec {spec:?}");
        }
    }

    #[test]
    fn beacon_spec_equals_trial_of_derived_seed() {
        let config = Configuration::plain(generators::wheel(9));
        let labeling = VariableLength.label(&config);
        let prepared = Rpls::prepare(&VariableLength, &config, &labeling, 2);
        let mut scratch = RoundScratch::new();
        let (round_id, value) = (4242u64, 0xDEAD_BEEFu64);
        let beacon = run_prepared(
            &RunSpec::beacon(round_id, value),
            &*prepared,
            &config,
            &mut scratch,
        );
        let beacon_certs = scratch.certificates().to_nested(config.port_base());
        let derived = crate::rng::beacon_seed(round_id, value);
        assert_eq!(RunSpec::beacon(round_id, value).seed(), derived);
        let trial = run_prepared(&RunSpec::trial(derived), &*prepared, &config, &mut scratch);
        assert_eq!(beacon, trial);
        assert_eq!(
            scratch.certificates().to_nested(config.port_base()),
            beacon_certs
        );
    }

    #[test]
    fn run_prepares_internally_and_matches_prepared_dispatch() {
        let config = Configuration::plain(generators::wheel(7));
        let labeling = VariableLength.label(&config);
        let spec = RunSpec::trial(77).with_rounds(2);
        let via_run = run(&spec, &VariableLength, &config, &labeling);
        let prepared = Rpls::prepare(&VariableLength, &config, &labeling, 1);
        let mut scratch = RoundScratch::new();
        let direct = run_prepared(&spec, &*prepared, &config, &mut scratch);
        assert_eq!(via_run, direct);
    }

    #[test]
    fn delivery_routes_certificates_to_far_endpoints() {
        // With VariableLength, the certificate on port p of node v starts
        // with v's id in unary — check each received certificate's prefix
        // length against the actual neighbor.
        let config = Configuration::plain(generators::wheel(7));
        let labeling = VariableLength.label(&config);
        let rec = run_randomized(&VariableLength, &config, &labeling, 3);
        let g = config.graph();
        let mut scratch = RoundScratch::new();
        unprepared_round(
            &RunSpec::trial(3),
            &VariableLength,
            &config,
            &labeling,
            &mut scratch,
        );
        for v in g.nodes() {
            for nb in g.neighbors(v) {
                let sent = &rec.certificates[nb.node.index()][nb.remote_port.rank()];
                let got = scratch
                    .certificates()
                    .get(config.delivery()[config.port_index(v, nb.port.rank())] as usize);
                assert_eq!(got, *sent);
                let unary_prefix = got.iter().take_while(|&b| b).count().min(nb.node.index());
                assert_eq!(unary_prefix, nb.node.index(), "sender id prefix");
            }
        }
    }
}
