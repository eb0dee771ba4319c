//! The Theorem 3.1 compiler: deterministic κ bits → randomized `O(log κ)`
//! bits.
//!
//! Given any deterministic scheme `(p, v)` with verification complexity κ,
//! the compiled randomized scheme `(p', v')` works as follows (Appendix A):
//!
//! * **Prover** `p'` replicates: `ℓ'(v) = (ℓ(v), ℓ(w₁), …, ℓ(w_d))` — the
//!   node's own label plus a claimed copy of each neighbor's label, indexed
//!   by port.
//! * **Certificates**: node `v` fingerprints its own inner label with the
//!   Lemma A.1 equality protocol — a fresh `(x, P(x))` pair per port, which
//!   additionally makes the scheme *edge-independent* (Definition 4.5; the
//!   paper's single-broadcast variant is recovered by noting all ports
//!   would work equally well with one shared pair).
//! * **Verifier** `v'` checks, for each port, that the received fingerprint
//!   matches the polynomial of the *claimed* neighbor label, then runs the
//!   inner verifier on the claimed labels as if they had been exchanged.
//!
//! The fingerprinted string is the inner label *prefixed by its 32-bit
//! length*, so two labels that differ only by trailing zeros (and would
//! collide as polynomials) still yield distinct fingerprints.
//!
//! Completeness is perfect (one-sided). On illegal configurations: if the
//! replicated labels are consistent with the neighbors' actual inner
//! labels, the inner verifier rejects somewhere (it cannot be fooled); if
//! they are inconsistent on some edge, the equality protocol catches that
//! edge with probability `> 2/3`.
//!
//! # The prepared fast path
//!
//! The straight [`Rpls::certify_into`]/[`Rpls::verify`] implementations
//! re-parse the replicated label and rebuild the fingerprint polynomial on
//! every call — fine for one round, ruinous for a 10k-trial Monte-Carlo
//! estimate. [`Rpls::prepare`] is overridden here to hoist all of that out
//! of the round loop: each distinct replicated label is parsed once, each
//! inner label length-prefixed once, one prepared equality input built per
//! distinct `(modulus, fingerprinted string)` (with *lazily* built
//! evaluation tables — filled only for polynomials the dynamic probes
//! actually hit, see [`rpls_fingerprint::PreparedEq`]), and the
//! randomness-independent inner verdict
//! memoised. Each (node, port, trial) then costs one random field element
//! plus one polynomial evaluation.
//!
//! All of that per-label state is content-keyed, so it lives in a
//! [`PrepCache`] rather than per prepared instance: [`Rpls::prepare_cached`]
//! reuses one cache across labelings — an adversary sweeping hundreds of
//! near-identical forged candidates re-prepares only the labels that
//! actually changed — while plain [`Rpls::prepare`] runs the same code
//! against a throwaway cache. What binds a labeling to one configuration
//! (each node's arity fit and memoised inner verdict, and the per-`t`
//! plans) is one shared instance, which the cache keeps and hands back to
//! a repeated prepare of the same scheme, configuration and labeling (see
//! the [`prep`] module's kept instances). Both are
//! transcript-identical to the unprepared path — `tests/engine_golden.rs`
//! pins it.
//!
//! # The t-round trade-off schedule
//!
//! The space–time trade-off axis (Patt-Shamir & Perry's t-PLS model)
//! verifies a proof of size κ over `t` rounds at `O(κ/t + log t)` bits per
//! round. The compiled scheme's [`PreparedRpls::run_block`] override
//! implements it as **chunked fingerprint streaming**: the length-prefixed
//! inner label is cut into `⌈λ/t⌉`-bit slices and round `r` carries one
//! fresh `(x, A_r(x))` fingerprint of slice `r`, so per-round
//! communication is the message width of the *slice-length* protocol and
//! verdicts accumulate with **early rejection** — a tampered replica is
//! caught in the round whose slice covers the tampering. The one-round
//! protocol is the `t = 1` case (one slice, the same prime, polynomial and
//! randomness), so every `t` runs through one compiled plan and one clean
//! kernel that reports each trial's first-rejection round; see the private
//! `Plan` type. Under faults, node `u` sends one message of its plan width
//! per port in each of its covered rounds, delivered as the
//! [`fault`](crate::fault) module describes.

use crate::buffer::{Received, RoundScratch};
use crate::engine::{
    multiround_seed, FaultReport, MessagePattern, PatternCost, RunReport, RunSpec, StreamMode,
};
use crate::fault::{Delivery, EdgeSchedule};
use crate::labeling::Labeling;
use crate::prep::{self, Epoch, PrepCache, SharedEpoch, Store};
use crate::rng::{edge_stream_first_word, node_stream_word, sketch_stream_word};
use crate::scheme::{CertView, DetView, ErrorSides, Pls, PreparedRpls, RandView, Rpls};
use crate::state::{Configuration, DegreeBuckets};
use rand::Rng;
use rpls_bits::{BitSlice, BitString, BitWriter};
use rpls_fingerprint::{Barrett, EqEvaluator, EqMessage, EqProtocol};
use rpls_graph::{Graph, NodeId};
use std::cell::{OnceCell, Ref, RefCell};
use std::ops::Range;
use std::rc::Rc;

/// Length-prefix width used both in the replicated label layout and in the
/// fingerprinted encoding of an inner label.
const LEN_BITS: u32 = 32;

/// The compiled randomized scheme wrapping a deterministic one.
///
/// # Examples
///
/// See `rpls-schemes` for concrete instantiations, e.g.
/// `CompiledRpls::new(SpanningTreePls::new())`, and
/// `examples/quickstart.rs` for an end-to-end run.
#[derive(Debug, Clone)]
pub struct CompiledRpls<S> {
    inner: S,
    /// Probe subsampling for high-degree nodes (see [`ProbeSketch`]);
    /// `None` (the default) runs every non-trivial probe.
    sketch: Option<ProbeSketch>,
    /// Disables the plan's static-pass shortcut so every honest probe
    /// runs dynamically (see [`CompiledRpls::force_dynamic`]).
    force_dynamic: bool,
    /// Identity of this scheme's content, for the preparation cache's kept
    /// instances: fresh from `new`, `with_sketch` and `force_dynamic`,
    /// copied by `Clone`.
    id: u64,
}

/// Per-node **probe subsampling** for dense graphs: a node with more than
/// `max_probes` non-trivial fingerprint checks runs, per trial,
/// `max_probes` checks sampled from its own domain-separated
/// [`sketch stream`](crate::rng::sketch_stream_word) instead of all of
/// them — turning the quadratic per-trial port cost of cliques and
/// power-law hubs into a constant.
///
/// # Soundness
///
/// Every sampled check is one of the full plan's checks, evaluated at
/// exactly the point the full plan would evaluate it at (probe streams
/// are keyed per `(node, slot)`, independent of the sketch stream). The
/// sketched verdict is therefore a conjunction over a **subset** of the
/// full conjunction: a sketched rejection implies a full-probe rejection
/// on the same seed, and an honest configuration is never rejected —
/// completeness is exact and the error stays one-sided.
///
/// What is traded is the *rejection probability per trial*. If tampering
/// makes `f` of a node's `d > max_probes` checks fail, a sketched trial
/// rejects with probability `1 − (1 − f/d)^s` over the sketch draws
/// (`s = max_probes`), instead of 1; each failing check itself already
/// incorporates the `> 2/3` fingerprint catch probability. A single
/// tampered edge at a hub is thus caught with probability
/// `≥ (2/3)·(1 − (1 − 1/d)^s) ≈ (2/3)·s/d` per trial — the engine's
/// per-trial soundness bound degrades by the subsampling ratio `s/d`, and
/// the usual one-sided amplification (repeat, and reject if any run
/// rejects — `accepts < trials` of a
/// [`stats::estimate`](crate::stats::estimate)) restores any target
/// confidence at total cost `O(d/s)` trials, still far below the `O(d)`
/// per-trial probe cost it replaces on dense families.
///
/// Sketching applies to the batched one-round schedule (`t = 1`, faulted
/// or not); schedules of `t ≥ 2` rounds and the scalar diagnostics paths
/// always run full probes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProbeSketch {
    max_probes: usize,
}

impl ProbeSketch {
    /// A sketch running at most `max_probes` probes per (node, trial).
    ///
    /// # Panics
    ///
    /// Panics if `max_probes` is 0 (a node must probe something).
    #[must_use]
    pub fn new(max_probes: usize) -> Self {
        assert!(max_probes >= 1, "a sketch needs at least one probe");
        Self { max_probes }
    }

    /// The per-(node, trial) probe budget.
    #[must_use]
    pub fn max_probes(&self) -> usize {
        self.max_probes
    }
}

impl<S: Pls> CompiledRpls<S> {
    /// Compiles a deterministic scheme.
    #[must_use]
    pub fn new(inner: S) -> Self {
        Self {
            inner,
            sketch: None,
            force_dynamic: false,
            id: prep::fresh_id(),
        }
    }

    /// Enables high-degree probe subsampling (see [`ProbeSketch`] for the
    /// soundness trade). Transcripts of nodes at or below the budget are
    /// unchanged; estimates over graphs whose maximum degree is within
    /// the budget are bit-identical to the unsketched scheme.
    #[must_use]
    pub fn with_sketch(mut self, sketch: ProbeSketch) -> Self {
        self.sketch = Some(sketch);
        self.id = prep::fresh_id();
        self
    }

    /// Disables the plan's static-pass shortcut at every schedule length
    /// `t`: probes whose two sides fingerprint the same string (every
    /// probe of an honest labeling) are kept as dynamic checks instead of
    /// being dropped at plan-build time. Verdicts are unchanged — such a
    /// probe passes at every point of the field — so this exists for
    /// measurement: it is the only way to drive the full probe kernel
    /// (and the sketch) on an *accepting* configuration, which is what
    /// the `scale` bench workload and the kernel's throughput numbers
    /// are measured on.
    #[must_use]
    pub fn force_dynamic(mut self) -> Self {
        self.force_dynamic = true;
        self.id = prep::fresh_id();
        self
    }

    /// The wrapped deterministic scheme.
    #[must_use]
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Certificate size (bits) the compilation produces for an inner
    /// verification complexity of `kappa` bits: `2⌈log₂ p⌉` for the
    /// protocol prime `p ∈ (3λ, 6λ)`, `λ = 32 + κ` — i.e. `O(log κ)`.
    #[must_use]
    pub fn certificate_bits_for_kappa(kappa: usize) -> usize {
        EqProtocol::for_length(LEN_BITS as usize + kappa).message_bits()
    }
}

/// Encodes the replicated label `(κ, ℓ₀, ℓ₁, …, ℓ_d)`.
fn encode_replicated(kappa: usize, parts: &[&BitString]) -> BitString {
    let mut w = BitWriter::new();
    w.write_u64(kappa as u64, LEN_BITS);
    for part in parts {
        w.write_u64(part.len() as u64, LEN_BITS);
        w.write_bits(part);
    }
    w.finish()
}

/// Stages the parts at `ranges` of `label` (see [`scan_replicated`]) in
/// `bytes` as the cache's arena stores them, each part's length-prefixed
/// string on a byte boundary (see [`prep::append_length_prefixed`]), and
/// returns those strings: the unprepared path fingerprints them and hands
/// the inner verifier their tails, exactly as the prepared path does.
fn stage_parts<'b>(
    label: &BitString,
    ranges: &[(usize, usize)],
    bytes: &'b mut Vec<u8>,
) -> Vec<BitSlice<'b>> {
    for &(start, len) in ranges {
        prep::append_length_prefixed(bytes, label.as_bytes(), start, len);
    }
    let mut rest: &[u8] = bytes;
    ranges
        .iter()
        .map(|&(_, len)| {
            let bits = LEN_BITS as usize + len;
            let (string, tail) = rest.split_at(bits.div_ceil(8));
            rest = tail;
            BitSlice::new(string, bits)
        })
        .collect()
}

/// The 32-bit big-endian field at bit `pos` of `label`, if it lies inside.
fn field_at(label: &BitString, pos: usize) -> Option<usize> {
    if pos.checked_add(LEN_BITS as usize)? > label.len() {
        return None;
    }
    let bytes = label.as_bytes();
    let first = pos / 8;
    let word = (0..5).fold(0u64, |acc, k| {
        (acc << 8) | u64::from(bytes.get(first + k).copied().unwrap_or(0))
    });
    Some(((word >> (8 - pos % 8)) & 0xFFFF_FFFF) as usize)
}

/// Scans a replicated label in place: `parts` receives the `(bit offset,
/// length)` of each part read before the first structural violation (a
/// truncated field, or a part longer than κ or than what is left). Returns
/// `None` when the `(κ, own-label)` prefix is malformed (no part was read),
/// else `κ` and whether the whole replication parses. The label cache
/// stages parts straight from these ranges into its arena, and the
/// unprepared path with [`stage_parts`].
fn scan_replicated(label: &BitString, parts: &mut Vec<(usize, usize)>) -> Option<(usize, bool)> {
    parts.clear();
    let kappa = field_at(label, 0)?;
    let mut pos = LEN_BITS as usize;
    let whole = loop {
        if pos == label.len() {
            break true;
        }
        let Some(len) = field_at(label, pos).filter(|&len| len <= kappa) else {
            break false;
        };
        let start = pos + LEN_BITS as usize;
        if len > label.len() - start {
            break false;
        }
        parts.push((start, len));
        pos = start + len;
    };
    (!parts.is_empty()).then_some((kappa, whole))
}

impl<S: Pls> Rpls for CompiledRpls<S> {
    fn name(&self) -> String {
        format!("compiled({})", self.inner.name())
    }

    fn error_sides(&self) -> ErrorSides {
        ErrorSides::OneSided
    }

    fn label(&self, config: &Configuration) -> Labeling {
        let inner_labels = self.inner.label(config);
        let kappa = inner_labels.max_bits();
        config
            .graph()
            .nodes()
            .map(|v| {
                let mut parts: Vec<&BitString> = vec![inner_labels.get(v)];
                parts.extend(
                    config
                        .graph()
                        .neighbors(v)
                        .map(|nb| inner_labels.get(nb.node)),
                );
                encode_replicated(kappa, &parts)
            })
            .collect()
    }

    fn certify(&self, view: &CertView<'_>, port: rpls_graph::Port, rng: &mut dyn Rng) -> BitString {
        let mut out = BitString::new();
        self.certify_into(view, port, rng, &mut out);
        out
    }

    fn certify_into(
        &self,
        view: &CertView<'_>,
        _port: rpls_graph::Port,
        rng: &mut dyn Rng,
        out: &mut BitString,
    ) {
        out.clear();
        // Only the (κ, own-label) prefix matters here: a malformed prefix
        // yields an empty certificate, while malformed neighbor copies
        // behind a valid prefix still emit a fingerprint. That is sound:
        // `verify` at the label's own node scans the whole replication and
        // rejects, and acceptance requires every node to accept.
        let mut ranges = Vec::new();
        let Some((kappa, _)) = scan_replicated(view.label, &mut ranges) else {
            return;
        };
        let mut bytes = Vec::new();
        let own = stage_parts(view.label, &ranges[..1], &mut bytes)[0];
        let proto = EqProtocol::for_length(LEN_BITS as usize + kappa);
        // An unshared preparation without a table: one evaluation.
        let eq = proto.prepare(own.len(), 0).expect("parts are bounded by κ");
        let msg = eq.evaluator(own).alice_message(rng);
        msg.append_to(proto.modulus(), out);
    }

    fn verify(&self, view: &RandView<'_>) -> bool {
        let mut ranges = Vec::new();
        let Some((kappa, true)) = scan_replicated(view.label, &mut ranges) else {
            return false;
        };
        if ranges.len() != view.local.degree() + 1 {
            return false;
        }
        let mut bytes = Vec::new();
        let strings = stage_parts(view.label, &ranges, &mut bytes);
        let proto = EqProtocol::for_length(LEN_BITS as usize + kappa);
        // One unshared preparation without a table serves every part: each
        // is at most λ bits.
        let eq = proto.prepare(proto.input_length(), 0).expect("λ bits fit");
        let expected_bits = proto.message_bits();
        for (i, received) in view.received.iter().enumerate() {
            if received.len() != expected_bits {
                return false;
            }
            let Ok(msg) = EqMessage::from_slice(received, proto.modulus()) else {
                return false;
            };
            // Check the fingerprint against the *claimed* label of the
            // neighbor on this port. `bob_accepts` is total: an
            // out-of-field point in a malformed certificate rejects rather
            // than panicking, so no pre-check is needed here.
            if !eq.evaluator(strings[i + 1]).bob_accepts(&msg) {
                return false;
            }
        }
        // Fingerprints passed: run the inner verifier on the claimed
        // labels, read in place.
        let det = DetView {
            local: view.local.clone(),
            label: prep::part_of(strings[0]),
            neighbor_labels: strings[1..].iter().map(|&s| prep::part_of(s)).collect(),
        };
        self.inner.verify(&det)
    }

    fn prepare<'a>(
        &'a self,
        config: &'a Configuration,
        labeling: &'a Labeling,
        rounds_hint: usize,
    ) -> Box<dyn PreparedRpls + 'a> {
        // One throwaway cache: preparation state is always built through
        // the cache machinery, `prepare` simply never shares it with a
        // later call. Cached and uncached preparation are therefore the
        // same code path, which is what keeps them transcript-identical by
        // construction.
        self.prepare_cached(config, labeling, rounds_hint, &mut PrepCache::new())
    }

    fn prepare_cached<'a>(
        &'a self,
        config: &'a Configuration,
        labeling: &'a Labeling,
        rounds_hint: usize,
        cache: &mut PrepCache,
    ) -> Box<dyn PreparedRpls + 'a> {
        assert_eq!(
            labeling.len(),
            config.node_count(),
            "one label per node required"
        );
        // Each distinct label is parsed and fingerprint-prepared once per
        // *cache*, not once per labeling: under an honest labeling node
        // v's inner label is prepared once as v's prover polynomial and
        // once per neighbor's claimed copy (identical inputs, one shared
        // preparation), and across a sweep's near-identical candidate
        // labelings almost every lookup is a hash hit.
        let mut epochs: Vec<SharedEpoch> = Vec::new();
        let mut found = std::mem::take(&mut cache.found);
        found.clear();
        for v in config.graph().nodes() {
            let (epoch, label) = cache.label_prep(labeling.get(v), rounds_hint);
            found.push((epoch_slot(&mut epochs, epoch), label));
        }
        // The same scheme, configuration and labeling bound before: its
        // plans and inner verdicts are reused (see the `prep` module's
        // kept instances). Else the labeling is bound afresh, and kept if
        // this pair comes back.
        let key = (self.id, config.id());
        let kept = (cache.store.borrow().instances.iter())
            .find(|i| i.key == key && i.binds(&epochs, &found))
            .cloned();
        let instance = kept.unwrap_or_else(|| {
            let instance = Rc::new(Instance::new(key, config, epochs, &found));
            cache.store.borrow_mut().keep(&instance);
            instance
        });
        cache.found = found;
        // Plans are built on first use, so a cold prepare whose instance
        // is never run builds none.
        Box::new(PreparedCompiled {
            scheme: self,
            config,
            rounds_hint,
            store: cache.store_handle(),
            instance,
        })
    }
}

/// The closed-form `(messages, bits-per-round, total-bits)` accounting of
/// a compiled scheme under `pattern`, from per-node `(message width,
/// degree, covered rounds)` dimensions. One message per slot: a node of
/// degree `d` sends [`MessagePattern::slots`]`(d)` distinct messages in
/// each of its covered rounds, each of its protocol's width — halved for
/// [`MessagePattern::Unicast`], where Filtser–Fischer-style shared public
/// randomness lets the sender omit the evaluation point `x` and ship only
/// `P(x)` (half of the `(x, P(x))` pair).
fn pattern_cost_from_dims(
    pattern: MessagePattern,
    dims: impl Iterator<Item = (usize, usize, usize)>,
) -> PatternCost {
    let mut messages = 0usize;
    let mut max_bits_per_round = 0usize;
    let mut total_bits = 0usize;
    for (width, degree, covered) in dims {
        let slots = pattern.slots(degree);
        let width = if pattern == MessagePattern::Unicast {
            width / 2
        } else {
            width
        };
        messages = messages.max(slots);
        if degree > 0 {
            max_bits_per_round = max_bits_per_round.max(width);
        }
        total_bits += slots * width * covered;
    }
    PatternCost {
        messages,
        max_bits_per_round,
        total_bits,
    }
}

impl PrepCache {
    /// The shared preparation of one replicated label — parse results and
    /// per-part fingerprints, keyed by the label's bits — as `(epoch, id)`.
    /// Built on first sight in the epoch [`Store::target`] picks for the
    /// whole label, so its entries never straddle two epochs.
    fn label_prep(&mut self, label: &BitString, rounds_hint: usize) -> (SharedEpoch, u32) {
        let store = &mut *self.store.borrow_mut();
        let current = store.current();
        let hit = current.borrow().find_label(label.as_slice());
        if let Some(id) = hit {
            store.tally.hits += 1;
            current
                .borrow()
                .upgrade_tables(id, rounds_hint, &mut store.tally);
            return (current, id);
        }
        drop(current);
        store.tally.misses += 1;
        // Prover side: the (κ, own-label) prefix, part 0. A malformed
        // prefix keeps the unprepared behaviour — empty certificates, no
        // randomness drawn. Verifier side: the full replication, with one
        // prepared fingerprint per claimed neighbor copy. Whether the arity
        // fits a node's degree is deliberately *not* decided here — degree
        // is not label content.
        let scan = scan_replicated(label, &mut self.part_ranges);
        let proto = scan.map(|(kappa, _)| EqProtocol::for_length(LEN_BITS as usize + kappa));
        let whole = scan.is_some_and(|(_, whole)| whole);
        if !whole {
            // Only part 0, the prover's, is used.
            self.part_ranges.truncate(1);
        }
        let ranges = &self.part_ranges;
        let arity = if whole { ranges.len() } else { 0 };
        let growth = prep::Growth::label(
            label.len(),
            arity,
            ranges.iter().map(|&(_, len)| LEN_BITS as usize + len),
        );
        let epoch = store.target(&growth);
        let id = {
            let mut e = epoch.borrow_mut();
            self.part_ids.clear();
            // Parts exist only under a parsed κ.
            if let Some(proto) = &proto {
                for &(start, len) in ranges {
                    let mark = e.mark();
                    e.stage_part(label.as_bytes(), start, len);
                    let lp = LEN_BITS as usize + len;
                    let id = e.intern_eq(proto, mark, lp, rounds_hint, &mut store.tally);
                    self.part_ids.push(id);
                }
            }
            let prover = self.part_ids.first().copied();
            e.push_label(label, prover, &self.part_ids[..arity])
        };
        (epoch, id)
    }
}

/// The labeling-static plan of the compiled scheme's `t`-round schedule:
/// how each node's accumulated vote resolves across a whole block of
/// trials. There is one plan per `t`, built on first use and cached on the
/// shared [`Instance`], so every repeated prepare the cache serves from a
/// kept instance reuses it.
///
/// The schedule is **chunked fingerprint streaming**. Instead of
/// fingerprinting the whole length-prefixed inner label once, the prover
/// cuts it into `⌈λ/t⌉`-bit slices and sends, in round `r`, one fresh
/// `(x, A_r(x))` fingerprint of slice `r` — per-round communication
/// `2⌈log₂ p⌉` for the prime of the *slice* protocol, and rounds past the
/// string's coverage send nothing at all. The verifier checks each round's
/// fingerprint against the matching slice of its claimed neighbor copy and
/// **rejects early**: a trial's verdict is known at the first round in
/// which any node's check fails.
///
/// Soundness is preserved slice-wise: two different length-prefixed labels
/// differ in some aligned slice (different lengths differ inside the
/// 32-bit length prefix, which lives in slice 0's span), and that slice's
/// equality protocol catches the difference with probability `> 2/3`.
///
/// At `t = 1` the one slice is the whole string under the one-round
/// protocol with the one-round randomness, so the plan takes its
/// fingerprints straight from the label preparation (the prover polynomial
/// and the claimed copies'), without slicing or store lookups;
/// `tests/engine_golden.rs` pins it against the scalar one-round path.
///
/// Everything here is a pure function of the prepared labeling: per-round
/// certificate widths, coverage mismatches, and which probes are
/// non-trivial are resolved once, leaving the per-(edge, round, trial)
/// loop one SplitMix64 word, one reduction, and one pair evaluation of the
/// two polynomials at that point. The non-trivial probes of every node sit
/// in one flat array, node by node, so walking a plan chases no per-node
/// pointer.
struct Plan {
    /// The schedule length `t`.
    rounds: usize,
    /// Per-node `(message width, degree, covered rounds)` — the dimensions
    /// of the message-pattern cost formulas and of the fault schedule
    /// (width and coverage 0 when the node's prover prefix is malformed and
    /// it sends nothing). Round 0 always carries a full message wherever
    /// anything is sent.
    dims: Vec<(usize, usize, usize)>,
    /// One entry per node, parallel to `Instance::nodes`.
    nodes: Vec<NodePlan>,
    /// Every dynamic node's checks, node by node: a
    /// [`NodePlan::Dynamic`] holds its run as a range into this array.
    checks: Vec<EdgeCheck>,
    /// The reducers of the checks' sender fields, indexed by
    /// `EdgeCheck::field`. A labeling's checks almost all share one field,
    /// so a reducer is stored once per run of equal fields rather than in
    /// every check.
    fields: Vec<Barrett>,
    /// Node processing order: every node once, cheapest degree bucket
    /// first (see [`DegreeBuckets`]). The global verdict is a per-trial
    /// minimum over nodes, so any order yields identical reports — but
    /// walking hubs last means the dense nodes of a clique or power-law
    /// graph probe only the trials every cheap node already passed.
    order: Vec<u32>,
    /// The cache epochs holding the checks' fingerprints, indexed by
    /// [`EqRef::epoch`]; the plan pins them.
    epochs: Vec<SharedEpoch>,
}

/// A prepared fingerprint of a plan: its id in the plan epoch `epoch`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct EqRef {
    epoch: u32,
    id: u32,
}

/// The slot of `epoch` in `epochs`, appended if new. A labeling's entries
/// almost always share one epoch, so the search is short.
fn epoch_slot(epochs: &mut Vec<SharedEpoch>, epoch: SharedEpoch) -> u32 {
    let slot = match epochs.iter().rposition(|e| Rc::ptr_eq(e, &epoch)) {
        Some(slot) => slot,
        None => {
            epochs.push(epoch);
            epochs.len() - 1
        }
    };
    u32::try_from(slot).expect("epoch slot fits in u32")
}

/// Shared borrows of `epochs`, for reading the fingerprints they hold.
fn borrow_all(epochs: &[SharedEpoch]) -> Vec<Ref<'_, Epoch>> {
    epochs.iter().map(|e| e.borrow()).collect()
}

/// An evaluation view of the fingerprint `r` refers to, given its plan's
/// borrowed epochs.
fn evaluator<'a>(views: &'a [Ref<'_, Epoch>], r: EqRef) -> EqEvaluator<'a> {
    views[r.epoch as usize].evaluator(r.id)
}

/// How one node's accumulated vote resolves across a block of trials. A
/// plan stores no per-node allocation: a dynamic node's checks are a run
/// of `Plan::checks`.
enum NodePlan {
    /// Rejects deterministically in the given 1-based round, every trial:
    /// parse/arity failures and certificate-width mismatches (a malformed
    /// sender prover, or a κ mismatch that changes the message width) fail
    /// round 1's length check; coverage mismatches fail the length check of
    /// the first round where one side stops streaming.
    RejectAt(usize),
    /// Every probe passes at every point in every round (each sender
    /// fingerprints exactly the string this node's port expects — the
    /// honest-labeling case), so the vote is the memoised inner verdict; a
    /// `false` verdict surfaces when the node votes after round `t`.
    StaticPass,
    /// At least one (port, round) needs per-trial probes.
    Dynamic {
        /// Earliest 1-based round with a deterministic length failure
        /// (coverage mismatch), [`NO_REJECT`] if none; probes at or past it
        /// are pruned.
        static_reject: usize,
        /// This node's non-trivial probes, sorted by round: a range into
        /// `Plan::checks`.
        checks: Range<u32>,
    },
}

/// One non-trivial per-trial fingerprint probe: round `round`'s
/// certificate on some port of the receiving node, reduced to its
/// algebraic content.
struct EdgeCheck {
    /// 0-based round of this probe.
    round: u32,
    /// The sender's field (the random point is drawn in it): the index of
    /// its reducer in `Plan::fields`.
    field: u32,
    /// The sender's (node, port) — the key of the per-trial random stream.
    src_node: u32,
    src_port: u32,
    /// The sender's prepared fingerprint of its slice `round` (what the
    /// certificate claims).
    sender: EqRef,
    /// The receiver's prepared fingerprint of the claimed copy's slice;
    /// its field bounds the points the probe accepts.
    receiver: EqRef,
}

// Checks are the kernel's working set: wider ones measurably slow warm
// preparation.
const _: () = assert!(std::mem::size_of::<EdgeCheck>() <= 32);

impl EdgeCheck {
    /// The probe word of each trial seed under `pattern` and `mode`: one
    /// SplitMix64 word of the sender's stream for this check's round. That
    /// is the per-slot edge stream, except for broadcast (word 0 of the
    /// sender's node stream) and the shared-stream mode of the
    /// per-port-keyed patterns, where port rank `p` consumes word `p` of
    /// the node stream (each message costs exactly one word).
    fn words(&self, pattern: MessagePattern, mode: StreamMode, g: &Graph) -> impl Fn(u64) -> u64 {
        let (node, port, round) = (
            u64::from(self.src_node),
            self.src_port as usize,
            self.round as usize,
        );
        let (node_keyed, index) = match pattern {
            MessagePattern::Broadcast => (true, 0),
            MessagePattern::PerPort | MessagePattern::Unicast
                if mode == StreamMode::SharedPerNode =>
            {
                (true, port as u64)
            }
            _ => (
                false,
                pattern.slot_of(g.degree(NodeId::new(node as usize)), port) as u64,
            ),
        };
        move |seed| {
            let seed = multiround_seed(seed, round);
            if node_keyed {
                node_stream_word(seed, node, index)
            } else {
                edge_stream_first_word(seed, node, index)
            }
        }
    }

    /// The probe: `true` iff the certificate drawn from `word` would be
    /// accepted on this port. The word reduces into the sender's field
    /// (`field`, bit-identical to `%`); a point past the receiver's field
    /// (mismatched primes, adversarial labelings only) rejects without
    /// touching either polynomial; otherwise both sides are evaluated at
    /// the shared point by one [`EqEvaluator::eval_pair`].
    #[inline]
    fn probe(word: u64, field: &Barrett, send: &EqEvaluator<'_>, recv: &EqEvaluator<'_>) -> bool {
        let x = field.reduce(u128::from(word));
        x < recv.modulus() && {
            let (a, b) = send.eval_pair(recv, x);
            a == b
        }
    }

    /// Applies this check to every trial it can still decide, recording its
    /// 1-based round in `node_fail` where the probe fails — the **probe
    /// kernel**: one loop over the live trials, each probed at its own
    /// point by [`EdgeCheck::probe`]. A trial is live unless its node
    /// already failed at or before this round (`node_fail`) or an earlier
    /// node rejected it by then (`reject_at`); dead trials draw nothing
    /// (probe streams are stateless pure functions, so skipping them
    /// shifts nothing another trial observes).
    fn probe_trials(
        &self,
        views: &[Ref<'_, Epoch>],
        word: impl Fn(u64) -> u64,
        field: &Barrett,
        seeds: &[u64],
        reject_at: &[usize],
        node_fail: &mut [usize],
    ) {
        let (send, recv) = (
            evaluator(views, self.sender),
            evaluator(views, self.receiver),
        );
        let round1 = self.round as usize + 1;
        let trials = node_fail.iter_mut().zip(reject_at).zip(seeds);
        for ((fail, &rejected), &seed) in trials {
            let live = *fail > round1 && rejected > round1;
            if live && !Self::probe(word(seed), field, &send, &recv) {
                *fail = round1;
            }
        }
    }
}

/// The prover-side schedule of one node: how its length-prefixed inner
/// label streams across `t` rounds.
struct SenderSchedule {
    /// The equality protocol of the slice capacity `⌈λ/t⌉` for the node's
    /// declared `λ = 32 + κ` (all rounds share it).
    proto: EqProtocol,
    /// Rounds that carry a message: `⌈lp.len() / chunk⌉` (≥ 1 — the 32-bit
    /// length prefix guarantees a non-empty string). Rounds past this send
    /// empty certificates without drawing randomness.
    covered: usize,
}

impl SenderSchedule {
    /// The `rounds`-round schedule of a node whose one-round prover
    /// fingerprint is `prover` (`lp_bits` long).
    fn new(prover: &EqProtocol, lp_bits: usize, rounds: usize) -> Self {
        let proto = EqProtocol::for_length(prover.input_length().div_ceil(rounds));
        Self {
            proto,
            covered: lp_bits.div_ceil(proto.input_length()),
        }
    }
}

/// Bits `[r·chunk, (r+1)·chunk)` of `lp`, clamped to its length, into
/// `out` as canonical bytes; returns the slice's length.
fn slice_into(lp: rpls_bits::BitSlice<'_>, r: usize, chunk: usize, out: &mut Vec<u8>) -> usize {
    let start = r.saturating_mul(chunk).min(lp.len());
    let len = lp.len().min(start.saturating_add(chunk)) - start;
    out.clear();
    prep::append_bits(out, lp.as_bytes(), start, len);
    len
}

/// The slice fingerprints a `t ≥ 2` plan needs, staged while the plan
/// reads its label epochs under shared borrows and interned into the cache
/// once those are released (the cache's current epoch is usually one of
/// them). A check refers to a staged slice as epoch [`PENDING`] until then.
#[derive(Default)]
struct PendingSlices {
    bytes: Vec<u8>,
    /// `(protocol, byte offset, bit length)` per staged slice.
    slices: Vec<(EqProtocol, usize, usize)>,
}

/// The epoch slot of a staged, not yet interned slice (see
/// [`PendingSlices`]).
const PENDING: u32 = u32::MAX;

impl PendingSlices {
    fn push(&mut self, proto: EqProtocol, bytes: &[u8], len: usize) -> EqRef {
        let id = u32::try_from(self.slices.len()).expect("slice count fits in u32");
        self.slices.push((proto, self.bytes.len(), len));
        self.bytes.extend_from_slice(bytes);
        EqRef { epoch: PENDING, id }
    }
}

impl Plan {
    fn build<S: Pls>(prepared: &PreparedCompiled<'_, S>, rounds: usize) -> Self {
        let config = prepared.config;
        let g = config.graph();
        let (port_base, delivery, owner) =
            (config.port_base(), config.delivery(), config.port_owner());
        let force_dynamic = prepared.scheme.force_dynamic;
        let instance = &*prepared.instance;
        let views = borrow_all(&instance.epochs);
        // Each node's prover fingerprint as a plan reference: its id in its
        // label's epoch (plan epoch slots start as the label epochs).
        let provers: Vec<Option<EqRef>> = (instance.nodes.iter())
            .map(|n| n.prover.map(|id| EqRef { epoch: n.epoch, id }))
            .collect();
        let proto_of = |r: EqRef| *views[r.epoch as usize].eq(r.id).protocol();
        let lp_bits = |r: EqRef| views[r.epoch as usize].coeffs(r.id).len();

        // Prover-side slice schedules (t ≥ 2 only), one per node. A
        // malformed (κ, own-label) prefix keeps the unprepared behaviour:
        // empty certificates every round, no randomness drawn.
        let senders: Vec<Option<SenderSchedule>> = if rounds == 1 {
            Vec::new()
        } else {
            provers
                .iter()
                .map(|p| p.map(|p| SenderSchedule::new(&proto_of(p), lp_bits(p), rounds)))
                .collect()
        };
        let dims = g
            .nodes()
            .map(|v| {
                let (width, covered) = if rounds == 1 {
                    let prover = provers[v.index()];
                    prover.map_or((0, 0), |p| (proto_of(p).message_bits(), 1))
                } else {
                    let sender = senders[v.index()].as_ref();
                    sender.map_or((0, 0), |s| (s.proto.message_bits(), s.covered))
                };
                (width, g.degree(v), covered)
            })
            .collect();

        // A reducer is appended only when a check's field differs from the
        // previous check's, so `fields` stays at one entry for a uniform κ
        // and never outgrows the check count.
        let mut fields: Vec<Barrett> = Vec::new();
        let mut field_of = |modulus: u64| {
            if fields.last().map(|b| b.modulus()) != Some(modulus) {
                fields.push(Barrett::cached(modulus));
            }
            u32::try_from(fields.len() - 1).expect("field index fits in u32")
        };
        let mut pending = PendingSlices::default();
        let (mut slice_send, mut slice_recv) = (Vec::new(), Vec::new());
        let mut nodes = Vec::with_capacity(instance.nodes.len());
        let mut checks: Vec<EdgeCheck> = Vec::new();
        let index = |i: usize| u32::try_from(i).expect("check count fits in u32");
        for (u, n) in instance.nodes.iter().enumerate() {
            if !n.ready {
                nodes.push(NodePlan::RejectAt(1));
                continue;
            }
            let (label, e_u) = (views[n.epoch as usize].label(n.label), n.epoch);
            let ports = &views[e_u as usize].parts(label)[1..];
            let recv_proto = proto_of(provers[u].expect("ready implies a parsed prover prefix"));
            // At t ≥ 2 the receiver's slice protocol comes from its own
            // declared κ.
            let proto_u = (rounds > 1)
                .then(|| EqProtocol::for_length(recv_proto.input_length().div_ceil(rounds)));
            let mut static_reject = NO_REJECT;
            let start = checks.len();
            let lo = port_base[u] as usize;
            let plan = 'node: {
                for (i, &recv_id) in ports.iter().enumerate() {
                    let src = delivery[lo + i] as usize;
                    let v = owner[src] as usize;
                    let mut push_check = |round: usize, sender: EqRef, receiver: EqRef, modulus| {
                        if checks.capacity() == 0 {
                            // Room for one check per port left (all of
                            // them at t = 1), so a large plan never
                            // reallocates while it fills.
                            checks.reserve_exact(config.port_count() - lo);
                        }
                        checks.push(EdgeCheck {
                            round: u32::try_from(round).expect("round index fits in u32"),
                            field: field_of(modulus),
                            src_node: owner[src],
                            src_port: u32::try_from(src - port_base[v] as usize)
                                .expect("port rank fits in u32"),
                            sender,
                            receiver,
                        });
                    };
                    // A malformed sender prover emits empty certificates,
                    // which fail round 1's length check, as does a κ
                    // mismatch that changes the message width.
                    let Some(send) = provers[v] else {
                        break 'node NodePlan::RejectAt(1);
                    };
                    let Some(proto_u) = proto_u else {
                        // t = 1: the one slice is the whole string, whose
                        // fingerprints the label preparation holds.
                        // Preparations are shared by (modulus,
                        // fingerprinted string) within an epoch, so equal
                        // references mean the sender fingerprints exactly
                        // the string this port expects: the probe passes at
                        // every point of the field, every trial. (When the
                        // two sides landed in different epochs, or one was
                        // prepared unshared, the probe simply runs — and
                        // passes — dynamically; votes cannot depend on the
                        // shortcut.)
                        let send_proto = proto_of(send);
                        if send_proto.message_bits() != recv_proto.message_bits() {
                            break 'node NodePlan::RejectAt(1);
                        }
                        let recv = EqRef {
                            epoch: e_u,
                            id: recv_id,
                        };
                        if force_dynamic || send != recv {
                            push_check(0, send, recv, send_proto.modulus());
                        }
                        continue;
                    };
                    let sv = senders[v].as_ref().expect("a prover implies a schedule");
                    if sv.proto.message_bits() != proto_u.message_bits() {
                        break 'node NodePlan::RejectAt(1);
                    }
                    let (chunk, chunk_u) = (sv.proto.input_length(), proto_u.input_length());
                    let lp_send = views[send.epoch as usize].coeffs(send.id);
                    let lp_recv = views[e_u as usize].coeffs(recv_id);
                    let covered_u = lp_recv.len().div_ceil(chunk_u);
                    let shared = sv.covered.min(covered_u);
                    if sv.covered != covered_u {
                        // One side stops streaming before the other: the
                        // first uncovered round's length check fails
                        // deterministically.
                        static_reject = static_reject.min(shared + 1);
                    }
                    for r in 0..shared {
                        let len_s = slice_into(lp_send, r, chunk, &mut slice_send);
                        let len_u = slice_into(lp_recv, r, chunk_u, &mut slice_recv);
                        if !force_dynamic
                            && sv.proto.modulus() == proto_u.modulus()
                            && len_s == len_u
                            && slice_send == slice_recv
                        {
                            // The sender fingerprints exactly the slice this
                            // round expects: passes at every point of the
                            // field, every trial.
                            continue;
                        }
                        let sender = pending.push(sv.proto, &slice_send, len_s);
                        let receiver = pending.push(proto_u, &slice_recv, len_u);
                        push_check(r, sender, receiver, sv.proto.modulus());
                    }
                }
                let own = &mut checks[start..];
                if rounds > 1 {
                    // Round order lets the kernel skip the probes of trials
                    // this node already failed in an earlier round.
                    own.sort_by_key(|c| c.round);
                }
                // Probes at or past a deterministic rejection cannot move
                // the node's first-failure round; in round order they are
                // a suffix.
                let end = start + own.partition_point(|c| (c.round as usize) + 1 < static_reject);
                checks.truncate(end);
                match (end == start, static_reject) {
                    (true, NO_REJECT) => NodePlan::StaticPass,
                    (true, k) => NodePlan::RejectAt(k),
                    (false, _) => NodePlan::Dynamic {
                        static_reject,
                        checks: index(start)..index(end),
                    },
                }
            };
            if !matches!(plan, NodePlan::Dynamic { .. }) {
                // A node rejected outright keeps none of its checks.
                checks.truncate(start);
            }
            nodes.push(plan);
        }
        drop(views);

        // Slice fingerprints are content-keyed `(modulus, slice)` pairs
        // like every other preparation, so they are interned through the
        // cache's shared store: a sender slice checked by several ports —
        // or recurring across the labelings and per-t plans of a sweep — is
        // prepared once, in the cache's current epoch and against its
        // budgets.
        let mut epochs = instance.epochs.clone();
        let interned: Vec<EqRef> = pending
            .slices
            .iter()
            .map(|&(proto, at, len)| {
                let bytes = &pending.bytes[at..at + len.div_ceil(8)];
                prepared.prepare_slice(&mut epochs, &proto, bytes, len)
            })
            .collect();
        if !interned.is_empty() {
            let resolve = |r: &mut EqRef| {
                if r.epoch == PENDING {
                    *r = interned[r.id as usize];
                }
            };
            for c in &mut checks {
                resolve(&mut c.sender);
                resolve(&mut c.receiver);
            }
        }

        Self {
            rounds,
            dims,
            nodes,
            checks,
            fields,
            order: DegreeBuckets::new(g).iter_by_bucket().collect(),
            epochs,
        }
    }
}

/// Per-node state of a prepared compiled scheme: the content-derived label
/// preparation (shared through the [`PrepCache`]) plus the two
/// per-(configuration, node) facts that are *not* label content and so
/// never cross configurations — the arity fit and the memoised inner
/// verdict.
struct PreparedNode {
    /// The slot in `Instance::epochs` of the epoch holding this node's
    /// label preparation.
    epoch: u32,
    /// The label preparation's id in that epoch: the parsed replication
    /// with one prepared fingerprint per part.
    label: u32,
    /// The id in that epoch of the prover fingerprint, `None` when the
    /// (κ, own-label) prefix is malformed — such nodes emit empty
    /// certificates without drawing randomness, exactly like the
    /// unprepared [`Rpls::certify_into`].
    prover: Option<u32>,
    /// Whether the replication parsed *and* matches this node's degree;
    /// `false` means every round rejects at this node.
    ready: bool,
    /// The inner verifier's verdict on the claimed labels. It does not
    /// depend on the round's randomness, so it is computed at most once
    /// per [`Instance`] — however many prepares a cache serves that
    /// instance to — and, matching the unprepared path, only on a round
    /// in which every fingerprint check passed. It depends on the node's
    /// local context (identity, payload, weights) and on the inner
    /// scheme, which are not label content, so it lives in the instance
    /// the cache keys by scheme and configuration identity, not in the
    /// content-keyed epochs.
    inner: OnceCell<bool>,
}

/// One compiled scheme's labeling bound to one configuration: a pure
/// function of (compiled scheme, configuration, labeling), shared by every
/// [`PreparedCompiled`] a [`PrepCache`] returns for that triple (see the
/// `prep` module's kept instances).
pub(crate) struct Instance {
    /// The `(scheme, configuration)` ids it was prepared for.
    key: (u64, u64),
    /// The cache epochs holding the nodes' label preparations (usually
    /// one; more when the cache turned over mid-labeling), pinned for the
    /// instance's lifetime.
    epochs: Vec<SharedEpoch>,
    nodes: Vec<PreparedNode>,
    /// The schedule plans, cached per `t` (see [`Plan`]). A sweep rarely
    /// uses more than a handful of distinct `t`s, so a small vec beats a
    /// map.
    plans: RefCell<Vec<Rc<Plan>>>,
}

impl Instance {
    /// Binds the label preparations `found` (per node: the slot in
    /// `epochs` and the label id there) to `config`.
    fn new(
        key: (u64, u64),
        config: &Configuration,
        epochs: Vec<SharedEpoch>,
        found: &[(u32, u32)],
    ) -> Self {
        let g = config.graph();
        let views = borrow_all(&epochs);
        let nodes = (found.iter().zip(g.nodes()))
            .map(|(&(epoch, label), v)| {
                let record = views[epoch as usize].label(label);
                PreparedNode {
                    epoch,
                    label,
                    prover: record.prover,
                    ready: record.arity as usize == g.degree(v) + 1,
                    inner: OnceCell::new(),
                }
            })
            .collect();
        drop(views);
        Self {
            key,
            epochs,
            nodes,
            plans: RefCell::new(Vec::new()),
        }
    }

    /// Whether this instance binds exactly the label preparations `found`
    /// (slots into `epochs`): the same epoch and label id at every node,
    /// so the same label content.
    fn binds(&self, epochs: &[SharedEpoch], found: &[(u32, u32)]) -> bool {
        let same_epoch = |(a, b): (&SharedEpoch, &SharedEpoch)| Rc::ptr_eq(a, b);
        let same_label = |(n, &(e, l)): (&PreparedNode, &(u32, u32))| n.epoch == e && n.label == l;
        self.epochs.len() == epochs.len()
            && self.epochs.iter().zip(epochs).all(same_epoch)
            && self.nodes.len() == found.len()
            && self.nodes.iter().zip(found).all(same_label)
    }

    /// The `(scheme, configuration)` ids it was prepared for.
    pub(crate) fn key(&self) -> (u64, u64) {
        self.key
    }

    /// The label epochs it pins.
    pub(crate) fn pins(&self) -> &[SharedEpoch] {
        &self.epochs
    }
}

/// The prepared form of [`CompiledRpls`] (the ROADMAP's "prepared
/// prover"): each replicated label parsed once per cache, length-prefixed
/// once, one fingerprint polynomial per node on the prover side and one
/// per claimed neighbor copy on the verifier side — after which each
/// (node, port, trial) costs one random field element plus one polynomial
/// evaluation (a table lookup at Monte-Carlo trial counts). The labeling's
/// binding to the configuration, its inner verdicts and its plans live in
/// the shared [`Instance`]; this is the borrowed view a prepare returns.
struct PreparedCompiled<'a, S> {
    scheme: &'a CompiledRpls<S>,
    config: &'a Configuration,
    /// The round count this instance was prepared for, reused as the
    /// lazy-table hint of slice fingerprints.
    rounds_hint: usize,
    /// Handle on the preparing cache's store: plans, all built after
    /// binding time, request their slice preparations through it, sharing
    /// content and budgets with everything prepared up front.
    store: Rc<RefCell<Store>>,
    instance: Rc<Instance>,
}

impl<S: Pls> PreparedCompiled<'_, S> {
    /// The plan of the `rounds`-round schedule, built on first use.
    fn plan(&self, rounds: usize) -> Rc<Plan> {
        let plans = &self.instance.plans;
        if let Some(plan) = plans.borrow().iter().find(|p| p.rounds == rounds) {
            return Rc::clone(plan);
        }
        let plan = Rc::new(Plan::build(self, rounds));
        plans.borrow_mut().push(Rc::clone(&plan));
        plan
    }

    /// The fingerprint of the `len`-bit slice `bytes` under `proto`,
    /// interned in the cache's current epoch (or unshared, when too large
    /// for a whole epoch), as a reference into `epochs`.
    fn prepare_slice(
        &self,
        epochs: &mut Vec<SharedEpoch>,
        proto: &EqProtocol,
        bytes: &[u8],
        len: usize,
    ) -> EqRef {
        let store = &mut *self.store.borrow_mut();
        let epoch = store.target(&prep::Growth::eq(len));
        let id = {
            let mut e = epoch.borrow_mut();
            let mark = e.mark();
            e.stage_bits(bytes, 0, len);
            e.intern_eq(proto, mark, len, self.rounds_hint, &mut store.tally)
        };
        EqRef {
            epoch: epoch_slot(epochs, epoch),
            id,
        }
    }

    /// The epoch holding node `u`'s label preparation, borrowed.
    fn epoch_of(&self, u: usize) -> Ref<'_, Epoch> {
        let instance = &*self.instance;
        instance.epochs[instance.nodes[u].epoch as usize].borrow()
    }

    /// The memoised inner verdict of node `u`, which must be `ready`.
    /// Shared between the scalar and batched paths, so whichever runs
    /// first fills the same memo — and, matching the unprepared path, it
    /// is only ever queried after a round (or trial) in which every
    /// fingerprint check passed.
    fn inner_verdict(&self, u: usize) -> bool {
        let node = &self.instance.nodes[u];
        debug_assert!(node.ready, "inner verdict queried for a rejecting node");
        *node.inner.get_or_init(|| {
            let epoch = self.epoch_of(u);
            let parts = epoch.parts(epoch.label(node.label));
            let det = DetView {
                local: crate::engine::local_context(self.config, NodeId::new(u)),
                label: epoch.part(parts[0]),
                neighbor_labels: parts[1..].iter().map(|&id| epoch.part(id)).collect(),
            };
            self.scheme.inner.verify(&det)
        })
    }
}

impl<S: Pls> PreparedRpls for PreparedCompiled<'_, S> {
    fn pattern_cost(&self, pattern: MessagePattern, rounds: usize) -> Option<PatternCost> {
        let plan = self.plan(rounds);
        Some(pattern_cost_from_dims(pattern, plan.dims.iter().copied()))
    }

    fn certify_into(
        &self,
        node: NodeId,
        _port: rpls_graph::Port,
        rng: &mut dyn Rng,
        out: &mut BitString,
    ) {
        out.clear();
        let Some(prover) = self.instance.nodes[node.index()].prover else {
            return;
        };
        let epoch = self.epoch_of(node.index());
        let prep = epoch.evaluator(prover);
        prep.alice_message(rng).append_to(prep.modulus(), out);
    }

    fn verify(&self, node: NodeId, received: &Received<'_>) -> bool {
        let n = &self.instance.nodes[node.index()];
        if !n.ready {
            return false;
        }
        let epoch = self.epoch_of(node.index());
        let parts = epoch.parts(epoch.label(n.label));
        let proto = epoch.eq(parts[0]).protocol();
        let (expected_bits, modulus) = (proto.message_bits(), proto.modulus());
        for (cert, &port) in received.iter().zip(&parts[1..]) {
            if cert.len() != expected_bits {
                return false;
            }
            let Ok(msg) = EqMessage::from_slice(cert, modulus) else {
                return false;
            };
            if !epoch.evaluator(port).bob_accepts(&msg) {
                return false;
            }
        }
        drop(epoch);
        self.inner_verdict(node.index())
    }

    /// The one trial hook: the schedule's plan, its clean kernel, and —
    /// under a non-transparent fault plan — the plan's messages delivered
    /// through the fault layer. A transparent fault plan reports all-zero
    /// fault statistics.
    fn run_block(
        &self,
        spec: &RunSpec,
        config: &Configuration,
        seeds: &[u64],
        _scratch: &mut RoundScratch,
        emit: &mut dyn FnMut(RunReport),
    ) {
        let (pattern, mode, rounds) = (spec.pattern, spec.stream_mode, spec.rounds);
        let plan = self.plan(rounds);
        let clean = self.run_plan(&plan, config.graph(), seeds, pattern, mode);
        if let Some(faults) = spec.faults.as_ref().filter(|f| !f.is_transparent()) {
            // Node `u` sends one message of its width per port in each of
            // its covered rounds (the plan's `dims`). Crash draws cover the
            // widest coverage of any node, port-less nodes included.
            let horizon = if rounds == 1 {
                1
            } else {
                plan.dims.iter().map(|d| d.2).max().unwrap_or(0)
            };
            let schedule = |_, sender: usize| {
                let (bits, _, messages) = plan.dims[sender];
                EdgeSchedule {
                    messages,
                    bits,
                    extra: 0,
                }
            };
            let mut delivery = Delivery::default();
            for (&seed, &reject_at) in seeds.iter().zip(&clean) {
                faults.deliver(config, seed, rounds, horizon, schedule, &mut delivery);
                emit(delivery.report(rounds, reject_at == NO_REJECT, reject_at));
            }
            return;
        }
        // Pattern-adjusted bit accounting, identical by construction to
        // what the scalar path reports (it overrides its transcript-derived
        // bits with the same `pattern_cost`).
        let cost = pattern_cost_from_dims(pattern, plan.dims.iter().copied());
        let fault = spec.faults.as_ref().map(|_| FaultReport::default());
        for reject_at in clean {
            emit(RunReport {
                accepted: reject_at == NO_REJECT,
                rounds,
                decided_round: reject_at.min(rounds),
                max_bits_per_round: cost.max_bits_per_round,
                total_bits: cost.total_bits,
                fault,
            });
        }
    }
}

/// The sentinel first-rejection round of a trial no node has rejected yet.
const NO_REJECT: usize = usize::MAX;

impl<S: Pls> PreparedCompiled<'_, S> {
    /// The clean batched trial loop over `plan`; returns each trial's
    /// first-rejection round ([`NO_REJECT`] when it accepts). Certificates
    /// are never materialised: with per-(node, slot, round) streams, each
    /// certificate is a pure function of its stream key and the trial seed
    /// — one SplitMix64 word reduced into the sender's field — so each
    /// fingerprint check collapses to comparing two prepared polynomial
    /// probes at that point. The BitSlice parse, the arena writes, and the
    /// per-trial vote loop of the scalar path are all dropped; reports stay
    /// bit-identical to it, which the golden tests pin.
    ///
    /// Nodes are walked in the plan's degree-bucket order. A probe is
    /// skipped for a trial once it can no longer move that trial's
    /// first-rejection round (streams are stateless, so nothing downstream
    /// observes the skipped draws), and the walk stops once every trial is
    /// decided at round 1.
    fn run_plan(
        &self,
        plan: &Plan,
        g: &Graph,
        seeds: &[u64],
        pattern: MessagePattern,
        mode: StreamMode,
    ) -> Vec<usize> {
        let trials = seeds.len();
        let mut reject_at = vec![NO_REJECT; trials];
        let mut node_fail: Vec<usize> = Vec::new();
        let sketch = self.scheme.sketch.filter(|_| plan.rounds == 1);
        let views = borrow_all(&plan.epochs);
        for &u in &plan.order {
            let u = u as usize;
            match &plan.nodes[u] {
                NodePlan::RejectAt(k) => {
                    for r in &mut reject_at {
                        *r = (*r).min(*k);
                    }
                }
                NodePlan::StaticPass => {
                    if trials == 0 || self.inner_verdict(u) {
                        continue;
                    }
                    for r in &mut reject_at {
                        *r = (*r).min(plan.rounds);
                    }
                }
                NodePlan::Dynamic {
                    static_reject,
                    checks,
                } => {
                    let checks = &plan.checks[checks.start as usize..checks.end as usize];
                    node_fail.clear();
                    node_fail.resize(trials, *static_reject);
                    match sketch {
                        Some(sketch) if checks.len() > sketch.max_probes() => {
                            // The probe sketch: a node over budget runs,
                            // per live trial, `s` checks sampled from its
                            // domain-separated sketch stream — a subset of
                            // the full conjunction, so rejection here
                            // implies full-probe rejection on the same
                            // seed (see [`ProbeSketch`]).
                            let d = checks.len() as u64;
                            let trials = node_fail.iter_mut().zip(&reject_at).zip(seeds);
                            for ((fail, &rejected), &seed) in trials {
                                if rejected == 1 {
                                    continue;
                                }
                                for draw in 0..sketch.max_probes() as u64 {
                                    let idx = sketch_stream_word(seed, u as u64, draw) % d;
                                    let c = &checks[idx as usize];
                                    let word = c.words(pattern, mode, g)(seed);
                                    let field = &plan.fields[c.field as usize];
                                    let send = evaluator(&views, c.sender);
                                    let recv = evaluator(&views, c.receiver);
                                    if !EdgeCheck::probe(word, field, &send, &recv) {
                                        *fail = 1;
                                        break;
                                    }
                                }
                            }
                        }
                        _ => {
                            for c in checks {
                                c.probe_trials(
                                    &views,
                                    c.words(pattern, mode, g),
                                    &plan.fields[c.field as usize],
                                    seeds,
                                    &reject_at,
                                    &mut node_fail,
                                );
                            }
                        }
                    }
                    // The inner verifier runs only if some trial's probes
                    // all passed, matching the unprepared order; its
                    // `false` verdict surfaces when the node votes after
                    // the last round.
                    let inner = !node_fail.contains(&NO_REJECT) || self.inner_verdict(u);
                    for (r, &fail) in reject_at.iter_mut().zip(&node_fail) {
                        let fail = if fail == NO_REJECT && !inner {
                            plan.rounds
                        } else {
                            fail
                        };
                        *r = (*r).min(fail);
                    }
                }
            }
            if reject_at.iter().all(|&r| r == 1) {
                break;
            }
        }
        reject_at
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine;
    use crate::stats;
    use rpls_bits::BitReader;
    use rpls_graph::{generators, NodeId};

    /// A replicated label parsed into `(κ, parts)`, each part copied out;
    /// `None` where the compiled verifier rejects the layout.
    fn parse_replicated(label: &BitString) -> Option<(usize, Vec<BitString>)> {
        let mut ranges = Vec::new();
        let (kappa, whole) = scan_replicated(label, &mut ranges)?;
        let mut bytes = Vec::new();
        let strings = stage_parts(label, &ranges, &mut bytes);
        let copy = |&s| prep::part_of(s).to_bitstring();
        whole.then(|| (kappa, strings.iter().map(copy).collect()))
    }

    /// The intro's spanning-tree-style toy: every node's label must equal
    /// its id written in 64 bits, and neighbors must carry ids that are
    /// actually adjacent values on the cycle — enough structure to exercise
    /// the compiler's honest and fooled paths.
    struct IdLabel;

    impl Pls for IdLabel {
        fn name(&self) -> String {
            "id-label".into()
        }
        fn label(&self, config: &Configuration) -> Labeling {
            config
                .states()
                .iter()
                .map(|s| {
                    let mut w = BitWriter::new();
                    w.write_u64(s.id(), 64);
                    w.finish()
                })
                .collect()
        }
        fn verify(&self, view: &DetView<'_>) -> bool {
            let mut r = BitReader::from_slice(view.label);
            let Ok(claimed) = r.read_u64(64) else {
                return false;
            };
            claimed == view.local.state.id()
                && view
                    .neighbor_labels
                    .iter()
                    .all(|&l| BitReader::from_slice(l).read_u64(64).is_ok())
        }
    }

    #[test]
    fn honest_run_always_accepts() {
        let config = Configuration::plain(generators::cycle(7));
        let scheme = CompiledRpls::new(IdLabel);
        let labeling = scheme.label(&config);
        for seed in 0..50 {
            let rec = engine::run_randomized(&scheme, &config, &labeling, seed);
            assert!(rec.outcome.accepted(), "seed {seed}");
        }
    }

    #[test]
    fn certificates_are_logarithmic_in_kappa() {
        let config = Configuration::plain(generators::cycle(7));
        let scheme = CompiledRpls::new(IdLabel);
        let labeling = scheme.label(&config);
        let rec = engine::run_randomized(&scheme, &config, &labeling, 3);
        let bits = rec.max_certificate_bits();
        // κ = 64, λ = 96, p ∈ (288, 576) → 2 * ⌈log₂ p⌉ ≤ 20.
        assert!(bits <= 20, "certificate bits = {bits}");
        assert_eq!(
            bits,
            CompiledRpls::<IdLabel>::certificate_bits_for_kappa(64)
        );
    }

    #[test]
    fn tampered_replica_detected_with_good_probability() {
        // Corrupt node 3's claimed copy of its port-0 neighbor's label.
        let config = Configuration::plain(generators::cycle(7));
        let scheme = CompiledRpls::new(IdLabel);
        let mut labeling = scheme.label(&config);
        let (kappa, mut parts) = parse_replicated(labeling.get(NodeId::new(3))).unwrap();
        let flipped: BitString = parts[1]
            .iter()
            .enumerate()
            .map(|(i, b)| if i == 63 { !b } else { b })
            .collect();
        parts[1] = flipped;
        let refs: Vec<&BitString> = parts.iter().collect();
        labeling.set(NodeId::new(3), encode_replicated(kappa, &refs));

        let spec = RunSpec::trial(17);
        let est = stats::estimate(
            &scheme,
            &config,
            &labeling,
            &spec,
            &stats::EstimateOpts::new(1000),
        );
        // The corrupted edge check fails with probability > 2/3: the
        // acceptance's upper confidence bound (confidence 1 − 10⁻⁶) stays
        // at or below 1/3.
        let upper = stats::clopper_pearson_upper(est.accepts, est.trials, 1e-6);
        assert!(
            upper <= 1.0 / 3.0,
            "acceptance {est:?}, upper bound {upper}"
        );
    }

    #[test]
    fn malformed_labels_rejected_outright() {
        let config = Configuration::plain(generators::cycle(5));
        let scheme = CompiledRpls::new(IdLabel);
        // Garbage labels: too short to parse.
        let labeling = Labeling::new(vec![BitString::zeros(5); 5]);
        let rec = engine::run_randomized(&scheme, &config, &labeling, 0);
        assert!(!rec.outcome.accepted());
    }

    #[test]
    fn wrong_arity_labels_rejected() {
        // A replicated label with too few parts for the degree.
        let config = Configuration::plain(generators::cycle(5));
        let scheme = CompiledRpls::new(IdLabel);
        let inner = IdLabel.label(&config);
        let kappa = inner.max_bits();
        let labeling: Labeling = config
            .graph()
            .nodes()
            .map(|v| encode_replicated(kappa, &[inner.get(v)])) // no neighbors!
            .collect();
        let rec = engine::run_randomized(&scheme, &config, &labeling, 0);
        assert!(!rec.outcome.accepted());
    }

    #[test]
    fn absurd_kappa_claims_do_not_materialise_tables() {
        // A label declaring κ ≈ 2³¹ induces a protocol prime around 6·10⁹;
        // preparing with a huge rounds hint must fall back to per-round
        // Horner (a table would be tens of gigabytes) and still agree with
        // the unprepared path.
        let config = Configuration::plain(generators::cycle(3));
        let scheme = CompiledRpls::new(IdLabel);
        let kappa = (1usize << 31) + 5;
        let part = BitString::zeros(8);
        let labeling: Labeling = config
            .graph()
            .nodes()
            .map(|_| encode_replicated(kappa, &[&part, &part, &part]))
            .collect();
        let prepared = Rpls::prepare(&scheme, &config, &labeling, usize::MAX);
        let mut scratch = crate::buffer::RoundScratch::new();
        let report = engine::run_prepared(&RunSpec::trial(1), &*prepared, &config, &mut scratch);
        let rec = engine::run_randomized(&scheme, &config, &labeling, 1);
        assert_eq!(report.accepted, rec.outcome.accepted());
        assert_eq!(scratch.votes(), rec.outcome.votes());
        assert_eq!(
            scratch.certificates().to_nested(config.port_base()),
            rec.certificates
        );
    }

    #[test]
    fn cached_preparation_shares_labels_and_matches_uncached() {
        let config = Configuration::plain(generators::cycle(9));
        let scheme = CompiledRpls::new(IdLabel);
        let honest = Rpls::label(&scheme, &config);
        let mut tampered = honest.clone();
        let flipped: BitString = tampered
            .get(NodeId::new(4))
            .iter()
            .enumerate()
            .map(|(i, b)| if i == 70 { !b } else { b })
            .collect();
        tampered.set(NodeId::new(4), flipped);

        let mut cache = PrepCache::new();
        let mut scratch = crate::buffer::RoundScratch::new();
        for labeling in [&honest, &tampered, &honest] {
            let cached = scheme.prepare_cached(&config, labeling, 64, &mut cache);
            let fresh = Rpls::prepare(&scheme, &config, labeling, 64);
            for seed in [1u64, 9, 33] {
                let a =
                    engine::run_prepared(&RunSpec::trial(seed), &*cached, &config, &mut scratch);
                let cached_votes = scratch.votes().to_vec();
                let b = engine::run_prepared(&RunSpec::trial(seed), &*fresh, &config, &mut scratch);
                assert_eq!(a, b, "seed {seed}");
                assert_eq!(cached_votes, scratch.votes(), "seed {seed}");
            }
        }
        // Honest then tampered then honest again: the second honest pass
        // must be served almost entirely from the cache (9 shared labels
        // plus the one tampered variant).
        assert_eq!(cache.shared_labels(), 10);
        assert!(
            cache.hits() > cache.misses(),
            "sweep should be hit-dominated: {cache:?}"
        );
    }

    #[test]
    fn cache_key_budget_bounds_retention_without_changing_verdicts() {
        // Adversarial labelings carrying multi-megabit claimed copies,
        // distinct every round: retained key material would grow without
        // bound if the budget did not stop it. The big strings sit in a
        // wrong-arity replication, so they are parsed and cached (key
        // pressure) but never probed (their lazy tables never fill) — the
        // test stays fast while the budget is genuinely exercised.
        let config = Configuration::plain(generators::cycle(3));
        let scheme = CompiledRpls::new(IdLabel);
        let mut cache = PrepCache::new();
        let mut scratch = crate::buffer::RoundScratch::new();
        let big = 1usize << 22; // 4 Mbit per claimed copy
        let kappa = big;
        for round in 0..8u64 {
            let labeling: Labeling = (0..3u64)
                .map(|v| {
                    let own = {
                        let mut w = BitWriter::new();
                        w.write_u64(round * 3 + v, 64);
                        w.finish()
                    };
                    let junk = {
                        let mut w = BitWriter::new();
                        for i in 0..big / 64 {
                            w.write_u64(round ^ (v << 32) ^ i as u64, 64);
                        }
                        w.finish()
                    };
                    // Two parts where a degree-2 node needs three: every
                    // node rejects, on cached and uncached paths alike.
                    encode_replicated(kappa, &[&own, &junk])
                })
                .collect();
            let cached = scheme.prepare_cached(&config, &labeling, 4, &mut cache);
            let fresh = Rpls::prepare(&scheme, &config, &labeling, 4);
            let a = engine::run_prepared(&RunSpec::trial(round), &*cached, &config, &mut scratch);
            let b = engine::run_prepared(&RunSpec::trial(round), &*fresh, &config, &mut scratch);
            assert_eq!(a, b, "round {round}");
            assert!(!a.accepted);
            assert!(cache.retained_key_bits() <= PrepCache::KEY_BITS_BUDGET);
            assert_eq!(cache.retained_key_bits(), cache.recount_bytes() * 8);
            assert!(cache.table_slots_reserved() <= PrepCache::TABLE_SLOT_BUDGET);
        }
        // 8 labelings × ~25 Mbit of distinct keys each (labels plus their
        // fingerprinted parts) far exceeds the 64 Mbit budget: the cache
        // must have turned epochs over rather than growing past the cap.
        assert!(cache.retained_key_bits() <= PrepCache::KEY_BITS_BUDGET);
        assert!(cache.epochs() > 0, "overflow must turn an epoch: {cache:?}");
    }

    #[test]
    fn label_larger_than_an_epoch_is_prepared_unshared() {
        // A label whose key alone exceeds a whole epoch's budget gets a
        // private epoch: the cache neither retains it nor turns over, and
        // the prepared instance still matches fresh preparation.
        let config = Configuration::plain(generators::cycle(3));
        let scheme = CompiledRpls::new(IdLabel);
        let big = 1usize << 26;
        let own = {
            let mut w = BitWriter::new();
            w.write_u64(7, 64);
            w.finish()
        };
        let junk = {
            let mut w = BitWriter::new();
            for i in 0..big / 64 {
                w.write_u64(i as u64, 64);
            }
            w.finish()
        };
        // Two parts where a degree-2 node needs three, as in the budget
        // test above: parsed and fingerprinted, never probed.
        let labeling = Labeling::new(vec![
            encode_replicated(big, &[&own, &junk]),
            BitString::zeros(5),
            BitString::zeros(6),
        ]);
        let mut cache = PrepCache::new();
        let mut scratch = crate::buffer::RoundScratch::new();
        for pass in 0..2 {
            let misses = cache.misses();
            let cached = scheme.prepare_cached(&config, &labeling, 4, &mut cache);
            let fresh = Rpls::prepare(&scheme, &config, &labeling, 4);
            for seed in [0u64, 3] {
                let a =
                    engine::run_prepared(&RunSpec::trial(seed), &*cached, &config, &mut scratch);
                let b = engine::run_prepared(&RunSpec::trial(seed), &*fresh, &config, &mut scratch);
                assert_eq!(a, b, "pass {pass}, seed {seed}");
            }
            // The giant label is prepared afresh every time.
            assert!(cache.misses() > misses, "pass {pass}");
        }
        assert_eq!(cache.epochs(), 0);
        assert_eq!(cache.shared_labels(), 2, "only the small labels are shared");
        assert!(cache.retained_key_bits() <= PrepCache::KEY_BITS_BUDGET);
        assert_eq!(cache.retained_key_bits(), cache.recount_bytes() * 8);
    }

    #[test]
    fn cache_hit_upgrades_table_allowance_under_bigger_hint() {
        // A screening pass (tiny hint: no table pays off) followed by a
        // deep pass (Monte-Carlo hint) through the same cache: the shared
        // preparations must gain their table allowance on the hit, not be
        // stuck with the birth hint forever.
        let config = Configuration::plain(generators::cycle(5));
        let scheme = CompiledRpls::new(IdLabel);
        let honest = Rpls::label(&scheme, &config);
        let mut cache = PrepCache::new();
        let _screen = scheme.prepare_cached(&config, &honest, 1, &mut cache);
        assert_eq!(
            cache.table_slots_reserved(),
            0,
            "a 1-round hint must not reserve tables"
        );
        let _deep = scheme.prepare_cached(&config, &honest, 1 << 20, &mut cache);
        assert!(
            cache.table_slots_reserved() > 0,
            "the Monte-Carlo hint must upgrade the cached preparations"
        );
    }

    #[test]
    fn cache_entry_overhead_bounds_tiny_entry_floods() {
        // Floods of tiny distinct labels: every entry is charged at least
        // its record and two index slots, so the epoch holds at most
        // KEY_BITS_BUDGET / (8 · MIN_ENTRY_BYTES) entries even though the
        // raw key bits alone would admit millions — and overflowing must
        // turn epochs over, after which sharing immediately recovers for
        // fresh candidates. The charge is the epoch's real size: after
        // every preparation it equals a recount from the records.
        // The flood is `max_entries + 6000` distinct 26-bit labels, 300 per
        // labeling so the per-preparation recount stays cheap.
        const NODES: u64 = 300;
        let config = Configuration::plain(generators::cycle(NODES as usize));
        let scheme = CompiledRpls::new(IdLabel);
        let mut cache = PrepCache::new();
        let max_entries = (PrepCache::KEY_BITS_BUDGET / (8 * prep::MIN_ENTRY_BYTES)) as usize;
        let tiny_labeling = |round: u64| -> Labeling {
            (0..NODES)
                .map(|v| {
                    let mut w = BitWriter::new();
                    w.write_u64(round * NODES + v, 26);
                    w.finish()
                })
                .collect()
        };
        let rounds = (max_entries as u64 + 6000).div_ceil(NODES);
        for round in 0..rounds {
            let _ = scheme.prepare_cached(&config, &tiny_labeling(round), 4, &mut cache);
            assert_eq!(
                cache.retained_key_bits(),
                cache.recount_bytes() * 8,
                "round {round}"
            );
        }
        assert!(
            cache.shared_labels() + cache.shared_fingerprints() <= max_entries,
            "retained {} entries past the per-entry bound {max_entries}",
            cache.shared_labels() + cache.shared_fingerprints()
        );
        assert!(cache.retained_key_bits() <= PrepCache::KEY_BITS_BUDGET);
        assert!(cache.epochs() > 0, "overflow must turn an epoch: {cache:?}");

        // Post-overflow amortisation: a candidate prepared again right
        // after landing in the current epoch is served entirely from it.
        let fresh = tiny_labeling(rounds + 7);
        let _ = scheme.prepare_cached(&config, &fresh, 4, &mut cache);
        let _ = scheme.prepare_cached(&config, &fresh, 4, &mut cache);
        let misses_before = cache.misses();
        let _ = scheme.prepare_cached(&config, &fresh, 4, &mut cache);
        assert_eq!(
            cache.misses(),
            misses_before,
            "repeat preparation after an epoch turnover must be all hits"
        );
    }

    #[test]
    fn multiround_honest_accepts_and_t1_matches_one_round() {
        let config = Configuration::plain(generators::cycle(7));
        let scheme = CompiledRpls::new(IdLabel);
        let labeling = Rpls::label(&scheme, &config);
        let prepared = Rpls::prepare(&scheme, &config, &labeling, 32);
        let mut scratch = crate::buffer::RoundScratch::new();
        for seed in [0u64, 5, 99] {
            let one =
                engine::run_prepared(&RunSpec::trial(seed), &*prepared, &config, &mut scratch);
            for rounds in [1usize, 2, 4, 16, 1 << 40] {
                let multi = engine::run_prepared(
                    &RunSpec::trial(seed).with_rounds(rounds),
                    &*prepared,
                    &config,
                    &mut scratch,
                );
                assert!(multi.accepted, "seed {seed} rounds {rounds}");
                assert_eq!(multi.decided_round, rounds);
                if rounds == 1 {
                    assert_eq!(multi.max_bits_per_round, one.max_bits_per_round);
                    assert_eq!(multi.total_bits, one.total_bits);
                }
                // Chunked streaming: per-round messages fingerprint
                // shorter slices, so they can only shrink as t grows.
                assert!(multi.max_bits_per_round <= one.max_bits_per_round);
            }
        }
    }

    #[test]
    fn multiround_verdicts_match_one_round_for_any_t() {
        // Tamper one claimed replica: for every t the acceptance verdict
        // of a trial must equal the one-round verdict for that seed
        // (schedules re-time communication, never change verdicts), and
        // rejecting trials must be decided no later than round t.
        let config = Configuration::plain(generators::cycle(7));
        let scheme = CompiledRpls::new(IdLabel);
        let mut labeling = Rpls::label(&scheme, &config);
        let (kappa, mut parts) = parse_replicated(labeling.get(NodeId::new(3))).unwrap();
        let flipped: BitString = parts[1]
            .iter()
            .enumerate()
            .map(|(i, b)| if i == 63 { !b } else { b })
            .collect();
        parts[1] = flipped;
        let refs: Vec<&BitString> = parts.iter().collect();
        labeling.set(NodeId::new(3), encode_replicated(kappa, &refs));

        let prepared = Rpls::prepare(&scheme, &config, &labeling, 64);
        let mut scratch = crate::buffer::RoundScratch::new();
        let mut rejected_somewhere = false;
        for rounds in [1usize, 2, 3, 8] {
            for seed in 0..64u64 {
                let one =
                    engine::run_prepared(&RunSpec::trial(seed), &*prepared, &config, &mut scratch);
                let multi = engine::run_prepared(
                    &RunSpec::trial(seed).with_rounds(rounds),
                    &*prepared,
                    &config,
                    &mut scratch,
                );
                // Different t re-randomises the slice probes, so verdicts
                // across t values differ trial-by-trial — but t = 1 must
                // equal the one-round verdict exactly.
                if rounds == 1 {
                    assert_eq!(multi.accepted, one.accepted, "seed {seed}");
                }
                assert!(multi.decided_round >= 1 && multi.decided_round <= rounds);
                if !multi.accepted {
                    rejected_somewhere = true;
                }
            }
        }
        assert!(rejected_somewhere, "a tampered replica must be caught");
    }

    #[test]
    fn multiround_rejects_early_on_sliced_tampering() {
        // The flipped bit sits at position 63 of the first claimed copy:
        // inside the *second half* of the 128-bit length-prefixed string
        // (32 length bits + 96 label bits; bit 63 of the copy is bit 95 of
        // the string). At t = 2 the slices cover [0, 64) and [64, 128), so
        // every rejection must be decided in round 2 — round 1's slice is
        // identical on both sides — while parse-level garbage rejects in
        // round 1.
        let config = Configuration::plain(generators::cycle(7));
        let scheme = CompiledRpls::new(IdLabel);
        let mut labeling = Rpls::label(&scheme, &config);
        let (kappa, mut parts) = parse_replicated(labeling.get(NodeId::new(3))).unwrap();
        let flipped: BitString = parts[1]
            .iter()
            .enumerate()
            .map(|(i, b)| if i == 63 { !b } else { b })
            .collect();
        parts[1] = flipped;
        let refs: Vec<&BitString> = parts.iter().collect();
        labeling.set(NodeId::new(3), encode_replicated(kappa, &refs));
        let prepared = Rpls::prepare(&scheme, &config, &labeling, 64);
        let mut scratch = crate::buffer::RoundScratch::new();
        let mut rejects = 0usize;
        for seed in 0..200u64 {
            let multi = engine::run_prepared(
                &RunSpec::trial(seed).with_rounds(2),
                &*prepared,
                &config,
                &mut scratch,
            );
            if !multi.accepted {
                rejects += 1;
                assert_eq!(
                    multi.decided_round, 2,
                    "seed {seed}: the mismatch lives in slice 2"
                );
            }
        }
        assert!(rejects > 100, "rejects = {rejects}");

        // Garbage labels fail the parse: decided in round 1 at any t.
        let garbage = Labeling::new(vec![BitString::zeros(5); 7]);
        let prepared = Rpls::prepare(&scheme, &config, &garbage, 4);
        let multi = engine::run_prepared(
            &RunSpec::trial(0).with_rounds(8),
            &*prepared,
            &config,
            &mut scratch,
        );
        assert!(!multi.accepted);
        assert_eq!(multi.decided_round, 1);
    }

    #[test]
    fn multiround_per_round_bits_shrink_with_t() {
        // The per-round message fingerprints a ⌈λ/t⌉-bit slice, so its
        // width 2⌈log₂ p⌉ for p ∈ (3⌈λ/t⌉, 6⌈λ/t⌉) is non-increasing in t.
        let config = Configuration::plain(generators::cycle(5));
        let scheme = CompiledRpls::new(IdLabel);
        let labeling = Rpls::label(&scheme, &config);
        let prepared = Rpls::prepare(&scheme, &config, &labeling, 8);
        let mut scratch = crate::buffer::RoundScratch::new();
        let mut last = usize::MAX;
        for rounds in [1usize, 2, 4, 8, 16] {
            let multi = engine::run_prepared(
                &RunSpec::trial(1).with_rounds(rounds),
                &*prepared,
                &config,
                &mut scratch,
            );
            assert!(
                multi.max_bits_per_round <= last,
                "t {rounds}: {} > {last}",
                multi.max_bits_per_round
            );
            last = multi.max_bits_per_round;
        }
        // λ = 96: t = 16 slices are 6 bits, p ∈ (18, 36) → ≤ 12-bit
        // messages vs 20 at t = 1.
        assert!(last < 16, "per-round bits must shrink: {last}");
    }

    /// Inner label lengths around every byte and word boundary.
    const PART_LENS: [usize; 8] = [0, 1, 7, 8, 9, 31, 33, 64];

    /// An inner scheme that accepts everything and records, per node, the
    /// labels its verifier was shown: its own, then its neighbors' by port.
    #[derive(Default)]
    struct Recording {
        seen: RefCell<std::collections::BTreeMap<usize, Vec<BitString>>>,
    }

    impl Recording {
        /// The views recorded since the last call, in node order.
        fn take(&self) -> Vec<Vec<BitString>> {
            std::mem::take(&mut *self.seen.borrow_mut())
                .into_values()
                .collect()
        }
    }

    impl Pls for Recording {
        fn name(&self) -> String {
            "recording".into()
        }
        fn label(&self, config: &Configuration) -> Labeling {
            config
                .graph()
                .nodes()
                .map(|v| {
                    let len = PART_LENS[v.index() % PART_LENS.len()];
                    BitString::from_bools((0..len).map(|i| (v.index() + i) % 3 == 0))
                })
                .collect()
        }
        fn verify(&self, view: &DetView<'_>) -> bool {
            let shown: Vec<BitString> = std::iter::once(view.label)
                .chain(view.neighbor_labels.iter().copied())
                .map(|l| l.to_bitstring())
                .collect();
            let node = view.local.node.index();
            let before = self.seen.borrow_mut().insert(node, shown.clone());
            assert!(before.is_none_or(|b| b == shown), "node {node}: two views");
            true
        }
    }

    #[test]
    fn inner_verifier_reads_the_same_parts_on_every_path() {
        // K₈ under inner labels of every length in PART_LENS: each
        // replicated label holds parts of all eight lengths, at assorted
        // bit offsets.
        let config = Configuration::plain(generators::complete(PART_LENS.len()));
        let scheme = CompiledRpls::new(Recording::default());
        let inner = scheme.inner().label(&config);
        let labeling = Rpls::label(&scheme, &config);
        let g = config.graph();
        let original: Vec<Vec<BitString>> = g
            .nodes()
            .map(|v| {
                std::iter::once(v)
                    .chain(g.neighbors(v).map(|nb| nb.node))
                    .map(|u| inner.get(u).clone())
                    .collect()
            })
            .collect();
        let rec = engine::run_randomized(&scheme, &config, &labeling, 3);
        assert!(rec.outcome.accepted());
        assert_eq!(scheme.inner().take(), original, "unprepared");

        let mut cache = PrepCache::new();
        let mut scratch = RoundScratch::new();
        let mut run = |config: &Configuration, prepared: &dyn PreparedRpls| {
            let report = engine::run_prepared(&RunSpec::trial(3), prepared, config, &mut scratch);
            assert!(report.accepted);
            (report, scheme.inner().take())
        };
        // Each pass binds a freshly built configuration, so no pass is
        // served a kept instance: the inner verifier runs every time, on
        // parts read from a fresh, then a warm cache.
        let rebuilt = || Configuration::plain(generators::complete(PART_LENS.len()));
        for pass in ["fresh", "warm"] {
            let config = rebuilt();
            let prepared = scheme.prepare_cached(&config, &labeling, 1, &mut cache);
            assert_eq!(run(&config, &*prepared).1, original, "{pass} cache");
            assert_eq!(cache.recount_bytes(), cache.retained_key_bits() / 8);
        }
        assert_eq!(cache.shared_labels(), PART_LENS.len());

        // A memo hit: the second prepare of this (scheme, configuration)
        // is kept, the third is served it and runs no inner verifier.
        let mut report = None;
        for pass in ["first sight", "kept"] {
            let prepared = scheme.prepare_cached(&config, &labeling, 1, &mut cache);
            let (r, seen) = run(&config, &*prepared);
            assert_eq!(seen, original, "{pass}");
            report = Some(r);
        }
        let hit = scheme.prepare_cached(&config, &labeling, 1, &mut cache);
        let (r, seen) = run(&config, &*hit);
        assert!(seen.is_empty(), "a memo hit ran the inner verifier");
        assert_eq!(Some(r), report, "memo hit");

        // An instance kept alive across a turnover reads its parts from
        // the epoch it pins. The flood: 16-Mbit labels, distinct per
        // round, on another configuration and scheme.
        let kept_config = rebuilt();
        let kept = scheme.prepare_cached(&kept_config, &labeling, 1, &mut cache);
        let flood_config = Configuration::plain(generators::cycle(3));
        let flood_scheme = CompiledRpls::new(IdLabel);
        let big = 1usize << 24;
        for round in 0u64.. {
            if cache.epochs() > 0 {
                break;
            }
            assert!(round < 8, "the flood must turn the cache over");
            let mut w = BitWriter::new();
            for i in 0..big / 64 {
                w.write_u64(round ^ i as u64, 64);
            }
            let junk = w.finish();
            let flood: Labeling = (0..3).map(|_| encode_replicated(big, &[&junk])).collect();
            flood_scheme.prepare_cached(&flood_config, &flood, 1, &mut cache);
        }
        assert_eq!(run(&kept_config, &*kept).1, original, "across a turnover");
        assert_eq!(cache.recount_bytes(), cache.retained_key_bits() / 8);
    }

    /// [`IdLabel`], counting its verifier's calls.
    #[derive(Default, Clone)]
    struct Counting {
        calls: std::cell::Cell<usize>,
    }

    impl Pls for Counting {
        fn name(&self) -> String {
            "counting".into()
        }
        fn label(&self, config: &Configuration) -> Labeling {
            IdLabel.label(config)
        }
        fn verify(&self, view: &DetView<'_>) -> bool {
            self.calls.set(self.calls.get() + 1);
            IdLabel.verify(view)
        }
    }

    impl CompiledRpls<Counting> {
        /// Inner verifier calls since the last call.
        fn inner_calls(&self) -> usize {
            self.inner().calls.replace(0)
        }
    }

    /// The kept instance whose plans and inner verdicts a cache would
    /// serve for (scheme, configuration, labeling) next, if any.
    fn kept_instance<S: Pls>(
        cache: &PrepCache,
        scheme: &CompiledRpls<S>,
        config: &Configuration,
    ) -> Vec<Rc<Instance>> {
        let key = (scheme.id, config.id());
        let store = cache.store.borrow();
        store
            .instances
            .iter()
            .filter(|i| i.key == key)
            .cloned()
            .collect()
    }

    /// One `estimate_with` on `cache`, checked against a fresh-cache
    /// estimate; returns the inner verifier calls it made.
    fn estimate_on(
        cache: &mut PrepCache,
        scheme: &CompiledRpls<Counting>,
        config: &Configuration,
        labeling: &Labeling,
    ) -> usize {
        let (spec, opts) = (RunSpec::trial(11), stats::EstimateOpts::new(40));
        let fresh = stats::estimate(scheme, config, labeling, &spec, &opts);
        scheme.inner_calls();
        let mut scratch = RoundScratch::new();
        let est = stats::estimate_with(scheme, config, labeling, &spec, &opts, &mut scratch, cache);
        let calls = scheme.inner_calls();
        assert_eq!(est, fresh, "cached estimate");
        calls
    }

    #[test]
    fn repeated_prepare_shares_plans_and_inner_verdicts() {
        let config = Configuration::plain(generators::cycle(9));
        let scheme = CompiledRpls::new(Counting::default());
        let labeling = Rpls::label(&scheme, &config);
        let mut cache = PrepCache::new();
        // First sight: nothing kept. Second: bound afresh, then kept.
        assert_eq!(estimate_on(&mut cache, &scheme, &config, &labeling), 9);
        assert!(kept_instance(&cache, &scheme, &config).is_empty());
        assert_eq!(estimate_on(&mut cache, &scheme, &config, &labeling), 9);
        let [kept] = &kept_instance(&cache, &scheme, &config)[..] else {
            panic!("the second sight is kept");
        };
        let plan = Rc::clone(&kept.plans.borrow()[0]);
        // Every later prepare is a hit: the same plan, no inner verdict
        // recomputed, the fresh cache's estimate. A clone of the scheme
        // is the same content, so it hits too.
        for scheme in [&scheme, &scheme.clone()] {
            assert_eq!(estimate_on(&mut cache, scheme, &config, &labeling), 0);
            assert_eq!(kept.plans.borrow().len(), 1);
            assert!(Rc::ptr_eq(&kept.plans.borrow()[0], &plan));
        }
        assert_eq!(cache.store.borrow().instances.len(), 1);
    }

    #[test]
    fn changed_scheme_configuration_or_labeling_never_hits() {
        let mut config = Configuration::plain(generators::cycle(9));
        let scheme = CompiledRpls::new(Counting::default());
        let labeling = Rpls::label(&scheme, &config);
        let mut flipped = labeling.clone();
        let bits = flipped.get(NodeId::new(4));
        let bits: BitString = bits
            .iter()
            .enumerate()
            .map(|(i, b)| b ^ (i == 70))
            .collect();
        flipped.set(NodeId::new(4), bits);

        // A first sight on a fresh cache keeps nothing.
        let mut cache = PrepCache::new();
        assert_eq!(estimate_on(&mut cache, &scheme, &config, &labeling), 9);
        assert!(cache.store.borrow().instances.is_empty());
        assert_eq!(estimate_on(&mut cache, &scheme, &config, &labeling), 9);
        assert_eq!(estimate_on(&mut cache, &scheme, &config, &labeling), 0);

        // One flipped bit is another labeling: it misses, and is kept
        // beside the honest one (a second sight of the pair).
        let calls = estimate_on(&mut cache, &scheme, &config, &flipped);
        assert!(calls > 0, "a one-bit change hit the memo");
        assert_eq!(kept_instance(&cache, &scheme, &config).len(), 2);
        assert_eq!(estimate_on(&mut cache, &scheme, &config, &labeling), 0);

        // Rebuilt schemes are new identities, even with equal flags.
        for other in [
            scheme.clone().force_dynamic(),
            scheme.clone().with_sketch(ProbeSketch::new(1)),
        ] {
            assert!(estimate_on(&mut cache, &other, &config, &labeling) > 0);
            assert!(estimate_on(&mut cache, &other, &config, &labeling) > 0);
            assert_eq!(estimate_on(&mut cache, &other, &config, &labeling), 0);
        }

        // Any mutable access to a state renews the configuration's
        // identity, whether or not the state changes.
        let _ = config.state_mut(NodeId::new(0));
        assert!(kept_instance(&cache, &scheme, &config).is_empty());
        assert_eq!(estimate_on(&mut cache, &scheme, &config, &labeling), 9);
    }

    #[test]
    fn turnover_drops_kept_instances_but_not_live_ones() {
        let config = Configuration::plain(generators::cycle(9));
        let scheme = CompiledRpls::new(Counting::default());
        let labeling = Rpls::label(&scheme, &config);
        let mut cache = PrepCache::new();
        let mut scratch = RoundScratch::new();
        let _ = scheme.prepare_cached(&config, &labeling, 1, &mut cache);
        let live = scheme.prepare_cached(&config, &labeling, 1, &mut cache);
        let seeds: Vec<u64> = (0..16).collect();
        let block = |prepared: &dyn PreparedRpls, scratch: &mut RoundScratch| {
            let mut out = Vec::new();
            let spec = RunSpec::trial(0);
            engine::run_trials(&spec, prepared, &config, &seeds, scratch, &mut |r| {
                out.push(r)
            });
            out
        };
        let before = block(&*live, &mut scratch);
        assert_eq!(kept_instance(&cache, &scheme, &config).len(), 1);

        // Flood the cache with 16-Mbit labels, distinct per round, on
        // another configuration and scheme, until it turns over.
        let flood_config = Configuration::plain(generators::cycle(3));
        let flood_scheme = CompiledRpls::new(IdLabel);
        let big = 1usize << 24;
        for round in 0u64.. {
            if cache.epochs() > 0 {
                break;
            }
            assert!(round < 8, "the flood must turn the cache over");
            let mut w = BitWriter::new();
            for i in 0..big / 64 {
                w.write_u64(round ^ i as u64, 64);
            }
            let junk = w.finish();
            let flood: Labeling = (0..3).map(|_| encode_replicated(big, &[&junk])).collect();
            flood_scheme.prepare_cached(&flood_config, &flood, 1, &mut cache);
        }
        // Only the flood's own latest binding, prepared after the
        // turnover, may be kept.
        assert!(kept_instance(&cache, &scheme, &config).is_empty());
        assert!(cache.store.borrow().instances.len() <= 1);
        // The live instance still reports as before; the same triple
        // prepared again is bound afresh.
        scheme.inner_calls();
        assert_eq!(block(&*live, &mut scratch), before);
        assert_eq!(scheme.inner_calls(), 0);
        let fresh = Rpls::prepare(&scheme, &config, &labeling, 1);
        assert_eq!(block(&*fresh, &mut scratch), before);
        let again = scheme.prepare_cached(&config, &labeling, 1, &mut cache);
        assert_eq!(block(&*again, &mut scratch), before);
        assert!(scheme.inner_calls() > 0);
    }

    #[test]
    fn replicated_roundtrip() {
        let a = BitString::from_bools([true, false, true]);
        let b = BitString::zeros(7);
        let enc = encode_replicated(9, &[&a, &b]);
        let (kappa, parts) = parse_replicated(&enc).unwrap();
        assert_eq!(kappa, 9);
        assert_eq!(parts, vec![a, b]);
    }

    #[test]
    fn oversized_part_rejected_by_parser() {
        // A part longer than the declared κ must be rejected.
        let a = BitString::zeros(10);
        let enc = encode_replicated(5, &[&a]);
        assert!(parse_replicated(&enc).is_none());
    }

    #[test]
    fn certificate_bits_grow_double_logarithmically() {
        // κ → 2⌈log₂(6(32+κ))⌉: doubling κ should add at most 2 bits.
        let b1 = CompiledRpls::<IdLabel>::certificate_bits_for_kappa(1 << 10);
        let b2 = CompiledRpls::<IdLabel>::certificate_bits_for_kappa(1 << 20);
        assert!(b2 - b1 <= 21, "{b1} -> {b2}");
        assert!(b1 <= 2 * 13);
    }
}
