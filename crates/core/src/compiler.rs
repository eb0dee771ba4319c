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
//! inner label length-prefixed once, one [`PreparedEq`] built per distinct
//! `(modulus, fingerprinted string)` (with *lazily* built evaluation
//! tables — filled only for polynomials the dynamic probes actually hit,
//! see [`PreparedEq`]), and the randomness-independent inner verdict
//! memoised. Each (node, port, trial) then costs one random field element
//! plus one polynomial evaluation.
//!
//! All of that per-label state is content-keyed, so it lives in a
//! [`PrepCache`] rather than per prepared instance: [`Rpls::prepare_cached`]
//! reuses one cache across labelings — an adversary sweeping hundreds of
//! near-identical forged candidates re-prepares only the labels that
//! actually changed — while plain [`Rpls::prepare`] runs the same code
//! against a throwaway cache. Both are transcript-identical to the
//! unprepared path — `tests/engine_golden.rs` pins it.
//!
//! # The t-round trade-off schedule
//!
//! The space–time trade-off axis (Patt-Shamir & Perry's t-PLS model)
//! verifies a proof of size κ over `t` rounds at `O(κ/t + log t)` bits per
//! round. For schedules of `t ≥ 2` rounds the compiled scheme's
//! [`PreparedRpls::run_block`] override implements **chunked fingerprint
//! streaming**: the length-prefixed inner
//! label is cut into `⌈λ/t⌉`-bit slices and round `r` carries one fresh
//! `(x, A_r(x))` fingerprint of slice `r`, so per-round communication is
//! the message width of the *slice-length* protocol and verdicts
//! accumulate with **early rejection** — a tampered replica is caught in
//! the round whose slice covers the tampering. `t = 1` degenerates to the
//! one-round protocol exactly (same prime, same polynomial, same
//! randomness), which keeps it bit-identical to the batched one-round
//! path; see the private `MultiRoundPlan` type for the schedule and its
//! batched kernel.

use crate::buffer::{Received, RoundScratch};
use crate::engine::{
    multiround_seed, FaultReport, MessagePattern, PatternCost, RunReport, RunSpec, StreamMode,
};
use crate::fault::{DeliveryOutcome, FaultCounts, FaultPlan};
use crate::labeling::Labeling;
use crate::prep::{CachedLabel, CachedReplication, EqStore, PrepCache};
use crate::rng::{edge_stream_first_word, node_stream_word, sketch_stream_word};
use crate::scheme::{CertView, DetView, ErrorSides, Pls, PreparedRpls, RandView, Rpls};
use crate::state::{Configuration, DegreeBuckets};
use rand::Rng;
use rpls_bits::{BitReader, BitString, BitWriter};
use rpls_fingerprint::{Barrett, EqEvaluator, EqMessage, EqProtocol, PreparedEq};
use rpls_graph::NodeId;
use std::cell::{OnceCell, RefCell};
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
    /// Disables the static-pass shortcut of the batch plan so every
    /// honest probe runs dynamically (see
    /// [`CompiledRpls::force_dynamic`]).
    force_dynamic: bool,
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
/// the usual amplification (more trials, or
/// [`stats::rounds_to_reject_profile`](crate::stats)) restores any target
/// confidence at total cost `O(d/s)` trials, still far below the `O(d)`
/// per-trial probe cost it replaces on dense families.
///
/// Sketching applies to the one-round batched path (and its faulted
/// wrapper's clean kernel); the multiround streaming schedule and the
/// scalar diagnostics paths always run full probes.
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
        }
    }

    /// Enables high-degree probe subsampling (see [`ProbeSketch`] for the
    /// soundness trade). Transcripts of nodes at or below the budget are
    /// unchanged; estimates over graphs whose maximum degree is within
    /// the budget are bit-identical to the unsketched scheme.
    #[must_use]
    pub fn with_sketch(mut self, sketch: ProbeSketch) -> Self {
        self.sketch = Some(sketch);
        self
    }

    /// Disables the batch plan's static-pass shortcut: probes whose two
    /// sides share one cached preparation (every probe of an honest
    /// labeling) are kept as dynamic checks instead of being dropped at
    /// plan-build time. Verdicts are unchanged — a shared-preparation
    /// probe passes at every point of the field — so this exists for
    /// measurement: it is the only way to drive the full probe kernel
    /// (and the sketch) on an *accepting* configuration, which is what
    /// the `scale` bench workload and the kernel's throughput numbers
    /// are measured on. Applies to the one-round batch plan; the
    /// multiround planner keeps its shortcut.
    #[must_use]
    pub fn force_dynamic(mut self) -> Self {
        self.force_dynamic = true;
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

/// Parses a replicated label into `(κ, parts)`. Returns `None` on any
/// structural violation — adversarial labels must never panic the verifier.
fn parse_replicated(label: &BitString) -> Option<(usize, Vec<BitString>)> {
    let mut r = BitReader::new(label);
    let kappa = r.read_u64(LEN_BITS).ok()? as usize;
    let mut parts = Vec::new();
    while !r.is_exhausted() {
        let len = r.read_u64(LEN_BITS).ok()? as usize;
        if len > kappa {
            return None; // a claimed label longer than κ is malformed
        }
        parts.push(r.read_bits(len).ok()?);
    }
    Some((kappa, parts))
}

/// Parses only the prefix of a replicated label the prover needs: `κ` and
/// the node's own inner label. Avoids materialising every claimed neighbor
/// copy on the certificate-generation hot path.
fn parse_own_label(label: &BitString) -> Option<(usize, BitString)> {
    let mut r = BitReader::new(label);
    let kappa = r.read_u64(LEN_BITS).ok()? as usize;
    let len = r.read_u64(LEN_BITS).ok()? as usize;
    if len > kappa {
        return None;
    }
    Some((kappa, r.read_bits(len).ok()?))
}

/// The string actually fingerprinted for an inner label: 32-bit length then
/// the label bits.
fn length_prefixed(label: &BitString) -> BitString {
    let mut w = BitWriter::new();
    w.write_u64(label.len() as u64, LEN_BITS);
    w.write_bits(label);
    w.finish()
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
        mut rng: &mut dyn Rng,
        out: &mut BitString,
    ) {
        out.clear();
        // Only the (κ, own-label) prefix matters for certificate
        // generation; a label whose prefix is malformed yields an empty
        // certificate. A label with a valid prefix but malformed neighbor
        // copies emits a normal fingerprint — soundness is preserved
        // because `verify` at the label's own node still parses the full
        // replication (`parse_replicated`) and rejects, which suffices:
        // acceptance requires every node to accept.
        let Some((kappa, own)) = parse_own_label(view.label) else {
            return;
        };
        let proto = EqProtocol::for_length(LEN_BITS as usize + kappa);
        let msg = proto.alice_message(&length_prefixed(&own), &mut rng);
        msg.append_to(proto.modulus(), out);
    }

    fn verify(&self, view: &RandView<'_>) -> bool {
        let Some((kappa, parts)) = parse_replicated(view.label) else {
            return false;
        };
        let degree = view.local.degree();
        if parts.len() != degree + 1 {
            return false;
        }
        let proto = EqProtocol::for_length(LEN_BITS as usize + kappa);
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
            if !proto.bob_accepts(&length_prefixed(&parts[i + 1]), &msg) {
                return false;
            }
        }
        // Fingerprints passed: run the inner verifier on the claimed
        // labels.
        let neighbor_labels: Vec<&BitString> = parts[1..].iter().collect();
        let det = DetView {
            local: view.local.clone(),
            label: &parts[0],
            neighbor_labels,
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
        // labelings almost every lookup is a hash hit. Whether a node's
        // replication matches its degree is the only per-(config, node)
        // fact, resolved here at binding time.
        let nodes: Vec<PreparedNode> = config
            .graph()
            .nodes()
            .map(|v| {
                let prep = cache.label_prep(labeling.get(v), rounds_hint);
                let ready = prep
                    .replication
                    .as_ref()
                    .is_some_and(|r| r.parts.len() == config.graph().degree(v) + 1);
                PreparedNode {
                    label: prep,
                    ready,
                    inner: OnceCell::new(),
                }
            })
            .collect();
        let plan = BatchPlan::build(config, &nodes, self.force_dynamic);
        Box::new(PreparedCompiled {
            scheme: self,
            config,
            labeling,
            rounds_hint,
            store: cache.store_handle(),
            nodes,
            plan,
            multiround_plans: RefCell::new(Vec::new()),
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

impl EqStore {
    /// The shared fingerprint preparation for `input` under `proto`,
    /// preparing (and, budget permitting, retaining) it on first sight.
    /// `None` iff `input` is longer than the protocol's λ.
    ///
    /// Evaluation-table slots are *reserved* here — against the cache's
    /// aggregate budget — whenever a preparation is allowed a lazy table;
    /// each table is additionally capped individually inside
    /// `EqProtocol::prepare`, but an adversarial labeling can declare a
    /// large κ on every node and multiply per-table cost by nodes × ports
    /// × labelings. Allowances are only granted to *retained* entries
    /// (an unshared throwaway preparation would pin its reservation
    /// forever), and a retained entry first prepared under a small round
    /// hint is upgraded on a later hit whose hint justifies a table.
    /// Exhausting the retention budget turns the cache over to a fresh
    /// epoch ([`PrepCache::begin_epoch`]) rather than degrading the rest
    /// of the sweep to uncached preparation; only an entry too large for
    /// even a whole epoch's budget is handed out unshared (and
    /// table-less). Values are identical either way, so transcripts
    /// depend on neither sharing nor where the budgets run out.
    fn eq_prep(
        &mut self,
        proto: &EqProtocol,
        input: BitString,
        rounds_hint: usize,
    ) -> Option<Rc<PreparedEq>> {
        let key = (proto.modulus(), input);
        if let Some(prep) = self.eq.get(&key) {
            self.hits += 1;
            let prep = Rc::clone(prep);
            // A hit under a bigger round hint than the entry was born
            // with may now justify a table (budget permitting).
            if self.table_slots >= proto.modulus() && prep.permit_table(rounds_hint) {
                self.table_slots -= proto.modulus();
            }
            return Some(prep);
        }
        self.misses += 1;
        let cost = PrepCache::key_cost(key.1.len());
        if self.key_bits < cost && cost <= PrepCache::KEY_BITS_BUDGET {
            self.begin_epoch();
        }
        let retain = self.key_bits >= cost;
        let hint = if retain && self.table_slots >= proto.modulus() {
            rounds_hint
        } else {
            0
        };
        let prep = Rc::new(proto.prepare(&key.1, hint)?);
        if prep.table_allowed() {
            self.table_slots -= proto.modulus();
        }
        if retain {
            self.key_bits -= cost;
            self.eq.insert(key, Rc::clone(&prep));
        }
        Some(prep)
    }

    /// Re-evaluates the table allowances of a label-cache hit: the
    /// underlying fingerprints were skipped entirely (that is the point of
    /// the label layer), so the round-hint upgrade of [`PrepCache::eq_prep`]
    /// is applied to them directly.
    fn upgrade_tables(&mut self, label: &CachedLabel, rounds_hint: usize) {
        let ports = label.replication.iter().flat_map(|r| r.ports.iter());
        for prep in label.prover.iter().chain(ports) {
            let modulus = prep.protocol().modulus();
            if self.table_slots >= modulus && prep.permit_table(rounds_hint) {
                self.table_slots -= modulus;
            }
        }
    }
}

impl PrepCache {
    /// The shared preparation of one replicated label: parse results and
    /// per-part fingerprints, keyed by the label's bits. Built on first
    /// sight, retained while the key budget lasts.
    fn label_prep(&mut self, label: &BitString, rounds_hint: usize) -> Rc<CachedLabel> {
        self.sync_labels();
        if let Some(hit) = self.labels.get(label) {
            let prep = Rc::clone(hit);
            let mut store = self.store.borrow_mut();
            store.hits += 1;
            store.upgrade_tables(&prep, rounds_hint);
            return prep;
        }
        self.store.borrow_mut().misses += 1;
        // Prover side: the (κ, own-label) prefix. A malformed prefix keeps
        // the unprepared behaviour — empty certificates, no randomness
        // drawn.
        let prover = parse_own_label(label).map(|(kappa, own)| {
            self.store
                .borrow_mut()
                .eq_prep(
                    &EqProtocol::for_length(LEN_BITS as usize + kappa),
                    length_prefixed(&own),
                    rounds_hint,
                )
                .expect("own label length is bounded by κ")
        });
        // Verifier side: the full replication, with one prepared
        // fingerprint per claimed neighbor copy. Whether the arity fits a
        // node's degree is deliberately *not* decided here — degree is not
        // label content — so an empty parts list (never usable: degree + 1
        // is at least 1) is folded into the malformed case.
        let replication = match parse_replicated(label) {
            Some((kappa, parts)) if !parts.is_empty() => {
                let proto = EqProtocol::for_length(LEN_BITS as usize + kappa);
                let ports = parts[1..]
                    .iter()
                    .map(|part| {
                        self.store
                            .borrow_mut()
                            .eq_prep(&proto, length_prefixed(part), rounds_hint)
                            .expect("claimed copy length is bounded by κ")
                    })
                    .collect();
                Some(CachedReplication {
                    expected_bits: proto.message_bits(),
                    modulus: proto.modulus(),
                    parts,
                    ports,
                })
            }
            _ => None,
        };
        let prep = Rc::new(CachedLabel {
            prover,
            replication,
        });
        let cost = Self::key_cost(label.len());
        {
            let mut store = self.store.borrow_mut();
            if store.key_bits < cost && cost <= PrepCache::KEY_BITS_BUDGET {
                // Epoch turnover (see `EqStore::eq_prep`). This label's
                // own fingerprint entries, created just above, are wiped
                // with the rest — the Rcs in `prep` keep them alive, only
                // future sharing restarts.
                store.begin_epoch();
            }
        }
        // An epoch may have turned just above or inside any `eq_prep`
        // call; the label map must catch up before a retained insert.
        self.sync_labels();
        let mut store = self.store.borrow_mut();
        if store.key_bits >= cost {
            store.key_bits -= cost;
            self.labels.insert(label.clone(), Rc::clone(&prep));
        }
        prep
    }
}

/// The labeling-static plan of the batched trial path: how each node's
/// vote is computed across a whole block of trials. Everything here is a
/// pure function of the prepared labeling — certificate lengths, length
/// checks, and which fingerprint probes are non-trivial do not depend on
/// the round's randomness, so they are resolved once at preparation time
/// and the per-(edge, trial) loop is left with one SplitMix64 word, one
/// reduction, and two polynomial probes.
struct BatchPlan {
    /// Per-node `(message width, degree)` — the dimensions every
    /// message-pattern cost formula needs (width 0 when the node's prover
    /// prefix is malformed and it sends nothing). Every cert length is
    /// labeling-static: a node sends `message_bits` of its own protocol on
    /// each of its slots, or nothing when its prover prefix is malformed.
    dims: Vec<(usize, usize)>,
    /// One entry per node, parallel to `PreparedCompiled::nodes`.
    nodes: Vec<NodeBatch>,
    /// Node processing order: every node once, cheapest degree bucket
    /// first (see [`DegreeBuckets`]). The global verdict is a
    /// per-trial conjunction over nodes, so any order yields identical
    /// summaries — but walking hubs last means the dense nodes of a
    /// clique or power-law graph probe only the trials every cheap node
    /// already passed.
    order: Vec<u32>,
}

/// How one node votes across a block of trials.
enum NodeBatch {
    /// The vote is `false` every trial: the replicated label failed to
    /// parse (`VerifierPrep::Reject`), or some port statically fails the
    /// certificate-length check (malformed sender prover, or a κ mismatch
    /// that changes the message width).
    AlwaysFalse,
    /// Every fingerprint probe passes at every point (each sender
    /// fingerprints exactly the string this node's port expects — the
    /// honest-labeling case), so the vote is the memoised inner verdict.
    StaticPass,
    /// At least one port needs per-trial fingerprint probes; trivially
    /// passing ports are already dropped.
    Dynamic(Vec<EdgeCheck>),
}

/// One non-trivial per-trial fingerprint probe: the delivered certificate
/// on some port of the receiving node, reduced to its algebraic content.
struct EdgeCheck {
    /// The sender's (node, port) — the key of the per-trial random stream.
    src_node: u32,
    src_port: u32,
    /// The sender's field (the random point is drawn in it): its reducer,
    /// built once with the plan.
    send_field: Barrett,
    /// The sender's prepared fingerprint (what the certificate claims).
    sender: Rc<PreparedEq>,
    /// The receiver's prepared fingerprint of the claimed neighbor copy;
    /// its field bounds the points the probe accepts.
    receiver: Rc<PreparedEq>,
}

impl EdgeCheck {
    /// Which of the sender's distinct message slots this check's port
    /// carries under `pattern` — the key of the probe word's stream (the
    /// port itself for the per-port-keyed patterns; unused by broadcast,
    /// which draws from the sender's node stream).
    fn slot_under(&self, pattern: MessagePattern, g: &rpls_graph::Graph) -> u64 {
        pattern.slot_of(
            g.degree(NodeId::new(self.src_node as usize)),
            self.src_port as usize,
        ) as u64
    }

    /// The probe word of `(seed, this check)` under `pattern`: one
    /// SplitMix64 word of the sender's per-slot edge stream (per-node
    /// stream for broadcast).
    #[inline]
    fn word(&self, pattern: MessagePattern, seed: u64, slot: u64) -> u64 {
        match pattern {
            MessagePattern::Broadcast => node_stream_word(seed, u64::from(self.src_node), 0),
            _ => edge_stream_first_word(seed, u64::from(self.src_node), slot),
        }
    }

    /// The probe: `true` iff the delivered fingerprint would be accepted
    /// on this port for `seed`'s trial. The word reduces into the sender's
    /// field (bit-identical to `%`); a point past the receiver's field
    /// (mismatched primes, adversarial labelings only) rejects without
    /// touching either polynomial; otherwise both sides are evaluated at
    /// the shared point by one [`EqEvaluator::eval_pair`].
    #[inline]
    fn probe_one(
        &self,
        pattern: MessagePattern,
        slot: u64,
        seed: u64,
        send: &EqEvaluator<'_>,
        recv: &EqEvaluator<'_>,
    ) -> bool {
        let x = self
            .send_field
            .reduce(u128::from(self.word(pattern, seed, slot)));
        x < recv.modulus() && {
            let (a, b) = send.eval_pair(recv, x);
            a == b
        }
    }

    /// Applies this check to every live trial, ANDing the probe verdict
    /// into `ok` — the **probe kernel** of the one-round batched path.
    /// Trials are laid out in chunks of [`PROBE_LANES`]: the probe words,
    /// each reduced into the sender's field (bit-identical to `%`), then
    /// both sides evaluated at every lane's point by one
    /// [`EqEvaluator::eval_pair_lanes`] — one window table per lane and
    /// `2·PROBE_LANES` interleaved Horner chains, plain scalar code with no
    /// target-feature gates. The trials past the last whole chunk take the
    /// single-point pair probe.
    ///
    /// A chunk whose trials are all dead is skipped entirely; a chunk with
    /// any live trial evaluates every lane (dead lanes' verdicts are
    /// discarded by the AND — probe streams are stateless pure functions,
    /// so the extra evaluations can't shift anything another trial
    /// observes, and only nudge the lazy-table probe counter, which moves
    /// work but never values).
    ///
    /// Mismatched-field probes (sender prime above the receiver's,
    /// adversarial labelings only) take the single-point probe throughout:
    /// a point past the receiver's field must reject *without* touching
    /// either polynomial.
    fn probe_trials(
        &self,
        pattern: MessagePattern,
        g: &rpls_graph::Graph,
        seeds: &[u64],
        ok: &mut [bool],
    ) {
        let send = self.sender.evaluator();
        let recv = self.receiver.evaluator();
        let slot = self.slot_under(pattern, g);
        let mut t0 = 0usize;
        // Sender prime ≤ receiver prime: every reduced point lies in both
        // fields, so whole chunks evaluate unconditionally.
        if self.send_field.modulus() <= recv.modulus() {
            while t0 + PROBE_LANES <= seeds.len() {
                let live = &mut ok[t0..t0 + PROBE_LANES];
                if live.contains(&true) {
                    let xs: [u64; PROBE_LANES] = std::array::from_fn(|l| {
                        let word = self.word(pattern, seeds[t0 + l], slot);
                        self.send_field.reduce(u128::from(word))
                    });
                    let (sv, rv) = send.eval_pair_lanes(&recv, &xs);
                    for (l, o) in live.iter_mut().enumerate() {
                        *o = *o && sv[l] == rv[l];
                    }
                }
                t0 += PROBE_LANES;
            }
        }
        for (o, &seed) in ok[t0..].iter_mut().zip(&seeds[t0..]) {
            if *o {
                *o = self.probe_one(pattern, slot, seed, &send, &recv);
            }
        }
    }
}

/// Trials per chunk of the probe kernel. On the 32-trial `scale` rows of
/// `bench_engine` (2-vCPU x86-64 host) 8-lane chunks ran the sparse and
/// power-law families ~1.7× faster than a one-trial-at-a-time pair loop,
/// and the full clique ~1.1× faster: the sixteen independent chains fill
/// the multiplier pipeline that two chains leave idle. Values do not
/// depend on the lane count.
const PROBE_LANES: usize = 8;

/// A reducer lookup for plan builds: a labeling's checks almost all share
/// one field, so the last reducer is reused before asking
/// [`Barrett::cached`].
fn field_memo() -> impl FnMut(u64) -> Barrett {
    let mut last: Option<Barrett> = None;
    move |modulus| match last {
        Some(b) if b.modulus() == modulus => b,
        _ => *last.insert(Barrett::cached(modulus)),
    }
}

impl BatchPlan {
    fn build(config: &Configuration, nodes: &[PreparedNode], force_dynamic: bool) -> Self {
        let g = config.graph();
        let port_base = config.port_base();
        let delivery = config.delivery();
        // Owner of each global port (the inverse of the CSR layout).
        let port_count = *port_base.last().expect("port_base has n+1 entries") as usize;
        let mut owner = vec![0u32; port_count];
        for v in 0..nodes.len() {
            let node = u32::try_from(v).expect("node index fits in u32");
            owner[port_base[v] as usize..port_base[v + 1] as usize].fill(node);
        }
        let mut dims = Vec::with_capacity(nodes.len());
        for (v, n) in nodes.iter().enumerate() {
            let len = n
                .label
                .prover
                .as_ref()
                .map_or(0, |p| p.protocol().message_bits());
            dims.push((len, g.degree(NodeId::new(v))));
        }
        let mut field_of = field_memo();
        let batch_nodes = nodes
            .iter()
            .enumerate()
            .map(|(u, n)| {
                if !n.ready {
                    return NodeBatch::AlwaysFalse;
                }
                let rep = n.label.replication.as_ref().expect("ready implies parsed");
                let mut checks = Vec::new();
                let lo = port_base[u] as usize;
                for (i, recv_prep) in rep.ports.iter().enumerate() {
                    let src = delivery[lo + i] as usize;
                    let v = owner[src] as usize;
                    let p = src - port_base[v] as usize;
                    let Some(send_prep) = &nodes[v].label.prover else {
                        // A malformed sender prover emits empty
                        // certificates, which can never match the expected
                        // fingerprint width: the length check fails every
                        // trial.
                        return NodeBatch::AlwaysFalse;
                    };
                    if send_prep.protocol().message_bits() != rep.expected_bits {
                        return NodeBatch::AlwaysFalse;
                    }
                    if !force_dynamic && Rc::ptr_eq(send_prep, recv_prep) {
                        // Preparations are shared by (modulus,
                        // fingerprinted string), so pointer equality means
                        // the sender fingerprints exactly the string this
                        // port expects: the probe passes at every point of
                        // the field, every trial. (When a cache budget ran
                        // out and handed one side out unshared, the probe
                        // simply runs — and passes — dynamically; votes
                        // cannot depend on the shortcut. `force_dynamic`
                        // keeps every such probe for the same reason the
                        // shortcut is sound: measurement-only, verdicts
                        // identical.)
                        continue;
                    }
                    checks.push(EdgeCheck {
                        src_node: owner[src],
                        src_port: u32::try_from(p).expect("port rank fits in u32"),
                        send_field: field_of(send_prep.protocol().modulus()),
                        sender: Rc::clone(send_prep),
                        receiver: Rc::clone(recv_prep),
                    });
                }
                if checks.is_empty() {
                    NodeBatch::StaticPass
                } else {
                    NodeBatch::Dynamic(checks)
                }
            })
            .collect();
        let order = DegreeBuckets::new(g).iter_by_bucket().collect();
        Self {
            dims,
            nodes: batch_nodes,
            order,
        }
    }
}

/// The `t`-round **chunked fingerprint streaming** plan (the compiled
/// scheme's `t ≥ 2` schedule in [`PreparedRpls::run_block`]). Instead of
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
/// equality protocol catches the difference with probability `> 2/3`. The
/// `t = 1` schedule fingerprints the whole string under the exact
/// one-round protocol with the exact one-round randomness, so it is
/// bit-identical to the one-round batched path (`tests/engine_golden.rs`
/// pins this).
///
/// Everything here is labeling-static, mirroring [`BatchPlan`]: per-round
/// certificate widths, coverage mismatches, and which slice probes are
/// non-trivial are resolved once; the per-(edge, round, trial) loop is one
/// SplitMix64 word plus two slice-polynomial probes. Plans are cached per
/// `t` on the prepared instance.
struct MultiRoundPlan {
    /// Per-node `(slice-message width, degree, covered rounds)` for the
    /// message-pattern cost formulas (width and coverage 0 when the
    /// node's prover prefix is malformed and it streams nothing). Round 0
    /// always carries a full slice message wherever anything is sent.
    dims: Vec<(usize, usize, usize)>,
    /// One entry per node.
    nodes: Vec<MultiNodeBatch>,
}

/// How one node's accumulated multi-round vote resolves across a block of
/// trials.
enum MultiNodeBatch {
    /// Rejects deterministically in the given 1-based round, every trial:
    /// parse/arity failures and certificate-width mismatches fail round 1's
    /// length check; coverage mismatches fail the length check of the first
    /// round where one side stops streaming.
    RejectAt(usize),
    /// Every slice probe passes at every point in every round, so the vote
    /// is the memoised inner verdict (a `false` verdict surfaces when the
    /// node votes after its last round, i.e. at round `rounds`).
    StaticPass,
    /// At least one (port, round) needs per-trial slice probes.
    Dynamic {
        /// Earliest 1-based round with a deterministic length failure
        /// (coverage mismatch), if any; probes at or past it are pruned.
        static_reject: Option<usize>,
        /// Non-trivial probes, sorted by round.
        checks: Vec<MultiEdgeCheck>,
    },
}

/// One non-trivial slice probe: round `round`'s certificate on some port,
/// reduced to its algebraic content (the multi-round analog of
/// [`EdgeCheck`]).
struct MultiEdgeCheck {
    /// 0-based round of this probe.
    round: usize,
    /// The sender's (node, port) keying the per-round random stream.
    src_node: u32,
    src_port: u32,
    /// The sender's slice-protocol field (the random point's field): its
    /// reducer, built once with the plan.
    send_field: Barrett,
    /// The sender's prepared fingerprint of its own slice `round`.
    sender: Rc<PreparedEq>,
    /// The receiver's prepared fingerprint of the claimed copy's slice;
    /// its slice-protocol field bounds the points the probe accepts.
    receiver: Rc<PreparedEq>,
}

impl MultiEdgeCheck {
    /// Which of the sender's distinct message slots this check's port
    /// carries under `pattern` (see [`EdgeCheck::slot_under`]).
    fn slot_under(&self, pattern: MessagePattern, g: &rpls_graph::Graph) -> u64 {
        pattern.slot_of(
            g.degree(NodeId::new(self.src_node as usize)),
            self.src_port as usize,
        ) as u64
    }
}

/// The prover-side slice schedule of one node: how its length-prefixed
/// inner label streams across `t` rounds.
struct SenderSchedule {
    /// Slice capacity `⌈λ/t⌉` for the node's declared `λ = 32 + κ`.
    chunk: usize,
    /// The equality protocol of that slice capacity (all rounds share it).
    proto: EqProtocol,
    /// The length-prefixed inner label actually streamed.
    lp: BitString,
    /// Rounds that carry a message: `⌈lp.len() / chunk⌉` (≥ 1 — the 32-bit
    /// length prefix guarantees a non-empty string). Rounds past this send
    /// empty certificates without drawing randomness.
    covered: usize,
}

/// The bits `[r·chunk, (r+1)·chunk)` of `lp`, clamped to its length.
fn slice_of(lp: &BitString, r: usize, chunk: usize) -> BitString {
    let start = r * chunk;
    let end = lp.len().min(start.saturating_add(chunk));
    let mut out = BitString::with_capacity(end.saturating_sub(start));
    for i in start..end {
        out.push(lp.bit(i).expect("slice range is clamped to the string"));
    }
    out
}

impl MultiRoundPlan {
    fn build<S: Pls>(
        prepared: &PreparedCompiled<'_, S>,
        rounds: usize,
        rounds_hint: usize,
    ) -> Self {
        let config = prepared.config;
        let g = config.graph();
        let port_base = config.port_base();
        let delivery = config.delivery();
        let port_count = *port_base.last().expect("port_base has n+1 entries") as usize;
        let mut owner = vec![0u32; port_count];
        for v in 0..prepared.nodes.len() {
            let node = u32::try_from(v).expect("node index fits in u32");
            owner[port_base[v] as usize..port_base[v + 1] as usize].fill(node);
        }

        // Prover-side slice schedules, one per node. A malformed
        // (κ, own-label) prefix keeps the one-round behaviour: empty
        // certificates every round, no randomness drawn.
        let senders: Vec<Option<SenderSchedule>> = g
            .nodes()
            .map(|v| {
                parse_own_label(prepared.labeling.get(v)).map(|(kappa, own)| {
                    let lambda = LEN_BITS as usize + kappa;
                    let chunk = lambda.div_ceil(rounds);
                    let proto = EqProtocol::for_length(chunk);
                    let lp = length_prefixed(&own);
                    let covered = lp.len().div_ceil(chunk);
                    SenderSchedule {
                        chunk,
                        proto,
                        lp,
                        covered,
                    }
                })
            })
            .collect();

        let mut dims = Vec::with_capacity(senders.len());
        for (v, s) in senders.iter().enumerate() {
            let degree = g.degree(NodeId::new(v));
            match s {
                Some(s) => dims.push((s.proto.message_bits(), degree, s.covered)),
                None => dims.push((0, degree, 0)),
            }
        }

        // Slice fingerprints are content-keyed `(modulus, slice)` pairs
        // like every other preparation, so they are requested through the
        // cache's shared store: a sender slice checked by several ports —
        // or recurring across the labelings and per-t plans of a sweep —
        // is prepared once, with retention and lazy-table allowances drawn
        // from the cache-wide epoch budgets instead of a per-plan pool.
        let store = &prepared.store;
        let prepare_slice = |proto: &EqProtocol, slice: BitString| -> Rc<PreparedEq> {
            store
                .borrow_mut()
                .eq_prep(proto, slice, rounds_hint)
                .expect("slice length is bounded by the slice capacity")
        };

        let mut field_of = field_memo();
        let batch_nodes = prepared
            .nodes
            .iter()
            .enumerate()
            .map(|(u, n)| {
                if !n.ready {
                    return MultiNodeBatch::RejectAt(1);
                }
                let rep = n.label.replication.as_ref().expect("ready implies parsed");
                // The receiver's slice capacity comes from its own declared
                // κ (the first 32 bits of its replicated label, which
                // `ready` guarantees parse).
                let kappa_u = BitReader::new(prepared.labeling.get(NodeId::new(u)))
                    .read_u64(LEN_BITS)
                    .expect("ready implies a parsable κ prefix")
                    as usize;
                let chunk_u = (LEN_BITS as usize + kappa_u).div_ceil(rounds);
                let proto_u = EqProtocol::for_length(chunk_u);
                let mut static_reject: Option<usize> = None;
                let mut checks: Vec<MultiEdgeCheck> = Vec::new();
                let lo = port_base[u] as usize;
                for (i, part) in rep.parts[1..].iter().enumerate() {
                    let src = delivery[lo + i] as usize;
                    let v = owner[src] as usize;
                    let p = src - port_base[v] as usize;
                    let Some(sv) = &senders[v] else {
                        // Empty certificates where a slice message is
                        // expected: round 1's length check fails.
                        return MultiNodeBatch::RejectAt(1);
                    };
                    if sv.proto.message_bits() != proto_u.message_bits() {
                        return MultiNodeBatch::RejectAt(1);
                    }
                    let lp_u = length_prefixed(part);
                    let covered_u = lp_u.len().div_ceil(chunk_u);
                    let shared = sv.covered.min(covered_u);
                    if sv.covered != covered_u {
                        // One side stops streaming before the other: the
                        // first uncovered round's length check fails
                        // deterministically.
                        let at = shared + 1;
                        static_reject = Some(static_reject.map_or(at, |k| k.min(at)));
                    }
                    for r in 0..shared {
                        let ss = slice_of(&sv.lp, r, sv.chunk);
                        let su = slice_of(&lp_u, r, chunk_u);
                        if sv.proto.modulus() == proto_u.modulus() && ss == su {
                            // The sender fingerprints exactly the slice
                            // this round expects: passes at every point of
                            // the field, every trial.
                            continue;
                        }
                        let sender = prepare_slice(&sv.proto, ss);
                        let receiver = prepare_slice(&proto_u, su);
                        checks.push(MultiEdgeCheck {
                            round: r,
                            src_node: owner[src],
                            src_port: u32::try_from(p).expect("port rank fits in u32"),
                            send_field: field_of(sv.proto.modulus()),
                            sender,
                            receiver,
                        });
                    }
                }
                if let Some(k) = static_reject {
                    // Probes at or past a deterministic rejection cannot
                    // move the node's first-failure round.
                    checks.retain(|c| c.round + 1 < k);
                }
                checks.sort_by_key(|c| c.round);
                match (checks.is_empty(), static_reject) {
                    (true, Some(k)) => MultiNodeBatch::RejectAt(k),
                    (true, None) => MultiNodeBatch::StaticPass,
                    (false, _) => MultiNodeBatch::Dynamic {
                        static_reject,
                        checks,
                    },
                }
            })
            .collect();

        Self {
            dims,
            nodes: batch_nodes,
        }
    }
}

/// Per-node state of a prepared compiled scheme: the content-derived label
/// preparation (shared through the [`PrepCache`]) plus the two
/// per-(configuration, node) facts that are *not* label content and so
/// never cross labelings — the arity fit and the memoised inner verdict.
struct PreparedNode {
    /// The shared preparation of this node's label: prover fingerprint
    /// (`None` when the (κ, own-label) prefix is malformed — such nodes
    /// emit empty certificates without drawing randomness, exactly like
    /// the unprepared [`Rpls::certify_into`]) and the parsed replication
    /// with one prepared fingerprint per claimed neighbor copy.
    label: Rc<CachedLabel>,
    /// Whether the replication parsed *and* matches this node's degree;
    /// `false` means every round rejects at this node.
    ready: bool,
    /// The inner verifier's verdict on the claimed labels. It does not
    /// depend on the round's randomness, so it is computed at most once
    /// per prepared instance — and, matching the unprepared path, only on
    /// a round in which every fingerprint check passed. It depends on the
    /// node's local context (identity, payload, weights), which is not
    /// label content, so it deliberately lives here and not in the cache.
    inner: OnceCell<bool>,
}

/// The prepared form of [`CompiledRpls`] (the ROADMAP's "prepared
/// prover"): each replicated label parsed once per labeling,
/// length-prefixed once, one fingerprint polynomial per node on the prover
/// side and one per claimed neighbor copy on the verifier side — after
/// which each (node, port, trial) costs one random field element plus one
/// polynomial evaluation (a table lookup at Monte-Carlo trial counts).
struct PreparedCompiled<'a, S> {
    scheme: &'a CompiledRpls<S>,
    config: &'a Configuration,
    /// The bound labeling — the multi-round planner re-reads raw labels
    /// from it (slice schedules are cut from strings the one-round
    /// preparation does not retain).
    labeling: &'a Labeling,
    /// The round count this instance was prepared for, reused as the
    /// lazy-table hint of multi-round slice fingerprints.
    rounds_hint: usize,
    /// Handle on the preparing cache's fingerprint store: plans built
    /// lazily after binding time (the per-`t` slice schedules) request
    /// their preparations through it, sharing content and budgets with
    /// everything prepared up front.
    store: Rc<std::cell::RefCell<EqStore>>,
    nodes: Vec<PreparedNode>,
    /// The labeling-static batched-trial plan (see [`BatchPlan`]).
    plan: BatchPlan,
    /// Chunked-fingerprint schedules, built on first use and cached per
    /// `t` (see [`MultiRoundPlan`]). A sweep rarely uses more than a
    /// handful of distinct `t`s, so a small vec beats a map.
    multiround_plans: RefCell<Vec<(usize, Rc<MultiRoundPlan>)>>,
}

impl<S: Pls> PreparedCompiled<'_, S> {
    /// The chunked-fingerprint schedule for `rounds`, built on first use.
    fn multiround_plan(&self, rounds: usize) -> Rc<MultiRoundPlan> {
        if let Some((_, plan)) = self
            .multiround_plans
            .borrow()
            .iter()
            .find(|(t, _)| *t == rounds)
        {
            return Rc::clone(plan);
        }
        let plan = Rc::new(MultiRoundPlan::build(self, rounds, self.rounds_hint));
        self.multiround_plans
            .borrow_mut()
            .push((rounds, Rc::clone(&plan)));
        plan
    }

    /// The memoised inner verdict of node `u`, which must be `ready`.
    /// Shared between the scalar and batched paths, so whichever runs
    /// first fills the same memo — and, matching the unprepared path, it
    /// is only ever queried after a round (or trial) in which every
    /// fingerprint check passed.
    fn inner_verdict(&self, u: usize) -> bool {
        let node = &self.nodes[u];
        debug_assert!(node.ready, "inner verdict queried for a rejecting node");
        let rep = node
            .label
            .replication
            .as_ref()
            .expect("ready implies parsed");
        *node.inner.get_or_init(|| {
            let det = DetView {
                local: crate::engine::local_context(self.config, NodeId::new(u)),
                label: &rep.parts[0],
                neighbor_labels: rep.parts[1..].iter().collect(),
            };
            self.scheme.inner.verify(&det)
        })
    }
}

impl<S: Pls> PreparedRpls for PreparedCompiled<'_, S> {
    fn pattern_cost(&self, pattern: MessagePattern, rounds: usize) -> Option<PatternCost> {
        if rounds == 1 {
            return Some(pattern_cost_from_dims(
                pattern,
                self.plan.dims.iter().map(|&(w, d)| (w, d, 1)),
            ));
        }
        let plan = self.multiround_plan(rounds);
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
        let Some(prep) = &self.nodes[node.index()].label.prover else {
            return;
        };
        let msg = prep.alice_message(rng);
        msg.append_to(prep.protocol().modulus(), out);
    }

    fn verify(&self, node: NodeId, received: &Received<'_>) -> bool {
        let n = &self.nodes[node.index()];
        if !n.ready {
            return false;
        }
        let rep = n.label.replication.as_ref().expect("ready implies parsed");
        for (i, cert) in received.iter().enumerate() {
            if cert.len() != rep.expected_bits {
                return false;
            }
            let Ok(msg) = EqMessage::from_slice(cert, rep.modulus) else {
                return false;
            };
            if !rep.ports[i].bob_accepts(&msg) {
                return false;
            }
        }
        self.inner_verdict(node.index())
    }

    /// The one trial hook, dispatched once per block on the spec's
    /// `(faults, rounds)` shape to the four batched kernels below. A
    /// transparent fault plan runs the clean kernels and reports all-zero
    /// fault statistics.
    fn run_block(
        &self,
        spec: &RunSpec,
        config: &Configuration,
        seeds: &[u64],
        scratch: &mut RoundScratch,
        emit: &mut dyn FnMut(RunReport),
    ) {
        let (pattern, mode) = (spec.pattern, spec.stream_mode);
        // The shared-stream violation mode threads one generator across a
        // node's ports sequentially; batching per (node, port) would
        // reorder its draws, so one-round trials in that diagnostics mode
        // keep the scalar reference for the per-port-keyed patterns.
        // Broadcast and k-messages key their streams by slot and ignore the
        // stream mode entirely, and the streaming schedule keys every
        // round's words explicitly, so those always batch.
        if spec.rounds == 1
            && matches!(pattern, MessagePattern::PerPort | MessagePattern::Unicast)
            && mode != StreamMode::EdgeIndependent
        {
            crate::engine::scalar_block(spec, self, config, seeds, scratch, emit);
            return;
        }
        let clean_fault = spec.faults.as_ref().map(|_| FaultReport::default());
        let faults = spec.faults.as_ref().filter(|plan| !plan.is_transparent());
        match (faults, spec.rounds) {
            (None, 1) => {
                // Pattern-adjusted bit accounting, identical by
                // construction to what the scalar path reports (it
                // overrides its transcript-derived bits with the same
                // `pattern_cost`). For `PerPort` the formula reproduces
                // `plan.{max,total}_bits` exactly, keeping the golden
                // transcripts intact.
                let cost =
                    pattern_cost_from_dims(pattern, self.plan.dims.iter().map(|&(w, d)| (w, d, 1)));
                for accepted in self.probe_block(config, seeds, pattern) {
                    emit(RunReport {
                        fault: clean_fault,
                        ..RunReport::one_round(accepted, cost.max_bits_per_round, cost.total_bits)
                    });
                }
            }
            (None, rounds) => {
                let plan = self.multiround_plan(rounds);
                // Pattern-adjusted bit accounting; reproduces the plan's own
                // `{max,total}_bits` exactly under `PerPort`.
                let cost = pattern_cost_from_dims(pattern, plan.dims.iter().copied());
                for reject_at in self.stream_block(&plan, config, seeds, rounds, pattern, mode) {
                    let accepted = reject_at == NO_REJECT;
                    emit(RunReport {
                        accepted,
                        rounds,
                        decided_round: if accepted { rounds } else { reject_at },
                        max_bits_per_round: cost.max_bits_per_round,
                        total_bits: cost.total_bits,
                        fault: clean_fault,
                    });
                }
            }
            (Some(plan), 1) => self.faulted_block(config, seeds, plan, pattern, emit),
            (Some(plan), rounds) => {
                self.faulted_stream_block(config, seeds, rounds, plan, pattern, mode, emit);
            }
        }
    }
}

/// The sentinel first-rejection round of a trial no node has rejected yet.
const NO_REJECT: usize = usize::MAX;

impl<S: Pls> PreparedCompiled<'_, S> {
    /// The batched one-round trial loop the ROADMAP's "batch whole trials
    /// per node" lever asked for; returns each trial's verdict.
    /// Certificates are never materialised: with edge-independent streams,
    /// each (node, port, trial) certificate is a pure function of
    /// `(seed_t, node, port)` — one SplitMix64 word reduced into the
    /// sender's field — so the fingerprint check collapses to comparing two
    /// prepared polynomial probes at that point. The BitSlice parse, the
    /// table-vs-Horner dispatch, the arena writes, and the per-trial vote
    /// loop of the scalar path are all hoisted out of (or dropped from) the
    /// inner loop; verdicts stay bit-identical to the scalar path, which
    /// the golden tests pin.
    fn probe_block(
        &self,
        config: &Configuration,
        seeds: &[u64],
        pattern: MessagePattern,
    ) -> Vec<bool> {
        let plan = &self.plan;
        let g = config.graph();
        let trials = seeds.len();
        let mut acc = vec![true; trials];
        let mut ok: Vec<bool> = Vec::with_capacity(trials);
        // Cheapest degree bucket first (see `BatchPlan::order`): the
        // conjunction over nodes is order-independent, but hubs walked
        // last probe only the trials every cheap node already passed.
        'nodes: for &u in &plan.order {
            let u = u as usize;
            match &plan.nodes[u] {
                NodeBatch::AlwaysFalse => {
                    acc.fill(false);
                    break 'nodes;
                }
                NodeBatch::StaticPass => {
                    if trials > 0 && !self.inner_verdict(u) {
                        acc.fill(false);
                        break 'nodes;
                    }
                }
                NodeBatch::Dynamic(checks) => {
                    // Trials some earlier node already rejected can skip
                    // the probes: streams are per-(node, slot, trial), so
                    // nothing downstream observes the skipped draws.
                    ok.clear();
                    ok.extend_from_slice(&acc);
                    match self.scheme.sketch.map(|s| s.max_probes()) {
                        Some(s) if checks.len() > s => {
                            // The probe sketch: a node over budget runs,
                            // per live trial, `s` checks sampled from its
                            // domain-separated sketch stream — a subset
                            // of the full conjunction, so rejection here
                            // implies full-probe rejection on the same
                            // seed (see [`ProbeSketch`]).
                            let d = checks.len() as u64;
                            for (t, &seed) in seeds.iter().enumerate() {
                                if !ok[t] {
                                    continue;
                                }
                                for draw in 0..s as u64 {
                                    let idx =
                                        (sketch_stream_word(seed, u as u64, draw) % d) as usize;
                                    let c = &checks[idx];
                                    let send = c.sender.evaluator();
                                    let recv = c.receiver.evaluator();
                                    let slot = c.slot_under(pattern, g);
                                    if !c.probe_one(pattern, slot, seed, &send, &recv) {
                                        ok[t] = false;
                                        break;
                                    }
                                }
                            }
                        }
                        _ => {
                            for c in checks {
                                c.probe_trials(pattern, g, seeds, &mut ok);
                            }
                        }
                    }
                    if !ok.contains(&true) {
                        acc.fill(false);
                        break 'nodes;
                    }
                    if self.inner_verdict(u) {
                        acc.copy_from_slice(&ok);
                    } else {
                        // The inner verifier rejects the claimed labels:
                        // trials whose fingerprints all passed reach that
                        // rejection, the rest already failed a probe —
                        // either way every vote is false.
                        acc.fill(false);
                        break 'nodes;
                    }
                }
            }
        }
        acc
    }

    /// The batched t-round trial loop (see [`MultiRoundPlan`]): chunked
    /// fingerprint streaming with early rejection, certificates never
    /// materialised; returns each trial's first rejection round
    /// ([`NO_REJECT`] when it accepts). Each non-trivial (port, round,
    /// trial) probe is one SplitMix64 word of round `r`'s stream reduced
    /// into the sender's slice field, compared through two prepared slice
    /// polynomials; everything else — per-round widths, coverage
    /// mismatches, statically satisfied slices — was resolved at plan-build
    /// time. Probes that can no longer move a trial's first-rejection round
    /// are skipped (streams are per-(node, port, round, trial), so nothing
    /// downstream observes the skipped draws).
    fn stream_block(
        &self,
        plan: &MultiRoundPlan,
        config: &Configuration,
        seeds: &[u64],
        rounds: usize,
        pattern: MessagePattern,
        mode: StreamMode,
    ) -> Vec<usize> {
        let g = config.graph();
        let trials = seeds.len();
        let mut reject_at = vec![NO_REJECT; trials];
        let mut node_fail: Vec<usize> = Vec::new();
        for (u, nb) in plan.nodes.iter().enumerate() {
            match nb {
                MultiNodeBatch::RejectAt(k) => {
                    for slot in &mut reject_at {
                        *slot = (*slot).min(*k);
                    }
                }
                MultiNodeBatch::StaticPass => {
                    if trials > 0 && !self.inner_verdict(u) {
                        for slot in &mut reject_at {
                            *slot = (*slot).min(rounds);
                        }
                    }
                }
                MultiNodeBatch::Dynamic {
                    static_reject,
                    checks,
                } => {
                    node_fail.clear();
                    node_fail.resize(trials, static_reject.unwrap_or(NO_REJECT));
                    for c in checks {
                        let send = c.sender.evaluator();
                        let recv = c.receiver.evaluator();
                        let round1 = c.round + 1;
                        let slot = c.slot_under(pattern, g);
                        let (src_node, src_port) = (u64::from(c.src_node), u64::from(c.src_port));
                        for (t, &seed) in seeds.iter().enumerate() {
                            if node_fail[t] <= round1 || reject_at[t] <= round1 {
                                continue;
                            }
                            let rseed = multiround_seed(seed, c.round);
                            let word = match pattern {
                                // Broadcast keys each round's single
                                // message by the sender's per-round node
                                // stream, whatever the stream mode.
                                MessagePattern::Broadcast => node_stream_word(rseed, src_node, 0),
                                // k-messages keys each slot's message by
                                // its slot-indexed edge stream,
                                // mode-independently.
                                MessagePattern::KMessages(_) => {
                                    edge_stream_first_word(rseed, src_node, slot)
                                }
                                MessagePattern::PerPort | MessagePattern::Unicast => match mode {
                                    StreamMode::EdgeIndependent => {
                                        edge_stream_first_word(rseed, src_node, src_port)
                                    }
                                    // The shared-stream violation mode
                                    // draws one word per port from the
                                    // node's single per-round stream; port
                                    // rank p consumes word p (each slice
                                    // message costs exactly one word).
                                    StreamMode::SharedPerNode => {
                                        node_stream_word(rseed, src_node, src_port)
                                    }
                                },
                            };
                            let x = c.send_field.reduce(u128::from(word));
                            if !(x < recv.modulus() && {
                                let (a, b) = send.eval_pair(&recv, x);
                                a == b
                            }) {
                                node_fail[t] = round1;
                            }
                        }
                    }
                    // The inner verifier runs only for trials whose probes
                    // all passed, matching the one-round order; its `false`
                    // verdict surfaces when the node votes after the last
                    // round.
                    let inner = if node_fail.contains(&NO_REJECT) {
                        self.inner_verdict(u)
                    } else {
                        true // unused: every trial already failed a probe
                    };
                    for (slot, &fail) in reject_at.iter_mut().zip(&node_fail) {
                        let fail = if fail == NO_REJECT {
                            if inner {
                                NO_REJECT
                            } else {
                                rounds
                            }
                        } else {
                            fail
                        };
                        *slot = (*slot).min(fail);
                    }
                }
            }
        }
        reject_at
    }

    /// The faulted batched one-round loop: the clean probe kernel plus a
    /// per-trial fault scan over **every** directed edge. The scan runs
    /// over all ports — not just the plan's dynamic checks — so a message
    /// the batch plan statically skipped (a shared-preparation probe, a
    /// static-pass node) still fails its trial when the plan perturbs it:
    /// a dropped or corrupted message never silently counts as a passed
    /// probe. The global verdict is the clean kernel's AND "no message
    /// missing", which is exactly the scalar reference semantics (a node
    /// missing input rejects conservatively, so the conjunction over nodes
    /// factors). The fault layer models point-to-point delivery, so the
    /// scan stays per directed link under every pattern: a broadcast
    /// message crossing d links is hazarded (and accounted) d times.
    fn faulted_block(
        &self,
        config: &Configuration,
        seeds: &[u64],
        plan: &FaultPlan,
        pattern: MessagePattern,
        emit: &mut dyn FnMut(RunReport),
    ) {
        let clean = self.probe_block(config, seeds, pattern);

        // Per-node transmitted certificate width, label-static: exactly
        // what `certify_into` writes (the prover's message width, or zero
        // when the (κ, own-label) prefix is malformed).
        let cert_bits: Vec<usize> = self
            .nodes
            .iter()
            .map(|n| {
                n.label
                    .prover
                    .as_ref()
                    .map_or(0, |p| p.protocol().message_bits())
            })
            .collect();

        let n = config.node_count();
        let delivery = config.delivery();
        let port_owner = config.port_owner();
        let mut crashed = vec![false; n];
        // Trial-stamped marker for "this receiver already lost a message".
        let mut short_at = vec![usize::MAX; n];
        for (t, &seed) in seeds.iter().enumerate() {
            let mut counts = FaultCounts::default();
            for (v, down) in crashed.iter_mut().enumerate() {
                *down = plan.crash_hazard(seed, v as u64, 0);
                counts.crashed_nodes += usize::from(*down);
            }
            let mut missing_messages = 0usize;
            let mut insufficient_nodes = 0usize;
            let mut max_bits = 0usize;
            let mut total_bits = 0usize;
            for (recv_port, &src) in delivery.iter().enumerate() {
                let src = src as usize;
                let sender = port_owner[src] as usize;
                let receiver = port_owner[recv_port] as usize;
                let mut lose = || {
                    missing_messages += 1;
                    if short_at[receiver] != t {
                        short_at[receiver] = t;
                        insufficient_nodes += 1;
                    }
                };
                if crashed[sender] {
                    lose();
                    continue;
                }
                let len = cert_bits[sender];
                let outcome = plan.outcome(seed, 0, src as u64);
                total_bits += len * outcome.transmissions();
                max_bits = max_bits.max(len);
                match outcome {
                    DeliveryOutcome::Intact => {}
                    DeliveryOutcome::Duplicated => counts.duplicated += 1,
                    DeliveryOutcome::Dropped => {
                        counts.dropped += 1;
                        lose();
                    }
                    DeliveryOutcome::Corrupted => {
                        counts.corrupted += 1;
                        lose();
                    }
                }
            }
            emit(RunReport {
                fault: Some(FaultReport {
                    insufficient_nodes,
                    missing_messages,
                    counts,
                }),
                ..RunReport::one_round(clean[t] && missing_messages == 0, max_bits, total_bits)
            });
        }
    }

    /// The faulted batched t-round loop: the clean chunked-fingerprint
    /// kernel plus a fault overlay on *its* per-round message set — node
    /// `u` sends one slice message of its protocol width per port in each
    /// of its `covered` rounds; rounds past coverage carry nothing and
    /// draw no fault word. Failed chunks are re-sent within their round up
    /// to the plan's retry budget (each attempt pays the slice width
    /// again); senders crash-stop at their first firing hazard. A receiver
    /// still missing a chunk after retries rejects at the end of that
    /// round, so `decided_round` is the earlier of the clean kernel's
    /// decision and the first unrecovered loss. As in
    /// [`Self::faulted_block`], the overlay stays per directed link under
    /// every pattern.
    #[allow(clippy::too_many_arguments)]
    fn faulted_stream_block(
        &self,
        config: &Configuration,
        seeds: &[u64],
        rounds: usize,
        plan: &FaultPlan,
        pattern: MessagePattern,
        mode: StreamMode,
        emit: &mut dyn FnMut(RunReport),
    ) {
        let stream_plan = self.multiround_plan(rounds);
        let clean = self.stream_block(&stream_plan, config, seeds, rounds, pattern, mode);

        // The streaming schedule's per-node message shape, mirroring the
        // plan builder's `SenderSchedule`: slice-message width and covered
        // rounds (malformed prefixes stream nothing, as in certify_into).
        let sched: Vec<(usize, usize)> = config
            .graph()
            .nodes()
            .map(|v| {
                parse_own_label(self.labeling.get(v)).map_or((0, 0), |(kappa, own)| {
                    let chunk = (LEN_BITS as usize + kappa).div_ceil(rounds);
                    let proto = EqProtocol::for_length(chunk);
                    (
                        proto.message_bits(),
                        length_prefixed(&own).len().div_ceil(chunk),
                    )
                })
            })
            .collect();
        let max_covered = sched.iter().map(|&(_, c)| c).max().unwrap_or(0);

        let n = config.node_count();
        let delivery = config.delivery();
        let port_owner = config.port_owner();
        let mut crash_round = vec![usize::MAX; n];
        let mut short_at = vec![usize::MAX; n];
        for (t, &seed) in seeds.iter().enumerate() {
            let mut counts = FaultCounts::default();
            for (v, cr) in crash_round.iter_mut().enumerate() {
                *cr = usize::MAX;
                for r in 0..max_covered {
                    if plan.crash_hazard(seed, v as u64, r as u64) {
                        *cr = r;
                        counts.crashed_nodes += 1;
                        break;
                    }
                }
            }
            let mut missing_messages = 0usize;
            let mut insufficient_nodes = 0usize;
            let mut earliest_missing = usize::MAX;
            let mut max_round_bits = 0usize;
            let mut total_bits = 0usize;
            for (recv_port, &src) in delivery.iter().enumerate() {
                let src = src as usize;
                let sender = port_owner[src] as usize;
                let receiver = port_owner[recv_port] as usize;
                let (bits, covered) = sched[sender];
                for r in 0..covered {
                    if r >= crash_round[sender] {
                        missing_messages += covered - r;
                        if short_at[receiver] != t {
                            short_at[receiver] = t;
                            insufficient_nodes += 1;
                        }
                        earliest_missing = earliest_missing.min(r);
                        break;
                    }
                    let outcome = plan.outcome(seed, r as u64, src as u64);
                    total_bits += bits * outcome.transmissions();
                    let mut round_bits = bits * outcome.transmissions();
                    match outcome {
                        DeliveryOutcome::Intact => {}
                        DeliveryOutcome::Duplicated => counts.duplicated += 1,
                        DeliveryOutcome::Dropped | DeliveryOutcome::Corrupted => {
                            if matches!(outcome, DeliveryOutcome::Dropped) {
                                counts.dropped += 1;
                            } else {
                                counts.corrupted += 1;
                            }
                            let mut delivered = false;
                            for attempt in 0..plan.retry_budget() {
                                counts.retries += 1;
                                total_bits += bits;
                                round_bits += bits;
                                if plan.retry_delivers(seed, r as u64, src as u64, attempt as u64) {
                                    delivered = true;
                                    break;
                                }
                            }
                            if !delivered {
                                missing_messages += 1;
                                if short_at[receiver] != t {
                                    short_at[receiver] = t;
                                    insufficient_nodes += 1;
                                }
                                earliest_missing = earliest_missing.min(r);
                            }
                        }
                    }
                    max_round_bits = max_round_bits.max(round_bits);
                }
            }
            let clean_accepted = clean[t] == NO_REJECT;
            let clean_decided = if clean_accepted { rounds } else { clean[t] };
            let decided_round = if missing_messages > 0 {
                clean_decided.min(earliest_missing + 1)
            } else {
                clean_decided
            };
            emit(RunReport {
                accepted: clean_accepted && missing_messages == 0,
                rounds,
                decided_round,
                max_bits_per_round: max_round_bits,
                total_bits,
                fault: Some(FaultReport {
                    insufficient_nodes,
                    missing_messages,
                    counts,
                }),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine;
    use crate::stats;
    use rpls_graph::{generators, NodeId};

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
            let mut r = BitReader::new(view.label);
            let Ok(claimed) = r.read_u64(64) else {
                return false;
            };
            claimed == view.local.state.id()
                && view
                    .neighbor_labels
                    .iter()
                    .all(|l| BitReader::new(l).read_u64(64).is_ok())
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

        let p = stats::acceptance_probability(&scheme, &config, &labeling, 1000, 17);
        // The corrupted edge check fails with probability > 2/3.
        assert!(p < 1.0 / 3.0 + 0.05, "acceptance = {p}");
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
            assert!(cache.table_slots_reserved() <= PrepCache::TABLE_SLOT_BUDGET);
        }
        // 8 labelings × ~25 Mbit of distinct keys each (labels plus their
        // fingerprinted parts) far exceeds the 64 Mbit budget: the cache
        // must have turned epochs over rather than growing past the cap.
        assert!(cache.retained_key_bits() <= PrepCache::KEY_BITS_BUDGET);
        assert!(cache.epochs() > 0, "overflow must turn an epoch: {cache:?}");
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
        // Floods of tiny distinct labels: the per-entry overhead charge
        // must cap the map at ~KEY_BITS_BUDGET / ENTRY_OVERHEAD_BITS
        // entries per epoch even though the raw key bits alone would
        // admit millions — and overflowing must turn epochs over, after
        // which sharing immediately recovers for fresh candidates.
        let config = Configuration::plain(generators::cycle(3));
        let scheme = CompiledRpls::new(IdLabel);
        let mut cache = PrepCache::new();
        let max_entries = (PrepCache::KEY_BITS_BUDGET / PrepCache::ENTRY_OVERHEAD_BITS) as usize;
        let tiny_labeling = |round: u64| -> Labeling {
            (0..3u64)
                .map(|v| {
                    let mut w = BitWriter::new();
                    w.write_u64(round * 3 + v, 26);
                    w.finish()
                })
                .collect()
        };
        let rounds = max_entries as u64 / 3 + 2000;
        for round in 0..rounds {
            let _ = scheme.prepare_cached(&config, &tiny_labeling(round), 4, &mut cache);
        }
        assert!(
            cache.shared_labels() + cache.shared_fingerprints() <= max_entries,
            "retained {} entries past the overhead bound {max_entries}",
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
