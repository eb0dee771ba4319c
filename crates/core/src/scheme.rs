//! The scheme traits: predicates, provers and verifiers (§2.2).
//!
//! Locality is enforced **by construction**: a verifier receives a view
//! struct that contains exactly what the model allows it to see — its own
//! state, its own label, and (deterministic case) the labels of its
//! neighbors indexed by port, or (randomized case) the certificates
//! received on each port. There is no way to reach the rest of the
//! configuration from inside a verifier.

use crate::buffer::Received;
use crate::labeling::Labeling;
use crate::state::{Configuration, State};
use rand::Rng;
use rpls_bits::{BitSlice, BitString};
use rpls_graph::{NodeId, Port};

/// A boolean predicate over configurations — the property `P` a scheme
/// certifies.
pub trait Predicate {
    /// Human-readable name (used in reports and bench output).
    fn name(&self) -> String;

    /// Whether the configuration satisfies the predicate. This is the
    /// *global* ground truth the distributed verifier is compared against;
    /// it may use unrestricted centralized computation.
    fn holds(&self, config: &Configuration) -> bool;
}

/// Whether a randomized scheme may err on legal instances.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ErrorSides {
    /// Legal configurations are accepted with probability 1; illegal ones
    /// rejected with probability ≥ 1/2 (the paper's `paccept = 1`,
    /// `preject = 1/2`).
    OneSided,
    /// Both sides may err with probability ≤ 1/3 (`paccept = preject =
    /// 2/3`).
    TwoSided,
}

/// What one node can see about itself: its state and its incident edges in
/// port order (weights only — a node does not see who is on the far side).
///
/// Borrowed wholesale from the configuration's precomputed port layout, so
/// building one is allocation-free.
#[derive(Debug, Clone)]
pub struct LocalContext<'a> {
    /// The node's structural index (not visible to real verifiers as an
    /// identity — use `state.id()` for that — but needed to index
    /// engine-side bookkeeping).
    pub node: NodeId,
    /// The node's state: identity and payload.
    pub state: &'a State,
    /// Weight of the incident edge at each port (`incident_weights[p]` for
    /// port rank `p`), `None` on unweighted graphs.
    pub incident_weights: &'a [Option<u64>],
}

impl LocalContext<'_> {
    /// The node's degree.
    #[must_use]
    pub fn degree(&self) -> usize {
        self.incident_weights.len()
    }
}

/// The verifier input of a deterministic scheme at one node: local context,
/// own label, neighbor labels by port.
///
/// Labels are [`BitSlice`]s borrowed wherever they live: the [`Labeling`],
/// the round's certificate arena, or (under the Theorem 3.1 compiler,
/// where neighbor labels are adversarial claimed copies) a replicated
/// label. Decode one with
/// [`BitReader::from_slice`](rpls_bits::BitReader::from_slice), treating
/// every read as fallible.
#[derive(Debug, Clone)]
pub struct DetView<'a> {
    /// The node's local context.
    pub local: LocalContext<'a>,
    /// The label assigned to this node.
    pub label: BitSlice<'a>,
    /// `neighbor_labels[p]` is the label of the neighbor reached through
    /// port rank `p`.
    pub neighbor_labels: Vec<BitSlice<'a>>,
}

/// A deterministic proof-labeling scheme: a prover assigning labels on legal
/// configurations and a local verifier.
///
/// Correctness contract (checked by the test suites, not the type system):
///
/// * if `P(G_s)` holds, the labels returned by [`Pls::label`] make
///   [`Pls::verify`] return `true` at every node;
/// * if `P(G_s)` fails, **every** label assignment leaves at least one node
///   returning `false`.
pub trait Pls {
    /// Scheme name for reports.
    fn name(&self) -> String;

    /// The prover: labels for a configuration satisfying the predicate.
    /// Behaviour on illegal configurations is unspecified (the paper's
    /// prover is only defined on yes-instances).
    fn label(&self, config: &Configuration) -> Labeling;

    /// The verifier at one node. Labels may be adversarial (see
    /// [`DetView`] for decoding them): a malformed one rejects, never
    /// panics.
    fn verify(&self, view: &DetView<'_>) -> bool;
}

/// The certificate-generation input of a randomized scheme at one node.
#[derive(Debug, Clone)]
pub struct CertView<'a> {
    /// The node's local context.
    pub local: LocalContext<'a>,
    /// The label assigned to this node.
    pub label: &'a BitString,
}

/// The verifier input of a randomized scheme at one node: local context, own
/// label and the certificates received on each port.
#[derive(Debug, Clone)]
pub struct RandView<'a> {
    /// The node's local context.
    pub local: LocalContext<'a>,
    /// The label assigned to this node.
    pub label: &'a BitString,
    /// `received.get(p)` is the certificate that arrived through port rank
    /// `p` (generated by the far endpoint for its own port of the same
    /// edge), viewed in place inside the round's certificate arena.
    pub received: Received<'a>,
}

/// A randomized proof-labeling scheme (§2.2).
///
/// Only certificates travel; labels stay put. The engine calls
/// [`Rpls::certify`] once per (node, port) with an independent random
/// stream, so every implementation of this trait is *edge-independent* in
/// the sense of Definition 4.5. (The deliberately-violating shared-stream
/// mode lives in the engine, not here.)
pub trait Rpls {
    /// Scheme name for reports.
    fn name(&self) -> String;

    /// Which error model the scheme promises.
    fn error_sides(&self) -> ErrorSides {
        ErrorSides::OneSided
    }

    /// The prover: labels for a legal configuration.
    fn label(&self, config: &Configuration) -> Labeling;

    /// Generates the certificate this node sends through `port`, from its
    /// label and private randomness.
    ///
    /// The engine hands each call an independent stream (a cheap
    /// counter-based [`PortRng`](crate::rng::PortRng) in the hot path; any
    /// [`Rng`] works), so implementations are *edge-independent* by
    /// construction.
    fn certify(&self, view: &CertView<'_>, port: Port, rng: &mut dyn Rng) -> BitString;

    /// Like [`Rpls::certify`] but writes into a caller-provided buffer so
    /// repeated rounds can reuse its allocation. The default delegates to
    /// [`Rpls::certify`]; schemes on hot paths should override it to write
    /// via [`BitString::push`]/[`BitString::push_u64`] after
    /// [`BitString::clear`].
    fn certify_into(
        &self,
        view: &CertView<'_>,
        port: Port,
        rng: &mut dyn Rng,
        out: &mut BitString,
    ) {
        *out = self.certify(view, port, rng);
    }

    /// The verifier at one node, after certificate delivery.
    fn verify(&self, view: &RandView<'_>) -> bool;

    /// Binds the scheme to one `(configuration, labeling)` pair for many
    /// verification rounds, hoisting per-labeling work (label parsing,
    /// fingerprint polynomial construction, …) out of the per-round loop.
    ///
    /// `rounds_hint` is the number of rounds the caller expects to run
    /// against this labeling (the Monte-Carlo trial count); implementations
    /// may use it to size precomputation but must not change *behaviour*
    /// based on it. The default preparation routes every call through
    /// [`Rpls::certify_into`] / [`Rpls::verify`] unchanged, so overriding
    /// is purely a performance decision — see
    /// [`CompiledRpls`](crate::compiler::CompiledRpls) for the flagship
    /// override.
    ///
    /// # Panics
    ///
    /// Panics if `labeling` does not assign exactly one label per node.
    fn prepare<'a>(
        &'a self,
        config: &'a Configuration,
        labeling: &'a Labeling,
        rounds_hint: usize,
    ) -> Box<dyn PreparedRpls + 'a> {
        let _ = rounds_hint;
        Box::new(Unprepared::new(self, config, labeling))
    }

    /// Like [`Rpls::prepare`], but allowed to reuse (and extend) state in a
    /// caller-owned [`PrepCache`](crate::prep::PrepCache) that outlives
    /// this call — the entry point every sweep-shaped workload (acceptance
    /// estimates over many candidate labelings, complexity measurements
    /// over many configurations) funnels through, so preparation cost
    /// amortises across verification instances instead of recurring per
    /// labeling.
    ///
    /// The returned instance must be **transcript-identical** to
    /// [`Rpls::prepare`] on the same inputs, whatever the cache contains:
    /// cached state may only ever change *when* work happens, never what
    /// is computed (`tests/engine_golden.rs` pins this). The default
    /// ignores the cache and delegates to [`Rpls::prepare`]; see
    /// [`CompiledRpls`](crate::compiler::CompiledRpls) for the flagship
    /// override, which shares fingerprint preparations and parsed
    /// replicated labels across labelings.
    ///
    /// # Panics
    ///
    /// Panics if `labeling` does not assign exactly one label per node.
    fn prepare_cached<'a>(
        &'a self,
        config: &'a Configuration,
        labeling: &'a Labeling,
        rounds_hint: usize,
        cache: &mut crate::prep::PrepCache,
    ) -> Box<dyn PreparedRpls + 'a> {
        let _ = cache;
        self.prepare(config, labeling, rounds_hint)
    }
}

/// A randomized scheme bound to one `(configuration, labeling)` pair — the
/// output of [`Rpls::prepare`], executed by
/// [`engine::run_prepared`](crate::engine::run_prepared) /
/// [`engine::run_trials`](crate::engine::run_trials) and every Monte-Carlo
/// estimator in [`stats`](crate::stats) and [`measure`](crate::measure).
///
/// Implementations must be **transcript-identical** to the unprepared
/// scheme they came from: for any `(node, port)` and any random stream,
/// [`PreparedRpls::certify_into`] writes exactly the bits
/// [`Rpls::certify_into`] writes while consuming exactly the same
/// randomness, and [`PreparedRpls::verify`] returns exactly what
/// [`Rpls::verify`] returns for the same delivered certificates. The
/// golden tests in `tests/engine_golden.rs` pin this for the schemes that
/// override [`Rpls::prepare`].
pub trait PreparedRpls {
    /// Generates the certificate `node` sends through `port` — the
    /// prepared counterpart of [`Rpls::certify_into`].
    fn certify_into(&self, node: NodeId, port: Port, rng: &mut dyn Rng, out: &mut BitString);

    /// The verifier at `node` after certificate delivery — the prepared
    /// counterpart of [`Rpls::verify`]. `received` must come from a round
    /// executed against the same configuration and labeling this instance
    /// was prepared for.
    fn verify(&self, node: NodeId, received: &Received<'_>) -> bool;

    /// Runs one trial of `spec` per seed in `seeds` — the one trial hook
    /// behind [`engine::run_trials`](crate::engine::run_trials), which every
    /// Monte-Carlo estimator drives. `spec.seed_source` is ignored: `seeds`
    /// are the per-trial seeds.
    ///
    /// Implementations must call `emit` exactly once per seed, in seed
    /// order. The default is the engine's scalar reference (certificate
    /// generation into the arena, then delivery and verification, with
    /// `rounds ≥ 2` run as the certificate-splitting schedule). Overrides
    /// are a performance decision: they may batch trials node-at-a-time
    /// and skip certificate materialisation, but one-round reports must be
    /// **bit-identical** to the default's (the golden tests pin this for
    /// every scheme). A schedule of `rounds ≥ 2` may re-time and
    /// re-randomise the protocol — [`CompiledRpls`](crate::compiler::CompiledRpls)
    /// streams one fresh fingerprint of each κ/t-bit label slice per
    /// round, rejecting early — but must preserve perfect completeness and
    /// the scheme's soundness bound.
    fn run_block(
        &self,
        spec: &crate::engine::RunSpec,
        config: &Configuration,
        seeds: &[u64],
        scratch: &mut crate::buffer::RoundScratch,
        emit: &mut dyn FnMut(crate::engine::RunReport),
    ) {
        crate::engine::scalar_block(spec, self, config, seeds, scratch, emit);
    }

    /// Closed-form communication accounting for this prepared instance
    /// under `pattern` over a `rounds`-round schedule, when the scheme can
    /// compute it without running a round — `(messages, bits-per-round,
    /// total bits)` as a [`PatternCost`](crate::engine::PatternCost).
    ///
    /// The scalar engine uses this, when `Some`, to report pattern-adjusted
    /// bit accounting that is independent of which execution layer ran
    /// (scalar or batched); `None` — the default — falls back to
    /// transcript-derived per-slot accounting. Only patterns whose
    /// *transcript* matches the per-port one but whose *cost model* differs
    /// (notably [`Unicast`](crate::engine::MessagePattern::Unicast) for
    /// compiled schemes, where Filtser–Fischer-style shared randomness
    /// halves the accounted message width) need this hook; returning
    /// `None` is always sound.
    fn pattern_cost(
        &self,
        pattern: crate::engine::MessagePattern,
        rounds: usize,
    ) -> Option<crate::engine::PatternCost> {
        let _ = (pattern, rounds);
        None
    }
}

/// A scheme bound to one `(configuration, labeling)` pair with no
/// precomputation: every call is routed through [`Rpls::certify_into`] /
/// [`Rpls::verify`], so labels are re-parsed every round. This is the
/// default [`Rpls::prepare`], and the engine's layer-1 reference path:
///
/// ```
/// use rpls_core::prelude::*;
/// use rpls_graph::generators;
///
/// struct Empty;
/// impl Pls for Empty {
///     fn name(&self) -> String { "empty".into() }
///     fn label(&self, c: &Configuration) -> Labeling { Labeling::empty(c.node_count()) }
///     fn verify(&self, view: &DetView<'_>) -> bool { view.label.is_empty() }
/// }
///
/// let config = Configuration::plain(generators::cycle(5));
/// let scheme = CompiledRpls::new(Empty);
/// let labeling = Rpls::label(&scheme, &config);
/// let unprepared = Unprepared::new(&scheme, &config, &labeling);
/// let report = engine::run_prepared(
///     &RunSpec::trial(3), &unprepared, &config, &mut RoundScratch::new());
/// assert!(report.accepted);
/// ```
pub struct Unprepared<'a, S: ?Sized> {
    scheme: &'a S,
    config: &'a Configuration,
    labeling: &'a Labeling,
}

impl<'a, S: Rpls + ?Sized> Unprepared<'a, S> {
    /// Binds `scheme` to `(config, labeling)`.
    ///
    /// # Panics
    ///
    /// Panics if `labeling` does not assign exactly one label per node.
    #[must_use]
    pub fn new(scheme: &'a S, config: &'a Configuration, labeling: &'a Labeling) -> Self {
        assert_eq!(
            labeling.len(),
            config.node_count(),
            "one label per node required"
        );
        Self {
            scheme,
            config,
            labeling,
        }
    }
}

impl<S: Rpls + ?Sized> PreparedRpls for Unprepared<'_, S> {
    fn certify_into(&self, node: NodeId, port: Port, rng: &mut dyn Rng, out: &mut BitString) {
        let view = CertView {
            local: crate::engine::local_context(self.config, node),
            label: self.labeling.get(node),
        };
        self.scheme.certify_into(&view, port, rng, out);
    }

    fn verify(&self, node: NodeId, received: &Received<'_>) -> bool {
        let view = RandView {
            local: crate::engine::local_context(self.config, node),
            label: self.labeling.get(node),
            received: *received,
        };
        self.scheme.verify(&view)
    }
}

/// The trivial embedding of a deterministic scheme into the randomized
/// model: the certificate **is** the label.
///
/// This is the baseline every compiled scheme is compared against — it
/// exchanges κ bits where the Theorem 3.1 compilation exchanges `O(log κ)`.
#[derive(Debug, Clone)]
pub struct ExchangeLabels<S> {
    inner: S,
}

impl<S: Pls> ExchangeLabels<S> {
    /// Wraps a deterministic scheme.
    #[must_use]
    pub fn new(inner: S) -> Self {
        Self { inner }
    }

    /// The wrapped scheme.
    #[must_use]
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// The inner verifier on a node's own label and its neighbors'
    /// certificates, read in place.
    fn verdict<'a>(
        &self,
        local: LocalContext<'a>,
        label: &'a BitString,
        certificates: impl Iterator<Item = BitSlice<'a>>,
    ) -> bool {
        self.inner.verify(&DetView {
            local,
            label: label.as_slice(),
            neighbor_labels: certificates.collect(),
        })
    }
}

impl<S: Pls> Rpls for ExchangeLabels<S> {
    fn name(&self) -> String {
        format!("exchange-labels({})", self.inner.name())
    }

    fn error_sides(&self) -> ErrorSides {
        ErrorSides::OneSided
    }

    fn label(&self, config: &Configuration) -> Labeling {
        self.inner.label(config)
    }

    fn certify(&self, view: &CertView<'_>, _port: Port, _rng: &mut dyn Rng) -> BitString {
        view.label.clone()
    }

    fn certify_into(
        &self,
        view: &CertView<'_>,
        _port: Port,
        _rng: &mut dyn Rng,
        out: &mut BitString,
    ) {
        out.clear();
        out.extend_from_bitstring(view.label);
    }

    fn verify(&self, view: &RandView<'_>) -> bool {
        self.verdict(view.local.clone(), view.label, view.received.iter())
    }

    fn prepare<'a>(
        &'a self,
        config: &'a Configuration,
        labeling: &'a Labeling,
        _rounds_hint: usize,
    ) -> Box<dyn PreparedRpls + 'a> {
        assert_eq!(
            labeling.len(),
            config.node_count(),
            "one label per node required"
        );
        // Certification is deterministic (the certificate *is* the label),
        // so when the delivered certificates are the neighbor labels —
        // always the case for rounds this prepared instance certifies —
        // the verdict is a pure function of the labeling: compute it once
        // instead of re-running the inner verifier every round.
        let g = config.graph();
        let votes: Vec<bool> = g
            .nodes()
            .map(|v| {
                let local = crate::engine::local_context(config, v);
                let neighbors = g.neighbors(v).map(|nb| labeling.get(nb.node).as_slice());
                self.verdict(local, labeling.get(v), neighbors)
            })
            .collect();
        Box::new(PreparedExchange {
            scheme: self,
            config,
            labeling,
            votes,
        })
    }
}

/// The prepared form of [`ExchangeLabels`]: certificates copied straight
/// from the labeling, verdicts precomputed (they do not depend on the
/// round's randomness) behind a delivered-matches-labeling check.
struct PreparedExchange<'a, S> {
    scheme: &'a ExchangeLabels<S>,
    config: &'a Configuration,
    labeling: &'a Labeling,
    votes: Vec<bool>,
}

impl<S: Pls> PreparedRpls for PreparedExchange<'_, S> {
    fn certify_into(&self, node: NodeId, _port: Port, _rng: &mut dyn Rng, out: &mut BitString) {
        out.clear();
        out.extend_from_bitstring(self.labeling.get(node));
    }

    fn verify(&self, node: NodeId, received: &Received<'_>) -> bool {
        // Fast path: the delivered certificates are bit-identical to the
        // neighbor labels (always true when this instance generated them),
        // so the precomputed verdict applies. A cheap bit compare per port
        // keeps the contract honest for wrappers that mangle certificates
        // in between — those fall through to the exact unprepared logic.
        let g = self.config.graph();
        let delivered_matches_labeling = received.len() == g.degree(node)
            && g.neighbors(node)
                .enumerate()
                .all(|(p, nb)| received.get(p) == *self.labeling.get(nb.node));
        if delivered_matches_labeling {
            return self.votes[node.index()];
        }
        let local = crate::engine::local_context(self.config, node);
        self.scheme
            .verdict(local, self.labeling.get(node), received.iter())
    }
}

/// A closure-based predicate, convenient for tests and experiments.
pub struct FnPredicate<F> {
    name: String,
    f: F,
}

impl<F: Fn(&Configuration) -> bool> FnPredicate<F> {
    /// Wraps a closure as a predicate.
    pub fn new(name: impl Into<String>, f: F) -> Self {
        Self {
            name: name.into(),
            f,
        }
    }
}

impl<F: Fn(&Configuration) -> bool> Predicate for FnPredicate<F> {
    fn name(&self) -> String {
        self.name.clone()
    }

    fn holds(&self, config: &Configuration) -> bool {
        (self.f)(config)
    }
}

impl<F: Fn(&Configuration) -> bool> std::fmt::Debug for FnPredicate<F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "FnPredicate({})", self.name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpls_graph::generators;

    /// A toy scheme for exercising the ExchangeLabels baseline: accepts iff
    /// every neighbor label equals the node's own.
    struct Agree;

    impl Pls for Agree {
        fn name(&self) -> String {
            "agree".into()
        }
        fn label(&self, config: &Configuration) -> Labeling {
            Labeling::new(vec![BitString::from_bools([true]); config.node_count()])
        }
        fn verify(&self, view: &DetView<'_>) -> bool {
            view.neighbor_labels.iter().all(|l| *l == view.label)
        }
    }

    #[test]
    fn exchange_labels_certificate_is_the_label() {
        use crate::engine;
        let config = Configuration::plain(generators::cycle(5));
        let wrapped = ExchangeLabels::new(Agree);
        assert!(wrapped.name().contains("agree"));
        assert_eq!(wrapped.error_sides(), ErrorSides::OneSided);
        let labels = wrapped.label(&config);
        let rec = engine::run_randomized(&wrapped, &config, &labels, 0);
        assert!(rec.outcome.accepted());
        // Every certificate equals the sender's label, byte for byte.
        for (v, ports) in rec.certificates.iter().enumerate() {
            for cert in ports {
                assert_eq!(cert, labels.get(NodeId::new(v)));
            }
        }
        assert_eq!(rec.max_certificate_bits(), labels.max_bits());
        assert_eq!(wrapped.inner().name(), "agree");
    }

    #[test]
    fn exchange_labels_matches_deterministic_verdict() {
        use crate::engine;
        let config = Configuration::plain(generators::path(4));
        let wrapped = ExchangeLabels::new(Agree);
        // An inconsistent labeling: both runs must reject identically.
        let mut labels = wrapped.label(&config);
        labels.set(NodeId::new(1), BitString::zeros(1));
        let det = engine::run_deterministic(&Agree, &config, &labels);
        let rnd = engine::run_randomized(&wrapped, &config, &labels, 9);
        assert_eq!(det.votes(), rnd.outcome.votes());
        assert!(!rnd.outcome.accepted());
    }

    #[test]
    fn fn_predicate_evaluates_closure() {
        let p = FnPredicate::new("even-n", |c: &Configuration| {
            c.node_count().is_multiple_of(2)
        });
        assert_eq!(p.name(), "even-n");
        assert!(p.holds(&Configuration::plain(generators::cycle(4))));
        assert!(!p.holds(&Configuration::plain(generators::cycle(5))));
    }

    #[test]
    fn local_context_reports_degree() {
        let ctx = LocalContext {
            node: NodeId::new(0),
            state: &State::with_id(0),
            incident_weights: &[None, None, None],
        };
        assert_eq!(ctx.degree(), 3);
    }
}
