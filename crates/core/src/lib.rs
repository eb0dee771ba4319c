//! The proof-labeling scheme framework of *Randomized Proof-Labeling
//! Schemes* (Baruch, Fraigniaud, Patt-Shamir, PODC 2015).
//!
//! This crate implements §2 (model), §3 (the relation between deterministic
//! and randomized schemes) and the measurement machinery the experiments
//! need:
//!
//! * [`state`] — node states and [`Configuration`]s `G_s` (§2.1);
//! * [`scheme`] — the [`Pls`] and [`Rpls`] traits: prover, verifier, and
//!   the strictly local views they are allowed to see (§2.2);
//! * [`engine`] — the synchronous execution: label exchange for
//!   deterministic schemes, certificate generation with per-(node, port)
//!   independent randomness (edge-independent by construction,
//!   Definition 4.5) and delivery for randomized ones. One
//!   [`RunSpec`](engine::RunSpec) names every job — including the
//!   **t-round trade-off schedules** that verify a proof of size κ over
//!   `t` rounds at ≈ κ/t bits per round per edge — and one
//!   [`RunReport`](engine::RunReport) comes back per trial;
//! * [`compiler`] — **Theorem 3.1**: any deterministic scheme with
//!   verification complexity κ compiles into a one-sided randomized scheme
//!   exchanging `O(log κ)` bits, via the Lemma A.1 equality protocol;
//! * [`universal`] — **Lemma 3.3** (the universal deterministic scheme on
//!   `O(min(n², m log n) + nk)` bits) and **Corollary 3.4** (its compilation
//!   to `O(log n + log k)`-bit certificates);
//! * [`buffer`] — the flat certificate arena ([`CertificateBuffer`]) and
//!   reusable [`RoundScratch`] the high-throughput round loop runs on;
//! * [`rng`] — counter-based per-(node, port) random streams
//!   ([`PortRng`]), cheap enough to key one per directed edge per round;
//! * [`stats`] — Monte-Carlo acceptance estimation, serial and (feature
//!   `parallel`) thread-sharded; each estimate also carries the
//!   rounds-to-reject histogram, and the footnote-1 majority boosting is
//!   a tally over one estimate's trials;
//! * [`measure`] — verification complexity (Definition 2.1) measured in
//!   exact bits;
//! * [`prep`] — the cross-labeling [`PrepCache`] that amortises compiled
//!   preparation (parsed labels, shared fingerprints, lazy GF(p) tables)
//!   across the labelings of a sweep;
//! * [`adversary`] — label forgers used to probe soundness: exhaustive for
//!   tiny label spaces, randomized hill-climbing otherwise;
//! * [`fault`] — deterministic, seed-replayable fault injection
//!   (lossy/corrupting channels, duplication, crash-stop nodes) with
//!   graceful-degradation semantics: a node missing input rejects
//!   conservatively, so faults can degrade completeness but never break
//!   the one-sided soundness; a transparent plan is bit-identical to the
//!   clean engine;
//! * [`local_decision`] — the label-free `LD(t)` baseline of
//!   Fraigniaud–Korman–Peleg (radius-t ball inspection), implemented so the
//!   repository can show what proof labels buy over plain local decision.
//!
//! # The verification pipeline
//!
//! Every estimate this crate produces — acceptance probabilities,
//! verification complexities, adversary sweeps — is Monte-Carlo over
//! [`RunSpec`](engine::RunSpec) trials, and the engine runs a spec at four
//! layers that trade generality for throughput. All four are
//! **bit-identical** on the same inputs (`tests/engine_golden.rs` pins
//! it); each layer only moves work, never results:
//!
//! 1. **Unprepared** — [`Unprepared`] routes every (node, port) straight
//!    through [`Rpls::certify_into`] / [`Rpls::verify`] under
//!    [`engine::run_prepared`]. No setup, full per-round cost: labels are
//!    re-parsed and fingerprint polynomials rebuilt every round.
//! 2. **Prepared** — [`Rpls::prepare`] binds the scheme to one
//!    `(configuration, labeling)` pair and hoists per-labeling work out
//!    of the loop; [`engine::run_prepared`] then runs single trials at one
//!    random field element plus one polynomial probe per (node, port) for
//!    the compiled schemes.
//! 3. **Batched** — [`engine::run_trials`] hands whole blocks of
//!    per-trial seeds to [`PreparedRpls::run_block`]; [`CompiledRpls`]
//!    answers with a labeling-static plan per schedule length that
//!    classifies nodes (reject at a fixed round / static-pass / dynamic),
//!    drops statically satisfied probes, skips already-rejected trials,
//!    and never materialises a certificate.
//! 4. **Cached** — [`Rpls::prepare_cached`] reuses a content-keyed
//!    [`PrepCache`] *across* labelings, so a sweep
//!    ([`stats::estimate_with`] over an adversary's forged candidates, a
//!    configuration scan) re-prepares only the labels that actually
//!    changed.
//!
//! The **t-round trade-off** is one more spec field: any scheme verifies
//! in `t` rounds (certificates split into `t` chunks, ≈ κ/t bits per
//! round) on every layer, and [`CompiledRpls`] streams one fingerprint of
//! each κ/t-bit label slice per round with early rejection.
//!
//! ```
//! use rpls_core::prelude::*;
//! use rpls_graph::generators;
//!
//! // A toy deterministic scheme: every node must carry an empty label.
//! struct Empty;
//! impl Pls for Empty {
//!     fn name(&self) -> String { "empty".into() }
//!     fn label(&self, c: &Configuration) -> Labeling { Labeling::empty(c.node_count()) }
//!     fn verify(&self, view: &DetView<'_>) -> bool { view.label.is_empty() }
//! }
//!
//! let config = Configuration::plain(generators::cycle(6));
//! let scheme = CompiledRpls::new(Empty); // Theorem 3.1 compilation
//! let labeling = Rpls::label(&scheme, &config);
//! let spec = RunSpec::trial(7);
//! let mut scratch = RoundScratch::new();
//!
//! // Layer 1: unprepared single trial.
//! let unprepared = Unprepared::new(&scheme, &config, &labeling);
//! let one = engine::run_prepared(&spec, &unprepared, &config, &mut scratch);
//! assert!(one.accepted);
//!
//! // Layer 2: prepared single trial — bit-identical.
//! let prepared = scheme.prepare(&config, &labeling, 100);
//! let two = engine::run_prepared(&spec, &*prepared, &config, &mut scratch);
//! assert_eq!(one, two);
//!
//! // Layer 3: batched trials — same reports, whole blocks at a time.
//! let mut batched = Vec::new();
//! engine::run_trials(&spec, &*prepared, &config, &[7, 8], &mut scratch, &mut |r| batched.push(r));
//! assert_eq!(batched[0], one);
//!
//! // Layer 4: cached preparation across a sweep — same estimates.
//! let mut cache = PrepCache::new();
//! let opts = stats::EstimateOpts::new(50);
//! let est = stats::estimate_with(
//!     &scheme, &config, &labeling, &spec, &opts, &mut scratch, &mut cache);
//! assert_eq!(est.acceptance(), 1.0);
//!
//! // The t-round trade-off rides the same prepared instance: 4 rounds,
//! // ≤ the one-round bits per round, same verdict.
//! let multi = engine::run_prepared(&spec.with_rounds(4), &*prepared, &config, &mut scratch);
//! assert!(multi.accepted);
//! assert!(multi.max_bits_per_round <= one.max_bits_per_round);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adversary;
pub mod buffer;
pub mod compiler;
pub mod engine;
pub mod fault;
pub mod labeling;
pub mod local_decision;
pub mod measure;
pub mod prep;
pub mod rng;
pub mod scheme;
pub mod state;
pub mod stats;
pub mod universal;

pub use buffer::{CertificateBuffer, Received, RoundScratch};
pub use compiler::{CompiledRpls, ProbeSketch};
pub use fault::{DegradedSummary, DeliveryOutcome, FaultCounts, FaultPlan, FaultSpec, NodeVerdict};
pub use labeling::Labeling;
pub use prep::{CacheStats, PrepCache};
pub use rng::PortRng;
pub use scheme::{
    CertView, DetView, ErrorSides, Pls, Predicate, PreparedRpls, RandView, Rpls, Unprepared,
};
pub use state::{Configuration, DegreeBuckets, State};
pub use universal::{UniversalPls, UniversalRpls};

/// Convenient glob-import surface: `use rpls_core::prelude::*;`.
pub mod prelude {
    pub use crate::buffer::{CertificateBuffer, Received, RoundScratch};
    pub use crate::compiler::{CompiledRpls, ProbeSketch};
    pub use crate::engine::{
        self, FaultReport, MessagePattern, Outcome, PatternCost, RunReport, RunSpec, SeedSource,
        StreamMode,
    };
    pub use crate::fault::{
        DegradedSummary, DeliveryOutcome, FaultCounts, FaultPlan, FaultSpec, NodeVerdict,
    };
    pub use crate::labeling::Labeling;
    pub use crate::measure;
    pub use crate::prep::{CacheStats, PrepCache};
    pub use crate::rng::PortRng;
    pub use crate::scheme::{
        CertView, DetView, ErrorSides, Pls, Predicate, PreparedRpls, RandView, Rpls, Unprepared,
    };
    pub use crate::state::{Configuration, State};
    pub use crate::stats;
    pub use crate::universal::{UniversalPls, UniversalRpls};
}
