//! Deterministic, seed-replayable fault injection for the verification
//! engine: lossy and corrupting channels, message duplication, crash-stop
//! nodes, and the per-node degradation summary of a faulted trial.
//!
//! # Fault model
//!
//! A [`FaultSpec`] names per-message and per-node hazard rates; a
//! [`FaultPlan`] binds the spec to a SplitMix64 *fault seed* and turns it
//! into a **pure function** from `(trial seed, round, directed edge)` to a
//! [`DeliveryOutcome`] — the same counter-based derivation the engine's
//! certificate streams use ([`mix_seed`] /
//! [`state_stream_word`]), so any fault
//! schedule replays bit-identically from the same `(seed, fault seed)`
//! pair with no generator state to thread.
//!
//! The transport is assumed integrity-checked: a message whose bits were
//! corrupted in flight is *detected* and discarded by the receiver, so
//! corruption and loss both degrade to a **missing** message (omission
//! faults). This is the standard reduction — and it is what keeps the
//! paper's one-sided error intact, because a verifier never acts on
//! adversarially flipped fingerprint bits (which could otherwise collide
//! and turn a reject into an accept). A *duplicated* message is delivered
//! intact (verification is idempotent) but pays its wire bits twice. A
//! **crash-stop** node stops sending from its crash round on; everything
//! it would have sent is missing at the receivers.
//!
//! # Degradation semantics
//!
//! A node missing one or more of its incident messages cannot run its
//! verifier soundly, so it votes [`NodeVerdict::InsufficientInput`] —
//! which *rejects* conservatively. Faults therefore only ever flip
//! accept → reject, never reject → accept:
//!
//! * **Soundness is preserved** under every fault rate up to 1.0: if the
//!   fault-free engine rejects a configuration, the faulted engine rejects
//!   it too (each node's verdict is either its fault-free vote or the
//!   rejecting `InsufficientInput`).
//! * **Completeness degrades gracefully**: an honest labeling is accepted
//!   exactly when every message survives, and [`DegradedSummary`] reports
//!   per-node missing-message counts so callers can see *why* a trial
//!   degraded. The multiround engine can buy completeness back with a
//!   bounded retry budget for lossy links ([`FaultSpec::with_retry_budget`]).
//!
//! A spec whose rates are all zero is *transparent*
//! ([`FaultPlan::is_transparent`]): a faulted run under it takes the exact
//! fault-free code path, so zero-fault runs are bit-identical to the
//! unfaulted engine — reports, estimates and randomness consumption alike
//! (`tests/fault_injection.rs` pins this).

use crate::engine::{FaultReport, RunReport};
use crate::rng::{mix_seed, state_stream_word};

/// Seed-derivation tag of per-message delivery words, chosen to collide
/// with neither the estimator tags in [`stats`](crate::stats) nor the
/// engine's multiround tag.
const TAG_FAULT_MSG: u64 = 0x666D_7367; // "fmsg"
/// Seed-derivation tag of per-(node, round) crash-hazard words.
const TAG_FAULT_CRASH: u64 = 0x6372617368; // "crash"
/// Seed-derivation tag of per-attempt retry words.
const TAG_FAULT_RETRY: u64 = 0x7265747279; // "retry"

/// 2⁶⁴ as an `f64`, the scale mapping a probability to a 64-bit threshold.
const TWO_64: f64 = 18_446_744_073_709_551_616.0;

/// Per-message and per-node hazard rates of a fault environment, plus the
/// multiround retry budget. All rates are probabilities in `[0, 1]`.
///
/// Build one with the `with_*` combinators:
///
/// ```
/// use rpls_core::fault::FaultSpec;
///
/// let spec = FaultSpec::default().with_drop(0.1).with_crash(0.01);
/// assert!(!spec.is_transparent());
/// assert!(FaultSpec::default().is_transparent());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FaultSpec {
    drop_rate: f64,
    corrupt_rate: f64,
    duplicate_rate: f64,
    crash_rate: f64,
    retry_budget: usize,
}

/// Validates one rate argument.
fn check_rate(rate: f64, what: &str) {
    assert!(
        rate.is_finite() && (0.0..=1.0).contains(&rate),
        "{what} rate must be a probability in [0, 1], got {rate}"
    );
}

impl FaultSpec {
    /// The spec with every hazard at rate `0` — the transparent
    /// environment whose faulted runs are bit-identical to the fault-free
    /// engine.
    #[must_use]
    pub fn transparent() -> Self {
        Self::default()
    }

    /// Sets the per-message drop probability.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not a probability in `[0, 1]`.
    #[must_use]
    pub fn with_drop(mut self, rate: f64) -> Self {
        check_rate(rate, "drop");
        self.drop_rate = rate;
        self
    }

    /// Sets the per-message bit-corruption probability. Corrupted messages
    /// are detected by the integrity-checked transport and discarded, so
    /// they degrade to missing messages (see the module docs).
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not a probability in `[0, 1]`.
    #[must_use]
    pub fn with_corrupt(mut self, rate: f64) -> Self {
        check_rate(rate, "corrupt");
        self.corrupt_rate = rate;
        self
    }

    /// Sets the per-message duplication probability. A duplicated message
    /// is delivered intact (verification is idempotent) but its wire bits
    /// are counted twice.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not a probability in `[0, 1]`.
    #[must_use]
    pub fn with_duplicate(mut self, rate: f64) -> Self {
        check_rate(rate, "duplicate");
        self.duplicate_rate = rate;
        self
    }

    /// Sets the per-(node, round) crash-stop hazard. A node whose hazard
    /// fires in round `r` sends nothing from round `r` on (crash-stop, no
    /// recovery within a trial).
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not a probability in `[0, 1]`.
    #[must_use]
    pub fn with_crash(mut self, rate: f64) -> Self {
        check_rate(rate, "crash");
        self.crash_rate = rate;
        self
    }

    /// Sets the multiround retry budget: how many times a sender re-sends
    /// a chunk whose delivery failed (dropped or corrupted) within the same
    /// round. Each attempt pays the chunk's bits again; crashed senders
    /// never retry. Retries apply only to schedules of two or more rounds:
    /// a one-round run is single-shot delivery and ignores the budget.
    #[must_use]
    pub fn with_retry_budget(mut self, budget: usize) -> Self {
        self.retry_budget = budget;
        self
    }

    /// Per-message drop probability.
    #[must_use]
    pub fn drop_rate(&self) -> f64 {
        self.drop_rate
    }

    /// Per-message corruption probability.
    #[must_use]
    pub fn corrupt_rate(&self) -> f64 {
        self.corrupt_rate
    }

    /// Per-message duplication probability.
    #[must_use]
    pub fn duplicate_rate(&self) -> f64 {
        self.duplicate_rate
    }

    /// Per-(node, round) crash-stop hazard.
    #[must_use]
    pub fn crash_rate(&self) -> f64 {
        self.crash_rate
    }

    /// Multiround retry budget per failed chunk.
    #[must_use]
    pub fn retry_budget(&self) -> usize {
        self.retry_budget
    }

    /// Whether every hazard rate is zero — the environment in which the
    /// faulted engine paths are bit-identical to the fault-free ones (the
    /// retry budget is irrelevant when nothing ever fails).
    #[must_use]
    pub fn is_transparent(&self) -> bool {
        self.drop_rate == 0.0
            && self.corrupt_rate == 0.0
            && self.duplicate_rate == 0.0
            && self.crash_rate == 0.0
    }
}

/// What happened to one message on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeliveryOutcome {
    /// Delivered exactly as sent.
    Intact,
    /// Delivered intact, twice — the receiver ignores the copy, but the
    /// wire carried the bits twice.
    Duplicated,
    /// Lost in transit; the receiver sees nothing.
    Dropped,
    /// Bits flipped in transit; the integrity-checked transport detects
    /// and discards it, so the receiver sees nothing (see module docs for
    /// why corruption must not be delivered).
    Corrupted,
}

impl DeliveryOutcome {
    /// Whether the receiver sees the message content.
    #[must_use]
    pub fn delivered(self) -> bool {
        matches!(self, Self::Intact | Self::Duplicated)
    }

    /// How many times the message's bits crossed the wire.
    #[must_use]
    pub fn transmissions(self) -> usize {
        match self {
            Self::Duplicated => 2,
            _ => 1,
        }
    }
}

/// The three-valued per-node verdict of a faulted verification round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeVerdict {
    /// All incident messages arrived and the verifier accepted.
    Accept,
    /// All incident messages arrived and the verifier rejected.
    Reject,
    /// One or more incident messages were missing; the node cannot run its
    /// verifier soundly and **rejects conservatively** — this is what
    /// preserves one-sided soundness under faults.
    InsufficientInput,
}

impl NodeVerdict {
    /// Whether this verdict counts as an accepting vote (`Accept` only).
    #[must_use]
    pub fn accepts(self) -> bool {
        matches!(self, Self::Accept)
    }
}

/// Aggregate fault-event counts of one faulted trial.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultCounts {
    /// Messages lost in transit (not counting crash-suppressed sends).
    pub dropped: usize,
    /// Messages corrupted in transit and discarded by the transport.
    pub corrupted: usize,
    /// Messages delivered twice.
    pub duplicated: usize,
    /// Nodes whose crash-stop hazard fired during the trial.
    pub crashed_nodes: usize,
    /// Retry transmissions performed by the multiround resend schedule
    /// (zero in the one-round engine).
    pub retries: usize,
}

impl FaultCounts {
    /// Adds `other`'s counters into `self` — how the Monte-Carlo
    /// estimators ([`stats::estimate`](crate::stats::estimate)) aggregate
    /// per-trial counts into a block total.
    pub fn absorb(&mut self, other: FaultCounts) {
        self.dropped += other.dropped;
        self.corrupted += other.corrupted;
        self.duplicated += other.duplicated;
        self.crashed_nodes += other.crashed_nodes;
        self.retries += other.retries;
    }
}

/// The per-node summary of one faulted one-round trial — what the engine's
/// diagnostic [`run_degraded`](crate::engine::run_degraded) returns.
#[derive(Debug, Clone, PartialEq)]
pub struct DegradedSummary {
    /// The trial's report, exactly as
    /// [`run_prepared`](crate::engine::run_prepared) returns it: `accepted`
    /// is true iff every node's verdict is [`NodeVerdict::Accept`]; the bit
    /// counts reflect what the wire actually carried (crashed senders
    /// transmit nothing, duplicated messages pay twice).
    pub report: RunReport,
    /// The three-valued verdict of each node.
    pub verdicts: Vec<NodeVerdict>,
    /// How many incident messages each node was missing.
    pub missing: Vec<u32>,
}

impl DegradedSummary {
    /// A degraded summary for a trial that ran through the fault-free
    /// engine (transparent plan): verdicts are the clean votes, nothing is
    /// missing.
    pub(crate) fn transparent(report: RunReport, votes: &[bool]) -> Self {
        Self {
            report,
            verdicts: votes
                .iter()
                .map(|&v| {
                    if v {
                        NodeVerdict::Accept
                    } else {
                        NodeVerdict::Reject
                    }
                })
                .collect(),
            missing: vec![0; votes.len()],
        }
    }

    /// Whether the round accepted under faults.
    #[must_use]
    pub fn accepted(&self) -> bool {
        self.report.accepted
    }

    /// The trial's fault statistics (all zero for a clean or transparent
    /// run).
    #[must_use]
    pub fn fault(&self) -> FaultReport {
        self.report.fault.unwrap_or_default()
    }
}

/// A [`FaultSpec`] bound to a fault seed: the pure, replayable schedule of
/// delivery outcomes, crash hazards and retry draws the faulted engine
/// paths consult.
///
/// The plan is **content-keyed**: every decision is a pure function of
/// `(fault seed, trial seed, round, edge-or-node counter)`, derived with
/// the same SplitMix64 mixing the certificate streams use. Two runs with
/// the same `(seed, fault seed)` therefore see the *same* faults on the
/// same messages, regardless of evaluation order or engine path.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    spec: FaultSpec,
    fault_seed: u64,
    /// Cumulative thresholds over the 64-bit word space, in priority order
    /// drop < corrupt < duplicate. Held as `u128` so a rate of exactly 1.0
    /// maps to 2⁶⁴ — strictly above every `u64` word, i.e. "always".
    drop_to: u128,
    corrupt_to: u128,
    duplicate_to: u128,
    crash_to: u128,
}

impl FaultPlan {
    /// Binds `spec` to `fault_seed`.
    ///
    /// Rates are applied in the priority order drop, then corrupt, then
    /// duplicate on one decision word per message; rates summing above 1
    /// clip the later categories (a message can suffer only one fate).
    #[must_use]
    pub fn new(spec: FaultSpec, fault_seed: u64) -> Self {
        let drop_to = threshold(spec.drop_rate);
        let corrupt_to = drop_to + threshold(spec.corrupt_rate);
        let duplicate_to = corrupt_to + threshold(spec.duplicate_rate);
        Self {
            spec,
            fault_seed,
            drop_to,
            corrupt_to,
            duplicate_to,
            crash_to: threshold(spec.crash_rate),
        }
    }

    /// The spec this plan was built from.
    #[must_use]
    pub fn spec(&self) -> &FaultSpec {
        &self.spec
    }

    /// The fault seed this plan was built with.
    #[must_use]
    pub fn fault_seed(&self) -> u64 {
        self.fault_seed
    }

    /// Whether the plan never perturbs anything — the branch every faulted
    /// engine path takes to the exact fault-free code.
    #[must_use]
    pub fn is_transparent(&self) -> bool {
        self.spec.is_transparent()
    }

    /// The retry budget of the bound spec.
    #[must_use]
    pub fn retry_budget(&self) -> usize {
        self.spec.retry_budget
    }

    /// The fate of the message sent in `round` (0-based) of the trial with
    /// seed `trial_seed` over the directed edge identified by the sender's
    /// global port index `src_port`.
    #[must_use]
    pub fn outcome(&self, trial_seed: u64, round: u64, src_port: u64) -> DeliveryOutcome {
        let base = mix_seed(self.fault_seed, trial_seed, TAG_FAULT_MSG);
        let w = u128::from(mix_seed(base, round, src_port));
        if w < self.drop_to {
            DeliveryOutcome::Dropped
        } else if w < self.corrupt_to {
            DeliveryOutcome::Corrupted
        } else if w < self.duplicate_to {
            DeliveryOutcome::Duplicated
        } else {
            DeliveryOutcome::Intact
        }
    }

    /// Whether `node`'s crash hazard fires **in** round `round` (0-based).
    /// Crash-stop is cumulative: the node is down from the first round its
    /// hazard fires; callers tracking multiround state fold this
    /// incrementally (`crashed |= crash_hazard(...)`).
    #[must_use]
    pub fn crash_hazard(&self, trial_seed: u64, node: u64, round: u64) -> bool {
        let base = mix_seed(self.fault_seed, trial_seed, TAG_FAULT_CRASH);
        u128::from(mix_seed(base, node, round)) < self.crash_to
    }

    /// Whether `node` is crashed **by** round `round` inclusive — its
    /// hazard fired in some round `≤ round`. O(round); multiround kernels
    /// should fold [`Self::crash_hazard`] incrementally instead.
    #[must_use]
    pub fn crashed_by(&self, trial_seed: u64, node: u64, round: u64) -> bool {
        (0..=round).any(|r| self.crash_hazard(trial_seed, node, r))
    }

    /// Whether retry `attempt` (0-based) of the round-`round` message on
    /// `src_port` gets through. A retry succeeds when its fresh delivery
    /// draw is neither dropped nor corrupted; duplication is not modelled
    /// on retries (the receiver already ignores copies).
    #[must_use]
    pub fn retry_delivers(&self, trial_seed: u64, round: u64, src_port: u64, attempt: u64) -> bool {
        let base = mix_seed(self.fault_seed, trial_seed, TAG_FAULT_RETRY);
        let state = mix_seed(base, round, src_port);
        u128::from(state_stream_word(state, attempt)) >= self.corrupt_to
    }
}

/// Maps a probability to its cumulative-threshold contribution over the
/// 64-bit word space. Exact at the endpoints: 0.0 → 0 (never), 1.0 → 2⁶⁴
/// (strictly above every word — always).
fn threshold(rate: f64) -> u128 {
    (rate * TWO_64) as u128
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_validate() {
        let s = FaultSpec::default()
            .with_drop(0.5)
            .with_corrupt(0.0)
            .with_duplicate(1.0)
            .with_crash(0.25)
            .with_retry_budget(3);
        assert_eq!(s.drop_rate(), 0.5);
        assert_eq!(s.duplicate_rate(), 1.0);
        assert_eq!(s.retry_budget(), 3);
        assert!(!s.is_transparent());
    }

    #[test]
    #[should_panic(expected = "probability in [0, 1]")]
    fn negative_rate_rejected() {
        let _ = FaultSpec::default().with_drop(-0.1);
    }

    #[test]
    #[should_panic(expected = "probability in [0, 1]")]
    fn nan_rate_rejected() {
        let _ = FaultSpec::default().with_crash(f64::NAN);
    }

    #[test]
    fn transparency_ignores_retry_budget() {
        assert!(FaultSpec::transparent()
            .with_retry_budget(7)
            .is_transparent());
        assert!(FaultPlan::new(FaultSpec::transparent(), 9).is_transparent());
    }

    #[test]
    fn endpoint_rates_are_exact() {
        let never = FaultPlan::new(FaultSpec::transparent(), 1);
        let always_drop = FaultPlan::new(FaultSpec::default().with_drop(1.0), 1);
        let always_crash = FaultPlan::new(FaultSpec::default().with_crash(1.0), 1);
        for i in 0..64u64 {
            assert_eq!(never.outcome(i, 0, i * 31), DeliveryOutcome::Intact);
            assert!(!never.crash_hazard(i, i, 0));
            assert_eq!(always_drop.outcome(i, 0, i * 31), DeliveryOutcome::Dropped);
            assert!(always_crash.crash_hazard(i, i, 0));
            assert!(always_crash.crashed_by(i, i, 3));
        }
    }

    #[test]
    fn outcomes_replay_and_spread() {
        let plan = FaultPlan::new(
            FaultSpec::default()
                .with_drop(0.25)
                .with_corrupt(0.25)
                .with_duplicate(0.25),
            0xFEED,
        );
        let mut counts = [0usize; 4];
        for port in 0..4096u64 {
            let a = plan.outcome(7, 2, port);
            let b = plan.outcome(7, 2, port);
            assert_eq!(a, b, "replay");
            let slot = match a {
                DeliveryOutcome::Dropped => 0,
                DeliveryOutcome::Corrupted => 1,
                DeliveryOutcome::Duplicated => 2,
                DeliveryOutcome::Intact => 3,
            };
            counts[slot] += 1;
        }
        // Each category holds a quarter of the mass; allow wide slack.
        for (i, &c) in counts.iter().enumerate() {
            assert!((700..=1400).contains(&c), "category {i}: {c}");
        }
    }

    #[test]
    fn rates_above_one_clip_later_categories() {
        // drop already covers everything; corrupt and duplicate never fire.
        let plan = FaultPlan::new(
            FaultSpec::default()
                .with_drop(1.0)
                .with_corrupt(0.9)
                .with_duplicate(0.9),
            3,
        );
        for port in 0..256u64 {
            assert_eq!(plan.outcome(1, 0, port), DeliveryOutcome::Dropped);
        }
    }

    #[test]
    fn distinct_keys_decouple_streams() {
        let plan = FaultPlan::new(FaultSpec::default().with_drop(0.5).with_crash(0.5), 42);
        // Message, crash and retry words over the same counters must not be
        // the same stream: check they disagree somewhere.
        let msg: Vec<bool> = (0..64).map(|i| plan.outcome(1, 0, i).delivered()).collect();
        let crash: Vec<bool> = (0..64).map(|i| !plan.crash_hazard(1, i, 0)).collect();
        let retry: Vec<bool> = (0..64).map(|i| plan.retry_delivers(1, 0, i, 0)).collect();
        assert_ne!(msg, crash);
        assert_ne!(msg, retry);
        // And different fault seeds reshuffle the schedule.
        let other = FaultPlan::new(FaultSpec::default().with_drop(0.5).with_crash(0.5), 43);
        let msg2: Vec<bool> = (0..64)
            .map(|i| other.outcome(1, 0, i).delivered())
            .collect();
        assert_ne!(msg, msg2);
    }

    #[test]
    fn crashed_by_is_monotone() {
        let plan = FaultPlan::new(FaultSpec::default().with_crash(0.3), 5);
        for node in 0..32u64 {
            let mut down = false;
            for round in 0..16u64 {
                down |= plan.crash_hazard(9, node, round);
                assert_eq!(plan.crashed_by(9, node, round), down);
            }
        }
    }

    #[test]
    fn verdicts_and_outcome_helpers() {
        assert!(NodeVerdict::Accept.accepts());
        assert!(!NodeVerdict::Reject.accepts());
        assert!(!NodeVerdict::InsufficientInput.accepts());
        assert!(DeliveryOutcome::Intact.delivered());
        assert!(DeliveryOutcome::Duplicated.delivered());
        assert_eq!(DeliveryOutcome::Duplicated.transmissions(), 2);
        assert!(!DeliveryOutcome::Dropped.delivered());
        assert!(!DeliveryOutcome::Corrupted.delivered());
        assert_eq!(DeliveryOutcome::Corrupted.transmissions(), 1);
    }

    #[test]
    fn degraded_summary_aggregates() {
        let fault = FaultReport {
            insufficient_nodes: 1,
            missing_messages: 2,
            counts: FaultCounts {
                dropped: 1,
                corrupted: 1,
                ..FaultCounts::default()
            },
        };
        let d = DegradedSummary {
            report: RunReport {
                fault: Some(fault),
                ..RunReport::one_round(false, 8, 24)
            },
            verdicts: vec![
                NodeVerdict::Accept,
                NodeVerdict::InsufficientInput,
                NodeVerdict::Reject,
            ],
            missing: vec![0, 2, 0],
        };
        assert!(!d.accepted());
        assert_eq!(d.fault(), fault);
        assert_eq!(d.fault().counts.dropped, 1);
    }

    #[test]
    fn transparent_constructors_are_clean() {
        let report = RunReport::one_round(true, 4, 8);
        let d = DegradedSummary::transparent(report, &[true, true]);
        assert_eq!(d.verdicts, vec![NodeVerdict::Accept, NodeVerdict::Accept]);
        assert_eq!(d.missing, vec![0, 0]);
        assert_eq!(d.report, report);
        assert_eq!(d.fault(), FaultReport::default());
        let r = DegradedSummary::transparent(report, &[true, false]);
        assert_eq!(r.verdicts[1], NodeVerdict::Reject);
    }
}
