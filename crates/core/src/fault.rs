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
//! # Delivery
//!
//! Every faulted engine path — the scalar one-round trial, the scalar
//! certificate-splitting schedule and the compiled scheme's batched
//! kernel — delivers through one loop, the crate-private
//! `FaultPlan::deliver`. A caller only describes its schedule: how many
//! messages each directed edge carries (message `r` carries
//! `bits + [r < extra]` bits) and the horizon of rounds its crash draws
//! cover (one round at `t = 1`; beyond, the most messages any edge of the
//! split schedule carries, or the widest coverage of any compiled node).
//! For one trial the loop
//!
//! * gives each node a crash round — the first round below the horizon
//!   whose hazard fires — after which it transmits nothing; every message
//!   it still owed is missing at its receiver;
//! * draws one outcome per message, keyed by `(round, sender's global
//!   port)`: a dropped or corrupted message is transmitted but lost, a
//!   duplicated one arrives with its bits paid twice;
//! * re-sends a lost message within its round up to the retry budget,
//!   each attempt paying the message's bits again;
//! * counts each node's missing messages, the first round with an
//!   unrecovered loss, the largest bits one edge carried in one round, and
//!   the total bits on the wire.
//!
//! A one-round schedule is **single-shot**: every directed edge carries
//! exactly one message, even an empty one; nothing is retried; and a
//! duplicate is charged in the total without raising the per-round
//! maximum. The fault layer models point-to-point delivery, so every
//! message pattern is hazarded and charged per directed link (a broadcast
//! message crossing `d` links pays `d` times).
//!
//! The trial's report accepts iff the clean run accepts and nothing is
//! missing, and its `decided_round` is the earliest of the clean decision,
//! the last round, and the round after the first unrecovered loss.
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
use crate::state::Configuration;

/// Seed-derivation tag of per-message delivery words, chosen to collide
/// with neither the estimator tags in [`stats`](crate::stats) nor the
/// engine's multiround tag.
const TAG_FAULT_MSG: u64 = 0x666D_7367; // "fmsg"
/// Seed-derivation tag of per-(node, round) crash-hazard words.
const TAG_FAULT_CRASH: u64 = 0x6372617368; // "crash"
/// Seed-derivation tag of per-attempt retry words.
const TAG_FAULT_RETRY: u64 = 0x7265747279; // "retry"

/// The largest retry budget a [`FaultSpec`] holds: larger budgets saturate
/// here. Each lost message costs up to this many retry draws, so the cap
/// bounds a trial's work even at a drop rate of 1.0.
pub const MAX_RETRY_BUDGET: usize = 64;

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
    /// Budgets above [`MAX_RETRY_BUDGET`] saturate at it.
    #[must_use]
    pub fn with_retry_budget(mut self, budget: usize) -> Self {
        self.retry_budget = budget.min(MAX_RETRY_BUDGET);
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
    /// The summary of a trial whose nodes voted `votes` and were missing
    /// `missing[v]` messages each: a node missing input is
    /// [`NodeVerdict::InsufficientInput`], every other node its vote.
    pub(crate) fn new(report: RunReport, votes: &[bool], missing: Vec<u32>) -> Self {
        let verdicts = votes
            .iter()
            .zip(&missing)
            .map(|(&vote, &miss)| match (miss > 0, vote) {
                (true, _) => NodeVerdict::InsufficientInput,
                (false, true) => NodeVerdict::Accept,
                (false, false) => NodeVerdict::Reject,
            })
            .collect();
        Self {
            report,
            verdicts,
            missing,
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
        self.outcome_in(self.key(trial_seed, TAG_FAULT_MSG), round, src_port)
    }

    /// Whether `node`'s crash hazard fires **in** round `round` (0-based).
    /// Crash-stop is cumulative: the node is down from the first round its
    /// hazard fires.
    #[must_use]
    pub fn crash_hazard(&self, trial_seed: u64, node: u64, round: u64) -> bool {
        self.crash_in(self.key(trial_seed, TAG_FAULT_CRASH), node, round)
    }

    /// Whether retry `attempt` (0-based) of the round-`round` message on
    /// `src_port` gets through. A retry succeeds when its fresh delivery
    /// draw is neither dropped nor corrupted; duplication is not modelled
    /// on retries (the receiver already ignores copies).
    #[must_use]
    pub fn retry_delivers(&self, trial_seed: u64, round: u64, src_port: u64, attempt: u64) -> bool {
        self.retry_in(
            self.key(trial_seed, TAG_FAULT_RETRY),
            round,
            src_port,
            attempt,
        )
    }

    /// The key of the decision stream `tag` in the trial `trial_seed`.
    fn key(&self, trial_seed: u64, tag: u64) -> u64 {
        mix_seed(self.fault_seed, trial_seed, tag)
    }

    fn outcome_in(&self, key: u64, round: u64, src_port: u64) -> DeliveryOutcome {
        let w = u128::from(mix_seed(key, round, src_port));
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

    fn crash_in(&self, key: u64, node: u64, round: u64) -> bool {
        // A zero rate never fires; skip the draw.
        self.crash_to != 0 && u128::from(mix_seed(key, node, round)) < self.crash_to
    }

    fn retry_in(&self, key: u64, round: u64, src_port: u64, attempt: u64) -> bool {
        let state = mix_seed(key, round, src_port);
        u128::from(state_stream_word(state, attempt)) >= self.corrupt_to
    }

    /// Delivers one trial of a `rounds`-round schedule over every directed
    /// edge of `config` into `out` — the one delivery loop of the engine
    /// (see the module docs). `schedule(src, sender)` describes the
    /// messages of the edge whose sender owns global port `src`; crash
    /// draws cover rounds `0..horizon`.
    pub(crate) fn deliver(
        &self,
        config: &Configuration,
        seed: u64,
        rounds: usize,
        horizon: usize,
        schedule: impl Fn(usize, usize) -> EdgeSchedule,
        out: &mut Delivery,
    ) {
        let (msg_key, crash_key, retry_key) = (
            self.key(seed, TAG_FAULT_MSG),
            self.key(seed, TAG_FAULT_CRASH),
            self.key(seed, TAG_FAULT_RETRY),
        );
        let single_shot = rounds == 1;
        let budget = if single_shot { 0 } else { self.retry_budget() };
        let n = config.node_count();
        out.reset(n);
        if self.crash_to != 0 {
            for (v, crash_round) in out.crash_round.iter_mut().enumerate() {
                let crash = (0..horizon).find(|&r| self.crash_in(crash_key, v as u64, r as u64));
                *crash_round = crash.unwrap_or(usize::MAX);
                out.counts.crashed_nodes += usize::from(crash.is_some());
            }
        }

        let owner = config.port_owner();
        for (recv_port, &src) in config.delivery().iter().enumerate() {
            let src = src as usize;
            let sender = owner[src] as usize;
            let receiver = owner[recv_port] as usize;
            let edge = schedule(src, sender);
            let messages = if single_shot { 1 } else { edge.messages };
            for r in 0..messages {
                if r >= out.crash_round[sender] {
                    out.lose(receiver, r, messages - r);
                    break;
                }
                let bits = edge.bits + usize::from(r < edge.extra);
                let outcome = self.outcome_in(msg_key, r as u64, src as u64);
                let sent = bits * outcome.transmissions();
                out.total_bits += sent;
                let mut round_bits = if single_shot { bits } else { sent };
                match outcome {
                    DeliveryOutcome::Intact => {}
                    DeliveryOutcome::Duplicated => out.counts.duplicated += 1,
                    DeliveryOutcome::Dropped | DeliveryOutcome::Corrupted => {
                        if outcome == DeliveryOutcome::Dropped {
                            out.counts.dropped += 1;
                        } else {
                            out.counts.corrupted += 1;
                        }
                        let delivered = (0..budget).any(|attempt| {
                            out.counts.retries += 1;
                            out.total_bits += bits;
                            round_bits += bits;
                            self.retry_in(retry_key, r as u64, src as u64, attempt as u64)
                        });
                        if !delivered {
                            out.lose(receiver, r, 1);
                        }
                    }
                }
                out.max_round_bits = out.max_round_bits.max(round_bits);
            }
        }
    }
}

/// The messages one directed edge carries in a delivery schedule: message
/// `r < messages` carries `bits + [r < extra]` bits.
#[derive(Debug, Clone, Copy)]
pub(crate) struct EdgeSchedule {
    pub(crate) messages: usize,
    pub(crate) bits: usize,
    pub(crate) extra: usize,
}

impl EdgeSchedule {
    /// The certificate-splitting schedule of a `len`-bit certificate over
    /// `rounds` rounds: `⌈len/rounds⌉`-then-`⌊len/rounds⌋`-bit chunks, of
    /// which the `min(rounds, len)` non-empty ones are sent. At one round
    /// this is the whole certificate.
    pub(crate) fn split(len: usize, rounds: usize) -> Self {
        Self {
            messages: rounds.min(len),
            bits: len / rounds,
            extra: len % rounds,
        }
    }
}

/// One trial's delivery, as [`FaultPlan::deliver`] leaves it; the buffers
/// are reused across trials.
#[derive(Debug, Default)]
pub(crate) struct Delivery {
    crash_round: Vec<usize>,
    /// Messages each node is missing after retries.
    pub(crate) missing: Vec<u32>,
    insufficient_nodes: usize,
    missing_messages: usize,
    /// 0-based round of the first unrecovered loss, `usize::MAX` if none.
    first_loss: usize,
    max_round_bits: usize,
    total_bits: usize,
    counts: FaultCounts,
}

impl Delivery {
    fn reset(&mut self, nodes: usize) {
        self.crash_round.clear();
        self.crash_round.resize(nodes, usize::MAX);
        self.missing.clear();
        self.missing.resize(nodes, 0);
        self.insufficient_nodes = 0;
        self.missing_messages = 0;
        self.first_loss = usize::MAX;
        self.max_round_bits = 0;
        self.total_bits = 0;
        self.counts = FaultCounts::default();
    }

    /// Records `lost` messages missing at `receiver` from round `round` on.
    fn lose(&mut self, receiver: usize, round: usize, lost: usize) {
        let missing = &mut self.missing[receiver];
        self.insufficient_nodes += usize::from(*missing == 0);
        *missing += u32::try_from(lost).expect("missing count fits in u32");
        self.missing_messages += lost;
        self.first_loss = self.first_loss.min(round);
    }

    /// The trial's report over a `rounds`-round schedule whose clean run
    /// `accepted` and was decided in round `decided_round`.
    pub(crate) fn report(&self, rounds: usize, accepted: bool, decided_round: usize) -> RunReport {
        RunReport {
            accepted: accepted && self.missing_messages == 0,
            rounds,
            decided_round: decided_round
                .min(rounds)
                .min(self.first_loss.saturating_add(1)),
            max_bits_per_round: self.max_round_bits,
            total_bits: self.total_bits,
            fault: Some(FaultReport {
                insufficient_nodes: self.insufficient_nodes,
                missing_messages: self.missing_messages,
                counts: self.counts,
            }),
        }
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
    fn retry_budget_saturates() {
        let spec = FaultSpec::default().with_retry_budget(usize::MAX);
        assert_eq!(spec.retry_budget(), MAX_RETRY_BUDGET);
        let spec = FaultSpec::default().with_retry_budget(MAX_RETRY_BUDGET - 1);
        assert_eq!(spec.retry_budget(), MAX_RETRY_BUDGET - 1);
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
            assert!(always_crash.crash_hazard(i, i, 3));
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
        let outcomes = |plan: &FaultPlan| -> Vec<DeliveryOutcome> {
            (0..64).map(|i| plan.outcome(1, 0, i)).collect()
        };
        let msg: Vec<bool> = (outcomes(&plan).into_iter())
            .map(|o| o == DeliveryOutcome::Intact)
            .collect();
        let crash: Vec<bool> = (0..64).map(|i| !plan.crash_hazard(1, i, 0)).collect();
        let retry: Vec<bool> = (0..64).map(|i| plan.retry_delivers(1, 0, i, 0)).collect();
        assert_ne!(msg, crash);
        assert_ne!(msg, retry);
        // And different fault seeds reshuffle the schedule.
        let other = FaultPlan::new(FaultSpec::default().with_drop(0.5).with_crash(0.5), 43);
        assert_ne!(outcomes(&plan), outcomes(&other));
    }

    #[test]
    fn verdicts_and_outcome_helpers() {
        assert!(NodeVerdict::Accept.accepts());
        assert!(!NodeVerdict::Reject.accepts());
        assert!(!NodeVerdict::InsufficientInput.accepts());
        assert_eq!(DeliveryOutcome::Intact.transmissions(), 1);
        assert_eq!(DeliveryOutcome::Duplicated.transmissions(), 2);
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
        let d = DegradedSummary::new(report, &[true, true], vec![0, 0]);
        assert_eq!(d.verdicts, vec![NodeVerdict::Accept, NodeVerdict::Accept]);
        assert_eq!(d.missing, vec![0, 0]);
        assert_eq!(d.report, report);
        assert_eq!(d.fault(), FaultReport::default());
        let r = DegradedSummary::new(report, &[true, false, true], vec![0, 0, 2]);
        assert_eq!(
            r.verdicts,
            vec![
                NodeVerdict::Accept,
                NodeVerdict::Reject,
                NodeVerdict::InsufficientInput
            ]
        );
    }
}
