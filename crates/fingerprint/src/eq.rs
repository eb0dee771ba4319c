//! The randomized 2-party equality protocol of Lemma A.1.
//!
//! Alice holds `a`, Bob holds `b`, both λ-bit strings. Alice picks a uniform
//! `x ∈ GF(p)` for the deterministic protocol prime `p ∈ (3λ, 6λ)` and sends
//! the pair `(x, A(x))` — `O(log λ)` bits. Bob accepts iff `B(x) = A(x)`.
//!
//! * **Completeness**: if `a = b` the protocol always accepts (one-sided).
//! * **Soundness**: if `a ≠ b` it accepts with probability `< 1/3`.
//! * **Communication**: `2⌈log₂ p⌉ = O(log λ)` bits, matching the
//!   `Θ(log n)` bound of Lemma 3.2.
//!
//! Independent repetition drives the error to `3^{-t}`; see
//! [`EqProtocol::bob_accepts_repeated`].

use crate::field::Fp;
use crate::poly::{BitPolynomial, Field};
use crate::prime::protocol_prime;
use rand::Rng;
use rpls_bits::{bits_for, BitSlice, BitString};
use std::cell::{Cell, OnceCell};

/// Alice's single message: the evaluation point and her polynomial's value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EqMessage {
    /// The uniformly chosen evaluation point `x`.
    pub point: u64,
    /// `A(x)`, Alice's fingerprint at that point.
    pub value: u64,
}

impl EqMessage {
    /// Exact size of this message in bits for the field `GF(p)`: two field
    /// elements of `⌈log₂ p⌉` bits each.
    #[must_use]
    pub fn bit_size(p: u64) -> usize {
        2 * bits_for(p - 1) as usize
    }

    /// Packs the message into a [`BitString`] of exactly
    /// [`EqMessage::bit_size`] bits.
    #[must_use]
    pub fn to_bits(self, p: u64) -> BitString {
        let w = bits_for(p - 1);
        let mut out = rpls_bits::BitWriter::new();
        out.write_u64(self.point, w).write_u64(self.value, w);
        out.finish()
    }

    /// Parses a message packed by [`EqMessage::to_bits`].
    ///
    /// # Errors
    ///
    /// Returns a [`rpls_bits::BitsError`] if `bits` is too short.
    pub fn from_bits(bits: &BitString, p: u64) -> Result<Self, rpls_bits::BitsError> {
        Self::from_slice(bits.as_slice(), p)
    }

    /// Parses a message from a borrowed slice (e.g. a certificate viewed
    /// in-place inside the verification engine's arena).
    ///
    /// # Errors
    ///
    /// Returns a [`rpls_bits::BitsError`] if `bits` is too short.
    pub fn from_slice(bits: rpls_bits::BitSlice<'_>, p: u64) -> Result<Self, rpls_bits::BitsError> {
        let w = bits_for(p - 1);
        let mut r = rpls_bits::BitReader::from_slice(bits);
        Ok(Self {
            point: r.read_u64(w)?,
            value: r.read_u64(w)?,
        })
    }

    /// Appends the packed message to `out` without allocating, the
    /// counterpart of [`EqMessage::to_bits`] used by allocation-free
    /// certificate generation.
    pub fn append_to(self, p: u64, out: &mut BitString) {
        let w = bits_for(p - 1);
        out.push_u64(self.point, w);
        out.push_u64(self.value, w);
    }
}

/// The equality protocol for a fixed input length λ.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EqProtocol {
    lambda: usize,
    modulus: u64,
}

impl EqProtocol {
    /// The protocol for λ-bit inputs, with the paper's prime in `(3λ, 6λ)`.
    #[must_use]
    pub fn for_length(lambda: usize) -> Self {
        Self {
            lambda,
            modulus: protocol_prime(lambda),
        }
    }

    /// The protocol with an explicit prime (for the field-size ablation; the
    /// soundness bound becomes `min(1, (λ−1)/p)`). A modulus at or below λ
    /// is allowed — the resulting protocol is *useless* (error bound 1) but
    /// measurable, which is exactly what the Theorem 3.5 tightness
    /// experiment demonstrates.
    ///
    /// # Panics
    ///
    /// Panics if `modulus` is not prime.
    #[must_use]
    pub fn with_modulus(lambda: usize, modulus: u64) -> Self {
        assert!(
            crate::prime::is_prime_cached(modulus),
            "modulus {modulus} must be prime"
        );
        Self { lambda, modulus }
    }

    /// Input length λ.
    #[must_use]
    pub fn input_length(&self) -> usize {
        self.lambda
    }

    /// The field prime `p`.
    #[must_use]
    pub fn modulus(&self) -> u64 {
        self.modulus
    }

    /// Bits Alice transmits: `2⌈log₂ p⌉`.
    #[must_use]
    pub fn message_bits(&self) -> usize {
        EqMessage::bit_size(self.modulus)
    }

    /// The guaranteed false-accept bound `min(1, (λ−1)/p)` on unequal
    /// inputs.
    #[must_use]
    pub fn soundness_error(&self) -> f64 {
        if self.lambda <= 1 {
            0.0
        } else {
            ((self.lambda as f64 - 1.0) / self.modulus as f64).min(1.0)
        }
    }

    /// Alice's side: fingerprint `a` at a fresh random point.
    ///
    /// # Panics
    ///
    /// Panics if `a` is longer than the protocol's λ.
    pub fn alice_message<R: Rng + ?Sized>(&self, a: &BitString, rng: &mut R) -> EqMessage {
        assert!(a.len() <= self.lambda, "input longer than protocol length");
        let x = Fp::random(self.modulus, rng);
        let value = BitPolynomial::from_bits(a, self.modulus).eval(x);
        EqMessage {
            point: x.value(),
            value: value.value(),
        }
    }

    /// Bob's side: accept iff his polynomial agrees at Alice's point.
    ///
    /// Bob is the *verifier* side of the protocol, so this is total on
    /// adversarial input: a message whose point lies outside the field, or
    /// an input longer than the protocol's λ, is rejected (`false`) rather
    /// than panicking. (The prover side, [`EqProtocol::alice_message`],
    /// keeps its panic — the prover runs on trusted honest data.)
    #[must_use]
    pub fn bob_accepts(&self, b: &BitString, msg: &EqMessage) -> bool {
        if b.len() > self.lambda || msg.point >= self.modulus {
            return false;
        }
        let x = Fp::new(msg.point, self.modulus);
        BitPolynomial::from_bits(b, self.modulus).eval(x).value() == msg.value
    }

    /// Prepares a `len`-bit input for many protocol rounds: the field's
    /// reducer is chosen once, after which each round costs one random
    /// field element plus one evaluation. The input itself stays with the
    /// caller — in the compiler's preparation cache, a span of an arena —
    /// and is passed back on every evaluation (see
    /// [`PreparedEq::evaluator`]).
    ///
    /// When `expected_rounds` makes a full evaluation table pay for itself,
    /// the preparation is *allowed* to materialise one — but the table is
    /// built **lazily**, on the first evaluation past a probe-count
    /// threshold (see [`PreparedEq`]), so preparing a polynomial that is
    /// never (or rarely) probed costs nothing. Honest labelings in the
    /// compiled verifier are exactly that case: every probe is statically
    /// satisfied, so no table is ever filled.
    ///
    /// Returns `None` if `len` exceeds the protocol's λ — on the verifier
    /// side that is adversarial data, which must not panic.
    #[must_use]
    pub fn prepare(&self, len: usize, expected_rounds: usize) -> Option<PreparedEq> {
        if len > self.lambda {
            return None;
        }
        Some(PreparedEq {
            proto: *self,
            field: Field::new(self.modulus),
            table: OnceCell::new(),
            probes: Cell::new(0),
            table_allowed: Cell::new(table_worthwhile(self.modulus, expected_rounds)),
        })
    }

    /// Runs `t` independent repetitions and accepts iff all accept. Error on
    /// unequal inputs drops to `soundness_error()^t`; equal inputs are still
    /// always accepted (the repetition preserves one-sidedness, which is why
    /// footnote 1's majority vote is not needed here).
    pub fn bob_accepts_repeated<R: Rng>(
        &self,
        a: &BitString,
        b: &BitString,
        t: usize,
        rng: &mut R,
    ) -> bool {
        (0..t).all(|_| {
            let msg = self.alice_message(a, rng);
            self.bob_accepts(b, &msg)
        })
    }
}

/// Whether a full evaluation table can pay for itself: the table pays off
/// once the polynomial is evaluated ~p times, and the size cap guards
/// against adversarially declared lengths whose protocol prime (and hence
/// table) would be in the billions.
fn table_worthwhile(modulus: u64, expected_rounds: usize) -> bool {
    const MAX_TABLE: u64 = 1 << 20;
    modulus <= MAX_TABLE && expected_rounds as u64 >= modulus
}

/// One party's input to the equality protocol, prepared once for many
/// rounds (see [`EqProtocol::prepare`]): the protocol, the polynomial's
/// reducer, and the lazy evaluation table with its counters — everything
/// but the input string, which the caller keeps (a preparation cache keeps
/// the strings of many of these in one arena) and passes back on every
/// evaluation. The caller must pass the same string every time: the lazy
/// table is built from whichever string crosses its threshold.
///
/// Both sides are transcript-identical to their unprepared counterparts:
/// [`EqEvaluator::alice_message`] consumes exactly the randomness
/// [`EqProtocol::alice_message`] consumes (one `u64`) and produces the same
/// message, and [`EqEvaluator::bob_accepts`] returns exactly what
/// [`EqProtocol::bob_accepts`] returns for the prepared input.
///
/// # Lazy evaluation tables
///
/// When the preparation was [allowed a table](PreparedEq::table_allowed),
/// the full `[A(0), …, A(p−1)]` expansion is built on the fly: evaluations
/// are counted, and once they pass a quarter of the field size — the point
/// where the `p` Horner evaluations the build costs are provably within 2×
/// of optimal no matter how many more probes follow — the table is filled
/// and every further evaluation becomes one array index. A prepared
/// polynomial that is never probed (an always-rejecting node, a statically
/// satisfied probe the compiled plan dropped) therefore costs `O(λ)` parse
/// work, never `O(p)` table fills. Values are identical with and without
/// the table, so *when* it materialises affects time, never transcripts.
#[derive(Debug, Clone)]
pub struct PreparedEq {
    proto: EqProtocol,
    /// The polynomial's reducer, chosen once for the modulus.
    field: Field,
    /// Filled once the probe count crosses the laziness threshold; then
    /// every evaluation is one array index.
    table: OnceCell<Vec<u64>>,
    /// Evaluations served so far by Horner (stops counting once the table
    /// is built). Shared across everyone holding this preparation — in a
    /// cross-labeling cache, probes from different labelings all push the
    /// same polynomial toward its table.
    probes: Cell<u64>,
    /// Whether this preparation may materialise a table at all: decided at
    /// [`EqProtocol::prepare`] time from the expected round count,
    /// the per-table size cap, and (in the compiler) the aggregate memory
    /// budget — and upgradeable later via [`PreparedEq::permit_table`] when
    /// a shared preparation first created under a small round hint is
    /// reused by a caller expecting many more.
    table_allowed: Cell<bool>,
}

impl PreparedEq {
    /// The protocol this input was prepared for.
    #[must_use]
    pub fn protocol(&self) -> &EqProtocol {
        &self.proto
    }

    /// Whether the full evaluation table has been materialised (it builds
    /// lazily; see the type docs).
    #[must_use]
    pub fn has_table(&self) -> bool {
        self.table.get().is_some()
    }

    /// Whether this preparation is allowed to materialise an evaluation
    /// table once enough probes arrive.
    #[must_use]
    pub fn table_allowed(&self) -> bool {
        self.table_allowed.get()
    }

    /// Grants the table allowance after the fact, for a preparation first
    /// created under a round hint too small to justify one — a shared
    /// cache upgrades its entries this way when a later caller announces
    /// enough rounds. Returns `true` iff the allowance was **newly**
    /// granted (so the caller can account it against an aggregate memory
    /// budget); a preparation already allowed, or whose field is too
    /// large or expected use too small to pay for a table, returns
    /// `false` and is unchanged. Tables never change evaluation values,
    /// so this only ever moves work.
    pub fn permit_table(&self, expected_rounds: usize) -> bool {
        if self.table_allowed.get() || !table_worthwhile(self.proto.modulus, expected_rounds) {
            return false;
        }
        self.table_allowed.set(true);
        true
    }

    /// A borrowed evaluation view of the polynomial with coefficients
    /// `coeffs` (the string this was prepared for), with the table
    /// dispatch resolved once when the table already exists — for callers
    /// that probe the same prepared polynomial many times in a tight loop;
    /// the batched trial engine evaluates one of these per (edge, trial).
    /// Before the lazy table materialises, evaluations count toward it.
    #[must_use]
    pub fn evaluator<'a>(&'a self, coeffs: BitSlice<'a>) -> EqEvaluator<'a> {
        debug_assert!(coeffs.len() <= self.proto.lambda, "input longer than λ");
        EqEvaluator {
            table: self.table.get().map(Vec::as_slice),
            prep: self,
            coeffs,
        }
    }

    /// The evaluation table if it exists or one more evaluation builds
    /// it; `None` when Horner must serve it. The evaluation counts toward
    /// the lazy threshold only while the table is missing.
    fn table_after(&self, coeffs: BitSlice<'_>) -> Option<&[u64]> {
        if let Some(t) = self.table.get() {
            return Some(t);
        }
        if self.table_allowed.get() {
            let seen = self.probes.get() + 1;
            self.probes.set(seen);
            // Build once probes reach p/4: at most p/4 Horner evaluations
            // are "wasted" before the p-evaluation build, keeping total
            // work within 2× of the best clairvoyant choice.
            if seen.saturating_mul(4) >= self.proto.modulus {
                return Some(
                    self.table
                        .get_or_init(|| self.field.evaluation_table(coeffs)),
                );
            }
        }
        None
    }
}

/// A borrowed, loop-hoisted evaluation view of a prepared input (see
/// [`PreparedEq::evaluator`]): the coefficients, and the table reference
/// when one has already materialised, are resolved once instead of per
/// probe.
///
/// Values are identical to [`BitPolynomial::eval_raw`] of the input for
/// every `x < p`, with or without the table.
#[derive(Debug, Clone, Copy)]
pub struct EqEvaluator<'a> {
    table: Option<&'a [u64]>,
    prep: &'a PreparedEq,
    coeffs: BitSlice<'a>,
}

impl<'a> EqEvaluator<'a> {
    /// `A(x)` at the raw residue `x`, which must be `< p`.
    #[inline]
    #[must_use]
    pub fn eval(&self, x: u64) -> u64 {
        match self.table_after() {
            Some(t) => t[x as usize],
            // The lazy path: the table may materialise mid-loop, in which
            // case it serves from then on.
            None => self.prep.field.eval_raw(self.coeffs, x),
        }
    }

    /// `(A(x), B(x))` for this view's polynomial `A` and `other`'s `B` at
    /// one shared raw residue `x` (reduced in both fields) — one equality
    /// probe. Values and lazy-table behaviour are exactly those of
    /// `self.eval(x)` followed by `other.eval(x)`: each call counts one
    /// probe per side toward its lazy table (two, when both views share
    /// one preparation), and each side serves from its own table once that
    /// is built. When neither side has a table, both are evaluated by the
    /// pair core ([`BitPolynomial::eval_raw_pair`]) — one window table,
    /// two interleaved Horner chains, each from its own coefficients.
    #[inline]
    #[must_use]
    pub fn eval_pair(&self, other: &EqEvaluator<'_>, x: u64) -> (u64, u64) {
        let (f, g) = (self.prep.field, other.prep.field);
        match (self.table_after(), other.table_after()) {
            (Some(a), Some(b)) => (a[x as usize], b[x as usize]),
            (Some(a), None) => (a[x as usize], g.eval_raw(other.coeffs, x)),
            (None, Some(b)) => (f.eval_raw(self.coeffs, x), b[x as usize]),
            (None, None) => f.eval_raw_pair(self.coeffs, g, other.coeffs, x),
        }
    }

    /// The table serving the next evaluation, if any.
    #[inline]
    fn table_after(&self) -> Option<&'a [u64]> {
        self.table.or_else(|| self.prep.table_after(self.coeffs))
    }

    /// The field prime of the underlying protocol.
    #[inline]
    #[must_use]
    pub fn modulus(&self) -> u64 {
        self.prep.proto.modulus
    }

    /// Alice's side: fingerprint the input at a fresh random point.
    pub fn alice_message<R: Rng + ?Sized>(&self, rng: &mut R) -> EqMessage {
        let x = Fp::random(self.modulus(), rng).value();
        EqMessage {
            point: x,
            value: self.eval(x),
        }
    }

    /// Bob's side: accept iff the polynomial agrees at Alice's point. A
    /// point outside the field rejects instead of panicking.
    #[must_use]
    pub fn bob_accepts(&self, msg: &EqMessage) -> bool {
        msg.point < self.modulus() && self.eval(msg.point) == msg.value
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn random_bits<R: Rng>(len: usize, rng: &mut R) -> BitString {
        BitString::from_bools((0..len).map(|_| rng.random_bool(0.5)))
    }

    #[test]
    fn equal_inputs_always_accept() {
        let mut rng = StdRng::seed_from_u64(2);
        for lambda in [1usize, 2, 8, 64, 500] {
            let proto = EqProtocol::for_length(lambda);
            let a = random_bits(lambda, &mut rng);
            for _ in 0..100 {
                let msg = proto.alice_message(&a, &mut rng);
                assert!(proto.bob_accepts(&a, &msg), "λ = {lambda}");
            }
        }
    }

    #[test]
    fn unequal_inputs_rejected_with_good_probability() {
        let mut rng = StdRng::seed_from_u64(3);
        let lambda = 128usize;
        let proto = EqProtocol::for_length(lambda);
        let a = random_bits(lambda, &mut rng);
        let mut b = a.clone();
        // Flip one bit.
        let flipped: BitString = b
            .iter()
            .enumerate()
            .map(|(i, bit)| if i == 17 { !bit } else { bit })
            .collect();
        b = flipped;
        let trials = 3000;
        let accepts = (0..trials)
            .filter(|_| {
                let msg = proto.alice_message(&a, &mut rng);
                proto.bob_accepts(&b, &msg)
            })
            .count();
        let rate = accepts as f64 / trials as f64;
        assert!(
            rate <= proto.soundness_error() + 0.05,
            "false-accept rate {rate} vs bound {}",
            proto.soundness_error()
        );
        assert!(rate < 1.0 / 3.0, "rate {rate} must be below 1/3");
    }

    #[test]
    fn pair_evaluation_matches_scalar_across_table_materialisation() {
        let mut rng = StdRng::seed_from_u64(13);
        let lambda = 48usize;
        let proto = EqProtocol::for_length(lambda);
        let input = random_bits(lambda, &mut rng);
        let other = random_bits(lambda, &mut rng);
        // One preparation probed singly, one in pairs, one table-free: all
        // three must agree at every point even as the allowed ones cross
        // their lazy-table threshold mid-sweep.
        let scalar = proto.prepare(lambda, usize::MAX).unwrap();
        let paired = proto.prepare(lambda, usize::MAX).unwrap();
        let bare = proto.prepare(lambda, 1).unwrap();
        let partner = proto.prepare(lambda, 1).unwrap();
        assert!(scalar.table_allowed() && !bare.table_allowed());
        let (a, b) = (input.as_slice(), other.as_slice());
        let p = proto.modulus();
        // Runs of eight points from every multiple of 8, wrapping past p.
        for x in (0..p).step_by(8).flat_map(|x| (x..x + 8).map(|x| x % p)) {
            let (va, vb) = paired.evaluator(a).eval_pair(&partner.evaluator(b), x);
            assert_eq!(va, scalar.evaluator(a).eval(x), "x = {x}");
            assert_eq!(va, bare.evaluator(a).eval(x), "x = {x}");
            assert_eq!(vb, partner.evaluator(b).eval(x), "x = {x}");
        }
        assert!(paired.has_table(), "pair probes must feed the lazy table");
    }

    #[test]
    fn message_bits_are_logarithmic() {
        // Communication grows like 2 log(6λ): doubling λ adds ~2 bits.
        let small = EqProtocol::for_length(64).message_bits();
        let large = EqProtocol::for_length(65536).message_bits();
        assert!(small <= 2 * 9, "64-bit inputs need ≤ 18 message bits");
        assert!(large <= 2 * 19);
        assert!(large - small <= 2 * 10);
    }

    #[test]
    fn message_round_trips_through_bitstring() {
        let proto = EqProtocol::for_length(100);
        let mut rng = StdRng::seed_from_u64(5);
        let a = random_bits(100, &mut rng);
        let msg = proto.alice_message(&a, &mut rng);
        let packed = msg.to_bits(proto.modulus());
        assert_eq!(packed.len(), proto.message_bits());
        let unpacked = EqMessage::from_bits(&packed, proto.modulus()).unwrap();
        assert_eq!(unpacked, msg);
    }

    #[test]
    fn repetition_reduces_error_exponentially() {
        let mut rng = StdRng::seed_from_u64(7);
        let lambda = 32usize;
        let proto = EqProtocol::for_length(lambda);
        let a = random_bits(lambda, &mut rng);
        let b: BitString = a.iter().map(|bit| !bit).collect();
        let trials = 2000;
        let accepts_3 = (0..trials)
            .filter(|_| proto.bob_accepts_repeated(&a, &b, 3, &mut rng))
            .count();
        let bound = proto.soundness_error().powi(3);
        assert!(
            (accepts_3 as f64 / trials as f64) <= bound + 0.02,
            "3 repetitions: rate {} vs bound {bound}",
            accepts_3 as f64 / trials as f64
        );
        // Equal strings still always accepted under repetition.
        assert!(proto.bob_accepts_repeated(&a, &a, 10, &mut rng));
    }

    #[test]
    fn ablation_larger_field_lower_error() {
        let lambda = 64usize;
        let tight = EqProtocol::for_length(lambda);
        let wide = EqProtocol::with_modulus(lambda, crate::prime::next_prime(100 * lambda as u64));
        assert!(wide.soundness_error() < tight.soundness_error() / 10.0);
        assert!(wide.message_bits() > tight.message_bits());
    }

    #[test]
    #[should_panic(expected = "longer than protocol")]
    fn oversized_input_rejected() {
        let proto = EqProtocol::for_length(4);
        let mut rng = StdRng::seed_from_u64(0);
        let a = BitString::zeros(5);
        let _ = proto.alice_message(&a, &mut rng);
    }

    #[test]
    fn bob_rejects_malformed_messages_without_panicking() {
        let proto = EqProtocol::for_length(8);
        let mut rng = StdRng::seed_from_u64(9);
        let a = random_bits(8, &mut rng);
        let honest = proto.alice_message(&a, &mut rng);
        // A point outside the field is adversarial data, not a bug.
        let outside = EqMessage {
            point: proto.modulus() + 3,
            value: honest.value,
        };
        assert!(!proto.bob_accepts(&a, &outside));
        let prep = proto.prepare(a.len(), 0).unwrap();
        assert!(!prep.evaluator(a.as_slice()).bob_accepts(&outside));
        // Likewise an input longer than λ on the verifier side.
        assert!(!proto.bob_accepts(&BitString::zeros(9), &honest));
        assert!(proto.prepare(9, 0).is_none());
    }

    #[test]
    fn lazy_table_builds_at_probe_threshold_with_identical_values() {
        let proto = EqProtocol::for_length(64);
        let mut rng = StdRng::seed_from_u64(21);
        let a = random_bits(64, &mut rng);
        let p = proto.modulus();
        let eval = |prep: &PreparedEq, x| prep.evaluator(a.as_slice()).eval(x);

        // Not allowed a table: never builds, no matter how many probes.
        let never = proto.prepare(64, 0).unwrap();
        assert!(!never.table_allowed());
        for x in (0..p).cycle().take(2 * p as usize) {
            let _ = eval(&never, x);
        }
        assert!(!never.has_table());

        // Allowed: builds only once probes reach p/4, and values before,
        // at, and after the switch all match the raw Horner reference.
        let lazy = proto.prepare(64, usize::MAX).unwrap();
        let reference = proto.prepare(64, 0).unwrap();
        assert!(lazy.table_allowed() && !lazy.has_table());
        let mut probes = 0u64;
        for x in (0..p).cycle().take(p as usize) {
            assert_eq!(eval(&lazy, x), eval(&reference, x), "x = {x}");
            probes += 1;
            assert_eq!(
                lazy.has_table(),
                probes * 4 >= p,
                "table must appear exactly at the p/4 threshold (probe {probes})"
            );
        }
        assert!(lazy.has_table());

        // Pair evaluation flips `has_table` at exactly the probe two
        // `eval` calls would: on separate preparations, and on one
        // preparation probed as both sides (its counter moves twice).
        let b = random_bits(61, &mut rng);
        let (sa, sb) = (a.as_slice(), b.as_slice());
        let (pair_a, pair_b) = (
            proto.prepare(64, usize::MAX).unwrap(),
            proto.prepare(61, usize::MAX).unwrap(),
        );
        let (solo_a, solo_b) = (
            proto.prepare(64, usize::MAX).unwrap(),
            proto.prepare(61, usize::MAX).unwrap(),
        );
        let (shared_pair, shared_solo) = (
            proto.prepare(64, usize::MAX).unwrap(),
            proto.prepare(64, usize::MAX).unwrap(),
        );
        for x in (0..p).cycle().take(p as usize) {
            let pair = pair_a.evaluator(sa).eval_pair(&pair_b.evaluator(sb), x);
            let solo = (solo_a.evaluator(sa).eval(x), solo_b.evaluator(sb).eval(x));
            assert_eq!(pair, solo, "x = {x}");
            assert_eq!(pair_a.has_table(), solo_a.has_table(), "x = {x}");
            assert_eq!(pair_b.has_table(), solo_b.has_table(), "x = {x}");
            let ev = shared_pair.evaluator(sa);
            let pair = ev.eval_pair(&ev, x);
            let solo = shared_solo.evaluator(sa);
            assert_eq!(pair, (solo.eval(x), solo.eval(x)));
            assert_eq!(shared_pair.has_table(), shared_solo.has_table());
        }
        assert!(pair_a.has_table() && pair_b.has_table() && shared_pair.has_table());
    }

    #[test]
    fn permit_table_upgrades_once_and_only_when_worthwhile() {
        let proto = EqProtocol::for_length(64);
        let mut rng = StdRng::seed_from_u64(23);
        let a = random_bits(64, &mut rng);
        let p = proto.modulus();
        let prep = proto.prepare(64, 0).unwrap();
        assert!(!prep.table_allowed());
        // Too few expected rounds: no upgrade.
        assert!(!prep.permit_table(p as usize - 1));
        assert!(!prep.table_allowed());
        // Enough rounds: newly granted exactly once.
        assert!(prep.permit_table(p as usize));
        assert!(prep.table_allowed());
        assert!(
            !prep.permit_table(usize::MAX),
            "second grant must report false"
        );
        // The upgraded preparation behaves like one allowed from birth:
        // probes now count toward the lazy threshold and values match.
        let reference = proto.prepare(64, 0).unwrap();
        for x in (0..p).cycle().take(p as usize) {
            assert_eq!(
                prep.evaluator(a.as_slice()).eval(x),
                reference.evaluator(a.as_slice()).eval(x)
            );
        }
        assert!(prep.has_table());
    }

    #[test]
    fn evaluator_matches_prepared_eval_with_and_without_table() {
        let proto = EqProtocol::for_length(40);
        let mut rng = StdRng::seed_from_u64(13);
        let a = random_bits(40, &mut rng);
        let poly = BitPolynomial::from_bits(&a, proto.modulus());
        for rounds in [0usize, usize::MAX] {
            let prep = proto.prepare(40, rounds).unwrap();
            let ev = prep.evaluator(a.as_slice());
            assert_eq!(ev.modulus(), proto.modulus());
            for x in 0..proto.modulus() {
                assert_eq!(ev.eval(x), poly.eval_raw(x), "x = {x}, rounds = {rounds}");
            }
        }
    }

    #[test]
    fn prepared_sides_match_unprepared_transcripts() {
        for lambda in [1usize, 8, 64, 300] {
            let proto = EqProtocol::for_length(lambda);
            let mut rng = StdRng::seed_from_u64(lambda as u64);
            let a = random_bits(lambda, &mut rng);
            let b = random_bits(lambda, &mut rng);
            // Force both variants: no table, and full table.
            for rounds in [0usize, usize::MAX] {
                let (pa, pb) = (
                    proto.prepare(lambda, rounds).unwrap(),
                    proto.prepare(lambda, rounds).unwrap(),
                );
                assert_eq!(pa.table_allowed(), rounds > 0);
                assert!(!pa.has_table(), "tables build lazily, not at prepare");
                assert_eq!(pa.protocol(), &proto);
                let (ea, eb) = (pa.evaluator(a.as_slice()), pb.evaluator(b.as_slice()));
                let mut fresh = StdRng::seed_from_u64(42);
                let mut fresh2 = StdRng::seed_from_u64(42);
                for _ in 0..50 {
                    let msg = proto.alice_message(&a, &mut fresh);
                    let prepared_msg = ea.alice_message(&mut fresh2);
                    assert_eq!(msg, prepared_msg, "λ = {lambda}");
                    assert_eq!(
                        proto.bob_accepts(&b, &msg),
                        eb.bob_accepts(&msg),
                        "λ = {lambda}"
                    );
                    assert!(ea.bob_accepts(&msg));
                }
            }
        }
    }
}
