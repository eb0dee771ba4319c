//! Bit strings as polynomials over `GF(p)`.
//!
//! Lemma A.1 views a λ-bit string `a = a₀a₁…a_{λ−1}` as the polynomial
//! `A(x) = a₀ + a₁x + … + a_{λ−1}x^{λ−1} mod p`. Two distinct strings give
//! distinct polynomials of degree `< λ`, which agree on at most `λ − 1`
//! points of the field — the entire soundness of the protocol.
//!
//! # Evaluation
//!
//! Every evaluation runs one **windowed Horner core**. Grouping the
//! coefficients in 4-bit windows, `A(x) = Σ_w W_w(x)·y^w` with `y = x⁴`
//! and `W_w(x) = a_{4w} + a_{4w+1}x + a_{4w+2}x² + a_{4w+3}x³`. Per point
//! the core builds the 16-entry table `T[c] = W_c(x)` of every window
//! value (3 multiplies, 11 additions) and `y² = x⁸`, then runs Horner in
//! `y²` with one step per byte of the string's backing bytes:
//! `acc·y² + (T[lo]·y + T[hi])`, `⌈λ/8⌉` in all. Bits are stored
//! MSB-first, so a nibble's top bit is its window's constant coefficient
//! and the table is indexed by the nibble as stored; a byte's high nibble
//! is the lower-degree window. Only the final partial byte is masked. The
//! addend `T[lo]·y + T[hi]` does not wait on `acc`, so each chain's
//! dependent work is one multiply-add per byte.
//!
//! The steps are plain arithmetic: the accumulator is reduced mod `p`
//! once per group of `k` bytes, where `k` is the reducer's *step budget*
//! — the most byte steps from a residue, with `y`, `y²` and every table
//! entry at most `p − 1`, that cannot overflow the accumulator. The
//! reducer is chosen once per polynomial. A modulus up to
//! `3 037 000 500`, where one byte step fits a `u64` (every protocol prime
//! for λ below ~10⁹), runs in one word, where small primes defer many
//! reductions (`k = 6` at `p = 389`, the prime of a 128-bit string) and
//! primes near the bound none (`k = 1`). Wider moduli — adversarially
//! declared lengths, field-size ablations — run the same loop on
//! [`crate::field::Barrett`] with `k = 1`. Values are exactly those of
//! per-step reduction: every reduction lands on the same residue.

use crate::field::{Barrett, Fp, NarrowBarrett, Reducer};
use rpls_bits::{BitSlice, BitString};

/// A polynomial over `GF(p)` whose coefficients are the bits of a string
/// (coefficient `i` = bit `i`).
///
/// # Examples
///
/// ```
/// use rpls_fingerprint::{BitPolynomial, Fp};
/// use rpls_bits::BitString;
///
/// // 101 -> A(x) = 1 + x^2
/// let a = BitPolynomial::from_bits(&BitString::from_bools([true, false, true]), 13);
/// assert_eq!(a.eval(Fp::new(3, 13)).value(), (1 + 9) % 13);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitPolynomial {
    /// Bit coefficients, index = degree.
    coeffs: BitString,
    /// The field's reducer, chosen once at construction. (It is a pure
    /// function of the modulus, so the derived equality stays
    /// equality-of-moduli.)
    field: Field,
}

/// The reducer a polynomial evaluates with (see the module docs). The
/// evaluation core below takes it together with borrowed coefficients, so
/// a prepared fingerprint whose string lives in a caller's arena
/// ([`crate::PreparedEq`]) runs exactly the code an owned
/// [`BitPolynomial`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Field {
    /// `p ≤ 3 037 000 500`: one-word byte steps.
    Narrow(NarrowBarrett),
    /// Wider moduli up to `2⁶³`: 128-bit products.
    Wide(Barrett),
}

/// The per-point state of the windowed core: the window table `T[c]` for
/// the point `x`, with `y = x⁴` and the byte step's multiplier `y² = x⁸`.
struct Windows {
    t: [u64; 16],
    y: u64,
    y2: u64,
}

impl Windows {
    /// Nibble bit 3 is the window's `x⁰` coefficient, so `T[8] = 1`,
    /// `T[4] = x`, `T[2] = x²`, `T[1] = x³`, and every other entry is the
    /// sum of two entries already built.
    #[inline]
    fn new<R: Reducer>(r: R, x: u64) -> Self {
        let x2 = r.mul_add(x, x, 0);
        let x3 = r.mul_add(x2, x, 0);
        let y = r.mul_add(x2, x2, 0);
        let mut t = [0u64; 16];
        t[8] = 1;
        t[4] = x;
        t[2] = x2;
        t[1] = x3;
        for c in 3..16usize {
            if !c.is_power_of_two() {
                // Split off the lowest set bit: both parts are smaller.
                t[c] = r.add(t[c & (c - 1)], t[c & c.wrapping_neg()]);
            }
        }
        Self {
            t,
            y,
            y2: r.mul_add(y, y, 0),
        }
    }

    /// The unreduced addend `T[lo]·y + T[hi]` of the byte `b`, at most
    /// `(p − 1)·p` (the low nibble holds the higher-degree window).
    #[inline]
    fn term<R: Reducer>(&self, b: u8) -> R::Acc {
        let (lo, hi) = (self.t[usize::from(b & 0x0F)], self.t[usize::from(b >> 4)]);
        R::step(R::lift(lo), self.y, R::lift(hi))
    }
}

/// The start of one string's Horner chain: the accumulator after the
/// string's top byte, the byte steps it can still take within the
/// reducer's budget (at least 1), and the bytes below the top one. The top
/// byte is masked to the coefficients below `len`, so padding bits are
/// never trusted.
#[inline]
fn horner_head<'a, R: Reducer>(
    r: R,
    coeffs: BitSlice<'a>,
    w: &Windows,
) -> (R::Acc, usize, &'a [u8]) {
    let Some((&top, rest)) = coeffs.as_bytes().split_last() else {
        return (R::lift(0), r.budget(), &[]);
    };
    // Coefficients in the top byte, 1..=8.
    let valid = coeffs.len() - 8 * rest.len();
    // The top byte's addend is one byte step from 0, so it spends one step
    // of the budget.
    let acc = w.term::<R>(top & (0xFF << (8 - valid)));
    match r.budget() - 1 {
        0 => (R::lift(r.reduce(acc)), r.budget(), rest),
        left => (acc, left, rest),
    }
}

/// Continues a chain from `acc`, which can take `left ≥ 1` more byte
/// steps, down through `bytes`. The accumulator is reduced each time the
/// budget runs out; returns it, possibly unreduced, with the steps left.
#[inline]
fn horner_bytes<R: Reducer>(
    r: R,
    mut acc: R::Acc,
    mut left: usize,
    bytes: &[u8],
    w: &Windows,
) -> (R::Acc, usize) {
    for &b in bytes.iter().rev() {
        acc = R::step(acc, w.y2, w.term::<R>(b));
        left -= 1;
        if left == 0 {
            (acc, left) = (R::lift(r.reduce(acc)), r.budget());
        }
    }
    (acc, left)
}

/// `A(x)` by the windowed core.
fn eval_windowed<R: Reducer>(r: R, coeffs: BitSlice<'_>, x: u64) -> u64 {
    let w = Windows::new(r, x);
    let (acc, left, bytes) = horner_head(r, coeffs, &w);
    r.reduce(horner_bytes(r, acc, left, bytes, &w).0)
}

/// `(A(x), B(x))`: one window table, and the two Horner chains
/// interleaved once both have the same bytes left, so each chain's
/// multiply latency hides behind the other's. The interleaved chains
/// share one budget count and reduce together.
fn eval_pair_windowed<R: Reducer>(r: R, a: BitSlice<'_>, b: BitSlice<'_>, x: u64) -> (u64, u64) {
    let w = Windows::new(r, x);
    let (acc_a, left_a, rest_a) = horner_head(r, a, &w);
    let (acc_b, left_b, rest_b) = horner_head(r, b, &w);
    // The longer string's chain runs alone until both have the same bytes
    // left.
    let k = rest_a.len().min(rest_b.len());
    let (mut acc_a, left_a) = horner_bytes(r, acc_a, left_a, &rest_a[k..], &w);
    let (mut acc_b, left_b) = horner_bytes(r, acc_b, left_b, &rest_b[k..], &w);
    // Each chain stays within budget for the fewer steps either has left.
    let mut left = left_a.min(left_b);
    for (&ba, &bb) in rest_a[..k].iter().zip(&rest_b[..k]).rev() {
        acc_a = R::step(acc_a, w.y2, w.term::<R>(ba));
        acc_b = R::step(acc_b, w.y2, w.term::<R>(bb));
        left -= 1;
        if left == 0 {
            acc_a = R::lift(r.reduce(acc_a));
            acc_b = R::lift(r.reduce(acc_b));
            left = r.budget();
        }
    }
    (r.reduce(acc_a), r.reduce(acc_b))
}

impl Field {
    /// The reducer for `modulus`.
    ///
    /// # Panics
    ///
    /// Panics if `modulus` is not prime, or not below `2⁶³`.
    pub(crate) fn new(modulus: u64) -> Self {
        assert!(
            crate::prime::is_prime_cached(modulus),
            "modulus {modulus} must be prime"
        );
        match NarrowBarrett::new(modulus) {
            Some(narrow) => Field::Narrow(narrow),
            None => Field::Wide(Barrett::cached(modulus)),
        }
    }

    /// The field modulus.
    pub(crate) fn modulus(self) -> u64 {
        match self {
            Field::Narrow(r) => r.modulus(),
            Field::Wide(r) => r.modulus(),
        }
    }

    /// `A(x)` for the polynomial with coefficients `coeffs`, at the raw
    /// residue `x < p`.
    pub(crate) fn eval_raw(self, coeffs: BitSlice<'_>, x: u64) -> u64 {
        debug_assert!(x < self.modulus(), "evaluation point not reduced");
        match self {
            Field::Narrow(r) => eval_windowed(r, coeffs, x),
            Field::Wide(r) => eval_windowed(r, coeffs, x),
        }
    }

    /// `(A(x), B(x))`, `A` over this field with coefficients `a` and `B`
    /// over `other` with coefficients `b`: the pair core over a shared
    /// field, two single evaluations otherwise.
    pub(crate) fn eval_raw_pair(
        self,
        a: BitSlice<'_>,
        other: Self,
        b: BitSlice<'_>,
        x: u64,
    ) -> (u64, u64) {
        debug_assert!(
            x < self.modulus() && x < other.modulus(),
            "evaluation point not reduced"
        );
        match (self, other) {
            (Field::Narrow(r), Field::Narrow(s)) if r == s => eval_pair_windowed(r, a, b, x),
            (Field::Wide(r), Field::Wide(s)) if r == s => eval_pair_windowed(r, a, b, x),
            _ => (self.eval_raw(a, x), other.eval_raw(b, x)),
        }
    }

    /// The full evaluation table of the polynomial with coefficients
    /// `coeffs` (see [`BitPolynomial::evaluation_table`]).
    pub(crate) fn evaluation_table(self, coeffs: BitSlice<'_>) -> Vec<u64> {
        (0..self.modulus())
            .map(|x| self.eval_raw(coeffs, x))
            .collect()
    }
}

impl BitPolynomial {
    /// Builds the polynomial with coefficient `i` equal to bit `i` of
    /// `bits`, over `GF(modulus)`.
    ///
    /// # Panics
    ///
    /// Panics if `modulus` is not prime, or not below `2⁶³` (the field
    /// invariant of [`Fp`]).
    #[must_use]
    pub fn from_bits(bits: &BitString, modulus: u64) -> Self {
        Self {
            coeffs: bits.clone(),
            field: Field::new(modulus),
        }
    }

    /// Degree bound: the number of coefficients λ (the degree is `< λ`).
    #[must_use]
    pub fn coefficient_count(&self) -> usize {
        self.coeffs.len()
    }

    /// The field modulus.
    #[must_use]
    pub fn modulus(&self) -> u64 {
        self.field.modulus()
    }

    /// Evaluates the polynomial at `x` (see the module docs for the
    /// algorithm).
    ///
    /// # Panics
    ///
    /// Panics if `x` lives in a different field.
    #[must_use]
    pub fn eval(&self, x: Fp) -> Fp {
        assert_eq!(
            x.modulus(),
            self.modulus(),
            "evaluation point field mismatch"
        );
        Fp::new(self.eval_raw(x.value()), self.modulus())
    }

    /// Evaluates at the raw residue `x` (which must already be reduced,
    /// `x < p`), returning the raw residue of the result — the
    /// borrowed-state core of [`BitPolynomial::eval`] used by prepared
    /// fingerprint evaluation, where the field element wrappers would cost
    /// a redundant primality-cache lookup per call.
    #[must_use]
    pub fn eval_raw(&self, x: u64) -> u64 {
        self.field.eval_raw(self.coeffs.as_slice(), x)
    }

    /// `(self(x), other(x))` at one raw residue `x` — the two sides of an
    /// equality-protocol probe. Over a shared field both values come from
    /// one window table and two interleaved Horner chains; each value is
    /// still computed in full from its own coefficients (the strings may
    /// differ in length). Values are bit-identical to two
    /// [`BitPolynomial::eval_raw`] calls, which is also how polynomials
    /// over different fields are served.
    ///
    /// `x` must be reduced in both fields.
    #[must_use]
    pub fn eval_raw_pair(&self, other: &Self, x: u64) -> (u64, u64) {
        self.field.eval_raw_pair(
            self.coeffs.as_slice(),
            other.field,
            other.coeffs.as_slice(),
            x,
        )
    }

    /// The full evaluation table `[A(0), A(1), …, A(p−1)]`.
    ///
    /// Costs `p` evaluations up front; afterwards each evaluation is one
    /// array index. Worth it exactly when one polynomial will be evaluated
    /// at least ~`p` times — the Monte-Carlo regime the prepared
    /// prover/verifier layer in `rpls-core` lives in. The caller is
    /// responsible for bounding `p` (an adversarially declared input length
    /// can push the protocol prime into the billions).
    #[must_use]
    pub fn evaluation_table(&self) -> Vec<u64> {
        self.field.evaluation_table(self.coeffs.as_slice())
    }

    /// Upper bound on the collision probability of the fingerprint for
    /// strings of this length over this field: `(λ − 1) / p`.
    #[must_use]
    pub fn collision_bound(&self) -> f64 {
        if self.coeffs.is_empty() {
            return 0.0;
        }
        (self.coeffs.len() as f64 - 1.0) / self.modulus() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prime::protocol_prime;

    fn bits(s: &str) -> BitString {
        BitString::from_bools(s.chars().map(|c| c == '1'))
    }

    #[test]
    fn evaluation_matches_naive_sum() {
        let p = 101;
        let b = bits("1101001");
        let poly = BitPolynomial::from_bits(&b, p);
        for x in 0..p {
            let naive: u64 = b
                .iter()
                .enumerate()
                .filter(|&(_, bit)| bit)
                .map(|(i, _)| crate::prime::pow_mod(x, i as u64, p))
                .sum::<u64>()
                % p;
            assert_eq!(poly.eval(Fp::new(x, p)).value(), naive, "x = {x}");
        }
    }

    /// `Σ_{i: bit i set} x^i mod p`, straight from the definition, one
    /// power at a time in `u128`.
    fn naive(b: &BitString, x: u64, p: u64) -> u64 {
        let (x, p) = (u128::from(x), u128::from(p));
        let (mut sum, mut power) = (0, 1 % p);
        for bit in b.iter() {
            if bit {
                sum = (sum + power) % p;
            }
            power = power * x % p;
        }
        sum as u64
    }

    /// The primes at both ends of every step budget of the one-word
    /// reducer, the smallest wide prime, and a 62-bit one.
    fn budget_edge_primes() -> Vec<u64> {
        let mut primes: Vec<u64> = crate::field::tests::budget_boundary_primes()
            .into_iter()
            .map(|(p, _)| p)
            .collect();
        primes.extend([101, 389, 4_294_967_311, (1 << 61) - 1]);
        primes
    }

    /// An all-ones and a patterned 320-bit string: 80 windows, more than
    /// one reduction group at every budget.
    fn edge_strings() -> [BitString; 2] {
        let pattern = "1101001011101000100101110110100101110100110";
        [
            BitString::from_bools(std::iter::repeat_n(true, 320)),
            bits(&pattern.repeat(8)[..320]),
        ]
    }

    /// The first `len` bits of `s` as a view over `s`'s own bytes: the
    /// padding past `len` keeps `s`'s bits, which the core must mask.
    fn prefix(s: &BitString, len: usize) -> BitSlice<'_> {
        BitSlice::new(&s.as_bytes()[..len.div_ceil(8)], len)
    }

    #[test]
    fn windowed_core_matches_naive_at_every_length_and_reducer() {
        // Every top-window shape (len mod 8 = 0..7), at both ends of every
        // step budget, single and as the longer and the shorter side of a
        // pair (lengths len and 320 − len), over views with dirty padding.
        let strings = edge_strings();
        for p in budget_edge_primes() {
            let f = Field::new(p);
            for s in &strings {
                for len in 0..=320 {
                    let (a, b) = (prefix(s, len), prefix(s, 320 - len));
                    let (ta, tb) = (s.truncated(len), s.truncated(320 - len));
                    for x in [0, 1, p - 1, p / 3] {
                        let want = (naive(&ta, x, p), naive(&tb, x, p));
                        assert_eq!(f.eval_raw(a, x), want.0, "p={p} len={len} x={x}");
                        assert_eq!(f.eval_raw_pair(a, f, b, x), want, "p={p} len={len} x={x}");
                    }
                }
            }
        }
    }

    #[test]
    fn pair_evaluation_matches_scalar_and_naive_at_many_points() {
        let p = protocol_prime(40);
        let a = BitPolynomial::from_bits(&bits("1101001011101000100101110110100101110100"), p);
        let b = BitPolynomial::from_bits(&bits("0110100101110"), p);
        let scalar = |x| (a.eval_raw(x), b.eval_raw(x));
        // Strided sweeps from misaligned starts, so many points are seen.
        for start in 0..32u64 {
            for x in (0..8).map(|l| (start + 7 * l) % p) {
                assert_eq!(a.eval_raw_pair(&b, x), scalar(x), "x = {x}");
            }
        }
        for x in [0, 1, p - 1, p / 2] {
            assert_eq!(a.eval_raw_pair(&b, x), scalar(x), "x = {x}");
        }
        // Eight points at both ends of every step budget, over unequal
        // lengths.
        let strings = edge_strings();
        for p in budget_edge_primes() {
            let f = Field::new(p);
            let xs = [0, 1, p - 1, p / 3, p / 2, 2 % p, p.saturating_sub(2), p / 7];
            for s in &strings {
                for len in 0..=320 {
                    let (ta, tb) = (s.truncated(len), s.truncated(320 - len));
                    let (a, b) = (prefix(s, len), prefix(s, 320 - len));
                    for x in xs {
                        let want = (naive(&ta, x, p), naive(&tb, x, p));
                        assert_eq!(f.eval_raw_pair(a, f, b, x), want, "p={p} len={len} x={x}");
                    }
                }
            }
        }
    }

    proptest::proptest! {
        /// Single and pair evaluation of random strings up to 512 bits, the
        /// pair at eight points, equal the naive power sum, over
        /// budget-edge primes (and so every reduction-group shape),
        /// protocol-sized primes and wide ones.
        #[test]
        fn evaluation_matches_naive_sum_over_budget_edges(
            pick in 0usize..1000,
            len in 0usize..513,
            cut in 0usize..513,
            seed in proptest::prelude::any::<u64>(),
            x_raw in proptest::prelude::any::<u64>(),
        ) {
            let edges = budget_edge_primes();
            let p = match pick % 3 {
                0 => edges[pick % edges.len()],
                1 => crate::prime::next_prime(2 + pick as u64),
                _ => crate::prime::next_prime((1 << 32) + (seed >> 40)),
            };
            let mut state = seed | 1;
            let a = BitString::from_bools((0..len).map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state & 1 == 1
            }));
            let b = a.truncated(cut.min(len));
            let (pa, pb) = (BitPolynomial::from_bits(&a, p), BitPolynomial::from_bits(&b, p));
            let xs: [u64; 8] = std::array::from_fn(|l| x_raw.wrapping_mul(2 * l as u64 + 1) % p);
            let want = |x| (naive(&a, x, p), naive(&b, x, p));
            proptest::prop_assert_eq!(pa.eval_raw(xs[0]), want(xs[0]).0, "p={} len={}", p, len);
            proptest::prop_assert_eq!(pb.eval_raw_pair(&pa, xs[0]), (want(xs[0]).1, want(xs[0]).0));
            for x in xs {
                proptest::prop_assert_eq!(pa.eval_raw_pair(&pb, x), want(x), "x={} p={} len={}", x, p, len);
            }
        }
    }

    #[test]
    fn pair_evaluation_is_bit_identical_to_scalar() {
        let p = protocol_prime(40);
        let a = BitPolynomial::from_bits(&bits("1101001011101000100101110110100101110100"), p);
        let b = BitPolynomial::from_bits(&bits("10010111011010010111"), p);
        let empty = BitPolynomial::from_bits(&BitString::new(), p);
        for x in 0..p {
            let both = (a.eval_raw(x), b.eval_raw(x));
            assert_eq!(a.eval_raw_pair(&b, x), both, "x = {x}");
            assert_eq!(b.eval_raw_pair(&a, x), (both.1, both.0), "x = {x}");
            assert_eq!(a.eval_raw_pair(&empty, x), (both.0, 0), "x = {x}");
        }
        // Different fields: each side in its own.
        let q = crate::prime::next_prime(p + 1);
        let c = BitPolynomial::from_bits(&bits("110101"), q);
        for x in 0..p {
            assert_eq!(a.eval_raw_pair(&c, x), (a.eval_raw(x), c.eval_raw(x)));
        }
    }

    #[test]
    fn zero_polynomial_evaluates_to_zero() {
        let poly = BitPolynomial::from_bits(&BitString::zeros(10), 31);
        for x in 0..31 {
            assert_eq!(poly.eval(Fp::new(x, 31)).value(), 0);
        }
    }

    #[test]
    fn distinct_strings_agree_on_few_points() {
        // The algebraic core of Lemma A.1: count agreement points and check
        // the (λ-1)/p bound exactly.
        let lambda = 16usize;
        let p = protocol_prime(lambda);
        let a = bits("1010101010101010");
        let b = bits("1010101010101011");
        let pa = BitPolynomial::from_bits(&a, p);
        let pb = BitPolynomial::from_bits(&b, p);
        let collisions = (0..p)
            .filter(|&x| pa.eval(Fp::new(x, p)) == pb.eval(Fp::new(x, p)))
            .count();
        assert!(
            collisions < lambda,
            "collisions {collisions} exceed degree bound"
        );
        let bound = pa.collision_bound();
        assert!(bound < 1.0 / 3.0, "bound {bound} must be < 1/3");
    }

    #[test]
    fn equal_strings_agree_everywhere() {
        let p = protocol_prime(8);
        let a = bits("11001010");
        let pa = BitPolynomial::from_bits(&a, p);
        let pb = BitPolynomial::from_bits(&a.clone(), p);
        for x in 0..p {
            assert_eq!(pa.eval(Fp::new(x, p)), pb.eval(Fp::new(x, p)));
        }
    }

    #[test]
    fn evaluation_table_matches_pointwise_eval() {
        let p = protocol_prime(24);
        let poly = BitPolynomial::from_bits(&bits("110100101110100010010111"), p);
        let table = poly.evaluation_table();
        assert_eq!(table.len() as u64, p);
        for x in 0..p {
            assert_eq!(table[x as usize], poly.eval_raw(x), "x = {x}");
            assert_eq!(table[x as usize], poly.eval(Fp::new(x, p)).value());
        }
    }

    #[test]
    fn empty_string_has_zero_collision_bound() {
        let poly = BitPolynomial::from_bits(&BitString::new(), 7);
        assert_eq!(poly.collision_bound(), 0.0);
        assert_eq!(poly.eval(Fp::new(3, 7)).value(), 0);
    }
}
