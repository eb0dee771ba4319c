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
//! value (3 multiplies, 11 additions), then runs Horner in `y`: one
//! multiply-add `acc·y + T[c]` per window, `⌈λ/4⌉` in all. The windows are
//! the raw nibbles of the string's backing bytes — bits are stored
//! MSB-first, so a nibble's top bit is its window's constant coefficient
//! and the table is indexed by the nibble as stored; only the final
//! partial window is masked.
//!
//! The multiply-adds are plain arithmetic: the accumulator is reduced mod
//! `p` once per group of `k` steps, where `k` is the reducer's *step
//! budget* — the most steps from a residue, with `y` and every table
//! entry at most `p − 1`, that cannot overflow the accumulator. The
//! reducer is chosen once per polynomial. A modulus below `2³²` (every
//! protocol prime for λ below ~7·10⁸) runs in one `u64` word, where small
//! primes defer many reductions (`k = 6` at `p = 389`, the prime of a
//! 128-bit string) and primes near `2³²` none (`k = 1`). Wider moduli —
//! adversarially declared lengths, field-size ablations — run the same
//! loop on [`crate::field::Barrett`] with `k = 1`. Values are exactly
//! those of per-step reduction: every reduction lands on the same residue.

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
    /// `p < 2³²`: one-word multiply-adds.
    Narrow(NarrowBarrett),
    /// `2³² ≤ p < 2⁶³`: 128-bit products.
    Wide(Barrett),
}

/// The window table `T[c]` for the point `x` together with the Horner
/// step `y = x⁴`. Nibble bit 3 is the window's `x⁰` coefficient, so
/// `T[8] = 1`, `T[4] = x`, `T[2] = x²`, `T[1] = x³`, and every other entry
/// is the sum of two entries already built.
#[inline]
fn window_table<R: Reducer>(r: R, x: u64) -> ([u64; 16], u64) {
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
    (t, y)
}

/// The start of one string's Horner chain: the accumulator after the
/// windows above the string's whole coefficient bytes, the steps it can
/// still take within the reducer's budget (at least 1), and those whole
/// bytes (windows `0..2k`). The top window is masked to the coefficients
/// below `len`, so padding bits are never trusted.
#[inline]
fn horner_head<'a, R: Reducer>(
    r: R,
    coeffs: BitSlice<'a>,
    t: &[u64; 16],
    y: u64,
) -> (R::Acc, usize, &'a [u8]) {
    let len = coeffs.len();
    let Some(top) = len.div_ceil(4).checked_sub(1) else {
        return (R::lift(0), r.budget(), &[]);
    };
    let bytes = coeffs.as_bytes();
    let byte = bytes[top / 2];
    let valid = len - 4 * top; // coefficients in the top window, 1..=4
    let mask = (0x0Fu8 << (4 - valid)) & 0x0F;
    let rest = &bytes[..top / 2];
    if top % 2 == 0 {
        // The top window is the high nibble of its byte.
        (
            R::lift(t[usize::from((byte >> 4) & mask)]),
            r.budget(),
            rest,
        )
    } else {
        // The low nibble, then the same byte's high nibble below it.
        let acc = R::step(
            R::lift(t[usize::from(byte & mask)]),
            y,
            t[usize::from(byte >> 4)],
        );
        match r.budget() - 1 {
            0 => (R::lift(r.reduce(acc)), r.budget(), rest),
            left => (acc, left, rest),
        }
    }
}

/// Continues a chain from `acc`, which can take `left ≥ 1` more steps,
/// down through whole coefficient bytes (the low nibble of a byte holds
/// the higher-degree window). The accumulator is reduced each time the
/// budget runs out; returns it, possibly unreduced, with the steps left.
#[inline]
fn horner_bytes<R: Reducer>(
    r: R,
    mut acc: R::Acc,
    mut left: usize,
    bytes: &[u8],
    t: &[u64; 16],
    y: u64,
) -> (R::Acc, usize) {
    for &b in bytes.iter().rev() {
        for c in [b & 0x0F, b >> 4] {
            acc = R::step(acc, y, t[usize::from(c)]);
            left -= 1;
            if left == 0 {
                (acc, left) = (R::lift(r.reduce(acc)), r.budget());
            }
        }
    }
    (acc, left)
}

/// `A(x)` by the windowed core.
fn eval_windowed<R: Reducer>(r: R, coeffs: BitSlice<'_>, x: u64) -> u64 {
    let (t, y) = window_table(r, x);
    let (acc, left, bytes) = horner_head(r, coeffs, &t, y);
    r.reduce(horner_bytes(r, acc, left, bytes, &t, y).0)
}

/// `(A(x_l), B(x_l))` for every lane `l`: one window table per lane, and
/// the `2L` Horner chains interleaved once all have started, so each
/// chain's multiply latency hides behind the others'. The interleaved
/// chains share one budget count and reduce together.
fn eval_pair_windowed<R: Reducer, const L: usize>(
    r: R,
    a: BitSlice<'_>,
    b: BitSlice<'_>,
    xs: &[u64; L],
) -> ([u64; L], [u64; L]) {
    let tables = xs.map(|x| window_table(r, x));
    let (mut acc_a, mut acc_b) = ([R::lift(0); L], [R::lift(0); L]);
    // Budget counts and byte runs depend on the strings alone, not on the
    // lane.
    let (mut left_a, mut left_b) = (0, 0);
    let (mut rest_a, mut rest_b): (&[u8], &[u8]) = (&[], &[]);
    for (l, (t, y)) in tables.iter().enumerate() {
        (acc_a[l], left_a, rest_a) = horner_head(r, a, t, *y);
        (acc_b[l], left_b, rest_b) = horner_head(r, b, t, *y);
    }
    // The longer string's chains run alone until both have the same
    // bytes left.
    let k = rest_a.len().min(rest_b.len());
    let (mut after_a, mut after_b) = (left_a, left_b);
    for (l, (t, y)) in tables.iter().enumerate() {
        (acc_a[l], after_a) = horner_bytes(r, acc_a[l], left_a, &rest_a[k..], t, *y);
        (acc_b[l], after_b) = horner_bytes(r, acc_b[l], left_b, &rest_b[k..], t, *y);
    }
    // Each chain stays within budget for the fewer steps either has left.
    let mut left = after_a.min(after_b);
    for (&ba, &bb) in rest_a[..k].iter().zip(&rest_b[..k]).rev() {
        for (ca, cb) in [(ba & 0x0F, bb & 0x0F), (ba >> 4, bb >> 4)] {
            for (l, (t, y)) in tables.iter().enumerate() {
                acc_a[l] = R::step(acc_a[l], *y, t[usize::from(ca)]);
                acc_b[l] = R::step(acc_b[l], *y, t[usize::from(cb)]);
            }
            left -= 1;
            if left == 0 {
                acc_a = acc_a.map(|acc| R::lift(r.reduce(acc)));
                acc_b = acc_b.map(|acc| R::lift(r.reduce(acc)));
                left = r.budget();
            }
        }
    }
    (
        acc_a.map(|acc| r.reduce(acc)),
        acc_b.map(|acc| r.reduce(acc)),
    )
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

    /// `(A(x_l), B(x_l))` per lane, `A` over this field with coefficients
    /// `a` and `B` over `other` with coefficients `b`: the pair core over a
    /// shared field, two scalar evaluations otherwise.
    pub(crate) fn eval_raw_pair_lanes<const L: usize>(
        self,
        a: BitSlice<'_>,
        other: Self,
        b: BitSlice<'_>,
        xs: &[u64; L],
    ) -> ([u64; L], [u64; L]) {
        debug_assert!(
            xs.iter()
                .all(|&x| x < self.modulus() && x < other.modulus()),
            "evaluation points not reduced"
        );
        match (self, other) {
            (Field::Narrow(r), Field::Narrow(s)) if r == s => eval_pair_windowed(r, a, b, xs),
            (Field::Wide(r), Field::Wide(s)) if r == s => eval_pair_windowed(r, a, b, xs),
            _ => (
                xs.map(|x| self.eval_raw(a, x)),
                xs.map(|x| other.eval_raw(b, x)),
            ),
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
        let ([a], [b]) = self.eval_raw_pair_lanes(other, &[x]);
        (a, b)
    }

    /// [`BitPolynomial::eval_raw_pair`] at `L` points at once: `L` window
    /// tables and `2L` interleaved Horner chains. Values are bit-identical
    /// to `L` pair calls; the lane layout only keeps the multiplier busy
    /// while each chain waits on its previous step (portable scalar code,
    /// no target-feature gates). The batched trial engine probes in
    /// chunks of 8 lanes through this path.
    ///
    /// Every lane must be reduced in both fields.
    #[must_use]
    pub fn eval_raw_pair_lanes<const L: usize>(
        &self,
        other: &Self,
        xs: &[u64; L],
    ) -> ([u64; L], [u64; L]) {
        self.field.eval_raw_pair_lanes(
            self.coeffs.as_slice(),
            other.field,
            other.coeffs.as_slice(),
            xs,
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
                        let ([va], [vb]) = f.eval_raw_pair_lanes(a, f, b, &[x]);
                        assert_eq!((va, vb), want, "p={p} len={len} x={x}");
                    }
                }
            }
        }
    }

    #[test]
    fn lane_evaluation_is_bit_identical_to_scalar() {
        let p = protocol_prime(40);
        let a = BitPolynomial::from_bits(&bits("1101001011101000100101110110100101110100"), p);
        let b = BitPolynomial::from_bits(&bits("0110100101110"), p);
        // Sweep misaligned windows so every lane position sees many points.
        for start in 0..32u64 {
            let xs: [u64; 8] = std::array::from_fn(|l| (start + 7 * l as u64) % p);
            let (la, lb) = a.eval_raw_pair_lanes(&b, &xs);
            for (l, &x) in xs.iter().enumerate() {
                assert_eq!(
                    (la[l], lb[l]),
                    (a.eval_raw(x), b.eval_raw(x)),
                    "lane {l}, x = {x}"
                );
            }
        }
        // Narrow lane widths share the same code path.
        let xs4: [u64; 4] = [0, 1, p - 1, p / 2];
        assert_eq!(
            a.eval_raw_pair_lanes(&b, &xs4).0,
            xs4.map(|x| a.eval_raw(x))
        );
        assert_eq!(
            a.eval_raw_pair_lanes(&b, &xs4).1,
            xs4.map(|x| b.eval_raw(x))
        );
        // 8 lanes at both ends of every step budget, over unequal lengths.
        let strings = edge_strings();
        for p in budget_edge_primes() {
            let f = Field::new(p);
            let xs = [0, 1, p - 1, p / 3, p / 2, 2 % p, p.saturating_sub(2), p / 7];
            for s in &strings {
                for len in 0..=320 {
                    let (ta, tb) = (s.truncated(len), s.truncated(320 - len));
                    let want = (xs.map(|x| naive(&ta, x, p)), xs.map(|x| naive(&tb, x, p)));
                    let got = f.eval_raw_pair_lanes(prefix(s, len), f, prefix(s, 320 - len), &xs);
                    assert_eq!(got, want, "p={p} len={len}");
                }
            }
        }
    }

    proptest::proptest! {
        /// Single, pair and 8-lane evaluation of random strings up to 512
        /// bits equal the naive power sum, over budget-edge primes (and so
        /// every reduction-group shape), protocol-sized primes and wide
        /// ones.
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
            let (va, vb) = pa.eval_raw_pair_lanes(&pb, &xs);
            for (l, &x) in xs.iter().enumerate() {
                proptest::prop_assert_eq!((va[l], vb[l]), want(x), "lane {} p={} len={}", l, p, len);
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
