//! The prime field `GF(p)` with a runtime modulus.
//!
//! The equality protocol picks its prime as a function of the input length,
//! so the modulus cannot be a compile-time constant. [`Fp`] carries the
//! modulus alongside the value; mixing elements of different fields is a
//! programming error and panics.
//!
//! Two reducers replace the generic `u128 %` division, both bit-identical
//! to it:
//!
//! * [`Barrett`] covers every modulus below `2⁶³` with the factor
//!   `⌊2¹²⁸ / p⌋` — four 64-bit multiplies and one conditional subtract
//!   per reduction. [`Fp`] arithmetic and the wide fields of adversarially
//!   declared lengths run on it.
//! * The one-word reducer covers the moduli for which a Horner *byte
//!   step* `acc·y² + (c₁·y + c₀)` from a residue fits in one `u64` —
//!   `(p − 1)(2p − 1) < 2⁶⁴`, so `p ≤ 3 037 000 500` — and reduces by
//!   `⌊2⁶⁴ / p⌋` with a 64-bit Barrett step. A small prime fits several
//!   byte steps in a `u64` before one reduction (its *step budget*: 6 at
//!   `p = 389`). Every protocol prime for λ below ~10⁹ lies in this range,
//!   so it carries the fingerprint probes of the verification engine (see
//!   [`crate::poly`]).
//!
//! Either factor is computed once per modulus; [`Barrett::cached`]
//! memoises the wide one per thread.

use crate::prime::is_prime_cached;
use rand::Rng;
use std::fmt;
use std::ops::{Add, Mul, Neg, Sub};

/// Barrett reduction state for one modulus `m` with `2 ≤ m < 2⁶³`: the
/// precomputed factor `⌊2¹²⁸ / m⌋` turns every `x mod m` of a product
/// `x < 2¹²⁶` into multiplications and one conditional subtraction.
///
/// This is the general-purpose reducer: field elements ([`Fp`]) and
/// polynomial evaluation over moduli above `3 037 000 500` use it. Smaller
/// fields — every honest protocol prime — evaluate fingerprints with a
/// cheaper one-word reduction instead (see [`crate::poly`]).
///
/// Results are **exactly** `x mod m` — the quotient estimate
/// `q = ⌊x·factor / 2¹²⁸⌋` is provably within 1 of `⌊x / m⌋`, so a single
/// conditional subtract lands in `[0, m)`. The naive `u128 %` reference
/// ([`crate::prime::mul_mod`] / [`crate::prime::pow_mod`]) stays available
/// for the full `u64` modulus range (Miller–Rabin needs it) and as the
/// oracle the property tests compare against.
///
/// # Examples
///
/// ```
/// use rpls_fingerprint::field::Barrett;
/// let b = Barrett::new(97);
/// assert_eq!(b.mul_mod(77, 50), 77 * 50 % 97);
/// assert_eq!(b.pow_mod(5, 96), 1); // Fermat
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Barrett {
    modulus: u64,
    /// `⌊2¹²⁸ / modulus⌋` (which fits in a `u128` for every modulus ≥ 2)
    /// as high and low words: 8-byte alignment keeps the state at 24
    /// bytes inside the per-edge probe checks that store it.
    factor: [u64; 2],
}

/// High 128 bits of the 256-bit product `a · b`, via 64-bit limbs.
#[inline]
fn mul_hi(a: u128, b: u128) -> u128 {
    const MASK: u128 = (1u128 << 64) - 1;
    let (a_hi, a_lo) = (a >> 64, a & MASK);
    let (b_hi, b_lo) = (b >> 64, b & MASK);
    let lo_lo = a_lo * b_lo;
    let hi_lo = a_hi * b_lo;
    let lo_hi = a_lo * b_hi;
    // Carries collected in a 128-bit middle limb: each term is < 2⁶⁴, so
    // the sum cannot overflow.
    let mid = (lo_lo >> 64) + (hi_lo & MASK) + (lo_hi & MASK);
    a_hi * b_hi + (hi_lo >> 64) + (lo_hi >> 64) + (mid >> 64)
}

impl Barrett {
    /// Precomputes the reduction factor for `modulus` (one `u128` division
    /// — amortise it: construct once per modulus, not per operation; see
    /// [`Barrett::cached`]).
    ///
    /// # Panics
    ///
    /// Panics unless `2 ≤ modulus < 2⁶³` — the range every caller in this
    /// workspace lives in ([`Fp`] enforces it at element construction), and
    /// the range for which the `q ∈ {Q−1, Q}` quotient bound holds with a
    /// single correction step.
    #[must_use]
    pub fn new(modulus: u64) -> Self {
        assert!(
            (2..1u64 << 63).contains(&modulus),
            "Barrett modulus {modulus} must be in [2, 2^63)"
        );
        let m = u128::from(modulus);
        // 2¹²⁸ = u128::MAX + 1, so ⌊2¹²⁸/m⌋ = ⌊u128::MAX/m⌋ + [m | 2¹²⁸].
        let factor = u128::MAX / m + u128::from(u128::MAX % m == m - 1);
        Self {
            modulus,
            factor: [(factor >> 64) as u64, factor as u64],
        }
    }

    /// Like [`Barrett::new`] but memoising the most recent moduli per
    /// thread — a workload touches a handful of field primes, so element
    /// construction pays an array scan instead of a `u128` division.
    #[must_use]
    pub fn cached(modulus: u64) -> Self {
        use std::cell::Cell;
        thread_local! {
            // A valid modulus is never 0, so empty slots cannot match.
            static RECENT: Cell<[Barrett; 8]> = const {
                Cell::new([Barrett { modulus: 0, factor: [0; 2] }; 8])
            };
        }
        RECENT.with(|recent| {
            let mut known = recent.get();
            if let Some(&b) = known.iter().find(|b| b.modulus == modulus) {
                return b;
            }
            let fresh = Self::new(modulus);
            known.rotate_right(1);
            known[0] = fresh;
            recent.set(known);
            fresh
        })
    }

    /// The modulus this state reduces by.
    #[must_use]
    pub fn modulus(self) -> u64 {
        self.modulus
    }

    /// `x mod m` for any 128-bit `x`, by multiply-shift.
    #[inline]
    #[must_use]
    pub fn reduce(self, x: u128) -> u64 {
        let factor = (u128::from(self.factor[0]) << 64) | u128::from(self.factor[1]);
        let q = mul_hi(x, factor);
        // q ∈ {⌊x/m⌋ − 1, ⌊x/m⌋}, so the remainder estimate is in [0, 2m).
        let mut r = x - q * u128::from(self.modulus);
        if r >= u128::from(self.modulus) {
            r -= u128::from(self.modulus);
        }
        debug_assert_eq!(r as u64, (x % u128::from(self.modulus)) as u64);
        r as u64
    }

    /// `(a * b) mod m`, bit-identical to [`crate::prime::mul_mod`].
    #[inline]
    #[must_use]
    pub fn mul_mod(self, a: u64, b: u64) -> u64 {
        self.reduce(u128::from(a) * u128::from(b))
    }

    /// `(base ^ exp) mod m` by square-and-multiply, bit-identical to
    /// [`crate::prime::pow_mod`].
    #[must_use]
    pub fn pow_mod(self, mut base: u64, mut exp: u64) -> u64 {
        let mut acc = 1u64;
        base = self.reduce(u128::from(base));
        while exp > 0 {
            if exp & 1 == 1 {
                acc = self.mul_mod(acc, base);
            }
            base = self.mul_mod(base, base);
            exp >>= 1;
        }
        acc
    }
}

/// The Horner step of polynomial evaluation over one field: the windowed
/// core in [`crate::poly`] is generic over it, so the one-word and the
/// wide reducer run the same loop.
///
/// A step `acc·y + c` is plain arithmetic in the accumulator type; the
/// reduction mod `p` is separate. The core takes one *byte step*
/// `acc·y² + (c₁·y + c₀)` per coefficient byte, with `y, y², c₀, c₁ ≤ p − 1`:
/// starting from a residue, the accumulator absorbs [`Reducer::budget`]
/// of them before it must be reduced, so the core reduces once per
/// `budget()` bytes rather than once per byte.
pub(crate) trait Reducer: Copy {
    /// The accumulator of unreduced steps.
    type Acc: Copy;

    /// The modulus `p`.
    fn modulus(self) -> u64;

    /// The step budget `k ≥ 1`: the number of byte steps that, starting
    /// from `acc ≤ p − 1`, stay inside [`Reducer::Acc`]. Each step's
    /// addend `c₁·y + c₀` is at most `(p − 1)·p`, so the worst case runs
    /// `w ← w·(p − 1) + (p − 1)·p` from `w = p − 1`.
    fn budget(self) -> usize;

    /// A residue as an accumulator.
    fn lift(a: u64) -> Self::Acc;

    /// The unreduced step `acc·y + c` (plain arithmetic: in
    /// overflow-checked builds a step past the budget panics).
    fn step(acc: Self::Acc, y: u64, c: Self::Acc) -> Self::Acc;

    /// `acc mod p`.
    fn reduce(self, acc: Self::Acc) -> u64;

    /// `(a·b + c) mod p` for residues `a, b, c < p`: one step and a
    /// reduction.
    #[inline]
    fn mul_add(self, a: u64, b: u64, c: u64) -> u64 {
        self.reduce(Self::step(Self::lift(a), b, Self::lift(c)))
    }

    /// `(a + b) mod p` for residues `a, b < p` (`p < 2⁶³`, so the sum
    /// cannot overflow).
    #[inline]
    fn add(self, a: u64, b: u64) -> u64 {
        let s = a + b;
        if s >= self.modulus() {
            s - self.modulus()
        } else {
            s
        }
    }
}

/// The wide reducer's accumulator is a `u128`: one byte step from a
/// residue ends below `2p² < 2¹²⁷`, and near `p = 2⁶³` a second would pass
/// `2¹²⁸`, so every step is reduced (`k = 1` for every wide modulus).
impl Reducer for Barrett {
    type Acc = u128;

    #[inline]
    fn modulus(self) -> u64 {
        self.modulus
    }

    #[inline]
    fn budget(self) -> usize {
        1
    }

    #[inline]
    fn lift(a: u64) -> u128 {
        u128::from(a)
    }

    #[inline]
    fn step(acc: u128, y: u64, c: u128) -> u128 {
        acc * u128::from(y) + c
    }

    #[inline]
    fn reduce(self, acc: u128) -> u64 {
        Barrett::reduce(self, acc)
    }
}

/// The most byte steps one reduction is ever deferred by. Without a cap
/// the budget of `p = 2` would be unbounded (its worst case grows by 2 per
/// step); no protocol prime gets near it (`p = 389` allows 6).
const MAX_BUDGET: usize = 64;

/// One-word Barrett reduction with a `u64` accumulator, for the moduli
/// `p ≥ 2` whose first worst-case byte step fits it:
/// `(p − 1)(2p − 1) < 2⁶⁴`, i.e. `p ≤ 3 037 000 500`. A small prime fits
/// several: the step budget `k` is the largest count (up to
/// [`MAX_BUDGET`]) for which `k` worst-case byte steps from `acc = p − 1`
/// stay below `2⁶⁴` — 6 at `p = 389`, 1 near the bound. A reduction takes
/// the high word of one 64×64 multiply by the factor `⌊2⁶⁴ / p⌋`, then at
/// most one conditional subtract, and is exact for every `u64`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct NarrowBarrett {
    modulus: u64,
    /// The step budget `k` (a pure function of the modulus).
    budget: usize,
    /// `⌊2⁶⁴ / modulus⌋`.
    factor: u64,
}

impl NarrowBarrett {
    /// The reducer for `modulus`, or `None` unless `modulus ≥ 2` and one
    /// worst-case byte step fits a `u64` (wider moduli run on
    /// [`Barrett`]).
    pub(crate) fn new(modulus: u64) -> Option<Self> {
        let top = modulus.checked_sub(1).filter(|&top| top > 0)?;
        // The worst case after each byte step, from acc = y = c₀ = c₁ = p − 1.
        let addend = top.checked_mul(modulus)?;
        let (mut worst, mut budget) = (top, 0);
        while budget < MAX_BUDGET {
            match worst.checked_mul(top).and_then(|w| w.checked_add(addend)) {
                Some(w) => (worst, budget) = (w, budget + 1),
                None => break,
            }
        }
        if budget == 0 {
            return None;
        }
        // 2⁶⁴ = u64::MAX + 1, so ⌊2⁶⁴/m⌋ = ⌊u64::MAX/m⌋ + [m | 2⁶⁴].
        let factor = u64::MAX / modulus + u64::from(u64::MAX % modulus == modulus - 1);
        Some(Self {
            modulus,
            budget,
            factor,
        })
    }
}

impl Reducer for NarrowBarrett {
    type Acc = u64;

    #[inline]
    fn modulus(self) -> u64 {
        self.modulus
    }

    #[inline]
    fn budget(self) -> usize {
        self.budget
    }

    #[inline]
    fn lift(a: u64) -> u64 {
        a
    }

    #[inline]
    fn step(acc: u64, y: u64, c: u64) -> u64 {
        acc * y + c
    }

    #[inline]
    fn reduce(self, z: u64) -> u64 {
        // q ∈ {⌊z/p⌋ − 1, ⌊z/p⌋}, so the remainder estimate is in [0, 2p).
        let q = ((u128::from(z) * u128::from(self.factor)) >> 64) as u64;
        let r = z - q * self.modulus;
        let r = if r >= self.modulus {
            r - self.modulus
        } else {
            r
        };
        debug_assert_eq!(r, z % self.modulus);
        r
    }
}

/// An element of `GF(p)` for a runtime prime `p`.
///
/// # Examples
///
/// ```
/// use rpls_fingerprint::Fp;
/// let p = 101;
/// let a = Fp::new(77, p);
/// let b = Fp::new(50, p);
/// assert_eq!((a + b).value(), 26);
/// assert_eq!((a * b).value(), 77 * 50 % 101);
/// assert_eq!((a - a).value(), 0);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Fp {
    value: u64,
    /// The field's reduction state; the modulus lives inside it. The
    /// factor is a pure function of the modulus, so derived equality and
    /// hashing over it are consistent with comparing moduli.
    field: Barrett,
}

impl Fp {
    /// Creates the element `value mod p`.
    ///
    /// # Panics
    ///
    /// Panics if `modulus` is not prime (checked in debug and release
    /// alike — field arithmetic silently breaks on composite moduli, which
    /// would invalidate every soundness bound downstream — through a
    /// memoised Miller–Rabin so hot loops pay an array lookup, not a
    /// primality test), or if `modulus ≥ 2⁶³`. The latter is the **field
    /// invariant** every operation relies on: with `p < 2⁶³`, two
    /// residues sum below `2⁶⁴` (so [`Add`] needs no widening) and their
    /// product stays below `2¹²⁶` (so [`Barrett`] reduction is exact).
    /// It is enforced once here, not per operation.
    #[must_use]
    pub fn new(value: u64, modulus: u64) -> Self {
        assert!(is_prime_cached(modulus), "modulus {modulus} must be prime");
        assert!(
            modulus < 1u64 << 63,
            "modulus {modulus} must fit in 63 bits"
        );
        let field = Barrett::cached(modulus);
        Self {
            value: value % modulus,
            field,
        }
    }

    /// The zero of `GF(p)`.
    #[must_use]
    pub fn zero(modulus: u64) -> Self {
        Self::new(0, modulus)
    }

    /// The one of `GF(p)`.
    #[must_use]
    pub fn one(modulus: u64) -> Self {
        Self::new(1, modulus)
    }

    /// A uniform random element of `GF(p)`.
    pub fn random<R: Rng + ?Sized>(modulus: u64, rng: &mut R) -> Self {
        let value = rng.next_u64() % modulus; // bias < 2^-40 for p < 2^24
        Self::new(value, modulus)
    }

    /// The canonical representative in `0..p`.
    #[must_use]
    pub fn value(self) -> u64 {
        self.value
    }

    /// The field's modulus.
    #[must_use]
    pub fn modulus(self) -> u64 {
        self.field.modulus()
    }

    /// `self ^ exp`.
    #[must_use]
    pub fn pow(self, exp: u64) -> Self {
        Self {
            value: self.field.pow_mod(self.value, exp),
            field: self.field,
        }
    }

    /// Multiplicative inverse.
    ///
    /// # Panics
    ///
    /// Panics on zero.
    #[must_use]
    pub fn inverse(self) -> Self {
        assert!(self.value != 0, "zero has no inverse");
        // Fermat: a^(p-2) = a^{-1} in GF(p).
        self.pow(self.modulus() - 2)
    }

    fn check_same_field(self, other: Self) {
        assert_eq!(
            self.field.modulus(),
            other.field.modulus(),
            "mixing GF({}) and GF({})",
            self.field.modulus(),
            other.field.modulus()
        );
    }
}

impl Add for Fp {
    type Output = Fp;

    fn add(self, rhs: Fp) -> Fp {
        self.check_same_field(rhs);
        // Both residues are < p < 2^63 (enforced once, in `Fp::new`), so
        // the sum is < 2^64 and a single conditional subtract reduces it.
        let mut v = self.value + rhs.value;
        if v >= self.modulus() {
            v -= self.modulus();
        }
        Fp {
            value: v,
            field: self.field,
        }
    }
}

impl Sub for Fp {
    type Output = Fp;

    fn sub(self, rhs: Fp) -> Fp {
        self.check_same_field(rhs);
        let v = if self.value >= rhs.value {
            self.value - rhs.value
        } else {
            self.value + self.modulus() - rhs.value
        };
        Fp {
            value: v,
            field: self.field,
        }
    }
}

impl Mul for Fp {
    type Output = Fp;

    fn mul(self, rhs: Fp) -> Fp {
        self.check_same_field(rhs);
        Fp {
            value: self.field.mul_mod(self.value, rhs.value),
            field: self.field,
        }
    }
}

impl Neg for Fp {
    type Output = Fp;

    fn neg(self) -> Fp {
        Fp::zero(self.modulus()) - self
    }
}

impl fmt::Debug for Fp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} (mod {})", self.value, self.modulus())
    }
}

impl fmt::Display for Fp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.value)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const P: u64 = 97;

    #[test]
    fn ring_axioms_hold_exhaustively_mod_13() {
        let p = 13;
        for a in 0..p {
            for b in 0..p {
                let (fa, fb) = (Fp::new(a, p), Fp::new(b, p));
                assert_eq!((fa + fb).value(), (a + b) % p);
                assert_eq!((fa * fb).value(), a * b % p);
                assert_eq!((fa - fb) + fb, fa);
                assert_eq!(fa + (-fa), Fp::zero(p));
            }
        }
    }

    #[test]
    fn inverses_multiply_to_one() {
        for a in 1..P {
            let fa = Fp::new(a, P);
            assert_eq!(fa * fa.inverse(), Fp::one(P), "a = {a}");
        }
    }

    #[test]
    fn pow_matches_repeated_multiplication() {
        let a = Fp::new(5, P);
        let mut acc = Fp::one(P);
        for e in 0..20u64 {
            assert_eq!(a.pow(e), acc);
            acc = acc * a;
        }
    }

    #[test]
    #[should_panic(expected = "must be prime")]
    fn composite_modulus_rejected() {
        let _ = Fp::new(1, 91); // 91 = 7 * 13
    }

    #[test]
    #[should_panic(expected = "mixing")]
    fn cross_field_arithmetic_panics() {
        let _ = Fp::new(1, 7) + Fp::new(1, 11);
    }

    #[test]
    #[should_panic(expected = "no inverse")]
    fn zero_inverse_panics() {
        let _ = Fp::zero(7).inverse();
    }

    #[test]
    fn random_elements_cover_the_field() {
        let mut rng = StdRng::seed_from_u64(0);
        let p = 11;
        let mut seen = [false; 11];
        for _ in 0..500 {
            seen[Fp::random(p, &mut rng).value() as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues should appear");
    }

    #[test]
    fn display_shows_value() {
        assert_eq!(Fp::new(42, P).to_string(), "42");
        assert!(format!("{:?}", Fp::new(42, P)).contains("mod 97"));
    }

    #[test]
    #[should_panic(expected = "fit in 63 bits")]
    fn oversized_modulus_rejected() {
        // The largest u64 prime is ≥ 2^63: the field invariant rejects it
        // at construction, before any operation could overflow.
        let _ = Fp::new(1, 18_446_744_073_709_551_557);
    }

    #[test]
    fn barrett_matches_naive_reduction_across_moduli() {
        // Includes the power-of-two prime 2 (the ⌊2¹²⁸/m⌋ rounding edge
        // case) and composites — Barrett does not require primality.
        let moduli = [
            2u64,
            3,
            4,
            97,
            91,
            (1 << 20) - 3,
            (1 << 32) + 15,
            (1 << 61) - 1,
            (1 << 63) - 1,
            (1 << 63) - 25, // just under the 2^63 ceiling
        ];
        for &m in &moduli {
            let b = Barrett::new(m);
            assert_eq!(b.modulus(), m);
            for &x in &[0u64, 1, 2, m - 1, m / 2, m / 3 + 1] {
                for &y in &[0u64, 1, m - 1, m / 2, m / 7 + 3] {
                    let (x, y) = (x % m, y % m);
                    assert_eq!(
                        b.mul_mod(x, y),
                        crate::prime::mul_mod(x, y, m),
                        "x={x} y={y} m={m}"
                    );
                }
                assert_eq!(
                    b.pow_mod(x, x ^ 0x5A5A),
                    crate::prime::pow_mod(x, x ^ 0x5A5A, m),
                    "x={x} m={m}"
                );
            }
        }
    }

    #[test]
    fn barrett_reduce_handles_full_u128_range() {
        let b = Barrett::new((1 << 63) - 25);
        for &x in &[0u128, 1, u128::MAX, u128::MAX - 1, 1 << 127, (1 << 126) - 1] {
            assert_eq!(u128::from(b.reduce(x)), x % u128::from(b.modulus()));
        }
    }

    #[test]
    fn barrett_cached_survives_eviction_sweeps() {
        let first: Vec<Barrett> = (0..32u64).map(|i| Barrett::cached(97 + 2 * i)).collect();
        for (i, &b) in first.iter().enumerate() {
            let again = Barrett::cached(97 + 2 * i as u64);
            assert_eq!(again, b);
            assert_eq!(again.mul_mod(5, 7), 35 % again.modulus());
        }
    }

    /// The largest modulus whose first worst-case byte step from a residue,
    /// `(p − 1)² + (p − 1)·p = (p − 1)(2p − 1)`, fits in a `u64`.
    const NARROW_BOUND: u64 = 3_037_000_500;
    /// The primes either side of [`NARROW_BOUND`].
    const LAST_NARROW_PRIME: u64 = 3_037_000_493;
    const FIRST_WIDE_PRIME: u64 = 3_037_000_507;

    #[test]
    fn narrow_barrett_matches_naive_multiply_add_up_to_its_bound() {
        // Includes the power-of-two prime 2 (the ⌊2⁶⁴/m⌋ rounding edge
        // case) and the largest one-word moduli, where one worst-case byte
        // step (p−1)·(p−1) + (p−1)·p sits just under 2⁶⁴.
        for m in [2u64, 3, 97, (1 << 20) - 3, LAST_NARROW_PRIME, NARROW_BOUND] {
            let byte_step = |a: u64, y: u64, c1: u64, c0: u64| {
                let [a, y, c1, c0, m] = [a, y, c1, c0, m].map(u128::from);
                ((a * y * y + c1 * y + c0) % m) as u64
            };
            let r = NarrowBarrett::new(m).expect("below the one-word bound");
            assert_eq!(Reducer::modulus(r), m);
            let edge = [0, 1, 2 % m, m / 2, m - 2 % m, m - 1];
            for &a in &edge {
                for &b in &edge {
                    for &c in &edge {
                        let want = ((u128::from(a) * u128::from(b) + u128::from(c)) % u128::from(m))
                            as u64;
                        assert_eq!(r.mul_add(a, b, c), want, "a={a} b={b} c={c} m={m}");
                        assert_eq!(Barrett::new(m).mul_add(a, b, c), want);
                        // One unreduced byte step acc·y² + (c₁·y + c₀) with
                        // every operand at this edge value.
                        let y2 = r.mul_add(b, b, 0);
                        let step = |acc, c1, c0| {
                            NarrowBarrett::step(acc, y2, NarrowBarrett::step(c1, b, c0))
                        };
                        assert_eq!(r.reduce(step(a, c, c)), byte_step(a, b, c, c));
                    }
                }
            }
        }
        for m in [
            0,
            1,
            NARROW_BOUND + 1,
            FIRST_WIDE_PRIME,
            4_294_967_291,
            1 << 32,
        ] {
            assert_eq!(NarrowBarrett::new(m), None, "m={m}");
        }
    }

    /// Whether `k` worst-case byte steps `w ← w·(p − 1) + (p − 1)·p` from
    /// `w = p − 1` stay in a `u64`, in `u128` arithmetic (independent of
    /// the reducer's own derivation).
    fn worst_case_fits(p: u64, k: usize) -> bool {
        let (m, p) = (u128::from(p - 1), u128::from(p));
        let mut acc = m;
        (0..k).all(|_| {
            acc = acc * m + m * p;
            acc <= u128::from(u64::MAX)
        })
    }

    /// The smallest and the largest one-word prime of every step budget
    /// some prime has, with that budget, found by [`worst_case_fits`]
    /// alone (the worst case grows with `p`, so each budget is an interval
    /// of moduli).
    pub(crate) fn budget_boundary_primes() -> Vec<(u64, usize)> {
        let largest_fitting = |k: usize| {
            let (mut lo, mut hi) = (2u64, (1 << 32) - 1);
            while lo < hi {
                let mid = lo + (hi - lo).div_ceil(2);
                if worst_case_fits(mid, k) {
                    lo = mid;
                } else {
                    hi = mid - 1;
                }
            }
            lo
        };
        let mut out = Vec::new();
        for k in 1..=MAX_BUDGET {
            let top = largest_fitting(k);
            let bottom = if k == MAX_BUDGET {
                2
            } else {
                largest_fitting(k + 1) + 1
            };
            let Some(first) = (bottom..=top).find(|&q| crate::prime::is_prime(q)) else {
                continue;
            };
            let last = (first..=top)
                .rev()
                .find(|&q| crate::prime::is_prime(q))
                .expect("first is prime");
            out.push((first, k));
            if last != first {
                out.push((last, k));
            }
        }
        out
    }

    #[test]
    fn step_budget_is_the_largest_worst_case_count_that_fits() {
        let budget = |p: u64| NarrowBarrett::new(p).expect("one-word prime").budget();
        let check = |p: u64| {
            let k = budget(p);
            assert!(worst_case_fits(p, k), "p={p}: {k} steps overflow");
            assert!(
                k == MAX_BUDGET || !worst_case_fits(p, k + 1),
                "p={p}: {} steps would still fit",
                k + 1
            );
            k
        };
        // p = 2 fits any number of steps: the cap ends its derivation.
        assert_eq!(check(2), MAX_BUDGET);
        assert_eq!(check(3), 61);
        assert_eq!(check(389), 6);
        // The narrow bound: one step fits at the last one-word prime, none
        // at the first prime past it, which runs on the wide reducer.
        assert_eq!(check(LAST_NARROW_PRIME), 1);
        assert!(worst_case_fits(NARROW_BOUND, 1) && !worst_case_fits(NARROW_BOUND + 1, 1));
        assert!(!worst_case_fits(FIRST_WIDE_PRIME, 1));
        assert_eq!(NarrowBarrett::new(FIRST_WIDE_PRIME), None);
        let edges = budget_boundary_primes();
        assert!(edges.contains(&(LAST_NARROW_PRIME, 1)));
        for &(p, k) in &edges {
            assert_eq!(check(p), k, "p={p}");
        }
        // Every budget from 1 up to 11 is reached by some prime, at both
        // ends of its interval.
        for k in 1..=11 {
            assert_eq!(edges.iter().filter(|&&(_, j)| j == k).count(), 2, "k={k}");
        }
    }

    #[test]
    #[should_panic(expected = "must be in [2, 2^63)")]
    fn barrett_rejects_modulus_one() {
        let _ = Barrett::new(1);
    }
}
