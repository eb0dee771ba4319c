//! Property-based tests for the fingerprinting substrate.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rpls_bits::BitString;
use rpls_fingerprint::prime::{is_prime, next_prime, protocol_prime};
use rpls_fingerprint::{Barrett, BitPolynomial, EqProtocol, Fp};

/// `Σ_{i: bit i set} x^i mod p`, straight from the definition — the oracle
/// the windowed evaluation core is held to.
fn naive_eval(bits: &BitString, x: u64, p: u64) -> u64 {
    bits.iter()
        .enumerate()
        .filter(|&(_, bit)| bit)
        .fold(0u64, |acc, (i, _)| {
            let term = rpls_fingerprint::prime::pow_mod(x, i as u64, p);
            ((u128::from(acc) + u128::from(term)) % u128::from(p)) as u64
        })
}

fn random_string(len: usize, seed: u64) -> BitString {
    use rand::RngExt;
    let mut rng = StdRng::seed_from_u64(seed);
    BitString::from_bools((0..len).map(|_| rng.random_bool(0.5)))
}

/// A field prime for the evaluation properties: small protocol-sized
/// primes, the primes either side of the one-word reducer's bound
/// (3 037 000 500, where one Horner byte step stops fitting a `u64`),
/// primes around 2³², and arbitrary primes up to 2⁶².
fn pick_prime(pick: usize, raw: u64) -> u64 {
    match pick % 5 {
        0 => next_prime(2 + raw % 2000),
        1 => 3_037_000_493, // largest one-word prime
        2 => 3_037_000_507, // smallest prime past the one-word bound
        3 => next_prime((1 << 32) - (raw % 1000)),
        _ => next_prime(2 + raw % ((1 << 62) - 200)),
    }
}

proptest! {
    /// Barrett multiply-shift reduction agrees with the naive `u128 %`
    /// reference on random moduli up to 62 bits (primality not required —
    /// Barrett is a pure reduction) and random operands.
    #[test]
    fn barrett_mul_matches_naive_reference(
        m_raw in 2u64..(1 << 62),
        a in any::<u64>(),
        b in any::<u64>(),
    ) {
        let barrett = Barrett::new(m_raw);
        let (a, b) = (a % m_raw, b % m_raw);
        prop_assert_eq!(
            barrett.mul_mod(a, b),
            rpls_fingerprint::prime::mul_mod(a, b, m_raw),
            "a={} b={} m={}", a, b, m_raw
        );
        // The raw reducer must also agree on arbitrary 128-bit inputs
        // (products are just the special case below m²).
        let wide = (u128::from(a) << 64) ^ u128::from(b);
        prop_assert_eq!(
            u128::from(barrett.reduce(wide)),
            wide % u128::from(m_raw)
        );
    }

    /// Barrett square-and-multiply agrees with the naive reference for
    /// random bases and exponents over random 62-bit moduli.
    #[test]
    fn barrett_pow_matches_naive_reference(
        m_raw in 2u64..(1 << 62),
        base in any::<u64>(),
        exp in any::<u64>(),
    ) {
        let barrett = Barrett::new(m_raw);
        prop_assert_eq!(
            barrett.pow_mod(base, exp),
            rpls_fingerprint::prime::pow_mod(base, exp, m_raw),
            "base={} exp={} m={}", base, exp, m_raw
        );
    }
    /// Field axioms over random elements of random small prime fields.
    #[test]
    fn field_axioms(p_seed in 3u64..5000, a in any::<u64>(), b in any::<u64>(), c in any::<u64>()) {
        let p = next_prime(p_seed);
        let (fa, fb, fc) = (Fp::new(a, p), Fp::new(b, p), Fp::new(c, p));
        // Commutativity and associativity.
        prop_assert_eq!(fa + fb, fb + fa);
        prop_assert_eq!(fa * fb, fb * fa);
        prop_assert_eq!((fa + fb) + fc, fa + (fb + fc));
        prop_assert_eq!((fa * fb) * fc, fa * (fb * fc));
        // Distributivity.
        prop_assert_eq!(fa * (fb + fc), fa * fb + fa * fc);
        // Inverses.
        prop_assert_eq!(fa - fa, Fp::zero(p));
        if fa.value() != 0 {
            prop_assert_eq!(fa * fa.inverse(), Fp::one(p));
        }
    }

    /// Fermat's little theorem on random field elements.
    #[test]
    fn fermat_little_theorem(p_seed in 3u64..2000, a in 1u64..u64::MAX) {
        let p = next_prime(p_seed);
        let fa = Fp::new(a, p);
        prop_assume!(fa.value() != 0);
        prop_assert_eq!(fa.pow(p - 1), Fp::one(p));
    }

    /// The collision count of two random distinct strings never exceeds the
    /// degree bound λ − 1 — exhaustively over the whole field.
    #[test]
    fn collision_count_respects_degree_bound(
        a in proptest::collection::vec(any::<bool>(), 2..48),
        flips in proptest::collection::vec(any::<usize>(), 1..5)
    ) {
        let lambda = a.len();
        let mut b = a.clone();
        for f in flips {
            let i = f % lambda;
            b[i] = !b[i];
        }
        prop_assume!(a != b);
        let p = protocol_prime(lambda);
        let pa = BitPolynomial::from_bits(&BitString::from_bools(a), p);
        let pb = BitPolynomial::from_bits(&BitString::from_bools(b), p);
        let collisions = (0..p)
            .filter(|&x| pa.eval(Fp::new(x, p)) == pb.eval(Fp::new(x, p)))
            .count();
        prop_assert!(collisions < lambda, "collisions {} >= {}", collisions, lambda);
    }

    /// Protocol completeness at arbitrary lengths and seeds.
    #[test]
    fn protocol_one_sidedness(len in 1usize..200, seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        use rand::RngExt;
        let s = BitString::from_bools((0..len).map(|_| rng.random_bool(0.5)));
        let proto = EqProtocol::for_length(len);
        for _ in 0..8 {
            let msg = proto.alice_message(&s, &mut rng);
            prop_assert!(proto.bob_accepts(&s, &msg));
            prop_assert!(msg.point < proto.modulus());
        }
    }

    /// Message packing round-trips for every protocol size.
    #[test]
    fn message_bit_packing(len in 1usize..500, seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        use rand::RngExt;
        let s = BitString::from_bools((0..len).map(|_| rng.random_bool(0.5)));
        let proto = EqProtocol::for_length(len);
        let msg = proto.alice_message(&s, &mut rng);
        let packed = msg.to_bits(proto.modulus());
        prop_assert_eq!(packed.len(), proto.message_bits());
        let unpacked = rpls_fingerprint::EqMessage::from_bits(&packed, proto.modulus()).unwrap();
        prop_assert_eq!(unpacked, msg);
    }

    /// The windowed `eval_raw` equals the naive power sum at every string
    /// length (including lengths that are not multiples of 4 or 8), on
    /// both sides of the one-word reducer's bound.
    #[test]
    fn windowed_eval_matches_naive_sum(
        len in 0usize..301,
        seed in any::<u64>(),
        pick in 0usize..5,
        raw in any::<u64>(),
        x_raw in any::<u64>(),
    ) {
        let p = pick_prime(pick, raw);
        let bits = random_string(len, seed);
        let poly = BitPolynomial::from_bits(&bits, p);
        for x in [x_raw % p, 0, 1, p - 1] {
            prop_assert_eq!(poly.eval_raw(x), naive_eval(&bits, x, p), "len={} p={} x={}", len, p, x);
        }
    }

    /// Pair evaluation of two strings of independent lengths, at eight
    /// points, equals the naive power sums of each side.
    #[test]
    fn pair_evaluation_matches_naive_sum(
        len_a in 0usize..301,
        len_b in 0usize..301,
        seed in any::<u64>(),
        pick in 0usize..5,
        raw in any::<u64>(),
        x_raw in any::<u64>(),
    ) {
        let p = pick_prime(pick, raw);
        let (a, b) = (random_string(len_a, seed), random_string(len_b, !seed));
        let (pa, pb) = (
            BitPolynomial::from_bits(&a, p),
            BitPolynomial::from_bits(&b, p),
        );
        let xs: [u64; 8] = std::array::from_fn(|l| x_raw.wrapping_mul(l as u64 + 1) % p);
        let want = |x: u64| (naive_eval(&a, x, p), naive_eval(&b, x, p));
        for x in xs {
            prop_assert_eq!(pa.eval_raw_pair(&pb, x), want(x), "len={}/{} x={} p={}", len_a, len_b, x, p);
        }
    }

    /// The full evaluation table equals the naive power sum at every point
    /// of small fields.
    #[test]
    fn evaluation_table_matches_naive_sum(
        len in 0usize..301,
        seed in any::<u64>(),
        raw in 0u64..400,
    ) {
        let p = next_prime(2 + raw);
        let bits = random_string(len, seed);
        let table = BitPolynomial::from_bits(&bits, p).evaluation_table();
        prop_assert_eq!(table.len() as u64, p);
        for (x, &v) in table.iter().enumerate() {
            prop_assert_eq!(v, naive_eval(&bits, x as u64, p), "len={} p={} x={}", len, p, x);
        }
    }

    /// next_prime really returns the next prime.
    #[test]
    fn next_prime_is_minimal(n in 2u64..100_000) {
        let p = next_prime(n);
        prop_assert!(p >= n);
        prop_assert!(is_prime(p));
        for q in n..p {
            prop_assert!(!is_prime(q));
        }
    }
}
