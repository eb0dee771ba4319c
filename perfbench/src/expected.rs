//! Verdict digests recorded when the benchmark was built. The reference
//! check runs the same verifier as the timed jobs, so only a recorded
//! digest catches a change that alters every verdict alike.

use crate::summary::Digest;

/// `(workload, seed, digest of the first jobs' verdicts)`; a `None` seed
/// stands for every seed. `probe_kernel`'s verdicts do not depend on the
/// seed: its honest jobs accept every trial and its tampered job rejects
/// every trial. `tcp_service` has one per seed used while the benchmark
/// was built (1–20) and one for the held-out seed (7340033).
const DIGESTS: &[(&str, Option<u64>, u64)] = &[
    ("probe_kernel", None, 0xa390_4fb4_6ae1_cba6),
    ("tcp_service", Some(1), 0x73c7_a553_e39b_58cd),
    ("tcp_service", Some(2), 0xb843_bd59_9302_c89e),
    ("tcp_service", Some(3), 0x816f_32e2_2698_70bc),
    ("tcp_service", Some(4), 0xc142_3aef_54ca_15d2),
    ("tcp_service", Some(5), 0xa368_1378_7a54_de24),
    ("tcp_service", Some(6), 0x4afb_f4e3_66e5_df67),
    ("tcp_service", Some(7), 0xe6df_7dab_e334_5a86),
    ("tcp_service", Some(8), 0x33f0_da08_344a_5143),
    ("tcp_service", Some(9), 0x7d54_8696_d21b_f366),
    ("tcp_service", Some(10), 0x6385_57df_b333_2f9f),
    ("tcp_service", Some(11), 0x9124_c605_1bca_6aaf),
    ("tcp_service", Some(12), 0xc90b_281a_fb2b_8119),
    ("tcp_service", Some(13), 0xd5ef_b6da_7a7d_0824),
    ("tcp_service", Some(14), 0x8e43_2f85_bc25_fafe),
    ("tcp_service", Some(15), 0x8985_9e75_97a4_b752),
    ("tcp_service", Some(16), 0x341b_53f2_b93c_44c1),
    ("tcp_service", Some(17), 0x977d_26af_2f84_d075),
    ("tcp_service", Some(18), 0xc917_772e_0bb1_7620),
    ("tcp_service", Some(19), 0x85e3_bbca_ba53_083b),
    ("tcp_service", Some(20), 0x04a7_d77e_b0c6_02eb),
    ("tcp_service", Some(7_340_033), 0x437d_bcbe_d356_bdb8),
];

/// Compares a run's digest with the recorded one, when its seed has one;
/// on a mismatch marks every job of the digest prefix failed. Returns a
/// note saying which.
pub fn check(workload: &str, seed: u64, got: Digest, prefix: &mut [bool]) -> String {
    match DIGESTS
        .iter()
        .find(|&&(w, s, _)| w == workload && s.is_none_or(|s| s == seed))
    {
        None => format!("no recorded digest for seed {seed}"),
        Some(&(_, _, want)) if want == got.0 => "digest equals the recorded one".to_string(),
        Some(&(_, _, want)) => {
            prefix.fill(true);
            format!("digest DIFFERS from the recorded {want:016x}")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_recorded_digest_is_enforced() {
        let (want, seed) = (0x437d_bcbe_d356_bdb8, 7_340_033);
        let mut prefix = [false; 3];
        check("tcp_service", seed, Digest(want), &mut prefix);
        assert_eq!(prefix, [false; 3]);
        check("tcp_service", seed, Digest(want ^ 1), &mut prefix);
        assert_eq!(prefix, [true; 3]);
        // An unrecorded seed is not checked; a seed-free entry always is.
        let mut prefix = [false; 3];
        check("tcp_service", u64::MAX, Digest(0), &mut prefix);
        assert_eq!(prefix, [false; 3]);
        check("probe_kernel", u64::MAX, Digest(0), &mut prefix);
        assert_eq!(prefix, [true; 3]);
    }
}
