//! Sample statistics and the verdict digest.

/// How many samples must lie strictly beyond a percentile before it is
/// reported: below that, the tail is a handful of outliers, not a
/// percentile.
pub const MIN_BEYOND: usize = 10;

/// The median (mean of the two middle values for an even count); `None`
/// for no samples.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len().is_multiple_of(2) {
        (v[mid - 1] + v[mid]) / 2.0
    } else {
        v[mid]
    })
}

/// The nearest-rank `q`-quantile (`0 < q < 1`), reported only when at
/// least [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    let n = samples.len();
    if n == 0 {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    if n - rank < MIN_BEYOND {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v[rank - 1])
}

/// The tail latency reported as `job_p99_ms`, with the quantile it is:
/// the 99th percentile when at least [`MIN_BEYOND`] samples lie beyond it,
/// otherwise the highest percentile that has that many beyond it, and the
/// slowest job when no percentile has.
pub fn tail(samples: &[f64]) -> (f64, f64) {
    if let Some(v) = percentile(samples, 0.99) {
        return (v, 0.99);
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n > MIN_BEYOND {
        let rank = n - MIN_BEYOND;
        (v[rank - 1], rank as f64 / n as f64)
    } else {
        (v.last().copied().unwrap_or(0.0), 1.0)
    }
}

/// Arithmetic mean, 0 for no samples.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// `num / den`, 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The share of all trials over `verdicts` that `count` counts (accepting
/// or degraded trials).
pub fn trial_fraction(verdicts: &[Verdict], count: impl Fn(&Verdict) -> u64) -> f64 {
    let trials: u64 = verdicts.iter().map(|v| v.trials).sum();
    ratio(
        verdicts.iter().map(count).sum::<u64>() as f64,
        trials as f64,
    )
}

/// The result of one job, as every workload reports it: the fields of
/// `stats::Estimate` and of the wire `JobResponse` alike.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Verdict {
    pub trials: u64,
    pub accepts: u64,
    pub degraded_trials: u64,
    pub missing_messages: u64,
    pub dropped: u64,
    pub corrupted: u64,
    pub duplicated: u64,
    pub crashed_nodes: u64,
    pub retries: u64,
}

impl Verdict {
    pub fn from_estimate(est: &rpls_core::stats::Estimate) -> Self {
        Self {
            trials: est.trials as u64,
            accepts: est.accepts as u64,
            degraded_trials: est.degraded_trials as u64,
            missing_messages: est.missing_messages as u64,
            dropped: est.counts.dropped as u64,
            corrupted: est.counts.corrupted as u64,
            duplicated: est.counts.duplicated as u64,
            crashed_nodes: est.counts.crashed_nodes as u64,
            retries: est.counts.retries as u64,
        }
    }

    pub fn from_response(resp: &rpls_service::JobResponse) -> Self {
        Self {
            trials: resp.trials,
            accepts: resp.accepts,
            degraded_trials: resp.degraded_trials,
            missing_messages: resp.missing_messages,
            dropped: resp.dropped,
            corrupted: resp.corrupted,
            duplicated: resp.duplicated,
            crashed_nodes: resp.crashed_nodes,
            retries: resp.retries,
        }
    }

    fn words(&self) -> [u64; 9] {
        [
            self.trials,
            self.accepts,
            self.degraded_trials,
            self.missing_messages,
            self.dropped,
            self.corrupted,
            self.duplicated,
            self.crashed_nodes,
            self.retries,
        ]
    }
}

/// A 64-bit digest folding verdicts in job order (FNV-1a over the
/// little-endian words of each verdict).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn fold(&mut self, v: &Verdict) {
        for word in v.words() {
            for byte in word.to_le_bytes() {
                self.0 ^= u64::from(byte);
                self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }

    /// The digest of the first `count` verdicts.
    pub fn of(verdicts: &[Verdict], count: usize) -> Self {
        let mut d = Self::default();
        for v in verdicts.iter().take(count) {
            d.fold(v);
        }
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        // p99 of 1000 samples has exactly 10 beyond it: reported.
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&thousand, 0.99), Some(990.0));
        // 999 samples leave only 9 beyond the p99 rank: withheld.
        assert_eq!(percentile(&thousand[..999], 0.99), None);
        // The median of 20 samples has 10 beyond it; of 19, only 9.
        let twenty: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&twenty, 0.5), Some(10.0));
        assert_eq!(percentile(&twenty[..19], 0.5), None);
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn tail_is_the_highest_supported_percentile() {
        let many: Vec<f64> = (1..=2000).map(f64::from).collect();
        assert_eq!(tail(&many), (1980.0, 0.99));
        // 100 samples support at most the 90th percentile.
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&hundred), (90.0, 0.9));
        assert_eq!(percentile(&hundred, 0.9), Some(90.0));
        assert_eq!(percentile(&hundred, 0.91), None);
        // Ten samples support no percentile at all: the slowest job.
        assert_eq!(tail(&[3.0, 9.0, 1.0]), (9.0, 1.0));
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn digest_depends_on_every_field_and_order() {
        let a = Verdict {
            trials: 16,
            accepts: 3,
            ..Verdict::default()
        };
        let b = Verdict { retries: 1, ..a };
        assert_ne!(Digest::of(&[a], 1), Digest::of(&[b], 1));
        assert_ne!(Digest::of(&[a, b], 2), Digest::of(&[b, a], 2));
        assert_eq!(Digest::of(&[a, b], 1), Digest::of(&[a], 1));
    }
}
