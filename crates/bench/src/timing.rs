//! Paired timing for the engine bench's within-run ratios.
//!
//! A ratio of two timings is only as good as the conditions its two sides
//! ran under. On a shared host, memory-bound slow phases last seconds, so
//! timing one side and then the other can put the numerator and the
//! denominator in different phases. [`interleaved`] instead alternates
//! short samples of every side, and [`Spread::of_ratios`] reduces the
//! per-round ratios to their median and interquartile range.

use std::time::Instant;

/// Shortest sample: a side whose single call is quicker is called
/// repeatedly within each sample, so timer resolution and scheduler ticks
/// stay small next to what is measured.
const MIN_SAMPLE_SECS: f64 = 0.005;

/// The median and interquartile range of a set of samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spread {
    /// The median.
    pub median: f64,
    /// The third quartile minus the first.
    pub iqr: f64,
}

impl Spread {
    /// The spread of `values`; quartiles interpolate linearly between
    /// order statistics.
    ///
    /// # Panics
    ///
    /// Panics if `values` is empty.
    #[must_use]
    pub fn of(values: &[f64]) -> Self {
        assert!(!values.is_empty(), "a spread needs at least one sample");
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let quantile = |q: f64| {
            let pos = q * (sorted.len() - 1) as f64;
            let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        };
        Self {
            median: quantile(0.5),
            iqr: quantile(0.75) - quantile(0.25),
        }
    }

    /// The spread of the per-round ratios `num[i] / den[i]`.
    ///
    /// # Panics
    ///
    /// Panics if the two sides hold different numbers of rounds, or none.
    #[must_use]
    pub fn of_ratios(num: &[f64], den: &[f64]) -> Self {
        assert_eq!(num.len(), den.len(), "ratios pair rounds one to one");
        let ratios: Vec<f64> = num.iter().zip(den).map(|(n, d)| n / d).collect();
        Self::of(&ratios)
    }

    /// This spread with every sample multiplied by `factor > 0`.
    #[must_use]
    pub fn scaled(self, factor: f64) -> Self {
        Self {
            median: self.median * factor,
            iqr: self.iqr * factor,
        }
    }
}

/// Times `sides` in `rounds` interleaved rounds and returns each side's
/// seconds per call, `secs[side][round]`.
///
/// One untimed warm-up call per side first sizes its sample: a side
/// quicker than 5 ms is called repeatedly within each sample. Round `i`
/// then takes one sample of every side, starting at side `i mod n`, so no
/// side always runs first.
///
/// # Panics
///
/// Panics if `rounds` is 0.
pub fn interleaved(rounds: usize, sides: &mut [&mut dyn FnMut()]) -> Vec<Vec<f64>> {
    assert!(rounds > 0, "need at least one round");
    let calls: Vec<u32> = sides
        .iter_mut()
        .map(|side| {
            let t0 = Instant::now();
            side();
            let once = t0.elapsed().as_secs_f64().max(1e-9);
            (MIN_SAMPLE_SECS / once).ceil().clamp(1.0, 1e6) as u32
        })
        .collect();
    let n = sides.len();
    let mut secs = vec![Vec::with_capacity(rounds); n];
    for round in 0..rounds {
        for offset in 0..n {
            let side = (round + offset) % n;
            let t0 = Instant::now();
            for _ in 0..calls[side] {
                (sides[side])();
            }
            secs[side].push(t0.elapsed().as_secs_f64() / f64::from(calls[side]));
        }
    }
    secs
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    #[test]
    fn spread_interpolates_quartiles() {
        let s = Spread::of(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!(s.median, 3.0);
        assert_eq!(s.iqr, 2.0);
        let even = Spread::of(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(even.median, 2.5);
        assert_eq!(even.iqr, 1.5);
        assert_eq!(
            Spread::of(&[7.0]),
            Spread {
                median: 7.0,
                iqr: 0.0
            }
        );
    }

    #[test]
    fn ratios_pair_rounds_and_scale() {
        let s = Spread::of_ratios(&[2.0, 9.0, 4.0], &[1.0, 3.0, 1.0]);
        assert_eq!(s.median, 3.0);
        assert_eq!(s.scaled(2.0).median, 6.0);
    }

    #[test]
    fn interleaving_rotates_the_first_side() {
        let order = RefCell::new(Vec::new());
        // Each call sleeps past the minimum sample, so one call per sample.
        let call = |side: usize| {
            order.borrow_mut().push(side);
            std::thread::sleep(std::time::Duration::from_millis(6));
        };
        let secs = interleaved(3, &mut [&mut || call(0), &mut || call(1)]);
        assert_eq!(secs.len(), 2);
        assert!(secs
            .iter()
            .all(|s| s.len() == 3 && s.iter().all(|&t| t > 0.0)));
        // Two warm-up calls, then rounds A B, B A, A B.
        assert_eq!(*order.borrow(), [0, 1, 0, 1, 1, 0, 0, 1]);
    }
}
