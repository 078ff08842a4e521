//! Sample statistics and the seeded generator every workload draws from.

use std::time::Duration;

/// Fewest samples a reported percentile must leave above itself: a p90
/// needs at least 100 samples, a median at least 20.
pub const MIN_SAMPLES_BEYOND: usize = 10;

/// Samples a p90 needs.
pub const P90_MIN_SAMPLES: usize = MIN_SAMPLES_BEYOND * 10;

/// Wall-time samples of one operation class, in milliseconds.
#[derive(Clone, Debug, Default)]
pub struct Samples {
    values: Vec<f64>,
}

impl Samples {
    pub fn push(&mut self, elapsed: Duration) {
        self.values.push(elapsed.as_secs_f64() * 1e3);
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Sum of the samples, in milliseconds.
    pub fn total_ms(&self) -> f64 {
        self.values.iter().sum()
    }

    /// Mean of the samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            0.0
        } else {
            self.total_ms() / self.values.len() as f64
        }
    }

    /// The `q` quantile, or `None` when fewer than
    /// [`MIN_SAMPLES_BEYOND`] samples lie above it.
    pub fn percentile(&self, q: f64) -> Option<f64> {
        // The epsilon absorbs `1.0 - 0.9` not being exactly 0.1.
        let beyond = self.values.len() as f64 * (1.0 - q) + 1e-9;
        (beyond >= MIN_SAMPLES_BEYOND as f64).then(|| quantile(&self.values, q))
    }

    /// The `q` quantile of however many samples there are (0 when
    /// empty) — for per-layer figures, which carry no sample rule.
    pub fn quantile_any(&self, q: f64) -> f64 {
        if self.values.is_empty() {
            0.0
        } else {
            quantile(&self.values, q)
        }
    }
}

/// Linear interpolation between closest ranks (the "type 7" estimator).
fn quantile(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median of a few set-up timings, in seconds.
pub fn median_secs(values: &[Duration]) -> f64 {
    let secs: Vec<f64> = values.iter().map(Duration::as_secs_f64).collect();
    quantile(&secs, 0.5)
}

/// `num / den`, or 0 when the denominator is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// SplitMix64: a small, seedable, dependency-free generator. The
/// benchmark derives every input ordering and request mix from it, so
/// one seed always gives one input.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples(values: impl IntoIterator<Item = u64>) -> Samples {
        let mut s = Samples::default();
        for v in values {
            s.push(Duration::from_millis(v));
        }
        s
    }

    #[test]
    fn percentiles_interpolate_between_ranks() {
        let s = samples(1..=101);
        assert_eq!(s.percentile(0.5), Some(51.0));
        assert_eq!(s.percentile(0.9), Some(91.0));
        assert_eq!(s.quantile_any(0.0), 1.0);
        assert_eq!(s.quantile_any(1.0), 101.0);
        assert_eq!(samples([4, 1, 3, 2]).quantile_any(0.5), 2.5);
        assert_eq!(s.mean(), 51.0);
    }

    #[test]
    fn p90_is_refused_below_one_hundred_samples() {
        assert_eq!(samples(1..=99).percentile(0.9), None);
        assert!(samples(1..=100).percentile(0.9).is_some());
        assert_eq!(samples(1..=19).percentile(0.5), None);
        assert!(samples(1..=20).percentile(0.5).is_some());
        assert_eq!(Samples::default().percentile(0.5), None);
        assert_eq!(Samples::default().quantile_any(0.5), 0.0);
    }

    #[test]
    fn set_up_median_and_ratio() {
        let d = |ms| Duration::from_millis(ms);
        assert_eq!(median_secs(&[d(300), d(100), d(200)]), 0.2);
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(ratio(3.0, 2.0), 1.5);
    }

    #[test]
    fn rng_is_seeded_and_shuffles_into_a_permutation() {
        let draw = |seed| {
            let mut rng = Rng::new(seed);
            (0..8).map(|_| rng.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
        let mut items: Vec<usize> = (0..31).collect();
        Rng::new(3).shuffle(&mut items);
        assert_ne!(items, (0..31).collect::<Vec<_>>());
        items.sort_unstable();
        assert_eq!(items, (0..31).collect::<Vec<_>>());
        let mut rng = Rng::new(1);
        assert!((0..1000).all(|_| rng.below(6) < 6));
    }
}
