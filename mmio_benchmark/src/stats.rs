//! The numbers the benchmark reports: a seeded generator for its inputs,
//! medians and quartiles, and the tail-percentile rule.

/// SplitMix64: the whole input stream of a run is a function of `--seed`,
/// independent of any crate under measurement.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one purpose (`stream`) of one run (`seed`), so that
    /// adding a draw in one place never shifts the draws of another.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA24B_AED4_963E_E407));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..hi` (`hi > lo`).
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.range(0, i as u64 + 1) as usize);
        }
    }
}

/// The `p`-quantile of `values` by linear interpolation between closest
/// ranks (`p = 0.5` is the median). `values` need not be sorted.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n => {
            let pos = p * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = pos.ceil() as usize;
            v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
        }
    }
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// First quartile, median and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method)
/// gives them, since that is the spread rule runs are judged by.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    if ld < 2 {
        let x = v.first().copied().unwrap_or(f64::NAN);
        return (x, x, x);
    }
    let q = |i: usize| {
        let m = ld + 1;
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(2), q(3))
}

/// The median, over consecutive windows of `window` samples (a partial last
/// window left out), of each window's `p`-quantile, and the number of
/// windows. With fewer samples than one window it is the `p`-quantile of
/// them all.
pub fn windowed_percentile(values: &[f64], p: f64, window: usize) -> (f64, usize) {
    let per: Vec<f64> = values
        .chunks_exact(window.max(1))
        .map(|w| percentile(w, p))
        .collect();
    if per.is_empty() {
        (percentile(values, p), 1)
    } else {
        (median(&per), per.len())
    }
}

/// How many samples lie strictly beyond the `p`-quantile of `n` samples.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - ((p * n as f64).ceil() as usize).min(n)
}

/// The fewest samples for which the `p`-quantile keeps at least ten samples
/// beyond it — a run times at least this many operations before it stops.
pub fn min_samples(p: f64) -> usize {
    (1..).find(|&n| samples_beyond(n, p) >= 10).expect("p < 1")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_deterministic_per_seed_and_stream() {
        let draw = |seed, stream| {
            let mut r = Rng::new(seed, stream);
            (0..8).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(1, 0), draw(1, 0));
        assert_ne!(draw(1, 0), draw(2, 0));
        assert_ne!(draw(1, 0), draw(1, 1));
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
    }

    #[test]
    fn percentile_interpolates() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(percentile(&[0.0, 10.0], 0.75), 7.5);
    }

    #[test]
    fn tail_rule_keeps_ten_samples_beyond() {
        assert_eq!(min_samples(0.75), 40);
        assert_eq!(min_samples(0.99), 1000);
        for p in [0.5, 0.75, 0.9, 0.95, 0.99] {
            let n = min_samples(p);
            assert!(samples_beyond(n, p) >= 10, "p={p}");
            assert!(samples_beyond(n - 1, p) < 10, "p={p} is not the fewest");
            // A sorted run of n samples: the reported quantile has ten
            // strictly larger values after it.
            let v: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let q = percentile(&v, p);
            assert!(v.iter().filter(|&&x| x > q).count() >= 10, "p={p}");
        }
    }

    #[test]
    fn windowed_percentile_takes_the_median_window() {
        // Three windows of 100 whose p99s are p, 2p and 10p: the median
        // window reads 2p, and a partial fourth window is left out.
        let mut v: Vec<f64> = (0..300).map(|i| (i % 100) as f64).collect();
        v[100..200].iter_mut().for_each(|x| *x *= 2.0);
        v[200..300].iter_mut().for_each(|x| *x *= 10.0);
        v.extend([1e9; 50]);
        let (tail, windows) = windowed_percentile(&v, 0.99, 100);
        assert_eq!(windows, 3);
        assert!(
            (tail - 2.0 * percentile(&v[..100], 0.99)).abs() < 1e-9,
            "{tail}"
        );
        // Fewer samples than a window: the percentile of them all.
        assert_eq!(windowed_percentile(&v[..50], 0.5, 100), (24.5, 1));
    }
}
