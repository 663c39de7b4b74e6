//! Order statistics and the failure tally the benchmark reports.

/// Median of `xs` (mean of the two middle values for an even count), as
/// Python's `statistics.median` computes it. `NaN` for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    match s.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// First quartile, median and third quartile of `xs`, with the
/// interpolation of Python's `statistics.quantiles(xs, n=4)` (the
/// default "exclusive" method). Needs at least two samples.
pub fn quartiles(xs: &[f64]) -> Option<[f64; 3]> {
    let s = sorted(xs);
    let ld = s.len();
    if ld < 2 {
        return None;
    }
    let (n, m) = (4i64, ld as i64 + 1);
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..n) {
        let j = (i * m / n).clamp(1, ld as i64 - 1);
        // Negative when the clamp moved j up: Python extrapolates then.
        let delta = (i * m - j * n) as f64;
        let j = j as usize;
        *slot = (s[j - 1] * (n as f64 - delta) + s[j] * delta) / n as f64;
    }
    Some(out)
}

/// Smallest value of `xs`; `NaN` for an empty slice.
pub fn minimum(xs: &[f64]) -> f64 {
    sorted(xs).first().copied().unwrap_or(f64::NAN)
}

/// The highest percentile of a sample that still has at least ten
/// samples beyond it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// Nearest-rank percentile, in percent.
    pub percentile: f64,
    /// The sample at that rank.
    pub value: f64,
    /// How many samples the percentile was taken over.
    pub samples: usize,
}

/// The nearest-rank percentile at rank `len - 10`: exactly ten samples
/// lie beyond it, and no higher percentile has as many. `None` below
/// eleven samples, where every percentile above the minimum has fewer
/// than ten samples beyond it.
pub fn tail(xs: &[f64]) -> Option<Tail> {
    let s = sorted(xs);
    let rank = s.len().checked_sub(10).filter(|&r| r >= 1)?;
    Some(Tail {
        percentile: 100.0 * rank as f64 / s.len() as f64,
        value: s[rank - 1],
        samples: s.len(),
    })
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Counts checked operations and the ones that failed, keeping the name
/// and reason of each failure.
#[derive(Debug, Default)]
pub struct Tally {
    attempted: u64,
    failures: Vec<String>,
}

impl Tally {
    /// Record one checked operation; an `Err` counts as a failure
    /// under the check's name.
    pub fn check(&mut self, name: &str, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(reason) = result {
            self.failures.push(format!("{name}: {reason}"));
        }
    }

    /// Operations checked so far.
    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    /// Operations whose check failed.
    pub fn failed(&self) -> u64 {
        self.failures.len() as u64
    }

    /// The failed share of the attempted operations (0 when none ran).
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed() as f64 / self.attempted as f64
        }
    }

    /// `check: reason` for every failure, in the order they happened.
    pub fn failures(&self) -> &[String] {
        &self.failures
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([5, 1, 3], n=4) == [1.0, 3.0, 5.0]
        assert_eq!(quartiles(&[5.0, 1.0, 3.0]), Some([1.0, 3.0, 5.0]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn minimum_of_a_sample() {
        assert_eq!(minimum(&[3.0, 1.5, 2.0]), 1.5);
        assert!(minimum(&[]).is_nan());
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        assert_eq!(tail(&[1.0; 10]), None);
        let xs: Vec<f64> = (1..=11).map(f64::from).collect();
        let t = tail(&xs).unwrap();
        assert_eq!((t.value, t.samples), (1.0, 11));
        assert!((t.percentile - 100.0 / 11.0).abs() < 1e-12);
        let xs: Vec<f64> = (1..=200).rev().map(f64::from).collect();
        let t = tail(&xs).unwrap();
        assert_eq!((t.percentile, t.value, t.samples), (95.0, 190.0, 200));
        assert_eq!(xs.iter().filter(|&&x| x > t.value).count(), 10);
    }

    #[test]
    fn failure_share_counts_every_failed_check() {
        let mut tally = Tally::default();
        assert_eq!(tally.failed_frac(), 0.0);
        tally.check("a", Ok(()));
        tally.check("b", Err("broken".into()));
        tally.check("c", Ok(()));
        tally.check("d", Ok(()));
        assert_eq!((tally.attempted(), tally.failed()), (4, 1));
        assert_eq!(tally.failed_frac(), 0.25);
        assert_eq!(tally.failures(), ["b: broken".to_string()]);
    }
}
