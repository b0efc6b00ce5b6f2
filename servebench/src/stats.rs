//! Exact quantiles over raw per-operation samples.

/// A sorted set of raw samples (nanoseconds or any other unit).
#[derive(Debug, Clone, Default)]
pub struct Samples {
    sorted: Vec<f64>,
}

/// Samples that must lie beyond a reported percentile for it to count.
pub const MIN_TAIL: usize = 10;

impl Samples {
    pub fn new(mut values: Vec<f64>) -> Samples {
        values.sort_by(f64::total_cmp);
        Samples { sorted: values }
    }

    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// The nearest-rank `q`-quantile (`0 < q <= 1`), `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let n = self.sorted.len();
        if n == 0 {
            return None;
        }
        let rank = (q * n as f64).ceil().clamp(1.0, n as f64) as usize;
        self.sorted.get(rank - 1).copied()
    }

    pub fn median(&self) -> Option<f64> {
        self.quantile(0.5)
    }

    pub fn mean(&self) -> Option<f64> {
        if self.sorted.is_empty() {
            None
        } else {
            // gb-lint: allow(float-fold) -- a report-only statistic, not a query answer
            Some(self.sorted.iter().sum::<f64>() / self.sorted.len() as f64)
        }
    }

    /// The `q`-quantile if at least [`MIN_TAIL`] samples lie beyond it;
    /// otherwise the highest quantile that has that many. Returns the
    /// quantile actually reported with its value.
    pub fn tail(&self, q: f64) -> Option<(f64, f64)> {
        let n = self.sorted.len();
        if n <= MIN_TAIL {
            return None;
        }
        let highest = (n - MIN_TAIL) as f64 / n as f64;
        let q = q.min(highest);
        self.quantile(q).map(|v| (q, v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let s = Samples::new((1..=100).rev().map(f64::from).collect());
        assert_eq!(s.median(), Some(50.0));
        assert_eq!(s.quantile(0.99), Some(99.0));
        assert_eq!(s.quantile(1.0), Some(100.0));
        assert_eq!(Samples::default().median(), None);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        let s = Samples::new((1..=1000).map(f64::from).collect());
        assert_eq!(s.tail(0.99), Some((0.99, 990.0)));
        // 100 samples: p99 would leave 1 beyond, so p90 is reported.
        let s = Samples::new((1..=100).map(f64::from).collect());
        assert_eq!(s.tail(0.99), Some((0.9, 90.0)));
        assert_eq!(Samples::new(vec![1.0; 10]).tail(0.5), None);
    }
}
