//! Summary statistics for the benchmark's samples.
//!
//! Timings are summarised as a median plus the highest percentile that
//! still has at least [`TAIL_MIN`] samples beyond it, so a reported tail
//! is never a single outlier. Failed operations are counted against the
//! attempts and enter latency summaries as infinitely slow samples: a
//! failure misses every latency limit.

/// Samples that must lie beyond a percentile before it is reported.
pub const TAIL_MIN: usize = 10;

/// Percentiles a tail summary may pick, highest first.
const TAIL_CANDIDATES: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Median of `xs` (mean of the two middle values for an even count);
/// `None` when `xs` is empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        0.5 * (sorted[mid - 1] + sorted[mid])
    })
}

/// A latency distribution: successful samples plus failures, which count
/// as samples slower than any limit.
#[derive(Debug, Clone, Default)]
pub struct Latencies {
    sorted: Vec<f64>,
    failed: usize,
}

/// The highest supported tail percentile of a [`Latencies`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Percentile reported (e.g. 99.0).
    pub percentile: f64,
    /// Its value; infinite when failures reach into the tail.
    pub value: f64,
    /// Samples the summary covers, failures included.
    pub samples: usize,
    /// Samples beyond the percentile.
    pub beyond: usize,
}

impl Latencies {
    /// Summarise `samples` (any order) plus `failed` failed attempts.
    pub fn new(mut samples: Vec<f64>, failed: usize) -> Self {
        samples.sort_by(f64::total_cmp);
        Self {
            sorted: samples,
            failed,
        }
    }

    /// Samples including failures.
    pub fn len(&self) -> usize {
        self.sorted.len() + self.failed
    }

    /// Nearest-rank percentile `p` (0 < p ≤ 100) over successes and
    /// failures together.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        let n = self.len();
        if n == 0 {
            return None;
        }
        let rank = ((p / 100.0) * n as f64).ceil().clamp(1.0, n as f64) as usize;
        Some(self.sorted.get(rank - 1).copied().unwrap_or(f64::INFINITY))
    }

    /// Median over successes and failures together.
    pub fn p50(&self) -> Option<f64> {
        self.percentile(50.0)
    }

    /// The highest candidate percentile with at least [`TAIL_MIN`]
    /// samples beyond it; `None` when there are too few samples for any.
    pub fn tail(&self) -> Option<Tail> {
        let n = self.len();
        TAIL_CANDIDATES.iter().find_map(|&p| {
            let rank = ((p / 100.0) * n as f64).ceil() as usize;
            let beyond = n.saturating_sub(rank);
            (rank >= 1 && beyond >= TAIL_MIN).then(|| Tail {
                percentile: p,
                value: self.percentile(p).expect("non-empty"),
                samples: n,
                beyond,
            })
        })
    }
}

/// Operations attempted and failed. A failure is a non-2xx answer, a
/// transport error, or a job that did not succeed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Count one attempt and whether it succeeded.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Fold another tally into this one.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// Failed ÷ attempted (0 when nothing was attempted).
    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let lat = Latencies::new((1..=100).map(f64::from).collect(), 0);
        assert_eq!(lat.p50(), Some(50.0));
        assert_eq!(lat.percentile(99.0), Some(99.0));
        assert_eq!(lat.percentile(100.0), Some(100.0));
        assert_eq!(Latencies::new(vec![7.0], 0).percentile(1.0), Some(7.0));
        assert_eq!(Latencies::default().p50(), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let samples = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        let t = Latencies::new(samples(1000), 0).tail().unwrap();
        assert_eq!((t.percentile, t.value, t.beyond), (99.0, 990.0, 10));
        let t = Latencies::new(samples(999), 0).tail().unwrap();
        assert_eq!((t.percentile, t.beyond), (95.0, 49));
        let t = Latencies::new(samples(100), 0).tail().unwrap();
        assert_eq!((t.percentile, t.value, t.samples), (90.0, 90.0, 100));
        assert_eq!(Latencies::new(samples(19), 0).tail(), None);
    }

    #[test]
    fn failures_count_as_slowest_samples() {
        let lat = Latencies::new(vec![1.0; 990], 10);
        assert_eq!(lat.len(), 1000);
        let t = lat.tail().unwrap();
        assert_eq!((t.percentile, t.value), (99.0, 1.0));
        let lat = Latencies::new(vec![1.0; 980], 20);
        assert_eq!(lat.tail().unwrap().value, f64::INFINITY);
        let lat = Latencies::new(vec![1.0; 4], 6);
        assert_eq!(lat.p50(), Some(f64::INFINITY));
    }

    #[test]
    fn tally_counts_failures_against_attempts() {
        let mut t = Tally::default();
        assert_eq!(t.error_rate(), 0.0);
        for ok in [true, true, false, true] {
            t.record(ok);
        }
        assert_eq!((t.attempted, t.failed), (4, 1));
        t.merge(Tally {
            attempted: 6,
            failed: 1,
        });
        assert_eq!(t.error_rate(), 0.2);
    }
}
