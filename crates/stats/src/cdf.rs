//! Empirical cumulative distribution functions, and the counting sink
//! that builds one from a sample stream without keeping the stream.

/// An empirical CDF over `f64` samples.
///
/// Non-finite samples are rejected at construction; quantiles use linear
/// interpolation between order statistics (type-7, the numpy default), so
/// medians of even-length samples behave as users expect.
///
/// The samples are stored as counted runs: the sorted values, one entry
/// per run of equal bit patterns, each with the rank one past its last
/// copy. Every query is a rank lookup into those runs, so the answers are
/// bit-identical to indexing the fully sorted sample vector, while a
/// quantised stream of millions of readings costs only its few thousand
/// distinct values.
#[derive(Clone, Debug)]
pub struct Cdf {
    /// `(value, end)`: ascending values, `end` the number of samples in
    /// this run and every run before it.
    runs: Vec<(f64, u64)>,
}

impl Cdf {
    /// Build from raw samples. Panics if any sample is NaN/±inf or if the
    /// slice is empty — an empty CDF has no meaningful quantiles and
    /// constructing one is always a harness bug.
    pub fn from_samples(samples: &[f64]) -> Self {
        assert!(!samples.is_empty(), "Cdf from empty sample set");
        assert!(
            samples.iter().all(|x| x.is_finite()),
            "Cdf requires finite samples"
        );
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let mut runs: Vec<(f64, u64)> = Vec::new();
        for (rank, &x) in (1..).zip(&sorted) {
            match runs.last_mut() {
                Some((value, end)) if value.to_bits() == x.to_bits() => *end = rank,
                _ => runs.push((x, rank)),
            }
        }
        Cdf { runs }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.total() as usize
    }

    /// Always false: construction rejects empty sample sets.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// `(value, count)` for every distinct sample value, ascending.
    pub fn counts(&self) -> impl Iterator<Item = (f64, u64)> + '_ {
        let starts = std::iter::once(0).chain(self.runs.iter().map(|&(_, end)| end));
        self.runs
            .iter()
            .zip(starts)
            .map(|(&(value, end), start)| (value, end - start))
    }

    /// Smallest sample.
    pub fn min(&self) -> f64 {
        self.runs[0].0
    }

    /// Largest sample.
    pub fn max(&self) -> f64 {
        self.runs.last().expect("non-empty").0
    }

    /// Empirical CDF value `P(X <= x)`.
    pub fn fraction_at_or_below(&self, x: f64) -> f64 {
        // partition_point gives the number of runs whose value is <= x.
        let below = self.runs.partition_point(|&(s, _)| s <= x);
        let count = below.checked_sub(1).map_or(0, |i| self.runs[i].1);
        count as f64 / self.total() as f64
    }

    /// Fraction of samples strictly above `x` — e.g. the paper's
    /// "in 10% of the measurements the load is over 95%".
    pub fn fraction_above(&self, x: f64) -> f64 {
        1.0 - self.fraction_at_or_below(x)
    }

    /// Quantile `q ∈ [0, 1]` with linear interpolation.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
        let n = self.total();
        if n == 1 {
            return self.runs[0].0;
        }
        let pos = q * (n - 1) as f64;
        let lo = pos.floor() as u64;
        let hi = pos.ceil() as u64;
        if lo == hi {
            self.at_rank(lo)
        } else {
            let frac = pos - lo as f64;
            self.at_rank(lo) * (1.0 - frac) + self.at_rank(hi) * frac
        }
    }

    /// The median (50th percentile).
    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// Mean of the samples: every copy of every value summed in sorted
    /// order, exactly as over the sorted sample vector.
    pub fn mean(&self) -> f64 {
        let sum = self
            .counts()
            .flat_map(|(value, count)| std::iter::repeat_n(value, count as usize))
            .sum::<f64>();
        sum / self.total() as f64
    }

    /// Evenly spaced `(x, P(X <= x))` points for plotting, always including
    /// the extremes. `points >= 2`.
    pub fn curve(&self, points: usize) -> Vec<(f64, f64)> {
        assert!(points >= 2, "need at least two curve points");
        (0..points)
            .map(|i| {
                let q = i as f64 / (points - 1) as f64;
                (self.quantile(q), q)
            })
            .collect()
    }

    fn total(&self) -> u64 {
        self.runs.last().expect("non-empty").1
    }

    /// The sample of 0-based rank `rank` in sorted order.
    fn at_rank(&self, rank: u64) -> f64 {
        self.runs[self.runs.partition_point(|&(_, end)| end <= rank)].0
    }
}

/// Readings [`SampleCounts`] buffers before folding them into its runs.
const FOLD: usize = 64 * 1024;

/// A counting sink for a stream of non-negative readings: their exact
/// distribution in memory that grows with the number of distinct values,
/// not with the number of samples.
///
/// Readings are buffered as bit patterns and, every 64 Ki of them,
/// sorted and merged into counted runs. Non-negative finite `f64`s order
/// by their bits exactly as by value, so the runs are the distribution's
/// sorted values. A stream shorter than the buffer is never sorted until
/// [`Self::cdf`] is asked for.
#[derive(Clone, Debug, Default)]
pub struct SampleCounts {
    /// `(bits, count)`, ascending and distinct.
    runs: Vec<(u64, u64)>,
    /// Readings not yet folded into `runs`.
    pending: Vec<u64>,
    len: u64,
}

impl SampleCounts {
    /// An empty sink with its buffer sized for `n` readings, up to the
    /// fold size: a stream of known length allocates once.
    pub fn with_capacity(n: usize) -> Self {
        SampleCounts {
            pending: Vec::with_capacity(n.min(FOLD)),
            ..Self::default()
        }
    }

    /// Count a block of readings. Each must be finite and non-negative
    /// (+0.0, not -0.0); the check runs when the block is folded.
    pub fn push_slice(&mut self, values: &[f64]) {
        self.len += values.len() as u64;
        let mut rest = values;
        while !rest.is_empty() {
            let (now, later) = rest.split_at((FOLD - self.pending.len()).min(rest.len()));
            self.pending.extend(now.iter().map(|v| v.to_bits()));
            if self.pending.len() == FOLD {
                self.runs = merge(&self.runs, &mut self.pending);
                self.pending.clear();
            }
            rest = later;
        }
    }

    /// Number of readings counted.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True when nothing has been counted.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The distribution of every reading counted so far. Panics when
    /// empty, like [`Cdf::from_samples`].
    pub fn cdf(&self) -> Cdf {
        assert!(!self.is_empty(), "Cdf from empty sample set");
        let mut end = 0;
        let runs = merge(&self.runs, &mut self.pending.clone())
            .into_iter()
            .map(|(bits, count)| {
                end += count;
                (f64::from_bits(bits), end)
            })
            .collect();
        Cdf { runs }
    }
}

/// Sort `pending` and merge it into the counted `runs`.
fn merge(runs: &[(u64, u64)], pending: &mut [u64]) -> Vec<(u64, u64)> {
    pending.sort_unstable();
    // Sorted by bits, a negative or non-finite reading lands last.
    if let Some(&largest) = pending.last() {
        assert!(
            largest < f64::INFINITY.to_bits(),
            "SampleCounts requires finite non-negative readings, got {}",
            f64::from_bits(largest)
        );
    }
    let mut out = Vec::with_capacity(runs.len() + 64);
    let mut old = runs.iter().copied().peekable();
    for group in pending.chunk_by(|a, b| a == b) {
        let bits = group[0];
        while let Some(run) = old.next_if(|&(b, _)| b < bits) {
            out.push(run);
        }
        let before = old.next_if(|&(b, _)| b == bits).map_or(0, |(_, c)| c);
        out.push((bits, before + group.len() as u64));
    }
    out.extend(old);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even() {
        let odd = Cdf::from_samples(&[3.0, 1.0, 2.0]);
        assert_eq!(odd.median(), 2.0);
        let even = Cdf::from_samples(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(even.median(), 2.5);
    }

    #[test]
    fn quantile_extremes() {
        let c = Cdf::from_samples(&[5.0, 1.0, 9.0]);
        assert_eq!(c.quantile(0.0), 1.0);
        assert_eq!(c.quantile(1.0), 9.0);
        assert_eq!(c.min(), 1.0);
        assert_eq!(c.max(), 9.0);
    }

    #[test]
    fn fraction_at_or_below_counts_ties() {
        let c = Cdf::from_samples(&[1.0, 2.0, 2.0, 3.0]);
        assert_eq!(c.fraction_at_or_below(2.0), 0.75);
        assert_eq!(c.fraction_at_or_below(0.5), 0.0);
        assert_eq!(c.fraction_at_or_below(3.0), 1.0);
        assert!((c.fraction_above(2.0) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn curve_is_monotonic() {
        let samples: Vec<f64> = (0..100).map(|i| (i * 7 % 13) as f64).collect();
        let c = Cdf::from_samples(&samples);
        let curve = c.curve(21);
        assert_eq!(curve.len(), 21);
        for w in curve.windows(2) {
            assert!(w[1].0 >= w[0].0);
            assert!(w[1].1 >= w[0].1);
        }
        assert_eq!(curve[0].1, 0.0);
        assert_eq!(curve[20].1, 1.0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_rejected() {
        let _ = Cdf::from_samples(&[]);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn nan_rejected() {
        let _ = Cdf::from_samples(&[1.0, f64::NAN]);
    }

    #[test]
    fn singleton() {
        let c = Cdf::from_samples(&[4.2]);
        assert_eq!(c.median(), 4.2);
        assert_eq!(c.quantile(0.25), 4.2);
    }

    #[test]
    fn ties_are_stored_once_with_their_count() {
        let c = Cdf::from_samples(&[2.0, 1.0, 2.0, 3.0, 2.0]);
        assert_eq!(c.len(), 5);
        assert_eq!(c.counts().count(), 3);
        assert_eq!(
            c.counts().collect::<Vec<_>>(),
            [(1.0, 1), (2.0, 3), (3.0, 1)]
        );
    }

    #[test]
    fn counts_fold_into_distinct_runs_and_bound_the_buffer() {
        // Three buffers' worth of readings over 7 values.
        let values: Vec<f64> = (0..3 * FOLD).map(|i| (i % 7) as f64 * 0.02).collect();
        let mut counts = SampleCounts::default();
        for block in values.chunks(1000) {
            counts.push_slice(block);
            assert!(counts.pending.len() < FOLD);
        }
        assert_eq!(counts.len(), 3 * FOLD);
        assert_eq!(counts.runs.len(), 7);
        assert!(counts.pending.is_empty());
        assert_eq!(counts.cdf().counts().count(), 7);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_reading_rejected() {
        let mut counts = SampleCounts::default();
        counts.push_slice(&[1.0, -0.5, 2.0]);
        let _ = counts.cdf();
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_zero_rejected() {
        let mut counts = SampleCounts::default();
        counts.push_slice(&[-0.0]);
        let _ = counts.cdf();
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_counts_have_no_cdf() {
        let _ = SampleCounts::default().cdf();
    }
}
