//! Sample summaries: nearest-rank percentiles with their sample counts.

/// A latency (or any non-negative quantity) sample set, in nanoseconds
/// unless the caller says otherwise.
#[derive(Clone, Debug, Default)]
pub struct Samples {
    values: Vec<u64>,
    sorted: bool,
}

/// One percentile read off a [`Samples`], with the counts that say how
/// much to trust it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Quantile {
    pub value: f64,
    /// Total samples the percentile was taken over.
    pub n: usize,
    /// Samples strictly above the percentile's rank: a p99 with fewer
    /// than ten of these is mostly one or two slow outliers.
    pub beyond: usize,
}

impl Samples {
    pub fn push(&mut self, v: u64) {
        self.values.push(v);
        self.sorted = false;
    }

    pub fn extend(&mut self, other: &Samples) {
        self.values.extend_from_slice(&other.values);
        self.sorted = false;
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    fn sort(&mut self) {
        if !self.sorted {
            self.values.sort_unstable();
            self.sorted = true;
        }
    }

    /// Nearest-rank percentile `p` in `(0, 100]`: the smallest sample
    /// with at least `p`% of samples at or below it. `None` when empty.
    pub fn percentile(&mut self, p: f64) -> Option<Quantile> {
        if self.values.is_empty() {
            return None;
        }
        assert!(p > 0.0 && p <= 100.0, "percentile {p} out of (0, 100]");
        self.sort();
        let n = self.values.len();
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        let rank = rank.clamp(1, n);
        Some(Quantile {
            value: self.values[rank - 1] as f64,
            n,
            beyond: n - rank,
        })
    }

    pub fn mean(&self) -> Option<f64> {
        if self.values.is_empty() {
            return None;
        }
        Some(self.values.iter().map(|&v| v as f64).sum::<f64>() / self.values.len() as f64)
    }
}

/// Relative width of a [`Hist`] bucket: a value read back is within 0.1%
/// of every value recorded into its bucket.
const RESOLUTION: f64 = 0.002;
/// Enough buckets for 1 ns up to 2^40 ns (18 minutes) at [`RESOLUTION`].
const BUCKETS: usize = 14_000;

/// A log-bucketed histogram: fixed memory however many values it holds
/// (none until the first value), so the benchmark's own footprint does
/// not grow with the op rate and blur the process's peak RSS.
#[derive(Clone, Debug, Default)]
pub struct Hist {
    counts: Vec<u32>,
    n: usize,
}

impl Hist {
    fn index(v: u64) -> usize {
        if v <= 1 {
            return 0;
        }
        (((v as f64).ln() / RESOLUTION.ln_1p()) as usize).min(BUCKETS - 1)
    }

    /// The geometric middle of bucket `i`.
    fn value(i: usize) -> f64 {
        ((i as f64 + 0.5) * RESOLUTION.ln_1p()).exp()
    }

    pub fn record(&mut self, v: u64) {
        if self.counts.is_empty() {
            self.counts = vec![0; BUCKETS];
        }
        self.counts[Hist::index(v)] += 1;
        self.n += 1;
    }

    pub fn merge(&mut self, other: &Hist) {
        if other.n == 0 {
            return;
        }
        if self.counts.is_empty() {
            self.counts = vec![0; BUCKETS];
        }
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.n += other.n;
    }

    pub fn len(&self) -> usize {
        self.n
    }

    /// Nearest-rank percentile, as [`Samples::percentile`].
    pub fn percentile(&self, p: f64) -> Option<Quantile> {
        if self.n == 0 {
            return None;
        }
        assert!(p > 0.0 && p <= 100.0, "percentile {p} out of (0, 100]");
        let rank = (((p / 100.0) * self.n as f64).ceil() as usize).clamp(1, self.n);
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c as usize;
            if seen >= rank {
                return Some(Quantile {
                    value: Hist::value(i),
                    n: self.n,
                    beyond: self.n - rank,
                });
            }
        }
        unreachable!("counts sum to n")
    }
}

/// A percentile read per group of consecutive time windows, and the
/// median over the groups: a burst of host noise moves one group's
/// figure, not the median.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Windowed {
    pub value: f64,
    /// Samples over all groups.
    pub n: usize,
    pub groups: usize,
    /// Samples beyond the percentile in the thinnest group.
    pub min_beyond: usize,
}

/// Percentile `p` of each group of `windows`, median over groups. Uses as
/// many groups (dividing the windows evenly) as leave every group at
/// least `min_n` samples; one group when even all windows together have
/// fewer. `None` without samples.
pub fn windowed(windows: &[Hist], p: f64, min_n: usize) -> Option<Windowed> {
    let n: usize = windows.iter().map(Hist::len).sum();
    if n == 0 {
        return None;
    }
    let group = |g: usize| -> Vec<Hist> {
        windows
            .chunks(windows.len() / g)
            .map(|chunk| {
                let mut h = Hist::default();
                for w in chunk {
                    h.merge(w);
                }
                h
            })
            .collect()
    };
    let groups = (1..=windows.len())
        .rev()
        .filter(|&g| windows.len().is_multiple_of(g))
        .map(group)
        .find(|gs| gs.iter().all(|h| h.len() >= min_n))
        .unwrap_or_else(|| group(1));
    let quantiles: Vec<Quantile> = groups.iter().filter_map(|h| h.percentile(p)).collect();
    let values: Vec<f64> = quantiles.iter().map(|q| q.value).collect();
    Some(Windowed {
        value: median(&values),
        n,
        groups: quantiles.len(),
        min_beyond: quantiles.iter().map(|q| q.beyond).min().unwrap_or(0),
    })
}

/// The median of a small list of run-level figures (set-up repeats).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN figures"));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples(values: impl IntoIterator<Item = u64>) -> Samples {
        let mut s = Samples::default();
        for v in values {
            s.push(v);
        }
        s
    }

    #[test]
    fn nearest_rank_percentiles_and_counts() {
        let mut s = samples((1..=1000).rev());
        let p50 = s.percentile(50.0).unwrap();
        assert_eq!(
            p50,
            Quantile {
                value: 500.0,
                n: 1000,
                beyond: 500
            }
        );
        let p99 = s.percentile(99.0).unwrap();
        assert_eq!(
            p99,
            Quantile {
                value: 990.0,
                n: 1000,
                beyond: 10
            }
        );
        let p100 = s.percentile(100.0).unwrap();
        assert_eq!(
            p100,
            Quantile {
                value: 1000.0,
                n: 1000,
                beyond: 0
            }
        );
    }

    #[test]
    fn small_sets_clamp_to_real_samples() {
        let mut one = samples([42]);
        assert_eq!(one.percentile(1.0).unwrap().value, 42.0);
        assert_eq!(
            one.percentile(99.0).unwrap(),
            Quantile {
                value: 42.0,
                n: 1,
                beyond: 0
            }
        );
        let mut three = samples([30, 10, 20]);
        assert_eq!(three.percentile(50.0).unwrap().value, 20.0);
        assert!(Samples::default().percentile(50.0).is_none());
    }

    #[test]
    fn pushing_after_a_read_resorts() {
        let mut s = samples([5, 1]);
        assert_eq!(s.percentile(100.0).unwrap().value, 5.0);
        s.push(9);
        assert_eq!(s.percentile(100.0).unwrap().value, 9.0);
        assert_eq!(s.len(), 3);
        assert_eq!(s.mean(), Some(5.0));
    }

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() <= b * RESOLUTION
    }

    #[test]
    fn histogram_percentiles_match_exact_ones_within_resolution() {
        let mut h = Hist::default();
        let mut s = Samples::default();
        for v in (1..=10_000u64).map(|i| 20_000 + i * i % 7919 * 13) {
            h.record(v);
            s.push(v);
        }
        for p in [1.0, 50.0, 90.0, 99.0, 100.0] {
            let (a, b) = (h.percentile(p).unwrap(), s.percentile(p).unwrap());
            assert!(close(a.value, b.value), "p{p}: {} vs {}", a.value, b.value);
            assert_eq!((a.n, a.beyond), (b.n, b.beyond), "p{p}");
        }
        assert!(Hist::default().percentile(50.0).is_none());
    }

    #[test]
    fn windowed_takes_the_median_over_groups_with_enough_samples() {
        let window = |v: u64, count: usize| {
            let mut h = Hist::default();
            for _ in 0..count {
                h.record(v);
            }
            h
        };
        // Ten windows of 100 samples; one noisy window does not move the
        // median.
        let mut ws: Vec<Hist> = (0..10).map(|_| window(1_000, 100)).collect();
        ws[3] = window(50_000, 100);
        let w = windowed(&ws, 50.0, 100).unwrap();
        assert!(close(w.value, 1_000.0), "{w:?}");
        assert_eq!((w.n, w.groups), (1_000, 10));
        // 300 samples per group needs groups of five windows: two groups.
        let w = windowed(&ws, 99.0, 300).unwrap();
        assert_eq!(w.groups, 2);
        assert_eq!(w.min_beyond, 5);
        // Too few samples anywhere: one group of everything.
        let w = windowed(&ws, 50.0, 5_000).unwrap();
        assert_eq!((w.groups, w.n), (1, 1_000));
        assert!(windowed(&[Hist::default(), Hist::default()], 50.0, 1).is_none());
    }

    #[test]
    fn median_of_odd_and_even_lists() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
