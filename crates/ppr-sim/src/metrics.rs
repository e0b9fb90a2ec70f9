//! Metric collection: CDFs, CCDFs, quantiles, and hint-statistics
//! histograms shared by the experiments.

/// An empirical distribution built from samples.
#[derive(Debug, Clone, Default)]
pub struct Cdf {
    sorted: Vec<f64>,
}

impl Cdf {
    /// Builds from samples (order irrelevant).
    pub fn from_samples(mut samples: Vec<f64>) -> Self {
        samples.retain(|s| s.is_finite());
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        Cdf { sorted: samples }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// The q-quantile (0 ≤ q ≤ 1), by nearest-rank.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.sorted.is_empty() {
            return f64::NAN;
        }
        let idx = ((q * self.sorted.len() as f64).ceil() as usize).clamp(1, self.sorted.len());
        self.sorted[idx - 1]
    }

    /// The median.
    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// Fraction of samples ≤ x.
    pub fn at(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return f64::NAN;
        }
        let n = self.sorted.partition_point(|&s| s <= x);
        n as f64 / self.sorted.len() as f64
    }

    /// Evaluates the CDF at evenly spaced points of `[lo, hi]` —
    /// the plottable series of the paper's figures.
    pub fn series(&self, lo: f64, hi: f64, points: usize) -> Vec<(f64, f64)> {
        (0..points)
            .map(|i| {
                let x = lo + (hi - lo) * i as f64 / (points - 1).max(1) as f64;
                (x, self.at(x))
            })
            .collect()
    }

    /// Raw sorted samples.
    pub fn samples(&self) -> &[f64] {
        &self.sorted
    }
}

/// Histogram over SoftPHY hint values split by ground-truth correctness
/// (drives Figs. 3 and 15).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HintHistogram {
    /// `counts[h]` for codewords decoded correctly.
    pub correct: Vec<u64>,
    /// `counts[h]` for codewords decoded incorrectly.
    pub incorrect: Vec<u64>,
}

impl Default for HintHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl HintHistogram {
    /// An empty histogram over hints 0..=33 (32 chip flips + the
    /// never-received sentinel).
    pub fn new() -> Self {
        HintHistogram {
            correct: vec![0; 34],
            incorrect: vec![0; 34],
        }
    }

    /// Records one codeword.
    pub fn record(&mut self, hint: u8, was_correct: bool) {
        let h = (hint as usize).min(33);
        if was_correct {
            self.correct[h] += 1;
        } else {
            self.incorrect[h] += 1;
        }
    }

    /// Records one packet's hint/correctness trace: the codewords of
    /// `hints` and `correct`, paired up to the shorter of the two. Same
    /// counts as [`Self::record`] per codeword, tallied on the stack in
    /// four interleaved tallies (nearly every codeword lands in the same
    /// bin, and one tally would serialize on it).
    pub fn record_packet(&mut self, hints: &[u8], correct: &[bool]) {
        let mut tally = [[[0u64; 34]; 2]; 4];
        for (i, (&h, &c)) in hints.iter().zip(correct).enumerate() {
            tally[i % 4][c as usize][(h as usize).min(33)] += 1;
        }
        for t in tally {
            for (counts, t) in [&mut self.incorrect, &mut self.correct].into_iter().zip(t) {
                for (n, t) in counts.iter_mut().zip(t) {
                    *n += t;
                }
            }
        }
    }

    /// Adds `other`'s counts, as if its codewords were recorded here.
    pub fn merge(&mut self, other: &HintHistogram) {
        for (mine, theirs) in [
            (&mut self.correct, &other.correct),
            (&mut self.incorrect, &other.incorrect),
        ] {
            for (n, t) in mine.iter_mut().zip(theirs) {
                *n += t;
            }
        }
    }

    /// Total correct codewords.
    pub fn total_correct(&self) -> u64 {
        self.correct.iter().sum()
    }

    /// Total incorrect codewords.
    pub fn total_incorrect(&self) -> u64 {
        self.incorrect.iter().sum()
    }

    /// CDF of hint values conditioned on correctness:
    /// `P(hint ≤ h | correct)` (Fig. 3's curves).
    pub fn cdf(&self, of_correct: bool) -> Vec<f64> {
        let counts = if of_correct {
            &self.correct
        } else {
            &self.incorrect
        };
        let total: u64 = counts.iter().sum();
        let mut acc = 0u64;
        counts
            .iter()
            .map(|&c| {
                acc += c;
                if total == 0 {
                    f64::NAN
                } else {
                    acc as f64 / total as f64
                }
            })
            .collect()
    }

    /// Miss rate at threshold η: `P(hint ≤ η | incorrect)` — incorrect
    /// codewords falsely labeled good (§7.4.1).
    pub fn miss_rate(&self, eta: u8) -> f64 {
        self.cdf(false)[(eta as usize).min(33)]
    }

    /// False-alarm rate at threshold η: `P(hint > η | correct)` —
    /// correct codewords labeled bad and needlessly retransmitted
    /// (§7.4.2, Fig. 15).
    pub fn false_alarm_rate(&self, eta: u8) -> f64 {
        1.0 - self.cdf(true)[(eta as usize).min(33)]
    }
}

/// The thresholds η at which capacity traces histogram miss runs
/// (Fig. 14's curves).
pub const MISS_RUN_ETAS: [u8; 4] = [1, 2, 3, 4];

/// Longest miss run a trace's [`MissRunHistogram`] tracks in its own
/// bin; longer runs share the last one.
pub const MAX_MISS_RUN: usize = 100;

/// Histogram of contiguous miss-run lengths at several thresholds
/// (Fig. 14).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MissRunHistogram {
    /// Thresholds η under evaluation.
    pub etas: Vec<u8>,
    /// `counts[e][len]`: number of contiguous miss runs of `len` at
    /// `etas[e]` (index 0 unused).
    pub counts: Vec<Vec<u64>>,
}

impl MissRunHistogram {
    /// Creates a histogram for the given thresholds, tracking run
    /// lengths up to `max_len`.
    pub fn new(etas: Vec<u8>, max_len: usize) -> Self {
        let counts = vec![vec![0; max_len + 1]; etas.len()];
        MissRunHistogram { etas, counts }
    }

    /// Records one packet's hint/correctness trace: a *miss* is an
    /// incorrect codeword with `hint ≤ η`; contiguous misses form runs.
    pub fn record_packet(&mut self, hints: &[u8], correct: &[bool]) {
        // Most packets hold no miss even at the largest threshold, and
        // have no run to record.
        let max_eta = self.etas.iter().copied().max().unwrap_or(0);
        let any_miss = hints
            .iter()
            .zip(correct)
            .fold(false, |any, (&h, &c)| any | (!c & (h <= max_eta)));
        if !any_miss {
            return;
        }
        for (e, &eta) in self.etas.iter().enumerate() {
            let max = self.counts[e].len() - 1;
            let mut run = 0usize;
            for (&h, &c) in hints.iter().zip(correct) {
                let miss = !c && h <= eta;
                if miss {
                    run += 1;
                } else if run > 0 {
                    self.counts[e][run.min(max)] += 1;
                    run = 0;
                }
            }
            if run > 0 {
                self.counts[e][run.min(max)] += 1;
            }
        }
    }

    /// Adds `other`'s counts, as if its packets were recorded here.
    ///
    /// # Panics
    /// Panics unless `other` tracks the same thresholds and run lengths.
    pub fn merge(&mut self, other: &MissRunHistogram) {
        assert!(
            self.etas == other.etas
                && self
                    .counts
                    .iter()
                    .map(Vec::len)
                    .eq(other.counts.iter().map(Vec::len)),
            "miss-run histograms of different shapes"
        );
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            for (n, t) in mine.iter_mut().zip(theirs) {
                *n += t;
            }
        }
    }

    /// CCDF of miss-run length at threshold index `e`:
    /// `P(run length ≥ len)`.
    pub fn ccdf(&self, e: usize) -> Vec<(usize, f64)> {
        let total: u64 = self.counts[e].iter().sum();
        if total == 0 {
            return Vec::new();
        }
        let mut tail: u64 = total;
        let mut out = Vec::new();
        for (len, &c) in self.counts[e].iter().enumerate().skip(1) {
            out.push((len, tail as f64 / total as f64));
            tail -= c;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cdf_quantiles() {
        let c = Cdf::from_samples(vec![3.0, 1.0, 2.0, 4.0, 5.0]);
        assert_eq!(c.median(), 3.0);
        assert_eq!(c.quantile(0.0), 1.0);
        assert_eq!(c.quantile(1.0), 5.0);
        assert_eq!(c.at(2.5), 0.4);
        assert_eq!(c.at(10.0), 1.0);
        assert_eq!(c.at(0.0), 0.0);
    }

    #[test]
    fn cdf_handles_empty_and_nan() {
        let c = Cdf::from_samples(vec![f64::NAN, 1.0]);
        assert_eq!(c.len(), 1);
        assert!(Cdf::from_samples(vec![]).median().is_nan());
    }

    #[test]
    fn cdf_series_is_monotone() {
        let c = Cdf::from_samples((0..100).map(|i| (i as f64).sin()).collect());
        let s = c.series(-1.0, 1.0, 21);
        for w in s.windows(2) {
            assert!(w[1].1 >= w[0].1);
        }
        assert_eq!(s.len(), 21);
    }

    #[test]
    fn hint_histogram_rates() {
        let mut h = HintHistogram::new();
        // 90 correct at hint 0, 10 correct at hint 8;
        // 5 incorrect at hint 2, 45 incorrect at hint 12.
        for _ in 0..90 {
            h.record(0, true);
        }
        for _ in 0..10 {
            h.record(8, true);
        }
        for _ in 0..5 {
            h.record(2, false);
        }
        for _ in 0..45 {
            h.record(12, false);
        }
        assert_eq!(h.total_correct(), 100);
        assert_eq!(h.total_incorrect(), 50);
        assert!((h.miss_rate(6) - 0.1).abs() < 1e-12);
        assert!((h.false_alarm_rate(6) - 0.1).abs() < 1e-12);
        assert!((h.false_alarm_rate(8) - 0.0).abs() < 1e-12);
        assert!((h.miss_rate(1) - 0.0).abs() < 1e-12);
    }

    #[test]
    fn miss_runs_counted_correctly() {
        let mut m = MissRunHistogram::new(vec![6], 10);
        // correct pattern: one run of 2 misses, one of 1.
        let hints = [0u8, 3, 3, 9, 0, 2, 0];
        let corr = [true, false, false, false, true, false, true];
        // misses (hint≤6 && !correct): idx1, idx2 (run of 2); idx3 has
        // hint 9 → not a miss; idx5 (run of 1).
        m.record_packet(&hints, &corr);
        assert_eq!(m.counts[0][2], 1);
        assert_eq!(m.counts[0][1], 1);
        let ccdf = m.ccdf(0);
        assert_eq!(ccdf[0], (1, 1.0));
        assert_eq!(ccdf[1], (2, 0.5));
    }

    #[test]
    fn trailing_miss_run_is_flushed() {
        let mut m = MissRunHistogram::new(vec![6], 10);
        m.record_packet(&[0, 0], &[false, false]);
        assert_eq!(m.counts[0][2], 1);
    }
}
