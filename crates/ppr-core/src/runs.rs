//! Run-length representation of a labeled packet (Eq. 2, Fig. 6).
//!
//! After thresholding, a packet is an alternating sequence of good and
//! bad runs. PP-ARQ's planner works on the canonical form
//!
//! `λᵇ₁ λᵍ₁ λᵇ₂ λᵍ₂ … λᵇ_L λᵍ_L`
//!
//! — `L` bad runs, each followed by its good run (the trailing good run
//! may be empty). A good *prefix* of the packet precedes λᵇ₁ and never
//! participates in chunking: it is already received and sits before every
//! candidate chunk.

/// A half-open range of packet units `[start, end)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct UnitRange {
    /// First unit (inclusive).
    pub start: usize,
    /// One-past-last unit.
    pub end: usize,
}

impl UnitRange {
    /// Creates a range.
    pub fn new(start: usize, end: usize) -> Self {
        debug_assert!(start <= end);
        UnitRange { start, end }
    }

    /// Number of units covered.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// True when the range covers nothing.
    pub fn is_empty(&self) -> bool {
        self.end <= self.start
    }

    /// Does the range contain unit `i`?
    pub fn covers(&self, i: usize) -> bool {
        self.start <= i && i < self.end
    }

    /// Do two ranges overlap?
    pub fn overlaps(&self, other: &UnitRange) -> bool {
        self.start < other.end && other.start < self.end
    }
}

/// One bad run and the good run that follows it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunPair {
    /// Start unit of the bad run.
    pub bad_start: usize,
    /// Length of the bad run, `λᵇ` (≥ 1).
    pub bad_len: usize,
    /// Length of the following good run, `λᵍ` (0 allowed for the last).
    pub good_len: usize,
}

impl RunPair {
    /// The bad run as a range.
    pub fn bad(&self) -> UnitRange {
        UnitRange::new(self.bad_start, self.bad_start + self.bad_len)
    }

    /// The following good run as a range.
    pub fn good(&self) -> UnitRange {
        let s = self.bad_start + self.bad_len;
        UnitRange::new(s, s + self.good_len)
    }
}

/// The canonical run-length representation of one labeled packet.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunLengths {
    /// Length of the good prefix before the first bad run.
    pub leading_good: usize,
    /// The `L` (bad, good) run pairs, in packet order.
    pub pairs: Vec<RunPair>,
    /// Total packet length in units.
    pub total: usize,
}

impl RunLengths {
    /// Builds the representation from good/bad labels
    /// (`true` = good).
    pub fn from_labels(labels: &[bool]) -> Self {
        let mut rl = RunLengths::default();
        rl.refill_from_labels(labels);
        rl
    }

    /// Rebuilds the representation in place, reusing the `pairs`
    /// allocation — the per-frame entry point of the feedback fast path
    /// (one `RunLengths` per receiver, refilled each round).
    pub fn refill_from_labels(&mut self, labels: &[bool]) {
        let total = labels.len();
        let mut i = 0;
        while i < total && labels[i] {
            i += 1;
        }
        self.leading_good = i;
        self.total = total;
        self.pairs.clear();
        while i < total {
            debug_assert!(!labels[i]);
            let bad_start = i;
            while i < total && !labels[i] {
                i += 1;
            }
            let bad_len = i - bad_start;
            let good_start = i;
            while i < total && labels[i] {
                i += 1;
            }
            self.pairs.push(RunPair {
                bad_start,
                bad_len,
                good_len: i - good_start,
            });
        }
    }

    /// Number of bad runs, `L`.
    pub fn l(&self) -> usize {
        self.pairs.len()
    }

    /// True when the packet has no bad runs at all.
    pub fn all_good(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Total units labeled bad.
    pub fn bad_units(&self) -> usize {
        self.pairs.iter().map(|p| p.bad_len).sum()
    }

    /// Total units labeled good (prefix + all good runs).
    pub fn good_units(&self) -> usize {
        self.total - self.bad_units()
    }

    /// The chunk `c_{i,j}` of Eq. 3: everything from the start of bad run
    /// `i` through the end of bad run `j` (interior good runs included,
    /// the good run after `j` excluded). Indices are 0-based.
    pub fn chunk_range(&self, i: usize, j: usize) -> UnitRange {
        debug_assert!(i <= j && j < self.pairs.len());
        UnitRange::new(self.pairs[i].bad_start, self.pairs[j].bad().end)
    }

    /// Units of *good* symbols interior to chunk `c_{i,j}`:
    /// `Σ_{l=i}^{j-1} λᵍ_l`.
    pub fn interior_good(&self, i: usize, j: usize) -> usize {
        self.pairs[i..j].iter().map(|p| p.good_len).sum()
    }

    /// Reconstructs the label vector (for round-trip tests).
    pub fn to_labels(&self) -> Vec<bool> {
        let mut labels = vec![true; self.total];
        for p in &self.pairs {
            for l in labels.iter_mut().skip(p.bad_start).take(p.bad_len) {
                *l = false;
            }
        }
        labels
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn labels(s: &str) -> Vec<bool> {
        s.chars().map(|c| c == 'g').collect()
    }

    #[test]
    fn parses_paper_shape() {
        // bad,good alternating from the start: λb=2, λg=3, λb=1, λg=2
        let rl = RunLengths::from_labels(&labels("bbgggbgg"));
        assert_eq!(rl.leading_good, 0);
        assert_eq!(rl.l(), 2);
        assert_eq!(
            rl.pairs[0],
            RunPair {
                bad_start: 0,
                bad_len: 2,
                good_len: 3
            }
        );
        assert_eq!(
            rl.pairs[1],
            RunPair {
                bad_start: 5,
                bad_len: 1,
                good_len: 2
            }
        );
        assert_eq!(rl.bad_units(), 3);
        assert_eq!(rl.good_units(), 5);
    }

    #[test]
    fn leading_good_prefix_is_separate() {
        let rl = RunLengths::from_labels(&labels("gggbbg"));
        assert_eq!(rl.leading_good, 3);
        assert_eq!(rl.l(), 1);
        assert_eq!(
            rl.pairs[0],
            RunPair {
                bad_start: 3,
                bad_len: 2,
                good_len: 1
            }
        );
    }

    #[test]
    fn trailing_bad_run_has_empty_good() {
        let rl = RunLengths::from_labels(&labels("gbbb"));
        assert_eq!(rl.pairs[0].good_len, 0);
        assert_eq!(rl.pairs[0].bad().end, 4);
    }

    #[test]
    fn all_good_packet() {
        let rl = RunLengths::from_labels(&labels("gggg"));
        assert!(rl.all_good());
        assert_eq!(rl.leading_good, 4);
        assert_eq!(rl.bad_units(), 0);
    }

    #[test]
    fn all_bad_packet() {
        let rl = RunLengths::from_labels(&labels("bbbb"));
        assert_eq!(rl.l(), 1);
        assert_eq!(rl.pairs[0].bad_len, 4);
        assert_eq!(rl.good_units(), 0);
    }

    #[test]
    fn empty_packet() {
        let rl = RunLengths::from_labels(&[]);
        assert!(rl.all_good());
        assert_eq!(rl.total, 0);
    }

    #[test]
    fn labels_roundtrip() {
        for s in ["", "g", "b", "gbgbgb", "bbggbbgg", "gggbbbggg", "bgb"] {
            let l = labels(s);
            assert_eq!(RunLengths::from_labels(&l).to_labels(), l, "case {s}");
        }
    }

    #[test]
    fn refill_matches_fresh_construction() {
        // One reused instance across packets of different shapes and
        // lengths must be indistinguishable from fresh parses.
        let mut reused = RunLengths::from_labels(&labels("bgbgbgbgbgbg"));
        for s in ["", "gggg", "b", "bbggbbgg", "gbgbggggggb", "gggbb"] {
            let l = labels(s);
            reused.refill_from_labels(&l);
            assert_eq!(reused, RunLengths::from_labels(&l), "case {s}");
        }
    }

    #[test]
    fn chunk_ranges_and_interior_good() {
        let rl = RunLengths::from_labels(&labels("bbgggbggbb"));
        // pairs: (0,2,g3), (5,1,g2), (8,2,g0)
        assert_eq!(rl.chunk_range(0, 0), UnitRange::new(0, 2));
        assert_eq!(rl.chunk_range(0, 1), UnitRange::new(0, 6));
        assert_eq!(rl.chunk_range(0, 2), UnitRange::new(0, 10));
        assert_eq!(rl.chunk_range(1, 2), UnitRange::new(5, 10));
        assert_eq!(rl.interior_good(0, 2), 5);
        assert_eq!(rl.interior_good(0, 1), 3);
        assert_eq!(rl.interior_good(1, 1), 0);
    }

    #[test]
    fn unit_range_predicates() {
        let r = UnitRange::new(5, 10);
        assert_eq!(r.len(), 5);
        assert!(r.covers(5) && r.covers(9) && !r.covers(10) && !r.covers(4));
        assert!(r.overlaps(&UnitRange::new(9, 12)));
        assert!(!r.overlaps(&UnitRange::new(10, 12)));
        assert!(UnitRange::new(3, 3).is_empty());
    }
}
