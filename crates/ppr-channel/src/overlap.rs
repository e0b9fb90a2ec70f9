//! Interference span computation for concurrent transmissions.
//!
//! Every packet a receiver hears competes with whatever else is on the air
//! during (parts of) its flight (paper Fig. 5). This module turns a set of
//! concurrent transmissions into, for one *target* transmission, a
//! piecewise-constant interference-power profile over the target's chips.
//! Each piece then maps to one chip-error probability in the fast channel.

/// A transmission as seen by one receiver: absolute chip-clock start, chip
/// length of the whole frame, and received power at that receiver.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HeardTx {
    /// Identifier of the transmission (simulator-assigned).
    pub id: u64,
    /// Absolute chip index when the first chip of the frame arrives.
    pub start_chip: u64,
    /// Frame length in chips (preamble through postamble).
    pub len_chips: u64,
    /// Received power at the receiver, mW.
    pub power_mw: f64,
}

impl HeardTx {
    /// Exclusive end of the transmission on the chip clock.
    #[inline]
    pub fn end_chip(&self) -> u64 {
        self.start_chip + self.len_chips
    }

    /// Does this transmission overlap `[from, to)` on the chip clock?
    #[inline]
    pub fn overlaps(&self, from: u64, to: u64) -> bool {
        self.start_chip < to && from < self.end_chip()
    }
}

/// One piece of the interference profile, in chip offsets *relative to the
/// target transmission's first chip*.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InterferenceSpan {
    /// First chip (inclusive) of the span, relative to the target.
    pub start: u64,
    /// One-past-last chip of the span, relative to the target.
    pub end: u64,
    /// Total interference power from all overlapping transmissions, mW.
    pub interference_mw: f64,
    /// Power of the single strongest interferer in this span, mW.
    ///
    /// A DSSS collision is not Gaussian: each interferer chip either
    /// opposes or reinforces the signal chip, so the chip error
    /// probability is bimodal in the dominant interferer's amplitude.
    /// The chip channel models the strongest interferer exactly and
    /// only Gaussian-approximates the residue
    /// (`interference_mw − dominant_mw`).
    pub dominant_mw: f64,
}

impl InterferenceSpan {
    /// Number of chips covered.
    #[inline]
    pub fn len(&self) -> u64 {
        self.end - self.start
    }

    /// True when the span covers no chips.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.end <= self.start
    }
}

/// Computes the piecewise-constant interference profile over `target`,
/// given all transmissions the receiver hears (the target itself is
/// skipped by id). Spans tile `[0, target.len_chips)` exactly, in order,
/// with zero-interference gaps included.
pub fn interference_profile(target: &HeardTx, heard: &[HeardTx]) -> Vec<InterferenceSpan> {
    let mut spans = Vec::new();
    interference_profile_into(target, heard, &mut ProfileScratch::default(), &mut spans);
    spans
}

/// Working buffers of [`interference_profile_into`]: the clipped
/// interferer intervals and their power-change events. They keep their
/// capacity across calls, and no call reads what an earlier one left.
#[derive(Debug, Clone, Default)]
pub struct ProfileScratch {
    /// `(from, to, power)` of each overlapping interferer, relative to
    /// the target.
    clipped: Vec<(u64, u64, f64)>,
    /// `(relative chip, power delta)` at each interferer edge.
    events: Vec<(u64, f64)>,
}

/// [`interference_profile`] into `spans` (cleared first), with its
/// working buffers in `scratch`: the allocation-free form for callers
/// that compute one profile per reception.
pub fn interference_profile_into(
    target: &HeardTx,
    heard: &[HeardTx],
    scratch: &mut ProfileScratch,
    spans: &mut Vec<InterferenceSpan>,
) {
    // Collect the clipped intervals and power-change events.
    let ProfileScratch { clipped, events } = scratch;
    clipped.clear();
    events.clear();
    spans.clear();
    for tx in heard {
        if tx.id == target.id || !tx.overlaps(target.start_chip, target.end_chip()) {
            continue;
        }
        let from = tx.start_chip.max(target.start_chip) - target.start_chip;
        let to = tx.end_chip().min(target.end_chip()) - target.start_chip;
        if from < to {
            clipped.push((from, to, tx.power_mw));
            events.push((from, tx.power_mw));
            events.push((to, -tx.power_mw));
        }
    }
    // Stable: events at one chip keep `heard` order, which fixes the
    // order of the float sum below.
    events.sort_by_key(|a| a.0);

    let mut cursor = 0u64;
    let mut level = 0.0f64;
    let mut i = 0;
    let mut push = |start: u64, end: u64, level: f64| {
        let dominant = clipped
            .iter()
            .filter(|&&(f, t, _)| f < end && start < t)
            .map(|&(_, _, p)| p)
            .fold(0.0f64, f64::max);
        spans.push(InterferenceSpan {
            start,
            end,
            interference_mw: level.max(0.0),
            dominant_mw: dominant.min(level.max(0.0)),
        });
    };
    while i < events.len() {
        let at = events[i].0;
        if at > cursor {
            push(cursor, at, level);
            cursor = at;
        }
        // Apply all events at this chip index.
        while i < events.len() && events[i].0 == at {
            level += events[i].1;
            i += 1;
        }
    }
    if cursor < target.len_chips {
        push(cursor, target.len_chips, level);
    }
}

/// The contiguous run of `heard` that can overlap `[from, to)` on the
/// chip clock: every transmission that starts before `to` and less than
/// `max_len` chips before `from`, found by binary search. `heard` must
/// be sorted by `start_chip` and hold no transmission longer than
/// `max_len` chips; every transmission outside the run then misses the
/// window. The run keeps the list's order, so [`interference_profile`]
/// over it sees the same interferers in the same order — and sums the
/// same floats — as over the whole list.
pub fn overlap_window(heard: &[HeardTx], from: u64, to: u64, max_len: u64) -> &[HeardTx] {
    let lo = heard.partition_point(|tx| tx.start_chip.saturating_add(max_len) <= from);
    let hi = lo + heard[lo..].partition_point(|tx| tx.start_chip < to);
    &heard[lo..hi]
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn tx(id: u64, start: u64, len: u64, power: f64) -> HeardTx {
        HeardTx {
            id,
            start_chip: start,
            len_chips: len,
            power_mw: power,
        }
    }

    #[test]
    fn no_interferers_single_zero_span() {
        let target = tx(1, 100, 50, 1.0);
        let spans = interference_profile(&target, &[target]);
        assert_eq!(spans.len(), 1);
        assert_eq!((spans[0].start, spans[0].end), (0, 50));
        assert_eq!(spans[0].interference_mw, 0.0);
    }

    #[test]
    fn partial_overlap_produces_three_spans() {
        let target = tx(1, 100, 100, 1.0);
        let other = tx(2, 140, 30, 0.5);
        let spans = interference_profile(&target, &[target, other]);
        assert_eq!(
            spans,
            vec![
                InterferenceSpan {
                    start: 0,
                    end: 40,
                    interference_mw: 0.0,
                    dominant_mw: 0.0
                },
                InterferenceSpan {
                    start: 40,
                    end: 70,
                    interference_mw: 0.5,
                    dominant_mw: 0.5
                },
                InterferenceSpan {
                    start: 70,
                    end: 100,
                    interference_mw: 0.0,
                    dominant_mw: 0.0
                },
            ]
        );
    }

    #[test]
    fn overlapping_interferers_sum_power() {
        let target = tx(1, 0, 100, 1.0);
        let a = tx(2, 10, 50, 0.3); // covers [10, 60)
        let b = tx(3, 40, 100, 0.7); // covers [40, 100)
        let spans = interference_profile(&target, &[a, b, target]);
        assert_eq!(spans.len(), 4);
        assert!((spans[1].interference_mw - 0.3).abs() < 1e-12); // [10,40)
        assert!((spans[2].interference_mw - 1.0).abs() < 1e-12); // [40,60)
        assert!((spans[3].interference_mw - 0.7).abs() < 1e-12); // [60,100)
    }

    #[test]
    fn interferer_straddling_start_is_clipped() {
        let target = tx(1, 1000, 80, 1.0);
        let early = tx(2, 900, 150, 0.2); // ends at 1050 → covers [0, 50)
        let spans = interference_profile(&target, &[early]);
        assert_eq!(
            spans[0],
            InterferenceSpan {
                start: 0,
                end: 50,
                interference_mw: 0.2,
                dominant_mw: 0.2
            }
        );
        assert_eq!(
            spans[1],
            InterferenceSpan {
                start: 50,
                end: 80,
                interference_mw: 0.0,
                dominant_mw: 0.0
            }
        );
    }

    #[test]
    fn spans_tile_target_exactly() {
        let target = tx(1, 0, 1000, 1.0);
        let heard: Vec<HeardTx> = (0..20)
            .map(|i| tx(i + 2, i * 37, 113, 0.1 * (i as f64 + 1.0)))
            .collect();
        let spans = interference_profile(&target, &heard);
        let mut cursor = 0;
        for s in &spans {
            assert_eq!(s.start, cursor, "gap before {s:?}");
            assert!(s.end > s.start);
            cursor = s.end;
        }
        assert_eq!(cursor, 1000);
    }

    #[test]
    fn non_overlapping_tx_ignored() {
        let target = tx(1, 100, 50, 1.0);
        let before = tx(2, 0, 100, 9.0); // ends exactly at target start
        let after = tx(3, 150, 10, 9.0); // begins exactly at target end
        let spans = interference_profile(&target, &[before, after]);
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].interference_mw, 0.0);
    }

    #[test]
    fn identical_interval_interferers_merge() {
        let target = tx(1, 0, 64, 1.0);
        let a = tx(2, 16, 16, 0.25);
        let b = tx(3, 16, 16, 0.75);
        let spans = interference_profile(&target, &[a, b]);
        assert_eq!(spans.len(), 3);
        assert!((spans[1].interference_mw - 1.0).abs() < 1e-12);
        // Power level returns to zero after both end (no float residue
        // big enough to create a phantom span).
        assert_eq!(spans[2].interference_mw, 0.0);
    }

    /// One random case of the profile corpus: a target and what its
    /// receiver hears, interferers included that are clipped to chip 0,
    /// to the target's end or both, that share an edge with each other
    /// (so events tie), that miss the target, and the target itself.
    fn random_case(rng: &mut impl rand::Rng) -> (HeardTx, Vec<HeardTx>) {
        let target = tx(
            0,
            rng.gen_range(2000u64..6000),
            rng.gen_range(64u64..3000),
            1.0,
        );
        let (s, e) = (target.start_chip, target.end_chip());
        let n = rng.gen_range(0..14);
        let mut heard = vec![target];
        let mut last_edge = s;
        for id in 1..=n {
            let power = rng.gen::<f64>() * 10f64.powi(rng.gen_range(-6..3));
            let (start, end) = match rng.gen_range(0..6) {
                0 => (
                    s - rng.gen_range(1u64..2000),
                    s + rng.gen_range(1..=target.len_chips),
                ),
                1 => (
                    s + rng.gen_range(0..target.len_chips),
                    e + rng.gen_range(0u64..2000),
                ),
                2 => (s - rng.gen_range(0u64..500), e + rng.gen_range(0u64..500)),
                3 => (last_edge, last_edge + rng.gen_range(1u64..800)),
                4 => (e + rng.gen_range(0u64..100), e + rng.gen_range(100u64..900)),
                _ => {
                    let a = s + rng.gen_range(0..target.len_chips);
                    (a, a + rng.gen_range(1u64..900))
                }
            };
            last_edge = if rng.gen() { start } else { end };
            heard.push(tx(id, start, end - start, power));
        }
        let k = rng.gen_range(0..heard.len());
        heard.swap(0, k);
        (target, heard)
    }

    /// `interference_profile_into`, run with buffers left dirty by the
    /// previous case, equals the allocating form bit for bit on a
    /// seeded random corpus.
    #[test]
    fn profile_into_dirty_scratch_equals_profile() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x0050_5052);
        let mut scratch = ProfileScratch::default();
        let mut spans = Vec::new();
        let bits = |v: &[InterferenceSpan]| -> Vec<(u64, u64, u64, u64)> {
            v.iter()
                .map(|s| {
                    (
                        s.start,
                        s.end,
                        s.interference_mw.to_bits(),
                        s.dominant_mw.to_bits(),
                    )
                })
                .collect()
        };
        for case in 0..2000 {
            let (target, heard) = random_case(&mut rng);
            interference_profile_into(&target, &heard, &mut scratch, &mut spans);
            let fresh = interference_profile(&target, &heard);
            assert_eq!(bits(&spans), bits(&fresh), "case {case}");
        }
    }

    proptest! {
        /// The window drops only transmissions that miss the target: the
        /// profile over it equals the profile over the whole list, bit
        /// for bit, on start-sorted lists with mixed frame lengths (equal
        /// starts included), for targets from the list and for foreign
        /// windows.
        #[test]
        fn window_profile_equals_full_profile(
            raw in proptest::collection::vec((0u64..5000, 1u64..900, 1u32..1000), 1..60),
            pick in 0usize..60,
            foreign in (0u64..6000, 1u64..900),
        ) {
            let mut heard: Vec<HeardTx> = raw
                .iter()
                .enumerate()
                .map(|(i, &(start, len, p))| tx(i as u64, start, len, f64::from(p) * 1e-3))
                .collect();
            heard.sort_by_key(|t| t.start_chip);
            let max_len = heard.iter().map(|t| t.len_chips).max().unwrap();
            let target = heard[pick % heard.len()];
            let outsider = tx(u64::MAX, foreign.0, foreign.1, 1.0);
            for target in [target, outsider] {
                let window =
                    overlap_window(&heard, target.start_chip, target.end_chip(), max_len);
                prop_assert!(heard
                    .iter()
                    .filter(|t| !window.contains(t))
                    .all(|t| !t.overlaps(target.start_chip, target.end_chip())));
                prop_assert_eq!(
                    interference_profile(&target, window),
                    interference_profile(&target, &heard)
                );
            }
        }
    }
}
