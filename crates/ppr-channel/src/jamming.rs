//! Jamming-burst geometry: pure chip-clock math shared by the
//! link-level `jam` experiment and the mesh adversary actors.
//!
//! A jammer is, to the channel, just another emitter: a set of
//! `[start, end)` chip intervals during which extra power is on the
//! air. This module owns the *placement* math — duty-cycled pulse
//! trains, interval intersection against a victim frame's window —
//! while the corruption itself flows through the existing
//! [`crate::overlap`]/[`crate::chip_channel`] path. Keeping the
//! placement here (dependency-free, integer-only) lets both the
//! single-link experiment and the 10k-node mesh share one definition
//! of "what a duty cycle means", and makes the schedule trivially
//! deterministic: same parameters, same bursts, on every backend.

/// One jamming burst on the absolute chip clock: `[start, end)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Burst {
    /// First jammed chip (inclusive).
    pub start: u64,
    /// One-past-last jammed chip.
    pub end: u64,
}

impl Burst {
    /// Number of chips jammed.
    #[inline]
    pub fn len(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }

    /// True when the burst covers no chips.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.end <= self.start
    }

    /// Does this burst overlap `[from, to)`?
    #[inline]
    pub fn overlaps(&self, from: u64, to: u64) -> bool {
        self.start < to && from < self.end
    }
}

/// The burst a periodic pulse jammer emits in the period starting at
/// `period_index * period`: the first `duty` fraction of the period is
/// jammed. `duty` is clamped to `[0, 1]`; a zero duty yields an empty
/// burst. Burst length is computed in integer chips (floor), so every
/// period jams exactly the same number of chips.
pub fn pulse_burst(period: u64, duty: f64, period_index: u64) -> Burst {
    let start = period_index.saturating_mul(period);
    let on = (period as f64 * duty.clamp(0.0, 1.0)) as u64;
    Burst {
        start,
        end: start + on.min(period),
    }
}

/// All pulse bursts of a `(period, duty)` train that overlap the chip
/// window `[from, to)`, clipped to the window. Empty for `duty == 0`.
pub fn pulse_bursts_in(period: u64, duty: f64, from: u64, to: u64) -> Vec<Burst> {
    let mut out = Vec::new();
    if period == 0 || duty <= 0.0 || to <= from {
        return out;
    }
    let first = from / period;
    let mut idx = first;
    while idx.saturating_mul(period) < to {
        let b = pulse_burst(period, duty, idx);
        if b.overlaps(from, to) {
            out.push(Burst {
                start: b.start.max(from),
                end: b.end.min(to),
            });
        }
        idx += 1;
    }
    out
}

/// Intersects a burst list with the window `[from, to)` and returns
/// the covered intervals *relative to `from`* — the shape
/// [`crate::chip_channel::ErrorProfile::with_bursts`] wants. Input
/// bursts need not be sorted; output is sorted and non-overlapping
/// (overlapping inputs are merged).
pub fn clip_bursts(bursts: &[Burst], from: u64, to: u64) -> Vec<(u64, u64)> {
    let mut clipped: Vec<(u64, u64)> = bursts
        .iter()
        .filter(|b| b.overlaps(from, to))
        .map(|b| (b.start.max(from) - from, b.end.min(to) - from))
        .collect();
    clipped.sort_unstable();
    let mut merged: Vec<(u64, u64)> = Vec::with_capacity(clipped.len());
    for (s, e) in clipped {
        match merged.last_mut() {
            Some(last) if s <= last.1 => last.1 = last.1.max(e),
            _ => merged.push((s, e)),
        }
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fraction of the window `[from, to)` covered by the bursts.
    fn cover_fraction(bursts: &[Burst], from: u64, to: u64) -> f64 {
        if to <= from {
            return 0.0;
        }
        let covered: u64 = clip_bursts(bursts, from, to)
            .iter()
            .map(|&(s, e)| e - s)
            .sum();
        covered as f64 / (to - from) as f64
    }

    #[test]
    fn pulse_burst_jams_leading_duty_fraction() {
        let b = pulse_burst(1000, 0.25, 3);
        assert_eq!(
            b,
            Burst {
                start: 3000,
                end: 3250
            }
        );
        assert_eq!(b.len(), 250);
        assert!(pulse_burst(1000, 0.0, 5).is_empty());
        // Duty clamps: 1.5 jams the whole period, never more.
        assert_eq!(
            pulse_burst(1000, 1.5, 0),
            Burst {
                start: 0,
                end: 1000
            }
        );
    }

    #[test]
    fn pulse_bursts_in_cover_expected_fraction() {
        // 10 periods of 1000 chips, duty 0.3 → 3000 of 10000 jammed.
        let bursts = pulse_bursts_in(1000, 0.3, 0, 10_000);
        assert_eq!(bursts.len(), 10);
        let f = cover_fraction(&bursts, 0, 10_000);
        assert!((f - 0.3).abs() < 1e-12, "{f}");
    }

    #[test]
    fn pulse_bursts_clip_at_window_edges() {
        // Window starts mid-burst: period 100, duty 0.5 jams [0,50),
        // [100,150)... A window [25, 130) sees [25,50) and [100,130).
        let bursts = pulse_bursts_in(100, 0.5, 25, 130);
        assert_eq!(
            bursts,
            vec![
                Burst { start: 25, end: 50 },
                Burst {
                    start: 100,
                    end: 130
                }
            ]
        );
    }

    #[test]
    fn degenerate_trains_are_empty() {
        assert!(pulse_bursts_in(0, 0.5, 0, 100).is_empty());
        assert!(pulse_bursts_in(100, 0.0, 0, 100).is_empty());
        assert!(pulse_bursts_in(100, 0.5, 50, 50).is_empty());
    }

    #[test]
    fn clip_bursts_merges_and_sorts() {
        let bursts = [
            Burst {
                start: 80,
                end: 120,
            },
            Burst { start: 10, end: 30 },
            Burst { start: 25, end: 40 },
            Burst {
                start: 300,
                end: 400,
            }, // outside window
        ];
        let clipped = clip_bursts(&bursts, 0, 200);
        assert_eq!(clipped, vec![(10, 40), (80, 120)]);
    }

    #[test]
    fn cover_fraction_handles_overlap_without_double_counting() {
        let bursts = [
            Burst { start: 0, end: 60 },
            Burst {
                start: 40,
                end: 100,
            },
        ];
        let f = cover_fraction(&bursts, 0, 100);
        assert!((f - 1.0).abs() < 1e-12);
        assert_eq!(cover_fraction(&bursts, 100, 100), 0.0);
    }
}
