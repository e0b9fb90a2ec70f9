//! Convolutional coding with soft-output decoding — the paper's third
//! SoftPHY hint source (§3.1: "a particularly interesting instance …
//! is to use the output of the Viterbi decoder", citing SOVA \[11\]).
//!
//! This module implements a rate-1/2, constraint-length-3 convolutional
//! code (generators 7, 5 octal — the classic textbook pair) and a
//! max-log-MAP decoder, which produces exactly the soft output SOVA
//! approximates: for every information bit, the metric gap between the
//! best path deciding `1` and the best path deciding `0`. The magnitude
//! of that gap is a SoftPHY confidence (hint orientation: we report
//! `-|gap|`-style *reliability*, larger = more confident, and provide a
//! helper to convert to the workspace's smaller-is-better hint scale).
//!
//! This PHY design is an *alternative* to the DSSS codebook used by the
//! 802.15.4 pipeline — it exists to demonstrate that the SoftPHY
//! interface is implementation-agnostic (§3.3). No registry experiment
//! decodes with it; its tests pin the soft-output property the paper
//! relies on (decoded-wrong bits carry lower reliability).

/// Constraint length of the code.
pub const CONSTRAINT: usize = 3;
/// Number of trellis states (2^(K-1)).
pub const STATES: usize = 1 << (CONSTRAINT - 1);
/// Generator polynomials (octal 7 and 5).
const GENERATORS: [u8; 2] = [0b111, 0b101];

/// Rate-1/2 convolutional encoder, zero-terminated.
///
/// Output length is `2 × (bits.len() + K − 1)`: the tail flushes the
/// encoder back to state 0 so the decoder can anchor both trellis ends.
pub fn encode(bits: &[bool]) -> Vec<bool> {
    let mut state = 0u8; // (K-1)-bit shift register
    let mut out = Vec::with_capacity(2 * (bits.len() + CONSTRAINT - 1));
    for &b in bits
        .iter()
        .chain(std::iter::repeat_n(&false, CONSTRAINT - 1))
    {
        let reg = ((b as u8) << (CONSTRAINT - 1)) | state;
        for g in GENERATORS {
            out.push((reg & g).count_ones() % 2 == 1);
        }
        state = reg >> 1;
    }
    out
}

/// One decoded information bit with its soft-output reliability.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SovaBit {
    /// The hard decision.
    pub bit: bool,
    /// Soft-output reliability: the max-log-MAP metric gap between the
    /// two hypotheses. Larger ⇒ more confident. Non-negative.
    pub reliability: f32,
}

impl SovaBit {
    /// Converts the reliability to the workspace hint scale
    /// (smaller = more confident), saturating at `max_hint`.
    /// `scale` maps reliability units to hint steps.
    pub fn to_hint(&self, scale: f32, max_hint: u8) -> u8 {
        let h = (max_hint as f32 - self.reliability * scale).max(0.0);
        (h as u8).min(max_hint)
    }
}

/// "Minus infinity" path metric. A finite sentinel (rather than
/// `f32::NEG_INFINITY`) so metric arithmetic stays NaN-free.
const NEG_INF: f32 = -1.0e30;

/// Branch metric table entry: for state `s` and input bit `b`, the two
/// coded bits emitted and the successor state.
fn branch(s: usize, b: bool) -> (usize, [bool; 2]) {
    let reg = ((b as u8) << (CONSTRAINT - 1)) | s as u8;
    let mut coded = [false; 2];
    for (i, g) in GENERATORS.iter().enumerate() {
        coded[i] = (reg & g).count_ones() % 2 == 1;
    }
    ((reg >> 1) as usize, coded)
}

/// Max-log-MAP (SOVA-equivalent) decoder.
///
/// `soft` holds one value per *coded* bit (positive ⇒ bit 1), length
/// `2 × (n_info + K − 1)` as produced by [`encode`] over a soft channel.
/// Returns `n_info` decoded bits with reliabilities.
///
/// Returns `None` when `soft` is too short or not a whole number of
/// trellis steps.
pub fn decode(soft: &[f32]) -> Option<Vec<SovaBit>> {
    if !soft.len().is_multiple_of(2) {
        return None;
    }
    let steps = soft.len() / 2;
    if steps < CONSTRAINT - 1 {
        return None;
    }
    let n_info = steps - (CONSTRAINT - 1);

    // Forward (alpha) pass. alpha[t][s] = best metric of any path
    // reaching state s after t steps.
    let mut alpha = vec![[NEG_INF; STATES]; steps + 1];
    alpha[0][0] = 0.0;
    for t in 0..steps {
        let r = [soft[2 * t], soft[2 * t + 1]];
        for s in 0..STATES {
            if alpha[t][s] <= NEG_INF {
                continue;
            }
            for b in [false, true] {
                let (ns, coded) = branch(s, b);
                let m = metric(&r, &coded);
                let cand = alpha[t][s] + m;
                if cand > alpha[t + 1][ns] {
                    alpha[t + 1][ns] = cand;
                }
            }
        }
    }

    // Backward (beta) pass, anchored at state 0 (zero-terminated).
    let mut beta = vec![[NEG_INF; STATES]; steps + 1];
    beta[steps][0] = 0.0;
    for t in (0..steps).rev() {
        let r = [soft[2 * t], soft[2 * t + 1]];
        for s in 0..STATES {
            let mut best = NEG_INF;
            for b in [false, true] {
                let (ns, coded) = branch(s, b);
                let cand = metric(&r, &coded) + beta[t + 1][ns];
                if cand > best {
                    best = cand;
                }
            }
            beta[t][s] = best;
        }
    }

    // Per-bit max-log-MAP: L(b_t) = max over transitions with b=1 minus
    // max over transitions with b=0 of (alpha + branch + beta).
    let mut out = Vec::with_capacity(n_info);
    for t in 0..n_info {
        let r = [soft[2 * t], soft[2 * t + 1]];
        let mut best = [NEG_INF; 2];
        for (s, &a) in alpha[t].iter().enumerate() {
            if a <= NEG_INF {
                continue;
            }
            for b in [false, true] {
                let (ns, coded) = branch(s, b);
                let cand = a + metric(&r, &coded) + beta[t + 1][ns];
                if cand > best[b as usize] {
                    best[b as usize] = cand;
                }
            }
        }
        let bit = best[1] > best[0];
        let reliability = (best[1] - best[0]).abs();
        out.push(SovaBit { bit, reliability });
    }
    Some(out)
}

#[inline]
fn metric(r: &[f32; 2], coded: &[bool; 2]) -> f32 {
    let mut m = 0.0;
    for i in 0..2 {
        m += if coded[i] { r[i] } else { -r[i] };
    }
    m
}

/// Encodes bits and maps them to clean antipodal soft values (±1) —
/// test/demo helper for driving [`decode`].
pub fn modulate_coded(bits: &[bool]) -> Vec<f32> {
    encode(bits)
        .into_iter()
        .map(|b| if b { 1.0 } else { -1.0 })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn info_bits(rng: &mut StdRng, n: usize) -> Vec<bool> {
        (0..n).map(|_| rng.gen()).collect()
    }

    #[test]
    fn encode_rate_and_termination() {
        let bits = vec![true, false, true, true];
        let coded = encode(&bits);
        assert_eq!(coded.len(), 2 * (bits.len() + CONSTRAINT - 1));
        // Encoding the all-zero word yields the all-zero codeword.
        assert!(encode(&[false; 8]).iter().all(|&b| !b));
    }

    #[test]
    fn clean_roundtrip() {
        let mut rng = StdRng::seed_from_u64(1);
        for n in [1usize, 2, 10, 100, 500] {
            let bits = info_bits(&mut rng, n);
            let decoded = decode(&modulate_coded(&bits)).unwrap();
            assert_eq!(decoded.len(), n);
            let hard: Vec<bool> = decoded.iter().map(|d| d.bit).collect();
            assert_eq!(hard, bits, "n={n}");
            assert!(decoded.iter().all(|d| d.reliability > 0.0));
        }
    }

    #[test]
    fn corrects_scattered_errors() {
        // Free distance of (7,5) is 5: any 2 coded-bit flips far apart
        // are corrected.
        let mut rng = StdRng::seed_from_u64(2);
        let bits = info_bits(&mut rng, 200);
        let mut soft = modulate_coded(&bits);
        soft[30] = -soft[30];
        soft[200] = -soft[200];
        soft[350] = -soft[350];
        let decoded = decode(&soft).unwrap();
        let hard: Vec<bool> = decoded.iter().map(|d| d.bit).collect();
        assert_eq!(hard, bits);
    }

    #[test]
    fn reliability_drops_near_errors() {
        let mut rng = StdRng::seed_from_u64(3);
        let bits = info_bits(&mut rng, 100);
        let mut soft = modulate_coded(&bits);
        // Weaken (don't flip) the coded bits of info bit ~50.
        for v in &mut soft[96..104] {
            *v *= 0.1;
        }
        let decoded = decode(&soft).unwrap();
        let far = decoded[10].reliability;
        let near = decoded[50].reliability;
        assert!(near < far, "near {near} !< far {far}");
    }

    #[test]
    fn soft_output_separates_correct_from_wrong_in_noise() {
        // At moderate noise, decoded-wrong bits must carry systematically
        // lower reliability — the SoftPHY property the paper wants.
        let mut rng = StdRng::seed_from_u64(4);
        let mut rel_correct = Vec::new();
        let mut rel_wrong = Vec::new();
        for _ in 0..30 {
            let bits = info_bits(&mut rng, 300);
            let mut soft = modulate_coded(&bits);
            for s in soft.iter_mut() {
                // σ = 1.0 AWGN over ±1 signaling (≈ 0 dB Eb/N0 after
                // rate loss): plenty of decode errors.
                *s += ppr_box_muller(&mut rng);
            }
            let decoded = decode(&soft).unwrap();
            for (d, &b) in decoded.iter().zip(&bits) {
                if d.bit == b {
                    rel_correct.push(d.reliability as f64);
                } else {
                    rel_wrong.push(d.reliability as f64);
                }
            }
        }
        assert!(
            rel_wrong.len() > 50,
            "want decode errors, got {}",
            rel_wrong.len()
        );
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert!(
            mean(&rel_correct) > 2.0 * mean(&rel_wrong),
            "correct {:.2} vs wrong {:.2}",
            mean(&rel_correct),
            mean(&rel_wrong)
        );
    }

    fn ppr_box_muller(rng: &mut StdRng) -> f32 {
        let u1: f32 = rng.gen::<f32>().max(1e-30);
        let u2: f32 = rng.gen();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
    }

    #[test]
    fn to_hint_orientation() {
        let confident = SovaBit {
            bit: true,
            reliability: 40.0,
        };
        let shaky = SovaBit {
            bit: true,
            reliability: 0.5,
        };
        assert!(confident.to_hint(1.0, 32) < shaky.to_hint(1.0, 32));
        assert_eq!(confident.to_hint(1.0, 32), 0);
    }

    #[test]
    fn decode_rejects_malformed_input() {
        assert!(decode(&[]).is_none());
        assert!(decode(&[1.0]).is_none());
        assert!(decode(&[1.0, -1.0]).is_none()); // shorter than the tail
        assert!(decode(&[1.0, -1.0, 0.5]).is_none()); // odd length
    }

    #[test]
    fn branch_metrics_match_simd_lane_table() {
        // Every transition's metric of the (7,5) trellis is ±A or ±B
        // with A = r0 + r1 and B = r0 − r1. Pin that table against
        // branch()/metric() so a generator change shows here.
        let r = [1.0f32, 10.0];
        let (a, b) = (r[0] + r[1], r[0] - r[1]);
        let expect = [
            ((0, -a), (2, a)),
            ((0, a), (2, -a)),
            ((1, b), (3, -b)),
            ((1, -b), (3, b)),
        ];
        for (s, &((ns0, m0), (ns1, m1))) in expect.iter().enumerate() {
            let (n0, c0) = branch(s, false);
            let (n1, c1) = branch(s, true);
            assert_eq!((n0, metric(&r, &c0)), (ns0, m0), "s={s} b=0");
            assert_eq!((n1, metric(&r, &c1)), (ns1, m1), "s={s} b=1");
        }
    }
}
