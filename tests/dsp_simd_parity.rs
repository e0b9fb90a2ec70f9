//! Parity harness for the DSP SIMD kernels (`ppr_phy::simd::DspKernel`).
//!
//! The scalar reference paths — the superposition loop the sample-level
//! channel ran before vectorization and `MskModem::chip_soft_value` —
//! are the executable specifications. The AVX2 tier (`addsub` rotation,
//! gathered matched filter) must reproduce them **bit-identically**:
//! these are floating-point reductions, so the kernels preserve the
//! reference's operation order and shape, and this suite pins that with
//! `f32::to_bits` comparisons rather than approximate equality. Kernels the CPU lacks are skipped by
//! construction (`DspKernel::available`); the CI Miri job re-runs the
//! fixed tests with `PPR_NO_SIMD=1`, which pins the *active* kernel to
//! scalar but leaves `available()` intact, so the loops below still
//! cover every tier the host offers.

use ppr::phy::pulse::HalfSine;
use ppr::phy::simd::DspKernel;
use ppr::phy::{Complex32, MskModem};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn complexes(n: usize, rng: &mut StdRng) -> Vec<Complex32> {
    (0..n)
        .map(|_| Complex32 {
            re: rng.gen_range(-2.0f32..2.0),
            im: rng.gen_range(-2.0f32..2.0),
        })
        .collect()
}

fn bits_c(v: &[Complex32]) -> Vec<(u32, u32)> {
    v.iter().map(|c| (c.re.to_bits(), c.im.to_bits())).collect()
}

fn bits_f(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// The process-wide kernel is one detection can actually deliver.
#[test]
fn active_dsp_kernel_is_available() {
    assert!(DspKernel::available().contains(&DspKernel::active()));
}

/// Superposition parity on lengths straddling the 4-lane (AVX2) complex
/// chunk boundary, accumulated over several
/// passes so rounding differences would compound and show.
#[test]
fn axpy_kernels_match_scalar_fixed() {
    let mut rng = StdRng::seed_from_u64(11);
    for n in [0usize, 1, 2, 3, 4, 5, 7, 8, 9, 63, 64, 65, 257] {
        let wave = complexes(n, &mut rng);
        let rot = Complex32 {
            re: rng.gen_range(-1.0f32..1.0),
            im: rng.gen_range(-1.0f32..1.0),
        };
        let amp = rng.gen_range(0.1f32..2.0);
        let base = complexes(n, &mut rng);
        let mut expect = base.clone();
        for _ in 0..3 {
            DspKernel::Scalar.axpy_rotated(&mut expect, &wave, rot, amp);
        }
        for kernel in DspKernel::available() {
            let mut got = base.clone();
            for _ in 0..3 {
                kernel.axpy_rotated(&mut got, &wave, rot, amp);
            }
            assert_eq!(
                bits_c(&got),
                bits_c(&expect),
                "kernel {} n {n}",
                kernel.name()
            );
        }
    }
}

/// Matched-filter bank parity across chip counts straddling the 8-chip
/// AVX2 step, every rail phase, and sample-per-chip factors.
#[test]
fn demod_kernels_match_scalar_fixed() {
    let mut rng = StdRng::seed_from_u64(22);
    for sps in [1usize, 2, 4] {
        let pulse = HalfSine::new(sps);
        for n_chips in [0usize, 1, 7, 8, 9, 16, 33, 100] {
            for start in [0usize, 1, 5] {
                for first_chip_even in [false, true] {
                    let samples = complexes(start + n_chips * sps + pulse.len() + 3, &mut rng);
                    // Same full-window count the demodulator computes.
                    let full = if samples.len() >= start + pulse.len() {
                        ((samples.len() - start - pulse.len()) / sps + 1).min(n_chips)
                    } else {
                        0
                    };
                    let mut expect = Vec::new();
                    DspKernel::Scalar.demod_full_windows(
                        &samples,
                        pulse.samples(),
                        pulse.energy(),
                        start,
                        sps,
                        full,
                        first_chip_even,
                        &mut expect,
                    );
                    for kernel in DspKernel::available() {
                        let mut got = Vec::new();
                        kernel.demod_full_windows(
                            &samples,
                            pulse.samples(),
                            pulse.energy(),
                            start,
                            sps,
                            full,
                            first_chip_even,
                            &mut got,
                        );
                        assert_eq!(
                            bits_f(&got),
                            bits_f(&expect),
                            "kernel {} sps {sps} n {n_chips} start {start} even {first_chip_even}",
                            kernel.name()
                        );
                    }
                }
            }
        }
    }
}

/// The public demodulator (whatever kernel is active) equals the pinned
/// per-chip truncating reference `chip_soft_value` — including tail
/// chips whose correlation window runs off the capture.
#[test]
fn demodulate_matches_chip_soft_value_reference() {
    let mut rng = StdRng::seed_from_u64(33);
    for sps in [1usize, 2, 4] {
        let modem = MskModem::new(sps);
        for (n_chips, cut) in [(40usize, 0usize), (40, 3), (40, 2 * sps + 1), (9, 1)] {
            let total = modem.samples_for_chips(n_chips);
            let samples = complexes(total.saturating_sub(cut), &mut rng);
            for start in [0usize, 2] {
                for first_chip_even in [false, true] {
                    let got = modem.demodulate(&samples, start, n_chips, first_chip_even);
                    let expect: Vec<f32> = (0..n_chips)
                        .map(|k| {
                            let even = (k % 2 == 0) == first_chip_even;
                            modem.chip_soft_value(&samples, start + k * sps, even)
                        })
                        .collect();
                    assert_eq!(
                        bits_f(&got),
                        bits_f(&expect),
                        "sps {sps} n {n_chips} cut {cut} start {start}"
                    );
                }
            }
        }
    }
}

proptest! {
    /// Superposition parity on arbitrary waveforms, rotations, gains
    /// and length mismatches (out shorter, equal, or longer than wave).
    #[test]
    fn axpy_kernels_match_scalar_arbitrary(
        wave in proptest::collection::vec((-4.0f32..4.0, -4.0f32..4.0), 0..300),
        out_len in 0usize..300,
        rot in (-2.0f32..2.0, -2.0f32..2.0),
        amp in 0.01f32..4.0,
        seed in any::<u64>(),
    ) {
        let wave: Vec<Complex32> = wave.iter().map(|&(re, im)| Complex32 { re, im }).collect();
        let rot = Complex32 { re: rot.0, im: rot.1 };
        let mut rng = StdRng::seed_from_u64(seed);
        let base = complexes(out_len, &mut rng);
        let mut expect = base.clone();
        DspKernel::Scalar.axpy_rotated(&mut expect, &wave, rot, amp);
        for kernel in DspKernel::available() {
            let mut got = base.clone();
            kernel.axpy_rotated(&mut got, &wave, rot, amp);
            prop_assert_eq!(bits_c(&got), bits_c(&expect), "kernel {}", kernel.name());
        }
    }

    /// Matched-filter parity on arbitrary geometry; `full` is derived
    /// with the demodulator's own formula so every window is in bounds.
    #[test]
    fn demod_kernels_match_scalar_arbitrary(
        sps in 1usize..5,
        n_chips in 0usize..80,
        start in 0usize..10,
        slack in 0usize..20,
        first_chip_even in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let pulse = HalfSine::new(sps);
        let mut rng = StdRng::seed_from_u64(seed);
        let samples = complexes(start + n_chips * sps + slack, &mut rng);
        let full = if samples.len() >= start + pulse.len() {
            ((samples.len() - start - pulse.len()) / sps + 1).min(n_chips)
        } else {
            0
        };
        let mut expect = Vec::new();
        DspKernel::Scalar.demod_full_windows(
            &samples, pulse.samples(), pulse.energy(), start, sps, full,
            first_chip_even, &mut expect,
        );
        for kernel in DspKernel::available() {
            let mut got = Vec::new();
            kernel.demod_full_windows(
                &samples, pulse.samples(), pulse.energy(), start, sps, full,
                first_chip_even, &mut got,
            );
            prop_assert_eq!(bits_f(&got), bits_f(&expect), "kernel {}", kernel.name());
        }
    }
}
