//! Criterion micro-benches for PPR's hot algorithmic paths:
//!
//! * the chunking-DP planner ladder (the `O(L³)` interval spec vs the
//!   `O(L)` production planner, up to L = 4096),
//! * nearest-codeword despreading (the per-codeword receive cost),
//! * the fast chip channel (geometric skipping vs dense Bernoulli),
//! * sparse corruption across the geometric/mask crossover
//!   (`corrupt_sparse`),
//! * the DSP and CRC kernel ladders, tier by tier (`dsp_kernels`),
//! * the feedback codec,
//! * a full PP-ARQ session over a perfect pipe.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use ppr_core::arq::{run_session, PerfectChannel, PpArqConfig};
use ppr_core::dp::{plan_chunks_interval, plan_chunks_with, ChunkScratch, CostModel};
use ppr_core::feedback::Feedback;
use ppr_core::runs::{RunLengths, UnitRange};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn labels_with_l_bad_runs(l: usize, total: usize) -> Vec<bool> {
    // Evenly spaced bad runs of length 3 across `total` units.
    let mut labels = vec![true; total];
    for i in 0..l {
        let start = (i * total) / l;
        for j in 0..3.min(total - start) {
            labels[start + j] = false;
        }
    }
    labels
}

/// The planner ladder: the `O(L³)` interval spec is capped at L = 128
/// (it is already ~700 µs/iter there and cubic beyond); the production
/// planner runs to L = 4096, the regime the interval DP made
/// infeasible. Both produce identical plans (see `tests/properties.rs`).
fn bench_chunking_dp(c: &mut Criterion) {
    let mut group = c.benchmark_group("chunking_dp");
    let mut scratch = ChunkScratch::new();
    for l in [4usize, 16, 64, 128, 1024, 4096] {
        let total = (8 * l).max(1500);
        let labels = labels_with_l_bad_runs(l, total);
        let rl = RunLengths::from_labels(&labels);
        let cost = CostModel::bytes(total);
        assert_eq!(rl.l(), l, "bench labels must produce exactly L runs");
        if l <= 128 {
            group.bench_with_input(BenchmarkId::new("interval", l), &l, |b, _| {
                b.iter(|| plan_chunks_interval(black_box(&rl), black_box(&cost)))
            });
        }
        group.bench_with_input(BenchmarkId::new("production", l), &l, |b, _| {
            b.iter(|| plan_chunks_with(black_box(&rl), black_box(&cost), &mut scratch).cost_bits)
        });
    }
    group.finish();
}

fn bench_despreading(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(1);
    let words: Vec<u32> = (0..3000).map(|_| rng.gen()).collect();
    c.bench_function("despread_hard_3000_codewords", |b| {
        b.iter(|| ppr_phy::spread::despread_hard(black_box(&words)))
    });
    // The same decode through the column entry, pinned to each kernel
    // this CPU offers: the scalar-vs-SIMD ladder (despread_hard uses the
    // widest by default). Random words all miss the exact-codeword
    // shortcut; the `clean_` rows are codewords, which all hit it.
    let clean: Vec<u32> = (0..words.len())
        .map(|_| ppr_phy::chips::CODEBOOK[rng.gen_range(0..16usize)])
        .collect();
    let mut group = c.benchmark_group("despread_kernels_3000");
    let (mut symbols, mut hints) = (vec![0u8; words.len()], vec![0u8; words.len()]);
    for kernel in ppr_phy::simd::DespreadKernel::available() {
        group.bench_function(kernel.name(), |b| {
            b.iter(|| kernel.despread_into(black_box(&words), &mut symbols, &mut hints))
        });
        group.bench_function(format!("clean_{}", kernel.name()), |b| {
            b.iter(|| kernel.despread_into(black_box(&clean), &mut symbols, &mut hints))
        });
    }
    group.finish();
}

fn bench_lazy_decode(c: &mut Criterion) {
    // Demand-driven decode of a clean 1500 B frame: sync-only (header
    // probe), packet-CRC check, and full link-section read.
    let frame = ppr_mac::frame::Frame::new(1, 2, 3, vec![0xA7; 1500]);
    let words = frame.chip_words();
    let receiver = ppr_mac::rx::FrameReceiver::default();
    let data_start = ppr_phy::sync::tx_preamble_chips().len() as i64;
    let mut group = c.benchmark_group("lazy_decode_1500B");
    group.bench_function("sync_only", |b| {
        b.iter(|| receiver.decode_from_preamble_words(black_box(&words), data_start))
    });
    group.bench_function("crc_check", |b| {
        b.iter(|| {
            let rx = receiver.decode_from_preamble_words(black_box(&words), data_start);
            rx.pkt_crc_ok()
        })
    });
    group.bench_function("full_read", |b| {
        b.iter(|| {
            let rx = receiver.decode_from_preamble_words(black_box(&words), data_start);
            rx.link_bytes()
        })
    });
    group.finish();
}

fn bench_chip_channel(c: &mut Criterion) {
    let chips = vec![false; 100_000];
    let mut rng = StdRng::seed_from_u64(2);
    let mut group = c.benchmark_group("chip_channel_100k");
    for (name, p) in [
        ("clean_1e-6", 1e-6),
        ("marginal_0.05", 0.05),
        ("jammed_0.5", 0.5),
    ] {
        let profile = ppr_channel::chip_channel::ErrorProfile::uniform(100_000, p);
        group.bench_function(name, |b| {
            b.iter(|| {
                ppr_channel::chip_channel::corrupt_chips(
                    black_box(&chips),
                    black_box(&profile),
                    &mut rng,
                )
            })
        });
    }
    group.finish();
}

/// Packed (`ChipWords`) vs reference (`Vec<bool>`) chip pipeline at
/// L ∈ {1k, 10k, 100k} chips: corruption in the sparse and jammed
/// regimes, and full-stream despreading.
fn bench_packed_vs_bool(c: &mut Criterion) {
    use ppr_channel::chip_channel::{corrupt_chip_words_in_place, corrupt_chips, ErrorProfile};
    use ppr_phy::chips::ChipWords;
    use ppr_phy::frame_rx::ChipReceiver;

    let mut rng = StdRng::seed_from_u64(3);
    for l in [1_000usize, 10_000, 100_000] {
        let chips: Vec<bool> = (0..l).map(|_| rng.gen()).collect();
        let packed = ChipWords::from_bools(&chips);
        let mut group = c.benchmark_group(format!("packed_vs_bool_{l}"));
        for (regime, p) in [
            ("sparse_0.01", 0.01),
            ("collision_0.2", 0.2),
            ("jammed_0.5", 0.5),
        ] {
            let profile = ErrorProfile::uniform(l as u64, p);
            group.bench_function(format!("corrupt_bool_{regime}"), |b| {
                b.iter(|| corrupt_chips(black_box(&chips), black_box(&profile), &mut rng))
            });
            group.bench_function(format!("corrupt_packed_{regime}"), |b| {
                b.iter(|| {
                    let mut w = packed.clone();
                    corrupt_chip_words_in_place(&mut w, black_box(&profile), &mut rng);
                    w
                })
            });
        }
        let rx = ChipReceiver::default();
        let n_symbols = l / 32;
        group.bench_function("despread_bool", |b| {
            b.iter(|| rx.despread(black_box(&chips), 0, n_symbols))
        });
        group.bench_function("despread_packed", |b| {
            b.iter(|| rx.despread_words(black_box(&packed), 0, n_symbols))
        });
        group.finish();
    }
    // Frame rendering at a representative body size.
    let frame = ppr_mac::frame::Frame::new(1, 2, 3, vec![0xA7; 1500]);
    c.bench_function("frame_chips_bool_1500B", |b| b.iter(|| frame.chips()));
    c.bench_function("frame_chips_packed_1500B", |b| {
        b.iter(|| frame.chip_words())
    });
}

/// Sparse corruption around the geometric/mask crossover: the packed
/// sampler (one RNG draw per flip, geometric chip skipping) against the
/// dense per-chip Bernoulli mask, at probabilities bracketing the
/// measured p ≈ 0.029 break-even. The packed rows clone a template and
/// corrupt it in place.
fn bench_corrupt_sparse(c: &mut Criterion) {
    use ppr_channel::chip_channel::{corrupt_chip_words_in_place, corrupt_chips, ErrorProfile};
    use ppr_phy::chips::ChipWords;

    let mut rng = StdRng::seed_from_u64(5);
    let l = 100_000usize;
    let chips: Vec<bool> = (0..l).map(|_| rng.gen()).collect();
    let packed = ChipWords::from_bools(&chips);
    let mut group = c.benchmark_group("corrupt_sparse_100k");
    for p in [0.001f64, 0.01, 0.02, 0.029, 0.05] {
        let profile = ErrorProfile::uniform(l as u64, p);
        group.bench_with_input(BenchmarkId::new("bool", p), &p, |b, _| {
            b.iter(|| corrupt_chips(black_box(&chips), black_box(&profile), &mut rng))
        });
        group.bench_with_input(BenchmarkId::new("packed", p), &p, |b, _| {
            b.iter(|| {
                let mut w = packed.clone();
                corrupt_chip_words_in_place(&mut w, black_box(&profile), &mut rng);
                w
            })
        });
    }
    group.finish();
}

/// The DSP backend kernel ladder (superposition and matched-filter bank
/// — each tier this CPU offers vs the scalar reference it must
/// bit-match) and the CRC-32 kernel ladder on a 1500 B packet.
fn bench_dsp_kernels(c: &mut Criterion) {
    use ppr_phy::complex::Complex32;
    use ppr_phy::pulse::HalfSine;
    use ppr_phy::simd::DspKernel;

    let mut rng = StdRng::seed_from_u64(6);
    let cpx = |n: usize, rng: &mut StdRng| -> Vec<Complex32> {
        (0..n)
            .map(|_| Complex32 {
                re: rng.gen_range(-1.0f32..1.0),
                im: rng.gen_range(-1.0f32..1.0),
            })
            .collect()
    };

    let wave = cpx(4096, &mut rng);
    let rot = Complex32 { re: 0.6, im: -0.8 };
    let mut group = c.benchmark_group("dsp_axpy_4096");
    for kernel in DspKernel::available() {
        let mut out = cpx(wave.len(), &mut rng);
        group.bench_function(kernel.name(), |b| {
            b.iter(|| kernel.axpy_rotated(&mut out, black_box(&wave), rot, 0.5))
        });
    }
    group.finish();

    let sps = 4usize;
    let pulse = HalfSine::new(sps);
    let n_chips = 1000usize;
    let samples = cpx(n_chips * sps + pulse.len(), &mut rng);
    let mut group = c.benchmark_group("dsp_demod_1000chips");
    for kernel in DspKernel::available() {
        let mut soft = Vec::with_capacity(n_chips);
        group.bench_function(kernel.name(), |b| {
            b.iter(|| {
                soft.clear();
                kernel.demod_full_windows(
                    black_box(&samples),
                    pulse.samples(),
                    pulse.energy(),
                    0,
                    sps,
                    n_chips,
                    true,
                    &mut soft,
                );
            })
        });
    }
    group.finish();

    let buf: Vec<u8> = (0..1500).map(|_| rng.gen()).collect();
    let mut group = c.benchmark_group("crc32_1500B");
    group.bench_function("1table", |b| {
        b.iter(|| ppr_mac::crc::crc32_1table(black_box(&buf)))
    });
    group.bench_function("slice16", |b| {
        b.iter(|| ppr_mac::crc::crc32_slice16(black_box(&buf)))
    });
    if ppr_mac::clmul::available() {
        group.bench_function("clmul", |b| {
            b.iter(|| ppr_mac::clmul::crc32_clmul(black_box(&buf)))
        });
    }
    group.finish();
}

fn bench_feedback_codec(c: &mut Criterion) {
    let bytes = vec![0xA5u8; 1500];
    let chunks: Vec<UnitRange> = (0..12)
        .map(|i| UnitRange::new(i * 120, i * 120 + 40))
        .collect();
    let fb = Feedback::from_plan(1, &bytes, chunks);
    let encoded = fb.encode();
    c.bench_function("feedback_encode", |b| b.iter(|| black_box(&fb).encode()));
    c.bench_function("feedback_decode", |b| {
        b.iter(|| Feedback::decode(black_box(&encoded)).unwrap())
    });
}

fn bench_pparq_session(c: &mut Criterion) {
    let payload = vec![0x5Au8; 250];
    c.bench_function("pparq_session_clean_250B", |b| {
        b.iter(|| {
            run_session(
                black_box(&payload),
                PpArqConfig::default(),
                &mut PerfectChannel,
            )
        })
    });
}

fn bench_modem(c: &mut Criterion) {
    let modem = ppr_phy::modem::MskModem::new(4);
    let chips = ppr_phy::modem::unpack_chip_words(&ppr_phy::spread::spread_bytes(&[0xA7; 125]));
    let samples = modem.modulate(&chips);
    c.bench_function("msk_modulate_1000_chips", |b| {
        b.iter(|| modem.modulate(black_box(&chips[..1000])))
    });
    c.bench_function("msk_demodulate_1000_chips", |b| {
        b.iter(|| modem.demodulate(black_box(&samples), 0, 1000, true))
    });
}

criterion_group!(
    benches,
    bench_chunking_dp,
    bench_despreading,
    bench_lazy_decode,
    bench_chip_channel,
    bench_packed_vs_bool,
    bench_corrupt_sparse,
    bench_dsp_kernels,
    bench_feedback_codec,
    bench_pparq_session,
    bench_modem,
);
criterion_main!(benches);
