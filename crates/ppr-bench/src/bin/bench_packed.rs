//! Quick-bench snapshot of the packed chip pipeline: times the
//! packed-vs-bool stages at L ∈ {1k, 10k, 100k} chips, the chunking-DP
//! planner ladder (`plan_chunks_interval_L*` vs `plan_chunks_L*`), the
//! CRC-32 ladder (1-table vs slice-by-16 vs PCLMULQDQ folding), the DSP
//! kernel ladder (`dsp_{axpy,demod}_<kernel>`), plus a small end-to-end
//! reception run, and writes `BENCH_packed.json` (schema v14) so CI can
//! archive the perf trajectory.
//!
//! The end-to-end rows time the reception driver
//! (`process_receptions_2s_ppr_ms`), the PP-ARQ link path (`fig16_300_*`:
//! `fig16::collect_seeded(300)`; `jam_duty_point_*`: one
//! `jam::run_duty_point` at duty 0.3 with the default scenario's
//! sessions and backoff), the two testbed experiments that run as one
//! pool job each (`mrd_*`: `mrd::collect` at the default scenario;
//! `fig13_*`: `fig13::collect`) and the 10k-node mesh floods on the event
//! core, benign (`mesh10k_*`) and jammed with churn (`meshjam_*`): each
//! repeated row runs [`RUNS`] times and reports the run count and the
//! median wall ms with its quartiles; the mesh rows add events/sec at
//! the median and the run's deterministic counts. Schema v6 dropped v5's per-worker and
//! batch-size ladders along with the reception worker threads they
//! measured; v7
//! dropped the time-stepped driver's row along with that driver; v8
//! dropped the SSSE3 despread row with that tier and added the
//! column-entry `despread_{clean,mixed}_*` rows, which show the
//! exact-codeword shortcut's regime split; v9 dropped the quadratic
//! planner, the SSE3 DSP tier and the SOVA vector kernel with their
//! code, renamed the production planner's rows `plan_chunks_L*`,
//! collapsed the SOVA rows into one `dsp_sova_500bits` and folded
//! `corrupt_packed_inplace_*` into `corrupt_packed_*`, which now times
//! clone + in place; v10 dropped `dsp_sova_500bits` with the SOVA
//! decoder, which no experiment reached; v11 turned the one-sample
//! `mesh10k_ms` into a median over repeated runs (with `_runs`, `_q1_ms`
//! and `_q3_ms` rows) and added the same rows for `meshjam`; v12 points
//! the `decode_1500B_*` rows at the in-place receive step (a reused
//! `RxCapture`; `sync_only` now despreads the whole section, since the
//! capture does so once the header verifies), adds
//! `decode_1500B_owned` for the allocating wrapper, and adds the
//! repeated `fig16_300_*` and `jam_duty_point_*` link-path rows; v13
//! adds the mesh floods on a decode crew of one helper
//! (`mesh10k_h1_*`, `meshjam_h1_*`, the same repeated rows); v14 adds
//! the repeated `mrd_*` and `fig13_*` rows.
//! Wall-clock reads live here, not in `ppr-sim` — simulation code is
//! banned from timing itself (the ppr-lint `determinism` rule).
//!
//! Timings are coarse (tens of milliseconds per entry) on purpose — this
//! is a smoke-level trend tracker, not a statistics engine; use
//! `cargo bench -p ppr-bench` for interactive comparisons. Only the
//! link-path, testbed-experiment and mesh runs, the slowest and
//! noisiest rows, are repeated.

use ppr_channel::chip_channel::{corrupt_chip_words_in_place, corrupt_chips, ErrorProfile};
use ppr_core::dp::{plan_chunks_interval, plan_chunks_with, ChunkScratch, CostModel};
use ppr_core::runs::RunLengths;
use ppr_mac::schemes::DeliveryScheme;
use ppr_mac::BackoffPolicy;
use ppr_phy::chips::ChipWords;
use ppr_phy::complex::Complex32;
use ppr_phy::frame_rx::ChipReceiver;
use ppr_phy::pulse::HalfSine;
use ppr_phy::simd::{DespreadKernel, DspKernel};
use ppr_sim::experiments::jam::{self, JAM_PERIOD};
use ppr_sim::experiments::mesh::{run_mesh, MeshParams, MESH_BODY_BYTES};
use ppr_sim::experiments::meshjam::meshjam_params;
use ppr_sim::experiments::{fig13, fig16, mrd};
use ppr_sim::network::{generate_timeline, process_receptions, RadioEnv, RxArm, SimConfig};
use ppr_sim::scenario::ScenarioBuilder;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Runs per repeated row: enough for a median and quartiles.
const RUNS: usize = 7;

/// Mean ns/iteration of `f`, measured over ~20 ms after one warm-up.
fn time_ns<R>(mut f: impl FnMut() -> R) -> f64 {
    std::hint::black_box(f());
    let budget = std::time::Duration::from_millis(20);
    let start = Instant::now();
    let mut iters = 0u64;
    while start.elapsed() < budget {
        std::hint::black_box(f());
        iters += 1;
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

/// Runs `f` [`RUNS`] times and pushes `{name}_runs` and the median wall
/// ms with its quartiles (`{name}_ms`, `{name}_q1_ms`, `{name}_q3_ms`);
/// returns the median in seconds and the last run's result.
fn repeated<R>(entries: &mut Vec<(String, f64)>, name: &str, mut f: impl FnMut() -> R) -> (f64, R) {
    let mut walls = Vec::with_capacity(RUNS);
    let mut last = None;
    for _ in 0..RUNS {
        let t = Instant::now();
        last = Some(std::hint::black_box(f()));
        walls.push(t.elapsed().as_secs_f64());
    }
    walls.sort_by(f64::total_cmp);
    // Inclusive quantiles, interpolated between neighboring runs.
    let quantile = |q: f64| {
        let pos = q * (RUNS - 1) as f64;
        let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
        walls[lo] + (walls[hi] - walls[lo]) * (pos - lo as f64)
    };
    let median = quantile(0.5);
    entries.push((format!("{name}_runs"), RUNS as f64));
    entries.push((format!("{name}_ms"), median * 1e3));
    entries.push((format!("{name}_q1_ms"), quantile(0.25) * 1e3));
    entries.push((format!("{name}_q3_ms"), quantile(0.75) * 1e3));
    (median, last.expect("RUNS > 0"))
}

fn main() {
    let mut rng = StdRng::seed_from_u64(1);
    let mut entries: Vec<(String, f64)> = Vec::new();

    for l in [1_000usize, 10_000, 100_000] {
        let chips: Vec<bool> = (0..l).map(|_| rng.gen()).collect();
        let packed = ChipWords::from_bools(&chips);
        for (regime, p) in [
            ("sparse_0.01", 0.01),
            ("collision_0.2", 0.2),
            ("jammed_0.5", 0.5),
        ] {
            let profile = ErrorProfile::uniform(l as u64, p);
            entries.push((
                format!("corrupt_bool_{regime}_{l}"),
                time_ns(|| corrupt_chips(&chips, &profile, &mut rng)),
            ));
            // Clone a packed template and corrupt it in place (the clone
            // is a memcpy, not a per-chip rebuild).
            entries.push((
                format!("corrupt_packed_{regime}_{l}"),
                time_ns(|| {
                    let mut w = packed.clone();
                    corrupt_chip_words_in_place(&mut w, &profile, &mut rng);
                    w
                }),
            ));
        }
        let rx = ChipReceiver::default();
        entries.push((
            format!("despread_bool_{l}"),
            time_ns(|| rx.despread(&chips, 0, l / 32)),
        ));
        entries.push((
            format!("despread_packed_{l}"),
            time_ns(|| rx.despread_words(&packed, 0, l / 32)),
        ));
        // The bare codebook scan, kernel by kernel (gather excluded), on
        // random words — every word misses the exact-codeword shortcut,
        // the mesh's mostly-dirty regime: what each vector width buys.
        let words: Vec<u32> = (0..l / 32).map(|s| packed.extract_u32(s * 32)).collect();
        for kernel in DespreadKernel::available() {
            let mut out = Vec::with_capacity(words.len());
            entries.push((
                format!("decide_{}_{l}", kernel.name()),
                time_ns(|| {
                    out.clear();
                    kernel.decide_into(&words, &mut out);
                }),
            ));
        }
        // The same decode through the column entry on codeword streams:
        // all clean (every vector skips the scan), and the testbed's
        // regime of ~18 % dirty 64-chip lanes, dirtied in bursts as
        // collisions do.
        let clean: Vec<u32> = (0..l / 32)
            .map(|_| ppr_phy::chips::CODEBOOK[rng.gen_range(0..16usize)])
            .collect();
        // A 16-lane burst starts at each clean lane with probability q,
        // so 16q / (1 + 15q) of the lanes end up dirty: 18 % at q below.
        let mut mixed = clean.clone();
        let mut lane = 0;
        while lane < mixed.len() / 2 {
            if rng.gen_bool(0.18 / (16.0 - 15.0 * 0.18)) {
                for w in mixed.iter_mut().skip(2 * lane).take(2 * 16) {
                    *w ^= 1u32 << rng.gen_range(0..32);
                }
                lane += 16;
            } else {
                lane += 1;
            }
        }
        let kernel = DespreadKernel::active();
        let (mut symbols, mut hints) = (vec![0u8; clean.len()], vec![0u8; clean.len()]);
        for (regime, words) in [("clean", &clean), ("mixed", &mixed)] {
            entries.push((
                format!("despread_{regime}_{l}"),
                time_ns(|| kernel.despread_into(words, &mut symbols, &mut hints)),
            ));
        }
    }

    let frame = ppr_mac::frame::Frame::new(1, 2, 3, vec![0xA7; 1500]);
    entries.push(("frame_chips_bool_1500B".into(), time_ns(|| frame.chips())));
    entries.push((
        "frame_chips_packed_1500B".into(),
        time_ns(|| frame.chip_words()),
    ));

    // The in-place receive step on a clean 1500 B frame, into one reused
    // capture: the decode itself (header probe, then the whole link
    // section once the header verifies), the decode plus the
    // packet-CRC check, the decode plus a read of the body columns, and
    // the allocating wrapper (a fresh capture turned into an owned
    // frame).
    {
        let words = frame.chip_words();
        let receiver = ppr_mac::rx::FrameReceiver::default();
        let data_start = ppr_phy::sync::tx_preamble_chips().len() as i64;
        let mut capture = ppr_mac::rx::RxCapture::default();
        entries.push((
            "decode_1500B_sync_only".into(),
            time_ns(|| {
                receiver
                    .decode_from_preamble_into(&words, data_start, &mut capture)
                    .link_len()
            }),
        ));
        entries.push((
            "decode_1500B_crc_check".into(),
            time_ns(|| {
                receiver
                    .decode_from_preamble_into(&words, data_start, &mut capture)
                    .pkt_crc_ok()
            }),
        ));
        entries.push((
            "decode_1500B_full".into(),
            time_ns(|| {
                let rx = receiver.decode_from_preamble_into(&words, data_start, &mut capture);
                rx.body_columns().map(|b| b.bytes[b.bytes.len() / 2])
            }),
        ));
        entries.push((
            "decode_1500B_owned".into(),
            time_ns(|| receiver.decode_from_preamble_words(&words, data_start)),
        ));
        // The owned byte reads one delivery makes of a decoded frame:
        // the packet-CRC check, the body and its byte hints.
        let rx = receiver.decode_from_preamble_words(&words, data_start);
        entries.push((
            "read_1500B_cached".into(),
            time_ns(|| (rx.pkt_crc_ok(), rx.body_bytes(), rx.body_byte_hints())),
        ));
    }

    // Chunking-DP planner ladder: the O(L³) interval spec vs the O(L)
    // production planner on L evenly spaced 3-unit bad runs. Two
    // deliberate exceptions to the 20 ms/entry budget:
    // `plan_chunks_interval_L1024` runs one ~0.4 s iteration so the
    // trajectory records the baseline the production planner is
    // measured against, and the interval DP is skipped entirely at
    // L = 4096 — it is cubic and would take tens of seconds per
    // iteration there, which is precisely the point of the ladder.
    {
        let mut scratch = ChunkScratch::new();
        for l in [128usize, 1024, 4096] {
            let total = (8 * l).max(1500);
            let mut labels = vec![true; total];
            for i in 0..l {
                let start = (i * total) / l;
                for lab in labels.iter_mut().skip(start).take(3) {
                    *lab = false;
                }
            }
            let rl = RunLengths::from_labels(&labels);
            let cost = CostModel::bytes(total);
            if l <= 1024 {
                entries.push((
                    format!("plan_chunks_interval_L{l}"),
                    time_ns(|| plan_chunks_interval(&rl, &cost)),
                ));
            }
            entries.push((
                format!("plan_chunks_L{l}"),
                time_ns(|| plan_chunks_with(&rl, &cost, &mut scratch).cost_bits),
            ));
        }
    }

    // CRC-32 over a 1500 B packet: the 1-table reference, the portable
    // slice-by-16 kernel, and the PCLMULQDQ folding kernel the packet
    // path dispatches to on CPUs that have it.
    {
        let buf: Vec<u8> = (0..1500).map(|_| rng.gen()).collect();
        entries.push((
            "crc32_table_1500B".into(),
            time_ns(|| ppr_mac::crc::crc32_1table(&buf)),
        ));
        entries.push((
            "crc32_slice16_1500B".into(),
            time_ns(|| ppr_mac::crc::crc32_slice16(&buf)),
        ));
        if ppr_mac::clmul::available() {
            entries.push((
                "crc32_clmul_1500B".into(),
                time_ns(|| ppr_mac::clmul::crc32_clmul(&buf)),
            ));
        }
    }

    // DSP kernel ladder: each vector tier this CPU offers against the
    // scalar reference, on the two kernels the sample-level pipeline
    // dispatches — transmitter superposition (axpy) and the
    // matched-filter bank (demod).
    {
        let wave: Vec<Complex32> = (0..4096)
            .map(|_| Complex32 {
                re: rng.gen_range(-1.0f32..1.0),
                im: rng.gen_range(-1.0f32..1.0),
            })
            .collect();
        let rot = Complex32 { re: 0.6, im: -0.8 };
        let mut out = vec![Complex32 { re: 0.0, im: 0.0 }; wave.len()];
        for kernel in DspKernel::available() {
            entries.push((
                format!("dsp_axpy_{}_4096", kernel.name()),
                time_ns(|| kernel.axpy_rotated(&mut out, &wave, rot, 0.5)),
            ));
        }

        let sps = 4usize;
        let pulse = HalfSine::new(sps);
        let n_chips = 1000usize;
        let samples: Vec<Complex32> = (0..n_chips * sps + pulse.len())
            .map(|_| Complex32 {
                re: rng.gen_range(-1.0f32..1.0),
                im: rng.gen_range(-1.0f32..1.0),
            })
            .collect();
        for kernel in DspKernel::available() {
            let mut soft = Vec::with_capacity(n_chips);
            entries.push((
                format!("dsp_demod_{}_1000chips", kernel.name()),
                time_ns(|| {
                    soft.clear();
                    kernel.demod_full_windows(
                        &samples,
                        pulse.samples(),
                        pulse.energy(),
                        0,
                        sps,
                        n_chips,
                        true,
                        &mut soft,
                    );
                }),
            ));
        }
    }

    // Small end-to-end run through the packed reception loop.
    let env = RadioEnv::new(1);
    let cfg = SimConfig {
        load_kbps: 13.8,
        body_bytes: 200,
        carrier_sense: false,
        duration_s: 2.0,
        seed: 42,
    };
    let timeline = generate_timeline(&env, &cfg);
    let arm = RxArm {
        scheme: DeliveryScheme::Ppr { eta: 6 },
        postamble: true,
        collect_symbols: false,
    };
    let t = Instant::now();
    let recs = process_receptions(&env, &cfg, &timeline, &arm);
    entries.push((
        "process_receptions_2s_ppr_ms".into(),
        t.elapsed().as_secs_f64() * 1e3,
    ));
    entries.push(("process_receptions_2s_count".into(), recs.len() as f64));

    // The PP-ARQ link path: every frame of a session rendered, corrupted
    // and received in place on one link's kept buffers.
    let scenario = ScenarioBuilder::new().build();
    repeated(&mut entries, "fig16_300", || {
        fig16::collect_seeded(300, 0xF16)
    });
    let policy = BackoffPolicy {
        max_retries: scenario.arq_retries,
        base_delay: 2 * JAM_PERIOD,
        multiplier_milli: (scenario.arq_backoff * 1000.0).round() as u64,
        jitter_span: 0,
    };
    let sessions = (scenario.arq_packets / 3).max(5);
    repeated(&mut entries, "jam_duty_point", || {
        jam::run_duty_point(0.3, sessions, 0x004A_414D, policy)
    });

    // The two testbed experiments that are single pool jobs of their
    // own: min-hint combining over the default scenario's timeline, and
    // the collision anatomy's sliding-sync receive.
    repeated(&mut entries, "mrd", || mrd::collect(&scenario));
    repeated(&mut entries, "fig13", fig13::collect);

    // The event core at scale: the 10k-node mesh floods, measured.
    // events/sec here is the wall-clock figure the mesh experiments
    // deliberately do not compute for themselves.
    let benign = MeshParams::benign(10_000, 12.0, 42, 6, MESH_BODY_BYTES);
    let jammed = meshjam_params(&ScenarioBuilder::new().seed(42).build());
    // Each flood runs alone (`mesh10k_*`, the one-thread trajectory)
    // and with a decode crew of one helper (`mesh10k_h1_*`).
    for (name, params, threads) in [
        ("mesh10k", benign, None),
        ("mesh10k_h1", benign, Some(2)),
        ("meshjam", jammed, None),
        ("meshjam_h1", jammed, Some(2)),
    ] {
        let (median, s) = repeated(&mut entries, name, || run_mesh(&params, threads));
        entries.push((
            format!("{name}_events_per_sec"),
            s.events_dispatched as f64 / median,
        ));
        entries.push((format!("{name}_events"), s.events_dispatched as f64));
        entries.push((format!("{name}_transmissions"), s.transmissions as f64));
        entries.push((format!("{name}_coverage"), s.coverage()));
        entries.push((
            format!("{name}_sim_packets_per_sec"),
            s.transmissions as f64 / s.sim_seconds().max(1e-9),
        ));
    }

    let mut json = String::from("{\n");
    json.push_str(&format!(
        "  \"schema\": \"ppr-bench-packed/v14\",\n  \"threads\": {},\n  \"despread_kernel\": \"{}\",\n  \"dsp_kernel\": \"{}\",\n",
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        DespreadKernel::active().name(),
        DspKernel::active().name()
    ));
    for (i, (name, v)) in entries.iter().enumerate() {
        let sep = if i + 1 == entries.len() { "" } else { "," };
        json.push_str(&format!("  \"{name}\": {v:.1}{sep}\n"));
        println!("{name:<40} {v:>14.1}");
    }
    json.push_str("}\n");
    std::fs::write("BENCH_packed.json", &json).expect("write BENCH_packed.json");
    println!("wrote BENCH_packed.json ({} entries)", entries.len());
}
