//! Quick-bench snapshot of the packed chip pipeline: times the
//! packed-vs-bool stages at L ∈ {1k, 10k, 100k} chips (including the
//! allocation-free in-place corruption entry), the chunking-DP planner
//! ladder (`plan_chunks_{interval,quadratic,monotone}_L*`), the CRC-32
//! ladder (1-table vs slice-by-16 vs PCLMULQDQ folding), the DSP kernel
//! ladder (`dsp_{axpy,demod,sova}_<kernel>`), plus a small end-to-end
//! reception run, and writes `BENCH_packed.json` (schema v7) so CI can
//! archive the perf trajectory.
//!
//! The event-core rows time the reception driver
//! (`process_receptions_2s_ppr_ms`) and the 10k-node mesh flood
//! (`mesh10k_*`: wall ms, measured events/sec and simulated
//! packets/sec). Schema v6 dropped v5's per-worker and batch-size
//! ladders along with the reception worker threads they measured; v7
//! dropped the time-stepped driver's row along with that driver.
//! Wall-clock reads live here, not in `ppr-sim` — simulation code is
//! banned from timing itself (the ppr-lint `determinism` rule).
//!
//! Timings are coarse (tens of milliseconds per entry) on purpose — this
//! is a smoke-level trend tracker, not a statistics engine; use
//! `cargo bench -p ppr-bench` for interactive comparisons.

use ppr_channel::chip_channel::{
    corrupt_chip_words, corrupt_chip_words_in_place, corrupt_chips, ErrorProfile,
};
use ppr_core::dp::{
    plan_chunks_interval, plan_chunks_monotone_with, plan_chunks_quadratic_with, ChunkScratch,
    CostModel,
};
use ppr_core::runs::RunLengths;
use ppr_mac::schemes::DeliveryScheme;
use ppr_phy::chips::ChipWords;
use ppr_phy::complex::Complex32;
use ppr_phy::frame_rx::ChipReceiver;
use ppr_phy::pulse::HalfSine;
use ppr_phy::simd::{DespreadKernel, DspKernel};
use ppr_phy::sova;
use ppr_sim::experiments::mesh::{run_mesh, MeshParams, MESH_BODY_BYTES};
use ppr_sim::network::{generate_timeline, process_receptions, RadioEnv, RxArm, SimConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

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
            entries.push((
                format!("corrupt_packed_{regime}_{l}"),
                time_ns(|| corrupt_chip_words(&packed, &profile, &mut rng)),
            ));
            // The production shape since the feedback path went
            // allocation-free: clone a packed template, corrupt it in
            // place (the clone is a memcpy, not a per-chip rebuild).
            entries.push((
                format!("corrupt_packed_inplace_{regime}_{l}"),
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
        // The bare codebook scan, kernel by kernel (gather excluded):
        // what the SIMD rewrite buys at each vector width this CPU has.
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
    }

    let frame = ppr_mac::frame::Frame::new(1, 2, 3, vec![0xA7; 1500]);
    entries.push(("frame_chips_bool_1500B".into(), time_ns(|| frame.chips())));
    entries.push((
        "frame_chips_packed_1500B".into(),
        time_ns(|| frame.chip_words()),
    ));

    // Demand-driven decode: synchronizing a clean 1500 B frame now costs
    // only the header probe; the body despreads when a consumer reads
    // it. The three rows are sync-only, sync + packet-CRC check (header
    // through CRC field; replicated trailer never decoded), and a full
    // link-section read.
    {
        let words = frame.chip_words();
        let receiver = ppr_mac::rx::FrameReceiver::default();
        let data_start = ppr_phy::sync::tx_preamble_chips().len() as i64;
        entries.push((
            "decode_1500B_sync_only".into(),
            time_ns(|| receiver.decode_from_preamble_words(&words, data_start)),
        ));
        entries.push((
            "decode_1500B_crc_check".into(),
            time_ns(|| {
                let rx = receiver.decode_from_preamble_words(&words, data_start);
                rx.pkt_crc_ok()
            }),
        ));
        entries.push((
            "decode_1500B_full".into(),
            time_ns(|| {
                let rx = receiver.decode_from_preamble_words(&words, data_start);
                rx.link_bytes()
            }),
        ));
        // The byte reads one delivery makes once the despread cache is
        // warm: the packet-CRC check, the body and its byte hints.
        let rx = receiver.decode_from_preamble_words(&words, data_start);
        rx.link_bytes();
        entries.push((
            "read_1500B_cached".into(),
            time_ns(|| (rx.pkt_crc_ok(), rx.body_bytes(), rx.body_byte_hints())),
        ));
    }

    // Chunking-DP planner ladder (schema v3): the O(L³) interval
    // reference vs the O(L²)/O(L) partition planners on L evenly spaced
    // 3-unit bad runs. Two deliberate exceptions to the 20 ms/entry
    // budget: `plan_chunks_interval_L1024` runs one ~0.4 s iteration so
    // the trajectory records the baseline the partition planners are
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
                format!("plan_chunks_quadratic_L{l}"),
                time_ns(|| plan_chunks_quadratic_with(&rl, &cost, &mut scratch).cost_bits),
            ));
            entries.push((
                format!("plan_chunks_monotone_L{l}"),
                time_ns(|| plan_chunks_monotone_with(&rl, &cost, &mut scratch).cost_bits),
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
    // scalar reference, on the three kernels the sample-level pipeline
    // dispatches — transmitter superposition (axpy), the matched-filter
    // bank (demod), and the SOVA trellis.
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

        let bits: Vec<bool> = (0..500).map(|_| rng.gen()).collect();
        let mut soft = sova::modulate_coded(&bits);
        for s in &mut soft {
            *s += rng.gen_range(-0.5f32..0.5);
        }
        for kernel in DspKernel::available() {
            entries.push((
                format!("dsp_sova_{}_500bits", kernel.name()),
                time_ns(|| kernel.sova_decode(&soft)),
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

    // The event core at scale: the 10k-node mesh flood, measured.
    // events/sec here is the wall-clock figure the mesh10k experiment
    // deliberately does not compute for itself.
    {
        let params = MeshParams::benign(10_000, 12.0, 42, 6, MESH_BODY_BYTES);
        let t = Instant::now();
        let s = run_mesh(&params, None);
        let wall = t.elapsed().as_secs_f64();
        entries.push(("mesh10k_ms".into(), wall * 1e3));
        entries.push((
            "mesh10k_events_per_sec".into(),
            s.events_dispatched as f64 / wall,
        ));
        entries.push(("mesh10k_events".into(), s.events_dispatched as f64));
        entries.push(("mesh10k_transmissions".into(), s.transmissions as f64));
        entries.push(("mesh10k_coverage".into(), s.coverage()));
        entries.push((
            "mesh10k_sim_packets_per_sec".into(),
            s.transmissions as f64 / s.sim_seconds().max(1e-9),
        ));
    }

    let mut json = String::from("{\n");
    json.push_str(&format!(
        "  \"schema\": \"ppr-bench-packed/v7\",\n  \"threads\": {},\n  \"despread_kernel\": \"{}\",\n  \"dsp_kernel\": \"{}\",\n",
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
