//! Parity harness for the in-place packed receive step (`RxCapture`).
//!
//! The reference `&[bool]` receive path despreads a frame's link section
//! into a fresh frame; the packed path refills one caller-owned capture
//! straight from the chip lanes. These tests prove the two are
//! **bit-identical**, symbol for symbol, across random frames,
//! corruption levels, schemes and both sync directions (preamble decode
//! and postamble rollback) — rejected headers, rollbacks that start
//! before chip 0 and headers that claim more body than the capture
//! holds included — and that reuse is invisible: every case also runs
//! through a capture left dirty by a longer frame. A last property feeds
//! `FastRx`'s in-place step arbitrary chip words and checks it never
//! panics and agrees with the spec on whether anything was received.

use ppr::channel::chip_channel::{corrupt_chips, ErrorProfile};
use ppr::mac::frame::{Frame, FrameGeometry, HEADER_BYTES};
use ppr::mac::rx::{FrameReceiver, RxCapture, RxFrame, HINT_NEVER_RECEIVED, MAX_BODY_LEN};
use ppr::mac::schemes::{DeliveryScheme, ReceivedBody};
use ppr::phy::chips::ChipWords;
use ppr::phy::sync::{tx_postamble_chips, POSTAMBLE_ZERO_SYMBOLS, TX_PREAMBLE_CHIPS};
use ppr::sim::{Acquisition, FastRx};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A capture that last held a 1500 B frame: every column is longer than
/// any frame these tests decode into it.
fn dirty_capture() -> RxCapture {
    let chips = Frame::new(9, 9, 9, vec![0xA5; 1500]).chip_words();
    let mut capture = RxCapture::default();
    FrameReceiver::default().decode_from_preamble_into(
        &chips,
        TX_PREAMBLE_CHIPS as i64,
        &mut capture,
    );
    capture
}

/// Decodes the preamble of `corrupted` from `data_start` through the
/// eager spec, a fresh capture and a dirty one; asserts all three agree
/// and returns the spec's frame.
fn preamble_parity(corrupted: &[bool], data_start: i64) -> RxFrame {
    let rx = FrameReceiver::default();
    let packed = ChipWords::from_bools(corrupted);
    let spec = rx.decode_from_preamble(corrupted, data_start);
    let fresh = rx.decode_from_preamble_words(&packed, data_start);
    assert_accessor_parity(&spec, &fresh);
    let mut dirty = dirty_capture();
    assert_accessor_parity(
        &spec,
        rx.decode_from_preamble_into(&packed, data_start, &mut dirty),
    );
    spec
}

/// [`preamble_parity`] for a postamble hit at `hit`: `None` from all
/// three, or the same frame.
fn postamble_parity(corrupted: &[bool], hit: usize) -> Option<RxFrame> {
    let rx = FrameReceiver::default();
    let packed = ChipWords::from_bools(corrupted);
    let spec = rx.decode_from_postamble(corrupted, hit);
    let fresh = rx.decode_from_postamble_words(&packed, hit);
    let mut dirty = dirty_capture();
    let reused = rx.decode_from_postamble_into(&packed, hit, &mut dirty);
    match (&spec, &fresh, reused) {
        (Some(s), Some(f), Some(d)) => {
            assert_accessor_parity(s, f);
            assert_accessor_parity(s, d);
        }
        (s, f, d) => assert!(
            s.is_none() && f.is_none() && d.is_none(),
            "postamble at {hit}: spec {} fresh {} reused {}",
            s.is_some(),
            f.is_some(),
            d.is_some()
        ),
    }
    spec
}

/// Every accessor agrees between the spec frame and a capture's, symbol
/// for symbol.
fn assert_accessor_parity(spec: &RxFrame, got: &RxFrame) {
    assert_eq!(spec.header, got.header);
    assert_eq!(spec.link_symbols(), got.link_symbols(), "symbols");
    assert_eq!(spec.body_columns(), got.body_columns());
    assert_eq!(spec.body_symbol_hints(), got.body_symbol_hints());
    assert_eq!(spec.body_byte_hints(), got.body_byte_hints());
    assert_eq!(spec.body_bytes(), got.body_bytes());
    assert_eq!(spec.pkt_crc_ok(), got.pkt_crc_ok());
    assert_eq!(spec.link_bytes(), got.link_bytes());
    assert_eq!(spec, got, "full-frame equality");
}

/// One frame's chips under a uniform chip error rate.
fn corrupted_frame(body: &[u8], p: f64, seed: u64) -> Vec<bool> {
    let chips = Frame::new(1, 2, 3, body.to_vec()).chips();
    let profile = ErrorProfile::uniform(chips.len() as u64, p);
    corrupt_chips(&chips, &profile, &mut StdRng::seed_from_u64(seed))
}

/// The postamble scan-pattern offset of a capture that ends where the
/// frame does.
fn post_hit(capture_len: usize) -> usize {
    capture_len - tx_postamble_chips().len() + (POSTAMBLE_ZERO_SYMBOLS - 2) * 32
}

#[test]
fn preamble_decode_parity_fixed_cases() {
    let mut rejected = 0;
    for (len, p, seed) in [
        (0usize, 0.0, 1u64),
        (1, 0.02, 2),
        (63, 0.05, 3),
        (64, 0.10, 4),
        (200, 0.20, 5),
        (500, 0.35, 6),
        (1500, 0.08, 7),
        (40, 0.45, 8), // header destroyed: rejected
        (40, 0.5, 9),
    ] {
        let body: Vec<u8> = (0..len).map(|i| (i * 31 + 7) as u8).collect();
        let chips = corrupted_frame(&body, p, seed);
        let spec = preamble_parity(&chips, TX_PREAMBLE_CHIPS as i64);
        rejected += usize::from(spec.header.is_none());
    }
    assert!(rejected > 0, "no case rejected its header");
}

/// A header whose CRC passes but whose body runs past the end of the
/// capture: the section's tail reads as never-received symbols, up to a
/// body of `MAX_BODY_LEN` bytes.
#[test]
fn header_claiming_more_than_the_capture_pads_the_tail() {
    for (len, keep) in [(100usize, 0.5), (MAX_BODY_LEN, 0.1), (MAX_BODY_LEN, 0.02)] {
        let mut chips = Frame::new(1, 2, 3, vec![0x3C; len]).chips();
        chips.truncate((chips.len() as f64 * keep) as usize + TX_PREAMBLE_CHIPS);
        let spec = preamble_parity(&chips, TX_PREAMBLE_CHIPS as i64);
        assert_eq!(spec.header.map(|h| h.len as usize), Some(len));
        let hints = spec.body_symbol_hints().expect("geometry is known");
        assert_eq!(*hints.last().unwrap(), HINT_NEVER_RECEIVED);
    }
}

#[test]
fn postamble_rollback_parity() {
    // Receiver wakes up mid-frame: negative link start, padded head.
    let frame = Frame::new(4, 4, 2, vec![0x3C; 120]);
    let full = frame.chips();
    let mut rolled_back = 0;
    for cut_frac in [2usize, 3, 5] {
        let cut = (cut_frac - 1) * full.len() / cut_frac;
        let tail = &full[cut..];
        if let Some(f) = postamble_parity(tail, post_hit(tail.len())) {
            rolled_back += usize::from(f.link_start_chip.is_some_and(|s| s < 0));
        }
    }
    assert!(rolled_back > 0, "no rollback started before chip 0");
    // Whole frames, clean and corrupted, and one whose trailer is gone.
    for (p, seed) in [(0.0, 1u64), (0.1, 2), (0.3, 3)] {
        let chips = corrupted_frame(&[0x77; 300], p, seed);
        postamble_parity(&chips, post_hit(chips.len()));
    }
    let mut chips = full.clone();
    let g = FrameGeometry::for_body(120);
    let trailer = TX_PREAMBLE_CHIPS + 2 * g.trailer().start * 32;
    let mut rng = StdRng::seed_from_u64(5);
    for c in &mut chips[trailer..trailer + 2 * HEADER_BYTES * 32] {
        *c = rng.gen();
    }
    assert!(postamble_parity(&chips, post_hit(chips.len())).is_none());
}

/// A trailer that verifies but claims a longer body than the frame
/// carries rolls back past chip 0 (and its header, claiming the same,
/// runs past the end of the capture).
#[test]
fn long_trailer_rolls_back_before_chip_zero() {
    let mut frame = Frame::new(4, 4, 2, vec![0x11; 60]);
    frame.header.len = 900; // header and trailer records claim 900 B
    let chips = frame.chips();
    let got = postamble_parity(&chips, post_hit(chips.len())).expect("the trailer verifies");
    assert_eq!(got.header.map(|h| h.len), Some(900));
    assert!(got.link_start_chip.unwrap() < 0);
    assert_eq!(got.link_symbols()[0].hint, HINT_NEVER_RECEIVED);
    let ahead = preamble_parity(&chips, TX_PREAMBLE_CHIPS as i64);
    assert_eq!(ahead.header.map(|h| h.len), Some(900));
}

#[test]
fn scheme_delivery_parity_on_lazy_frames() {
    let mut capture = dirty_capture();
    for (p, seed) in [(0.0, 10u64), (0.05, 11), (0.15, 12), (0.30, 13)] {
        for scheme in DeliveryScheme::standard_set(50, 6) {
            let payload: Vec<u8> = (0..scheme.payload_len(300))
                .map(|i| (i * 13 + 1) as u8)
                .collect();
            let chips = corrupted_frame(&scheme.build_body(&payload), p, seed);
            let data_start = TX_PREAMBLE_CHIPS as i64;
            let spec = FrameReceiver::default().decode_from_preamble(&chips, data_start);
            let got = FrameReceiver::default().decode_from_preamble_into(
                &ChipWords::from_bools(&chips),
                data_start,
                &mut capture,
            );
            assert_eq!(
                scheme.deliver(&spec),
                scheme.deliver(got),
                "scheme {} p {p} seed {seed}",
                scheme.name()
            );
            let counts = |rx| ReceivedBody::of(rx).map(|b| scheme.count_accepted(&b, &payload));
            assert_eq!(counts(&spec), counts(got));
        }
    }
}

proptest! {
    /// The capture equals the eager spec across random bodies,
    /// corruption levels and seeds, through both delimiters and through
    /// fresh and dirty captures.
    #[test]
    fn lazy_decode_parity_arbitrary(
        len in 0usize..400,
        p in 0.0f64..0.45,
        seed in any::<u64>(),
        cut in 0usize..3,
    ) {
        let body: Vec<u8> = (0..len).map(|i| (i as u8).wrapping_mul(17)).collect();
        let chips = corrupted_frame(&body, p, seed);
        // Whole, headless (rollback before chip 0) or cut short.
        let capture = match cut {
            0 => &chips[..],
            1 => &chips[chips.len() / 3..],
            _ => &chips[..chips.len() * 2 / 3],
        };
        if cut != 1 {
            preamble_parity(capture, TX_PREAMBLE_CHIPS as i64);
        }
        if cut != 2 {
            postamble_parity(capture, post_hit(capture.len()));
        }
    }

    /// `FastRx`'s in-place step never panics on channel input: captures
    /// shorter than the preamble window, truncated frames, headers whose
    /// CRC passes but whose body runs up to `MAX_BODY_LEN` bytes past
    /// the capture, and noise, for frames that claim any length. Its
    /// outcome (`Some` exactly when a delimiter acquired a frame) and
    /// frame match the `&[bool]` spec, and reusing one capture changes
    /// nothing.
    #[test]
    fn capture_never_panics_on_channel_input(
        kind in 0usize..3,
        body_len in 0usize..=MAX_BODY_LEN,
        claimed in 0usize..=MAX_BODY_LEN,
        keep in 0usize..40_000,
        flips in proptest::collection::vec(any::<usize>(), 0..40),
        noise_seed in any::<u64>(),
        idle in any::<bool>(),
        postamble in any::<bool>(),
    ) {
        let chips: Vec<bool> = match kind {
            // Noise, often shorter than the preamble window.
            0 => {
                let mut rng = StdRng::seed_from_u64(noise_seed);
                (0..keep % 700).map(|_| rng.gen()).collect()
            }
            // A frame truncated anywhere: its header claims `body_len`
            // bytes, up to all of them past the end of the capture.
            1 => {
                let mut c = Frame::new(1, 2, 3, vec![0x6B; body_len]).chips();
                c.truncate(keep % (c.len() + 1));
                c
            }
            // Noise with a verifying header where a preamble sync puts it.
            _ => {
                let mut rng = StdRng::seed_from_u64(noise_seed);
                let mut c: Vec<bool> = (0..keep).map(|_| rng.gen()).collect();
                let lead = Frame::new(1, 2, 3, vec![0; body_len]).chips();
                let n = (TX_PREAMBLE_CHIPS + 2 * HEADER_BYTES * 32).min(c.len());
                c[..n].copy_from_slice(&lead[..n]);
                c
            }
        };
        let mut chips = chips;
        for &f in &flips {
            if !chips.is_empty() {
                let i = f % chips.len();
                chips[i] = !chips[i];
            }
        }
        let packed = ChipWords::from_bools(&chips);
        let frame = Frame::new(1, 2, 3, vec![0; claimed]);
        let fast = FastRx::new(postamble);
        let (spec_acq, spec) = fast.receive(&frame, &chips, idle);
        let mut capture = dirty_capture();
        let (acq, got) = fast.receive_into(&frame, &packed, idle, &mut capture);
        prop_assert_eq!(acq, spec_acq);
        prop_assert_eq!(got.is_some(), acq != Acquisition::None);
        prop_assert_eq!(got, spec.as_ref());
        prop_assert_eq!(fast.receive_words(&frame, &packed, idle), (spec_acq, spec));
    }
}
