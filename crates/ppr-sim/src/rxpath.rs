//! Fast per-packet receive path for network-scale simulation.
//!
//! The full `ppr-mac` pipeline slides a 128-chip correlator over the
//! entire capture — faithful, but O(len × pattern) per packet. The
//! simulator already knows where each frame sits on the receiver's chip
//! clock, and the workspace tests establish that false delimiter locks in
//! noise are (by construction of the 7σ threshold) negligible. So the
//! fast path checks delimiter integrity *at the true offsets only* and
//! reuses the public `ppr-mac` decode entry points for everything else —
//! the decoded bits, hints, geometry and rollback logic are byte-for-byte
//! the ones the sliding pipeline produces (pinned by
//! `tests/fastpath_parity.rs` at the workspace root).

use ppr_channel::chip_channel::{corrupt_chip_words_in_place, ChipErrors, ErrorProfile};
use ppr_mac::frame::Frame;
use ppr_mac::rx::{FrameReceiver, RxFrame};
use ppr_phy::chips::{ChipWords, CHIPS_PER_SYMBOL};
use ppr_phy::sync::{
    SyncPattern, DEFAULT_SYNC_THRESHOLD, POSTAMBLE_ZERO_SYMBOLS, PREAMBLE_ZERO_SYMBOLS,
    TX_POSTAMBLE_CHIPS,
};
use rand::Rng;
use std::sync::OnceLock;

/// How a packet was (or wasn't) acquired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Acquisition {
    /// Preamble intact and receiver idle: normal decode.
    Preamble,
    /// Preamble missed but postamble intact: rollback decode.
    Postamble,
    /// Neither delimiter usable: the packet is lost.
    None,
}

impl Acquisition {
    /// Wire tag for the snapshot format (stable across releases: the
    /// values are part of the versioned byte layout in
    /// [`crate::snapshot`], not an in-memory discriminant).
    pub fn to_tag(self) -> u8 {
        match self {
            Acquisition::Preamble => 0,
            Acquisition::Postamble => 1,
            Acquisition::None => 2,
        }
    }

    /// Inverse of [`Acquisition::to_tag`]; `None` for unknown tags
    /// (a corrupt or future-version snapshot).
    pub fn from_tag(tag: u8) -> Option<Acquisition> {
        match tag {
            0 => Some(Acquisition::Preamble),
            1 => Some(Acquisition::Postamble),
            2 => Some(Acquisition::None),
            _ => None,
        }
    }
}

/// Per-packet receiver: delimiter checks at known offsets + `ppr-mac`
/// decode.
#[derive(Debug, Clone)]
pub struct FastRx {
    preamble: SyncPattern,
    postamble: SyncPattern,
    receiver: FrameReceiver,
    threshold: u32,
    /// Whether the postamble correlator is enabled (experiment arm).
    pub postamble_decoding: bool,
}

/// The clean chips of every frame's leading lanes, through the end of
/// the preamble scan window: the zero bytes and the SFD, which are the
/// same in every frame. Rendered once per process.
fn preamble_window() -> &'static ChipWords {
    static WINDOW: OnceLock<ChipWords> = OnceLock::new();
    WINDOW.get_or_init(|| {
        let mut window = Frame::new(0, 0, 0, Vec::new()).chip_words();
        let end = FastRx::preamble_pattern_offset() + SyncPattern::preamble().len_chips();
        window.truncate(end.div_ceil(64) * 64);
        window
    })
}

impl FastRx {
    /// Creates the fast path; `postamble_decoding` selects the
    /// experiment arm.
    pub fn new(postamble_decoding: bool) -> Self {
        FastRx {
            preamble: SyncPattern::preamble(),
            postamble: SyncPattern::postamble(),
            receiver: FrameReceiver::default(),
            threshold: DEFAULT_SYNC_THRESHOLD,
            postamble_decoding,
        }
    }

    /// Chip offset (within a frame's chips) where the preamble *scan
    /// pattern* begins: the last two zero symbols before the SFD.
    pub fn preamble_pattern_offset() -> usize {
        (PREAMBLE_ZERO_SYMBOLS - 2) * CHIPS_PER_SYMBOL
    }

    /// Chip offset within the frame where the postamble scan pattern
    /// begins, given the total frame length in chips.
    pub fn postamble_pattern_offset(frame_chips: usize) -> usize {
        frame_chips - TX_POSTAMBLE_CHIPS + (POSTAMBLE_ZERO_SYMBOLS - 2) * CHIPS_PER_SYMBOL
    }

    /// Attempts to receive one frame from its corrupted chip capture.
    ///
    /// `receiver_idle` reports whether the receiver was free to lock when
    /// this frame's preamble arrived (false while it is mid-decode of an
    /// earlier frame — the undesirable-capture scenario postambles
    /// rescue).
    pub fn receive(
        &self,
        frame: &Frame,
        corrupted_chips: &[bool],
        receiver_idle: bool,
    ) -> (Acquisition, Option<RxFrame>) {
        let pre_off = Self::preamble_pattern_offset();
        let preamble_ok =
            receiver_idle && self.preamble.distance_at(corrupted_chips, pre_off) <= self.threshold;
        if preamble_ok {
            let data_start = (pre_off + self.preamble.len_chips()) as i64;
            let rx = self
                .receiver
                .decode_from_preamble(corrupted_chips, data_start);
            return (Acquisition::Preamble, Some(rx));
        }
        if self.postamble_decoding {
            let post_off = Self::postamble_pattern_offset(frame.chips_len());
            if self.postamble.distance_at(corrupted_chips, post_off) <= self.threshold {
                if let Some(rx) = self
                    .receiver
                    .decode_from_postamble(corrupted_chips, post_off)
                {
                    return (Acquisition::Postamble, Some(rx));
                }
            }
        }
        (Acquisition::None, None)
    }

    /// Does the preamble pattern of a packed capture survive within the
    /// sync threshold? This is the only per-reception fact the busy/idle
    /// chain of a receiver needs, so the reception loop can resolve
    /// acquisition order before decoding anything.
    pub fn preamble_hit_words(&self, corrupted_chips: &ChipWords) -> bool {
        self.preamble
            .distance_at_words(corrupted_chips, Self::preamble_pattern_offset())
            <= self.threshold
    }

    /// [`Self::preamble_hit_words`] of any frame that takes `errors`,
    /// without rendering the frame: the scan window lies in the leading
    /// lanes, which every frame shares, so only those lanes take their
    /// errors. Every delivery scheme of a capacity trace therefore has
    /// the same preamble verdict for a (transmission, receiver) pair.
    pub fn preamble_hit(&self, errors: &ChipErrors) -> bool {
        let mut window = preamble_window().clone();
        errors.apply(&mut window);
        self.preamble_hit_words(&window)
    }

    /// Word-wise equivalent of [`Self::receive`] over a packed capture;
    /// bit-identical acquisition and decode output (pinned by
    /// `tests/packed_parity.rs`).
    pub fn receive_words(
        &self,
        frame: &Frame,
        corrupted_chips: &ChipWords,
        receiver_idle: bool,
    ) -> (Acquisition, Option<RxFrame>) {
        let pre_off = Self::preamble_pattern_offset();
        let preamble_ok = receiver_idle
            && self.preamble.distance_at_words(corrupted_chips, pre_off) <= self.threshold;
        if preamble_ok {
            let data_start = (pre_off + self.preamble.len_chips()) as i64;
            let rx = self
                .receiver
                .decode_from_preamble_words(corrupted_chips, data_start);
            return (Acquisition::Preamble, Some(rx));
        }
        if self.postamble_decoding {
            let post_off = Self::postamble_pattern_offset(frame.chips_len());
            if self.postamble.distance_at_words(corrupted_chips, post_off) <= self.threshold {
                if let Some(rx) = self
                    .receiver
                    .decode_from_postamble_words(corrupted_chips, post_off)
                {
                    return (Acquisition::Postamble, Some(rx));
                }
            }
        }
        (Acquisition::None, None)
    }

    /// Sends `frame` over one link: corrupts `chips` (the frame's
    /// [`Frame::chip_words`], owned so the caller decides whether to
    /// render or copy) in place under `profile`, then receives them with
    /// [`Self::receive_words`]. Consumes `rng` under the shared draw
    /// contract, so it equals `corrupt_chips` followed by
    /// [`Self::receive`] frame for frame (pinned by
    /// `tests/packed_parity.rs`).
    pub fn transmit<R: Rng>(
        &self,
        frame: &Frame,
        mut chips: ChipWords,
        profile: &ErrorProfile,
        rng: &mut R,
        receiver_idle: bool,
    ) -> (Acquisition, Option<RxFrame>) {
        corrupt_chip_words_in_place(&mut chips, profile, rng);
        self.receive_words(frame, &chips, receiver_idle)
    }
}

/// The receiver's view of a `len`-byte body: the decoded bytes and their
/// per-byte hints, or zeros with `u8::MAX` hints (nothing trusted) when
/// the frame was lost or decoded to a different length.
pub fn body_or_lost(rx: Option<RxFrame>, len: usize) -> (Vec<u8>, Vec<u8>) {
    match rx.and_then(|rx| Some((rx.body_bytes()?, rx.body_byte_hints()?))) {
        Some((body, hints)) if body.len() == len => (body, hints),
        _ => (vec![0; len], vec![u8::MAX; len]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn clean_frame_acquired_via_preamble() {
        let frame = Frame::new(1, 2, 3, vec![0xAB; 100]);
        let chips = frame.chips();
        let fast = FastRx::new(true);
        let (acq, rx) = fast.receive(&frame, &chips, true);
        assert_eq!(acq, Acquisition::Preamble);
        let rx = rx.unwrap();
        assert_eq!(rx.header, Some(frame.header));
        assert!(rx.pkt_crc_ok());
    }

    #[test]
    fn busy_receiver_falls_back_to_postamble() {
        let frame = Frame::new(1, 2, 3, vec![0xCD; 80]);
        let chips = frame.chips();
        let fast = FastRx::new(true);
        let (acq, rx) = fast.receive(&frame, &chips, false);
        assert_eq!(acq, Acquisition::Postamble);
        assert!(rx.unwrap().pkt_crc_ok());
    }

    #[test]
    fn busy_receiver_without_postamble_loses_frame() {
        let frame = Frame::new(1, 2, 3, vec![0xCD; 80]);
        let chips = frame.chips();
        let fast = FastRx::new(false);
        let (acq, rx) = fast.receive(&frame, &chips, false);
        assert_eq!(acq, Acquisition::None);
        assert!(rx.is_none());
    }

    #[test]
    fn destroyed_preamble_recovered_by_postamble_arm_only() {
        let frame = Frame::new(4, 5, 6, vec![0x11; 60]);
        let mut chips = frame.chips();
        let mut rng = StdRng::seed_from_u64(1);
        let pre_len = ppr_phy::sync::tx_preamble_chips().len();
        for c in chips.iter_mut().take(pre_len) {
            *c = rng.gen();
        }
        let (acq_on, rx_on) = FastRx::new(true).receive(&frame, &chips, true);
        assert_eq!(acq_on, Acquisition::Postamble);
        assert_eq!(rx_on.unwrap().body_bytes().unwrap(), vec![0x11; 60]);
        let (acq_off, _) = FastRx::new(false).receive(&frame, &chips, true);
        assert_eq!(acq_off, Acquisition::None);
    }

    #[test]
    fn fully_jammed_frame_is_lost() {
        let frame = Frame::new(4, 5, 6, vec![0x11; 60]);
        let mut rng = StdRng::seed_from_u64(2);
        let chips: Vec<bool> = (0..frame.chips_len()).map(|_| rng.gen()).collect();
        let (acq, _) = FastRx::new(true).receive(&frame, &chips, true);
        assert_eq!(acq, Acquisition::None);
    }

    #[test]
    fn receive_words_matches_reference_across_scenarios() {
        let frame = Frame::new(2, 5, 9, vec![0x6B; 120]);
        let mut rng = StdRng::seed_from_u64(33);
        for scenario in 0..4 {
            let mut chips = frame.chips();
            match scenario {
                0 => {} // clean
                1 => {
                    // destroyed preamble
                    let pre_len = ppr_phy::sync::tx_preamble_chips().len();
                    for c in chips.iter_mut().take(pre_len) {
                        *c = rng.gen();
                    }
                }
                2 => {
                    // fully jammed
                    for c in chips.iter_mut() {
                        *c = rng.gen();
                    }
                }
                _ => {
                    // scattered errors
                    for _ in 0..500 {
                        let i = rng.gen_range(0..chips.len());
                        chips[i] = !chips[i];
                    }
                }
            }
            let packed = ChipWords::from_bools(&chips);
            for postamble in [false, true] {
                let fast = FastRx::new(postamble);
                for idle in [false, true] {
                    let (acq_a, rx_a) = fast.receive(&frame, &chips, idle);
                    let (acq_b, rx_b) = fast.receive_words(&frame, &packed, idle);
                    assert_eq!(acq_a, acq_b, "scenario {scenario} idle {idle}");
                    assert_eq!(rx_a, rx_b, "scenario {scenario} idle {idle}");
                    assert_eq!(
                        acq_b == Acquisition::Preamble,
                        idle && fast.preamble_hit_words(&packed)
                    );
                }
            }
        }
    }

    #[test]
    fn pattern_offsets_match_frame_layout() {
        let frame = Frame::new(0, 0, 0, vec![0; 10]);
        let chips = frame.chips();
        let pre = SyncPattern::preamble();
        let post = SyncPattern::postamble();
        assert_eq!(
            pre.distance_at(&chips, FastRx::preamble_pattern_offset()),
            0
        );
        assert_eq!(
            post.distance_at(&chips, FastRx::postamble_pattern_offset(chips.len())),
            0
        );
    }
}
