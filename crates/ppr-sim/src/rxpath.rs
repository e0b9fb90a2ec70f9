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
//!
//! Every driver — the testbed pass, `mrd`, the mesh flood and the link
//! experiments — receives through the same two shared steps:
//!
//! 1. **channel**: `ReceptionChannel::profile` turns the transmissions
//!    a receiver hears into the chip error profile over one frame;
//! 2. **render → corrupt → receive**: into an `RxScratch` the driver
//!    keeps, under one of two corruption contracts, chosen by how many
//!    arms share a capture. `FastRx::transmit_into` corrupts the
//!    rendered chips in place (one arm: the mesh, `mrd`, the link
//!    channels); `FastRx::receive_drawn` applies [`ChipErrors`] drawn
//!    once for every arm (the testbed pass, which also skips captures
//!    the errors leave clean).
//!
//! Both end in [`FastRx::receive_into`], which refills the scratch's
//! capture. The owned-frame form [`FastRx::receive_words`] wraps it with
//! a fresh capture.

use ppr_channel::chip_channel::{corrupt_chip_words_in_place, ChipErrors, ErrorProfile};
use ppr_channel::overlap::{interference_profile_into, HeardTx, InterferenceSpan, ProfileScratch};
use ppr_mac::frame::Frame;
use ppr_mac::rx::{FrameReceiver, RxCapture, RxFrame};
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
    /// errors, in `window` (working memory, its allocation reused).
    /// Every delivery scheme of a capacity trace therefore has the same
    /// preamble verdict for a (transmission, receiver) pair. Errors that
    /// touch no lane leave the window clean, at distance 0.
    pub fn preamble_hit(&self, errors: &ChipErrors, window: &mut ChipWords) -> bool {
        if errors.lanes_touched() == 0 {
            return true;
        }
        window.clone_from(preamble_window());
        errors.apply(window);
        self.preamble_hit_words(window)
    }

    /// Word-wise equivalent of [`Self::receive`] over a packed capture;
    /// bit-identical acquisition and decode output (pinned by
    /// `tests/packed_parity.rs`): an owned frame from one
    /// [`Self::receive_into`] into a fresh capture.
    pub fn receive_words(
        &self,
        frame: &Frame,
        corrupted_chips: &ChipWords,
        receiver_idle: bool,
    ) -> (Acquisition, Option<RxFrame>) {
        let mut capture = RxCapture::default();
        let (acquisition, rx) =
            self.receive_into(frame, corrupted_chips, receiver_idle, &mut capture);
        let received = rx.is_some();
        (acquisition, received.then(|| capture.into_frame()))
    }

    /// The in-place receive step every packed driver runs: checks the
    /// delimiters of `frame`'s corrupted capture at their known offsets
    /// and decodes the frame they acquire into `capture`
    /// ([`FrameReceiver::decode_from_preamble_into`],
    /// [`FrameReceiver::decode_from_postamble_into`]), returning the
    /// acquisition and the frame the capture now holds.
    pub fn receive_into<'c>(
        &self,
        frame: &Frame,
        corrupted_chips: &ChipWords,
        receiver_idle: bool,
        capture: &'c mut RxCapture,
    ) -> (Acquisition, Option<&'c RxFrame>) {
        let pre_off = Self::preamble_pattern_offset();
        let preamble_ok = receiver_idle
            && self.preamble.distance_at_words(corrupted_chips, pre_off) <= self.threshold;
        if preamble_ok {
            let data_start = (pre_off + self.preamble.len_chips()) as i64;
            let rx = self
                .receiver
                .decode_from_preamble_into(corrupted_chips, data_start, capture);
            return (Acquisition::Preamble, Some(rx));
        }
        if self.postamble_decoding {
            let post_off = Self::postamble_pattern_offset(frame.chips_len());
            if self.postamble.distance_at_words(corrupted_chips, post_off) <= self.threshold {
                if let Some(rx) =
                    self.receiver
                        .decode_from_postamble_into(corrupted_chips, post_off, capture)
                {
                    return (Acquisition::Postamble, Some(rx));
                }
            }
        }
        (Acquisition::None, None)
    }

    /// Renders `frame` into `scratch`, corrupts its chips in place under
    /// `profile` from `rng`, and receives them
    /// ([`Self::receive_into`]): the reception step of every one-arm
    /// driver. Consumes `rng` under the shared draw contract, so it
    /// equals `corrupt_chips` followed by [`Self::receive`] frame for
    /// frame.
    pub(crate) fn transmit_into<'s, R: Rng>(
        &self,
        frame: &Frame,
        profile: &ErrorProfile,
        rng: &mut R,
        receiver_idle: bool,
        scratch: &'s mut RxScratch,
    ) -> (Acquisition, Option<&'s RxFrame>) {
        frame.chip_words_into(&mut scratch.link, &mut scratch.chips);
        corrupt_chip_words_in_place(&mut scratch.chips, profile, rng);
        self.receive_into(frame, &scratch.chips, receiver_idle, &mut scratch.capture)
    }

    /// Renders `frame` into `scratch`, applies `errors` (drawn once for
    /// every arm that shares the capture) and receives the chips
    /// ([`Self::receive_into`]): the reception step of the multi-arm
    /// testbed pass.
    pub(crate) fn receive_drawn<'s>(
        &self,
        frame: &Frame,
        errors: &ChipErrors,
        receiver_idle: bool,
        scratch: &'s mut RxScratch,
    ) -> (Acquisition, Option<&'s RxFrame>) {
        frame.chip_words_into(&mut scratch.link, &mut scratch.chips);
        errors.apply(&mut scratch.chips);
        self.receive_into(frame, &scratch.chips, receiver_idle, &mut scratch.capture)
    }
}

/// One receiver's working memory for the render → corrupt → receive
/// step: the frame's link bytes and chips, and the capture it decodes
/// into. Every buffer keeps its capacity, so a driver that receives
/// every frame through one scratch allocates nothing per frame once
/// they have grown to its longest frame, and no step reads what an
/// earlier one left.
#[derive(Debug, Default)]
pub(crate) struct RxScratch {
    link: Vec<u8>,
    chips: ChipWords,
    capture: RxCapture,
}

impl RxScratch {
    /// The link bytes of the frame the last step rendered.
    pub(crate) fn link(&self) -> &[u8] {
        &self.link
    }
}

/// The channel step: the chip error profile of one reception, with the
/// working memory of its interference profile kept across receptions.
#[derive(Debug, Default)]
pub(crate) struct ReceptionChannel {
    scratch: ProfileScratch,
    spans: Vec<InterferenceSpan>,
    profile: ErrorProfile,
}

impl ReceptionChannel {
    /// The chip error profile over `target`'s frame at a receiver that
    /// hears it at `target.power_mw` over a `noise_mw` floor, with every
    /// other transmission of `heard` (the target itself is skipped by
    /// id) as interference. `heard`'s order fixes the order of the
    /// power sums, so it must be the same for every driver that is to
    /// agree.
    pub(crate) fn profile(
        &mut self,
        target: &HeardTx,
        heard: &[HeardTx],
        noise_mw: f64,
    ) -> &ErrorProfile {
        interference_profile_into(target, heard, &mut self.scratch, &mut self.spans);
        self.profile
            .refill_from_interference(target.power_mw, noise_mw, &self.spans);
        &self.profile
    }
}

/// One link's transmit buffers, kept across frames: the frame, the chip
/// error profile it crosses the link under, and the receive step's
/// scratch. A link that sends every frame through one scratch
/// ([`Self::build`], then [`Self::send`]) allocates nothing per frame
/// once the buffers have grown to its longest frame. The buffers are
/// made with the first frame, so creating a scratch stores one null
/// pointer and a link's constructor stays as cheap as its other fields.
#[derive(Debug, Default)]
pub(crate) struct LinkScratch {
    buffers: Option<Box<LinkBuffers>>,
}

#[derive(Debug, Default)]
struct LinkBuffers {
    frame: Frame,
    profile: ErrorProfile,
    rx: RxScratch,
}

impl LinkScratch {
    /// Builds the frame around `body`. Returns the frame's length in
    /// chips and the error profile [`Self::send`] corrupts it under, for
    /// the link to refill.
    pub(crate) fn build(
        &mut self,
        dst: u16,
        src: u16,
        seq: u16,
        body: &[u8],
    ) -> (u64, &mut ErrorProfile) {
        let b = self.buffers.get_or_insert_default();
        b.frame.refill(dst, src, seq, body);
        (b.frame.chips_len() as u64, &mut b.profile)
    }

    /// Sends the built frame under the profile
    /// ([`FastRx::transmit_into`]).
    ///
    /// # Panics
    /// Panics unless a frame was built first.
    pub(crate) fn send<R: Rng>(
        &mut self,
        rx: &FastRx,
        rng: &mut R,
        receiver_idle: bool,
    ) -> (Acquisition, Option<&RxFrame>) {
        let b = self
            .buffers
            .as_mut()
            .expect("build a frame before sending it");
        rx.transmit_into(&b.frame, &b.profile, rng, receiver_idle, &mut b.rx)
    }
}

/// The receiver's view of a `len`-byte body: the decoded bytes and their
/// per-byte hints, or zeros with `u8::MAX` hints (nothing trusted) when
/// the frame was lost or decoded to a different length.
pub fn body_or_lost(rx: Option<&RxFrame>, len: usize) -> (Vec<u8>, Vec<u8>) {
    match rx.and_then(RxFrame::body_columns) {
        Some(body) if body.bytes.len() == len => (body.bytes.to_vec(), body.byte_hints.to_vec()),
        _ => (vec![0; len], vec![u8::MAX; len]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppr_phy::sync::TX_PREAMBLE_CHIPS;
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

    /// The link experiments' send path ([`LinkScratch::build`], then
    /// [`LinkScratch::send`], i.e. [`FastRx::transmit_into`]) against
    /// the spec composition (`corrupt_chips` then [`FastRx::receive`]),
    /// each carrying its own copy of one RNG stream across a sequence of
    /// frames, the way the link experiments do. Longer frames pass
    /// before shorter ones through the one scratch, so what a frame
    /// leaves in it must be invisible to the next. Profile shapes:
    /// jam's pulse spans at 0.35, fig16's collision burst, a fully
    /// jammed span, and a clean sparse link.
    #[test]
    fn link_send_equals_the_spec_over_one_stream() {
        use ppr_channel::chip_channel::corrupt_chips;
        for postamble in [false, true] {
            let fast = FastRx::new(postamble);
            let mut rng_spec = StdRng::seed_from_u64(0x5EED ^ postamble as u64);
            let mut rng_fast = rng_spec.clone();
            let mut link = LinkScratch::default();
            let mut seen = Vec::new();
            for (k, body_len) in [250usize, 24, 120, 250, 8, 200, 250, 60]
                .into_iter()
                .enumerate()
            {
                let body = vec![(k as u8).wrapping_mul(37); body_len];
                let frame = Frame::new(1, 2, k as u16, body.clone());
                let clean = frame.chips();
                let n = clean.len() as u64;
                let base = 2e-3;
                let profile = ErrorProfile::from_pieces(match k % 4 {
                    0 => (0..n)
                        .step_by(4096)
                        .flat_map(|s| {
                            [
                                (s, (s + 2048).min(n), 0.35),
                                ((s + 2048).min(n), (s + 4096).min(n), base),
                            ]
                        })
                        .collect(),
                    1 => vec![
                        (0, n / 3, base),
                        (n / 3, n / 3 + n / 4, 0.35),
                        (n / 3 + n / 4, n, base),
                    ],
                    2 => vec![
                        (0, n / 2, base),
                        (n / 2, n / 2 + 700, 0.5),
                        (n / 2 + 700, n, base),
                    ],
                    _ => vec![(0, n, 1e-4)],
                });
                // mrd sends to busy receivers too.
                let idle = k % 3 != 2;
                let spec = fast.receive(
                    &frame,
                    &corrupt_chips(&clean, &profile, &mut rng_spec),
                    idle,
                );
                let (len, link_profile) = link.build(1, 2, k as u16, &body);
                assert_eq!(len, n, "frame {k}");
                *link_profile = profile;
                let (acq, rx) = link.send(&fast, &mut rng_fast, idle);
                assert_eq!(spec, (acq, rx.cloned()), "frame {k} postamble {postamble}");
                seen.push(acq);
            }
            for acq in [Acquisition::Preamble, Acquisition::None] {
                assert!(seen.contains(&acq), "{acq:?} never exercised: {seen:?}");
            }
            assert_eq!(
                seen.contains(&Acquisition::Postamble),
                postamble,
                "{seen:?}"
            );
            assert_eq!(
                rng_spec.gen::<u64>(),
                rng_fast.gen::<u64>(),
                "postamble {postamble}"
            );
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
        // The scan pattern ends with the transmitted preamble.
        assert_eq!(
            FastRx::preamble_pattern_offset() + pre.len_chips(),
            TX_PREAMBLE_CHIPS
        );
        assert_eq!(
            post.distance_at(&chips, FastRx::postamble_pattern_offset(chips.len())),
            0
        );
    }
}
