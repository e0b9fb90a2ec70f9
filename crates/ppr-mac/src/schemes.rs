//! The three delivery schemes compared throughout the evaluation (§7.2).
//!
//! * **Packet CRC** — the status quo: one CRC-32 over the packet; all or
//!   nothing.
//! * **Fragmented CRC** — §3.4's SoftPHY alternative: the body is a
//!   sequence of fragments each followed by its own CRC-32; fragments
//!   that verify are delivered, the rest discarded. Pays a per-fragment
//!   4-byte airtime tax (the Table 2 trade-off).
//! * **PPR** — delivers exactly those bytes whose SoftPHY hints pass the
//!   threshold rule `hint ≤ η`, with `η = 6` as in the paper.
//!
//! A scheme owns both sides of the story: how the transmitted body is
//! built (airtime cost) and which byte ranges of a reception are passed
//! to higher layers. The first is its [`BodyLayout`]: Packet CRC and
//! PPR send the same body, so a receiver that scores several schemes on
//! one trace decodes their frame once and applies each acceptance rule
//! to that decode ([`ReceivedBody`], [`DeliveryScheme::for_each_accepted`]).

use crate::crc::{crc32, verify_crc32_trailer};
use crate::rx::RxFrame;
use std::cell::OnceCell;

/// The paper's SoftPHY threshold, `η = 6` (§7.2).
pub const DEFAULT_ETA: u8 = 6;

/// A contiguous byte range delivered to higher layers, in *payload*
/// coordinates (fragment CRCs stripped).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delivered {
    /// Offset of the first byte within the original payload.
    pub offset: usize,
    /// The delivered bytes.
    pub bytes: Vec<u8>,
}

/// One of the three §7.2 delivery schemes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeliveryScheme {
    /// Whole-packet CRC-32; deliver all or nothing.
    PacketCrc,
    /// Per-fragment CRC-32 with `frag_payload` payload bytes per
    /// fragment; deliver verifying fragments.
    FragmentedCrc {
        /// Payload bytes per fragment (the paper's chunk size; 50 B is
        /// the Table 2 optimum).
        frag_payload: usize,
    },
    /// SoftPHY-hint thresholding at `eta`; deliver bytes labeled good.
    Ppr {
        /// The hint threshold `η`.
        eta: u8,
    },
}

/// What a scheme sends: the over-the-air body it builds from a payload.
/// Schemes with equal layouts build byte-identical bodies, so their
/// frames are the same frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BodyLayout {
    /// The payload itself (Packet CRC, and PPR at any η).
    Payload,
    /// The payload in `frag_payload`-byte fragments, each followed by its
    /// CRC-32 (Fragmented CRC).
    Fragmented {
        /// Payload bytes per fragment.
        frag_payload: usize,
    },
}

impl BodyLayout {
    /// Builds the over-the-air body for a payload.
    pub fn build(&self, payload: &[u8]) -> Vec<u8> {
        match *self {
            BodyLayout::Payload => payload.to_vec(),
            BodyLayout::Fragmented { frag_payload } => {
                assert!(frag_payload > 0, "fragment size must be positive");
                let mut body =
                    Vec::with_capacity(payload.len() + 4 * payload.len().div_ceil(frag_payload));
                for frag in payload.chunks(frag_payload) {
                    body.extend_from_slice(frag);
                    body.extend_from_slice(&crc32(frag).to_le_bytes());
                }
                body
            }
        }
    }

    /// On-air body length for a payload of `payload_len` bytes.
    pub fn body_len(&self, payload_len: usize) -> usize {
        match *self {
            BodyLayout::Payload => payload_len,
            BodyLayout::Fragmented { frag_payload } => {
                payload_len + 4 * payload_len.div_ceil(frag_payload.max(1))
            }
        }
    }

    /// Inverse of [`Self::body_len`]: payload bytes carried by a body of
    /// `body_len` bytes (exact for bodies this layout built).
    pub fn payload_len(&self, body_len: usize) -> usize {
        match *self {
            BodyLayout::Payload => body_len,
            BodyLayout::Fragmented { frag_payload } => {
                // Each full fragment occupies frag_payload + 4 bytes.
                let full = body_len / (frag_payload + 4);
                let rem = body_len % (frag_payload + 4);
                full * frag_payload + rem.saturating_sub(4)
            }
        }
    }
}

impl DeliveryScheme {
    /// The body this scheme sends.
    pub fn body_layout(&self) -> BodyLayout {
        match *self {
            DeliveryScheme::PacketCrc | DeliveryScheme::Ppr { .. } => BodyLayout::Payload,
            DeliveryScheme::FragmentedCrc { frag_payload } => {
                BodyLayout::Fragmented { frag_payload }
            }
        }
    }

    /// Builds the over-the-air body for a payload.
    pub fn build_body(&self, payload: &[u8]) -> Vec<u8> {
        self.body_layout().build(payload)
    }

    /// On-air body length for a payload of `payload_len` bytes.
    pub fn body_len(&self, payload_len: usize) -> usize {
        self.body_layout().body_len(payload_len)
    }

    /// Inverse of [`Self::body_len`]: payload bytes carried by a body of
    /// `body_len` bytes (exact for bodies this scheme built).
    pub fn payload_len(&self, body_len: usize) -> usize {
        self.body_layout().payload_len(body_len)
    }

    /// Applies the scheme's acceptance rule to a reception, returning the
    /// delivered payload ranges.
    pub fn deliver(&self, rx: &RxFrame) -> Vec<Delivered> {
        let Some(body) = rx.body_bytes() else {
            return Vec::new();
        };
        match *self {
            DeliveryScheme::PacketCrc => {
                if rx.pkt_crc_ok() {
                    vec![Delivered {
                        offset: 0,
                        bytes: body,
                    }]
                } else {
                    Vec::new()
                }
            }
            DeliveryScheme::FragmentedCrc { frag_payload } => {
                let mut out = Vec::new();
                let mut body_pos = 0usize;
                let mut payload_pos = 0usize;
                while body_pos < body.len() {
                    let frag_len =
                        frag_payload.min(body.len().saturating_sub(body_pos).saturating_sub(4));
                    if frag_len == 0 {
                        break;
                    }
                    let end = body_pos + frag_len + 4;
                    if verify_crc32_trailer(&body[body_pos..end]) {
                        out.push(Delivered {
                            offset: payload_pos,
                            bytes: body[body_pos..body_pos + frag_len].to_vec(),
                        });
                    }
                    body_pos = end;
                    payload_pos += frag_len;
                }
                out
            }
            DeliveryScheme::Ppr { eta } => {
                let Some(hints) = rx.body_byte_hints() else {
                    return Vec::new();
                };
                let mut out: Vec<Delivered> = Vec::new();
                for (i, (&b, &h)) in body.iter().zip(&hints).enumerate() {
                    if h > eta {
                        continue;
                    }
                    match out.last_mut() {
                        Some(run) if run.offset + run.bytes.len() == i => run.bytes.push(b),
                        _ => out.push(Delivered {
                            offset: i,
                            bytes: vec![b],
                        }),
                    }
                }
                out
            }
        }
    }

    /// [`Self::deliver`] without building its runs: calls `f(offset,
    /// byte)` for every payload byte `deliver` would deliver from
    /// `body`'s reception, in increasing offset order. The walk itself
    /// allocates nothing; `body` reads its CRC verdict and hints once,
    /// for every scheme scored on it. `deliver` stays the
    /// specification; a property test in this module pins the two
    /// together.
    pub fn for_each_accepted(&self, body: &ReceivedBody<'_>, mut f: impl FnMut(usize, u8)) {
        let bytes = body.bytes();
        match *self {
            DeliveryScheme::PacketCrc => {
                if body.crc_ok() {
                    for (i, &b) in bytes.iter().enumerate() {
                        f(i, b);
                    }
                }
            }
            DeliveryScheme::FragmentedCrc { frag_payload } => {
                let mut body_pos = 0usize;
                let mut payload_pos = 0usize;
                while body_pos < bytes.len() {
                    let frag_len =
                        frag_payload.min(bytes.len().saturating_sub(body_pos).saturating_sub(4));
                    if frag_len == 0 {
                        break;
                    }
                    let end = body_pos + frag_len + 4;
                    if verify_crc32_trailer(&bytes[body_pos..end]) {
                        for (j, &b) in bytes[body_pos..body_pos + frag_len].iter().enumerate() {
                            f(payload_pos + j, b);
                        }
                    }
                    body_pos = end;
                    payload_pos += frag_len;
                }
            }
            DeliveryScheme::Ppr { eta } => {
                for (i, (&b, &h)) in bytes.iter().zip(body.byte_hints()).enumerate() {
                    if h <= eta {
                        f(i, b);
                    }
                }
            }
        }
    }

    /// The delivered and the delivered-correct byte counts of `body`'s
    /// reception against the ground-truth payload `truth`: the total
    /// length of [`Self::deliver`]'s runs and their
    /// [`correct_delivered_bytes`], without building the runs.
    pub fn count_accepted(&self, body: &ReceivedBody<'_>, truth: &[u8]) -> (usize, usize) {
        let (mut claimed, mut correct) = (0usize, 0usize);
        self.for_each_accepted(body, |off, b| {
            claimed += 1;
            correct += usize::from(truth.get(off) == Some(&b));
        });
        (claimed, correct)
    }

    /// Short display name used in experiment output.
    pub fn name(&self) -> &'static str {
        match self {
            DeliveryScheme::PacketCrc => "Packet CRC",
            DeliveryScheme::FragmentedCrc { .. } => "Fragmented CRC",
            DeliveryScheme::Ppr { .. } => "PPR",
        }
    }

    /// The three §7.2 schemes under one parameterization, in the
    /// paper's comparison order — the canonical construction for a
    /// scenario's (fragment size, η) knobs.
    pub fn standard_set(frag_payload: usize, eta: u8) -> [DeliveryScheme; 3] {
        [
            DeliveryScheme::PacketCrc,
            DeliveryScheme::FragmentedCrc { frag_payload },
            DeliveryScheme::Ppr { eta },
        ]
    }
}

/// A reception's body as the acceptance rules read it: the body bytes,
/// read out of the frame once, with the whole-packet CRC verdict and the
/// per-byte hints read on first use. Every scheme scored on one
/// reception through [`DeliveryScheme::for_each_accepted`] shares them.
#[derive(Debug)]
pub struct ReceivedBody<'a> {
    rx: &'a RxFrame,
    bytes: Vec<u8>,
    crc_ok: OnceCell<bool>,
    hints: OnceCell<Vec<u8>>,
}

impl<'a> ReceivedBody<'a> {
    /// The body of `rx`, or `None` when `rx` has none (no header
    /// verified) — a reception every scheme delivers nothing from.
    pub fn of(rx: &'a RxFrame) -> Option<Self> {
        Some(ReceivedBody {
            bytes: rx.body_bytes()?,
            rx,
            crc_ok: OnceCell::new(),
            hints: OnceCell::new(),
        })
    }

    /// The received body bytes ([`RxFrame::body_bytes`]).
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// The whole-packet CRC verdict ([`RxFrame::pkt_crc_ok`]).
    pub fn crc_ok(&self) -> bool {
        *self.crc_ok.get_or_init(|| self.rx.pkt_crc_ok())
    }

    /// Per-byte hints over the body ([`RxFrame::body_byte_hints`]).
    pub fn byte_hints(&self) -> &[u8] {
        self.hints
            .get_or_init(|| self.rx.body_byte_hints().unwrap_or_default())
    }
}

/// Counts how many delivered bytes are *correct* against the ground-truth
/// payload (misses deliver wrong bytes; the evaluation counts them out).
pub fn correct_delivered_bytes(delivered: &[Delivered], truth: &[u8]) -> usize {
    let mut correct = 0;
    for d in delivered {
        for (i, &b) in d.bytes.iter().enumerate() {
            if truth.get(d.offset + i) == Some(&b) {
                correct += 1;
            }
        }
    }
    correct
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::Frame;
    use crate::rx::FrameReceiver;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn payload(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i * 7 + 13) as u8).collect()
    }

    fn receive_one(frame: &Frame, corrupt: impl Fn(&mut Vec<bool>, &mut StdRng)) -> RxFrame {
        let mut rng = StdRng::seed_from_u64(99);
        let mut chips = frame.chips();
        corrupt(&mut chips, &mut rng);
        let mut stream: Vec<bool> = (0..200).map(|_| rng.gen()).collect();
        let frame_at = stream.len();
        stream.extend(chips);
        stream.extend((0..200).map(|_| rng.gen::<bool>()));
        let frames = FrameReceiver::default().receive(&stream);
        assert_eq!(frames.len(), 1, "frame_at {frame_at}");
        frames.into_iter().next().unwrap()
    }

    #[test]
    fn standard_set_is_in_paper_order() {
        let set = DeliveryScheme::standard_set(50, 6);
        assert_eq!(set[0], DeliveryScheme::PacketCrc);
        assert_eq!(set[1], DeliveryScheme::FragmentedCrc { frag_payload: 50 });
        assert_eq!(set[2], DeliveryScheme::Ppr { eta: 6 });
    }

    #[test]
    fn packet_crc_delivers_all_on_clean_frame() {
        let p = payload(120);
        let scheme = DeliveryScheme::PacketCrc;
        let frame = Frame::new(1, 2, 0, scheme.build_body(&p));
        let rx = receive_one(&frame, |_, _| {});
        let d = scheme.deliver(&rx);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].bytes, p);
        assert_eq!(correct_delivered_bytes(&d, &p), 120);
    }

    #[test]
    fn packet_crc_delivers_nothing_on_one_bad_symbol() {
        let p = payload(120);
        let scheme = DeliveryScheme::PacketCrc;
        let frame = Frame::new(1, 2, 0, scheme.build_body(&p));
        let rx = receive_one(&frame, |chips, _| {
            // Flip 16 chips of one mid-body codeword → decode error.
            let mid = chips.len() / 2;
            for c in chips[mid..mid + 16].iter_mut() {
                *c = !*c;
            }
        });
        assert!(scheme.deliver(&rx).is_empty());
    }

    #[test]
    fn frag_crc_body_layout_and_lengths() {
        let p = payload(120);
        let scheme = DeliveryScheme::FragmentedCrc { frag_payload: 50 };
        let body = scheme.build_body(&p);
        // 50+4, 50+4, 20+4
        assert_eq!(body.len(), 120 + 3 * 4);
        assert_eq!(scheme.body_len(120), body.len());
        assert_eq!(scheme.payload_len(body.len()), 120);
        for scheme_len in [1usize, 49, 50, 51, 199, 200] {
            let s = DeliveryScheme::FragmentedCrc { frag_payload: 50 };
            assert_eq!(
                s.payload_len(s.body_len(scheme_len)),
                scheme_len,
                "{scheme_len}"
            );
        }
    }

    #[test]
    fn frag_crc_delivers_surviving_fragments() {
        let p = payload(150);
        let scheme = DeliveryScheme::FragmentedCrc { frag_payload: 50 };
        let frame = Frame::new(1, 2, 0, scheme.build_body(&p));
        // Corrupt the middle fragment only: body bytes 54..108 (frag 2
        // spans body [54, 104) + its CRC [104,108)). Body starts at byte
        // 10 of the link section → symbol 20+.
        let rx = receive_one(&frame, |chips, _| {
            let pre = ppr_phy::sync::tx_preamble_chips().len();
            // Byte 70 of body = link byte 80 = symbol 160.
            let start = pre + 160 * 32;
            for c in chips[start..start + 64].iter_mut() {
                *c = !*c; // destroy two codewords
            }
        });
        let d = scheme.deliver(&rx);
        // Fragments 1 (offset 0) and 3 (offset 100) survive.
        assert_eq!(d.len(), 2);
        assert_eq!(d[0].offset, 0);
        assert_eq!(d[0].bytes, &p[0..50]);
        assert_eq!(d[1].offset, 100);
        assert_eq!(d[1].bytes, &p[100..150]);
        assert_eq!(correct_delivered_bytes(&d, &p), 100);
    }

    #[test]
    fn ppr_delivers_good_runs_only() {
        let p = payload(100);
        let scheme = DeliveryScheme::Ppr { eta: DEFAULT_ETA };
        let frame = Frame::new(1, 2, 0, scheme.build_body(&p));
        let rx = receive_one(&frame, |chips, rng| {
            let pre = ppr_phy::sync::tx_preamble_chips().len();
            // Jam body bytes 40..60 (link bytes 50..70 → symbols 100..140).
            let start = pre + 100 * 32;
            for c in chips[start..start + 40 * 32].iter_mut() {
                *c = rng.gen();
            }
        });
        let d = scheme.deliver(&rx);
        let total: usize = d.iter().map(|r| r.bytes.len()).sum();
        // ~80 of 100 bytes survive with good hints.
        assert!((70..=90).contains(&total), "delivered {total}");
        // All delivered bytes must be correct (no misses in this jam).
        assert_eq!(correct_delivered_bytes(&d, &p), total);
        // Delivered ranges exclude the jammed region's core.
        for r in &d {
            assert!(
                r.offset + r.bytes.len() <= 42 || r.offset >= 58,
                "range {:?}",
                r.offset
            );
        }
    }

    #[test]
    fn ppr_beats_frag_crc_beats_packet_crc_on_burst_loss() {
        // The paper's central ordering, in miniature.
        let p = payload(200);
        let corrupt = |chips: &mut Vec<bool>, rng: &mut StdRng| {
            let pre = ppr_phy::sync::tx_preamble_chips().len();
            let start = pre + 150 * 32;
            for c in chips[start..start + 600].iter_mut() {
                *c = rng.gen();
            }
        };
        let mut delivered = Vec::new();
        for scheme in [
            DeliveryScheme::PacketCrc,
            DeliveryScheme::FragmentedCrc { frag_payload: 50 },
            DeliveryScheme::Ppr { eta: DEFAULT_ETA },
        ] {
            let frame = Frame::new(1, 2, 0, scheme.build_body(&p));
            let rx = receive_one(&frame, corrupt);
            let d = scheme.deliver(&rx);
            delivered.push(correct_delivered_bytes(&d, &p));
        }
        assert!(delivered[0] < delivered[1], "frag > packet: {delivered:?}");
        assert!(delivered[1] < delivered[2], "ppr > frag: {delivered:?}");
    }

    #[test]
    fn schemes_with_one_layout_build_one_body() {
        let p = payload(333);
        let schemes = [
            DeliveryScheme::PacketCrc,
            DeliveryScheme::Ppr { eta: 0 },
            DeliveryScheme::Ppr { eta: DEFAULT_ETA },
            DeliveryScheme::Ppr { eta: 33 },
            DeliveryScheme::FragmentedCrc { frag_payload: 1 },
            DeliveryScheme::FragmentedCrc { frag_payload: 50 },
            DeliveryScheme::FragmentedCrc { frag_payload: 50 },
            DeliveryScheme::FragmentedCrc { frag_payload: 146 },
        ];
        for a in &schemes {
            for b in &schemes {
                let same = a.body_layout() == b.body_layout();
                assert_eq!(same, a.build_body(&p) == b.build_body(&p), "{a:?} {b:?}");
                if same {
                    assert_eq!(a.payload_len(1500), b.payload_len(1500), "{a:?} {b:?}");
                }
            }
        }
        assert_eq!(
            DeliveryScheme::PacketCrc.body_layout(),
            DeliveryScheme::Ppr { eta: 6 }.body_layout()
        );
    }

    /// The fragment sizes the property below scores: one-byte fragments,
    /// sizes that do and do not divide the body, the Table 2 optimum,
    /// and one fragment per frame.
    const FRAG_SIZES: [usize; 6] = [1, 11, 46, 50, 146, 1496];

    proptest::proptest! {
        /// The allocation-free fast path walks exactly the positions
        /// `deliver` delivers, and counts what `correct_delivered_bytes`
        /// counts, for every scheme scored on one reception: frames of
        /// any layout, padded past their payload, with codewords
        /// flipped anywhere (header included) so that bytes go wrong
        /// and hints spread, against ground truth that may be shorter
        /// or longer than the body the header announces.
        #[test]
        fn fast_path_walks_what_deliver_delivers(
            layout in 0usize..7,
            body_len in 1usize..1600,
            pad_to in 0usize..64,
            flips in proptest::collection::vec((0usize..4000, 1usize..20), 0..24),
            frag in 0usize..6,
            eta in 0u8..34,
            truth_len in 0usize..1700,
        ) {
            let sent = match layout {
                0 => DeliveryScheme::PacketCrc,
                k => DeliveryScheme::FragmentedCrc { frag_payload: FRAG_SIZES[k - 1] },
            };
            let p = payload(sent.payload_len(body_len));
            let mut body = sent.build_body(&p);
            body.resize(body.len() + pad_to, 0xEE);
            let frame = Frame::new(1, 2, 3, body);
            let mut chips = frame.chip_words();
            let symbols = chips.len() / 32;
            for &(sym, weight) in &flips {
                let sym = sym % symbols;
                for j in 0..weight {
                    chips.toggle(sym * 32 + (j * 7 + sym) % 32);
                }
            }
            let data_start = ppr_phy::sync::TX_PREAMBLE_CHIPS as i64;
            let rx = FrameReceiver::default().decode_from_preamble_words(&chips, data_start);
            let mut truth = p.clone();
            truth.resize(truth_len, 0x5A);

            for scheme in [
                DeliveryScheme::PacketCrc,
                DeliveryScheme::FragmentedCrc { frag_payload: FRAG_SIZES[frag] },
                DeliveryScheme::Ppr { eta },
            ] {
                let spec = scheme.deliver(&rx);
                let want: Vec<(usize, u8)> = spec
                    .iter()
                    .flat_map(|d| d.bytes.iter().enumerate().map(|(i, &b)| (d.offset + i, b)))
                    .collect();
                let counts = (want.len(), correct_delivered_bytes(&spec, &truth));
                match ReceivedBody::of(&rx) {
                    None => prop_assert!(want.is_empty(), "{scheme:?}"),
                    Some(body) => {
                        let mut got = Vec::new();
                        scheme.for_each_accepted(&body, |off, b| got.push((off, b)));
                        prop_assert_eq!(got, want, "{:?}", scheme);
                        prop_assert_eq!(scheme.count_accepted(&body, &truth), counts);
                    }
                }
            }
        }
    }

    #[test]
    fn scheme_names() {
        assert_eq!(DeliveryScheme::PacketCrc.name(), "Packet CRC");
        assert_eq!(
            DeliveryScheme::FragmentedCrc { frag_payload: 50 }.name(),
            "Fragmented CRC"
        );
        assert_eq!(DeliveryScheme::Ppr { eta: 6 }.name(), "PPR");
    }
}
