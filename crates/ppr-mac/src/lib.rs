//! # `ppr-mac` — link-layer framing, CRCs and delivery schemes
//!
//! The link/MAC substrate of the PPR reproduction, sitting between the
//! `ppr-phy` modem and the `ppr-core` PP-ARQ protocol:
//!
//! * [`crc`] — table-driven CRC-32 (IEEE) and CRC-16 (CCITT), built from
//!   scratch.
//! * [`clmul`] — PCLMULQDQ CRC-32 folding for packet-sized buffers,
//!   with compile-time-derived constants; the workspace's second
//!   `unsafe`-allowlisted module (see `ppr-lint.toml`).
//! * [`frame`] — the Fig. 2 frame: header (`len`,`dst`,`src`,`seq` +
//!   CRC-16), body, packet CRC-32, and a **trailer replicating the
//!   header** so the frame is decodable from either end.
//! * [`rx`] — the receive pipeline: preamble decoding, postamble
//!   **rollback** through the trailer (§4), and SoftPHY-annotated frame
//!   reconstruction with explicit never-received padding.
//! * [`schemes`] — the §7.2 trio: packet CRC, fragmented CRC and PPR
//!   (hint-threshold) delivery.
//! * [`arq_policy`] — bounded-retry backoff schedules and
//!   graceful-degradation outcomes for ARQ under adversity.

// `deny`, not `forbid`: the `clmul` module carries a scoped
// `#[allow(unsafe_code)]` for its `core::arch` intrinsics, exactly like
// `ppr_phy::simd`. The unsafe-containment lint enforces that no other
// module does.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod arq_policy;
pub mod clmul;
pub mod crc;
pub mod frame;
pub mod rx;
pub mod schemes;

pub use arq_policy::{BackoffPolicy, DeliveryOutcome};
pub use crc::{crc16, crc32};
pub use frame::{Addr, Frame, FrameGeometry, Header, HEADER_BYTES, PKT_CRC_BYTES};
pub use rx::{FrameReceiver, RxConfig, RxFrame, HINT_NEVER_RECEIVED};
pub use schemes::{
    correct_delivered_bytes, BodyLayout, Delivered, DeliveryScheme, ReceivedBody, DEFAULT_ETA,
};
