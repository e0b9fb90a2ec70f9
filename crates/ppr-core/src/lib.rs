//! # `ppr-core` — the PPR contribution: SoftPHY interface + PP-ARQ
//!
//! This crate implements the paper's core machinery on top of the
//! `ppr-phy`/`ppr-mac` substrates:
//!
//! * [`hints`] — [`PacketHints`]: a packet's SoftPHY hints plus the
//!   threshold rule `good ⇔ hint ≤ η` (§3.2), unit-agnostic per the
//!   SoftPHY abstraction contract (§3.3).
//! * [`runs`] — the run-length representation
//!   `λᵇ₁λᵍ₁…λᵇ_Lλᵍ_L` (Eq. 2).
//! * [`dp`] — the chunking dynamic program (Eqs. 4–5) choosing the
//!   cheapest set of retransmission chunks. The paper's `O(L³)` interval
//!   DP is kept as the pinned reference; production planning runs an
//!   `O(L)` partition reformulation with identical plans (see the
//!   module docs), plus an exponential reference implementation for
//!   property tests.
//! * [`feedback`] — the bit-exact feedback packet (chunk descriptors +
//!   complement-range CRC-16s).
//! * [`arq`] — the full lockstep PP-ARQ protocol: receiver/sender state
//!   machines, retransmission packets with per-segment CRCs, miss
//!   detection via the checksum pass, and [`arq::run_session`] to drive
//!   a transfer over any [`arq::ArqChannel`].
//! * [`threshold`] — adaptive-η estimation (§3.3's observation-driven
//!   thresholding).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arq;
pub mod bits;
pub mod dp;
pub mod feedback;
pub mod hints;
pub mod runs;
pub mod stream;
pub mod threshold;

pub use arq::{
    run_session, run_session_with, ArqChannel, ByteState, DecodedRetx, PerfectChannel, PpArq,
    PpArqConfig, ReceiverPacket, RetxPacket, Segment, SenderPacket, SessionStats,
};
pub use dp::{
    plan_chunks, plan_chunks_brute, plan_chunks_interval, plan_chunks_with, ChunkPlan,
    ChunkScratch, CostModel,
};
pub use feedback::{complement_ranges, Feedback, RangeChecksum};
pub use hints::PacketHints;
pub use runs::{RunLengths, RunPair, UnitRange};
pub use stream::{run_stream_session, Record, StreamStats};
pub use threshold::AdaptiveThreshold;
