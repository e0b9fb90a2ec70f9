//! # `ppr-phy` — 802.15.4 DSSS/MSK software modem with SoftPHY hints
//!
//! This crate is the physical-layer substrate of the PPR reproduction
//! (Jamieson & Balakrishnan, SIGCOMM 2007): a software implementation of
//! the CC2420-style 2.4 GHz 802.15.4 PHY the paper's testbed used, with
//! the receiver structure of the paper's Fig. 1.
//!
//! ## Transmit path
//!
//! bytes → 4-bit symbols ([`spread::bytes_to_symbols`]) → 32-chip
//! codewords ([`chips::CODEBOOK`]) → MSK waveform
//! ([`modem::MskModem::modulate`]), framed by a preamble and — PPR's
//! addition — a **postamble** ([`sync`]).
//!
//! ## Receive path
//!
//! samples → matched filter ([`modem::MskModem::demodulate`]) → hard
//! chip decisions → delimiter sync ([`sync::SyncPattern`]) →
//! nearest-codeword despreading with a **Hamming-distance SoftPHY hint**
//! per symbol
//! ([`frame_rx::ChipReceiver::despread`] → [`softphy::SoftSpan`]).
//!
//! Network-scale experiments bypass the waveform and work on chip streams
//! directly (see `ppr-channel`'s fast backend); the two paths share all
//! code from hard chip decisions upward.

// `deny` rather than `forbid`: the SIMD despread kernels in [`simd`]
// are the one sanctioned exception (feature-gated `core::arch`
// intrinsics behind runtime detection) and opt in with a module-level
// `allow`. Everything else stays unsafe-free.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod chips;
pub mod complex;
pub mod frame_rx;
pub mod modem;
pub mod pulse;
pub mod simd;
pub mod softphy;
pub mod spread;
pub mod sync;
pub mod view;

pub use chips::{ChipWords, Decision, BITS_PER_SYMBOL, CHIPS_PER_SYMBOL, CHIP_RATE_HZ};
pub use complex::Complex32;
pub use frame_rx::ChipReceiver;
pub use modem::MskModem;
pub use simd::{decide_batch, DespreadKernel, DspKernel};
pub use softphy::{SoftSpan, SoftSymbol};
pub use sync::{SyncHit, SyncKind, SyncPattern};
pub use view::SymbolView;
