//! # PPR: Partial Packet Recovery for Wireless Networks
//!
//! A from-scratch Rust reproduction of *"PPR: Partial Packet Recovery for
//! Wireless Networks"* (Jamieson & Balakrishnan, SIGCOMM 2007 /
//! MIT-CSAIL-TR-2007-008).
//!
//! This facade crate re-exports the workspace crates under one roof:
//!
//! * [`phy`] — an 802.15.4 (Zigbee) DSSS/MSK software modem that attaches a
//!   **SoftPHY** confidence hint (Hamming distance to the decoded codeword)
//!   to every group of decoded bits, plus preamble/**postamble** frame
//!   synchronization.
//! * [`channel`] — indoor radio propagation: log-distance path loss,
//!   shadowing, AWGN, and per-chip SINR under concurrent (colliding)
//!   transmissions; both a fast chip-flip backend and a full sample-level
//!   DSP backend.
//! * [`mac`] — framing (header + replicated trailer + postamble), CRC-32 /
//!   CRC-16, postamble rollback, and the three §7.2 delivery schemes
//!   (packet CRC, fragmented CRC, PPR).
//! * [`core`] — the paper's contribution: the SoftPHY interface contract,
//!   run-length representation, the PP-ARQ chunking dynamic program
//!   (Eqs. 4–5) and the full PP-ARQ retransmission protocol.
//! * [`sim`] — the 27-node indoor testbed (Fig. 7) as a deterministic
//!   discrete-event simulation, with one experiment module per paper
//!   figure/table.
//!
//! ## Quickstart
//!
//! ```
//! use ppr::core::{PacketHints, PpArq, PpArqConfig};
//!
//! // A 64-codeword packet whose middle 8 codewords were judged "bad".
//! let mut hints = vec![0u8; 64];
//! for h in &mut hints[28..36] { *h = 9; }
//! let hints = PacketHints::from_raw(&hints, 6);
//!
//! // PP-ARQ receiver decides the cheapest retransmission request.
//! let plan = PpArq::new(PpArqConfig::default()).plan_feedback(&hints);
//! assert_eq!(plan.chunks.len(), 1);
//! assert!(plan.chunks[0].covers(30));
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use ppr_channel as channel;
pub use ppr_core as core;
pub use ppr_mac as mac;
pub use ppr_phy as phy;
pub use ppr_sim as sim;
