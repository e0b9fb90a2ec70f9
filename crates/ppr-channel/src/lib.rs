//! # `ppr-channel` — indoor radio propagation and interference models
//!
//! The channel substrate of the PPR reproduction. The paper ran on real
//! radios in a nine-room office floor; this crate replaces the building
//! with the standard indoor propagation stack while preserving exactly the
//! statistics PPR's mechanisms react to:
//!
//! * **Link diversity** — [`pathloss`]: log-distance path loss with
//!   frozen per-link lognormal shadowing produces the mix of perfect and
//!   marginal links of the paper's Fig. 7 testbed.
//! * **Collisions** — [`overlap`]: concurrent transmissions become
//!   piecewise-constant interference-power spans over a victim frame, so
//!   errors arrive in contiguous bursts, as they do when packets collide.
//! * **Chip errors** — [`ber`]: the matched-filter MSK chip error
//!   probability `Q(√(2·SINR))` ties both backends together.
//! * **Jamming** — [`jamming`]: duty-cycled burst placement and
//!   interval clipping for the adversarial experiments; bursts corrupt
//!   chips through the same overlap/error-profile path as collisions.
//!
//! Two interchangeable backends realize the corruption:
//!
//! * [`chip_channel`] — fast: flips individual chips per their span's
//!   error probability (geometric skipping makes clean links ~free).
//!   Used by all network-scale experiments.
//! * [`sample_channel`] — full DSP: superposed MSK waveforms + complex
//!   AWGN, demodulated by `ppr-phy`'s matched filter. Used by the
//!   collision-anatomy experiment and to calibrate the fast backend
//!   (see `tests/channel_parity.rs` at the workspace root).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ber;
pub mod chip_channel;
pub mod jamming;
pub mod math;
pub mod overlap;
pub mod pathloss;
pub mod sample_channel;

pub use ber::{chip_error_prob, sinr};
pub use chip_channel::{
    codeword_flip_counts, corrupt_chip_words_in_place, corrupt_chips, ErrorProfile,
};
pub use jamming::{clip_bursts, cover_fraction, pulse_burst, pulse_bursts_in, Burst};
pub use overlap::{interference_profile, overlap_window, HeardTx, InterferenceSpan};
pub use pathloss::{Link, PathLossModel};
pub use sample_channel::{render, render_single, WaveformTx};
