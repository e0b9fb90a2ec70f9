//! # `ppr-bench` — the perf snapshot, criterion benches and one sweep
//!
//! The paper's figure and table experiments live in the `ppr-sim`
//! experiment registry and run through the `ppr-cli` driver:
//!
//! ```text
//! cargo run --release -p ppr-cli -- --list
//! cargo run --release -p ppr-cli -- run --all
//! cargo run --release -p ppr-cli -- run fig10 --set load=3.5,6.9,13.8 --json out/
//! ```
//!
//! What stays here is what is *not* a registry experiment: the
//! `bench_packed` perf snapshot, the criterion micro-benches for the hot
//! algorithmic paths (the chunking DP, the despreader, the chip
//! channel), and the §9 spreading-factor sweep (`conclusion_rate`),
//! which waits for its own port into the registry.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Prints a standard experiment banner.
pub fn banner(title: &str) {
    println!("{}", "=".repeat(72));
    println!("PPR reproduction — {title}");
    println!("{}", "=".repeat(72));
}
