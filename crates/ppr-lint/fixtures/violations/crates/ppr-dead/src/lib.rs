//! A library crate with one live and one dead `pub` item.

pub mod stats;

pub use stats::{mean, spread};
