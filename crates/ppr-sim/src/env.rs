//! Environment-variable overrides, parsed in exactly one place.
//!
//! Two knobs are honored process-wide and both warn on stderr instead of
//! silently ignoring a typo:
//!
//! * `PPR_DURATION` — simulated seconds per experiment run (default
//!   [`DEFAULT_DURATION_S`]).
//! * `PPR_THREADS` — how many experiments `ppr-cli` runs concurrently
//!   (default: the machine's available parallelism). Pool threads that
//!   no experiment occupies are lent to the mesh floods' decode crew
//!   ([`crate::experiments::mesh::MeshDriver::run_to_end`], at most one
//!   helper per flood); all other simulation code is single-threaded.
//!
//! Everything else folds these in through [`crate::scenario::Scenario`]
//! (the builder > env > default precedence), so no other module reads
//! `std::env` for simulation parameters.

/// The default experiment duration when `PPR_DURATION` is unset or
/// invalid, seconds.
pub const DEFAULT_DURATION_S: f64 = 90.0;

/// Longest experiment duration, seconds: ten times the default. A
/// capacity run's timeline grows with load × duration.
pub const MAX_DURATION_S: f64 = 900.0;

/// Is `d` a duration a run accepts: more than zero seconds and at most
/// [`MAX_DURATION_S`]?
pub(crate) fn duration_in_range(d: f64) -> bool {
    d > 0.0 && d <= MAX_DURATION_S
}

/// Default experiment duration, seconds. Override with the
/// `PPR_DURATION` environment variable (e.g. `PPR_DURATION=20` for a
/// quick pass). A value that does not parse as a number of seconds in
/// (0, [`MAX_DURATION_S`]] is rejected with a warning on stderr — a
/// typo'd duration must not silently run the full 90 s default.
pub fn duration_from_env() -> f64 {
    match parse_duration(std::env::var("PPR_DURATION").ok().as_deref()) {
        Ok(d) => d,
        Err(raw) => {
            eprintln!(
                "warning: ignoring invalid PPR_DURATION={raw:?} \
                 (want seconds, > 0 and <= {MAX_DURATION_S}); using the default \
                 {DEFAULT_DURATION_S} s"
            );
            DEFAULT_DURATION_S
        }
    }
}

/// Parses an optional `PPR_DURATION` value. `Ok` carries the duration to
/// use (the default when unset); `Err` carries the rejected raw value so
/// the caller can warn.
pub fn parse_duration(raw: Option<&str>) -> Result<f64, String> {
    let Some(raw) = raw else {
        return Ok(DEFAULT_DURATION_S);
    };
    match raw.trim().parse::<f64>() {
        Ok(d) if duration_in_range(d) => Ok(d),
        _ => Err(raw.to_string()),
    }
}

/// Default size of `ppr-cli`'s experiment pool: the `PPR_THREADS`
/// override, else the machine's available parallelism. An invalid
/// override is rejected with a warning on stderr — a typo'd thread
/// count must not silently run on all cores. The environment is
/// resolved once per process so the warning prints a single time.
pub fn threads_from_env() -> usize {
    threads_override_from_env().unwrap_or_else(available_parallelism)
}

/// The `PPR_THREADS` override itself, `None` when unset (or invalid,
/// after the warning above) — what [`crate::scenario::ScenarioBuilder`]
/// folds into a scenario, so the variable is read in exactly one place.
pub fn threads_override_from_env() -> Option<usize> {
    static OVERRIDE: std::sync::OnceLock<Option<usize>> = std::sync::OnceLock::new();
    *OVERRIDE.get_or_init(
        || match parse_threads(std::env::var("PPR_THREADS").ok().as_deref()) {
            Ok(over) => over,
            Err(raw) => {
                eprintln!(
                    "warning: ignoring invalid PPR_THREADS={raw:?} \
                     (want a positive integer); using available parallelism"
                );
                None
            }
        },
    )
}

/// Parses an optional `PPR_THREADS` value. `Ok(None)` means unset (use
/// available parallelism); `Err` carries the rejected raw value so the
/// caller can warn.
pub fn parse_threads(raw: Option<&str>) -> Result<Option<usize>, String> {
    let Some(raw) = raw else {
        return Ok(None);
    };
    match raw.trim().parse::<usize>() {
        Ok(n) if n >= 1 => Ok(Some(n)),
        _ => Err(raw.to_string()),
    }
}

/// The machine's available parallelism (1 when it cannot be read).
pub(crate) fn available_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duration_parsing_covers_valid_invalid_and_unset() {
        // Unset: the default, no warning path.
        assert_eq!(parse_duration(None), Ok(DEFAULT_DURATION_S));
        // Valid values, including surrounding whitespace.
        assert_eq!(parse_duration(Some("20")), Ok(20.0));
        assert_eq!(parse_duration(Some("0.5")), Ok(0.5));
        assert_eq!(parse_duration(Some(" 42.25 ")), Ok(42.25));
        // Invalid values are rejected (and reported back verbatim).
        assert_eq!(parse_duration(Some("900")), Ok(MAX_DURATION_S));
        for bad in [
            "", "abc", "20s", "1e999", "nan", "inf", "-5", "0", "900.5", "1e9",
        ] {
            assert_eq!(
                parse_duration(Some(bad)),
                Err(bad.to_string()),
                "{bad:?} must be rejected"
            );
        }
    }

    #[test]
    fn thread_parsing_covers_valid_invalid_and_unset() {
        assert_eq!(parse_threads(None), Ok(None));
        assert_eq!(parse_threads(Some("1")), Ok(Some(1)));
        assert_eq!(parse_threads(Some(" 8 ")), Ok(Some(8)));
        for bad in ["", "zero", "0", "-2", "1.5", "4x"] {
            assert_eq!(
                parse_threads(Some(bad)),
                Err(bad.to_string()),
                "{bad:?} must be rejected"
            );
        }
    }

    #[test]
    fn env_resolvers_return_positive_values() {
        assert!(duration_from_env() > 0.0);
        assert!(threads_from_env() >= 1);
    }
}
