//! Trace-level policy: `ADAMEL_TRACE` parsing and runtime overrides.
//!
//! Mirrors the `ADAMEL_SANITIZE` machinery in `adamel_tensor::sanitize`:
//! the environment is read once per process, a forced override (for tests
//! and benches) lives in one atomic, and the fast path — [`level`] when
//! tracing is off — is a single relaxed load plus a cached read.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// How much the observability layer records. Levels are ordered:
/// `Off < Spans < Full`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum TraceLevel {
    /// Record nothing; every probe is an early return.
    Off,
    /// Coarse spans (predict, forward phases, train epochs, linking),
    /// counters, and value statistics.
    Spans,
    /// Everything in `Spans`, plus one span per autograd tape op.
    Full,
}

impl TraceLevel {
    /// The level's canonical lowercase name (`"off"` / `"spans"` /
    /// `"full"`), as accepted by `ADAMEL_TRACE` and emitted in reports.
    ///
    /// # Examples
    ///
    /// ```
    /// assert_eq!(adamel_obs::TraceLevel::Full.name(), "full");
    /// ```
    pub fn name(self) -> &'static str {
        match self {
            TraceLevel::Off => "off",
            TraceLevel::Spans => "spans",
            TraceLevel::Full => "full",
        }
    }
}

/// Runtime override state: 0 = follow the environment, 1 = forced off,
/// 2 = forced spans, 3 = forced full.
static FORCED: AtomicU8 = AtomicU8::new(0);

/// Forces the trace level (`Some`) or restores the `ADAMEL_TRACE`
/// environment default (`None`). Process-global: intended for benches (the
/// `perfjson --obs` exercise pass) and isolated test binaries, not for
/// toggling mid-run — spans opened under one level still close correctly
/// under another, but the report then mixes detail levels.
///
/// # Examples
///
/// ```
/// use adamel_obs::{level, set_forced, TraceLevel};
///
/// set_forced(Some(TraceLevel::Full));
/// assert_eq!(level(), TraceLevel::Full);
/// set_forced(None); // back to the ADAMEL_TRACE default
/// ```
pub fn set_forced(forced: Option<TraceLevel>) {
    let v = match forced {
        None => 0,
        Some(TraceLevel::Off) => 1,
        Some(TraceLevel::Spans) => 2,
        Some(TraceLevel::Full) => 3,
    };
    FORCED.store(v, Ordering::Relaxed);
}

/// `ADAMEL_TRACE` parsed once: `off`/`0` (and unset or unrecognized) map to
/// `Off`, `spans`/`1` to `Spans`, `full`/`2` to `Full`.
fn env_default() -> TraceLevel {
    static DEFAULT: OnceLock<TraceLevel> = OnceLock::new();
    *DEFAULT.get_or_init(|| match std::env::var("ADAMEL_TRACE") {
        Ok(v) => match v.trim().to_ascii_lowercase().as_str() {
            "spans" | "1" => TraceLevel::Spans,
            "full" | "2" => TraceLevel::Full,
            _ => TraceLevel::Off,
        },
        Err(_) => TraceLevel::Off,
    })
}

/// The current trace level. See the crate docs for the level table.
///
/// # Examples
///
/// ```
/// // With neither ADAMEL_TRACE nor a forced override, tracing is off.
/// adamel_obs::set_forced(Some(adamel_obs::TraceLevel::Off));
/// assert_eq!(adamel_obs::level(), adamel_obs::TraceLevel::Off);
/// adamel_obs::set_forced(None);
/// ```
#[inline]
pub fn level() -> TraceLevel {
    if cfg!(not(feature = "capture")) {
        return TraceLevel::Off;
    }
    match FORCED.load(Ordering::Relaxed) {
        1 => TraceLevel::Off,
        2 => TraceLevel::Spans,
        3 => TraceLevel::Full,
        _ => env_default(),
    }
}

/// True when anything at all is being recorded (`level() != Off`).
///
/// Instrumented code uses this to skip *computing* telemetry inputs (e.g.
/// an extra gradient-norm pass) — recording calls are already self-gated.
///
/// # Examples
///
/// ```
/// adamel_obs::set_forced(Some(adamel_obs::TraceLevel::Spans));
/// assert!(adamel_obs::enabled());
/// adamel_obs::set_forced(None);
/// ```
#[inline]
pub fn enabled() -> bool {
    level() != TraceLevel::Off
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TEST_LOCK as LOCK;

    #[test]
    fn levels_are_ordered() {
        assert!(TraceLevel::Off < TraceLevel::Spans);
        assert!(TraceLevel::Spans < TraceLevel::Full);
    }

    #[test]
    fn forced_levels_round_trip() {
        let _guard = LOCK.lock().unwrap_or_else(|p| p.into_inner());
        for l in [TraceLevel::Off, TraceLevel::Spans, TraceLevel::Full] {
            set_forced(Some(l));
            assert_eq!(level(), l);
            assert_eq!(enabled(), l != TraceLevel::Off);
        }
        set_forced(None);
    }

    #[test]
    fn names_match_env_grammar() {
        assert_eq!(TraceLevel::Off.name(), "off");
        assert_eq!(TraceLevel::Spans.name(), "spans");
        assert_eq!(TraceLevel::Full.name(), "full");
    }
}
