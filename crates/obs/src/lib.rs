//! # adamel-obs
//!
//! Std-only observability for the AdaMEL workspace: hierarchical span
//! timers, counters, value statistics, and log2-bucket latency histograms,
//! aggregated process-wide and exportable as one schema-versioned JSON
//! report (see [`report`]) — plus a schema-versioned JSONL *run ledger*
//! ([`runlog`], gated by `ADAMEL_RUNLOG=<path>`) recording what the model
//! did (manifest, per-epoch losses, drift warnings, metrics) rather than
//! where the time went, a logical memory ledger ([`mem`]: named byte
//! gauges with peak tracking, answering "where do the bytes go" without
//! an allocator hook), and a minimal JSON parser ([`json`]) so the
//! `adamel-report` tooling can read everything back.
//!
//! The paper's ablations (PVLDB 14(1), §5) hinge on *per-component*
//! measurements — encoding (Eq. 3–4), attention (Eq. 5–6), classifier
//! (Eq. 7), and the adaptation losses (Eq. 9–14) — so the instrumented hot
//! paths mirror exactly those components, and every future performance PR
//! gets a measured baseline instead of a guess.
//!
//! ## Design rules
//!
//! * **Clocks live here, and only here.** Instrumented crates never call
//!   `Instant::now` themselves (the `no-clock-in-compute` lint forbids it in
//!   deterministic compute paths); they create a span guard whose clock
//!   reads happen at the span boundary inside this crate.
//! * **Off means off.** Capture is gated by the `ADAMEL_TRACE` environment
//!   variable (`off` | `spans` | `full`, read once per process). When off,
//!   every probe is one relaxed atomic load and a predicted branch — no
//!   allocation, no lock, no clock read. Compiling with
//!   `--no-default-features` (dropping the `capture` feature) removes the
//!   probes entirely.
//! * **Observation never changes results.** The layer only ever *reads*
//!   timing and writes side tables; no compute path branches on it.
//!
//! ## Levels
//!
//! | `ADAMEL_TRACE` | effect |
//! |---|---|
//! | unset, `off`, `0` | nothing is recorded |
//! | `spans`, `1` | coarse spans (predict, forward phases, train epoch, …), counters, value stats |
//! | `full`, `2` | adds a span per autograd tape op and per-op telemetry |
//!
//! ## Example
//!
//! ```
//! use adamel_obs as obs;
//!
//! obs::set_forced(Some(obs::TraceLevel::Spans)); // tests/benches; normally ADAMEL_TRACE
//! {
//!     let _outer = obs::span("load");
//!     let _inner = obs::span("parse"); // recorded as "load/parse"
//! }
//! obs::counter_add("records", 42);
//! obs::record_value("batch_loss", 0.25);
//!
//! let json = obs::report::render_json();
//! assert!(json.contains("\"adamel-obs/v1\""));
//! assert!(json.contains("load/parse"));
//! obs::set_forced(None);
//! obs::report::reset();
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod hist;
mod level;
mod registry;
mod span;

pub mod json;
pub mod mem;
pub mod report;
pub mod runlog;

/// The forced level and the registry are process-global, and unit tests
/// run on parallel threads: every test module that touches either
/// serializes on this one lock (a lock per module let one module's
/// `set_forced(Off)` land inside another module's test).
#[cfg(test)]
static TEST_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

pub use hist::Histogram;
pub use level::{enabled, level, set_forced, TraceLevel};
pub use registry::{counter_add, counter_value, record_value, value_stat, ValueStat};
pub use span::{op_span, span, spans_entered, SpanGuard};

/// Opens a coarse span (active at [`TraceLevel::Spans`] and above) that
/// lasts until the end of the enclosing block.
///
/// Expands to a guard binding; when tracing is off the guard is inert and
/// the whole expansion costs one relaxed atomic load. Without the `capture`
/// feature it compiles to nothing at all.
///
/// # Examples
///
/// ```
/// fn hot_path() {
///     adamel_obs::trace_span!("hot_path");
///     // ... timed work ...
/// }
/// hot_path();
/// ```
#[macro_export]
macro_rules! trace_span {
    ($name:expr) => {
        let _adamel_obs_span = $crate::span($name);
    };
}

/// Opens a per-operation span (active only at [`TraceLevel::Full`]) that
/// lasts until the end of the enclosing block.
///
/// Used by the autograd tape: one guard per tape op, so `full` traces show
/// where a forward/backward pass spends its time. Same cost model as
/// [`trace_span!`].
///
/// # Examples
///
/// ```
/// fn matmul_like_op() {
///     adamel_obs::trace_op!("matmul");
///     // ... kernel ...
/// }
/// matmul_like_op();
/// ```
#[macro_export]
macro_rules! trace_op {
    ($name:expr) => {
        let _adamel_obs_op = $crate::op_span($name);
    };
}

/// Adds `delta` to the named monotonic counter when tracing is enabled.
///
/// # Examples
///
/// ```
/// adamel_obs::trace_count!("rows_scored", 128);
/// ```
#[macro_export]
macro_rules! trace_count {
    ($name:expr, $delta:expr) => {
        $crate::counter_add($name, $delta)
    };
}

/// Records one observation of the named value statistic when tracing is
/// enabled.
///
/// # Examples
///
/// ```
/// adamel_obs::trace_value!("epoch_loss", 0.173);
/// ```
#[macro_export]
macro_rules! trace_value {
    ($name:expr, $value:expr) => {
        $crate::record_value($name, $value)
    };
}
