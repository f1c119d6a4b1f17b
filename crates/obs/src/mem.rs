//! A logical memory ledger: named byte gauges with peak tracking.
//!
//! This is **not** an allocator hook — no `GlobalAlloc`, no unsafe, no
//! per-allocation interception. Instead, every subsystem that *owns* a
//! meaningful chunk of bytes (buffer pools, packing arenas, encode caches,
//! vocab tables, snapshots, bounded queues) reports its logical footprint
//! into a named gauge. The result answers "where do the bytes go" at the
//! granularity an operator can act on, while staying deterministic,
//! std-only, and free when tracing is off.
//!
//! Two reporting styles coexist:
//!
//! * **Flow** ([`add`] / [`sub`], or the RAII [`MemScope`]): for owners
//!   whose footprint changes incrementally, like a queue gaining and
//!   losing items. A [`MemScope`] remembers exactly how many bytes it
//!   added, so an `ADAMEL_TRACE` flip between its construction and drop
//!   can never unbalance a gauge.
//! * **Absolute** ([`observe`]): for owners that can cheaply compute
//!   their total footprint at a natural boundary (an arena after packing,
//!   a cache after a build). `observe` *sets* the current value and
//!   raises the peak, so a gauge that was blind while tracing was off
//!   self-heals on the first enabled observation.
//!
//! Like every other probe in this crate: when tracing is off each call is
//! one relaxed atomic load, and without the `capture` feature the whole
//! ledger compiles away. Gauges render into the JSON report as the
//! schema-versioned `"mem"` section (see [`crate::report`]).
//!
//! # Examples
//!
//! ```
//! use adamel_obs as obs;
//!
//! obs::set_forced(Some(obs::TraceLevel::Spans));
//! obs::report::reset();
//! obs::mem::add("doc.pool", 4096);
//! obs::mem::sub("doc.pool", 1024);
//! assert_eq!(obs::mem::current("doc.pool"), Some(3072));
//! assert_eq!(obs::mem::peak("doc.pool"), Some(4096));
//! obs::set_forced(None);
//! obs::report::reset();
//! ```

use crate::level::enabled;
use crate::registry;

/// One named gauge: the current logical byte count and its high-water
/// mark since the last [`crate::report::reset`] / [`reset_peaks`].
#[derive(Debug, Clone, Copy, Default)]
pub struct MemGauge {
    /// Bytes currently attributed to this gauge.
    pub current: u64,
    /// Largest value `current` has held.
    pub peak: u64,
}

impl MemGauge {
    fn add(&mut self, bytes: u64) {
        self.current = self.current.saturating_add(bytes);
        if self.current > self.peak {
            self.peak = self.current;
        }
    }

    fn sub(&mut self, bytes: u64) {
        self.current = self.current.saturating_sub(bytes);
    }

    fn observe(&mut self, bytes: u64) {
        self.current = bytes;
        if bytes > self.peak {
            self.peak = bytes;
        }
    }
}

/// Adds `bytes` to the named gauge, raising its peak if needed. No-op
/// when tracing is off.
///
/// # Examples
///
/// ```
/// use adamel_obs as obs;
///
/// obs::set_forced(Some(obs::TraceLevel::Spans));
/// obs::report::reset();
/// obs::mem::add("doc.add", 10);
/// obs::mem::add("doc.add", 5);
/// assert_eq!(obs::mem::current("doc.add"), Some(15));
/// obs::set_forced(None);
/// obs::report::reset();
/// ```
pub fn add(name: &str, bytes: u64) {
    if !enabled() || bytes == 0 {
        return;
    }
    let mut reg = registry::lock();
    reg.mem.entry(name.to_string()).or_default().add(bytes);
}

/// Subtracts `bytes` from the named gauge (saturating at zero — a gauge
/// that missed its `add` while tracing was off must not underflow). The
/// peak is untouched. No-op when tracing is off.
///
/// # Examples
///
/// ```
/// use adamel_obs as obs;
///
/// obs::set_forced(Some(obs::TraceLevel::Spans));
/// obs::report::reset();
/// obs::mem::sub("doc.sub", 100); // never added: clamps at 0
/// assert_eq!(obs::mem::current("doc.sub"), Some(0));
/// obs::set_forced(None);
/// obs::report::reset();
/// ```
pub fn sub(name: &str, bytes: u64) {
    if !enabled() {
        return;
    }
    let mut reg = registry::lock();
    reg.mem.entry(name.to_string()).or_default().sub(bytes);
}

/// Sets the named gauge's current value to `bytes` (absolute footprint)
/// and raises the peak if needed. For owners that recompute their total
/// at a natural boundary; unlike [`add`]/[`sub`] an absolute observation
/// is correct even if every earlier change happened while tracing was
/// off. No-op when tracing is off.
///
/// # Examples
///
/// ```
/// use adamel_obs as obs;
///
/// obs::set_forced(Some(obs::TraceLevel::Spans));
/// obs::report::reset();
/// obs::mem::observe("doc.arena", 4096);
/// obs::mem::observe("doc.arena", 1024); // shrank; peak remembers
/// assert_eq!(obs::mem::current("doc.arena"), Some(1024));
/// assert_eq!(obs::mem::peak("doc.arena"), Some(4096));
/// obs::set_forced(None);
/// obs::report::reset();
/// ```
pub fn observe(name: &str, bytes: u64) {
    if !enabled() {
        return;
    }
    let mut reg = registry::lock();
    reg.mem.entry(name.to_string()).or_default().observe(bytes);
}

/// The current value of a gauge, or `None` if it was never touched (or
/// tracing was off every time it would have been).
pub fn current(name: &str) -> Option<u64> {
    registry::lock().mem.get(name).map(|g| g.current)
}

/// The peak value of a gauge, or `None` if it was never touched.
pub fn peak(name: &str) -> Option<u64> {
    registry::lock().mem.get(name).map(|g| g.peak)
}

/// All gauges in name order, as owned `(name, gauge)` pairs — the same
/// order the JSON report serializes.
///
/// # Examples
///
/// ```
/// use adamel_obs as obs;
///
/// obs::set_forced(Some(obs::TraceLevel::Spans));
/// obs::report::reset();
/// obs::mem::add("doc.snap.b", 2);
/// obs::mem::add("doc.snap.a", 1);
/// let names: Vec<String> = obs::mem::snapshot().into_iter().map(|(n, _)| n).collect();
/// assert_eq!(names, vec!["doc.snap.a".to_string(), "doc.snap.b".to_string()]);
/// obs::set_forced(None);
/// obs::report::reset();
/// ```
pub fn snapshot() -> Vec<(String, MemGauge)> {
    registry::lock().mem.iter().map(|(k, v)| (k.clone(), *v)).collect()
}

/// Sum of every gauge's peak (saturating). This is the "logical
/// high-water mark" a bench row reports as `peak_bytes`; peaks of
/// different gauges may not be simultaneous, so the total is an upper
/// bound on the true combined footprint.
pub fn peak_total() -> u64 {
    registry::lock().mem.values().fold(0u64, |acc, g| acc.saturating_add(g.peak))
}

/// Resets every gauge's peak to its current value, starting a fresh
/// peak-measurement window without losing live balances. Bench harnesses
/// call this between rows so each row's `peak_bytes` reflects only that
/// row's work.
///
/// # Examples
///
/// ```
/// use adamel_obs as obs;
///
/// obs::set_forced(Some(obs::TraceLevel::Spans));
/// obs::report::reset();
/// obs::mem::add("doc.window", 100);
/// obs::mem::sub("doc.window", 100);
/// assert_eq!(obs::mem::peak("doc.window"), Some(100));
/// obs::mem::reset_peaks();
/// assert_eq!(obs::mem::peak("doc.window"), Some(0));
/// obs::set_forced(None);
/// obs::report::reset();
/// ```
pub fn reset_peaks() {
    let mut reg = registry::lock();
    for g in reg.mem.values_mut() {
        g.peak = g.current;
    }
}

/// RAII gauge credit: adds `bytes` to a gauge on construction and
/// subtracts the *same amount it actually added* on drop. If tracing was
/// off at construction the scope is inert — it records zero and
/// subtracts zero — so flipping `ADAMEL_TRACE` mid-flight can never
/// drive a gauge negative or leak phantom bytes.
///
/// The scope is `Send`, so it can travel with the value it accounts for
/// (e.g. ride alongside a queued item across threads).
///
/// # Examples
///
/// ```
/// use adamel_obs as obs;
///
/// obs::set_forced(Some(obs::TraceLevel::Spans));
/// obs::report::reset();
/// {
///     let _queued = obs::mem::MemScope::new("doc.queue", 256);
///     assert_eq!(obs::mem::current("doc.queue"), Some(256));
/// }
/// assert_eq!(obs::mem::current("doc.queue"), Some(0));
/// assert_eq!(obs::mem::peak("doc.queue"), Some(256));
/// obs::set_forced(None);
/// obs::report::reset();
/// ```
#[derive(Debug)]
#[must_use = "the gauge credit is released when this scope drops"]
pub struct MemScope {
    name: Option<String>,
    bytes: u64,
}

impl MemScope {
    /// Credits `bytes` to `name` now; the credit is released on drop.
    /// Inert (records nothing, releases nothing) when tracing is off at
    /// construction.
    pub fn new(name: &str, bytes: u64) -> Self {
        if !enabled() || bytes == 0 {
            return MemScope { name: None, bytes: 0 };
        }
        add(name, bytes);
        MemScope { name: Some(name.to_string()), bytes }
    }
}

impl Drop for MemScope {
    fn drop(&mut self) {
        if let Some(name) = self.name.take() {
            sub(&name, self.bytes);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::level::{set_forced, TraceLevel};
    use crate::TEST_LOCK as LOCK;

    fn reset_registry() {
        let mut reg = registry::lock();
        reg.spans.clear();
        reg.counters.clear();
        reg.values.clear();
        reg.mem.clear();
    }

    #[test]
    fn add_sub_track_current_and_peak() {
        let _guard = LOCK.lock().unwrap_or_else(|p| p.into_inner());
        set_forced(Some(TraceLevel::Spans));
        reset_registry();
        add("t.gauge", 100);
        add("t.gauge", 50);
        sub("t.gauge", 120);
        assert_eq!(current("t.gauge"), Some(30));
        assert_eq!(peak("t.gauge"), Some(150));
        set_forced(None);
        reset_registry();
    }

    #[test]
    fn sub_saturates_at_zero() {
        let _guard = LOCK.lock().unwrap_or_else(|p| p.into_inner());
        set_forced(Some(TraceLevel::Spans));
        reset_registry();
        sub("t.under", 10);
        assert_eq!(current("t.under"), Some(0));
        add("t.over", u64::MAX);
        add("t.over", u64::MAX);
        assert_eq!(current("t.over"), Some(u64::MAX));
        set_forced(None);
        reset_registry();
    }

    #[test]
    fn observe_sets_current_and_raises_peak_only() {
        let _guard = LOCK.lock().unwrap_or_else(|p| p.into_inner());
        set_forced(Some(TraceLevel::Spans));
        reset_registry();
        observe("t.abs", 4096);
        observe("t.abs", 512);
        assert_eq!(current("t.abs"), Some(512));
        assert_eq!(peak("t.abs"), Some(4096));
        set_forced(None);
        reset_registry();
    }

    #[test]
    fn disabled_tracing_records_nothing() {
        let _guard = LOCK.lock().unwrap_or_else(|p| p.into_inner());
        set_forced(Some(TraceLevel::Off));
        reset_registry();
        add("t.off", 1);
        observe("t.off", 1);
        let scope = MemScope::new("t.off", 1);
        drop(scope);
        assert_eq!(current("t.off"), None);
        assert!(snapshot().is_empty());
        assert_eq!(peak_total(), 0);
        set_forced(None);
        reset_registry();
    }

    #[test]
    fn scope_constructed_while_off_stays_inert_after_enable() {
        let _guard = LOCK.lock().unwrap_or_else(|p| p.into_inner());
        set_forced(Some(TraceLevel::Off));
        reset_registry();
        let scope = MemScope::new("t.flip", 777);
        // Tracing turns on while the scope is live: its drop must not
        // subtract bytes it never added.
        set_forced(Some(TraceLevel::Spans));
        add("t.flip", 100);
        drop(scope);
        assert_eq!(current("t.flip"), Some(100));
        set_forced(None);
        reset_registry();
    }

    #[test]
    fn peak_total_and_reset_peaks_window_the_high_water_mark() {
        let _guard = LOCK.lock().unwrap_or_else(|p| p.into_inner());
        set_forced(Some(TraceLevel::Spans));
        reset_registry();
        add("t.a", 100);
        sub("t.a", 100);
        add("t.b", 40);
        assert_eq!(peak_total(), 140);
        reset_peaks();
        assert_eq!(peak_total(), 40, "live balance survives, transient peak does not");
        assert_eq!(current("t.b"), Some(40));
        set_forced(None);
        reset_registry();
    }
}
