//! Process-wide metric registry: spans, counters, and value statistics.
//!
//! One `static Mutex<Registry>` guards three `BTreeMap`s (deterministic
//! iteration order, per the `hashmap-order` lint). The lock is taken only
//! when a span *closes* or a counter/value is recorded while tracing is
//! enabled — never on the `ADAMEL_TRACE=off` fast path — and is held for
//! a handful of map operations, so contention is bounded by how often
//! spans close, not by how long the work inside them runs.

use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard};

use crate::hist::Histogram;
use crate::level::enabled;
use crate::mem::MemGauge;

/// Running statistics over every observation of a named value: count,
/// sum, min, max, and the most recent sample.
///
/// Unlike counters (monotonic `u64` totals), value stats carry `f64`
/// observations — losses, gradient norms, support-weight means — where
/// the distribution matters more than the total.
///
/// # Examples
///
/// ```
/// use adamel_obs as obs;
///
/// obs::set_forced(Some(obs::TraceLevel::Spans));
/// obs::report::reset();
/// obs::record_value("doc.loss", 0.5);
/// obs::record_value("doc.loss", 0.25);
/// let s = obs::value_stat("doc.loss").expect("recorded above");
/// assert_eq!(s.count, 2);
/// assert_eq!(s.sum, 0.75);
/// assert_eq!(s.last, 0.25);
/// obs::set_forced(None);
/// obs::report::reset();
/// ```
#[derive(Debug, Clone, Copy)]
pub struct ValueStat {
    /// Number of observations.
    pub count: u64,
    /// Sum of all observations.
    pub sum: f64,
    /// Smallest observation.
    pub min: f64,
    /// Largest observation.
    pub max: f64,
    /// Most recent observation.
    pub last: f64,
}

impl ValueStat {
    fn record(&mut self, v: f64) {
        self.count += 1;
        self.sum += v;
        if v < self.min {
            self.min = v;
        }
        if v > self.max {
            self.max = v;
        }
        self.last = v;
    }

    /// Mean of all observations, or `None` if nothing was recorded.
    ///
    /// # Examples
    ///
    /// ```
    /// use adamel_obs as obs;
    ///
    /// obs::set_forced(Some(obs::TraceLevel::Spans));
    /// obs::report::reset();
    /// obs::record_value("doc.mean", 1.0);
    /// obs::record_value("doc.mean", 3.0);
    /// let s = obs::value_stat("doc.mean").expect("recorded above");
    /// assert_eq!(s.mean(), Some(2.0));
    /// obs::set_forced(None);
    /// obs::report::reset();
    /// ```
    pub fn mean(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.sum / self.count as f64)
        }
    }
}

/// The aggregated state behind the process-wide registry lock.
#[derive(Debug, Default)]
pub(crate) struct Registry {
    /// Span-path → latency histogram (nanoseconds).
    pub(crate) spans: BTreeMap<String, Histogram>,
    /// Counter name → monotonic total.
    pub(crate) counters: BTreeMap<String, u64>,
    /// Value name → running statistics.
    pub(crate) values: BTreeMap<String, ValueStat>,
    /// Memory gauge name → current/peak logical bytes.
    pub(crate) mem: BTreeMap<String, MemGauge>,
}

static REGISTRY: Mutex<Registry> = Mutex::new(Registry {
    spans: BTreeMap::new(),
    counters: BTreeMap::new(),
    values: BTreeMap::new(),
    mem: BTreeMap::new(),
});

/// Locks the registry, recovering from poison: the registry holds plain
/// aggregates (no invariants spanning multiple operations), so data
/// written before a panicking thread died is still valid to read and
/// extend.
pub(crate) fn lock() -> MutexGuard<'static, Registry> {
    match REGISTRY.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Records a closed span's duration under its full path. Called from the
/// span guard's `Drop` — instrumented crates never call this directly.
pub(crate) fn record_span(path: &str, nanos: u64) {
    let mut reg = lock();
    reg.spans.entry(path.to_string()).or_default().record(nanos);
}

/// Adds `delta` to the named monotonic counter. No-op when tracing is off.
///
/// # Examples
///
/// ```
/// use adamel_obs as obs;
///
/// obs::set_forced(Some(obs::TraceLevel::Spans));
/// obs::report::reset();
/// obs::counter_add("doc.rows", 10);
/// obs::counter_add("doc.rows", 5);
/// assert_eq!(obs::counter_value("doc.rows"), Some(15));
/// obs::set_forced(None);
/// obs::report::reset();
/// ```
pub fn counter_add(name: &str, delta: u64) {
    if !enabled() {
        return;
    }
    let mut reg = lock();
    let total = reg.counters.entry(name.to_string()).or_insert(0);
    *total = total.saturating_add(delta);
}

/// The current total of a counter, or `None` if it was never incremented
/// (or tracing was off every time it would have been).
pub fn counter_value(name: &str) -> Option<u64> {
    lock().counters.get(name).copied()
}

/// Records one observation of the named value statistic. No-op when
/// tracing is off, and non-finite observations are dropped so a NaN loss
/// can't poison the aggregate (the numerics sanitizer is the layer that
/// *reports* non-finite values; this layer just refuses to absorb them).
///
/// # Examples
///
/// ```
/// use adamel_obs as obs;
///
/// obs::set_forced(Some(obs::TraceLevel::Spans));
/// obs::report::reset();
/// obs::record_value("doc.grad_norm", 2.5);
/// obs::record_value("doc.grad_norm", f64::NAN); // dropped
/// let s = obs::value_stat("doc.grad_norm").expect("recorded above");
/// assert_eq!(s.count, 1);
/// obs::set_forced(None);
/// obs::report::reset();
/// ```
pub fn record_value(name: &str, v: f64) {
    if !enabled() || !v.is_finite() {
        return;
    }
    let mut reg = lock();
    reg.values
        .entry(name.to_string())
        .or_insert(ValueStat {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            last: 0.0,
        })
        .record(v);
}

/// The running statistics of a named value, or `None` if never recorded.
pub fn value_stat(name: &str) -> Option<ValueStat> {
    lock().values.get(name).copied()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::level::{set_forced, TraceLevel};
    use crate::TEST_LOCK as LOCK;

    fn reset_registry() {
        let mut reg = lock();
        reg.spans.clear();
        reg.counters.clear();
        reg.values.clear();
        reg.mem.clear();
    }

    #[test]
    fn counters_accumulate_and_saturate() {
        let _guard = LOCK.lock().unwrap_or_else(|p| p.into_inner());
        set_forced(Some(TraceLevel::Spans));
        reset_registry();
        counter_add("t.count", 3);
        counter_add("t.count", 4);
        assert_eq!(counter_value("t.count"), Some(7));
        counter_add("t.count", u64::MAX);
        assert_eq!(counter_value("t.count"), Some(u64::MAX));
        set_forced(None);
        reset_registry();
    }

    #[test]
    fn values_track_min_max_last_and_drop_nonfinite() {
        let _guard = LOCK.lock().unwrap_or_else(|p| p.into_inner());
        set_forced(Some(TraceLevel::Spans));
        reset_registry();
        record_value("t.val", 2.0);
        record_value("t.val", -1.0);
        record_value("t.val", f64::INFINITY);
        record_value("t.val", f64::NAN);
        record_value("t.val", 0.5);
        let s = value_stat("t.val").expect("three finite samples recorded");
        assert_eq!(s.count, 3);
        assert_eq!(s.min, -1.0);
        assert_eq!(s.max, 2.0);
        assert_eq!(s.last, 0.5);
        assert_eq!(s.mean(), Some(0.5));
        set_forced(None);
        reset_registry();
    }

    #[test]
    fn disabled_tracing_records_nothing() {
        let _guard = LOCK.lock().unwrap_or_else(|p| p.into_inner());
        set_forced(Some(TraceLevel::Off));
        reset_registry();
        counter_add("t.off", 1);
        record_value("t.off", 1.0);
        assert_eq!(counter_value("t.off"), None);
        assert!(value_stat("t.off").is_none());
        set_forced(None);
        reset_registry();
    }
}
