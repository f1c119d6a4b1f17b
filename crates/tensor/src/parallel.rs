//! Std-only scoped-thread parallel runtime for row-partitioned kernels.
//!
//! Every hot kernel in this workspace — the three matmul variants, the large
//! elementwise ops, pair encoding, and batched inference — is *embarrassingly
//! parallel across output rows*: each output row is a pure function of the
//! inputs and never aliases another row's slice. This module exploits exactly
//! that shape with `std::thread::scope` (no dependencies, no persistent pool):
//! the output buffer is split into disjoint `&mut` row blocks, one per worker,
//! and every worker runs the *same per-row kernel in the same per-row order*
//! as the serial path. Results are therefore **bit-identical** to serial
//! execution regardless of thread count — the per-row floating-point
//! reduction order never changes, only which OS thread executes it.
//!
//! Dispatch policy, in order:
//!
//! 1. nested calls (a kernel already running on a worker thread) always run
//!    serially, so parallel sections never oversubscribe;
//! 2. a thread-local override installed by [`with_threads`] forces an exact
//!    worker count and bypasses the FLOP threshold (tests and benches use
//!    this to exercise ragged splits on small inputs);
//! 3. otherwise the `ADAMEL_NUM_THREADS` environment variable, read once per
//!    process, caps the worker count; unset, it defaults to
//!    `std::thread::available_parallelism`;
//! 4. work estimated below [`SERIAL_FLOP_THRESHOLD`] runs serially: scoped
//!    threads are spawned per call, so a parallel section must be worth a few
//!    milliseconds of serial work before the spawn cost amortizes.

use std::cell::Cell;
use std::num::NonZeroUsize;
use std::sync::OnceLock;

/// Estimated-FLOP floor below which work is not worth spawning threads for.
///
/// Scoped workers are real OS threads spawned per dispatch (~tens of µs
/// each); at a conservative 1 GFLOP/s a section needs roughly this much work
/// (~4 ms serial) before splitting it wins. The floor applies to the
/// estimate, not the row count: a 16-row training batch keeps its many
/// small products (the per-feature `16x64` projections, a `16x256` `tanh`)
/// on the serial fast path, while its wide classifier GEMMs (~38 MFLOP,
/// split over their wide side by `gemm`) go parallel.
pub const SERIAL_FLOP_THRESHOLD: usize = 1 << 22;

thread_local! {
    /// `with_threads` override; 0 means "not overridden".
    static OVERRIDE: Cell<usize> = const { Cell::new(0) };
    /// True on worker threads spawned by this module: nested dispatches
    /// degrade to serial instead of oversubscribing.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Process-wide worker cap: `ADAMEL_NUM_THREADS` if set to a positive
/// integer, otherwise the host's available parallelism. Read once.
fn env_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| {
        std::env::var("ADAMEL_NUM_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| {
                std::thread::available_parallelism().map(NonZeroUsize::get).unwrap_or(1)
            })
    })
}

/// The worker count the next top-level dispatch on this thread would use
/// (before the FLOP threshold and row count are applied).
pub fn current_threads() -> usize {
    if IN_WORKER.with(Cell::get) {
        return 1;
    }
    let forced = OVERRIDE.with(Cell::get);
    if forced > 0 {
        forced
    } else {
        env_threads()
    }
}

/// The host's available parallelism (ignoring any override), for reporting.
pub fn host_parallelism() -> usize {
    std::thread::available_parallelism().map(NonZeroUsize::get).unwrap_or(1)
}

/// Runs `f` with dispatches on this thread forced to exactly `threads`
/// workers, bypassing the FLOP threshold. `with_threads(1, ..)` is the
/// canonical way to obtain a serial reference result; equivalence tests and
/// the bench harness sweep higher counts. The previous override is restored
/// on exit (including on panic).
pub fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    assert!(threads > 0, "with_threads: thread count must be positive");
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            OVERRIDE.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(OVERRIDE.with(|c| c.replace(threads)));
    f()
}

/// Decides how many workers a dispatch over `rows` rows costing
/// `flops_per_row` each should use. Returns 1 for the serial path.
fn plan(rows: usize, flops_per_row: usize) -> usize {
    if rows <= 1 || IN_WORKER.with(Cell::get) {
        return 1;
    }
    let forced = OVERRIDE.with(Cell::get);
    if forced > 0 {
        return forced.min(rows);
    }
    let threads = env_threads();
    if threads <= 1 || rows.saturating_mul(flops_per_row) < SERIAL_FLOP_THRESHOLD {
        return 1;
    }
    threads.min(rows)
}

/// Applies `kernel(row_index, row_slice)` to every `width`-element row of
/// `out`, splitting rows across scoped worker threads when the estimated
/// work (`rows * flops_per_row`) clears the dispatch policy.
///
/// The kernel must be a pure function of the row index (plus captured shared
/// state); it is invoked exactly once per row, in ascending index order
/// within each worker, so results are bit-identical to the serial loop.
pub fn parallel_for_rows<F>(out: &mut [f32], width: usize, flops_per_row: usize, kernel: F)
where
    F: Fn(usize, &mut [f32]) + Sync,
{
    parallel_for_row_blocks(out, width, 1, flops_per_row, kernel);
}

/// Block-granular variant of [`parallel_for_rows`]: rows are grouped into
/// blocks of `block_rows` (the final block may be ragged) and
/// `kernel(first_row_index, block_slice)` is called once per block.
///
/// Block boundaries are a function of `block_rows` alone — **never** of the
/// worker count — so a kernel whose per-row results are independent (every
/// kernel in this workspace) produces bit-identical output at any thread
/// count. Batched inference uses this to build one bounded autograd graph
/// per block instead of a monolithic graph over the full input.
pub fn parallel_for_row_blocks<F>(
    out: &mut [f32],
    width: usize,
    block_rows: usize,
    flops_per_row: usize,
    kernel: F,
) where
    F: Fn(usize, &mut [f32]) + Sync,
{
    if out.is_empty() || width == 0 {
        return;
    }
    assert_eq!(out.len() % width, 0, "parallel_for_row_blocks: buffer not a multiple of width");
    let rows = out.len() / width;
    let block_rows = block_rows.max(1);
    let blocks = rows.div_ceil(block_rows);
    let threads = plan(rows, flops_per_row).min(blocks);

    if adamel_obs::enabled() {
        adamel_obs::counter_add(
            "parallel.flops_estimated",
            rows.saturating_mul(flops_per_row) as u64,
        );
        if threads <= 1 {
            adamel_obs::counter_add("parallel.dispatch_serial", 1);
        } else {
            adamel_obs::counter_add("parallel.dispatch_parallel", 1);
            adamel_obs::record_value("parallel.workers", threads as f64);
        }
    }

    if threads <= 1 {
        let mut row = 0;
        for block in out.chunks_mut(block_rows * width) {
            kernel(row, block);
            row += block.len() / width;
        }
        return;
    }

    // Hand each worker a contiguous run of whole blocks, balanced to within
    // one block. split_at_mut proves the slices are disjoint, so no locks.
    let base = blocks / threads;
    let extra = blocks % threads;
    std::thread::scope(|s| {
        let kernel = &kernel;
        let mut rest = out;
        let mut row0 = 0;
        for t in 0..threads {
            let nblocks = base + usize::from(t < extra);
            let span = (nblocks * block_rows).min(rows - row0);
            let (head, tail) = rest.split_at_mut(span * width);
            rest = tail;
            let start = row0;
            // Per-worker work share (self-gated; one atomic load when off).
            adamel_obs::trace_value!("parallel.rows_per_worker", span as f64);
            s.spawn(move || {
                IN_WORKER.with(|c| c.set(true));
                let mut row = start;
                for block in head.chunks_mut(block_rows * width) {
                    kernel(row, block);
                    row += block.len() / width;
                }
            });
            row0 += span;
        }
    });
}

/// A handle to a long-running service thread spawned by [`spawn_service`].
///
/// Dropping the handle without calling [`join`](Self::join) detaches the
/// thread (it keeps running until the process exits); daemons that want a
/// clean shutdown signal the thread through their own channel and then
/// `join`.
#[derive(Debug)]
pub struct ServiceHandle {
    inner: Option<std::thread::JoinHandle<()>>,
}

impl ServiceHandle {
    /// Blocks until the service thread returns. A panicking service is
    /// reported as `Err` with the thread's name rather than propagating the
    /// panic into the caller.
    pub fn join(mut self) -> Result<(), String> {
        match self.inner.take() {
            Some(h) => {
                let name = h.thread().name().unwrap_or("adamel-service").to_string();
                h.join().map_err(|_| format!("service thread `{name}` panicked"))
            }
            None => Ok(()),
        }
    }
}

/// Spawns a named long-running **service thread** — the only sanctioned way
/// for workspace code to obtain a thread that outlives a single parallel
/// dispatch (the `no-thread-spawn` lint confines `std::thread` to this
/// module so every thread in the process is accounted for here).
///
/// Unlike the scoped dispatch workers above, a service thread is *not*
/// marked as a worker: parallel dispatches it performs (e.g. batched
/// inference inside a request handler) follow the normal dispatch policy,
/// and a daemon that wants one-request-one-core discipline wraps its
/// compute in [`with_threads`]`(1, ..)` instead. Service threads carry no
/// determinism obligations of their own — determinism is a property of the
/// dispatched kernels, which stay bit-identical on any thread.
///
/// Returns an error if the OS refuses to spawn the thread.
pub fn spawn_service(
    name: &str,
    f: impl FnOnce() + Send + 'static,
) -> std::io::Result<ServiceHandle> {
    let handle = std::thread::Builder::new().name(name.to_string()).spawn(f)?;
    Ok(ServiceHandle { inner: Some(handle) })
}

/// Produces `(0..n).map(f).collect()` with `f` evaluated across scoped
/// worker threads when `n * cost_per_item` estimated FLOPs clear the
/// dispatch policy. Output order is always index order.
pub fn parallel_map_collect<T, F>(n: usize, cost_per_item: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = plan(n, cost_per_item);
    if adamel_obs::enabled() {
        adamel_obs::counter_add("parallel.flops_estimated", n.saturating_mul(cost_per_item) as u64);
        if threads <= 1 {
            adamel_obs::counter_add("parallel.dispatch_serial", 1);
        } else {
            adamel_obs::counter_add("parallel.dispatch_parallel", 1);
            adamel_obs::record_value("parallel.workers", threads as f64);
        }
    }
    if threads <= 1 {
        return (0..n).map(f).collect();
    }
    let mut out: Vec<Option<T>> = (0..n).map(|_| None).collect();
    let base = n / threads;
    let extra = n % threads;
    std::thread::scope(|s| {
        let f = &f;
        let mut rest = out.as_mut_slice();
        let mut start = 0;
        for t in 0..threads {
            let len = base + usize::from(t < extra);
            let (head, tail) = rest.split_at_mut(len);
            rest = tail;
            let first = start;
            adamel_obs::trace_value!("parallel.rows_per_worker", len as f64);
            s.spawn(move || {
                IN_WORKER.with(|c| c.set(true));
                for (j, slot) in head.iter_mut().enumerate() {
                    *slot = Some(f(first + j));
                }
            });
            start += len;
        }
    });
    out.into_iter().map(|v| v.expect("parallel_map_collect: unfilled slot")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn with_threads_overrides_and_restores() {
        let before = current_threads();
        with_threads(3, || {
            assert_eq!(current_threads(), 3);
            with_threads(5, || assert_eq!(current_threads(), 5));
            assert_eq!(current_threads(), 3);
        });
        assert_eq!(current_threads(), before);
    }

    #[test]
    fn for_rows_visits_every_row_once() {
        for threads in [1, 2, 3, 4, 8] {
            let rows = 7;
            let width = 3;
            let mut out = vec![0.0f32; rows * width];
            with_threads(threads, || {
                parallel_for_rows(&mut out, width, 1, |i, row| {
                    for v in row.iter_mut() {
                        *v += i as f32 + 1.0;
                    }
                });
            });
            for i in 0..rows {
                for j in 0..width {
                    assert_eq!(out[i * width + j], i as f32 + 1.0, "threads={threads}");
                }
            }
        }
    }

    #[test]
    fn row_blocks_are_ragged_safe_and_thread_count_invariant() {
        // 10 rows in blocks of 4 -> blocks of 4, 4, 2; block starts must be
        // 0, 4, 8 at every thread count (more threads than blocks included).
        for threads in [1, 2, 3, 16] {
            let mut out = vec![0.0f32; 10];
            with_threads(threads, || {
                parallel_for_row_blocks(&mut out, 1, 4, 1, |start, block| {
                    assert!(start % 4 == 0, "block start {start} not on a block boundary");
                    for (j, v) in block.iter_mut().enumerate() {
                        *v = (start + j) as f32;
                    }
                });
            });
            let expect: Vec<f32> = (0..10).map(|i| i as f32).collect();
            assert_eq!(out, expect, "threads={threads}");
        }
    }

    #[test]
    fn fewer_rows_than_threads() {
        let mut out = vec![0.0f32; 2];
        with_threads(8, || {
            parallel_for_rows(&mut out, 1, 1, |i, row| row[0] = i as f32 + 0.5);
        });
        assert_eq!(out, vec![0.5, 1.5]);
    }

    #[test]
    fn empty_and_zero_width_are_no_ops() {
        let mut out: Vec<f32> = Vec::new();
        parallel_for_rows(&mut out, 4, 1, |_, _| panic!("kernel must not run"));
        let mut out = vec![1.0f32; 4];
        parallel_for_rows(&mut out, 0, 1, |_, _| panic!("kernel must not run"));
        assert_eq!(out, vec![1.0; 4]);
    }

    #[test]
    fn nested_dispatch_degrades_to_serial() {
        let mut out = vec![0.0f32; 6];
        with_threads(3, || {
            parallel_for_rows(&mut out, 2, 1, |i, row| {
                // Inside a worker the nested dispatch must not spawn.
                assert_eq!(current_threads(), 1);
                let mut inner = vec![0.0f32; 2];
                parallel_for_rows(&mut inner, 1, 1, |j, r| r[0] = j as f32);
                row[0] = i as f32 + inner[1];
                row[1] = i as f32;
            });
        });
        assert_eq!(out, vec![1.0, 0.0, 2.0, 1.0, 3.0, 2.0]);
    }

    #[test]
    fn map_collect_preserves_order() {
        for threads in [1, 2, 5] {
            let v = with_threads(threads, || parallel_map_collect(11, 1, |i| i * i));
            let expect: Vec<usize> = (0..11).map(|i| i * i).collect();
            assert_eq!(v, expect, "threads={threads}");
        }
    }

    #[test]
    fn service_threads_run_join_and_dispatch_normally() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        let hits = Arc::new(AtomicUsize::new(0));
        let hits2 = Arc::clone(&hits);
        let h = spawn_service("adamel-test-service", move || {
            // A service thread is not a dispatch worker: nested parallel
            // sections follow the normal policy and stay bit-identical.
            let v = with_threads(2, || parallel_map_collect(5, 1, |i| i * 2));
            assert_eq!(v, vec![0, 2, 4, 6, 8]);
            hits2.fetch_add(1, Ordering::SeqCst);
        })
        .expect("spawn");
        h.join().expect("service completed");
        assert_eq!(hits.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn service_panic_is_reported_not_propagated() {
        let h = spawn_service("adamel-test-panic", || panic!("boom")).expect("spawn");
        let err = h.join().expect_err("panic must surface as Err");
        assert!(err.contains("adamel-test-panic"), "err was: {err}");
    }

    #[test]
    fn map_collect_empty() {
        let v: Vec<u8> = parallel_map_collect(0, 1, |_| unreachable!());
        assert!(v.is_empty());
    }
}
