//! At `full`, every tape op records one span and `backward` records a
//! coarse span. This test file runs in its own process, so forcing the
//! process-global trace level cannot disturb other test binaries; within
//! the file, tests run on parallel threads and serialize on [`LOCK`].

use adamel_tensor::{Adam, Graph, Matrix, Optimizer, ParamSet};
use std::sync::Mutex;

/// The forced level and the span registry are process-global: without one
/// shared lock, one test's `report::reset()` or level change can land
/// between another test's ops and its report read.
static LOCK: Mutex<()> = Mutex::new(());

#[test]
fn full_trace_covers_tape_ops_backward_and_optimizer() {
    let _serial = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    adamel_obs::set_forced(Some(adamel_obs::TraceLevel::Full));
    adamel_obs::report::reset();

    let mut params = ParamSet::new();
    let w = params.insert("w", Matrix::full(3, 3, 0.1));
    let mut g = Graph::new();
    let x = g.constant(Matrix::full(4, 3, 1.0));
    let wv = g.param(&params, w);
    let h = g.matmul(x, wv);
    let h = g.tanh(h);
    let s = g.softmax_rows(h);
    let loss = g.mean_all(s);
    g.backward(loss, &mut params);
    let mut opt = Adam::with_lr(0.01);
    opt.step(&mut params);

    let json = adamel_obs::report::render_json();
    for span in ["matmul", "tanh", "softmax_rows", "mean_all", "backward", "adam_step"] {
        assert!(json.contains(&format!("\"{span}\"")), "missing span {span} in {json}");
    }

    adamel_obs::set_forced(None);
    adamel_obs::report::reset();
}

#[test]
fn spans_level_skips_per_op_spans_but_keeps_coarse_ones() {
    let _serial = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    adamel_obs::set_forced(Some(adamel_obs::TraceLevel::Spans));
    adamel_obs::report::reset();

    let mut params = ParamSet::new();
    let w = params.insert("w", Matrix::full(2, 2, 0.1));
    let mut g = Graph::new();
    let x = g.constant(Matrix::full(2, 2, 1.0));
    let wv = g.param(&params, w);
    let h = g.matmul(x, wv);
    let loss = g.mean_all(h);
    g.backward(loss, &mut params);

    let json = adamel_obs::report::render_json();
    assert!(json.contains("\"backward\""), "coarse span missing: {json}");
    assert!(!json.contains("\"matmul\""), "per-op span leaked at spans level: {json}");

    adamel_obs::set_forced(None);
    adamel_obs::report::reset();
}

#[test]
fn backward_packs_only_for_the_parameter_gradient() {
    // relu(slice_cols(x) · W) with x a constant: the forward packs W once,
    // and backward packs once for dW = Sᵀ·G. The input-side G·Wᵀ product
    // (and the slice's scatter) feed only the constant, so they are skipped.
    let _serial = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    adamel_obs::set_forced(Some(adamel_obs::TraceLevel::Spans));
    adamel_obs::report::reset();

    let wave = |rows: usize, cols: usize, seed: f32| {
        Matrix::from_vec(
            rows,
            cols,
            (0..rows * cols).map(|i| (i as f32 * 0.731 + seed).sin()).collect(),
        )
    };
    let mut params = ParamSet::new();
    let w = params.insert("w", wave(64, 32, 0.3));
    let mut g = Graph::new();
    let x = g.constant(wave(16, 80, 1.7));
    let s = g.slice_cols(x, 8, 64);
    let wv = g.param(&params, w);
    let z = g.matmul(s, wv);
    let y = g.relu(z);
    let loss = g.sum_all(y);
    let packs = || adamel_obs::counter_value("gemm.pack_b").unwrap_or(0);
    assert_eq!(packs(), 1, "forward packs W once");
    g.backward(loss, &mut params);
    assert_eq!(packs(), 2, "backward packs once, for dW only");
    assert!(params.grad(w).norm() > 0.0);

    adamel_obs::set_forced(None);
    adamel_obs::report::reset();
}
