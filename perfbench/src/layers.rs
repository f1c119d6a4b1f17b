//! Layer measurements shared by the traced runs: the forward pass's GEMM
//! shapes against the §4.5 FLOP split, and the memory ledger's peaks.

use crate::report::{Report, MIB};
use crate::stats::median;
use crate::trace::Tracer;
use adamel::AdamelModel;
use adamel_tensor::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Rows per forward chunk: the compiled plan scores 512 pairs at a time.
const CHUNK_ROWS: usize = 512;

/// A `rows × cols` matrix of seeded values in `[-1, 1)`.
fn filled(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut rng = StdRng::seed_from_u64(seed);
    Matrix::from_vec(rows, cols, (0..rows * cols).map(|_| rng.gen_range(-1.0f32..1.0)).collect())
}

/// Median milliseconds of five runs of `f`, after one warm-up run.
fn time5(mut f: impl FnMut()) -> f64 {
    f();
    let mut t = Vec::new();
    for _ in 0..5 {
        let start = Instant::now();
        f();
        t.push(start.elapsed().as_secs_f64() * 1e3);
    }
    median(&t)
}

/// Times `Matrix::matmul` at each of the forward pass's GEMM shapes for
/// one 512-row chunk: F feature projections (D→H, Eq. 4), F attention
/// projections (H→H', Eq. 5) and the classifier's first layer (F·H'→H_hidden,
/// Eq. 7). Reports the classifier's share of that GEMM time beside its
/// analytic share of `per_row_flops`, and the classifier GEMM's GFLOP/s as
/// the roofline reference for `forward.gflops`.
pub fn forward_gemms(model: &AdamelModel, tracer: &Tracer, report: &mut Report) {
    let cfg = model.config();
    let f = model.extractor().num_features();
    let (d, h, ha, hh) = (cfg.embed_dim, cfg.feature_dim, cfg.attention_dim, cfg.hidden_dim);
    let n = CHUNK_ROWS;
    let (x_proj, v) = (filled(n, d, 1), filled(d, h, 2));
    let (x_att, w_att) = (filled(n, h, 3), filled(h, ha, 4));
    let (z, w1) = (filled(n, f * ha, 5), filled(f * ha, hh, 6));
    let proj_ms = tracer.span("gemm.proj", || {
        time5(|| {
            for _ in 0..f {
                std::hint::black_box(x_proj.matmul(&v));
            }
        })
    });
    let att_ms = tracer.span("gemm.attention", || {
        time5(|| {
            for _ in 0..f {
                std::hint::black_box(x_att.matmul(&w_att));
            }
        })
    });
    let cls_ms =
        tracer.span("gemm.classifier", || time5(|| drop(std::hint::black_box(z.matmul(&w1)))));
    let cls_flops = 2.0 * (f * ha * hh + hh) as f64;
    report.set("forward.classifier_flop_share", cls_flops / model.per_row_flops() as f64);
    report.set("forward.classifier_gemm_share", cls_ms / (proj_ms + att_ms + cls_ms));
    report.set("gemm.gflops", 2.0 * (n * f * ha * hh) as f64 / (cls_ms * 1e6));
    report.note("gemm_ms_per_chunk.projection", proj_ms, "ms");
    report.note("gemm_ms_per_chunk.attention", att_ms, "ms");
    report.note("gemm_ms_per_chunk.classifier", cls_ms, "ms");
}

/// Peaks of the memory ledger's gauges since the last `reset_peaks`.
pub fn mem_peaks(report: &mut Report) {
    let peak = |gauge: &str| adamel_obs::mem::peak(gauge).unwrap_or(0) as f64 / MIB;
    report.set("mem.plan_pool.peak_mb", peak("tensor.plan.pool.bytes"));
    report.set("mem.encode_cache.peak_mb", peak("schema.encode_cache.bytes"));
    report.set("mem.snapshot.peak_mb", peak("schema.live_index.snapshot.bytes"));
    report.set("mem.graph.peak_mb", peak("tensor.graph.bytes"));
}
