//! Blocked-GEMM kernel battery: the cache-blocked microkernels behind the
//! matmul family, differentially tested against the `f64` oracle at
//! adversarial shapes — 1×1, prime dims, every tile edge ±1, tall-skinny,
//! short-fat, short-wide — crossed with 1/2/4/8 worker threads, plus
//! bit-for-bit thread-count invariance for every variant at every shape.
//! Short-wide products (fewer than `MC` rows, at least `2·MC` columns) run
//! transposed, so the naive-bits check pins that path too.
//!
//! The same battery pins the two other ways into the kernels: a right
//! operand packed once ([`PackedB`], what compiled-plan replays use for
//! weights) must give the per-call-packed bits, and the row-interleaved
//! narrow kernel (`m < NR`) must give the naive loop's bits, signed zeros
//! and subnormals in `A` included.
//!
//! Budgets come from [`op_ulps`]: `2k + 4 + 2·⌈k/KC⌉` ULPs for the matmul
//! family (the per-KC-panel term deliberately licenses panel-split
//! reassociation; today's kernels are stricter — bit-identical to the
//! historical naive loops), with the `(k+4)·ε₃₂·(|A|·|B|)` absolute
//! fallback covering cancellation.

use adamel_oracle::{op_ulps, Budget, RefMatrix, EPS32};
use adamel_tensor::gemm::{use_blocked, use_transposed, PackedB, KC, MC, MR, NR};
use adamel_tensor::parallel::with_threads;
use adamel_tensor::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Adversarial `(n, k, m)` shapes for `C = A(n×k) · B(k×m)`.
///
/// Covers: degenerate 1×1, prime dims, the microkernel register tile
/// (`MR`/`NR`) and cache tiles (`KC`/`MC`) at exactly/-1/+1, tall-skinny,
/// short-fat and short-wide — on both sides of the blocked-dispatch
/// threshold and of the transposed-dispatch predicate.
fn shapes() -> Vec<(usize, usize, usize)> {
    vec![
        (1, 1, 1),
        (2, 3, 5),
        (7, 13, 11),
        (MR, 3, NR),
        (MR - 1, 5, NR - 1),
        (MR + 1, 5, NR + 1),
        (MR * 3 + 1, KC - 1, NR * 2 + 3),
        (MC - 1, 7, NR),
        (MC, 9, NR * 2),
        (MC + 1, KC + 1, NR * 2 + 1),
        (17, KC, 13),
        // Tall-skinny: many rows, tiny inner/output dims.
        (KC + 3, MR, 2),
        (257, 5, 3),
        // Short-fat: few rows, wide output.
        (3, 5, 257),
        (2, KC + 1, NR * 4 + 3),
        // Comfortably blocked.
        (64, 96, 33),
        // Short-wide: fewer than MC rows and at least two MC-row blocks of
        // width, run transposed (`Cᵀ = Bᵀ·Aᵀ`) so the wide side splits. The
        // training classifier's forward and its `dZ = G·W1ᵀ`, one register
        // tile of rows over a two-slab `k`, and one row short of a block.
        (16, 4608, 256),
        (16, 256, 4608),
        (MR, KC + 1, 2 * MC + 3),
        (MC - 1, 33, 2 * MC),
    ]
}

fn random_matrix(rng: &mut StdRng, rows: usize, cols: usize) -> Matrix {
    let data: Vec<f32> = (0..rows * cols).map(|_| rng.gen_range(-2.0..2.0)).collect();
    Matrix::from_vec(rows, cols, data)
}

/// Asserts every element of `prod` is an acceptable `f32` realization of the
/// oracle, with the per-element absolute fallback scaled by `|A|·|B|`.
fn assert_close(what: &str, prod: &Matrix, oracle: &RefMatrix, ulps: u64, abs: &RefMatrix) {
    assert_eq!((prod.rows(), prod.cols()), oracle.shape(), "{what}: shape mismatch");
    for i in 0..prod.rows() {
        for j in 0..prod.cols() {
            let budget = Budget { ulps, abs: abs.get(i, j) };
            assert!(
                budget.accepts(prod.get(i, j), oracle.get(i, j)),
                "{what}[{i},{j}]: production {:e} vs oracle {:e} outside {budget:?}",
                prod.get(i, j),
                oracle.get(i, j)
            );
        }
    }
}

fn bits(m: &Matrix) -> Vec<u32> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// The historical naive `ikj` kernel with its exact-zero skip: the bit
/// pattern every dispatch path of `matmul` must reproduce.
fn naive(a: &Matrix, b: &Matrix) -> Matrix {
    let (n, k, m) = (a.rows(), a.cols(), b.cols());
    let mut out = vec![0.0f32; n * m];
    for i in 0..n {
        for p in 0..k {
            let av = a.get(i, p);
            if av == 0.0 {
                continue;
            }
            for j in 0..m {
                out[i * m + j] += av * b.get(p, j);
            }
        }
    }
    Matrix::from_vec(n, m, out)
}

/// Runs all three variants at one shape under every thread count: each must
/// match the oracle within budget, and each must be bit-for-bit identical
/// across thread counts (block boundaries are a function of the tile sizes
/// alone, never the thread count).
fn check_shape(n: usize, k: usize, m: usize) {
    let seed = 0x6e44 ^ ((n as u64) << 24 | (k as u64) << 12 | m as u64);
    let mut rng = StdRng::seed_from_u64(seed);
    let a = random_matrix(&mut rng, n, k);
    let b = random_matrix(&mut rng, k, m);
    let ra = RefMatrix::from_matrix(&a);
    let rb = RefMatrix::from_matrix(&b);
    let oracle = ra.matmul(&rb);
    let scale = ra.map(f64::abs).matmul(&rb.map(f64::abs));
    let abs = scale.map(|s| (k as f64 + 4.0) * EPS32 * s);
    let ulps = op_ulps("matmul", k);

    let at = a.transpose();
    let bt = b.transpose();
    let packed = PackedB::new(&b);
    let reference = bits(&naive(&a, &b));
    let mut baselines: Option<[Vec<u32>; 3]> = None;
    for threads in [1usize, 2, 4, 8] {
        let mut p_pre = Matrix::default();
        let (p, p_tn, p_nt) = with_threads(threads, || {
            a.matmul_prepacked_into(&packed, &mut p_pre);
            (a.matmul(&b), at.matmul_tn(&b), a.matmul_nt(&bt))
        });
        let what = |v: &str| format!("{v} {n}x{k}x{m} @{threads}t");
        assert_close(&what("matmul"), &p, &oracle, ulps, &abs);
        assert_close(&what("matmul_tn"), &p_tn, &oracle, ulps, &abs);
        assert_close(&what("matmul_nt"), &p_nt, &oracle, ulps, &abs);
        assert_eq!(bits(&p), reference, "{}: not the naive bits", what("matmul"));
        assert_eq!(bits(&p_pre), bits(&p), "{}: prepacked != per-call", what("matmul"));
        let got = [bits(&p), bits(&p_tn), bits(&p_nt)];
        match &baselines {
            None => baselines = Some(got),
            Some(base) => {
                for (v, (g, b)) in
                    ["matmul", "matmul_tn", "matmul_nt"].iter().zip(got.iter().zip(base))
                {
                    assert_eq!(g, b, "{}: not thread-count invariant", what(v));
                }
            }
        }
    }
}

#[test]
fn adversarial_shapes_cover_both_dispatch_paths() {
    // The battery is only adversarial if it actually exercises the blocked
    // kernels AND the naive fallback; pin that the shape list straddles the
    // dispatch predicate so tile-size changes can't silently defang it.
    let covered: Vec<bool> = shapes().iter().map(|&(n, k, m)| use_blocked(n, k, m)).collect();
    assert!(covered.iter().any(|&c| c), "no shape reaches the blocked kernels");
    assert!(covered.iter().any(|&c| !c), "no shape reaches the naive fallback");
}

#[test]
fn short_wide_shapes_take_the_transposed_dispatch() {
    // The short-wide group must reach the transposed path (and the rest of
    // the battery the untransposed one), so a tile-size change that moves
    // the predicate cannot silently drop its coverage.
    let shapes = shapes();
    let (rest, short_wide) = shapes.split_at(16);
    for &(n, k, m) in short_wide {
        assert!(use_transposed(n, k, m), "({n},{k},{m}) no longer runs transposed");
    }
    assert!(
        rest.iter().any(|&(n, k, m)| use_blocked(n, k, m) && !use_transposed(n, k, m)),
        "no shape reaches the untransposed blocked kernel"
    );
}

#[test]
fn degenerate_and_prime_shapes() {
    for &(n, k, m) in &shapes()[..3] {
        check_shape(n, k, m);
    }
}

#[test]
fn register_tile_edges() {
    for &(n, k, m) in &shapes()[3..7] {
        check_shape(n, k, m);
    }
}

#[test]
fn cache_tile_edges() {
    for &(n, k, m) in &shapes()[7..11] {
        check_shape(n, k, m);
    }
}

#[test]
fn tall_skinny_and_short_fat() {
    for &(n, k, m) in &shapes()[11..15] {
        check_shape(n, k, m);
    }
}

#[test]
fn comfortably_blocked() {
    for &(n, k, m) in &shapes()[15..16] {
        check_shape(n, k, m);
    }
}

#[test]
fn short_wide_transposed() {
    for &(n, k, m) in &shapes()[16..] {
        check_shape(n, k, m);
    }
}

#[test]
fn narrow_products_match_the_naive_bits() {
    // Every width below the register tile, row counts that leave a ragged
    // tail of the eight-row interleave, and an `A` seeded with +0, -0 and
    // subnormals: the naive loop skips exact zeros, the narrow kernel
    // accumulates their ±0 products, and the bits must not differ.
    let specials = [0.0f32, -0.0, f32::MIN_POSITIVE / 8.0, -1e-41, f32::MIN_POSITIVE];
    for m in 1..NR {
        for &(n, k) in &[(1usize, 7usize), (5, 64), (9, KC), (27, KC + 3), (67, 19)] {
            assert!(!use_blocked(n, k, m), "narrow shapes never take the blocked path");
            let mut rng = StdRng::seed_from_u64(0x6e61 ^ ((n * 1000 + k) * 10 + m) as u64);
            let mut a = random_matrix(&mut rng, n, k);
            for (i, v) in a.as_mut_slice().iter_mut().enumerate() {
                if rng.gen_range(0..3) == 0 {
                    *v = specials[i % specials.len()];
                }
            }
            let b = random_matrix(&mut rng, k, m);
            let reference = bits(&naive(&a, &b));
            let ra = RefMatrix::from_matrix(&a);
            let rb = RefMatrix::from_matrix(&b);
            let abs =
                ra.map(f64::abs).matmul(&rb.map(f64::abs)).map(|s| (k as f64 + 4.0) * EPS32 * s);
            for threads in [1usize, 2, 4, 8] {
                let p = with_threads(threads, || a.matmul(&b));
                let what = format!("narrow {n}x{k}x{m} @{threads}t");
                assert_eq!(bits(&p), reference, "{what}: not the naive bits");
                assert_close(&what, &p, &ra.matmul(&rb), op_ulps("matmul", k), &abs);
            }
        }
    }
}

#[test]
fn zero_sized_edges_are_well_formed() {
    // n/m = 0 produce empty outputs; k = 0 must produce exact zeros (the
    // blocked path reuses packing arenas, so stale data must not leak).
    let a = Matrix::zeros(0, 5);
    let b = Matrix::zeros(5, 7);
    assert_eq!(a.matmul(&b).shape(), (0, 7));
    let a = Matrix::from_vec(3, 0, vec![]);
    let b = Matrix::from_vec(0, 4, vec![]);
    let c = a.matmul(&b);
    assert_eq!(c.shape(), (3, 4));
    assert!(c.as_slice().iter().all(|&v| v == 0.0 && v.to_bits() == 0));
}
