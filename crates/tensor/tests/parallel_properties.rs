//! Equivalence properties for the scoped-thread kernels: every parallel
//! dispatch must produce bit-identical results to the serial path, for any
//! shape (including empty and ragged-last-chunk cases) and any thread count
//! (including more threads than rows).

use adamel_tensor::{parallel, Matrix, CHEAP_MAP_FLOPS, TANH_FLOPS};
use proptest::prelude::*;

/// Deterministic pseudo-random matrix fill in `[-2, 2]`; the proptest seed
/// drives the stream so every case sees different values.
fn fill_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut state = seed ^ 0x9e37_79b9_7f4a_7c15;
    let mut next = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        let u = (z >> 11) as f32 / (1u64 << 53) as f32;
        4.0 * u - 2.0
    };
    let data: Vec<f32> = (0..rows * cols).map(|_| next()).collect();
    Matrix::from_vec(rows, cols, data)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn matmul_parallel_matches_serial(
        dims in (0usize..24, 0usize..24, 0usize..24),
        seed in 0u64..u64::MAX,
        threads in 2usize..10,
    ) {
        let (m, k, n) = dims;
        let a = fill_matrix(m, k, seed);
        let b = fill_matrix(k, n, seed.wrapping_add(1));
        let serial = parallel::with_threads(1, || a.matmul(&b));
        let par = parallel::with_threads(threads, || a.matmul(&b));
        prop_assert_eq!(serial.as_slice(), par.as_slice());
    }

    #[test]
    fn matmul_tn_parallel_matches_serial(
        dims in (0usize..24, 0usize..24, 0usize..24),
        seed in 0u64..u64::MAX,
        threads in 2usize..10,
    ) {
        // A is k x n, B is k x m, result is A^T B (n x m).
        let (k, n, m) = dims;
        let a = fill_matrix(k, n, seed);
        let b = fill_matrix(k, m, seed.wrapping_add(2));
        let serial = parallel::with_threads(1, || a.matmul_tn(&b));
        let par = parallel::with_threads(threads, || a.matmul_tn(&b));
        prop_assert_eq!(serial.as_slice(), par.as_slice());
    }

    #[test]
    fn matmul_nt_parallel_matches_serial(
        dims in (0usize..24, 0usize..24, 0usize..24),
        seed in 0u64..u64::MAX,
        threads in 2usize..10,
    ) {
        // A is m x k, B is n x k, result is A B^T (m x n).
        let (m, k, n) = dims;
        let a = fill_matrix(m, k, seed);
        let b = fill_matrix(n, k, seed.wrapping_add(3));
        let serial = parallel::with_threads(1, || a.matmul_nt(&b));
        let par = parallel::with_threads(threads, || a.matmul_nt(&b));
        prop_assert_eq!(serial.as_slice(), par.as_slice());
    }

    #[test]
    fn elementwise_parallel_matches_serial(
        dims in (0usize..40, 1usize..24),
        seed in 0u64..u64::MAX,
        threads in 2usize..10,
    ) {
        let (rows, cols) = dims;
        let a = fill_matrix(rows, cols, seed);
        let col = fill_matrix(rows, 1, seed.wrapping_add(4));
        let row = fill_matrix(1, cols, seed.wrapping_add(5));

        let s_map = parallel::with_threads(1, || a.map(|x| x.tanh(), TANH_FLOPS));
        let p_map = parallel::with_threads(threads, || a.map(|x| x.tanh(), TANH_FLOPS));
        prop_assert_eq!(s_map.as_slice(), p_map.as_slice());

        let s_soft = parallel::with_threads(1, || a.softmax_rows());
        let p_soft = parallel::with_threads(threads, || a.softmax_rows());
        prop_assert_eq!(s_soft.as_slice(), p_soft.as_slice());

        let s_col = parallel::with_threads(1, || a.mul_col_broadcast(&col));
        let p_col = parallel::with_threads(threads, || a.mul_col_broadcast(&col));
        prop_assert_eq!(s_col.as_slice(), p_col.as_slice());

        let s_row = parallel::with_threads(1, || a.add_row_broadcast(&row));
        let p_row = parallel::with_threads(threads, || a.add_row_broadcast(&row));
        prop_assert_eq!(s_row.as_slice(), p_row.as_slice());
    }

    #[test]
    fn thread_count_never_changes_matmul(
        seed in 0u64..u64::MAX,
        threads in 2usize..10,
    ) {
        // Ragged fixture: 7 rows never divide evenly across 2..10 workers
        // (except 7), so the last chunk is short and some workers may get
        // no rows at all.
        let a = fill_matrix(7, 5, seed);
        let b = fill_matrix(5, 3, seed.wrapping_add(6));
        let serial = parallel::with_threads(1, || a.matmul(&b));
        let par = parallel::with_threads(threads, || a.matmul(&b));
        prop_assert_eq!(serial.as_slice(), par.as_slice());
    }
}

#[test]
fn more_threads_than_rows_is_safe() {
    let a = fill_matrix(2, 3, 11);
    let b = fill_matrix(3, 4, 12);
    let serial = parallel::with_threads(1, || a.matmul(&b));
    let par = parallel::with_threads(8, || a.matmul(&b));
    assert_eq!(serial.as_slice(), par.as_slice());
}

#[test]
fn nested_dispatch_falls_back_to_serial() {
    // map's kernel runs inside a worker; a nested matmul inside it must not
    // spawn again (and must still be correct).
    let a = fill_matrix(6, 4, 21);
    let inner_a = fill_matrix(2, 2, 22);
    let inner_b = fill_matrix(2, 2, 23);
    let expected_inner = parallel::with_threads(1, || inner_a.matmul(&inner_b));
    let out = parallel::with_threads(4, || {
        a.map(
            |x| {
                let m = inner_a.matmul(&inner_b);
                if m.as_slice() == expected_inner.as_slice() {
                    x
                } else {
                    f32::NAN
                }
            },
            CHEAP_MAP_FLOPS,
        )
    });
    assert_eq!(out.as_slice(), a.as_slice());
}
