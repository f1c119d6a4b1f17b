//! Property-based tests of the matrix kernels.

use adamel_tensor::{Matrix, CHEAP_MAP_FLOPS};
use proptest::prelude::*;

fn arb_matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(-3.0f32..3.0, rows * cols)
        .prop_map(move |data| Matrix::from_vec(rows, cols, data))
}

fn approx_eq(a: &Matrix, b: &Matrix, tol: f32) -> bool {
    a.shape() == b.shape()
        && a.as_slice().iter().zip(b.as_slice()).all(|(x, y)| (x - y).abs() <= tol)
}

proptest! {
    #[test]
    fn matmul_distributes_over_addition(
        a in arb_matrix(3, 4), b in arb_matrix(4, 2), c in arb_matrix(4, 2)
    ) {
        let left = a.matmul(&b.add(&c));
        let right = a.matmul(&b).add(&a.matmul(&c));
        prop_assert!(approx_eq(&left, &right, 1e-3));
    }

    #[test]
    fn matmul_associates(a in arb_matrix(2, 3), b in arb_matrix(3, 2), c in arb_matrix(2, 3)) {
        let left = a.matmul(&b).matmul(&c);
        let right = a.matmul(&b.matmul(&c));
        prop_assert!(approx_eq(&left, &right, 1e-2));
    }

    #[test]
    fn fused_transpose_matmuls_match_explicit(a in arb_matrix(3, 4), b in arb_matrix(3, 2)) {
        let fused = a.matmul_tn(&b);
        let explicit = a.transpose().matmul(&b);
        prop_assert!(approx_eq(&fused, &explicit, 1e-4));

        let c = Matrix::from_vec(2, 4, b.matmul_tn(&a).transpose().into_vec());
        let fused_nt = c.matmul_nt(&a); // (2x4) x (3x4)^T -> 2x3
        let explicit_nt = c.matmul(&a.transpose());
        prop_assert!(approx_eq(&fused_nt, &explicit_nt, 1e-4));
    }

    #[test]
    fn transpose_is_involutive(a in arb_matrix(3, 5)) {
        prop_assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn softmax_rows_are_distributions(a in arb_matrix(4, 6)) {
        let s = a.softmax_rows();
        prop_assert!(s.is_finite());
        for i in 0..s.rows() {
            let sum: f32 = s.row(i).iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-5);
            prop_assert!(s.row(i).iter().all(|&v| v >= 0.0));
        }
    }

    #[test]
    fn softmax_is_shift_invariant(a in arb_matrix(2, 5), shift in -10.0f32..10.0) {
        let shifted = a.map(|v| v + shift, CHEAP_MAP_FLOPS);
        prop_assert!(approx_eq(&a.softmax_rows(), &shifted.softmax_rows(), 1e-5));
    }

    #[test]
    fn mean_rows_matches_manual(a in arb_matrix(5, 3)) {
        let mu = a.mean_rows();
        for j in 0..3 {
            let manual: f32 = (0..5).map(|i| a.get(i, j)).sum::<f32>() / 5.0;
            prop_assert!((mu.get(0, j) - manual).abs() < 1e-5);
        }
    }

    #[test]
    fn concat_then_slice_round_trips(a in arb_matrix(3, 2), b in arb_matrix(3, 4)) {
        let cat = Matrix::concat_cols(&[&a, &b]);
        prop_assert_eq!(cat.slice_cols(0, 2), a);
        prop_assert_eq!(cat.slice_cols(2, 4), b);
    }

    #[test]
    fn select_rows_identity(a in arb_matrix(4, 3)) {
        let all: Vec<usize> = (0..4).collect();
        prop_assert_eq!(a.select_rows(&all), a);
    }

    #[test]
    fn norm_triangle_inequality(a in arb_matrix(2, 4), b in arb_matrix(2, 4)) {
        prop_assert!(a.add(&b).norm() <= a.norm() + b.norm() + 1e-4);
    }

    #[test]
    fn distance_is_a_metric(a in arb_matrix(1, 5), b in arb_matrix(1, 5), c in arb_matrix(1, 5)) {
        prop_assert!((a.distance(&a)).abs() < 1e-6);
        prop_assert!((a.distance(&b) - b.distance(&a)).abs() < 1e-5);
        prop_assert!(a.distance(&c) <= a.distance(&b) + b.distance(&c) + 1e-4);
    }
}
