//! Property-based tests for the linear-algebra substrate.

use fluxprint_linalg::{lstsq, nnls, LuFactor, Matrix, QrFactor};
use proptest::prelude::*;

/// Strategy producing a well-conditioned random matrix via a flat buffer.
fn matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(-5.0..5.0f64, rows * cols)
        .prop_map(move |data| Matrix::from_vec(rows, cols, data).unwrap())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// (Aᵀ)ᵀ = A and (A·B)ᵀ = Bᵀ·Aᵀ.
    #[test]
    fn transpose_product_identity(a in matrix(3, 4), b in matrix(4, 2)) {
        let ab_t = a.matmul(&b).unwrap().transpose();
        let bt_at = b.transpose().matmul(&a.transpose()).unwrap();
        for i in 0..ab_t.rows() {
            for j in 0..ab_t.cols() {
                prop_assert!((ab_t[(i, j)] - bt_at[(i, j)]).abs() < 1e-9);
            }
        }
    }

    /// QR least squares satisfies the normal equations.
    #[test]
    fn qr_satisfies_normal_equations(
        a in matrix(8, 3),
        b in proptest::collection::vec(-5.0..5.0f64, 8),
    ) {
        // Make A full rank with a ridge-like column bump.
        let mut a = a;
        for j in 0..3 {
            a[(j, j)] += 10.0;
        }
        let x = lstsq(&a, &b).unwrap();
        let ax = a.matvec(&x).unwrap();
        let r: Vec<f64> = ax.iter().zip(&b).map(|(p, q)| q - p).collect();
        let grad = a.tr_matvec(&r).unwrap();
        for g in grad {
            prop_assert!(g.abs() < 1e-6, "gradient {g}");
        }
    }

    /// LU round-trips random nonsingular systems.
    #[test]
    fn lu_solves_diagonally_dominant(
        a in matrix(4, 4),
        b in proptest::collection::vec(-5.0..5.0f64, 4),
    ) {
        let mut a = a;
        for i in 0..4 {
            a[(i, i)] += 25.0; // diagonally dominant ⇒ nonsingular
        }
        let x = LuFactor::new(&a).unwrap().solve(&b).unwrap();
        let ax = a.matvec(&x).unwrap();
        for (p, q) in ax.iter().zip(&b) {
            prop_assert!((p - q).abs() < 1e-7);
        }
    }

    /// NNLS never returns negative coefficients and never beats the
    /// unconstrained optimum.
    #[test]
    fn nnls_feasible_and_bounded_by_ls(
        a in matrix(10, 3),
        b in proptest::collection::vec(-5.0..5.0f64, 10),
    ) {
        let mut a = a;
        for j in 0..3 {
            a[(j, j)] += 10.0;
        }
        let sol = nnls(&a, &b).unwrap();
        prop_assert!(sol.x.iter().all(|&v| v >= 0.0));
        let ls = lstsq(&a, &b).unwrap();
        let ax = a.matvec(&ls).unwrap();
        let ls_res = ax.iter().zip(&b).map(|(p, q)| (p - q) * (p - q)).sum::<f64>().sqrt();
        prop_assert!(sol.residual_norm + 1e-9 >= ls_res);
        // And NNLS is no worse than the zero solution.
        let zero_res = b.iter().map(|v| v * v).sum::<f64>().sqrt();
        prop_assert!(sol.residual_norm <= zero_res + 1e-9);
    }

    /// QR's R factor has the same Gram matrix as A.
    #[test]
    fn qr_r_gram_matches(a in matrix(6, 3)) {
        let mut a = a;
        for j in 0..3 {
            a[(j, j)] += 10.0;
        }
        let qr = QrFactor::new(&a).unwrap();
        let r = qr.r();
        let rtr = r.transpose().matmul(&r).unwrap();
        let ata = a.gram();
        for i in 0..3 {
            for j in 0..3 {
                prop_assert!((rtr[(i, j)] - ata[(i, j)]).abs() < 1e-7);
            }
        }
    }
}
