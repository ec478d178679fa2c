//! Property-based tests for the linear-algebra substrate.

use fluxprint_linalg::{lstsq, nnls, nnls_gram_into, LuFactor, Matrix, NnlsScratch, QrFactor};
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

    /// The seeded Gram solve either reports a hit — a feasible vertex
    /// whose every off-support gradient `Aᵀb − AᵀA·x` is within the
    /// solver's tolerance — or reproduces the unseeded solve bit for bit,
    /// for an arbitrary seed mask and for the cold solve's own support.
    #[test]
    fn seeded_gram_solve_hits_at_kkt_or_falls_back_exactly(
        n in 1usize..6,
        data in proptest::collection::vec(-1.0..1.0f64, 12 * 5),
        b in proptest::collection::vec(-5.0..5.0f64, 12),
        mask in proptest::collection::vec(0u8..2, 5),
    ) {
        let mut a = Matrix::from_vec(12, n, data[..12 * n].to_vec()).unwrap();
        for j in 0..n {
            a[(j, j)] += 10.0;
        }
        let gram = a.gram();
        let atb = a.tr_matvec(&b).unwrap();
        let tol = 1e-10 * gram.max_abs().max(1.0);
        let mut cold = NnlsScratch::new();
        let (cold_iterations, cold_hit) = nnls_gram_into(&gram, &atb, None, &mut cold).unwrap();
        prop_assert!(!cold_hit);
        let arbitrary: Vec<bool> = mask[..n].iter().map(|&m| m == 1).collect();
        let own: Vec<bool> = cold.solution().iter().map(|&v| v > 0.0).collect();
        for seed in [arbitrary, own] {
            let mut warm = NnlsScratch::new();
            let (iterations, hit) = nnls_gram_into(&gram, &atb, Some(&seed), &mut warm).unwrap();
            let x = warm.solution();
            if hit {
                prop_assert_eq!(iterations, 0);
                prop_assert!(x.iter().all(|&v| v >= 0.0), "x = {x:?}");
                let gx = gram.matvec(x).unwrap();
                for i in (0..n).filter(|&i| !seed[i]) {
                    let w = atb[i] - gx[i];
                    prop_assert!(w <= tol, "seed {seed:?}: gradient {w} at {i} above {tol}");
                }
            } else {
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                prop_assert_eq!(bits(x), bits(cold.solution()), "seed {:?}", seed);
                prop_assert_eq!(iterations, cold_iterations);
            }
        }
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
