//! Householder QR factorization and least squares.

use crate::{LinalgError, Matrix};

/// Householder QR factorization of an `m × n` matrix with `m ≥ n`.
///
/// Stored in compact form: the tails of the Householder vectors live below
/// the diagonal of `qr`, their first components in `v0s`, the reflector
/// scalings in `betas`, and `R` on and above the diagonal.
///
/// Solves the overdetermined flux systems directly on the design matrix,
/// avoiding the condition-number squaring of normal equations.
///
/// # Example
///
/// ```
/// use fluxprint_linalg::{Matrix, QrFactor};
///
/// let a = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[1.0, 1.0]])?;
/// let qr = QrFactor::new(&a)?;
/// let x = qr.solve_lstsq(&[1.0, 1.0, 2.0])?;
/// assert!((x[0] - 1.0).abs() < 1e-10 && (x[1] - 1.0).abs() < 1e-10);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct QrFactor {
    qr: Matrix,
    betas: Vec<f64>,
    v0s: Vec<f64>,
    rows: usize,
    cols: usize,
}

impl QrFactor {
    /// Factorizes `a` (requires `rows ≥ cols`).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] when the system is
    /// underdetermined (`rows < cols`).
    pub fn new(a: &Matrix) -> Result<Self, LinalgError> {
        let (m, n) = a.shape();
        if m < n {
            return Err(LinalgError::ShapeMismatch {
                left: (m, n),
                right: (n, n),
                op: "qr",
            });
        }
        let mut qr = a.clone();
        let mut betas = vec![0.0; n];
        let mut v0s = vec![0.0; n];
        for j in 0..n {
            let mut sigma = 0.0;
            for i in j..m {
                sigma += qr[(i, j)] * qr[(i, j)];
            }
            let norm = sigma.sqrt();
            // fluxlint: allow(float-eq) — an exactly-zero column needs no reflector; near-zero ones still do
            if norm == 0.0 {
                continue; // zero column: beta stays 0, reflector is identity
            }
            let alpha = if qr[(j, j)] >= 0.0 { -norm } else { norm };
            let v0 = qr[(j, j)] - alpha;
            let mut vnorm2 = v0 * v0;
            for i in (j + 1)..m {
                vnorm2 += qr[(i, j)] * qr[(i, j)];
            }
            // fluxlint: allow(float-eq) — exact zero only occurs for an already-triangular column
            if vnorm2 == 0.0 {
                qr[(j, j)] = alpha;
                continue;
            }
            let beta = 2.0 / vnorm2;
            // Apply the reflector H = I − beta·v·vᵀ to the trailing columns.
            for c in (j + 1)..n {
                let mut dot = v0 * qr[(j, c)];
                for i in (j + 1)..m {
                    dot += qr[(i, j)] * qr[(i, c)];
                }
                let t = beta * dot;
                qr[(j, c)] -= t * v0;
                for i in (j + 1)..m {
                    let vij = qr[(i, j)];
                    qr[(i, c)] -= t * vij;
                }
            }
            qr[(j, j)] = alpha;
            betas[j] = beta;
            v0s[j] = v0;
        }
        Ok(QrFactor {
            qr,
            betas,
            v0s,
            rows: m,
            cols: n,
        })
    }

    /// Shape of the factored matrix as `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Solves the least-squares problem `min ‖A·x − b‖₂`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] for a wrong-length `b` and
    /// [`LinalgError::RankDeficient`] when `R` has a vanishing diagonal.
    pub fn solve_lstsq(&self, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        if b.len() != self.rows {
            return Err(LinalgError::ShapeMismatch {
                left: (self.rows, self.cols),
                right: (b.len(), 1),
                op: "qr solve",
            });
        }
        // y = Qᵀ·b by applying the stored reflectors in order.
        let mut y = b.to_vec();
        for j in 0..self.cols {
            let beta = self.betas[j];
            // fluxlint: allow(float-eq) — beta is assigned exactly 0.0 as the identity-reflector sentinel
            if beta == 0.0 {
                continue;
            }
            let v0 = self.v0s[j];
            let mut dot = v0 * y[j];
            for i in (j + 1)..self.rows {
                dot += self.qr[(i, j)] * y[i];
            }
            let t = beta * dot;
            y[j] -= t * v0;
            for i in (j + 1)..self.rows {
                y[i] -= t * self.qr[(i, j)];
            }
        }
        // Back-substitute R·x = y[..n].
        let mut x = vec![0.0; self.cols];
        for i in (0..self.cols).rev() {
            let mut s = y[i];
            for k in (i + 1)..self.cols {
                s -= self.qr[(i, k)] * x[k];
            }
            let rii = self.qr[(i, i)];
            if rii.abs() < 1e-12 {
                return Err(LinalgError::RankDeficient { column: i });
            }
            x[i] = s / rii;
        }
        Ok(x)
    }

    /// The `R` factor (upper triangular, `cols × cols`).
    pub fn r(&self) -> Matrix {
        let n = self.cols;
        let mut r = Matrix::zeros(n, n);
        for i in 0..n {
            for j in i..n {
                r[(i, j)] = self.qr[(i, j)];
            }
        }
        r
    }
}

/// Solves `min ‖A·x − b‖₂` in one call via Householder QR.
///
/// # Errors
///
/// Propagates the errors of [`QrFactor::new`] and
/// [`QrFactor::solve_lstsq`].
///
/// # Example
///
/// ```
/// use fluxprint_linalg::{lstsq, Matrix};
///
/// let a = Matrix::from_rows(&[&[1.0], &[1.0], &[1.0]])?;
/// let x = lstsq(&a, &[1.0, 2.0, 3.0])?; // mean of the observations
/// assert!((x[0] - 2.0).abs() < 1e-12);
/// # Ok::<(), fluxprint_linalg::LinalgError>(())
/// ```
pub fn lstsq(a: &Matrix, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
    QrFactor::new(a)?.solve_lstsq(b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vecops;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn square_system_exact_solve() {
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]).unwrap();
        let x = lstsq(&a, &[5.0, 10.0]).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-10);
        assert!((x[1] - 3.0).abs() < 1e-10);
    }

    #[test]
    fn overdetermined_exact_data() {
        // y = 2x + 1 sampled exactly.
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 1.0], &[2.0, 1.0], &[3.0, 1.0]]).unwrap();
        let y = [1.0, 3.0, 5.0, 7.0];
        let x = lstsq(&a, &y).unwrap();
        assert!((x[0] - 2.0).abs() < 1e-10);
        assert!((x[1] - 1.0).abs() < 1e-10);
    }

    #[test]
    fn residual_orthogonal_to_columns() {
        let mut rng = StdRng::seed_from_u64(7);
        let m = 20;
        let n = 4;
        let data: Vec<f64> = (0..m * n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let a = Matrix::from_vec(m, n, data).unwrap();
        let b: Vec<f64> = (0..m).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let x = lstsq(&a, &b).unwrap();
        let ax = a.matvec(&x).unwrap();
        let r = vecops::sub(&b, &ax);
        // Normal equations: Aᵀ·r = 0 at the optimum.
        let atr = a.tr_matvec(&r).unwrap();
        for v in atr {
            assert!(v.abs() < 1e-9, "gradient component {v} not ~0");
        }
    }

    #[test]
    fn qr_reconstructs_r_consistently() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]).unwrap();
        let qr = QrFactor::new(&a).unwrap();
        let r = qr.r();
        // RᵀR must equal AᵀA (Q is orthogonal).
        let rtr = r.transpose().matmul(&r).unwrap();
        let ata = a.gram();
        for i in 0..2 {
            for j in 0..2 {
                assert!((rtr[(i, j)] - ata[(i, j)]).abs() < 1e-9);
            }
        }
        assert_eq!(qr.shape(), (3, 2));
    }

    #[test]
    fn underdetermined_rejected() {
        let a = Matrix::zeros(2, 3);
        assert!(matches!(
            QrFactor::new(&a),
            Err(LinalgError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn rank_deficient_detected() {
        // Second column is a multiple of the first.
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0], &[3.0, 6.0]]).unwrap();
        assert!(matches!(
            lstsq(&a, &[1.0, 2.0, 3.0]),
            Err(LinalgError::RankDeficient { .. })
        ));
    }

    #[test]
    fn wrong_rhs_length_rejected() {
        let a = Matrix::identity(2);
        let qr = QrFactor::new(&a).unwrap();
        assert!(qr.solve_lstsq(&[1.0, 2.0, 3.0]).is_err());
    }

    #[test]
    fn zero_column_does_not_crash_factorization() {
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[0.0, 2.0], &[0.0, 3.0]]).unwrap();
        // Factorization succeeds; the solve reports rank deficiency.
        let qr = QrFactor::new(&a).unwrap();
        assert!(matches!(
            qr.solve_lstsq(&[1.0, 1.0, 1.0]),
            Err(LinalgError::RankDeficient { .. })
        ));
    }

    #[test]
    fn agrees_with_normal_equations() {
        let mut rng = StdRng::seed_from_u64(11);
        let m = 30;
        let n = 3;
        let data: Vec<f64> = (0..m * n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let a = Matrix::from_vec(m, n, data).unwrap();
        let b: Vec<f64> = (0..m).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let x_qr = lstsq(&a, &b).unwrap();
        let g = a.gram();
        let atb = a.tr_matvec(&b).unwrap();
        let x_ne = crate::LuFactor::new(&g).unwrap().solve(&atb).unwrap();
        for (p, q) in x_qr.iter().zip(&x_ne) {
            assert!((p - q).abs() < 1e-8, "qr {p} vs normal equations {q}");
        }
    }
}
