//! Lawson–Hanson non-negative least squares.
//!
//! The inner fit of the paper's NLS objective (Equation 4.1) estimates the
//! integrated traffic-stretch factors `q_j = s_j / r` for a *fixed*
//! hypothesis of sink positions. Stretches are amounts of traffic and hence
//! non-negative; a negative fitted stretch is how the asynchronous-update
//! logic would misread an inactive user as "negative traffic". NNLS both
//! fixes the sign and gives the `q_j → 0` signal the paper's Algorithm 4.1
//! uses to detect users that did not collect data this round.
//!
//! One active-set core, two entry points:
//!
//! * [`nnls`] takes the dense system `(A, b)` — the historical path.
//! * [`nnls_gram_into`] takes the precomputed normal equations
//!   `(AᵀA, Aᵀb)` and never touches the observation dimension `m` again —
//!   the entry the solver's scoring cache uses to make combination
//!   evaluation independent of the sniffer count. Unseeded, it runs the
//!   same active-set iterations as [`nnls`] and returns the same
//!   coefficient vector; an optional seed support lets a warm caller
//!   skip the iterations when last round's support still satisfies KKT.

use crate::{LinalgError, Matrix};

/// Result of a non-negative least-squares solve.
#[derive(Debug, Clone, PartialEq)]
pub struct NnlsSolution {
    /// The non-negative coefficient vector.
    pub x: Vec<f64>,
    /// `‖A·x − b‖₂` at the solution.
    pub residual_norm: f64,
    /// Outer iterations used.
    pub iterations: usize,
}

/// Reusable buffers for the active-set core, so steady-state callers
/// (the solver's per-combination scoring loop) allocate nothing per solve.
///
/// A scratch adapts itself to whatever problem size it is handed; reusing
/// one across solves of similar size is what makes it worthwhile.
#[derive(Debug, Clone, Default)]
pub struct NnlsScratch {
    x: Vec<f64>,
    passive: Vec<bool>,
    gx: Vec<f64>,
    w: Vec<f64>,
    idx: Vec<usize>,
    z: Vec<f64>,
    // Passive-set subproblem: sub-Gram, its Cholesky factor, rhs, and the
    // forward-substitution intermediate.
    sub: Vec<f64>,
    l: Vec<f64>,
    rhs: Vec<f64>,
    y: Vec<f64>,
}

impl NnlsScratch {
    /// A fresh scratch (buffers grow on first use).
    pub fn new() -> Self {
        NnlsScratch::default()
    }

    /// The coefficient vector left by the most recent solve.
    pub fn solution(&self) -> &[f64] {
        &self.x
    }
}

/// Solves `min ‖A·x − b‖₂` subject to `x ≥ 0` (Lawson–Hanson active set).
///
/// Optimized for this workspace's shape: tall thin systems (hundreds of
/// sniffed nodes × a handful of users), so the Gram matrix `AᵀA` is formed
/// once and passive-set subsystems are solved by Cholesky.
///
/// # Errors
///
/// Returns [`LinalgError::ShapeMismatch`] when `b.len() != a.rows()` and
/// [`LinalgError::NoConvergence`] if the active-set loop exceeds its budget
/// (pathological inputs only; the budget is `3 · cols` outer iterations as
/// in the reference algorithm, with inner-loop protection).
///
/// # Example
///
/// ```
/// use fluxprint_linalg::{nnls, Matrix};
///
/// // The unconstrained optimum has a negative coefficient; NNLS clamps it.
/// let a = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]])?;
/// let sol = nnls(&a, &[1.0, -0.5])?;
/// assert_eq!(sol.x, vec![1.0, 0.0]);
/// # Ok::<(), fluxprint_linalg::LinalgError>(())
/// ```
pub fn nnls(a: &Matrix, b: &[f64]) -> Result<NnlsSolution, LinalgError> {
    let (m, n) = a.shape();
    if b.len() != m {
        return Err(LinalgError::ShapeMismatch {
            left: (m, n),
            right: (b.len(), 1),
            op: "nnls",
        });
    }
    let gram = a.gram();
    let atb = a.tr_matvec(b)?;
    let mut scratch = NnlsScratch::new();
    let iterations = active_set(&gram, &atb, &mut scratch)?;

    // Residual in the data space: exact even for near-perfect fits, where
    // the Gram-form identity loses everything to cancellation.
    let ax = a.matvec(&scratch.x)?;
    let residual_norm = ax
        .iter()
        .zip(b)
        .map(|(p, q)| (p - q) * (p - q))
        .sum::<f64>()
        .sqrt();
    Ok(NnlsSolution {
        x: scratch.x,
        residual_norm,
        iterations,
    })
}

/// Solves NNLS from the precomputed normal equations `gram = AᵀA`
/// (symmetric `n × n`) and `atb = Aᵀb` on the caller's scratch, leaving
/// the coefficients in [`NnlsScratch::solution`]. It never touches the
/// observation dimension `m`, and the caller computes whichever residual
/// representation it needs. Returns `(outer iterations, warm_hit)`.
///
/// With `seed == None` this runs the same active-set iterations as
/// [`nnls`] on the same normal equations, so the coefficients are
/// bit-identical to it; `warm_hit` is `false`.
///
/// With `seed == Some(support)` (`support[i] == true` ⇒ column `i` is
/// expected in the optimal passive set, typically the previous solve's
/// support on a nearby problem), the seeded passive set is solved once
/// and accepted only if it is strictly feasible **and** satisfies the
/// full KKT conditions (every zero-bound gradient within tolerance). An
/// accepted seed is a *warm hit* and reports 0 iterations; otherwise the
/// solve reruns cold and returns exactly what `None` would. An accepted
/// seed whose passive set matches the cold path's final one is
/// bit-identical to it.
///
/// # Errors
///
/// Returns [`LinalgError::NotSquare`] for a non-square `gram`,
/// [`LinalgError::ShapeMismatch`] when `atb.len() != gram.rows()` or
/// `support.len() != gram.rows()`, and [`LinalgError::NoConvergence`] as
/// for [`nnls`].
pub fn nnls_gram_into(
    gram: &Matrix,
    atb: &[f64],
    seed: Option<&[bool]>,
    scratch: &mut NnlsScratch,
) -> Result<(usize, bool), LinalgError> {
    let (rows, cols) = gram.shape();
    if rows != cols {
        return Err(LinalgError::NotSquare {
            shape: gram.shape(),
        });
    }
    if atb.len() != rows {
        return Err(LinalgError::ShapeMismatch {
            left: (rows, cols),
            right: (atb.len(), 1),
            op: "nnls_gram",
        });
    }
    match seed {
        None => active_set(gram, atb, scratch).map(|iters| (iters, false)),
        Some(support) if support.len() != rows => Err(LinalgError::ShapeMismatch {
            left: (rows, cols),
            right: (support.len(), 1),
            op: "nnls_gram seed",
        }),
        Some(support) => active_set_warm(gram, atb, scratch, support),
    }
}

// fluxlint: region(hot-path) — warm-started solve entry: runs once per
// combination evaluation in warm mode, so the seeded attempt must reuse
// the caller's scratch and allocate nothing on the accept path.

/// Warm-started active-set core: solve the seeded passive set once,
/// accept on strict feasibility + full KKT, otherwise fall back to the
/// cold loop. Returns `(outer iterations, warm_hit)`.
///
/// On a warm hit the solution is the unique minimizer over the seeded
/// passive set, which is exactly what the cold loop computes when it
/// terminates with the same passive set — the two are bit-identical in
/// that (nondegenerate) case because [`solve_passive`] is a pure
/// function of `(gram, atb, idx)`. Degenerate problems (duplicate
/// columns) may satisfy KKT at several vertices, so cross-path
/// bit-identity is only guaranteed via the fallback.
fn active_set_warm(
    gram: &Matrix,
    atb: &[f64],
    scratch: &mut NnlsScratch,
    support: &[bool],
) -> Result<(usize, bool), LinalgError> {
    let n = atb.len();
    if n == 0 || support.iter().all(|&s| !s) {
        // Nothing to seed: the cold loop starts from the empty set anyway.
        return active_set(gram, atb, scratch).map(|iters| (iters, false));
    }
    scratch.x.clear();
    scratch.x.resize(n, 0.0);
    scratch.passive.clear();
    scratch.passive.extend_from_slice(support);
    scratch.gx.resize(n, 0.0);
    scratch.w.resize(n, 0.0);
    let tol = 1e-10 * gram.max_abs().max(1.0);
    scratch.idx.clear();
    scratch.idx.extend((0..n).filter(|&i| scratch.passive[i]));
    solve_passive(gram, atb, scratch)?;
    if scratch.z.iter().all(|&v| v > tol.min(1e-12)) {
        for slot in 0..scratch.idx.len() {
            scratch.x[scratch.idx[slot]] = scratch.z[slot];
        }
        // KKT at the seeded vertex: every zero-bound coordinate's
        // negative gradient w = Aᵀb − G·x must be within tolerance,
        // or the true support moved and the seed is stale.
        gram.matvec_into(&scratch.x, &mut scratch.gx)?;
        let mut optimal = true;
        for i in 0..n {
            scratch.w[i] = atb[i] - scratch.gx[i];
            if !scratch.passive[i] && scratch.w[i] > tol {
                optimal = false;
            }
        }
        if optimal {
            return Ok((0, true));
        }
    }
    // Stale or infeasible seed: rerun from scratch — `active_set` resets
    // all state, so this is bit-identical to a cold call.
    active_set(gram, atb, scratch).map(|iters| (iters, false))
}

// fluxlint: endregion(hot-path)

/// The Lawson–Hanson active-set core on the normal equations. Leaves the
/// solution in `scratch.x` and returns the outer iteration count.
fn active_set(gram: &Matrix, atb: &[f64], scratch: &mut NnlsScratch) -> Result<usize, LinalgError> {
    let n = atb.len();
    scratch.x.clear();
    scratch.x.resize(n, 0.0);
    scratch.passive.clear();
    scratch.passive.resize(n, false);
    scratch.gx.resize(n, 0.0);
    scratch.w.resize(n, 0.0);
    let tol = 1e-10 * gram.max_abs().max(1.0);
    let max_outer = 3 * n.max(1) + 10;

    for outer in 0..max_outer {
        // Gradient of ½‖Ax−b‖² is Aᵀ(Ax−b); w = −gradient = Aᵀb − G·x.
        gram.matvec_into(&scratch.x, &mut scratch.gx)?;
        for i in 0..n {
            scratch.w[i] = atb[i] - scratch.gx[i];
        }

        // Pick the most promising zero-bound variable.
        let mut best: Option<(usize, f64)> = None;
        for i in 0..n {
            if !scratch.passive[i]
                && scratch.w[i] > tol
                && best.is_none_or(|(_, bw)| scratch.w[i] > bw)
            {
                best = Some((i, scratch.w[i]));
            }
        }
        let Some((j, _)) = best else {
            return Ok(outer);
        };
        scratch.passive[j] = true;

        // Inner loop: solve on the passive set, step back if any passive
        // coefficient would go negative.
        let mut inner_guard = 0;
        loop {
            inner_guard += 1;
            if inner_guard > n + 1 {
                return Err(LinalgError::NoConvergence { iterations: outer });
            }
            scratch.idx.clear();
            scratch.idx.extend((0..n).filter(|&i| scratch.passive[i]));
            solve_passive(gram, atb, scratch)?;

            if scratch.z.iter().all(|&v| v > tol.min(1e-12)) {
                for slot in 0..scratch.idx.len() {
                    scratch.x[scratch.idx[slot]] = scratch.z[slot];
                }
                for i in 0..n {
                    if !scratch.passive[i] {
                        scratch.x[i] = 0.0;
                    }
                }
                break;
            }

            // Interpolate toward z until the first passive variable hits 0.
            let mut alpha = f64::INFINITY;
            for (slot, &i) in scratch.idx.iter().enumerate() {
                if scratch.z[slot] <= tol.min(1e-12) {
                    let denom = scratch.x[i] - scratch.z[slot];
                    if denom > 0.0 {
                        alpha = alpha.min(scratch.x[i] / denom);
                    } else {
                        alpha = 0.0;
                    }
                }
            }
            let alpha = alpha.clamp(0.0, 1.0);
            for (slot, &i) in scratch.idx.iter().enumerate() {
                scratch.x[i] += alpha * (scratch.z[slot] - scratch.x[i]);
            }
            for slot in 0..scratch.idx.len() {
                let i = scratch.idx[slot];
                if scratch.x[i] <= tol.min(1e-12) {
                    scratch.x[i] = 0.0;
                    scratch.passive[i] = false;
                }
            }
        }
    }
    Err(LinalgError::NoConvergence {
        iterations: max_outer,
    })
}

/// Solves the unconstrained subproblem restricted to the passive columns
/// (`scratch.idx`), leaving the solution in `scratch.z`, by a Cholesky
/// factorization over reusable buffers so the hot loop performs no
/// allocation.
fn solve_passive(gram: &Matrix, atb: &[f64], scratch: &mut NnlsScratch) -> Result<(), LinalgError> {
    let k = scratch.idx.len();
    scratch.z.clear();
    if k == 0 {
        return Ok(());
    }
    scratch.sub.clear();
    scratch.sub.resize(k * k, 0.0);
    scratch.rhs.resize(k, 0.0);
    for r in 0..k {
        let i = scratch.idx[r];
        scratch.rhs[r] = atb[i];
        for c in 0..k {
            scratch.sub[r * k + c] = gram[(i, scratch.idx[c])];
        }
    }
    scratch.z.resize(k, 0.0);
    if factor_and_solve(k, scratch).is_ok() {
        return Ok(());
    }
    // Nearly collinear columns (two hypothesized sinks at the same
    // spot): regularize slightly rather than fail the whole fit.
    let mut max_abs = 0.0f64;
    for &v in &scratch.sub {
        max_abs = max_abs.max(v.abs());
    }
    let ridge = 1e-8 * max_abs.max(1.0);
    for d in 0..k {
        scratch.sub[d * k + d] += ridge;
    }
    factor_and_solve(k, scratch)
}

/// Cholesky-factors `scratch.sub` (k×k, row-major) into `scratch.l` and
/// solves for `scratch.rhs` by forward then back substitution, leaving
/// the result in `scratch.z`.
fn factor_and_solve(k: usize, scratch: &mut NnlsScratch) -> Result<(), LinalgError> {
    scratch.l.clear();
    scratch.l.resize(k * k, 0.0);
    for j in 0..k {
        let mut d = scratch.sub[j * k + j];
        for p in 0..j {
            d -= scratch.l[j * k + p] * scratch.l[j * k + p];
        }
        if d <= 0.0 || !d.is_finite() {
            return Err(LinalgError::NotPositiveDefinite { pivot: j });
        }
        let ljj = d.sqrt();
        scratch.l[j * k + j] = ljj;
        for i in (j + 1)..k {
            let mut s = scratch.sub[i * k + j];
            for p in 0..j {
                s -= scratch.l[i * k + p] * scratch.l[j * k + p];
            }
            scratch.l[i * k + j] = s / ljj;
        }
    }
    // Forward substitution: L·y = rhs.
    scratch.y.clear();
    scratch.y.resize(k, 0.0);
    for i in 0..k {
        let mut s = scratch.rhs[i];
        for p in 0..i {
            s -= scratch.l[i * k + p] * scratch.y[p];
        }
        scratch.y[i] = s / scratch.l[i * k + i];
    }
    // Back substitution: Lᵀ·z = y.
    for i in (0..k).rev() {
        let mut s = scratch.y[i];
        for p in (i + 1)..k {
            s -= scratch.l[p * k + i] * scratch.z[p];
        }
        scratch.z[i] = s / scratch.l[i * k + i];
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lstsq;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn interior_solution_matches_unconstrained() {
        // Both true coefficients positive → NNLS equals ordinary LS.
        let a = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[1.0, 1.0]]).unwrap();
        let b = [1.0, 2.0, 3.0];
        let sol = nnls(&a, &b).unwrap();
        let ls = lstsq(&a, &b).unwrap();
        for (p, q) in sol.x.iter().zip(&ls) {
            assert!((p - q).abs() < 1e-9, "{p} vs {q}");
        }
        assert!(sol.residual_norm < 1e-9);
    }

    #[test]
    fn clamps_negative_coefficient() {
        let a = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]).unwrap();
        let sol = nnls(&a, &[1.0, -0.5]).unwrap();
        assert_eq!(sol.x, vec![1.0, 0.0]);
        assert!((sol.residual_norm - 0.5).abs() < 1e-12);
    }

    #[test]
    fn zero_rhs_gives_zero_solution() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let sol = nnls(&a, &[0.0, 0.0]).unwrap();
        assert_eq!(sol.x, vec![0.0, 0.0]);
        assert_eq!(sol.residual_norm, 0.0);
        assert_eq!(sol.iterations, 0);
    }

    #[test]
    fn recovers_known_nonnegative_mixture() {
        let mut rng = StdRng::seed_from_u64(9);
        let m = 40;
        let n = 4;
        let data: Vec<f64> = (0..m * n).map(|_| rng.gen_range(0.0..1.0)).collect();
        let a = Matrix::from_vec(m, n, data).unwrap();
        let truth = vec![0.5, 0.0, 2.0, 1.2];
        let b = a.matvec(&truth).unwrap();
        let sol = nnls(&a, &b).unwrap();
        for (got, want) in sol.x.iter().zip(&truth) {
            assert!((got - want).abs() < 1e-6, "{got} vs {want}");
        }
    }

    #[test]
    fn kkt_conditions_hold_on_random_problems() {
        let mut rng = StdRng::seed_from_u64(10);
        for _ in 0..25 {
            let m = rng.gen_range(3..30);
            let n = rng.gen_range(1..6);
            let data: Vec<f64> = (0..m * n).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let a = Matrix::from_vec(m, n, data).unwrap();
            let b: Vec<f64> = (0..m).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let sol = nnls(&a, &b).unwrap();
            // KKT: x ≥ 0; gradient g = Aᵀ(Ax−b) has g_i ≥ −tol where x_i = 0
            // and |g_i| ≈ 0 where x_i > 0.
            let ax = a.matvec(&sol.x).unwrap();
            let r: Vec<f64> = ax.iter().zip(&b).map(|(p, q)| p - q).collect();
            let g = a.tr_matvec(&r).unwrap();
            for (i, (&xi, &gi)) in sol.x.iter().zip(&g).enumerate() {
                assert!(xi >= 0.0, "x[{i}] negative: {xi}");
                if xi > 1e-8 {
                    assert!(gi.abs() < 1e-6, "free variable gradient {gi}");
                } else {
                    assert!(gi > -1e-6, "bound variable gradient {gi}");
                }
            }
        }
    }

    #[test]
    fn duplicate_columns_do_not_fail() {
        // Two identical "users" at the same position — degenerate Gram.
        let a = Matrix::from_rows(&[&[1.0, 1.0], &[2.0, 2.0], &[3.0, 3.0]]).unwrap();
        let sol = nnls(&a, &[2.0, 4.0, 6.0]).unwrap();
        // Any split with x0 + x1 = 2 is optimal; check feasibility + fit.
        assert!(sol.x.iter().all(|&v| v >= 0.0));
        assert!((sol.x[0] + sol.x[1] - 2.0).abs() < 1e-5);
        assert!(sol.residual_norm < 1e-5);
    }

    #[test]
    fn wrong_rhs_length_rejected() {
        let a = Matrix::identity(2);
        assert!(nnls(&a, &[1.0]).is_err());
    }

    #[test]
    fn single_column_problems() {
        let a = Matrix::column(vec![1.0, 1.0, 1.0]).unwrap();
        // Positive mean → fitted; negative mean → clamped to zero.
        assert!((nnls(&a, &[1.0, 2.0, 3.0]).unwrap().x[0] - 2.0).abs() < 1e-9);
        assert_eq!(nnls(&a, &[-1.0, -2.0, -3.0]).unwrap().x[0], 0.0);
    }

    fn normal_equations(a: &Matrix, b: &[f64]) -> (Matrix, Vec<f64>) {
        (a.gram(), a.tr_matvec(b).unwrap())
    }

    /// A random `m × n` system (`m < m_max`, `n < n_max`) whose identity
    /// block plus noise keeps the columns well-conditioned.
    fn well_conditioned(rng: &mut StdRng, m_max: usize, n_max: usize) -> (Matrix, Vec<f64>) {
        let m = rng.gen_range(8..m_max);
        let n = rng.gen_range(1..n_max);
        let mut data: Vec<f64> = (0..m * n).map(|_| rng.gen_range(0.0..1.0)).collect();
        for j in 0..n {
            data[j * n + j] += 3.0;
        }
        let a = Matrix::from_vec(m, n, data).unwrap();
        let b = (0..m).map(|_| rng.gen_range(-1.0..2.0)).collect();
        (a, b)
    }

    #[test]
    fn gram_entry_matches_dense_on_random_problems() {
        // The unseeded Gram entry on (AᵀA, Aᵀb) runs the same active-set
        // iterations as dense nnls on the same normal equations, so the
        // coefficient vectors are bit-identical.
        let mut rng = StdRng::seed_from_u64(77);
        let mut scratch = NnlsScratch::new();
        for trial in 0..40 {
            let (a, b) = well_conditioned(&mut rng, 60, 6);
            let dense = nnls(&a, &b).unwrap();
            let (gram, atb) = normal_equations(&a, &b);
            let (iterations, hit) = nnls_gram_into(&gram, &atb, None, &mut scratch).unwrap();
            assert_eq!(scratch.solution(), dense.x.as_slice(), "trial {trial}");
            assert_eq!(iterations, dense.iterations);
            assert!(!hit);
        }
    }

    #[test]
    fn gram_entry_validates_shapes() {
        let mut scratch = NnlsScratch::new();
        assert!(matches!(
            nnls_gram_into(&Matrix::zeros(2, 3), &[1.0, 2.0], None, &mut scratch),
            Err(LinalgError::NotSquare { .. })
        ));
        let gram = Matrix::identity(2);
        assert!(matches!(
            nnls_gram_into(&gram, &[1.0], None, &mut scratch),
            Err(LinalgError::ShapeMismatch { .. })
        ));
        assert!(matches!(
            nnls_gram_into(&gram, &[1.0, 1.0], Some(&[true, false, true]), &mut scratch),
            Err(LinalgError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn gram_scratch_reuse_is_stable() {
        // The same scratch driven across different problem sizes must not
        // leak state between solves.
        let mut scratch = NnlsScratch::new();
        let a1 = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[1.0, 1.0]]).unwrap();
        let b1 = [1.0, 2.0, 3.0];
        let a2 = Matrix::from_rows(&[&[2.0], &[1.0]]).unwrap();
        let b2 = [4.0, 2.0];
        for _ in 0..3 {
            let (g1, atb1) = normal_equations(&a1, &b1);
            nnls_gram_into(&g1, &atb1, None, &mut scratch).unwrap();
            let expected = nnls(&a1, &b1).unwrap();
            assert_eq!(scratch.solution(), expected.x.as_slice());
            let (g2, atb2) = normal_equations(&a2, &b2);
            nnls_gram_into(&g2, &atb2, Some(&[true]), &mut scratch).unwrap();
            let expected = nnls(&a2, &b2).unwrap();
            assert_eq!(scratch.solution(), expected.x.as_slice());
        }
    }

    #[test]
    fn seed_with_correct_support_is_bit_identical_and_iteration_free() {
        // Well-conditioned random problems: solve cold, then re-solve
        // seeded with the cold support. The seed must be accepted
        // (0 iterations) and the coefficients bit-identical — the warm
        // accept path runs the same passive solve the cold loop ended on.
        let mut rng = StdRng::seed_from_u64(81);
        let mut scratch = NnlsScratch::new();
        let mut hits = 0usize;
        for trial in 0..40 {
            let (a, b) = well_conditioned(&mut rng, 60, 6);
            let cold = nnls(&a, &b).unwrap();
            let support: Vec<bool> = cold.x.iter().map(|&v| v > 0.0).collect();
            let (gram, atb) = normal_equations(&a, &b);
            let (iterations, hit) =
                nnls_gram_into(&gram, &atb, Some(&support), &mut scratch).unwrap();
            assert_eq!(scratch.solution(), cold.x.as_slice(), "trial {trial}");
            if hit {
                hits += 1;
                assert_eq!(iterations, 0, "trial {trial}");
            }
        }
        // The optimal support must be accepted on essentially every
        // nondegenerate problem; demand a strong majority.
        assert!(hits >= 35, "only {hits}/40 warm hits");
    }

    #[test]
    fn rejected_seed_reproduces_the_cold_solve() {
        let identity = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]).unwrap();
        let tall = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[1.0, 1.0]]).unwrap();
        let cases: [(&Matrix, &[f64], [bool; 2]); 3] = [
            // The clamped variable seeded passive: infeasible.
            (&identity, &[1.0, -0.5], [true, true]),
            // The true positive variable left out: KKT-stale.
            (&identity, &[2.0, 3.0], [true, false]),
            // Nothing seeded: the cold loop starts from the empty set.
            (&tall, &[1.0, 2.0, 3.0], [false, false]),
        ];
        let mut scratch = NnlsScratch::new();
        for (a, b, seed) in cases {
            let cold = nnls(a, b).unwrap();
            let (gram, atb) = normal_equations(a, b);
            let (iterations, hit) = nnls_gram_into(&gram, &atb, Some(&seed), &mut scratch).unwrap();
            assert!(!hit, "seed {seed:?}");
            assert_eq!(scratch.solution(), cold.x.as_slice());
            assert_eq!(iterations, cold.iterations);
        }
    }
}
