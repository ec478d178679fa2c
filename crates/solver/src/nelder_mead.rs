//! Nelder–Mead downhill simplex minimization.
//!
//! The outer position search needs a derivative-free local optimizer: the
//! boundary distance `l` is only piecewise smooth on rectangular fields
//! (§4.A), so gradient-based refinement is unreliable exactly where the
//! paper says it is. Nelder–Mead only compares objective values.

use fluxprint_telemetry::{self as telemetry, names};

use crate::SolverError;

// Standard coefficients.
const ALPHA: f64 = 1.0; // reflection
const GAMMA: f64 = 2.0; // expansion
const RHO: f64 = 0.5; // contraction
const SIGMA: f64 = 0.5; // shrink

// Termination: the simplex's objective spread falls below F_TOL *and*
// its coordinate spread below X_TOL (checking only the objective spread
// stalls on plateaus and ties).
const F_TOL: f64 = 1e-9;
const X_TOL: f64 = 1e-6;

const INITIAL_STEP: f64 = 1.0; // simplex edge length per coordinate

/// Minimizes `f` from `x0` with the Nelder–Mead simplex; returns the best
/// point found and its objective value. The search stops once it has
/// spent `max_evals` objective evaluations, checked once per iteration,
/// so a final shrink may overrun the budget by up to `x0.len() + 1`.
///
/// # Errors
///
/// Returns [`SolverError::BadParameter`] for an empty start point or a
/// zero budget.
///
/// # Example
///
/// ```
/// use fluxprint_solver::nelder_mead;
///
/// // Rosenbrock's banana, the classic smoke test.
/// let f = |x: &[f64]| (1.0 - x[0]).powi(2) + 100.0 * (x[1] - x[0] * x[0]).powi(2);
/// let (x, fx) = nelder_mead(f, &[-1.2, 1.0], 4000)?;
/// assert!(fx < 1e-6);
/// assert!((x[0] - 1.0).abs() < 1e-2 && (x[1] - 1.0).abs() < 1e-2);
/// # Ok::<(), fluxprint_solver::SolverError>(())
/// ```
pub fn nelder_mead<F>(
    mut f: F,
    x0: &[f64],
    max_evals: usize,
) -> Result<(Vec<f64>, f64), SolverError>
where
    F: FnMut(&[f64]) -> f64,
{
    let n = x0.len();
    if n == 0 {
        return Err(SolverError::BadParameter {
            name: "x0",
            value: 0.0,
        });
    }
    if max_evals == 0 {
        return Err(SolverError::BadParameter {
            name: "max_evals",
            value: 0.0,
        });
    }

    let _span = telemetry::span(names::SPAN_NELDER_MEAD);

    let mut evals = 0usize;
    let mut eval = |x: &[f64], evals: &mut usize| {
        *evals += 1;
        let v = f(x);
        if v.is_nan() {
            f64::INFINITY
        } else {
            v
        }
    };

    // Initial simplex: x0 plus a step along each axis.
    let mut simplex: Vec<(Vec<f64>, f64)> = Vec::with_capacity(n + 1);
    let f0 = eval(x0, &mut evals);
    simplex.push((x0.to_vec(), f0));
    for i in 0..n {
        let mut x = x0.to_vec();
        x[i] += INITIAL_STEP;
        let fx = eval(&x, &mut evals);
        simplex.push((x, fx));
    }

    let mut converged = false;
    while evals < max_evals {
        simplex.sort_by(|a, b| a.1.total_cmp(&b.1));
        let f_spread = simplex[n].1 - simplex[0].1;
        let x_spread = (0..n)
            .map(|i| {
                let (lo, hi) = simplex
                    .iter()
                    .fold((f64::INFINITY, f64::NEG_INFINITY), |(l, h), (x, _)| {
                        (l.min(x[i]), h.max(x[i]))
                    });
                hi - lo
            })
            .fold(0.0f64, f64::max);
        if f_spread.abs() < F_TOL && x_spread < X_TOL {
            converged = true;
            break;
        }
        // Centroid of all but the worst vertex.
        let mut centroid = vec![0.0; n];
        for (x, _) in &simplex[..n] {
            for (c, xi) in centroid.iter_mut().zip(x) {
                *c += xi / n as f64;
            }
        }
        let worst = simplex[n].clone();

        let reflect: Vec<f64> = centroid
            .iter()
            .zip(&worst.0)
            .map(|(c, w)| c + ALPHA * (c - w))
            .collect();
        let fr = eval(&reflect, &mut evals);

        if fr < simplex[0].1 {
            // Try expanding further along the same direction.
            let expand: Vec<f64> = centroid
                .iter()
                .zip(&reflect)
                .map(|(c, r)| c + GAMMA * (r - c))
                .collect();
            let fe = eval(&expand, &mut evals);
            simplex[n] = if fe < fr { (expand, fe) } else { (reflect, fr) };
        } else if fr < simplex[n - 1].1 {
            simplex[n] = (reflect, fr);
        } else {
            // Contract toward the better of worst/reflected.
            let (base, fb) = if fr < worst.1 {
                (&reflect, fr)
            } else {
                (&worst.0, worst.1)
            };
            let contract: Vec<f64> = centroid
                .iter()
                .zip(base)
                .map(|(c, b)| c + RHO * (b - c))
                .collect();
            let fc = eval(&contract, &mut evals);
            if fc < fb {
                simplex[n] = (contract, fc);
            } else {
                // Shrink everything toward the best vertex.
                let best = simplex[0].0.clone();
                for vertex in simplex.iter_mut().skip(1) {
                    for (xi, bi) in vertex.0.iter_mut().zip(&best) {
                        *xi = bi + SIGMA * (*xi - bi);
                    }
                    vertex.1 = eval(&vertex.0, &mut evals);
                }
            }
        }
    }
    telemetry::counter(
        if converged {
            names::SOLVER_NM_CONVERGED
        } else {
            names::SOLVER_NM_BUDGET_EXHAUSTED
        },
        1,
    );
    simplex.sort_by(|a, b| a.1.total_cmp(&b.1));
    let (x, fx) = simplex.swap_remove(0);
    Ok((x, fx))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimizes_quadratic_bowl() {
        let f = |x: &[f64]| (x[0] - 3.0).powi(2) + (x[1] + 1.0).powi(2) + 7.0;
        let (x, fx) = nelder_mead(f, &[0.0, 0.0], 400).unwrap();
        assert!((x[0] - 3.0).abs() < 1e-3);
        assert!((x[1] + 1.0).abs() < 1e-3);
        assert!((fx - 7.0).abs() < 1e-6);
    }

    #[test]
    fn handles_nondifferentiable_objective() {
        // |x| + |y| has a kink at the optimum — the rectangular-boundary
        // situation in miniature.
        let f = |x: &[f64]| x[0].abs() + x[1].abs();
        let (x, fx) = nelder_mead(f, &[5.0, -3.0], 2000).unwrap();
        assert!(fx < 1e-3, "objective {fx}");
        assert!(x[0].abs() < 1e-3 && x[1].abs() < 1e-3);
    }

    #[test]
    fn one_dimensional_problem() {
        let f = |x: &[f64]| (x[0] - 2.5).powi(2);
        let (x, _) = nelder_mead(f, &[10.0], 400).unwrap();
        assert!((x[0] - 2.5).abs() < 1e-3);
    }

    #[test]
    fn respects_eval_budget() {
        let mut count = 0usize;
        let f = |_: &[f64]| {
            0.0 // constant: converges by F_TOL immediately after setup
        };
        let _ = nelder_mead(
            |x| {
                count += 1;
                f(x)
            },
            &[0.0, 0.0, 0.0],
            10,
        )
        .unwrap();
        // Budget is checked per iteration; one shrink iteration may add up
        // to n+1 evaluations beyond it.
        assert!(count <= 10 + 4, "used {count} evaluations");
    }

    #[test]
    fn nan_treated_as_infinite() {
        // NaN region to the left; minimum at 1 is still found.
        let f = |x: &[f64]| {
            if x[0] < 0.0 {
                f64::NAN
            } else {
                (x[0] - 1.0).powi(2)
            }
        };
        let (x, _) = nelder_mead(f, &[3.0], 400).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-3);
    }

    #[test]
    fn config_validation() {
        assert!(nelder_mead(|_| 0.0, &[], 400).is_err());
        assert!(nelder_mead(|_| 0.0, &[1.0], 0).is_err());
    }
}
