//! The Levenberg–Marquardt baseline.
//!
//! §4.A argues classical smooth NLS solvers (Gauss–Newton,
//! Levenberg–Marquardt) are *not* applicable to the fingerprinting
//! objective on fields with non-differentiable boundaries (the `l` term
//! has kinks wherever the sink→node ray crosses a corner direction).
//! Levenberg–Marquardt, the damped and more robust of the two, is
//! implemented here with a numerical Jacobian so that claim is
//! reproducible: the ablation bench runs it head-to-head with the
//! derivative-free pipeline.

use fluxprint_geometry::Point2;
use fluxprint_linalg::{LuFactor, Matrix};

use crate::{FluxObjective, SinkFit, SolverError};

/// Outcome of a smooth-solver run.
#[derive(Debug, Clone, PartialEq)]
pub struct SmoothSolverReport {
    /// The final fit (positions, clamped-nonnegative stretches, residual).
    pub fit: SinkFit,
    /// Iterations performed.
    pub iterations: usize,
    /// Whether the step-size convergence test was met.
    pub converged: bool,
}

/// Packs `(x_j, y_j, q_j)` per sink into a flat parameter vector.
fn pack(positions: &[Point2], stretches: &[f64]) -> Vec<f64> {
    positions
        .iter()
        .zip(stretches)
        .flat_map(|(p, &q)| [p.x, p.y, q])
        .collect()
}

fn unpack(theta: &[f64]) -> (Vec<Point2>, Vec<f64>) {
    let k = theta.len() / 3;
    let mut positions = Vec::with_capacity(k);
    let mut stretches = Vec::with_capacity(k);
    for j in 0..k {
        positions.push(Point2::new(theta[3 * j], theta[3 * j + 1]));
        stretches.push(theta[3 * j + 2]);
    }
    (positions, stretches)
}

/// Residual vector `F̂(θ) − F′`.
fn residuals(objective: &FluxObjective, theta: &[f64]) -> Vec<f64> {
    let (positions, stretches) = unpack(theta);
    let model = objective.model();
    let boundary = objective.boundary();
    objective
        .positions()
        .iter()
        .zip(objective.measurements())
        .map(|(&node, &m)| {
            let predicted: f64 = positions
                .iter()
                .zip(&stretches)
                .map(|(&p, &q)| model.predict(p, q, node, boundary))
                .sum();
            predicted - m
        })
        .collect()
}

fn residual_norm(r: &[f64]) -> f64 {
    r.iter().map(|v| v * v).sum::<f64>().sqrt()
}

/// Forward-difference Jacobian of the residual vector.
fn jacobian(objective: &FluxObjective, theta: &[f64], r0: &[f64]) -> Matrix {
    let n = objective.len();
    let p = theta.len();
    let h = 1e-5;
    let mut jac = Matrix::zeros(n, p);
    let mut theta_h = theta.to_vec();
    for j in 0..p {
        let saved = theta_h[j];
        theta_h[j] = saved + h;
        let r1 = residuals(objective, &theta_h);
        theta_h[j] = saved;
        for i in 0..n {
            jac[(i, j)] = (r1[i] - r0[i]) / h;
        }
    }
    jac
}

fn finish(
    objective: &FluxObjective,
    theta: &[f64],
    iterations: usize,
    converged: bool,
) -> Result<SmoothSolverReport, SolverError> {
    let (positions, _) = unpack(theta);
    // Report through the standard inner fit so stretches are non-negative
    // and the residual is comparable with the derivative-free pipeline.
    let clamped: Vec<Point2> = positions
        .iter()
        .map(|&p| objective.boundary().clamp(p))
        .collect();
    let fit = objective.evaluate(&clamped)?;
    Ok(SmoothSolverReport {
        fit,
        iterations,
        converged,
    })
}

/// Levenberg–Marquardt from an initial guess (adaptive damping `λ`).
///
/// # Errors
///
/// Returns [`SolverError::ZeroSinks`] for empty initial positions and
/// propagates objective-evaluation errors.
pub fn levenberg_marquardt(
    objective: &FluxObjective,
    initial_positions: &[Point2],
    initial_stretches: &[f64],
    max_iters: usize,
) -> Result<SmoothSolverReport, SolverError> {
    if initial_positions.is_empty() {
        return Err(SolverError::ZeroSinks);
    }
    let mut theta = pack(initial_positions, initial_stretches);
    let mut lambda = 1e-3;
    let mut r = residuals(objective, &theta);
    let mut cost = residual_norm(&r);
    for iter in 0..max_iters {
        if cost < 1e-10 {
            return finish(objective, &theta, iter, true);
        }
        let jac = jacobian(objective, &theta, &r);
        let jtr = jac.tr_matvec(&r)?;
        let jtj = jac.gram();
        let mut stepped = false;
        for _ in 0..12 {
            let mut damped = jtj.clone();
            damped.add_diagonal(lambda);
            let delta = match LuFactor::new(&damped).and_then(|lu| lu.solve(&jtr)) {
                Ok(d) => d,
                Err(_) => {
                    lambda *= 10.0;
                    continue;
                }
            };
            let candidate: Vec<f64> = theta.iter().zip(&delta).map(|(t, d)| t - d).collect();
            let rc = residuals(objective, &candidate);
            let cc = residual_norm(&rc);
            if cc < cost {
                let step_norm = delta.iter().map(|v| v * v).sum::<f64>().sqrt();
                theta = candidate;
                r = rc;
                cost = cc;
                lambda = (lambda * 0.3).max(1e-12);
                stepped = true;
                if step_norm < 1e-8 {
                    return finish(objective, &theta, iter + 1, true);
                }
                break;
            }
            lambda *= 10.0;
        }
        if !stepped {
            return finish(objective, &theta, iter + 1, false);
        }
    }
    finish(objective, &theta, max_iters, false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fluxprint_fluxmodel::FluxModel;
    use fluxprint_geometry::{Circle, Rect};
    use std::sync::Arc;

    fn circle_objective(truth: &[(Point2, f64)]) -> FluxObjective {
        // Smooth boundary: the friendly case for gradient methods.
        let field = Circle::new(Point2::new(15.0, 15.0), 15.0).unwrap();
        let model = FluxModel::default();
        let mut sniffers = Vec::new();
        for i in 0..40 {
            let a = i as f64 * 0.157;
            let r = 3.0 + (i % 5) as f64 * 2.2;
            sniffers.push(Point2::new(15.0 + r * a.cos(), 15.0 + r * a.sin()));
        }
        let measured: Vec<f64> = sniffers
            .iter()
            .map(|&p| model.predict_superposed(truth, p, &field))
            .collect();
        FluxObjective::new(Arc::new(field), model, sniffers, measured).unwrap()
    }

    fn rect_objective(truth: &[(Point2, f64)]) -> FluxObjective {
        let field = Rect::square(30.0).unwrap();
        let model = FluxModel::default();
        let mut sniffers = Vec::new();
        for i in 0..6 {
            for j in 0..6 {
                sniffers.push(Point2::new(2.5 + i as f64 * 5.0, 2.5 + j as f64 * 5.0));
            }
        }
        let measured: Vec<f64> = sniffers
            .iter()
            .map(|&p| model.predict_superposed(truth, p, &field))
            .collect();
        FluxObjective::new(Arc::new(field), model, sniffers, measured).unwrap()
    }

    #[test]
    fn lm_converges_on_smooth_boundary_from_nearby_start() {
        let truth = [(Point2::new(12.0, 16.0), 2.0)];
        let obj = circle_objective(&truth);
        let report = levenberg_marquardt(&obj, &[Point2::new(14.0, 14.0)], &[1.0], 100).unwrap();
        assert!(
            report.fit.positions[0].distance(truth[0].0) < 0.5,
            "LM landed at {} (residual {:.3})",
            report.fit.positions[0],
            report.fit.residual
        );
    }

    #[test]
    fn lm_runs_without_failing_on_rect_boundary() {
        // The paper's point is that smooth solvers are *unreliable* here,
        // not that they crash: the implementation must degrade gracefully.
        let truth = [(Point2::new(12.0, 17.0), 2.0)];
        let obj = rect_objective(&truth);
        let report = levenberg_marquardt(&obj, &[Point2::new(25.0, 5.0)], &[1.0], 60).unwrap();
        assert!(report.fit.residual.is_finite());
        assert!(report.iterations <= 60);
    }

    #[test]
    fn empty_start_rejected() {
        let obj = rect_objective(&[(Point2::new(10.0, 10.0), 1.0)]);
        assert!(matches!(
            levenberg_marquardt(&obj, &[], &[], 10),
            Err(SolverError::ZeroSinks)
        ));
    }

    #[test]
    fn pack_unpack_round_trip() {
        let positions = vec![Point2::new(1.0, 2.0), Point2::new(3.0, 4.0)];
        let stretches = vec![0.5, 1.5];
        let theta = pack(&positions, &stretches);
        let (p2, s2) = unpack(&theta);
        assert_eq!(p2, positions);
        assert_eq!(s2, stretches);
    }
}
