//! Multi-start random position search (the instant-localization procedure
//! of Figure 5: "we test 10,000 random location samples for each user and
//! perform NLS fitting to find the top 10 combinations").

use rand::Rng;

use fluxprint_fluxpar::Pool;
use fluxprint_geometry::{deployment, Point2};
use fluxprint_telemetry::{self as telemetry, names};

use crate::{nelder_mead, FluxObjective, SinkFit, SolverError};

/// Nelder–Mead evaluation budget for refining each kept fit.
const REFINE_EVALS: usize = 200;

/// Configuration for [`random_search`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RandomSearchConfig {
    /// Number of random K-tuples evaluated (paper: 10 000).
    pub samples: usize,
    /// Number of best fits kept (paper: 10).
    pub top_m: usize,
}

impl Default for RandomSearchConfig {
    fn default() -> Self {
        RandomSearchConfig {
            samples: 10_000,
            top_m: 10,
        }
    }
}

/// Draws `config.samples` random joint hypotheses of `k` sink positions,
/// NNLS-fits each, and returns the `top_m` fits sorted by residual
/// (best first).
///
/// For `k > 1` the candidate pool also gets one greedy *sequential* fit:
/// sinks placed one at a time, each conditioned on those already placed
/// (the sparse-sampling analogue of the §3.C briefing). Joint K-tuple
/// sampling covers all sinks at once only with probability ∝
/// (hit-area / field-area)^K, so this seed removes the rare gross
/// outliers at K = 3–4. Each kept fit is then polished by
/// [`refine_fit`] on a 200-evaluation Nelder–Mead budget before the
/// final ranking.
///
/// # Errors
///
/// Returns [`SolverError::ZeroSinks`] for `k == 0` and
/// [`SolverError::BadParameter`] for zero samples or `top_m`.
pub fn random_search<R: Rng + ?Sized>(
    objective: &FluxObjective,
    k: usize,
    config: &RandomSearchConfig,
    rng: &mut R,
) -> Result<Vec<SinkFit>, SolverError> {
    random_search_with(objective, k, config, rng, fluxprint_fluxpar::pool())
}

/// [`random_search`] on an explicit worker pool.
///
/// The RNG stream is consumed exactly as in the sequential implementation:
/// every random draw happens up front on the caller's thread, and only the
/// (draw-order-indexed) NNLS evaluations fan out to the pool. Together with
/// draw-order reductions this makes the result bit-identical for a given
/// seed at any thread count.
///
/// # Errors
///
/// As for [`random_search`].
pub fn random_search_with<R: Rng + ?Sized>(
    objective: &FluxObjective,
    k: usize,
    config: &RandomSearchConfig,
    rng: &mut R,
    pool: &Pool,
) -> Result<Vec<SinkFit>, SolverError> {
    if k == 0 {
        return Err(SolverError::ZeroSinks);
    }
    if config.samples == 0 {
        return Err(SolverError::BadParameter {
            name: "samples",
            value: 0.0,
        });
    }
    if config.top_m == 0 {
        return Err(SolverError::BadParameter {
            name: "top_m",
            value: 0.0,
        });
    }

    let _span = telemetry::span(names::SPAN_RANDOM_SEARCH);
    let boundary = objective.boundary();
    telemetry::counter(names::SOLVER_RANDOM_SEARCH_SAMPLES, config.samples as u64);
    // Draw every joint hypothesis up front (identical RNG consumption to
    // the interleaved draw/evaluate loop, since evaluation never touches
    // the RNG), then fan the evaluations out to the pool.
    let mut draws = vec![Point2::ORIGIN; config.samples * k];
    for p in draws.iter_mut() {
        *p = deployment::random_point(boundary, rng);
    }
    let fits = pool.map_indexed(config.samples, |s| {
        objective.evaluate(&draws[s * k..(s + 1) * k])
    });
    // Keep a bounded best-list in draw order; `samples` can be large, so
    // the ranking never sorts all of them.
    let mut best: Vec<SinkFit> = Vec::with_capacity(config.top_m + 1);
    for fit in fits {
        insert_bounded(&mut best, fit?, config.top_m);
    }
    if k > 1 {
        let per_stage = (config.samples / (2 * k)).max(200);
        let fit = sequential_greedy(objective, k, per_stage, rng, pool)?;
        insert_bounded(&mut best, fit, config.top_m);
    }

    // Each kept fit refines independently of the others.
    let refined = pool.map_indexed(best.len(), |i| {
        refine_fit(objective, &best[i], REFINE_EVALS)
    });
    for (slot, fit) in best.iter_mut().zip(refined) {
        *slot = fit?;
    }
    best.sort_by(|a, b| a.residual.total_cmp(&b.residual));
    Ok(best)
}

/// Locally refines a fit's positions with Nelder–Mead (clamped to the
/// field, on a `max_evals` budget) and re-fits the stretches at the
/// refined positions.
///
/// # Errors
///
/// Propagates objective-evaluation errors and [`nelder_mead`]'s
/// parameter errors.
pub fn refine_fit(
    objective: &FluxObjective,
    fit: &SinkFit,
    max_evals: usize,
) -> Result<SinkFit, SolverError> {
    let k = fit.positions.len();
    let x0: Vec<f64> = fit.positions.iter().flat_map(|p| [p.x, p.y]).collect();
    let (x, _) = nelder_mead(
        |x| {
            let sinks: Vec<Point2> = (0..k)
                .map(|j| {
                    objective
                        .boundary()
                        .clamp(Point2::new(x[2 * j], x[2 * j + 1]))
                })
                .collect();
            objective
                .evaluate(&sinks)
                .map(|f| f.residual)
                .unwrap_or(f64::INFINITY)
        },
        &x0,
        max_evals,
    )?;
    let sinks: Vec<Point2> = (0..k)
        .map(|j| {
            objective
                .boundary()
                .clamp(Point2::new(x[2 * j], x[2 * j + 1]))
        })
        .collect();
    objective.evaluate(&sinks)
}

/// One greedy sequential fit: sinks placed one at a time, each chosen as
/// the best of `per_stage` random candidates conditioned on the sinks
/// already placed.
fn sequential_greedy<R: Rng + ?Sized>(
    objective: &FluxObjective,
    k: usize,
    per_stage: usize,
    rng: &mut R,
    pool: &Pool,
) -> Result<SinkFit, SolverError> {
    let boundary = objective.boundary();
    let mut placed: Vec<Point2> = Vec::with_capacity(k);
    telemetry::counter(names::SOLVER_RANDOM_SEARCH_SAMPLES, (k * per_stage) as u64);
    for _ in 0..k {
        // Stages are sequentially dependent (each conditions on the sinks
        // already placed), but one stage's candidates are not: draw them
        // all, evaluate on the pool, reduce in draw order.
        let candidates: Vec<Point2> = (0..per_stage)
            .map(|_| deployment::random_point(boundary, rng))
            .collect();
        let evals = pool.map_with(
            per_stage,
            || {
                let mut hypothesis = placed.clone();
                hypothesis.push(Point2::ORIGIN);
                hypothesis
            },
            |hypothesis, c| {
                if let Some(slot) = hypothesis.last_mut() {
                    *slot = candidates[c];
                }
                objective.evaluate(hypothesis).map(|fit| fit.residual)
            },
        );
        let mut stage_best: Option<(Point2, f64)> = None;
        for (candidate, eval) in candidates.iter().zip(evals) {
            let residual = eval?;
            if stage_best.is_none_or(|(_, r)| residual < r) {
                stage_best = Some((*candidate, residual));
            }
        }
        // per_stage >= 1 is enforced by the caller's config validation.
        let Some((p, _)) = stage_best else {
            return Err(SolverError::BadParameter {
                name: "per_stage",
                value: per_stage as f64,
            });
        };
        placed.push(p);
    }
    objective.evaluate(&placed)
}

/// Inserts `fit` into a best-list sorted by residual, keeping at most
/// `cap` entries.
fn insert_bounded(best: &mut Vec<SinkFit>, fit: SinkFit, cap: usize) {
    let pos = best.partition_point(|b| b.residual <= fit.residual);
    if pos < cap {
        best.insert(pos, fit);
        best.truncate(cap);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fluxprint_fluxmodel::FluxModel;
    use fluxprint_geometry::Rect;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::Arc;

    fn objective_for(truth: &[(Point2, f64)]) -> FluxObjective {
        let field = Rect::square(30.0).unwrap();
        let model = FluxModel::default();
        let mut sniffers = Vec::new();
        for i in 0..8 {
            for j in 0..8 {
                sniffers.push(Point2::new(1.8 + i as f64 * 3.8, 1.8 + j as f64 * 3.8));
            }
        }
        let measured: Vec<f64> = sniffers
            .iter()
            .map(|&p| model.predict_superposed(truth, p, &field))
            .collect();
        FluxObjective::new(Arc::new(field), model, sniffers, measured).unwrap()
    }

    #[test]
    fn recovers_single_sink() {
        let truth = [(Point2::new(12.0, 17.0), 2.0)];
        let obj = objective_for(&truth);
        let mut rng = StdRng::seed_from_u64(1);
        let cfg = RandomSearchConfig {
            samples: 2000,
            top_m: 5,
        };
        let fits = random_search(&obj, 1, &cfg, &mut rng).unwrap();
        assert_eq!(fits.len(), 5);
        assert!(fits[0].positions[0].distance(truth[0].0) < 1.0);
        // Sorted by residual.
        for w in fits.windows(2) {
            assert!(w[0].residual <= w[1].residual + 1e-12);
        }
    }

    #[test]
    fn recovers_two_sinks_with_refinement() {
        let truth = [(Point2::new(8.0, 8.0), 2.0), (Point2::new(22.0, 22.0), 2.5)];
        let obj = objective_for(&truth);
        let mut rng = StdRng::seed_from_u64(2);
        let cfg = RandomSearchConfig {
            samples: 4000,
            top_m: 3,
        };
        let fits = random_search(&obj, 2, &cfg, &mut rng).unwrap();
        let best = &fits[0];
        // Identity-free check: each truth position matched by some estimate.
        for &(tp, _) in &truth {
            let nearest = best
                .positions
                .iter()
                .map(|p| p.distance(tp))
                .fold(f64::INFINITY, f64::min);
            assert!(
                nearest < 1.5,
                "true sink {tp} missed (nearest {nearest:.2})"
            );
        }
    }

    #[test]
    fn refinement_never_worsens_residual() {
        let truth = [(Point2::new(15.0, 10.0), 1.0)];
        let obj = objective_for(&truth);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..5 {
            let start = deployment::random_point(obj.boundary(), &mut rng);
            let fit = obj.evaluate(&[start]).unwrap();
            let refined = refine_fit(&obj, &fit, 400).unwrap();
            assert!(refined.residual <= fit.residual + 1e-9);
        }
    }

    #[test]
    fn bit_identical_across_thread_counts() {
        let truth = [(Point2::new(8.0, 8.0), 2.0), (Point2::new(22.0, 22.0), 2.5)];
        let obj = objective_for(&truth);
        let cfg = RandomSearchConfig {
            samples: 600,
            top_m: 4,
        };
        let run = |threads: usize| {
            let mut rng = StdRng::seed_from_u64(7);
            random_search_with(
                &obj,
                2,
                &cfg,
                &mut rng,
                &fluxprint_fluxpar::Pool::with_threads(threads),
            )
            .unwrap()
        };
        let single = run(1);
        for threads in [2, 8] {
            let multi = run(threads);
            assert_eq!(single.len(), multi.len(), "{threads} threads");
            for (a, b) in single.iter().zip(&multi) {
                assert_eq!(a.positions, b.positions, "{threads} threads");
                assert_eq!(
                    a.residual.to_bits(),
                    b.residual.to_bits(),
                    "{threads} threads"
                );
                for (qa, qb) in a.stretches.iter().zip(&b.stretches) {
                    assert_eq!(qa.to_bits(), qb.to_bits(), "{threads} threads");
                }
            }
        }
    }

    #[test]
    fn parameter_validation() {
        let obj = objective_for(&[(Point2::new(10.0, 10.0), 1.0)]);
        let mut rng = StdRng::seed_from_u64(4);
        assert!(matches!(
            random_search(&obj, 0, &RandomSearchConfig::default(), &mut rng),
            Err(SolverError::ZeroSinks)
        ));
        let bad = RandomSearchConfig {
            samples: 0,
            ..Default::default()
        };
        assert!(random_search(&obj, 1, &bad, &mut rng).is_err());
        let bad = RandomSearchConfig {
            top_m: 0,
            ..Default::default()
        };
        assert!(random_search(&obj, 1, &bad, &mut rng).is_err());
    }

    #[test]
    fn bounded_insert_keeps_best() {
        let fit = |r: f64| SinkFit {
            positions: vec![],
            stretches: vec![],
            residual: r,
        };
        let mut best = Vec::new();
        for r in [5.0, 1.0, 3.0, 2.0, 4.0] {
            insert_bounded(&mut best, fit(r), 3);
        }
        let residuals: Vec<f64> = best.iter().map(|f| f.residual).collect();
        assert_eq!(residuals, vec![1.0, 2.0, 3.0]);
    }
}
