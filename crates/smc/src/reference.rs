//! The pre-cache combination filter, retained verbatim as an oracle.
//!
//! This is the legacy column-path implementation of the §4.C filter: every
//! combination rebuilds an `n × k` design matrix through
//! [`FluxObjective::evaluate_columns`] and runs a fresh dense NNLS. The
//! production filter ([`crate::filter_candidates`]) answers the same
//! queries from a per-window [`ScoringCache`](fluxprint_solver::ScoringCache)
//! and must stay **bit-identical** to this module at any thread count —
//! the `filtering` tests diff the two paths field by field. The module is
//! compiled for tests only.

use fluxprint_geometry::Point2;
use fluxprint_solver::{FluxObjective, SinkFit};

use crate::filtering::{CandidateScores, FilterStrategy};
use crate::{SmcConfig, SmcError};

/// Sequential column-path twin of [`crate::filter_candidates`].
///
/// # Errors
///
/// As for [`crate::filter_candidates`].
pub fn filter_candidates_reference(
    objective: &FluxObjective,
    candidates: &[Vec<Point2>],
    seeds: &[Option<usize>],
    config: &SmcConfig,
) -> Result<CandidateScores, SmcError> {
    if candidates.is_empty() || candidates.iter().any(Vec::is_empty) {
        return Err(SmcError::ZeroUsers);
    }
    let k = candidates.len();

    // Basis columns once per candidate; combinations only recombine them.
    let columns: Vec<Vec<Vec<f64>>> = candidates
        .iter()
        .map(|set| set.iter().map(|&p| objective.basis_column(p)).collect())
        .collect();

    let total: usize = candidates
        .iter()
        .map(Vec::len)
        .try_fold(1usize, |acc, n| acc.checked_mul(n))
        .unwrap_or(usize::MAX);

    if total <= config.exact_enumeration_cap {
        exact_enumeration(objective, candidates, &columns, k)
    } else {
        greedy_descent(
            objective,
            candidates,
            &columns,
            seeds,
            k,
            config.coordinate_sweeps,
        )
    }
}

fn evaluate_combo(
    objective: &FluxObjective,
    candidates: &[Vec<Point2>],
    columns: &[Vec<Vec<f64>>],
    combo: &[usize],
) -> Result<SinkFit, SmcError> {
    let sinks: Vec<Point2> = combo
        .iter()
        .enumerate()
        .map(|(i, &c)| candidates[i][c])
        .collect();
    let cols: Vec<&[f64]> = combo
        .iter()
        .enumerate()
        .map(|(i, &c)| columns[i][c].as_slice())
        .collect();
    Ok(objective.evaluate_columns(&sinks, &cols)?)
}

fn exact_enumeration(
    objective: &FluxObjective,
    candidates: &[Vec<Point2>],
    columns: &[Vec<Vec<f64>>],
    k: usize,
) -> Result<CandidateScores, SmcError> {
    let sizes: Vec<usize> = candidates.iter().map(Vec::len).collect();
    let mut per_candidate_residual: Vec<Vec<f64>> =
        sizes.iter().map(|&n| vec![f64::INFINITY; n]).collect();
    let mut combo = vec![0usize; k];
    let mut best: Option<(Vec<usize>, SinkFit)> = None;
    loop {
        let fit = evaluate_combo(objective, candidates, columns, &combo)?;
        for (i, &c) in combo.iter().enumerate() {
            if fit.residual < per_candidate_residual[i][c] {
                per_candidate_residual[i][c] = fit.residual;
            }
        }
        if best.as_ref().is_none_or(|(_, b)| fit.residual < b.residual) {
            best = Some((combo.clone(), fit));
        }
        // Advance the multi-index.
        let mut dim = 0;
        loop {
            combo[dim] += 1;
            if combo[dim] < sizes[dim] {
                break;
            }
            combo[dim] = 0;
            dim += 1;
            if dim == k {
                // Candidate sets were validated non-empty on entry, so at
                // least one combination was evaluated.
                let Some((best_combination, best_fit)) = best else {
                    return Err(SmcError::ZeroUsers);
                };
                return Ok(CandidateScores {
                    per_candidate_residual,
                    best_combination,
                    best_fit,
                    strategy: FilterStrategy::Exact,
                });
            }
        }
    }
}

fn greedy_descent(
    objective: &FluxObjective,
    candidates: &[Vec<Point2>],
    columns: &[Vec<Vec<f64>>],
    seeds: &[Option<usize>],
    k: usize,
    sweeps: usize,
) -> Result<CandidateScores, SmcError> {
    let sizes: Vec<usize> = candidates.iter().map(Vec::len).collect();
    // Initialize each seeded user at its seed (its motion-consistent
    // position); unseeded users fall back to their best single-sink fit —
    // a biased but cheap start the sweeps then repair jointly.
    let mut incumbents = vec![0usize; k];
    for i in 0..k {
        if let Some(&Some(seed)) = seeds.get(i) {
            incumbents[i] = seed.min(sizes[i] - 1);
            continue;
        }
        let mut best_res = f64::INFINITY;
        for c in 0..sizes[i] {
            let fit =
                objective.evaluate_columns(&[candidates[i][c]], &[columns[i][c].as_slice()])?;
            if fit.residual < best_res {
                best_res = fit.residual;
                incumbents[i] = c;
            }
        }
    }

    let mut per_candidate_residual: Vec<Vec<f64>> =
        sizes.iter().map(|&n| vec![f64::INFINITY; n]).collect();
    for sweep in 0..sweeps {
        for i in 0..k {
            // The final sweep's conditional residuals are the ranking key,
            // so reset this user's scores each sweep.
            if sweep + 1 == sweeps {
                per_candidate_residual[i]
                    .iter_mut()
                    .for_each(|r| *r = f64::INFINITY);
            }
            let mut combo = incumbents.clone();
            let mut best_c = incumbents[i];
            let mut best_res = f64::INFINITY;
            for c in 0..sizes[i] {
                combo[i] = c;
                let fit = evaluate_combo(objective, candidates, columns, &combo)?;
                if fit.residual < per_candidate_residual[i][c] {
                    per_candidate_residual[i][c] = fit.residual;
                }
                if fit.residual < best_res {
                    best_res = fit.residual;
                    best_c = c;
                }
            }
            incumbents[i] = best_c;
        }
    }
    let best_fit = evaluate_combo(objective, candidates, columns, &incumbents)?;
    Ok(CandidateScores {
        per_candidate_residual,
        best_combination: incumbents,
        best_fit,
        strategy: FilterStrategy::Greedy,
    })
}
