//! Identity-free error metrics.
//!
//! The adversary's estimates carry no user labels — Figure 7(d) shows the
//! tracker may swap identities when trajectories cross while still
//! reporting correct *positions*. Errors are therefore scored through a
//! minimum-cost matching between estimates and ground truth.

use fluxprint_geometry::Point2;
use fluxprint_linalg::Matrix;
use fluxprint_solver::min_cost_assignment;

use crate::CoreError;

/// Matches each estimate to a distinct ground-truth position (Hungarian on
/// the distance matrix) and returns the matched distances, one per
/// estimate.
///
/// When counts differ, the smaller side is matched completely and the
/// surplus of the larger side is ignored.
///
/// # Errors
///
/// Returns [`CoreError::BadConfig`] when either side is empty.
pub fn matched_errors(estimates: &[Point2], truths: &[Point2]) -> Result<Vec<f64>, CoreError> {
    if estimates.is_empty() || truths.is_empty() {
        return Err(CoreError::BadConfig {
            field: "matched_errors inputs",
        });
    }
    // Hungarian needs rows ≤ cols; orient the matrix accordingly
    // (distances are symmetric, so the orientation doesn't change costs).
    let (rows, cols) = if estimates.len() <= truths.len() {
        (estimates, truths)
    } else {
        (truths, estimates)
    };
    let mut cost = Matrix::zeros(rows.len(), cols.len());
    for (i, &r) in rows.iter().enumerate() {
        for (j, &c) in cols.iter().enumerate() {
            cost[(i, j)] = r.distance(c);
        }
    }
    let assignment = min_cost_assignment(&cost)?;
    Ok(assignment
        .iter()
        .enumerate()
        .map(|(i, &j)| cost[(i, j)])
        .collect())
}

/// Mean matched error — the per-case "average error" the paper reports.
///
/// # Errors
///
/// Same as [`matched_errors`].
pub fn mean_matched_error(estimates: &[Point2], truths: &[Point2]) -> Result<f64, CoreError> {
    let errs = matched_errors(estimates, truths)?;
    Ok(errs.iter().sum::<f64>() / errs.len() as f64)
}

/// The label permutation that optimally matches `estimates` to `truths`
/// (both sides must have equal length): `perm[i]` is the truth index
/// assigned to estimate `i`.
///
/// # Errors
///
/// Returns [`CoreError::BadConfig`] for empty or unequal-length inputs.
pub fn optimal_labeling(estimates: &[Point2], truths: &[Point2]) -> Result<Vec<usize>, CoreError> {
    if estimates.is_empty() || estimates.len() != truths.len() {
        return Err(CoreError::BadConfig {
            field: "optimal_labeling inputs",
        });
    }
    let n = estimates.len();
    let mut cost = Matrix::zeros(n, n);
    for (i, &e) in estimates.iter().enumerate() {
        for (j, &t) in truths.iter().enumerate() {
            cost[(i, j)] = e.distance(t);
        }
    }
    Ok(min_cost_assignment(&cost)?)
}

/// Mean matched error over a whole trajectory: each round's estimates
/// are matched to that round's ground truth ([`mean_matched_error`]) and
/// the per-round means are averaged. This is the accuracy KPI the
/// experiment registry gates on — one scalar per run, identity-free,
/// deterministic for a fixed seed.
///
/// Rounds where either side is empty are skipped (a round with no truth
/// carries no accuracy information); `NaN` is returned when *no* round
/// was scorable, so callers can distinguish "perfect" from "unmeasured".
///
/// # Errors
///
/// Propagates [`matched_errors`] failures from the assignment solver.
pub fn mean_trajectory_error(rounds: &[(Vec<Point2>, Vec<Point2>)]) -> Result<f64, CoreError> {
    let mut sum = 0.0;
    let mut scored = 0usize;
    for (estimates, truths) in rounds {
        if estimates.is_empty() || truths.is_empty() {
            continue;
        }
        sum += mean_matched_error(estimates, truths)?;
        scored += 1;
    }
    if scored == 0 {
        return Ok(f64::NAN);
    }
    Ok(sum / scored as f64)
}

/// Counts identity swaps across a sequence of rounds: the number of times
/// the optimal estimate→truth labeling changes between consecutive rounds.
///
/// Figure 7(d)'s observation — "our algorithm … can only detect the
/// locations of them but cannot distinguish their identities" at
/// trajectory crossings — made quantitative: a crossing typically shows up
/// as one labeling change.
///
/// Rounds with empty or mismatched estimate/truth lengths are skipped.
pub fn count_identity_swaps(rounds: &[(Vec<Point2>, Vec<Point2>)]) -> usize {
    let mut swaps = 0;
    let mut last: Option<Vec<usize>> = None;
    for (estimates, truths) in rounds {
        let Ok(labeling) = optimal_labeling(estimates, truths) else {
            continue;
        };
        if let Some(prev) = &last {
            if *prev != labeling {
                swaps += 1;
            }
        }
        last = Some(labeling);
    }
    swaps
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_estimates_have_zero_error() {
        let truths = [Point2::new(1.0, 1.0), Point2::new(5.0, 5.0)];
        let errs = matched_errors(&truths, &truths).unwrap();
        assert_eq!(errs, vec![0.0, 0.0]);
    }

    #[test]
    fn identity_swap_is_not_penalized() {
        // Estimates are the truths with labels swapped: matching fixes it.
        let truths = [Point2::new(1.0, 1.0), Point2::new(9.0, 9.0)];
        let estimates = [Point2::new(9.0, 9.0), Point2::new(1.0, 1.0)];
        let errs = matched_errors(&estimates, &truths).unwrap();
        assert_eq!(errs, vec![0.0, 0.0]);
    }

    #[test]
    fn matching_is_globally_optimal() {
        let truths = [Point2::new(0.0, 0.0), Point2::new(4.0, 0.0)];
        let estimates = [Point2::new(1.0, 0.0), Point2::new(-1.0, 0.0)];
        // Optimal total: e0→t1 (3) + e1→t0 (1) = 4, beating the greedy
        // e0→t0 (1) + e1→t1 (5) = 6.
        let errs = matched_errors(&estimates, &truths).unwrap();
        let total: f64 = errs.iter().sum();
        assert!((total - 4.0).abs() < 1e-9, "total {total}");
    }

    #[test]
    fn unequal_sizes_match_smaller_side() {
        let truths = [
            Point2::new(0.0, 0.0),
            Point2::new(10.0, 0.0),
            Point2::new(20.0, 0.0),
        ];
        let estimates = [Point2::new(10.5, 0.0)];
        let errs = matched_errors(&estimates, &truths).unwrap();
        assert_eq!(errs.len(), 1);
        assert!((errs[0] - 0.5).abs() < 1e-9);
        // And the transposed orientation.
        let errs = matched_errors(&truths, &estimates).unwrap();
        assert_eq!(errs.len(), 1);
        assert!((errs[0] - 0.5).abs() < 1e-9);
    }

    #[test]
    fn mean_aggregates() {
        let truths = [Point2::new(0.0, 0.0), Point2::new(10.0, 0.0)];
        let estimates = [Point2::new(1.0, 0.0), Point2::new(13.0, 0.0)];
        assert!((mean_matched_error(&estimates, &truths).unwrap() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn empty_inputs_rejected() {
        assert!(matched_errors(&[], &[Point2::ORIGIN]).is_err());
        assert!(matched_errors(&[Point2::ORIGIN], &[]).is_err());
    }

    #[test]
    fn labeling_identifies_swap() {
        let truths = vec![Point2::new(0.0, 0.0), Point2::new(10.0, 0.0)];
        let direct = vec![Point2::new(0.5, 0.0), Point2::new(9.5, 0.0)];
        let swapped = vec![Point2::new(9.5, 0.0), Point2::new(0.5, 0.0)];
        assert_eq!(optimal_labeling(&direct, &truths).unwrap(), vec![0, 1]);
        assert_eq!(optimal_labeling(&swapped, &truths).unwrap(), vec![1, 0]);
        assert!(optimal_labeling(&[], &[]).is_err());
        assert!(optimal_labeling(&direct, &truths[..1]).is_err());
    }

    #[test]
    fn trajectory_error_averages_scorable_rounds_only() {
        let t = vec![Point2::new(0.0, 0.0), Point2::new(10.0, 0.0)];
        let rounds = vec![
            (
                vec![Point2::new(1.0, 0.0), Point2::new(10.0, 0.0)], // mean 0.5
                t.clone(),
            ),
            (vec![], t.clone()), // skipped
            (
                vec![Point2::new(0.0, 0.0), Point2::new(11.5, 0.0)], // mean 0.75
                t.clone(),
            ),
        ];
        let err = mean_trajectory_error(&rounds).unwrap();
        assert!((err - 0.625).abs() < 1e-12, "err {err}");
        assert!(mean_trajectory_error(&[]).unwrap().is_nan());
    }

    #[test]
    fn swap_counting_over_rounds() {
        let t = vec![Point2::new(0.0, 0.0), Point2::new(10.0, 0.0)];
        let near = vec![Point2::new(1.0, 0.0), Point2::new(9.0, 0.0)];
        let crossed = vec![Point2::new(9.0, 0.0), Point2::new(1.0, 0.0)];
        let rounds = vec![
            (near.clone(), t.clone()),
            (near.clone(), t.clone()),
            (crossed.clone(), t.clone()), // swap here
            (crossed.clone(), t.clone()),
            (near.clone(), t.clone()), // swap back
        ];
        assert_eq!(count_identity_swaps(&rounds), 2);
        assert_eq!(count_identity_swaps(&[]), 0);
    }
}
