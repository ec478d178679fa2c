//! Active-source detection and data association by forward selection.
//!
//! Each observation window, only the users that actually collected data
//! leave a flux signature (§4.E). Rather than fitting all `K` hypotheses
//! at once and reading the activity off small fitted stretches — which is
//! fragile, because residual model error happily fits a small positive
//! stretch onto idle users — the tracker selects sources *greedily*:
//!
//! 1. start from the empty model (residual `‖F′‖`);
//! 2. let every unselected user bid its best candidate conditioned on the
//!    sources selected so far — bids from motion-prior candidates are
//!    preferred, exploration (uniform recovery) bids are penalized by
//!    `1 / explore_accept_ratio`, so a tracked-but-idle user does not
//!    hijack another user's peak it could only reach by teleporting;
//! 3. accept the winning bid only if it improves the residual by at least
//!    `activity_min_gain`; stop otherwise.
//!
//! The selected users are this round's active set; everyone else gets the
//! paper's Null update (frozen samples, growing `Δt`).
//!
//! Candidate scans run against the per-window
//! [`ScoringCache`](fluxprint_solver::ScoringCache) — each probe is a
//! Gram-row insertion and an `O(k³)` solve instead of a dense refit —
//! fanned out on the deterministic worker pool. Selection order,
//! tie-breaks, and every returned float are bit-identical to the legacy
//! sequential column path at any thread count. [`associate`] is the one
//! entry point; its `seeded` flag only chooses how the cache's inner
//! solves start (see [`FluxObjective::scoring_cache`]), never which scans
//! run.

use fluxprint_fluxpar::Pool;
use fluxprint_geometry::Point2;
use fluxprint_solver::{CacheScratch, Conditioner, FluxObjective, ScoringCache, SinkFit, Slot};

use crate::{SmcConfig, SmcError};

/// Result of [`associate`].
#[derive(Debug, Clone)]
pub struct Association {
    /// Users detected as active this window, in selection order.
    pub selected: Vec<usize>,
    /// For each user: `Some(conditional residuals per candidate)` when the
    /// user was selected (the top-M ranking key), `None` otherwise.
    pub per_candidate_residual: Vec<Option<Vec<f64>>>,
    /// For each user: the chosen candidate index when selected.
    pub chosen: Vec<Option<usize>>,
    /// Whether each selected user's winning bid was an exploration
    /// candidate (admits exploration candidates into its top-M ranking).
    pub used_explore: Vec<bool>,
    /// Joint fit of the selected sources (positions in selection order).
    /// `None` when no source passed the gain test.
    pub fit: Option<SinkFit>,
}

/// One user's best bid this selection round.
#[derive(Debug, Clone, Copy)]
struct Bid {
    candidate: usize,
    residual: f64,
    effective: f64,
    explore: bool,
}

/// Detects active sources and associates them to users.
///
/// `candidates[i]` are user `i`'s predictions; `candidates[i][explore_from[i]..]`
/// are its exploration (uniform) candidates. Scans fan out on `pool`;
/// sequential dispatches reuse the caller's `scratch` (the scratch
/// contract guarantees reuse never changes results), so a shard worker
/// on a one-thread pool slice keeps its hot loop allocation-free, and
/// parallel dispatches use per-worker scratch.
///
/// The scoring cache is built into `scratch`'s recycled buffers and
/// handed back to it before returning, so a worker associating round
/// after round stops allocating for the build after its first. With
/// `seeded` every scan seeds the inner NNLS from the full support (the
/// warm path). Seeding is bit-transparent on non-degenerate fits — this
/// returns exactly what the cold call would — but the warm solve's KKT
/// fallback is the only *guaranteed* equivalence, so the engine keeps
/// the cold call as its oracle.
///
/// # Errors
///
/// Returns [`SmcError::ZeroUsers`] for empty candidate sets and
/// [`SmcError::BadConfig`] when `explore_from` does not have one entry
/// per user; solver failures propagate.
#[allow(clippy::too_many_arguments)]
pub fn associate(
    objective: &FluxObjective,
    candidates: &[Vec<Point2>],
    explore_from: &[usize],
    config: &SmcConfig,
    pool: &Pool,
    scratch: &mut CacheScratch,
    seeded: bool,
) -> Result<Association, SmcError> {
    if candidates.is_empty() || candidates.iter().any(Vec::is_empty) {
        return Err(SmcError::ZeroUsers);
    }
    let k = candidates.len();
    if explore_from.len() != k {
        return Err(SmcError::BadConfig {
            field: "explore_from",
        });
    }

    // Basis columns, projections, and norms once per candidate.
    let cache = objective.scoring_cache(candidates, pool, seeded, scratch);

    let mut selected: Vec<usize> = Vec::new();
    let mut chosen: Vec<Option<usize>> = vec![None; k];
    let mut used_explore = vec![false; k];
    let mut current_residual = objective.null_residual();
    let explore_penalty = 1.0 / config.explore_accept_ratio;

    while selected.len() < k {
        // Every unselected user bids its best candidate conditioned on the
        // already-selected sources. All bidders share one conditioner:
        // the bidder's column enters at slot 0, the selected sources
        // follow in selection order (the legacy column order).
        let base = selected_slots(&selected, &chosen);
        let cond = cache.conditioner(&base, 0);
        let mut best: Option<(usize, Bid)> = None;
        for i in 0..k {
            if chosen[i].is_some() {
                continue;
            }
            let bid = best_bid(
                &cache,
                &cond,
                i,
                explore_from[i],
                explore_penalty,
                config.explore_accept_ratio,
                pool,
                scratch,
            )?;
            if best
                .as_ref()
                .is_none_or(|(_, b)| bid.effective < b.effective)
            {
                best = Some((i, bid));
            }
        }
        let Some((winner, bid)) = best else { break };
        // Gain test: the new source must buy a real residual reduction —
        // and there must be residual left to explain (an exactly-explained
        // observation admits no further sources).
        if current_residual <= 0.0 || current_residual < bid.residual * config.activity_min_gain {
            break;
        }
        chosen[winner] = Some(bid.candidate);
        used_explore[winner] = bid.explore;
        selected.push(winner);
        current_residual = bid.residual;
    }

    if selected.is_empty() {
        cache.recycle(scratch);
        return Ok(Association {
            selected,
            per_candidate_residual: vec![None; k],
            chosen,
            used_explore,
            fit: None,
        });
    }

    // Final conditional scan per selected user (ranking key for top-M),
    // holding the other selected users at their chosen candidates.
    let mut per_candidate_residual: Vec<Option<Vec<f64>>> = vec![None; k];
    for &i in &selected {
        let limit = if used_explore[i] {
            candidates[i].len()
        } else {
            explore_from[i]
        };
        let others: Vec<Slot> = selected_slots(&selected, &chosen)
            .into_iter()
            .filter(|&(j, _)| j != i)
            .collect();
        let cond = cache.conditioner(&others, 0);
        let scanned: Result<Vec<f64>, SmcError> = pool
            .map_reusing(limit, scratch, CacheScratch::new, |scratch, c| {
                cache
                    .evaluate_conditioned(&cond, (i, c), scratch)
                    .map_err(SmcError::from)
            })
            .into_iter()
            .collect();
        let mut residuals = vec![f64::INFINITY; candidates[i].len()];
        for (c, r) in scanned?.into_iter().enumerate() {
            residuals[c] = r;
        }
        // Refresh the chosen candidate from the final scan.
        let best = (0..limit)
            .min_by(|&a, &b| residuals[a].total_cmp(&residuals[b]))
            // fluxlint: allow(no-panic) — limit >= explore_from >= 1 for selected users, so the range is never empty
            .expect("limit >= 1");
        chosen[i] = Some(best);
        per_candidate_residual[i] = Some(residuals);
    }

    let positions: Vec<Point2> = selected
        .iter()
        // fluxlint: allow(no-panic) — every selected user has chosen set by the auction above
        .map(|&i| candidates[i][chosen[i].expect("selected")])
        .collect();
    cache.recycle(scratch);
    let fit = objective.evaluate(&positions)?;
    Ok(Association {
        selected,
        per_candidate_residual,
        chosen,
        used_explore,
        fit: Some(fit),
    })
}

/// The selected users' chosen slots, in selection order.
fn selected_slots(selected: &[usize], chosen: &[Option<usize>]) -> Vec<Slot> {
    selected
        .iter()
        .map(|&j| {
            // fluxlint: allow(no-panic) — the auction sets chosen[j] before pushing j into selected
            let c = chosen[j].expect("selected users have chosen candidates");
            (j, c)
        })
        .collect()
}

/// Scans user `i`'s candidates conditioned on the selected sources (in
/// parallel) and returns its admissible bid.
#[allow(clippy::too_many_arguments)]
fn best_bid(
    cache: &ScoringCache,
    cond: &Conditioner,
    i: usize,
    explore_from: usize,
    explore_penalty: f64,
    explore_accept_ratio: f64,
    pool: &Pool,
    scratch: &mut CacheScratch,
) -> Result<Bid, SmcError> {
    let scanned: Result<Vec<f64>, SmcError> = pool
        .map_reusing(cache.size(i), scratch, CacheScratch::new, |scratch, c| {
            cache
                .evaluate_conditioned(cond, (i, c), scratch)
                .map_err(SmcError::from)
        })
        .into_iter()
        .collect();
    let mut best_prior: Option<(usize, f64)> = None;
    let mut best_explore: Option<(usize, f64)> = None;
    for (c, r) in scanned?.into_iter().enumerate() {
        let slot = if c < explore_from {
            &mut best_prior
        } else {
            &mut best_explore
        };
        if slot.is_none_or(|(_, br)| r < br) {
            *slot = Some((c, r));
        }
    }
    // A fully-uniform (uninitialized) user has no prior candidates; its
    // "explore" bid carries no penalty because there is no motion prior to
    // violate.
    Ok(match (best_prior, best_explore) {
        (None, Some((c, r))) => Bid {
            candidate: c,
            residual: r,
            effective: r,
            explore: true,
        },
        (Some((c, r)), None) => Bid {
            candidate: c,
            residual: r,
            effective: r,
            explore: false,
        },
        (Some((cp, rp)), Some((ce, re))) => {
            if re < explore_accept_ratio * rp {
                Bid {
                    candidate: ce,
                    residual: re,
                    effective: re * explore_penalty,
                    explore: true,
                }
            } else {
                Bid {
                    candidate: cp,
                    residual: rp,
                    effective: rp,
                    explore: false,
                }
            }
        }
        // An empty candidate set would leave both branches unset; treat it
        // as the invalid-input error it is rather than aborting.
        (None, None) => return Err(SmcError::ZeroUsers),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fluxprint_fluxmodel::FluxModel;
    use fluxprint_geometry::Rect;
    use std::sync::Arc;

    /// A cold association on `pool` with the default configuration.
    fn associate_on(
        pool: &Pool,
        objective: &FluxObjective,
        candidates: &[Vec<Point2>],
        explore_from: &[usize],
    ) -> Result<Association, SmcError> {
        let config = SmcConfig::default();
        let mut scratch = CacheScratch::new();
        associate(
            objective,
            candidates,
            explore_from,
            &config,
            pool,
            &mut scratch,
            false,
        )
    }

    fn cold(
        objective: &FluxObjective,
        candidates: &[Vec<Point2>],
        explore_from: &[usize],
    ) -> Result<Association, SmcError> {
        associate_on(
            fluxprint_fluxpar::pool(),
            objective,
            candidates,
            explore_from,
        )
    }

    fn objective_for(truth: &[(Point2, f64)]) -> FluxObjective {
        let field = Rect::square(30.0).unwrap();
        let model = FluxModel::default();
        let mut sniffers = Vec::new();
        for i in 0..7 {
            for j in 0..7 {
                sniffers.push(Point2::new(2.0 + i as f64 * 4.3, 2.0 + j as f64 * 4.3));
            }
        }
        let measured: Vec<f64> = sniffers
            .iter()
            .map(|&p| model.predict_superposed(truth, p, &field))
            .collect();
        FluxObjective::new(Arc::new(field), model, sniffers, measured).unwrap()
    }

    #[test]
    fn single_active_source_selected() {
        let obj = objective_for(&[(Point2::new(8.0, 8.0), 2.0)]);
        // User 0's prior covers the source; user 1's prior is far away.
        let candidates = vec![
            vec![Point2::new(8.0, 8.0), Point2::new(10.0, 9.0)],
            vec![Point2::new(22.0, 21.0), Point2::new(20.0, 19.0)],
        ];
        let a = cold(&obj, &candidates, &[2, 2]).unwrap();
        assert_eq!(a.selected, vec![0]);
        assert!(a.chosen[0].is_some());
        assert!(a.chosen[1].is_none());
        assert!(a.per_candidate_residual[1].is_none());
        assert!(a.fit.is_some());
    }

    #[test]
    fn idle_user_does_not_steal_via_explore() {
        // Flux comes from user 0's position. User 1's *explore* candidate
        // sits right on it, but user 0's prior already explains the flux,
        // so user 1 must not be selected.
        let obj = objective_for(&[(Point2::new(8.0, 8.0), 2.0)]);
        let candidates = vec![
            vec![Point2::new(8.0, 8.0), Point2::new(9.0, 7.0)],
            // First candidate is user 1's motion prior (far away), the
            // second is an exploration candidate on top of the source.
            vec![Point2::new(22.0, 21.0), Point2::new(8.0, 8.0)],
        ];
        let a = cold(&obj, &candidates, &[2, 1]).unwrap();
        assert_eq!(a.selected, vec![0], "user 1 stole the source");
    }

    #[test]
    fn lost_user_recovers_via_explore() {
        // Flux comes from (22, 21); user 0's prior is mislocalized and no
        // other user explains it — the exploration candidate must win.
        let obj = objective_for(&[(Point2::new(22.0, 21.0), 2.0)]);
        let candidates = vec![vec![
            Point2::new(8.0, 8.0),
            Point2::new(9.0, 9.0),
            Point2::new(22.0, 21.0), // exploration
        ]];
        let a = cold(&obj, &candidates, &[2]).unwrap();
        assert_eq!(a.selected, vec![0]);
        assert_eq!(a.chosen[0], Some(2));
        assert!(a.used_explore[0]);
    }

    #[test]
    fn two_simultaneous_sources_both_selected() {
        let obj = objective_for(&[(Point2::new(8.0, 8.0), 2.0), (Point2::new(22.0, 21.0), 2.5)]);
        let candidates = vec![
            vec![Point2::new(8.0, 8.0), Point2::new(12.0, 12.0)],
            vec![Point2::new(22.0, 21.0), Point2::new(18.0, 18.0)],
        ];
        let a = cold(&obj, &candidates, &[2, 2]).unwrap();
        let mut sel = a.selected.clone();
        sel.sort_unstable();
        assert_eq!(sel, vec![0, 1]);
        assert_eq!(a.chosen[0], Some(0));
        assert_eq!(a.chosen[1], Some(0));
        let fit = a.fit.unwrap();
        assert!(fit.stretches.iter().all(|&q| q > 0.5));
    }

    #[test]
    fn silence_selects_no_one() {
        let field = Rect::square(30.0).unwrap();
        let model = FluxModel::default();
        let sniffers = vec![Point2::new(5.0, 5.0), Point2::new(25.0, 25.0)];
        let obj = FluxObjective::new(Arc::new(field), model, sniffers, vec![0.0, 0.0]).unwrap();
        let candidates = vec![vec![Point2::new(8.0, 8.0)]];
        let a = cold(&obj, &candidates, &[1]).unwrap();
        assert!(a.selected.is_empty());
        assert!(a.fit.is_none());
    }

    #[test]
    fn empty_candidates_rejected() {
        let obj = objective_for(&[(Point2::new(8.0, 8.0), 2.0)]);
        assert!(matches!(cold(&obj, &[], &[]), Err(SmcError::ZeroUsers)));
        assert!(matches!(
            cold(&obj, &[vec![]], &[0]),
            Err(SmcError::ZeroUsers)
        ));
        // `explore_from` must have one entry per user.
        assert!(matches!(
            cold(&obj, &[vec![Point2::new(8.0, 8.0)]], &[1, 1]),
            Err(SmcError::BadConfig {
                field: "explore_from"
            })
        ));
    }

    /// Three users with 200 candidates each (the last 20 exploration),
    /// each led by its true source: enough candidates for the chunked
    /// cache build to split at 2 and 8 threads.
    fn large_instance() -> (FluxObjective, Vec<Vec<Point2>>, Vec<usize>) {
        let truth = [
            (Point2::new(8.0, 8.0), 2.0),
            (Point2::new(22.0, 21.0), 2.5),
            (Point2::new(15.0, 26.0), 1.5),
        ];
        let candidates = truth
            .iter()
            .enumerate()
            .map(|(u, &(source, _))| {
                let mut set = vec![source];
                set.extend((1..200).map(|c| {
                    let t = (u * 200 + c) as f64;
                    Point2::new(
                        15.0 + 14.0 * (t * 0.37).sin(),
                        15.0 + 14.0 * (t * 0.61).cos(),
                    )
                }));
                set
            })
            .collect();
        (objective_for(&truth), candidates, vec![180; 3])
    }

    #[test]
    fn association_is_identical_across_thread_counts() {
        let small = (
            objective_for(&[(Point2::new(8.0, 8.0), 2.0), (Point2::new(22.0, 21.0), 2.5)]),
            vec![
                vec![
                    Point2::new(8.0, 8.0),
                    Point2::new(12.0, 12.0),
                    Point2::new(6.0, 10.0),
                    Point2::new(14.0, 4.0), // exploration
                ],
                vec![
                    Point2::new(22.0, 21.0),
                    Point2::new(18.0, 18.0),
                    Point2::new(25.0, 17.0),
                    Point2::new(4.0, 26.0), // exploration
                ],
            ],
            vec![3, 3],
        );
        for (obj, candidates, explore_from) in [small, large_instance()] {
            let reference =
                associate_on(&Pool::with_threads(1), &obj, &candidates, &explore_from).unwrap();
            for threads in [2usize, 8] {
                let pool = Pool::with_threads(threads);
                let got = associate_on(&pool, &obj, &candidates, &explore_from).unwrap();
                assert_eq!(got.selected, reference.selected, "threads={threads}");
                assert_eq!(got.chosen, reference.chosen);
                assert_eq!(got.used_explore, reference.used_explore);
                for (a, b) in got
                    .per_candidate_residual
                    .iter()
                    .zip(&reference.per_candidate_residual)
                {
                    match (a, b) {
                        (Some(ra), Some(rb)) => {
                            for (x, y) in ra.iter().zip(rb) {
                                assert_eq!(x.to_bits(), y.to_bits(), "threads={threads}");
                            }
                        }
                        (None, None) => {}
                        _ => panic!("per-candidate shape diverged at {threads} threads"),
                    }
                }
                let (fa, fb) = (got.fit.unwrap(), reference.fit.clone().unwrap());
                assert_eq!(fa.residual.to_bits(), fb.residual.to_bits());
                assert_eq!(fa.stretches, fb.stretches);
            }
        }
    }
}
