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
//!    `1 / EXPLORE_ACCEPT_RATIO`, so a tracked-but-idle user does not
//!    hijack another user's peak it could only reach by teleporting;
//! 3. accept the winning bid only if it improves the residual by at least
//!    [`ACTIVITY_MIN_GAIN`]; stop otherwise.
//!
//! The selected users are this round's active set; everyone else gets the
//! paper's Null update (frozen samples, growing `Δt`).
//!
//! Candidate scans run against the per-window
//! [`ScoringCache`](fluxprint_solver::ScoringCache) — each probe is a
//! Gram-row insertion and an `O(k³)` solve instead of a dense refit —
//! through its screened scan,
//! [`ScoringCache::scan_conditioned`]. A bid reads only the argmin of each
//! candidate class, so each class is a scan cut at 1; a final scan feeds
//! the tracker's top-`keep_m` ranking, so it is cut at `keep_m`. Every
//! probe that can make its cut gets the exact residual, bit-identical to
//! the dense column path (the scoring cache's
//! `conditioned_eval_is_bit_identical_to_column_path` test); the rest
//! read `+∞` and provably cannot make it
//! (`screened_scans_rank_like_exhaustive_ones` below). The joint fit of
//! the selected sources comes from the same cache as one exact
//! evaluation ([`ScoringCache::joint_fit`]), bit-identical to the dense
//! [`FluxObjective::evaluate`] on their positions. Selection order,
//! tie-breaks and every returned float are identical at any thread count
//! (`association_is_identical_across_thread_counts` below). [`associate`]
//! is the one entry point, and every exact evaluation it runs is the cold
//! NNLS solve, in warm rounds too.

use std::ops::Range;

use fluxprint_fluxpar::Pool;
use fluxprint_geometry::Point2;
use fluxprint_solver::{CacheScratch, Conditioner, FluxObjective, ScoringCache, SinkFit, Slot};

use crate::{SmcConfig, SmcError, ACTIVITY_MIN_GAIN, EXPLORE_ACCEPT_RATIO};

/// Result of [`associate`].
#[derive(Debug, Clone)]
pub struct Association {
    /// Users detected as active this window, in selection order.
    pub selected: Vec<usize>,
    /// For each user: `Some(conditional residuals per candidate)` when the
    /// user was selected (the top-M ranking key), `None` otherwise. An
    /// entry is `+∞` when screening spared that candidate its exact
    /// evaluation, or when it lies outside the user's admissible range;
    /// such a candidate never ranks in the top `keep_m` (ties by index,
    /// as a stable sort breaks them).
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
/// after round stops allocating for the build after its first.
///
/// # Errors
///
/// Returns [`SmcError::ZeroUsers`] for empty candidate sets and
/// [`SmcError::BadConfig`] when `explore_from` does not have one entry
/// per user; solver failures propagate.
pub fn associate(
    objective: &FluxObjective,
    candidates: &[Vec<Point2>],
    explore_from: &[usize],
    config: &SmcConfig,
    pool: &Pool,
    scratch: &mut CacheScratch,
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
    let cache = objective.scoring_cache(candidates, pool, scratch);

    let mut selected: Vec<usize> = Vec::new();
    let mut chosen: Vec<Option<usize>> = vec![None; k];
    let mut used_explore = vec![false; k];
    let mut current_residual = objective.null_residual();

    while selected.len() < k {
        // Every unselected user bids its best candidate conditioned on the
        // already-selected sources. All bidders share one conditioner:
        // the bidder's column comes first, the selected sources follow
        // in selection order.
        let base = selected_slots(&selected, &chosen);
        let cond = cache.conditioner(&base);
        let mut best: Option<(usize, Bid)> = None;
        for i in 0..k {
            if chosen[i].is_some() {
                continue;
            }
            let bid = best_bid(&cache, &cond, i, explore_from[i], pool, scratch)?;
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
        if current_residual <= 0.0 || current_residual < bid.residual * ACTIVITY_MIN_GAIN {
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
        let cond = cache.conditioner(&others);
        let scanned = cache.scan_conditioned(&cond, i, 0..limit, config.keep_m, pool, scratch)?;
        let mut residuals = vec![f64::INFINITY; candidates[i].len()];
        residuals[..limit].copy_from_slice(scanned);
        // Refresh the chosen candidate from the final scan.
        let best = (0..limit)
            .min_by(|&a, &b| residuals[a].total_cmp(&residuals[b]))
            // fluxlint: allow(no-panic) — limit >= explore_from >= 1 for selected users, so the range is never empty
            .expect("limit >= 1");
        chosen[i] = Some(best);
        per_candidate_residual[i] = Some(residuals);
    }

    // The joint fit of the selected sources, in selection order.
    let fit = cache.joint_fit(&selected_slots(&selected, &chosen), scratch)?;
    cache.recycle(scratch);
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
fn best_bid(
    cache: &ScoringCache,
    cond: &Conditioner,
    i: usize,
    explore_from: usize,
    pool: &Pool,
    scratch: &mut CacheScratch,
) -> Result<Bid, SmcError> {
    // Each class's argmin, first minimum on ties: a scan cut at 1.
    let mut class_best = |range: Range<usize>| -> Result<Option<(usize, f64)>, SmcError> {
        let scanned = cache.scan_conditioned(cond, i, range.clone(), 1, pool, scratch)?;
        let mut best: Option<(usize, f64)> = None;
        for (c, &r) in range.zip(scanned) {
            if best.is_none_or(|(_, br)| r < br) {
                best = Some((c, r));
            }
        }
        Ok(best)
    };
    let split = explore_from.min(cache.size(i));
    let best_prior = class_best(0..split)?;
    let best_explore = class_best(split..cache.size(i))?;
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
            if re < EXPLORE_ACCEPT_RATIO * rp {
                Bid {
                    candidate: ce,
                    residual: re,
                    effective: re * (1.0 / EXPLORE_ACCEPT_RATIO),
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
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::sync::Arc;

    /// An association on `pool` with the default configuration.
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

    /// The tracker's reading of a final scan: stable sort by `total_cmp`,
    /// cut at `keep`.
    fn tracker_order(residuals: &[f64], keep: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..residuals.len()).collect();
        order.sort_by(|&a, &b| residuals[a].total_cmp(&residuals[b]));
        order.truncate(keep);
        order
    }

    /// A bid's reading of one class: the strict-`<` argmin, first
    /// minimum on ties.
    fn first_min(residuals: &[f64]) -> Option<(usize, u64)> {
        let mut best: Option<(usize, f64)> = None;
        for (c, &r) in residuals.iter().enumerate() {
            if best.is_none_or(|(_, br)| r < br) {
                best = Some((c, r));
            }
        }
        best.map(|(c, r)| (c, r.to_bits()))
    }

    /// Flux from `users` random sources with relative noise `noise`, on
    /// the 7×7 sniffer grid, and 40 candidates per user: 30 random
    /// spots, the true source and a point 1 cm from it, then three
    /// copies of the source and five of random spots, so exact ties
    /// straddle every cut.
    fn screening_instance(
        seed: u64,
        users: usize,
        noise: f64,
    ) -> (FluxObjective, Vec<Vec<Point2>>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let spot =
            |rng: &mut StdRng| Point2::new(rng.gen_range(1.0..29.0), rng.gen_range(1.0..29.0));
        let truth: Vec<(Point2, f64)> = (0..users)
            .map(|_| (spot(&mut rng), rng.gen_range(0.5..3.0)))
            .collect();
        let clean = objective_for(&truth);
        let noisy: Vec<f64> = clean
            .measurements()
            .iter()
            .map(|m| m * (1.0 + noise * rng.gen_range(-1.0..1.0)))
            .collect();
        let candidates = truth
            .iter()
            .map(|&(source, _)| {
                let mut set: Vec<Point2> = (0..30).map(|_| spot(&mut rng)).collect();
                set.extend([source, Point2::new(source.x + 0.01, source.y)]);
                set.extend([source; 3]);
                let copies: Vec<Point2> = (0..5).map(|j| set[j * 6]).collect();
                set.extend(copies);
                set
            })
            .collect();
        (clean.with_measurements(noisy).unwrap(), candidates)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// A screened scan ranks exactly like an exhaustive scan of
        /// `evaluate_conditioned`: the same argmin per bid class, the
        /// same first `keep` candidates in the tracker's order with the
        /// same bits, `+∞` only where the exhaustive scan would not
        /// rank, and the same bits at 1, 2 and 8 threads, with exact ties
        /// from duplicate candidates.
        #[test]
        fn screened_scans_rank_like_exhaustive_ones(
            seed in 0u64..u64::MAX,
            users in 1usize..=3,
            noise in 0usize..2,
            keep in 1usize..=12,
        ) {
            let (obj, cands) = screening_instance(seed, users, [0.0, 0.05][noise]);
            let mut build = CacheScratch::new();
            let cache = obj.scoring_cache(&cands, &Pool::with_threads(1), &mut build);
            let mut scratch = CacheScratch::new();
            let size = cands[0].len();
            let split = size - 8;
            let mut spared = 0;
            for user in 0..users {
                // The base: the other users on their true sources, in
                // index order, at every size.
                let others: Vec<Slot> = (0..users).filter(|&u| u != user).map(|u| (u, 30)).collect();
                for kb in 0..=others.len() {
                    let cond = cache.conditioner(&others[..kb]);
                    let exhaustive: Vec<f64> = (0..size)
                        .map(|c| cache.evaluate_conditioned(&cond, (user, c), &mut scratch).unwrap())
                        .collect();
                    let ranked = tracker_order(&exhaustive, keep);
                    let mut reference: Option<Vec<u64>> = None;
                    for threads in [1, 2, 8] {
                        let pool = Pool::with_threads(threads);
                        let label = format!("user={user} kb={kb} keep={keep} threads={threads}");
                        let screened = cache
                            .scan_conditioned(&cond, user, 0..size, keep, &pool, &mut scratch)
                            .unwrap()
                            .to_vec();
                        prop_assert_eq!(tracker_order(&screened, keep), ranked.clone(), "{}", label);
                        for (c, (s, e)) in screened.iter().zip(&exhaustive).enumerate() {
                            if s.to_bits() != e.to_bits() {
                                prop_assert!(*s == f64::INFINITY && !ranked.contains(&c), "{} c={}", label, c);
                                spared += 1;
                            }
                        }
                        let bits: Vec<u64> = screened.iter().map(|r| r.to_bits()).collect();
                        prop_assert_eq!(reference.get_or_insert(bits.clone()), &bits, "{}", label);
                        for range in [0..split, split..size] {
                            let class = cache
                                .scan_conditioned(&cond, user, range.clone(), 1, &pool, &mut scratch)
                                .unwrap();
                            prop_assert_eq!(first_min(class), first_min(&exhaustive[range]), "{}", label);
                        }
                    }
                }
            }
            // Not vacuous: screening spared some probe their exact solve.
            prop_assert!(spared > 0);
        }
    }

    /// The joint fit `associate` returns is the dense evaluation of the
    /// selected sources in selection order, bit for bit.
    #[test]
    fn joint_fit_is_the_dense_evaluation_of_the_selection() {
        let (obj, candidates, explore_from) = large_instance();
        let a = associate_on(&Pool::with_threads(2), &obj, &candidates, &explore_from).unwrap();
        assert_eq!(a.selected.len(), 3);
        let positions: Vec<Point2> = a
            .selected
            .iter()
            .map(|&i| candidates[i][a.chosen[i].unwrap()])
            .collect();
        let want = obj.evaluate(&positions).unwrap();
        let fit = a.fit.unwrap();
        assert_eq!(fit.positions, positions);
        assert_eq!(fit.residual.to_bits(), want.residual.to_bits());
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&fit.stretches), bits(&want.stretches));
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
