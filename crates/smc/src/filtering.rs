//! Combination filtering: scoring candidate position sets against the
//! observed flux.
//!
//! §4.C scores all `N^K` combinations of per-user candidates and keeps, for
//! each user, the `M` candidates with the best achieved objective value.
//! Taken literally this is infeasible for the paper's own parameters
//! (`N = 1000`, `K up to 4`), so this module enumerates exactly when
//! `N^K` fits a configurable cap and otherwise runs greedy coordinate
//! descent over users, which preserves the per-candidate
//! conditional-residual ranking the algorithm consumes. The ablation bench
//! compares both on instances where exact enumeration is affordable.
//!
//! Scoring runs on a per-window [`ScoringCache`]: basis columns,
//! projections, and (for exact enumeration) all cross-user inner products
//! are precomputed once, so each combination costs a `k × k` Gram
//! assembly, an `O(k³)` active-set solve, and one exact residual pass —
//! instead of rebuilding `n × k` normal equations from scratch. Candidate
//! scans fan out on a deterministic worker pool; results are
//! **bit-identical** to the sequential column path (the test-only
//! `reference::filter_candidates_reference`) at any thread count, which
//! the tests below enforce.

use fluxprint_fluxpar::Pool;
use fluxprint_geometry::Point2;
use fluxprint_solver::{CacheScratch, FluxObjective, ScoringCache, SinkFit, Slot};

use crate::{SmcConfig, SmcError};

/// Combinations per work item on the exact-enumeration path. Fixed (not
/// thread-derived) so the index-space partition — and therefore every
/// chunk-ordered merge — depends only on the problem size.
const EXACT_CHUNK: usize = 512;

/// Which search the filter ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FilterStrategy {
    /// Full `N^K` enumeration.
    Exact,
    /// Greedy coordinate descent over users.
    Greedy,
    /// Forward selection with data association (the tracker's default;
    /// see the `association` module).
    ForwardSelection,
}

/// Output of [`filter_candidates`].
#[derive(Debug, Clone)]
pub struct CandidateScores {
    /// `per_candidate_residual[i][c]`: the best (conditional) objective
    /// value achieved by candidate `c` of user `i` across the explored
    /// combinations — the ranking key for top-M selection.
    pub per_candidate_residual: Vec<Vec<f64>>,
    /// The best combination found (one candidate index per user).
    pub best_combination: Vec<usize>,
    /// The fit of the best combination (stretches drive the §4.E
    /// activity gate).
    pub best_fit: SinkFit,
    /// Which strategy produced these scores.
    pub strategy: FilterStrategy,
}

/// Scores the candidate sets of all users against the observation on the
/// process-wide worker pool (`FLUXPRINT_THREADS`).
///
/// `candidates[i]` holds user `i`'s predicted positions for this round.
/// `seeds[i]`, when provided (same length as `candidates`), is the
/// candidate index the greedy strategy starts user `i` from — the tracker
/// passes each user's candidate nearest its current estimate, so a single
/// active source is attributed to the motion-consistent user rather than
/// to whichever hypothesis happens to scan it first.
///
/// # Errors
///
/// Returns [`SmcError::ZeroUsers`] when `candidates` is empty or any user
/// has no candidates; solver failures are propagated.
pub fn filter_candidates(
    objective: &FluxObjective,
    candidates: &[Vec<Point2>],
    seeds: &[Option<usize>],
    config: &SmcConfig,
) -> Result<CandidateScores, SmcError> {
    filter_candidates_with(
        objective,
        candidates,
        seeds,
        config,
        fluxprint_fluxpar::pool(),
    )
}

/// [`filter_candidates`] on an explicit pool (tests pin thread counts to
/// check determinism; everything else should use the process-wide pool).
///
/// # Errors
///
/// As for [`filter_candidates`].
pub fn filter_candidates_with(
    objective: &FluxObjective,
    candidates: &[Vec<Point2>],
    seeds: &[Option<usize>],
    config: &SmcConfig,
    pool: &Pool,
) -> Result<CandidateScores, SmcError> {
    if candidates.is_empty() || candidates.iter().any(Vec::is_empty) {
        return Err(SmcError::ZeroUsers);
    }
    let k = candidates.len();

    let total: usize = candidates
        .iter()
        .map(Vec::len)
        .try_fold(1usize, |acc, n| acc.checked_mul(n))
        .unwrap_or(usize::MAX);

    let mut cache = objective.scoring_cache(candidates, pool, false, &mut CacheScratch::new());
    if total <= config.exact_enumeration_cap {
        // Every cross-user pair is revisited `total / (sᵢ·sⱼ)` times, and
        // each block is bounded by the enumeration cap — precompute them.
        cache.build_pair_blocks(pool);
        exact_enumeration(&cache, k, total, pool)
    } else {
        greedy_descent(&cache, seeds, k, config.coordinate_sweeps, pool)
    }
}

/// Decodes a linear combination index into the per-user multi-index
/// (dimension 0 fastest, matching the legacy enumeration order).
fn decode_combo(mut lin: usize, sizes: &[usize], combo: &mut [usize]) {
    for (slot, &s) in combo.iter_mut().zip(sizes) {
        *slot = lin % s;
        lin /= s;
    }
}

/// Advances the multi-index by one (dimension 0 fastest). The caller
/// bounds iteration by the total count, so overflow past the last
/// combination simply wraps to all-zeros.
fn advance_combo(sizes: &[usize], combo: &mut [usize]) {
    for (slot, &s) in combo.iter_mut().zip(sizes) {
        *slot += 1;
        if *slot < s {
            return;
        }
        *slot = 0;
    }
}

/// Per-chunk result of the exact enumeration: this chunk's per-candidate
/// conditional minima and its first-best combination.
struct ExactChunk {
    minima: Vec<Vec<f64>>,
    /// `(residual, linear index)` of the chunk's best combination — the
    /// *first* index achieving the residual, so the chunk-ordered merge
    /// reproduces the sequential first-minimum tie-break.
    best: (f64, usize),
}

fn exact_enumeration(
    cache: &ScoringCache,
    k: usize,
    total: usize,
    pool: &Pool,
) -> Result<CandidateScores, SmcError> {
    let sizes: Vec<usize> = (0..k).map(|i| cache.size(i)).collect();
    let chunk_count = total.div_ceil(EXACT_CHUNK);
    // fluxlint: region(hot-path) — the per-combination enumeration loop;
    // per-chunk setup is waived, per-combination work must stay allocation
    // free.
    let chunks: Vec<Result<ExactChunk, SmcError>> =
        pool.map_with(chunk_count, CacheScratch::new, |scratch, ch| {
            let start = ch * EXACT_CHUNK;
            let end = total.min(start + EXACT_CHUNK);
            // fluxlint: allow(hot-path-alloc) — per-chunk setup, amortized
            let mut combo = vec![0usize; k];
            decode_combo(start, &sizes, &mut combo);
            // fluxlint: allow(hot-path-alloc) — per-chunk setup, amortized
            let mut slots: Vec<Slot> = combo.iter().enumerate().map(|(i, &c)| (i, c)).collect();
            // fluxlint: allow(hot-path-alloc) — per-chunk setup, amortized
            let mut minima: Vec<Vec<f64>> = sizes.iter().map(|&s| vec![f64::INFINITY; s]).collect();
            let mut best: Option<(f64, usize)> = None;
            for lin in start..end {
                for (slot, &c) in slots.iter_mut().zip(&combo) {
                    slot.1 = c;
                }
                let residual = cache.evaluate_combo(&slots, scratch)?;
                for (i, &c) in combo.iter().enumerate() {
                    if residual < minima[i][c] {
                        minima[i][c] = residual;
                    }
                }
                if best.is_none_or(|(b, _)| residual < b) {
                    best = Some((residual, lin));
                }
                advance_combo(&sizes, &mut combo);
            }
            // Chunks cover `start < end`, so at least one combination was
            // evaluated; an empty chunk cannot occur.
            let Some(best) = best else {
                return Err(SmcError::ZeroUsers);
            };
            Ok(ExactChunk { minima, best })
        });
    // fluxlint: endregion(hot-path)

    // Chunk-ordered merge: elementwise minima are order-invariant, and
    // the strict `<` on chunk bests keeps the first (lowest linear index)
    // global minimum — exactly the sequential tie-break.
    let mut per_candidate_residual: Vec<Vec<f64>> =
        sizes.iter().map(|&s| vec![f64::INFINITY; s]).collect();
    let mut best: Option<(f64, usize)> = None;
    for chunk in chunks {
        let chunk = chunk?;
        for (acc, part) in per_candidate_residual.iter_mut().zip(&chunk.minima) {
            for (a, &p) in acc.iter_mut().zip(part) {
                if p < *a {
                    *a = p;
                }
            }
        }
        if best.is_none_or(|(b, _)| chunk.best.0 < b) {
            best = Some(chunk.best);
        }
    }
    let Some((_, best_lin)) = best else {
        return Err(SmcError::ZeroUsers);
    };
    let mut best_combination = vec![0usize; k];
    decode_combo(best_lin, &sizes, &mut best_combination);
    let slots: Vec<Slot> = best_combination
        .iter()
        .enumerate()
        .map(|(i, &c)| (i, c))
        .collect();
    let mut scratch = CacheScratch::new();
    let best_fit = cache.fit_combo(&slots, &mut scratch)?;
    Ok(CandidateScores {
        per_candidate_residual,
        best_combination,
        best_fit,
        strategy: FilterStrategy::Exact,
    })
}

/// Scans one user's candidates conditioned on the other users'
/// incumbents, in parallel; returns each candidate's residual in order.
fn conditional_scan(
    cache: &ScoringCache,
    incumbents: &[usize],
    i: usize,
    pool: &Pool,
) -> Result<Vec<f64>, SmcError> {
    let base: Vec<Slot> = incumbents
        .iter()
        .enumerate()
        .filter(|&(j, _)| j != i)
        .map(|(j, &c)| (j, c))
        .collect();
    // The probe re-enters at the user's own slot: combination column
    // order is user order, which the active-set tie-breaks see.
    let cond = cache.conditioner(&base, i);
    // fluxlint: region(hot-path) — one conditioned solve per candidate;
    // all state lives in the pooled scratch.
    pool.map_with(cache.size(i), CacheScratch::new, |scratch, c| {
        cache
            .evaluate_conditioned(&cond, (i, c), scratch)
            .map_err(SmcError::from)
    })
    // fluxlint: endregion(hot-path)
    .into_iter()
    .collect()
}

fn greedy_descent(
    cache: &ScoringCache,
    seeds: &[Option<usize>],
    k: usize,
    sweeps: usize,
    pool: &Pool,
) -> Result<CandidateScores, SmcError> {
    let sizes: Vec<usize> = (0..k).map(|i| cache.size(i)).collect();
    // Initialize each seeded user at its seed (its motion-consistent
    // position); unseeded users fall back to their best single-sink fit —
    // a biased but cheap start the sweeps then repair jointly.
    let mut incumbents = vec![0usize; k];
    for i in 0..k {
        if let Some(&Some(seed)) = seeds.get(i) {
            incumbents[i] = seed.min(sizes[i] - 1);
            continue;
        }
        let residuals: Result<Vec<f64>, SmcError> = pool
            .map_with(sizes[i], CacheScratch::new, |scratch, c| {
                cache
                    .evaluate_combo(&[(i, c)], scratch)
                    .map_err(SmcError::from)
            })
            .into_iter()
            .collect();
        let mut best_res = f64::INFINITY;
        for (c, r) in residuals?.into_iter().enumerate() {
            if r < best_res {
                best_res = r;
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
            let residuals = conditional_scan(cache, &incumbents, i, pool)?;
            let mut best_c = incumbents[i];
            let mut best_res = f64::INFINITY;
            for (c, &r) in residuals.iter().enumerate() {
                if r < per_candidate_residual[i][c] {
                    per_candidate_residual[i][c] = r;
                }
                if r < best_res {
                    best_res = r;
                    best_c = c;
                }
            }
            incumbents[i] = best_c;
        }
    }
    let slots: Vec<Slot> = incumbents
        .iter()
        .enumerate()
        .map(|(i, &c)| (i, c))
        .collect();
    let mut scratch = CacheScratch::new();
    let best_fit = cache.fit_combo(&slots, &mut scratch)?;
    Ok(CandidateScores {
        per_candidate_residual,
        best_combination: incumbents,
        best_fit,
        strategy: FilterStrategy::Greedy,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::filter_candidates_reference;
    use fluxprint_fluxmodel::FluxModel;
    use fluxprint_geometry::Rect;
    use std::sync::Arc;

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

    fn config_with_cap(cap: usize) -> SmcConfig {
        SmcConfig {
            exact_enumeration_cap: cap,
            ..Default::default()
        }
    }

    #[test]
    fn exact_finds_true_candidate_single_user() {
        let truth = [(Point2::new(12.0, 17.0), 2.0)];
        let obj = objective_for(&truth);
        let candidates = vec![vec![
            Point2::new(3.0, 3.0),
            Point2::new(12.0, 17.0),
            Point2::new(25.0, 25.0),
        ]];
        let scores = filter_candidates(&obj, &candidates, &[], &config_with_cap(1000)).unwrap();
        assert_eq!(scores.strategy, FilterStrategy::Exact);
        assert_eq!(scores.best_combination, vec![1]);
        assert!(scores.best_fit.residual < 1e-9);
        // Ranking key is consistent: true candidate has the lowest score.
        let r = &scores.per_candidate_residual[0];
        assert!(r[1] < r[0] && r[1] < r[2]);
    }

    #[test]
    fn exact_separates_two_users() {
        let truth = [(Point2::new(8.0, 8.0), 2.0), (Point2::new(22.0, 20.0), 1.5)];
        let obj = objective_for(&truth);
        let candidates = vec![
            vec![Point2::new(8.0, 8.0), Point2::new(20.0, 5.0)],
            vec![Point2::new(10.0, 25.0), Point2::new(22.0, 20.0)],
        ];
        let scores = filter_candidates(&obj, &candidates, &[], &config_with_cap(1000)).unwrap();
        assert_eq!(scores.best_combination, vec![0, 1]);
        assert!(scores.best_fit.residual < 1e-8);
        assert!((scores.best_fit.stretches[0] - 2.0).abs() < 1e-6);
        assert!((scores.best_fit.stretches[1] - 1.5).abs() < 1e-6);
    }

    #[test]
    fn greedy_matches_exact_on_small_instances() {
        let truth = [(Point2::new(8.0, 8.0), 2.0), (Point2::new(22.0, 20.0), 1.5)];
        let obj = objective_for(&truth);
        let candidates = vec![
            vec![
                Point2::new(8.0, 8.0),
                Point2::new(20.0, 5.0),
                Point2::new(15.0, 15.0),
                Point2::new(3.0, 28.0),
            ],
            vec![
                Point2::new(10.0, 25.0),
                Point2::new(22.0, 20.0),
                Point2::new(27.0, 3.0),
                Point2::new(5.0, 15.0),
            ],
        ];
        let exact = filter_candidates(&obj, &candidates, &[], &config_with_cap(1_000_000)).unwrap();
        let greedy = filter_candidates(&obj, &candidates, &[], &config_with_cap(1)).unwrap();
        assert_eq!(exact.strategy, FilterStrategy::Exact);
        assert_eq!(greedy.strategy, FilterStrategy::Greedy);
        assert_eq!(exact.best_combination, greedy.best_combination);
        assert!((exact.best_fit.residual - greedy.best_fit.residual).abs() < 1e-9);
    }

    #[test]
    fn greedy_residuals_upper_bound_exact() {
        // Conditional residuals explored by greedy are a subset of all
        // combinations, so its per-candidate scores can never be smaller
        // than the exact minima.
        let truth = [
            (Point2::new(10.0, 10.0), 1.0),
            (Point2::new(20.0, 22.0), 2.0),
        ];
        let obj = objective_for(&truth);
        let candidates = vec![
            vec![
                Point2::new(10.0, 10.0),
                Point2::new(12.0, 9.0),
                Point2::new(28.0, 2.0),
            ],
            vec![
                Point2::new(20.0, 22.0),
                Point2::new(18.0, 24.0),
                Point2::new(2.0, 2.0),
            ],
        ];
        let exact = filter_candidates(&obj, &candidates, &[], &config_with_cap(1_000_000)).unwrap();
        let greedy = filter_candidates(&obj, &candidates, &[], &config_with_cap(1)).unwrap();
        for (re, rg) in exact
            .per_candidate_residual
            .iter()
            .flatten()
            .zip(greedy.per_candidate_residual.iter().flatten())
        {
            assert!(rg + 1e-12 >= *re, "greedy {rg} below exact optimum {re}");
        }
    }

    #[test]
    fn empty_candidates_rejected() {
        let obj = objective_for(&[(Point2::new(10.0, 10.0), 1.0)]);
        let cfg = SmcConfig::default();
        assert!(matches!(
            filter_candidates(&obj, &[], &[], &cfg),
            Err(SmcError::ZeroUsers)
        ));
        assert!(matches!(
            filter_candidates(&obj, &[vec![]], &[], &cfg),
            Err(SmcError::ZeroUsers)
        ));
    }

    fn bit_identity_candidates() -> Vec<Vec<Point2>> {
        // Sizes 5 × 4 × 3 = 60 combinations: exact under a cap of 100,
        // greedy under a cap of 1.
        let mut sets = Vec::new();
        for (k, s) in [(0u64, 5usize), (1, 4), (2, 3)] {
            let mut set = Vec::new();
            for c in 0..s {
                let x = 2.0 + ((k as usize * 7 + c * 5) % 27) as f64;
                let y = 2.0 + ((k as usize * 11 + c * 9) % 27) as f64;
                set.push(Point2::new(x, y));
            }
            sets.push(set);
        }
        sets
    }

    fn assert_scores_identical(a: &CandidateScores, b: &CandidateScores, label: &str) {
        assert_eq!(a.best_combination, b.best_combination, "{label}: combo");
        assert_eq!(
            a.best_fit.residual.to_bits(),
            b.best_fit.residual.to_bits(),
            "{label}: best residual"
        );
        assert_eq!(
            a.best_fit.stretches, b.best_fit.stretches,
            "{label}: stretches"
        );
        assert_eq!(
            a.best_fit.positions, b.best_fit.positions,
            "{label}: positions"
        );
        for (ra, rb) in a
            .per_candidate_residual
            .iter()
            .flatten()
            .zip(b.per_candidate_residual.iter().flatten())
        {
            assert_eq!(
                ra.to_bits(),
                rb.to_bits(),
                "{label}: per-candidate residual"
            );
        }
    }

    #[test]
    fn cached_filter_is_bit_identical_to_reference_at_any_thread_count() {
        let truth = [
            (Point2::new(9.0, 9.0), 2.0),
            (Point2::new(21.0, 19.0), 1.0),
            (Point2::new(15.0, 24.0), 1.5),
        ];
        let obj = objective_for(&truth);
        let candidates = bit_identity_candidates();
        let seeds = [None, Some(1), None];
        for cap in [100usize, 1] {
            let cfg = config_with_cap(cap);
            let reference = filter_candidates_reference(&obj, &candidates, &seeds, &cfg).unwrap();
            for threads in [1usize, 2, 8] {
                let pool = Pool::with_threads(threads);
                let cached =
                    filter_candidates_with(&obj, &candidates, &seeds, &cfg, &pool).unwrap();
                assert_eq!(cached.strategy, reference.strategy);
                assert_scores_identical(
                    &cached,
                    &reference,
                    &format!("cap={cap} threads={threads}"),
                );
            }
        }
    }
}
