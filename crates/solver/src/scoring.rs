//! Gram-cached combination scoring.
//!
//! §4.C explores thousands of candidate *combinations* per observation
//! window, but every combination is assembled from the same per-candidate
//! basis columns. The legacy path rebuilt an `n × k` design matrix and
//! re-derived its normal equations (`O(n·k²)`) for every combination; the
//! [`ScoringCache`] precomputes everything `n`-dependent once per window —
//! each candidate's basis column, its projection `cᵀF′` and its squared
//! norm — so a combination evaluation is a `k × k` Gram assembly plus an
//! `O(k³)` active-set solve, with one `O(n·k)` pass left to reproduce the
//! data-space residual exactly.
//!
//! # Bit-compatibility contract
//!
//! Cached evaluations return residuals and stretches **bit-identical** to
//! [`FluxObjective::evaluate_columns`] on the same columns in the same
//! order. This is not best-effort: the SMC filter's ranking, tie-breaks,
//! and activity gates all compare these floats, so the cache reproduces
//! the legacy arithmetic exactly:
//!
//! - inner products accumulate in observation order from `+0.0`, which is
//!   bit-equal to [`Matrix::gram`]'s zero-skipping accumulation (the
//!   skipped terms are exact `±0.0` products, and adding a signed zero to
//!   a running sum that starts at `+0.0` never changes its bits);
//! - the `k × k` Gram system is handed to the same active-set core
//!   ([`fluxprint_linalg::nnls_gram_into`]) that the dense path feeds its
//!   normal equations, so the coefficient vector matches bit-for-bit;
//! - the residual is *not* taken from the Gram identity
//!   `‖b‖² − 2xᵀAᵀb + xᵀGx` (which cancels catastrophically for the
//!   near-exact fits the tracker hunts for) but recomputed from the
//!   columns with the same per-row summation order as `Matrix::matvec`.
//!
//! # The build
//!
//! [`FluxObjective::scoring_cache`] writes every candidate's column with
//! the flux model's batch kernel ([`FluxModel::basis_columns`]), straight
//! into one flat buffer, and its projection and norm beside it. The
//! buffers come out of the caller's [`CacheScratch`] and go back with
//! [`ScoringCache::recycle`], so a worker that builds a cache every round
//! stops allocating after its first. Its `seeded` flag fixes the cache's
//! inner solves to a full-support seed (the warm path); a rejected seed
//! falls back to the cold solve, so the choice is made once, at build
//! time, not per evaluation.
//!
//! [`FluxModel::basis_columns`]: fluxprint_fluxmodel::FluxModel::basis_columns

use fluxprint_fluxpar::Pool;
use fluxprint_geometry::Point2;
use fluxprint_linalg::{nnls_gram_into, Matrix, NnlsScratch};
use fluxprint_telemetry::{self as telemetry, names};

use crate::{FluxObjective, SolverError};

// fluxlint: region(hot-path) — combination scoring: SMC association calls
// into this cache thousands of times per observation window, so steady
// state must not allocate.

/// A combination slot: `(user index, candidate index within that user)`.
pub type Slot = (usize, usize);

/// Per-window precompute that makes combination scoring independent of
/// the sniffer count `n` (up to one exact residual pass).
///
/// Build once per observation window with
/// [`FluxObjective::scoring_cache`], then evaluate combinations with
/// [`evaluate_conditioned`](ScoringCache::evaluate_conditioned): one
/// probe against a fixed base, the forward-selection shape. All
/// evaluation is `&self`, so one cache serves any number of worker
/// threads.
#[derive(Debug)]
pub struct ScoringCache<'a> {
    objective: &'a FluxObjective,
    n: usize,
    buf: CacheBuffers,
    /// Whether inner solves are seeded from the full support (the warm
    /// path).
    seeded: bool,
}

/// The flat buffers a [`ScoringCache`] is built into. They live in a
/// [`CacheScratch`] between builds, so their capacity carries over.
#[derive(Debug, Default)]
struct CacheBuffers {
    /// Per-user start offset into the global candidate index space; the
    /// last entry is the total candidate count.
    offsets: Vec<usize>,
    /// Candidate positions, globally indexed.
    positions: Vec<Point2>,
    /// Sniffer coordinates, split for the batch kernel.
    xs: Vec<f64>,
    ys: Vec<f64>,
    /// Basis columns, flat: candidate `g` occupies `cols[g·n .. (g+1)·n]`.
    cols: Vec<f64>,
    /// `cᵀF′` per candidate.
    proj: Vec<f64>,
    /// `cᵀc` per candidate (every Gram diagonal).
    diag: Vec<f64>,
}

/// Candidates per chunk of the parallel cache build.
const BUILD_CHUNK: usize = 64;

/// Reusable buffers for cached combination evaluation: the `k × k` Gram
/// system, its right-hand side, the NNLS scratch, and the slot list for
/// conditioned evaluations. Steady-state evaluation allocates only when
/// the combination size `k` changes. Between builds it also keeps the
/// scoring cache's own buffers (see [`ScoringCache::recycle`]).
#[derive(Debug)]
pub struct CacheScratch {
    nnls: NnlsScratch,
    gram: Matrix,
    gram_k: usize,
    atb: Vec<f64>,
    combo: Vec<Slot>,
    support: Vec<bool>,
    buffers: CacheBuffers,
}

impl CacheScratch {
    /// Fresh scratch; buffers are sized on first use.
    pub fn new() -> Self {
        CacheScratch {
            nnls: NnlsScratch::new(),
            gram: Matrix::zeros(1, 1),
            gram_k: 1,
            // fluxlint: allow(hot-path-alloc) — one-time scratch construction
            atb: Vec::new(),
            // fluxlint: allow(hot-path-alloc) — buffer is reused across evals
            combo: Vec::new(),
            // fluxlint: allow(hot-path-alloc) — buffer is reused across evals
            support: Vec::new(),
            buffers: CacheBuffers::default(),
        }
    }

    /// The fitted stretch factors left by the most recent evaluation.
    pub fn stretches(&self) -> &[f64] {
        self.nnls.solution()
    }

    fn ensure_k(&mut self, k: usize) {
        if self.gram_k != k {
            self.gram = Matrix::zeros(k, k);
            self.gram_k = k;
        }
        self.atb.clear();
        self.atb.resize(k, 0.0);
    }
}

impl Default for CacheScratch {
    fn default() -> Self {
        CacheScratch::new()
    }
}

/// A fixed base of already-placed sources, prepared once so that probing
/// many candidates of one user against it avoids re-deriving the base's
/// pairwise inner products per probe.
///
/// The probe takes slot 0 of the combination's column order and the base
/// follows in its given order. Column order affects active-set
/// tie-breaking, so this is the order the dense path is fed to match.
#[derive(Debug)]
pub struct Conditioner {
    base: Vec<Slot>,
    /// Pairwise inner products of the base columns, row-major
    /// `(k−1) × (k−1)`.
    base_gram: Vec<f64>,
}

impl FluxObjective {
    /// Precomputes the scoring cache for one observation window:
    /// `candidates[i]` are user `i`'s positions. Basis columns,
    /// projections, and norms are written in place, in parallel chunks on
    /// `pool`, into buffers taken from `scratch`; hand them back with
    /// [`ScoringCache::recycle`].
    ///
    /// With `seeded` every inner solve starts from the full support (see
    /// [`evaluate_conditioned`](ScoringCache::evaluate_conditioned));
    /// otherwise the solves run cold. The buffers are the same floats
    /// either way.
    pub fn scoring_cache<'a>(
        &'a self,
        candidates: &[Vec<Point2>],
        pool: &Pool,
        seeded: bool,
        scratch: &mut CacheScratch,
    ) -> ScoringCache<'a> {
        telemetry::counter(names::SOLVER_GRAM_BUILD, 1);
        let n = self.len();
        let mut buf = std::mem::take(&mut scratch.buffers);
        buf.offsets.clear();
        buf.offsets.push(0);
        buf.positions.clear();
        for set in candidates {
            buf.positions.extend_from_slice(set);
            buf.offsets.push(buf.positions.len());
        }
        let total = buf.positions.len();
        buf.xs.clear();
        buf.xs.extend(self.positions().iter().map(|p| p.x));
        buf.ys.clear();
        buf.ys.extend(self.positions().iter().map(|p| p.y));
        // Every element below is overwritten by the fill, so resizing
        // never needs to clear.
        buf.cols.resize(total * n, 0.0);
        buf.proj.resize(total, 0.0);
        buf.diag.resize(total, 0.0);
        let (model, boundary, measurements) = (self.model(), self.boundary(), self.measurements());
        let CacheBuffers {
            positions,
            xs,
            ys,
            cols,
            proj,
            diag,
            ..
        } = &mut buf;
        let out = (&mut cols[..], &mut proj[..], &mut diag[..]);
        pool.fill_chunks(total, BUILD_CHUNK, out, |range, (cols, proj, diag)| {
            model.basis_columns(&positions[range], xs, ys, boundary, cols);
            for ((col, p), d) in cols.chunks_exact(n).zip(proj).zip(diag) {
                // Same accumulation order as `Matrix::tr_matvec` / `gram`:
                // observation order from +0.0 (see the module docs for why
                // the legacy zero-skips cannot change the bits).
                *p = col.iter().zip(measurements).map(|(c, m)| c * m).sum();
                *d = col.iter().map(|c| c * c).sum();
            }
        });
        ScoringCache {
            objective: self,
            n,
            buf,
            seeded,
        }
    }
}

impl<'a> ScoringCache<'a> {
    /// Number of candidates of user `i`.
    pub fn size(&self, i: usize) -> usize {
        self.buf.offsets[i + 1] - self.buf.offsets[i]
    }

    /// Prepares a conditioner for probing candidates against `base`
    /// (slots in their combination order, after the probe's).
    pub fn conditioner(&self, base: &[Slot]) -> Conditioner {
        let kb = base.len();
        // fluxlint: allow(hot-path-alloc) — built once, probed many times
        let mut base_gram = vec![0.0; kb * kb];
        for (r, &a) in base.iter().enumerate() {
            base_gram[r * kb + r] = self.buf.diag[self.global(a)];
            for (cshift, &b) in base[r + 1..].iter().enumerate() {
                let c = r + 1 + cshift;
                let d = self.dot(a, b);
                base_gram[r * kb + c] = d;
                base_gram[c * kb + r] = d;
            }
        }
        Conditioner {
            // fluxlint: allow(hot-path-alloc) — amortized across all probes
            base: base.to_vec(),
            base_gram,
        }
    }

    /// Evaluates the combination of `probe` followed by the conditioner's
    /// base and returns its data-space residual `‖F̂ − F′‖₂`; the fitted
    /// stretches stay in `scratch` ([`CacheScratch::stretches`]), probe
    /// first. Residual and stretches are bit-identical to
    /// [`FluxObjective::evaluate_columns`] on the same columns in the same
    /// order, and the base's pairwise inner products are reused across
    /// probes.
    ///
    /// On a cache built `seeded` the inner solve is warm-seeded: the
    /// active set starts from the full support (every placed source
    /// emitting) and is accepted outright when that guess passes
    /// feasibility and the KKT check, falling back to the cold iteration
    /// otherwise. The fallback *is* the cold solve, so seeding changes
    /// which work is done, not which floats come out, on non-degenerate
    /// fits.
    ///
    /// The smc crate's `associate` never puts the probe's user in the
    /// base, so two columns of one combination are never the same
    /// candidate's. A probe that repeats a base slot makes the Gram
    /// rank-deficient, and there the seeded and cold solves may differ
    /// in the last bit.
    ///
    /// # Errors
    ///
    /// Linear-algebra failures propagate.
    pub fn evaluate_conditioned(
        &self,
        cond: &Conditioner,
        probe: Slot,
        scratch: &mut CacheScratch,
    ) -> Result<f64, SolverError> {
        self.assemble_conditioned(cond, probe, scratch);
        // Move the slot list out of the scratch to satisfy borrows; put
        // it back so its capacity is reused.
        let combo = std::mem::take(&mut scratch.combo);
        let out = self.solve_and_residual(&combo, scratch);
        scratch.combo = combo;
        out
    }

    fn assemble_conditioned(&self, cond: &Conditioner, probe: Slot, scratch: &mut CacheScratch) {
        telemetry::counter(names::SOLVER_OBJECTIVE_EVALS, 1);
        telemetry::counter(names::SOLVER_GRAM_COMBO_EVALS, 1);
        let kb = cond.base.len();
        scratch.ensure_k(kb + 1);
        scratch.combo.clear();
        scratch.combo.push(probe);
        scratch.combo.extend_from_slice(&cond.base);
        // Row and column 0 are the probe's: its norm plus `kb` fresh
        // dots. The base block below comes from the precomputed base Gram.
        scratch.gram[(0, 0)] = self.buf.diag[self.global(probe)];
        scratch.atb[0] = self.buf.proj[self.global(probe)];
        for r in 0..kb {
            for c in 0..kb {
                scratch.gram[(r + 1, c + 1)] = cond.base_gram[r * kb + c];
            }
            scratch.atb[r + 1] = self.buf.proj[self.global(cond.base[r])];
            let d = self.dot(probe, cond.base[r]);
            scratch.gram[(0, r + 1)] = d;
            scratch.gram[(r + 1, 0)] = d;
        }
    }

    /// Hands the cache's buffers back to `scratch`, so the next build
    /// on it reuses their capacity instead of allocating.
    pub fn recycle(self, scratch: &mut CacheScratch) {
        scratch.buffers = self.buf;
    }

    fn global(&self, (i, c): Slot) -> usize {
        self.buf.offsets[i] + c
    }

    /// Inner product of two slots' columns: one ordered pass.
    fn dot(&self, a: Slot, b: Slot) -> f64 {
        self.col(self.global(a))
            .iter()
            .zip(self.col(self.global(b)))
            .map(|(x, y)| x * y)
            .sum()
    }

    fn col(&self, g: usize) -> &[f64] {
        &self.buf.cols[g * self.n..(g + 1) * self.n]
    }

    /// Runs the active-set solve on the assembled Gram system — seeded
    /// from the full support on a `seeded` cache: combination scans
    /// probe small perturbations of fits whose sources were all
    /// emitting, so "everything stays in the passive set" is the
    /// overwhelmingly common outcome and the seeded KKT check replaces
    /// the whole active-set iteration — then recomputes the data-space
    /// residual from the columns.
    fn solve_and_residual(
        &self,
        combo: &[Slot],
        scratch: &mut CacheScratch,
    ) -> Result<f64, SolverError> {
        telemetry::counter(names::SOLVER_NNLS_SOLVES, 1);
        let seed = if self.seeded {
            scratch.support.clear();
            scratch.support.resize(combo.len(), true);
            Some(scratch.support.as_slice())
        } else {
            None
        };
        let (_, warm_hit) = nnls_gram_into(&scratch.gram, &scratch.atb, seed, &mut scratch.nnls)?;
        if self.seeded {
            let counter = if warm_hit {
                names::SOLVER_NNLS_WARM_HITS
            } else {
                names::SOLVER_NNLS_WARM_MISSES
            };
            telemetry::counter(counter, 1);
        }
        Ok(self.data_residual(combo, scratch))
    }

    /// Exact data-space residual `‖F̂ − F′‖₂`, same per-row summation
    /// order as the dense path (`Matrix::matvec` + squared differences
    /// in observation order).
    fn data_residual(&self, combo: &[Slot], scratch: &CacheScratch) -> f64 {
        let x = scratch.nnls.solution();
        let measurements = self.objective.measurements();
        let mut r2 = 0.0;
        for (t, &m) in measurements.iter().enumerate() {
            let pred: f64 = combo
                .iter()
                .zip(x)
                .map(|(&s, &q)| self.buf.cols[self.global(s) * self.n + t] * q)
                .sum();
            let d = pred - m;
            r2 += d * d;
        }
        r2.sqrt()
    }
}

// fluxlint: endregion(hot-path)

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SinkFit;
    use fluxprint_fluxmodel::FluxModel;
    use fluxprint_geometry::Rect;
    use std::sync::Arc;

    fn objective_for(truth: &[(Point2, f64)]) -> FluxObjective {
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

    fn demo_candidates() -> Vec<Vec<Point2>> {
        vec![
            vec![
                Point2::new(8.0, 8.0),
                Point2::new(12.0, 17.0),
                Point2::new(3.0, 27.0),
            ],
            vec![
                Point2::new(22.0, 21.0),
                Point2::new(18.0, 9.0),
                Point2::new(25.0, 25.0),
                Point2::new(5.0, 15.0),
            ],
            vec![
                Point2::new(15.0, 24.0),
                Point2::new(27.0, 5.0),
                Point2::new(10.0, 12.0),
            ],
        ]
    }

    /// The dense column path's fit of `probe` followed by `base`: the
    /// column order [`ScoringCache::evaluate_conditioned`] reproduces.
    fn column_fit(
        obj: &FluxObjective,
        cands: &[Vec<Point2>],
        probe: Slot,
        base: &[Slot],
    ) -> SinkFit {
        let sinks: Vec<Point2> = std::iter::once(probe)
            .chain(base.iter().copied())
            .map(|(i, c)| cands[i][c])
            .collect();
        let cols: Vec<Vec<f64>> = sinks.iter().map(|&p| obj.basis_column(p)).collect();
        let col_refs: Vec<&[f64]> = cols.iter().map(Vec::as_slice).collect();
        obj.evaluate_columns(&sinks, &col_refs).unwrap()
    }

    #[test]
    fn conditioned_eval_is_bit_identical_to_column_path() {
        let truth = [
            (Point2::new(12.0, 17.0), 2.0),
            (Point2::new(22.0, 21.0), 1.0),
            (Point2::new(15.0, 24.0), 1.5),
        ];
        let obj = objective_for(&truth);
        let cands = demo_candidates();
        let pool = Pool::with_threads(2);
        // Probe shapes k = 1, 2 and 3, built the way `associate` builds
        // them: the probed user is never in the base.
        let shapes: [(usize, &[Slot]); 9] = [
            (0, &[]),
            (1, &[]),
            (2, &[]),
            (1, &[(0, 1)]),
            (0, &[(2, 0)]),
            (2, &[(1, 3)]),
            (2, &[(0, 1), (1, 0)]),
            (0, &[(1, 2), (2, 1)]),
            (1, &[(2, 0), (0, 2)]),
        ];
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let seeded_solves = |s: &fluxprint_telemetry::Snapshot| {
            s.counter(names::SOLVER_NNLS_WARM_HITS) + s.counter(names::SOLVER_NNLS_WARM_MISSES)
        };
        let before = fluxprint_telemetry::snapshot();
        let mut probes = 0;
        for seeded in [false, true] {
            let cache = obj.scoring_cache(&cands, &pool, seeded, &mut CacheScratch::new());
            let mut scratch = CacheScratch::new();
            for &(user, base) in &shapes {
                let cond = cache.conditioner(base);
                for c in 0..cache.size(user) {
                    let want = column_fit(&obj, &cands, (user, c), base);
                    let got = cache
                        .evaluate_conditioned(&cond, (user, c), &mut scratch)
                        .unwrap();
                    let label = format!("seeded={seeded} probe=({user}, {c}) base={base:?}");
                    assert_eq!(want.residual.to_bits(), got.to_bits(), "{label}");
                    assert_eq!(bits(&want.stretches), bits(scratch.stretches()), "{label}");
                    probes += usize::from(seeded);
                }
            }
        }
        // The seeded cache took the seeded-or-fallback solve every time.
        let after = fluxprint_telemetry::snapshot();
        assert!(
            seeded_solves(&after) - seeded_solves(&before) >= probes as u64,
            "seeded solves recorded"
        );
    }

    #[test]
    fn recycled_buffers_build_the_same_cache() {
        let truth = [
            (Point2::new(12.0, 17.0), 2.0),
            (Point2::new(22.0, 21.0), 1.0),
        ];
        let obj = objective_for(&truth);
        let cands = demo_candidates();
        let pool = Pool::with_threads(1);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let fresh = obj.scoring_cache(&cands, &pool, false, &mut CacheScratch::new());
        // The scratch first holds a larger build, then a smaller one, so
        // the recycled buffers both shrink and grow into this build.
        let mut scratch = CacheScratch::new();
        let mut larger = cands.clone();
        larger.push(vec![Point2::new(1.0, 2.0); 9]);
        for set in [larger, vec![vec![Point2::new(4.0, 4.0)]], cands.clone()] {
            obj.scoring_cache(&set, &pool, false, &mut scratch)
                .recycle(&mut scratch);
        }
        let cols = scratch.buffers.cols.as_ptr();
        let recycled = obj.scoring_cache(&cands, &pool, false, &mut scratch);
        assert_eq!(recycled.buf.cols.as_ptr(), cols, "capacity reused");
        assert_eq!(fresh.buf.offsets, recycled.buf.offsets);
        assert_eq!(fresh.buf.positions, recycled.buf.positions);
        assert_eq!(bits(&fresh.buf.cols), bits(&recycled.buf.cols));
        assert_eq!(bits(&fresh.buf.proj), bits(&recycled.buf.proj));
        assert_eq!(bits(&fresh.buf.diag), bits(&recycled.buf.diag));
    }

    #[test]
    fn cache_layout_accessors() {
        let obj = objective_for(&[(Point2::new(8.0, 8.0), 1.0)]);
        let cands = demo_candidates();
        let pool = Pool::with_threads(1);
        let cache = obj.scoring_cache(&cands, &pool, false, &mut CacheScratch::new());
        assert_eq!(cache.size(0), 3);
        assert_eq!(cache.size(1), 4);
        assert_eq!(cache.size(2), 3);
    }
}
