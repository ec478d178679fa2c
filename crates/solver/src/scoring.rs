//! Gram-cached combination scoring.
//!
//! §4.C explores thousands of candidate *combinations* per observation
//! window, but every combination is assembled from the same per-candidate
//! basis columns. The legacy path rebuilt an `n × k` design matrix and
//! re-derived its normal equations (`O(n·k²)`) for every combination; the
//! [`ScoringCache`] precomputes everything `n`-dependent once per window —
//! each candidate's basis column, its projection `cᵀF′`, its squared norm,
//! and (on the exact-enumeration path) all cross-user inner products
//! `cᵢᵀcⱼ` — so a combination evaluation is a `k × k` Gram assembly plus
//! an `O(k³)` active-set solve, with one `O(n·k)` pass left to reproduce
//! the data-space residual exactly.
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

use crate::{FluxObjective, SinkFit, SolverError};

// fluxlint: region(hot-path) — combination scoring: the SMC filter calls
// into this cache thousands of times per observation window, so steady
// state must not allocate.

/// A combination slot: `(user index, candidate index within that user)`.
pub type Slot = (usize, usize);

/// Per-window precompute that makes combination scoring independent of
/// the sniffer count `n` (up to one exact residual pass).
///
/// Build once per observation window with
/// [`FluxObjective::scoring_cache`], then evaluate combinations with
/// [`evaluate_combo`](ScoringCache::evaluate_combo) (arbitrary slots) or
/// [`evaluate_conditioned`](ScoringCache::evaluate_conditioned) (one
/// probe against a fixed base — the forward-selection / coordinate-descent
/// shape). All evaluation is `&self`, so one cache serves any number of
/// worker threads.
#[derive(Debug)]
pub struct ScoringCache<'a> {
    objective: &'a FluxObjective,
    n: usize,
    buf: CacheBuffers,
    /// Cross-user inner-product blocks, upper-triangle pair order; built
    /// on demand by [`build_pair_blocks`](ScoringCache::build_pair_blocks)
    /// (`blocks[pair(i,j)][ci·sizes(j) + cj]`).
    blocks: Option<Vec<Vec<f64>>>,
    /// Whether inner solves are seeded from the full support (the warm
    /// path).
    seeded: bool,
}

/// The flat buffers a [`ScoringCache`] is built into. They live in a
/// [`CacheScratch`] between builds, so their capacity carries over.
#[derive(Debug, Default)]
struct CacheBuffers {
    /// Per-user start offset into the global candidate index space;
    /// `offsets[users()]` is the total candidate count.
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
/// The probe is inserted at `insert_at` in the combination's slot order —
/// forward selection probes at slot 0, coordinate descent at the probed
/// user's own slot — because column order affects active-set tie-breaking
/// and must match the legacy path exactly.
#[derive(Debug)]
pub struct Conditioner {
    base: Vec<Slot>,
    /// Pairwise inner products of the base columns, row-major
    /// `(k−1) × (k−1)`.
    base_gram: Vec<f64>,
    insert_at: usize,
}

impl Conditioner {
    /// The base slots this conditioner was built from.
    pub fn base(&self) -> &[Slot] {
        &self.base
    }
}

impl FluxObjective {
    /// Precomputes the scoring cache for one observation window:
    /// `candidates[i]` are user `i`'s positions. Basis columns,
    /// projections, and norms are written in place, in parallel chunks on
    /// `pool`, into buffers taken from `scratch`; hand them back with
    /// [`ScoringCache::recycle`].
    ///
    /// With `seeded` every inner solve starts from the full support (see
    /// [`evaluate_combo`](ScoringCache::evaluate_combo)); otherwise the
    /// solves run cold. The buffers are the same floats either way.
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
            blocks: None,
            seeded,
        }
    }
}

impl<'a> ScoringCache<'a> {
    /// Number of users the cache was built over.
    pub fn users(&self) -> usize {
        self.buf.offsets.len() - 1
    }

    /// Number of candidates of user `i`.
    pub fn size(&self, i: usize) -> usize {
        self.buf.offsets[i + 1] - self.buf.offsets[i]
    }

    /// The cached position of a slot.
    pub fn position(&self, (i, c): Slot) -> Point2 {
        self.buf.positions[self.buf.offsets[i] + c]
    }

    /// Precomputes every cross-user inner product `cᵢᵀcⱼ` in parallel.
    ///
    /// Worth it exactly when pairs are revisited many times — the exact
    /// enumeration visits each cross-user pair `total / (sᵢ·sⱼ)` times —
    /// and affordable there because each block has at most
    /// `Πᵢ sizes(i)` entries (the enumeration cap). Forward selection and
    /// coordinate descent touch each pair a handful of times and skip
    /// this (their dots are computed on demand).
    pub fn build_pair_blocks(&mut self, pool: &Pool) {
        let k = self.users();
        let mut blocks = Vec::with_capacity(k * k.saturating_sub(1) / 2);
        for i in 0..k {
            for j in (i + 1)..k {
                let (si, sj) = (self.size(i), self.size(j));
                let rows = pool.map_indexed(si, |ci| {
                    let gi = self.buf.offsets[i] + ci;
                    let mut row = Vec::with_capacity(sj);
                    for cj in 0..sj {
                        row.push(self.dot_cols(gi, self.buf.offsets[j] + cj));
                    }
                    row
                });
                let mut block = Vec::with_capacity(si * sj);
                for row in rows {
                    block.extend_from_slice(&row);
                }
                blocks.push(block);
            }
        }
        self.blocks = Some(blocks);
    }

    /// Evaluates one combination (slots in column order) and returns its
    /// data-space residual `‖F̂ − F′‖₂`; the fitted stretches stay in
    /// `scratch` ([`CacheScratch::stretches`]).
    ///
    /// On a cache built `seeded` the inner solve is warm-seeded: the
    /// active set starts from the full support (every placed source
    /// emitting) and is accepted outright when that guess passes
    /// feasibility and the KKT check, falling back to the cold iteration
    /// otherwise. The fallback *is* the cold solve, so seeding changes
    /// which work is done, not which floats come out, on non-degenerate
    /// fits.
    ///
    /// # Errors
    ///
    /// [`SolverError::ZeroSinks`] for an empty combination; linear-algebra
    /// failures propagate.
    pub fn evaluate_combo(
        &self,
        combo: &[Slot],
        scratch: &mut CacheScratch,
    ) -> Result<f64, SolverError> {
        self.assemble_combo(combo, scratch)?;
        self.solve_and_residual(combo, scratch)
    }

    fn assemble_combo(
        &self,
        combo: &[Slot],
        scratch: &mut CacheScratch,
    ) -> Result<(), SolverError> {
        if combo.is_empty() {
            return Err(SolverError::ZeroSinks);
        }
        telemetry::counter(names::SOLVER_OBJECTIVE_EVALS, 1);
        telemetry::counter(names::SOLVER_GRAM_COMBO_EVALS, 1);
        let k = combo.len();
        scratch.ensure_k(k);
        for (r, &a) in combo.iter().enumerate() {
            scratch.atb[r] = self.buf.proj[self.global(a)];
            scratch.gram[(r, r)] = self.buf.diag[self.global(a)];
            for (cshift, &b) in combo[r + 1..].iter().enumerate() {
                let c = r + 1 + cshift;
                let d = self.dot(a, b);
                scratch.gram[(r, c)] = d;
                scratch.gram[(c, r)] = d;
            }
        }
        Ok(())
    }

    /// Prepares a conditioner for probing candidates against `base`
    /// (slots in their combination order, probe to be inserted at
    /// `insert_at ≤ base.len()`).
    pub fn conditioner(&self, base: &[Slot], insert_at: usize) -> Conditioner {
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
            insert_at: insert_at.min(kb),
        }
    }

    /// Evaluates the combination formed by inserting `probe` into the
    /// conditioner's base at its insertion slot. Bit-identical to
    /// [`evaluate_combo`](ScoringCache::evaluate_combo) on the same slots,
    /// but reuses the base's pairwise inner products across probes.
    ///
    /// # Errors
    ///
    /// As for [`evaluate_combo`](ScoringCache::evaluate_combo).
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
        let k = kb + 1;
        let at = cond.insert_at;
        scratch.ensure_k(k);
        scratch.combo.clear();
        scratch.combo.extend_from_slice(&cond.base[..at]);
        scratch.combo.push(probe);
        scratch.combo.extend_from_slice(&cond.base[at..]);
        // Base rows/columns come from the precomputed base Gram; the
        // probe's row is `k − 1` cached-or-fresh dots plus its norm.
        for r in 0..kb {
            let rr = r + usize::from(r >= at);
            for c in 0..kb {
                let cc = c + usize::from(c >= at);
                scratch.gram[(rr, cc)] = cond.base_gram[r * kb + c];
            }
            scratch.atb[rr] = self.buf.proj[self.global(cond.base[r])];
            let d = self.dot(probe, cond.base[r]);
            scratch.gram[(at, rr)] = d;
            scratch.gram[(rr, at)] = d;
        }
        scratch.gram[(at, at)] = self.buf.diag[self.global(probe)];
        scratch.atb[at] = self.buf.proj[self.global(probe)];
    }

    /// Evaluates a combination and packages the winner as a [`SinkFit`]
    /// (positions in slot order, stretches, residual) — bit-identical to
    /// what [`FluxObjective::evaluate_columns`] returns for the same
    /// columns.
    ///
    /// # Errors
    ///
    /// As for [`evaluate_combo`](ScoringCache::evaluate_combo).
    pub fn fit_combo(
        &self,
        combo: &[Slot],
        scratch: &mut CacheScratch,
    ) -> Result<SinkFit, SolverError> {
        let residual = self.evaluate_combo(combo, scratch)?;
        Ok(SinkFit {
            // fluxlint: allow(hot-path-alloc) — winner packaging, once a round
            positions: combo.iter().map(|&s| self.position(s)).collect(),
            // fluxlint: allow(hot-path-alloc) — winner packaging, once a round
            stretches: scratch.stretches().to_vec(),
            residual,
        })
    }

    /// Hands the cache's buffers back to `scratch`, so the next build
    /// on it reuses their capacity instead of allocating.
    pub fn recycle(self, scratch: &mut CacheScratch) {
        scratch.buffers = self.buf;
    }

    fn global(&self, (i, c): Slot) -> usize {
        self.buf.offsets[i] + c
    }

    /// Inner product of two slots' columns: cross-user pairs come from
    /// the precomputed blocks when built, everything else is one ordered
    /// pass over the columns.
    fn dot(&self, a: Slot, b: Slot) -> f64 {
        if let Some(blocks) = &self.blocks {
            let ((i, ci), (j, cj)) = if a.0 <= b.0 { (a, b) } else { (b, a) };
            if i != j {
                let p = self.pair_index(i, j);
                return blocks[p][ci * self.size(j) + cj];
            }
        }
        self.dot_cols(self.global(a), self.global(b))
    }

    /// Upper-triangle pair index for users `i < j`.
    fn pair_index(&self, i: usize, j: usize) -> usize {
        let k = self.users();
        i * k - i * (i + 1) / 2 + (j - i - 1)
    }

    fn col(&self, g: usize) -> &[f64] {
        &self.buf.cols[g * self.n..(g + 1) * self.n]
    }

    fn dot_cols(&self, g: usize, h: usize) -> f64 {
        self.col(g)
            .iter()
            .zip(self.col(h))
            .map(|(x, y)| x * y)
            .sum()
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
        ]
    }

    fn legacy_fit(obj: &FluxObjective, cands: &[Vec<Point2>], combo: &[Slot]) -> SinkFit {
        let sinks: Vec<Point2> = combo.iter().map(|&(i, c)| cands[i][c]).collect();
        let cols: Vec<Vec<f64>> = sinks.iter().map(|&p| obj.basis_column(p)).collect();
        let col_refs: Vec<&[f64]> = cols.iter().map(Vec::as_slice).collect();
        obj.evaluate_columns(&sinks, &col_refs).unwrap()
    }

    #[test]
    fn cached_combo_is_bit_identical_to_column_path() {
        let truth = [
            (Point2::new(12.0, 17.0), 2.0),
            (Point2::new(22.0, 21.0), 1.0),
        ];
        let obj = objective_for(&truth);
        let cands = demo_candidates();
        let pool = Pool::with_threads(2);
        let cache = obj.scoring_cache(&cands, &pool, false, &mut CacheScratch::new());
        let mut scratch = CacheScratch::new();
        for c0 in 0..cands[0].len() {
            for c1 in 0..cands[1].len() {
                let combo = [(0, c0), (1, c1)];
                let want = legacy_fit(&obj, &cands, &combo);
                let got = cache.fit_combo(&combo, &mut scratch).unwrap();
                assert_eq!(want.residual.to_bits(), got.residual.to_bits());
                assert_eq!(want.stretches, got.stretches);
                assert_eq!(want.positions, got.positions);
            }
        }
        // Singletons (the greedy initialization shape) too.
        for c in 0..cands[1].len() {
            let want = legacy_fit(&obj, &cands, &[(1, c)]);
            let got = cache.evaluate_combo(&[(1, c)], &mut scratch).unwrap();
            assert_eq!(want.residual.to_bits(), got.to_bits());
        }
    }

    #[test]
    fn pair_blocks_change_no_bits() {
        let truth = [(Point2::new(8.0, 8.0), 1.5), (Point2::new(25.0, 25.0), 2.0)];
        let obj = objective_for(&truth);
        let cands = demo_candidates();
        let pool = Pool::with_threads(2);
        let plain = obj.scoring_cache(&cands, &pool, false, &mut CacheScratch::new());
        let mut blocked = obj.scoring_cache(&cands, &pool, false, &mut CacheScratch::new());
        blocked.build_pair_blocks(&pool);
        let mut s1 = CacheScratch::new();
        let mut s2 = CacheScratch::new();
        for c0 in 0..cands[0].len() {
            for c1 in 0..cands[1].len() {
                let combo = [(0, c0), (1, c1)];
                let a = plain.evaluate_combo(&combo, &mut s1).unwrap();
                let b = blocked.evaluate_combo(&combo, &mut s2).unwrap();
                assert_eq!(a.to_bits(), b.to_bits());
                // Reversed slot order hits the block transposed.
                let combo = [(1, c1), (0, c0)];
                let a = plain.evaluate_combo(&combo, &mut s1).unwrap();
                let b = blocked.evaluate_combo(&combo, &mut s2).unwrap();
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn conditioned_eval_matches_direct_at_any_insertion_slot() {
        let truth = [
            (Point2::new(12.0, 17.0), 2.0),
            (Point2::new(18.0, 9.0), 1.0),
        ];
        let obj = objective_for(&truth);
        let cands = demo_candidates();
        let pool = Pool::with_threads(1);
        let cache = obj.scoring_cache(&cands, &pool, false, &mut CacheScratch::new());
        let mut scratch = CacheScratch::new();
        let base = [(0, 1), (1, 2)];
        for insert_at in 0..=base.len() {
            let cond = cache.conditioner(&base, insert_at);
            for probe_c in 0..cands[1].len() {
                let probe = (1, probe_c);
                let mut combo: Vec<Slot> = base.to_vec();
                combo.insert(insert_at, probe);
                let direct = cache.evaluate_combo(&combo, &mut scratch).unwrap();
                let conditioned = cache
                    .evaluate_conditioned(&cond, probe, &mut scratch)
                    .unwrap();
                assert_eq!(direct.to_bits(), conditioned.to_bits(), "slot {insert_at}");
            }
        }
    }

    #[test]
    fn cache_rejects_empty_combination() {
        let obj = objective_for(&[(Point2::new(8.0, 8.0), 1.0)]);
        let pool = Pool::with_threads(1);
        let cache = obj.scoring_cache(&demo_candidates(), &pool, false, &mut CacheScratch::new());
        let mut scratch = CacheScratch::new();
        assert!(matches!(
            cache.evaluate_combo(&[], &mut scratch),
            Err(SolverError::ZeroSinks)
        ));
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
    fn seeded_evaluations_match_cold_bitwise() {
        let truth = [
            (Point2::new(12.0, 17.0), 2.0),
            (Point2::new(22.0, 21.0), 1.0),
        ];
        let obj = objective_for(&truth);
        let cands = demo_candidates();
        let pool = Pool::with_threads(1);
        let cold = obj.scoring_cache(&cands, &pool, false, &mut CacheScratch::new());
        let warm = obj.scoring_cache(&cands, &pool, true, &mut CacheScratch::new());
        let mut sa = CacheScratch::new();
        let mut sb = CacheScratch::new();
        let before = fluxprint_telemetry::snapshot();
        for c0 in 0..cands[0].len() {
            for c1 in 0..cands[1].len() {
                let combo = [(0, c0), (1, c1)];
                let a = cold.fit_combo(&combo, &mut sa).unwrap();
                let b = warm.fit_combo(&combo, &mut sb).unwrap();
                assert_eq!(a.residual.to_bits(), b.residual.to_bits());
                assert_eq!(a.stretches, b.stretches);
            }
        }
        let cond = cold.conditioner(&[(0, 1)], 1);
        for c1 in 0..cands[1].len() {
            let a = cold.evaluate_conditioned(&cond, (1, c1), &mut sa).unwrap();
            let b = warm.evaluate_conditioned(&cond, (1, c1), &mut sb).unwrap();
            assert_eq!(a.to_bits(), b.to_bits());
        }
        // The seeded cache took the seeded-or-fallback solve every time.
        let after = fluxprint_telemetry::snapshot();
        let seeded = |s: &fluxprint_telemetry::Snapshot| {
            s.counter(names::SOLVER_NNLS_WARM_HITS) + s.counter(names::SOLVER_NNLS_WARM_MISSES)
        };
        assert!(
            seeded(&after) - seeded(&before) >= 16,
            "seeded solves recorded"
        );
    }

    #[test]
    fn cache_layout_accessors() {
        let obj = objective_for(&[(Point2::new(8.0, 8.0), 1.0)]);
        let cands = demo_candidates();
        let pool = Pool::with_threads(1);
        let cache = obj.scoring_cache(&cands, &pool, false, &mut CacheScratch::new());
        assert_eq!(cache.users(), 2);
        assert_eq!(cache.size(0), 3);
        assert_eq!(cache.size(1), 4);
        assert_eq!(cache.position((1, 2)), cands[1][2]);
    }
}
