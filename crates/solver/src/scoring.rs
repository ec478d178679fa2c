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
//! Exact evaluations return residuals and stretches **bit-identical** to
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
//! # Certified screening
//!
//! A scan's consumer reads only its cut: a bid reads the argmin of each
//! candidate class, a final scan the top `keep_m` (§4.C's top M).
//! [`ScoringCache::scan_conditioned`] therefore scores in two passes.
//! Pass 1 gives every probe a certified lower bound on the residual the
//! exact evaluation would return, from weak duality, with no NNLS solve
//! and no data-space pass. Pass 2 runs the exact evaluation only for the
//! probes whose bound can still reach the cut; every other probe reads
//! `+∞` and is strictly worse than `keep` exactly evaluated ones. So the
//! consumer's sort or argmin sees exactly what an exhaustive scan shows
//! it. DESIGN §9 ("Certified screening") derives the bound and its
//! rounding allowance.
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

use std::ops::{Range, RangeInclusive};

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

/// Unit roundoff of `f64`, `u = 2⁻⁵³`.
const U: f64 = f64::EPSILON / 2.0;

/// Where `‖F′‖²` and every screened column's `cᵀc` must lie for the
/// screening bound to apply. `[1e-270, 1e270]` sits inside `[2⁻⁹⁰⁰,
/// 2⁹⁰⁰]`, which keeps overflow out of the bound and its underflow
/// below one rounding unit (DESIGN §9).
const SCREEN_RANGE: RangeInclusive<f64> = 1e-270..=1e270;

/// Absolute allowance for underflow in the exact residual; it exceeds
/// `2⁻⁵⁰⁰` (DESIGN §9).
const UNDERFLOW: f64 = 1e-150;

/// Per-window precompute that makes combination scoring independent of
/// the sniffer count `n` (up to one exact residual pass).
///
/// Build once per observation window with
/// [`FluxObjective::scoring_cache`], then score one user's candidates
/// against a fixed base with
/// [`scan_conditioned`](ScoringCache::scan_conditioned), the
/// forward-selection shape. All evaluation is `&self`, so one cache
/// serves any number of worker threads.
#[derive(Debug)]
pub struct ScoringCache<'a> {
    objective: &'a FluxObjective,
    n: usize,
    buf: CacheBuffers,
    /// Whether inner solves are seeded from the full support (the warm
    /// path).
    seeded: bool,
    /// `‖F′‖²` and its square root, as rounded; `None` when `‖F′‖²` is
    /// outside [`SCREEN_RANGE`], which makes every bound `−∞`.
    flux: Option<(f64, f64)>,
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
/// system, its right-hand side, the NNLS scratch, the slot list for
/// conditioned evaluations, and the scan buffers. Steady-state evaluation
/// allocates only when the combination size `k` changes. Between builds
/// it also keeps the scoring cache's own buffers (see
/// [`ScoringCache::recycle`]).
#[derive(Debug)]
pub struct CacheScratch {
    nnls: NnlsScratch,
    gram: Matrix,
    gram_k: usize,
    atb: Vec<f64>,
    combo: Vec<Slot>,
    support: Vec<bool>,
    /// Screening bound workspace: a probe's dots with the base, then the
    /// joint fit's `G_B⁻¹e` and clamped base point.
    bound: Vec<f64>,
    /// A scan's probes, the first `keep` by bound after pass 2's select.
    order: Vec<usize>,
    /// A scan's result, one residual per probe.
    scan: Vec<f64>,
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
            // fluxlint: allow(hot-path-alloc) — buffer is reused across probes
            bound: Vec::new(),
            // fluxlint: allow(hot-path-alloc) — buffer is reused across scans
            order: Vec::new(),
            // fluxlint: allow(hot-path-alloc) — buffer is reused across scans
            scan: Vec::new(),
            buffers: CacheBuffers::default(),
        }
    }

    /// The fitted stretch factors left by the most recent exact
    /// evaluation.
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
    /// The base's share of the screening bound; `None` when a base
    /// column's norm is outside [`SCREEN_RANGE`], which makes every bound
    /// `−∞`.
    screen: Option<BaseScreen>,
}

/// What the screening bound needs of a conditioner's base `B`, derived
/// once per conditioner.
#[derive(Debug)]
struct BaseScreen {
    /// Per base column, in base order.
    cols: Vec<BaseCol>,
    /// `G_B⁻¹`, row-major; `None` when `G_B` is not numerically positive
    /// definite, which leaves only the bound's point (ii).
    inv: Option<Vec<f64>>,
    /// Point (ii)'s base terms, at `q_B`.
    terms: Terms,
}

/// One base column's screening data.
#[derive(Debug, Clone, Copy)]
struct BaseCol {
    /// `p_j = c_jᵀF′`.
    proj: f64,
    /// `Q_j = 2‖F′‖/‖c_j‖`: no NNLS optimum has `x_j > Q_j`.
    cap: f64,
    /// `z_j`, the base's unconstrained fit `G_B⁻¹p_B` (0 without `inv`).
    fit: f64,
    /// `q_B,j`: `z_j` clamped to `[0, Q_j]`.
    point: f64,
}

/// The sums a feasible point `q` contributes to the bound, column by
/// column; with `g = Gq − p`.
#[derive(Debug, Clone, Copy, Default)]
struct Terms {
    /// `qᵀGq`.
    quad: f64,
    /// `Σ_j max(0, −g_j)·Q_j`, the box penalty.
    penalty: f64,
    /// `Σ_j ((Gq)_j + p_j)·Q_j`, which scales the rounding error of `g`.
    spread: f64,
}

impl Terms {
    /// Adds column `j`'s share from `(Gq)_j`, `p_j`, `q_j` and `Q_j`.
    fn add(&mut self, gq: f64, proj: f64, q: f64, cap: f64) {
        self.quad += q * gq;
        let short = proj - gq;
        if short > 0.0 {
            self.penalty += short * cap;
        }
        self.spread += (gq + proj) * cap;
    }
}

/// `x` clamped to the box `[0, cap]`; NaN goes to 0. Any point in the
/// box is feasible for the bound, so the clamp needs no care.
fn clamp_box(x: f64, cap: f64) -> f64 {
    x.max(0.0).min(cap)
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
        let flux_sq: f64 = measurements.iter().map(|m| m * m).sum();
        ScoringCache {
            objective: self,
            n,
            buf,
            seeded,
            flux: SCREEN_RANGE
                .contains(&flux_sq)
                .then(|| (flux_sq, flux_sq.sqrt())),
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
        let screen = self.base_screen(base, &base_gram);
        Conditioner {
            // fluxlint: allow(hot-path-alloc) — amortized across all probes
            base: base.to_vec(),
            base_gram,
            screen,
        }
    }

    /// The base's share of the screening bound: each column's projection
    /// and box, the base's clamped unconstrained fit `q_B`, and point
    /// (ii)'s base terms at `q_B`.
    fn base_screen(&self, base: &[Slot], gram: &[f64]) -> Option<BaseScreen> {
        let (_, flux_norm) = self.flux?;
        let kb = base.len();
        let mut cols = base
            .iter()
            .map(|&s| {
                let g = self.global(s);
                let diag = self.buf.diag[g];
                SCREEN_RANGE.contains(&diag).then(|| BaseCol {
                    proj: self.buf.proj[g],
                    cap: 2.0 * flux_norm / diag.sqrt(),
                    fit: 0.0,
                    point: 0.0,
                })
            })
            // fluxlint: allow(hot-path-alloc) — once per conditioner, probed many times
            .collect::<Option<Vec<_>>>()?;
        let inv = invert_spd(gram, kb);
        if let Some(inv) = &inv {
            for r in 0..kb {
                let row = &inv[r * kb..(r + 1) * kb];
                let fit: f64 = row.iter().zip(&cols).map(|(a, c)| a * c.proj).sum();
                cols[r].fit = fit;
                cols[r].point = clamp_box(fit, cols[r].cap);
            }
        }
        let mut terms = Terms::default();
        for (r, c) in cols.iter().enumerate() {
            let row = &gram[r * kb..(r + 1) * kb];
            let gq = row.iter().zip(&cols).map(|(a, b)| a * b.point).sum();
            terms.add(gq, c.proj, c.point, c.cap);
        }
        Some(BaseScreen { cols, inv, terms })
    }

    /// Evaluates the combination of `probe` followed by the conditioner's
    /// base and returns its data-space residual `‖F̂ − F′‖₂`; the fitted
    /// stretches stay in `scratch` ([`CacheScratch::stretches`]), probe
    /// first. Residual and stretches are bit-identical to
    /// [`FluxObjective::evaluate_columns`] on the same columns in the same
    /// order, and the base's pairwise inner products are reused across
    /// probes. This is the exact evaluation that
    /// [`scan_conditioned`](ScoringCache::scan_conditioned) runs for
    /// every probe that can rank, and the oracle its tests hold it to.
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
        telemetry::counter(names::SOLVER_OBJECTIVE_EVALS, 1);
        telemetry::counter(names::SOLVER_GRAM_COMBO_EVALS, 1);
        self.exact(cond, probe, scratch)
    }

    /// Scores user `user`'s candidates `range` against `cond` for a
    /// consumer that reads only the first `keep` of them in (residual,
    /// index) order, and returns one residual per candidate of `range`,
    /// in order.
    ///
    /// Every candidate that can rank holds exactly what
    /// [`evaluate_conditioned`](ScoringCache::evaluate_conditioned)
    /// returns for it. Every other one holds `+∞` and is strictly worse
    /// than `keep` candidates holding exact residuals. So a stable sort
    /// by `total_cmp` cut at `keep`, or for `keep == 1` a strict-`<`
    /// argmin, picks the same candidates in the same order with the same
    /// bits as it would over an exhaustive scan. The stretches left in
    /// `scratch` are those of the last exact evaluation.
    ///
    /// - Pass 1, on `pool`, bounds every probe from below (DESIGN §9,
    ///   "Certified screening"); each counts one objective evaluation and
    ///   one Gram combination evaluation.
    /// - Pass 2, on the caller's thread, evaluates exactly the `keep`
    ///   probes with the smallest bounds (ties by index), then every
    ///   other probe whose bound is not above τ, the largest of their
    ///   residuals. A NaN among those residuals evaluates every probe.
    ///
    /// Pass 2's set depends only on bounds and exact residuals, so the
    /// result is identical at any pool width.
    ///
    /// # Errors
    ///
    /// Linear-algebra failures of the exact evaluations propagate.
    pub fn scan_conditioned<'s>(
        &self,
        cond: &Conditioner,
        user: usize,
        range: Range<usize>,
        keep: usize,
        pool: &Pool,
        scratch: &'s mut CacheScratch,
    ) -> Result<&'s [f64], SolverError> {
        let (start, len) = (range.start, range.len());
        telemetry::counter(names::SOLVER_OBJECTIVE_EVALS, len as u64);
        telemetry::counter(names::SOLVER_GRAM_COMBO_EVALS, len as u64);
        let bounds = pool.map_reusing(len, scratch, CacheScratch::new, |s, c| {
            self.bound(cond, (user, start + c), s)
        });
        // Pass 2. The scan buffers move out of the scratch to satisfy
        // borrows and go back at the end; an error drops only their
        // capacity.
        let mut order = std::mem::take(&mut scratch.order);
        let mut out = std::mem::take(&mut scratch.scan);
        let keep = keep.min(len);
        order.clear();
        order.extend(0..len);
        if 0 < keep && keep < len {
            order.select_nth_unstable_by(keep - 1, |&a, &b| {
                bounds[a].total_cmp(&bounds[b]).then(a.cmp(&b))
            });
        }
        out.clear();
        out.resize(len, f64::INFINITY);
        let (first, rest) = order.split_at(keep);
        for &c in first {
            out[c] = self.exact(cond, (user, start + c), scratch)?;
        }
        // τ = +∞ turns screening off: no bound exceeds it.
        let tau = first.iter().fold(f64::NEG_INFINITY, |tau, &c| {
            if out[c].is_nan() {
                f64::INFINITY
            } else {
                tau.max(out[c])
            }
        });
        for &c in rest {
            if bounds[c] <= tau {
                out[c] = self.exact(cond, (user, start + c), scratch)?;
            }
        }
        scratch.order = order;
        scratch.scan = out;
        Ok(&scratch.scan)
    }

    /// Pass 1: a lower bound on the float
    /// [`evaluate_conditioned`](ScoringCache::evaluate_conditioned)
    /// returns for `probe`, with no NNLS solve and no data-space pass;
    /// `−∞` where the bound does not apply. Pure in its inputs: the
    /// scratch is workspace only.
    ///
    /// With `C = [c, B]` the probe's and the base's columns, any `q ≥ 0`
    /// gives `min_{x≥0} ‖Cx − F′‖² ≥ ‖F′‖² − qᵀGq − 2·Σ_j max(0,
    /// −g_j)·Q_j` (`g = Gq − p`). This tries two points, keeps the larger
    /// bound, and subtracts a rounding allowance: (i) the clamped
    /// unconstrained joint fit, by the Schur complement of the base's
    /// `G_B⁻¹`, and (ii) `(0, q_B)`. The allowance rests on the DESIGN §9
    /// derivation, which random tests can probe but not certify.
    fn bound(&self, cond: &Conditioner, probe: Slot, scratch: &mut CacheScratch) -> f64 {
        let (Some((flux_sq, flux_norm)), Some(base)) = (self.flux, &cond.screen) else {
            return f64::NEG_INFINITY;
        };
        let g = self.global(probe);
        let (diag, proj) = (self.buf.diag[g], self.buf.proj[g]);
        if !SCREEN_RANGE.contains(&diag) {
            return f64::NEG_INFINITY;
        }
        let kb = cond.base.len();
        let cap = 2.0 * flux_norm / diag.sqrt();
        let work = &mut scratch.bound;
        work.clear();
        work.resize(3 * kb, 0.0);
        let (dots, rest) = work.split_at_mut(kb);
        let (w, q) = rest.split_at_mut(kb);
        for (d, &b) in dots.iter_mut().zip(&cond.base) {
            *d = lanes_dot(self.col(g), self.col(self.global(b)));
        }

        // Point (ii): the probe adds nothing.
        let mut terms = base.terms;
        let gq: f64 = dots.iter().zip(&base.cols).map(|(d, c)| d * c.point).sum();
        terms.add(gq, proj, 0.0, cap);
        let mut lower = self.lower(flux_sq, kb + 1, terms);

        // Point (i): the unconstrained joint fit `(x₀, z − w·x₀)`, with
        // `w = G_B⁻¹e` and `x₀ = (p₀ − eᵀz)/(d₀ − eᵀw)`, clamped.
        if let Some(inv) = &base.inv {
            for (r, wr) in w.iter_mut().enumerate() {
                let row = &inv[r * kb..(r + 1) * kb];
                *wr = row.iter().zip(dots.iter()).map(|(a, d)| a * d).sum();
            }
            let schur = diag - dots.iter().zip(w.iter()).map(|(d, w)| d * w).sum::<f64>();
            if schur > 0.0 && schur.is_finite() {
                let fit_z: f64 = dots.iter().zip(&base.cols).map(|(d, c)| d * c.fit).sum();
                let x0 = (proj - fit_z) / schur;
                for ((qr, wr), c) in q.iter_mut().zip(w.iter()).zip(&base.cols) {
                    *qr = clamp_box(c.fit - wr * x0, c.cap);
                }
                let q0 = clamp_box(x0, cap);
                let mut terms = Terms::default();
                let gq0 = diag * q0 + dots.iter().zip(q.iter()).map(|(d, q)| d * q).sum::<f64>();
                terms.add(gq0, proj, q0, cap);
                for (r, c) in base.cols.iter().enumerate() {
                    let row = &cond.base_gram[r * kb..(r + 1) * kb];
                    let gq =
                        dots[r] * q0 + row.iter().zip(q.iter()).map(|(a, q)| a * q).sum::<f64>();
                    terms.add(gq, c.proj, q[r], c.cap);
                }
                lower = lower.max(self.lower(flux_sq, kb + 1, terms));
            }
        }
        self.residual_floor(lower, kb + 1, flux_norm)
    }

    /// `‖F′‖² − qᵀGq − 2·penalty` less its rounding allowance: a lower
    /// bound on the squared NNLS residual of a `k`-column combination in
    /// exact arithmetic on the stored columns (DESIGN §9).
    fn lower(&self, flux_sq: f64, k: usize, t: Terms) -> f64 {
        let (n, k) = (self.n as f64, k as f64);
        let value = (flux_sq - t.quad) - 2.0 * t.penalty;
        let scale = (n + 2.0 * k + 6.0) * (flux_sq + t.quad + 2.0 * t.penalty);
        value - 4.0 * U * (scale + (n + k + 2.0) * t.spread)
    }

    /// Turns `lower`, a bound on the squared residual, into one on the
    /// float the exact evaluation returns, which loses at most `γ_k` in
    /// each prediction, `γ_{n+1}` in the sum of squares and `u` in the
    /// square root (DESIGN §9). `−∞` for a non-finite `lower`.
    fn residual_floor(&self, lower: f64, k: usize, flux_norm: f64) -> f64 {
        if !lower.is_finite() {
            return f64::NEG_INFINITY;
        }
        let (n, k) = (self.n as f64, k as f64);
        let root = lower.max(0.0).sqrt();
        let inner = (1.0 - 4.0 * (k + 2.0) * U) * root - 4.0 * (k + 2.0) * U * flux_norm;
        (1.0 - 8.0 * (n + 5.0) * U) * inner - UNDERFLOW
    }

    /// The exact evaluation, uncounted: Gram assembly, NNLS and the exact
    /// data residual.
    fn exact(
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
        telemetry::counter(names::SOLVER_RESIDUAL_EXACT, 1);
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

/// `aᵀb` accumulated in four interleaved lanes. The bits differ from the
/// ordered [`ScoringCache::dot`], which the bound does not need: its
/// error analysis holds for any summation order of non-negative terms,
/// and four lanes cut the ordered sum's chain of dependent adds by four.
fn lanes_dot(a: &[f64], b: &[f64]) -> f64 {
    let (a4, b4) = (a.chunks_exact(4), b.chunks_exact(4));
    let tail: f64 = a4
        .remainder()
        .iter()
        .zip(b4.remainder())
        .map(|(x, y)| x * y)
        .sum();
    let mut lanes = [0.0; 4];
    for (x, y) in a4.zip(b4) {
        for ((s, x), y) in lanes.iter_mut().zip(x).zip(y) {
            *s += x * y;
        }
    }
    (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]) + tail
}

/// `a⁻¹` for a symmetric `k × k` matrix (row-major) by in-place
/// Gauss–Jordan elimination without pivoting; `None` when a pivot is not
/// positive and finite, i.e. `a` is not numerically positive definite.
/// Only the bound uses it, and the bound holds at any point, so its
/// accuracy decides tightness, never validity.
fn invert_spd(a: &[f64], k: usize) -> Option<Vec<f64>> {
    // fluxlint: allow(hot-path-alloc) — once per conditioner, probed many times
    let mut m = a.to_vec();
    for p in 0..k {
        let pivot = m[p * k + p];
        if !(pivot > 0.0 && pivot.is_finite()) {
            return None;
        }
        m[p * k + p] = 1.0;
        for c in 0..k {
            m[p * k + c] /= pivot;
        }
        for r in (0..k).filter(|&r| r != p) {
            let f = m[r * k + p];
            m[r * k + p] = 0.0;
            for c in 0..k {
                m[r * k + c] -= f * m[p * k + c];
            }
        }
    }
    Some(m)
}

// fluxlint: endregion(hot-path)

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SinkFit;
    use fluxprint_fluxmodel::FluxModel;
    use fluxprint_geometry::Rect;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
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

    /// A random observation in the 30 m square: `n` sniffers, `users`
    /// sources, flux with relative noise `noise` scaled by `scale`. Each
    /// user's candidates: four random spots, the true source, a point
    /// 1 cm from it (near-exact fits), a spot every user shares (so a
    /// base can hold two equal columns) and a duplicate of the first.
    fn random_instance(
        seed: u64,
        n: usize,
        users: usize,
        noise: f64,
        scale: f64,
    ) -> (FluxObjective, Vec<Vec<Point2>>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let field = Rect::square(30.0).unwrap();
        let model = FluxModel::default();
        let spot =
            |rng: &mut StdRng| Point2::new(rng.gen_range(1.0..29.0), rng.gen_range(1.0..29.0));
        let sniffers: Vec<Point2> = (0..n).map(|_| spot(&mut rng)).collect();
        let truth: Vec<(Point2, f64)> = (0..users)
            .map(|_| (spot(&mut rng), rng.gen_range(0.5..3.0)))
            .collect();
        let measured: Vec<f64> = sniffers
            .iter()
            .map(|&p| {
                let flux = model.predict_superposed(&truth, p, &field);
                scale * flux * (1.0 + noise * rng.gen_range(-1.0..1.0))
            })
            .collect();
        let shared = spot(&mut rng);
        let candidates = truth
            .iter()
            .map(|&(source, _)| {
                let mut set: Vec<Point2> = (0..4).map(|_| spot(&mut rng)).collect();
                set.extend([
                    source,
                    Point2::new(source.x + 0.01, source.y),
                    shared,
                    set[0],
                ]);
                set
            })
            .collect();
        let obj = FluxObjective::new(Arc::new(field), model, sniffers, measured).unwrap();
        (obj, candidates)
    }

    /// Every base `associate` can build against user `probe`: the other
    /// users in either order, each placed on its true source (slot 4) or
    /// on the shared spot (slot 6), for every base size.
    fn bases_for(probe: usize, users: usize) -> Vec<Vec<Slot>> {
        let others: Vec<usize> = (0..users).filter(|&u| u != probe).collect();
        let mut bases = vec![vec![]];
        for &a in &others {
            for ca in [4, 6] {
                bases.push(vec![(a, ca)]);
                for &b in others.iter().filter(|&&b| b != a) {
                    for cb in [4, 6] {
                        bases.push(vec![(a, ca), (b, cb)]);
                    }
                }
            }
        }
        bases
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The screening bound never exceeds what `evaluate_conditioned`
        /// returns for the same probe, on cold and seeded caches, at
        /// every base size, across sniffer counts, noise, flux scales,
        /// duplicate candidates and near-exact fits; and it is tight
        /// somewhere, so the check is not vacuous.
        ///
        /// Random probes cannot certify the rounding allowance. Near-exact
        /// fits catch a bound that drops its squared-residual allowance,
        /// whose `‖F′‖² − qᵀGq` cancels there, but a bound that drops the
        /// few-ulp factors of its final conversion passes this test too.
        /// That the allowance covers every rounding rests on the
        /// derivation in DESIGN §9 ("Certified screening"); this test
        /// guards the inequality, the feasible points and the fallbacks.
        #[test]
        fn bound_never_exceeds_the_exact_residual(
            seed in 0u64..u64::MAX,
            n in 3usize..=120,
            users in 1usize..=3,
            noise in 0usize..2,
            scale in 0usize..3,
        ) {
            let (noise, scale) = ([0.0, 0.05][noise], [1e-120, 1.0, 1e120][scale]);
            let (obj, cands) = random_instance(seed, n, users, noise, scale);
            let pool = Pool::with_threads(1);
            let mut tight = 0;
            for seeded in [false, true] {
                let cache = obj.scoring_cache(&cands, &pool, seeded, &mut CacheScratch::new());
                let mut scratch = CacheScratch::new();
                for user in 0..users {
                    for base in bases_for(user, users) {
                        let cond = cache.conditioner(&base);
                        for c in 0..cache.size(user) {
                            let bound = cache.bound(&cond, (user, c), &mut scratch);
                            // A base holding the shared spot twice is singular,
                            // and there the exact solve may fail: no oracle.
                            let Ok(exact) =
                                cache.evaluate_conditioned(&cond, (user, c), &mut scratch)
                            else {
                                continue;
                            };
                            prop_assert!(
                                bound <= exact,
                                "bound {bound:e} > exact {exact:e}: seeded={seeded} \
                                 probe=({user}, {c}) base={base:?}"
                            );
                            tight += usize::from(exact > 0.0 && bound >= exact * (1.0 - 1e-6));
                        }
                    }
                }
            }
            // At 1e-120 every gradient is below the exact solve's absolute
            // KKT tolerance, so it stops at x = 0 and returns ‖F′‖: no
            // bound of a true minimum is tight against that.
            prop_assert!(
                scale < 1.0 || tight > 0,
                "no bound within 1e-6 of its exact residual"
            );
        }
    }

    #[test]
    fn bound_falls_back_outside_its_range() {
        let cands = demo_candidates();
        let pool = Pool::with_threads(1);
        let mut scratch = CacheScratch::new();
        // Silence: ‖F′‖² = 0 is below the range, so every bound is −∞
        // and every probe of a scan is evaluated exactly.
        let field = Rect::square(30.0).unwrap();
        let sniffers = vec![Point2::new(5.0, 5.0), Point2::new(25.0, 25.0)];
        let silent = FluxObjective::new(
            Arc::new(field),
            FluxModel::default(),
            sniffers,
            vec![0.0; 2],
        )
        .unwrap();
        let cache = silent.scoring_cache(&cands, &pool, false, &mut CacheScratch::new());
        let cond = cache.conditioner(&[(0, 0)]);
        for c in 0..cache.size(1) {
            assert_eq!(cache.bound(&cond, (1, c), &mut scratch), f64::NEG_INFINITY);
        }
        let before = fluxprint_telemetry::snapshot().counter(names::SOLVER_RESIDUAL_EXACT);
        let scanned = cache
            .scan_conditioned(&cond, 1, 0..cache.size(1), 1, &pool, &mut scratch)
            .unwrap();
        assert!(scanned.iter().all(|r| r.is_finite()));
        let after = fluxprint_telemetry::snapshot().counter(names::SOLVER_RESIDUAL_EXACT);
        assert!(after - before >= cache.size(1) as u64);
    }

    #[test]
    fn invert_spd_inverts_and_rejects() {
        let a = [4.0, 2.0, 1.0, 2.0, 5.0, 3.0, 1.0, 3.0, 6.0];
        let inv = invert_spd(&a, 3).unwrap();
        for r in 0..3 {
            for c in 0..3 {
                let v: f64 = (0..3).map(|j| a[r * 3 + j] * inv[j * 3 + c]).sum();
                let want = if r == c { 1.0 } else { 0.0 };
                assert!((v - want).abs() < 1e-12, "({r}, {c}): {v}");
            }
        }
        assert_eq!(invert_spd(&[], 0), Some(vec![]));
        // Two equal columns make a singular Gram.
        assert_eq!(invert_spd(&[1.0, 1.0, 1.0, 1.0], 2), None);
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
