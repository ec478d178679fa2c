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
//! - inner products accumulate in observation order. The cache's sums
//!   fold from `−0.0`, as `f64: Sum` does; [`Matrix::gram`] and
//!   `tr_matvec` fold from `+0.0` and skip exact-zero terms. The bits
//!   still agree because every summed product is `≥ +0` (columns and
//!   flux are non-negative): `−0.0 + x` and `+0.0 + x` are both `x` for
//!   such an `x`, and a skipped term is a `+0.0` that cannot change a sum
//!   that is `≥ +0`;
//! - the `k × k` Gram system is handed to the same active-set core
//!   ([`fluxprint_linalg::nnls_gram_into`]) that the dense path feeds its
//!   normal equations, so the coefficient vector matches bit-for-bit;
//! - the residual is *not* taken from the Gram identity
//!   `‖b‖² − 2xᵀAᵀb + xᵀGx` (which cancels catastrophically for the
//!   near-exact fits the tracker hunts for) but recomputed from the
//!   columns with the same per-row summation order as `Matrix::matvec`.
//!
//! An exact evaluation resolves its columns once: the probe's dots with
//! the base are summed side by side in one pass over the rows (the
//! [`Conditioner`] keeps its base columns interleaved by row), and the
//! prediction `F̂` is built one whole column at a time, which gives every
//! row the same sequence of adds as the dense row-by-row product.
//! [`ScoringCache::joint_fit`] serves the tracker's joint fit of its
//! selected sources the same way, as one exact evaluation,
//! bit-identical to [`FluxObjective::evaluate`] on their positions.
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
//! Pass 1 is a batch kernel over chunks of `PROBE_CHUNK` probes, in
//! structure-of-arrays form: the probes' dots with the base, the two
//! feasible points, the squared-residual bound and its conversion to a
//! residual floor are each one loop across the chunk, so baseline SSE2
//! runs them across probes for any base size. Each probe still sees the
//! operations of the scalar bound, a test-only oracle, on the same
//! operands in the same order, so every bound, and with it every
//! screening decision, has the scalar's bits.
//!
//! # The build
//!
//! [`FluxObjective::scoring_cache`] writes every candidate's column with
//! the flux model's batch kernel ([`FluxModel::basis_columns`]), straight
//! into one flat buffer, and its projection and norm beside it, summing
//! four candidates side by side (each in observation order) so that their
//! chains of dependent adds overlap. The buffers come out of the caller's
//! [`CacheScratch`] and go back with [`ScoringCache::recycle`], so a
//! worker that builds a cache every round stops allocating after its
//! first. Every inner solve is the cold active-set solve, in warm
//! sessions too, so the dense column path pins every exact evaluation.
//!
//! [`FluxModel::basis_columns`]: fluxprint_fluxmodel::FluxModel::basis_columns

use std::ops::{Range, RangeInclusive};

use fluxprint_geometry::Point2;
use fluxprint_linalg::{nnls_gram_into, Matrix, NnlsScratch};
use fluxprint_telemetry::{self as telemetry, names};

use crate::{FluxObjective, SinkFit, SolverError};

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
/// forward-selection shape. All evaluation is `&self`.
#[derive(Debug)]
pub struct ScoringCache<'a> {
    objective: &'a FluxObjective,
    n: usize,
    buf: CacheBuffers,
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

/// Candidates per chunk of the cache build: each chunk's columns are
/// projected while they are still in cache.
const BUILD_CHUNK: usize = 64;

/// Probes per chunk of a scan's pass 1. Each chunk runs every step of the
/// bound as one loop across its probes; the chunks partition a scan by
/// its length alone.
const PROBE_CHUNK: usize = 16;

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
    /// An exact evaluation's probe–base dots.
    dots: Vec<f64>,
    /// An exact evaluation's prediction `F̂`, one value per sniffer.
    pred: Vec<f64>,
    /// A scan's pass-1 bounds, one per probe.
    bounds: Vec<f64>,
    /// Pass 1's workspace: per probe, its dots with the base, then the
    /// joint fit's `G_B⁻¹e` overwritten by its clamped base point.
    bound_work: Vec<f64>,
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
            dots: Vec::new(),
            // fluxlint: allow(hot-path-alloc) — buffer is reused across evals
            pred: Vec::new(),
            // fluxlint: allow(hot-path-alloc) — buffer is reused across scans
            bounds: Vec::new(),
            // fluxlint: allow(hot-path-alloc) — buffer is reused across scans
            bound_work: Vec::new(),
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
    /// The base columns interleaved by row: sniffer `t`'s values, in base
    /// order, at `base_rows[t·(k−1) ..]`.
    base_rows: Vec<f64>,
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
    /// projections, and norms are written in place, chunk by chunk, into
    /// buffers taken from `scratch`; hand them back with
    /// [`ScoringCache::recycle`].
    pub fn scoring_cache<'a>(
        &'a self,
        candidates: &[Vec<Point2>],
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
        // Every element below is overwritten chunk by chunk, so resizing
        // never needs to clear.
        buf.cols.resize(total * n, 0.0);
        buf.proj.resize(total, 0.0);
        buf.diag.resize(total, 0.0);
        let (model, boundary, measurements) = (self.model(), self.boundary(), self.measurements());
        for start in (0..total).step_by(BUILD_CHUNK) {
            let end = total.min(start + BUILD_CHUNK);
            let cols = &mut buf.cols[start * n..end * n];
            model.basis_columns(&buf.positions[start..end], &buf.xs, &buf.ys, boundary, cols);
            let (proj, diag) = (&mut buf.proj[start..end], &mut buf.diag[start..end]);
            project(cols, measurements, proj, diag);
        }
        let flux_sq: f64 = measurements.iter().map(|m| m * m).sum();
        ScoringCache {
            objective: self,
            n,
            buf,
            flux: SCREEN_RANGE
                .contains(&flux_sq)
                .then(|| (flux_sq, flux_sq.sqrt())),
        }
    }
}

/// Each column's projection `cᵀF′` and norm `cᵀc` (`cols` holds one
/// column of `measurements.len()` values per entry of `proj`). Each sum
/// runs in observation order, as the dense path's `Matrix::tr_matvec`
/// and `gram` take it (see the module docs). Four columns are summed side
/// by side, so that their chains of dependent adds overlap; the last few
/// take the plain per-column sums, which are the same sums.
fn project(cols: &[f64], measurements: &[f64], proj: &mut [f64], diag: &mut [f64]) {
    let n = measurements.len();
    let grouped = proj.len() - proj.len() % 4;
    let (cols, rest) = cols.split_at(grouped * n);
    let (proj, proj_rest) = proj.split_at_mut(grouped);
    let (diag, diag_rest) = diag.split_at_mut(grouped);
    let groups = cols
        .chunks_exact(4 * n)
        .zip(proj.chunks_exact_mut(4))
        .zip(diag.chunks_exact_mut(4));
    for ((group, p), d) in groups {
        let (c0, c1) = group.split_at(n);
        let (c1, c2) = c1.split_at(n);
        let (c2, c3) = c2.split_at(n);
        let (mut ps, mut ds) = ([-0.0; 4], [-0.0; 4]);
        for ((((&m, &a), &b), &c), &e) in measurements.iter().zip(c0).zip(c1).zip(c2).zip(c3) {
            for (j, v) in [a, b, c, e].into_iter().enumerate() {
                ps[j] += v * m;
                ds[j] += v * v;
            }
        }
        p.copy_from_slice(&ps);
        d.copy_from_slice(&ds);
    }
    for ((col, p), d) in rest.chunks_exact(n).zip(proj_rest).zip(diag_rest) {
        *p = col.iter().zip(measurements).map(|(c, m)| c * m).sum();
        *d = col.iter().map(|c| c * c).sum();
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
        // fluxlint: allow(hot-path-alloc) — built once, probed many times
        let mut base_rows = vec![0.0; self.n * kb];
        for (r, &s) in base.iter().enumerate() {
            for (row, &v) in base_rows.chunks_exact_mut(kb).zip(self.col(self.global(s))) {
                row[r] = v;
            }
        }
        let screen = self.base_screen(base, &base_gram);
        Conditioner {
            // fluxlint: allow(hot-path-alloc) — amortized across all probes
            base: base.to_vec(),
            base_gram,
            base_rows,
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

    /// The joint fit of `slots`, in that column order: one exact
    /// evaluation with the first slot as the probe and the rest as the
    /// base. Positions, stretches and residual are bit-identical to
    /// [`FluxObjective::evaluate`] on the slots' positions, and it counts
    /// what `evaluate` counts: one objective evaluation and one NNLS
    /// solve.
    ///
    /// # Errors
    ///
    /// [`SolverError::ZeroSinks`] for no slots; linear-algebra failures
    /// propagate.
    pub fn joint_fit(
        &self,
        slots: &[Slot],
        scratch: &mut CacheScratch,
    ) -> Result<SinkFit, SolverError> {
        let Some((&probe, base)) = slots.split_first() else {
            return Err(SolverError::ZeroSinks);
        };
        telemetry::counter(names::SOLVER_OBJECTIVE_EVALS, 1);
        let cond = self.conditioner(base);
        let residual = self.solve_conditioned(&cond, probe, scratch)?;
        let positions = slots.iter().map(|&s| self.buf.positions[self.global(s)]);
        Ok(SinkFit {
            // fluxlint: allow(hot-path-alloc) — the fit's own positions, once per window
            positions: positions.collect(),
            // fluxlint: allow(hot-path-alloc) — the fit's own stretches, once per window
            stretches: scratch.stretches().to_vec(),
            residual,
        })
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
    /// - Pass 1 bounds every probe from below (DESIGN §9, "Certified
    ///   screening"), in chunks of 16 probes whose every step is one
    ///   loop across the chunk; each probe counts one objective
    ///   evaluation and one Gram combination evaluation.
    /// - Pass 2 evaluates exactly the `keep` probes with the smallest
    ///   bounds (ties by index), then every other probe whose bound is
    ///   not above τ, the largest of their residuals. A NaN among those
    ///   residuals evaluates every probe.
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
        scratch: &'s mut CacheScratch,
    ) -> Result<&'s [f64], SolverError> {
        let (start, len) = (range.start, range.len());
        telemetry::counter(names::SOLVER_OBJECTIVE_EVALS, len as u64);
        telemetry::counter(names::SOLVER_GRAM_COMBO_EVALS, len as u64);
        // The scan buffers move out of the scratch to satisfy borrows and
        // go back at the end, on error too.
        let mut bounds = std::mem::take(&mut scratch.bounds);
        let mut work = std::mem::take(&mut scratch.bound_work);
        let mut order = std::mem::take(&mut scratch.order);
        let mut out = std::mem::take(&mut scratch.scan);
        // Every element is overwritten by pass 1.
        let width = 2 * cond.base.len();
        bounds.resize(len, 0.0);
        work.resize(len * width, 0.0);
        let first = self.global((user, start));
        // The workspace is sliced by index: with an empty base its width
        // is 0, and every chunk still needs its bounds.
        for c in (0..len).step_by(PROBE_CHUNK) {
            let end = len.min(c + PROBE_CHUNK);
            let work = &mut work[c * width..end * width];
            self.bound_chunk(cond, first + c, &mut bounds[c..end], work);
        }

        // Pass 2.
        let mut evaluate_cut = |scratch: &mut CacheScratch| -> Result<(), SolverError> {
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
            let (chosen, rest) = order.split_at(keep);
            for &c in chosen {
                out[c] = self.exact(cond, (user, start + c), scratch)?;
            }
            // τ = +∞ turns screening off: no bound exceeds it.
            let tau = chosen.iter().fold(f64::NEG_INFINITY, |tau, &c| {
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
            Ok(())
        };
        let result = evaluate_cut(scratch);
        scratch.bounds = bounds;
        scratch.bound_work = work;
        scratch.order = order;
        scratch.scan = out;
        result.map(|()| scratch.scan.as_slice())
    }

    /// Pass 1 over one chunk of probes: `out[i]` gets the lower bound of
    /// the probe at global index `first + i`, bit for bit what the
    /// test-only scalar `bound` returns for it. Every step is one loop
    /// across the chunk's probes, so the compiler can run it in SIMD
    /// lanes, while each probe still sees the scalar's operations on the
    /// scalar's operands in the scalar's order. `work` holds `2·kb`
    /// values per probe.
    fn bound_chunk(&self, cond: &Conditioner, first: usize, out: &mut [f64], work: &mut [f64]) {
        let m = out.len();
        let (Some((flux_sq, flux_norm)), Some(base)) = (self.flux, &cond.screen) else {
            out.fill(f64::NEG_INFINITY);
            return;
        };
        let (kb, k) = (cond.base.len(), cond.base.len() + 1);
        let diag = &self.buf.diag[first..first + m];
        let proj = &self.buf.proj[first..first + m];
        let (dots, q) = work.split_at_mut(kb * m);
        for (row, &b) in dots.chunks_exact_mut(m).zip(&cond.base) {
            self.lane_dots(first, self.col(self.global(b)), row);
        }
        let mut cap = [0.0; PROBE_CHUNK];
        for (c, d) in cap.iter_mut().zip(diag) {
            *c = 2.0 * flux_norm / d.sqrt();
        }
        let cap = &cap[..m];

        // Point (ii): the probe adds nothing.
        let mut gq = [-0.0; PROBE_CHUNK];
        for (row, c) in dots.chunks_exact(m).zip(&base.cols) {
            for (g, d) in gq.iter_mut().zip(row) {
                *g += d * c.point;
            }
        }
        let mut lower = [0.0; PROBE_CHUNK];
        for (l, ((g, p), c)) in lower.iter_mut().zip(gq.iter().zip(proj).zip(cap)) {
            let mut terms = base.terms;
            terms.add(*g, *p, 0.0, *c);
            *l = self.lower(flux_sq, k, terms);
        }

        // Point (i): the unconstrained joint fit `(x₀, z − w·x₀)`, with
        // `w = G_B⁻¹e` and `x₀ = (p₀ − eᵀz)/(d₀ − eᵀw)`, clamped.
        if let Some(inv) = &base.inv {
            // `q` holds `w` until the clamp overwrites it with the point.
            for (w, inv_row) in q.chunks_exact_mut(m).zip(inv.chunks_exact(kb.max(1))) {
                w.fill(-0.0);
                for (a, row) in inv_row.iter().zip(dots.chunks_exact(m)) {
                    for (w, d) in w.iter_mut().zip(row) {
                        *w += a * d;
                    }
                }
            }
            let (mut dw, mut fit_z) = ([-0.0; PROBE_CHUNK], [-0.0; PROBE_CHUNK]);
            for ((row, w), c) in dots.chunks_exact(m).zip(q.chunks_exact(m)).zip(&base.cols) {
                for (((dw, fz), d), w) in dw.iter_mut().zip(&mut fit_z).zip(row).zip(w) {
                    *dw += d * w;
                    *fz += d * c.fit;
                }
            }
            let (mut x0, mut q0, mut fits) =
                ([0.0; PROBE_CHUNK], [0.0; PROBE_CHUNK], [false; PROBE_CHUNK]);
            for (i, (((d, p), c), (dw, fz))) in diag
                .iter()
                .zip(proj)
                .zip(cap)
                .zip(dw.iter().zip(&fit_z))
                .enumerate()
            {
                let schur = d - dw;
                fits[i] = schur > 0.0 && schur.is_finite();
                x0[i] = (p - fz) / schur;
                q0[i] = clamp_box(x0[i], *c);
            }
            for (w, c) in q.chunks_exact_mut(m).zip(&base.cols) {
                for (w, x0) in w.iter_mut().zip(&x0) {
                    *w = clamp_box(c.fit - *w * x0, c.cap);
                }
            }
            let q = &*q;
            let mut sum = [-0.0; PROBE_CHUNK];
            for (row, qr) in dots.chunks_exact(m).zip(q.chunks_exact(m)) {
                for ((s, d), qr) in sum.iter_mut().zip(row).zip(qr) {
                    *s += d * qr;
                }
            }
            let mut gq0 = [0.0; PROBE_CHUNK];
            for (((g, d), q0), s) in gq0.iter_mut().zip(diag).zip(&q0).zip(&sum) {
                *g = d * q0 + s;
            }
            let mut terms = [Terms::default(); PROBE_CHUNK];
            let lanes = gq0.iter().zip(proj).zip(&q0).zip(cap);
            for (t, (((g, p), q0), c)) in terms.iter_mut().zip(lanes) {
                t.add(*g, *p, *q0, *c);
            }
            for (r, c) in base.cols.iter().enumerate() {
                let gram_row = &cond.base_gram[r * kb..(r + 1) * kb];
                let mut sum = [-0.0; PROBE_CHUNK];
                for (a, qc) in gram_row.iter().zip(q.chunks_exact(m)) {
                    for (s, qc) in sum.iter_mut().zip(qc) {
                        *s += a * qc;
                    }
                }
                let mut gq = [0.0; PROBE_CHUNK];
                for (((g, d), q0), s) in gq
                    .iter_mut()
                    .zip(&dots[r * m..(r + 1) * m])
                    .zip(&q0)
                    .zip(&sum)
                {
                    *g = d * q0 + s;
                }
                let lanes = gq.iter().zip(&q[r * m..(r + 1) * m]);
                for (t, (g, q)) in terms.iter_mut().zip(lanes) {
                    t.add(*g, c.proj, *q, c.cap);
                }
            }
            for ((l, t), fits) in lower.iter_mut().zip(&terms).zip(&fits) {
                let joint = self.lower(flux_sq, k, *t);
                *l = if *fits { l.max(joint) } else { *l };
            }
        }
        for ((o, l), d) in out.iter_mut().zip(&lower).zip(diag) {
            let floor = self.residual_floor(*l, k, flux_norm);
            *o = if SCREEN_RANGE.contains(d) {
                floor
            } else {
                f64::NEG_INFINITY
            };
        }
    }

    /// `out[i]` = the four-lane dot (the test-only `lanes_dot`) of the
    /// column at global index `first + i` with `b`, four probes at a time,
    /// so that their sixteen lane sums overlap. A short last group repeats
    /// its first column in the missing slots and drops their sums.
    fn lane_dots(&self, first: usize, b: &[f64], out: &mut [f64]) {
        let n = self.n;
        let cols = &self.buf.cols[first * n..(first + out.len()) * n];
        for (group, out) in cols.chunks(4 * n).zip(out.chunks_mut(4)) {
            let len = out.len();
            let col = |i: usize| {
                let i = if i < len { i } else { 0 };
                &group[i * n..(i + 1) * n]
            };
            let (a0, a1, a2, a3) = (col(0), col(1), col(2), col(3));
            let mut lanes = [[0.0; 4]; 4];
            let quads = a0
                .chunks_exact(4)
                .zip(a1.chunks_exact(4))
                .zip(a2.chunks_exact(4))
                .zip(a3.chunks_exact(4))
                .zip(b.chunks_exact(4));
            for ((((x0, x1), x2), x3), y) in quads {
                for (lanes, x) in lanes.iter_mut().zip([x0, x1, x2, x3]) {
                    for ((s, x), y) in lanes.iter_mut().zip(x).zip(y) {
                        *s += x * y;
                    }
                }
            }
            let tail_start = n - n % 4;
            for (i, (o, lanes)) in out.iter_mut().zip(&lanes).enumerate() {
                let tail: f64 = col(i)[tail_start..]
                    .iter()
                    .zip(&b[tail_start..])
                    .map(|(x, y)| x * y)
                    .sum();
                *o = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]) + tail;
            }
        }
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

    /// The exact evaluation a scan runs, counted as one exact residual.
    fn exact(
        &self,
        cond: &Conditioner,
        probe: Slot,
        scratch: &mut CacheScratch,
    ) -> Result<f64, SolverError> {
        let residual = self.solve_conditioned(cond, probe, scratch)?;
        telemetry::counter(names::SOLVER_RESIDUAL_EXACT, 1);
        Ok(residual)
    }

    /// Gram assembly, NNLS and the exact data residual of `probe`
    /// followed by `cond`'s base; counts one NNLS solve.
    fn solve_conditioned(
        &self,
        cond: &Conditioner,
        probe: Slot,
        scratch: &mut CacheScratch,
    ) -> Result<f64, SolverError> {
        self.assemble_conditioned(cond, probe, scratch);
        telemetry::counter(names::SOLVER_NNLS_SOLVES, 1);
        nnls_gram_into(&scratch.gram, &scratch.atb, &mut scratch.nnls)?;
        Ok(self.data_residual(cond, probe, scratch))
    }

    /// Fills the scratch's `k × k` Gram system for `probe` followed by
    /// `cond`'s base. The probe's `kb` dots with the base are summed side
    /// by side in one pass over the rows, each in observation order.
    fn assemble_conditioned(&self, cond: &Conditioner, probe: Slot, scratch: &mut CacheScratch) {
        let kb = cond.base.len();
        scratch.ensure_k(kb + 1);
        let g = self.global(probe);
        let dots = &mut scratch.dots;
        dots.clear();
        dots.resize(kb, -0.0);
        for (&c, row) in self
            .col(g)
            .iter()
            .zip(cond.base_rows.chunks_exact(kb.max(1)))
        {
            for (d, b) in dots.iter_mut().zip(row) {
                *d += c * b;
            }
        }
        // Row and column 0 are the probe's: its norm plus `kb` fresh
        // dots. The base block below comes from the precomputed base Gram.
        scratch.gram[(0, 0)] = self.buf.diag[g];
        scratch.atb[0] = self.buf.proj[g];
        for r in 0..kb {
            for c in 0..kb {
                scratch.gram[(r + 1, c + 1)] = cond.base_gram[r * kb + c];
            }
            scratch.atb[r + 1] = self.buf.proj[self.global(cond.base[r])];
            let d = scratch.dots[r];
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

    /// Exact data-space residual `‖F̂ − F′‖₂` of the stretches in the
    /// scratch on `probe` followed by `cond`'s base, in the dense path's
    /// summation order (`Matrix::matvec`, then squared differences in
    /// observation order). Each row's prediction sums its columns in
    /// combination order; the columns are added one whole column at a
    /// time, which gives every row the same sequence of adds.
    fn data_residual(&self, cond: &Conditioner, probe: Slot, scratch: &mut CacheScratch) -> f64 {
        let x = scratch.nnls.solution();
        let pred = &mut scratch.pred;
        pred.clear();
        pred.resize(self.n, -0.0);
        for (s, &q) in std::iter::once(&probe).chain(&cond.base).zip(x) {
            for (p, c) in pred.iter_mut().zip(self.col(self.global(*s))) {
                *p += c * q;
            }
        }
        let mut r2 = 0.0;
        for (p, m) in pred.iter().zip(self.objective.measurements()) {
            let d = p - m;
            r2 += d * d;
        }
        r2.sqrt()
    }
}

#[cfg(test)]
impl ScoringCache<'_> {
    /// Pass 1 for one probe: a lower bound on the float
    /// [`evaluate_conditioned`](ScoringCache::evaluate_conditioned)
    /// returns for `probe`, with no NNLS solve and no data-space pass;
    /// `−∞` where the bound does not apply. This scalar form is the
    /// oracle of the batch [`bound_chunk`](ScoringCache::bound_chunk),
    /// which must return its bits.
    ///
    /// With `C = [c, B]` the probe's and the base's columns, any `q ≥ 0`
    /// gives `min_{x≥0} ‖Cx − F′‖² ≥ ‖F′‖² − qᵀGq − 2·Σ_j max(0,
    /// −g_j)·Q_j` (`g = Gq − p`). This tries two points, keeps the larger
    /// bound, and subtracts a rounding allowance: (i) the clamped
    /// unconstrained joint fit, by the Schur complement of the base's
    /// `G_B⁻¹`, and (ii) `(0, q_B)`. The allowance rests on the DESIGN §9
    /// derivation, which random tests can probe but not certify.
    fn bound(&self, cond: &Conditioner, probe: Slot) -> f64 {
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
        let dots: Vec<f64> = cond
            .base
            .iter()
            .map(|&b| lanes_dot(self.col(g), self.col(self.global(b))))
            .collect();

        // Point (ii): the probe adds nothing.
        let mut terms = base.terms;
        let gq: f64 = dots.iter().zip(&base.cols).map(|(d, c)| d * c.point).sum();
        terms.add(gq, proj, 0.0, cap);
        let mut lower = self.lower(flux_sq, kb + 1, terms);

        // Point (i): the unconstrained joint fit `(x₀, z − w·x₀)`, with
        // `w = G_B⁻¹e` and `x₀ = (p₀ − eᵀz)/(d₀ − eᵀw)`, clamped.
        if let Some(inv) = &base.inv {
            let w: Vec<f64> = (0..kb)
                .map(|r| {
                    let row = &inv[r * kb..(r + 1) * kb];
                    row.iter().zip(&dots).map(|(a, d)| a * d).sum()
                })
                .collect();
            let schur = diag - dots.iter().zip(&w).map(|(d, w)| d * w).sum::<f64>();
            if schur > 0.0 && schur.is_finite() {
                let fit_z: f64 = dots.iter().zip(&base.cols).map(|(d, c)| d * c.fit).sum();
                let x0 = (proj - fit_z) / schur;
                let q: Vec<f64> = w
                    .iter()
                    .zip(&base.cols)
                    .map(|(wr, c)| clamp_box(c.fit - wr * x0, c.cap))
                    .collect();
                let q0 = clamp_box(x0, cap);
                let mut terms = Terms::default();
                let gq0 = diag * q0 + dots.iter().zip(&q).map(|(d, q)| d * q).sum::<f64>();
                terms.add(gq0, proj, q0, cap);
                for (r, c) in base.cols.iter().enumerate() {
                    let row = &cond.base_gram[r * kb..(r + 1) * kb];
                    let gq = dots[r] * q0 + row.iter().zip(&q).map(|(a, q)| a * q).sum::<f64>();
                    terms.add(gq, c.proj, q[r], c.cap);
                }
                lower = lower.max(self.lower(flux_sq, kb + 1, terms));
            }
        }
        self.residual_floor(lower, kb + 1, flux_norm)
    }
}

/// `aᵀb` accumulated in four interleaved lanes: pass 1's dot of a probe
/// with a base column. The bits differ from the ordered
/// [`ScoringCache::dot`], which the bound does not need: its error
/// analysis holds for any summation order of non-negative terms, and four
/// lanes cut the ordered sum's chain of dependent adds by four.
/// [`ScoringCache::lane_dots`] computes it for four probes at once; this
/// scalar form is its oracle.
#[cfg(test)]
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
        let cache = obj.scoring_cache(&cands, &mut CacheScratch::new());
        let mut scratch = CacheScratch::new();
        for &(user, base) in &shapes {
            let cond = cache.conditioner(base);
            for c in 0..cache.size(user) {
                let want = column_fit(&obj, &cands, (user, c), base);
                let got = cache
                    .evaluate_conditioned(&cond, (user, c), &mut scratch)
                    .unwrap();
                let label = format!("probe=({user}, {c}) base={base:?}");
                assert_eq!(want.residual.to_bits(), got.to_bits(), "{label}");
                assert_eq!(bits(&want.stretches), bits(scratch.stretches()), "{label}");
            }
        }
    }

    #[test]
    fn recycled_buffers_build_the_same_cache() {
        let truth = [
            (Point2::new(12.0, 17.0), 2.0),
            (Point2::new(22.0, 21.0), 1.0),
        ];
        let obj = objective_for(&truth);
        let cands = demo_candidates();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let fresh = obj.scoring_cache(&cands, &mut CacheScratch::new());
        // The scratch first holds a larger build, then a smaller one, so
        // the recycled buffers both shrink and grow into this build.
        let mut scratch = CacheScratch::new();
        let mut larger = cands.clone();
        larger.push(vec![Point2::new(1.0, 2.0); 9]);
        for set in [larger, vec![vec![Point2::new(4.0, 4.0)]], cands.clone()] {
            obj.scoring_cache(&set, &mut scratch).recycle(&mut scratch);
        }
        let cols = scratch.buffers.cols.as_ptr();
        let recycled = obj.scoring_cache(&cands, &mut scratch);
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
    /// base can hold two equal columns), a duplicate of the first, then
    /// `extra` more random spots.
    fn random_instance(
        seed: u64,
        n: usize,
        users: usize,
        noise: f64,
        scale: f64,
        extra: usize,
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
                set.extend((0..extra).map(|_| spot(&mut rng)));
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
        /// returns for the same probe, at every base size, across sniffer counts, noise, flux scales,
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
            let (obj, cands) = random_instance(seed, n, users, noise, scale, 0);
            let mut tight = 0;
            let cache = obj.scoring_cache(&cands, &mut CacheScratch::new());
            let mut scratch = CacheScratch::new();
            for user in 0..users {
                for base in bases_for(user, users) {
                    let cond = cache.conditioner(&base);
                    for c in 0..cache.size(user) {
                        let bound = cache.bound(&cond, (user, c));
                        // A base holding the shared spot twice is singular,
                        // and there the exact solve may fail: no oracle.
                        let Ok(exact) =
                            cache.evaluate_conditioned(&cond, (user, c), &mut scratch)
                        else {
                            continue;
                        };
                        prop_assert!(
                            bound <= exact,
                            "bound {bound:e} > exact {exact:e}: probe=({user}, {c}) base={base:?}"
                        );
                        tight += usize::from(exact > 0.0 && bound >= exact * (1.0 - 1e-6));
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

        /// Pass 1's batch kernel returns the scalar `bound`'s bits for
        /// every probe of a scan: base sizes 0 to 4, 3 to 360 sniffers,
        /// flux scaled by 1e-120, 1 and 1e120, noise, duplicate and
        /// near-exact candidates, columns outside the screening range
        /// (the −∞ paths, on the probe's side and the base's), and scans
        /// that start inside a chunk and end in a short one.
        #[test]
        fn batch_bounds_equal_the_scalar_bound(
            seed in 0u64..u64::MAX,
            n in 3usize..=360,
            users in 1usize..=5,
            noise in 0usize..2,
            scale in 0usize..3,
            extra in 0usize..40,
            out_of_range in 0usize..3,
        ) {
            let (noise, scale) = ([0.0, 0.05][noise], [1e-120, 1.0, 1e120][scale]);
            let (obj, cands) = random_instance(seed, n, users, noise, scale, extra);
            let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED);
            let (mut finite, mut floors) = (0, 0);
            let mut cache = obj.scoring_cache(&cands, &mut CacheScratch::new());
            // Norms outside the range: one probe of user 0 reads 0,
            // and a base may hold one of user 1's that reads 1e280.
            if out_of_range > 0 {
                let g = cache.global((0, 2));
                cache.buf.diag[g] = 0.0;
                let g = cache.global((users.min(2) - 1, 3));
                cache.buf.diag[g] = [1e280, 1e-280][out_of_range - 1];
            }
            let mut scratch = CacheScratch::new();
            for user in 0..users {
                let others: Vec<usize> = (0..users).filter(|&u| u != user).collect();
                let kb = rng.gen_range(0..=others.len().min(4));
                let base: Vec<Slot> = others[..kb]
                    .iter()
                    .map(|&u| (u, rng.gen_range(0..cache.size(u))))
                    .collect();
                let cond = cache.conditioner(&base);
                let size = cache.size(user);
                let start = rng.gen_range(0..size);
                for range in [0..size, start..size] {
                    let want: Vec<u64> = range
                        .clone()
                        .map(|c| cache.bound(&cond, (user, c)).to_bits())
                        .collect();
                    for b in want.iter().map(|&b| f64::from_bits(b)) {
                        finite += usize::from(b.is_finite());
                        floors += usize::from(b == f64::NEG_INFINITY);
                    }
                    // A scan leaves its bounds in the scratch, also when
                    // an exact solve on a singular base fails.
                    let _ = cache.scan_conditioned(
                        &cond, user, range.clone(), range.len(), &mut scratch,
                    );
                    let got: Vec<u64> = scratch.bounds.iter().map(|b| b.to_bits()).collect();
                    let diff = got.iter().zip(&want).position(|(a, b)| a != b);
                    prop_assert!(
                        got.len() == want.len() && diff.is_none(),
                        "user={} base={:?} range={:?} at {:?}: {:?} vs {:?}",
                        user, &base, &range, diff,
                        diff.map(|i| f64::from_bits(got[i])), diff.map(|i| f64::from_bits(want[i]))
                    );
                }
            }
            // Not vacuous: bounds were computed, and the −∞ paths taken
            // where a norm was put out of range.
            prop_assert!(finite > 0, "no finite bound");
            prop_assert!(out_of_range == 0 || floors > 0, "no −∞ bound");
        }

        /// The cache-served joint fit returns `FluxObjective::evaluate`'s
        /// positions, stretches and residual bit for bit, for 1 to 4
        /// sources in any order, duplicate and shared candidates included.
        #[test]
        fn joint_fit_equals_the_dense_evaluation(
            seed in 0u64..u64::MAX,
            n in 3usize..=120,
            users in 1usize..=4,
            noise in 0usize..2,
            scale in 0usize..3,
        ) {
            let (noise, scale) = ([0.0, 0.05][noise], [1e-120, 1.0, 1e120][scale]);
            let (obj, cands) = random_instance(seed, n, users, noise, scale, 0);
            let mut rng = StdRng::seed_from_u64(seed ^ 0xF17);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            let cache = obj.scoring_cache(&cands, &mut CacheScratch::new());
            let mut scratch = CacheScratch::new();
            for _ in 0..8 {
                let mut order: Vec<usize> = (0..users).collect();
                for i in (1..users).rev() {
                    order.swap(i, rng.gen_range(0..=i));
                }
                order.truncate(rng.gen_range(1..=users));
                let slots: Vec<Slot> = order
                    .iter()
                    .map(|&u| (u, rng.gen_range(0..cache.size(u))))
                    .collect();
                let positions: Vec<Point2> = slots.iter().map(|&(u, c)| cands[u][c]).collect();
                let want = obj.evaluate(&positions);
                let got = cache.joint_fit(&slots, &mut scratch);
                match (want, got) {
                    (Ok(want), Ok(got)) => {
                        prop_assert_eq!(&got.positions, &want.positions);
                        prop_assert_eq!(bits(&got.stretches), bits(&want.stretches), "{:?}", &slots);
                        prop_assert_eq!(got.residual.to_bits(), want.residual.to_bits(), "{:?}", &slots);
                    }
                    (want, got) => prop_assert!(
                        want.is_err() && got.is_err(),
                        "one path failed: {:?} / {:?}", want.err(), got.err()
                    ),
                }
            }
        }
    }

    #[test]
    fn interleaved_build_sums_equal_ordered_sums() {
        let truth = [(Point2::new(12.0, 17.0), 2.0)];
        let obj = objective_for(&truth);
        let bits = |x: f64| x.to_bits();
        // Candidate counts around the four-column groups and the build's
        // 64-candidate chunks.
        for total in [1usize, 2, 3, 4, 5, 7, 63, 64, 65, 67, 130] {
            let cands = vec![(0..total)
                .map(|i| {
                    Point2::new(
                        1.0 + (i as f64 * 0.37) % 28.0,
                        1.0 + (i as f64 * 0.61) % 28.0,
                    )
                })
                .collect::<Vec<_>>()];
            let cache = obj.scoring_cache(&cands, &mut CacheScratch::new());
            for g in 0..total {
                let col = cache.col(g);
                let proj: f64 = col.iter().zip(obj.measurements()).map(|(c, m)| c * m).sum();
                let diag: f64 = col.iter().map(|c| c * c).sum();
                assert_eq!(bits(cache.buf.proj[g]), bits(proj), "total={total} g={g}");
                assert_eq!(bits(cache.buf.diag[g]), bits(diag), "total={total} g={g}");
            }
        }
    }

    #[test]
    fn bound_falls_back_outside_its_range() {
        let cands = demo_candidates();
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
        let cache = silent.scoring_cache(&cands, &mut CacheScratch::new());
        let cond = cache.conditioner(&[(0, 0)]);
        for c in 0..cache.size(1) {
            assert_eq!(cache.bound(&cond, (1, c)), f64::NEG_INFINITY);
        }
        let before = fluxprint_telemetry::snapshot().counter(names::SOLVER_RESIDUAL_EXACT);
        let scanned = cache
            .scan_conditioned(&cond, 1, 0..cache.size(1), 1, &mut scratch)
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
        let cache = obj.scoring_cache(&cands, &mut CacheScratch::new());
        assert_eq!(cache.size(0), 3);
        assert_eq!(cache.size(1), 4);
        assert_eq!(cache.size(2), 3);
    }
}
