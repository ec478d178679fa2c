//! Formulas 3.2–3.4: the parameterized flux model.

use fluxprint_geometry::{Boundary, Point2, Vec2, EPSILON};
use fluxprint_linalg::Matrix;
use serde::{Deserialize, Serialize};

/// Continuous-field flux at distance `d` from the sink with boundary
/// distance `l` and traffic stretch `s` (Formula 3.2): `s·(l² − d²)/(2d)`.
///
/// Negative results (numerical `l < d` at the boundary) are clamped to 0.
///
/// # Panics
///
/// Panics (debug builds) when `d` is not positive.
pub fn continuous_flux(s: f64, d: f64, l: f64) -> f64 {
    debug_assert!(d > 0.0, "distance must be positive, got {d}");
    (s * (l * l - d * d) / (2.0 * d)).max(0.0)
}

/// Discrete hop-based flux at the `k`-hop ring (Formula 3.3 solved for
/// `F_k`): `s·(l² − (k−1)²·r²) / ((2k−1)·r²)`, clamped at 0.
///
/// `l` is the sink-to-boundary distance along the node's direction and `r`
/// the mean hop length.
///
/// # Panics
///
/// Panics (debug builds) when `k == 0` or `r` is not positive.
pub fn hop_flux(s: f64, r: f64, k: u32, l: f64) -> f64 {
    debug_assert!(k >= 1, "hop count must be at least 1");
    debug_assert!(r > 0.0, "hop length must be positive, got {r}");
    let km1 = (k - 1) as f64;
    let denom = (2.0 * k as f64 - 1.0) * r * r;
    (s * (l * l - km1 * km1 * r * r) / denom).max(0.0)
}

/// The parameterized flux model of Formula 3.4, `F ≈ q·(l² − d²)/(2d)` with
/// `q = s/r`, evaluated against an arbitrary field [`Boundary`].
///
/// The model diverges as `d → 0` while the physical flux at the sink's
/// attachment node is bounded by `stretch × n`; `d_floor` clamps the
/// distance so candidate sinks sitting exactly on a sniffed node produce
/// finite, comparable predictions. The default floor of `1.0` field unit is
/// about one hop at the paper's densities.
/// Serde round-trips preserve the floor exactly; deserializing does not
/// re-validate it, so state-restoring callers (the engine checkpoint
/// path) check [`d_floor`](FluxModel::d_floor) before use.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FluxModel {
    d_floor: f64,
}

impl Default for FluxModel {
    fn default() -> Self {
        FluxModel { d_floor: 1.0 }
    }
}

impl FluxModel {
    /// Creates a model with the given distance floor.
    ///
    /// # Panics
    ///
    /// Panics when `d_floor` is not positive and finite.
    pub fn new(d_floor: f64) -> Self {
        assert!(
            d_floor.is_finite() && d_floor > 0.0,
            "d_floor must be positive and finite, got {d_floor}"
        );
        FluxModel { d_floor }
    }

    /// The configured distance floor.
    pub fn d_floor(&self) -> f64 {
        self.d_floor
    }

    /// The stretch-independent basis value `(l² − d²)/(2d)` for a node
    /// observed from a hypothesized sink. The predicted flux is
    /// `q · basis`.
    ///
    /// Returns `0` when the sink lies outside the field (such a hypothesis
    /// can explain no traffic).
    ///
    /// This scalar form is the oracle for the batch kernel
    /// [`basis_columns`](FluxModel::basis_columns), which every column
    /// and design-matrix build goes through.
    pub fn basis(&self, sink: Point2, node: Point2, boundary: &dyn Boundary) -> f64 {
        let delta = node - sink;
        let d_real = delta.norm();
        let d = d_real.max(self.d_floor);
        // Direction through the node; for a node (numerically) on the sink
        // the direction is arbitrary — any ray gives a representative l.
        let dir = delta.normalized().unwrap_or(Vec2::new(1.0, 0.0));
        match boundary.ray_exit_distance(sink, dir) {
            Some(l) => ((l * l - d * d) / (2.0 * d)).max(0.0),
            None => 0.0,
        }
    }

    /// Predicted flux `q · basis` at `node` for a sink with integrated
    /// stretch factor `q = s/r`.
    pub fn predict(&self, sink: Point2, q: f64, node: Point2, boundary: &dyn Boundary) -> f64 {
        q * self.basis(sink, node, boundary)
    }

    /// Predicted flux at `node` from `K` superposed sinks
    /// (`(position, q)` pairs), Equation 4.1's `F̂ᵢ`.
    pub fn predict_superposed(
        &self,
        sinks: &[(Point2, f64)],
        node: Point2,
        boundary: &dyn Boundary,
    ) -> f64 {
        sinks
            .iter()
            .map(|&(p, q)| self.predict(p, q, node, boundary))
            .sum()
    }

    /// The `n × K` design matrix `A` with `A[i][j] = basis(sink_j,
    /// node_i)`: the predicted flux vector is `A·q`, making the inner
    /// stretch fit a linear least-squares problem. Built column by column
    /// with [`basis_columns`](FluxModel::basis_columns).
    pub fn design_matrix(
        &self,
        nodes: &[Point2],
        sinks: &[Point2],
        boundary: &dyn Boundary,
    ) -> Matrix {
        let (xs, ys) = split_coordinates(nodes);
        let n = nodes.len();
        let mut cols = vec![0.0; n * sinks.len()];
        self.basis_columns(sinks, &xs, &ys, boundary, &mut cols);
        let mut m = Matrix::zeros(n, sinks.len());
        for i in 0..n {
            for (j, v) in m.row_mut(i).iter_mut().enumerate() {
                *v = cols[j * n + i];
            }
        }
        m
    }

    /// Fills `out` with the single-column basis values for one sink,
    /// through [`basis_columns`](FluxModel::basis_columns).
    ///
    /// # Panics
    ///
    /// Panics when `out.len() != nodes.len()`.
    pub fn basis_column_into(
        &self,
        nodes: &[Point2],
        sink: Point2,
        boundary: &dyn Boundary,
        out: &mut [f64],
    ) {
        assert_eq!(out.len(), nodes.len(), "basis output length mismatch");
        let (xs, ys) = split_coordinates(nodes);
        self.basis_columns(&[sink], &xs, &ys, boundary, out);
    }

    /// The batch basis kernel, the hot path of the particle filter: one
    /// column per sink over nodes given as separate coordinate arrays,
    /// sink `j`'s column at `out[j·n..(j+1)·n]` for `n = xs.len()`.
    ///
    /// Every value is bit-identical to the scalar [`basis`](FluxModel::basis)
    /// on the same sink and node. The kernel does the scalar's arithmetic
    /// with its branches turned into selects: one norm per node serves
    /// both the distance and the normalisation, and the boundary is asked
    /// for a whole block of exit distances at once
    /// ([`Boundary::ray_exit_distances`], which checks containment once).
    /// Each lane sees the same correctly rounded `+ − × ÷ √` on the same
    /// operands, and nothing is reassociated, so vectorising the lane
    /// loops cannot change a bit.
    ///
    /// # Panics
    ///
    /// Panics when `ys.len() != xs.len()` or
    /// `out.len() != sinks.len() · xs.len()`.
    pub fn basis_columns(
        &self,
        sinks: &[Point2],
        xs: &[f64],
        ys: &[f64],
        boundary: &dyn Boundary,
        out: &mut [f64],
    ) {
        let n = xs.len();
        assert_eq!(ys.len(), n, "node coordinate length mismatch");
        assert_eq!(out.len(), sinks.len() * n, "basis output length mismatch");
        if n == 0 {
            return;
        }
        // Working lanes for one block of nodes, shared by every sink.
        let mut ux = [0.0; LANES];
        let mut uy = [0.0; LANES];
        let mut d = [0.0; LANES];
        for (&sink, col) in sinks.iter().zip(out.chunks_exact_mut(n)) {
            let blocks = xs.chunks(LANES).zip(ys.chunks(LANES));
            for ((bx, by), l) in blocks.zip(col.chunks_mut(LANES)) {
                let m = l.len();
                let (ux, uy, d) = (&mut ux[..m], &mut uy[..m], &mut d[..m]);
                let lanes = ux.iter_mut().zip(uy.iter_mut()).zip(d.iter_mut());
                for (((ux, uy), d), (&x, &y)) in lanes.zip(bx.iter().zip(by)) {
                    let (dx, dy) = (x - sink.x, y - sink.y);
                    let norm = (dx * dx + dy * dy).sqrt();
                    *d = norm.max(self.d_floor);
                    // A node (numerically) on the sink takes the +x ray,
                    // as `basis` does.
                    let on_sink = norm <= EPSILON;
                    *ux = if on_sink { 1.0 } else { dx / norm };
                    *uy = if on_sink { 0.0 } else { dy / norm };
                }
                boundary.ray_exit_distances(sink, ux, uy, l);
                // `NaN` (no exit) falls to 0 through `max`, as `None` does.
                for (l, &d) in l.iter_mut().zip(d.iter()) {
                    *l = ((*l * *l - d * d) / (2.0 * d)).max(0.0);
                }
            }
        }
    }
}

/// Nodes per block of [`FluxModel::basis_columns`]: its working lanes
/// live on the stack, and one block covers the paper's 90 sniffers.
const LANES: usize = 128;

/// Node coordinates as separate x and y arrays, the layout
/// [`FluxModel::basis_columns`] reads.
fn split_coordinates(nodes: &[Point2]) -> (Vec<f64>, Vec<f64>) {
    nodes.iter().map(|p| (p.x, p.y)).unzip()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fluxprint_geometry::Rect;

    fn field() -> Rect {
        Rect::square(30.0).unwrap()
    }

    #[test]
    fn continuous_flux_formula() {
        // s=2, d=3, l=9 → 2·(81−9)/6 = 24.
        assert_eq!(continuous_flux(2.0, 3.0, 9.0), 24.0);
        // At the boundary (l == d) no traffic passes.
        assert_eq!(continuous_flux(1.0, 5.0, 5.0), 0.0);
        // Clamped below zero.
        assert_eq!(continuous_flux(1.0, 5.0, 4.0), 0.0);
    }

    #[test]
    fn hop_flux_formula() {
        // k=1: F = s·l²/r².
        assert!((hop_flux(1.0, 2.0, 1, 10.0) - 25.0).abs() < 1e-12);
        // k=2, r=1, l=5: (25−1)/3 = 8.
        assert!((hop_flux(1.0, 1.0, 2, 5.0) - 8.0).abs() < 1e-12);
        // Beyond the boundary ring, zero.
        assert_eq!(hop_flux(1.0, 1.0, 10, 5.0), 0.0);
    }

    #[test]
    fn hop_and_continuous_agree_at_large_k() {
        // Formula 3.4 is the discrete counterpart of 3.2 divided by r:
        // F_k ≈ s(l²−d²)/(2dr) at d = k·r.
        let s = 1.5;
        let r = 1.0;
        let l = 50.0;
        for k in 5..20u32 {
            let d = k as f64 * r;
            let exact = hop_flux(s, r, k, l);
            let approx = continuous_flux(s, d, l) / r;
            let rel = (exact - approx).abs() / exact.max(1e-9);
            assert!(rel < 0.15, "k={k}: {exact} vs {approx}");
        }
    }

    #[test]
    fn basis_matches_hand_computation() {
        let model = FluxModel::default();
        let sink = Point2::new(15.0, 15.0);
        // Node 5 east of the sink; boundary 15 east of the sink.
        let b = model.basis(sink, Point2::new(20.0, 15.0), &field());
        assert!((b - (225.0 - 25.0) / 10.0).abs() < 1e-9);
    }

    #[test]
    fn basis_is_zero_on_boundary_ray() {
        let model = FluxModel::default();
        let sink = Point2::new(15.0, 15.0);
        // Node on the boundary carries no relayed traffic.
        let b = model.basis(sink, Point2::new(30.0, 15.0), &field());
        assert_eq!(b, 0.0);
    }

    #[test]
    fn basis_decreases_with_distance() {
        let model = FluxModel::default();
        let sink = Point2::new(15.0, 15.0);
        let mut last = f64::INFINITY;
        for dx in [2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 14.0] {
            let b = model.basis(sink, Point2::new(15.0 + dx, 15.0), &field());
            assert!(b < last, "basis must decrease along a ray");
            last = b;
        }
    }

    #[test]
    fn basis_clamps_near_sink() {
        let model = FluxModel::new(1.0);
        let sink = Point2::new(15.0, 15.0);
        let near = model.basis(sink, Point2::new(15.0, 15.0), &field());
        let at_floor = model.basis(sink, Point2::new(16.0, 15.0), &field());
        assert!(
            (near - at_floor).abs() < 1e-9,
            "floor makes near-field flat"
        );
        assert!(near.is_finite());
    }

    #[test]
    fn sink_outside_field_predicts_zero() {
        let model = FluxModel::default();
        let b = model.basis(Point2::new(-5.0, 15.0), Point2::new(10.0, 15.0), &field());
        assert_eq!(b, 0.0);
    }

    #[test]
    fn design_matrix_is_linear_in_q() {
        let model = FluxModel::default();
        let nodes = vec![
            Point2::new(10.0, 10.0),
            Point2::new(20.0, 20.0),
            Point2::new(5.0, 25.0),
        ];
        let sinks = vec![Point2::new(15.0, 15.0), Point2::new(8.0, 22.0)];
        let a = model.design_matrix(&nodes, &sinks, &field());
        assert_eq!(a.shape(), (3, 2));
        let q = [2.0, 0.5];
        let predicted = a.matvec(&q).unwrap();
        let sinks_q: Vec<(Point2, f64)> = sinks.iter().copied().zip(q).collect();
        for (i, &node) in nodes.iter().enumerate() {
            let direct = model.predict_superposed(&sinks_q, node, &field());
            assert!((predicted[i] - direct).abs() < 1e-9);
        }
    }

    #[test]
    fn basis_column_matches_design_matrix() {
        let model = FluxModel::default();
        let nodes = vec![Point2::new(1.0, 1.0), Point2::new(29.0, 29.0)];
        let sink = Point2::new(15.0, 15.0);
        let a = model.design_matrix(&nodes, &[sink], &field());
        let mut col = vec![0.0; 2];
        model.basis_column_into(&nodes, sink, &field(), &mut col);
        assert_eq!(col, a.col(0));
    }

    #[test]
    #[should_panic(expected = "d_floor must be positive")]
    fn bad_floor_panics() {
        FluxModel::new(0.0);
    }
}
