//! Field boundaries and the ray-to-boundary distance query.
//!
//! The flux model of the paper (Formula 3.4) needs, for every sink/node
//! pair, the distance `l` from the sink to the field boundary *through* the
//! node. [`Boundary::ray_exit_distance`] provides exactly that query; the
//! rest of the trait supports deployments and particle-filter clamping.

use serde::{Deserialize, Serialize};

use crate::{GeometryError, Point2, Vec2, EPSILON};

/// A closed region of the plane in which the sensor network is deployed.
///
/// Implementors must represent a bounded, connected region. All three
/// deployments evaluated in the paper use a rectangle, but the flux model is
/// boundary-shape agnostic, so the solver is written against this trait.
pub trait Boundary: std::fmt::Debug + Send + Sync {
    /// Returns `true` if `p` lies inside the region (boundary inclusive).
    fn contains(&self, p: Point2) -> bool;

    /// Distance from `origin` to the boundary along the unit direction
    /// `dir`, or `None` when `origin` lies outside the region.
    ///
    /// This is the `l` term of the paper's flux model: the traffic a node
    /// relays is generated by the field between the node and the boundary
    /// along the sink→node ray.
    ///
    /// `dir` is assumed to be normalized; a zero direction yields `None`.
    fn ray_exit_distance(&self, origin: Point2, dir: Vec2) -> Option<f64>;

    /// [`ray_exit_distance`](Boundary::ray_exit_distance) for one origin
    /// and many unit directions: `out[i]` is the exit distance along
    /// `(dir_x[i], dir_y[i])`, or `NaN` where the scalar query returns
    /// `None`. Lanes past the shortest of the three slices are left as
    /// they are.
    ///
    /// An override must return the scalar query's value in every lane;
    /// the default is that query in a loop.
    fn ray_exit_distances(&self, origin: Point2, dir_x: &[f64], dir_y: &[f64], out: &mut [f64]) {
        for ((l, &x), &y) in out.iter_mut().zip(dir_x).zip(dir_y) {
            *l = self
                .ray_exit_distance(origin, Vec2::new(x, y))
                .unwrap_or(f64::NAN);
        }
    }

    /// The smallest axis-aligned rectangle containing the region, as
    /// `(min, max)` corners.
    fn bounding_box(&self) -> (Point2, Point2);

    /// Area of the region.
    fn area(&self) -> f64;

    /// The nearest point of the region to `p` (identity when `p` is inside).
    ///
    /// Used by the particle filter to keep motion-model samples on the field.
    fn clamp(&self, p: Point2) -> Point2;

    /// Diameter of the region (supremum of pairwise distances), used to
    /// normalize errors the way the paper reports them ("less than 5 % of
    /// the field diameter").
    fn diameter(&self) -> f64 {
        let (lo, hi) = self.bounding_box();
        lo.distance(hi)
    }
}

/// An axis-aligned rectangular field, the deployment region used throughout
/// the paper's evaluation (a `30 × 30` square).
///
/// # Example
///
/// ```
/// use fluxprint_geometry::{Boundary, Point2, Rect, Vec2};
///
/// let field = Rect::square(30.0)?;
/// assert!(field.contains(Point2::new(15.0, 15.0)));
/// assert_eq!(field.area(), 900.0);
/// let l = field.ray_exit_distance(Point2::new(15.0, 15.0), Vec2::new(1.0, 0.0));
/// assert_eq!(l, Some(15.0));
/// # Ok::<(), fluxprint_geometry::GeometryError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Rect {
    min: Point2,
    max: Point2,
}

impl Rect {
    /// Creates the rectangle with corners `min` and `max`.
    ///
    /// # Errors
    ///
    /// Returns [`GeometryError::EmptyRect`] when `min` is not strictly below
    /// `max` in both coordinates, and [`GeometryError::NonFiniteCoordinate`]
    /// when any coordinate is not finite.
    pub fn new(min: Point2, max: Point2) -> Result<Self, GeometryError> {
        if !min.is_finite() || !max.is_finite() {
            return Err(GeometryError::NonFiniteCoordinate);
        }
        if min.x >= max.x || min.y >= max.y {
            return Err(GeometryError::EmptyRect {
                min: min.into(),
                max: max.into(),
            });
        }
        Ok(Rect { min, max })
    }

    /// Creates the square `[0, side] × [0, side]`.
    ///
    /// # Errors
    ///
    /// Returns an error when `side` is not positive and finite.
    pub fn square(side: f64) -> Result<Self, GeometryError> {
        Rect::new(Point2::ORIGIN, Point2::new(side, side))
    }

    /// Minimum corner.
    pub fn min(&self) -> Point2 {
        self.min
    }

    /// Maximum corner.
    pub fn max(&self) -> Point2 {
        self.max
    }

    /// Width (x extent).
    pub fn width(&self) -> f64 {
        self.max.x - self.min.x
    }

    /// Height (y extent).
    pub fn height(&self) -> f64 {
        self.max.y - self.min.y
    }

    /// Center of the rectangle.
    pub fn center(&self) -> Point2 {
        self.min.midpoint(self.max)
    }
}

impl Boundary for Rect {
    fn contains(&self, p: Point2) -> bool {
        p.x >= self.min.x - EPSILON
            && p.x <= self.max.x + EPSILON
            && p.y >= self.min.y - EPSILON
            && p.y <= self.max.y + EPSILON
    }

    fn ray_exit_distance(&self, origin: Point2, dir: Vec2) -> Option<f64> {
        if !self.contains(origin) || dir.norm_squared() <= EPSILON {
            return None;
        }
        // Slab method: the exit parameter is the smallest positive t at
        // which the ray crosses one of the four boundary lines outward.
        let mut t_exit = f64::INFINITY;
        if dir.x > EPSILON {
            t_exit = t_exit.min((self.max.x - origin.x) / dir.x);
        } else if dir.x < -EPSILON {
            t_exit = t_exit.min((self.min.x - origin.x) / dir.x);
        }
        if dir.y > EPSILON {
            t_exit = t_exit.min((self.max.y - origin.y) / dir.y);
        } else if dir.y < -EPSILON {
            t_exit = t_exit.min((self.min.y - origin.y) / dir.y);
        }
        if t_exit.is_finite() {
            Some(t_exit.max(0.0))
        } else {
            None
        }
    }

    /// The slab method above with containment checked once and every
    /// branch turned into a select: each lane performs the same divisions
    /// and minima on the same operands, so it returns the same value, and
    /// the loop has no branch to stop it vectorising.
    fn ray_exit_distances(&self, origin: Point2, dir_x: &[f64], dir_y: &[f64], out: &mut [f64]) {
        if !self.contains(origin) {
            out.fill(f64::NAN);
            return;
        }
        let (hi_x, lo_x) = (self.max.x - origin.x, self.min.x - origin.x);
        let (hi_y, lo_y) = (self.max.y - origin.y, self.min.y - origin.y);
        for ((l, &x), &y) in out.iter_mut().zip(dir_x).zip(dir_y) {
            // Both slab divisions run in every lane; the selects keep
            // only those the scalar branches would have taken.
            let tx = (if x > 0.0 { hi_x } else { lo_x }) / x;
            let ty = (if y > 0.0 { hi_y } else { lo_y }) / y;
            let tx = if x.abs() > EPSILON { tx } else { f64::INFINITY };
            let ty = if y.abs() > EPSILON { ty } else { f64::INFINITY };
            let t = tx.min(ty);
            let none = (x * x + y * y <= EPSILON) | !t.is_finite();
            *l = if none { f64::NAN } else { t.max(0.0) };
        }
    }

    fn bounding_box(&self) -> (Point2, Point2) {
        (self.min, self.max)
    }

    fn area(&self) -> f64 {
        self.width() * self.height()
    }

    fn clamp(&self, p: Point2) -> Point2 {
        Point2::new(
            p.x.clamp(self.min.x, self.max.x),
            p.y.clamp(self.min.y, self.max.y),
        )
    }
}

/// A circular field boundary.
///
/// The continuous flux derivation of the paper (Formula 3.2) is carried out
/// on sector-shaped regions; a circular field is the natural smooth-boundary
/// comparison case for the non-differentiability discussion in §4.A.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Circle {
    center: Point2,
    radius: f64,
}

impl Circle {
    /// Creates the circle with the given `center` and `radius`.
    ///
    /// # Errors
    ///
    /// Returns [`GeometryError::InvalidRadius`] when `radius` is not positive
    /// and finite, [`GeometryError::NonFiniteCoordinate`] for a non-finite
    /// center.
    pub fn new(center: Point2, radius: f64) -> Result<Self, GeometryError> {
        if !center.is_finite() {
            return Err(GeometryError::NonFiniteCoordinate);
        }
        if !(radius.is_finite() && radius > 0.0) {
            return Err(GeometryError::InvalidRadius(radius));
        }
        Ok(Circle { center, radius })
    }

    /// Center of the circle.
    pub fn center(&self) -> Point2 {
        self.center
    }

    /// Radius of the circle.
    pub fn radius(&self) -> f64 {
        self.radius
    }
}

impl Boundary for Circle {
    fn contains(&self, p: Point2) -> bool {
        p.distance(self.center) <= self.radius + EPSILON
    }

    fn ray_exit_distance(&self, origin: Point2, dir: Vec2) -> Option<f64> {
        if !self.contains(origin) || dir.norm_squared() <= EPSILON {
            return None;
        }
        // Solve |origin + t·dir − center|² = r² for the positive root.
        let oc = origin - self.center;
        let a = dir.norm_squared();
        let b = 2.0 * oc.dot(dir);
        let c = oc.norm_squared() - self.radius * self.radius;
        let disc = b * b - 4.0 * a * c;
        if disc < 0.0 {
            return None;
        }
        let t = (-b + disc.sqrt()) / (2.0 * a);
        Some(t.max(0.0))
    }

    fn bounding_box(&self) -> (Point2, Point2) {
        let r = Vec2::new(self.radius, self.radius);
        (self.center - r, self.center + r)
    }

    fn area(&self) -> f64 {
        std::f64::consts::PI * self.radius * self.radius
    }

    fn clamp(&self, p: Point2) -> Point2 {
        let d = p - self.center;
        let n = d.norm();
        if n <= self.radius {
            p
        } else {
            self.center + d * (self.radius / n)
        }
    }

    fn diameter(&self) -> f64 {
        2.0 * self.radius
    }
}

/// A convex polygonal field boundary with counter-clockwise vertices.
///
/// Generalizes [`Rect`] to the irregular deployment regions of real
/// campuses; the ray query stays exact, so the flux model applies unchanged.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConvexPolygon {
    vertices: Vec<Point2>,
    area: f64,
}

impl ConvexPolygon {
    /// Creates a convex polygon from vertices in counter-clockwise order.
    ///
    /// # Errors
    ///
    /// Returns [`GeometryError::TooFewVertices`] for fewer than three
    /// vertices, [`GeometryError::NotConvex`] when consecutive edges turn
    /// clockwise, and [`GeometryError::NonFiniteCoordinate`] for non-finite
    /// input.
    pub fn new(vertices: Vec<Point2>) -> Result<Self, GeometryError> {
        if vertices.len() < 3 {
            return Err(GeometryError::TooFewVertices(vertices.len()));
        }
        if vertices.iter().any(|v| !v.is_finite()) {
            return Err(GeometryError::NonFiniteCoordinate);
        }
        let n = vertices.len();
        for i in 0..n {
            let a = vertices[i];
            let b = vertices[(i + 1) % n];
            let c = vertices[(i + 2) % n];
            if (b - a).cross(c - b) < -EPSILON {
                return Err(GeometryError::NotConvex {
                    vertex: (i + 1) % n,
                });
            }
        }
        // Shoelace formula; vertices are CCW so the signed area is positive.
        let mut area2 = 0.0;
        for i in 0..n {
            let a = vertices[i];
            let b = vertices[(i + 1) % n];
            area2 += a.x * b.y - b.x * a.y;
        }
        Ok(ConvexPolygon {
            vertices,
            area: area2.abs() / 2.0,
        })
    }

    /// The polygon's vertices, counter-clockwise.
    pub fn vertices(&self) -> &[Point2] {
        &self.vertices
    }
}

impl Boundary for ConvexPolygon {
    fn contains(&self, p: Point2) -> bool {
        let n = self.vertices.len();
        for i in 0..n {
            let a = self.vertices[i];
            let b = self.vertices[(i + 1) % n];
            if (b - a).cross(p - a) < -1e-7 {
                return false;
            }
        }
        true
    }

    fn ray_exit_distance(&self, origin: Point2, dir: Vec2) -> Option<f64> {
        if !self.contains(origin) || dir.norm_squared() <= EPSILON {
            return None;
        }
        let n = self.vertices.len();
        let mut best: Option<f64> = None;
        for i in 0..n {
            let a = self.vertices[i];
            let b = self.vertices[(i + 1) % n];
            let e = b - a;
            let denom = dir.cross(e);
            if denom.abs() <= EPSILON {
                continue; // ray parallel to this edge
            }
            let ao = a - origin;
            let t = ao.cross(e) / denom; // ray parameter
            let u = ao.cross(dir) / denom; // edge parameter
            if t >= -EPSILON && (-EPSILON..=1.0 + EPSILON).contains(&u) {
                let t = t.max(0.0);
                best = Some(best.map_or(t, |b: f64| b.max(t)));
            }
        }
        best
    }

    fn bounding_box(&self) -> (Point2, Point2) {
        let mut lo = Point2::new(f64::INFINITY, f64::INFINITY);
        let mut hi = Point2::new(f64::NEG_INFINITY, f64::NEG_INFINITY);
        for v in &self.vertices {
            lo.x = lo.x.min(v.x);
            lo.y = lo.y.min(v.y);
            hi.x = hi.x.max(v.x);
            hi.y = hi.y.max(v.y);
        }
        (lo, hi)
    }

    fn area(&self) -> f64 {
        self.area
    }

    fn clamp(&self, p: Point2) -> Point2 {
        if self.contains(p) {
            return p;
        }
        // Project onto the nearest edge segment.
        let n = self.vertices.len();
        let mut best = self.vertices[0];
        let mut best_d = f64::INFINITY;
        for i in 0..n {
            let a = self.vertices[i];
            let b = self.vertices[(i + 1) % n];
            let e = b - a;
            let t = ((p - a).dot(e) / e.norm_squared()).clamp(0.0, 1.0);
            let q = a + e * t;
            let d = p.distance_squared(q);
            if d < best_d {
                best_d = d;
                best = q;
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit_square() -> Rect {
        Rect::square(1.0).unwrap()
    }

    #[test]
    fn rect_rejects_bad_corners() {
        assert!(matches!(
            Rect::new(Point2::new(1.0, 0.0), Point2::new(0.0, 1.0)),
            Err(GeometryError::EmptyRect { .. })
        ));
        assert!(matches!(
            Rect::new(Point2::new(f64::NAN, 0.0), Point2::new(1.0, 1.0)),
            Err(GeometryError::NonFiniteCoordinate)
        ));
    }

    #[test]
    fn rect_contains_boundary_points() {
        let r = unit_square();
        assert!(r.contains(Point2::new(0.0, 0.0)));
        assert!(r.contains(Point2::new(1.0, 1.0)));
        assert!(r.contains(Point2::new(0.5, 0.0)));
        assert!(!r.contains(Point2::new(1.1, 0.5)));
        assert!(!r.contains(Point2::new(0.5, -0.1)));
    }

    #[test]
    fn rect_ray_exit_axis_aligned() {
        let r = Rect::square(30.0).unwrap();
        let c = Point2::new(10.0, 20.0);
        assert_eq!(r.ray_exit_distance(c, Vec2::new(1.0, 0.0)), Some(20.0));
        assert_eq!(r.ray_exit_distance(c, Vec2::new(-1.0, 0.0)), Some(10.0));
        assert_eq!(r.ray_exit_distance(c, Vec2::new(0.0, 1.0)), Some(10.0));
        assert_eq!(r.ray_exit_distance(c, Vec2::new(0.0, -1.0)), Some(20.0));
    }

    #[test]
    fn rect_ray_exit_diagonal() {
        let r = unit_square();
        let d = Vec2::new(1.0, 1.0).normalized().unwrap();
        let l = r.ray_exit_distance(Point2::new(0.0, 0.0), d).unwrap();
        assert!((l - 2f64.sqrt()).abs() < 1e-9);
    }

    #[test]
    fn rect_ray_from_outside_is_none() {
        let r = unit_square();
        assert_eq!(
            r.ray_exit_distance(Point2::new(2.0, 0.5), Vec2::new(1.0, 0.0)),
            None
        );
    }

    #[test]
    fn rect_zero_direction_is_none() {
        let r = unit_square();
        assert_eq!(r.ray_exit_distance(Point2::new(0.5, 0.5), Vec2::ZERO), None);
    }

    #[test]
    fn batch_exit_matches_scalar_for_every_shape() {
        let square = vec![
            Point2::new(0.0, 0.0),
            Point2::new(30.0, 0.0),
            Point2::new(30.0, 30.0),
            Point2::new(0.0, 30.0),
        ];
        let shapes: [Box<dyn Boundary>; 3] = [
            Box::new(Rect::square(30.0).unwrap()),
            Box::new(Circle::new(Point2::new(15.0, 15.0), 15.0).unwrap()),
            Box::new(ConvexPolygon::new(square).unwrap()),
        ];
        // Axis-parallel, diagonal, zero and NaN directions.
        let dirs = [
            (1.0, 0.0),
            (-1.0, 0.0),
            (0.0, 1.0),
            (0.0, -1.0),
            (0.6, -0.8),
            (-0.28, 0.96),
            (0.0, 0.0),
            (f64::NAN, 0.5),
        ];
        let (dx, dy): (Vec<f64>, Vec<f64>) = dirs.iter().copied().unzip();
        // Interior, on the boundary, at a corner, and outside.
        let origins = [(10.0, 20.0), (30.0, 12.0), (0.0, 0.0), (-1e-3, 15.0)];
        for shape in &shapes {
            for &(ox, oy) in &origins {
                let origin = Point2::new(ox, oy);
                let mut batch = vec![0.0; dirs.len()];
                shape.ray_exit_distances(origin, &dx, &dy, &mut batch);
                for (&(x, y), got) in dirs.iter().zip(&batch) {
                    let want = shape.ray_exit_distance(origin, Vec2::new(x, y));
                    match want {
                        Some(l) => assert_eq!(l, *got, "{shape:?} from {origin} along ({x}, {y})"),
                        None => assert!(got.is_nan(), "{shape:?} from {origin} along ({x}, {y})"),
                    }
                }
            }
        }
    }

    #[test]
    fn rect_clamp() {
        let r = unit_square();
        assert_eq!(r.clamp(Point2::new(0.5, 0.5)), Point2::new(0.5, 0.5));
        assert_eq!(r.clamp(Point2::new(-1.0, 0.5)), Point2::new(0.0, 0.5));
        assert_eq!(r.clamp(Point2::new(2.0, 3.0)), Point2::new(1.0, 1.0));
    }

    #[test]
    fn rect_geometry_accessors() {
        let r = Rect::new(Point2::new(1.0, 2.0), Point2::new(4.0, 7.0)).unwrap();
        assert_eq!(r.width(), 3.0);
        assert_eq!(r.height(), 5.0);
        assert_eq!(r.area(), 15.0);
        assert_eq!(r.center(), Point2::new(2.5, 4.5));
        assert!((r.diameter() - (9.0f64 + 25.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn circle_rejects_bad_radius() {
        assert!(Circle::new(Point2::ORIGIN, 0.0).is_err());
        assert!(Circle::new(Point2::ORIGIN, -2.0).is_err());
        assert!(Circle::new(Point2::ORIGIN, f64::NAN).is_err());
    }

    #[test]
    fn circle_ray_exit_from_center_is_radius() {
        let c = Circle::new(Point2::new(5.0, 5.0), 3.0).unwrap();
        for k in 0..8 {
            let d = Vec2::from_angle(k as f64 * std::f64::consts::FRAC_PI_4);
            let l = c.ray_exit_distance(Point2::new(5.0, 5.0), d).unwrap();
            assert!((l - 3.0).abs() < 1e-9);
        }
    }

    #[test]
    fn circle_ray_exit_off_center() {
        let c = Circle::new(Point2::ORIGIN, 2.0).unwrap();
        let l = c
            .ray_exit_distance(Point2::new(1.0, 0.0), Vec2::new(1.0, 0.0))
            .unwrap();
        assert!((l - 1.0).abs() < 1e-9);
        let l = c
            .ray_exit_distance(Point2::new(1.0, 0.0), Vec2::new(-1.0, 0.0))
            .unwrap();
        assert!((l - 3.0).abs() < 1e-9);
    }

    #[test]
    fn circle_clamp_projects_radially() {
        let c = Circle::new(Point2::ORIGIN, 2.0).unwrap();
        assert_eq!(c.clamp(Point2::new(1.0, 0.0)), Point2::new(1.0, 0.0));
        let q = c.clamp(Point2::new(10.0, 0.0));
        assert!((q.x - 2.0).abs() < 1e-12 && q.y.abs() < 1e-12);
        assert_eq!(c.diameter(), 4.0);
    }

    #[test]
    fn polygon_needs_three_ccw_vertices() {
        assert!(matches!(
            ConvexPolygon::new(vec![Point2::ORIGIN, Point2::new(1.0, 0.0)]),
            Err(GeometryError::TooFewVertices(2))
        ));
        // Clockwise triangle is rejected.
        let cw = vec![Point2::ORIGIN, Point2::new(0.0, 1.0), Point2::new(1.0, 0.0)];
        assert!(matches!(
            ConvexPolygon::new(cw),
            Err(GeometryError::NotConvex { .. })
        ));
    }

    #[test]
    fn polygon_square_matches_rect_behaviour() {
        let poly = ConvexPolygon::new(vec![
            Point2::new(0.0, 0.0),
            Point2::new(1.0, 0.0),
            Point2::new(1.0, 1.0),
            Point2::new(0.0, 1.0),
        ])
        .unwrap();
        let rect = unit_square();
        assert!((poly.area() - rect.area()).abs() < 1e-12);
        for (px, py, dx, dy) in [
            (0.5, 0.5, 1.0, 0.0),
            (0.5, 0.5, 0.0, -1.0),
            (0.25, 0.75, -1.0, 0.0),
        ] {
            let o = Point2::new(px, py);
            let d = Vec2::new(dx, dy);
            let lp = poly.ray_exit_distance(o, d).unwrap();
            let lr = rect.ray_exit_distance(o, d).unwrap();
            assert!((lp - lr).abs() < 1e-7, "{lp} vs {lr}");
        }
    }

    #[test]
    fn polygon_contains_and_clamp() {
        let tri = ConvexPolygon::new(vec![
            Point2::new(0.0, 0.0),
            Point2::new(4.0, 0.0),
            Point2::new(0.0, 4.0),
        ])
        .unwrap();
        assert!(tri.contains(Point2::new(1.0, 1.0)));
        assert!(!tri.contains(Point2::new(3.0, 3.0)));
        let q = tri.clamp(Point2::new(3.0, 3.0));
        // Nearest point on the hypotenuse x + y = 4.
        assert!((q.x + q.y - 4.0).abs() < 1e-9);
        let inside = tri.clamp(Point2::new(0.5, 0.5));
        assert_eq!(inside, Point2::new(0.5, 0.5));
    }

    #[test]
    fn polygon_bounding_box() {
        let tri = ConvexPolygon::new(vec![
            Point2::new(-1.0, 0.0),
            Point2::new(2.0, -1.0),
            Point2::new(1.0, 3.0),
        ])
        .unwrap();
        let (lo, hi) = tri.bounding_box();
        assert_eq!(lo, Point2::new(-1.0, -1.0));
        assert_eq!(hi, Point2::new(2.0, 3.0));
    }

    #[test]
    fn boundary_is_object_safe() {
        let boxed: Box<dyn Boundary> = Box::new(unit_square());
        assert!(boxed.contains(Point2::new(0.5, 0.5)));
    }
}
