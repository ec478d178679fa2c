//! Scenario assembly: a deployed network plus mobile users.

use rand::Rng;

use fluxprint_geometry::{Circle, Point2, Rect};
use fluxprint_mobility::UserMotion;
use fluxprint_netsim::{Network, NetworkBuilder};

use crate::CoreError;

/// A complete experiment setup: the sensor network, the mobile users, and
/// the adversary's observation window `ΔT`.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// The deployed sensor network.
    pub network: Network,
    /// The mobile users (trajectory + schedule + stretch each).
    pub users: Vec<UserMotion>,
    /// Observation window length `ΔT` (§3.A).
    pub window: f64,
}

impl Scenario {
    /// Number of mobile users.
    pub fn k(&self) -> usize {
        self.users.len()
    }

    /// Time span covered by the users' collection schedules, as
    /// `(earliest, latest)`.
    pub fn time_span(&self) -> (f64, f64) {
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for u in &self.users {
            let (a, b) = u.schedule.span();
            lo = lo.min(a);
            hi = hi.max(b);
        }
        (lo, hi)
    }

    /// The users that collect during `[t, t + window)`, as
    /// `(user index, collection position, stretch)`.
    pub fn active_users_at(&self, t: f64) -> Vec<(usize, Point2, f64)> {
        self.users
            .iter()
            .enumerate()
            .filter_map(|(i, u)| {
                u.collection_in(t, t + self.window)
                    .map(|(_, p)| (i, p, u.stretch))
            })
            .collect()
    }

    /// Ground-truth positions of *all* users at time `t`.
    pub fn truths_at(&self, t: f64) -> Vec<Point2> {
        self.users.iter().map(|u| u.position_at(t)).collect()
    }

    /// Simulates the flux of one observation window starting at `t`:
    /// every user collecting in the window builds a fresh randomized tree
    /// at its collection position; their fluxes superpose.
    ///
    /// # Errors
    ///
    /// Propagates network-simulation failures.
    pub fn simulate_window<R: Rng + ?Sized>(
        &self,
        t: f64,
        rng: &mut R,
    ) -> Result<Vec<f64>, CoreError> {
        let active: Vec<(Point2, f64)> = self
            .active_users_at(t)
            .into_iter()
            .map(|(_, p, s)| (p, s))
            .collect();
        Ok(self.network.simulate_flux(&active, rng)?)
    }
}

/// Node layout requested from the builder.
#[derive(Debug, Clone, Copy)]
enum Layout {
    Grid {
        rows: usize,
        cols: usize,
        jitter: f64,
    },
    Random {
        n: usize,
    },
}

/// Field shape requested from the builder.
#[derive(Debug, Clone, Copy)]
enum FieldShape {
    Square { side: f64 },
    Circle { radius: f64 },
}

/// Builder for [`Scenario`], defaulting to the paper's §5.A setup: a
/// `30 × 30` field, 900 nodes on a perturbed grid, radius 2.4, window 1.
#[derive(Debug, Clone)]
pub struct ScenarioBuilder {
    field: FieldShape,
    layout: Layout,
    radius: f64,
    window: f64,
    users: Vec<UserMotion>,
}

impl Default for ScenarioBuilder {
    fn default() -> Self {
        ScenarioBuilder {
            field: FieldShape::Square { side: 30.0 },
            layout: Layout::Grid {
                rows: 30,
                cols: 30,
                jitter: 0.3,
            },
            radius: 2.4,
            window: 1.0,
            users: Vec::new(),
        }
    }
}

impl ScenarioBuilder {
    /// Creates a builder with the paper defaults.
    pub fn new() -> Self {
        ScenarioBuilder::default()
    }

    /// Sets the square field's side length.
    pub fn field_side(mut self, side: f64) -> Self {
        self.field = FieldShape::Square { side };
        self
    }

    /// Uses a circular field of the given radius instead of a square.
    ///
    /// Beyond the paper: a smooth boundary makes the NLS objective
    /// differentiable everywhere, the regime where §4.A says classical
    /// smooth solvers such as Levenberg–Marquardt become applicable.
    pub fn circular_field(mut self, radius: f64) -> Self {
        self.field = FieldShape::Circle { radius };
        self
    }

    /// Deploys `rows × cols` nodes on a perturbed grid.
    pub fn grid_nodes(mut self, rows: usize, cols: usize) -> Self {
        self.layout = Layout::Grid {
            rows,
            cols,
            jitter: 0.3,
        };
        self
    }

    /// Deploys `n` nodes uniformly at random (the "more variable"
    /// deployment of §5.C).
    pub fn random_nodes(mut self, n: usize) -> Self {
        self.layout = Layout::Random { n };
        self
    }

    /// Sets the communication radius.
    pub fn radius(mut self, radius: f64) -> Self {
        self.radius = radius;
        self
    }

    /// Sets the observation window `ΔT`.
    pub fn window(mut self, window: f64) -> Self {
        self.window = window;
        self
    }

    /// Adds one mobile user.
    pub fn user(mut self, user: UserMotion) -> Self {
        self.users.push(user);
        self
    }

    /// Adds several mobile users.
    pub fn users<I: IntoIterator<Item = UserMotion>>(mut self, users: I) -> Self {
        self.users.extend(users);
        self
    }

    /// Builds the scenario, deploying the network with `rng`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NoUsers`] when no user was added,
    /// [`CoreError::BadConfig`] for invalid field/window values, and
    /// network-construction failures otherwise.
    pub fn build<R: Rng + ?Sized>(self, rng: &mut R) -> Result<Scenario, CoreError> {
        if self.users.is_empty() {
            return Err(CoreError::NoUsers);
        }
        if !(self.window.is_finite() && self.window > 0.0) {
            return Err(CoreError::BadConfig { field: "window" });
        }
        let builder = match self.field {
            FieldShape::Square { side } => {
                let field = Rect::square(side).map_err(|_| CoreError::BadConfig {
                    field: "field_side",
                })?;
                NetworkBuilder::new().field(field)
            }
            FieldShape::Circle { radius } => {
                let field = Circle::new(Point2::new(radius, radius), radius).map_err(|_| {
                    CoreError::BadConfig {
                        field: "circular_field",
                    }
                })?;
                NetworkBuilder::new().field(field)
            }
        }
        .radius(self.radius);
        let builder = match self.layout {
            Layout::Grid { rows, cols, jitter } => builder.perturbed_grid(rows, cols, jitter),
            Layout::Random { n } => builder.uniform_random(n),
        };
        let network = builder.require_connected(true).build(rng)?;
        Ok(Scenario {
            network,
            users: self.users,
            window: self.window,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fluxprint_mobility::{CollectionSchedule, Trajectory};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn static_user(x: f64, y: f64, t0: f64, interval: f64, stretch: f64) -> UserMotion {
        UserMotion::new(
            Trajectory::stationary(0.0, Point2::new(x, y)).unwrap(),
            CollectionSchedule::periodic(t0, interval, 20).unwrap(),
            stretch,
        )
        .unwrap()
    }

    #[test]
    fn builds_paper_default_network() {
        let mut rng = StdRng::seed_from_u64(1);
        let scenario = ScenarioBuilder::new()
            .user(static_user(15.0, 15.0, 0.0, 1.0, 2.0))
            .build(&mut rng)
            .unwrap();
        assert_eq!(scenario.network.len(), 900);
        assert_eq!(scenario.k(), 1);
        assert_eq!(scenario.window, 1.0);
        assert!(scenario.network.is_connected());
    }

    #[test]
    fn active_users_respect_windows() {
        let mut rng = StdRng::seed_from_u64(2);
        let scenario = ScenarioBuilder::new()
            .grid_nodes(15, 15)
            .radius(4.0)
            .user(static_user(10.0, 10.0, 0.0, 2.0, 1.0)) // collects at 0, 2, 4, …
            .user(static_user(20.0, 20.0, 1.0, 2.0, 3.0)) // collects at 1, 3, 5, …
            .build(&mut rng)
            .unwrap();
        let at0 = scenario.active_users_at(0.0);
        assert_eq!(at0.len(), 1);
        assert_eq!(at0[0].0, 0);
        let at1 = scenario.active_users_at(1.0);
        assert_eq!(at1.len(), 1);
        assert_eq!(at1[0].0, 1);
        assert_eq!(at1[0].2, 3.0);
        assert_eq!(scenario.time_span(), (0.0, 39.0));
    }

    #[test]
    fn simulate_window_superposes_only_active_users() {
        let mut rng = StdRng::seed_from_u64(3);
        let scenario = ScenarioBuilder::new()
            .grid_nodes(15, 15)
            .radius(4.0)
            .user(static_user(10.0, 10.0, 0.0, 2.0, 1.0))
            .user(static_user(20.0, 20.0, 1.0, 2.0, 3.0))
            .build(&mut rng)
            .unwrap();
        let flux0 = scenario.simulate_window(0.0, &mut rng).unwrap();
        // Only user 0 (stretch 1) collects at t=0: peak is n × 1.
        let peak = flux0.iter().cloned().fold(0.0, f64::max);
        assert_eq!(peak, scenario.network.len() as f64);
        let flux1 = scenario.simulate_window(1.0, &mut rng).unwrap();
        let peak1 = flux1.iter().cloned().fold(0.0, f64::max);
        assert_eq!(peak1, 3.0 * scenario.network.len() as f64);
    }

    #[test]
    fn truths_at_interpolate_trajectories() {
        let mut rng = StdRng::seed_from_u64(4);
        let moving = UserMotion::new(
            Trajectory::linear(0.0, Point2::new(5.0, 15.0), 10.0, Point2::new(25.0, 15.0)).unwrap(),
            CollectionSchedule::periodic(0.0, 1.0, 11).unwrap(),
            2.0,
        )
        .unwrap();
        let scenario = ScenarioBuilder::new()
            .grid_nodes(15, 15)
            .radius(4.0)
            .user(moving)
            .build(&mut rng)
            .unwrap();
        assert_eq!(scenario.truths_at(5.0), vec![Point2::new(15.0, 15.0)]);
    }

    #[test]
    fn builder_validation() {
        let mut rng = StdRng::seed_from_u64(5);
        assert!(matches!(
            ScenarioBuilder::new().build(&mut rng),
            Err(CoreError::NoUsers)
        ));
        assert!(matches!(
            ScenarioBuilder::new()
                .field_side(-1.0)
                .user(static_user(1.0, 1.0, 0.0, 1.0, 1.0))
                .build(&mut rng),
            Err(CoreError::BadConfig {
                field: "field_side"
            })
        ));
        assert!(matches!(
            ScenarioBuilder::new()
                .window(0.0)
                .user(static_user(1.0, 1.0, 0.0, 1.0, 1.0))
                .build(&mut rng),
            Err(CoreError::BadConfig { field: "window" })
        ));
    }

    #[test]
    fn circular_field_builds_and_contains_nodes() {
        let mut rng = StdRng::seed_from_u64(7);
        let scenario = ScenarioBuilder::new()
            .circular_field(15.0)
            .random_nodes(500)
            .radius(3.0)
            .user(static_user(15.0, 15.0, 0.0, 1.0, 1.0))
            .build(&mut rng)
            .unwrap();
        assert_eq!(scenario.network.len(), 500);
        let center = Point2::new(15.0, 15.0);
        for &p in scenario.network.positions() {
            assert!(p.distance(center) <= 15.0 + 1e-9);
        }
        assert!(scenario.network.is_connected());
    }

    #[test]
    fn invalid_circular_field_rejected() {
        let mut rng = StdRng::seed_from_u64(8);
        assert!(matches!(
            ScenarioBuilder::new()
                .circular_field(0.0)
                .user(static_user(1.0, 1.0, 0.0, 1.0, 1.0))
                .build(&mut rng),
            Err(CoreError::BadConfig {
                field: "circular_field"
            })
        ));
    }

    #[test]
    fn random_layout_deploys_n_nodes() {
        let mut rng = StdRng::seed_from_u64(6);
        let scenario = ScenarioBuilder::new()
            .random_nodes(400)
            .radius(3.0)
            .user(static_user(15.0, 15.0, 0.0, 1.0, 1.0))
            .build(&mut rng)
            .unwrap();
        assert_eq!(scenario.network.len(), 400);
    }
}
