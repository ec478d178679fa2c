//! Sequential Monte Carlo tracking of mobile sinks (Algorithm 4.1).
//!
//! Each tracked user is represented by a small set of weighted position
//! samples. Every observation window:
//!
//! 1. **Prediction** — from each kept sample, draw new candidates uniformly
//!    in the reachable disc of radius `v_max · Δt` (Formula 4.2), where
//!    `Δt` is the time since this user's *last detected collection* — the
//!    asynchronous-updating rule of §4.E.
//! 2. **Filtering** — score candidates by the NLS residual `‖F̂ − F′‖`
//!    with inner NNLS stretch fits, and keep the top `M` candidates per
//!    user. The paper writes this as an `N^K` enumeration of position
//!    combinations; [`associate`] instead selects the active sources by
//!    forward selection and ranks each selected user's candidates by the
//!    residual conditioned on the others' choices (see DESIGN.md §4b.3).
//! 3. **Importance update** — weight survivors by
//!    `w_t ∝ w_{t-1} · P(o_t | p)` with `P(o|p) ≈ 1 / ‖F̂ − F′‖`
//!    (Formula 4.3), normalized per user.
//! 4. **Asynchronous gate** — a user whose best-fit stretch `q → 0` did not
//!    collect this window: its samples and `Δt` origin are left untouched.
//!
//! # Example
//!
//! ```
//! use fluxprint_fluxmodel::FluxModel;
//! use fluxprint_geometry::{Point2, Rect};
//! use fluxprint_smc::{SmcConfig, Tracker};
//! use fluxprint_solver::FluxObjective;
//! use rand::SeedableRng;
//! use std::sync::Arc;
//!
//! let field: Arc<dyn fluxprint_geometry::Boundary> = Arc::new(Rect::square(30.0)?);
//! let model = FluxModel::default();
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let config = SmcConfig { n_predictions: 200, ..Default::default() };
//! let mut tracker = Tracker::new(1, field.clone(), model, config, 0.0, &mut rng)?;
//!
//! // One synthetic observation window with the user at (12, 17).
//! let sniffers: Vec<Point2> =
//!     (0..36).map(|i| Point2::new(2.5 + (i % 6) as f64 * 5.0, 2.5 + (i / 6) as f64 * 5.0)).collect();
//! let truth = Point2::new(12.0, 17.0);
//! let measured: Vec<f64> =
//!     sniffers.iter().map(|&p| model.predict(truth, 2.0, p, field.as_ref())).collect();
//! let objective = FluxObjective::new(field, model, sniffers, measured)?;
//! let outcome = tracker.step(1.0, &objective, &mut rng)?;
//! assert!(outcome.active[0]);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
// Candidate scans are index loops on purpose: the index is the candidate
// identity carried into rankings and combination vectors.
#![allow(clippy::needless_range_loop)]

mod association;
mod config;
mod error;
mod estimate;
mod state;
mod tracker;

pub use association::{associate, Association};
pub use config::{SmcConfig, MAX_N_PREDICTIONS};
pub use error::SmcError;
pub use estimate::{effective_sample_size, weighted_mean, WeightedSample};
pub use state::{CompactTrackerState, CompactUserTrackState, TrackerState, UserTrackState};
pub use tracker::{
    StepOutcome, Tracker, ACTIVITY_MIN_GAIN, ACTIVITY_THRESHOLD, EXPLORE_ACCEPT_RATIO,
    EXPLORE_FRACTION, WARM_SHRINK,
};
