//! NLS parameter fitting for mobile-sink localization (§4.A of the paper).
//!
//! The adversary fits the flux model to sparse sniffed measurements: find
//! sink positions `(x_j, y_j)` and integrated stretch factors `q_j = s_j/r`
//! minimizing `‖F̂ − F′‖` (Equation 4.1). The problem splits:
//!
//! - **inner fit** — for fixed positions the model is linear in `q`, so the
//!   optimal stretches come from non-negative least squares
//!   ([`FluxObjective::evaluate`]);
//! - **outer search** — the boundary term makes the objective
//!   non-differentiable on rectangular fields, ruling out Gauss–Newton /
//!   Levenberg–Marquardt (the paper cites this explicitly), so position
//!   search is derivative-free: multi-start [`random_search`] with
//!   [`nelder_mead`] refinement. A smooth-solver baseline is still
//!   implemented ([`levenberg_marquardt`]) so the claim can be reproduced
//!   as an ablation.
//!
//! The crate also provides the full-map recursive **flux briefing** of §3.C
//! ([`brief_flux_map`]) and a Hungarian [`min_cost_assignment`] used to
//! score identity-free localization error.
//!
//! # Example
//!
//! ```
//! use fluxprint_fluxmodel::FluxModel;
//! use fluxprint_geometry::{Point2, Rect};
//! use fluxprint_solver::{random_search, FluxObjective, RandomSearchConfig};
//! use rand::SeedableRng;
//! use std::sync::Arc;
//!
//! // A toy observation: flux generated by the model itself for one sink.
//! let field = Rect::square(30.0)?;
//! let sniffers: Vec<Point2> = (0..40)
//!     .map(|i| Point2::new(1.5 + (i % 8) as f64 * 3.5, 2.0 + (i / 8) as f64 * 5.5))
//!     .collect();
//! let model = FluxModel::default();
//! let truth = Point2::new(12.0, 17.0);
//! let measured: Vec<f64> =
//!     sniffers.iter().map(|&p| model.predict(truth, 2.0, p, &field)).collect();
//!
//! let objective = FluxObjective::new(Arc::new(field), model, sniffers, measured)?;
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let fits = random_search(&objective, 1, &RandomSearchConfig::default(), &mut rng)?;
//! assert!(fits[0].positions[0].distance(truth) < 1.5);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

mod assignment;
mod briefing;
mod error;
mod levenberg_marquardt;
mod nelder_mead;
mod objective;
mod random_search;
mod scoring;

pub use assignment::min_cost_assignment;
pub use briefing::{brief_flux_map, BriefedSink, BriefingConfig, BriefingRound};
pub use error::SolverError;
pub use levenberg_marquardt::{levenberg_marquardt, SmoothSolverReport};
pub use nelder_mead::nelder_mead;
pub use objective::{FluxObjective, SinkFit};
pub use random_search::{random_search, refine_fit, RandomSearchConfig};
pub use scoring::{CacheScratch, Conditioner, ScoringCache, Slot};
