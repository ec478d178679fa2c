//! End-to-end attack pipeline: scenarios, the passive-sniffing attacker,
//! identity-free error metrics, and traffic-reshaping countermeasures.
//!
//! This crate is the user-facing assembly of the `fluxprint` workspace:
//!
//! - [`Scenario`] / [`ScenarioBuilder`] — a deployed network plus mobile
//!   users (trajectories, collection schedules, stretches) and an
//!   observation window `ΔT`;
//! - [`run_instant_localization`] — the Figure 5/6 experiment: one
//!   observation window, NLS random-search localization of all active
//!   users;
//! - [`run_tracking`] — the Figure 7/8/10 experiment: a window-by-window
//!   Sequential Monte Carlo track of every user, asynchronous collections
//!   included;
//! - [`Countermeasure`] — the traffic-reshaping defenses sketched as
//!   future work in §6, applied to the flux before the adversary sniffs
//!   it;
//! - [`metrics`] — identity-free (Hungarian-matched) error scoring.
//!
//! # Example
//!
//! ```
//! use fluxprint_core::{AttackConfig, ScenarioBuilder, run_instant_localization};
//! use fluxprint_geometry::Point2;
//! use fluxprint_mobility::{CollectionSchedule, Trajectory, UserMotion};
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let scenario = ScenarioBuilder::new()
//!     .grid_nodes(20, 20)
//!     .radius(3.0)
//!     .user(UserMotion::new(
//!         Trajectory::stationary(0.0, Point2::new(12.0, 17.0))?,
//!         CollectionSchedule::periodic(0.0, 1.0, 10)?,
//!         2.0,
//!     )?)
//!     .build(&mut rng)?;
//! let mut config = AttackConfig::default();
//! config.search.samples = 1500;
//! let report = run_instant_localization(&scenario, 0.0, &config, &mut rng)?;
//! assert_eq!(report.truths.len(), 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

mod attack;
mod countermeasure;
mod error;
pub mod metrics;
mod scenario;
pub mod spec;

pub use attack::{
    run_instant_localization, run_tracking, AttackConfig, InstantReport, SnifferSpec,
    TrackingReport, TrackingRound,
};
pub use countermeasure::Countermeasure;
pub use error::CoreError;
pub use scenario::{Scenario, ScenarioBuilder};
