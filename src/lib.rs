//! # fluxprint
//!
//! A full reproduction of **"Fingerprinting Mobile User Positions in Sensor
//! Networks"** (Li, Jiang, Guibas — ICDCS 2010): a passive adversary sniffs
//! only the *amount* of traffic (network flux) at a sparse subset of sensor
//! nodes and, from that alone, localizes and tracks every mobile user
//! collecting data from the network.
//!
//! This crate is a facade re-exporting the workspace's public API:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`geometry`] | `fluxprint-geometry` | points, field boundaries, deployments, spatial index |
//! | [`linalg`] | `fluxprint-linalg` | dense matrices, QR/LU, NNLS |
//! | [`stats`] | `fluxprint-stats` | descriptive stats, ECDF, weighted sampling |
//! | [`netsim`] | `fluxprint-netsim` | the sensor-network simulator: unit-disk topologies, collection trees, flux, sniffers |
//! | [`mobility`] | `fluxprint-mobility` | trajectories, mobility models, campus-trace generator, schedules |
//! | [`fluxmodel`] | `fluxprint-fluxmodel` | the analytical flux model (Formulas 3.2–3.4) and its accuracy statistics |
//! | [`solver`] | `fluxprint-solver` | NLS objective, random search + Nelder–Mead, LM baseline, flux briefing, Hungarian matching |
//! | [`smc`] | `fluxprint-smc` | the Sequential Monte Carlo tracker (Algorithm 4.1) |
//! | [`core`] | `fluxprint-core` | scenarios, end-to-end attacks, metrics, countermeasures |
//!
//! The most common entry points are re-exported at the top level.
//!
//! ## Quickstart
//!
//! ```
//! use fluxprint::{run_instant_localization, AttackConfig, ScenarioBuilder};
//! use fluxprint::geometry::Point2;
//! use fluxprint::mobility::{CollectionSchedule, Trajectory, UserMotion};
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//!
//! // A user wanders the paper's 30×30 field, pulling data every second.
//! let user = UserMotion::new(
//!     Trajectory::stationary(0.0, Point2::new(12.0, 17.0))?,
//!     CollectionSchedule::periodic(0.0, 1.0, 10)?,
//!     2.0, // traffic stretch
//! )?;
//! let scenario = ScenarioBuilder::new()
//!     .grid_nodes(20, 20)
//!     .radius(3.0)
//!     .user(user)
//!     .build(&mut rng)?;
//!
//! // The adversary sniffs 10 % of the nodes and fits the flux model.
//! let mut config = AttackConfig::default();
//! config.search.samples = 1500;
//! let report = run_instant_localization(&scenario, 0.0, &config, &mut rng)?;
//! println!("true: {:?}, found: {:?}", report.truths, report.estimates);
//! assert!(report.mean_error < 3.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub use fluxprint_core::{
    metrics, run_instant_localization, run_tracking, AttackConfig, CoreError, Countermeasure,
    InstantReport, Scenario, ScenarioBuilder, SnifferSpec, TrackingReport, TrackingRound,
};

/// Planar geometry: points, boundaries, deployments (`fluxprint-geometry`).
pub mod geometry {
    pub use fluxprint_geometry::*;
}

/// Dense linear algebra and NNLS (`fluxprint-linalg`).
pub mod linalg {
    pub use fluxprint_linalg::*;
}

/// Statistics and sampling (`fluxprint-stats`).
pub mod stats {
    pub use fluxprint_stats::*;
}

/// The sensor-network simulator (`fluxprint-netsim`).
pub mod netsim {
    pub use fluxprint_netsim::*;
}

/// Mobility models, schedules, and campus traces (`fluxprint-mobility`).
pub mod mobility {
    pub use fluxprint_mobility::*;
}

/// The analytical network-flux model (`fluxprint-fluxmodel`).
pub mod fluxmodel {
    pub use fluxprint_fluxmodel::*;
}

/// NLS fitting, searches, briefing, assignment (`fluxprint-solver`).
pub mod solver {
    pub use fluxprint_solver::*;
}

/// Sequential Monte Carlo tracking (`fluxprint-smc`).
pub mod smc {
    pub use fluxprint_smc::*;
}

/// The streaming, checkpointable tracking engine (`fluxprint-engine`).
pub mod engine {
    pub use fluxprint_engine::*;
}

/// The end-to-end attack pipeline (`fluxprint-core`).
pub mod core {
    pub use fluxprint_core::*;
}
