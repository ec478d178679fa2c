//! fluxengine: the streaming, checkpointable tracking engine.
//!
//! The paper's adversary (Algorithm 4.1) is inherently *online*: it
//! consumes one observation window at a time and updates users
//! asynchronously. This crate exposes that shape directly, layered as:
//!
//! 1. **Observation layer** (`netsim`) — a sniffer packages each window
//!    as a self-contained [`ObservationRound`] (time, node ids, fluxes),
//!    tolerant of sniffer-set churn between rounds.
//! 2. **Session layer** (this crate) — an [`Engine`] holds the immutable
//!    scenario knowledge (boundary, flux model, node map) and opens
//!    [`Session`]s: resumable state machines wrapping the NLS objective
//!    and the SMC tracker. [`Session::ingest`] consumes one round and
//!    returns the tracker's [`StepOutcome`]; users can
//!    [`join`](Session::join), be [`suspend`](Session::suspend)ed,
//!    [`resume`](Session::resume)d, or [`depart`](Session::depart).
//! 3. **Persistence layer** — [`Session::checkpoint_compact`] snapshots
//!    the session (tracker samples, weights, histories, RNG stream
//!    position, lifecycle and warm states) into one versioned, compact
//!    [`CompactCheckpoint`]; [`Engine::restore_compact`] revives it with
//!    a bit-identity guarantee: restore-then-ingest produces exactly the
//!    outcomes an uninterrupted run would have. Grid checkpoints,
//!    hibernation and fluxd's checkpoint frame carry the same form.
//! 4. **Grid layer** ([`grid`]) — a sharded multi-session scheduler:
//!    rounds queue into bounded per-session buffers with explicit
//!    backpressure, and a drain barrier batch-ingests every queue on up
//!    to one worker per shard, each with its own solver scratch,
//!    claiming sessions from one shared list — bit-identical to driving
//!    each session alone.
//! 5. **Driver layer** (`core::attack`) — the legacy batch pipeline is a
//!    thin adapter over this engine.
//!
//! A round runs on the thread that ingests it: [`Session::ingest`] on
//! its caller's, a grid-resident session's on whichever drain worker
//! claims it, so thousands of sessions never serialize on shared state.
//!
//! # Quickstart
//!
//! Build a network, sniff part of it, and drive a session with three
//! observation rounds:
//!
//! ```
//! use fluxprint_engine::{Engine, SessionConfig};
//! use fluxprint_fluxmodel::FluxModel;
//! use fluxprint_geometry::{Point2, Rect};
//! use fluxprint_netsim::{NetworkBuilder, NoiseModel, Sniffer};
//! use fluxprint_smc::SmcConfig;
//! use rand::SeedableRng;
//!
//! // Producer side: a simulated network with one mobile user collecting.
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let net = NetworkBuilder::new()
//!     .field(Rect::square(30.0)?)
//!     .perturbed_grid(15, 15, 0.3)
//!     .radius(4.0)
//!     .build(&mut rng)?;
//! let sniffer = Sniffer::random_count(&net, 60, &mut rng)?;
//!
//! // Consumer side: an engine sharing the network's map, one session.
//! let engine = Engine::for_network(&net, FluxModel::default())?;
//! let config = SessionConfig {
//!     users: 1,
//!     smc: SmcConfig { n_predictions: 200, ..Default::default() },
//!     start_time: 0.0,
//!     warm: false,
//! };
//! let mut session = engine.open_session(&config, 7)?;
//!
//! for round_no in 1..=3 {
//!     let t = round_no as f64;
//!     let user = (Point2::new(10.0 + 2.0 * t, 15.0), 2.0);
//!     let flux = net.simulate_flux(&[user], &mut rng)?;
//!     let round = sniffer.observe_round_smoothed(t, &net, &flux, NoiseModel::None, &mut rng);
//!     let outcome = session.ingest(&round)?;
//!     assert_eq!(outcome.time, t);
//! }
//! assert_eq!(session.rounds_ingested(), 3);
//!
//! // Snapshot the session; a restored session continues bit-identically.
//! let json = session.checkpoint_compact(2).to_json()?;
//! let revived = engine.restore_compact_json(&json)?;
//! assert_eq!(revived.time(), session.time());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

mod checkpoint;
mod engine;
mod error;
pub mod grid;
mod session;

pub use checkpoint::{CompactCheckpoint, CHECKPOINT_VERSION};
pub use engine::{Engine, SessionConfig};
pub use error::EngineError;
pub use grid::{Grid, GridCheckpoint, GridConfig, GridSessionCheckpoint, SessionId, Submit};
pub use session::{Session, UserState, WarmState, WARM_ESCAPE_EVERY};

// Re-exported so engine users can name round inputs and step outputs
// without depending on the producer crates directly.
pub use fluxprint_netsim::ObservationRound;
pub use fluxprint_smc::StepOutcome;
