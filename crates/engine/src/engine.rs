//! The session factory: shared scenario geometry + network view.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use fluxprint_fluxmodel::FluxModel;
use fluxprint_geometry::{Boundary, Point2};
use fluxprint_netsim::Network;
use fluxprint_smc::{SmcConfig, Tracker};
use fluxprint_telemetry::{self as telemetry, names};

use crate::{CompactCheckpoint, EngineError, Session, SessionCheckpoint, UserState, WarmState};

/// Parameters for one tracking session.
#[derive(Debug, Clone)]
pub struct SessionConfig {
    /// Number of users tracked from the start (more can [`join`] later).
    ///
    /// [`join`]: crate::Session::join
    pub users: usize,
    /// The SMC tracker configuration (§4.C parameters).
    pub smc: SmcConfig,
    /// Time origin: the first ingested round must be strictly later.
    pub start_time: f64,
    /// Warm-started solving: carry per-user hot flags across rounds so
    /// tracked users search a shrunk candidate set seeded from their
    /// posterior, with a full-width escape sweep every
    /// [`WARM_ESCAPE_EVERY`](crate::WARM_ESCAPE_EVERY) rounds. Off by
    /// default — the cold path is the equivalence oracle.
    pub warm: bool,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig {
            users: 1,
            smc: SmcConfig::default(),
            start_time: 0.0,
            warm: false,
        }
    }
}

/// The streaming tracking engine: immutable scenario knowledge — field
/// boundary, flux model, and the adversary's map of node positions —
/// shared by any number of concurrent [`Session`]s.
///
/// The engine itself holds no mutable state; sessions own theirs, which
/// is what makes them individually checkpointable. All sessions share
/// the process-wide `fluxpar` worker pool through the solver, so opening
/// many sessions does not multiply thread counts.
#[derive(Debug, Clone)]
pub struct Engine {
    boundary: Arc<dyn Boundary>,
    model: FluxModel,
    node_positions: Arc<[Point2]>,
}

impl Engine {
    /// Creates an engine over explicit scenario knowledge: the field
    /// boundary, the flux model to fit against, and the positions of all
    /// network nodes indexed by node id (the adversary's map — rounds
    /// reference nodes by id and the engine resolves them here).
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::BadConfig`] for an empty or non-finite
    /// node map or a degenerate model floor.
    pub fn new(
        boundary: Arc<dyn Boundary>,
        model: FluxModel,
        node_positions: Vec<Point2>,
    ) -> Result<Self, EngineError> {
        if node_positions.is_empty() {
            return Err(EngineError::BadConfig {
                field: "node_positions",
            });
        }
        if node_positions
            .iter()
            .any(|p| !(p.x.is_finite() && p.y.is_finite()))
        {
            return Err(EngineError::BadConfig {
                field: "node_positions",
            });
        }
        if !(model.d_floor().is_finite() && model.d_floor() > 0.0) {
            return Err(EngineError::BadConfig {
                field: "model.d_floor",
            });
        }
        Ok(Engine {
            boundary,
            model,
            node_positions: node_positions.into(),
        })
    }

    /// Creates an engine sharing a simulated [`Network`]'s boundary and
    /// node map — the common case when producer and consumer live in the
    /// same process.
    ///
    /// # Errors
    ///
    /// As [`new`](Engine::new).
    pub fn for_network(network: &Network, model: FluxModel) -> Result<Self, EngineError> {
        Engine::new(network.boundary_arc(), model, network.positions().to_vec())
    }

    /// Opens a fresh session seeded from `seed`: the tracker's uninformed
    /// prior and every subsequent [`ingest`](Session::ingest) draw from
    /// one deterministic stream, so (engine, config, seed, rounds) fully
    /// determine every outcome.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::BadConfig`] for a non-finite start time and
    /// propagates tracker construction errors (zero users, bad SMC
    /// configuration).
    pub fn open_session(&self, config: &SessionConfig, seed: u64) -> Result<Session, EngineError> {
        let mut rng = StdRng::seed_from_u64(seed);
        self.open_session_inner(config, &mut rng, None)
    }

    /// Opens a session whose tracker prior is drawn from a caller-owned
    /// RNG — the batch adapter uses this (paired with
    /// [`ingest_with`](Session::ingest_with)) to reproduce the legacy
    /// pipeline's RNG call order exactly: the tracker prior is the only
    /// draw taken from `rng`, and the session's own stream is seeded to a
    /// constant so the caller's stream position is exactly where the
    /// legacy pipeline would leave it. Sessions opened this way should be
    /// driven via `ingest_with` throughout.
    ///
    /// # Errors
    ///
    /// As [`open_session`](Engine::open_session).
    pub fn open_session_with<R: Rng + ?Sized>(
        &self,
        config: &SessionConfig,
        rng: &mut R,
    ) -> Result<Session, EngineError> {
        self.open_session_inner(config, rng, Some(StdRng::seed_from_u64(0)))
    }

    fn open_session_inner<R: Rng + ?Sized>(
        &self,
        config: &SessionConfig,
        rng: &mut R,
        own: Option<StdRng>,
    ) -> Result<Session, EngineError> {
        if !config.start_time.is_finite() {
            return Err(EngineError::BadConfig {
                field: "start_time",
            });
        }
        let tracker = Tracker::new(
            config.users,
            Arc::clone(&self.boundary),
            self.model,
            config.smc,
            config.start_time,
            rng,
        )?;
        telemetry::counter(names::ENGINE_SESSIONS, 1);
        let rng = own.unwrap_or_else(|| StdRng::from_state(state_of(rng)));
        Ok(Session {
            boundary: Arc::clone(&self.boundary),
            model: self.model,
            node_positions: Arc::clone(&self.node_positions),
            tracker,
            rng,
            users: vec![UserState::Active; config.users],
            rounds_ingested: 0,
            template: None,
            warm: config.warm.then(|| WarmState::cold(config.users)),
        })
    }

    /// Revives a session from a [`SessionCheckpoint`] against this
    /// engine's boundary and node map.
    ///
    /// Restore is exact: the revived session produces bit-identical
    /// outcomes to the one the checkpoint was taken from, given the same
    /// subsequent rounds — the tracker state, user lifecycle states, and
    /// RNG stream position all resume where they stopped. The flux model
    /// travels inside the checkpoint (it is tracker state), so a session
    /// restores faithfully even on an engine built with a different
    /// model.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::UnsupportedVersion`] or
    /// [`EngineError::BadCheckpoint`] for a malformed checkpoint and
    /// propagates tracker snapshot validation errors.
    pub fn restore(&self, checkpoint: &SessionCheckpoint) -> Result<Session, EngineError> {
        checkpoint.validate()?;
        let tracker = Tracker::from_state(checkpoint.tracker.clone(), Arc::clone(&self.boundary))?;
        Ok(self.resume(
            tracker,
            checkpoint.decode_rng()?,
            &checkpoint.users,
            checkpoint.rounds_ingested,
            &checkpoint.warm,
        ))
    }

    /// Assembles a restored session around an already-validated tracker.
    fn resume(
        &self,
        tracker: Tracker,
        rng: [u64; 4],
        users: &[UserState],
        rounds_ingested: u64,
        warm: &Option<WarmState>,
    ) -> Session {
        telemetry::counter(names::ENGINE_RESTORES, 1);
        Session {
            boundary: Arc::clone(&self.boundary),
            model: *tracker.model(),
            node_positions: Arc::clone(&self.node_positions),
            tracker,
            rng: StdRng::from_state(rng),
            users: users.to_vec(),
            rounds_ingested,
            template: None,
            warm: warm.clone(),
        }
    }

    /// [`restore`](Engine::restore) from a JSON string produced by
    /// [`Session::checkpoint_json`](crate::Session::checkpoint_json).
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::CheckpointCodec`] for unparseable JSON;
    /// otherwise as [`restore`](Engine::restore).
    pub fn restore_json(&self, json: &str) -> Result<Session, EngineError> {
        let checkpoint: SessionCheckpoint =
            serde_json::from_str(json).map_err(|e| EngineError::CheckpointCodec(e.to_string()))?;
        self.restore(&checkpoint)
    }

    /// [`restore`](Engine::restore) from a [`CompactCheckpoint`]
    /// (produced by [`Session::checkpoint_compact`](crate::Session::checkpoint_compact)).
    /// The expansion is bit-exact, so the revived session continues
    /// bit-identically, same as a full restore.
    ///
    /// The tracker is built straight from the compact blobs, each decoded
    /// once, with the same checks (and the same error for any malformed
    /// input) as expanding and then restoring.
    ///
    /// # Errors
    ///
    /// As [`CompactCheckpoint::expand`] and [`restore`](Engine::restore).
    pub fn restore_compact(&self, checkpoint: &CompactCheckpoint) -> Result<Session, EngineError> {
        let rng = checkpoint.validate_envelope()?;
        let tracker = Tracker::from_compact(
            &checkpoint.tracker,
            checkpoint.config,
            checkpoint.model,
            Arc::clone(&self.boundary),
        )?;
        Ok(self.resume(
            tracker,
            rng,
            &checkpoint.users,
            checkpoint.rounds_ingested,
            &checkpoint.warm,
        ))
    }

    /// [`restore_compact`](Engine::restore_compact) from a JSON string.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::CheckpointCodec`] for unparseable JSON;
    /// otherwise as [`restore_compact`](Engine::restore_compact).
    pub fn restore_compact_json(&self, json: &str) -> Result<Session, EngineError> {
        let checkpoint: CompactCheckpoint =
            serde_json::from_str(json).map_err(|e| EngineError::CheckpointCodec(e.to_string()))?;
        self.restore_compact(&checkpoint)
    }

    /// The field boundary sessions track over.
    pub fn boundary(&self) -> &dyn Boundary {
        self.boundary.as_ref()
    }

    /// The flux model new sessions fit against.
    pub fn model(&self) -> &FluxModel {
        &self.model
    }

    /// The node-id → position map rounds are resolved against.
    pub fn node_positions(&self) -> &[Point2] {
        &self.node_positions
    }
}

/// Snapshots the stream position of an arbitrary RNG by pushing it
/// through four draws — used when the caller's RNG is not a [`StdRng`]
/// whose state can be read directly.
fn state_of<R: Rng + ?Sized>(rng: &mut R) -> [u64; 4] {
    [rng.gen(), rng.gen(), rng.gen(), rng.gen()]
}

#[cfg(test)]
mod tests {
    use super::*;
    use fluxprint_geometry::Rect;

    fn boundary() -> Arc<dyn Boundary> {
        Arc::new(Rect::square(30.0).unwrap())
    }

    fn grid() -> Vec<Point2> {
        let mut v = Vec::new();
        for i in 0..7 {
            for j in 0..7 {
                v.push(Point2::new(2.0 + i as f64 * 4.3, 2.0 + j as f64 * 4.3));
            }
        }
        v
    }

    #[test]
    fn constructor_validates_scenario_knowledge() {
        assert!(matches!(
            Engine::new(boundary(), FluxModel::default(), vec![]),
            Err(EngineError::BadConfig {
                field: "node_positions"
            })
        ));
        assert!(matches!(
            Engine::new(
                boundary(),
                FluxModel::default(),
                vec![Point2::new(f64::NAN, 0.0)]
            ),
            Err(EngineError::BadConfig {
                field: "node_positions"
            })
        ));
        let engine = Engine::new(boundary(), FluxModel::default(), grid()).unwrap();
        assert_eq!(engine.node_positions().len(), 49);
        assert_eq!(engine.model().d_floor(), 1.0);
    }

    #[test]
    fn open_session_validates_config() {
        let engine = Engine::new(boundary(), FluxModel::default(), grid()).unwrap();
        let bad_time = SessionConfig {
            start_time: f64::NAN,
            ..Default::default()
        };
        assert!(matches!(
            engine.open_session(&bad_time, 1),
            Err(EngineError::BadConfig {
                field: "start_time"
            })
        ));
        let zero_users = SessionConfig {
            users: 0,
            ..Default::default()
        };
        assert!(matches!(
            engine.open_session(&zero_users, 1),
            Err(EngineError::Smc(fluxprint_smc::SmcError::ZeroUsers))
        ));

        let session = engine.open_session(&SessionConfig::default(), 7).unwrap();
        assert_eq!(session.k(), 1);
        assert_eq!(session.rounds_ingested(), 0);
        assert_eq!(session.user_states(), &[UserState::Active]);
    }

    #[test]
    fn same_seed_opens_identical_sessions() {
        let engine = Engine::new(boundary(), FluxModel::default(), grid()).unwrap();
        let config = SessionConfig {
            users: 2,
            ..Default::default()
        };
        let a = engine.open_session(&config, 42).unwrap();
        let b = engine.open_session(&config, 42).unwrap();
        assert_eq!(a.checkpoint(), b.checkpoint());
        let c = engine.open_session(&config, 43).unwrap();
        assert_ne!(a.checkpoint().tracker, c.checkpoint().tracker);
    }

    #[test]
    fn restore_rejects_malformed_checkpoints() {
        let engine = Engine::new(boundary(), FluxModel::default(), grid()).unwrap();
        let session = engine.open_session(&SessionConfig::default(), 7).unwrap();
        let good = session.checkpoint();

        let mut cp = good.clone();
        cp.version = 99;
        assert!(matches!(
            engine.restore(&cp),
            Err(EngineError::UnsupportedVersion { found: 99, .. })
        ));

        let mut cp = good.clone();
        cp.tracker.users.clear();
        cp.users.clear();
        assert!(matches!(
            engine.restore(&cp),
            Err(EngineError::Smc(fluxprint_smc::SmcError::ZeroUsers))
        ));

        assert!(matches!(
            engine.restore_json("not json"),
            Err(EngineError::CheckpointCodec(_))
        ));

        let restored = engine.restore(&good).unwrap();
        assert_eq!(restored.checkpoint().tracker, good.tracker);
    }

    /// `restore_compact` decodes each blob once, yet succeeds and fails
    /// exactly like expanding and then restoring.
    #[test]
    fn restore_compact_matches_expand_then_restore() {
        let engine = Engine::new(boundary(), FluxModel::default(), grid()).unwrap();
        let config = SessionConfig {
            users: 2,
            ..Default::default()
        };
        let good = engine
            .open_session(&config, 7)
            .unwrap()
            .checkpoint_compact(2);
        let via_expand = |c: &CompactCheckpoint| c.expand().and_then(|full| engine.restore(&full));
        assert_eq!(
            engine.restore_compact(&good).unwrap().checkpoint(),
            via_expand(&good).unwrap().checkpoint()
        );

        let mut bad = Vec::new();
        let mut c = good.clone();
        c.version = 2;
        bad.push(c);
        let mut c = good.clone();
        c.rng.pop();
        bad.push(c);
        let mut c = good.clone();
        c.users.pop();
        bad.push(c);
        let mut c = good.clone();
        c.tracker.users.clear();
        c.users.clear();
        bad.push(c);
        let mut c = good.clone();
        c.tracker.users[1].w_pool = "!!!!".into();
        bad.push(c);
        let mut c = good.clone();
        c.tracker.users[0].n += 1;
        bad.push(c);
        let mut c = good.clone();
        c.tracker.history_cap = 1;
        c.config.heading_bias = 0.3;
        bad.push(c);
        let mut c = good.clone();
        c.tracker.last_step_time = f64::NAN;
        bad.push(c);
        let mut c = good;
        c.config.keep_m = 0;
        bad.push(c);
        for c in &bad {
            let want = via_expand(c).unwrap_err();
            let got = engine.restore_compact(c).unwrap_err();
            assert_eq!(format!("{got:?}"), format!("{want:?}"));
        }
    }
}
