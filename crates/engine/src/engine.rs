//! The session factory: shared scenario geometry + network view.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use fluxprint_fluxmodel::FluxModel;
use fluxprint_geometry::{Boundary, Point2};
use fluxprint_netsim::Network;
use fluxprint_smc::{SmcConfig, Tracker};
use fluxprint_telemetry::{self as telemetry, names};

use crate::{
    checkpoint, CompactCheckpoint, EngineError, Session, UserState, WarmState, WARM_ESCAPE_EVERY,
};

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
    /// tracked users search a shrunk candidate set drawn from their
    /// posterior (see [`WARM_SHRINK`](fluxprint_smc::WARM_SHRINK)), with
    /// a full-width escape sweep every
    /// [`WARM_ESCAPE_EVERY`](crate::WARM_ESCAPE_EVERY) rounds. Every
    /// NNLS solve stays cold either way. Off by default — the cold path
    /// is the equivalence oracle.
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
/// is what makes them individually checkpointable. Opening a session
/// starts no threads: each round's solver work runs on the thread that
/// ingests it (see [`Session`]), inside a [`Grid`](crate::Grid) on the
/// drain worker that claims the session.
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

    /// Revives a session from a [`CompactCheckpoint`] (produced by
    /// [`Session::checkpoint_compact`](crate::Session::checkpoint_compact))
    /// against this engine's boundary and node map.
    ///
    /// Restore is exact: the revived session produces bit-identical
    /// outcomes to the one the checkpoint was taken from, given the same
    /// subsequent rounds — the tracker state, user lifecycle states, warm
    /// state and RNG stream position all resume where they stopped. The
    /// flux model travels inside the checkpoint (it is tracker state), so
    /// a session restores faithfully even on an engine built with a
    /// different model. The tracker is built straight from the compact
    /// blobs, each decoded once.
    ///
    /// Restore is also the one place a checkpoint is validated. The
    /// engine-level invariants come first: the current version, a
    /// well-formed RNG encoding, lifecycle states parallel to the
    /// tracker's users, and a warm state a live session can reach (hot
    /// flags parallel to the users, an escape cadence below
    /// [`WARM_ESCAPE_EVERY`]). The tracker snapshot follows (see
    /// [`CompactTrackerState::expand`](fluxprint_smc::CompactTrackerState::expand)).
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::UnsupportedVersion`],
    /// [`EngineError::BadCheckpoint`], or a tracker validation error.
    pub fn restore_compact(&self, checkpoint: &CompactCheckpoint) -> Result<Session, EngineError> {
        checkpoint::check_version(checkpoint.version)?;
        let rng = checkpoint::decode_rng_words(&checkpoint.rng)?;
        if checkpoint.users.len() != checkpoint.tracker.users.len() {
            return Err(EngineError::BadCheckpoint { field: "users" });
        }
        if let Some(warm) = &checkpoint.warm {
            if warm.hot.len() != checkpoint.users.len()
                || warm.rounds_since_escape >= WARM_ESCAPE_EVERY
            {
                return Err(EngineError::BadCheckpoint { field: "warm" });
            }
        }
        let tracker = Tracker::from_compact(
            &checkpoint.tracker,
            checkpoint.config,
            checkpoint.model,
            Arc::clone(&self.boundary),
        )?;
        telemetry::counter(names::ENGINE_RESTORES, 1);
        Ok(Session {
            boundary: Arc::clone(&self.boundary),
            model: checkpoint.model,
            node_positions: Arc::clone(&self.node_positions),
            tracker,
            rng: StdRng::from_state(rng),
            users: checkpoint.users.clone(),
            rounds_ingested: checkpoint.rounds_ingested,
            template: None,
            warm: checkpoint.warm.clone(),
        })
    }

    /// [`restore_compact`](Engine::restore_compact) from a JSON string
    /// (see [`CompactCheckpoint::to_json`]).
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::UnsupportedVersion`] for a document of
    /// another version, whatever its shape, and
    /// [`EngineError::CheckpointCodec`] for unparseable JSON; otherwise
    /// as [`restore_compact`](Engine::restore_compact).
    pub fn restore_compact_json(&self, json: &str) -> Result<Session, EngineError> {
        self.restore_compact(&checkpoint::from_json(json)?)
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
        assert_eq!(a.checkpoint_compact(2), b.checkpoint_compact(2));
        let c = engine.open_session(&config, 43).unwrap();
        assert_ne!(
            a.checkpoint_compact(2).tracker,
            c.checkpoint_compact(2).tracker
        );
    }

    /// A good checkpoint restores to the session it was taken from, and
    /// every malformed variant is refused with its own typed error.
    #[test]
    fn restore_rejects_malformed_checkpoints() {
        use fluxprint_smc::SmcError;
        let engine = Engine::new(boundary(), FluxModel::default(), grid()).unwrap();
        let config = SessionConfig {
            users: 2,
            ..Default::default()
        };
        let good = engine
            .open_session(&config, 7)
            .unwrap()
            .checkpoint_compact(2);
        assert_eq!(
            engine.restore_compact(&good).unwrap().checkpoint_compact(2),
            good
        );
        assert!(matches!(
            engine.restore_compact_json("not json"),
            Err(EngineError::CheckpointCodec(_))
        ));

        let bad_config = |field| EngineError::Smc(SmcError::BadConfig { field });
        let mut cases: Vec<(CompactCheckpoint, EngineError)> = Vec::new();
        for found in [0, crate::CHECKPOINT_VERSION + 1, 99] {
            let mut c = good.clone();
            c.version = found;
            cases.push((
                c,
                EngineError::UnsupportedVersion {
                    found,
                    supported: crate::CHECKPOINT_VERSION,
                },
            ));
        }
        let mut c = good.clone();
        c.rng.pop();
        cases.push((c, EngineError::BadCheckpoint { field: "rng" }));
        let mut c = good.clone();
        c.rng[0] = "not hex".into();
        cases.push((c, EngineError::BadCheckpoint { field: "rng" }));
        let mut c = good.clone();
        c.users.pop();
        cases.push((c, EngineError::BadCheckpoint { field: "users" }));
        let mut c = good.clone();
        c.users.push(UserState::Suspended);
        cases.push((c, EngineError::BadCheckpoint { field: "users" }));
        let mut c = good.clone();
        c.warm = Some(WarmState::cold(3));
        cases.push((c, EngineError::BadCheckpoint { field: "warm" }));
        let mut c = good.clone();
        c.tracker.users.clear();
        c.users.clear();
        cases.push((c, EngineError::Smc(SmcError::ZeroUsers)));
        let mut c = good.clone();
        c.tracker.users[1].w_pool = "!!!!".into();
        cases.push((c, bad_config("compact.w_pool")));
        let mut c = good.clone();
        c.tracker.users[0].n += 1;
        cases.push((c, bad_config("compact.samples")));
        let mut c = good.clone();
        c.tracker.history_cap = 1;
        c.config.heading_bias = 0.3;
        cases.push((c, bad_config("compact.history_cap")));
        let mut c = good.clone();
        c.tracker.last_step_time = f64::NAN;
        cases.push((c, bad_config("state.last_step_time")));
        let mut c = good;
        c.config.keep_m = 0;
        cases.push((c, bad_config("keep_m")));
        for (c, want) in &cases {
            assert_eq!(engine.restore_compact(c).unwrap_err(), *want);
        }
    }

    /// A live tracker only ever sets a user's `Δt` origin to a step
    /// time, so a checkpoint whose `t_last` is later than its step clock
    /// is refused; the next ingest would otherwise draw candidates from
    /// a disc of negative radius `v_max·(t − t_last)`.
    #[test]
    fn restore_refuses_a_user_clock_past_the_step_clock() {
        let engine = Engine::new(boundary(), FluxModel::default(), grid()).unwrap();
        let config = SessionConfig {
            users: 2,
            start_time: 5.0,
            ..Default::default()
        };
        let mut cp = engine
            .open_session(&config, 7)
            .unwrap()
            .checkpoint_compact(2);
        cp.tracker.users[1].t_last = cp.tracker.last_step_time;
        engine.restore_compact_json(&cp.to_json().unwrap()).unwrap();
        cp.tracker.users[1].t_last = cp.tracker.last_step_time + 1e-9;
        assert_eq!(
            engine
                .restore_compact_json(&cp.to_json().unwrap())
                .unwrap_err(),
            EngineError::Smc(fluxprint_smc::SmcError::BadConfig {
                field: "state.t_last"
            })
        );
    }

    /// A live warm session keeps its escape cadence below
    /// `WARM_ESCAPE_EVERY`; a checkpoint past it is refused rather than
    /// overflowing the cadence counter on the next ingest.
    #[test]
    fn restore_refuses_an_escape_cadence_past_the_sweep() {
        let engine = Engine::new(boundary(), FluxModel::default(), grid()).unwrap();
        let config = SessionConfig {
            users: 2,
            warm: true,
            ..Default::default()
        };
        let mut cp = engine
            .open_session(&config, 7)
            .unwrap()
            .checkpoint_compact(2);
        for (cadence, ok) in [
            (crate::WARM_ESCAPE_EVERY - 1, true),
            (crate::WARM_ESCAPE_EVERY, false),
            (u32::MAX, false),
        ] {
            if let Some(warm) = &mut cp.warm {
                warm.rounds_since_escape = cadence;
            }
            let restored = engine.restore_compact_json(&cp.to_json().unwrap());
            if ok {
                assert_eq!(restored.unwrap().warm(), cp.warm.as_ref());
            } else {
                assert_eq!(
                    restored.unwrap_err(),
                    EngineError::BadCheckpoint { field: "warm" },
                    "cadence {cadence}"
                );
            }
        }
    }
}
