//! One resumable tracking session.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

use fluxprint_fluxmodel::FluxModel;
use fluxprint_fluxpar::Pool;
use fluxprint_geometry::{Boundary, Point2};
use fluxprint_netsim::ObservationRound;
use fluxprint_smc::{SmcError, StepOutcome, Tracker};
use fluxprint_solver::{CacheScratch, FluxObjective};
use fluxprint_telemetry::{self as telemetry, names};

use crate::checkpoint::encode_rng;
use crate::{CompactCheckpoint, EngineError, CHECKPOINT_VERSION};

/// A warm session runs one full-width escape sweep (an exactly-cold
/// round: full candidate budget, exploration candidates, cold solves)
/// every this many rounds, so a user the bounded search mis-tracks is
/// recovered on a fixed cadence.
pub const WARM_ESCAPE_EVERY: u32 = 8;

/// The cross-round warm-start state a session carries between rounds.
///
/// This is the *only* behavior-bearing warm state — the solver keeps
/// nothing across rounds but recycled buffer capacity — so serializing
/// these two fields is what makes restore-then-ingest bit-identical to an
/// uninterrupted warm run.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WarmState {
    /// Rounds ingested since the last escape sweep (or session start).
    pub rounds_since_escape: u32,
    /// Per-user hot flags, parallel to the session's users: `true` means
    /// the user was active last round and gets the bounded fast path.
    pub hot: Vec<bool>,
}

impl WarmState {
    /// Fresh warm state for `users` users: nobody hot, cadence at zero.
    pub fn cold(users: usize) -> Self {
        WarmState {
            rounds_since_escape: 0,
            hot: vec![false; users],
        }
    }
}

/// Lifecycle state of one tracked user within a session.
///
/// This generalizes the paper's asynchronous-updating freeze (§4.E): a
/// frozen user there is one whose fitted stretch fell below the activity
/// threshold for a round; here the session can additionally freeze a
/// user *administratively* — its samples stop updating and its `Δt`
/// keeps growing until it is resumed, exactly the Null update the
/// tracker already applies to undetected users.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum UserState {
    /// The user participates in prediction, bidding, and updates.
    Active,
    /// The user is administratively frozen (Null update every round);
    /// it can be resumed.
    Suspended,
    /// The user has left for good; its track is kept for reading but
    /// never updates again and cannot be resumed.
    Departed,
}

/// A streaming tracking session: a [`Tracker`] plus the sniffer-set
/// bookkeeping, user lifecycle states, and the RNG stream that together
/// make the online loop resumable.
///
/// Sessions are opened (or restored) by an [`Engine`](crate::Engine) and
/// driven one [`ObservationRound`] at a time via [`ingest`](Session::ingest).
/// Every entry point runs the round on the calling thread; parallelism
/// comes from running many sessions at once, as a
/// [`Grid`](crate::Grid)'s drain workers do. The `_in` and batch entry
/// points reuse a caller-owned [`CacheScratch`] across rounds.
#[derive(Debug, Clone)]
pub struct Session {
    pub(crate) boundary: Arc<dyn Boundary>,
    pub(crate) model: FluxModel,
    pub(crate) node_positions: Arc<[Point2]>,
    pub(crate) tracker: Tracker,
    pub(crate) rng: StdRng,
    pub(crate) users: Vec<UserState>,
    pub(crate) rounds_ingested: u64,
    /// Cached objective for the last seen sniffer id set. Purely derived
    /// data: it is rebuilt on demand, deliberately excluded from
    /// checkpoints, and dropped when a [`Grid`](crate::Grid) hibernates
    /// the session.
    pub(crate) template: Option<(Vec<fluxprint_netsim::NodeId>, FluxObjective)>,
    /// Warm-start state — `Some` iff the session runs warm. Unlike the
    /// template this *is* checkpointed: hot flags and the escape cadence
    /// change which search each round runs.
    pub(crate) warm: Option<WarmState>,
}

impl Session {
    /// Ingests one observation round using the session's own RNG stream:
    /// resolves the round's node ids against the engine's network view
    /// (re-deriving the [`FluxObjective`] incrementally when the sniffer
    /// set has not churned), steps the tracker with suspended and
    /// departed users gated out, and returns the round's outcome.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Netsim`] for a malformed round,
    /// [`EngineError::UnknownNode`] when the round references a node the
    /// engine was not built over, and propagates solver/tracker errors.
    pub fn ingest(&mut self, round: &ObservationRound) -> Result<StepOutcome, EngineError> {
        self.ingest_own(round, &mut CacheScratch::new())
    }

    /// [`ingest`](Session::ingest), reusing a caller-owned
    /// [`CacheScratch`] across rounds so that a loop driving many
    /// sessions stays off the allocator. Results are bit-identical to
    /// [`ingest`](Session::ingest). `_pool` is ignored, as the round runs
    /// on the calling thread; it stays only because fluxbench passes it.
    ///
    /// # Errors
    ///
    /// As [`ingest`](Session::ingest).
    pub fn ingest_in(
        &mut self,
        round: &ObservationRound,
        _pool: &Pool,
        scratch: &mut CacheScratch,
    ) -> Result<StepOutcome, EngineError> {
        self.ingest_own(round, scratch)
    }

    /// One round on the session's own RNG stream.
    fn ingest_own(
        &mut self,
        round: &ObservationRound,
        scratch: &mut CacheScratch,
    ) -> Result<StepOutcome, EngineError> {
        // The tracker borrows `self` mutably while drawing from the RNG,
        // so the stream is copied out and back by value; the xoshiro
        // state is 4 words, making this free in practice.
        let mut rng = StdRng::from_state(self.rng.state());
        let out = self.ingest_round(round, &mut rng, scratch);
        self.rng = StdRng::from_state(rng.state());
        out
    }

    /// Like [`ingest`](Session::ingest), but drawing randomness from a
    /// caller-supplied RNG instead of the session's own stream — the
    /// batch adapter in `core::attack` uses this to preserve the legacy
    /// pipeline's exact RNG call order. Rounds ingested this way do not
    /// advance the session RNG, so mixing the two entry points within
    /// one session forfeits the checkpoint bit-identity guarantee.
    ///
    /// # Errors
    ///
    /// As [`ingest`](Session::ingest).
    pub fn ingest_with<R: Rng + ?Sized>(
        &mut self,
        round: &ObservationRound,
        rng: &mut R,
    ) -> Result<StepOutcome, EngineError> {
        self.ingest_round(round, rng, &mut CacheScratch::new())
    }

    /// Ingests a contiguous run of rounds in order on a caller-owned
    /// scratch, equivalent to calling
    /// [`ingest`](Session::ingest) once per round — bit-identically so —
    /// but sharing one objective template and one [`CacheScratch`] across
    /// the whole batch when the sniffer set is unchanged, so the
    /// per-round cost touches no allocator.
    ///
    /// # Errors
    ///
    /// Stops at the first failing round and returns its error; rounds
    /// before it are fully applied (their outcomes are lost — use
    /// [`ingest_batch_into`](Session::ingest_batch_into) to keep them)
    /// and the session RNG has advanced past them, so the session remains
    /// consistent and resumable. `_pool` is ignored, as the rounds run on
    /// the calling thread; it stays only because fluxbench passes it.
    pub fn ingest_batch_in(
        &mut self,
        rounds: &[ObservationRound],
        _pool: &Pool,
        scratch: &mut CacheScratch,
    ) -> Result<Vec<StepOutcome>, EngineError> {
        let mut out = Vec::with_capacity(rounds.len());
        self.ingest_batch_into(rounds, scratch, &mut out)?;
        Ok(out)
    }

    /// Like [`ingest_batch_in`](Session::ingest_batch_in), but appending
    /// outcomes to a caller-owned vector. On error the outcomes of the
    /// successfully ingested prefix are retained in `out`, so the caller
    /// can tell exactly how far the batch got (`out.len()` minus its
    /// length before the call) — the grid uses this to keep per-session
    /// outcome logs exact across partial drains.
    ///
    /// # Errors
    ///
    /// As [`ingest_batch_in`](Session::ingest_batch_in).
    pub fn ingest_batch_into(
        &mut self,
        rounds: &[ObservationRound],
        scratch: &mut CacheScratch,
        out: &mut Vec<StepOutcome>,
    ) -> Result<(), EngineError> {
        let mut rng = StdRng::from_state(self.rng.state());
        let mut result = Ok(());
        for round in rounds {
            match self.ingest_round(round, &mut rng, scratch) {
                Ok(outcome) => out.push(outcome),
                Err(e) => {
                    result = Err(e);
                    break;
                }
            }
        }
        // Write the stream position back even on error: the ingested
        // prefix is applied, so the RNG must stay in step with it.
        self.rng = StdRng::from_state(rng.state());
        result
    }

    /// One round against an explicit RNG and scratch: validate,
    /// refresh the objective template, step the tracker with suspended
    /// and departed users gated out.
    fn ingest_round<R: Rng + ?Sized>(
        &mut self,
        round: &ObservationRound,
        rng: &mut R,
        scratch: &mut CacheScratch,
    ) -> Result<StepOutcome, EngineError> {
        round.validate()?;
        let _span = telemetry::span(names::SPAN_ENGINE_INGEST);
        telemetry::counter(names::ENGINE_ROUNDS, 1);
        self.refresh_template(round)?;
        let mask: Vec<bool> = self.users.iter().map(|&s| s == UserState::Active).collect();
        // `refresh_template` just succeeded, so the template is present;
        // the error arm is unreachable but cheaper than a panic path.
        let (_, objective) = self
            .template
            .as_ref()
            .ok_or(EngineError::BadConfig { field: "template" })?;
        // A warm session passes its hot flags only when the bounded search
        // has something to bound: off-cadence, with at least one hot
        // participating user. Cold sessions, escape sweeps and hotless
        // rounds pass `None`, which the tracker runs exactly cold.
        let escape = self
            .warm
            .as_ref()
            .is_some_and(|warm| warm.rounds_since_escape + 1 >= WARM_ESCAPE_EVERY);
        let hot = self
            .warm
            .as_ref()
            .map(|warm| warm.hot.as_slice())
            .filter(|flags| {
                !escape
                    && flags
                        .iter()
                        .zip(&mask)
                        .any(|(&hot, &participates)| hot && participates)
            });
        if escape {
            telemetry::counter(names::ENGINE_WARM_ESCAPES, 1);
        } else if hot.is_some() {
            telemetry::counter(names::ENGINE_WARM_ROUNDS, 1);
        }
        let out = self
            .tracker
            .step_gated_in(round.time, objective, &mask, hot, rng, scratch)?;
        if let Some(warm) = &mut self.warm {
            warm.rounds_since_escape = if escape {
                0
            } else {
                warm.rounds_since_escape + 1
            };
            // A user is hot next round iff it matched an observation
            // this round; anyone the fit lost falls back to the full
            // search immediately rather than waiting for the sweep.
            for (hot, (&active, &participates)) in
                warm.hot.iter_mut().zip(out.active.iter().zip(&mask))
            {
                *hot = active && participates;
            }
        }
        self.rounds_ingested += 1;
        Ok(out)
    }

    /// Drops all warm-start heat: called on any lifecycle or geometry
    /// churn, because hot flags and the carried posterior speak for a
    /// user/sniffer population that no longer exists. The next warm
    /// round after an invalidation runs exactly cold and re-earns its
    /// heat from fresh activity.
    fn invalidate_warm(&mut self) {
        if let Some(warm) = &mut self.warm {
            telemetry::counter(names::ENGINE_WARM_INVALIDATIONS, 1);
            *warm = WarmState::cold(self.users.len());
        }
    }

    /// Resolves a round into the cached sniffer-set template: when the id
    /// set is unchanged since the previous round only the measurement
    /// buffer is overwritten (no allocation); churn rebuilds the template.
    fn refresh_template(&mut self, round: &ObservationRound) -> Result<(), EngineError> {
        if let Some((ids, template)) = &mut self.template {
            if *ids == round.ids {
                template.set_measurements(&round.fluxes)?;
                return Ok(());
            }
            telemetry::counter(names::ENGINE_CHURN_EVENTS, 1);
            // Sniffer churn moves the geometry the carried posterior was
            // fit against; the heat goes with the template.
            self.invalidate_warm();
        }
        let mut positions = Vec::with_capacity(round.ids.len());
        for &id in &round.ids {
            positions.push(*self.node_positions.get(id.index()).ok_or(
                EngineError::UnknownNode {
                    index: id.index(),
                    len: self.node_positions.len(),
                },
            )?);
        }
        let objective = FluxObjective::new(
            Arc::clone(&self.boundary),
            self.model,
            positions,
            round.fluxes.clone(),
        )?;
        self.template = Some((round.ids.clone(), objective));
        Ok(())
    }

    /// Adds a new user to the session mid-run, seeded with the tracker's
    /// uninformed prior (uniform samples over the field), drawn from the
    /// session RNG. The user starts [`Active`](UserState::Active).
    /// Returns the new user's index.
    pub fn join(&mut self) -> usize {
        telemetry::counter(names::ENGINE_USERS_JOINED, 1);
        let index = self.tracker.add_user(&mut self.rng);
        self.users.push(UserState::Active);
        self.invalidate_warm();
        index
    }

    /// Suspends an active user: it takes the Null update every round
    /// until [`resume`](Session::resume)d.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::UserOutOfRange`] for a bad index and
    /// [`EngineError::BadLifecycle`] when the user is not active.
    pub fn suspend(&mut self, index: usize) -> Result<(), EngineError> {
        match *self.user_state_mut(index)? {
            UserState::Active => {
                self.users[index] = UserState::Suspended;
                self.invalidate_warm();
                Ok(())
            }
            UserState::Suspended => Err(EngineError::BadLifecycle {
                transition: "suspend suspended",
            }),
            UserState::Departed => Err(EngineError::BadLifecycle {
                transition: "suspend departed",
            }),
        }
    }

    /// Resumes a suspended user. Its `Δt` has kept growing while frozen,
    /// so its next prediction disc covers everywhere it could have moved.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::UserOutOfRange`] for a bad index and
    /// [`EngineError::BadLifecycle`] when the user is not suspended
    /// (departed users never come back).
    pub fn resume(&mut self, index: usize) -> Result<(), EngineError> {
        match *self.user_state_mut(index)? {
            UserState::Suspended => {
                self.users[index] = UserState::Active;
                self.invalidate_warm();
                Ok(())
            }
            UserState::Active => Err(EngineError::BadLifecycle {
                transition: "resume active",
            }),
            UserState::Departed => Err(EngineError::BadLifecycle {
                transition: "resume departed",
            }),
        }
    }

    /// Marks a user as departed. Its final track stays readable via
    /// [`estimate`](Session::estimate) but never updates again.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::UserOutOfRange`] for a bad index and
    /// [`EngineError::BadLifecycle`] when the user already departed.
    pub fn depart(&mut self, index: usize) -> Result<(), EngineError> {
        match *self.user_state_mut(index)? {
            UserState::Departed => Err(EngineError::BadLifecycle {
                transition: "depart departed",
            }),
            _ => {
                self.users[index] = UserState::Departed;
                self.invalidate_warm();
                Ok(())
            }
        }
    }

    fn user_state_mut(&mut self, index: usize) -> Result<&mut UserState, EngineError> {
        let users = self.users.len();
        self.users
            .get_mut(index)
            .ok_or(EngineError::UserOutOfRange { index, users })
    }

    /// Snapshots the complete session state into the versioned
    /// checkpoint (pooled, base64-packed samples; history truncated to
    /// `history_cap`). With a cap of 2 — the live tracker's own history
    /// bound — restoring the checkpoint (with the same
    /// [`Engine`](crate::Engine) geometry) and continuing produces
    /// bit-identical outcomes to never having stopped; see
    /// [`Engine::restore_compact`](crate::Engine::restore_compact) and
    /// [`CompactCheckpoint`] for when smaller caps are safe.
    pub fn checkpoint_compact(&self, history_cap: u32) -> CompactCheckpoint {
        telemetry::counter(names::ENGINE_CHECKPOINTS, 1);
        CompactCheckpoint {
            version: CHECKPOINT_VERSION,
            config: *self.tracker.config(),
            model: *self.tracker.model(),
            tracker: self.tracker.state().compact(history_cap),
            rng: encode_rng(self.rng.state()),
            users: self.users.clone(),
            rounds_ingested: self.rounds_ingested,
            warm: self.warm.clone(),
        }
    }

    /// The bytes this session occupies without its template: its inline
    /// size plus the samples, heading histories, lifecycle states and
    /// warm flags it owns, counted by length (no spare capacity or
    /// allocator overhead). This is what a hibernated grid resident costs
    /// (see [`Grid::hibernated_bytes`](crate::Grid::hibernated_bytes)).
    pub(crate) fn cold_bytes(&self) -> usize {
        let warm = self
            .warm
            .as_ref()
            .map_or(0, |w| std::mem::size_of_val(w.hot.as_slice()));
        std::mem::size_of::<Session>()
            + self.tracker.heap_bytes()
            + std::mem::size_of_val(self.users.as_slice())
            + warm
    }

    /// Number of users in the session (all lifecycle states).
    pub fn k(&self) -> usize {
        self.users.len()
    }

    /// Time of the most recently ingested round (or the start time).
    pub fn time(&self) -> f64 {
        self.tracker.time()
    }

    /// Number of observation rounds ingested so far.
    pub fn rounds_ingested(&self) -> u64 {
        self.rounds_ingested
    }

    /// Lifecycle state per user, in user-index order.
    pub fn user_states(&self) -> &[UserState] {
        &self.users
    }

    /// Warm-start state, `Some` iff the session runs warm. Useful for
    /// asserting invalidation behavior and inspecting the escape cadence.
    pub fn warm(&self) -> Option<&WarmState> {
        self.warm.as_ref()
    }

    /// Current point estimate for user `index` (for suspended or departed
    /// users, the estimate from their last active round).
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::UserOutOfRange`] for an invalid index.
    pub fn estimate(&self, index: usize) -> Result<Point2, EngineError> {
        self.tracker.estimate(index).map_err(|e| match e {
            SmcError::UserOutOfRange { index, users } => {
                EngineError::UserOutOfRange { index, users }
            }
            other => EngineError::Smc(other),
        })
    }
}
