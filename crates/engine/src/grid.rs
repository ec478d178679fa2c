//! fluxgrid: the multi-session scheduler.
//!
//! A [`Grid`] owns N shards — drain workers, each holding a reusable
//! solver scratch — and one table of resident sessions indexed by id.
//! Rounds are [`submit`](Grid::submit)ted into bounded per-session
//! queues — a full queue hands the round straight back as
//! [`Submit::Backpressure`] instead of blocking — and a
//! [`drain`](Grid::drain) barrier ingests every queued round, each
//! session's queue as one contiguous batch
//! ([`Session::ingest_batch_into`]).
//!
//! # Scheduling
//!
//! A drain first walks the residents in id order. An idle one extends
//! its idle streak and, once the streak reaches the eviction threshold,
//! is evicted on the spot, which costs no more than dropping its
//! template (see [Hibernation](#hibernation)); the ones with queued
//! rounds are listed. The workers then claim entries from that one
//! shared list until it is empty, so no worker idles while another
//! still has a backlog, however the active sessions' ids happen to be
//! distributed. The calling thread serves as the first worker; the
//! others are plain [`std::thread::scope`] threads. Each round runs on
//! the worker that claimed its session, so the workers themselves are
//! the only parallelism: a drain runs `min(shards, residents with
//! rounds)` threads.
//!
//! # Determinism
//!
//! Each session's rounds are processed in submission order by exactly
//! one worker, so grid results are **bit-identical to driving each
//! session alone** with [`Session::ingest`] — for any shard count and
//! any interleaving of submissions across sessions.
//! Which worker serves a session affects only scheduling, never results.
//!
//! # Checkpointing
//!
//! [`Grid::checkpoint`] snapshots every resident session *plus its
//! pending (queued, not yet ingested) rounds*; restoring under any
//! [`GridConfig`] and draining yields the same outcomes as never having
//! stopped. Every resident, hot or hibernated, is encoded on demand as
//! its [`CompactCheckpoint`] at the lossless history cap, and
//! [`Grid::session_checkpoint`] returns one resident's. The compact form
//! is only the grid's external form; no resident is held encoded.
//!
//! # Hibernation
//!
//! With [`GridConfig::hibernate_after`] set, a resident that sits
//! through that many consecutive drains without ingesting a round is
//! evicted: its [`Session`] drops its sniffer-set template, the one
//! piece of derived data it holds, and is marked cold. Nothing is
//! encoded. As in the paper's asynchronous updating (§4.E), an idle
//! track is frozen, so its samples, `Δt` origins and RNG stream position
//! are its whole state and stay as they are. Submitting to a cold
//! resident only queues the round: the drain worker that ingests it
//! marks it hot again (as does [`session_mut`](Grid::session_mut),
//! since lifecycle calls mutate), and its first round rebuilds the
//! template, as after any restore. Revival cannot fail, and eviction and
//! revival are bit-transparent, so a fleet run with any eviction
//! threshold is bit-identical to the always-resident run. Reading a cold
//! resident wakes nothing: [`Grid::session`] returns it as it lies,
//! [`Grid::checkpoint`] and [`Grid::session_checkpoint`] encode it
//! *without reviving it*, and [`Grid::restore`] adopts hibernated
//! entries cold.

use std::sync::{Mutex, PoisonError};

use serde::{Deserialize, Serialize};

use fluxprint_netsim::ObservationRound;
use fluxprint_smc::StepOutcome;
use fluxprint_solver::CacheScratch;
use fluxprint_telemetry::{self as telemetry, names};

use crate::{
    checkpoint::{self, check_version},
    CompactCheckpoint, Engine, EngineError, Session, SessionConfig, CHECKPOINT_VERSION,
};

/// History cap of every checkpoint the grid takes: the live tracker
/// itself never keeps more than two heading-history entries, so this cap
/// is lossless and checkpoint/restore stays bit-transparent.
const HISTORY_CAP: u32 = 2;

/// Configuration for [`Grid::open`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct GridConfig {
    /// Number of shards (parallel drain workers). Results never depend
    /// on this; only scheduling does.
    pub shards: usize,
    /// Bounded ingest-queue capacity per session; a submit beyond it
    /// reports [`Submit::Backpressure`].
    pub queue_capacity: usize,
    /// Ignored: every round runs on the drain worker that claims its
    /// session, so [`shards`](GridConfig::shards) alone sets a drain's
    /// parallelism. Kept only because fluxbench still sets it.
    pub threads: usize,
    /// Hibernation threshold: a resident idle for this many consecutive
    /// drains (no rounds ingested) is evicted (see the
    /// [module docs](self)); `0` (the default) keeps every session hot
    /// forever. Results never depend on this — eviction/revival is
    /// bit-transparent — only peak memory does.
    pub hibernate_after: u64,
}

impl Default for GridConfig {
    fn default() -> Self {
        GridConfig {
            shards: 4,
            queue_capacity: 64,
            threads: 0,
            hibernate_after: 0,
        }
    }
}

impl GridConfig {
    fn validate(&self) -> Result<(), EngineError> {
        if self.shards == 0 {
            return Err(EngineError::BadConfig { field: "shards" });
        }
        if self.queue_capacity == 0 {
            return Err(EngineError::BadConfig {
                field: "queue_capacity",
            });
        }
        Ok(())
    }
}

/// Identifies a session resident in a [`Grid`]. Ids are dense and
/// assigned in open/restore order, starting at 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct SessionId(pub usize);

impl SessionId {
    /// The id as a dense index.
    pub fn index(self) -> usize {
        self.0
    }
}

/// Outcome of [`Grid::submit`].
#[derive(Debug, Clone, PartialEq)]
pub enum Submit {
    /// The round was accepted into the session's ingest queue.
    Queued,
    /// The session's queue is full; the round is handed back untouched.
    /// [`drain`](Grid::drain) the grid, then resubmit.
    Backpressure(ObservationRound),
}

/// One resident session: the session itself, whether it is
/// hibernated, its queue of not-yet-ingested rounds, the outcome log its
/// drains append to, and the idle streak the hibernation policy watches.
#[derive(Debug)]
struct Resident {
    id: usize,
    session: Box<Session>,
    /// Hibernated: evicted by the idle policy or restored cold, with the
    /// session's template dropped. An explicit flag rather than a missing
    /// template, since a session that never ingested has none either.
    cold: bool,
    pending: Vec<ObservationRound>,
    outcomes: Vec<StepOutcome>,
    /// Consecutive drains in which this resident ingested nothing.
    /// Scheduling state, not session state: deliberately absent from
    /// checkpoints (a restored resident starts a fresh streak).
    rounds_idle: u64,
}

impl Resident {
    /// Evicts a hot session: drops its template, which its next round
    /// rebuilds, and marks it cold. A no-op on a cold one.
    fn hibernate(&mut self) {
        if !self.cold {
            self.session.template = None;
            self.cold = true;
            telemetry::counter(names::GRID_HIBERNATE_EVICTIONS, 1);
            record_cold(&self.session);
        }
    }

    /// The live session, marked hot again first if it was cold.
    fn revive(&mut self) -> &mut Session {
        if self.cold {
            self.cold = false;
            telemetry::counter(names::GRID_HIBERNATE_REVIVALS, 1);
        }
        &mut self.session
    }
}

/// Counts a session turning cold (eviction or cold adoption) and records
/// its footprint.
fn record_cold(session: &Session) {
    telemetry::counter(names::GRID_SESSIONS_HIBERNATED, 1);
    telemetry::record(
        names::HIST_GRID_HIBERNATE_BYTES,
        session.cold_bytes() as f64,
    );
}

/// The multi-session scheduler. See the [module docs](self).
///
/// There is no async runtime and no background thread — worker threads
/// exist only inside [`drain`](Grid::drain) — so the grid value callers
/// hold *is* the scheduler.
#[derive(Debug)]
pub struct Grid {
    engine: Engine,
    /// One reusable solver scratch per shard (drain worker).
    shards: Vec<CacheScratch>,
    /// Every resident, indexed by session id.
    residents: Vec<Resident>,
    queue_capacity: usize,
    hibernate_after: u64,
    rounds_ingested: u64,
}

impl Grid {
    /// Opens an empty grid over `engine`'s scenario knowledge: `shards`
    /// drain workers' scratch, no resident sessions yet.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::BadConfig`] for a zero shard count or
    /// queue capacity.
    pub fn open(engine: Engine, config: &GridConfig) -> Result<Grid, EngineError> {
        config.validate()?;
        Ok(Grid {
            engine,
            shards: (0..config.shards).map(|_| CacheScratch::new()).collect(),
            residents: Vec::new(),
            queue_capacity: config.queue_capacity,
            hibernate_after: config.hibernate_after,
            rounds_ingested: 0,
        })
    }

    /// Opens a new session (see [`Engine::open_session`]) and returns
    /// its dense id.
    ///
    /// # Errors
    ///
    /// As [`Engine::open_session`].
    pub fn open_session(
        &mut self,
        config: &SessionConfig,
        seed: u64,
    ) -> Result<SessionId, EngineError> {
        let session = self.engine.open_session(config, seed)?;
        Ok(self.adopt(session, false, Vec::new()))
    }

    /// Inserts a resident, hot or cold, with any pending rounds under the
    /// next id.
    fn adopt(&mut self, session: Session, cold: bool, pending: Vec<ObservationRound>) -> SessionId {
        telemetry::counter(names::GRID_SESSIONS_RESIDENT, 1);
        if cold {
            record_cold(&session);
        }
        let id = self.residents.len();
        self.residents.push(Resident {
            id,
            session: Box::new(session),
            cold,
            pending,
            outcomes: Vec::new(),
            rounds_idle: 0,
        });
        SessionId(id)
    }

    /// Queues one round for a session. Never blocks and never runs the
    /// tracker: a hibernated session stays cold until the drain that
    /// ingests the round revives it. A full queue hands the round back
    /// as [`Submit::Backpressure`] (with a `grid.backpressure.events`
    /// count) and the caller decides whether to [`drain`](Grid::drain)
    /// and resubmit or shed load.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::UnknownSession`] for an id this grid never
    /// issued.
    pub fn submit(
        &mut self,
        id: SessionId,
        round: ObservationRound,
    ) -> Result<Submit, EngineError> {
        let index = self.locate(id)?;
        let resident = &mut self.residents[index];
        if resident.pending.len() >= self.queue_capacity {
            telemetry::counter(names::GRID_BACKPRESSURE_EVENTS, 1);
            return Ok(Submit::Backpressure(round));
        }
        resident.pending.push(round);
        telemetry::counter(names::GRID_ROUNDS_QUEUED, 1);
        Ok(Submit::Queued)
    }

    /// The drain barrier: ingests every queued round, each session's
    /// queue as one contiguous batch on a shard's worker and reused
    /// scratch, and applies the hibernation policy. Residents that
    /// ingest nothing extend their idle streak and are evicted once it
    /// reaches [`GridConfig::hibernate_after`]; cold residents with
    /// queued rounds are revived first. The batches are spread over the
    /// shards' workers through one shared list (see the
    /// [module docs](self)). Returns the number of rounds ingested by
    /// this call.
    ///
    /// On success all queues are empty. A failing session does not stop
    /// the drain: every other resident is still served, and every
    /// outcome produced anywhere is retained. The failing session's
    /// failing round is consumed and its un-attempted rounds stay queued,
    /// so a caller that can make progress simply drains again. Of all
    /// failures, the one with the lowest session id is returned — the
    /// same error at any shard count.
    ///
    /// # Errors
    ///
    /// [`EngineError::SessionFailed`] wrapping the lowest-id session's
    /// ingest error.
    pub fn drain(&mut self) -> Result<u64, EngineError> {
        let _span = telemetry::span(names::SPAN_GRID_DRAIN);
        let hibernate_after = self.hibernate_after;
        let mut depth = 0;
        let mut work: Vec<&mut Resident> = Vec::new();
        for resident in &mut self.residents {
            if resident.pending.is_empty() {
                resident.rounds_idle += 1;
                if hibernate_after > 0 && resident.rounds_idle >= hibernate_after {
                    resident.hibernate();
                }
            } else {
                depth += resident.pending.len();
                work.push(resident);
            }
        }
        telemetry::record(names::HIST_GRID_QUEUE_DEPTH, depth as f64);

        let workers = self.shards.len().min(work.len()).max(1);
        let queue = &Mutex::new(work.into_iter());
        let (first, helpers) = self.shards[..workers].split_at_mut(1);
        // fluxlint: allow(thread-confinement) — sanctioned drain fan-out
        let results: Vec<WorkerResult> = std::thread::scope(|scope| {
            let handles: Vec<_> = helpers
                .iter_mut()
                .map(|scratch| {
                    // fluxlint: allow(thread-confinement) — joined in shard order
                    scope.spawn(move || {
                        let r = drain_worker(queue, scratch);
                        // Scope exit does not wait for TLS destructors;
                        // merge this worker's telemetry first.
                        telemetry::flush();
                        r
                    })
                })
                .collect();
            // The calling thread is the first worker.
            let mut results = vec![drain_worker(queue, &mut first[0])];
            for handle in handles {
                match handle.join() {
                    Ok(r) => results.push(r),
                    // Re-raise a worker's panic with its original payload.
                    Err(payload) => std::panic::resume_unwind(payload),
                }
            }
            results
        });
        let total = results.iter().map(|r| r.ingested).sum();
        self.rounds_ingested += total;
        match results
            .into_iter()
            .filter_map(|r| r.failure)
            .min_by_key(|&(id, _)| id)
        {
            Some((_, e)) => Err(e),
            None => Ok(total),
        }
    }

    /// Drains until every queue is empty and returns the grid's lifetime
    /// ingested-round count — the "everything submitted so far is fully
    /// processed" barrier.
    ///
    /// # Errors
    ///
    /// As [`drain`](Grid::drain).
    pub fn join(&mut self) -> Result<u64, EngineError> {
        self.drain()?;
        Ok(self.rounds_ingested)
    }

    /// Number of resident sessions (hot and hibernated).
    pub fn sessions(&self) -> usize {
        self.residents.len()
    }

    /// Number of sessions currently hot (live in memory).
    pub fn hot_sessions(&self) -> usize {
        self.sessions() - self.hibernated_sessions()
    }

    /// Number of sessions currently hibernated.
    pub fn hibernated_sessions(&self) -> usize {
        self.residents.iter().filter(|r| r.cold).count()
    }

    /// Total bytes the hibernated residents hold: for each, its
    /// [`Session`]'s inline size plus the per-user tracks (each holding
    /// its heading history inline), samples, lifecycle states and warm
    /// flags it owns, counted by length (no spare capacity or allocator
    /// overhead). Hot residents count 0.
    pub fn hibernated_bytes(&self) -> usize {
        self.residents
            .iter()
            .filter(|r| r.cold)
            .map(|r| r.session.cold_bytes())
            .sum()
    }

    /// Whether a session is currently hibernated.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::UnknownSession`] for an unknown id.
    pub fn is_hibernated(&self, id: SessionId) -> Result<bool, EngineError> {
        let index = self.locate(id)?;
        Ok(self.residents[index].cold)
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The per-session bounded ingest-queue capacity. A serving layer
    /// sizing per-connection credit windows against this bound can
    /// guarantee that protocol-compliant clients never trip
    /// [`Submit::Backpressure`].
    pub fn queue_capacity(&self) -> usize {
        self.queue_capacity
    }

    /// Total rounds currently queued (submitted, not yet drained) across
    /// every resident session — the backlog a [`drain`](Grid::drain)
    /// barrier would clear. Drain schedulers use this to amortize the
    /// barrier over many connections instead of paying it per submit.
    pub fn queued_total(&self) -> usize {
        self.residents.iter().map(|r| r.pending.len()).sum()
    }

    /// Rounds ingested over the grid's lifetime.
    pub fn rounds_ingested(&self) -> u64 {
        self.rounds_ingested
    }

    /// The engine whose scenario knowledge this grid serves.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Read access to a resident session, hot or hibernated. A cold
    /// resident is a complete [`Session`] without its template, so it is
    /// read as it lies and stays cold: estimates, lifecycle states and
    /// checkpoints read the same as on the hot session.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::UnknownSession`] for an unknown id.
    pub fn session(&self, id: SessionId) -> Result<&Session, EngineError> {
        Ok(&self.residents[self.locate(id)?].session)
    }

    /// Mutable access to a resident session, reviving it if it is
    /// hibernated — user lifecycle calls
    /// ([`join`](Session::join), [`suspend`](Session::suspend), …) apply
    /// immediately, so callers interleaving them with queued rounds
    /// should [`drain`](Grid::drain) first to fix the ordering.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::UnknownSession`] for an unknown id.
    pub fn session_mut(&mut self, id: SessionId) -> Result<&mut Session, EngineError> {
        let index = self.locate(id)?;
        Ok(self.residents[index].revive())
    }

    /// Rounds currently queued (submitted, not yet drained) for a session.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::UnknownSession`] for an unknown id.
    pub fn queued(&self, id: SessionId) -> Result<usize, EngineError> {
        let index = self.locate(id)?;
        Ok(self.residents[index].pending.len())
    }

    /// Takes (and clears) the session's accumulated drain outcomes, one
    /// per ingested round in ingestion order.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::UnknownSession`] for an unknown id.
    pub fn take_outcomes(&mut self, id: SessionId) -> Result<Vec<StepOutcome>, EngineError> {
        let index = self.locate(id)?;
        Ok(std::mem::take(&mut self.residents[index].outcomes))
    }

    /// One resident's session checkpoint at the lossless history cap —
    /// what [`checkpoint`](Grid::checkpoint) records for it. A hibernated
    /// resident is encoded as it lies and stays cold.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::UnknownSession`] for an unknown id.
    pub fn session_checkpoint(&self, id: SessionId) -> Result<CompactCheckpoint, EngineError> {
        let index = self.locate(id)?;
        Ok(self.residents[index]
            .session
            .checkpoint_compact(HISTORY_CAP))
    }

    /// Snapshots every resident session — including rounds still queued —
    /// into one versioned checkpoint. Each resident is captured as its
    /// [`session_checkpoint`](Grid::session_checkpoint): hibernated
    /// residents *without being revived*. Outcome logs are derived data
    /// and are not captured; take them first if you need them.
    pub fn checkpoint(&self) -> GridCheckpoint {
        let sessions = self
            .residents
            .iter()
            .map(|resident| GridSessionCheckpoint {
                session: resident.session.checkpoint_compact(HISTORY_CAP),
                hibernated: resident.cold,
                pending: resident.pending.clone(),
            })
            .collect();
        GridCheckpoint {
            version: CHECKPOINT_VERSION,
            sessions,
        }
    }

    /// [`checkpoint`](Grid::checkpoint) serialized to a JSON string.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::CheckpointCodec`] when encoding fails.
    pub fn checkpoint_json(&self) -> Result<String, EngineError> {
        serde_json::to_string(&self.checkpoint())
            .map_err(|e| EngineError::CheckpointCodec(e.to_string()))
    }

    /// Revives a grid from a checkpoint: every session is restored under
    /// its original id with its pending rounds re-queued, so
    /// restore-then-drain is bit-identical to never having stopped. Every
    /// entry is restored through [`Engine::restore_compact`], which
    /// validates it, and hibernated entries are adopted *cold*: without a
    /// template, as evicted residents are, so a restored fleet's memory
    /// stays bounded from the first instant. The config is free: the
    /// shard count, queue capacity, and hibernation threshold may all
    /// differ from the checkpointed grid's — none affects results.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::UnsupportedVersion`] for any format
    /// version but [`CHECKPOINT_VERSION`], and propagates per-session
    /// restore errors.
    pub fn restore(
        engine: Engine,
        config: &GridConfig,
        checkpoint: &GridCheckpoint,
    ) -> Result<Grid, EngineError> {
        check_version(checkpoint.version)?;
        let mut grid = Grid::open(engine, config)?;
        for entry in &checkpoint.sessions {
            let session = grid.engine.restore_compact(&entry.session)?;
            grid.adopt(session, entry.hibernated, entry.pending.clone());
        }
        Ok(grid)
    }

    /// [`restore`](Grid::restore) from a JSON string.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::UnsupportedVersion`] for a document of
    /// another version, whatever its shape, and
    /// [`EngineError::CheckpointCodec`] for undecodable JSON, else as
    /// [`restore`](Grid::restore).
    pub fn restore_json(
        engine: Engine,
        config: &GridConfig,
        json: &str,
    ) -> Result<Grid, EngineError> {
        Grid::restore(engine, config, &checkpoint::from_json(json)?)
    }

    /// The index of a known session id.
    fn locate(&self, id: SessionId) -> Result<usize, EngineError> {
        if id.0 < self.residents.len() {
            Ok(id.0)
        } else {
            Err(EngineError::UnknownSession {
                index: id.0,
                sessions: self.residents.len(),
            })
        }
    }
}

/// What one drain worker did: rounds ingested, and its lowest-id
/// failure with that session's id.
struct WorkerResult {
    ingested: u64,
    failure: Option<(usize, EngineError)>,
}

/// One drain worker: claims residents from the shared work list until
/// it is empty and serves each with this shard's scratch. Every claimed
/// resident is served even after a failure.
fn drain_worker<'a, I>(queue: &Mutex<I>, scratch: &mut CacheScratch) -> WorkerResult
where
    I: Iterator<Item = &'a mut Resident>,
{
    let mut result = WorkerResult {
        ingested: 0,
        failure: None,
    };
    loop {
        // The lock guards only the claim. A poisoned lock means another
        // worker panicked mid-claim; its panic is re-raised at the join,
        // so carrying on here is harmless.
        let next = queue.lock().unwrap_or_else(PoisonError::into_inner).next();
        let Some(resident) = next else {
            return result;
        };
        if let Err(e) = serve(resident, scratch, &mut result.ingested) {
            // Claims run in id order, so the first failure is this
            // worker's lowest.
            if result.failure.is_none() {
                result.failure = Some((resident.id, e));
            }
        }
    }
}

/// Serves one work-list entry: revives the resident if cold and ingests
/// its whole queue as one batch, adding the rounds ingested to
/// `ingested`.
fn serve(
    resident: &mut Resident,
    scratch: &mut CacheScratch,
    ingested: &mut u64,
) -> Result<(), EngineError> {
    resident.rounds_idle = 0;
    resident.revive();
    let batch = std::mem::take(&mut resident.pending);
    telemetry::counter(names::GRID_BATCHES, 1);
    let before = resident.outcomes.len();
    let result = resident
        .session
        .ingest_batch_into(&batch, scratch, &mut resident.outcomes);
    let done = resident.outcomes.len() - before;
    *ingested += done as u64;
    telemetry::counter(names::GRID_ROUNDS_INGESTED, done as u64);
    result.map_err(|e| {
        // Round `done` failed and was consumed by the attempt (a
        // malformed round would otherwise wedge the queue forever); the
        // un-attempted remainder goes back in order.
        resident.pending = batch.into_iter().skip(done + 1).collect();
        EngineError::SessionFailed {
            session: resident.id,
            round: done,
            source: Box::new(e),
        }
    })
}

/// One session's slice of a [`GridCheckpoint`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GridSessionCheckpoint {
    /// The session snapshot (see [`Grid::session_checkpoint`]).
    pub session: CompactCheckpoint,
    /// Whether the resident was hibernated at checkpoint time; restore
    /// adopts it cold again.
    pub hibernated: bool,
    /// Rounds that were queued but not yet ingested at checkpoint time.
    pub pending: Vec<ObservationRound>,
}

/// A complete serializable grid snapshot: every resident session (in id
/// order) with its pending rounds. Produced by [`Grid::checkpoint`],
/// revived by [`Grid::restore`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GridCheckpoint {
    /// Format version ([`CHECKPOINT_VERSION`]).
    pub version: u32,
    /// Resident sessions in id order.
    pub sessions: Vec<GridSessionCheckpoint>,
}
