//! fluxgrid: the multi-session scheduler.
//!
//! A [`Grid`] owns N shards — drain workers, each holding a dedicated
//! [`Pool`] slice (see [`Pool::split`]) and a reusable solver scratch —
//! and one table of resident sessions indexed by id. Rounds are
//! [`submit`](Grid::submit)ted into bounded per-session queues — a full
//! queue hands the round straight back as [`Submit::Backpressure`]
//! instead of blocking — and a [`drain`](Grid::drain) barrier ingests
//! every queued round, each session's queue as one contiguous batch
//! ([`Session::ingest_batch_into`]).
//!
//! # Scheduling
//!
//! A drain first lists, in id order, the residents with work: queued
//! rounds, or an idle streak that has reached the eviction threshold.
//! The workers then claim entries from that one shared list until it is
//! empty, so no worker idles while another still has a backlog, however
//! the active sessions' ids happen to be distributed. The calling thread
//! serves as the first worker; the others are plain
//! [`std::thread::scope`] threads, *not* pool workers, so each can still
//! dispatch on its own pool slice. With one-thread slices (the default
//! when `shards == threads`) every solver dispatch takes the sequential
//! fast path and the workers themselves are the parallelism.
//!
//! # Determinism
//!
//! Each session's rounds are processed in submission order by exactly
//! one worker, and every solver construct underneath is bit-identical at
//! any thread count, so grid results are **bit-identical to driving each
//! session alone** with [`Session::ingest`] — for any shard count, any
//! thread budget, and any interleaving of submissions across sessions.
//! Which worker serves a session affects only scheduling, never results.
//!
//! # Checkpointing
//!
//! [`Grid::checkpoint`] snapshots every resident session *plus its
//! pending (queued, not yet ingested) rounds*; restoring under any
//! [`GridConfig`] and draining yields the same outcomes as never having
//! stopped. Every resident is captured as the same [`CompactCheckpoint`]
//! the hibernarium holds, and [`Grid::session_checkpoint`] returns one
//! resident's.
//!
//! # Hibernation
//!
//! With [`GridConfig::hibernate_after`] set, a resident that sits
//! through that many consecutive drains without ingesting a round is
//! evicted to its [`CompactCheckpoint`], held as a value in the grid's
//! in-memory hibernarium; the live [`Session`] — samples, template,
//! scratch references — is dropped. Submitting to a cold resident only
//! queues the round: the drain worker that ingests it revives it first
//! (as does [`session_mut`](Grid::session_mut)). Eviction and revival
//! are bit-transparent: the compact form decodes exactly, so a fleet run
//! with any eviction threshold is bit-identical to the always-resident
//! run. [`Grid::checkpoint`] and [`Grid::session_checkpoint`] copy
//! hibernated residents' stored values *without reviving them*, so
//! checkpointing a 100k-session fleet touches only the hot few.

use std::sync::{Mutex, PoisonError};

use serde::{Deserialize, Serialize};

use fluxprint_fluxpar::Pool;
use fluxprint_netsim::ObservationRound;
use fluxprint_smc::StepOutcome;
use fluxprint_solver::CacheScratch;
use fluxprint_telemetry::{self as telemetry, names};

use crate::{
    checkpoint::{self, check_version},
    CompactCheckpoint, Engine, EngineError, Session, SessionConfig, CHECKPOINT_VERSION,
};

/// History cap of every snapshot the grid takes (evictions and
/// checkpoints): the live tracker itself never keeps more than two
/// heading-history entries, so this cap is lossless and eviction/revival
/// stays bit-transparent.
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
    /// Worker-thread budget split across the shards ([`Pool::split`]);
    /// `0` means the process-wide pool's width.
    pub threads: usize,
    /// Hibernation threshold: a resident idle for this many consecutive
    /// drains (no rounds ingested) is evicted to its compact form; `0`
    /// (the default) keeps every session resident forever. Results
    /// never depend on this — eviction/revival is bit-transparent —
    /// only peak memory does.
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

/// Where a resident's session state lives right now.
#[derive(Debug)]
enum Residency {
    /// A live session, ready to ingest.
    Hot(Box<Session>),
    /// Evicted to the hibernarium: the session's compact checkpoint is
    /// all that remains in memory.
    Cold(Box<CompactCheckpoint>),
}

/// One resident session: its state (hot or hibernated), its queue of
/// not-yet-ingested rounds, the outcome log its drains append to, and
/// the idle streak the hibernation policy watches.
#[derive(Debug)]
struct Resident {
    id: usize,
    residency: Residency,
    pending: Vec<ObservationRound>,
    outcomes: Vec<StepOutcome>,
    /// Consecutive drains in which this resident ingested nothing.
    /// Scheduling state, not session state: deliberately absent from
    /// checkpoints (a restored resident starts a fresh streak).
    rounds_idle: u64,
}

impl Residency {
    /// The live session, revived from the hibernarium first if needed.
    /// `id` names the resident in errors.
    fn revive(&mut self, engine: &Engine, id: usize) -> Result<&mut Session, EngineError> {
        if let Residency::Cold(checkpoint) = self {
            let session = engine.restore_compact(checkpoint)?;
            telemetry::counter(names::GRID_HIBERNATE_REVIVALS, 1);
            *self = Residency::Hot(Box::new(session));
        }
        match self {
            Residency::Hot(session) => Ok(session),
            Residency::Cold(_) => Err(EngineError::SessionHibernated { session: id }),
        }
    }

    /// Evicts a hot session to its compact form; a no-op on an
    /// already-cold one.
    fn hibernate(&mut self) {
        if let Residency::Hot(session) = self {
            let checkpoint = session.checkpoint_compact(HISTORY_CAP);
            telemetry::counter(names::GRID_HIBERNATE_EVICTIONS, 1);
            telemetry::counter(names::GRID_SESSIONS_HIBERNATED, 1);
            telemetry::record(
                names::HIST_GRID_HIBERNATE_BYTES,
                checkpoint.in_memory_bytes() as f64,
            );
            *self = Residency::Cold(Box::new(checkpoint));
        }
    }

    /// The resident's session checkpoint: a hot session's snapshot at the
    /// lossless cap, or a cold one's stored value, copied without
    /// reviving it. The two are equal for the same session state.
    fn snapshot(&self) -> CompactCheckpoint {
        match self {
            Residency::Hot(session) => session.checkpoint_compact(HISTORY_CAP),
            Residency::Cold(checkpoint) => CompactCheckpoint::clone(checkpoint),
        }
    }
}

/// One shard: a drain worker's dedicated pool slice and reusable solver
/// scratch.
#[derive(Debug)]
struct Shard {
    pool: Pool,
    scratch: CacheScratch,
}

/// The multi-session scheduler. See the [module docs](self).
#[derive(Debug)]
pub struct Grid {
    engine: Engine,
    shards: Vec<Shard>,
    /// Every resident, indexed by session id.
    residents: Vec<Resident>,
    queue_capacity: usize,
    hibernate_after: u64,
    rounds_ingested: u64,
}

/// The handle callers drive a grid through. There is no async runtime
/// and no background thread — worker threads exist only inside
/// [`drain`](Grid::drain) — so the handle *is* the scheduler.
pub type GridHandle = Grid;

impl Grid {
    /// Opens an empty grid over `engine`'s scenario knowledge: `shards`
    /// pool slices carved out of the configured thread budget, no
    /// resident sessions yet.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::BadConfig`] for a zero shard count or
    /// queue capacity.
    pub fn open(engine: Engine, config: &GridConfig) -> Result<GridHandle, EngineError> {
        config.validate()?;
        let budget = if config.threads == 0 {
            fluxprint_fluxpar::pool().threads()
        } else {
            config.threads
        };
        let shards = Pool::with_threads(budget)
            .split(config.shards)
            .into_iter()
            .map(|pool| Shard {
                pool,
                scratch: CacheScratch::new(),
            })
            .collect();
        Ok(Grid {
            engine,
            shards,
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
        Ok(self.adopt(Residency::Hot(Box::new(session)), Vec::new()))
    }

    /// Inserts a resident (with any pending rounds) under the next id.
    fn adopt(&mut self, residency: Residency, pending: Vec<ObservationRound>) -> SessionId {
        telemetry::counter(names::GRID_SESSIONS_RESIDENT, 1);
        if let Residency::Cold(checkpoint) = &residency {
            telemetry::counter(names::GRID_SESSIONS_HIBERNATED, 1);
            telemetry::record(
                names::HIST_GRID_HIBERNATE_BYTES,
                checkpoint.in_memory_bytes() as f64,
            );
        }
        let id = self.residents.len();
        self.residents.push(Resident {
            id,
            residency,
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
    /// queue as one contiguous batch over a shard's pool slice and
    /// reused scratch, and applies the hibernation policy. Residents
    /// that ingest nothing extend their idle streak and are evicted once
    /// it reaches [`GridConfig::hibernate_after`]; cold residents with
    /// queued rounds are revived first. The work is spread over the
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
    /// same error at any shard or thread count.
    ///
    /// # Errors
    ///
    /// [`EngineError::SessionFailed`] wrapping the lowest-id session's
    /// ingest error, or that session's revival error as is (its queue
    /// then stays intact).
    pub fn drain(&mut self) -> Result<u64, EngineError> {
        let _span = telemetry::span(names::SPAN_GRID_DRAIN);
        let hibernate_after = self.hibernate_after;
        let mut depth = 0;
        let mut work: Vec<&mut Resident> = Vec::new();
        for resident in &mut self.residents {
            if resident.pending.is_empty() {
                resident.rounds_idle += 1;
                let evict = hibernate_after > 0
                    && resident.rounds_idle >= hibernate_after
                    && matches!(resident.residency, Residency::Hot(_));
                if !evict {
                    continue;
                }
            }
            depth += resident.pending.len();
            work.push(resident);
        }
        telemetry::record(names::HIST_GRID_QUEUE_DEPTH, depth as f64);

        let engine = &self.engine;
        let workers = self.shards.len().min(work.len()).max(1);
        let queue = &Mutex::new(work.into_iter());
        let (first, helpers) = self.shards[..workers].split_at_mut(1);
        // fluxlint: allow(thread-confinement) — sanctioned drain fan-out
        let results: Vec<WorkerResult> = std::thread::scope(|scope| {
            let handles: Vec<_> = helpers
                .iter_mut()
                .map(|shard| {
                    // fluxlint: allow(thread-confinement) — joined in shard order
                    scope.spawn(move || {
                        let r = drain_worker(queue, engine, shard);
                        // Scope exit does not wait for TLS destructors;
                        // merge this worker's telemetry first, exactly as
                        // fluxpar workers do.
                        telemetry::flush();
                        r
                    })
                })
                .collect();
            // The calling thread is the first worker.
            let mut results = vec![drain_worker(queue, engine, &mut first[0])];
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
        self.residents
            .iter()
            .filter(|r| matches!(r.residency, Residency::Cold(_)))
            .count()
    }

    /// Total bytes the hibernarium holds: the sum of
    /// [`CompactCheckpoint::in_memory_bytes`] over every hibernated
    /// resident.
    pub fn hibernated_bytes(&self) -> usize {
        self.residents
            .iter()
            .map(|r| match &r.residency {
                Residency::Cold(checkpoint) => checkpoint.in_memory_bytes(),
                Residency::Hot(_) => 0,
            })
            .sum()
    }

    /// Whether a session is currently hibernated.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::UnknownSession`] for an unknown id.
    pub fn is_hibernated(&self, id: SessionId) -> Result<bool, EngineError> {
        let index = self.locate(id)?;
        Ok(matches!(
            self.residents[index].residency,
            Residency::Cold(_)
        ))
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

    /// Read access to a resident session.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::UnknownSession`] for an unknown id and
    /// [`EngineError::SessionHibernated`] for a cold resident (a shared
    /// reference cannot revive; use [`session_mut`](Grid::session_mut)
    /// or submit a round and drain).
    pub fn session(&self, id: SessionId) -> Result<&Session, EngineError> {
        let index = self.locate(id)?;
        match &self.residents[index].residency {
            Residency::Hot(session) => Ok(session),
            Residency::Cold(_) => Err(EngineError::SessionHibernated { session: id.0 }),
        }
    }

    /// Mutable access to a resident session, reviving it from the
    /// hibernarium if needed — user lifecycle calls
    /// ([`join`](Session::join), [`suspend`](Session::suspend), …) apply
    /// immediately, so callers interleaving them with queued rounds
    /// should [`drain`](Grid::drain) first to fix the ordering.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::UnknownSession`] for an unknown id and
    /// propagates revival errors.
    pub fn session_mut(&mut self, id: SessionId) -> Result<&mut Session, EngineError> {
        let index = self.locate(id)?;
        self.residents[index].residency.revive(&self.engine, id.0)
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

    /// One resident's session checkpoint — what [`checkpoint`](Grid::checkpoint)
    /// records for it. A hibernated resident's stored value is copied
    /// and the resident stays cold.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::UnknownSession`] for an unknown id.
    pub fn session_checkpoint(&self, id: SessionId) -> Result<CompactCheckpoint, EngineError> {
        let index = self.locate(id)?;
        Ok(self.residents[index].residency.snapshot())
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
                session: resident.residency.snapshot(),
                hibernated: matches!(resident.residency, Residency::Cold(_)),
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
    /// restore-then-drain is bit-identical to never having stopped. Hot
    /// entries are restored live (see [`Engine::restore_compact`]);
    /// hibernated entries are validated and adopted *cold* — straight
    /// back into the hibernarium without ever building a live session,
    /// so a restored fleet's memory stays bounded from the first
    /// instant. The config is free: the shard count, thread budget,
    /// queue capacity, and hibernation threshold may all differ from
    /// the checkpointed grid's — none affects results.
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
    ) -> Result<GridHandle, EngineError> {
        check_version(checkpoint.version)?;
        let mut grid = Grid::open(engine, config)?;
        for entry in &checkpoint.sessions {
            let residency = if entry.hibernated {
                entry.session.validate()?;
                Residency::Cold(Box::new(entry.session.clone()))
            } else {
                Residency::Hot(Box::new(grid.engine.restore_compact(&entry.session)?))
            };
            grid.adopt(residency, entry.pending.clone());
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
    ) -> Result<GridHandle, EngineError> {
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
/// it is empty and serves each on this shard's pool slice and scratch.
/// Every claimed resident is served even after a failure.
fn drain_worker<'a, I>(queue: &Mutex<I>, engine: &Engine, shard: &mut Shard) -> WorkerResult
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
        if let Err(e) = serve(resident, engine, shard, &mut result.ingested) {
            // Claims run in id order, so the first failure is this
            // worker's lowest.
            if result.failure.is_none() {
                result.failure = Some((resident.id, e));
            }
        }
    }
}

/// Serves one work-list entry. An entry without queued rounds is an idle
/// resident due for eviction. Otherwise the resident is revived if cold
/// and its whole queue is ingested as one batch, adding the rounds
/// ingested to `ingested`.
fn serve(
    resident: &mut Resident,
    engine: &Engine,
    shard: &mut Shard,
    ingested: &mut u64,
) -> Result<(), EngineError> {
    if resident.pending.is_empty() {
        resident.residency.hibernate();
        return Ok(());
    }
    resident.rounds_idle = 0;
    // A revival failure leaves the queue intact.
    let session = resident.residency.revive(engine, resident.id)?;
    let batch = std::mem::take(&mut resident.pending);
    telemetry::counter(names::GRID_BATCHES, 1);
    let before = resident.outcomes.len();
    let result = session.ingest_batch_into(
        &batch,
        &shard.pool,
        &mut shard.scratch,
        &mut resident.outcomes,
    );
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
