//! The serving daemon: the grid behind a TCP listener.
//!
//! # Threading model
//!
//! - One **accept** thread takes connections off the listener and
//!   spawns a reader/writer pair per connection.
//! - One **reader** thread per connection decodes frames off the socket
//!   into reusable buffers (the pipelined decode stage) and forwards
//!   typed requests over a channel.
//! - One **core** thread owns the [`Grid`] — all engine state is
//!   confined to it, so the grid's determinism contract is untouched —
//!   and runs the drain scheduler: submitted rounds accumulate across
//!   connections until the backlog reaches the drain threshold *or* the
//!   request channel goes momentarily quiet, then one drain barrier
//!   ingests everything. Many connections share each barrier.
//! - One **writer** thread per connection coalesces response batches
//!   into single socket writes.
//!
//! # Flow control
//!
//! Each connection gets a credit window at handshake; every submitted
//! round costs one credit and [`Response::RoundsAck`] returns credits
//! after the drain that ingested the rounds. The core thread never
//! blocks on a connection: responses are handed to writers with a
//! non-blocking send, and a connection whose response queue is full
//! (a client that stopped reading *and* ignored its credit window) is
//! dropped. Grid-level [`Submit::Backpressure`] is absorbed by an
//! immediate drain and counted as a `fluxd.backpressure.stalls` —
//! protocol credits sized within the grid's queue capacity make this
//! rare.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, Sender, SyncSender, TryRecvError, TrySendError};
use std::sync::{mpsc, Arc, Mutex};

use fluxprint_engine::{
    Engine, EngineError, Grid, GridConfig, SessionConfig, SessionId, StepOutcome, Submit,
};
use fluxprint_telemetry::{self as telemetry, names};

use crate::error::FluxdError;
use crate::protocol::{
    frame_body_len, ErrorCode, ProtocolError, Request, Response, SessionSpec, WireOutcome,
    HEADER_LEN, VERSION,
};

/// Serving configuration. Zero-valued tuning fields derive defaults
/// from the grid configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address, e.g. `"127.0.0.1:0"` for an ephemeral loopback port.
    pub addr: String,
    /// The grid under the daemon.
    pub grid: GridConfig,
    /// Per-connection credit window; `0` derives the grid's
    /// per-session queue capacity, so a connection driving one session
    /// can never trip grid backpressure.
    pub credits: u32,
    /// Drain when the cross-connection backlog reaches this many queued
    /// rounds; `0` derives `shards * queue_capacity / 2` (at least 1).
    /// The channel going quiet also triggers a drain, so latency is
    /// bounded by work, not by a timer.
    pub drain_threshold: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            grid: GridConfig::default(),
            credits: 0,
            drain_threshold: 0,
        }
    }
}

/// Events flowing from connection readers to the core thread.
enum Event {
    Connected {
        conn: u64,
        writer: SyncSender<Vec<u8>>,
    },
    Frame {
        conn: u64,
        t_recv: u64,
        request: Request,
    },
    BadFrame {
        conn: u64,
        error: ProtocolError,
    },
    Disconnected {
        conn: u64,
    },
}

/// Core-side connection state.
struct Conn {
    writer: SyncSender<Vec<u8>>,
    credits: u32,
    helloed: bool,
    dead: bool,
    /// Staging buffer: responses encode here and flush to the writer as
    /// one coalesced batch.
    out: Vec<u8>,
}

/// One submitted-but-unacked contiguous run of rounds: acked (with
/// outcomes and returned credits) after the drain that ingests it.
struct PendingAck {
    conn: u64,
    session: u32,
    count: u32,
    t_recv: u64,
}

/// A running daemon. Dropping the handle leaks the threads; call
/// [`shutdown`](ServerHandle::shutdown) (tests, benches) or
/// [`wait`](ServerHandle::wait) (the binary) instead.
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    streams: Arc<Mutex<Vec<TcpStream>>>,
    // fluxlint: allow(thread-confinement) — daemon lifecycle handles; serving threads are I/O-bound and never touch solver state
    accept: Option<std::thread::JoinHandle<()>>,
    // fluxlint: allow(thread-confinement) — core thread handle, joined at shutdown
    core: Option<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (with the ephemeral port resolved).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, closes every live connection, and joins all
    /// serving threads. Telemetry recorded on serving threads is merged
    /// before this returns, so a snapshot taken afterwards sees it.
    ///
    /// # Errors
    ///
    /// [`FluxdError::Closed`] when a serving thread panicked.
    pub fn shutdown(mut self) -> Result<(), FluxdError> {
        self.stop.store(true, Ordering::SeqCst);
        // Wake the blocking accept with a throwaway connection.
        drop(TcpStream::connect(self.addr));
        let accept_ok = match self.accept.take() {
            Some(handle) => handle.join().is_ok(),
            None => true,
        };
        // Force-close anything still connected so readers unblock.
        let streams = match self.streams.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        for stream in streams.iter() {
            drop(stream.shutdown(Shutdown::Both));
        }
        drop(streams);
        let core_ok = match self.core.take() {
            Some(handle) => handle.join().is_ok(),
            None => true,
        };
        if accept_ok && core_ok {
            Ok(())
        } else {
            Err(FluxdError::Closed)
        }
    }

    /// Blocks until the daemon stops (the binary's serve-forever path).
    ///
    /// # Errors
    ///
    /// [`FluxdError::Closed`] when the core thread panicked.
    pub fn wait(mut self) -> Result<(), FluxdError> {
        let core_ok = match self.core.take() {
            Some(handle) => handle.join().is_ok(),
            None => true,
        };
        if let Some(handle) = self.accept.take() {
            drop(handle.join());
        }
        if core_ok {
            Ok(())
        } else {
            Err(FluxdError::Closed)
        }
    }
}

/// Binds a listener and spawns the serving threads over `engine`.
///
/// # Errors
///
/// [`FluxdError::Engine`] for a bad grid configuration,
/// [`FluxdError::Io`] when the bind fails.
pub fn spawn(engine: Engine, config: &ServerConfig) -> Result<ServerHandle, FluxdError> {
    let grid = Grid::open(engine, &config.grid)?;
    let credits = if config.credits == 0 {
        grid.queue_capacity().min(u32::MAX as usize) as u32
    } else {
        config.credits
    };
    if credits == 0 {
        return Err(FluxdError::BadConfig { field: "credits" });
    }
    let drain_threshold = if config.drain_threshold == 0 {
        (config.grid.shards * config.grid.queue_capacity / 2).max(1)
    } else {
        config.drain_threshold
    };
    let listener = TcpListener::bind(config.addr.as_str())?;
    let addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let streams: Arc<Mutex<Vec<TcpStream>>> = Arc::new(Mutex::new(Vec::new()));
    let (tx, rx) = mpsc::channel::<Event>();

    let accept_stop = Arc::clone(&stop);
    let accept_streams = Arc::clone(&streams);
    let writer_queue = credits as usize + 16;
    let accept = std::thread::Builder::new()
        .name("fluxd-accept".to_string())
        // fluxlint: allow(thread-confinement) — daemon accept loop; pure I/O, no solver state crosses this boundary
        .spawn(move || {
            accept_loop(listener, accept_stop, accept_streams, tx, writer_queue);
            telemetry::flush();
        })?;

    let core = std::thread::Builder::new()
        .name("fluxd-core".to_string())
        // fluxlint: allow(thread-confinement) — the core thread *owns* the grid; engine work stays confined to it
        .spawn(move || {
            core_loop(grid, rx, credits, drain_threshold);
            telemetry::flush();
        })?;

    Ok(ServerHandle {
        addr,
        stop,
        streams,
        accept: Some(accept),
        core: Some(core),
    })
}

fn accept_loop(
    listener: TcpListener,
    stop: Arc<AtomicBool>,
    streams: Arc<Mutex<Vec<TcpStream>>>,
    tx: Sender<Event>,
    writer_queue: usize,
) {
    let mut next_conn: u64 = 0;
    while let Ok((stream, _peer)) = listener.accept() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        telemetry::counter(names::FLUXD_CONNECTIONS, 1);
        // Responses are small coalesced batches on a request/ack loop;
        // Nagle + delayed ACK would put a ~40 ms floor under the tail.
        drop(stream.set_nodelay(true));
        let conn = next_conn;
        next_conn += 1;
        let Ok(write_half) = stream.try_clone() else {
            continue;
        };
        let Ok(registry_clone) = stream.try_clone() else {
            continue;
        };
        match streams.lock() {
            Ok(mut guard) => guard.push(registry_clone),
            Err(poisoned) => poisoned.into_inner().push(registry_clone),
        }
        let (wtx, wrx) = mpsc::sync_channel::<Vec<u8>>(writer_queue);
        let reader_tx = tx.clone();
        drop(
            std::thread::Builder::new()
                .name(format!("fluxd-read-{conn}"))
                // fluxlint: allow(thread-confinement) — per-connection reader; decodes frames only, never touches engine state
                .spawn(move || {
                    reader_loop(stream, conn, wtx, reader_tx);
                    telemetry::flush();
                }),
        );
        drop(
            std::thread::Builder::new()
                .name(format!("fluxd-write-{conn}"))
                // fluxlint: allow(thread-confinement) — per-connection writer; coalesces socket writes only
                .spawn(move || writer_loop(write_half, wrx)),
        );
    }
}

/// Reads length-prefixed frames into a reusable buffer, decodes them,
/// and forwards typed requests to the core. The buffer is sized once by
/// the largest frame seen; steady-state decoding allocates only for
/// owned payloads (round batches), never for framing.
fn reader_loop(mut stream: TcpStream, conn: u64, writer: SyncSender<Vec<u8>>, tx: Sender<Event>) {
    if tx.send(Event::Connected { conn, writer }).is_err() {
        return;
    }
    let mut body = Vec::new();
    loop {
        let mut prefix = [0u8; HEADER_LEN];
        if stream.read_exact(&mut prefix).is_err() {
            // EOF or reset: a clean goodbye already went through; either
            // way the connection is done.
            drop(tx.send(Event::Disconnected { conn }));
            return;
        }
        let len = match frame_body_len(prefix) {
            Ok(len) => len,
            Err(error) => {
                drop(tx.send(Event::BadFrame { conn, error }));
                return;
            }
        };
        body.resize(len, 0);
        if let Err(e) = stream.read_exact(&mut body) {
            let error = if e.kind() == std::io::ErrorKind::UnexpectedEof {
                // The peer promised `len` bytes and hung up early.
                ProtocolError::Truncated {
                    needed: len,
                    have: 0,
                }
            } else {
                drop(tx.send(Event::Disconnected { conn }));
                return;
            };
            drop(tx.send(Event::BadFrame { conn, error }));
            return;
        }
        telemetry::counter(names::FLUXD_FRAMES_IN, 1);
        let t_recv = telemetry::clock_ns();
        match Request::decode(&body) {
            Ok(request) => {
                let done = matches!(request, Request::Goodbye);
                if tx
                    .send(Event::Frame {
                        conn,
                        t_recv,
                        request,
                    })
                    .is_err()
                {
                    return;
                }
                if done {
                    drop(tx.send(Event::Disconnected { conn }));
                    return;
                }
            }
            Err(error) => {
                drop(tx.send(Event::BadFrame { conn, error }));
                return;
            }
        }
    }
}

/// Coalesces queued response batches into single socket writes: one
/// `write_all` per wakeup, however many batches have accumulated.
fn writer_loop(mut stream: TcpStream, rx: Receiver<Vec<u8>>) {
    let mut out: Vec<u8> = Vec::new();
    while let Ok(first) = rx.recv() {
        out.clear();
        out.extend_from_slice(&first);
        while let Ok(more) = rx.try_recv() {
            out.extend_from_slice(&more);
        }
        if stream.write_all(&out).is_err() {
            break;
        }
    }
    drop(stream.shutdown(Shutdown::Both));
}

/// The drain scheduler and single owner of all engine state.
fn core_loop(grid: Grid, rx: Receiver<Event>, credits0: u32, drain_threshold: usize) {
    let mut core = Core {
        grid,
        conns: BTreeMap::new(),
        pending: Vec::new(),
        poisoned: Vec::new(),
        credits0,
    };
    loop {
        let idle = core.grid.queued_total() == 0 && core.pending.is_empty();
        let event = if idle {
            match rx.recv() {
                Ok(event) => event,
                Err(_) => break,
            }
        } else {
            match rx.try_recv() {
                Ok(event) => event,
                Err(TryRecvError::Empty) => {
                    // The channel went quiet: stop batching, pay the
                    // barrier now.
                    core.flush_drain();
                    continue;
                }
                Err(TryRecvError::Disconnected) => {
                    core.flush_drain();
                    break;
                }
            }
        };
        core.handle(event);
        if core.grid.queued_total() >= drain_threshold {
            core.flush_drain();
        }
        core.prune();
    }
    core.flush_drain();
}

struct Core {
    grid: Grid,
    conns: BTreeMap<u64, Conn>,
    pending: Vec<PendingAck>,
    /// Sessions whose ingest failed mid-drain; their outcome streams are
    /// no longer attributable, so further submits are refused.
    poisoned: Vec<u32>,
    credits0: u32,
}

impl Core {
    fn handle(&mut self, event: Event) {
        match event {
            Event::Connected { conn, writer } => {
                self.conns.insert(
                    conn,
                    Conn {
                        writer,
                        credits: 0,
                        helloed: false,
                        dead: false,
                        out: Vec::new(),
                    },
                );
            }
            Event::Disconnected { conn } => {
                self.conns.remove(&conn);
            }
            Event::BadFrame { conn, error } => {
                telemetry::counter(names::FLUXD_PROTOCOL_ERRORS, 1);
                let code = ErrorCode::for_protocol_error(&error);
                self.respond(
                    conn,
                    &Response::Error {
                        code,
                        detail: error.to_string(),
                    },
                );
                self.send_now(conn);
                self.conns.remove(&conn);
            }
            Event::Frame {
                conn,
                t_recv,
                request,
            } => self.handle_request(conn, t_recv, request),
        }
    }

    fn handle_request(&mut self, conn: u64, t_recv: u64, request: Request) {
        let helloed = self.conns.get(&conn).map(|c| c.helloed).unwrap_or(false);
        if !helloed && !matches!(request, Request::Hello { .. }) {
            telemetry::counter(names::FLUXD_PROTOCOL_ERRORS, 1);
            self.respond(
                conn,
                &Response::Error {
                    code: ErrorCode::Malformed,
                    detail: "hello required before any other frame".to_string(),
                },
            );
            self.send_now(conn);
            self.conns.remove(&conn);
            return;
        }
        match request {
            Request::Hello { version } => {
                if version != VERSION {
                    telemetry::counter(names::FLUXD_PROTOCOL_ERRORS, 1);
                    let skew = ProtocolError::VersionSkew {
                        theirs: version,
                        ours: VERSION,
                    };
                    self.respond(
                        conn,
                        &Response::Error {
                            code: ErrorCode::VersionSkew,
                            detail: skew.to_string(),
                        },
                    );
                    self.send_now(conn);
                    self.conns.remove(&conn);
                    return;
                }
                let credits = self.credits0;
                if let Some(c) = self.conns.get_mut(&conn) {
                    c.helloed = true;
                    c.credits = credits;
                }
                self.respond(
                    conn,
                    &Response::Welcome {
                        version: VERSION,
                        credits,
                    },
                );
                self.finish_request(conn, t_recv);
            }
            Request::OpenSession(spec) => {
                let response = match self.open_session(&spec) {
                    Ok(id) => Response::SessionOpened { session: id },
                    Err(e) => engine_error_response(&e),
                };
                self.respond(conn, &response);
                self.finish_request(conn, t_recv);
            }
            Request::SubmitRounds { session, rounds } => {
                self.handle_submit(conn, t_recv, session, rounds);
            }
            Request::Query { session, user } => {
                // Queries answer as of everything submitted so far.
                self.flush_drain();
                let response = match self.estimate(session, user) {
                    Ok((x, y)) => Response::Position {
                        session,
                        user,
                        x,
                        y,
                    },
                    Err(e) => engine_error_response(&e),
                };
                self.respond(conn, &response);
                self.finish_request(conn, t_recv);
            }
            Request::Suspend { session, user } => {
                self.flush_drain();
                let response = match self.lifecycle(session, user, true) {
                    Ok(()) => Response::Lifecycled { session, user },
                    Err(e) => engine_error_response(&e),
                };
                self.respond(conn, &response);
                self.finish_request(conn, t_recv);
            }
            Request::Resume { session, user } => {
                self.flush_drain();
                let response = match self.lifecycle(session, user, false) {
                    Ok(()) => Response::Lifecycled { session, user },
                    Err(e) => engine_error_response(&e),
                };
                self.respond(conn, &response);
                self.finish_request(conn, t_recv);
            }
            Request::Checkpoint { session } => {
                self.flush_drain();
                let response = match self.checkpoint(session) {
                    Ok(json) => Response::CheckpointData { session, json },
                    Err(e) => engine_error_response(&e),
                };
                self.respond(conn, &response);
                self.finish_request(conn, t_recv);
            }
            Request::Goodbye => {
                self.respond(conn, &Response::Bye);
                self.finish_request(conn, t_recv);
            }
        }
    }

    fn open_session(&mut self, spec: &SessionSpec) -> Result<u32, EngineError> {
        let config = SessionConfig {
            users: spec.users as usize,
            smc: fluxprint_smc::SmcConfig {
                n_predictions: spec.n_predictions as usize,
                keep_m: spec.keep_m as usize,
                ..Default::default()
            },
            start_time: spec.start_time,
            warm: spec.warm,
        };
        let id = self.grid.open_session(&config, spec.seed)?;
        Ok(id.index() as u32)
    }

    /// A user's estimate; a hibernated session is read as it lies and
    /// stays cold.
    fn estimate(&self, session: u32, user: u32) -> Result<(f64, f64), EngineError> {
        let point = self
            .grid
            .session(SessionId(session as usize))?
            .estimate(user as usize)?;
        Ok((point.x, point.y))
    }

    fn lifecycle(&mut self, session: u32, user: u32, suspend: bool) -> Result<(), EngineError> {
        let live = self.grid.session_mut(SessionId(session as usize))?;
        if suspend {
            live.suspend(user as usize)
        } else {
            live.resume(user as usize)
        }
    }

    /// The session's checkpoint document; a hibernated session stays
    /// cold.
    fn checkpoint(&self, session: u32) -> Result<String, EngineError> {
        self.grid
            .session_checkpoint(SessionId(session as usize))?
            .to_json()
    }

    fn handle_submit(
        &mut self,
        conn: u64,
        t_recv: u64,
        session: u32,
        rounds: Vec<fluxprint_engine::ObservationRound>,
    ) {
        let n = rounds.len() as u32;
        if n == 0 {
            return;
        }
        let credits = self.conns.get(&conn).map(|c| c.credits).unwrap_or(0);
        if n > credits {
            telemetry::counter(names::FLUXD_PROTOCOL_ERRORS, 1);
            self.respond(
                conn,
                &Response::Error {
                    code: ErrorCode::CreditOverrun,
                    detail: format!("submitted {n} rounds against {credits} credits"),
                },
            );
            self.send_now(conn);
            self.conns.remove(&conn);
            return;
        }
        if self.poisoned.contains(&session) {
            self.respond(
                conn,
                &Response::Error {
                    code: ErrorCode::Engine,
                    detail: "session failed a previous ingest".to_string(),
                },
            );
            self.send_now(conn);
            return;
        }
        // Validate every round before queuing any, so a malformed batch
        // is refused whole instead of failing mid-drain.
        for round in &rounds {
            if let Err(e) = round.validate() {
                self.respond(
                    conn,
                    &Response::Error {
                        code: ErrorCode::Engine,
                        detail: e.to_string(),
                    },
                );
                self.send_now(conn);
                return;
            }
        }
        if let Some(c) = self.conns.get_mut(&conn) {
            c.credits -= n;
        }
        telemetry::counter(names::FLUXD_ROUNDS_SERVED, u64::from(n));
        let id = SessionId(session as usize);
        let mut queued_run: u32 = 0;
        for mut round in rounds {
            loop {
                match self.grid.submit(id, round) {
                    Ok(Submit::Queued) => {
                        queued_run += 1;
                        break;
                    }
                    Ok(Submit::Backpressure(returned)) => {
                        // The shard queue is full: ack what this frame
                        // queued so far, pay the barrier, retry.
                        telemetry::counter(names::FLUXD_BACKPRESSURE_STALLS, 1);
                        if queued_run > 0 {
                            self.pending.push(PendingAck {
                                conn,
                                session,
                                count: queued_run,
                                t_recv,
                            });
                            queued_run = 0;
                        }
                        self.flush_drain();
                        round = returned;
                    }
                    Err(e) => {
                        // Unknown session: refund the rounds not yet
                        // queued and report.
                        if let Some(c) = self.conns.get_mut(&conn) {
                            c.credits += n - queued_run;
                        }
                        self.respond(conn, &engine_error_response(&e));
                        self.send_now(conn);
                        return;
                    }
                }
            }
        }
        if queued_run > 0 {
            self.pending.push(PendingAck {
                conn,
                session,
                count: queued_run,
                t_recv,
            });
        }
    }

    /// The barrier: drain every queued round, then distribute outcomes
    /// and credits back to the submitting connections, one coalesced
    /// write per connection.
    fn flush_drain(&mut self) {
        if self.pending.is_empty() && self.grid.queued_total() == 0 {
            return;
        }
        loop {
            match self.grid.drain() {
                Ok(_) => break,
                Err(EngineError::SessionFailed { session, .. }) => {
                    let failed = session as u32;
                    if !self.poisoned.contains(&failed) {
                        self.poisoned.push(failed);
                    }
                    // Return the dropped rounds' credits (an empty ack)
                    // and a typed error to the submitting connection.
                    let mut dropped: Vec<PendingAck> = Vec::new();
                    let mut keep: Vec<PendingAck> = Vec::new();
                    for ack in self.pending.drain(..) {
                        if ack.session == failed {
                            dropped.push(ack);
                        } else {
                            keep.push(ack);
                        }
                    }
                    self.pending = keep;
                    for ack in dropped {
                        if let Some(c) = self.conns.get_mut(&ack.conn) {
                            c.credits += ack.count;
                        }
                        self.respond(
                            ack.conn,
                            &Response::RoundsAck {
                                session: failed,
                                credits: ack.count,
                                outcomes: Vec::new(),
                            },
                        );
                        self.respond(
                            ack.conn,
                            &Response::Error {
                                code: ErrorCode::Engine,
                                detail: "ingest failed; session poisoned".to_string(),
                            },
                        );
                    }
                    drop(self.grid.take_outcomes(SessionId(session)));
                    // Other sessions' queues survive the failure; keep
                    // draining them. The failing round was consumed, so
                    // this loop always makes progress.
                }
                Err(_) => break,
            }
        }
        let now = telemetry::clock_ns();
        let mut taken: BTreeMap<u32, (Vec<StepOutcome>, usize)> = BTreeMap::new();
        for ack in std::mem::take(&mut self.pending) {
            let (outcomes, cursor) = match taken.entry(ack.session) {
                std::collections::btree_map::Entry::Occupied(entry) => entry.into_mut(),
                std::collections::btree_map::Entry::Vacant(entry) => {
                    let outcomes = self
                        .grid
                        .take_outcomes(SessionId(ack.session as usize))
                        .unwrap_or_default();
                    entry.insert((outcomes, 0))
                }
            };
            let take = (ack.count as usize).min(outcomes.len() - *cursor);
            let slice = &outcomes[*cursor..*cursor + take];
            *cursor += take;
            let wire: Vec<WireOutcome> = slice
                .iter()
                .map(|o| WireOutcome {
                    time: o.time,
                    residual: o.residual,
                    estimates: o.estimates.iter().map(|p| (p.x, p.y)).collect(),
                    active: o.active.clone(),
                })
                .collect();
            if let Some(c) = self.conns.get_mut(&ack.conn) {
                c.credits += ack.count;
            }
            telemetry::record(
                names::HIST_FLUXD_FRAME_LATENCY,
                (now.saturating_sub(ack.t_recv)) as f64 / 1e6,
            );
            self.respond(
                ack.conn,
                &Response::RoundsAck {
                    session: ack.session,
                    credits: ack.count,
                    outcomes: wire,
                },
            );
        }
        // Poisoned sessions may still produce orphan outcomes from
        // rounds queued before the failure; keep memory bounded.
        for session in &self.poisoned {
            drop(self.grid.take_outcomes(SessionId(*session as usize)));
        }
        let conns: Vec<u64> = self.conns.keys().copied().collect();
        for conn in conns {
            self.send_now(conn);
        }
        self.prune();
    }

    /// Encodes one response into the connection's staging buffer.
    fn respond(&mut self, conn: u64, response: &Response) {
        let Some(c) = self.conns.get_mut(&conn) else {
            return;
        };
        match response.encode_into(&mut c.out) {
            Ok(()) => telemetry::counter(names::FLUXD_FRAMES_OUT, 1),
            Err(oversized) => {
                // The response itself cannot fit one frame (a huge
                // checkpoint): degrade to a typed error frame.
                let fallback = Response::Error {
                    code: ErrorCode::Oversized,
                    detail: oversized.to_string(),
                };
                if fallback.encode_into(&mut c.out).is_ok() {
                    telemetry::counter(names::FLUXD_FRAMES_OUT, 1);
                }
            }
        }
    }

    /// Flushes the staging buffer to the writer thread without ever
    /// blocking the core: a connection that cannot take its responses
    /// (ignored credits *and* stopped reading) is marked dead.
    fn send_now(&mut self, conn: u64) {
        let Some(c) = self.conns.get_mut(&conn) else {
            return;
        };
        if c.out.is_empty() {
            return;
        }
        let batch = std::mem::take(&mut c.out);
        match c.writer.try_send(batch) {
            Ok(()) => {}
            Err(TrySendError::Full(_)) | Err(TrySendError::Disconnected(_)) => {
                c.dead = true;
            }
        }
    }

    /// Records the service latency of an immediately-answered request
    /// and flushes its response.
    fn finish_request(&mut self, conn: u64, t_recv: u64) {
        let now = telemetry::clock_ns();
        telemetry::record(
            names::HIST_FLUXD_FRAME_LATENCY,
            (now.saturating_sub(t_recv)) as f64 / 1e6,
        );
        self.send_now(conn);
    }

    fn prune(&mut self) {
        self.conns.retain(|_, c| !c.dead);
    }
}

fn engine_error_response(error: &EngineError) -> Response {
    let code = match error {
        EngineError::UnknownSession { .. } => ErrorCode::UnknownSession,
        _ => ErrorCode::Engine,
    };
    Response::Error {
        code,
        detail: error.to_string(),
    }
}
