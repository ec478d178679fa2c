//! `serve-open`: an open-loop load generator against a loopback fluxd.
//!
//! Each generator thread owns one connection and half the sessions.
//! Every session's rounds fall due once per period, staggered across it,
//! whether or not earlier acks have come back; a round is timed from when
//! it was due, so a stall shows up in every round queued behind it. The
//! generator writes raw `SubmitRounds` frames and polls its non-blocking
//! socket for acks between due times — the blocking `Client` reads acks
//! only when it runs out of credits and would misdate them.

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use fluxprint_engine::{Engine, ObservationRound};
use fluxprint_fluxd::protocol::{encode_submit_into, frame_body_len, HEADER_LEN};
use fluxprint_fluxd::{server, Request, Response, ServerConfig, ServerHandle, SessionSpec};
use fluxprint_fluxd::{WireOutcome, VERSION};
use fluxprint_fluxmodel::FluxModel;
use fluxprint_geometry::Point2;

use crate::check::round_error;
use crate::inproc::ms;
use crate::inputs::Inputs;
use crate::trace::Tracer;
use crate::workload::{Spec, LOADGEN_THREADS, SERVE_PERIOD};

/// Span names the traced run records on each generator thread.
pub const SPAN_SEND: &str = "loadgen.send";
/// See [`SPAN_SEND`].
pub const SPAN_READ: &str = "loadgen.read";

/// How long the generator waits for the last acks after the last round
/// fell due before counting the rest as lost.
const ACK_GRACE: Duration = Duration::from_secs(10);
/// Longest sleep between polls of the socket for acks. Socket read
/// timeouts are kernel-tick granular (8 ms on the baseline host), far
/// coarser than the 125 µs between due rounds, so the generator polls a
/// non-blocking socket and sleeps to the next due time or this bound,
/// whichever is sooner; acks are timed to within about a poll.
const POLL: Duration = Duration::from_micros(100);
/// Session opens in flight per connection during set-up.
const OPEN_WINDOW: usize = 16;

/// One generator connection after its handshake.
#[derive(Debug)]
pub struct Conn {
    stream: TcpStream,
    credits: u32,
    /// `(global session index, wire session id)` of this connection's
    /// sessions, in due order within a period.
    pub sessions: Vec<(usize, u32)>,
}

/// A running daemon with its generator connections.
pub struct Daemon {
    server: ServerHandle,
    /// One connection per generator thread.
    pub conns: Vec<Conn>,
}

/// Spawns the daemon, connects the generator and opens every session:
/// session `g` lives on connection `g % LOADGEN_THREADS`.
///
/// # Errors
///
/// Spawn, connect or handshake failures, as text.
pub fn setup(spec: &Spec, inputs: &Inputs, seed: u64) -> Result<Daemon, String> {
    let engine = Engine::for_network(&inputs.network, FluxModel::default())
        .map_err(|e| format!("engine: {e}"))?;
    let config = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        grid: spec.grid_config(),
        credits: 0,
        drain_threshold: 0,
    };
    let server = server::spawn(engine, &config).map_err(|e| format!("fluxd spawn: {e}"))?;
    let mut daemon = Daemon {
        server,
        conns: Vec::new(),
    };
    let addr = daemon.server.addr();
    for j in 0..LOADGEN_THREADS {
        let globals: Vec<usize> = (j..spec.sessions).step_by(LOADGEN_THREADS).collect();
        let conn = connect(addr, spec, seed, &globals)?;
        daemon.conns.push(conn);
    }
    Ok(daemon)
}

/// Connects, says hello and opens `globals`' sessions, pipelined.
///
/// # Errors
///
/// Transport failures and refusals, as text.
pub fn connect(
    addr: SocketAddr,
    spec: &Spec,
    seed: u64,
    globals: &[usize],
) -> Result<Conn, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream
        .set_nodelay(true)
        .map_err(|e| format!("nodelay: {e}"))?;
    let mut buf = Vec::new();
    encode(&mut buf, &Request::Hello { version: VERSION })?;
    stream.write_all(&buf).map_err(|e| format!("hello: {e}"))?;
    let credits = match read_frame(&mut stream)? {
        Response::Welcome { credits, .. } => credits,
        other => return Err(format!("expected welcome, got {other:?}")),
    };
    let mut sessions = Vec::with_capacity(globals.len());
    // fluxd drops a connection whose unread responses outgrow its writer
    // queue, so opens are pipelined a window at a time.
    for window in globals.chunks(OPEN_WINDOW) {
        buf.clear();
        for &g in window {
            let open = Request::OpenSession(SessionSpec {
                seed: spec.session_seed(seed, g),
                users: spec.users as u32,
                n_predictions: spec.n as u32,
                keep_m: spec.m as u32,
                warm: spec.warm,
                start_time: 0.0,
            });
            encode(&mut buf, &open)?;
        }
        stream.write_all(&buf).map_err(|e| format!("open: {e}"))?;
        for &g in window {
            match read_frame(&mut stream)? {
                Response::SessionOpened { session } => sessions.push((g, session)),
                other => return Err(format!("expected session id, got {other:?}")),
            }
        }
    }
    Ok(Conn {
        stream,
        credits,
        sessions,
    })
}

fn encode(buf: &mut Vec<u8>, request: &Request) -> Result<(), String> {
    request.encode_into(buf).map_err(|e| format!("encode: {e}"))
}

/// Blocking read of one response frame.
fn read_frame(stream: &mut TcpStream) -> Result<Response, String> {
    let mut prefix = [0u8; HEADER_LEN];
    stream
        .read_exact(&mut prefix)
        .map_err(|e| format!("read: {e}"))?;
    let len = frame_body_len(prefix).map_err(|e| format!("frame: {e}"))?;
    let mut body = vec![0u8; len];
    stream
        .read_exact(&mut body)
        .map_err(|e| format!("read: {e}"))?;
    Response::decode(&body).map_err(|e| format!("decode: {e}"))
}

impl Daemon {
    /// Says goodbye on every connection and stops the daemon.
    ///
    /// # Errors
    ///
    /// A connection that does not close cleanly, or a daemon thread that
    /// panicked.
    pub fn shutdown(self) -> Result<(), String> {
        let mut result = Ok(());
        for conn in self.conns {
            if let Err(e) = goodbye(conn) {
                result = result.and(Err(e));
            }
        }
        self.server
            .shutdown()
            .map_err(|e| format!("fluxd shutdown: {e}"))?;
        result
    }
}

fn goodbye(mut conn: Conn) -> Result<(), String> {
    conn.stream
        .set_read_timeout(Some(ACK_GRACE))
        .map_err(|e| format!("timeout: {e}"))?;
    let mut buf = Vec::new();
    encode(&mut buf, &Request::Goodbye)?;
    conn.stream
        .write_all(&buf)
        .map_err(|e| format!("goodbye: {e}"))?;
    loop {
        match read_frame(&mut conn.stream)? {
            Response::Bye => break,
            Response::Error { code, detail } => {
                return Err(format!("at goodbye: {code}: {detail}"))
            }
            _ => {}
        }
    }
    drop(conn.stream.shutdown(Shutdown::Both));
    Ok(())
}

/// What one open-loop run observed across all connections.
#[derive(Debug, Default)]
pub struct Run {
    /// Rounds that fell due.
    pub offered: u64,
    /// Rounds acked with an outcome.
    pub acked: u64,
    /// Error frames plus rounds never acked.
    pub failed: u64,
    /// From the start of period 0 to the last ack.
    pub wall_s: f64,
    /// Per acked round, with its period: ack read minus due time, ms;
    /// sorted by period.
    pub latencies: Vec<(u32, f64)>,
    /// Per written round: write minus due time.
    pub lateness_ms: Vec<f64>,
    /// Times a due round found its connection's credit window empty.
    pub credit_waits: u64,
    /// Acks per socket read that returned data.
    pub acks_per_read: f64,
    /// Sum of per-round mean estimate errors, and their count.
    pub error_sum: f64,
    /// See [`error_sum`](Run::error_sum).
    pub error_rounds: u64,
    /// Served outcomes of the sampled sessions, in sample order.
    pub sampled: Vec<(usize, Vec<WireOutcome>)>,
}

/// Runs `periods` periods of the open loop over the daemon's
/// connections, one generator thread each, keeping the served outcomes
/// of the `sample` sessions (round counts are ignored). With tracers (one
/// per connection, sharing an epoch), every write and read is a span.
///
/// # Errors
///
/// Transport failures on any connection, as text.
pub fn run(
    spec: &Spec,
    inputs: &Inputs,
    daemon: &mut Daemon,
    periods: usize,
    sample: &[(usize, usize)],
    tracers: Option<&mut [Tracer]>,
) -> Result<Run, String> {
    let schedule = Schedule {
        t0: Instant::now() + Duration::from_millis(20),
        period: SERVE_PERIOD,
        periods,
        sessions: spec.sessions,
    };
    let mut tracers: Vec<Option<&mut Tracer>> = match tracers {
        Some(ts) => ts.iter_mut().map(Some).collect(),
        None => daemon.conns.iter().map(|_| None).collect(),
    };
    let per_conn = std::thread::scope(|scope| {
        let handles: Vec<_> = daemon
            .conns
            .iter_mut()
            .zip(tracers.iter_mut())
            .map(|(conn, tracer)| {
                let schedule = &schedule;
                scope.spawn(move || {
                    let mut error = (0.0, 0u64);
                    let mut sampled: Vec<(usize, Vec<WireOutcome>)> =
                        sample.iter().map(|&(g, _)| (g, Vec::new())).collect();
                    let run = drive(
                        conn,
                        schedule,
                        |g, k| &inputs.trace(g).rounds[k],
                        |g, k, outcome| {
                            let truth = &inputs.trace(g).truths[k];
                            let estimates: Vec<Point2> = outcome
                                .estimates
                                .iter()
                                .map(|&(x, y)| Point2::new(x, y))
                                .collect();
                            error.0 += round_error(&estimates, truth);
                            error.1 += 1;
                            if let Some(slot) = sampled.iter_mut().find(|(s, _)| *s == g) {
                                slot.1.push(outcome);
                            }
                        },
                        tracer.as_deref_mut(),
                    );
                    run.map(|run| (run, error, sampled))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .map_err(|_| "generator thread panicked".to_string())?
            })
            .collect::<Result<Vec<_>, String>>()
    })?;
    let mut out = Run {
        sampled: sample.iter().map(|&(g, _)| (g, Vec::new())).collect(),
        ..Run::default()
    };
    let (mut reads, mut last_ack) = (0u64, schedule.t0);
    for (conn, (error_sum, error_rounds), sampled) in per_conn {
        out.offered += conn.offered;
        out.acked += conn.acked;
        out.failed += conn.errors + conn.unacked;
        out.latencies.extend(conn.latencies);
        out.lateness_ms.extend(conn.lateness_ms);
        out.credit_waits += conn.credit_waits;
        out.error_sum += error_sum;
        out.error_rounds += error_rounds;
        reads += conn.reads;
        last_ack = last_ack.max(conn.last_ack.unwrap_or(schedule.t0));
        for (slot, (_, outcomes)) in out.sampled.iter_mut().zip(sampled) {
            slot.1.extend(outcomes);
        }
    }
    out.latencies.sort_by_key(|&(k, _)| k);
    out.wall_s = (last_ack - schedule.t0).as_secs_f64();
    out.acks_per_read = out.acked as f64 / reads.max(1) as f64;
    Ok(out)
}

/// The open-loop schedule of one connection.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    /// When period 0 starts.
    pub t0: Instant,
    /// Each session's round period.
    pub period: Duration,
    /// Periods to run.
    pub periods: usize,
    /// Sessions across all connections (the stagger's denominator).
    pub sessions: usize,
}

impl Schedule {
    /// When global session `g`'s round `k` falls due.
    pub fn due(&self, g: usize, k: usize) -> Instant {
        self.t0
            + self
                .period
                .mul_f64(k as f64 + g as f64 / self.sessions as f64)
    }
}

/// What one connection observed.
#[derive(Debug, Default)]
pub struct ConnRun {
    /// Rounds that fell due.
    pub offered: u64,
    /// Rounds acked with an outcome.
    pub acked: u64,
    /// Error frames received.
    pub errors: u64,
    /// Per acked round, with its period: ack read minus due time, ms.
    pub latencies: Vec<(u32, f64)>,
    /// Per written round: write minus due time.
    pub lateness_ms: Vec<f64>,
    /// Times a due round found the credit window empty.
    pub credit_waits: u64,
    /// Socket reads that returned data.
    pub reads: u64,
    /// When the last ack arrived.
    pub last_ack: Option<Instant>,
    /// Rounds that fell due but were never acked.
    pub unacked: u64,
}

/// Drives one connection through `schedule`. `round(g, k)` is the round
/// session `g` sends in period `k`; `sink(g, k, outcome)` receives every
/// served outcome in ack order.
///
/// # Errors
///
/// Transport failures, as text. Refusals are counted, not returned.
pub fn drive<'a>(
    conn: &mut Conn,
    schedule: &Schedule,
    round: impl Fn(usize, usize) -> &'a ObservationRound,
    mut sink: impl FnMut(usize, usize, WireOutcome),
    mut tracer: Option<&mut Tracer>,
) -> Result<ConnRun, String> {
    let mut out = ConnRun::default();
    let local_of = |wire: u32| conn.sessions.iter().position(|&(_, w)| w == wire);
    let per_period = conn.sessions.len();
    let total = per_period * schedule.periods;
    let mut fifo: Vec<VecDeque<(usize, Instant)>> = vec![VecDeque::new(); per_period];
    let mut outstanding = 0usize;
    let mut credits = conn.credits;
    let mut waiting_for_credit = false;
    let mut next = 0usize;
    let mut wbuf = Vec::new();
    let mut rbuf: Vec<u8> = Vec::new();
    let mut chunk = vec![0u8; 64 * 1024];
    let due_of = |e: usize| schedule.due(conn.sessions[e % per_period].0, e / per_period);
    let last_due = if total > 0 {
        due_of(total - 1)
    } else {
        schedule.t0
    };
    conn.stream
        .set_nonblocking(true)
        .map_err(|e| format!("nonblocking: {e}"))?;
    loop {
        let now = Instant::now();
        wbuf.clear();
        let mut first_sent = None;
        while next < total && due_of(next) <= now {
            if credits == 0 {
                if !waiting_for_credit {
                    waiting_for_credit = true;
                    out.credit_waits += 1;
                }
                break;
            }
            waiting_for_credit = false;
            let (local, k) = (next % per_period, next / per_period);
            let (g, wire) = conn.sessions[local];
            encode_submit_into(&mut wbuf, wire, std::slice::from_ref(round(g, k)))
                .map_err(|e| format!("encode: {e}"))?;
            let due = due_of(next);
            fifo[local].push_back((k, due));
            out.lateness_ms.push(ms(now - due));
            first_sent.get_or_insert((g, k));
            credits -= 1;
            outstanding += 1;
            next += 1;
        }
        if !wbuf.is_empty() {
            let span = tracer.as_deref_mut().map(|t| {
                let (g, k) = first_sent.unwrap_or_default();
                t.begin(SPAN_SEND, None, Some(g as u32), Some(k as u32))
            });
            write_all_nonblocking(&mut conn.stream, &wbuf)?;
            if let (Some(t), Some(span)) = (tracer.as_deref_mut(), span) {
                t.end(span);
            }
        }
        if next >= total && outstanding == 0 {
            break;
        }
        let now = Instant::now();
        if now >= last_due + ACK_GRACE {
            break;
        }
        let n = match conn.stream.read(&mut chunk) {
            Ok(0) => return Err("daemon closed the connection".to_string()),
            Ok(n) => n,
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                let until = if next < total && credits > 0 {
                    due_of(next).min(now + POLL)
                } else {
                    now + POLL
                };
                std::thread::sleep(until.saturating_duration_since(now));
                continue;
            }
            Err(e) => return Err(format!("read: {e}")),
        };
        let acked_at = Instant::now();
        let span = tracer
            .as_deref_mut()
            .map(|t| t.begin(SPAN_READ, None, None, None));
        out.reads += 1;
        rbuf.extend_from_slice(&chunk[..n]);
        let mut at = 0;
        while rbuf.len() - at >= HEADER_LEN {
            let mut prefix = [0u8; HEADER_LEN];
            prefix.copy_from_slice(&rbuf[at..at + HEADER_LEN]);
            let len = frame_body_len(prefix).map_err(|e| format!("frame: {e}"))?;
            if rbuf.len() - at - HEADER_LEN < len {
                break;
            }
            let body = &rbuf[at + HEADER_LEN..at + HEADER_LEN + len];
            at += HEADER_LEN + len;
            match Response::decode(body).map_err(|e| format!("decode: {e}"))? {
                Response::RoundsAck {
                    session,
                    credits: returned,
                    outcomes,
                } => {
                    credits += returned;
                    let local = local_of(session).ok_or("ack for a foreign session")?;
                    let g = conn.sessions[local].0;
                    for outcome in outcomes {
                        let (k, due) = fifo[local].pop_front().ok_or("ack without a round")?;
                        outstanding -= 1;
                        out.acked += 1;
                        out.latencies.push((k as u32, ms(acked_at - due)));
                        out.last_ack = Some(acked_at);
                        sink(g, k, outcome);
                    }
                }
                Response::Error { .. } => out.errors += 1,
                _ => {}
            }
        }
        rbuf.drain(..at);
        if let (Some(t), Some(span)) = (tracer.as_deref_mut(), span) {
            t.end(span);
        }
    }
    conn.stream
        .set_nonblocking(false)
        .map_err(|e| format!("blocking: {e}"))?;
    out.offered = total as u64;
    out.unacked = out.offered - out.acked;
    conn.credits = credits;
    Ok(out)
}

/// `write_all` for a non-blocking socket: a full send buffer is waited
/// out a poll at a time rather than reported.
fn write_all_nonblocking(stream: &mut TcpStream, mut buf: &[u8]) -> Result<(), String> {
    while !buf.is_empty() {
        match stream.write(buf) {
            Ok(0) => return Err("daemon closed the connection".to_string()),
            Ok(n) => buf = &buf[n..],
            Err(e) if e.kind() == ErrorKind::WouldBlock => std::thread::sleep(POLL),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(format!("send: {e}")),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use std::net::TcpListener;
    use std::sync::mpsc;

    use fluxprint_netsim::NodeId;

    use super::*;
    use crate::workload::Workload;

    /// How long the scripted daemon holds its first ack.
    const DELAY: Duration = Duration::from_millis(60);

    fn read_request(stream: &mut TcpStream) -> Option<Request> {
        let mut prefix = [0u8; HEADER_LEN];
        stream.read_exact(&mut prefix).ok()?;
        let mut body = vec![0u8; frame_body_len(prefix).ok()?];
        stream.read_exact(&mut body).ok()?;
        Request::decode(&body).ok()
    }

    fn respond(stream: &mut TcpStream, response: &Response) {
        let mut buf = Vec::new();
        response.encode_into(&mut buf).expect("response encodes");
        stream.write_all(&buf).expect("response writes");
    }

    /// A scripted daemon: a two-credit window, acks in submission order,
    /// the first one held for [`DELAY`]. Reports when it let go.
    fn scripted_daemon(listener: TcpListener, released: mpsc::Sender<Instant>) {
        let (mut stream, _) = listener.accept().expect("generator connects");
        let mut opened = 0;
        let mut acks = 0;
        while let Some(request) = read_request(&mut stream) {
            match request {
                Request::Hello { .. } => respond(
                    &mut stream,
                    &Response::Welcome {
                        version: VERSION,
                        credits: 2,
                    },
                ),
                Request::OpenSession(_) => {
                    respond(&mut stream, &Response::SessionOpened { session: opened });
                    opened += 1;
                }
                Request::SubmitRounds { session, rounds } => {
                    if acks == 0 {
                        std::thread::sleep(DELAY);
                        released.send(Instant::now()).expect("test listens");
                    }
                    acks += 1;
                    let outcomes = rounds
                        .iter()
                        .map(|r| WireOutcome {
                            time: r.time,
                            residual: 0.0,
                            estimates: vec![(1.0, 2.0)],
                            active: vec![true],
                        })
                        .collect();
                    respond(
                        &mut stream,
                        &Response::RoundsAck {
                            session,
                            credits: rounds.len() as u32,
                            outcomes,
                        },
                    );
                }
                Request::Goodbye => {
                    respond(&mut stream, &Response::Bye);
                    return;
                }
                _ => {}
            }
        }
    }

    #[test]
    fn a_delayed_ack_raises_the_latency_of_every_round_queued_behind_it() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("binds");
        let addr = listener.local_addr().expect("has an address");
        let (tx, rx) = mpsc::channel();
        let daemon = std::thread::spawn(move || scripted_daemon(listener, tx));

        let spec = Workload::ServeOpen.spec();
        let mut conn = connect(addr, &spec, 0, &[0, 1, 2, 3]).expect("handshake");
        let schedule = Schedule {
            t0: Instant::now() + Duration::from_millis(10),
            period: Duration::from_millis(8),
            periods: 12,
            sessions: 4,
        };
        let rounds: Vec<ObservationRound> = (0..schedule.periods)
            .map(|k| ObservationRound {
                time: k as f64 + 1.0,
                ids: vec![NodeId::new(0)],
                fluxes: vec![1.0],
            })
            .collect();
        let mut acked = Vec::new();
        let run = drive(
            &mut conn,
            &schedule,
            |_, k| &rounds[k],
            |g, k, _| acked.push((g, k)),
            None,
        )
        .expect("the loop runs");
        let released = rx.recv().expect("the daemon let go");
        goodbye(conn).expect("goodbye");
        daemon.join().expect("daemon thread");

        assert_eq!((run.offered, run.acked, run.unacked), (48, 48, 0));
        assert!(
            run.credit_waits > 0,
            "the stall must hold rounds at the generator"
        );
        let mut behind = 0;
        for (&(g, k), &(key, latency_ms)) in acked.iter().zip(&run.latencies) {
            assert_eq!(key as usize, k);
            let due = schedule.due(g, k);
            if due < released {
                behind += 1;
                let floor = released.duration_since(due).as_secs_f64() * 1e3;
                assert!(
                    latency_ms >= floor,
                    "round ({g},{k}) due {floor} ms before the release reports {latency_ms} ms"
                );
            }
        }
        // Rounds fall due every 2 ms, so the 60 ms hold queues ~30 behind it.
        assert!(behind >= 20, "only {behind} rounds queued behind the delay");
    }
}
