//! A blocking fluxd client with credit-window bookkeeping.
//!
//! [`Client::submit`] enforces the protocol's flow control on the
//! sending side: it splits a batch into frames no larger than the credit
//! window, and when the window is exhausted it blocks reading acks —
//! stalling *itself*, exactly as the protocol intends — and accounts the
//! stalled time so load generators can report it. Served
//! outcomes accumulate per session ([`Client::take_outcomes`]) and
//! per-ack service latencies are logged for tail-latency reporting.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream, ToSocketAddrs};

use fluxprint_netsim::ObservationRound;
use fluxprint_telemetry as telemetry;

use crate::error::FluxdError;
use crate::protocol::{
    frame_body_len, Request, Response, SessionSpec, WireOutcome, HEADER_LEN, VERSION,
};

/// One in-flight submit segment awaiting its ack.
#[derive(Debug, Clone, Copy)]
struct InFlight {
    t_sent: u64,
    remaining: u32,
}

/// A synchronous protocol client over one TCP connection.
pub struct Client {
    stream: TcpStream,
    rbuf: Vec<u8>,
    wbuf: Vec<u8>,
    window: u32,
    credits: u32,
    outstanding: u64,
    in_flight: BTreeMap<u32, Vec<InFlight>>,
    outcomes: BTreeMap<u32, Vec<WireOutcome>>,
    latencies_ns: Vec<u64>,
    stall_ns: u64,
}

impl Client {
    /// Connects and performs the version handshake.
    ///
    /// # Errors
    ///
    /// [`FluxdError::Io`] on connect failure, [`FluxdError::Remote`]
    /// when the server refuses the handshake (e.g. version skew),
    /// [`FluxdError::BadConfig`] (`credits`) when it grants no credit
    /// window.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> Result<Client, FluxdError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let mut client = Client {
            stream,
            rbuf: Vec::new(),
            wbuf: Vec::new(),
            window: 0,
            credits: 0,
            outstanding: 0,
            in_flight: BTreeMap::new(),
            outcomes: BTreeMap::new(),
            latencies_ns: Vec::new(),
            stall_ns: 0,
        };
        client.send(&Request::Hello { version: VERSION })?;
        match client.next_response()? {
            Response::Welcome { credits, .. } if credits > 0 => {
                client.window = credits;
                client.credits = credits;
                Ok(client)
            }
            Response::Welcome { .. } => Err(FluxdError::BadConfig { field: "credits" }),
            Response::Error { code, detail } => Err(FluxdError::Remote { code, detail }),
            _ => Err(FluxdError::Unexpected { what: "welcome" }),
        }
    }

    /// The connection's current credit balance.
    pub fn credits(&self) -> u32 {
        self.credits
    }

    /// Rounds submitted but not yet acked.
    pub fn outstanding(&self) -> u64 {
        self.outstanding
    }

    /// Nanoseconds spent blocked waiting for credits in [`submit`](Client::submit).
    pub fn stall_ns(&self) -> u64 {
        self.stall_ns
    }

    /// Per-ack service latencies (submit write → ack read), nanoseconds.
    pub fn latencies_ns(&self) -> &[u64] {
        &self.latencies_ns
    }

    /// Opens a session on the server.
    ///
    /// # Errors
    ///
    /// [`FluxdError::Remote`] when the server refuses the spec.
    pub fn open_session(&mut self, spec: &SessionSpec) -> Result<u32, FluxdError> {
        self.send(&Request::OpenSession(spec.clone()))?;
        loop {
            match self.next_response()? {
                Response::SessionOpened { session } => return Ok(session),
                Response::RoundsAck { .. } => {}
                Response::Error { code, detail } => {
                    return Err(FluxdError::Remote { code, detail })
                }
                _ => return Err(FluxdError::Unexpected { what: "session id" }),
            }
        }
    }

    /// Submits a batch of rounds as consecutive frames of at most the
    /// connection's credit window (the credits granted at `Welcome`).
    /// Before each frame it blocks, accounting stall time, until enough
    /// acks have returned credits for it. A batch larger than the window
    /// therefore goes out in window-sized frames, never as one frame the
    /// server would refuse.
    ///
    /// # Errors
    ///
    /// [`FluxdError::Remote`] on a server-side refusal,
    /// [`FluxdError::Io`]/[`FluxdError::Closed`] on transport failure.
    pub fn submit(&mut self, session: u32, rounds: &[ObservationRound]) -> Result<(), FluxdError> {
        // `connect` refuses a zero window, so every chunk is non-empty.
        for frame in rounds.chunks(self.window as usize) {
            let need = frame.len() as u32;
            if self.credits < need {
                let t0 = telemetry::clock_ns();
                while self.credits < need {
                    self.pump_one()?;
                }
                self.stall_ns += telemetry::clock_ns().saturating_sub(t0);
            }
            let t_sent = telemetry::clock_ns();
            self.wbuf.clear();
            crate::protocol::encode_submit_into(&mut self.wbuf, session, frame)?;
            self.stream.write_all(&self.wbuf)?;
            self.credits -= need;
            self.outstanding += u64::from(need);
            self.in_flight.entry(session).or_default().push(InFlight {
                t_sent,
                remaining: need,
            });
        }
        Ok(())
    }

    /// Blocks until every submitted round has been acked.
    ///
    /// # Errors
    ///
    /// As [`submit`](Client::submit).
    pub fn wait_acks(&mut self) -> Result<(), FluxdError> {
        while self.outstanding > 0 {
            self.pump_one()?;
        }
        Ok(())
    }

    /// Takes the outcomes served so far for one session, in round order.
    pub fn take_outcomes(&mut self, session: u32) -> Vec<WireOutcome> {
        self.outcomes.remove(&session).unwrap_or_default()
    }

    /// Queries one user's current position estimate.
    ///
    /// # Errors
    ///
    /// [`FluxdError::Remote`] when the server refuses (unknown session
    /// or user).
    pub fn query(&mut self, session: u32, user: u32) -> Result<(f64, f64), FluxdError> {
        self.send(&Request::Query { session, user })?;
        loop {
            match self.next_response()? {
                Response::Position { x, y, .. } => return Ok((x, y)),
                Response::RoundsAck { .. } => {}
                Response::Error { code, detail } => {
                    return Err(FluxdError::Remote { code, detail })
                }
                _ => return Err(FluxdError::Unexpected { what: "position" }),
            }
        }
    }

    /// Suspends a user.
    ///
    /// # Errors
    ///
    /// [`FluxdError::Remote`] on refusal.
    pub fn suspend(&mut self, session: u32, user: u32) -> Result<(), FluxdError> {
        self.send(&Request::Suspend { session, user })?;
        self.wait_lifecycled()
    }

    /// Resumes a suspended user.
    ///
    /// # Errors
    ///
    /// [`FluxdError::Remote`] on refusal.
    pub fn resume(&mut self, session: u32, user: u32) -> Result<(), FluxdError> {
        self.send(&Request::Resume { session, user })?;
        self.wait_lifecycled()
    }

    fn wait_lifecycled(&mut self) -> Result<(), FluxdError> {
        loop {
            match self.next_response()? {
                Response::Lifecycled { .. } => return Ok(()),
                Response::RoundsAck { .. } => {}
                Response::Error { code, detail } => {
                    return Err(FluxdError::Remote { code, detail })
                }
                _ => return Err(FluxdError::Unexpected { what: "lifecycled" }),
            }
        }
    }

    /// Fetches a session's checkpoint document: the JSON that
    /// [`Engine::restore_compact_json`](fluxprint_engine::Engine::restore_compact_json)
    /// revives. A hibernated session is not revived to answer.
    ///
    /// # Errors
    ///
    /// [`FluxdError::Remote`] on refusal (including a checkpoint too
    /// large for one frame).
    pub fn checkpoint(&mut self, session: u32) -> Result<String, FluxdError> {
        self.send(&Request::Checkpoint { session })?;
        loop {
            match self.next_response()? {
                Response::CheckpointData { json, .. } => return Ok(json),
                Response::RoundsAck { .. } => {}
                Response::Error { code, detail } => {
                    return Err(FluxdError::Remote { code, detail })
                }
                _ => return Err(FluxdError::Unexpected { what: "checkpoint" }),
            }
        }
    }

    /// Orderly close: waits for outstanding acks, says goodbye, and
    /// shuts the socket down.
    ///
    /// # Errors
    ///
    /// As [`submit`](Client::submit).
    pub fn goodbye(mut self) -> Result<(), FluxdError> {
        self.wait_acks()?;
        self.send(&Request::Goodbye)?;
        loop {
            match self.next_response()? {
                Response::Bye => break,
                Response::RoundsAck { .. } => {}
                Response::Error { code, detail } => {
                    return Err(FluxdError::Remote { code, detail })
                }
                _ => return Err(FluxdError::Unexpected { what: "bye" }),
            }
        }
        drop(self.stream.shutdown(Shutdown::Both));
        Ok(())
    }

    /// Encodes and writes one request frame.
    fn send(&mut self, request: &Request) -> Result<(), FluxdError> {
        self.wbuf.clear();
        request.encode_into(&mut self.wbuf)?;
        self.stream.write_all(&self.wbuf)?;
        Ok(())
    }

    /// Reads exactly one response frame and applies its bookkeeping.
    fn next_response(&mut self) -> Result<Response, FluxdError> {
        let mut prefix = [0u8; HEADER_LEN];
        self.stream.read_exact(&mut prefix)?;
        let len = frame_body_len(prefix)?;
        self.rbuf.resize(len, 0);
        self.stream.read_exact(&mut self.rbuf)?;
        let response = Response::decode(&self.rbuf)?;
        if let Response::RoundsAck {
            session,
            credits,
            outcomes,
        } = &response
        {
            self.credits += credits;
            self.outstanding = self.outstanding.saturating_sub(u64::from(*credits));
            let now = telemetry::clock_ns();
            let mut acked = *credits;
            if let Some(queue) = self.in_flight.get_mut(session) {
                while acked > 0 {
                    let Some(front) = queue.first_mut() else {
                        break;
                    };
                    let take = front.remaining.min(acked);
                    front.remaining -= take;
                    acked -= take;
                    self.latencies_ns.push(now.saturating_sub(front.t_sent));
                    if front.remaining == 0 {
                        queue.remove(0);
                    }
                }
            }
            self.outcomes
                .entry(*session)
                .or_default()
                .extend(outcomes.iter().cloned());
        }
        Ok(response)
    }

    /// Blocks on one response frame (the credit-stall path).
    fn pump_one(&mut self) -> Result<(), FluxdError> {
        match self.next_response()? {
            Response::Error { code, detail } => Err(FluxdError::Remote { code, detail }),
            _ => Ok(()),
        }
    }
}
