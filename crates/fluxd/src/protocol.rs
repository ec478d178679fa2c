//! The fluxd wire protocol: versioned, length-prefixed binary frames.
//!
//! Every frame is `[u32 LE length][u8 tag][payload]`, where `length`
//! counts the tag byte plus the payload and is capped at
//! [`MAX_FRAME_LEN`] — a reader can reject an absurd length prefix
//! before allocating anything. Payloads are flat little-endian
//! fixed-width fields (the typed flow-record shape: every field at a
//! fixed offset, no self-describing metadata), so the decode hot path
//! is pure pointer arithmetic over a reusable buffer.
//!
//! A connection opens with a [`Request::Hello`] carrying [`MAGIC`] and
//! [`VERSION`]; the server answers [`Response::Welcome`] with the
//! negotiated version and the connection's initial credit window, or a
//! typed [`Response::Error`] (`VersionSkew`, `BadMagic`) and closes.
//! Every malformed input decodes to a [`ProtocolError`] — never a
//! panic — which the abuse-corpus tests drive frame by frame.
//!
//! Flow control: each queued observation round costs one credit;
//! [`Response::RoundsAck`] returns credits after the drain barrier that
//! ingested them, along with the rounds' outcomes. A client that is
//! slow to read acks runs out of credits and stalls *itself*; the
//! server never blocks on a connection.

use fluxprint_netsim::{NodeId, ObservationRound};

/// Handshake magic, first field of every [`Request::Hello`].
pub const MAGIC: [u8; 4] = *b"FLXD";

/// Protocol version spoken by this build.
pub const VERSION: u16 = 1;

/// Hard cap on `length` (tag + payload bytes). A length prefix above
/// this is rejected as [`ProtocolError::Oversized`] before any read.
pub const MAX_FRAME_LEN: u32 = 1 << 20;

/// Frame header bytes on the wire (the `u32` length prefix).
pub const HEADER_LEN: usize = 4;

// Request tags (client → server).
const TAG_HELLO: u8 = 0x01;
const TAG_OPEN_SESSION: u8 = 0x02;
const TAG_SUBMIT_ROUNDS: u8 = 0x03;
const TAG_QUERY: u8 = 0x04;
const TAG_SUSPEND: u8 = 0x05;
const TAG_RESUME: u8 = 0x06;
const TAG_CHECKPOINT: u8 = 0x07;
const TAG_GOODBYE: u8 = 0x08;

// Response tags (server → client).
const TAG_WELCOME: u8 = 0x81;
const TAG_SESSION_OPENED: u8 = 0x82;
const TAG_ROUNDS_ACK: u8 = 0x83;
const TAG_POSITION: u8 = 0x84;
const TAG_LIFECYCLED: u8 = 0x85;
const TAG_CHECKPOINT_DATA: u8 = 0x86;
const TAG_BYE: u8 = 0x87;
const TAG_ERROR: u8 = 0xFF;

/// Typed decode/validation failures. Every malformed byte string maps
/// to exactly one of these; decoding never panics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolError {
    /// The frame ended before a fixed-width field it promised.
    Truncated {
        /// Bytes the field needed.
        needed: usize,
        /// Bytes actually present.
        have: usize,
    },
    /// The length prefix exceeds [`MAX_FRAME_LEN`].
    Oversized {
        /// The claimed length.
        len: u32,
        /// The enforced cap.
        max: u32,
    },
    /// The tag byte names no known frame type.
    UnknownTag {
        /// The unrecognized tag byte.
        tag: u8,
    },
    /// The handshake magic was wrong.
    BadMagic,
    /// The peer speaks a different protocol version.
    VersionSkew {
        /// The peer's version.
        theirs: u16,
        /// This build's version.
        ours: u16,
    },
    /// A structurally valid frame carried an invalid value.
    Malformed {
        /// Which field was invalid.
        what: &'static str,
    },
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolError::Truncated { needed, have } => {
                write!(f, "truncated frame: needed {needed} bytes, have {have}")
            }
            ProtocolError::Oversized { len, max } => {
                write!(f, "oversized frame: length prefix {len} exceeds cap {max}")
            }
            ProtocolError::UnknownTag { tag } => write!(f, "unknown frame tag 0x{tag:02x}"),
            ProtocolError::BadMagic => write!(f, "bad handshake magic"),
            ProtocolError::VersionSkew { theirs, ours } => {
                write!(f, "version skew: peer speaks v{theirs}, this build v{ours}")
            }
            ProtocolError::Malformed { what } => write!(f, "malformed frame: {what}"),
        }
    }
}

impl std::error::Error for ProtocolError {}

/// Wire error codes carried by [`Response::Error`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// Handshake magic mismatch.
    BadMagic,
    /// Protocol version mismatch.
    VersionSkew,
    /// A frame ended before a field it promised.
    Truncated,
    /// A length prefix exceeded [`MAX_FRAME_LEN`].
    Oversized,
    /// A tag byte named no known frame type.
    UnknownTag,
    /// Undecodable or structurally invalid frame.
    Malformed,
    /// More rounds submitted than the connection held credits for.
    CreditOverrun,
    /// The engine rejected the operation (detail carries its message).
    Engine,
    /// The frame referenced a session this server never issued.
    UnknownSession,
}

impl ErrorCode {
    fn to_wire(self) -> u8 {
        match self {
            ErrorCode::BadMagic => 1,
            ErrorCode::VersionSkew => 2,
            ErrorCode::Truncated => 3,
            ErrorCode::Oversized => 4,
            ErrorCode::UnknownTag => 5,
            ErrorCode::Malformed => 6,
            ErrorCode::CreditOverrun => 7,
            ErrorCode::Engine => 8,
            ErrorCode::UnknownSession => 9,
        }
    }

    fn from_wire(byte: u8) -> Result<Self, ProtocolError> {
        match byte {
            1 => Ok(ErrorCode::BadMagic),
            2 => Ok(ErrorCode::VersionSkew),
            3 => Ok(ErrorCode::Truncated),
            4 => Ok(ErrorCode::Oversized),
            5 => Ok(ErrorCode::UnknownTag),
            6 => Ok(ErrorCode::Malformed),
            7 => Ok(ErrorCode::CreditOverrun),
            8 => Ok(ErrorCode::Engine),
            9 => Ok(ErrorCode::UnknownSession),
            _ => Err(ProtocolError::Malformed { what: "error code" }),
        }
    }

    /// The typed code a decode failure maps to on the wire.
    pub fn for_protocol_error(error: &ProtocolError) -> Self {
        match error {
            ProtocolError::Truncated { .. } => ErrorCode::Truncated,
            ProtocolError::Oversized { .. } => ErrorCode::Oversized,
            ProtocolError::UnknownTag { .. } => ErrorCode::UnknownTag,
            ProtocolError::BadMagic => ErrorCode::BadMagic,
            ProtocolError::VersionSkew { .. } => ErrorCode::VersionSkew,
            ProtocolError::Malformed { .. } => ErrorCode::Malformed,
        }
    }
}

impl std::fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            ErrorCode::BadMagic => "bad_magic",
            ErrorCode::VersionSkew => "version_skew",
            ErrorCode::Truncated => "truncated",
            ErrorCode::Oversized => "oversized",
            ErrorCode::UnknownTag => "unknown_tag",
            ErrorCode::Malformed => "malformed",
            ErrorCode::CreditOverrun => "credit_overrun",
            ErrorCode::Engine => "engine",
            ErrorCode::UnknownSession => "unknown_session",
        };
        f.write_str(name)
    }
}

/// Session parameters carried by [`Request::OpenSession`] — the subset
/// of [`SessionConfig`](fluxprint_engine::SessionConfig) a remote
/// client controls; everything else keeps the engine's defaults.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionSpec {
    /// Tracker RNG seed.
    pub seed: u64,
    /// Users tracked from the start.
    pub users: u32,
    /// `N`: candidate predictions per user per round.
    pub n_predictions: u32,
    /// `M`: samples kept per user after filtering.
    pub keep_m: u32,
    /// Warm-started solving (DESIGN.md §14).
    pub warm: bool,
    /// Time origin; the first round must be strictly later.
    pub start_time: f64,
}

/// One served round outcome inside a [`Response::RoundsAck`]: the
/// trajectory slice the wire carries back, bit-exact against the
/// in-process [`StepOutcome`](fluxprint_smc::StepOutcome) fields it
/// mirrors.
#[derive(Debug, Clone, PartialEq)]
pub struct WireOutcome {
    /// Observation time of the round.
    pub time: f64,
    /// Winning combination residual.
    pub residual: f64,
    /// Per-user `(x, y)` estimates.
    pub estimates: Vec<(f64, f64)>,
    /// Per-user activity detections, parallel to `estimates`.
    pub active: Vec<bool>,
}

/// Client → server frames.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Handshake: magic plus protocol version.
    Hello {
        /// The client's protocol version.
        version: u16,
    },
    /// Open a tracking session.
    OpenSession(SessionSpec),
    /// Queue a batch of observation rounds for one session. Costs one
    /// credit per round.
    SubmitRounds {
        /// Target session id.
        session: u32,
        /// The round batch, in ingestion order.
        rounds: Vec<ObservationRound>,
    },
    /// Current position estimate for one user.
    Query {
        /// Target session id.
        session: u32,
        /// User index within the session.
        user: u32,
    },
    /// Suspend a user (drains first; see DESIGN.md §16).
    Suspend {
        /// Target session id.
        session: u32,
        /// User index within the session.
        user: u32,
    },
    /// Resume a suspended user.
    Resume {
        /// Target session id.
        session: u32,
        /// User index within the session.
        user: u32,
    },
    /// The session's checkpoint document
    /// ([`CompactCheckpoint`](fluxprint_engine::CompactCheckpoint) JSON).
    Checkpoint {
        /// Target session id.
        session: u32,
    },
    /// Orderly goodbye; the server answers [`Response::Bye`].
    Goodbye,
}

/// Server → client frames.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Handshake accepted: negotiated version and the connection's
    /// initial credit window.
    Welcome {
        /// The server's protocol version.
        version: u16,
        /// Initial credit window for this connection.
        credits: u32,
    },
    /// A session was opened under this id.
    SessionOpened {
        /// The new session's id.
        session: u32,
    },
    /// Acked rounds were ingested for `session`; `credits` return to
    /// the connection's window (normally `outcomes.len()`; more when a
    /// failed batch's credits are refunded without outcomes).
    RoundsAck {
        /// The session the rounds belonged to.
        session: u32,
        /// Credits returned to the connection's window.
        credits: u32,
        /// Served outcomes, one per ingested round, in round order.
        outcomes: Vec<WireOutcome>,
    },
    /// Position estimate answer.
    Position {
        /// The queried session.
        session: u32,
        /// The queried user.
        user: u32,
        /// Estimated x coordinate.
        x: f64,
        /// Estimated y coordinate.
        y: f64,
    },
    /// A suspend/resume was applied.
    Lifecycled {
        /// The affected session.
        session: u32,
        /// The affected user.
        user: u32,
    },
    /// Checkpoint JSON for a session.
    CheckpointData {
        /// The checkpointed session.
        session: u32,
        /// The serialized checkpoint.
        json: String,
    },
    /// Orderly close acknowledgement.
    Bye,
    /// Typed failure; the connection closes after a fatal one.
    Error {
        /// The typed error code.
        code: ErrorCode,
        /// Human-readable detail.
        detail: String,
    },
}

/// Validates a length prefix and returns the frame body length to read.
///
/// # Errors
///
/// [`ProtocolError::Oversized`] above [`MAX_FRAME_LEN`],
/// [`ProtocolError::Malformed`] for a zero length (no tag byte).
// A frame body is read straight into a reusable buffer sized by this
// value; the checks below are all that stands between a hostile length
// prefix and a huge allocation, so they run before any buffer work.
// fluxlint: region(hot-path)
pub fn frame_body_len(prefix: [u8; HEADER_LEN]) -> Result<usize, ProtocolError> {
    let len = u32::from_le_bytes(prefix);
    if len > MAX_FRAME_LEN {
        return Err(ProtocolError::Oversized {
            len,
            max: MAX_FRAME_LEN,
        });
    }
    if len == 0 {
        return Err(ProtocolError::Malformed {
            what: "empty frame",
        });
    }
    Ok(len as usize)
}

/// A zero-copy reader over one frame body. All accessors are bounds
/// checked and return [`ProtocolError::Truncated`] instead of panicking;
/// nothing here allocates.
#[derive(Debug)]
pub struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// Wraps a frame body (tag byte included).
    pub fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len().saturating_sub(self.pos)
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ProtocolError> {
        match self.buf.get(self.pos..self.pos + n) {
            Some(slice) => {
                self.pos += n;
                Ok(slice)
            }
            None => Err(ProtocolError::Truncated {
                needed: n,
                have: self.remaining(),
            }),
        }
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, ProtocolError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, ProtocolError> {
        let mut raw = [0u8; 2];
        raw.copy_from_slice(self.take(2)?);
        Ok(u16::from_le_bytes(raw))
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, ProtocolError> {
        let mut raw = [0u8; 4];
        raw.copy_from_slice(self.take(4)?);
        Ok(u32::from_le_bytes(raw))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, ProtocolError> {
        let mut raw = [0u8; 8];
        raw.copy_from_slice(self.take(8)?);
        Ok(u64::from_le_bytes(raw))
    }

    /// Reads a little-endian `f64` (bit-exact round trip).
    pub fn f64(&mut self) -> Result<f64, ProtocolError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads `n` raw bytes.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], ProtocolError> {
        self.take(n)
    }
}

/// Appends a little-endian `u16`.
pub fn put_u16(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u32`.
pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u64`.
pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `f64` (bit-exact round trip).
pub fn put_f64(buf: &mut Vec<u8>, v: f64) {
    buf.extend_from_slice(&v.to_bits().to_le_bytes());
}

/// Reserves a frame header in `buf` and returns the patch offset for
/// [`end_frame`]. The tag goes down immediately; the length prefix is
/// patched once the payload is known, so encoding is single-pass into
/// the caller's reusable buffer.
pub fn begin_frame(buf: &mut Vec<u8>, tag: u8) -> usize {
    let at = buf.len();
    buf.extend_from_slice(&[0, 0, 0, 0, tag]);
    at
}

/// Patches the length prefix reserved by [`begin_frame`].
///
/// # Errors
///
/// [`ProtocolError::Oversized`] when the encoded frame body exceeds
/// [`MAX_FRAME_LEN`] — the frame bytes are rolled back so the buffer
/// stays a valid frame sequence.
pub fn end_frame(buf: &mut Vec<u8>, at: usize) -> Result<(), ProtocolError> {
    let body = buf.len().saturating_sub(at + HEADER_LEN) as u64;
    if body > u64::from(MAX_FRAME_LEN) {
        buf.truncate(at);
        return Err(ProtocolError::Oversized {
            len: body.min(u64::from(u32::MAX)) as u32,
            max: MAX_FRAME_LEN,
        });
    }
    let prefix = (body as u32).to_le_bytes();
    if let Some(slot) = buf.get_mut(at..at + HEADER_LEN) {
        slot.copy_from_slice(&prefix);
    }
    Ok(())
}
// fluxlint: endregion(hot-path)

/// Appends a [`Request::SubmitRounds`] frame without taking ownership
/// of the rounds — the client's hot path, sparing a batch clone per
/// submit.
///
/// # Errors
///
/// [`ProtocolError::Oversized`] when the batch exceeds one frame; the
/// buffer is left unchanged.
pub fn encode_submit_into(
    buf: &mut Vec<u8>,
    session: u32,
    rounds: &[ObservationRound],
) -> Result<(), ProtocolError> {
    let at = begin_frame(buf, TAG_SUBMIT_ROUNDS);
    put_u32(buf, session);
    put_u32(buf, rounds.len() as u32);
    for round in rounds {
        put_f64(buf, round.time);
        put_u32(buf, round.ids.len() as u32);
        for (id, flux) in round.ids.iter().zip(&round.fluxes) {
            put_u32(buf, id.index() as u32);
            put_f64(buf, *flux);
        }
    }
    end_frame(buf, at)
}

impl Request {
    /// Appends this request as one complete frame.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::Oversized`] when the frame would exceed
    /// [`MAX_FRAME_LEN`] (e.g. an enormous round batch); the buffer is
    /// left unchanged.
    pub fn encode_into(&self, buf: &mut Vec<u8>) -> Result<(), ProtocolError> {
        match self {
            Request::Hello { version } => {
                let at = begin_frame(buf, TAG_HELLO);
                buf.extend_from_slice(&MAGIC);
                put_u16(buf, *version);
                end_frame(buf, at)
            }
            Request::OpenSession(spec) => {
                let at = begin_frame(buf, TAG_OPEN_SESSION);
                put_u64(buf, spec.seed);
                put_u32(buf, spec.users);
                put_u32(buf, spec.n_predictions);
                put_u32(buf, spec.keep_m);
                buf.push(u8::from(spec.warm));
                put_f64(buf, spec.start_time);
                end_frame(buf, at)
            }
            Request::SubmitRounds { session, rounds } => encode_submit_into(buf, *session, rounds),
            Request::Query { session, user } => {
                let at = begin_frame(buf, TAG_QUERY);
                put_u32(buf, *session);
                put_u32(buf, *user);
                end_frame(buf, at)
            }
            Request::Suspend { session, user } => {
                let at = begin_frame(buf, TAG_SUSPEND);
                put_u32(buf, *session);
                put_u32(buf, *user);
                end_frame(buf, at)
            }
            Request::Resume { session, user } => {
                let at = begin_frame(buf, TAG_RESUME);
                put_u32(buf, *session);
                put_u32(buf, *user);
                end_frame(buf, at)
            }
            Request::Checkpoint { session } => {
                let at = begin_frame(buf, TAG_CHECKPOINT);
                put_u32(buf, *session);
                end_frame(buf, at)
            }
            Request::Goodbye => {
                let at = begin_frame(buf, TAG_GOODBYE);
                end_frame(buf, at)
            }
        }
    }

    /// Decodes one frame body (tag byte included).
    ///
    /// # Errors
    ///
    /// A typed [`ProtocolError`] for any malformed input; never panics.
    pub fn decode(body: &[u8]) -> Result<Request, ProtocolError> {
        let mut cur = Cursor::new(body);
        let tag = cur.u8()?;
        let request = match tag {
            TAG_HELLO => {
                let magic = cur.bytes(4)?;
                if magic != MAGIC {
                    return Err(ProtocolError::BadMagic);
                }
                Request::Hello {
                    version: cur.u16()?,
                }
            }
            TAG_OPEN_SESSION => {
                let seed = cur.u64()?;
                let users = cur.u32()?;
                let n_predictions = cur.u32()?;
                let keep_m = cur.u32()?;
                let warm = match cur.u8()? {
                    0 => false,
                    1 => true,
                    _ => return Err(ProtocolError::Malformed { what: "warm flag" }),
                };
                let start_time = cur.f64()?;
                Request::OpenSession(SessionSpec {
                    seed,
                    users,
                    n_predictions,
                    keep_m,
                    warm,
                    start_time,
                })
            }
            TAG_SUBMIT_ROUNDS => {
                let session = cur.u32()?;
                let count = cur.u32()? as usize;
                // The smallest encodable round is 12 bytes (time +
                // observation count); bounding the claimed count by the
                // bytes actually present stops a hostile prefix from
                // driving a huge `with_capacity`.
                if count > cur.remaining() / 12 {
                    return Err(ProtocolError::Malformed {
                        what: "round count exceeds frame",
                    });
                }
                let mut rounds = Vec::with_capacity(count);
                for _ in 0..count {
                    let time = cur.f64()?;
                    let n = cur.u32()? as usize;
                    if n > cur.remaining() / 12 {
                        return Err(ProtocolError::Malformed {
                            what: "observation count exceeds frame",
                        });
                    }
                    let mut ids = Vec::with_capacity(n);
                    let mut fluxes = Vec::with_capacity(n);
                    for _ in 0..n {
                        ids.push(NodeId::new(cur.u32()? as usize));
                        fluxes.push(cur.f64()?);
                    }
                    rounds.push(ObservationRound { time, ids, fluxes });
                }
                Request::SubmitRounds { session, rounds }
            }
            TAG_QUERY => Request::Query {
                session: cur.u32()?,
                user: cur.u32()?,
            },
            TAG_SUSPEND => Request::Suspend {
                session: cur.u32()?,
                user: cur.u32()?,
            },
            TAG_RESUME => Request::Resume {
                session: cur.u32()?,
                user: cur.u32()?,
            },
            TAG_CHECKPOINT => Request::Checkpoint {
                session: cur.u32()?,
            },
            TAG_GOODBYE => Request::Goodbye,
            tag => return Err(ProtocolError::UnknownTag { tag }),
        };
        if cur.remaining() != 0 {
            return Err(ProtocolError::Malformed {
                what: "trailing bytes",
            });
        }
        Ok(request)
    }
}

impl Response {
    /// Appends this response as one complete frame.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::Oversized`] when the frame would exceed
    /// [`MAX_FRAME_LEN`] (e.g. a checkpoint too large for one frame);
    /// the buffer is left unchanged.
    pub fn encode_into(&self, buf: &mut Vec<u8>) -> Result<(), ProtocolError> {
        match self {
            Response::Welcome { version, credits } => {
                let at = begin_frame(buf, TAG_WELCOME);
                put_u16(buf, *version);
                put_u32(buf, *credits);
                end_frame(buf, at)
            }
            Response::SessionOpened { session } => {
                let at = begin_frame(buf, TAG_SESSION_OPENED);
                put_u32(buf, *session);
                end_frame(buf, at)
            }
            Response::RoundsAck {
                session,
                credits,
                outcomes,
            } => {
                let at = begin_frame(buf, TAG_ROUNDS_ACK);
                put_u32(buf, *session);
                put_u32(buf, *credits);
                put_u32(buf, outcomes.len() as u32);
                for outcome in outcomes {
                    put_f64(buf, outcome.time);
                    put_f64(buf, outcome.residual);
                    put_u32(buf, outcome.estimates.len() as u32);
                    for ((x, y), active) in outcome.estimates.iter().zip(&outcome.active) {
                        put_f64(buf, *x);
                        put_f64(buf, *y);
                        buf.push(u8::from(*active));
                    }
                }
                end_frame(buf, at)
            }
            Response::Position {
                session,
                user,
                x,
                y,
            } => {
                let at = begin_frame(buf, TAG_POSITION);
                put_u32(buf, *session);
                put_u32(buf, *user);
                put_f64(buf, *x);
                put_f64(buf, *y);
                end_frame(buf, at)
            }
            Response::Lifecycled { session, user } => {
                let at = begin_frame(buf, TAG_LIFECYCLED);
                put_u32(buf, *session);
                put_u32(buf, *user);
                end_frame(buf, at)
            }
            Response::CheckpointData { session, json } => {
                let at = begin_frame(buf, TAG_CHECKPOINT_DATA);
                put_u32(buf, *session);
                buf.extend_from_slice(json.as_bytes());
                end_frame(buf, at)
            }
            Response::Bye => {
                let at = begin_frame(buf, TAG_BYE);
                end_frame(buf, at)
            }
            Response::Error { code, detail } => {
                let at = begin_frame(buf, TAG_ERROR);
                buf.push(code.to_wire());
                let detail = detail.as_bytes();
                let take = detail.len().min(u16::MAX as usize);
                put_u16(buf, take as u16);
                buf.extend_from_slice(&detail[..take]);
                end_frame(buf, at)
            }
        }
    }

    /// Decodes one frame body (tag byte included).
    ///
    /// # Errors
    ///
    /// A typed [`ProtocolError`] for any malformed input; never panics.
    pub fn decode(body: &[u8]) -> Result<Response, ProtocolError> {
        let mut cur = Cursor::new(body);
        let tag = cur.u8()?;
        let response = match tag {
            TAG_WELCOME => Response::Welcome {
                version: cur.u16()?,
                credits: cur.u32()?,
            },
            TAG_SESSION_OPENED => Response::SessionOpened {
                session: cur.u32()?,
            },
            TAG_ROUNDS_ACK => {
                let session = cur.u32()?;
                let credits = cur.u32()?;
                let count = cur.u32()? as usize;
                if count > cur.remaining() / 20 {
                    return Err(ProtocolError::Malformed {
                        what: "outcome count exceeds frame",
                    });
                }
                let mut outcomes = Vec::with_capacity(count);
                for _ in 0..count {
                    let time = cur.f64()?;
                    let residual = cur.f64()?;
                    let users = cur.u32()? as usize;
                    if users > cur.remaining() / 17 {
                        return Err(ProtocolError::Malformed {
                            what: "user count exceeds frame",
                        });
                    }
                    let mut estimates = Vec::with_capacity(users);
                    let mut active = Vec::with_capacity(users);
                    for _ in 0..users {
                        let x = cur.f64()?;
                        let y = cur.f64()?;
                        estimates.push((x, y));
                        active.push(match cur.u8()? {
                            0 => false,
                            1 => true,
                            _ => {
                                return Err(ProtocolError::Malformed {
                                    what: "active flag",
                                });
                            }
                        });
                    }
                    outcomes.push(WireOutcome {
                        time,
                        residual,
                        estimates,
                        active,
                    });
                }
                Response::RoundsAck {
                    session,
                    credits,
                    outcomes,
                }
            }
            TAG_POSITION => Response::Position {
                session: cur.u32()?,
                user: cur.u32()?,
                x: cur.f64()?,
                y: cur.f64()?,
            },
            TAG_LIFECYCLED => Response::Lifecycled {
                session: cur.u32()?,
                user: cur.u32()?,
            },
            TAG_CHECKPOINT_DATA => {
                let session = cur.u32()?;
                let raw = cur.bytes(cur.remaining())?;
                let json = std::str::from_utf8(raw)
                    .map_err(|_| ProtocolError::Malformed {
                        what: "checkpoint utf8",
                    })?
                    .to_string();
                Response::CheckpointData { session, json }
            }
            TAG_BYE => Response::Bye,
            TAG_ERROR => {
                let code = ErrorCode::from_wire(cur.u8()?)?;
                let len = cur.u16()? as usize;
                let raw = cur.bytes(len)?;
                let detail = std::str::from_utf8(raw)
                    .map_err(|_| ProtocolError::Malformed { what: "error utf8" })?
                    .to_string();
                Response::Error { code, detail }
            }
            tag => return Err(ProtocolError::UnknownTag { tag }),
        };
        if cur.remaining() != 0 {
            return Err(ProtocolError::Malformed {
                what: "trailing bytes",
            });
        }
        Ok(response)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round(time: f64) -> ObservationRound {
        ObservationRound {
            time,
            ids: vec![NodeId::new(3), NodeId::new(7)],
            fluxes: vec![1.25, 0.5],
        }
    }

    fn roundtrip_request(request: Request) {
        let mut buf = Vec::new();
        request.encode_into(&mut buf).unwrap();
        let len = frame_body_len([buf[0], buf[1], buf[2], buf[3]]).unwrap();
        assert_eq!(len, buf.len() - HEADER_LEN);
        assert_eq!(Request::decode(&buf[HEADER_LEN..]).unwrap(), request);
    }

    fn roundtrip_response(response: Response) {
        let mut buf = Vec::new();
        response.encode_into(&mut buf).unwrap();
        let len = frame_body_len([buf[0], buf[1], buf[2], buf[3]]).unwrap();
        assert_eq!(len, buf.len() - HEADER_LEN);
        assert_eq!(Response::decode(&buf[HEADER_LEN..]).unwrap(), response);
    }

    #[test]
    fn requests_roundtrip() {
        roundtrip_request(Request::Hello { version: VERSION });
        roundtrip_request(Request::OpenSession(SessionSpec {
            seed: 42,
            users: 2,
            n_predictions: 32,
            keep_m: 8,
            warm: true,
            start_time: 0.5,
        }));
        roundtrip_request(Request::SubmitRounds {
            session: 9,
            rounds: vec![round(1.0), round(2.0)],
        });
        roundtrip_request(Request::Query {
            session: 1,
            user: 0,
        });
        roundtrip_request(Request::Suspend {
            session: 1,
            user: 1,
        });
        roundtrip_request(Request::Resume {
            session: 1,
            user: 1,
        });
        roundtrip_request(Request::Checkpoint { session: 4 });
        roundtrip_request(Request::Goodbye);
    }

    #[test]
    fn responses_roundtrip() {
        roundtrip_response(Response::Welcome {
            version: VERSION,
            credits: 64,
        });
        roundtrip_response(Response::SessionOpened { session: 3 });
        roundtrip_response(Response::RoundsAck {
            session: 3,
            credits: 2,
            outcomes: vec![WireOutcome {
                time: 1.0,
                residual: 0.25,
                estimates: vec![(10.0, 15.5), (2.0, 3.0)],
                active: vec![true, false],
            }],
        });
        roundtrip_response(Response::Position {
            session: 3,
            user: 1,
            x: 1.5,
            y: -2.5,
        });
        roundtrip_response(Response::Lifecycled {
            session: 3,
            user: 0,
        });
        roundtrip_response(Response::CheckpointData {
            session: 3,
            json: "{\"v\":1}".to_string(),
        });
        roundtrip_response(Response::Bye);
        roundtrip_response(Response::Error {
            code: ErrorCode::Engine,
            detail: "bad round".to_string(),
        });
    }

    #[test]
    fn float_payloads_roundtrip_bit_exactly() {
        let tricky = f64::from_bits(0x7ff8_0000_0000_0001); // a quiet NaN payload
        let mut buf = Vec::new();
        put_f64(&mut buf, tricky);
        let mut cur = Cursor::new(&buf);
        assert_eq!(cur.f64().unwrap().to_bits(), tricky.to_bits());
    }

    #[test]
    fn oversized_prefix_is_rejected_before_any_read() {
        let prefix = (MAX_FRAME_LEN + 1).to_le_bytes();
        assert!(matches!(
            frame_body_len(prefix),
            Err(ProtocolError::Oversized { .. })
        ));
    }

    #[test]
    fn oversized_encode_rolls_back() {
        let mut buf = Vec::new();
        let json = "x".repeat(MAX_FRAME_LEN as usize + 16);
        let before = buf.len();
        let err = Response::CheckpointData { session: 0, json }
            .encode_into(&mut buf)
            .unwrap_err();
        assert!(matches!(err, ProtocolError::Oversized { .. }));
        assert_eq!(buf.len(), before);
    }
}
