//! Property tests over the wire codec: whatever bytes a peer sends, both
//! decoders return a value or a typed [`ProtocolError`] and never panic,
//! and what they accept is canonical (it re-encodes to the same bytes).
//! Every request and response, of every variant, round-trips through
//! `encode_into`, `frame_body_len` and `decode` bit for bit. The
//! hand-written corpus of known-bad frames lives in `wire_abuse.rs`.

use proptest::prelude::*;
use proptest::test_runner::TestRng;

use fluxprint_fluxd::protocol::{frame_body_len, HEADER_LEN};
use fluxprint_fluxd::{ErrorCode, ProtocolError, Request, Response, SessionSpec, WireOutcome};
use fluxprint_netsim::{NodeId, ObservationRound};

/// Uniform draw from `0..n`.
fn below(rng: &mut TestRng, n: u64) -> u64 {
    rng.next_u64() % n
}

/// Any `f64` bit pattern: NaN payloads, infinities, subnormals and −0.
fn any_f64(rng: &mut TestRng) -> f64 {
    f64::from_bits(rng.next_u64())
}

/// Up to `max` chars of any width in UTF-8.
fn any_text(rng: &mut TestRng, max: u64) -> String {
    (0..below(rng, max + 1))
        .map(|_| char::from_u32(below(rng, 0x11_0000) as u32).unwrap_or('\u{FFFD}'))
        .collect()
}

/// A batch length: empty, one, or several.
fn batch(rng: &mut TestRng) -> u64 {
    below(rng, 5)
}

fn any_round(rng: &mut TestRng) -> ObservationRound {
    let n = below(rng, 6);
    ObservationRound {
        time: any_f64(rng),
        ids: (0..n)
            .map(|_| NodeId::new(rng.next_u64() as u32 as usize))
            .collect(),
        fluxes: (0..n).map(|_| any_f64(rng)).collect(),
    }
}

fn any_outcome(rng: &mut TestRng) -> WireOutcome {
    let users = below(rng, 4);
    WireOutcome {
        time: any_f64(rng),
        residual: any_f64(rng),
        estimates: (0..users).map(|_| (any_f64(rng), any_f64(rng))).collect(),
        active: (0..users).map(|_| below(rng, 2) == 1).collect(),
    }
}

const CODES: [ErrorCode; 9] = [
    ErrorCode::BadMagic,
    ErrorCode::VersionSkew,
    ErrorCode::Truncated,
    ErrorCode::Oversized,
    ErrorCode::UnknownTag,
    ErrorCode::Malformed,
    ErrorCode::CreditOverrun,
    ErrorCode::Engine,
    ErrorCode::UnknownSession,
];

/// Every [`Request`] variant with arbitrary fields.
struct AnyRequest;

impl Strategy for AnyRequest {
    type Value = Request;

    fn generate(&self, rng: &mut TestRng) -> Request {
        let (session, user) = (rng.next_u64() as u32, rng.next_u64() as u32);
        match below(rng, 8) {
            0 => Request::Hello {
                version: rng.next_u64() as u16,
            },
            1 => Request::OpenSession(SessionSpec {
                seed: rng.next_u64(),
                users: rng.next_u64() as u32,
                n_predictions: rng.next_u64() as u32,
                keep_m: rng.next_u64() as u32,
                warm: below(rng, 2) == 1,
                start_time: any_f64(rng),
            }),
            2 => Request::SubmitRounds {
                session,
                rounds: (0..batch(rng)).map(|_| any_round(rng)).collect(),
            },
            3 => Request::Query { session, user },
            4 => Request::Suspend { session, user },
            5 => Request::Resume { session, user },
            6 => Request::Checkpoint { session },
            _ => Request::Goodbye,
        }
    }
}

/// Every [`Response`] variant with arbitrary fields.
struct AnyResponse;

impl Strategy for AnyResponse {
    type Value = Response;

    fn generate(&self, rng: &mut TestRng) -> Response {
        let (session, user) = (rng.next_u64() as u32, rng.next_u64() as u32);
        match below(rng, 8) {
            0 => Response::Welcome {
                version: rng.next_u64() as u16,
                credits: rng.next_u64() as u32,
            },
            1 => Response::SessionOpened { session },
            2 => Response::RoundsAck {
                session,
                credits: rng.next_u64() as u32,
                outcomes: (0..batch(rng)).map(|_| any_outcome(rng)).collect(),
            },
            3 => Response::Position {
                session,
                user,
                x: any_f64(rng),
                y: any_f64(rng),
            },
            4 => Response::Lifecycled { session, user },
            5 => Response::CheckpointData {
                session,
                json: any_text(rng, 48),
            },
            6 => Response::Bye,
            _ => Response::Error {
                code: CODES[below(rng, CODES.len() as u64) as usize],
                detail: any_text(rng, 48),
            },
        }
    }
}

/// One encoded frame, header included.
fn frame(encode: impl FnOnce(&mut Vec<u8>) -> Result<(), ProtocolError>) -> Vec<u8> {
    let mut buf = Vec::new();
    encode(&mut buf).expect("small frames encode");
    buf
}

/// The frame's body as its length prefix delimits it.
fn body(frame: &[u8]) -> Result<&[u8], TestCaseError> {
    let mut prefix = [0u8; HEADER_LEN];
    prefix.copy_from_slice(&frame[..HEADER_LEN]);
    let len = frame_body_len(prefix).map_err(|e| TestCaseError::Fail(e.to_string()))?;
    prop_assert_eq!(len, frame.len() - HEADER_LEN, "length prefix");
    Ok(&frame[HEADER_LEN..])
}

/// Decodes `bytes` as a request and as a response. Neither decoder may
/// panic, and whatever either accepts re-encodes to exactly `bytes`.
fn decode_both(bytes: &[u8]) -> Result<(), TestCaseError> {
    if let Ok(request) = Request::decode(bytes) {
        let again = frame(|buf| request.encode_into(buf));
        prop_assert_eq!(body(&again)?, bytes, "request {:?}", request);
    }
    if let Ok(response) = Response::decode(bytes) {
        let again = frame(|buf| response.encode_into(buf));
        prop_assert_eq!(body(&again)?, bytes, "response {:?}", response);
    }
    Ok(())
}

/// Every tag either decoder knows, for bodies that get past the tag.
const TAGS: [u8; 16] = [
    0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x81, 0x82, 0x83, 0x84, 0x85, 0x86, 0x87, 0xFF,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Arbitrary bodies, with a known tag or any byte in front.
    #[test]
    fn arbitrary_bodies_decode_or_refuse(
        tag in 0usize..TAGS.len() + 1,
        any in 0u8..=255,
        payload in proptest::collection::vec(0u8..=255, 0..48),
    ) {
        let mut bytes = vec![TAGS.get(tag).copied().unwrap_or(any)];
        bytes.extend_from_slice(&payload);
        decode_both(&bytes)?;
        decode_both(&payload)?;
    }

    /// Valid bodies with bytes overwritten, cut short or run on.
    #[test]
    fn mutated_frames_decode_or_refuse(
        request in AnyRequest,
        response in AnyResponse,
        edits in proptest::collection::vec((0usize..1 << 12, 0u8..=255), 1..4),
        cut in 0usize..1 << 12,
    ) {
        for whole in [
            frame(|buf| request.encode_into(buf)),
            frame(|buf| response.encode_into(buf)),
        ] {
            let valid = body(&whole)?;
            let mut overwritten = valid.to_vec();
            for &(at, byte) in &edits {
                let len = overwritten.len();
                overwritten[at % len] = byte;
            }
            decode_both(&overwritten)?;
            decode_both(&valid[..cut % (valid.len() + 1)])?;
            let mut run_on = valid.to_vec();
            run_on.extend(edits.iter().map(|&(_, byte)| byte));
            decode_both(&run_on)?;
        }
    }

    /// Every request round-trips bit for bit: the decoded value prints as
    /// the original and re-encodes to the same frame (which also pins NaN
    /// payloads, which compare unequal).
    #[test]
    fn requests_round_trip(request in AnyRequest) {
        let whole = frame(|buf| request.encode_into(buf));
        let back = Request::decode(body(&whole)?);
        prop_assert!(back.is_ok(), "{:?} refused: {:?}", request, back);
        if let Ok(back) = back {
            prop_assert_eq!(format!("{back:?}"), format!("{request:?}"));
            prop_assert_eq!(frame(|buf| back.encode_into(buf)), whole);
        }
    }

    /// Every response round-trips bit for bit (see `requests_round_trip`).
    #[test]
    fn responses_round_trip(response in AnyResponse) {
        let whole = frame(|buf| response.encode_into(buf));
        let back = Response::decode(body(&whole)?);
        prop_assert!(back.is_ok(), "{:?} refused: {:?}", response, back);
        if let Ok(back) = back {
            prop_assert_eq!(format!("{back:?}"), format!("{response:?}"));
            prop_assert_eq!(frame(|buf| back.encode_into(buf)), whole);
        }
    }
}
