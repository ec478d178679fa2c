//! Wire-codec abuse corpus: malformed byte strings — truncated frames,
//! oversized length prefixes, unknown frame tags, version-skew and
//! bad-magic handshakes — driven both through the pure decoders and
//! through a live loopback server. Every case must come back as a typed
//! protocol error (`Response::Error` with the matching `ErrorCode` on
//! the wire path); nothing may panic or hang.

use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};

use rand::rngs::StdRng;
use rand::SeedableRng;

use fluxprint_engine::{Engine, GridConfig};
use fluxprint_fluxd::{
    server, Client, ErrorCode, FluxdError, ProtocolError, Request, Response, ServerConfig,
    ServerHandle, SessionSpec, MAX_FRAME_LEN, VERSION,
};
use fluxprint_fluxmodel::FluxModel;
use fluxprint_geometry::Rect;
use fluxprint_netsim::NetworkBuilder;

fn spawn_server() -> ServerHandle {
    let mut rng = StdRng::seed_from_u64(0x9A1D);
    let network = NetworkBuilder::new()
        .field(Rect::square(12.0).expect("valid field"))
        .perturbed_grid(4, 4, 0.3)
        .radius(5.0)
        .build(&mut rng)
        .expect("valid network");
    let engine = Engine::for_network(&network, FluxModel::default()).expect("valid engine");
    server::spawn(
        engine,
        &ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            grid: GridConfig {
                shards: 2,
                queue_capacity: 8,
                hibernate_after: 0,
                ..GridConfig::default()
            },
            credits: 0,
            drain_threshold: 0,
        },
    )
    .expect("server spawns")
}

/// Builds one complete frame by hand: `[u32 length][tag][payload]`.
fn raw_frame(tag: u8, payload: &[u8]) -> Vec<u8> {
    let mut frame = Vec::new();
    frame.extend_from_slice(&(1 + payload.len() as u32).to_le_bytes());
    frame.push(tag);
    frame.extend_from_slice(payload);
    frame
}

/// Reads exactly one response frame off a raw stream.
fn read_response(stream: &mut TcpStream) -> Response {
    let mut prefix = [0u8; 4];
    stream.read_exact(&mut prefix).expect("response prefix");
    let len = u32::from_le_bytes(prefix) as usize;
    let mut body = vec![0u8; len];
    stream.read_exact(&mut body).expect("response body");
    Response::decode(&body).expect("response decodes")
}

/// Writes raw bytes to a fresh connection (optionally half-closing the
/// write side to simulate a peer hanging up mid-frame) and returns the
/// server's single typed reply.
fn abuse(addr: &str, bytes: &[u8], half_close: bool) -> Response {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    stream.write_all(bytes).expect("write abuse bytes");
    if half_close {
        stream.shutdown(Shutdown::Write).expect("half close");
    }
    let response = read_response(&mut stream);
    // Abuse kills the connection: the next read must see EOF, never a
    // hang or a second frame.
    let mut rest = Vec::new();
    stream.read_to_end(&mut rest).expect("post-error read");
    assert!(rest.is_empty(), "no bytes after the error frame");
    response
}

fn assert_error(response: Response, want: ErrorCode) {
    match response {
        Response::Error { code, .. } => assert_eq!(code, want),
        other => panic!("expected {want} error, got {other:?}"),
    }
}

#[test]
fn server_rejects_malformed_bytes_with_typed_errors() {
    let server = spawn_server();
    let addr = server.addr().to_string();

    // Length prefix above MAX_FRAME_LEN: rejected before any body read.
    let oversized = (MAX_FRAME_LEN + 1).to_le_bytes();
    assert_error(abuse(&addr, &oversized, false), ErrorCode::Oversized);

    // Zero-length frame: structurally impossible (no tag byte).
    assert_error(
        abuse(&addr, &0u32.to_le_bytes(), false),
        ErrorCode::Malformed,
    );

    // A frame that promises 64 bytes and hangs up after 3.
    let mut truncated = Vec::new();
    truncated.extend_from_slice(&64u32.to_le_bytes());
    truncated.extend_from_slice(&[0x01, 0x02, 0x03]);
    assert_error(abuse(&addr, &truncated, true), ErrorCode::Truncated);

    // A tag byte that names no frame type.
    assert_error(
        abuse(&addr, &raw_frame(0x42, &[]), false),
        ErrorCode::UnknownTag,
    );

    // Hello with the wrong magic.
    let mut bad_magic = Vec::new();
    bad_magic.extend_from_slice(b"NOPE");
    bad_magic.extend_from_slice(&VERSION.to_le_bytes());
    assert_error(
        abuse(&addr, &raw_frame(0x01, &bad_magic), false),
        ErrorCode::BadMagic,
    );

    // Hello from a build speaking a future protocol version.
    let mut skew = Vec::new();
    Request::Hello { version: 999 }
        .encode_into(&mut skew)
        .expect("hello encodes");
    assert_error(abuse(&addr, &skew, false), ErrorCode::VersionSkew);

    // A structurally valid Query carrying trailing garbage.
    let mut query = Vec::new();
    query.extend_from_slice(&0u32.to_le_bytes());
    query.extend_from_slice(&0u32.to_le_bytes());
    query.push(0xEE);
    assert_error(
        abuse(&addr, &raw_frame(0x04, &query), false),
        ErrorCode::Malformed,
    );

    // A well-formed frame before any Hello: the handshake is mandatory.
    let mut early = Vec::new();
    Request::Goodbye.encode_into(&mut early).expect("encodes");
    assert_error(abuse(&addr, &early, false), ErrorCode::Malformed);

    // A SubmitRounds whose claimed round count exceeds the frame bytes:
    // the count-bounds guard must fire before any allocation.
    let mut hostile = Vec::new();
    hostile.extend_from_slice(&0u32.to_le_bytes()); // session
    hostile.extend_from_slice(&u32::MAX.to_le_bytes()); // round count
    assert_error(
        abuse(&addr, &raw_frame(0x03, &hostile), false),
        ErrorCode::Malformed,
    );

    server.shutdown().expect("clean shutdown");
}

#[test]
fn credit_overrun_is_refused_and_kills_the_connection() {
    let server = spawn_server();
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream.set_nodelay(true).expect("nodelay");

    let mut hello = Vec::new();
    Request::Hello { version: VERSION }
        .encode_into(&mut hello)
        .expect("hello encodes");
    stream.write_all(&hello).expect("write hello");
    let credits = match read_response(&mut stream) {
        Response::Welcome { credits, .. } => credits,
        other => panic!("expected welcome, got {other:?}"),
    };
    assert!(credits > 0);

    // One more empty round than the window allows, in a single batch.
    let rounds = (0..=credits)
        .map(|i| fluxprint_netsim::ObservationRound {
            time: f64::from(i) + 1.0,
            ids: Vec::new(),
            fluxes: Vec::new(),
        })
        .collect();
    let mut submit = Vec::new();
    Request::SubmitRounds { session: 0, rounds }
        .encode_into(&mut submit)
        .expect("submit encodes");
    stream.write_all(&submit).expect("write submit");
    assert_error(read_response(&mut stream), ErrorCode::CreditOverrun);

    let mut rest = Vec::new();
    stream.read_to_end(&mut rest).expect("post-error read");
    assert!(rest.is_empty(), "connection closed after overrun");

    server.shutdown().expect("clean shutdown");
}

/// A peer that welcomes with a zero credit window could never take a
/// round, so the client refuses it at the handshake instead of blocking
/// on its first submit.
#[test]
fn client_refuses_a_zero_credit_welcome() {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("bound address");
    let peer = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("accept");
        let mut prefix = [0u8; 4];
        stream.read_exact(&mut prefix).expect("hello prefix");
        let mut body = vec![0u8; u32::from_le_bytes(prefix) as usize];
        stream.read_exact(&mut body).expect("hello body");
        let mut welcome = Vec::new();
        Response::Welcome {
            version: VERSION,
            credits: 0,
        }
        .encode_into(&mut welcome)
        .expect("welcome encodes");
        stream.write_all(&welcome).expect("write welcome");
    });
    assert!(matches!(
        Client::connect(addr),
        Err(FluxdError::BadConfig { field: "credits" })
    ));
    peer.join().expect("peer thread");
}

/// An `OpenSession` frame asking for `u32::MAX` users, or `u32::MAX`
/// predictions per user, is refused with a typed engine error when the
/// session opens, before anything is sized by the count, and the same
/// connection then opens a one-user session.
#[test]
fn oversized_counts_are_refused_at_open() {
    let server = spawn_server();
    let mut client = Client::connect(server.addr()).expect("client connects");
    let spec = |users, n_predictions| SessionSpec {
        seed: 7,
        users,
        n_predictions,
        keep_m: 4,
        warm: false,
        start_time: 0.0,
    };
    for (users, n_predictions, field) in [(1, u32::MAX, "n_predictions"), (u32::MAX, 16, "users")] {
        match client.open_session(&spec(users, n_predictions)) {
            Err(FluxdError::Remote {
                code: ErrorCode::Engine,
                detail,
            }) => assert!(detail.contains(field), "{detail}"),
            other => panic!("expected an engine refusal of {field}, got {other:?}"),
        }
    }
    client
        .open_session(&spec(1, 16))
        .expect("a valid spec still opens");
    client.goodbye().expect("clean goodbye");
    server.shutdown().expect("clean shutdown");
}

#[test]
fn decoders_return_typed_errors_for_the_corpus() {
    // (bytes, expected error) — pure decode, no server. The corpus
    // walks every decode guard: empty body, unknown tags, truncation at
    // each field width, bad magic, hostile counts, trailing bytes.
    let corpus: Vec<(Vec<u8>, ProtocolError)> = vec![
        (Vec::new(), ProtocolError::Truncated { needed: 1, have: 0 }),
        (vec![0x42], ProtocolError::UnknownTag { tag: 0x42 }),
        (vec![0x00], ProtocolError::UnknownTag { tag: 0x00 }),
        // Hello cut off inside the magic.
        (
            vec![0x01, b'F', b'L'],
            ProtocolError::Truncated { needed: 4, have: 2 },
        ),
        // Hello with the wrong magic.
        (
            vec![0x01, b'N', b'O', b'P', b'E', 1, 0],
            ProtocolError::BadMagic,
        ),
        // OpenSession truncated inside the seed.
        (
            vec![0x02, 1, 2, 3],
            ProtocolError::Truncated { needed: 8, have: 3 },
        ),
        // OpenSession with an out-of-range warm flag.
        (
            {
                let mut body = vec![0x02];
                body.extend_from_slice(&7u64.to_le_bytes());
                body.extend_from_slice(&1u32.to_le_bytes());
                body.extend_from_slice(&16u32.to_le_bytes());
                body.extend_from_slice(&4u32.to_le_bytes());
                body.push(7); // warm must be 0 or 1
                body.extend_from_slice(&0f64.to_le_bytes());
                body
            },
            ProtocolError::Malformed { what: "warm flag" },
        ),
        // SubmitRounds claiming u32::MAX rounds in a 0-byte remainder.
        (
            {
                let mut body = vec![0x03];
                body.extend_from_slice(&0u32.to_le_bytes());
                body.extend_from_slice(&u32::MAX.to_le_bytes());
                body
            },
            ProtocolError::Malformed {
                what: "round count exceeds frame",
            },
        ),
        // Query with trailing garbage.
        (
            {
                let mut body = vec![0x04];
                body.extend_from_slice(&0u32.to_le_bytes());
                body.extend_from_slice(&0u32.to_le_bytes());
                body.push(0xEE);
                body
            },
            ProtocolError::Malformed {
                what: "trailing bytes",
            },
        ),
        // Checkpoint truncated inside the session id.
        (
            vec![0x07, 1],
            ProtocolError::Truncated { needed: 4, have: 1 },
        ),
    ];
    for (bytes, want) in &corpus {
        match Request::decode(bytes) {
            Err(got) => assert_eq!(&got, want, "corpus case {bytes:02x?}"),
            Ok(frame) => panic!("corpus case {bytes:02x?} decoded to {frame:?}"),
        }
    }

    // Response decoding is just as defensive: garbage never panics.
    for bytes in [
        Vec::new(),
        vec![0x42],
        vec![0x83, 1, 2, 3],
        vec![0xFF, 200], // error frame with an unknown error code
        {
            let mut body = vec![0x83];
            body.extend_from_slice(&0u32.to_le_bytes());
            body.extend_from_slice(&1u32.to_le_bytes());
            body.extend_from_slice(&u32::MAX.to_le_bytes()); // hostile outcome count
            body
        },
    ] {
        assert!(Response::decode(&bytes).is_err(), "case {bytes:02x?}");
    }
}

#[test]
fn every_protocol_error_maps_to_a_distinct_wire_code() {
    let cases = [
        (
            ProtocolError::Truncated { needed: 4, have: 0 },
            ErrorCode::Truncated,
        ),
        (
            ProtocolError::Oversized {
                len: MAX_FRAME_LEN + 1,
                max: MAX_FRAME_LEN,
            },
            ErrorCode::Oversized,
        ),
        (
            ProtocolError::UnknownTag { tag: 0x42 },
            ErrorCode::UnknownTag,
        ),
        (ProtocolError::BadMagic, ErrorCode::BadMagic),
        (
            ProtocolError::VersionSkew {
                theirs: 999,
                ours: VERSION,
            },
            ErrorCode::VersionSkew,
        ),
        (
            ProtocolError::Malformed { what: "warm flag" },
            ErrorCode::Malformed,
        ),
    ];
    for (error, want) in cases {
        assert_eq!(ErrorCode::for_protocol_error(&error), want);
    }
}
