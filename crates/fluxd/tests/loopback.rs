//! Loopback serving correctness: trajectories served over TCP must be
//! bit-identical to the same workload ingested in-process, with
//! concurrent connections interleaving arbitrarily, a slowed client
//! stalling only itself on its credit window, and a batch longer than
//! the window going out in window-sized frames. Honors
//! `FLUXPRINT_THREADS` for the server grid so CI can pin the worker
//! count (the determinism contract holds at any value).

use std::net::SocketAddr;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::SeedableRng;

use fluxprint_engine::{Engine, GridConfig, SessionConfig};
use fluxprint_fluxd::{server, Client, FluxdError, ServerConfig, SessionSpec, WireOutcome};
use fluxprint_fluxmodel::FluxModel;
use fluxprint_geometry::{Point2, Rect};
use fluxprint_netsim::{Network, NetworkBuilder, NoiseModel, ObservationRound, Sniffer};
use fluxprint_smc::StepOutcome;

const CONNECTIONS: usize = 4;
const ROUNDS: usize = 6;
const N_PREDICTIONS: u32 = 16;
const KEEP_M: u32 = 4;

fn test_network() -> Network {
    let mut rng = StdRng::seed_from_u64(0x9A1D);
    NetworkBuilder::new()
        .field(Rect::square(18.0).expect("valid field"))
        .perturbed_grid(6, 6, 0.3)
        .radius(4.0)
        .build(&mut rng)
        .expect("valid network")
}

fn test_trace(net: &Network) -> Vec<ObservationRound> {
    let mut rng = StdRng::seed_from_u64(0x51FF);
    let sniffer = Sniffer::random_count(net, 12, &mut rng).expect("valid sniffer");
    (1..=ROUNDS)
        .map(|i| {
            let t = i as f64;
            let user = (Point2::new(4.0 + 1.2 * t, 9.0), 2.0);
            let flux = net
                .simulate_flux(&[user], &mut rng)
                .expect("flux simulates");
            sniffer.observe_round_smoothed(t, net, &flux, NoiseModel::None, &mut rng)
        })
        .collect()
}

fn session_seed(conn: usize) -> u64 {
    7000 + conn as u64
}

fn spec() -> SessionSpec {
    SessionSpec {
        seed: 0, // overridden per connection
        users: 1,
        n_predictions: N_PREDICTIONS,
        keep_m: KEEP_M,
        warm: false,
        start_time: 0.0,
    }
}

/// The in-process twin of [`spec`]: what the server builds from it.
fn session_config() -> SessionConfig {
    SessionConfig {
        users: 1,
        smc: fluxprint_smc::SmcConfig {
            n_predictions: N_PREDICTIONS as usize,
            keep_m: KEEP_M as usize,
            ..Default::default()
        },
        start_time: 0.0,
        warm: false,
    }
}

/// The grid's shard (drain worker) count under test: read from
/// `FLUXPRINT_THREADS`, so CI's runs at 1 and 4 exercise both
/// single-threaded and parallel serving; 2 when unset.
fn shards_from_env() -> usize {
    std::env::var("FLUXPRINT_THREADS")
        .ok()
        .and_then(|raw| raw.parse().ok())
        .filter(|&n: &usize| n >= 1)
        .unwrap_or(2)
}

/// In-process reference: the same per-connection workload ingested
/// through solo sessions (the grid is bit-identical to these by the
/// engine's determinism contract).
fn reference_outcomes(
    net: &Network,
    trace: &[ObservationRound],
    connections: usize,
) -> Vec<Vec<StepOutcome>> {
    let engine = Engine::for_network(net, FluxModel::default()).expect("valid engine");
    (0..connections)
        .map(|conn| {
            let mut session = engine
                .open_session(&session_config(), session_seed(conn))
                .expect("session opens");
            trace
                .iter()
                .map(|round| session.ingest(round).expect("round ingests"))
                .collect()
        })
        .collect()
}

fn assert_bit_identical(conn: usize, served: &[WireOutcome], reference: &[StepOutcome]) {
    assert_eq!(served.len(), reference.len(), "conn {conn}: round count");
    for (i, (wire, solo)) in served.iter().zip(reference).enumerate() {
        let at = format!("conn {conn} round {i}");
        assert_eq!(wire.time.to_bits(), solo.time.to_bits(), "{at}: time");
        assert_eq!(
            wire.residual.to_bits(),
            solo.residual.to_bits(),
            "{at}: residual"
        );
        assert_eq!(wire.estimates.len(), solo.estimates.len(), "{at}: users");
        for (user, ((x, y), point)) in wire.estimates.iter().zip(&solo.estimates).enumerate() {
            assert_eq!(x.to_bits(), point.x.to_bits(), "{at} user {user}: x");
            assert_eq!(y.to_bits(), point.y.to_bits(), "{at} user {user}: y");
        }
        assert_eq!(wire.active, solo.active, "{at}: activity");
    }
}

fn spawn_server(
    net: &Network,
    queue_capacity: usize,
    hibernate_after: u64,
) -> fluxprint_fluxd::ServerHandle {
    let engine = Engine::for_network(net, FluxModel::default()).expect("valid engine");
    server::spawn(
        engine,
        &ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            grid: GridConfig {
                shards: shards_from_env(),
                queue_capacity,
                hibernate_after,
                ..GridConfig::default()
            },
            credits: 0,
            drain_threshold: 0,
        },
    )
    .expect("server spawns")
}

/// One connection's full conversation: open a session, stream the trace
/// in small batches (sleeping `pause` after each), and return the served
/// trajectory with the client's credit-stall time.
fn drive_connection(
    addr: SocketAddr,
    conn: usize,
    trace: &[ObservationRound],
    pause: Duration,
) -> (Vec<WireOutcome>, u64) {
    let mut client = Client::connect(addr).expect("client connects");
    let session = client
        .open_session(&SessionSpec {
            seed: session_seed(conn),
            ..spec()
        })
        .expect("session opens");
    for batch in trace.chunks(2) {
        client.submit(session, batch).expect("batch submits");
        std::thread::sleep(pause);
    }
    client.wait_acks().expect("acks arrive");
    let outcomes = client.take_outcomes(session);

    // Cross-check the query path against the served trajectory.
    let (x, y) = client.query(session, 0).expect("query answers");
    let last = outcomes.last().expect("at least one outcome");
    assert_eq!(x.to_bits(), last.estimates[0].0.to_bits(), "query x");
    assert_eq!(y.to_bits(), last.estimates[0].1.to_bits(), "query y");

    let stall_ns = client.stall_ns();
    client.goodbye().expect("orderly goodbye");
    (outcomes, stall_ns)
}

#[test]
fn served_trajectories_are_bit_identical_to_in_process() {
    let net = test_network();
    let trace = test_trace(&net);
    let reference = reference_outcomes(&net, &trace, CONNECTIONS);

    let server = spawn_server(&net, 16, 0);
    let addr = server.addr();

    // Four concurrent connections; the server interleaves their rounds
    // arbitrarily across drains, which must not affect any trajectory.
    let served: Vec<(Vec<WireOutcome>, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|conn| {
                let trace = &trace;
                scope.spawn(move || drive_connection(addr, conn, trace, Duration::ZERO))
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join().expect("connection thread"))
            .collect()
    });

    for (conn, (outcomes, _)) in served.iter().enumerate() {
        assert_bit_identical(conn, outcomes, &reference[conn]);
    }

    server.shutdown().expect("clean shutdown");
}

#[test]
fn credit_window_stalls_a_fast_client_without_corrupting_results() {
    let net = test_network();
    let trace = test_trace(&net);
    // Connection 0 is driven inline; 1..=CONNECTIONS run at full speed
    // alongside it and SLOW pauses between batches.
    const SLOW: usize = CONNECTIONS + 1;
    let reference = reference_outcomes(&net, &trace, SLOW + 1);

    // A tiny window (2 credits) forces every client to stall on its own
    // acks between batches; no served trajectory may be affected, and a
    // slow client must not corrupt anyone else's.
    let server = spawn_server(&net, 2, 0);
    let addr = server.addr();
    let concurrent: Vec<(Vec<WireOutcome>, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (1..=SLOW)
            .map(|conn| {
                let trace = &trace;
                let pause = if conn == SLOW {
                    Duration::from_millis(2)
                } else {
                    Duration::ZERO
                };
                scope.spawn(move || drive_connection(addr, conn, trace, pause))
            })
            .collect();

        let mut client = Client::connect(addr).expect("client connects");
        assert_eq!(client.credits(), 2, "window mirrors queue capacity");
        let session = client
            .open_session(&SessionSpec {
                seed: session_seed(0),
                ..spec()
            })
            .expect("session opens");
        for batch in trace.chunks(2) {
            client.submit(session, batch).expect("batch submits");
        }
        client.wait_acks().expect("acks arrive");
        let outcomes = client.take_outcomes(session);
        assert_bit_identical(0, &outcomes, &reference[0]);
        assert_eq!(
            client.latencies_ns().len(),
            trace.chunks(2).count(),
            "one latency sample per acked batch"
        );
        client.goodbye().expect("orderly goodbye");

        handles
            .into_iter()
            .map(|handle| handle.join().expect("connection thread"))
            .collect()
    });

    for (conn, (outcomes, _)) in (1..).zip(&concurrent) {
        assert_bit_identical(conn, outcomes, &reference[conn]);
    }
    let (_, slow_stall_ns) = &concurrent[SLOW - 1];
    assert!(
        *slow_stall_ns > 0,
        "the slowed client stalls on its own window"
    );
    server.shutdown().expect("clean shutdown");
}

/// A batch one round longer than the credit window goes out as
/// window-sized frames, where waiting for credits the window can never
/// hold would block forever, and is served bit-identically. The client
/// runs on its own thread, so a hang fails the test in bounded time
/// (the hung thread is left behind, not joined).
#[test]
fn a_batch_longer_than_the_window_is_split_into_frames() {
    const WINDOW: usize = 2;
    let net = test_network();
    let trace = test_trace(&net);
    let reference = reference_outcomes(&net, &trace, 1);
    let server = spawn_server(&net, WINDOW, 0);
    let addr = server.addr();

    let (tx, rx) = std::sync::mpsc::channel();
    let client = std::thread::spawn(move || {
        let converse = || -> Result<(u32, Vec<WireOutcome>), FluxdError> {
            let mut client = Client::connect(addr)?;
            let window = client.credits();
            let session = client.open_session(&SessionSpec {
                seed: session_seed(0),
                ..spec()
            })?;
            for batch in trace.chunks(WINDOW + 1) {
                client.submit(session, batch)?;
            }
            client.wait_acks()?;
            let outcomes = client.take_outcomes(session);
            client.goodbye()?;
            Ok((window, outcomes))
        };
        drop(tx.send(converse()));
    });
    let (window, outcomes) = rx
        .recv_timeout(Duration::from_secs(30))
        .expect("an over-window submit returns")
        .expect("the conversation succeeds");
    client.join().expect("client thread");
    assert_eq!(window, WINDOW as u32, "window mirrors queue capacity");
    assert_bit_identical(0, &outcomes, &reference[0]);
    server.shutdown().expect("clean shutdown");
}

/// The served checkpoint is the in-process session's checkpoint
/// document, byte for byte. It restores, and the restored session fed
/// the next rounds stays bit-identical to the uninterrupted in-process
/// session.
#[test]
fn served_checkpoint_matches_in_process_checkpoint() {
    let net = test_network();
    let trace = test_trace(&net);
    let (head, tail) = trace.split_at(ROUNDS / 2);

    // In-process reference checkpoint.
    let engine = Engine::for_network(&net, FluxModel::default()).expect("valid engine");
    let mut solo = engine
        .open_session(&session_config(), session_seed(0))
        .expect("session opens");
    for round in head {
        solo.ingest(round).expect("round ingests");
    }
    let want = solo
        .checkpoint_compact(2)
        .to_json()
        .expect("checkpoint serializes");

    let server = spawn_server(&net, 16, 0);
    let mut client = Client::connect(server.addr()).expect("client connects");
    let session = client
        .open_session(&SessionSpec {
            seed: session_seed(0),
            ..spec()
        })
        .expect("session opens");
    client.submit(session, head).expect("trace submits");
    let got = client.checkpoint(session).expect("checkpoint arrives");
    assert_eq!(got, want, "served checkpoint is byte-identical");

    let mut revived = engine
        .restore_compact_json(&got)
        .expect("served checkpoint restores");
    let mut served_on = Vec::new();
    let mut reference = Vec::new();
    for round in tail {
        let outcome = revived.ingest(round).expect("round ingests");
        served_on.push(WireOutcome {
            time: outcome.time,
            residual: outcome.residual,
            estimates: outcome.estimates.iter().map(|p| (p.x, p.y)).collect(),
            active: outcome.active,
        });
        reference.push(solo.ingest(round).expect("round ingests"));
    }
    assert_bit_identical(0, &served_on, &reference);
    assert_eq!(revived.checkpoint_compact(2), solo.checkpoint_compact(2));

    // Suspend/resume round-trips over the wire too.
    client.suspend(session, 0).expect("suspend applies");
    client.resume(session, 0).expect("resume applies");

    client.goodbye().expect("orderly goodbye");
    server.shutdown().expect("clean shutdown");
}

/// A daemon over a hibernating grid (`hibernate_after: 1`) serving two
/// sessions fed on alternate drains: every drain revives the session it
/// feeds and evicts the other. Served trajectories stay bit-identical
/// to solo in-process sessions, and `Checkpoint`, `Query`, `Suspend`
/// and `Resume` on a cold session answer as the solo session does,
/// checkpoint JSON byte for byte.
#[test]
fn hibernating_server_matches_solo_sessions() {
    let net = test_network();
    let trace = test_trace(&net);
    let (head, last) = trace.split_at(ROUNDS - 1);
    let engine = Engine::for_network(&net, FluxModel::default()).expect("valid engine");
    let mut solos: Vec<_> = (0..2)
        .map(|conn| {
            engine
                .open_session(&session_config(), session_seed(conn))
                .expect("session opens")
        })
        .collect();
    let checkpoint_json = |solo: &fluxprint_engine::Session| {
        solo.checkpoint_compact(2)
            .to_json()
            .expect("checkpoint serializes")
    };

    let evictions = || {
        fluxprint_telemetry::snapshot()
            .counter(fluxprint_telemetry::names::GRID_HIBERNATE_EVICTIONS)
    };
    let before = evictions();
    let server = spawn_server(&net, 16, 1);
    let mut client = Client::connect(server.addr()).expect("client connects");
    let sessions: Vec<u32> = (0..2)
        .map(|conn| {
            client
                .open_session(&SessionSpec {
                    seed: session_seed(conn),
                    ..spec()
                })
                .expect("session opens")
        })
        .collect();
    // One submit per drain: the client waits for each ack, so session 0
    // is fed on even drains and session 1 on odd ones.
    let mut served = vec![Vec::new(); 2];
    let mut reference = vec![Vec::new(); 2];
    for round in head {
        for (conn, &session) in sessions.iter().enumerate() {
            client
                .submit(session, std::slice::from_ref(round))
                .expect("round submits");
            client.wait_acks().expect("acks arrive");
            served[conn].extend(client.take_outcomes(session));
            reference[conn].push(solos[conn].ingest(round).expect("round ingests"));
        }
    }

    // Session 0 sat out the last drain, so it is cold. Its checkpoint and
    // the query read it as it lies.
    assert_eq!(
        client.checkpoint(sessions[0]).expect("checkpoint arrives"),
        checkpoint_json(&solos[0]),
        "cold checkpoint is byte-identical"
    );
    let (x, y) = client.query(sessions[0], 0).expect("query answers");
    let want = solos[0].estimate(0).expect("user exists");
    assert_eq!(
        (x.to_bits(), y.to_bits()),
        (want.x.to_bits(), want.y.to_bits())
    );

    // Feeding only session 0 now evicts session 1, whose lifecycle calls
    // then revive it.
    client.submit(sessions[0], last).expect("round submits");
    client.wait_acks().expect("acks arrive");
    served[0].extend(client.take_outcomes(sessions[0]));
    reference[0].push(solos[0].ingest(&last[0]).expect("round ingests"));
    assert_eq!(
        client.checkpoint(sessions[1]).expect("checkpoint arrives"),
        checkpoint_json(&solos[1])
    );
    client.suspend(sessions[1], 0).expect("suspend applies");
    client.resume(sessions[1], 0).expect("resume applies");
    solos[1].suspend(0).expect("suspend applies");
    solos[1].resume(0).expect("resume applies");
    for (conn, &session) in sessions.iter().enumerate() {
        assert_bit_identical(conn, &served[conn], &reference[conn]);
        assert_eq!(
            client.checkpoint(session).expect("checkpoint arrives"),
            checkpoint_json(&solos[conn]),
            "conn {conn}: final checkpoint"
        );
    }

    client.goodbye().expect("orderly goodbye");
    server.shutdown().expect("clean shutdown");
    // The core thread merges its telemetry as it exits. No other test in
    // this binary hibernates, so any eviction counted here is this one's.
    assert!(evictions() > before, "the server's grid must have evicted");
}
