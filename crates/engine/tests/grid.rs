//! End-to-end tests of the sharded grid: bit-identity with solo
//! sessions at every shard count, backpressure, batch ingestion,
//! checkpoint/restore with pending rounds, and grid-scale ingest edge
//! cases (churn to an empty sniffer set, all-suspended rounds).

use rand::rngs::StdRng;
use rand::SeedableRng;

use fluxprint_engine::{
    Engine, EngineError, Grid, GridConfig, SessionConfig, SessionId, Submit, UserState,
};
use fluxprint_fluxmodel::FluxModel;
use fluxprint_fluxpar::Pool;
use fluxprint_geometry::Point2;
use fluxprint_netsim::{
    NetsimError, Network, NetworkBuilder, NoiseModel, ObservationRound, Sniffer,
};
use fluxprint_smc::StepOutcome;
use fluxprint_solver::CacheScratch;

fn network(seed: u64) -> Network {
    let mut rng = StdRng::seed_from_u64(seed);
    NetworkBuilder::new()
        .field(fluxprint_geometry::Rect::square(30.0).unwrap())
        .perturbed_grid(12, 12, 0.3)
        .radius(4.0)
        .build(&mut rng)
        .unwrap()
}

fn config(users: usize) -> SessionConfig {
    SessionConfig {
        users,
        smc: fluxprint_smc::SmcConfig {
            n_predictions: 120,
            keep_m: 8,
            ..Default::default()
        },
        start_time: 0.0,
        warm: false,
    }
}

/// Simulated rounds from a fixed sniffer over a user walking east.
fn rounds(net: &Network, sniffer: &Sniffer, n: usize, seed: u64) -> Vec<ObservationRound> {
    let mut rng = StdRng::seed_from_u64(seed);
    (1..=n)
        .map(|i| {
            let t = i as f64;
            let user = (Point2::new(8.0 + 1.5 * t, 15.0), 2.0);
            let flux = net.simulate_flux(&[user], &mut rng).unwrap();
            sniffer.observe_round_smoothed(t, net, &flux, NoiseModel::None, &mut rng)
        })
        .collect()
}

fn assert_outcomes_bit_identical(a: &StepOutcome, b: &StepOutcome) {
    assert_eq!(a.time.to_bits(), b.time.to_bits());
    assert_eq!(a.active, b.active);
    assert_eq!(a.estimates.len(), b.estimates.len());
    for (ea, eb) in a.estimates.iter().zip(&b.estimates) {
        assert_eq!(ea.x.to_bits(), eb.x.to_bits());
        assert_eq!(ea.y.to_bits(), eb.y.to_bits());
    }
    for (sa, sb) in a.stretches.iter().zip(&b.stretches) {
        assert_eq!(sa.to_bits(), sb.to_bits());
    }
    assert_eq!(a.residual.to_bits(), b.residual.to_bits());
}

/// Solo reference: each session driven alone through `Session::ingest`.
fn solo_outcomes(
    engine: &Engine,
    sessions: usize,
    trace: &[ObservationRound],
) -> Vec<Vec<StepOutcome>> {
    (0..sessions)
        .map(|s| {
            let mut session = engine.open_session(&config(1), 100 + s as u64).unwrap();
            trace.iter().map(|r| session.ingest(r).unwrap()).collect()
        })
        .collect()
}

/// The grid determinism contract: for any shard count and thread budget,
/// grid outcomes are bit-identical to driving each session alone —
/// including with submissions interleaved round-major across sessions
/// and drains interleaved mid-stream.
#[test]
fn grid_matches_solo_sessions_at_every_shard_count() {
    let net = network(1);
    let mut srng = StdRng::seed_from_u64(2);
    let sniffer = Sniffer::random_count(&net, 24, &mut srng).unwrap();
    let trace = rounds(&net, &sniffer, 4, 3);
    let engine = Engine::for_network(&net, FluxModel::default()).unwrap();
    const SESSIONS: usize = 6;
    let reference = solo_outcomes(&engine, SESSIONS, &trace);

    // threads: 0 inherits the process-wide pool width, which CI pins via
    // FLUXPRINT_THREADS — so this covers (threads, shards) combinations.
    for shards in [1usize, 4] {
        let grid_config = GridConfig {
            shards,
            queue_capacity: 8,
            threads: 0,
            hibernate_after: 0,
        };
        let mut grid = Grid::open(engine.clone(), &grid_config).unwrap();
        let ids: Vec<SessionId> = (0..SESSIONS)
            .map(|s| grid.open_session(&config(1), 100 + s as u64).unwrap())
            .collect();
        assert_eq!(grid.sessions(), SESSIONS);
        assert_eq!(grid.shard_count(), shards);

        // Round-major interleaving with a drain barrier mid-stream.
        for (i, round) in trace.iter().enumerate() {
            for &id in &ids {
                assert_eq!(grid.submit(id, round.clone()).unwrap(), Submit::Queued);
            }
            if i == 1 {
                assert_eq!(grid.drain().unwrap(), 2 * SESSIONS as u64);
            }
        }
        let total = grid.join().unwrap();
        assert_eq!(total, (trace.len() * SESSIONS) as u64);

        for (s, &id) in ids.iter().enumerate() {
            assert_eq!(grid.queued(id).unwrap(), 0);
            let got = grid.take_outcomes(id).unwrap();
            assert_eq!(got.len(), trace.len(), "shards={shards} session={s}");
            for (g, want) in got.iter().zip(&reference[s]) {
                assert_outcomes_bit_identical(g, want);
            }
            // Outcome logs are take-once.
            assert!(grid.take_outcomes(id).unwrap().is_empty());
        }
    }
}

#[test]
fn batch_ingestion_matches_per_round_ingestion() {
    let net = network(4);
    let mut srng = StdRng::seed_from_u64(5);
    let sniffer = Sniffer::random_count(&net, 24, &mut srng).unwrap();
    let trace = rounds(&net, &sniffer, 5, 6);
    let engine = Engine::for_network(&net, FluxModel::default()).unwrap();

    let mut one_by_one = engine.open_session(&config(1), 9).unwrap();
    let reference: Vec<StepOutcome> = trace
        .iter()
        .map(|r| one_by_one.ingest(r).unwrap())
        .collect();

    // Whole-trace batch on the default pool.
    let mut batched = engine.open_session(&config(1), 9).unwrap();
    let got = batched
        .ingest_batch_in(&trace, fluxprint_fluxpar::pool(), &mut CacheScratch::new())
        .unwrap();
    assert_eq!(got.len(), reference.len());
    for (g, w) in got.iter().zip(&reference) {
        assert_outcomes_bit_identical(g, w);
    }
    assert_eq!(
        batched.checkpoint_compact(2),
        one_by_one.checkpoint_compact(2),
        "batch and per-round sessions must end in identical states"
    );

    // Split batches on an explicit one-thread pool with a reused scratch
    // (the shard-worker configuration).
    let mut split = engine.open_session(&config(1), 9).unwrap();
    let pool = Pool::with_threads(1);
    let mut scratch = CacheScratch::new();
    let mut got = split
        .ingest_batch_in(&trace[..2], &pool, &mut scratch)
        .unwrap();
    got.extend(
        split
            .ingest_batch_in(&trace[2..], &pool, &mut scratch)
            .unwrap(),
    );
    for (g, w) in got.iter().zip(&reference) {
        assert_outcomes_bit_identical(g, w);
    }
}

#[test]
fn batch_error_keeps_prefix_and_stays_resumable() {
    let net = network(7);
    let mut srng = StdRng::seed_from_u64(8);
    let sniffer = Sniffer::random_count(&net, 24, &mut srng).unwrap();
    let trace = rounds(&net, &sniffer, 4, 9);
    let engine = Engine::for_network(&net, FluxModel::default()).unwrap();

    let mut reference = engine.open_session(&config(1), 21).unwrap();
    let want: Vec<StepOutcome> = trace.iter().map(|r| reference.ingest(r).unwrap()).collect();

    // Same rounds with a malformed one (empty id set — what a sniffer
    // churned down to nothing would emit) spliced into the middle. The
    // bad round fails validation before any randomness is drawn, so the
    // session stays bit-aligned with the reference stream.
    let empty = ObservationRound {
        time: 2.5,
        ids: Vec::new(),
        fluxes: Vec::new(),
    };
    assert!(matches!(
        empty.validate(),
        Err(NetsimError::BadRound { field: "ids" })
    ));
    let mut batch = trace[..2].to_vec();
    batch.push(empty);
    batch.extend_from_slice(&trace[2..]);

    let mut session = engine.open_session(&config(1), 21).unwrap();
    let pool = Pool::with_threads(1);
    let mut scratch = CacheScratch::new();
    let mut out = Vec::new();
    let err = session
        .ingest_batch_into(&batch, &pool, &mut scratch, &mut out)
        .unwrap_err();
    assert!(matches!(
        err,
        EngineError::Netsim(NetsimError::BadRound { field: "ids" })
    ));
    // The prefix before the bad round is applied and its outcomes kept.
    assert_eq!(out.len(), 2);
    assert_eq!(session.rounds_ingested(), 2);
    // Skipping the bad round, the session resumes bit-identically.
    session
        .ingest_batch_into(&trace[2..], &pool, &mut scratch, &mut out)
        .unwrap();
    assert_eq!(out.len(), want.len());
    for (g, w) in out.iter().zip(&want) {
        assert_outcomes_bit_identical(g, w);
    }
}

#[test]
fn backpressure_hands_the_round_back() {
    let net = network(10);
    let mut srng = StdRng::seed_from_u64(11);
    let sniffer = Sniffer::random_count(&net, 24, &mut srng).unwrap();
    let trace = rounds(&net, &sniffer, 3, 12);
    let engine = Engine::for_network(&net, FluxModel::default()).unwrap();

    let mut grid = Grid::open(
        engine,
        &GridConfig {
            shards: 2,
            queue_capacity: 2,
            threads: 1,
            hibernate_after: 0,
        },
    )
    .unwrap();
    let id = grid.open_session(&config(1), 33).unwrap();

    assert_eq!(grid.submit(id, trace[0].clone()).unwrap(), Submit::Queued);
    assert_eq!(grid.submit(id, trace[1].clone()).unwrap(), Submit::Queued);
    assert_eq!(grid.queued(id).unwrap(), 2);
    // Queue full: the round comes back untouched.
    match grid.submit(id, trace[2].clone()).unwrap() {
        Submit::Backpressure(returned) => assert_eq!(returned, trace[2]),
        Submit::Queued => panic!("expected backpressure at capacity"),
    }
    // Draining frees the queue; the resubmit is accepted and processed.
    assert_eq!(grid.drain().unwrap(), 2);
    assert_eq!(grid.submit(id, trace[2].clone()).unwrap(), Submit::Queued);
    assert_eq!(grid.join().unwrap(), 3);
    assert_eq!(grid.take_outcomes(id).unwrap().len(), 3);

    // Unknown ids are rejected, not panicked on.
    assert!(matches!(
        grid.submit(SessionId(99), trace[0].clone()),
        Err(EngineError::UnknownSession {
            index: 99,
            sessions: 1
        })
    ));
    assert!(matches!(
        grid.queued(SessionId(1)),
        Err(EngineError::UnknownSession { .. })
    ));
}

#[test]
fn drain_reports_session_failure_and_recovers() {
    let net = network(13);
    let mut srng = StdRng::seed_from_u64(14);
    let sniffer = Sniffer::random_count(&net, 24, &mut srng).unwrap();
    let trace = rounds(&net, &sniffer, 3, 15);
    let engine = Engine::for_network(&net, FluxModel::default()).unwrap();

    let mut solo = engine.open_session(&config(1), 55).unwrap();
    let want: Vec<StepOutcome> = trace.iter().map(|r| solo.ingest(r).unwrap()).collect();

    let mut grid = Grid::open(
        engine,
        &GridConfig {
            shards: 2,
            queue_capacity: 8,
            threads: 2,
            hibernate_after: 0,
        },
    )
    .unwrap();
    let id = grid.open_session(&config(1), 55).unwrap();
    grid.submit(id, trace[0].clone()).unwrap();
    let bad = ObservationRound {
        time: 1.5,
        ids: Vec::new(),
        fluxes: Vec::new(),
    };
    grid.submit(id, bad).unwrap();
    grid.submit(id, trace[1].clone()).unwrap();
    grid.submit(id, trace[2].clone()).unwrap();

    let err = grid.drain().unwrap_err();
    match err {
        EngineError::SessionFailed { session, round, .. } => {
            assert_eq!(session, id.index());
            assert_eq!(round, 1, "failure position within the batch");
        }
        other => panic!("expected SessionFailed, got {other:?}"),
    }
    // The failing round was consumed; the valid remainder is still queued
    // and the next drain completes the trace bit-identically.
    assert_eq!(grid.queued(id).unwrap(), 2);
    assert_eq!(grid.drain().unwrap(), 2);
    let got = grid.take_outcomes(id).unwrap();
    assert_eq!(got.len(), want.len());
    for (g, w) in got.iter().zip(&want) {
        assert_outcomes_bit_identical(g, w);
    }
}

/// A failing session does not stop the drain: every healthy resident is
/// still ingested and every idle streak still advances, even when the
/// failures sit among healthy sessions whose ids share a residue mod the
/// shard count. The error is the lowest failing id's, the same at any
/// thread budget.
#[test]
fn drain_serves_every_session_past_failures() {
    let net = network(40);
    let mut srng = StdRng::seed_from_u64(41);
    let sniffer = Sniffer::random_count(&net, 24, &mut srng).unwrap();
    let trace = rounds(&net, &sniffer, 2, 42);
    let engine = Engine::for_network(&net, FluxModel::default()).unwrap();
    const SESSIONS: usize = 8;
    // Odd ids 1 and 3 fail; 5 is healthy and 7 stays idle.
    let failing = |s: usize| s == 1 || s == 3;
    let idle = 7;
    let reference = solo_outcomes(&engine, SESSIONS, &trace);
    let bad = ObservationRound {
        time: 1.5,
        ids: Vec::new(),
        fluxes: Vec::new(),
    };

    let mut errors = Vec::new();
    for threads in [1usize, 4] {
        let mut grid = Grid::open(
            engine.clone(),
            &GridConfig {
                shards: 2,
                queue_capacity: 8,
                threads,
                hibernate_after: 1,
            },
        )
        .unwrap();
        let ids: Vec<SessionId> = (0..SESSIONS)
            .map(|s| grid.open_session(&config(1), 100 + s as u64).unwrap())
            .collect();
        for (s, &id) in ids.iter().enumerate() {
            if s == idle {
                continue;
            }
            grid.submit(id, trace[0].clone()).unwrap();
            if failing(s) {
                grid.submit(id, bad.clone()).unwrap();
            }
            grid.submit(id, trace[1].clone()).unwrap();
        }

        let err = grid.drain().unwrap_err();
        assert!(
            matches!(
                err,
                EngineError::SessionFailed {
                    session: 1,
                    round: 1,
                    ..
                }
            ),
            "threads={threads}: {err:?}"
        );
        errors.push(format!("{err:?}"));
        for (s, &id) in ids.iter().enumerate() {
            let got = grid.take_outcomes(id).unwrap();
            if s == idle {
                assert!(got.is_empty());
                assert!(grid.is_hibernated(id).unwrap(), "idle streak advanced");
            } else if failing(s) {
                // The prefix before the bad round landed; the round after
                // it waits for the next drain.
                assert_eq!(got.len(), 1, "threads={threads} session={s}");
                assert_eq!(grid.queued(id).unwrap(), 1);
            } else {
                assert_eq!(got.len(), trace.len(), "threads={threads} session={s}");
                for (g, w) in got.iter().zip(&reference[s]) {
                    assert_outcomes_bit_identical(g, w);
                }
                assert_eq!(grid.queued(id).unwrap(), 0);
            }
        }
        // The failing sessions' remainders complete on the next drain.
        assert_eq!(grid.drain().unwrap(), 2);
    }
    assert_eq!(
        errors[0], errors[1],
        "the reported failure depends on threads"
    );
}

/// Satellite edge case: a round arriving while every user is suspended
/// takes the whole-round Null update — no sample moves, the clock still
/// advances — both through a bare session and through a grid drain.
#[test]
fn all_suspended_round_is_a_null_update() {
    let net = network(16);
    let mut srng = StdRng::seed_from_u64(17);
    let sniffer = Sniffer::random_count(&net, 24, &mut srng).unwrap();
    let trace = rounds(&net, &sniffer, 3, 18);
    let engine = Engine::for_network(&net, FluxModel::default()).unwrap();

    let mut grid = Grid::open(
        engine,
        &GridConfig {
            shards: 2,
            queue_capacity: 4,
            threads: 1,
            hibernate_after: 0,
        },
    )
    .unwrap();
    let id = grid.open_session(&config(2), 71).unwrap();
    grid.submit(id, trace[0].clone()).unwrap();
    grid.drain().unwrap();

    let session = grid.session_mut(id).unwrap();
    session.suspend(0).unwrap();
    session.suspend(1).unwrap();
    let frozen = [session.estimate(0).unwrap(), session.estimate(1).unwrap()];

    grid.submit(id, trace[1].clone()).unwrap();
    grid.drain().unwrap();
    let outcomes = grid.take_outcomes(id).unwrap();
    let null_round = outcomes.last().unwrap();
    assert!(null_round.active.iter().all(|&a| !a));
    assert!(null_round.stretches.iter().all(|&s| s == 0.0));

    let session = grid.session_mut(id).unwrap();
    assert_eq!(session.time(), trace[1].time, "clock must advance");
    for (u, before) in frozen.iter().enumerate() {
        let after = session.estimate(u).unwrap();
        assert_eq!(before.x.to_bits(), after.x.to_bits());
        assert_eq!(before.y.to_bits(), after.y.to_bits());
    }

    // Resuming continues normally.
    session.resume(0).unwrap();
    session.resume(1).unwrap();
    grid.submit(id, trace[2].clone()).unwrap();
    grid.drain().unwrap();
    assert_eq!(grid.session(id).unwrap().rounds_ingested(), 3);
    assert_eq!(
        grid.session(id).unwrap().user_states(),
        &[UserState::Active, UserState::Active]
    );
}

/// Satellite edge case: churn that would empty the sniffer set. The
/// sniffer itself refuses to be emptied, and a hand-built empty round is
/// rejected at ingest without perturbing the session.
#[test]
fn churn_to_empty_sniffer_set_is_rejected() {
    let net = network(19);
    let mut srng = StdRng::seed_from_u64(20);
    let mut sniffer = Sniffer::random_count(&net, 4, &mut srng).unwrap();
    let engine = Engine::for_network(&net, FluxModel::default()).unwrap();
    let mut session = engine.open_session(&config(1), 23).unwrap();

    let trace = rounds(&net, &sniffer, 1, 24);
    session.ingest(&trace[0]).unwrap();

    // Removing every sniffed id is refused at the producer.
    let all: Vec<_> = sniffer.ids().to_vec();
    assert!(matches!(
        sniffer.remove_ids(&all),
        Err(NetsimError::EmptyNetwork)
    ));

    // A consumer fed a forged empty round rejects it unchanged.
    let empty = ObservationRound {
        time: 2.0,
        ids: Vec::new(),
        fluxes: Vec::new(),
    };
    let before = session.checkpoint_compact(2);
    assert!(matches!(
        session.ingest(&empty),
        Err(EngineError::Netsim(NetsimError::BadRound { field: "ids" }))
    ));
    assert_eq!(session.rounds_ingested(), 1);
    assert_eq!(session.checkpoint_compact(2), before);
}

/// Satellite edge case: checkpoint/restore of a grid whose sessions have
/// non-empty pending batches. Restore-then-drain, at any shard count,
/// must be bit-identical to never having stopped.
#[test]
fn checkpoint_with_pending_rounds_restores_bit_identically() {
    let net = network(25);
    let mut srng = StdRng::seed_from_u64(26);
    let sniffer = Sniffer::random_count(&net, 24, &mut srng).unwrap();
    let trace = rounds(&net, &sniffer, 6, 27);
    let engine = Engine::for_network(&net, FluxModel::default()).unwrap();
    const SESSIONS: usize = 3;
    let grid_config = GridConfig {
        shards: 2,
        queue_capacity: 8,
        threads: 2,
        hibernate_after: 0,
    };

    let mut grid = Grid::open(engine.clone(), &grid_config).unwrap();
    let ids: Vec<SessionId> = (0..SESSIONS)
        .map(|s| grid.open_session(&config(1), 100 + s as u64).unwrap())
        .collect();
    // Ingest the first half, then queue the second half WITHOUT draining
    // so the checkpoint carries pending rounds.
    for round in &trace[..3] {
        for &id in &ids {
            grid.submit(id, round.clone()).unwrap();
        }
    }
    grid.drain().unwrap();
    for round in &trace[3..] {
        for &id in &ids {
            grid.submit(id, round.clone()).unwrap();
        }
    }
    for &id in &ids {
        assert_eq!(grid.queued(id).unwrap(), 3);
        // Clear the already-drained outcomes so both runs log only the
        // post-checkpoint rounds.
        grid.take_outcomes(id).unwrap();
    }

    let json = grid.checkpoint_json().unwrap();
    let checkpoint = grid.checkpoint();
    assert_eq!(checkpoint.sessions.len(), SESSIONS);
    assert!(checkpoint.sessions.iter().all(|s| s.pending.len() == 3));

    // Uninterrupted continuation.
    grid.join().unwrap();
    let want: Vec<Vec<StepOutcome>> = ids
        .iter()
        .map(|&id| grid.take_outcomes(id).unwrap())
        .collect();

    // Restored continuations: at the checkpointed shard count under a
    // different thread budget, and at fewer and more shards. Results
    // depend on neither, so each drains bit-identically.
    for shards in [2, 1, 3] {
        let restored_config = GridConfig {
            shards,
            queue_capacity: 16,
            threads: 1,
            hibernate_after: 0,
        };
        let mut revived = Grid::restore_json(engine.clone(), &restored_config, &json).unwrap();
        assert_eq!(revived.shard_count(), shards);
        assert_eq!(revived.sessions(), SESSIONS);
        for &id in &ids {
            assert_eq!(revived.queued(id).unwrap(), 3);
        }
        revived.join().unwrap();
        for (s, &id) in ids.iter().enumerate() {
            let got = revived.take_outcomes(id).unwrap();
            assert_eq!(got.len(), want[s].len(), "shards={shards}");
            for (g, w) in got.iter().zip(&want[s]) {
                assert_outcomes_bit_identical(g, w);
            }
        }
    }

    // A foreign format version is refused.
    let mut foreign = checkpoint.clone();
    foreign.version += 1;
    assert!(matches!(
        Grid::restore(engine, &grid_config, &foreign),
        Err(EngineError::UnsupportedVersion { .. })
    ));
}

#[test]
fn grid_config_validation() {
    let net = network(30);
    let engine = Engine::for_network(&net, FluxModel::default()).unwrap();
    assert!(matches!(
        Grid::open(
            engine.clone(),
            &GridConfig {
                shards: 0,
                queue_capacity: 4,
                threads: 0,
                hibernate_after: 0
            }
        ),
        Err(EngineError::BadConfig { field: "shards" })
    ));
    assert!(matches!(
        Grid::open(
            engine,
            &GridConfig {
                shards: 1,
                queue_capacity: 0,
                threads: 0,
                hibernate_after: 0
            }
        ),
        Err(EngineError::BadConfig {
            field: "queue_capacity"
        })
    ));
}
