//! Session hibernation at the grid level: idle residents drop their
//! sniffer-set template and turn cold, and revive transparently, with
//! the grid's determinism contract intact — outcomes and final session
//! states are bit-identical to an always-resident fleet at any idle
//! threshold and any shard count, through arbitrary evict/revive
//! cycles, and across a checkpoint/restore that never wakes the cold
//! residents.

use rand::rngs::StdRng;
use rand::SeedableRng;

use fluxprint_engine::{
    CompactCheckpoint, Engine, Grid, GridConfig, Session, SessionConfig, SessionId, StepOutcome,
    Submit,
};
use fluxprint_fluxmodel::FluxModel;
use fluxprint_geometry::Point2;
use fluxprint_netsim::{Network, NetworkBuilder, NoiseModel, ObservationRound, Sniffer};
use fluxprint_smc::SmcConfig;

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
        smc: SmcConfig {
            n_predictions: 120,
            keep_m: 8,
            ..Default::default()
        },
        start_time: 0.0,
        warm: false,
    }
}

/// Simulated rounds from a fixed sniffer over a user walking east.
fn rounds(net: &Network, n: usize, seed: u64) -> Vec<ObservationRound> {
    let mut rng = StdRng::seed_from_u64(seed);
    let sniffer = Sniffer::random_count(net, 24, &mut rng).unwrap();
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

/// User 0's estimate reads bit for bit the same on both sessions.
fn assert_same_estimate(a: &Session, b: &Session) {
    let (ea, eb) = (a.estimate(0).unwrap(), b.estimate(0).unwrap());
    assert_eq!(ea.x.to_bits(), eb.x.to_bits());
    assert_eq!(ea.y.to_bits(), eb.y.to_bits());
}

fn grid_config(hibernate_after: u64) -> GridConfig {
    GridConfig {
        shards: 2,
        queue_capacity: 16,
        hibernate_after,
        ..GridConfig::default()
    }
}

/// Duty-cycled fleet: each round only a rotating subset of sessions
/// receives the round, and every round ends with a drain barrier — the
/// pattern that accrues idle rounds on the quiet sessions. Returns the
/// per-session outcomes and final session checkpoints.
fn run_duty_cycled(
    engine: &Engine,
    hibernate_after: u64,
    trace: &[ObservationRound],
    sessions: usize,
    active_every: usize,
) -> (Vec<Vec<StepOutcome>>, Vec<CompactCheckpoint>, usize) {
    let mut grid = Grid::open(engine.clone(), &grid_config(hibernate_after)).unwrap();
    let ids: Vec<SessionId> = (0..sessions)
        .map(|s| grid.open_session(&config(1), 100 + s as u64).unwrap())
        .collect();
    let mut peak_hibernated = 0;
    for (i, round) in trace.iter().enumerate() {
        for (s, &id) in ids.iter().enumerate() {
            if (s + i) % active_every == 0 {
                assert_eq!(grid.submit(id, round.clone()).unwrap(), Submit::Queued);
            }
        }
        grid.drain().unwrap();
        peak_hibernated = peak_hibernated.max(grid.hibernated_sessions());
    }
    let outcomes = ids
        .iter()
        .map(|&id| grid.take_outcomes(id).unwrap())
        .collect();
    // Reading final state revives cold residents; state equality after
    // an evict/revive cycle is exactly the bit-transparency claim.
    let finals = ids
        .iter()
        .map(|&id| grid.session_mut(id).unwrap().checkpoint_compact(2))
        .collect();
    (outcomes, finals, peak_hibernated)
}

/// The hibernation determinism contract: a duty-cycled fleet produces
/// bit-identical outcomes and final session states whether idle
/// sessions stay resident or hibernate at any threshold.
/// The CI workflow runs this test under `FLUXPRINT_THREADS=1` and `=4`
/// to pin the guarantee at both pool shapes.
#[test]
fn hibernating_grid_matches_always_resident_bitwise() {
    let net = network(81);
    let trace = rounds(&net, 8, 82);
    let engine = Engine::for_network(&net, FluxModel::default()).unwrap();
    const SESSIONS: usize = 6;

    let (want_out, want_finals, resident_peak) = run_duty_cycled(&engine, 0, &trace, SESSIONS, 3);
    assert_eq!(resident_peak, 0, "hibernation off must never evict");

    for threshold in [1u64, 2] {
        let (got_out, got_finals, peak) = run_duty_cycled(&engine, threshold, &trace, SESSIONS, 3);
        assert!(
            peak > 0,
            "threshold {threshold} should evict at least one idle session"
        );
        for (s, (got, want)) in got_out.iter().zip(&want_out).enumerate() {
            assert_eq!(got.len(), want.len(), "session {s}");
            for (g, w) in got.iter().zip(want) {
                assert_outcomes_bit_identical(g, w);
            }
        }
        assert_eq!(got_finals, want_finals, "threshold {threshold}");
    }
}

/// Arbitrary evict/revive cycles leave a session bit-identical to one
/// that never left memory: hibernate via idle drains, revive via the
/// drain after the next submit, repeat, and compare against a solo
/// session fed the same rounds back to back.
#[test]
fn evict_revive_cycles_are_bit_transparent() {
    let net = network(83);
    let trace = rounds(&net, 4, 84);
    let engine = Engine::for_network(&net, FluxModel::default()).unwrap();

    let mut solo = engine.open_session(&config(1), 200).unwrap();
    let want: Vec<StepOutcome> = trace.iter().map(|r| solo.ingest(r).unwrap()).collect();

    let mut grid = Grid::open(engine.clone(), &grid_config(1)).unwrap();
    let id = grid.open_session(&config(1), 200).unwrap();
    // Fed in step with the grid, for reads between rounds.
    let mut reference = engine.open_session(&config(1), 200).unwrap();
    let mut got = Vec::new();
    for round in &trace {
        // Idle drains push the resident over the threshold and out.
        grid.drain().unwrap();
        grid.drain().unwrap();
        assert!(grid.is_hibernated(id).unwrap(), "two idle drains evict");
        assert_eq!(grid.hot_sessions(), 0);
        assert!(grid.hibernated_bytes() > 0);
        // A cold resident is read as it lies and stays cold. Submit only
        // queues; the drain that ingests the round revives it.
        assert_same_estimate(grid.session(id).unwrap(), &reference);
        assert!(grid.is_hibernated(id).unwrap(), "a read must not revive");
        reference.ingest(round).unwrap();
        assert_eq!(grid.submit(id, round.clone()).unwrap(), Submit::Queued);
        assert!(grid.is_hibernated(id).unwrap(), "submit must not revive");
        assert_eq!(grid.drain().unwrap(), 1);
        assert!(!grid.is_hibernated(id).unwrap(), "the drain revives");
        got.extend(grid.take_outcomes(id).unwrap());
    }
    assert_eq!(got.len(), want.len());
    for (g, w) in got.iter().zip(&want) {
        assert_outcomes_bit_identical(g, w);
    }
    assert_eq!(
        grid.session_mut(id).unwrap().checkpoint_compact(2),
        solo.checkpoint_compact(2),
        "state after evict/revive cycles must match the uninterrupted run"
    );
}

/// Activity skewed by id: only even ids ever get rounds (each on
/// alternate drains, so they also evict and revive) while odd ids sit
/// idle. Outcomes and final states stay bit-identical to solo sessions
/// at every shard count.
#[test]
fn skewed_activity_matches_solo_sessions_bitwise() {
    let net = network(89);
    let trace = rounds(&net, 6, 90);
    let engine = Engine::for_network(&net, FluxModel::default()).unwrap();
    const SESSIONS: usize = 8;
    let active = |s: usize, i: usize| s.is_multiple_of(2) && (s / 2 + i).is_multiple_of(2);

    for shards in [1usize, 2, 4] {
        let mut grid = Grid::open(
            engine.clone(),
            &GridConfig {
                shards,
                ..grid_config(1)
            },
        )
        .unwrap();
        let ids: Vec<SessionId> = (0..SESSIONS)
            .map(|s| grid.open_session(&config(1), 500 + s as u64).unwrap())
            .collect();
        for (i, round) in trace.iter().enumerate() {
            for (s, &id) in ids.iter().enumerate() {
                if active(s, i) {
                    assert_eq!(grid.submit(id, round.clone()).unwrap(), Submit::Queued);
                }
            }
            grid.drain().unwrap();
        }
        for (s, &id) in ids.iter().enumerate() {
            let mut solo = engine.open_session(&config(1), 500 + s as u64).unwrap();
            let want: Vec<StepOutcome> = trace
                .iter()
                .enumerate()
                .filter(|&(i, _)| active(s, i))
                .map(|(_, r)| solo.ingest(r).unwrap())
                .collect();
            let got = grid.take_outcomes(id).unwrap();
            assert_eq!(got.len(), want.len(), "shards={shards} session={s}");
            for (g, w) in got.iter().zip(&want) {
                assert_outcomes_bit_identical(g, w);
            }
            assert_eq!(
                grid.session_mut(id).unwrap().checkpoint_compact(2),
                solo.checkpoint_compact(2),
                "shards={shards} session={s}"
            );
        }
    }
}

/// Grid checkpoint/restore round-trips hibernated residents through
/// their compact form without reviving them, and the revived-on-demand
/// continuation is bit-identical to never having stopped.
#[test]
fn checkpoint_round_trips_cold_residents_without_revival() {
    let net = network(85);
    let trace = rounds(&net, 6, 86);
    let engine = Engine::for_network(&net, FluxModel::default()).unwrap();

    let mut grid = Grid::open(engine.clone(), &grid_config(1)).unwrap();
    let busy = grid.open_session(&config(1), 300).unwrap();
    let idle = grid.open_session(&config(1), 301).unwrap();
    // Warm both up, then let the idle one go cold.
    for round in &trace[..3] {
        grid.submit(busy, round.clone()).unwrap();
        grid.submit(idle, round.clone()).unwrap();
        grid.drain().unwrap();
    }
    grid.submit(busy, trace[3].clone()).unwrap();
    grid.drain().unwrap();
    grid.submit(busy, trace[4].clone()).unwrap();
    grid.drain().unwrap();
    assert!(grid.is_hibernated(idle).unwrap());
    assert!(!grid.is_hibernated(busy).unwrap());

    let checkpoint = grid.checkpoint();
    assert!(!checkpoint.sessions[busy.index()].hibernated);
    assert!(checkpoint.sessions[idle.index()].hibernated);
    // One resident's checkpoint is its grid entry, and taking it leaves
    // a cold resident cold.
    for id in [busy, idle] {
        assert_eq!(
            grid.session_checkpoint(id).unwrap(),
            checkpoint.sessions[id.index()].session
        );
    }
    assert!(grid.is_hibernated(idle).unwrap());
    let json = grid.checkpoint_json().unwrap();

    // The restored grid adopts the cold resident cold: no revival, the
    // compact bytes carry over.
    let mut revived = Grid::restore_json(engine.clone(), &grid_config(1), &json).unwrap();
    assert_eq!(revived.sessions(), 2);
    assert_eq!(revived.hibernated_sessions(), 1);
    assert!(revived.is_hibernated(idle).unwrap());
    assert_same_estimate(revived.session(idle).unwrap(), grid.session(idle).unwrap());
    assert!(
        revived.is_hibernated(idle).unwrap(),
        "a read must not revive"
    );

    // Reference: the original grid continues uninterrupted.
    grid.submit(idle, trace[5].clone()).unwrap();
    grid.submit(busy, trace[5].clone()).unwrap();
    grid.join().unwrap();
    // Restored: same continuation; the join's drain revives the cold
    // session from the round-tripped compact form.
    revived.take_outcomes(busy).unwrap();
    revived.submit(idle, trace[5].clone()).unwrap();
    revived.submit(busy, trace[5].clone()).unwrap();
    revived.join().unwrap();

    for id in [busy, idle] {
        let want = grid.session_mut(id).unwrap().checkpoint_compact(2);
        let got = revived.session_mut(id).unwrap().checkpoint_compact(2);
        assert_eq!(got, want, "session {} diverged", id.index());
    }
    let got = revived.take_outcomes(idle).unwrap();
    let mut want = grid.take_outcomes(idle).unwrap();
    // The original grid's idle log still holds the pre-checkpoint
    // outcomes; compare the post-checkpoint tail only.
    want.drain(..want.len() - got.len());
    assert_eq!(got.len(), want.len());
    for (g, w) in got.iter().zip(&want) {
        assert_outcomes_bit_identical(g, w);
    }
}

/// `hibernated_bytes` counts cold residents only: identical idle
/// sessions each add the same figure when they go cold and take it back
/// when they revive, whether by mutable access or by the drain that
/// ingests their next round, so a grid with every resident hot reads 0.
#[test]
fn hibernated_bytes_count_cold_residents_only() {
    let net = network(87);
    let trace = rounds(&net, 1, 88);
    let engine = Engine::for_network(&net, FluxModel::default()).unwrap();
    let mut grid = Grid::open(engine, &grid_config(1)).unwrap();
    let ids: Vec<SessionId> = (0..3)
        .map(|s| grid.open_session(&config(2), 400 + s).unwrap())
        .collect();
    assert_eq!(grid.hibernated_bytes(), 0, "open sessions are hot");
    grid.drain().unwrap();
    assert_eq!(grid.hibernated_sessions(), 3);
    let all = grid.hibernated_bytes();
    assert!(
        all > 0 && all.is_multiple_of(3),
        "three equal cold sessions: {all}"
    );

    grid.session_mut(ids[0]).unwrap();
    assert_eq!(grid.hibernated_bytes(), all / 3 * 2);
    grid.submit(ids[1], trace[0].clone()).unwrap();
    grid.submit(ids[2], trace[0].clone()).unwrap();
    grid.drain().unwrap();
    assert_eq!(grid.hot_sessions(), 2, "the idle one evicts again");
    assert_eq!(grid.hibernated_bytes(), all / 3);
    grid.session_mut(ids[0]).unwrap();
    assert_eq!(grid.hibernated_sessions(), 0);
    assert_eq!(grid.hibernated_bytes(), 0, "every resident is hot");
}
