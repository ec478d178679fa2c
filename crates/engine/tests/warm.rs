//! Warm-started solving at the session and grid level: thread-count
//! invariance, checkpoint round-trips mid-heat, and churn invalidation.

use rand::rngs::StdRng;
use rand::SeedableRng;

use fluxprint_engine::{
    Engine, Grid, GridConfig, SessionConfig, StepOutcome, Submit, WarmState, CHECKPOINT_VERSION,
    WARM_ESCAPE_EVERY,
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

fn config(users: usize, warm: bool) -> SessionConfig {
    SessionConfig {
        users,
        smc: SmcConfig {
            n_predictions: 120,
            keep_m: 8,
            ..Default::default()
        },
        start_time: 0.0,
        warm,
    }
}

/// Simulated rounds from a fixed sniffer over a user walking east.
fn rounds(net: &Network, n: usize, seed: u64) -> Vec<ObservationRound> {
    let mut rng = StdRng::seed_from_u64(seed);
    let sniffer = Sniffer::random_count(net, 40, &mut rng).unwrap();
    (1..=n)
        .map(|i| {
            let t = i as f64;
            let user = (Point2::new(8.0 + 1.2 * t, 15.0), 2.0);
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

/// Restore-then-ingest on a *warm* session is bit-identical to never
/// having stopped — the checkpoint carries the hot flags and the escape
/// cadence, so the revived session resumes the exact same search
/// schedule. The CI workflow runs this test under `FLUXPRINT_THREADS=1`
/// and `=4` to pin the guarantee at both pool shapes.
#[test]
fn warm_restore_then_ingest_matches_uninterrupted_run() {
    let net = network(21);
    // Long enough that the interruption lands mid-cadence with heat up.
    let trace = rounds(&net, 10, 22);
    let engine = Engine::for_network(&net, FluxModel::default()).unwrap();

    let mut uninterrupted = engine.open_session(&config(1, true), 23).unwrap();
    let reference: Vec<StepOutcome> = trace
        .iter()
        .map(|r| uninterrupted.ingest(r).unwrap())
        .collect();

    let mut first_half = engine.open_session(&config(1, true), 23).unwrap();
    for round in &trace[..5] {
        first_half.ingest(round).unwrap();
    }
    let cp = first_half.checkpoint_compact(2);
    assert_eq!(cp.version, CHECKPOINT_VERSION);
    let warm = cp.warm.as_ref().expect("warm session checkpoints Some");
    assert!(
        warm.hot.iter().any(|&h| h),
        "five active rounds should leave the user hot"
    );
    assert!(warm.rounds_since_escape > 0);
    let json = cp.to_json().unwrap();
    drop(first_half);

    let mut revived = engine.restore_compact_json(&json).unwrap();
    assert_eq!(revived.warm(), Some(warm));
    for (round, want) in trace[5..].iter().zip(&reference[5..]) {
        let got = revived.ingest(round).unwrap();
        assert_outcomes_bit_identical(&got, want);
    }
    assert_eq!(
        revived.checkpoint_compact(2).tracker,
        uninterrupted.checkpoint_compact(2).tracker
    );
    assert_eq!(revived.warm(), uninterrupted.warm());
}

/// A warm fleet produces bit-identical outcomes at every thread budget:
/// the grid's determinism guarantee (results never depend on scheduling)
/// extends to the warm path.
#[test]
fn warm_grid_is_bit_identical_across_thread_budgets() {
    let net = network(31);
    let trace = rounds(&net, usize::try_from(WARM_ESCAPE_EVERY + 2).unwrap(), 32);
    let engine = Engine::for_network(&net, FluxModel::default()).unwrap();
    let config = config(1, true);
    let sessions = 6usize;

    let run = |threads: usize| -> Vec<Vec<StepOutcome>> {
        let grid_config = GridConfig {
            shards: threads,
            queue_capacity: trace.len(),
            threads,
            hibernate_after: 0,
        };
        let mut grid = Grid::open(engine.clone(), &grid_config).unwrap();
        let ids: Vec<_> = (0..sessions)
            .map(|s| grid.open_session(&config, 100 + s as u64).unwrap())
            .collect();
        for round in &trace {
            for &id in &ids {
                match grid.submit(id, round.clone()).unwrap() {
                    Submit::Queued => {}
                    Submit::Backpressure(_) => unreachable!("queue sized for the whole trace"),
                }
            }
        }
        grid.join().unwrap();
        ids.iter()
            .map(|&id| grid.take_outcomes(id).unwrap())
            .collect()
    };

    let t1 = run(1);
    for threads in [4usize, 8] {
        let tn = run(threads);
        assert_eq!(t1.len(), tn.len());
        for (a, b) in t1.iter().zip(&tn) {
            assert_eq!(a.len(), b.len());
            for (oa, ob) in a.iter().zip(b) {
                assert_outcomes_bit_identical(oa, ob);
            }
        }
    }
}

/// A warm session with no hot participating users runs every round
/// exactly cold — the design-guaranteed identity that makes the cold
/// path the warm path's equivalence oracle.
#[test]
fn hotless_warm_session_matches_cold_bitwise() {
    let net = network(41);
    let trace = rounds(&net, 4, 42);
    let engine = Engine::for_network(&net, FluxModel::default()).unwrap();

    let mut cold = engine.open_session(&config(1, false), 43).unwrap();
    let mut warm = engine.open_session(&config(1, true), 43).unwrap();

    // Round 1: nobody is hot yet, so the warm session runs cold.
    assert_outcomes_bit_identical(
        &cold.ingest(&trace[0]).unwrap(),
        &warm.ingest(&trace[0]).unwrap(),
    );

    // Suspending in both sessions drops the warm one's heat; suspended
    // rounds have no hot participant, so they run exactly cold.
    cold.suspend(0).unwrap();
    warm.suspend(0).unwrap();
    let state = warm.warm().unwrap();
    assert!(state.hot.iter().all(|&h| !h), "suspend must drop all heat");
    assert_eq!(state.rounds_since_escape, 0);
    for round in &trace[1..3] {
        let a = cold.ingest(round).unwrap();
        let b = warm.ingest(round).unwrap();
        assert_outcomes_bit_identical(&a, &b);
    }

    // Resume drops heat again, so the first round after it is still
    // cold-identical; only the round *after* that re-earns the fast
    // path and may diverge.
    cold.resume(0).unwrap();
    warm.resume(0).unwrap();
    assert_eq!(warm.warm(), Some(&WarmState::cold(1)));
    let a = cold.ingest(&trace[3]).unwrap();
    let b = warm.ingest(&trace[3]).unwrap();
    assert_outcomes_bit_identical(&a, &b);
    assert!(
        warm.warm().unwrap().hot[0],
        "an active resumed round should re-mark the user hot"
    );
}

/// Lifecycle and sniffer churn invalidate warm state: heat is dropped
/// and the escape cadence restarts.
#[test]
fn churn_invalidates_warm_state() {
    let net = network(51);
    let trace = rounds(&net, 4, 52);
    let engine = Engine::for_network(&net, FluxModel::default()).unwrap();
    let mut session = engine.open_session(&config(1, true), 53).unwrap();

    for round in &trace[..3] {
        session.ingest(round).unwrap();
    }
    let state = session.warm().unwrap();
    assert!(state.hot[0], "three active rounds should mark user 0 hot");
    assert_eq!(state.rounds_since_escape, 3);

    // Depart drops the heat entirely.
    session.depart(0).unwrap();
    assert_eq!(session.warm(), Some(&WarmState::cold(1)));

    // A join resizes the hot vector to the new population, still cold.
    let joined = session.join();
    assert_eq!(joined, 1);
    assert_eq!(session.warm(), Some(&WarmState::cold(2)));

    // Sniffer churn (different id set next round) also invalidates:
    // ingest a round, get user 1 hot, then shrink the sniffed set.
    session.ingest(&trace[3]).unwrap();
    assert!(session.warm().unwrap().hot.iter().any(|&h| h));
    let mut churned = trace[3].clone();
    churned.time += 1.0;
    churned.ids.pop();
    churned.fluxes.pop();
    session.ingest(&churned).unwrap();
    // The invalidation happened before the round ran; the round itself
    // re-earned heat for whoever matched, but the cadence restarted.
    assert_eq!(session.warm().unwrap().rounds_since_escape, 1);
}
