//! End-to-end tests of the streaming engine: equivalence with a
//! hand-driven tracker, the checkpoint bit-identity guarantee, sniffer
//! churn, and the user lifecycle.

use rand::rngs::StdRng;
use rand::SeedableRng;

use fluxprint_engine::{Engine, EngineError, SessionConfig, UserState};
use fluxprint_fluxmodel::FluxModel;
use fluxprint_geometry::Point2;
use fluxprint_netsim::{Network, NetworkBuilder, NodeId, NoiseModel, ObservationRound, Sniffer};
use fluxprint_smc::{SmcConfig, StepOutcome, Tracker};
use fluxprint_solver::FluxObjective;

fn network(seed: u64) -> Network {
    let mut rng = StdRng::seed_from_u64(seed);
    NetworkBuilder::new()
        .field(fluxprint_geometry::Rect::square(30.0).unwrap())
        .perturbed_grid(15, 15, 0.3)
        .radius(4.0)
        .build(&mut rng)
        .unwrap()
}

fn config(users: usize) -> SessionConfig {
    SessionConfig {
        users,
        smc: SmcConfig {
            n_predictions: 200,
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

#[test]
fn session_matches_a_hand_driven_tracker() {
    let net = network(1);
    let mut srng = StdRng::seed_from_u64(2);
    let sniffer = Sniffer::random_count(&net, 60, &mut srng).unwrap();
    let trace = rounds(&net, &sniffer, 6, 3);

    let engine = Engine::for_network(&net, FluxModel::default()).unwrap();
    let mut session = engine.open_session(&config(1), 7).unwrap();

    // Reproduce the session's RNG usage by hand: the tracker prior comes
    // from the seed stream, then the session's own stream is forked from
    // four further draws on it (see `Engine::open_session`).
    let mut seed_rng = StdRng::seed_from_u64(7);
    let cfg = config(1);
    let mut tracker = Tracker::new(
        1,
        net.boundary_arc(),
        FluxModel::default(),
        cfg.smc,
        cfg.start_time,
        &mut seed_rng,
    )
    .unwrap();
    let mut twin = StdRng::from_state([
        rand::Rng::gen(&mut seed_rng),
        rand::Rng::gen(&mut seed_rng),
        rand::Rng::gen(&mut seed_rng),
        rand::Rng::gen(&mut seed_rng),
    ]);

    for round in &trace {
        let got = session.ingest(round).unwrap();
        let positions: Vec<Point2> = round.ids.iter().map(|&id| net.position(id)).collect();
        let objective = FluxObjective::new(
            net.boundary_arc(),
            FluxModel::default(),
            positions,
            round.fluxes.clone(),
        )
        .unwrap();
        let want = tracker.step(round.time, &objective, &mut twin).unwrap();
        assert_outcomes_bit_identical(&got, &want);
    }
    assert!(
        session
            .estimate(0)
            .unwrap()
            .distance(Point2::new(17.0, 15.0))
            < 4.0,
        "session lost the user entirely"
    );
}

#[test]
fn restore_then_ingest_matches_uninterrupted_run() {
    let net = network(4);
    let mut srng = StdRng::seed_from_u64(5);
    let sniffer = Sniffer::random_count(&net, 60, &mut srng).unwrap();
    let trace = rounds(&net, &sniffer, 8, 6);

    let engine = Engine::for_network(&net, FluxModel::default()).unwrap();

    // Uninterrupted reference run.
    let mut uninterrupted = engine.open_session(&config(1), 11).unwrap();
    let reference: Vec<StepOutcome> = trace
        .iter()
        .map(|r| uninterrupted.ingest(r).unwrap())
        .collect();

    // Interrupted run: checkpoint mid-trace, drop the session, restore
    // from JSON, and finish the trace.
    let mut first_half = engine.open_session(&config(1), 11).unwrap();
    for round in &trace[..4] {
        first_half.ingest(round).unwrap();
    }
    let json = first_half.checkpoint_compact(2).to_json().unwrap();
    drop(first_half);

    let mut revived = engine.restore_compact_json(&json).unwrap();
    assert_eq!(revived.rounds_ingested(), 4);
    for (round, want) in trace[4..].iter().zip(&reference[4..]) {
        let got = revived.ingest(round).unwrap();
        assert_outcomes_bit_identical(&got, want);
    }

    // A second checkpoint cycle from the revived session still agrees.
    let cp = revived.checkpoint_compact(2);
    assert_eq!(cp.rounds_ingested, 8);
    assert_eq!(cp.tracker, uninterrupted.checkpoint_compact(2).tracker);
}

#[test]
fn sniffer_churn_rederives_the_objective() {
    let net = network(7);
    let mut srng = StdRng::seed_from_u64(8);
    let mut sniffer = Sniffer::random_count(&net, 60, &mut srng).unwrap();

    let engine = Engine::for_network(&net, FluxModel::default()).unwrap();
    let mut session = engine.open_session(&config(1), 13).unwrap();

    let mut sim_rng = StdRng::seed_from_u64(9);
    let user = |t: f64| (Point2::new(10.0 + t, 15.0), 2.0);
    for i in 1..=6u32 {
        let t = f64::from(i);
        // Churn the sniffed set twice mid-trace: drop two nodes, then
        // recruit three fresh ones.
        if i == 3 {
            let drop = [sniffer.ids()[0], sniffer.ids()[5]];
            assert_eq!(sniffer.remove_ids(&drop).unwrap(), 2);
        }
        if i == 5 {
            let fresh: Vec<NodeId> = (0..net.len())
                .map(NodeId::new)
                .filter(|id| !sniffer.ids().contains(id))
                .take(3)
                .collect();
            assert_eq!(sniffer.add_ids(&net, &fresh).unwrap(), 3);
        }
        let flux = net.simulate_flux(&[user(t)], &mut sim_rng).unwrap();
        let round = sniffer.observe_round_smoothed(t, &net, &flux, NoiseModel::None, &mut sim_rng);
        let out = session.ingest(&round).unwrap();
        assert_eq!(out.estimates.len(), 1);
    }
    assert_eq!(session.rounds_ingested(), 6);
    let err = session
        .estimate(0)
        .unwrap()
        .distance(Point2::new(16.0, 15.0));
    assert!(err < 4.0, "tracking across churn drifted to {err:.2}");

    // A round naming a node outside the engine's map is rejected.
    let bogus = ObservationRound::new(7.0, vec![NodeId::new(net.len())], vec![1.0]).unwrap();
    assert!(matches!(
        session.ingest(&bogus),
        Err(EngineError::UnknownNode { .. })
    ));
    // The failed round must not advance the session.
    assert_eq!(session.rounds_ingested(), 6);
}

#[test]
fn lifecycle_states_gate_updates() {
    let net = network(10);
    let mut srng = StdRng::seed_from_u64(11);
    let sniffer = Sniffer::random_count(&net, 60, &mut srng).unwrap();
    let trace = rounds(&net, &sniffer, 10, 12);

    let engine = Engine::for_network(&net, FluxModel::default()).unwrap();
    let mut session = engine.open_session(&config(1), 17).unwrap();

    for round in &trace[..3] {
        session.ingest(round).unwrap();
    }

    // A second user joins mid-run with the uninformed prior.
    let joined = session.join();
    assert_eq!(joined, 1);
    assert_eq!(session.k(), 2);
    assert_eq!(
        session.user_states(),
        &[UserState::Active, UserState::Active]
    );

    // Suspend user 0: its estimate freezes while rounds keep flowing.
    session.suspend(0).unwrap();
    let frozen = session.estimate(0).unwrap();
    for round in &trace[3..6] {
        let out = session.ingest(round).unwrap();
        assert!(!out.active[0], "suspended user must take the Null update");
    }
    let after = session.estimate(0).unwrap();
    assert_eq!(frozen.x.to_bits(), after.x.to_bits());
    assert_eq!(frozen.y.to_bits(), after.y.to_bits());

    // Resume: the user participates again.
    session.resume(0).unwrap();
    for round in &trace[6..] {
        session.ingest(round).unwrap();
    }
    assert_eq!(session.user_states()[0], UserState::Active);

    // Lifecycle transition rules.
    assert!(matches!(
        session.resume(0),
        Err(EngineError::BadLifecycle { .. })
    ));
    session.depart(1).unwrap();
    assert!(matches!(
        session.resume(1),
        Err(EngineError::BadLifecycle { .. })
    ));
    assert!(matches!(
        session.suspend(1),
        Err(EngineError::BadLifecycle { .. })
    ));
    assert!(matches!(
        session.depart(1),
        Err(EngineError::BadLifecycle { .. })
    ));
    assert!(matches!(
        session.suspend(9),
        Err(EngineError::UserOutOfRange { index: 9, users: 2 })
    ));

    // Departed users survive a checkpoint cycle with their state intact.
    let revived = engine
        .restore_compact(&session.checkpoint_compact(2))
        .unwrap();
    assert_eq!(
        revived.user_states(),
        &[UserState::Active, UserState::Departed]
    );
}
