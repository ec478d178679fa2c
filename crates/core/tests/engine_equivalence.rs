//! Equivalence guarantees for the streaming engine: a hand-driven
//! `Session` that is checkpointed to JSON mid-trace, dropped, and
//! restored must reproduce the uninterrupted `run_tracking` adapter
//! bit-for-bit, and the adapter itself must be a pure function of
//! (scenario, config, seed). The adapter's absolute output stream is
//! pinned separately by the committed golden fixture in
//! `crates/bench/tests/golden_fig7.rs`.
//!
//! CI runs this file at `FLUXPRINT_THREADS=1` and `=4`; bit-identity must
//! hold at every thread count.

use rand::rngs::StdRng;
use rand::SeedableRng;

use fluxprint_core::{run_tracking, AttackConfig, Scenario, ScenarioBuilder, TrackingReport};
use fluxprint_engine::{Engine, SessionConfig};
use fluxprint_geometry::Point2;
use fluxprint_mobility::{CollectionSchedule, Trajectory, UserMotion};

fn moving_user(from: Point2, to: Point2, rounds: usize) -> UserMotion {
    UserMotion::new(
        Trajectory::linear(0.0, from, rounds as f64, to).unwrap(),
        CollectionSchedule::periodic(0.0, 1.0, rounds + 1).unwrap(),
        2.0,
    )
    .unwrap()
}

fn scenario(seed: u64) -> Scenario {
    let mut rng = StdRng::seed_from_u64(seed);
    ScenarioBuilder::new()
        .grid_nodes(20, 20)
        .radius(3.0)
        .user(moving_user(
            Point2::new(6.0, 14.0),
            Point2::new(22.0, 16.0),
            8,
        ))
        .user(moving_user(
            Point2::new(24.0, 8.0),
            Point2::new(10.0, 20.0),
            8,
        ))
        .build(&mut rng)
        .unwrap()
}

fn quick_config() -> AttackConfig {
    let mut c = AttackConfig::default();
    c.search.samples = 1500;
    c.search.top_m = 5;
    c.smc.n_predictions = 250;
    c
}

fn assert_reports_bit_identical(a: &TrackingReport, b: &TrackingReport) {
    assert_eq!(a.k, b.k);
    assert_eq!(a.rounds.len(), b.rounds.len());
    for (ra, rb) in a.rounds.iter().zip(&b.rounds) {
        assert_eq!(ra.time.to_bits(), rb.time.to_bits());
        assert_eq!(ra.active, rb.active);
        assert_eq!(ra.truths, rb.truths);
        for (ea, eb) in ra.estimates.iter().zip(&rb.estimates) {
            assert_eq!(ea.x.to_bits(), eb.x.to_bits());
            assert_eq!(ea.y.to_bits(), eb.y.to_bits());
        }
        assert_eq!(ra.mean_error.to_bits(), rb.mean_error.to_bits());
        assert_eq!(
            ra.active_mean_error.map(f64::to_bits),
            rb.active_mean_error.map(f64::to_bits)
        );
    }
}

#[test]
fn run_tracking_is_a_pure_function_of_the_seed() {
    let scenario = scenario(21);
    let config = quick_config();

    let mut rng = StdRng::seed_from_u64(42);
    let first = run_tracking(&scenario, &config, &mut rng).unwrap();

    let mut rng = StdRng::seed_from_u64(42);
    let second = run_tracking(&scenario, &config, &mut rng).unwrap();

    assert_reports_bit_identical(&first, &second);
}

#[test]
fn checkpointed_session_drive_matches_the_uninterrupted_adapter() {
    let scenario = scenario(33);
    let config = quick_config();

    let mut rng = StdRng::seed_from_u64(77);
    let uninterrupted = run_tracking(&scenario, &config, &mut rng).unwrap();

    // Drive the engine by hand, replicating the adapter's RNG call order,
    // but snapshot the session to JSON mid-trace, drop it, and restore.
    let (t_start, t_end) = scenario.time_span();
    let window = scenario.window;
    let engine = Engine::for_network(&scenario.network, config.model).unwrap();
    let session_config = SessionConfig {
        users: scenario.k(),
        smc: config.smc,
        start_time: t_start - window,
        warm: false,
    };
    let mut rng = StdRng::seed_from_u64(77);
    let mut session = engine.open_session_with(&session_config, &mut rng).unwrap();
    let sniffer = config.sniffer.build(&scenario.network, &mut rng).unwrap();

    let checkpoint_after = uninterrupted.rounds.len() / 2;
    let mut t = t_start;
    let mut i = 0;
    while t <= t_end {
        let mut flux = scenario.simulate_window(t, &mut rng).unwrap();
        config
            .defense
            .apply(&scenario.network, &mut flux, &mut rng)
            .unwrap();
        let round = if config.smooth {
            sniffer.observe_round_smoothed(t, &scenario.network, &flux, config.noise, &mut rng)
        } else {
            sniffer.observe_round(t, &flux, config.noise, &mut rng)
        };
        let outcome = session.ingest_with(&round, &mut rng).unwrap();

        let want = &uninterrupted.rounds[i];
        assert_eq!(outcome.time.to_bits(), want.time.to_bits());
        assert_eq!(outcome.active, want.active);
        for (eo, ew) in outcome.estimates.iter().zip(&want.estimates) {
            assert_eq!(eo.x.to_bits(), ew.x.to_bits());
            assert_eq!(eo.y.to_bits(), ew.y.to_bits());
        }

        if i + 1 == checkpoint_after {
            // Interrupt: serialize, drop, and revive the session. The
            // checkpoint only covers session state — the driver's own RNG
            // keeps flowing, exactly as a resumed process would re-seed
            // its simulation side while the tracker resumes bit-exactly.
            let json = session.checkpoint_compact(2).to_json().unwrap();
            drop(session);
            session = engine.restore_compact_json(&json).unwrap();
            assert_eq!(session.rounds_ingested() as usize, checkpoint_after);
        }

        t += window;
        i += 1;
    }
    assert_eq!(i, uninterrupted.rounds.len());
}
