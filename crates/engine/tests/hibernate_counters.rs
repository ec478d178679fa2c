//! Hibernation encodes and decodes nothing: evicting and reviving grid
//! residents moves the grid's hibernation counters and never the
//! engine's checkpoint or restore counters, and reading a cold resident
//! revives nothing.
//!
//! The assertions are exact deltas of process-global counters, so this
//! file holds a single test: any other test running in the same process
//! could flush its own evictions or checkpoints into the window between
//! the two snapshots.

use rand::rngs::StdRng;
use rand::SeedableRng;

use fluxprint_engine::{Engine, Grid, GridConfig, SessionConfig, SessionId, Submit};
use fluxprint_fluxmodel::FluxModel;
use fluxprint_geometry::{Point2, Rect};
use fluxprint_netsim::{NetworkBuilder, NoiseModel, ObservationRound, Sniffer};
use fluxprint_smc::SmcConfig;
use fluxprint_telemetry::names;

const SESSIONS: usize = 4;
const DRAINS: usize = 6;

#[test]
fn evict_revive_cycles_move_no_checkpoint_or_restore_counter() {
    let mut rng = StdRng::seed_from_u64(91);
    let net = NetworkBuilder::new()
        .field(Rect::square(30.0).unwrap())
        .perturbed_grid(12, 12, 0.3)
        .radius(4.0)
        .build(&mut rng)
        .unwrap();
    let sniffer = Sniffer::random_count(&net, 24, &mut rng).unwrap();
    let trace: Vec<ObservationRound> = (1..=DRAINS)
        .map(|i| {
            let t = i as f64;
            let user = (Point2::new(8.0 + 1.5 * t, 15.0), 2.0);
            let flux = net.simulate_flux(&[user], &mut rng).unwrap();
            sniffer.observe_round_smoothed(t, &net, &flux, NoiseModel::None, &mut rng)
        })
        .collect();
    let engine = Engine::for_network(&net, FluxModel::default()).unwrap();
    let config = SessionConfig {
        users: 1,
        smc: SmcConfig {
            n_predictions: 16,
            keep_m: 4,
            ..Default::default()
        },
        start_time: 0.0,
        warm: false,
    };
    let grid_config = GridConfig {
        shards: 2,
        queue_capacity: 4,
        hibernate_after: 1,
        ..GridConfig::default()
    };
    let mut grid = Grid::open(engine, &grid_config).unwrap();
    let ids: Vec<SessionId> = (0..SESSIONS)
        .map(|s| grid.open_session(&config, 900 + s as u64).unwrap())
        .collect();

    let before = fluxprint_telemetry::snapshot();
    // Half the fleet is fed on each drain, alternating: from the first
    // drain on, every drain evicts the half it does not feed, and from
    // the second on it revives the half it does.
    for (i, round) in trace.iter().enumerate() {
        for (s, &id) in ids.iter().enumerate() {
            if (s + i) % 2 == 0 {
                assert_eq!(grid.submit(id, round.clone()).unwrap(), Submit::Queued);
            }
        }
        assert_eq!(grid.drain().unwrap(), (SESSIONS / 2) as u64);
        assert_eq!(grid.hibernated_sessions(), SESSIONS / 2);
        // The half just evicted is read and estimated as it lies; the
        // exact revival count below would see any wake-up.
        for (s, &id) in ids.iter().enumerate() {
            if (s + i) % 2 == 1 {
                let estimate = grid.session(id).unwrap().estimate(0).unwrap();
                assert!(estimate.x.is_finite() && estimate.y.is_finite());
                assert!(grid.is_hibernated(id).unwrap(), "a read must not revive");
            }
        }
    }
    let after = fluxprint_telemetry::snapshot();
    let delta = |name| after.counter(name) - before.counter(name);

    let half = (SESSIONS / 2) as u64;
    assert_eq!(delta(names::GRID_HIBERNATE_EVICTIONS), half * DRAINS as u64);
    assert_eq!(
        delta(names::GRID_HIBERNATE_REVIVALS),
        half * (DRAINS as u64 - 1)
    );
    assert_eq!(delta(names::ENGINE_CHECKPOINTS), 0, "eviction encodes");
    assert_eq!(delta(names::ENGINE_RESTORES), 0, "revival decodes");
}
