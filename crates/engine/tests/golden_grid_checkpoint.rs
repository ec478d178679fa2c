//! Golden fixture for the grid checkpoint format.
//!
//! Pins `Grid::checkpoint_json` of a small hibernating fleet — hot and
//! cold residents, two of them holding queued rounds behind a failed
//! round — taken right after a drain, against a committed fixture. The
//! comparison is an exact string match, so any drift in what a grid
//! checkpoint contains or how it is encoded fails loudly, whatever the
//! grid holds its hibernated residents as.
//!
//! To re-bless after an *intentional* format change:
//!
//! ```text
//! GOLDEN_BLESS=1 cargo test -p fluxprint-engine --test golden_grid_checkpoint
//! ```
//!
//! and commit the updated fixture together with the change that
//! explains it.

use rand::rngs::StdRng;
use rand::SeedableRng;

use fluxprint_engine::{
    Engine, EngineError, Grid, GridConfig, SessionConfig, SessionId, CHECKPOINT_VERSION,
};
use fluxprint_fluxmodel::FluxModel;
use fluxprint_geometry::Point2;
use fluxprint_netsim::{NetworkBuilder, NoiseModel, ObservationRound, Sniffer};
use fluxprint_smc::SmcConfig;

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/grid_checkpoint.json"
);

const SESSIONS: usize = 6;

fn grid_config() -> GridConfig {
    GridConfig {
        shards: 2,
        queue_capacity: 8,
        threads: 2,
        hibernate_after: 1,
    }
}

/// Drives the fleet and returns its checkpoint JSON, taken right after
/// the final drain.
fn fleet_checkpoint_json(engine: &Engine, net: &fluxprint_netsim::Network) -> String {
    let mut rng = StdRng::seed_from_u64(61);
    let sniffer = Sniffer::random_count(net, 24, &mut rng).unwrap();
    let trace: Vec<ObservationRound> = (1..=4)
        .map(|i| {
            let t = f64::from(i);
            let user = (Point2::new(8.0 + 1.5 * t, 15.0), 2.0);
            let flux = net.simulate_flux(&[user], &mut rng).unwrap();
            sniffer.observe_round_smoothed(t, net, &flux, NoiseModel::None, &mut rng)
        })
        .collect();
    let config = SessionConfig {
        users: 1,
        smc: SmcConfig {
            n_predictions: 40,
            keep_m: 4,
            ..Default::default()
        },
        start_time: 0.0,
        warm: false,
    };
    let mut grid = Grid::open(engine.clone(), &grid_config()).unwrap();
    let ids: Vec<SessionId> = (0..SESSIONS)
        .map(|s| grid.open_session(&config, 700 + s as u64).unwrap())
        .collect();
    // Duty-cycled rounds: sessions go cold between their turns.
    for (i, round) in trace[..3].iter().enumerate() {
        for (s, &id) in ids.iter().enumerate() {
            if (s + i) % 3 == 0 {
                grid.submit(id, round.clone()).unwrap();
            }
        }
        grid.drain().unwrap();
    }
    // The last round reaches sessions 4 and 5 behind a malformed one, so
    // each keeps that round queued after the drain. They are the highest
    // ids of their residue class mod the shard count, so no scheduler
    // skips work behind them.
    let bad = ObservationRound {
        time: 3.5,
        ids: Vec::new(),
        fluxes: Vec::new(),
    };
    for &id in &ids[4..] {
        grid.submit(id, bad.clone()).unwrap();
        grid.submit(id, trace[3].clone()).unwrap();
    }
    grid.submit(ids[0], trace[3].clone()).unwrap();
    assert!(matches!(
        grid.drain(),
        Err(EngineError::SessionFailed {
            session: 4,
            round: 0,
            ..
        })
    ));
    assert_eq!(grid.queued(ids[4]).unwrap(), 1);
    assert_eq!(grid.queued(ids[5]).unwrap(), 1);
    assert!(grid.hot_sessions() > 0 && grid.hibernated_sessions() > 0);
    grid.checkpoint_json().unwrap()
}

#[test]
fn grid_checkpoint_matches_golden_fixture() {
    let mut rng = StdRng::seed_from_u64(60);
    let net = NetworkBuilder::new()
        .field(fluxprint_geometry::Rect::square(30.0).unwrap())
        .perturbed_grid(10, 10, 0.3)
        .radius(4.0)
        .build(&mut rng)
        .unwrap();
    let engine = Engine::for_network(&net, FluxModel::default()).unwrap();
    let got = format!("{}\n", fleet_checkpoint_json(&engine, &net));

    if std::env::var_os("GOLDEN_BLESS").is_some() {
        std::fs::write(FIXTURE, &got).expect("write fixture");
        return;
    }
    let want =
        std::fs::read_to_string(FIXTURE).expect("fixture exists — bless with GOLDEN_BLESS=1");
    assert_eq!(
        got, want,
        "grid checkpoint drifted from the golden fixture; if the change is \
         intentional, re-bless with GOLDEN_BLESS=1 and commit the new fixture"
    );
    // The fixture restores, and re-checkpoints to the same bytes.
    let restored = Grid::restore_json(engine.clone(), &grid_config(), want.trim_end()).unwrap();
    assert_eq!(format!("{}\n", restored.checkpoint_json().unwrap()), want);
    // Earlier builds also wrote the grid's shard count and queue
    // capacity. Such a document still restores, under any shard count,
    // and re-checkpoints to the current bytes.
    let head = format!("{{\"version\":{CHECKPOINT_VERSION},");
    assert!(want.starts_with(&head));
    let pinned = want.replacen(
        &head,
        &format!("{head}\"shards\":2,\"queue_capacity\":8,"),
        1,
    );
    let config = GridConfig {
        shards: 3,
        ..grid_config()
    };
    let restored = Grid::restore_json(engine.clone(), &config, pinned.trim_end()).unwrap();
    assert_eq!(format!("{}\n", restored.checkpoint_json().unwrap()), want);
    // They also wrote four tracker constants into every session's
    // configuration. Such a document still restores, and re-checkpoints
    // to the current bytes.
    let config_head = "\"config\":{\"n_predictions\":40,\"keep_m\":4,\"vmax\":5.0,";
    assert_eq!(want.matches(config_head).count(), SESSIONS);
    let with_constants = want.replace(
        config_head,
        &format!(
            "{config_head}\"activity_threshold\":0.05,\"activity_min_gain\":1.15,\
             \"explore_fraction\":0.1,\"explore_accept_ratio\":0.5,"
        ),
    );
    let restored =
        Grid::restore_json(engine.clone(), &grid_config(), with_constants.trim_end()).unwrap();
    assert_eq!(format!("{}\n", restored.checkpoint_json().unwrap()), want);
    // The same document under the previous format version is refused,
    // not migrated.
    let current = format!("\"version\":{CHECKPOINT_VERSION},");
    assert_eq!(want.matches(&current).count(), 1 + SESSIONS);
    let v3 = want.replace(&current, "\"version\":3,");
    assert!(matches!(
        Grid::restore_json(engine, &grid_config(), v3.trim_end()),
        Err(EngineError::UnsupportedVersion { found: 3, .. })
    ));
}
