//! The checkpoint format matrix: session and grid documents of any older
//! version are refused, and a live session's checkpoint round-trips
//! through JSON and continues bit-identically.

use rand::rngs::StdRng;
use rand::SeedableRng;

use fluxprint_engine::{
    Engine, EngineError, Grid, GridConfig, SessionConfig, StepOutcome, CHECKPOINT_VERSION,
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
    for (ea, eb) in a.estimates.iter().zip(&b.estimates) {
        assert_eq!(ea.x.to_bits(), eb.x.to_bits());
        assert_eq!(ea.y.to_bits(), eb.y.to_bits());
    }
    assert_eq!(a.residual.to_bits(), b.residual.to_bits());
}

fn refused(result: Result<impl Sized, EngineError>, version: u32) -> bool {
    matches!(
        result.err(),
        Some(EngineError::UnsupportedVersion { found, supported: CHECKPOINT_VERSION })
            if found == version
    )
}

/// Restore reads exactly the current format version: session documents
/// and grid documents (with a hibernated resident) of every older
/// version, or holding an older session entry, are refused with
/// [`EngineError::UnsupportedVersion`] rather than migrated.
#[test]
fn older_checkpoints_are_refused() {
    let net = network(91);
    let trace = rounds(&net, 3, 92);
    let engine = Engine::for_network(&net, FluxModel::default()).unwrap();
    let mut session = engine.open_session(&config(1, true), 95).unwrap();
    for round in &trace {
        session.ingest(round).unwrap();
    }
    let mut checkpoint = session.checkpoint_compact(2);

    let grid_config = GridConfig {
        shards: 1,
        queue_capacity: 8,
        hibernate_after: 1,
        ..GridConfig::default()
    };
    let mut grid = Grid::open(engine.clone(), &grid_config).unwrap();
    let id = grid.open_session(&config(1, false), 96).unwrap();
    grid.drain().unwrap();
    grid.drain().unwrap();
    assert!(grid.is_hibernated(id).unwrap());
    let current = grid.checkpoint();

    for version in 1..CHECKPOINT_VERSION {
        checkpoint.version = version;
        assert!(
            refused(engine.restore_compact(&checkpoint), version),
            "session v{version}"
        );
        let json = checkpoint.to_json().unwrap();
        assert!(
            refused(engine.restore_compact_json(&json), version),
            "session JSON v{version}"
        );
        let mut old = current.clone();
        old.version = version;
        let revived = Grid::restore(engine.clone(), &grid_config, &old);
        assert!(refused(revived, version), "grid v{version}");
        let mut old_entry = current.clone();
        old_entry.sessions[id.index()].session.version = version;
        let revived = Grid::restore(engine.clone(), &grid_config, &old_entry);
        assert!(refused(revived, version), "grid entry v{version}");
    }
}

/// Real v3 documents, written by the last build that wrote v3 (its
/// golden grid checkpoint, and that grid's hot session entry, a
/// full-form session checkpoint), are refused by their version, though
/// their shape differs from the current one in more than the version.
#[test]
fn v3_documents_are_refused_by_version() {
    let fixture = |name: &str| {
        let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
        std::fs::read_to_string(path).expect("fixture exists")
    };
    let net = network(91);
    let engine = Engine::for_network(&net, FluxModel::default()).unwrap();
    let session = fixture("session_checkpoint_v3.json");
    assert!(
        refused(engine.restore_compact_json(&session), 3),
        "session: {:?}",
        engine.restore_compact_json(&session).err()
    );
    let grid_config = GridConfig {
        shards: 2,
        queue_capacity: 8,
        hibernate_after: 1,
        ..GridConfig::default()
    };
    let grid = fixture("grid_checkpoint_v3.json");
    let revived = Grid::restore_json(engine, &grid_config, &grid);
    assert!(refused(revived, 3), "grid");
}

/// A live session's checkpoint round-trips through JSON: it restores
/// through [`Engine::restore_compact_json`], re-checkpoints to the same
/// value, and continues bit-identically.
#[test]
fn compact_round_trips_a_live_session_bit_exactly() {
    let net = network(93);
    let trace = rounds(&net, 6, 94);
    let engine = Engine::for_network(&net, FluxModel::default()).unwrap();

    let mut uninterrupted = engine.open_session(&config(2, true), 97).unwrap();
    let want: Vec<StepOutcome> = trace
        .iter()
        .map(|r| uninterrupted.ingest(r).unwrap())
        .collect();

    let mut half = engine.open_session(&config(2, true), 97).unwrap();
    for round in &trace[..3] {
        half.ingest(round).unwrap();
    }
    let compact = half.checkpoint_compact(2);
    let mut revived = engine
        .restore_compact_json(&compact.to_json().unwrap())
        .unwrap();
    assert_eq!(revived.checkpoint_compact(2), compact);
    for (round, want) in trace[3..].iter().zip(&want[3..]) {
        let got = revived.ingest(round).unwrap();
        assert_outcomes_bit_identical(&got, want);
    }
    assert_eq!(
        revived.checkpoint_compact(2),
        uninterrupted.checkpoint_compact(2)
    );
}
