//! The checkpoint format matrix: documents of any older version are
//! refused in every shape, compact and full forms convert both ways
//! through live sessions, and delta chains built from real ingests
//! materialize to the exact live state — with the documented rejection
//! for every way a chain can be abused.

use rand::rngs::StdRng;
use rand::SeedableRng;

use fluxprint_engine::{
    materialize, DeltaBasis, Engine, EngineError, Grid, GridConfig, SessionConfig, StepOutcome,
    CHECKPOINT_VERSION,
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

/// Rewrites a checkpoint's JSON to an older on-disk shape: the given
/// version number, and (for v1) no `warm` key.
fn downgrade_json(json: &str, version: u32) -> String {
    let mut value: serde_json::Value = serde_json::from_str(json).unwrap();
    let serde_json::Value::Object(pairs) = &mut value else {
        panic!("checkpoint JSON is an object");
    };
    if version < 2 {
        pairs.retain(|(key, _)| key != "warm");
    }
    for (key, v) in pairs.iter_mut() {
        if key == "version" {
            *v = serde_json::json!(version);
        }
    }
    serde_json::to_string(&value).unwrap()
}

fn refused(result: Result<impl Sized, EngineError>, version: u32) -> bool {
    matches!(
        result.err(),
        Some(EngineError::UnsupportedVersion { found, supported: CHECKPOINT_VERSION })
            if found == version
    )
}

/// Restore reads exactly the current format version: v1 and v2
/// documents — full (v1 without its `warm` key), compact, delta and grid
/// (with a hibernated resident) — are refused with
/// [`EngineError::UnsupportedVersion`] rather than migrated.
#[test]
fn pre_v3_checkpoints_are_refused() {
    let net = network(91);
    let trace = rounds(&net, 3, 92);
    let engine = Engine::for_network(&net, FluxModel::default()).unwrap();
    let mut session = engine.open_session(&config(1, true), 95).unwrap();
    let base = session.checkpoint();
    let mut basis = DeltaBasis::new(&base).unwrap();
    for round in &trace {
        session.ingest(round).unwrap();
    }
    let mut delta = session.delta_checkpoint(&mut basis).unwrap();
    let json = session.checkpoint_json().unwrap();
    let mut compact = session.checkpoint_compact(2);

    let grid_config = GridConfig {
        shards: 1,
        threads: 1,
        queue_capacity: 8,
        hibernate_after: 1,
    };
    let mut grid = Grid::open(engine.clone(), &grid_config).unwrap();
    let id = grid.open_session(&config(1, false), 96).unwrap();
    grid.drain().unwrap();
    grid.drain().unwrap();
    assert!(grid.is_hibernated(id).unwrap());
    let mut grid_checkpoint = grid.checkpoint();

    for version in [1, 2] {
        let old_json = downgrade_json(&json, version);
        assert!(
            refused(engine.restore_json(&old_json), version),
            "full v{version}"
        );
        compact.version = version;
        assert!(
            refused(engine.restore_compact(&compact), version),
            "compact v{version}"
        );
        delta.version = version;
        let chain = materialize(Some(&base), std::slice::from_ref(&delta));
        assert!(refused(chain, version), "delta v{version}");
        grid_checkpoint.version = version;
        let revived = Grid::restore(engine.clone(), &grid_config, &grid_checkpoint);
        assert!(refused(revived, version), "grid v{version}");
    }
}

/// compact↔full through a live session: the compact form of a real
/// checkpoint expands back to the exact original, restores through
/// [`Engine::restore_compact`], and continues bit-identically — and the
/// compact JSON is strictly smaller than the full form it encodes.
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
    let full = half.checkpoint();
    let compact = half.checkpoint_compact(2);
    compact.validate().unwrap();
    // Lossless at the live tracker's own history bound: expansion is
    // the exact full checkpoint, not an approximation of it.
    assert_eq!(compact.expand().unwrap(), full);
    let full_json = serde_json::to_string(&full).unwrap();
    let compact_json = serde_json::to_string(&compact).unwrap();
    assert!(
        compact_json.len() < full_json.len(),
        "compact {} >= full {}",
        compact_json.len(),
        full_json.len()
    );

    let mut revived = engine.restore_compact_json(&compact_json).unwrap();
    for (round, want) in trace[3..].iter().zip(&want[3..]) {
        let got = revived.ingest(round).unwrap();
        assert_outcomes_bit_identical(&got, want);
    }
    assert_eq!(revived.checkpoint(), uninterrupted.checkpoint());

    // A compact checkpoint cannot claim a pre-v3 version.
    let mut old = compact;
    old.version = 2;
    assert!(matches!(
        old.validate(),
        Err(EngineError::UnsupportedVersion {
            found: 2,
            supported: CHECKPOINT_VERSION
        })
    ));
}

/// Delta chains over real ingests: a basis opened on a base snapshot
/// yields one small delta per round, the chain materializes to the
/// exact live checkpoint, and every abuse of the chain — missing base,
/// out-of-order links, a foreign base — is rejected with its own error.
#[test]
fn delta_chain_materializes_real_ingests_and_rejects_abuse() {
    let net = network(95);
    let trace = rounds(&net, 6, 96);
    let engine = Engine::for_network(&net, FluxModel::default()).unwrap();

    let mut session = engine.open_session(&config(1, false), 99).unwrap();
    for round in &trace[..2] {
        session.ingest(round).unwrap();
    }
    let base = session.checkpoint();
    let mut basis = DeltaBasis::new(&base).unwrap();

    let mut deltas = Vec::new();
    for round in &trace[2..5] {
        session.ingest(round).unwrap();
        deltas.push(session.delta_checkpoint(&mut basis).unwrap());
    }
    assert_eq!(deltas.len(), 3);
    for (i, delta) in deltas.iter().enumerate() {
        assert_eq!(delta.seq, i as u64 + 1);
        assert_eq!(delta.base, base.snapshot_id().unwrap());
    }

    // The materialized chain IS the live state, and it restores into a
    // session that continues bit-identically.
    let materialized = materialize(Some(&base), &deltas).unwrap();
    assert_eq!(materialized, session.checkpoint());
    let mut revived = engine.restore(&materialized).unwrap();
    let want = session.ingest(&trace[5]).unwrap();
    let got = revived.ingest(&trace[5]).unwrap();
    assert_outcomes_bit_identical(&got, &want);

    // Abuse matrix, each with its own error variant.
    assert!(matches!(
        materialize(None, &deltas),
        Err(EngineError::DeltaBaseMissing { .. })
    ));
    let swapped = vec![deltas[1].clone(), deltas[0].clone()];
    assert!(matches!(
        materialize(Some(&base), &swapped),
        Err(EngineError::DeltaChainBroken {
            expected: 1,
            found: 2
        })
    ));
    let foreign = engine.open_session(&config(1, false), 77).unwrap();
    assert!(matches!(
        materialize(Some(&foreign.checkpoint()), &deltas),
        Err(EngineError::DeltaBaseMismatch { .. })
    ));
}
