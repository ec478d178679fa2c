//! Tracker state snapshot round-trips: the compact form must preserve
//! every float bit-for-bit through JSON, and a revived tracker must
//! continue the exact stream of outcomes the original would have
//! produced.

use std::sync::Arc;

use fluxprint_fluxmodel::FluxModel;
use fluxprint_geometry::{Point2, Rect};
use fluxprint_smc::{CompactTrackerState, SmcConfig, SmcError, Tracker};
use fluxprint_solver::FluxObjective;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn field() -> Arc<Rect> {
    Arc::new(Rect::square(30.0).unwrap())
}

fn sniffer_grid() -> Vec<Point2> {
    let mut v = Vec::new();
    for i in 0..7 {
        for j in 0..7 {
            v.push(Point2::new(2.0 + i as f64 * 4.3, 2.0 + j as f64 * 4.3));
        }
    }
    v
}

fn observation(truth: &[(Point2, f64)]) -> FluxObjective {
    let model = FluxModel::default();
    let f = Rect::square(30.0).unwrap();
    let sniffers = sniffer_grid();
    let measured: Vec<f64> = sniffers
        .iter()
        .map(|&p| model.predict_superposed(truth, p, &f))
        .collect();
    FluxObjective::new(field(), model, sniffers, measured).unwrap()
}

fn config() -> SmcConfig {
    SmcConfig {
        n_predictions: 250,
        keep_m: 8,
        heading_bias: 0.2,
        ..Default::default()
    }
}

#[test]
fn revived_tracker_continues_bit_identically() {
    let mut rng = StdRng::seed_from_u64(42);
    let mut original =
        Tracker::new(2, field(), FluxModel::default(), config(), 0.0, &mut rng).unwrap();
    for round in 1..=3 {
        let obs = observation(&[
            (Point2::new(10.0, 12.0), 2.0),
            (Point2::new(20.0, 18.0), 1.0),
        ]);
        original.step(round as f64, &obs, &mut rng).unwrap();
    }

    // Checkpoint through JSON, then drive both trackers with identical
    // RNG streams (captured at the checkpoint instant).
    let json = serde_json::to_string(&original.state().compact(2)).unwrap();
    let compact: CompactTrackerState = serde_json::from_str(&json).unwrap();
    let state = compact.expand(config(), FluxModel::default()).unwrap();
    assert_eq!(state, original.state(), "the JSON round-trip is lossless");
    let mut revived =
        Tracker::from_compact(&compact, config(), FluxModel::default(), field()).unwrap();
    assert_eq!(revived.k(), original.k());
    assert_eq!(revived.time(), original.time());

    let mut rng_a = StdRng::from_state(rng.state());
    let mut rng_b = StdRng::from_state(rng.state());
    for round in 4..=7 {
        let obs = observation(&[
            (Point2::new(10.0 + round as f64, 12.0), 2.0),
            (Point2::new(20.0, 18.0), 1.0),
        ]);
        let a = original.step(round as f64, &obs, &mut rng_a).unwrap();
        let b = revived.step(round as f64, &obs, &mut rng_b).unwrap();
        assert_eq!(a.active, b.active);
        for (ea, eb) in a.estimates.iter().zip(&b.estimates) {
            assert_eq!(ea.x.to_bits(), eb.x.to_bits());
            assert_eq!(ea.y.to_bits(), eb.y.to_bits());
        }
        for (sa, sb) in a.stretches.iter().zip(&b.stretches) {
            assert_eq!(sa.to_bits(), sb.to_bits());
        }
        assert_eq!(a.residual.to_bits(), b.residual.to_bits());
    }
}

#[test]
fn from_compact_rejects_invalid_snapshots() {
    let mut rng = StdRng::seed_from_u64(43);
    let tracker = Tracker::new(
        1,
        field(),
        FluxModel::default(),
        SmcConfig::default(),
        0.0,
        &mut rng,
    )
    .unwrap();
    let revive = |state: fluxprint_smc::TrackerState| {
        Tracker::from_compact(&state.compact(2), state.config, state.model, field())
    };
    let mut state = tracker.state();
    state.users.clear();
    assert!(matches!(revive(state), Err(SmcError::ZeroUsers)));

    let mut state = tracker.state();
    state.users[0].samples.clear();
    assert!(matches!(revive(state), Err(SmcError::BadConfig { .. })));
}
