//! The warm candidate budget, measured through the process-global
//! `smc.samples.predicted` counter.
//!
//! The assertion is an exact counter delta, so this file holds a single
//! test: any other tracker test running in the same process could flush
//! its own predictions into the window between the two snapshots.

use std::sync::Arc;

use fluxprint_fluxmodel::FluxModel;
use fluxprint_geometry::{Point2, Rect};
use fluxprint_smc::{SmcConfig, SmcError, Tracker, WARM_SHRINK};
use fluxprint_solver::{CacheScratch, FluxObjective};
use fluxprint_telemetry::names;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn observation(truth: &[(Point2, f64)]) -> FluxObjective {
    let model = FluxModel::default();
    let field = Rect::square(30.0).unwrap();
    let mut sniffers = Vec::new();
    for i in 0..7 {
        for j in 0..7 {
            sniffers.push(Point2::new(2.0 + i as f64 * 4.3, 2.0 + j as f64 * 4.3));
        }
    }
    let measured: Vec<f64> = sniffers
        .iter()
        .map(|&p| model.predict_superposed(truth, p, &field))
        .collect();
    FluxObjective::new(Arc::new(field), model, sniffers, measured).unwrap()
}

#[test]
fn warm_round_bounds_search_and_keeps_tracking() {
    let mut rng = StdRng::seed_from_u64(32);
    let config = SmcConfig {
        n_predictions: 300,
        keep_m: 10,
        ..Default::default()
    };
    let field = Arc::new(Rect::square(30.0).unwrap());
    let mut tracker = Tracker::new(1, field, FluxModel::default(), config, 0.0, &mut rng).unwrap();
    let truth = Point2::new(12.0, 17.0);
    let obs = observation(&[(truth, 2.0)]);
    let mut scratch = CacheScratch::new();
    // Two cold rounds to initialize the posterior.
    for round in 1..=2 {
        tracker
            .step_gated_in(round as f64, &obs, &[true], None, &mut rng, &mut scratch)
            .unwrap();
    }
    // Warm rounds: candidate budget shrinks to n / WARM_SHRINK and the
    // kept samples lead the candidate list, yet tracking holds.
    let before = fluxprint_telemetry::snapshot().counter(names::SMC_SAMPLES_PREDICTED);
    let mut out = None;
    for round in 3..=5 {
        let step = tracker.step_gated_in(
            round as f64,
            &obs,
            &[true],
            Some(&[true]),
            &mut rng,
            &mut scratch,
        );
        out = Some(step.unwrap());
    }
    let after = fluxprint_telemetry::snapshot().counter(names::SMC_SAMPLES_PREDICTED);
    assert_eq!(
        after - before,
        3 * (300 / WARM_SHRINK) as u64,
        "warm rounds draw the shrunk budget"
    );
    let out = out.unwrap();
    assert!(out.active[0]);
    assert!(out.estimates[0].distance(truth) < 2.0);

    // Hot flags of the wrong length are refused.
    assert!(matches!(
        tracker.step_gated_in(
            6.0,
            &obs,
            &[true],
            Some(&[true, false]),
            &mut rng,
            &mut scratch
        ),
        Err(SmcError::BadConfig { field: "warm" })
    ));
}
