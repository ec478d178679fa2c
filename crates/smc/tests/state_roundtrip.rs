//! Tracker state snapshot round-trips: the compact form must preserve
//! every float bit-for-bit through JSON, and a revived tracker must
//! continue the exact stream of outcomes the original would have
//! produced.

use std::sync::Arc;

use fluxprint_fluxmodel::FluxModel;
use fluxprint_geometry::{Point2, Rect};
use fluxprint_smc::{CompactTrackerState, SmcConfig, SmcError, StepOutcome, Tracker};
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
        ..Default::default()
    }
}

/// The first `k` of three sources at round `round`: two of them move.
fn sources(k: usize, round: u32) -> Vec<(Point2, f64)> {
    let t = f64::from(round);
    let all = [
        (Point2::new(10.0 + t, 12.0), 2.0),
        (Point2::new(20.0, 18.0), 1.0),
        (Point2::new(15.0, 26.0 - t), 1.5),
    ];
    all[..k].to_vec()
}

/// Zero flux everywhere: every user fits `q → 0` and takes the Null
/// update.
fn silent() -> FluxObjective {
    let sniffers = sniffer_grid();
    let zeros = vec![0.0; sniffers.len()];
    FluxObjective::new(field(), FluxModel::default(), sniffers, zeros).unwrap()
}

fn assert_bit_identical(a: &StepOutcome, b: &StepOutcome, case: &str) {
    assert_eq!(a.active, b.active, "{case}");
    for (ea, eb) in a.estimates.iter().zip(&b.estimates) {
        assert_eq!(ea.x.to_bits(), eb.x.to_bits(), "{case}");
        assert_eq!(ea.y.to_bits(), eb.y.to_bits(), "{case}");
    }
    for (sa, sb) in a.stretches.iter().zip(&b.stretches) {
        assert_eq!(sa.to_bits(), sb.to_bits(), "{case}");
    }
    assert_eq!(a.residual.to_bits(), b.residual.to_bits(), "{case}");
}

/// A tracker checkpointed through JSON re-packs to the same bytes and
/// continues bit-identically, at every user count and heading bias,
/// revived after its first round (at most one history entry per user),
/// after a silent round (every user frozen) and after several rounds.
#[test]
fn revived_tracker_continues_bit_identically() {
    // Rounds before the checkpoint: `true` observes every source,
    // `false` is silent.
    let schedules: [&[bool]; 3] = [&[true], &[true, true, false], &[true, true, true, true]];
    for seed in [42, 7, 2024] {
        for k in 1..=3 {
            for heading_bias in [0.0, 0.2] {
                for schedule in schedules {
                    let case = format!("seed {seed}, K={k}, bias {heading_bias}, {schedule:?}");
                    let config = SmcConfig {
                        heading_bias,
                        ..config()
                    };
                    let mut rng = StdRng::seed_from_u64(seed);
                    let mut original =
                        Tracker::new(k, field(), FluxModel::default(), config, 0.0, &mut rng)
                            .unwrap();
                    for (round, &observed) in (1..).zip(schedule) {
                        let obs = if observed {
                            observation(&sources(k, round))
                        } else {
                            silent()
                        };
                        let out = original.step(f64::from(round), &obs, &mut rng).unwrap();
                        assert!(observed || out.active.iter().all(|&a| !a), "{case}");
                    }

                    // Checkpoint through JSON, then drive both trackers
                    // with identical RNG streams (captured at the
                    // checkpoint instant).
                    let json = serde_json::to_string(&original.compact(2)).unwrap();
                    let compact: CompactTrackerState = serde_json::from_str(&json).unwrap();
                    let mut revived =
                        Tracker::from_compact(&compact, config, FluxModel::default(), field())
                            .unwrap();
                    assert_eq!(
                        serde_json::to_string(&revived.compact(2)).unwrap(),
                        json,
                        "{case}: re-packs to the same bytes"
                    );
                    assert_eq!(revived.k(), original.k());
                    assert_eq!(revived.time(), original.time());

                    let mut rng_a = StdRng::from_state(rng.state());
                    let mut rng_b = StdRng::from_state(rng.state());
                    let first = schedule.len() as u32 + 1;
                    for round in first..first + 3 {
                        let obs = observation(&sources(k, round));
                        let a = original.step(f64::from(round), &obs, &mut rng_a).unwrap();
                        let b = revived.step(f64::from(round), &obs, &mut rng_b).unwrap();
                        assert_bit_identical(&a, &b, &case);
                    }
                    assert_eq!(revived.compact(2), original.compact(2), "{case}");
                }
            }
        }
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
    let revive = |c: &CompactTrackerState| {
        Tracker::from_compact(c, SmcConfig::default(), FluxModel::default(), field())
    };
    let mut c = tracker.compact(2);
    c.users.clear();
    assert!(matches!(revive(&c), Err(SmcError::ZeroUsers)));

    let mut c = tracker.compact(2);
    c.users[0].samples.clear();
    c.users[0].n = 0;
    assert!(matches!(revive(&c), Err(SmcError::BadConfig { .. })));
}
