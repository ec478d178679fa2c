//! Ablations of the design choices DESIGN.md calls out — these are not in
//! the paper, but quantify the substitutions and refinements this
//! reproduction makes.

use std::time::Instant;

use fluxprint_core::{run_instant_localization, run_tracking, AttackConfig, ScenarioBuilder};
use fluxprint_fluxmodel::FluxModel;
use fluxprint_geometry::{deployment, Point2, Rect};
use fluxprint_mobility::{scenarios, CollectionSchedule, UserMotion};
use fluxprint_smc::{associate, SmcConfig};
use fluxprint_solver::{levenberg_marquardt, CacheScratch, FluxObjective};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde_json::json;

use crate::common::{f, mean, paper_builder, random_static_users, Reporter, FIELD_SIDE};
use crate::RunSpec;

/// Exact `N^K` joint fit vs forward-selection association ([`associate`],
/// DESIGN.md §4b.3) on instances where every user is active: how often
/// the one combination search the tracker runs picks the exact optimum's
/// candidates, and what it costs (DESIGN.md §4 substitution 2).
pub fn run_ablation_filter(spec: RunSpec) -> serde_json::Value {
    // Candidates lie within v_max·Δt of the true source at Δt = 1, so
    // every user's source is reachable: every user is active.
    const RADIUS: f64 = 5.0;
    let trials = spec.effort.trials(5, 20);
    let reporter = Reporter::new();
    reporter.table(
        "Ablation: exact N^K joint fit vs forward-selection association (every user active)",
        &[
            "K",
            "N",
            "agreement",
            "all K selected",
            "mean residual exact / assoc",
            "time/instance exact / assoc",
        ],
    );
    let field = Rect::square(FIELD_SIDE).expect("valid field");
    let model = FluxModel::default();
    let sniffers: Vec<Point2> = (0..49)
        .map(|i| Point2::new(2.0 + (i % 7) as f64 * 4.3, 2.0 + (i / 7) as f64 * 4.3))
        .collect();
    let config = SmcConfig::default();
    let mut scratch = CacheScratch::new();
    let mut record = vec![
        ("ablation".to_string(), json!("filter")),
        ("trials".to_string(), json!(trials)),
    ];
    for (k, n) in [(2usize, 40usize), (3, 12)] {
        let (mut agree, mut all_selected) = (0usize, 0usize);
        let (mut exact_res, mut assoc_res) = (Vec::new(), Vec::new());
        let mut min_ratio = f64::INFINITY;
        let (mut exact_time, mut assoc_time) = (0.0, 0.0);
        for trial in 0..trials {
            let mut rng =
                StdRng::seed_from_u64(spec.rng_seed(15_000 + 100 * k as u64 + trial as u64));
            // One source per vertical band of the field, all emitting.
            let band = 22.0 / k as f64;
            let truths: Vec<(Point2, f64)> = (0..k)
                .map(|u| {
                    let x0 = 4.0 + u as f64 * band;
                    let p = Point2::new(rng.gen_range(x0..x0 + band), rng.gen_range(4.0..26.0));
                    (p, 2.0)
                })
                .collect();
            let measured: Vec<f64> = sniffers
                .iter()
                .map(|&p| model.predict_superposed(&truths, p, &field))
                .collect();
            let objective = FluxObjective::new(
                std::sync::Arc::new(field),
                model,
                sniffers.clone(),
                measured,
            )
            .expect("objective builds");
            let candidates: Vec<Vec<Point2>> = truths
                .iter()
                .map(|&(source, _)| {
                    (0..n)
                        .map(|_| deployment::random_point_in_disc(&field, source, RADIUS, &mut rng))
                        .collect()
                })
                .collect();

            let t0 = Instant::now();
            let (best, exact) = exact_joint_fit(&objective, &candidates);
            exact_time += t0.elapsed().as_secs_f64();
            let t0 = Instant::now();
            let assoc = associate(&objective, &candidates, &vec![n; k], &config, &mut scratch)
                .expect("association runs");
            assoc_time += t0.elapsed().as_secs_f64();

            let residual = assoc
                .fit
                .as_ref()
                .map_or_else(|| objective.null_residual(), |fit| fit.residual);
            exact_res.push(exact);
            assoc_res.push(residual);
            min_ratio = min_ratio.min(residual / exact);
            all_selected += usize::from(assoc.selected.len() == k);
            agree += usize::from(
                best.iter()
                    .enumerate()
                    .all(|(i, &c)| assoc.chosen[i] == Some(c)),
            );
        }
        let per_ms = |secs: f64| secs / trials as f64 * 1e3;
        reporter.row(&[
            k.to_string(),
            n.to_string(),
            format!("{agree}/{trials}"),
            format!("{all_selected}/{trials}"),
            format!("{} / {}", f(mean(&exact_res)), f(mean(&assoc_res))),
            format!("{:.1} / {:.1} ms", per_ms(exact_time), per_ms(assoc_time)),
        ]);
        let kpis = [
            ("agreement", agree as f64 / trials as f64),
            ("all_selected", all_selected as f64 / trials as f64),
            ("exact_residual", mean(&exact_res)),
            ("assoc_residual", mean(&assoc_res)),
            ("residual_ratio", mean(&assoc_res) / mean(&exact_res)),
            ("min_residual_ratio", min_ratio),
            ("exact_ms", per_ms(exact_time)),
            ("assoc_ms", per_ms(assoc_time)),
        ];
        record.extend(
            kpis.into_iter()
                .map(|(name, value)| (format!("k{k}_{name}"), json!(value))),
        );
    }
    reporter.note("\nexact: every N^K combination fitted densely (FluxObjective::evaluate);");
    reporter.note("association: forward selection on the scoring cache, as the tracker runs it.");
    reporter.note("Both run on one thread. Association stops short of K when the next source");
    reporter.note("fails the ACTIVITY_MIN_GAIN test, even though every user is active here.");
    serde_json::Value::object(record)
}

/// Enumerates every combination of one candidate per user (user 0
/// fastest), fits each densely, and returns the first best combination
/// with its residual.
fn exact_joint_fit(objective: &FluxObjective, candidates: &[Vec<Point2>]) -> (Vec<usize>, f64) {
    let mut combo = vec![0usize; candidates.len()];
    let mut best = (combo.clone(), f64::INFINITY);
    let mut positions: Vec<Point2> = candidates.iter().map(|set| set[0]).collect();
    loop {
        let residual = objective.evaluate(&positions).expect("dense fit").residual;
        if residual < best.1 {
            best = (combo.clone(), residual);
        }
        // Advance the mixed-radix counter; stop after the last combination.
        let mut user = 0;
        loop {
            if user == combo.len() {
                return best;
            }
            combo[user] += 1;
            if combo[user] < candidates[user].len() {
                positions[user] = candidates[user][combo[user]];
                break;
            }
            combo[user] = 0;
            positions[user] = candidates[user][0];
            user += 1;
        }
    }
}

/// Importance weights (Formula 4.3) vs plain top-M (§4.C without §4.D).
pub fn run_ablation_weights(spec: RunSpec) -> serde_json::Value {
    let trials = spec.effort.trials(3, 10);
    let reporter = Reporter::new();
    reporter.table(
        "Ablation: importance weights (§4.D) vs uniform top-M (§4.C)",
        &["variant", "converged error", "final error"],
    );
    let mut out = Vec::new();
    for (name, use_weights) in [("importance weights", true), ("uniform top-M", false)] {
        let mut converged = Vec::new();
        let mut finals = Vec::new();
        for trial in 0..trials {
            let mut rng = StdRng::seed_from_u64(spec.rng_seed(15_000 + trial as u64));
            let field = Rect::square(FIELD_SIDE).expect("valid field");
            let tracks = scenarios::parallel_tracks(&field, 2, 0.0, 10.0).expect("valid tracks");
            let schedule = CollectionSchedule::periodic(0.0, 1.0, 11).expect("valid schedule");
            let users: Vec<UserMotion> = tracks
                .into_iter()
                .map(|t| UserMotion::new(t, schedule.clone(), 2.0).expect("valid user"))
                .collect();
            let scenario = paper_builder()
                .users(users)
                .build(&mut rng)
                .expect("scenario builds");
            let mut config = AttackConfig::default();
            config.smc.n_predictions = 400;
            config.smc.use_importance_weights = use_weights;
            let report = run_tracking(&scenario, &config, &mut rng).expect("tracking runs");
            converged.push(report.converged_mean_error().expect("rounds exist"));
            finals.push(report.final_mean_error().expect("rounds exist"));
        }
        reporter.row(&[name.to_string(), f(mean(&converged)), f(mean(&finals))]);
        out.push(json!({
            "variant": name,
            "converged": mean(&converged),
            "final": mean(&finals),
        }));
    }
    reporter.note(
        "\n§4.D's claim: weighted samples converge faster / more accurately than plain top-M.",
    );
    json!({ "ablation": "weights", "rows": out })
}

/// Neighborhood smoothing of sniffed flux (§3.B) on vs off — the single
/// most important observation-model choice in this reproduction.
pub fn run_ablation_smoothing(spec: RunSpec) -> serde_json::Value {
    let trials = spec.effort.trials(3, 10);
    let reporter = Reporter::new();
    reporter.table(
        "Ablation: neighborhood smoothing of sniffed flux (§3.B)",
        &["variant", "mean localization error"],
    );
    let mut out = Vec::new();
    for (name, smooth) in [("smoothed (default)", true), ("raw per-node flux", false)] {
        // Trials are independent; run them on the shared worker pool.
        let errs: Vec<f64> = fluxprint_fluxpar::pool().map_indexed(trials, |trial| {
            let mut rng = StdRng::seed_from_u64(spec.rng_seed(16_000 + trial as u64));
            let users = random_static_users(1, 5, &mut rng);
            let scenario = paper_builder()
                .users(users)
                .build(&mut rng)
                .expect("scenario builds");
            let mut config = AttackConfig::default();
            config.search.samples = 4000;
            config.smooth = smooth;
            run_instant_localization(&scenario, 0.0, &config, &mut rng)
                .expect("attack runs")
                .mean_error
        });
        reporter.row(&[name.to_string(), f(mean(&errs))]);
        out.push(json!({ "variant": name, "mean_error": mean(&errs) }));
    }
    reporter
        .note("\nraw per-node flux in a randomized tree is so dispersed that the NLS fit degrades");
    reporter.note("severalfold — exactly why §3.B prescribes neighborhood averaging.");
    json!({ "ablation": "smoothing", "rows": out })
}

/// Smooth NLS solvers (Levenberg–Marquardt) vs the derivative-free
/// pipeline on the rectangular field (§4.A's applicability claim), fitted
/// against *simulated* flux — the realistic, non-smooth objective.
pub fn run_ablation_solvers(spec: RunSpec) -> serde_json::Value {
    use fluxprint_netsim::{NetworkBuilder, Sniffer};

    let trials = spec.effort.trials(4, 12);
    let reporter = Reporter::new();
    reporter.table(
        "Ablation: Levenberg–Marquardt vs derivative-free search (rectangular field, simulated flux)",
        &["method", "mean error", "success rate (err < 2)"],
    );
    let model = FluxModel::default();
    // Trials are independent; run them on the shared worker pool.
    let per_trial = fluxprint_fluxpar::pool().map_indexed(trials, |trial| {
        let mut rng = StdRng::seed_from_u64(spec.rng_seed(17_000 + trial as u64));
        let net = NetworkBuilder::new()
            .field(Rect::square(FIELD_SIDE).expect("valid field"))
            .perturbed_grid(30, 30, 0.3)
            .radius(2.4)
            .require_connected(true)
            .build(&mut rng)
            .expect("paper network builds");
        let truth = Point2::new(rng.gen_range(5.0..25.0), rng.gen_range(5.0..25.0));
        let flux = net
            .simulate_flux(&[(truth, 2.0)], &mut rng)
            .expect("simulation runs");
        let sniffer = Sniffer::random_percentage(&net, 10.0, &mut rng).expect("sniffer builds");
        let measured =
            sniffer.observe_smoothed(&net, &flux, fluxprint_netsim::NoiseModel::None, &mut rng);
        let objective = FluxObjective::new(
            net.boundary_arc(),
            model,
            sniffer.positions().to_vec(),
            measured,
        )
        .expect("objective builds");

        // LM from one and from ten random starts.
        let lm_best_of = |starts: usize, rng: &mut StdRng| -> f64 {
            let mut best = (f64::INFINITY, f64::INFINITY); // (residual, err)
            for _ in 0..starts {
                let start = Point2::new(rng.gen_range(0.0..30.0), rng.gen_range(0.0..30.0));
                if let Ok(report) = levenberg_marquardt(&objective, &[start], &[1.0], 60) {
                    if report.fit.residual < best.0 {
                        best = (report.fit.residual, report.fit.positions[0].distance(truth));
                    }
                }
            }
            best.1
        };
        let lm1 = lm_best_of(1, &mut rng);
        let lm10 = lm_best_of(10, &mut rng);

        // Derivative-free: random search + Nelder–Mead (the pipeline).
        let cfg = fluxprint_solver::RandomSearchConfig {
            samples: 2000,
            top_m: 5,
        };
        let fits =
            fluxprint_solver::random_search(&objective, 1, &cfg, &mut rng).expect("search runs");
        [lm1, lm10, fits[0].positions[0].distance(truth)]
    });
    let column = |i: usize| per_trial.iter().map(|t| t[i]).collect::<Vec<f64>>();
    let [lm1_errs, lm10_errs, rs_errs] = [0, 1, 2].map(column);
    let success =
        |errs: &[f64]| errs.iter().filter(|&&e| e < 2.0).count() as f64 / errs.len() as f64;
    reporter.row(&[
        "LM, single start".to_string(),
        f(mean(&lm1_errs)),
        format!("{:.0} %", success(&lm1_errs) * 100.0),
    ]);
    reporter.row(&[
        "LM, best of 10 starts".to_string(),
        f(mean(&lm10_errs)),
        format!("{:.0} %", success(&lm10_errs) * 100.0),
    ]);
    reporter.row(&[
        "random search + Nelder–Mead".to_string(),
        f(mean(&rs_errs)),
        format!("{:.0} %", success(&rs_errs) * 100.0),
    ]);
    reporter.note("\n§4.A's claim, quantified: a single gradient descent is unreliable on the");
    reporter.note("kinked rectangular-boundary objective; heavy multistart repairs part of it,");
    reporter.note("and the derivative-free pipeline is the most accurate of the three, though");
    reporter.note("it too misses some trials.");
    json!({
        "ablation": "solvers",
        "lm1_mean": mean(&lm1_errs),
        "lm1_success": success(&lm1_errs),
        "lm10_mean": mean(&lm10_errs),
        "lm10_success": success(&lm10_errs),
        "rs_mean": mean(&rs_errs),
        "rs_success": success(&rs_errs),
    })
}

/// Countermeasure effectiveness (§6 future work), including the energy
/// bill each defense charges the network (netsim's first-order radio
/// model) — defenses are only viable if the battery cost is bearable.
pub fn run_ablation_countermeasures(spec: RunSpec) -> serde_json::Value {
    use fluxprint_core::Countermeasure;
    use fluxprint_netsim::EnergyModel;
    let trials = spec.effort.trials(3, 10);
    let reporter = Reporter::new();
    reporter.table(
        "Ablation: traffic-reshaping countermeasures (§6)",
        &[
            "defense",
            "mean localization error",
            "vs baseline",
            "energy overhead",
        ],
    );
    let defenses: [(&str, Countermeasure); 5] = [
        ("none", Countermeasure::None),
        (
            "padding 50/node",
            Countermeasure::UniformPadding { amount: 50.0 },
        ),
        (
            "2 dummy sinks",
            Countermeasure::DummySinks {
                count: 2,
                stretch: 2.0,
            },
        ),
        (
            "4 dummy sinks",
            Countermeasure::DummySinks {
                count: 4,
                stretch: 2.0,
            },
        ),
        ("30 % jitter", Countermeasure::FluxJitter { amount: 0.3 }),
    ];
    let mut baseline = f64::NAN;
    let mut baseline_energy = f64::NAN;
    let energy_model = EnergyModel::default();
    let mut out = Vec::new();
    for (name, defense) in defenses {
        // Trials are independent; run them on the shared worker pool.
        let per_trial = fluxprint_fluxpar::pool().map_indexed(trials, |trial| {
            let mut rng = StdRng::seed_from_u64(spec.rng_seed(18_000 + trial as u64));
            let users = random_static_users(1, 5, &mut rng);
            let scenario = ScenarioBuilder::new()
                .users(users)
                .build(&mut rng)
                .expect("scenario builds");
            let mut config = AttackConfig::default();
            config.search.samples = 3000;
            config.defense = defense;
            let err = run_instant_localization(&scenario, 0.0, &config, &mut rng)
                .expect("attack runs")
                .mean_error;
            // Energy bill of one defended window (jitter only perturbs the
            // adversary's *readings*, so its radio cost is the baseline's).
            let mut flux = scenario.simulate_window(0.0, &mut rng).expect("window");
            let stretch_sum: f64 = scenario
                .active_users_at(0.0)
                .iter()
                .map(|&(_, _, s)| s)
                .sum();
            defense
                .apply(&scenario.network, &mut flux, &mut rng)
                .expect("defense");
            let dummy_stretch = match defense {
                Countermeasure::DummySinks { count, stretch } => count as f64 * stretch,
                _ => 0.0,
            };
            let energy = energy_model
                .price_uniform(&scenario.network, &flux, stretch_sum + dummy_stretch)
                .total;
            (err, energy)
        });
        let (errs, energy): (Vec<f64>, Vec<f64>) = per_trial.into_iter().unzip();
        let m = mean(&errs);
        let e = mean(&energy);
        if baseline.is_nan() {
            baseline = m;
            baseline_energy = e;
        }
        reporter.row(&[
            name.to_string(),
            f(m),
            format!("{:.1}×", m / baseline),
            format!("{:.2}×", e / baseline_energy),
        ]);
        out.push(json!({
            "defense": name,
            "mean_error": m,
            "energy_ratio": e / baseline_energy,
        }));
    }
    reporter.note("\ndummy sinks (decoy peaks) dominate cost-effectiveness: the biggest error");
    reporter.note("inflation per unit of energy. Heavy padding also disrupts the fit but pays");
    reporter.note("more energy per unit of protection; jitter is free and useless against");
    reporter.note("neighborhood smoothing.");
    json!({ "ablation": "countermeasures", "rows": out })
}

/// The §4.C heading refinement: forward-cone prediction bias vs the plain
/// uniform-disc prior, on straight trajectories (where heading helps) and
/// reversing trajectories (where a stale heading could hurt).
pub fn run_ablation_heading(spec: RunSpec) -> serde_json::Value {
    let trials = spec.effort.trials(3, 10);
    let reporter = Reporter::new();
    reporter.table(
        "Ablation: heading-aware prediction (§4.C refinement)",
        &["variant", "straight-track error", "reversal-track error"],
    );
    let run = |bias: f64, reverse: bool, seed: u64| -> f64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let rounds = 10usize;
        let traj = if reverse {
            // Out five rounds, back five rounds.
            fluxprint_mobility::Trajectory::new(vec![
                (0.0, Point2::new(6.0, 15.0)),
                (5.0, Point2::new(21.0, 15.0)),
                (10.0, Point2::new(6.0, 15.0)),
            ])
            .expect("valid trajectory")
        } else {
            fluxprint_mobility::Trajectory::linear(
                0.0,
                Point2::new(5.0, 14.0),
                rounds as f64,
                Point2::new(25.0, 17.0),
            )
            .expect("valid trajectory")
        };
        let schedule = CollectionSchedule::periodic(0.0, 1.0, rounds + 1).expect("valid schedule");
        let scenario = paper_builder()
            .user(UserMotion::new(traj, schedule, 2.0).expect("valid user"))
            .build(&mut rng)
            .expect("scenario builds");
        let mut config = AttackConfig::default();
        config.smc.n_predictions = 400;
        config.smc.heading_bias = bias;
        run_tracking(&scenario, &config, &mut rng)
            .expect("tracking runs")
            .converged_mean_error()
            .expect("rounds exist")
    };
    let mut out = Vec::new();
    for (name, bias) in [("uniform disc (paper)", 0.0), ("heading bias 0.5", 0.5)] {
        let straight: Vec<f64> = (0..trials)
            .map(|t| run(bias, false, spec.rng_seed(19_000 + t as u64)))
            .collect();
        let reversal: Vec<f64> = (0..trials)
            .map(|t| run(bias, true, spec.rng_seed(19_500 + t as u64)))
            .collect();
        reporter.row(&[name.to_string(), f(mean(&straight)), f(mean(&reversal))]);
        out.push(json!({
            "variant": name,
            "straight": mean(&straight),
            "reversal": mean(&reversal),
        }));
    }
    reporter.note("\n§4.C suggests heading knowledge can refine the prior; the reversal column");
    reporter.note("shows the cost when the heading assumption breaks.");
    json!({ "ablation": "heading", "rows": out })
}

/// Robustness to measurement imperfections: Gaussian noise and dropout on
/// the sniffed readings.
pub fn run_ablation_noise(spec: RunSpec) -> serde_json::Value {
    use fluxprint_netsim::NoiseModel;
    let trials = spec.effort.trials(3, 10);
    let reporter = Reporter::new();
    reporter.table(
        "Ablation: measurement noise on sniffed flux",
        &["channel", "mean localization error"],
    );
    let channels: [(&str, NoiseModel); 5] = [
        ("exact", NoiseModel::None),
        (
            "5 % relative Gaussian",
            NoiseModel::RelativeGaussian { sigma: 0.05 },
        ),
        (
            "20 % relative Gaussian",
            NoiseModel::RelativeGaussian { sigma: 0.20 },
        ),
        ("10 % dropout", NoiseModel::Dropout { probability: 0.10 }),
        ("30 % dropout", NoiseModel::Dropout { probability: 0.30 }),
    ];
    let mut out = Vec::new();
    for (name, noise) in channels {
        // Trials are independent; run them on the shared worker pool.
        let errs: Vec<f64> = fluxprint_fluxpar::pool().map_indexed(trials, |trial| {
            let mut rng = StdRng::seed_from_u64(spec.rng_seed(20_000 + trial as u64));
            let users = random_static_users(1, 5, &mut rng);
            let scenario = ScenarioBuilder::new()
                .users(users)
                .build(&mut rng)
                .expect("scenario builds");
            let mut config = AttackConfig::default();
            config.search.samples = 3000;
            config.noise = noise;
            run_instant_localization(&scenario, 0.0, &config, &mut rng)
                .expect("attack runs")
                .mean_error
        });
        reporter.row(&[name.to_string(), f(mean(&errs))]);
        out.push(json!({ "channel": name, "mean_error": mean(&errs) }));
    }
    reporter
        .note("\nmoderate Gaussian noise barely matters (the fit is over ~90 smoothed readings);");
    reporter.note("dropout hurts more because zeros are confidently wrong, not just fuzzy.");
    json!({ "ablation": "noise", "rows": out })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn association_never_beats_the_exact_optimum() {
        // A K-user fit can set any stretch to 0, so no subset association
        // fits better than the exact N^K optimum — up to rounding, since
        // the two fits may take the same columns in different orders.
        let v = run_ablation_filter(RunSpec::quick());
        for k in [2, 3] {
            let ratio = v[format!("k{k}_min_residual_ratio").as_str()]
                .as_f64()
                .unwrap();
            assert!(
                ratio >= 1.0 - 1e-9,
                "K={k}: association beat exact ({ratio})"
            );
        }
    }

    #[test]
    fn smoothing_ablation_confirms_benefit() {
        let v = run_ablation_smoothing(RunSpec::quick());
        let rows = v["rows"].as_array().unwrap();
        let smoothed = rows[0]["mean_error"].as_f64().unwrap();
        let raw = rows[1]["mean_error"].as_f64().unwrap();
        assert!(smoothed < raw, "smoothing should help: {smoothed} vs {raw}");
    }
}
