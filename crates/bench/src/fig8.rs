//! Figure 8: tracking accuracy vs sampling percentage and density.
//!
//! (a) Final-round tracking error vs sniffed percentage (40/20/10/5 %),
//! 1–4 users. Paper: stable until below 5 %.
//!
//! (b) Final-round error vs node count (900–1800) at 90 fixed reports.
//! Paper: density does not significantly affect tracking accuracy.

use fluxprint_core::{run_tracking, AttackConfig, ScenarioBuilder, SnifferSpec};
use fluxprint_geometry::Rect;
use fluxprint_mobility::{scenarios, CollectionSchedule, UserMotion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde_json::json;

use crate::common::{f, mean, Reporter, FIELD_SIDE};
use crate::RunSpec;

const ROUNDS: usize = 10;

fn tracking_error(
    k: usize,
    builder: ScenarioBuilder,
    sniffer: SnifferSpec,
    n_predictions: usize,
    seed: u64,
) -> f64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let field = Rect::square(FIELD_SIDE).expect("valid field");
    let schedule = CollectionSchedule::periodic(0.0, 1.0, ROUNDS + 1).expect("valid schedule");
    let users: Vec<UserMotion> = scenarios::parallel_tracks(&field, k, 0.0, ROUNDS as f64)
        .expect("valid tracks")
        .into_iter()
        .map(|t| UserMotion::new(t, schedule.clone(), 2.0).expect("valid user"))
        .collect();
    let scenario = builder
        .users(users)
        .build(&mut rng)
        .expect("scenario builds");
    let mut config = AttackConfig::default();
    config.sniffer = sniffer;
    config.smc.n_predictions = n_predictions;
    run_tracking(&scenario, &config, &mut rng)
        .expect("tracking runs")
        .final_mean_error()
        .expect("rounds exist")
}

/// Figure 8(a): tracking error vs sampling percentage.
pub fn run_fig8a(spec: RunSpec) -> serde_json::Value {
    let trials = spec.effort.trials(2, 8);
    let n_pred = spec.effort.trials(400, 1000);
    let percentages = [40.0, 20.0, 10.0, 5.0];
    let report = Reporter::new();
    report.table(
        "Figure 8(a): final-round tracking error vs sampling percentage",
        &["users", "40 %", "20 %", "10 %", "5 %"],
    );
    let mut out = Vec::new();
    for k in 1..=4usize {
        let mut row = vec![k.to_string()];
        let mut values = Vec::new();
        for (pi, &pct) in percentages.iter().enumerate() {
            // Trials are independent; run them on the shared worker pool.
            let errs: Vec<f64> = fluxprint_fluxpar::pool().map_indexed(trials, |t| {
                tracking_error(
                    k,
                    ScenarioBuilder::new(),
                    SnifferSpec::Percentage(pct),
                    n_pred,
                    spec.rng_seed((10_000 + k * 1000 + pi * 100 + t) as u64),
                )
            });
            let m = mean(&errs);
            row.push(f(m));
            values.push(m);
        }
        report.row(&row);
        out.push(json!({ "users": k, "percentages": percentages, "errors": values }));
    }
    report.note("\npaper shape: roughly flat down to 10 %, degrading below 5 %.");
    json!({ "figure": "8a", "rows": out })
}

/// Figure 8(b): tracking error vs node count at 90 fixed reports.
pub fn run_fig8b(spec: RunSpec) -> serde_json::Value {
    let trials = spec.effort.trials(2, 8);
    let n_pred = spec.effort.trials(400, 1000);
    let node_counts = [900usize, 1200, 1500, 1800];
    let report = Reporter::new();
    report.table(
        "Figure 8(b): final-round tracking error vs node count (90 reports)",
        &["users", "900", "1200", "1500", "1800"],
    );
    let mut out = Vec::new();
    for k in 1..=4usize {
        let mut row = vec![k.to_string()];
        let mut values = Vec::new();
        for (ni, &n) in node_counts.iter().enumerate() {
            let side = (n as f64).sqrt().round() as usize;
            // Trials are independent; run them on the shared worker pool.
            let errs: Vec<f64> = fluxprint_fluxpar::pool().map_indexed(trials, |t| {
                tracking_error(
                    k,
                    ScenarioBuilder::new().grid_nodes(side, side),
                    SnifferSpec::Count(90),
                    n_pred,
                    spec.rng_seed((11_000 + k * 1000 + ni * 100 + t) as u64),
                )
            });
            let m = mean(&errs);
            row.push(f(m));
            values.push(m);
        }
        report.row(&row);
        out.push(json!({ "users": k, "node_counts": node_counts, "errors": values }));
    }
    report.note("\npaper shape: density does not significantly change tracking accuracy.");
    json!({ "figure": "8b", "rows": out })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig8a_quick_single_user_tracks_well() {
        let v = run_fig8a(RunSpec::quick());
        let rows = v["rows"].as_array().unwrap();
        assert_eq!(rows.len(), 4);
        let single: Vec<f64> = rows[0]["errors"]
            .as_array()
            .unwrap()
            .iter()
            .map(|e| e.as_f64().unwrap())
            .collect();
        // At 40–10 % the single user stays under ~4 field units.
        assert!(
            single[..3].iter().all(|&e| e < 4.0),
            "single-user errors {single:?}"
        );
    }
}
