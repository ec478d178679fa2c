//! Figure 6: localization accuracy vs sampling percentage and density.
//!
//! (a) Error vs percentage of sniffed nodes (40/20/10/5 %), 1–4 users.
//! Paper at 10 %: 1.23 / 1.52 / 1.84 / 2.01; dramatic degradation below
//! 5 %.
//!
//! (b) Error vs node count (900–1800) with the report count fixed at 90.
//! Paper: mild improvement with density, "fairly limited" impact.

use fluxprint_core::{run_instant_localization, AttackConfig, ScenarioBuilder, SnifferSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde_json::json;

use crate::common::{f, mean, paper_builder, random_static_users, Reporter};
use crate::RunSpec;

/// Paper values at 10 % sampling for 1–4 users.
pub const PAPER_AT_10PCT: [f64; 4] = [1.23, 1.52, 1.84, 2.01];

fn localization_error(
    builder: ScenarioBuilder,
    k: usize,
    sniffer: SnifferSpec,
    samples: usize,
    seed: u64,
) -> f64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let users = random_static_users(k, 5, &mut rng);
    let scenario = builder
        .users(users)
        .build(&mut rng)
        .expect("scenario builds");
    let mut config = AttackConfig::default();
    config.sniffer = sniffer;
    config.search.samples = samples;
    run_instant_localization(&scenario, 0.0, &config, &mut rng)
        .expect("attack runs")
        .mean_error
}

/// Figure 6(a): error vs sampling percentage.
pub fn run_fig6a(spec: RunSpec) -> serde_json::Value {
    let trials = spec.effort.trials(3, 10);
    let samples = spec.effort.trials(4000, 8000);
    let percentages = [40.0, 20.0, 10.0, 5.0];
    let report = Reporter::new();
    report.table(
        "Figure 6(a): localization error vs sampling percentage",
        &["users", "40 %", "20 %", "10 %", "5 %", "paper @10 %"],
    );
    let mut out = Vec::new();
    for k in 1..=4usize {
        let mut row = vec![k.to_string()];
        let mut values = Vec::new();
        for (pi, &pct) in percentages.iter().enumerate() {
            // Trials are independent; run them on the shared worker pool.
            let errs: Vec<f64> = fluxprint_fluxpar::pool().map_indexed(trials, |t| {
                localization_error(
                    paper_builder(),
                    k,
                    SnifferSpec::Percentage(pct),
                    samples,
                    spec.rng_seed((6000 + k * 1000 + pi * 100 + t) as u64),
                )
            });
            let m = mean(&errs);
            row.push(f(m));
            values.push(m);
        }
        row.push(f(PAPER_AT_10PCT[k - 1]));
        report.row(&row);
        out.push(json!({
            "users": k,
            "percentages": percentages,
            "errors": values,
            "paper_at_10pct": PAPER_AT_10PCT[k - 1],
        }));
    }
    report.note("\npaper shape: flat from 40 % down to 10 %, degrading below 5 %.");
    json!({ "figure": "6a", "rows": out })
}

/// Figure 6(b): error vs node count at 90 fixed reports.
pub fn run_fig6b(spec: RunSpec) -> serde_json::Value {
    let trials = spec.effort.trials(3, 10);
    let samples = spec.effort.trials(4000, 8000);
    let node_counts = [900usize, 1200, 1500, 1800];
    let report = Reporter::new();
    report.table(
        "Figure 6(b): localization error vs node count (90 reports fixed)",
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
                localization_error(
                    paper_builder().grid_nodes(side, side),
                    k,
                    SnifferSpec::Count(90),
                    samples,
                    spec.rng_seed((7000 + k * 1000 + ni * 100 + t) as u64),
                )
            });
            let m = mean(&errs);
            row.push(f(m));
            values.push(m);
        }
        report.row(&row);
        out.push(json!({ "users": k, "node_counts": node_counts, "errors": values }));
    }
    report.note("\npaper shape: slight improvement with density; overall impact limited.");
    json!({ "figure": "6b", "rows": out })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig6a_quick_shape() {
        let v = run_fig6a(RunSpec::quick());
        let rows = v["rows"].as_array().unwrap();
        assert_eq!(rows.len(), 4);
        for r in rows {
            let errs: Vec<f64> = r["errors"]
                .as_array()
                .unwrap()
                .iter()
                .map(|e| e.as_f64().unwrap())
                .collect();
            // 40 % sampling should not be much worse than 5 % sampling.
            assert!(
                errs[0] <= errs[3] + 2.0,
                "dense sampling unexpectedly bad: {errs:?}"
            );
        }
    }

    #[test]
    fn fig6b_quick_runs() {
        let v = run_fig6b(RunSpec::quick());
        assert_eq!(v["rows"].as_array().unwrap().len(), 4);
    }
}
