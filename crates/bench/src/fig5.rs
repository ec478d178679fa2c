//! Figure 5: instant localization cases with 1, 2, and 3 users.
//!
//! Paper (full-network flux, 10 000 random hypotheses, top-10 kept):
//! average error 0.97 (1 user), 1.27 (2 users), 1.63 (3 users); largest
//! errors 1.78 and 2.06 for the 2- and 3-user cases.

use fluxprint_core::{run_instant_localization, AttackConfig, InstantReport, SnifferSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde_json::json;

use crate::common::{f, mean, paper_builder, random_static_users, Reporter};
use crate::RunSpec;

/// Paper-reported averages for 1/2/3 users.
pub const PAPER_MEAN: [f64; 3] = [0.97, 1.27, 1.63];

/// One Figure 5 trial: `k` static users localized from the full map's
/// flux, with the random-search sample count of `spec`'s effort. Public
/// so the golden-fixture test can pin instant localization on the exact
/// fig5 inputs.
pub fn localization_trial(spec: RunSpec, k: usize, trial: usize) -> InstantReport {
    let mut rng = StdRng::seed_from_u64(spec.rng_seed(5000 + (k * 100 + trial) as u64));
    let users = random_static_users(k, 5, &mut rng);
    let scenario = paper_builder()
        .users(users)
        .build(&mut rng)
        .expect("scenario builds");
    let mut config = AttackConfig::default();
    config.sniffer = SnifferSpec::All; // Figure 5 fits the full map
    config.search.samples = spec.effort.trials(4000, 10_000);
    run_instant_localization(&scenario, 0.0, &config, &mut rng).expect("attack runs")
}

/// Runs the Figure 5 cases.
pub fn run_fig5(spec: RunSpec) -> serde_json::Value {
    let trials = spec.effort.trials(3, 10);
    let report = Reporter::new();
    report.table(
        "Figure 5: instant localization (full-map flux, top-10 NLS fits)",
        &[
            "users",
            "mean error (ours)",
            "max error (ours)",
            "mean error (paper)",
        ],
    );

    let mut out = Vec::new();
    for k in 1..=3usize {
        // Trials are independent; run them on the shared worker pool.
        let attacks = fluxprint_fluxpar::pool()
            .map_indexed(trials, |trial| localization_trial(spec, k, trial));
        let means: Vec<f64> = attacks.iter().map(|a| a.mean_error).collect();
        let m = mean(&means);
        let mx = attacks.iter().map(|a| a.max_error).fold(0.0, f64::max);
        report.row(&[k.to_string(), f(m), f(mx), f(PAPER_MEAN[k - 1])]);
        out.push(json!({
            "users": k,
            "mean_error": m,
            "max_error": mx,
            "paper_mean": PAPER_MEAN[k - 1],
        }));
    }
    report.note("\npaper shape: error grows with simultaneous users; all below ~2.1.");
    json!({ "figure": "5", "rows": out })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig5_quick_matches_paper_shape() {
        let v = run_fig5(RunSpec::quick());
        let rows = v["rows"].as_array().unwrap();
        assert_eq!(rows.len(), 3);
        let errs: Vec<f64> = rows
            .iter()
            .map(|r| r["mean_error"].as_f64().unwrap())
            .collect();
        // Within a loose band of the paper's numbers, and single-user is
        // not the worst case.
        for (e, p) in errs.iter().zip(PAPER_MEAN) {
            assert!(*e < p * 3.0 + 1.0, "error {e} too far from paper {p}");
        }
        assert!(
            errs[0] <= errs[2] + 1.0,
            "1-user should not trail 3-user badly"
        );
    }
}
