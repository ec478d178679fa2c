//! Golden fixtures for the tracking pipeline.
//!
//! Pins the full serialized [`fluxprint_core::run_tracking`] report for
//! two Figure-7 straight-track cases (first trial's seeds, quick
//! prediction count) against committed fixtures. The comparison is an
//! exact string match: any drift in the simulator, solver, tracker, or
//! RNG consumption — however small — fails loudly.
//!
//! - Two users (`fig7_reference.json`) was blessed from the pre-engine
//!   batch loop (retired after the engine adapter was proven
//!   bit-identical to it), so it anchors the whole modern stack (engine,
//!   grid, batched ingestion) to one committed artifact.
//! - Three users (`fig7_three_users_reference.json`) pins the paths a
//!   two-user run never takes: screening bounds against a two-column
//!   base, three-column exact evaluations and three-column joint fits.
//!
//! To re-bless after an *intentional* numeric change:
//!
//! ```text
//! GOLDEN_BLESS=1 cargo test -p fluxprint-bench --test golden_fig7
//! ```
//!
//! and commit the updated fixtures together with the change that
//! explains them.

use fluxprint_bench::fig7::tracking_scenario;
use fluxprint_bench::RunSpec;
use fluxprint_core::{run_tracking, AttackConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Runs the `users`-user straight-track case and compares its report
/// with `fixture` (a file under `tests/fixtures/`).
fn check_golden(users: usize, fixture: &str) {
    let path = format!("{}/tests/fixtures/{fixture}", env!("CARGO_MANIFEST_DIR"));
    let spec = RunSpec::quick();
    let (scenario, k) = tracking_scenario(&users.to_string(), spec.rng_seed(8000));
    assert_eq!(k, users);
    let mut rng = StdRng::seed_from_u64(spec.rng_seed(9000));
    let mut config = AttackConfig::default();
    config.smc.n_predictions = 400;
    let report = run_tracking(&scenario, &config, &mut rng).expect("tracking runs");
    let got = format!(
        "{}\n",
        serde_json::to_string_pretty(&report).expect("report serializes")
    );

    if std::env::var_os("GOLDEN_BLESS").is_some() {
        std::fs::write(&path, &got).expect("write fixture");
        return;
    }
    let want = std::fs::read_to_string(&path).expect("fixture exists — bless with GOLDEN_BLESS=1");
    assert_eq!(
        got, want,
        "{users}-user tracking output drifted from the golden fixture \
         {fixture}; if the change is intentional, re-bless with \
         GOLDEN_BLESS=1 and commit the new fixture"
    );
}

#[test]
fn fig7_tracking_matches_golden_fixture() {
    check_golden(2, "fig7_reference.json");
}

#[test]
fn three_user_tracking_matches_golden_fixture() {
    check_golden(3, "fig7_three_users_reference.json");
}
