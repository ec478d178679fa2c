//! Golden fixtures for the attack pipelines.
//!
//! Pins full serialized reports against committed fixtures. The
//! comparison is an exact string match: any drift in the simulator,
//! solver, tracker, or RNG consumption — however small — fails loudly.
//!
//! - Instant localization (`fig5_reference.json`): the
//!   [`fluxprint_core::InstantReport`] of Figure 5's first trial at
//!   K = 1, 2 and 3 (quick sample count). It pins the random search's
//!   draw order, its ranking (ties to the first drawn), the sequential
//!   greedy seed and the in-place refinement.
//! - Tracking, two users (`fig7_reference.json`): the
//!   [`fluxprint_core::run_tracking`] report of a Figure-7 straight-track
//!   case (first trial's seeds, quick prediction count). It was blessed
//!   from the pre-engine batch loop (retired after the engine adapter was
//!   proven bit-identical to it), so it anchors the whole modern stack
//!   (engine, grid, batched ingestion) to one committed artifact.
//! - Tracking, three users (`fig7_three_users_reference.json`): the
//!   paths a two-user run never takes — screening bounds against a
//!   two-column base, three-column exact evaluations and three-column
//!   joint fits.
//!
//! To re-bless after an *intentional* numeric change:
//!
//! ```text
//! GOLDEN_BLESS=1 cargo test -p fluxprint-bench --test golden
//! ```
//!
//! and commit the updated fixtures together with the change that
//! explains them.

use fluxprint_bench::fig5;
use fluxprint_bench::fig7::tracking_scenario;
use fluxprint_bench::RunSpec;
use fluxprint_core::{run_tracking, AttackConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Compares `got` with `fixture` (a file under `tests/fixtures/`), or
/// writes it there under `GOLDEN_BLESS`.
fn check_fixture(got: &str, fixture: &str, what: &str) {
    let path = format!("{}/tests/fixtures/{fixture}", env!("CARGO_MANIFEST_DIR"));
    if std::env::var_os("GOLDEN_BLESS").is_some() {
        std::fs::write(&path, got).expect("write fixture");
        return;
    }
    let want = std::fs::read_to_string(&path).expect("fixture exists — bless with GOLDEN_BLESS=1");
    assert_eq!(
        got, want,
        "{what} drifted from the golden fixture {fixture}; if the change \
         is intentional, re-bless with GOLDEN_BLESS=1 and commit the new \
         fixture"
    );
}

/// Runs the `users`-user straight-track case and compares its report
/// with `fixture`.
fn check_golden(users: usize, fixture: &str) {
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
    check_fixture(&got, fixture, &format!("{users}-user tracking output"));
}

#[test]
fn fig5_instant_localization_matches_golden_fixture() {
    let spec = RunSpec::quick();
    let reports: Vec<_> = (1..=3)
        .map(|k| fig5::localization_trial(spec, k, 0))
        .collect();
    let got = format!(
        "{}\n",
        serde_json::to_string_pretty(&reports).expect("reports serialize")
    );
    check_fixture(&got, "fig5_reference.json", "instant localization output");
}

#[test]
fn fig7_tracking_matches_golden_fixture() {
    check_golden(2, "fig7_reference.json");
}

#[test]
fn three_user_tracking_matches_golden_fixture() {
    check_golden(3, "fig7_three_users_reference.json");
}
