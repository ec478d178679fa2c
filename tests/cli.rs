//! Integration tests for the `fluxprint` command-line driver.

use std::process::Command;

fn fluxprint() -> Command {
    Command::new(env!("CARGO_BIN_EXE_fluxprint"))
}

fn write_small_spec() -> tempdir::TempPath {
    // A compact scenario so the CLI tests stay fast: 400 nodes, one user.
    let spec = serde_json::json!({
        "field": { "shape": "square", "side": 30.0 },
        "deployment": { "kind": "grid", "rows": 20, "cols": 20 },
        "radius": 3.0,
        "window": 1.0,
        "users": [{
            "motion": "static",
            "x": 12.0, "y": 17.0,
            "stretch": 2.0,
            "start": 0.0, "interval": 1.0, "count": 5
        }]
    });
    tempdir::write_temp(&serde_json::to_string_pretty(&spec).unwrap())
}

/// Minimal temp-file helper (no external crates).
mod tempdir {
    use std::path::PathBuf;

    pub struct TempPath(pub PathBuf);

    impl Drop for TempPath {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }

    impl TempPath {
        pub fn as_str(&self) -> &str {
            self.0.to_str().expect("utf-8 temp path")
        }
    }

    pub fn write_temp(contents: &str) -> TempPath {
        use std::sync::atomic::{AtomicU64, Ordering};
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let mut path = std::env::temp_dir();
        path.push(format!(
            "fluxprint-cli-test-{}-{:?}-{}.json",
            std::process::id(),
            std::thread::current().id(),
            COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::write(&path, contents).expect("write temp spec");
        TempPath(path)
    }
}

#[test]
fn example_spec_prints_valid_json() {
    let output = fluxprint().arg("example-spec").output().expect("runs");
    assert!(output.status.success());
    let text = String::from_utf8(output.stdout).expect("utf-8");
    let spec: serde_json::Value = serde_json::from_str(&text).expect("valid JSON");
    assert_eq!(spec["field"]["shape"], "square");
    assert!(!spec["users"].as_array().unwrap().is_empty());
}

#[test]
fn simulate_reports_window_statistics() {
    let spec = write_small_spec();
    let output = fluxprint()
        .args(["simulate", spec.as_str(), "--seed", "7", "--json"])
        .output()
        .expect("runs");
    assert!(
        output.status.success(),
        "{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let value: serde_json::Value = serde_json::from_slice(&output.stdout).expect("valid JSON");
    assert_eq!(value["nodes"], 400);
    assert_eq!(value["active_users"], 1);
    // Peak flux = n × stretch for a single user.
    assert_eq!(value["peak_flux"].as_f64().unwrap(), 800.0);
}

#[test]
fn localize_finds_the_user() {
    let spec = write_small_spec();
    let attack = tempdir::write_temp(r#"{"samples": 1500, "sniffer_percentage": 20.0}"#);
    let output = fluxprint()
        .args([
            "localize",
            spec.as_str(),
            "--attack",
            attack.as_str(),
            "--seed",
            "7",
            "--json",
        ])
        .output()
        .expect("runs");
    assert!(
        output.status.success(),
        "{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let report: serde_json::Value = serde_json::from_slice(&output.stdout).expect("valid JSON");
    let err = report["mean_error"].as_f64().expect("mean_error");
    assert!(err < 5.0, "CLI localization error {err}");
}

/// The attack spec's `assumed_k` reaches the search, and a conservative
/// overestimate reports only the sinks fitted above
/// `smc::ACTIVITY_THRESHOLD` (§4.A, §4.E): the surplus sink at q ≈ 0 is
/// dropped.
#[test]
fn localize_reports_only_active_sinks_of_an_overestimated_k() {
    let spec = write_small_spec();
    let attack =
        tempdir::write_temp(r#"{"samples": 1500, "sniffer_percentage": 20.0, "assumed_k": 3}"#);
    let output = fluxprint()
        .args([
            "localize",
            spec.as_str(),
            "--attack",
            attack.as_str(),
            "--seed",
            "7",
            "--json",
        ])
        .output()
        .expect("runs");
    assert!(
        output.status.success(),
        "{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let report: fluxprint::InstantReport =
        serde_json::from_slice(&output.stdout).expect("an instant report");
    let best = &report.top_fits[0];
    assert_eq!(
        best.positions.len(),
        3,
        "assumed_k did not reach the search"
    );
    let active: Vec<_> = best
        .active_sinks(fluxprint::smc::ACTIVITY_THRESHOLD)
        .into_iter()
        .map(|i| best.positions[i])
        .collect();
    assert!(!active.is_empty(), "the user went undetected");
    assert!(active.len() < 3, "no surplus sink fell to q ≈ 0");
    assert_eq!(report.estimates, active);
    assert!(report.mean_error < 5.0, "error {}", report.mean_error);
}

#[test]
fn unknown_command_fails_with_usage() {
    let output = fluxprint().arg("frobnicate").output().expect("runs");
    assert!(!output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("usage"), "no usage in: {stderr}");
}

#[test]
fn missing_scenario_is_a_clean_error() {
    let output = fluxprint()
        .args(["localize", "/nonexistent/path.json"])
        .output()
        .expect("runs");
    assert!(!output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("cannot read"),
        "unexpected stderr: {stderr}"
    );
}
