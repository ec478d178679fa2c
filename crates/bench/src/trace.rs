//! NDJSON telemetry export for the repro harness.
//!
//! The `repro` binary resets the global telemetry registry before each
//! figure target and calls [`export_run`] after it, producing one
//! self-describing NDJSON block per target: a [`run_meta`] record
//! (target, effort, seed, git version, threads, host cores) followed by
//! the full metric-catalog snapshot. The integration tests share these
//! functions with the binary so the schema they pin is exactly the
//! schema the binary writes.

use std::process::Command;

use fluxprint_telemetry::snapshot;
use serde_json::{json, Value};

use crate::Effort;

/// `git describe --always --dirty` of the enclosing working tree, when a
/// usable `git` is on PATH and the tree is a repository.
pub fn git_describe() -> Option<String> {
    let out = Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8(out.stdout).ok()?;
    let trimmed = text.trim();
    (!trimmed.is_empty()).then(|| trimmed.to_string())
}

/// Worker-thread provenance: the effective pool width plus the state of
/// the `FLUXPRINT_THREADS` override, so every exported record says not
/// just how many threads ran but *why*.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThreadProvenance {
    /// Effective width of the process-wide worker pool.
    pub threads: usize,
    /// Raw `FLUXPRINT_THREADS` value, when set.
    pub env: Option<String>,
    /// `"unset"`, `"applied"`, or `"ignored"` (set but unusable — the
    /// pool fell back to the platform default).
    pub status: &'static str,
}

/// Reads the current thread provenance (forces pool initialisation).
pub fn thread_provenance() -> ThreadProvenance {
    let env = std::env::var(fluxprint_fluxpar::THREADS_ENV).ok();
    let status = match (&env, fluxprint_fluxpar::threads_env_warning()) {
        (None, _) => "unset",
        (Some(_), None) => "applied",
        (Some(_), Some(_)) => "ignored",
    };
    ThreadProvenance {
        threads: fluxprint_fluxpar::pool().threads(),
        env,
        status,
    }
}

/// The host's core count as the standard library reports it (1 when
/// unknown).
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The run-metadata record that heads every exported block and every
/// `--json` results file, and rides in every fluxreg row: target name,
/// effort, run seed, the git version (`null` when unavailable), the
/// worker-thread provenance and the host's core count — enough to make
/// any downstream row self-describing. A seed above `i64::MAX` is written
/// as a float, as the workspace's JSON stand-in writes every such
/// integer.
pub fn run_meta(target: &str, effort: &str, seed: u64, git: Option<&str>) -> Value {
    let prov = thread_provenance();
    json!({
        "type": "run_meta",
        "target": target,
        "effort": effort,
        "seed": seed,
        "git": git,
        "threads": prov.threads,
        "threads_env": prov.env,
        "threads_env_status": prov.status,
        "available_parallelism": available_parallelism(),
    })
}

/// [`run_meta`] for a repro target, as one NDJSON line.
pub fn run_meta_line(target: &str, effort: Effort, seed: u64) -> String {
    run_meta(target, effort.name(), seed, git_describe().as_deref()).to_string()
}

/// One target's telemetry block: the `run_meta` line followed by the
/// current global snapshot as NDJSON (full catalog, zero-padded). Callers
/// reset the registry before the target runs so the block covers exactly
/// one experiment.
pub fn export_run(target: &str, effort: Effort, seed: u64) -> String {
    let mut out = run_meta_line(target, effort, seed);
    out.push('\n');
    out.push_str(&snapshot().to_ndjson());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_meta_line_is_one_valid_json_object() {
        let line = run_meta_line("fig4", Effort::Quick, 7);
        let value: serde_json::Value = serde_json::from_str(&line).expect("valid JSON");
        assert_eq!(value["type"], serde_json::json!("run_meta"));
        assert_eq!(value["target"], serde_json::json!("fig4"));
        assert_eq!(value["effort"], serde_json::json!("quick"));
        assert_eq!(value["seed"], serde_json::json!(7));
        // `git` is either a string or null depending on the environment.
        assert!(value["git"].as_str().is_some() || value["git"].is_null());
        // Thread provenance is always present and self-consistent.
        let threads = value["threads"].as_u64().expect("threads recorded");
        assert!(threads >= 1);
        let cores = value["available_parallelism"]
            .as_u64()
            .expect("host cores recorded");
        assert_eq!(cores, available_parallelism() as u64);
        assert!(cores >= 1);
        assert!(value.get("oversubscribed").is_none(), "plan rows only");
        let status = value["threads_env_status"].as_str().expect("status");
        match status {
            "unset" => assert!(value["threads_env"].is_null()),
            "applied" | "ignored" => assert!(value["threads_env"].as_str().is_some()),
            other => panic!("unexpected threads_env_status {other:?}"),
        }
    }

    #[test]
    fn thread_provenance_matches_the_pool() {
        let prov = thread_provenance();
        assert_eq!(prov.threads, fluxprint_fluxpar::pool().threads());
        if prov.env.is_none() {
            assert_eq!(prov.status, "unset");
        }
    }

    #[test]
    fn export_run_heads_the_snapshot_with_metadata() {
        let block = export_run("fig5", Effort::Full, 0);
        let mut lines = block.lines();
        let head = lines.next().expect("meta line");
        assert!(head.contains("\"type\":\"run_meta\""));
        assert!(head.contains("\"effort\":\"full\""));
        // The catalog padding guarantees records follow even if nothing
        // was recorded.
        assert!(lines.count() > 20);
    }
}
