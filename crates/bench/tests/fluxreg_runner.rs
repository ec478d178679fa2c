//! The fluxreg runner's in-process checks: rows, KPIs and their
//! determinism, residency KPIs, served-vs-in-process parity.
//!
//! `run_plan` resets and then reads the process-global telemetry
//! registry to fold its counts into KPIs such as `evals_per_round`, so
//! any test counting into that registry meanwhile skews them. These
//! tests therefore live in their own binary, where nothing else counts,
//! and take [`registry_lock`] so they never run beside each other.

use std::sync::{Mutex, MutexGuard, PoisonError};

use fluxprint_bench::fluxreg::runner::run_plan;
use fluxprint_bench::fluxreg::Plan;

/// Serializes the tests that reset and read the telemetry registry.
fn registry_lock() -> MutexGuard<'static, ()> {
    static REGISTRY: Mutex<()> = Mutex::new(());
    REGISTRY.lock().unwrap_or_else(PoisonError::into_inner)
}

fn tiny_plan() -> Plan {
    Plan::from_json(
        r#"{
            "name": "runner-tiny",
            "fixed": { "sessions": 2, "rounds": 2, "n_predictions": 24, "keep_m": 4,
                       "sniffers": 16, "threads": 1, "shards": 1 },
            "seeds": [0]
        }"#,
    )
    .unwrap()
}

#[test]
fn tiny_plan_produces_a_complete_deterministic_row() {
    let _registry = registry_lock();
    let plan = tiny_plan();
    let rows = run_plan(&plan, Some("test-commit")).unwrap();
    assert_eq!(rows.len(), 1);
    let row = &rows[0];
    assert_eq!(row.plan_hash, plan.hash);
    assert_eq!(row.commit.as_deref(), Some("test-commit"));
    assert_eq!(row.kpis["rounds"], 4.0);
    for kpi in [
        "mean_error",
        "mean_residual",
        "evals_per_round",
        "rounds_per_s",
    ] {
        assert!(row.kpis.contains_key(kpi), "missing KPI {kpi}");
    }
    assert!(row.kpis["evals_per_round"] > 0.0);
    // The folded telemetry snapshot rode along.
    assert!(row.telemetry["counters"]["engine.rounds"].as_u64().unwrap() >= 4);
    // So did the host's core count, and whether the job's one thread
    // outnumbers it.
    let cores = fluxprint_bench::trace::available_parallelism();
    assert_eq!(
        row.run_meta["available_parallelism"].as_u64(),
        Some(cores as u64)
    );
    assert_eq!(row.run_meta["oversubscribed"].as_bool(), Some(1 > cores));

    // Deterministic KPIs reproduce exactly on a re-run.
    let again = run_plan(&plan, Some("test-commit")).unwrap();
    for kpi in [
        "mean_error",
        "mean_residual",
        "evals_per_round",
        "rounds",
        "active_fraction",
        "checkpoint_bytes",
        "resident_sessions",
    ] {
        assert_eq!(
            row.kpis.get(kpi),
            again[0].kpis.get(kpi),
            "KPI {kpi} is not deterministic"
        );
    }
}

#[test]
fn duty_cycled_hibernating_job_reports_residency_kpis() {
    let _registry = registry_lock();
    let plan = Plan::from_json(
        r#"{
            "name": "runner-hibernate",
            "fixed": { "sessions": 4, "rounds": 4, "n_predictions": 24, "keep_m": 4,
                       "sniffers": 16, "threads": 1, "shards": 1,
                       "hibernate_after": 1, "active_pct": 50 },
            "seeds": [0]
        }"#,
    )
    .unwrap();
    let rows = run_plan(&plan, None).unwrap();
    let row = &rows[0];
    // 50% duty cycle: each session ingests half the trace.
    assert_eq!(row.kpis["rounds"], 8.0);
    assert!(
        row.kpis["resident_sessions"] < 4.0,
        "a one-drain idle threshold must evict someone"
    );
    assert!(row.kpis["checkpoint_bytes"] > 0.0);
    assert!(row.telemetry["counters"]["grid.hibernate.evictions"]
        .as_u64()
        .is_some_and(|n| n > 0));
    // The residency KPIs are as deterministic as the accuracy ones.
    let again = run_plan(&plan, None).unwrap();
    for kpi in ["mean_error", "checkpoint_bytes", "resident_sessions"] {
        assert_eq!(row.kpis.get(kpi), again[0].kpis.get(kpi), "KPI {kpi}");
    }
}

#[test]
fn serve_mode_matches_the_in_process_deterministic_kpis() {
    let _registry = registry_lock();
    let fixed = r#""sessions": 2, "rounds": 3, "n_predictions": 24, "keep_m": 4,
                    "sniffers": 16, "threads": 1, "shards": 2"#;
    let in_process = Plan::from_json(&format!(
        r#"{{ "name": "runner-serve", "fixed": {{ {fixed} }}, "seeds": [0] }}"#
    ))
    .unwrap();
    let served = Plan::from_json(&format!(
        r#"{{ "name": "runner-serve", "fixed": {{ {fixed}, "serve": 1 }}, "seeds": [0] }}"#
    ))
    .unwrap();
    let base = &run_plan(&in_process, None).unwrap()[0];
    let row = &run_plan(&served, None).unwrap()[0];
    // The serving layer is a transport: every deterministic KPI of
    // the in-process run must come through the wire unchanged.
    for kpi in [
        "rounds",
        "mean_error",
        "mean_residual",
        "active_fraction",
        "evals_per_round",
    ] {
        assert_eq!(base.kpis.get(kpi), row.kpis.get(kpi), "KPI {kpi}");
    }
    // The serving KPIs ride along.
    assert!(row.kpis.contains_key("p99_latency_ms"));
    assert!(row.kpis.contains_key("backpressure_stall_ms"));
    assert!(row.telemetry["counters"]["fluxd.rounds.served"]
        .as_u64()
        .is_some_and(|n| n >= 6));
}

#[test]
fn zero_counts_are_rejected() {
    let _registry = registry_lock();
    let plan =
        Plan::from_json(r#"{ "name": "bad", "fixed": { "sessions": 0 }, "seeds": [0] }"#).unwrap();
    assert!(run_plan(&plan, None).is_err());
}
