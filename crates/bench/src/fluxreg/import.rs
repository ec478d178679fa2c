//! Folding pre-registry history into registry rows.
//!
//! One legacy shape is importable: `docs/repro_results.jsonl`, the
//! recorded full-run figure/ablation results (`repro all --json <path>`
//! regenerates it). Each figure or ablation record becomes one row, the
//! figure or ablation id as a param and every numeric top-level scalar as
//! a KPI (nested series stay in the original file; the registry carries
//! the comparable scalars).
//!
//! Imported rows get `source: "import:repro-results"`, seed 0 (the
//! recorded runs used the default stream), no commit (it was not
//! recorded at the time), and a plan hash derived from a canonical
//! pseudo-plan naming the import kind — so history groups cleanly in
//! reports without colliding with any real plan. The registry's older
//! `import:bench-*` rows came from since-retired ad-hoc bench files; they
//! stay as history and render like any other row.

use std::collections::BTreeMap;
use std::path::Path;

use serde_json::{json, Value};

use super::plan::plan_hash;
use super::registry::Row;

const KIND: &str = "repro-results";

fn import_row(params: BTreeMap<String, Value>, kpis: BTreeMap<String, f64>) -> Row {
    Row {
        plan: format!("import-{KIND}"),
        plan_hash: plan_hash(&json!({ "name": format!("import-{KIND}"), "import": true })),
        seed: 0,
        commit: None,
        source: format!("import:{KIND}"),
        params,
        kpis,
        run_meta: Value::Null,
        telemetry: Value::Null,
    }
}

/// Numeric top-level scalars of an object (non-finite values skipped).
fn scalar_kpis(value: &Value) -> BTreeMap<String, f64> {
    value
        .as_object()
        .map(|pairs| {
            pairs
                .iter()
                .filter_map(|(k, v)| match v {
                    Value::Number(n) if n.as_f64().is_finite() => Some((k.clone(), n.as_f64())),
                    _ => None,
                })
                .collect()
        })
        .unwrap_or_default()
}

fn import_results_line(value: &Value) -> Option<Row> {
    let (key, id) = if let Some(figure) = value["figure"].as_str() {
        ("figure", figure)
    } else if let Some(ablation) = value["ablation"].as_str() {
        ("ablation", ablation)
    } else {
        return None;
    };
    let mut params = BTreeMap::new();
    params.insert(key.to_string(), Value::String(id.to_string()));
    let kpis = scalar_kpis(value);
    Some(import_row(params, kpis))
}

/// Imports a figure/ablation results NDJSON file.
///
/// # Errors
///
/// Unreadable files, files with no figure/ablation record, or lines that
/// are not JSON.
pub fn import_file(path: &Path) -> Result<Vec<Row>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    // Figure/ablation records; run_meta and unrecognised records are
    // skipped, not errors — the results file interleaves shapes.
    let mut rows = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let value: Value = serde_json::from_str(line)
            .map_err(|e| format!("{}:{}: not JSON: {e}", path.display(), i + 1))?;
        if let Some(row) = import_results_line(&value) {
            rows.push(row);
        }
    }
    if rows.is_empty() {
        return Err(format!(
            "{}: no importable records (expected figure/ablation NDJSON)",
            path.display()
        ));
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_ndjson_folds_figures_and_ablations_skipping_series() {
        let dir = std::env::temp_dir().join("fluxreg_import_results");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("repro_results.jsonl");
        std::fs::write(
            &path,
            concat!(
                "{\"figure\":\"4\",\"mean_error\":0.356,\"rows\":[{\"trial\":0}]}\n",
                "{\"type\":\"run_meta\",\"target\":\"fig5\"}\n",
                "{\"ablation\":\"filter\",\"agreement\":0.75,\"speedup\":4.5}\n",
            ),
        )
        .unwrap();
        let rows = import_file(&path).unwrap();
        assert_eq!(rows.len(), 2, "run_meta lines are skipped");
        assert_eq!(rows[0].params["figure"], json!("4"));
        assert_eq!(rows[0].kpis["mean_error"], 0.356);
        assert!(!rows[0].kpis.contains_key("rows"), "nested series dropped");
        assert_eq!(rows[1].params["ablation"], json!("filter"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unrecognised_files_are_rejected() {
        let dir = std::env::temp_dir().join("fluxreg_import_bad");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("junk.json");
        // Bench-style single objects, one-line or pretty-printed, are not
        // results records.
        let bench_blob = r#"{"bench":"grid_many_sink","targets":[{"sessions":1,"speedup":1.0}]}"#;
        let pretty_bench_blob = "{\n  \"bench\": \"filter_candidates\",\n  \"speedup\": 3.5\n}\n";
        for junk in ["{\"nothing\":1}", bench_blob, pretty_bench_blob] {
            std::fs::write(&path, junk).unwrap();
            assert!(import_file(&path).is_err(), "accepted {junk}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
