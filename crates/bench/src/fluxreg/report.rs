//! Static trajectory reports.
//!
//! Renders a registry into one table per plan: rows in registry
//! (append, i.e. chronological) order, columns the union of that plan's
//! parameters and KPIs. The markdown form drops into PR descriptions;
//! the HTML form is a dependency-free static page for artifact browsers.
//! Rendering never mutates the registry — the report is a projection.

use std::collections::BTreeSet;

use serde_json::Value;

use super::registry::Row;

/// One plan's slice of the registry, with its column sets.
struct PlanGroup<'r> {
    plan: &'r str,
    plan_hash: &'r str,
    rows: Vec<&'r Row>,
    param_columns: Vec<String>,
    kpi_columns: Vec<String>,
}

/// Groups rows by `(plan, plan_hash)` in first-appearance order.
fn group(rows: &[Row]) -> Vec<PlanGroup<'_>> {
    let mut groups: Vec<PlanGroup> = Vec::new();
    for row in rows {
        let existing = groups
            .iter_mut()
            .find(|g| g.plan == row.plan && g.plan_hash == row.plan_hash);
        let group = match existing {
            Some(g) => g,
            None => {
                groups.push(PlanGroup {
                    plan: &row.plan,
                    plan_hash: &row.plan_hash,
                    rows: Vec::new(),
                    param_columns: Vec::new(),
                    kpi_columns: Vec::new(),
                });
                groups.last_mut().expect("just pushed")
            }
        };
        group.rows.push(row);
    }
    for group in &mut groups {
        let mut params = BTreeSet::new();
        let mut kpis = BTreeSet::new();
        for row in &group.rows {
            params.extend(row.params.keys().cloned());
            kpis.extend(row.kpis.keys().cloned());
        }
        group.param_columns = params.into_iter().collect();
        group.kpi_columns = kpis.into_iter().collect();
    }
    groups
}

fn param_cell(value: Option<&Value>) -> String {
    match value {
        None | Some(Value::Null) => "–".to_string(),
        Some(Value::String(s)) => s.clone(),
        Some(other) => other.to_json(),
    }
}

fn kpi_cell(value: Option<&f64>) -> String {
    match value {
        None => "–".to_string(),
        Some(v) if v.abs() >= 1000.0 => format!("{v:.0}"),
        Some(v) => format!("{v:.4}"),
    }
}

fn commit_cell(row: &Row) -> String {
    row.commit.clone().unwrap_or_else(|| "–".to_string())
}

/// Renders the registry as markdown: one `##` section and table per plan.
pub fn markdown(rows: &[Row]) -> String {
    let mut out = String::from("# fluxreg trajectory\n");
    for group in group(rows) {
        out.push_str(&format!("\n## {} (`{}`)\n\n", group.plan, group.plan_hash));
        let mut header = vec![
            "seed".to_string(),
            "commit".to_string(),
            "source".to_string(),
        ];
        header.extend(group.param_columns.iter().cloned());
        header.extend(group.kpi_columns.iter().cloned());
        out.push_str(&format!("| {} |\n", header.join(" | ")));
        out.push_str(&format!(
            "|{}|\n",
            header.iter().map(|_| "---").collect::<Vec<_>>().join("|")
        ));
        for row in &group.rows {
            let mut cells = vec![row.seed.to_string(), commit_cell(row), row.source.clone()];
            for column in &group.param_columns {
                cells.push(param_cell(row.params.get(column)));
            }
            for column in &group.kpi_columns {
                cells.push(kpi_cell(row.kpis.get(column)));
            }
            out.push_str(&format!("| {} |\n", cells.join(" | ")));
        }
    }
    out
}

fn escape_html(text: &str) -> String {
    text.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
}

/// Renders the registry as a self-contained static HTML page.
pub fn html(rows: &[Row]) -> String {
    let mut out = String::from(
        "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">\
         <title>fluxreg trajectory</title>\n<style>\
         body{font-family:sans-serif;margin:2em}\
         table{border-collapse:collapse;margin-bottom:2em}\
         th,td{border:1px solid #bbb;padding:0.3em 0.6em;text-align:right}\
         th{background:#eee}td:nth-child(-n+3){text-align:left}\
         code{background:#f4f4f4}\
         </style></head><body>\n<h1>fluxreg trajectory</h1>\n",
    );
    for group in group(rows) {
        out.push_str(&format!(
            "<h2>{} <code>{}</code></h2>\n<table>\n<tr>",
            escape_html(group.plan),
            escape_html(group.plan_hash)
        ));
        for column in ["seed", "commit", "source"]
            .into_iter()
            .chain(group.param_columns.iter().map(String::as_str))
            .chain(group.kpi_columns.iter().map(String::as_str))
        {
            out.push_str(&format!("<th>{}</th>", escape_html(column)));
        }
        out.push_str("</tr>\n");
        for row in &group.rows {
            out.push_str("<tr>");
            let mut cells = vec![row.seed.to_string(), commit_cell(row), row.source.clone()];
            for column in &group.param_columns {
                cells.push(param_cell(row.params.get(column)));
            }
            for column in &group.kpi_columns {
                cells.push(kpi_cell(row.kpis.get(column)));
            }
            for cell in cells {
                out.push_str(&format!("<td>{}</td>", escape_html(&cell)));
            }
            out.push_str("</tr>\n");
        }
        out.push_str("</table>\n");
    }
    out.push_str("</body></html>\n");
    out
}

#[cfg(test)]
mod tests {
    use serde_json::json;

    use super::*;

    fn row(plan: &str, seed: u64, params: &[(&str, i64)], kpis: &[(&str, f64)]) -> Row {
        Row {
            plan: plan.to_string(),
            plan_hash: format!("hash-{plan}"),
            seed,
            commit: Some(format!("c{seed}")),
            source: "plan".to_string(),
            params: params
                .iter()
                .map(|&(k, v)| (k.to_string(), json!(v)))
                .collect(),
            kpis: kpis.iter().map(|&(k, v)| (k.to_string(), v)).collect(),
            run_meta: json!(null),
            telemetry: json!(null),
        }
    }

    #[test]
    fn markdown_groups_by_plan_and_keeps_registry_order() {
        let rows = vec![
            row("a", 0, &[("shards", 1)], &[("mean_error", 0.5)]),
            row("b", 0, &[("sessions", 2)], &[("rounds_per_s", 1234.5)]),
            row(
                "a",
                1,
                &[("shards", 4)],
                &[("mean_error", 0.25), ("extra", 1.0)],
            ),
        ];
        let text = markdown(&rows);
        let a_at = text.find("## a").unwrap();
        let b_at = text.find("## b").unwrap();
        assert!(a_at < b_at, "groups appear in first-appearance order");
        // Union of KPI columns within a group; missing cells dashed.
        assert!(text.contains("| extra |") || text.contains("extra |"));
        assert!(text.contains("| – |"));
        // Large KPI values drop decimals.
        assert!(text.contains("1235") || text.contains("1234"));
        assert!(text.contains("0.5000"));
    }

    #[test]
    fn html_escapes_and_carries_every_row() {
        let rows = vec![row("x<y", 3, &[("shards", 2)], &[("k", 1.0)])];
        let page = html(&rows);
        assert!(page.contains("x&lt;y"));
        assert!(page.contains("<td>3</td>"));
        assert!(page.starts_with("<!DOCTYPE html>"));
        assert!(page.trim_end().ends_with("</html>"));
    }
}
