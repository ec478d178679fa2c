//! Report rendering: a human diff-style listing and a JSON document.

use std::fmt::Write as _;

use crate::rules::{Finding, Rule};
use crate::waiver::WaivedFinding;

/// Outcome of a full lint run.
#[derive(Debug)]
pub struct Outcome {
    /// Findings that survived waivers, sorted by file then line.
    pub findings: Vec<Finding>,
    /// Findings suppressed by valid waivers, with their justifications.
    pub waived: Vec<WaivedFinding>,
    /// Number of Rust sources scanned.
    pub files_scanned: usize,
    /// Number of manifests checked.
    pub manifests_checked: usize,
}

impl Outcome {
    /// Whether the run is clean (exit code 0).
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }
}

fn location(f: &Finding) -> String {
    match f.function.as_deref() {
        Some(function) => format!("{}:{} [{}] in `{function}`", f.file, f.line, f.rule.name()),
        None => format!("{}:{} [{}]", f.file, f.line, f.rule.name()),
    }
}

/// Renders the human-oriented report.
pub fn human(outcome: &Outcome) -> String {
    let mut out = String::new();
    for f in &outcome.findings {
        let _ = writeln!(out, "{} {}", location(f), f.message);
        if !f.source.is_empty() {
            let _ = writeln!(out, "    | {}", f.source);
        }
    }
    if !outcome.findings.is_empty() {
        let _ = writeln!(out);
    }
    let mut per_rule = String::new();
    for rule in Rule::ALL {
        let n = outcome.findings.iter().filter(|f| f.rule == rule).count();
        if n > 0 {
            let _ = write!(per_rule, " {}:{n}", rule.name());
        }
    }
    let _ = writeln!(
        out,
        "fluxlint: {} finding(s){} across {} source file(s) and {} manifest(s); {} waived",
        outcome.findings.len(),
        per_rule,
        outcome.files_scanned,
        outcome.manifests_checked,
        outcome.waived.len(),
    );
    out
}

fn json_finding(out: &mut String, f: &Finding, waiver: Option<&str>) {
    let _ = write!(
        out,
        "{{\"file\": {}, \"line\": {}, \"rule\": {}, \"function\": {}, \"message\": {}, \
         \"source\": {}, \"waived\": {}",
        escape(&f.file),
        f.line,
        escape(f.rule.name()),
        f.function
            .as_deref()
            .map_or_else(|| "null".to_string(), escape),
        escape(&f.message),
        escape(&f.source),
        waiver.is_some(),
    );
    if let Some(reason) = waiver {
        let _ = write!(out, ", \"waiver_reason\": {}", escape(reason));
    }
    out.push('}');
}

/// Renders the machine-oriented JSON report (stable key order): the
/// surviving findings, the waived findings with their justifications,
/// and a summary block.
pub fn json(outcome: &Outcome) -> String {
    let mut out = String::from("{\n  \"findings\": [");
    for (i, f) in outcome.findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    ");
        json_finding(&mut out, f, None);
    }
    if !outcome.findings.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("],\n  \"waived\": [");
    for (i, w) in outcome.waived.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    ");
        json_finding(&mut out, &w.finding, Some(&w.reason));
    }
    if !outcome.waived.is_empty() {
        out.push_str("\n  ");
    }
    let _ = write!(
        out,
        "],\n  \"summary\": {{\"findings\": {}, \"waived\": {}, \"files_scanned\": {}, \
         \"manifests_checked\": {}}}\n}}",
        outcome.findings.len(),
        outcome.waived.len(),
        outcome.files_scanned,
        outcome.manifests_checked,
    );
    out
}

/// Minimal JSON string escaping (the only JSON writer xtask needs; the
/// driver stays dependency-free on purpose).
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Outcome {
        Outcome {
            findings: vec![Finding {
                file: "crates/core/src/a.rs".into(),
                line: 3,
                rule: Rule::NoPanic,
                message: "`.unwrap(..)` panics on the error path".into(),
                source: "x.unwrap();".into(),
                function: Some("Tracker::step".into()),
            }],
            waived: vec![WaivedFinding {
                finding: Finding {
                    file: "crates/core/src/a.rs".into(),
                    line: 9,
                    rule: Rule::FloatEq,
                    message: "`==` on a float-typed expression".into(),
                    source: "a == b".into(),
                    function: None,
                },
                reason: "exact sentinel comparison".into(),
            }],
            files_scanned: 10,
            manifests_checked: 11,
        }
    }

    #[test]
    fn human_report_lists_findings_and_summary() {
        let text = human(&sample());
        assert!(text.contains("crates/core/src/a.rs:3 [no-panic] in `Tracker::step`"));
        assert!(text.contains("| x.unwrap();"));
        assert!(text.contains("1 finding(s)"));
        assert!(text.contains("1 waived"));
    }

    #[test]
    fn json_report_escapes_and_summarizes() {
        let text = json(&sample());
        assert!(text.contains("\"rule\": \"no-panic\""));
        assert!(text.contains("\"function\": \"Tracker::step\""));
        assert!(text.contains("\"waived\": false"));
        assert!(text.contains("\"waived\": true"));
        assert!(text.contains("\"waiver_reason\": \"exact sentinel comparison\""));
        assert!(text.contains("\"function\": null"));
        assert_eq!(escape("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        let empty = json(&Outcome {
            findings: vec![],
            waived: vec![],
            files_scanned: 0,
            manifests_checked: 0,
        });
        assert!(empty.contains("\"findings\": []"));
        assert!(empty.contains("\"waived\": []"));
    }
}
