//! Waiver comments: the only sanctioned way to silence a finding.
//!
//! Syntax, on the offending line or on a comment line directly above it
//! (attribute lines between the comment and the code are skipped, so a
//! waiver may sit above `#[derive(..)]`):
//!
//! ```text
//! // fluxlint: allow(no-panic) — length checked two lines up
//! // fluxlint: allow(no-panic, float-eq) — exact sentinel comparison
//! ```
//!
//! The reason is mandatory: a waiver without one does not suppress
//! anything and is itself reported, so every surviving panic site in the
//! tree carries a reviewable justification. A waiver must also *work*:
//! each rule it names has to suppress at least one finding, otherwise
//! the waiver is stale and reported under `lint-hygiene` — waivers can
//! only ratchet down. Waivers are parsed from the comment view of the
//! file (see [`crate::lexer`]), so a waiver-shaped string literal has no
//! effect. Region markers (`fluxlint: region(..)` / `endregion`) share
//! the comment namespace and are handled by [`crate::region`].

use crate::rules::{Finding, Rule};

/// A parsed `fluxlint: allow(..)` comment.
#[derive(Debug, Clone)]
pub struct Waiver {
    /// 1-based line the comment sits on.
    pub line: usize,
    /// Rules it names (parsed; unknown names surface as findings).
    pub rules: Vec<Rule>,
    /// The justification text after the separator.
    pub reason: String,
    /// Problems that make the waiver inert, reported to the user.
    pub errors: Vec<String>,
}

/// A finding suppressed by a valid waiver, kept for the report: the JSON
/// output lists waived findings with their justification so reviewers
/// can audit them without re-running the scan.
#[derive(Debug, Clone)]
pub struct WaivedFinding {
    /// The suppressed finding.
    pub finding: Finding,
    /// The waiver's justification.
    pub reason: String,
}

/// Result of applying waivers to one file's raw findings.
#[derive(Debug)]
pub struct FileLint {
    /// Findings that survived, plus hygiene findings for defective or
    /// unused waivers.
    pub findings: Vec<Finding>,
    /// Findings suppressed by valid waivers.
    pub waived: Vec<WaivedFinding>,
}

impl Waiver {
    /// Whether this waiver can suppress findings at all.
    pub fn is_valid(&self) -> bool {
        self.errors.is_empty() && !self.rules.is_empty()
    }

    /// Whether this waiver covers `rule` on `line` (1-based), given the
    /// last line the waiver reaches (see [`coverage_end`]).
    pub fn covers(&self, rule: Rule, line: usize, end: usize) -> bool {
        self.is_valid() && self.rules.contains(&rule) && line >= self.line && line <= end
    }
}

/// Computes how far down a waiver on `line` (1-based) reaches: the line
/// itself, then the next line — skipping over any attribute lines
/// (`#[..]`) directly below the comment, so a waiver above an attributed
/// item covers the item's first code line.
pub fn coverage_end(line: usize, source_lines: &[&str]) -> usize {
    let mut end = line + 1;
    while source_lines
        .get(end - 1)
        .is_some_and(|l| l.trim_start().starts_with("#["))
    {
        end += 1;
    }
    end
}

/// Extracts all waivers from the comment view of one file.
pub fn collect_waivers(comment_view: &str) -> Vec<Waiver> {
    let mut out = Vec::new();
    for (idx, line) in comment_view.lines().enumerate() {
        // Waivers live in working comments only; doc comments (`///`,
        // `//!`) merely *describe* the syntax and must not parse.
        let comment = line.trim_start();
        if comment.starts_with("///") || comment.starts_with("//!") {
            continue;
        }
        let Some(at) = line.find("fluxlint") else {
            continue;
        };
        let rest = line[at + "fluxlint".len()..].trim_start();
        let Some(rest) = rest.strip_prefix(':') else {
            continue;
        };
        let rest = rest.trim_start();
        // Region markers are parsed by `crate::region`, not as waivers.
        if rest.starts_with("region") || rest.starts_with("endregion") {
            continue;
        }
        out.push(parse_waiver(idx + 1, rest));
    }
    out
}

/// Parses the text after `fluxlint:` into a [`Waiver`], recording errors
/// instead of failing so problems reach the report.
fn parse_waiver(line: usize, text: &str) -> Waiver {
    let mut waiver = Waiver {
        line,
        rules: Vec::new(),
        reason: String::new(),
        errors: Vec::new(),
    };
    let Some(args) = text.strip_prefix("allow") else {
        waiver
            .errors
            .push("expected `allow(<rule>, ..)` after `fluxlint:`".to_string());
        return waiver;
    };
    let args = args.trim_start();
    let inner = args.strip_prefix('(').and_then(|a| a.split_once(')'));
    let Some((inner, tail)) = inner else {
        waiver
            .errors
            .push("malformed rule list; expected `allow(<rule>, ..)`".to_string());
        return waiver;
    };
    for name in inner.split(',').map(str::trim).filter(|s| !s.is_empty()) {
        match Rule::from_name(name) {
            Some(rule) => waiver.rules.push(rule),
            None => waiver.errors.push(format!("unknown rule `{name}`")),
        }
    }
    if waiver.rules.is_empty() && waiver.errors.is_empty() {
        waiver.errors.push("empty rule list".to_string());
    }
    // Reason: everything after the separator (em-dash, hyphen(s) or colon).
    let reason = tail
        .trim_start()
        .trim_start_matches(['—', '–', '-', ':'])
        .trim();
    if reason.is_empty() {
        waiver
            .errors
            .push("missing reason; write `… — <why this is sound>`".to_string());
    } else {
        waiver.reason = reason.to_string();
    }
    waiver
}

/// Applies waivers to raw findings. Surviving findings keep their scan
/// order; a hygiene finding is appended for every defective waiver and
/// for every named rule of a valid waiver that suppressed nothing.
pub fn apply_waivers(
    file: &str,
    source_lines: &[&str],
    waivers: &[Waiver],
    raw: Vec<Finding>,
) -> FileLint {
    let ends: Vec<usize> = waivers
        .iter()
        .map(|w| coverage_end(w.line, source_lines))
        .collect();
    let mut suppressed = vec![[0usize; Rule::ALL.len()]; waivers.len()];
    let mut findings = Vec::new();
    let mut waived = Vec::new();

    for f in raw {
        let hit = waivers
            .iter()
            .enumerate()
            .find(|(i, w)| w.covers(f.rule, f.line, ends[*i]));
        match hit {
            Some((i, w)) => {
                if let Some(slot) = Rule::ALL.iter().position(|r| *r == f.rule) {
                    suppressed[i][slot] += 1;
                }
                waived.push(WaivedFinding {
                    finding: f,
                    reason: w.reason.clone(),
                });
            }
            None => findings.push(f),
        }
    }

    let hygiene = |w: &Waiver, message: String| Finding {
        file: file.to_string(),
        line: w.line,
        rule: Rule::LintHygiene,
        message,
        source: source_lines
            .get(w.line.saturating_sub(1))
            .unwrap_or(&"")
            .trim()
            .to_string(),
        function: None,
    };
    for (i, w) in waivers.iter().enumerate() {
        if !w.errors.is_empty() {
            findings.push(hygiene(
                w,
                format!("defective fluxlint waiver ({})", w.errors.join("; ")),
            ));
            continue;
        }
        for rule in &w.rules {
            let slot = Rule::ALL.iter().position(|r| r == rule).unwrap_or(0);
            if suppressed[i][slot] == 0 {
                findings.push(hygiene(
                    w,
                    format!(
                        "unused fluxlint waiver: `allow({})` suppresses no finding; remove it",
                        rule.name()
                    ),
                ));
            }
        }
    }
    FileLint { findings, waived }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_rule_list_and_reason() {
        let ws = collect_waivers("  // fluxlint: allow(no-panic, float-eq) — sentinel compare\n");
        assert_eq!(ws.len(), 1);
        assert!(ws[0].is_valid());
        assert_eq!(ws[0].rules, vec![Rule::NoPanic, Rule::FloatEq]);
        assert_eq!(ws[0].reason, "sentinel compare");
    }

    #[test]
    fn ascii_separators_work_too() {
        for sep in ["-", "--", ":"] {
            let text = format!("// fluxlint: allow(no-panic) {sep} checked above\n");
            let ws = collect_waivers(&text);
            assert!(ws[0].is_valid(), "separator {sep:?}");
            assert_eq!(ws[0].reason, "checked above");
        }
    }

    #[test]
    fn missing_reason_invalidates() {
        let ws = collect_waivers("// fluxlint: allow(no-panic)\n");
        assert!(!ws[0].is_valid());
        assert!(ws[0].errors.iter().any(|e| e.contains("reason")));
    }

    #[test]
    fn unknown_rule_invalidates() {
        let ws = collect_waivers("// fluxlint: allow(no-panics) — oops\n");
        assert!(!ws[0].is_valid());
        assert!(ws[0].errors.iter().any(|e| e.contains("unknown rule")));
    }

    #[test]
    fn new_rule_names_parse_in_waivers() {
        let text = "// fluxlint: allow(thread-confinement, nondet-order, relaxed-atomics, \
                    hot-path-alloc) — exercising every name\n";
        let ws = collect_waivers(text);
        assert!(ws[0].is_valid());
        assert_eq!(ws[0].rules.len(), 4);
    }

    #[test]
    fn doc_comments_describing_the_syntax_do_not_parse() {
        let view = "/// `// fluxlint: allow(<rule>) — <reason>`\n//! fluxlint: allow(..)\n";
        assert!(collect_waivers(view).is_empty());
    }

    #[test]
    fn region_markers_are_not_waivers() {
        let view = "// fluxlint: region(hot-path)\n// fluxlint: endregion\n";
        assert!(collect_waivers(view).is_empty());
    }

    #[test]
    fn covers_same_and_next_line_only() {
        let ws = collect_waivers("\n// fluxlint: allow(no-panic) — why\n");
        let w = &ws[0];
        assert_eq!(w.line, 2);
        let lines = ["", "// waiver", "code", "more"];
        let end = coverage_end(w.line, &lines);
        assert!(w.covers(Rule::NoPanic, 2, end));
        assert!(w.covers(Rule::NoPanic, 3, end));
        assert!(!w.covers(Rule::NoPanic, 4, end));
        assert!(!w.covers(Rule::FloatEq, 3, end));
    }

    #[test]
    fn coverage_skips_attribute_lines() {
        let lines = [
            "// waiver",
            "#[inline]",
            "#[allow(dead_code)]",
            "code()",
            "after()",
        ];
        assert_eq!(coverage_end(1, &lines), 4);
        // No attributes: plain line-below coverage.
        assert_eq!(coverage_end(4, &lines), 5);
    }
}
