//! fluxlint — the workspace's std-only static-analysis pass.
//!
//! Run as `cargo run -p fluxprint-xtask -- lint`. The driver walks every
//! first-party Rust source in the workspace through a comment- and
//! string-aware masking lexer ([`lexer`]), attributes each line to its
//! enclosing `fn`/`impl`/module via a brace-tracked token stream
//! ([`scope`]), and enforces nine rules ([`rules`]): `no-panic`,
//! `determinism`, `float-eq`, `no-println`, `thread-confinement`,
//! `nondet-order`, `relaxed-atomics`, `hot-path-alloc` (armed inside
//! `// fluxlint: region(hot-path)` spans, see [`region`]), and
//! `lint-hygiene`. Violations can only be silenced by an inline
//! `// fluxlint: allow(<rule>) — <reason>` waiver ([`waiver`]); waivers
//! without a reason — or ones that suppress nothing — are themselves
//! reported. `--format json` emits a machine-readable report; the exit
//! code is the gate.
//!
//! The crate is deliberately dependency-free so the lint gate can never
//! be the thing that fails to build. Policy details live in DESIGN.md
//! ("The fluxlint pass", "Static analysis v2") and the README's
//! "Linting" section.

pub mod lexer;
pub mod region;
pub mod report;
pub mod rules;
pub mod scope;
pub mod waiver;
pub mod walk;

use std::fs;
use std::io;
use std::path::Path;

use report::Outcome;
use rules::FileContext;
use waiver::FileLint;

/// Runs the full lint pass over the workspace at `root`.
///
/// # Errors
///
/// Returns `io::Error` when a source file or manifest cannot be read;
/// findings are *not* errors — they are data in the [`Outcome`].
pub fn run_lint(root: &Path) -> io::Result<Outcome> {
    let mut findings = Vec::new();
    let mut waived = Vec::new();
    let mut files_scanned = 0usize;

    for path in walk::rust_sources(root)? {
        let rel = walk::display_relative(root, &path);
        let Some(ctx) = FileContext::from_relative_path(&rel) else {
            continue;
        };
        let src = fs::read_to_string(&path)?;
        files_scanned += 1;
        let mut file = lint_source(&ctx, &src);
        findings.append(&mut file.findings);
        waived.append(&mut file.waived);
    }

    let manifest_paths = walk::manifests(root)?;
    let manifests_checked = manifest_paths.len();
    for path in manifest_paths {
        let rel = walk::display_relative(root, &path);
        let src = fs::read_to_string(&path)?;
        findings.append(&mut rules::check_manifest(&rel, &src));
    }

    findings.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    waived
        .sort_by(|a, b| (&a.finding.file, a.finding.line).cmp(&(&b.finding.file, b.finding.line)));
    Ok(Outcome {
        findings,
        waived,
        files_scanned,
        manifests_checked,
    })
}

/// Lints a single source text in context: scans, then applies waivers.
/// Returns the surviving findings alongside the waived ones. This is
/// the seam the fixture tests drive.
pub fn lint_source(ctx: &FileContext, src: &str) -> FileLint {
    let raw = rules::scan_source(ctx, src);
    let masked = lexer::mask_source(src);
    let waivers = waiver::collect_waivers(&masked.comments);
    let lines: Vec<&str> = src.lines().collect();
    waiver::apply_waivers(&ctx.path, &lines, &waivers, raw)
}
