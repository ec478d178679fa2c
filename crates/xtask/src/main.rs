//! Command-line entry for the workspace task driver.
//!
//! ```text
//! cargo run -p fluxprint-xtask -- lint [--format human|json] [--root <dir>]
//! ```
//!
//! Exit codes:
//!
//! * `0` — clean (no findings)
//! * `1` — findings reported
//! * `2` — usage error (unknown command or flag)
//! * `3` — internal error (unreadable file, or no Rust source under the
//!   root)
//!
//! CI keys off the distinction: a `1` means the tree regressed, a `3`
//! means the lint run itself is broken and needs a human.

use std::path::PathBuf;
use std::process::ExitCode;

use fluxprint_xtask::{report, run_lint};

/// Why a run could not produce a verdict; decides the exit code.
enum Failure {
    /// The invocation itself is wrong (exit 2).
    Usage(String),
    /// The run could not complete (exit 3).
    Internal(String),
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Format {
    Human,
    Json,
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(Failure::Usage(message)) => {
            eprintln!("xtask: {message}");
            ExitCode::from(2)
        }
        Err(Failure::Internal(message)) => {
            eprintln!("xtask: internal error: {message}");
            ExitCode::from(3)
        }
    }
}

fn run(args: &[String]) -> Result<ExitCode, Failure> {
    let usage = "usage: cargo run -p fluxprint-xtask -- lint [--format human|json] [--root <dir>]";
    let mut args = args.iter().map(String::as_str);
    match args.next() {
        Some("lint") => {}
        Some(other) => {
            return Err(Failure::Usage(format!(
                "unknown command `{other}`; try `lint`"
            )))
        }
        None => return Err(Failure::Usage(usage.to_string())),
    }

    let mut format = Format::Human;
    // Default root: the workspace directory two levels above this crate,
    // so the command works regardless of the caller's working directory.
    let mut root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .map(PathBuf::from)
        .ok_or_else(|| Failure::Internal("cannot locate workspace root".to_string()))?;
    while let Some(arg) = args.next() {
        match arg {
            "--format" => {
                format = match args.next() {
                    Some("human") => Format::Human,
                    Some("json") => Format::Json,
                    other => {
                        return Err(Failure::Usage(format!(
                            "--format expects `human` or `json`, got {other:?}"
                        )))
                    }
                };
            }
            "--root" => {
                root = args
                    .next()
                    .map(PathBuf::from)
                    .ok_or_else(|| Failure::Usage("--root needs a value".to_string()))?;
            }
            other => return Err(Failure::Usage(format!("unknown flag `{other}`\n{usage}"))),
        }
    }

    let outcome =
        run_lint(&root).map_err(|e| Failure::Internal(format!("lint walk failed: {e}")))?;
    // A run that linted nothing proves nothing: a wrong root must not pass.
    if outcome.files_scanned == 0 {
        return Err(Failure::Internal(format!(
            "no Rust source under {} (expected src/ or crates/*/src/)",
            root.display()
        )));
    }

    match format {
        Format::Json => println!("{}", report::json(&outcome)),
        Format::Human => print!("{}", report::human(&outcome)),
    }
    Ok(if outcome.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}
