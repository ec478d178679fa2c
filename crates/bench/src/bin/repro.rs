//! Regenerates every figure of the paper's evaluation section and drives
//! the fluxreg experiment registry.
//!
//! Usage:
//!
//! ```text
//! repro <target> [--quick] [--seed <u64>] [--json <path>] [--telemetry <path>]
//! repro --plan <file> [--registry <path>] [--gate] [--report <path>]
//! repro --registry-import <file> [--registry <path>]
//! repro --report <path> [--registry <path>]
//!
//! targets:
//!   fig3a fig3b fig4 fig5 fig6a fig6b fig7 fig8a fig8b fig10a fig10b
//!   ablation-filter ablation-weights ablation-smoothing
//!   ablation-solvers ablation-countermeasures ablation-heading
//!   ablation-noise
//!   figures    (all paper figures)
//!   ablations  (all ablations)
//!   all        (everything)
//! ```
//!
//! `--plan` executes a declarative ablation plan (see DESIGN.md §13)
//! through the engine/grid path and appends one registry row per job to
//! the NDJSON registry (`registry/fluxreg.ndjson` unless `--registry`
//! overrides it). With `--gate` the fresh rows are first compared
//! against the latest baseline rows already in the registry under the
//! plan's per-KPI tolerances. `--report` renders the whole registry
//! (including this run's rows) as a trajectory table — HTML when the
//! path ends in `.html`, markdown otherwise — and also works standalone.
//! `--registry-import` folds the recorded figure/ablation results
//! (`docs/repro_results.jsonl`) into the registry; it may be repeated.
//!
//! Exit codes mirror fluxlint v2: `0` success / gate pass, `1` gate
//! regression, `2` usage error, `3` internal error.
//!
//! `--quick` shrinks trial counts to smoke-test sizes; the EXPERIMENTS.md
//! numbers come from full runs. `--seed` perturbs every generator's RNG
//! stream (default 0 — the streams the recorded numbers used). `--json`
//! appends each result as a JSON line to the given file, headed by a
//! `run_meta` record. `--telemetry` appends one NDJSON telemetry block
//! per target (run metadata, counters, histograms, span timings) to the
//! given file; the registry is reset before each target so each block
//! covers exactly one experiment.

use std::io::Write;
use std::path::Path;
use std::process::ExitCode;

use fluxprint_bench::fluxreg::{self, registry, Plan};
use fluxprint_bench::{ablations, fig10, fig3, fig4, fig5, fig6, fig7, fig8, trace, RunSpec};

type Generator = (&'static str, fn(RunSpec) -> serde_json::Value);

const GENERATORS: &[Generator] = &[
    ("fig3a", fig3::run_fig3a),
    ("fig3b", fig3::run_fig3b),
    ("fig4", fig4::run_fig4),
    ("fig5", fig5::run_fig5),
    ("fig6a", fig6::run_fig6a),
    ("fig6b", fig6::run_fig6b),
    ("fig7", fig7::run_fig7),
    ("fig8a", fig8::run_fig8a),
    ("fig8b", fig8::run_fig8b),
    ("fig10a", fig10::run_fig10a),
    ("fig10b", fig10::run_fig10b),
    ("ablation-filter", ablations::run_ablation_filter),
    ("ablation-weights", ablations::run_ablation_weights),
    ("ablation-smoothing", ablations::run_ablation_smoothing),
    ("ablation-solvers", ablations::run_ablation_solvers),
    (
        "ablation-countermeasures",
        ablations::run_ablation_countermeasures,
    ),
    ("ablation-heading", ablations::run_ablation_heading),
    ("ablation-noise", ablations::run_ablation_noise),
];

const DEFAULT_REGISTRY: &str = "registry/fluxreg.ndjson";

fn usage() -> ! {
    eprintln!(
        "usage: repro <target> [--quick] [--seed <u64>] [--json <path>] [--telemetry <path>]"
    );
    eprintln!("       repro --plan <file> [--registry <path>] [--gate] [--report <path>]");
    eprintln!("       repro --registry-import <file> [--registry <path>]");
    eprintln!("       repro --report <path> [--registry <path>]");
    eprintln!("targets: all figures ablations");
    for (name, _) in GENERATORS {
        eprintln!("         {name}");
    }
    std::process::exit(2);
}

fn open_append(path: &str) -> std::fs::File {
    std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .unwrap_or_else(|e| {
            eprintln!("cannot open {path}: {e}");
            std::process::exit(2);
        })
}

/// The registry-mode flags, parsed together because they compose.
struct RegistryMode {
    plan: Option<String>,
    registry: String,
    gate: bool,
    report: Option<String>,
    imports: Vec<String>,
}

/// Runs the registry modes (`--registry-import`, then `--plan` with its
/// optional `--gate`, then `--report`, in that order so the report
/// reflects everything this invocation appended). Returns the process
/// exit code.
fn run_registry_mode(mode: &RegistryMode) -> Result<u8, String> {
    let registry_path = Path::new(&mode.registry);

    for import in &mode.imports {
        let rows = fluxreg::import::import_file(Path::new(import))?;
        eprintln!(
            "repro: imported {count} row(s) from {import} into {registry}",
            count = rows.len(),
            registry = mode.registry,
        );
        registry::append(registry_path, &rows)?;
    }

    let mut verdict_code = 0u8;
    if let Some(plan_path) = &mode.plan {
        let text = std::fs::read_to_string(plan_path)
            .map_err(|e| format!("cannot read plan {plan_path}: {e}"))?;
        let plan = Plan::from_json(&text).map_err(|e| format!("plan {plan_path}: {e}"))?;
        eprintln!(
            "repro: running plan {name} ({hash}, {jobs} job(s))",
            name = plan.name,
            hash = plan.hash,
            jobs = plan.jobs().len(),
        );
        // Baseline = whatever the registry held before this run.
        let baseline = registry::load(registry_path)?;
        let commit = trace::git_describe();
        let rows = fluxreg::runner::run_plan(&plan, commit.as_deref())?;
        registry::append(registry_path, &rows)?;
        eprintln!(
            "repro: appended {count} row(s) to {registry}",
            count = rows.len(),
            registry = mode.registry,
        );
        if mode.gate {
            let report = fluxreg::evaluate(&plan, &baseline, &rows);
            print!("{}", report.render());
            verdict_code = report.verdict().exit_code();
        }
    }

    if let Some(report_path) = &mode.report {
        let rows = registry::load(registry_path)?;
        let rendered = if report_path.ends_with(".html") {
            fluxreg::report::html(&rows)
        } else {
            fluxreg::report::markdown(&rows)
        };
        if let Some(parent) = Path::new(report_path).parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)
                    .map_err(|e| format!("cannot create {}: {e}", parent.display()))?;
            }
        }
        std::fs::write(report_path, rendered)
            .map_err(|e| format!("cannot write {report_path}: {e}"))?;
        eprintln!(
            "repro: wrote trajectory report for {count} row(s) to {report_path}",
            count = rows.len(),
        );
    }

    Ok(verdict_code)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }
    let mut target = None;
    let mut spec = RunSpec::full();
    let mut json_path: Option<String> = None;
    let mut telemetry_path: Option<String> = None;
    let mut mode = RegistryMode {
        plan: None,
        registry: DEFAULT_REGISTRY.to_string(),
        gate: false,
        report: None,
        imports: Vec::new(),
    };
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => spec.effort = fluxprint_bench::Effort::Quick,
            "--seed" => {
                let raw = it.next().unwrap_or_else(|| usage());
                spec.seed = raw.parse().unwrap_or_else(|_| usage());
            }
            "--json" => json_path = Some(it.next().unwrap_or_else(|| usage())),
            "--telemetry" => telemetry_path = Some(it.next().unwrap_or_else(|| usage())),
            "--plan" => mode.plan = Some(it.next().unwrap_or_else(|| usage())),
            "--registry" => mode.registry = it.next().unwrap_or_else(|| usage()),
            "--gate" => mode.gate = true,
            "--report" => mode.report = Some(it.next().unwrap_or_else(|| usage())),
            "--registry-import" => mode.imports.push(it.next().unwrap_or_else(|| usage())),
            name if target.is_none() => target = Some(name.to_string()),
            _ => usage(),
        }
    }
    if let Some(warning) = fluxprint_fluxpar::threads_env_warning() {
        eprintln!("repro: {warning}");
    }
    let registry_mode = mode.plan.is_some() || mode.report.is_some() || !mode.imports.is_empty();
    if registry_mode {
        // Registry modes do not compose with figure targets, and --gate
        // without --plan has nothing to gate.
        if target.is_some() || (mode.gate && mode.plan.is_none()) {
            usage();
        }
        return match run_registry_mode(&mode) {
            Ok(code) => ExitCode::from(code),
            Err(message) => {
                eprintln!("repro: error: {message}");
                ExitCode::from(3)
            }
        };
    }
    let target = target.unwrap_or_else(|| usage());

    let selected: Vec<&Generator> = match target.as_str() {
        "all" => GENERATORS.iter().collect(),
        "figures" => GENERATORS
            .iter()
            .filter(|(n, _)| n.starts_with("fig"))
            .collect(),
        "ablations" => GENERATORS
            .iter()
            .filter(|(n, _)| n.starts_with("ablation"))
            .collect(),
        name => {
            let found: Vec<&Generator> = GENERATORS.iter().filter(|(n, _)| *n == name).collect();
            if found.is_empty() {
                eprintln!("unknown target: {name}");
                usage();
            }
            found
        }
    };

    let mut json_sink = json_path.as_deref().map(open_append);
    let mut telemetry_sink = telemetry_path.as_deref().map(open_append);
    for (name, generator) in selected {
        eprintln!("== running {name} ({}) ==", spec.effort.name());
        // One telemetry block per target: start from an empty registry.
        fluxprint_telemetry::reset();
        let started = std::time::Instant::now();
        let value = generator(spec);
        eprintln!(
            "== {name} done in {:.1}s ==",
            started.elapsed().as_secs_f64()
        );
        if let Some(file) = json_sink.as_mut() {
            writeln!(
                file,
                "{}",
                trace::run_meta_line(name, spec.effort, spec.seed)
            )
            .expect("write json meta line");
            writeln!(file, "{value}").expect("write json line");
        }
        if let Some(file) = telemetry_sink.as_mut() {
            // export_run's NDJSON lines are already newline-terminated.
            write!(file, "{}", trace::export_run(name, spec.effort, spec.seed))
                .expect("write telemetry block");
        }
    }
    ExitCode::SUCCESS
}
