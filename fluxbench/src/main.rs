//! fluxbench: the fluxprint benchmark.
//!
//! ```text
//! fluxbench --workload <name> --seed <u64> --seconds <s> --trace <0|1>
//! ```
//!
//! Generates one workload's inputs from the seed, runs it for about
//! `--seconds`, checks the outputs and prints every metric by name and
//! unit; the last line of standard output is the result as one JSON
//! object. `--trace 0` is the timed run and reports the end-to-end
//! metrics. `--trace 1` is the traced run: it reports the per-layer
//! metrics and writes its spans to `traces/<workload>.ndjson` beside
//! this package's manifest. See README.md.

mod bench;
mod check;
mod inproc;
mod inputs;
mod layers;
mod report;
mod serve;
mod stats;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

use workload::{Workload, GRID_SHARDS, GRID_THREADS, LOADGEN_THREADS};

const USAGE: &str = "usage: fluxbench --workload <serve-open|track-paper|track-warm|fleet-idle> \
                     --seed <u64> --seconds <s> --trace <0|1>";

/// Parsed command line.
#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {value:?} is not {what}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("a workload"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("a u64"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("a duration"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad("a positive duration"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// `git describe` of the tree this binary was built from, looking no
/// higher than the directory holding this package.
fn git_describe() -> String {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let ceiling = dir.parent().and_then(|p| p.parent()).unwrap_or(dir);
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .current_dir(dir)
        .env("GIT_CEILING_DIRECTORIES", ceiling)
        .env("GIT_CONFIG_NOSYSTEM", "1")
        .env("GIT_CONFIG_GLOBAL", "/dev/null")
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Where a traced run writes its spans.
fn trace_path(workload: Workload) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("traces")
        .join(format!("{}.ndjson", workload.name()))
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("fluxbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let loadgen = if args.workload == Workload::ServeOpen {
        LOADGEN_THREADS
    } else {
        0
    };
    let spec = args.workload.spec();
    let ticks = spec.ticks(args.seconds);
    println!(
        "fluxbench workload={} seconds={} trace={} ticks={ticks}",
        args.workload.name(),
        args.seconds,
        u8::from(args.trace),
    );
    println!(
        "meta available_parallelism={cores} loadgen_threads={loadgen} loadgen_connections={loadgen} \
         grid_shards={GRID_SHARDS} grid_threads={GRID_THREADS} profile={} git={} seed={} \
         oversubscribed={}",
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        git_describe(),
        args.seed,
        loadgen > cores || GRID_THREADS > cores,
    );
    let trace_out = args.trace.then(|| trace_path(args.workload));
    let report = match bench::run_workload(args.workload, args.seed, ticks, trace_out.as_deref()) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("fluxbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let catalog = if args.trace {
        report::PER_LAYER
    } else {
        report::END_TO_END
    };
    for &(name, value) in &report.values {
        let unit = catalog.iter().find(|(n, _)| *n == name).map_or("", |m| m.1);
        println!("metric {name} {value} {unit}");
    }
    for (name, value, unit) in &report.notes {
        println!("note {name} {value} {unit}");
    }
    if let Some(path) = &trace_out {
        println!("spans {}", path.display());
    }
    for problem in &report.problems {
        println!("check FAILED: {problem}");
    }
    println!("{}", report.json(catalog));
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
