//! Command-line driver for the fluxprint attack pipeline.
//!
//! ```text
//! fluxprint example-spec                      # print a template scenario JSON
//! fluxprint simulate <scenario.json>          # flux statistics for one window
//! fluxprint localize <scenario.json>          # instant localization (Figure 5/6)
//! fluxprint track    <scenario.json>          # SMC tracking (Figure 7/8/10)
//!
//! common flags:
//!   --attack <attack.json>   attacker spec (defaults: 10 % sniffing, paper params)
//!   --seed <n>               RNG seed (default 0)
//!   --time <t>               window start for simulate/localize (default: first collection)
//!   --json                   machine-readable output only
//! ```

use std::process::ExitCode;

use fluxprint::core::spec::{AttackSpec, ScenarioSpec};
use fluxprint::{run_instant_localization, run_tracking, Scenario};
use rand::rngs::StdRng;
use rand::SeedableRng;

struct Args {
    command: String,
    scenario_path: Option<String>,
    attack_path: Option<String>,
    seed: u64,
    time: Option<f64>,
    json: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let command = args.next().ok_or("missing command")?;
    let mut parsed = Args {
        command,
        scenario_path: None,
        attack_path: None,
        seed: 0,
        time: None,
        json: false,
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--attack" => parsed.attack_path = Some(args.next().ok_or("--attack needs a path")?),
            "--seed" => {
                parsed.seed = args
                    .next()
                    .ok_or("--seed needs a value")?
                    .parse()
                    .map_err(|e| format!("bad seed: {e}"))?
            }
            "--time" => {
                parsed.time = Some(
                    args.next()
                        .ok_or("--time needs a value")?
                        .parse()
                        .map_err(|e| format!("bad time: {e}"))?,
                )
            }
            "--json" => parsed.json = true,
            path if parsed.scenario_path.is_none() && !path.starts_with('-') => {
                parsed.scenario_path = Some(path.to_string())
            }
            other => return Err(format!("unexpected argument: {other}")),
        }
    }
    Ok(parsed)
}

fn load_scenario(args: &Args) -> Result<(ScenarioSpec, Scenario, StdRng), String> {
    let path = args
        .scenario_path
        .as_ref()
        .ok_or("this command needs a scenario JSON path")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let spec: ScenarioSpec =
        serde_json::from_str(&text).map_err(|e| format!("invalid scenario spec: {e}"))?;
    let mut rng = StdRng::seed_from_u64(args.seed);
    let scenario = spec
        .build(&mut rng)
        .map_err(|e| format!("cannot build scenario: {e}"))?;
    Ok((spec, scenario, rng))
}

fn load_attack(args: &Args) -> Result<AttackSpec, String> {
    match &args.attack_path {
        None => Ok(AttackSpec::default()),
        Some(path) => {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            serde_json::from_str(&text).map_err(|e| format!("invalid attack spec: {e}"))
        }
    }
}

fn default_time(scenario: &Scenario, args: &Args) -> f64 {
    args.time.unwrap_or_else(|| scenario.time_span().0)
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    match args.command.as_str() {
        "example-spec" => {
            let spec = ScenarioSpec::example();
            println!(
                "{}",
                serde_json::to_string_pretty(&spec).expect("spec serializes")
            );
            eprintln!("\n# attacker template:");
            eprintln!(
                "{}",
                serde_json::to_string_pretty(&AttackSpec::default()).expect("spec serializes")
            );
            Ok(())
        }
        "simulate" => {
            let (_, scenario, mut rng) = load_scenario(&args)?;
            let t = default_time(&scenario, &args);
            let flux = scenario
                .simulate_window(t, &mut rng)
                .map_err(|e| format!("simulation failed: {e}"))?;
            let active = scenario.active_users_at(t);
            let total: f64 = flux.iter().sum();
            let peak = flux.iter().cloned().fold(0.0, f64::max);
            if args.json {
                println!(
                    "{}",
                    serde_json::json!({
                        "time": t,
                        "nodes": scenario.network.len(),
                        "active_users": active.len(),
                        "total_flux": total,
                        "peak_flux": peak,
                    })
                );
            } else {
                println!("window starting t={t}");
                println!("  nodes:        {}", scenario.network.len());
                println!(
                    "  avg degree:   {:.1}",
                    scenario.network.topology_stats().avg_degree
                );
                println!("  active users: {}", active.len());
                println!("  total flux:   {total:.0}");
                println!("  peak flux:    {peak:.0}");
            }
            Ok(())
        }
        "localize" => {
            let (_, scenario, mut rng) = load_scenario(&args)?;
            let config = load_attack(&args)?.to_config();
            let t = default_time(&scenario, &args);
            let report = run_instant_localization(&scenario, t, &config, &mut rng)
                .map_err(|e| format!("attack failed: {e}"))?;
            if args.json {
                println!(
                    "{}",
                    serde_json::to_string(&report).expect("report serializes")
                );
            } else {
                println!("instant localization at t={t}");
                for (i, truth) in report.truths.iter().enumerate() {
                    println!("  user {i} truth:    {truth}");
                }
                for (i, est) in report.estimates.iter().enumerate() {
                    println!("  estimate {i}:      {est}");
                }
                println!("  mean error:      {:.2}", report.mean_error);
                println!("  max error:       {:.2}", report.max_error);
            }
            Ok(())
        }
        "track" => {
            let (_, scenario, mut rng) = load_scenario(&args)?;
            let config = load_attack(&args)?.to_config();
            let report = run_tracking(&scenario, &config, &mut rng)
                .map_err(|e| format!("attack failed: {e}"))?;
            if args.json {
                println!(
                    "{}",
                    serde_json::to_string(&report).expect("report serializes")
                );
            } else {
                println!("round |  t      | active | matched error");
                println!("------+---------+--------+--------------");
                for (i, round) in report.rounds.iter().enumerate() {
                    println!(
                        "{:>5} | {:>7.2} | {:>6} | {:>13.2}",
                        i,
                        round.time,
                        round.active.iter().filter(|&&a| a).count(),
                        round.mean_error
                    );
                }
                println!(
                    "\nfinal error {:.2}, converged {:.2}, identity swaps {}",
                    report.final_mean_error().unwrap_or(f64::NAN),
                    report.converged_mean_error().unwrap_or(f64::NAN),
                    report.identity_swaps()
                );
            }
            Ok(())
        }
        other => Err(format!(
            "unknown command {other}; expected example-spec | simulate | localize | track"
        )),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            eprintln!(
                "usage: fluxprint <example-spec|simulate|localize|track> [scenario.json] \
                 [--attack attack.json] [--seed n] [--time t] [--json]"
            );
            ExitCode::from(2)
        }
    }
}
