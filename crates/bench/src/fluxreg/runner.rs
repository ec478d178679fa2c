//! Plan execution through the engine/grid path.
//!
//! Each job builds a deterministic scenario from its parameters — a
//! perturbed-grid network, a sniffer set, and `rounds` observation
//! windows of `users` mobile users under the requested noise — then
//! drives `sessions` tracking sessions through a [`Grid`] with the
//! requested shard/thread budget. KPIs split into two classes:
//!
//! * **Deterministic** (gateable with tight tolerances): `mean_error`
//!   (identity-free accuracy vs. ground truth, via `core::metrics`),
//!   `mean_residual` and `active_fraction` (engine [`OutcomeKpis`]),
//!   `evals_per_round` (objective evaluations per ingested round),
//!   `rounds`, and the residency pair `checkpoint_bytes` /
//!   `resident_sessions` (end-of-run grid footprint under the job's
//!   `hibernate_after` / `active_pct` duty cycle). These are bit-stable
//!   for a fixed seed at any thread count (DESIGN.md §9/§11/§15).
//! * **Wall-clock** (`wall_ms`, `rounds_per_s`): recorded for the
//!   trajectory; gate them only with generous relative tolerances.
//!
//! A nonzero `serve` parameter reroutes the job through a loopback
//! fluxd (one TCP connection per session, pipelined batches under
//! credit-window flow control) instead of an in-process grid. The
//! deterministic KPIs must come out identical — the serving layer is a
//! transport — and `p99_latency_ms` / `backpressure_stall_ms` ride
//! along as recorded wall-clock KPIs.
//!
//! The telemetry registry is reset per job, so the folded snapshot
//! embedded in each row covers exactly that job.

use std::collections::BTreeMap;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde_json::{json, Value};

use fluxprint_core::metrics::mean_trajectory_error;
use fluxprint_engine::{Engine, Grid, GridConfig, OutcomeKpis, SessionConfig, StepOutcome, Submit};
use fluxprint_fluxd::{server as fluxd_server, Client, ServerConfig, SessionSpec, WireOutcome};
use fluxprint_fluxmodel::FluxModel;
use fluxprint_geometry::{Point2, Rect};
use fluxprint_netsim::{Network, NetworkBuilder, NoiseModel, ObservationRound, Sniffer};
use fluxprint_smc::SmcConfig;
use fluxprint_telemetry::names;

use super::plan::{Job, Plan};
use super::registry::Row;
use crate::trace;

/// Runs every job of the plan and returns its registry rows, in job
/// order. `commit` is recorded verbatim as row provenance.
///
/// # Errors
///
/// Invalid parameter combinations or an engine failure mid-job, as
/// strings (the repro binary maps them to exit 3).
pub fn run_plan(plan: &Plan, commit: Option<&str>) -> Result<Vec<Row>, String> {
    plan.jobs()
        .iter()
        .map(|job| run_job(plan, job, commit))
        .collect()
}

/// A parameter value as JSON, integral values as integers (`2`, not
/// `2.0`) so row params canonicalise identically run-to-run.
fn param_json(v: f64) -> Value {
    // fluxlint: allow(float-eq) — fract() == 0.0 is an exact integrality test, not a value comparison
    if v.fract() == 0.0 && v.abs() < 2f64.powi(53) {
        json!(v as i64)
    } else {
        json!(v)
    }
}

fn network_for(job: &Job) -> Result<Network, String> {
    let mut rng = StdRng::seed_from_u64(0xF1A6 ^ job.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    NetworkBuilder::new()
        .field(Rect::square(30.0).map_err(|e| format!("field: {e}"))?)
        .perturbed_grid(12, 12, 0.3)
        .radius(4.0)
        .build(&mut rng)
        .map_err(|e| format!("network build: {e}"))
}

/// Ground-truth user states for one round: position and stretch per user.
fn truth_at(users: usize, t: f64) -> Vec<(Point2, f64)> {
    (0..users)
        .map(|k| {
            let col = (k % 4) as f64;
            let row = (k / 4) as f64;
            let pos = Point2::new(5.0 + 3.5 * col + 1.3 * t, 6.0 + 5.0 * row + 0.4 * t);
            (pos, 1.0 + 0.25 * k as f64)
        })
        .collect()
}

/// The shared observation trace plus the per-round truth positions.
fn trace_for(
    job: &Job,
    net: &Network,
) -> Result<(Vec<ObservationRound>, Vec<Vec<Point2>>), String> {
    let mut rng = StdRng::seed_from_u64(0x51FF ^ job.seed.wrapping_mul(0xD134_2543_DE82_EF95));
    let sniffer = Sniffer::random_count(net, job.count("sniffers"), &mut rng)
        .map_err(|e| format!("sniffer: {e}"))?;
    let sigma = job.value("noise_sigma");
    let noise = if sigma > 0.0 {
        NoiseModel::RelativeGaussian { sigma }
    } else {
        NoiseModel::None
    };
    let users = job.count("users");
    let mut rounds = Vec::new();
    let mut truths = Vec::new();
    for i in 1..=job.count("rounds") {
        let t = i as f64;
        let truth = truth_at(users, t);
        let flux = net
            .simulate_flux(&truth, &mut rng)
            .map_err(|e| format!("flux: {e}"))?;
        rounds.push(sniffer.observe_round_smoothed(t, net, &flux, noise, &mut rng));
        truths.push(truth.iter().map(|&(p, _)| p).collect());
    }
    Ok((rounds, truths))
}

fn session_seed(job: &Job, s: usize) -> u64 {
    1000 + job.seed.wrapping_mul(7919) + s as u64
}

/// The duty-cycle stride: with `active_pct` percent of rounds delivered
/// to each session, session `s` receives round `i` iff
/// `(s + i) % stride == 0` — sessions rotate through the cycle, so idle
/// streaks form and hibernation (when enabled) has evictions to do.
/// `active_pct >= 100` means every session sees every round.
fn duty_stride(job: &Job) -> usize {
    let active_pct = job.value("active_pct").clamp(1.0, 100.0);
    ((100.0 / active_pct).round() as usize).max(1)
}

/// One fleet drive's results: per-session outcomes with the trace
/// indices of the rounds each session actually ingested (duty cycling
/// makes them sparse), plus the end-of-run residency KPIs.
struct DriveResult {
    outcomes: Vec<Vec<StepOutcome>>,
    ingested: Vec<Vec<usize>>,
    /// Serialized size of the whole grid checkpoint after the run —
    /// every resident, hot or hibernated, as its compact checkpoint.
    checkpoint_bytes: usize,
    /// Sessions still hot (fully resident) after the final drain.
    resident_sessions: usize,
}

/// Drives the job's fleet once.
fn drive(engine: &Engine, job: &Job, trace: &[ObservationRound]) -> Result<DriveResult, String> {
    let grid_config = GridConfig {
        shards: job.count("shards"),
        queue_capacity: trace.len().max(1),
        threads: job.count("threads"),
        hibernate_after: job.count("hibernate_after") as u64,
    };
    let config = SessionConfig {
        users: job.count("users"),
        smc: SmcConfig {
            n_predictions: job.count("n_predictions"),
            keep_m: job.count("keep_m"),
            ..Default::default()
        },
        start_time: 0.0,
        warm: job.count("warm") > 0,
    };
    let sessions = job.count("sessions");
    let stride = duty_stride(job);
    let mut grid = Grid::open(engine.clone(), &grid_config).map_err(|e| format!("{e}"))?;
    let ids: Vec<_> = (0..sessions)
        .map(|s| grid.open_session(&config, session_seed(job, s)))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("open session: {e}"))?;
    let mut ingested = vec![Vec::new(); sessions];
    for (i, round) in trace.iter().enumerate() {
        for (s, &id) in ids.iter().enumerate() {
            if (s + i) % stride != 0 {
                continue;
            }
            match grid
                .submit(id, round.clone())
                .map_err(|e| format!("submit: {e}"))?
            {
                Submit::Queued => ingested[s].push(i),
                Submit::Backpressure(_) => {
                    return Err("queue sized for the whole trace backpressured".to_string())
                }
            }
        }
        // Per-round drain barriers give idle streaks a clock to tick on;
        // without one, hibernation could never observe an idle drain.
        if stride > 1 || grid_config.hibernate_after > 0 {
            grid.drain().map_err(|e| format!("drain: {e}"))?;
        }
    }
    grid.join().map_err(|e| format!("drain: {e}"))?;
    let outcomes = ids
        .iter()
        .map(|&id| grid.take_outcomes(id).map_err(|e| format!("outcomes: {e}")))
        .collect::<Result<_, _>>()?;
    Ok(DriveResult {
        outcomes,
        ingested,
        checkpoint_bytes: grid
            .checkpoint_json()
            .map_err(|e| format!("checkpoint: {e}"))?
            .len(),
        resident_sessions: grid.hot_sessions(),
    })
}

/// One serve-mode drive: per-session wire outcomes plus latency stats.
struct ServeDrive {
    outcomes: Vec<Vec<WireOutcome>>,
    ingested: Vec<Vec<usize>>,
    latencies_ns: Vec<u64>,
    stall_ns: u64,
}

/// Drives the job's fleet through a loopback fluxd: one TCP connection
/// per session, each replaying its duty-cycled slice of the trace in
/// pipelined batches under credit-window flow control. The wire
/// outcomes are bit-identical to the in-process [`drive`] by the
/// serving layer's determinism contract, so serve-mode rows gate the
/// same KPIs.
fn drive_served(
    engine: &Engine,
    job: &Job,
    trace: &[ObservationRound],
) -> Result<ServeDrive, String> {
    let grid_config = GridConfig {
        shards: job.count("shards"),
        queue_capacity: trace.len().max(1),
        threads: job.count("threads"),
        hibernate_after: job.count("hibernate_after") as u64,
    };
    let server = fluxd_server::spawn(
        engine.clone(),
        &ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            grid: grid_config,
            credits: 0,
            drain_threshold: 0,
        },
    )
    .map_err(|e| format!("fluxd spawn: {e}"))?;
    let addr = server.addr();
    let sessions = job.count("sessions");
    let stride = duty_stride(job);

    type ConnResult = Result<(Vec<WireOutcome>, Vec<usize>, Vec<u64>, u64), String>;
    let per_conn: Vec<ConnResult> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..sessions)
            .map(|s| {
                scope.spawn(move || -> ConnResult {
                    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
                    let spec = SessionSpec {
                        seed: session_seed(job, s),
                        users: job.count("users") as u32,
                        n_predictions: job.count("n_predictions") as u32,
                        keep_m: job.count("keep_m") as u32,
                        warm: job.count("warm") > 0,
                        start_time: 0.0,
                    };
                    let session = client
                        .open_session(&spec)
                        .map_err(|e| format!("open session: {e}"))?;
                    let mine: Vec<usize> =
                        (0..trace.len()).filter(|i| (s + i) % stride == 0).collect();
                    let rounds: Vec<ObservationRound> =
                        mine.iter().map(|&i| trace[i].clone()).collect();
                    for batch in rounds.chunks(4) {
                        client
                            .submit(session, batch)
                            .map_err(|e| format!("submit: {e}"))?;
                    }
                    client.wait_acks().map_err(|e| format!("acks: {e}"))?;
                    let outcomes = client.take_outcomes(session);
                    let latencies = client.latencies_ns().to_vec();
                    let stall = client.stall_ns();
                    client.goodbye().map_err(|e| format!("goodbye: {e}"))?;
                    Ok((outcomes, mine, latencies, stall))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| {
                handle
                    .join()
                    .map_err(|_| "connection thread panicked".to_string())?
            })
            .collect()
    });
    server.shutdown().map_err(|e| format!("shutdown: {e}"))?;

    let mut result = ServeDrive {
        outcomes: Vec::with_capacity(sessions),
        ingested: Vec::with_capacity(sessions),
        latencies_ns: Vec::new(),
        stall_ns: 0,
    };
    for conn in per_conn {
        let (outcomes, mine, latencies, stall) = conn?;
        result.outcomes.push(outcomes);
        result.ingested.push(mine);
        result.latencies_ns.extend(latencies);
        result.stall_ns += stall;
    }
    Ok(result)
}

fn run_job_served(plan: &Plan, job: &Job, commit: Option<&str>) -> Result<Row, String> {
    fluxprint_telemetry::reset();
    let net = network_for(job)?;
    let (trace_rounds, truths) = trace_for(job, &net)?;
    let engine =
        Engine::for_network(&net, FluxModel::default()).map_err(|e| format!("engine: {e}"))?;

    let reps = job.count("reps").max(1);
    let mut wall_ms = f64::INFINITY;
    let mut result = None;
    for _ in 0..reps {
        let start = Instant::now();
        result = Some(drive_served(&engine, job, &trace_rounds)?);
        wall_ms = wall_ms.min(start.elapsed().as_secs_f64() * 1e3);
    }
    let result = result.expect("reps >= 1");

    let total_rounds = result.ingested.iter().map(Vec::len).sum::<usize>() as f64;
    let evals = fluxprint_telemetry::snapshot().counter(names::SOLVER_OBJECTIVE_EVALS);
    let evals_per_round = evals as f64 / (reps as f64 * total_rounds);

    // Fold the wire outcomes into the same deterministic aggregates the
    // in-process path reports, so a serve plan's gates pin the serving
    // layer's bit-identity, not just its liveness.
    let mut engine_kpis = OutcomeKpis::default();
    let mut error_sum = 0.0;
    let mut error_sessions = 0usize;
    for (session_outcomes, rounds) in result.outcomes.iter().zip(&result.ingested) {
        for outcome in session_outcomes {
            engine_kpis.rounds += 1;
            engine_kpis.residual_sum += outcome.residual;
            engine_kpis.user_rounds += outcome.active.len() as u64;
            engine_kpis.active_user_rounds += outcome.active.iter().filter(|a| **a).count() as u64;
        }
        let pairs: Vec<(Vec<Point2>, Vec<Point2>)> = session_outcomes
            .iter()
            .zip(rounds)
            .map(|(outcome, &i)| {
                let estimates = outcome
                    .estimates
                    .iter()
                    .map(|&(x, y)| Point2::new(x, y))
                    .collect();
                (estimates, truths[i].clone())
            })
            .collect();
        let err = mean_trajectory_error(&pairs).map_err(|e| format!("accuracy: {e}"))?;
        if err.is_finite() {
            error_sum += err;
            error_sessions += 1;
        }
    }

    let mut latencies = result.latencies_ns;
    latencies.sort_unstable();
    let p99_ms = if latencies.is_empty() {
        0.0
    } else {
        latencies[((latencies.len() - 1) as f64 * 0.99).round() as usize] as f64 / 1e6
    };

    let mut kpis = BTreeMap::new();
    let mut kpi = |name: &str, value: f64| {
        if value.is_finite() {
            kpis.insert(name.to_string(), value);
        }
    };
    kpi("rounds", total_rounds);
    kpi("wall_ms", wall_ms);
    kpi("rounds_per_s", total_rounds / (wall_ms / 1e3));
    kpi("evals_per_round", evals_per_round);
    if error_sessions > 0 {
        kpi("mean_error", error_sum / error_sessions as f64);
    }
    kpi("mean_residual", engine_kpis.mean_residual());
    kpi("active_fraction", engine_kpis.active_fraction());
    kpi("p99_latency_ms", p99_ms);
    kpi("backpressure_stall_ms", result.stall_ns as f64 / 1e6);

    let prov = trace::thread_provenance();
    let telemetry: Value = serde_json::from_str(&fluxprint_telemetry::snapshot().to_inline_json())
        .map_err(|e| format!("telemetry fold: {e}"))?;
    Ok(Row {
        plan: plan.name.clone(),
        plan_hash: plan.hash.clone(),
        seed: job.seed,
        commit: commit.map(str::to_string),
        source: "plan".to_string(),
        params: job
            .params
            .iter()
            .map(|(k, v)| (k.clone(), param_json(*v)))
            .collect(),
        kpis,
        run_meta: json!({
            "target": format!("plan:{}", plan.name),
            "effort": "plan",
            "seed": job.seed,
            "git": commit.map_or(Value::Null, |c| Value::String(c.to_string())),
            "threads": prov.threads,
            "threads_env": prov.env.as_deref().map_or(Value::Null, |e| Value::String(e.to_string())),
            "threads_env_status": prov.status,
        }),
        telemetry,
    })
}

fn run_job(plan: &Plan, job: &Job, commit: Option<&str>) -> Result<Row, String> {
    for required in ["sessions", "rounds", "users", "threads", "shards"] {
        if job.count(required) == 0 {
            return Err(format!("parameter {required:?} must be at least 1"));
        }
    }
    if job.count("serve") > 0 {
        return run_job_served(plan, job, commit);
    }
    fluxprint_telemetry::reset();
    let net = network_for(job)?;
    let (trace_rounds, truths) = trace_for(job, &net)?;
    let engine =
        Engine::for_network(&net, FluxModel::default()).map_err(|e| format!("engine: {e}"))?;

    let reps = job.count("reps").max(1);
    let mut wall_ms = f64::INFINITY;
    let mut result = None;
    for _ in 0..reps {
        let start = Instant::now();
        result = Some(drive(&engine, job, &trace_rounds)?);
        wall_ms = wall_ms.min(start.elapsed().as_secs_f64() * 1e3);
    }
    let result = result.expect("reps >= 1");

    // Duty cycling makes per-session round counts sparse; KPIs normalize
    // by the rounds actually ingested, not the trace length.
    let total_rounds = result.ingested.iter().map(Vec::len).sum::<usize>() as f64;
    let evals = fluxprint_telemetry::snapshot().counter(names::SOLVER_OBJECTIVE_EVALS);
    let evals_per_round = evals as f64 / (reps as f64 * total_rounds);

    let mut engine_kpis = OutcomeKpis::default();
    let mut error_sum = 0.0;
    let mut error_sessions = 0usize;
    for (session_outcomes, rounds) in result.outcomes.iter().zip(&result.ingested) {
        engine_kpis.fold(session_outcomes);
        // Zip each outcome with the truth of the round it came from —
        // under duty cycling those are not the first len() rounds.
        let pairs: Vec<(Vec<Point2>, Vec<Point2>)> = session_outcomes
            .iter()
            .zip(rounds)
            .map(|(outcome, &i)| (outcome.estimates.clone(), truths[i].clone()))
            .collect();
        let err = mean_trajectory_error(&pairs).map_err(|e| format!("accuracy: {e}"))?;
        if err.is_finite() {
            error_sum += err;
            error_sessions += 1;
        }
    }

    let mut kpis = BTreeMap::new();
    let mut kpi = |name: &str, value: f64| {
        if value.is_finite() {
            kpis.insert(name.to_string(), value);
        }
    };
    kpi("rounds", total_rounds);
    kpi("wall_ms", wall_ms);
    kpi("rounds_per_s", total_rounds / (wall_ms / 1e3));
    kpi("evals_per_round", evals_per_round);
    if error_sessions > 0 {
        kpi("mean_error", error_sum / error_sessions as f64);
    }
    kpi("mean_residual", engine_kpis.mean_residual());
    kpi("active_fraction", engine_kpis.active_fraction());
    // Residency KPIs: the serialized footprint of the end-of-run grid
    // (hibernated residents compact, hot ones full) and the hot count.
    // Both are deterministic for a fixed seed, so plans gate them —
    // `checkpoint_bytes` with a lower-direction tolerance catches
    // compaction regressions the way eval gates catch solver ones.
    kpi("checkpoint_bytes", result.checkpoint_bytes as f64);
    kpi("resident_sessions", result.resident_sessions as f64);

    let prov = trace::thread_provenance();
    let telemetry: Value = serde_json::from_str(&fluxprint_telemetry::snapshot().to_inline_json())
        .map_err(|e| format!("telemetry fold: {e}"))?;
    Ok(Row {
        plan: plan.name.clone(),
        plan_hash: plan.hash.clone(),
        seed: job.seed,
        commit: commit.map(str::to_string),
        source: "plan".to_string(),
        params: job
            .params
            .iter()
            .map(|(k, v)| (k.clone(), param_json(*v)))
            .collect(),
        kpis,
        run_meta: json!({
            "target": format!("plan:{}", plan.name),
            "effort": "plan",
            "seed": job.seed,
            "git": commit.map_or(Value::Null, |c| Value::String(c.to_string())),
            "threads": prov.threads,
            "threads_env": prov.env.as_deref().map_or(Value::Null, |e| Value::String(e.to_string())),
            "threads_env_status": prov.status,
        }),
        telemetry,
    })
}
