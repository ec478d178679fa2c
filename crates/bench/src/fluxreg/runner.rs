//! Plan execution through the engine/grid path.
//!
//! Each job builds a deterministic scenario from its parameters — a
//! perturbed-grid network, a sniffer set, and `rounds` observation
//! windows of `users` mobile users under the requested noise — then
//! drives `sessions` tracking sessions through a [`Grid`] with the
//! requested shard count. KPIs split into two classes:
//!
//! * **Deterministic** (gateable with tight tolerances): `mean_error`
//!   (identity-free accuracy vs. ground truth, via `core::metrics`),
//!   `mean_residual` and `active_fraction` (folded from the sessions'
//!   outcomes), `evals_per_round` (objective evaluations per ingested
//!   round), `rounds`, and the residency pair `checkpoint_bytes` /
//!   `resident_sessions` (end-of-run grid footprint under the job's
//!   `hibernate_after` / `active_pct` duty cycle). These are bit-stable
//!   for a fixed seed at any shard count (DESIGN.md §9/§11/§15).
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
use fluxprint_engine::{Engine, Grid, GridConfig, SessionConfig, StepOutcome, Submit};
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

/// One ingested round as the KPI fold reads it. Both drives produce
/// it: the in-process one from a [`StepOutcome`], the served one from
/// the [`WireOutcome`] that carries the same values over the wire.
struct RoundView {
    estimates: Vec<Point2>,
    residual: f64,
    active: Vec<bool>,
}

impl From<StepOutcome> for RoundView {
    fn from(outcome: StepOutcome) -> Self {
        RoundView {
            estimates: outcome.estimates,
            residual: outcome.residual,
            active: outcome.active,
        }
    }
}

impl From<WireOutcome> for RoundView {
    fn from(outcome: WireOutcome) -> Self {
        RoundView {
            estimates: outcome
                .estimates
                .into_iter()
                .map(|(x, y)| Point2::new(x, y))
                .collect(),
            residual: outcome.residual,
            active: outcome.active,
        }
    }
}

/// One drive of the job's fleet: per-session rounds with the trace
/// indices each session actually ingested (duty cycling makes them
/// sparse), plus the KPIs only that drive can report.
struct DriveResult {
    rounds: Vec<Vec<RoundView>>,
    ingested: Vec<Vec<usize>>,
    kpis: Vec<(&'static str, f64)>,
}

fn grid_config_for(job: &Job, trace: &[ObservationRound]) -> GridConfig {
    GridConfig {
        shards: job.count("shards"),
        queue_capacity: trace.len().max(1),
        hibernate_after: job.count("hibernate_after") as u64,
        ..GridConfig::default()
    }
}

/// Drives the job's fleet once through an in-process [`Grid`]. Its own
/// KPIs are the end-of-run residency pair: `checkpoint_bytes`, the
/// serialized size of the whole grid checkpoint (every resident, hot or
/// hibernated, as its compact checkpoint), and `resident_sessions`, the
/// sessions still hot after the final drain.
fn drive(engine: &Engine, job: &Job, trace: &[ObservationRound]) -> Result<DriveResult, String> {
    let grid_config = grid_config_for(job, trace);
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
    let rounds = ids
        .iter()
        .map(|&id| {
            grid.take_outcomes(id)
                .map(|outcomes| outcomes.into_iter().map(RoundView::from).collect())
                .map_err(|e| format!("outcomes: {e}"))
        })
        .collect::<Result<_, _>>()?;
    let checkpoint_bytes = grid
        .checkpoint_json()
        .map_err(|e| format!("checkpoint: {e}"))?
        .len();
    Ok(DriveResult {
        rounds,
        ingested,
        kpis: vec![
            ("checkpoint_bytes", checkpoint_bytes as f64),
            ("resident_sessions", grid.hot_sessions() as f64),
        ],
    })
}

/// Drives the job's fleet through a loopback fluxd: one TCP connection
/// per session, each replaying its duty-cycled slice of the trace in
/// pipelined batches under credit-window flow control. The wire
/// outcomes are bit-identical to the in-process [`drive`] by the
/// serving layer's determinism contract, so serve-mode rows gate the
/// same KPIs. Its own KPIs are the clients' `p99_latency_ms` and
/// summed `backpressure_stall_ms`.
fn drive_served(
    engine: &Engine,
    job: &Job,
    trace: &[ObservationRound],
) -> Result<DriveResult, String> {
    let server = fluxd_server::spawn(
        engine.clone(),
        &ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            grid: grid_config_for(job, trace),
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

    let mut rounds = Vec::with_capacity(sessions);
    let mut ingested = Vec::with_capacity(sessions);
    let mut latencies = Vec::new();
    let mut stall_ns = 0;
    for conn in per_conn {
        let (outcomes, mine, conn_latencies, stall) = conn?;
        rounds.push(outcomes.into_iter().map(RoundView::from).collect());
        ingested.push(mine);
        latencies.extend(conn_latencies);
        stall_ns += stall;
    }
    latencies.sort_unstable();
    let p99_ms = if latencies.is_empty() {
        0.0
    } else {
        latencies[((latencies.len() - 1) as f64 * 0.99).round() as usize] as f64 / 1e6
    };
    Ok(DriveResult {
        rounds,
        ingested,
        kpis: vec![
            ("p99_latency_ms", p99_ms),
            ("backpressure_stall_ms", stall_ns as f64 / 1e6),
        ],
    })
}

fn run_job(plan: &Plan, job: &Job, commit: Option<&str>) -> Result<Row, String> {
    for required in ["sessions", "rounds", "users", "shards"] {
        if job.count(required) == 0 {
            return Err(format!("parameter {required:?} must be at least 1"));
        }
    }
    fluxprint_telemetry::reset();
    let net = network_for(job)?;
    let (trace_rounds, truths) = trace_for(job, &net)?;
    let engine =
        Engine::for_network(&net, FluxModel::default()).map_err(|e| format!("engine: {e}"))?;

    let serve = job.count("serve") > 0;
    let reps = job.count("reps").max(1);
    let mut wall_ms = f64::INFINITY;
    let mut result = None;
    for _ in 0..reps {
        let start = Instant::now();
        result = Some(if serve {
            drive_served(&engine, job, &trace_rounds)?
        } else {
            drive(&engine, job, &trace_rounds)?
        });
        wall_ms = wall_ms.min(start.elapsed().as_secs_f64() * 1e3);
    }
    let result = result.expect("reps >= 1");

    // Duty cycling makes per-session round counts sparse; KPIs normalize
    // by the rounds actually ingested, not the trace length.
    let total_rounds = result.ingested.iter().map(Vec::len).sum::<usize>() as f64;
    let evals = fluxprint_telemetry::snapshot().counter(names::SOLVER_OBJECTIVE_EVALS);
    let evals_per_round = evals as f64 / (reps as f64 * total_rounds);

    // Sums run session by session, each in round order, so the KPIs are
    // bit-stable for a fixed seed and equal across the two drives.
    let mut residual_sum = 0.0;
    let mut residual_rounds = 0u64;
    let mut user_rounds = 0u64;
    let mut active_user_rounds = 0u64;
    let mut error_sum = 0.0;
    let mut error_sessions = 0u64;
    for (session_rounds, ingested) in result.rounds.iter().zip(&result.ingested) {
        for round in session_rounds {
            residual_rounds += 1;
            residual_sum += round.residual;
            user_rounds += round.active.len() as u64;
            active_user_rounds += round.active.iter().filter(|a| **a).count() as u64;
        }
        // Zip each round with the truth of the trace round it came from —
        // under duty cycling those are not the first len() rounds.
        let pairs: Vec<(Vec<Point2>, Vec<Point2>)> = session_rounds
            .iter()
            .zip(ingested)
            .map(|(round, &i)| (round.estimates.clone(), truths[i].clone()))
            .collect();
        let err = mean_trajectory_error(&pairs).map_err(|e| format!("accuracy: {e}"))?;
        if err.is_finite() {
            error_sum += err;
            error_sessions += 1;
        }
    }

    // A ratio over nothing is 0/0 = NaN, which `kpi` leaves out.
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
    kpi("mean_error", error_sum / error_sessions as f64);
    kpi("mean_residual", residual_sum / residual_rounds as f64);
    kpi(
        "active_fraction",
        active_user_rounds as f64 / user_rounds as f64,
    );
    for &(name, value) in &result.kpis {
        kpi(name, value);
    }

    let mut run_meta = trace::run_meta(&format!("plan:{}", plan.name), "plan", job.seed, commit);
    if let Value::Object(fields) = &mut run_meta {
        // A drain runs one worker per shard that has a session to serve.
        let workers = job.count("shards").min(job.count("sessions"));
        let oversubscribed = workers > trace::available_parallelism();
        fields.push(("oversubscribed".to_string(), Value::Bool(oversubscribed)));
    }
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
        run_meta,
        telemetry,
    })
}
