//! One workload, end to end: inputs, set-up, the timed run, the output
//! checks and, for the traced run, the per-layer replays.

use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

use fluxprint_engine::{Engine, ObservationRound, StepOutcome};
use fluxprint_fluxd::WireOutcome;
use fluxprint_telemetry::{self as telemetry, names, Snapshot};

use crate::check;
use crate::inproc::{self, SPAN_DRAIN, SPAN_SUBMIT};
use crate::inputs::{self, Inputs};
use crate::layers::{self, delta};
use crate::report::{Report, END_TO_END, PER_LAYER};
use crate::serve::{self, SPAN_READ, SPAN_SEND};
use crate::stats::{keyed_in, median, percentile, tail, window_median};
use crate::trace::Tracer;
use crate::workload::{Spec, Workload, GRID_THREADS, SERVE_PERIOD};

/// Set-ups per run, at least and at most; `setup_s` is their median.
/// Cheap set-ups repeat until [`SETUP_MIN`] has passed, so the median
/// of a sub-millisecond set-up rests on many samples.
const SETUP_REPS: (usize, usize) = (5, 200);
/// See [`SETUP_REPS`].
const SETUP_MIN: Duration = Duration::from_millis(250);
/// Closed-loop throughput and every latency percentile are medians over
/// this many equal windows of the timed run.
const WINDOWS: usize = 15;

/// Runs `workload` for `ticks` ticks (periods on `serve-open`). Without
/// `trace_out` this is the timed run and reports the end-to-end metrics;
/// with it, the traced run: two half-length runs, untraced then traced,
/// followed by the layer replays, reporting the per-layer metrics and
/// writing the spans to `trace_out`.
///
/// # Errors
///
/// Failures that stop the run before its outputs can be checked.
pub fn run_workload(
    workload: Workload,
    seed: u64,
    ticks: usize,
    trace_out: Option<&Path>,
) -> Result<Report, String> {
    let spec = workload.spec();
    let mut report = match (workload, trace_out) {
        (Workload::ServeOpen, None) => serve_timed(&spec, seed, ticks)?,
        (Workload::ServeOpen, Some(out)) => serve_traced(&spec, seed, ticks, out)?,
        (_, None) => inproc_timed(&spec, seed, ticks)?,
        (_, Some(out)) => inproc_traced(&spec, seed, ticks, out)?,
    };
    report.finish(if trace_out.is_some() {
        PER_LAYER
    } else {
        END_TO_END
    });
    Ok(report)
}

/// Sets up at least `SETUP_REPS.0` times, more until [`SETUP_MIN`] has
/// passed (at most `SETUP_REPS.1`), appending each set-up time in seconds
/// to `times`; tears down all but the last set-up and returns that one.
fn set_up<T>(
    times: &mut Vec<f64>,
    mut setup: impl FnMut() -> Result<T, String>,
    mut teardown: impl FnMut(T) -> Result<(), String>,
) -> Result<T, String> {
    let mut kept = None;
    let (start, mut reps) = (Instant::now(), 0);
    while reps < SETUP_REPS.0 || (reps < SETUP_REPS.1 && start.elapsed() < SETUP_MIN) {
        if let Some(previous) = kept.take() {
            teardown(previous)?;
        }
        let t = Instant::now();
        kept = Some(setup()?);
        times.push(t.elapsed().as_secs_f64());
        reps += 1;
    }
    kept.ok_or_else(|| "no set-up ran".to_string())
}

/// A `/proc/self/status` field in kB (0 where unavailable).
fn proc_status_kb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix(field)?.strip_prefix(':'))
                .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0.0)
}

/// Growth of the peak resident set since `base_kb` of `VmRSS`, MB.
fn rss_growth_mb(base_kb: f64) -> f64 {
    (proc_status_kb("VmHWM") - base_kb) * 1024.0 / 1e6
}

fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// The median over windows of the `pct` percentile of latency samples
/// keyed by tick (or period) `0..keys`.
fn windowed_percentile((keyed, keys): (&[(u32, f64)], usize), pct: f64) -> f64 {
    window_median(keys, WINDOWS, |w| {
        let window = sorted(keyed_in(keyed, w).collect());
        (!window.is_empty()).then(|| percentile(&window, pct))
    })
}

/// All latency samples, ascending.
fn all_sorted(keyed: &[(u32, f64)]) -> Vec<f64> {
    sorted(keyed.iter().map(|&(_, l)| l).collect())
}

/// Closed-loop throughput: the median over windows of rounds completed
/// per second of wall time.
fn windowed_rate(ticks: &[(u64, f64)]) -> f64 {
    window_median(ticks.len(), WINDOWS, |w| {
        let (rounds, secs) = ticks[w]
            .iter()
            .fold((0, 0.0), |(r, s), &(n, t)| (r + n, s + t));
        (secs > 0.0).then(|| rounds as f64 / secs)
    })
}

/// Sets the end-to-end metrics every workload shares.
fn end_to_end(
    report: &mut Report,
    setup_s: f64,
    rounds_per_s: f64,
    latencies: (&[(u32, f64)], usize),
    error: (f64, u64),
    peak_rss_mb: f64,
) {
    report.set("setup_s", setup_s);
    report.set("rounds_per_s", rounds_per_s);
    report.set("ack_p50_ms", windowed_percentile(latencies, 50.0));
    report.set("mean_error_m", error.0 / error.1 as f64);
    report.set("peak_rss_mb", peak_rss_mb);
    let t = tail(&all_sorted(latencies.0));
    report.notes.push(("ack_tail_pct", t.pct, "%"));
    report.notes.push(("ack_tail_ms", t.value, "ms"));
    report
        .notes
        .push(("ack_samples", t.samples as f64, "count"));
}

fn inproc_timed(spec: &Spec, seed: u64, ticks: usize) -> Result<Report, String> {
    let inputs = inputs::generate(spec, seed, spec.trace_len(ticks))?;
    let rss_base_kb = proc_status_kb("VmRSS");
    let setup = || inproc::setup(spec, &inputs, seed);
    let teardown = |grid| {
        drop(grid);
        Ok(())
    };
    let mut setup_times = Vec::new();
    let mut grid = set_up(&mut setup_times, setup, teardown)?;
    let sample = spec.check_sample(ticks);
    let run = inproc::run(spec, &inputs, &mut grid, ticks, &sample, None);
    let peak_rss_mb = rss_growth_mb(rss_base_kb);
    let engine = grid.engine().clone();
    drop(grid);
    // Set-up is timed again after the run, so its median spans the run
    // rather than one moment of the host's load.
    drop(set_up(&mut setup_times, setup, teardown)?);
    let mut report = Report {
        attempted: run.offered,
        failed: run.failed,
        ..Report::default()
    };
    end_to_end(
        &mut report,
        median(&setup_times),
        windowed_rate(&run.ticks),
        (&run.latencies, ticks),
        (run.error_sum, run.error_rounds),
        peak_rss_mb,
    );
    let reference = check::solo_all(&engine, spec, seed, &inputs, &sample)?;
    if let Err(e) = check::compare(&run.sampled, &reference, check::same_step) {
        report.problem(e);
    }
    Ok(report)
}

fn serve_timed(spec: &Spec, seed: u64, periods: usize) -> Result<Report, String> {
    let inputs = inputs::generate(spec, seed, periods)?;
    let rss_base_kb = proc_status_kb("VmRSS");
    let setup = || serve::setup(spec, &inputs, seed);
    let mut setup_times = Vec::new();
    let mut daemon = set_up(&mut setup_times, setup, serve::Daemon::shutdown)?;
    let sample = spec.check_sample(periods);
    let run = serve::run(spec, &inputs, &mut daemon, periods, &sample, None);
    let peak_rss_mb = rss_growth_mb(rss_base_kb);
    let shutdown = daemon.shutdown();
    let run = run?;
    // As in process: set-up is timed again after the run.
    set_up(&mut setup_times, setup, serve::Daemon::shutdown)?.shutdown()?;
    let mut report = Report {
        attempted: run.offered,
        failed: run.failed,
        ..Report::default()
    };
    if let Err(e) = shutdown {
        report.problem(e);
    }
    serve_notes(&mut report, &run);
    end_to_end(
        &mut report,
        median(&setup_times),
        run.acked as f64 / run.wall_s,
        (&run.latencies, periods),
        (run.error_sum, run.error_rounds),
        peak_rss_mb,
    );
    let engine = engine_for(&inputs)?;
    let reference = check::solo_all(&engine, spec, seed, &inputs, &sample)?;
    if let Err(e) = check::compare(&run.sampled, &reference, check::same_wire) {
        report.problem(e);
    }
    Ok(report)
}

fn engine_for(inputs: &Inputs) -> Result<Engine, String> {
    Engine::for_network(&inputs.network, fluxprint_fluxmodel::FluxModel::default())
        .map_err(|e| format!("engine: {e}"))
}

/// Open-loop validity and the latency-limit attainment, for the log.
fn serve_notes(report: &mut Report, run: &serve::Run) {
    let limit_ms = SERVE_PERIOD.as_secs_f64() * 1e3;
    let met = run
        .latencies
        .iter()
        .filter(|&&(_, l)| l <= limit_ms)
        .count();
    report.notes.push((
        "slo_attainment",
        met as f64 / run.offered.max(1) as f64,
        "fraction",
    ));
    report.notes.push((
        "error_rate",
        run.failed as f64 / run.offered.max(1) as f64,
        "fraction",
    ));
    let lateness = sorted(run.lateness_ms.clone());
    report
        .notes
        .push(("lateness_p99_ms", percentile(&lateness, 99.0), "ms"));
}

/// The untraced half of a traced run, as the per-layer metrics need it.
struct Untraced {
    rounds_per_s: f64,
    latencies: Vec<(u32, f64)>,
    keys: usize,
    lateness_ms: Vec<f64>,
    offered: u64,
    acked: u64,
    acks_per_read: f64,
    credit_waits: u64,
}

/// An in-process traced grid run with the library counters around it.
struct GridTrace {
    tracer: Tracer,
    run: inproc::Run,
    before: Snapshot,
    after: Snapshot,
}

fn traced_grid_run(
    spec: &Spec,
    inputs: &Inputs,
    seed: u64,
    ticks: usize,
    sample: &[(usize, usize)],
) -> Result<GridTrace, String> {
    let mut grid = inproc::setup(spec, inputs, seed)?;
    let mut tracer = Tracer::new(Instant::now());
    let before = telemetry::snapshot();
    let run = inproc::run(spec, inputs, &mut grid, ticks, sample, Some(&mut tracer));
    let after = telemetry::snapshot();
    Ok(GridTrace {
        tracer,
        run,
        before,
        after,
    })
}

fn inproc_traced(spec: &Spec, seed: u64, ticks: usize, out: &Path) -> Result<Report, String> {
    let phase = (ticks / 2).max(1);
    let inputs = inputs::generate(spec, seed, spec.trace_len(phase))?;
    let sample = spec.check_sample(phase);

    let mut grid = inproc::setup(spec, &inputs, seed)?;
    let plain = inproc::run(spec, &inputs, &mut grid, phase, &sample, None);
    let engine = grid.engine().clone();
    drop(grid);
    let traced = traced_grid_run(spec, &inputs, seed, phase, &sample)?;

    let mut report = Report {
        attempted: plain.offered + traced.run.offered,
        failed: plain.failed + traced.run.failed,
        ..Report::default()
    };
    let reference = check::solo_all(&engine, spec, seed, &inputs, &sample)?;
    for run in [&plain, &traced.run] {
        if let Err(e) = check::compare(&run.sampled, &reference, check::same_step) {
            report.problem(e);
        }
    }
    let ticks_span = tick_window(&traced.tracer);
    let coverage = traced
        .tracer
        .coverage(&[SPAN_SUBMIT, SPAN_DRAIN], ticks_span.0, ticks_span.1);
    let untraced = Untraced {
        rounds_per_s: windowed_rate(&plain.ticks),
        latencies: plain.latencies,
        keys: phase,
        lateness_ms: plain.lateness_ms,
        offered: plain.offered,
        acked: plain.completed,
        acks_per_read: 0.0,
        credit_waits: 0,
    };
    let traced_rps = windowed_rate(&traced.run.ticks);
    let outcomes: Vec<WireOutcome> = traced
        .run
        .sampled
        .iter()
        .flat_map(|(_, o)| o.iter().map(wire))
        .collect();
    layer_metrics(
        &mut report,
        spec,
        seed,
        &inputs,
        &engine,
        &sample,
        &untraced,
        (traced_rps, coverage),
        &traced,
        &outcomes,
    )?;
    write_spans(out, &[&traced.tracer])?;
    Ok(report)
}

fn serve_traced(spec: &Spec, seed: u64, periods: usize, out: &Path) -> Result<Report, String> {
    let phase = (periods / 2).max(1);
    let inputs = inputs::generate(spec, seed, phase)?;
    let sample = spec.check_sample(phase);
    let served = |tracers: Option<&mut [Tracer]>| -> Result<serve::Run, String> {
        let mut daemon = serve::setup(spec, &inputs, seed)?;
        let run = serve::run(spec, &inputs, &mut daemon, phase, &sample, tracers);
        let shutdown = daemon.shutdown();
        let run = run?;
        shutdown.map(|()| run)
    };
    let plain = served(None)?;
    let epoch = Instant::now();
    let mut tracers: Vec<Tracer> = (0..2).map(|_| Tracer::new(epoch)).collect();
    let traced = served(Some(&mut tracers))?;
    let grid = traced_grid_run(spec, &inputs, seed, phase, &[])?;

    let mut report = Report {
        attempted: plain.offered + traced.offered + grid.run.offered,
        failed: plain.failed + traced.failed + grid.run.failed,
        ..Report::default()
    };
    let engine = engine_for(&inputs)?;
    let reference = check::solo_all(&engine, spec, seed, &inputs, &sample)?;
    for run in [&plain, &traced] {
        if let Err(e) = check::compare(&run.sampled, &reference, check::same_wire) {
            report.problem(e);
        }
    }
    let coverage = tracers
        .iter()
        .map(|t| {
            let from = t.spans.first().map_or(0, |s| s.start_ns);
            let to = t.spans.iter().map(|s| s.end_ns).max().unwrap_or(from);
            t.coverage(&[SPAN_SEND, SPAN_READ], from, to)
        })
        .sum::<f64>()
        / tracers.len() as f64;
    let untraced = Untraced {
        rounds_per_s: plain.acked as f64 / plain.wall_s,
        latencies: plain.latencies,
        keys: phase,
        lateness_ms: plain.lateness_ms,
        offered: plain.offered,
        acked: plain.acked,
        acks_per_read: plain.acks_per_read,
        credit_waits: plain.credit_waits,
    };
    let traced_rps = traced.acked as f64 / traced.wall_s;
    let outcomes: Vec<WireOutcome> = traced
        .sampled
        .iter()
        .flat_map(|(_, o)| o.iter().cloned())
        .collect();
    layer_metrics(
        &mut report,
        spec,
        seed,
        &inputs,
        &engine,
        &sample,
        &untraced,
        (traced_rps, coverage),
        &grid,
        &outcomes,
    )?;
    let mut all: Vec<&Tracer> = tracers.iter().collect();
    all.push(&grid.tracer);
    write_spans(out, &all)?;
    Ok(report)
}

/// From the first tick's start to the last tick's end.
fn tick_window(tracer: &Tracer) -> (u64, u64) {
    let ticks = tracer.spans.iter().filter(|s| s.name == inproc::SPAN_TICK);
    let from = ticks.clone().map(|s| s.start_ns).min().unwrap_or(0);
    let to = ticks.map(|s| s.end_ns).max().unwrap_or(from);
    (from, to)
}

/// A grid outcome as fluxd would serve it.
fn wire(o: &StepOutcome) -> WireOutcome {
    WireOutcome {
        time: o.time,
        residual: o.residual,
        estimates: o.estimates.iter().map(|p| (p.x, p.y)).collect(),
        active: o.active.clone(),
    }
}

/// Runs the layer replays and sets every per-layer metric.
#[allow(clippy::too_many_arguments)]
fn layer_metrics(
    report: &mut Report,
    spec: &Spec,
    seed: u64,
    inputs: &Inputs,
    engine: &Engine,
    sample: &[(usize, usize)],
    untraced: &Untraced,
    (traced_rps, coverage): (f64, f64),
    grid: &GridTrace,
    outcomes: &[WireOutcome],
) -> Result<(), String> {
    let session = layers::session_replay(engine, spec, seed, inputs, sample)?;
    let checkpoint = layers::checkpoint_replay(engine, &session.sessions)?;
    let rounds: Vec<&ObservationRound> = sample
        .iter()
        .flat_map(|&(s, n)| inputs.trace(s).rounds[..n].iter())
        .collect();
    let codec = layers::codec_replay(&rounds, outcomes)?;

    let latencies = (untraced.latencies.as_slice(), untraced.keys);
    let ack_tail = tail(&all_sorted(latencies.0));
    report.set("fluxd.request_decode_ns", codec.decode_ns);
    report.set("fluxd.response_encode_ns", codec.encode_ns);
    report.set("fluxd.bytes_in_per_round", codec.bytes_in);
    report.set("fluxd.bytes_out_per_round", codec.bytes_out);
    report.set("fluxd.acks_per_read", untraced.acks_per_read);
    report.set("fluxd.credit_waits", untraced.credit_waits as f64);
    report.set(
        "fluxd.residence_us_p50",
        windowed_percentile(latencies, 50.0) * 1e3 - session.ingest_us,
    );
    report.set("ack.p90_ms", windowed_percentile(latencies, 90.0));
    report.set("ack.p99_ms", windowed_percentile(latencies, 99.0));
    report.set("ack.tail_ms", ack_tail.value);
    report.set("ack.samples", ack_tail.samples as f64);
    report.notes.push(("ack_tail_pct", ack_tail.pct, "%"));
    report.set(
        "loadgen.lateness_p99_ms",
        percentile(&sorted(untraced.lateness_ms.clone()), 99.0),
    );
    report.set("loadgen.rounds_offered", untraced.offered as f64);
    report.set("loadgen.rounds_acked", untraced.acked as f64);

    let run = &grid.run;
    let rounds_done = run.completed.max(1) as f64;
    let drains = sorted(grid.tracer.durations(SPAN_DRAIN));
    let drain_ms_total: f64 = drains.iter().sum::<f64>() / 1e6;
    report.set("grid.submit_ns", mean(&grid.tracer.durations(SPAN_SUBMIT)));
    report.set("grid.drain_ms_p50", percentile(&drains, 50.0) / 1e6);
    report.set("grid.drain_ms_p99", percentile(&drains, 99.0) / 1e6);
    report.set(
        "grid.rounds_per_drain",
        rounds_done / run.drains.max(1) as f64,
    );
    let ingest_ns = layers::span_total(&grid.after, names::SPAN_ENGINE_INGEST).0
        - layers::span_total(&grid.before, names::SPAN_ENGINE_INGEST).0;
    report.set(
        "grid.parallel_efficiency",
        ingest_ns as f64 / 1e6 / (drain_ms_total * GRID_THREADS as f64),
    );
    report.set("grid.peak_resident_sessions", run.peak_hot as f64);
    report.set(
        "grid.hibernated_bytes_per_session",
        run.hibernated_bytes_per_session,
    );
    let count = |name: &str| delta(&grid.before, &grid.after, name);
    let per_round = |name: &str| count(name) / rounds_done;
    report.set(
        "grid.evictions_per_round",
        per_round(names::GRID_HIBERNATE_EVICTIONS),
    );
    report.set(
        "grid.revivals_per_round",
        per_round(names::GRID_HIBERNATE_REVIVALS),
    );

    report.set("checkpoint.compact_encode_us", checkpoint.encode_us);
    report.set("checkpoint.compact_decode_us", checkpoint.decode_us);
    report.set("checkpoint.compact_bytes", checkpoint.bytes);

    report.set("session.ingest_us", session.ingest_us);
    report.set("session.self_us", session.ingest_us - session.step_us);
    report.set("smc.step_us", session.step_us);
    report.set(
        "smc.samples_predicted_per_round",
        per_round(names::SMC_SAMPLES_PREDICTED),
    );
    report.set(
        "smc.frozen_fraction",
        count(names::SMC_USERS_FROZEN) / (rounds_done * spec.users as f64),
    );
    report.set(
        "smc.degenerate_fallbacks_per_round",
        per_round(names::SMC_WEIGHT_DEGENERATE),
    );
    let evals = per_round(names::SOLVER_OBJECTIVE_EVALS);
    report.set("solver.evals_per_round", evals);
    report.set(
        "solver.combo_evals_per_round",
        per_round(names::SOLVER_GRAM_COMBO_EVALS),
    );
    report.set("solver.us_per_eval", session.step_us / evals.max(1.0));
    report.set(
        "solver.gram_builds_per_round",
        per_round(names::SOLVER_GRAM_BUILD),
    );
    report.set(
        "solver.cols_reused_per_round",
        per_round(names::SOLVER_GRAM_COLS_REUSED),
    );
    report.set(
        "linalg.nnls_solves_per_round",
        per_round(names::SOLVER_NNLS_SOLVES),
    );
    let (hits, misses) = (
        count(names::SOLVER_NNLS_WARM_HITS),
        count(names::SOLVER_NNLS_WARM_MISSES),
    );
    report.set("linalg.nnls_warm_hit_rate", hits / (hits + misses).max(1.0));
    report.set("fluxpar.tasks_per_round", per_round(names::FLUXPAR_TASKS));
    report.set(
        "trace.overhead_pct",
        (untraced.rounds_per_s - traced_rps) / untraced.rounds_per_s * 100.0,
    );
    report.set("trace.coverage", coverage);
    Ok(())
}

fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

/// Writes every tracer's spans as NDJSON, thread by thread.
fn write_spans(path: &Path, tracers: &[&Tracer]) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let file = std::fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut out = std::io::BufWriter::new(file);
    for (thread, tracer) in tracers.iter().enumerate() {
        tracer
            .write_ndjson(thread, &mut out)
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    out.flush().map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(report: &Report) -> Vec<&'static str> {
        report.values.iter().map(|&(name, _)| name).collect()
    }

    fn catalog_names(catalog: &[crate::report::Metric]) -> Vec<&'static str> {
        catalog.iter().map(|&(name, _)| name).collect()
    }

    // One test drives every workload in turn: the runs share the
    // process-wide telemetry registry, so they must not overlap.
    #[test]
    fn every_workload_passes_its_self_check_and_emits_the_catalog_at_a_tiny_size() {
        let traces = Path::new(env!("CARGO_MANIFEST_DIR")).join("traces");
        for workload in Workload::ALL {
            for seed in [0, 1] {
                let timed = run_workload(workload, seed, 4, None).expect("timed run");
                assert!(
                    timed.correct(),
                    "{} seed {seed}: {:?}",
                    workload.name(),
                    timed.problems
                );
                assert_eq!(names(&timed), catalog_names(END_TO_END));
            }
            let out = traces.join(format!("test-{}.ndjson", workload.name()));
            let traced = run_workload(workload, 0, 4, Some(&out)).expect("traced run");
            assert!(
                traced.correct(),
                "{}: {:?}",
                workload.name(),
                traced.problems
            );
            assert_eq!(names(&traced), catalog_names(PER_LAYER));
            let spans = std::fs::read_to_string(&out).expect("spans written");
            assert!(
                spans.lines().count() > 4,
                "{}: too few spans",
                workload.name()
            );
            for line in spans.lines() {
                serde_json::from_str::<serde_json::Value>(line).expect("span line is JSON");
            }
            std::fs::remove_file(&out).expect("spans removed");
        }
    }

    #[test]
    fn windowed_rate_is_the_median_window() {
        // Five one-tick windows run at 10, 20, 30, 40 and 1000 rounds/s:
        // the outlier window does not move the median.
        let ticks = [(10, 1.0), (20, 1.0), (30, 1.0), (40, 1.0), (1000, 1.0)];
        assert_eq!(
            window_median(ticks.len(), 5, |w| Some(
                ticks[w].iter().map(|t| t.0 as f64).sum()
            )),
            30.0
        );
        assert_eq!(windowed_rate(&ticks), 30.0);
    }
}
