//! The in-process workloads: a closed loop over one `Grid`. Each tick
//! submits the next round of every session the duty cycle selects, then
//! drains; the next tick starts when the drain returns.

use std::time::Instant;

use fluxprint_engine::{Engine, Grid, SessionId, StepOutcome, Submit};
use fluxprint_fluxmodel::FluxModel;

use crate::check::round_error;
use crate::inputs::Inputs;
use crate::trace::Tracer;
use crate::workload::Spec;

/// Span names the traced run records.
pub const SPAN_TICK: &str = "bench.tick";
/// See [`SPAN_TICK`].
pub const SPAN_SUBMIT: &str = "grid.submit";
/// See [`SPAN_TICK`].
pub const SPAN_DRAIN: &str = "grid.drain";

/// Builds the engine and grid, opens every session and parks them with
/// a drain. Opens come in slices of one duty share, each followed by a
/// drain, so a hibernating fleet is never wholly resident: it arrives
/// cold, as a restored fleet would.
///
/// # Errors
///
/// Any engine error, as text.
pub fn setup(spec: &Spec, inputs: &Inputs, seed: u64) -> Result<Grid, String> {
    let engine = Engine::for_network(&inputs.network, FluxModel::default())
        .map_err(|e| format!("engine: {e}"))?;
    let mut grid = Grid::open(engine, &spec.grid_config()).map_err(|e| format!("grid: {e}"))?;
    let config = spec.session_config();
    let slice = (spec.sessions / spec.duty).max(1);
    for s in 0..spec.sessions {
        grid.open_session(&config, spec.session_seed(seed, s))
            .map_err(|e| format!("open session {s}: {e}"))?;
        if (s + 1) % slice == 0 {
            grid.drain().map_err(|e| format!("park drain: {e}"))?;
        }
    }
    grid.drain().map_err(|e| format!("park drain: {e}"))?;
    Ok(grid)
}

/// What one timed run observed.
#[derive(Debug, Default)]
pub struct Run {
    /// Rounds submitted.
    pub offered: u64,
    /// Rounds whose outcome came back.
    pub completed: u64,
    /// Failed submits, drains and missing outcomes.
    pub failed: u64,
    /// Per round, with its tick: submit call to the end of the drain
    /// that ingested it, ms.
    pub latencies: Vec<(u32, f64)>,
    /// Per round: submit call minus the start of its tick.
    pub lateness_ms: Vec<f64>,
    /// Sum of per-round mean estimate errors, and their count.
    pub error_sum: f64,
    /// See [`error_sum`](Run::error_sum).
    pub error_rounds: u64,
    /// Outcomes of the sampled sessions, in sample order.
    pub sampled: Vec<(usize, Vec<StepOutcome>)>,
    /// Most sessions hot after any drain.
    pub peak_hot: usize,
    /// Drains run.
    pub drains: u64,
    /// Hibernarium bytes per hibernated session at the end (0 if none).
    pub hibernated_bytes_per_session: f64,
    /// Per tick: rounds completed and wall time in seconds.
    pub ticks: Vec<(u64, f64)>,
}

/// Runs `ticks` ticks against a grid from [`setup`], keeping the outcomes
/// of the `sample` sessions (round counts are ignored). With a tracer,
/// every submit and drain is recorded as a span under its tick's span.
pub fn run(
    spec: &Spec,
    inputs: &Inputs,
    grid: &mut Grid,
    ticks: usize,
    sample: &[(usize, usize)],
    mut tracer: Option<&mut Tracer>,
) -> Run {
    let mut out = Run {
        sampled: sample.iter().map(|&(s, _)| (s, Vec::new())).collect(),
        ..Run::default()
    };
    let mut slot = vec![None; spec.sessions];
    for (i, &(s, _)) in sample.iter().enumerate() {
        slot[s] = Some(i);
    }
    let mut cursor = vec![0usize; spec.sessions];
    let mut submitted: Vec<(usize, usize, Instant)> = Vec::new();
    for tick in 0..ticks {
        let tick_span = tracer
            .as_deref_mut()
            .map(|t| t.begin(SPAN_TICK, None, None, Some(tick as u32)));
        let due = Instant::now();
        let completed_before = out.completed;
        submitted.clear();
        for s in (0..spec.sessions).filter(|&s| spec.active(s, tick)) {
            let r = cursor[s];
            cursor[s] += 1;
            let round = inputs.trace(s).rounds[r].clone();
            let t_submit = Instant::now();
            out.lateness_ms.push(ms(t_submit - due));
            let span = tracer
                .as_deref_mut()
                .map(|t| t.begin(SPAN_SUBMIT, tick_span, Some(s as u32), Some(r as u32)));
            let queued = matches!(grid.submit(SessionId(s), round), Ok(Submit::Queued));
            if let (Some(t), Some(span)) = (tracer.as_deref_mut(), span) {
                t.end(span);
            }
            out.offered += 1;
            if queued {
                submitted.push((s, r, t_submit));
            } else {
                out.failed += 1;
            }
        }
        let span = tracer
            .as_deref_mut()
            .map(|t| t.begin(SPAN_DRAIN, tick_span, None, None));
        if grid.drain().is_err() {
            out.failed += 1;
        }
        let done = Instant::now();
        if let (Some(t), Some(span)) = (tracer.as_deref_mut(), span) {
            t.end(span);
        }
        out.drains += 1;
        for &(s, r, t_submit) in &submitted {
            let mut outcomes = grid.take_outcomes(SessionId(s)).unwrap_or_default();
            if outcomes.len() != 1 {
                out.failed += 1;
                continue;
            }
            let outcome = outcomes.swap_remove(0);
            out.completed += 1;
            out.latencies.push((tick as u32, ms(done - t_submit)));
            out.error_sum += round_error(&outcome.estimates, &inputs.trace(s).truths[r]);
            out.error_rounds += 1;
            if let Some(i) = slot[s] {
                out.sampled[i].1.push(outcome);
            }
        }
        out.peak_hot = out.peak_hot.max(grid.hot_sessions());
        out.ticks.push((
            out.completed - completed_before,
            due.elapsed().as_secs_f64(),
        ));
        if let (Some(t), Some(span)) = (tracer.as_deref_mut(), tick_span) {
            t.end(span);
        }
    }
    let hibernated = grid.hibernated_sessions();
    if hibernated > 0 {
        out.hibernated_bytes_per_session = grid.hibernated_bytes() as f64 / hibernated as f64;
    }
    out
}

/// A duration in milliseconds.
pub fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}
