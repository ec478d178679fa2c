//! Output checks: every sampled session must match, bit for bit, a solo
//! one-thread replay of the same rounds; plus the accuracy score.

use fluxprint_engine::{Engine, ObservationRound, StepOutcome};
use fluxprint_fluxd::WireOutcome;
use fluxprint_fluxpar::Pool;
use fluxprint_geometry::Point2;
use fluxprint_solver::CacheScratch;

use crate::inputs::Inputs;
use crate::workload::{Spec, GRID_THREADS};

/// Mean identity-free distance from estimates to the true positions.
pub fn round_error(estimates: &[Point2], truths: &[Point2]) -> f64 {
    fluxprint_core::metrics::mean_matched_error(estimates, truths).unwrap_or(f64::NAN)
}

/// Replays session `s`'s first `rounds` rounds alone through
/// `Session::ingest_batch_in` on a one-thread pool.
///
/// # Errors
///
/// Any engine error, as text.
pub fn solo(
    engine: &Engine,
    spec: &Spec,
    seed: u64,
    inputs: &Inputs,
    s: usize,
    rounds: usize,
) -> Result<Vec<StepOutcome>, String> {
    let trace: &[ObservationRound] = &inputs.trace(s).rounds[..rounds];
    let mut session = engine
        .open_session(&spec.session_config(), spec.session_seed(seed, s))
        .map_err(|e| format!("solo open {s}: {e}"))?;
    session
        .ingest_batch_in(trace, &Pool::with_threads(1), &mut CacheScratch::new())
        .map_err(|e| format!("solo replay {s}: {e}"))
}

/// [`solo`] for every `(session, rounds)` pair, spread over the grid's
/// thread budget (each replay still runs on one thread), in input order.
///
/// # Errors
///
/// The first failing replay.
pub fn solo_all(
    engine: &Engine,
    spec: &Spec,
    seed: u64,
    inputs: &Inputs,
    sample: &[(usize, usize)],
) -> Result<Vec<Vec<StepOutcome>>, String> {
    let per_thread = sample.len().div_ceil(GRID_THREADS).max(1);
    std::thread::scope(|scope| {
        let handles: Vec<_> = sample
            .chunks(per_thread)
            .map(|chunk| {
                scope.spawn(move || {
                    chunk
                        .iter()
                        .map(|&(s, rounds)| solo(engine, spec, seed, inputs, s, rounds))
                        .collect::<Result<Vec<_>, _>>()
                })
            })
            .collect();
        let mut out = Vec::with_capacity(sample.len());
        for handle in handles {
            out.extend(
                handle
                    .join()
                    .map_err(|_| "solo replay panicked".to_string())??,
            );
        }
        Ok(out)
    })
}

/// Bit equality of two in-process outcomes.
pub fn same_step(a: &StepOutcome, b: &StepOutcome) -> bool {
    a.time.to_bits() == b.time.to_bits()
        && a.residual.to_bits() == b.residual.to_bits()
        && a.active == b.active
        && bits(a.stretches.iter().copied()) == bits(b.stretches.iter().copied())
        && bits(a.estimates.iter().flat_map(|p| [p.x, p.y]))
            == bits(b.estimates.iter().flat_map(|p| [p.x, p.y]))
}

/// Bit equality of a served outcome and the in-process one it mirrors.
pub fn same_wire(a: &WireOutcome, b: &StepOutcome) -> bool {
    a.time.to_bits() == b.time.to_bits()
        && a.residual.to_bits() == b.residual.to_bits()
        && a.active == b.active
        && bits(a.estimates.iter().flat_map(|&(x, y)| [x, y]))
            == bits(b.estimates.iter().flat_map(|p| [p.x, p.y]))
}

fn bits(values: impl Iterator<Item = f64>) -> Vec<u64> {
    values.map(f64::to_bits).collect()
}

/// Compares each sampled session's outcomes with its solo replay and
/// returns a description of the first mismatch.
///
/// # Errors
///
/// The first session whose outcome count or any outcome differs.
pub fn compare<T>(
    observed: &[(usize, Vec<T>)],
    reference: &[Vec<StepOutcome>],
    same: impl Fn(&T, &StepOutcome) -> bool,
) -> Result<(), String> {
    for ((s, got), want) in observed.iter().zip(reference) {
        if got.len() != want.len() {
            return Err(format!(
                "session {s}: {} outcomes, solo replay has {}",
                got.len(),
                want.len()
            ));
        }
        if let Some(i) = got.iter().zip(want).position(|(g, w)| !same(g, w)) {
            return Err(format!(
                "session {s}: round {i} differs from its solo replay"
            ));
        }
    }
    Ok(())
}
