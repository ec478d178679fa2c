//! Per-layer replays for the traced run. Each layer is timed only from
//! outside, by calling its public functions on the run's own inputs and
//! outcomes.

use std::hint::black_box;
use std::time::{Duration, Instant};

use fluxprint_engine::{Engine, ObservationRound, Session};
use fluxprint_fluxd::protocol::{encode_submit_into, HEADER_LEN};
use fluxprint_fluxd::{Request, Response, WireOutcome};
use fluxprint_fluxpar::Pool;
use fluxprint_solver::CacheScratch;
use fluxprint_telemetry::{self as telemetry, names, Snapshot};

use crate::inputs::Inputs;
use crate::workload::Spec;

/// Each micro-replay loops over its inputs until at least this long.
const REPLAY_MIN: Duration = Duration::from_millis(100);
/// Sessions whose checkpoints are replayed, at most.
const CHECKPOINT_SESSIONS: usize = 64;

/// A library counter's movement between two snapshots.
pub fn delta(before: &Snapshot, after: &Snapshot, name: &str) -> f64 {
    after.counter(name).saturating_sub(before.counter(name)) as f64
}

/// Total ns and count of every library span path ending in `name`.
pub fn span_total(snapshot: &Snapshot, name: &str) -> (u64, u64) {
    snapshot
        .spans
        .iter()
        .filter(|(path, _)| path.rsplit('/').next() == Some(name))
        .fold((0, 0), |(ns, n), (_, s)| (ns + s.total_ns, n + s.count))
}

/// The sequential session replay: mean per-round cost of
/// `Session::ingest_in` and of the tracker step inside it.
#[derive(Debug)]
pub struct SessionReplay {
    /// Mean `ingest_in` wall time per round, µs.
    pub ingest_us: f64,
    /// Mean `smc.step` span time per round, µs.
    pub step_us: f64,
    /// The replayed sessions in their final state.
    pub sessions: Vec<Session>,
}

/// Replays each `(session, rounds)` of `sample` alone through
/// `Session::ingest_in` on one thread with one shared `CacheScratch`.
///
/// # Errors
///
/// Any engine error, as text.
pub fn session_replay(
    engine: &Engine,
    spec: &Spec,
    seed: u64,
    inputs: &Inputs,
    sample: &[(usize, usize)],
) -> Result<SessionReplay, String> {
    let pool = Pool::with_threads(1);
    let mut scratch = CacheScratch::new();
    let mut sessions = Vec::with_capacity(sample.len());
    let mut rounds = 0u64;
    let mut ingest = Duration::ZERO;
    let before = telemetry::snapshot();
    for &(s, count) in sample {
        let mut session = engine
            .open_session(&spec.session_config(), spec.session_seed(seed, s))
            .map_err(|e| format!("replay open {s}: {e}"))?;
        for round in &inputs.trace(s).rounds[..count] {
            let t = Instant::now();
            let outcome = session
                .ingest_in(round, &pool, &mut scratch)
                .map_err(|e| format!("replay {s}: {e}"))?;
            ingest += t.elapsed();
            black_box(outcome);
            rounds += 1;
        }
        sessions.push(session);
    }
    let after = telemetry::snapshot();
    let (step_ns_before, _) = span_total(&before, names::SPAN_SMC_STEP);
    let (step_ns_after, _) = span_total(&after, names::SPAN_SMC_STEP);
    let per_round = |total_ns: f64| total_ns / 1e3 / rounds.max(1) as f64;
    Ok(SessionReplay {
        ingest_us: per_round(ingest.as_nanos() as f64),
        step_us: per_round(step_ns_after.saturating_sub(step_ns_before) as f64),
        sessions,
    })
}

/// Compact checkpoint costs over replayed sessions.
#[derive(Debug)]
pub struct CheckpointReplay {
    /// `checkpoint_compact(2)` plus JSON encoding, µs per session.
    pub encode_us: f64,
    /// `Engine::restore_compact_json`, µs per session.
    pub decode_us: f64,
    /// Mean compact JSON size, bytes.
    pub bytes: f64,
}

/// Times eviction (compact encode) and revival (compact decode) of up to
/// [`CHECKPOINT_SESSIONS`] sessions, the grid's hibernation path.
///
/// # Errors
///
/// Encoding or restore failures, as text.
pub fn checkpoint_replay(
    engine: &Engine,
    sessions: &[Session],
) -> Result<CheckpointReplay, String> {
    let sessions = &sessions[..sessions.len().min(CHECKPOINT_SESSIONS)];
    let (mut encode, mut decode, mut bytes, mut n) = (Duration::ZERO, Duration::ZERO, 0usize, 0u32);
    let start = Instant::now();
    while n == 0 || start.elapsed() < REPLAY_MIN {
        for session in sessions {
            let t = Instant::now();
            let json = serde_json::to_string(&session.checkpoint_compact(2))
                .map_err(|e| format!("compact encode: {e}"))?;
            encode += t.elapsed();
            let t = Instant::now();
            let revived = engine
                .restore_compact_json(&json)
                .map_err(|e| format!("compact decode: {e}"))?;
            decode += t.elapsed();
            black_box(revived);
            bytes += json.len();
        }
        n += 1;
    }
    let count = (sessions.len() as f64 * f64::from(n)).max(1.0);
    Ok(CheckpointReplay {
        encode_us: encode.as_nanos() as f64 / 1e3 / count,
        decode_us: decode.as_nanos() as f64 / 1e3 / count,
        bytes: bytes as f64 / count,
    })
}

/// Wire codec costs over the run's own rounds and outcomes.
#[derive(Debug)]
pub struct CodecReplay {
    /// `Request::decode` of a one-round `SubmitRounds` frame, ns.
    pub decode_ns: f64,
    /// `Response::encode_into` of a one-outcome `RoundsAck`, ns.
    pub encode_ns: f64,
    /// Mean request frame bytes per round.
    pub bytes_in: f64,
    /// Mean ack frame bytes per round.
    pub bytes_out: f64,
}

/// Replays `rounds` as the one-round `SubmitRounds` frames the generator
/// sends through `Request::decode`, and `outcomes` as the acks fluxd
/// returns through `Response::encode_into`.
///
/// # Errors
///
/// Codec failures, as text.
pub fn codec_replay(
    rounds: &[&ObservationRound],
    outcomes: &[WireOutcome],
) -> Result<CodecReplay, String> {
    let mut frames = Vec::with_capacity(rounds.len());
    for round in rounds {
        let mut frame = Vec::new();
        encode_submit_into(&mut frame, 0, std::slice::from_ref(*round))
            .map_err(|e| format!("encode: {e}"))?;
        frames.push(frame);
    }
    let acks: Vec<Response> = outcomes
        .iter()
        .map(|o| Response::RoundsAck {
            session: 0,
            credits: 1,
            outcomes: vec![o.clone()],
        })
        .collect();
    let decode_ns = time_each(frames.len(), |i| {
        Request::decode(&frames[i][HEADER_LEN..])
            .map(black_box)
            .map(drop)
            .map_err(|e| format!("decode: {e}"))
    })?;
    let mut buf = Vec::new();
    let mut bytes_out = 0usize;
    for ack in &acks {
        buf.clear();
        ack.encode_into(&mut buf)
            .map_err(|e| format!("encode: {e}"))?;
        bytes_out += buf.len();
    }
    let encode_ns = time_each(acks.len(), |i| {
        buf.clear();
        acks[i]
            .encode_into(&mut buf)
            .map_err(|e| format!("encode: {e}"))?;
        black_box(&buf);
        Ok(())
    })?;
    Ok(CodecReplay {
        decode_ns,
        encode_ns,
        bytes_in: frames.iter().map(Vec::len).sum::<usize>() as f64 / frames.len().max(1) as f64,
        bytes_out: bytes_out as f64 / acks.len().max(1) as f64,
    })
}

/// Calls `f(0..n)` in passes until [`REPLAY_MIN`] has elapsed and returns
/// the mean ns per call.
fn time_each(n: usize, mut f: impl FnMut(usize) -> Result<(), String>) -> Result<f64, String> {
    if n == 0 {
        return Ok(0.0);
    }
    let mut calls = 0u64;
    let start = Instant::now();
    while calls == 0 || start.elapsed() < REPLAY_MIN {
        for i in 0..n {
            f(i)?;
        }
        calls += n as u64;
    }
    Ok(start.elapsed().as_nanos() as f64 / calls as f64)
}
