//! The workspace metric catalog.
//!
//! Every instrumented site uses one of these names, and every
//! [`Snapshot`](crate::Snapshot) exports *all* of them — zero-valued when
//! untouched — so NDJSON files from different targets (a briefing-only
//! figure, a tracking figure, a full sweep) always share one schema and
//! can be diffed record-for-record across runs.

/// NLS objective evaluations (Equation 4.1 inner fits), the unit of work
/// of every outer position search.
pub const SOLVER_OBJECTIVE_EVALS: &str = "solver.objective.evals";
/// Inner non-negative least-squares solves performed by objective fits.
pub const SOLVER_NNLS_SOLVES: &str = "solver.nnls.solves";
/// Random K-tuples drawn by the multi-start random search.
pub const SOLVER_RANDOM_SEARCH_SAMPLES: &str = "solver.random_search.samples";
/// Nelder–Mead refinements that terminated by the tolerance test.
pub const SOLVER_NM_CONVERGED: &str = "solver.nelder_mead.converged";
/// Nelder–Mead refinements that exhausted their evaluation budget.
pub const SOLVER_NM_BUDGET_EXHAUSTED: &str = "solver.nelder_mead.budget_exhausted";
/// Sinks extracted by recursive full-map briefing rounds (§3.C).
pub const SOLVER_BRIEFING_ROUNDS: &str = "solver.briefing.rounds";
/// Scoring-cache (Gram) precomputes, one per observation window.
pub const SOLVER_GRAM_BUILD: &str = "solver.gram.build";
/// Combination evaluations answered from the Gram cache (n-free path).
pub const SOLVER_GRAM_COMBO_EVALS: &str = "solver.gram.combo_evals";
/// Exact data-space residuals computed by the Gram cache: one per probe
/// whose screening bound could still reach its scan's cut, so at most
/// [`SOLVER_GRAM_COMBO_EVALS`].
pub const SOLVER_RESIDUAL_EXACT: &str = "solver.residual.exact";
/// Warm-seeded NNLS solves that passed their KKT check. Every NNLS solve
/// now runs cold, so it always reads 0; the name stays because benchmark
/// reports read it.
pub const SOLVER_NNLS_WARM_HITS: &str = "solver.nnls.warm_hits";
/// Warm-seeded NNLS solves that fell back to the cold active-set loop.
/// Always 0, like [`SOLVER_NNLS_WARM_HITS`], and kept for the same
/// reason.
pub const SOLVER_NNLS_WARM_MISSES: &str = "solver.nnls.warm_misses";
/// Scoring-cache basis columns reused from the previous window. Nothing
/// reuses columns across windows any more, so it always reads 0; the name
/// stays because benchmark reports read it.
pub const SOLVER_GRAM_COLS_REUSED: &str = "solver.gram.cols_reused";

/// SMC tracker observation rounds processed (Algorithm 4.1 steps).
pub const SMC_STEPS: &str = "smc.steps";
/// Prediction candidates drawn across all users and rounds.
pub const SMC_SAMPLES_PREDICTED: &str = "smc.samples.predicted";
/// Uniform exploration (recovery) candidates among the predictions.
pub const SMC_SAMPLES_EXPLORE: &str = "smc.samples.explore";
/// Samples kept after filtering (top-M per active user per round).
pub const SMC_SAMPLES_KEPT: &str = "smc.samples.kept";
/// User-rounds detected active (fitted stretch above the threshold).
pub const SMC_USERS_ACTIVE: &str = "smc.users.active_rounds";
/// User-rounds frozen by the asynchronous-update Null path (§4.E).
pub const SMC_USERS_FROZEN: &str = "smc.users.frozen_rounds";
/// Weight renormalizations after importance updates.
pub const SMC_WEIGHT_RENORMALIZATIONS: &str = "smc.weight.renormalizations";
/// Degenerate weight rounds that fell back to uniform resampling.
pub const SMC_WEIGHT_DEGENERATE: &str = "smc.weight.degenerate_fallbacks";

/// Randomized collection trees built (one per active user per window).
pub const NETSIM_COLLECTION_TREES: &str = "netsim.collection.trees";
/// Per-sniffer flux readings taken across all observation windows.
pub const NETSIM_SNIFFER_OBSERVATIONS: &str = "netsim.sniffer.observations";

/// Work items routed through the deterministic worker pool:
/// random-search samples and figure trials. A tracking round routes
/// none.
pub const FLUXPAR_TASKS: &str = "fluxpar.tasks";
/// Worker threads spawned by parallel pool dispatches.
pub const FLUXPAR_THREADS: &str = "fluxpar.threads";
/// `FLUXPRINT_THREADS` overrides ignored because the value was
/// malformed or zero (the pool fell back to the platform default).
pub const FLUXPAR_THREADS_ENV_IGNORED: &str = "fluxpar.threads_env_ignored";

/// Tracking sessions opened by the streaming engine.
pub const ENGINE_SESSIONS: &str = "engine.sessions";
/// Observation rounds ingested across all sessions.
pub const ENGINE_ROUNDS: &str = "engine.rounds";
/// Rounds whose sniffer set changed since the previous round
/// (re-derives the session's objective template).
pub const ENGINE_CHURN_EVENTS: &str = "engine.churn.events";
/// Session checkpoints taken.
pub const ENGINE_CHECKPOINTS: &str = "engine.checkpoints";
/// Sessions restored from a checkpoint.
pub const ENGINE_RESTORES: &str = "engine.restores";
/// Users joined to live sessions after creation.
pub const ENGINE_USERS_JOINED: &str = "engine.users.joined";
/// Rounds ingested on the warm fast path (bounded candidate search
/// drawn from the previous posterior).
pub const ENGINE_WARM_ROUNDS: &str = "engine.warm.rounds";
/// Full-width escape sweeps run by warm sessions (cadence recovery).
pub const ENGINE_WARM_ESCAPES: &str = "engine.warm.escapes";
/// Warm-state invalidations from lifecycle or sniffer churn.
pub const ENGINE_WARM_INVALIDATIONS: &str = "engine.warm.invalidations";

/// Sessions resident across all grids (opened or restored into a shard).
pub const GRID_SESSIONS_RESIDENT: &str = "grid.sessions.resident";
/// Rounds accepted into per-session ingest queues.
pub const GRID_ROUNDS_QUEUED: &str = "grid.rounds.queued";
/// Rounds ingested by shard drains (batched tracker steps).
pub const GRID_ROUNDS_INGESTED: &str = "grid.rounds.ingested";
/// Submissions refused because the session's queue was full.
pub const GRID_BACKPRESSURE_EVENTS: &str = "grid.backpressure.events";
/// Contiguous batches handed to `Session::ingest_batch_into` by drains.
pub const GRID_BATCHES: &str = "grid.batches";
/// Sessions hibernated (idle evictions plus cold adoptions at grid
/// restore).
pub const GRID_SESSIONS_HIBERNATED: &str = "grid.sessions.hibernated";
/// Idle-policy evictions: a hot session drops its sniffer-set template
/// and turns cold.
pub const GRID_HIBERNATE_EVICTIONS: &str = "grid.hibernate.evictions";
/// Hibernated sessions revived (by the drain that ingests their queued
/// rounds, or by mutable access).
pub const GRID_HIBERNATE_REVIVALS: &str = "grid.hibernate.revivals";

/// Client connections accepted by the serving daemon.
pub const FLUXD_CONNECTIONS: &str = "fluxd.connections";
/// Request frames decoded off client sockets.
pub const FLUXD_FRAMES_IN: &str = "fluxd.frames.in";
/// Response frames encoded onto client sockets.
pub const FLUXD_FRAMES_OUT: &str = "fluxd.frames.out";
/// Observation rounds accepted over the wire.
pub const FLUXD_ROUNDS_SERVED: &str = "fluxd.rounds.served";
/// Grid backpressure hits absorbed by the daemon (drain-then-resubmit
/// stalls on the core thread; protocol credits should make these rare).
pub const FLUXD_BACKPRESSURE_STALLS: &str = "fluxd.backpressure.stalls";
/// Malformed or protocol-violating frames answered with a typed error.
pub const FLUXD_PROTOCOL_ERRORS: &str = "fluxd.protocol.errors";

/// Per-round prediction candidate counts (distribution across rounds).
pub const HIST_SMC_ROUND_SAMPLES: &str = "smc.round.samples_predicted";
/// Per-round count of users detected active.
pub const HIST_SMC_ROUND_ACTIVE: &str = "smc.round.active_users";
/// Winning combination residual `‖F̂ − F′‖` per round.
pub const HIST_SMC_ROUND_RESIDUAL: &str = "smc.round.residual";
/// Rounds queued across the grid at the start of each drain (backlog
/// distribution; the name predates the drain's shared work list).
pub const HIST_GRID_QUEUE_DEPTH: &str = "grid.shard.queue_depth";
/// In-memory bytes of each session turning cold (eviction or cold
/// adoption): its inline size plus the per-user tracks (each holding its
/// heading history inline), samples, lifecycle states and warm flags it
/// owns, by length (the figure `Grid::hibernated_bytes` sums).
pub const HIST_GRID_HIBERNATE_BYTES: &str = "grid.hibernate.bytes";
/// Frame service latency in milliseconds: request frame decoded →
/// response frame handed to the connection's writer.
pub const HIST_FLUXD_FRAME_LATENCY: &str = "fluxd.frame.latency_ms";

/// Span: one multi-start random position search.
pub const SPAN_RANDOM_SEARCH: &str = "solver.random_search";
/// Span: one Nelder–Mead refinement.
pub const SPAN_NELDER_MEAD: &str = "solver.nelder_mead";
/// Span: one recursive full-map briefing.
pub const SPAN_BRIEFING: &str = "solver.briefing";
/// Span: one SMC tracker observation round.
pub const SPAN_SMC_STEP: &str = "smc.step";
/// Span: one simulated observation window (all users' trees).
pub const SPAN_SIMULATE_FLUX: &str = "netsim.simulate_flux";
/// Span: one streaming-engine round ingestion.
pub const SPAN_ENGINE_INGEST: &str = "engine.ingest";
/// Span: one grid drain barrier (all shards, all queued rounds).
pub const SPAN_GRID_DRAIN: &str = "grid.drain";

/// Every counter in the catalog (exported zero-valued when untouched).
pub const COUNTERS: &[&str] = &[
    SOLVER_OBJECTIVE_EVALS,
    SOLVER_NNLS_SOLVES,
    SOLVER_RANDOM_SEARCH_SAMPLES,
    SOLVER_NM_CONVERGED,
    SOLVER_NM_BUDGET_EXHAUSTED,
    SOLVER_BRIEFING_ROUNDS,
    SOLVER_GRAM_BUILD,
    SOLVER_GRAM_COMBO_EVALS,
    SOLVER_RESIDUAL_EXACT,
    SOLVER_NNLS_WARM_HITS,
    SOLVER_NNLS_WARM_MISSES,
    SOLVER_GRAM_COLS_REUSED,
    SMC_STEPS,
    SMC_SAMPLES_PREDICTED,
    SMC_SAMPLES_EXPLORE,
    SMC_SAMPLES_KEPT,
    SMC_USERS_ACTIVE,
    SMC_USERS_FROZEN,
    SMC_WEIGHT_RENORMALIZATIONS,
    SMC_WEIGHT_DEGENERATE,
    NETSIM_COLLECTION_TREES,
    NETSIM_SNIFFER_OBSERVATIONS,
    FLUXPAR_TASKS,
    FLUXPAR_THREADS,
    FLUXPAR_THREADS_ENV_IGNORED,
    ENGINE_SESSIONS,
    ENGINE_ROUNDS,
    ENGINE_CHURN_EVENTS,
    ENGINE_CHECKPOINTS,
    ENGINE_RESTORES,
    ENGINE_USERS_JOINED,
    ENGINE_WARM_ROUNDS,
    ENGINE_WARM_ESCAPES,
    ENGINE_WARM_INVALIDATIONS,
    GRID_SESSIONS_RESIDENT,
    GRID_ROUNDS_QUEUED,
    GRID_ROUNDS_INGESTED,
    GRID_BACKPRESSURE_EVENTS,
    GRID_BATCHES,
    GRID_SESSIONS_HIBERNATED,
    GRID_HIBERNATE_EVICTIONS,
    GRID_HIBERNATE_REVIVALS,
    FLUXD_CONNECTIONS,
    FLUXD_FRAMES_IN,
    FLUXD_FRAMES_OUT,
    FLUXD_ROUNDS_SERVED,
    FLUXD_BACKPRESSURE_STALLS,
    FLUXD_PROTOCOL_ERRORS,
];

/// Every histogram in the catalog.
pub const HISTOGRAMS: &[&str] = &[
    HIST_SMC_ROUND_SAMPLES,
    HIST_SMC_ROUND_ACTIVE,
    HIST_SMC_ROUND_RESIDUAL,
    HIST_GRID_QUEUE_DEPTH,
    HIST_GRID_HIBERNATE_BYTES,
    HIST_FLUXD_FRAME_LATENCY,
];

/// Every span root in the catalog. Nested paths (`a/b`) appear in
/// snapshots as recorded; the catalog pins only the roots.
pub const SPANS: &[&str] = &[
    SPAN_RANDOM_SEARCH,
    SPAN_NELDER_MEAD,
    SPAN_BRIEFING,
    SPAN_SMC_STEP,
    SPAN_SIMULATE_FLUX,
    SPAN_ENGINE_INGEST,
    SPAN_GRID_DRAIN,
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_names_are_unique_and_well_formed() {
        let mut all: Vec<&str> = COUNTERS
            .iter()
            .chain(HISTOGRAMS)
            .chain(SPANS)
            .copied()
            .collect();
        let before = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), before, "duplicate catalog name");
        for name in all {
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || "._".contains(c)),
                "bad catalog name {name:?}"
            );
        }
    }
}
