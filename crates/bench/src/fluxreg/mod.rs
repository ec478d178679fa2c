//! fluxreg: the experiment registry.
//!
//! The paper's claims are comparative — accuracy and cost across sniffer
//! counts, noise levels, and user loads — and so is every performance PR
//! this workspace lands. fluxreg records them as an auditable
//! trajectory:
//!
//! 1. **Plans** ([`plan`]) — declarative ablation plans: a JSON file
//!    naming a factor grid (threads / shards / sessions / N / K / noise),
//!    fixed parameters, the seeds to run, and per-KPI tolerance gates.
//!    Each plan has a stable [`plan hash`](plan::Plan::hash) — FNV-1a
//!    over the *canonical* (key-sorted) JSON with the gates stripped —
//!    so reordering fields or tightening a tolerance never orphans the
//!    plan's history.
//! 2. **Registry** ([`registry`]) — an append-only NDJSON file, one
//!    self-describing row per executed job, keyed by
//!    `(plan_hash, seed, commit)` and carrying the full parameter
//!    assignment, KPI values, `run_meta` provenance (threads,
//!    `FLUXPRINT_THREADS` status, git describe), and a folded
//!    `fluxtrace` snapshot — perf, correctness, and telemetry move
//!    together in one record.
//! 3. **Runner** ([`runner`]) — executes a plan's jobs through the
//!    engine/grid path and appends rows.
//! 4. **Gates** ([`gate`]) — deterministic per-KPI tolerance checks of a
//!    fresh run against the registered baseline. Exit codes mirror
//!    fluxlint v2: `0` pass, `1` regression, `2` usage, `3` internal.
//! 5. **Reports** ([`report`]) — a static markdown/HTML trajectory table
//!    per plan, rendered straight from the registry.
//! 6. **Import** ([`import`]) — folds the recorded figure/ablation
//!    results (`docs/repro_results.jsonl`) in as first-class rows, so
//!    the trajectory starts before the registry did.
//!
//! The committed smoke plan lives at `plans/smoke.json`; the seeded
//! registry at `registry/fluxreg.ndjson`. DESIGN.md §13 specifies the
//! schemas and gate semantics.

pub mod gate;
pub mod import;
pub mod plan;
pub mod registry;
pub mod report;
pub mod runner;

pub use gate::{evaluate, GateReport, Verdict};
pub use plan::{canonical_json, plan_hash, Direction, Gate, Plan};
pub use registry::Row;
