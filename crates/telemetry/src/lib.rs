//! fluxtrace: std-only structured telemetry for the fluxprint workspace.
//!
//! Spans, counters and histograms for the solver / SMC hot path, with
//! NDJSON export for the repro harness. Design constraints, in order:
//!
//! 1. **Never perturb the experiment.** The hot-path calls ([`counter`],
//!    [`record`], [`span`]) touch only thread-local state and never
//!    panic; simulation results are identical with telemetry on or off.
//! 2. **One clock.** Spans and [`clock_ns`] read monotonic nanoseconds
//!    from one process-wide origin, the workspace's single sanctioned
//!    wall-clock read in library crates, behind a fluxlint waiver. A
//!    [`Recorder`] takes explicit timestamps, so its tests pin exact
//!    span durations without any clock.
//! 3. **One schema for every run.** [`snapshot()`] pads its output with
//!    zero-valued entries for the whole metric catalog ([`names`]), so
//!    NDJSON exports from different figure targets diff record-for-record.
//!
//! ```
//! use fluxprint_telemetry as telemetry;
//!
//! telemetry::reset();
//! {
//!     let _span = telemetry::span(telemetry::names::SPAN_BRIEFING);
//!     telemetry::counter(telemetry::names::SOLVER_BRIEFING_ROUNDS, 1);
//! }
//! let snap = telemetry::snapshot();
//! assert_eq!(snap.counter(telemetry::names::SOLVER_BRIEFING_ROUNDS), 1);
//! assert!(snap.to_ndjson().lines().count() > 0);
//! ```

pub mod histogram;
pub mod names;
pub mod recorder;
mod registry;
pub mod snapshot;

pub use histogram::{Histogram, BUCKET_BOUNDS};
pub use recorder::{OpenSpan, Recorder, SpanStat};
pub use registry::{clock_ns, counter, flush, record, reset, snapshot, span, SpanGuard};
pub use snapshot::{json_number, json_string, Snapshot};
