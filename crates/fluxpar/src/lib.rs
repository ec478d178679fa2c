//! Deterministic scoped worker pool for the `fluxprint` workspace.
//!
//! The pool runs whole independent units of work side by side: the
//! figure harness's trials, each of which seeds its own RNG. Every
//! parallel construct in this workspace must produce *bit-identical*
//! results at any thread count — parallelism is a wall-clock
//! optimization, never a semantic one — and [`Pool::map_indexed`], the
//! pool's one dispatch, keeps that contract:
//!
//! - the index space `0..len` is split into **contiguous chunks**, one
//!   per worker;
//! - each worker evaluates its chunk with a caller-supplied closure;
//! - results are returned **by slot** — `out[i]` is `f(i)` regardless of
//!   which worker computed it or when it finished.
//!
//! As long as `f(i)` depends only on `i`, the output vector is
//! byte-for-byte independent of the partition, so callers can fold it
//! sequentially and deterministically.
//!
//! The pool is *scoped*: threads are spawned per dispatch with
//! [`std::thread::scope`] and joined before the call returns, so closures
//! may borrow from the caller's stack and no worker outlives its work.
//! Worker panics are re-raised on the caller thread with the original
//! payload. Each worker merges its thread-local telemetry (explicit
//! [`telemetry::flush`]) before the scope exits, so counters stay exact.
//!
//! The process-wide [`pool()`] reads its thread count once, on first
//! use: `FLUXPRINT_THREADS` when set to a positive integer, else
//! [`std::thread::available_parallelism`]. A set-but-invalid value
//! (empty, non-numeric, or zero) is ignored with one
//! `fluxpar.threads_env_ignored` telemetry count; binaries that dispatch
//! here print [`threads_env_warning`] on stderr at startup.
//!
//! Nothing inside a unit of work dispatches here, so parallelism has
//! one level. A tracking round runs on the thread that ingests it, and
//! the grid's and fluxd's drain workers run many rounds side by side. An
//! instant-localization search runs on the thread that calls it.

use std::ops::Range;
use std::sync::OnceLock;

use fluxprint_telemetry::{self as telemetry, names};

/// Environment variable overriding the worker-thread count.
pub const THREADS_ENV: &str = "FLUXPRINT_THREADS";

/// A deterministic fork-join dispatcher with a fixed thread budget.
///
/// `Pool` holds no threads of its own — each dispatch spawns scoped
/// workers and joins them before returning — so it is trivially cheap to
/// construct and [`Sync`] to share. The process-wide instance from
/// [`pool()`] is what production code should use; tests construct private
/// pools with [`Pool::with_threads`] to pin the count.
#[derive(Debug, Clone)]
pub struct Pool {
    threads: usize,
}

impl Pool {
    /// A pool with exactly `threads` workers (clamped to at least 1).
    pub fn with_threads(threads: usize) -> Self {
        Self {
            threads: threads.max(1),
        }
    }

    /// The configured worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Maps `f` over `0..len`, returning results by slot.
    ///
    /// `out[i] == f(i)` for every `i`, bit-identical at any thread count
    /// provided `f(i)` depends only on `i`. At most one worker runs per
    /// item; a single worker runs on the calling thread.
    pub fn map_indexed<R, F>(&self, len: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        telemetry::counter(names::FLUXPAR_TASKS, len as u64);
        let workers = self.threads.min(len);
        if workers <= 1 {
            return (0..len).map(f).collect();
        }
        telemetry::counter(names::FLUXPAR_THREADS, workers as u64);
        let per_worker: Vec<Vec<R>> = std::thread::scope(|scope| {
            let handles: Vec<_> = chunk_ranges(len, workers)
                .into_iter()
                .map(|range| {
                    let f = &f;
                    scope.spawn(move || {
                        let out: Vec<R> = range.map(f).collect();
                        // Scope exit does not wait for TLS destructors, so
                        // merge the worker's telemetry before returning.
                        telemetry::flush();
                        out
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| match h.join() {
                    Ok(v) => v,
                    // A worker panicked; re-raise the original payload
                    // rather than a generic join failure.
                    Err(payload) => std::panic::resume_unwind(payload),
                })
                .collect()
        });
        per_worker.into_iter().flatten().collect()
    }
}

/// The process-wide pool, sized once per process on first use: from
/// `FLUXPRINT_THREADS` when it holds a positive integer, else
/// [`std::thread::available_parallelism`] (1 if unavailable). A
/// set-but-invalid override bumps the `fluxpar.threads_env_ignored`
/// counter, so the silent fallback is observable; see
/// [`threads_env_warning`] for the binary-facing diagnostic.
pub fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| {
        let configured = std::env::var(THREADS_ENV).ok();
        let threads = parse_threads(configured.as_deref()).unwrap_or_else(|| {
            if configured.is_some() {
                telemetry::counter(names::FLUXPAR_THREADS_ENV_IGNORED, 1);
            }
            std::thread::available_parallelism().map_or(1, |n| n.get())
        });
        Pool::with_threads(threads)
    })
}

/// Parses a `FLUXPRINT_THREADS` value; `None` (absent, malformed, or
/// zero) means "use the platform default".
fn parse_threads(value: Option<&str>) -> Option<usize> {
    let n: usize = value?.trim().parse().ok()?;
    (n >= 1).then_some(n)
}

/// A human-readable diagnostic when `FLUXPRINT_THREADS` is set but will
/// be ignored (empty, non-numeric, or zero), else `None`.
///
/// A pure query, stable across calls: provenance reporting uses it to
/// classify the override, and binaries that dispatch on [`pool()`] print
/// it once at startup. The matching telemetry signal is the
/// `fluxpar.threads_env_ignored` counter that [`pool()`] bumps.
pub fn threads_env_warning() -> Option<String> {
    let raw = std::env::var(THREADS_ENV).ok()?;
    match parse_threads(Some(&raw)) {
        Some(_) => None,
        None => Some(format!(
            "{THREADS_ENV}={raw:?} is not a positive integer; using the platform default"
        )),
    }
}

/// Splits `0..len` into `parts` contiguous ranges whose lengths differ by
/// at most one (earlier ranges take the remainder). Empty ranges are
/// omitted, so `parts > len` yields `len` singleton ranges.
fn chunk_ranges(len: usize, parts: usize) -> Vec<Range<usize>> {
    let parts = parts.max(1);
    let base = len / parts;
    let rem = len % parts;
    let mut ranges = Vec::with_capacity(parts.min(len));
    let mut start = 0;
    for p in 0..parts {
        let size = base + usize::from(p < rem);
        if size == 0 {
            break;
        }
        ranges.push(start..start + size);
        start += size;
    }
    ranges
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A deliberately order-sensitive float so reduction-order bugs show
    /// up as bit differences, not just logic errors.
    fn noisy(i: usize) -> f64 {
        let x = (i as f64 + 1.0) * 0.1;
        x.sin() * 1e6 + x.sqrt() / 3.0
    }

    #[test]
    fn map_indexed_is_bit_identical_across_thread_counts() {
        let reference: Vec<f64> = (0..257).map(noisy).collect();
        for threads in [1, 2, 8] {
            let got = Pool::with_threads(threads).map_indexed(257, noisy);
            assert_eq!(got.len(), reference.len());
            for (g, r) in got.iter().zip(&reference) {
                assert_eq!(g.to_bits(), r.to_bits(), "threads={threads}");
            }
        }
    }

    #[test]
    fn empty_and_singleton_dispatches_work() {
        let pool = Pool::with_threads(8);
        assert!(pool.map_indexed(0, noisy).is_empty());
        assert_eq!(pool.map_indexed(1, |i| i + 7), vec![7]);
    }

    #[test]
    fn thread_env_parsing() {
        assert_eq!(parse_threads(None), None);
        assert_eq!(parse_threads(Some("")), None);
        assert_eq!(parse_threads(Some("0")), None);
        assert_eq!(parse_threads(Some("nope")), None);
        assert_eq!(parse_threads(Some("3")), Some(3));
        assert_eq!(parse_threads(Some(" 12 ")), Some(12));
        assert!(pool().threads() >= 1);
    }

    #[test]
    fn threads_env_warning_reports_only_invalid_values() {
        // The env var is process-global; tests in this binary run in
        // parallel, so only exercise the parser-level contract here via
        // parse_threads and check the warning against the current env.
        // The query is pure: repeat calls agree.
        match std::env::var(THREADS_ENV) {
            Ok(raw) if parse_threads(Some(&raw)).is_none() => {
                assert!(threads_env_warning().is_some());
                assert!(threads_env_warning().is_some());
            }
            _ => {
                assert!(threads_env_warning().is_none());
                assert!(threads_env_warning().is_none());
            }
        }
    }

    #[test]
    fn chunk_ranges_cover_the_index_space_contiguously() {
        for len in [0usize, 1, 2, 7, 64, 257] {
            for parts in [1usize, 2, 3, 8, 300] {
                let ranges = chunk_ranges(len, parts);
                let mut expect = 0;
                for r in &ranges {
                    assert_eq!(r.start, expect);
                    assert!(!r.is_empty());
                    expect = r.end;
                }
                assert_eq!(expect, len);
                assert!(ranges.len() <= parts.min(len.max(1)));
            }
        }
    }

    #[test]
    fn pool_counts_tasks_and_threads() {
        // Other tests in this binary run concurrently and also dispatch,
        // so assert lower bounds rather than exact totals.
        Pool::with_threads(4).map_indexed(10, noisy);
        let snap = telemetry::snapshot();
        assert!(snap.counter(names::FLUXPAR_TASKS) >= 10);
        assert!(snap.counter(names::FLUXPAR_THREADS) >= 4);
    }
}
