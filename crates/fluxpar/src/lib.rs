//! Deterministic scoped worker pool for the `fluxprint` workspace.
//!
//! Every parallel construct in this workspace must produce *bit-identical*
//! results at any thread count — parallelism is a wall-clock optimization,
//! never a semantic one. This crate provides the one primitive that makes
//! that contract easy to keep:
//!
//! - the index space `0..len` is split into **contiguous chunks**;
//! - each worker evaluates its chunk with a caller-supplied closure
//!   (optionally over per-worker scratch state);
//! - results are returned **by slot** — `out[i]` is `f(i)` regardless of
//!   which worker computed it or when it finished — or, with
//!   [`Pool::fill_chunks`], written in place into caller-owned buffers,
//!   each chunk handed exactly its items' share of them.
//!
//! As long as `f(i)` depends only on `i` (scratch state may be *reused*
//! across calls but must not change results), the output vector is
//! byte-for-byte independent of the partition, so callers can fold it
//! sequentially and deterministically. [`Pool::fill_chunks`] hands its
//! closure whole chunks of a size the caller picks, so the partition it
//! sees is a function of `len` alone, never of the thread count.
//!
//! The pool is *scoped*: threads are spawned per dispatch with
//! [`std::thread::scope`] and joined before the call returns, so closures
//! may borrow from the caller's stack and no worker outlives its work.
//! Worker panics are re-raised on the caller thread with the original
//! payload. Each worker merges its thread-local telemetry (explicit
//! [`telemetry::flush`]) before the scope exits, so counters stay exact.
//!
//! Thread count comes from the `FLUXPRINT_THREADS` environment variable
//! when set to a positive integer, else [`std::thread::available_parallelism`].
//! A set-but-invalid value (empty, non-numeric, or zero) is ignored with a
//! `fluxpar.threads_env_ignored` telemetry count; binaries should surface
//! [`threads_env_warning_once`] on stderr at startup. Both the counter
//! and the warning are latched to fire at most once per process, however
//! many pools re-derive themselves from the environment.
//! Nested dispatches (a worker closure calling back into a pool) run
//! sequentially on the worker thread — parallelism does not multiply.
//!
//! # Shard workers and nested dispatch
//!
//! The nested-dispatch guard is keyed on a thread-local set only inside
//! `map_*`/`fill_chunks` worker closures. Threads spawned *directly* with
//! [`std::thread::scope`] — e.g. the per-shard drain workers of
//! `fluxprint-engine`'s grid — are **not** pool workers, so a dispatch
//! they make on their own [`Pool`] slice still fans out. The intended
//! sharding pattern is therefore: split the budget with [`Pool::split`],
//! hand each shard thread its own slice, and let slices of one thread
//! take the sequential fast path (no spawns at all) while the shard
//! threads themselves provide the parallelism. Shard threads must call
//! [`telemetry::flush`] before exiting, exactly as pool workers do.

use std::cell::Cell;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

use fluxprint_telemetry::{self as telemetry, names};

/// Environment variable overriding the worker-thread count.
pub const THREADS_ENV: &str = "FLUXPRINT_THREADS";

thread_local! {
    /// Set while executing inside a pool worker; nested dispatches on
    /// this thread fall back to sequential execution.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// A deterministic fork-join dispatcher with a fixed thread budget.
///
/// `Pool` holds no threads of its own — each `map_*` call spawns scoped
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

    /// A pool sized from `FLUXPRINT_THREADS`, defaulting to
    /// [`std::thread::available_parallelism`] (1 if unavailable).
    ///
    /// A set-but-invalid override (empty, non-numeric, or zero) falls back
    /// to the platform default and bumps the
    /// `fluxpar.threads_env_ignored` counter so the silent fallback is
    /// observable. The bump is latched process-wide: re-deriving pools
    /// (grid shards, [`Pool::default`]) re-checks the env but cannot
    /// inflate the count. See [`threads_env_warning_once`] for the
    /// binary-facing diagnostic.
    pub fn from_env() -> Self {
        let configured = std::env::var(THREADS_ENV).ok();
        if configured.is_some()
            && parse_threads(configured.as_deref()).is_none()
            && !ENV_IGNORED_COUNTED.swap(true, Ordering::Relaxed)
        {
            telemetry::counter(names::FLUXPAR_THREADS_ENV_IGNORED, 1);
        }
        let threads = parse_threads(configured.as_deref()).unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        });
        Self::with_threads(threads)
    }

    /// Splits this pool's thread budget into `parts` independent slices,
    /// one per shard. Slice sizes differ by at most one (earlier slices
    /// take the remainder) and every slice gets at least one thread, so
    /// `parts > threads` oversubscribes rather than starving a shard.
    ///
    /// Slices are plain [`Pool`]s: they share no state with `self` or each
    /// other, so shard threads dispatching on their own slice never
    /// contend on the process-wide [`pool()`]. A slice of one thread takes
    /// the sequential fast path on every dispatch — no spawns at all —
    /// which is the intended configuration when the shard threads
    /// themselves are the parallelism.
    pub fn split(&self, parts: usize) -> Vec<Pool> {
        let parts = parts.max(1);
        let base = self.threads / parts;
        let rem = self.threads % parts;
        (0..parts)
            .map(|p| Pool::with_threads((base + usize::from(p < rem)).max(1)))
            .collect()
    }

    /// The configured worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Maps `f` over `0..len`, returning results by slot.
    ///
    /// `out[i] == f(i)` for every `i`, bit-identical at any thread count
    /// provided `f(i)` depends only on `i`.
    pub fn map_indexed<R, F>(&self, len: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        self.map_with(len, || (), |(), i| f(i))
    }

    /// Maps `f` over `0..len` with per-worker scratch state, returning
    /// results by slot.
    ///
    /// `init` runs once on each worker (and once on the caller thread in
    /// the sequential path); `f` may mutate the state freely between
    /// items — buffer reuse is the point — but the value returned for
    /// item `i` must not depend on which items the state saw before,
    /// or determinism across thread counts is lost.
    pub fn map_with<S, R, FS, F>(&self, len: usize, init: FS, f: F) -> Vec<R>
    where
        R: Send,
        FS: Fn() -> S + Sync,
        F: Fn(&mut S, usize) -> R + Sync,
    {
        telemetry::counter(names::FLUXPAR_TASKS, len as u64);
        let workers = self.effective_workers(len);
        if workers <= 1 {
            let mut state = init();
            return (0..len).map(|i| f(&mut state, i)).collect();
        }
        telemetry::counter(names::FLUXPAR_THREADS, workers as u64);
        let ranges = chunk_ranges(len, workers);
        let per_worker: Vec<Vec<R>> = std::thread::scope(|scope| {
            let handles: Vec<_> = ranges
                .into_iter()
                .map(|range| {
                    let init = &init;
                    let f = &f;
                    scope.spawn(move || {
                        IN_WORKER.with(|w| w.set(true));
                        let mut state = init();
                        let out: Vec<R> = range.map(|i| f(&mut state, i)).collect();
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
        let mut out = Vec::with_capacity(len);
        for chunk in per_worker {
            out.extend(chunk);
        }
        out
    }

    /// Fills caller-owned buffers in place. `out` holds `len` items (see
    /// [`Items`]) and is cut into chunks of `chunk_size` items (the last
    /// may be short); `f(range, part)` writes chunk `range`, where `part`
    /// is exactly that chunk's share of every buffer.
    ///
    /// The partition is a function of `len` and `chunk_size` only — never
    /// of the thread count — so `f` sees the same chunks at any thread
    /// count, and workers take contiguous runs of them. The sequential
    /// path allocates nothing.
    pub fn fill_chunks<P, F>(&self, len: usize, chunk_size: usize, out: P, f: F)
    where
        P: Items,
        F: Fn(Range<usize>, P) + Sync,
    {
        telemetry::counter(names::FLUXPAR_TASKS, len as u64);
        let size = chunk_size.max(1);
        let chunks = len.div_ceil(size);
        let workers = self.effective_workers(chunks);
        if workers <= 1 {
            fill_run(0..chunks, size, len, out, &f);
            return;
        }
        telemetry::counter(names::FLUXPAR_THREADS, workers as u64);
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(workers);
            let mut rest = out;
            for run in chunk_ranges(chunks, workers) {
                let start = run.start * size;
                let (mine, tail) = rest.split_items(len.min(run.end * size) - start, len - start);
                rest = tail;
                let f = &f;
                handles.push(scope.spawn(move || {
                    IN_WORKER.with(|w| w.set(true));
                    fill_run(run, size, len, mine, f);
                    telemetry::flush();
                }));
            }
            for handle in handles {
                if let Err(payload) = handle.join() {
                    std::panic::resume_unwind(payload);
                }
            }
        });
    }

    /// Worker count for a dispatch of `len` items: 1 inside a nested
    /// dispatch or when there is nothing to split, else at most one
    /// worker per item.
    fn effective_workers(&self, len: usize) -> usize {
        if IN_WORKER.with(Cell::get) || len <= 1 {
            1
        } else {
            self.threads.min(len)
        }
    }
}

impl Default for Pool {
    fn default() -> Self {
        Self::from_env()
    }
}

/// The process-wide pool, sized once from the environment on first use.
pub fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(Pool::from_env)
}

/// Parses a `FLUXPRINT_THREADS` value; `None` (absent, malformed, or
/// zero) means "use the platform default".
fn parse_threads(value: Option<&str>) -> Option<usize> {
    let n: usize = value?.trim().parse().ok()?;
    (n >= 1).then_some(n)
}

/// Process-wide latch: the `fluxpar.threads_env_ignored` counter fires
/// at most once per process, however many [`Pool::from_env`] /
/// [`Pool::default`] calls re-derive pools (grid shard setup, repeated
/// sub-pool construction). The env var cannot change meaningfully
/// mid-process, so repeat bumps were pure noise.
static ENV_IGNORED_COUNTED: AtomicBool = AtomicBool::new(false);

/// Matching latch for the binary-facing stderr warning
/// ([`threads_env_warning_once`]); kept separate from the counter latch
/// so internal pool construction never swallows the user-visible
/// message.
static ENV_WARNING_EMITTED: AtomicBool = AtomicBool::new(false);

/// A human-readable diagnostic when `FLUXPRINT_THREADS` is set but will
/// be ignored (empty, non-numeric, or zero), else `None`.
///
/// This is a pure query — it is stable across calls and is what
/// provenance reporting uses to classify the override. Binaries that
/// *print* the diagnostic should go through
/// [`threads_env_warning_once`] instead so the message reaches stderr
/// exactly once per process. The matching telemetry signal is the
/// `fluxpar.threads_env_ignored` counter bumped (once per process) by
/// [`Pool::from_env`].
pub fn threads_env_warning() -> Option<String> {
    let raw = std::env::var(THREADS_ENV).ok()?;
    match parse_threads(Some(&raw)) {
        Some(_) => None,
        None => Some(format!(
            "{THREADS_ENV}={raw:?} is not a positive integer; using the platform default"
        )),
    }
}

/// [`threads_env_warning`] behind a process-wide latch: the first call
/// that would produce a message returns it, every later call returns
/// `None`. Binaries forward the result to stderr at startup; entry
/// points that can run several times in one process (plan runners,
/// batched benches) then cannot repeat the warning per invocation.
pub fn threads_env_warning_once() -> Option<String> {
    let warning = threads_env_warning()?;
    (!ENV_WARNING_EMITTED.swap(true, Ordering::Relaxed)).then_some(warning)
}

/// Caller-owned output buffers that [`Pool::fill_chunks`] hands out in
/// disjoint pieces. Each buffer holds the dispatch's items back to back,
/// all of one width: `len` items in a slice of `width · len` elements.
/// A slice splits at an item boundary; a pair or a triple splits its
/// members alike.
pub trait Items: Send + Sized {
    /// Splits the first `head` of the `len` items this value holds from
    /// the rest.
    fn split_items(self, head: usize, len: usize) -> (Self, Self);
}

impl<T: Send> Items for &mut [T] {
    fn split_items(self, head: usize, len: usize) -> (Self, Self) {
        let width = self.len().checked_div(len).unwrap_or(0);
        self.split_at_mut(head * width)
    }
}

impl<A: Items, B: Items> Items for (A, B) {
    fn split_items(self, head: usize, len: usize) -> (Self, Self) {
        let (a, a_rest) = self.0.split_items(head, len);
        let (b, b_rest) = self.1.split_items(head, len);
        ((a, b), (a_rest, b_rest))
    }
}

impl<A: Items, B: Items, C: Items> Items for (A, B, C) {
    fn split_items(self, head: usize, len: usize) -> (Self, Self) {
        let (a, a_rest) = self.0.split_items(head, len);
        let (b, b_rest) = self.1.split_items(head, len);
        let (c, c_rest) = self.2.split_items(head, len);
        ((a, b, c), (a_rest, b_rest, c_rest))
    }
}

/// Runs `f` on chunks `run` (of `size` items out of `len`), peeling each
/// chunk's share off `part`, which holds exactly the run's items.
fn fill_run<P: Items, F: Fn(Range<usize>, P)>(
    run: Range<usize>,
    size: usize,
    len: usize,
    mut part: P,
    f: &F,
) {
    let end = len.min(run.end * size);
    for c in run {
        let range = c * size..len.min((c + 1) * size);
        let (head, tail) = part.split_items(range.len(), end - range.start);
        part = tail;
        f(range, head);
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
            // The in-place fill writes the same bits by slot into buffers
            // of two widths, and every chunk starts where `len` alone puts
            // it (a misplaced split would show in either).
            let (mut filled, mut wide, mut starts) = (vec![0.0; 257], vec![0.0; 514], vec![0; 257]);
            let out = (&mut filled[..], &mut wide[..], &mut starts[..]);
            Pool::with_threads(threads).fill_chunks(
                257,
                16,
                out,
                |range, (filled, wide, starts)| {
                    for (k, i) in range.clone().enumerate() {
                        filled[k] = noisy(i);
                        wide[2 * k..2 * k + 2].fill(noisy(i));
                        starts[k] = range.start;
                    }
                },
            );
            for (i, r) in reference.iter().enumerate() {
                assert_eq!(filled[i].to_bits(), r.to_bits(), "threads={threads}");
                assert_eq!(wide[2 * i + 1].to_bits(), r.to_bits(), "threads={threads}");
                assert_eq!(starts[i], i / 16 * 16, "threads={threads}");
            }
        }
    }

    #[test]
    fn map_with_reuses_scratch_without_changing_results() {
        let f = |scratch: &mut Vec<f64>, i: usize| {
            scratch.clear();
            scratch.extend((0..16).map(|j| noisy(i * 16 + j)));
            scratch.iter().sum::<f64>()
        };
        let reference = Pool::with_threads(1).map_with(100, Vec::new, f);
        for threads in [2, 8] {
            let got = Pool::with_threads(threads).map_with(100, Vec::new, f);
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
        let mut none: [f64; 0] = [];
        pool.fill_chunks(0, 10, &mut none[..], |_, _| panic!("no chunk to fill"));
    }

    #[test]
    fn nested_dispatch_runs_sequentially_and_matches() {
        let pool = Pool::with_threads(4);
        let nested = |i: usize| -> f64 {
            // Inner dispatch: must fall back to sequential on a worker
            // thread, and must still produce slot-ordered results.
            Pool::with_threads(4)
                .map_indexed(8, |j| noisy(i * 8 + j))
                .into_iter()
                .fold(0.0, |acc, v| acc + v)
        };
        let reference: Vec<f64> = (0..12).map(nested).collect();
        let got = pool.map_indexed(12, nested);
        for (g, r) in got.iter().zip(&reference) {
            assert_eq!(g.to_bits(), r.to_bits());
        }
    }

    #[test]
    fn thread_env_parsing() {
        assert_eq!(parse_threads(None), None);
        assert_eq!(parse_threads(Some("")), None);
        assert_eq!(parse_threads(Some("0")), None);
        assert_eq!(parse_threads(Some("nope")), None);
        assert_eq!(parse_threads(Some("3")), Some(3));
        assert_eq!(parse_threads(Some(" 12 ")), Some(12));
        assert!(Pool::from_env().threads() >= 1);
        assert!(pool().threads() >= 1);
    }

    #[test]
    fn split_divides_the_budget_without_starving_any_slice() {
        let sizes = |total: usize, parts: usize| -> Vec<usize> {
            Pool::with_threads(total)
                .split(parts)
                .iter()
                .map(Pool::threads)
                .collect()
        };
        assert_eq!(sizes(8, 4), vec![2, 2, 2, 2]);
        assert_eq!(sizes(7, 4), vec![2, 2, 2, 1]);
        assert_eq!(sizes(4, 4), vec![1, 1, 1, 1]);
        // Oversubscription: more shards than threads still yields one
        // thread per shard, never zero.
        assert_eq!(sizes(2, 5), vec![1, 1, 1, 1, 1]);
        assert_eq!(sizes(3, 1), vec![3]);
        assert_eq!(Pool::with_threads(6).split(0).len(), 1);
    }

    #[test]
    fn threads_env_warning_reports_only_invalid_values() {
        // The env var is process-global; tests in this binary run in
        // parallel, so only exercise the parser-level contract here via
        // parse_threads and check the warning against the current env.
        // The query form is latch-free: repeat calls agree.
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
    fn env_ignored_counter_and_warning_latch_once_per_process() {
        // However many pools re-derive from the environment, the
        // process-wide latches allow at most one counter bump…
        let _ = Pool::from_env();
        let _ = Pool::default();
        let _ = Pool::from_env();
        let counted = fluxprint_telemetry::snapshot()
            .counter(fluxprint_telemetry::names::FLUXPAR_THREADS_ENV_IGNORED);
        assert!(counted <= 1, "counter fired {counted} times");
        // …and at most one emitted warning (other tests may have taken
        // the latch first; two Somes in a row is the only failure mode).
        let first = threads_env_warning_once();
        let second = threads_env_warning_once();
        assert!(
            first.is_none() || second.is_none(),
            "warning emitted twice: {first:?} / {second:?}"
        );
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
