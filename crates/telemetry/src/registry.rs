//! The process-wide registry and the thread-local fast path.
//!
//! Hot-path calls ([`counter`], [`record`], [`span`]) touch only a
//! thread-local [`Recorder`] — no locks, no atomics. A counter event is
//! one probe of a table keyed by the name's address, with no string
//! comparison; histogram and span events pay one ordered-map update.
//! Each thread's recorder is merged into the global registry when the
//! thread exits (the scoped sweep threads in `fluxprint-core` end every
//! trial batch this way) or when [`flush`] is called explicitly;
//! [`snapshot`] flushes the calling thread and returns the merged view.
//!
//! Merging is order-independent — counters add, histograms add
//! bucket-wise, span aggregates fold min/max/total — so the snapshot a
//! multi-threaded run exports is deterministic even though thread exit
//! order is not.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, OnceLock, RwLock};

use crate::clock::{Clock, MonotonicClock};
use crate::histogram::Histogram;
use crate::recorder::{OpenSpan, Recorder, SpanStat};
use crate::snapshot::Snapshot;

/// The merged cross-thread state.
#[derive(Debug, Default)]
struct Registry {
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Histogram>,
    spans: BTreeMap<String, SpanStat>,
}

fn registry() -> &'static Mutex<Registry> {
    static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Registry::default()))
}

fn clock_slot() -> &'static RwLock<Arc<dyn Clock>> {
    static CLOCK: OnceLock<RwLock<Arc<dyn Clock>>> = OnceLock::new();
    CLOCK.get_or_init(|| RwLock::new(Arc::new(MonotonicClock::new())))
}

fn now_ns() -> u64 {
    match clock_slot().read() {
        Ok(clock) => clock.now_ns(),
        Err(poisoned) => poisoned.into_inner().now_ns(),
    }
}

/// Reads the registry's clock — the same injectable [`Clock`] that spans
/// time themselves against. This is the sanctioned way for workspace
/// crates to take a timestamp (e.g. `fluxd`'s frame-latency histogram):
/// production runs see the monotonic clock, deterministic tests see
/// whatever [`set_clock`] installed, and the wall-clock read stays
/// confined to this crate's one waivered site.
pub fn clock_ns() -> u64 {
    now_ns()
}

/// Replaces the global clock (e.g. with a [`ManualClock`](crate::ManualClock)
/// for deterministic integration tests). Spans opened under the previous
/// clock will close against the new one; swap clocks only between runs.
pub fn set_clock(clock: Arc<dyn Clock>) {
    match clock_slot().write() {
        Ok(mut slot) => *slot = clock,
        Err(poisoned) => *poisoned.into_inner() = clock,
    }
}

/// The thread-local recorder, merged into the registry on thread exit.
struct LocalRecorder {
    recorder: Recorder,
}

impl Drop for LocalRecorder {
    fn drop(&mut self) {
        merge_into_registry(&mut self.recorder);
    }
}

thread_local! {
    static LOCAL: RefCell<LocalRecorder> = RefCell::new(LocalRecorder {
        recorder: Recorder::new(),
    });
}

fn merge_into_registry(recorder: &mut Recorder) {
    if recorder.is_empty() {
        return;
    }
    let mut guard = match registry().lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    };
    let registry = &mut *guard;
    recorder.drain_into(
        &mut registry.counters,
        &mut registry.histograms,
        &mut registry.spans,
    );
}

/// Runs `f` on the calling thread's recorder. During thread teardown the
/// thread-local may already be gone; telemetry then drops the event
/// rather than panicking — observability must never take the run down.
fn with_local<T>(f: impl FnOnce(&mut Recorder) -> T) -> Option<T> {
    LOCAL
        .try_with(|slot| {
            let mut slot = slot.try_borrow_mut().ok()?;
            Some(f(&mut slot.recorder))
        })
        .ok()
        .flatten()
}

/// Adds `delta` to the named counter on the calling thread.
pub fn counter(name: &'static str, delta: u64) {
    with_local(|r| r.add(name, delta));
}

/// Records one value into the named histogram on the calling thread.
pub fn record(name: &'static str, value: f64) {
    with_local(|r| r.record(name, value));
}

/// An RAII span handle: created by [`span`], closes (and records its
/// duration) on drop.
#[derive(Debug)]
pub struct SpanGuard {
    open: Option<OpenSpan>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(open) = self.open.take() {
            let end = now_ns();
            with_local(|r| r.end_span(open, end));
        }
    }
}

/// Opens a hierarchical span on the calling thread; the returned guard
/// records the span's duration when dropped. Nested spans (guards alive
/// at open time) extend the path with `/`.
#[must_use = "a span measures the scope of its guard; dropping it immediately records nothing useful"]
pub fn span(name: &'static str) -> SpanGuard {
    let start = now_ns();
    SpanGuard {
        open: with_local(|r| r.begin_span(name, start)),
    }
}

/// Merges the calling thread's recorder into the global registry now.
///
/// Worker threads should call this at the end of their closure: the
/// merge-on-drop in the thread-local is only a backstop, and e.g.
/// `thread::scope` unblocks when the closure returns, which can be
/// *before* the OS thread runs its TLS destructors — a snapshot taken
/// right after the scope could otherwise miss the last workers' events.
/// [`snapshot`] flushes its own thread automatically.
pub fn flush() {
    with_local(merge_into_registry);
}

/// Clears the global registry and the calling thread's recorder. The
/// repro harness resets between figure targets so each NDJSON summary
/// covers exactly one experiment.
pub fn reset() {
    with_local(|r| {
        let mut scratch = Registry::default();
        r.drain_into(
            &mut scratch.counters,
            &mut scratch.histograms,
            &mut scratch.spans,
        );
    });
    let mut registry = match registry().lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    };
    registry.counters.clear();
    registry.histograms.clear();
    registry.spans.clear();
}

/// Flushes the calling thread and returns the merged cross-thread view,
/// padded with zero-valued entries for every catalog name (see
/// [`crate::names`]) so exports always share one schema.
pub fn snapshot() -> Snapshot {
    flush();
    let registry = match registry().lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    };
    let mut snapshot = Snapshot {
        counters: registry.counters.clone(),
        histograms: registry.histograms.clone(),
        spans: registry.spans.clone(),
    };
    drop(registry);
    for &name in crate::names::COUNTERS {
        snapshot.counters.entry(name.to_string()).or_insert(0);
    }
    for &name in crate::names::HISTOGRAMS {
        snapshot.histograms.entry(name.to_string()).or_default();
    }
    for &name in crate::names::SPANS {
        snapshot.spans.entry(name.to_string()).or_default();
    }
    snapshot
}

#[cfg(test)]
mod tests {
    use super::*;

    // Global-state tests share one process with every other test in this
    // crate; they use test-unique metric names and assert only deltas
    // they produced themselves.

    #[test]
    fn counters_and_histograms_cross_threads_deterministically() {
        let run = || {
            std::thread::scope(|scope| {
                for chunk in 0..4u64 {
                    scope.spawn(move || {
                        for _ in 0..chunk + 1 {
                            counter("test.registry.cross_thread", 2);
                        }
                        record("test.registry.cross_hist", (chunk + 1) as f64);
                        // Scope exit does not wait for TLS destructors,
                        // so workers flush explicitly (see `flush` docs).
                        flush();
                    });
                }
            });
            let snap = snapshot();
            (
                snap.counter("test.registry.cross_thread"),
                snap.histograms["test.registry.cross_hist"].count(),
                snap.histograms["test.registry.cross_hist"].sum(),
            )
        };
        let (c1, n1, s1) = run();
        let (c2, n2, s2) = run();
        // Each round adds (1+2+3+4)·2 = 20 to the counter and 4 values
        // summing to 10 to the histogram, regardless of thread order.
        assert_eq!(c2 - c1, 20);
        assert_eq!(n2 - n1, 4);
        assert!((s2 - s1 - 10.0).abs() < 1e-12);
        assert!(c1 >= 20 && n1 >= 4);
    }

    #[test]
    fn spans_nest_and_merge_through_the_global_api() {
        {
            let _outer = span("test.registry.outer");
            let _inner = span("test.registry.inner");
        }
        let snap = snapshot();
        assert!(snap.spans["test.registry.outer"].count >= 1);
        assert!(snap.spans["test.registry.outer/test.registry.inner"].count >= 1);
    }

    #[test]
    fn snapshot_always_contains_the_catalog() {
        let snap = snapshot();
        for &name in crate::names::COUNTERS {
            assert!(snap.counters.contains_key(name), "missing counter {name}");
        }
        for &name in crate::names::HISTOGRAMS {
            assert!(
                snap.histograms.contains_key(name),
                "missing histogram {name}"
            );
        }
        for &name in crate::names::SPANS {
            assert!(snap.spans.contains_key(name), "missing span {name}");
        }
    }
}
