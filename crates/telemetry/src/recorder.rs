//! The per-thread recorder: counters, histograms and a span stack.
//!
//! A [`Recorder`] is plain mutable state with *explicit* time arguments —
//! no global clock, no locking — so tests hand it exact timestamps and
//! pin span durations to the nanosecond. The process-wide convenience API
//! in the crate's `registry` module keeps one `Recorder` per thread and merges it
//! into the global registry when the thread exits (merge-on-drop), so hot
//! paths only ever touch thread-local memory.

use std::collections::BTreeMap;

use crate::histogram::Histogram;

/// Aggregated timing of one span path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SpanStat {
    /// Number of completed spans on this path.
    pub count: u64,
    /// Total nanoseconds across all completions.
    pub total_ns: u64,
    /// Shortest completion.
    pub min_ns: u64,
    /// Longest completion.
    pub max_ns: u64,
}

impl SpanStat {
    /// Folds one completed span duration into the aggregate.
    pub fn observe(&mut self, duration_ns: u64) {
        if self.count == 0 {
            self.min_ns = duration_ns;
            self.max_ns = duration_ns;
        } else {
            self.min_ns = self.min_ns.min(duration_ns);
            self.max_ns = self.max_ns.max(duration_ns);
        }
        self.count += 1;
        self.total_ns = self.total_ns.saturating_add(duration_ns);
    }

    /// Merges another aggregate into this one.
    pub fn merge(&mut self, other: &SpanStat) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        self.count += other.count;
        self.total_ns = self.total_ns.saturating_add(other.total_ns);
        self.min_ns = self.min_ns.min(other.min_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
    }

    /// Mean completion time in nanoseconds (`None` when no completions).
    pub fn mean_ns(&self) -> Option<f64> {
        (self.count > 0).then(|| self.total_ns as f64 / self.count as f64)
    }
}

/// An open span returned by [`Recorder::begin_span`]; hand it back to
/// [`Recorder::end_span`] with the end timestamp.
#[derive(Debug)]
pub struct OpenSpan {
    path: String,
    start_ns: u64,
}

impl OpenSpan {
    /// The hierarchical path of this span (outer spans joined with `/`).
    pub fn path(&self) -> &str {
        &self.path
    }
}

/// Counters keyed by the name's address and length rather than its text:
/// an open-addressing table (linear probing, power-of-two capacity, grown
/// at half load) that never evicts, so a probe compares two words instead
/// of a string. The same text at two addresses (one literal per crate)
/// takes two slots; every reader merges slots by text, so counts stay
/// exact. Slot order depends on addresses, which is why nothing reads the
/// slots except through an order-independent sum.
///
/// The table is kept sparse and hashed on addresses relative to the
/// binary (see [`slot_hash`]), so a counter costs the same number of
/// probes in every run of one build: the metric catalog fits in the
/// first allocation with most names in their home slots.
#[derive(Debug, Default)]
struct CounterTable {
    slots: Vec<Option<(&'static str, u64)>>,
    live: usize,
}

impl CounterTable {
    /// Slots allocated on first use: the metric catalog at under half
    /// load.
    const FIRST_CAPACITY: usize = 128;

    fn add(&mut self, name: &'static str, delta: u64) {
        if let Some((_, value)) = self.find(name) {
            *value += delta;
            return;
        }
        if (self.live + 1) * 2 > self.slots.len() {
            self.grow();
        }
        self.insert(name, delta);
    }

    /// The slot holding `name` (this address and length), if any.
    fn find(&mut self, name: &'static str) -> Option<&mut (&'static str, u64)> {
        let mask = self.slots.len().checked_sub(1)?;
        let mut i = slot_hash(name) & mask;
        loop {
            match &self.slots[i] {
                None => return None,
                Some((key, _)) if std::ptr::eq(*key, name) => break,
                Some(_) => i = (i + 1) & mask,
            }
        }
        self.slots[i].as_mut()
    }

    /// Places a name known to be absent; the table has a free slot.
    fn insert(&mut self, name: &'static str, value: u64) {
        let mask = self.slots.len() - 1;
        let mut i = slot_hash(name) & mask;
        while self.slots[i].is_some() {
            i = (i + 1) & mask;
        }
        self.slots[i] = Some((name, value));
        self.live += 1;
    }

    fn grow(&mut self) {
        let capacity = (self.slots.len() * 2).max(Self::FIRST_CAPACITY);
        let old = std::mem::replace(&mut self.slots, vec![None; capacity]);
        self.live = 0;
        for (name, value) in old.into_iter().flatten() {
            self.insert(name, value);
        }
    }

    /// Every live `(name, value)` slot, in address-dependent order.
    fn entries(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.slots.iter().flatten().copied()
    }

    /// Empties every slot, keeping the capacity.
    fn clear(&mut self) {
        self.slots.fill(None);
        self.live = 0;
    }
}

/// An address in this binary that name literals are hashed relative to.
static ANCHOR: u8 = 0;

/// Hashes a name by its address and length (Fibonacci multiply; the
/// high bits are the well-mixed ones). The address is taken as an offset
/// from [`ANCHOR`]: address-space randomisation moves the whole binary,
/// literals and anchor alike, so a literal hashes to the same slot in
/// every process and the probe counts do not change from run to run.
fn slot_hash(name: &str) -> usize {
    let offset = (name.as_ptr() as usize).wrapping_sub(std::ptr::addr_of!(ANCHOR) as usize);
    let key = (offset as u64) ^ (name.len() as u64).rotate_left(32);
    (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize
}

/// Single-thread telemetry state: counters, histograms, span aggregates
/// and the live span stack.
#[derive(Debug, Default)]
pub struct Recorder {
    counters: CounterTable,
    histograms: BTreeMap<&'static str, Histogram>,
    spans: BTreeMap<String, SpanStat>,
    stack: Vec<&'static str>,
}

impl Recorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Recorder::default()
    }

    /// Adds `delta` to the named counter: one probe of a table keyed by
    /// the name's address (see `CounterTable`), no string comparison.
    pub fn add(&mut self, name: &'static str, delta: u64) {
        self.counters.add(name, delta);
    }

    /// Records one value into the named histogram.
    pub fn record(&mut self, name: &'static str, value: f64) {
        self.histograms.entry(name).or_default().record(value);
    }

    /// Opens a span at `now_ns`. The span's path is the names of all
    /// currently open spans joined with `/` — close it with
    /// [`end_span`](Recorder::end_span) in LIFO order.
    pub fn begin_span(&mut self, name: &'static str, now_ns: u64) -> OpenSpan {
        self.stack.push(name);
        OpenSpan {
            path: self.stack.join("/"),
            start_ns: now_ns,
        }
    }

    /// Closes a span at `now_ns` and folds its duration into the
    /// aggregate for its path.
    pub fn end_span(&mut self, span: OpenSpan, now_ns: u64) {
        self.stack.pop();
        self.spans
            .entry(span.path)
            .or_default()
            .observe(now_ns.saturating_sub(span.start_ns));
    }

    /// Current value of a counter (0 when never touched), summed over
    /// every literal carrying this text.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .entries()
            .filter(|(key, _)| *key == name)
            .map(|(_, value)| value)
            .sum()
    }

    /// The named histogram, when anything was recorded into it.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// The aggregate for a span path, when any span completed on it.
    pub fn span_stat(&self, path: &str) -> Option<&SpanStat> {
        self.spans.get(path)
    }

    /// Depth of the live span stack (0 outside any span).
    pub fn span_depth(&self) -> usize {
        self.stack.len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.live == 0 && self.histograms.is_empty() && self.spans.is_empty()
    }

    /// Drains this recorder into string-keyed maps (the registry's merge
    /// step), merging counters by text. The recorder is left empty but
    /// keeps its span stack and its counter table's capacity.
    pub fn drain_into(
        &mut self,
        counters: &mut std::collections::BTreeMap<String, u64>,
        histograms: &mut std::collections::BTreeMap<String, Histogram>,
        spans: &mut std::collections::BTreeMap<String, SpanStat>,
    ) {
        for (name, value) in self.counters.entries() {
            *counters.entry(name.to_string()).or_insert(0) += value;
        }
        self.counters.clear();
        for (name, histogram) in std::mem::take(&mut self.histograms) {
            histograms
                .entry(name.to_string())
                .or_default()
                .merge(&histogram);
        }
        for (path, stat) in std::mem::take(&mut self.spans) {
            spans.entry(path).or_default().merge(&stat);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut r = Recorder::new();
        r.add("a", 2);
        r.add("a", 3);
        r.add("b", 1);
        assert_eq!(r.counter("a"), 5);
        assert_eq!(r.counter("b"), 1);
        assert_eq!(r.counter("missing"), 0);
    }

    /// A `'static` copy of `text` at an address no literal shares.
    fn leaked(text: &str) -> &'static str {
        Box::leak(text.to_string().into_boxed_str())
    }

    #[test]
    fn aliased_names_merge_by_text() {
        let (a, b) = (leaked("alias.counter"), leaked("alias.counter"));
        assert!(!std::ptr::eq(a, b), "two addresses, one text");
        let mut r = Recorder::new();
        r.add(a, 2);
        r.add(b, 5);
        r.add("alias.counter", 1);
        assert_eq!(r.counter("alias.counter"), 8);
        let mut counters = std::collections::BTreeMap::new();
        r.drain_into(
            &mut counters,
            &mut std::collections::BTreeMap::new(),
            &mut std::collections::BTreeMap::new(),
        );
        assert_eq!(counters.len(), 1);
        assert_eq!(counters["alias.counter"], 8);
    }

    #[test]
    fn counter_table_grows_past_its_first_size() {
        // The metric catalog fits the first allocation; 500 more names
        // grow it.
        let catalog = crate::names::COUNTERS;
        let mut r = Recorder::new();
        for &name in catalog {
            r.add(name, 1);
        }
        assert_eq!(r.counters.slots.len(), CounterTable::FIRST_CAPACITY);
        let names: Vec<&'static str> = (0..500).map(|i| leaked(&format!("grow.{i}"))).collect();
        for round in 1..=3u64 {
            for (i, &name) in names.iter().enumerate() {
                r.add(name, i as u64 + round);
            }
        }
        assert!(r.counters.slots.len() > CounterTable::FIRST_CAPACITY);
        assert_eq!(r.counters.live, catalog.len() + names.len());
        for (i, &name) in names.iter().enumerate() {
            assert_eq!(r.counter(name), 3 * i as u64 + 6, "{name}");
        }
        for &name in catalog {
            assert_eq!(r.counter(name), 1, "{name}");
        }
    }

    #[test]
    fn drains_are_exact_and_keep_the_table() {
        let mut r = Recorder::new();
        let mut counters = std::collections::BTreeMap::new();
        let mut total = 0;
        for round in 0..50u64 {
            r.add("drain.a", round);
            r.add("drain.b", 1);
            total += round;
            if round % 7 == 0 {
                let capacity = r.counters.slots.len();
                r.drain_into(
                    &mut counters,
                    &mut std::collections::BTreeMap::new(),
                    &mut std::collections::BTreeMap::new(),
                );
                assert!(r.is_empty());
                assert_eq!(r.counter("drain.a"), 0);
                assert_eq!(r.counters.slots.len(), capacity);
            }
        }
        r.drain_into(
            &mut counters,
            &mut std::collections::BTreeMap::new(),
            &mut std::collections::BTreeMap::new(),
        );
        assert_eq!(counters["drain.a"], total);
        assert_eq!(counters["drain.b"], 50);
    }

    #[test]
    fn span_nesting_builds_hierarchical_paths() {
        let mut r = Recorder::new();

        let outer = r.begin_span("solver", 0);
        assert_eq!(outer.path(), "solver");

        let inner = r.begin_span("nnls", 100);
        assert_eq!(inner.path(), "solver/nnls");
        assert_eq!(r.span_depth(), 2);
        r.end_span(inner, 140);

        r.end_span(outer, 150);
        assert_eq!(r.span_depth(), 0);

        let inner = r.span_stat("solver/nnls").unwrap();
        assert_eq!((inner.count, inner.total_ns), (1, 40));
        let outer = r.span_stat("solver").unwrap();
        assert_eq!((outer.count, outer.total_ns), (1, 150));
        assert_eq!(outer.mean_ns(), Some(150.0));
    }

    #[test]
    fn span_timing_is_deterministic_under_explicit_timestamps() {
        let run = || {
            let mut r = Recorder::new();
            let mut now = 0;
            for step in 0..5u64 {
                let span = r.begin_span("step", now);
                now += 10 + step;
                r.end_span(span, now);
            }
            let s = *r.span_stat("step").unwrap();
            (s.count, s.total_ns, s.min_ns, s.max_ns)
        };
        assert_eq!(run(), run());
        assert_eq!(run(), (5, 60, 10, 14));
    }

    #[test]
    fn repeated_spans_track_min_and_max() {
        let mut stat = SpanStat::default();
        stat.observe(30);
        stat.observe(10);
        stat.observe(20);
        assert_eq!(stat.min_ns, 10);
        assert_eq!(stat.max_ns, 30);
        assert_eq!(stat.count, 3);
        assert_eq!(stat.total_ns, 60);

        let mut other = SpanStat::default();
        other.observe(5);
        stat.merge(&other);
        assert_eq!(stat.min_ns, 5);
        assert_eq!(stat.count, 4);
        let mut empty = SpanStat::default();
        stat.merge(&empty);
        assert_eq!(stat.count, 4);
        empty.merge(&stat);
        assert_eq!(empty, stat);
    }

    #[test]
    fn drain_into_empties_and_accumulates() {
        let mut r = Recorder::new();
        r.add("evals", 7);
        r.record("kept", 3.0);
        let span = r.begin_span("fit", 0);
        r.end_span(span, 25);

        let mut counters = std::collections::BTreeMap::new();
        let mut histograms = std::collections::BTreeMap::new();
        let mut spans = std::collections::BTreeMap::new();
        r.drain_into(&mut counters, &mut histograms, &mut spans);
        assert!(r.is_empty());

        let mut r2 = Recorder::new();
        r2.add("evals", 3);
        r2.drain_into(&mut counters, &mut histograms, &mut spans);
        assert_eq!(counters["evals"], 10);
        assert_eq!(histograms["kept"].count(), 1);
        assert_eq!(spans["fit"].total_ns, 25);
    }
}
