//! In-memory spans recorded by the benchmark around its calls into each
//! layer, written as NDJSON when the run ends.

use std::io::Write;
use std::time::Instant;

/// One timed call: `[start_ns, end_ns)` on the run's clock.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Span name, `<layer>.<call>`.
    pub name: &'static str,
    /// Start, ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, ns since the tracer's epoch (0 while open).
    pub end_ns: u64,
    /// Index of the enclosing span in the same tracer.
    pub parent: Option<usize>,
    /// Session the call served, when it served one.
    pub session: Option<u32>,
    /// The session's round index, when the call carried one round.
    pub round: Option<u32>,
}

/// A span log for one thread of the run.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    /// Spans in the order they were opened.
    pub spans: Vec<Span>,
}

impl Tracer {
    /// An empty log timing against `epoch`; tracers sharing an epoch
    /// produce comparable timestamps.
    pub fn new(epoch: Instant) -> Self {
        Tracer {
            epoch,
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the epoch.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span now and returns its index for [`end`](Tracer::end)
    /// and as a parent.
    pub fn begin(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        session: Option<u32>,
        round: Option<u32>,
    ) -> usize {
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: 0,
            parent,
            session,
            round,
        });
        self.spans.len() - 1
    }

    /// Closes span `id` now.
    pub fn end(&mut self, id: usize) {
        let now = self.now();
        if let Some(span) = self.spans.get_mut(id) {
            span.end_ns = now;
        }
    }

    /// Share of `[from_ns, to_ns)` covered by the union of spans named in
    /// `names`.
    pub fn coverage(&self, names: &[&str], from_ns: u64, to_ns: u64) -> f64 {
        let mut intervals: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|s| names.contains(&s.name))
            .map(|s| (s.start_ns.max(from_ns), s.end_ns.min(to_ns)))
            .filter(|(a, b)| a < b)
            .collect();
        intervals.sort_unstable();
        let mut covered = 0u64;
        let mut reach = from_ns;
        for (a, b) in intervals {
            let a = a.max(reach);
            if b > a {
                covered += b - a;
                reach = b;
            }
        }
        covered as f64 / to_ns.saturating_sub(from_ns).max(1) as f64
    }

    /// Durations in ns of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns.saturating_sub(s.start_ns) as f64)
            .collect()
    }

    /// Appends the spans as NDJSON lines tagged with `thread`; parents
    /// are indices within the same thread's lines.
    pub fn write_ndjson(&self, thread: usize, out: &mut impl Write) -> std::io::Result<()> {
        for (id, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{{\"thread\":{thread},\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"session\":{},\"round\":{}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                json_opt(s.parent),
                json_opt(s.session),
                json_opt(s.round),
            )?;
        }
        Ok(())
    }
}

fn json_opt<T: std::fmt::Display>(v: Option<T>) -> String {
    v.map_or_else(|| "null".to_string(), |v| v.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent: None,
            session: None,
            round: None,
        }
    }

    #[test]
    fn coverage_counts_overlaps_once_and_clips_to_the_window() {
        let mut t = Tracer::new(Instant::now());
        t.spans = vec![
            span("a", 0, 40),
            span("a", 20, 50),
            span("b", 60, 200),
            span("other", 50, 60),
        ];
        let c = t.coverage(&["a", "b"], 10, 110);
        assert!((c - 0.9).abs() < 1e-12, "{c}");
    }
}
