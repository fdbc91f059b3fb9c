//! The benchmark's own span recorder. Spans are taken around each call the
//! benchmark makes into a layer of the program (nothing inside the program
//! is instrumented), kept in memory, and summarized when the run ends.
//!
//! A disabled tracer records nothing, so traced and untraced rounds run the
//! same code and their time difference is the tracing overhead.

use crate::stats::{self, Interval};
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start: u64,
    pub end: u64,
    /// Index of the enclosing span in the same tracer.
    pub parent: Option<usize>,
    /// The request (or family) the span belongs to; spans of one request
    /// share it.
    pub request: Option<u64>,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end - self.start
    }
}

#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
    /// Spans begun and not yet ended, innermost last.
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(epoch: Instant, enabled: bool) -> Tracer {
        Tracer {
            epoch,
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    fn ns(&self, at: Instant) -> u64 {
        u64::try_from(at.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Run `f` inside a span named `name`, nested under the innermost open
    /// span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        request: Option<u64>,
        f: impl FnOnce() -> T,
    ) -> T {
        if !self.enabled {
            return f();
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start: self.ns(Instant::now()),
            end: 0,
            parent: self.open.last().copied(),
            request,
        });
        self.open.push(idx);
        let out = f();
        self.spans[idx].end = self.ns(Instant::now());
        self.open.pop();
        out
    }

    /// Open a span that later [`Tracer::time`] calls nest under; close it
    /// with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, request: Option<u64>) {
        if !self.enabled {
            return;
        }
        self.spans.push(Span {
            name,
            start: self.ns(Instant::now()),
            end: 0,
            parent: self.open.last().copied(),
            request,
        });
        self.open.push(self.spans.len() - 1);
    }

    pub fn end(&mut self) {
        if let Some(idx) = self.open.pop() {
            self.spans[idx].end = self.ns(Instant::now());
        }
    }

    /// Record a span whose bounds were measured elsewhere (e.g. a request
    /// from its due time to its response); returns its index for use as a
    /// parent.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        request: Option<u64>,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        self.spans.push(Span {
            name,
            start: self.ns(start),
            end: self.ns(end).max(self.ns(start)),
            parent,
            request,
        });
        Some(self.spans.len() - 1)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ns) of every span named `name`, in recording order.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ns)
            .collect()
    }

    /// Self time (ns) of span `idx`: its duration minus what its direct
    /// children cover.
    pub fn self_time(&self, idx: usize) -> u64 {
        let children: Vec<Interval> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(idx))
            .map(|s| (s.start, s.end))
            .collect();
        stats::self_time((self.spans[idx].start, self.spans[idx].end), &children)
    }

    /// Share of the time inside spans named `root` that none of their
    /// children covers: time the benchmark spent between layer calls.
    pub fn unattributed_frac(&self, root: &str) -> f64 {
        let (mut own, mut total) = (0u64, 0u64);
        for (i, s) in self
            .spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == root)
        {
            own += self.self_time(i);
            total += s.ns();
        }
        if total == 0 {
            0.0
        } else {
            own as f64 / total as f64
        }
    }

    /// One line per span name: count, total and self milliseconds.
    pub fn summary(&self) -> String {
        let mut names: Vec<&'static str> = self.spans.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        let mut out = String::new();
        for name in names {
            let (mut n, mut total, mut own) = (0usize, 0u64, 0u64);
            for (i, s) in self
                .spans
                .iter()
                .enumerate()
                .filter(|(_, s)| s.name == name)
            {
                n += 1;
                total += s.ns();
                own += self.self_time(i);
            }
            out.push_str(&format!(
                "span {name:<24} n={n:<6} total_ms={:<12.3} self_ms={:.3}\n",
                total as f64 / 1e6,
                own as f64 / 1e6
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_link_to_their_parent() {
        let mut t = Tracer::new(Instant::now(), true);
        t.begin("round", Some(1));
        t.time("a", Some(1), || std::hint::black_box(0));
        t.time("b", Some(1), || std::hint::black_box(1));
        t.end();
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(
            (s[0].parent, s[1].parent, s[2].parent),
            (None, Some(0), Some(0))
        );
        assert!(s.iter().all(|s| s.end >= s.start && s.request == Some(1)));
        assert!(t.self_time(0) <= s[0].ns());
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(Instant::now(), false);
        t.begin("round", None);
        assert_eq!(t.time("a", None, || 5), 5);
        t.end();
        assert!(t
            .record("r", Instant::now(), Instant::now(), None, None)
            .is_none());
        assert!(t.spans().is_empty());
    }
}
