//! Host-time spans recorded around the benchmark's calls into each layer.
//!
//! A [`Tracer`] keeps every span in memory (name, start, end, parent, run
//! id and a work count) and writes them out once, when the run ends. A
//! layer's *self time* is its span's duration minus the time its child
//! spans cover. A disabled tracer records nothing and only runs the
//! closure, so untraced runs pay one branch per call.

use std::fmt::Write as _;
use std::time::Instant;

use crate::stats::median;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer call, e.g. `sim.run_warmed`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Identifier shared by all spans of one benchmark run.
    pub run: u64,
    /// Units of work the call performed (references, lanes × references,
    /// operations), for per-unit rates.
    pub count: u64,
    /// Nanoseconds covered by direct children.
    child_ns: u64,
}

impl Span {
    /// Wall duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// Duration minus the time covered by direct child spans.
    pub fn self_ns(&self) -> u64 {
        self.duration_ns().saturating_sub(self.child_ns)
    }
}

/// In-memory span recorder (see the module docs).
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    run: u64,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records when `on`, tagging every span with `run`.
    pub fn new(on: bool, run: u64) -> Self {
        Tracer {
            on,
            run,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Runs `f` inside a span named `name` that did `count` units of work.
    pub fn span<T>(&mut self, name: &'static str, count: u64, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            run: self.run,
            count,
            child_ns: 0,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        let end = self.now_ns();
        let span = &mut self.spans[idx];
        span.end_ns = end;
        let duration = span.duration_ns();
        if let Some(parent) = span.parent {
            self.spans[parent].child_ns += duration;
        }
        out
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans named `name`, in start order.
    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Median over the spans named `name` of self time per unit of work,
    /// in nanoseconds (0 when no such span was recorded).
    pub fn ns_per_unit(&self, name: &str) -> f64 {
        let rates: Vec<f64> = self
            .named(name)
            .map(|s| s.self_ns() as f64 / s.count.max(1) as f64)
            .collect();
        if rates.is_empty() {
            0.0
        } else {
            median(&rates)
        }
    }

    /// Total self time of the spans named `name`, in nanoseconds.
    pub fn total_self_ns(&self, name: &str) -> u64 {
        self.named(name).map(Span::self_ns).sum()
    }

    /// Total work count of the spans named `name`.
    pub fn total_count(&self, name: &str) -> u64 {
        self.named(name).map(|s| s.count).sum()
    }

    /// Median self time of the spans named `name`, in seconds (0 when no
    /// such span was recorded).
    pub fn self_s(&self, name: &str) -> f64 {
        let secs: Vec<f64> = self.named(name).map(|s| s.self_ns() as f64 / 1e9).collect();
        if secs.is_empty() {
            0.0
        } else {
            median(&secs)
        }
    }

    /// The spans as a JSON array, one object per span.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "  {{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"self_ns\": {}, \"parent\": {parent}, \"run\": {}, \"count\": {}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                s.self_ns(),
                s.run,
                s.count
            );
            out.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push(']');
        out
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn busy(ms: u64) {
        let t0 = Instant::now();
        while t0.elapsed().as_millis() < u128::from(ms) {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true, 7);
        t.span("outer", 1, |t| {
            busy(2);
            t.span("inner", 4, |_| busy(5));
        });
        let outer = t.named("outer").next().expect("outer recorded").clone();
        let inner = t.named("inner").next().expect("inner recorded").clone();
        assert_eq!(inner.parent, Some(0));
        assert_eq!(outer.parent, None);
        assert_eq!((outer.run, inner.run), (7, 7));
        assert_eq!(outer.self_ns() + inner.duration_ns(), outer.duration_ns());
        assert!(inner.duration_ns() >= 5_000_000);
        assert!(t.ns_per_unit("inner") >= 1_250_000.0);
        assert!(t.to_json().contains("\"name\": \"inner\""));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, 0);
        let v = t.span("x", 1, |t| t.span("y", 1, |_| 3));
        assert_eq!(v, 3);
        assert!(t.spans().is_empty());
        assert_eq!(t.ns_per_unit("x"), 0.0);
        assert_eq!(t.self_s("x"), 0.0);
    }
}
