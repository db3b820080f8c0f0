//! In-memory span recorder for the traced run.
//!
//! Spans are recorded only around calls the benchmark makes into the
//! workspace crates (setup steps, virtual-time windows of a sliced run,
//! layer replays) and around the workloads' own control requests, which
//! are timed in virtual time. Nothing is written until the run ends.

use std::fmt::Write as _;
use std::time::Instant;

use crate::stats::{num, string};

/// Which clock a span's start and end are on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Host nanoseconds since the recorder was created.
    Host,
    /// Simulated nanoseconds since the scenario's time zero.
    Virtual,
}

#[derive(Debug, Clone)]
struct Span {
    name: String,
    clock: Clock,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

/// Collects spans for one benchmark process (`run_id`).
pub struct Tracer {
    run_id: String,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(run_id: String) -> Tracer {
        Tracer {
            run_id,
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn host_ns(&self) -> u64 {
        u64::try_from(self.t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a host-clock span nested in the innermost open one.
    pub fn begin(&mut self, name: &str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            clock: Clock::Host,
            start_ns: self.host_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        id
    }

    /// Closes span `id` (and any spans left open inside it); returns its
    /// duration in nanoseconds.
    pub fn end(&mut self, id: usize) -> u64 {
        let now = self.host_ns();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = now;
            if top == id {
                break;
            }
        }
        now - self.spans[id].start_ns
    }

    /// Runs `f` inside a host-clock span.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    /// Records an already-finished span on the virtual clock, under the
    /// innermost open host span.
    pub fn virtual_span(&mut self, name: &str, start_ns: u64, end_ns: u64) {
        self.spans.push(Span {
            name: name.to_string(),
            clock: Clock::Virtual,
            start_ns,
            end_ns,
            parent: self.open.last().copied(),
        });
    }

    /// Number of spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Durations of the host-clock spans named `name`, in nanoseconds.
    pub fn durations_ns<'a>(&'a self, name: &'a str) -> impl Iterator<Item = u64> + 'a {
        self.spans
            .iter()
            .filter(move |s| s.clock == Clock::Host && s.name == name)
            .map(|s| s.end_ns - s.start_ns)
    }

    /// One JSON object per line: id, run, name, clock, start, end, parent.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let clock = match s.clock {
                Clock::Host => "host",
                Clock::Virtual => "virtual",
            };
            let _ = writeln!(
                out,
                "{{\"id\": {i}, \"run\": {}, \"name\": {}, \"clock\": \"{clock}\", \
                 \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}}}",
                string(&self.run_id),
                string(&s.name),
                num(s.start_ns as f64),
                num(s.end_ns as f64),
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_under_the_open_parent() {
        let mut t = Tracer::new("t".into());
        let outer = t.begin("outer");
        let inner = t.begin("inner");
        t.virtual_span("op", 5, 9);
        t.end(inner);
        t.end(outer);
        let text = t.to_jsonl();
        assert_eq!(text.lines().count(), 3);
        assert!(text.lines().nth(1).unwrap().contains("\"parent\": 0"));
        assert!(text.lines().nth(2).unwrap().contains("\"parent\": 1"));
        assert!(text.contains("\"clock\": \"virtual\", \"start_ns\": 5, \"end_ns\": 9"));
    }
}
