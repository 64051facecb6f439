//! In-memory spans around the benchmark's calls into each layer.
//!
//! This change measures layers from outside: a span wraps one call into a
//! crate's public function. Spans are kept in memory and written out when
//! the run ends; end-to-end metrics are measured with tracing off.

use std::io::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

/// One timed call. Times are microseconds since the tracer was created.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `<layer>.<call>`, the layer being the crate name.
    pub name: &'static str,
    /// Start of the call.
    pub start_us: f64,
    /// End of the call.
    pub end_us: f64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// The iteration all spans of one program run share.
    pub iteration: usize,
    /// Work done inside the span, as counts (rows, bytes).
    pub counts: Vec<(&'static str, u64)>,
}

impl Span {
    /// The span's duration in microseconds.
    pub fn duration_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// Records spans when enabled; always hands back the measured duration,
/// so the same code path serves the untraced and the traced run.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    iteration: usize,
}

impl Tracer {
    /// A tracer; a disabled one only times.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            iteration: 0,
        }
    }

    /// Spans recorded from now on belong to iteration `i`.
    pub fn set_iteration(&mut self, i: usize) {
        self.iteration = i;
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Run `f`, timing it; when enabled, record it as a child of the
    /// innermost open span. Returns `f`'s result, its duration and the
    /// span's index.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> (T, Duration, Option<usize>) {
        if !self.enabled {
            let started = Instant::now();
            let out = f(self);
            return (out, started.elapsed(), None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_us: 0.0,
            end_us: 0.0,
            parent: self.open.last().copied(),
            iteration: self.iteration,
            counts: Vec::new(),
        });
        self.open.push(id);
        let started = Instant::now();
        let out = f(self);
        let elapsed = started.elapsed();
        self.open.pop();
        let start_us = (started - self.origin).as_secs_f64() * 1e6;
        self.spans[id].start_us = start_us;
        self.spans[id].end_us = start_us + elapsed.as_secs_f64() * 1e6;
        (out, elapsed, Some(id))
    }

    /// Attach a count to a recorded span (no-op for an untraced call).
    pub fn annotate(&mut self, span: Option<usize>, key: &'static str, value: u64) {
        if let Some(id) = span {
            self.spans[id].counts.push((key, value));
        }
    }

    /// Record the spans `f` opens as children of the already closed span
    /// `parent`. Used for replays: the operators of a finished
    /// `interp.run` are re-executed one by one afterwards, and their
    /// spans explain the run they replay.
    pub fn with_parent<T>(&mut self, parent: Option<usize>, f: impl FnOnce(&mut Tracer) -> T) -> T {
        match parent {
            Some(id) if self.enabled => {
                self.open.push(id);
                let out = f(self);
                self.open.pop();
                out
            }
            _ => f(self),
        }
    }

    /// Write the spans, with their self times, as a JSON array.
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let self_us = self_times_us(&self.spans);
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "[")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let counts: Vec<String> = s
                .counts
                .iter()
                .map(|(k, v)| format!("\"{k}\": {v}"))
                .collect();
            let comma = if i + 1 < self.spans.len() { "," } else { "" };
            writeln!(
                out,
                "  {{\"id\": {i}, \"name\": \"{}\", \"start_us\": {:.3}, \"end_us\": {:.3}, \
                 \"self_us\": {:.3}, \"parent\": {parent}, \"iteration\": {}, \
                 \"counts\": {{{}}}}}{comma}",
                s.name,
                s.start_us,
                s.end_us,
                self_us[i],
                s.iteration,
                counts.join(", ")
            )?;
        }
        writeln!(out, "]")?;
        out.flush()
    }
}

/// Each span's self time: its duration minus its direct children's.
/// A replayed child (see [`Tracer::with_parent`]) is attributed by its
/// duration, and children that together outlast their parent — replays
/// of a run the engine parallelised — leave it a self time of zero.
pub fn self_times_us(spans: &[Span]) -> Vec<f64> {
    let mut own: Vec<f64> = spans.iter().map(Span::duration_us).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] -= s.duration_us();
        }
    }
    own.into_iter().map(|v| v.max(0.0)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_us: f64, end_us: f64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_us,
            end_us,
            parent,
            iteration: 0,
            counts: Vec::new(),
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let spans = vec![
            span("iteration", 0.0, 100.0, None),
            span("rewrite.analyze", 0.0, 10.0, Some(0)),
            span("interp.run", 10.0, 90.0, Some(0)),
            // Grandchildren count against their parent only.
            span("columnar.scan", 200.0, 250.0, Some(2)),
            span("columnar.sort", 250.0, 260.0, Some(2)),
        ];
        assert_eq!(self_times_us(&spans), vec![10.0, 10.0, 20.0, 50.0, 10.0]);
    }

    #[test]
    fn children_outlasting_the_parent_leave_zero() {
        let spans = vec![
            span("interp.run", 0.0, 30.0, None),
            span("columnar.scan", 40.0, 90.0, Some(0)),
        ];
        assert_eq!(self_times_us(&spans), vec![0.0, 50.0]);
    }

    #[test]
    fn tracer_nests_and_replays_under_a_closed_span() {
        let mut t = Tracer::new(true);
        t.set_iteration(3);
        let (_, _, run) = t.time("outer", |t| {
            t.time("inner", |_| ());
        });
        t.with_parent(run, |t| {
            t.time("replay", |_| ());
        });
        let names: Vec<_> = t.spans().iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            names,
            vec![("outer", None), ("inner", Some(0)), ("replay", Some(0))]
        );
        assert!(t
            .spans()
            .iter()
            .all(|s| s.iteration == 3 && s.end_us >= s.start_us));
    }

    #[test]
    fn disabled_tracer_times_but_records_nothing() {
        let mut t = Tracer::new(false);
        let (v, d, id) = t.time("x", |_| 7);
        assert_eq!((v, id), (7, None));
        assert!(d.as_nanos() > 0 || d.is_zero());
        assert!(t.spans().is_empty());
    }
}
