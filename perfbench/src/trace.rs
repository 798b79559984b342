//! In-memory span tracing around the benchmark's calls into each layer.
//!
//! A disabled [`Tracer`] runs the wrapped call and records nothing, so the
//! untraced phase pays one branch per call. An enabled one keeps every
//! span and count in memory; [`Tracer::write_jsonl`] writes them out once,
//! after the measured phases.

use std::io::Write;
use std::time::Instant;

/// Identifier of a recorded span (its index in the span list).
pub type SpanId = usize;

/// One timed call into a layer.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer boundary, e.g. `core.sat_check.safety`.
    pub name: &'static str,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// The verdict or simulated run this span serves.
    pub request: u64,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Wall time of the span in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A count recorded at a span's boundary (messages sent, SAT decisions…).
#[derive(Clone, Debug)]
pub struct Count {
    /// The span whose call produced the count.
    pub span: SpanId,
    /// What was counted, e.g. `sat.decisions`.
    pub name: &'static str,
    /// The value.
    pub value: u64,
}

/// Span and count recorder.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    counts: Vec<Count>,
}

impl Tracer {
    /// A tracer that records only when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            counts: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f` inside a span named `name`. `f` receives the new span's id
    /// (so it can open child spans and record counts) when tracing is on.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
        f: impl FnOnce(&mut Tracer, Option<SpanId>) -> R,
    ) -> R {
        if !self.enabled {
            return f(self, None);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            request,
            start_ns,
            end_ns: start_ns,
        });
        let out = f(self, Some(id));
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Records `value` for `name` at `span`; a no-op when tracing is off.
    pub fn count(&mut self, span: Option<SpanId>, name: &'static str, value: u64) {
        if let Some(span) = span {
            self.counts.push(Count { span, name, value });
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Durations in nanoseconds of the spans named `name`.
    pub fn durations_ns(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_ns)
            .collect()
    }

    /// Mean duration in milliseconds of the spans named `name`, 0 if none.
    pub fn mean_ms(&self, name: &str) -> f64 {
        let d = self.durations_ns(name);
        if d.is_empty() {
            0.0
        } else {
            d.iter().sum::<u64>() as f64 / d.len() as f64 / 1e6
        }
    }

    /// Sum of the counts named `name`.
    pub fn count_total(&self, name: &str) -> u64 {
        self.counts
            .iter()
            .filter(|c| c.name == name)
            .map(|c| c.value)
            .sum()
    }

    /// Writes every span, then every count, one JSON object per line.
    pub fn write_jsonl(&self, w: &mut impl Write) -> std::io::Result<()> {
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                r#"{{"span":{id},"name":"{}","parent":{parent},"request":{},"start_ns":{},"end_ns":{}}}"#,
                s.name, s.request, s.start_ns, s.end_ns
            )?;
        }
        for c in &self.counts {
            writeln!(
                w,
                r#"{{"count":"{}","span":{},"value":{}}}"#,
                c.name, c.span, c.value
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing_but_runs_the_call() {
        let mut t = Tracer::new(false);
        let v = t.span("outer", None, 0, |t, id| {
            t.count(id, "n", 3);
            7
        });
        assert_eq!(v, 7);
        assert!(t.spans.is_empty());
        assert_eq!(t.count_total("n"), 0);
    }

    #[test]
    fn spans_nest_under_their_parent_and_keep_counts() {
        let mut t = Tracer::new(true);
        t.span("outer", None, 5, |t, outer| {
            t.span("inner", outer, 5, |t, inner| t.count(inner, "n", 2));
            t.count(outer, "n", 1);
        });
        let spans = &t.spans;
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].request, 5);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert_eq!(t.count_total("n"), 3);
        let mut out = Vec::new();
        t.write_jsonl(&mut out).unwrap();
        assert_eq!(String::from_utf8(out).unwrap().lines().count(), 4);
    }
}
