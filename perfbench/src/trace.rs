//! An in-memory span recorder for the traced run.
//!
//! Spans are recorded around the benchmark's own calls into each layer's
//! public functions: name, start, end, parent span, and the job they
//! belong to. They stay in memory until the run ends and are then written
//! out as one tab-separated file.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// The job id of spans that belong to no job (set-up, probes).
pub const NO_JOB: u64 = u64::MAX;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// A sub-classification within `name` (the `RunSpec` shape of an
    /// `engine.run_trials` span), empty when none.
    pub tag: &'static str,
    pub job: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans when enabled; when disabled every call is a no-op, so the
/// same set-up code serves the untraced and the traced run.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Totals of one span name (or name and tag) over a run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Totals {
    pub count: u64,
    pub self_ns: u64,
    pub total_ns: u64,
}

impl Totals {
    /// Mean self time per span, in milliseconds.
    pub fn self_ms_each(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.self_ns as f64 / 1e6 / self.count as f64
        }
    }
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Opens a span as a child of the innermost open span.
    pub fn enter(&mut self, name: &'static str, tag: &'static str, job: u64) -> usize {
        if !self.enabled {
            return usize::MAX;
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            tag,
            job,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn exit(&mut self, id: usize) {
        if !self.enabled {
            return;
        }
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span with no children.
    pub fn leaf<T>(
        &mut self,
        name: &'static str,
        tag: &'static str,
        job: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.enter(name, tag, job);
        let out = f();
        self.exit(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Each span's self time: its duration minus the time its direct
    /// children cover.
    pub fn self_times(&self) -> Vec<u64> {
        let mut child = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child[p] += span.duration_ns();
            }
        }
        self.spans
            .iter()
            .zip(child)
            .map(|(s, c)| s.duration_ns().saturating_sub(c))
            .collect()
    }

    /// Totals per span name, over every span (`tag = None`) or over the
    /// spans carrying one tag.
    pub fn totals(&self, name: &str, tag: Option<&str>) -> Totals {
        let mut out = Totals::default();
        for (span, self_ns) in self.spans.iter().zip(self.self_times()) {
            if span.name == name && tag.is_none_or(|t| t == span.tag) {
                out.count += 1;
                out.self_ns += self_ns;
                out.total_ns += span.duration_ns();
            }
        }
        out
    }

    /// Writes every span as a tab-separated line, after a header of
    /// `key=value` run metadata lines.
    pub fn write(&self, path: &Path, meta: &BTreeMap<&str, String>) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        for (k, v) in meta {
            writeln!(out, "# {k}={v}")?;
        }
        writeln!(out, "id\tparent\tjob\tname\ttag\tstart_ns\tend_ns\tself_ns")?;
        for (id, (span, self_ns)) in self.spans.iter().zip(self.self_times()).enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "-".to_string(), |p| p.to_string());
            let job = if span.job == NO_JOB {
                "-".to_string()
            } else {
                span.job.to_string()
            };
            writeln!(
                out,
                "{id}\t{parent}\t{job}\t{}\t{}\t{}\t{}\t{self_ns}",
                span.name, span.tag, span.start_ns, span.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            tag: "",
            job: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut t = Tracer::new(true);
        // job [0, 100) has children prep [10, 30) and trials [30, 90);
        // trials has a child [40, 50) that must not be charged to job.
        t.spans = vec![
            span("job", None, 0, 100),
            span("prep", Some(0), 10, 30),
            span("trials", Some(0), 30, 90),
            span("inner", Some(2), 40, 50),
        ];
        assert_eq!(t.self_times(), vec![20, 20, 50, 10]);
        let job = t.totals("job", None);
        assert_eq!((job.count, job.self_ns, job.total_ns), (1, 20, 100));
    }

    #[test]
    fn recorded_spans_nest_and_close() {
        let mut t = Tracer::new(true);
        let job = t.enter("job", "", 7);
        t.leaf("prep", "", 7, || std::hint::black_box(1 + 1));
        t.exit(job);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert!(t.spans()[0].end_ns >= t.spans()[1].end_ns);
        let selfs = t.self_times();
        assert_eq!(selfs[0] + selfs[1], t.spans()[0].duration_ns());
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.enter("job", "", 0);
        t.exit(id);
        assert!(t.spans().is_empty());
    }
}
