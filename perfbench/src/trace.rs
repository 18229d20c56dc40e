//! In-memory spans recorded by the benchmark around calls into each
//! layer's public functions (the program itself is not instrumented).
//!
//! A span holds the called function's name, start and end (ns since
//! the tracer's origin), its parent span, and the id of the submit it
//! belongs to: every span of one submit shares that id across rungs.
//! Spans stay in memory until [`Tracer::write_csv`] at the end of a
//! run.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use crate::stats::nanos;

/// Id carried by spans that belong to no single submit (rung roots,
/// set-up, batched codec loops).
pub const NO_SUBMIT: u64 = u64::MAX;

/// One recorded call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// The public function called (e.g. `Driver::step_batch`).
    pub name: &'static str,
    /// The submit this call served, or [`NO_SUBMIT`].
    pub submit: u64,
    /// Index of the enclosing span in the same tracer.
    pub parent: Option<usize>,
    /// Start, ns since the tracer's origin.
    pub start_ns: u64,
    /// End, ns since the tracer's origin.
    pub end_ns: u64,
}

impl Span {
    /// The span's duration in nanoseconds.
    #[must_use]
    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A span buffer.
#[derive(Debug, Clone)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// An empty tracer whose timestamps count from `origin`.
    #[must_use]
    pub fn new(origin: Instant) -> Self {
        Self {
            origin,
            spans: Vec::new(),
        }
    }

    /// Opens a span and returns its index.
    pub fn open(&mut self, name: &'static str, submit: u64, parent: Option<usize>) -> usize {
        let now = nanos(self.origin.elapsed());
        self.spans.push(Span {
            name,
            submit,
            parent,
            start_ns: now,
            end_ns: now,
        });
        self.spans.len() - 1
    }

    /// Closes the span at `index`.
    pub fn close(&mut self, index: usize) {
        self.spans[index].end_ns = nanos(self.origin.elapsed());
    }

    /// Runs `f` inside a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        submit: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let index = self.open(name, submit, parent);
        let out = f();
        self.close(index);
        out
    }

    /// Every span recorded so far.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations of the direct children of `parent` named `name`,
    /// indexed by their submit id. `None` unless there is exactly one
    /// such span for each submit `0..submits`.
    #[must_use]
    pub fn per_submit(&self, parent: usize, name: &str, submits: usize) -> Option<Vec<u64>> {
        let mut ns = vec![None; submits];
        for span in self
            .spans
            .iter()
            .filter(|s| s.parent == Some(parent) && s.name == name)
        {
            let slot = ns.get_mut(usize::try_from(span.submit).ok()?)?;
            if slot.replace(span.ns()).is_some() {
                return None;
            }
        }
        ns.into_iter().collect()
    }

    /// Writes every span as CSV (`index,name,submit,parent,start_ns,end_ns`;
    /// empty submit/parent fields mean none).
    ///
    /// # Errors
    /// Returns any I/O error.
    pub fn write_csv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "index,name,submit,parent,start_ns,end_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let submit = if s.submit == NO_SUBMIT {
                String::new()
            } else {
                s.submit.to_string()
            };
            let parent = s.parent.map_or_else(String::new, |p| p.to_string());
            writeln!(
                out,
                "{i},{},{submit},{parent},{},{}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}
