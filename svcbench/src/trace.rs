//! In-memory spans recorded by the benchmark's own code around each public
//! call it makes into a layer. Nothing here reaches inside the program.
//!
//! Each thread records into its own [`Spans`] (a [`Spans::child`] of the
//! run's), which is merged back with [`Spans::absorb`] when the thread
//! ends; the run's spans are written out once it is over. A disabled
//! recorder records nothing and reads no clock.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One span: a named interval, the span that caused it, and the query it
/// belongs to.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Layer call, e.g. `proto.encode` or `service.submit.miss`.
    pub name: &'static str,
    /// Start, in nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder's epoch.
    pub end_ns: u64,
    /// Index of the parent span, if any.
    pub parent: Option<u32>,
    /// The query (or submission) id the span belongs to.
    pub qid: u64,
}

impl Span {
    /// The span's duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle of an open span.
#[derive(Clone, Copy, Debug)]
pub struct SpanId(Option<u32>);

impl SpanId {
    /// The "no parent" handle.
    pub const ROOT: SpanId = SpanId(None);
}

/// A span recorder.
pub struct Spans {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Spans {
    /// A recorder that records only when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Self {
            epoch: Instant::now(),
            enabled,
            spans: Vec::new(),
        }
    }

    /// An empty recorder sharing this one's epoch and switch, for another
    /// thread.
    pub fn child(&self) -> Self {
        Self {
            epoch: self.epoch,
            enabled: self.enabled,
            spans: Vec::new(),
        }
    }

    /// Merges a child's spans (parent indices are rebased).
    pub fn absorb(&mut self, child: Spans) {
        let base = self.spans.len() as u32;
        self.spans.extend(child.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Whether this recorder records.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Opens a span.
    pub fn begin(&mut self, name: &'static str, parent: SpanId, qid: u64) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let now = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: parent.0,
            qid,
        });
        SpanId(Some(self.spans.len() as u32 - 1))
    }

    /// Closes a span opened by [`Spans::begin`].
    pub fn end(&mut self, id: SpanId) {
        if let Some(i) = id.0 {
            self.spans[i as usize].end_ns = self.epoch.elapsed().as_nanos() as u64;
        }
    }

    /// Renames a span (used once its outcome, e.g. hit or miss, is known).
    pub fn rename(&mut self, id: SpanId, name: &'static str) {
        if let Some(i) = id.0 {
            self.spans[i as usize].name = name;
        }
    }

    /// Runs `f` inside a span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        qid: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.begin(name, parent, qid);
        let out = f();
        self.end(id);
        out
    }

    /// Durations (ns) of every span with this name, in record order.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_ns)
            .collect()
    }

    /// Writes every span as one tab-separated line:
    /// `index name start_ns end_ns parent qid` (`parent` is `-` for a
    /// root).
    ///
    /// # Errors
    /// Propagates I/O errors.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "index\tname\tstart_ns\tend_ns\tparent\tqid")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{i}\t{}\t{}\t{}\t{parent}\t{}",
                s.name, s.start_ns, s.end_ns, s.qid
            )?;
        }
        out.flush()
    }
}
