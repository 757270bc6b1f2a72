//! Spans around the calls the driver makes into each layer.
//!
//! Spans are kept in memory and written as JSON lines when the run ends;
//! nothing is written (or formatted) while a phase is being timed.
//! Instrumentation *inside* the crates is a later issue — every span
//! here brackets a public function called from this harness.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index (line number in the span file) of the span that caused
    /// this one.
    pub parent: Option<u32>,
    /// Spans of one request share this.
    pub request_id: u64,
}

pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since this recorder was created.
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Record one span; returns its index for use as a `parent`.
    pub fn push(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<u32>,
        request_id: u64,
    ) -> u32 {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            request_id,
        });
        (self.spans.len() - 1) as u32
    }

    /// Durations (ns) of all spans, grouped by span name.
    pub fn durations_by_name(&self) -> BTreeMap<&'static str, Vec<u64>> {
        let mut by_name: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
        for s in &self.spans {
            by_name
                .entry(s.name)
                .or_default()
                .push(s.end_ns - s.start_ns);
        }
        by_name
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Write the spans of the first `max_requests` distinct request ids
    /// as JSON lines (a full run would be hundreds of thousands of
    /// identical-looking lines; the metrics use all of them, the file
    /// keeps a readable sample). A parent always precedes its children,
    /// so `parent` is the zero-based line number of the parent span.
    pub fn write_jsonl(&self, path: &Path, max_requests: u64) -> std::io::Result<usize> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        // Request ids are dense per phase, so "first N" is an id bound.
        let mut line_of = vec![u32::MAX; self.spans.len()];
        let mut written = 0u32;
        for (i, s) in self.spans.iter().enumerate() {
            if s.request_id >= max_requests {
                continue;
            }
            let parent = match s.parent {
                Some(p) => line_of[p as usize].to_string(),
                None => "null".to_string(),
            };
            writeln!(
                out,
                "{{\"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"request_id\": {}}}",
                s.name, s.start_ns, s.end_ns, parent, s.request_id
            )?;
            line_of[i] = written;
            written += 1;
        }
        out.flush()?;
        Ok(written as usize)
    }
}
