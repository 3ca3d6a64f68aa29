//! Spans recorded by the benchmark around its own calls into each layer.
//!
//! Spans stay in memory while the workload runs and are written out as
//! JSON lines when it ends. Every span of one run carries the same run
//! id; `parent` is the id of the enclosing span (0 at top level), so a
//! layer's self time is its span minus the spans nested in it.

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
struct Span {
    id: u32,
    parent: u32,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    /// Calls or epochs the span covers.
    items: u64,
}

impl Span {
    fn ns(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64
    }
}

#[derive(Debug)]
pub struct Tracer {
    traced_run: bool,
    on: bool,
    run_id: u64,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn new(traced_run: bool, run_id: u64) -> Self {
        Tracer {
            traced_run,
            on: traced_run,
            run_id,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Turns recording on or off; never on in an untraced run.
    pub fn set_on(&mut self, on: bool) {
        self.on = on && self.traced_run;
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` covering `items` calls.
    pub fn span<T>(&mut self, name: &'static str, items: u64, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len() as u32 + 1;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied().unwrap_or(0),
            name,
            start_ns,
            end_ns: start_ns,
            items,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        let end_ns = self.now_ns();
        self.spans[id as usize - 1].end_ns = end_ns;
        out
    }

    fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Total duration of all spans named `name`, ns per covered item.
    pub fn ns_per_item(&self, name: &str) -> f64 {
        let items: u64 = self.named(name).map(|s| s.items).sum();
        self.total_ns(name) / items as f64
    }

    /// Total duration of all spans named `name`, ns.
    pub fn total_ns(&self, name: &str) -> f64 {
        self.named(name).map(Span::ns).sum()
    }

    /// Durations of the spans named `name`, ms, ascending.
    pub fn sorted_ms(&self, name: &str) -> Vec<f64> {
        let mut ms: Vec<f64> = self.named(name).map(|s| s.ns() / 1e6).collect();
        ms.sort_by(f64::total_cmp);
        ms
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut out = BufWriter::new(File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"run\":\"{:016x}\",\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"items\":{}}}",
                self.run_id, s.id, s.parent, s.name, s.start_ns, s.end_ns, s.items
            )?;
        }
        out.flush()
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }
}
