//! Metric collection, the correctness verdict, and the result line.

use std::fmt::Write;

use crate::stats::median;

/// Per-burst samples of one latency metric, split by whether the burst
/// ran with tracing on (only ever in the traced run).
#[derive(Debug, Default)]
pub struct Samples {
    untraced: Vec<f64>,
    traced: Vec<f64>,
}

impl Samples {
    pub fn push(&mut self, traced: bool, value: f64) {
        if traced {
            self.traced.push(value);
        } else {
            self.untraced.push(value);
        }
    }
}

/// Work done and seconds taken by one timed path over the run, split by
/// tracing like [`Samples`]; the rate is total work over total time.
#[derive(Debug, Default)]
pub struct Rate {
    work: [f64; 2],
    secs: [f64; 2],
}

impl Rate {
    pub fn add(&mut self, traced: bool, work: f64, secs: f64) {
        let i = usize::from(traced);
        self.work[i] += work;
        self.secs[i] += secs;
    }

    fn value(&self, traced: bool) -> f64 {
        let i = usize::from(traced);
        self.work[i] / self.secs[i]
    }
}

#[derive(Debug)]
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

#[derive(Debug)]
pub struct Report {
    traced_run: bool,
    e2e: Vec<Metric>,
    layers: Vec<Metric>,
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
}

impl Report {
    pub fn new(traced_run: bool) -> Self {
        Report {
            traced_run,
            e2e: Vec::new(),
            layers: Vec::new(),
            attempted: 0,
            failed: 0,
            notes: Vec::new(),
        }
    }

    pub fn e2e(&mut self, name: &str, value: f64, unit: &'static str) {
        self.e2e.push(Metric {
            name: name.to_owned(),
            value,
            unit,
        });
    }

    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str) {
        self.layers.push(Metric {
            name: name.to_owned(),
            value,
            unit,
        });
    }

    /// A throughput over the untraced cycles; the traced run also
    /// reports how much tracing lowered it, in percent.
    pub fn rate(&mut self, name: &str, rate: &Rate, unit: &'static str) {
        let untraced = rate.value(false);
        self.e2e(name, untraced, unit);
        if self.traced_run {
            let overhead = 100.0 * (untraced - rate.value(true)) / untraced;
            self.layer(&format!("trace.overhead_pct.{name}"), overhead, "%");
        }
    }

    /// A latency taken as the median of its untraced samples; the traced
    /// run also reports how much tracing raised it, in percent.
    pub fn latency(&mut self, name: &str, samples: &Samples) {
        let untraced = median(&samples.untraced);
        self.e2e(name, untraced, "ms");
        if self.traced_run {
            let overhead = 100.0 * (median(&samples.traced) - untraced) / untraced;
            self.layer(&format!("trace.overhead_pct.{name}"), overhead, "%");
        }
    }

    /// Adds operations attempted and failed, with a line for the log.
    pub fn attempt(&mut self, what: &str, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
        self.notes
            .push(format!("{what}: attempted {attempted}, failed {failed}"));
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Human-readable table of every metric and note, for stderr.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for m in self.e2e.iter().chain(&self.layers) {
            let _ = writeln!(out, "  {:<44} {:>18.6} {}", m.name, m.value, m.unit);
        }
        for note in &self.notes {
            let _ = writeln!(out, "  {note}");
        }
        out
    }

    /// The result line: end-to-end metrics, or per-layer metrics in the
    /// traced run.
    pub fn json(&self, correct: bool) -> String {
        let metrics = if self.traced_run {
            &self.layers
        } else {
            &self.e2e
        };
        let body: Vec<String> = metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() {
                    format!("{}", m.value)
                } else {
                    "null".to_owned()
                };
                format!(
                    "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            body.join(", ")
        )
    }
}

/// Timing-free correctness checks plus self-tests that must make a
/// check fire; the run is correct only if every check holds and every
/// self-test fired.
#[derive(Debug, Default)]
pub struct Verdict {
    checks: Vec<(bool, String)>,
}

impl Verdict {
    pub fn check(&mut self, ok: bool, what: String) {
        self.checks.push((ok, what));
    }

    /// Records a self-test: `fired` says the planted fault was caught.
    pub fn self_test(&mut self, fired: bool, what: &str) {
        self.checks.push((fired, format!("self-test: {what}")));
    }

    pub fn correct(&self) -> bool {
        self.checks.iter().all(|(ok, _)| *ok)
    }

    pub fn lines(&self) -> String {
        let mut out = String::new();
        for (ok, what) in &self.checks {
            let _ = writeln!(out, "  [{}] {what}", if *ok { "ok" } else { "FAIL" });
        }
        out
    }
}
