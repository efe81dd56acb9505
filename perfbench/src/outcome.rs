//! What one measured run hands back to `main`: operation tallies, failed
//! checks, and the metrics by name.

use crate::stats;
use std::collections::BTreeMap;

#[derive(Debug, Clone)]
pub struct Metric {
    pub value: f64,
    pub unit: &'static str,
    /// How the value was formed, for the human summary (sample count,
    /// tail percentile, …).
    pub note: String,
}

#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Every failed check or operation, with its reason.
    pub failures: Vec<String>,
    pub metrics: BTreeMap<String, Metric>,
    /// Per-layer samples by metric name, reduced to medians by `main`.
    pub layers: BTreeMap<String, Vec<f64>>,
    /// Every recorded span as JSON, when tracing.
    pub trace_json: Option<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str, note: impl Into<String>) {
        self.metrics.insert(
            name.to_string(),
            Metric {
                value,
                unit,
                note: note.into(),
            },
        );
    }

    pub fn sample(&mut self, name: &str, value: f64) {
        self.layers.entry(name.to_string()).or_default().push(value);
    }

    /// One operation that either succeeded or failed with a reason.
    pub fn op<T>(&mut self, what: &str, r: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                self.failures.push(format!("{what}: {e}"));
                None
            }
        }
    }

    /// One output check; a failed check counts as a failed operation.
    pub fn check(&mut self, what: &str, ok: bool, detail: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures
                .push(format!("check {what} failed: {}", detail()));
        }
    }

    /// Client retries and resumes recorded by the transport: each is an
    /// attempt that failed and was made again.
    pub fn transport_retries(&mut self, retries: u64) {
        self.attempted += retries;
        self.failed += retries;
        if retries > 0 {
            self.failures
                .push(format!("{retries} client retr(y/ies) or resume(s)"));
        }
    }

    pub fn failed_share(&self) -> f64 {
        stats::failed_share(self.failed, self.attempted)
    }

    /// Median of `samples`, or 0 for a layer that did no work.
    pub fn median_or_idle(&mut self, name: &str, samples: &[f64], unit: &'static str) {
        match stats::median(samples) {
            Some(m) => {
                let spread = stats::spread(samples)
                    .map_or(String::new(), |s| format!(", IQR/median {s:.3}"));
                self.set(
                    name,
                    m,
                    unit,
                    format!("median of {}{spread}", samples.len()),
                )
            }
            None => self.set(name, 0.0, unit, "idle on this workload"),
        }
    }

    /// Median and tail of a latency distribution, as `<stem>_p50_<u>` and
    /// `<stem>_tail_<u>`.
    pub fn latency(&mut self, stem: &str, unit: &'static str, samples: &[f64]) {
        if let (Some(m), Some(t)) = (stats::median(samples), stats::tail(samples)) {
            self.set(
                &format!("{stem}_p50_{unit}"),
                m,
                unit,
                format!("n={}", samples.len()),
            );
            self.set(
                &format!("{stem}_tail_{unit}"),
                t.value,
                unit,
                format!("p{} of n={}", t.pct, t.n),
            );
        }
    }
}
