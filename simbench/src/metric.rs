//! Named metrics and the benchmark's output: a readable table, then one
//! JSON result line.

use std::fmt::Write as _;

/// One reported figure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Samples behind the value (runs, requests, calls …).
    pub samples: usize,
}

impl Metric {
    /// Creates a metric.
    pub fn new(name: &'static str, value: f64, unit: &'static str, samples: usize) -> Self {
        Metric {
            name,
            value,
            unit,
            samples,
        }
    }
}

/// The `p`-th percentile of `values`, 0 when there are none (a layer that
/// did not run on the workload).
pub fn pct(values: &[f64], p: f64) -> f64 {
    pf_metrics::percentile(values, p).unwrap_or(0.0)
}

/// Prints one aligned line per metric: name, value, unit, sample count.
pub fn print_table(metrics: &[Metric]) {
    for m in metrics {
        println!(
            "metric {:<26} {:>18.6} {:<6} n={}",
            m.name, m.value, m.unit, m.samples
        );
    }
}

/// The final result line. Values are written with every digit `f64`
/// formatting gives; a non-finite value must have been rejected by the
/// caller's checks (JSON cannot carry it), so it is written as `0`.
pub fn result_json(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        write!(
            out,
            "{}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            if i == 0 { "" } else { ", " },
            m.name,
            value,
            m.unit
        )
        .expect("writing to a String never fails");
    }
    out.push_str("}}");
    out
}
