//! Simulated end-to-end metrics, derived one way for every driver from
//! per-request outcomes.
//!
//! The four driver reports expose different accessors (`ClusterReport`
//! has no TTFT percentiles, only `ElasticReport` and `DisaggReport` have
//! `sla_attainment`), so nothing here reads them: TTFT, MTPOT, attainment
//! and goodput come from [`RequestOutcome`] timings, and the report's own
//! goodput is only used to cross-check the derivation.

use pf_metrics::SlaSpec;

use crate::metric::pct;
use crate::workloads::RunResult;

/// Simulated serving outcome of one run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimMetrics {
    /// Output tokens of SLA-meeting requests per simulated second.
    pub goodput_tok_per_s: f64,
    /// SLA-meeting requests over submitted requests.
    pub sla_attainment: f64,
    /// Completed requests over submitted requests.
    pub completed_frac: f64,
    /// TTFT median and p99, in simulated ms.
    pub ttft_p50_ms: f64,
    /// See `ttft_p50_ms`.
    pub ttft_p99_ms: f64,
    /// Per-request max inter-token gap, median and p99, in simulated ms.
    pub mtpot_p50_ms: f64,
    /// See `mtpot_p50_ms`.
    pub mtpot_p99_ms: f64,
    /// Samples behind the TTFT and MTPOT percentiles.
    pub latency_samples: usize,
    /// GPU-seconds provisioned.
    pub gpu_s: f64,
}

impl SimMetrics {
    /// Derives the metrics from a run's outcomes.
    ///
    /// # Errors
    ///
    /// Returns a description when the derived goodput disagrees with the
    /// driver report's own figure.
    pub fn derive(run: &RunResult) -> Result<SimMetrics, String> {
        let sla = SlaSpec::chat_7b();
        let mut ttft_ms = Vec::with_capacity(run.outcomes.len());
        let mut mtpot_ms = Vec::with_capacity(run.outcomes.len());
        let mut sla_ok = 0usize;
        let mut good_tokens = 0u64;
        for outcome in &run.outcomes {
            if let Some(ttft) = outcome.timing.ttft() {
                ttft_ms.push(ttft.as_millis_f64());
                mtpot_ms.push(outcome.timing.mtpot().as_millis_f64());
            }
            if sla.evaluate(&outcome.timing).is_satisfied() {
                sla_ok += 1;
                good_tokens += u64::from(outcome.output_len);
            }
        }
        let secs = run.makespan.as_secs_f64();
        let goodput = if secs > 0.0 {
            good_tokens as f64 / secs
        } else {
            0.0
        };
        let tolerance = 1e-9 * goodput.abs().max(1.0);
        if (goodput - run.report_goodput_tok_per_s).abs() > tolerance {
            return Err(format!(
                "goodput derived from outcomes ({goodput}) differs from the report's ({})",
                run.report_goodput_tok_per_s
            ));
        }
        let submitted = run.submitted.max(1) as f64;
        Ok(SimMetrics {
            goodput_tok_per_s: goodput,
            sla_attainment: sla_ok as f64 / submitted,
            completed_frac: run.outcomes.len() as f64 / submitted,
            ttft_p50_ms: pct(&ttft_ms, 50.0),
            ttft_p99_ms: pct(&ttft_ms, 99.0),
            mtpot_p50_ms: pct(&mtpot_ms, 50.0),
            mtpot_p99_ms: pct(&mtpot_ms, 99.0),
            latency_samples: ttft_ms.len(),
            gpu_s: run.gpu_s,
        })
    }
}
