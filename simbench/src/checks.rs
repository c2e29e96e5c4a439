//! Output checks: conservation, one terminal event per request, phase
//! partitions, and bit-identical traced/untraced reports.

use pf_obs::{RequestSpans, SpanOutcome, TraceEvent};

use crate::workloads::RunResult;

/// Every submitted request is completed, timed out or unserved.
pub fn conservation(run: &RunResult) -> Result<(), String> {
    let accounted = run.outcomes.len() + run.timed_out + run.unserved;
    if accounted == run.submitted {
        Ok(())
    } else {
        Err(format!(
            "completed {} + timed out {} + unserved {} = {accounted} != submitted {}",
            run.outcomes.len(),
            run.timed_out,
            run.unserved,
            run.submitted
        ))
    }
}

/// Checks a traced run against the report fingerprint of the untraced run
/// of the same inputs and against its own event stream.
pub fn traced_run(
    untraced_fingerprint: u64,
    traced: &RunResult,
    events: &[TraceEvent],
    spans: &[RequestSpans],
) -> Vec<String> {
    let mut errors = Vec::new();
    if let Err(e) = conservation(traced) {
        errors.push(e);
    }
    if untraced_fingerprint != traced.fingerprint {
        errors.push(format!(
            "traced report {:016x} differs from untraced report {untraced_fingerprint:016x}",
            traced.fingerprint
        ));
    }
    let mut terminals = vec![0u32; traced.submitted];
    let (mut finished, mut cancelled) = (0usize, 0usize);
    for ev in events {
        let request = match *ev {
            TraceEvent::Finished { request, .. } => {
                finished += 1;
                request
            }
            TraceEvent::TimedOut { request, .. } | TraceEvent::SlackDropped { request, .. } => {
                cancelled += 1;
                request
            }
            _ => continue,
        };
        match terminals.get_mut(request as usize) {
            Some(n) => *n += 1,
            None => errors.push(format!("terminal event for unknown request {request}")),
        }
    }
    let multiple = terminals.iter().filter(|&&n| n > 1).count();
    let exactly_one = terminals.iter().filter(|&&n| n == 1).count();
    if multiple > 0 {
        errors.push(format!(
            "{multiple} requests have more than one terminal event"
        ));
    }
    if exactly_one != traced.outcomes.len() + traced.timed_out {
        errors.push(format!(
            "{exactly_one} requests have one terminal event, expected completed {} + timed out {}",
            traced.outcomes.len(),
            traced.timed_out
        ));
    }
    if finished != traced.outcomes.len() || cancelled != traced.timed_out {
        errors.push(format!(
            "{finished} finished / {cancelled} cancelled events, report says {} / {}",
            traced.outcomes.len(),
            traced.timed_out
        ));
    }
    let broken = spans
        .iter()
        .filter(|s| !s.phases_partition_lifetime())
        .count();
    if broken > 0 {
        errors.push(format!(
            "{broken} requests' phases do not partition their lifetime"
        ));
    }
    let incomplete = spans
        .iter()
        .filter(|s| s.outcome == SpanOutcome::Incomplete)
        .count();
    if incomplete > traced.unserved {
        errors.push(format!(
            "{incomplete} request traces end in flight, report has {} unserved",
            traced.unserved
        ));
    }
    errors
}
