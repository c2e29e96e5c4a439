//! Host-time spans the benchmark records around each call it makes into a
//! layer's public functions during the replays, kept in memory and
//! written as Chrome trace-event JSON when the run ends.

use std::fmt::Write as _;
use std::time::Instant;

/// Spans written per `layer.function` track at most (see
/// [`HostSpans::chrome_json`]).
pub const MAX_SPANS_PER_TRACK: usize = 20_000;

/// What simulated entity a host span served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Subject {
    /// A simulated request id.
    Request(u64),
    /// A simulated engine instance.
    Instance(u32),
}

/// One timed call.
#[derive(Debug, Clone, Copy)]
pub struct HostSpan {
    /// `layer.function` label.
    pub name: &'static str,
    /// Host start, in ns since the recorder was created.
    pub start_ns: u64,
    /// Host end, in ns since the recorder was created.
    pub end_ns: u64,
    /// The simulated request or instance the call served.
    pub subject: Subject,
    /// Simulated time of the replayed event, in µs.
    pub sim_us: u64,
}

impl HostSpan {
    /// Host duration in ns.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span recorder with its own host clock.
#[derive(Debug)]
pub struct HostSpans {
    origin: Instant,
    spans: Vec<HostSpan>,
}

impl HostSpans {
    /// Starts an empty recorder; span times count from now.
    pub fn new() -> Self {
        HostSpans {
            // pf-lint: allow(D2): host self-profiling of replayed layer calls; durations are reported, never fed back into a simulation
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Runs `f`, recording one span named `name` around it, and returns
    /// the span's host duration in ns.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        subject: Subject,
        sim_us: u64,
        f: impl FnOnce() -> T,
    ) -> u64 {
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        std::hint::black_box(f());
        let end_ns = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(HostSpan {
            name,
            start_ns,
            end_ns,
            subject,
            sim_us,
        });
        end_ns - start_ns
    }

    /// Renders the spans as Chrome trace-event JSON: one track per
    /// `layer.function`, timestamps in host µs, the simulated subject and
    /// time in `args`. A function with more than [`MAX_SPANS_PER_TRACK`]
    /// spans (the per-decode-step pool replay runs half a million) is
    /// written every `k`-th span, `k` recorded as `sampled_1_in`; the
    /// metrics always use every span.
    pub fn chrome_json(&self) -> String {
        let mut names: Vec<&'static str> = Vec::new();
        let mut counts: Vec<usize> = Vec::new();
        for span in &self.spans {
            match names.iter().position(|n| *n == span.name) {
                Some(t) => counts[t] += 1,
                None => {
                    names.push(span.name);
                    counts.push(1);
                }
            }
        }
        let strides: Vec<usize> = counts
            .iter()
            .map(|c| c.div_ceil(MAX_SPANS_PER_TRACK))
            .collect();
        let mut seen = vec![0usize; names.len()];
        let mut out = String::from("{\"traceEvents\":[");
        for (tid, name) in names.iter().enumerate() {
            if tid > 0 {
                out.push(',');
            }
            write!(
                out,
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\
                 \"args\":{{\"name\":\"{name}\"}}}}"
            )
            .expect("writing to a String never fails");
        }
        for span in &self.spans {
            let tid = names
                .iter()
                .position(|n| *n == span.name)
                .expect("every span name was collected");
            let index = seen[tid];
            seen[tid] += 1;
            if !index.is_multiple_of(strides[tid]) {
                continue;
            }
            let (key, id) = match span.subject {
                Subject::Request(r) => ("request", r),
                Subject::Instance(i) => ("instance", u64::from(i)),
            };
            write!(
                out,
                ",{{\"name\":\"{}\",\"cat\":\"host\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
                 \"pid\":1,\"tid\":{tid},\"args\":{{\"{key}\":{id},\"sim_us\":{},\
                 \"sampled_1_in\":{}}}}}",
                span.name,
                span.start_ns as f64 / 1e3,
                span.ns() as f64 / 1e3,
                span.sim_us,
                strides[tid],
            )
            .expect("writing to a String never fails");
        }
        out.push_str("],\"displayTimeUnit\":\"ms\"}\n");
        out
    }
}
