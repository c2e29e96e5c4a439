//! `simbench`: the repository benchmark — simulator speed and simulated
//! SLA outcomes on four named workloads, with per-layer counts and replay
//! timings from a separate traced pass. See `simbench/README.md`.
//!
//! ```text
//! simbench --workload <name> --seed <u64> --seconds <n> --trace <0|1>
//! ```
//!
//! The seed only generates inputs; the simulator sees nothing else. The
//! last line of standard output is one JSON object with the end-to-end
//! metrics (`--trace 0`) or the per-layer metrics (`--trace 1`). The
//! process exits non-zero when a run errors or an output check fails.

mod checks;
mod hostspan;
mod layers;
mod metric;
mod outcomes;
mod workloads;

use std::process::{Command, ExitCode, Stdio};

use pf_bench::timing::wall_secs;
use pf_obs::{chrome_trace_json_from_spans, reconstruct, CountingSink, RecordingSink, TraceSink};
use pf_workload::rng::derive_seed;

use hostspan::HostSpans;
use metric::Metric;
use outcomes::SimMetrics;
use workloads::{Inputs, RunResult, Workload};

/// Independent inputs per run, each generated from its own seed derived
/// from `--seed`. Simulated metrics are the median over them: a tail
/// percentile of one open-loop run swings with a few unlucky bursts, the
/// median of five does not.
const INPUTS: usize = 5;

/// Cap on untraced runs in the end-to-end pass, whatever `--seconds`
/// says.
const MAX_RUNS: usize = 200;

/// Cap on timed repeats of one input in the traced pass.
const MAX_REPEATS: usize = 200;

/// Timed set-ups of an input before each of its repeated runs.
const SETUPS_PER_REPEAT: usize = 4;

/// Where the traced pass writes its span files, relative to the
/// directory the benchmark runs from.
const OUT_DIR: &str = "simbench/out";

const USAGE: &str =
    "usage: simbench --workload <decode-o1|sysprompt-kv|disagg-stream|elastic-burst> \
                     --seed <u64> --seconds <n> --trace <0|1>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_unstable_by(f64::total_cmp);
    let n = sorted.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// The best of several host timings. Other tenants of a shared machine
/// only ever add time, so the fastest run is the least disturbed one.
fn best(values: &[f64], pick: fn(f64, f64) -> f64) -> f64 {
    values.iter().copied().reduce(pick).unwrap_or(0.0)
}

/// The value of `key` in `/proc/self/status`, trimmed.
fn proc_status(key: &str) -> Result<String, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix(key)?.strip_prefix(':'))
        .map(|rest| rest.trim().to_string())
        .ok_or_else(|| format!("no {key} line in /proc/self/status"))
}

/// Peak resident memory of this process (`VmHWM`), in MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let hwm = proc_status("VmHWM")?;
    hwm.split_whitespace()
        .next()
        .and_then(|kb| kb.parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("unreadable VmHWM: {hwm}"))
}

/// The CPUs this process may run on (`Cpus_allowed_list`, e.g. `0-1,4`).
fn allowed_cpus() -> Vec<usize> {
    let Ok(list) = proc_status("Cpus_allowed_list") else {
        return Vec::new();
    };
    let mut cpus = Vec::new();
    for range in list.split(',') {
        let mut ends = range.split('-').map(|n| n.trim().parse::<usize>());
        match (ends.next(), ends.next()) {
            (Some(Ok(a)), None) => cpus.push(a),
            (Some(Ok(a)), Some(Ok(b))) => cpus.extend(a..=b),
            _ => return Vec::new(),
        }
    }
    cpus
}

/// Moves this single-threaded process onto `cpu` with `taskset -p` and
/// waits for it. On a shared host each vCPU has its own neighbours, and
/// their busy phases come and go independently, so repeats that rotate
/// over the vCPUs are less likely to all land in a busy phase. Without
/// `taskset` the process stays where the kernel puts it.
fn move_to_cpu(cpu: usize) {
    let _ = Command::new("taskset")
        .args(["-p", "-c", &cpu.to_string(), &std::process::id().to_string()])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status();
}

/// One timed set-up: input generation (`pf-workload`), then the
/// configuration build with the scheduler's history warm-up.
struct Setup {
    inputs: Inputs,
    /// Host seconds of the whole set-up.
    setup_s: f64,
    /// Host seconds of its generation part.
    gen_s: f64,
}

fn setup(workload: Workload, seed: u64) -> Setup {
    let mut generated = None;
    let mut config = None;
    let gen_s =
        wall_secs(|| generated = Some(workloads::generate(workload, seed, workload.requests())));
    let config_s = wall_secs(|| config = Some(workloads::config(workload, seed)));
    let (requests, arrivals) = generated.expect("generation ran");
    Setup {
        inputs: Inputs {
            workload,
            requests,
            arrivals,
            config: config.expect("config ran"),
        },
        setup_s: gen_s + config_s,
        gen_s,
    }
}

/// The seed of input `k` of a run.
fn input_seed(seed: u64, k: usize) -> u64 {
    derive_seed(seed, k as u64)
}

/// Requests attempted and failed across every run, plus what went wrong.
#[derive(Default)]
struct Tally {
    attempted: usize,
    failed: usize,
    errors: Vec<String>,
}

impl Tally {
    fn fail(&mut self, requests: usize, error: String) {
        self.failed += requests;
        eprintln!("[FAIL] {error}");
        self.errors.push(error);
    }
}

/// Runs `inputs` once, timing only the driver call. Returns the reduced
/// result and the host seconds of the call.
fn timed_run(
    inputs: &Inputs,
    sink: Option<&mut dyn TraceSink>,
    tally: &mut Tally,
) -> Option<(RunResult, f64)> {
    let owned = inputs.clone();
    let mut report = None;
    let secs = wall_secs(|| report = Some(workloads::run(owned, sink)));
    let n = inputs.requests.len();
    tally.attempted += n;
    match report.expect("run executed") {
        Ok(report) => Some((report.summarize(inputs), secs)),
        Err(e) => {
            tally.fail(n, format!("{} run failed: {e}", inputs.workload.name()));
            None
        }
    }
}

/// Simulated requests that reached a terminal state.
fn terminal(run: &RunResult) -> usize {
    run.outcomes.len() + run.timed_out
}

/// [`terminal`] requests per host second.
fn terminal_rate(run: &RunResult, secs: f64) -> f64 {
    terminal(run) as f64 / secs
}

/// A traced run with a recording sink, checked against the fingerprint of
/// the untraced report of the same inputs.
struct Traced {
    run: RunResult,
    sink: RecordingSink,
    spans: Vec<pf_obs::RequestSpans>,
}

fn traced_and_checked(
    inputs: &Inputs,
    untraced_fingerprint: u64,
    tally: &mut Tally,
) -> Option<Traced> {
    let mut sink = RecordingSink::new();
    let (run, _) = timed_run(inputs, Some(&mut sink), tally)?;
    let spans = reconstruct(&sink.events);
    let errors = checks::traced_run(untraced_fingerprint, &run, &sink.events, &spans);
    if errors.is_empty() {
        println!(
            "[ok] {} input checks: conservation, one terminal event per request, \
             phase partitions, traced report == untraced report",
            inputs.workload.name()
        );
    }
    for e in errors {
        tally.fail(inputs.requests.len(), e);
    }
    Some(Traced { run, sink, spans })
}

/// The untraced pass: every end-to-end metric.
fn end_to_end(args: &Args, tally: &mut Tally) -> Vec<Metric> {
    let mut sims = Vec::new();
    let mut fingerprints = Vec::new();
    // Host timings: (terminal requests, seconds) of every untraced run,
    // and every set-up.
    let (mut runs, mut setup_s) = (Vec::new(), Vec::new());
    // Host seconds of everything the window holds: set-ups, runs and the
    // traced check runs.
    let mut spent = 0.0;
    // Each input runs once for the simulated metrics.
    for k in 0..INPUTS {
        let s = setup(args.workload, input_seed(args.seed, k));
        let Some((run, secs)) = timed_run(&s.inputs, None, tally) else {
            return Vec::new();
        };
        spent += s.setup_s + secs;
        setup_s.push(s.setup_s);
        runs.push((terminal(&run), secs));
        if let Err(e) = checks::conservation(&run) {
            tally.fail(run.submitted, e);
        }
        match SimMetrics::derive(&run) {
            Ok(m) => sims.push(m),
            Err(e) => tally.fail(run.submitted, e),
        }
        fingerprints.push(run.fingerprint);
    }
    let peak_rss = peak_rss_mib().unwrap_or_else(|e| {
        tally.fail(0, e);
        0.0
    });
    for (k, &fingerprint) in fingerprints.iter().enumerate() {
        spent += wall_secs(|| {
            let inputs = setup(args.workload, input_seed(args.seed, k)).inputs;
            traced_and_checked(&inputs, fingerprint, tally);
        });
    }
    // The rest of the window re-runs the inputs in turn, each set up
    // afresh `SETUPS_PER_REPEAT` times and run on the next allowed CPU, so
    // the timings spread over the window and the vCPUs, and every repeat
    // checks that regenerated inputs replay the same report.
    let cpus = allowed_cpus();
    while runs.len() < MAX_RUNS && spent < args.seconds {
        let k = runs.len() % INPUTS;
        if cpus.len() > 1 {
            move_to_cpu(cpus[runs.len() % cpus.len()]);
        }
        let mut s = setup(args.workload, input_seed(args.seed, k));
        for _ in 1..SETUPS_PER_REPEAT {
            setup_s.push(s.setup_s);
            spent += s.setup_s;
            s = setup(args.workload, input_seed(args.seed, k));
        }
        setup_s.push(s.setup_s);
        let Some((run, secs)) = timed_run(&s.inputs, None, tally) else {
            return Vec::new();
        };
        spent += s.setup_s + secs;
        runs.push((terminal(&run), secs));
        if run.fingerprint != fingerprints[k] {
            tally.fail(run.submitted, format!("input {k} replayed a different report"));
        }
    }
    if sims.len() != INPUTS {
        return Vec::new();
    }
    println!(
        "report_fingerprint {} seed {} {:016x}",
        args.workload.name(),
        args.seed,
        workloads::fingerprint(&fingerprints)
    );
    let run_terminal: usize = runs.iter().map(|&(n, _)| n).sum();
    let run_secs: f64 = runs.iter().map(|&(_, secs)| secs).sum();
    let med = |f: fn(&SimMetrics) -> f64| median(&sims.iter().map(f).collect::<Vec<_>>());
    let latency_samples: usize = sims.iter().map(|m| m.latency_samples).sum();
    vec![
        Metric::new(
            "sim_req_per_s",
            run_terminal as f64 / run_secs,
            "req/s",
            runs.len(),
        ),
        Metric::new("setup_s", median(&setup_s), "s", setup_s.len()),
        Metric::new("peak_rss_mib", peak_rss, "MiB", 1),
        Metric::new("completed_frac", med(|m| m.completed_frac), "ratio", INPUTS),
        Metric::new(
            "goodput_tok_per_s",
            med(|m| m.goodput_tok_per_s),
            "tok/s",
            INPUTS,
        ),
        Metric::new("sla_attainment", med(|m| m.sla_attainment), "ratio", INPUTS),
        Metric::new("ttft_p50_ms", med(|m| m.ttft_p50_ms), "ms", latency_samples),
        Metric::new("ttft_p99_ms", med(|m| m.ttft_p99_ms), "ms", latency_samples),
        Metric::new(
            "mtpot_p50_ms",
            med(|m| m.mtpot_p50_ms),
            "ms",
            latency_samples,
        ),
        Metric::new(
            "mtpot_p99_ms",
            med(|m| m.mtpot_p99_ms),
            "ms",
            latency_samples,
        ),
        Metric::new("gpu_s", med(|m| m.gpu_s), "s", INPUTS),
    ]
}

/// The traced pass: every per-layer metric, from the first input.
fn per_layer(args: &Args, tally: &mut Tally) -> Vec<Metric> {
    let seed = input_seed(args.seed, 0);
    let inputs = setup(args.workload, seed).inputs;
    let n = inputs.requests.len();
    let (mut untraced, mut counting, mut small, mut gen) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut reference = None;
    let mut spent = 0.0;
    // Alternate untraced and counting-sink runs so host drift hits both
    // alike.
    while untraced.len() < MAX_REPEATS && (untraced.len() < 3 || spent < args.seconds * 0.6) {
        gen.push(setup(args.workload, seed).gen_s);
        let Some((run, secs)) = timed_run(&inputs, None, tally) else {
            return Vec::new();
        };
        untraced.push(secs);
        let mut sink = CountingSink::new();
        let Some((_, counted)) = timed_run(&inputs, Some(&mut sink), tally) else {
            return Vec::new();
        };
        counting.push(counted);
        spent += secs + counted;
        reference.get_or_insert(run);
    }
    let reference = reference.expect("at least one untraced run");
    let eighth = inputs.truncated(n / 8);
    let mut spent_small = 0.0;
    while small.len() < 8 * MAX_REPEATS && (small.len() < 5 || spent_small < args.seconds * 0.2) {
        let Some((run, secs)) = timed_run(&eighth, None, tally) else {
            return Vec::new();
        };
        spent_small += secs;
        small.push(terminal_rate(&run, secs));
    }
    let untraced_s = best(&untraced, f64::min);
    let Some(traced) = traced_and_checked(&inputs, reference.fingerprint, tally) else {
        return Vec::new();
    };
    let timings = layers::RunTimings {
        untraced_s,
        counting_s: best(&counting, f64::min),
        scaling_ratio: best(&small, f64::max) / terminal_rate(&reference, untraced_s),
        gen_s: best(&gen, f64::min),
        gen_samples: gen.len(),
    };
    let mut host = HostSpans::new();
    let recorded = layers::Recorded {
        inputs: &inputs,
        run: &traced.run,
        events: &traced.sink.events,
        gauges: &traced.sink.gauges,
        spans: &traced.spans,
    };
    let metrics = layers::per_layer(&recorded, timings, &mut host);
    let name = args.workload.name();
    let files = [
        (
            format!("{OUT_DIR}/{name}.sim-trace.json"),
            chrome_trace_json_from_spans(&traced.spans, &traced.sink.events),
        ),
        (
            format!("{OUT_DIR}/{name}.host-trace.json"),
            host.chrome_json(),
        ),
    ];
    for (path, json) in files {
        let written = std::fs::create_dir_all(OUT_DIR).and_then(|()| std::fs::write(&path, json));
        match written {
            Ok(()) => println!("[wrote {path}]"),
            Err(e) => tally.fail(0, format!("write {path}: {e}")),
        }
    }
    metrics
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut tally = Tally::default();
    let metrics = if args.trace {
        per_layer(&args, &mut tally)
    } else {
        end_to_end(&args, &mut tally)
    };
    for m in &metrics {
        if !m.value.is_finite() {
            tally.fail(0, format!("metric {} is not finite ({})", m.name, m.value));
        }
    }
    metric::print_table(&metrics);
    let correct = tally.errors.is_empty() && !metrics.is_empty();
    println!(
        "{}",
        metric::result_json(correct, tally.attempted, tally.failed, &metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
