//! Self-profiling perf baseline: wall-clock throughput of the simulator
//! itself (simulated requests/s and trace events/s) across the three
//! engine shapes, the tracing-overhead proof, and the `BENCH_core.json`
//! regression gate.
//!
//! ```text
//! perf_baseline [--quick] [--out <dir>] [--gate <committed BENCH_core.json>]
//! ```
//!
//! With `--gate`, current throughput must be at least 75% of every
//! scenario in the committed baseline or the process exits 1 — the CI
//! regression gate. The baseline numbers in the repo are set well below
//! any healthy machine's throughput so the gate only trips on large,
//! constant-factor regressions, not CI noise. It cannot see superlinear
//! cost: at `--quick` sizes an accidentally quadratic loop still finishes
//! in milliseconds. Superlinear cost is guarded by deterministic work
//! counts instead (for the shared-link scheduler, `tests/link_scaling.rs`).

use pf_autoscale::{AutoscaleConfig, PredictorKind};
use pf_bench::timing::best_wall_secs;
use pf_bench::Cli;
use pf_core::SchedulerConfig;
use pf_metrics::{SimDuration, SimTime, Table};
use pf_obs::{CountingSink, TraceSink};
use pf_sim::cluster::{ClusterSimulation, RouterPolicy};
use pf_sim::disagg::{DisaggCluster, DisaggConfig};
use pf_sim::elastic::ElasticCluster;
use pf_sim::{GpuSpec, ModelSpec, SimConfig, Simulation};
use pf_workload::datasets;

/// Best-of-N wall-clock repetitions (min filters scheduler noise).
const REPS: usize = 3;

/// Gate threshold: current throughput must be ≥ this fraction of the
/// committed baseline.
const GATE_FRAC: f64 = 0.75;

/// Tracing-overhead ceiling asserted on full (non-quick) runs.
const MAX_OVERHEAD_FRAC: f64 = 0.05;

fn base_config(capacity: u64) -> SimConfig {
    SimConfig::builder(ModelSpec::llama2_7b(), GpuSpec::a100_80g())
        .scheduler(SchedulerConfig::past_future())
        .capacity_override(capacity)
        .record_series(false)
        .seed(9)
        .build()
}

fn steady_arrivals(n: usize, gap_ms: u64) -> Vec<SimTime> {
    (0..n)
        .map(|i| SimTime::from_millis(gap_ms * i as u64))
        .collect()
}

/// One measured scenario.
struct Measurement {
    name: &'static str,
    completed: usize,
    events: u64,
    wall_nosink_s: f64,
    wall_sink_s: f64,
}

impl Measurement {
    fn sim_req_per_s(&self) -> f64 {
        self.completed as f64 / self.wall_nosink_s
    }

    fn events_per_s(&self) -> f64 {
        self.events as f64 / self.wall_sink_s
    }

    fn overhead_frac(&self) -> f64 {
        (self.wall_sink_s - self.wall_nosink_s) / self.wall_nosink_s
    }
}

/// Times `run(sink)` best-of-[`REPS`], untraced and traced, returning the
/// measurement. The closure must be a pure function of its sink argument.
fn measure(
    name: &'static str,
    completed: usize,
    run: impl Fn(Option<&mut dyn TraceSink>),
) -> Measurement {
    let wall_nosink_s = best_wall_secs(REPS, || run(None));
    let mut events = 0;
    let wall_sink_s = best_wall_secs(REPS, || {
        let mut sink = CountingSink::new();
        run(Some(&mut sink));
        events = sink.events;
    });
    Measurement {
        name,
        completed,
        events,
        wall_nosink_s,
        wall_sink_s,
    }
}

fn run_scenarios(cli: &Cli) -> Vec<Measurement> {
    let mut out = Vec::new();

    // Colocated continuous batching, the hot loop of every experiment.
    {
        let n = cli.size(2_000, 200);
        let requests = datasets::sharegpt(n, 1);
        let config = base_config(40_000);
        out.push(measure("coloc", n, |sink| {
            let report = Simulation::offline(config.clone(), requests.clone())
                .run_traced(sink)
                .expect("coloc run");
            assert_eq!(report.completed, n);
        }));
    }

    // KvOverlap-routed colocated cluster: block-hash chains, the global
    // event-driven index, and softmax scoring all sit on the routing hot
    // path, so regressions in router scoring cost land in this gate.
    {
        let n = cli.size(1_600, 200);
        let spec = datasets::SharedSyspromptSpec::default();
        let (requests, arrivals) =
            datasets::shared_sysprompt_chat_timed(n, 4, &spec, 8.0, 1.0, 2.0);
        let n = requests.len();
        let mut config = base_config(30_000);
        config.prefix_cache = Some(pf_sim::PrefixCacheConfig::with_budget_frac(0.4).blocks(64));
        out.push(measure("coloc-kv", n, |sink| {
            let report = ClusterSimulation::new(
                config.clone(),
                3,
                RouterPolicy::KvOverlap {
                    overlap_weight: 1.0,
                    temperature: 0.2,
                },
            )
            .run_traced(requests.clone(), arrivals.clone(), sink)
            .expect("kv-routed run");
            assert_eq!(report.completed(), n);
        }));
    }

    // Disaggregated 2p+2d with KV-link transfers.
    {
        let n = cli.size(800, 120);
        let requests = datasets::sharegpt(n, 2);
        let arrivals = steady_arrivals(n, 20);
        let config = DisaggConfig::new(base_config(30_000));
        out.push(measure("disagg", n, |sink| {
            let report = DisaggCluster::new(config.clone(), 2, 2)
                .run_traced(requests.clone(), arrivals.clone(), sink)
                .expect("disagg run");
            assert_eq!(report.completed(), n);
        }));
    }

    // Layer-streamed disagg transfers: the fluid link scheduler's
    // breakpoint sync and wake/advance loop join the event-loop hot path.
    // At `--quick` n = 120 this gate cannot see cost that grows with the
    // stream count (a rescan of every stream per event once shipped
    // through it); `tests/link_scaling.rs` guards that with the
    // scheduler's exact stream-visit count.
    {
        let n = cli.size(800, 120);
        let requests = datasets::sharegpt(n, 2);
        let arrivals = steady_arrivals(n, 20);
        let transfer = pf_sim::disagg::KvTransferSpec::pcie4().streamed();
        let config = DisaggConfig::new(base_config(30_000)).transfer(transfer);
        out.push(measure("disagg-stream", n, |sink| {
            let report = DisaggCluster::new(config.clone(), 2, 2)
                .run_traced(requests.clone(), arrivals.clone(), sink)
                .expect("disagg stream run");
            assert_eq!(report.completed(), n);
            assert_eq!(report.transfers.streamed, report.transfers.transfers);
        }));
    }

    // Elastic fleet with autoscaling decisions in the loop.
    {
        let n = cli.size(800, 120);
        let requests = datasets::sharegpt(n, 3);
        let arrivals = steady_arrivals(n, 30);
        let autoscale = AutoscaleConfig::bounded(1, 4)
            .interval(SimDuration::from_secs(10))
            .warmup(SimDuration::from_secs(15))
            .predictor(PredictorKind::holt())
            .initial_lengths(512.0, 64.0);
        let config = base_config(20_000);
        out.push(measure("elastic", n, |sink| {
            let report = ElasticCluster::new(config.clone(), autoscale, 1)
                .run_traced(requests.clone(), arrivals.clone(), sink)
                .expect("elastic run");
            assert_eq!(report.completed(), n);
        }));
    }

    out
}

fn baseline_json(quick: bool, measurements: &[Measurement]) -> String {
    let mut out = String::from("{\n  \"schema\": 1,\n");
    out.push_str(&format!("  \"quick\": {quick},\n  \"scenarios\": [\n"));
    for (i, m) in measurements.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"sim_req_per_s\": {:.1}, \"events_per_s\": {:.1}, \
             \"wall_ms_nosink\": {:.3}, \"wall_ms_sink\": {:.3}, \"overhead_pct\": {:.2}}}{}\n",
            m.name,
            m.sim_req_per_s(),
            m.events_per_s(),
            m.wall_nosink_s * 1e3,
            m.wall_sink_s * 1e3,
            m.overhead_frac() * 100.0,
            if i + 1 < measurements.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Extracts `(name, sim_req_per_s)` pairs from a `BENCH_core.json`.
/// Hand-rolled to keep the workspace dependency-free; accepts exactly the
/// format [`baseline_json`] writes.
fn parse_baseline(text: &str) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    for chunk in text.split("\"name\"").skip(1) {
        let name = chunk
            .split('"')
            .nth(1)
            .expect("baseline name value")
            .to_string();
        let rate = chunk
            .split("\"sim_req_per_s\":")
            .nth(1)
            .and_then(|rest| rest.split([',', '}']).next())
            .and_then(|num| num.trim().parse::<f64>().ok())
            .expect("baseline sim_req_per_s value");
        out.push((name, rate));
    }
    out
}

fn apply_gate(gate_path: &str, measurements: &[Measurement]) {
    let text = std::fs::read_to_string(gate_path)
        .unwrap_or_else(|e| panic!("read gate baseline {gate_path}: {e}"));
    let committed = parse_baseline(&text);
    assert!(!committed.is_empty(), "gate baseline has no scenarios");
    if committed.iter().all(|(_, rate)| *rate <= 0.0) {
        eprintln!(
            "gate WARNING: every committed sim_req_per_s in {gate_path} is zero — \
             the baseline is a placeholder and the gate passes vacuously. \
             Refresh it with `perf_baseline --quick --out <dir>` on a quiet machine."
        );
    }
    let mut failed = false;
    for (name, committed_rate) in &committed {
        let Some(m) = measurements.iter().find(|m| m.name == name) else {
            eprintln!("gate: baseline scenario '{name}' not measured");
            failed = true;
            continue;
        };
        let floor = committed_rate * GATE_FRAC;
        let current = m.sim_req_per_s();
        if current < floor {
            eprintln!(
                "gate FAIL: {name} {current:.1} req/s < {floor:.1} \
                 ({GATE_FRAC}× committed {committed_rate:.1})"
            );
            failed = true;
        } else {
            println!(
                "gate ok: {name} {current:.1} req/s ≥ {floor:.1} \
                 ({GATE_FRAC}× committed {committed_rate:.1})"
            );
        }
    }
    if failed {
        eprintln!("perf regression gate failed");
        std::process::exit(1);
    }
}

fn main() {
    let (cli, extra) = Cli::parse_extra(&["--gate"]);
    let gate = extra
        .iter()
        .find(|(flag, _)| flag == "--gate")
        .map(|(_, value)| value.clone());

    let measurements = run_scenarios(&cli);

    let mut table = Table::new([
        "scenario",
        "sim_req/s",
        "events/s",
        "wall_ms(no sink)",
        "wall_ms(sink)",
        "overhead",
    ]);
    for m in &measurements {
        table.row([
            m.name.to_string(),
            format!("{:.1}", m.sim_req_per_s()),
            format!("{:.1}", m.events_per_s()),
            format!("{:.3}", m.wall_nosink_s * 1e3),
            format!("{:.3}", m.wall_sink_s * 1e3),
            pf_bench::pct(m.overhead_frac()),
        ]);
    }
    cli.emit("perf_baseline", "Simulator self-profile", &table);

    let json = baseline_json(cli.quick, &measurements);
    std::fs::create_dir_all(&cli.out_dir).expect("create results directory");
    let json_path = cli.out_dir.join("BENCH_core.json");
    std::fs::write(&json_path, &json).expect("write BENCH_core.json");
    println!("[wrote {}]", json_path.display());

    // The zero-cost claim: a counting sink must stay within the overhead
    // budget. Quick runs are too short to time reliably, so the assertion
    // only arms on full runs.
    if !cli.quick {
        for m in &measurements {
            assert!(
                m.overhead_frac() < MAX_OVERHEAD_FRAC,
                "{}: tracing overhead {} exceeds {}",
                m.name,
                pf_bench::pct(m.overhead_frac()),
                pf_bench::pct(MAX_OVERHEAD_FRAC)
            );
        }
        println!(
            "tracing overhead within budget (<{}) on all scenarios",
            pf_bench::pct(MAX_OVERHEAD_FRAC)
        );
    }

    if let Some(gate_path) = gate {
        apply_gate(&gate_path, &measurements);
    }
}
