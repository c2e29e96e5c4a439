//! The four benchmark workloads: input generation from the seed, and one
//! run of the matching simulator driver reduced to a driver-neutral
//! [`RunResult`].

use std::fmt::Write as _;

use pf_autoscale::{AutoscaleConfig, PredictorKind};
use pf_core::SchedulerConfig;
use pf_metrics::{SimDuration, SimTime};
use pf_obs::TraceSink;
use pf_sim::cluster::{ClusterReport, ClusterSimulation, RouterPolicy};
use pf_sim::disagg::{DisaggCluster, DisaggConfig, DisaggReport, KvTransferSpec};
use pf_sim::elastic::{ElasticCluster, ElasticReport};
use pf_sim::{
    GpuSpec, ModelSpec, PrefillMode, PrefixCacheConfig, RequestOutcome, SimConfig, SimError,
    SimReport, Simulation,
};
use pf_workload::rng::{derive_seed, seeded};
use pf_workload::{datasets, PoissonArrivals, RateProfile, RequestSpec};

/// A named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One colocated engine, decode-heavy ShareGPT-o1 traffic.
    DecodeO1,
    /// Three KV-overlap-routed engines with a block prefix cache, tenant
    /// traffic sharing long system prompts.
    SyspromptKv,
    /// 2 prefill + 2 decode members streaming KV over a shared PCIe link.
    DisaggStream,
    /// An autoscaled 1–4 replica fleet under square-wave bursts.
    ElasticBurst,
}

/// Prefix-cache block size of `sysprompt-kv`, in tokens.
pub const BLOCK_TOKENS: u32 = 64;
/// Prefix-cache budget of `sysprompt-kv`, as a share of KV capacity.
pub const PREFIX_BUDGET_FRAC: f64 = 0.4;
/// Instances behind the `sysprompt-kv` router.
const KV_INSTANCES: usize = 3;

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::DecodeO1,
        Workload::SyspromptKv,
        Workload::DisaggStream,
        Workload::ElasticBurst,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::DecodeO1 => "decode-o1",
            Workload::SyspromptKv => "sysprompt-kv",
            Workload::DisaggStream => "disagg-stream",
            Workload::ElasticBurst => "elastic-burst",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Requests per input. Each is sized so one untraced run takes about a
    /// second on one core, so the measuring window holds several whole
    /// runs, and every TTFT/MTPOT p99 rests on at least 32 samples beyond
    /// it.
    pub fn requests(self) -> usize {
        match self {
            Workload::DecodeO1 => 8_000,
            Workload::SyspromptKv => 20_000,
            Workload::DisaggStream => 3_200,
            Workload::ElasticBurst => 16_000,
        }
    }

    /// Whether the workload runs the KV-overlap router and the block
    /// prefix store.
    pub fn routes_by_kv(self) -> bool {
        self == Workload::SyspromptKv
    }
}

/// Everything a run needs, built from the seed before the clock starts.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// The workload these inputs belong to.
    pub workload: Workload,
    /// Requests, ids dense from zero in arrival order.
    pub requests: Vec<RequestSpec>,
    /// One open-loop arrival time per request, sorted.
    pub arrivals: Vec<SimTime>,
    /// The per-engine configuration (history warm-up included).
    pub config: SimConfig,
}

impl Inputs {
    /// The first `n` requests and their arrivals, for the scaling ratio.
    pub fn truncated(&self, n: usize) -> Inputs {
        Inputs {
            workload: self.workload,
            requests: self.requests[..n].to_vec(),
            arrivals: self.arrivals[..n].to_vec(),
            config: self.config.clone(),
        }
    }
}

/// Generates the workload's requests and arrivals (the `pf-workload` part
/// of set-up, timed on its own as `workload.gen_s`).
pub fn generate(workload: Workload, seed: u64, n: usize) -> (Vec<RequestSpec>, Vec<SimTime>) {
    let lengths_seed = derive_seed(seed, 1);
    let mut arrival_rng = seeded(derive_seed(seed, 2));
    match workload {
        Workload::DecodeO1 => {
            let requests = datasets::sharegpt_o1(n, lengths_seed);
            let arrivals = PoissonArrivals::new(0.40).assign(&mut arrival_rng, n);
            (requests, arrivals)
        }
        Workload::SyspromptKv => datasets::shared_sysprompt_chat_timed(
            n,
            lengths_seed,
            &datasets::SharedSyspromptSpec::default(),
            8.0,
            1.0,
            2.0,
        ),
        Workload::DisaggStream => {
            let requests = datasets::sharegpt(n, lengths_seed);
            let arrivals = PoissonArrivals::new(16.0).assign(&mut arrival_rng, n);
            (requests, arrivals)
        }
        Workload::ElasticBurst => {
            let requests = datasets::sharegpt(n, lengths_seed);
            let profile = RateProfile::bursty(
                4.0,
                16.0,
                SimDuration::from_secs(15),
                SimDuration::from_secs(40),
            );
            let arrivals = profile.assign(&mut arrival_rng, n);
            (requests, arrivals)
        }
    }
}

/// Builds the engine configuration, including the Past-Future history
/// warm-up drawn from the workload's own length distribution.
pub fn config(workload: Workload, seed: u64) -> SimConfig {
    let builder = SimConfig::builder(ModelSpec::llama2_7b(), GpuSpec::a100_80g())
        .scheduler(SchedulerConfig::past_future())
        .record_series(false)
        .seed(derive_seed(seed, 3));
    let warmup_seed = derive_seed(seed, 4);
    let warmup: Vec<u32> = match workload {
        Workload::DecodeO1 => datasets::sharegpt_o1(1_000, warmup_seed),
        _ => datasets::sharegpt(1_000, warmup_seed),
    }
    .iter()
    .map(|r| r.true_output_len)
    .collect();
    let builder = builder.history_warmup(warmup);
    match workload {
        Workload::SyspromptKv => builder
            .capacity_override(30_000)
            .prefix_cache_blocks(PREFIX_BUDGET_FRAC, BLOCK_TOKENS)
            .build(),
        Workload::ElasticBurst => builder
            .prefill(PrefillMode::Chunked { chunk_tokens: 512 })
            .build(),
        Workload::DecodeO1 | Workload::DisaggStream => builder.build(),
    }
}

/// The streamed transfer spec of `disagg-stream`.
pub fn transfer_spec() -> KvTransferSpec {
    KvTransferSpec::pcie4().streamed()
}

/// Autoscaler settings of `elastic-burst`.
fn autoscale() -> AutoscaleConfig {
    AutoscaleConfig::bounded(1, 4)
        .interval(SimDuration::from_secs(5))
        .warmup(SimDuration::from_secs(10))
        .predictor(PredictorKind::holt())
        .initial_lengths(230.0, 200.0)
}

/// The driver-neutral result of one run: what every simulated metric and
/// output check is computed from.
#[derive(Debug)]
pub struct RunResult {
    /// Requests handed to the driver.
    pub submitted: usize,
    /// Per-request outcomes of every completed request.
    pub outcomes: Vec<RequestOutcome>,
    /// Requests cancelled past their deadline (slack drops included).
    pub timed_out: usize,
    /// Requests never routed, served or finished (horizon cut-offs).
    pub unserved: usize,
    /// Simulated run length.
    pub makespan: SimDuration,
    /// GPU-seconds provisioned.
    pub gpu_s: f64,
    /// The driver report's own goodput, for the cross-check.
    pub report_goodput_tok_per_s: f64,
    /// Driver-specific figures the per-layer metrics need.
    pub routing_imbalance: f64,
    /// Highest replica count provisioned at once.
    pub replicas_peak: usize,
    /// KV capacity per engine, in tokens.
    pub capacity_tokens: u64,
    /// Prefix tokens served from cache, over all engines.
    pub prefix_hit_tokens: u64,
    /// FNV-1a of the driver report's full `Debug` rendering: every field,
    /// every per-request timing, and every `f64` in round-trip form.
    pub fingerprint: u64,
}

/// FNV-1a over formatted text, fed without building the string.
struct Fnv(u64);

impl std::fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for byte in s.bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        Ok(())
    }
}

/// FNV-1a of a value's full `Debug` rendering.
pub fn fingerprint(report: &impl std::fmt::Debug) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    write!(h, "{report:?}").expect("hashing never fails");
    h.0
}

/// One driver's own report.
#[derive(Debug)]
pub enum Report {
    /// `decode-o1`.
    Sim(SimReport),
    /// `sysprompt-kv`.
    Cluster(ClusterReport),
    /// `disagg-stream`.
    Disagg(DisaggReport),
    /// `elastic-burst`.
    Elastic(ElasticReport),
}

/// Runs the workload's driver once, consuming the inputs. This is the
/// call the benchmark times; reducing the report ([`Report::summarize`])
/// happens outside the clock.
pub fn run(inputs: Inputs, sink: Option<&mut dyn TraceSink>) -> Result<Report, SimError> {
    let Inputs {
        workload,
        requests,
        arrivals,
        config,
    } = inputs;
    Ok(match workload {
        Workload::DecodeO1 => {
            Report::Sim(Simulation::with_arrivals(config, requests, arrivals).run_traced(sink)?)
        }
        Workload::SyspromptKv => {
            let policy = RouterPolicy::KvOverlap {
                overlap_weight: 1.0,
                temperature: 0.2,
            };
            Report::Cluster(
                ClusterSimulation::new(config, KV_INSTANCES, policy)
                    .run_traced(requests, arrivals, sink)?,
            )
        }
        Workload::DisaggStream => {
            let disagg = DisaggConfig::new(config).transfer(transfer_spec());
            Report::Disagg(DisaggCluster::new(disagg, 2, 2).run_traced(requests, arrivals, sink)?)
        }
        Workload::ElasticBurst => Report::Elastic(
            ElasticCluster::new(config, autoscale(), 1).run_traced(requests, arrivals, sink)?,
        ),
    })
}

impl Report {
    /// Reduces the report to the driver-neutral [`RunResult`] of a run
    /// over `inputs`.
    pub fn summarize(self, inputs: &Inputs) -> RunResult {
        let submitted = inputs.requests.len();
        let capacity_tokens = inputs.config.capacity_tokens();
        let fingerprint = fingerprint(&self);
        match self {
            Report::Sim(r) => RunResult {
                submitted,
                timed_out: r.timed_out,
                unserved: r.unfinished,
                makespan: r.makespan,
                gpu_s: r.makespan.as_secs_f64(),
                report_goodput_tok_per_s: r.goodput_tok_per_s(),
                routing_imbalance: 1.0,
                replicas_peak: 1,
                capacity_tokens,
                prefix_hit_tokens: r.prefix_stats.hit_tokens,
                fingerprint,
                outcomes: r.outcomes,
            },
            Report::Cluster(r) => {
                let makespan = r.makespan();
                RunResult {
                    submitted,
                    timed_out: r.instances.iter().map(|i| i.timed_out).sum(),
                    unserved: r.instances.iter().map(|i| i.unfinished).sum(),
                    makespan,
                    // Every instance is provisioned for the whole run.
                    gpu_s: makespan.as_secs_f64() * r.instances.len() as f64,
                    report_goodput_tok_per_s: r.goodput_tok_per_s(),
                    routing_imbalance: r.routing_imbalance(),
                    replicas_peak: r.instances.len(),
                    capacity_tokens,
                    prefix_hit_tokens: r.prefix_stats().hit_tokens,
                    fingerprint,
                    outcomes: r.instances.into_iter().flat_map(|i| i.outcomes).collect(),
                }
            }
            Report::Disagg(r) => RunResult {
                submitted,
                timed_out: r.timed_out,
                unserved: r.unserved,
                makespan: r.makespan,
                gpu_s: r.gpu_seconds(),
                report_goodput_tok_per_s: r.goodput_tok_per_s(),
                routing_imbalance: 1.0,
                replicas_peak: r.peak_prefill_replicas() + r.peak_decode_replicas(),
                capacity_tokens,
                prefix_hit_tokens: r.prefix_stats.hit_tokens,
                fingerprint,
                outcomes: r.outcomes,
            },
            Report::Elastic(r) => RunResult {
                submitted,
                timed_out: r.timed_out(),
                unserved: r.unrouted
                    + r.instances
                        .iter()
                        .map(|i| i.report.unfinished)
                        .sum::<usize>(),
                makespan: r.makespan,
                gpu_s: r.gpu_seconds(),
                report_goodput_tok_per_s: r.goodput_tok_per_s(),
                routing_imbalance: 1.0,
                replicas_peak: r.peak_replicas(),
                capacity_tokens,
                prefix_hit_tokens: r.prefix_stats().hit_tokens,
                fingerprint,
                outcomes: r
                    .instances
                    .into_iter()
                    .flat_map(|i| i.report.outcomes)
                    .collect(),
            },
        }
    }
}

/// The `sysprompt-kv` prefix-store budget for a pool of `capacity_tokens`,
/// computed the way the engine computes it (the replay sizes its stores
/// with it).
pub fn prefix_budget_tokens(capacity_tokens: u64) -> u64 {
    PrefixCacheConfig::with_budget_frac(PREFIX_BUDGET_FRAC)
        .blocks(BLOCK_TOKENS)
        .budget_tokens(capacity_tokens)
}
