//! Per-layer metrics of the traced pass.
//!
//! Two sources, neither of which instruments `crates/*/src`:
//!
//! * exact counts and simulated-time spans folded from the public
//!   `pf_obs` event and gauge streams of one recorded run;
//! * host timings of each layer's public functions, *replayed* on inputs
//!   rebuilt from that stream: `pf-core` admission on the running batch
//!   and queue at each admission point, `TokenPool` operations for every
//!   allocation, decode step and release, `BlockPrefixCache` and
//!   `KvIndexer` operations for every admission, completion, KV event and
//!   routed request, and `LinkScheduler` calls for every KV stream.
//!
//! The replays feed real layer code realistic operands in event order;
//! they do not reproduce the simulator's decisions (a replayed scheduler
//! may plan a different admission count than the engine did), so they
//! time the layer, not the run.

use std::collections::VecDeque;

use pf_core::{MemoryState, QueuedRequest, RunningRequest, Scheduler, SchedulerConfig};
use pf_kvcache::KV_ROOT_HASH;
use pf_kvcache::{block_hash, BlockPrefixCache, KvCacheManager, KvEvent, KvIndexer, TokenPool};
use pf_obs::{GaugeKind, GaugeSample, Phase, RequestSpans, TraceEvent};
use pf_sim::link::{LinkScheduler, StreamDone, StreamSpec};
use pf_sim::ModelSpec;
use pf_workload::RequestSpec;

use crate::hostspan::{HostSpans, Subject};
use crate::metric::{pct, Metric};
use crate::workloads::{self, Inputs, RunResult, Workload, BLOCK_TOKENS};

/// The engine's admission window: schedulers see at most this many
/// queue-front requests per call.
const PLAN_WINDOW: usize = 256;

/// Host timings measured outside the replays, by the caller.
#[derive(Debug, Clone, Copy)]
pub struct RunTimings {
    /// Median untraced wall time of one run at N, in s.
    pub untraced_s: f64,
    /// Median wall time of one run at N with a counting sink, in s.
    pub counting_s: f64,
    /// Simulated requests per host second at N/8, over at N.
    pub scaling_ratio: f64,
    /// Median `pf-workload` generation time, in s.
    pub gen_s: f64,
    /// Generations behind `gen_s`.
    pub gen_samples: usize,
}

/// One recorded run: what the per-layer metrics are computed from.
pub struct Recorded<'a> {
    /// The inputs the run consumed.
    pub inputs: &'a Inputs,
    /// The run's driver-neutral result.
    pub run: &'a RunResult,
    /// Every lifecycle event, in emission order.
    pub events: &'a [TraceEvent],
    /// Every gauge sample, in emission order.
    pub gauges: &'a [GaugeSample],
    /// Per-request phase spans rebuilt from `events`.
    pub spans: &'a [RequestSpans],
}

/// Pushes the p50 and p99 of `values` under `names`.
fn push_p50_p99(
    out: &mut Vec<Metric>,
    names: [&'static str; 2],
    values: &[f64],
    unit: &'static str,
) {
    for (name, p) in names.into_iter().zip([50.0, 99.0]) {
        out.push(Metric::new(name, pct(values, p), unit, values.len()));
    }
}

fn mean(values: impl Iterator<Item = f64>) -> (f64, usize) {
    let (sum, n) = values.fold((0.0, 0usize), |(s, n), v| (s + v, n + 1));
    (if n == 0 { 0.0 } else { sum / n as f64 }, n)
}

/// Computes every per-layer metric, recording the replays' host spans
/// into `host`.
pub fn per_layer(rec: &Recorded<'_>, timings: RunTimings, host: &mut HostSpans) -> Vec<Metric> {
    let n_req = rec.inputs.requests.len().max(1) as f64;
    let mut out = Vec::new();
    let count = |name: &'static str, value: usize| Metric::new(name, value as f64, "count", 1);

    // sim: the event loop and drivers.
    let events = rec.events.len();
    let decode_steps: Vec<u32> = rec
        .events
        .iter()
        .filter_map(|e| match *e {
            TraceEvent::DecodeStep { batch, .. } => Some(batch),
            _ => None,
        })
        .collect();
    let mut passes: Vec<(u32, u64)> = rec
        .events
        .iter()
        .filter_map(|e| match *e {
            TraceEvent::PrefillStart { at, instance, .. } => Some((instance, at.as_micros())),
            _ => None,
        })
        .collect();
    passes.sort_unstable();
    passes.dedup();
    out.push(count("sim.events", events));
    out.push(count("sim.decode_steps", decode_steps.len()));
    out.push(count("sim.prefill_passes", passes.len()));
    out.push(Metric::new(
        "sim.ns_per_event",
        timings.untraced_s * 1e9 / events.max(1) as f64,
        "ns",
        events,
    ));
    out.push(Metric::new(
        "sim.scaling_ratio",
        timings.scaling_ratio,
        "ratio",
        2,
    ));

    // core: admission.
    let admission = replay_admission_and_pool(rec, host);
    let admission_us: Vec<f64> = admission
        .admission_ns
        .iter()
        .map(|&ns| ns as f64 / 1e3)
        .collect();
    let calls = admission_us.len();
    out.push(count("core.admission_calls", calls));
    push_p50_p99(
        &mut out,
        ["core.admission_us_p50", "core.admission_us_p99"],
        &admission_us,
        "us",
    );
    out.push(Metric::new(
        "core.admission_busy_s",
        admission_us.iter().sum::<f64>() / 1e6,
        "s",
        calls,
    ));
    let (batch_mean, steps) = mean(decode_steps.iter().map(|&b| f64::from(b)));
    out.push(Metric::new("core.batch_mean", batch_mean, "count", steps));
    let queue_ms: Vec<f64> = rec
        .spans
        .iter()
        .map(|s| s.time_in(Phase::Queue).as_millis_f64())
        .collect();
    push_p50_p99(
        &mut out,
        ["core.queue_wait_ms_p50", "core.queue_wait_ms_p99"],
        &queue_ms,
        "ms",
    );
    let kind_count = |f: fn(&TraceEvent) -> bool| rec.events.iter().filter(|e| f(e)).count();
    let preemptions =
        kind_count(|e| matches!(e, TraceEvent::Preempted { .. } | TraceEvent::Swapped { .. }));
    let admissions = kind_count(|e| matches!(e, TraceEvent::Admitted { .. }));
    out.push(count("core.preemptions", preemptions));
    out.push(Metric::new(
        "core.admit_useful_frac",
        1.0 - preemptions as f64 / admissions.max(1) as f64,
        "ratio",
        admissions,
    ));
    out.push(count(
        "core.timed_out",
        kind_count(|e| matches!(e, TraceEvent::TimedOut { .. })),
    ));
    out.push(count(
        "core.slack_dropped",
        kind_count(|e| matches!(e, TraceEvent::SlackDropped { .. })),
    ));

    // kv: the token pool and the block prefix store.
    out.push(count(
        "kv.extend_ops",
        decode_steps.iter().map(|&b| b as usize).sum(),
    ));
    out.push(Metric::new(
        "kv.pool_op_ns",
        admission.pool_ns as f64 / admission.pool_ops.max(1) as f64,
        "ns",
        admission.pool_ops,
    ));
    let (occupancy, samples) = mean(
        rec.gauges
            .iter()
            .filter(|g| g.kind == GaugeKind::KvOccupancy)
            .map(|g| g.value),
    );
    out.push(Metric::new(
        "kv.occupancy_mean",
        occupancy,
        "ratio",
        samples,
    ));
    let stored = kind_count(|e| matches!(e, TraceEvent::KvStored { .. }));
    let removed = kind_count(|e| matches!(e, TraceEvent::KvRemoved { .. }));
    out.push(count("kv.blocks_stored", stored));
    out.push(count("kv.blocks_removed", removed));
    let prompt_tokens: u64 = rec
        .inputs
        .requests
        .iter()
        .map(|r| u64::from(r.input_len))
        .sum();
    out.push(Metric::new(
        "kv.prefix_hit_frac",
        rec.run.prefix_hit_tokens as f64 / prompt_tokens.max(1) as f64,
        "ratio",
        rec.inputs.requests.len(),
    ));
    let prefix_us = if rec.inputs.workload.routes_by_kv() {
        replay_prefix_store(rec, host)
    } else {
        Vec::new()
    };
    push_p50_p99(
        &mut out,
        ["kv.prefix_op_us_p50", "kv.prefix_op_us_p99"],
        &prefix_us,
        "us",
    );

    // router: the KV-overlap index.
    let route_us = if rec.inputs.workload.routes_by_kv() {
        replay_router(rec, host)
    } else {
        Vec::new()
    };
    out.push(count(
        "router.index_events",
        if rec.inputs.workload.routes_by_kv() {
            stored + removed
        } else {
            0
        },
    ));
    push_p50_p99(
        &mut out,
        ["router.overlap_us_p50", "router.overlap_us_p99"],
        &route_us,
        "us",
    );
    out.push(Metric::new(
        "router.imbalance",
        rec.run.routing_imbalance,
        "ratio",
        1,
    ));

    // link: the streamed KV-transfer scheduler.
    let streams = kind_count(|e| matches!(e, TraceEvent::KvTransferStart { .. }));
    out.push(count("link.streams", streams));
    let phase_ms = |phase: Phase| -> Vec<f64> {
        rec.spans
            .iter()
            .filter(|s| s.phases.iter().any(|p| p.phase == Phase::KvTransfer))
            .map(|s| s.time_in(phase).as_millis_f64())
            .collect()
    };
    let transfer_ms = phase_ms(Phase::KvTransfer);
    let stall_ms = phase_ms(Phase::Stalled);
    push_p50_p99(
        &mut out,
        ["link.transfer_ms_p50", "link.transfer_ms_p99"],
        &transfer_ms,
        "ms",
    );
    out.push(Metric::new(
        "link.stall_ms_p99",
        pct(&stall_ms, 99.0),
        "ms",
        stall_ms.len(),
    ));
    let (utilization, samples) = mean(
        rec.gauges
            .iter()
            .filter(|g| g.kind == GaugeKind::LinkUtilization)
            .map(|g| g.value),
    );
    out.push(Metric::new(
        "link.utilization_mean",
        utilization,
        "ratio",
        samples,
    ));
    let per_stream_us = if rec.inputs.workload == Workload::DisaggStream {
        replay_link(rec, host)
    } else {
        Vec::new()
    };
    let quarter = per_stream_us.len() / 4;
    let (q1, _) = mean(per_stream_us[..quarter].iter().copied());
    let (q4, _) = mean(
        per_stream_us[per_stream_us.len() - quarter..]
            .iter()
            .copied(),
    );
    out.push(Metric::new("link.us_per_stream_q1", q1, "us", quarter));
    out.push(Metric::new("link.us_per_stream_q4", q4, "us", quarter));

    // autoscale: the elastic fleet planner.
    out.push(count(
        "autoscale.scale_ups",
        kind_count(|e| matches!(e, TraceEvent::ScaleUp { .. })),
    ));
    out.push(count(
        "autoscale.scale_downs",
        kind_count(|e| matches!(e, TraceEvent::ScaleDown { .. })),
    ));
    out.push(count("autoscale.replicas_peak", rec.run.replicas_peak));

    // obs: the tracing layer itself.
    out.push(Metric::new(
        "obs.events_per_req",
        events as f64 / n_req,
        "count",
        events,
    ));
    out.push(Metric::new(
        "obs.gauges_per_req",
        rec.gauges.len() as f64 / n_req,
        "count",
        rec.gauges.len(),
    ));
    out.push(Metric::new(
        "obs.trace_overhead_frac",
        (timings.counting_s - timings.untraced_s) / timings.untraced_s,
        "ratio",
        2,
    ));

    // workload: input generation.
    out.push(Metric::new(
        "workload.gen_s",
        timings.gen_s,
        "s",
        timings.gen_samples,
    ));
    out
}

/// Requests by id (ids are dense from zero in every workload).
fn spec_of(inputs: &Inputs, id: u64) -> &RequestSpec {
    let spec = &inputs.requests[id as usize];
    debug_assert_eq!(spec.id.raw(), id, "request ids are dense");
    spec
}

/// Host time of the admission and token-pool replays.
struct AdmissionReplay {
    admission_ns: Vec<u64>,
    pool_ns: u64,
    pool_ops: usize,
}

/// One simulated instance as the replay sees it.
struct InstanceState {
    scheduler: Box<dyn Scheduler>,
    pool: TokenPool,
    queue: VecDeque<u64>,
    running: Vec<u64>,
}

/// Replays `pf-core` admission and `TokenPool` operations per instance.
///
/// The running batch, the queue (fronts re-queued on preemption) and the
/// tokens each request holds are rebuilt from the event stream; at every
/// admission point (a decode step or admission with a non-empty queue)
/// the instance's own Past-Future scheduler, warmed exactly like the
/// engine's and fed completions in `Finished` order, plans on that
/// snapshot.
fn replay_admission_and_pool(rec: &Recorded<'_>, host: &mut HostSpans) -> AdmissionReplay {
    let config = &rec.inputs.config;
    let capacity = rec.run.capacity_tokens;
    let n = rec.inputs.requests.len();
    let mut generated = vec![0u32; n];
    let mut prefilled = vec![false; n];
    let mut instances: Vec<InstanceState> = Vec::new();
    let mut replay = AdmissionReplay {
        admission_ns: Vec::new(),
        pool_ns: 0,
        pool_ops: 0,
    };
    let mut views = Views::default();
    let mut ids: Vec<u64> = Vec::new();

    let ensure = |instances: &mut Vec<InstanceState>, i: u32| {
        while instances.len() <= i as usize {
            let k = instances.len() as u64;
            let mut scheduler = SchedulerConfig::past_future().build(config.seed.wrapping_add(k));
            for &len in &config.history_warmup {
                scheduler.on_request_finished(len);
            }
            instances.push(InstanceState {
                scheduler,
                pool: TokenPool::new(capacity),
                queue: VecDeque::new(),
                running: Vec::new(),
            });
        }
    };

    for (idx, ev) in rec.events.iter().enumerate() {
        let Some(i) = ev.instance() else { continue };
        if i == u32::MAX {
            continue;
        }
        ensure(&mut instances, i);
        let at = ev.at().as_micros();
        match *ev {
            TraceEvent::Enqueued { request, .. } => instances[i as usize].queue.push_back(request),
            TraceEvent::Admitted { request, .. } => {
                // The engine plans once per admission group (the run of
                // admissions at one instant), on the queue before it.
                let group_start = idx == 0
                    || !matches!(rec.events[idx - 1],
                        TraceEvent::Admitted { at: a, instance: j, .. }
                        | TraceEvent::PrefillStart { at: a, instance: j, .. }
                        if a.as_micros() == at && j == i);
                let st = &mut instances[i as usize];
                if group_start {
                    let ns = plan(
                        st,
                        rec.inputs,
                        &generated,
                        capacity,
                        &mut views,
                        (i, at),
                        host,
                    );
                    replay.admission_ns.push(ns);
                }
                if let Some(pos) = st.queue.iter().position(|&r| r == request) {
                    st.queue.remove(pos);
                }
                let spec = spec_of(rec.inputs, request);
                let tokens = u64::from(spec.input_len) + u64::from(generated[request as usize]) + 1;
                if st.pool.tokens_of(request).is_none() {
                    let reserve = u64::from(spec.input_len) + u64::from(spec.max_new_tokens);
                    let pool = &mut st.pool;
                    let ns = host.time("kv.pool_allocate", Subject::Request(request), at, || {
                        pool.allocate(request, tokens, reserve).is_ok()
                    });
                    replay.pool_ns += ns;
                    replay.pool_ops += 1;
                    st.running.push(request);
                }
                prefilled[request as usize] = false;
            }
            TraceEvent::PrefillEnd { request, .. } => {
                prefilled[request as usize] = true;
                generated[request as usize] += 1;
            }
            TraceEvent::KvTransferEnd { request, .. } => {
                // The request leaves its prefill member and joins a decode
                // member with its first token already produced.
                for (j, st) in instances.iter_mut().enumerate() {
                    if j != i as usize {
                        leave(st, request, at, host, &mut replay);
                    }
                }
                let st = &mut instances[i as usize];
                let spec = spec_of(rec.inputs, request);
                let tokens = u64::from(spec.input_len) + u64::from(generated[request as usize]);
                if st.pool.tokens_of(request).is_none() {
                    let pool = &mut st.pool;
                    let ns = host.time("kv.pool_allocate", Subject::Request(request), at, || {
                        pool.allocate(request, tokens, tokens).is_ok()
                    });
                    replay.pool_ns += ns;
                    replay.pool_ops += 1;
                    st.running.push(request);
                }
                prefilled[request as usize] = true;
            }
            TraceEvent::DecodeStep { .. } => {
                let st = &mut instances[i as usize];
                ids.clear();
                ids.extend(
                    st.running
                        .iter()
                        .copied()
                        .filter(|&r| prefilled[r as usize]),
                );
                let pool = &mut st.pool;
                let ns = host.time("kv.pool_decode_step", Subject::Instance(i), at, || {
                    let shortfall = pool.extension_shortfall(&ids).unwrap_or(0);
                    for &r in &ids {
                        let _ = pool.extend(r, 1);
                    }
                    shortfall
                });
                replay.pool_ns += ns;
                replay.pool_ops += 1 + ids.len();
                for &r in &ids {
                    generated[r as usize] += 1;
                }
                // Requests still queued after a step are planned on again
                // at the next tick.
                if !st.queue.is_empty() {
                    let ns = plan(
                        st,
                        rec.inputs,
                        &generated,
                        capacity,
                        &mut views,
                        (i, at),
                        host,
                    );
                    replay.admission_ns.push(ns);
                }
            }
            TraceEvent::Preempted { request, .. } | TraceEvent::Swapped { request, .. } => {
                let st = &mut instances[i as usize];
                leave(st, request, at, host, &mut replay);
                st.queue.push_front(request);
                prefilled[request as usize] = false;
            }
            TraceEvent::Finished { request, .. } => {
                let spec = spec_of(rec.inputs, request);
                let st = &mut instances[i as usize];
                leave(st, request, at, host, &mut replay);
                st.scheduler
                    .on_request_finished(spec.true_output_len.min(spec.max_new_tokens));
            }
            TraceEvent::TimedOut { request, .. } | TraceEvent::SlackDropped { request, .. } => {
                let st = &mut instances[i as usize];
                if let Some(pos) = st.queue.iter().position(|&r| r == request) {
                    st.queue.remove(pos);
                }
                leave(st, request, at, host, &mut replay);
            }
            _ => {}
        }
    }
    replay
}

/// Scratch scheduler views, reused across planning calls.
#[derive(Default)]
struct Views {
    running: Vec<RunningRequest>,
    queue: Vec<QueuedRequest>,
}

/// Rebuilds the instance's (running, queue, memory) snapshot and times
/// one `plan_admission` call on it, returning its host ns.
fn plan(
    st: &mut InstanceState,
    inputs: &Inputs,
    generated: &[u32],
    capacity: u64,
    views: &mut Views,
    (instance, at): (u32, u64),
    host: &mut HostSpans,
) -> u64 {
    views.running.clear();
    let mut used = 0u64;
    for &r in &st.running {
        let spec = spec_of(inputs, r);
        let g = generated[r as usize];
        used += u64::from(spec.input_len) + u64::from(g);
        views.running.push(RunningRequest {
            id: r,
            input_len: spec.input_len,
            generated: g,
            max_new_tokens: spec.max_new_tokens,
            oracle_remaining: None,
        });
    }
    views.queue.clear();
    for &r in st.queue.iter().take(PLAN_WINDOW) {
        let spec = spec_of(inputs, r);
        views.queue.push(QueuedRequest {
            id: r,
            input_len: spec.input_len,
            generated: generated[r as usize],
            max_new_tokens: spec.max_new_tokens,
            oracle_remaining: None,
        });
    }
    let memory = MemoryState {
        capacity_tokens: capacity,
        used_tokens: used,
    };
    let scheduler = &mut st.scheduler;
    host.time(
        "core.plan_admission",
        Subject::Instance(instance),
        at,
        || scheduler.plan_admission(&views.running, &views.queue, &memory),
    )
}

/// Drops `request` from an instance's running batch, releasing its pool
/// tokens (timed) if it held any.
fn leave(
    st: &mut InstanceState,
    request: u64,
    at: u64,
    host: &mut HostSpans,
    replay: &mut AdmissionReplay,
) {
    let Some(pos) = st.running.iter().position(|&r| r == request) else {
        return;
    };
    st.running.swap_remove(pos);
    let pool = &mut st.pool;
    let ns = host.time("kv.pool_release", Subject::Request(request), at, || {
        pool.release(request)
    });
    replay.pool_ns += ns;
    replay.pool_ops += 1;
}

/// Replays each instance's `BlockPrefixCache`: a `lookup_run` over the
/// request's matchable blocks at every admission, an `insert_chain` of
/// its storable blocks at every completion, and an `evict_down_to` for
/// every run of `KvRemoved` events the replayed store has not already
/// matched. Returns each operation's host time in µs.
fn replay_prefix_store(rec: &Recorded<'_>, host: &mut HostSpans) -> Vec<f64> {
    let budget = workloads::prefix_budget_tokens(rec.run.capacity_tokens);
    let block = u64::from(BLOCK_TOKENS);
    let mut stores: Vec<BlockPrefixCache> = Vec::new();
    let mut removed_run: Option<(u32, u64, u64)> = None;
    let mut us = Vec::new();
    let flush = |stores: &mut Vec<BlockPrefixCache>,
                 run: Option<(u32, u64, u64)>,
                 host: &mut HostSpans,
                 us: &mut Vec<f64>| {
        let Some((i, at, count)) = run else { return };
        let store = &mut stores[i as usize];
        let target = store.used_tokens().saturating_sub(count * block);
        if store.used_tokens() > target {
            let ns = host.time("kv.prefix_evict_down_to", Subject::Instance(i), at, || {
                store.evict_down_to(target)
            });
            us.push(ns as f64 / 1e3);
        }
    };
    for ev in rec.events {
        let Some(i) = ev.instance() else { continue };
        while stores.len() <= i as usize {
            stores.push(BlockPrefixCache::new(budget, BLOCK_TOKENS));
        }
        let at = ev.at().as_micros();
        if let TraceEvent::KvRemoved { .. } = ev {
            removed_run = match removed_run {
                Some((j, a, c)) if j == i && a == at => Some((j, a, c + 1)),
                other => {
                    flush(&mut stores, other, host, &mut us);
                    Some((i, at, 1))
                }
            };
            continue;
        }
        flush(&mut stores, removed_run.take(), host, &mut us);
        let store = &mut stores[i as usize];
        match *ev {
            TraceEvent::Admitted { request, .. } => {
                let spec = spec_of(rec.inputs, request);
                let ns = host.time(
                    "kv.prefix_lookup_run",
                    Subject::Request(request),
                    at,
                    || store.lookup_run(spec.matchable_blocks(BLOCK_TOKENS)),
                );
                us.push(ns as f64 / 1e3);
            }
            TraceEvent::Finished { request, .. } => {
                let spec = spec_of(rec.inputs, request);
                let output = spec.true_output_len.min(spec.max_new_tokens);
                let ns = host.time(
                    "kv.prefix_insert_chain",
                    Subject::Request(request),
                    at,
                    || store.insert_chain(spec.storable_blocks(BLOCK_TOKENS, output)),
                );
                us.push(ns as f64 / 1e3);
            }
            _ => {}
        }
    }
    flush(&mut stores, removed_run, host, &mut us);
    us
}

/// Replays the global `KvIndexer`: every `KvStored`/`KvRemoved` event is
/// published, and every routed request (its `Enqueued` event) advances
/// the index, hashes its matchable block chain and asks every instance
/// for its overlap. Returns the host µs of each routing replay.
fn replay_router(rec: &Recorded<'_>, host: &mut HostSpans) -> Vec<f64> {
    let delay = rec.inputs.config.router.kv_event_delay.as_micros();
    let mut index = KvIndexer::new(delay);
    let instances = rec
        .events
        .iter()
        .filter_map(TraceEvent::instance)
        .max()
        .map_or(0, |m| m + 1);
    let mut chain: Vec<u64> = Vec::new();
    let mut us = Vec::new();
    for ev in rec.events {
        let at = ev.at().as_micros();
        match *ev {
            TraceEvent::KvStored {
                instance, block, ..
            } => {
                let event = KvEvent::Stored {
                    block,
                    parent: KV_ROOT_HASH,
                    tokens: u64::from(BLOCK_TOKENS),
                };
                host.time("router.publish", Subject::Instance(instance), at, || {
                    index.publish(instance, event, at)
                });
            }
            TraceEvent::KvRemoved {
                instance, block, ..
            } => {
                host.time("router.publish", Subject::Instance(instance), at, || {
                    index.publish(instance, KvEvent::Removed { block }, at)
                });
            }
            TraceEvent::Enqueued { request, .. } => {
                let spec = spec_of(rec.inputs, request);
                let index = &mut index;
                let chain = &mut chain;
                let ns = host.time("router.overlap", Subject::Request(request), at, || {
                    index.advance(at);
                    chain.clear();
                    let mut parent = KV_ROOT_HASH;
                    for content in spec.matchable_blocks(BLOCK_TOKENS) {
                        parent = block_hash(parent, content);
                        chain.push(parent);
                    }
                    (0..instances).map(|i| index.overlap(i, chain)).max()
                });
                us.push(ns as f64 / 1e3);
            }
            _ => {}
        }
    }
    us
}

/// Replays the shared-link `LinkScheduler` over every KV stream of the
/// run, in production order: each stream's prefill window comes from its
/// request's `PrefillStart`/`PrefillEnd`, its size from the prompt's KV
/// bytes. Per stream, the replay drains completions due by the stream's
/// start (`next_event_us` + `advance`), opens it (`start_stream`) and
/// projects the next completion. Returns host µs per stream, in order.
fn replay_link(rec: &Recorded<'_>, host: &mut HostSpans) -> Vec<f64> {
    let n = rec.inputs.requests.len();
    let mut window: Vec<(u64, u64)> = vec![(0, 0); n];
    let mut streamed: Vec<u64> = Vec::new();
    for ev in rec.events {
        match *ev {
            TraceEvent::PrefillStart { at, request, .. } => {
                window[request as usize].0 = at.as_micros()
            }
            TraceEvent::PrefillEnd { at, request, .. } => {
                window[request as usize].1 = at.as_micros()
            }
            TraceEvent::KvTransferStart { request, .. } => streamed.push(request),
            _ => {}
        }
    }
    streamed.sort_unstable_by_key(|&r| (window[r as usize].0, r));
    let spec = workloads::transfer_spec();
    let model = ModelSpec::llama2_7b();
    let chunks = if spec.num_layers > 0 {
        spec.num_layers
    } else {
        model.n_layers
    };
    let mut link = LinkScheduler::new(spec.link_gbps, spec.per_hop_overhead.as_micros());
    let mut done: Vec<StreamDone> = Vec::new();
    let mut us = Vec::with_capacity(streamed.len());
    for &request in &streamed {
        let (start, end) = window[request as usize];
        let stream = StreamSpec {
            bytes: u64::from(spec_of(rec.inputs, request).input_len) * model.kv_bytes_per_token(),
            produce_start_us: start,
            produce_end_us: end.max(start),
            chunks,
            weight: 1.0,
        };
        let link = &mut link;
        let done = &mut done;
        let ns = host.time("link.stream", Subject::Request(request), start, || {
            while let Some(next) = link.next_event_us() {
                if next > start {
                    break;
                }
                done.clear();
                link.advance(next, done);
                if done.is_empty() {
                    break;
                }
            }
            link.start_stream(start, stream);
            link.next_event_us()
        });
        us.push(ns as f64 / 1e3);
    }
    us
}
