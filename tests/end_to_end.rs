//! Cross-crate integration tests: the full stack from workload generation
//! through scheduling, simulation and SLA accounting.

use pastfuture::core::{BatchEntry, FutureMemoryEstimator, SchedulerConfig};
use pastfuture::prelude::*;
use pastfuture::sim::KvLayout;
use pastfuture::workload::datasets;

fn warmup(n: usize, seed: u64) -> Vec<u32> {
    datasets::sharegpt_o1(n, seed)
        .iter()
        .map(|r| r.true_output_len)
        .collect()
}

/// The paper's headline: under heavy decode-heavy load the Past-Future
/// scheduler delivers more goodput than both baselines.
///
/// 24 clients keep the deployment in the heavy-load regime the paper's
/// claim is about: memory-pressured enough that aggressive admission pays
/// ~90% evictions (MTPOT stalls), but not so oversaturated that queueing
/// alone pushes median TTFT far past the SLA for every scheduler — past
/// that point goodput collapses for all policies and the comparison is
/// noise (40 clients, the previous setting, put median TTFT at 25–50 s
/// against the 10 s limit and made the winner a coin flip per seed).
#[test]
fn past_future_wins_goodput_under_heavy_load() {
    let run = |scheduler: SchedulerConfig| {
        let config = SimConfig::builder(ModelSpec::llama2_7b(), GpuSpec::a100_80g())
            .scheduler(scheduler)
            .capacity_override(40_000)
            .history_warmup(warmup(1000, 50))
            .record_series(false)
            .seed(8)
            .build();
        Simulation::closed_loop(
            config,
            datasets::sharegpt_o1(160, 51),
            ClosedLoopClients::new(24),
        )
        .run()
        .unwrap()
    };
    let conservative = run(SchedulerConfig::conservative());
    let aggressive = run(SchedulerConfig::aggressive(0.99));
    let past_future = run(SchedulerConfig::past_future_reserved(0.03));
    assert!(
        past_future.goodput_tok_per_s() >= aggressive.goodput_tok_per_s(),
        "PF {} vs aggressive {}",
        past_future.goodput_tok_per_s(),
        aggressive.goodput_tok_per_s()
    );
    assert!(
        past_future.goodput_tok_per_s() > 1.5 * conservative.goodput_tok_per_s(),
        "PF {} vs conservative {}",
        past_future.goodput_tok_per_s(),
        conservative.goodput_tok_per_s()
    );
    assert!(past_future.evicted_request_pct() < aggressive.evicted_request_pct());
}

/// Oracle ≥ Past-Future ≥ conservative on memory utilization; oracle never
/// evicts; conservative never evicts without overcommit.
#[test]
fn utilization_ordering_matches_table_1() {
    let run = |scheduler: SchedulerConfig| {
        let config = SimConfig::builder(ModelSpec::llama2_7b(), GpuSpec::a100_80g())
            .scheduler(scheduler)
            .history_warmup(
                datasets::distribution_1(1000, 70)
                    .iter()
                    .map(|r| r.true_output_len)
                    .collect(),
            )
            .record_series(false)
            .seed(9)
            .build();
        Simulation::offline(config, datasets::distribution_1(150, 71))
            .run()
            .unwrap()
    };
    let oracle = run(SchedulerConfig::Oracle);
    let pf = run(SchedulerConfig::past_future_reserved(0.05));
    let conservative = run(SchedulerConfig::conservative());
    assert_eq!(oracle.evictions, 0);
    assert_eq!(conservative.evictions, 0);
    assert!(oracle.avg_consumed_frac >= pf.avg_consumed_frac - 0.02);
    assert!(pf.avg_consumed_frac > conservative.avg_consumed_frac + 0.15);
    assert!(oracle.decode_steps <= pf.decode_steps);
    assert!(pf.decode_steps < conservative.decode_steps);
}

/// Figure 2's arithmetic: the scheduler's own estimate of future required
/// memory agrees with the engine's measured peak when predictions are
/// exact (oracle).
#[test]
fn oracle_estimate_is_tight_against_engine_peak() {
    let config = SimConfig::builder(ModelSpec::llama2_7b(), GpuSpec::a100_80g())
        .scheduler(SchedulerConfig::Oracle)
        .capacity_override(3_000)
        .seed(10)
        .build();
    let requests = datasets::from_samplers(
        96,
        12,
        &LengthSampler::uniform(8, 64),
        &LengthSampler::uniform(32, 320),
        512,
    );
    let report = Simulation::offline(config, requests).run().unwrap();
    // The oracle packs the memory: peak close to capacity, never above.
    assert!(report.peak_consumed_frac <= 1.0);
    assert!(
        report.peak_consumed_frac > 0.97,
        "oracle should pack tightly, peaked at {}",
        report.peak_consumed_frac
    );
    assert_eq!(report.evictions, 0);
}

/// The estimator, KV accounting and engine agree for a hand-computed
/// two-request scenario.
#[test]
fn hand_computed_scenario_matches() {
    // Two requests, sequential completion: (input 10, output 4) and
    // (input 20, output 8). Both admitted at t=0 by the oracle iff
    // capacity fits M*.
    let entries = [
        BatchEntry {
            committed: 11,
            remaining: 3,
        }, // post-prefill state
        BatchEntry {
            committed: 21,
            remaining: 7,
        },
    ];
    let m_star = FutureMemoryEstimator::peak_memory(&entries);
    // Sorted desc: (21,7),(11,3): M1 = 28, M2 = 32 + 6 = 38.
    assert_eq!(m_star, 38);
    let requests = vec![
        RequestSpec::new(0u64, 10, 4, 16),
        RequestSpec::new(1u64, 20, 8, 16),
    ];
    let run_at = |capacity: u64| {
        let config = SimConfig::builder(ModelSpec::llama2_7b(), GpuSpec::a100_80g())
            .scheduler(SchedulerConfig::Oracle)
            .capacity_override(capacity)
            .seed(11)
            .build();
        Simulation::offline(config, requests.clone()).run().unwrap()
    };
    // At exactly M*, both requests run together: makespan is short.
    let tight = run_at(38);
    assert_eq!(tight.evictions, 0);
    // One token less forces serialization (second request admitted later).
    let short = run_at(37);
    assert_eq!(short.evictions, 0);
    assert!(short.makespan > tight.makespan);
}

/// Multimodal requests flow through the whole stack: image tokens occupy
/// KV and inflate prefill time.
#[test]
fn multimodal_image_tokens_cost_memory_and_time() {
    let with_images = datasets::textvqa_llava(48, 5);
    let text_only: Vec<RequestSpec> = with_images
        .iter()
        .map(|r| {
            RequestSpec::new(
                r.id.raw(),
                r.input_len - r.image_tokens,
                r.true_output_len,
                r.max_new_tokens,
            )
        })
        .collect();
    let run = |requests: Vec<RequestSpec>| {
        let config = SimConfig::builder(ModelSpec::llava_15_7b(), GpuSpec::a100_80g())
            .scheduler(SchedulerConfig::Oracle)
            .capacity_override(20_000)
            .seed(12)
            .build();
        Simulation::offline(config, requests).run().unwrap()
    };
    let multimodal = run(with_images);
    let text = run(text_only);
    assert!(multimodal.peak_consumed_frac > text.peak_consumed_frac);
    assert!(multimodal.makespan > text.makespan);
}

/// KV layouts only change overhead accounting, not workload outcomes.
#[test]
fn kv_layouts_complete_same_workload() {
    let requests = datasets::sharegpt(64, 20);
    for layout in [
        KvLayout::TokenPool,
        KvLayout::Paged { block_size: 16 },
        KvLayout::Contiguous,
    ] {
        let mut config = SimConfig::builder(ModelSpec::llama2_7b(), GpuSpec::a100_80g())
            .scheduler(SchedulerConfig::conservative())
            .capacity_override(120_000)
            .seed(13)
            .build();
        config.kv_layout = layout;
        let report = Simulation::offline(config, requests.clone()).run().unwrap();
        assert_eq!(report.completed, 64, "{layout:?}");
    }
}

/// Determinism across the whole stack: every crate seeded, bit-identical
/// reports.
#[test]
fn full_stack_determinism() {
    let run = || {
        let config = SimConfig::builder(ModelSpec::llama2_13b(), GpuSpec::h800())
            .scheduler(SchedulerConfig::past_future())
            .history_warmup(warmup(500, 91))
            .seed(14)
            .build();
        Simulation::closed_loop(
            config,
            datasets::mixed_phase(30, 92),
            ClosedLoopClients::new(12),
        )
        .run()
        .unwrap()
    };
    let a = run();
    let b = run();
    assert_eq!(a.makespan, b.makespan);
    assert_eq!(a.decode_steps, b.decode_steps);
    assert_eq!(a.prefill_steps, b.prefill_steps);
    assert_eq!(a.evictions, b.evictions);
    assert_eq!(
        a.goodput.satisfied_output_tokens,
        b.goodput.satisfied_output_tokens
    );
}

/// The prelude exposes everything the README quickstart needs.
#[test]
fn prelude_suffices_for_quickstart() {
    let requests = datasets::distribution_1(16, 7);
    let config = SimConfig::builder(ModelSpec::llama2_7b(), GpuSpec::a100_80g())
        .scheduler(SchedulerConfig::past_future())
        .seed(7)
        .build();
    let report = Simulation::offline(config, requests).run().unwrap();
    assert_eq!(report.completed, 16);
    assert!(report.goodput.total_output_tokens > 0);
}

/// Disaggregated serving with the exact KV index and slack-aware deadline
/// drops: block-granular prefill stores publish KV events, the prefill
/// purge peeks those stores, and a traced run reports exactly what the
/// untraced run does. Every submitted request ends exactly once —
/// completed, timed out, or unserved — and the trace carries one terminal
/// event per request.
#[test]
fn disagg_exact_index_tracing_is_transparent_and_accounts_every_request() {
    use pastfuture::sim::cluster::RouterPolicy;
    use pastfuture::sim::disagg::{DisaggCluster, DisaggConfig};
    use pastfuture::sim::{DisaggKvIndex, QueueOrder, RouterConfig};
    use pf_obs::{RecordingSink, TraceEvent};

    let n = 300;
    let deadline = SimDuration::from_millis(80);
    let run = |sink: Option<&mut dyn pf_obs::TraceSink>| {
        let spec = datasets::SharedSyspromptSpec::default();
        let (requests, arrivals) =
            datasets::shared_sysprompt_chat_timed(n, 64, &spec, 80.0, 2.0, 3.0);
        let base = SimConfig::builder(ModelSpec::llama2_7b(), GpuSpec::a100_80g())
            .scheduler(SchedulerConfig::past_future())
            .capacity_override(12_000)
            .record_series(false)
            .seed(64)
            .prefix_cache_blocks(0.4, 64)
            .queue_order(QueueOrder::least_slack())
            .request_deadline(deadline)
            .router(RouterConfig {
                disagg_kv_index: DisaggKvIndex::Exact,
                ..RouterConfig::default()
            })
            .build();
        let config = DisaggConfig::new(base).router(RouterPolicy::KvOverlap {
            overlap_weight: 1.0,
            temperature: 0.2,
        });
        DisaggCluster::new(config, 1, 2)
            .run_traced(requests, arrivals, sink)
            .unwrap()
    };
    let untraced = run(None);
    let mut sink = RecordingSink::new();
    let traced = run(Some(&mut sink));
    assert_eq!(format!("{untraced:?}"), format!("{traced:?}"));

    assert_eq!(
        traced.completed() + traced.timed_out + traced.unserved,
        n,
        "every submitted request is accounted for exactly once"
    );
    assert!(traced.timed_out > 0, "the deadline must bite");
    assert!(
        traced.prefix_stats.evictions > 0,
        "the block store must evict"
    );
    assert!(
        sink.events
            .iter()
            .any(|ev| matches!(ev, TraceEvent::KvRemoved { .. })),
        "block evictions reach the trace"
    );

    // One terminal event per served request; a drop past the deadline is
    // a timeout, one still inside it a slack-aware early drop.
    let mut terminal = vec![0u32; n];
    let mut enqueued = vec![SimTime::ZERO; n];
    let mut drops = [0usize; 2];
    for ev in &sink.events {
        match *ev {
            TraceEvent::Enqueued { at, request, .. } => enqueued[request as usize] = at,
            TraceEvent::Finished { request, .. } => terminal[request as usize] += 1,
            TraceEvent::TimedOut { at, request, .. }
            | TraceEvent::SlackDropped { at, request, .. } => {
                terminal[request as usize] += 1;
                let expired = at.saturating_since(enqueued[request as usize]) >= deadline;
                assert_eq!(expired, matches!(ev, TraceEvent::TimedOut { .. }), "{ev:?}");
                drops[usize::from(expired)] += 1;
            }
            _ => {}
        }
    }
    assert_eq!(drops[0] + drops[1], traced.timed_out);
    assert!(drops[0] > 0, "the slack-aware early drop must fire");
    let served = n - traced.unserved;
    assert_eq!(terminal.iter().filter(|&&c| c == 1).count(), served);
    assert!(terminal.iter().all(|&c| c <= 1), "no request ends twice");
}
