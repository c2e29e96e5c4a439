//! Property tests for the shared-link fluid scheduler: chunk ordering,
//! byte conservation, capacity respect, per-stream overhead, and
//! deterministic replay.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

use pf_sim::link::{LinkScheduler, StreamDone, StreamSpec};

/// Drives the scheduler the way the disagg run does: wake at the next
/// projected completion, drain, repeat until the link is idle.
fn drive(link: &mut LinkScheduler) -> Vec<StreamDone> {
    let mut out = Vec::new();
    let mut buf = Vec::new();
    while let Some(at_us) = link.next_event_us() {
        link.advance(at_us, &mut buf);
        out.append(&mut buf);
    }
    out
}

fn spec(bytes: u64, start: u64, span: u64, chunks: u32, weight: f64) -> StreamSpec {
    StreamSpec {
        bytes,
        produce_start_us: start,
        produce_end_us: start + span,
        chunks,
        weight,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// For arbitrary stream mixes: every chunk lands in order and never
    /// before production makes it eligible, every stream delivers exactly
    /// its bytes, the link never moves more bytes than capacity times
    /// busy time, and the whole trajectory replays bit-identically.
    #[test]
    fn fluid_link_conserves_bytes_orders_chunks_and_respects_capacity(
        gbps in 1.0f64..100.0,
        overhead_us in 0u64..500,
        streams in proptest::collection::vec(
            (1_000u64..5_000_000, 0u64..200_000, 0u64..300_000, 1u32..48, 1.0f64..2.0),
            1..10,
        ),
    ) {
        let run = |record: bool| {
            let mut link = LinkScheduler::new(gbps, overhead_us).record_chunks(record);
            let mut ids = Vec::new();
            for &(bytes, start, span, chunks, weight) in &streams {
                ids.push(link.start_stream(start, spec(bytes, start, span, chunks, weight)));
            }
            let done = drive(&mut link);
            (link, ids, done)
        };
        let (link, ids, done) = run(true);

        prop_assert_eq!(done.len(), streams.len());
        prop_assert_eq!(link.inflight(), 0);
        let capacity_bytes_per_us = gbps * 1e3;
        let mut total_bytes = 0u64;
        for (&id, &(bytes, start, span, chunks, _)) in ids.iter().zip(&streams) {
            total_bytes += bytes;
            // Delivered bytes are conserved exactly (within fluid slack).
            prop_assert!((link.delivered_bytes(id) - bytes as f64).abs() < 1e-3);
            let landings = link.chunk_landings(id);
            prop_assert_eq!(landings.len(), chunks as usize);
            let mut prev = 0u64;
            for (k, &at) in landings.iter().enumerate() {
                // Chunk k never lands before chunk k-1 ...
                prop_assert!(at >= prev, "chunk {} landed at {} before {}", k, at, prev);
                prev = at;
                // ... and never before production makes it eligible.
                let eligible = start + (span * (k as u64 + 1)).div_ceil(u64::from(chunks));
                prop_assert!(
                    at >= eligible,
                    "chunk {} landed at {} before eligibility {}",
                    k, at, eligible,
                );
            }
            let this = done.iter().find(|d| d.id == id).expect("every stream completes");
            // The overhead is charged once per stream, after the last byte.
            prop_assert_eq!(this.done_us, this.transmit_end_us + overhead_us);
            prop_assert!(this.transmit_end_us >= start + span);
            prop_assert!(this.transmit_end_us + 1 >= *landings.last().expect("chunks >= 1"));
        }
        // Aggregate rate never exceeds the link: total bytes fit in the
        // busy-time integral at full capacity (1 µs of ceil slack per
        // breakpoint is absorbed by the fluid epsilon).
        prop_assert!(
            total_bytes as f64 <= capacity_bytes_per_us * (link.busy_secs() * 1e6) + 1.0,
            "moved {} bytes in {} busy-us at {} bytes/us",
            total_bytes, link.busy_secs() * 1e6, capacity_bytes_per_us,
        );

        // Deterministic replay: identical completions and landings.
        let (link2, ids2, done2) = run(true);
        prop_assert_eq!(done, done2);
        for (&a, &b) in ids.iter().zip(&ids2) {
            prop_assert_eq!(link.chunk_landings(a), link2.chunk_landings(b));
        }
    }
}

/// Charging the overhead per stream (not per chunk) means a stream's
/// completion time is independent of how finely it is chunked when
/// production is instantaneous.
#[test]
fn overhead_is_charged_once_per_stream_regardless_of_chunking() {
    let mut done_times = Vec::new();
    for chunks in [1u32, 8, 32, 128] {
        let mut link = LinkScheduler::new(25.0, 200);
        link.start_stream(0, spec(1_000_000, 0, 0, chunks, 1.0));
        let done = drive(&mut link);
        assert_eq!(done.len(), 1);
        done_times.push(done[0].done_us);
    }
    // 1 MB at 25 GB/s = 40 µs of wire time, plus one 200 µs overhead.
    assert!(done_times.iter().all(|&t| t == 40 + 200), "{done_times:?}");
}

/// Weighted max-min fair share: a weight-2 stream drains twice as fast as
/// a weight-1 rival while both are backlogged, and the freed share
/// redistributes after it completes.
#[test]
fn fair_share_splits_bandwidth_by_weight() {
    let mut link = LinkScheduler::new(1.0, 0); // 1 GB/s = 1e3 bytes/µs
    let heavy = link.start_stream(0, spec(1_000_000, 0, 0, 1, 2.0));
    let light = link.start_stream(0, spec(1_000_000, 0, 0, 1, 1.0));
    let done = drive(&mut link);
    let end = |id: usize| done.iter().find(|d| d.id == id).unwrap().transmit_end_us;
    // Heavy drains at rate 2C/3: 1e6 / (2e3/3) = 1500 µs. Light then has
    // 0.5e6 bytes left and the full link: 1500 + 500 = 2000 µs.
    assert_eq!(end(heavy), 1500);
    assert_eq!(end(light), 2000);
    assert!((link.busy_secs() - 2000e-6).abs() < 1e-9);
    assert!((link.utilization() - 1.0).abs() < 1e-9);
}

/// A stream throttled by production (link faster than the prefill pass)
/// lands each chunk at its eligibility boundary and finishes exactly at
/// the pass end plus its overhead.
#[test]
fn production_throttled_stream_finishes_with_the_pass() {
    let mut link = LinkScheduler::new(100.0, 50).record_chunks(true);
    // 10 kB over a 10 ms pass in 10 chunks: each 1 kB chunk needs 0.01 µs
    // of wire time but arrives every 1000 µs — pure eligibility limit.
    let id = link.start_stream(0, spec(10_000, 0, 10_000, 10, 1.0));
    let done = drive(&mut link);
    assert_eq!(done.len(), 1);
    assert_eq!(done[0].transmit_end_us, 10_001); // last chunk + 1 µs ceil
    assert_eq!(done[0].done_us, 10_051);
    for (k, &at) in link.chunk_landings(id).iter().enumerate() {
        let eligible = 1000 * (k as u64 + 1);
        assert!(at >= eligible && at <= eligible + 1, "chunk {k} at {at}");
    }
}

/// The caller's view of the link during an interleaved run: completions
/// in drain order, and each drained stream's delivered bytes and chunk
/// landings as read when it drained.
#[derive(Debug, Default, PartialEq)]
struct Books {
    drained: Vec<StreamDone>,
    closed: Vec<Option<(f64, Vec<u64>)>>,
}

impl Books {
    /// Takes in the completions in `buf`, then checks the link against
    /// the books: `inflight()` is opened minus drained, no id drains
    /// twice, and every closed stream still reads its exact bytes and
    /// landings.
    fn settle(
        &mut self,
        link: &LinkScheduler,
        buf: &mut Vec<StreamDone>,
        streams: &[(u64, u64, u64, u32, f64)],
    ) -> Result<(), TestCaseError> {
        for done in buf.drain(..) {
            prop_assert!(
                self.closed[done.id].is_none(),
                "stream {} drained twice",
                done.id
            );
            let (bytes, _, _, chunks, _) = streams[done.id];
            let delivered = link.delivered_bytes(done.id);
            prop_assert!((delivered - bytes as f64).abs() < 1e-3);
            prop_assert_eq!(link.chunk_landings(done.id).len(), chunks as usize);
            self.closed[done.id] = Some((delivered, link.chunk_landings(done.id).to_vec()));
            self.drained.push(done);
        }
        prop_assert_eq!(link.inflight(), self.closed.len() - self.drained.len());
        for (id, entry) in self.closed.iter().enumerate() {
            if let Some((delivered, landings)) = entry {
                prop_assert_eq!(link.delivered_bytes(id), *delivered);
                prop_assert_eq!(link.chunk_landings(id), landings.as_slice());
            }
        }
        Ok(())
    }
}

/// Opens streams the way the disagg run does — drain the completions due
/// by each stream's start, then `start_stream` — settling the books after
/// every step. Returns the books and the scheduler's work count.
fn run_interleaved(
    gbps: f64,
    overhead_us: u64,
    streams: &[(u64, u64, u64, u32, f64)],
) -> Result<(Books, u64), TestCaseError> {
    let mut link = LinkScheduler::new(gbps, overhead_us).record_chunks(true);
    let mut books = Books::default();
    let mut buf = Vec::new();
    let mut start = 0u64;
    for &(bytes, gap, span, chunks, weight) in streams {
        start += gap;
        while let Some(next) = link.next_event_us().filter(|&t| t <= start) {
            link.advance(next, &mut buf);
            books.settle(&link, &mut buf, streams)?;
        }
        link.advance(start, &mut buf);
        books.settle(&link, &mut buf, streams)?;
        let id = link.start_stream(start, spec(bytes, start, span, chunks, weight));
        prop_assert_eq!(id, books.closed.len());
        books.closed.push(None);
        books.settle(&link, &mut buf, streams)?;
    }
    while let Some(next) = link.next_event_us() {
        link.advance(next, &mut buf);
        books.settle(&link, &mut buf, streams)?;
    }
    prop_assert_eq!(books.drained.len(), streams.len());
    prop_assert!(books.closed.iter().all(Option::is_some));
    Ok((books, link.stream_visits()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Joins interleaved with completions, as in a disagg run: the open
    /// list shrinks and grows across many breakpoints while every id
    /// drains exactly once, closed streams stay readable and exact, and a
    /// second run replays the completions, landings and work count.
    #[test]
    fn joins_after_completions_keep_books_exact_and_replay(
        gbps in 1.0f64..100.0,
        overhead_us in 0u64..500,
        streams in proptest::collection::vec(
            (1_000u64..5_000_000, 0u64..80_000, 0u64..300_000, 1u32..48, 1.0f64..2.0),
            1..24,
        ),
    ) {
        let first = run_interleaved(gbps, overhead_us, &streams)?;
        let second = run_interleaved(gbps, overhead_us, &streams)?;
        prop_assert_eq!(first, second);
    }
}
