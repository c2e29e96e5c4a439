//! Superlinear-cost guard for the shared-link scheduler.
//!
//! Wall-clock gates on short runs cannot see a per-breakpoint loop that
//! walks every stream ever opened: at a hundred streams the rescan costs
//! microseconds. `LinkScheduler::stream_visits` counts the stream entries
//! the scheduler walks, and the count replays exactly, so comparing the
//! work per stream at two run lengths catches the rescan at any N.

use pastfuture::sim::link::{LinkScheduler, StreamDone, StreamSpec};

/// Steady joins every 50 ms on a 25 GB/s link with a 200 µs per-stream
/// overhead: 32 chunks, a 30 ms production window, 1–4 MB per stream.
/// Driven like a streamed-KV replay: before each join, drain the
/// completions due by its start, then open it and project the next
/// completion. Returns the scheduler's stream visits per stream.
fn visits_per_stream(n: u64) -> f64 {
    let mut link = LinkScheduler::new(25.0, 200);
    let mut done: Vec<StreamDone> = Vec::new();
    for i in 0..n {
        let start = i * 50_000;
        while let Some(next) = link.next_event_us().filter(|&t| t <= start) {
            done.clear();
            link.advance(next, &mut done);
            if done.is_empty() {
                break;
            }
        }
        // 1–4 MB, spread by a fixed multiplicative hash of the index.
        let bytes = 1_000_000 + (i.wrapping_mul(2_654_435_761) % 3_000_001);
        link.start_stream(
            start,
            StreamSpec {
                bytes,
                produce_start_us: start,
                produce_end_us: start + 30_000,
                chunks: 32,
                weight: 1.0,
            },
        );
        link.next_event_us();
    }
    link.stream_visits() as f64 / n as f64
}

/// The work per stream must not grow with the run length: an 8× longer
/// run may cost at most 25% more visits per stream. A scheduler that
/// rescans closed streams on every breakpoint grows this ratio with N.
#[test]
fn link_scheduler_work_per_stream_is_flat_in_run_length() {
    let short = visits_per_stream(500);
    let long = visits_per_stream(4_000);
    assert!(short > 0.0, "the scheduler visited no stream");
    assert!(
        long <= 1.25 * short,
        "visits per stream grew from {short:.1} (N = 500) to {long:.1} (N = 4000)"
    );
}
