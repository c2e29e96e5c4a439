//! The one prefix-reuse store of the crate, shared by the colocated
//! engine and the disaggregated prefill pool.
//!
//! A [`PrefixStore`] is either the legacy whole-prefix-id LRU or the
//! block-granular chained-hash store. Block matches are block *runs*
//! (crossing conversations via shared system prompts), block eviction is
//! suffix-granular, and only the block store publishes [`KvEvent`]s for
//! a global router index. The owner picks the kind at construction and
//! keeps its own occupancy charging: the engine charges the store against
//! its KV pool under a sentinel request id, the prefill pool keeps
//! `held + cache ≤ capacity`. This module never needs to know which.

use pf_kvcache::{BlockPrefixCache, KvEvent, PrefixCache, PrefixCacheStats};
use pf_metrics::SimTime;
use pf_obs::{TraceEvent, TraceSink};
use pf_workload::RequestSpec;

use crate::fleet;

/// A prefix-reuse store (see the module docs).
#[derive(Debug)]
pub(crate) enum PrefixStore {
    Whole(PrefixCache),
    Blocks(BlockPrefixCache),
}

impl PrefixStore {
    /// An empty store of `budget_tokens`: block-granular with blocks of
    /// `block_tokens` tokens when that is set, whole-prefix otherwise.
    pub(crate) fn new(budget_tokens: u64, block_tokens: Option<u32>) -> Self {
        match block_tokens {
            Some(block_tokens) => {
                PrefixStore::Blocks(BlockPrefixCache::new(budget_tokens, block_tokens))
            }
            None => PrefixStore::Whole(PrefixCache::new(budget_tokens)),
        }
    }

    #[inline]
    pub(crate) fn used_tokens(&self) -> u64 {
        match self {
            PrefixStore::Whole(cache) => cache.used_tokens(),
            PrefixStore::Blocks(store) => store.used_tokens(),
        }
    }

    /// Evicts least-recently-used entries (whole prefixes or leaf blocks)
    /// until occupancy is at most `target_tokens`.
    pub(crate) fn evict_down_to(&mut self, target_tokens: u64) {
        match self {
            PrefixStore::Whole(cache) => {
                cache.evict_down_to(target_tokens);
            }
            PrefixStore::Blocks(store) => {
                store.evict_down_to(target_tokens);
            }
        }
    }

    pub(crate) fn stats(&self) -> PrefixCacheStats {
        match self {
            PrefixStore::Whole(cache) => cache.stats(),
            PrefixStore::Blocks(store) => store.stats(),
        }
    }

    /// Cached overlap a request would enjoy right now, *without* touching
    /// recency or statistics — the router's probe and the slack purge's
    /// feasibility estimate.
    #[inline]
    pub(crate) fn peek_match(&self, spec: &RequestSpec) -> u64 {
        match self {
            PrefixStore::Whole(cache) => match spec.prefix_id {
                Some(id) => cache
                    .peek(id.raw())
                    .map_or(0, |cached| cached.min(u64::from(spec.prefix_len))),
                None => 0,
            },
            PrefixStore::Blocks(store) => {
                store.peek_run(spec.matchable_blocks(store.block_tokens() as u32))
            }
        }
    }

    /// Consumes an admission-time hit: the cached overlap in tokens,
    /// refreshing recency and counting lookup/hit statistics.
    pub(crate) fn lookup_match(&mut self, spec: &RequestSpec) -> u64 {
        match self {
            PrefixStore::Whole(cache) => match spec.prefix_id {
                Some(id) => cache.lookup(id.raw(), u64::from(spec.prefix_len)),
                None => 0,
            },
            PrefixStore::Blocks(store) => {
                let block_tokens = store.block_tokens() as u32;
                store.lookup_run(spec.matchable_blocks(block_tokens))
            }
        }
    }

    /// Retains `spec`'s conversation after `generated` output tokens: the
    /// whole store caches `input_len + generated` tokens under the
    /// request's prefix id, the block store the chain of its complete
    /// shared blocks. Requests with no reusable identity are not cached.
    ///
    /// A whole-prefix entry larger than `whole_limit` tokens is skipped:
    /// an owner that charges the store against a smaller pool would
    /// otherwise flush every other entry and then evict the new one too.
    /// Block chains ignore the limit, since eviction peels them from the
    /// tip and a truncated chain still serves its head.
    pub(crate) fn insert(&mut self, spec: &RequestSpec, generated: u32, whole_limit: u64) {
        match self {
            PrefixStore::Whole(cache) => {
                let Some(id) = spec.prefix_id else {
                    return;
                };
                let conversation = u64::from(spec.input_len) + u64::from(generated);
                if conversation <= whole_limit {
                    cache.insert(id.raw(), conversation);
                }
            }
            PrefixStore::Blocks(store) => {
                if spec.prefix_id.is_none() && spec.system_prompt_id.is_none() {
                    return;
                }
                let block_tokens = store.block_tokens() as u32;
                store.insert_chain(spec.storable_blocks(block_tokens, generated));
            }
        }
    }

    /// Drains the block store's pending [`KvEvent`]s into `out` (cleared
    /// first) and mirrors each, in order, to the trace sink as a
    /// [`TraceEvent::KvStored`]/[`TraceEvent::KvRemoved`] stamped `at` on
    /// `instance`. Returns the drained events for the owner's index feed.
    /// The whole-prefix store publishes no events and drains nothing.
    #[inline]
    pub(crate) fn drain_events<'a>(
        &mut self,
        at: SimTime,
        instance: u32,
        sink: &mut Option<&mut dyn TraceSink>,
        out: &'a mut Vec<KvEvent>,
    ) -> &'a [KvEvent] {
        out.clear();
        let PrefixStore::Blocks(store) = self else {
            return out;
        };
        if store.pending_events() == 0 {
            return out;
        }
        store.drain_events(out);
        for &ev in out.iter() {
            fleet::emit(
                sink,
                match ev {
                    KvEvent::Stored { block, .. } => TraceEvent::KvStored {
                        at,
                        instance,
                        block,
                    },
                    KvEvent::Removed { block } => TraceEvent::KvRemoved {
                        at,
                        instance,
                        block,
                    },
                },
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pf_obs::RecordingSink;

    /// Both store kinds, each holding sessions 1 (older) and 2 (newer) as
    /// 32-token conversations — exactly their 64-token budget.
    fn warm_stores() -> [PrefixStore; 2] {
        [PrefixStore::new(64, None), PrefixStore::new(64, Some(16))].map(|mut store| {
            for session in [1u64, 2] {
                let first_turn = RequestSpec::new(session, 32, 4, 4).with_prefix(session, 0);
                store.insert(&first_turn, 0, u64::MAX);
            }
            store
        })
    }

    /// The next turn of `session`, repeating its 32 cached tokens.
    fn next_turn(session: u64) -> RequestSpec {
        RequestSpec::new(100 + session, 48, 4, 4).with_prefix(session, 32)
    }

    /// Evicts one LRU unit and returns the session that lost tokens.
    fn lru_victim(store: &mut PrefixStore) -> u64 {
        store.evict_down_to(store.used_tokens() - 1);
        let lost: Vec<u64> = [1, 2]
            .into_iter()
            .filter(|&s| store.peek_match(&next_turn(s)) < 32)
            .collect();
        assert_eq!(lost.len(), 1, "{store:?}");
        lost[0]
    }

    #[test]
    fn peek_is_pure_and_lookup_counts_and_refreshes() {
        for mut store in warm_stores() {
            let before = store.stats();
            assert_eq!(store.peek_match(&next_turn(1)), 32, "{store:?}");
            assert_eq!(store.stats(), before, "peek counted: {store:?}");
            assert_eq!(lru_victim(&mut store), 1, "peek refreshed: {store:?}");
        }
        for mut store in warm_stores() {
            assert_eq!(store.lookup_match(&next_turn(1)), 32, "{store:?}");
            assert_eq!(store.lookup_match(&next_turn(9)), 0, "{store:?}");
            let stats = store.stats();
            let counted = (stats.lookups, stats.hits, stats.hit_tokens);
            assert_eq!(counted, (2, 1, 32), "{store:?}");
            assert_eq!(lru_victim(&mut store), 2, "lookup not refreshed: {store:?}");
        }
    }

    #[test]
    fn whole_limit_skips_only_whole_entries() {
        let spec = RequestSpec::new(1u64, 32, 4, 4).with_prefix(1u64, 0);
        let [mut whole, mut blocks] = [None, Some(16)].map(|b| PrefixStore::new(64, b));
        whole.insert(&spec, 0, 31);
        blocks.insert(&spec, 0, 31);
        assert_eq!((whole.used_tokens(), blocks.used_tokens()), (0, 32));
    }

    #[test]
    fn drain_mirrors_every_event_in_order() {
        let at = SimTime::from_millis(5);
        for mut store in warm_stores() {
            store.evict_down_to(0);
            let (mut sink, mut out) = (RecordingSink::new(), Vec::new());
            let drained = store.drain_events(at, 3, &mut Some(&mut sink), &mut out);
            let published: Vec<_> = drained
                .iter()
                .map(|ev| match *ev {
                    KvEvent::Stored { block, .. } => ("kv-stored", block),
                    KvEvent::Removed { block } => ("kv-removed", block),
                })
                .collect();
            let traced: Vec<_> =
                sink.events
                    .iter()
                    .map(|ev| match *ev {
                        TraceEvent::KvStored { block, .. }
                        | TraceEvent::KvRemoved { block, .. } => (ev.name(), block),
                        other => panic!("unexpected {other:?}"),
                    })
                    .collect();
            assert_eq!(traced, published, "{store:?}");
            assert!(sink
                .events
                .iter()
                .all(|ev| (ev.at(), ev.instance()) == (at, Some(3))));
            // Four blocks stored, then four removed; whole prefixes
            // publish nothing.
            let kinds: Vec<_> = published.iter().map(|&(kind, _)| kind).collect();
            match store {
                PrefixStore::Whole(_) => assert!(kinds.is_empty()),
                PrefixStore::Blocks(_) => {
                    assert_eq!(kinds, [["kv-stored"; 4], ["kv-removed"; 4]].concat());
                }
            }
            let again = store.drain_events(at, 3, &mut None, &mut out);
            assert!(again.is_empty(), "drained twice: {store:?}");
        }
    }
}
