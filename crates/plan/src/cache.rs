//! Hot-query result caching: [`CachedIndex`] wraps any
//! [`MetricIndex`] with an exact, sharded, cost-weighted LRU of query
//! answers, plus admissible radius seeding of fresh queries from
//! cached near-duplicate answers.
//!
//! ## Exactness and invalidation
//!
//! Entries are keyed on the **canonicalised** query: the request kind,
//! the query string, the metric's name, and every [`QueryOptions`]
//! field (`radius`, `k` for k-NN, `pivot_budget`). A hit replays the
//! stored neighbours *and* the
//! stored [`SearchStats`] — bit-identical to the call that populated
//! the entry.
//!
//! Writes invalidate everything: [`MetricIndex::delete`] and
//! [`InsertableIndex::insert`] take `&mut self`, which is exactly the
//! exclusivity the serving scheduler's insert/delete barrier provides
//! — queries batched before the barrier hit the old cache, the barrier
//! flushes, queries after it repopulate against the new corpus. A
//! stale answer would require a query and a write to overlap, which
//! the barrier forbids.
//!
//! ## Radius seeding (admissible, answer-preserving)
//!
//! On a **miss**, the cache consults a small ring of recently answered
//! queries. If a cached query `q'` has `k` results with k-th distance
//! `d_k`, the triangle inequality gives `d(q, q') + d_k` as an upper
//! bound on the fresh query's own k-th-nearest distance, so seeding
//! [`QueryOptions::radius`] with it can only *reject* candidates that
//! were never going to win — the reported neighbours are identical,
//! only the work (and therefore the fresh query's `SearchStats`)
//! shrinks. The probe distance `d(q, q')` is real work too; it is
//! counted in [`CacheStats::probe_computations`], and seeding is
//! skipped entirely for range queries (their radius is the question,
//! not a bound).
//!
//! ## Weighted LRU
//!
//! Each entry weighs `1 +` the distance evaluations its answer cost —
//! a capacity expressed in *recompute cost*, so one answer that took
//! 10 000 evaluations can displace thousands of trivial ones, and
//! eviction pressure tracks what the cache actually saves. Keys are
//! distributed over shards by hash; each shard is an independent
//! LRU (hash-keyed lookups plus an explicit intrusive list — nothing
//! ever iterates a hash map).

use cned_core::metric::Distance;
use cned_core::Symbol;
use cned_search::{
    InsertableIndex, MetricIndex, Neighbour, QueryOptions, SearchError, SearchStats,
};
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Knobs for [`CachedIndex`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheConfig {
    /// Number of independent LRU shards (keys are hash-distributed).
    pub shards: usize,
    /// Total weight budget per shard, in recompute cost
    /// (`1 + distance_computations` per entry).
    pub shard_capacity: u64,
    /// Entries in each shard's radius-seeding ring (`0` disables
    /// seeding).
    pub seed_ring: usize,
}

impl Default for CacheConfig {
    fn default() -> CacheConfig {
        CacheConfig {
            shards: 8,
            shard_capacity: 1 << 20,
            seed_ring: 4,
        }
    }
}

/// Counters exposed by [`CachedIndex::cache_stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Queries answered straight from the cache.
    pub hits: u64,
    /// Queries that went to the inner index.
    pub misses: u64,
    /// Misses whose search radius was seeded from a cached
    /// near-duplicate answer.
    pub seeded: u64,
    /// Distance evaluations spent probing seed candidates (not part
    /// of any query's `SearchStats`).
    pub probe_computations: u64,
    /// Full flushes taken on the insert/delete barrier.
    pub invalidations: u64,
}

const KIND_KNN: u8 = 1;
const KIND_RANGE: u8 = 2;

/// Canonical cache key: only what can change the answer.
#[derive(Clone, PartialEq, Eq, Hash)]
struct Key<S> {
    kind: u8,
    query: Vec<S>,
    /// `metric.name()` — guards against the same wrapper being queried
    /// through two different distances.
    metric: &'static str,
    /// `opts.radius.to_bits()`; NaN radii are never cached (they are
    /// typed errors).
    radius_bits: u64,
    /// `opts.k` for k-NN (NN is cached as its `k = 1` case), `0` for
    /// range, which ignores `k`.
    k: usize,
    /// `opts.pivot_budget`, `u64::MAX` for "all pivots".
    pivot_budget: u64,
}

/// A cached answer: the neighbours and the statistics of the call
/// that produced them.
type Answer = (Vec<Neighbour>, SearchStats);

const NONE: usize = usize::MAX;

struct Slot<S> {
    key: Key<S>,
    answer: Answer,
    weight: u64,
    prev: usize,
    next: usize,
}

/// A seed-ring entry: a recently answered query and its result
/// distances in canonical (ascending) order, tagged with the metric
/// they were measured under (a bound mixing two metrics would be
/// inadmissible).
struct SeedEntry<S> {
    query: Vec<S>,
    metric: &'static str,
    result_dists: Vec<f64>,
}

struct Shard<S> {
    map: HashMap<Key<S>, usize>,
    slots: Vec<Slot<S>>,
    free: Vec<usize>,
    /// Most-recently-used slot (`NONE` when empty).
    head: usize,
    /// Least-recently-used slot (`NONE` when empty).
    tail: usize,
    weight: u64,
    ring: Vec<SeedEntry<S>>,
    ring_at: usize,
}

impl<S: Symbol + Hash> Shard<S> {
    fn new() -> Shard<S> {
        Shard {
            map: HashMap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            head: NONE,
            tail: NONE,
            weight: 0,
            ring: Vec::new(),
            ring_at: 0,
        }
    }

    fn unlink(&mut self, at: usize) {
        let (prev, next) = (self.slots[at].prev, self.slots[at].next);
        if prev == NONE {
            self.head = next;
        } else {
            self.slots[prev].next = next;
        }
        if next == NONE {
            self.tail = prev;
        } else {
            self.slots[next].prev = prev;
        }
    }

    fn push_front(&mut self, at: usize) {
        self.slots[at].prev = NONE;
        self.slots[at].next = self.head;
        if self.head != NONE {
            self.slots[self.head].prev = at;
        }
        self.head = at;
        if self.tail == NONE {
            self.tail = at;
        }
    }

    fn get(&mut self, key: &Key<S>) -> Option<Answer> {
        let at = *self.map.get(key)?;
        self.unlink(at);
        self.push_front(at);
        Some(self.slots[at].answer.clone())
    }

    fn insert(&mut self, key: Key<S>, answer: Answer, weight: u64, capacity: u64) {
        if let Some(&at) = self.map.get(&key) {
            self.weight = self.weight - self.slots[at].weight + weight;
            self.slots[at].answer = answer;
            self.slots[at].weight = weight;
            self.unlink(at);
            self.push_front(at);
        } else {
            let slot = Slot {
                key: key.clone(),
                answer,
                weight,
                prev: NONE,
                next: NONE,
            };
            let at = match self.free.pop() {
                Some(at) => {
                    self.slots[at] = slot;
                    at
                }
                None => {
                    self.slots.push(slot);
                    self.slots.len() - 1
                }
            };
            self.map.insert(key, at);
            self.push_front(at);
            self.weight += weight;
        }
        // Evict from the cold end until within budget; an entry
        // heavier than the whole budget is kept alone (evicting the
        // only entry would make the cache useless for exactly the
        // answers worth caching).
        while self.weight > capacity && self.tail != self.head {
            let victim = self.tail;
            self.unlink(victim);
            self.map.remove(&self.slots[victim].key);
            self.weight -= self.slots[victim].weight;
            self.slots[victim].answer = (Vec::new(), SearchStats::default());
            self.slots[victim].key.query = Vec::new();
            self.free.push(victim);
        }
    }

    fn remember_seed(
        &mut self,
        query: &[S],
        metric: &'static str,
        result_dists: Vec<f64>,
        ring_cap: usize,
    ) {
        if ring_cap == 0 || result_dists.is_empty() {
            return;
        }
        let entry = SeedEntry {
            query: query.to_vec(),
            metric,
            result_dists,
        };
        if self.ring.len() < ring_cap {
            self.ring.push(entry);
        } else {
            self.ring[self.ring_at] = entry;
            self.ring_at = (self.ring_at + 1) % ring_cap;
        }
    }

    fn clear(&mut self) {
        self.map.clear();
        self.slots.clear();
        self.free.clear();
        self.head = NONE;
        self.tail = NONE;
        self.weight = 0;
        self.ring.clear();
        self.ring_at = 0;
    }
}

/// The shared counter block behind a [`CachedIndex`] and its
/// [`CacheHandle`]s.
#[derive(Default)]
struct Counters {
    hits: AtomicU64,
    misses: AtomicU64,
    seeded: AtomicU64,
    probes: AtomicU64,
    invalidations: AtomicU64,
}

impl Counters {
    fn snapshot(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            seeded: self.seeded.load(Ordering::Relaxed),
            probe_computations: self.probes.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
        }
    }
}

/// A cloneable view of a [`CachedIndex`]'s counters that outlives
/// moving the index itself into a session or server — how the
/// `cned::Database` facade reports hit rates while the wrapped index
/// is busy serving.
#[derive(Clone)]
pub struct CacheHandle {
    counters: Arc<Counters>,
}

impl CacheHandle {
    /// Counters since the cache was constructed.
    pub fn stats(&self) -> CacheStats {
        self.counters.snapshot()
    }
}

/// An exact result cache in front of any [`MetricIndex`] — see the
/// module docs for semantics. Construct with [`CachedIndex::new`],
/// unwrap with [`CachedIndex::into_inner`].
pub struct CachedIndex<S: Symbol + Hash, I: MetricIndex<S>> {
    inner: I,
    shards: Vec<Mutex<Shard<S>>>,
    config: CacheConfig,
    counters: Arc<Counters>,
}

impl<S: Symbol + Hash, I: MetricIndex<S>> CachedIndex<S, I> {
    /// Wrap `inner` with a result cache.
    pub fn new(inner: I, config: CacheConfig) -> CachedIndex<S, I> {
        let shard_count = config.shards.max(1);
        CachedIndex {
            inner,
            shards: (0..shard_count).map(|_| Mutex::new(Shard::new())).collect(),
            config,
            counters: Arc::new(Counters::default()),
        }
    }

    /// The wrapped index.
    pub fn inner(&self) -> &I {
        &self.inner
    }

    /// Unwrap, discarding the cache.
    pub fn into_inner(self) -> I {
        self.inner
    }

    /// A detached, cloneable view of the counters.
    pub fn handle(&self) -> CacheHandle {
        CacheHandle {
            counters: Arc::clone(&self.counters),
        }
    }

    /// Counters since construction.
    pub fn cache_stats(&self) -> CacheStats {
        self.counters.snapshot()
    }

    /// Drop every cached answer and seed entry. Called on the write
    /// barrier; also available to benchmarks.
    pub fn flush(&self) {
        for shard in &self.shards {
            shard.lock().expect("cache shard lock").clear();
        }
        self.counters.invalidations.fetch_add(1, Ordering::Relaxed);
    }

    fn shard_for(&self, key: &Key<S>) -> &Mutex<Shard<S>> {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[(h.finish() % self.shards.len() as u64) as usize]
    }

    /// Admissible radius bound for a fresh query wanting `k` results:
    /// the minimum over seed-ring candidates `q'` (with at least `k`
    /// cached results) of `d(q, q') + d_k(q')`. Returns the bound and
    /// how many probe distances it cost.
    fn seed_bound(
        &self,
        shard: &Mutex<Shard<S>>,
        query: &[S],
        dist: &dyn Distance<S>,
        k: usize,
    ) -> Option<f64> {
        if self.config.seed_ring == 0 || k == 0 {
            return None;
        }
        // Copy the candidates out so no lock is held across distance
        // evaluations (they can be arbitrarily slow).
        let candidates: Vec<(Vec<S>, f64)> = {
            let guard = shard.lock().expect("cache shard lock");
            guard
                .ring
                .iter()
                .filter(|e| e.metric == dist.name() && e.result_dists.len() >= k)
                .map(|e| (e.query.clone(), e.result_dists[k - 1]))
                .collect()
        };
        if candidates.is_empty() {
            return None;
        }
        self.counters
            .probes
            .fetch_add(candidates.len() as u64, Ordering::Relaxed);
        candidates
            .iter()
            .map(|(cq, dk)| dist.distance(query, cq) + dk)
            .min_by(|a, b| a.total_cmp(b))
    }

    fn key(kind: u8, query: &[S], dist: &dyn Distance<S>, opts: &QueryOptions) -> Key<S> {
        Key {
            kind,
            query: query.to_vec(),
            metric: dist.name(),
            radius_bits: opts.radius.to_bits(),
            k: if kind == KIND_KNN { opts.k } else { 0 },
            pivot_budget: opts
                .pivot_budget
                .map_or(u64::MAX, |p| (p as u64).min(u64::MAX - 1)),
        }
    }

    /// Whether this call can be cached at all: error paths (empty
    /// index, NaN/negative radius) must keep producing typed errors.
    fn cacheable(&self, opts: &QueryOptions) -> bool {
        !self.inner.is_empty() && opts.checked_radius().is_ok()
    }
}

impl<S: Symbol + Hash, I: MetricIndex<S>> MetricIndex<S> for CachedIndex<S, I> {
    fn len(&self) -> usize {
        self.inner.len()
    }

    fn backend_name(&self) -> &'static str {
        self.inner.backend_name()
    }

    fn item(&self, i: usize) -> Option<&[S]> {
        self.inner.item(i)
    }

    fn knn(
        &self,
        query: &[S],
        dist: &dyn Distance<S>,
        opts: &QueryOptions,
    ) -> Result<(Vec<Neighbour>, SearchStats), SearchError> {
        if !self.cacheable(opts) {
            return self.inner.knn(query, dist, opts);
        }
        let key = Self::key(KIND_KNN, query, dist, opts);
        let shard = self.shard_for(&key);
        if let Some((hits, stats)) = shard.lock().expect("cache shard lock").get(&key) {
            self.counters.hits.fetch_add(1, Ordering::Relaxed);
            return Ok((hits, stats));
        }
        self.counters.misses.fetch_add(1, Ordering::Relaxed);
        let mut eff = opts.clone();
        if let Some(bound) = self.seed_bound(shard, query, dist, opts.k) {
            if bound.total_cmp(&eff.radius).is_lt() {
                eff.radius = bound;
                self.counters.seeded.fetch_add(1, Ordering::Relaxed);
            }
        }
        let (hits, stats) = self.inner.knn(query, dist, &eff)?;
        let mut guard = shard.lock().expect("cache shard lock");
        guard.insert(
            key,
            (hits.clone(), stats),
            1 + stats.distance_computations,
            self.config.shard_capacity,
        );
        guard.remember_seed(
            query,
            dist.name(),
            hits.iter().map(|n| n.distance).collect(),
            self.config.seed_ring,
        );
        Ok((hits, stats))
    }

    fn range(
        &self,
        query: &[S],
        dist: &dyn Distance<S>,
        opts: &QueryOptions,
    ) -> Result<(Vec<Neighbour>, SearchStats), SearchError> {
        if !self.cacheable(opts) {
            return self.inner.range(query, dist, opts);
        }
        let key = Self::key(KIND_RANGE, query, dist, opts);
        let shard = self.shard_for(&key);
        if let Some((hits, stats)) = shard.lock().expect("cache shard lock").get(&key) {
            self.counters.hits.fetch_add(1, Ordering::Relaxed);
            return Ok((hits, stats));
        }
        self.counters.misses.fetch_add(1, Ordering::Relaxed);
        // No seeding: the radius *is* the question for a range query.
        let (hits, stats) = self.inner.range(query, dist, opts)?;
        let mut guard = shard.lock().expect("cache shard lock");
        guard.insert(
            key,
            (hits.clone(), stats),
            1 + stats.distance_computations,
            self.config.shard_capacity,
        );
        Ok((hits, stats))
    }

    fn delete(&mut self, index: usize) -> Result<bool, SearchError> {
        // Flush-before-write: even a failed delete leaves no window
        // where a racing reader could repopulate from pre-write state,
        // because `&mut self` IS the barrier — no readers exist now.
        self.flush();
        self.inner.delete(index)
    }

    fn deleted(&self) -> usize {
        self.inner.deleted()
    }

    fn is_deleted(&self, i: usize) -> bool {
        self.inner.is_deleted(i)
    }

    fn as_insertable(&mut self) -> Option<&mut dyn InsertableIndex<S>> {
        if self.inner.as_insertable().is_some() {
            Some(self)
        } else {
            None
        }
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        // Persistence reaches through the cache to the real structure.
        self.inner.as_any()
    }
}

impl<S: Symbol + Hash, I: MetricIndex<S>> InsertableIndex<S> for CachedIndex<S, I> {
    fn insert(&mut self, item: Vec<S>, dist: &dyn Distance<S>) -> Result<usize, SearchError> {
        self.flush();
        self.inner
            .as_insertable()
            .ok_or(SearchError::UnsupportedConfig {
                reason: "this backend does not support inserts",
            })?
            .insert(item, dist)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cned_core::levenshtein::Levenshtein;
    use cned_search::LinearIndex;

    fn words() -> Vec<Vec<u8>> {
        ["casa", "cosa", "masa", "taza", "cesta", "pasta", "queso"]
            .iter()
            .map(|w| w.as_bytes().to_vec())
            .collect()
    }

    fn cached() -> CachedIndex<u8, LinearIndex<u8>> {
        CachedIndex::new(LinearIndex::new(words()), CacheConfig::default())
    }

    #[test]
    fn hits_replay_bit_identical_answers_and_stats() {
        let index = cached();
        let opts = QueryOptions::new();
        let (a, s1) = index.nn(b"cesa", &Levenshtein, &opts).unwrap();
        let (b, s2) = index.nn(b"cesa", &Levenshtein, &opts).unwrap();
        assert_eq!(
            a.map(|n| (n.index, n.distance.to_bits())),
            b.map(|n| (n.index, n.distance.to_bits()))
        );
        assert_eq!(s1, s2, "a hit replays the original statistics");
        let stats = index.cache_stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    #[test]
    fn kind_and_options_partition_the_key_space() {
        let index = cached();
        let (nn_hits, _) = index
            .knn(b"casa", &Levenshtein, &QueryOptions::new().k(3))
            .unwrap();
        let (r_hits, _) = index
            .range(b"casa", &Levenshtein, &QueryOptions::new().radius(1.0))
            .unwrap();
        assert_eq!(nn_hits.len(), 3);
        assert!(!r_hits.is_empty());
        // Different k = different key, not a stale 3-NN replay.
        let (k5, _) = index
            .knn(b"casa", &Levenshtein, &QueryOptions::new().k(5))
            .unwrap();
        assert_eq!(k5.len(), 5);
        assert_eq!(index.cache_stats().hits, 0);
    }

    #[test]
    fn insert_and_delete_flush_the_cache() {
        let mut index = cached();
        let opts = QueryOptions::new();
        let (before, _) = index.nn(b"queso", &Levenshtein, &opts).unwrap();
        assert_eq!(before.unwrap().distance, 0.0);
        let queso = words().iter().position(|w| w == b"queso").unwrap();
        assert!(index.delete(queso).unwrap());
        let (after, _) = index.nn(b"queso", &Levenshtein, &opts).unwrap();
        assert_ne!(
            after.unwrap().index,
            queso,
            "the barrier flushed the stale answer"
        );
        index
            .as_insertable()
            .unwrap()
            .insert(b"queso".to_vec(), &Levenshtein)
            .unwrap();
        let (back, _) = index.nn(b"queso", &Levenshtein, &opts).unwrap();
        assert_eq!(back.unwrap().distance, 0.0);
        assert_eq!(index.cache_stats().invalidations, 2);
    }

    #[test]
    fn radius_seeding_never_changes_answers() {
        let corpus: Vec<Vec<u8>> = (0..200u32)
            .map(|i| format!("word{:03}x{}", i % 50, i / 50).into_bytes())
            .collect();
        let plain = LinearIndex::new(corpus.clone());
        let seeded = CachedIndex::new(
            LinearIndex::new(corpus),
            CacheConfig {
                seed_ring: 4,
                ..CacheConfig::default()
            },
        );
        let queries: Vec<Vec<u8>> = (0..40u32)
            .map(|i| format!("word{:03}", i).into_bytes())
            .collect();
        let opts = QueryOptions::new().k(3);
        for q in &queries {
            let (expect, _) = plain.knn(q, &Levenshtein, &opts).unwrap();
            let (got, _) = seeded.knn(q, &Levenshtein, &opts).unwrap();
            let key = |ns: &[Neighbour]| -> Vec<(usize, u64)> {
                ns.iter().map(|n| (n.index, n.distance.to_bits())).collect()
            };
            assert_eq!(key(&expect), key(&got), "query {q:?}");
        }
        let stats = seeded.cache_stats();
        assert!(stats.seeded > 0, "near-duplicate queries should seed");
    }

    #[test]
    fn weighted_eviction_respects_the_budget() {
        let index = CachedIndex::new(
            LinearIndex::new(words()),
            CacheConfig {
                shards: 1,
                // Each miss weighs 1 + 7 computations = 8.
                shard_capacity: 16,
                seed_ring: 0,
            },
        );
        let opts = QueryOptions::new();
        index.nn(b"aaa", &Levenshtein, &opts).unwrap();
        index.nn(b"bbb", &Levenshtein, &opts).unwrap();
        index.nn(b"ccc", &Levenshtein, &opts).unwrap(); // evicts "aaa"
        index.nn(b"aaa", &Levenshtein, &opts).unwrap(); // miss again
        let stats = index.cache_stats();
        assert_eq!((stats.hits, stats.misses), (0, 4));
        // The survivors still hit.
        index.nn(b"aaa", &Levenshtein, &opts).unwrap();
        assert_eq!(index.cache_stats().hits, 1);
    }

    #[test]
    fn error_paths_stay_typed_and_uncached() {
        let index = CachedIndex::new(
            LinearIndex::new(Vec::<Vec<u8>>::new()),
            CacheConfig::default(),
        );
        assert_eq!(
            index
                .nn(b"x", &Levenshtein, &QueryOptions::new())
                .unwrap_err(),
            SearchError::EmptyDatabase
        );
        let full = cached();
        assert!(matches!(
            full.range(b"x", &Levenshtein, &QueryOptions::new().radius(-1.0))
                .unwrap_err(),
            SearchError::InvalidRadius { .. }
        ));
        let stats = full.cache_stats();
        assert_eq!((stats.hits, stats.misses), (0, 0));
    }
}
