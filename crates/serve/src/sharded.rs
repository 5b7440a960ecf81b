//! [`ShardedIndex`] — the database partitioned into contiguous LAESA
//! shards, queried with cross-shard bound propagation (see the crate
//! docs for the invariant), plus a linearly-scanned delta shard for
//! incremental inserts.
//!
//! Global result indices are positions in the concatenated database
//! (shard 0's items, then shard 1's, …, then the delta shard), which
//! for an index built by [`ShardedIndex::try_build`] is exactly the
//! input order — so results are interchangeable with a single-index or
//! linear-scan run over the same data.

use cned_core::metric::{Distance, PreparedQuery};
use cned_core::Symbol;
use cned_search::laesa::Laesa;
use cned_search::linear::{scan_knn_into, scan_range_into};
use cned_search::pivots::select_pivots_max_sum;
use cned_search::{
    par_map, InsertableIndex, MetricIndex, Neighbour, QueryOptions, SearchError, SearchStats,
    TombstoneSet,
};

/// Shape of a [`ShardedIndex`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardConfig {
    /// Number of LAESA shards the initial database is split into
    /// (clamped to the database size; at least 1).
    pub shards: usize,
    /// Max-sum pivots per shard (clamped to each shard's size).
    pub pivots_per_shard: usize,
    /// Delta-shard size that triggers compaction: once this many
    /// inserts accumulate, they are rebuilt into a fresh LAESA shard.
    pub compact_threshold: usize,
    /// Rebalancing floor, as a percentage of the size-balanced shard
    /// size (`indexed items / shards`). After each compaction, runs of
    /// **two or more consecutive** shards each smaller than
    /// `target * min_fill_percent / 100` are merged back into
    /// target-sized shards (see [`ShardedIndex::rebalance`]). `0`
    /// disables rebalancing, reproducing the old append-only layout.
    pub min_fill_percent: u8,
}

impl Default for ShardConfig {
    fn default() -> ShardConfig {
        ShardConfig {
            shards: 4,
            pivots_per_shard: 16,
            compact_threshold: 64,
            min_fill_percent: 50,
        }
    }
}

struct Shard<S: Symbol> {
    /// Global index of this shard's first element.
    offset: usize,
    index: Laesa<S>,
}

/// A database partitioned into `k` LAESA shards plus a delta shard.
pub struct ShardedIndex<S: Symbol> {
    shards: Vec<Shard<S>>,
    /// Items inserted since the last compaction; global indices
    /// `indexed_len..indexed_len + delta.len()`, scanned linearly.
    delta: Vec<Vec<S>>,
    /// Number of items living in LAESA shards.
    indexed_len: usize,
    config: ShardConfig,
    preprocessing_computations: u64,
    /// Logically deleted global indices. Compaction and rebalancing
    /// never renumber global indices (shards merge contiguously), so
    /// the set survives both untouched; physical removal is an
    /// explicit vacuum/rebuild at the facade.
    tombstones: TombstoneSet,
}

impl<S: Symbol> ShardedIndex<S> {
    /// Partition `db` into `config.shards` contiguous chunks and build
    /// one LAESA index per chunk, **in parallel** across shards (via
    /// [`cned_search::parallel`]; each shard's pivot selection and row
    /// computation run inside its worker).
    pub fn try_build<D: Distance<S> + ?Sized>(
        mut db: Vec<Vec<S>>,
        config: ShardConfig,
        dist: &D,
    ) -> Result<ShardedIndex<S>, SearchError> {
        let n = db.len();
        let k = config.shards.max(1).min(n.max(1));
        // Near-equal contiguous chunks: the first `n % k` shards take
        // one extra item, so offsets are a pure function of (n, k).
        let base = n / k;
        let extra = n % k;
        let mut bounds = Vec::with_capacity(k + 1);
        let mut at = 0;
        bounds.push(0);
        for s in 0..k {
            at += base + usize::from(s < extra);
            bounds.push(at);
        }
        // Split the owned database into per-shard chunks by moving the
        // strings (split_off from the back) — building must not double
        // the database's memory footprint. Each slot hands its chunk
        // to exactly one worker.
        let mut chunks: Vec<std::sync::Mutex<Option<Vec<Vec<S>>>>> = Vec::with_capacity(k);
        for s in (0..k).rev() {
            chunks.push(std::sync::Mutex::new(Some(db.split_off(bounds[s]))));
        }
        chunks.reverse();
        let shards: Vec<Shard<S>> = par_map(k, |s| {
            let chunk = chunks[s]
                .lock()
                .expect("chunk mutex never poisoned")
                .take()
                .expect("each chunk consumed exactly once");
            let pivots = if chunk.is_empty() {
                Vec::new()
            } else {
                select_pivots_max_sum(&chunk, config.pivots_per_shard, 0, dist)
            };
            Shard {
                offset: bounds[s],
                index: Laesa::try_build(chunk, pivots, dist)
                    .expect("max-sum pivot selection yields valid, distinct indices"),
            }
        });
        let preprocessing_computations = shards
            .iter()
            .map(|s| s.index.preprocessing_computations())
            .sum();
        Ok(ShardedIndex {
            shards,
            delta: Vec::new(),
            indexed_len: n,
            config,
            preprocessing_computations,
            tombstones: TombstoneSet::new(),
        })
    }

    /// Total items (indexed shards + delta).
    pub fn len(&self) -> usize {
        self.indexed_len + self.delta.len()
    }

    /// Whether the index holds no items at all.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of LAESA shards (compaction appends new ones).
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Items currently awaiting compaction in the delta shard.
    pub fn delta_len(&self) -> usize {
        self.delta.len()
    }

    /// Distance computations spent building/compacting shards
    /// (pivot rows only; pivot *selection* is accounted by the
    /// caller's pivot strategy, as in [`Laesa`]).
    pub fn preprocessing_computations(&self) -> u64 {
        self.preprocessing_computations
    }

    /// The configuration the index was built with.
    pub fn config(&self) -> ShardConfig {
        self.config
    }

    /// Snapshot view of the indexed shards: `(global offset, LAESA
    /// index)` per shard, in layout order. Together with
    /// [`ShardedIndex::delta_items`] this is the complete structural
    /// state — `cned-store` serialises it and feeds it back through
    /// [`ShardedIndex::from_parts`], so a restored index is
    /// structurally identical (same shard boundaries, same pivot
    /// tables, same delta) and therefore answers every query with
    /// bit-identical results *and statistics*.
    pub fn shard_views(&self) -> impl Iterator<Item = (usize, &Laesa<S>)> {
        self.shards.iter().map(|s| (s.offset, &s.index))
    }

    /// Items currently in the (linearly scanned) delta shard, in
    /// insertion order.
    pub fn delta_items(&self) -> &[Vec<S>] {
        &self.delta
    }

    /// Reassemble an index from previously exported state — the
    /// snapshot-restore path, skipping every pivot-table build.
    ///
    /// `shards` are `(offset, index)` pairs that must tile
    /// `0..indexed_len` contiguously in order (offset 0 first, each
    /// shard starting where the previous ended); `delta` items occupy
    /// the global indices after them. Violations are typed
    /// [`SearchError::Persistence`] errors, not panics — this is
    /// reachable from file decoding.
    pub fn from_parts(
        shards: Vec<(usize, Laesa<S>)>,
        delta: Vec<Vec<S>>,
        config: ShardConfig,
        preprocessing: u64,
    ) -> Result<ShardedIndex<S>, SearchError> {
        let mut at = 0usize;
        for (offset, index) in &shards {
            if *offset != at {
                return Err(SearchError::Persistence {
                    reason: format!(
                        "shard offset {offset} does not tile the layout (expected {at})"
                    ),
                });
            }
            at += index.database().len();
        }
        Ok(ShardedIndex {
            shards: shards
                .into_iter()
                .map(|(offset, index)| Shard { offset, index })
                .collect(),
            delta,
            indexed_len: at,
            config,
            preprocessing_computations: preprocessing,
            tombstones: TombstoneSet::new(),
        })
    }

    /// The tombstone set of logically deleted global indices (for
    /// snapshot encoding).
    pub fn tombstones(&self) -> &TombstoneSet {
        &self.tombstones
    }

    /// Restore a tombstone set (snapshot decode / replica sync).
    pub fn set_tombstones(&mut self, tombstones: TombstoneSet) {
        self.tombstones = tombstones;
    }

    /// The item at global index `i` (panics when out of range).
    pub fn item(&self, i: usize) -> &[S] {
        if i >= self.indexed_len {
            return &self.delta[i - self.indexed_len];
        }
        let shard = self
            .shards
            .iter()
            .rfind(|s| s.offset <= i)
            .expect("global index within an indexed shard");
        &shard.index.database()[i - shard.offset]
    }

    /// Append `item` to the delta shard, returning its global index.
    /// Once [`ShardConfig::compact_threshold`] inserts accumulate they
    /// are compacted into a fresh LAESA shard (see
    /// [`ShardedIndex::compact`]).
    pub fn insert<D: Distance<S> + ?Sized>(&mut self, item: Vec<S>, dist: &D) -> usize {
        let global = self.len();
        self.delta.push(item);
        if self.delta.len() >= self.config.compact_threshold {
            self.compact(dist);
        }
        global
    }

    /// Rebuild the delta shard into a proper LAESA shard now (no-op on
    /// an empty delta). Global indices are unchanged: the new shard
    /// covers exactly the range the delta items already occupied.
    /// Afterwards the layout is rebalanced at the configured
    /// [`ShardConfig::min_fill_percent`] floor (see
    /// [`ShardedIndex::rebalance`]).
    pub fn compact<D: Distance<S> + ?Sized>(&mut self, dist: &D) {
        if self.delta.is_empty() {
            return;
        }
        let items = std::mem::take(&mut self.delta);
        let offset = self.indexed_len;
        let pivots = select_pivots_max_sum(&items, self.config.pivots_per_shard, 0, dist);
        let index = Laesa::try_build(items, pivots, dist)
            .expect("max-sum pivot selection yields valid, distinct indices");
        self.indexed_len += index.database().len();
        self.preprocessing_computations += index.preprocessing_computations();
        self.shards.push(Shard { offset, index });
        self.rebalance(self.config.min_fill_percent, dist);
    }

    /// Merge undersized shards back into the size-balanced layout.
    ///
    /// Compaction only ever *appends* shards of `compact_threshold`
    /// items, so a long-lived index under steady inserts accumulates
    /// many small shards — each costing its full pivot set per query,
    /// which erodes exactly the pivots-vs-computations trade the
    /// shard count was chosen for. This pass restores the intended
    /// layout: with `target = indexed items / configured shards`,
    /// every maximal run of **two or more consecutive** shards each
    /// smaller than `target * min_fill_percent / 100` is rebuilt into
    /// shards of ~`target` items (fresh max-sum pivots per merged
    /// shard).
    ///
    /// Only *consecutive* shards merge because global result indices
    /// are positions in the concatenated database: each shard covers a
    /// contiguous index range, and merging neighbours preserves every
    /// global index — which is why query results (neighbours and
    /// distances) are bit-identical before and after a rebalance for a
    /// metric distance; only per-query computation counts change with
    /// the new pivot tables. The tests pin that equivalence.
    ///
    /// Merges are **geometric** (LSM-style): a group below the target
    /// is only rebuilt when merging at least doubles its largest
    /// member, so under steady inserts every item is rebuilt
    /// `O(log(target / compact_threshold))` times rather than once per
    /// compaction — maintenance stays amortised-logarithmic instead of
    /// quadratic in the tail size.
    ///
    /// Returns the number of merged shards built. Called automatically
    /// by [`ShardedIndex::compact`] with the configured floor; callers
    /// can invoke it directly with any floor (e.g. a maintenance job
    /// forcing a stronger consolidation).
    pub fn rebalance<D: Distance<S> + ?Sized>(&mut self, min_fill_percent: u8, dist: &D) -> usize {
        if min_fill_percent == 0 || self.shards.len() <= 1 {
            return 0;
        }
        let target = (self.indexed_len / self.config.shards.max(1)).max(1);
        let floor = ((target as u64 * u64::from(min_fill_percent)) / 100) as usize;
        if floor == 0 {
            return 0;
        }
        let old = std::mem::take(&mut self.shards);
        let mut rebuilt: Vec<Shard<S>> = Vec::with_capacity(old.len());
        let mut run: Vec<Shard<S>> = Vec::new();
        let mut merges = 0usize;
        for shard in old {
            if shard.index.database().len() < floor {
                run.push(shard);
            } else {
                merges += self.flush_small_run(&mut run, &mut rebuilt, target, dist);
                rebuilt.push(shard);
            }
        }
        merges += self.flush_small_run(&mut run, &mut rebuilt, target, dist);
        self.shards = rebuilt;
        merges
    }

    /// Merge a run of consecutive undersized shards into ~`target`-
    /// sized shards, appending to `out`; a run of fewer than two
    /// shards is passed through untouched.
    fn flush_small_run<D: Distance<S> + ?Sized>(
        &mut self,
        run: &mut Vec<Shard<S>>,
        out: &mut Vec<Shard<S>>,
        target: usize,
        dist: &D,
    ) -> usize {
        if run.len() < 2 {
            out.append(run);
            return 0;
        }
        let mut merges = 0usize;
        let mut pending = std::mem::take(run).into_iter().peekable();
        while let Some(first) = pending.next() {
            let offset = first.offset;
            let mut size = first.index.database().len();
            let mut largest = size;
            let mut group = vec![first];
            while size < target {
                let Some(next) = pending.next() else { break };
                let len = next.index.database().len();
                size += len;
                largest = largest.max(len);
                group.push(next);
            }
            // A lone tail (or a shard already at the target) is not
            // worth a rebuild; neither is a merge that would not at
            // least double its largest member — the geometric guard
            // that keeps steady-insert maintenance amortised
            // logarithmic (a partially-filled merged tail is left
            // alone until enough new shards accumulate around it).
            if group.len() == 1 || (size < target && size < largest * 2) {
                out.extend(group);
                continue;
            }
            let mut items = Vec::with_capacity(size);
            for shard in group {
                items.extend(shard.index.into_database());
            }
            let pivots = select_pivots_max_sum(&items, self.config.pivots_per_shard, 0, dist);
            let index = Laesa::try_build(items, pivots, dist)
                .expect("max-sum pivot selection yields valid, distinct indices");
            self.preprocessing_computations += index.preprocessing_computations();
            merges += 1;
            out.push(Shard { offset, index });
        }
        merges
    }

    /// The `k` nearest neighbours of an already-prepared query across
    /// all shards and the delta shard, within `radius`, using each
    /// shard's first `pivot_limit` pivots, in the canonical (distance,
    /// ascending global index) order. Nearest-neighbour search is the
    /// `k = 1` case.
    ///
    /// Fans across shards in shard order, handing each shard the
    /// running global `k`-th-best distance as its pruning radius (the
    /// cross-shard bound-propagation invariant — see the crate docs),
    /// then scans the delta shard under the same running bound. Ties
    /// resolve to the smallest global index: within a shard by the
    /// canonical LAESA tie-break, across shards by the sorted merge (an
    /// equal-distance find in a later shard sorts after an earlier
    /// one).
    fn knn_search(
        &self,
        prepared: &dyn PreparedQuery<S>,
        k: usize,
        radius: f64,
        pivot_limit: usize,
    ) -> (Vec<Neighbour>, SearchStats) {
        let mut stats = SearchStats::default();
        if k == 0 {
            return (Vec::new(), stats);
        }
        // Sized by the corpus, never by `k` alone: `k` arrives straight
        // off the wire.
        let mut best: Vec<Neighbour> = Vec::with_capacity(k.min(self.len()) + 1);
        let kth = |best: &Vec<Neighbour>| -> f64 {
            if best.len() < k {
                radius
            } else {
                best[k - 1].distance
            }
        };
        for shard in &self.shards {
            let (locals, shard_stats) =
                shard.index.knn_search(prepared, k, kth(&best), pivot_limit);
            stats.merge(shard_stats);
            for local in locals {
                let candidate = Neighbour {
                    index: shard.offset + local.index,
                    distance: local.distance,
                };
                let pos = best
                    .binary_search_by(|nb| nb.ordering(&candidate))
                    .unwrap_or_else(|e| e);
                best.insert(pos, candidate);
                best.truncate(k);
            }
        }
        // Lane-batched linear sweep over the delta shard; the running
        // k-th-best (or the radius while underfull) is the budget.
        scan_knn_into(
            &self.delta,
            prepared,
            k,
            radius,
            self.indexed_len,
            &mut best,
        );
        stats.distance_computations += self.delta.len() as u64;
        (best, stats)
    }

    /// Every element **within `radius`** (inclusive) of an
    /// already-prepared query across all shards and the delta shard,
    /// using each shard's first `pivot_limit` pivots, in canonical
    /// (distance, ascending global index) order.
    ///
    /// Range search has a fixed radius, so there is no cross-shard
    /// bound to propagate: each shard answers independently with
    /// triangle-inequality pruning against the same budget, and the
    /// per-shard hit lists merge by the canonical ordering.
    fn range_search(
        &self,
        prepared: &dyn PreparedQuery<S>,
        radius: f64,
        pivot_limit: usize,
    ) -> (Vec<Neighbour>, SearchStats) {
        let mut stats = SearchStats::default();
        let mut hits: Vec<Neighbour> = Vec::new();
        for shard in &self.shards {
            let (locals, shard_stats) = shard.index.range_search(prepared, radius, pivot_limit);
            stats.merge(shard_stats);
            hits.extend(locals.into_iter().map(|local| Neighbour {
                index: shard.offset + local.index,
                distance: local.distance,
            }));
        }
        // Lane-batched fixed-radius sweep over the delta shard.
        scan_range_into(&self.delta, prepared, radius, self.indexed_len, &mut hits);
        stats.distance_computations += self.delta.len() as u64;
        hits.sort_by(|a, b| a.ordering(b));
        (hits, stats)
    }
}

impl<S: Symbol> MetricIndex<S> for ShardedIndex<S> {
    fn len(&self) -> usize {
        self.indexed_len + self.delta.len()
    }

    fn backend_name(&self) -> &'static str {
        "sharded"
    }

    fn item(&self, i: usize) -> Option<&[S]> {
        if i >= self.len() {
            return None;
        }
        Some(ShardedIndex::item(self, i))
    }

    fn knn(
        &self,
        query: &[S],
        dist: &dyn Distance<S>,
        opts: &QueryOptions,
    ) -> Result<(Vec<Neighbour>, SearchStats), SearchError> {
        if self.is_empty() {
            return Err(SearchError::EmptyDatabase);
        }
        let radius = opts.checked_radius()?;
        let limit = opts.pivot_budget.unwrap_or(usize::MAX);
        let prepared = dist.prepare(query);
        // Over-fetch: at most T of the top k + T answers can be dead.
        let want = opts.k.saturating_add(self.tombstones.count());
        let (mut best, stats) = self.knn_search(&*prepared, want, radius, limit);
        self.tombstones.retain_live(&mut best);
        best.truncate(opts.k);
        Ok((best, stats))
    }

    fn range(
        &self,
        query: &[S],
        dist: &dyn Distance<S>,
        opts: &QueryOptions,
    ) -> Result<(Vec<Neighbour>, SearchStats), SearchError> {
        if self.is_empty() {
            return Err(SearchError::EmptyDatabase);
        }
        let radius = opts.checked_radius()?;
        let limit = opts.pivot_budget.unwrap_or(usize::MAX);
        let prepared = dist.prepare(query);
        let (mut hits, stats) = self.range_search(&*prepared, radius, limit);
        self.tombstones.retain_live(&mut hits);
        Ok((hits, stats))
    }

    fn delete(&mut self, index: usize) -> Result<bool, SearchError> {
        if index >= self.len() {
            return Ok(false);
        }
        Ok(self.tombstones.insert(index))
    }

    fn deleted(&self) -> usize {
        self.tombstones.count()
    }

    fn is_deleted(&self, i: usize) -> bool {
        self.tombstones.contains(i)
    }

    fn as_insertable(&mut self) -> Option<&mut dyn InsertableIndex<S>> {
        Some(self)
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }
}

impl<S: Symbol> InsertableIndex<S> for ShardedIndex<S> {
    fn insert(&mut self, item: Vec<S>, dist: &dyn Distance<S>) -> Result<usize, SearchError> {
        Ok(ShardedIndex::insert(self, item, dist))
    }
}
