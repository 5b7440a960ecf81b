//! The unified query surface: one object-safe trait every backend
//! implements.
//!
//! The paper's point is that *metric-space machinery is generic in the
//! metric*: AESA, LAESA, vantage-point trees and plain scans all
//! answer the same questions — nearest neighbour, k nearest, everything
//! within a radius — from the same two ingredients (a database and a
//! [`Distance`]). [`MetricIndex`] captures that contract once, so
//! classifiers, serving pipelines and the `cned::Database` facade hold
//! *an index* abstractly (`&dyn MetricIndex<S>` / `Box<dyn …>`) instead
//! of hard-coding a backend enum, and new backends plug in by
//! implementing one trait.
//!
//! Query knobs travel in a [`QueryOptions`] struct instead of
//! positional arguments, and every entry point returns
//! `Result<_, `[`SearchError`]`>` — an empty database or a NaN radius
//! is a typed error, not a panic or a silent `None`.

use crate::error::SearchError;
use crate::parallel::par_map;
use crate::{Neighbour, SearchStats};
use cned_core::metric::Distance;
use cned_core::Symbol;

/// Options shared by every [`MetricIndex`] query.
///
/// Construction is builder-style (`QueryOptions::new().radius(1.5)`);
/// the struct is `#[non_exhaustive]` so new knobs can be added without
/// breaking callers. The defaults reproduce the classic call: an
/// unbounded nearest-neighbour search over all pivots.
#[non_exhaustive]
#[derive(Debug, Clone)]
pub struct QueryOptions {
    /// Pruning-radius seed (and, for [`MetricIndex::range`], the range
    /// radius itself): only neighbours at distance `<= radius` are
    /// reported. Defaults to `f64::INFINITY` (no constraint). For NN
    /// and k-NN a finite seed acts exactly like an already-known best
    /// at that distance — it can only reject candidates, never change
    /// which in-radius neighbour wins.
    pub radius: f64,
    /// Number of neighbours for [`MetricIndex::knn`] (default 1).
    /// `k == 0` yields an empty result set.
    pub k: usize,
    /// Computation budget for pivot-table backends: only the first `n`
    /// pivots are used for lower bounds, the rest are treated as plain
    /// candidates. Greedy max-sum selection is incremental, so a
    /// prefix of a large pivot set behaves exactly like a dedicated
    /// smaller build (the pivot sweep of Figures 3–4). The sharded
    /// backend applies the budget to **each shard's** pivot set;
    /// backends without pivots ignore it. `None` (default) uses every
    /// pivot.
    pub pivot_budget: Option<usize>,
}

impl Default for QueryOptions {
    fn default() -> QueryOptions {
        QueryOptions {
            radius: f64::INFINITY,
            k: 1,
            pivot_budget: None,
        }
    }
}

impl QueryOptions {
    /// The default options: unbounded radius, `k = 1`, all pivots.
    pub fn new() -> QueryOptions {
        QueryOptions::default()
    }

    /// Set the pruning/range radius.
    pub fn radius(mut self, radius: f64) -> QueryOptions {
        self.radius = radius;
        self
    }

    /// Set the neighbour count for k-NN queries.
    pub fn k(mut self, k: usize) -> QueryOptions {
        self.k = k;
        self
    }

    /// Limit pivot-table backends to their first `n` pivots.
    pub fn pivot_budget(mut self, n: usize) -> QueryOptions {
        self.pivot_budget = Some(n);
        self
    }

    /// Validate the radius: `Err(InvalidRadius)` for NaN or negative
    /// values, the radius otherwise. Implementations call this before
    /// touching the database.
    pub fn checked_radius(&self) -> Result<f64, SearchError> {
        if self.radius.is_nan() || self.radius < 0.0 {
            Err(SearchError::InvalidRadius {
                radius: self.radius,
            })
        } else {
            Ok(self.radius)
        }
    }
}

/// An immutable nearest-neighbour index over a database of strings,
/// queryable through any [`Distance`].
///
/// # Contract
///
/// Shared by every implementation (and pinned by the cross-backend
/// agreement suite):
///
/// * **Canonical ordering** — results are ordered (and ties broken) by
///   ascending `(distance, database index)`; see
///   [`Neighbour::ordering`]. All backends return bit-identical
///   neighbours and distances for a metric distance.
/// * **Radius admission is inclusive** — a neighbour at exactly
///   `opts.radius` is reported.
/// * **Typed errors** — an empty index yields
///   [`SearchError::EmptyDatabase`]; a NaN or negative radius yields
///   [`SearchError::InvalidRadius`]. No query entry point panics in
///   release builds.
/// * **Statistics** — `SearchStats::distance_computations` counts real
///   distance evaluations for the query (preprocessing excluded), and
///   is deterministic for a given (index, query, options).
///
/// The trait is object-safe: serving layers and classifiers consume
/// `&dyn MetricIndex<S>`, and the provided `*_batch` methods fan out
/// across worker threads behind the same vtable.
///
/// The caller supplies the distance per query; it **must** be the one
/// the index was built with (pivot rows / matrices / tree radii store
/// its values). The `cned::Database` facade pairs the two so this
/// footgun disappears at the application surface.
pub trait MetricIndex<S: Symbol>: Send + Sync {
    /// Number of items in the index.
    fn len(&self) -> usize;

    /// Whether the index holds no items.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Short backend label (`"linear"`, `"laesa"`, …) for reports and
    /// benchmarks.
    fn backend_name(&self) -> &'static str;

    /// The item at index `i`, or `None` when out of range. Result
    /// indices from queries address this accessor.
    fn item(&self, i: usize) -> Option<&[S]>;

    /// The `opts.k` nearest neighbours of `query` within
    /// `opts.radius`, in canonical order. May return fewer than `k`
    /// entries when fewer elements lie within the radius.
    fn knn(
        &self,
        query: &[S],
        dist: &dyn Distance<S>,
        opts: &QueryOptions,
    ) -> Result<(Vec<Neighbour>, SearchStats), SearchError>;

    /// Nearest neighbour of `query` within `opts.radius`: the first
    /// hit of [`MetricIndex::knn`] with `k = 1`. NN is the `k = 1`
    /// case of k-NN (Chávez et al. 2001), so every backend answers it
    /// through its one k-NN core — same neighbour, same statistics.
    ///
    /// `Ok((None, stats))` when the database holds nothing within the
    /// radius (only possible with a finite radius seed); statistics
    /// are returned either way.
    fn nn(
        &self,
        query: &[S],
        dist: &dyn Distance<S>,
        opts: &QueryOptions,
    ) -> Result<(Option<Neighbour>, SearchStats), SearchError> {
        let (hits, stats) = self.knn(query, dist, &opts.clone().k(1))?;
        Ok((hits.first().copied(), stats))
    }

    /// Every item within `opts.radius` of `query` (inclusive), in
    /// canonical order — the one genuinely new operation of the
    /// unified API. Pivot-table backends answer it with
    /// triangle-inequality pruning: a candidate whose lower bound
    /// exceeds the radius is never evaluated.
    fn range(
        &self,
        query: &[S],
        dist: &dyn Distance<S>,
        opts: &QueryOptions,
    ) -> Result<(Vec<Neighbour>, SearchStats), SearchError>;

    /// [`MetricIndex::nn`] for a batch of queries, parallelised across
    /// queries ([`crate::parallel::num_threads`] workers at most).
    /// Results are in input order and bit-identical to one-by-one
    /// calls.
    fn nn_batch(
        &self,
        queries: &[Vec<S>],
        dist: &dyn Distance<S>,
        opts: &QueryOptions,
    ) -> Result<Vec<(Option<Neighbour>, SearchStats)>, SearchError> {
        if self.is_empty() {
            return Err(SearchError::EmptyDatabase);
        }
        opts.checked_radius()?;
        par_map(queries.len(), |q| self.nn(&queries[q], dist, opts))
            .into_iter()
            .collect()
    }

    /// [`MetricIndex::knn`] for a batch of queries, parallelised
    /// across queries.
    fn knn_batch(
        &self,
        queries: &[Vec<S>],
        dist: &dyn Distance<S>,
        opts: &QueryOptions,
    ) -> Result<Vec<(Vec<Neighbour>, SearchStats)>, SearchError> {
        if self.is_empty() {
            return Err(SearchError::EmptyDatabase);
        }
        opts.checked_radius()?;
        par_map(queries.len(), |q| self.knn(&queries[q], dist, opts))
            .into_iter()
            .collect()
    }

    /// Downcast to the mutable insert surface, when this backend
    /// supports incremental inserts (`None` otherwise — the default).
    ///
    /// This is what lets a serving session own *any* index as a
    /// `Box<dyn MetricIndex<S>>` and still answer `Insert` requests:
    /// insertable backends ([`crate::LinearIndex`], `cned-serve`'s
    /// `ShardedIndex`) override it with `Some(self)`, everything else
    /// reports the insert as a typed
    /// [`SearchError::UnsupportedConfig`] instead of failing to
    /// compile at the session boundary.
    fn as_insertable(&mut self) -> Option<&mut dyn InsertableIndex<S>> {
        None
    }

    /// Logically delete the item at `index` (tombstone it): it stops
    /// appearing in any query answer, but keeps its physical slot so
    /// no surviving item is renumbered. Returns `Ok(true)` when the
    /// item was alive, `Ok(false)` when it was out of range or already
    /// deleted (deletion is idempotent — replaying a delete is safe).
    ///
    /// [`MetricIndex::len`] still reports the *physical* corpus size
    /// (tombstones included) — sequence numbering, WAL replay and
    /// replica accounting all key on physical length. The live count
    /// is `len() - deleted()`. Physical removal is an explicit rebuild
    /// (`Database::vacuum` in the facade).
    ///
    /// The default refuses with [`SearchError::UnsupportedConfig`];
    /// backends with tombstone support override it.
    fn delete(&mut self, index: usize) -> Result<bool, SearchError> {
        let _ = index;
        Err(SearchError::UnsupportedConfig {
            reason: "this backend does not support deletes",
        })
    }

    /// Number of tombstoned (logically deleted) items. Zero for
    /// backends without delete support.
    fn deleted(&self) -> usize {
        0
    }

    /// Whether the item at `i` is tombstoned. `false` for live items,
    /// out-of-range indices, and backends without delete support —
    /// the question "would a query ever return `i`" is what callers
    /// (vacuum rebuilds, serving oracles) actually ask.
    fn is_deleted(&self, i: usize) -> bool {
        let _ = i;
        false
    }

    /// Downcast hook for persistence: backends whose structure
    /// `cned-store` knows how to snapshot (`LinearIndex`, `Laesa`,
    /// `ShardedIndex`) override this with `Some(self)` so
    /// `Database::save` can reach the concrete type behind a
    /// `Box<dyn MetricIndex<S>>`. The default (`None`) marks the
    /// backend as not snapshottable — save reports a typed
    /// [`SearchError::Persistence`] instead of guessing.
    fn as_any(&self) -> Option<&dyn std::any::Any> {
        None
    }
}

/// Boxed indexes are indexes: lets generic serving code (`cned-serve`
/// sessions, `cned::Database`) hold a `Box<dyn MetricIndex<S>>` where
/// an `I: MetricIndex<S>` is expected, without re-implementing the
/// trait per call site.
impl<S: Symbol, T: MetricIndex<S> + ?Sized> MetricIndex<S> for Box<T> {
    fn len(&self) -> usize {
        (**self).len()
    }

    fn backend_name(&self) -> &'static str {
        (**self).backend_name()
    }

    fn item(&self, i: usize) -> Option<&[S]> {
        (**self).item(i)
    }

    fn knn(
        &self,
        query: &[S],
        dist: &dyn Distance<S>,
        opts: &QueryOptions,
    ) -> Result<(Vec<Neighbour>, SearchStats), SearchError> {
        (**self).knn(query, dist, opts)
    }

    fn range(
        &self,
        query: &[S],
        dist: &dyn Distance<S>,
        opts: &QueryOptions,
    ) -> Result<(Vec<Neighbour>, SearchStats), SearchError> {
        (**self).range(query, dist, opts)
    }

    fn delete(&mut self, index: usize) -> Result<bool, SearchError> {
        (**self).delete(index)
    }

    fn deleted(&self) -> usize {
        (**self).deleted()
    }

    fn is_deleted(&self, i: usize) -> bool {
        (**self).is_deleted(i)
    }

    fn as_insertable(&mut self) -> Option<&mut dyn InsertableIndex<S>> {
        (**self).as_insertable()
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        (**self).as_any()
    }
}

/// A [`MetricIndex`] that additionally accepts incremental inserts —
/// what a serving pipeline needs to own an index end to end.
pub trait InsertableIndex<S: Symbol>: MetricIndex<S> {
    /// Append `item`, returning its assigned index. `dist` must be the
    /// index's distance (backends may rebuild internal structure, e.g.
    /// delta-shard compaction).
    ///
    /// In-memory backends are infallible; durable wrappers
    /// (`cned-store`'s `Durable`) report a failed write-ahead-log
    /// commit as [`SearchError::Persistence`] — the item was **not**
    /// accepted and the index is unchanged.
    fn insert(&mut self, item: Vec<S>, dist: &dyn Distance<S>) -> Result<usize, SearchError>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_reproduce_the_classic_call() {
        let opts = QueryOptions::new();
        assert_eq!(opts.radius, f64::INFINITY);
        assert_eq!(opts.k, 1);
        assert!(opts.pivot_budget.is_none());
    }

    #[test]
    fn builder_methods_chain() {
        let opts = QueryOptions::new().radius(2.5).k(7).pivot_budget(3);
        assert_eq!(opts.radius, 2.5);
        assert_eq!(opts.k, 7);
        assert_eq!(opts.pivot_budget, Some(3));
    }

    #[test]
    fn radius_validation() {
        assert_eq!(QueryOptions::new().checked_radius(), Ok(f64::INFINITY));
        assert_eq!(QueryOptions::new().radius(0.0).checked_radius(), Ok(0.0));
        assert!(matches!(
            QueryOptions::new().radius(-0.5).checked_radius(),
            Err(SearchError::InvalidRadius { .. })
        ));
        assert!(matches!(
            QueryOptions::new().radius(f64::NAN).checked_radius(),
            Err(SearchError::InvalidRadius { .. })
        ));
    }

    #[test]
    fn trait_objects_are_thread_mobile() {
        fn assert_send_sync<T: Send + Sync + ?Sized>() {}
        assert_send_sync::<dyn MetricIndex<u8>>();
        assert_send_sync::<Box<dyn MetricIndex<u8>>>();
    }
}
