//! # cned-search
//!
//! Nearest-neighbour search over arbitrary [`cned_core::metric::Distance`]s,
//! implementing the machinery of the paper's Section 4.3:
//!
//! * [`laesa`] — **LAESA** (Micó, Oncina & Vidal 1994, ref \[5\]):
//!   linear preprocessing time and memory; at query time, distances to
//!   a fixed set of *pivots* (base prototypes) give triangle-inequality
//!   lower bounds that eliminate most candidates, so only a handful of
//!   real distance computations remain. This is the engine behind
//!   Figures 3–4 and the "LAESA" column of Table 2.
//! * [`aesa`] — AESA (ref \[6\] context): the quadratic-memory variant
//!   that stores the full pairwise matrix and uses *every* computed
//!   distance as a pivot; fewest computations, largest preprocessing.
//! * [`linear`] — exhaustive scan: the "Exhaustive search" column of
//!   Table 2 and the correctness oracle for the tests.
//! * [`pivots`] — greedy maximum-sum pivot selection (the classic
//!   LAESA strategy) and a random baseline for the ablation bench.
//! * [`vptree`] — a vantage-point tree, backing the paper's remark
//!   that its results "apply in similar cases" for other
//!   metric-property-based methods.
//! * [`counter`] — a `Distance` wrapper counting real distance
//!   evaluations, the y-axis of Figures 3–4.
//!
//! Elimination via lower bounds is only *sound* when the distance is a
//! metric — with a non-metric (e.g. `d_max`) LAESA may return a
//! non-optimal neighbour. The paper exploits exactly this contrast
//! (Table 2 shows `d_max` LAESA ≠ exhaustive); these implementations
//! accept non-metrics and reproduce that behaviour.

//! ## Throughput machinery
//!
//! Beyond the paper's algorithms, this crate provides the plumbing
//! that makes them fast on real hardware:
//!
//! * **parallel preprocessing** — [`Aesa::build`] and
//!   [`Laesa::try_build`] fan their `n·(n−1)/2` / `p·n` distance
//!   loops across cores ([`parallel`]);
//! * **batch queries** — `nn_batch`/`knn_batch` on linear scan, LAESA
//!   and AESA parallelise across queries and reuse each query's
//!   prepared form ([`cned_core::metric::Distance::prepare`], the
//!   Myers `Peq` bitmap cache for `d_E`) across the whole database;
//! * **bounded evaluation** — comparisons whose exact value is only
//!   needed when it beats the running best (linear k-NN scans, LAESA
//!   non-pivot candidates) are requested through
//!   [`cned_core::metric::Distance::distance_bounded`] with that best
//!   as the budget, so engines with early exit (bit-parallel `d_E`)
//!   abandon hopeless comparisons. Pivot distances, AESA elements and
//!   vp-tree vantage points stay exact — their values feed
//!   lower-bound updates and traversal decisions. This is distance-
//!   agnostic: the same call sites that abandon `d_E` comparisons via
//!   the bit-parallel engine drive `d_C` through its band-pruned
//!   bounded engine (`cned_core::contextual::bounded`), whose cheap
//!   lower-bound gates reject most over-budget candidates before the
//!   cubic DP runs at all;
//! * **thread-safe statistics** — [`SearchStatsAtomic`] accumulates
//!   [`SearchStats`] across worker threads.

//! ## The unified query API
//!
//! Every backend — [`LinearIndex`], [`Laesa`], [`Aesa`], [`VpTree`],
//! and `cned-serve`'s `ShardedIndex` — implements the object-safe
//! [`MetricIndex`] trait: `knn` / `range` plus the provided `nn` /
//! `nn_batch` / `knn_batch`, all driven by a [`QueryOptions`] struct
//! (radius seed, `k`, pivot budget) and
//! returning `Result<_, `[`SearchError`]`>` instead of panicking.
//! Each backend has one k-NN core (NN is its `k = 1` case) and one
//! range core; range (radius) search is answered with
//! triangle-inequality pruning on every backend.

// No unsafe here, enforced at compile time (and by cned-lint).
#![forbid(unsafe_code)]

pub mod aesa;
pub mod counter;
pub mod error;
pub mod index;
pub mod laesa;
pub mod linear;
pub mod parallel;
pub mod pivots;
pub mod tombstone;
pub mod vptree;

pub use aesa::Aesa;
pub use counter::CountingDistance;
pub use error::SearchError;
pub use index::{InsertableIndex, MetricIndex, QueryOptions};
pub use laesa::Laesa;
pub use linear::LinearIndex;
pub use parallel::{num_threads, par_map, workers_for};
pub use pivots::{select_pivots_max_sum, select_pivots_random};
pub use tombstone::TombstoneSet;
pub use vptree::VpTree;

use std::sync::atomic::{AtomicU64, Ordering};

/// Serialises tests that set the process-global worker-count override
/// ([`parallel::set_thread_override`]).
#[cfg(test)]
pub(crate) static TEST_ENV_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// The outcome of a nearest-neighbour query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Neighbour {
    /// Index of the neighbour in the database.
    pub index: usize,
    /// Its distance to the query.
    pub distance: f64,
}

impl Neighbour {
    /// The canonical result ordering (ascending distance, then
    /// ascending index) as a total order, for sorting and merging
    /// neighbour lists.
    ///
    /// Every search path — linear scan, LAESA, AESA, vp-tree and the
    /// sharded serving layer — keeps its answers in this order, so
    /// equal-distance ties resolve to the smallest database index and
    /// results cannot diverge between serial, batch and sharded
    /// execution just because they visit candidates in different
    /// orders. Distances are compared with [`f64::total_cmp`].
    pub fn ordering(&self, other: &Neighbour) -> core::cmp::Ordering {
        self.distance
            .total_cmp(&other.distance)
            .then(self.index.cmp(&other.index))
    }
}

/// Absolute slack added to triangle-inequality elimination thresholds
/// in LAESA/AESA.
///
/// The lower bound `G[u] = |d(q,p) − d(p,u)|` is computed from two
/// *rounded* doubles, so for real-valued metrics (`d_C`, `d_YB`, …) it
/// can land a few ulps **above** the true distance of a candidate that
/// ties the pruning radius exactly (e.g. 8/15 − 1/5 = 1/3 in exact
/// arithmetic, but one ulp above 1/3 in doubles) — silently dropping
/// an exact-tie member that the linear-scan oracle keeps. Eliminating
/// only when `G[u] > radius + SLACK` restores agreement: slack can
/// only *admit* extra candidates, whose fate is then decided by their
/// real computed distance, so results stay exact; the cost is a
/// vanishing number of extra distance computations. Float rounding
/// error here is O(1e-15); integer-valued metrics (`d_E`) have gaps of
/// 1, so 1e-9 is safely between the two.
pub const ELIMINATION_SLACK: f64 = 1e-9;

/// Sanitise a raw distance value before it enters best-so-far
/// tracking.
///
/// Distances must never be NaN, but a broken user-supplied
/// [`Distance`](cned_core::metric::Distance) — e.g. a generalised
/// edit distance over a cost table containing NaN weights — can
/// produce one. Unguarded, NaN *poisons* the search: it loses every
/// `<` comparison (so it silently never wins), yet if it becomes the
/// running best its use as a pruning bound rejects every later
/// candidate (`d <= NaN` is false for all `d`), and the scan returns
/// garbage with no diagnostic.
///
/// In debug builds this fires an assertion naming the problem. In
/// release builds it falls back to [`f64::total_cmp`] semantics —
/// under which NaN orders after `+inf` — by mapping NaN to
/// `f64::INFINITY`: the candidate is treated as infinitely far, can
/// never win a comparison or become a pruning bound, and the search
/// stays deterministic.
#[inline]
pub fn sanitise_distance(d: f64) -> f64 {
    debug_assert!(
        !d.is_nan(),
        "Distance implementation returned NaN (broken cost table?)"
    );
    if d.is_nan() {
        f64::INFINITY
    } else {
        d
    }
}

/// Search statistics reported alongside results.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Number of real distance evaluations performed for the query
    /// (excluding preprocessing).
    pub distance_computations: u64,
}

impl SearchStats {
    /// Fold another query's (or shard's) statistics into this one.
    pub fn merge(&mut self, other: SearchStats) {
        self.distance_computations += other.distance_computations;
    }
}

impl core::ops::Add for SearchStats {
    type Output = SearchStats;
    fn add(mut self, other: SearchStats) -> SearchStats {
        self.merge(other);
        self
    }
}

/// Thread-safe accumulator for [`SearchStats`], for batch pipelines
/// that tally across worker threads (e.g. `cned-classify`'s parallel
/// test-set evaluation, which streams totals instead of materialising
/// per-query statistics).
///
/// ```
/// use cned_search::{SearchStats, SearchStatsAtomic};
///
/// let total = SearchStatsAtomic::default();
/// std::thread::scope(|s| {
///     for _ in 0..4 {
///         s.spawn(|| total.add(SearchStats { distance_computations: 10 }));
///     }
/// });
/// assert_eq!(total.snapshot().distance_computations, 40);
/// ```
#[derive(Debug, Default)]
pub struct SearchStatsAtomic {
    distance_computations: AtomicU64,
}

impl SearchStatsAtomic {
    /// A zeroed accumulator.
    pub fn new() -> SearchStatsAtomic {
        SearchStatsAtomic::default()
    }

    /// Fold one query's statistics into the running total.
    pub fn add(&self, stats: SearchStats) {
        self.distance_computations
            .fetch_add(stats.distance_computations, Ordering::Relaxed);
    }

    /// Current totals as a plain [`SearchStats`].
    pub fn snapshot(&self) -> SearchStats {
        SearchStats {
            distance_computations: self.distance_computations.load(Ordering::Relaxed),
        }
    }

    /// Reset to zero, returning the totals accumulated so far.
    pub fn take(&self) -> SearchStats {
        SearchStats {
            distance_computations: self.distance_computations.swap(0, Ordering::Relaxed),
        }
    }
}
