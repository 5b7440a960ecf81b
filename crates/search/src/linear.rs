//! Exhaustive (linear-scan) nearest-neighbour search.
//!
//! Computes the distance from the query to *every* database element —
//! `n` distance computations, no preprocessing, correct for any
//! distance function (metric or not). This is the "Exhaustive search"
//! column of Table 2 and the correctness oracle for the other
//! backends' tests.
//!
//! The public surface is [`LinearIndex`], the simplest
//! [`MetricIndex`] implementation, plus the lane-batched sweeps it is
//! built from ([`scan_knn_into`], [`scan_range_into`]), which the
//! sharded serving layer reuses for its delta shard.
//!
//! Even the exhaustive scan benefits from the throughput machinery:
//! the query is [prepared](cned_core::metric::Distance::prepare) once
//! (for `d_E` that caches the Myers `Peq` bitmaps), each comparison is
//! requested with the current best as an early-exit budget, and the
//! batch entry points fan out across queries on all cores.

use crate::error::SearchError;
use crate::index::{InsertableIndex, MetricIndex, QueryOptions};
use crate::tombstone::TombstoneSet;
use crate::{Neighbour, SearchStats};
use cned_core::lanes::LANES;
use cned_core::metric::{Distance, PreparedQuery};
use cned_core::Symbol;

/// Advance a sorted top-`k` list over `db` in lane-sized bounded
/// batches (indices offset by `base`); `best` stays in canonical
/// (distance, index) order and never exceeds `k` entries.
///
/// Each batch of up to [`LANES`] candidates is scored through
/// [`PreparedQuery::distance_to_batch_bounded`] with the `k`-th best
/// at the batch boundary as the shared budget. That budget is only
/// ever *looser* than the serial per-candidate budget, so the admitted
/// set is a superset of the serial one, and sorted insertion +
/// truncation keeps the final list (indices and distance bits)
/// identical to the one-at-a-time scan.
///
/// Shared by [`LinearIndex`] and the sharded serving layer's
/// delta-shard scans, so every exhaustive sweep in the workspace
/// rides the lane kernels.
pub fn scan_knn_into<S: Symbol>(
    db: &[Vec<S>],
    prepared: &dyn PreparedQuery<S>,
    k: usize,
    radius: f64,
    base: usize,
    best: &mut Vec<Neighbour>,
) {
    if k == 0 {
        return;
    }
    let mut out = [None; LANES];
    let mut refs: [&[S]; LANES] = [&[]; LANES];
    for (c, chunk) in db.chunks(LANES).enumerate() {
        // Until k in-radius elements are known, the admission budget
        // is the radius itself; afterwards the current k-th distance.
        let budget = if best.len() < k {
            radius
        } else {
            best[k - 1].distance
        };
        for (i, item) in chunk.iter().enumerate() {
            refs[i] = item;
        }
        prepared.distance_to_batch_bounded(&refs[..chunk.len()], budget, &mut out[..chunk.len()]);
        for (i, d) in out[..chunk.len()].iter().enumerate() {
            let Some(d) = *d else {
                continue;
            };
            // A rejected bounded evaluation can surface as +inf; it
            // must never enter the result set, even at an infinite
            // radius.
            if !d.is_finite() {
                continue;
            }
            let candidate = Neighbour {
                index: base + c * LANES + i,
                distance: d,
            };
            let pos = best
                .binary_search_by(|nb| nb.ordering(&candidate))
                .unwrap_or_else(|e| e);
            best.insert(pos, candidate);
            best.truncate(k);
        }
    }
}

/// Append every element of `db` within `radius` (inclusive) to `hits`
/// in lane-sized batches (indices offset by `base`). The caller sorts;
/// the fixed radius means batching cannot change the admitted set at
/// all.
pub fn scan_range_into<S: Symbol>(
    db: &[Vec<S>],
    prepared: &dyn PreparedQuery<S>,
    radius: f64,
    base: usize,
    hits: &mut Vec<Neighbour>,
) {
    let mut out = [None; LANES];
    let mut refs: [&[S]; LANES] = [&[]; LANES];
    for (c, chunk) in db.chunks(LANES).enumerate() {
        for (i, item) in chunk.iter().enumerate() {
            refs[i] = item;
        }
        prepared.distance_to_batch_bounded(&refs[..chunk.len()], radius, &mut out[..chunk.len()]);
        for (i, d) in out[..chunk.len()].iter().enumerate() {
            if let Some(d) = *d {
                if d.is_finite() {
                    hits.push(Neighbour {
                        index: base + c * LANES + i,
                        distance: d,
                    });
                }
            }
        }
    }
}

/// The exhaustive-scan [`MetricIndex`]: no preprocessing, `n` distance
/// computations per query, correct for any distance (metric or not).
/// The correctness oracle every other backend is tested against.
pub struct LinearIndex<S: Symbol> {
    db: Vec<Vec<S>>,
    tombstones: TombstoneSet,
}

impl<S: Symbol> LinearIndex<S> {
    /// Wrap a database for exhaustive scanning (no preprocessing).
    pub fn new(db: Vec<Vec<S>>) -> LinearIndex<S> {
        LinearIndex {
            db,
            tombstones: TombstoneSet::new(),
        }
    }

    /// The database the index scans (physical corpus; tombstoned slots
    /// included).
    pub fn database(&self) -> &[Vec<S>] {
        &self.db
    }

    /// Unwrap back into the database.
    pub fn into_database(self) -> Vec<Vec<S>> {
        self.db
    }

    /// The tombstone set (for snapshot encoding).
    pub fn tombstones(&self) -> &TombstoneSet {
        &self.tombstones
    }

    /// Restore a tombstone set (snapshot decode / replica sync).
    pub fn set_tombstones(&mut self, tombstones: TombstoneSet) {
        self.tombstones = tombstones;
    }
}

impl<S: Symbol> MetricIndex<S> for LinearIndex<S> {
    fn len(&self) -> usize {
        self.db.len()
    }

    fn backend_name(&self) -> &'static str {
        "linear"
    }

    fn item(&self, i: usize) -> Option<&[S]> {
        self.db.get(i).map(Vec::as_slice)
    }

    fn knn(
        &self,
        query: &[S],
        dist: &dyn Distance<S>,
        opts: &QueryOptions,
    ) -> Result<(Vec<Neighbour>, SearchStats), SearchError> {
        if self.db.is_empty() {
            return Err(SearchError::EmptyDatabase);
        }
        let radius = opts.checked_radius()?;
        let prepared = dist.prepare(query);
        // Over-fetch k + T answers (T tombstones: at most T of them
        // can be dead), filter the dead, truncate to k. The list is
        // kept in the canonical (distance, index) order every other
        // search path uses, so ties resolve to the smallest index
        // independent of visit order.
        let want = opts.k.saturating_add(self.tombstones.count());
        let mut best = Vec::with_capacity(want.min(self.db.len()) + 1);
        scan_knn_into(&self.db, &*prepared, want, radius, 0, &mut best);
        self.tombstones.retain_live(&mut best);
        best.truncate(opts.k);
        let stats = SearchStats {
            distance_computations: self.db.len() as u64,
        };
        Ok((best, stats))
    }

    fn range(
        &self,
        query: &[S],
        dist: &dyn Distance<S>,
        opts: &QueryOptions,
    ) -> Result<(Vec<Neighbour>, SearchStats), SearchError> {
        if self.db.is_empty() {
            return Err(SearchError::EmptyDatabase);
        }
        let radius = opts.checked_radius()?;
        let prepared = dist.prepare(query);
        let mut hits = Vec::new();
        scan_range_into(&self.db, &*prepared, radius, 0, &mut hits);
        hits.sort_by(|a, b| a.ordering(b));
        self.tombstones.retain_live(&mut hits);
        let stats = SearchStats {
            distance_computations: self.db.len() as u64,
        };
        Ok((hits, stats))
    }

    fn delete(&mut self, index: usize) -> Result<bool, SearchError> {
        if index >= self.db.len() {
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

impl<S: Symbol> InsertableIndex<S> for LinearIndex<S> {
    fn insert(&mut self, item: Vec<S>, _dist: &dyn Distance<S>) -> Result<usize, SearchError> {
        self.db.push(item);
        Ok(self.db.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cned_core::levenshtein::Levenshtein;

    fn db() -> Vec<Vec<u8>> {
        [&b"casa"[..], b"cosa", b"masa", b"taza", b"cesta"]
            .iter()
            .map(|w| w.to_vec())
            .collect()
    }

    fn nn(db: Vec<Vec<u8>>, q: &[u8], dist: &dyn Distance<u8>) -> (Neighbour, SearchStats) {
        let (found, stats) = LinearIndex::new(db)
            .nn(q, dist, &QueryOptions::new())
            .unwrap();
        (found.expect("infinite radius always finds"), stats)
    }

    fn knn(db: Vec<Vec<u8>>, q: &[u8], dist: &dyn Distance<u8>, k: usize) -> Vec<Neighbour> {
        LinearIndex::new(db)
            .knn(q, dist, &QueryOptions::new().k(k))
            .unwrap()
            .0
    }

    #[test]
    fn finds_the_obvious_neighbour() {
        let (nn, stats) = nn(db(), b"casa", &Levenshtein);
        assert_eq!(nn.index, 0);
        assert_eq!(nn.distance, 0.0);
        assert_eq!(stats.distance_computations, 5);
    }

    #[test]
    fn empty_db_is_a_typed_error_through_the_trait() {
        let idx: LinearIndex<u8> = LinearIndex::new(Vec::new());
        let opts = QueryOptions::new();
        assert_eq!(
            idx.nn(b"x", &Levenshtein, &opts).unwrap_err(),
            SearchError::EmptyDatabase
        );
        assert_eq!(
            idx.knn(b"x", &Levenshtein, &opts).unwrap_err(),
            SearchError::EmptyDatabase
        );
        assert_eq!(
            idx.range(b"x", &Levenshtein, &opts).unwrap_err(),
            SearchError::EmptyDatabase
        );
        assert_eq!(
            idx.nn_batch(&[b"x".to_vec()], &Levenshtein, &opts)
                .unwrap_err(),
            SearchError::EmptyDatabase
        );
    }

    #[test]
    fn invalid_radius_is_rejected() {
        let idx = LinearIndex::new(db());
        for r in [f64::NAN, -1.0] {
            let opts = QueryOptions::new().radius(r);
            assert!(matches!(
                idx.nn(b"casa", &Levenshtein, &opts),
                Err(SearchError::InvalidRadius { .. })
            ));
            assert!(matches!(
                idx.range(b"casa", &Levenshtein, &opts),
                Err(SearchError::InvalidRadius { .. })
            ));
        }
    }

    #[test]
    fn radius_seed_prunes_and_excludes() {
        let idx = LinearIndex::new(db());
        // "cesa" is at distance 1 from both "casa" and "cosa" and from
        // "cesta"; radius 0.5 excludes everything.
        let (none, stats) = idx
            .nn(b"cesa", &Levenshtein, &QueryOptions::new().radius(0.5))
            .unwrap();
        assert!(none.is_none());
        assert_eq!(stats.distance_computations, 5);
        // Radius exactly at the best distance still admits (inclusive).
        let (at, _) = idx
            .nn(b"cesa", &Levenshtein, &QueryOptions::new().radius(1.0))
            .unwrap();
        assert_eq!(at.unwrap().index, 0);
    }

    #[test]
    fn range_returns_all_members_within_radius() {
        let idx = LinearIndex::new(db());
        let (hits, stats) = idx
            .range(b"casa", &Levenshtein, &QueryOptions::new().radius(1.0))
            .unwrap();
        // casa (0), cosa (1), masa (2) at d<=1; taza d=2, cesta d=2.
        let got: Vec<(usize, f64)> = hits.iter().map(|n| (n.index, n.distance)).collect();
        assert_eq!(got, vec![(0, 0.0), (1, 1.0), (2, 1.0)]);
        assert_eq!(stats.distance_computations, 5);
        // Radius 0: exact matches only.
        let (exact, _) = idx
            .range(b"casa", &Levenshtein, &QueryOptions::new().radius(0.0))
            .unwrap();
        assert_eq!(exact.len(), 1);
        assert_eq!(exact[0].index, 0);
        // Infinite radius: the whole database, canonically ordered.
        let (all, _) = idx
            .range(b"casa", &Levenshtein, &QueryOptions::new())
            .unwrap();
        assert_eq!(all.len(), 5);
        assert!(all.windows(2).all(|w| w[0].ordering(&w[1]).is_le()));
    }

    #[test]
    fn tie_breaks_to_first_index() {
        let db: Vec<Vec<u8>> = vec![b"aa".to_vec(), b"bb".to_vec()];
        let (nn, _) = nn(db, b"ab", &Levenshtein);
        assert_eq!(nn.index, 0);
    }

    /// A generalised edit distance over a deliberately broken cost
    /// table whose weights are all NaN: `d(x, x) = 0` (the pure
    /// diagonal path never touches a weight) but every other pair
    /// evaluates to NaN.
    struct BrokenCostTable;
    impl cned_core::metric::Distance<u8> for BrokenCostTable {
        fn distance(&self, a: &[u8], b: &[u8]) -> f64 {
            struct NanCosts;
            impl cned_core::generalized::CostModel<u8> for NanCosts {
                fn substitute(&self, a: u8, b: u8) -> f64 {
                    if a == b {
                        0.0
                    } else {
                        f64::NAN
                    }
                }
                fn insert(&self, _: u8) -> f64 {
                    f64::NAN
                }
                fn delete(&self, _: u8) -> f64 {
                    f64::NAN
                }
            }
            cned_core::generalized::generalized_edit_distance(a, b, &NanCosts)
        }
        fn name(&self) -> &'static str {
            "broken"
        }
        fn is_metric(&self) -> bool {
            false
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "NaN")]
    fn nan_distance_asserts_in_debug() {
        // NaN flows through distance_to_bounded; the default
        // Distance::distance_bounded impl asserts there.
        let db: Vec<Vec<u8>> = vec![b"ab".to_vec(), b"zz".to_vec()];
        let _ = nn(db, b"zz", &BrokenCostTable);
    }

    #[test]
    #[cfg(not(debug_assertions))]
    fn nan_distance_never_wins_in_release() {
        // The NaN comparison fails the bounded admission (NaN <= bound
        // is false), so the poisoned candidate is simply skipped and
        // the genuine zero-distance match still wins.
        let db: Vec<Vec<u8>> = vec![b"ab".to_vec(), b"zz".to_vec()];
        let (nn, _) = nn(db.clone(), b"zz", &BrokenCostTable);
        assert_eq!(nn.index, 1);
        assert_eq!(nn.distance, 0.0);
        // k-NN: the NaN candidate is rejected by the admission budget,
        // not inserted with a scrambled sort order.
        let nns = knn(db, b"zz", &BrokenCostTable, 2);
        assert_eq!(nns.len(), 1);
        assert_eq!(nns[0].index, 1);
    }

    #[test]
    fn knn_ties_resolve_to_ascending_index() {
        // Three identical strings: every ordering-sensitive path must
        // report them in ascending index order.
        let db: Vec<Vec<u8>> = vec![
            b"dup".to_vec(),
            b"far".to_vec(),
            b"dup".to_vec(),
            b"dup".to_vec(),
        ];
        let nns = knn(db, b"dup", &Levenshtein, 3);
        let idx: Vec<usize> = nns.iter().map(|n| n.index).collect();
        assert_eq!(idx, vec![0, 2, 3]);
    }

    #[test]
    fn knn_sorted_and_truncated() {
        let (nns, stats) = LinearIndex::new(db())
            .knn(b"casa", &Levenshtein, &QueryOptions::new().k(3))
            .unwrap();
        assert_eq!(nns.len(), 3);
        assert!(nns.windows(2).all(|w| w[0].distance <= w[1].distance));
        assert_eq!(nns[0].index, 0);
        assert_eq!(stats.distance_computations, 5);
    }

    #[test]
    fn knn_with_k_larger_than_db() {
        let nns = knn(db(), b"casa", &Levenshtein, 100);
        assert_eq!(nns.len(), 5);
    }

    #[test]
    fn knn_zero_is_empty() {
        assert!(knn(db(), b"casa", &Levenshtein, 0).is_empty());
    }

    #[test]
    fn insert_extends_the_scan() {
        let mut idx = LinearIndex::new(db());
        let at = InsertableIndex::insert(&mut idx, b"mesa".to_vec(), &Levenshtein);
        assert_eq!(at, Ok(5));
        let (nb, _) = idx.nn(b"mesa", &Levenshtein, &QueryOptions::new()).unwrap();
        let nb = nb.unwrap();
        assert_eq!((nb.index, nb.distance), (5, 0.0));
        assert_eq!(idx.item(5), Some(&b"mesa"[..]));
        assert_eq!(idx.item(6), None);
    }

    #[test]
    fn batch_matches_single_queries() {
        let idx = LinearIndex::new(db());
        let opts = QueryOptions::new();
        let queries: Vec<Vec<u8>> = vec![
            b"casa".to_vec(),
            b"tazas".to_vec(),
            b"".to_vec(),
            b"mesa".to_vec(),
        ];
        let _guard = crate::TEST_ENV_LOCK.lock().unwrap();
        crate::parallel::set_thread_override(Some(3));
        let batch = idx.nn_batch(&queries, &Levenshtein, &opts).unwrap();
        assert_eq!(batch.len(), queries.len());
        for (q, (nn, stats)) in queries.iter().zip(&batch) {
            let (snn, sstats) = idx.nn(q, &Levenshtein, &opts).unwrap();
            let (nn, snn) = (nn.unwrap(), snn.unwrap());
            assert_eq!(nn.index, snn.index, "query {q:?}");
            assert_eq!(nn.distance, snn.distance);
            assert_eq!(stats.distance_computations, sstats.distance_computations);
        }
        let kbatch = idx
            .knn_batch(&queries, &Levenshtein, &QueryOptions::new().k(2))
            .unwrap();
        crate::parallel::set_thread_override(None);
        for (q, (nns, _)) in queries.iter().zip(&kbatch) {
            let snns = knn(db(), q, &Levenshtein, 2);
            let bd: Vec<(usize, f64)> = nns.iter().map(|n| (n.index, n.distance)).collect();
            let sd: Vec<(usize, f64)> = snns.iter().map(|n| (n.index, n.distance)).collect();
            assert_eq!(bd, sd, "query {q:?}");
        }
    }
}
