//! AESA — Approximating and Eliminating Search Algorithm.
//!
//! The quadratic-memory ancestor of LAESA: preprocessing stores the
//! **full pairwise distance matrix** of the database (`O(n²)` time and
//! memory), and at query time *every* computed element acts as a
//! pivot, tightening the lower bound of all remaining candidates. AESA
//! famously achieves an (empirically) constant number of distance
//! computations per query — at a preprocessing price that is
//! prohibitive for large `n`, which is exactly the gap LAESA \[5\]
//! closes. Included as the reference point discussed with \[6\]
//! (Rico-Juan & Micó compare AESA and LAESA with string edit
//! distances).

use crate::error::SearchError;
use crate::index::{MetricIndex, QueryOptions};
use crate::parallel::par_map;
use crate::tombstone::TombstoneSet;
use crate::{sanitise_distance, Neighbour, SearchStats};
use cned_core::metric::{Distance, PreparedQuery};
use cned_core::Symbol;

/// An AESA index: the full pairwise distance matrix.
pub struct Aesa<S: Symbol> {
    db: Vec<Vec<S>>,
    /// Row-major `n × n` matrix; `matrix[i*n + j] = d(db[i], db[j])`.
    matrix: Vec<f64>,
    preprocessing_computations: u64,
    tombstones: TombstoneSet,
}

impl<S: Symbol> Aesa<S> {
    /// Build the full matrix: `n·(n−1)/2` distance computations,
    /// fanned out across cores (see [`crate::parallel`]; the strided
    /// work split balances the triangle's shrinking rows). Each worker
    /// prepares row `i`'s element once and streams it against
    /// `j > i`, so for `d_E` the Myers `Peq` cache is built `n` times
    /// instead of `n²/2`.
    pub fn build<D: Distance<S> + ?Sized>(db: Vec<Vec<S>>, dist: &D) -> Aesa<S> {
        let n = db.len();
        let upper_rows: Vec<Vec<f64>> = par_map(n, |i| {
            let prepared = dist.prepare(&db[i]);
            ((i + 1)..n).map(|j| prepared.distance_to(&db[j])).collect()
        });
        let mut matrix = vec![0.0f64; n * n];
        for (i, row) in upper_rows.iter().enumerate() {
            for (off, &d) in row.iter().enumerate() {
                let j = i + 1 + off;
                matrix[i * n + j] = d;
                matrix[j * n + i] = d;
            }
        }
        Aesa {
            db,
            matrix,
            preprocessing_computations: (n * n.saturating_sub(1) / 2) as u64,
            tombstones: TombstoneSet::new(),
        }
    }

    /// The database the index was built over.
    pub fn database(&self) -> &[Vec<S>] {
        &self.db
    }

    /// Distance computations spent building the matrix.
    pub fn preprocessing_computations(&self) -> u64 {
        self.preprocessing_computations
    }

    /// The AESA search loop shared by k-NN and range search.
    ///
    /// Starting from element 0, computes the selected element's exact
    /// distance and hands it to `admit`, which records the element and
    /// returns the current elimination bound (the `k`-th-best distance
    /// or the fixed range radius). Every computed element is a pivot
    /// in AESA: its matrix row tightens every alive candidate's lower
    /// bound, candidates above the bound (plus
    /// [`crate::ELIMINATION_SLACK`]) are eliminated, and the alive
    /// candidate with the minimal (lower bound, index) is selected
    /// next. Returns the number of distance computations.
    fn eliminate(
        &self,
        prepared: &dyn PreparedQuery<S>,
        mut admit: impl FnMut(usize, f64) -> f64,
    ) -> u64 {
        let n = self.db.len();
        let mut alive = vec![true; n];
        let mut lower = vec![0.0f64; n];
        let mut n_alive = n;
        let mut computations = 0u64;
        let mut selected = (n > 0).then_some(0usize);

        while let Some(s) = selected.take() {
            let d = sanitise_distance(prepared.distance_to(&self.db[s]));
            computations += 1;
            let bound = admit(s, d);
            alive[s] = false;
            n_alive -= 1;

            let row = &self.matrix[s * n..(s + 1) * n];
            let mut next: Option<(usize, f64)> = None;
            for u in 0..n {
                if !alive[u] {
                    continue;
                }
                let g = (d - row[u]).abs();
                if g > lower[u] {
                    lower[u] = g;
                }
                if lower[u] > bound + crate::ELIMINATION_SLACK {
                    alive[u] = false;
                    n_alive -= 1;
                } else if next.is_none_or(|(_, bg)| lower[u] < bg) {
                    next = Some((u, lower[u]));
                }
            }
            if n_alive == 0 {
                break;
            }
            // `next` may have been eliminated later in the same sweep
            // or missed (eliminated candidates skipped) — re-scan only
            // if needed.
            selected = match next {
                Some((u, _)) if alive[u] => Some(u),
                _ => {
                    let mut fallback: Option<(usize, f64)> = None;
                    for u in 0..n {
                        if alive[u] && fallback.is_none_or(|(_, bg)| lower[u] < bg) {
                            fallback = Some((u, lower[u]));
                        }
                    }
                    fallback.map(|(u, _)| u)
                }
            };
        }
        computations
    }

    /// The `k` nearest neighbours **within `radius`** of an
    /// already-prepared query, in the canonical (distance, index)
    /// order; elimination uses the running `k`-th-best distance (the
    /// radius while fewer than `k` are known). Nearest-neighbour search
    /// is the `k = 1` case.
    fn knn_search(
        &self,
        prepared: &dyn PreparedQuery<S>,
        k: usize,
        radius: f64,
    ) -> (Vec<Neighbour>, SearchStats) {
        if k == 0 {
            return (Vec::new(), SearchStats::default());
        }
        // Sized by the corpus, never by `k` alone: `k` arrives straight
        // off the wire.
        let mut best: Vec<Neighbour> = Vec::with_capacity(k.min(self.db.len()) + 1);
        let computations = self.eliminate(prepared, |s, d| {
            // Canonical tie-break: equal distances resolve to the
            // smallest index, matching every other backend.
            if d.is_finite() && d <= radius {
                let candidate = Neighbour {
                    index: s,
                    distance: d,
                };
                let pos = best
                    .binary_search_by(|nb| nb.ordering(&candidate))
                    .unwrap_or_else(|e| e);
                best.insert(pos, candidate);
                best.truncate(k);
            }
            if best.len() < k {
                radius
            } else {
                best[k - 1].distance
            }
        });
        (
            best,
            SearchStats {
                distance_computations: computations,
            },
        )
    }

    /// Every element **within `radius`** (inclusive) of an
    /// already-prepared query, in canonical order. The radius never
    /// shrinks, so elimination is against a fixed bound: each computed
    /// element's exact distance answers its own membership and
    /// tightens every survivor's lower bound.
    fn range_search(
        &self,
        prepared: &dyn PreparedQuery<S>,
        radius: f64,
    ) -> (Vec<Neighbour>, SearchStats) {
        let mut hits: Vec<Neighbour> = Vec::new();
        let computations = self.eliminate(prepared, |s, d| {
            if d.is_finite() && d <= radius {
                hits.push(Neighbour {
                    index: s,
                    distance: d,
                });
            }
            radius
        });
        hits.sort_by(|a, b| a.ordering(b));
        (
            hits,
            SearchStats {
                distance_computations: computations,
            },
        )
    }
}

impl<S: Symbol> MetricIndex<S> for Aesa<S> {
    fn len(&self) -> usize {
        self.db.len()
    }

    fn backend_name(&self) -> &'static str {
        "aesa"
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
        // Over-fetch: at most T of the top k + T answers can be dead.
        let want = opts.k.saturating_add(self.tombstones.count());
        let (mut best, stats) = self.knn_search(&*prepared, want, radius);
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
        if self.db.is_empty() {
            return Err(SearchError::EmptyDatabase);
        }
        let radius = opts.checked_radius()?;
        let prepared = dist.prepare(query);
        let (mut hits, stats) = self.range_search(&*prepared, radius);
        self.tombstones.retain_live(&mut hits);
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::laesa::Laesa;
    use crate::linear::LinearIndex;
    use crate::pivots::select_pivots_max_sum;
    use cned_core::levenshtein::Levenshtein;

    fn corpus(n: usize, len: usize, alphabet: u8, seed: u64) -> Vec<Vec<u8>> {
        let mut state = seed | 1;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        (0..n)
            .map(|_| {
                let l = 1 + (rng() % len as u64) as usize;
                (0..l)
                    .map(|_| b'a' + (rng() % alphabet as u64) as u8)
                    .collect()
            })
            .collect()
    }

    fn nn(idx: &dyn MetricIndex<u8>, q: &[u8]) -> (Neighbour, SearchStats) {
        let (found, stats) = idx.nn(q, &Levenshtein, &QueryOptions::new()).unwrap();
        (found.expect("infinite radius always finds"), stats)
    }

    #[test]
    fn empty_db_is_a_typed_error() {
        let idx: Aesa<u8> = Aesa::build(Vec::new(), &Levenshtein);
        assert_eq!(
            idx.nn(b"x", &Levenshtein, &QueryOptions::new())
                .unwrap_err(),
            SearchError::EmptyDatabase
        );
    }

    #[test]
    fn matrix_preprocessing_count() {
        let db = corpus(20, 6, 3, 9);
        let idx = Aesa::build(db, &Levenshtein);
        assert_eq!(idx.preprocessing_computations(), 20 * 19 / 2);
    }

    #[test]
    fn agrees_with_linear_scan() {
        let db = corpus(100, 9, 3, 19);
        let idx = Aesa::build(db.clone(), &Levenshtein);
        let oracle = LinearIndex::new(db);
        for q in corpus(30, 9, 3, 191) {
            let (l_nn, _) = nn(&oracle, &q);
            let (a_nn, _) = nn(&idx, &q);
            assert_eq!(a_nn.distance, l_nn.distance, "query {q:?}");
        }
    }

    #[test]
    fn aesa_uses_no_more_computations_than_laesa_on_average() {
        let db = corpus(200, 10, 3, 29);
        let aesa = Aesa::build(db.clone(), &Levenshtein);
        let pivots = select_pivots_max_sum(&db, 12, 0, &Levenshtein);
        let laesa = Laesa::try_build(db, pivots, &Levenshtein).unwrap();
        let (mut a_total, mut l_total) = (0u64, 0u64);
        for q in corpus(25, 10, 3, 291) {
            a_total += nn(&aesa, &q).1.distance_computations;
            l_total += nn(&laesa, &q).1.distance_computations;
        }
        assert!(
            a_total <= l_total,
            "AESA ({a_total}) should not exceed LAESA ({l_total}) in total computations"
        );
    }

    #[test]
    fn finds_exact_member_with_few_computations() {
        let db = corpus(150, 8, 3, 41);
        let probe = db[42].clone();
        let idx = Aesa::build(db, &Levenshtein);
        let (nn, stats) = nn(&idx, &probe);
        assert_eq!(nn.distance, 0.0);
        assert!(stats.distance_computations < 150);
    }

    #[test]
    fn batch_matches_single_queries() {
        let db = corpus(80, 9, 3, 47);
        let queries = corpus(15, 9, 3, 471);
        let idx = Aesa::build(db, &Levenshtein);
        let _guard = crate::TEST_ENV_LOCK.lock().unwrap();
        crate::parallel::set_thread_override(Some(3));
        let batch = idx
            .nn_batch(&queries, &Levenshtein, &QueryOptions::new())
            .unwrap();
        crate::parallel::set_thread_override(None);
        for (q, (found, stats)) in queries.iter().zip(&batch) {
            let (snn, sstats) = nn(&idx, q);
            assert_eq!(found.unwrap().distance, snn.distance, "query {q:?}");
            assert_eq!(*stats, sstats);
        }
    }

    #[test]
    fn knn_and_range_match_linear_oracles() {
        use crate::index::{MetricIndex, QueryOptions};
        let db = corpus(90, 9, 3, 61);
        let queries = corpus(15, 9, 3, 611);
        let idx = Aesa::build(db.clone(), &Levenshtein);
        for q in &queries {
            let prepared = cned_core::metric::Distance::<u8>::prepare(&Levenshtein, q);
            let all: Vec<(usize, f64)> = db
                .iter()
                .enumerate()
                .map(|(i, item)| (i, prepared.distance_to(item)))
                .collect();
            // k-NN oracle: sort-and-truncate under the canonical order.
            let mut sorted = all.clone();
            sorted.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
            let (knn, _) = idx.knn(q, &Levenshtein, &QueryOptions::new().k(5)).unwrap();
            let got: Vec<(usize, f64)> = knn.iter().map(|n| (n.index, n.distance)).collect();
            assert_eq!(got, sorted[..5].to_vec(), "query {q:?}");
            // Range oracle: filter at each radius.
            for radius in [0.0, 1.0, 3.0] {
                let oracle: Vec<(usize, f64)> = sorted
                    .iter()
                    .copied()
                    .filter(|&(_, d)| d <= radius)
                    .collect();
                let (hits, stats) = idx
                    .range(q, &Levenshtein, &QueryOptions::new().radius(radius))
                    .unwrap();
                let got: Vec<(usize, f64)> = hits.iter().map(|n| (n.index, n.distance)).collect();
                assert_eq!(got, oracle, "query {q:?} radius {radius}");
                assert!(stats.distance_computations <= db.len() as u64);
            }
        }
    }

    #[test]
    fn radius_seeded_nn_prunes_and_excludes() {
        let db = corpus(60, 8, 3, 67);
        let idx = Aesa::build(db, &Levenshtein);
        for q in corpus(8, 8, 3, 671) {
            let (nb, _) = nn(&idx, &q);
            let seeded = |radius: f64| {
                let opts = QueryOptions::new().radius(radius);
                idx.nn(&q, &Levenshtein, &opts).unwrap().0
            };
            let at = seeded(nb.distance).unwrap();
            assert_eq!((at.index, at.distance), (nb.index, nb.distance));
            if nb.distance > 0.0 {
                assert!(seeded(nb.distance - 0.5).is_none(), "query {q:?}");
            }
        }
    }

    #[test]
    fn parallel_build_matches_sequential_build() {
        let db = corpus(60, 8, 3, 51);
        let _guard = crate::TEST_ENV_LOCK.lock().unwrap();
        crate::parallel::set_thread_override(Some(4));
        let parallel = Aesa::build(db.clone(), &Levenshtein);
        crate::parallel::set_thread_override(Some(1));
        let sequential = Aesa::build(db, &Levenshtein);
        crate::parallel::set_thread_override(None);
        assert_eq!(parallel.matrix, sequential.matrix);
        assert_eq!(
            parallel.preprocessing_computations(),
            sequential.preprocessing_computations()
        );
    }
}
