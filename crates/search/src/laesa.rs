//! LAESA — Linear AESA (Micó, Oncina & Vidal 1994, ref \[5\]).
//!
//! Preprocessing stores the distances from a small set of **pivots**
//! (base prototypes) to every database element: `O(p·n)` distance
//! computations, `O(p·n)` memory — *linear* in `n` for fixed `p`,
//! which is LAESA's improvement over AESA's quadratic matrix.
//!
//! At query time the algorithm interleaves two activities:
//!
//! 1. compute the real distance from the query to a selected element
//!    (pivots first, in order of their current lower bound);
//! 2. after each computed *pivot* distance `d(q, p)`, tighten every
//!    alive candidate's lower bound
//!    `G[u] ← max(G[u], |d(q, p) − d(p, u)|)` using the precomputed
//!    row, then **eliminate** candidates whose bound exceeds the best
//!    distance found so far.
//!
//! With a metric distance the triangle inequality guarantees
//! `G[u] ≤ d(q, u)`, so elimination never discards the true nearest
//! neighbour. With a non-metric (e.g. `d_max`) the bound is merely a
//! heuristic and the answer may be approximate — exactly the effect
//! visible in Table 2 of the paper.

use crate::error::SearchError;
use crate::index::{MetricIndex, QueryOptions};
use crate::parallel::par_map;
use crate::tombstone::TombstoneSet;
use crate::{sanitise_distance, Neighbour, SearchStats};
use cned_core::lanes::LANES;
use cned_core::metric::{Distance, PreparedQuery};
use cned_core::Symbol;
use core::cmp::Reverse;
use std::collections::BinaryHeap;

/// Validate `pivots` against a database of `n` items and map each
/// item to its pivot row (`usize::MAX` for non-pivots). An
/// out-of-range or repeated pivot is a typed error.
fn pivot_row_map(n: usize, pivots: &[usize]) -> Result<Vec<usize>, SearchError> {
    let mut pivot_row = vec![usize::MAX; n];
    for (r, &p) in pivots.iter().enumerate() {
        if p >= n {
            return Err(SearchError::PivotOutOfRange { pivot: p, len: n });
        }
        if pivot_row[p] != usize::MAX {
            return Err(SearchError::DuplicatePivot { pivot: p });
        }
        pivot_row[p] = r;
    }
    Ok(pivot_row)
}

/// A LAESA index over an owned database of strings.
#[derive(Debug)]
pub struct Laesa<S: Symbol> {
    db: Vec<Vec<S>>,
    /// Indices (into `db`) of the pivot elements.
    pivots: Vec<usize>,
    /// `rows[r][u]` = distance from pivot `pivots[r]` to `db[u]`.
    rows: Vec<Vec<f64>>,
    /// For pivot elements, their row number; `usize::MAX` otherwise.
    pivot_row: Vec<usize>,
    /// Distance computations spent during preprocessing.
    preprocessing_computations: u64,
    /// Logically deleted indices; the pivot table keeps its physical
    /// layout and the dead are filtered at answer emission.
    tombstones: TombstoneSet,
}

impl<S: Symbol> Laesa<S> {
    /// Build the index: store the pivot-to-everything distance rows.
    ///
    /// The `p·n` distance computations are fanned out across cores
    /// (see [`crate::parallel`]); each worker prepares its pivot once
    /// and streams it against its share of the database.
    ///
    /// `pivots` are indices into `db` (typically from
    /// [`crate::pivots::select_pivots_max_sum`]); an out-of-range or
    /// repeated pivot is a typed error
    /// ([`SearchError::PivotOutOfRange`] /
    /// [`SearchError::DuplicatePivot`]), not a panic.
    pub fn try_build<D: Distance<S> + ?Sized>(
        db: Vec<Vec<S>>,
        pivots: Vec<usize>,
        dist: &D,
    ) -> Result<Laesa<S>, SearchError> {
        let n = db.len();
        let pivot_row = pivot_row_map(n, &pivots)?;
        let refs: Vec<&[S]> = db.iter().map(Vec::as_slice).collect();
        let rows: Vec<Vec<f64>> = par_map(pivots.len(), |r| {
            let prepared = dist.prepare(&db[pivots[r]]);
            let mut row = vec![0.0f64; n];
            prepared.distance_to_batch(&refs, &mut row);
            // NaN rows would silently disable elimination for the
            // affected candidates; reject them at build time.
            for d in row.iter_mut() {
                *d = sanitise_distance(*d);
            }
            row
        });
        let preprocessing_computations = (pivots.len() * n) as u64;
        Ok(Laesa {
            db,
            pivots,
            rows,
            pivot_row,
            preprocessing_computations,
            tombstones: TombstoneSet::new(),
        })
    }

    /// The database the index was built over.
    pub fn database(&self) -> &[Vec<S>] {
        &self.db
    }

    /// Unwrap the index back into its database (dropping the pivot
    /// rows) — e.g. for rebuilding merged shards during rebalancing.
    pub fn into_database(self) -> Vec<Vec<S>> {
        self.db
    }

    /// Pivot indices.
    pub fn pivots(&self) -> &[usize] {
        &self.pivots
    }

    /// Distance computations spent building the index.
    pub fn preprocessing_computations(&self) -> u64 {
        self.preprocessing_computations
    }

    /// The pivot distance table: `rows[r][u]` is the distance from
    /// pivot `pivots()[r]` to `database()[u]`. This is the expensive
    /// `O(p·n)` state a snapshot exists to preserve (`cned-store`
    /// serialises it and feeds it back through [`Laesa::from_parts`]).
    pub fn pivot_rows(&self) -> &[Vec<f64>] {
        &self.rows
    }

    /// Reassemble an index from previously exported state — the
    /// snapshot-restore path, skipping the `p·n` distance
    /// computations of [`Laesa::try_build`] entirely.
    ///
    /// `rows` must be the table a build over `(db, pivots)` would have
    /// produced (shape-checked here; values are trusted — a checksum
    /// guards them at the storage layer). `preprocessing` is the
    /// original build's computation count, preserved so a restored
    /// index reports identical statistics.
    pub fn from_parts(
        db: Vec<Vec<S>>,
        pivots: Vec<usize>,
        rows: Vec<Vec<f64>>,
        preprocessing: u64,
    ) -> Result<Laesa<S>, SearchError> {
        let n = db.len();
        let pivot_row = pivot_row_map(n, &pivots)?;
        if rows.len() != pivots.len() || rows.iter().any(|row| row.len() != n) {
            return Err(SearchError::Persistence {
                reason: format!(
                    "pivot table shape {}x{} does not match {} pivots over {} items",
                    rows.len(),
                    rows.first().map_or(0, Vec::len),
                    pivots.len(),
                    n
                ),
            });
        }
        Ok(Laesa {
            db,
            pivots,
            rows,
            pivot_row,
            preprocessing_computations: preprocessing,
            tombstones: TombstoneSet::new(),
        })
    }

    /// The tombstone set (for snapshot encoding).
    pub fn tombstones(&self) -> &TombstoneSet {
        &self.tombstones
    }

    /// Restore a tombstone set (snapshot decode / replica sync).
    pub fn set_tombstones(&mut self, tombstones: TombstoneSet) {
        self.tombstones = tombstones;
    }

    /// Pivot phase of the k-NN core.
    ///
    /// Evaluates active pivots exactly — the first in build order, then
    /// always the live pivot with the minimal (lower bound, index) —
    /// feeding each exact distance to `admit`, which records the
    /// candidate and returns the updated pruning budget (the `k`-th
    /// best distance, or the radius while fewer are known). After every pivot the candidate and
    /// pivot live lists are tightened with the pivot's precomputed row
    /// and **compacted** against that budget, so per-round cost tracks
    /// the surviving set instead of rescanning all `n` elements every
    /// round (the `laesa`-slower-than-`linear` fix).
    ///
    /// On return `cands` holds the still-live plain candidates (their
    /// bounds now frozen: no unevaluated active pivot remains that
    /// could tighten them) and `lower` the final bounds.
    fn pivot_phase(
        &self,
        prepared: &dyn PreparedQuery<S>,
        limit: usize,
        lower: &mut [f64],
        cands: &mut Vec<usize>,
        computations: &mut u64,
        mut admit: impl FnMut(usize, f64) -> f64,
    ) {
        let n = self.db.len();
        // Live plain candidates: everything that is not an active
        // pivot, ascending index (the canonical tie-break order).
        cands.clear();
        cands.extend((0..n).filter(|&u| self.pivot_row[u] >= limit));
        // Live active pivots, ascending index for the same tie-break
        // the old full-array sweep had.
        let mut live_pivots: Vec<usize> = self.pivots[..limit].to_vec();
        live_pivots.sort_unstable();

        // First selection is the first *built* pivot (build order, not
        // index order); afterwards the live pivot with minimal bound.
        let mut selected = (limit > 0).then(|| self.pivots[0]);
        while let Some(s) = selected.take() {
            let pos = live_pivots
                .iter()
                .position(|&u| u == s)
                .expect("live pivot");
            live_pivots.remove(pos);
            // Pivot distances feed the lower-bound updates, so they
            // are computed exactly (never bounded).
            let d = sanitise_distance(prepared.distance_to(&self.db[s]));
            *computations += 1;
            let slack = admit(s, d) + crate::ELIMINATION_SLACK;

            // Tighten every live bound with the pivot's row and drop
            // eliminated entries in the same pass.
            let row = &self.rows[self.pivot_row[s]];
            let keep = |u: &usize, lower: &mut [f64]| {
                let g = (d - row[*u]).abs();
                if g > lower[*u] {
                    lower[*u] = g;
                }
                lower[*u] <= slack
            };
            cands.retain(|u| keep(u, lower));
            live_pivots.retain(|u| keep(u, lower));

            // Next pivot: minimal (bound, index) — ascending order plus
            // strict `<` keeps the first (smallest-index) minimum.
            let mut next: Option<(usize, f64)> = None;
            for &u in &live_pivots {
                if next.is_none_or(|(_, bg)| lower[u] < bg) {
                    next = Some((u, lower[u]));
                }
            }
            selected = next.map(|(u, _)| u);
        }
    }

    /// Lazy bound-ordered candidate feed for the Phase-2 sweeps.
    ///
    /// Replaces the former sort-then-sweep: building the heap is
    /// `O(n)` (vs `O(n log n)` for a full sort) and only the visited
    /// prefix pays `log n` per pop — on low-dimensional corpora the
    /// shrinking budget stops the sweep after a handful of chunks, so
    /// almost none of the eliminated tail is ever ordered.
    ///
    /// Pops arrive in exactly the frozen `(lower bound, index)` order
    /// the sort produced: bounds are built from `abs()` of sanitised
    /// distances, so they are non-negative and never NaN, which makes
    /// `f64::to_bits` order coincide with numeric (`total_cmp`) order
    /// — bit-identical visit sequence, chunk boundaries and budget
    /// snapshots, pinned by the stats-exact tests below.
    fn heap_of_frozen_bounds(cands: &[usize], lower: &[f64]) -> BinaryHeap<Reverse<(u64, usize)>> {
        cands
            .iter()
            .map(|&u| Reverse((lower[u].to_bits(), u)))
            .collect()
    }

    /// Pop the next lane-width chunk of candidates whose frozen bound
    /// is `<= slack`, in (bound, index) order. Returns the number of
    /// candidates written to `out`; `0` ends the sweep (the heap's
    /// minimum already exceeds the budget, so every remaining
    /// candidate is eliminated).
    fn pop_chunk(
        heap: &mut BinaryHeap<Reverse<(u64, usize)>>,
        slack: f64,
        out: &mut [usize; LANES],
    ) -> usize {
        let mut take = 0;
        while take < LANES {
            let Some(&Reverse((bits, u))) = heap.peek() else {
                break;
            };
            if f64::from_bits(bits) > slack {
                break;
            }
            heap.pop();
            out[take] = u;
            take += 1;
        }
        take
    }

    /// The `k` nearest neighbours **within `radius`** of an
    /// already-prepared query, using only the first `limit` pivots
    /// (the [`QueryOptions::pivot_budget`] knob; pass `usize::MAX` for
    /// all), sorted by the canonical (distance, index) ordering. May
    /// return fewer than `k` entries when fewer elements lie within
    /// the radius. Nearest-neighbour search is the `k = 1` case.
    ///
    /// Elimination uses the running `k`-th-best distance (the radius
    /// while fewer than `k` are known). This is the sharded serving
    /// layer's entry point (`cned-serve`): the caller prepares the
    /// query **once** — so the per-query caches (Myers `Peq` bitmaps,
    /// contextual DP scratch) are reused across the pivot set of
    /// *every* shard — and seeds each later shard with the running
    /// global `k`-th-best distance, which acts exactly like an
    /// already-known best: it bounds the non-pivot candidate
    /// evaluations *and* feeds candidate elimination from the first
    /// pivot onwards. Pivot distances are still computed exactly even
    /// when they exceed the radius, because their exact values are
    /// what make the triangle-inequality lower bounds (and therefore
    /// the answer) correct.
    pub fn knn_search(
        &self,
        prepared: &dyn PreparedQuery<S>,
        k: usize,
        radius: f64,
        limit: usize,
    ) -> (Vec<Neighbour>, SearchStats) {
        let limit = limit.min(self.pivots.len());
        let n = self.db.len();
        if n == 0 || k == 0 {
            return (Vec::new(), SearchStats::default());
        }

        let mut lower = vec![0.0f64; n];
        let mut computations = 0u64;
        // Current k best, kept sorted by (distance, index); the radius
        // caps the admission budget until k closer elements displace
        // it. Sized by the corpus, never by `k` alone: `k` arrives
        // straight off the wire.
        let mut best: Vec<Neighbour> = Vec::with_capacity(k.min(n) + 1);
        fn kth(best: &[Neighbour], k: usize, radius: f64) -> f64 {
            if best.len() < k {
                radius
            } else {
                best[k - 1].distance
            }
        }
        // A rejected bounded evaluation surfaces as +inf and must never
        // enter the result set, even at an infinite radius.
        fn admit_knn(best: &mut Vec<Neighbour>, k: usize, radius: f64, index: usize, d: f64) {
            if d.is_finite() && d <= radius {
                let candidate = Neighbour { index, distance: d };
                let pos = best
                    .binary_search_by(|nb| nb.ordering(&candidate))
                    .unwrap_or_else(|e| e);
                best.insert(pos, candidate);
                best.truncate(k);
            }
        }

        // Phase 1: pivots — exact distances (even beyond the radius:
        // their values make the lower bounds correct), elimination
        // against the running k-th-best distance.
        let mut cands: Vec<usize> = Vec::new();
        self.pivot_phase(
            prepared,
            limit,
            &mut lower,
            &mut cands,
            &mut computations,
            |s, d| {
                admit_knn(&mut best, k, radius, s, d);
                kth(&best, k, radius)
            },
        );

        // Phase 2: survivors in frozen (bound, index) order via the
        // lazy bound-ordered heap, batched through the bounded lane
        // path with the k-th distance as the budget. Stale chunk
        // budgets only admit a superset; the sorted insert + truncate
        // keeps the final k identical.
        let mut heap = Self::heap_of_frozen_bounds(&cands, &lower);
        let mut chunk = [0usize; LANES];
        let mut targets: [&[S]; LANES] = [&[]; LANES];
        let mut results: [Option<f64>; LANES] = [None; LANES];
        loop {
            let budget = kth(&best, k, radius);
            let slack = budget + crate::ELIMINATION_SLACK;
            let take = Self::pop_chunk(&mut heap, slack, &mut chunk);
            if take == 0 {
                break;
            }
            for (t, &u) in chunk[..take].iter().enumerate() {
                targets[t] = &self.db[u];
            }
            prepared.distance_to_batch_bounded(&targets[..take], budget, &mut results[..take]);
            computations += take as u64;
            for (i, d) in results[..take].iter().enumerate() {
                let Some(d) = *d else { continue };
                admit_knn(&mut best, k, radius, chunk[i], d);
            }
        }

        (
            best,
            SearchStats {
                distance_computations: computations,
            },
        )
    }

    /// Every element **within `radius`** (inclusive) of an
    /// already-prepared query, using only the first `limit` pivots, in
    /// the canonical (distance, index) order.
    ///
    /// Unlike k-NN the pruning radius never shrinks, so the algorithm
    /// is a straight two-phase sweep: every active pivot is computed
    /// exactly (its value both answers its own membership and tightens
    /// every candidate's triangle-inequality lower bound
    /// `G[u] = max_p |d(q,p) − d(p,u)|`), candidates whose bound
    /// exceeds `radius` (plus [`crate::ELIMINATION_SLACK`]) are
    /// eliminated unevaluated, and the survivors are evaluated with
    /// `radius` as their early-exit budget.
    pub fn range_search(
        &self,
        prepared: &dyn PreparedQuery<S>,
        radius: f64,
        limit: usize,
    ) -> (Vec<Neighbour>, SearchStats) {
        let limit = limit.min(self.pivots.len());
        let n = self.db.len();
        let mut alive = vec![true; n];
        let mut lower = vec![0.0f64; n];
        let mut computations = 0u64;
        let mut hits: Vec<Neighbour> = Vec::new();

        // The fixed radius means every active pivot is evaluated
        // unconditionally, so all pivot distances can be scored in one
        // lane-batched pass up front; the row sweeps then run in the
        // same order as before.
        let pivot_refs: Vec<&[S]> = self.pivots[..limit]
            .iter()
            .map(|&p| self.db[p].as_slice())
            .collect();
        let mut pivot_d = vec![0.0f64; limit];
        prepared.distance_to_batch(&pivot_refs, &mut pivot_d);
        computations += limit as u64;
        for r in 0..limit {
            let p = self.pivots[r];
            let d = sanitise_distance(pivot_d[r]);
            alive[p] = false;
            if d.is_finite() && d <= radius {
                hits.push(Neighbour {
                    index: p,
                    distance: d,
                });
            }
            let row = &self.rows[r];
            for u in 0..n {
                if !alive[u] {
                    continue;
                }
                let g = (d - row[u]).abs();
                if g > lower[u] {
                    lower[u] = g;
                }
                if lower[u] > radius + crate::ELIMINATION_SLACK {
                    alive[u] = false;
                }
            }
        }
        // Survivors all share the same fixed budget, so the whole set
        // batches cleanly in lane-width chunks.
        let survivors: Vec<usize> = (0..n).filter(|&u| alive[u]).collect();
        computations += survivors.len() as u64;
        let mut results: [Option<f64>; LANES] = [None; LANES];
        let mut targets: [&[S]; LANES] = [&[]; LANES];
        for chunk in survivors.chunks(LANES) {
            for (i, &u) in chunk.iter().enumerate() {
                targets[i] = &self.db[u];
            }
            prepared.distance_to_batch_bounded(
                &targets[..chunk.len()],
                radius,
                &mut results[..chunk.len()],
            );
            for (i, d) in results[..chunk.len()].iter().enumerate() {
                let Some(d) = *d else { continue };
                if d.is_finite() {
                    hits.push(Neighbour {
                        index: chunk[i],
                        distance: d,
                    });
                }
            }
        }
        hits.sort_by(|a, b| a.ordering(b));
        (
            hits,
            SearchStats {
                distance_computations: computations,
            },
        )
    }
}

impl<S: Symbol> MetricIndex<S> for Laesa<S> {
    fn len(&self) -> usize {
        self.db.len()
    }

    fn backend_name(&self) -> &'static str {
        "laesa"
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
        if self.db.is_empty() {
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

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linear::LinearIndex;
    use crate::pivots::select_pivots_max_sum;
    use cned_core::contextual::heuristic::ContextualHeuristic;
    use cned_core::levenshtein::Levenshtein;
    use cned_core::normalized::yujian_bo::YujianBo;

    /// Deterministic pseudo-random word corpus.
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

    /// A LAESA index over `db` with `p` max-sum pivots.
    fn build(db: &[Vec<u8>], p: usize, dist: &dyn Distance<u8>) -> Laesa<u8> {
        let pivots = select_pivots_max_sum(db, p, 0, dist);
        Laesa::try_build(db.to_vec(), pivots, dist).unwrap()
    }

    fn nn(
        idx: &dyn MetricIndex<u8>,
        q: &[u8],
        dist: &dyn Distance<u8>,
        opts: &QueryOptions,
    ) -> (Neighbour, SearchStats) {
        let (found, stats) = idx.nn(q, dist, opts).unwrap();
        (found.expect("infinite radius always finds"), stats)
    }

    fn knn(
        idx: &dyn MetricIndex<u8>,
        q: &[u8],
        dist: &dyn Distance<u8>,
        k: usize,
    ) -> Vec<Neighbour> {
        idx.knn(q, dist, &QueryOptions::new().k(k)).unwrap().0
    }

    fn key(ns: &[Neighbour]) -> Vec<(usize, u64)> {
        ns.iter().map(|n| (n.index, n.distance.to_bits())).collect()
    }

    #[test]
    fn empty_db_is_a_typed_error() {
        let idx: Laesa<u8> = Laesa::try_build(Vec::new(), Vec::new(), &Levenshtein).unwrap();
        assert_eq!(
            idx.nn(b"abc", &Levenshtein, &QueryOptions::new())
                .unwrap_err(),
            SearchError::EmptyDatabase
        );
    }

    #[test]
    fn finds_exact_member() {
        let db = corpus(50, 8, 3, 7);
        let idx = build(&db, 5, &Levenshtein);
        let (nn, _) = nn(&idx, &db[17], &Levenshtein, &QueryOptions::new());
        assert_eq!(nn.distance, 0.0);
        assert_eq!(idx.database()[nn.index], db[17]);
    }

    /// LAESA's NN distance agrees with the linear scan's within `tol`
    /// for every query.
    fn agrees_with_linear_scan(
        db: &[Vec<u8>],
        queries: &[Vec<u8>],
        p: usize,
        dist: &dyn Distance<u8>,
        tol: f64,
    ) {
        let idx = build(db, p, dist);
        let oracle = LinearIndex::new(db.to_vec());
        let opts = QueryOptions::new();
        for q in queries {
            let (l_nn, _) = nn(&oracle, q, dist, &opts);
            let (a_nn, _) = nn(&idx, q, dist, &opts);
            assert!((a_nn.distance - l_nn.distance).abs() <= tol, "query {q:?}");
        }
    }

    #[test]
    fn agrees_with_linear_scan_for_levenshtein() {
        agrees_with_linear_scan(
            &corpus(120, 10, 3, 11),
            &corpus(40, 10, 3, 99),
            8,
            &Levenshtein,
            0.0,
        );
    }

    #[test]
    fn agrees_with_linear_scan_for_yujian_bo() {
        agrees_with_linear_scan(
            &corpus(100, 9, 3, 5),
            &corpus(30, 9, 3, 123),
            10,
            &YujianBo,
            1e-12,
        );
    }

    #[test]
    fn agrees_with_linear_scan_for_contextual_heuristic() {
        // d_C,h is not formally a metric, but in practice (and in the
        // paper's Table 2) LAESA over it returns the linear-scan result
        // on natural data. If this ever flakes the assertion should be
        // relaxed — with this fixed corpus it holds.
        agrees_with_linear_scan(
            &corpus(100, 9, 3, 21),
            &corpus(30, 9, 3, 77),
            10,
            &ContextualHeuristic,
            1e-9,
        );
    }

    #[test]
    fn agrees_with_linear_scan_for_exact_contextual_and_gates_fire() {
        // d_C is a metric, so LAESA must reproduce the linear-scan
        // neighbour; along the way the bounded engine's cheap gates
        // (not the cubic DP) should be absorbing most of the budgeted
        // comparisons. The gate counter is process-global and can only
        // grow concurrently, so `>` is race-safe.
        use cned_core::contextual::bounded::gate_rejections;
        use cned_core::contextual::exact::Contextual;
        let gates_before = gate_rejections();
        agrees_with_linear_scan(
            &corpus(80, 9, 3, 29),
            &corpus(15, 9, 3, 291),
            8,
            &Contextual,
            1e-12,
        );
        assert!(
            gate_rejections() > gates_before,
            "searching d_C should reject candidates through the bounded gates"
        );
    }

    #[test]
    fn uses_fewer_computations_than_linear_scan() {
        let db = corpus(300, 10, 3, 31);
        let queries = corpus(20, 10, 3, 301);
        let idx = build(&db, 24, &Levenshtein);
        let total: u64 = queries
            .iter()
            .map(|q| {
                nn(&idx, q, &Levenshtein, &QueryOptions::new())
                    .1
                    .distance_computations
            })
            .sum();
        let avg = total as f64 / queries.len() as f64;
        assert!(
            avg < db.len() as f64 * 0.8,
            "LAESA should beat exhaustive scan on average: avg {avg} vs n {}",
            db.len()
        );
    }

    #[test]
    fn computation_count_never_exceeds_db_size() {
        let db = corpus(80, 8, 2, 13);
        let idx = build(&db, 6, &Levenshtein);
        for q in corpus(20, 8, 2, 44) {
            let (_, stats) = nn(&idx, &q, &Levenshtein, &QueryOptions::new());
            assert!(stats.distance_computations <= db.len() as u64);
        }
    }

    #[test]
    fn knn_matches_linear_scan_distances() {
        let db = corpus(150, 9, 3, 17);
        let idx = build(&db, 12, &Levenshtein);
        let oracle = LinearIndex::new(db);
        for q in corpus(15, 9, 3, 171) {
            let l_knn = knn(&oracle, &q, &Levenshtein, 5);
            let a_knn = knn(&idx, &q, &Levenshtein, 5);
            assert_eq!(a_knn.len(), 5);
            let ld: Vec<f64> = l_knn.iter().map(|n| n.distance).collect();
            let ad: Vec<f64> = a_knn.iter().map(|n| n.distance).collect();
            assert_eq!(ld, ad, "query {q:?}");
        }
    }

    #[test]
    fn zero_pivots_degenerates_to_near_exhaustive_but_stays_correct() {
        let db = corpus(60, 8, 3, 23);
        let idx = build(&db, 0, &Levenshtein);
        let oracle = LinearIndex::new(db.clone());
        let opts = QueryOptions::new();
        for q in corpus(10, 8, 3, 67) {
            let (l_nn, _) = nn(&oracle, &q, &Levenshtein, &opts);
            let (a_nn, stats) = nn(&idx, &q, &Levenshtein, &opts);
            assert_eq!(a_nn.distance, l_nn.distance);
            // Without pivots there are no lower bounds: every element
            // must be computed.
            assert_eq!(stats.distance_computations, db.len() as u64);
        }
    }

    #[test]
    fn preprocessing_count_is_pivots_times_n() {
        let idx = build(&corpus(40, 8, 3, 3), 4, &Levenshtein);
        assert_eq!(idx.preprocessing_computations(), 4 * 40);
    }

    #[test]
    fn pivot_budget_matches_dedicated_builds() {
        // A budget-limited query over a 20-pivot index must return the
        // same neighbour (and computation count) as an index built
        // with only the prefix, because greedy selection is
        // incremental.
        let db = corpus(150, 9, 3, 53);
        let queries = corpus(10, 9, 3, 531);
        let pivots20 = select_pivots_max_sum(&db, 20, 0, &Levenshtein);
        let big = Laesa::try_build(db.clone(), pivots20.clone(), &Levenshtein).unwrap();
        for p in [0usize, 3, 8, 20] {
            let small = Laesa::try_build(db.clone(), pivots20[..p].to_vec(), &Levenshtein).unwrap();
            for q in &queries {
                let (nn_a, st_a) = nn(&big, q, &Levenshtein, &QueryOptions::new().pivot_budget(p));
                let (nn_b, st_b) = nn(&small, q, &Levenshtein, &QueryOptions::new());
                assert_eq!(nn_a.distance, nn_b.distance, "p={p} q={q:?}");
                assert_eq!(st_a, st_b, "p={p} q={q:?}");
            }
        }
    }

    #[test]
    fn more_pivots_monotonically_reduce_computations_on_average() {
        let db = corpus(250, 10, 3, 61);
        let queries = corpus(30, 10, 3, 611);
        let idx = build(&db, 64, &Levenshtein);
        let avg = |p: usize| -> f64 {
            let opts = QueryOptions::new().pivot_budget(p);
            let total: u64 = queries
                .iter()
                .map(|q| nn(&idx, q, &Levenshtein, &opts).1.distance_computations)
                .sum();
            total as f64 / queries.len() as f64
        };
        // Not strictly monotone in general, but the large steps are:
        let (a0, a8, a64) = (avg(0), avg(8), avg(64));
        assert!(a8 < a0, "8 pivots ({a8}) should beat none ({a0})");
        assert!(a64 < a0, "64 pivots ({a64}) should beat none ({a0})");
    }

    #[test]
    fn bad_pivots_are_typed_errors() {
        let db = corpus(10, 5, 2, 1);
        assert_eq!(
            Laesa::try_build(db.clone(), vec![1, 1], &Levenshtein).unwrap_err(),
            SearchError::DuplicatePivot { pivot: 1 }
        );
        assert_eq!(
            Laesa::try_build(db.clone(), vec![10], &Levenshtein).unwrap_err(),
            SearchError::PivotOutOfRange { pivot: 10, len: 10 }
        );
        // The snapshot-restore path validates pivots the same way.
        let rows = vec![vec![0.0; 10]; 2];
        assert_eq!(
            Laesa::from_parts(db.clone(), vec![3, 3], rows.clone(), 0).unwrap_err(),
            SearchError::DuplicatePivot { pivot: 3 }
        );
        assert_eq!(
            Laesa::from_parts(db, vec![2, 12], rows, 0).unwrap_err(),
            SearchError::PivotOutOfRange { pivot: 12, len: 10 }
        );
    }
    #[test]
    fn range_matches_linear_scan_filter() {
        let db = corpus(120, 9, 3, 91);
        let queries = corpus(20, 9, 3, 911);
        let pivots = select_pivots_max_sum(&db, 10, 0, &Levenshtein);
        let idx = Laesa::try_build(db.clone(), pivots, &Levenshtein).unwrap();
        for q in &queries {
            for radius in [0.0, 1.0, 2.0, 4.0] {
                let opts = QueryOptions::new().radius(radius);
                let (hits, stats) = MetricIndex::range(&idx, q, &Levenshtein, &opts).unwrap();
                // Oracle: full scan + filter + canonical sort.
                let prepared = cned_core::metric::Distance::<u8>::prepare(&Levenshtein, q);
                let mut oracle: Vec<(usize, f64)> = db
                    .iter()
                    .enumerate()
                    .map(|(i, item)| (i, prepared.distance_to(item)))
                    .filter(|&(_, d)| d <= radius)
                    .collect();
                oracle.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
                let oracle: Vec<(usize, u64)> =
                    oracle.into_iter().map(|(i, d)| (i, d.to_bits())).collect();
                let got: Vec<(usize, u64)> = hits
                    .iter()
                    .map(|n| (n.index, n.distance.to_bits()))
                    .collect();
                assert_eq!(got, oracle, "query {q:?} radius {radius}");
                assert!(stats.distance_computations <= db.len() as u64);
            }
        }
    }

    #[test]
    fn range_pruning_saves_computations_at_small_radii() {
        let db = corpus(300, 10, 3, 93);
        let queries = corpus(15, 10, 3, 931);
        let pivots = select_pivots_max_sum(&db, 24, 0, &Levenshtein);
        let idx = Laesa::try_build(db.clone(), pivots, &Levenshtein).unwrap();
        let opts = QueryOptions::new().radius(1.0);
        let total: u64 = queries
            .iter()
            .map(|q| {
                MetricIndex::range(&idx, q, &Levenshtein, &opts)
                    .unwrap()
                    .1
                    .distance_computations
            })
            .sum();
        let avg = total as f64 / queries.len() as f64;
        assert!(
            avg < db.len() as f64 * 0.8,
            "triangle pruning should skip most of the database: avg {avg} vs n {}",
            db.len()
        );
    }

    #[test]
    fn batch_queries_match_single_queries() {
        let db = corpus(120, 10, 3, 57);
        let queries = corpus(25, 10, 3, 571);
        let idx = build(&db, 10, &Levenshtein);
        let opts = QueryOptions::new();
        let _guard = crate::TEST_ENV_LOCK.lock().unwrap();
        crate::parallel::set_thread_override(Some(3));
        let batch = idx.nn_batch(&queries, &Levenshtein, &opts).unwrap();
        let kbatch = idx
            .knn_batch(&queries, &Levenshtein, &QueryOptions::new().k(4))
            .unwrap();
        crate::parallel::set_thread_override(None);
        assert_eq!(batch.len(), queries.len());
        for (q, (found, stats)) in queries.iter().zip(&batch) {
            let (snn, sstats) = nn(&idx, q, &Levenshtein, &opts);
            assert_eq!(found.unwrap().distance, snn.distance, "query {q:?}");
            assert_eq!(*stats, sstats);
        }
        for (q, (nns, _)) in queries.iter().zip(&kbatch) {
            assert_eq!(key(nns), key(&knn(&idx, q, &Levenshtein, 4)), "query {q:?}");
        }
    }

    #[test]
    fn ties_resolve_to_ascending_index_with_duplicate_strings() {
        // Seed the corpus with duplicated strings so equal distances
        // are guaranteed; the LAESA visit order (pivot-driven) differs
        // from the linear scan's index order, so agreement here proves
        // the tie-break is by database index, not by visit order.
        let mut db = corpus(60, 6, 2, 41);
        let dups: Vec<Vec<u8>> = db.iter().take(10).cloned().collect();
        db.extend(dups);
        let idx = build(&db, 6, &Levenshtein);
        let oracle = LinearIndex::new(db);
        let opts = QueryOptions::new();
        for q in corpus(20, 6, 2, 411) {
            let (l_nn, _) = nn(&oracle, &q, &Levenshtein, &opts);
            let (a_nn, _) = nn(&idx, &q, &Levenshtein, &opts);
            assert_eq!(
                (a_nn.index, a_nn.distance.to_bits()),
                (l_nn.index, l_nn.distance.to_bits()),
                "nn mismatch on {q:?}"
            );
            assert_eq!(
                key(&knn(&idx, &q, &Levenshtein, 5)),
                key(&knn(&oracle, &q, &Levenshtein, 5)),
                "knn mismatch on {q:?}"
            );
        }
    }

    #[test]
    fn prepared_radius_queries_match_plain_queries() {
        // knn_search at an infinite radius is knn; as a 1-NN seeded at
        // the exact best distance it still finds the neighbour (<=
        // admission); just below it finds nothing.
        let db = corpus(80, 8, 3, 47);
        let idx = build(&db, 8, &Levenshtein);
        for q in corpus(10, 8, 3, 471) {
            let (nn, stats) = nn(&idx, &q, &Levenshtein, &QueryOptions::new());
            let prepared = Distance::<u8>::prepare(&Levenshtein, &q);
            let all = usize::MAX;
            let (p_nn, p_stats) = idx.knn_search(&*prepared, 1, f64::INFINITY, all);
            assert_eq!(key(&p_nn), key(&[nn]));
            assert_eq!(p_stats, stats);
            let (at, _) = idx.knn_search(&*prepared, 1, nn.distance, all);
            assert_eq!(key(&at), key(&[nn]));
            if nn.distance > 0.0 {
                let (below, _) = idx.knn_search(&*prepared, 1, nn.distance - 0.5, all);
                assert!(below.is_empty(), "query {q:?}");
            }
            let (p_knns, _) = idx.knn_search(&*prepared, 4, f64::INFINITY, all);
            assert_eq!(
                key(&p_knns),
                key(&knn(&idx, &q, &Levenshtein, 4)),
                "query {q:?}"
            );
        }
    }

    #[test]
    fn parallel_build_matches_sequential_build() {
        // Force a multi-threaded build even on a single-core box and
        // check the index is bit-identical to the sequential one.
        let db = corpus(90, 9, 3, 63);
        let _guard = crate::TEST_ENV_LOCK.lock().unwrap();
        crate::parallel::set_thread_override(Some(4));
        let parallel = build(&db, 8, &Levenshtein);
        crate::parallel::set_thread_override(Some(1));
        let sequential = build(&db, 8, &Levenshtein);
        crate::parallel::set_thread_override(None);
        assert_eq!(parallel.rows, sequential.rows);
        assert_eq!(
            parallel.preprocessing_computations(),
            sequential.preprocessing_computations()
        );
        let opts = QueryOptions::new();
        for q in corpus(10, 9, 3, 631) {
            let (a, _) = nn(&parallel, &q, &Levenshtein, &opts);
            let (b, _) = nn(&sequential, &q, &Levenshtein, &opts);
            assert_eq!((a.index, a.distance), (b.index, b.distance));
        }
    }
}
