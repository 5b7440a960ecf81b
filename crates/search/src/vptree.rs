//! Vantage-point tree — a second triangle-inequality index, included
//! to back the paper's §4.3 remark that "in the literature there
//! exist other methods that also use the metric properties of the
//! distances to accelerate the search, and we argue that our results
//! will apply in similar cases".
//!
//! Construction recursively picks a *vantage point*, computes the
//! distance from it to every remaining element, and splits at the
//! median: the "inside" child holds elements within the median
//! radius, the "outside" child the rest (`O(n log n)` distance
//! computations). A query descends the tree, pruning a child whenever
//! the triangle inequality proves it cannot contain anything closer
//! than the current best:
//!
//! * skip *inside* when `d(q, vp) − best > radius`;
//! * skip *outside* when `radius − d(q, vp) > best`.
//!
//! Like LAESA, correctness requires a metric; with a non-metric the
//! answer may be approximate. Unlike LAESA there is no per-query
//! `O(n)` bookkeeping — the trade-off the paper's discussion of \[1\]
//! alludes to.

use crate::error::SearchError;
use crate::index::{MetricIndex, QueryOptions};
use crate::tombstone::TombstoneSet;
use crate::{sanitise_distance, Neighbour, SearchStats};
use cned_core::metric::{Distance, PreparedQuery};
use cned_core::Symbol;

struct Node {
    /// Index into the database.
    vantage: usize,
    /// Median distance from the vantage point to its subtree.
    radius: f64,
    inside: Option<Box<Node>>,
    outside: Option<Box<Node>>,
}

/// A vantage-point tree over an owned database.
pub struct VpTree<S: Symbol> {
    db: Vec<Vec<S>>,
    root: Option<Box<Node>>,
    preprocessing_computations: u64,
    tombstones: TombstoneSet,
}

impl<S: Symbol> VpTree<S> {
    /// Build the tree. Vantage points are taken deterministically
    /// (first element of each partition), so builds are reproducible.
    pub fn build<D: Distance<S> + ?Sized>(db: Vec<Vec<S>>, dist: &D) -> VpTree<S> {
        let mut computations = 0u64;
        let mut indices: Vec<usize> = (0..db.len()).collect();
        let root = Self::build_node(&db, &mut indices[..], dist, &mut computations);
        VpTree {
            db,
            root,
            preprocessing_computations: computations,
            tombstones: TombstoneSet::new(),
        }
    }

    fn build_node<D: Distance<S> + ?Sized>(
        db: &[Vec<S>],
        indices: &mut [usize],
        dist: &D,
        computations: &mut u64,
    ) -> Option<Box<Node>> {
        let (&mut vantage, rest) = indices.split_first_mut()?;
        if rest.is_empty() {
            return Some(Box::new(Node {
                vantage,
                radius: 0.0,
                inside: None,
                outside: None,
            }));
        }
        // Distances from the vantage point to the rest.
        let mut with_d: Vec<(usize, f64)> = rest
            .iter()
            .map(|&i| {
                *computations += 1;
                (i, dist.distance(&db[vantage], &db[i]))
            })
            .collect();
        with_d.sort_by(|a, b| a.1.total_cmp(&b.1));
        let mid = with_d.len() / 2;
        // Median radius: elements with d <= radius go inside.
        let radius = with_d[mid].1;
        let split = with_d.partition_point(|&(_, d)| d <= radius);
        let (ins, outs) = with_d.split_at(split);

        let mut ins_idx: Vec<usize> = ins.iter().map(|&(i, _)| i).collect();
        let mut out_idx: Vec<usize> = outs.iter().map(|&(i, _)| i).collect();
        let inside = Self::build_node(db, &mut ins_idx[..], dist, computations);
        let outside = Self::build_node(db, &mut out_idx[..], dist, computations);
        Some(Box::new(Node {
            vantage,
            radius,
            inside,
            outside,
        }))
    }

    /// The database the tree was built over.
    pub fn database(&self) -> &[Vec<S>] {
        &self.db
    }

    /// Distance computations spent building the tree.
    pub fn preprocessing_computations(&self) -> u64 {
        self.preprocessing_computations
    }

    /// The `k` nearest neighbours **within `radius`** of an
    /// already-prepared query, in canonical order (ties resolve to the
    /// smallest database index). Pruning uses the running `k`-th-best
    /// distance (the admission radius while fewer than `k` are known).
    /// Nearest-neighbour search is the `k = 1` case.
    fn knn_search(
        &self,
        prepared: &dyn PreparedQuery<S>,
        k: usize,
        radius: f64,
    ) -> (Vec<Neighbour>, SearchStats) {
        // Sized by the corpus, never by `k` alone: `k` arrives straight
        // off the wire.
        let mut best: Vec<Neighbour> = Vec::with_capacity(k.min(self.db.len()) + 1);
        let mut computations = 0u64;
        if k > 0 {
            if let Some(root) = self.root.as_ref() {
                self.descend_knn(root, prepared, k, radius, &mut best, &mut computations);
            }
        }
        (
            best,
            SearchStats {
                distance_computations: computations,
            },
        )
    }

    fn descend_knn(
        &self,
        node: &Node,
        prepared: &dyn PreparedQuery<S>,
        k: usize,
        radius: f64,
        best: &mut Vec<Neighbour>,
        computations: &mut u64,
    ) {
        let kth = |best: &Vec<Neighbour>| -> f64 {
            if best.len() < k {
                radius
            } else {
                best[k - 1].distance
            }
        };
        // Vantage distances stay exact: their values drive the descent
        // decisions, not just the admission test.
        let d = sanitise_distance(prepared.distance_to(&self.db[node.vantage]));
        *computations += 1;
        if d.is_finite() && d <= radius {
            let candidate = Neighbour {
                index: node.vantage,
                distance: d,
            };
            let pos = best
                .binary_search_by(|nb| nb.ordering(&candidate))
                .unwrap_or_else(|e| e);
            best.insert(pos, candidate);
            best.truncate(k);
        }
        // Visit the more promising side first; prune the other with
        // the triangle inequality against the (possibly improved)
        // bound. The slack mirrors LAESA/AESA elimination: float
        // rounding must only ever *admit* extra subtrees, never drop
        // an exact tie.
        let (first, second) = if d <= node.radius {
            (&node.inside, &node.outside)
        } else {
            (&node.outside, &node.inside)
        };
        if let Some(child) = first {
            self.descend_knn(child, prepared, k, radius, best, computations);
        }
        if let Some(child) = second {
            let bound = kth(best);
            let crosses = if d <= node.radius {
                // Second = outside: reachable iff d + bound >= radius.
                d + bound >= node.radius - crate::ELIMINATION_SLACK
            } else {
                // Second = inside: reachable iff d - bound <= radius.
                d - bound <= node.radius + crate::ELIMINATION_SLACK
            };
            if crosses {
                self.descend_knn(child, prepared, k, radius, best, computations);
            }
        }
    }

    /// Every element **within `radius`** (inclusive) of an
    /// already-prepared query, in canonical order. A subtree is
    /// visited only when the query ball can intersect its region:
    /// *inside* requires `d(q, vp) − radius <= node.radius`, *outside*
    /// requires `d(q, vp) + radius >= node.radius`.
    fn range_search(
        &self,
        prepared: &dyn PreparedQuery<S>,
        radius: f64,
    ) -> (Vec<Neighbour>, SearchStats) {
        let mut hits: Vec<Neighbour> = Vec::new();
        let mut computations = 0u64;
        if let Some(root) = self.root.as_ref() {
            self.descend_range(root, prepared, radius, &mut hits, &mut computations);
        }
        hits.sort_by(|a, b| a.ordering(b));
        (
            hits,
            SearchStats {
                distance_computations: computations,
            },
        )
    }

    fn descend_range(
        &self,
        node: &Node,
        prepared: &dyn PreparedQuery<S>,
        radius: f64,
        hits: &mut Vec<Neighbour>,
        computations: &mut u64,
    ) {
        let d = sanitise_distance(prepared.distance_to(&self.db[node.vantage]));
        *computations += 1;
        if d.is_finite() && d <= radius {
            hits.push(Neighbour {
                index: node.vantage,
                distance: d,
            });
        }
        if let Some(child) = &node.inside {
            // Anything inside is within node.radius of the vantage
            // point, so its distance to q is at least d - node.radius.
            if d - radius <= node.radius + crate::ELIMINATION_SLACK {
                self.descend_range(child, prepared, radius, hits, computations);
            }
        }
        if let Some(child) = &node.outside {
            // Anything outside is beyond node.radius of the vantage
            // point, so its distance to q exceeds node.radius - d.
            if d + radius >= node.radius - crate::ELIMINATION_SLACK {
                self.descend_range(child, prepared, radius, hits, computations);
            }
        }
    }
}

impl<S: Symbol> MetricIndex<S> for VpTree<S> {
    fn len(&self) -> usize {
        self.db.len()
    }

    fn backend_name(&self) -> &'static str {
        "vptree"
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
        // Prepared once per query (Myers Peq cache for d_E); every
        // vantage-point comparison during the descent reuses it.
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
    use crate::linear::LinearIndex;
    use cned_core::contextual::heuristic::ContextualHeuristic;
    use cned_core::levenshtein::Levenshtein;

    fn corpus(n: usize, len: usize, alphabet: u8, seed: u64) -> Vec<Vec<u8>> {
        let mut state = seed
            .wrapping_add(0x9E37_79B9_7F4A_7C15)
            .wrapping_mul(0xBF58_476D_1CE4_E5B9)
            | 1;
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

    fn nn(
        idx: &dyn MetricIndex<u8>,
        q: &[u8],
        dist: &dyn Distance<u8>,
    ) -> (Neighbour, SearchStats) {
        let (found, stats) = idx.nn(q, dist, &QueryOptions::new()).unwrap();
        (found.expect("infinite radius always finds"), stats)
    }

    #[test]
    fn empty_db_is_a_typed_error() {
        let t: VpTree<u8> = VpTree::build(Vec::new(), &Levenshtein);
        assert_eq!(
            t.nn(b"abc", &Levenshtein, &QueryOptions::new())
                .unwrap_err(),
            SearchError::EmptyDatabase
        );
    }

    #[test]
    fn singleton_db() {
        let t = VpTree::build(vec![b"hola".to_vec()], &Levenshtein);
        let (nn, stats) = nn(&t, b"ha", &Levenshtein);
        assert_eq!(nn.index, 0);
        assert_eq!(nn.distance, 2.0);
        assert_eq!(stats.distance_computations, 1);
    }

    #[test]
    fn matches_linear_scan_for_levenshtein() {
        let db = corpus(200, 10, 3, 71);
        let queries = corpus(50, 10, 3, 711);
        let t = VpTree::build(db.clone(), &Levenshtein);
        let oracle = LinearIndex::new(db);
        for q in &queries {
            let (lin, _) = nn(&oracle, q, &Levenshtein);
            let (nn, _) = nn(&t, q, &Levenshtein);
            assert_eq!(nn.distance, lin.distance, "query {q:?}");
        }
    }

    #[test]
    fn matches_linear_scan_for_contextual_heuristic() {
        let db = corpus(150, 9, 3, 73);
        let queries = corpus(30, 9, 3, 731);
        let t = VpTree::build(db.clone(), &ContextualHeuristic);
        let oracle = LinearIndex::new(db);
        for q in &queries {
            let (lin, _) = nn(&oracle, q, &ContextualHeuristic);
            let (nn, _) = nn(&t, q, &ContextualHeuristic);
            assert!((nn.distance - lin.distance).abs() < 1e-9, "query {q:?}");
        }
    }

    #[test]
    fn prunes_relative_to_exhaustive() {
        let db = corpus(400, 10, 3, 79);
        let queries = corpus(30, 10, 3, 791);
        let t = VpTree::build(db.clone(), &Levenshtein);
        let total: u64 = queries
            .iter()
            .map(|q| nn(&t, q, &Levenshtein).1.distance_computations)
            .sum();
        let avg = total as f64 / queries.len() as f64;
        assert!(
            avg < db.len() as f64 * 0.9,
            "VP-tree should prune: avg {avg} vs n {}",
            db.len()
        );
    }

    #[test]
    fn preprocessing_is_n_log_n_ish() {
        let db = corpus(128, 8, 3, 83);
        let t = VpTree::build(db, &Levenshtein);
        let c = t.preprocessing_computations();
        // Between n-1 (degenerate chain would be worse) and n^2/2.
        assert!(c >= 127);
        assert!(c < 128 * 64, "preprocessing {c} too close to quadratic");
    }

    #[test]
    fn member_probe_finds_itself() {
        let db = corpus(100, 8, 3, 89);
        let probe = db[33].clone();
        let t = VpTree::build(db, &Levenshtein);
        let (nn, _) = nn(&t, &probe, &Levenshtein);
        assert_eq!(nn.distance, 0.0);
    }

    #[test]
    fn knn_and_range_match_linear_oracles() {
        let db = corpus(150, 9, 3, 97);
        let queries = corpus(20, 9, 3, 971);
        let t = VpTree::build(db.clone(), &Levenshtein);
        for q in &queries {
            let prepared = cned_core::metric::Distance::<u8>::prepare(&Levenshtein, q);
            let mut all: Vec<(usize, f64)> = db
                .iter()
                .enumerate()
                .map(|(i, item)| (i, prepared.distance_to(item)))
                .collect();
            all.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
            let (knn, _) = t.knn(q, &Levenshtein, &QueryOptions::new().k(5)).unwrap();
            let got: Vec<(usize, f64)> = knn.iter().map(|n| (n.index, n.distance)).collect();
            assert_eq!(got, all[..5].to_vec(), "query {q:?}");
            for radius in [0.0, 1.0, 3.0] {
                let oracle: Vec<(usize, f64)> =
                    all.iter().copied().filter(|&(_, d)| d <= radius).collect();
                let (hits, stats) = t
                    .range(q, &Levenshtein, &QueryOptions::new().radius(radius))
                    .unwrap();
                let got: Vec<(usize, f64)> = hits.iter().map(|n| (n.index, n.distance)).collect();
                assert_eq!(got, oracle, "query {q:?} radius {radius}");
                assert!(stats.distance_computations <= db.len() as u64);
            }
        }
    }

    #[test]
    fn nn_tie_breaks_to_smallest_index_with_duplicates() {
        // Duplicated strings guarantee ties; the tree's visit order is
        // structural, so agreement with the linear scan proves the
        // canonical (distance, index) tie-break, not luck.
        let mut db = corpus(60, 6, 2, 101);
        let dups: Vec<Vec<u8>> = db.iter().take(10).cloned().collect();
        db.extend(dups);
        let t = VpTree::build(db.clone(), &Levenshtein);
        let oracle = LinearIndex::new(db);
        for q in corpus(15, 6, 2, 1011) {
            let (lin, _) = nn(&oracle, &q, &Levenshtein);
            let (nn, _) = nn(&t, &q, &Levenshtein);
            assert_eq!(nn.index, lin.index, "query {q:?}");
            assert_eq!(nn.distance.to_bits(), lin.distance.to_bits());
        }
    }

    #[test]
    fn radius_seed_excludes_far_neighbours() {
        let db = corpus(80, 8, 3, 103);
        let t = VpTree::build(db, &Levenshtein);
        for q in corpus(8, 8, 3, 1031) {
            let (nb, _) = nn(&t, &q, &Levenshtein);
            let seeded = |radius: f64| {
                let opts = QueryOptions::new().radius(radius);
                t.nn(&q, &Levenshtein, &opts).unwrap().0
            };
            assert_eq!(seeded(nb.distance).unwrap().index, nb.index);
            if nb.distance > 0.0 {
                assert!(seeded(nb.distance - 0.5).is_none(), "query {q:?}");
            }
        }
    }
}
