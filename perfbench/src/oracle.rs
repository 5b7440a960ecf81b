//! The answer oracle: a brute-force linear scan over a model of the
//! index contents, and bit-exact answer comparison.
//!
//! The model replays inserts and deletes (tombstones included), so a
//! read is checked against exactly the items that were live when it
//! was answered. Distances come from the workload's own metric, but no
//! search structure is involved: every live item is compared, in index
//! order, and ties keep the lower index — the canonical order every
//! backend promises.

use cned::core::metric::Distance;
use cned::{Neighbour, Request, ResponseBody, SearchStats};
use std::collections::HashMap;
use std::sync::Arc;

/// What the oracle expects for one request.
#[derive(Debug, Clone, PartialEq)]
pub enum Expected {
    /// The canonical result list of a read (at most one for 1-NN).
    Neighbours(Vec<Neighbour>),
    /// The index an insert must be assigned.
    Inserted(usize),
    /// Whether a delete hits a live item.
    Deleted(bool),
}

/// Index contents as the oracle sees them.
pub struct Model {
    metric: Arc<dyn Distance<u8>>,
    items: Vec<Vec<u8>>,
    dead: Vec<bool>,
}

impl Model {
    /// A model holding `corpus`, all live.
    pub fn new(metric: Arc<dyn Distance<u8>>, corpus: &[Vec<u8>]) -> Model {
        Model {
            metric,
            items: corpus.to_vec(),
            dead: vec![false; corpus.len()],
        }
    }

    /// The expected answer to `request`, applying it if it is a write.
    pub fn apply(&mut self, request: &Request<u8>) -> Expected {
        match request {
            Request::Nn { query } => Expected::Neighbours(self.scan(query, Some(1), None)),
            Request::Knn { query, k } => Expected::Neighbours(self.scan(query, Some(*k), None)),
            Request::Range { query, radius } => {
                Expected::Neighbours(self.scan(query, None, Some(*radius)))
            }
            Request::Insert { item } => {
                self.items.push(item.clone());
                self.dead.push(false);
                Expected::Inserted(self.items.len() - 1)
            }
            Request::Delete { index } => {
                let live = *index < self.items.len() && !self.dead[*index];
                if live {
                    self.dead[*index] = true;
                }
                Expected::Deleted(live)
            }
        }
    }

    /// Brute-force k-NN (`k = Some`) or range (`radius = Some`) scan.
    fn scan(&self, query: &[u8], k: Option<usize>, radius: Option<f64>) -> Vec<Neighbour> {
        let prepared = self.metric.prepare(query);
        let mut best: Vec<Neighbour> = Vec::new();
        for (index, item) in self.items.iter().enumerate() {
            if self.dead[index] {
                continue;
            }
            let bound = match (k, radius) {
                (Some(k), _) if best.len() == k => best[k - 1].distance,
                (_, Some(r)) => r,
                _ => f64::INFINITY,
            };
            // Inclusive bound, ascending index: an item tying the
            // current k-th distance never displaces it.
            let Some(distance) = prepared.distance_to_bounded(item, bound) else {
                continue;
            };
            let at = best.partition_point(|n| n.distance <= distance);
            best.insert(at, Neighbour { index, distance });
            if let Some(k) = k {
                best.truncate(k);
            }
        }
        best
    }
}

/// Expected answers for a read-only request sequence over `corpus`,
/// computed once per distinct request on `threads` scoped threads.
pub fn expect_reads(
    metric: &Arc<dyn Distance<u8>>,
    corpus: &[Vec<u8>],
    requests: &[&Request<u8>],
    threads: usize,
) -> Vec<Expected> {
    let mut distinct: Vec<&Request<u8>> = Vec::new();
    let mut slot: HashMap<String, usize> = HashMap::new();
    let keys: Vec<usize> = requests
        .iter()
        .map(|r| {
            *slot.entry(format!("{r:?}")).or_insert_with(|| {
                distinct.push(r);
                distinct.len() - 1
            })
        })
        .collect();
    let chunk = distinct.len().div_ceil(threads.max(1)).max(1);
    let answers: Vec<Expected> = std::thread::scope(|scope| {
        let workers: Vec<_> = distinct
            .chunks(chunk)
            .map(|part| {
                scope.spawn(move || {
                    let mut model = Model::new(Arc::clone(metric), corpus);
                    part.iter().map(|r| model.apply(r)).collect::<Vec<_>>()
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("oracle worker panicked"))
            .collect()
    });
    keys.into_iter().map(|k| answers[k].clone()).collect()
}

/// Whether `body` is a failure (typed error, refusal, deadline miss).
pub fn is_failure(body: &ResponseBody) -> bool {
    matches!(body, ResponseBody::Failed { .. })
}

/// Whether `body` answers `request` the way `expected` says.
pub fn matches(body: &ResponseBody, expected: &Expected) -> bool {
    match (body, expected) {
        (ResponseBody::Nn { neighbour, .. }, Expected::Neighbours(want)) => {
            same_neighbours(neighbour.as_slice(), want)
        }
        (ResponseBody::Knn { neighbours, .. }, Expected::Neighbours(want))
        | (ResponseBody::Range { neighbours, .. }, Expected::Neighbours(want)) => {
            same_neighbours(neighbours, want)
        }
        (ResponseBody::Inserted { index }, Expected::Inserted(want)) => index == want,
        (ResponseBody::Deleted { existed }, Expected::Deleted(want)) => existed == want,
        _ => false,
    }
}

/// Bit-exact equality of two result lists (indices, distances, order).
pub fn same_neighbours(a: &[Neighbour], b: &[Neighbour]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.index == y.index && x.distance.to_bits() == y.distance.to_bits())
}

/// The result list and statistics of a read answer.
pub fn read_parts(body: &ResponseBody) -> Option<(&[Neighbour], SearchStats)> {
    match body {
        ResponseBody::Nn { neighbour, stats } => Some((neighbour.as_slice(), *stats)),
        ResponseBody::Knn { neighbours, stats } | ResponseBody::Range { neighbours, stats } => {
            Some((neighbours, *stats))
        }
        _ => None,
    }
}

/// Bit-identity of two answers: result lists bit-exact and, when
/// `with_stats`, equal `SearchStats`; writes must agree exactly.
pub fn identical(a: &ResponseBody, b: &ResponseBody, with_stats: bool) -> bool {
    match (read_parts(a), read_parts(b)) {
        (Some((na, sa)), Some((nb, sb))) => {
            std::mem::discriminant(a) == std::mem::discriminant(b)
                && same_neighbours(na, nb)
                && (!with_stats || sa == sb)
        }
        (None, None) => a == b,
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cned::core::levenshtein::Levenshtein;

    fn words(list: &[&str]) -> Vec<Vec<u8>> {
        list.iter().map(|w| w.as_bytes().to_vec()).collect()
    }

    #[test]
    fn scan_is_canonical_and_honours_tombstones() {
        let metric: Arc<dyn Distance<u8>> = Arc::new(Levenshtein);
        let mut model = Model::new(metric, &words(&["casa", "cosa", "masa", "casa"]));
        let knn = Request::Knn {
            query: b"casa".to_vec(),
            k: 3,
        };
        let Expected::Neighbours(got) = model.apply(&knn) else {
            panic!("a read expects neighbours")
        };
        let order: Vec<usize> = got.iter().map(|n| n.index).collect();
        assert_eq!(order, vec![0, 3, 1], "ties keep ascending index");
        assert_eq!(
            model.apply(&Request::Delete { index: 0 }),
            Expected::Deleted(true)
        );
        assert_eq!(
            model.apply(&Request::Delete { index: 0 }),
            Expected::Deleted(false)
        );
        let Expected::Neighbours(got) = model.apply(&Request::Range {
            query: b"casa".to_vec(),
            radius: 1.0,
        }) else {
            panic!("a read expects neighbours")
        };
        let order: Vec<usize> = got.iter().map(|n| n.index).collect();
        assert_eq!(order, vec![3, 1, 2]);
        assert_eq!(
            model.apply(&Request::Insert {
                item: b"cesa".to_vec()
            }),
            Expected::Inserted(4)
        );
    }
}
