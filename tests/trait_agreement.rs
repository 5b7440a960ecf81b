//! The unified-API agreement suite: all five backends — `LinearIndex`,
//! `Laesa`, `Aesa`, `VpTree` and `ShardedIndex` — answer nn / knn /
//! range through `&dyn MetricIndex<u8>` with results **bit-identical**
//! to an independent linear-scan oracle across `d_E`, `d_YB` and
//! `d_C`, including the canonical tie-break on duplicate-heavy
//! corpora and the empty-corpus edge cases; a golden table pins the
//! absolute distance-evaluation counts of every backend.

use cned::core::contextual::exact::Contextual;
use cned::core::levenshtein::Levenshtein;
use cned::core::metric::Distance;
use cned::core::normalized::yujian_bo::YujianBo;
use cned::search::parallel::set_thread_override;
use cned::search::pivots::select_pivots_max_sum;
use cned::search::{Aesa, Laesa, LinearIndex, VpTree};
use cned::serve::{ShardConfig, ShardedIndex};
use cned::{Backend, Database, Metric, MetricIndex, Neighbour, QueryOptions, SearchError};

/// Deterministic pseudo-random word corpus (xorshift).
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

/// All five backends over one corpus, as trait objects.
fn backends(db: &[Vec<u8>], dist: &dyn Distance<u8>) -> Vec<Box<dyn MetricIndex<u8>>> {
    let pivots = select_pivots_max_sum(db, 6, 0, dist);
    vec![
        Box::new(LinearIndex::new(db.to_vec())),
        Box::new(Laesa::try_build(db.to_vec(), pivots, dist).unwrap()),
        Box::new(Aesa::build(db.to_vec(), dist)),
        Box::new(VpTree::build(db.to_vec(), dist)),
        Box::new(
            ShardedIndex::try_build(
                db.to_vec(),
                ShardConfig {
                    shards: 3,
                    pivots_per_shard: 3,
                    compact_threshold: 8,
                    ..ShardConfig::default()
                },
                dist,
            )
            .unwrap(),
        ),
    ]
}

fn key(ns: &[Neighbour]) -> Vec<(usize, u64)> {
    ns.iter().map(|n| (n.index, n.distance.to_bits())).collect()
}

/// Linear-scan oracles computed with raw `Distance::distance` calls —
/// independent of every code path under test.
fn oracle_sorted(db: &[Vec<u8>], q: &[u8], dist: &dyn Distance<u8>) -> Vec<(usize, f64)> {
    let mut all: Vec<(usize, f64)> = db
        .iter()
        .enumerate()
        .map(|(i, item)| (i, dist.distance(q, item)))
        .collect();
    all.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
    all
}

#[test]
fn all_backends_agree_on_nn_knn_and_range_for_all_metrics() {
    // Duplicates guarantee distance ties, so this also pins the
    // canonical (distance, ascending index) tie-break behind the
    // trait for every backend.
    let mut db = corpus(36, 6, 3, 41);
    let dups: Vec<Vec<u8>> = db.iter().take(8).cloned().collect();
    db.extend(dups);
    let queries = corpus(6, 6, 3, 411);
    let metrics: [&dyn Distance<u8>; 3] = [&Levenshtein, &YujianBo, &Contextual];
    for dist in metrics {
        let indexes = backends(&db, dist);
        for q in &queries {
            let sorted = oracle_sorted(&db, q, dist);
            let (nn_i, nn_d) = sorted[0];
            let knn_expect: Vec<(usize, u64)> = sorted
                .iter()
                .take(4)
                .map(|&(i, d)| (i, d.to_bits()))
                .collect();
            // Radius at the exact NN distance: boundary ties must be
            // admitted by every backend (elimination slack at work for
            // the real-valued metrics).
            let radius = nn_d;
            let range_expect: Vec<(usize, u64)> = sorted
                .iter()
                .take_while(|&&(_, d)| d <= radius)
                .map(|&(i, d)| (i, d.to_bits()))
                .collect();
            for index in &indexes {
                let label = format!(
                    "backend {} metric {} query {q:?}",
                    index.backend_name(),
                    dist.name()
                );
                let (nn, _) = index.nn(q, dist, &QueryOptions::new()).unwrap();
                let nn = nn.expect("infinite radius always finds");
                assert_eq!(
                    (nn.index, nn.distance.to_bits()),
                    (nn_i, nn_d.to_bits()),
                    "{label}"
                );
                let (knn, _) = index.knn(q, dist, &QueryOptions::new().k(4)).unwrap();
                assert_eq!(key(&knn), knn_expect, "{label}");
                let (range, _) = index
                    .range(q, dist, &QueryOptions::new().radius(radius))
                    .unwrap();
                assert_eq!(key(&range), range_expect, "{label}");
            }
        }
    }
}

#[test]
fn empty_corpus_is_a_typed_error_on_every_backend() {
    let empty: Vec<Vec<u8>> = Vec::new();
    for index in backends(&empty, &Levenshtein) {
        let label = index.backend_name();
        assert_eq!(index.len(), 0, "{label}");
        let opts = QueryOptions::new();
        assert_eq!(
            index.nn(b"abc", &Levenshtein, &opts).unwrap_err(),
            SearchError::EmptyDatabase,
            "{label}"
        );
        assert_eq!(
            index.knn(b"abc", &Levenshtein, &opts).unwrap_err(),
            SearchError::EmptyDatabase,
            "{label}"
        );
        assert_eq!(
            index.range(b"abc", &Levenshtein, &opts).unwrap_err(),
            SearchError::EmptyDatabase,
            "{label}"
        );
        assert_eq!(
            index
                .nn_batch(&[b"abc".to_vec()], &Levenshtein, &opts)
                .unwrap_err(),
            SearchError::EmptyDatabase,
            "{label}"
        );
        assert_eq!(index.item(0), None, "{label}");
    }
}

#[test]
fn batch_paths_match_single_paths_behind_the_trait() {
    let db = corpus(40, 7, 3, 47);
    let queries = corpus(10, 7, 3, 471);
    for index in backends(&db, &Levenshtein) {
        let label = index.backend_name();
        let opts = QueryOptions::new();
        set_thread_override(Some(3));
        let nn_batch = index.nn_batch(&queries, &Levenshtein, &opts).unwrap();
        let knn_batch = index
            .knn_batch(&queries, &Levenshtein, &QueryOptions::new().k(3))
            .unwrap();
        set_thread_override(None);
        for (q, ((b_nn, b_stats), (b_knn, b_knn_stats))) in
            queries.iter().zip(nn_batch.iter().zip(&knn_batch))
        {
            let (s_nn, s_stats) = index.nn(q, &Levenshtein, &opts).unwrap();
            let (b_nn, s_nn) = (b_nn.unwrap(), s_nn.unwrap());
            assert_eq!(
                (b_nn.index, b_nn.distance.to_bits(), *b_stats),
                (s_nn.index, s_nn.distance.to_bits(), s_stats),
                "{label} query {q:?}"
            );
            let (s_knn, s_knn_stats) = index
                .knn(q, &Levenshtein, &QueryOptions::new().k(3))
                .unwrap();
            assert_eq!(key(b_knn), key(&s_knn), "{label} query {q:?}");
            assert_eq!(b_knn_stats, &s_knn_stats, "{label} query {q:?}");
        }
    }
}

#[test]
fn facade_end_to_end_with_sharding_and_range() {
    // Database::builder with shards, plus range queries through a
    // serve session.
    use cned::serve::{Request, ResponseBody, ServeSession, Ticket};
    use std::sync::Arc;
    let words = corpus(60, 6, 3, 53);
    let db = Database::builder(words.clone())
        .metric(Metric::Levenshtein)
        .backend(Backend::Laesa { pivots: 4 })
        .shards(4)
        .build()
        .unwrap();
    assert_eq!(db.index().backend_name(), "sharded");
    let probe = words[11].clone();
    let (nn, _) = db.nn(&probe).unwrap();
    assert_eq!(nn.unwrap().distance, 0.0);
    let (hits, _) = db.range(&probe, 1.0).unwrap();
    let oracle: Vec<(usize, u64)> = oracle_sorted(&words, &probe, db.metric())
        .into_iter()
        .take_while(|&(_, d)| d <= 1.0)
        .map(|(i, d)| (i, d.to_bits()))
        .collect();
    assert_eq!(key(&hits), oracle);
    // Range through a session, in-order with an insert barrier.
    let index = ShardedIndex::try_build(
        words.clone(),
        ShardConfig {
            shards: 4,
            pivots_per_shard: 4,
            compact_threshold: 16,
            ..ShardConfig::default()
        },
        &Levenshtein,
    )
    .unwrap();
    let session = ServeSession::spawn(index, Arc::new(Levenshtein));
    let far = b"zzzzz".to_vec();
    let tickets: Vec<Ticket> = [
        Request::Range {
            query: far.clone(),
            radius: 0.0,
        },
        Request::Insert { item: far.clone() },
        Request::Range {
            query: far.clone(),
            radius: 0.0,
        },
    ]
    .into_iter()
    .map(|request| session.submit(request).unwrap())
    .collect();
    let responses: Vec<_> = tickets.into_iter().map(Ticket::wait).collect();
    session.shutdown();
    let ResponseBody::Range { neighbours, .. } = &responses[0].body else {
        panic!("expected Range, got {:?}", responses[0]);
    };
    assert!(neighbours.is_empty());
    let ResponseBody::Range { neighbours, .. } = &responses[2].body else {
        panic!("expected Range, got {:?}", responses[2]);
    };
    assert_eq!(key(neighbours), vec![(words.len(), 0.0f64.to_bits())]);
}

/// FNV-1a over every answer's length and `(index, distance bits)`
/// pairs: one number pins a whole sequence of answer lists.
fn digest(mut h: u64, ns: &[Neighbour]) -> u64 {
    let words = std::iter::once(ns.len() as u64).chain(
        ns.iter()
            .flat_map(|n| [n.index as u64, n.distance.to_bits()]),
    );
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// One metric's golden row, recorded before NN became a provided
/// `k = 1` method: the answer digests of NN, 5-NN and range (every
/// backend must reproduce them); the summed evaluations of each
/// backend, in `backends()` order, as `[NN, 5-NN, range]`; and LAESA
/// NN's summed evaluations at pivot budgets 0, 2, 4 and all (the
/// Figures 3–4 sweep), whose answers must digest to the NN digest.
type GoldenRow = (&'static str, [u64; 3], [[u64; 3]; 5], [u64; 4]);

const GOLDEN: [GoldenRow; 2] = [
    (
        "d_E",
        [
            8259889242280704061,
            15728869662850327670,
            9201058392794645170,
        ],
        [
            [480, 480, 480],
            [216, 328, 297],
            [150, 218, 180],
            [343, 418, 396],
            [311, 433, 381],
        ],
        [480, 260, 235, 216],
    ),
    (
        "d_C",
        [
            12633735752119659905,
            7600060946090806766,
            4760336755740161716,
        ],
        [
            [480, 480, 480],
            [208, 291, 326],
            [122, 187, 268],
            [329, 437, 442],
            [285, 398, 385],
        ],
        [480, 256, 218, 208],
    ),
];

#[test]
fn golden_counts_and_answer_digests_are_pinned() {
    // Absolute distance-evaluation counts and answer digests for a
    // fixed corpus, so a refactor of any query core that changes what
    // it evaluates fails here even when every answer stays right.
    let db = corpus(48, 7, 3, 61);
    let queries = corpus(10, 7, 3, 611);
    let metrics: [(&dyn Distance<u8>, f64); 2] = [(&Levenshtein, 2.0), (&Contextual, 0.5)];
    for ((name, digests, evals, sweep), (dist, radius)) in GOLDEN.into_iter().zip(metrics) {
        assert_eq!(name, dist.name());
        let mut indexes = backends(&db, dist);
        // The sharded backend carries a non-empty delta shard.
        let mut sharded = ShardedIndex::try_build(
            db[..44].to_vec(),
            ShardConfig {
                shards: 3,
                pivots_per_shard: 3,
                compact_threshold: 8,
                ..ShardConfig::default()
            },
            dist,
        )
        .unwrap();
        for item in &db[44..] {
            sharded.insert(item.clone(), dist);
        }
        assert_eq!(sharded.delta_len(), 4);
        indexes[4] = Box::new(sharded);
        let mut got_evals = [[0u64; 3]; 5];
        for (index, got) in indexes.iter().zip(&mut got_evals) {
            let mut got_digests = [FNV_OFFSET; 3];
            for q in &queries {
                let (nn, s) = index.nn(q, dist, &QueryOptions::new()).unwrap();
                got[0] += s.distance_computations;
                got_digests[0] = digest(got_digests[0], nn.as_slice());
                let (knn, s) = index.knn(q, dist, &QueryOptions::new().k(5)).unwrap();
                got[1] += s.distance_computations;
                got_digests[1] = digest(got_digests[1], &knn);
                let opts = QueryOptions::new().radius(radius);
                let (hits, s) = index.range(q, dist, &opts).unwrap();
                got[2] += s.distance_computations;
                got_digests[2] = digest(got_digests[2], &hits);
            }
            assert_eq!(got_digests, digests, "{} on {name}", index.backend_name());
        }
        let mut got_sweep = [0u64; 4];
        for (got, budget) in got_sweep.iter_mut().zip([Some(0), Some(2), Some(4), None]) {
            let opts = match budget {
                Some(p) => QueryOptions::new().pivot_budget(p),
                None => QueryOptions::new(),
            };
            let mut answers = FNV_OFFSET;
            for q in &queries {
                let (nn, s) = indexes[1].nn(q, dist, &opts).unwrap();
                *got += s.distance_computations;
                answers = digest(answers, nn.as_slice());
            }
            assert_eq!(answers, digests[0], "LAESA on {name} at budget {budget:?}");
        }
        assert_eq!((got_evals, got_sweep), (evals, sweep), "counts on {name}");
    }
}

#[test]
fn huge_k_answers_every_item_in_canonical_order() {
    // A wire request can carry any u64 `k`; no backend may size a
    // buffer by it.
    let db = corpus(30, 6, 3, 67);
    let q = b"abcab";
    let expect: Vec<(usize, u64)> = oracle_sorted(&db, q, &Levenshtein)
        .into_iter()
        .map(|(i, d)| (i, d.to_bits()))
        .collect();
    for index in backends(&db, &Levenshtein) {
        let (all, _) = index
            .knn(q, &Levenshtein, &QueryOptions::new().k(1 << 40))
            .unwrap();
        assert_eq!(key(&all), expect, "{}", index.backend_name());
    }
}
