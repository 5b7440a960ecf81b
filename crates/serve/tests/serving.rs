//! Integration tests for the sharded serving layer, driven through
//! the unified [`MetricIndex`] trait: agreement with the exhaustive
//! [`LinearIndex`] oracle across metrics, shard counts and thread
//! counts (NN, k-NN **and range**); deterministic tie-breaking on
//! duplicate-heavy corpora; insert/compaction semantics; the
//! thread-count determinism sweep; and a session's in-order
//! mixed-request protocol, including [`Request::Range`] and typed
//! [`ResponseBody::Failed`] errors.

use cned_core::contextual::exact::Contextual;
use cned_core::levenshtein::Levenshtein;
use cned_core::metric::Distance;
use cned_core::normalized::yujian_bo::YujianBo;
use cned_search::parallel::set_thread_override;
use cned_search::pivots::select_pivots_max_sum;
use cned_search::{
    Laesa, LinearIndex, MetricIndex, Neighbour, QueryOptions, SearchError, SearchStats,
};
use cned_serve::{
    Request, RequestId, Response, ResponseBody, ServeSession, SessionConfig, ShardConfig,
    ShardedIndex, Ticket,
};
use std::sync::{Arc, Mutex};

/// The thread override is process-global; tests that touch it
/// serialise here.
static THREADS_LOCK: Mutex<()> = Mutex::new(());

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

fn config(shards: usize) -> ShardConfig {
    ShardConfig {
        shards,
        pivots_per_shard: 4,
        compact_threshold: 8,
        ..ShardConfig::default()
    }
}

fn nn_of(idx: &dyn MetricIndex<u8>, q: &[u8], dist: &dyn Distance<u8>) -> (Neighbour, SearchStats) {
    let (found, stats) = idx
        .nn(q, dist, &QueryOptions::new())
        .expect("non-empty index");
    (found.expect("infinite radius always finds"), stats)
}

fn knn_of(
    idx: &dyn MetricIndex<u8>,
    q: &[u8],
    dist: &dyn Distance<u8>,
    k: usize,
) -> Vec<Neighbour> {
    idx.knn(q, dist, &QueryOptions::new().k(k))
        .expect("non-empty index")
        .0
}

fn key(ns: &[Neighbour]) -> Vec<(usize, u64)> {
    ns.iter().map(|n| (n.index, n.distance.to_bits())).collect()
}

/// Submit the whole queue to a fresh `d_E` session over `index` and
/// wait every ticket in submission order, so `responses[i]` answers
/// `requests[i]` and carries `RequestId(i)`.
fn serve_all<I: MetricIndex<u8> + 'static>(index: I, requests: &[Request<u8>]) -> Vec<Response> {
    let config = SessionConfig::new().queue_depth(requests.len());
    let session = ServeSession::spawn_with(index, Arc::new(Levenshtein), config);
    let tickets: Vec<Ticket> = requests
        .iter()
        .map(|r| session.submit(r.clone()).expect("queue sized for the run"))
        .collect();
    let responses = tickets.into_iter().map(Ticket::wait).collect();
    session.shutdown();
    responses
}

#[test]
fn agrees_with_linear_scan_across_metrics_shards_and_threads() {
    let _guard = THREADS_LOCK.lock().unwrap();
    let db = corpus(42, 7, 3, 97);
    let queries = corpus(6, 7, 3, 971);
    let oracle = LinearIndex::new(db.clone());
    let metrics: [&dyn Distance<u8>; 3] = [&Levenshtein, &YujianBo, &Contextual];
    for dist in metrics {
        for shards in [1usize, 2, 5] {
            for threads in [1usize, 4] {
                set_thread_override(Some(threads));
                let index = ShardedIndex::try_build(db.clone(), config(shards), dist).unwrap();
                for q in &queries {
                    let (l_nn, l_stats) = nn_of(&oracle, q, dist);
                    let (s_nn, s_stats) = nn_of(&index, q, dist);
                    let label = format!(
                        "metric {} shards {shards} threads {threads} query {q:?}",
                        dist.name()
                    );
                    assert_eq!(s_nn.index, l_nn.index, "{label}");
                    assert_eq!(s_nn.distance.to_bits(), l_nn.distance.to_bits(), "{label}");
                    assert!(
                        s_stats.distance_computations <= l_stats.distance_computations + 1,
                        "{label}: sharded should not exceed exhaustive"
                    );
                    assert_eq!(
                        key(&knn_of(&index, q, dist, 5)),
                        key(&knn_of(&oracle, q, dist, 5)),
                        "{label}"
                    );
                    // Range agreement: radius at the true NN distance
                    // (boundary tie included) and slightly above.
                    for radius in [l_nn.distance, l_nn.distance + 0.25] {
                        let opts = QueryOptions::new().radius(radius);
                        let (l_range, _) = oracle.range(q, dist, &opts).unwrap();
                        let (s_range, _) = index.range(q, dist, &opts).unwrap();
                        assert_eq!(key(&s_range), key(&l_range), "{label} radius {radius}");
                        assert!(
                            l_range.iter().any(|n| n.index == l_nn.index),
                            "{label}: the NN itself sits on the radius boundary"
                        );
                    }
                }
            }
        }
        set_thread_override(None);
    }
}

#[test]
fn duplicate_strings_tie_break_serial_batch_sharded() {
    // Corpus seeded with duplicate strings: equal distances are
    // guaranteed, so this pins the ascending-database-index tie-break
    // across the serial, batch and sharded paths.
    let _guard = THREADS_LOCK.lock().unwrap();
    let mut db = corpus(40, 5, 2, 13);
    let dups: Vec<Vec<u8>> = db.iter().take(12).cloned().collect();
    db.extend(dups);
    let queries = corpus(10, 5, 2, 131);
    let pivots = select_pivots_max_sum(&db, 5, 0, &Levenshtein);
    let laesa = Laesa::try_build(db.clone(), pivots, &Levenshtein).unwrap();
    let sharded = ShardedIndex::try_build(db.clone(), config(3), &Levenshtein).unwrap();
    let oracle = LinearIndex::new(db.clone());
    set_thread_override(Some(3));
    let batch =
        MetricIndex::nn_batch(&sharded, &queries, &Levenshtein, &QueryOptions::new()).unwrap();
    set_thread_override(None);
    for (q, (b_nn, _)) in queries.iter().zip(&batch) {
        let b_nn = b_nn.expect("non-empty index");
        let (serial, _) = nn_of(&oracle, q, &Levenshtein);
        let (single, _) = nn_of(&laesa, q, &Levenshtein);
        let (shard_nn, _) = nn_of(&sharded, q, &Levenshtein);
        assert_eq!(serial.index, single.index, "query {q:?}");
        assert_eq!(serial.index, shard_nn.index, "query {q:?}");
        assert_eq!(serial.index, b_nn.index, "query {q:?}");
        assert_eq!(serial.distance.to_bits(), shard_nn.distance.to_bits());
        assert_eq!(
            key(&knn_of(&sharded, q, &Levenshtein, 6)),
            key(&knn_of(&oracle, q, &Levenshtein, 6)),
            "query {q:?}"
        );
        assert_eq!(
            key(&knn_of(&laesa, q, &Levenshtein, 6)),
            key(&knn_of(&oracle, q, &Levenshtein, 6)),
            "query {q:?}"
        );
    }
}

#[test]
fn thread_count_determinism_sweep() {
    // nn_batch / knn_batch / session answers must be bit-identical —
    // neighbours, distances, and computation counts — for any worker
    // count. Guards the scheduler against scheduling-dependent pruning.
    let _guard = THREADS_LOCK.lock().unwrap();
    let db = corpus(70, 8, 3, 201);
    let queries = corpus(13, 8, 3, 2011);
    let index = ShardedIndex::try_build(db.clone(), config(3), &Levenshtein).unwrap();
    type NnKey = Vec<(usize, u64, u64)>;
    type KnnKey = Vec<(Vec<(usize, u64)>, u64)>;
    let mut nn_runs: Vec<NnKey> = Vec::new();
    let mut knn_runs: Vec<KnnKey> = Vec::new();
    let mut pipeline_runs: Vec<Vec<Response>> = Vec::new();
    for threads in [1usize, 2, 7] {
        set_thread_override(Some(threads));
        let nn: NnKey = MetricIndex::nn_batch(&index, &queries, &Levenshtein, &QueryOptions::new())
            .unwrap()
            .iter()
            .map(|(nb, st)| {
                let nb = nb.expect("non-empty index");
                (nb.index, nb.distance.to_bits(), st.distance_computations)
            })
            .collect();
        let knn: KnnKey =
            MetricIndex::knn_batch(&index, &queries, &Levenshtein, &QueryOptions::new().k(4))
                .unwrap()
                .iter()
                .map(|(ns, st)| (key(ns), st.distance_computations))
                .collect();
        let index = ShardedIndex::try_build(db.clone(), config(3), &Levenshtein).unwrap();
        let requests: Vec<Request<u8>> = queries
            .iter()
            .enumerate()
            .map(|(i, q)| match i % 3 {
                0 => Request::Nn { query: q.clone() },
                1 => Request::Knn {
                    query: q.clone(),
                    k: 3,
                },
                _ => Request::Range {
                    query: q.clone(),
                    radius: 2.0,
                },
            })
            .collect();
        pipeline_runs.push(serve_all(index, &requests));
        nn_runs.push(nn);
        knn_runs.push(knn);
    }
    set_thread_override(None);
    assert_eq!(nn_runs[0], nn_runs[1], "nn_batch: 1 vs 2 threads");
    assert_eq!(nn_runs[0], nn_runs[2], "nn_batch: 1 vs 7 threads");
    assert_eq!(knn_runs[0], knn_runs[1], "knn_batch: 1 vs 2 threads");
    assert_eq!(knn_runs[0], knn_runs[2], "knn_batch: 1 vs 7 threads");
    assert_eq!(pipeline_runs[0], pipeline_runs[1], "pipeline: 1 vs 2");
    assert_eq!(pipeline_runs[0], pipeline_runs[2], "pipeline: 1 vs 7");
}

#[test]
fn thread_override_matches_default_results() {
    // The worker count caps a batch's fan-out and cannot change
    // results.
    let db = corpus(50, 7, 3, 211);
    let queries = corpus(9, 7, 3, 2111);
    let index = ShardedIndex::try_build(db, config(2), &Levenshtein).unwrap();
    let _guard = THREADS_LOCK.lock().unwrap();
    let base = MetricIndex::nn_batch(&index, &queries, &Levenshtein, &QueryOptions::new()).unwrap();
    for threads in [1usize, 2, 5] {
        set_thread_override(Some(threads));
        let with =
            MetricIndex::nn_batch(&index, &queries, &Levenshtein, &QueryOptions::new()).unwrap();
        set_thread_override(None);
        for ((a, ast), (b, bst)) in base.iter().zip(&with) {
            let (a, b) = (a.unwrap(), b.unwrap());
            assert_eq!(
                (a.index, a.distance.to_bits()),
                (b.index, b.distance.to_bits())
            );
            assert_eq!(ast, bst, "threads {threads}");
        }
    }
}

#[test]
fn single_shard_matches_plain_laesa_exactly() {
    let db = corpus(50, 7, 3, 301);
    let queries = corpus(8, 7, 3, 3011);
    let cfg = ShardConfig {
        shards: 1,
        pivots_per_shard: 6,
        compact_threshold: 8,
        ..ShardConfig::default()
    };
    let sharded = ShardedIndex::try_build(db.clone(), cfg, &Levenshtein).unwrap();
    let pivots = select_pivots_max_sum(&db, 6, 0, &Levenshtein);
    let plain = Laesa::try_build(db, pivots, &Levenshtein).unwrap();
    for q in &queries {
        let (s_nn, s_stats) = nn_of(&sharded, q, &Levenshtein);
        let (p_nn, p_stats) = nn_of(&plain, q, &Levenshtein);
        assert_eq!(s_nn.index, p_nn.index);
        assert_eq!(s_nn.distance.to_bits(), p_nn.distance.to_bits());
        assert_eq!(s_stats, p_stats, "query {q:?}");
        // Range through one shard is plain LAESA range.
        let opts = QueryOptions::new().radius(2.0);
        let (s_range, _) = sharded.range(q, &Levenshtein, &opts).unwrap();
        let (p_range, _) = MetricIndex::range(&plain, q, &Levenshtein, &opts).unwrap();
        assert_eq!(key(&s_range), key(&p_range), "query {q:?}");
    }
}

#[test]
fn inserts_are_visible_and_compaction_preserves_answers() {
    let db = corpus(30, 6, 3, 77);
    let cfg = ShardConfig {
        shards: 2,
        pivots_per_shard: 4,
        compact_threshold: 5,
        // Pin the historical append-only layout: this test counts
        // shards per compaction; rebalancing has its own tests.
        min_fill_percent: 0,
    };
    let mut index = ShardedIndex::try_build(db.clone(), cfg, &Levenshtein).unwrap();
    assert_eq!(index.num_shards(), 2);
    let mut all = db.clone();
    // Insert items one by one; each must be findable immediately (in
    // the delta shard) and survive compaction with a stable global
    // index.
    let extra = corpus(12, 6, 3, 771);
    for (i, item) in extra.iter().enumerate() {
        let global = index.insert(item.clone(), &Levenshtein);
        assert_eq!(global, db.len() + i);
        all.push(item.clone());
        let (nn, _) = nn_of(&index, item, &Levenshtein);
        assert_eq!(nn.distance, 0.0, "item {item:?} must be found at d=0");
        assert_eq!(index.item(global), &item[..]);
    }
    // 12 inserts at threshold 5 → two compactions happened, 2 items
    // still pending in the delta shard.
    assert_eq!(index.num_shards(), 4);
    assert_eq!(index.delta_len(), 2);
    // The full index must agree with a linear scan over everything —
    // including range queries spanning indexed shards and the delta.
    let oracle = LinearIndex::new(all.clone());
    for q in corpus(10, 6, 3, 7711) {
        let (l_nn, _) = nn_of(&oracle, &q, &Levenshtein);
        let (s_nn, _) = nn_of(&index, &q, &Levenshtein);
        assert_eq!(s_nn.index, l_nn.index, "query {q:?}");
        assert_eq!(s_nn.distance.to_bits(), l_nn.distance.to_bits());
        assert_eq!(
            key(&knn_of(&index, &q, &Levenshtein, 5)),
            key(&knn_of(&oracle, &q, &Levenshtein, 5)),
            "query {q:?}"
        );
        let opts = QueryOptions::new().radius(2.0);
        let (l_range, _) = oracle.range(&q, &Levenshtein, &opts).unwrap();
        let (s_range, _) = index.range(&q, &Levenshtein, &opts).unwrap();
        assert_eq!(key(&s_range), key(&l_range), "query {q:?}");
    }
    // Forced compaction flushes the tail and changes nothing.
    index.compact(&Levenshtein);
    assert_eq!(index.delta_len(), 0);
    assert_eq!(index.num_shards(), 5);
    for q in corpus(5, 6, 3, 77111) {
        let (l_nn, _) = nn_of(&oracle, &q, &Levenshtein);
        let (s_nn, _) = nn_of(&index, &q, &Levenshtein);
        assert_eq!(
            (s_nn.index, s_nn.distance.to_bits()),
            (l_nn.index, l_nn.distance.to_bits())
        );
    }
}

#[test]
fn pipeline_inserts_are_barriers() {
    let db = corpus(20, 6, 3, 55);
    let probe = b"zzzzzz".to_vec();
    // The probe is far from the alphabet {a,b,c} corpus, so its
    // nearest neighbour changes the moment an exact copy is inserted.
    let index = ShardedIndex::try_build(db.clone(), config(2), &Levenshtein).unwrap();
    let responses = serve_all(
        index,
        &[
            Request::Nn {
                query: probe.clone(),
            },
            Request::Range {
                query: probe.clone(),
                radius: 0.0,
            },
            Request::Insert {
                item: probe.clone(),
            },
            Request::Nn {
                query: probe.clone(),
            },
            Request::Knn {
                query: probe.clone(),
                k: 2,
            },
            Request::Range {
                query: probe.clone(),
                radius: 0.0,
            },
        ],
    );
    assert_eq!(responses.len(), 6);
    let ResponseBody::Nn {
        neighbour: Some(before),
        ..
    } = &responses[0].body
    else {
        panic!("expected an Nn response, got {:?}", responses[0]);
    };
    assert!(before.distance > 0.0, "no exact copy before the insert");
    let ResponseBody::Range { neighbours, .. } = &responses[1].body else {
        panic!("expected a Range response, got {:?}", responses[1]);
    };
    assert!(neighbours.is_empty(), "no exact copy before the insert");
    assert_eq!(
        responses[2].body,
        ResponseBody::Inserted { index: db.len() },
        "insert lands right after the seed database"
    );
    let ResponseBody::Nn {
        neighbour: Some(after),
        ..
    } = &responses[3].body
    else {
        panic!("expected an Nn response, got {:?}", responses[3]);
    };
    assert_eq!(after.index, db.len(), "the inserted copy is the new NN");
    assert_eq!(after.distance, 0.0);
    let ResponseBody::Knn { neighbours, .. } = &responses[4].body else {
        panic!("expected a Knn response, got {:?}", responses[4]);
    };
    assert_eq!(neighbours[0].index, db.len());
    assert_eq!(neighbours[0].distance, 0.0);
    let ResponseBody::Range { neighbours, .. } = &responses[5].body else {
        panic!("expected a Range response, got {:?}", responses[5]);
    };
    assert_eq!(key(neighbours), vec![(db.len(), 0.0f64.to_bits())]);
}

#[test]
fn pipeline_range_agrees_with_linear_oracle_in_order() {
    // Mixed queue with inserts between range queries: every range
    // answer must equal the linear-scan filter over the index state it
    // was answered at.
    let db = corpus(40, 6, 3, 57);
    let queries = corpus(12, 6, 3, 571);
    let mut requests: Vec<Request<u8>> = Vec::new();
    for (i, q) in queries.iter().enumerate() {
        if i % 4 == 2 {
            requests.push(Request::Insert { item: q.clone() });
        }
        requests.push(Request::Range {
            query: q.clone(),
            radius: 1.0 + (i % 3) as f64,
        });
    }
    let index = ShardedIndex::try_build(db.clone(), config(3), &Levenshtein).unwrap();
    let responses = serve_all(index, &requests);
    let mut oracle_db = db.clone();
    for (req, resp) in requests.iter().zip(&responses) {
        let resp = &resp.body;
        match (req, resp) {
            (Request::Insert { item }, ResponseBody::Inserted { .. }) => {
                oracle_db.push(item.clone());
            }
            (Request::Range { query, radius }, ResponseBody::Range { neighbours, .. }) => {
                let oracle = LinearIndex::new(oracle_db.clone());
                let (expected, _) = oracle
                    .range(query, &Levenshtein, &QueryOptions::new().radius(*radius))
                    .unwrap();
                assert_eq!(key(neighbours), key(&expected), "query {query:?}");
            }
            _ => panic!("response kind does not match request kind"),
        }
    }
}

#[test]
fn pipeline_is_generic_over_the_trait() {
    // The same session code serves a plain LinearIndex — the trait is
    // the contract, ShardedIndex merely the default backend.
    let db = corpus(25, 6, 3, 59);
    let probe = db[7].clone();
    let responses = serve_all(
        LinearIndex::new(db.clone()),
        &[
            Request::Nn {
                query: probe.clone(),
            },
            Request::Insert {
                item: b"zzzz".to_vec(),
            },
            Request::Nn {
                query: b"zzzz".to_vec(),
            },
        ],
    );
    let ResponseBody::Nn {
        neighbour: Some(nb),
        ..
    } = &responses[0].body
    else {
        panic!("expected Nn, got {:?}", responses[0]);
    };
    assert_eq!((nb.index, nb.distance), (7, 0.0));
    assert_eq!(
        responses[1].body,
        ResponseBody::Inserted { index: db.len() }
    );
    let ResponseBody::Nn {
        neighbour: Some(nb),
        ..
    } = &responses[2].body
    else {
        panic!("expected Nn, got {:?}", responses[2]);
    };
    assert_eq!((nb.index, nb.distance), (db.len(), 0.0));
}

#[test]
fn sharded_honours_the_pivot_budget_per_shard() {
    // pivot_budget caps every shard's pivot table: results stay
    // identical (it is a computation knob, not a correctness knob),
    // and budget 0 degenerates each shard to a bounded exhaustive
    // scan — exactly n evaluations in total.
    let db = corpus(45, 7, 3, 67);
    let queries = corpus(8, 7, 3, 671);
    let index = ShardedIndex::try_build(db.clone(), config(3), &Levenshtein).unwrap();
    for q in &queries {
        let (full, full_stats) = nn_of(&index, q, &Levenshtein);
        let (zero, zero_stats) = MetricIndex::nn(
            &index,
            q,
            &Levenshtein,
            &QueryOptions::new().pivot_budget(0),
        )
        .unwrap();
        let zero = zero.unwrap();
        assert_eq!(
            (zero.index, zero.distance.to_bits()),
            (full.index, full.distance.to_bits()),
            "query {q:?}"
        );
        assert_eq!(
            zero_stats.distance_computations,
            db.len() as u64,
            "no pivots -> every element computed once, query {q:?}"
        );
        assert!(
            full_stats.distance_computations < zero_stats.distance_computations,
            "the full pivot budget must prune, query {q:?}"
        );
        // Intermediate budgets stay correct for knn and range too.
        let opts = QueryOptions::new().pivot_budget(1).k(4);
        let (knn_b, _) = MetricIndex::knn(&index, q, &Levenshtein, &opts).unwrap();
        assert_eq!(key(&knn_b), key(&knn_of(&index, q, &Levenshtein, 4)));
        let r_opts = QueryOptions::new().pivot_budget(1).radius(2.0);
        let (range_b, _) = MetricIndex::range(&index, q, &Levenshtein, &r_opts).unwrap();
        let (range_full, _) =
            MetricIndex::range(&index, q, &Levenshtein, &QueryOptions::new().radius(2.0)).unwrap();
        assert_eq!(key(&range_b), key(&range_full), "query {q:?}");
    }
}

#[test]
fn invalid_radius_fails_even_on_an_empty_pipeline() {
    // Error reporting must not depend on index state: a malformed
    // radius answers Failed whether or not anything has been inserted
    // yet.
    let empty: ShardedIndex<u8> =
        ShardedIndex::try_build(Vec::new(), ShardConfig::default(), &Levenshtein).unwrap();
    let requests = [
        Request::Range {
            query: b"abc".to_vec(),
            radius: f64::NAN,
        },
        Request::Insert {
            item: b"abc".to_vec(),
        },
        Request::Range {
            query: b"abc".to_vec(),
            radius: -1.0,
        },
    ];
    let responses = serve_all(empty, &requests);
    for i in [0usize, 2] {
        assert!(
            matches!(
                &responses[i].body,
                ResponseBody::Failed {
                    error: SearchError::InvalidRadius { .. }
                }
            ),
            "slot {i}: got {:?}",
            responses[i]
        );
    }
}

#[test]
fn pipeline_surfaces_typed_errors_in_order() {
    let db = corpus(20, 6, 3, 61);
    let index = ShardedIndex::try_build(db.clone(), config(2), &Levenshtein).unwrap();
    let responses = serve_all(
        index,
        &[
            Request::Range {
                query: db[0].clone(),
                radius: f64::NAN,
            },
            Request::Nn {
                query: db[0].clone(),
            },
        ],
    );
    assert!(
        matches!(
            &responses[0].body,
            ResponseBody::Failed {
                error: SearchError::InvalidRadius { .. }
            }
        ),
        "got {:?}",
        responses[0]
    );
    // The defective request does not poison its neighbours.
    let ResponseBody::Nn {
        neighbour: Some(nb),
        ..
    } = &responses[1].body
    else {
        panic!("expected Nn, got {:?}", responses[1]);
    };
    assert_eq!(nb.distance, 0.0);
}

#[test]
fn empty_index_behaves() {
    let index: ShardedIndex<u8> =
        ShardedIndex::try_build(Vec::new(), ShardConfig::default(), &Levenshtein).unwrap();
    assert!(index.is_empty());
    // Typed errors through the trait surface…
    let opts = QueryOptions::new();
    assert_eq!(
        MetricIndex::nn(&index, b"abc", &Levenshtein, &opts).unwrap_err(),
        SearchError::EmptyDatabase
    );
    assert_eq!(
        MetricIndex::knn(&index, b"abc", &Levenshtein, &opts).unwrap_err(),
        SearchError::EmptyDatabase
    );
    assert_eq!(
        MetricIndex::range(&index, b"abc", &Levenshtein, &opts).unwrap_err(),
        SearchError::EmptyDatabase
    );
    // …but a session treats an empty index as a normal serving
    // state: empty answers, then the insert makes it servable.
    let responses = serve_all(
        index,
        &[
            Request::Nn {
                query: b"abc".to_vec(),
            },
            Request::Insert {
                item: b"abc".to_vec(),
            },
            Request::Nn {
                query: b"abc".to_vec(),
            },
        ],
    );
    assert_eq!(
        responses[0].body,
        ResponseBody::Nn {
            neighbour: None,
            stats: SearchStats::default()
        }
    );
    let ResponseBody::Nn {
        neighbour: Some(nb),
        ..
    } = &responses[2].body
    else {
        panic!("the inserted item must be servable, got {:?}", responses[2]);
    };
    assert_eq!((nb.index, nb.distance), (0, 0.0));
}

// ---------------------------------------------------------------------------
// Session/ticket API

/// Levenshtein slowed to `delay` per comparison — lets tests hold the
/// scheduler busy deterministically.
#[derive(Debug, Clone, Copy)]
struct SlowLevenshtein(std::time::Duration);

impl Distance<u8> for SlowLevenshtein {
    fn distance(&self, a: &[u8], b: &[u8]) -> f64 {
        std::thread::sleep(self.0);
        Distance::<u8>::distance(&Levenshtein, a, b)
    }
    fn name(&self) -> &'static str {
        "d_E(slow)"
    }
    fn is_metric(&self) -> bool {
        true
    }
}

#[test]
fn session_tickets_resolve_out_of_order_and_carry_ids() {
    let db = corpus(40, 6, 3, 301);
    let queries = corpus(8, 6, 3, 3011);
    // In-process twin of the served index: answers AND computation
    // counts must agree bit-for-bit with what the session serves.
    let twin = ShardedIndex::try_build(db.clone(), config(3), &Levenshtein).unwrap();
    let index = ShardedIndex::try_build(db, config(3), &Levenshtein).unwrap();
    let session = ServeSession::spawn(index, Arc::new(Levenshtein));
    let tickets: Vec<_> = queries
        .iter()
        .map(|q| {
            session
                .submit(Request::Nn { query: q.clone() })
                .expect("under the default depth")
        })
        .collect();
    // Ids are sequential in submission order.
    for (i, t) in tickets.iter().enumerate() {
        assert_eq!(t.id(), RequestId(i as u64));
    }
    // Collect in reverse submission order: correlation is by id.
    for (ticket, q) in tickets.into_iter().rev().zip(queries.iter().rev()) {
        let id = ticket.id();
        let response = ticket.wait();
        assert_eq!(response.id, id, "response tagged with its request id");
        let ResponseBody::Nn {
            neighbour: Some(nb),
            stats,
        } = response.body
        else {
            panic!("expected an Nn body for {q:?}");
        };
        let (l_nn, l_stats) = nn_of(&twin, q, &Levenshtein);
        assert_eq!(
            (nb.index, nb.distance.to_bits()),
            (l_nn.index, l_nn.distance.to_bits())
        );
        assert_eq!(stats, l_stats, "bit-identical computation counts");
    }
    session.shutdown();
}

#[test]
fn session_try_recv_polls_without_blocking() {
    let db = corpus(20, 6, 3, 303);
    let probe = db[3].clone();
    let index = LinearIndex::new(db);
    // Slow enough that the first poll happens while in flight.
    let session = ServeSession::spawn(
        index,
        Arc::new(SlowLevenshtein(std::time::Duration::from_millis(2))),
    );
    let ticket = session
        .submit(Request::Nn {
            query: probe.clone(),
        })
        .unwrap();
    // Poll until it resolves; the first polls typically see None.
    let response = loop {
        if let Some(r) = ticket.try_recv() {
            break r;
        }
        std::thread::sleep(std::time::Duration::from_millis(1));
    };
    let ResponseBody::Nn {
        neighbour: Some(nb),
        ..
    } = response.body
    else {
        panic!("expected an Nn body");
    };
    assert_eq!(nb.distance, 0.0);
    session.shutdown();
}

#[test]
fn session_overload_returns_typed_backpressure_and_never_grows() {
    let db = corpus(30, 6, 3, 307);
    let queries = corpus(5, 6, 3, 3071);
    let index = LinearIndex::new(db);
    // ~2 ms per comparison x 30 items ≈ 60 ms per query: the scheduler
    // stays busy on the first query while the test floods the queue.
    let session = ServeSession::spawn_with(
        index,
        Arc::new(SlowLevenshtein(std::time::Duration::from_millis(2))),
        SessionConfig::new().queue_depth(2),
    );
    assert_eq!(session.queue_depth(), 2);
    let t0 = session
        .submit(Request::Nn {
            query: queries[0].clone(),
        })
        .expect("first request admitted");
    // Let the scheduler pop it so the queue is empty while it works.
    std::thread::sleep(std::time::Duration::from_millis(20));
    let t1 = session
        .submit(Request::Nn {
            query: queries[1].clone(),
        })
        .expect("queued 1/2");
    let t2 = session
        .submit(Request::Knn {
            query: queries[2].clone(),
            k: 3,
        })
        .expect("queued 2/2");
    // The queue is at depth: admission refuses with a typed error and
    // the queue does not grow.
    let refused = session.submit(Request::Nn {
        query: queries[3].clone(),
    });
    assert_eq!(refused.unwrap_err(), SearchError::Overloaded { depth: 2 });
    assert!(session.pending() <= 2, "no unbounded queue growth");
    // Everything accepted still answers.
    for ticket in [t0, t1, t2] {
        match ticket.wait().body {
            ResponseBody::Nn { .. } | ResponseBody::Knn { .. } => {}
            other => panic!("accepted ticket must answer, got {other:?}"),
        }
    }
    session.shutdown();
}

#[test]
fn session_shutdown_drains_accepted_tickets() {
    let db = corpus(40, 6, 3, 311);
    let queries = corpus(10, 6, 3, 3111);
    let index = ShardedIndex::try_build(db.clone(), config(2), &Levenshtein).unwrap();
    let session = ServeSession::spawn(index, Arc::new(Levenshtein));
    let mut tickets = Vec::new();
    for (i, q) in queries.iter().enumerate() {
        if i == 4 {
            tickets.push(session.submit(Request::Insert { item: q.clone() }).unwrap());
        }
        tickets.push(session.submit(Request::Nn { query: q.clone() }).unwrap());
    }
    // Shut down immediately: every accepted ticket must still resolve
    // to a real answer, none may be dropped.
    let index = session.shutdown();
    assert_eq!(MetricIndex::len(&index), db.len() + 1, "the insert landed");
    for ticket in tickets {
        match ticket.wait().body {
            ResponseBody::Nn { neighbour, .. } => assert!(neighbour.is_some()),
            ResponseBody::Inserted { index } => assert_eq!(index, db.len()),
            other => panic!("drained ticket must hold a real answer, got {other:?}"),
        }
    }
}

#[test]
fn session_refuses_submissions_after_shutdown_began() {
    // Dropping the session begins draining; a clone of nothing — use
    // the scoped path instead: begin_drain is internal, so drive it
    // through shutdown() ordering: after shutdown() the session is
    // consumed, which *is* the API-level guarantee. What remains
    // observable is Shutdown on a draining session via Drop — covered
    // by the wire tests (server drains). Here: a fresh session still
    // accepts, proving the error is not sticky across instances.
    let index = LinearIndex::new(corpus(10, 5, 2, 313));
    let session = ServeSession::spawn(index, Arc::new(Levenshtein));
    assert!(session
        .submit(Request::Nn {
            query: b"ab".to_vec()
        })
        .is_ok());
    session.shutdown();
}

#[test]
fn session_over_boxed_dyn_index_answers_and_rejects_inserts_typed() {
    // A session can own any `Box<dyn MetricIndex>`; backends without
    // insert support answer Insert with a typed failure instead of
    // refusing to compile.
    let db = corpus(30, 6, 3, 317);
    let pivots = select_pivots_max_sum(&db, 4, 0, &Levenshtein);
    let boxed: Box<dyn MetricIndex<u8>> =
        Box::new(Laesa::try_build(db.clone(), pivots, &Levenshtein).unwrap());
    let session = ServeSession::spawn(boxed, Arc::new(Levenshtein));
    let probe = db[5].clone();
    let t_nn = session
        .submit(Request::Nn {
            query: probe.clone(),
        })
        .unwrap();
    let t_ins = session.submit(Request::Insert { item: probe }).unwrap();
    let ResponseBody::Nn {
        neighbour: Some(nb),
        ..
    } = t_nn.wait().body
    else {
        panic!("expected an Nn body");
    };
    assert_eq!(nb.distance, 0.0);
    assert!(
        matches!(
            t_ins.wait().body,
            ResponseBody::Failed {
                error: SearchError::UnsupportedConfig { .. }
            }
        ),
        "LAESA does not insert; the failure is typed, not a panic"
    );
    session.shutdown();
}

#[test]
fn pipeline_run_ids_match_request_positions() {
    let db = corpus(25, 6, 3, 331);
    let index = ShardedIndex::try_build(db.clone(), config(2), &Levenshtein).unwrap();
    let requests: Vec<Request<u8>> = db
        .iter()
        .take(6)
        .map(|q| Request::Nn { query: q.clone() })
        .collect();
    let responses = serve_all(index, &requests);
    for (i, response) in responses.iter().enumerate() {
        assert_eq!(response.id, RequestId(i as u64));
    }
}

// ---------------------------------------------------------------------------
// Shard rebalancing

#[test]
fn rebalancing_merges_small_shards_and_answers_stay_bit_identical() {
    let db = corpus(40, 6, 3, 401);
    let extra = corpus(24, 6, 3, 4011);
    let queries = corpus(12, 6, 3, 40111);
    let mk = |min_fill_percent: u8| -> ShardedIndex<u8> {
        let cfg = ShardConfig {
            shards: 2,
            pivots_per_shard: 4,
            compact_threshold: 4,
            min_fill_percent,
        };
        let mut index = ShardedIndex::try_build(db.clone(), cfg, &Levenshtein).unwrap();
        for item in &extra {
            index.insert(item.clone(), &Levenshtein);
        }
        index
    };
    let append_only = mk(0);
    let rebalanced = mk(50);
    // 24 inserts at threshold 4 → 6 tiny appended shards without
    // rebalancing; with it they merge towards the balanced target.
    assert!(
        rebalanced.num_shards() < append_only.num_shards(),
        "rebalancing must reduce the shard count: {} vs {}",
        rebalanced.num_shards(),
        append_only.num_shards()
    );
    // Results are bit-identical between the two layouts (and right,
    // per the linear oracle): the layout is a performance knob only.
    let mut all = db.clone();
    all.extend(extra.iter().cloned());
    let oracle = LinearIndex::new(all);
    for q in &queries {
        let (a_nn, _) = nn_of(&append_only, q, &Levenshtein);
        let (r_nn, _) = nn_of(&rebalanced, q, &Levenshtein);
        let (l_nn, _) = nn_of(&oracle, q, &Levenshtein);
        assert_eq!(
            (a_nn.index, a_nn.distance.to_bits()),
            (r_nn.index, r_nn.distance.to_bits()),
            "query {q:?}"
        );
        assert_eq!(
            (r_nn.index, r_nn.distance.to_bits()),
            (l_nn.index, l_nn.distance.to_bits())
        );
        assert_eq!(
            key(&knn_of(&rebalanced, q, &Levenshtein, 5)),
            key(&knn_of(&oracle, q, &Levenshtein, 5)),
            "query {q:?}"
        );
        let opts = QueryOptions::new().radius(2.0);
        let (r_range, _) = rebalanced.range(q, &Levenshtein, &opts).unwrap();
        let (l_range, _) = oracle.range(q, &Levenshtein, &opts).unwrap();
        assert_eq!(key(&r_range), key(&l_range), "query {q:?}");
    }
}

#[test]
fn explicit_rebalance_preserves_results_bit_identically() {
    // Build an append-only layout full of tiny shards, snapshot every
    // answer, force a rebalance, and demand the identical snapshot.
    let db = corpus(30, 6, 3, 403);
    let extra = corpus(20, 6, 3, 4031);
    let queries = corpus(10, 6, 3, 40311);
    let cfg = ShardConfig {
        shards: 2,
        pivots_per_shard: 4,
        compact_threshold: 4,
        min_fill_percent: 0, // append-only until the explicit call
    };
    let mut index = ShardedIndex::try_build(db.clone(), cfg, &Levenshtein).unwrap();
    for item in &extra {
        index.insert(item.clone(), &Levenshtein);
    }
    let shards_before = index.num_shards();
    type ResultKey = Vec<(Vec<(usize, u64)>, Vec<(usize, u64)>)>;
    let snapshot = |index: &ShardedIndex<u8>| -> ResultKey {
        queries
            .iter()
            .map(|q| {
                let (nns, _) =
                    MetricIndex::knn(index, q, &Levenshtein, &QueryOptions::new().k(6)).unwrap();
                let (hits, _) = index
                    .range(q, &Levenshtein, &QueryOptions::new().radius(2.0))
                    .unwrap();
                (key(&nns), key(&hits))
            })
            .collect()
    };
    let before = snapshot(&index);
    let merges = index.rebalance(80, &Levenshtein);
    assert!(merges > 0, "tiny shards must be merged");
    assert!(index.num_shards() < shards_before);
    assert_eq!(
        snapshot(&index),
        before,
        "bit-identical before/after rebalance"
    );
    // The rebalanced index still accepts inserts and stays correct.
    let probe = b"zzzzzz".to_vec();
    let at = index.insert(probe.clone(), &Levenshtein);
    assert_eq!(at, db.len() + extra.len());
    let (nn, _) = nn_of(&index, &probe, &Levenshtein);
    assert_eq!((nn.index, nn.distance), (at, 0.0));
}
