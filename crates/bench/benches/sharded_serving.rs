//! Throughput of the sharded serving layer (`cned-serve`): shard
//! builds, batch NN serving across shard/worker counts, trait-object
//! dispatch overhead, and the mixed query/insert pipeline.
//!
//! Four groups:
//! * `sharded_build` — `ShardedIndex::try_build` vs shard count
//!   (shard builds run in parallel, so on a multi-core box build
//!   wall-clock should drop with more shards);
//! * `sharded_nn_batch` — a fixed query batch answered via
//!   `MetricIndex::nn_batch` for shard count × worker count
//!   combinations. On the 1-core CI container every worker count is
//!   the serial floor; the interesting single-core signal is the
//!   *shard-count* axis, where cross-shard bound propagation keeps
//!   total distance computations near the single-index level;
//! * `dispatch` — the same batch-NN workload answered through the
//!   concrete `ShardedIndex` (static dispatch, monomorphised) vs
//!   through `&dyn MetricIndex<u8>` (vtable dispatch). The unified
//!   API routes everything through the trait, so this group guards
//!   the claim that the indirection is in the noise (<2%): one
//!   virtual call per query against thousands of distance
//!   computations;
//! * `pipeline_mixed` — a mixed NN/k-NN/range queue submitted to a
//!   `ServeSession` over a pre-built index, every ticket waited
//!   (inserts are exercised by the test suite; timing them would
//!   mutate the index across iterations).
//!
//! After the timed groups the bench replays one batch per shard count
//! and reports total distance computations, making the "bound
//! propagation keeps sharding nearly free" claim auditable in the
//! JSON-adjacent output.
//!
//! Set `CNED_BENCH_FAST=1` (CI smoke) to shrink the workload.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Duration;

use cned_core::levenshtein::Levenshtein;
use cned_datasets::dictionary::spanish_dictionary;
use cned_datasets::perturb::{gen_queries, ASCII_LOWER};
use cned_search::parallel::set_thread_override;
use cned_search::{MetricIndex, QueryOptions};
use cned_serve::{Request, ServeSession, SessionConfig, ShardConfig, ShardedIndex, Ticket};

fn fast() -> bool {
    std::env::var("CNED_BENCH_FAST").is_ok_and(|v| v != "0")
}

fn sizes() -> (usize, usize) {
    if fast() {
        (300, 8)
    } else {
        (1500, 48)
    }
}

fn config(shards: usize) -> ShardConfig {
    ShardConfig {
        shards,
        pivots_per_shard: 12,
        compact_threshold: 64,
        ..ShardConfig::default()
    }
}

fn data() -> (Vec<Vec<u8>>, Vec<Vec<u8>>) {
    let (db_size, n_queries) = sizes();
    let db = spanish_dictionary(db_size, 11);
    let queries = gen_queries(&db, n_queries, 2, ASCII_LOWER, 17);
    (db, queries)
}

fn build(db: &[Vec<u8>], shards: usize) -> ShardedIndex<u8> {
    ShardedIndex::try_build(db.to_vec(), config(shards), &Levenshtein)
        .expect("internally selected pivots are always valid")
}

fn bench_build(c: &mut Criterion) {
    let (db, _) = data();
    let mut group = c.benchmark_group("sharded_build");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(800));
    for shards in [1usize, 2, 4] {
        group.bench_with_input(BenchmarkId::new("shards", shards), &shards, |b, &s| {
            b.iter(|| build(black_box(&db), s))
        });
    }
    group.finish();
}

fn bench_nn_batch(c: &mut Criterion) {
    let (db, queries) = data();
    let opts = QueryOptions::new();
    let mut group = c.benchmark_group("sharded_nn_batch");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_secs(1));
    for shards in [1usize, 2, 4] {
        let index = build(&db, shards);
        for threads in [1usize, 2, 4] {
            let id = format!("s{shards}_t{threads}");
            group.bench_with_input(BenchmarkId::new("nn", &id), &threads, |b, &t| {
                set_thread_override(Some(t));
                b.iter(|| {
                    black_box(MetricIndex::nn_batch(
                        &index,
                        black_box(&queries),
                        &Levenshtein,
                        &opts,
                    ))
                });
                set_thread_override(None);
            });
        }
    }
    group.finish();

    // Instrumented replay: distance computations per shard count (the
    // bound-propagation cost signal, independent of core count).
    for shards in [1usize, 2, 4] {
        let index = build(&db, shards);
        let total: u64 = MetricIndex::nn_batch(&index, &queries, &Levenshtein, &opts)
            .unwrap()
            .iter()
            .map(|(_, st)| st.distance_computations)
            .sum();
        eprintln!(
            "[sharded_serving] shards={shards}: {total} distance computations \
             for {} queries over {} items",
            queries.len(),
            db.len()
        );
    }
}

fn bench_dispatch(c: &mut Criterion) {
    // Static (concrete ShardedIndex) vs dynamic (&dyn MetricIndex)
    // dispatch on the identical batch-NN workload. The whole unified
    // API rides on the trait object being free at this granularity.
    let (db, queries) = data();
    let index = build(&db, 4);
    let dyn_index: &dyn MetricIndex<u8> = &index;
    let opts = QueryOptions::new();
    let mut group = c.benchmark_group("dispatch");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_secs(1));
    group.bench_function("static_nn_batch", |b| {
        b.iter(|| {
            black_box(MetricIndex::nn_batch(
                &index,
                black_box(&queries),
                &Levenshtein,
                &opts,
            ))
        })
    });
    group.bench_function("dyn_nn_batch", |b| {
        b.iter(|| black_box(dyn_index.nn_batch(black_box(&queries), &Levenshtein, &opts)))
    });
    group.finish();

    // Sanity: both paths return bit-identical answers.
    let a = MetricIndex::nn_batch(&index, &queries, &Levenshtein, &opts).unwrap();
    let b = dyn_index.nn_batch(&queries, &Levenshtein, &opts).unwrap();
    assert_eq!(a.len(), b.len());
    for ((x, xs), (y, ys)) in a.iter().zip(&b) {
        let (x, y) = (x.unwrap(), y.unwrap());
        assert_eq!(
            (x.index, x.distance.to_bits()),
            (y.index, y.distance.to_bits())
        );
        assert_eq!(xs, ys);
    }
}

fn bench_pipeline(c: &mut Criterion) {
    let (db, queries) = data();
    let requests: Vec<Request<u8>> = queries
        .iter()
        .enumerate()
        .map(|(i, q)| match i % 3 {
            0 => Request::Knn {
                query: q.clone(),
                k: 5,
            },
            1 => Request::Range {
                query: q.clone(),
                radius: 2.0,
            },
            _ => Request::Nn { query: q.clone() },
        })
        .collect();
    // Admission room for one whole queue: it is submitted up front.
    let config = SessionConfig::new().queue_depth(requests.len());
    let session = ServeSession::spawn_with(build(&db, 4), Arc::new(Levenshtein), config);
    let run = || -> Vec<_> {
        let tickets: Vec<Ticket> = requests
            .iter()
            .map(|r| session.submit(r.clone()).expect("queue sized for one run"))
            .collect();
        tickets.into_iter().map(Ticket::wait).collect()
    };
    let mut group = c.benchmark_group("pipeline_mixed");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_secs(1));
    for threads in [1usize, 4] {
        group.bench_with_input(BenchmarkId::new("threads", threads), &threads, |b, &t| {
            set_thread_override(Some(t));
            b.iter(|| black_box(run()));
            set_thread_override(None);
        });
    }
    group.finish();
    session.shutdown();
}

criterion_group!(
    benches,
    bench_build,
    bench_nn_batch,
    bench_dispatch,
    bench_pipeline
);
criterion_main!(benches);
