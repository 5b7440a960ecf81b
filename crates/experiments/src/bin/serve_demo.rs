//! Serving-layer demo: sharded LAESA + the session/ticket front-end
//! on the paper's two main workloads (Spanish-like dictionary words,
//! handwritten-digit contour chain codes).
//!
//! For each workload it builds a [`ShardedIndex`] behind a
//! [`CachedIndex`], serves a mixed NN / k-NN / **range** /
//! insert / **delete** queue followed by a hot tail of repeated
//! queries, verifies every answer against the linear-scan oracle —
//! correlating **by request id**, never by arrival order, and
//! re-checking across the delete/compaction cycles the write barriers
//! produce — and prints throughput, distance-computation totals and
//! cache hit counters.
//!
//! Two serving paths:
//!
//! * in-process (default): the whole queue is submitted to a
//!   [`ServeSession`] up front and every [`Ticket`] is waited in turn;
//! * `network=true`: the index is served over TCP on an ephemeral
//!   loopback port through [`Server`], and a pipelined [`Client`]
//!   submits the same queue over the wire, collecting tickets out of
//!   submission order. With `batch=<n>` (n > 1) the client packs
//!   consecutive runs of n requests into single batch frames
//!   (positional correlation inside each frame) — the
//!   highest-throughput wire shape.
//!
//! Args (key=value): `db=2000 queries=200 shards=4 pivots=16 k=5
//! radius=2 deletes=24 hot=48 threads=0 workload=both network=false
//! batch=1` (`threads=0` keeps the `CNED_THREADS`/auto default;
//! `workload` ∈ dictionary|digits|both; `deletes` tombstones that many
//! distinct base items mid-queue; `hot` appends that many repeats of a
//! few queries after the last write, so the cache answers them).
//! Setting `CNED_BENCH_FAST=1` shrinks the default workload for smoke
//! runs.

use cned_core::levenshtein::Levenshtein;
use cned_experiments::args::Args;
use cned_plan::{CacheConfig, CachedIndex};
use cned_search::{InsertableIndex, LinearIndex, MetricIndex, QueryOptions};
use cned_serve::{
    Client, Request, RequestId, Response, ResponseBody, ServeSession, Server, SessionConfig,
    ShardConfig, ShardedIndex, Ticket,
};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

struct Params {
    db: usize,
    queries: usize,
    shards: usize,
    pivots: usize,
    k: usize,
    radius: f64,
    deletes: usize,
    hot: usize,
    network: bool,
    batch: usize,
}

fn build_index(db: &[Vec<u8>], p: &Params) -> CachedIndex<u8, ShardedIndex<u8>> {
    let sharded = ShardedIndex::try_build(
        db.to_vec(),
        ShardConfig {
            shards: p.shards,
            pivots_per_shard: p.pivots,
            compact_threshold: 64,
            ..ShardConfig::default()
        },
        &Levenshtein,
    )
    .expect("internally selected pivots are always valid");
    CachedIndex::new(sharded, CacheConfig::default())
}

/// The mixed request queue: NN, k-NN and range queries with an insert
/// barrier in the middle (the inserted items are perturbed queries, so
/// they land near existing neighbourhoods) and `deletes` tombstone
/// barriers spread through the queue — each one a delete/compaction
/// cycle the oracle re-checks across. After the last write, a hot tail
/// repeats a few early queries so the exact result cache answers them.
fn build_requests(queries: &[Vec<u8>], p: &Params) -> Vec<Request<u8>> {
    let mut requests: Vec<Request<u8>> = Vec::new();
    // Distinct victims, spread across the base corpus; never an index
    // an insert could still be assigned (inserts land at >= db).
    let stride = (p.db / p.deletes.max(1)).max(1);
    let mut victims = (0..p.deletes).map(|d| d * stride).filter(|&i| i < p.db);
    for (i, q) in queries.iter().enumerate() {
        if i == queries.len() / 2 {
            requests.push(Request::Insert { item: q.clone() });
        }
        if i % 5 == 3 {
            if let Some(index) = victims.next() {
                requests.push(Request::Delete { index });
            }
        }
        match i % 3 {
            0 => requests.push(Request::Knn {
                query: q.clone(),
                k: p.k,
            }),
            1 => requests.push(Request::Range {
                query: q.clone(),
                radius: p.radius,
            }),
            _ => requests.push(Request::Nn { query: q.clone() }),
        }
    }
    for index in victims {
        requests.push(Request::Delete { index });
    }
    for h in 0..p.hot {
        // 4 hot queries x 3 op kinds = 12 distinct cache keys, so a
        // tail of `hot` > 12 requests revisits every key.
        let q = queries[h % queries.len().min(4)].clone();
        match h % 3 {
            0 => requests.push(Request::Knn { query: q, k: p.k }),
            1 => requests.push(Request::Range {
                query: q,
                radius: p.radius,
            }),
            _ => requests.push(Request::Nn { query: q }),
        }
    }
    requests
}

/// Replay every request against a linear-scan oracle over the index
/// state it was answered at, looking each response up **by its
/// request id** — a response delivered out of order (as the pipelined
/// network path does) must still check out.
fn oracle_check(
    name: &str,
    db: &[Vec<u8>],
    requests: &[(RequestId, &Request<u8>)],
    responses: &[Response],
) {
    let dist = &Levenshtein;
    let by_id: HashMap<u64, &ResponseBody> = responses.iter().map(|r| (r.id.0, &r.body)).collect();
    assert_eq!(
        by_id.len(),
        requests.len(),
        "{name}: every request answered exactly once"
    );
    let mut oracle = LinearIndex::new(db.to_vec());
    let opts = QueryOptions::new();
    let key = |ns: &[cned_search::Neighbour]| -> Vec<(usize, u64)> {
        ns.iter().map(|n| (n.index, n.distance.to_bits())).collect()
    };
    let mut checked = 0usize;
    for (id, request) in requests {
        let body = by_id
            .get(&id.0)
            .unwrap_or_else(|| panic!("{name}: no response for request {id}"));
        match (request, body) {
            (Request::Insert { item }, ResponseBody::Inserted { .. }) => {
                InsertableIndex::insert(&mut oracle, item.clone(), dist)
                    .expect("oracle accepts inserts");
            }
            (Request::Delete { index }, ResponseBody::Deleted { existed }) => {
                let oracle_existed = oracle.delete(*index).expect("oracle accepts deletes");
                assert_eq!(
                    *existed, oracle_existed,
                    "{name}: delete {index} liveness mismatch for {id}"
                );
                checked += 1;
            }
            (Request::Nn { query }, ResponseBody::Nn { neighbour, .. }) => {
                let (l_nn, _) = oracle.nn(query, dist, &opts).expect("non-empty");
                let l_nn = l_nn.expect("infinite radius always finds");
                let nb = neighbour.expect("non-empty index");
                assert_eq!(
                    (nb.index, nb.distance.to_bits()),
                    (l_nn.index, l_nn.distance.to_bits()),
                    "{name}: NN mismatch for {id} {query:?}"
                );
                checked += 1;
            }
            (Request::Knn { query, k }, ResponseBody::Knn { neighbours, .. }) => {
                let (l_knn, _) = oracle
                    .knn(query, dist, &QueryOptions::new().k(*k))
                    .expect("non-empty");
                assert_eq!(
                    key(neighbours),
                    key(&l_knn),
                    "{name}: k-NN mismatch for {id} {query:?}"
                );
                checked += 1;
            }
            (Request::Range { query, radius }, ResponseBody::Range { neighbours, .. }) => {
                let (l_range, _) = oracle
                    .range(query, dist, &QueryOptions::new().radius(*radius))
                    .expect("non-empty");
                assert_eq!(
                    key(neighbours),
                    key(&l_range),
                    "{name}: range mismatch for {id} {query:?} at radius {radius}"
                );
                checked += 1;
            }
            _ => panic!("{name}: response kind does not match request {id}"),
        }
    }
    println!("oracle: all {checked} answers match the linear scan (matched by request id)");
}

fn report_throughput(responses: &[Response], elapsed: std::time::Duration) {
    let mut computations = 0u64;
    let mut answered = 0usize;
    for r in responses {
        match &r.body {
            ResponseBody::Nn { stats, .. }
            | ResponseBody::Knn { stats, .. }
            | ResponseBody::Range { stats, .. } => {
                computations += stats.distance_computations;
                answered += 1;
            }
            ResponseBody::Inserted { .. } | ResponseBody::Deleted { .. } => {}
            ResponseBody::Failed { error } => panic!("request {} failed: {error}", r.id),
        }
    }
    println!(
        "serve: {answered} queries in {:.1} ms ({:.0} queries/s, {computations} distance \
         computations, {:.1} per query)",
        elapsed.as_secs_f64() * 1e3,
        answered as f64 / elapsed.as_secs_f64(),
        computations as f64 / answered as f64
    );
}

fn run_in_process(db: &[Vec<u8>], requests: &[Request<u8>], p: &Params) {
    let index = build_index(db, p);
    // Admission room for the whole queue: it is submitted up front.
    let config = SessionConfig::new().queue_depth(requests.len());
    let session = ServeSession::spawn_with(index, Arc::new(Levenshtein), config);
    let t = Instant::now();
    let tickets: Vec<Ticket> = requests
        .iter()
        .map(|r| session.submit(r.clone()).expect("queue sized for the run"))
        .collect();
    let tagged: Vec<(RequestId, &Request<u8>)> =
        tickets.iter().map(Ticket::id).zip(requests).collect();
    let responses: Vec<Response> = tickets.into_iter().map(Ticket::wait).collect();
    let elapsed = t.elapsed();
    report_throughput(&responses, elapsed);
    oracle_check("session", db, &tagged, &responses);
    let index = session.shutdown();
    report_cache(&index);
    println!(
        "index now {} items ({} tombstoned), {} in delta, {} shards",
        MetricIndex::len(&index),
        MetricIndex::deleted(&index),
        index.inner().delta_len(),
        index.inner().num_shards()
    );
}

/// The cache counters after a run: the hot tail should land as hits,
/// every insert/delete barrier as one invalidation.
fn report_cache(index: &CachedIndex<u8, ShardedIndex<u8>>) {
    let s = index.cache_stats();
    println!(
        "cache: {} hits, {} misses, {} radius-seeded, {} invalidations \
         ({} probe computations)",
        s.hits, s.misses, s.seeded, s.invalidations, s.probe_computations
    );
}

fn run_network(db: &[Vec<u8>], requests: &[Request<u8>], p: &Params) {
    let index = build_index(db, p);
    let server = Server::bind("127.0.0.1:0", index, Arc::new(Levenshtein))
        .expect("binding an ephemeral loopback port");
    let addr = server.local_addr();
    println!("network: serving on {addr}");
    let mut client: Client<u8> = Client::connect(addr).expect("loopback connect");
    let t = Instant::now();
    let (mut tagged, responses): (Vec<(RequestId, &Request<u8>)>, Vec<Response>) = if p.batch > 1 {
        // Batched wire path: consecutive runs of `batch` requests per
        // frame, one all-or-nothing admission each; correlation inside
        // a frame is positional, so ids are synthesised from queue
        // position to drive the same id-keyed oracle.
        let batch_tickets: Vec<_> = requests
            .chunks(p.batch)
            .map(|chunk| {
                (
                    client.submit_batch(chunk).expect("submit batch frame"),
                    chunk,
                )
            })
            .collect();
        client.flush().expect("flush batched frames");
        let mut tagged = Vec::with_capacity(requests.len());
        let mut responses = Vec::with_capacity(requests.len());
        let mut position = 0u64;
        for (ticket, chunk) in batch_tickets {
            let bodies = ticket.wait().expect("batch answered, not refused");
            assert_eq!(bodies.len(), chunk.len(), "one body per batched request");
            for (request, body) in chunk.iter().zip(bodies) {
                tagged.push((RequestId(position), request));
                responses.push(Response {
                    id: RequestId(position),
                    body,
                });
                position += 1;
            }
        }
        (tagged, responses)
    } else {
        // Pipelined submission: every request is in flight (one flush,
        // one syscall) before the first response is collected.
        let tickets: Vec<(Ticket, &Request<u8>)> = requests
            .iter()
            .map(|r| (client.submit(r.clone()).expect("submit over the wire"), r))
            .collect();
        client.flush().expect("flush pipelined frames");
        let mut tagged = Vec::with_capacity(tickets.len());
        let mut responses = Vec::with_capacity(tickets.len());
        // Collect in reverse submission order: correlation is by id,
        // so the oracle must not care.
        for (ticket, request) in tickets.into_iter().rev() {
            tagged.push((ticket.id(), request));
            responses.push(ticket.wait());
        }
        (tagged, responses)
    };
    let elapsed = t.elapsed();
    tagged.sort_by_key(|(id, _)| *id); // replay order for the insert barrier
    report_throughput(&responses, elapsed);
    oracle_check("network", db, &tagged, &responses);
    let index = server.shutdown();
    report_cache(&index);
    println!(
        "server drained; index now {} items ({} tombstoned), {} in delta, {} shards",
        MetricIndex::len(&index),
        MetricIndex::deleted(&index),
        index.inner().delta_len(),
        index.inner().num_shards()
    );
}

fn run_workload(name: &str, db: Vec<Vec<u8>>, queries: Vec<Vec<u8>>, p: &Params) {
    println!(
        "\n== {name}: {} items, {} queries, {} shards x {} pivots{} ==",
        db.len(),
        queries.len(),
        p.shards,
        p.pivots,
        if p.network { ", over TCP" } else { "" }
    );

    let t0 = Instant::now();
    let index = build_index(&db, p);
    println!(
        "build: {:.1} ms ({} preprocessing distance computations, {} shards)",
        t0.elapsed().as_secs_f64() * 1e3,
        index.inner().preprocessing_computations(),
        index.inner().num_shards()
    );
    drop(index);

    let requests = build_requests(&queries, p);
    if p.network {
        run_network(&db, &requests, p);
    } else {
        run_in_process(&db, &requests, p);
    }
}

fn main() {
    let a = Args::from_env();
    let fast = std::env::var("CNED_BENCH_FAST").is_ok_and(|v| v != "0");
    let (default_db, default_queries) = if fast { (400, 60) } else { (2000, 200) };
    let p = Params {
        db: a.get("db", default_db),
        queries: a.get("queries", default_queries),
        shards: a.get("shards", 4usize),
        pivots: a.get("pivots", 16usize),
        k: a.get("k", 5usize),
        radius: a.get("radius", 2.0f64),
        deletes: a.get("deletes", if fast { 12 } else { 24 }),
        hot: a.get("hot", if fast { 24 } else { 48 }),
        network: a.get("network", false),
        batch: a.get("batch", 1usize).max(1),
    };
    let threads = a.get("threads", 0usize);
    if threads > 0 {
        cned_search::parallel::set_thread_override(Some(threads));
    }
    let workload: String = a.get("workload", "both".to_string());

    if workload == "dictionary" || workload == "both" {
        let db = cned_datasets::dictionary::spanish_dictionary(p.db, 5);
        let queries = cned_datasets::perturb::gen_queries(
            &db,
            p.queries,
            2,
            cned_datasets::perturb::ASCII_LOWER,
            7,
        );
        run_workload("dictionary (d_E)", db, queries, &p);
    }
    if workload == "digits" || workload == "both" {
        let per_class = (p.db / 10).max(1);
        let samples = cned_datasets::digits::generate_digits(per_class, 5);
        let db: Vec<Vec<u8>> = samples.iter().map(|s| s.chain.clone()).collect();
        let q_samples = cned_datasets::digits::generate_digits((p.queries / 10).max(1), 977);
        let queries: Vec<Vec<u8>> = q_samples.iter().map(|s| s.chain.clone()).collect();
        run_workload("digit chain codes (d_E)", db, queries, &p);
    }
}
