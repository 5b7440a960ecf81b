//! The traced run: the same seeded request stream replayed through
//! each layer's public entry point, with spans kept in memory.
//!
//! Every replay sends the warm-up, the first `scale.replay` stream
//! requests and the write tail to a fresh twin built from the same
//! inputs:
//!
//! | replay  | entry point                                          |
//! |---------|------------------------------------------------------|
//! | net     | `Client` → `Database::serve_with` (no data dir)      |
//! | session | `Database::session` submit → `Ticket::wait`          |
//! | facade  | `Database::{nn,knn,range,insert,delete}`             |
//! | cache   | the facade with `.cache()`, each read sent twice     |
//! | search  | a bare `MetricIndex` over a timing `Distance`, and   |
//! |         | its twin over the plain metric (tracing overhead)    |
//! | store   | `cned_store::Durable` with the workload's writes     |
//! | plan    | `cned_plan::plan` on the corpus                      |
//!
//! A layer's self time is its call minus the call of the layer below
//! for the same request: net − session, session − facade, and
//! search − time inside the metric. Counts (evaluations, compactions,
//! cache shares, bytes) depend only on the seed, never on the clock.
//!
//! The instrumentation is the timing `Distance` (two clock reads and
//! two atomic adds per metric call). Its overhead is measured on the
//! bare index: each request goes to the twin over the timing wrapper
//! and to the twin over the plain metric, in alternating order, and the
//! two must answer bit-identically.

use crate::exec::{timed, Record, Target};
use crate::gen::{is_write, Inputs, Scale, Stream, Workload};
use crate::measure::{mean, median, ratio};
use crate::oracle::{identical, matches, read_parts, Model};
use crate::workload::{build, build_as, connect, serve, SNAPSHOT_EVERY};
use cned::core::contextual::bounded::{dp_runs, gate_rejections};
use cned::core::metric::{Distance, PreparedQuery};
use cned::plan::{PlanConfig, PlannedBackend};
use cned::search::pivots::select_pivots_max_sum;
use cned::search::{Laesa, LinearIndex};
use cned::serve::{ShardConfig, ShardedIndex};
use cned::store::{Durable, StoredIndex, SNAPSHOT_FILE, WAL_FILE};
use cned::{Backend, MetricIndex, QueryOptions, Request, ResponseBody, SearchError, ServerConfig};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A [`Distance`] that forwards every trait method — batch kernels and
/// prepared queries included, so the code path is unchanged — and
/// accumulates the time spent inside it and the evaluations it made.
pub struct TimingDistance {
    inner: Arc<dyn Distance<u8>>,
    ns: AtomicU64,
    evals: AtomicU64,
}

impl TimingDistance {
    /// Wrap `inner` with zeroed counters.
    pub fn new(inner: Arc<dyn Distance<u8>>) -> TimingDistance {
        TimingDistance {
            inner,
            ns: AtomicU64::new(0),
            evals: AtomicU64::new(0),
        }
    }

    /// `(nanoseconds inside the metric, evaluations)` since the last
    /// call, resetting both.
    pub fn take(&self) -> (u64, u64) {
        (
            self.ns.swap(0, Ordering::Relaxed),
            self.evals.swap(0, Ordering::Relaxed),
        )
    }

    fn account(&self, start: Instant, evals: usize) {
        self.ns
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.evals.fetch_add(evals as u64, Ordering::Relaxed);
    }
}

impl Distance<u8> for TimingDistance {
    fn distance(&self, a: &[u8], b: &[u8]) -> f64 {
        let start = Instant::now();
        let d = self.inner.distance(a, b);
        self.account(start, 1);
        d
    }

    fn distance_bounded(&self, a: &[u8], b: &[u8], bound: f64) -> Option<f64> {
        let start = Instant::now();
        let d = self.inner.distance_bounded(a, b, bound);
        self.account(start, 1);
        d
    }

    fn prepare<'q>(&'q self, query: &'q [u8]) -> Box<dyn PreparedQuery<u8> + 'q> {
        let start = Instant::now();
        let inner = self.inner.prepare(query);
        self.account(start, 0);
        Box::new(TimingPrepared {
            inner,
            parent: self,
        })
    }

    fn distance_batch(&self, query: &[u8], targets: &[&[u8]], out: &mut [f64]) {
        let start = Instant::now();
        self.inner.distance_batch(query, targets, out);
        self.account(start, targets.len());
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn is_metric(&self) -> bool {
        self.inner.is_metric()
    }
}

struct TimingPrepared<'q> {
    inner: Box<dyn PreparedQuery<u8> + 'q>,
    parent: &'q TimingDistance,
}

impl PreparedQuery<u8> for TimingPrepared<'_> {
    fn distance_to(&self, target: &[u8]) -> f64 {
        let start = Instant::now();
        let d = self.inner.distance_to(target);
        self.parent.account(start, 1);
        d
    }

    fn distance_to_bounded(&self, target: &[u8], bound: f64) -> Option<f64> {
        let start = Instant::now();
        let d = self.inner.distance_to_bounded(target, bound);
        self.parent.account(start, 1);
        d
    }

    fn distance_to_batch(&self, targets: &[&[u8]], out: &mut [f64]) {
        let start = Instant::now();
        self.inner.distance_to_batch(targets, out);
        self.parent.account(start, targets.len());
    }

    fn distance_to_batch_bounded(&self, targets: &[&[u8]], bound: f64, out: &mut [Option<f64>]) {
        let start = Instant::now();
        self.inner.distance_to_batch_bounded(targets, bound, out);
        self.parent.account(start, targets.len());
    }
}

/// One timed call into one layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Unique within the run.
    pub id: u64,
    /// The span of the layer above for the same request, if any. Spans
    /// of different replays are linked logically, not nested in time.
    pub parent: Option<u64>,
    /// Position of the request in the replayed sequence.
    pub request: usize,
    /// `layer.call` name.
    pub name: &'static str,
    /// Start, nanoseconds since the run started.
    pub start_ns: u64,
    /// End, nanoseconds since the run started.
    pub end_ns: u64,
}

/// The sequence every replay sends: warm-up (untimed), then
/// `requests` (timed).
pub struct Replay {
    /// Sent first, never timed.
    pub warmup: Vec<Request<u8>>,
    /// The replayed stream prefix followed by the write tail.
    pub requests: Vec<Request<u8>>,
    /// How many of `requests` come from the stream prefix.
    pub prefix: usize,
}

impl Replay {
    /// The replay sequence of a workload.
    pub fn new(workload: Workload, scale: Scale, inputs: &Inputs, seed: u64) -> Replay {
        let mut requests = Stream::prefix(workload, inputs, seed, scale.replay);
        requests.extend(inputs.tail.iter().cloned());
        Replay {
            warmup: inputs.warmup.clone(),
            requests,
            prefix: scale.replay,
        }
    }
}

/// Send the warm-up, then time every replay request on `target`.
fn drive(target: &mut dyn Target, replay: &Replay, clock: Instant) -> Vec<Record> {
    for request in &replay.warmup {
        target.call(request);
    }
    replay
        .requests
        .iter()
        .enumerate()
        .map(|(i, request)| timed(target, request, i, clock))
        .collect()
}

/// What the bare search replay observed per request.
struct SearchCall {
    record: Record,
    core_ns: u64,
    evals: u64,
    compaction: bool,
}

/// The search shape the facade builds for a workload: `(backend,
/// shards)`, with `Backend::Auto` resolved through the planner.
fn shape(workload: Workload, corpus: &[Vec<u8>]) -> (Backend, usize) {
    match workload.backend() {
        Backend::Auto => {
            let metric = workload.metric().build::<u8>();
            let plan = cned::plan::plan(corpus, &*metric, &PlanConfig::default());
            let backend = match plan.backend {
                PlannedBackend::Linear => Backend::Linear,
                PlannedBackend::Laesa { pivots } => Backend::Laesa { pivots },
                PlannedBackend::VpTree => Backend::VpTree,
            };
            (backend, plan.shards.max(1))
        }
        explicit => (explicit, workload.shards()),
    }
}

/// Build the bare index of `shape` exactly as the facade does.
fn bare_index(
    shape: (Backend, usize),
    items: Vec<Vec<u8>>,
    dist: &dyn Distance<u8>,
) -> Result<StoredIndex<u8>, SearchError> {
    Ok(match shape {
        (Backend::Laesa { pivots }, shards) if shards > 1 => {
            let config = ShardConfig {
                shards,
                pivots_per_shard: pivots,
                ..ShardConfig::default()
            };
            StoredIndex::Sharded(ShardedIndex::try_build(items, config, dist)?)
        }
        (Backend::Laesa { pivots }, _) => {
            let selected = select_pivots_max_sum(&items, pivots, 0, dist);
            StoredIndex::Laesa(Laesa::try_build(items, selected, dist)?)
        }
        (Backend::Linear, _) => StoredIndex::Linear(LinearIndex::new(items)),
        _ => {
            return Err(SearchError::UnsupportedConfig {
                reason: "the replay covers the linear, laesa and sharded shapes",
            })
        }
    })
}

/// One bare `MetricIndex` call.
fn search_call(
    index: &mut StoredIndex<u8>,
    dist: &dyn Distance<u8>,
    request: &Request<u8>,
) -> ResponseBody {
    let answer = match request {
        Request::Nn { query } => index
            .nn(query, dist, &QueryOptions::new())
            .map(|(neighbour, stats)| ResponseBody::Nn { neighbour, stats }),
        Request::Knn { query, k } => index
            .knn(query, dist, &QueryOptions::new().k(*k))
            .map(|(neighbours, stats)| ResponseBody::Knn { neighbours, stats }),
        Request::Range { query, radius } => index
            .range(query, dist, &QueryOptions::new().radius(*radius))
            .map(|(neighbours, stats)| ResponseBody::Range { neighbours, stats }),
        Request::Insert { item } => index
            .insert(item.clone(), dist)
            .map(|index| ResponseBody::Inserted { index }),
        Request::Delete { index: i } => index
            .delete(*i)
            .map(|existed| ResponseBody::Deleted { existed }),
    };
    answer.unwrap_or_else(|error| ResponseBody::Failed { error })
}

/// [`search_call`], timed: the answer, the call's start and its
/// nanoseconds.
fn timed_search(
    index: &mut StoredIndex<u8>,
    dist: &dyn Distance<u8>,
    request: &Request<u8>,
) -> (ResponseBody, Instant, u64) {
    let start = Instant::now();
    let body = search_call(index, dist, request);
    (body, start, start.elapsed().as_nanos() as u64)
}

fn delta_len(index: &StoredIndex<u8>) -> Option<usize> {
    match index {
        StoredIndex::Sharded(sharded) => Some(sharded.delta_len()),
        _ => None,
    }
}

/// Per-layer metrics of one traced run, in the order `BENCHMARK.json`
/// lists them (plus the printed-only `d_C` gate share).
pub type LayerMetrics = Vec<(&'static str, &'static str, f64)>;

/// Everything the layer replays produced.
pub struct Traced {
    /// `(name, unit, value)` of every per-layer metric.
    pub metrics: LayerMetrics,
    /// Every span of every replay.
    pub spans: Vec<Span>,
    /// `(layer, self µs per call, calls, end-to-end metric it feeds)`.
    pub layers: Vec<(&'static str, f64, usize, &'static str)>,
    /// Tracing overhead on the bare index: `(metric, unit, over the
    /// plain metric, over the timing wrapper)`.
    pub overhead: Vec<(&'static str, &'static str, f64, f64)>,
    /// Replay answers that differ between layers or from the oracle
    /// (each is a wrong answer).
    pub mismatches: usize,
    /// Requests replayed per layer.
    pub calls: usize,
    /// The facade replay's answers, one per replayed request.
    pub answers: Vec<ResponseBody>,
    /// How many replayed requests come from the stream prefix (the
    /// rest are the write tail).
    pub prefix: usize,
}

/// Mean call time in nanoseconds of the reads (`write = false`) or
/// writes among `records`.
fn mean_ns<'a>(records: impl IntoIterator<Item = &'a Record>, write: bool) -> f64 {
    let xs: Vec<f64> = records
        .into_iter()
        .filter(|r| r.write == write)
        .map(|r| r.ns as f64)
        .collect();
    mean(&xs)
}

/// Replay the workload through every layer (see the module docs).
/// `data_dir` holds the store replay's files.
pub fn replay_layers(
    workload: Workload,
    scale: Scale,
    seed: u64,
    inputs: &Inputs,
    data_dir: &Path,
) -> Result<Traced, SearchError> {
    let clock = Instant::now();
    let replay = Replay::new(workload, scale, inputs, seed);
    let metric = workload.metric().build::<u8>();
    let reads = replay.requests.iter().filter(|r| !is_write(r)).count();
    let writes = replay.requests.len() - reads;

    // plan: the planner on the corpus (median of a few runs).
    let mut plan_ms = Vec::new();
    let mut plan = None;
    for _ in 0..3 {
        let start = Instant::now();
        plan = Some(cned::plan::plan(
            &inputs.corpus,
            &*metric,
            &PlanConfig::default(),
        ));
        plan_ms.push(start.elapsed().as_secs_f64() * 1e3);
    }
    let plan = plan.expect("planned at least once");
    let predicted = match plan.backend {
        PlannedBackend::Linear => plan.costs.linear,
        PlannedBackend::Laesa { .. } => plan.costs.laesa,
        PlannedBackend::VpTree => plan.costs.vptree,
    };

    // search: the facade's shape, built bare. Timed with the plain
    // metric, counted and replayed through the timing wrapper; the
    // plain twin answers every request too, for the overhead.
    let shape = shape(workload, &inputs.corpus);
    let mut build_ms = Vec::new();
    let mut plain = None;
    for _ in 0..3 {
        let items = inputs.corpus.clone();
        let start = Instant::now();
        let built = bare_index(shape, items, &*metric)?;
        build_ms.push(start.elapsed().as_secs_f64() * 1e3);
        plain = Some(built);
    }
    let mut plain = plain.expect("built three times");
    let timing = TimingDistance::new(Arc::clone(&metric));
    let mut bare = bare_index(shape, inputs.corpus.clone(), &timing)?;
    let (_, build_evals) = timing.take();
    for request in &replay.warmup {
        search_call(&mut plain, &*metric, request);
        search_call(&mut bare, &timing, request);
    }
    let (mut gates, mut dp) = (0, 0);
    let mut mismatches = 0usize;
    let mut search = Vec::with_capacity(replay.requests.len());
    let mut plain_calls = Vec::with_capacity(replay.requests.len());
    for (i, request) in replay.requests.iter().enumerate() {
        // Alternate the order, so neither twin always runs on caches
        // the other has just warmed.
        let plain_first = (i % 2 == 0).then(|| timed_search(&mut plain, &*metric, request));
        let before = delta_len(&bare);
        timing.take();
        let (gates0, dp0) = (gate_rejections(), dp_runs());
        let (body, start, ns) = timed_search(&mut bare, &timing, request);
        gates += gate_rejections() - gates0;
        dp += dp_runs() - dp0;
        let (core_ns, evals) = timing.take();
        let after = delta_len(&bare);
        let (plain_body, plain_start, plain_ns) =
            plain_first.unwrap_or_else(|| timed_search(&mut plain, &*metric, request));
        if !identical(&plain_body, &body, true) {
            mismatches += 1;
        }
        plain_calls.push(Record {
            request: i,
            write: is_write(request),
            body: plain_body,
            start_ns: plain_start.duration_since(clock).as_nanos() as u64,
            ns: plain_ns,
        });
        search.push(SearchCall {
            record: Record {
                request: i,
                write: is_write(request),
                body,
                start_ns: start.duration_since(clock).as_nanos() as u64,
                ns,
            },
            core_ns,
            evals,
            // An insert that leaves the delta no longer was compacted.
            compaction: matches!(request, Request::Insert { .. })
                && matches!((before, after), (Some(b), Some(a)) if a <= b),
        });
    }
    drop(bare);
    drop(plain);

    // facade: the workload's own database, in process.
    let mut facade_db = build(workload, inputs.corpus.clone());
    for request in &replay.warmup {
        facade_db.call(request);
    }
    let mut facade = Vec::with_capacity(replay.requests.len());
    let mut facade_plain = Vec::with_capacity(replay.requests.len());
    for (i, request) in replay.requests.iter().enumerate() {
        let before = facade_db.cache_stats();
        facade.push(timed(&mut facade_db, request, i, clock));
        let after = facade_db.cache_stats();
        // A call the cache neither answered nor radius-seeded runs the
        // bare search, so its statistics must match the bare replay.
        facade_plain.push(match (before, after) {
            (Some(b), Some(a)) => a.hits == b.hits && a.seeded == b.seeded,
            _ => true,
        });
    }
    drop(facade_db);

    // cache: a cached twin; each read is sent once (natural hit or
    // miss, counted) and then again (a forced hit, timed).
    let mut cached = build_as(workload, inputs.corpus.clone(), true);
    for request in &replay.warmup {
        cached.call(request);
    }
    let stats0 = cached.cache_stats().unwrap_or_default();
    let (mut natural_hits, mut natural_seeded) = (0u64, 0u64);
    let mut hit_ns = Vec::new();
    let mut cache_spans = Vec::new();
    for (i, request) in replay.requests.iter().enumerate() {
        let before = cached.cache_stats().unwrap_or_default();
        let first = cached.call(request);
        let after = cached.cache_stats().unwrap_or_default();
        natural_hits += after.hits - before.hits;
        natural_seeded += after.seeded - before.seeded;
        if !is_write(request) {
            let record = timed(&mut cached, request, i, clock);
            if !identical(&record.body, &first, true) {
                mismatches += 1;
            }
            hit_ns.push(record.ns as f64);
            cache_spans.push(record);
        }
    }
    let invalidations =
        cached.cache_stats().unwrap_or_default().invalidations - stats0.invalidations;
    drop(cached);

    // session: submit → wait on a twin.
    let mut session_db = build(workload, inputs.corpus.clone()).session();
    let session = drive(&mut session_db, &replay, clock);
    drop(session_db.shutdown());

    // net: a loopback client against a twin served without a data dir.
    let handle = serve(
        build(workload, inputs.corpus.clone()),
        ServerConfig::default(),
    );
    let mut client = connect(&handle);
    let net = drive(&mut client, &replay, clock);
    drop(client);
    drop(handle.shutdown());

    // store: the same writes through the durable wrapper in process.
    let store_dir = data_dir.join("store-replay");
    let _ = std::fs::remove_dir_all(&store_dir);
    let stored = bare_index(shape, inputs.corpus.clone(), &*metric)?;
    let mut durable = Durable::create(
        &store_dir,
        workload.metric().codes(),
        stored,
        SNAPSHOT_EVERY,
    )
    .map_err(SearchError::from)?;
    let wal_len = || {
        std::fs::metadata(store_dir.join(WAL_FILE))
            .map(|m| m.len())
            .unwrap_or(0)
    };
    let mut store = Vec::new();
    let mut wal_growth = Vec::new();
    for (i, request) in replay.requests.iter().enumerate() {
        let (before, start) = (wal_len(), Instant::now());
        let body = match request {
            Request::Insert { item } => durable
                .insert(item.clone(), &*metric)
                .map(|index| ResponseBody::Inserted { index }),
            Request::Delete { index } => durable
                .delete(*index)
                .map(|existed| ResponseBody::Deleted { existed }),
            _ => continue,
        }
        .unwrap_or_else(|error| ResponseBody::Failed { error });
        let ns = start.elapsed().as_nanos() as u64;
        let after = wal_len();
        if after > before {
            wal_growth.push((after - before) as f64);
        }
        store.push(Record {
            request: i,
            write: true,
            body,
            start_ns: start.duration_since(clock).as_nanos() as u64,
            ns,
        });
    }
    let snapshot_ms: Vec<f64> = (0..3)
        .map(|_| {
            let start = Instant::now();
            durable
                .snapshot()
                .map(|()| start.elapsed().as_secs_f64() * 1e3)
        })
        .collect::<Result<_, _>>()
        .map_err(SearchError::from)?;
    let snapshot_bytes = std::fs::metadata(store_dir.join(SNAPSHOT_FILE))
        .map(|m| m.len() as f64)
        .unwrap_or(0.0);
    drop(durable);
    let _ = std::fs::remove_dir_all(&store_dir);

    // Cross-layer bit identity and the oracle over the replay.
    let mut model = Model::new(Arc::clone(&metric), &inputs.corpus);
    for request in &replay.warmup {
        model.apply(request);
    }
    for (i, request) in replay.requests.iter().enumerate() {
        let want = model.apply(request);
        let reference = &facade[i].body;
        let ok = matches(reference, &want)
            && identical(&session[i].body, reference, true)
            && identical(&net[i].body, reference, true)
            && identical(&search[i].record.body, reference, facade_plain[i]);
        if !ok {
            mismatches += 1;
        }
    }
    for record in &store {
        if !identical(&record.body, &facade[record.request].body, true) {
            mismatches += 1;
        }
    }

    // Per-layer figures.
    let read_calls = || search.iter().filter(|c| !c.record.write);
    let core_read_ns = read_calls().map(|c| c.core_ns).sum::<u64>() as f64;
    let core_read_evals = read_calls().map(|c| c.evals).sum::<u64>() as f64;
    let stats_evals = read_calls()
        .filter_map(|c| read_parts(&c.record.body).map(|(_, s)| s.distance_computations))
        .sum::<u64>() as f64;
    let n_reads = reads as f64;
    let core_read_us = ratio(core_read_ns, n_reads) / 1e3;
    let search_read_us = mean_ns(search.iter().map(|c| &c.record), false) / 1e3;
    let search_write_us = mean_ns(search.iter().map(|c| &c.record), true) / 1e3;
    let evals_per_read = ratio(stats_evals, n_reads);
    let facade_read = mean_ns(&facade, false);
    let facade_write = mean_ns(&facade, true);
    let session_read = mean_ns(&session, false);
    let session_write = mean_ns(&session, true);
    let net_read = mean_ns(&net, false);
    let net_write = mean_ns(&net, true);
    let compactions = search.iter().filter(|c| c.compaction).count();
    let metrics: LayerMetrics = vec![
        ("core.read_us", "us", core_read_us),
        ("core.eval_ns", "ns", ratio(core_read_ns, core_read_evals)),
        (
            "core.dc_gate_reject_share",
            "share",
            ratio(gates as f64, (gates + dp) as f64),
        ),
        ("search.read_us", "us", search_read_us),
        ("search.self_us", "us", search_read_us - core_read_us),
        ("search.evals_per_read", "count", evals_per_read),
        ("search.build_ms", "ms", median(&build_ms)),
        ("search.build_evals", "count", build_evals as f64),
        ("search.write_us", "us", search_write_us),
        ("search.compactions", "count", compactions as f64),
        ("plan.plan_ms", "ms", median(&plan_ms)),
        ("plan.predicted_evals", "count", predicted),
        ("plan.eval_error", "ratio", ratio(evals_per_read, predicted)),
        (
            "plan.cache_hit_share",
            "share",
            ratio(natural_hits as f64, n_reads),
        ),
        (
            "plan.cache_seeded_share",
            "share",
            ratio(natural_seeded as f64, n_reads),
        ),
        ("plan.cache_invalidations", "count", invalidations as f64),
        ("plan.cache_hit_us", "us", mean(&hit_ns) / 1e3),
        (
            "serve.session_read_us",
            "us",
            (session_read - facade_read) / 1e3,
        ),
        (
            "serve.session_write_us",
            "us",
            (session_write - facade_write) / 1e3,
        ),
        ("serve.net_read_us", "us", (net_read - session_read) / 1e3),
        (
            "serve.net_write_us",
            "us",
            (net_write - session_write) / 1e3,
        ),
        ("store.write_us", "us", mean_ns(&store, true) / 1e3),
        ("store.snapshot_ms", "ms", median(&snapshot_ms)),
        ("store.snapshot_bytes", "bytes", snapshot_bytes),
        ("store.wal_bytes_per_write", "bytes", mean(&wal_growth)),
    ];

    // Spans: one per call, linked top-down by request. The replays run
    // one after the other, so a link between two of them is logical:
    // the child does not lie inside its parent's interval. Within the
    // search replay, `core.metric` is the time summed over the metric
    // calls of one `search.call`, placed at the call's start.
    let mut spans = Vec::new();
    let mut next_id = 0u64;
    let mut push = |parent: Option<u64>, record: &Record, name: &'static str, end_ns: u64| {
        next_id += 1;
        spans.push(Span {
            id: next_id,
            parent,
            request: record.request,
            name,
            start_ns: record.start_ns,
            end_ns,
        });
        next_id
    };
    let mut store_at = store.iter().peekable();
    let mut hits_at = cache_spans.iter().peekable();
    for i in 0..replay.requests.len() {
        let n = push(None, &net[i], "net.call", net[i].start_ns + net[i].ns);
        let s = push(
            Some(n),
            &session[i],
            "session.call",
            session[i].start_ns + session[i].ns,
        );
        let f = push(
            Some(s),
            &facade[i],
            "facade.call",
            facade[i].start_ns + facade[i].ns,
        );
        let call = &search[i];
        let q = push(
            Some(f),
            &call.record,
            "search.call",
            call.record.start_ns + call.record.ns,
        );
        push(
            Some(q),
            &call.record,
            "core.metric",
            call.record.start_ns + call.core_ns,
        );
        if let Some(hit) = hits_at.next_if(|r| r.request == i) {
            push(Some(f), hit, "cache.hit", hit.start_ns + hit.ns);
        }
        if let Some(write) = store_at.next_if(|r| r.request == i) {
            push(Some(f), write, "store.write", write.start_ns + write.ns);
        }
    }

    let mut overhead = vec![(
        "search.read_us",
        "us",
        mean_ns(&plain_calls, false) / 1e3,
        search_read_us,
    )];
    if writes > 0 {
        overhead.push((
            "search.write_us",
            "us",
            mean_ns(&plain_calls, true) / 1e3,
            search_write_us,
        ));
    }

    let calls = replay.requests.len();
    let layers = vec![
        (
            "serve.net",
            (net_read - session_read) / 1e3,
            reads,
            "read_p50_ms",
        ),
        (
            "serve.session",
            (session_read - facade_read) / 1e3,
            reads,
            "read_p50_ms",
        ),
        (
            "plan.cache",
            mean(&hit_ns) / 1e3,
            hit_ns.len(),
            "read_p50_ms",
        ),
        ("search", search_read_us - core_read_us, reads, "ops_per_s"),
        ("core", core_read_us, reads, "ops_per_s"),
        ("store", mean_ns(&store, true) / 1e3, writes, "write_p50_ms"),
    ];
    Ok(Traced {
        metrics,
        spans,
        layers,
        overhead,
        mismatches,
        calls,
        answers: facade.into_iter().map(|r| r.body).collect(),
        prefix: replay.prefix,
    })
}
