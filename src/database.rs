//! [`Database`] — the one-stop entry point of the workspace.
//!
//! The paper's machinery has two independent axes: *which distance*
//! (`d_E`, `d_C`, `d_YB`, …) and *which search structure* (linear
//! scan, LAESA, vp-tree, sharded LAESA, or [`Backend::Auto`] to let
//! the planner choose). The builder crosses them declaratively and
//! hands back a [`Database`] that **owns** the metric — ending the
//! "pass the same `&dist` to every call or get garbage" footgun of the
//! raw index types, whose pivot tables silently produce wrong answers
//! when queried through a different distance than they were built
//! with.
//!
//! A [`Database`] is its index plus one record of what was decided:
//! the metric and its persistable name, the plan, the resolved build
//! shape (backend, pivots, shard split and compaction threshold) and
//! the cache handle. [`Database::load`] and data-dir recovery fill the
//! same record from the snapshot, the session, server and replica
//! handles hold it while the index is away serving, and
//! [`Database::vacuum`] rebuilds from it.
//!
//! ```
//! use cned::{Backend, Database, Metric};
//!
//! let words: Vec<Vec<u8>> = ["casa", "cosa", "masa", "taza", "cesta"]
//!     .iter()
//!     .map(|w| w.as_bytes().to_vec())
//!     .collect();
//! let db = Database::builder(words)
//!     .metric(Metric::Contextual { bounded: true })
//!     .backend(Backend::Laesa { pivots: 2 })
//!     .build()
//!     .unwrap();
//! let (nearest, _) = db.nn(b"cesa").unwrap();
//! assert!(nearest.is_some());
//! // Range search: everything within a radius, canonically ordered.
//! let (hits, _) = db.range(b"casa", 0.4).unwrap();
//! assert!(!hits.is_empty());
//! ```

use cned_core::contextual::exact::Contextual;
use cned_core::contextual::heuristic::ContextualHeuristic;
use cned_core::levenshtein::Levenshtein;
use cned_core::metric::{Distance, Unpruned};
use cned_core::normalized::marzal_vidal::MarzalVidal;
use cned_core::normalized::simple::{MaxNorm, MinNorm, SumNorm};
use cned_core::normalized::yujian_bo::YujianBo;
use cned_core::Symbol;
use cned_plan::{CacheConfig, CacheHandle, CacheStats, CachedIndex, Plan, PlannedBackend};
use cned_search::pivots::select_pivots_max_sum;
use cned_search::{
    Laesa, LinearIndex, MetricIndex, Neighbour, QueryOptions, SearchError, SearchStats, VpTree,
};
use cned_serve::server::ReplicaHub;
use cned_serve::wire::{self, ReplicaFrame, WireSymbol};
use cned_serve::{
    Request, RequestId, ResponseBody, ServeSession, Server, ServerConfig, SessionConfig,
    SessionHandle, ShardConfig, ShardedIndex, Ticket,
};
use cned_store::{
    data_dir_initialised, decode_snapshot_plan, encode_snapshot_with, write_atomic,
    DecodedSnapshot, Durable, IndexView, SnapshotMeta, StoreError, StoredIndex, SNAPSHOT_FILE,
    WAL_FILE,
};
use std::hash::Hash;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Every distance of the paper, selectable by name.
///
/// `Contextual { bounded }` chooses between the band-pruned bounded
/// engine (`true`, the production path) and the full-evaluation
/// [`Unpruned`] baseline (`false`) — results are identical, only the
/// work per comparison changes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// Plain Levenshtein `d_E` (bit-parallel Myers engine).
    Levenshtein,
    /// The paper's contextual metric `d_C` (Algorithm 1).
    Contextual {
        /// Route comparisons through the bounded engine's admissible
        /// gates and banded DP (`true`), or always evaluate the full
        /// cubic DP (`false`).
        bounded: bool,
    },
    /// The quadratic-time contextual heuristic `d_C,h` (not a metric).
    ContextualHeuristic,
    /// Marzal–Vidal normalised edit distance `d_MV`.
    MarzalVidal,
    /// Yujian–Bo normalised metric `d_YB`.
    YujianBo,
    /// `d_E / max(|x|,|y|)` — not a metric.
    MaxNorm,
    /// `d_E / min(|x|,|y|)` — not a metric.
    MinNorm,
    /// `d_E / (|x|+|y|)` — not a metric.
    SumNorm,
}

impl Metric {
    /// The stable `(code, flag)` pair identifying this metric in
    /// snapshot files (`cned-store`'s META record). Codes are
    /// append-only: existing codes never change meaning.
    pub fn codes(self) -> (u8, u8) {
        match self {
            Metric::Levenshtein => (1, 0),
            Metric::Contextual { bounded } => (2, u8::from(bounded)),
            Metric::ContextualHeuristic => (3, 0),
            Metric::MarzalVidal => (4, 0),
            Metric::YujianBo => (5, 0),
            Metric::MaxNorm => (6, 0),
            Metric::MinNorm => (7, 0),
            Metric::SumNorm => (8, 0),
        }
    }

    /// Inverse of [`Metric::codes`]; `None` for codes this build does
    /// not know (a snapshot from a newer build).
    pub fn from_codes(code: u8, flag: u8) -> Option<Metric> {
        Some(match (code, flag) {
            (1, 0) => Metric::Levenshtein,
            (2, f @ (0 | 1)) => Metric::Contextual { bounded: f == 1 },
            (3, 0) => Metric::ContextualHeuristic,
            (4, 0) => Metric::MarzalVidal,
            (5, 0) => Metric::YujianBo,
            (6, 0) => Metric::MaxNorm,
            (7, 0) => Metric::MinNorm,
            (8, 0) => Metric::SumNorm,
            _ => return None,
        })
    }

    /// Instantiate the distance for symbol type `S`.
    ///
    /// Shared ownership (`Arc`) because a [`Database`] may hand its
    /// metric to a serving session or network server whose worker
    /// threads outlive any one call.
    pub fn build<S: Symbol>(self) -> Arc<dyn Distance<S>> {
        match self {
            Metric::Levenshtein => Arc::new(Levenshtein),
            Metric::Contextual { bounded: true } => Arc::new(Contextual),
            Metric::Contextual { bounded: false } => Arc::new(Unpruned(Contextual)),
            Metric::ContextualHeuristic => Arc::new(ContextualHeuristic),
            Metric::MarzalVidal => Arc::new(MarzalVidal),
            Metric::YujianBo => Arc::new(YujianBo),
            Metric::MaxNorm => Arc::new(MaxNorm),
            Metric::MinNorm => Arc::new(MinNorm),
            Metric::SumNorm => Arc::new(SumNorm),
        }
    }
}

/// Which search structure answers the queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Exhaustive scan — no preprocessing, `n` computations per query,
    /// correct for any distance (metric or not).
    Linear,
    /// LAESA with this many greedy max-sum pivots (clamped to the
    /// database size). With `.shards(k)`, each shard gets this many
    /// pivots.
    Laesa {
        /// Number of base prototypes (pivots).
        pivots: usize,
    },
    /// A vantage-point tree.
    VpTree,
    /// Measure, then choose: a seeded distance sample over the corpus
    /// prices the linear scan, LAESA (over a pivot ladder) and the
    /// vp-tree in distance evaluations per query, and the cheapest
    /// structure wins — shard split included (explicit
    /// [`DatabaseBuilder::shards`] is ignored; the plan decides).
    /// Non-metric distances always resolve to [`Backend::Linear`],
    /// because triangle-inequality pruning would be inadmissible. The
    /// decision is recorded as a [`Plan`] ([`Database::plan`]) and
    /// persisted in snapshots, so a warm restart reports the same
    /// choice it serves. Sampling uses the default
    /// [`cned_plan::PlanConfig`].
    Auto,
}

/// Builder for [`Database`]; see the module docs for the flow.
pub struct DatabaseBuilder<S: Symbol + Hash + 'static> {
    items: Vec<Vec<S>>,
    metric: Arc<dyn Distance<S>>,
    metric_tag: Option<Metric>,
    backend: Backend,
    /// Shard count (`<= 1`: a single index) and compaction threshold;
    /// the pivot count comes from the backend at build time.
    shards: ShardConfig,
    cache: bool,
}

impl<S: Symbol + Hash + 'static> DatabaseBuilder<S> {
    /// Select a named paper metric (default: [`Metric::Levenshtein`]).
    pub fn metric(mut self, metric: Metric) -> DatabaseBuilder<S> {
        self.metric = metric.build();
        self.metric_tag = Some(metric);
        self
    }

    /// Use a custom [`Distance`] implementation instead of a named
    /// paper metric. Triangle-inequality backends (everything but
    /// [`Backend::Linear`]) return exact results only when it is a
    /// true metric.
    ///
    /// Custom metrics have no stable identity to write into a
    /// snapshot, so a database built this way cannot be persisted
    /// ([`Database::save`] and data-dir serving refuse typed).
    pub fn custom_metric(mut self, metric: Box<dyn Distance<S>>) -> DatabaseBuilder<S> {
        self.metric = Arc::from(metric);
        self.metric_tag = None;
        self
    }

    /// Select the search backend (default: [`Backend::Linear`]).
    pub fn backend(mut self, backend: Backend) -> DatabaseBuilder<S> {
        self.backend = backend;
        self
    }

    /// Split the database into `shards` LAESA shards served with
    /// cross-shard bound propagation (`cned-serve`). Only meaningful
    /// with [`Backend::Laesa`]; any other backend is rejected at
    /// [`DatabaseBuilder::build`] time. `shards <= 1` keeps a single
    /// index.
    pub fn shards(mut self, shards: usize) -> DatabaseBuilder<S> {
        self.shards.shards = shards;
        self
    }

    /// Delta-shard size that triggers compaction in the sharded
    /// backend (default: the `cned-serve` default).
    pub fn compact_threshold(mut self, threshold: usize) -> DatabaseBuilder<S> {
        self.shards.compact_threshold = threshold;
        self
    }

    /// Put an exact hot-query result cache in front of the index, with
    /// the default [`cned_plan::CacheConfig`] — see [`cned_plan::cache`]
    /// for the semantics. Answers (statistics included) stay
    /// bit-identical; repeated queries replay from the cache and
    /// near-duplicate queries get an admissible radius seed. The cache
    /// follows the database into sessions and served deployments, and
    /// every insert/delete barrier flushes it, so a stale answer is
    /// never served. Inspect with [`Database::cache_stats`].
    pub fn cache(mut self) -> DatabaseBuilder<S> {
        self.cache = true;
        self
    }

    /// Build the index and pair it with the metric.
    pub fn build(self) -> Result<Database<S>, SearchError> {
        let DatabaseBuilder {
            items,
            metric,
            metric_tag,
            backend,
            mut shards,
            cache,
        } = self;
        let (backend, plan) = match backend {
            Backend::Auto => {
                let plan = cned_plan::plan(&items, &*metric, &cned_plan::PlanConfig::default());
                let resolved = match plan.backend {
                    PlannedBackend::Linear => Backend::Linear,
                    PlannedBackend::Laesa { pivots } => Backend::Laesa { pivots },
                    PlannedBackend::VpTree => Backend::VpTree,
                };
                shards.shards = plan.shards.max(1);
                (resolved, Some(plan))
            }
            explicit => (explicit, None),
        };
        let index: Box<dyn MetricIndex<S>> = if shards.shards > 1 {
            let Backend::Laesa { pivots } = backend else {
                return Err(SearchError::UnsupportedConfig {
                    reason: "sharding is only available for the LAESA backend",
                });
            };
            shards.pivots_per_shard = pivots;
            Box::new(ShardedIndex::try_build(items, shards, &*metric)?)
        } else {
            match backend {
                Backend::Linear => Box::new(LinearIndex::new(items)),
                Backend::Laesa { pivots } => {
                    let selected = select_pivots_max_sum(&items, pivots, 0, &*metric);
                    Box::new(Laesa::try_build(items, selected, &*metric)?)
                }
                Backend::VpTree => Box::new(VpTree::build(items, &*metric)),
                Backend::Auto => unreachable!("Auto resolved to a concrete backend above"),
            }
        };
        let (index, cache) = with_cache(index, cache);
        Ok(Database {
            index,
            record: Record {
                metric,
                metric_tag,
                plan,
                backend,
                shards,
                cache,
            },
        })
    }
}

/// The shard record of a single, unsharded index: the `cned-serve`
/// defaults with a shard count of one.
fn unsharded() -> ShardConfig {
    ShardConfig {
        shards: 1,
        ..ShardConfig::default()
    }
}

/// Put the hot-query cache in front of `index` when `on`, returning
/// the served index and the cache's counter handle.
fn with_cache<S: Symbol + Hash + 'static>(
    index: Box<dyn MetricIndex<S>>,
    on: bool,
) -> (Box<dyn MetricIndex<S>>, Option<CacheHandle>) {
    if !on {
        return (index, None);
    }
    let cached = CachedIndex::new(index, CacheConfig::default());
    let handle = cached.handle();
    (Box::new(cached), Some(handle))
}

/// Everything a [`Database`] decided besides its index: filled by
/// [`DatabaseBuilder::build`], [`Database::load`] and data-dir
/// recovery, held by the session, server and replica handles while the
/// index is away serving, and read back by [`Database::vacuum`].
struct Record<S: Symbol + Hash + 'static> {
    metric: Arc<dyn Distance<S>>,
    /// The named metric behind `metric`, when there is one — the
    /// persistable identity. `None` for custom metrics.
    metric_tag: Option<Metric>,
    /// The planner's decision record, under [`Backend::Auto`] or
    /// recovered from a snapshot that persisted one.
    plan: Option<Plan>,
    /// The concrete backend the index was built as (never `Auto`).
    backend: Backend,
    /// The shard split (`shards <= 1`: a single index), compaction
    /// threshold included.
    shards: ShardConfig,
    /// Counter view of the active cache, if one is configured.
    cache: Option<CacheHandle>,
}

impl<S: WireSymbol + 'static> Record<S> {
    /// The record of a decoded snapshot: the metric its codes name,
    /// its plan, and the shape its backend was built with.
    fn decoded(
        meta: &SnapshotMeta,
        index: &StoredIndex<S>,
        plan: Option<&[u8]>,
    ) -> Result<Record<S>, SearchError> {
        let tag = Metric::from_codes(meta.metric_code, meta.metric_flag).ok_or_else(|| {
            SearchError::Persistence {
                reason: format!(
                    "snapshot uses unknown metric code ({}, {})",
                    meta.metric_code, meta.metric_flag
                ),
            }
        })?;
        let (backend, shards) = match index {
            StoredIndex::Linear(_) => (Backend::Linear, unsharded()),
            StoredIndex::Laesa(laesa) => (
                Backend::Laesa {
                    pivots: laesa.pivots().len(),
                },
                unsharded(),
            ),
            StoredIndex::Sharded(sharded) => {
                let config = sharded.config();
                let pivots = config.pivots_per_shard;
                (Backend::Laesa { pivots }, config)
            }
        };
        Ok(Record {
            metric: tag.build(),
            metric_tag: Some(tag),
            // A plan from a newer build (unknown version) degrades to
            // "no plan" rather than refusing the whole snapshot.
            plan: plan.and_then(|b| Plan::from_bytes(b).ok()),
            backend,
            shards,
            cache: None,
        })
    }
}

/// A metric-space database: an index paired with the [`Distance`] it
/// was built over. All queries go through the owned metric, so index
/// and metric can never drift apart.
pub struct Database<S: Symbol + Hash + 'static> {
    index: Box<dyn MetricIndex<S>>,
    record: Record<S>,
}

impl<S: Symbol + Hash + 'static> Database<S> {
    /// Start building a database over `items`. Defaults:
    /// [`Metric::Levenshtein`], [`Backend::Linear`], no sharding, no
    /// cache.
    pub fn builder(items: Vec<Vec<S>>) -> DatabaseBuilder<S> {
        DatabaseBuilder {
            items,
            metric: Metric::Levenshtein.build(),
            metric_tag: Some(Metric::Levenshtein),
            backend: Backend::Linear,
            shards: unsharded(),
            cache: false,
        }
    }

    /// The owned metric.
    pub fn metric(&self) -> &dyn Distance<S> {
        &*self.record.metric
    }

    /// The underlying index as a trait object — e.g. to hand to a
    /// `cned_classify` classifier or a serving pipeline.
    pub fn index(&self) -> &dyn MetricIndex<S> {
        &*self.index
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the database holds no items.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// The item at index `i` (result indices address this).
    pub fn item(&self, i: usize) -> Option<&[S]> {
        self.index.item(i)
    }

    /// Append `item`, returning its assigned index. Requires an
    /// insertable backend ([`Backend::Linear`] or a sharded build);
    /// anything else refuses with a typed error. The in-process
    /// counterpart of submitting [`Request::Insert`] to a session —
    /// and, like it, a barrier that flushes any configured cache.
    pub fn insert(&mut self, item: Vec<S>) -> Result<usize, SearchError> {
        self.index
            .as_insertable()
            .ok_or(SearchError::UnsupportedConfig {
                reason: "this backend does not support inserts",
            })?
            .insert(item, &*self.record.metric)
    }

    /// Tombstone item `i`: it stops appearing in any query answer but
    /// keeps its slot, so surviving indices never shift. Returns
    /// whether the item was live: `false` for an index already deleted
    /// or out of range, since deletes are idempotent. Every facade
    /// backend supports deletes.
    pub fn delete(&mut self, index: usize) -> Result<bool, SearchError> {
        self.index.delete(index)
    }

    /// Number of tombstoned (logically deleted) items still occupying
    /// slots. [`Database::len`] counts them; queries never return them.
    pub fn deleted(&self) -> usize {
        self.index.deleted()
    }

    /// Whether item `i` is tombstoned ([`Database::delete`]). `false`
    /// for live items and out-of-range indices.
    pub fn is_deleted(&self, i: usize) -> bool {
        self.index.is_deleted(i)
    }

    /// The planner's decision record, when this database was built
    /// with [`Backend::Auto`] (or recovered from a snapshot carrying
    /// one); `None` for explicit backends. [`Plan::report`] renders it
    /// for humans.
    pub fn plan(&self) -> Option<&Plan> {
        self.record.plan.as_ref()
    }

    /// Hot-query cache counters, when a cache is configured
    /// ([`DatabaseBuilder::cache`]); `None` otherwise.
    pub fn cache_stats(&self) -> Option<CacheStats> {
        self.record.cache.as_ref().map(CacheHandle::stats)
    }

    /// Physically drop tombstoned items: rebuild the recorded shape
    /// (metric, backend, shard split and compaction threshold, cache)
    /// over the surviving items only. Survivors are **renumbered** to
    /// `0..live` in their original order — the one operation that
    /// invalidates previously returned result indices, which is why it
    /// is explicit. Afterwards, answers are bit-identical to a fresh
    /// build over the surviving corpus. A database built with
    /// [`Backend::Auto`] re-plans for the surviving corpus.
    pub fn vacuum(self) -> Result<Database<S>, SearchError> {
        let Database { index, record } = self;
        let survivors: Vec<Vec<S>> = (0..index.len())
            .filter(|&i| !index.is_deleted(i))
            .filter_map(|i| index.item(i).map(<[S]>::to_vec))
            .collect();
        drop(index);
        DatabaseBuilder {
            items: survivors,
            metric: record.metric,
            metric_tag: record.metric_tag,
            backend: match record.plan {
                Some(_) => Backend::Auto,
                None => record.backend,
            },
            shards: record.shards,
            cache: record.cache.is_some(),
        }
        .build()
    }

    /// Nearest neighbour of `query`.
    pub fn nn(&self, query: &[S]) -> Result<(Option<Neighbour>, SearchStats), SearchError> {
        self.nn_with(query, &QueryOptions::new())
    }

    /// Nearest neighbour with explicit [`QueryOptions`] (radius seed,
    /// pivot budget).
    pub fn nn_with(
        &self,
        query: &[S],
        opts: &QueryOptions,
    ) -> Result<(Option<Neighbour>, SearchStats), SearchError> {
        self.index.nn(query, self.metric(), opts)
    }

    /// The `k` nearest neighbours of `query`, canonically ordered.
    pub fn knn(&self, query: &[S], k: usize) -> Result<(Vec<Neighbour>, SearchStats), SearchError> {
        self.knn_with(query, &QueryOptions::new().k(k))
    }

    /// k-NN with explicit [`QueryOptions`].
    pub fn knn_with(
        &self,
        query: &[S],
        opts: &QueryOptions,
    ) -> Result<(Vec<Neighbour>, SearchStats), SearchError> {
        self.index.knn(query, self.metric(), opts)
    }

    /// Every item within `radius` (inclusive) of `query`, canonically
    /// ordered.
    pub fn range(
        &self,
        query: &[S],
        radius: f64,
    ) -> Result<(Vec<Neighbour>, SearchStats), SearchError> {
        self.range_with(query, &QueryOptions::new().radius(radius))
    }

    /// Range search with explicit [`QueryOptions`].
    pub fn range_with(
        &self,
        query: &[S],
        opts: &QueryOptions,
    ) -> Result<(Vec<Neighbour>, SearchStats), SearchError> {
        self.index.range(query, self.metric(), opts)
    }

    /// Nearest neighbour for a batch of queries, parallelised across
    /// queries.
    pub fn nn_batch(
        &self,
        queries: &[Vec<S>],
    ) -> Result<Vec<(Option<Neighbour>, SearchStats)>, SearchError> {
        self.index
            .nn_batch(queries, self.metric(), &QueryOptions::new())
    }

    /// k-NN for a batch of queries, parallelised across queries.
    pub fn knn_batch(
        &self,
        queries: &[Vec<S>],
        k: usize,
    ) -> Result<Vec<(Vec<Neighbour>, SearchStats)>, SearchError> {
        self.index
            .knn_batch(queries, self.metric(), &QueryOptions::new().k(k))
    }

    /// Turn the database into a live serving session: non-blocking
    /// [`DatabaseSession::submit`] with per-request [`Ticket`]s,
    /// bounded admission, and in-order/insert-barrier semantics — the
    /// in-process face of the serving API (the network face is
    /// [`Database::serve`]).
    ///
    /// The session owns the database while it runs;
    /// [`DatabaseSession::shutdown`] drains in-flight work and hands
    /// the [`Database`] back. Inserts require an insertable backend
    /// ([`Backend::Linear`] or a sharded build); on any other backend
    /// they answer with a typed failure.
    pub fn session(self) -> DatabaseSession<S> {
        self.session_with(SessionConfig::default())
    }

    /// [`Database::session`] with explicit knobs (admission depth).
    pub fn session_with(self, config: SessionConfig) -> DatabaseSession<S> {
        let Database { index, record } = self;
        let metric = Arc::clone(&record.metric);
        DatabaseSession {
            session: ServeSession::spawn_with(index, metric, config),
            record,
        }
    }
}

impl<S: WireSymbol + 'static> Database<S> {
    /// Serve the database over TCP with the `cned-serve` wire
    /// protocol (length-prefixed binary frames; see
    /// [`cned::serve::wire`](cned_serve::wire)). Bind to port 0 for
    /// an ephemeral port and read it back with
    /// [`ServerHandle::local_addr`]; connect with
    /// [`cned::serve::Client`](cned_serve::Client).
    ///
    /// All connections share one session — one admission queue, one
    /// scheduler, insert barriers across clients.
    /// [`ServerHandle::shutdown`] drains connections and in-flight
    /// work, then hands the [`Database`] back.
    pub fn serve(self, addr: impl std::net::ToSocketAddrs) -> std::io::Result<ServerHandle<S>> {
        self.serve_with(addr, ServerConfig::default())
    }

    /// [`Database::serve`] with explicit knobs.
    ///
    /// With [`ServerConfig::data_dir`] set, the server is **durable**:
    ///
    /// * a dir already holding a snapshot wins — it is recovered
    ///   (snapshot + WAL replay) and served, and the database passed
    ///   here is discarded, so a kill → restart loop converges on the
    ///   persisted state rather than the seed;
    /// * a fresh dir is initialised from this database: its index is
    ///   written as the first snapshot (the bytes [`Database::save`]
    ///   writes) and then served as is, cache included;
    /// * every accepted insert is WAL-logged and fsynced **before**
    ///   its ticket resolves, and a snapshot is taken every
    ///   [`ServerConfig::snapshot_every`] inserts and at shutdown;
    /// * replicas may register (see [`Database::replica`]) and are fed
    ///   the snapshot, the log tail, and live inserts.
    pub fn serve_with(
        self,
        addr: impl std::net::ToSocketAddrs,
        config: ServerConfig,
    ) -> std::io::Result<ServerHandle<S>> {
        let Database { index, record } = self;
        let Some(dir) = config.data_dir.clone() else {
            let metric = Arc::clone(&record.metric);
            return Ok(ServerHandle {
                server: Server::bind_with(addr, index, metric, config)?,
                record,
            });
        };
        let (served, hub, record): (Box<dyn MetricIndex<S>>, _, _) = if data_dir_initialised(&dir) {
            // Disk wins: the persisted state (metric and plan
            // included) is the authority; `self`'s contents are
            // discarded.
            let (durable, recovered) = recover_dir::<S>(&dir, config.snapshot_every)?;
            let hub = durable.hub();
            let (served, cache) = with_cache(Box::new(durable), record.cache.is_some());
            (served, hub, Record { cache, ..recovered })
        } else {
            let tag = record.metric_tag.ok_or_else(|| {
                invalid_input("custom metrics cannot be persisted; build with a named Metric")
            })?;
            let plan = record.plan.as_ref().map(Plan::to_bytes);
            let durable =
                Durable::create_with(&dir, tag.codes(), index, plan, config.snapshot_every)
                    .map_err(|e| match e {
                        StoreError::Unsupported { .. } => invalid_input(&e.to_string()),
                        e => invalid_data(e),
                    })?;
            let hub = durable.hub();
            (Box::new(durable), hub, record)
        };
        let metric = Arc::clone(&record.metric);
        Ok(ServerHandle {
            server: Server::bind_replicated(addr, served, metric, config, Some(Arc::new(hub)))?,
            record,
        })
    }

    /// Persist the database to `path` as one self-contained snapshot
    /// file (`cned-store` format): items, metric identity, and the
    /// full index structure. [`Database::load`] restores it without
    /// rebuilding, answering bit-identically — `SearchStats` included.
    ///
    /// Requires a named [`Metric`] and a persistable backend
    /// ([`Backend::Linear`], [`Backend::Laesa`], or a sharded build);
    /// anything else refuses with a typed error.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), SearchError> {
        let tag = self
            .record
            .metric_tag
            .ok_or(SearchError::UnsupportedConfig {
                reason: "custom metrics cannot be persisted; build with a named Metric",
            })?;
        let view = IndexView::of(&*self.index).ok_or(SearchError::UnsupportedConfig {
            reason: "only the linear, laesa and sharded backends can be persisted",
        })?;
        let plan_bytes = self.record.plan.as_ref().map(Plan::to_bytes);
        let bytes = encode_snapshot_with(tag.codes(), &view, plan_bytes.as_deref());
        write_atomic(path.as_ref(), &bytes).map_err(SearchError::from)
    }

    /// Load a database saved by [`Database::save`] (or a server data
    /// dir's snapshot file). The index is decoded, not rebuilt: no
    /// pivot selection, no distance computations.
    pub fn load(path: impl AsRef<Path>) -> Result<Database<S>, SearchError> {
        let bytes = std::fs::read(path.as_ref()).map_err(|e| SearchError::Persistence {
            reason: format!("read snapshot: {e}"),
        })?;
        let (meta, index, plan) = decode_snapshot_plan::<S>(&bytes)?;
        let record = Record::decoded(&meta, &index, plan.as_deref())?;
        Ok(Database {
            index: match index {
                StoredIndex::Linear(i) => Box::new(i),
                StoredIndex::Laesa(i) => Box::new(i),
                StoredIndex::Sharded(i) => Box::new(i),
            },
            record,
        })
    }

    /// Start a **replica** of a durable primary started with
    /// [`Database::serve_with`] + [`ServerConfig::data_dir`].
    ///
    /// The replica recovers whatever `dir` already holds, registers
    /// with the primary declaring how many items it has, catches up
    /// (full snapshot transfer for a fresh/behind replica, log tail
    /// otherwise), then serves **reads** on `addr` while a background
    /// applier streams the primary's subsequent inserts into the local
    /// index — each one WAL-logged locally, so a restarted replica
    /// resumes from its own disk and fetches only the tail it missed.
    /// Inserts sent to the replica by clients answer with a typed
    /// read-only failure.
    pub fn replica(
        primary: impl std::net::ToSocketAddrs,
        dir: impl Into<PathBuf>,
        addr: impl std::net::ToSocketAddrs,
        config: ServerConfig,
    ) -> std::io::Result<ReplicaHandle<S>> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let local = if data_dir_initialised(&dir) {
            Some(recover_dir::<S>(&dir, config.snapshot_every)?)
        } else {
            None
        };
        let have = local
            .as_ref()
            .map_or(0, |(d, _)| MetricIndex::len(d) as u64);

        // Register with the primary and drain the catch-up payload.
        let mut stream = std::net::TcpStream::connect(primary)?;
        let mut buf = Vec::new();
        wire::encode_sync_request(RequestId(0), have, &mut buf);
        wire::write_frame(&mut stream, &buf).map_err(wire_io)?;
        let mut acc = cned_store::SyncAccumulator::<S>::new();
        loop {
            if wire::read_frame(&mut stream, &mut buf)
                .map_err(wire_io)?
                .is_none()
            {
                return Err(invalid_data("primary closed the connection mid-sync"));
            }
            match wire::decode_replica_frame::<S>(&buf).map_err(wire_io)? {
                ReplicaFrame::SyncChunk {
                    mode, done, chunk, ..
                } => {
                    acc.push(mode, &chunk).map_err(invalid_data)?;
                    if done {
                        break;
                    }
                }
                ReplicaFrame::Response(resp) => {
                    return Err(invalid_data(format!(
                        "primary refused replica registration: {:?}",
                        resp.body
                    )));
                }
                ReplicaFrame::Insert { .. } | ReplicaFrame::Delete { .. } => {
                    return Err(invalid_data("write frame before the sync stream completed"));
                }
            }
        }
        let outcome = acc.finish();

        let (mut durable, record) = match (outcome.snapshot, local) {
            (Some(snap), local) => {
                // Full transfer: the primary's snapshot replaces local
                // state wholesale. Validate before installing, and
                // drop the stale WAL so recovery cannot replay old
                // entries on top of the new base.
                let decoded = decode_snapshot_plan::<S>(&snap).map_err(invalid_data)?;
                drop(local);
                write_atomic(&dir.join(SNAPSHOT_FILE), &snap).map_err(invalid_data)?;
                let _ = std::fs::remove_file(dir.join(WAL_FILE));
                resume::<S>(&dir, decoded, config.snapshot_every)?
            }
            (None, Some(local)) => local,
            (None, None) => {
                return Err(invalid_data("primary sent no snapshot to an empty replica"))
            }
        };

        // Apply the log tail by the WAL replay rule: overlap with
        // local state is expected, a gap is a protocol violation.
        for op in outcome.items {
            cned_store::wal::apply(&mut durable, op, &*record.metric).map_err(invalid_data)?;
        }

        let applied = Arc::new(AtomicU64::new(MetricIndex::len(&durable) as u64));
        let hub: Arc<dyn ReplicaHub<S>> = Arc::new(durable.hub());
        let index: Box<dyn MetricIndex<S>> = Box::new(durable);
        let server = Server::bind_replicated(
            addr,
            index,
            Arc::clone(&record.metric),
            config.read_only(true),
            Some(hub),
        )?;
        let feed = stream.try_clone()?;
        let applier = {
            let session = server.session().handle();
            let applied = Arc::clone(&applied);
            std::thread::Builder::new()
                .name("cned-replica-apply".into())
                .spawn(move || apply_stream::<S>(stream, session, applied))
                .expect("spawning the replica applier thread")
        };
        Ok(ReplicaHandle {
            record: Some(record),
            server: Some(server),
            feed,
            applier: Some(applier),
            applied,
        })
    }
}

/// Recover a data dir from its snapshot file plus WAL.
fn recover_dir<S: WireSymbol + 'static>(
    dir: &Path,
    snapshot_every: u64,
) -> std::io::Result<(Durable<S>, Record<S>)> {
    let bytes = std::fs::read(dir.join(SNAPSHOT_FILE))?;
    let decoded = decode_snapshot_plan::<S>(&bytes).map_err(invalid_data)?;
    resume(dir, decoded, snapshot_every)
}

/// Fill the record from `dir`'s decoded snapshot, then let
/// `cned-store` replay the WAL on top of it.
fn resume<S: WireSymbol + 'static>(
    dir: &Path,
    decoded: DecodedSnapshot<S>,
    snapshot_every: u64,
) -> std::io::Result<(Durable<S>, Record<S>)> {
    let (meta, index, plan) = &decoded;
    let record = Record::decoded(meta, index, plan.as_deref()).map_err(invalid_data)?;
    let durable =
        Durable::recover(dir, decoded, &*record.metric, snapshot_every).map_err(invalid_data)?;
    Ok((durable, record))
}

/// The replica's applier loop: stream `RESP_REPL_INSERT` and
/// `RESP_REPL_DELETE` frames from the primary into the local session,
/// deduping inserts by sequence number (deletes are idempotent).
/// Exits on connection loss, session shutdown, or any protocol
/// violation — the replica then simply stops advancing (and a restart
/// re-syncs from the primary).
fn apply_stream<S: WireSymbol + 'static>(
    mut stream: std::net::TcpStream,
    session: SessionHandle<S>,
    applied: Arc<AtomicU64>,
) {
    let mut buf = Vec::new();
    loop {
        match wire::read_frame(&mut stream, &mut buf) {
            Ok(Some(())) => {}
            Ok(None) | Err(_) => return,
        }
        let Ok(frame) = wire::decode_replica_frame::<S>(&buf) else {
            return;
        };
        let request = match frame {
            ReplicaFrame::Insert { seq, item } => {
                let have = applied.load(Ordering::Acquire);
                if seq < have {
                    continue; // overlap with the catch-up payload
                }
                if seq > have {
                    return; // gap — never apply out of order
                }
                Request::Insert { item }
            }
            ReplicaFrame::Delete { index } => {
                // The primary publishes a delete only after the insert
                // it targets, and the stream is ordered, so the target
                // must already be here. Past-the-end means we lost sync.
                if index >= applied.load(Ordering::Acquire) {
                    return;
                }
                Request::Delete {
                    index: index as usize,
                }
            }
            _ => continue, // stray response frames (e.g. a late error)
        };
        // Submit through the session so the write takes the same
        // barrier path as any other; retry briefly on backpressure.
        let ticket = loop {
            match session.submit(request.clone()) {
                Ok(t) => break t,
                Err(SearchError::Overloaded { .. }) => {
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
                Err(_) => return, // shutting down
            }
        };
        match (&request, ticket.wait().body) {
            (Request::Insert { .. }, ResponseBody::Inserted { index }) => {
                let seq = index as u64;
                if seq != applied.load(Ordering::Acquire) {
                    return;
                }
                applied.store(seq + 1, Ordering::Release);
            }
            // `existed: false` is fine — the delete may already have
            // arrived folded into the catch-up payload.
            (Request::Delete { .. }, ResponseBody::Deleted { .. }) => {}
            _ => return,
        }
    }
}

fn invalid_data(e: impl std::fmt::Display) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string())
}

fn invalid_input(msg: &str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidInput, msg)
}

fn wire_io(e: cned_serve::WireError) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string())
}

/// A [`Database`] being served in-process through the session/ticket
/// API (see [`Database::session`]).
pub struct DatabaseSession<S: Symbol + Hash + 'static> {
    record: Record<S>,
    session: ServeSession<S, Box<dyn MetricIndex<S>>>,
}

impl<S: Symbol + Hash + 'static> DatabaseSession<S> {
    /// Enqueue a request; the [`Ticket`] yields its tagged response.
    /// Refuses with [`SearchError::Overloaded`] past the admission
    /// depth.
    pub fn submit(&self, request: Request<S>) -> Result<Ticket, SearchError> {
        self.session.submit(request)
    }

    /// Requests accepted but not yet being answered.
    pub fn pending(&self) -> usize {
        self.session.pending()
    }

    /// Hot-query cache counters, when the database was built with a
    /// cache ([`DatabaseBuilder::cache`]).
    pub fn cache_stats(&self) -> Option<CacheStats> {
        self.record.cache.as_ref().map(CacheHandle::stats)
    }

    /// Drain in-flight work and hand the [`Database`] back.
    pub fn shutdown(self) -> Database<S> {
        let DatabaseSession { record, session } = self;
        Database {
            index: session.shutdown(),
            record,
        }
    }
}

/// A [`Database`] being served over TCP (see [`Database::serve`]).
pub struct ServerHandle<S: WireSymbol + 'static> {
    record: Record<S>,
    server: Server<S, Box<dyn MetricIndex<S>>>,
}

impl<S: WireSymbol + 'static> ServerHandle<S> {
    /// The bound address (with the real port when bound to port 0).
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.server.local_addr()
    }

    /// The shared serving session, for co-serving in-process
    /// submissions next to network clients.
    pub fn session(&self) -> &ServeSession<S, Box<dyn MetricIndex<S>>> {
        self.server.session()
    }

    /// The planner's decision record behind this server, when there is
    /// one (built with [`Backend::Auto`] or recovered from a snapshot
    /// carrying a plan).
    pub fn plan(&self) -> Option<&Plan> {
        self.record.plan.as_ref()
    }

    /// Hot-query cache counters for the serving index, when the
    /// database was built with a cache ([`DatabaseBuilder::cache`]).
    pub fn cache_stats(&self) -> Option<CacheStats> {
        self.record.cache.as_ref().map(CacheHandle::stats)
    }

    /// Stop accepting, drain connections and in-flight work, and hand
    /// the [`Database`] back. When the server was started with a data
    /// dir, the returned index is still the durable wrapper: its drop
    /// (or the next snapshot) persists any WAL tail.
    pub fn shutdown(self) -> Database<S> {
        let ServerHandle { record, server } = self;
        Database {
            index: server.shutdown(),
            record,
        }
    }
}

/// A running replica (see [`Database::replica`]): a read-only server
/// over a locally durable copy of the primary, plus the applier thread
/// streaming the primary's inserts into it.
pub struct ReplicaHandle<S: WireSymbol + 'static> {
    record: Option<Record<S>>,
    server: Option<Server<S, Box<dyn MetricIndex<S>>>>,
    /// Our clone of the primary connection; shutting it down unblocks
    /// the applier's blocking read.
    feed: std::net::TcpStream,
    applier: Option<std::thread::JoinHandle<()>>,
    applied: Arc<AtomicU64>,
}

impl<S: WireSymbol + 'static> ReplicaHandle<S> {
    /// The replica's bound serving address.
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.server
            .as_ref()
            .expect("server present until shutdown")
            .local_addr()
    }

    /// Items the replica holds (base + applied stream), i.e. the
    /// sequence number the next streamed insert must carry. Poll this
    /// to await catch-up with the primary.
    pub fn applied(&self) -> u64 {
        self.applied.load(Ordering::Acquire)
    }

    /// Disconnect from the primary, drain the read-only server, and
    /// hand back the replica's [`Database`] (still durable: its drop
    /// persists any WAL tail into the data dir).
    pub fn shutdown(mut self) -> Database<S> {
        self.stop_feed();
        let server = self.server.take().expect("server present until shutdown");
        let record = self.record.take().expect("record present until shutdown");
        drop(self);
        Database {
            index: server.shutdown(),
            record,
        }
    }

    fn stop_feed(&mut self) {
        let _ = self.feed.shutdown(std::net::Shutdown::Both);
        if let Some(handle) = self.applier.take() {
            let _ = handle.join();
        }
    }
}

impl<S: WireSymbol + 'static> Drop for ReplicaHandle<S> {
    fn drop(&mut self) {
        self.stop_feed();
        // The server (if still held) cleans up its own threads.
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn words() -> Vec<Vec<u8>> {
        ["casa", "cosa", "masa", "taza", "cesta", "pasta"]
            .iter()
            .map(|w| w.as_bytes().to_vec())
            .collect()
    }

    #[test]
    fn every_backend_answers_identically_through_the_facade() {
        let backends = [
            Backend::Linear,
            Backend::Laesa { pivots: 3 },
            Backend::VpTree,
        ];
        let reference = Database::builder(words()).build().unwrap();
        for backend in backends {
            let db = Database::builder(words()).backend(backend).build().unwrap();
            assert_eq!(db.len(), 6);
            for q in [&b"casa"[..], b"pesto", b"maza"] {
                let (r_nn, _) = reference.nn(q).unwrap();
                let (b_nn, _) = db.nn(q).unwrap();
                let (r_nn, b_nn) = (r_nn.unwrap(), b_nn.unwrap());
                assert_eq!(
                    (r_nn.index, r_nn.distance.to_bits()),
                    (b_nn.index, b_nn.distance.to_bits()),
                    "{backend:?} query {q:?}"
                );
                let (r_range, _) = reference.range(q, 2.0).unwrap();
                let (b_range, _) = db.range(q, 2.0).unwrap();
                let as_key = |ns: &[Neighbour]| -> Vec<(usize, u64)> {
                    ns.iter().map(|n| (n.index, n.distance.to_bits())).collect()
                };
                assert_eq!(
                    as_key(&r_range),
                    as_key(&b_range),
                    "{backend:?} query {q:?}"
                );
            }
        }
    }

    #[test]
    fn sharded_builder_path_works_and_owns_the_metric() {
        let db = Database::builder(words())
            .metric(Metric::Contextual { bounded: true })
            .backend(Backend::Laesa { pivots: 2 })
            .shards(3)
            .build()
            .unwrap();
        assert_eq!(db.index().backend_name(), "sharded");
        let (nn, _) = db.nn(b"casa").unwrap();
        let nn = nn.unwrap();
        assert_eq!(nn.index, 0);
        assert_eq!(nn.distance, 0.0);
        assert_eq!(db.item(nn.index), Some(&b"casa"[..]));
        assert_eq!(db.metric().name(), "d_C");
        // Batches flow through the same surface.
        let queries = words();
        let batch = db.nn_batch(&queries).unwrap();
        assert_eq!(batch.len(), queries.len());
        for (i, (nb, _)) in batch.iter().enumerate() {
            assert_eq!(nb.unwrap().index, i, "member query finds itself");
        }
    }

    #[test]
    fn sharding_non_laesa_backends_is_a_typed_error() {
        let err = Database::builder(words())
            .backend(Backend::VpTree)
            .shards(4)
            .build()
            .err()
            .expect("sharded vp-tree must be rejected");
        assert!(matches!(err, SearchError::UnsupportedConfig { .. }));
    }

    #[test]
    fn unbounded_contextual_matches_bounded_results() {
        let fast = Database::builder(words())
            .metric(Metric::Contextual { bounded: true })
            .build()
            .unwrap();
        let slow = Database::builder(words())
            .metric(Metric::Contextual { bounded: false })
            .build()
            .unwrap();
        for q in [&b"casa"[..], b"past", b"zzz"] {
            let (f, _) = fast.nn(q).unwrap();
            let (s, _) = slow.nn(q).unwrap();
            let (f, s) = (f.unwrap(), s.unwrap());
            assert_eq!(
                (f.index, f.distance.to_bits()),
                (s.index, s.distance.to_bits())
            );
        }
    }

    #[test]
    fn custom_metrics_plug_in() {
        struct LengthDiff;
        impl Distance<u8> for LengthDiff {
            fn distance(&self, a: &[u8], b: &[u8]) -> f64 {
                (a.len() as f64 - b.len() as f64).abs()
            }
            fn name(&self) -> &'static str {
                "len-diff"
            }
            fn is_metric(&self) -> bool {
                false // pseudo-metric: identity fails
            }
        }
        let db = Database::builder(words())
            .custom_metric(Box::new(LengthDiff))
            .build()
            .unwrap();
        let (nn, _) = db.nn(b"xxxx").unwrap();
        assert_eq!(nn.unwrap().distance, 0.0);
    }

    #[test]
    fn empty_database_is_a_typed_error_at_query_time() {
        let db = Database::builder(Vec::<Vec<u8>>::new()).build().unwrap();
        assert!(db.is_empty());
        assert_eq!(db.nn(b"x").unwrap_err(), SearchError::EmptyDatabase);
        assert_eq!(db.range(b"x", 1.0).unwrap_err(), SearchError::EmptyDatabase);
    }

    /// A corpus large enough for the planner to sample (clustered, so
    /// pruning backends win) — `i` perturbs a handful of base words.
    fn clustered(n: usize) -> Vec<Vec<u8>> {
        (0..n)
            .map(|i| {
                let mut w = [&b"casa"[..], b"cosa", b"masa", b"taza"][i % 4].to_vec();
                w.push(b'a' + (i % 26) as u8);
                if i % 3 == 0 {
                    w.push(b'a' + (i / 26 % 26) as u8);
                }
                w
            })
            .collect()
    }

    #[test]
    fn auto_backend_records_a_plan_and_matches_its_concrete_twin() {
        let auto = Database::builder(clustered(300))
            .backend(Backend::Auto)
            .build()
            .unwrap();
        let plan = auto.plan().expect("Auto records a plan").clone();
        let twin = Database::builder(clustered(300))
            .backend(match plan.backend {
                PlannedBackend::Linear => Backend::Linear,
                PlannedBackend::Laesa { pivots } => Backend::Laesa { pivots },
                PlannedBackend::VpTree => Backend::VpTree,
            })
            .shards(plan.shards.max(1))
            .build()
            .unwrap();
        for q in [&b"casaq"[..], b"tazaxx", b"zzzz"] {
            let (a, sa) = auto.nn(q).unwrap();
            let (t, st) = twin.nn(q).unwrap();
            let (a, t) = (a.unwrap(), t.unwrap());
            assert_eq!(
                (a.index, a.distance.to_bits()),
                (t.index, t.distance.to_bits())
            );
            assert_eq!(sa, st, "identical structure, identical work");
        }
        assert!(plan.report().contains("backend"), "report names the choice");
    }

    #[test]
    fn auto_forces_linear_for_non_metric_distances() {
        let db = Database::builder(clustered(300))
            .metric(Metric::MaxNorm)
            .backend(Backend::Auto)
            .build()
            .unwrap();
        assert_eq!(db.plan().unwrap().backend, PlannedBackend::Linear);
        assert_eq!(db.index().backend_name(), "linear");
    }

    #[test]
    fn cached_facade_replays_hits_and_flushes_on_delete() {
        let mut db = Database::builder(words()).cache().build().unwrap();
        let (first, s1) = db.nn(b"cesa").unwrap();
        let (again, s2) = db.nn(b"cesa").unwrap();
        assert_eq!(
            (first.unwrap().index, first.unwrap().distance.to_bits()),
            (again.unwrap().index, again.unwrap().distance.to_bits())
        );
        assert_eq!(s1, s2, "a hit replays the stored statistics too");
        let stats = db.cache_stats().expect("cache configured");
        assert_eq!((stats.hits, stats.misses), (1, 1));
        // The delete barrier flushes: the dead item vanishes from the
        // recomputed answer instead of being replayed stale.
        let dead = first.unwrap().index;
        assert!(db.delete(dead).unwrap());
        let (after, _) = db.nn(b"cesa").unwrap();
        assert_ne!(after.unwrap().index, dead, "no stale cached answer");
        assert!(db.cache_stats().unwrap().invalidations >= 1);
    }

    #[test]
    fn vacuum_matches_a_fresh_build_of_the_survivors() {
        // Each shape reaches vacuum in memory, through save → load and
        // through a durable server's shutdown; every route rebuilds the
        // recorded shape, compaction threshold included.
        let survivors: Vec<Vec<u8>> = words()
            .into_iter()
            .enumerate()
            .filter(|(i, _)| *i != 1 && *i != 4)
            .map(|(_, w)| w)
            .collect();
        let scratch = std::env::temp_dir().join(format!("cned-vacuum-{}", std::process::id()));
        let delta = |db: &Database<u8>| {
            db.index()
                .as_any()
                .and_then(|any| any.downcast_ref::<ShardedIndex<u8>>())
                .map(ShardedIndex::delta_len)
        };
        for shards in [1, 2] {
            let build = |items: Vec<Vec<u8>>| {
                Database::builder(items)
                    .backend(Backend::Laesa { pivots: 2 })
                    .shards(shards)
                    .compact_threshold(2)
                    .build()
                    .unwrap()
            };
            for route in ["memory", "load", "durable"] {
                let mut db = build(words());
                assert!(db.delete(1).unwrap());
                assert!(db.delete(4).unwrap());
                assert!(db.is_deleted(1) && !db.is_deleted(0));
                let _ = std::fs::remove_dir_all(&scratch);
                let db = match route {
                    "memory" => db,
                    "load" => {
                        let path = scratch.with_extension("cned");
                        db.save(&path).unwrap();
                        let loaded = Database::<u8>::load(&path).unwrap();
                        let _ = std::fs::remove_file(&path);
                        loaded
                    }
                    _ => db
                        .serve_with("127.0.0.1:0", ServerConfig::default().data_dir(&scratch))
                        .unwrap()
                        .shutdown(),
                };
                let mut vacuumed = db.vacuum().unwrap();
                assert_eq!((vacuumed.len(), vacuumed.deleted()), (4, 0));
                let mut fresh = build(survivors.clone());
                if shards > 1 {
                    for item in [&b"casas"[..], b"pastas"] {
                        let at = vacuumed.insert(item.to_vec());
                        assert_eq!(at, fresh.insert(item.to_vec()), "{route}");
                    }
                    assert_eq!(delta(&vacuumed), Some(0), "{route}: compacts at 2");
                }
                for q in [&b"casa"[..], b"cesa", b"pasta", b"casas"] {
                    let (v, sv) = vacuumed.nn(q).unwrap();
                    let (f, sf) = fresh.nn(q).unwrap();
                    let (v, f) = (v.unwrap(), f.unwrap());
                    assert_eq!(
                        (v.index, v.distance.to_bits()),
                        (f.index, f.distance.to_bits()),
                        "{route} shards={shards}"
                    );
                    assert_eq!(sv, sf, "vacuum is indistinguishable from a fresh build");
                }
            }
        }
        let _ = std::fs::remove_dir_all(&scratch);
    }

    #[test]
    fn auto_plan_survives_save_and_load() {
        let path = std::env::temp_dir().join(format!("cned-planload-{}.cned", std::process::id()));
        let db = Database::builder(clustered(300))
            .backend(Backend::Auto)
            .build()
            .unwrap();
        let saved_plan = db.plan().expect("Auto records a plan").clone();
        db.save(&path).unwrap();
        let loaded = Database::<u8>::load(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        assert_eq!(
            loaded.plan(),
            Some(&saved_plan),
            "warm restart reports the decision it serves"
        );
        let (a, sa) = db.nn(b"casaq").unwrap();
        let (b, sb) = loaded.nn(b"casaq").unwrap();
        let (a, b) = (a.unwrap(), b.unwrap());
        assert_eq!(
            (a.index, a.distance.to_bits()),
            (b.index, b.distance.to_bits())
        );
        assert_eq!(sa, sb);
    }

    #[test]
    fn facade_session_serves_tickets_and_returns_the_database() {
        use cned_serve::ResponseBody;
        let db = Database::builder(words())
            .backend(Backend::Laesa { pivots: 2 })
            .shards(2)
            .build()
            .unwrap();
        let n = db.len();
        let session = db.session();
        let t_nn = session
            .submit(Request::Nn {
                query: b"casa".to_vec(),
            })
            .unwrap();
        let t_ins = session
            .submit(Request::Insert {
                item: b"nueva".to_vec(),
            })
            .unwrap();
        let t_after = session
            .submit(Request::Nn {
                query: b"nueva".to_vec(),
            })
            .unwrap();
        let ResponseBody::Nn {
            neighbour: Some(nb),
            ..
        } = t_nn.wait().body
        else {
            panic!("expected Nn");
        };
        assert_eq!((nb.index, nb.distance), (0, 0.0));
        assert_eq!(t_ins.wait().body, ResponseBody::Inserted { index: n });
        let ResponseBody::Nn {
            neighbour: Some(nb),
            ..
        } = t_after.wait().body
        else {
            panic!("expected Nn");
        };
        assert_eq!((nb.index, nb.distance), (n, 0.0), "insert is a barrier");
        // The session hands the database back, insert included.
        let db = session.shutdown();
        assert_eq!(db.len(), n + 1);
        assert_eq!(db.item(n), Some(&b"nueva"[..]));
        assert_eq!(db.metric().name(), "d_E");
    }

    #[test]
    fn facade_serve_loopback_matches_in_process_answers() {
        use cned_serve::Client;
        let db = Database::builder(words()).build().unwrap();
        let n = db.len();
        // In-process expectations first; then the same database goes
        // behind the wire.
        let (e_nn, e_stats) = db.nn(b"cesa").unwrap();
        let (e_range, _) = db.range(b"casa", 1.0).unwrap();
        let handle = db.serve("127.0.0.1:0").expect("ephemeral loopback bind");
        let mut client: Client<u8> = Client::connect(handle.local_addr()).unwrap();
        let (nn, stats) = client.nn(b"cesa").unwrap();
        assert_eq!(
            nn.map(|v| (v.index, v.distance.to_bits())),
            e_nn.map(|v| (v.index, v.distance.to_bits())),
            "loopback NN is bit-identical to the in-process answer"
        );
        assert_eq!(stats, e_stats);
        let (hits, _) = client.range(b"casa", 1.0).unwrap();
        let key = |ns: &[Neighbour]| -> Vec<(usize, u64)> {
            ns.iter().map(|v| (v.index, v.distance.to_bits())).collect()
        };
        assert_eq!(key(&hits), key(&e_range));
        // Inserts flow over the wire into the served index…
        assert_eq!(client.insert(b"cesa").unwrap(), n);
        let (nn, _) = client.nn(b"cesa").unwrap();
        assert_eq!(nn.map(|v| (v.index, v.distance)), Some((n, 0.0)));
        drop(client);
        // …and drain back into the reassembled database.
        let db = handle.shutdown();
        assert_eq!(db.len(), n + 1);
        let (nn, _) = db.nn(b"cesa").unwrap();
        assert_eq!(nn.map(|v| (v.index, v.distance)), Some((n, 0.0)));
    }
}
