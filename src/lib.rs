//! # cned — A Contextual Normalised Edit Distance
//!
//! A reproduction of *"A Contextual Normalised Edit Distance"* (Colin
//! de la Higuera & Luisa Micó, ICDE 2008), grown into a metric-space
//! search engine: every distance of the paper, five interchangeable
//! nearest-neighbour backends behind one object-safe trait (the
//! facade builds four of them; AESA stays in [`search`] as the
//! all-pivots reference), and a sharded serving layer.
//!
//! ## Quickstart: the [`Database`] facade
//!
//! The paper's machinery is generic in the metric — the same search
//! structures serve `d_E`, `d_C`, `d_YB`, … unchanged. The facade
//! crosses the two axes declaratively and returns a [`Database`] that
//! owns its metric:
//!
//! ```
//! use cned::{Backend, Database, Metric};
//!
//! let words: Vec<Vec<u8>> = ["casa", "cosa", "masa", "taza"]
//!     .iter()
//!     .map(|w| w.as_bytes().to_vec())
//!     .collect();
//! let db = Database::builder(words)
//!     .metric(Metric::Contextual { bounded: true })
//!     .backend(Backend::Laesa { pivots: 2 })
//!     .build()
//!     .unwrap();
//!
//! // Nearest neighbour, k-NN and range search share one surface.
//! let (nearest, stats) = db.nn(b"cusa").unwrap();
//! assert!(nearest.unwrap().distance > 0.0);
//! assert!(stats.distance_computations <= 4);
//! let (within, _) = db.range(b"casa", 0.5).unwrap();
//! assert!(!within.is_empty());
//! ```
//!
//! Add `.shards(4)` to serve the same queries from a sharded LAESA
//! index with cross-shard bound propagation, `.backend(Backend::Auto)`
//! to let the planner choose, `.cache()` for the hot-query cache, or
//! drop to the layer crates directly:
//!
//! * [`core`] — every distance in the paper: Levenshtein `d_E`, the
//!   contextual metric `d_C` (exact Algorithm 1) and its fast heuristic
//!   `d_C,h`, Marzal–Vidal `d_MV`, Yujian–Bo `d_YB`, and the
//!   non-metric normalisations `d_max`/`d_min`/`d_sum`.
//! * [`search`] — the [`search::MetricIndex`] trait and its backends
//!   (linear scan, LAESA, vp-tree, and AESA, whose full distance
//!   matrix makes it the reference the agreement suites check the
//!   others against) with distance-computation counting, typed errors
//!   and batch pipelines.
//! * [`serve`] — serving layer: multi-shard LAESA with cross-shard
//!   bound propagation and rebalancing, the session/ticket front-end
//!   ([`Database::session`]), and the TCP wire protocol
//!   ([`Database::serve`] / [`Client`]), all generic over the trait.
//! * [`plan`] — the decision layer: [`Backend::Auto`] planning from a
//!   seeded distance sample (backend, pivot count, shard split — with
//!   an inspectable [`Plan`] report), and the exact hot-query result
//!   cache behind [`DatabaseBuilder::cache`].
//! * [`datasets`] — synthetic stand-ins for the paper's three
//!   benchmarks: a Spanish-like dictionary, DNA gene sequences, and
//!   handwritten-digit contour chain codes.
//! * [`stats`] — distance histograms and intrinsic dimensionality.
//! * [`classify`] — 1-NN / k-NN classification over `&dyn MetricIndex`.
//!
//! ```
//! use cned::prelude::*;
//!
//! // Paper, Example 4: d_C(ababa, baab) = 8/15.
//! let d = contextual_distance(b"ababa", b"baab");
//! assert!((d - 8.0 / 15.0).abs() < 1e-12);
//! ```
//!
//! The facade (and everything answering queries) reports failure as
//! [`SearchError`] — empty databases, invalid radii and bad pivot sets
//! are values, not panics.

pub use cned_classify as classify;
pub use cned_core as core;
pub use cned_datasets as datasets;
pub use cned_plan as plan;
pub use cned_search as search;
pub use cned_serve as serve;
pub use cned_stats as stats;
pub use cned_store as store;

mod database;

pub use cned_plan::{CacheStats, Plan};
pub use cned_search::{
    InsertableIndex, MetricIndex, Neighbour, QueryOptions, SearchError, SearchStats,
};
pub use cned_serve::{
    Client, ClientError, Request, RequestId, Response, ResponseBody, ServerConfig, SessionConfig,
    Ticket,
};
pub use database::{
    Backend, Database, DatabaseBuilder, DatabaseSession, Metric, ReplicaHandle, ServerHandle,
};

/// One-stop imports for examples and quick scripts.
pub mod prelude {
    pub use crate::{
        Backend, Client, Database, Metric, MetricIndex, QueryOptions, Request, ResponseBody,
        SearchError,
    };
    pub use cned_core::prelude::*;
}
