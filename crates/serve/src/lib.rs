//! # cned-serve — the sharded concurrent serving layer
//!
//! Scales the paper's pivot-based search (LAESA — Micó, Oncina &
//! Vidal 1994) past one index, one request, and one process:
//!
//! * [`sharded`] — [`ShardedIndex`]: the database partitioned into
//!   `k` contiguous LAESA shards (built in parallel), queried with
//!   **cross-shard bound propagation**, plus a small unindexed *delta
//!   shard* absorbing incremental inserts until compaction, with
//!   automatic **rebalancing** of undersized shards back into the
//!   size-balanced layout;
//! * [`session`] — [`ServeSession`]: the serving front-end. A
//!   non-blocking submit/[`Ticket`] handle over an index-owning
//!   scheduler thread, with bounded admission (typed
//!   [`cned_search::SearchError::Overloaded`] backpressure),
//!   per-request ids on every [`Response`], and graceful draining
//!   [`ServeSession::shutdown`];
//! * [`wire`] — the network protocol: versioned length-prefixed
//!   binary frames (std-only, no serde/tokio) covering NN / k-NN /
//!   range / insert, **batch frames** packing many requests (and
//!   their answers) under one id, plus typed error codes mapping
//!   [`cned_search::SearchError`] both ways;
//! * [`server`] / [`client`] — [`Server`]: a readiness-based
//!   **event-loop** `std::net` front-end — a fixed pool of sweep
//!   threads drives every non-blocking connection (per-connection
//!   [`wire::FrameBuffer`] reassembly, bounded outbox backpressure,
//!   an in-band connection-cap rejection frame, idle timeouts,
//!   draining shutdown), sleeping in `poll(2)` between sweeps until
//!   a socket or its [`Doorbell`] needs it, and shares one session
//!   across all connections; [`Client`]: a pipelined client with
//!   buffered (explicitly flushed) submission, connect/read deadlines
//!   ([`ClientConfig`]), and batch calls ([`Client::nn_batch`] /
//!   [`Client::knn_batch`]) whose submissions return the same
//!   [`Ticket`] type the in-process session hands out.
//!
//! Everything plugs into the unified query API: [`ShardedIndex`]
//! implements [`cned_search::MetricIndex`] (NN / k-NN / **range** /
//! batches, all through [`cned_search::QueryOptions`] with typed
//! errors) and [`cned_search::InsertableIndex`], and sessions and
//! servers are generic over any [`cned_search::MetricIndex`]
//! — `ShardedIndex` is merely the default (non-insertable backends
//! answer `Insert` requests with a typed failure).
//!
//! ## The cross-shard bound-propagation invariant
//!
//! A query fans across shards **in shard order**, and the pruning
//! radius handed to shard `s` is always the *exact* best distance
//! (for k-NN: the k-th best) found over shards `0..s` — so shard 2
//! starts its elimination with shard 1's best already in hand, the
//! way a single LAESA run reuses its own running best. This is sound
//! for the same reason bounded evaluation is sound inside one index:
//! a radius can only **reject** candidates, never answer for them.
//! Candidates whose true distance exceeds the radius cannot enter the
//! global result (something at least as close already exists in an
//! earlier shard), and candidates within the radius are still
//! evaluated and admitted, including exact ties (`d <= radius`), so
//! the final merge — under the canonical (distance, ascending
//! database index) ordering shared with `cned-search` — returns
//! exactly the single-index answer. Chávez et al. 2001's cost model
//! says distance evaluations dominate metric search, which is why the
//! propagated bound is worth the serialisation it imposes *within*
//! one query: it converts later shards' candidate evaluations into
//! cheap gate rejections, and throughput parallelism comes from
//! running many queries' chains concurrently instead.
//!
//! ## Why pivot distances stay exact
//!
//! Within every shard, distances from the query to the shard's
//! *pivots* are computed exactly even when they exceed the current
//! radius. A pivot's exact value feeds the triangle-inequality lower
//! bounds `G[u] = max_p |d(q,p) − d(p,u)|` of every candidate in the
//! shard; truncating it at the radius would corrupt those bounds and
//! make elimination unsound. Only *candidate* evaluations — whose
//! values merely compete against the running best — are bounded.
//! The per-query cost of a shard is therefore at least its pivot
//! count, which is the capacity knob: more shards with fewer pivots
//! each lowers build cost and tail latency, fewer shards with more
//! pivots minimises total distance computations.

// The one `unsafe` block is the `poll(2)` call in `poll.rs`, which
// opts out with `#[allow(unsafe_code)]`; everything else stays safe,
// enforced at compile time (and audited by cned-lint).
#![deny(unsafe_code)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod client;
pub mod ordered;
mod poll;
pub mod server;
pub mod session;
pub mod sharded;
pub mod wire;

pub use client::{BatchTicket, Client, ClientConfig, ClientError};
pub use ordered::{OrderedGuard, OrderedMutex};
pub use poll::Doorbell;
pub use server::{ReplOp, ReplicaHub, Server, ServerConfig};
pub use session::{
    Request, RequestId, Response, ResponseBody, ServeSession, SessionConfig, SessionHandle, Ticket,
};
pub use sharded::{ShardConfig, ShardedIndex};
pub use wire::{WireError, WireSymbol, BATCH_VERSION, CONTROL_ID, MAX_FRAME, WIRE_VERSION};
