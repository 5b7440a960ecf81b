//! [`QueryPipeline`] — the batch entry point, kept as a thin wrapper
//! over the session machinery.
//!
//! Since the session/ticket redesign, the scheduling brain lives in
//! [`crate::session`]: one scheduler with in-order/insert-barrier
//! semantics, parallel query chunks, and per-request ids on every
//! response. `QueryPipeline::run` is "submit the whole queue into a
//! session, wait every ticket in order" — a *scoped* session whose
//! scheduler runs on a scoped thread borrowing the pipeline's index,
//! so the batch call keeps its old synchronous shape (and its
//! non-`'static` `&D` distance parameter) while exercising exactly
//! the code path a live [`crate::ServeSession`] serves through.
//!
//! Semantics (unchanged from the pre-session pipeline, now enforced
//! by construction):
//!
//! * consecutive **queries** form a batch dispatched across
//!   [`cned_search::workers_for`] worker threads with dynamic load
//!   balancing; results (neighbours, distances, *and* per-query
//!   computation counts) are bit-identical for any worker count;
//! * an **insert** is a barrier: earlier requests answer against the
//!   pre-insert index, later ones observe the new item;
//! * failures are values: a defective request yields
//!   [`ResponseBody::Failed`] in its slot (tagged with its
//!   [`RequestId`]) without poisoning the batch, and queries against
//!   an empty index keep their legacy empty-result shape.

use crate::session::{scheduler_loop, SessionShared, Ticket};
use crate::sharded::ShardedIndex;
use crate::{Request, RequestId, Response};
use cned_core::metric::Distance;
use cned_core::Symbol;
use cned_search::MetricIndex;

#[allow(unused_imports)] // rustdoc links
use crate::ResponseBody;

/// A batch serving pipeline owning an index — by default a
/// [`ShardedIndex`], but any [`MetricIndex`] implementation (e.g.
/// [`cned_search::LinearIndex`]) plugs in unchanged. Backends without
/// insert support answer `Insert` requests with a typed
/// [`ResponseBody::Failed`].
pub struct QueryPipeline<S: Symbol, I: MetricIndex<S> = ShardedIndex<S>> {
    index: I,
    _symbols: std::marker::PhantomData<fn() -> S>,
}

impl<S: Symbol, I: MetricIndex<S>> QueryPipeline<S, I> {
    /// Wrap an index for batch serving.
    pub fn new(index: I) -> QueryPipeline<S, I> {
        QueryPipeline {
            index,
            _symbols: std::marker::PhantomData,
        }
    }

    /// The underlying index (e.g. for direct single queries).
    pub fn index(&self) -> &I {
        &self.index
    }

    /// Unwrap the pipeline back into its index.
    pub fn into_index(self) -> I {
        self.index
    }

    /// Process `requests` with in-order semantics, returning one
    /// [`Response`] per request in input order; `responses[i]` carries
    /// [`RequestId`]`(i as u64)`, so callers can also correlate by id.
    /// See the module docs for the scheduling model.
    ///
    /// Takes the queue by reference: each request is cloned once into
    /// the session queue, so callers can reuse or replay the queue
    /// across calls.
    pub fn run<D: Distance<S> + ?Sized>(
        &mut self,
        requests: &[Request<S>],
        dist: &D,
    ) -> Vec<Response> {
        let dist: &dyn Distance<S> = &dist;
        let shared: SessionShared<S> = SessionShared::new();
        let index = &mut self.index;
        std::thread::scope(|scope| {
            let shared_ref = &shared;
            let scheduler = scope.spawn(move || scheduler_loop(shared_ref, index, dist));
            // An unbounded scoped session: the batch caller *is* the
            // admission control, so backpressure would be self-inflicted.
            let tickets: Vec<Ticket> = requests
                .iter()
                .map(|request| {
                    shared
                        .submit(usize::MAX, request.clone(), None)
                        .expect("unbounded scoped session accepts every request")
                })
                .collect();
            let responses: Vec<Response> = tickets.into_iter().map(Ticket::wait).collect();
            shared.begin_drain();
            scheduler.join().expect("scoped session scheduler panicked");
            debug_assert!(responses
                .iter()
                .enumerate()
                .all(|(i, r)| r.id == RequestId(i as u64)));
            responses
        })
    }
}
