//! The session/ticket serving API: [`ServeSession`] — a non-blocking
//! handle over an index-owning scheduler thread.
//!
//! A served workload arrives as a stream: requests trickle in from
//! many callers, answers are wanted as soon as *their* chain
//! completes, and the server must be able to say **no** when it falls
//! behind. The session model covers that shape with three moves:
//!
//! * [`ServeSession::submit`] is non-blocking: it enqueues the request
//!   and immediately returns a [`Ticket`] tagged with the request's
//!   [`RequestId`]. The caller collects the answer through
//!   [`Ticket::try_recv`] (poll) or [`Ticket::wait`] (block), in any
//!   order — many tickets may be in flight at once (pipelining).
//! * Admission is **bounded**: past [`SessionConfig::queue_depth`]
//!   queued requests, `submit` refuses with
//!   [`SearchError::Overloaded`] instead of growing the queue without
//!   limit. Backpressure is a typed value the caller (or the wire
//!   protocol) can forward, not a stall.
//! * [`ServeSession::shutdown`] is **graceful**: it stops admission
//!   ([`SearchError::Shutdown`] for new submissions) but drains every
//!   already-accepted request — no ticket issued before the shutdown
//!   is ever dropped — then hands the index back.
//!
//! ## Scheduling model
//!
//! One scheduler thread owns the index and pulls the queue in FIFO
//! order with in-order/insert-barrier semantics: consecutive
//! *queries* form a chunk answered in
//! parallel across [`cned_search::workers_for`] workers (each worker
//! pulls whole queries from an atomic cursor, so per-query preparation
//! happens once and results are bit-identical for any worker count);
//! an **insert** is a barrier — every earlier request is answered
//! against the pre-insert index, every later one observes the new
//! item. Responses are delivered per ticket the moment their query
//! completes.
//!
//! Every [`Response`] — including [`ResponseBody::Failed`] — carries
//! the [`RequestId`] of the request that produced it, so answers
//! correlate by identity, never by queue position.

use crate::ordered::{rank, OrderedMutex};
use crate::poll::Doorbell;
use crate::sharded::ShardedIndex;
use cned_core::metric::Distance;
use cned_core::Symbol;
use cned_search::{workers_for, MetricIndex, Neighbour, QueryOptions, SearchError, SearchStats};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar};
use std::thread::JoinHandle;

/// Identity of one submitted request within its session (assigned
/// sequentially from 0 at submission). Every [`Response`] carries the
/// id of the request that produced it, so callers and wire clients
/// correlate answers by identity instead of arrival order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RequestId(pub u64);

impl std::fmt::Display for RequestId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// One unit of work for a session.
///
/// `PartialEq` compares the `Range` radius by value, so a NaN radius
/// (which is still *served* — it answers `Failed`) compares unequal to
/// itself; there is deliberately no `Eq`.
#[derive(Debug, Clone, PartialEq)]
pub enum Request<S: Symbol> {
    /// Nearest-neighbour query.
    Nn {
        /// The query string.
        query: Vec<S>,
    },
    /// k-nearest-neighbours query.
    Knn {
        /// The query string.
        query: Vec<S>,
        /// How many neighbours.
        k: usize,
    },
    /// Range (radius) query: everything within `radius`, inclusive.
    Range {
        /// The query string.
        query: Vec<S>,
        /// The radius (must be non-negative and not NaN, else the
        /// request answers with [`ResponseBody::Failed`]).
        radius: f64,
    },
    /// Incremental insert (a barrier: see the module docs).
    Insert {
        /// The item to add.
        item: Vec<S>,
    },
    /// Tombstone delete of one global index (a barrier, like
    /// [`Request::Insert`]: earlier queries still observe the item,
    /// later ones never do).
    Delete {
        /// Global index of the item to delete.
        index: usize,
    },
}

impl<S: Symbol> Request<S> {
    /// The query/item payload (for logging and demos).
    pub fn payload(&self) -> &[S] {
        match self {
            Request::Nn { query } => query,
            Request::Knn { query, .. } => query,
            Request::Range { query, .. } => query,
            Request::Insert { item } => item,
            // A delete addresses an index, not a payload.
            Request::Delete { .. } => &[],
        }
    }
}

/// The answer to one [`Request`]: the originating request's id plus
/// the kind-specific body.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// Id of the request this response answers.
    pub id: RequestId,
    /// The payload.
    pub body: ResponseBody,
}

/// Kind-specific payload of a [`Response`].
#[derive(Debug, Clone, PartialEq)]
pub enum ResponseBody {
    /// Answer to [`Request::Nn`]; `None` when the index was empty (or
    /// held nothing within the radius) at that point in the queue.
    Nn {
        /// The nearest neighbour (global index + distance).
        neighbour: Option<Neighbour>,
        /// Total distance evaluations for the query.
        stats: SearchStats,
    },
    /// Answer to [`Request::Knn`].
    Knn {
        /// Up to `k` neighbours in (distance, index) order.
        neighbours: Vec<Neighbour>,
        /// Total distance evaluations for the query.
        stats: SearchStats,
    },
    /// Answer to [`Request::Range`].
    Range {
        /// Every item within the radius, in (distance, index) order.
        neighbours: Vec<Neighbour>,
        /// Total distance evaluations for the query.
        stats: SearchStats,
    },
    /// Answer to [`Request::Insert`]: the item's global index.
    Inserted {
        /// Global index assigned to the inserted item.
        index: usize,
    },
    /// Answer to [`Request::Delete`].
    Deleted {
        /// Whether the index was alive (idempotent: deleting an
        /// already-deleted or out-of-range index answers `false`).
        existed: bool,
    },
    /// The request could not be answered; the typed error explains
    /// why. Other requests in the queue are unaffected.
    Failed {
        /// What went wrong.
        error: SearchError,
    },
}

/// Knobs of a [`ServeSession`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionConfig {
    /// Maximum number of requests queued (accepted but not yet being
    /// answered) before [`ServeSession::submit`] refuses with
    /// [`SearchError::Overloaded`].
    pub queue_depth: usize,
}

impl Default for SessionConfig {
    fn default() -> SessionConfig {
        SessionConfig { queue_depth: 1024 }
    }
}

impl SessionConfig {
    /// Default knobs (`queue_depth = 1024`).
    pub fn new() -> SessionConfig {
        SessionConfig::default()
    }

    /// Set the admission-queue depth.
    pub fn queue_depth(mut self, depth: usize) -> SessionConfig {
        self.queue_depth = depth;
        self
    }
}

/// A claim on the eventual [`Response`] to one submitted request.
///
/// Exactly one response is delivered per ticket; collect it with
/// [`Ticket::try_recv`] (non-blocking) or [`Ticket::wait`]. Tickets
/// are independent — hold many and collect them in any order.
#[derive(Debug)]
pub struct Ticket {
    id: RequestId,
    rx: mpsc::Receiver<Response>,
    /// Whether a response (real or the disconnection fallback) has
    /// already been handed out; later polls yield `None`.
    done: std::cell::Cell<bool>,
}

impl Ticket {
    pub(crate) fn new(id: RequestId, rx: mpsc::Receiver<Response>) -> Ticket {
        Ticket {
            id,
            rx,
            done: std::cell::Cell::new(false),
        }
    }

    /// The id of the submitted request (matches the eventual
    /// [`Response::id`]).
    pub fn id(&self) -> RequestId {
        self.id
    }

    /// The response, if it has arrived (`None` while the request is
    /// still queued or in flight, and on every poll after the
    /// response has been collected — at most one response is ever
    /// handed out). If the serving side died before answering — which
    /// a graceful shutdown never does — this yields a
    /// [`ResponseBody::Failed`] with [`SearchError::Shutdown`] once.
    pub fn try_recv(&self) -> Option<Response> {
        if self.done.get() {
            return None;
        }
        match self.rx.try_recv() {
            Ok(response) => {
                self.done.set(true);
                Some(response)
            }
            Err(mpsc::TryRecvError::Empty) => None,
            Err(mpsc::TryRecvError::Disconnected) => {
                self.done.set(true);
                Some(Response {
                    id: self.id,
                    body: ResponseBody::Failed {
                        error: SearchError::Shutdown,
                    },
                })
            }
        }
    }

    /// Block until the response arrives. See [`Ticket::try_recv`] for
    /// the disconnection fallback (also what this returns if the
    /// response was already collected through `try_recv` — `wait`
    /// consumes the ticket, so the combination is caller misuse).
    pub fn wait(self) -> Response {
        let id = self.id;
        self.rx.recv().unwrap_or(Response {
            id,
            body: ResponseBody::Failed {
                error: SearchError::Shutdown,
            },
        })
    }
}

/// One queued request: id, payload, and the ticket's delivery end.
type Slot<S> = (RequestId, Request<S>, Reply);

/// The delivery end of a [`Ticket`]. It carries the [`Doorbell`] of
/// the event loop that submitted the request, if any, and rings it
/// once the response is sent, or once the reply is dropped unsent
/// (the ticket then yields its `Failed { Shutdown }` fallback), so a
/// loop never sleeps through the resolution of a ticket it holds.
pub(crate) struct Reply {
    tx: mpsc::Sender<Response>,
    /// Declared after `tx`: fields drop in order, so an unsent reply
    /// disconnects its ticket before the bell rings.
    wake: Wake,
}

/// The ringing half of a [`Reply`]. `sent` is atomic because parallel
/// workers deliver through shared references to one chunk of slots.
struct Wake {
    bell: Option<Doorbell>,
    sent: AtomicBool,
}

impl Reply {
    pub(crate) fn new(tx: mpsc::Sender<Response>, bell: Option<&Doorbell>) -> Reply {
        Reply {
            tx,
            wake: Wake {
                bell: bell.cloned(),
                sent: AtomicBool::new(false),
            },
        }
    }

    /// Deliver `response` (a dropped ticket just discards it), then
    /// ring.
    fn send(&self, response: Response) {
        let _ = self.tx.send(response);
        self.wake.sent.store(true, Ordering::Relaxed);
        if let Some(bell) = &self.wake.bell {
            bell.ring();
        }
    }
}

impl Drop for Wake {
    fn drop(&mut self) {
        if !*self.sent.get_mut() {
            if let Some(bell) = &self.bell {
                bell.ring();
            }
        }
    }
}

struct SessionState<S: Symbol> {
    queue: VecDeque<Slot<S>>,
    next_id: u64,
    draining: bool,
}

/// Queue + scheduling state shared between submitters and the
/// scheduler thread. Lifetime-free: requests and responses are owned
/// values.
pub(crate) struct SessionShared<S: Symbol> {
    state: OrderedMutex<SessionState<S>>,
    /// Signalled on new work and on drain, waking the scheduler.
    work: Condvar,
}

impl<S: Symbol> SessionShared<S> {
    pub(crate) fn new() -> SessionShared<S> {
        SessionShared {
            state: OrderedMutex::new(
                rank::SESSION_STATE,
                "session.state",
                SessionState {
                    queue: VecDeque::new(),
                    next_id: 0,
                    draining: false,
                },
            ),
            work: Condvar::new(),
        }
    }

    /// Enqueue `request` if the queue holds fewer than `depth`
    /// entries, handing back the ticket for its response; `bell` is
    /// rung when the ticket resolves.
    pub(crate) fn submit(
        &self,
        depth: usize,
        request: Request<S>,
        bell: Option<&Doorbell>,
    ) -> Result<Ticket, SearchError> {
        let mut state = self.state.lock();
        if state.draining {
            return Err(SearchError::Shutdown);
        }
        if state.queue.len() >= depth {
            return Err(SearchError::Overloaded { depth });
        }
        let id = RequestId(state.next_id);
        state.next_id += 1;
        let (tx, rx) = mpsc::channel();
        state.queue.push_back((id, request, Reply::new(tx, bell)));
        self.work.notify_all();
        Ok(Ticket::new(id, rx))
    }

    /// Enqueue a whole batch under **one** lock acquisition with
    /// all-or-nothing admission: either every request fits under
    /// `depth` and each gets a ticket, or nothing is enqueued and the
    /// caller gets one [`SearchError::Overloaded`]. Because the batch
    /// lands contiguously, the scheduler's chunking answers its
    /// queries as one parallel chunk (inserts still split it into
    /// barriers at the right positions).
    pub(crate) fn submit_batch(
        &self,
        depth: usize,
        requests: Vec<Request<S>>,
        bell: Option<&Doorbell>,
    ) -> Result<Vec<Ticket>, SearchError> {
        let mut state = self.state.lock();
        if state.draining {
            return Err(SearchError::Shutdown);
        }
        if state.queue.len() + requests.len() > depth {
            return Err(SearchError::Overloaded { depth });
        }
        let tickets: Vec<Ticket> = requests
            .into_iter()
            .map(|request| {
                let id = RequestId(state.next_id);
                state.next_id += 1;
                let (tx, rx) = mpsc::channel();
                state.queue.push_back((id, request, Reply::new(tx, bell)));
                Ticket::new(id, rx)
            })
            .collect();
        if !tickets.is_empty() {
            self.work.notify_all();
        }
        Ok(tickets)
    }

    /// Requests accepted but not yet picked up by the scheduler.
    pub(crate) fn pending(&self) -> usize {
        self.state.lock().queue.len()
    }

    /// Stop admission; the scheduler exits once the queue is drained.
    pub(crate) fn begin_drain(&self) {
        let mut state = self.state.lock();
        state.draining = true;
        self.work.notify_all();
    }
}

/// One scheduler step's worth of work, popped from the queue front.
enum Chunk<S: Symbol> {
    /// A maximal run of consecutive queries (answered in parallel).
    Queries(Vec<Slot<S>>),
    /// A single insert or delete (a barrier).
    Barrier(Slot<S>),
}

/// Is this request a scheduling barrier (mutates the index)?
fn is_barrier<S: Symbol>(request: &Request<S>) -> bool {
    matches!(request, Request::Insert { .. } | Request::Delete { .. })
}

/// Answer one query request against the index's current state.
///
/// Failures are part of the protocol: a request that cannot be
/// answered (e.g. a NaN radius) produces a [`ResponseBody::Failed`]
/// carrying the typed [`SearchError`], instead of poisoning its
/// neighbours. Queries against an *empty* index keep their legacy
/// shape (`Nn { neighbour: None, .. }` / empty neighbour lists),
/// because an empty index is a normal serving state between start-up
/// and the first insert.
fn answer<S: Symbol, I: MetricIndex<S> + ?Sized>(
    index: &I,
    request: &Request<S>,
    dist: &dyn Distance<S>,
) -> ResponseBody {
    match request {
        Request::Nn { query } => match index.nn(query, dist, &QueryOptions::new()) {
            Ok((neighbour, stats)) => ResponseBody::Nn { neighbour, stats },
            // An empty index is a normal serving state, not a request
            // defect.
            Err(SearchError::EmptyDatabase) => ResponseBody::Nn {
                neighbour: None,
                stats: SearchStats::default(),
            },
            Err(error) => ResponseBody::Failed { error },
        },
        Request::Knn { query, k } => match index.knn(query, dist, &QueryOptions::new().k(*k)) {
            Ok((neighbours, stats)) => ResponseBody::Knn { neighbours, stats },
            Err(SearchError::EmptyDatabase) => ResponseBody::Knn {
                neighbours: Vec::new(),
                stats: SearchStats::default(),
            },
            Err(error) => ResponseBody::Failed { error },
        },
        Request::Range { query, radius } => {
            let opts = QueryOptions::new().radius(*radius);
            // Validate the request itself before the empty-index
            // mapping: a malformed radius must answer Failed even
            // while the index is empty, or clients would see
            // state-dependent error reporting.
            if let Err(error) = opts.checked_radius() {
                return ResponseBody::Failed { error };
            }
            match index.range(query, dist, &opts) {
                Ok((neighbours, stats)) => ResponseBody::Range { neighbours, stats },
                Err(SearchError::EmptyDatabase) => ResponseBody::Range {
                    neighbours: Vec::new(),
                    stats: SearchStats::default(),
                },
                Err(error) => ResponseBody::Failed { error },
            }
        }
        Request::Insert { .. } | Request::Delete { .. } => {
            unreachable!("inserts/deletes are barriers, never batched")
        }
    }
}

/// The scheduler: runs until [`SessionShared::begin_drain`] *and* an
/// empty queue, answering every accepted request along the way.
///
/// A session runs this on a dedicated thread holding the index.
pub(crate) fn scheduler_loop<S: Symbol, I: MetricIndex<S> + ?Sized>(
    shared: &SessionShared<S>,
    index: &mut I,
    dist: &dyn Distance<S>,
) {
    loop {
        // Pop the next chunk (or exit once draining with an empty
        // queue). The lock is held only while popping: answering runs
        // lock-free so submissions keep landing during a long chunk.
        let chunk: Chunk<S> = {
            let mut state = shared.state.lock();
            loop {
                if !state.queue.is_empty() {
                    let front_is_barrier = state
                        .queue
                        .front()
                        .is_some_and(|(_, request, _)| is_barrier(request));
                    if front_is_barrier {
                        let slot = state.queue.pop_front().expect("front checked non-empty");
                        break Chunk::Barrier(slot);
                    }
                    let mut batch = Vec::new();
                    while let Some(front) = state.queue.front() {
                        if is_barrier(&front.1) {
                            break;
                        }
                        batch.push(state.queue.pop_front().expect("front checked non-empty"));
                    }
                    break Chunk::Queries(batch);
                }
                if state.draining {
                    return;
                }
                state = state.wait(&shared.work);
            }
        };
        match chunk {
            Chunk::Barrier((id, request, reply)) => {
                let body = match request {
                    Request::Insert { item } => match index.as_insertable() {
                        // A durable index reports a failed WAL commit
                        // as a typed error in the insert's own
                        // response slot; the item was not accepted and
                        // later requests are unaffected.
                        Some(idx) => match idx.insert(item, dist) {
                            Ok(index) => ResponseBody::Inserted { index },
                            Err(error) => ResponseBody::Failed { error },
                        },
                        None => ResponseBody::Failed {
                            error: SearchError::UnsupportedConfig {
                                reason: "this backend does not support incremental inserts",
                            },
                        },
                    },
                    Request::Delete { index: target } => match index.delete(target) {
                        Ok(existed) => ResponseBody::Deleted { existed },
                        Err(error) => ResponseBody::Failed { error },
                    },
                    _ => unreachable!("Chunk::Barrier holds an insert or delete"),
                };
                reply.send(Response { id, body });
            }
            Chunk::Queries(batch) => {
                let index: &I = index;
                let workers = workers_for(batch.len());
                if workers <= 1 {
                    for (id, request, reply) in &batch {
                        let body = answer(index, request, dist);
                        reply.send(Response { id: *id, body });
                    }
                } else {
                    // Workers pull whole queries from a shared cursor
                    // (dynamic load balancing) and deliver each
                    // response the moment it completes.
                    let cursor = AtomicUsize::new(0);
                    std::thread::scope(|scope| {
                        for _ in 0..workers {
                            let cursor = &cursor;
                            let batch = &batch;
                            scope.spawn(move || loop {
                                let t = cursor.fetch_add(1, Ordering::Relaxed);
                                let Some((id, request, reply)) = batch.get(t) else {
                                    break;
                                };
                                let body = answer(index, request, dist);
                                reply.send(Response { id: *id, body });
                            });
                        }
                    });
                }
            }
        }
    }
}

/// A non-blocking serving handle: an index owned by a scheduler
/// thread, driven through submit/ticket. See the module docs for the
/// scheduling model.
///
/// `submit` takes `&self`, so one session can be shared (e.g. behind
/// an [`Arc`]) by many threads or connection handlers; the scheduler
/// serialises effects in submission order.
///
/// ```
/// use cned_core::levenshtein::Levenshtein;
/// use cned_search::LinearIndex;
/// use cned_serve::{Request, ResponseBody, ServeSession};
/// use std::sync::Arc;
///
/// let index = LinearIndex::new(vec![b"casa".to_vec(), b"cosa".to_vec()]);
/// let session = ServeSession::spawn(index, Arc::new(Levenshtein));
/// let ticket = session
///     .submit(Request::Nn { query: b"cesa".to_vec() })
///     .unwrap();
/// let response = ticket.wait();
/// assert!(matches!(response.body, ResponseBody::Nn { .. }));
/// let index = session.shutdown(); // drains, hands the index back
/// assert_eq!(cned_search::MetricIndex::len(&index), 2);
/// ```
pub struct ServeSession<S: Symbol + 'static, I: MetricIndex<S> + 'static = ShardedIndex<S>> {
    shared: Arc<SessionShared<S>>,
    depth: usize,
    scheduler: Option<JoinHandle<I>>,
}

impl<S: Symbol + 'static, I: MetricIndex<S> + 'static> ServeSession<S, I> {
    /// Spawn a session over `index`, answering every query through
    /// `dist`, with default [`SessionConfig`].
    ///
    /// `dist` **must** be the distance the index was built with (the
    /// same contract as every [`MetricIndex`] call); the
    /// `cned::Database` facade pairs the two automatically.
    pub fn spawn(index: I, dist: Arc<dyn Distance<S>>) -> ServeSession<S, I> {
        ServeSession::spawn_with(index, dist, SessionConfig::default())
    }

    /// [`ServeSession::spawn`] with explicit knobs.
    pub fn spawn_with(
        index: I,
        dist: Arc<dyn Distance<S>>,
        config: SessionConfig,
    ) -> ServeSession<S, I> {
        let shared = Arc::new(SessionShared::new());
        let scheduler = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("cned-serve-session".into())
                .spawn(move || {
                    let mut index = index;
                    scheduler_loop(&shared, &mut index, &*dist);
                    index
                })
                .expect("spawning the session scheduler thread")
        };
        ServeSession {
            shared,
            depth: config.queue_depth,
            scheduler: Some(scheduler),
        }
    }

    /// Enqueue a request, returning the [`Ticket`] for its response.
    ///
    /// Non-blocking: refuses with [`SearchError::Overloaded`] when the
    /// admission queue is at [`SessionConfig::queue_depth`], and with
    /// [`SearchError::Shutdown`] once [`ServeSession::shutdown`] has
    /// begun.
    pub fn submit(&self, request: Request<S>) -> Result<Ticket, SearchError> {
        self.shared.submit(self.depth, request, None)
    }

    /// [`ServeSession::submit`] for an event loop: `bell` rings when
    /// the ticket resolves.
    pub(crate) fn submit_ringing(
        &self,
        request: Request<S>,
        bell: &Doorbell,
    ) -> Result<Ticket, SearchError> {
        self.shared.submit(self.depth, request, Some(bell))
    }

    /// Enqueue a whole batch of requests in one admission decision:
    /// one lock acquisition, all-or-nothing against the queue depth
    /// (either every request is accepted and gets its [`Ticket`], or
    /// nothing is enqueued and the call refuses with
    /// [`SearchError::Overloaded`]). The batch lands contiguously, so
    /// the scheduler answers its queries as one parallel chunk — this
    /// is the entry point wire-level batch frames coalesce into.
    pub fn submit_batch(&self, requests: Vec<Request<S>>) -> Result<Vec<Ticket>, SearchError> {
        self.shared.submit_batch(self.depth, requests, None)
    }

    /// [`ServeSession::submit_batch`] for an event loop: `bell` rings
    /// as each ticket resolves.
    pub(crate) fn submit_batch_ringing(
        &self,
        requests: Vec<Request<S>>,
        bell: &Doorbell,
    ) -> Result<Vec<Ticket>, SearchError> {
        self.shared.submit_batch(self.depth, requests, Some(bell))
    }

    /// Requests accepted but not yet picked up by the scheduler.
    pub fn pending(&self) -> usize {
        self.shared.pending()
    }

    /// The configured admission depth.
    pub fn queue_depth(&self) -> usize {
        self.depth
    }

    /// A cloneable `'static` submit handle onto this session, for
    /// threads that outlive any one borrow of the session (e.g. a
    /// replica's log-applier thread). Submissions through a handle
    /// refuse with [`SearchError::Shutdown`] once the session drains —
    /// a handle never keeps the scheduler alive.
    pub fn handle(&self) -> SessionHandle<S> {
        SessionHandle {
            shared: Arc::clone(&self.shared),
            depth: self.depth,
        }
    }

    /// Graceful shutdown: stop admission, drain every accepted
    /// request (all outstanding tickets receive their responses), and
    /// hand the index back.
    pub fn shutdown(mut self) -> I {
        self.shared.begin_drain();
        self.scheduler
            .take()
            .expect("scheduler present until shutdown")
            .join()
            .expect("session scheduler panicked")
    }
}

/// A detached submit handle created by [`ServeSession::handle`].
/// Shares the session's admission queue and depth; does not own the
/// scheduler.
pub struct SessionHandle<S: Symbol + 'static> {
    shared: Arc<SessionShared<S>>,
    depth: usize,
}

impl<S: Symbol + 'static> Clone for SessionHandle<S> {
    fn clone(&self) -> SessionHandle<S> {
        SessionHandle {
            shared: Arc::clone(&self.shared),
            depth: self.depth,
        }
    }
}

impl<S: Symbol + 'static> SessionHandle<S> {
    /// [`ServeSession::submit`] through the handle.
    pub fn submit(&self, request: Request<S>) -> Result<Ticket, SearchError> {
        self.shared.submit(self.depth, request, None)
    }

    /// [`ServeSession::submit_batch`] through the handle.
    pub fn submit_batch(&self, requests: Vec<Request<S>>) -> Result<Vec<Ticket>, SearchError> {
        self.shared.submit_batch(self.depth, requests, None)
    }

    /// Requests accepted but not yet picked up by the scheduler.
    pub fn pending(&self) -> usize {
        self.shared.pending()
    }
}

impl<S: Symbol + 'static, I: MetricIndex<S> + 'static> Drop for ServeSession<S, I> {
    fn drop(&mut self) {
        if let Some(handle) = self.scheduler.take() {
            self.shared.begin_drain();
            // Dropping without `shutdown()` still drains accepted
            // tickets; the index is discarded with the session.
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_unsent_reply_rings_its_bell_and_fails_the_ticket() {
        let bell = Doorbell::new().unwrap();
        let (tx, rx) = mpsc::channel();
        let ticket = Ticket::new(RequestId(7), rx);
        let reply = Reply::new(tx, Some(&bell));
        assert_eq!(ticket.try_recv(), None);

        let mut polls = crate::poll::PollSet::new();
        let slot = polls.push_bell(&bell);
        #[cfg(unix)]
        assert_eq!(
            polls.wait(Some(std::time::Duration::ZERO)).unwrap(),
            0,
            "no ring before the reply goes"
        );

        drop(reply);
        polls
            .wait(Some(std::time::Duration::from_secs(10)))
            .unwrap();
        assert!(polls.readable(slot), "dropping an unsent reply rings");
        assert_eq!(
            ticket.try_recv(),
            Some(Response {
                id: RequestId(7),
                body: ResponseBody::Failed {
                    error: SearchError::Shutdown
                },
            })
        );
    }

    #[test]
    fn a_sent_reply_rings_once_and_delivers() {
        let bell = Doorbell::new().unwrap();
        let (tx, rx) = mpsc::channel();
        let ticket = Ticket::new(RequestId(3), rx);
        let reply = Reply::new(tx, Some(&bell));
        let mut polls = crate::poll::PollSet::new();
        let slot = polls.push_bell(&bell);

        reply.send(Response {
            id: RequestId(3),
            body: ResponseBody::Deleted { existed: true },
        });
        polls
            .wait(Some(std::time::Duration::from_secs(10)))
            .unwrap();
        assert!(polls.readable(slot));
        bell.clear();
        drop(reply);
        #[cfg(unix)]
        assert_eq!(
            polls.wait(Some(std::time::Duration::ZERO)).unwrap(),
            0,
            "a delivered reply does not ring again when dropped"
        );
        assert_eq!(
            ticket.try_recv().map(|r| r.body),
            Some(ResponseBody::Deleted { existed: true })
        );
    }
}
