//! [`Server`] — an event-loop TCP front-end over one shared
//! [`ServeSession`].
//!
//! A thread-per-connection server would spend **two OS threads per
//! connection** (reader + writer), which caps concurrent connections
//! far below the serving goal. This server runs a **fixed pool** of
//! event-loop threads ([`ServerConfig::event_loop_threads`], plus one
//! accept thread and the session's scheduler), each driving many
//! non-blocking `std::net` sockets in sweeps: a sweep reads the bytes
//! of every socket the last wait reported readable (partial frames
//! pend in a per-connection [`FrameBuffer`]), polls in-flight
//! tickets, and pushes completed responses through a per-connection
//! outbox with **one buffered write per sweep** — pipelined responses
//! coalesce into a single `write(2)` instead of one flushed syscall
//! per frame.
//!
//! ## Waiting
//!
//! Between sweeps the loop waits in `poll(2)` (there is no tokio/mio
//! in the offline build; the crate's `poll` module is a one-call FFI
//! wrapper). It watches every socket it may read (POLLIN) or still
//! owes bytes (POLLOUT), plus the loop's own [`Doorbell`] for the work
//! no socket announces:
//!
//! * the session rings it when it answers (or drops) a ticket the loop
//!   submitted;
//! * the accept thread rings it after routing a new connection;
//! * a [`ReplicaHub`] rings it after publishing a write to a replica
//!   subscription the loop holds;
//! * [`Server::shutdown`] rings it to start the drain.
//!
//! After a sweep that moved something the wait has a zero timeout and
//! only refreshes which sockets are ready. After a sweep that moved
//! nothing it sleeps until a socket or the bell needs the loop, or
//! until the earliest idle-reap deadline: an idle server uses no CPU,
//! and a request is picked up as soon as its bytes or its answer
//! exist. The accept thread likewise waits on the listener plus a stop
//! bell. On non-unix targets a wait is a 500 µs sleep instead, after
//! which every socket counts as ready, and the bells do nothing.
//!
//! Every connection speaks the [`crate::wire`] protocol. All
//! connections submit into a **single** session, so the whole server
//! shares one admission queue (one backpressure knob) and one
//! scheduler with insert-barrier semantics across clients — an insert
//! from any connection is observed by every later query, exactly like
//! interleaved calls against the in-process index.
//!
//! ## Batching
//!
//! A [`crate::wire::kind::REQ_BATCH`] frame carries many requests
//! under one id; the server coalesces it into **one**
//! [`ServeSession::submit_batch`] call (one lock acquisition,
//! all-or-nothing admission), so the scheduler answers the whole
//! batch as one parallel query chunk, and the answer travels back as
//! one [`crate::wire::kind::RESP_BATCH`] frame. This is the shape the
//! compute layer is fastest at — lane-parallel distance kernels and
//! LAESA elimination amortise across a batch — and the wire layer now
//! hands it batches end to end.
//!
//! ## Backpressure, caps, deadlines
//!
//! * **Admission** is bounded by the shared session
//!   ([`SessionConfig::queue_depth`]): an overloaded server answers
//!   `Failed { Overloaded }` *as a response* and keeps the connection
//!   alive — unchanged from PR 5.
//! * **Per-connection outbox** is bounded
//!   ([`ServerConfig::outbox_depth`]): past that many unanswered
//!   frames, the event loop stops reading from the socket, so TCP
//!   flow control pushes back on a client that submits faster than it
//!   collects.
//! * **Connection cap** ([`ServerConfig::max_connections`]): a
//!   connection past the cap is answered **in-band** with a typed
//!   `Failed { Overloaded }` frame tagged [`wire::CONTROL_ID`], then
//!   closed — clients surface it as a typed error, not a mystery
//!   disconnect.
//! * **Idle timeout** ([`ServerConfig::idle_timeout`]): a connection
//!   with nothing in flight and no traffic for this long is closed,
//!   so abandoned sockets cannot pin the server's connection budget.
//!
//! A *protocol* error (garbage frame, wrong version, oversized
//! length) still closes the connection after draining the accepted
//! tickets: the stream can no longer be trusted.
//!
//! ## Shutdown
//!
//! [`Server::shutdown`] stops accepting, tells every event loop to
//! stop reading, **drains** every accepted request (tickets resolve,
//! responses are written out), joins the pool, then gracefully drains
//! the session — every accepted request is answered before the index
//! is handed back. Bytes a client had written but the server had not
//! yet read are not "accepted" — exactly the PR 5 boundary.

use crate::poll::{Doorbell, PollSet};
use crate::session::{
    Request, RequestId, Response, ResponseBody, ServeSession, SessionConfig, Ticket,
};
use crate::wire::{self, FrameBuffer, WireRequest, WireSymbol};
use cned_core::metric::Distance;
use cned_search::{MetricIndex, SearchError};
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The server side of the replica catch-up protocol, implemented by
/// the persistence layer (`cned-store`) and consumed by the event
/// loop. The trait keeps `cned-serve` ignorant of on-disk formats:
/// the hub serves the catch-up payload from its own durable state —
/// never from the live index, which belongs to the scheduler thread.
///
/// ## Required ordering
///
/// The event loop calls [`ReplicaHub::subscribe`] **before**
/// [`ReplicaHub::sync_payload`]. Implementations must publish each
/// accepted write to existing subscribers only *after* it is visible
/// to `sync_payload` (i.e. after the durable write). Together those
/// two rules make the handoff gap-free: a write committed around
/// registration time appears in the payload, in the stream, or in
/// both — never in neither — and replicas dedupe the overlap (by
/// sequence number for inserts; deletes are idempotent). After
/// queueing an op, implementations ring the subscriber's bell, or the
/// op waits for the loop's next unrelated wake.
pub trait ReplicaHub<S: WireSymbol>: Send + Sync {
    /// The catch-up payload for a replica that already holds `have`
    /// items, as `(mode, bytes)` chunks ([`wire::SYNC_SNAPSHOT`] /
    /// [`wire::SYNC_ITEMS`]), each small enough to frame.
    fn sync_payload(&self, have: u64) -> Result<Vec<(u8, Vec<u8>)>, SearchError>;

    /// Register a live-stream subscriber; every subsequently accepted
    /// insert or delete arrives as one [`ReplOp`], and `bell` rings
    /// after each one is queued.
    fn subscribe(&self, bell: Doorbell) -> mpsc::Receiver<ReplOp<S>>;
}

/// One accepted write streamed from a primary's [`ReplicaHub`] to its
/// registered replicas, in commit order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplOp<S> {
    /// An accepted insert: the item and its global index (`seq`).
    Insert {
        /// The item's global index on the primary.
        seq: u64,
        /// The item itself.
        item: Vec<S>,
    },
    /// An accepted delete: the tombstoned item's global index.
    Delete {
        /// The tombstoned item's global index on the primary.
        index: u64,
    },
}

/// Knobs of a [`Server`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerConfig {
    /// Session knobs (admission depth) of the shared serving session.
    pub session: SessionConfig,
    /// Size of the fixed event-loop pool driving all connections
    /// (clamped to at least 1). The server's total thread count is
    /// `event_loop_threads + 1` (accept) `+ 1` (session scheduler) —
    /// independent of the number of connections.
    pub event_loop_threads: usize,
    /// Connection cap: an accepted connection past this limit is
    /// answered with an in-band `Failed { Overloaded }` control frame
    /// ([`wire::CONTROL_ID`]) and closed.
    pub max_connections: usize,
    /// Close a connection with no in-flight work and no traffic for
    /// this long.
    pub idle_timeout: Duration,
    /// Per-connection backpressure: with this many frames submitted
    /// but not yet answered-and-queued-for-write, the event loop
    /// stops reading from the socket until the peer collects.
    pub outbox_depth: usize,
    /// Durable-state directory. `None` (the default) serves purely
    /// from memory, exactly as before. `Some(dir)` makes the facade
    /// layer (`cned::Database::serve_with`) recover snapshot + WAL
    /// from `dir` on boot, wrap the index durably, and take threshold
    /// snapshots — `cned-serve` itself only transports the knob.
    pub data_dir: Option<PathBuf>,
    /// With a data dir: take a fresh snapshot (and truncate the WAL)
    /// once this many inserts accumulate in the log.
    pub snapshot_every: u64,
    /// Reject network `REQ_INSERT` frames with a typed error — the
    /// stance of a replica, whose writes arrive only through the
    /// primary's stream (applied in-process, which this knob does not
    /// gate).
    pub read_only: bool,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            session: SessionConfig::default(),
            event_loop_threads: 2,
            max_connections: 1024,
            idle_timeout: Duration::from_secs(60),
            outbox_depth: 64,
            data_dir: None,
            snapshot_every: 1024,
            read_only: false,
        }
    }
}

impl ServerConfig {
    /// Default knobs.
    pub fn new() -> ServerConfig {
        ServerConfig::default()
    }

    /// Set the shared session's knobs.
    pub fn session(mut self, session: SessionConfig) -> ServerConfig {
        self.session = session;
        self
    }

    /// Set the event-loop pool size.
    pub fn event_loop_threads(mut self, threads: usize) -> ServerConfig {
        self.event_loop_threads = threads;
        self
    }

    /// Set the connection cap.
    pub fn max_connections(mut self, cap: usize) -> ServerConfig {
        self.max_connections = cap;
        self
    }

    /// Set the idle timeout.
    pub fn idle_timeout(mut self, timeout: Duration) -> ServerConfig {
        self.idle_timeout = timeout;
        self
    }

    /// Set the per-connection unanswered-frame bound.
    pub fn outbox_depth(mut self, depth: usize) -> ServerConfig {
        self.outbox_depth = depth;
        self
    }

    /// Serve durably out of `dir` (snapshot + insert WAL; see
    /// [`ServerConfig::data_dir`]).
    pub fn data_dir(mut self, dir: impl Into<PathBuf>) -> ServerConfig {
        self.data_dir = Some(dir.into());
        self
    }

    /// Set the WAL length that triggers a fresh snapshot.
    pub fn snapshot_every(mut self, inserts: u64) -> ServerConfig {
        self.snapshot_every = inserts;
        self
    }

    /// Reject network inserts with a typed error (replica stance).
    pub fn read_only(mut self, read_only: bool) -> ServerConfig {
        self.read_only = read_only;
        self
    }
}

/// A running TCP serving front-end; dropping it (or calling
/// [`Server::shutdown`]) stops accepting and drains in-flight work.
pub struct Server<S: WireSymbol + 'static, I: MetricIndex<S> + 'static> {
    addr: SocketAddr,
    /// `Some` until shutdown; `Option` so [`Server::shutdown`] can
    /// move the last strong reference out past the `Drop` impl.
    session: Option<Arc<ServeSession<S, I>>>,
    stop: Arc<AtomicBool>,
    /// Wakes the accept thread out of its wait on the listener.
    accept_bell: Doorbell,
    accept_thread: Option<JoinHandle<()>>,
    /// One per event loop, in `loop_threads` order.
    loop_bells: Vec<Doorbell>,
    loop_threads: Vec<JoinHandle<()>>,
}

impl<S: WireSymbol + 'static, I: MetricIndex<S> + 'static> Server<S, I> {
    /// Bind `addr` (use port 0 for an ephemeral port — read the
    /// actual one back with [`Server::local_addr`]) and serve `index`
    /// through `dist` with default knobs.
    pub fn bind(
        addr: impl ToSocketAddrs,
        index: I,
        dist: Arc<dyn Distance<S>>,
    ) -> std::io::Result<Server<S, I>> {
        Server::bind_with(addr, index, dist, ServerConfig::default())
    }

    /// [`Server::bind`] with explicit knobs.
    pub fn bind_with(
        addr: impl ToSocketAddrs,
        index: I,
        dist: Arc<dyn Distance<S>>,
        config: ServerConfig,
    ) -> std::io::Result<Server<S, I>> {
        Server::bind_replicated(addr, index, dist, config, None)
    }

    /// [`Server::bind_with`] plus a [`ReplicaHub`]: replicas may
    /// register with [`wire::kind::REQ_SYNC`] and receive the
    /// catch-up payload + live insert stream over their connection.
    /// Without a hub, `REQ_SYNC` is answered with a typed
    /// `Failed { UnsupportedConfig }` response.
    pub fn bind_replicated(
        addr: impl ToSocketAddrs,
        index: I,
        dist: Arc<dyn Distance<S>>,
        config: ServerConfig,
        hub: Option<Arc<dyn ReplicaHub<S>>>,
    ) -> std::io::Result<Server<S, I>> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        // Non-blocking accept: the accept thread waits for readiness
        // itself, alongside its stop bell.
        listener.set_nonblocking(true)?;
        let session = Arc::new(ServeSession::spawn_with(index, dist, config.session));
        let stop = Arc::new(AtomicBool::new(false));
        let conn_count = Arc::new(AtomicUsize::new(0));

        let pool = config.event_loop_threads.max(1);
        let mut senders: Vec<mpsc::Sender<TcpStream>> = Vec::with_capacity(pool);
        let mut loop_bells: Vec<Doorbell> = Vec::with_capacity(pool);
        let mut loop_threads: Vec<JoinHandle<()>> = Vec::with_capacity(pool);
        for i in 0..pool {
            let (tx, rx) = mpsc::channel::<TcpStream>();
            senders.push(tx);
            let bell = Doorbell::new()?;
            loop_bells.push(bell.clone());
            let session = Arc::clone(&session);
            let stop = Arc::clone(&stop);
            let conn_count = Arc::clone(&conn_count);
            let config = config.clone();
            let hub = hub.clone();
            loop_threads.push(
                std::thread::Builder::new()
                    .name(format!("cned-serve-loop-{i}"))
                    .spawn(move || event_loop(rx, &session, &stop, &conn_count, config, hub, bell))
                    .expect("spawning an event-loop thread"),
            );
        }

        let accept_bell = Doorbell::new()?;
        let accept_thread = {
            let stop = Arc::clone(&stop);
            let stop_bell = accept_bell.clone();
            let routes: Vec<_> = senders.into_iter().zip(loop_bells.clone()).collect();
            let max_connections = config.max_connections.max(1);
            std::thread::Builder::new()
                .name("cned-serve-accept".into())
                .spawn(move || {
                    let mut polls = PollSet::new();
                    let mut next = 0usize;
                    while !stop.load(Ordering::Acquire) {
                        match listener.accept() {
                            Ok((stream, _peer)) => {
                                if conn_count.load(Ordering::Acquire) >= max_connections {
                                    reject_connection(stream, max_connections);
                                    continue;
                                }
                                conn_count.fetch_add(1, Ordering::AcqRel);
                                let _ = stream.set_nodelay(true);
                                if stream.set_nonblocking(true).is_err() {
                                    conn_count.fetch_sub(1, Ordering::AcqRel);
                                    continue;
                                }
                                // Round-robin across the pool; a loop
                                // only disappears at shutdown.
                                let (sender, bell) = &routes[next % routes.len()];
                                if sender.send(stream).is_err() {
                                    break;
                                }
                                bell.ring();
                                next += 1;
                            }
                            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                                // The stop bell is never cleared: once
                                // rung, the next check exits.
                                polls.clear();
                                polls.push(&listener, true, false);
                                polls.push_bell(&stop_bell);
                                let _ = polls.wait(None);
                            }
                            // Transient accept errors (aborted
                            // handshakes, EMFILE) should not kill the
                            // server. Back off instead of waiting: a
                            // listener out of file descriptors stays
                            // readable, so a wait would spin.
                            Err(_) => std::thread::sleep(Duration::from_millis(2)),
                        }
                    }
                })
                .expect("spawning the accept thread")
        };

        Ok(Server {
            addr,
            session: Some(session),
            stop,
            accept_bell,
            accept_thread: Some(accept_thread),
            loop_bells,
            loop_threads,
        })
    }

    /// The bound address (with the real port when bound to port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared session (e.g. to co-serve in-process submissions
    /// next to network clients).
    pub fn session(&self) -> &ServeSession<S, I> {
        self.session
            .as_ref()
            .expect("session present until shutdown")
    }

    /// Stop accepting, drain every connection and the session, and
    /// hand the index back.
    pub fn shutdown(mut self) -> I {
        self.stop_threads();
        let session = self.session.take().expect("session present until shutdown");
        let session = Arc::try_unwrap(session)
            .unwrap_or_else(|_| unreachable!("all session clones joined before unwrap"));
        session.shutdown()
    }

    fn stop_threads(&mut self) {
        self.stop.store(true, Ordering::Release);
        self.accept_bell.ring();
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
        for bell in &self.loop_bells {
            bell.ring();
        }
        for handle in self.loop_threads.drain(..) {
            let _ = handle.join();
        }
    }
}

impl<S: WireSymbol + 'static, I: MetricIndex<S> + 'static> Drop for Server<S, I> {
    fn drop(&mut self) {
        if self.accept_thread.is_some() || !self.loop_threads.is_empty() {
            self.stop_threads();
        }
        // The session Arc drops here; its own Drop drains accepted
        // work.
    }
}

/// Answer a connection past the cap with a typed in-band rejection
/// frame ([`wire::CONTROL_ID`] + `Failed { Overloaded }`), then close.
/// Bounded blocking write so a wedged peer cannot stall accepting.
fn reject_connection(stream: TcpStream, cap: usize) {
    let mut stream = stream;
    let _ = stream.set_nodelay(true);
    let _ = stream.set_write_timeout(Some(Duration::from_millis(250)));
    let mut payload = Vec::new();
    wire::encode_response(
        &Response {
            id: RequestId(wire::CONTROL_ID),
            body: ResponseBody::Failed {
                error: SearchError::Overloaded { depth: cap },
            },
        },
        &mut payload,
    );
    let _ = wire::write_frame(&mut stream, &payload);
    let _ = stream.shutdown(std::net::Shutdown::Both);
}

/// One submitted frame awaiting its answer slot(s).
enum SlotState {
    /// Accepted by the session; the ticket resolves to the body.
    Waiting(Ticket),
    /// Resolved (or known immediately, e.g. admission failure).
    Done(ResponseBody),
}

impl SlotState {
    /// Poll a waiting ticket; `true` once the body is in hand.
    fn poll(&mut self) -> bool {
        if let SlotState::Waiting(ticket) = self {
            match ticket.try_recv() {
                Some(response) => *self = SlotState::Done(response.body),
                None => return false,
            }
        }
        true
    }

    fn into_body(self) -> ResponseBody {
        match self {
            SlotState::Done(body) => body,
            SlotState::Waiting(_) => unreachable!("polled complete before encoding"),
        }
    }
}

/// In-flight work for one connection, in submission order (responses
/// are written back in this order; correlation stays by id).
enum Pending {
    /// A single-request frame.
    One { id: RequestId, slot: SlotState },
    /// A batch frame: one RESP_BATCH frame once every slot resolves.
    Batch {
        id: RequestId,
        slots: Vec<SlotState>,
    },
}

impl Pending {
    fn poll(&mut self) -> bool {
        match self {
            Pending::One { slot, .. } => slot.poll(),
            Pending::Batch { slots, .. } => {
                // Poll every slot (not just the first unresolved one)
                // so out-of-order completions are banked immediately.
                let mut all = true;
                for slot in slots.iter_mut() {
                    all &= slot.poll();
                }
                all
            }
        }
    }
}

/// A connection's live replica subscription (created by a
/// [`wire::kind::REQ_SYNC`] frame): accepted writes drain from the
/// hub's channel into [`wire::kind::RESP_REPL_INSERT`] /
/// [`wire::kind::RESP_REPL_DELETE`] frames each sweep.
struct ReplState<S: WireSymbol> {
    /// The sync request's id; every streamed frame echoes it.
    id: RequestId,
    rx: mpsc::Receiver<ReplOp<S>>,
}

/// Streaming backpressure: stop encoding replica frames into a
/// connection's outbox past this many unwritten bytes; the rest stay
/// queued in the hub channel until the socket drains.
const REPL_OUTBOX_BYTES: usize = 4 * 1024 * 1024;

/// One connection owned by an event loop.
struct Conn<S: WireSymbol> {
    stream: TcpStream,
    frames: FrameBuffer,
    inflight: VecDeque<Pending>,
    /// Encoded-but-unwritten response bytes; `sent` is the prefix
    /// already pushed into the socket.
    outbox: Vec<u8>,
    sent: usize,
    last_activity: Instant,
    /// Cleared on peer EOF, protocol error, or server shutdown: stop
    /// reading, drain what was accepted, then close.
    reading: bool,
    /// Unrecoverable (write error) or fully drained: remove.
    dead: bool,
    /// `Some` once the peer registered as a replica.
    repl: Option<ReplState<S>>,
    /// Whether a read may find bytes: cleared once the socket has been
    /// drained, set again when a wait reports it readable, so a sweep
    /// spends no syscall on a quiet socket.
    readable: bool,
    /// This connection's slot in the loop's poll set, if watched.
    slot: Option<usize>,
}

impl<S: WireSymbol> Conn<S> {
    fn new(stream: TcpStream) -> Conn<S> {
        Conn {
            stream,
            frames: FrameBuffer::new(),
            inflight: VecDeque::new(),
            outbox: Vec::new(),
            sent: 0,
            last_activity: Instant::now(),
            reading: true,
            dead: false,
            repl: None,
            readable: true,
            slot: None,
        }
    }

    /// Handle a replica registration: subscribe to the live stream
    /// *first*, then read the catch-up payload from durable state
    /// (the order that makes the handoff gap-free; see [`ReplicaHub`])
    /// and queue it as [`wire::kind::RESP_SYNC`] frames.
    fn register_replica(
        &mut self,
        id: RequestId,
        have: u64,
        hub: Option<&Arc<dyn ReplicaHub<S>>>,
        bell: &Doorbell,
        payload: &mut Vec<u8>,
    ) {
        let Some(hub) = hub else {
            self.inflight.push_back(Pending::One {
                id,
                slot: SlotState::Done(ResponseBody::Failed {
                    error: SearchError::UnsupportedConfig {
                        reason: "this server was not started with replication support",
                    },
                }),
            });
            return;
        };
        let rx = hub.subscribe(bell.clone());
        match hub.sync_payload(have) {
            Ok(chunks) => {
                let last = chunks.len().saturating_sub(1);
                if chunks.is_empty() {
                    // Nothing to catch up: an empty terminal chunk
                    // still tells the replica the payload is over.
                    wire::encode_sync_chunk(id, wire::SYNC_ITEMS, true, &[], payload);
                    let _ = wire::write_frame_unflushed(&mut self.outbox, payload);
                }
                for (i, (mode, chunk)) in chunks.iter().enumerate() {
                    wire::encode_sync_chunk(id, *mode, i == last, chunk, payload);
                    if wire::write_frame_unflushed(&mut self.outbox, payload).is_err() {
                        // A hub chunk must fit a frame; a violation is
                        // a server-side bug, answered typed.
                        self.reading = false;
                        return;
                    }
                }
                self.repl = Some(ReplState { id, rx });
            }
            Err(error) => {
                self.inflight.push_back(Pending::One {
                    id,
                    slot: SlotState::Done(ResponseBody::Failed { error }),
                });
            }
        }
    }

    /// Drain the live write stream (if this connection is a
    /// registered replica) into the outbox, bounded by
    /// [`REPL_OUTBOX_BYTES`]. Returns whether anything was queued.
    fn repl_sweep(&mut self, payload: &mut Vec<u8>) -> bool {
        let Some(repl) = &self.repl else {
            return false;
        };
        let mut moved = false;
        while self.outbox.len() - self.sent < REPL_OUTBOX_BYTES {
            match repl.rx.try_recv() {
                Ok(op) => {
                    match op {
                        ReplOp::Insert { seq, item } => {
                            wire::encode_repl_insert(repl.id, seq, &item, payload)
                        }
                        ReplOp::Delete { index } => {
                            wire::encode_repl_delete(repl.id, index, payload)
                        }
                    }
                    if wire::write_frame_unflushed(&mut self.outbox, payload).is_err() {
                        self.reading = false;
                        break;
                    }
                    moved = true;
                }
                Err(_) => break,
            }
        }
        moved
    }

    /// Pop and submit every complete frame in the reassembly buffer,
    /// up to the backpressure bound; `false` on a protocol error.
    fn drain_frames<I: MetricIndex<S>>(
        &mut self,
        session: &ServeSession<S, I>,
        config: &ServerConfig,
        hub: Option<&Arc<dyn ReplicaHub<S>>>,
        bell: &Doorbell,
        payload: &mut Vec<u8>,
    ) -> bool {
        while self.inflight.len() < config.outbox_depth {
            match self.frames.next_frame() {
                Ok(Some(frame)) => match wire::decode_request_frame::<S>(&frame) {
                    Ok((id, WireRequest::One(request))) => {
                        if config.read_only && is_write(&request) {
                            self.inflight.push_back(Pending::One {
                                id,
                                slot: SlotState::Done(read_only_rejection()),
                            });
                            continue;
                        }
                        let slot = match session.submit_ringing(request, bell) {
                            Ok(ticket) => SlotState::Waiting(ticket),
                            // Admission failures are *responses*, not
                            // disconnects — unchanged from PR 5.
                            Err(error) => SlotState::Done(ResponseBody::Failed { error }),
                        };
                        self.inflight.push_back(Pending::One { id, slot });
                    }
                    Ok((id, WireRequest::Batch(requests))) => {
                        if config.read_only && requests.iter().any(is_write) {
                            // All-or-nothing, like admission: a batch
                            // smuggling a write fails as one frame.
                            self.inflight.push_back(Pending::One {
                                id,
                                slot: SlotState::Done(read_only_rejection()),
                            });
                            continue;
                        }
                        match session.submit_batch_ringing(requests, bell) {
                            Ok(tickets) => self.inflight.push_back(Pending::Batch {
                                id,
                                slots: tickets.into_iter().map(SlotState::Waiting).collect(),
                            }),
                            // All-or-nothing admission: the whole
                            // batch answers as one Failed frame.
                            Err(error) => self.inflight.push_back(Pending::One {
                                id,
                                slot: SlotState::Done(ResponseBody::Failed { error }),
                            }),
                        }
                    }
                    Ok((id, WireRequest::Sync { have })) => {
                        self.register_replica(id, have, hub, bell, payload);
                    }
                    Err(_) => return false,
                },
                Ok(None) => return true,
                Err(_) => return false,
            }
        }
        true
    }

    /// Non-blocking read sweep: pull whatever the socket has, feed
    /// the frame buffer, submit complete frames. Returns whether any
    /// bytes moved.
    fn read_sweep<I: MetricIndex<S>>(
        &mut self,
        chunk: &mut [u8],
        session: &ServeSession<S, I>,
        config: &ServerConfig,
        hub: Option<&Arc<dyn ReplicaHub<S>>>,
        bell: &Doorbell,
        payload: &mut Vec<u8>,
    ) -> bool {
        if !self.reading || self.dead {
            return false;
        }
        let mut moved = false;
        loop {
            // Frames may already be buffered from a sweep that hit the
            // backpressure bound; submit them before reading more.
            if !self.drain_frames(session, config, hub, bell, payload) {
                self.reading = false; // untrusted stream
                break;
            }
            if self.inflight.len() >= config.outbox_depth {
                break; // backpressure: let TCP flow control push back
            }
            if !self.readable {
                break; // drained; the next wait says when bytes arrive
            }
            match self.stream.read(chunk) {
                Ok(0) => {
                    self.reading = false; // peer closed its write side
                    break;
                }
                Ok(n) => {
                    moved = true;
                    self.last_activity = Instant::now();
                    self.frames.extend(&chunk[..n]);
                    // A short read emptied the socket.
                    self.readable = n == chunk.len();
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    self.readable = false;
                    break;
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.reading = false;
                    break;
                }
            }
        }
        moved
    }

    /// Pop resolved responses off the front of the in-flight queue
    /// (in submission order) and encode them — unflushed — into the
    /// outbox. Returns whether anything resolved.
    fn resolve_sweep(&mut self, payload: &mut Vec<u8>) -> bool {
        let mut resolved = false;
        while let Some(front) = self.inflight.front_mut() {
            if !front.poll() {
                break;
            }
            let front = self.inflight.pop_front().expect("front exists");
            match front {
                Pending::One { id, slot } => {
                    wire::encode_response(
                        &Response {
                            id,
                            body: slot.into_body(),
                        },
                        payload,
                    );
                }
                Pending::Batch { id, slots } => {
                    let bodies: Vec<ResponseBody> =
                        slots.into_iter().map(SlotState::into_body).collect();
                    wire::encode_batch_response(id, &bodies, payload);
                }
            }
            if wire::write_frame_unflushed(&mut self.outbox, payload).is_err() {
                // A response bigger than MAX_FRAME (a range query
                // matching millions of items): answer a typed failure
                // instead of shipping an unframeable payload.
                let huge = Response {
                    id: RequestId(wire::CONTROL_ID),
                    body: ResponseBody::Failed {
                        error: SearchError::UnsupportedConfig {
                            reason: "response exceeds the wire frame size limit",
                        },
                    },
                };
                wire::encode_response(&huge, payload);
                let _ = wire::write_frame_unflushed(&mut self.outbox, payload);
                self.reading = false;
            }
            resolved = true;
        }
        resolved
    }

    /// Push the outbox into the socket — the whole buffer in as few
    /// `write(2)` calls as the socket accepts (usually one), instead
    /// of one flush per frame. Returns whether any bytes moved.
    fn write_sweep(&mut self) -> bool {
        if self.sent == self.outbox.len() {
            return false;
        }
        let mut moved = false;
        loop {
            match self.stream.write(&self.outbox[self.sent..]) {
                Ok(0) => {
                    self.dead = true;
                    break;
                }
                Ok(n) => {
                    self.sent += n;
                    moved = true;
                    self.last_activity = Instant::now();
                    if self.sent == self.outbox.len() {
                        self.outbox.clear();
                        self.sent = 0;
                        break;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.dead = true;
                    break;
                }
            }
        }
        moved
    }

    /// End-of-sweep lifecycle: mark drained/timed-out connections for
    /// removal.
    fn reap_check(&mut self, config: &ServerConfig) {
        if self.dead {
            return;
        }
        if !self.reading {
            // EOF/protocol error/shutdown: close once everything
            // accepted has been answered and written.
            self.dead = self.drained();
        } else if self
            .idle_deadline(config)
            .is_some_and(|deadline| Instant::now() >= deadline)
        {
            self.dead = true;
        }
    }

    /// Nothing owed in either direction.
    fn drained(&self) -> bool {
        self.inflight.is_empty() && self.sent == self.outbox.len()
    }

    /// When a reading, drained connection is reaped as idle (`None`:
    /// not reapable now — nor ever in a stopping loop, which clears
    /// `reading`). Registered replicas are exempt — a quiet insert
    /// stream is not an abandoned socket.
    fn idle_deadline(&self, config: &ServerConfig) -> Option<Instant> {
        if self.dead || !self.reading || self.repl.is_some() || !self.drained() {
            return None;
        }
        self.last_activity.checked_add(config.idle_timeout)
    }

    /// Register what this connection waits for with `polls`: its
    /// bytes while it may read (not past the backpressure bound), and
    /// writability while its outbox holds unsent bytes. A connection
    /// that wants neither stays out of the set; its tickets ring the
    /// loop's bell instead.
    fn watch(&mut self, polls: &mut PollSet, config: &ServerConfig) {
        let read = self.reading && !self.dead && self.inflight.len() < config.outbox_depth;
        let write = !self.dead && self.sent < self.outbox.len();
        self.slot = (read || write).then(|| polls.push(&self.stream, read, write));
    }

    /// Take in what the last wait reported for this connection
    /// (`failed`: the wait did not happen, so try reading anyway).
    fn mark_ready(&mut self, polls: &PollSet, failed: bool) {
        self.readable |= failed || self.slot.is_some_and(|slot| polls.readable(slot));
    }
}

/// Whether a request mutates the index (and must be refused by a
/// read-only server).
fn is_write<S: cned_core::Symbol>(request: &Request<S>) -> bool {
    matches!(request, Request::Insert { .. } | Request::Delete { .. })
}

/// The typed answer a read-only server gives a network write.
fn read_only_rejection() -> ResponseBody {
    ResponseBody::Failed {
        error: SearchError::UnsupportedConfig {
            reason: "this server is read-only (a replica); send writes to the primary",
        },
    }
}

/// One event-loop thread: drives every connection the accept thread
/// routed to it with read → resolve → write sweeps until shutdown,
/// waiting on its sockets and `bell` whenever a sweep moves nothing.
fn event_loop<S: WireSymbol, I: MetricIndex<S>>(
    rx: mpsc::Receiver<TcpStream>,
    session: &ServeSession<S, I>,
    stop: &AtomicBool,
    conn_count: &AtomicUsize,
    config: ServerConfig,
    hub: Option<Arc<dyn ReplicaHub<S>>>,
    bell: Doorbell,
) {
    let mut conns: Vec<Conn<S>> = Vec::new();
    let mut chunk = vec![0u8; 16 * 1024];
    let mut payload: Vec<u8> = Vec::new();
    let mut polls = PollSet::new();
    loop {
        let stopping = stop.load(Ordering::Acquire);
        let mut active = false;

        // Admit (or, when stopping, refuse) newly routed connections.
        while let Ok(stream) = rx.try_recv() {
            if stopping {
                let _ = stream.shutdown(std::net::Shutdown::Both);
                conn_count.fetch_sub(1, Ordering::AcqRel);
            } else {
                conns.push(Conn::new(stream));
                active = true;
            }
        }

        for conn in conns.iter_mut() {
            if stopping {
                conn.reading = false; // drain, then close
            }
            active |= conn.read_sweep(
                &mut chunk,
                session,
                &config,
                hub.as_ref(),
                &bell,
                &mut payload,
            );
            active |= conn.resolve_sweep(&mut payload);
            if !stopping {
                active |= conn.repl_sweep(&mut payload);
            }
            active |= conn.write_sweep();
            conn.reap_check(&config);
        }

        let before = conns.len();
        conns.retain_mut(|conn| {
            if conn.dead {
                let _ = conn.stream.shutdown(std::net::Shutdown::Both);
                false
            } else {
                true
            }
        });
        let reaped = before - conns.len();
        if reaped > 0 {
            conn_count.fetch_sub(reaped, Ordering::AcqRel);
            active = true;
        }

        if stopping && conns.is_empty() {
            return;
        }
        // After a sweep that moved something, a zero-timeout wait only
        // refreshes readiness; after one that moved nothing, sleep
        // until a socket, the bell or the earliest idle deadline needs
        // the loop.
        let timeout = if active {
            Some(Duration::ZERO)
        } else {
            let deadline = conns.iter().filter_map(|c| c.idle_deadline(&config)).min();
            deadline.map(|d| d.saturating_duration_since(Instant::now()))
        };
        polls.clear();
        let bell_slot = polls.push_bell(&bell);
        for conn in conns.iter_mut() {
            conn.watch(&mut polls, &config);
        }
        let failed = polls.wait(timeout).is_err();
        // Re-arm the bell only after a wait that could sleep: while
        // sweeps stay busy its byte stays put, so a ring costs one
        // atomic swap and no syscall.
        if !active && (failed || polls.readable(bell_slot)) {
            bell.clear();
        }
        for conn in conns.iter_mut() {
            conn.mark_ready(&polls, failed);
        }
    }
}
