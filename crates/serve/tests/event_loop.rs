//! Event-loop server integration tests: high-concurrency loopback
//! bit-identity against in-process answers, the in-band connection-cap
//! rejection frame, bounded-admission (`Overloaded`) semantics over
//! the wire, outbox backpressure, idle timeouts, client read
//! deadlines, draining shutdown, and the wake paths of the loops'
//! `poll(2)` waits (a lost doorbell ring shows up as a deadline miss
//! or a shutdown watchdog firing) — the behavioural contract of the
//! readiness-based `Server`.
//!
//! `CNED_BENCH_FAST=1` shrinks per-connection work (CI smoke) without
//! lowering the 256-connection concurrency floor.

use cned_core::contextual::exact::Contextual;
use cned_core::levenshtein::Levenshtein;
use cned_core::metric::Distance;
use cned_core::normalized::yujian_bo::YujianBo;
use cned_search::{InsertableIndex, MetricIndex, Neighbour, QueryOptions, SearchError};
use cned_serve::wire;
use cned_serve::{
    Client, ClientConfig, ClientError, Request, RequestId, ResponseBody, Server, ServerConfig,
    SessionConfig, ShardConfig, ShardedIndex,
};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Barrier};
use std::time::{Duration, Instant};

fn fast() -> bool {
    std::env::var("CNED_BENCH_FAST").is_ok()
}

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

fn build(db: &[Vec<u8>], shards: usize, dist: &dyn Distance<u8>) -> ShardedIndex<u8> {
    ShardedIndex::try_build(
        db.to_vec(),
        ShardConfig {
            shards,
            pivots_per_shard: 4,
            compact_threshold: 8,
            ..ShardConfig::default()
        },
        dist,
    )
    .unwrap()
}

fn key(ns: &[Neighbour]) -> Vec<(usize, u64)> {
    ns.iter().map(|n| (n.index, n.distance.to_bits())).collect()
}

/// Connect with retries: 256 simultaneous SYNs can overflow the
/// listener backlog on a 1-core box; refused attempts just try again.
fn connect_retry(addr: SocketAddr) -> Client<u8> {
    let mut delay = Duration::from_millis(1);
    for _ in 0..200 {
        match Client::connect(addr) {
            Ok(client) => return client,
            Err(_) => {
                std::thread::sleep(delay);
                delay = (delay * 2).min(Duration::from_millis(50));
            }
        }
    }
    panic!("could not connect to the loopback server");
}

#[test]
fn bit_identity_holds_across_256_concurrent_connections_and_metrics() {
    let conns = 256usize;
    let queries_per_conn = if fast() { 1 } else { 3 };
    let db = corpus(30, 6, 3, 2027);
    let queries = Arc::new(corpus(8, 6, 3, 20271));
    let metrics: [(&str, Arc<dyn Distance<u8>>); 3] = [
        ("d_E", Arc::new(Levenshtein)),
        ("d_YB", Arc::new(YujianBo)),
        ("d_C", Arc::new(Contextual)),
    ];
    for (name, dist) in metrics {
        // In-process twin: the bit-identity oracle.
        let twin = build(&db, 2, &*dist);
        let expected: Arc<Vec<_>> = Arc::new(
            queries
                .iter()
                .map(|q| {
                    (
                        MetricIndex::nn(&twin, q, &*dist, &QueryOptions::new()).unwrap(),
                        MetricIndex::knn(&twin, q, &*dist, &QueryOptions::new().k(3)).unwrap(),
                    )
                })
                .collect(),
        );

        let server = Server::bind_with(
            "127.0.0.1:0",
            build(&db, 2, &*dist),
            Arc::clone(&dist),
            ServerConfig::new().session(SessionConfig::new().queue_depth(1 << 16)),
        )
        .expect("bind loopback");
        let addr = server.local_addr();
        let barrier = Arc::new(Barrier::new(conns));

        let workers: Vec<_> = (0..conns)
            .map(|c| {
                let expected = Arc::clone(&expected);
                let queries = Arc::clone(&queries);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    let mut client = connect_retry(addr);
                    // Hold every socket open at once: the server
                    // really is driving 256 live connections.
                    barrier.wait();
                    let qs: Vec<Vec<u8>> = (0..queries_per_conn)
                        .map(|i| queries[(c + i) % queries.len()].clone())
                        .collect();
                    // One batch frame per call instead of N singles.
                    let nn = client.nn_batch(&qs).unwrap();
                    let knn = client.knn_batch(&qs, 3).unwrap();
                    for (i, ((got_nn, nn_stats), (got_knn, knn_stats))) in
                        nn.into_iter().zip(knn).enumerate()
                    {
                        let (e_nn, e_knn) = &expected[(c + i) % expected.len()];
                        assert_eq!(
                            got_nn.map(|n| (n.index, n.distance.to_bits())),
                            e_nn.0.map(|n| (n.index, n.distance.to_bits())),
                            "conn {c} query {i}"
                        );
                        assert_eq!(nn_stats, e_nn.1, "conn {c} query {i}");
                        assert_eq!(key(&got_knn), key(&e_knn.0), "conn {c} query {i}");
                        assert_eq!(knn_stats, e_knn.1, "conn {c} query {i}");
                    }
                })
            })
            .collect();
        for w in workers {
            w.join()
                .unwrap_or_else(|_| panic!("{name}: a connection worker panicked"));
        }
        server.shutdown();
    }
}

#[test]
fn connection_cap_rejection_is_typed_and_in_band() {
    let db = corpus(16, 5, 3, 2029);
    let server = Server::bind_with(
        "127.0.0.1:0",
        build(&db, 1, &Levenshtein),
        Arc::new(Levenshtein),
        ServerConfig::new().max_connections(2),
    )
    .unwrap();
    let addr = server.local_addr();

    let mut a: Client<u8> = Client::connect(addr).unwrap();
    let mut b: Client<u8> = Client::connect(addr).unwrap();
    assert_eq!(a.nn(&db[0]).unwrap().0.unwrap().distance, 0.0);
    assert_eq!(b.nn(&db[1]).unwrap().0.unwrap().distance, 0.0);

    // The third connection is answered with a typed control frame —
    // CONTROL_ID + Failed { Overloaded } — not a silent close.
    let mut raw = std::net::TcpStream::connect(addr).unwrap();
    let mut buf = Vec::new();
    wire::read_frame(&mut raw, &mut buf)
        .unwrap()
        .expect("a rejection frame, not EOF");
    let rejection = wire::decode_response(&buf).unwrap();
    assert_eq!(rejection.id, RequestId(wire::CONTROL_ID));
    assert!(matches!(
        rejection.body,
        ResponseBody::Failed {
            error: SearchError::Overloaded { depth: 2 }
        }
    ));
    drop(raw);

    // Through the typed client the rejection surfaces as an error
    // (either the routed Overloaded or a fast write failure,
    // depending on which side of the race the submit lands).
    let mut c: Client<u8> = Client::connect(addr).unwrap();
    assert!(c.nn(&db[2]).is_err());
    drop(c);

    // The admitted connections never noticed.
    assert_eq!(a.nn(&db[3]).unwrap().0.unwrap().distance, 0.0);
    assert_eq!(b.nn(&db[3]).unwrap().0.unwrap().distance, 0.0);

    // Closing a connection frees its slot (the reaper decrements the
    // shared count within a sweep or two).
    drop(a);
    let mut readmitted = false;
    for _ in 0..200 {
        let mut d: Client<u8> = Client::connect(addr).unwrap();
        if d.nn(&db[0]).is_ok() {
            readmitted = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(readmitted, "closing a connection must free a slot");
    server.shutdown();
}

#[test]
fn session_overload_answers_in_band_and_keeps_the_connection() {
    let db = corpus(12, 5, 3, 2031);
    // queue_depth 0: every submission is refused — deterministically
    // exercising the in-band backpressure path.
    let server = Server::bind_with(
        "127.0.0.1:0",
        build(&db, 1, &Levenshtein),
        Arc::new(Levenshtein),
        ServerConfig::new().session(SessionConfig::new().queue_depth(0)),
    )
    .unwrap();
    let mut client: Client<u8> = Client::connect(server.local_addr()).unwrap();

    // Three calls in a row: each gets a typed answer, so the
    // connection survived every refusal.
    for _ in 0..3 {
        match client.nn(&db[0]) {
            Err(ClientError::Search(SearchError::Overloaded { depth: 0 })) => {}
            other => panic!("expected in-band Overloaded, got {other:?}"),
        }
    }
    // A batch fails all-or-nothing as ONE Failed frame under the
    // batch id.
    match client.call_batch(&[
        Request::Nn {
            query: db[0].clone(),
        },
        Request::Nn {
            query: db[1].clone(),
        },
    ]) {
        Err(ClientError::Search(SearchError::Overloaded { depth: 0 })) => {}
        other => panic!("expected whole-batch Overloaded, got {other:?}"),
    }
    drop(client);
    server.shutdown();
}

#[test]
fn outbox_backpressure_still_answers_everything() {
    let db = corpus(24, 6, 3, 2033);
    // A tiny outbox forces the read-pause path: the server stops
    // reading this connection whenever 4 frames are unanswered, and
    // resumes as responses drain. Nothing may be lost or reordered.
    let server = Server::bind_with(
        "127.0.0.1:0",
        build(&db, 2, &Levenshtein),
        Arc::new(Levenshtein),
        ServerConfig::new().outbox_depth(4),
    )
    .unwrap();
    let twin = build(&db, 2, &Levenshtein);
    let mut client: Client<u8> = Client::connect(server.local_addr()).unwrap();

    let mut tickets = Vec::new();
    for i in 0..64 {
        tickets.push(
            client
                .submit(Request::Nn {
                    query: db[i % db.len()].clone(),
                })
                .unwrap(),
        );
    }
    client.flush().unwrap();
    for (i, ticket) in tickets.into_iter().enumerate() {
        let response = ticket.wait();
        assert_eq!(response.id, RequestId(i as u64));
        let expected =
            MetricIndex::nn(&twin, &db[i % db.len()], &Levenshtein, &QueryOptions::new()).unwrap();
        let ResponseBody::Nn { neighbour, stats } = response.body else {
            panic!("expected Nn, got {:?}", response.body);
        };
        assert_eq!(
            neighbour.map(|n| (n.index, n.distance.to_bits())),
            expected.0.map(|n| (n.index, n.distance.to_bits()))
        );
        assert_eq!(stats, expected.1);
    }
    drop(client);
    server.shutdown();
}

#[test]
fn draining_shutdown_answers_every_accepted_request() {
    let db = corpus(24, 6, 3, 2039);
    let server = Server::bind(
        "127.0.0.1:0",
        build(&db, 2, &Levenshtein),
        Arc::new(Levenshtein),
    )
    .unwrap();
    let mut client: Client<u8> = Client::connect(server.local_addr()).unwrap();
    let probe = b"zzzz".to_vec();

    let mut tickets = Vec::new();
    for i in 0..10 {
        tickets.push(
            client
                .submit(Request::Nn {
                    query: db[i].clone(),
                })
                .unwrap(),
        );
    }
    let t_insert = client
        .submit(Request::Insert {
            item: probe.clone(),
        })
        .unwrap();
    let t_batch = client
        .submit_batch(&[
            Request::Nn {
                query: probe.clone(),
            },
            Request::Knn {
                query: probe.clone(),
                k: 2,
            },
        ])
        .unwrap();
    client.flush().unwrap();

    // Responses are written per connection in submission order, so
    // the batch's arrival proves everything before it was accepted.
    let bodies = t_batch.wait().unwrap();
    assert_eq!(bodies.len(), 2);
    let ResponseBody::Nn {
        neighbour: Some(nb),
        ..
    } = &bodies[0]
    else {
        panic!("expected Nn, got {:?}", bodies[0]);
    };
    assert_eq!(
        (nb.index, nb.distance),
        (db.len(), 0.0),
        "the batch runs after the insert barrier"
    );

    let index = server.shutdown();
    assert_eq!(
        MetricIndex::len(&index),
        db.len() + 1,
        "the insert drained into the index"
    );
    // Every earlier ticket has its real answer — no Shutdown stubs.
    assert_eq!(
        t_insert.wait().body,
        ResponseBody::Inserted { index: db.len() }
    );
    for ticket in tickets {
        let response = ticket.wait();
        assert!(
            matches!(response.body, ResponseBody::Nn { .. }),
            "draining shutdown dropped a request: {:?}",
            response.body
        );
    }
}

#[test]
fn idle_connections_are_reaped_but_active_ones_survive() {
    let db = corpus(12, 5, 3, 2041);
    let server = Server::bind_with(
        "127.0.0.1:0",
        build(&db, 1, &Levenshtein),
        Arc::new(Levenshtein),
        ServerConfig::new().idle_timeout(Duration::from_millis(200)),
    )
    .unwrap();
    let addr = server.local_addr();
    let mut client: Client<u8> = Client::connect(addr).unwrap();

    // Activity inside the window resets the idle clock: the
    // connection survives well past one timeout's worth of wall time.
    for _ in 0..4 {
        std::thread::sleep(Duration::from_millis(100));
        client.nn(&db[0]).unwrap();
    }
    // Go quiet past the timeout: the server reaps the connection.
    std::thread::sleep(Duration::from_millis(800));
    assert!(
        client.nn(&db[0]).is_err(),
        "an idle connection must be closed"
    );
    drop(client);
    // The server itself is healthy for fresh connections.
    let mut fresh: Client<u8> = Client::connect(addr).unwrap();
    assert_eq!(fresh.nn(&db[1]).unwrap().0.unwrap().distance, 0.0);
    drop(fresh);
    server.shutdown();
}

#[test]
fn a_silent_server_trips_the_read_deadline() {
    // A listener that accepts (the OS completes the handshake into
    // the backlog) but never answers: before the read deadline, this
    // hung `wait` forever.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let mut client: Client<u8> = Client::connect_with(
        addr,
        ClientConfig::new().read_deadline(Duration::from_millis(200)),
    )
    .unwrap();
    let start = Instant::now();
    match client.nn(b"abc") {
        Err(ClientError::Search(SearchError::DeadlineExceeded)) => {}
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "the deadline must fire promptly, not at some OS default"
    );
    drop(listener);
}

#[test]
fn config_defaults_are_the_documented_values() {
    let c = ClientConfig::default();
    assert_eq!(c.connect_timeout, Duration::from_secs(5));
    assert_eq!(c.read_deadline, Duration::from_secs(30));
    let c = ClientConfig::new()
        .connect_timeout(Duration::from_millis(1))
        .read_deadline(Duration::from_millis(2));
    assert_eq!(c.connect_timeout, Duration::from_millis(1));
    assert_eq!(c.read_deadline, Duration::from_millis(2));

    let s = ServerConfig::default();
    assert_eq!(s.event_loop_threads, 2);
    assert_eq!(s.max_connections, 1024);
    assert_eq!(s.idle_timeout, Duration::from_secs(60));
    assert_eq!(s.outbox_depth, 64);
}

/// What the in-process index answers to `request`, in the session's
/// response shape (the index is never empty here).
fn expected_body(
    twin: &mut ShardedIndex<u8>,
    request: &Request<u8>,
    dist: &dyn Distance<u8>,
) -> ResponseBody {
    match request {
        Request::Nn { query } => {
            let (neighbour, stats) =
                MetricIndex::nn(twin, query, dist, &QueryOptions::new()).unwrap();
            ResponseBody::Nn { neighbour, stats }
        }
        Request::Knn { query, k } => {
            let (neighbours, stats) =
                MetricIndex::knn(twin, query, dist, &QueryOptions::new().k(*k)).unwrap();
            ResponseBody::Knn { neighbours, stats }
        }
        Request::Range { query, radius } => {
            let (neighbours, stats) =
                MetricIndex::range(twin, query, dist, &QueryOptions::new().radius(*radius))
                    .unwrap();
            ResponseBody::Range { neighbours, stats }
        }
        Request::Insert { item } => ResponseBody::Inserted {
            index: InsertableIndex::insert(twin, item.clone(), dist).unwrap(),
        },
        Request::Delete { index } => ResponseBody::Deleted {
            existed: MetricIndex::delete(twin, *index).unwrap(),
        },
    }
}

#[test]
fn closed_loop_calls_are_all_answered_on_wake_ups() {
    // One client waiting for every reply before it sends the next
    // request: each answer is picked up only because the loop wakes
    // on the client's bytes and then on the session's ring. With the
    // default 60 s idle timeout nothing else wakes the loop, so a
    // lost ring can only end in a deadline miss.
    let dist = Levenshtein;
    let db = corpus(40, 6, 3, 2043);
    let queries = corpus(50, 6, 3, 20431);
    let mut twin = build(&db, 2, &dist);
    let server = Server::bind("127.0.0.1:0", build(&db, 2, &dist), Arc::new(dist)).unwrap();
    let mut client: Client<u8> = Client::connect_with(
        server.local_addr(),
        ClientConfig::new().read_deadline(Duration::from_secs(2)),
    )
    .unwrap();

    let mut fresh = corpus(20, 5, 4, 20433).into_iter();
    for i in 0..500usize {
        let query = queries[i % queries.len()].clone();
        let request = match i % 50 {
            17 => Request::Insert {
                item: fresh.next().unwrap(),
            },
            41 => Request::Delete {
                index: i % db.len(),
            },
            _ => match i % 3 {
                0 => Request::Nn { query },
                1 => Request::Knn { query, k: 3 },
                _ => Request::Range { query, radius: 2.0 },
            },
        };
        let got = client
            .call(request.clone())
            .unwrap_or_else(|e| panic!("call {i}: {e:?}"));
        assert_eq!(got, expected_body(&mut twin, &request, &dist), "call {i}");
    }

    let batch: Vec<Request<u8>> = queries[..8]
        .iter()
        .map(|q| Request::Knn {
            query: q.clone(),
            k: 2,
        })
        .collect();
    let got = client.call_batch(&batch).unwrap();
    let want: Vec<ResponseBody> = batch
        .iter()
        .map(|r| expected_body(&mut twin, r, &dist))
        .collect();
    assert_eq!(got, want, "batch frame");

    drop(client);
    server.shutdown();
}

/// Run `shutdown` on its own thread and fail (instead of hanging) if it
/// does not finish within 10 s.
fn shutdown_within_watchdog<T: Send + 'static>(shutdown: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    let handle = std::thread::spawn(move || {
        let _ = tx.send(shutdown());
    });
    let value = rx
        .recv_timeout(Duration::from_secs(10))
        .expect("shutdown must wake the waiting threads and finish");
    handle
        .join()
        .expect("the shutdown thread exits after sending");
    value
}

#[test]
fn shutdown_wakes_a_loop_holding_an_idle_connection() {
    let db = corpus(12, 5, 3, 2047);
    let server = Server::bind(
        "127.0.0.1:0",
        build(&db, 1, &Levenshtein),
        Arc::new(Levenshtein),
    )
    .unwrap();
    let mut client: Client<u8> = Client::connect(server.local_addr()).unwrap();
    // One answered call: the connection is routed and its loop is
    // back in a wait whose only timeout is the 60 s idle deadline.
    assert_eq!(client.nn(&db[0]).unwrap().0.unwrap().distance, 0.0);
    let index = shutdown_within_watchdog(move || server.shutdown());
    assert_eq!(MetricIndex::len(&index), db.len());
    drop(client);
}

/// A distance that stalls while its gate is closed: it holds the
/// session scheduler inside a query, so later requests queue behind.
struct Gated {
    open: Arc<AtomicBool>,
    /// Set once a call is stalled at the closed gate.
    stalled: Arc<AtomicBool>,
}

impl Distance<u8> for Gated {
    fn distance(&self, a: &[u8], b: &[u8]) -> f64 {
        while !self.open.load(Ordering::Acquire) {
            self.stalled.store(true, Ordering::Release);
            std::thread::sleep(Duration::from_millis(1));
        }
        Levenshtein.distance(a, b)
    }

    fn name(&self) -> &'static str {
        "gated d_E"
    }

    fn is_metric(&self) -> bool {
        true
    }
}

/// Opens the gate when dropped, so a failing assertion unwinds into a
/// server drop that can drain instead of hanging.
struct OpenOnDrop(Arc<AtomicBool>);

impl Drop for OpenOnDrop {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Release);
    }
}

/// Spin until `done`, failing after 10 s.
fn within_10s(what: &str, mut done: impl FnMut() -> bool) {
    let start = Instant::now();
    while !done() {
        assert!(start.elapsed() < Duration::from_secs(10), "{what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn shutdown_drains_a_batch_in_flight() {
    let db = corpus(24, 6, 3, 2053);
    let open = Arc::new(AtomicBool::new(true));
    let stalled_at_gate = Arc::new(AtomicBool::new(false));
    let dist = Arc::new(Gated {
        open: Arc::clone(&open),
        stalled: Arc::clone(&stalled_at_gate),
    });
    let server = Server::bind("127.0.0.1:0", build(&db, 2, &*dist), dist.clone()).unwrap();
    let mut client: Client<u8> = Client::connect(server.local_addr()).unwrap();

    // Stall the scheduler on an in-process query, then queue a batch
    // frame behind it: the batch is accepted but cannot resolve.
    open.store(false, Ordering::Release);
    let _reopen = OpenOnDrop(Arc::clone(&open));
    let stalled = server
        .session()
        .submit(Request::Nn {
            query: db[0].clone(),
        })
        .unwrap();
    within_10s("the scheduler never reached the gate", || {
        stalled_at_gate.load(Ordering::Acquire)
    });
    let batch: Vec<Request<u8>> = db[..6]
        .iter()
        .map(|q| Request::Nn { query: q.clone() })
        .collect();
    let ticket = client.submit_batch(&batch).unwrap();
    client.flush().unwrap();
    within_10s("the batch frame never reached the session", || {
        server.session().pending() == batch.len()
    });

    // Shut down while the batch is in flight: the loops stop reading
    // and wait for its tickets; only the session's rings can wake them
    // once the gate opens. The gate opens 50 ms later, so the drain
    // most likely starts first; either order must pass.
    let opener = {
        let open = Arc::clone(&open);
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            open.store(true, Ordering::Release);
        })
    };
    let index = shutdown_within_watchdog(move || server.shutdown());
    opener.join().unwrap();
    assert_eq!(MetricIndex::len(&index), db.len());

    let twin = build(&db, 2, &Levenshtein);
    let bodies = ticket.wait().expect("the accepted batch is answered");
    assert_eq!(bodies.len(), batch.len());
    for (body, q) in bodies.iter().zip(&db) {
        let (neighbour, stats) =
            MetricIndex::nn(&twin, q, &Levenshtein, &QueryOptions::new()).unwrap();
        assert_eq!(body, &ResponseBody::Nn { neighbour, stats });
    }
    assert!(matches!(stalled.wait().body, ResponseBody::Nn { .. }));
}
