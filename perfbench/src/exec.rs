//! One request through one public surface, timed.
//!
//! The same [`Target`] trait drives the end-to-end runs (the facade for
//! library compute, a loopback [`Client`] for the served workloads) and
//! the traced run's per-layer replays, so every layer sees literally
//! the same calls.

use cned::{Client, ClientError, Database, DatabaseSession, Request, ResponseBody, SearchError};
use std::time::Instant;

/// A public surface that answers [`Request`]s.
pub trait Target {
    /// Answer one request. Transport failures become
    /// [`ResponseBody::Failed`], so they are counted like typed errors.
    fn call(&mut self, request: &Request<u8>) -> ResponseBody;
}

/// The in-process facade: `Database::{nn, knn, range, insert, delete}`.
impl Target for Database<u8> {
    fn call(&mut self, request: &Request<u8>) -> ResponseBody {
        let answer = match request {
            Request::Nn { query } => self
                .nn(query)
                .map(|(neighbour, stats)| ResponseBody::Nn { neighbour, stats }),
            Request::Knn { query, k } => self
                .knn(query, *k)
                .map(|(neighbours, stats)| ResponseBody::Knn { neighbours, stats }),
            Request::Range { query, radius } => self
                .range(query, *radius)
                .map(|(neighbours, stats)| ResponseBody::Range { neighbours, stats }),
            Request::Insert { item } => self
                .insert(item.clone())
                .map(|index| ResponseBody::Inserted { index }),
            Request::Delete { index } => self
                .delete(*index)
                .map(|existed| ResponseBody::Deleted { existed }),
        };
        answer.unwrap_or_else(|error| ResponseBody::Failed { error })
    }
}

/// The in-process serving session: submit, then wait on the ticket.
impl Target for DatabaseSession<u8> {
    fn call(&mut self, request: &Request<u8>) -> ResponseBody {
        match self.submit(request.clone()) {
            Ok(ticket) => ticket.wait().body,
            Err(error) => ResponseBody::Failed { error },
        }
    }
}

/// The network client over loopback TCP.
impl Target for Client<u8> {
    fn call(&mut self, request: &Request<u8>) -> ResponseBody {
        match Client::call(self, request.clone()) {
            Ok(body) => body,
            Err(ClientError::Search(error)) => ResponseBody::Failed { error },
            // The connection is unusable: count it like a shut-down server.
            Err(_) => ResponseBody::Failed {
                error: SearchError::Shutdown,
            },
        }
    }
}

/// One answered request: its position in the sequence, the answer,
/// and the call's wall-clock time.
#[derive(Debug, Clone)]
pub struct Record {
    /// Position in the request sequence (warm-up excluded).
    pub request: usize,
    /// Whether the request was a write.
    pub write: bool,
    /// The answer.
    pub body: ResponseBody,
    /// Call start, nanoseconds since the run started.
    pub start_ns: u64,
    /// Call duration in nanoseconds.
    pub ns: u64,
}

/// Time one call of `request` on `target`.
pub fn timed(
    target: &mut dyn Target,
    request: &Request<u8>,
    position: usize,
    clock: Instant,
) -> Record {
    let start = Instant::now();
    let body = target.call(request);
    let ns = start.elapsed().as_nanos() as u64;
    Record {
        request: position,
        write: crate::gen::is_write(request),
        body,
        start_ns: start.duration_since(clock).as_nanos() as u64,
        ns,
    }
}
