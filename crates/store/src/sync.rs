//! Primary→replica catch-up: the [`StoreHub`] that answers replica
//! registrations on the primary, and the chunk codec both sides share.
//!
//! ## Why the hub reads *files*, not the live index
//!
//! [`crate::Durable`]'s insert pipeline makes disk a superset of every
//! acknowledged insert (WAL fsync happens before the in-memory insert
//! and before the ticket resolves). The hub therefore serves sync
//! payloads straight from the snapshot + WAL files — no access to the
//! scheduler-owned index, no pause in serving — and the result is
//! still complete:
//!
//! * the event loop **subscribes the replica first**, then asks for
//!   the payload ([`cned_serve::ReplicaHub`]'s contract);
//! * `Durable` **publishes only after** the durable write;
//! * so every insert is either in the files the hub reads, or arrives
//!   through the subscription (or both — replicas dedupe by sequence
//!   number, so overlap is harmless, and gaps are impossible).
//!
//! The one genuine race — a snapshot *install* (rename + WAL truncate)
//! interleaving with a payload read, which could pair an old snapshot
//! with an already-truncated log — is excluded by the shared `files`
//! lock.

use cned_search::SearchError;
use cned_serve::server::{ReplOp, ReplicaHub};
use cned_serve::wire::{WireSymbol, SYNC_ITEMS, SYNC_SNAPSHOT};
use cned_serve::Doorbell;
use std::sync::{mpsc, Arc};

use crate::durable::StoreShared;
use crate::format::{put_u32, put_u64, Reader, StoreError};
use crate::snapshot::{read_snapshot_meta, snapshot_has_tombstones};
use crate::wal::replay_file;

/// Target size of one sync chunk (bytes). Well under the 16 MiB wire
/// frame cap, large enough to amortise framing.
pub const SYNC_CHUNK: usize = 4 * 1024 * 1024;

/// The primary-side registration handler: hands the event loop a
/// replica's catch-up payload and its live-insert subscription.
/// Cheap to clone-construct from [`crate::Durable::hub`]; holds only
/// the shared dir + locks.
pub struct StoreHub<S: WireSymbol> {
    pub(crate) shared: Arc<StoreShared<S>>,
}

impl<S: WireSymbol> StoreHub<S> {
    fn payload(&self, have: u64) -> Result<Vec<(u8, Vec<u8>)>, StoreError> {
        // Exclude snapshot installs while we pair the two files.
        let _g = self.shared.files.lock();
        let snap_bytes = std::fs::read(self.shared.snapshot_path())
            .map_err(|e| StoreError::io("read snapshot for sync", e))?;
        let meta = read_snapshot_meta::<S>(&snap_bytes)?;
        let wal_entries = replay_file::<S>(&self.shared.wal_path())?;
        drop(_g);

        let mut chunks = Vec::new();
        // Tail-only catch-up additionally requires a tombstone-free
        // snapshot: a delete folded into the snapshot exists nowhere
        // in the log, so a replica that may have missed it needs the
        // whole snapshot to learn of it.
        if have > 0 && have >= meta.items && !snapshot_has_tombstones::<S>(&snap_bytes)? {
            // The replica's base is at least ours: it only needs the
            // log tail it hasn't applied yet. Deletes ship whole (they
            // are idempotent); inserts the replica already holds are
            // filtered by sequence number.
            let tail: Vec<ReplOp<S>> = wal_entries
                .into_iter()
                .filter(|op| match op {
                    ReplOp::Insert { seq, .. } => *seq >= have,
                    ReplOp::Delete { .. } => true,
                })
                .collect();
            push_item_chunks(&mut chunks, &tail);
        } else {
            // Fresh replica (or one behind our snapshot base): full
            // snapshot transfer, then the whole log tail.
            for c in snap_bytes.chunks(SYNC_CHUNK) {
                chunks.push((SYNC_SNAPSHOT, c.to_vec()));
            }
            push_item_chunks(&mut chunks, &wal_entries);
        }
        Ok(chunks)
    }
}

impl<S: WireSymbol> ReplicaHub<S> for StoreHub<S> {
    fn sync_payload(&self, have: u64) -> Result<Vec<(u8, Vec<u8>)>, SearchError> {
        self.payload(have).map_err(SearchError::from)
    }

    fn subscribe(&self, bell: Doorbell) -> mpsc::Receiver<ReplOp<S>> {
        self.shared.subscribe(bell)
    }
}

// ------------------------------------------------------ item chunk codec

/// `SYNC_ITEMS` record op byte: an insert (`[seq][count][syms]`).
const ITEM_INSERT: u8 = 1;
/// `SYNC_ITEMS` record op byte: a delete (`[index u64]`).
const ITEM_DELETE: u8 = 2;

/// Append logged ops as `SYNC_ITEMS` chunks of at most [`SYNC_CHUNK`]
/// bytes (record boundaries respected). Each record is
/// `[op][seq][count][syms]` for inserts, `[op][index]` for deletes.
fn push_item_chunks<S: WireSymbol>(chunks: &mut Vec<(u8, Vec<u8>)>, items: &[ReplOp<S>]) {
    let mut chunk = Vec::new();
    for op in items {
        match op {
            ReplOp::Insert { seq, item } => {
                chunk.push(ITEM_INSERT);
                put_u64(&mut chunk, *seq);
                put_u32(&mut chunk, item.len() as u32);
                for &sym in item {
                    sym.put(&mut chunk);
                }
            }
            ReplOp::Delete { index } => {
                chunk.push(ITEM_DELETE);
                put_u64(&mut chunk, *index);
            }
        }
        if chunk.len() >= SYNC_CHUNK {
            chunks.push((SYNC_ITEMS, std::mem::take(&mut chunk)));
        }
    }
    if !chunk.is_empty() {
        chunks.push((SYNC_ITEMS, chunk));
    }
}

/// Decode a `SYNC_ITEMS` chunk back into its op records.
pub fn decode_items<S: WireSymbol>(bytes: &[u8]) -> Result<Vec<ReplOp<S>>, StoreError> {
    let mut r = Reader::new(bytes);
    let mut out = Vec::new();
    while r.remaining() > 0 {
        match r.u8()? {
            ITEM_INSERT => {
                let seq = r.u64()?;
                let count = r.u32()? as usize;
                let sym_bytes = r.take(count.saturating_mul(S::WIDTH))?;
                out.push(ReplOp::Insert {
                    seq,
                    item: sym_bytes.chunks_exact(S::WIDTH).map(S::get).collect(),
                });
            }
            ITEM_DELETE => out.push(ReplOp::Delete { index: r.u64()? }),
            other => {
                return Err(StoreError::Corrupt {
                    detail: format!("unknown sync item op byte {other}"),
                })
            }
        }
    }
    Ok(out)
}

/// What a completed sync stream yields on the replica side.
pub struct SyncOutcome<S: WireSymbol> {
    /// The primary's full snapshot bytes, when one was transferred
    /// (`None` for a tail-only catch-up).
    pub snapshot: Option<Vec<u8>>,
    /// Log-tail ops to apply after (or instead of) the snapshot.
    pub items: Vec<ReplOp<S>>,
}

/// Replica-side accumulator for `RESP_SYNC` chunks: feed each chunk in
/// arrival order, then [`SyncAccumulator::finish`] after the `done`
/// chunk.
pub struct SyncAccumulator<S: WireSymbol> {
    snapshot: Vec<u8>,
    saw_snapshot: bool,
    items: Vec<ReplOp<S>>,
}

impl<S: WireSymbol> SyncAccumulator<S> {
    #[allow(clippy::new_without_default)]
    pub fn new() -> SyncAccumulator<S> {
        SyncAccumulator {
            snapshot: Vec::new(),
            saw_snapshot: false,
            items: Vec::new(),
        }
    }

    /// Ingest one chunk. Snapshot chunks must all precede item chunks
    /// (the hub emits them that way); anything else is a protocol
    /// violation from the peer.
    pub fn push(&mut self, mode: u8, bytes: &[u8]) -> Result<(), StoreError> {
        match mode {
            SYNC_SNAPSHOT => {
                if !self.items.is_empty() {
                    return Err(StoreError::Corrupt {
                        detail: "snapshot chunk after item chunks in sync stream".into(),
                    });
                }
                self.saw_snapshot = true;
                self.snapshot.extend_from_slice(bytes);
                Ok(())
            }
            SYNC_ITEMS => {
                self.items.extend(decode_items::<S>(bytes)?);
                Ok(())
            }
            other => Err(StoreError::Corrupt {
                detail: format!("unknown sync chunk mode {other}"),
            }),
        }
    }

    pub fn finish(self) -> SyncOutcome<S> {
        SyncOutcome {
            snapshot: self.saw_snapshot.then_some(self.snapshot),
            items: self.items,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn item_chunks_roundtrip() {
        let items: Vec<ReplOp<u32>> = (0..100)
            .map(|i| {
                if i % 5 == 4 {
                    ReplOp::Delete { index: i }
                } else {
                    ReplOp::Insert {
                        seq: i,
                        item: vec![i as u32; (i % 7) as usize],
                    }
                }
            })
            .collect();
        let mut chunks = Vec::new();
        push_item_chunks(&mut chunks, &items);
        let mut acc = SyncAccumulator::<u32>::new();
        for (mode, bytes) in &chunks {
            acc.push(*mode, bytes).unwrap();
        }
        let out = acc.finish();
        assert!(out.snapshot.is_none());
        assert_eq!(out.items, items);
    }

    #[test]
    fn truncated_item_chunk_fails_typed() {
        let mut chunks = Vec::new();
        push_item_chunks(
            &mut chunks,
            &[ReplOp::Insert {
                seq: 4,
                item: vec![1u32, 2, 3],
            }],
        );
        let bytes = &chunks[0].1;
        let got = decode_items::<u32>(&bytes[..bytes.len() - 1]);
        assert!(matches!(got, Err(StoreError::Truncated { .. })));
    }

    #[test]
    fn snapshot_after_items_is_rejected() {
        let mut acc = SyncAccumulator::<u32>::new();
        let mut item_chunk = vec![ITEM_INSERT];
        put_u64(&mut item_chunk, 0);
        put_u32(&mut item_chunk, 0);
        acc.push(SYNC_ITEMS, &item_chunk).unwrap();
        assert!(matches!(
            acc.push(SYNC_SNAPSHOT, b"x"),
            Err(StoreError::Corrupt { .. })
        ));
    }
}
