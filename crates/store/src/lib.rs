//! # cned-store — versioned snapshots, an insert WAL, and replication
//!
//! Durability and replication for the serving stack, built on two
//! files per data dir and one invariant:
//!
//! * [`snapshot`] — a versioned, checksummed binary snapshot of a
//!   whole index (items, metric identity, LAESA pivot tables, the
//!   `ShardedIndex` layout down to shard offsets and `f64`-exact pivot
//!   rows), so a restarted process **skips the index build** and
//!   answers bit-identically — including `SearchStats` counts — to the
//!   process that wrote it;
//! * [`wal`] — an append-only, fsync-on-commit log of inserts accepted
//!   since the last snapshot, replayed on recovery and truncated by
//!   each snapshot; a torn tail (crash mid-write) is dropped silently
//!   because it was never acknowledged, while any corruption in
//!   *complete* records is a typed error;
//! * [`Durable`] — the wrapper a serving session owns: WAL-append +
//!   fsync **before** the in-memory insert, threshold snapshots inside
//!   the session's existing insert barrier, and a final snapshot on
//!   drop. This ordering makes **disk a superset of every acknowledged
//!   insert** — the invariant everything else leans on;
//! * [`StoreHub`] — primary-side replica registration: serves catch-up
//!   payloads (snapshot chunks + log tail) straight from the files,
//!   while the event loop's subscribe-before-read protocol plus
//!   `Durable`'s publish-after-durable-write ordering guarantees a
//!   replica sees every insert at least once (dedup by sequence number
//!   makes the overlap harmless).
//!
//! Decoders follow the same standard as `cned-serve`'s wire codec:
//! malformed, truncated, bit-flipped or version-skewed bytes produce
//! typed [`StoreError`]s — never a panic, never a silently wrong
//! index. `cned-lint`'s schema pass fingerprints [`format::SNAP_VERSION`]
//! and the record kinds so format changes require an explicit bless.

// No unsafe here, enforced at compile time (and by cned-lint).
#![forbid(unsafe_code)]

pub mod durable;
pub mod format;
pub mod snapshot;
pub mod sync;
pub mod wal;

pub use durable::{data_dir_initialised, Durable, SNAPSHOT_FILE, WAL_FILE};
pub use format::{StoreError, SNAP_VERSION, WAL_VERSION};
pub use snapshot::{
    decode_snapshot, decode_snapshot_plan, encode_snapshot, encode_snapshot_with,
    read_snapshot_meta, snapshot_has_tombstones, write_atomic, DecodedSnapshot, IndexView,
    SnapshotMeta, StoredIndex,
};
pub use sync::{decode_items, StoreHub, SyncAccumulator, SyncOutcome, SYNC_CHUNK};
pub use wal::Wal;
