//! Versioned snapshot codec: a whole index — items, LAESA pivot
//! tables, `ShardedIndex` layout — serialised so a restarted process
//! skips the index build entirely and answers **bit-identically** to
//! the process that wrote the file.
//!
//! Bit-identity holds because the snapshot captures *structure*, not
//! just data: shard offsets, pivot ids, the exact pivot-distance rows
//! (as `f64` bit patterns) and the preprocessing counters. A loaded
//! index therefore takes the same gate/evaluate decisions, in the same
//! order, as the index that was saved — including the
//! `SearchStats::distance_computations` counts queries report.

use cned_core::metric::Distance;
use cned_core::Symbol;
use cned_search::{
    InsertableIndex, Laesa, LinearIndex, MetricIndex, Neighbour, QueryOptions, SearchError,
    SearchStats,
};
use cned_serve::wire::WireSymbol;
use cned_serve::{ShardConfig, ShardedIndex};
use std::path::Path;

use crate::format::{
    backend, crc32, kind, put_f64, put_u32, put_u64, Crc32, Reader, StoreError, MAX_RECORD,
    SNAP_MAGIC, SNAP_VERSION,
};

/// Global facts from a snapshot's META record, available without
/// decoding the index body (see [`read_snapshot_meta`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotMeta {
    /// Metric identity: a stable code (see `cned`'s metric table).
    pub metric_code: u8,
    /// Metric sub-flag (e.g. bounded-evaluation for `d_C`).
    pub metric_flag: u8,
    /// Backend tag ([`crate::format::backend`]).
    pub backend: u8,
    /// Total items in the snapshot — the replica-sync base count.
    pub items: u64,
}

/// An owned index decoded from a snapshot. Delegates the whole
/// [`MetricIndex`] surface to the concrete backend; [`crate::Durable`]
/// wraps one of these.
pub enum StoredIndex<S: Symbol> {
    /// Exhaustive-scan backend.
    Linear(LinearIndex<S>),
    /// Single LAESA index (no incremental inserts).
    Laesa(Laesa<S>),
    /// The sharded serving backend.
    Sharded(ShardedIndex<S>),
}

impl<S: Symbol> StoredIndex<S> {
    /// Append `item`, returning its global index. LAESA snapshots are
    /// immutable (same contract as the live backend): the insert is a
    /// typed [`SearchError::UnsupportedConfig`].
    pub fn insert(&mut self, item: Vec<S>, dist: &dyn Distance<S>) -> Result<usize, SearchError> {
        self.as_insertable()
            .ok_or(SearchError::UnsupportedConfig {
                reason: "laesa snapshots are immutable; rebuild or use the sharded backend",
            })?
            .insert(item, dist)
    }

    fn inner(&self) -> &dyn MetricIndex<S> {
        match self {
            StoredIndex::Linear(i) => i,
            StoredIndex::Laesa(i) => i,
            StoredIndex::Sharded(i) => i,
        }
    }
}

impl<S: Symbol> MetricIndex<S> for StoredIndex<S> {
    fn len(&self) -> usize {
        self.inner().len()
    }

    fn backend_name(&self) -> &'static str {
        self.inner().backend_name()
    }

    fn item(&self, i: usize) -> Option<&[S]> {
        self.inner().item(i)
    }

    fn knn(
        &self,
        query: &[S],
        dist: &dyn Distance<S>,
        opts: &QueryOptions,
    ) -> Result<(Vec<Neighbour>, SearchStats), SearchError> {
        self.inner().knn(query, dist, opts)
    }

    fn range(
        &self,
        query: &[S],
        dist: &dyn Distance<S>,
        opts: &QueryOptions,
    ) -> Result<(Vec<Neighbour>, SearchStats), SearchError> {
        self.inner().range(query, dist, opts)
    }

    fn delete(&mut self, index: usize) -> Result<bool, SearchError> {
        match self {
            StoredIndex::Linear(i) => i.delete(index),
            StoredIndex::Laesa(i) => i.delete(index),
            StoredIndex::Sharded(i) => i.delete(index),
        }
    }

    fn deleted(&self) -> usize {
        self.inner().deleted()
    }

    fn is_deleted(&self, i: usize) -> bool {
        self.inner().is_deleted(i)
    }

    fn as_insertable(&mut self) -> Option<&mut dyn InsertableIndex<S>> {
        match self {
            StoredIndex::Linear(i) => Some(i),
            StoredIndex::Laesa(_) => None,
            StoredIndex::Sharded(i) => Some(i),
        }
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        self.inner().as_any()
    }
}

/// Borrowed view over the three persistable backends — what
/// [`encode_snapshot`] consumes, so `Database::save` can encode
/// straight from `as_any` downcast references without cloning.
pub enum IndexView<'a, S: Symbol> {
    /// See [`StoredIndex::Linear`].
    Linear(&'a LinearIndex<S>),
    /// See [`StoredIndex::Laesa`].
    Laesa(&'a Laesa<S>),
    /// See [`StoredIndex::Sharded`].
    Sharded(&'a ShardedIndex<S>),
}

impl<'a, S: Symbol> IndexView<'a, S> {
    /// Total items under the view.
    pub fn len(&self) -> usize {
        match self {
            IndexView::Linear(i) => MetricIndex::len(*i),
            IndexView::Laesa(i) => MetricIndex::len(*i),
            IndexView::Sharded(i) => i.len(),
        }
    }

    /// Whether the view holds no items.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The backend's tombstoned global indices, sorted ascending.
    pub fn tombstone_indices(&self) -> Vec<u64> {
        match self {
            IndexView::Linear(i) => i.tombstones().indices(),
            IndexView::Laesa(i) => i.tombstones().indices(),
            IndexView::Sharded(i) => i.tombstones().indices(),
        }
    }

    /// Downcast a dynamic index into a view, if it is one of the three
    /// persistable backends.
    pub fn of(index: &'a dyn MetricIndex<S>) -> Option<IndexView<'a, S>>
    where
        S: 'static,
    {
        let any = index.as_any()?;
        if let Some(i) = any.downcast_ref::<LinearIndex<S>>() {
            return Some(IndexView::Linear(i));
        }
        if let Some(i) = any.downcast_ref::<Laesa<S>>() {
            return Some(IndexView::Laesa(i));
        }
        if let Some(i) = any.downcast_ref::<ShardedIndex<S>>() {
            return Some(IndexView::Sharded(i));
        }
        None
    }
}

// ---------------------------------------------------------------- encode

/// Append one `[kind][len][body][crc]` record.
fn record(out: &mut Vec<u8>, k: u8, body: &[u8]) {
    let start = out.len();
    out.push(k);
    put_u32(out, body.len() as u32);
    out.extend_from_slice(body);
    let crc = crc32(&out[start..]);
    put_u32(out, crc);
}

fn put_item_list<'a, S: WireSymbol + 'a>(
    out: &mut Vec<u8>,
    items: impl ExactSizeIterator<Item = &'a [S]>,
) {
    put_u64(out, items.len() as u64);
    for item in items {
        put_u32(out, item.len() as u32);
        for &sym in item {
            sym.put(out);
        }
    }
}

fn get_item_list<S: WireSymbol>(r: &mut Reader<'_>) -> Result<Vec<Vec<S>>, StoreError> {
    let count = r.usize()?;
    // Each item costs at least its 4-byte length prefix; reject counts
    // the remaining bytes cannot possibly satisfy before allocating.
    if count.saturating_mul(4) > r.remaining() {
        return Err(StoreError::Truncated {
            needed: count.saturating_mul(4),
            got: r.remaining(),
        });
    }
    let mut items = Vec::with_capacity(count);
    for _ in 0..count {
        let len = r.u32()? as usize;
        let bytes = r.take(len.saturating_mul(S::WIDTH))?;
        items.push(bytes.chunks_exact(S::WIDTH).map(S::get).collect());
    }
    Ok(items)
}

fn put_laesa_body<S: WireSymbol>(out: &mut Vec<u8>, index: &Laesa<S>) {
    put_item_list(out, index.database().iter().map(Vec::as_slice));
    put_u32(out, index.pivots().len() as u32);
    for &p in index.pivots() {
        put_u64(out, p as u64);
    }
    for row in index.pivot_rows() {
        for &d in row {
            put_f64(out, d);
        }
    }
    put_u64(out, index.preprocessing_computations());
}

fn get_laesa_body<S: WireSymbol>(r: &mut Reader<'_>) -> Result<Laesa<S>, StoreError> {
    let db = get_item_list::<S>(r)?;
    let n = db.len();
    let pivot_count = r.u32()? as usize;
    let mut pivots = Vec::with_capacity(pivot_count.min(r.remaining() / 8));
    for _ in 0..pivot_count {
        pivots.push(r.usize()?);
    }
    let mut rows = Vec::with_capacity(pivots.len());
    for _ in 0..pivots.len() {
        let mut row = Vec::with_capacity(n);
        for _ in 0..n {
            row.push(r.f64()?);
        }
        rows.push(row);
    }
    let preprocessing = r.u64()?;
    Laesa::from_parts(db, pivots, rows, preprocessing).map_err(|e| StoreError::Corrupt {
        detail: e.to_string(),
    })
}

/// Encode a snapshot of `view` into a fresh byte buffer.
///
/// `metric` is the `(code, flag)` pair identifying the distance the
/// index was built with — the loader refuses to pair the bytes with a
/// different metric. Tombstones are read off the view's backend and
/// written as a [`kind::TOMBSTONES`] record when non-empty.
pub fn encode_snapshot<S: WireSymbol>(metric: (u8, u8), view: &IndexView<'_, S>) -> Vec<u8> {
    encode_snapshot_with(metric, view, None)
}

/// [`encode_snapshot`] plus an opaque planner-decision blob
/// (`cned-plan`'s byte codec), written as a [`kind::PLAN`] record so
/// `Backend::Auto` restores its decision bit-identically on warm
/// restart.
pub fn encode_snapshot_with<S: WireSymbol>(
    metric: (u8, u8),
    view: &IndexView<'_, S>,
    plan: Option<&[u8]>,
) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&SNAP_MAGIC);
    out.push(SNAP_VERSION);
    out.push(S::WIDTH as u8);

    let (tag, items) = match view {
        IndexView::Linear(i) => (backend::LINEAR, MetricIndex::len(*i) as u64),
        IndexView::Laesa(i) => (backend::LAESA, MetricIndex::len(*i) as u64),
        IndexView::Sharded(i) => (backend::SHARDED, i.len() as u64),
    };
    let mut body = Vec::new();
    body.push(metric.0);
    body.push(metric.1);
    body.push(tag);
    put_u64(&mut body, items);
    record(&mut out, kind::META, &body);

    match view {
        IndexView::Linear(i) => {
            body.clear();
            put_item_list(&mut body, i.database().iter().map(Vec::as_slice));
            record(&mut out, kind::LINEAR, &body);
        }
        IndexView::Laesa(i) => {
            body.clear();
            put_laesa_body(&mut body, i);
            record(&mut out, kind::LAESA, &body);
        }
        IndexView::Sharded(i) => {
            let config = i.config();
            body.clear();
            put_u64(&mut body, config.shards as u64);
            put_u64(&mut body, config.pivots_per_shard as u64);
            put_u64(&mut body, config.compact_threshold as u64);
            body.push(config.min_fill_percent);
            put_u64(&mut body, i.preprocessing_computations());
            record(&mut out, kind::SHARDED_META, &body);

            for (offset, shard) in i.shard_views() {
                body.clear();
                put_u64(&mut body, offset as u64);
                put_laesa_body(&mut body, shard);
                record(&mut out, kind::SHARD, &body);
            }

            body.clear();
            put_item_list(&mut body, i.delta_items().iter().map(Vec::as_slice));
            record(&mut out, kind::DELTA, &body);
        }
    }

    let dead = view.tombstone_indices();
    if !dead.is_empty() {
        body.clear();
        put_u64(&mut body, dead.len() as u64);
        for &idx in &dead {
            put_u64(&mut body, idx);
        }
        record(&mut out, kind::TOMBSTONES, &body);
    }
    if let Some(plan) = plan {
        record(&mut out, kind::PLAN, plan);
    }

    record(&mut out, kind::END, &[]);
    out
}

// ---------------------------------------------------------------- decode

/// One verified record: its kind and body slice.
struct Record<'a> {
    kind: u8,
    body: &'a [u8],
}

/// Read and CRC-verify the next record.
fn next_record<'a>(r: &mut Reader<'a>) -> Result<Record<'a>, StoreError> {
    let k = r.u8()?;
    let len = r.u32()? as usize;
    if len > MAX_RECORD {
        return Err(StoreError::Corrupt {
            detail: format!("record length {len} exceeds the {MAX_RECORD}-byte bound"),
        });
    }
    let body = r.take(len)?;
    let stored = r.u32()?;
    // The CRC covers kind + length prefix + body — everything between
    // the record start and the checksum itself.
    let mut c = Crc32::new();
    c.update(&[k]);
    c.update(&(len as u32).to_le_bytes());
    c.update(body);
    if stored != c.finish() {
        return Err(StoreError::Checksum {
            what: "snapshot record",
        });
    }
    Ok(Record { kind: k, body })
}

/// Parse a snapshot header (magic, version, symbol width), returning
/// the reader positioned at the first record.
fn snapshot_header<'a, S: WireSymbol>(bytes: &'a [u8]) -> Result<Reader<'a>, StoreError> {
    let mut r = Reader::new(bytes);
    if r.take(8)? != SNAP_MAGIC {
        return Err(StoreError::BadMagic {
            expected: SNAP_MAGIC,
        });
    }
    // v1 files (no TOMBSTONES / PLAN records) still decode.
    let version = r.u8()?;
    if version != 1 && version != SNAP_VERSION {
        return Err(StoreError::BadVersion {
            expected: SNAP_VERSION,
            got: version,
        });
    }
    let width = r.u8()?;
    if width as usize != S::WIDTH {
        return Err(StoreError::BadSymbolWidth {
            expected: S::WIDTH as u8,
            got: width,
        });
    }
    Ok(r)
}

fn parse_meta(body: &[u8]) -> Result<SnapshotMeta, StoreError> {
    let mut r = Reader::new(body);
    let meta = SnapshotMeta {
        metric_code: r.u8()?,
        metric_flag: r.u8()?,
        backend: r.u8()?,
        items: r.u64()?,
    };
    Ok(meta)
}

/// Decode just the META record — enough for replica-sync planning
/// (base item count, metric identity) without materialising the index.
pub fn read_snapshot_meta<S: WireSymbol>(bytes: &[u8]) -> Result<SnapshotMeta, StoreError> {
    let mut r = snapshot_header::<S>(bytes)?;
    let rec = next_record(&mut r)?;
    if rec.kind != kind::META {
        return Err(StoreError::Corrupt {
            detail: format!("first record must be META, found kind {}", rec.kind),
        });
    }
    parse_meta(rec.body)
}

/// Whether a snapshot carries a [`kind::TOMBSTONES`] record — i.e.
/// deletes have been folded into it that a log tail can no longer
/// convey. Walks the record stream without materialising the index.
pub fn snapshot_has_tombstones<S: WireSymbol>(bytes: &[u8]) -> Result<bool, StoreError> {
    let mut r = snapshot_header::<S>(bytes)?;
    loop {
        let rec = next_record(&mut r)?;
        match rec.kind {
            kind::TOMBSTONES => return Ok(true),
            kind::END => return Ok(false),
            _ => {}
        }
    }
}

/// Decode a full snapshot into its metadata and an owned index
/// (tombstones restored into the backend; the planner blob, if any,
/// is dropped — use [`decode_snapshot_plan`] to keep it).
pub fn decode_snapshot<S: WireSymbol>(
    bytes: &[u8],
) -> Result<(SnapshotMeta, StoredIndex<S>), StoreError> {
    let (meta, index, _) = decode_snapshot_plan(bytes)?;
    Ok((meta, index))
}

/// Everything a snapshot decodes to: metadata, the rebuilt index, and
/// the planner-decision blob persisted alongside it (if any).
pub type DecodedSnapshot<S> = (SnapshotMeta, StoredIndex<S>, Option<Vec<u8>>);

/// Decode a full snapshot into its metadata, an owned index and the
/// planner-decision blob stored alongside it (if any).
pub fn decode_snapshot_plan<S: WireSymbol>(bytes: &[u8]) -> Result<DecodedSnapshot<S>, StoreError> {
    let mut r = snapshot_header::<S>(bytes)?;
    let rec = next_record(&mut r)?;
    if rec.kind != kind::META {
        return Err(StoreError::Corrupt {
            detail: format!("first record must be META, found kind {}", rec.kind),
        });
    }
    let meta = parse_meta(rec.body)?;

    let index = match meta.backend {
        backend::LINEAR => {
            let rec = expect_record(&mut r, kind::LINEAR)?;
            let mut body = Reader::new(rec.body);
            let items = get_item_list::<S>(&mut body)?;
            expect_consumed(&body, "LINEAR record")?;
            StoredIndex::Linear(LinearIndex::new(items))
        }
        backend::LAESA => {
            let rec = expect_record(&mut r, kind::LAESA)?;
            let mut body = Reader::new(rec.body);
            let index = get_laesa_body::<S>(&mut body)?;
            expect_consumed(&body, "LAESA record")?;
            StoredIndex::Laesa(index)
        }
        backend::SHARDED => {
            let rec = expect_record(&mut r, kind::SHARDED_META)?;
            let mut body = Reader::new(rec.body);
            let config = ShardConfig {
                shards: body.usize()?,
                pivots_per_shard: body.usize()?,
                compact_threshold: body.usize()?,
                min_fill_percent: body.u8()?,
            };
            let preprocessing = body.u64()?;
            expect_consumed(&body, "SHARDED_META record")?;

            let mut shards = Vec::new();
            let delta = loop {
                let rec = next_record(&mut r)?;
                match rec.kind {
                    kind::SHARD => {
                        let mut body = Reader::new(rec.body);
                        let offset = body.usize()?;
                        let shard = get_laesa_body::<S>(&mut body)?;
                        expect_consumed(&body, "SHARD record")?;
                        shards.push((offset, shard));
                    }
                    kind::DELTA => {
                        let mut body = Reader::new(rec.body);
                        let delta = get_item_list::<S>(&mut body)?;
                        expect_consumed(&body, "DELTA record")?;
                        break delta;
                    }
                    other => {
                        return Err(StoreError::Corrupt {
                            detail: format!("expected SHARD or DELTA record, found kind {other}"),
                        })
                    }
                }
            };
            let index =
                ShardedIndex::from_parts(shards, delta, config, preprocessing).map_err(|e| {
                    StoreError::Corrupt {
                        detail: e.to_string(),
                    }
                })?;
            StoredIndex::Sharded(index)
        }
        other => {
            return Err(StoreError::Unsupported {
                detail: format!("unknown backend tag {other}"),
            })
        }
    };

    // Optional trailing records (snapshot v2+): TOMBSTONES, then
    // PLAN, then the mandatory END terminator.
    let mut index = index;
    let mut plan = None;
    let mut rec = next_record(&mut r)?;
    if rec.kind == kind::TOMBSTONES {
        let mut body = Reader::new(rec.body);
        let count = body.usize()?;
        if count.saturating_mul(8) > body.remaining() {
            return Err(StoreError::Truncated {
                needed: count.saturating_mul(8),
                got: body.remaining(),
            });
        }
        let mut dead = Vec::with_capacity(count);
        for _ in 0..count {
            let idx = body.u64()?;
            if idx >= index.len() as u64 {
                return Err(StoreError::Corrupt {
                    detail: format!("tombstone index {idx} out of range"),
                });
            }
            dead.push(idx);
        }
        expect_consumed(&body, "TOMBSTONES record")?;
        let set = cned_search::TombstoneSet::from_indices(&dead);
        match &mut index {
            StoredIndex::Linear(i) => i.set_tombstones(set),
            StoredIndex::Laesa(i) => i.set_tombstones(set),
            StoredIndex::Sharded(i) => i.set_tombstones(set),
        }
        rec = next_record(&mut r)?;
    }
    if rec.kind == kind::PLAN {
        plan = Some(rec.body.to_vec());
        rec = next_record(&mut r)?;
    }
    if rec.kind != kind::END {
        return Err(StoreError::Corrupt {
            detail: format!("expected END record, found kind {}", rec.kind),
        });
    }
    if r.remaining() != 0 {
        return Err(StoreError::Corrupt {
            detail: format!("{} trailing bytes after END record", r.remaining()),
        });
    }
    if index.len() as u64 != meta.items {
        return Err(StoreError::Corrupt {
            detail: format!(
                "META promises {} items, body holds {}",
                meta.items,
                index.len()
            ),
        });
    }
    Ok((meta, index, plan))
}

fn expect_record<'a>(r: &mut Reader<'a>, want: u8) -> Result<Record<'a>, StoreError> {
    let rec = next_record(r)?;
    if rec.kind != want {
        return Err(StoreError::Corrupt {
            detail: format!("expected record kind {want}, found {}", rec.kind),
        });
    }
    Ok(rec)
}

fn expect_consumed(r: &Reader<'_>, what: &str) -> Result<(), StoreError> {
    if r.remaining() != 0 {
        return Err(StoreError::Corrupt {
            detail: format!("{} trailing bytes inside {what}", r.remaining()),
        });
    }
    Ok(())
}

// ---------------------------------------------------------------- files

/// Write `bytes` to `path` atomically: write a sibling temp file,
/// fsync it, rename over `path`, fsync the directory. A crash at any
/// point leaves either the old complete file or the new complete file.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), StoreError> {
    use std::io::Write;
    let tmp = path.with_extension("tmp");
    let mut f = std::fs::File::create(&tmp).map_err(|e| StoreError::io("create temp file", e))?;
    f.write_all(bytes)
        .map_err(|e| StoreError::io("write temp file", e))?;
    f.sync_all()
        .map_err(|e| StoreError::io("fsync temp file", e))?;
    drop(f);
    std::fs::rename(&tmp, path).map_err(|e| StoreError::io("rename snapshot", e))?;
    if let Some(dir) = path.parent() {
        // Make the rename itself durable. Some filesystems do not
        // support fsync on directories; degrade silently there.
        if let Ok(d) = std::fs::File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}
