//! [`Durable`]: the persistence wrapper a serving session owns.
//!
//! Wraps any persistable [`MetricIndex`] (one [`IndexView::of`]
//! accepts: a linear, LAESA or sharded backend, possibly behind a
//! cache) and threads every accepted write (insert or delete) through
//! the durability pipeline, in this order:
//!
//! 1. **WAL append + fsync** — the write is on disk before anything
//!    else observes it. If this fails, the write fails typed and the
//!    in-memory index is untouched.
//! 2. **In-memory apply** — the index mutates only after the entry is
//!    durable, so disk is always a superset of acknowledged state.
//! 3. **Feed publish** — replica subscribers receive the op strictly
//!    after the durable write, which is what makes the hub's
//!    subscribe-then-read-disk registration protocol gap-free.
//! 4. **Threshold snapshot** — once `snapshot_every` WAL entries
//!    accumulate, the index is re-snapshotted and the WAL truncated.
//!
//! Snapshots happen *on the scheduler thread inside the write call*,
//! which is exactly the consistency barrier the session already
//! provides: no query or other insert can observe the index mid-write.
//!
//! The wrapper implements [`MetricIndex`]/[`InsertableIndex`], so a
//! `ServeSession` owns it like any other backend and the whole
//! serving stack gains durability without learning anything new.

use cned_core::metric::Distance;
use cned_search::{
    InsertableIndex, MetricIndex, Neighbour, QueryOptions, SearchError, SearchStats,
};
use cned_serve::ordered::{rank, OrderedMutex};
use cned_serve::server::ReplOp;
use cned_serve::wire::WireSymbol;
use cned_serve::Doorbell;
use std::path::{Path, PathBuf};
use std::sync::{mpsc, Arc};

use crate::format::StoreError;
use crate::snapshot::{
    encode_snapshot_with, write_atomic, DecodedSnapshot, IndexView, StoredIndex,
};
use crate::wal::{apply, replay_file, Wal};

/// Snapshot file name inside a data dir.
pub const SNAPSHOT_FILE: &str = "snapshot.cned";
/// WAL file name inside a data dir.
pub const WAL_FILE: &str = "wal.cned";

/// State shared between a [`Durable`] (scheduler thread) and its
/// [`crate::StoreHub`] (event-loop threads).
pub(crate) struct StoreShared<S: WireSymbol> {
    pub(crate) dir: PathBuf,
    /// Live replica subscriptions, each with its event loop's bell.
    /// Rank 30: taken alone, briefly, by either side.
    pub(crate) subs: OrderedMutex<Vec<(mpsc::Sender<ReplOp<S>>, Doorbell)>>,
    /// Guards the *install* of new file states (snapshot rename + WAL
    /// truncate) against concurrent sync-payload reads. Plain appends
    /// don't take it — a torn WAL tail is harmless to a reader, but an
    /// old-snapshot/new-WAL interleaving would open a sequence gap.
    /// Rank 31.
    pub(crate) files: OrderedMutex<()>,
}

impl<S: WireSymbol> StoreShared<S> {
    pub(crate) fn snapshot_path(&self) -> PathBuf {
        self.dir.join(SNAPSHOT_FILE)
    }

    pub(crate) fn wal_path(&self) -> PathBuf {
        self.dir.join(WAL_FILE)
    }

    /// Deliver one durable write to every live subscriber and ring its
    /// loop, dropping subscriptions whose receiver has gone away.
    fn publish(&self, op: &ReplOp<S>) {
        let mut subs = self.subs.lock();
        subs.retain(|(tx, bell)| {
            let live = tx.send(op.clone()).is_ok();
            if live {
                bell.ring();
            }
            live
        });
    }

    pub(crate) fn subscribe(&self, bell: Doorbell) -> mpsc::Receiver<ReplOp<S>> {
        let (tx, rx) = mpsc::channel();
        self.subs.lock().push((tx, bell));
        rx
    }
}

/// A persistent index: a persistable [`MetricIndex`] plus its data
/// dir, WAL and snapshot policy. See the module docs for the insert
/// pipeline. [`Durable::recover`] yields one over the decoded
/// [`StoredIndex`]; [`Durable::create`] takes whatever index the
/// caller built.
pub struct Durable<S: WireSymbol, I: MetricIndex<S> = StoredIndex<S>> {
    inner: I,
    metric: (u8, u8),
    wal: Wal,
    snapshot_every: u64,
    shared: Arc<StoreShared<S>>,
    /// Opaque planner-decision blob (`cned-plan` codec) carried into
    /// every snapshot, so `Backend::Auto` restores its decision
    /// bit-identically on warm restart.
    plan: Option<Vec<u8>>,
}

/// Does `dir` hold a snapshot a [`Durable::recover`] could load?
pub fn data_dir_initialised(dir: &Path) -> bool {
    dir.join(SNAPSHOT_FILE).is_file()
}

/// The codec's view of `index`, or a typed refusal for a backend the
/// snapshot format cannot hold.
fn view_of<S: WireSymbol>(index: &dyn MetricIndex<S>) -> Result<IndexView<'_, S>, StoreError> {
    IndexView::of(index).ok_or_else(|| StoreError::Unsupported {
        detail: "only the linear, laesa and sharded backends can be persisted".into(),
    })
}

fn shared_state<S: WireSymbol>(dir: &Path) -> Arc<StoreShared<S>> {
    Arc::new(StoreShared {
        dir: dir.to_path_buf(),
        subs: OrderedMutex::new(rank::STORE_SUBS, "StoreShared::subs", Vec::new()),
        files: OrderedMutex::new(rank::STORE_FILES, "StoreShared::files", ()),
    })
}

impl<S: WireSymbol> Durable<S> {
    /// Recover a data dir from its decoded snapshot (`decoded` is
    /// [`crate::decode_snapshot_plan`] of the dir's [`SNAPSHOT_FILE`]): replay
    /// the WAL on top ([`crate::wal::apply`]), then fold the replayed
    /// tail into a fresh snapshot so the next boot starts from a clean
    /// log.
    ///
    /// `dist` must be the metric the snapshot was built with; the
    /// caller maps the [`crate::SnapshotMeta`] codes back to it (the
    /// `cned::Database` facade does this).
    pub fn recover(
        dir: &Path,
        decoded: DecodedSnapshot<S>,
        dist: &dyn Distance<S>,
        snapshot_every: u64,
    ) -> Result<Durable<S>, StoreError> {
        let (meta, mut index, plan) = decoded;
        let shared = shared_state(dir);
        for op in replay_file::<S>(&shared.wal_path())? {
            apply(&mut index, op, dist)?;
        }
        let wal = Wal::open::<S>(&shared.wal_path())?;
        let mut durable = Durable {
            inner: index,
            metric: (meta.metric_code, meta.metric_flag),
            wal,
            snapshot_every: snapshot_every.max(1),
            shared,
            plan,
        };
        // Fold the replayed tail into the snapshot immediately: replay
        // cost stays bounded across repeated restarts.
        durable.snapshot()?;
        Ok(durable)
    }
}

impl<S: WireSymbol, I: MetricIndex<S>> Durable<S, I> {
    /// Initialise a fresh data dir from an in-memory index: write its
    /// first snapshot and an empty WAL. Fails typed if the index is
    /// not persistable or the dir cannot be created or written; any
    /// existing snapshot/WAL is replaced.
    pub fn create(
        dir: &Path,
        metric: (u8, u8),
        index: I,
        snapshot_every: u64,
    ) -> Result<Durable<S, I>, StoreError> {
        Durable::create_with(dir, metric, index, None, snapshot_every)
    }

    /// [`Durable::create`] plus the planner-decision blob persisted
    /// with every snapshot (it survives warm restarts via the
    /// snapshot's PLAN record).
    pub fn create_with(
        dir: &Path,
        metric: (u8, u8),
        index: I,
        plan: Option<Vec<u8>>,
        snapshot_every: u64,
    ) -> Result<Durable<S, I>, StoreError> {
        let bytes = encode_snapshot_with(metric, &view_of(&index)?, plan.as_deref());
        std::fs::create_dir_all(dir).map_err(|e| StoreError::io("create data dir", e))?;
        let shared = shared_state(dir);
        write_atomic(&shared.snapshot_path(), &bytes)?;
        // Replace any stale WAL from a previous incarnation of the dir.
        let mut wal = Wal::open::<S>(&shared.wal_path())?;
        wal.truncate::<S>()?;
        Ok(Durable {
            inner: index,
            metric,
            wal,
            snapshot_every: snapshot_every.max(1),
            shared,
            plan,
        })
    }

    /// Metric identity `(code, flag)` persisted in the snapshot.
    pub fn metric(&self) -> (u8, u8) {
        self.metric
    }

    /// WAL entries accumulated since the last snapshot.
    pub fn wal_entries(&self) -> u64 {
        self.wal.entries()
    }

    /// A [`crate::StoreHub`] serving replica registrations from this
    /// store's files.
    pub fn hub(&self) -> crate::StoreHub<S> {
        crate::StoreHub {
            shared: Arc::clone(&self.shared),
        }
    }

    /// The planner-decision blob carried into snapshots, if any.
    pub fn plan(&self) -> Option<&[u8]> {
        self.plan.as_deref()
    }

    /// Write a fresh snapshot of the current index and truncate the
    /// WAL. Called automatically by the threshold policy and on drop;
    /// callable directly for explicit checkpoints.
    pub fn snapshot(&mut self) -> Result<(), StoreError> {
        let bytes = encode_snapshot_with(self.metric, &view_of(&self.inner)?, self.plan.as_deref());
        // Install under the files lock so a concurrently registering
        // replica never pairs the old snapshot with the new WAL.
        let _g = self.shared.files.lock();
        write_atomic(&self.shared.snapshot_path(), &bytes)?;
        self.wal.truncate::<S>()
    }

    /// The durable insert pipeline (see module docs).
    pub fn insert(&mut self, item: Vec<S>, dist: &dyn Distance<S>) -> Result<usize, SearchError> {
        let seq = self.inner.len() as u64;
        // Refuse early for immutable backends: nothing may touch disk.
        let inner = self
            .inner
            .as_insertable()
            .ok_or(SearchError::UnsupportedConfig {
                reason: "laesa snapshots are immutable; rebuild or use the sharded backend",
            })?;
        self.wal.append(seq, &item).map_err(SearchError::from)?;
        let index = inner.insert(item.clone(), dist)?;
        debug_assert_eq!(
            index as u64, seq,
            "inserts append at the end of the database"
        );
        self.shared.publish(&ReplOp::Insert { seq, item });
        if self.wal.entries() >= self.snapshot_every {
            self.snapshot().map_err(SearchError::from)?;
        }
        Ok(index)
    }

    /// The durable delete pipeline: WAL append + fsync, tombstone the
    /// in-memory index, publish to replicas, threshold snapshot. A
    /// no-op delete (already tombstoned, or out of range) is answered
    /// `Ok(false)` *without* touching disk.
    pub fn delete(&mut self, index: usize) -> Result<bool, SearchError> {
        // An out-of-range delete cannot change anything — refuse it
        // before disk. Repeat deletes of a live-range index do write
        // a WAL entry (the backend's answer is only known after the
        // mutate), which is harmless: delete replay is idempotent.
        if index >= self.inner.len() {
            return Ok(false);
        }
        self.wal
            .append_delete(index as u64)
            .map_err(SearchError::from)?;
        let existed = self.inner.delete(index)?;
        self.shared.publish(&ReplOp::Delete {
            index: index as u64,
        });
        if self.wal.entries() >= self.snapshot_every {
            self.snapshot().map_err(SearchError::from)?;
        }
        Ok(existed)
    }
}

impl<S: WireSymbol, I: MetricIndex<S>> Drop for Durable<S, I> {
    fn drop(&mut self) {
        // Fold any WAL tail into a final snapshot so the next boot
        // loads without replay. Best-effort: on failure the WAL is
        // intact and recovery replays it instead.
        if self.wal.entries() > 0 {
            let _ = self.snapshot();
        }
    }
}

impl<S: WireSymbol, I: MetricIndex<S>> MetricIndex<S> for Durable<S, I> {
    fn len(&self) -> usize {
        self.inner.len()
    }

    fn backend_name(&self) -> &'static str {
        // Durability is transparent to query semantics; report the
        // wrapped backend.
        self.inner.backend_name()
    }

    fn item(&self, i: usize) -> Option<&[S]> {
        self.inner.item(i)
    }

    fn knn(
        &self,
        query: &[S],
        dist: &dyn Distance<S>,
        opts: &QueryOptions,
    ) -> Result<(Vec<Neighbour>, SearchStats), SearchError> {
        self.inner.knn(query, dist, opts)
    }

    fn range(
        &self,
        query: &[S],
        dist: &dyn Distance<S>,
        opts: &QueryOptions,
    ) -> Result<(Vec<Neighbour>, SearchStats), SearchError> {
        self.inner.range(query, dist, opts)
    }

    fn as_insertable(&mut self) -> Option<&mut dyn InsertableIndex<S>> {
        // Keep the typed "immutable backend" answer for LAESA.
        if self.inner.as_insertable().is_some() {
            Some(self)
        } else {
            None
        }
    }

    fn delete(&mut self, index: usize) -> Result<bool, SearchError> {
        // The durable pipeline, not the raw in-memory tombstone.
        Durable::delete(self, index)
    }

    fn deleted(&self) -> usize {
        self.inner.deleted()
    }

    fn is_deleted(&self, i: usize) -> bool {
        self.inner.is_deleted(i)
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        // Expose the wrapped backend, so `Database::save` keeps
        // working on an index handed back by a durable server's
        // shutdown.
        self.inner.as_any()
    }
}

impl<S: WireSymbol, I: MetricIndex<S>> InsertableIndex<S> for Durable<S, I> {
    fn insert(&mut self, item: Vec<S>, dist: &dyn Distance<S>) -> Result<usize, SearchError> {
        Durable::insert(self, item, dist)
    }
}
