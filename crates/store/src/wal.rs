//! The write-ahead log: an append-only, fsync-on-commit record of
//! every insert and delete accepted since the last snapshot.
//!
//! The durability contract is *disk before ack*: [`Wal::append`] /
//! [`Wal::append_delete`] fsync before they return, and the caller
//! only acknowledges the write (resolves the client's ticket) after
//! that return. A crash therefore loses at most writes that were
//! never acknowledged — and those appear, if at all, as a torn tail
//! that replay drops. See the layout notes in [`crate::format`].

use cned_core::metric::Distance;
use cned_search::{MetricIndex, SearchError};
use cned_serve::server::ReplOp;
use cned_serve::wire::WireSymbol;
use std::fs::{File, OpenOptions};
use std::io::{Read as _, Write as _};
use std::path::{Path, PathBuf};

use crate::format::{
    crc32, put_u32, put_u64, Reader, StoreError, MAX_RECORD, WAL_MAGIC, WAL_VERSION,
};

/// Byte length of the WAL header (magic + version + symbol width).
const HEADER_LEN: usize = 10;

/// WAL v2 entry op byte: an accepted insert (`[seq][item]` body).
const OP_INSERT: u8 = 1;
/// WAL v2 entry op byte: an accepted delete (`[index u64]` body).
const OP_DELETE: u8 = 2;

/// An open WAL file, positioned for appends.
pub struct Wal {
    file: File,
    path: PathBuf,
    /// Entries appended since the file was last truncated.
    entries: u64,
}

impl Wal {
    /// Open `path` for appending, creating it (with a fresh header) if
    /// missing or empty. Existing contents are validated only by
    /// [`replay`]; opening is cheap.
    pub fn open<S: WireSymbol>(path: &Path) -> Result<Wal, StoreError> {
        let mut file = OpenOptions::new()
            .create(true)
            .append(true)
            .read(true)
            .open(path)
            .map_err(|e| StoreError::io("open wal", e))?;
        let len = file
            .metadata()
            .map_err(|e| StoreError::io("stat wal", e))?
            .len();
        if len == 0 {
            file.write_all(&header::<S>())
                .map_err(|e| StoreError::io("write wal header", e))?;
            file.sync_all()
                .map_err(|e| StoreError::io("fsync wal header", e))?;
        }
        Ok(Wal {
            file,
            path: path.to_path_buf(),
            entries: 0,
        })
    }

    /// Entries appended through this handle since open/truncate.
    pub fn entries(&self) -> u64 {
        self.entries
    }

    /// Append one committed insert and fsync. `seq` is the item's
    /// global index (== the index count before the insert).
    pub fn append<S: WireSymbol>(&mut self, seq: u64, item: &[S]) -> Result<(), StoreError> {
        let mut buf = Vec::with_capacity(4 + 1 + 8 + 4 + item.len() * S::WIDTH + 4);
        encode_entry(&mut buf, seq, item);
        self.write_entry(&buf)
    }

    /// Append one committed delete (the tombstoned item's global
    /// `index`) and fsync.
    pub fn append_delete(&mut self, index: u64) -> Result<(), StoreError> {
        let mut buf = Vec::with_capacity(4 + 1 + 8 + 4);
        encode_delete_entry(&mut buf, index);
        self.write_entry(&buf)
    }

    fn write_entry(&mut self, buf: &[u8]) -> Result<(), StoreError> {
        self.file
            .write_all(buf)
            .map_err(|e| StoreError::io("append wal entry", e))?;
        self.file
            .sync_all()
            .map_err(|e| StoreError::io("fsync wal entry", e))?;
        self.entries += 1;
        Ok(())
    }

    /// Drop all entries (after a snapshot has captured them): truncate
    /// back to a fresh header and fsync.
    pub fn truncate<S: WireSymbol>(&mut self) -> Result<(), StoreError> {
        self.file
            .set_len(0)
            .map_err(|e| StoreError::io("truncate wal", e))?;
        // append-mode writes follow the (now clamped) end of file.
        self.file
            .write_all(&header::<S>())
            .map_err(|e| StoreError::io("write wal header", e))?;
        self.file
            .sync_all()
            .map_err(|e| StoreError::io("fsync wal", e))?;
        self.entries = 0;
        Ok(())
    }

    /// The file path this WAL appends to.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

fn header<S: WireSymbol>() -> [u8; HEADER_LEN] {
    let mut h = [0u8; HEADER_LEN];
    h[..8].copy_from_slice(&WAL_MAGIC);
    h[8] = WAL_VERSION;
    h[9] = S::WIDTH as u8;
    h
}

/// Append one `[len][op=insert][seq][item][crc]` entry to `buf`.
pub fn encode_entry<S: WireSymbol>(buf: &mut Vec<u8>, seq: u64, item: &[S]) {
    let start = buf.len();
    let body_len = 1 + 8 + 4 + item.len() * S::WIDTH;
    put_u32(buf, body_len as u32);
    buf.push(OP_INSERT);
    put_u64(buf, seq);
    put_u32(buf, item.len() as u32);
    for &sym in item {
        sym.put(buf);
    }
    let crc = crc32(&buf[start..]);
    put_u32(buf, crc);
}

/// Append one `[len][op=delete][index][crc]` entry to `buf`.
pub fn encode_delete_entry(buf: &mut Vec<u8>, index: u64) {
    let start = buf.len();
    put_u32(buf, (1 + 8) as u32);
    buf.push(OP_DELETE);
    put_u64(buf, index);
    let crc = crc32(&buf[start..]);
    put_u32(buf, crc);
}

/// Replay a WAL byte buffer into its committed ops ([`ReplOp`], the
/// same write type replicas stream), in commit order.
///
/// Both WAL versions replay: v1 entries are implicit inserts (no op
/// byte); v2 entries carry an op byte. A tail that ends mid-entry —
/// including a length prefix promising more bytes than the file
/// holds — is treated as a torn final write and dropped: the entry's
/// fsync never completed, so no client was ever told it succeeded. A
/// *complete* entry with a CRC mismatch is corruption and fails
/// typed.
pub fn replay<S: WireSymbol>(bytes: &[u8]) -> Result<Vec<ReplOp<S>>, StoreError> {
    let mut r = Reader::new(bytes);
    if r.take(8).map_err(|_| StoreError::Truncated {
        needed: HEADER_LEN,
        got: bytes.len(),
    })? != WAL_MAGIC
    {
        return Err(StoreError::BadMagic {
            expected: WAL_MAGIC,
        });
    }
    let version = r.u8()?;
    if version != 1 && version != WAL_VERSION {
        return Err(StoreError::BadVersion {
            expected: WAL_VERSION,
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

    let mut out = Vec::new();
    loop {
        if r.remaining() == 0 {
            return Ok(out);
        }
        if r.remaining() < 4 {
            // Torn mid-length-prefix: drop silently (see doc comment).
            return Ok(out);
        }
        let len = r.u32()? as usize;
        if len > MAX_RECORD {
            return Err(StoreError::Corrupt {
                detail: format!("wal entry length {len} exceeds the {MAX_RECORD}-byte bound"),
            });
        }
        if len + 4 > r.remaining() {
            // Torn mid-entry (body + CRC incomplete): drop silently.
            return Ok(out);
        }
        let body = r.take(len)?;
        let stored = r.u32()?;
        let mut c = crate::format::Crc32::new();
        c.update(&(len as u32).to_le_bytes());
        c.update(body);
        if stored != c.finish() {
            return Err(StoreError::Checksum { what: "wal entry" });
        }
        let mut b = Reader::new(body);
        let op = if version == 1 { OP_INSERT } else { b.u8()? };
        let entry = match op {
            OP_INSERT => {
                let seq = b.u64()?;
                let count = b.u32()? as usize;
                let sym_bytes = b.take(count.saturating_mul(S::WIDTH))?;
                ReplOp::Insert {
                    seq,
                    item: sym_bytes.chunks_exact(S::WIDTH).map(S::get).collect(),
                }
            }
            OP_DELETE => ReplOp::Delete { index: b.u64()? },
            other => {
                return Err(StoreError::Corrupt {
                    detail: format!("unknown wal op byte {other}"),
                })
            }
        };
        if b.remaining() != 0 {
            return Err(StoreError::Corrupt {
                detail: format!("{} trailing bytes inside wal entry", b.remaining()),
            });
        }
        out.push(entry);
    }
}

/// Read and replay a WAL file from disk. A missing file replays empty
/// (a fresh data dir has no log yet).
pub fn replay_file<S: WireSymbol>(path: &Path) -> Result<Vec<ReplOp<S>>, StoreError> {
    let mut bytes = Vec::new();
    match File::open(path) {
        Ok(mut f) => {
            f.read_to_end(&mut bytes)
                .map_err(|e| StoreError::io("read wal", e))?;
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(StoreError::io("open wal", e)),
    }
    replay::<S>(&bytes)
}

/// Apply one logged write to `index`: the replay rule shared by WAL
/// recovery ([`crate::Durable::recover`]) and a replica's catch-up
/// tail.
///
/// An insert whose `seq` is below the index length is already held (a
/// snapshot written just before a crash, or a tail overlapping the
/// replica's own state) and is skipped; one above it means a lost
/// entry and fails. A delete must address an existing slot; replaying
/// one already applied is a no-op, since deletes are idempotent.
pub fn apply<S: WireSymbol>(
    index: &mut dyn MetricIndex<S>,
    op: ReplOp<S>,
    dist: &dyn Distance<S>,
) -> Result<(), StoreError> {
    match op {
        ReplOp::Insert { seq, item } => {
            let len = index.len() as u64;
            if seq < len {
                return Ok(());
            }
            if seq > len {
                return Err(StoreError::Corrupt {
                    detail: format!("sequence gap: log holds {seq}, index holds {len} items"),
                });
            }
            index
                .as_insertable()
                .ok_or(SearchError::UnsupportedConfig {
                    reason: "this backend does not support inserts",
                })
                .and_then(|insertable| insertable.insert(item, dist))
                .map_err(|e| StoreError::Corrupt {
                    detail: format!("replayed insert failed: {e}"),
                })?;
        }
        ReplOp::Delete { index: target } => {
            let len = index.len();
            let slot = usize::try_from(target)
                .ok()
                .filter(|&slot| slot < len)
                .ok_or_else(|| StoreError::Corrupt {
                    detail: format!("delete index {target} out of range ({len} items)"),
                })?;
            index.delete(slot).map_err(|e| StoreError::Corrupt {
                detail: format!("replayed delete failed: {e}"),
            })?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(entries: &[(u64, Vec<u32>)]) -> Vec<u8> {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&header::<u32>());
        for (seq, item) in entries {
            encode_entry(&mut bytes, *seq, item);
        }
        bytes
    }

    fn inserts(entries: &[(u64, Vec<u32>)]) -> Vec<ReplOp<u32>> {
        entries
            .iter()
            .map(|(seq, item)| ReplOp::Insert {
                seq: *seq,
                item: item.clone(),
            })
            .collect()
    }

    #[test]
    fn replay_roundtrips() {
        let entries = vec![(3, vec![1u32, 2, 3]), (4, vec![]), (5, vec![9])];
        assert_eq!(
            replay::<u32>(&roundtrip(&entries)).unwrap(),
            inserts(&entries)
        );
    }

    #[test]
    fn mixed_insert_delete_log_replays_in_commit_order() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&header::<u32>());
        encode_entry(&mut bytes, 0, &[7u32, 8]);
        encode_delete_entry(&mut bytes, 0);
        encode_entry(&mut bytes, 1, &[9u32]);
        encode_delete_entry(&mut bytes, 5);
        assert_eq!(
            replay::<u32>(&bytes).unwrap(),
            vec![
                ReplOp::Insert {
                    seq: 0,
                    item: vec![7, 8],
                },
                ReplOp::Delete { index: 0 },
                ReplOp::Insert {
                    seq: 1,
                    item: vec![9],
                },
                ReplOp::Delete { index: 5 },
            ]
        );
    }

    #[test]
    fn v1_logs_replay_as_implicit_inserts() {
        // A v1 entry is `[len][seq][item][crc]` with no op byte.
        let mut bytes = Vec::new();
        let mut h = header::<u32>();
        h[8] = 1; // WAL v1
        bytes.extend_from_slice(&h);
        let start = bytes.len();
        let item = [4u32, 5];
        put_u32(&mut bytes, (8 + 4 + item.len() * 4) as u32);
        put_u64(&mut bytes, 9);
        put_u32(&mut bytes, item.len() as u32);
        for &sym in &item {
            sym.put(&mut bytes);
        }
        let crc = crc32(&bytes[start..]);
        put_u32(&mut bytes, crc);
        assert_eq!(
            replay::<u32>(&bytes).unwrap(),
            vec![ReplOp::Insert {
                seq: 9,
                item: vec![4, 5],
            }]
        );
    }

    #[test]
    fn torn_tail_is_dropped_silently() {
        let entries = vec![(0, vec![7u32, 8]), (1, vec![9u32])];
        let bytes = roundtrip(&entries);
        // Cutting anywhere inside the last entry must still replay the
        // first entry and drop the torn one, with no error.
        let first_only = roundtrip(&entries[..1]);
        for cut in first_only.len()..bytes.len() {
            let got = replay::<u32>(&bytes[..cut]).unwrap();
            assert_eq!(got, inserts(&entries[..1]), "cut at {cut}");
        }
    }

    #[test]
    fn bit_flip_in_complete_entry_is_a_checksum_error() {
        let bytes = roundtrip(&[(0, vec![7u32, 8]), (1, vec![9u32])]);
        // Flip a byte inside the FIRST entry's body (not the tail).
        let mut evil = bytes.clone();
        evil[HEADER_LEN + 6] ^= 0x40;
        assert_eq!(
            replay::<u32>(&evil),
            Err(StoreError::Checksum { what: "wal entry" })
        );
    }

    #[test]
    fn version_and_width_skew_fail_typed() {
        let bytes = roundtrip(&[(0, vec![1u32])]);
        let mut wrong_version = bytes.clone();
        wrong_version[8] = WAL_VERSION + 1;
        assert!(matches!(
            replay::<u32>(&wrong_version),
            Err(StoreError::BadVersion { .. })
        ));
        let mut wrong_width = bytes;
        wrong_width[9] = 1;
        assert!(matches!(
            replay::<u32>(&wrong_width),
            Err(StoreError::BadSymbolWidth { .. })
        ));
    }
}
