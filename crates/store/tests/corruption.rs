//! Corruption resilience: a snapshot or WAL file that has been
//! truncated, bit-flipped, or written by a different format version
//! must decode to a **typed** [`StoreError`] (or, for a WAL tail, a
//! clean prefix) — never a panic, never a silently wrong index.
//!
//! These are the on-disk analogue of the wire fuzz tests: the decoder
//! trusts nothing it reads.

use cned_search::linear::LinearIndex;
use cned_serve::server::ReplOp;
use cned_store::wal::{replay, Wal};
use cned_store::{
    decode_snapshot, encode_snapshot, read_snapshot_meta, IndexView, StoreError, SNAP_VERSION,
    WAL_VERSION,
};
use proptest::prelude::*;

fn word() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(97u8..=122, 0..=10)
}

fn snapshot_bytes(db: Vec<Vec<u8>>) -> Vec<u8> {
    let index = LinearIndex::new(db);
    let view = IndexView::of(&index).expect("linear is persistable");
    encode_snapshot((1, 0), &view)
}

/// Build real WAL bytes by driving the append path against a temp
/// file, then reading the file back.
fn wal_bytes(items: &[Vec<u8>]) -> Vec<u8> {
    let dir = std::env::temp_dir().join(format!(
        "cned-store-corruption-{}-{:p}",
        std::process::id(),
        items.as_ptr()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("wal.cned");
    {
        let mut wal = Wal::open::<u8>(&path).unwrap();
        for (seq, item) in items.iter().enumerate() {
            wal.append::<u8>(seq as u64, item).unwrap();
        }
    }
    let bytes = std::fs::read(&path).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    bytes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn truncated_snapshot_is_a_typed_error(
        db in proptest::collection::vec(word(), 1..=12),
        cut in 0.0f64..1.0,
    ) {
        let bytes = snapshot_bytes(db);
        // Any strict prefix loses at least the END record.
        let keep = ((bytes.len() as f64) * cut) as usize;
        prop_assert!(decode_snapshot::<u8>(&bytes[..keep]).is_err());
    }

    #[test]
    fn bit_flipped_snapshot_is_a_typed_error(
        db in proptest::collection::vec(word(), 1..=12),
        pos in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        let mut bytes = snapshot_bytes(db);
        let at = ((bytes.len() as f64) * pos) as usize % bytes.len();
        bytes[at] ^= 1 << bit;
        // CRC-32 catches every single-bit flip in a record; flips in
        // the header hit the magic/version/width checks; flips in a
        // length field derail framing. All are typed errors.
        prop_assert!(decode_snapshot::<u8>(&bytes).is_err());
    }

    #[test]
    fn version_skewed_snapshot_reports_bad_version(
        db in proptest::collection::vec(word(), 1..=8),
        skew in 1u8..=255,
    ) {
        let mut bytes = snapshot_bytes(db);
        // Version 1 is still decodable (back-compat), so skip skews
        // that land on it.
        if SNAP_VERSION.wrapping_add(skew) != 1 {
            bytes[8] = SNAP_VERSION.wrapping_add(skew);
            prop_assert!(matches!(
                decode_snapshot::<u8>(&bytes),
                Err(StoreError::BadVersion { expected, .. }) if expected == SNAP_VERSION
            ));
            prop_assert!(read_snapshot_meta::<u8>(&bytes).is_err());
        }
    }

    #[test]
    fn torn_wal_tail_drops_cleanly_and_never_panics(
        items in proptest::collection::vec(word(), 1..=10),
        cut in 0.0f64..1.0,
    ) {
        let bytes = wal_bytes(&items);
        let full = replay::<u8>(&bytes).unwrap();
        prop_assert_eq!(full.len(), items.len());
        // A crash can stop the file at any byte ≥ the header. The
        // replayed entries must be exactly a prefix of what was
        // appended — a torn final entry vanishes, never misparses.
        let header = 10;
        let keep = header + (((bytes.len() - header) as f64) * cut) as usize;
        let replayed = replay::<u8>(&bytes[..keep]).unwrap();
        prop_assert!(replayed.len() <= items.len());
        for (i, op) in replayed.iter().enumerate() {
            match op {
                ReplOp::Insert { seq, item } => {
                    prop_assert_eq!(*seq, i as u64);
                    prop_assert_eq!(item, &items[i]);
                }
                ReplOp::Delete { .. } => prop_assert!(false, "append-only log replayed a delete"),
            }
        }
    }

    #[test]
    fn bit_flipped_wal_never_yields_wrong_entries(
        items in proptest::collection::vec(word(), 1..=10),
        pos in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        let mut bytes = wal_bytes(&items);
        let at = ((bytes.len() as f64) * pos) as usize % bytes.len();
        bytes[at] ^= 1 << bit;
        // Three acceptable outcomes: a typed error (header or CRC), or
        // a *prefix* of the real entries (a corrupted length makes the
        // tail look torn). Never a panic, never an altered entry.
        if let Ok(replayed) = replay::<u8>(&bytes) {
            prop_assert!(replayed.len() < items.len());
            for (i, op) in replayed.iter().enumerate() {
                match op {
                    ReplOp::Insert { seq, item } => {
                        prop_assert_eq!(*seq, i as u64);
                        prop_assert_eq!(item, &items[i]);
                    }
                    ReplOp::Delete { .. } => {
                        prop_assert!(false, "bit flip surfaced as a delete entry")
                    }
                }
            }
        }
    }

    #[test]
    fn version_skewed_wal_reports_bad_version(
        items in proptest::collection::vec(word(), 1..=6),
        skew in 1u8..=255,
    ) {
        let mut bytes = wal_bytes(&items);
        // Version 1 is still decodable (back-compat), so skip skews
        // that land on it.
        if WAL_VERSION.wrapping_add(skew) != 1 {
            bytes[8] = WAL_VERSION.wrapping_add(skew);
            prop_assert!(matches!(
                replay::<u8>(&bytes),
                Err(StoreError::BadVersion { expected, .. }) if expected == WAL_VERSION
            ));
        }
    }
}
