//! Tombstone sets: logical deletion for immutable-layout indexes.
//!
//! Every backend keeps its candidate arrays, pivot tables and shard
//! tilings keyed by *physical* database index, and those indices are
//! the identity that clients, snapshots and replicas all share — so
//! deletion must not renumber anything. A [`TombstoneSet`] marks
//! indices dead without moving survivors: queries run over the full
//! physical corpus exactly as before and the dead are filtered out of
//! the answer at emission time (see the over-fetch wrappers in each
//! backend's `MetricIndex` impl). Physical removal happens only in an
//! explicit vacuum/rebuild, which re-derives the set from survivors.
//!
//! The representation is a dense `Vec<bool>` plus a count — no hash
//! containers, so iteration order questions never arise (the lint
//! determinism pass bans iterated hash maps on the answer path) and
//! [`TombstoneSet::indices`] is sorted by construction, which is what
//! the snapshot codec persists.

/// A set of logically deleted database indices.
///
/// `O(1)` membership and insertion; memory is one byte per physical
/// slot touched (the vector grows lazily to the highest dead index).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TombstoneSet {
    dead: Vec<bool>,
    count: usize,
}

impl TombstoneSet {
    /// An empty set.
    pub fn new() -> TombstoneSet {
        TombstoneSet::default()
    }

    /// Rebuild a set from a list of dead indices (snapshot decode,
    /// replica sync). Duplicates are tolerated and counted once.
    pub fn from_indices(indices: &[u64]) -> TombstoneSet {
        let mut set = TombstoneSet::new();
        for &i in indices {
            set.insert(i as usize);
        }
        set
    }

    /// Number of dead indices.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Whether no index is dead. The hot-path gate: every query
    /// wrapper checks this first and takes the historical zero-cost
    /// path when it holds.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Is `index` dead?
    #[inline]
    pub fn contains(&self, index: usize) -> bool {
        self.dead.get(index).copied().unwrap_or(false)
    }

    /// Mark `index` dead. Returns `true` if it was alive before.
    pub fn insert(&mut self, index: usize) -> bool {
        if index >= self.dead.len() {
            self.dead.resize(index + 1, false);
        }
        if self.dead[index] {
            return false;
        }
        self.dead[index] = true;
        self.count += 1;
        true
    }

    /// The dead indices, ascending. This is the canonical persisted
    /// form (snapshot `TOMBSTONES` record, replica catch-up).
    pub fn indices(&self) -> Vec<u64> {
        self.dead
            .iter()
            .enumerate()
            .filter(|(_, &d)| d)
            .map(|(i, _)| i as u64)
            .collect()
    }

    /// Drop dead entries from an answer list in place, preserving
    /// order. Used by the over-fetch wrappers after a widened query.
    pub fn retain_live(&self, hits: &mut Vec<crate::Neighbour>) {
        if self.is_empty() {
            return;
        }
        hits.retain(|n| !self.contains(n.index));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Neighbour;

    #[test]
    fn insert_contains_count() {
        let mut t = TombstoneSet::new();
        assert!(t.is_empty());
        assert!(!t.contains(3));
        assert!(t.insert(3));
        assert!(!t.insert(3), "second insert is a no-op");
        assert!(t.insert(0));
        assert!(t.contains(3));
        assert!(t.contains(0));
        assert!(!t.contains(1));
        assert!(!t.contains(100), "beyond the vector is alive");
        assert_eq!(t.count(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    fn indices_sorted_roundtrip() {
        let mut t = TombstoneSet::new();
        for i in [7usize, 2, 9, 2, 0] {
            t.insert(i);
        }
        let idx = t.indices();
        assert_eq!(idx, vec![0, 2, 7, 9]);
        let back = TombstoneSet::from_indices(&idx);
        assert_eq!(back, t);
    }

    #[test]
    fn retain_live_keeps_order() {
        let mut t = TombstoneSet::new();
        t.insert(1);
        let hits = vec![
            Neighbour {
                index: 1,
                distance: 0.5,
            },
            Neighbour {
                index: 4,
                distance: 0.7,
            },
            Neighbour {
                index: 2,
                distance: 0.9,
            },
        ];
        let mut filtered = hits.clone();
        t.retain_live(&mut filtered);
        assert_eq!(
            filtered.iter().map(|n| n.index).collect::<Vec<_>>(),
            vec![4, 2]
        );
    }
}
