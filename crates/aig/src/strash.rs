//! Open-addressing structural-hash table.
//!
//! Maps the packed fanin pair of an AND node — `(lo.raw() as u64) <<
//! 32 | hi.raw() as u64` with `lo.raw() <= hi.raw()` — to the node id
//! owning that pair. This replaces the former
//! `HashMap<(u32, u32), NodeId>`: a flat power-of-two slot array
//! (8-byte key + 4-byte value per slot), Fibonacci hashing, linear
//! probing with backward-shift deletion, so
//!
//! * lookups in the [`crate::Aig::and`] hot loop touch one contiguous
//!   cache line instead of chasing SwissTable groups,
//! * a clone is a flat copy of the slot arrays — no rehash — and
//! * capacity can be reserved up front ([`StrashTable::reserve`]) so
//!   a known-size build never grows incrementally.
//!
//! The empty-slot sentinel is `u64::MAX`: a real key would need
//! `hi.raw() == u32::MAX`, i.e. a fanin of `Lit::INVALID`, which AND
//! nodes never carry.
//!
//! Deletions backward-shift the probe chain instead of leaving
//! tombstones, so the table's probe lengths — and therefore the exact
//! sequence of states across an edit journal's apply/undo pairs — are
//! canonical for the key set: rolling a transaction back restores the
//! table byte for byte.

use crate::lit::NodeId;

const EMPTY: u64 = u64::MAX;
/// Fibonacci multiplier (2^64 / phi), spreads packed pairs well even
/// though the low 32 bits (the high fanin) vary slowly.
const FIB: u64 = 0x9E37_79B9_7F4A_7C15;
/// Grow when `len * 8 >= capacity * 7` (7/8 max load).
const MAX_LOAD_NUM: usize = 7;
const MAX_LOAD_DEN: usize = 8;
const MIN_CAP: usize = 16;

/// Open-addressing `packed fanin pair -> NodeId` map (see module docs).
#[derive(Clone, Debug)]
pub(crate) struct StrashTable {
    /// Packed keys, `EMPTY` marking free slots. Length is zero or a
    /// power of two; `vals` always has the same length.
    keys: Vec<u64>,
    vals: Vec<NodeId>,
    len: usize,
    /// `64 - log2(capacity)`; hashing is `(key * FIB) >> shift`.
    shift: u32,
}

impl Default for StrashTable {
    fn default() -> Self {
        Self::new()
    }
}

impl StrashTable {
    /// An empty table; allocates on first insert (or [`Self::reserve`]).
    pub(crate) fn new() -> Self {
        StrashTable {
            keys: Vec::new(),
            vals: Vec::new(),
            len: 0,
            shift: 64,
        }
    }

    /// Number of entries.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Bytes held by the slot arrays (capacity accounting for the
    /// `node_storage_bytes` series).
    pub(crate) fn storage_bytes(&self) -> usize {
        self.keys.capacity() * std::mem::size_of::<u64>()
            + self.vals.capacity() * std::mem::size_of::<NodeId>()
    }

    #[inline]
    fn ideal_slot(&self, key: u64) -> usize {
        // shift == 64 only while the table is empty, and every probe
        // path checks for that first.
        (key.wrapping_mul(FIB) >> self.shift) as usize
    }

    /// Ensures capacity for `total` entries without exceeding the max
    /// load factor (no incremental growth up to that size).
    pub(crate) fn reserve(&mut self, total: usize) {
        let needed = (total * MAX_LOAD_DEN).div_ceil(MAX_LOAD_NUM) + 1;
        if needed > self.keys.len() {
            self.rehash(needed.next_power_of_two().max(MIN_CAP));
        }
    }

    fn rehash(&mut self, new_cap: usize) {
        debug_assert!(new_cap.is_power_of_two() && new_cap > self.len);
        let old_keys = std::mem::replace(&mut self.keys, vec![EMPTY; new_cap]);
        let old_vals = std::mem::take(&mut self.vals);
        self.vals.resize(new_cap, 0);
        self.shift = 64 - new_cap.trailing_zeros();
        for (i, &key) in old_keys.iter().enumerate() {
            if key == EMPTY {
                continue;
            }
            let mask = new_cap - 1;
            let mut slot = self.ideal_slot(key);
            while self.keys[slot] != EMPTY {
                slot = (slot + 1) & mask;
            }
            self.keys[slot] = key;
            self.vals[slot] = old_vals[i];
        }
    }

    /// The id owning `key`, if present.
    #[inline]
    pub(crate) fn get(&self, key: u64) -> Option<NodeId> {
        if self.len == 0 {
            return None;
        }
        let mask = self.keys.len() - 1;
        let mut slot = self.ideal_slot(key);
        loop {
            let k = self.keys[slot];
            if k == key {
                return Some(self.vals[slot]);
            }
            if k == EMPTY {
                return None;
            }
            slot = (slot + 1) & mask;
        }
    }

    /// Inserts a key known to be absent (fresh node registration and
    /// journal-undo re-insertion).
    pub(crate) fn insert(&mut self, key: u64, id: NodeId) {
        let inserted = self.try_insert(key, id);
        debug_assert!(inserted, "strash insert of an already-present key");
    }

    /// Registers `id` under `key` unless the key is already owned;
    /// returns whether the insertion happened (the
    /// `entry().or_insert_with()` shape `replace_fanins` journals).
    pub(crate) fn try_insert(&mut self, key: u64, id: NodeId) -> bool {
        debug_assert_ne!(key, EMPTY, "Lit::INVALID fanin reached the strash");
        if (self.len + 1) * MAX_LOAD_DEN > self.keys.len() * MAX_LOAD_NUM {
            self.rehash((self.keys.len() * 2).max(MIN_CAP));
        }
        let mask = self.keys.len() - 1;
        let mut slot = self.ideal_slot(key);
        loop {
            let k = self.keys[slot];
            if k == key {
                return false;
            }
            if k == EMPTY {
                self.keys[slot] = key;
                self.vals[slot] = id;
                self.len += 1;
                return true;
            }
            slot = (slot + 1) & mask;
        }
    }

    /// Removes `key`, returning its value. Backward-shift deletion:
    /// later entries of the probe chain slide into the hole, so no
    /// tombstones accumulate and the layout stays canonical for the
    /// key set (exact journal undo relies on this).
    pub(crate) fn remove(&mut self, key: u64) -> Option<NodeId> {
        if self.len == 0 {
            return None;
        }
        let mask = self.keys.len() - 1;
        let mut slot = self.ideal_slot(key);
        loop {
            let k = self.keys[slot];
            if k == EMPTY {
                return None;
            }
            if k == key {
                break;
            }
            slot = (slot + 1) & mask;
        }
        let removed = self.vals[slot];
        let mut hole = slot;
        let mut probe = slot;
        loop {
            probe = (probe + 1) & mask;
            let k = self.keys[probe];
            if k == EMPTY {
                break;
            }
            let home = self.ideal_slot(k);
            // Shift back iff the entry's home does not lie strictly
            // between the hole and its current slot (cyclically) —
            // i.e. moving it to the hole keeps it reachable.
            if (probe.wrapping_sub(home) & mask) >= (probe.wrapping_sub(hole) & mask) {
                self.keys[hole] = k;
                self.vals[hole] = self.vals[probe];
                hole = probe;
            }
        }
        self.keys[hole] = EMPTY;
        self.len -= 1;
        Some(removed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use std::collections::HashMap;

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut t = StrashTable::new();
        assert_eq!(t.get(42), None);
        assert_eq!(t.remove(42), None);
        t.insert(42, 7);
        assert_eq!(t.get(42), Some(7));
        assert_eq!(t.len(), 1);
        assert!(!t.try_insert(42, 9), "occupied key must not be replaced");
        assert_eq!(t.get(42), Some(7));
        assert_eq!(t.remove(42), Some(7));
        assert_eq!(t.get(42), None);
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn reserve_prevents_growth() {
        let mut t = StrashTable::new();
        t.reserve(1000);
        let cap = t.keys.len();
        for i in 0..1000u64 {
            t.insert(i.wrapping_mul(0x1234_5678_9abc_def1), i as NodeId);
        }
        assert_eq!(t.keys.len(), cap, "reserved table must not regrow");
        assert_eq!(t.len(), 1000);
    }

    /// Random interleaved insert/remove against a HashMap oracle, with
    /// clustered keys to stress probe chains and backward shifting.
    #[test]
    fn differential_against_hashmap() {
        let mut rng = SmallRng::seed_from_u64(0xD1FF);
        let mut t = StrashTable::new();
        let mut oracle: HashMap<u64, NodeId> = HashMap::new();
        for step in 0..20_000u32 {
            // Small key space (clusters) so removes hit often and
            // chains overlap.
            let key = rng.gen_range(0..512u64) * 0x9E37 + rng.gen_range(0..3u64);
            if rng.gen_bool(0.6) {
                let inserted = t.try_insert(key, step);
                assert_eq!(inserted, !oracle.contains_key(&key), "step {step}");
                oracle.entry(key).or_insert(step);
            } else {
                assert_eq!(t.remove(key), oracle.remove(&key), "step {step}");
            }
            if step % 1024 == 0 {
                assert_eq!(t.len(), oracle.len());
                for (&k, &v) in &oracle {
                    assert_eq!(t.get(k), Some(v));
                }
            }
        }
        assert_eq!(t.len(), oracle.len());
        for (&k, &v) in &oracle {
            assert_eq!(t.get(k), Some(v));
        }
    }
}
