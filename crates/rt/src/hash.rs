//! Zero-dependency fast hashing for the formal-side hot paths.
//!
//! `std`'s default `SipHash` is keyed per `HashMap` instance and costs
//! tens of nanoseconds per small key — both properties the state-space
//! engines cannot afford: reachability interns millions of markings, and
//! the determinism contract wants the same hashes in every process. This
//! module provides:
//!
//! * [`FxHasher`]: the rustc `FxHash` multiply-rotate hasher — a fixed
//!   (unkeyed) 64-bit function, ~1 ns per word, deterministic across
//!   processes and platforms;
//! * [`FxHashMap`] / [`FxHashSet`]: drop-in aliases for `std`
//!   collections built on it;
//! * [`IdTable`]: an id-interner — an open-addressed table storing only
//!   8-byte `(tag, id)` slots, where `tag` is the 64-bit hash folded to
//!   32 bits and `id` indexes the caller's arena. Keys live **once** (in
//!   the arena), not cloned into the map; lookups compare against the
//!   arena through a caller-supplied closure. This is the raw-table
//!   pattern `hashbrown` exposes on nightly, sized down to exactly what
//!   BFS interning needs.
//!
//! None of this is for adversarial input: these are fixed-function
//! hashes for trusted, in-process state exploration.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hash, Hasher};

/// The multiplier from rustc's `FxHash` (a Fibonacci-style odd constant).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// A fast, fixed-function (unkeyed) 64-bit hasher.
///
/// The same input hashes to the same value in every process on every
/// platform, which the golden interner tests pin. Not DoS-resistant by
/// design — see the module docs.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(tail));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_u128(&mut self, i: u128) {
        self.add(i as u64);
        self.add((i >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }
}

/// `BuildHasher` for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` using [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// A `HashSet` using [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;

/// Hashes one value with [`FxHasher`] (deterministic across processes).
pub fn fx_hash_one<T: Hash + ?Sized>(value: &T) -> u64 {
    let mut h = FxHasher::default();
    value.hash(&mut h);
    h.finish()
}

/// Vacant-slot sentinel: ids must stay below `u32::MAX`, which every
/// explorer guarantees by rejecting `max_states > u32::MAX` up front.
const EMPTY: u32 = u32::MAX;

/// A vacant `(tag, id)` slot.
const VACANT: (u32, u32) = (0, EMPTY);

/// An id-interner: hash → arena-index table that never stores keys.
///
/// The caller keeps the keys in an arena (`Vec<K>`) and registers each
/// key's arena index here under its hash. Lookups re-derive equality by
/// comparing the candidate against `arena[id]` via a closure, so keys
/// exist exactly once in memory — the pattern that de-duplicates the
/// `HashMap<Marking, StateId>` + `Vec<Marking>` double storage of the
/// pre-interner explorers.
///
/// Each slot is a `(u32 tag, u32 id)` pair, 8 bytes, with the tag
/// folded from the caller's 64-bit hash ([`IdTable::tag`]). The table
/// doubles before it passes half full: linear probing then rejects a
/// new key after about 2.5 slots on average (½(1 + 1/(1 − load)²)),
/// where at 7/8 load it takes about 32. Two keys whose hashes fold to
/// the same tag are told apart by `eq`.
///
/// ```
/// use a4a_rt::hash::{fx_hash_one, IdTable};
///
/// let mut arena: Vec<String> = Vec::new();
/// let mut table = IdTable::new();
/// for word in ["a", "b", "a"] {
///     let h = fx_hash_one(word);
///     let id = match table.get(h, |id| arena[id as usize] == word) {
///         Some(id) => id,
///         None => {
///             let id = arena.len() as u32;
///             arena.push(word.to_string());
///             table.insert(h, id);
///             id
///         }
///     };
///     let _ = id;
/// }
/// assert_eq!(arena, vec!["a".to_string(), "b".to_string()]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct IdTable {
    /// Power-of-two array of `(tag, id)` slots; `id == EMPTY` is vacant.
    slots: Vec<(u32, u32)>,
    len: usize,
}

impl IdTable {
    /// An empty table (allocates on first insert).
    pub fn new() -> IdTable {
        IdTable::default()
    }

    /// An empty table pre-sized so that `capacity` ids fit without
    /// growing it.
    pub fn with_capacity(capacity: usize) -> IdTable {
        let mut t = IdTable::default();
        if capacity > 0 {
            t.grow_to(slots_for(capacity));
        }
        t
    }

    /// Number of interned ids.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` when nothing has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The 32-bit tag `hash` is stored under: its high half folded into
    /// its low half. The tag both picks the slot (by its low bits) and
    /// screens candidates before `eq`, so both halves of the hash count.
    /// The fold matters for [`FxHasher`], whose low bits depend on the
    /// low bits of the last word hashed only.
    #[inline]
    pub fn tag(hash: u64) -> u32 {
        (hash ^ (hash >> 32)) as u32
    }

    /// Looks up the id registered under `hash` whose arena entry matches,
    /// probing with `eq(id)` for each candidate with the same tag.
    #[inline]
    pub fn get(&self, hash: u64, mut eq: impl FnMut(u32) -> bool) -> Option<u32> {
        if self.slots.is_empty() {
            return None;
        }
        let tag = IdTable::tag(hash);
        let mask = self.slots.len() - 1;
        let mut idx = tag as usize & mask;
        loop {
            let (t, id) = self.slots[idx];
            if id == EMPTY {
                return None;
            }
            if t == tag && eq(id) {
                return Some(id);
            }
            idx = (idx + 1) & mask;
        }
    }

    /// Registers `id` under `hash`. The caller must have checked with
    /// [`IdTable::get`] that no equal key is present (double insertion
    /// leaves both ids reachable, first-inserted wins on lookup).
    ///
    /// # Panics
    ///
    /// Panics if `id` is `u32::MAX` (reserved as the vacant sentinel).
    pub fn insert(&mut self, hash: u64, id: u32) {
        assert!(id != EMPTY, "id u32::MAX is reserved");
        // Keep the load at or below 1/2.
        if (self.len + 1) * 2 > self.slots.len() {
            self.grow_to((self.slots.len() * 2).max(MIN_SLOTS));
        }
        self.place(IdTable::tag(hash), id);
        self.len += 1;
    }

    /// Drops every id but keeps the allocation — the per-call reuse hook
    /// for benchmark loops and repeated explorations.
    pub fn clear(&mut self) {
        self.slots.fill(VACANT);
        self.len = 0;
    }

    /// Puts `(tag, id)` in the first vacant slot from the tag's own.
    #[inline]
    fn place(&mut self, tag: u32, id: u32) {
        let mask = self.slots.len() - 1;
        let mut idx = tag as usize & mask;
        while self.slots[idx].1 != EMPTY {
            idx = (idx + 1) & mask;
        }
        self.slots[idx] = (tag, id);
    }

    /// Re-places every id in `slots` slots, by the tags already stored.
    fn grow_to(&mut self, slots: usize) {
        debug_assert!(slots.is_power_of_two());
        let old = std::mem::replace(&mut self.slots, vec![VACANT; slots]);
        for (tag, id) in old {
            if id != EMPTY {
                self.place(tag, id);
            }
        }
    }
}

/// The fewest slots a table allocates.
const MIN_SLOTS: usize = 8;

/// Smallest power-of-two slot count holding `ids` at or below 1/2 load.
fn slots_for(ids: usize) -> usize {
    (ids * 2).next_power_of_two().max(MIN_SLOTS)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fx_hash_is_stable() {
        // Golden values: the function is fixed across processes and
        // platforms, so these must never change.
        assert_eq!(fx_hash_one(&0u64), 0);
        assert_eq!(fx_hash_one(&1u64), 0x51_7c_c1_b7_27_22_0a_95);
        assert_eq!(fx_hash_one("abc"), fx_hash_one("abc"));
        assert_ne!(fx_hash_one("abc"), fx_hash_one("abd"));
    }

    #[test]
    fn fx_write_bytes_matches_words() {
        let mut a = FxHasher::default();
        a.write(&0x0102_0304_0506_0708u64.to_le_bytes());
        let mut b = FxHasher::default();
        b.write_u64(0x0102_0304_0506_0708);
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn fx_map_round_trips() {
        let mut m: FxHashMap<String, u32> = FxHashMap::default();
        for i in 0..100u32 {
            m.insert(format!("k{i}"), i);
        }
        assert_eq!(m["k42"], 42);
        let mut s: FxHashSet<u64> = FxHashSet::default();
        s.insert(7);
        assert!(s.contains(&7));
    }

    #[test]
    fn id_table_interns() {
        let mut arena: Vec<u64> = Vec::new();
        let mut table = IdTable::new();
        let keys = [5u64, 9, 5, 13, 9, 5];
        let mut ids = Vec::new();
        for k in keys {
            let h = fx_hash_one(&k);
            let id = match table.get(h, |id| arena[id as usize] == k) {
                Some(id) => id,
                None => {
                    let id = arena.len() as u32;
                    arena.push(k);
                    table.insert(h, id);
                    id
                }
            };
            ids.push(id);
        }
        assert_eq!(arena, vec![5, 9, 13]);
        assert_eq!(ids, vec![0, 1, 0, 2, 1, 0]);
        assert_eq!(table.len(), 3);
    }

    #[test]
    fn id_table_survives_growth() {
        let mut arena: Vec<usize> = Vec::new();
        let mut table = IdTable::with_capacity(4);
        for k in 0..10_000usize {
            let h = fx_hash_one(&k);
            assert!(table.get(h, |id| arena[id as usize] == k).is_none());
            arena.push(k);
            table.insert(h, (arena.len() - 1) as u32);
        }
        for k in 0..10_000usize {
            let h = fx_hash_one(&k);
            assert_eq!(
                table.get(h, |id| arena[id as usize] == k),
                Some(k as u32),
                "lost {k} after growth"
            );
        }
        assert_eq!(table.len(), 10_000);
    }

    #[test]
    fn id_table_clear_keeps_capacity() {
        let mut table = IdTable::new();
        table.insert(fx_hash_one(&1u8), 0);
        table.clear();
        assert!(table.is_empty());
        assert_eq!(table.get(fx_hash_one(&1u8), |_| true), None);
        table.insert(fx_hash_one(&2u8), 0);
        assert_eq!(table.len(), 1);
    }

    /// Interns `hash` for arena key `key` unless an equal key is present;
    /// returns its id.
    fn intern(table: &mut IdTable, arena: &mut Vec<u64>, hash: u64, key: u64) -> u32 {
        if let Some(id) = table.get(hash, |id| arena[id as usize] == key) {
            return id;
        }
        arena.push(key);
        let id = (arena.len() - 1) as u32;
        table.insert(hash, id);
        id
    }

    #[test]
    fn hashes_folding_to_one_tag_get_distinct_ids() {
        // Different 64-bit hashes, one 32-bit tag: the slot and the tag
        // screen agree on all three, so only `eq` tells them apart.
        let hashes = [1u64 << 32, 1, (3 << 32) | 2, (0xdead << 32) | 0xdeac];
        for &h in &hashes {
            assert_eq!(IdTable::tag(h), 1, "{h:#x}");
        }
        let mut arena = Vec::new();
        let mut table = IdTable::new();
        let ids: Vec<u32> = (0..hashes.len() as u64)
            .map(|k| intern(&mut table, &mut arena, hashes[k as usize], k))
            .collect();
        assert_eq!(ids, vec![0, 1, 2, 3]);
        for (k, &h) in hashes.iter().enumerate() {
            assert_eq!(intern(&mut table, &mut arena, h, k as u64), k as u32);
        }
        assert_eq!(table.len(), hashes.len());
    }

    /// The slot count of the previous layout, 16-byte `(u64, u32)` slots
    /// kept below 7/8 load, after `len` inserts.
    fn seven_eighths_slots(len: usize) -> usize {
        let mut slots = 8;
        while len * 8 > slots * 7 {
            slots *= 2;
        }
        slots
    }

    #[test]
    fn load_stays_at_or_below_half() {
        for capacity in 0..300 {
            let table = IdTable::with_capacity(capacity);
            assert!(
                capacity * 2 <= table.slots.len(),
                "with_capacity({capacity})"
            );
            assert!(table.slots.len() * 8 <= seven_eighths_slots(capacity) * 16);
        }
        // Filling a pre-sized table to its capacity never regrows it.
        let mut table = IdTable::with_capacity(56);
        let slots = table.slots.len();
        for k in 0..56u32 {
            table.insert(fx_hash_one(&k), k);
        }
        assert_eq!(table.slots.len(), slots);
        let mut table = IdTable::new();
        for k in 0..20_000u32 {
            table.insert(fx_hash_one(&k), k);
            let len = table.len();
            assert!(
                len * 2 <= table.slots.len(),
                "{len} ids in {}",
                table.slots.len()
            );
            // Never more bytes than the previous layout.
            assert!(table.slots.len() * 8 <= seven_eighths_slots(len) * 16);
        }
    }

    #[test]
    fn ids_survive_every_growth() {
        let mut arena = Vec::new();
        let mut table = IdTable::new();
        let mut growths = 0;
        for k in 0..5_000u64 {
            let slots = table.slots.len();
            assert_eq!(intern(&mut table, &mut arena, fx_hash_one(&k), k), k as u32);
            if table.slots.len() != slots {
                growths += 1;
                for old in 0..=k {
                    let id = table.get(fx_hash_one(&old), |id| arena[id as usize] == old);
                    assert_eq!(
                        id,
                        Some(old as u32),
                        "lost {old} growing to {}",
                        table.slots.len()
                    );
                }
            }
        }
        assert_eq!(growths, 12, "0, 8, 16, … 16 384 slots");
    }

    #[test]
    fn colliding_hashes_resolved_by_eq() {
        // Force two arena entries under the same hash: `eq` must
        // disambiguate.
        let arena = ["x", "y"];
        let mut table = IdTable::new();
        table.insert(42, 0);
        table.insert(42, 1);
        assert_eq!(table.get(42, |id| arena[id as usize] == "y"), Some(1));
        assert_eq!(table.get(42, |id| arena[id as usize] == "x"), Some(0));
        assert_eq!(table.get(42, |_| false), None);
    }
}
