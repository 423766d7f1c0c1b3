//! Fast hashing for state fingerprints.
//!
//! The model checker's hot loop probes a dedup index once per generated
//! successor. With `std`'s default SipHash and a `HashMap<SystemState, _>`
//! every probe re-hashes the entire twenty-component state. This module
//! provides the two pieces that remove that cost:
//!
//! - [`FxHasher`] — the Firefox/rustc multiply-rotate hash (the same
//!   construction as the `rustc-hash` crate, reimplemented here because
//!   the build environment is offline). It is not DoS-resistant, which is
//!   irrelevant for model checking, and is several times faster than
//!   SipHash on short keys.
//! - [`FpIndex`] — a fingerprint-keyed index: states are hashed **once**
//!   at discovery into a 64-bit fingerprint via [`FxHasher`]; the index
//!   is a flat open-addressing table of 12-byte `(fingerprint, slot)`
//!   records, so a probe is a short linear scan of one cache line or two
//!   plus (only on a full 64-bit fingerprint match) a state comparison.
use std::hash::{BuildHasherDefault, Hasher};

/// The rustc-hash/FxHash construction: `hash = (hash.rol(5) ^ word) * K`.
#[derive(Clone, Copy, Debug, Default)]
pub struct FxHasher {
    hash: u64,
}

const K: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(K);
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
        for chunk in &mut chunks {
            let mut buf = [0u8; 8];
            buf.copy_from_slice(chunk);
            self.add_to_hash(u64::from_le_bytes(buf));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rest.len()].copy_from_slice(rest);
            self.add_to_hash(u64::from_le_bytes(buf) | ((rest.len() as u64) << 56));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_u128(&mut self, i: u128) {
        self.add_to_hash(i as u64);
        self.add_to_hash((i >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_i8(&mut self, i: i8) {
        self.write_u8(i as u8);
    }

    #[inline]
    fn write_i16(&mut self, i: i16) {
        self.write_u16(i as u16);
    }

    #[inline]
    fn write_i32(&mut self, i: i32) {
        self.write_u32(i as u32);
    }

    #[inline]
    fn write_i64(&mut self, i: i64) {
        self.write_u64(i as u64);
    }

    #[inline]
    fn write_isize(&mut self, i: isize) {
        self.write_usize(i as usize);
    }
}

/// `BuildHasher` for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// The owning shard of a fingerprint under `shards`-way partitioning of
/// the fingerprint space.
///
/// This is the routing function of the model checker's sharded driver:
/// every generated successor is fingerprinted from its packed (canonical)
/// bytes and sent to the shard that owns `(fp >> 32) % shards` — equal
/// states always carry equal bytes (the codec is deterministic), hence
/// equal fingerprints, hence the same owner, so cross-shard duplicates
/// are impossible and each shard can dedup against nothing but its own
/// private [`FpIndex`]. A `shards` of zero is treated as one (everything
/// routes to shard 0).
///
/// Any fixed split of the fingerprint would serve the shard indexes
/// equally well: [`FpIndex`] places a fingerprint by a multiply-shift
/// over all 64 bits, so a shard's key set agreeing on a few routing bits
/// still spreads evenly over its table. The function is kept exactly as
/// it is because shard placement decides which segment stores each
/// state, and so every shard's delta bases and spill extents.
#[inline]
#[must_use]
pub fn shard_of(fp: u64, shards: usize) -> usize {
    ((fp >> 32) % shards.max(1) as u64) as usize
}

/// One index record: `[fp_lo, fp_hi, id]` — the fingerprint's two halves
/// and the arena slot it indexes. Three `u32`s rather than `(u64, u32)`,
/// which would pad to 16 bytes.
type Slot = [u32; 3];

const _: () = assert!(std::mem::size_of::<Slot>() == 12);

/// The `id` that marks a vacant record; arena slots are `< u32::MAX`.
const EMPTY: u32 = u32::MAX;

const VACANT: Slot = [0, 0, EMPTY];

/// Maximum load factor, `MAX_LOAD_NUM / MAX_LOAD_DEN` = 3/4: the table
/// doubles before an insert would fill more of it, which keeps linear
/// probe runs short and guarantees a vacant record ends every run.
const MAX_LOAD_NUM: usize = 3;
const MAX_LOAD_DEN: usize = 4;

/// Records in the smallest non-empty table.
const MIN_SLOTS: usize = 16;

/// Fibonacci-hashing multiplier (2⁶⁴ / φ, odd) for the home-slot
/// multiply-shift.
const HOME_MUL: u64 = 0x9E37_79B9_7F4A_7C15;

/// A fingerprint-keyed dedup index over an external arena.
///
/// The index stores `u32` arena slots keyed by 64-bit fingerprints in a
/// flat open-addressing table: a power-of-two array of 12-byte records,
/// linear probing from a home slot taken by multiply-shift over all 64
/// fingerprint bits, at most 3/4 full. The caller supplies an equality
/// closure that compares the probing state against an arena slot, so the
/// index itself never touches state data and never re-hashes a state.
///
/// Each record keeps the **full** fingerprint, and the closure is called
/// only for records whose fingerprint equals the probe's in all 64 bits.
/// Two states that collide on all 64 bits still get separate records —
/// the closure tells them apart. The model checker's spilled tier leans
/// on this order: its closure accepts a sealed entry without reading it
/// back, trusting the fingerprint match the index already made.
#[derive(Clone, Debug, Default)]
pub struct FpIndex {
    /// The table: empty before the first insert, else a power of two.
    slots: Vec<Slot>,
    /// Occupied records.
    len: usize,
}

impl FpIndex {
    /// An empty index.
    #[must_use]
    pub fn new() -> Self {
        FpIndex::default()
    }

    /// An empty index with room for `cap` fingerprints before it grows.
    #[must_use]
    pub fn with_capacity(cap: usize) -> Self {
        FpIndex { slots: vec![VACANT; slots_for(cap)], len: 0 }
    }

    /// Resident footprint of the index: 12 bytes per table record. O(1),
    /// so the model checker can fold it into its per-merge memory-budget
    /// check.
    #[must_use]
    pub fn approx_heap_bytes(&self) -> usize {
        self.slots.capacity() * std::mem::size_of::<Slot>()
    }

    /// Release capacity slack: rehash into the smallest table that holds
    /// the current entries (the degradation ladder's shed step).
    pub fn shrink_to_fit(&mut self) {
        let fit = slots_for(self.len);
        if fit < self.slots.len() {
            self.rehash(fit);
        }
    }

    /// Number of indexed slots.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Is the index empty?
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Read-only probe: the indexed slot whose state matches, if any.
    pub fn probe(&self, fp: u64, mut same: impl FnMut(u32) -> bool) -> Option<u32> {
        if self.slots.is_empty() {
            return None;
        }
        self.find(fp, &mut same).ok()
    }

    /// Probe for a state with fingerprint `fp`, using `same` to compare
    /// the probing state with an already-indexed arena slot. Returns the
    /// existing slot on a hit; otherwise records `candidate` under `fp`
    /// and returns `None`.
    ///
    /// # Panics
    /// Panics if `candidate` is `u32::MAX`, the vacant-record marker.
    pub fn insert(
        &mut self,
        fp: u64,
        candidate: u32,
        mut same: impl FnMut(u32) -> bool,
    ) -> Option<u32> {
        assert_ne!(candidate, EMPTY, "arena slot u32::MAX cannot be indexed");
        if self.slots.is_empty() {
            self.rehash(MIN_SLOTS);
        }
        let mut at = match self.find(fp, &mut same) {
            Ok(hit) => return Some(hit),
            Err(vacant) => vacant,
        };
        if (self.len + 1) * MAX_LOAD_DEN > self.slots.len() * MAX_LOAD_NUM {
            self.rehash(self.slots.len() * 2);
            at = self.find(fp, &mut |_| false).unwrap_err();
        }
        self.slots[at] = [fp as u32, (fp >> 32) as u32, candidate];
        self.len += 1;
        None
    }

    /// Walk `fp`'s probe run in a non-empty table: `Ok(id)` for the first
    /// record whose fingerprint equals `fp` in all 64 bits and whose
    /// state `same` accepts, else `Err` with the vacant record ending the
    /// run.
    #[inline]
    fn find(&self, fp: u64, same: &mut impl FnMut(u32) -> bool) -> Result<u32, usize> {
        let mask = self.slots.len() - 1;
        let mut at = self.home(fp);
        loop {
            let record = self.slots[at];
            let id = record[2];
            if id == EMPTY {
                return Err(at);
            }
            if fingerprint(record) == fp && same(id) {
                return Ok(id);
            }
            at = (at + 1) & mask;
        }
    }

    /// `fp`'s home record: the top `log2(table size)` bits of
    /// `fp · HOME_MUL`, so every fingerprint bit moves the home.
    #[inline]
    fn home(&self, fp: u64) -> usize {
        let bits = self.slots.len().trailing_zeros();
        (fp.wrapping_mul(HOME_MUL) >> (64 - bits)) as usize
    }

    /// Move every record into a fresh vacant table of `slots` records.
    fn rehash(&mut self, slots: usize) {
        let old = std::mem::replace(&mut self.slots, vec![VACANT; slots]);
        for record in old.into_iter().filter(|r| r[2] != EMPTY) {
            let at = self.find(fingerprint(record), &mut |_| false).unwrap_err();
            self.slots[at] = record;
        }
    }
}

/// The full 64-bit fingerprint a record was filed under.
#[inline]
fn fingerprint([lo, hi, _]: Slot) -> u64 {
    u64::from(hi) << 32 | u64::from(lo)
}

/// Table size for `entries` records: 0 when empty, else the smallest
/// power of two (at least [`MIN_SLOTS`]) they fill at most 3/4 of.
fn slots_for(entries: usize) -> usize {
    if entries == 0 {
        return 0;
    }
    (entries * MAX_LOAD_DEN).div_ceil(MAX_LOAD_NUM).next_power_of_two().max(MIN_SLOTS)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    fn fx_hash_of<T: Hash>(x: &T) -> u64 {
        let mut h = FxHasher::default();
        x.hash(&mut h);
        h.finish()
    }

    #[test]
    fn fx_hash_is_deterministic_and_spreads() {
        let a = fx_hash_of(&(1u64, "abc", [3u8; 5]));
        let b = fx_hash_of(&(1u64, "abc", [3u8; 5]));
        assert_eq!(a, b);
        assert_ne!(fx_hash_of(&1u64), fx_hash_of(&2u64));
    }

    #[test]
    fn fp_index_dedups_and_handles_collisions() {
        let arena = ["a", "b", "c"];
        let mut idx = FpIndex::new();
        // Force every key to fingerprint 7 to exercise collision buckets.
        assert_eq!(idx.insert(7, 0, |id| arena[id as usize] == "a"), None);
        assert_eq!(idx.insert(7, 1, |id| arena[id as usize] == "b"), None);
        assert_eq!(idx.insert(7, 0, |id| arena[id as usize] == "a"), Some(0));
        assert_eq!(idx.insert(7, 1, |id| arena[id as usize] == "b"), Some(1));
        assert_eq!(idx.insert(7, 2, |id| arena[id as usize] == "c"), None);
        assert_eq!(idx.insert(7, 2, |id| arena[id as usize] == "c"), Some(2));
        assert_eq!(idx.len(), 3);
        // Distinct fingerprints never compare states.
        assert_eq!(idx.insert(8, 9, |_| panic!("no comparison needed")), None);
    }

    #[test]
    fn same_is_only_called_on_a_full_fingerprint_match() {
        // Two fingerprints sharing their home record and their low 32
        // bits, differing only above bit 32: a tag or half-fingerprint
        // index would hand the second probe to `same` for the first
        // state. The spilled tier's `same` accepts sealed entries
        // unread, so that would merge two distinct states.
        let mut idx = FpIndex::new();
        let a: u64 = 0x0000_0001_dead_beef;
        assert_eq!(idx.insert(a, 0, |_| unreachable!("empty index")), None);
        let b = (2u64..)
            .map(|hi| hi << 32 | (a & 0xffff_ffff))
            .find(|&b| idx.home(b) == idx.home(a))
            .expect("some high half shares the home record");
        assert_eq!(idx.insert(b, 1, |id| panic!("same({id}) on a fingerprint mismatch")), None);
        assert_eq!(idx.probe(b, |id| id == 1 || panic!("same({id}) for b")), Some(1));
        assert_eq!(idx.probe(a, |id| id == 0 || panic!("same({id}) for a")), Some(0));
        assert_eq!(idx.len(), 2);
    }

    #[test]
    fn table_sizing_follows_the_load_factor() {
        assert_eq!(FpIndex::new().approx_heap_bytes(), 0);
        assert_eq!(FpIndex::with_capacity(12).approx_heap_bytes(), 16 * 12);
        assert_eq!(FpIndex::with_capacity(13).approx_heap_bytes(), 32 * 12);
        let mut idx = FpIndex::with_capacity(1000);
        for i in 0..100u32 {
            idx.insert(fx_hash_of(&i), i, |_| false);
        }
        assert_eq!(idx.approx_heap_bytes(), 2048 * 12);
        idx.shrink_to_fit();
        assert_eq!(idx.approx_heap_bytes(), 256 * 12);
        assert_eq!(idx.len(), 100);
        for i in 0..100u32 {
            assert_eq!(idx.probe(fx_hash_of(&i), |id| id == i), Some(i));
        }
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Model-based check against a `HashMap<u64, Vec<u32>>` reference
        /// index. Each op word picks an operation and a state key; keys
        /// fingerprint through a small pool built to collide (shared
        /// values, shared low halves, shared high halves), so forced-equal
        /// fingerprints, shared probe runs and growth all occur, with
        /// `shrink_to_fit` interleaved.
        #[test]
        fn prop_index_matches_a_reference_map(
            ops in proptest::collection::vec(any::<u64>(), 1..700),
            pool_size in 1usize..64,
        ) {
            let pool: Vec<u64> = (0..pool_size as u64)
                .map(|i| match i % 3 {
                    0 => i / 3,
                    1 => (i << 32) | 7,
                    _ => fx_hash_of(&i),
                })
                .collect();
            let fp_of = |key: u32| pool[key as usize % pool.len()];
            let mut arena: Vec<u32> = Vec::new();
            let mut model: std::collections::HashMap<u64, Vec<u32>> =
                std::collections::HashMap::new();
            let mut idx = FpIndex::new();
            for op in ops {
                let key = (op >> 8) as u32 % 400;
                let fp = fp_of(key);
                let expect = model
                    .get(&fp)
                    .and_then(|ids| ids.iter().copied().find(|&id| arena[id as usize] == key));
                let same = |id: u32| {
                    assert_eq!(fp_of(arena[id as usize]), fp, "same() on a fingerprint mismatch");
                    arena[id as usize] == key
                };
                match op % 8 {
                    0 => idx.shrink_to_fit(),
                    1..=2 => prop_assert_eq!(idx.probe(fp, same), expect),
                    _ => {
                        let candidate = arena.len() as u32;
                        prop_assert_eq!(idx.insert(fp, candidate, same), expect);
                        if expect.is_none() {
                            arena.push(key);
                            model.entry(fp).or_default().push(candidate);
                        }
                    }
                }
                prop_assert_eq!(idx.len(), arena.len());
                prop_assert_eq!(idx.is_empty(), arena.is_empty());
            }
            // Every stored key is still found after the last growth or
            // shrink.
            for (id, &key) in arena.iter().enumerate() {
                prop_assert_eq!(idx.probe(fp_of(key), |j| arena[j as usize] == key), Some(id as u32));
            }
        }
    }
}
