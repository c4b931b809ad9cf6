//! The sliding-window deduplicator (ZMap's multiport-era design).
//!
//! Keeps the last `capacity` *distinct* response keys in a FIFO ring with
//! a flat open-addressing table for membership. A repeat inside the window
//! is suppressed; a repeat that arrives after the key has been evicted
//! passes through — that controlled imprecision is the memory/accuracy
//! trade-off Figure 5 sweeps. ZMap's default window is 10^6 entries, which
//! empirically removes nearly all duplicates at 1 Gbps scan rates.
//!
//! ZMap backs the window with a Judy array, a choice that pays for itself
//! in C by keeping the footprint small. A from-scratch Judy trie cost this
//! implementation both speed (node allocations on insert, pointer chasing
//! on every check, a large teardown) and peak heap, so membership is a
//! linear-probing `u64` table instead: one multiply and usually one cache
//! line per check, no allocation between doublings, and backward-shift
//! deletion so the constant evictions of a full window leave no tombstones.

use crate::Deduplicator;
use std::collections::VecDeque;

/// Marks a free slot; the key `u64::MAX` itself lives in a side flag.
const EMPTY: u64 = u64::MAX;

/// Fibonacci hashing multiplier: 2^64 / φ, rounded to odd.
const FIB: u64 = 0x9E37_79B9_7F4A_7C15;

/// Open-addressing set of `u64` keys: linear probing from a Fibonacci
/// hash, backward-shift deletion, doubling at load ½.
struct KeySet {
    /// Power-of-two slot array; `EMPTY` marks a free slot.
    slots: Vec<u64>,
    /// `64 - log2(slots.len())`: the hash keeps the product's top bits.
    shift: u32,
    /// Keys stored in `slots` (the side-flagged `u64::MAX` not included).
    stored: usize,
    has_max: bool,
}

impl KeySet {
    const MIN_SLOTS: usize = 16;

    fn new() -> Self {
        KeySet {
            slots: vec![EMPTY; Self::MIN_SLOTS],
            shift: 64 - Self::MIN_SLOTS.trailing_zeros(),
            stored: 0,
            has_max: false,
        }
    }

    #[cfg(test)]
    fn len(&self) -> usize {
        self.stored + usize::from(self.has_max)
    }

    #[inline]
    fn home(&self, key: u64) -> usize {
        (key.wrapping_mul(FIB) >> self.shift) as usize
    }

    /// The slot holding `key` (`Ok`) or the free slot ending its probe
    /// run (`Err`). `key` must not be `EMPTY`.
    #[inline]
    fn find(&self, key: u64) -> Result<usize, usize> {
        let mask = self.slots.len() - 1;
        let mut i = self.home(key);
        loop {
            match self.slots[i] {
                k if k == key => return Ok(i),
                EMPTY => return Err(i),
                _ => i = (i + 1) & mask,
            }
        }
    }

    /// Adds `key`; returns `false` if it was already present.
    #[inline]
    fn insert(&mut self, key: u64) -> bool {
        if key == EMPTY {
            return !std::mem::replace(&mut self.has_max, true);
        }
        if 2 * (self.stored + 1) > self.slots.len() {
            self.grow();
        }
        let Err(slot) = self.find(key) else {
            return false;
        };
        self.slots[slot] = key;
        self.stored += 1;
        true
    }

    fn grow(&mut self) {
        let doubled = vec![EMPTY; 2 * self.slots.len()];
        let old = std::mem::replace(&mut self.slots, doubled);
        self.shift -= 1;
        for key in old.into_iter().filter(|&k| k != EMPTY) {
            // Stored keys are distinct, so each finds a free slot.
            if let Err(slot) = self.find(key) {
                self.slots[slot] = key;
            }
        }
    }

    /// Removes `key` if present, pulling later members of its probe run
    /// back into the hole so no lookup ever has to skip a tombstone.
    fn remove(&mut self, key: u64) {
        if key == EMPTY {
            self.has_max = false;
            return;
        }
        let Ok(mut hole) = self.find(key) else {
            return;
        };
        let mask = self.slots.len() - 1;
        let mut j = hole;
        loop {
            j = (j + 1) & mask;
            let k = self.slots[j];
            if k == EMPTY {
                break;
            }
            // `k` may move into the hole only if the hole lies on its
            // probe path, i.e. cyclically within [home(k), j).
            if j.wrapping_sub(self.home(k)) & mask >= j.wrapping_sub(hole) & mask {
                self.slots[hole] = k;
                hole = j;
            }
        }
        self.slots[hole] = EMPTY;
        self.stored -= 1;
    }
}

/// FIFO sliding-window deduplicator.
pub struct SlidingWindow {
    set: KeySet,
    ring: VecDeque<u64>,
    capacity: usize,
    suppressed: u64,
    observed: u64,
}

impl SlidingWindow {
    /// A window remembering the last `capacity` distinct keys. Memory
    /// grows with the keys actually seen, not with `capacity`.
    ///
    /// # Panics
    /// Panics if `capacity == 0` (a zero window would suppress nothing
    /// and the ring logic assumes at least one slot).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "window capacity must be positive");
        SlidingWindow {
            set: KeySet::new(),
            ring: VecDeque::new(),
            capacity,
            suppressed: 0,
            observed: 0,
        }
    }

    /// ZMap's default window of 10^6 entries.
    pub fn with_default_capacity() -> Self {
        Self::new(1_000_000)
    }

    /// Records `key`; returns `true` if fresh (not currently in the
    /// window), `false` if suppressed as a duplicate.
    pub fn check_and_insert(&mut self, key: u64) -> bool {
        self.observed += 1;
        if !self.set.insert(key) {
            self.suppressed += 1;
            return false;
        }
        if self.ring.len() == self.capacity {
            // At capacity the ring is non-empty, so this always evicts;
            // written as an if-let so a live scan can never panic here.
            // The oldest key is never `key`, which was just found absent.
            if let Some(oldest) = self.ring.pop_front() {
                self.set.remove(oldest);
            }
        }
        self.ring.push_back(key);
        true
    }

    /// Keys currently remembered.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// True when no keys are remembered.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Total keys observed (fresh + suppressed).
    pub fn observed(&self) -> u64 {
        self.observed
    }

    /// Duplicates suppressed so far.
    pub fn suppressed(&self) -> u64 {
        self.suppressed
    }
}

impl Deduplicator for SlidingWindow {
    fn observe(&mut self, key: u64) -> bool {
        self.check_and_insert(key)
    }

    fn memory_bytes(&self) -> u64 {
        ((self.set.slots.len() + self.ring.capacity()) * 8) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suppresses_duplicates_within_window() {
        let mut w = SlidingWindow::new(100);
        assert!(w.check_and_insert(1));
        assert!(!w.check_and_insert(1));
        assert!(!w.check_and_insert(1));
        assert_eq!(w.suppressed(), 2);
        assert_eq!(w.observed(), 3);
    }

    #[test]
    fn passes_duplicates_after_eviction() {
        let mut w = SlidingWindow::new(3);
        assert!(w.check_and_insert(1));
        assert!(w.check_and_insert(2));
        assert!(w.check_and_insert(3));
        assert!(w.check_and_insert(4)); // evicts 1
        assert!(w.check_and_insert(1), "1 must pass after eviction");
        assert_eq!(w.len(), 3);
    }

    #[test]
    fn duplicate_does_not_refresh_position() {
        // FIFO, not LRU: re-seeing key 1 must not move it to the back
        // (matches ZMap's ring implementation).
        let mut w = SlidingWindow::new(3);
        w.check_and_insert(1);
        w.check_and_insert(2);
        w.check_and_insert(3);
        assert!(!w.check_and_insert(1)); // suppressed, not refreshed
        w.check_and_insert(4); // evicts 1 (still oldest)
        assert!(w.check_and_insert(1), "1 was evicted despite recent duplicate");
    }

    #[test]
    fn capacity_one() {
        let mut w = SlidingWindow::new(1);
        assert!(w.check_and_insert(7));
        assert!(!w.check_and_insert(7));
        assert!(w.check_and_insert(8));
        assert!(w.check_and_insert(7));
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        SlidingWindow::new(0);
    }

    #[test]
    fn set_and_ring_stay_consistent() {
        let mut w = SlidingWindow::new(500);
        let mut state = 1u64;
        for _ in 0..50_000 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(7);
            w.check_and_insert(state >> 40); // small key space → duplicates
            assert_eq!(w.set.len(), w.ring.len());
            assert!(w.ring.len() <= 500);
        }
        assert!(w.suppressed() > 0, "small key space must produce duplicates");
    }

    #[test]
    fn exactness_within_window_distance() {
        // Property from the paper: a duplicate arriving within
        // window-size distinct responses of the original is ALWAYS caught.
        let mut w = SlidingWindow::new(1000);
        w.check_and_insert(42);
        for i in 0..999u64 {
            w.check_and_insert(1_000_000 + i);
        }
        assert!(!w.check_and_insert(42), "within window distance — must suppress");
        // One more distinct key evicts 42.
        w.check_and_insert(2_000_000);
        assert!(w.check_and_insert(42), "beyond window distance — passes");
    }

    #[test]
    fn memory_scales_with_occupancy_not_keyspace() {
        let mut w = SlidingWindow::new(10_000);
        for i in 0..10_000u64 {
            // 48-bit-spread keys: a flat bitmap over them is hopeless.
            w.check_and_insert(i.wrapping_mul(0x9E3779B97F4A7C15) >> 16);
        }
        let bytes = w.memory_bytes();
        // A flat 48-bit bitmap would be 35 TB; we must be under ~10 MB.
        assert!(bytes < 10 << 20, "memory {bytes} bytes");
    }

    /// The key whose Fibonacci hash is exactly `h`: `FIB` is odd, so it
    /// has a multiplicative inverse mod 2^64 (Newton's iteration).
    fn key_hashing_to(h: u64) -> u64 {
        let mut inv = FIB;
        for _ in 0..6 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(FIB.wrapping_mul(inv)));
        }
        h.wrapping_mul(inv)
    }

    /// Small keys, `0`, `u64::MAX`, and keys whose hashes share their top
    /// bits (home slot 0, or the last slot so runs wrap around).
    fn adversarial_key(kind: u8, i: u64) -> u64 {
        match kind {
            0 => i,
            1 => key_hashing_to(i),
            2 => key_hashing_to(!i),
            _ => [0, u64::MAX][(i & 1) as usize],
        }
    }

    #[test]
    fn colliding_hashes_survive_ten_doublings_and_backward_shifts() {
        const N: u64 = 4_200;
        let mut w = SlidingWindow::new(N as usize);
        // Two maximal clusters: one at slot 0, one wrapping from the end.
        let keys: Vec<u64> = (0..N).map(|i| adversarial_key(1 + (i & 1) as u8, i >> 1)).collect();
        assert_eq!(w.set.home(keys[0]), 0);
        assert_eq!(w.set.home(keys[1]), w.set.slots.len() - 1);
        for &k in &keys {
            assert!(w.check_and_insert(k));
        }
        assert!(w.set.slots.len() >= KeySet::MIN_SLOTS << 10, "{} slots", w.set.slots.len());
        assert!(keys.iter().all(|&k| !w.check_and_insert(k)), "every key stays found");
        // Evict the first half through backward-shift deletes inside the
        // clusters; the survivors must still be found, the evicted not.
        for i in 0..N / 2 {
            assert!(w.check_and_insert(u64::MAX - 1 - i));
        }
        let (gone, kept) = keys.split_at(N as usize / 2);
        assert!(kept.iter().all(|&k| w.set.find(k).is_ok()));
        assert!(gone.iter().all(|&k| w.set.find(k).is_err()));
        assert_eq!(w.set.len(), N as usize);
    }

    mod model {
        use super::*;
        use proptest::prelude::*;
        use std::collections::HashSet;

        /// The obviously-correct window the flat table must match.
        struct Reference {
            ring: VecDeque<u64>,
            set: HashSet<u64>,
            capacity: usize,
            observed: u64,
            suppressed: u64,
        }

        impl Reference {
            fn check_and_insert(&mut self, key: u64) -> bool {
                self.observed += 1;
                if self.set.contains(&key) {
                    self.suppressed += 1;
                    return false;
                }
                if self.ring.len() == self.capacity {
                    let oldest = self.ring.pop_front().unwrap();
                    self.set.remove(&oldest);
                }
                self.ring.push_back(key);
                self.set.insert(key);
                true
            }
        }

        proptest! {
            // Capacities up to 64 over key spaces of a few dozen keys:
            // hits, evictions and long probe runs reshaped by backward
            // shifts all happen within a few hundred operations.
            #[test]
            fn window_matches_reference_model(
                capacity in 1usize..=64,
                span in 1u64..48,
                ops in prop::collection::vec((0u8..4, any::<u64>()), 0..1500),
            ) {
                let mut w = SlidingWindow::new(capacity);
                let mut r = Reference {
                    ring: VecDeque::new(),
                    set: HashSet::new(),
                    capacity,
                    observed: 0,
                    suppressed: 0,
                };
                let keys = [0, u64::MAX].into_iter().chain(
                    ops.iter().map(|&(kind, i)| adversarial_key(kind, i % span)),
                );
                for key in keys {
                    let (got, want) = (w.check_and_insert(key), r.check_and_insert(key));
                    prop_assert_eq!(got, want, "key {key:#x}");
                    prop_assert_eq!(w.len(), r.ring.len());
                    prop_assert_eq!(w.set.len(), r.set.len());
                    prop_assert_eq!(w.observed(), r.observed);
                    prop_assert_eq!(w.suppressed(), r.suppressed);
                }
            }
        }
    }
}
