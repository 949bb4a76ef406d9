//! The in-DRAM tag table: one validity bit per 256-bit granule of physical
//! memory (Section 4.2).

use crate::TAG_GRANULE;

/// The flat tag bitmap for a physical memory.
///
/// "This table holds one tag bit for each 256-bit line in memory, or 4 MB
/// of tag space per gigabyte of memory."
///
/// The granule defaults to the architectural 256 bits; the 128-bit
/// capability configuration (the paper's proposed production format)
/// uses a 16-byte granule instead.
///
/// # Example
///
/// ```
/// use cheri_mem::TagTable;
///
/// let mut t = TagTable::new(1 << 30); // 1 GB of physical memory
/// assert_eq!(t.table_bytes(), 4 << 20); // 4 MB of tags
/// t.set(0x40, true);
/// assert!(t.get(0x40));
/// assert!(t.get(0x5f)); // same granule
/// assert!(!t.get(0x60)); // next granule
/// ```
#[derive(Clone, Debug)]
pub struct TagTable {
    bits: Vec<u64>,
    granules: u64,
    granule_size: u64,
    /// `log2(granule_size)` — granule indexing runs on every store, so
    /// it shifts instead of dividing.
    granule_shift: u32,
}

impl TagTable {
    /// Creates an all-clear tag table covering `mem_size` bytes of
    /// physical memory with the architectural 32-byte granule.
    #[must_use]
    pub fn new(mem_size: u64) -> TagTable {
        TagTable::with_granule(mem_size, TAG_GRANULE)
    }

    /// As [`TagTable::new`] with a custom power-of-two granule (16 bytes
    /// for the 128-bit capability configuration).
    ///
    /// # Panics
    ///
    /// Panics if `granule_size` is not a power of two >= 8.
    #[must_use]
    pub fn with_granule(mem_size: u64, granule_size: u64) -> TagTable {
        assert!(granule_size.is_power_of_two() && granule_size >= 8, "bad tag granule");
        let granules = mem_size.div_ceil(granule_size);
        TagTable {
            bits: vec![0; granules.div_ceil(64) as usize],
            granules,
            granule_size,
            granule_shift: granule_size.trailing_zeros(),
        }
    }

    /// Bytes covered by one tag bit.
    #[must_use]
    pub fn granule_size(&self) -> u64 {
        self.granule_size
    }

    /// Number of tag granules covered.
    #[must_use]
    pub fn granules(&self) -> u64 {
        self.granules
    }

    /// Size of the table itself in bytes — the DRAM the tag manager
    /// reserves (4 MB per GB).
    #[must_use]
    pub fn table_bytes(&self) -> u64 {
        self.granules.div_ceil(8)
    }

    /// Granule index for a physical address.
    #[inline]
    #[must_use]
    pub fn granule_of(&self, paddr: u64) -> u64 {
        paddr >> self.granule_shift
    }

    /// Reads the tag covering physical address `paddr`.
    ///
    /// # Panics
    ///
    /// Panics if `paddr` is beyond the covered memory (a simulator bug:
    /// physical range checks happen in [`crate::PhysMem`] first).
    #[must_use]
    #[inline]
    pub fn get(&self, paddr: u64) -> bool {
        let g = self.granule_of(paddr);
        assert!(g < self.granules, "tag lookup beyond physical memory");
        self.bits[(g / 64) as usize] >> (g % 64) & 1 == 1
    }

    /// Sets or clears the tag covering `paddr`.
    ///
    /// # Panics
    ///
    /// As for [`TagTable::get`].
    #[inline]
    pub fn set(&mut self, paddr: u64, tag: bool) {
        let g = self.granule_of(paddr);
        assert!(g < self.granules, "tag store beyond physical memory");
        let (w, b) = ((g / 64) as usize, g % 64);
        if tag {
            self.bits[w] |= 1 << b;
        } else {
            self.bits[w] &= !(1 << b);
        }
    }

    /// Clears every tag whose granule overlaps `[paddr, paddr+len)` — the
    /// effect of a non-capability store (Section 4.2: "Any non-capability
    /// store clears this bit"). Granules past the covered memory are
    /// skipped.
    #[inline(always)]
    pub fn clear_range(&mut self, paddr: u64, len: u64) {
        if len == 0 {
            return;
        }
        let first = self.granule_of(paddr);
        let last = self.granule_of(paddr + len - 1);
        if first == last {
            // Every aligned data store fits one granule.
            self.clear_granule(first);
        } else {
            self.clear_granules(first, last);
        }
    }

    /// [`TagTable::clear_range`] over more than one granule: block
    /// copies and image loads, never a single data store.
    #[cold]
    fn clear_granules(&mut self, first: u64, last: u64) {
        for g in first..=last {
            self.clear_granule(g);
        }
    }

    #[inline]
    fn clear_granule(&mut self, g: u64) {
        if g < self.granules {
            self.bits[(g / 64) as usize] &= !(1 << (g % 64));
        }
    }

    /// Total number of set tags (used by tests and the GC sketch in the
    /// future-work example).
    #[must_use]
    pub fn count_set(&self) -> u64 {
        self.bits.iter().map(|w| u64::from(w.count_ones())).sum()
    }

    /// The raw bitmap words, for snapshot export.
    pub(crate) fn words(&self) -> &[u64] {
        &self.bits
    }

    /// Overwrites the raw bitmap words, for snapshot import. The word
    /// count must match this table's geometry.
    pub(crate) fn set_words(&mut self, words: &[u64]) {
        assert_eq!(words.len(), self.bits.len(), "tag table word count mismatch");
        self.bits.copy_from_slice(words);
    }

    /// Iterates over the physical base addresses of all tagged granules.
    pub fn iter_tagged(&self) -> impl Iterator<Item = u64> + '_ {
        (0..self.granules).filter_map(move |g| {
            if self.bits[(g / 64) as usize] >> (g % 64) & 1 == 1 {
                Some(g * self.granule_size)
            } else {
                None
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn four_megabytes_per_gigabyte() {
        // The paper's headline storage ratio.
        let t = TagTable::new(1 << 30);
        assert_eq!(t.table_bytes(), 4 << 20);
    }

    #[test]
    fn all_clear_at_reset() {
        let t = TagTable::new(1024);
        assert_eq!(t.count_set(), 0);
        assert!(!t.get(0));
    }

    #[test]
    fn set_get_granularity() {
        let mut t = TagTable::new(4096);
        t.set(100, true); // granule 3 covers 96..128
        assert!(t.get(96));
        assert!(t.get(127));
        assert!(!t.get(95));
        assert!(!t.get(128));
        assert_eq!(t.count_set(), 1);
    }

    #[test]
    fn clear_range_covers_partial_granules() {
        let mut t = TagTable::new(4096);
        for a in [0u64, 32, 64, 96] {
            t.set(a, true);
        }
        // A 1-byte store at 33 clears only granule 1.
        t.clear_range(33, 1);
        assert!(t.get(0));
        assert!(!t.get(32));
        assert!(t.get(64));
        // A store straddling granules 2 and 3 clears both.
        t.clear_range(95, 2);
        assert!(!t.get(64));
        assert!(!t.get(96));
        // Zero-length clears are no-ops.
        t.set(0, true);
        t.clear_range(0, 0);
        assert!(t.get(0));
    }

    #[test]
    fn iter_tagged_yields_bases() {
        let mut t = TagTable::new(4096);
        t.set(40, true);
        t.set(2048, true);
        let v: Vec<u64> = t.iter_tagged().collect();
        assert_eq!(v, vec![32, 2048]);
    }

    #[test]
    #[should_panic(expected = "beyond physical memory")]
    fn out_of_range_lookup_panics() {
        let t = TagTable::new(64);
        let _ = t.get(64);
    }
}
