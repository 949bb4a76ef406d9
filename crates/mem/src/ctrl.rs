//! The tag manager / controller (Section 4.2).
//!
//! "A tag manager below the last level cache presents a 257-bit,
//! tagged-memory interface to the CHERI cache hierarchy. The manager
//! associates each memory transaction with a tag from the table and
//! ensures consistency between memory and tags. ... the current tag
//! controller (which minimizes table lookups using an 8 KB tag cache) does
//! not noticeably degrade performance."
//!
//! The controller here models that design: tag reads/writes go through a
//! direct-mapped write-back cache of tag-table lines, and the controller
//! counts the DRAM traffic the table generates — the quantity the paper's
//! claim (and our tag-cache ablation bench) is about.
//!
//! Every data store and capability access consults the tag cache, so its
//! hit path is one masked index and one compare: the line count is 0 or
//! a power of two (asserted at construction), and each slot holds one
//! packed 8-byte key, `line_index | VALID` (0 for an empty slot), with
//! its dirty bit in a parallel array.

use crate::tags::TagTable;
use crate::{DEFAULT_TAG_CACHE_BYTES, TAG_GRANULE, TAG_LINE_BYTES};

/// Statistics maintained by the tag controller.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TagCacheStats {
    /// Tag lookups (one per memory transaction through the controller).
    pub lookups: u64,
    /// Tag writes (capability stores and tag-clearing data stores).
    pub updates: u64,
    /// Tag-cache hits.
    pub hits: u64,
    /// Tag-cache misses (each costs a DRAM tag-line read).
    pub misses: u64,
    /// Dirty lines written back to the DRAM tag table.
    pub writebacks: u64,
}

impl TagCacheStats {
    /// Hit rate over all lookups+updates, in [0, 1]; 1.0 for an idle
    /// controller.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            1.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Extra DRAM bytes moved on behalf of the tag table.
    #[must_use]
    pub fn dram_tag_bytes(&self) -> u64 {
        (self.misses + self.writebacks) * TAG_LINE_BYTES
    }
}

/// The key bit that marks a tag-cache slot valid. A line index is a
/// physical address shifted right by 13 or more bits, so it never
/// reaches it.
const VALID: u64 = 1 << 63;

/// The tag manager: tag table + direct-mapped write-back tag cache.
///
/// # Example
///
/// ```
/// use cheri_mem::TagController;
///
/// let mut ctl = TagController::new(1 << 20); // 1 MB physical memory
/// ctl.write_tag(0x100, true);
/// assert!(ctl.read_tag(0x100));
/// // The second access to the same granule's line hits the tag cache:
/// assert!(ctl.stats().hits >= 1);
/// ```
#[derive(Clone, Debug)]
pub struct TagController {
    table: TagTable,
    // One entry per tag-cache slot: `keys[i]` is `line_index | VALID`
    // for a filled slot and 0 for an empty one; `dirty[i]` whether the
    // slot was written since its fill.
    keys: Vec<u64>,
    dirty: Vec<bool>,
    /// `keys.len() - 1`: the slot of a line is its index masked by this.
    slot_mask: u64,
    /// `log2(bytes_per_line())` — the line math runs on every data
    /// store, so it shifts instead of dividing.
    line_shift: u32,
    stats: TagCacheStats,
}

impl TagController {
    /// A controller for `mem_size` bytes of physical memory with the
    /// paper's default 8 KB tag cache.
    #[must_use]
    pub fn new(mem_size: u64) -> TagController {
        TagController::with_cache_bytes(mem_size, DEFAULT_TAG_CACHE_BYTES)
    }

    /// A controller with a custom tag-cache capacity (for the ablation
    /// bench). A capacity of 0 disables caching: every access is a miss.
    #[must_use]
    pub fn with_cache_bytes(mem_size: u64, cache_bytes: usize) -> TagController {
        TagController::with_config(mem_size, cache_bytes, TAG_GRANULE)
    }

    /// Full configuration: cache capacity plus tag granule (16 bytes for
    /// the 128-bit capability format).
    ///
    /// # Panics
    ///
    /// Panics unless [`TagController::valid_capacity`] holds for
    /// `cache_bytes`.
    #[must_use]
    pub fn with_config(mem_size: u64, cache_bytes: usize, granule: u64) -> TagController {
        assert!(
            TagController::valid_capacity(cache_bytes as u64),
            "a tag cache of {cache_bytes} bytes is not 0 or a power of two of {TAG_LINE_BYTES}-byte lines"
        );
        let nlines = cache_bytes / TAG_LINE_BYTES as usize;
        let bytes_per_line = TAG_LINE_BYTES * 8 * granule;
        debug_assert!(bytes_per_line.is_power_of_two());
        TagController {
            table: TagTable::with_granule(mem_size, granule),
            keys: vec![0; nlines],
            dirty: vec![false; nlines],
            slot_mask: (nlines as u64).wrapping_sub(1),
            line_shift: bytes_per_line.trailing_zeros(),
            stats: TagCacheStats::default(),
        }
    }

    /// Whether a tag cache of `cache_bytes` can be built: it holds 0 or
    /// a power-of-two number of whole [`TAG_LINE_BYTES`] lines (bytes
    /// past the last whole line are unused), so a slot is a mask.
    #[must_use]
    pub fn valid_capacity(cache_bytes: u64) -> bool {
        let nlines = cache_bytes / TAG_LINE_BYTES;
        nlines == 0 || nlines.is_power_of_two()
    }

    /// Physical bytes of memory covered by one tag-cache line.
    #[must_use]
    pub fn bytes_per_line(&self) -> u64 {
        TAG_LINE_BYTES * 8 * self.table.granule_size()
    }

    /// The accumulated statistics.
    #[must_use]
    #[inline]
    pub fn stats(&self) -> TagCacheStats {
        self.stats
    }

    /// Resets the statistics (not the cache contents).
    pub fn reset_stats(&mut self) {
        self.stats = TagCacheStats::default();
    }

    /// Direct access to the underlying table (no cache modelling) —
    /// used by debugger-style inspection and tests.
    #[must_use]
    pub fn table(&self) -> &TagTable {
        &self.table
    }

    /// Mutable table access for snapshot import (no cache modelling,
    /// no statistics).
    pub(crate) fn table_mut(&mut self) -> &mut TagTable {
        &mut self.table
    }

    /// Number of tag-cache lines.
    pub(crate) fn line_count(&self) -> usize {
        self.keys.len()
    }

    /// Tag-cache lines as `(valid, dirty, line_index)`, for snapshot
    /// export.
    pub(crate) fn export_lines(&self) -> Vec<(bool, bool, u64)> {
        self.keys.iter().zip(&self.dirty).map(|(&k, &d)| (k != 0, d, k & !VALID)).collect()
    }

    /// Restores tag-cache lines and statistics from a snapshot.
    ///
    /// # Errors
    ///
    /// Names the first line the packed key cannot hold: a valid line
    /// whose index has the top bit set, or an invalid line with a
    /// nonzero index. The line count must match this controller's
    /// geometry (checked by the caller). Nothing is restored on error.
    pub(crate) fn import_lines(
        &mut self,
        lines: &[(bool, bool, u64)],
        stats: TagCacheStats,
    ) -> Result<(), String> {
        debug_assert_eq!(lines.len(), self.keys.len());
        let key = |&(valid, _, line_index): &(bool, bool, u64)| match (valid, line_index) {
            (true, i) if i & VALID == 0 => Some(i | VALID),
            (false, 0) => Some(0),
            _ => None,
        };
        if let Some(i) = lines.iter().position(|l| key(l).is_none()) {
            let (valid, _, line_index) = lines[i];
            let kind = if valid { "a valid" } else { "an invalid" };
            return Err(format!(
                "tag cache line {i}: index {line_index:#x} cannot be held by {kind} line"
            ));
        }
        for (i, l) in lines.iter().enumerate() {
            self.keys[i] = key(l).expect("checked above");
            self.dirty[i] = l.1;
        }
        self.stats = stats;
        Ok(())
    }

    /// Probes the tag cache for the line covering `paddr`, dirtying it
    /// if asked. The hit is inlined into every caller; the miss, and
    /// every probe of an uncached controller, is not.
    #[inline(always)]
    fn touch_line(&mut self, paddr: u64, make_dirty: bool) {
        let line_index = paddr >> self.line_shift;
        let slot = (line_index & self.slot_mask) as usize;
        match self.keys.get(slot) {
            Some(&k) if k == line_index | VALID => {
                self.stats.hits += 1;
                if make_dirty {
                    self.dirty[slot] = true;
                }
            }
            _ => self.touch_miss(line_index, make_dirty),
        }
    }

    /// The miss half of [`TagController::touch_line`]: fills the slot of
    /// line `line_index`, writing back a dirty occupant. With no tag
    /// cache at all, every probe lands here and writes through.
    #[cold]
    #[inline(never)]
    fn touch_miss(&mut self, line_index: u64, make_dirty: bool) {
        self.stats.misses += 1;
        if self.keys.is_empty() {
            if make_dirty {
                self.stats.writebacks += 1; // write-through when uncached
            }
            return;
        }
        let slot = (line_index & self.slot_mask) as usize;
        if self.keys[slot] != 0 && self.dirty[slot] {
            self.stats.writebacks += 1;
        }
        self.keys[slot] = line_index | VALID;
        self.dirty[slot] = make_dirty;
    }

    /// Reads the tag for the granule covering `paddr`, through the cache.
    #[must_use]
    #[inline(always)]
    pub fn read_tag(&mut self, paddr: u64) -> bool {
        self.stats.lookups += 1;
        self.touch_line(paddr, false);
        self.table.get(paddr)
    }

    /// Writes the tag for the granule covering `paddr`, through the cache.
    #[inline(always)]
    pub fn write_tag(&mut self, paddr: u64, tag: bool) {
        self.stats.updates += 1;
        self.touch_line(paddr, true);
        self.table.set(paddr, tag);
    }

    /// Clears all tags overlapped by a data store of `len` bytes at
    /// `paddr` (the "non-capability store clears the bit" rule).
    ///
    /// Every store of at least one byte counts one tag update
    /// ([`TagCacheStats::updates`]), touches and dirties the tag-cache
    /// line covering `paddr` (and the one covering the last byte, when
    /// the store crosses a line), and clears the covered granules' tags
    /// in the table, whether or not any of them was set.
    #[inline(always)]
    pub fn clear_tags_for_store(&mut self, paddr: u64, len: u64) {
        if len == 0 {
            return;
        }
        self.stats.updates += 1;
        self.touch_line(paddr, true);
        self.table.clear_range(paddr, len);
        // A store crossing a line boundary touches the second line too.
        let last = paddr + len - 1;
        if last >> self.line_shift != paddr >> self.line_shift {
            self.touch_line(last, true);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_cache_is_8kb() {
        let ctl = TagController::new(1 << 20);
        assert_eq!(ctl.line_count() * TAG_LINE_BYTES as usize, 8 * 1024);
    }

    #[test]
    fn one_line_covers_16kb() {
        assert_eq!(TagController::new(1 << 20).bytes_per_line(), 16 * 1024);
        // 128-bit configuration: half the coverage per line.
        assert_eq!(TagController::with_config(1 << 20, 8192, 16).bytes_per_line(), 8 * 1024);
    }

    #[test]
    fn repeated_access_hits() {
        let mut ctl = TagController::new(1 << 20);
        ctl.write_tag(0, true);
        for _ in 0..100 {
            assert!(ctl.read_tag(0));
        }
        let s = ctl.stats();
        assert_eq!(s.misses, 1);
        assert_eq!(s.hits, 100);
        assert!(s.hit_rate() > 0.99);
    }

    #[test]
    fn distinct_lines_conflict_in_direct_mapped_cache() {
        // 8 KB cache = 128 lines; two addresses 128 lines apart alias.
        let stride = 16 * 1024 * 128u64;
        let mut ctl = TagController::new(2 * stride + 1024);
        let _ = ctl.read_tag(0);
        let _ = ctl.read_tag(stride);
        let _ = ctl.read_tag(0);
        assert_eq!(ctl.stats().misses, 3);
    }

    #[test]
    fn writeback_counted_on_dirty_eviction() {
        let stride = 16 * 1024 * 128u64;
        let mut ctl = TagController::new(2 * stride + 1024);
        ctl.write_tag(0, true);
        let _ = ctl.read_tag(stride); // evicts dirty line 0
        assert_eq!(ctl.stats().writebacks, 1);
        assert!(ctl.stats().dram_tag_bytes() >= 2 * TAG_LINE_BYTES);
    }

    #[test]
    fn zero_byte_cache_misses_always() {
        let mut ctl = TagController::with_cache_bytes(1 << 20, 0);
        let _ = ctl.read_tag(0);
        let _ = ctl.read_tag(0);
        assert_eq!(ctl.stats().hits, 0);
        assert_eq!(ctl.stats().misses, 2);
    }

    #[test]
    fn store_clears_tags_through_controller() {
        let mut ctl = TagController::new(1 << 20);
        ctl.write_tag(64, true);
        assert!(ctl.read_tag(64));
        ctl.clear_tags_for_store(70, 4);
        assert!(!ctl.read_tag(64));
    }

    #[test]
    fn idle_hit_rate_is_one() {
        let ctl = TagController::new(1024);
        assert_eq!(ctl.stats().hit_rate(), 1.0);
    }
}
