//! The 257-bit tagged-memory interface (Section 4.2).
//!
//! [`TaggedMem`] combines [`PhysMem`] and [`TagController`] and enforces
//! the CHERI tag semantics:
//!
//! * any non-capability store clears the tags of every granule it touches;
//! * `CSC` stores 256 bits plus the register's tag;
//! * `CLC` loads 256 bits plus the granule's tag — so copying untagged
//!   data through capability registers is harmless, and `memcpy()` can
//!   move mixed data/capability structures obliviously.

use cheri_core::{Capability, CAP_SIZE_BYTES};

use crate::ctrl::{TagCacheStats, TagController};
use crate::error::MemError;
use crate::phys::PhysMem;
use crate::TAG_GRANULE;

/// Tagged physical memory: DRAM plus tag manager.
///
/// # Example
///
/// ```
/// use cheri_core::{Capability, Perms};
/// use cheri_mem::TaggedMem;
///
/// let mut m = TaggedMem::new(1 << 16);
/// let cap = Capability::new(0x100, 64, Perms::LOAD | Perms::STORE)?;
/// m.write_cap(0x40, &cap)?;
/// // A data store anywhere in the granule destroys the capability:
/// m.write_u8(0x41, 0)?;
/// let (reloaded, tag) = m.read_cap_raw(0x40)?;
/// assert!(!tag);
/// assert_eq!(Capability::from_bytes(&reloaded, tag).tag(), false);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, Debug)]
pub struct TaggedMem {
    phys: PhysMem,
    tags: TagController,
}

impl TaggedMem {
    /// Allocates `size` bytes of tagged memory with the default 8 KB tag
    /// cache.
    #[must_use]
    pub fn new(size: usize) -> TaggedMem {
        TaggedMem { phys: PhysMem::new(size), tags: TagController::new(size as u64) }
    }

    /// Full configuration, including the tag granule: 32 bytes for the
    /// architectural 256-bit capability, 16 bytes for the 128-bit
    /// production format.
    #[must_use]
    pub fn with_config(size: usize, tag_cache_bytes: usize, granule: u64) -> TaggedMem {
        TaggedMem {
            phys: PhysMem::new(size),
            tags: TagController::with_config(size as u64, tag_cache_bytes, granule),
        }
    }

    /// Bytes covered by one tag bit in this configuration.
    #[must_use]
    pub fn granule(&self) -> u64 {
        self.tags.table().granule_size()
    }

    /// Reads one tagged granule of `self.granule()` bytes at `addr`
    /// (granule-aligned), returning the tag.
    ///
    /// # Errors
    ///
    /// [`MemError::Misaligned`] / [`MemError::OutOfRange`].
    ///
    /// # Panics
    ///
    /// Panics if `buf.len()` differs from the configured granule.
    pub fn read_tagged(&mut self, addr: u64, buf: &mut [u8]) -> Result<bool, MemError> {
        let g = self.granule();
        assert_eq!(buf.len() as u64, g, "buffer must be one granule");
        if !addr.is_multiple_of(g) {
            return Err(MemError::Misaligned { addr, required: g });
        }
        self.phys.read_bytes(addr, buf)?;
        Ok(self.tags.read_tag(addr))
    }

    /// Writes one tagged granule (the `CSC`-level store for the
    /// configured capability width).
    ///
    /// # Errors
    ///
    /// As [`TaggedMem::read_tagged`].
    ///
    /// # Panics
    ///
    /// Panics if `buf.len()` differs from the configured granule.
    pub fn write_tagged(&mut self, addr: u64, buf: &[u8], tag: bool) -> Result<(), MemError> {
        let g = self.granule();
        assert_eq!(buf.len() as u64, g, "buffer must be one granule");
        if !addr.is_multiple_of(g) {
            return Err(MemError::Misaligned { addr, required: g });
        }
        self.phys.write_bytes(addr, buf)?;
        self.tags.write_tag(addr, tag);
        Ok(())
    }

    /// Physical memory size in bytes.
    #[must_use]
    pub fn size(&self) -> u64 {
        self.phys.size()
    }

    /// Tag-controller statistics.
    #[must_use]
    pub fn tag_stats(&self) -> TagCacheStats {
        self.tags.stats()
    }

    /// Resets tag-controller statistics.
    pub fn reset_tag_stats(&mut self) {
        self.tags.reset_stats();
    }

    /// The underlying tag controller (for inspection, e.g. the GC sketch).
    #[must_use]
    pub fn tag_controller(&self) -> &TagController {
        &self.tags
    }

    // --- data accesses (clear tags on store) -----------------------------

    /// Reads raw bytes (data read; tags unaffected).
    ///
    /// # Errors
    ///
    /// [`MemError::OutOfRange`].
    #[inline]
    pub fn read_bytes(&self, addr: u64, buf: &mut [u8]) -> Result<(), MemError> {
        self.phys.read_bytes(addr, buf)
    }

    /// Writes raw data bytes, clearing every covering tag.
    ///
    /// # Errors
    ///
    /// [`MemError::OutOfRange`].
    #[inline(always)]
    pub fn write_bytes(&mut self, addr: u64, bytes: &[u8]) -> Result<(), MemError> {
        self.phys.write_bytes(addr, bytes)?;
        self.tags.clear_tags_for_store(addr, bytes.len() as u64);
        Ok(())
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// [`MemError::OutOfRange`].
    #[inline]
    pub fn read_u8(&self, addr: u64) -> Result<u8, MemError> {
        self.phys.read_u8(addr)
    }

    /// Reads a big-endian u16.
    ///
    /// # Errors
    ///
    /// [`MemError::OutOfRange`].
    #[inline]
    pub fn read_u16(&self, addr: u64) -> Result<u16, MemError> {
        self.phys.read_u16(addr)
    }

    /// Reads a big-endian u32.
    ///
    /// # Errors
    ///
    /// [`MemError::OutOfRange`].
    #[inline]
    pub fn read_u32(&self, addr: u64) -> Result<u32, MemError> {
        self.phys.read_u32(addr)
    }

    /// Reads a big-endian u64.
    ///
    /// # Errors
    ///
    /// [`MemError::OutOfRange`].
    #[inline]
    pub fn read_u64(&self, addr: u64) -> Result<u64, MemError> {
        self.phys.read_u64(addr)
    }

    /// Writes one byte (clears the covering tag).
    ///
    /// # Errors
    ///
    /// [`MemError::OutOfRange`].
    #[inline]
    pub fn write_u8(&mut self, addr: u64, v: u8) -> Result<(), MemError> {
        self.phys.write_u8(addr, v)?;
        self.tags.clear_tags_for_store(addr, 1);
        Ok(())
    }

    /// Writes a big-endian u16 (clears the covering tag).
    ///
    /// # Errors
    ///
    /// [`MemError::OutOfRange`].
    #[inline]
    pub fn write_u16(&mut self, addr: u64, v: u16) -> Result<(), MemError> {
        self.write_bytes(addr, &v.to_be_bytes())
    }

    /// Writes a big-endian u32 (clears the covering tag).
    ///
    /// # Errors
    ///
    /// [`MemError::OutOfRange`].
    #[inline]
    pub fn write_u32(&mut self, addr: u64, v: u32) -> Result<(), MemError> {
        self.write_bytes(addr, &v.to_be_bytes())
    }

    /// Writes a big-endian u64 (clears the covering tag).
    ///
    /// # Errors
    ///
    /// [`MemError::OutOfRange`].
    #[inline]
    pub fn write_u64(&mut self, addr: u64, v: u64) -> Result<(), MemError> {
        self.write_bytes(addr, &v.to_be_bytes())
    }

    // --- capability accesses ---------------------------------------------

    fn check_cap_align(addr: u64) -> Result<(), MemError> {
        if !addr.is_multiple_of(TAG_GRANULE) {
            Err(MemError::Misaligned { addr, required: TAG_GRANULE })
        } else {
            Ok(())
        }
    }

    /// `CLC`-level read: 256 bits of data plus the granule tag.
    ///
    /// # Errors
    ///
    /// [`MemError::Misaligned`] for non-granule-aligned addresses, or
    /// [`MemError::OutOfRange`].
    pub fn read_cap_raw(&mut self, addr: u64) -> Result<([u8; CAP_SIZE_BYTES], bool), MemError> {
        Self::check_cap_align(addr)?;
        let mut buf = [0u8; CAP_SIZE_BYTES];
        self.phys.read_bytes(addr, &mut buf)?;
        let tag = self.tags.read_tag(addr);
        Ok((buf, tag))
    }

    /// `CLC`-level read decoded into a [`Capability`] value (tag reflects
    /// the granule tag).
    ///
    /// # Errors
    ///
    /// As [`TaggedMem::read_cap_raw`].
    pub fn read_cap(&mut self, addr: u64) -> Result<Capability, MemError> {
        let (bytes, tag) = self.read_cap_raw(addr)?;
        Ok(Capability::from_bytes(&bytes, tag))
    }

    /// `CSC`-level write of a register value: stores the 256-bit image and
    /// sets the granule tag to the register's tag. This is how capability
    /// registers holding plain data copy 256-bit blocks "while remaining
    /// oblivious to whether they are copying data or a capability".
    ///
    /// # Errors
    ///
    /// As [`TaggedMem::read_cap_raw`].
    pub fn write_cap(&mut self, addr: u64, cap: &Capability) -> Result<(), MemError> {
        Self::check_cap_align(addr)?;
        self.phys.write_bytes(addr, &cap.to_bytes())?;
        self.tags.write_tag(addr, cap.tag());
        Ok(())
    }

    /// Raw `CSC`-level write from bytes plus an explicit tag.
    ///
    /// # Errors
    ///
    /// As [`TaggedMem::read_cap_raw`].
    pub fn write_cap_raw(
        &mut self,
        addr: u64,
        bytes: &[u8; CAP_SIZE_BYTES],
        tag: bool,
    ) -> Result<(), MemError> {
        Self::check_cap_align(addr)?;
        self.phys.write_bytes(addr, bytes)?;
        self.tags.write_tag(addr, tag);
        Ok(())
    }

    // --- snapshots --------------------------------------------------------

    /// Exports the complete memory state — DRAM image and tag table as
    /// run-length-encoded big-endian words, plus the tag-cache contents
    /// and statistics — for `cheri-snap`.
    #[must_use]
    pub fn export_state(&self) -> cheri_snap::MemState {
        let image = self.phys.image();
        debug_assert!(image.len().is_multiple_of(8), "DRAM size is always 8-aligned");
        let words = cheri_snap::rle_encode(image.chunks_exact(8).map(|c| {
            let mut b = [0u8; 8];
            b.copy_from_slice(c);
            u64::from_be_bytes(b)
        }));
        let tags = cheri_snap::rle_encode(self.tags.table().words().iter().copied());
        let s = self.tags.stats();
        cheri_snap::MemState {
            bytes: self.phys.size(),
            granule: self.granule(),
            words,
            tags,
            tag_cache: self
                .tags
                .export_lines()
                .into_iter()
                .map(|(valid, dirty, line_index)| cheri_snap::TagCacheLineState {
                    valid,
                    dirty,
                    line_index,
                })
                .collect(),
            tag_stats: [s.lookups, s.updates, s.hits, s.misses, s.writebacks],
        }
    }

    /// Restores memory state exported by [`TaggedMem::export_state`].
    ///
    /// The import deliberately bypasses the architectural store path:
    /// [`TaggedMem::write_bytes`] clears tags and charges tag-cache
    /// traffic, either of which would corrupt the restored state. DRAM
    /// bytes, tag-table words, tag-cache lines and tag statistics are
    /// each written directly.
    ///
    /// # Errors
    ///
    /// [`cheri_snap::SnapError`] when the snapshot's geometry (memory
    /// size, granule, tag-cache line count) does not match this
    /// memory's configuration, or a tag-cache line is one the
    /// controller's packed keys cannot hold.
    pub fn import_state(&mut self, s: &cheri_snap::MemState) -> Result<(), cheri_snap::SnapError> {
        if s.bytes != self.phys.size() {
            return Err(cheri_snap::SnapError(format!(
                "memory size mismatch: snapshot {} bytes, machine {} bytes",
                s.bytes,
                self.phys.size()
            )));
        }
        if s.granule != self.granule() {
            return Err(cheri_snap::SnapError(format!(
                "tag granule mismatch: snapshot {}, machine {}",
                s.granule,
                self.granule()
            )));
        }
        if cheri_snap::rle_len(&s.words) * 8 != s.bytes {
            return Err(cheri_snap::SnapError(format!(
                "DRAM image holds {} words, want {}",
                cheri_snap::rle_len(&s.words),
                s.bytes / 8
            )));
        }
        let tag_words = self.tags.table().words().len() as u64;
        if cheri_snap::rle_len(&s.tags) != tag_words {
            return Err(cheri_snap::SnapError(format!(
                "tag table holds {} words, want {tag_words}",
                cheri_snap::rle_len(&s.tags)
            )));
        }
        if s.tag_cache.len() != self.tags.line_count() {
            return Err(cheri_snap::SnapError(format!(
                "tag cache holds {} lines, machine has {}",
                s.tag_cache.len(),
                self.tags.line_count()
            )));
        }
        let lines: Vec<(bool, bool, u64)> =
            s.tag_cache.iter().map(|l| (l.valid, l.dirty, l.line_index)).collect();
        let [lookups, updates, hits, misses, writebacks] = s.tag_stats;
        self.tags
            .import_lines(&lines, TagCacheStats { lookups, updates, hits, misses, writebacks })
            .map_err(cheri_snap::SnapError)?;
        let image = self.phys.image_mut();
        let mut at = 0usize;
        for &(count, value) in &s.words {
            let be = value.to_be_bytes();
            for _ in 0..count {
                image[at..at + 8].copy_from_slice(&be);
                at += 8;
            }
        }
        self.tags.table_mut().set_words(&cheri_snap::rle_decode(&s.tags));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cheri_core::Perms;

    fn cap() -> Capability {
        Capability::new(0x1000, 0x100, Perms::LOAD | Perms::STORE).unwrap()
    }

    #[test]
    fn cap_store_load_roundtrip_preserves_tag() {
        let mut m = TaggedMem::new(4096);
        m.write_cap(64, &cap()).unwrap();
        let c = m.read_cap(64).unwrap();
        assert!(c.tag());
        assert_eq!(c.base(), 0x1000);
        assert_eq!(c.length(), 0x100);
    }

    #[test]
    fn data_store_clears_tag() {
        let mut m = TaggedMem::new(4096);
        m.write_cap(64, &cap()).unwrap();
        m.write_u64(72, 0x42).unwrap(); // inside the granule
        let c = m.read_cap(64).unwrap();
        assert!(!c.tag(), "tag must be cleared by a data store");
        // The other 24 bytes of the image are intact.
        assert_eq!(c.base(), 0x1000);
    }

    #[test]
    fn data_store_outside_granule_preserves_tag() {
        let mut m = TaggedMem::new(4096);
        m.write_cap(64, &cap()).unwrap();
        m.write_u64(96, 0x42).unwrap(); // next granule
        assert!(m.read_cap(64).unwrap().tag());
    }

    #[test]
    fn straddling_data_store_clears_both_granules() {
        let mut m = TaggedMem::new(4096);
        m.write_cap(64, &cap()).unwrap();
        m.write_cap(96, &cap()).unwrap();
        m.write_bytes(92, &[0; 8]).unwrap(); // spans 64..96 and 96..128
        assert!(!m.read_cap(64).unwrap().tag());
        assert!(!m.read_cap(96).unwrap().tag());
    }

    #[test]
    fn untagged_cap_store_moves_data_without_tag() {
        // memcpy() via CLC/CSC of a plain-data granule.
        let mut m = TaggedMem::new(4096);
        m.write_u64(64, 0xdead).unwrap();
        let (bytes, tag) = m.read_cap_raw(64).unwrap();
        assert!(!tag);
        m.write_cap_raw(128, &bytes, tag).unwrap();
        assert_eq!(m.read_u64(128).unwrap(), 0xdead);
        assert!(!m.read_cap(128).unwrap().tag());
    }

    #[test]
    fn memcpy_of_mixed_structure_preserves_capabilities() {
        // A 64-byte structure: one capability granule + one data granule.
        let mut m = TaggedMem::new(4096);
        m.write_cap(0, &cap()).unwrap();
        m.write_u64(32, 123).unwrap();
        // Copy granule-by-granule through the 257-bit interface.
        for g in 0..2u64 {
            let (b, t) = m.read_cap_raw(g * 32).unwrap();
            m.write_cap_raw(1024 + g * 32, &b, t).unwrap();
        }
        assert!(m.read_cap(1024).unwrap().tag());
        assert_eq!(m.read_u64(1056).unwrap(), 123);
    }

    #[test]
    fn misaligned_cap_access_rejected() {
        let mut m = TaggedMem::new(4096);
        assert_eq!(
            m.write_cap(65, &cap()).unwrap_err(),
            MemError::Misaligned { addr: 65, required: 32 }
        );
        assert!(m.read_cap(16).is_err());
    }

    #[test]
    fn tag_stats_accumulate() {
        let mut m = TaggedMem::new(1 << 16);
        m.write_cap(0, &cap()).unwrap();
        let _ = m.read_cap(0).unwrap();
        let s = m.tag_stats();
        assert!(s.lookups >= 1);
        assert!(s.updates >= 1);
        m.reset_tag_stats();
        assert_eq!(m.tag_stats().lookups, 0);
    }
}
