//! The software-managed TLB.
//!
//! BERI follows the MIPS R4000 model: a fully-associative array of
//! paired-page entries, refilled by software on miss. The configuration
//! used in the paper's Figure 5 covers 1 MB (128 entries × 2 × 4 KB
//! pages): "visible 'steps' as the 16KB L1 cache, 64KB L2 cache, and TLB
//! covering 1MB overflow".
//!
//! CHERI extends each page mapping with two permission bits (Section 6.1):
//! *capability load* and *capability store*, letting the OS build shared
//! memory "that cannot act as a channel for passing capabilities".

use crate::exception::TrapKind;

/// Page size in bytes (4 KB, the MIPS minimum — the paper's granularity
/// comparison point for MMU-based protection).
pub const PAGE_SIZE: u64 = 4096;
/// log2 of the page size.
pub const PAGE_SHIFT: u32 = 12;
/// The machine's TLB size in paired entries: 128 pairs × 2 × 4 KB = 1 MB
/// coverage (Figure 5). [`Tlb::new`] takes a size so tests can build
/// smaller ones.
pub const DEFAULT_ENTRIES: usize = 128;

/// Per-page flags held in `EntryLo`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TlbFlags {
    /// Valid: the mapping may be used.
    pub valid: bool,
    /// Dirty (writable): stores are allowed.
    pub dirty: bool,
    /// CHERI: capability loads (`CLC`) permitted from this page.
    pub cap_load: bool,
    /// CHERI: capability stores (`CSC`) permitted to this page.
    pub cap_store: bool,
}

impl TlbFlags {
    /// Flags for a normal read-write page with capability traffic allowed
    /// (what the OS installs for ordinary anonymous memory).
    #[must_use]
    pub const fn rw() -> TlbFlags {
        TlbFlags { valid: true, dirty: true, cap_load: true, cap_store: true }
    }

    /// Flags for a read-write page that may not carry capabilities — the
    /// Section 6.1 shared-memory configuration.
    #[must_use]
    pub const fn rw_no_caps() -> TlbFlags {
        TlbFlags { valid: true, dirty: true, cap_load: false, cap_store: false }
    }
}

/// One TLB entry mapping an aligned *pair* of virtual pages.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TlbEntry {
    /// Virtual page-pair number (`vaddr >> 13`).
    pub vpn2: u64,
    /// Physical frame number of the even page.
    pub pfn0: u64,
    /// Flags of the even page.
    pub flags0: TlbFlags,
    /// Physical frame number of the odd page.
    pub pfn1: u64,
    /// Flags of the odd page.
    pub flags1: TlbFlags,
    /// Whether this entry participates in matching at all.
    pub present: bool,
}

/// The result of a successful translation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Translation {
    /// The physical address.
    pub paddr: u64,
    /// Flags of the containing page (for capability-permission checks).
    pub flags: TlbFlags,
}

/// The translation lookaside buffer.
///
/// # Example
///
/// ```
/// use beri_sim::tlb::{Tlb, TlbFlags, PAGE_SIZE};
///
/// let mut tlb = Tlb::new(128);
/// tlb.install(0x4000, 0x8000, TlbFlags::rw());
/// let t = tlb.translate(0x4010, false).unwrap();
/// assert_eq!(t.paddr, 0x8010);
/// assert!(tlb.translate(0x4000 + 2 * PAGE_SIZE, false).is_err());
/// ```
#[derive(Clone, Debug)]
pub struct Tlb {
    entries: Vec<TlbEntry>,
    next_random: usize,
    misses: u64,
}

impl Tlb {
    /// Creates an empty TLB with `entries` paired entries.
    #[must_use]
    pub fn new(entries: usize) -> Tlb {
        Tlb { entries: vec![TlbEntry::default(); entries], next_random: 0, misses: 0 }
    }

    /// Number of paired entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the TLB has no entries (a zero-entry configuration used in
    /// tests).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Bytes of address space the TLB can map at once.
    #[must_use]
    pub fn coverage_bytes(&self) -> u64 {
        self.entries.len() as u64 * 2 * PAGE_SIZE
    }

    /// Number of refill misses taken so far.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Translates `vaddr`; on success returns the physical address and
    /// page flags.
    ///
    /// # Errors
    ///
    /// * [`TrapKind::TlbRefill`] if no entry matches (counted in
    ///   [`Tlb::misses`]).
    /// * [`TrapKind::TlbInvalid`] if the matching page is invalid.
    /// * [`TrapKind::TlbModified`] for stores to clean pages.
    pub fn translate(&mut self, vaddr: u64, write: bool) -> Result<Translation, TrapKind> {
        let vpn2 = vaddr >> (PAGE_SHIFT + 1);
        let odd = (vaddr >> PAGE_SHIFT) & 1 == 1;
        for e in &self.entries {
            if e.present && e.vpn2 == vpn2 {
                let (pfn, flags) = if odd { (e.pfn1, e.flags1) } else { (e.pfn0, e.flags0) };
                if !flags.valid {
                    return Err(TrapKind::TlbInvalid { vaddr, write });
                }
                if write && !flags.dirty {
                    return Err(TrapKind::TlbModified { vaddr });
                }
                let paddr = (pfn << PAGE_SHIFT) | (vaddr & (PAGE_SIZE - 1));
                return Ok(Translation { paddr, flags });
            }
        }
        self.misses += 1;
        Err(TrapKind::TlbRefill { vaddr, write })
    }

    /// Writes an entry at a "random" slot (round-robin here, which is
    /// deterministic for reproducibility) — the `TLBWR` path used by the
    /// refill handler.
    pub fn write_random(&mut self, entry: TlbEntry) {
        // Evict any other entry mapping the same vpn2 first so the TLB
        // never holds duplicate mappings (a machine-check on real MIPS).
        for e in &mut self.entries {
            if e.present && e.vpn2 == entry.vpn2 {
                *e = TlbEntry::default();
            }
        }
        let slot = self.next_random;
        self.entries[slot] = entry;
        self.next_random = (self.next_random + 1) % self.entries.len();
    }

    /// Writes the entry at an explicit index (`TLBWI`).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range (kernel bug).
    pub fn write_indexed(&mut self, index: usize, entry: TlbEntry) {
        self.entries[index] = entry;
    }

    /// Reads the entry at `index` (`TLBR`).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    #[must_use]
    pub fn read_indexed(&self, index: usize) -> TlbEntry {
        self.entries[index]
    }

    /// Probes for the entry matching `vaddr` (`TLBP`), returning its
    /// index.
    #[must_use]
    pub fn probe(&self, vaddr: u64) -> Option<usize> {
        let vpn2 = vaddr >> (PAGE_SHIFT + 1);
        self.entries.iter().position(|e| e.present && e.vpn2 == vpn2)
    }

    /// Convenience used by the host kernel: installs a single-page
    /// mapping `vaddr -> paddr` (its pair-partner page is left invalid
    /// unless already mapped by the same entry).
    ///
    /// # Panics
    ///
    /// Panics if `vaddr`/`paddr` are not page-aligned.
    pub fn install(&mut self, vaddr: u64, paddr: u64, flags: TlbFlags) {
        assert_eq!(vaddr % PAGE_SIZE, 0, "vaddr must be page-aligned");
        assert_eq!(paddr % PAGE_SIZE, 0, "paddr must be page-aligned");
        let vpn2 = vaddr >> (PAGE_SHIFT + 1);
        let odd = (vaddr >> PAGE_SHIFT) & 1 == 1;
        // Merge with an existing entry for the pair if present.
        let existing = self.entries.iter().position(|e| e.present && e.vpn2 == vpn2);
        let mut entry = existing
            .map_or(TlbEntry { vpn2, present: true, ..TlbEntry::default() }, |i| self.entries[i]);
        if odd {
            entry.pfn1 = paddr >> PAGE_SHIFT;
            entry.flags1 = flags;
        } else {
            entry.pfn0 = paddr >> PAGE_SHIFT;
            entry.flags0 = flags;
        }
        match existing {
            Some(i) => self.entries[i] = entry,
            None => self.write_random(entry),
        }
    }

    /// Invalidates every entry (context switch / `execve`).
    pub fn flush(&mut self) {
        for e in &mut self.entries {
            *e = TlbEntry::default();
        }
    }

    /// Exports the full TLB state (entries, replacement cursor, miss
    /// count) for `cheri-snap`.
    #[must_use]
    pub fn export_state(&self) -> cheri_snap::TlbState {
        let pack = |f: TlbFlags| {
            u64::from(f.valid)
                | (u64::from(f.dirty) << 1)
                | (u64::from(f.cap_load) << 2)
                | (u64::from(f.cap_store) << 3)
        };
        cheri_snap::TlbState {
            entries: self
                .entries
                .iter()
                .map(|e| cheri_snap::TlbEntryState {
                    vpn2: e.vpn2,
                    pfn0: e.pfn0,
                    flags0: pack(e.flags0),
                    pfn1: e.pfn1,
                    flags1: pack(e.flags1),
                    present: e.present,
                })
                .collect(),
            next_random: self.next_random as u64,
            misses: self.misses,
        }
    }

    /// Restores state exported by [`Tlb::export_state`].
    ///
    /// # Errors
    ///
    /// [`cheri_snap::SnapError`] if the snapshot's entry count differs
    /// from this TLB's geometry.
    pub fn import_state(&mut self, s: &cheri_snap::TlbState) -> Result<(), cheri_snap::SnapError> {
        if s.entries.len() != self.entries.len() {
            return Err(cheri_snap::SnapError(format!(
                "TLB holds {} entries, snapshot has {}",
                self.entries.len(),
                s.entries.len()
            )));
        }
        let unpack = |bits: u64| TlbFlags {
            valid: bits & 1 != 0,
            dirty: bits & 2 != 0,
            cap_load: bits & 4 != 0,
            cap_store: bits & 8 != 0,
        };
        for (e, se) in self.entries.iter_mut().zip(&s.entries) {
            *e = TlbEntry {
                vpn2: se.vpn2,
                pfn0: se.pfn0,
                flags0: unpack(se.flags0),
                pfn1: se.pfn1,
                flags1: unpack(se.flags1),
                present: se.present,
            };
        }
        self.next_random = (s.next_random as usize) % self.entries.len().max(1);
        self.misses = s.misses;
        Ok(())
    }

    /// Invalidates any entry mapping the page containing `vaddr`
    /// (revocation via unmapping, Section 6.1).
    pub fn invalidate_page(&mut self, vaddr: u64) {
        let vpn2 = vaddr >> (PAGE_SHIFT + 1);
        let odd = (vaddr >> PAGE_SHIFT) & 1 == 1;
        for e in &mut self.entries {
            if e.present && e.vpn2 == vpn2 {
                if odd {
                    e.flags1.valid = false;
                } else {
                    e.flags0.valid = false;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_then_install_then_hit() {
        let mut tlb = Tlb::new(4);
        assert!(matches!(
            tlb.translate(0x1000, false),
            Err(TrapKind::TlbRefill { vaddr: 0x1000, write: false })
        ));
        assert_eq!(tlb.misses(), 1);
        tlb.install(0x1000, 0xa000, TlbFlags::rw());
        let t = tlb.translate(0x1ff8, false).unwrap();
        assert_eq!(t.paddr, 0xaff8);
    }

    #[test]
    fn paired_pages_share_one_entry() {
        let mut tlb = Tlb::new(2);
        tlb.install(0x2000, 0xa000, TlbFlags::rw()); // even page of pair 1
        tlb.install(0x3000, 0xb000, TlbFlags::rw()); // odd page, same pair
        assert_eq!(tlb.translate(0x2004, false).unwrap().paddr, 0xa004);
        assert_eq!(tlb.translate(0x3004, false).unwrap().paddr, 0xb004);
        // Both used one entry: the other slot is still free.
        assert_eq!(tlb.probe(0x2000), tlb.probe(0x3000));
    }

    #[test]
    fn clean_page_faults_on_store() {
        let mut tlb = Tlb::new(2);
        let ro = TlbFlags { valid: true, dirty: false, cap_load: true, cap_store: false };
        tlb.install(0x1000, 0x8000, ro);
        assert!(tlb.translate(0x1000, false).is_ok());
        assert!(matches!(
            tlb.translate(0x1000, true),
            Err(TrapKind::TlbModified { vaddr: 0x1000 })
        ));
    }

    #[test]
    fn invalid_page_faults() {
        let mut tlb = Tlb::new(2);
        let inv = TlbFlags { valid: false, ..TlbFlags::rw() };
        tlb.install(0x1000, 0x8000, inv);
        assert!(matches!(tlb.translate(0x1000, false), Err(TrapKind::TlbInvalid { .. })));
    }

    #[test]
    fn capability_permission_bits_surface() {
        let mut tlb = Tlb::new(2);
        tlb.install(0x1000, 0x8000, TlbFlags::rw_no_caps());
        let t = tlb.translate(0x1000, true).unwrap();
        assert!(!t.flags.cap_store);
        assert!(!t.flags.cap_load);
    }

    #[test]
    fn coverage_is_1mb_at_default_geometry() {
        let tlb = Tlb::new(DEFAULT_ENTRIES);
        assert_eq!(tlb.coverage_bytes(), 1 << 20);
    }

    #[test]
    fn replacement_evicts_round_robin() {
        let mut tlb = Tlb::new(2);
        tlb.install(0x0000, 0x8000, TlbFlags::rw());
        tlb.install(0x2000, 0x9000, TlbFlags::rw());
        tlb.install(0x4000, 0xa000, TlbFlags::rw()); // evicts the first
        assert!(tlb.translate(0x0000, false).is_err());
        assert!(tlb.translate(0x2000, false).is_ok());
        assert!(tlb.translate(0x4000, false).is_ok());
    }

    #[test]
    fn no_duplicate_entries_for_same_pair() {
        let mut tlb = Tlb::new(4);
        tlb.install(0x1000, 0x8000, TlbFlags::rw());
        // Re-install same page at a different frame; must supersede.
        let e = TlbEntry {
            vpn2: 0x1000 >> 13,
            pfn0: 0x9000 >> 12,
            flags0: TlbFlags::rw(),
            pfn1: 0x9000 >> 12,
            flags1: TlbFlags::rw(),
            present: true,
        };
        tlb.write_random(e);
        let matches: usize = (0..tlb.len())
            .filter(|&i| tlb.read_indexed(i).present && tlb.read_indexed(i).vpn2 == 0x1000 >> 13)
            .count();
        assert_eq!(matches, 1);
    }

    #[test]
    fn flush_and_invalidate() {
        let mut tlb = Tlb::new(4);
        tlb.install(0x1000, 0x8000, TlbFlags::rw());
        tlb.invalidate_page(0x1000);
        assert!(matches!(tlb.translate(0x1000, false), Err(TrapKind::TlbInvalid { .. })));
        tlb.flush();
        assert!(matches!(tlb.translate(0x1000, false), Err(TrapKind::TlbRefill { .. })));
    }
}
