//! Physical DRAM, materialised on first write.
//!
//! BERI/CHERI is a big-endian 64-bit MIPS machine, so all multi-byte
//! accessors here are big-endian.
//!
//! A guest addresses all of its DRAM but writes little of it: the
//! kernel hands out frames upward from the bottom of memory on first
//! touch, and a smoke-sized job has written at most 471 KB of its
//! 9–10 MB when it exits. [`PhysMem`] therefore holds only a
//! *materialised prefix* of the image. Bytes past the prefix read as
//! zero, and the first write past it grows the prefix to the write's
//! page-rounded end. The architectural size alone decides what is in
//! range, so every read, write and [`MemError`] is what flat memory
//! would give; building a memory, capturing it and restoring it cost
//! what was written, not the whole DRAM.

use crate::error::MemError;

/// The granule the prefix grows by: the guest's 4 KB page, the unit in
/// which the kernel hands out frames.
const GROW_BYTES: u64 = 4096;

/// Byte-addressable physical memory.
///
/// # Example
///
/// ```
/// use cheri_mem::PhysMem;
///
/// let mut m = PhysMem::new(4096);
/// m.write_u64(0x100, 0xdead_beef_cafe_f00d)?;
/// assert_eq!(m.read_u64(0x100)?, 0xdead_beef_cafe_f00d);
/// // Big-endian byte order, as on MIPS:
/// assert_eq!(m.read_u8(0x100)?, 0xde);
/// // Never-written memory reads as zero:
/// assert_eq!(m.read_u64(0x800)?, 0);
/// # Ok::<(), cheri_mem::MemError>(())
/// ```
#[derive(Clone)]
pub struct PhysMem {
    // The materialised prefix, bytes `0..data.len()`; every byte from
    // `data.len()` up to `size` is zero. `data.len() <= size` always.
    data: Vec<u8>,
    size: u64,
}

impl PhysMem {
    /// A physical memory of `size` bytes, all zero. Nothing is
    /// allocated until the first write.
    #[must_use]
    pub fn new(size: usize) -> PhysMem {
        PhysMem { data: Vec::new(), size: size as u64 }
    }

    /// Physical memory size in bytes.
    #[must_use]
    #[inline]
    pub fn size(&self) -> u64 {
        self.size
    }

    /// The prefix offset of `[addr, addr + len)` when the range lies
    /// wholly inside the materialised prefix: the one compare of every
    /// hit.
    #[inline(always)]
    fn in_prefix(&self, addr: u64, len: usize) -> Option<usize> {
        match addr.checked_add(len as u64) {
            Some(end) if end <= self.data.len() as u64 => Some(addr as usize),
            _ => None,
        }
    }

    /// Refuses `[addr, addr + len)` unless it lies wholly inside
    /// memory.
    fn check(&self, addr: u64, len: usize) -> Result<(), MemError> {
        let size = len as u64;
        match addr.checked_add(size) {
            Some(end) if end <= self.size => Ok(()),
            _ => Err(MemError::OutOfRange { addr, size, mem_size: self.size }),
        }
    }

    /// Reads `buf.len()` bytes starting at `addr`.
    ///
    /// # Errors
    ///
    /// [`MemError::OutOfRange`] if the access extends past the end of
    /// memory.
    #[inline(always)]
    pub fn read_bytes(&self, addr: u64, buf: &mut [u8]) -> Result<(), MemError> {
        match self.in_prefix(addr, buf.len()) {
            Some(a) => {
                buf.copy_from_slice(&self.data[a..a + buf.len()]);
                Ok(())
            }
            None => self.read_past_prefix(addr, buf),
        }
    }

    /// The read of a range that ends past the prefix: its bytes inside
    /// the prefix are copied and the rest read as zero.
    #[cold]
    #[inline(never)]
    fn read_past_prefix(&self, addr: u64, buf: &mut [u8]) -> Result<(), MemError> {
        self.check(addr, buf.len())?;
        let a = addr as usize;
        let have = self.data.len().saturating_sub(a).min(buf.len());
        let (inside, past) = buf.split_at_mut(have);
        if have > 0 {
            inside.copy_from_slice(&self.data[a..a + have]);
        }
        past.fill(0);
        Ok(())
    }

    /// Writes `bytes` starting at `addr`.
    ///
    /// # Errors
    ///
    /// [`MemError::OutOfRange`] if the access extends past the end of
    /// memory.
    #[inline(always)]
    pub fn write_bytes(&mut self, addr: u64, bytes: &[u8]) -> Result<(), MemError> {
        let a = match self.in_prefix(addr, bytes.len()) {
            Some(a) => a,
            None => self.materialise(addr, bytes.len())?,
        };
        self.data[a..a + bytes.len()].copy_from_slice(bytes);
        Ok(())
    }

    /// Grows the prefix to cover `[addr, addr + len)`, to the end's
    /// page-rounded boundary (or the end of memory), so that the write
    /// lands inside it. `Vec` keeps the growth amortised; rounding only
    /// to the page keeps the resident image close to what was written.
    #[cold]
    #[inline(never)]
    fn materialise(&mut self, addr: u64, len: usize) -> Result<usize, MemError> {
        self.check(addr, len)?;
        let end = (addr + len as u64).next_multiple_of(GROW_BYTES).min(self.size);
        if end > self.data.len() as u64 {
            self.data.resize(end as usize, 0);
        }
        Ok(addr as usize)
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// [`MemError::OutOfRange`].
    #[inline(always)]
    pub fn read_u8(&self, addr: u64) -> Result<u8, MemError> {
        let mut b = [0u8; 1];
        self.read_bytes(addr, &mut b)?;
        Ok(b[0])
    }

    /// Reads a big-endian 16-bit half-word.
    ///
    /// # Errors
    ///
    /// [`MemError::OutOfRange`].
    #[inline(always)]
    pub fn read_u16(&self, addr: u64) -> Result<u16, MemError> {
        let mut b = [0u8; 2];
        self.read_bytes(addr, &mut b)?;
        Ok(u16::from_be_bytes(b))
    }

    /// Reads a big-endian 32-bit word.
    ///
    /// # Errors
    ///
    /// [`MemError::OutOfRange`].
    #[inline(always)]
    pub fn read_u32(&self, addr: u64) -> Result<u32, MemError> {
        let mut b = [0u8; 4];
        self.read_bytes(addr, &mut b)?;
        Ok(u32::from_be_bytes(b))
    }

    /// Reads a big-endian 64-bit double-word.
    ///
    /// # Errors
    ///
    /// [`MemError::OutOfRange`].
    #[inline(always)]
    pub fn read_u64(&self, addr: u64) -> Result<u64, MemError> {
        let mut b = [0u8; 8];
        self.read_bytes(addr, &mut b)?;
        Ok(u64::from_be_bytes(b))
    }

    /// Writes one byte.
    ///
    /// # Errors
    ///
    /// [`MemError::OutOfRange`].
    #[inline(always)]
    pub fn write_u8(&mut self, addr: u64, v: u8) -> Result<(), MemError> {
        self.write_bytes(addr, &[v])
    }

    /// Writes a big-endian 16-bit half-word.
    ///
    /// # Errors
    ///
    /// [`MemError::OutOfRange`].
    #[inline(always)]
    pub fn write_u16(&mut self, addr: u64, v: u16) -> Result<(), MemError> {
        self.write_bytes(addr, &v.to_be_bytes())
    }

    /// Writes a big-endian 32-bit word.
    ///
    /// # Errors
    ///
    /// [`MemError::OutOfRange`].
    #[inline(always)]
    pub fn write_u32(&mut self, addr: u64, v: u32) -> Result<(), MemError> {
        self.write_bytes(addr, &v.to_be_bytes())
    }

    /// Writes a big-endian 64-bit double-word.
    ///
    /// # Errors
    ///
    /// [`MemError::OutOfRange`].
    #[inline(always)]
    pub fn write_u64(&mut self, addr: u64, v: u64) -> Result<(), MemError> {
        self.write_bytes(addr, &v.to_be_bytes())
    }

    /// The whole image as run-length-encoded big-endian words, for
    /// snapshot export: the prefix's runs, then the zeros past it,
    /// merged into the prefix's last run when that run is zero too. The
    /// result is the encoding of the flat image, byte for byte.
    pub(crate) fn export_words(&self) -> Vec<(u64, u64)> {
        debug_assert!(self.size.is_multiple_of(8), "DRAM size is always 8-aligned");
        let mut runs = cheri_snap::rle_encode(
            self.data.chunks_exact(8).map(|c| u64::from_be_bytes(c.try_into().expect("8 bytes"))),
        );
        let zeros = (self.size - self.data.len() as u64) / 8;
        match runs.last_mut() {
            Some((count, 0)) => *count += zeros,
            _ if zeros > 0 => runs.push((zeros, 0)),
            _ => {}
        }
        runs
    }

    /// Replaces the image with the big-endian words of `runs`, for
    /// snapshot import. The caller has checked that the runs cover
    /// exactly [`PhysMem::size`] bytes. A trailing run of zeros is not
    /// expanded: it is what the unmaterialised rest of memory reads as.
    /// This bypasses the architectural write path on purpose (restoring
    /// a snapshot must not perturb tag state or traffic counters).
    pub(crate) fn import_words(&mut self, runs: &[(u64, u64)]) {
        let runs = match runs.split_last() {
            Some((&(_, 0), rest)) => rest,
            _ => runs,
        };
        let words: u64 = runs.iter().map(|&(count, _)| count).sum();
        self.data.clear();
        self.data.reserve(words as usize * 8);
        for &(count, value) in runs {
            let be = value.to_be_bytes();
            for _ in 0..count {
                self.data.extend_from_slice(&be);
            }
        }
    }
}

impl core::fmt::Debug for PhysMem {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "PhysMem({} bytes)", self.size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_initialised() {
        let m = PhysMem::new(64);
        assert_eq!(m.read_u64(0).unwrap(), 0);
        assert_eq!(m.read_u8(63).unwrap(), 0);
    }

    #[test]
    fn big_endian_layout() {
        let mut m = PhysMem::new(16);
        m.write_u32(0, 0x0102_0304).unwrap();
        assert_eq!(m.read_u8(0).unwrap(), 1);
        assert_eq!(m.read_u8(3).unwrap(), 4);
        assert_eq!(m.read_u16(0).unwrap(), 0x0102);
        assert_eq!(m.read_u16(2).unwrap(), 0x0304);
    }

    #[test]
    fn widths_roundtrip() {
        let mut m = PhysMem::new(64);
        m.write_u8(1, 0xab).unwrap();
        m.write_u16(2, 0xbeef).unwrap();
        m.write_u32(4, 0xdead_beef).unwrap();
        m.write_u64(8, u64::MAX - 1).unwrap();
        assert_eq!(m.read_u8(1).unwrap(), 0xab);
        assert_eq!(m.read_u16(2).unwrap(), 0xbeef);
        assert_eq!(m.read_u32(4).unwrap(), 0xdead_beef);
        assert_eq!(m.read_u64(8).unwrap(), u64::MAX - 1);
    }

    #[test]
    fn out_of_range_detected() {
        let mut m = PhysMem::new(16);
        assert!(m.read_u64(9).is_err());
        assert!(m.read_u8(16).is_err());
        assert!(m.write_u64(15, 0).is_err());
        // Wrapping addresses do not panic.
        assert!(m.read_u64(u64::MAX - 2).is_err());
    }

    #[test]
    fn materialises_only_up_to_the_written_page() {
        let mut m = PhysMem::new(1 << 30);
        assert_eq!(m.data.len(), 0);
        assert_eq!(m.read_u64((1 << 30) - 8).unwrap(), 0);
        assert_eq!(m.data.capacity(), 0, "reads never materialise");
        for x in [1u64, 4095, 4096, 4097, 3 << 20] {
            m.write_u8(x - 1, 1).unwrap();
            assert!(m.data.len() as u64 <= x.next_multiple_of(GROW_BYTES), "write ending at {x}");
            assert!(m.data.len() as u64 >= x);
        }
        // The growth stops at the end of memory.
        let mut small = PhysMem::new(100);
        small.write_u8(99, 7).unwrap();
        assert_eq!(small.data.len(), 100);
    }

    #[test]
    fn unaligned_accesses_allowed_at_phys_level() {
        // Alignment is enforced architecturally (by the CPU), not here.
        let mut m = PhysMem::new(32);
        m.write_u64(3, 0x1122_3344_5566_7788).unwrap();
        assert_eq!(m.read_u64(3).unwrap(), 0x1122_3344_5566_7788);
    }
}
