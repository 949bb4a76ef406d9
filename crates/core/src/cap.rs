//! The 256-bit architectural capability (Figure 1).
//!
//! A memory capability is "an unforgeable pointer that grants access to a
//! linear range of address space" (Section 3). The ISCA 2014 format carries
//! a 31-bit permission vector, a 64-bit `base`, a 64-bit `length`, and 97
//! reserved bits used for experimentation; validity is recorded in an
//! out-of-band tag bit.
//!
//! All manipulation operations are **monotonic**: they either reduce the
//! rights granted (smaller region, fewer permissions, cleared tag) or fail
//! with a [`CapCause`]. This is what makes capabilities unforgeable without
//! appealing to kernel mode (Section 4.2).

use core::fmt;

use crate::exception::{CapCause, CapExcCode};
use crate::perms::Perms;
use crate::{CAP_SIZE_BYTES, TAG_GRANULE};

/// A 256-bit CHERI memory capability plus its out-of-band tag.
///
/// The in-memory layout (as stored by `CSC` and produced by
/// [`Capability::to_bytes`]) is four big-endian 64-bit words:
///
/// ```text
/// word 0   [63:33] permissions (31 bits)   [32:0] reserved
/// word 1   reserved (experimentation field, Section 11)
/// word 2   base   (64 bits)
/// word 3   length (64 bits)
/// ```
///
/// The tag is *not* part of the 256 bits; it travels out of band through
/// the tagged memory hierarchy (Section 4.2).
///
/// # Example
///
/// ```
/// use cheri_core::{Capability, Perms};
///
/// // The reset capability grants everything …
/// let almighty = Capability::max();
/// // … and user code can only ever shrink it:
/// let heap = almighty.inc_base(0x4000_0000)?.set_len(1 << 20)?;
/// assert!(heap.check_data_access(0x4000_0000, 8, Perms::STORE).is_ok());
/// assert!(heap.check_data_access(0x4000_0000 + (1 << 20), 1, Perms::LOAD).is_err());
/// # Ok::<(), cheri_core::CapCause>(())
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Capability {
    tag: bool,
    perms: Perms,
    reserved: u64,
    base: u64,
    length: u64,
}

impl Capability {
    /// The almighty capability installed in every capability register at
    /// CPU reset (Section 4.3): the whole 64-bit address space with all
    /// permissions, tagged valid.
    #[must_use]
    pub const fn max() -> Capability {
        Capability { tag: true, perms: Perms::ALL, reserved: 0, base: 0, length: u64::MAX }
    }

    /// The null capability: untagged, no permissions, empty region.
    /// This is what a cleared register holds and what `CFromPtr` produces
    /// for a NULL pointer.
    #[must_use]
    pub const fn null() -> Capability {
        Capability { tag: false, perms: Perms::NONE, reserved: 0, base: 0, length: 0 }
    }

    /// Builds a tagged capability over `[base, base+length)` with `perms`.
    ///
    /// This is a *model-level* constructor for tests, the OS (which is
    /// trusted to delegate the address space on `execve()`), and workload
    /// setup. Emulated user code can only obtain capabilities by deriving
    /// them from ones it already holds.
    ///
    /// # Errors
    ///
    /// Returns [`CapExcCode::AddressOverflow`] if `base + length` overflows
    /// the 64-bit address space.
    pub fn new(base: u64, length: u64, perms: Perms) -> Result<Capability, CapCause> {
        if base.checked_add(length).is_none() && !(base == 0 && length == u64::MAX) {
            // Allow the almighty base=0/len=MAX encoding, whose top is
            // 2^64-1; anything else that wraps is rejected.
            return Err(CapExcCode::AddressOverflow.into());
        }
        Ok(Capability { tag: true, perms, reserved: 0, base, length })
    }

    /// Whether the tag is set (the register holds a valid capability
    /// rather than plain data). Queried by `CGetTag`/`CBTS`/`CBTU`.
    #[inline]
    #[must_use]
    pub const fn tag(&self) -> bool {
        self.tag
    }

    /// The permission vector (`CGetPerm`).
    #[inline]
    #[must_use]
    pub const fn perms(&self) -> Perms {
        self.perms
    }

    /// The region base address (`CGetBase`).
    #[inline]
    #[must_use]
    pub const fn base(&self) -> u64 {
        self.base
    }

    /// The region length in bytes (`CGetLen`).
    #[inline]
    #[must_use]
    pub const fn length(&self) -> u64 {
        self.length
    }

    /// The reserved experimentation field (Section 11).
    #[inline]
    #[must_use]
    pub const fn reserved(&self) -> u64 {
        self.reserved
    }

    /// One past the last byte the capability can address, as a 65-bit
    /// quantity (`base + length` may equal 2^64 for the almighty
    /// capability).
    #[inline]
    #[must_use]
    pub fn top(&self) -> u128 {
        u128::from(self.base) + u128::from(self.length)
    }

    /// Whether this is bit-for-bit the null capability.
    #[inline]
    #[must_use]
    pub fn is_null(&self) -> bool {
        *self == Capability::null()
    }

    // --- Monotonic manipulation (Table 1) -------------------------------

    /// `CIncBase`: "Increase base and decrease length".
    ///
    /// A zero `delta` is permitted even on an untagged value and acts as
    /// a plain register copy — the `CIncBase cd, cb, $zero` move idiom
    /// (there is no separate move instruction in Table 1). Copying an
    /// untagged value is monotonic: it grants nothing.
    ///
    /// # Errors
    ///
    /// * [`CapExcCode::TagViolation`] if the tag is clear and `delta` is
    ///   non-zero — plain data cannot be refined into a capability.
    /// * [`CapExcCode::MonotonicityViolation`] if `delta > length`, which
    ///   would grant access past the original region.
    pub fn inc_base(&self, delta: u64) -> Result<Capability, CapCause> {
        if !self.tag {
            if delta == 0 {
                return Ok(*self);
            }
            return Err(CapExcCode::TagViolation.into());
        }
        if delta > self.length {
            return Err(CapExcCode::MonotonicityViolation.into());
        }
        // delta <= length <= top - base, so base + delta cannot overflow
        // past 2^64 - that would require top > 2^64.
        Ok(Capability { base: self.base.wrapping_add(delta), length: self.length - delta, ..*self })
    }

    /// `CSetLen`: "Set (reduce) length".
    ///
    /// # Errors
    ///
    /// * [`CapExcCode::TagViolation`] if the tag is clear.
    /// * [`CapExcCode::MonotonicityViolation`] if `new_len > length`.
    pub fn set_len(&self, new_len: u64) -> Result<Capability, CapCause> {
        if !self.tag {
            return Err(CapExcCode::TagViolation.into());
        }
        if new_len > self.length {
            return Err(CapExcCode::MonotonicityViolation.into());
        }
        Ok(Capability { length: new_len, ..*self })
    }

    /// `CAndPerm`: "Restrict permissions" — intersects the permission
    /// vector with `mask`.
    ///
    /// # Errors
    ///
    /// Returns [`CapExcCode::TagViolation`] if the tag is clear.
    pub fn and_perm(&self, mask: Perms) -> Result<Capability, CapCause> {
        if !self.tag {
            return Err(CapExcCode::TagViolation.into());
        }
        Ok(Capability { perms: self.perms.intersect(mask), ..*self })
    }

    /// `CClearTag`: "Invalidate a capability register". Always succeeds;
    /// the result can never be dereferenced again.
    #[must_use]
    pub fn clear_tag(&self) -> Capability {
        Capability { tag: false, ..*self }
    }

    /// `CToPtr`: "Generate C0-based integer pointer from a capability".
    ///
    /// Converts this capability into an integer usable by legacy code that
    /// addresses memory through `c0`. An untagged capability converts to 0
    /// (NULL), supporting the NULL-pointer idiom of C (Section 4.3).
    #[must_use]
    pub fn to_ptr(&self, c0: &Capability) -> u64 {
        if !self.tag {
            return 0;
        }
        self.base.wrapping_sub(c0.base)
    }

    /// `CFromPtr`: "CIncBase with support for NULL casts".
    ///
    /// Derives a capability for the object at legacy pointer `ptr` (an
    /// offset within `c0`'s region). A NULL `ptr` produces the null
    /// capability rather than a capability to `c0.base`, so round-tripping
    /// NULL through capability registers preserves NULL-ness.
    ///
    /// # Errors
    ///
    /// Propagates [`Capability::inc_base`] errors for non-NULL pointers.
    pub fn from_ptr(c0: &Capability, ptr: u64) -> Result<Capability, CapCause> {
        if ptr == 0 {
            return Ok(Capability::null());
        }
        c0.inc_base(ptr)
    }

    // --- Access checks ---------------------------------------------------

    /// Checks a data access of `size` bytes at virtual address `addr`
    /// requiring permission `perm` (one of [`Perms::LOAD`] or
    /// [`Perms::STORE`]).
    ///
    /// This is the check the capability coprocessor applies to every
    /// legacy MIPS load/store (via `C0`) and every `CL*`/`CS*`
    /// (Section 4.1).
    ///
    /// # Errors
    ///
    /// * [`CapExcCode::TagViolation`] — tag clear.
    /// * [`CapExcCode::PermitLoadViolation`] / `PermitStoreViolation` —
    ///   missing permission.
    /// * [`CapExcCode::LengthViolation`] — any accessed byte outside
    ///   `[base, base+length)`.
    #[inline]
    pub fn check_data_access(&self, addr: u64, size: u64, perm: Perms) -> Result<(), CapCause> {
        if !self.tag {
            return Err(CapExcCode::TagViolation.into());
        }
        if !self.perms.contains(perm) {
            let code = if perm.contains(Perms::STORE) {
                CapExcCode::PermitStoreViolation
            } else {
                CapExcCode::PermitLoadViolation
            };
            return Err(code.into());
        }
        self.check_bounds(addr, size)
    }

    /// Checks a capability load or store ([`Perms::LOAD_CAP`] /
    /// [`Perms::STORE_CAP`]) of one 256-bit granule at `addr`.
    ///
    /// # Errors
    ///
    /// In addition to the data-access errors, returns
    /// [`CapExcCode::AlignmentViolation`] if `addr` is not 32-byte aligned
    /// (tags cover aligned 256-bit granules only).
    pub fn check_cap_access(&self, addr: u64, store: bool) -> Result<(), CapCause> {
        self.check_cap_access_g(addr, store, TAG_GRANULE)
    }

    /// As [`Capability::check_cap_access`], for an implementation whose
    /// in-memory capability (and tag granule) is `granule` bytes — 16
    /// under the compressed 128-bit format. The architectural default is
    /// [`crate::CAP_SIZE_BYTES`]-sized granules.
    ///
    /// # Errors
    ///
    /// As [`Capability::check_cap_access`].
    pub fn check_cap_access_g(&self, addr: u64, store: bool, granule: u64) -> Result<(), CapCause> {
        debug_assert!(granule == TAG_GRANULE || granule == CAP_SIZE_BYTES as u64 / 2);
        if !self.tag {
            return Err(CapExcCode::TagViolation.into());
        }
        let (perm, code) = if store {
            (Perms::STORE_CAP, CapExcCode::PermitStoreCapViolation)
        } else {
            (Perms::LOAD_CAP, CapExcCode::PermitLoadCapViolation)
        };
        if !self.perms.contains(perm) {
            return Err(code.into());
        }
        // `granule` is a power of two (asserted above), so alignment is
        // a mask rather than a division.
        if addr & (granule - 1) != 0 {
            return Err(CapExcCode::AlignmentViolation.into());
        }
        self.check_bounds(addr, granule)
    }

    /// Checks an instruction fetch at `pc` against this capability acting
    /// as `PCC` (Section 4.4: the absolute program counter is validated
    /// against `PCC` in the Execute stage).
    ///
    /// # Errors
    ///
    /// Tag, execute-permission, and bounds violations as for data access.
    #[inline]
    pub fn check_execute(&self, pc: u64) -> Result<(), CapCause> {
        if !self.tag {
            return Err(CapExcCode::TagViolation.into());
        }
        if !self.perms.contains(Perms::EXECUTE) {
            return Err(CapExcCode::PermitExecuteViolation.into());
        }
        self.check_bounds(pc, 4)
    }

    #[inline]
    fn check_bounds(&self, addr: u64, size: u64) -> Result<(), CapCause> {
        // Equivalent to `addr < base || addr + size > base + length` in
        // 65-bit arithmetic, restated so it stays in u64: once
        // `addr >= base` and `size <= length` hold, both subtractions
        // are exact and the final comparison is the 65-bit one.
        if addr < self.base || size > self.length || addr - self.base > self.length - size {
            return Err(CapExcCode::LengthViolation.into());
        }
        Ok(())
    }

    /// Returns `true` if `other` grants no rights beyond `self`: its
    /// region is contained in `self`'s and its permissions are a subset.
    /// Untagged capabilities grant nothing and are dominated by anything.
    ///
    /// This is the ordering that the property tests use to state
    /// unforgeability: no sequence of user-mode operations can produce a
    /// capability not dominated by its sources.
    #[must_use]
    pub fn dominates(&self, other: &Capability) -> bool {
        if !other.tag {
            return true;
        }
        if !self.tag {
            return false;
        }
        other.base >= self.base && other.top() <= self.top() && other.perms.is_subset_of(self.perms)
    }

    // --- Memory representation (Figure 1) --------------------------------

    /// Serialises the 256-bit body (tag excluded) as four big-endian
    /// words in the Figure 1 layout.
    #[inline]
    #[must_use]
    pub fn to_bytes(&self) -> [u8; CAP_SIZE_BYTES] {
        let w0 = (u64::from(self.perms.bits()) << 33) | (self.reserved >> 32);
        let w1 = self.reserved << 32 >> 32; // low 32 bits of reserved, zero-extended
        let mut out = [0u8; CAP_SIZE_BYTES];
        out[0..8].copy_from_slice(&w0.to_be_bytes());
        out[8..16].copy_from_slice(&w1.to_be_bytes());
        out[16..24].copy_from_slice(&self.base.to_be_bytes());
        out[24..32].copy_from_slice(&self.length.to_be_bytes());
        out
    }

    /// Reconstructs a capability body from its 256-bit memory image and an
    /// externally supplied tag (the tag lives in the tag table, not in the
    /// 256 bits).
    #[inline]
    #[must_use]
    pub fn from_bytes(bytes: &[u8; CAP_SIZE_BYTES], tag: bool) -> Capability {
        let w0 = u64::from_be_bytes(bytes[0..8].try_into().expect("8-byte slice"));
        let w1 = u64::from_be_bytes(bytes[8..16].try_into().expect("8-byte slice"));
        let base = u64::from_be_bytes(bytes[16..24].try_into().expect("8-byte slice"));
        let length = u64::from_be_bytes(bytes[24..32].try_into().expect("8-byte slice"));
        let perms = Perms::from_bits_truncate((w0 >> 33) as u32);
        let reserved = ((w0 & 0xffff_ffff) << 32) | (w1 & 0xffff_ffff);
        Capability { tag, perms, reserved, base, length }
    }

    /// Reinterprets 32 bytes of *untagged* memory as the register contents
    /// a `CLC` from untagged memory would produce: the bit pattern is
    /// loaded but the tag is clear, so it can be copied (e.g. by
    /// `memcpy()`, Section 4.2) but never dereferenced.
    #[must_use]
    pub fn from_untagged_bytes(bytes: &[u8; CAP_SIZE_BYTES]) -> Capability {
        Capability::from_bytes(bytes, false)
    }
}

impl Default for Capability {
    /// The null capability.
    fn default() -> Capability {
        Capability::null()
    }
}

impl fmt::Debug for Capability {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Capability")
            .field("tag", &self.tag)
            .field("perms", &self.perms)
            .field("base", &format_args!("{:#x}", self.base))
            .field("length", &format_args!("{:#x}", self.length))
            .field("reserved", &format_args!("{:#x}", self.reserved))
            .finish()
    }
}

impl fmt::Display for Capability {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cap[{} {} base={:#x} len={:#x}]",
            if self.tag { "v" } else { "-" },
            self.perms,
            self.base,
            self.length
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn max_covers_everything() {
        let c = Capability::max();
        assert!(c.tag());
        assert_eq!(c.base(), 0);
        assert_eq!(c.top(), u128::from(u64::MAX));
        assert!(c.check_data_access(0, 8, Perms::LOAD).is_ok());
        assert!(c.check_data_access(u64::MAX - 8, 7, Perms::STORE).is_ok());
    }

    #[test]
    fn null_grants_nothing() {
        let c = Capability::null();
        assert!(!c.tag());
        assert!(c.is_null());
        assert_eq!(
            c.check_data_access(0, 1, Perms::LOAD).unwrap_err().code(),
            CapExcCode::TagViolation
        );
    }

    #[test]
    fn new_rejects_wrapping_region() {
        let err = Capability::new(u64::MAX, 2, Perms::ALL).unwrap_err();
        assert_eq!(err.code(), CapExcCode::AddressOverflow);
        // but base=0/len=MAX (the almighty encoding) is accepted
        assert!(Capability::new(0, u64::MAX, Perms::ALL).is_ok());
        // and exact fit to the top of the address space is accepted
        assert!(Capability::new(u64::MAX - 16, 16, Perms::ALL).is_ok());
    }

    #[test]
    fn inc_base_moves_and_shrinks() {
        let c = Capability::new(0x1000, 0x100, Perms::ALL).unwrap();
        let d = c.inc_base(0x10).unwrap();
        assert_eq!(d.base(), 0x1010);
        assert_eq!(d.length(), 0xf0);
        assert_eq!(d.top(), c.top());
    }

    #[test]
    fn inc_base_to_exact_end_is_empty_not_error() {
        let c = Capability::new(0x1000, 0x100, Perms::ALL).unwrap();
        let d = c.inc_base(0x100).unwrap();
        assert_eq!(d.length(), 0);
        assert!(d.check_data_access(d.base(), 1, Perms::LOAD).is_err());
    }

    #[test]
    fn inc_base_past_end_is_monotonicity_violation() {
        let c = Capability::new(0x1000, 0x100, Perms::ALL).unwrap();
        let err = c.inc_base(0x101).unwrap_err();
        assert_eq!(err.code(), CapExcCode::MonotonicityViolation);
    }

    #[test]
    fn set_len_cannot_grow() {
        let c = Capability::new(0x1000, 0x100, Perms::ALL).unwrap();
        assert!(c.set_len(0x100).is_ok());
        assert!(c.set_len(0).is_ok());
        assert_eq!(c.set_len(0x101).unwrap_err().code(), CapExcCode::MonotonicityViolation);
    }

    #[test]
    fn and_perm_only_clears() {
        let c = Capability::new(0, 64, Perms::LOAD | Perms::STORE).unwrap();
        let ro = c.and_perm(Perms::LOAD | Perms::EXECUTE).unwrap();
        // EXECUTE was not held, so it is not gained.
        assert_eq!(ro.perms(), Perms::LOAD);
    }

    #[test]
    fn manipulating_untagged_traps() {
        let c = Capability::max().clear_tag();
        assert_eq!(c.inc_base(1).unwrap_err().code(), CapExcCode::TagViolation);
        // ... but the zero-delta move idiom copies untagged values.
        assert_eq!(c.inc_base(0).unwrap(), c);
        assert_eq!(c.set_len(1).unwrap_err().code(), CapExcCode::TagViolation);
        assert_eq!(c.and_perm(Perms::LOAD).unwrap_err().code(), CapExcCode::TagViolation);
    }

    #[test]
    fn bounds_check_is_byte_granular() {
        // "Granularity should accommodate data structures ... with odd
        // numbers of bytes or words" (Section 2).
        let c = Capability::new(0x1000, 13, Perms::ALL).unwrap();
        assert!(c.check_data_access(0x100c, 1, Perms::LOAD).is_ok());
        assert!(c.check_data_access(0x100c, 2, Perms::LOAD).is_err());
        assert!(c.check_data_access(0xfff, 1, Perms::LOAD).is_err());
    }

    #[test]
    fn store_through_readonly_is_permit_store_violation() {
        let c = Capability::new(0, 64, Perms::LOAD).unwrap();
        assert_eq!(
            c.check_data_access(0, 8, Perms::STORE).unwrap_err().code(),
            CapExcCode::PermitStoreViolation
        );
    }

    #[test]
    fn cap_access_requires_alignment_and_perm() {
        let c = Capability::new(0, 4096, Perms::ALL).unwrap();
        assert!(c.check_cap_access(64, true).is_ok());
        assert_eq!(
            c.check_cap_access(65, true).unwrap_err().code(),
            CapExcCode::AlignmentViolation
        );
        let no_sc = c.and_perm(!Perms::STORE_CAP).unwrap();
        assert_eq!(
            no_sc.check_cap_access(64, true).unwrap_err().code(),
            CapExcCode::PermitStoreCapViolation
        );
        assert!(no_sc.check_cap_access(64, false).is_ok());
    }

    #[test]
    fn execute_check() {
        let pcc = Capability::new(0x1000, 0x100, Perms::EXECUTE | Perms::LOAD).unwrap();
        assert!(pcc.check_execute(0x1000).is_ok());
        assert!(pcc.check_execute(0x10fc).is_ok());
        assert_eq!(pcc.check_execute(0x1100).unwrap_err().code(), CapExcCode::LengthViolation);
        let data = pcc.and_perm(Perms::LOAD).unwrap();
        assert_eq!(
            data.check_execute(0x1000).unwrap_err().code(),
            CapExcCode::PermitExecuteViolation
        );
    }

    #[test]
    fn to_ptr_and_from_ptr_roundtrip() {
        let c0 = Capability::new(0x10000, 0x10000, Perms::ALL).unwrap();
        let obj = c0.inc_base(0x40).unwrap().set_len(32).unwrap();
        let p = obj.to_ptr(&c0);
        assert_eq!(p, 0x40);
        let back = Capability::from_ptr(&c0, p).unwrap();
        assert_eq!(back.base(), obj.base());
        // from_ptr cannot restore a reduced length - it spans to c0's end.
        assert_eq!(back.top(), c0.top());
    }

    #[test]
    fn null_casts() {
        let c0 = Capability::max();
        assert_eq!(Capability::null().to_ptr(&c0), 0);
        assert!(Capability::from_ptr(&c0, 0).unwrap().is_null());
    }

    #[test]
    fn from_ptr_out_of_region_fails() {
        let c0 = Capability::new(0, 0x1000, Perms::ALL).unwrap();
        assert_eq!(
            Capability::from_ptr(&c0, 0x1001).unwrap_err().code(),
            CapExcCode::MonotonicityViolation
        );
    }

    #[test]
    fn byte_roundtrip_preserves_fields() {
        let c =
            Capability::new(0xdead_beef_0000, 0x1234_5678, Perms::LOAD | Perms::STORE_CAP).unwrap();
        let bytes = c.to_bytes();
        let d = Capability::from_bytes(&bytes, true);
        assert_eq!(c, d);
    }

    #[test]
    fn byte_layout_matches_figure_1() {
        let c = Capability::new(0x1122_3344_5566_7788, 0x99aa_bbcc_ddee_ff00, Perms::ALL).unwrap();
        let b = c.to_bytes();
        // Permissions live in the top 31 bits of word 0.
        let w0 = u64::from_be_bytes(b[0..8].try_into().unwrap());
        assert_eq!((w0 >> 33) as u32, Perms::ALL.bits());
        // Base is word 2, length word 3, big-endian.
        assert_eq!(&b[16..24], &0x1122_3344_5566_7788u64.to_be_bytes());
        assert_eq!(&b[24..32], &0x99aa_bbcc_ddee_ff00u64.to_be_bytes());
    }

    #[test]
    fn untagged_load_preserves_bits_but_not_tag() {
        let c = Capability::new(0x1000, 64, Perms::ALL).unwrap();
        let d = Capability::from_untagged_bytes(&c.to_bytes());
        assert!(!d.tag());
        assert_eq!(d.base(), c.base());
        assert_eq!(d.length(), c.length());
    }

    #[test]
    fn dominates_ordering() {
        let big = Capability::new(0x1000, 0x1000, Perms::ALL).unwrap();
        let small = big.inc_base(0x100).unwrap().set_len(0x100).unwrap();
        let ro = small.and_perm(Perms::LOAD).unwrap();
        assert!(big.dominates(&small));
        assert!(big.dominates(&ro));
        assert!(small.dominates(&ro));
        assert!(!small.dominates(&big));
        assert!(!ro.dominates(&small));
        // Untagged values are dominated by everything.
        assert!(Capability::null().dominates(&big.clear_tag()));
        // And dominate nothing that is tagged.
        assert!(!Capability::null().dominates(&big));
    }

    #[test]
    fn display_and_debug_are_informative() {
        let c = Capability::new(0x1000, 0x40, Perms::LOAD | Perms::STORE).unwrap();
        let s = c.to_string();
        assert!(s.contains("base=0x1000"));
        assert!(s.contains("rw---"));
        assert!(format!("{c:?}").contains("0x40"));
    }
}
