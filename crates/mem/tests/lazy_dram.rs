//! DRAM materialised on first write is indistinguishable from flat DRAM.
//!
//! Random streams of reads and writes of every width drive a
//! [`PhysMem`] and a [`TaggedMem`] beside a flat `Vec<u8>` reference
//! (with one tag bit per granule for the tagged side). Every value and
//! every [`MemError`] must agree, at addresses anywhere in memory, in
//! its last bytes, past its end and where `addr + len` wraps. The
//! snapshot encoding must be the run-length encoding of the flat image,
//! and export → import → export must be a fixed point.

use cheri_mem::{MemError, PhysMem, TaggedMem, TAG_GRANULE};
use proptest::prelude::*;

/// Not a whole number of pages, so the prefix's growth is capped by
/// the end of memory as well as rounded to a page.
const SIZE: u64 = 2 * 4096 + 1000;

#[derive(Clone, Debug)]
enum Op {
    Read { addr: u64, width: u8 },
    Write { addr: u64, width: u8, value: u64 },
    ReadBytes { addr: u64, len: usize },
    WriteBytes { addr: u64, bytes: Vec<u8> },
    ReadCap { addr: u64 },
    WriteCap { addr: u64, fill: u8, tag: bool },
}

/// The flat reference: every byte present from the start.
struct Flat {
    bytes: Vec<u8>,
    tags: Vec<bool>,
}

impl Flat {
    fn new() -> Flat {
        Flat {
            bytes: vec![0; SIZE as usize],
            tags: vec![false; SIZE.div_ceil(TAG_GRANULE) as usize],
        }
    }

    fn range(&self, addr: u64, len: usize) -> Result<std::ops::Range<usize>, MemError> {
        let size = len as u64;
        match addr.checked_add(size) {
            Some(end) if end <= SIZE => Ok(addr as usize..end as usize),
            _ => Err(MemError::OutOfRange { addr, size, mem_size: SIZE }),
        }
    }

    fn read(&self, addr: u64, len: usize) -> Result<Vec<u8>, MemError> {
        Ok(self.bytes[self.range(addr, len)?].to_vec())
    }

    /// A data store: writes and clears the tag of every granule it
    /// touches.
    fn write(&mut self, addr: u64, data: &[u8]) -> Result<(), MemError> {
        let r = self.range(addr, data.len())?;
        if !data.is_empty() {
            let g = TAG_GRANULE as usize;
            self.tags[r.start / g..=(r.end - 1) / g].fill(false);
        }
        self.bytes[r].copy_from_slice(data);
        Ok(())
    }

    fn cap_align(addr: u64) -> Result<(), MemError> {
        if addr.is_multiple_of(TAG_GRANULE) {
            Ok(())
        } else {
            Err(MemError::Misaligned { addr, required: TAG_GRANULE })
        }
    }

    fn read_cap(&self, addr: u64) -> Result<(Vec<u8>, bool), MemError> {
        Flat::cap_align(addr)?;
        let data = self.read(addr, TAG_GRANULE as usize)?;
        Ok((data, self.tags[(addr / TAG_GRANULE) as usize]))
    }

    fn write_cap(&mut self, addr: u64, data: &[u8], tag: bool) -> Result<(), MemError> {
        Flat::cap_align(addr)?;
        let r = self.range(addr, data.len())?;
        self.bytes[r].copy_from_slice(data);
        self.tags[(addr / TAG_GRANULE) as usize] = tag;
        Ok(())
    }

    fn words(&self) -> Vec<(u64, u64)> {
        cheri_snap::rle_encode(
            self.bytes.chunks_exact(8).map(|c| u64::from_be_bytes(c.try_into().unwrap())),
        )
    }
}

/// Anywhere in memory, its last bytes, just past its end, and where
/// `addr + len` wraps.
fn addr() -> impl Strategy<Value = u64> {
    prop_oneof![0..SIZE, SIZE - 40..SIZE + 8, SIZE..4 * SIZE, u64::MAX - 40..=u64::MAX]
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (addr(), 0u8..4).prop_map(|(addr, w)| Op::Read { addr, width: 1 << w }),
        (addr(), 0u8..4, any::<u64>()).prop_map(|(addr, w, value)| Op::Write {
            addr,
            width: 1 << w,
            value
        }),
        (addr(), 0usize..80).prop_map(|(addr, len)| Op::ReadBytes { addr, len }),
        (addr(), proptest::collection::vec(any::<u8>(), 0..80))
            .prop_map(|(addr, bytes)| Op::WriteBytes { addr, bytes }),
        addr().prop_map(|a| Op::ReadCap { addr: a & !(TAG_GRANULE - 1) }),
        (addr(), any::<u8>(), any::<bool>()).prop_map(|(a, fill, tag)| Op::WriteCap {
            addr: if fill % 4 == 0 { a } else { a & !(TAG_GRANULE - 1) },
            fill,
            tag,
        }),
    ]
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(op(), 1..200)
}

fn read_bytes(m: &PhysMem, addr: u64, len: usize) -> Result<Vec<u8>, MemError> {
    let mut buf = vec![0xa5; len];
    m.read_bytes(addr, &mut buf).map(|()| buf)
}

/// A read of `width` bytes through the width-specific accessors, as
/// big-endian bytes.
fn read_phys(m: &PhysMem, addr: u64, width: u8) -> Result<Vec<u8>, MemError> {
    Ok(match width {
        1 => vec![m.read_u8(addr)?],
        2 => m.read_u16(addr)?.to_be_bytes().to_vec(),
        4 => m.read_u32(addr)?.to_be_bytes().to_vec(),
        _ => m.read_u64(addr)?.to_be_bytes().to_vec(),
    })
}

fn write_phys(m: &mut PhysMem, addr: u64, width: u8, v: u64) -> Result<(), MemError> {
    match width {
        1 => m.write_u8(addr, v as u8),
        2 => m.write_u16(addr, v as u16),
        4 => m.write_u32(addr, v as u32),
        _ => m.write_u64(addr, v),
    }
}

fn read_tagged(m: &TaggedMem, addr: u64, width: u8) -> Result<Vec<u8>, MemError> {
    Ok(match width {
        1 => vec![m.read_u8(addr)?],
        2 => m.read_u16(addr)?.to_be_bytes().to_vec(),
        4 => m.read_u32(addr)?.to_be_bytes().to_vec(),
        _ => m.read_u64(addr)?.to_be_bytes().to_vec(),
    })
}

fn write_tagged(m: &mut TaggedMem, addr: u64, width: u8, v: u64) -> Result<(), MemError> {
    match width {
        1 => m.write_u8(addr, v as u8),
        2 => m.write_u16(addr, v as u16),
        4 => m.write_u32(addr, v as u32),
        _ => m.write_u64(addr, v),
    }
}

/// The big-endian bytes `width`-wide value `v` stores.
fn be(v: u64, width: u8) -> Vec<u8> {
    v.to_be_bytes()[8 - usize::from(width)..].to_vec()
}

/// Runs `ops` on a `TaggedMem` and the reference, comparing as it goes.
fn run_tagged(m: &mut TaggedMem, flat: &mut Flat, ops: &[Op]) -> Result<(), TestCaseError> {
    for op in ops {
        match op {
            Op::Read { addr, width } => {
                prop_assert_eq!(
                    read_tagged(m, *addr, *width),
                    flat.read(*addr, usize::from(*width))
                );
            }
            Op::Write { addr, width, value } => {
                let got = write_tagged(m, *addr, *width, *value);
                prop_assert_eq!(got, flat.write(*addr, &be(*value, *width)));
            }
            Op::ReadBytes { addr, len } => {
                let mut buf = vec![0xa5; *len];
                let got = m.read_bytes(*addr, &mut buf).map(|()| buf);
                prop_assert_eq!(got, flat.read(*addr, *len));
            }
            Op::WriteBytes { addr, bytes } => {
                prop_assert_eq!(m.write_bytes(*addr, bytes), flat.write(*addr, bytes));
            }
            Op::ReadCap { addr } => {
                let got = m.read_cap_raw(*addr).map(|(b, t)| (b.to_vec(), t));
                prop_assert_eq!(got, flat.read_cap(*addr));
            }
            Op::WriteCap { addr, fill, tag } => {
                let bytes = [*fill; 32];
                let got = m.write_cap_raw(*addr, &bytes, *tag);
                prop_assert_eq!(got, flat.write_cap(*addr, &bytes, *tag));
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn phys_mem_matches_flat_memory(ops in ops()) {
        let mut m = PhysMem::new(SIZE as usize);
        let mut flat = Flat::new();
        for op in &ops {
            match op {
                Op::Read { addr, width } => {
                    prop_assert_eq!(read_phys(&m, *addr, *width), flat.read(*addr, usize::from(*width)));
                }
                Op::Write { addr, width, value } => {
                    let got = write_phys(&mut m, *addr, *width, *value);
                    prop_assert_eq!(got, flat.write(*addr, &be(*value, *width)));
                }
                Op::ReadBytes { addr, len } => {
                    prop_assert_eq!(read_bytes(&m, *addr, *len), flat.read(*addr, *len));
                }
                Op::ReadCap { addr } => {
                    prop_assert_eq!(read_bytes(&m, *addr, 32), flat.read(*addr, 32));
                }
                Op::WriteBytes { addr, bytes } => {
                    prop_assert_eq!(m.write_bytes(*addr, bytes), flat.write(*addr, bytes));
                }
                Op::WriteCap { addr, fill, .. } => {
                    let bytes = [*fill; 32];
                    prop_assert_eq!(m.write_bytes(*addr, &bytes), flat.write(*addr, &bytes));
                }
            }
        }
        // Every byte, including those never written, reads as the flat
        // image does.
        prop_assert!(read_bytes(&m, 0, SIZE as usize).unwrap() == flat.bytes);
    }

    #[test]
    fn tagged_mem_matches_flat_memory_and_exports_its_encoding(ops in ops()) {
        let mut m = TaggedMem::new(SIZE as usize);
        let mut flat = Flat::new();
        run_tagged(&mut m, &mut flat, &ops)?;
        let state = m.export_state();
        prop_assert_eq!(&state.words, &flat.words());

        // Restoring onto a fresh memory and onto one that has since
        // written further (a longer prefix) both give back the image,
        // and re-export the same state.
        let mut fresh = TaggedMem::new(SIZE as usize);
        fresh.import_state(&state).unwrap();
        prop_assert_eq!(fresh.export_state(), state.clone());
        m.write_bytes(SIZE - 8, &[0xff; 8]).unwrap();
        m.import_state(&state).unwrap();
        prop_assert_eq!(m.export_state(), state);
        let mut all = vec![0xa5; SIZE as usize];
        m.read_bytes(0, &mut all).unwrap();
        prop_assert!(all == flat.bytes);
    }
}

/// Export → import → export is a fixed point for an image written only
/// at its start (a trailing zero run) and one written up to its last
/// byte (a non-zero last run).
#[test]
fn export_import_export_is_a_fixed_point() {
    let mut partly = TaggedMem::new(SIZE as usize);
    partly.write_u64(16, 0x0102_0304_0506_0708).unwrap();
    let mut fully = partly.clone();
    fully.write_u8(SIZE - 1, 0x99).unwrap();
    for (m, last_zero) in [(partly, true), (fully, false)] {
        let first = m.export_state();
        let &(count, value) = first.words.last().unwrap();
        assert_eq!(value == 0, last_zero, "last run ({count}, {value:#x})");
        assert_eq!(cheri_snap::rle_len(&first.words) * 8, SIZE);
        let mut back = TaggedMem::new(SIZE as usize);
        back.import_state(&first).unwrap();
        assert_eq!(back.export_state(), first);
    }
}
