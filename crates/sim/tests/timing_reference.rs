//! Reference-model tests of the packed timing structures: a [`Cache`]
//! and the [`Tlb`] each run a random operation stream beside a
//! deliberately slow model of the same rules, and the two must agree
//! after every operation.
//!
//! - The cache model keeps, per set, the resident lines' block numbers
//!   and dirty flags in explicit LRU order (least recent first). A miss
//!   in a full set evicts the front. It models one cache, not the
//!   hierarchy's traffic between levels.
//! - The TLB model is a plain vector of entries written by the same
//!   rules (duplicate eviction, round-robin random slot, pair merging),
//!   and its translation is a first-match linear scan.
//!
//! The packed layouts keep an 8-byte key per way or entry beside the
//! stamps, dirty bits and entries; these tests fail if a key goes out of
//! step with what it indexes, if the victim is not the first way with
//! the lowest stamp, or if an LRU stamp or dirty bit is wrong.

use beri_sim::cache::{Cache, CacheParams, Lookup};
use beri_sim::exception::TrapKind;
use beri_sim::tlb::{Tlb, TlbEntry, TlbFlags, Translation, PAGE_SHIFT, PAGE_SIZE};
use cheri_snap::CacheState;
use proptest::prelude::*;

// --- cache ---------------------------------------------------------------

/// The slow cache: per set, `(block, dirty)` in LRU order.
struct RefCache {
    params: CacheParams,
    sets: Vec<Vec<(u64, bool)>>,
    hits: u64,
    misses: u64,
    writebacks: u64,
}

impl RefCache {
    fn new(params: CacheParams) -> RefCache {
        RefCache {
            params,
            sets: vec![Vec::new(); params.sets()],
            hits: 0,
            misses: 0,
            writebacks: 0,
        }
    }

    fn set_of(&self, block: u64) -> usize {
        (block % self.params.sets() as u64) as usize
    }

    fn access(&mut self, addr: u64, write: bool) -> Lookup {
        let block = addr / self.params.line as u64;
        let ways = self.params.ways;
        let set = self.set_of(block);
        let lines = &mut self.sets[set];
        if let Some(pos) = lines.iter().position(|&(b, _)| b == block) {
            let (_, dirty) = lines.remove(pos);
            lines.push((block, dirty || write));
            self.hits += 1;
            return Lookup::Hit;
        }
        self.misses += 1;
        let mut writeback = false;
        if lines.len() == ways {
            let (_, dirty) = lines.remove(0);
            writeback = dirty;
            self.writebacks += u64::from(dirty);
        }
        lines.push((block, write));
        Lookup::Miss { writeback }
    }

    fn record_hits(&mut self, addr: u64, n: u64) {
        for _ in 0..n {
            assert_eq!(self.access(addr, false), Lookup::Hit, "record_hits on a resident line");
        }
    }

    fn flush(&mut self) {
        for s in &mut self.sets {
            s.clear();
        }
    }

    /// Rebuilds the model from an exported state: each set's valid lines
    /// ordered by LRU stamp, ties broken towards the lower way (the way
    /// a miss replaces first).
    fn from_state(params: CacheParams, s: &CacheState) -> RefCache {
        let mut r = RefCache::new(params);
        r.hits = s.hits;
        r.misses = s.misses;
        r.writebacks = s.writebacks;
        r.sets = lru_order(params, s);
        r
    }
}

/// Each set's valid lines of an exported cache as `(block, dirty)`,
/// least recently used first: ordered by stamp, ties by way index.
fn lru_order(params: CacheParams, s: &CacheState) -> Vec<Vec<(u64, bool)>> {
    let sets = params.sets();
    (0..sets)
        .map(|set| {
            let mut ways: Vec<(u64, usize, u64, bool)> = (0..params.ways)
                .map(|w| (set * params.ways + w, w))
                .filter(|&(i, _)| s.lines[i].valid)
                .map(|(i, w)| {
                    let l = &s.lines[i];
                    (l.lru, w, l.tag * sets as u64 + set as u64, l.dirty)
                })
                .collect();
            ways.sort_unstable();
            ways.into_iter().map(|(_, _, block, dirty)| (block, dirty)).collect()
        })
        .collect()
}

fn assert_cache_same(c: &Cache, r: &RefCache, params: CacheParams, what: &str) {
    assert_eq!(
        (c.hits, c.misses, c.writebacks),
        (r.hits, r.misses, r.writebacks),
        "{what}: counters"
    );
    assert_eq!(lru_order(params, &c.export_state()), r.sets, "{what}: lines in LRU order");
}

/// One step of a cache stream: `(kind, tag, set, offset, n)`.
type CacheOp = (u8, u8, u8, u8, u8);

/// Drives `ops` into a `Cache` with geometry `params` and the reference
/// model, comparing after every step. Addresses fall in the first four
/// sets with `ways + 3` distinct tags each, so sets fill, conflict and
/// evict.
fn run_cache(params: CacheParams, ops: &[CacheOp]) {
    let mut c = Cache::new(params);
    let mut r = RefCache::new(params);
    let line = params.line as u64;
    let sets = params.sets() as u64;
    let tags = params.ways as u64 + 3;
    let mut last = None;
    for (step, &(kind, tag, set, offset, n)) in ops.iter().enumerate() {
        let addr = (u64::from(tag) % tags * sets + u64::from(set) % sets.min(4)) * line
            + u64::from(offset) % line;
        let what = format!("step {step} (kind {}, addr {addr:#x})", kind % 16);
        match kind % 16 {
            // Most steps are accesses, half of them writes.
            0..=11 => {
                let write = kind % 2 == 1;
                assert_eq!(c.access(addr, write), r.access(addr, write), "{what}: lookup");
                last = Some(addr / line);
            }
            // Batched read hits on a resident line: the one the last
            // access touched, as the block fast path records them, or
            // any other.
            12 | 13 => {
                let resident: Vec<u64> = r.sets.iter().flatten().map(|&(b, _)| b).collect();
                let block = match last {
                    Some(b) if kind % 16 == 12 => b,
                    _ if resident.is_empty() => continue,
                    _ => resident[usize::from(n) % resident.len()],
                };
                let hits = u64::from(n % 7) + 1;
                c.record_hits(block * line + u64::from(offset) % line, hits);
                r.record_hits(block * line, hits);
            }
            14 => {
                c.flush();
                r.flush();
                last = None;
            }
            // Snapshot round trip with every valid stamp of a set made
            // equal: the restored cache must replace the lowest way of
            // the tie first, as the model (rebuilt from the same state)
            // does.
            _ => {
                let mut s = c.export_state();
                for l in s.lines.iter_mut().filter(|l| l.valid) {
                    l.lru = 1;
                }
                c.import_state(&s).expect("a flattened export imports");
                r = RefCache::from_state(params, &s);
            }
        }
        assert_cache_same(&c, &r, params, &what);
    }
}

fn cache_ops() -> impl Strategy<Value = Vec<CacheOp>> {
    proptest::collection::vec(
        (any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>()),
        1..400,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn l1_geometry_matches_reference(ops in cache_ops()) {
        run_cache(CacheParams::l1(), &ops);
    }

    #[test]
    fn l2_geometry_matches_reference(ops in cache_ops()) {
        run_cache(CacheParams::l2(), &ops);
    }

    #[test]
    fn two_by_two_cache_matches_reference(ops in cache_ops()) {
        run_cache(CacheParams { size: 128, line: 32, ways: 2 }, &ops);
    }
}

// --- TLB -----------------------------------------------------------------

/// The slow TLB: entries written by the documented rules.
struct RefTlb {
    entries: Vec<TlbEntry>,
    next_random: usize,
    misses: u64,
}

impl RefTlb {
    fn first_match(&self, vaddr: u64) -> Option<usize> {
        let vpn2 = vaddr >> (PAGE_SHIFT + 1);
        (0..self.entries.len()).find(|&i| self.entries[i].present && self.entries[i].vpn2 == vpn2)
    }

    fn write_random(&mut self, entry: TlbEntry) {
        for e in &mut self.entries {
            if e.present && e.vpn2 == entry.vpn2 {
                *e = TlbEntry::default();
            }
        }
        self.entries[self.next_random] = entry;
        self.next_random = (self.next_random + 1) % self.entries.len();
    }

    fn install(&mut self, vaddr: u64, paddr: u64, flags: TlbFlags) {
        let odd = (vaddr >> PAGE_SHIFT) & 1 == 1;
        let existing = self.first_match(vaddr);
        let mut e = existing.map_or(
            TlbEntry { vpn2: vaddr >> (PAGE_SHIFT + 1), present: true, ..TlbEntry::default() },
            |i| self.entries[i],
        );
        if odd {
            (e.pfn1, e.flags1) = (paddr >> PAGE_SHIFT, flags);
        } else {
            (e.pfn0, e.flags0) = (paddr >> PAGE_SHIFT, flags);
        }
        match existing {
            Some(i) => self.entries[i] = e,
            None => self.write_random(e),
        }
    }

    fn translate(&mut self, vaddr: u64, write: bool) -> Result<Translation, TrapKind> {
        let Some(i) = self.first_match(vaddr) else {
            self.misses += 1;
            return Err(TrapKind::TlbRefill { vaddr, write });
        };
        let e = self.entries[i];
        let (pfn, flags) =
            if (vaddr >> PAGE_SHIFT) & 1 == 1 { (e.pfn1, e.flags1) } else { (e.pfn0, e.flags0) };
        if !flags.valid {
            Err(TrapKind::TlbInvalid { vaddr, write })
        } else if write && !flags.dirty {
            Err(TrapKind::TlbModified { vaddr })
        } else {
            Ok(Translation { paddr: (pfn << PAGE_SHIFT) | (vaddr & (PAGE_SIZE - 1)), flags })
        }
    }
}

/// Flags from four bits.
fn flags(bits: u8) -> TlbFlags {
    TlbFlags {
        valid: bits & 1 != 0,
        dirty: bits & 2 != 0,
        cap_load: bits & 4 != 0,
        cap_store: bits & 8 != 0,
    }
}

/// One step of a TLB stream: `(kind, page, frame, flag bits, slot)`.
type TlbOp = (u8, u8, u8, u8, u8);

/// Drives `ops` into an 8-entry TLB and the reference. Pages come from
/// a window of 12 page pairs, so entries collide, duplicate (through
/// `write_indexed`) and evict. After every step, every entry agrees
/// (through `read_indexed`), and so do `translate` and `probe` at every
/// page of the window.
fn run_tlb(ops: &[TlbOp]) {
    const N: usize = 8;
    let mut t = Tlb::new(N);
    let mut r = RefTlb { entries: vec![TlbEntry::default(); N], next_random: 0, misses: 0 };
    let page = |p: u8| u64::from(p % 24) * PAGE_SIZE;
    for (step, &(kind, p, f, bits, slot)) in ops.iter().enumerate() {
        let vaddr = page(p);
        let entry = TlbEntry {
            vpn2: vaddr >> (PAGE_SHIFT + 1),
            pfn0: u64::from(f),
            flags0: flags(bits),
            pfn1: u64::from(f) + 1,
            flags1: flags(bits >> 4),
            present: slot & 0x80 == 0 || kind & 0x80 == 0,
        };
        match kind % 8 {
            0 => {
                t.write_random(entry);
                r.write_random(entry);
            }
            1 | 2 => {
                let i = usize::from(slot) % N;
                t.write_indexed(i, entry);
                r.entries[i] = entry;
            }
            3 | 4 => {
                let paddr = u64::from(f) * PAGE_SIZE;
                t.install(vaddr, paddr, flags(bits));
                r.install(vaddr, paddr, flags(bits));
            }
            5 => {
                t.flush();
                r.entries.fill(TlbEntry::default());
            }
            6 => {
                t.invalidate_page(vaddr);
                let odd = (vaddr >> PAGE_SHIFT) & 1 == 1;
                let vpn2 = vaddr >> (PAGE_SHIFT + 1);
                for e in r.entries.iter_mut().filter(|e| e.present && e.vpn2 == vpn2) {
                    if odd {
                        e.flags1.valid = false;
                    } else {
                        e.flags0.valid = false;
                    }
                }
            }
            _ => {
                let s = t.export_state();
                t.import_state(&s).expect("an export imports");
            }
        }
        let what = format!("step {step} (kind {}, page {vaddr:#x})", kind % 8);
        for i in 0..N {
            assert_eq!(t.read_indexed(i), r.entries[i], "{what}: entry {i}");
        }
        for q in 0..24u8 {
            let v = page(q) + 0x18;
            assert_eq!(t.probe(v), r.first_match(v), "{what}: probe {v:#x}");
            for write in [false, true] {
                assert_eq!(
                    t.translate(v, write),
                    r.translate(v, write),
                    "{what}: translate {v:#x}"
                );
            }
        }
        assert_eq!(t.misses(), r.misses, "{what}: misses");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn tlb_matches_reference(
        ops in proptest::collection::vec(
            (any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>()),
            1..200,
        ),
    ) {
        run_tlb(&ops);
    }
}

// --- snapshot import refusals ---------------------------------------------

#[test]
fn cache_import_refuses_an_mru_cursor_on_a_line_it_does_not_hold() {
    let params = CacheParams { size: 128, line: 32, ways: 2 };
    let mut c = Cache::new(params);
    c.access(0, false);
    c.access(64, true);
    let good = c.export_state();
    // The cursor names block 2 (address 64) at way 1 of set 0.
    assert_eq!((good.mru_block, good.mru_index), (2, 1));
    let mut other = Cache::new(params);
    other.import_state(&good).unwrap();
    assert_eq!(other.export_state(), good);

    for (block, index) in [(2, 0), (4, 1), (3, 1), (2, 2), (2, 9)] {
        let bad = CacheState { mru_block: block, mru_index: index, ..good.clone() };
        let err = other.import_state(&bad).unwrap_err();
        assert!(err.0.contains("MRU cursor"), "{block}@{index}: {}", err.0);
    }
    // Nothing was restored by the refused imports.
    assert_eq!(other.export_state(), good);
    // Without the refusal, such a cursor turned every later access to
    // the named block into a hit.
    let mut flushed = Cache::new(params);
    let none = CacheState { mru_block: 6, mru_index: 0, ..flushed.export_state() };
    assert!(flushed.import_state(&none).is_err());
    assert!(matches!(flushed.access(6 * 32, false), Lookup::Miss { .. }));
}

#[test]
fn cache_import_refuses_tags_the_packed_key_cannot_hold() {
    let params = CacheParams { size: 128, line: 32, ways: 2 };
    let mut c = Cache::new(params);
    c.access(0, false);
    let good = c.export_state();
    let mut high = good.clone();
    high.lines[0].tag = 1 << 63;
    let mut stale = good.clone();
    stale.lines[3].tag = 5;
    for bad in [high, stale] {
        let err = c.import_state(&bad).unwrap_err();
        assert!(err.0.contains("cache line"), "{}", err.0);
    }
    assert_eq!(c.export_state(), good);
}

#[test]
fn tlb_import_refuses_a_vpn2_no_entryhi_can_name() {
    let mut t = Tlb::new(4);
    t.install(0x4000, 0x8000, TlbFlags::rw());
    let good = t.export_state();
    let mut bad = good.clone();
    bad.entries[0].vpn2 |= 1 << 51;
    let err = t.import_state(&bad).unwrap_err();
    assert!(err.0.contains("vpn2"), "{}", err.0);
    assert_eq!(t.export_state(), good);
    // An absent entry's vpn2 is never matched, so any value is held.
    let mut absent = good.clone();
    absent.entries[1].vpn2 = u64::MAX;
    assert!(t.import_state(&absent).is_ok());
    assert_eq!(t.export_state(), absent);
}
