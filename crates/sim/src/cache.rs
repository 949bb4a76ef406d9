//! The cache hierarchy and its latency model.
//!
//! The geometry follows the FPGA platform of the paper (Section 8 /
//! Figure 5): 32-byte lines ("Unsafe nodes are 24-bytes, which fit more
//! efficiently in our 32-byte cache lines"), a 16 KB L1 data cache, a
//! 16 KB L1 instruction cache, and a 64 KB L2. Caches are physically
//! indexed, write-back, write-allocate, with LRU replacement.
//!
//! The hierarchy charges *penalty cycles* on top of the 1-instruction
//! base CPI and counts DRAM traffic, which together drive the Figure 4
//! execution-time decomposition and the Figure 5 heap-size steps.
//!
//! The platform is one set of constants, not a parameter space: both
//! L1s are [`CacheParams::l1`], the L2 is [`CacheParams::l2`], and the
//! penalties are [`L2_LATENCY`] and [`DRAM_LATENCY`].
//!
//! Every access runs through this model, so its hit path is kept to
//! what the model needs. A [`Cache`] keeps its ways in three parallel
//! arrays: an 8-byte key per way (`tag | VALID`, 0 for an invalid way),
//! the way's LRU stamp, and its dirty bit. A hit is one compare per
//! way over the keys of one set; the stamps and dirty bits are touched
//! only for the way that hits or is replaced. A one-line MRU cursor
//! skips even that scan for a repeat access to the same line.

use cheri_trace::{emit, CacheLevel, SharedSink, TraceEvent};

/// Geometry of one cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheParams {
    /// Total capacity in bytes.
    pub size: usize,
    /// Line size in bytes.
    pub line: usize,
    /// Associativity (ways per set).
    pub ways: usize,
}

impl CacheParams {
    /// The paper's L1 geometry: 16 KB, 32-byte lines, 4-way.
    #[must_use]
    pub const fn l1() -> CacheParams {
        CacheParams { size: 16 * 1024, line: 32, ways: 4 }
    }

    /// The paper's L2 geometry: 64 KB, 32-byte lines, 8-way.
    #[must_use]
    pub const fn l2() -> CacheParams {
        CacheParams { size: 64 * 1024, line: 32, ways: 8 }
    }

    /// Number of sets.
    #[must_use]
    pub const fn sets(&self) -> usize {
        self.size / (self.line * self.ways)
    }
}

/// The key bit that marks a way valid. Tags are physical block numbers
/// shifted right by at least one bit (a line holds at least 2 bytes), so
/// they never reach it.
const VALID: u64 = 1 << 63;

/// Outcome of a single-cache lookup.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Lookup {
    /// Hit.
    Hit,
    /// Miss; payload reports whether a dirty victim was evicted.
    Miss {
        /// A dirty line was written back to the next level.
        writeback: bool,
    },
}

/// One set-associative write-back cache.
#[derive(Clone, Debug)]
pub struct Cache {
    params: CacheParams,
    // One entry per way, set-major: `keys[i]` is `tag | VALID` for a
    // resident line and 0 for an invalid way; `stamps[i]` is the tick of
    // the way's last access (its LRU stamp) and `dirty[i]` whether it
    // was written since its fill. A flushed or never-filled way is
    // all-zero in all three.
    keys: Vec<u64>,
    stamps: Vec<u64>,
    dirty: Vec<bool>,
    tick: u64,
    /// Hits observed.
    pub hits: u64,
    /// Misses observed.
    pub misses: u64,
    /// Dirty evictions.
    pub writebacks: u64,
    // Precomputed index arithmetic: line size and set count are powers
    // of two (asserted in `new`), so indexing is a mask and a shift.
    line_shift: u32,
    set_shift: u32,
    set_mask: u64,
    // Most-recently-touched line. Only accesses through this cache can
    // evict from it, so an access to the same line as the previous one
    // is a guaranteed hit and skips the set scan; the bookkeeping it
    // performs (tick, LRU stamp, dirty, hit count) is identical to the
    // scan path's. `u64::MAX` = none; otherwise `keys[mru_index]` holds
    // `mru_block` (`import_state` refuses a cursor that breaks this).
    mru_block: u64,
    mru_index: usize,
}

impl Cache {
    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate (zero sets/ways), the line
    /// size is not a power of two of at least 2 bytes, or the set count
    /// is not a power of two.
    #[must_use]
    pub fn new(params: CacheParams) -> Cache {
        assert!(params.ways > 0 && params.sets() > 0, "degenerate cache geometry");
        assert!(
            params.line.is_power_of_two() && params.line >= 2,
            "line size must be a power of two of at least 2 bytes"
        );
        assert!(params.sets().is_power_of_two(), "set count must be a power of two");
        let n = params.sets() * params.ways;
        Cache {
            params,
            keys: vec![0; n],
            stamps: vec![0; n],
            dirty: vec![false; n],
            tick: 0,
            hits: 0,
            misses: 0,
            writebacks: 0,
            line_shift: params.line.trailing_zeros(),
            set_shift: params.sets().trailing_zeros(),
            set_mask: params.sets() as u64 - 1,
            mru_block: u64::MAX,
            mru_index: 0,
        }
    }

    /// `(first way index, key)` for the line holding physical block
    /// `block` (`paddr >> line_shift`).
    #[inline(always)]
    fn locate(&self, block: u64) -> (usize, u64) {
        ((block & self.set_mask) as usize * self.params.ways, (block >> self.set_shift) | VALID)
    }

    /// The way holding block `block`, if it is resident.
    #[inline(always)]
    fn find(&self, block: u64) -> Option<usize> {
        let (base, key) = self.locate(block);
        self.keys[base..base + self.params.ways].iter().position(|&k| k == key).map(|w| base + w)
    }

    /// Counts a hit on way `i` and makes it the MRU line.
    #[inline(always)]
    fn hit(&mut self, i: usize, block: u64, write: bool) {
        self.stamps[i] = self.tick;
        if write {
            self.dirty[i] = true;
        }
        self.hits += 1;
        self.mru_block = block;
        self.mru_index = i;
    }

    /// Looks up (and on miss, fills) the line containing `paddr`,
    /// marking it dirty on writes. The hit path is inlined into every
    /// caller; the fill is not.
    #[inline(always)]
    pub fn access(&mut self, paddr: u64, write: bool) -> Lookup {
        self.tick += 1;
        let block = paddr >> self.line_shift;
        if block == self.mru_block {
            self.hit(self.mru_index, block, write);
            return Lookup::Hit;
        }
        if let Some(i) = self.find(block) {
            self.hit(i, block, write);
            return Lookup::Hit;
        }
        self.fill(block, write)
    }

    /// The miss half of [`Cache::access`]: fills block `block` over the
    /// LRU way — the first invalid way, else the first way with the
    /// lowest stamp.
    #[cold]
    #[inline(never)]
    fn fill(&mut self, block: u64, write: bool) -> Lookup {
        self.misses += 1;
        let (base, key) = self.locate(block);
        let mut victim = base;
        let mut oldest = u64::MAX;
        for i in base..base + self.params.ways {
            let age = if self.keys[i] == 0 { 0 } else { self.stamps[i] };
            if age < oldest {
                oldest = age;
                victim = i;
            }
        }
        let writeback = self.keys[victim] != 0 && self.dirty[victim];
        if writeback {
            self.writebacks += 1;
        }
        self.keys[victim] = key;
        self.stamps[victim] = self.tick;
        self.dirty[victim] = write;
        self.mru_block = block;
        self.mru_index = victim;
        Lookup::Miss { writeback }
    }

    /// Records `n` consecutive read hits on the (resident) line
    /// containing `paddr` in one batched update. Equivalent to `n`
    /// [`Cache::access`] read calls that all hit: each such call would
    /// advance the tick, refresh the line's LRU stamp to it, and count
    /// a hit — so only the final LRU stamp is observable. The line is
    /// normally the MRU one (the block fast path batches the fetches
    /// behind the one that just touched it), which skips the set scan.
    /// Falls back to per-access bookkeeping if the line is not resident
    /// (the callers' invariant violated), keeping counters exact either
    /// way.
    #[inline]
    pub fn record_hits(&mut self, paddr: u64, n: u64) {
        let block = paddr >> self.line_shift;
        let way = if block == self.mru_block { Some(self.mru_index) } else { self.find(block) };
        if let Some(i) = way {
            self.tick += n;
            self.stamps[i] = self.tick;
            self.hits += n;
            self.mru_block = block;
            self.mru_index = i;
        } else {
            debug_assert!(false, "record_hits on a non-resident line");
            for _ in 0..n {
                self.access(paddr, false);
            }
        }
    }

    /// Invalidates everything (used on address-space teardown between
    /// benchmark runs).
    pub fn flush(&mut self) {
        self.keys.fill(0);
        self.stamps.fill(0);
        self.dirty.fill(false);
        self.mru_block = u64::MAX;
    }

    /// Exports the complete cache state for `cheri-snap`. The MRU
    /// cursor is included: it is architecturally transparent, but
    /// restoring it makes a restored cache bit-identical to the
    /// original (which the snapshot equality tests assert).
    #[must_use]
    pub fn export_state(&self) -> cheri_snap::CacheState {
        cheri_snap::CacheState {
            lines: (0..self.keys.len())
                .map(|i| cheri_snap::CacheLineState {
                    valid: self.keys[i] != 0,
                    dirty: self.dirty[i],
                    tag: self.keys[i] & !VALID,
                    lru: self.stamps[i],
                })
                .collect(),
            tick: self.tick,
            hits: self.hits,
            misses: self.misses,
            writebacks: self.writebacks,
            mru_block: self.mru_block,
            mru_index: self.mru_index as u64,
        }
    }

    /// Restores state exported by [`Cache::export_state`].
    ///
    /// # Errors
    ///
    /// [`cheri_snap::SnapError`] if the line count does not match this
    /// cache's geometry, a line holds a tag the packed key cannot (a
    /// valid line's tag with the top bit set, or an invalid line with a
    /// tag at all), or the MRU cursor names a line that is not resident
    /// at its index. Nothing is restored on error.
    pub fn import_state(
        &mut self,
        s: &cheri_snap::CacheState,
    ) -> Result<(), cheri_snap::SnapError> {
        if s.lines.len() != self.keys.len() {
            return Err(cheri_snap::SnapError(format!(
                "cache holds {} lines, snapshot has {}",
                self.keys.len(),
                s.lines.len()
            )));
        }
        let key = |l: &cheri_snap::CacheLineState| match (l.valid, l.tag) {
            (true, tag) if tag & VALID == 0 => Some(tag | VALID),
            (false, 0) => Some(0),
            _ => None,
        };
        if let Some(i) = s.lines.iter().position(|l| key(l).is_none()) {
            let l = &s.lines[i];
            let kind = if l.valid { "a valid" } else { "an invalid" };
            return Err(cheri_snap::SnapError(format!(
                "cache line {i}: tag {:#x} cannot be held by {kind} line",
                l.tag
            )));
        }
        if s.mru_block != u64::MAX {
            let i = s.mru_index as usize;
            let holds = i / self.params.ways == (s.mru_block & self.set_mask) as usize
                && s.lines[i].valid
                && s.lines[i].tag == s.mru_block >> self.set_shift;
            if !holds {
                return Err(cheri_snap::SnapError(format!(
                    "MRU cursor: index {i} does not hold block {:#x}",
                    s.mru_block
                )));
            }
        }
        for (i, l) in s.lines.iter().enumerate() {
            self.keys[i] = key(l).expect("checked above");
            self.stamps[i] = l.lru;
            self.dirty[i] = l.dirty;
        }
        self.tick = s.tick;
        self.hits = s.hits;
        self.misses = s.misses;
        self.writebacks = s.writebacks;
        self.mru_block = s.mru_block;
        self.mru_index = (s.mru_index as usize).min(self.keys.len().saturating_sub(1));
        Ok(())
    }
}

/// Penalty cycles for an L1 miss that hits in L2.
///
/// The latencies are calibrated to the paper's platform: a 100 MHz FPGA
/// soft core, where an on-chip L2 is ~2 cycles and DRAM only ~6 core
/// cycles away (60 ns at 100 MHz), unlike a multi-GHz part. These
/// values reproduce the magnitude of the Figure 4/5 overheads.
pub const L2_LATENCY: u64 = 2;

/// Penalty cycles for an access that goes to DRAM (an L2 miss, or a
/// tag-cache miss's tag-table read).
pub const DRAM_LATENCY: u64 = 6;

/// The full hierarchy: split L1 I/D over a unified L2 over DRAM.
#[derive(Clone, Debug)]
pub struct Hierarchy {
    /// L1 instruction cache.
    pub l1i: Cache,
    /// L1 data cache.
    pub l1d: Cache,
    /// Unified L2.
    pub l2: Cache,
    /// Bytes moved between L2 and DRAM (line fills + writebacks) — the
    /// "Memory I/O (bytes)" quantity of Figure 3.
    pub dram_bytes: u64,
    /// Individual DRAM transactions.
    pub dram_accesses: u64,
    // Trace sink shared with the rest of the machine; events mirror the
    // per-cache hit/miss counters exactly.
    sink: Option<SharedSink>,
}

impl Default for Hierarchy {
    fn default() -> Hierarchy {
        Hierarchy::new()
    }
}

impl Hierarchy {
    /// Builds the paper's hierarchy: two [`CacheParams::l1`] caches over
    /// a [`CacheParams::l2`].
    #[must_use]
    pub fn new() -> Hierarchy {
        Hierarchy {
            l1i: Cache::new(CacheParams::l1()),
            l1d: Cache::new(CacheParams::l1()),
            l2: Cache::new(CacheParams::l2()),
            dram_bytes: 0,
            dram_accesses: 0,
            sink: None,
        }
    }

    /// Attaches (or with `None`, detaches) a trace sink. One
    /// `CacheAccess` event is emitted per [`Cache::access`] call —
    /// including the L2 probe behind an L1 miss and the L2 update
    /// absorbing a dirty L1 victim — so aggregated event counts equal
    /// the per-cache hit/miss/writeback counters exactly.
    pub fn set_trace_sink(&mut self, sink: Option<SharedSink>) {
        self.sink = sink;
    }

    fn through_l2(&mut self, paddr: u64, write_into_l2: bool) -> u64 {
        let lookup = self.l2.access(paddr, write_into_l2);
        self.emit_access(CacheLevel::L2, write_into_l2, lookup);
        match lookup {
            Lookup::Hit => L2_LATENCY,
            Lookup::Miss { writeback } => {
                self.dram_accesses += 1;
                self.dram_bytes += CacheParams::l2().line as u64;
                if writeback {
                    self.dram_accesses += 1;
                    self.dram_bytes += CacheParams::l2().line as u64;
                }
                DRAM_LATENCY
            }
        }
    }

    #[inline(always)]
    fn emit_access(&mut self, level: CacheLevel, write: bool, lookup: Lookup) {
        emit(&self.sink, || match lookup {
            Lookup::Hit => TraceEvent::CacheAccess { level, write, hit: true, writeback: false },
            Lookup::Miss { writeback } => {
                TraceEvent::CacheAccess { level, write, hit: false, writeback }
            }
        });
    }

    /// One instruction fetch at physical address `paddr`; returns penalty
    /// cycles.
    #[inline]
    pub fn fetch(&mut self, paddr: u64) -> u64 {
        let lookup = self.l1i.access(paddr, false);
        self.emit_access(CacheLevel::L1I, false, lookup);
        match lookup {
            Lookup::Hit => 0,
            Lookup::Miss { .. } => self.through_l2(paddr, false),
        }
    }

    /// `n` instruction fetches that are all guaranteed L1I hits (the
    /// line containing `paddr` was fetched and nothing else touches
    /// L1I), batched: zero penalty cycles, one counter/LRU update, and
    /// the same per-access trace events as [`Hierarchy::fetch`] would
    /// emit.
    #[inline]
    pub fn fetch_hits(&mut self, paddr: u64, n: u64) {
        self.l1i.record_hits(paddr, n);
        if self.sink.is_some() {
            for _ in 0..n {
                self.emit_access(CacheLevel::L1I, false, Lookup::Hit);
            }
        }
    }

    /// One data access of `size` bytes at `paddr`; returns penalty
    /// cycles. Accesses crossing a line boundary touch both lines (as the
    /// hardware would take two cache cycles).
    #[inline(always)]
    pub fn data(&mut self, paddr: u64, size: u64, write: bool) -> u64 {
        const LINE_SHIFT: u32 = CacheParams::l1().line.trailing_zeros();
        let first = paddr >> LINE_SHIFT;
        let last = if size == 0 { first } else { (paddr + size - 1) >> LINE_SHIFT };
        if first == last {
            // The overwhelmingly common case: the access fits one line.
            return self.data_line(first << LINE_SHIFT, write);
        }
        let mut penalty = 0;
        for blk in first..=last {
            penalty += self.data_line(blk << LINE_SHIFT, write);
        }
        penalty
    }

    /// One line-sized data access; shared tail of [`Hierarchy::data`].
    #[inline(always)]
    fn data_line(&mut self, addr: u64, write: bool) -> u64 {
        let lookup = self.l1d.access(addr, write);
        self.emit_access(CacheLevel::L1D, write, lookup);
        match lookup {
            Lookup::Hit => 0,
            Lookup::Miss { writeback } => self.data_miss(addr, writeback),
        }
    }

    /// The L2/DRAM tail of an L1D miss on the line at `addr`.
    #[cold]
    #[inline(never)]
    fn data_miss(&mut self, addr: u64, writeback: bool) -> u64 {
        let penalty = self.through_l2(addr, false);
        if writeback {
            // Dirty L1 victim lands in L2.
            let victim = self.l2.access(addr, true);
            self.emit_access(CacheLevel::L2, true, victim);
        }
        penalty
    }

    /// Flushes all levels.
    pub fn flush(&mut self) {
        self.l1i.flush();
        self.l1d.flush();
        self.l2.flush();
    }

    /// Exports all three caches and the DRAM counters for `cheri-snap`.
    #[must_use]
    pub fn export_state(&self) -> cheri_snap::HierarchyState {
        cheri_snap::HierarchyState {
            l1i: self.l1i.export_state(),
            l1d: self.l1d.export_state(),
            l2: self.l2.export_state(),
            dram_bytes: self.dram_bytes,
            dram_accesses: self.dram_accesses,
        }
    }

    /// Restores state exported by [`Hierarchy::export_state`].
    ///
    /// # Errors
    ///
    /// [`cheri_snap::SnapError`] if any cache's geometry differs.
    pub fn import_state(
        &mut self,
        s: &cheri_snap::HierarchyState,
    ) -> Result<(), cheri_snap::SnapError> {
        self.l1i.import_state(&s.l1i)?;
        self.l1d.import_state(&s.l1d)?;
        self.l2.import_state(&s.l2)?;
        self.dram_bytes = s.dram_bytes;
        self.dram_accesses = s.dram_accesses;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_matches_paper() {
        assert_eq!(CacheParams::l1().size, 16 * 1024);
        assert_eq!(CacheParams::l2().size, 64 * 1024);
        assert_eq!(CacheParams::l1().line, 32);
        assert_eq!((CacheParams::l1().sets(), CacheParams::l2().sets()), (128, 256));
    }

    #[test]
    fn hit_after_fill() {
        let mut c = Cache::new(CacheParams::l1());
        assert!(matches!(c.access(0x100, false), Lookup::Miss { .. }));
        assert_eq!(c.access(0x100, false), Lookup::Hit);
        assert_eq!(c.access(0x11f, false), Lookup::Hit); // same 32-byte line
        assert!(matches!(c.access(0x120, false), Lookup::Miss { .. }));
    }

    #[test]
    fn lru_within_set() {
        // 2-way tiny cache: 2 sets of 2 ways, line 32 => size 128.
        let mut c = Cache::new(CacheParams { size: 128, line: 32, ways: 2 });
        let stride = 64; // same set (2 sets * 32-byte lines)
        c.access(0, false);
        c.access(stride, false);
        c.access(0, false); // refresh line 0
        c.access(2 * stride, false); // evicts `stride`, not 0
        assert_eq!(c.access(0, false), Lookup::Hit);
        assert!(matches!(c.access(stride, false), Lookup::Miss { .. }));
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        let mut c = Cache::new(CacheParams { size: 64, line: 32, ways: 1 });
        c.access(0, true);
        // Same set (direct-mapped, 2 sets): stride = 64.
        match c.access(64, false) {
            Lookup::Miss { writeback } => assert!(writeback),
            Lookup::Hit => panic!("expected miss"),
        }
        assert_eq!(c.writebacks, 1);
    }

    #[test]
    fn working_set_fits_l1_no_dram_traffic_after_warmup() {
        let mut h = Hierarchy::new();
        // 8 KB working set < 16 KB L1.
        for _ in 0..3 {
            for addr in (0..8192u64).step_by(32) {
                h.data(addr, 8, false);
            }
        }
        let bytes_after_warm = h.dram_bytes;
        for addr in (0..8192u64).step_by(32) {
            h.data(addr, 8, false);
        }
        assert_eq!(h.dram_bytes, bytes_after_warm, "steady state should be DRAM-silent");
    }

    #[test]
    fn working_set_over_l2_streams_from_dram() {
        let mut h = Hierarchy::new();
        // 256 KB > 64 KB L2: every revisit misses all levels.
        for _ in 0..2 {
            for addr in (0..256 * 1024u64).step_by(32) {
                h.data(addr, 8, false);
            }
        }
        // Second pass alone is 8192 lines of 32 bytes.
        assert!(h.dram_bytes >= 2 * 8192 * 32);
    }

    #[test]
    fn latency_ordering_l1_l2_dram() {
        let mut h = Hierarchy::new();
        let p_dram = h.data(0x1000, 8, false);
        let p_l1 = h.data(0x1000, 8, false);
        assert_eq!(p_l1, 0);
        assert_eq!(p_dram, DRAM_LATENCY);
        // Evict from L1 but not L2, then re-access: L2 latency.
        let mut h2 = Hierarchy::new();
        h2.data(0, 8, false);
        // Touch 16 KB + of distinct lines mapping over all L1 sets.
        for addr in (32..64 * 1024u64).step_by(32) {
            h2.data(addr, 8, false);
        }
        let p = h2.data(0, 8, false);
        assert_eq!(p, L2_LATENCY);
    }

    #[test]
    fn fetch_uses_icache_separately() {
        let mut h = Hierarchy::new();
        assert!(h.fetch(0x1000) > 0);
        assert_eq!(h.fetch(0x1000), 0);
        // A data access to the same line does not hit in L1I but does in L2.
        assert_eq!(h.data(0x1000, 4, false), L2_LATENCY);
    }

    #[test]
    fn straddling_access_touches_two_lines() {
        let mut h = Hierarchy::new();
        let p = h.data(28, 8, false); // crosses 0..32 and 32..64
        assert_eq!(p, 2 * DRAM_LATENCY);
    }

    #[test]
    #[should_panic(expected = "degenerate")]
    fn zero_way_cache_rejected() {
        let _ = Cache::new(CacheParams { size: 64, line: 32, ways: 0 });
    }

    #[test]
    #[should_panic(expected = "set count must be a power of two")]
    fn non_power_of_two_set_count_rejected() {
        let _ = Cache::new(CacheParams { size: 96, line: 32, ways: 1 });
    }
}
