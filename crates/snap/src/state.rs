//! The snapshot state tree: plain all-public mirror structs for every
//! layer of the machine. `beri-sim`, `cheri-mem` and `cheri-os` own the
//! conversions to and from their live types; this crate owns the
//! format.
//!
//! Everything is integers, booleans and strings — no floats, no
//! platform-dependent widths — so the canonical JSON form (see
//! [`crate::codec`]) is bit-stable across hosts.

/// One capability value: the architectural tag plus the four big-endian
/// 64-bit words of the 256-bit in-memory image (Figure 1: perms /
/// otype+reserved / base / length). Register-file capabilities are
/// always stored at full 256-bit precision, whatever the configured
/// in-memory format.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CapState {
    /// Validity tag.
    pub tag: bool,
    /// The four 64-bit words of the 256-bit image, most significant
    /// first.
    pub words: [u64; 4],
}

/// Architectural CPU state: GPRs, HI/LO, PC/next-PC, CP0, the CP2
/// capability register file (32 registers + PCC), and any LL/SC
/// reservation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CpuState {
    /// The 32 general-purpose registers.
    pub gpr: [u64; 32],
    /// Multiply/divide HI result register.
    pub hi: u64,
    /// Multiply/divide LO result register.
    pub lo: u64,
    /// Current program counter.
    pub pc: u64,
    /// Next program counter (delay-slot state).
    pub next_pc: u64,
    /// CP0 registers in fixed order: index, entrylo0, entrylo1,
    /// badvaddr, count, entryhi, status, cause, epc, capcause.
    pub cp0: [u64; 10],
    /// CP2 capability registers `c0..c31` followed by PCC (33 total).
    pub caps: Vec<CapState>,
    /// Load-linked reservation address, if one is armed.
    pub ll_reservation: Option<u64>,
}

/// One TLB entry pair. Flag words pack `valid | dirty<<1 | cap_load<<2
/// | cap_store<<3`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TlbEntryState {
    /// Virtual page number / 2 (the entry maps a pair of pages).
    pub vpn2: u64,
    /// Physical frame of the even page.
    pub pfn0: u64,
    /// Packed flags of the even page.
    pub flags0: u64,
    /// Physical frame of the odd page.
    pub pfn1: u64,
    /// Packed flags of the odd page.
    pub flags1: u64,
    /// Whether the entry is populated.
    pub present: bool,
}

/// The full TLB: every entry plus the replacement cursor and the miss
/// counter (both affect future timing, so both are state).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TlbState {
    /// All entries, in index order.
    pub entries: Vec<TlbEntryState>,
    /// The wired random-replacement cursor.
    pub next_random: u64,
    /// Lifetime miss count.
    pub misses: u64,
}

/// One cache line's tag-array state.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheLineState {
    /// Line holds data.
    pub valid: bool,
    /// Line is modified relative to the next level.
    pub dirty: bool,
    /// Block address tag.
    pub tag: u64,
    /// LRU timestamp.
    pub lru: u64,
}

/// One cache: every line, the LRU tick, hit/miss/writeback counters and
/// the MRU fast-path cursor. The MRU cursor is architecturally
/// transparent but serialized anyway so that a restored machine is
/// *bit-identical* to the machine it was captured from — the state-hash
/// equality tests depend on that.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CacheState {
    /// All lines, in set-major order.
    pub lines: Vec<CacheLineState>,
    /// LRU clock.
    pub tick: u64,
    /// Hit count.
    pub hits: u64,
    /// Miss count.
    pub misses: u64,
    /// Writeback count.
    pub writebacks: u64,
    /// MRU fast-path block address (`u64::MAX` = none).
    pub mru_block: u64,
    /// MRU fast-path line index.
    pub mru_index: u64,
}

/// The three-cache hierarchy plus DRAM traffic counters.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HierarchyState {
    /// L1 instruction cache.
    pub l1i: CacheState,
    /// L1 data cache.
    pub l1d: CacheState,
    /// Unified L2.
    pub l2: CacheState,
    /// Bytes moved to/from DRAM.
    pub dram_bytes: u64,
    /// DRAM access count.
    pub dram_accesses: u64,
}

/// The branch predictor's counter table, run-length encoded (a freshly
/// reset table is a single run).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PredictorState {
    /// `(count, value)` runs over the 2-bit counters in index order.
    pub counters: Vec<(u64, u64)>,
}

/// One tag-cache line. The tag cache is direct-mapped, so position in
/// the vector is the slot.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TagCacheLineState {
    /// Line holds a tag-table block.
    pub valid: bool,
    /// Line is modified relative to the in-DRAM tag table.
    pub dirty: bool,
    /// Which tag-table line this slot caches.
    pub line_index: u64,
}

/// Tagged physical memory: the DRAM image and the tag table as
/// run-length-encoded big-endian 64-bit words, plus the tag-cache
/// contents and its statistics.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MemState {
    /// Physical memory size in bytes (always a multiple of 8).
    pub bytes: u64,
    /// Tag granule in bytes (the in-memory capability size).
    pub granule: u64,
    /// `(count, value)` runs over the DRAM image read as big-endian
    /// u64 words.
    pub words: Vec<(u64, u64)>,
    /// `(count, value)` runs over the tag table's u64 words.
    pub tags: Vec<(u64, u64)>,
    /// Tag-cache lines, in slot order (empty when no tag cache is
    /// fitted).
    pub tag_cache: Vec<TagCacheLineState>,
    /// Tag-controller counters in fixed order: lookups, updates, hits,
    /// misses, writebacks.
    pub tag_stats: [u64; 5],
}

/// The machine configuration identity a snapshot was taken under: the
/// three values that vary between jobs. Restore refuses a mismatched
/// target, since each changes the shape of the state vectors or future
/// timing. The rest of the platform (cache geometry, latencies, TLB and
/// branch-table sizes) is constant in the simulator, so it is not
/// recorded. The block-cache enable flag and trace sinks are *not*
/// recorded either — both are architecturally transparent harness
/// knobs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ConfigState {
    /// Physical memory size in bytes.
    pub mem_bytes: u64,
    /// Tag-cache capacity in bytes.
    pub tag_cache_bytes: u64,
    /// In-memory capability size in bytes: 32 (256-bit) or 16
    /// (128-bit).
    pub cap_size: u64,
}

/// Complete simulator state: configuration identity, CPU, TLB, cache
/// hierarchy, branch predictor, the 15 architectural/timing counters of
/// `beri_sim::Stats` (in declaration order), the bare/translated mode
/// flag, and tagged memory.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MachineState {
    /// Configuration identity.
    pub config: ConfigState,
    /// CPU state.
    pub cpu: CpuState,
    /// TLB state.
    pub tlb: TlbState,
    /// Cache hierarchy state.
    pub hierarchy: HierarchyState,
    /// Branch predictor state.
    pub predictor: PredictorState,
    /// `Stats` counters in declaration order: instructions, cycles,
    /// loads, stores, bytes_loaded, bytes_stored, branches,
    /// mispredicts, cap_instructions, cap_loads, cap_stores, syscalls,
    /// exceptions, tlb_refills, cap_violations.
    pub stats: [u64; 15],
    /// Whether the machine is in bare (virtual = physical) mode.
    pub bare: bool,
    /// Tagged physical memory.
    pub mem: MemState,
}

/// A saved execution context (domain-crossing stack frame).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ContextState {
    /// The 32 general-purpose registers.
    pub gpr: [u64; 32],
    /// HI register.
    pub hi: u64,
    /// LO register.
    pub lo: u64,
    /// Program counter.
    pub pc: u64,
    /// Next program counter.
    pub next_pc: u64,
    /// The full capability register file (33 entries, as in
    /// [`CpuState::caps`]).
    pub caps: Vec<CapState>,
}

/// One `SYS_PHASE` record: the phase id and the statistics at entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PhaseState {
    /// Phase identifier.
    pub id: u64,
    /// `Stats` counters at the phase boundary, same order as
    /// [`MachineState::stats`].
    pub stats: [u64; 15],
}

/// One registered protection domain.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DomainState {
    /// Domain name.
    pub name: String,
    /// Entry point.
    pub entry: u64,
    /// The domain's data capability.
    pub c0: CapState,
    /// The domain's code capability.
    pub pcc: CapState,
    /// Top of the domain's stack.
    pub stack_top: u64,
}

/// `cheri-os` kernel state: process layout identity, the page table
/// (sorted), allocation cursors, phase records, console output, and the
/// domain machinery.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct KernelState {
    /// Process layout in fixed order: text_base, globals_base,
    /// heap_base, stack_top, user_top.
    pub layout: [u64; 5],
    /// Page table as `(virtual_page, physical_frame)` pairs sorted by
    /// virtual page — the live kernel uses a hash map, which has no
    /// deterministic order.
    pub page_table: Vec<(u64, u64)>,
    /// Next physical frame to allocate.
    pub next_frame: u64,
    /// Program break.
    pub brk: u64,
    /// `exec` count (context switches).
    pub execs: u64,
    /// Domain-call count.
    pub domain_calls: u64,
    /// Domain-return count.
    pub domain_returns: u64,
    /// Phase records, in the order they were issued.
    pub phases: Vec<PhaseState>,
    /// Values printed via `SYS_PRINT`.
    pub prints: Vec<u64>,
    /// Console text.
    pub console: String,
    /// Registered protection domains, in registration order.
    pub domains: Vec<DomainState>,
    /// Saved contexts of in-progress domain calls (innermost last).
    pub domain_stack: Vec<ContextState>,
    /// Ids of the domains those contexts belong to.
    pub domain_id_stack: Vec<u64>,
}

/// A complete snapshot: the machine, plus kernel state when the
/// snapshot was taken through `cheri-os` (a machine used bare — e.g. in
/// unit tests — snapshots with `kernel: None`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Snapshot {
    /// Simulator state.
    pub machine: MachineState,
    /// Kernel state, when captured via `Kernel::snapshot`.
    pub kernel: Option<KernelState>,
}
