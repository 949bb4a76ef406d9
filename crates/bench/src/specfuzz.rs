//! Lockstep differential fuzzing of the simulator against the
//! executable specification (`cheri-spec`).
//!
//! A [`Program`] is a seed plus a flat sequence of instruction words,
//! biased toward capability manipulation, trap-heavy paths, and
//! self-modifying code. Each program runs on the real `Machine` under
//! every execution [`Tier`] — plain interpreter, predecoded block
//! cache, and a mid-sequence snapshot/restore — while a [`SpecMachine`]
//! independently predicts every retired register value, every trap
//! cause, every memory byte and every tag bit. Any disagreement is a
//! [`Divergence`]; [`shrink`] reduces it to a minimal replayable case
//! that serializes as a small JSON [`Program`] for the regression
//! corpus under `tests/corpus/`.
//!
//! Both machines are set up identically from the program's seed: code
//! at [`CODE_BASE`], a data window at [`DATA_BASE`] pre-seeded with
//! tagged capabilities, a mix of small/aligned and wild register
//! values, and a capability file holding data, narrowed, untagged,
//! executable and load-only capabilities.

use beri_sim::{cap_from_state, CapFormat, FaultInjection, Machine, MachineConfig, StepResult};
use cheri_snap::CapState;
use cheri_spec::cap::perms;
use cheri_spec::{pack128, SpecCap, SpecEvent, SpecFormat, SpecMachine};

/// Where the instruction words are placed.
pub const CODE_BASE: u64 = 0x1000;
/// Base of the pre-seeded data window.
pub const DATA_BASE: u64 = 0x8000;
/// Physical memory size of both machines.
pub const MEM_BYTES: u64 = 1 << 20;
/// Default per-program instruction budget.
pub const STEP_BUDGET: u64 = 512;

/// One fuzz case: the generator seed it came from (kept for
/// provenance), the capability format to run under, and the raw
/// big-endian instruction words placed at [`CODE_BASE`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Program {
    /// Generator seed (provenance only; the words are authoritative).
    pub seed: u64,
    /// Capability format for this run.
    pub format: SpecFormat,
    /// Instruction words, in order.
    pub words: Vec<u32>,
    /// Free-text provenance (what divergence this case reproduces).
    pub note: String,
}

/// The execution tiers a program is verified under. All three must
/// agree with the specification — the tiers differ only in
/// simulator-internal machinery, which is exactly what the fuzzer is
/// checking.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tier {
    /// The plain interpreter, compared after every instruction.
    Interp,
    /// The predecoded block-cache fast path, compared at every
    /// execution event and at the horizon.
    BlockCache,
    /// Block cache plus a full snapshot/restore at the midpoint of the
    /// budget — the warm-start path the sweep services rely on.
    SnapshotRestore,
}

impl Tier {
    /// All tiers, in the order they are run.
    pub const ALL: [Tier; 3] = [Tier::Interp, Tier::BlockCache, Tier::SnapshotRestore];

    /// Short name used in reports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Tier::Interp => "interp",
            Tier::BlockCache => "block-cache",
            Tier::SnapshotRestore => "snapshot-restore",
        }
    }
}

/// A disagreement between the simulator and the specification.
#[derive(Clone, Debug)]
pub struct Divergence {
    /// Which tier disagreed.
    pub tier: Tier,
    /// Instruction index (retired count at the point of divergence).
    pub step: u64,
    /// What differed, as a human-readable path.
    pub detail: String,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] step {}: {}", self.tier.name(), self.step, self.detail)
    }
}

fn sim_format(f: SpecFormat) -> CapFormat {
    match f {
        SpecFormat::C256 => CapFormat::C256,
        SpecFormat::C128 => CapFormat::C128,
    }
}

/// The four 256-bit image words of a spec capability, in the
/// [`CapState`] order (perms / reserved / base / length).
fn spec_cap_words(c: &SpecCap) -> [u64; 4] {
    [
        (u64::from(c.perms & perms::ALL) << 33) | (c.reserved >> 32),
        c.reserved & 0xffff_ffff,
        c.base,
        c.length,
    ]
}

fn to_sim_cap(c: &SpecCap) -> cheri_core::Capability {
    cap_from_state(&CapState { tag: c.tag, words: spec_cap_words(c) })
}

// --- deterministic seeding -------------------------------------------

/// xorshift64* — the only randomness source, so a seed fully determines
/// a program and its machine setup.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        // Injective and never zero (xorshift's fixed point).
        Rng(seed.wrapping_mul(2).wrapping_add(1))
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Uniform in `0..n`.
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// The register/capability/memory environment derived from a seed,
/// identical on both machines.
struct Environment {
    gprs: Vec<(u8, u64)>,
    caps: Vec<(u8, SpecCap)>,
    mem_caps: Vec<(u64, SpecCap)>,
}

fn environment(p: &Program) -> Environment {
    let mut rng = Rng::new(p.seed ^ 0x9e37_79b9_7f4a_7c15);
    let mut gprs = vec![(6u8, CODE_BASE), (7, DATA_BASE), (24, 1)];
    for r in 8..=15u8 {
        // Small, data-window-sized offsets (deliberately not aligned).
        gprs.push((r, rng.below(0x4000)));
    }
    for r in 16..=23u8 {
        // Wild full-width values: out-of-bounds and misaligned paths.
        gprs.push((r, rng.next()));
    }
    let data =
        SpecCap { tag: true, perms: perms::ALL, reserved: 0, base: DATA_BASE, length: 0x4000 };
    let caps = vec![
        (1u8, data),
        // Narrowed permissions, narrowed bounds.
        (
            2,
            SpecCap {
                perms: perms::LOAD | perms::STORE | perms::LOAD_CAP | perms::STORE_CAP,
                base: DATA_BASE + 0x800,
                length: 0x1000,
                ..data
            },
        ),
        // Untagged junk: copyable, never dereferenceable.
        (
            3,
            SpecCap {
                tag: false,
                perms: (rng.next() as u32) & perms::ALL,
                reserved: rng.next(),
                base: rng.next(),
                length: rng.next(),
            },
        ),
        // Executable window over the code.
        (
            4,
            SpecCap {
                perms: perms::EXECUTE | perms::LOAD,
                base: CODE_BASE,
                length: 0x1000,
                ..data
            },
        ),
        // Load-only, tightly bounded.
        (5, SpecCap { perms: perms::LOAD, base: DATA_BASE, length: 0x100, ..data }),
    ];
    let granule = p.format.size();
    let mem_caps = (0..4u64)
        .map(|k| {
            let region =
                SpecCap { base: DATA_BASE + 0x200 * k, length: 0x100 + 8 * rng.below(16), ..data };
            (DATA_BASE + 0x1000 + k * granule, region)
        })
        .collect();
    Environment { gprs, caps, mem_caps }
}

/// Builds the simulator half of the pair.
#[must_use]
pub fn build_sim(p: &Program, block_cache: bool, fault: Option<FaultInjection>) -> Machine {
    let mut m = Machine::new(MachineConfig {
        mem_bytes: MEM_BYTES as usize,
        cap_format: sim_format(p.format),
        block_cache,
        fault,
        ..MachineConfig::default()
    });
    for (i, w) in p.words.iter().enumerate() {
        m.mem.write_u32(CODE_BASE + 4 * i as u64, *w).expect("code fits in memory");
    }
    let env = environment(p);
    for &(r, v) in &env.gprs {
        m.cpu.set_gpr(r, v);
    }
    for &(r, c) in &env.caps {
        m.cpu.caps.set(r, to_sim_cap(&c));
    }
    for &(addr, c) in &env.mem_caps {
        let tag = c.tag;
        match p.format {
            SpecFormat::C256 => m.mem.write_tagged(addr, &c.image256(), tag),
            SpecFormat::C128 => m.mem.write_tagged(addr, &pack128(&c), tag),
        }
        .expect("seed capability fits in memory");
    }
    m.cpu.jump_to(CODE_BASE);
    m
}

/// Builds the specification half of the pair.
#[must_use]
pub fn build_spec(p: &Program) -> SpecMachine {
    let mut m = SpecMachine::new(p.format, MEM_BYTES);
    for (i, w) in p.words.iter().enumerate() {
        m.poke_u32(CODE_BASE + 4 * i as u64, *w);
    }
    let env = environment(p);
    for &(r, v) in &env.gprs {
        m.set_gpr(r, v);
    }
    for &(r, c) in &env.caps {
        m.caps[usize::from(r)] = c;
    }
    for &(addr, c) in &env.mem_caps {
        m.poke_cap(addr, &c);
    }
    m.jump_to(CODE_BASE);
    m
}

// --- comparison ------------------------------------------------------

const CP0_CMP: [(u8, &str); 10] = [
    (0, "index"),
    (2, "entrylo0"),
    (3, "entrylo1"),
    (8, "badvaddr"),
    (9, "count"),
    (10, "entryhi"),
    (12, "status"),
    (13, "cause"),
    (14, "epc"),
    (27, "capcause"),
];

/// Compares every architectural CPU register the spec models. Returns
/// the first difference as a path string.
#[must_use]
pub fn compare_cpu(sim: &Machine, spec: &SpecMachine) -> Option<String> {
    for r in 0..32u8 {
        let (a, b) = (sim.cpu.get_gpr(r), spec.gpr[usize::from(r)]);
        if a != b {
            return Some(format!("gpr[{r}]: sim {a:#x} != spec {b:#x}"));
        }
    }
    for (name, a, b) in [
        ("hi", sim.cpu.hi, spec.hi),
        ("lo", sim.cpu.lo, spec.lo),
        ("pc", sim.cpu.pc, spec.pc),
        ("next_pc", sim.cpu.next_pc, spec.next_pc),
    ] {
        if a != b {
            return Some(format!("{name}: sim {a:#x} != spec {b:#x}"));
        }
    }
    for (rd, name) in CP0_CMP {
        let (a, b) = (sim.cpu.cp0.read(rd), spec.cp0.read(rd));
        if a != b {
            return Some(format!("cp0.{name}: sim {a:#x} != spec {b:#x}"));
        }
    }
    for r in 0..32u8 {
        let sim_cap = beri_sim::cap_to_state(sim.cpu.caps.get(r));
        let spec_cap = &spec.caps[usize::from(r)];
        if sim_cap.tag != spec_cap.tag || sim_cap.words != spec_cap_words(spec_cap) {
            return Some(format!(
                "c{r}: sim tag={} {:x?} != spec tag={} {:x?}",
                sim_cap.tag,
                sim_cap.words,
                spec_cap.tag,
                spec_cap_words(spec_cap)
            ));
        }
    }
    let sim_pcc = beri_sim::cap_to_state(sim.cpu.caps.pcc());
    if sim_pcc.tag != spec.pcc.tag || sim_pcc.words != spec_cap_words(&spec.pcc) {
        return Some("pcc differs".to_string());
    }
    if sim.cpu.ll_reservation != spec.ll_reservation {
        return Some(format!(
            "ll_reservation: sim {:?} != spec {:?}",
            sim.cpu.ll_reservation, spec.ll_reservation
        ));
    }
    None
}

/// Compares every memory byte and every tag bit.
#[must_use]
pub fn compare_mem(sim: &mut Machine, spec: &SpecMachine) -> Option<String> {
    let granule = spec.format.size();
    let mut buf = vec![0u8; granule as usize];
    let spec_mem = spec.mem_bytes();
    let spec_tags = spec.tag_bits();
    for g in 0..(MEM_BYTES / granule) {
        let addr = g * granule;
        let tag = sim.mem.read_tagged(addr, &mut buf).expect("in range");
        if tag != spec_tags[g as usize] {
            return Some(format!("tag[{addr:#x}]: sim {tag} != spec {}", spec_tags[g as usize]));
        }
        let expect = &spec_mem[addr as usize..(addr + granule) as usize];
        if buf != expect {
            let off = buf.iter().zip(expect).position(|(a, b)| a != b).unwrap_or(0);
            return Some(format!(
                "mem[{:#x}]: sim {:#04x} != spec {:#04x}",
                addr + off as u64,
                buf[off],
                expect[off]
            ));
        }
    }
    None
}

// --- lockstep execution ----------------------------------------------

/// How a lockstep run ended.
enum Stop {
    /// The budget ran out with both sides still agreeing.
    Exhausted,
    /// Both sides stopped at the same terminal event (break/memfault).
    Ended,
}

/// Maps one (simulator event, spec event) pair to what the harness
/// should do. `Ok(true)` = keep going, `Ok(false)` = stop cleanly.
fn reconcile(
    sim: &mut Machine,
    spec: &mut SpecMachine,
    sr: &Result<StepResult, cheri_mem::MemError>,
    se: SpecEvent,
) -> Result<bool, String> {
    match (sr, se) {
        (Ok(StepResult::Continue), SpecEvent::Retired) => Ok(true),
        (Ok(StepResult::Trap(_)), SpecEvent::Trap { .. }) => {
            // Trap detail is compared via CP0 (cause/epc/badvaddr/
            // capcause); resume both at the next architectural PC.
            sim.advance_past_trap();
            spec.advance_past_trap();
            Ok(true)
        }
        (Ok(StepResult::Syscall), SpecEvent::Syscall) => {
            sim.advance_past_trap();
            spec.advance_past_trap();
            Ok(true)
        }
        (Ok(StepResult::Break(a)), SpecEvent::Break(b)) => {
            if *a == b {
                Ok(false)
            } else {
                Err(format!("break code: sim {a} != spec {b}"))
            }
        }
        (Err(_), SpecEvent::MemFault) => Ok(false),
        (sim_ev, spec_ev) => Err(format!("event: sim {sim_ev:?} != spec {spec_ev:?}")),
    }
}

/// Tier A: instruction-at-a-time lockstep with a full CPU comparison
/// after every step.
fn run_interp(
    sim: &mut Machine,
    spec: &mut SpecMachine,
    budget: u64,
    tier: Tier,
) -> Result<Stop, Divergence> {
    for k in 0..budget {
        let sr = sim.step();
        let se = spec.step();
        let keep_going =
            reconcile(sim, spec, &sr, se).map_err(|detail| Divergence { tier, step: k, detail })?;
        if let Some(detail) = compare_cpu(sim, spec) {
            return Err(Divergence { tier, step: k, detail });
        }
        if !keep_going {
            return Ok(Stop::Ended);
        }
    }
    Ok(Stop::Exhausted)
}

/// Tier B/C inner loop: run the simulator in chunks (letting the block
/// cache do its thing), advance the spec by the retired-instruction
/// delta, and compare at every execution event.
fn run_chunked(
    sim: &mut Machine,
    spec: &mut SpecMachine,
    budget: u64,
    tier: Tier,
) -> Result<Stop, Divergence> {
    let mut done = 0u64;
    while done < budget {
        let before = sim.stats.instructions;
        let sr = sim.run(budget - done);
        let retired = sim.stats.instructions - before;
        for i in 0..retired {
            let se = spec.step();
            if se != SpecEvent::Retired {
                return Err(Divergence {
                    tier,
                    step: done + i,
                    detail: format!("sim retired but spec reported {se:?}"),
                });
            }
        }
        done += retired;
        if matches!(sr, Ok(StepResult::Continue)) {
            // Budget chunk exhausted with no event.
            if let Some(detail) = compare_cpu(sim, spec) {
                return Err(Divergence { tier, step: done, detail });
            }
            continue;
        }
        // The simulator stopped at an event *before* retiring the
        // instruction; one more spec step must produce the same event.
        let se = spec.step();
        let keep_going = reconcile(sim, spec, &sr, se).map_err(|detail| Divergence {
            tier,
            step: done,
            detail,
        })?;
        if let Some(detail) = compare_cpu(sim, spec) {
            return Err(Divergence { tier, step: done, detail });
        }
        if !keep_going {
            return Ok(Stop::Ended);
        }
        // The event consumed a step even though nothing retired;
        // without this a loop around a trapping instruction (which
        // retires nothing, forever) would never exhaust the budget.
        done += 1;
    }
    Ok(Stop::Exhausted)
}

/// Runs one program under one tier, comparing CPU state in lockstep and
/// all of memory (bytes and tags) at the end.
///
/// # Errors
///
/// The first [`Divergence`] found.
pub fn run_tier(
    p: &Program,
    tier: Tier,
    fault: Option<FaultInjection>,
    budget: u64,
) -> Result<(), Divergence> {
    let mut spec = build_spec(p);
    let mut sim = build_sim(p, tier != Tier::Interp, fault);
    let stop = match tier {
        Tier::Interp => run_interp(&mut sim, &mut spec, budget, tier),
        Tier::BlockCache => run_chunked(&mut sim, &mut spec, budget, tier),
        Tier::SnapshotRestore => {
            let half = budget / 2;
            match run_chunked(&mut sim, &mut spec, half, tier)? {
                Stop::Ended => Ok(Stop::Ended),
                Stop::Exhausted => {
                    // Round-trip the simulator through a snapshot at the
                    // midpoint; the spec does not notice.
                    let state = sim.snapshot();
                    let mut restored =
                        Machine::from_state(&state, true).map_err(|e| Divergence {
                            tier,
                            step: half,
                            detail: format!("snapshot restore failed: {e}"),
                        })?;
                    let r = run_chunked(&mut restored, &mut spec, budget - half, tier);
                    sim = restored;
                    r
                }
            }
        }
    }?;
    let _ = stop;
    if let Some(detail) = compare_mem(&mut sim, &spec) {
        return Err(Divergence { tier, step: budget, detail });
    }
    Ok(())
}

/// Runs one program under every tier.
///
/// # Errors
///
/// The first [`Divergence`] found.
pub fn run_all_tiers(
    p: &Program,
    fault: Option<FaultInjection>,
    budget: u64,
) -> Result<(), Divergence> {
    for tier in Tier::ALL {
        run_tier(p, tier, fault, budget)?;
    }
    Ok(())
}

// --- program generation ----------------------------------------------

/// Generates a fuzz program from a seed: 24–64 instruction words biased
/// toward capability manipulation, capability memory traffic, traps,
/// and the occasional store into the code region (self-modification the
/// block cache must notice). Every legacy encoding the simulator lowers
/// to an operation of its own is among them.
#[must_use]
pub fn generate(seed: u64, format: SpecFormat) -> Program {
    let mut rng = Rng::new(seed);
    let len = 24 + rng.below(41) as usize;
    let mut words = Vec::with_capacity(len + 1);
    while words.len() < len {
        gen_word(&mut rng, len, &mut words);
    }
    words.truncate(len);
    Program { seed, format, words, note: String::new() }
}

fn cop2(sub: u32, r1: u32, r2: u32, r3: u32, low: u32) -> u32 {
    (0x12 << 26) | (sub << 21) | (r1 << 16) | (r2 << 11) | (r3 << 6) | (low & 0x3f)
}

/// Appends one generated instruction word to `out` (two for a register
/// jump, which first sets its register).
#[allow(clippy::too_many_lines)]
fn gen_word(rng: &mut Rng, len: usize, out: &mut Vec<u32>) {
    let gpr = |rng: &mut Rng| 1 + rng.below(23) as u32; // $1..$23
                                                        // An ALU destination: now and then `$zero`, which a trapping
                                                        // instruction still checks and any other leaves untouched.
    let dst = |rng: &mut Rng| if rng.below(16) == 0 { 0 } else { gpr(rng) };
    let small = |rng: &mut Rng| (8 + rng.below(8)) as u32; // $8..$15
    let capr = |rng: &mut Rng| rng.below(8) as u32; // c0..c7
    let word = match rng.below(100) {
        // Capability manipulation: get/derive/narrow/convert.
        0..=29 => {
            let sub = [0, 1, 2, 3, 4, 5, 5, 6, 6, 7, 8, 8, 9, 10][rng.below(14) as usize];
            cop2(sub, capr(rng), capr(rng), gpr(rng), 0)
        }
        // Capability memory traffic: CLC/CSC near the seeded window,
        // CL*/CS* scalar accesses through data capabilities.
        30..=41 => {
            let cb = 1 + rng.below(2) as u32; // c1 or c2
            match rng.below(4) {
                0 => cop2(13, capr(rng), cb, small(rng), rng.below(4) as u32),
                1 => cop2(14, capr(rng), cb, small(rng), rng.below(4) as u32),
                2 => {
                    let sub = 15 + rng.below(7) as u32; // CLB..CLD
                    cop2(sub, gpr(rng), cb, small(rng), rng.below(8) as u32)
                }
                _ => {
                    let sub = 22 + rng.below(4) as u32; // CSB..CSD
                    cop2(sub, gpr(rng), cb, small(rng), rng.below(8) as u32)
                }
            }
        }
        // Tag branches.
        42..=46 => {
            let sub = 11 + rng.below(2) as u32;
            (0x12 << 26) | (sub << 21) | (capr(rng) << 16) | (1 + rng.below(5) as u32)
        }
        // Capability jumps through the executable window.
        47..=49 => {
            if rng.below(2) == 0 {
                cop2(28, 4, 0, 0, 0)
            } else {
                cop2(29, 4, 6 + rng.below(2) as u32, 0, 0)
            }
        }
        // ALU: three-register (including trapping add/sub on wild
        // registers and the conditional moves), immediates and LUI,
        // constant and variable shifts, multiply/divide, HI/LO.
        50..=69 => match rng.below(6) {
            0 => {
                let funct = [
                    0x20, 0x21, 0x22, 0x23, 0x24, 0x25, 0x26, 0x27, 0x2a, 0x2b, 0x2c, 0x2d, 0x2e,
                    0x2f, 0x0a, 0x0b,
                ][rng.below(16) as usize];
                let rd = dst(rng);
                // Into `$zero`, wild sources ($16..$23), so that the
                // trapping forms overflow often enough to be checked.
                let src = |rng: &mut Rng| if rd == 0 { 16 + rng.below(8) as u32 } else { gpr(rng) };
                (src(rng) << 21) | (src(rng) << 16) | (rd << 11) | funct
            }
            1 => {
                let op = [0x08, 0x09, 0x0a, 0x0b, 0x0c, 0x0d, 0x0e, 0x0f, 0x18, 0x19]
                    [rng.below(10) as usize];
                let rs = if op == 0x0f { 0 } else { gpr(rng) }; // LUI has no source
                (op << 26) | (rs << 21) | (dst(rng) << 16) | (rng.next() as u32 & 0xffff)
            }
            2 => {
                let funct =
                    [0x00, 0x02, 0x03, 0x38, 0x3a, 0x3b, 0x3c, 0x3e, 0x3f][rng.below(9) as usize];
                (gpr(rng) << 16) | (dst(rng) << 11) | ((rng.below(32) as u32) << 6) | funct
            }
            3 => {
                let funct = [0x04, 0x06, 0x07, 0x14, 0x16, 0x17][rng.below(6) as usize];
                (gpr(rng) << 21) | (gpr(rng) << 16) | (dst(rng) << 11) | funct
            }
            4 => {
                let funct = [0x18, 0x19, 0x1a, 0x1b, 0x1c, 0x1d, 0x1e, 0x1f][rng.below(8) as usize];
                (gpr(rng) << 21) | (gpr(rng) << 16) | funct
            }
            _ => match rng.below(4) {
                0 => (gpr(rng) << 11) | 0x10, // mfhi
                1 => (gpr(rng) << 11) | 0x12, // mflo
                2 => (gpr(rng) << 21) | 0x11, // mthi
                _ => (gpr(rng) << 21) | 0x13, // mtlo
            },
        },
        // Legacy loads/stores via $7 (data) — offsets deliberately
        // unaligned sometimes, exercising address-error traps.
        70..=79 => {
            let op = [0x20, 0x21, 0x23, 0x24, 0x25, 0x27, 0x37, 0x28, 0x29, 0x2b, 0x3f]
                [rng.below(11) as usize];
            (op << 26) | (7 << 21) | (gpr(rng) << 16) | (rng.below(0x1000) as u32)
        }
        // LL/SC.
        80..=84 => {
            let op = [0x30, 0x34, 0x38, 0x3c][rng.below(4) as usize];
            (op << 26) | (7 << 21) | (gpr(rng) << 16) | ((rng.below(0x200) as u32) & !7)
        }
        // Branches, short forward: BEQ, BNE, BLEZ, BGTZ, and the REGIMM
        // forms BLTZ, BGEZ, BLTZAL, BGEZAL.
        85..=89 => {
            let off = 1 + rng.below(5) as u32;
            match rng.below(8) {
                0 => (0x04 << 26) | (gpr(rng) << 21) | (gpr(rng) << 16) | off,
                1 => (0x05 << 26) | (gpr(rng) << 21) | (gpr(rng) << 16) | off,
                2 => (0x06 << 26) | (gpr(rng) << 21) | off,
                3 => (0x07 << 26) | (gpr(rng) << 21) | off,
                k => {
                    let rt = [0x00, 0x01, 0x10, 0x11][k as usize - 4];
                    (0x01 << 26) | (gpr(rng) << 21) | (rt << 16) | off
                }
            }
        }
        // Jumps back into the code region.
        90 => {
            let target = (CODE_BASE >> 2) as u32 + rng.below(len as u64) as u32;
            let op = if rng.below(2) == 0 { 0x02 } else { 0x03 };
            (op << 26) | target
        }
        // JR/JALR through $25, which the word before sets to an
        // instruction of the program (`daddiu $25, $6, 4k`).
        91 => {
            let k = rng.below(len as u64) as u32;
            out.push((0x19 << 26) | (6 << 21) | (25 << 16) | (4 * k));
            if rng.below(2) == 0 {
                (25 << 21) | 0x08
            } else {
                let link = if rng.below(2) == 0 { 31 } else { gpr(rng) };
                (25 << 21) | (link << 11) | 0x09
            }
        }
        // CP0 and the TLB instructions.
        92..=95 => match rng.below(4) {
            0 => {
                let rd = [0u32, 2, 3, 9, 10, 12, 14][rng.below(7) as usize];
                (0x10 << 26) | (gpr(rng) << 16) | (rd << 11)
            }
            1 => {
                let rd = [0u32, 2, 3, 8, 9, 10, 12, 13, 14, 27][rng.below(10) as usize];
                (0x10 << 26) | (0x04 << 21) | (gpr(rng) << 16) | (rd << 11)
            }
            _ => {
                let funct = [0x01u32, 0x02, 0x06, 0x08][rng.below(4) as usize];
                (0x10 << 26) | (1 << 25) | funct
            }
        },
        // Traps.
        96..=97 => {
            if rng.below(2) == 0 {
                0x0c // syscall
            } else {
                (rng.below(1024) as u32) << 16 | 0x0d // break
            }
        }
        // Self-modifying code: a store through $6 into the code region.
        _ => {
            let off = (rng.below(len as u64 * 4) as u32) & !3;
            (0x2b << 26) | (6 << 21) | (gpr(rng) << 16) | off
        }
    };
    out.push(word);
}

// --- shrinking -------------------------------------------------------

/// Shrinks a diverging program: first find (by bisection) the shortest
/// still-diverging prefix, then try to replace each remaining word with
/// a NOP. `diverges` must be deterministic.
#[must_use]
pub fn shrink(p: &Program, diverges: &dyn Fn(&Program) -> bool) -> Program {
    let mut best = p.clone();
    // Shortest diverging prefix, assuming (as a heuristic) prefix
    // divergence is monotonic in length.
    let (mut lo, mut hi) = (0usize, best.words.len());
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        let candidate = Program { words: best.words[..mid].to_vec(), ..best.clone() };
        if diverges(&candidate) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    if hi < best.words.len() {
        let candidate = Program { words: best.words[..hi].to_vec(), ..best.clone() };
        if diverges(&candidate) {
            best = candidate;
        }
    }
    // NOP-out every word that isn't load-bearing.
    for i in 0..best.words.len() {
        if best.words[i] == 0 {
            continue;
        }
        let mut candidate = best.clone();
        candidate.words[i] = 0;
        if diverges(&candidate) {
            best = candidate;
        }
    }
    best
}

// --- corpus serialization --------------------------------------------

impl Program {
    /// Serializes as the `cheri-specfuzz/v1` JSON corpus format.
    #[must_use]
    pub fn to_json(&self) -> String {
        let cap = match self.format {
            SpecFormat::C256 => "c256",
            SpecFormat::C128 => "c128",
        };
        let note: String =
            self.note.chars().filter(|c| *c != '"' && *c != '\\' && *c != '\n').collect();
        let words = self.words.iter().map(|w| format!("{w}")).collect::<Vec<_>>().join(", ");
        format!(
            "{{\n  \"format\": \"cheri-specfuzz/v1\",\n  \"seed\": {},\n  \"cap\": \"{cap}\",\n  \"note\": \"{note}\",\n  \"words\": [{words}]\n}}\n",
            self.seed
        )
    }

    /// Parses the `cheri-specfuzz/v1` corpus format.
    ///
    /// # Errors
    ///
    /// A rendered message for missing/malformed fields.
    pub fn from_json(text: &str) -> Result<Program, String> {
        fn field<'a>(text: &'a str, key: &str) -> Result<&'a str, String> {
            let tag = format!("\"{key}\"");
            let at = text.find(&tag).ok_or_else(|| format!("missing field {key}"))?;
            let rest = &text[at + tag.len()..];
            let colon = rest.find(':').ok_or_else(|| format!("malformed field {key}"))?;
            Ok(rest[colon + 1..].trim_start())
        }
        fn string_value(raw: &str, key: &str) -> Result<String, String> {
            let raw = raw.strip_prefix('"').ok_or_else(|| format!("{key} is not a string"))?;
            let end = raw.find('"').ok_or_else(|| format!("{key} is unterminated"))?;
            Ok(raw[..end].to_string())
        }
        let version = string_value(field(text, "format")?, "format")?;
        if version != "cheri-specfuzz/v1" {
            return Err(format!("unknown corpus format {version:?}"));
        }
        let seed_raw = field(text, "seed")?;
        let end = seed_raw.find(|c: char| !c.is_ascii_digit()).unwrap_or(seed_raw.len());
        let seed: u64 = seed_raw[..end].parse().map_err(|e| format!("bad seed: {e}"))?;
        let format = match string_value(field(text, "cap")?, "cap")?.as_str() {
            "c256" => SpecFormat::C256,
            "c128" => SpecFormat::C128,
            other => return Err(format!("unknown cap format {other:?}")),
        };
        let note = string_value(field(text, "note").unwrap_or("\"\""), "note").unwrap_or_default();
        let words_raw = field(text, "words")?;
        let words_raw =
            words_raw.strip_prefix('[').ok_or_else(|| "words is not an array".to_string())?;
        let end = words_raw.find(']').ok_or_else(|| "words is unterminated".to_string())?;
        let mut words = Vec::new();
        for item in words_raw[..end].split(',') {
            let item = item.trim();
            if item.is_empty() {
                continue;
            }
            words.push(item.parse().map_err(|e| format!("bad word {item:?}: {e}"))?);
        }
        Ok(Program { seed, format, words, note })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_json_round_trips() {
        let p = Program {
            seed: 0xdead_beef,
            format: SpecFormat::C128,
            words: vec![0x1234_5678, 0, 0xffff_ffff],
            note: "a \"quoted\" note\nwith a newline".to_string(),
        };
        let back = Program::from_json(&p.to_json()).unwrap();
        assert_eq!(back.seed, p.seed);
        assert_eq!(back.format, p.format);
        assert_eq!(back.words, p.words);
        assert_eq!(back.note, "a quoted notewith a newline");
    }

    #[test]
    fn generated_programs_are_deterministic() {
        let a = generate(42, SpecFormat::C256);
        let b = generate(42, SpecFormat::C256);
        assert_eq!(a.words, b.words);
        let c = generate(43, SpecFormat::C256);
        assert_ne!(a.words, c.words);
    }

    /// Each legacy encoding the simulator lowers to an operation of its
    /// own, and that no other generator arm was written for, appears
    /// within the first 2 000 seeds: the lowering's only independent
    /// oracle must see it.
    #[test]
    fn reaches_every_lowered_encoding() {
        // (name, opcode, SPECIAL funct or REGIMM rt)
        const ENCODINGS: [(&str, u32, Option<u32>); 22] = [
            ("DSLL32", 0x00, Some(0x3c)),
            ("DSRL32", 0x00, Some(0x3e)),
            ("DSRA32", 0x00, Some(0x3f)),
            ("SLLV", 0x00, Some(0x04)),
            ("SRLV", 0x00, Some(0x06)),
            ("SRAV", 0x00, Some(0x07)),
            ("DSLLV", 0x00, Some(0x14)),
            ("DSRLV", 0x00, Some(0x16)),
            ("DSRAV", 0x00, Some(0x17)),
            ("MOVZ", 0x00, Some(0x0a)),
            ("MOVN", 0x00, Some(0x0b)),
            ("MTHI", 0x00, Some(0x11)),
            ("MTLO", 0x00, Some(0x13)),
            ("DSUB", 0x00, Some(0x2e)),
            ("DSUBU", 0x00, Some(0x2f)),
            ("JR", 0x00, Some(0x08)),
            ("JALR", 0x00, Some(0x09)),
            ("LUI", 0x0f, None),
            ("BGTZ", 0x07, None),
            ("BLTZ", 0x01, Some(0x00)),
            ("BLTZAL", 0x01, Some(0x10)),
            ("BGEZAL", 0x01, Some(0x11)),
        ];
        let words: Vec<u32> =
            (0..2000u64).flat_map(|seed| generate(seed, SpecFormat::C256).words).collect();
        for (name, op, sel) in ENCODINGS {
            let hit = words.iter().any(|&w| {
                w >> 26 == op
                    && match (op, sel) {
                        (_, None) => true,
                        (0x00, Some(funct)) => w & 0x3f == funct,
                        (_, Some(rt)) => (w >> 16) & 0x1f == rt,
                    }
            });
            assert!(hit, "{name} never generated in 2000 seeds");
        }
        // A trapping add and a plain one, each into `$zero`.
        for funct in [0x20, 0x21] {
            let hit =
                words.iter().any(|&w| w >> 26 == 0 && w & 0x3f == funct && (w >> 11) & 0x1f == 0);
            assert!(hit, "funct {funct:#x} into $zero never generated in 2000 seeds");
        }
    }

    #[test]
    fn smoke_fuzz_is_clean() {
        for seed in 0..24u64 {
            let format = if seed % 2 == 0 { SpecFormat::C256 } else { SpecFormat::C128 };
            let p = generate(seed, format);
            if let Err(d) = run_all_tiers(&p, None, 256) {
                panic!("seed {seed} diverged: {d}\n{}", p.to_json());
            }
        }
    }
}
