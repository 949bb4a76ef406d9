//! Canonical JSON codec for the snapshot state tree.
//!
//! The writer emits every struct with its fields in a fixed order
//! (compact, no whitespace), so a given state has exactly one byte
//! representation — [`crate::StateHash`] is defined over these bytes.
//! The reader is built on [`cheri_trace::json::parse`] and validates
//! schema/version, vector shapes and field presence, returning
//! [`SnapError`] with a field path rather than panicking on malformed
//! input.
//!
//! Large vectors (memory words, tag words, cache lines, capability
//! files) are emitted as *flat* arrays of unsigned integers — e.g. one
//! capability is five consecutive numbers `[tag, w0, w1, w2, w3]` —
//! keeping the files dense and the parser allocation-light.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use cheri_trace::json::{parse, Json, JsonWriter};

use crate::state::{
    CacheLineState, CacheState, CapState, ConfigState, ContextState, CpuState, DomainState,
    HierarchyState, KernelState, MachineState, MemState, PhaseState, PredictorState, Snapshot,
    TagCacheLineState, TlbEntryState, TlbState,
};
use crate::{SnapError, StateHash, SCHEMA, VERSION};

type Obj = BTreeMap<String, Json>;

// ---------------------------------------------------------------- write

fn u64_list<I: IntoIterator<Item = u64>>(vals: I) -> String {
    let mut s = String::from("[");
    let mut first = true;
    for v in vals {
        if !first {
            s.push(',');
        }
        first = false;
        let _ = write!(s, "{v}");
    }
    s.push(']');
    s
}

fn pairs_list(pairs: &[(u64, u64)]) -> String {
    u64_list(pairs.iter().flat_map(|&(c, v)| [c, v]))
}

fn caps_list(caps: &[CapState]) -> String {
    u64_list(
        caps.iter()
            .flat_map(|c| [u64::from(c.tag), c.words[0], c.words[1], c.words[2], c.words[3]]),
    )
}

fn config_json(c: &ConfigState) -> String {
    let mut w = JsonWriter::object();
    w.u64_field("mem_bytes", c.mem_bytes);
    w.u64_field("tag_cache_bytes", c.tag_cache_bytes);
    w.u64_field("cap_size", c.cap_size);
    w.close()
}

fn cpu_json(c: &CpuState) -> String {
    let mut w = JsonWriter::object();
    w.raw_field("gpr", &u64_list(c.gpr));
    w.u64_field("hi", c.hi);
    w.u64_field("lo", c.lo);
    w.u64_field("pc", c.pc);
    w.u64_field("next_pc", c.next_pc);
    w.raw_field("cp0", &u64_list(c.cp0));
    w.raw_field("caps", &caps_list(&c.caps));
    match c.ll_reservation {
        Some(addr) => {
            w.bool_field("ll_armed", true);
            w.u64_field("ll_addr", addr);
        }
        None => {
            w.bool_field("ll_armed", false);
            w.u64_field("ll_addr", 0);
        }
    }
    w.close()
}

fn tlb_json(t: &TlbState) -> String {
    let mut w = JsonWriter::object();
    w.raw_field(
        "entries",
        &u64_list(
            t.entries
                .iter()
                .flat_map(|e| [e.vpn2, e.pfn0, e.flags0, e.pfn1, e.flags1, u64::from(e.present)]),
        ),
    );
    w.u64_field("next_random", t.next_random);
    w.u64_field("misses", t.misses);
    w.close()
}

fn cache_json(c: &CacheState) -> String {
    let mut w = JsonWriter::object();
    w.raw_field(
        "lines",
        &u64_list(
            c.lines
                .iter()
                .flat_map(|l| [u64::from(l.valid) | (u64::from(l.dirty) << 1), l.tag, l.lru]),
        ),
    );
    w.u64_field("tick", c.tick);
    w.u64_field("hits", c.hits);
    w.u64_field("misses", c.misses);
    w.u64_field("writebacks", c.writebacks);
    w.u64_field("mru_block", c.mru_block);
    w.u64_field("mru_index", c.mru_index);
    w.close()
}

fn hierarchy_json(h: &HierarchyState) -> String {
    let mut w = JsonWriter::object();
    w.raw_field("l1i", &cache_json(&h.l1i));
    w.raw_field("l1d", &cache_json(&h.l1d));
    w.raw_field("l2", &cache_json(&h.l2));
    w.u64_field("dram_bytes", h.dram_bytes);
    w.u64_field("dram_accesses", h.dram_accesses);
    w.close()
}

fn mem_json(m: &MemState) -> String {
    let mut w = JsonWriter::object();
    w.u64_field("bytes", m.bytes);
    w.u64_field("granule", m.granule);
    w.raw_field("words", &pairs_list(&m.words));
    w.raw_field("tags", &pairs_list(&m.tags));
    w.raw_field(
        "tag_cache",
        &u64_list(
            m.tag_cache
                .iter()
                .flat_map(|l| [u64::from(l.valid) | (u64::from(l.dirty) << 1), l.line_index]),
        ),
    );
    w.raw_field("tag_stats", &u64_list(m.tag_stats));
    w.close()
}

fn machine_json(m: &MachineState) -> String {
    let mut w = JsonWriter::object();
    w.raw_field("config", &config_json(&m.config));
    w.raw_field("cpu", &cpu_json(&m.cpu));
    w.raw_field("tlb", &tlb_json(&m.tlb));
    w.raw_field("hierarchy", &hierarchy_json(&m.hierarchy));
    w.raw_field("predictor", &pairs_list(&m.predictor.counters));
    w.raw_field("stats", &u64_list(m.stats));
    w.bool_field("bare", m.bare);
    w.raw_field("mem", &mem_json(&m.mem));
    w.close()
}

fn context_json(c: &ContextState) -> String {
    let mut w = JsonWriter::object();
    w.raw_field("gpr", &u64_list(c.gpr));
    w.u64_field("hi", c.hi);
    w.u64_field("lo", c.lo);
    w.u64_field("pc", c.pc);
    w.u64_field("next_pc", c.next_pc);
    w.raw_field("caps", &caps_list(&c.caps));
    w.close()
}

fn domain_json(d: &DomainState) -> String {
    let mut w = JsonWriter::object();
    w.str_field("name", &d.name);
    w.u64_field("entry", d.entry);
    w.raw_field("c0", &caps_list(std::slice::from_ref(&d.c0)));
    w.raw_field("pcc", &caps_list(std::slice::from_ref(&d.pcc)));
    w.u64_field("stack_top", d.stack_top);
    w.close()
}

fn kernel_json(k: &KernelState) -> String {
    let mut w = JsonWriter::object();
    w.raw_field("layout", &u64_list(k.layout));
    w.raw_field("page_table", &pairs_list(&k.page_table));
    w.u64_field("next_frame", k.next_frame);
    w.u64_field("brk", k.brk);
    w.u64_field("execs", k.execs);
    w.u64_field("domain_calls", k.domain_calls);
    w.u64_field("domain_returns", k.domain_returns);
    w.raw_field(
        "phases",
        &u64_list(k.phases.iter().flat_map(|p| {
            let mut row = [0u64; 16];
            row[0] = p.id;
            row[1..].copy_from_slice(&p.stats);
            row
        })),
    );
    w.raw_field("prints", &u64_list(k.prints.iter().copied()));
    w.str_field("console", &k.console);
    {
        let mut arr = String::from("[");
        for (i, d) in k.domains.iter().enumerate() {
            if i > 0 {
                arr.push(',');
            }
            arr.push_str(&domain_json(d));
        }
        arr.push(']');
        w.raw_field("domains", &arr);
    }
    {
        let mut arr = String::from("[");
        for (i, c) in k.domain_stack.iter().enumerate() {
            if i > 0 {
                arr.push(',');
            }
            arr.push_str(&context_json(c));
        }
        arr.push(']');
        w.raw_field("domain_stack", &arr);
    }
    w.close()
}

// ----------------------------------------------------------------- read

fn ctx(path: &str, what: &str) -> SnapError {
    SnapError(format!("{path}: {what}"))
}

fn as_obj<'a>(j: &'a Json, path: &str) -> Result<&'a Obj, SnapError> {
    j.as_obj().ok_or_else(|| ctx(path, "expected an object"))
}

fn field<'a>(o: &'a Obj, key: &str, path: &str) -> Result<&'a Json, SnapError> {
    o.get(key).ok_or_else(|| ctx(path, &format!("missing field '{key}'")))
}

fn num(o: &Obj, key: &str, path: &str) -> Result<u64, SnapError> {
    field(o, key, path)?.as_u64().ok_or_else(|| ctx(path, &format!("'{key}' must be a number")))
}

fn flag(o: &Obj, key: &str, path: &str) -> Result<bool, SnapError> {
    match field(o, key, path)? {
        Json::Bool(b) => Ok(*b),
        _ => Err(ctx(path, &format!("'{key}' must be a boolean"))),
    }
}

fn text(o: &Obj, key: &str, path: &str) -> Result<String, SnapError> {
    field(o, key, path)?
        .as_str()
        .map(str::to_owned)
        .ok_or_else(|| ctx(path, &format!("'{key}' must be a string")))
}

fn u64_vec(j: &Json, path: &str) -> Result<Vec<u64>, SnapError> {
    let arr = j.as_arr().ok_or_else(|| ctx(path, "expected an array"))?;
    arr.iter().map(|v| v.as_u64().ok_or_else(|| ctx(path, "expected numbers"))).collect()
}

fn u64_vec_field(o: &Obj, key: &str, path: &str) -> Result<Vec<u64>, SnapError> {
    u64_vec(field(o, key, path)?, &format!("{path}.{key}"))
}

fn fixed<const N: usize>(o: &Obj, key: &str, path: &str) -> Result<[u64; N], SnapError> {
    let v = u64_vec_field(o, key, path)?;
    v.try_into().map_err(|_| ctx(path, &format!("'{key}' must have exactly {N} elements")))
}

fn pair_vec(o: &Obj, key: &str, path: &str) -> Result<Vec<(u64, u64)>, SnapError> {
    let flat = u64_vec_field(o, key, path)?;
    if flat.len() % 2 != 0 {
        return Err(ctx(path, &format!("'{key}' must have an even number of elements")));
    }
    Ok(flat.chunks_exact(2).map(|c| (c[0], c[1])).collect())
}

fn caps_from(flat: &[u64], path: &str) -> Result<Vec<CapState>, SnapError> {
    if !flat.len().is_multiple_of(5) {
        return Err(ctx(path, "capability list length must be a multiple of 5"));
    }
    Ok(flat
        .chunks_exact(5)
        .map(|c| CapState { tag: c[0] != 0, words: [c[1], c[2], c[3], c[4]] })
        .collect())
}

fn one_cap(o: &Obj, key: &str, path: &str) -> Result<CapState, SnapError> {
    let caps = caps_from(&u64_vec_field(o, key, path)?, path)?;
    match caps.as_slice() {
        [c] => Ok(*c),
        _ => Err(ctx(path, &format!("'{key}' must hold exactly one capability"))),
    }
}

fn config_from(j: &Json, path: &str) -> Result<ConfigState, SnapError> {
    let o = as_obj(j, path)?;
    Ok(ConfigState {
        mem_bytes: num(o, "mem_bytes", path)?,
        tag_cache_bytes: num(o, "tag_cache_bytes", path)?,
        cap_size: num(o, "cap_size", path)?,
    })
}

fn cpu_from(j: &Json, path: &str) -> Result<CpuState, SnapError> {
    let o = as_obj(j, path)?;
    Ok(CpuState {
        gpr: fixed(o, "gpr", path)?,
        hi: num(o, "hi", path)?,
        lo: num(o, "lo", path)?,
        pc: num(o, "pc", path)?,
        next_pc: num(o, "next_pc", path)?,
        cp0: fixed(o, "cp0", path)?,
        caps: caps_from(&u64_vec_field(o, "caps", path)?, path)?,
        ll_reservation: if flag(o, "ll_armed", path)? {
            Some(num(o, "ll_addr", path)?)
        } else {
            None
        },
    })
}

fn tlb_from(j: &Json, path: &str) -> Result<TlbState, SnapError> {
    let o = as_obj(j, path)?;
    let flat = u64_vec_field(o, "entries", path)?;
    if flat.len() % 6 != 0 {
        return Err(ctx(path, "'entries' length must be a multiple of 6"));
    }
    Ok(TlbState {
        entries: flat
            .chunks_exact(6)
            .map(|c| TlbEntryState {
                vpn2: c[0],
                pfn0: c[1],
                flags0: c[2],
                pfn1: c[3],
                flags1: c[4],
                present: c[5] != 0,
            })
            .collect(),
        next_random: num(o, "next_random", path)?,
        misses: num(o, "misses", path)?,
    })
}

fn cache_from(j: &Json, path: &str) -> Result<CacheState, SnapError> {
    let o = as_obj(j, path)?;
    let flat = u64_vec_field(o, "lines", path)?;
    if flat.len() % 3 != 0 {
        return Err(ctx(path, "'lines' length must be a multiple of 3"));
    }
    Ok(CacheState {
        lines: flat
            .chunks_exact(3)
            .map(|c| CacheLineState {
                valid: c[0] & 1 != 0,
                dirty: c[0] & 2 != 0,
                tag: c[1],
                lru: c[2],
            })
            .collect(),
        tick: num(o, "tick", path)?,
        hits: num(o, "hits", path)?,
        misses: num(o, "misses", path)?,
        writebacks: num(o, "writebacks", path)?,
        mru_block: num(o, "mru_block", path)?,
        mru_index: num(o, "mru_index", path)?,
    })
}

fn hierarchy_from(j: &Json, path: &str) -> Result<HierarchyState, SnapError> {
    let o = as_obj(j, path)?;
    Ok(HierarchyState {
        l1i: cache_from(field(o, "l1i", path)?, &format!("{path}.l1i"))?,
        l1d: cache_from(field(o, "l1d", path)?, &format!("{path}.l1d"))?,
        l2: cache_from(field(o, "l2", path)?, &format!("{path}.l2"))?,
        dram_bytes: num(o, "dram_bytes", path)?,
        dram_accesses: num(o, "dram_accesses", path)?,
    })
}

fn mem_from(j: &Json, path: &str) -> Result<MemState, SnapError> {
    let o = as_obj(j, path)?;
    let flat = u64_vec_field(o, "tag_cache", path)?;
    if flat.len() % 2 != 0 {
        return Err(ctx(path, "'tag_cache' length must be even"));
    }
    Ok(MemState {
        bytes: num(o, "bytes", path)?,
        granule: num(o, "granule", path)?,
        words: pair_vec(o, "words", path)?,
        tags: pair_vec(o, "tags", path)?,
        tag_cache: flat
            .chunks_exact(2)
            .map(|c| TagCacheLineState {
                valid: c[0] & 1 != 0,
                dirty: c[0] & 2 != 0,
                line_index: c[1],
            })
            .collect(),
        tag_stats: fixed(o, "tag_stats", path)?,
    })
}

fn machine_from(j: &Json, path: &str) -> Result<MachineState, SnapError> {
    let o = as_obj(j, path)?;
    Ok(MachineState {
        config: config_from(field(o, "config", path)?, &format!("{path}.config"))?,
        cpu: cpu_from(field(o, "cpu", path)?, &format!("{path}.cpu"))?,
        tlb: tlb_from(field(o, "tlb", path)?, &format!("{path}.tlb"))?,
        hierarchy: hierarchy_from(field(o, "hierarchy", path)?, &format!("{path}.hierarchy"))?,
        predictor: PredictorState { counters: pair_vec(o, "predictor", path)? },
        stats: fixed(o, "stats", path)?,
        bare: flag(o, "bare", path)?,
        mem: mem_from(field(o, "mem", path)?, &format!("{path}.mem"))?,
    })
}

fn context_from(j: &Json, path: &str) -> Result<ContextState, SnapError> {
    let o = as_obj(j, path)?;
    Ok(ContextState {
        gpr: fixed(o, "gpr", path)?,
        hi: num(o, "hi", path)?,
        lo: num(o, "lo", path)?,
        pc: num(o, "pc", path)?,
        next_pc: num(o, "next_pc", path)?,
        caps: caps_from(&u64_vec_field(o, "caps", path)?, path)?,
    })
}

fn domain_from(j: &Json, path: &str) -> Result<DomainState, SnapError> {
    let o = as_obj(j, path)?;
    Ok(DomainState {
        name: text(o, "name", path)?,
        entry: num(o, "entry", path)?,
        c0: one_cap(o, "c0", path)?,
        pcc: one_cap(o, "pcc", path)?,
        stack_top: num(o, "stack_top", path)?,
    })
}

fn kernel_from(j: &Json, path: &str) -> Result<KernelState, SnapError> {
    let o = as_obj(j, path)?;
    let phase_flat = u64_vec_field(o, "phases", path)?;
    if phase_flat.len() % 16 != 0 {
        return Err(ctx(path, "'phases' length must be a multiple of 16"));
    }
    let phases = phase_flat
        .chunks_exact(16)
        .map(|c| {
            let mut stats = [0u64; 15];
            stats.copy_from_slice(&c[1..]);
            PhaseState { id: c[0], stats }
        })
        .collect();
    let domains = field(o, "domains", path)?
        .as_arr()
        .ok_or_else(|| ctx(path, "'domains' must be an array"))?
        .iter()
        .enumerate()
        .map(|(i, d)| domain_from(d, &format!("{path}.domains[{i}]")))
        .collect::<Result<Vec<_>, _>>()?;
    let domain_stack = field(o, "domain_stack", path)?
        .as_arr()
        .ok_or_else(|| ctx(path, "'domain_stack' must be an array"))?
        .iter()
        .enumerate()
        .map(|(i, c)| context_from(c, &format!("{path}.domain_stack[{i}]")))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(KernelState {
        layout: fixed(o, "layout", path)?,
        page_table: pair_vec(o, "page_table", path)?,
        next_frame: num(o, "next_frame", path)?,
        brk: num(o, "brk", path)?,
        execs: num(o, "execs", path)?,
        domain_calls: num(o, "domain_calls", path)?,
        domain_returns: num(o, "domain_returns", path)?,
        phases,
        prints: u64_vec_field(o, "prints", path)?,
        console: text(o, "console", path)?,
        domains,
        domain_stack,
    })
}

// ------------------------------------------------------------- public API

impl MachineState {
    /// Canonical serialization of the machine fragment alone: a bare
    /// machine's state, which the simulator's round-trip tests hash and
    /// decode.
    #[must_use]
    pub fn to_json(&self) -> String {
        machine_json(self)
    }

    /// Decodes a standalone machine fragment.
    ///
    /// # Errors
    ///
    /// [`SnapError`] on malformed input.
    pub fn from_json(text: &str) -> Result<MachineState, SnapError> {
        let j = parse(text).map_err(SnapError)?;
        machine_from(&j, "machine")
    }

    /// FNV-1a hash of the canonical serialization.
    #[must_use]
    pub fn state_hash(&self) -> StateHash {
        StateHash::of_bytes(self.to_json().as_bytes())
    }
}

impl Snapshot {
    /// Canonical serialization: a single compact JSON object with
    /// `schema`/`version` first.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::object();
        w.str_field("schema", SCHEMA);
        w.u64_field("version", VERSION);
        w.raw_field("machine", &machine_json(&self.machine));
        w.raw_field("kernel", &kernel_json(&self.kernel));
        w.close()
    }

    /// Decodes a snapshot, rejecting unknown schemas and versions.
    ///
    /// # Errors
    ///
    /// [`SnapError`] on malformed input or a schema/version mismatch.
    pub fn from_json(text: &str) -> Result<Snapshot, SnapError> {
        let j = parse(text).map_err(SnapError)?;
        let o = as_obj(&j, "snapshot")?;
        let schema = text_field_or(o, "schema")?;
        if schema != SCHEMA {
            return Err(SnapError(format!("unsupported schema '{schema}' (want '{SCHEMA}')")));
        }
        let version = num(o, "version", "snapshot")?;
        if version != VERSION {
            return Err(SnapError(format!("unsupported version {version} (want {VERSION})")));
        }
        let machine = machine_from(field(o, "machine", "snapshot")?, "machine")?;
        let kernel = kernel_from(field(o, "kernel", "snapshot")?, "kernel")?;
        Ok(Snapshot { machine, kernel })
    }

    /// FNV-1a hash of the canonical serialization (machine + kernel).
    #[must_use]
    pub fn state_hash(&self) -> StateHash {
        StateHash::of_bytes(self.to_json().as_bytes())
    }
}

fn text_field_or(o: &Obj, key: &str) -> Result<String, SnapError> {
    text(o, key, "snapshot")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rle_encode;

    fn sample_machine() -> MachineState {
        let cap = |tag: bool, seed: u64| CapState {
            tag,
            words: [seed, seed.wrapping_mul(3), seed.wrapping_add(7), !seed],
        };
        let cache = CacheState {
            lines: vec![
                CacheLineState { valid: true, dirty: false, tag: 0x40, lru: 3 },
                CacheLineState { valid: true, dirty: true, tag: 0x99, lru: 9 },
                CacheLineState::default(),
            ],
            tick: 12,
            hits: 100,
            misses: 7,
            writebacks: 2,
            mru_block: u64::MAX,
            mru_index: 1,
        };
        MachineState {
            config: ConfigState { mem_bytes: 1 << 20, tag_cache_bytes: 8192, cap_size: 32 },
            cpu: CpuState {
                gpr: std::array::from_fn(|i| i as u64 * 0x1111),
                hi: 5,
                lo: 6,
                pc: 0x1_0000,
                next_pc: 0x1_0004,
                cp0: std::array::from_fn(|i| i as u64),
                caps: (0..33).map(|i| cap(i % 2 == 0, i)).collect(),
                ll_reservation: Some(0x2_0000),
            },
            tlb: TlbState {
                entries: vec![
                    TlbEntryState {
                        vpn2: 8,
                        pfn0: 16,
                        flags0: 0b11,
                        pfn1: 17,
                        flags1: 0b1111,
                        present: true,
                    },
                    TlbEntryState::default(),
                ],
                next_random: 1,
                misses: 42,
            },
            hierarchy: HierarchyState {
                l1i: cache.clone(),
                l1d: cache.clone(),
                l2: cache,
                dram_bytes: 4096,
                dram_accesses: 128,
            },
            predictor: PredictorState { counters: vec![(510, 1), (1, 3), (1, 0)] },
            stats: std::array::from_fn(|i| i as u64 * 10),
            bare: false,
            mem: MemState {
                bytes: 64,
                granule: 32,
                words: rle_encode([0, 0, 0xdead_beef, 0, 0, 0, 0, u64::MAX]),
                tags: rle_encode([0b10]),
                tag_cache: vec![
                    TagCacheLineState { valid: true, dirty: true, line_index: 3 },
                    TagCacheLineState::default(),
                ],
                tag_stats: [1, 2, 3, 4, 5],
            },
        }
    }

    fn sample_kernel() -> KernelState {
        KernelState {
            layout: [0x1_0000, 0x2_0000, 0x4_0000, 0xff_f000, 0x100_0000],
            page_table: vec![(0x10, 16), (0x20, 17)],
            next_frame: 18,
            brk: 0x4_1000,
            execs: 1,
            domain_calls: 2,
            domain_returns: 2,
            phases: vec![
                PhaseState { id: 1, stats: [1; 15] },
                PhaseState { id: 2, stats: std::array::from_fn(|i| i as u64) },
            ],
            prints: vec![0xabc, 0],
            console: "hello \"world\"\n".into(),
            domains: vec![DomainState {
                name: "sandbox".into(),
                entry: 0x1_2000,
                c0: CapState { tag: true, words: [1, 2, 3, 4] },
                pcc: CapState { tag: true, words: [5, 6, 7, 8] },
                stack_top: 0x8_0000,
            }],
            domain_stack: vec![ContextState {
                gpr: [7; 32],
                hi: 0,
                lo: 0,
                pc: 0x1_0040,
                next_pc: 0x1_0044,
                caps: (0..33).map(|i| CapState { tag: false, words: [i, 0, 0, 0] }).collect(),
            }],
        }
    }

    #[test]
    fn snapshot_roundtrips_bit_exactly() {
        let snap = Snapshot { machine: sample_machine(), kernel: sample_kernel() };
        let text = snap.to_json();
        let back = Snapshot::from_json(&text).unwrap();
        assert_eq!(back, snap);
        // Canonical: re-serializing the parse yields the same bytes,
        // hence the same hash.
        assert_eq!(back.to_json(), text);
        assert_eq!(back.state_hash(), snap.state_hash());
    }

    #[test]
    fn machine_fragment_roundtrips() {
        let m = sample_machine();
        let back = MachineState::from_json(&m.to_json()).unwrap();
        assert_eq!(back, m);
        assert_eq!(back.state_hash(), m.state_hash());
    }

    #[test]
    fn any_field_change_changes_the_hash() {
        let base = Snapshot { machine: sample_machine(), kernel: sample_kernel() };
        let mut twiddled = base.clone();
        twiddled.machine.cpu.gpr[4] ^= 1;
        assert_ne!(twiddled.state_hash(), base.state_hash());
        let mut twiddled = base.clone();
        twiddled.machine.mem.tags = rle_encode([0b11]);
        assert_ne!(twiddled.state_hash(), base.state_hash());
        let mut twiddled = base.clone();
        twiddled.kernel.console.push('x');
        assert_ne!(twiddled.state_hash(), base.state_hash());
    }

    #[test]
    fn rejects_wrong_schema_and_version() {
        let snap = Snapshot { machine: sample_machine(), kernel: sample_kernel() };
        let text = snap.to_json();
        let bad_schema = text.replace("cheri-snap/v3", "cheri-snap/v9");
        assert!(Snapshot::from_json(&bad_schema).unwrap_err().0.contains("unsupported schema"));
        // Files of the earlier versions are refused rather than
        // half-read: v1 recorded the whole platform in its identity, v2
        // a kernel domain-id stack.
        for old in [1, 2] {
            let stale = text.replace("\"version\":3", &format!("\"version\":{old}"));
            assert_ne!(stale, text);
            assert!(Snapshot::from_json(&stale).unwrap_err().0.contains("unsupported version"));
        }
        assert!(Snapshot::from_json("{}").is_err());
        assert!(Snapshot::from_json("not json").is_err());
    }

    #[test]
    fn shape_violations_are_reported_with_context() {
        let snap = Snapshot { machine: sample_machine(), kernel: sample_kernel() };
        let text = snap.to_json().replace("\"hi\":5", "\"hi\":5,\"bogus\":1");
        // Unknown extra fields are tolerated (forward-compatible reads
        // within a version are not needed, but must not crash).
        assert!(Snapshot::from_json(&text).is_ok());
        let err = MachineState::from_json("{\"config\":{}}").unwrap_err();
        assert!(err.0.contains("machine.config"), "err: {err}");
        // Every snapshot carries its kernel: a null section is refused,
        // naming the field.
        let kernel_at = text.find("\"kernel\":").expect("kernel section");
        let machine_only = format!("{}\"kernel\":null}}", &text[..kernel_at]);
        let err = Snapshot::from_json(&machine_only).unwrap_err();
        assert_eq!(err.0, "kernel: expected an object");
    }
}
