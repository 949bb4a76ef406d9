//! # cheri-prof — guest-side profiling for the CHERI reproduction
//!
//! The sweep reports say *how much* overhead a pointer strategy pays;
//! this crate says *where*. A [`Profiler`] attached to a
//! `beri_sim::Machine` (via `Machine::set_profiler`) collects:
//!
//! * **per-PC attribution** — exact histograms of retired
//!   instructions, L1I/L1D/L2 misses, tag-cache misses, TLB refills,
//!   and capability exceptions, keyed by guest PC. Cache misses are
//!   attributed by *delta sampling*: the machine hands the profiler the
//!   global miss counters at every retire, and the deltas since the
//!   previous retire are charged to the retiring instruction — so the
//!   per-PC sums equal the global counters by construction;
//! * **synthetic call stacks** — pushes at `jal`/`jalr`/`cjalr`
//!   retires, pops at `jr $ra`/`cjr`, with every retired instruction
//!   counted against the current stack. The result folds into the
//!   standard flamegraph collapsed format ([`ProfileReport::folded_output`]),
//!   and the folded sample counts sum to total retired instructions;
//! * **a timeline** — kernel phases, syscalls, domain crossings, and
//!   context switches as Chrome trace-event / Perfetto JSON
//!   ([`Timeline::to_json`]), timestamped in guest cycles. The kernel
//!   owns the guest's open spans and hands the profiler each begin and
//!   end ([`Profiler::on_span`]); the profiler only records them.
//!
//! ## Transparency
//!
//! The profiler is host-side observation only: it never feeds back into
//! architectural state, cycle accounting, or the event stream, and it
//! is *not* a trace sink — attaching it does not disable the simulator's
//! predecoded-block fast path. Sweep reports are byte-identical with
//! profiling on or off (`xsweep --prof` asserts this in-process;
//! `crates/sim/tests/prof_transparency.rs` proves it on random
//! programs).
//!
//! ## Snapshots
//!
//! Profile state is never serialized into `cheri-snap` snapshots. On
//! `Machine::restore` the machine resets its profiler ([`Profiler::reset`])
//! and reseeds the delta-sampling baseline from the restored counters,
//! so attribution stays exact across a restore.

// Library paths must report errors, not abort (workspace convention).
#![warn(clippy::unwrap_used)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

use cheri_trace::chrome::Ph;
use cheri_trace::SpanKind;
use std::collections::{BTreeMap, HashMap};

mod report;
mod symbols;
mod timeline;

pub use report::{FuncProfile, ProfileReport};
pub use symbols::{SymbolDef, SymbolTable, UNKNOWN_SYM};
pub use timeline::{Timeline, TimelineEvent};

/// A point-in-time copy of the machine's global miss counters, taken at
/// every retire. The profiler charges the delta since the previous
/// sample to the retiring PC.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CounterSample {
    /// `hierarchy.l1i.misses`.
    pub l1i_misses: u64,
    /// `hierarchy.l1d.misses`.
    pub l1d_misses: u64,
    /// `hierarchy.l2.misses`.
    pub l2_misses: u64,
    /// The host-side tag-miss tick (see `TagController::set_miss_probe`)
    /// — monotone for the lifetime of the probe, unaffected by snapshot
    /// restores.
    pub tag_misses: u64,
}

/// Everything attributed to one guest PC (or one function, after
/// aggregation).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PcCounters {
    /// Instructions retired at this PC.
    pub retired: u64,
    /// L1 instruction-cache misses charged to this PC.
    pub l1i_misses: u64,
    /// L1 data-cache misses charged to this PC.
    pub l1d_misses: u64,
    /// Unified L2 misses charged to this PC.
    pub l2_misses: u64,
    /// Tag-cache misses charged to this PC.
    pub tag_misses: u64,
    /// TLB refill exceptions taken at this PC.
    pub tlb_refills: u64,
    /// Capability exceptions raised at this PC.
    pub cap_exceptions: u64,
}

impl PcCounters {
    fn absorb(&mut self, other: &PcCounters) {
        self.retired += other.retired;
        self.l1i_misses += other.l1i_misses;
        self.l1d_misses += other.l1d_misses;
        self.l2_misses += other.l2_misses;
        self.tag_misses += other.tag_misses;
        self.tlb_refills += other.tlb_refills;
        self.cap_exceptions += other.cap_exceptions;
    }
}

/// The live profiler. Owned by the machine while attached
/// (`Machine::set_profiler`); recovered with `Machine::take_profiler`
/// and finished into a [`ProfileReport`] via [`Profiler::into_report`].
#[derive(Clone, Debug, Default)]
pub struct Profiler {
    pcs: HashMap<u64, PcCounters>,
    last: CounterSample,
    last_pc: Option<u64>,
    total_retired: u64,
    symbols: SymbolTable,
    /// Current synthetic call stack, as symbol ids (callees of callees
    /// of the root frame).
    stack: Vec<u32>,
    /// Retires at the current stack not yet flushed into `folded`.
    pending: u64,
    folded: BTreeMap<Vec<u32>, u64>,
    timeline: Timeline,
}

impl Profiler {
    /// A fresh profiler with no symbol map.
    #[must_use]
    pub fn new() -> Profiler {
        Profiler::default()
    }

    /// Installs the symbol map used for stack frames and function
    /// aggregation.
    pub fn set_symbols(&mut self, symbols: SymbolTable) {
        self.symbols = symbols;
    }

    /// The installed symbol map.
    #[must_use]
    pub fn symbols(&self) -> &SymbolTable {
        &self.symbols
    }

    /// Seeds the delta-sampling baseline (called by the machine when
    /// the profiler is attached, and again after a snapshot restore).
    pub fn seed(&mut self, now: CounterSample) {
        self.last = now;
    }

    // --- hot path (called by the machine at every retire) ---------------

    /// Records one retired instruction at `pc`, charging the miss-count
    /// deltas since the previous retire to it.
    #[inline]
    pub fn on_retire(&mut self, pc: u64, now: CounterSample) {
        let c = self.pcs.entry(pc).or_default();
        c.retired += 1;
        c.l1i_misses += now.l1i_misses.wrapping_sub(self.last.l1i_misses);
        c.l1d_misses += now.l1d_misses.wrapping_sub(self.last.l1d_misses);
        c.l2_misses += now.l2_misses.wrapping_sub(self.last.l2_misses);
        c.tag_misses += now.tag_misses.wrapping_sub(self.last.tag_misses);
        self.last = now;
        self.last_pc = Some(pc);
        self.total_retired += 1;
        self.pending += 1;
    }

    /// A call-shaped control transfer (`jal`/`jalr`/`cjalr`) retired
    /// with the given target: push a frame.
    pub fn on_call(&mut self, target: u64) {
        self.flush_pending();
        self.stack.push(self.symbols.lookup(target));
    }

    /// A return-shaped control transfer (`jr $ra`/`cjr`) retired: pop a
    /// frame. Returns past the profiling start are ignored.
    pub fn on_return(&mut self) {
        self.flush_pending();
        self.stack.pop();
    }

    /// A TLB refill exception was taken at `pc` (the faulting
    /// instruction; it has not retired).
    pub fn on_tlb_refill(&mut self, pc: u64) {
        self.pcs.entry(pc).or_default().tlb_refills += 1;
    }

    /// A capability exception was raised at `pc`.
    pub fn on_cap_exception(&mut self, pc: u64) {
        self.pcs.entry(pc).or_default().cap_exceptions += 1;
    }

    /// Charges the residual miss deltas (events after the last retire —
    /// e.g. kernel-side tag traffic) to the last retired PC, so the
    /// per-PC sums equal the global counters exactly at report time.
    pub fn sync(&mut self, now: CounterSample) {
        if let Some(pc) = self.last_pc {
            let c = self.pcs.entry(pc).or_default();
            c.l1i_misses += now.l1i_misses.wrapping_sub(self.last.l1i_misses);
            c.l1d_misses += now.l1d_misses.wrapping_sub(self.last.l1d_misses);
            c.l2_misses += now.l2_misses.wrapping_sub(self.last.l2_misses);
            c.tag_misses += now.tag_misses.wrapping_sub(self.last.tag_misses);
        }
        self.last = now;
    }

    fn flush_pending(&mut self) {
        if self.pending > 0 {
            *self.folded.entry(self.stack.clone()).or_insert(0) += self.pending;
            self.pending = 0;
        }
    }

    // --- timeline (called by the kernel) --------------------------------

    /// The kernel opened (`Ph::Begin`) or closed (`Ph::End`) guest span
    /// `kind id` at cycle `ts`.
    pub fn on_span(&mut self, ph: Ph, kind: SpanKind, id: u64, ts: u64) {
        self.timeline.push(ph, kind.as_str(), format!("{} {id}", kind.as_str()), ts, 0);
    }

    /// A syscall serviced at cycle `ts` costing `dur` cycles.
    pub fn on_syscall(&mut self, nr: u64, ts: u64, dur: u64) {
        self.timeline.push(Ph::Complete, "syscall", format!("syscall {nr}"), ts, dur);
    }

    /// An `exec` (address-space context switch) at cycle `ts`.
    pub fn on_exec(&mut self, pid: u64, ts: u64) {
        self.timeline.push(Ph::Instant, "os", format!("exec pid {pid}"), ts, 0);
    }

    // --- lifecycle ------------------------------------------------------

    /// Total instructions retired while profiling.
    #[must_use]
    pub fn total_retired(&self) -> u64 {
        self.total_retired
    }

    /// Discards all collected data and reseeds the delta baseline —
    /// called by `Machine::restore`, because profile state is host-side
    /// only and a restored machine starts a fresh observation window.
    pub fn reset(&mut self, seed: CounterSample) {
        self.pcs.clear();
        self.last = seed;
        self.last_pc = None;
        self.total_retired = 0;
        self.stack.clear();
        self.pending = 0;
        self.folded.clear();
        self.timeline.clear();
    }

    /// The raw per-PC table, sorted by PC (deterministic).
    #[must_use]
    pub fn pc_table(&self) -> Vec<(u64, PcCounters)> {
        let mut v: Vec<(u64, PcCounters)> = self.pcs.iter().map(|(k, c)| (*k, *c)).collect();
        v.sort_by_key(|(pc, _)| *pc);
        v
    }

    /// Finishes the profile: flushes the pending folded samples,
    /// aggregates PCs to functions, and renders stacks as names.
    #[must_use]
    pub fn into_report(mut self) -> ProfileReport {
        self.flush_pending();
        let mut total = PcCounters::default();
        let mut by_func: BTreeMap<String, PcCounters> = BTreeMap::new();
        for (pc, c) in &self.pcs {
            total.absorb(c);
            by_func
                .entry(self.symbols.name(self.symbols.lookup(*pc)).to_string())
                .or_default()
                .absorb(c);
        }
        let mut functions: Vec<FuncProfile> =
            by_func.into_iter().map(|(name, counters)| FuncProfile { name, counters }).collect();
        functions.sort_by(|a, b| {
            b.counters.retired.cmp(&a.counters.retired).then_with(|| a.name.cmp(&b.name))
        });
        let mut folded: Vec<(String, u64)> = self
            .folded
            .iter()
            .map(|(stack, count)| {
                let mut line = String::from("root");
                for &id in stack {
                    line.push(';');
                    line.push_str(self.symbols.name(id));
                }
                (line, *count)
            })
            .collect();
        // Distinct id stacks can fold to the same name string (recursion
        // through <unknown>): merge, then sort for determinism.
        folded.sort_by(|a, b| a.0.cmp(&b.0));
        folded.dedup_by(|b, a| {
            if a.0 == b.0 {
                a.1 += b.1;
                true
            } else {
                false
            }
        });
        ProfileReport { total, functions, folded, timeline: self.timeline }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(l1d: u64, tag: u64) -> CounterSample {
        CounterSample { l1i_misses: 0, l1d_misses: l1d, l2_misses: 0, tag_misses: tag }
    }

    fn symbols() -> SymbolTable {
        SymbolTable::new(vec![
            SymbolDef { name: "_start".into(), start: 0x1000, end: 0x2000 },
            SymbolDef { name: "main".into(), start: 0x2000, end: 0x3000 },
            SymbolDef { name: "leaf".into(), start: 0x3000, end: 0x3100 },
        ])
    }

    #[test]
    fn delta_sampling_sums_to_global_counters() {
        let mut p = Profiler::new();
        p.seed(sample(5, 2)); // pre-attach traffic is not attributed
        p.on_retire(0x1000, sample(5, 2));
        p.on_retire(0x1004, sample(8, 2)); // +3 L1D
        p.on_retire(0x1004, sample(8, 4)); // +2 tag
        p.sync(sample(9, 4)); // +1 L1D after the last retire
        let table = p.pc_table();
        let l1d: u64 = table.iter().map(|(_, c)| c.l1d_misses).sum();
        let tag: u64 = table.iter().map(|(_, c)| c.tag_misses).sum();
        assert_eq!(l1d, 9 - 5);
        assert_eq!(tag, 4 - 2);
        assert_eq!(p.total_retired(), 3);
        let retired: u64 = table.iter().map(|(_, c)| c.retired).sum();
        assert_eq!(retired, 3);
    }

    #[test]
    fn folded_samples_sum_to_total_retired() {
        let mut p = Profiler::new();
        p.set_symbols(symbols());
        let s = CounterSample::default();
        p.on_retire(0x1000, s); // in root
        p.on_retire(0x1004, s);
        p.on_call(0x2000); // -> main
        p.on_retire(0x2000, s);
        p.on_call(0x3000); // -> leaf
        p.on_retire(0x3000, s);
        p.on_retire(0x3004, s);
        p.on_return(); // <- leaf
        p.on_retire(0x2004, s);
        p.on_return(); // <- main
        p.on_retire(0x1008, s);
        let report = p.into_report();
        let total: u64 = report.folded.iter().map(|(_, n)| n).sum();
        assert_eq!(total, report.total.retired);
        assert_eq!(total, 7);
        let lines = report.folded_output();
        assert!(lines.contains("root;main;leaf 2\n"), "folded output:\n{lines}");
        assert!(lines.contains("root;main 2\n"), "folded output:\n{lines}");
        assert!(lines.contains("root 3\n"), "folded output:\n{lines}");
    }

    #[test]
    fn unbalanced_returns_are_ignored() {
        let mut p = Profiler::new();
        let s = CounterSample::default();
        p.on_retire(0x1000, s);
        p.on_return(); // no matching call: root frame persists
        p.on_retire(0x1004, s);
        let report = p.into_report();
        let total: u64 = report.folded.iter().map(|(_, n)| n).sum();
        assert_eq!(total, 2);
    }

    #[test]
    fn function_aggregation_covers_every_pc() {
        let mut p = Profiler::new();
        p.set_symbols(symbols());
        let s = CounterSample::default();
        p.on_retire(0x2000, s);
        p.on_retire(0x2ffc, s);
        p.on_retire(0x9000, s); // unsymbolized
        p.on_tlb_refill(0x2000);
        p.on_cap_exception(0x9000);
        let report = p.into_report();
        let main = report.functions.iter().find(|f| f.name == "main").expect("main profiled");
        assert_eq!(main.counters.retired, 2);
        assert_eq!(main.counters.tlb_refills, 1);
        let unk = report.functions.iter().find(|f| f.name == "<unknown>").expect("unknown bucket");
        assert_eq!(unk.counters.retired, 1);
        assert_eq!(unk.counters.cap_exceptions, 1);
        let retired: u64 = report.functions.iter().map(|f| f.counters.retired).sum();
        assert_eq!(retired, report.total.retired);
    }

    #[test]
    fn reset_discards_everything_and_reseeds() {
        let mut p = Profiler::new();
        p.on_retire(0x1000, sample(3, 1));
        p.on_span(Ph::Begin, SpanKind::Phase, 1, 100);
        p.reset(sample(10, 7));
        assert_eq!(p.total_retired(), 0);
        assert!(p.pc_table().is_empty());
        p.on_retire(0x1000, sample(11, 7)); // +1 L1D since the reseed
        let table = p.pc_table();
        assert_eq!(table[0].1.l1d_misses, 1);
        let report = p.into_report();
        assert!(report.timeline.events().is_empty());
    }

    #[test]
    fn spans_are_recorded_as_handed_over() {
        let mut p = Profiler::new();
        p.on_exec(1, 0);
        p.on_span(Ph::Begin, SpanKind::Phase, 1, 10);
        p.on_syscall(3, 12, 120);
        p.on_span(Ph::Begin, SpanKind::Domain, 0, 600);
        p.on_span(Ph::End, SpanKind::Domain, 0, 700);
        p.on_span(Ph::End, SpanKind::Phase, 1, 900);
        let report = p.into_report();
        let rows: Vec<(Ph, &str, &str)> =
            report.timeline.events().iter().map(|e| (e.ph, e.cat, e.name.as_str())).collect();
        assert_eq!(
            rows,
            [
                (Ph::Instant, "os", "exec pid 1"),
                (Ph::Begin, "phase", "phase 1"),
                (Ph::Complete, "syscall", "syscall 3"),
                (Ph::Begin, "domain", "domain 0"),
                (Ph::End, "domain", "domain 0"),
                (Ph::End, "phase", "phase 1"),
            ]
        );
    }
}
