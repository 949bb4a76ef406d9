//! Tracing must be observation-only and lossless.
//!
//! Observation-only: attaching a sink must not perturb the simulated
//! machine. A treeadd run with no sink and with a live JSONL sink must
//! reach bit-identical architectural end-states — same registers, same
//! cycle count, same physical memory image.
//!
//! Lossless: the simulator's own counters (`RunOutcome::metrics`) are
//! the one aggregate, and the event stream must be complete. Counting a
//! JSONL stream's lines by event kind must reproduce every counter an
//! event mirrors, exactly.

use cheri_olden::dsl::{compile_bench, machine_config, DslBench};
use cheri_olden::OldenParams;
use cheri_os::{boot, KernelConfig, RunOutcome};
use cheri_sweep::StrategyKind;
use cheri_trace::{names, shared, JsonlSink, SharedSink};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io;
use std::rc::Rc;

/// Every counter the event stream mirrors.
const PARITY: &[&str] = &[
    names::INSTRUCTIONS,
    names::CAP_INSTRUCTIONS,
    names::L1I_HITS,
    names::L1I_MISSES,
    names::L1I_WRITEBACKS,
    names::L1D_HITS,
    names::L1D_MISSES,
    names::L1D_WRITEBACKS,
    names::L2_HITS,
    names::L2_MISSES,
    names::L2_WRITEBACKS,
    names::TLB_REFILLS,
    names::TAG_TABLE_READS,
    names::TAG_TABLE_WRITES,
    names::TAG_CACHE_HITS,
    names::TAG_CACHE_MISSES,
    names::TAG_CACHE_WRITEBACKS,
    names::LOADS,
    names::STORES,
    names::CAP_EXCEPTIONS,
    names::SYSCALLS,
    names::CONTEXT_SWITCHES,
    names::DOMAIN_CALLS,
    names::DOMAIN_RETURNS,
];

/// The writer under a `JsonlSink`: splits the stream into lines and
/// counts each line under the counter its event mirrors.
#[derive(Clone, Default)]
struct LineCounter {
    counts: Rc<RefCell<BTreeMap<&'static str, u64>>>,
    partial: Vec<u8>,
}

impl LineCounter {
    fn count_line(&self, line: &str) {
        let has = |field: &str| line.contains(field);
        let mut counts = self.counts.borrow_mut();
        let mut add = |name: &'static str| *counts.entry(name).or_insert(0) += 1;
        let kind = line
            .strip_prefix(r#"{"ev":""#)
            .and_then(|rest| rest.split('"').next())
            .unwrap_or_else(|| panic!("not an event line: {line}"));
        match kind {
            "retire" => {
                add(names::INSTRUCTIONS);
                if has(r#""cap":true"#) {
                    add(names::CAP_INSTRUCTIONS);
                }
            }
            "cache" => {
                let (hits, misses, writebacks) = if has(r#""level":"l1i""#) {
                    (names::L1I_HITS, names::L1I_MISSES, names::L1I_WRITEBACKS)
                } else if has(r#""level":"l1d""#) {
                    (names::L1D_HITS, names::L1D_MISSES, names::L1D_WRITEBACKS)
                } else {
                    assert!(has(r#""level":"l2""#), "unknown cache level: {line}");
                    (names::L2_HITS, names::L2_MISSES, names::L2_WRITEBACKS)
                };
                add(if has(r#""hit":true"#) { hits } else { misses });
                if has(r#""wb":true"#) {
                    add(writebacks);
                }
            }
            "data" => add(if has(r#""write":true"#) { names::STORES } else { names::LOADS }),
            "tlb_refill" => add(names::TLB_REFILLS),
            "tag_read" => add(names::TAG_TABLE_READS),
            "tag_write" => add(names::TAG_TABLE_WRITES),
            "tag_cache" => {
                add(if has(r#""hit":true"#) {
                    names::TAG_CACHE_HITS
                } else {
                    names::TAG_CACHE_MISSES
                });
                if has(r#""wb":true"#) {
                    add(names::TAG_CACHE_WRITEBACKS);
                }
            }
            "cap_exc" => add(names::CAP_EXCEPTIONS),
            "syscall" => add(names::SYSCALLS),
            "ctx_switch" => add(names::CONTEXT_SWITCHES),
            "domain" => {
                add(if has(r#""enter":true"#) {
                    names::DOMAIN_CALLS
                } else {
                    names::DOMAIN_RETURNS
                });
            }
            // Spans are timeline structure and mirror no counter.
            "span_begin" | "span_end" => {}
            other => panic!("unknown event kind {other:?}"),
        }
    }
}

impl io::Write for LineCounter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.partial.extend_from_slice(buf);
        let mut start = 0;
        while let Some(len) = self.partial[start..].iter().position(|&b| b == b'\n') {
            let line = &self.partial[start..start + len];
            self.count_line(std::str::from_utf8(line).expect("JSONL is UTF-8"));
            start += len + 1;
        }
        self.partial.drain(..start);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// FNV-1a over the whole physical memory image.
fn mem_digest(machine: &beri_sim::Machine) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut buf = [0u8; 4096];
    let mut addr = 0u64;
    while addr < machine.mem.size() {
        machine.mem.read_bytes(addr, &mut buf).unwrap();
        for b in buf {
            hash = (hash ^ u64::from(b)).wrapping_mul(0x1000_0000_01b3);
        }
        addr += buf.len() as u64;
    }
    hash
}

/// End-state of one instrumented (or not) treeadd run.
struct EndState {
    outcome: RunOutcome,
    gpr: [u64; 32],
    digest: u64,
}

fn run_treeadd(strategy: StrategyKind, sink: Option<SharedSink>) -> EndState {
    let bench = DslBench::Treeadd;
    let params = OldenParams::scaled();
    let strategy = strategy.strategy();
    let program = compile_bench(bench, &params, strategy.as_ref()).unwrap();
    let machine = machine_config(bench, &params, strategy.as_ref());
    let user_top = (machine.mem_bytes as u64).max(16 << 20) + (16 << 20);
    let layout = cheri_os::ProcessLayout {
        stack_top: user_top - 4096,
        user_top,
        ..cheri_os::ProcessLayout::default()
    };
    let mut kernel = boot(KernelConfig { machine, layout, ..KernelConfig::default() });
    kernel.set_trace_sink(sink);
    let outcome = kernel.exec_and_run(&program).unwrap();
    EndState { outcome, gpr: kernel.machine().cpu.gpr, digest: mem_digest(kernel.machine()) }
}

/// Runs treeadd with a counting JSONL sink attached and asserts that
/// the stream's line counts equal the counters.
fn run_counted(strategy: StrategyKind) -> EndState {
    let counter = LineCounter::default();
    let sink = shared(JsonlSink::new(Box::new(counter.clone())));
    let state = run_treeadd(strategy, Some(sink));
    let counts = counter.counts.borrow();
    for name in PARITY {
        assert_eq!(
            counts.get(name).copied().unwrap_or(0),
            state.outcome.metrics.counter(name),
            "{}: the event stream disagrees with the counters on {name}",
            strategy.name()
        );
    }
    assert!(counts[names::INSTRUCTIONS] > 0);
    state
}

#[test]
fn sinks_do_not_perturb_the_machine() {
    let bare = run_treeadd(StrategyKind::Cheri256, None);
    let live = run_counted(StrategyKind::Cheri256);

    assert_eq!(bare.outcome.exit, live.outcome.exit);
    assert_eq!(bare.outcome.stats.cycles, live.outcome.stats.cycles);
    assert_eq!(bare.outcome.stats.instructions, live.outcome.stats.instructions);
    assert_eq!(bare.outcome.prints, live.outcome.prints);
    assert_eq!(bare.gpr, live.gpr);
    assert_eq!(bare.digest, live.digest, "physical memory images diverged");
}

#[test]
fn the_event_stream_reproduces_the_counters_without_capabilities() {
    run_counted(StrategyKind::Ccured);
}
