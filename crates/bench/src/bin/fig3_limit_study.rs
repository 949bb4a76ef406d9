//! Figure 3 reproduction: the trace-driven limit study.
//!
//! Records pointer-event traces of the native workloads — the seven
//! Olden kernels plus the `cheri-work` runtime-system pair (`vmloop`,
//! `allocstress`) — evaluates all eight protection models over each,
//! and prints the five overhead panels (pages, bytes, references,
//! optimistic and pessimistic instructions) normalised to the
//! unprotected baseline.

use cheri_bench::Exhibit;
use cheri_limit::run_study;
use cheri_sweep::run_indexed;
use cheri_work::native::WORKLOADS;

fn main() {
    let Exhibit { profile, jobs } =
        Exhibit::from_args("fig3_limit_study", "fig3_limit_study [--scaled|--paper] [--jobs N]");
    let params = profile.params();
    eprintln!("recording traces ({} profile sizes)...", profile.name());
    // Record the native workload traces in parallel on the sweep
    // engine; `run_indexed` returns them in workload order, so the
    // study's inputs are identical at any `--jobs` count.
    let traces = run_indexed(WORKLOADS.len(), jobs, |i| WORKLOADS[i].1(&params).trace);
    for t in &traces {
        eprintln!("  {:<10} {:>9} events, {:>7} objects", t.name, t.events.len(), t.objects.len());
    }
    let result = run_study(&traces);
    print!("{}", result.render());

    println!("\n== Figure 3 headline comparisons (paper prose vs measured) ==");
    let get = |m: &str| result.mean_for(m).expect("model present");
    let checks: [(&str, bool); 6] = [
        (
            "iMPX table walk needs the most memory traffic",
            [
                "Mondrian",
                "MPX (FP)",
                "Software FP",
                "Hardbound",
                "M-Machine",
                "CHERI",
                "128b CHERI",
            ]
            .iter()
            .all(|m| get("MPX").bytes >= get(m).bytes),
        ),
        ("Mondrian uses the least memory traffic", {
            ["MPX", "MPX (FP)", "Software FP", "CHERI", "128b CHERI"]
                .iter()
                .all(|m| get("Mondrian").bytes <= get(m).bytes)
        }),
        (
            "CHERI/Hardbound/M-Machine do well on references",
            ["CHERI", "Hardbound", "M-Machine"]
                .iter()
                .all(|g| get(g).refs < get("MPX").refs && get(g).refs < get("Software FP").refs),
        ),
        (
            "M-Machine pays in pages (pow2 padding) despite zero traffic",
            get("M-Machine").pages > 3.0 && get("M-Machine").bytes.abs() < 1.0,
        ),
        (
            "128b CHERI is competitive on memory I/O",
            get("128b CHERI").bytes < get("MPX (FP)").bytes
                && get("128b CHERI").bytes < get("Software FP").bytes,
        ),
        (
            "explicit checks (iMPX/soft FP) cost the most instructions",
            get("Software FP").instrs_pess > get("CHERI").instrs_pess
                && get("MPX").instrs_pess > get("CHERI").instrs_pess,
        ),
    ];
    let mut all_ok = true;
    for (claim, ok) in checks {
        println!("  [{}] {claim}", if ok { "ok" } else { "MISMATCH" });
        all_ok &= ok;
    }
    assert!(all_ok, "a Figure 3 qualitative claim did not reproduce");
}
