//! Result-cache key stability: the cache and the snapshot pool are keyed
//! by the job's `JobSpec`, which must be a function of the configuration
//! only — never of wire formatting — and must differ whenever any field
//! of the configuration differs.

use cheri_olden::OldenParams;
use cheri_serve::protocol::decode_request;
use cheri_serve::Request;
use cheri_snap::Snapshot;
use cheri_sweep::{run_job, JobSpec, Mode};

/// The same job spelled with different field order and whitespace must
/// decode to the same spec — identity is decided by the resolved
/// configuration, not the request bytes.
#[test]
fn wire_layout_does_not_change_the_key() {
    let a = "{\"type\":\"job\",\"workload\":\"treeadd\",\"strategy\":\"cheri\",\"tag_kb\":8}";
    let b = "  { \"tag_kb\" : 8 ,\n \"strategy\" : \"cheri\" , \"workload\" : \"treeadd\" , \
             \"type\" : \"job\" }  ";
    let spec_of = |line: &str| -> JobSpec {
        match decode_request(line).unwrap() {
            Request::Job { parts, .. } => parts.spec().unwrap(),
            other => panic!("expected a job request, got {other:?}"),
        }
    };
    assert_eq!(spec_of(a), spec_of(b));
}

/// Aliases resolve to the same strategy, hence the same spec.
#[test]
fn strategy_aliases_share_a_key() {
    let params = OldenParams::scaled();
    let a = JobSpec::from_parts("treeadd", "cheri", 8, params).unwrap();
    let b = JobSpec::from_parts("treeadd", "cap", 8, params).unwrap();
    assert_eq!(a, b);
}

/// Any single configuration change must produce a different spec: a
/// shared key would serve one experiment's numbers as another's.
#[test]
fn every_config_field_changes_the_key() {
    let params = OldenParams::scaled();
    let base = JobSpec::from_parts("treeadd", "cheri", 8, params).unwrap();

    let variants = [
        JobSpec::from_parts("mst", "cheri", 8, params).unwrap(),
        JobSpec::from_parts("treeadd", "mips", 8, params).unwrap(),
        JobSpec::from_parts("treeadd", "cheri128", 8, params).unwrap(),
        JobSpec::from_parts("treeadd", "cheri", 16, params).unwrap(),
        JobSpec::from_parts("treeadd", "cheri", 8, OldenParams::medium()).unwrap(),
        JobSpec { variant: Some(14), ..base },
    ];
    for v in &variants {
        assert_ne!(*v, base, "distinct config must give a distinct key");
    }
}

/// A snapshot must hash identically after a serialization round-trip:
/// the decoder is the encoder's oracle, here on a real phase-2 state.
#[test]
fn restored_snapshot_hashes_like_the_original() {
    let params = OldenParams::scaled();
    let spec = JobSpec::from_parts("treeadd", "mips", 8, params).unwrap();
    let run = run_job(&spec, spec.machine_config(), Mode::BootOnly, None);
    let snap = run.unwrap().snapshot.expect("treeadd reaches the phase-2 boundary");
    let restored = Snapshot::from_json(&snap.to_json()).unwrap();
    assert_eq!(restored.state_hash(), snap.state_hash());
}
