//! Result-cache key stability: the cache key must be a function of the
//! job's *configuration* and the *state* it runs from — never of wire
//! formatting — and must change whenever either input changes.

use cheri_olden::OldenParams;
use cheri_serve::cache::{cache_key, NO_SNAPSHOT};
use cheri_serve::protocol::decode_request;
use cheri_serve::Request;
use cheri_snap::{Snapshot, StateHash};
use cheri_sweep::{run_job, JobSpec, Mode};

/// The same job spelled with different field order and whitespace must
/// decode to the same spec and therefore the same cache key — identity
/// is decided by the canonical serialization, not the request bytes.
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
    let (sa, sb) = (spec_of(a), spec_of(b));
    assert_eq!(sa.canonical_json(), sb.canonical_json());
    let snap = StateHash(0xdead_beef);
    assert_eq!(cache_key(&sa, snap), cache_key(&sb, snap));
}

/// Aliases resolve to the same strategy, hence the same key.
#[test]
fn strategy_aliases_share_a_key() {
    let params = OldenParams::scaled();
    let a = JobSpec::from_parts("treeadd", "cheri", 8, params).unwrap();
    let b = JobSpec::from_parts("treeadd", "cap", 8, params).unwrap();
    assert_eq!(cache_key(&a, NO_SNAPSHOT), cache_key(&b, NO_SNAPSHOT));
}

/// Any single configuration change must produce a different key: a
/// collision here would serve one experiment's numbers as another's.
#[test]
fn every_config_field_changes_the_key() {
    let params = OldenParams::scaled();
    let base = JobSpec::from_parts("treeadd", "cheri", 8, params).unwrap();
    let base_key = cache_key(&base, NO_SNAPSHOT);

    let variants = [
        JobSpec::from_parts("mst", "cheri", 8, params).unwrap(),
        JobSpec::from_parts("treeadd", "mips", 8, params).unwrap(),
        JobSpec::from_parts("treeadd", "cheri128", 8, params).unwrap(),
        JobSpec::from_parts("treeadd", "cheri", 16, params).unwrap(),
        JobSpec::from_parts("treeadd", "cheri", 8, OldenParams::medium()).unwrap(),
    ];
    for v in &variants {
        assert_ne!(
            cache_key(v, NO_SNAPSHOT),
            base_key,
            "distinct config must give a distinct key: {}",
            v.canonical_json()
        );
    }

    // The starting state is part of the key too: the same config warm
    // vs from a different snapshot must not collide.
    assert_ne!(cache_key(&base, StateHash(1)), base_key);
    assert_ne!(cache_key(&base, StateHash(1)), cache_key(&base, StateHash(2)));
}

/// A snapshot must hash identically after a serialization round-trip:
/// the pool hashes at insertion, and `snapreplay` hashes what it loads —
/// if the two disagreed, every cache key would dangle.
#[test]
fn restored_snapshot_hashes_like_the_original() {
    let params = OldenParams::scaled();
    let spec = JobSpec::from_parts("treeadd", "mips", 8, params).unwrap();
    let run = run_job(&spec, spec.machine_config(), Mode::BootOnly, None, &mut |_, _| {});
    let snap = run.unwrap().snapshot.expect("treeadd reaches the phase-2 boundary");
    let original = snap.state_hash();
    let restored = Snapshot::from_json(&snap.to_json()).unwrap();
    assert_eq!(restored.state_hash(), original);
    // And the hash feeds a different key than the no-snapshot case.
    assert_ne!(cache_key(&spec, original), cache_key(&spec, NO_SNAPSHOT));
}
