//! Golden oracle for the workload profiler. `tests/data/profile_golden.json`
//! pins one digest of the serialized `WorkloadProfile` of each of the 23
//! Table-1 kernels at `Scale::Small` and of its clone at seed 24301 (each
//! kernel's synthesis seed derived as the `clone-suite` benchmark derives
//! it). It was recorded by the ignored `regenerate_fixture` test on the
//! hash-map collector, before profile collection became table-driven, so
//! every later collector is checked against a fixed reference rather than
//! against the build just before it.
//!
//! Regenerate (only when a profile change is intended):
//! `cargo test --release --test profile_golden -- --ignored regenerate_fixture`

use perfclone_kernels::{catalog, Scale};
use perfclone_repro::prelude::*;
use rayon::prelude::*;
use serde::Deserialize;

const SEED: u64 = 24301;
const FIXTURE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/data/profile_golden.json");

#[derive(Deserialize)]
struct Golden {
    seed: u64,
    profiles: Vec<Entry>,
}

#[derive(Deserialize)]
struct Entry {
    kernel: String,
    source: String,
    clone: String,
}

/// FNV-1a over the profile's JSON serialization, as 16 hex digits.
fn digest(profile: &WorkloadProfile) -> String {
    let json = serde_json::to_string(profile).expect("profile serializes");
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in json.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// `(kernel, source digest, clone digest)` for every catalog kernel, in
/// catalog order.
fn compute() -> Vec<(String, String, String)> {
    let kernels: Vec<_> = catalog().iter().collect();
    kernels
        .par_iter()
        .map(|k| {
            let program = k.build(Scale::Small).program;
            let params =
                SynthesisParams { seed: derive_cell_seed(SEED, k.name(), 0), ..Default::default() };
            let outcome = Cloner::with_params(params)
                .clone_program(&program, u64::MAX)
                .unwrap_or_else(|e| panic!("{}: clone: {e}", k.name()));
            let clone = profile_program(&outcome.clone, u64::MAX)
                .unwrap_or_else(|e| panic!("{}: clone profile: {e}", k.name()));
            (k.name().to_string(), digest(&outcome.profile), digest(&clone))
        })
        .collect()
}

#[test]
fn profiles_match_the_golden_fixture() {
    let text = std::fs::read_to_string(FIXTURE).expect("fixture present");
    let golden: Golden = serde_json::from_str(&text).expect("fixture parses");
    assert_eq!(golden.seed, SEED);
    let computed = compute();
    assert_eq!(golden.profiles.len(), computed.len(), "fixture kernel count");
    for (want, (kernel, source, clone)) in golden.profiles.iter().zip(&computed) {
        assert_eq!(&want.kernel, kernel, "fixture kernel order");
        assert_eq!(&want.source, source, "{kernel}: source profile");
        assert_eq!(&want.clone, clone, "{kernel}: clone profile");
    }
}

/// Rewrites the fixture from the current build. Run it only on a commit
/// whose profiles are meant to become the new reference.
#[test]
#[ignore = "rewrites tests/data/profile_golden.json from the current build"]
fn regenerate_fixture() {
    let rows: Vec<String> = compute()
        .iter()
        .map(|(kernel, source, clone)| {
            format!("{{\"kernel\":\"{kernel}\",\"source\":\"{source}\",\"clone\":\"{clone}\"}}")
        })
        .collect();
    let text = format!(
        "{{\"scale\":\"small\",\"seed\":{SEED},\n\"profiles\":[\n{}\n]}}\n",
        rows.join(",\n")
    );
    std::fs::create_dir_all(concat!(env!("CARGO_MANIFEST_DIR"), "/tests/data")).expect("mkdir");
    std::fs::write(FIXTURE, text).expect("write fixture");
}
