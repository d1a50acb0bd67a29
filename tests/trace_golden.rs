//! Golden oracle for trace capture. `tests/data/trace_golden.json` pins,
//! for each of the 23 Table-1 kernels at `Scale::Small` and for its clone
//! at seed 24301 (each kernel's synthesis seed derived as the
//! `clone-suite` benchmark derives it), one digest of the packed-trace
//! encoding captured through the shared `WorkloadCache`, plus the
//! capture's length, halt flag and fault. The digest covers the encoding
//! byte for byte: it hashes the trace in its spill-file form, which is
//! what a spilled capture already is and what an in-memory one writes
//! through `PackedTrace::spill_to`. It was recorded by the ignored
//! `regenerate_fixture` test before the interpreter and the recorders
//! were inlined into their callers, so every later build is checked
//! against a fixed reference rather than against the build just before
//! it.
//!
//! Regenerate (only when a trace change is intended):
//! `cargo test --release --test trace_golden -- --ignored regenerate_fixture`

use perfclone_isa::Program;
use perfclone_kernels::{catalog, Scale};
use perfclone_repro::prelude::*;
use perfclone_sim::TraceStore;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

const SEED: u64 = 24301;
const FIXTURE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/data/trace_golden.json");

#[derive(Deserialize)]
struct Golden {
    seed: u64,
    traces: Vec<Entry>,
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Entry {
    kernel: String,
    source: Capture,
    clone: Capture,
}

/// One program's captured trace, summarized.
#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Capture {
    /// FNV-1a over the spill-file bytes of the encoding, as 16 hex digits.
    digest: String,
    len: u64,
    halted: bool,
    fault: Option<String>,
}

fn fnv1a(bytes: &[u8]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// Captures `program` through the shared cache (the path sweeps and the
/// benchmark take) and summarizes the capture.
fn capture(tag: &str, program: &Program) -> Capture {
    let cache = WorkloadCache::new();
    let store = cache
        .packed_trace_capped(tag, program, u64::MAX, DEFAULT_TRACE_CAP)
        .unwrap_or_else(|e| panic!("{tag}: capture: {e}"));
    let bytes = match &*store {
        TraceStore::Mem(packed) => {
            let path = std::env::temp_dir()
                .join(format!("perfclone-trace-golden-{}-{tag}.spill", std::process::id()));
            packed.spill_to(&path).unwrap_or_else(|e| panic!("{tag}: spill: {e}"));
            let bytes = std::fs::read(&path).expect("read spill file");
            let _ = std::fs::remove_file(&path);
            bytes
        }
        TraceStore::Spilled(spilled) => std::fs::read(spilled.path()).expect("read spill file"),
    };
    Capture {
        digest: fnv1a(&bytes),
        len: store.len(),
        halted: store.halted(),
        fault: store.fault().map(ToString::to_string),
    }
}

/// One entry per catalog kernel, in catalog order.
fn compute() -> Vec<Entry> {
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
            Entry {
                kernel: k.name().to_string(),
                source: capture(&format!("{}-source", k.name()), &program),
                clone: capture(&format!("{}-clone", k.name()), &outcome.clone),
            }
        })
        .collect()
}

#[test]
fn traces_match_the_golden_fixture() {
    let text = std::fs::read_to_string(FIXTURE).expect("fixture present");
    let golden: Golden = serde_json::from_str(&text).expect("fixture parses");
    assert_eq!(golden.seed, SEED);
    let computed = compute();
    assert_eq!(golden.traces.len(), computed.len(), "fixture kernel count");
    for (want, got) in golden.traces.iter().zip(&computed) {
        assert_eq!(want, got, "{}: captured trace", got.kernel);
    }
}

/// Rewrites the fixture from the current build. Run it only on a commit
/// whose traces are meant to become the new reference.
#[test]
#[ignore = "rewrites tests/data/trace_golden.json from the current build"]
fn regenerate_fixture() {
    let rows: Vec<String> =
        compute().iter().map(|e| serde_json::to_string(e).expect("entry serializes")).collect();
    let text = format!(
        "{{\"scale\":\"small\",\"seed\":{SEED},\n\"traces\":[\n{}\n]}}\n",
        rows.join(",\n")
    );
    std::fs::create_dir_all(concat!(env!("CARGO_MANIFEST_DIR"), "/tests/data")).expect("mkdir");
    std::fs::write(FIXTURE, text).expect("write fixture");
}
