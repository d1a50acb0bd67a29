//! Trace capture against its record-at-a-time oracle. The oracle feeds
//! `Simulator::trace` into a `PackedRecorder` and decides the storage
//! class from the recorder's `packed_bytes()` after every record: a
//! capture spills exactly when some prefix outgrows the byte cap. The
//! capture path sweeps and the benchmark take (`WorkloadCache::
//! packed_trace_capped`, over a `SpillingRecorder`) must match it byte
//! for byte — the same `PackedTrace` when it stays in memory, the same
//! spill file when it spills, and the same Mem-or-Spilled decision, taken
//! at the same record. Inputs are random `ProgramBuilder` programs with
//! forward branches, jumps, base-register and stream memory traffic
//! (streams of length 1 and negative strides included), programs that
//! run off their end into `PcOutOfRange`, truncating limits, and caps set
//! to spill at exactly a chosen record.

use std::sync::atomic::{AtomicU64, Ordering};

use perfclone::WorkloadCache;
use perfclone_isa::{MemWidth, Program, ProgramBuilder, Reg, StreamDesc};
use perfclone_sim::{PackedRecorder, PackedTrace, Simulator, SpillingRecorder, TraceStore};
use proptest::prelude::*;

/// A straight-line program with forward control flow from a random opcode
/// stream; without `halt` it runs off its end and faults.
fn random_program(ops: &[u8], stride: i64, halt: bool) -> Program {
    let mut b = ProgramBuilder::new("capture-eq");
    let r = Reg::new;
    let buf = b.alloc(512);
    let single = b.stream(StreamDesc { base: 0x20_0000, stride, length: 1 });
    let walk = b.stream(StreamDesc { base: 0x30_0000, stride, length: 37 });
    b.li(r(5), (buf + 256) as i64);
    b.li(r(7), 0x9e37_79b9);
    for (i, op) in ops.iter().enumerate() {
        match op % 10 {
            0 => b.addi(r(3), r(3), 1),
            1 => b.mul(r(4), r(4), r(3)),
            2 => b.ld_stream(r(6), single, MemWidth::B8),
            3 => b.ld_stream(r(6), walk, MemWidth::B4),
            4 => b.sd_stream(r(3), walk, MemWidth::B1),
            5 => b.sd(r(3), r(5), (i % 16) as i32 * 8 - 64),
            6 => b.lw(r(9), r(5), -((i % 7) as i32) * 4),
            7 => {
                b.srli(r(8), r(7), 13);
                b.xor(r(7), r(7), r(8));
            }
            8 => {
                let skip = b.label();
                b.andi(r(8), r(7), 1);
                b.bnez(r(8), skip);
                b.nop();
                b.nop();
                b.bind(skip);
            }
            _ => {
                let over = b.label();
                b.j(over);
                b.nop();
                b.bind(over);
            }
        }
    }
    if halt {
        b.halt();
    }
    b.build()
}

/// The oracle's trace plus `packed_bytes()` after each record.
fn oracle(program: &Program, limit: u64) -> (PackedTrace, Vec<usize>) {
    let mut rec = PackedRecorder::new();
    let mut bytes = Vec::new();
    let mut trace = Simulator::trace(program, limit);
    for d in &mut trace {
        rec.push(&d);
        bytes.push(rec.packed_bytes());
    }
    let fault = trace.fault().cloned();
    let halted = trace.into_inner().is_halted();
    (rec.finish(program, halted, fault), bytes)
}

/// A cap whose first overflow is at the first record at or after `k`
/// that grows the encoding; `None` when no such record exists.
fn cap_spilling_at(bytes: &[usize], k: usize) -> Option<usize> {
    let empty = PackedRecorder::new().packed_bytes();
    (k..bytes.len())
        .find(|&i| bytes[i] > if i == 0 { empty } else { bytes[i - 1] })
        .map(|i| bytes[i] - 1)
}

/// A file name unique within this test process.
fn unique(tag: &str) -> String {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    format!("perfclone-capture-eq-{}-{tag}-{seq}", std::process::id())
}

/// The trace's encoding in spill-file form.
fn spill_bytes(packed: &PackedTrace, tag: &str) -> Vec<u8> {
    let path = std::env::temp_dir().join(unique(&format!("{tag}.spill")));
    packed.spill_to(&path).expect("spill to disk");
    let bytes = std::fs::read(&path).expect("read spill file");
    let _ = std::fs::remove_file(&path);
    bytes
}

fn store_bytes(store: &TraceStore, tag: &str) -> Vec<u8> {
    match store {
        TraceStore::Mem(packed) => spill_bytes(packed, tag),
        TraceStore::Spilled(spilled) => std::fs::read(spilled.path()).expect("read spill file"),
    }
}

/// Checks the shared cache's capture of `program` under `cap` against the
/// oracle.
fn check_cached(program: &Program, limit: u64, cap: usize, tag: &str) -> Result<(), TestCaseError> {
    let (want, bytes) = oracle(program, limit);
    let store = WorkloadCache::new()
        .packed_trace_capped("capture-eq", program, limit, cap)
        .map_err(|e| TestCaseError::fail(format!("capture failed: {e}")))?;
    prop_assert_eq!(store.is_spilled(), bytes.iter().any(|&b| b > cap), "storage class");
    prop_assert_eq!(store.len(), want.len());
    prop_assert_eq!(store.halted(), want.halted());
    prop_assert_eq!(store.fault(), want.fault());
    if let TraceStore::Mem(packed) = &*store {
        prop_assert_eq!(packed, &want);
    }
    let (got, oracle_file) = (store_bytes(&store, tag), spill_bytes(&want, "oracle"));
    prop_assert!(got == oracle_file, "spill-file bytes differ");
    Ok(())
}

/// Feeds `program`'s stream to a `SpillingRecorder` and the oracle's
/// recorder in lockstep: the spill decision must flip at the same record,
/// and the sealed result must be the oracle's encoding.
fn check_lockstep(program: &Program, limit: u64, cap: usize) -> Result<(), TestCaseError> {
    let (want, _) = oracle(program, limit);
    let stem = unique("lockstep");
    let mut spilling = SpillingRecorder::new(cap, &std::env::temp_dir(), &stem);
    let mut packed = PackedRecorder::new();
    let mut over = false;
    let mut trace = Simulator::trace(program, limit);
    for (i, d) in (&mut trace).enumerate() {
        spilling.push(&d).map_err(|e| TestCaseError::fail(format!("spill failed: {e}")))?;
        packed.push(&d);
        over |= packed.packed_bytes() > cap;
        prop_assert_eq!(spilling.spilled(), over, "spill decision at record {}", i);
    }
    let fault = trace.fault().cloned();
    let halted = trace.into_inner().is_halted();
    let store = spilling
        .finish(program, halted, fault)
        .map_err(|e| TestCaseError::fail(format!("seal failed: {e}")))?;
    prop_assert_eq!(store.is_spilled(), over);
    let (got, oracle_file) = (store_bytes(&store, "lockstep"), spill_bytes(&want, "oracle"));
    prop_assert!(got == oracle_file, "spill-file bytes differ");
    Ok(())
}

fn stride() -> impl Strategy<Value = i64> {
    prop_oneof![-64i64..0, Just(-1i64), Just(i64::MIN), 0i64..64]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Under a cap chosen to spill at a random record, never, at once, or
    /// not quite: a cap equal to the whole encoding keeps it in memory.
    #[test]
    fn cached_capture_matches_the_oracle(
        ops in proptest::collection::vec(any::<u8>(), 1..120),
        stride in stride(),
        halt in any::<bool>(),
        limit in prop_oneof![Just(u64::MAX), 1u64..300],
        k in any::<usize>(),
        kind in 0u8..5,
    ) {
        let p = random_program(&ops, stride, halt);
        let (_, bytes) = oracle(&p, limit);
        let cap = match kind {
            0 => usize::MAX,
            1 => 0,
            2 => bytes.last().copied().unwrap_or(0),
            _ => cap_spilling_at(&bytes, k % bytes.len().max(1)).unwrap_or(usize::MAX),
        };
        check_cached(&p, limit, cap, "cached")?;
    }

    /// The recorder's spill decision flips at exactly the oracle's record.
    #[test]
    fn spilling_recorder_spills_at_the_oracle_record(
        ops in proptest::collection::vec(any::<u8>(), 1..120),
        stride in stride(),
        halt in any::<bool>(),
        limit in prop_oneof![Just(u64::MAX), 1u64..300],
        k in any::<usize>(),
    ) {
        let p = random_program(&ops, stride, halt);
        let (_, bytes) = oracle(&p, limit);
        let cap = cap_spilling_at(&bytes, k % bytes.len().max(1)).unwrap_or(usize::MAX);
        check_lockstep(&p, limit, cap)?;
    }
}

/// A one-record stream — the smallest capture — in either storage class,
/// through a length-1 stream with a negative stride.
#[test]
fn single_record_capture_matches_in_both_storage_classes() {
    let mut b = ProgramBuilder::new("one");
    let id = b.stream(StreamDesc { base: 0x1000, stride: -8, length: 1 });
    b.ld_stream(Reg::new(1), id, MemWidth::B8);
    b.halt();
    let p = b.build();
    let (want, bytes) = oracle(&p, 1);
    assert_eq!((want.len(), want.halted(), bytes.len()), (1, false, 1));
    for cap in [usize::MAX, bytes[0], bytes[0] - 1, 0] {
        check_cached(&p, 1, cap, "one").expect("cached capture");
        check_lockstep(&p, 1, cap).expect("lockstep capture");
    }
}
