//! The table-driven `Profiler` against the hash-map collector it replaced
//! (`tests/support/map_profiler.rs`): both observe the same retired
//! records and must serialize to identical profiles — on random programs
//! built to stress the collector's tables (overlapping and unaligned
//! accesses, more than `MAX_STRIDES` strides on one static op, blocks
//! with several predecessors, stores wrapping the top of the address
//! space, runs cut short by the limit), and on the 23 bundled kernels at
//! `Scale::Tiny` and their clones.

#[path = "support/map_profiler.rs"]
mod map_profiler;

use map_profiler::MapProfiler;
use perfclone_isa::{FReg, Program, ProgramBuilder, Reg};
use perfclone_kernels::{catalog, Scale};
use perfclone_profile::Profiler;
use perfclone_repro::prelude::*;
use perfclone_sim::{Observer, Simulator};
use proptest::prelude::*;

/// Serialized profiles of `program`'s first `limit` records, from the
/// table-driven profiler and from the hash-map one.
fn both(program: &Program, limit: u64) -> (String, String) {
    let mut table = Profiler::new(program);
    let mut map = MapProfiler::new(program.name());
    for d in Simulator::trace(program, limit) {
        table.on_retire(&d);
        map.on_retire(&d);
    }
    let json = |p: &WorkloadProfile| serde_json::to_string(p).expect("profile serializes");
    (json(&table.finish()), json(&map.finish()))
}

/// One operation of a generated loop body.
#[derive(Clone, Debug)]
enum Op {
    /// `add rd, rd, rs`.
    Alu { rd: u8, rs: u8 },
    /// `fadd fd, fd, fs`.
    Fp { fd: u8, fs: u8 },
    /// A load (`width` 0: `fld`) through base `base` at `off`.
    Load { width: u8, base: u8, off: i32 },
    /// A store (`width` 0: `fsd`) through base `base` at `off`.
    Store { width: u8, base: u8, off: i32 },
    /// Skips the next `span` ops when `i & mask` is zero.
    Skip { mask: i32, span: u8 },
    /// Jumps over the next `span` ops.
    Jump { span: u8 },
}

fn op() -> impl Strategy<Value = Op> {
    let far = || prop_oneof![Just(0u8), Just(2)];
    prop_oneof![
        (3u8..9, 3u8..9).prop_map(|(rd, rs)| Op::Alu { rd, rs }),
        (1u8..4, 1u8..4).prop_map(|(fd, fs)| Op::Fp { fd, fs }),
        (0u8..4, far(), -8i32..17).prop_map(|(width, base, off)| Op::Load { width, base, off }),
        (0u8..4, far(), -8i32..17).prop_map(|(width, base, off)| Op::Store { width, base, off }),
        // Through `r11`, within 8 bytes either side of the wrap.
        (0u8..4, -4i32..12).prop_map(|(width, off)| Op::Load { width, base: 1, off }),
        (0u8..4, -4i32..12).prop_map(|(width, off)| Op::Store { width, base: 1, off }),
        (1i32..8, 1u8..4).prop_map(|(mask, span)| Op::Skip { mask, span }),
        (1u8..3).prop_map(|span| Op::Jump { span }),
    ]
}

#[derive(Clone, Debug)]
struct Spec {
    iters: i64,
    /// Base of the accesses near the top of the address space.
    top: i64,
    ops: Vec<Op>,
    /// Records profiled; small limits cut a block's first visit short.
    limit: u64,
}

fn spec() -> impl Strategy<Value = Spec> {
    (
        150i64..400,
        prop_oneof![Just(-8i64), Just(-4), Just(-3)],
        proptest::collection::vec(op(), 2..14),
        prop_oneof![Just(u64::MAX), 1u64..4000],
    )
        .prop_map(|(iters, top, ops, limit)| Spec { iters, top, ops, limit })
}

/// A loop over `spec.ops`. Bases: `r10` a data buffer, `r11` near
/// `u64::MAX` (so some accesses wrap to 0), `r12` the buffer plus a
/// pseudo-random offset redrawn every iteration (hundreds of distinct
/// strides on one static op).
fn build(spec: &Spec) -> Program {
    let r = Reg::new;
    let f = FReg::new;
    let mut b = ProgramBuilder::new("oracle");
    let buf = b.alloc(4096);
    b.li(r(1), 0);
    b.li(r(2), spec.iters);
    b.li(r(10), buf as i64);
    b.li(r(11), spec.top);
    b.li(r(13), 12345);
    b.li(r(14), 1_103_515_245);
    let top = b.label();
    b.bind(top);
    b.mul(r(13), r(13), r(14));
    b.addi(r(13), r(13), 12345);
    b.srli(r(12), r(13), 16);
    b.andi(r(12), r(12), 1023);
    b.add(r(12), r(12), r(10));
    let mut pending = Vec::new(); // (ops left before binding, label)
    for op in &spec.ops {
        let base = |k: u8| r(10 + k);
        match *op {
            Op::Alu { rd, rs } => b.add(r(rd), r(rd), r(rs)),
            Op::Fp { fd, fs } => b.fadd(f(fd), f(fd), f(fs)),
            Op::Load { width: 0, base: k, off } => b.fld(f(1), base(k), off),
            Op::Load { width: 1, base: k, off } => b.lb(r(3), base(k), off),
            Op::Load { width: 2, base: k, off } => b.lw(r(4), base(k), off),
            Op::Load { base: k, off, .. } => b.ld(r(5), base(k), off),
            Op::Store { width: 0, base: k, off } => b.fsd(f(2), base(k), off),
            Op::Store { width: 1, base: k, off } => b.sb(r(6), base(k), off),
            Op::Store { width: 2, base: k, off } => b.sw(r(7), base(k), off),
            Op::Store { base: k, off, .. } => b.sd(r(1), base(k), off),
            Op::Skip { mask, span } => {
                let l = b.label();
                b.andi(r(9), r(1), mask);
                b.beqz(r(9), l);
                pending.push((span + 1, l));
            }
            Op::Jump { span } => {
                let l = b.label();
                b.j(l);
                pending.push((span + 1, l));
            }
        }
        for (left, l) in &mut pending {
            *left -= 1;
            if *left == 0 {
                b.bind(*l);
            }
        }
        pending.retain(|(left, _)| *left > 0);
    }
    for (_, l) in pending {
        b.bind(l);
    }
    b.addi(r(1), r(1), 1);
    b.blt(r(1), r(2), top);
    b.halt();
    b.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn table_profiler_matches_the_map_profiler(spec in spec()) {
        let (table, map) = both(&build(&spec), spec.limit);
        prop_assert_eq!(table, map);
    }
}

#[test]
fn generated_programs_reach_the_stride_cap() {
    // One scrambled load per iteration: more strides than the table holds.
    let spec = Spec {
        iters: 400,
        top: -4,
        ops: vec![Op::Load { width: 3, base: 2, off: 0 }],
        limit: u64::MAX,
    };
    let program = build(&spec);
    let profile = profile_program(&program, u64::MAX).expect("profiles");
    assert!(profile.streams.iter().any(|s| s.distinct_strides == 128), "{:?}", profile.streams);
    let (table, map) = both(&program, u64::MAX);
    assert_eq!(table, map);
}

#[test]
fn generated_programs_store_across_the_top_of_the_address_space() {
    // An 8-byte store at -4 writes 0..4 too; a load there depends on it.
    let spec = Spec {
        iters: 150,
        top: -4,
        ops: vec![Op::Store { width: 3, base: 1, off: 0 }, Op::Load { width: 2, base: 1, off: 4 }],
        limit: u64::MAX,
    };
    let program = build(&spec);
    let profile = profile_program(&program, u64::MAX).expect("profiles");
    let mem_deps: u64 = profile.contexts.iter().map(|c| c.mem_deps.total()).sum();
    assert_eq!(mem_deps, 150);
    let (table, map) = both(&program, u64::MAX);
    assert_eq!(table, map);
}

#[test]
fn table_profiler_matches_the_map_profiler_on_kernels_and_clones() {
    for k in catalog() {
        let program = k.build(Scale::Tiny).program;
        let (table, map) = both(&program, u64::MAX);
        assert_eq!(table, map, "{}", k.name());
        let params =
            SynthesisParams { seed: derive_cell_seed(24301, k.name(), 0), ..Default::default() };
        let clone = Cloner::with_params(params)
            .clone_program(&program, u64::MAX)
            .unwrap_or_else(|e| panic!("{}: clone: {e}", k.name()))
            .clone;
        let (table, map) = both(&clone, u64::MAX);
        assert_eq!(table, map, "{} clone", k.name());
    }
}
