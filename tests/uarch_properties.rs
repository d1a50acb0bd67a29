//! Property-based tests of the microarchitecture substrate: cache
//! monotonicity/inclusion-style invariants, pipeline IPC bounds,
//! functional-vs-pipeline consistency over randomized programs, and
//! analytical invariants of the timing model across the dense grid.

use perfclone_isa::{FReg, InstrMetaTable, MemWidth, Program, ProgramBuilder, Reg};
use perfclone_sim::{PackedTrace, Simulator};
use perfclone_uarch::{
    base_config, simulate_dcache, Assoc, Cache, CacheConfig, GridAxes, IssuePolicy, Pipeline,
};
use proptest::prelude::*;

fn random_access_program(addrs: Vec<u64>) -> perfclone_isa::Program {
    let mut b = ProgramBuilder::new("mem");
    let p = Reg::new(1);
    for a in addrs {
        b.li(p, (0x1_0000 + (a % (1 << 20))) as i64);
        b.emit(perfclone_isa::Instr::Load {
            rd: Reg::new(2),
            mem: perfclone_isa::MemRef::Base { base: p, offset: 0 },
            width: MemWidth::B8,
        });
    }
    b.halt();
    b.build()
}

/// A loop over random stores and loads on four shared 8-byte slots, in
/// 1-, 4- and 8-byte widths so that overlaps are partial as well as
/// exact: a load behind an unfinished older store must wait for it, and
/// one behind a finished store still in the ROB forwards from it. Loaded
/// values feed ALU, multiply and divide chains, and an FP divide keeps the
/// FP divider busy, so issue also blocks on dividers.
fn store_load_program(ops: &[u8], iters: i64) -> Program {
    let mut b = ProgramBuilder::new("store-load");
    let r = Reg::new;
    let f = FReg::new;
    let buf = b.alloc(32);
    b.li(r(1), buf as i64);
    b.li(r(2), 0);
    b.li(r(3), iters);
    b.li(r(4), 0x5bd1);
    b.fli(f(1), 3.0);
    let top = b.label();
    b.bind(top);
    for &op in ops {
        let slot = i32::from(op >> 4 & 3) * 8;
        let half = i32::from(op >> 6 & 1) * 4;
        match op % 9 {
            0 => b.sd(r(4), r(1), slot),
            1 => b.sw(r(2), r(1), slot + half),
            2 => b.sb(r(4), r(1), slot + half + 1),
            3 => b.ld(r(5), r(1), slot),
            4 => b.lw(r(6), r(1), slot + half),
            5 => b.add(r(4), r(4), r(5)),
            6 => b.mul(r(7), r(6), r(4)),
            7 => b.div(r(8), r(7), r(3)),
            _ => b.fdiv(f(2), f(2), f(1)),
        }
    }
    b.addi(r(2), r(2), 1);
    b.blt(r(2), r(3), top);
    b.halt();
    b.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Analytical invariants that hold for any correct timing model, on
    /// store/load-heavy programs over random dense-grid machines (in
    /// either issue policy): commit cannot beat its width, every
    /// instruction is dispatched, issued and committed exactly once, and
    /// the batched front end reproduces the iterator front end exactly.
    #[test]
    fn timing_model_invariants_hold_across_the_dense_grid(
        ops in proptest::collection::vec(any::<u8>(), 1..48),
        iters in 1i64..40,
        cell in 0u64..10_240,
        in_order in any::<bool>(),
    ) {
        let p = store_load_program(&ops, iters);
        let mut config = GridAxes::dense().config(cell).expect("cell in range");
        if in_order {
            config.issue_policy = IssuePolicy::InOrder;
        }
        let rep = Pipeline::new(config).run(Simulator::trace(&p, u64::MAX));
        let min_cycles = rep.instrs.div_ceil(u64::from(config.commit_width));
        prop_assert!(rep.cycles >= min_cycles, "{} cycles < {min_cycles}", rep.cycles);
        let a = rep.activity;
        prop_assert_eq!((a.issues, a.dispatches, a.commits), (rep.instrs, rep.instrs, rep.instrs));
        let packed = PackedTrace::capture(&p, u64::MAX);
        let meta = InstrMetaTable::new(&p);
        let batched = Pipeline::new(config).run_batched(packed.replay_batched(&p, &meta));
        prop_assert_eq!(batched, rep);
    }

    /// Doubling associativity at fixed size never increases misses for an
    /// LRU cache on our workloads' reference patterns... not true in
    /// general (Belady anomalies need FIFO), but LRU set-assoc growth to
    /// fully-associative at equal capacity obeys inclusion per set union;
    /// we assert the weaker, always-true bound: a fully-associative LRU
    /// cache of capacity >= N lines never misses on a working set of N
    /// distinct lines after warmup.
    #[test]
    fn fa_cache_captures_small_working_sets(
        lines in proptest::collection::vec(0u64..16, 1..200)
    ) {
        let mut c = Cache::new(CacheConfig::new(16 * 32, Assoc::Full, 32));
        // Warmup pass.
        for &l in &lines {
            c.access(l * 32, false);
        }
        let warm = c.stats();
        for &l in &lines {
            c.access(l * 32, false);
        }
        let after = c.stats();
        prop_assert_eq!(after.misses, warm.misses, "hits only after warmup");
    }

    /// Bigger LRU caches of equal associativity and line size never miss
    /// more on the same trace (stack-distance inclusion holds per set when
    /// the set count is a power of two multiple).
    #[test]
    fn lru_miss_count_monotone_in_size(
        addrs in proptest::collection::vec(0u64..100_000, 50..400)
    ) {
        let p = random_access_program(addrs);
        let small = simulate_dcache(&p, CacheConfig::new(1024, Assoc::Full, 32), u64::MAX);
        let large = simulate_dcache(&p, CacheConfig::new(4096, Assoc::Full, 32), u64::MAX);
        prop_assert!(large.misses <= small.misses,
            "large {} > small {}", large.misses, small.misses);
    }

    /// IPC is bounded by the issue width and positive for any program.
    #[test]
    fn ipc_bounds(addrs in proptest::collection::vec(0u64..10_000, 10..100)) {
        let p = random_access_program(addrs);
        let cfg = base_config();
        let rep = Pipeline::new(cfg).run(Simulator::trace(&p, u64::MAX));
        prop_assert!(rep.ipc() > 0.0);
        prop_assert!(rep.ipc() <= f64::from(cfg.issue_width) + 1e-9);
    }

    /// The pipeline commits exactly the instructions the functional core
    /// retires, for arbitrary programs from the generator.
    #[test]
    fn pipeline_commits_all(addrs in proptest::collection::vec(0u64..10_000, 10..120)) {
        let p = random_access_program(addrs);
        let mut sim = Simulator::new(&p);
        let functional = sim.run(u64::MAX).expect("runs").retired;
        let rep = Pipeline::new(base_config()).run(Simulator::trace(&p, u64::MAX));
        prop_assert_eq!(rep.instrs, functional);
        prop_assert_eq!(rep.activity.commits, functional);
    }
}
