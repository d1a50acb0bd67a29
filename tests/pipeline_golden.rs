//! Golden oracle for the pipeline timing model. `tests/data/pipeline_golden.json`
//! pins every `PipelineReport` field for 5 kernels and one store/load
//! stress program across 46 machine configurations. It was recorded by the ignored `regenerate_fixture`
//! test on the window-scanning issue stage, before issue became
//! event-driven. Every later build must reproduce it bit for bit through
//! both front ends (`run_batched` and `run` over the replay oracle), so a
//! scheduler rewrite is checked against a fixed reference rather than
//! against the build just before it.
//!
//! Regenerate (only when a modelling change is intended):
//! `cargo test --release --test pipeline_golden -- --ignored regenerate_fixture`

use perfclone_isa::{InstrMetaTable, Program, ProgramBuilder, Reg};
use perfclone_kernels::{by_name, Scale};
use perfclone_sim::PackedTrace;
use perfclone_uarch::{
    base_config, design_changes, Activity, CacheStats, GridAxes, MachineConfig, Pipeline,
    PipelineReport, PredictorStats,
};
use serde::Deserialize;

const KERNELS: [&str; 5] = ["crc32", "susan", "basicmath", "qsort", "ispell"];
/// Fixture name of [`store_load`], which runs after the kernels.
const STORE_LOAD: &str = "store-load";
const LIMIT: u64 = 20_000;
const FIXTURE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/data/pipeline_golden.json");

/// Report fields in fixture order; [`flatten`] must emit them in this order.
const FIELDS: [&str; 27] = [
    "cycles",
    "instrs",
    "l1i.accesses",
    "l1i.misses",
    "l1i.writebacks",
    "l1d.accesses",
    "l1d.misses",
    "l1d.writebacks",
    "l2.accesses",
    "l2.misses",
    "l2.writebacks",
    "bpred.lookups",
    "bpred.mispredicts",
    "activity.fetches",
    "activity.dispatches",
    "activity.issues",
    "activity.commits",
    "activity.int_alu_ops",
    "activity.int_mul_ops",
    "activity.fp_alu_ops",
    "activity.fp_mul_ops",
    "activity.regfile_reads",
    "activity.regfile_writes",
    "activity.rob_occupancy_sum",
    "activity.lsq_occupancy_sum",
    "activity.mispredict_stall_cycles",
    "activity.icache_stall_cycles",
];

#[derive(Deserialize)]
struct Golden {
    limit: u64,
    fields: Vec<String>,
    cells: Vec<Cell>,
}

#[derive(Deserialize)]
struct Cell {
    kernel: String,
    config: String,
    report: Vec<u64>,
}

/// Every report field, destructured exhaustively so a new field fails to
/// compile here until the fixture records it.
fn flatten(r: &PipelineReport) -> Vec<u64> {
    let PipelineReport { cycles, instrs, l1i, l1d, l2, bpred, activity } = *r;
    let cache = |c: CacheStats| {
        let CacheStats { accesses, misses, writebacks } = c;
        [accesses, misses, writebacks]
    };
    let PredictorStats { lookups, mispredicts } = bpred;
    let Activity {
        fetches,
        dispatches,
        issues,
        commits,
        int_alu_ops,
        int_mul_ops,
        fp_alu_ops,
        fp_mul_ops,
        regfile_reads,
        regfile_writes,
        rob_occupancy_sum,
        lsq_occupancy_sum,
        mispredict_stall_cycles,
        icache_stall_cycles,
    } = activity;
    let mut v = vec![cycles, instrs];
    v.extend(cache(l1i));
    v.extend(cache(l1d));
    v.extend(cache(l2));
    v.extend([
        lookups,
        mispredicts,
        fetches,
        dispatches,
        issues,
        commits,
        int_alu_ops,
        int_mul_ops,
        fp_alu_ops,
        fp_mul_ops,
        regfile_reads,
        regfile_writes,
        rob_occupancy_sum,
        lsq_occupancy_sum,
        mispredict_stall_cycles,
        icache_stall_cycles,
    ]);
    v
}

/// Stores whose data comes from a divide, followed by loads of the same
/// and of partly overlapping bytes: the loads wait behind unfinished
/// stores and then forward from finished ones still in the ROB. No load
/// of the bundled kernels at this length waits on a store.
fn store_load() -> Program {
    let mut b = ProgramBuilder::new(STORE_LOAD);
    let r = Reg::new;
    let buf = b.alloc(16);
    b.li(r(1), buf as i64);
    b.li(r(2), 0);
    b.li(r(3), 1);
    b.li(r(4), 1_500);
    b.li(r(7), 0x1234_5678);
    let top = b.label();
    b.bind(top);
    b.div(r(7), r(7), r(3));
    b.sd(r(7), r(1), 0);
    b.ld(r(5), r(1), 0);
    b.sw(r(5), r(1), 8);
    b.lw(r(6), r(1), 4);
    b.lb(r(8), r(1), 9);
    b.add(r(7), r(7), r(6));
    b.add(r(7), r(7), r(8));
    b.addi(r(2), r(2), 1);
    b.blt(r(2), r(4), top);
    b.halt();
    b.build()
}

/// The dense grid's extreme shapes on its smallest L1-D (1 KiB,
/// direct-mapped) and longest L2 latency: ROB 16/128 × width 1/8 ×
/// memory latency 20/320.
fn corners() -> GridAxes {
    GridAxes {
        l1d_bytes: vec![1024],
        l1d_ways: vec![1],
        widths: vec![1, 8],
        rob_sizes: vec![16, 128],
        mem_latencies: vec![20, 320],
        l2_latencies: vec![24],
    }
}

/// The labelled configurations: base, the five Table-3 design changes
/// (including in-order issue and a doubled ROB), the 32 cells of
/// [`GridAxes::small`], and the 8 dense-grid corners.
fn configs() -> Vec<(String, MachineConfig)> {
    let mut v = vec![("base".to_string(), base_config())];
    v.extend(design_changes().map(|c| (c.name.to_string(), c)));
    for (label, axes) in [("small", GridAxes::small()), ("corner", corners())] {
        v.extend((0..axes.cells()).filter_map(|i| Some((format!("{label}/{i}"), axes.config(i)?))));
    }
    v
}

/// Runs every (kernel, config) cell through both front ends, asserting
/// they agree, and returns `(kernel, config label, flattened report)`.
fn compute() -> Vec<(String, String, Vec<u64>)> {
    let configs = configs();
    let mut out = Vec::new();
    let kernels = KERNELS
        .map(|name| (name, by_name(name).expect("bundled kernel").build(Scale::Tiny).program));
    for (name, program) in kernels.into_iter().chain([(STORE_LOAD, store_load())]) {
        let packed = PackedTrace::capture(&program, LIMIT);
        let meta = InstrMetaTable::new(&program);
        for (label, config) in &configs {
            let batched =
                Pipeline::new(*config).run_batched(packed.replay_batched(&program, &meta));
            let oracle = Pipeline::new(*config).run(packed.replay(&program));
            assert_eq!(batched, oracle, "{name} {label}: batched and oracle front ends differ");
            out.push((name.to_string(), label.clone(), flatten(&batched)));
        }
    }
    out
}

#[test]
fn reports_match_the_golden_fixture() {
    let text = std::fs::read_to_string(FIXTURE).expect("fixture present");
    let golden: Golden = serde_json::from_str(&text).expect("fixture parses");
    assert_eq!(golden.limit, LIMIT);
    assert_eq!(golden.fields, FIELDS);
    let computed = compute();
    assert_eq!(golden.cells.len(), computed.len(), "fixture cell count");
    for (cell, (kernel, config, report)) in golden.cells.iter().zip(&computed) {
        assert_eq!((&cell.kernel, &cell.config), (kernel, config), "fixture cell order");
        for ((field, want), got) in FIELDS.iter().zip(&cell.report).zip(report) {
            assert_eq!(want, got, "{kernel} {config}: {field}");
        }
        assert_eq!(cell.report.len(), report.len(), "{kernel} {config}: field count");
    }
}

/// Rewrites the fixture from the current build. Run it only on a commit
/// whose reports are meant to become the new reference.
#[test]
#[ignore = "rewrites tests/data/pipeline_golden.json from the current build"]
fn regenerate_fixture() {
    let quote = |s: &str| format!("\"{s}\"");
    let fields: Vec<String> = FIELDS.iter().map(|f| quote(f)).collect();
    let cells: Vec<String> = compute()
        .iter()
        .map(|(kernel, config, report)| {
            let report: Vec<String> = report.iter().map(u64::to_string).collect();
            format!(
                "{{\"kernel\":{},\"config\":{},\"report\":[{}]}}",
                quote(kernel),
                quote(config),
                report.join(",")
            )
        })
        .collect();
    let text = format!(
        "{{\"scale\":\"tiny\",\"limit\":{LIMIT},\n\"fields\":[{}],\n\"cells\":[\n{}\n]}}\n",
        fields.join(","),
        cells.join(",\n")
    );
    std::fs::create_dir_all(concat!(env!("CARGO_MANIFEST_DIR"), "/tests/data")).expect("mkdir");
    std::fs::write(FIXTURE, text).expect("write fixture");
}
