//! Per-layer measurements of the traced mode: the probed timing cell the
//! sweeps share, decode-only and interpret-only passes, a probe of every
//! layer on one program, and the assembly of the per-layer metrics.

use std::hint::black_box;
use std::path::Path;

use perfclone::{
    base_config, estimate_power, pareto_frontier, profile_program, CellRow, Cloner, Gate, GridAxes,
    GridSpec, InstrMetaTable, Journal, MachineConfig, Pipeline, TimingResult, TraceStore,
    WorkloadCache, DEFAULT_TRACE_CAP,
};
use perfclone_isa::Program;
use perfclone_sim::{ReplayChunk, Simulator};
use rayon::prelude::*;

use crate::probe::{CellProbe, Recorder};
use crate::{metric, Metric, Round};

/// The reorder-buffer sizes the grid sweeps, each reported on its own.
pub const ROB_SIZES: [u32; 4] = [16, 32, 64, 128];

/// Layers that [`fill`] may take from a probe when the workload's own
/// batch never calls them.
const FILLABLE: [&str; 18] = [
    "sim.interp",
    "sim.capture",
    "sim.trace_bytes",
    "sim.decode",
    "isa.meta_build",
    "profile.collect",
    "synth.gen",
    "validate.gate",
    "uarch.new",
    "uarch.model",
    "uarch.model_instrs",
    "uarch.model.rob16",
    "uarch.model.rob32",
    "uarch.model.rob64",
    "uarch.model.rob128",
    "power.estimate",
    "core.journal",
    "core.pareto",
];

/// Instructions a decode-only or interpret-only pass covers at least,
/// repeating short programs, so its rate is stable.
const PASS_INSTRS: u64 = 1_000_000;

/// One timing cell through the same public calls `run_timing_store_interned`
/// makes — `Pipeline::new`, `Pipeline::run_batched`, `estimate_power` —
/// each timed.
pub fn traced_cell(
    rec: &Recorder,
    program_idx: usize,
    program: &Program,
    store: &TraceStore,
    meta: &InstrMetaTable,
    config: &MachineConfig,
) -> TimingResult {
    let (pipe, new_ns) = rec.time("uarch.new", || Pipeline::new(*config));
    let (report, run_ns) =
        rec.time("uarch.run_batched", || pipe.run_batched(store.replay_batched(program, meta)));
    let (power, power_ns) = rec.time("power.estimate", || estimate_power(config, &report));
    rec.add("uarch.new", new_ns as f64, 1.0);
    rec.add("power.estimate", power_ns as f64, 1.0);
    rec.cell(CellProbe {
        program: program_idx,
        rob: config.rob_size,
        new_ns,
        run_ns,
        power_ns,
        cycles: report.cycles,
        instrs: report.instrs,
        l1d_misses: report.l1d.misses,
        l2_misses: report.l2.misses,
        bp_mispredicts: report.bpred.mispredicts,
    });
    TimingResult { report, power }
}

/// Drains program `idx`'s trace through `BatchReplay::fill` with no
/// pipeline attached, recording its decode rate under `sim.decode:<idx>`.
pub fn decode_pass(
    rec: &Recorder,
    idx: usize,
    program: &Program,
    store: &TraceStore,
    meta: &InstrMetaTable,
) {
    let mut chunk = ReplayChunk::new();
    let reps = (PASS_INSTRS / store.len().max(1)).max(1);
    for _ in 0..reps {
        let (n, ns) = rec.time("sim.decode", || {
            let mut replay = store.replay_batched(program, meta);
            let mut n = 0u64;
            loop {
                let k = replay.fill(&mut chunk);
                if k == 0 {
                    break;
                }
                n += k as u64;
                black_box(chunk.pc(k - 1));
            }
            n
        });
        rec.add("sim.decode", ns as f64, n as f64);
        rec.add(&format!("sim.decode:{idx}"), ns as f64, n as f64);
    }
}

/// Interprets `program` with no observer, recording its rate under
/// `sim.interp:<key>`.
pub fn interp_pass(rec: &Recorder, key: &str, program: &Program, limit: u64) -> Result<(), String> {
    let mut done = 0u64;
    while done < PASS_INSTRS {
        let (out, ns) = rec.time("sim.interp", || Simulator::new(program).run(limit));
        let retired = out.map_err(|e| format!("interpreting {key}: {e}"))?.retired;
        rec.add("sim.interp", ns as f64, retired as f64);
        rec.add(&format!("sim.interp:{key}"), ns as f64, retired as f64);
        done += retired.max(1);
    }
    Ok(())
}

/// Times `profile_program` on `program` under `profile.program:<key>`.
pub fn profiled(
    rec: &Recorder,
    key: &str,
    program: &Program,
    limit: u64,
) -> Result<perfclone::WorkloadProfile, String> {
    let (profile, ns) = rec.time("profile.program", || profile_program(program, limit));
    let profile = profile.map_err(|e| format!("profiling {key}: {e}"))?;
    rec.add(&format!("profile.program:{key}"), ns as f64, profile.total_instrs as f64);
    Ok(profile)
}

/// Interpret-only passes over kernels `names` (the first `names.len()`
/// of `programs`) over the thread pool, then their `profile.collect`.
pub fn collect_passes(rec: &Recorder, names: &[&str], programs: &[Program]) -> Result<(), String> {
    let jobs: Vec<(&str, &Program)> = names.iter().copied().zip(programs).collect();
    let done: Vec<Result<(), String>> =
        jobs.par_iter().map(|&(key, p)| interp_pass(rec, key, p, u64::MAX)).collect();
    done.into_iter().collect::<Result<(), String>>()?;
    profile_collect(rec, names);
    Ok(())
}

/// `profile.collect`: each profiled program's mean `profile_program` time
/// minus its mean interpret-only time, per profiled instruction.
pub fn profile_collect(rec: &Recorder, keys: &[&str]) {
    for key in keys {
        let p = rec.sum(&format!("profile.program:{key}"));
        let i = rec.sum(&format!("sim.interp:{key}"));
        if p.calls > 0 && i.calls > 0 {
            let instrs = p.units / p.calls as f64;
            rec.add("profile.collect", p.ns_per_call() - i.ns_per_unit() * instrs, instrs);
        }
    }
}

/// Splits every traced cell's `run_batched` time into decode (the
/// program's decode-only rate times the cell's instructions) and model,
/// and sums the model time overall and by ROB size.
pub fn fold_cells(rec: &Recorder) {
    for c in rec.cells() {
        let model = model_ns(rec, &c);
        rec.add("uarch.model", model, c.cycles as f64);
        rec.add("uarch.model_instrs", model, c.instrs as f64);
        rec.add(&format!("uarch.model.rob{}", c.rob), model, c.cycles as f64);
    }
}

fn model_ns(rec: &Recorder, c: &CellProbe) -> f64 {
    let decode = rec.sum(&format!("sim.decode:{}", c.program)).ns_per_unit() * c.instrs as f64;
    (c.run_ns as f64 - decode).max(0.0)
}

/// Every layer on one program, into a recorder of its own: the source
/// [`fill`] takes the layers a workload's batch never calls from.
pub fn exercise(
    rec: &Recorder,
    key: &str,
    program: &Program,
    limit: u64,
    dir: &Path,
) -> Result<(), String> {
    interp_pass(rec, key, program, limit)?;
    let profile = profiled(rec, key, program, limit)?;
    profile_collect(rec, &[key]);
    let clone = rec
        .layer("synth.gen", || Cloner::new().clone_program_from(&profile), |_| 1.0)
        .map_err(|e| format!("synthesizing {key}: {e}"))?;
    rec.layer("validate.gate", || Gate::default().report(&profile, &clone), |_| 1.0)
        .map_err(|e| format!("gating {key}: {e}"))?;
    let cache = WorkloadCache::new();
    let store = rec
        .layer(
            "sim.capture",
            || cache.packed_trace_capped(key, program, limit, DEFAULT_TRACE_CAP),
            |s| s.as_ref().map_or(0.0, |s| s.len() as f64),
        )
        .map_err(|e| format!("capturing {key}: {e}"))?;
    rec.add("sim.trace_bytes", 0.0, store.stored_bytes() as f64);
    let meta = rec.layer("isa.meta_build", || InstrMetaTable::new(program), |_| 1.0);
    decode_pass(rec, 0, program, &store, &meta);
    let spec = GridSpec {
        workload: key.to_string(),
        scale: "probe".into(),
        limit,
        axes: GridAxes::small(),
        max_cells: ROB_SIZES.len() as u64,
        shard_size: ROB_SIZES.len() as u64,
    };
    let mut rows = Vec::new();
    for (cell, rob) in ROB_SIZES.into_iter().enumerate() {
        let config = MachineConfig { rob_size: rob, lsq_size: (rob / 2).max(1), ..base_config() };
        let t = traced_cell(rec, 0, program, &store, &meta, &config);
        rows.push(CellRow {
            cell: cell as u64,
            id: spec.cell_id(cell as u64).to_string(),
            cycles: t.report.cycles,
            instrs: t.report.instrs,
            ipc: t.report.ipc(),
            power: t.power.average_power,
            l1d_mpi: t.report.l1d_mpi(),
        });
    }
    fold_cells(rec);
    let (journal, _) = Journal::open(dir, &spec).map_err(|e| e.to_string())?;
    rec.layer("core.journal", || journal.record_shard(0, 0, spec.cells(), &rows), |_| 1.0)
        .map_err(|e| e.to_string())?;
    rec.layer("core.pareto", || pareto_frontier(&rows), |_| 1.0);
    Ok(())
}

/// Copies into `rec` each fillable layer it never recorded from `probe`.
pub fn fill(rec: &Recorder, probe: &Recorder) {
    for key in FILLABLE {
        if rec.sum(key).calls == 0 {
            rec.set(key, probe.sum(key));
        }
    }
}

/// The per-layer metrics of a traced run.
pub fn metrics(rec: &Recorder, traced: &Round, threads: f64, overhead_pct: f64) -> Vec<Metric> {
    let s = |k: &str| rec.sum(k);
    let cells = rec.cells();
    let count = |f: fn(&CellProbe) -> u64| cells.iter().map(f).sum::<u64>() as f64;
    let model: f64 = cells.iter().map(|c| model_ns(rec, c)).sum();
    let cell_ns: f64 = cells.iter().map(|c| (c.new_ns + c.run_ns + c.power_ns) as f64).sum();
    let capture = s("sim.capture");
    let mut out = vec![
        metric("kernels.build_ms", s("kernels.build").ns_per_call() / 1e6, "ms"),
        metric("sim.interp_ns_per_instr", s("sim.interp").ns_per_unit(), "ns/instr"),
        metric("sim.capture_ns_per_instr", capture.ns_per_unit(), "ns/instr"),
        metric(
            "sim.trace_bytes_per_instr",
            if capture.units > 0.0 { s("sim.trace_bytes").units / capture.units } else { 0.0 },
            "B/instr",
        ),
        metric("sim.decode_ns_per_instr", s("sim.decode").ns_per_unit(), "ns/instr"),
        metric("isa.meta_build_us", s("isa.meta_build").ns_per_call() / 1e3, "us"),
        metric("profile.collect_ns_per_instr", s("profile.collect").ns_per_unit(), "ns/instr"),
        metric("synth.gen_ms", s("synth.gen").ns_per_call() / 1e6, "ms"),
        metric("synth.clone_instrs", s("synth.clone_instrs").units, "count"),
        metric("validate.gate_ms", s("validate.gate").ns_per_call() / 1e6, "ms"),
        metric("validate.pass", s("validate.pass").units, "count"),
        metric("validate.warn", s("validate.warn").units, "count"),
        metric("validate.fail", s("validate.fail").units, "count"),
        metric("uarch.new_us", s("uarch.new").ns_per_call() / 1e3, "us"),
        metric("uarch.model_ns_per_cycle", s("uarch.model").ns_per_unit(), "ns/cycle"),
        metric("uarch.model_ns_per_instr", s("uarch.model_instrs").ns_per_unit(), "ns/instr"),
        metric("uarch.model_share", if cell_ns > 0.0 { model / cell_ns } else { 0.0 }, "ratio"),
    ];
    let rob_names = [
        "uarch.model_ns_per_cycle.rob16",
        "uarch.model_ns_per_cycle.rob32",
        "uarch.model_ns_per_cycle.rob64",
        "uarch.model_ns_per_cycle.rob128",
    ];
    for (name, rob) in rob_names.into_iter().zip(ROB_SIZES) {
        out.push(metric(name, s(&format!("uarch.model.rob{rob}")).ns_per_unit(), "ns/cycle"));
    }
    out.extend([
        metric("uarch.cycles", count(|c| c.cycles), "count"),
        metric("uarch.instrs", count(|c| c.instrs), "count"),
        metric("uarch.l1d_misses", count(|c| c.l1d_misses), "count"),
        metric("uarch.l2_misses", count(|c| c.l2_misses), "count"),
        metric("uarch.bp_mispredicts", count(|c| c.bp_mispredicts), "count"),
        metric("uarch.stats_digest", traced.stats_digest.json_value(), "digest"),
        metric("power.estimate_ns", s("power.estimate").ns_per_call(), "ns"),
        metric("core.journal_us_per_shard", s("core.journal").ns_per_call() / 1e3, "us"),
        metric("core.pareto_ms", s("core.pareto").ns_per_call() / 1e6, "ms"),
        metric(
            "core.sweep_overhead_share",
            1.0 - s("task").ns / (traced.elapsed_s * 1e9 * threads),
            "ratio",
        ),
        metric("core.cache_lookups", s("core.cache_lookups").units, "count"),
        metric("core.cache_computes", s("core.cache_computes").units, "count"),
        metric("obs.probe_overhead_pct", overhead_pct, "%"),
    ]);
    out
}

/// Records a [`WorkloadCache`]'s lookup and compute totals.
pub fn cache_counts(rec: &Recorder, cache: &WorkloadCache) {
    let c = cache.snapshot();
    let lookups = c.profile_lookups
        + c.clone_lookups
        + c.trace_lookups
        + c.addr_trace_lookups
        + c.packed_trace_lookups
        + c.meta_lookups;
    let computes = c.profile_computes
        + c.clone_computes
        + c.trace_computes
        + c.addr_trace_computes
        + c.packed_trace_computes
        + c.meta_computes;
    rec.add("core.cache_lookups", 0.0, lookups as f64);
    rec.add("core.cache_computes", 0.0, computes as f64);
}
