//! `grid-dense`: the dense design-space grid (10,240 cells) on crc32
//! tiny at 20,000 instructions per cell, its trace forced to spill to
//! disk and replayed through mmap, one journal record per shard. Seed-free:
//! it runs the original program and synthesizes nothing.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use perfclone::{
    pareto_frontier, run_grid_with, CellRow, GridAxes, GridPolicy, GridSpec, InstrMetaTable,
    Journal, TraceStore, WorkloadCache,
};
use perfclone_isa::Program;
use perfclone_kernels::{by_name, Scale};
use rayon::prelude::*;

use crate::layers;
use crate::probe::{probed, Recorder};
use crate::stats::{min_cycles, Digest, Tally};
use crate::{Ctx, Round};

const KERNEL: &str = "crc32";
const LIMIT: u64 = 20_000;
/// Cells per shard (and per journal record): one machine shape (L1-D
/// size and ways, width, ROB) across all 20 memory and L2 latency pairs,
/// so shards differ by shape only and their latencies spread smoothly.
const SHARD: u64 = 20;
/// Packed-trace byte cap far below the trace's size, so the capture
/// always spills to disk.
const SPILL_CAP: usize = 4096;

/// The built kernel, its spilled trace and interned metadata.
pub struct State {
    program: Program,
    cache: WorkloadCache,
    store: Arc<TraceStore>,
    meta: Arc<InstrMetaTable>,
    spec: GridSpec,
}

/// Builds crc32, captures its trace through a spilling capture and
/// interns its per-pc metadata.
pub fn setup(_ctx: &Ctx, rec: Option<&Recorder>) -> Result<State, String> {
    prepare(rec, GridAxes::dense(), LIMIT)
}

fn prepare(rec: Option<&Recorder>, axes: GridAxes, limit: u64) -> Result<State, String> {
    let kernel = by_name(KERNEL).ok_or("crc32 missing from the kernel catalog")?;
    let program = probed(rec, "kernels.build", || kernel.build(Scale::Tiny).program, |_| 1.0);
    let cache = WorkloadCache::new();
    let store = probed(
        rec,
        "sim.capture",
        || cache.packed_trace_capped(KERNEL, &program, limit, SPILL_CAP),
        |s| s.as_ref().map_or(0.0, |s| s.len() as f64),
    )
    .map_err(|e| format!("capturing {KERNEL}: {e}"))?;
    if let Some(rec) = rec {
        rec.add("sim.trace_bytes", 0.0, store.stored_bytes() as f64);
    }
    if !store.is_spilled() {
        return Err(format!("the {KERNEL} trace did not spill under a {SPILL_CAP}-byte cap"));
    }
    if let Some(f) = store.fault() {
        return Err(format!("{KERNEL} faulted while its trace was captured: {f}"));
    }
    let meta = probed(rec, "isa.meta_build", || cache.instr_meta(KERNEL, &program), |_| 1.0);
    let spec = GridSpec {
        workload: KERNEL.into(),
        scale: "tiny".into(),
        limit,
        axes,
        max_cells: u64::MAX,
        shard_size: SHARD,
    };
    Ok(State { program, cache, store, meta, spec })
}

struct Sweep {
    rows: Vec<CellRow>,
    elapsed_s: f64,
    task_ms: Vec<f64>,
    skipped_shards: u64,
    spilled: bool,
    quarantined: u64,
}

/// One sweep of the whole grid into a fresh journal.
pub fn round(ctx: &Ctx, st: &State, rec: Option<&Recorder>, n: usize) -> Result<Round, String> {
    let dir = ctx.run_dir.join(format!("grid-journal-{n}"));
    let _ = std::fs::remove_dir_all(&dir);
    let sweep = match rec {
        None => shipped(st, &dir)?,
        Some(rec) => traced(st, &dir, rec)?,
    };
    std::fs::remove_dir_all(&dir).map_err(|e| format!("removing {}: {e}", dir.display()))?;

    let mut failures = Vec::new();
    if sweep.skipped_shards != 0 {
        failures.push(format!("{} shards resumed from a stale journal", sweep.skipped_shards));
    }
    if !sweep.spilled {
        failures.push("the sweep did not replay a spilled trace".into());
    }
    let cells = st.spec.cells();
    if sweep.rows.len() as u64 != cells
        || sweep.rows.iter().enumerate().any(|(i, r)| r.cell != i as u64)
    {
        failures.push(format!("{} rows for {cells} cells", sweep.rows.len()));
    }
    let mut digest = Digest::default();
    for r in &sweep.rows {
        digest.cell(r.cycles, r.instrs, r.ipc, r.power, r.l1d_mpi);
        let width = st.spec.axes.config(r.cell).map_or(1, |c| c.commit_width);
        if r.instrs != st.store.len() {
            failures.push(format!(
                "cell {}: {} instrs, trace has {}",
                r.cell,
                r.instrs,
                st.store.len()
            ));
        }
        if r.cycles < min_cycles(r.instrs, width) {
            failures.push(format!(
                "cell {}: {} cycles < ceil({} / {width})",
                r.cell, r.cycles, r.instrs
            ));
        }
        if !r.ipc.is_finite() || !r.power.is_finite() {
            failures.push(format!("cell {}: non-finite IPC or power", r.cell));
        }
    }
    Ok(Round {
        elapsed_s: sweep.elapsed_s,
        items: sweep.rows.len() as u64,
        instrs: sweep.rows.iter().map(|r| r.instrs).sum(),
        cycles: sweep.rows.iter().map(|r| r.cycles).sum(),
        task_ms: sweep.task_ms,
        tally: Tally { attempted: cells, quarantined: sweep.quarantined, ..Tally::default() },
        stats_digest: digest,
        clone_digest: None,
        fidelity: None,
        failures,
    })
}

/// `run_grid_with` as shipped. Permanent cell failures are quarantined
/// rather than aborting, so they are counted. A shard's latency is the
/// time since its worker's previous shard (or the sweep's start) landed.
fn shipped(st: &State, dir: &std::path::Path) -> Result<Sweep, String> {
    let policy = GridPolicy { keep_going: true, ..GridPolicy::default() };
    let task_ms = Mutex::new(Vec::new());
    let last = Mutex::new(HashMap::new());
    let t0 = Instant::now();
    let outcome = run_grid_with(&st.program, &st.spec, dir, &st.cache, &policy, None, |_| {
        let now = Instant::now();
        let prev = last
            .lock()
            .expect("shard clock poisoned by a panicking worker")
            .insert(std::thread::current().id(), now)
            .unwrap_or(t0);
        task_ms
            .lock()
            .expect("shard latencies poisoned by a panicking worker")
            .push((now - prev).as_secs_f64() * 1e3);
    })
    .map_err(|e| format!("grid sweep: {e}"))?;
    let elapsed_s = t0.elapsed().as_secs_f64();
    Ok(Sweep {
        rows: outcome.rows,
        elapsed_s,
        task_ms: task_ms.into_inner().expect("shard latencies poisoned by a panicking worker"),
        skipped_shards: outcome.skipped_shards,
        spilled: outcome.spilled_trace,
        quarantined: outcome.quarantined.len() as u64,
    })
}

/// The same sweep rebuilt from the public calls `run_grid_with` makes —
/// journal, per-cell pipeline and power, per-shard record, Pareto
/// frontier — each timed from outside.
fn traced(st: &State, dir: &std::path::Path, rec: &Recorder) -> Result<Sweep, String> {
    let spec = &st.spec;
    let t0 = Instant::now();
    let (journal, load) = Journal::open(dir, spec).map_err(|e| e.to_string())?;
    let shards: Vec<u64> = (0..spec.shard_count()).collect();
    let done: Vec<Result<(Vec<CellRow>, f64), String>> = shards
        .par_iter()
        .map(|&shard| {
            let (rows, ns) = rec.time("grid.shard", || -> Result<Vec<CellRow>, String> {
                let (start, end) = spec.shard_range(shard).ok_or("shard out of range")?;
                let mut rows = Vec::with_capacity((end - start) as usize);
                for cell in start..end {
                    let config = spec.axes.config(cell).ok_or("cell out of range")?;
                    let t = layers::traced_cell(rec, 0, &st.program, &st.store, &st.meta, &config);
                    rows.push(CellRow {
                        cell,
                        id: spec.cell_id(cell).to_string(),
                        cycles: t.report.cycles,
                        instrs: t.report.instrs,
                        ipc: t.report.ipc(),
                        power: t.power.average_power,
                        l1d_mpi: t.report.l1d_mpi(),
                    });
                }
                rec.layer(
                    "core.journal",
                    || journal.record_shard(shard, start, end, &rows),
                    |_| 1.0,
                )
                .map_err(|e| e.to_string())?;
                Ok(rows)
            });
            rec.add("task", ns as f64, 1.0);
            rows.map(|r| (r, ns as f64 / 1e6))
        })
        .collect();
    let mut rows = Vec::new();
    let mut task_ms = Vec::new();
    for d in done {
        let (r, ms) = d?;
        rows.extend(r);
        task_ms.push(ms);
    }
    rec.layer("core.pareto", || pareto_frontier(&rows), |_| 1.0);
    Ok(Sweep {
        rows,
        elapsed_s: t0.elapsed().as_secs_f64(),
        task_ms,
        skipped_shards: load.shards.len() as u64,
        spilled: st.store.is_spilled(),
        quarantined: 0,
    })
}

/// Decode-only and interpret-only passes over crc32, then the layers the
/// grid never calls (profile, synth, gate) probed on it.
pub fn probe(ctx: &Ctx, st: &State, rec: &Recorder) -> Result<(), String> {
    layers::decode_pass(rec, 0, &st.program, &st.store, &st.meta);
    layers::fold_cells(rec);
    layers::cache_counts(rec, &st.cache);
    let fill = Recorder::default();
    layers::exercise(&fill, KERNEL, &st.program, LIMIT, &ctx.run_dir.join("probe-journal"))?;
    layers::fill(rec, &fill);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_digest_is_the_same_at_any_thread_count() {
        let ctx = Ctx {
            seed: 0,
            run_dir: std::env::temp_dir().join(format!("perfbench-test-{}", std::process::id())),
        };
        let st = prepare(None, GridAxes::small(), 5_000).unwrap();
        let mut digests = Vec::new();
        for (n, threads) in [1, 2, 4].into_iter().enumerate() {
            let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
            let rec = Recorder::default();
            for r in [
                pool.install(|| round(&ctx, &st, None, 2 * n)).unwrap(),
                pool.install(|| round(&ctx, &st, Some(&rec), 2 * n + 1)).unwrap(),
            ] {
                assert!(r.failures.is_empty(), "{:?}", r.failures);
                assert_eq!(r.items, st.spec.cells());
                digests.push(r.stats_digest);
            }
        }
        let _ = std::fs::remove_dir_all(&ctx.run_dir);
        assert!(digests.windows(2).all(|w| w[0] == w[1]), "{digests:?}");
    }
}
