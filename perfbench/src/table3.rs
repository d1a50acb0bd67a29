//! `table3`: the paper's Table-3 study. Every Table-1 kernel and its clone
//! at small scale, on the base configuration and the five design changes
//! — the cells `design_change_sweep_par` times — replaying traces held in
//! memory. Cloning the population and capturing the traces is the
//! set-up; the batch is the 23 × 2 × 6 timing cells.

use std::sync::Arc;
use std::time::Instant;

use perfclone::experiments::{DesignChangeResult, DesignChangeSweep};
use perfclone::{
    base_config, derive_cell_seed, design_changes, profile_program, run_timing_store_interned,
    Cloner, InstrMetaTable, MachineConfig, SynthesisParams, TimingResult, TraceStore,
    WorkloadCache, DEFAULT_TRACE_CAP,
};
use perfclone_isa::Program;
use perfclone_kernels::{catalog, Scale};
use rayon::prelude::*;

use crate::layers;
use crate::probe::{probed, Recorder};
use crate::stats::{min_cycles, Digest, Tally};
use crate::{Ctx, Round, PAPER_IPC_ERR_PCT, PAPER_POWER_ERR_PCT};

/// The check fails a clone population whose Table-3 error is more than
/// this multiple of the paper's.
const FIDELITY_CEILING: f64 = 2.0;

/// Instructions of the first kernel the layer probe covers.
const PROBE_LIMIT: u64 = 200_000;

/// One program's in-memory trace and interned metadata.
type Captured = (Arc<TraceStore>, Arc<InstrMetaTable>);

/// The population: originals then clones, each with its in-memory trace
/// and interned metadata.
pub struct State {
    names: Vec<&'static str>,
    /// `names.len()` originals followed by their clones, in kernel order.
    programs: Vec<Program>,
    stores: Vec<Arc<TraceStore>>,
    metas: Vec<Arc<InstrMetaTable>>,
    cache: WorkloadCache,
    configs: Vec<MachineConfig>,
    clone_digest: Digest,
}

/// The synthesis parameters of the Table-3 experiments: the clone's
/// dynamic length matched to the original's, the seed derived per kernel.
fn params(seed: u64, name: &str, profile_len: u64) -> SynthesisParams {
    SynthesisParams {
        seed: derive_cell_seed(seed, name, 0),
        target_dynamic: profile_len.clamp(100_000, 2_500_000),
        ..SynthesisParams::default()
    }
}

/// Builds, profiles and clones the 23 kernels, then captures all 46
/// traces in memory and interns their metadata.
pub fn setup(ctx: &Ctx, rec: Option<&Recorder>) -> Result<State, String> {
    let kernels: Vec<_> = catalog().iter().collect();
    let built: Vec<Result<(Program, Program), String>> = kernels
        .par_iter()
        .map(|k| {
            let name = k.name();
            let program = probed(rec, "kernels.build", || k.build(Scale::Small).program, |_| 1.0);
            let profile = match rec {
                Some(rec) => layers::profiled(rec, name, &program, u64::MAX)?,
                None => profile_program(&program, u64::MAX)
                    .map_err(|e| format!("profiling {name}: {e}"))?,
            };
            let p = params(ctx.seed, name, profile.total_instrs);
            let clone = probed(
                rec,
                "synth.gen",
                || Cloner::with_params(p).clone_program_from(&profile),
                |_| 1.0,
            )
            .map_err(|e| format!("synthesizing {name}: {e}"))?;
            if let Some(rec) = rec {
                rec.add("synth.clone_instrs", 0.0, clone.len() as f64);
            }
            Ok((program, clone))
        })
        .collect();
    let mut originals = Vec::new();
    let mut clones = Vec::new();
    for b in built {
        let (o, c) = b?;
        originals.push(o);
        clones.push(c);
    }
    let mut clone_digest = Digest::default();
    for c in &clones {
        clone_digest.bytes(format!("{c:?}").as_bytes());
    }
    let names: Vec<&'static str> = kernels.iter().map(|k| k.name()).collect();
    let programs: Vec<Program> = originals.into_iter().chain(clones).collect();
    let keys: Vec<String> = (0..programs.len()).map(|i| key(&names, i)).collect();
    let cache = WorkloadCache::new();
    let jobs: Vec<(&Program, &String)> = programs.iter().zip(&keys).collect();
    let captured: Vec<Result<Captured, String>> = jobs
        .par_iter()
        .map(|&(p, k)| {
            let store = probed(
                rec,
                "sim.capture",
                || cache.packed_trace_capped(k, p, u64::MAX, DEFAULT_TRACE_CAP),
                |s| s.as_ref().map_or(0.0, |s| s.len() as f64),
            )
            .map_err(|e| format!("capturing {k}: {e}"))?;
            if let Some(rec) = rec {
                rec.add("sim.trace_bytes", 0.0, store.stored_bytes() as f64);
            }
            if store.is_spilled() {
                return Err(format!("the {k} trace spilled; table3 replays traces in memory"));
            }
            if let Some(f) = store.fault() {
                return Err(format!("{k} faulted while its trace was captured: {f}"));
            }
            let meta = probed(rec, "isa.meta_build", || cache.instr_meta(k, p), |_| 1.0);
            Ok((store, meta))
        })
        .collect();
    let mut stores = Vec::new();
    let mut metas = Vec::new();
    for c in captured {
        let (s, m) = c?;
        stores.push(s);
        metas.push(m);
    }
    let mut configs = vec![base_config()];
    configs.extend(design_changes());
    Ok(State { names, programs, stores, metas, cache, configs, clone_digest })
}

/// Cache key of program `i`: the kernel name, `.clone` for clones.
fn key(names: &[&str], i: usize) -> String {
    let n = names.len();
    if i < n {
        names[i].to_string()
    } else {
        format!("{}.clone", names[i - n])
    }
}

/// All 276 timing cells over the thread pool, then the Table-3 errors.
pub fn round(_ctx: &Ctx, st: &State, rec: Option<&Recorder>, _n: usize) -> Result<Round, String> {
    let n = st.names.len();
    // Kernel-major, [real, clone] per configuration, the layout of
    // `design_change_sweep_par` and `DesignChangeSweep`.
    let cells: Vec<(usize, usize)> = (0..n)
        .flat_map(|k| (0..st.configs.len()).flat_map(move |c| [(k, c), (k + n, c)]))
        .collect();
    let t0 = Instant::now();
    let results: Vec<(Result<TimingResult, String>, f64)> = cells
        .par_iter()
        .map(|&(p, c)| {
            let (program, store, meta) = (&st.programs[p], &*st.stores[p], &*st.metas[p]);
            let config = &st.configs[c];
            match rec {
                None => {
                    let t = Instant::now();
                    let r = run_timing_store_interned(program, store, meta, config)
                        .map_err(|e| e.to_string());
                    (r, t.elapsed().as_secs_f64() * 1e3)
                }
                Some(rec) => {
                    let (t, ns) = rec.time("table3.cell", || {
                        layers::traced_cell(rec, p, program, store, meta, config)
                    });
                    rec.add("task", ns as f64, 1.0);
                    (Ok(t), ns as f64 / 1e6)
                }
            }
        })
        .collect();
    let elapsed_s = t0.elapsed().as_secs_f64();

    let mut failures = Vec::new();
    let mut tally = Tally { attempted: cells.len() as u64, ..Tally::default() };
    let mut digest = Digest::default();
    let mut timings: Vec<Option<TimingResult>> = Vec::with_capacity(cells.len());
    for (&(p, c), (r, _)) in cells.iter().zip(&results) {
        let cell = format!("{} on {}", key(&st.names, p), st.configs[c].name);
        match r {
            Ok(t) => {
                let (rep, power) = (&t.report, t.power.average_power);
                digest.cell(rep.cycles, rep.instrs, rep.ipc(), power, rep.l1d_mpi());
                if rep.instrs != st.stores[p].len() {
                    failures.push(format!(
                        "{cell}: {} instrs, trace has {}",
                        rep.instrs,
                        st.stores[p].len()
                    ));
                }
                let width = st.configs[c].commit_width;
                if rep.cycles < min_cycles(rep.instrs, width) {
                    failures.push(format!(
                        "{cell}: {} cycles < ceil({} / {width})",
                        rep.cycles, rep.instrs
                    ));
                }
                if !rep.ipc().is_finite() || !power.is_finite() {
                    failures.push(format!("{cell}: non-finite IPC or power"));
                }
                timings.push(Some(t.clone()));
            }
            Err(e) => {
                tally.errored += 1;
                failures.push(format!("{cell}: {e}"));
                timings.push(None);
            }
        }
    }
    let fidelity = fidelity(st, &timings, &mut failures);
    Ok(Round {
        elapsed_s,
        items: cells.len() as u64,
        instrs: timings.iter().flatten().map(|t| t.report.instrs).sum(),
        cycles: timings.iter().flatten().map(|t| t.report.cycles).sum(),
        task_ms: results.iter().map(|(_, ms)| *ms).collect(),
        tally,
        stats_digest: digest,
        clone_digest: Some(st.clone_digest),
        fidelity,
        failures,
    })
}

/// Mean §5.2 relative IPC and power errors (%) over kernels × design
/// changes, computed by the library's `DesignChangeSweep`; `None` when a
/// kernel lacks a cell.
fn fidelity(
    st: &State,
    timings: &[Option<TimingResult>],
    failures: &mut Vec<String>,
) -> Option<(f64, f64)> {
    let per_kernel = 2 * st.configs.len();
    let mut ipc = Vec::new();
    let mut power = Vec::new();
    let mut complete = true;
    for (k, cells) in timings.chunks(per_kernel).enumerate() {
        let Some(cells) = cells.iter().cloned().collect::<Option<Vec<_>>>() else {
            failures.push(format!("{}: no Table-3 row (a cell failed)", st.names[k]));
            complete = false;
            continue;
        };
        let sweep = DesignChangeSweep {
            base_real: cells[0].clone(),
            base_synth: cells[1].clone(),
            changes: st.configs[1..]
                .iter()
                .enumerate()
                .map(|(i, config)| DesignChangeResult {
                    config: *config,
                    real: cells[2 + 2 * i].clone(),
                    synth: cells[3 + 2 * i].clone(),
                })
                .collect(),
        };
        for i in 0..sweep.changes.len() {
            ipc.push(sweep.ipc_relative_error(i));
            power.push(sweep.power_relative_error(i));
        }
    }
    if !complete {
        return None;
    }
    let mean = |xs: &[f64]| 100.0 * xs.iter().sum::<f64>() / xs.len() as f64;
    let (ipc, power) = (mean(&ipc), mean(&power));
    if !ipc.is_finite() || !power.is_finite() {
        failures.push("non-finite Table-3 error".into());
    } else if ipc > FIDELITY_CEILING * PAPER_IPC_ERR_PCT
        || power > FIDELITY_CEILING * PAPER_POWER_ERR_PCT
    {
        failures.push(format!(
            "Table-3 error IPC {ipc:.2} % / power {power:.2} % exceeds {FIDELITY_CEILING}x \
             the paper's {PAPER_IPC_ERR_PCT} % / {PAPER_POWER_ERR_PCT} %"
        ));
    }
    Some((ipc, power))
}

/// Decode-only passes over all 46 traces and interpret-only passes over
/// the 23 originals, then the layers table3 never calls (the gate, the
/// journal, the Pareto frontier, the ROB sizes its configurations lack)
/// probed on the first kernel.
pub fn probe(ctx: &Ctx, st: &State, rec: &Recorder) -> Result<(), String> {
    let idx: Vec<usize> = (0..st.programs.len()).collect();
    let _: Vec<()> = idx
        .par_iter()
        .map(|&i| layers::decode_pass(rec, i, &st.programs[i], &st.stores[i], &st.metas[i]))
        .collect();
    layers::collect_passes(rec, &st.names, &st.programs)?;
    layers::fold_cells(rec);
    layers::cache_counts(rec, &st.cache);
    let fill = Recorder::default();
    let dir = ctx.run_dir.join("probe-journal");
    layers::exercise(&fill, st.names[0], &st.programs[0], PROBE_LIMIT, &dir)?;
    layers::fill(rec, &fill);
    Ok(())
}
