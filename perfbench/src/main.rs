//! End-to-end and per-layer benchmark of the perfclone workspace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload grid-dense|table3|clone-suite --seed N --seconds S --trace 0|1
//! ```
//!
//! Each run is one workload in its own process, so `VmHWM` belongs to that
//! workload alone, on a fixed pool of `min(2, nproc)` threads. The
//! workload's set-up is repeated and its median reported as `setup_s`;
//! then whole batches of closed work run back to back until `--seconds`
//! is spent (at least one batch). Every batch's outputs are checked. The
//! last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed` and the metrics — the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`.
//!
//! The end-to-end metrics are the same on every workload: `items_per_s`
//! counts timing cells on `grid-dense` and `table3` and validated clones
//! on `clone-suite`. The failure fraction travels as `failed` over
//! `attempted`; it and `table3`'s Table-3 errors, printed beside the
//! paper's, are reported in the lines above the JSON.
//!
//! `--trace 1` first measures untraced batches as above, then one batch
//! rebuilt from the workspace's public calls with every call timed from
//! outside (see `probe.rs`); the difference is the probe overhead. A layer
//! the workload never calls (the gate on `grid-dense`, the timing model on
//! `clone-suite`, ...) is measured by a probe of every layer on one of the
//! workload's programs (`layers::exercise`). The spans are written in
//! Chrome Trace Event format to `.perfbench/<workload>.trace.json`,
//! loadable in Perfetto. `predictions.json` records which end-to-end
//! metric each layer should move, on which workload.

mod clones;
mod grid;
mod layers;
mod probe;
mod stats;
mod table3;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use probe::Recorder;
use stats::{median, tail, Digest, Tally};

/// The paper's Table-3 average relative IPC error (%), the model's only
/// reference: it has no real-hardware one.
pub const PAPER_IPC_ERR_PCT: f64 = 4.49;
/// The paper's Table-3 average relative power error (%).
pub const PAPER_POWER_ERR_PCT: f64 = 2.28;

/// Default workload seed: the synthesizer's default root seed.
const DEFAULT_SEED: u64 = 0x5EED;

const USAGE: &str = "usage: perfbench --workload grid-dense|table3|clone-suite \
                     [--seed N] [--seconds S] [--trace 0|1]";

/// Settings shared by every workload of one run.
pub struct Ctx {
    /// Workload seed: the synthesis root seed, per-kernel seeds derived
    /// from it through `derive_cell_seed`.
    pub seed: u64,
    /// Scratch directory for journals and spilled traces, removed at exit.
    pub run_dir: PathBuf,
}

/// One batch of a workload's closed work, with its checked outputs.
pub struct Round {
    /// Wall time of the batch.
    pub elapsed_s: f64,
    /// Work items completed: timing cells, or validated clones.
    pub items: u64,
    /// Instructions simulated: committed by the timing model, or retired
    /// by the functional simulator on `clone-suite`.
    pub instrs: u64,
    /// Cycles simulated by the timing model (0 on `clone-suite`).
    pub cycles: u64,
    /// Per-task latencies (shards, cells, or kernel clones).
    pub task_ms: Vec<f64>,
    /// Operations attempted and failed.
    pub tally: Tally,
    /// Digest of every simulated cell result, in cell order.
    pub stats_digest: Digest,
    /// Digest of the synthesized clones, where the workload makes any.
    pub clone_digest: Option<Digest>,
    /// `(ipc_err_pct, power_err_pct)`, where the workload measures them.
    pub fidelity: Option<(f64, f64)>,
    /// Failed output checks, empty when every check passed.
    pub failures: Vec<String>,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Workload {
    GridDense,
    Table3,
    CloneSuite,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "grid-dense" => Some(Workload::GridDense),
            "table3" => Some(Workload::Table3),
            "clone-suite" => Some(Workload::CloneSuite),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::GridDense => "grid-dense",
            Workload::Table3 => "table3",
            Workload::CloneSuite => "clone-suite",
        }
    }

    /// What one work item is, for the per-workload throughput name.
    fn items_name(self) -> &'static str {
        match self {
            Workload::GridDense | Workload::Table3 => "cells_per_s",
            Workload::CloneSuite => "clones_per_s",
        }
    }

    fn task_name(self) -> &'static str {
        match self {
            Workload::GridDense => "shard",
            Workload::Table3 => "cell",
            Workload::CloneSuite => "kernel clone",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = DEFAULT_SEED;
        let mut seconds = 20.0;
        let mut trace = false;
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::parse(&value)
                            .ok_or_else(|| format!("unknown workload {value:?}"))?,
                    );
                }
                "--seed" => seed = value.parse().map_err(|_| format!("bad --seed {value:?}"))?,
                "--seconds" => {
                    seconds = value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s > 0.0)
                        .ok_or_else(|| format!("bad --seconds {value:?}"))?;
                }
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("bad --trace {value:?}")),
                    };
                }
                _ => return Err(format!("unknown flag {flag:?}")),
            }
        }
        let workload = workload.ok_or("missing --workload")?;
        Ok(Args { workload, seed, seconds, trace })
    }
}

/// A workload's three entry points.
struct Steps<S> {
    setup: fn(&Ctx, Option<&Recorder>) -> Result<S, String>,
    round: fn(&Ctx, &S, Option<&Recorder>, usize) -> Result<Round, String>,
    /// Fills the recorder with the layer measurements a batch does not
    /// time itself (decode-only and interpret-only passes, layer probes).
    probe: fn(&Ctx, &S, &Recorder) -> Result<(), String>,
}

/// Set-up repetitions: at least three, more while they total under two
/// seconds, so cheap set-ups report a stable median.
fn setup_reps_done(times: &[f64]) -> bool {
    times.len() >= 3 && (times.iter().sum::<f64>() >= 2.0 || times.len() >= 1000)
}

struct Measured {
    setup_s: Option<f64>,
    rounds: Vec<Round>,
    traced: Option<(Round, Recorder)>,
}

fn measure<S>(args: &Args, ctx: &Ctx, steps: &Steps<S>) -> Result<Measured, String> {
    let rec = args.trace.then(Recorder::default);
    let (state, setup_s) = match &rec {
        Some(rec) => ((steps.setup)(ctx, Some(rec))?, None),
        None => {
            let mut times = Vec::new();
            let mut state = None;
            while !setup_reps_done(&times) {
                // Drop the previous set-up first so peak memory holds one.
                drop(state.take());
                let t0 = Instant::now();
                let s = (steps.setup)(ctx, None)?;
                times.push(t0.elapsed().as_secs_f64());
                state = Some(s);
            }
            (state.ok_or("no set-up ran")?, median(&times))
        }
    };
    let mut rounds = Vec::new();
    let mut total = 0.0;
    loop {
        let r = (steps.round)(ctx, &state, None, rounds.len())?;
        total += r.elapsed_s;
        let last = r.elapsed_s;
        rounds.push(r);
        if total + last > args.seconds {
            break;
        }
    }
    let traced = match rec {
        Some(rec) => {
            let r = (steps.round)(ctx, &state, Some(&rec), rounds.len())?;
            (steps.probe)(ctx, &state, &rec)?;
            Some((r, rec))
        }
        None => None,
    };
    Ok(Measured { setup_s, rounds, traced })
}

/// One named metric value with its unit.
pub struct Metric {
    /// Metric name as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit label.
    pub unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn run(args: &Args, ctx: &Ctx) -> Result<(Vec<Metric>, Tally, Vec<String>), String> {
    let m = match args.workload {
        Workload::GridDense => measure(
            args,
            ctx,
            &Steps { setup: grid::setup, round: grid::round, probe: grid::probe },
        )?,
        Workload::Table3 => measure(
            args,
            ctx,
            &Steps { setup: table3::setup, round: table3::round, probe: table3::probe },
        )?,
        Workload::CloneSuite => measure(
            args,
            ctx,
            &Steps { setup: clones::setup, round: clones::round, probe: clones::probe },
        )?,
    };
    let w = args.workload;
    let first = &m.rounds[0];
    let mut failures = Vec::new();
    let mut tally = Tally::default();
    let all: Vec<&Round> = m.rounds.iter().chain(m.traced.iter().map(|(r, _)| r)).collect();
    for (i, r) in all.iter().enumerate() {
        failures.extend(r.failures.iter().map(|f| format!("batch {i}: {f}")));
        tally.add(r.tally);
        if r.stats_digest != first.stats_digest
            || r.clone_digest != first.clone_digest
            || r.fidelity.map(|(a, b)| (a.to_bits(), b.to_bits()))
                != first.fidelity.map(|(a, b)| (a.to_bits(), b.to_bits()))
        {
            failures.push(format!("batch {i}: results differ from batch 0"));
        }
    }

    let elapsed_s =
        median(&m.rounds.iter().map(|r| r.elapsed_s).collect::<Vec<_>>()).ok_or("no batch ran")?;
    let task_ms: Vec<f64> = m.rounds.iter().flat_map(|r| r.task_ms.iter().copied()).collect();
    let p50 = median(&task_ms).ok_or("no task latencies")?;
    let tail = tail(&task_ms)
        .ok_or_else(|| format!("{} tasks are too few for a tail percentile", task_ms.len()))?;
    let items_per_s = first.items as f64 / elapsed_s;
    let rss_mib = perfclone_obs::rss::peak_rss_kib().ok_or("VmHWM unavailable")? as f64 / 1024.0;

    println!(
        "perfbench {} seed={} threads={} batches={} (closed batches; every cell builds its own \
         Pipeline, so modelled caches and predictors start cold)",
        w.name(),
        ctx.seed,
        rayon::current_num_threads(),
        m.rounds.len()
    );
    if let Some(s) = m.setup_s {
        println!("  setup_s        {s:.4} s (lower is better; median set-up)");
    }
    println!("  elapsed_s      {elapsed_s:.4} s (lower is better; median batch)");
    println!("  {:<14} {items_per_s:.2} 1/s (higher is better)", w.items_name());
    println!(
        "  sim_mips       {:.3} M instr/s (higher is better; simulated instructions per host second)",
        first.instrs as f64 / elapsed_s / 1e6
    );
    println!("  task_ms_p50    {p50:.3} ms (lower is better; task = {})", w.task_name());
    println!(
        "  task_ms_tail   {:.3} ms (lower is better; p{} over {} tasks)",
        tail.value, tail.pct, tail.samples
    );
    println!("  simulated      {} instrs, {} cycles per batch", first.instrs, first.cycles);
    println!("  peak_rss_mib   {rss_mib:.2} MiB (lower is better; VmHWM)");
    if let Some((ipc, power)) = first.fidelity {
        println!("  ipc_err_pct    {ipc:.3} % (lower is better; paper {PAPER_IPC_ERR_PCT} %)");
        println!("  power_err_pct  {power:.3} % (lower is better; paper {PAPER_POWER_ERR_PCT} %)");
    }
    println!(
        "  fail_frac      {} (lower is better; {} of {} operations failed)",
        tally.fail_frac(),
        tally.failed(),
        tally.attempted
    );
    println!("  uarch.stats_digest {:016x}", first.stats_digest.value());
    match first.clone_digest {
        Some(d) => println!("  clone digest       {:016x}", d.value()),
        None => println!("  clone digest       n/a (the workload synthesizes no clone)"),
    }

    let metrics = match &m.traced {
        None => vec![
            metric("setup_s", m.setup_s.ok_or("untraced run without set-up time")?, "s"),
            metric("elapsed_s", elapsed_s, "s"),
            metric("items_per_s", items_per_s, "1/s"),
            metric("sim_mips", first.instrs as f64 / elapsed_s / 1e6, "Minstr/s"),
            metric("task_ms_p50", p50, "ms"),
            metric("task_ms_tail", tail.value, "ms"),
            metric("peak_rss_mib", rss_mib, "MiB"),
        ],
        Some((traced, rec)) => {
            let threads = rayon::current_num_threads() as f64;
            let overhead_pct = 100.0 * (traced.elapsed_s - elapsed_s) / elapsed_s;
            let layers = layers::metrics(rec, traced, threads, overhead_pct);
            for l in &layers {
                println!("  {:<34} {} {}", l.name, l.value, l.unit);
            }
            let dest = PathBuf::from(".perfbench").join(format!("{}.trace.json", w.name()));
            std::fs::write(&dest, rec.chrome_trace())
                .map_err(|e| format!("writing {}: {e}", dest.display()))?;
            println!("  spans -> {}", dest.display());
            layers
        }
    };
    for f in &failures {
        println!("  CHECK FAILED: {f}");
    }
    Ok((metrics, tally, failures))
}

/// Clears every `PERFCLONE_*` variable inherited from the caller, so runs
/// use the program's defaults, then points trace spills into `run_dir`.
fn isolate_env(run_dir: &std::path::Path) {
    let inherited: Vec<String> =
        std::env::vars().map(|(k, _)| k).filter(|k| k.starts_with("PERFCLONE_")).collect();
    for k in inherited {
        std::env::remove_var(k);
    }
    std::env::set_var("PERFCLONE_SPILL_DIR", run_dir.join("spill"));
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let run_dir = PathBuf::from(".perfbench").join(format!("run-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(run_dir.join("spill")) {
        eprintln!("perfbench: creating {}: {e}", run_dir.display());
        return ExitCode::FAILURE;
    }
    isolate_env(&run_dir);
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get()).min(2);
    if rayon::ThreadPoolBuilder::new().num_threads(threads).build_global().is_err() {
        eprintln!("perfbench: cannot size the thread pool");
        return ExitCode::FAILURE;
    }
    let ctx = Ctx { seed: args.seed, run_dir };
    let result = run(&args, &ctx);
    let _ = std::fs::remove_dir_all(&ctx.run_dir);
    let (metrics, tally, failures) = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload.name());
            return ExitCode::FAILURE;
        }
    };
    let nonfinite = metrics.iter().any(|m| !m.value.is_finite());
    let correct = failures.is_empty() && tally.failed() == 0 && !nonfinite;
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!("\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}", m.name, m.unit)
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted,
        tally.failed(),
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
