//! `clone-suite`: the vendor path. `Cloner::clone_validated` — profile,
//! synthesize, fidelity gate — for each of the 23 Table-1 kernels at small
//! scale, each kernel's synthesis seed derived from the workload seed. The
//! timing model does no work here.

use std::time::Instant;

use perfclone::{
    derive_cell_seed, profile_program, Cloner, Error, Gate, SynthesisParams, ValidateError,
    ValidationReport, Verdict,
};
use perfclone_isa::Program;
use perfclone_kernels::{catalog, Scale};
use rayon::prelude::*;

use crate::layers;
use crate::probe::{probed, Recorder};
use crate::stats::{Digest, Tally};
use crate::{Ctx, Round};

/// Instructions of the first kernel the layer probe covers.
const PROBE_LIMIT: u64 = 200_000;

/// The built kernels.
pub struct State {
    names: Vec<&'static str>,
    programs: Vec<Program>,
    gate: Gate,
}

/// Builds the 23 kernels.
pub fn setup(_ctx: &Ctx, rec: Option<&Recorder>) -> Result<State, String> {
    let kernels: Vec<_> = catalog().iter().collect();
    let programs = kernels
        .par_iter()
        .map(|k| probed(rec, "kernels.build", || k.build(Scale::Small).program, |_| 1.0))
        .collect();
    let names = kernels.iter().map(|k| k.name()).collect();
    Ok(State { names, programs, gate: Gate::default() })
}

fn params(seed: u64, name: &str) -> SynthesisParams {
    SynthesisParams { seed: derive_cell_seed(seed, name, 0), ..SynthesisParams::default() }
}

/// One kernel's validated clone, with the instructions interpreted to
/// produce it: the original's profile run and the gate's re-profile.
struct Cloned {
    clone: Program,
    report: ValidationReport,
    instrs: u64,
}

/// Clones and gates every kernel over the thread pool.
pub fn round(ctx: &Ctx, st: &State, rec: Option<&Recorder>, _n: usize) -> Result<Round, String> {
    let idx: Vec<usize> = (0..st.programs.len()).collect();
    let t0 = Instant::now();
    let results: Vec<(Result<Cloned, Error>, f64)> = idx
        .par_iter()
        .map(|&k| {
            let (name, program) = (st.names[k], &st.programs[k]);
            match rec {
                None => {
                    let t = Instant::now();
                    let r = Cloner::with_params(params(ctx.seed, name))
                        .clone_validated(program, u64::MAX, &st.gate)
                        .map(|(outcome, report)| Cloned {
                            instrs: outcome.profile.total_instrs + report.clone_instrs,
                            clone: outcome.clone,
                            report,
                        });
                    (r, t.elapsed().as_secs_f64() * 1e3)
                }
                Some(rec) => {
                    let (r, ns) = rec.time("clone.kernel", || traced_clone(rec, ctx, st, k));
                    rec.add("task", ns as f64, 1.0);
                    (r, ns as f64 / 1e6)
                }
            }
        })
        .collect();
    let elapsed_s = t0.elapsed().as_secs_f64();

    let mut failures = Vec::new();
    let mut tally = Tally { attempted: idx.len() as u64, ..Tally::default() };
    let mut digest = Digest::default();
    let mut instrs = 0;
    let mut items = 0;
    for (k, (r, _)) in results.iter().enumerate() {
        match r {
            Ok(c) => {
                digest.bytes(format!("{:?}", c.clone).as_bytes());
                instrs += c.instrs;
                items += 1;
                if let Some(rec) = rec {
                    let verdict = match c.report.verdict() {
                        Verdict::Pass => "validate.pass",
                        Verdict::Warn => "validate.warn",
                        Verdict::Fail => "validate.fail",
                    };
                    rec.add(verdict, 0.0, 1.0);
                }
            }
            Err(Error::Validate(ValidateError::GateFailed(report))) => {
                tally.gate_failed += 1;
                failures.push(format!(
                    "{}: gate failed: {}",
                    st.names[k],
                    report.failure_summary()
                ));
                if let Some(rec) = rec {
                    rec.add("validate.fail", 0.0, 1.0);
                }
            }
            Err(e) => {
                tally.errored += 1;
                failures.push(format!("{}: {e}", st.names[k]));
            }
        }
    }
    Ok(Round {
        elapsed_s,
        items,
        instrs,
        cycles: 0,
        task_ms: results.iter().map(|(_, ms)| *ms).collect(),
        tally,
        stats_digest: Digest::default(),
        clone_digest: Some(digest),
        fidelity: None,
        failures,
    })
}

/// `clone_validated` rebuilt from the public calls it makes —
/// `profile_program`, `Cloner::clone_program_from`, `Gate::report` — each
/// timed.
fn traced_clone(rec: &Recorder, ctx: &Ctx, st: &State, k: usize) -> Result<Cloned, Error> {
    let (name, program) = (st.names[k], &st.programs[k]);
    let (profile, ns) = rec.time("profile.program", || profile_program(program, u64::MAX));
    let profile = profile?;
    rec.add(&format!("profile.program:{name}"), ns as f64, profile.total_instrs as f64);
    let cloner = Cloner::with_params(params(ctx.seed, name));
    let clone = rec.layer("synth.gen", || cloner.clone_program_from(&profile), |_| 1.0)?;
    rec.add("synth.clone_instrs", 0.0, clone.len() as f64);
    let report = rec.layer("validate.gate", || st.gate.report(&profile, &clone), |_| 1.0)?;
    let report = report.into_result()?;
    Ok(Cloned { instrs: profile.total_instrs + report.clone_instrs, clone, report })
}

/// Interpret-only passes over the 23 kernels, then the layers the vendor
/// path never calls (capture, decode, timing model, power, journal,
/// Pareto) probed on the first kernel.
pub fn probe(ctx: &Ctx, st: &State, rec: &Recorder) -> Result<(), String> {
    layers::collect_passes(rec, &st.names, &st.programs)?;
    let fill = Recorder::default();
    let dir = ctx.run_dir.join("probe-journal");
    layers::exercise(&fill, st.names[0], &st.programs[0], PROBE_LIMIT, &dir)?;
    layers::fill(rec, &fill);
    Ok(())
}
