//! Workload suites: EEMBC-style aggregation of per-benchmark results into
//! a single mark, for both real programs and their clones.
//!
//! The paper's motivation (§1) is exactly this setting: embedded vendors
//! benchmark processors with suite-level marks (EEMBC's AutoMark,
//! TeleMark, …), but want the marks to reflect *their* applications. A
//! [`Suite`] bundles programs with weights; [`suite_mark`] computes the
//! geometric-mean IPC mark of a suite on a machine, so a cloned suite can
//! stand in for a proprietary one.

use perfclone_isa::Program;
use perfclone_uarch::MachineConfig;
use perfclone_validate::Gate;
use rayon::prelude::*;

use crate::{derive_cell_seed, run_timing, Cloner, Error, SynthesisParams};

/// A named, weighted collection of programs.
#[derive(Debug)]
pub struct Suite {
    name: String,
    entries: Vec<(Program, f64)>,
}

impl Suite {
    /// Creates an empty suite.
    pub fn new(name: impl Into<String>) -> Suite {
        Suite { name: name.into(), entries: Vec::new() }
    }

    /// The suite's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Adds a program with the given weight (weights need not sum to 1).
    ///
    /// # Errors
    ///
    /// Returns [`Error::NonPositiveWeight`] if `weight` is zero, negative,
    /// or NaN; the suite is left unchanged.
    pub fn push(&mut self, program: Program, weight: f64) -> Result<(), Error> {
        // partial_cmp: NaN is incomparable (None), so it is rejected too.
        if !matches!(weight.partial_cmp(&0.0), Some(std::cmp::Ordering::Greater)) {
            return Err(Error::NonPositiveWeight { name: program.name().to_string(), weight });
        }
        self.entries.push((program, weight));
        Ok(())
    }

    /// Number of programs.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the suite is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The programs and weights.
    pub fn entries(&self) -> impl Iterator<Item = (&Program, f64)> {
        self.entries.iter().map(|(p, w)| (p, *w))
    }

    /// Builds the suite of clones: every member profiled and synthesized
    /// with `cloner`, weights preserved. Each clone must pass the default
    /// fidelity [`Gate`] before it is admitted to the cloned suite.
    ///
    /// # Errors
    ///
    /// Everything [`Cloner::clone_program`] returns, plus
    /// [`Error::Validate`] when a member's clone fails the gate (the
    /// wrapped report names every violated attribute).
    pub fn clone_suite(&self, cloner: &Cloner) -> Result<Suite, Error> {
        self.clone_suite_with(cloner, &Gate::default())
    }

    /// [`clone_suite`](Suite::clone_suite) under an explicit fidelity
    /// gate (e.g. loosened tolerances for deliberately degraded clones).
    pub fn clone_suite_with(&self, cloner: &Cloner, gate: &Gate) -> Result<Suite, Error> {
        let mut out = Suite::new(format!("{}-clone", self.name));
        for (program, weight) in self.entries() {
            let (outcome, _report) = cloner.clone_validated(program, u64::MAX, gate)?;
            out.push(outcome.clone, weight)?;
        }
        Ok(out)
    }

    /// Parallel suite cloning: members fan over the ambient thread pool,
    /// each synthesized with a per-member seed derived from `root_seed`
    /// and the member's (name, index) cell via
    /// [`derive_cell_seed`]. Because the seed depends only on the cell —
    /// never on which thread ran it — the cloned suite is identical at
    /// any thread count, and two runs with the same root seed produce the
    /// same clones. Every clone must pass `gate`.
    ///
    /// # Errors
    ///
    /// Same as [`clone_suite`](Suite::clone_suite); when several members
    /// fail, the reported error is the first in member order (independent
    /// of thread schedule).
    pub fn clone_suite_par(
        &self,
        cloner: &Cloner,
        root_seed: u64,
        gate: &Gate,
    ) -> Result<Suite, Error> {
        let cells: Vec<(usize, &Program, f64)> =
            self.entries.iter().enumerate().map(|(i, (p, w))| (i, p, *w)).collect();
        let cloned: Vec<Result<(Program, f64), Error>> = cells
            .par_iter()
            .map(|&(i, program, weight)| {
                let params = SynthesisParams {
                    seed: derive_cell_seed(root_seed, program.name(), i as u64),
                    ..*cloner.params()
                };
                let (outcome, _report) =
                    Cloner::with_params(params).clone_validated(program, u64::MAX, gate)?;
                Ok((outcome.clone, weight))
            })
            .collect();
        let mut out = Suite::new(format!("{}-clone", self.name));
        for entry in cloned {
            let (program, weight) = entry?;
            out.push(program, weight)?;
        }
        Ok(out)
    }
}

/// A suite mark: weighted geometric mean of per-program IPC (the EEMBC
/// aggregation), plus the weighted arithmetic mean power.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SuiteMark {
    /// Weighted geometric-mean IPC.
    pub ipc_mark: f64,
    /// Weighted arithmetic-mean power.
    pub power_mark: f64,
}

/// Computes the suite mark of `suite` on `config`. Per-member timing runs
/// fan over the ambient thread pool; the weighted reduction happens
/// serially in member order, so the mark is bit-identical at any thread
/// count.
///
/// # Errors
///
/// Returns [`Error::EmptySuite`] for an empty suite and [`Error::Sim`] if
/// a member faults during its timing run; when several members fault,
/// the reported error is the first in member order (independent of
/// thread schedule).
pub fn suite_mark(suite: &Suite, config: &MachineConfig, limit: u64) -> Result<SuiteMark, Error> {
    if suite.is_empty() {
        return Err(Error::EmptySuite { name: suite.name().to_string() });
    }
    let cells: Vec<(&Program, f64)> = suite.entries().collect();
    let timed: Vec<Result<(f64, f64), Error>> = cells
        .par_iter()
        .map(|&(program, weight)| {
            let t = run_timing(program, config, limit)?;
            Ok((weight * t.report.ipc().ln(), weight * t.power.average_power))
        })
        .collect();
    let mut log_sum = 0.0;
    let mut power_sum = 0.0;
    let mut weight_sum = 0.0;
    for (cell, (_, weight)) in timed.into_iter().zip(&cells) {
        let (log_w, power_w) = cell?;
        log_sum += log_w;
        power_sum += power_w;
        weight_sum += weight;
    }
    Ok(SuiteMark { ipc_mark: (log_sum / weight_sum).exp(), power_mark: power_sum / weight_sum })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{base_config, SynthesisParams};
    use perfclone_kernels::{by_name, Scale};

    fn program(name: &str) -> Program {
        by_name(name).expect("kernel exists").build(Scale::Tiny).program
    }

    #[test]
    fn suite_mark_is_between_member_ipcs() {
        let mut s = Suite::new("auto");
        s.push(program("bitcount"), 1.0).unwrap();
        s.push(program("qsort"), 1.0).unwrap();
        let mark = suite_mark(&s, &base_config(), u64::MAX).unwrap();
        assert!(mark.ipc_mark > 0.3 && mark.ipc_mark <= 1.0);
        assert!(mark.power_mark > 0.0);
    }

    #[test]
    fn cloned_suite_mark_tracks_real_mark() {
        let mut s = Suite::new("telecom");
        s.push(program("crc32"), 2.0).unwrap();
        s.push(program("adpcm_enc"), 1.0).unwrap();
        let cloner = Cloner::with_params(SynthesisParams {
            target_dynamic: 60_000,
            ..SynthesisParams::default()
        });
        let clones = s.clone_suite(&cloner).unwrap();
        assert_eq!(clones.len(), s.len());
        assert_eq!(clones.name(), "telecom-clone");
        let real = suite_mark(&s, &base_config(), u64::MAX).unwrap();
        let synth = suite_mark(&clones, &base_config(), u64::MAX).unwrap();
        let err = ((synth.ipc_mark - real.ipc_mark) / real.ipc_mark).abs();
        assert!(err < 0.3, "suite mark error {err:.3}");
    }

    /// The mark equals the weighted geometric-mean IPC and arithmetic-mean
    /// power of the members' live-interpreter runs, at any thread count.
    #[test]
    fn mark_matches_reference_at_any_thread_count() {
        let mut s = Suite::new("auto");
        s.push(program("bitcount"), 1.0).unwrap();
        s.push(program("qsort"), 2.5).unwrap();
        s.push(program("crc32"), 0.5).unwrap();
        let (mut log_sum, mut power_sum, mut weight_sum) = (0.0, 0.0, 0.0);
        for (p, w) in s.entries() {
            let t = run_timing(p, &base_config(), 60_000).unwrap();
            log_sum += w * t.report.ipc().ln();
            power_sum += w * t.power.average_power;
            weight_sum += w;
        }
        let (ipc, power) = ((log_sum / weight_sum).exp(), power_sum / weight_sum);
        for jobs in [1usize, 4] {
            let pool = rayon::ThreadPoolBuilder::new().num_threads(jobs).build().expect("pool");
            let mark = pool.install(|| suite_mark(&s, &base_config(), 60_000)).unwrap();
            assert_eq!(mark.ipc_mark.to_bits(), ipc.to_bits(), "jobs = {jobs}");
            assert_eq!(mark.power_mark.to_bits(), power.to_bits(), "jobs = {jobs}");
        }
    }

    #[test]
    fn parallel_cloning_is_deterministic_across_thread_counts() {
        let mut s = Suite::new("telecom");
        s.push(program("crc32"), 2.0).unwrap();
        s.push(program("adpcm_enc"), 1.0).unwrap();
        let cloner = Cloner::with_params(SynthesisParams {
            target_dynamic: 40_000,
            ..SynthesisParams::default()
        });
        let gate = Gate::default();
        let root = 0xFEED_F00D;
        let render = |suite: &Suite| -> Vec<String> {
            suite.entries().map(|(p, w)| format!("{w} {p:?}")).collect()
        };
        let narrow = rayon::ThreadPoolBuilder::new().num_threads(1).build().expect("pool");
        let wide = rayon::ThreadPoolBuilder::new().num_threads(4).build().expect("pool");
        let a = narrow.install(|| s.clone_suite_par(&cloner, root, &gate)).unwrap();
        let b = wide.install(|| s.clone_suite_par(&cloner, root, &gate)).unwrap();
        let c = wide.install(|| s.clone_suite_par(&cloner, root, &gate)).unwrap();
        assert_eq!(render(&a), render(&b), "1 thread vs 4 threads");
        assert_eq!(render(&b), render(&c), "same root seed, two runs");
        // A different root seed must produce different clones.
        let d = wide.install(|| s.clone_suite_par(&cloner, root + 1, &gate)).unwrap();
        assert_ne!(render(&a), render(&d));
    }

    #[test]
    fn zero_weight_rejected() {
        let mut s = Suite::new("bad");
        let err = s.push(program("crc32"), 0.0).unwrap_err();
        assert!(
            matches!(err, Error::NonPositiveWeight { ref name, weight } if name == "crc32" && weight == 0.0)
        );
        assert!(s.is_empty(), "rejected member must not be added");
        assert!(s.push(program("crc32"), -1.0).is_err());
        assert!(s.push(program("crc32"), f64::NAN).is_err());
    }

    #[test]
    fn empty_suite_rejected() {
        let s = Suite::new("none");
        let err = suite_mark(&s, &base_config(), 1000).unwrap_err();
        assert!(matches!(err, Error::EmptySuite { ref name } if name == "none"));
    }
}
