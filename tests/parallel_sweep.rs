//! Cross-crate integration tests for the parallel design-space sweep
//! engine: the drivers must reproduce an independent per-cell reference
//! (the live interpreter, or per-configuration cache replay) bit for bit
//! at every thread count, the shared [`WorkloadCache`]
//! must hand out one `Arc` per workload no matter how many sweep cells ask
//! for it, and everything that crosses a thread boundary must be
//! `Send + Sync`.

use std::sync::Arc;

use perfclone::experiments::{cache_sweep_pair, design_change_sweep};
use perfclone::suite::{suite_mark, Suite};
use perfclone::{
    base_config, cache_sweep, derive_cell_seed, design_changes, run_timing, sweep_trace,
    AddressTrace, CacheConfig, Cloner, Gate, MachineConfig, SynthesisParams, TimingResult,
    WorkloadCache, WorkloadProfile,
};
use perfclone_isa::Program;
use perfclone_kernels::{catalog, Scale};
use perfclone_uarch::{run_par, sweep_dcache, sweep_dcache_replay};
use rayon::prelude::*;

/// Everything handed to a rayon task must cross threads.
#[test]
fn sweep_inputs_and_outputs_are_send_and_sync() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Program>();
    assert_send_sync::<WorkloadProfile>();
    assert_send_sync::<MachineConfig>();
    assert_send_sync::<CacheConfig>();
    assert_send_sync::<SynthesisParams>();
    assert_send_sync::<Cloner>();
    assert_send_sync::<WorkloadCache>();
    assert_send_sync::<Suite>();
    assert_send_sync::<TimingResult>();
    assert_send_sync::<AddressTrace>();
}

fn tiny_program(index: usize) -> (&'static str, Program) {
    let kernel = &catalog()[index % catalog().len()];
    (kernel.name(), kernel.build(Scale::Tiny).program)
}

#[test]
fn uarch_run_par_matches_serial_at_every_width() {
    let (_, program) = tiny_program(0);
    let configs = cache_sweep();
    assert!(configs.len() >= 8, "acceptance requires a >=8-config sweep");
    let serial = sweep_dcache(&program, &configs, u64::MAX);
    for jobs in [1, 2, 4, 7] {
        let par = run_par(&program, &configs, u64::MAX, jobs);
        assert_eq!(serial, par, "jobs={jobs} diverged from serial");
    }
}

fn assert_same_timing(reference: &TimingResult, got: &TimingResult, what: &str) {
    assert_eq!(reference.report, got.report, "{what}: pipeline report");
    assert_eq!(
        reference.power.average_power.to_bits(),
        got.power.average_power.to_bits(),
        "{what}"
    );
    assert_eq!(reference.power.total_energy.to_bits(), got.power.total_energy.to_bits(), "{what}");
}

/// The core drivers against references that share none of their
/// machinery: `cache_sweep_pair` against one full functional replay per
/// configuration, `design_change_sweep` against the live interpreter on
/// every (program × configuration) cell.
#[test]
fn core_parallel_drivers_are_bit_identical_to_serial() {
    let (name, program) = tiny_program(1);
    let clone = Cloner::new().clone_program(&program, u64::MAX).expect("clone").clone;
    let configs = cache_sweep();
    let mpi = |p: &Program| -> Vec<f64> {
        sweep_dcache_replay(p, &configs, u64::MAX).iter().map(|pt| pt.mpi()).collect()
    };
    let (real_mpi, synth_mpi) = (mpi(&program), mpi(&clone));
    let mut machines = vec![base_config()];
    machines.extend(design_changes());
    let timing: Vec<(TimingResult, TimingResult)> = machines
        .iter()
        .map(|c| {
            let real = run_timing(&program, c, u64::MAX).expect("real timing");
            (real, run_timing(&clone, c, u64::MAX).expect("clone timing"))
        })
        .collect();

    for jobs in [1, 4, 8] {
        let pool = rayon::ThreadPoolBuilder::new().num_threads(jobs).build().unwrap();
        let sweep = pool.install(|| cache_sweep_pair(&program, &clone, &configs, u64::MAX));
        assert_eq!(sweep.real_mpi, real_mpi, "{name}: real MPI, jobs={jobs}");
        assert_eq!(sweep.synth_mpi, synth_mpi, "{name}: clone MPI, jobs={jobs}");

        let design = pool
            .install(|| design_change_sweep(&program, &clone, &base_config(), u64::MAX))
            .unwrap();
        assert_same_timing(&timing[0].0, &design.base_real, &format!("base real, jobs={jobs}"));
        assert_same_timing(&timing[0].1, &design.base_synth, &format!("base clone, jobs={jobs}"));
        assert_eq!(design.changes.len(), machines.len() - 1);
        for ((real, synth), change) in timing[1..].iter().zip(&design.changes) {
            let what = format!("{}, jobs={jobs}", change.config.name);
            assert_same_timing(real, &change.real, &what);
            assert_same_timing(synth, &change.synth, &what);
        }
    }
}

/// The whole pipeline — seeded suite cloning plus the suite mark — must be a
/// pure function of the root seed, independent of worker count, and stable
/// across repeated runs.
#[test]
fn suite_pipeline_is_deterministic_across_thread_counts_and_runs() {
    let mut suite = Suite::new("integration");
    for (index, kernel) in catalog().iter().take(3).enumerate() {
        suite.push(kernel.build(Scale::Tiny).program, 1.0 + index as f64).unwrap();
    }
    let cloner = Cloner::new();
    let root = 0xD15EA5E;

    let render = |jobs: usize, root_seed: u64| {
        let pool = rayon::ThreadPoolBuilder::new().num_threads(jobs).build().unwrap();
        pool.install(|| {
            let clones = suite.clone_suite_par(&cloner, root_seed, &Gate::default()).unwrap();
            let mark = suite_mark(&clones, &base_config(), u64::MAX).unwrap();
            // Reference: the weighted means over per-member interpreter runs.
            let (mut log_sum, mut power_sum, mut weight_sum) = (0.0, 0.0, 0.0);
            for (p, w) in clones.entries() {
                let t = run_timing(p, &base_config(), u64::MAX).unwrap();
                log_sum += w * t.report.ipc().ln();
                power_sum += w * t.power.average_power;
                weight_sum += w;
            }
            assert_eq!(mark.ipc_mark.to_bits(), (log_sum / weight_sum).exp().to_bits());
            assert_eq!(mark.power_mark.to_bits(), (power_sum / weight_sum).to_bits());
            let members: Vec<String> =
                clones.entries().map(|(p, w)| format!("{w} {p:?}")).collect();
            format!("{} {} {members:?}", mark.ipc_mark, mark.power_mark)
        })
    };

    let one = render(1, root);
    assert_eq!(one, render(4, root), "thread count changed the suite result");
    assert_eq!(one, render(4, root), "repeat run with the same root seed diverged");
    assert_ne!(one, render(4, root + 1), "a different root seed must perturb the clones");
}

/// Many parallel sweep cells over the same workload share one cached
/// profile: every cell gets the same `Arc`, and the profiler runs once.
#[test]
fn workload_cache_is_shared_across_a_parallel_sweep() {
    let (name, program) = tiny_program(2);
    let cache = WorkloadCache::new();
    let configs = cache_sweep();

    let profiles: Vec<Arc<WorkloadProfile>> =
        configs.par_iter().map(|_| cache.profile(name, &program, u64::MAX).unwrap()).collect();
    let first = &profiles[0];
    assert!(profiles.iter().all(|p| Arc::ptr_eq(first, p)));

    let stats = cache.snapshot();
    assert_eq!(stats.profile_computes, 1, "profiler must run exactly once");
    assert_eq!(stats.profile_lookups, configs.len() as u64);

    // Clones drawn through the cache are keyed by their synthesis params:
    // per-cell seeds derived from distinct cells yield distinct clones.
    let base = SynthesisParams::default();
    let a = cache
        .clone_program(
            name,
            &program,
            u64::MAX,
            &SynthesisParams { seed: derive_cell_seed(7, name, 0), ..base },
        )
        .unwrap();
    let b = cache
        .clone_program(
            name,
            &program,
            u64::MAX,
            &SynthesisParams { seed: derive_cell_seed(7, name, 1), ..base },
        )
        .unwrap();
    let a_again = cache
        .clone_program(
            name,
            &program,
            u64::MAX,
            &SynthesisParams { seed: derive_cell_seed(7, name, 0), ..base },
        )
        .unwrap();
    assert!(Arc::ptr_eq(&a, &a_again));
    assert!(!Arc::ptr_eq(&a, &b));
}

/// The address-trace entry feeding the single-pass cache engine behaves
/// like the other cached artifacts: many parallel sweep cells asking for
/// one workload's trace trigger exactly one functional simulation, every
/// requester sees the same `Arc`, and the cached trace drives the engine
/// to the same answer as a fresh extraction.
#[test]
fn address_trace_is_extracted_once_per_workload_across_a_sweep() {
    let (name, program) = tiny_program(3);
    let cache = WorkloadCache::new();
    let configs = cache_sweep();

    let traces: Vec<Arc<AddressTrace>> =
        configs.par_iter().map(|_| cache.address_trace(name, &program, u64::MAX)).collect();
    let first = &traces[0];
    assert!(traces.iter().all(|t| Arc::ptr_eq(first, t)));

    let stats = cache.snapshot();
    assert_eq!(stats.addr_trace_computes, 1, "functional simulator must run exactly once");
    assert_eq!(stats.addr_trace_lookups, configs.len() as u64);
    // Address traces and profiles are independent entries: no profile was
    // computed on this cache.
    assert_eq!(stats.profile_computes, 0);

    // A different limit is a different trace.
    let truncated = cache.address_trace(name, &program, 1_000);
    assert!(!Arc::ptr_eq(first, &truncated));
    assert_eq!(cache.snapshot().addr_trace_computes, 2);

    // The cached trace is transparent: the engine produces the same sweep
    // from it as from a direct extraction.
    let direct = AddressTrace::extract(&program, u64::MAX);
    assert_eq!(**first, direct);
    assert_eq!(sweep_trace(first, &configs), sweep_trace(&direct, &configs));
}
