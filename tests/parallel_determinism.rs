//! Determinism guarantees of the performance layers:
//!
//! 1. the work-stealing sweep pool — tables rendered with `--jobs 8` must
//!    be **byte-identical** to a serial run;
//! 2. the batched trace kernel — counters from the batched scheduler path
//!    must equal the unbatched (per-event dispatch) path exactly, across
//!    plain, fault-injecting, and oracle-checked configurations;
//! 3. the span interleave — counters with telemetry on (the hooked
//!    per-instruction path) must equal telemetry off.

use gaas_experiments::{ablations, fig2, pool};
use gaas_sim::config::{DiffCheckConfig, FaultConfig, SimConfig};
use gaas_sim::{sim, workload, SimResult};
use gaas_trace::{Trace, UnbatchedTrace};

/// Small but non-trivial scale: thousands of instructions per benchmark,
/// enough to cross many batch boundaries and several context switches.
const SCALE: f64 = 2e-4;

fn fig2_tables(scale: f64) -> String {
    let rows = fig2::run(scale);
    fig2::table(&rows).to_string()
}

fn ablation_tables(scale: f64) -> String {
    let rows = ablations::tlb_penalty(scale);
    ablations::table(&rows).to_string()
}

/// One test (not several) so the process-global jobs knob is never raced
/// by a concurrently running case.
#[test]
fn parallel_sweeps_render_byte_identical_tables() {
    pool::set_jobs(1);
    let serial_fig2 = fig2_tables(SCALE);
    let serial_abl = ablation_tables(SCALE);

    pool::set_jobs(8);
    let par_fig2 = fig2_tables(SCALE);
    let par_abl = ablation_tables(SCALE);
    pool::set_jobs(1);

    assert_eq!(serial_fig2, par_fig2, "fig2 tables diverge across --jobs");
    assert_eq!(serial_abl, par_abl, "ablation tables diverge across --jobs");
}

fn run_batched(cfg: &SimConfig) -> SimResult {
    sim::run(cfg.clone(), workload::standard(SCALE)).expect("run completes")
}

fn run_unbatched(cfg: &SimConfig) -> SimResult {
    let traces: Vec<Box<dyn Trace>> = workload::standard(SCALE)
        .into_iter()
        .map(|t| Box::new(UnbatchedTrace(t)) as Box<dyn Trace>)
        .collect();
    sim::run(cfg.clone(), traces).expect("run completes")
}

fn assert_same_results(cfg: SimConfig, label: &str) {
    let batched = run_batched(&cfg);
    let unbatched = run_unbatched(&cfg);
    assert_eq!(
        batched.counters, unbatched.counters,
        "{label}: counters diverge between batched and unbatched delivery"
    );
    assert_eq!(
        batched.completed, unbatched.completed,
        "{label}: completion order"
    );
    assert_eq!(
        batched.per_process, unbatched.per_process,
        "{label}: per-process stats"
    );
}

#[test]
fn batched_kernel_matches_unbatched_baseline() {
    assert_same_results(SimConfig::baseline(), "baseline");
}

#[test]
fn batched_kernel_matches_unbatched_optimized() {
    assert_same_results(SimConfig::optimized(), "optimized");
}

#[test]
fn batched_kernel_matches_unbatched_with_fault_injection() {
    use gaas_sim::{FaultRates, Protection, ProtectionMap};
    let mut cfg = SimConfig::baseline();
    cfg.fault = FaultConfig {
        seed: 0xF00D,
        rates: FaultRates::uniform(1e-4),
        protection: ProtectionMap::uniform(Protection::Ecc),
        ..FaultConfig::default()
    };
    let probe = run_batched(&cfg);
    assert!(
        probe.counters.faults_injected > 0,
        "fault rate too low to exercise the injector at this scale"
    );
    assert_same_results(cfg, "fault-injection");
}

#[test]
fn batched_kernel_matches_unbatched_with_oracle_on() {
    let mut cfg = SimConfig::baseline();
    cfg.diffcheck = DiffCheckConfig::on();
    let probe = run_batched(&cfg);
    assert!(
        probe.counters.instructions > 0,
        "oracle-checked run retires instructions"
    );
    assert_same_results(cfg, "diffcheck-on");
}

/// Telemetry observes a run without changing it: with it on, the single
/// CPU takes the per-instruction hooked path instead of the span
/// interleave, and every counter, per-process row, completion, poll
/// boundary and checkpoint must still equal the telemetry-off run. The
/// tier-1 twin of `perf_baseline`'s `telemetry_equals_disabled` gate,
/// over seeded configurations.
#[test]
fn telemetry_on_equals_telemetry_off() {
    use gaas_sim::{L2Config, TelemetryConfig, WritePolicy};
    use gaas_trace::rng::SmallRng;
    let mut rng = SmallRng::seed_from_u64(0x7E1E_70FF);
    for round in 0..4 {
        let policies = WritePolicy::all();
        let mut b = SimConfig::builder();
        b.policy(policies[rng.gen_range(0..policies.len())])
            .mp_level([1usize, 4, 8][rng.gen_range(0..3usize)])
            .l2_drain_access(rng.gen_range(2..=10u32));
        if rng.gen_bool(0.5) {
            b.l2(L2Config::split_even(
                [65_536u64, 262_144][rng.gen_range(0..2usize)],
                if rng.gen_bool(0.5) { 1 } else { 2 },
                6,
            ));
        }
        if rng.gen_bool(0.5) {
            b.checkpoint_interval(rng.gen_range(2_000..20_000u64));
        }
        if rng.gen_bool(0.5) {
            b.instruction_budget(rng.gen_range(20_000..200_000u64));
        }
        let off = b.build().expect("drawn configs stay valid");
        let mut on = off.clone();
        on.telemetry = TelemetryConfig::on();
        let label = format!("round {round}: {off}");
        let (plain, observed) = (run_batched(&off), run_batched(&on));
        assert_eq!(plain.counters, observed.counters, "{label}: counters");
        assert_eq!(
            plain.per_process, observed.per_process,
            "{label}: per-process stats"
        );
        assert_eq!(plain.completed, observed.completed, "{label}: completion");
        assert_eq!(
            plain.termination, observed.termination,
            "{label}: termination"
        );
        assert_eq!(
            plain.checkpoints, observed.checkpoints,
            "{label}: checkpoints"
        );
    }
}
