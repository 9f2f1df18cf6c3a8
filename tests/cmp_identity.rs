//! The CMP engine's correctness anchor: a 1-core CMP run is
//! **byte-identical** to the validated single-CPU simulator.
//!
//! Six angles:
//!
//! * **identity fuzz** — seeded random configurations (L2 organization,
//!   write policy, drain timing, multiprogramming level, instruction
//!   budget, fault injection under both machine-check policies,
//!   checkpoint interval and the differential oracle all vary) run
//!   through both engines; every counter, every per-process row, the
//!   completion order, the termination, the checkpoints and any error
//!   must match exactly;
//! * **directory filtering** — a 2-core run of *disjoint* processes
//!   generates zero coherence traffic (no invalidations, no
//!   cache-to-cache transfers, no coherence stall): the snoop filter
//!   works, and coherence CPI scales with sharing, not core count;
//! * **oracle smoke** — a 2-core run with real sharing and the
//!   coherence oracle enabled completes with zero invariant violations
//!   while actually exercising the protocol (invalidations observed);
//! * **multi-core pins** — 2- and 4-core runs over seeded sharing
//!   streams (one with the oracle on) and a hand-built
//!   invalidate-then-reload case reproduce recorded counter digests;
//! * **multi-core run hooks** — cancellation, fault injection and
//!   checkpoints on a 2-core run;
//! * **span interleave** — seeded 2- to 8-core runs with uneven loads,
//!   budgets, checkpoints and warm-ups equal the same runs on the
//!   per-instruction path the coherence oracle forces.

use gaas_experiments::runner;
use gaas_sim::config::SimConfig;
use gaas_sim::{
    CancelToken, CmpConfig, DiffCheckConfig, FaultConfig, FaultRates, L2Config, MachineCheckPolicy,
    Protection, ProtectionMap, SimError, WritePolicy, MAX_CORES,
};
use gaas_trace::rng::SmallRng;

const SCALE: f64 = 5e-5;

/// Draws a random-but-valid configuration: the differential-oracle
/// fuzz's envelope, plus the run-level knobs (budget, faults,
/// checkpoints, the oracle itself).
fn random_config(rng: &mut SmallRng) -> SimConfig {
    let policies = WritePolicy::all();
    let policy = policies[rng.gen_range(0..policies.len())];
    let l2_total = [65_536u64, 131_072, 262_144][rng.gen_range(0..3usize)];
    let l2 = if rng.gen_bool(0.5) {
        L2Config::split_even(l2_total, if rng.gen_bool(0.5) { 1 } else { 2 }, 6)
    } else {
        let mut base = L2Config::base();
        if let L2Config::Unified(side) = &mut base {
            side.size_words = l2_total;
        }
        base
    };
    let suite = runner::suite_instructions(SCALE);
    let mut b = SimConfig::builder();
    b.policy(policy)
        .l2(l2)
        .l2_drain_access(rng.gen_range(2..=10u32))
        .mp_level(*[1usize, 4, 8].get(rng.gen_range(0..3usize)).unwrap());
    if rng.gen_bool(0.3) {
        b.instruction_budget(rng.gen_range(suite / 4..suite));
    }
    if rng.gen_bool(0.5) {
        b.checkpoint_interval(rng.gen_range(suite / 20..suite / 3));
    }
    // The oracle and fault injection are mutually exclusive.
    if rng.gen_bool(0.25) {
        b.diffcheck(DiffCheckConfig::on());
    } else if rng.gen_bool(0.6) {
        let protection = [Protection::None, Protection::Parity, Protection::Ecc];
        b.fault(FaultConfig {
            seed: rng.next_u64(),
            rates: FaultRates::uniform([1e-4, 3e-4, 1e-3][rng.gen_range(0..3usize)]),
            protection: ProtectionMap::uniform(protection[rng.gen_range(0..3usize)]),
            multi_bit_frac: [0.0, 0.1, 0.3][rng.gen_range(0..3usize)],
            machine_check: if rng.gen_bool(0.5) {
                MachineCheckPolicy::Halt
            } else {
                MachineCheckPolicy::Restart
            },
            ..FaultConfig::default()
        });
    }
    b.build().expect("randomized configs stay valid")
}

#[test]
fn one_core_cmp_is_byte_identical_to_the_single_cpu_simulator() {
    let mut rng = SmallRng::seed_from_u64(0xC0_1DE7);
    // Which run-level paths the seeded envelope reached: a machine-check
    // halt, the budget watchdog, a restart recovery, checkpoints, and
    // the differential oracle.
    let mut reached = [false; 5];
    for round in 0..12 {
        let cfg = random_config(&mut rng);
        let summary = format!("round {round}: {cfg}");
        let base = runner::run_standard_raw(cfg.clone(), SCALE);
        let cmp = runner::run_standard_cmp(cfg, SCALE, None);
        let (base, cmp) = match (base, cmp) {
            (Ok(base), Ok(cmp)) => (base, cmp),
            (Err(base), Err(cmp)) => {
                reached[0] |= matches!(base, SimError::MachineCheck { .. });
                assert_eq!(cmp, base, "error drift in {summary}");
                continue;
            }
            (base, cmp) => panic!(
                "outcome drift in {summary}: single CPU {:?}, CMP {:?}",
                base.map(|_| ()),
                cmp.map(|_| ())
            ),
        };
        assert_eq!(
            cmp.result.counters, base.counters,
            "counter drift in {summary}"
        );
        assert_eq!(
            cmp.result.per_process, base.per_process,
            "per-process drift in {summary}"
        );
        assert_eq!(
            cmp.result.completed, base.completed,
            "completion-order drift in {summary}"
        );
        assert_eq!(
            cmp.result.termination, base.termination,
            "termination drift in {summary}"
        );
        assert_eq!(
            cmp.result.checkpoints, base.checkpoints,
            "checkpoint drift in {summary}"
        );
        assert_eq!(cmp.per_core.len(), 1, "{summary}");
        assert_eq!(cmp.per_core[0], base.counters, "{summary}");
        reached[1] |= !base.is_complete();
        reached[2] |= base.counters.machine_checks > 0;
        reached[3] |= !base.checkpoints.is_empty();
        reached[4] |= base.config.diffcheck.enabled;
    }
    assert_eq!(reached, [true; 5], "the envelope must reach every path");
}

#[test]
fn one_core_cmp_reports_no_coherence_activity() {
    let base = runner::run_standard_cmp(SimConfig::baseline(), SCALE, None).expect("runs");
    let c = base.result.counters;
    assert_eq!(c.invalidations, 0);
    assert_eq!(c.c2c_transfers, 0);
    assert_eq!(c.upgrade_misses, 0);
    assert_eq!(c.coherence_stall_cycles, 0);
    assert_eq!(c.mesi_to_m + c.mesi_to_e + c.mesi_to_s + c.mesi_to_i, 0);
}

#[test]
fn disjoint_two_core_run_is_filtered_to_zero_coherence_traffic() {
    let mut cfg = SimConfig::baseline();
    cfg.cmp = CmpConfig::with_cores(2);
    let r = runner::run_standard_cmp(cfg, SCALE, None).expect("runs");
    let c = r.result.counters;
    // Distinct processes touch distinct physical pages: the directory
    // must answer every miss locally.
    assert_eq!(c.invalidations, 0, "no remote copies to invalidate");
    assert_eq!(c.c2c_transfers, 0);
    assert_eq!(c.upgrade_misses, 0);
    assert_eq!(c.coherence_stall_cycles, 0, "no bus traffic at all");
    assert!(c.mesi_to_e > 0, "fills still tracked Exclusive");
    assert_eq!(r.per_core.len(), 2);
    assert!(r.per_core.iter().all(|p| p.instructions > 0));
}

#[test]
fn sharing_two_core_run_exercises_the_protocol_with_zero_violations() {
    let mut cfg = SimConfig::baseline();
    cfg.cmp = CmpConfig {
        cores: 2,
        shared_frac: 0.2,
        shared_words: 4096,
        migration_interval: 1000,
        ..CmpConfig::default()
    };
    cfg.diffcheck = DiffCheckConfig {
        enabled: true,
        ..DiffCheckConfig::default()
    };
    let r = runner::run_standard_cmp(cfg, SCALE, None)
        .expect("coherence invariants hold under real sharing");
    let c = r.result.counters;
    assert!(c.invalidations > 0, "sharing must produce invalidations");
    assert!(c.coherence_stall_cycles > 0, "coherence time is charged");
    assert!(
        c.mesi_to_i >= c.invalidations,
        "every invalidation demotes a line to I"
    );
}

#[test]
fn coherence_counters_accumulate_into_process_totals() {
    let mut cfg = SimConfig::baseline();
    cfg.cmp = CmpConfig {
        cores: 2,
        shared_frac: 0.3,
        shared_words: 2048,
        ..CmpConfig::default()
    };
    let before = gaas_coherence::coherence_totals();
    let r = runner::run_standard_cmp(cfg, SCALE, None).expect("runs");
    let after = gaas_coherence::coherence_totals();
    assert!(after.runs > before.runs);
    assert!(
        after.invalidations - before.invalidations >= r.result.counters.invalidations,
        "run's invalidations folded into the process totals"
    );
}

// ---- multi-core pins ----
//
// The identity fuzz above cannot see a drift that only shows with two or
// more cores. These runs pin the complete multi-core result (merged and
// per-core counters, per-process rows, completion order) to digests
// recorded from the engine before its per-core pipeline was shared with
// the single-CPU simulator.

/// FNV-1a over the debug rendering of everything a CMP run reports.
fn cmp_digest(r: &gaas_coherence::CmpResult) -> u64 {
    let text = format!(
        "{:?}|{:?}|{:?}|{:?}|{:?}",
        r.result.counters,
        r.per_core,
        r.result.per_process,
        r.result.completed,
        r.result.termination
    );
    text.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Runs `cfg` over the first six suite benchmarks, dealt round-robin to
/// the configured cores and decorated with shared-segment references
/// drawn from `seed`.
fn pinned_run(cfg: &SimConfig, seed: u64) -> gaas_coherence::CmpResult {
    sharing_run(cfg, seed, None).expect("CMP run")
}

/// [`pinned_run`]'s workload under an optional cancellation token,
/// returning the run's outcome.
fn sharing_run(
    cfg: &SimConfig,
    seed: u64,
    cancel: Option<CancelToken>,
) -> Result<gaas_coherence::CmpResult, SimError> {
    use gaas_trace::{SharingSpec, SharingTrace, Trace};
    let n = cfg.cmp.cores as usize;
    let spec = SharingSpec {
        shared_frac: cfg.cmp.shared_frac,
        shared_words: cfg.cmp.shared_words,
        migration_interval: cfg.cmp.migration_interval,
        cores: cfg.cmp.cores,
        seed,
    };
    let mut per_core: Vec<Vec<Box<dyn Trace>>> = (0..n).map(|_| Vec::new()).collect();
    for (i, trace) in gaas_sim::workload::subset(6, 2e-4).into_iter().enumerate() {
        let core = i % n;
        per_core[core].push(Box::new(SharingTrace::new(trace, core as u32, &spec)));
    }
    let mut sim = gaas_coherence::CmpSimulator::new(cfg.clone()).expect("valid CMP config");
    if let Some(token) = cancel {
        sim.set_cancel_token(token);
    }
    sim.run_warmed(per_core, 2_000)
}

fn sharing_config(cores: u32) -> SimConfig {
    let mut cfg = SimConfig::baseline();
    cfg.cmp = CmpConfig {
        cores,
        shared_frac: 0.15,
        shared_words: 8_192,
        migration_interval: 256,
        ..CmpConfig::default()
    };
    cfg
}

#[test]
fn two_and_four_core_runs_reproduce_their_pinned_digests() {
    let two = sharing_config(2);
    let mut four = SimConfig::optimized();
    four.policy = WritePolicy::WriteOnly;
    four.cmp = CmpConfig {
        cores: 4,
        ..sharing_config(4).cmp
    };
    let mut checked = two.clone();
    checked.diffcheck = DiffCheckConfig {
        enabled: true,
        ..DiffCheckConfig::default()
    };
    let cases = [
        ("2 cores", &two, 0x5EED_0002, 0x99c0_df4f_aa1f_e6a3u64),
        (
            "4 cores, split L2, write-only",
            &four,
            0x5EED_0004,
            0xb21c_1f98_5176_eb0a,
        ),
        (
            "2 cores, coherence oracle on",
            &checked,
            0x5EED_0002,
            0x99c0_df4f_aa1f_e6a3,
        ),
    ];
    for (what, cfg, seed, pinned) in cases {
        let r = pinned_run(cfg, seed);
        let c = r.result.counters;
        assert!(c.invalidations > 0 && c.c2c_transfers > 0, "{what}: {c:?}");
        assert_eq!(cmp_digest(&r), pinned, "{what}: multi-core result drifted");
    }
}

/// A remote store invalidates a line the other core just loaded; that
/// core's next load of the same line must miss (and be supplied
/// cache-to-cache), not hit a stale copy.
#[test]
fn a_load_after_a_remote_invalidation_misses() {
    use gaas_trace::{Pid, Trace, TraceEvent, VecTrace, VirtAddr, SHARED_PID};
    let x = VirtAddr::new(SHARED_PID, 0x40);
    let code = |pid: u8, w: u64| VirtAddr::new(Pid::new(pid), w);
    // Core 0 loads X, then idles on stall cycles long enough for core 1
    // (scheduled by functional clock) to store X, then loads X again.
    let mut c0 = vec![TraceEvent::ifetch(code(0, 0), 0), TraceEvent::load(x)];
    for i in 1..4 {
        c0.push(TraceEvent::ifetch(code(0, i), 200));
    }
    c0.push(TraceEvent::ifetch(code(0, 4), 0));
    c0.push(TraceEvent::load(x));
    let c1 = vec![TraceEvent::ifetch(code(1, 0), 0), TraceEvent::store(x)];
    let mut cfg = SimConfig::baseline();
    cfg.cmp = CmpConfig::with_cores(2);
    let per_core: Vec<Vec<Box<dyn Trace>>> = vec![
        vec![Box::new(VecTrace::new("c0", c0))],
        vec![Box::new(VecTrace::new("c1", c1))],
    ];
    let r = gaas_coherence::CmpSimulator::new(cfg)
        .expect("valid")
        .run_warmed(per_core, 0)
        .expect("runs");
    assert_eq!(r.per_core[1].invalidations, 1, "{:?}", r.per_core[1]);
    assert_eq!(r.per_core[0].loads, 2);
    assert_eq!(
        r.per_core[0].l1d_read_misses, 2,
        "the reload must miss after the invalidation: {:?}",
        r.per_core[0]
    );
    assert_eq!(
        r.per_core[0].c2c_transfers, 1,
        "the owner supplies the line"
    );
    assert_eq!(
        cmp_digest(&r),
        0xd1ae_be8d_9053_09c1,
        "invalidate-then-load drifted"
    );
}

// ---- multi-core run hooks ----
//
// Campaign timeouts cancel CMP cells through the same token the single
// CPU polls, and fault injection and checkpoints run on every core.

#[test]
fn a_fired_token_cancels_a_two_core_run() {
    let token = CancelToken::new();
    token.cancel();
    let err = sharing_run(&sharing_config(2), 0x5EED_0002, Some(token))
        .expect_err("cancelled run must not complete");
    assert_eq!(err, SimError::Cancelled);
}

#[test]
fn an_unfired_token_leaves_a_two_core_run_unchanged() {
    let cfg = sharing_config(2);
    let plain = pinned_run(&cfg, 0x5EED_0002);
    let tokened = sharing_run(&cfg, 0x5EED_0002, Some(CancelToken::new())).expect("runs");
    assert!(
        plain.result.counters.instructions > 3 * 8192,
        "the run crosses several cancellation polls"
    );
    assert_eq!(cmp_digest(&tokened), cmp_digest(&plain));
}

/// Two cores under parity-protected fault injection with periodic
/// checkpoints.
fn faulty_config(policy: MachineCheckPolicy) -> SimConfig {
    let mut cfg = sharing_config(2);
    cfg.checkpoint_interval = CHECKPOINT_EVERY;
    cfg.fault = FaultConfig {
        seed: 0xFA17,
        rates: FaultRates::uniform(2e-4),
        protection: ProtectionMap::uniform(Protection::Parity),
        machine_check: policy,
        ..FaultConfig::default()
    };
    cfg
}

const CHECKPOINT_EVERY: u64 = 5_000;

#[test]
fn a_two_core_run_with_faults_and_checkpoints_is_deterministic() {
    let cfg = faulty_config(MachineCheckPolicy::Restart);
    let a = pinned_run(&cfg, 0x5EED_0002);
    let b = pinned_run(&cfg, 0x5EED_0002);
    assert_eq!(cmp_digest(&a), cmp_digest(&b), "same seeds, same run");
    assert_eq!(a.result.checkpoints, b.result.checkpoints);
    assert!(
        a.per_core.iter().all(|c| c.faults_injected > 0),
        "every core injects: {:?}",
        a.per_core
    );
    let c = a.result.counters;
    assert!(c.machine_checks > 0 && c.recovery_cycles > 0, "{c:?}");
    let checkpoints = &a.result.checkpoints;
    assert!(checkpoints.len() > 2, "{checkpoints:?}");
    for (i, cp) in checkpoints.iter().enumerate() {
        assert_eq!(cp.instructions, (i as u64 + 1) * CHECKPOINT_EVERY);
        assert!(cp.cycle > 0);
    }
    assert_eq!(
        cmp_digest(&a),
        0x9cd4_e640_de88_9380,
        "faulted two-core run drifted"
    );
}

#[test]
fn an_unrecoverable_fault_halts_a_two_core_run() {
    let cfg = faulty_config(MachineCheckPolicy::Halt);
    let err = sharing_run(&cfg, 0x5EED_0002, None).expect_err("a dirty parity strike halts");
    assert!(matches!(err, SimError::MachineCheck { .. }), "{err:?}");
}

// ---- the span interleave ----
//
// Uninstrumented runs step every core straight from its buffered events
// and enter the scheduler only for refills, admissions, rotations and
// the merged poll; with the coherence oracle on, the same run takes the
// per-instruction scheduler path for every instruction. Both must retire
// the same instructions in the same order, so every result, every poll
// boundary and every checkpoint must agree.

/// One seeded multi-core run: `cores` cores, some of the first ten suite
/// benchmarks dealt to random cores (so cores carry uneven loads, some
/// none, and finish at different times), decorated with shared-segment
/// references, with a drawn instruction budget, checkpoint interval and
/// warm-up length.
fn uneven_run(
    rng: &mut SmallRng,
    cores: u32,
) -> (SimConfig, Vec<usize>, u64, gaas_trace::SharingSpec) {
    let policies = WritePolicy::all();
    let mut b = SimConfig::builder();
    b.policy(policies[rng.gen_range(0..policies.len())])
        .mp_level(*[1usize, 2, 8].get(rng.gen_range(0..3usize)).unwrap())
        .cmp(CmpConfig {
            cores,
            shared_frac: [0.05, 0.15, 0.3][rng.gen_range(0..3usize)],
            shared_words: [512u64, 4_096, 16_384][rng.gen_range(0..3usize)],
            migration_interval: [0u64, 64, 256][rng.gen_range(0..3usize)],
            ..CmpConfig::default()
        });
    if rng.gen_bool(0.4) {
        b.l2(L2Config::split_even(131_072, 2, 6));
    }
    if rng.gen_bool(0.4) {
        b.instruction_budget(rng.gen_range(10_000..80_000u64));
    }
    if rng.gen_bool(0.7) {
        b.checkpoint_interval(rng.gen_range(500..5_000u64));
    }
    let cfg = b.build().expect("drawn CMP configs stay valid");
    let streams = rng.gen_range(cores as usize..=10);
    let owners = (0..streams)
        .map(|_| rng.gen_range(0..cores as usize))
        .collect();
    let warmup = [0u64, 1, 777, 5_000][rng.gen_range(0..4usize)];
    let spec = gaas_trace::SharingSpec {
        shared_frac: cfg.cmp.shared_frac,
        shared_words: cfg.cmp.shared_words,
        migration_interval: cfg.cmp.migration_interval,
        cores,
        seed: rng.next_u64(),
    };
    (cfg, owners, warmup, spec)
}

/// Runs `cfg` with stream `i` of the suite on core `owners[i]`.
fn dealt_run(
    cfg: &SimConfig,
    owners: &[usize],
    warmup: u64,
    spec: &gaas_trace::SharingSpec,
) -> Result<gaas_coherence::CmpResult, SimError> {
    use gaas_trace::{SharingTrace, Trace};
    let mut per_core: Vec<Vec<Box<dyn Trace>>> = (0..cfg.cmp.cores).map(|_| Vec::new()).collect();
    let streams = gaas_sim::workload::subset(owners.len(), 2e-4);
    for (trace, &core) in streams.into_iter().zip(owners) {
        per_core[core].push(Box::new(SharingTrace::new(trace, core as u32, spec)));
    }
    gaas_coherence::CmpSimulator::new(cfg.clone())
        .expect("valid CMP config")
        .run_warmed(per_core, warmup)
}

#[test]
fn span_interleave_equals_the_per_instruction_path_at_every_core_count() {
    let mut rng = SmallRng::seed_from_u64(0x5BA4_1EAF);
    // Which paths the draws reached: an idle core, a budget abort,
    // checkpoints, a warm-up, invalidations.
    let mut reached = [false; 5];
    for (round, cores) in [2, 3, 4, MAX_CORES].repeat(3).into_iter().enumerate() {
        let (cfg, owners, warmup, spec) = uneven_run(&mut rng, cores);
        let summary =
            format!("round {round}, {cores} cores, owners {owners:?}, warm-up {warmup}: {cfg}");
        let fast = dealt_run(&cfg, &owners, warmup, &spec).expect("uninstrumented run");
        let mut checked_cfg = cfg.clone();
        checked_cfg.diffcheck = DiffCheckConfig::on();
        let checked = dealt_run(&checked_cfg, &owners, warmup, &spec)
            .expect("the coherence oracle finds no violation");
        assert_eq!(
            fast.result.termination, checked.result.termination,
            "termination drift in {summary}"
        );
        assert_eq!(
            fast.result.checkpoints, checked.result.checkpoints,
            "checkpoint drift in {summary}"
        );
        assert_eq!(
            cmp_digest(&fast),
            cmp_digest(&checked),
            "result drift in {summary}"
        );
        reached[0] |= (0..cores as usize).any(|c| !owners.contains(&c));
        reached[1] |= !fast.result.is_complete();
        reached[2] |= !fast.result.checkpoints.is_empty();
        reached[3] |= warmup > 0;
        reached[4] |= fast.result.counters.invalidations > 0;
    }
    assert_eq!(reached, [true; 5], "the draws must reach every path");
}
