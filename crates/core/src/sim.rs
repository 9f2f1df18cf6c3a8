//! The trace-driven two-level cache simulator (§3).
//!
//! [`Simulator`] consumes a multiprogramming workload one instruction at a
//! time and charges cycles exactly as the paper's cycle-counting simulator
//! does:
//!
//! * one issue cycle per instruction, plus the trace's annotated processor
//!   stalls (the 1.238 base CPI);
//! * L1 misses serviced from L2 at `access + (fetch/4 − 1)` cycles (the
//!   4 W-wide refill path moves one 4 W beat per cycle);
//! * L2 misses serviced from main memory at the R6020 penalties, dirty
//!   buffer permitting;
//! * write-policy cycle rules (§6) and write-buffer waits, with the
//!   streaming drain model;
//! * the §9 concurrency mechanisms (concurrent I-refill, read bypass by
//!   associative match or dirty bit, L2-D dirty buffer).
//!
//! The accounting invariant `total cycles = instructions + Σ stall
//! components` holds exactly (checked with `debug_assert!` and tests).
//!
//! The per-access rules live in [`crate::pipeline`] and the scheduler
//! loop in [`crate::driver`], both shared with the CMP engine; this
//! module is the single CPU's surface over a 1-core [`Machine`]: its
//! error and result types, telemetry reports and profile recording.
//!
//! With soft-error injection enabled (see `FaultConfig`), faults are
//! checked when an access *hits* the struck structure — the moment the
//! corrupted entry would be consumed — and recovery costs (parity
//! refetches, ECC corrections, checkpoint-restart rollback) are charged to
//! the dedicated `recovery` stall component, keeping the invariant exact.
//! Unrecoverable faults either halt the run ([`SimError::MachineCheck`])
//! or roll back to the last checkpoint, per the configured policy.

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use gaas_cache::fault::FaultEvent;
use gaas_cache::Tlb;
use gaas_telemetry::{Registry, Span};
use gaas_trace::{AccessKind, Trace, TraceEvent};

use crate::config::{ConfigError, SimConfig};
pub use crate::config::{REF_L2_ACCESS, REF_MEM_CLEAN, REF_MEM_DIRTY};
use crate::cpi::{Counters, ProcCounters};
use crate::driver::{Machine, Run};
use crate::oracle::DivergenceReport;
use crate::pipeline::{Core, NoCoherence};
use crate::profile::{functional_fingerprint, FunctionalProfile, ProfileRecorder};
use crate::sched::SchedSnapshot;

/// Error from building or running a simulation.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// The configuration failed validation.
    Config(ConfigError),
    /// An injected fault was detected but unrecoverable (dirty data under
    /// parity, or a double-bit flip under ECC) and the machine-check
    /// policy is [`MachineCheckPolicy::Halt`].
    MachineCheck {
        /// The unrecoverable fault.
        fault: FaultEvent,
        /// Simulated cycle at the halt (the boundary of the faulting
        /// instruction), on the faulting core's clock.
        cycle: u64,
        /// Instructions retired before the halt, by every core.
        instructions: u64,
    },
    /// The lockstep golden-model oracle observed the fast simulator
    /// diverging from the reference model (see
    /// [`DiffCheckConfig`](crate::config::DiffCheckConfig)).
    Divergence(Box<DivergenceReport>),
    /// A campaign cell exceeded its wall-clock budget (produced by the
    /// experiment runner's isolation layer, never by the simulator
    /// itself).
    Timeout {
        /// The wall-clock budget that was exhausted, in seconds.
        seconds: u64,
    },
    /// The run's [`CancelToken`] was triggered; the simulator stopped
    /// cooperatively at the next instruction-batch boundary.
    Cancelled,
    /// The coherence oracle observed a protocol invariant violation in a
    /// CMP run (stale read, multiple writers, or a copy surviving its
    /// invalidation) — produced by the `gaas-coherence` engine, never by
    /// this single-CPU simulator.
    Coherence {
        /// Core on which the violation was observed.
        core: u32,
        /// That core's timing-clock cycle at the violation.
        cycle: u64,
        /// Which invariant failed, with the evidence.
        detail: String,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Config(e) => write!(f, "invalid configuration: {e}"),
            SimError::MachineCheck {
                fault,
                cycle,
                instructions,
            } => write!(
                f,
                "machine check: {fault} at cycle {cycle} ({instructions} instructions retired)"
            ),
            SimError::Divergence(report) => write!(f, "{report}"),
            SimError::Timeout { seconds } => {
                write!(f, "cell exceeded its {seconds}s wall-clock budget")
            }
            SimError::Cancelled => write!(f, "run cancelled cooperatively"),
            SimError::Coherence {
                core,
                cycle,
                detail,
            } => write!(
                f,
                "coherence invariant violated on core {core} at cycle {cycle}: {detail}"
            ),
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimError::Config(e) => Some(e),
            SimError::MachineCheck { .. }
            | SimError::Divergence(_)
            | SimError::Timeout { .. }
            | SimError::Cancelled
            | SimError::Coherence { .. } => None,
        }
    }
}

impl From<ConfigError> for SimError {
    fn from(e: ConfigError) -> Self {
        SimError::Config(e)
    }
}

/// A shared flag for cooperatively cancelling a running simulation.
///
/// Hand a clone to [`Simulator::set_cancel_token`] before the run; any
/// thread may then call [`CancelToken::cancel`]. The simulator polls the
/// flag between instruction batches (every few thousand instructions),
/// so a cancelled run returns [`SimError::Cancelled`] within
/// microseconds instead of burning CPU until the workload ends — this is
/// how the experiment campaign stops timed-out cells for real rather
/// than detaching them.
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// Creates a fresh, untriggered token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation; every simulator holding a clone stops at
    /// its next batch boundary.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Release);
    }

    /// True once [`CancelToken::cancel`] has been called.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Acquire)
    }
}

/// Why a run stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Termination {
    /// Every benchmark ran to completion.
    #[default]
    Completed,
    /// The instruction-budget watchdog fired; the result covers the
    /// instructions retired up to the abort.
    BudgetExhausted,
}

/// One periodic checkpoint: a progress marker and (under the restart
/// machine-check policy) the rollback point for recovery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Checkpoint {
    /// Simulated cycle at the checkpoint, on the clock of the core whose
    /// instruction crossed it.
    pub cycle: u64,
    /// Instructions retired at the checkpoint, by every core.
    pub instructions: u64,
    /// That core's scheduler progress at the checkpoint.
    pub sched: SchedSnapshot,
}

/// Result of a completed simulation run.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// The configuration that was simulated.
    pub config: SimConfig,
    /// Every counter the run accumulated.
    pub counters: Counters,
    /// Benchmarks in completion order.
    pub completed: Vec<String>,
    /// Per-process statistics, one entry per PID that issued events
    /// (includes warm-up; sorted by PID).
    pub per_process: Vec<(gaas_trace::Pid, ProcCounters)>,
    /// Why the run stopped.
    pub termination: Termination,
    /// Periodic checkpoints (empty unless `checkpoint_interval` is set).
    pub checkpoints: Vec<Checkpoint>,
}

impl SimResult {
    /// Total cycles executed.
    pub fn cycles(&self) -> u64 {
        self.counters.total_cycles()
    }

    /// Cycles per instruction.
    pub fn cpi(&self) -> f64 {
        self.cycles() as f64 / self.counters.instructions as f64
    }

    /// Per-component CPI breakdown (Fig. 4).
    pub fn breakdown(&self) -> crate::cpi::CpiBreakdown {
        self.counters.breakdown()
    }

    /// True when every benchmark ran to completion (the watchdog did not
    /// fire).
    pub fn is_complete(&self) -> bool {
        self.termination == Termination::Completed
    }
}

/// Everything the telemetry layer recorded over one run: the counter
/// registry, the retained span timeline (timing-clock cycles), and how
/// many spans the bounded recorder had to drop.
#[derive(Debug, Clone, Default)]
pub struct TelemetryReport {
    /// All registered counters and histograms.
    pub registry: Registry,
    /// Retained spans in recording order.
    pub spans: Vec<Span>,
    /// Spans evicted because the ring buffer was full.
    pub spans_dropped: u64,
}

/// The trace-driven simulator for one architecture configuration: a
/// 1-core [`Machine`] (one [`Core`] of the shared per-core pipeline over
/// its own back side), run by the shared driver.
///
/// # Examples
///
/// ```
/// use gaas_sim::{config::SimConfig, workload, Simulator};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let sim = Simulator::new(SimConfig::optimized())?;
/// let result = sim.run(workload::subset(3, 1e-4))?;
/// assert!(result.cpi() > 1.0);
/// assert_eq!(result.completed.len(), 3);
/// # Ok(())
/// # }
/// ```
pub struct Simulator {
    m: Machine,
}

impl Simulator {
    /// Builds a simulator for `cfg`.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] when the configuration is invalid.
    pub fn new(cfg: SimConfig) -> Result<Self, ConfigError> {
        let m = Machine::new(cfg)?;
        // CMP configurations need the coherence engine's protocol; this
        // single-CPU simulator would silently ignore the sharing knobs,
        // so refuse them outright.
        if m.cfg.cmp.enabled() {
            return Err(ConfigError::CmpRequiresCoherenceEngine);
        }
        Ok(Simulator { m })
    }

    /// Installs a cooperative-cancellation token: once
    /// [`CancelToken::cancel`] is called on any clone, the run stops at
    /// the next batch boundary with [`SimError::Cancelled`].
    pub fn set_cancel_token(&mut self, token: CancelToken) {
        self.m.set_cancel_token(token);
    }

    /// The configuration being simulated.
    pub fn config(&self) -> &SimConfig {
        &self.m.cfg
    }

    fn core(&self) -> &Core {
        &self.m.cores[0]
    }

    /// Current simulated cycle.
    pub fn now(&self) -> u64 {
        self.core().now
    }

    /// Counters accumulated so far.
    pub fn counters(&self) -> &Counters {
        &self.core().counters
    }

    /// Instruction-TLB state (for reports).
    pub fn itlb(&self) -> &Tlb {
        &self.core().itlb
    }

    /// Data-TLB state (for reports).
    pub fn dtlb(&self) -> &Tlb {
        &self.core().dtlb
    }

    /// Runs a multiprogramming workload to completion and returns the
    /// accumulated result.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::MachineCheck`] when an injected fault is
    /// unrecoverable under the halt policy.
    pub fn run(self, traces: Vec<Box<dyn Trace>>) -> Result<SimResult, SimError> {
        self.run_warmed(traces, 0)
    }

    /// Runs a workload, discarding the statistics of the first
    /// `warmup_instructions` instructions (the caches stay warm; only the
    /// counters reset). Long-trace hygiene per \[BKW90\]: without warm-up,
    /// compulsory misses dominate L2 statistics on scaled-down traces.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::MachineCheck`] when an injected fault is
    /// unrecoverable under the halt policy.
    pub fn run_warmed(
        self,
        traces: Vec<Box<dyn Trace>>,
        warmup_instructions: u64,
    ) -> Result<SimResult, SimError> {
        Ok(self.run_sampled(traces, warmup_instructions, 0)?.0)
    }

    /// Like [`Simulator::run_warmed`], additionally returning windowed
    /// counter snapshots every `window_instructions` instructions
    /// (0 disables sampling). Each returned element is the counter *delta*
    /// over one window — a time-series view of the run (warm-up
    /// transients, context-switch beats).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::MachineCheck`] when an injected fault is
    /// unrecoverable under the halt policy.
    pub fn run_sampled(
        mut self,
        traces: Vec<Box<dyn Trace>>,
        warmup_instructions: u64,
        window_instructions: u64,
    ) -> Result<(SimResult, Vec<Counters>), SimError> {
        let run = self.drive(traces, warmup_instructions, window_instructions)?;
        Ok((run.result, run.windows))
    }

    /// Runs a workload with telemetry recording, returning the result,
    /// the windowed counter deltas (window size from
    /// [`TelemetryConfig::window_instructions`](crate::config::TelemetryConfig)),
    /// and the recorded [`TelemetryReport`].
    ///
    /// With telemetry disabled in the configuration this degenerates to
    /// [`Simulator::run_warmed`] plus an empty report.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`Simulator::run_warmed`].
    pub fn run_telemetry(
        mut self,
        traces: Vec<Box<dyn Trace>>,
        warmup_instructions: u64,
    ) -> Result<(SimResult, Vec<Counters>, TelemetryReport), SimError> {
        let telemetry = &self.m.cfg.telemetry;
        let window = if telemetry.enabled {
            telemetry.window_instructions
        } else {
            0
        };
        let run = self.drive(traces, warmup_instructions, window)?;
        let report = self.m.cores[0]
            .telem
            .take()
            .map(|t| {
                let mut registry = t.reg;
                // Process-wide trace-arena health at the end of the run:
                // reuse vs. regeneration, compressed-size bypasses, and
                // the v3 compression footprint. Recorded once here, so
                // the hot path never touches the arena registry lock.
                let a = gaas_trace::arena::stats();
                for (name, v) in [
                    ("arena.generated", a.generated),
                    ("arena.reused", a.reused),
                    ("arena.bypassed", a.bypassed),
                    ("arena.bypass_events", a.bypass_events),
                    ("arena.resident_streams", a.resident_streams),
                    ("arena.resident_events", a.resident_events),
                    ("arena.packed_bytes", a.packed_bytes),
                    ("arena.compressed_bytes", a.compressed_bytes),
                ] {
                    let id = registry.counter(name);
                    registry.add(id, v);
                }
                TelemetryReport {
                    spans_dropped: t.spans.dropped(),
                    spans: t.spans.spans(),
                    registry,
                }
            })
            .unwrap_or_default();
        Ok((run.result, run.windows, report))
    }

    /// Runs a workload with a [`ProfileRecorder`] attached, returning the
    /// result together with a [`FunctionalProfile`] that [`price_profiles`]
    /// can replay under any timing variant of this configuration's
    /// geometry (see the `profile` module).
    ///
    /// [`price_profiles`]: crate::profile::price_profiles
    ///
    /// # Errors
    ///
    /// Same failure modes as [`Simulator::run_warmed`].
    ///
    /// # Panics
    ///
    /// Panics when the configuration is not memoizable
    /// ([`functional_fingerprint`] returns `None` for fault injection,
    /// the differential oracle, and checkpointing).
    pub fn run_profiled(
        mut self,
        traces: Vec<Box<dyn Trace>>,
        warmup_instructions: u64,
    ) -> Result<(SimResult, FunctionalProfile), SimError> {
        let fkey = functional_fingerprint(&self.m.cfg)
            .expect("run_profiled requires a memoizable configuration");
        self.m.cores[0].rec = Some(Box::new(ProfileRecorder::new()));
        let run = self.drive(traces, warmup_instructions, 0)?;
        let profile = self.m.cores[0]
            .rec
            .take()
            .expect("recorder installed above")
            .finish(fkey, warmup_instructions, &run.result);
        Ok((run.result, profile))
    }

    /// Runs `traces` on the one core through the shared driver.
    fn drive(
        &mut self,
        traces: Vec<Box<dyn Trace>>,
        warmup_instructions: u64,
        window_instructions: u64,
    ) -> Result<Run, SimError> {
        self.m.run(
            vec![traces],
            &mut NoCoherence,
            warmup_instructions,
            window_instructions,
        )
    }

    /// Processes a single event outside a scheduled workload (single-process
    /// unit testing and calibration).
    pub fn step(&mut self, ev: &TraceEvent) {
        let Machine { cores, back, .. } = &mut self.m;
        let core = &mut cores[0];
        match (core.hooks_active(), ev.kind) {
            (true, AccessKind::IFetch) => core.step_ifetch::<true>(back, ev),
            (true, _) => core.step_data::<true, _>(back, &mut NoCoherence, ev),
            (false, AccessKind::IFetch) => core.step_ifetch::<false>(back, ev),
            (false, _) => core.step_data::<false, _>(back, &mut NoCoherence, ev),
        }
    }

    // ---- differential-oracle queries ----

    /// The pending divergence report, if the oracle tripped (for manual
    /// [`Simulator::step`] users; [`Simulator::run`] surfaces it as
    /// [`SimError::Divergence`]).
    pub fn divergence(&self) -> Option<&DivergenceReport> {
        self.core().diff.as_ref().and_then(|d| d.report())
    }

    /// Accesses the oracle has cross-checked so far (`None` when the
    /// oracle is disabled).
    pub fn oracle_checked(&self) -> Option<u64> {
        self.core().diff.as_ref().map(|d| d.accesses_checked())
    }
}

/// Convenience: builds a simulator for `cfg` and runs `traces`.
///
/// # Errors
///
/// Returns [`SimError::Config`] when the configuration is invalid, and
/// [`SimError::MachineCheck`] when an injected fault is unrecoverable
/// under the halt policy.
pub fn run(cfg: SimConfig, traces: Vec<Box<dyn Trace>>) -> Result<SimResult, SimError> {
    Simulator::new(cfg)?.run(traces)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::L2Config;
    use gaas_cache::WritePolicy;
    use gaas_trace::{Pid, VecTrace, VirtAddr};

    fn va(w: u64) -> VirtAddr {
        VirtAddr::new(Pid::new(0), w)
    }

    fn run_events(cfg: SimConfig, events: Vec<TraceEvent>) -> SimResult {
        run(cfg, vec![Box::new(VecTrace::new("t", events))]).expect("valid config")
    }

    fn fetch_heavy(n: u64) -> Vec<TraceEvent> {
        (0..n).map(|i| TraceEvent::ifetch(va(i % 64), 0)).collect()
    }

    #[test]
    fn cancelled_token_stops_run_at_batch_boundary() {
        let token = CancelToken::new();
        token.cancel();
        let mut sim = Simulator::new(SimConfig::baseline()).expect("valid");
        sim.set_cancel_token(token);
        // Enough instructions to cross the first cancellation poll.
        let events = fetch_heavy(3 * crate::driver::CANCEL_CHECK_INTERVAL);
        let err = sim
            .run(vec![Box::new(VecTrace::new("t", events))])
            .expect_err("cancelled run must not complete");
        assert_eq!(err, SimError::Cancelled);
    }

    #[test]
    fn untriggered_token_does_not_perturb_run() {
        let events = fetch_heavy(3 * crate::driver::CANCEL_CHECK_INTERVAL);
        let plain = run_events(SimConfig::baseline(), events.clone());
        let mut sim = Simulator::new(SimConfig::baseline()).expect("valid");
        sim.set_cancel_token(CancelToken::new());
        let tokened = sim
            .run(vec![Box::new(VecTrace::new("t", events))])
            .expect("runs to completion");
        assert_eq!(plain.counters, tokened.counters);
    }

    #[test]
    fn single_hit_instruction_costs_one_cycle() {
        // Two fetches of the same line: first misses, second hits.
        let r = run_events(
            SimConfig::baseline(),
            vec![TraceEvent::ifetch(va(0), 0), TraceEvent::ifetch(va(1), 0)],
        );
        assert_eq!(r.counters.instructions, 2);
        assert_eq!(r.counters.l1i_misses, 1);
        // Cold L1 miss -> cold L2 miss: 143 cycles total, split 6 + 137.
        assert_eq!(r.counters.l1i_miss_cycles, 6);
        assert_eq!(r.counters.l2i_miss_cycles, 137);
        assert_eq!(r.cycles(), 2 + 143);
    }

    #[test]
    fn l2_hit_costs_access_time() {
        // Touch line 0, evict it from L1 via conflicting fetches, re-touch:
        // second access to line 0 hits L2 (6 cycles), not memory.
        let l1_words = 4096;
        let evs = vec![
            TraceEvent::ifetch(va(0), 0),        // cold: 143
            TraceEvent::ifetch(va(l1_words), 0), // conflicts in L1, cold L2: 143
            TraceEvent::ifetch(va(0), 0),        // L1 miss, L2 hit: 6
        ];
        let r = run_events(SimConfig::baseline(), evs);
        assert_eq!(r.counters.l1i_misses, 3);
        assert_eq!(r.counters.l2i_misses, 2);
        assert_eq!(r.cycles(), 3 + 143 + 143 + 6);
    }

    #[test]
    fn cpu_stalls_accumulate() {
        let evs = vec![TraceEvent::ifetch(va(0), 3), TraceEvent::ifetch(va(1), 2)];
        let r = run_events(SimConfig::baseline(), evs);
        assert_eq!(r.counters.cpu_stall_cycles, 5);
        assert_eq!(r.cycles(), 2 + 5 + 143);
    }

    #[test]
    fn write_back_store_hit_costs_extra_cycle() {
        let mut evs = fetch_heavy(1);
        evs.push(TraceEvent::load(va(0x10000))); // allocate the line (cold miss)
        evs.push(TraceEvent::ifetch(va(1), 0));
        evs.push(TraceEvent::store(va(0x10000))); // write hit: 2 cycles
        let r = run_events(SimConfig::baseline(), evs);
        assert_eq!(r.counters.l1_write_cycles, 1);
        assert_eq!(r.counters.l1d_write_misses, 0);
    }

    #[test]
    fn write_through_store_miss_costs_extra_cycle_and_streams() {
        let mut b = SimConfig::builder();
        b.policy(WritePolicy::WriteOnly);
        let cfg = b.build().expect("valid");
        let evs = vec![
            TraceEvent::ifetch(va(0), 0),
            TraceEvent::store(va(0x10000)), // write miss: tag update, 2 cycles
            TraceEvent::ifetch(va(1), 0),
            TraceEvent::store(va(0x10001)), // write-only hit: 1 cycle
        ];
        let r = run_events(cfg, evs);
        assert_eq!(r.counters.l1d_write_misses, 1);
        assert_eq!(
            r.counters.l1_write_cycles, 1,
            "only the miss pays the extra cycle"
        );
        assert_eq!(r.counters.l2_drain_writes, 2, "both words stream to L2");
    }

    #[test]
    fn i_miss_waits_for_write_buffer_in_base() {
        // Pending write-buffer words make the next instruction miss wait
        // (base rule: both primary caches wait for WB-empty).
        let mut b = SimConfig::builder();
        b.policy(WritePolicy::WriteOnly);
        let cfg = b.build().expect("valid");
        // Warm one line, then issue store hits back-to-back (1 cycle each,
        // drains take 6), then take an I-miss while words are in flight.
        let mut evs = vec![
            TraceEvent::ifetch(va(0), 0),
            TraceEvent::store(va(0x10000)), // miss: adopts the line
        ];
        for i in 0..4 {
            evs.push(TraceEvent::ifetch(va(1), 0));
            evs.push(TraceEvent::store(va(0x10000 + 1 + i)));
        }
        let mut no_stores = vec![TraceEvent::ifetch(va(0), 0)];
        no_stores.push(TraceEvent::ifetch(va(0x20000), 0)); // I miss
        evs.push(TraceEvent::ifetch(va(0x20000), 0)); // I miss behind drains
        let r_with = run_events(cfg.clone(), evs);
        let r_without = run_events(cfg.clone(), no_stores);
        assert!(
            r_with.counters.wb_wait_cycles > r_without.counters.wb_wait_cycles,
            "pending drains must stall the I-miss: {} vs {}",
            r_with.counters.wb_wait_cycles,
            r_without.counters.wb_wait_cycles
        );
    }

    #[test]
    fn accounting_balances_for_random_workload() {
        use gaas_trace::rng::SmallRng;
        let mut rng = SmallRng::seed_from_u64(42);
        let mut evs = Vec::new();
        for _ in 0..20_000 {
            evs.push(TraceEvent::ifetch(
                va(rng.gen_range(0u64..8192)),
                rng.gen_range(0u8..3),
            ));
            match rng.gen_range(0u8..4) {
                0 => evs.push(TraceEvent::load(va(0x100000 + rng.gen_range(0u64..65536)))),
                1 => evs.push(TraceEvent::store(va(0x100000 + rng.gen_range(0u64..65536)))),
                _ => {}
            }
        }
        for policy in WritePolicy::all() {
            let mut b = SimConfig::builder();
            b.policy(policy);
            let r = run_events(b.build().expect("valid"), evs.clone());
            // run() debug-asserts now == total_cycles; double-check the
            // breakdown sums too.
            let b = r.breakdown();
            assert!(
                (b.total() - r.cpi()).abs() < 1e-9,
                "{policy:?}: breakdown {} vs cpi {}",
                b.total(),
                r.cpi()
            );
        }
    }

    #[test]
    fn optimized_config_runs_and_balances() {
        let evs = fetch_heavy(5_000)
            .into_iter()
            .flat_map(|f| {
                vec![
                    f,
                    TraceEvent::store(va(0x100000 + (f.addr.word() * 7) % 4096)),
                ]
            })
            .collect::<Vec<_>>();
        let r = run_events(SimConfig::optimized(), evs);
        assert!(r.cpi() >= 1.0);
        let b = r.breakdown();
        assert!((b.total() - r.cpi()).abs() < 1e-9);
    }

    #[test]
    fn dirty_buffer_reduces_dirty_miss_cost() {
        // Construct a workload with heavy dirty L2 traffic: write-back
        // policy, stores marching over a large footprint with conflicting
        // re-reads.
        use gaas_trace::rng::SmallRng;
        let mut rng = SmallRng::seed_from_u64(7);
        let mut evs = Vec::new();
        for _ in 0..30_000 {
            evs.push(TraceEvent::ifetch(va(rng.gen_range(0u64..256)), 0));
            // Large stride to generate L2 misses with dirty victims.
            evs.push(TraceEvent::store(va(
                0x100000 + rng.gen_range(0u64..2_000_000)
            )));
        }
        let base = run_events(SimConfig::baseline(), evs.clone());
        let mut b = SimConfig::builder();
        b.concurrency(crate::config::ConcurrencyConfig {
            l2d_dirty_buffer: true,
            ..Default::default()
        });
        let with_db = run_events(b.build().expect("valid"), evs);
        assert!(
            with_db.cycles() < base.cycles(),
            "dirty buffer should help: {} vs {}",
            with_db.cycles(),
            base.cycles()
        );
    }

    #[test]
    fn tlb_penalty_charged_when_configured() {
        let mut b = SimConfig::builder();
        b.tlb_miss_penalty(20);
        let r = run_events(
            b.build().expect("valid"),
            vec![TraceEvent::ifetch(va(0), 0), TraceEvent::load(va(0x100000))],
        );
        assert_eq!(r.counters.itlb_misses, 1);
        assert_eq!(r.counters.dtlb_misses, 1);
        assert_eq!(r.counters.tlb_miss_cycles, 40);
    }

    #[test]
    fn split_l2_separates_i_and_d() {
        // With a split L2, instruction lines can never be evicted by data
        // traffic.
        let mut b = SimConfig::builder();
        b.l2(L2Config::split_even(262_144, 1, 6));
        let cfg = b.build().expect("valid");
        let mut evs = vec![TraceEvent::ifetch(va(0), 0)];
        // Data sweep that would alias instruction lines in a unified L2.
        for i in 0..16_384u64 {
            evs.push(TraceEvent::ifetch(va(1), 0));
            evs.push(TraceEvent::load(va(0x100000 + i * 32)));
        }
        // Evict line 0 from L1-I (conflict), then re-fetch: L2-I must hit.
        evs.push(TraceEvent::ifetch(va(4096), 0));
        evs.push(TraceEvent::ifetch(va(0), 0));
        let r = run_events(cfg, evs);
        // Misses: va(0) cold, va(4096) cold; the final re-fetch of va(0)
        // hits L2-I (it was never evicted by the data sweep).
        assert_eq!(r.counters.l2i_misses, 2);
        assert_eq!(r.counters.l1i_misses, 3);
    }

    #[test]
    fn result_cpi_matches_cycles_over_instructions() {
        let r = run_events(SimConfig::baseline(), fetch_heavy(100));
        assert!((r.cpi() - r.cycles() as f64 / 100.0).abs() < 1e-12);
    }

    // ---- soft-error injection and recovery ----

    use crate::config::{FaultConfig, MachineCheckPolicy};
    use gaas_cache::fault::{FaultRates, Protection, ProtectionMap, Structure, TargetedFault};

    /// A targeted single fault on `structure` at per-structure access
    /// ordinal `access`, everything else quiet.
    fn targeted(structure: Structure, access: u64) -> FaultConfig {
        FaultConfig {
            targeted: vec![TargetedFault {
                structure,
                access,
                set: 0,
                bit: 0,
            }],
            ..FaultConfig::default()
        }
    }

    #[test]
    fn default_fault_config_is_bit_identical_to_baseline() {
        let evs = fetch_heavy(2_000)
            .into_iter()
            .flat_map(|f| {
                vec![
                    f,
                    TraceEvent::store(va(0x100000 + (f.addr.word() * 13) % 8192)),
                ]
            })
            .collect::<Vec<_>>();
        let plain = run_events(SimConfig::baseline(), evs.clone());
        let mut b = SimConfig::builder();
        b.fault(FaultConfig::default());
        let with_default = run_events(b.build().expect("valid"), evs);
        assert_eq!(plain.counters, with_default.counters);
        assert_eq!(plain.cycles(), with_default.cycles());
    }

    #[test]
    fn parity_on_clean_l1i_line_refetches_and_rehits() {
        let mut fault = targeted(Structure::L1I, 0);
        fault.protection.l1i = Protection::Parity;
        let mut b = SimConfig::builder();
        b.fault(fault);
        // Fetch 1 cold-misses (143, fills L2); fetches 2 and 3 hit. The
        // targeted fault strikes the first L1-I *hit* (injector ordinal 0):
        // parity on a clean line -> invalidate-and-refetch at the real
        // refill cost, an L2-I hit (6 cycles). Fetch 3 re-hits untouched.
        let r = run_events(
            b.build().expect("valid"),
            vec![
                TraceEvent::ifetch(va(0), 0),
                TraceEvent::ifetch(va(0), 0),
                TraceEvent::ifetch(va(0), 0),
            ],
        );
        assert_eq!(r.counters.faults_injected, 1);
        assert_eq!(r.counters.fault_refetches, 1);
        assert_eq!(r.counters.machine_checks, 0);
        assert_eq!(
            r.counters.recovery_cycles, 6,
            "refetch costs the real L2-I hit refill"
        );
        assert_eq!(r.cycles(), 3 + 143 + 6);
        assert!((r.breakdown().total() - r.cpi()).abs() < 1e-12);
        assert!(
            r.breakdown().recovery > 0.0,
            "recovery appears in the CPI stack"
        );
    }

    #[test]
    fn parity_on_dirty_line_machine_checks_under_write_back_but_not_write_only() {
        // load (miss, allocate) / store (hit: injector ordinal 0) /
        // load (hit: ordinal 1 <- the targeted strike).
        let evs = vec![
            TraceEvent::ifetch(va(0), 0),
            TraceEvent::load(va(0x10000)),
            TraceEvent::ifetch(va(1), 0),
            TraceEvent::store(va(0x10000)),
            TraceEvent::ifetch(va(2), 0),
            TraceEvent::load(va(0x10000)),
        ];
        let mut fault = targeted(Structure::L1D, 1);
        fault.protection.l1d = Protection::Parity;

        // Write-back: the struck line is dirty — the only copy. Parity
        // detects but cannot recover: machine check, run halts.
        let mut wb = SimConfig::builder();
        wb.policy(WritePolicy::WriteBack).fault(fault.clone());
        let err = run(
            wb.build().expect("valid"),
            vec![Box::new(VecTrace::new("t", evs.clone()))],
        )
        .expect_err("dirty parity strike must machine-check");
        match err {
            SimError::MachineCheck {
                fault,
                instructions,
                ..
            } => {
                assert_eq!(fault.structure, Structure::L1D);
                assert_eq!(instructions, 3);
            }
            other => panic!("expected machine check, got {other:?}"),
        }

        // Write-only streams every store through the buffer, so the L1
        // copy is clean: the same strike recovers by refetch.
        let mut wo = SimConfig::builder();
        wo.policy(WritePolicy::WriteOnly).fault(fault);
        let r = run(
            wo.build().expect("valid"),
            vec![Box::new(VecTrace::new("t", evs))],
        )
        .expect("write-only recovers");
        assert_eq!(r.counters.fault_refetches, 1);
        assert_eq!(r.counters.machine_checks, 0);
        assert!(r.counters.recovery_cycles > 0);
    }

    #[test]
    fn ecc_correction_charges_exactly_the_configured_penalty() {
        let evs = vec![
            TraceEvent::ifetch(va(0), 0),
            TraceEvent::load(va(0x10000)),
            TraceEvent::ifetch(va(1), 0),
            TraceEvent::load(va(0x10000)), // hit: ordinal 0, struck
        ];
        let clean = run_events(SimConfig::baseline(), evs.clone());

        let mut fault = targeted(Structure::L1D, 0);
        fault.protection.l1d = Protection::Ecc;
        fault.ecc_correction_cycles = 7;
        let mut b = SimConfig::builder();
        b.fault(fault);
        let r = run_events(b.build().expect("valid"), evs);
        assert_eq!(r.counters.faults_corrected, 1);
        assert_eq!(r.counters.recovery_cycles, 7);
        assert_eq!(
            r.cycles(),
            clean.cycles() + 7,
            "exactly the ECC penalty, nothing else"
        );
    }

    #[test]
    fn restart_policy_rolls_back_instead_of_halting() {
        let evs = vec![
            TraceEvent::ifetch(va(0), 0),
            TraceEvent::load(va(0x10000)),
            TraceEvent::ifetch(va(1), 0),
            TraceEvent::store(va(0x10000)),
            TraceEvent::ifetch(va(2), 0),
            TraceEvent::load(va(0x10000)), // dirty strike (ordinal 1)
            TraceEvent::ifetch(va(3), 0),
        ];
        let mut fault = targeted(Structure::L1D, 1);
        fault.protection.l1d = Protection::Parity;
        fault.machine_check = MachineCheckPolicy::Restart;
        let mut b = SimConfig::builder();
        b.policy(WritePolicy::WriteBack).fault(fault);
        let r = run_events(b.build().expect("valid"), evs);
        assert_eq!(r.counters.machine_checks, 1);
        assert!(
            r.counters.recovery_cycles > 0,
            "rollback re-execution is charged"
        );
        assert_eq!(r.completed.len(), 1, "the run continues to completion");
        assert!((r.breakdown().total() - r.cpi()).abs() < 1e-12);
    }

    #[test]
    fn same_seed_reproduces_identical_fault_sites_and_result() {
        let fault = FaultConfig {
            seed: 0xFA17,
            rates: FaultRates::uniform(2e-3),
            protection: ProtectionMap::uniform(Protection::Ecc),
            multi_bit_frac: 0.0, // keep every fault correctable
            ..FaultConfig::default()
        };
        let mut b = SimConfig::builder();
        b.fault(fault);
        let cfg = b.build().expect("valid");
        let evs = fetch_heavy(5_000)
            .into_iter()
            .flat_map(|f| {
                vec![
                    f,
                    TraceEvent::load(va(0x100000 + (f.addr.word() * 7) % 4096)),
                ]
            })
            .collect::<Vec<_>>();
        let a = run_events(cfg.clone(), evs.clone());
        let b = run_events(cfg, evs);
        assert!(a.counters.faults_injected > 0, "rate high enough to fire");
        assert_eq!(a.counters, b.counters);
        assert_eq!(a.cycles(), b.cycles());
    }

    #[test]
    fn watchdog_aborts_runaway_run_with_partial_result() {
        let mut b = SimConfig::builder();
        b.instruction_budget(100);
        let r = run_events(b.build().expect("valid"), fetch_heavy(10_000));
        assert_eq!(r.termination, Termination::BudgetExhausted);
        assert!(!r.is_complete());
        assert_eq!(r.counters.instructions, 100);
        assert!(r.completed.is_empty(), "the benchmark never finished");
        assert!(
            (r.breakdown().total() - r.cpi()).abs() < 1e-12,
            "partial result still balances"
        );
    }

    #[test]
    fn checkpoints_record_monotone_progress() {
        let mut b = SimConfig::builder();
        b.checkpoint_interval(250);
        let r = run_events(b.build().expect("valid"), fetch_heavy(1_000));
        assert_eq!(r.checkpoints.len(), 4);
        for w in r.checkpoints.windows(2) {
            assert!(w[1].cycle > w[0].cycle);
            assert!(w[1].instructions > w[0].instructions);
        }
        assert_eq!(r.checkpoints.last().expect("nonempty").sched.completed, 0);
        assert_eq!(r.termination, Termination::Completed);
    }

    #[test]
    fn sim_error_display_and_source() {
        let cfg_err: SimError = ConfigError::ZeroMultiprogramming.into();
        assert!(cfg_err.to_string().contains("invalid configuration"));
        assert!(std::error::Error::source(&cfg_err).is_some());
        let mc = SimError::MachineCheck {
            fault: gaas_cache::fault::FaultEvent {
                structure: Structure::L1D,
                access: 3,
                set: 1,
                bit: 2,
                multi_bit: false,
                targeted: true,
            },
            cycle: 99,
            instructions: 10,
        };
        let s = mc.to_string();
        assert!(s.contains("machine check") && s.contains("99"));
    }

    #[test]
    fn per_process_attribution_partitions_the_run() {
        // Two interleaved processes: per-process counters must partition
        // instructions and cycles exactly.
        let mk = |pid: u8, n: u64| {
            let evs: Vec<TraceEvent> = (0..n)
                .flat_map(|i| {
                    vec![
                        TraceEvent::ifetch(VirtAddr::new(Pid::new(pid), i % 512), 0),
                        TraceEvent::load(VirtAddr::new(Pid::new(pid), 0x100000 + (i * 3) % 2048)),
                    ]
                })
                .collect();
            Box::new(VecTrace::new(format!("p{pid}"), evs)) as Box<dyn Trace>
        };
        let mut b = SimConfig::builder();
        b.mp_level(2).time_slice(500);
        let r = run(b.build().expect("valid"), vec![mk(1, 3000), mk(2, 2000)]).expect("valid");

        assert_eq!(r.per_process.len(), 2);
        let total_instr: u64 = r.per_process.iter().map(|(_, p)| p.instructions).sum();
        let total_cycles: u64 = r.per_process.iter().map(|(_, p)| p.cycles).sum();
        assert_eq!(total_instr, r.counters.instructions);
        assert_eq!(total_cycles, r.cycles(), "cycles partition exactly");
        let p1 = r
            .per_process
            .iter()
            .find(|(pid, _)| pid.raw() == 1)
            .expect("pid 1")
            .1;
        assert_eq!(p1.instructions, 3000);
        assert_eq!(p1.loads, 3000);
        assert!(p1.cpi() >= 1.0);
    }
}
