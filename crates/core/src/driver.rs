//! The run driver: one scheduler loop for every engine.
//!
//! A [`Machine`] is N [`Core`]s over one [`Backside`], each core with
//! its own multiprogramming [`Scheduler`]. [`Machine::run`] is the only
//! scheduler loop in the workspace: the single-CPU [`Simulator`] runs it
//! with one core and [`NoCoherence`], and the CMP engine in
//! `gaas-coherence` runs it with N cores and its MESI protocol, which it
//! supplies through the [`Coherence`] trait.
//!
//! The driver owns the run-level pieces both engines share:
//!
//! * the merged poll over warm-up, windows, checkpoints, the instruction
//!   budget and cancellation, all counted in instructions retired by the
//!   whole machine;
//! * the per-core run hooks: machine-check halt, the differential
//!   oracle's divergence report, telemetry's scheduler tick and its
//!   end-of-run snapshot;
//! * the end-of-run switch counts, the warm-up delta, the per-PID merge
//!   and the [`SimResult`] assembly.
//!
//! Cores interleave by functional-clock order (earliest `fnow` executes
//! next; ties resolve to the lowest core id), so the interleaving is
//! deterministic and independent of timing knobs. With one core and no
//! instrumentation the driver steps straight over the scheduler's
//! buffered events (the span drain), which is where the single CPU spends
//! its time.
//!
//! [`Simulator`]: crate::sim::Simulator

use gaas_telemetry::Component;
use gaas_trace::Trace;

use crate::config::{ConfigError, SimConfig};
use crate::cpi::{active_processes, Counters, ProcCounters};
use crate::oracle::DiffState;
use crate::pipeline::{Backside, CoherenceHook, Core, FaultState, NoCoherence, TelemetryState};
use crate::sched::{Instruction, Scheduler};
use crate::sim::{CancelToken, Checkpoint, SimError, SimResult, Termination};

/// Instructions between cooperative-cancellation polls: coarse enough to
/// vanish in the hot loop, fine enough (≈ tens of microseconds) that a
/// cancelled run stops promptly.
pub(crate) const CANCEL_CHECK_INTERVAL: u64 = 8192;

/// What a multi-core engine adds to the run driver: the coherence hook
/// for each data access, and the protocol check after each instruction.
/// The single CPU supplies [`NoCoherence`]; with one core the driver
/// never asks for a hook.
pub trait Coherence {
    /// The hook one data access of one core runs through.
    type Hook<'a>: CoherenceHook
    where
        Self: 'a;

    /// The hook for a data access by core `c`, given every other core
    /// (split around `c`).
    fn hook<'a>(
        &'a mut self,
        c: usize,
        before: &'a mut [Core],
        after: &'a mut [Core],
    ) -> Self::Hook<'a>;

    /// Whether the protocol must observe every access: the driver then
    /// runs the memo-free (hooked) instantiation of the pipeline.
    fn observes_every_access(&self) -> bool {
        false
    }

    /// The protocol's verdict after each hooked instruction:
    /// `Some` ends the run with that error.
    fn check(&mut self, _cores: &[Core]) -> Option<SimError> {
        None
    }
}

impl Coherence for NoCoherence {
    type Hook<'a> = NoCoherence;

    fn hook<'a>(&'a mut self, _: usize, _: &'a mut [Core], _: &'a mut [Core]) -> NoCoherence {
        NoCoherence
    }
}

/// Everything one [`Machine::run`] produced.
#[derive(Debug, Clone)]
pub struct Run {
    /// The merged result over all cores.
    pub result: SimResult,
    /// Merged counter deltas, one per window of retired instructions
    /// (empty when windows are off).
    pub windows: Vec<Counters>,
    /// Per-core counters, index = core id (warm-up excluded).
    pub per_core: Vec<Counters>,
}

/// N cores over one back side, and the run driver (see the module docs).
pub struct Machine {
    pub(crate) cfg: SimConfig,
    pub(crate) cores: Vec<Core>,
    pub(crate) back: Backside,
    /// Cooperative cancellation flag, polled between instruction batches.
    cancel: Option<CancelToken>,
}

impl Machine {
    /// Validates `cfg` and builds `cfg.cmp.cores` cores over one back
    /// side. Core `c` gets the instrumentation `cfg` enables:
    ///
    /// * fault injection, with its injector seeded `fault.seed + c`, so
    ///   core 0 strikes where the single CPU does;
    /// * the differential oracle, on a 1-core machine only: its golden
    ///   model is one CPU with a private L2 (a multi-core engine checks
    ///   with its own protocol oracle instead);
    /// * telemetry.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] when the configuration is invalid.
    pub fn new(cfg: SimConfig) -> Result<Self, ConfigError> {
        cfg.validate()?;
        let n = cfg.cmp.cores as usize;
        let mut cores = Vec::with_capacity(n);
        for c in 0..n {
            let mut core = Core::new(&cfg)?;
            if cfg.fault.enabled() {
                core.fault = Some(FaultState::new(&cfg, c as u64)?);
                core.fault_on = true;
            }
            if cfg.diffcheck.enabled && n == 1 {
                core.diff = Some(Box::new(DiffState::new(&cfg)?));
                core.diff_on = true;
            }
            if cfg.telemetry.enabled {
                core.telem = Some(Box::new(TelemetryState::new(cfg.telemetry.span_capacity)));
                core.telem_on = true;
            }
            cores.push(core);
        }
        Ok(Machine {
            back: Backside::new(&cfg)?,
            cores,
            cfg,
            cancel: None,
        })
    }

    /// Installs a cooperative-cancellation token: once
    /// [`CancelToken::cancel`] is called on any clone, the run stops at
    /// the next batch boundary with [`SimError::Cancelled`].
    pub fn set_cancel_token(&mut self, token: CancelToken) {
        self.cancel = Some(token);
    }

    /// The configuration being simulated.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Runs `per_core` workloads (one trace list per core), discarding
    /// the statistics of the first `warmup_instructions` instructions
    /// retired by the whole machine, and sampling merged counter deltas
    /// every `window_instructions` (0 disables sampling). A machine runs
    /// once: the engines consume it with their run methods.
    ///
    /// # Errors
    ///
    /// [`SimError::MachineCheck`] for an unrecoverable fault under the
    /// halt policy, [`SimError::Divergence`] when the differential oracle
    /// trips, [`SimError::Cancelled`] when the token fires, and whatever
    /// `coh`'s check reports.
    ///
    /// # Panics
    ///
    /// Panics when `per_core.len()` differs from the core count.
    pub fn run<P: Coherence>(
        &mut self,
        per_core: Vec<Vec<Box<dyn Trace>>>,
        coh: &mut P,
        warmup_instructions: u64,
        window_instructions: u64,
    ) -> Result<Run, SimError> {
        let n = self.cores.len();
        assert_eq!(per_core.len(), n, "one trace list per configured core");
        let (level, slice) = (self.cfg.mp.level, self.cfg.mp.time_slice_cycles);
        let mut scheds: Vec<Scheduler> = per_core
            .into_iter()
            .map(|traces| Scheduler::new(traces, level, slice))
            .collect();
        let mut done = vec![false; n];
        let mut retired = 0u64;

        // Disabled features get `u64::MAX` thresholds: the per-instruction
        // poll is then a never-taken compare instead of flag re-checks.
        let first = |every: u64| if every > 0 { every } else { u64::MAX };
        let mut next_warm = first(warmup_instructions);
        let mut next_window = first(window_instructions);
        let checkpoint_interval = self.cfg.checkpoint_interval;
        let mut next_checkpoint = first(checkpoint_interval);
        let budget_limit = self.cfg.instruction_budget.unwrap_or(u64::MAX);
        let mut next_cancel_check = if self.cancel.is_some() {
            CANCEL_CHECK_INTERVAL
        } else {
            u64::MAX
        };
        let mut warm_snapshot: Option<Vec<Counters>> = None;
        let mut windows = Vec::new();
        let mut window_start = Counters::new();
        let mut checkpoints = Vec::new();
        let mut termination = Termination::Completed;
        // All periodic thresholds collapse into one merged poll: each
        // fires at an exact instruction count, so checking the minimum
        // and re-deriving it after a hit preserves boundary semantics.
        let mut next_poll = next_warm
            .min(next_window)
            .min(next_checkpoint)
            .min(budget_limit)
            .min(next_cancel_check);

        // The loop is specialized on `hooks`: when every instrumentation
        // layer is off and the protocol need not see every access — the
        // common case and the whole benchmark kernel — the `false`
        // instantiations of the step functions compile the hook plumbing
        // out entirely. The flags cannot turn on mid-run, so one check up
        // front covers the run.
        let hooks = coh.observes_every_access() || self.cores.iter().any(Core::hooks_active);
        let span_drain = n == 1 && !hooks;
        loop {
            // Next core by functional-clock order, lowest id on ties.
            let mut c = usize::MAX;
            let mut best = u64::MAX;
            for (i, core) in self.cores.iter().enumerate() {
                if !done[i] && core.fnow < best {
                    best = core.fnow;
                    c = i;
                }
            }
            if c == usize::MAX {
                break;
            }
            // The scheduler sees the *functional* clock, not the timing
            // clock: time-slice context switches then land on identical
            // instruction boundaries for every timing variant of one cache
            // geometry.
            let sched = &mut scheds[c];
            let Some(instr) = sched.next_instruction(best) else {
                done[c] = true;
                continue;
            };
            let before = self.cores[c].counters.instructions;
            if hooks {
                step::<true, P>(&mut self.cores, &mut self.back, coh, c, &instr);
            } else {
                step::<false, P>(&mut self.cores, &mut self.back, coh, c, &instr);
            }
            let core = &mut self.cores[c];
            sched.post_instruction(core.fnow, instr.ifetch.syscall);
            if span_drain {
                // One core: its retired count is the machine's.
                drain_span(core, &mut self.back, sched, next_poll);
            }
            retired += core.counters.instructions - before;
            if hooks {
                core.after_instruction(sched, retired)?;
                if let Some(err) = coh.check(&self.cores) {
                    return Err(err);
                }
            }
            if retired >= next_poll {
                if retired >= next_cancel_check {
                    next_cancel_check = retired + CANCEL_CHECK_INTERVAL;
                    if self.cancel.as_ref().is_some_and(CancelToken::is_cancelled) {
                        return Err(SimError::Cancelled);
                    }
                }
                if retired >= next_warm {
                    warm_snapshot = Some(self.cores.iter().map(|core| core.counters).collect());
                    next_warm = u64::MAX;
                }
                if retired >= next_window {
                    let now = merged(self.cores.iter().map(|core| core.counters));
                    windows.push(now.since(&window_start));
                    window_start = now;
                    next_window += window_instructions;
                }
                if retired >= next_checkpoint {
                    // Every core's restart rollback target is its own
                    // clock at the checkpoint.
                    for core in &mut self.cores {
                        core.last_checkpoint_cycle = core.now;
                    }
                    checkpoints.push(Checkpoint {
                        cycle: self.cores[c].now,
                        instructions: retired,
                        sched: scheds[c].snapshot(),
                    });
                    next_checkpoint += checkpoint_interval;
                }
                if retired >= budget_limit {
                    termination = Termination::BudgetExhausted;
                    break;
                }
                next_poll = next_warm
                    .min(next_window)
                    .min(next_checkpoint)
                    .min(budget_limit)
                    .min(next_cancel_check);
            }
        }

        for (core, sched) in self.cores.iter_mut().zip(&scheds) {
            core.finish(&self.back, sched)?;
        }
        // The warm-up snapshot predates the end-of-run switch counts (they
        // are zero mid-run), so the delta keeps the full-run switch totals.
        let per_core: Vec<Counters> = self
            .cores
            .iter()
            .enumerate()
            .map(|(i, core)| match &warm_snapshot {
                Some(snaps) => core.counters.since(&snaps[i]),
                None => core.counters,
            })
            .collect();
        // Per-process rows merge by PID across cores (a benchmark runs on
        // one core, but a shared pseudo-process appears on all of them).
        let mut rows: Vec<ProcCounters> = Vec::new();
        for core in &self.cores {
            for (pid, p) in core.per_proc().iter().enumerate() {
                if rows.len() <= pid {
                    rows.resize(pid + 1, ProcCounters::default());
                }
                rows[pid] = rows[pid].accum(p);
            }
        }
        let result = SimResult {
            config: self.cfg.clone(),
            counters: merged(per_core.iter().copied()),
            completed: scheds
                .iter()
                .flat_map(|sched| sched.completed().iter().cloned())
                .collect(),
            per_process: active_processes(&rows),
            termination,
            checkpoints,
        };
        Ok(Run {
            result,
            windows,
            per_core,
        })
    }
}

/// The field-wise sum of per-core counters.
fn merged(per_core: impl Iterator<Item = Counters>) -> Counters {
    per_core.fold(Counters::new(), |acc, c| acc.accum(&c))
}

/// Steps core `c` through one instruction, with the protocol's hook on
/// its data access when other cores exist.
#[inline]
fn step<const HOOKS: bool, P: Coherence>(
    cores: &mut [Core],
    back: &mut Backside,
    coh: &mut P,
    c: usize,
    instr: &Instruction,
) {
    let (before, rest) = cores.split_at_mut(c);
    let (core, after) = rest.split_first_mut().expect("active core exists");
    core.step_ifetch::<HOOKS>(back, &instr.ifetch);
    let Some(data) = &instr.data else {
        return;
    };
    if before.is_empty() && after.is_empty() {
        core.step_data::<HOOKS, _>(back, &mut NoCoherence, data);
    } else {
        core.step_data::<HOOKS, _>(back, &mut coh.hook(c, before, after), data);
    }
}

/// The span drain of an uninstrumented single core: steps straight over
/// the installed process's buffered events, checking the same
/// per-instruction conditions (syscall, slice expiry, the merged poll at
/// `next_poll`) inline. `post_instruction` on a non-rotating instruction
/// is a no-op, so reporting only the rotating one is exact. The buffer's
/// final event is left for `next_instruction`, which can peek across a
/// batch refill for its data half.
#[inline]
fn drain_span(core: &mut Core, back: &mut Backside, sched: &mut Scheduler, next_poll: u64) {
    let slice_end = sched.slice_end();
    loop {
        if core.counters.instructions >= next_poll {
            break;
        }
        let (span, start) = sched.current_span();
        let end = span.len();
        if end - start < 2 {
            break;
        }
        let mut pos = start;
        let mut rotated = false;
        let mut rotate_syscall = false;
        while pos + 1 < end {
            let ifetch = span[pos];
            pos += 1;
            let d = span[pos];
            let data = if d.kind.is_data() {
                pos += 1;
                Some(d)
            } else {
                None
            };
            core.step_ifetch::<false>(back, &ifetch);
            if let Some(d) = data {
                core.step_data::<false, _>(back, &mut NoCoherence, &d);
            }
            if ifetch.syscall || core.fnow >= slice_end {
                rotated = true;
                rotate_syscall = ifetch.syscall;
                break;
            }
            if core.counters.instructions >= next_poll {
                break;
            }
        }
        sched.advance(pos - start);
        if rotated {
            sched.post_instruction(core.fnow, rotate_syscall);
            break;
        }
    }
}

// ---- the per-core run hooks ----

impl Core {
    /// The run-level hooks after one hooked instruction on this core:
    /// telemetry's scheduler tick, then the machine-check halt and the
    /// differential oracle's divergence, either of which ends the run.
    /// `retired` counts the machine's instructions so far.
    fn after_instruction(&mut self, sched: &Scheduler, retired: u64) -> Result<(), SimError> {
        if self.telem_on {
            self.telem_sched_tick(sched.total_switches());
        }
        if let Some(fault) = self.pending_mc.take() {
            return Err(SimError::MachineCheck {
                fault,
                cycle: self.now,
                instructions: retired,
            });
        }
        if self.diff_on {
            if let Some(err) = self.take_divergence() {
                return Err(err);
            }
        }
        Ok(())
    }

    /// Closes this core's run: the oracle's final structural sweep (so a
    /// divergence in the tail still surfaces), the scheduler's switch
    /// counts, and telemetry's end-of-run snapshot.
    fn finish(&mut self, back: &Backside, sched: &Scheduler) -> Result<(), SimError> {
        if let Some(mut ds) = self.diff.take() {
            ds.full_state_check(&self.structures(back));
            self.diff = Some(ds);
        }
        if let Some(err) = self.take_divergence() {
            return Err(err);
        }
        self.counters.syscall_switches = sched.syscall_switches();
        self.counters.slice_switches = sched.slice_switches();
        debug_assert_eq!(
            self.now,
            self.counters.total_cycles(),
            "cycle accounting must balance"
        );
        if self.telem_on {
            self.telem_finalize(back);
        }
        Ok(())
    }

    /// Takes a pending divergence as the run-terminating error.
    fn take_divergence(&mut self) -> Option<SimError> {
        let report = self.diff.as_mut()?.take_report()?;
        if let Some(t) = self.telem.as_deref_mut() {
            t.reg.inc(t.c_oracle_divergence);
            t.spans
                .instant("oracle.divergence", Component::Oracle, self.now);
        }
        Some(SimError::Divergence(Box::new(report)))
    }

    /// Notes scheduler progress: compares the switch total against the
    /// last observed one and emits an instant event per new switch.
    #[cold]
    #[inline(never)]
    fn telem_sched_tick(&mut self, switches: u64) {
        let now = self.now;
        let t = self.telem.as_deref_mut().expect("telem_on implies state");
        if switches != t.last_switches {
            t.reg.add(t.c_sched_switch, switches - t.last_switches);
            t.spans.instant("sched.switch", Component::Sched, now);
            t.last_switches = switches;
        }
    }

    /// End-of-run snapshot of structure-level statistics into the
    /// registry (final occupancies, TLB traffic, buffer high-water mark)
    /// so the summary table reflects state the counters alone cannot.
    #[cold]
    #[inline(never)]
    fn telem_finalize(&mut self, back: &Backside) {
        let (l2i, l2d) = back.l2_sides();
        let rows = [
            ("l1i.occupancy", self.l1i.occupancy() as u64),
            ("l1d.occupancy", self.l1d.array().occupancy() as u64),
            ("l2i.occupancy", l2i.occupancy() as u64),
            ("l2d.occupancy", l2d.occupancy() as u64),
            ("itlb.accesses", self.itlb.accesses()),
            ("dtlb.accesses", self.dtlb.accesses()),
            ("wb.peak_depth", self.wb.peak_depth() as u64),
            ("wb.total_enqueued", self.wb.total_enqueued()),
            (
                "mem.demand_misses",
                back.timing.mem_d.total_misses() + back.timing.mem_i.total_misses(),
            ),
        ];
        let t = self.telem.as_deref_mut().expect("telem_on implies state");
        for (name, v) in rows {
            let id = t.reg.counter(name);
            t.reg.add(id, v);
        }
    }
}
