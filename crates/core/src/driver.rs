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
//! deterministic and independent of timing knobs. Without
//! instrumentation, at every core count, the driver keeps a cursor into
//! each core's buffered scheduler events and steps the picked core
//! straight from it (the span interleave), which is where both engines
//! spend their time: one core steps on to the end of its span, several
//! cores are picked again after every instruction. The scheduler is
//! entered only for refills, admissions, rotations and the merged poll.
//! Instrumented runs (telemetry, fault injection, either oracle) take
//! the per-instruction scheduler path, with the run hooks after each
//! instruction; both paths retire the same instructions in the same
//! order.
//!
//! [`Simulator`]: crate::sim::Simulator

use gaas_telemetry::Component;
use gaas_trace::{Trace, TraceEvent};

use crate::config::{ConfigError, SimConfig, MAX_CORES};
use crate::cpi::{active_processes, Counters, ProcCounters};
use crate::oracle::DiffState;
use crate::pipeline::{Backside, CoherenceHook, Core, FaultState, NoCoherence, TelemetryState};
use crate::sched::Scheduler;
use crate::sim::{CancelToken, Checkpoint, SimError, SimResult, Termination};

/// Instructions between cooperative-cancellation polls: coarse enough to
/// vanish in the hot loop, fine enough (≈ tens of microseconds) that a
/// cancelled run stops promptly.
pub(crate) const CANCEL_CHECK_INTERVAL: u64 = 8192;

/// What a multi-core engine adds to the run driver: the coherence hook
/// for each data access, and the protocol check after each instruction.
/// The single CPU supplies [`NoCoherence`]; with one core the driver
/// runs [`NoCoherence`] in any engine's place.
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
        let mut poll = Poll::new(
            warmup_instructions,
            window_instructions,
            self.cfg.checkpoint_interval,
            self.cfg.instruction_budget,
            self.cancel.is_some(),
        );

        // The loop is specialized on `hooks`: when every instrumentation
        // layer is off and the protocol need not see every access — the
        // common case and the whole benchmark kernel — the `false`
        // instantiation compiles the hook plumbing out entirely and steps
        // straight over the scheduler's buffered spans. The flags cannot
        // turn on mid-run, so one check up front covers the run.
        let hooks = coh.observes_every_access() || self.cores.iter().any(Core::hooks_active);
        // One core has no other core to keep coherent, so it runs without
        // the protocol, exactly as the single CPU does (its oracle, if
        // any, would observe nothing).
        let termination = match (hooks, n) {
            (true, 1) => self.interleave::<true, _>(&mut scheds, &mut NoCoherence, &mut poll)?,
            (false, 1) => self.interleave::<false, _>(&mut scheds, &mut NoCoherence, &mut poll)?,
            (true, _) => self.interleave::<true, P>(&mut scheds, coh, &mut poll)?,
            (false, _) => self.interleave::<false, P>(&mut scheds, coh, &mut poll)?,
        };

        for (core, sched) in self.cores.iter_mut().zip(&scheds) {
            core.finish(&self.back, sched)?;
        }
        // The warm-up snapshot predates the end-of-run switch counts (they
        // are zero mid-run), so the delta keeps the full-run switch totals.
        let per_core: Vec<Counters> = self
            .cores
            .iter()
            .enumerate()
            .map(|(i, core)| match &poll.warm_snapshot {
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
            checkpoints: poll.checkpoints,
        };
        Ok(Run {
            result,
            windows: poll.windows,
            per_core,
        })
    }

    /// The scheduler loop: interleaves the cores by functional-clock
    /// order until every workload terminates or the poll ends the run.
    /// Uninstrumented, the cores step over their buffered spans
    /// ([`Machine::run_spans`]) and enter the scheduler only for the
    /// events a span cannot serve; hooked runs take the scheduler path
    /// for every instruction, with the run hooks after it.
    fn interleave<const HOOKS: bool, P: Coherence>(
        &mut self,
        scheds: &mut [Scheduler],
        coh: &mut P,
        poll: &mut Poll,
    ) -> Result<Termination, SimError> {
        let mut clocks = Clocks::new(&self.cores);
        let mut retired = 0u64;
        loop {
            let (c, stepped) = if HOOKS {
                match clocks.pick() {
                    Some(c) => (c, false),
                    None => break,
                }
            } else {
                match self.run_spans(scheds, coh, &mut clocks, &mut retired, poll.next) {
                    SpanStop::Finished => break,
                    SpanStop::Scheduler(c) => (c, false),
                    SpanStop::Stepped(c) => (c, true),
                }
            };
            if !stepped {
                // The scheduler sees the *functional* clock, not the
                // timing clock: time-slice context switches then land on
                // identical instruction boundaries for every timing
                // variant of one cache geometry.
                let sched = &mut scheds[c];
                let Some(instr) = sched.next_instruction(clocks.fnow[c]) else {
                    clocks.finish(c);
                    continue;
                };
                let (before, rest) = self.cores.split_at_mut(c);
                let (core, after) = rest.split_first_mut().expect("picked core exists");
                step::<HOOKS, P>(
                    core,
                    before,
                    after,
                    &mut self.back,
                    coh,
                    c,
                    &instr.ifetch,
                    instr.data,
                );
                clocks.fnow[c] = core.fnow;
                sched.post_instruction(core.fnow, instr.ifetch.syscall);
                retired += 1;
                if HOOKS {
                    core.after_instruction(sched, retired)?;
                    if let Some(err) = coh.check(&self.cores) {
                        return Err(err);
                    }
                }
            }
            if retired >= poll.next {
                if let Some(end) =
                    poll.fire(retired, &mut self.cores, c, &scheds[c], &self.cancel)?
                {
                    return Ok(end);
                }
            }
        }
        Ok(Termination::Completed)
    }

    /// The span interleave of an uninstrumented run: picks cores in
    /// functional-clock order and steps each straight over its installed
    /// process's buffered events through a cursor kept across picks,
    /// checking the per-instruction conditions (syscall, slice expiry,
    /// the merged poll at `next_poll`) inline in the scheduler path's
    /// order. With one core the pick never changes, so the core steps
    /// on to the end of its span; with more, the pick runs again after
    /// every instruction (turns average under two instructions, so a
    /// run-ahead horizon would cost more than it saves).
    ///
    /// Returns at the first event a span cannot serve, with every
    /// cursor written back: a core whose span is down to its final
    /// event (left for `next_instruction`, which can peek across a batch
    /// refill for its data half) or empty (a process to install); a
    /// core whose process rotated out (reported to its scheduler here:
    /// `post_instruction` on a non-rotating instruction is a no-op, so
    /// reporting only the rotating one is exact); the poll falling due;
    /// or every core finished.
    fn run_spans<P: Coherence>(
        &mut self,
        scheds: &mut [Scheduler],
        coh: &mut P,
        clocks: &mut Clocks,
        retired: &mut u64,
        next_poll: u64,
    ) -> SpanStop {
        let solo = self.cores.len() == 1;
        let mut cursors = [Cursor::EMPTY; MAX_CORES as usize];
        for (cursor, sched) in cursors.iter_mut().zip(scheds.iter()) {
            let (span, pos) = sched.current_span();
            *cursor = Cursor {
                span,
                start: pos,
                pos,
                slice_end: sched.slice_end(),
            };
        }
        let mut rotated = None;
        let stop = loop {
            let Some(c) = clocks.pick() else {
                break SpanStop::Finished;
            };
            let cursor = &mut cursors[c];
            let span = cursor.span;
            let mut pos = cursor.pos;
            if pos + 1 >= span.len() {
                break SpanStop::Scheduler(c);
            }
            let (before, rest) = self.cores.split_at_mut(c);
            let (core, after) = rest.split_first_mut().expect("picked core exists");
            while pos + 1 < span.len() {
                let ifetch = span[pos];
                pos += 1;
                let d = span[pos];
                let data = if d.kind.is_data() {
                    pos += 1;
                    Some(d)
                } else {
                    None
                };
                step::<false, P>(core, before, after, &mut self.back, coh, c, &ifetch, data);
                *retired += 1;
                if ifetch.syscall || core.fnow >= cursor.slice_end {
                    rotated = Some((core.fnow, ifetch.syscall));
                    break;
                }
                if *retired >= next_poll || !solo {
                    break;
                }
            }
            cursor.pos = pos;
            clocks.fnow[c] = core.fnow;
            if rotated.is_some() || *retired >= next_poll {
                break SpanStop::Stepped(c);
            }
        };
        let consumed = cursors.map(|cursor| cursor.pos - cursor.start);
        for (sched, events) in scheds.iter_mut().zip(consumed) {
            sched.advance(events);
        }
        if let (SpanStop::Stepped(c), Some((fnow, syscall))) = (stop, rotated) {
            scheds[c].post_instruction(fnow, syscall);
        }
        stop
    }
}

/// Every live core's functional clock: the pick scans this instead of
/// the cores themselves. A core's `fnow` moves only when it steps
/// (coherence actions charge the requester's timing clock alone), so
/// the loop refreshes one entry per step.
struct Clocks {
    /// `fnow` per core, or `u64::MAX` once its workload has terminated
    /// (a clock the pick never takes).
    fnow: [u64; MAX_CORES as usize],
    cores: usize,
}

impl Clocks {
    fn new(cores: &[Core]) -> Self {
        let mut fnow = [u64::MAX; MAX_CORES as usize];
        for (clock, core) in fnow.iter_mut().zip(cores) {
            *clock = core.fnow;
        }
        Clocks {
            fnow,
            cores: cores.len(),
        }
    }

    /// The next core by functional-clock order, lowest id on ties;
    /// `None` once every core has finished.
    #[inline]
    fn pick(&self) -> Option<usize> {
        let mut c = None;
        let mut best = u64::MAX;
        for (i, &clock) in self.fnow[..self.cores].iter().enumerate() {
            if clock < best {
                best = clock;
                c = Some(i);
            }
        }
        c
    }

    /// Takes core `c` out of the pick.
    fn finish(&mut self, c: usize) {
        self.fnow[c] = u64::MAX;
    }
}

/// Where [`Machine::run_spans`] stopped.
#[derive(Debug, Clone, Copy)]
enum SpanStop {
    /// Every core's workload has terminated.
    Finished,
    /// The picked core needs the scheduler for its next instruction.
    Scheduler(usize),
    /// This core retired an instruction that rotated its process out or
    /// made the poll due.
    Stepped(usize),
}

/// A core's position in its installed process's buffered events.
#[derive(Clone, Copy)]
struct Cursor<'a> {
    span: &'a [TraceEvent],
    /// Position when the cursor was taken.
    start: usize,
    pos: usize,
    /// The process's time-slice expiry (constant while it is installed).
    slice_end: u64,
}

impl Cursor<'_> {
    const EMPTY: Self = Cursor {
        span: &[],
        start: 0,
        pos: 0,
        slice_end: 0,
    };
}

/// The merged poll over warm-up, windows, checkpoints, the instruction
/// budget and cancellation, all counted in instructions retired by the
/// whole machine, and what it collects.
struct Poll {
    /// The smallest threshold below: the loop's one per-instruction
    /// compare. Each threshold fires at an exact instruction count, so
    /// checking the minimum and re-deriving it after a hit preserves
    /// boundary semantics.
    next: u64,
    next_warm: u64,
    next_window: u64,
    next_checkpoint: u64,
    next_cancel_check: u64,
    budget_limit: u64,
    window_instructions: u64,
    checkpoint_interval: u64,
    warm_snapshot: Option<Vec<Counters>>,
    windows: Vec<Counters>,
    window_start: Counters,
    checkpoints: Vec<Checkpoint>,
}

impl Poll {
    fn new(
        warmup_instructions: u64,
        window_instructions: u64,
        checkpoint_interval: u64,
        budget: Option<u64>,
        cancellable: bool,
    ) -> Self {
        // Disabled features get `u64::MAX` thresholds: the per-instruction
        // poll is then a never-taken compare instead of flag re-checks.
        let first = |every: u64| if every > 0 { every } else { u64::MAX };
        let mut poll = Poll {
            next: 0,
            next_warm: first(warmup_instructions),
            next_window: first(window_instructions),
            next_checkpoint: first(checkpoint_interval),
            next_cancel_check: if cancellable {
                CANCEL_CHECK_INTERVAL
            } else {
                u64::MAX
            },
            budget_limit: budget.unwrap_or(u64::MAX),
            window_instructions,
            checkpoint_interval,
            warm_snapshot: None,
            windows: Vec::new(),
            window_start: Counters::new(),
            checkpoints: Vec::new(),
        };
        poll.rearm();
        poll
    }

    fn rearm(&mut self) {
        self.next = self
            .next_warm
            .min(self.next_window)
            .min(self.next_checkpoint)
            .min(self.budget_limit)
            .min(self.next_cancel_check);
    }

    /// Handles every threshold `retired` has reached; core `c` retired
    /// the crossing instruction. `Some` ends the run with that
    /// termination.
    #[cold]
    fn fire(
        &mut self,
        retired: u64,
        cores: &mut [Core],
        c: usize,
        sched: &Scheduler,
        cancel: &Option<CancelToken>,
    ) -> Result<Option<Termination>, SimError> {
        if retired >= self.next_cancel_check {
            self.next_cancel_check = retired + CANCEL_CHECK_INTERVAL;
            if cancel.as_ref().is_some_and(CancelToken::is_cancelled) {
                return Err(SimError::Cancelled);
            }
        }
        if retired >= self.next_warm {
            self.warm_snapshot = Some(cores.iter().map(|core| core.counters).collect());
            self.next_warm = u64::MAX;
        }
        if retired >= self.next_window {
            let now = merged(cores.iter().map(|core| core.counters));
            self.windows.push(now.since(&self.window_start));
            self.window_start = now;
            self.next_window += self.window_instructions;
        }
        if retired >= self.next_checkpoint {
            // Every core's restart rollback target is its own clock at
            // the checkpoint.
            for core in cores.iter_mut() {
                core.last_checkpoint_cycle = core.now;
            }
            self.checkpoints.push(Checkpoint {
                cycle: cores[c].now,
                instructions: retired,
                sched: sched.snapshot(),
            });
            self.next_checkpoint += self.checkpoint_interval;
        }
        if retired >= self.budget_limit {
            return Ok(Some(Termination::BudgetExhausted));
        }
        self.rearm();
        Ok(None)
    }
}

/// The field-wise sum of per-core counters.
fn merged(per_core: impl Iterator<Item = Counters>) -> Counters {
    per_core.fold(Counters::new(), |acc, c| acc.accum(&c))
}

/// Steps core `c` (split from the `before` and `after` cores) through
/// one instruction, with the protocol's hook on its data access.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn step<const HOOKS: bool, P: Coherence>(
    core: &mut Core,
    before: &mut [Core],
    after: &mut [Core],
    back: &mut Backside,
    coh: &mut P,
    c: usize,
    ifetch: &TraceEvent,
    data: Option<TraceEvent>,
) {
    core.step_ifetch::<HOOKS>(back, ifetch);
    if let Some(data) = &data {
        core.step_data::<HOOKS, _>(back, &mut coh.hook(c, before, after), data);
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
