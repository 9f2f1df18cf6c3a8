//! The per-core L1 pipeline: the paper's cycle rules, written once and
//! instanced per core.
//!
//! A [`Core`] is one CPU's front end — split L1-I/L1-D, ITLB/DTLB, write
//! buffer, translation cache, timing and functional clocks, counters and
//! per-PID rows — and a [`Backside`] is what every core sees behind it:
//! the L2 arrays, main memory, the page mapper and the derived cycle
//! costs. The rules for an ifetch, a load, a store and a write-buffer
//! drain are methods of [`Core`] that take the back side as an argument,
//! so both engines run the same code: the run driver
//! ([`crate::driver`]) steps one core for [`Simulator`] and N of them
//! over one back side for the CMP engine in `gaas-coherence`.
//!
//! The cycle-cost rules — L2/memory miss service, the write-buffer waits
//! of an I-miss and a D-miss, and the enqueue with its drain cost — are
//! methods of [`Timing`], the back side's timing half. They take the L2
//! outcome as a code rather than probing the arrays, so the co-pricer
//! (`profile`) runs them too: each of its lanes owns a `Timing` and feeds
//! it the outcomes recorded by a functional pass.
//!
//! Coherence plugs in through [`CoherenceHook`], dispatched statically:
//! the single CPU passes [`NoCoherence`], whose empty bodies compile
//! away, and the CMP engine passes its MESI directory view.
//!
//! The step methods are specialized on `HOOKS`. With `HOOKS = false`
//! every instrumentation hook (fault injection, the differential oracle,
//! telemetry, the profile recorder) compiles out and the same-line /
//! same-page memos skip probes whose outcome is already known. With
//! `HOOKS = true` the memos are off, so every access reaches the arrays
//! (and the hooks observe it).
//!
//! [`Simulator`]: crate::sim::Simulator

use gaas_cache::fault::{
    resolve, FaultEffect, FaultEvent, FaultInjector, ProtectionMap, Structure,
};
use gaas_cache::{
    CacheArray, L1DataCache, MemorySystem, PageMapper, Tlb, WriteBuffer, WritePolicy,
};
use gaas_telemetry::{Component, CounterId, Registry, SpanRecorder};
use gaas_trace::{AccessKind, PhysAddr, TraceEvent, VirtAddr, PAGE_SHIFT};

use crate::config::{
    ConfigError, L2Config, MachineCheckPolicy, SeededBug, ServiceCosts, SimConfig, WbBypass,
    REF_MEM_CLEAN, REF_MEM_DIRTY,
};
use crate::cpi::{Counters, ProcCounters};
use crate::oracle::{Deltas, DiffState, SimStructures};
use crate::profile::ProfileRecorder;

/// Size of the per-core translation-lookup cache (a software
/// accelerator, not an architectural structure).
const TCACHE_WAYS: usize = 256;

enum L2Arrays {
    Unified(CacheArray),
    Split { i: CacheArray, d: CacheArray },
}

/// The structures every core shares: the L2 arrays, the page mapper and
/// the [`Timing`] behind them.
pub struct Backside {
    l2: L2Arrays,
    mapper: PageMapper,
    pub(crate) timing: Timing,
    write_through: bool,
}

/// L2 outcome codes of an L1 miss, as the cost rules and the profile
/// tokens use them (0 is an L1 hit, which never reaches the rules).
pub(crate) const L2_HIT: u8 = 1;
/// L2 miss whose victim is clean.
pub(crate) const L2_MISS_CLEAN: u8 = 2;
/// L2 miss whose victim is dirty.
pub(crate) const L2_MISS_DIRTY: u8 = 3;

/// The timing half of the back side: the memory systems behind L2 and
/// the cycle costs and §9 switches of one configuration, with the cost
/// rules as methods. A rule takes the L2 outcome of the access it prices
/// (`L2_HIT`, `L2_MISS_CLEAN`, `L2_MISS_DIRTY`; a drain's code is 0 for a
/// hit and 1/2 for a miss with a clean/dirty victim) and charges one
/// core's counters and write buffer, so the live pipeline and every
/// co-pricer lane run the same arithmetic.
pub(crate) struct Timing {
    /// Memory behind L2-D (or the unified L2); carries the dirty buffer.
    pub(crate) mem_d: MemorySystem,
    /// Memory behind a split L2-I (no dirty buffer).
    pub(crate) mem_i: MemorySystem,
    pub(crate) costs: ServiceCosts,
    pub(crate) tlb_penalty: u64,
    concurrent_i_refill: bool,
    d_read_bypass: WbBypass,
    d_line_words: u32,
    split_l2: bool,
}

/// What one write-buffer enqueue charged (see [`Timing::enqueue`]).
pub(crate) struct Enqueued {
    /// CPU stall waiting for a free slot.
    pub(crate) stall: u64,
    /// When the drain starts to occupy L2-D.
    pub(crate) busy_from: u64,
    /// When the entry has drained.
    pub(crate) completes: u64,
}

impl Timing {
    /// Fresh timing state for `cfg`'s timing point.
    pub(crate) fn new(cfg: &SimConfig) -> Self {
        Timing {
            mem_d: MemorySystem::new(cfg.memory, cfg.concurrency.l2d_dirty_buffer),
            mem_i: MemorySystem::new(cfg.memory, false),
            costs: cfg.service_costs(),
            tlb_penalty: cfg.tlb_miss_penalty as u64,
            concurrent_i_refill: cfg.concurrency.concurrent_i_refill,
            d_read_bypass: cfg.concurrency.d_read_bypass,
            d_line_words: cfg.l1d.line_words,
            split_l2: cfg.l2.is_split(),
        }
    }

    /// The memory system an L2 miss on the given side goes to: a split
    /// L2-I has its own, everything else shares the L2-D one.
    fn mem(&mut self, i_side: bool) -> &mut MemorySystem {
        if i_side && self.split_l2 {
            &mut self.mem_i
        } else {
            &mut self.mem_d
        }
    }

    /// Charges a TLB miss; returns the walk penalty.
    #[inline]
    pub(crate) fn tlb_miss(&self, c: &mut Counters, i_side: bool) -> u64 {
        if i_side {
            c.itlb_misses += 1;
        } else {
            c.dtlb_misses += 1;
        }
        c.tlb_miss_cycles += self.tlb_penalty;
        self.tlb_penalty
    }

    /// Services an L1 miss on the given side whose L2 outcome is
    /// `outcome`, starting at `start`; returns the stall, with its
    /// components attributed.
    pub(crate) fn service(
        &mut self,
        c: &mut Counters,
        i_side: bool,
        start: u64,
        outcome: u8,
    ) -> u64 {
        let (hit_cost, accesses, misses, l1_cycles, l2_cycles) = if i_side {
            (
                self.costs.i_hit as u64,
                &mut c.l2i_accesses,
                &mut c.l2i_misses,
                &mut c.l1i_miss_cycles,
                &mut c.l2i_miss_cycles,
            )
        } else {
            (
                self.costs.d_hit as u64,
                &mut c.l2d_accesses,
                &mut c.l2d_misses,
                &mut c.l1d_miss_cycles,
                &mut c.l2d_miss_cycles,
            )
        };
        *accesses += 1;
        if outcome == L2_HIT {
            *l1_cycles += hit_cost;
            return hit_cost;
        }
        *misses += 1;
        let svc = self
            .mem(i_side)
            .service_miss(start, outcome == L2_MISS_DIRTY);
        // Attribute up to the L2-hit-equivalent cost to the L1 component and
        // the excess to the L2 component. An exotic configuration can make
        // the memory penalty smaller than the hit cost; clamp so the
        // components still sum to the charged stall.
        let service = svc.stall_cycles - svc.dirty_buffer_wait;
        let l1_share = service.min(hit_cost);
        *l1_cycles += l1_share;
        *l2_cycles += service - l1_share;
        c.dirty_buffer_wait_cycles += svc.dirty_buffer_wait;
        svc.stall_cycles
    }

    /// Write-buffer wait (attributed) of an L1-I miss at `start`: the
    /// base rule waits for the buffer to empty (keeps the unified L2
    /// consistent); the §9 concurrent refill drops the wait.
    #[inline]
    pub(crate) fn i_miss_wb_wait(&self, c: &mut Counters, wb: &mut WriteBuffer, start: u64) -> u64 {
        if self.concurrent_i_refill {
            return 0;
        }
        let wait = wb.empty_at(start) - start;
        c.wb_wait_cycles += wait;
        wait
    }

    /// Write-buffer wait (attributed) that an L1-D miss must take before
    /// its L2 fetch, per the configured bypass scheme.
    #[inline]
    pub(crate) fn d_miss_wb_wait(
        &self,
        c: &mut Counters,
        wb: &mut WriteBuffer,
        start: u64,
        line_base: PhysAddr,
        replaced_written: bool,
    ) -> u64 {
        let until = match self.d_read_bypass {
            WbBypass::Wait => wb.empty_at(start),
            WbBypass::DirtyBit => {
                if replaced_written {
                    wb.empty_at(start)
                } else {
                    start
                }
            }
            WbBypass::Associative => wb
                .match_line(start, line_base, self.d_line_words)
                .map_or(start, |t| t.max(start)),
        };
        let wait = until - start;
        c.wb_wait_cycles += wait;
        wait
    }

    /// Enqueues a write into `wb` at `start`, stalling for a slot if the
    /// buffer is full. `drain` is the drain's L2-D outcome: a miss
    /// allocates from memory, which lengthens the drain (it stalls the
    /// buffer, not the CPU, and does not compete for the dirty buffer).
    #[inline]
    pub(crate) fn enqueue(
        &mut self,
        c: &mut Counters,
        wb: &mut WriteBuffer,
        start: u64,
        addr: PhysAddr,
        drain: u8,
    ) -> Enqueued {
        let free_at = wb.slot_free_at(start);
        let stall = free_at - start;
        c.wb_wait_cycles += stall;
        c.l2_drain_writes += 1;
        let extra = if drain == 0 {
            0
        } else {
            c.l2_drain_misses += 1;
            self.mem_d.service_miss_raw(drain == 2).stall_cycles as u32
        };
        let busy_from = free_at.max(wb.last_completion());
        let completes = wb.enqueue(
            free_at,
            addr,
            self.costs.drain_access,
            self.costs.drain_stream,
            extra,
        );
        c.l2_drain_busy_cycles += completes - busy_from;
        Enqueued {
            stall,
            busy_from,
            completes,
        }
    }
}

impl Backside {
    /// Builds the shared back side for `cfg` (which the caller has
    /// validated).
    pub(crate) fn new(cfg: &SimConfig) -> Result<Self, ConfigError> {
        let l2 = match cfg.l2 {
            L2Config::Unified(s) => L2Arrays::Unified(CacheArray::new(s.geometry()?)),
            L2Config::Split { i, d } => L2Arrays::Split {
                i: CacheArray::new(i.geometry()?),
                d: CacheArray::new(d.geometry()?),
            },
        };
        Ok(Backside {
            l2,
            mapper: PageMapper::new(cfg.page_colors),
            timing: Timing::new(cfg),
            write_through: cfg.policy.is_write_through(),
        })
    }

    /// The (instruction, data) L2 arrays; both alias the one array of a
    /// unified L2.
    pub(crate) fn l2_sides(&self) -> (&CacheArray, &CacheArray) {
        match &self.l2 {
            L2Arrays::Unified(a) => (a, a),
            L2Arrays::Split { i, d } => (i, d),
        }
    }

    /// Touches the instruction side of L2; on a hit returns whether the
    /// line was dirty.
    fn l2_touch_i(&mut self, addr: PhysAddr) -> Option<bool> {
        match &mut self.l2 {
            L2Arrays::Unified(a) | L2Arrays::Split { i: a, .. } => a.touch(addr).map(|l| l.dirty()),
        }
    }

    /// Touches the data side of L2; on a hit returns whether the line was
    /// dirty.
    fn l2_touch_d(&mut self, addr: PhysAddr) -> Option<bool> {
        match &mut self.l2 {
            L2Arrays::Unified(a) | L2Arrays::Split { d: a, .. } => a.touch(addr).map(|l| l.dirty()),
        }
    }

    /// Fills the instruction side of L2; returns whether the victim was
    /// dirty.
    fn l2_fill_i(&mut self, addr: PhysAddr) -> bool {
        match &mut self.l2 {
            L2Arrays::Unified(a) | L2Arrays::Split { i: a, .. } => {
                a.fill(addr).is_some_and(|e| e.dirty)
            }
        }
    }

    fn l2_fill_d(&mut self, addr: PhysAddr) -> bool {
        match &mut self.l2 {
            L2Arrays::Unified(a) | L2Arrays::Split { d: a, .. } => {
                a.fill(addr).is_some_and(|e| e.dirty)
            }
        }
    }

    /// Marks the data-side L2 line for `addr` dirty, if resident (a
    /// drained write, or modified data flushed by a coherence action).
    pub fn mark_l2d_dirty(&mut self, addr: PhysAddr) {
        let (L2Arrays::Unified(a) | L2Arrays::Split { d: a, .. }) = &mut self.l2;
        if let Some(mut line) = a.touch(addr) {
            line.set_dirty(true);
        }
    }

    /// Drains one buffered write into L2-D, allocating on a miss; returns
    /// the drain's outcome code (0 = hit, 1/2 = miss with a clean/dirty
    /// victim).
    fn drain_l2(&mut self, addr: PhysAddr) -> u8 {
        let code = if self.l2_touch_d(addr).is_some() {
            0
        } else if self.l2_fill_d(addr) {
            2
        } else {
            1
        };
        self.mark_l2d_dirty(addr);
        code
    }
}

/// Coherence actions a multi-core engine inserts into the per-core
/// pipeline, statically dispatched. L1-I is outside the protocol, so only
/// the data side calls out.
pub trait CoherenceHook {
    /// What [`CoherenceHook::before_store`] hands to
    /// [`CoherenceHook::store`].
    type Pending;

    /// A load hit on `paddr` (hooked path only: the memo-free path the
    /// engine takes while an oracle watches).
    fn load_hit(&mut self, paddr: PhysAddr);

    /// A load miss on `core` has just refilled the L1-D line at
    /// `line_base`, at time `t0`; returns the coherence stall, which
    /// precedes the write-buffer wait and the L2 fetch.
    fn load_fill(
        &mut self,
        core: &mut Core,
        back: &mut Backside,
        t0: u64,
        line_base: PhysAddr,
    ) -> u64;

    /// Reads what the store to `paddr` needs before the L1-D changes (a
    /// write-allocate fill would make a stale copy look fresh).
    fn before_store(&mut self, core: &Core, paddr: PhysAddr) -> Self::Pending;

    /// A store has updated `core`'s L1-D at time `t0`; returns the
    /// coherence stall, which precedes the store's write-buffer traffic.
    fn store(
        &mut self,
        core: &mut Core,
        back: &mut Backside,
        t0: u64,
        pending: Self::Pending,
    ) -> u64;
}

/// The single CPU's coherence hook: no other cores, nothing to do.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoCoherence;

impl CoherenceHook for NoCoherence {
    type Pending = ();

    #[inline(always)]
    fn load_hit(&mut self, _: PhysAddr) {}

    #[inline(always)]
    fn load_fill(&mut self, _: &mut Core, _: &mut Backside, _: u64, _: PhysAddr) -> u64 {
        0
    }

    #[inline(always)]
    fn before_store(&mut self, _: &Core, _: PhysAddr) {}

    #[inline(always)]
    fn store(&mut self, _: &mut Core, _: &mut Backside, _: u64, (): ()) -> u64 {
        0
    }
}

/// Live fault-injection state (present only when injection is enabled, so
/// the fault-free path stays bit-identical to a build without it).
pub(crate) struct FaultState {
    pub(crate) injector: FaultInjector,
    pub(crate) protection: ProtectionMap,
    pub(crate) ecc_penalty: u64,
    /// True for [`MachineCheckPolicy::Halt`].
    pub(crate) halt: bool,
    /// Per-structure set counts for fault-site reporting, in
    /// [`Structure::index`] order.
    pub(crate) sets: [u64; 5],
}

impl FaultState {
    /// Core `core`'s fault state: its injector is seeded
    /// `fault.seed + core`.
    pub(crate) fn new(cfg: &SimConfig, core: u64) -> Result<Self, ConfigError> {
        let f = &cfg.fault;
        Ok(FaultState {
            injector: FaultInjector::new(
                f.seed.wrapping_add(core),
                f.rates,
                f.multi_bit_frac,
                f.targeted.clone(),
            ),
            protection: f.protection,
            ecc_penalty: f.ecc_correction_cycles as u64,
            halt: f.machine_check == MachineCheckPolicy::Halt,
            sets: [
                cfg.l1i.geometry()?.n_sets(),
                cfg.l1d.geometry()?.n_sets(),
                cfg.l2.d_side().geometry()?.n_sets(),
                8, // the paper's 16-entry 2-way TLBs
                cfg.write_buffer.depth as u64,
            ],
        })
    }
}

/// Live telemetry state (present only when telemetry is enabled, so the
/// untelemetered path stays bit-identical to a build without it). All
/// recording is passive: it never charges cycles and never touches the
/// fault injector's PRNG.
pub(crate) struct TelemetryState {
    pub(crate) reg: Registry,
    pub(crate) spans: SpanRecorder,
    /// Last observed scheduler switch total, for switch-event detection.
    pub(crate) last_switches: u64,
    // Pre-registered counter handles, so hot-path bumps are one indexed
    // add with no name lookup.
    c_l2_lookup_i: CounterId,
    c_l2_lookup_d: CounterId,
    c_mem_refill_i: CounterId,
    c_mem_refill_d: CounterId,
    c_wb_enqueue: CounterId,
    c_wb_full_stall: CounterId,
    c_wb_read_wait: CounterId,
    c_tlb_walk_i: CounterId,
    c_tlb_walk_d: CounterId,
    pub(crate) c_sched_switch: CounterId,
    c_fault_event: CounterId,
    pub(crate) c_oracle_divergence: CounterId,
}

impl TelemetryState {
    pub(crate) fn new(span_capacity: usize) -> Self {
        let mut reg = Registry::new();
        let c_l2_lookup_i = reg.counter("l2.lookup.i");
        let c_l2_lookup_d = reg.counter("l2.lookup.d");
        let c_mem_refill_i = reg.counter("mem.refill.i");
        let c_mem_refill_d = reg.counter("mem.refill.d");
        let c_wb_enqueue = reg.counter("wb.enqueue");
        let c_wb_full_stall = reg.counter("wb.full_stall");
        let c_wb_read_wait = reg.counter("wb.read_wait");
        let c_tlb_walk_i = reg.counter("tlb.walk.i");
        let c_tlb_walk_d = reg.counter("tlb.walk.d");
        let c_sched_switch = reg.counter("sched.switch");
        let c_fault_event = reg.counter("fault.event");
        let c_oracle_divergence = reg.counter("oracle.divergence");
        TelemetryState {
            reg,
            spans: SpanRecorder::new(span_capacity),
            last_switches: 0,
            c_l2_lookup_i,
            c_l2_lookup_d,
            c_mem_refill_i,
            c_mem_refill_d,
            c_wb_enqueue,
            c_wb_full_stall,
            c_wb_read_wait,
            c_tlb_walk_i,
            c_tlb_walk_d,
            c_sched_switch,
            c_fault_event,
            c_oracle_divergence,
        }
    }
}

/// One CPU's front end (see the module docs). Its instrumentation slots
/// (fault injection, the differential oracle, telemetry) are filled by
/// [`Machine::new`], which builds the cores of both engines; the profile
/// recorder is installed by
/// [`Simulator::run_profiled`](crate::sim::Simulator::run_profiled).
///
/// [`Machine::new`]: crate::driver::Machine::new
pub struct Core {
    pub(crate) now: u64,
    /// The *functional* clock driving scheduler time-slicing. It advances
    /// on functional outcomes only — issue + stall cycles, L2 hits at the
    /// fixed reference access time, memory misses at the reference
    /// penalties — never on the timing knobs (access times, latencies,
    /// write-buffer waits, TLB penalties). Two configurations with the
    /// same geometry therefore schedule the *identical* instruction
    /// interleaving regardless of their timing points, which is what lets
    /// the two-phase sweep memoizer (see `profile`) price many timing
    /// variants from one functional pass.
    pub(crate) fnow: u64,
    pub(crate) counters: Counters,

    pub(crate) l1i: CacheArray,
    pub(crate) l1d: L1DataCache,
    pub(crate) wb: WriteBuffer,
    pub(crate) itlb: Tlb,
    pub(crate) dtlb: Tlb,
    tcache: Vec<(u64, u64)>,
    /// Per-PID statistics (lazily grown).
    per_proc: Vec<ProcCounters>,

    /// Virtual line of the immediately preceding ifetch (`u64::MAX` =
    /// none). A fetch to the same line is a guaranteed ITLB + L1-I hit —
    /// only ifetches touch those structures, and the previous fetch left
    /// both entries resident — so the uninstrumented path skips the
    /// probes entirely. Skipping the duplicate LRU touch is exact: the
    /// touched way already holds its set's maximum timestamp, so every
    /// future victim choice is unchanged.
    last_ifetch_vline: u64,
    /// Virtual page of the immediately preceding data access (load or
    /// store); a data access to the same page is a guaranteed DTLB hit
    /// by the same argument.
    last_data_vpage: u64,
    /// Virtual line of the immediately preceding load when it left the
    /// line resident and loadable; cleared on every store (which may
    /// change line state) and on every coherence invalidation of this
    /// core's L1-D — see `load_memo_ok`.
    last_load_vline: u64,
    /// log2(line words) for the two L1 sides (memo key construction).
    i_line_shift: u32,
    d_line_shift: u32,
    /// Load-memo soundness gate: subblock placement decides load hits per
    /// *word*, which a line-granular memo cannot capture.
    load_memo_ok: bool,

    /// Fault-injection state (`None` = injection off, exact legacy path).
    pub(crate) fault: Option<FaultState>,
    /// Cached `fault.is_some()`: hot hit paths skip the injector hooks (and
    /// the dirty-line peek feeding them) on one predictable branch.
    pub(crate) fault_on: bool,
    /// Unrecoverable fault awaiting the halt at the instruction boundary.
    pub(crate) pending_mc: Option<FaultEvent>,
    /// Cycle of the last checkpoint (restart rollback target).
    pub(crate) last_checkpoint_cycle: u64,
    /// Lockstep golden-model state (`None` = oracle off, exact fast path).
    pub(crate) diff: Option<Box<DiffState>>,
    /// Cached `diff.is_some()`: the per-event gate is one predictable
    /// branch with no `Option` load, so the oracle costs nothing when
    /// off.
    pub(crate) diff_on: bool,
    /// Functional-outcome recorder (`None` = normal run; installed by
    /// [`Simulator::run_profiled`](crate::sim::Simulator::run_profiled)
    /// for the two-phase sweep memoizer).
    pub(crate) rec: Option<Box<ProfileRecorder>>,
    /// Telemetry state (`None` = telemetry off, exact fast path).
    pub(crate) telem: Option<Box<TelemetryState>>,
    /// Cached `telem.is_some()`: every hot-path hook is one predictable
    /// branch, mirroring the `fault_on`/`diff_on` gates.
    pub(crate) telem_on: bool,
}

impl Core {
    /// Builds one core's front end for `cfg` (which the caller has
    /// validated), with every instrumentation slot empty.
    pub(crate) fn new(cfg: &SimConfig) -> Result<Self, ConfigError> {
        Ok(Core {
            now: 0,
            fnow: 0,
            counters: Counters::new(),
            l1i: CacheArray::new(cfg.l1i.geometry()?),
            l1d: L1DataCache::new(cfg.l1d.geometry()?, cfg.policy),
            wb: WriteBuffer::new(cfg.write_buffer.depth),
            itlb: Tlb::instruction(),
            dtlb: Tlb::data(),
            tcache: vec![(u64::MAX, 0); TCACHE_WAYS],
            per_proc: Vec::new(),
            last_ifetch_vline: u64::MAX,
            last_data_vpage: u64::MAX,
            last_load_vline: u64::MAX,
            i_line_shift: cfg.l1i.line_words.trailing_zeros(),
            d_line_shift: cfg.l1d.line_words.trailing_zeros(),
            load_memo_ok: cfg.policy != WritePolicy::Subblock,
            fault: None,
            fault_on: false,
            pending_mc: None,
            last_checkpoint_cycle: 0,
            diff: None,
            diff_on: false,
            rec: None,
            telem: None,
            telem_on: false,
        })
    }

    /// The timing clock: cycles this core has executed.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// The functional clock (see the field docs) that orders scheduling.
    pub fn fnow(&self) -> u64 {
        self.fnow
    }

    /// Counters accumulated so far.
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    /// Mutable counters, for the coherence actions a hook charges to
    /// this core.
    pub fn counters_mut(&mut self) -> &mut Counters {
        &mut self.counters
    }

    /// Per-PID rows, index = PID (lazily grown; may hold empty rows).
    pub fn per_proc(&self) -> &[ProcCounters] {
        &self.per_proc
    }

    /// Whether this core's L1-D holds the line containing `addr`.
    pub fn holds_d_line(&self, addr: PhysAddr) -> bool {
        self.l1d.array().contains(addr)
    }

    /// Invalidates this core's L1-D copy of the line containing `addr`
    /// (a remote store's invalidation round); returns whether a copy was
    /// resident and, if so, whether it was dirty. Clears the load memo,
    /// which may name the invalidated line.
    pub fn invalidate_d_line(&mut self, addr: PhysAddr) -> Option<bool> {
        self.last_load_vline = u64::MAX;
        self.l1d.array_mut().invalidate(addr).map(|line| line.dirty)
    }

    /// Whether any instrumentation layer is attached: fault injection,
    /// the differential oracle, telemetry, or the profile recorder. When
    /// all are off the `HOOKS = false` step instantiations (with every
    /// hook compiled out, plus the last-line/last-page memos) are exact.
    #[inline]
    pub(crate) fn hooks_active(&self) -> bool {
        self.fault_on || self.diff_on || self.telem_on || self.rec.is_some()
    }

    /// Live structures for oracle checks.
    pub(crate) fn structures<'a>(&'a self, back: &'a Backside) -> SimStructures<'a> {
        let (l2i, l2d) = back.l2_sides();
        SimStructures {
            l1i: &self.l1i,
            l1d: &self.l1d,
            l2i,
            l2d,
            wb: &self.wb,
        }
    }

    #[inline]
    fn proc_entry(&mut self, pid: gaas_trace::Pid) -> &mut ProcCounters {
        let idx = pid.raw() as usize;
        if self.per_proc.len() <= idx {
            self.per_proc.resize(idx + 1, ProcCounters::default());
        }
        &mut self.per_proc[idx]
    }

    #[inline]
    fn translate(&mut self, back: &mut Backside, addr: VirtAddr) -> PhysAddr {
        let key = addr.raw() >> PAGE_SHIFT;
        let idx = (key as usize) & (TCACHE_WAYS - 1);
        let (k, ppn) = self.tcache[idx];
        if k == key {
            return PhysAddr::new((ppn << PAGE_SHIFT) | addr.page_offset());
        }
        let p = back.mapper.translate(addr);
        self.tcache[idx] = (key, p.ppn());
        p
    }

    // ---- the step rules ----

    /// Issues one instruction fetch.
    #[inline]
    pub fn step_ifetch<const HOOKS: bool>(&mut self, back: &mut Backside, ev: &TraceEvent) {
        // Uninstrumented fast path: a fetch from the line the previous
        // fetch ended on is a guaranteed ITLB + L1-I hit (only ifetches
        // touch either structure), and the hit path consumes the physical
        // address nowhere, so the probes are skipped outright.
        let vline = ev.addr.raw() >> self.i_line_shift;
        if !HOOKS && vline == self.last_ifetch_vline {
            let cycles = 1 + ev.stall_cycles as u64;
            self.counters.instructions += 1;
            self.counters.cpu_stall_cycles += ev.stall_cycles as u64;
            self.fnow += cycles;
            self.now += cycles;
            let p = self.proc_entry(ev.addr.pid());
            p.instructions += 1;
            p.cycles += cycles;
            return;
        }
        let diff_before = if HOOKS && self.diff_on {
            Some(self.counters)
        } else {
            None
        };
        let mut cycles = 1 + ev.stall_cycles as u64;
        let l2_before = self.counters.l2i_misses + self.counters.l2d_misses;
        let mut missed = false;
        self.counters.instructions += 1;
        self.counters.cpu_stall_cycles += ev.stall_cycles as u64;
        self.fnow += 1 + ev.stall_cycles as u64;

        let itlb_hit = self.itlb.access(ev.addr);
        if HOOKS {
            if let Some(r) = self.rec.as_deref_mut() {
                r.begin_instr(ev.addr.pid().raw(), ev.stall_cycles, !itlb_hit);
            }
        }
        if itlb_hit {
            if HOOKS {
                cycles += self.fault_on_tlb_hit(back);
            }
        } else {
            let p = back.timing.tlb_miss(&mut self.counters, true);
            cycles += p;
            if HOOKS && self.telem_on {
                self.telem_tlb_walk(true, p);
            }
        }
        let paddr = self.translate(back, ev.addr);

        if self.l1i.touch(paddr).is_some() {
            if HOOKS {
                cycles += self.fault_on_l1i_hit(back, paddr);
            }
        } else {
            self.counters.l1i_misses += 1;
            missed = true;
            let t = self.now + cycles;
            let wait = back
                .timing
                .i_miss_wb_wait(&mut self.counters, &mut self.wb, t);
            cycles += wait + self.service_i_miss(back, t + wait, paddr);
        }
        self.now += cycles;
        if !HOOKS {
            // Hit or refill, the line is now resident; arm the memo. The
            // hooked instantiations never read it (faults and the canary
            // can invalidate lines behind it).
            self.last_ifetch_vline = vline;
        }
        if HOOKS {
            if let Some(before) = diff_before {
                self.diff_note(back, ev, paddr, before);
            }
        }

        let l2_after = self.counters.l2i_misses + self.counters.l2d_misses;
        let p = self.proc_entry(ev.addr.pid());
        p.instructions += 1;
        p.cycles += cycles;
        if missed {
            p.l1i_misses += 1;
        }
        p.l2_misses += l2_after - l2_before;
    }

    /// Issues one data access (a load or a store).
    #[inline]
    pub fn step_data<const HOOKS: bool, H: CoherenceHook>(
        &mut self,
        back: &mut Backside,
        coh: &mut H,
        ev: &TraceEvent,
    ) {
        match ev.kind {
            AccessKind::Load => self.step_load::<HOOKS, H>(back, coh, ev),
            AccessKind::Store => self.step_store::<HOOKS, H>(back, coh, ev),
            AccessKind::IFetch => unreachable!("data step on a fetch"),
        }
    }

    #[inline]
    fn step_load<const HOOKS: bool, H: CoherenceHook>(
        &mut self,
        back: &mut Backside,
        coh: &mut H,
        ev: &TraceEvent,
    ) {
        // Uninstrumented fast path: a load from the line the previous
        // load hit (with no intervening store, load miss or coherence
        // invalidation — all clear the memo) is a guaranteed DTLB + L1-D
        // hit with zero charged cycles; line state cannot have changed in
        // between. Gated off under subblock placement, where load hits
        // are per-word.
        let vline = ev.addr.raw() >> self.d_line_shift;
        if !HOOKS && vline == self.last_load_vline {
            self.counters.loads += 1;
            let p = self.proc_entry(ev.addr.pid());
            p.loads += 1;
            return;
        }
        let diff_before = if HOOKS && self.diff_on {
            Some(self.counters)
        } else {
            None
        };
        let mut cycles = 0u64;
        let l2_before = self.counters.l2i_misses + self.counters.l2d_misses;
        self.counters.loads += 1;
        let vpage = ev.addr.raw() >> PAGE_SHIFT;
        // Same page as the previous data access: guaranteed DTLB hit
        // (only data accesses touch the DTLB; short-circuit skips the
        // probe, which is LRU-exact for a repeated most-recent key).
        let dtlb_hit = (!HOOKS && vpage == self.last_data_vpage) || self.dtlb.access(ev.addr);
        if !HOOKS {
            self.last_data_vpage = vpage;
        }
        if HOOKS {
            if let Some(r) = self.rec.as_deref_mut() {
                r.begin_load(!dtlb_hit);
            }
        }
        if dtlb_hit {
            if HOOKS {
                cycles += self.fault_on_tlb_hit(back);
            }
        } else {
            let p = back.timing.tlb_miss(&mut self.counters, false);
            cycles += p;
            if HOOKS && self.telem_on {
                self.telem_tlb_walk(false, p);
            }
        }
        let paddr = self.translate(back, ev.addr);

        let outcome = self.l1d.load(paddr);
        if !HOOKS {
            // A hit leaves the line loadable; a miss refills it fully
            // (clearing any write-only mark), so either way the line is
            // loadable now. Stores clear the memo.
            self.last_load_vline = if self.load_memo_ok { vline } else { u64::MAX };
        }
        if outcome.hit {
            if HOOKS {
                cycles += self.fault_on_l1d_hit(back, paddr);
                coh.load_hit(paddr);
            }
        } else {
            self.counters.l1d_read_misses += 1;
            let line_base = outcome.fetch.expect("miss implies fetch");
            if HOOKS {
                if let Some(r) = self.rec.as_deref_mut() {
                    r.load_miss(
                        outcome.replaced_written_line,
                        outcome.writeback_victim.is_some(),
                        line_base.word(),
                    );
                }
            }
            let t0 = self.now + cycles;
            cycles += coh.load_fill(self, back, t0, line_base);
            let mut t = self.now + cycles;
            // Wait on *previously pending* writes per the bypass rule; the
            // victim this very miss displaces drains in the background
            // while the refill proceeds (that is what the buffer is for).
            let wait = self.wb_wait_for_d_miss(back, t, line_base, outcome.replaced_written_line);
            cycles += wait;
            t += wait;
            if let Some(victim) = outcome.writeback_victim {
                let stall = self.enqueue_write(back, t, victim);
                cycles += stall;
                t += stall;
            }
            cycles += self.service_d_miss(back, t, line_base);
        }
        self.now += cycles;
        if HOOKS {
            if let Some(before) = diff_before {
                self.diff_note(back, ev, paddr, before);
            }
        }

        let l2_after = self.counters.l2i_misses + self.counters.l2d_misses;
        let hit = outcome.hit;
        let p = self.proc_entry(ev.addr.pid());
        p.loads += 1;
        p.cycles += cycles;
        if !hit {
            p.l1d_misses += 1;
        }
        p.l2_misses += l2_after - l2_before;
    }

    #[inline]
    fn step_store<const HOOKS: bool, H: CoherenceHook>(
        &mut self,
        back: &mut Backside,
        coh: &mut H,
        ev: &TraceEvent,
    ) {
        let diff_before = if HOOKS && self.diff_on {
            Some(self.counters)
        } else {
            None
        };
        let mut cycles = 0u64;
        let l2_before = self.counters.l2i_misses + self.counters.l2d_misses;
        self.counters.stores += 1;
        let vpage = ev.addr.raw() >> PAGE_SHIFT;
        let dtlb_hit = (!HOOKS && vpage == self.last_data_vpage) || self.dtlb.access(ev.addr);
        if !HOOKS {
            self.last_data_vpage = vpage;
            // Stores change line state (dirty / write-only / valid bits)
            // and may evict, so the load memo cannot survive one.
            self.last_load_vline = u64::MAX;
        }
        if dtlb_hit {
            if HOOKS {
                cycles += self.fault_on_tlb_hit(back);
            }
        } else {
            let p = back.timing.tlb_miss(&mut self.counters, false);
            cycles += p;
            if HOOKS && self.telem_on {
                self.telem_tlb_walk(false, p);
            }
        }
        let paddr = self.translate(back, ev.addr);

        let pending = coh.before_store(self, paddr);
        let outcome = self.l1d.store(paddr, ev.partial_word);
        if HOOKS {
            if let Some(r) = self.rec.as_deref_mut() {
                r.begin_store(
                    !dtlb_hit,
                    outcome.hit,
                    outcome.extra_cycle,
                    outcome.wb_word.is_some(),
                    outcome.fetch.is_some(),
                    outcome.writeback_victim.is_some(),
                    outcome.replaced_written_line,
                );
            }
        }
        if outcome.hit {
            if HOOKS {
                cycles += self.fault_on_l1d_hit(back, paddr);
            }
        } else {
            self.counters.l1d_write_misses += 1;
        }
        if outcome.extra_cycle {
            self.counters.l1_write_cycles += 1;
            cycles += 1;
            self.fnow += 1;
        }
        let t0 = self.now + cycles;
        cycles += coh.store(self, back, t0, pending);
        let mut t = self.now + cycles;

        // Write-through: the word enters the write buffer.
        if let Some(word) = outcome.wb_word {
            let stall = self.enqueue_write(back, t, word);
            cycles += stall;
            t += stall;
        }
        // Write-back allocate: the fetch behaves like a read miss — it
        // waits on previously pending writes, while the victim this miss
        // displaces drains in the background during the refill.
        if let Some(line_base) = outcome.fetch {
            if HOOKS {
                if let Some(r) = self.rec.as_deref_mut() {
                    r.push_addr(line_base.word());
                }
            }
            let wait = self.wb_wait_for_d_miss(back, t, line_base, outcome.replaced_written_line);
            cycles += wait;
            t += wait;
            if let Some(victim) = outcome.writeback_victim {
                let stall = self.enqueue_write(back, t, victim);
                cycles += stall;
                t += stall;
            }
            cycles += self.service_d_miss(back, t, line_base);
        } else if let Some(victim) = outcome.writeback_victim {
            let stall = self.enqueue_write(back, t, victim);
            cycles += stall;
        }
        self.now += cycles;
        if HOOKS {
            if let Some(before) = diff_before {
                self.diff_note(back, ev, paddr, before);
            }
        }

        let l2_after = self.counters.l2i_misses + self.counters.l2d_misses;
        let hit = outcome.hit;
        let p = self.proc_entry(ev.addr.pid());
        p.stores += 1;
        p.cycles += cycles;
        if !hit {
            p.l1d_misses += 1;
        }
        p.l2_misses += l2_after - l2_before;
    }

    // ---- L2 / memory service ----
    //
    // Each miss path does the functional work here — the L2 probe or
    // fill, the functional clock, the recorder — and leaves the cycle
    // charge to the matching `Timing` rule.

    /// Services an instruction-side L1 miss starting at `start`; returns
    /// total stall cycles, with components attributed.
    #[cold]
    #[inline(never)]
    fn service_i_miss(&mut self, back: &mut Backside, start: u64, paddr: PhysAddr) -> u64 {
        let l2_dirty = back.l2_touch_i(paddr);
        let outcome = match l2_dirty {
            Some(_) => {
                self.fnow += back.timing.costs.ref_i_hit as u64;
                L2_HIT
            }
            None => self.fnow_miss(back.l2_fill_i(paddr)),
        };
        if let Some(r) = self.rec.as_deref_mut() {
            r.set_i_outcome(outcome);
        }
        let stall = back
            .timing
            .service(&mut self.counters, true, start, outcome);
        if self.telem_on {
            if outcome == L2_HIT {
                self.telem_l2_lookup_i(start, stall);
            } else {
                self.telem_mem_refill_i(start, stall);
            }
        }
        self.l1i.fill(paddr);
        match l2_dirty {
            Some(dirty) => stall + self.fault_on_l2_hit(back, dirty, true),
            None => stall,
        }
    }

    /// Services a data-side L1 miss (read or write-allocate) starting at
    /// `start`; returns total stall cycles.
    #[cold]
    #[inline(never)]
    fn service_d_miss(&mut self, back: &mut Backside, start: u64, line_base: PhysAddr) -> u64 {
        let l2_dirty = back.l2_touch_d(line_base);
        let outcome = match l2_dirty {
            Some(_) => {
                self.fnow += back.timing.costs.ref_d_hit as u64;
                L2_HIT
            }
            None => self.fnow_miss(back.l2_fill_d(line_base)),
        };
        if let Some(r) = self.rec.as_deref_mut() {
            r.set_d_outcome(outcome);
        }
        let stall = back
            .timing
            .service(&mut self.counters, false, start, outcome);
        if self.telem_on {
            if outcome == L2_HIT {
                self.telem_l2_lookup_d(start, stall);
            } else {
                self.telem_mem_refill_d(start, stall);
            }
        }
        match l2_dirty {
            Some(dirty) => stall + self.fault_on_l2_hit(back, dirty, false),
            None => stall,
        }
    }

    /// Advances the functional clock for an L2 miss at the reference
    /// memory penalty; returns the miss's outcome code.
    fn fnow_miss(&mut self, dirty_victim: bool) -> u8 {
        if dirty_victim {
            self.fnow += REF_MEM_DIRTY;
            L2_MISS_DIRTY
        } else {
            self.fnow += REF_MEM_CLEAN;
            L2_MISS_CLEAN
        }
    }

    /// Write-buffer wait (in cycles, attributed) that an L1-D miss must
    /// take before its L2 fetch, per the configured bypass scheme.
    fn wb_wait_for_d_miss(
        &mut self,
        back: &Backside,
        start: u64,
        line_base: PhysAddr,
        replaced_written: bool,
    ) -> u64 {
        let wait = back.timing.d_miss_wb_wait(
            &mut self.counters,
            &mut self.wb,
            start,
            line_base,
            replaced_written,
        );
        if self.telem_on && wait > 0 {
            self.telem_wb_wait(start, wait);
        }
        wait
    }

    /// Enqueues a write into the write buffer at `start`, stalling for a
    /// slot if the buffer is full, and drains it into L2-D. Returns the
    /// stall (attributed to WB).
    fn enqueue_write(&mut self, back: &mut Backside, start: u64, addr: PhysAddr) -> u64 {
        let drain = back.drain_l2(addr);
        if let Some(r) = self.rec.as_deref_mut() {
            r.push_addr(addr.word());
            r.push_drain(drain);
        }
        let e = back
            .timing
            .enqueue(&mut self.counters, &mut self.wb, start, addr, drain);
        if self.telem_on {
            self.telem_wb_enqueue(start, e.stall, e.busy_from, e.completes);
        }
        e.stall + self.fault_on_wb_write()
    }

    // ---- differential-oracle hook ----

    /// Cross-checks one completed access against the golden model, then
    /// applies a due seeded bug (after the check, so the corruption is
    /// first observed by a *later* access — as a real bug would be).
    #[cold]
    #[inline(never)]
    fn diff_note(&mut self, back: &Backside, ev: &TraceEvent, paddr: PhysAddr, before: Counters) {
        let Some(mut ds) = self.diff.take() else {
            return;
        };
        let actual = Deltas::between(&before, &self.counters);
        ds.note_access(ev, paddr, actual, &self.structures(back));
        if let Some(kind) = ds.bug_due() {
            let applied = match kind {
                SeededBug::FlipL1dDirty => match self.l1d.array_mut().peek_mut(paddr) {
                    Some(mut line) if ev.kind.is_data() => {
                        let flipped = !line.dirty();
                        line.set_dirty(flipped);
                        true
                    }
                    _ => false,
                },
                SeededBug::InvalidateL1i => {
                    ev.kind == AccessKind::IFetch && self.l1i.invalidate(paddr).is_some()
                }
                SeededBug::DropWriteBufferEntry => self.wb.drop_youngest().is_some(),
            };
            if applied {
                ds.set_bug_applied();
            }
        }
        self.diff = Some(ds);
    }

    // ---- telemetry hooks ----
    //
    // Every hook site is gated on the cached `telem_on` flag (the
    // `fault_on`/`diff_on` pattern), and the note bodies are `#[cold]`
    // `#[inline(never)]` so the disabled hot path carries only one
    // predictable never-taken branch per site. Recording is passive —
    // no cycles charged, no PRNG touched — so disabled-mode results are
    // byte-identical by construction.

    fn telem(&mut self) -> &mut TelemetryState {
        self.telem.as_deref_mut().expect("telem_on implies state")
    }

    /// Notes an L2 instruction-side lookup that hit (an L1-I refill).
    #[cold]
    #[inline(never)]
    fn telem_l2_lookup_i(&mut self, start: u64, dur: u64) {
        let t = self.telem();
        t.reg.inc(t.c_l2_lookup_i);
        t.spans.record("refill.l1i", Component::L2, start, dur);
    }

    /// Notes an L2 data-side lookup that hit (an L1-D refill).
    #[cold]
    #[inline(never)]
    fn telem_l2_lookup_d(&mut self, start: u64, dur: u64) {
        let t = self.telem();
        t.reg.inc(t.c_l2_lookup_d);
        t.spans.record("refill.l1d", Component::L2, start, dur);
    }

    /// Notes an instruction-side L2 miss serviced from main memory.
    #[cold]
    #[inline(never)]
    fn telem_mem_refill_i(&mut self, start: u64, dur: u64) {
        let t = self.telem();
        t.reg.inc(t.c_mem_refill_i);
        t.reg.observe("mem.refill.i.cycles", dur);
        t.spans.record("refill.l2i", Component::Memory, start, dur);
    }

    /// Notes a data-side L2 miss serviced from main memory.
    #[cold]
    #[inline(never)]
    fn telem_mem_refill_d(&mut self, start: u64, dur: u64) {
        let t = self.telem();
        t.reg.inc(t.c_mem_refill_d);
        t.reg.observe("mem.refill.d.cycles", dur);
        t.spans.record("refill.l2d", Component::Memory, start, dur);
    }

    /// Notes a read miss waiting on previously pending buffered writes.
    #[cold]
    #[inline(never)]
    fn telem_wb_wait(&mut self, start: u64, dur: u64) {
        let t = self.telem();
        t.reg.inc(t.c_wb_read_wait);
        t.reg.observe("wb.read_wait.cycles", dur);
        t.spans.record("wb.wait", Component::Wb, start, dur);
    }

    /// Notes one write entering the buffer: the CPU-visible full-buffer
    /// stall (if any) and the drain occupancy it schedules.
    #[cold]
    #[inline(never)]
    fn telem_wb_enqueue(&mut self, start: u64, stall: u64, busy_from: u64, completes: u64) {
        let t = self.telem();
        t.reg.inc(t.c_wb_enqueue);
        if stall > 0 {
            t.reg.inc(t.c_wb_full_stall);
            t.spans.record("wb.full-stall", Component::Wb, start, stall);
        }
        if completes > busy_from {
            t.spans
                .record("wb.drain", Component::Wb, busy_from, completes - busy_from);
        }
    }

    /// Notes a TLB miss walk (`i_side` selects the TLB) of `dur` cycles.
    #[cold]
    #[inline(never)]
    fn telem_tlb_walk(&mut self, i_side: bool, dur: u64) {
        let now = self.now;
        let t = self.telem();
        t.reg.inc(if i_side {
            t.c_tlb_walk_i
        } else {
            t.c_tlb_walk_d
        });
        t.spans.record(
            if i_side { "tlb.walk.i" } else { "tlb.walk.d" },
            Component::Tlb,
            now,
            dur,
        );
    }

    /// Notes a resolved fault-injection event as an instant span.
    #[cold]
    #[inline(never)]
    fn telem_fault(&mut self, effect: FaultEffect) {
        let now = self.now;
        let t = self.telem();
        t.reg.inc(t.c_fault_event);
        let name = match effect {
            FaultEffect::Silent => "fault.silent",
            FaultEffect::Correct => "fault.corrected",
            FaultEffect::Refetch => "fault.refetch",
            FaultEffect::MachineCheck => "fault.machine-check",
        };
        t.spans.instant(name, Component::Fault, now);
    }

    // ---- soft-error fault hooks ----
    //
    // Faults are checked when an access *hits* the struck structure — the
    // moment a corrupted entry would be consumed (a deliberate
    // simplification: flips in lines that are never referenced again are
    // architecturally silent anyway). With injection off (`fault` is
    // `None`) every hook returns 0 without touching the PRNG, so the
    // fault-free path is bit-identical to the legacy simulator.

    /// Consults the injector for one access to `s`; returns the fired
    /// event with its resolved effect, if any.
    fn fault_check(&mut self, s: Structure, dirty: bool) -> Option<(FaultEvent, FaultEffect)> {
        let fs = self.fault.as_mut()?;
        let ev = fs.injector.check(s, fs.sets[s.index()])?;
        self.counters.faults_injected += 1;
        let effect = resolve(fs.protection.get(s), dirty, ev.multi_bit);
        Some((ev, effect))
    }

    /// Applies a resolved fault effect: updates the fault counters,
    /// charges `recovery_cycles`, and arms the configured machine-check
    /// response. Returns the stall cycles the faulting access absorbs.
    fn apply_fault(&mut self, ev: FaultEvent, effect: FaultEffect, refetch_cost: u64) -> u64 {
        if self.telem_on {
            self.telem_fault(effect);
        }
        match effect {
            FaultEffect::Silent => {
                self.counters.faults_silent += 1;
                0
            }
            FaultEffect::Correct => {
                self.counters.faults_corrected += 1;
                let p = self.fault.as_ref().map_or(0, |f| f.ecc_penalty);
                self.counters.recovery_cycles += p;
                p
            }
            FaultEffect::Refetch => {
                self.counters.fault_refetches += 1;
                self.counters.recovery_cycles += refetch_cost;
                refetch_cost
            }
            FaultEffect::MachineCheck => {
                self.counters.machine_checks += 1;
                if self.fault.as_ref().is_some_and(|f| f.halt) {
                    // Halt at the current instruction boundary; the run
                    // loop surfaces the error.
                    self.pending_mc = Some(ev);
                    0
                } else {
                    // Checkpoint restart: deterministic re-execution from
                    // the last checkpoint costs the cycles since it, and
                    // the restart point becomes the implicit checkpoint.
                    let rollback = self.now.saturating_sub(self.last_checkpoint_cycle);
                    self.counters.recovery_cycles += rollback;
                    self.last_checkpoint_cycle = self.now;
                    rollback
                }
            }
        }
    }

    /// Fault check for a TLB hit (shared by both TLBs; entries are never
    /// the only copy, so "dirty" never applies). A parity refetch re-walks
    /// the page tables at the configured TLB miss penalty.
    #[inline]
    fn fault_on_tlb_hit(&mut self, back: &Backside) -> u64 {
        if !self.fault_on {
            return 0;
        }
        let Some((ev, effect)) = self.fault_check(Structure::Tlb, false) else {
            return 0;
        };
        let cost = if effect == FaultEffect::Refetch {
            back.timing.tlb_penalty
        } else {
            0
        };
        self.apply_fault(ev, effect, cost)
    }

    /// Fault check for an L1-I hit (instruction lines are never dirty).
    #[inline]
    fn fault_on_l1i_hit(&mut self, back: &mut Backside, paddr: PhysAddr) -> u64 {
        if !self.fault_on {
            return 0;
        }
        let Some((ev, effect)) = self.fault_check(Structure::L1I, false) else {
            return 0;
        };
        let cost = if effect == FaultEffect::Refetch {
            refetch_from_l2_i(back, paddr)
        } else {
            0
        };
        self.apply_fault(ev, effect, cost)
    }

    /// Fault check for an L1-D hit. Under write-back a dirty line is the
    /// only copy of its data; the write-through policies stream every
    /// write out through the buffer, so their L1 copies are always clean
    /// (the line's written mark notwithstanding).
    #[inline]
    fn fault_on_l1d_hit(&mut self, back: &mut Backside, paddr: PhysAddr) -> u64 {
        if !self.fault_on {
            return 0; // skip the dirty-line peek along with the check
        }
        let dirty = !back.write_through && self.l1d.array().peek(paddr).is_some_and(|l| l.dirty);
        let Some((ev, effect)) = self.fault_check(Structure::L1D, dirty) else {
            return 0;
        };
        let cost = if effect == FaultEffect::Refetch {
            refetch_from_l2_d(back, paddr)
        } else {
            0
        };
        self.apply_fault(ev, effect, cost)
    }

    /// Fault check for a demand L2 hit (either side; background drains are
    /// not checked). A clean line refetches from main memory in place.
    #[inline]
    fn fault_on_l2_hit(&mut self, back: &mut Backside, dirty: bool, i_side: bool) -> u64 {
        if !self.fault_on {
            return 0;
        }
        let Some((ev, effect)) = self.fault_check(Structure::L2, dirty) else {
            return 0;
        };
        let cost = if effect == FaultEffect::Refetch {
            back.timing.mem(i_side).service_miss_raw(false).stall_cycles
        } else {
            0
        };
        self.apply_fault(ev, effect, cost)
    }

    /// Fault check for a write entering the write buffer. In-flight store
    /// data is always the only copy, hence always dirty: parity can only
    /// detect (machine check), ECC corrects.
    #[inline]
    fn fault_on_wb_write(&mut self) -> u64 {
        if !self.fault_on {
            return 0;
        }
        let Some((ev, effect)) = self.fault_check(Structure::WriteBuffer, true) else {
            return 0;
        };
        self.apply_fault(ev, effect, 0)
    }
}

/// Real refill cycles for refetching a clean L1-I line: L2-I hit cost,
/// or a main-memory fetch filling L2. Demand miss-ratio counters stay
/// untouched — recovery traffic is reported via the fault counters.
fn refetch_from_l2_i(back: &mut Backside, paddr: PhysAddr) -> u64 {
    if back.l2_touch_i(paddr).is_some() {
        return back.timing.costs.i_hit as u64;
    }
    let dirty_victim = back.l2_fill_i(paddr);
    back.timing
        .mem(true)
        .service_miss_raw(dirty_victim)
        .stall_cycles
}

/// Real refill cycles for refetching a clean L1-D line from L2/memory.
fn refetch_from_l2_d(back: &mut Backside, paddr: PhysAddr) -> u64 {
    if back.l2_touch_d(paddr).is_some() {
        return back.timing.costs.d_hit as u64;
    }
    let dirty_victim = back.l2_fill_d(paddr);
    back.timing
        .mem_d
        .service_miss_raw(dirty_victim)
        .stall_cycles
}
