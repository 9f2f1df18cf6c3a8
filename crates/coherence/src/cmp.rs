//! The CMP engine: N per-core L1 front ends over the shared L2.
//!
//! [`CmpSimulator`] is a [`gaas_sim::Machine`] of N instances of the
//! single-CPU simulator's per-core pipeline ([`gaas_sim::Core`]:
//! L1-I/L1-D, TLBs, write buffer, timing and functional clocks,
//! counters), each with its own scheduler, in front of one shared
//! [`gaas_sim::Backside`] (the L2 arrays, main-memory system, page
//! mapper), and keeps the L1-D copies coherent with a directory-filtered
//! MESI invalidation protocol (see [`crate::mesi`], [`crate::directory`]).
//! It has no run loop of its own: [`Machine::run`] drives the cores, and
//! this module supplies the protocol through [`Coherence`] — the
//! `Snoop` hook for each data access and the coherence oracle's check
//! after each instruction. Fault injection, checkpoints, the instruction
//! budget and cancellation come with the driver.
//!
//! ## The 1-core identity anchor
//!
//! A 1-core CMP run is **byte-identical** to [`gaas_sim::Simulator`] on
//! the same configuration and workload (test-enforced). Both engines run
//! the same cycle rules and the same run driver, and the coherence
//! actions plug into the pipeline through a [`CoherenceHook`] that only
//! runs with a second core: with one core the driver passes
//! [`gaas_sim::NoCoherence`]. That identity pins all CMP results to the
//! validated single-CPU model: whatever a multi-core run shows beyond
//! the 1-core anchor is attributable to sharing, not to engine drift.
//!
//! Cores take the pipeline's same-line/same-page memo fast paths. A
//! remote invalidation clears the invalidated core's load memo, and with
//! the coherence oracle on every core takes the memo-free path, so the
//! oracle sees every load hit.
//!
//! ## Coherence charging
//!
//! Coherence costs are charged to the requesting core's *timing* clock
//! (`now`) and the dedicated `coherence_stall_cycles` counter — never to
//! the functional clock, which must keep scheduling decisions identical
//! across timing variants:
//!
//! * a miss or upgrade that involves a remote copy occupies the snoop
//!   bus ([`gaas_mcm::SnoopBus`]): bus wait + `snoop_bus_cycles`;
//! * a remote Modified owner supplies the line cache-to-cache
//!   (`c2c_transfer_cycles`, owner demotes M→S, dirty data lands in
//!   L2-D);
//! * each remote copy invalidated by a store costs `invalidate_cycles`.
//!
//! Misses with *no* remote copies are filtered by the directory and
//! never touch the bus: a disjoint multiprogrammed workload generates
//! zero coherence traffic at any core count.
//!
//! L1-I caches are excluded from the protocol: instruction fetches are
//! read-only and the workload model never writes code pages, so
//! instruction lines cannot go stale.

use gaas_mcm::SnoopBus;
use gaas_sim::config::{ConfigError, SimConfig};
use gaas_sim::{
    Backside, CancelToken, Coherence, CoherenceHook, Core, Counters, Machine, SimError, SimResult,
    Trace, MAX_CORES,
};
use gaas_trace::PhysAddr;

use crate::directory::Directory;
use crate::mesi::{next_state, MesiEvent, MesiState};
use crate::oracle::CoherenceOracle;

/// Result of a CMP run: the merged [`SimResult`] plus the per-core
/// counter breakdown (warm-up already excluded from both).
#[derive(Debug, Clone)]
pub struct CmpResult {
    /// Merged result over all cores; for a 1-core configuration this is
    /// byte-identical to the single-CPU simulator's result.
    pub result: SimResult,
    /// Per-core counters, index = core id.
    pub per_core: Vec<Counters>,
}

/// The protocol state all cores share, and its costs.
struct Protocol {
    dir: Directory,
    bus: SnoopBus,
    oracle: Option<CoherenceOracle>,
    /// Clears the word-in-line bits: the directory tracks L1-D lines.
    d_line_mask: u64,
    snoop_bus_cycles: u64,
    c2c_cycles: u64,
    inv_cycles: u64,
}

/// The chip-multiprocessor simulator (see the module docs).
pub struct CmpSimulator {
    m: Machine,
    protocol: Protocol,
}

impl CmpSimulator {
    /// Builds a CMP simulator for `cfg`. Accepts non-CMP configurations
    /// too (`cmp.enabled()` false): that is how the identity tests run
    /// the same config through both engines.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] when the configuration is invalid, or
    /// uses a feature the CMP engine does not implement
    /// ([`SimConfig::check_cmp_support`]).
    pub fn new(cfg: SimConfig) -> Result<Self, ConfigError> {
        let m = Machine::new(cfg)?;
        let cfg = m.config();
        // For CMP-enabled configs validate() already applies the
        // refusals; a plain 1-core config could still carry them, and
        // this engine would silently ignore them — refuse instead.
        cfg.check_cmp_support()?;
        let protocol = Protocol {
            dir: Directory::new(),
            bus: SnoopBus::new(cfg.cmp.snoop_bus_cycles),
            oracle: cfg
                .diffcheck
                .enabled
                .then(|| CoherenceOracle::new(cfg.cmp.cores as usize)),
            d_line_mask: !(u64::from(cfg.l1d.line_words) - 1),
            snoop_bus_cycles: cfg.cmp.snoop_bus_cycles as u64,
            c2c_cycles: cfg.cmp.c2c_transfer_cycles as u64,
            inv_cycles: cfg.cmp.invalidate_cycles as u64,
        };
        Ok(CmpSimulator { m, protocol })
    }

    /// Installs a cooperative-cancellation token (same contract as the
    /// single-CPU simulator's).
    pub fn set_cancel_token(&mut self, token: CancelToken) {
        self.m.set_cancel_token(token);
    }

    /// Runs `per_core` workloads (one trace list per core) to
    /// completion through the shared run driver ([`Machine::run`]),
    /// discarding the statistics of the first `warmup_instructions`
    /// instructions *summed over all cores*. The instruction budget and
    /// checkpoints count the same machine-wide total.
    ///
    /// # Errors
    ///
    /// [`SimError::Cancelled`] when the token fires,
    /// [`SimError::MachineCheck`] for an unrecoverable injected fault
    /// under the halt policy, and [`SimError::Coherence`] when the
    /// coherence oracle (enabled via `diffcheck.enabled`) observes an
    /// invariant violation.
    ///
    /// # Panics
    ///
    /// Panics when `per_core.len()` differs from the configured core
    /// count.
    pub fn run_warmed(
        mut self,
        per_core: Vec<Vec<Box<dyn Trace>>>,
        warmup_instructions: u64,
    ) -> Result<CmpResult, SimError> {
        let run = self
            .m
            .run(per_core, &mut self.protocol, warmup_instructions, 0)?;
        crate::record_run(&run.result.counters, &self.protocol.bus);
        Ok(CmpResult {
            result: run.result,
            per_core: run.per_core,
        })
    }

    /// Accesses the coherence oracle has checked so far (`None` when the
    /// oracle is disabled).
    pub fn oracle_checked(&self) -> Option<u64> {
        self.protocol.oracle.as_ref().map(CoherenceOracle::checked)
    }
}

impl Coherence for Protocol {
    type Hook<'a> = Snoop<'a>;

    fn hook<'a>(
        &'a mut self,
        c: usize,
        before: &'a mut [Core],
        after: &'a mut [Core],
    ) -> Snoop<'a> {
        Snoop {
            c,
            before,
            after,
            p: self,
        }
    }

    /// The oracle must see every load hit, so it runs the memo-free
    /// (hooked) instantiation of the pipeline.
    fn observes_every_access(&self) -> bool {
        self.oracle.is_some()
    }

    fn check(&mut self, cores: &[Core]) -> Option<SimError> {
        let v = self.oracle.as_ref()?.violation()?.clone();
        Some(SimError::Coherence {
            core: v.core,
            cycle: cores[v.core as usize].now(),
            detail: v.detail,
        })
    }
}

/// The coherence hook for one data access by core `c`: the protocol
/// state plus every other core, split around the active one.
struct Snoop<'a> {
    c: usize,
    before: &'a mut [Core],
    after: &'a mut [Core],
    p: &'a mut Protocol,
}

impl Snoop<'_> {
    fn n_cores(&self) -> usize {
        self.before.len() + 1 + self.after.len()
    }

    /// Remote core `m` (never `c`).
    fn remote(&mut self, m: usize) -> &mut Core {
        if m < self.c {
            &mut self.before[m]
        } else {
            &mut self.after[m - self.c - 1]
        }
    }

    /// This core's L1-D line base for `paddr` (the directory's tracking
    /// granularity).
    fn line_of(&self, paddr: PhysAddr) -> PhysAddr {
        PhysAddr::new(paddr.word() & self.p.d_line_mask)
    }

    /// Collects the healed remote sharers of `line` (cores other than
    /// `c` whose L1-D actually holds it).
    fn remote_sharers(
        &mut self,
        line: PhysAddr,
    ) -> ([(usize, MesiState); MAX_CORES as usize], usize) {
        let mut remotes = [(0usize, MesiState::Invalid); MAX_CORES as usize];
        let mut nr = 0;
        let c = self.c;
        for m in (0..self.n_cores()).filter(|&m| m != c) {
            let resident = self.remote(m).holds_d_line(line);
            let st = self.p.dir.heal(line, m, resident);
            if st != MesiState::Invalid {
                remotes[nr] = (m, st);
                nr += 1;
            }
        }
        (remotes, nr)
    }
}

impl CoherenceHook for Snoop<'_> {
    /// The stored line and the local MESI state before the store.
    type Pending = (PhysAddr, MesiState);

    fn load_hit(&mut self, paddr: PhysAddr) {
        let line = self.line_of(paddr);
        if let Some(o) = self.p.oracle.as_mut() {
            o.check_load_hit(self.c, line);
        }
    }

    /// MESI bookkeeping + cost for a load miss that just filled `line`
    /// at time `t0`; returns the coherence stall.
    fn load_fill(&mut self, core: &mut Core, back: &mut Backside, t0: u64, line: PhysAddr) -> u64 {
        let c = self.c;
        let (remotes, nr) = self.remote_sharers(line);
        let mut charge = 0u64;
        if nr > 0 {
            // Remote copies exist: the read goes on the snoop bus so the
            // owners can demote (and a Modified owner can supply).
            let g = self.p.bus.transact(c as u32, t0);
            charge += g.wait + self.p.snoop_bus_cycles;
            for &(m, st) in &remotes[..nr] {
                match st {
                    MesiState::Modified => {
                        core.counters_mut().c2c_transfers += 1;
                        charge += self.p.c2c_cycles;
                        // The owner's writeback lands in the shared L2-D.
                        back.mark_l2d_dirty(line);
                        let ns = next_state(st, MesiEvent::RemoteRead)
                            .expect("M -> RemoteRead is legal");
                        self.p.dir.set(line, m, ns);
                        self.remote(m).counters_mut().mesi_to_s += 1;
                    }
                    MesiState::Exclusive => {
                        let ns = next_state(st, MesiEvent::RemoteRead)
                            .expect("E -> RemoteRead is legal");
                        self.p.dir.set(line, m, ns);
                        self.remote(m).counters_mut().mesi_to_s += 1;
                    }
                    MesiState::Shared => {}
                    MesiState::Invalid => unreachable!("healed sharers are valid"),
                }
            }
        }
        let fill = if nr > 0 {
            MesiEvent::FillShared
        } else {
            MesiEvent::FillExclusive
        };
        let ns = next_state(MesiState::Invalid, fill).expect("fill from I is legal");
        self.p.dir.set(line, c, ns);
        let counters = core.counters_mut();
        match ns {
            MesiState::Shared => counters.mesi_to_s += 1,
            MesiState::Exclusive => counters.mesi_to_e += 1,
            _ => unreachable!("fills produce E or S"),
        }
        counters.coherence_stall_cycles += charge;
        if let Some(o) = self.p.oracle.as_mut() {
            o.note_fill(c, line);
        }
        charge
    }

    fn before_store(&mut self, core: &Core, paddr: PhysAddr) -> Self::Pending {
        let line = self.line_of(paddr);
        let resident = core.holds_d_line(line);
        (line, self.p.dir.heal(line, self.c, resident))
    }

    /// MESI bookkeeping + cost for a store to `line` at time `t0`
    /// (`prev_local` read before the array changed); returns the
    /// coherence stall.
    fn store(
        &mut self,
        core: &mut Core,
        back: &mut Backside,
        t0: u64,
        (line, prev_local): Self::Pending,
    ) -> u64 {
        let c = self.c;
        let (remotes, nr) = self.remote_sharers(line);
        let mut charge = 0u64;
        // The directory filters: only stores that must reach another
        // core's cache (invalidation round) or announce an upgrade of a
        // Shared copy occupy the bus. Stores hitting a local M/E line
        // are silent, and store misses with no sharers are satisfied by
        // the L2 write path alone.
        if nr > 0 || prev_local == MesiState::Shared {
            let g = self.p.bus.transact(c as u32, t0);
            charge += g.wait + self.p.snoop_bus_cycles;
            for &(m, st) in &remotes[..nr] {
                debug_assert!(
                    next_state(st, MesiEvent::RemoteWrite).is_ok(),
                    "remote write is legal in every valid state"
                );
                if let Some(dirty) = self.remote(m).invalidate_d_line(line) {
                    core.counters_mut().invalidations += 1;
                    self.remote(m).counters_mut().mesi_to_i += 1;
                    charge += self.p.inv_cycles;
                    if dirty {
                        // A Modified copy's data is flushed to L2-D as
                        // part of the invalidation.
                        back.mark_l2d_dirty(line);
                    }
                }
                self.p.dir.set(line, m, MesiState::Invalid);
                if self.p.oracle.is_some() {
                    let still = self.remote(m).holds_d_line(line);
                    if let Some(o) = self.p.oracle.as_mut() {
                        o.note_invalidate(m, line, still);
                    }
                }
            }
            if prev_local == MesiState::Shared {
                core.counters_mut().upgrade_misses += 1;
            }
        }
        // Final local state: Modified when the line is resident after
        // the store (hit, or write-allocate fill); a non-allocating
        // store miss leaves it Invalid while still having invalidated
        // the remote copies.
        let resident = core.holds_d_line(line);
        let new_local = if resident {
            MesiState::Modified
        } else {
            MesiState::Invalid
        };
        if resident && prev_local != MesiState::Modified {
            core.counters_mut().mesi_to_m += 1;
        }
        self.p.dir.set(line, c, new_local);
        if self.p.oracle.is_some() {
            // SWMR: after the invalidation round no other core may hold
            // the line, whatever state the directory claims.
            let mut offenders = [0usize; MAX_CORES as usize];
            let mut no = 0;
            for m in (0..self.n_cores()).filter(|&m| m != c) {
                if self.remote(m).holds_d_line(line) {
                    offenders[no] = m;
                    no += 1;
                }
            }
            if let Some(o) = self.p.oracle.as_mut() {
                o.note_store(c, line);
                o.check_swmr(c, line, &offenders[..no]);
            }
        }
        core.counters_mut().coherence_stall_cycles += charge;
        charge
    }
}
