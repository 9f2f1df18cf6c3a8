//! `gaas-coherence`: the chip-multiprocessor frontier of the GaAs cache
//! study reproduction.
//!
//! The source paper's design space is a single GaAs CPU in front of a
//! two-level CMOS cache hierarchy. This crate asks the natural follow-on
//! question: what happens to the paper's L2-organization conclusions
//! (unified vs. split, direct-mapped vs. 2-way) when N cores share that
//! L2 through private L1s kept coherent with a MESI invalidation
//! protocol?
//!
//! The crate is organized as four layers:
//!
//! * [`mesi`] — the pure MESI transition table (every legal edge tested
//!   positively, every illegal edge negatively);
//! * [`directory`] — the per-line sharer directory that filters snoop
//!   traffic (disjoint workloads generate zero coherence traffic);
//! * [`oracle`] — a passive version-shadow oracle for the coherence
//!   invariants (SWMR, no stale read, inclusion under invalidation);
//! * [`cmp`] — the [`cmp::CmpSimulator`] engine: N instances of the
//!   single-CPU simulator's per-core pipeline over the shared L2, with
//!   the **byte-identical 1-core anchor** to [`gaas_sim::Simulator`].
//!
//! Process-wide coherence totals are aggregated across runs (the same
//! pattern as the experiment layer's memo statistics) for the serve
//! daemon's `stats` endpoint: see [`coherence_totals`].

pub mod cmp;
pub mod directory;
pub mod mesi;
pub mod oracle;

pub use cmp::{CmpResult, CmpSimulator};
pub use directory::{Directory, Sharers};
pub use mesi::{next_state, IllegalTransition, MesiEvent, MesiState};
pub use oracle::{CoherenceOracle, Violation};

use std::sync::atomic::{AtomicU64, Ordering};

use gaas_mcm::SnoopBus;
use gaas_sim::Counters;

static RUNS: AtomicU64 = AtomicU64::new(0);
static INVALIDATIONS: AtomicU64 = AtomicU64::new(0);
static C2C_TRANSFERS: AtomicU64 = AtomicU64::new(0);
static UPGRADE_MISSES: AtomicU64 = AtomicU64::new(0);
static COHERENCE_STALL_CYCLES: AtomicU64 = AtomicU64::new(0);
static SNOOP_TRANSACTIONS: AtomicU64 = AtomicU64::new(0);
static SNOOP_WAIT_CYCLES: AtomicU64 = AtomicU64::new(0);

/// Process-wide coherence activity accumulated over every CMP run in
/// this process (monotonic; never reset).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoherenceTotals {
    /// CMP-engine runs completed.
    pub runs: u64,
    /// Remote copies invalidated by stores.
    pub invalidations: u64,
    /// Lines supplied cache-to-cache by a remote Modified owner.
    pub c2c_transfers: u64,
    /// Stores that hit a Shared copy and needed an ownership upgrade.
    pub upgrade_misses: u64,
    /// Cycles charged to coherence actions.
    pub coherence_stall_cycles: u64,
    /// Snoop-bus transactions issued.
    pub snoop_transactions: u64,
    /// Cycles cores waited for snoop-bus grants.
    pub snoop_wait_cycles: u64,
}

/// Snapshot of the process-wide [`CoherenceTotals`].
pub fn coherence_totals() -> CoherenceTotals {
    CoherenceTotals {
        runs: RUNS.load(Ordering::Relaxed),
        invalidations: INVALIDATIONS.load(Ordering::Relaxed),
        c2c_transfers: C2C_TRANSFERS.load(Ordering::Relaxed),
        upgrade_misses: UPGRADE_MISSES.load(Ordering::Relaxed),
        coherence_stall_cycles: COHERENCE_STALL_CYCLES.load(Ordering::Relaxed),
        snoop_transactions: SNOOP_TRANSACTIONS.load(Ordering::Relaxed),
        snoop_wait_cycles: SNOOP_WAIT_CYCLES.load(Ordering::Relaxed),
    }
}

pub(crate) fn record_run(merged: &Counters, bus: &SnoopBus) {
    RUNS.fetch_add(1, Ordering::Relaxed);
    INVALIDATIONS.fetch_add(merged.invalidations, Ordering::Relaxed);
    C2C_TRANSFERS.fetch_add(merged.c2c_transfers, Ordering::Relaxed);
    UPGRADE_MISSES.fetch_add(merged.upgrade_misses, Ordering::Relaxed);
    COHERENCE_STALL_CYCLES.fetch_add(merged.coherence_stall_cycles, Ordering::Relaxed);
    SNOOP_TRANSACTIONS.fetch_add(bus.transactions(), Ordering::Relaxed);
    SNOOP_WAIT_CYCLES.fetch_add(bus.wait_cycles(), Ordering::Relaxed);
}
