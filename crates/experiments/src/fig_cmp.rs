//! `fig_cmp` — the CMP frontier: the paper's L2-organization question
//! re-asked with 1/2/4/8 cores sharing the L2.
//!
//! The source study picks an L2 organization for *one* GaAs CPU. This
//! figure family re-runs the Fig. 6 contenders — unified/split ×
//! direct-mapped/2-way, at the paper's preferred 256 KW total — as the
//! shared L2 of a small chip multiprocessor with private per-core L1s
//! kept coherent by a MESI invalidation protocol.
//!
//! Three grids over cores × organization:
//!
//! * **CPI** — does the single-CPU winner survive sharing-induced
//!   invalidation and snoop-bus time?
//! * **coherence CPI** — cycles per instruction charged to coherence
//!   (bus waits, invalidations, cache-to-cache transfers); zero in the
//!   1-core anchor column by construction.
//! * **invalidations per 1000 instructions** — protocol traffic
//!   intensity, the quantity the directory filter keeps proportional to
//!   *sharing* rather than core count.
//!
//! The 1-core row runs on the validated single-CPU engine (byte-identity
//! is test-enforced), so every multi-core delta is attributable to
//! sharing, not engine drift.

use gaas_sim::config::SimConfig;
use gaas_sim::CmpConfig;

use crate::campaign::{cross_core_counts, run_cells, CellResult};
use crate::fig6::Org;
use crate::tablefmt::{f3, Table, GAP};

/// Core counts swept (1 = the paper's machine, the anchor column).
pub const CORES: [u32; 4] = [1, 2, 4, 8];

/// Total L2 size for every cell: the paper's preferred 256 KW point.
pub const L2_TOTAL_WORDS: u64 = 262_144;

/// Sharing intensity of the multi-core cells: a moderate 10 % of data
/// references into a 16 KW shared footprint whose per-core affinity
/// windows rotate every 256 shared references. Cores consume shared
/// references at different rates, so rotations desynchronize and the
/// hot windows genuinely overlap while both cores run — enough live
/// cross-core traffic to separate the organizations without drowning
/// the cache behavior the paper studies.
pub fn sharing() -> CmpConfig {
    CmpConfig {
        shared_frac: 0.10,
        shared_words: 16_384,
        migration_interval: 256,
        ..CmpConfig::default()
    }
}

/// One (organization, cores) cell.
#[derive(Debug, Clone, Copy)]
pub struct Row {
    /// L2 organization (shared by all cores).
    pub org: Org,
    /// Core count.
    pub cores: u32,
    /// Total CPI.
    pub cpi: f64,
    /// Coherence component of the CPI stack.
    pub coherence_cpi: f64,
    /// Invalidations per 1000 instructions.
    pub inval_per_ki: f64,
}

/// Runs the 4 × 4 sweep (organizations × core counts).
pub fn run(scale: f64) -> Vec<Row> {
    let mut points = Vec::new();
    let mut bases = Vec::new();
    for org in Org::all() {
        let mut b = SimConfig::builder();
        b.l2(org.l2(L2_TOTAL_WORDS));
        bases.push(b.build().expect("valid"));
        for &n in &CORES {
            points.push((org, n));
        }
    }
    let cfgs = cross_core_counts(&bases, &CORES, &sharing());
    let mut rows = Vec::new();
    for (res, (org, cores)) in run_cells(&cfgs, scale).into_iter().zip(points) {
        match res {
            CellResult::Done(r) => {
                let instr = r.counters.instructions.max(1) as f64;
                rows.push(Row {
                    org,
                    cores,
                    cpi: r.cpi(),
                    coherence_cpi: r.counters.coherence_stall_cycles as f64 / instr,
                    inval_per_ki: r.counters.invalidations as f64 * 1000.0 / instr,
                });
            }
            CellResult::Failed { error, attempts } => eprintln!(
                "fig_cmp: cell {}x{} failed after {attempts} attempt(s): {error}",
                org.label(),
                cores
            ),
        }
    }
    rows
}

fn grid(rows: &[Row], title: &str, value: impl Fn(&Row) -> String) -> Table {
    let mut t = Table::new(
        title,
        &[
            "cores",
            "unified 1-way",
            "unified 2-way",
            "split 1-way",
            "split 2-way",
        ],
    );
    for &n in &CORES {
        let mut cells = vec![n.to_string()];
        for org in Org::all() {
            let row = rows.iter().find(|r| r.cores == n && r.org == org);
            cells.push(row.map(&value).unwrap_or_else(|| GAP.to_string()));
        }
        t.push_row(cells);
    }
    t
}

/// Renders the CPI grid.
pub fn table(rows: &[Row]) -> Table {
    grid(
        rows,
        "fig_cmp — CPI of the Fig. 6 L2 organizations, 1-8 cores sharing the L2",
        |r| f3(r.cpi),
    )
}

/// Renders the coherence-CPI grid.
pub fn table_coherence(rows: &[Row]) -> Table {
    grid(
        rows,
        "fig_cmp — coherence CPI component (bus wait + invalidation + C2C time)",
        |r| f3(r.coherence_cpi),
    )
}

/// Renders the invalidation-traffic grid.
pub fn table_traffic(rows: &[Row]) -> Table {
    grid(
        rows,
        "fig_cmp — invalidations per 1000 instructions",
        |r| f3(r.inval_per_ki),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_configs_cross_orgs_and_cores() {
        let mut bases = Vec::new();
        for org in Org::all() {
            let mut b = SimConfig::builder();
            b.l2(org.l2(L2_TOTAL_WORDS));
            bases.push(b.build().expect("valid"));
        }
        let cfgs = cross_core_counts(&bases, &CORES, &sharing());
        assert_eq!(cfgs.len(), 16);
        // The anchor cells stay on the single-CPU engine.
        assert!(cfgs
            .iter()
            .filter(|c| c.cmp.cores == 1)
            .all(|c| !c.cmp.enabled()));
        // Every multi-core cell carries the sharing knobs.
        assert!(cfgs
            .iter()
            .filter(|c| c.cmp.cores > 1)
            .all(|c| c.cmp.enabled() && c.cmp.shared_frac == sharing().shared_frac));
        assert!(cfgs.iter().all(|c| c.validate().is_ok()));
    }

    #[test]
    fn small_sweep_produces_the_expected_shape() {
        let rows = run(5e-5);
        assert_eq!(rows.len(), 16, "all cells complete");
        for r in &rows {
            assert!(r.cpi > 1.0, "{}x{}: CPI sane", r.org.label(), r.cores);
            if r.cores == 1 {
                assert_eq!(r.coherence_cpi, 0.0, "anchor column has no coherence time");
            }
        }
        // At least one genuinely sharing configuration pays coherence time.
        assert!(
            rows.iter().any(|r| r.cores > 1 && r.coherence_cpi > 0.0),
            "multi-core cells must exercise the protocol"
        );
    }
}
