//! Fig. 5 — write policy vs. effective L2 access time.
//!
//! Four L1-D write policies (write-back, write-miss-invalidate, the new
//! write-only, subblock placement) are compared while the *effective L2
//! access time seen by write-buffer drains* sweeps from 2 to 10 cycles
//! (the paper relates larger L2 sizes to larger effective access times).
//! Expected shape: the write-back curve is nearly flat (its constant
//! ≈ 0.07 CPI of two-cycle write hits dominates); the write-through curves
//! rise with the drain time (write-buffer-empty waits before read misses)
//! and cross write-back at ≈ 8 cycles; write-only tracks subblock placement
//! closely without its extra valid bits.

use gaas_cache::WritePolicy;
use gaas_sim::config::SimConfig;

use crate::campaign::run_cells;
use crate::tablefmt::{f3_opt, f4, Table};

/// Effective drain access times swept (cycles).
pub const ACCESS_TIMES: [u32; 5] = [2, 4, 6, 8, 10];

/// One (policy, access time) cell.
#[derive(Debug, Clone, Copy)]
pub struct Row {
    /// The write policy.
    pub policy: WritePolicy,
    /// Effective L2 access time for drains (cycles).
    pub access: u32,
    /// Total CPI.
    pub cpi: f64,
    /// CPI lost to multi-cycle writes ("Write hits" in the figure).
    pub write_cpi: f64,
    /// CPI lost waiting on the write buffer.
    pub wb_cpi: f64,
}

/// The `(policy, access)` points and matching configurations of the
/// 4 × 5 sweep, in submission order. Public so `--list-cells` can
/// preview the geometry grouping without running the sweep.
pub fn cell_configs() -> (Vec<(WritePolicy, u32)>, Vec<SimConfig>) {
    let mut points = Vec::new();
    let mut cfgs = Vec::new();
    for policy in WritePolicy::all() {
        for &access in &ACCESS_TIMES {
            let mut b = SimConfig::builder();
            b.policy(policy).l2_drain_access(access);
            points.push((policy, access));
            cfgs.push(b.build().expect("valid"));
        }
    }
    (points, cfgs)
}

/// Runs the 4 × 5 sweep on the base architecture. A cell that fails
/// every isolation attempt is reported to stderr and skipped; the tables
/// render it as a gap.
pub fn run(scale: f64) -> Vec<Row> {
    let (points, cfgs) = cell_configs();
    let mut rows = Vec::new();
    for (res, (policy, access)) in run_cells(&cfgs, scale).into_iter().zip(points) {
        match res {
            crate::campaign::CellResult::Done(r) => {
                let bd = r.breakdown();
                rows.push(Row {
                    policy,
                    access,
                    cpi: r.cpi(),
                    write_cpi: bd.l1_writes,
                    wb_cpi: bd.wb_wait,
                });
            }
            crate::campaign::CellResult::Failed { error, attempts } => eprintln!(
                "fig5: cell {}/{access} failed after {attempts} attempt(s): {error}",
                policy.label()
            ),
        }
    }
    rows
}

/// Renders the Fig. 5 series (one row per access time, one column pair per
/// policy).
pub fn table(rows: &[Row]) -> Table {
    let mut t = Table::new(
        "Fig. 5 — write policy vs. effective L2 access time (CPI)",
        &[
            "access",
            "write-back",
            "write-miss-inv",
            "write-only",
            "subblock",
        ],
    );
    for &access in &ACCESS_TIMES {
        let mut cells = vec![access.to_string()];
        for policy in WritePolicy::all() {
            let row = rows
                .iter()
                .find(|r| r.policy == policy && r.access == access);
            cells.push(f3_opt(row.map(|r| r.cpi)));
        }
        t.push_row(cells);
    }
    t
}

/// Renders the write-hit / WB-wait component split the paper discusses.
pub fn component_table(rows: &[Row]) -> Table {
    let mut t = Table::new(
        "Fig. 5 components — write cycles and WB waits per policy",
        &["policy", "access", "write CPI", "WB CPI"],
    );
    for r in rows {
        t.push_row(vec![
            r.policy.label().to_string(),
            r.access.to_string(),
            f4(r.write_cpi),
            f4(r.wb_cpi),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_is_complete() {
        let rows = run(3e-4);
        assert_eq!(rows.len(), 4 * ACCESS_TIMES.len());
        let t = table(&rows);
        assert_eq!(t.n_rows(), ACCESS_TIMES.len());
    }
}
