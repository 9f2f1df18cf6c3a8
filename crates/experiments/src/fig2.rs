//! Fig. 2 — the effect of multiprogramming level on cache performance.
//!
//! The paper sweeps the number of resident processes (2–16 in the figure;
//! we add 1) at a fixed 500 k-cycle time slice and reports L1-I, L1-D and
//! L2 miss ratios. Expected shape: the L1 ratios are essentially flat (the
//! 4 KW caches are too small to hold more than the running process' set
//! anyway), the L2 ratio grows with the level and stabilizes by level ≈ 8,
//! which is why the paper settles on level 8 for all later studies.

use gaas_sim::config::SimConfig;

use crate::campaign::{run_cells, CellResult};
use crate::tablefmt::{f3, f4, Table};

/// Multiprogramming levels swept.
pub const LEVELS: [usize; 5] = [1, 2, 4, 8, 16];

/// One sweep point.
#[derive(Debug, Clone, Copy)]
pub struct Row {
    /// Multiprogramming level.
    pub level: usize,
    /// L1 instruction-cache miss ratio.
    pub l1i: f64,
    /// L1 data-cache miss ratio.
    pub l1d: f64,
    /// L2 miss ratio.
    pub l2: f64,
    /// Total CPI.
    pub cpi: f64,
}

/// Runs the sweep on the base architecture. A level whose cell fails
/// every isolation attempt is reported to stderr and omitted from the
/// returned rows.
pub fn run(scale: f64) -> Vec<Row> {
    let cfgs: Vec<SimConfig> = LEVELS
        .iter()
        .map(|&level| {
            let mut b = SimConfig::builder();
            b.mp_level(level);
            b.build().expect("valid")
        })
        .collect();
    run_cells(&cfgs, scale)
        .into_iter()
        .zip(LEVELS)
        .filter_map(|(res, level)| match res {
            CellResult::Done(r) => {
                let c = &r.counters;
                Some(Row {
                    level,
                    l1i: c.l1i_miss_ratio(),
                    l1d: c.l1d_miss_ratio(),
                    l2: c.l2_miss_ratio(),
                    cpi: r.cpi(),
                })
            }
            CellResult::Failed { error, attempts } => {
                eprintln!("fig2: level {level} failed after {attempts} attempt(s): {error}");
                None
            }
        })
        .collect()
}

/// Renders the Fig. 2 series.
pub fn table(rows: &[Row]) -> Table {
    let mut t = Table::new(
        "Fig. 2 — miss ratios vs. multiprogramming level (slice 500k cycles)",
        &["level", "L1-I miss", "L1-D miss", "L2 miss", "CPI"],
    );
    for r in rows {
        t.push_row(vec![
            r.level.to_string(),
            f4(r.l1i),
            f4(r.l1d),
            f4(r.l2),
            f3(r.cpi),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_covers_levels() {
        let rows = run(5e-4);
        assert_eq!(rows.len(), LEVELS.len());
        for (r, l) in rows.iter().zip(LEVELS) {
            assert_eq!(r.level, l);
            assert!(r.cpi > 1.0);
        }
    }
}
