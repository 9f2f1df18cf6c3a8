//! Interrupt skips: after SIGINT (here raised with `interrupt::trigger`)
//! every cell that has not started comes back as
//! [`campaign::INTERRUPT_SKIP`] and nothing is journaled, so a resume
//! runs and journals every cell. Single-cell batches, the path of a
//! one-cell figure such as Fig. 4 through `runner::run_standard`, skip
//! like sweeps do.
//!
//! This lives in its own integration-test binary because the interrupt
//! flag is process-wide: raised inside the library's test binary, it
//! would skip the cells of every test running at that moment.

use gaas_experiments::campaign::{self, CellOptions, CellResult};
use gaas_experiments::{interrupt, runner};
use gaas_sim::config::SimConfig;
use gaas_sim::WritePolicy;

const SCALE: f64 = 5e-5;

/// Two geometries (write policies), two drain timings each: two groups
/// of two cells.
fn sweep_configs() -> Vec<SimConfig> {
    let mut cfgs = Vec::new();
    for policy in [WritePolicy::WriteBack, WritePolicy::WriteOnly] {
        for access in [2u32, 6] {
            let mut b = SimConfig::builder();
            b.policy(policy).l2_drain_access(access);
            cfgs.push(b.build().expect("valid"));
        }
    }
    cfgs
}

fn is_interrupt_skip(res: &CellResult) -> bool {
    matches!(res, CellResult::Failed { error, attempts: 0 } if error == campaign::INTERRUPT_SKIP)
}

#[test]
fn interrupted_cells_skip_unjournaled_and_resume_runs_them() {
    let dir = std::env::temp_dir().join(format!("gaas-interrupt-skip-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let journal = dir.join("journal");
    let cfgs = sweep_configs();

    interrupt::reset();
    assert!(!interrupt::interrupted());
    campaign::activate(&journal, false, CellOptions::default()).expect("activate");
    interrupt::trigger();
    assert!(interrupt::interrupted());
    let batch = campaign::run_cells(&cfgs, SCALE);
    let single = campaign::run_cells(&cfgs[..1], SCALE);
    assert_eq!(batch.len(), cfgs.len());
    assert_eq!(single.len(), 1);
    for res in batch.iter().chain(&single) {
        assert!(is_interrupt_skip(res), "not an interrupt skip: {res:?}");
        assert!(campaign::is_transient_skip(res));
    }
    let standard = std::panic::catch_unwind(|| runner::run_standard(cfgs[0].clone(), SCALE));
    let message = standard.expect_err("run_standard must not run a cell after an interrupt");
    let message = message
        .downcast_ref::<String>()
        .expect("run_standard panics with a formatted message");
    assert!(message.contains(campaign::INTERRUPT_SKIP), "{message}");
    let stats = campaign::deactivate().expect("was active");
    assert_eq!(stats.executed, 0, "skipped cells are not executed");
    assert!(
        !journal.exists(),
        "a skipped sweep must journal nothing (found {:?})",
        campaign::inspect_journal(&journal).map(|i| i.records)
    );

    interrupt::reset();
    assert!(!interrupt::interrupted());
    campaign::activate(&journal, true, CellOptions::default()).expect("resume");
    let resumed = campaign::run_cells(&cfgs, SCALE);
    assert!(resumed.iter().all(CellResult::is_done), "{resumed:?}");
    let stats = campaign::deactivate().expect("was active");
    assert_eq!(stats.reused, 0, "nothing was journaled to reuse");
    assert_eq!(stats.executed, cfgs.len() as u64);
    let insp = campaign::inspect_journal(&journal).expect("journal written");
    assert_eq!(insp.dropped, 0);
    assert_eq!(insp.records.len(), cfgs.len(), "every cell is journaled");
    for cfg in &cfgs {
        let key = campaign::cell_key(cfg, SCALE);
        assert!(
            insp.records
                .iter()
                .any(|(k, s)| *k == key && *s == campaign::RecordStatus::Done),
            "cell {key} missing from the journal"
        );
    }

    let _ = std::fs::remove_dir_all(&dir);
}
