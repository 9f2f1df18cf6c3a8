//! Robustness tests for the checksummed campaign journal.
//!
//! The contract under test: damage to a version-2 journal is **local**
//! and **detected** — a flipped byte or torn tail loses exactly the
//! record(s) it touches, every other record is salvaged, and no
//! corruption is ever misparsed into a record that was never written.
//! Driven property-style with the vendored PRNG (exhaustive truncation
//! plus seeded mutations), no external dependency.

use std::path::{Path, PathBuf};

use gaas_experiments::campaign::{self, Campaign, CellOptions, RecordStatus};
use gaas_experiments::chaos;
use gaas_sim::config::SimConfig;
use gaas_sim::{config_fingerprint, WritePolicy};
use gaas_trace::rng::SmallRng;

const SCALE: f64 = 5e-5;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("gaas-journal-robust-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// Four cheap cells: invalid configurations (diffcheck × fault
/// injection) fail validation with a typed error in microseconds, so the
/// journal fills with records without running simulations.
fn cheap_failing_configs() -> Vec<SimConfig> {
    [2u32, 4, 6, 8]
        .iter()
        .map(|&access| {
            let mut b = SimConfig::builder();
            b.l2_drain_access(access)
                .diffcheck(gaas_sim::DiffCheckConfig::on());
            let mut cfg = b.build().expect("valid until fault rates arrive");
            cfg.fault.rates = gaas_sim::FaultRates::uniform(1e-3);
            cfg
        })
        .collect()
}

/// Writes a journal of `cfgs` records and returns its bytes.
fn build_journal(path: &Path, cfgs: &[SimConfig]) -> Vec<u8> {
    let _ = std::fs::remove_file(path);
    let mut c = Campaign::open(path, false, CellOptions::default()).expect("open");
    for res in c.run_cells(cfgs, SCALE) {
        assert!(!res.is_done(), "cheap cells fail by construction");
    }
    drop(c);
    std::fs::read(path).expect("journal exists")
}

/// Byte offsets of each line start (after the header) plus the total
/// length — the record boundaries of a v2 journal.
fn record_offsets(bytes: &[u8]) -> Vec<usize> {
    let mut offsets = Vec::new();
    for (i, &b) in bytes.iter().enumerate() {
        if b == b'\n' && i + 1 < bytes.len() {
            offsets.push(i + 1);
        }
    }
    offsets
}

#[test]
fn one_flipped_byte_loses_exactly_that_record() {
    let dir = tmp_dir("flip-one");
    let journal = dir.join("soak.journal");
    let cfgs = cheap_failing_configs();
    let bytes = build_journal(&journal, &cfgs);

    let intact = campaign::inspect_journal(&journal).expect("inspect");
    assert_eq!(intact.version, 2);
    assert_eq!(intact.records.len(), cfgs.len());
    assert_eq!(intact.dropped, 0);

    // Flip one bit in the middle of the third record's line.
    let offsets = record_offsets(&bytes);
    let target = (offsets[2] + offsets[3]) / 2;
    let mut mutated = bytes.clone();
    mutated[target] ^= 0x10;
    assert_ne!(mutated[target], b'\n', "stay inside the record");
    std::fs::write(&journal, &mutated).expect("write mutated");

    let damaged = campaign::inspect_journal(&journal).expect("inspect");
    assert_eq!(damaged.dropped, 1, "exactly one record is lost");
    assert_eq!(damaged.records.len(), cfgs.len() - 1);
    let lost: Vec<&String> = intact
        .records
        .iter()
        .map(|(k, _)| k)
        .filter(|k| !damaged.records.iter().any(|(dk, _)| &dk == k))
        .collect();
    assert_eq!(lost.len(), 1, "the other records all survive");

    // Resuming over the damaged journal re-executes only the lost cell
    // and leaves every other one reused.
    let mut resumed = Campaign::open(&journal, true, CellOptions::default()).expect("open");
    let _ = resumed.run_cells(&cfgs, SCALE);
    let stats = resumed.stats();
    assert_eq!(stats.reused, cfgs.len() as u64 - 1);
    assert_eq!(stats.executed, 1);
    drop(resumed);

    let healed = campaign::inspect_journal(&journal).expect("inspect");
    assert_eq!(healed.dropped, 0, "the rewrite compacts the damage away");
    assert_eq!(healed.records.len(), cfgs.len());

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn every_truncation_salvages_a_clean_prefix() {
    let dir = tmp_dir("truncate");
    let journal = dir.join("soak.journal");
    let cfgs = cheap_failing_configs();
    let bytes = build_journal(&journal, &cfgs);
    let intact = campaign::inspect_journal(&journal).expect("inspect");
    let cut_path = dir.join("cut.journal");

    for cut in 0..bytes.len() {
        std::fs::write(&cut_path, &bytes[..cut]).expect("write cut");
        let insp = campaign::inspect_journal(&cut_path).expect("inspect never errors");
        // Cutting only the final newline leaves every record line whole
        // (and CRC-valid); any deeper cut must lose at least the torn
        // tail record.
        assert!(
            insp.records.len() < intact.records.len() || cut == bytes.len() - 1,
            "cut to {cut}/{} bytes cannot keep all records",
            bytes.len()
        );
        for rec in &insp.records {
            assert!(
                intact.records.contains(rec),
                "cut to {cut} misparsed a record that was never written: {rec:?}"
            );
        }
    }

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn seeded_mutations_are_always_detected_never_misparsed() {
    let dir = tmp_dir("mutate");
    let journal = dir.join("soak.journal");
    let cfgs = cheap_failing_configs();
    let bytes = build_journal(&journal, &cfgs);
    let intact = campaign::inspect_journal(&journal).expect("inspect");
    let mut_path = dir.join("mut.journal");
    let mut rng = SmallRng::seed_from_u64(42);

    for _ in 0..300 {
        let mut mutated = bytes.clone();
        let edits = rng.gen_range(1usize..=3);
        let mut changed = false;
        for _ in 0..edits {
            let i = rng.gen_range(0usize..mutated.len());
            let flipped = mutated[i] ^ (1u8 << rng.gen_range(0u32..8));
            // Keep newlines intact either way: merging two records is a
            // different (also-covered) failure; this test pins down
            // within-record damage.
            if mutated[i] != b'\n' && flipped != b'\n' {
                mutated[i] = flipped;
                changed = true;
            }
        }
        if !changed {
            continue;
        }
        std::fs::write(&mut_path, &mutated).expect("write mutated");
        let insp = campaign::inspect_journal(&mut_path).expect("inspect never errors");
        assert!(
            insp.dropped >= 1,
            "a mutated journal must report at least one dropped record"
        );
        for rec in &insp.records {
            assert!(
                intact.records.contains(rec),
                "mutation misparsed a record that was never written: {rec:?}"
            );
        }
    }

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn legacy_v1_journal_is_dropped_and_rewritten() {
    let dir = tmp_dir("legacy");
    let journal = dir.join("soak.journal");
    // A handcrafted version-1 document with a decodable cell keyed like
    // a real one would be. Version 1 is no longer read.
    let cfgs = cheap_failing_configs();
    let key = campaign::cell_key(&cfgs[0], SCALE);
    let text = format!(
        "{{\"version\":1,\"cells\":{{\"{key}\":{{\"status\":\"failed\",\
         \"error\":\"legacy typed error\",\"attempts\":1}},\
         \"mangled\":{{\"status\":\"failed\",\"error\":7}}}}}}\n"
    );
    std::fs::write(&journal, text).expect("write legacy");

    let insp = campaign::inspect_journal(&journal).expect("inspect");
    assert_eq!(insp.version, 0, "unrecognised");
    assert_eq!(insp.dropped, 1, "its one line is dropped");
    assert!(insp.records.is_empty());

    // Opening with resume reuses nothing, and the first new record
    // rewrites the file in version-2 framing.
    let mut c = Campaign::open(&journal, true, CellOptions::default()).expect("open");
    assert!(
        !c.run_cells(&cfgs[..1], SCALE)[0].is_done(),
        "typed failure"
    );
    assert_eq!(c.stats().reused, 0);
    drop(c);
    let rewritten = campaign::inspect_journal(&journal).expect("inspect");
    assert_eq!(rewritten.version, 2, "first write replaces the file");
    assert_eq!(rewritten.dropped, 0);
    assert_eq!(rewritten.records, vec![(key, RecordStatus::Failed)]);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn poisoned_cell_quarantines_with_journaled_reason() {
    let dir = tmp_dir("quarantine");
    let journal = dir.join("soak.journal");
    let _ = std::fs::remove_file(&journal);

    // A config distinct from every other test's (policy + drain access),
    // since the poison list is process-wide.
    let mut b = SimConfig::builder();
    b.policy(WritePolicy::WriteOnly).l2_drain_access(14);
    let cfg = b.build().expect("valid");
    chaos::set_poison(vec![config_fingerprint(&cfg)]);

    let opts = CellOptions {
        timeout: std::time::Duration::from_secs(60),
        attempts: 2,
    };
    let mut c = Campaign::open(&journal, true, opts).expect("open");
    match c.run_cells(std::slice::from_ref(&cfg), SCALE).remove(0) {
        campaign::CellResult::Failed { error, attempts } => {
            assert!(error.contains(chaos::POISON_PANIC), "{error}");
            assert_eq!(attempts, 2, "panics burn the whole retry budget");
        }
        campaign::CellResult::Done(_) => panic!("poisoned cell cannot succeed"),
    }
    assert_eq!(c.stats().quarantined, 1);
    drop(c);

    // The journal carries the quarantine reason; a resumed campaign
    // skips the cell (reuse, no re-execution) and flags the reuse.
    let insp = campaign::inspect_journal(&journal).expect("inspect");
    let quarantined = insp.quarantined();
    assert_eq!(quarantined.len(), 1);
    assert!(quarantined[0].1.contains(chaos::POISON_PANIC));

    let mut resumed = Campaign::open(&journal, true, opts).expect("open");
    match resumed
        .run_cells(std::slice::from_ref(&cfg), SCALE)
        .remove(0)
    {
        campaign::CellResult::Failed { error, .. } => {
            assert!(error.starts_with("quarantined: "), "{error}");
        }
        campaign::CellResult::Done(_) => panic!("quarantine must hold on resume"),
    }
    let stats = resumed.stats();
    assert_eq!(stats.executed, 0, "quarantined cells never re-execute");
    assert_eq!(stats.reused, 1);
    drop(resumed);

    chaos::set_poison(Vec::new());
    let _ = std::fs::remove_dir_all(&dir);
}
