//! Tiny-scale smoke runs of every workload, checked end to end: every
//! correctness check passes on the default and held-out seeds, and the
//! emitted report parses and names every metric that `metrics.json` and
//! `BENCHMARK.json` list, with the same units.

use std::path::Path;
use std::sync::Mutex;

use gaas_experiments::json::{self, Json};
use perfbench::workload::Workload;
use perfbench::{Options, Report, END_TO_END, PER_LAYER};

/// The simulator's sweep switches and counters are process-wide, so the
/// runs of this file take turns.
static SERIAL: Mutex<()> = Mutex::new(());

fn manifest_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn read_json(path: &Path) -> Json {
    let text = std::fs::read_to_string(path).expect("readable JSON file");
    json::parse(&text).expect("valid JSON")
}

fn seeds() -> [u64; 2] {
    let doc = read_json(&manifest_dir().join("metrics.json"));
    let seeds = doc.get("seeds").expect("metrics.json records the seeds");
    let get = |k| {
        seeds
            .get(k)
            .and_then(Json::as_u64)
            .expect("seed is an integer")
    };
    [get("default"), get("held_out")]
}

fn tiny(workload: Workload, seed: u64, trace: bool) -> Report {
    let mut opts = Options::new(workload, seed, 0.0, trace);
    opts.setup_reps = 1;
    opts.spans_dir = None;
    if workload != Workload::PaperCheck {
        opts.scale = 5e-5;
    }
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    perfbench::run(&opts)
}

/// `(name, unit)` pairs of a metric list, from the report's JSON line.
fn reported(report: &Report) -> Vec<(String, String)> {
    let line = json::parse(&report.json_line()).expect("the report line is JSON");
    assert_eq!(
        line.get("correct").and_then(Json::as_bool),
        Some(report.correct)
    );
    assert!(
        line.get("attempted")
            .and_then(Json::as_u64)
            .expect("attempted")
            >= 1
    );
    assert!(line.get("failed").and_then(Json::as_u64).is_some());
    line.get("metrics")
        .and_then(Json::as_obj)
        .expect("metrics object")
        .iter()
        .map(|(name, m)| {
            assert!(
                m.get("value").and_then(Json::as_f64).is_some(),
                "{name} has a value"
            );
            let unit = m.get("unit").and_then(Json::as_str).expect("unit");
            (name.clone(), unit.to_string())
        })
        .collect()
}

fn listed(list: &[(&str, &str)]) -> Vec<(String, String)> {
    list.iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

/// `(name, unit)` pairs of a `metrics.json` section (an object keyed by
/// name) or a `BENCHMARK.json` section (an array of objects).
fn documented(section: &Json) -> Vec<(String, String)> {
    let unit = |m: &Json| {
        m.get("unit")
            .and_then(Json::as_str)
            .expect("unit")
            .to_string()
    };
    match section {
        Json::Obj(fields) => fields.iter().map(|(n, m)| (n.clone(), unit(m))).collect(),
        Json::Arr(items) => items
            .iter()
            .map(|m| {
                let name = m.get("name").and_then(Json::as_str).expect("name");
                (name.to_string(), unit(m))
            })
            .collect(),
        _ => panic!("metric section is neither an object nor an array"),
    }
}

fn assert_passed(report: &Report, what: &str) {
    assert!(
        report.correct && report.failed == 0,
        "{what} failed its checks:\n{}",
        report.lines.join("\n")
    );
}

#[test]
fn every_workload_passes_its_checks_on_both_seeds() {
    for seed in seeds() {
        for w in Workload::ALL {
            let report = tiny(w, seed, false);
            assert_passed(&report, &format!("{} seed {seed}", w.name()));
            assert_eq!(reported(&report), listed(&END_TO_END));
            if w == Workload::PaperCheck {
                assert!(
                    report
                        .lines
                        .iter()
                        .any(|l| l.starts_with("claims_passed = 18 ")),
                    "paper_check reports 18 claims"
                );
            }
            assert!(report
                .lines
                .iter()
                .any(|l| l.starts_with("failed_frac = 0 ")));
        }
    }
}

#[test]
fn traced_runs_report_every_per_layer_metric() {
    let [seed, _] = seeds();
    for w in [
        Workload::GeometrySweep,
        Workload::TimingSweep,
        Workload::CmpSharing,
    ] {
        let report = tiny(w, seed, true);
        assert_passed(&report, &format!("traced {}", w.name()));
        assert_eq!(reported(&report), listed(&PER_LAYER));
        let value = |name: &str| {
            report
                .metrics
                .iter()
                .find(|m| m.name == name)
                .map(|m| m.value)
                .expect("metric reported")
        };
        assert!(value("sim.run_ns_per_ref") > 0.0);
        assert!(
            value("coherence.inval_per_kref") > 0.0,
            "sharing produces invalidations"
        );
        if w == Workload::TimingSweep {
            assert!(
                value("campaign.priced_cells") > 0.0,
                "timing variants are priced"
            );
            assert!(value("profile.coprice_speedup") > 0.0);
        }
    }
}

#[test]
fn traced_paper_check_times_every_driver() {
    let [seed, _] = seeds();
    let report = tiny(Workload::PaperCheck, seed, true);
    assert_passed(&report, "traced paper_check");
    for m in &report.metrics {
        if m.name.starts_with("exp.") {
            assert!(m.value > 0.0, "{} = {}", m.name, m.value);
        }
    }
}

#[test]
fn simulated_counts_repeat_exactly() {
    let [seed, _] = seeds();
    let simulated = |r: &Report| -> Vec<(String, f64)> {
        r.metrics
            .iter()
            .filter(|m| m.name.starts_with("sim.") && !m.name.contains("_ns_"))
            .chain(
                r.metrics
                    .iter()
                    .filter(|m| m.name.starts_with("coherence.") && m.name.ends_with("kref")),
            )
            .map(|m| (m.name.to_string(), m.value))
            .collect()
    };
    let a = tiny(Workload::CmpSharing, seed, true);
    let b = tiny(Workload::CmpSharing, seed, true);
    assert_eq!(simulated(&a), simulated(&b));
    let digest = |r: &Report| r.lines.iter().find(|l| l.starts_with("digest")).cloned();
    assert_eq!(digest(&a), digest(&b));
}

#[test]
fn documented_metrics_match_the_report() {
    let doc = read_json(&manifest_dir().join("metrics.json"));
    assert_eq!(
        documented(doc.get("end_to_end").expect("end_to_end")),
        listed(&END_TO_END)
    );
    assert_eq!(
        documented(doc.get("per_layer").expect("per_layer")),
        listed(&PER_LAYER)
    );
    let workloads = doc
        .get("workloads")
        .and_then(Json::as_obj)
        .expect("workloads");
    let names: Vec<&str> = workloads.iter().map(|(n, _)| n.as_str()).collect();
    let expected: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(names, expected);
    for (name, w) in workloads {
        let scale = w.get("scale").and_then(Json::as_f64).expect("scale");
        let workload = Workload::parse(name).expect("known workload");
        assert_eq!(scale, workload.default_scale(), "{name} scale");
    }

    // BENCHMARK.json sits at the repository root, beside this package.
    let bench = manifest_dir().join("../BENCHMARK.json");
    if bench.exists() {
        let bench = read_json(&bench);
        assert_eq!(
            documented(bench.get("end_to_end").expect("end_to_end")),
            listed(&END_TO_END)
        );
        assert_eq!(
            documented(bench.get("per_layer").expect("per_layer")),
            listed(&PER_LAYER)
        );
        let names: Vec<String> = bench
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(Json::as_str)
                    .expect("name")
                    .to_string()
            })
            .collect();
        assert_eq!(names, expected);
    }
}
