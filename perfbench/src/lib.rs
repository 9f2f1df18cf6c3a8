//! `perfbench` — the end-to-end and per-layer benchmark of the simulator's
//! design sweeps.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! One process runs one workload (see [`workload::Workload`]): it draws
//! the workload's inputs from `--seed`, sets up (clears the trace arena
//! and generates the workload's streams, several times, reporting the
//! median), repeats the workload for `--seconds`, checks the outputs,
//! and prints a report whose last line is one JSON object:
//!
//! ```text
//! {"correct": true, "attempted": N, "failed": 0, "metrics": {"wall_s": {"value": 0.41, "unit": "s"}, ...}}
//! ```
//!
//! With `--trace 0` the metrics are the end-to-end ones ([`END_TO_END`]),
//! measured with tracing off. With `--trace 1` the run splits its time
//! between an untraced and a traced half, then probes every layer on the
//! workload's own inputs (module `layers`), and reports the per-layer
//! metrics ([`PER_LAYER`]); its spans are written to
//! `.bench_out/spans-<workload>-seed<N>.json`. `metrics.json` beside this
//! crate records, for every metric, what it should move and which
//! `BENCH_sim.json` field it supersedes.

mod layers;
mod spans;
mod stats;
pub mod workload;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

use gaas_coherence::{coherence_totals, CoherenceTotals};
use gaas_experiments::{campaign, pool};
use gaas_trace::{arena, Pid};

use crate::spans::Tracer;
use crate::stats::{median, quartiles, tail};
use crate::workload::{Inputs, Outcome, Workload};

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 9;

/// End-to-end metrics of an untraced run: name and unit. The tail of the
/// wall times, `failed_frac` and `claims_passed` are printed in the
/// report lines only (see `metrics.json`).
pub const END_TO_END: [(&str, &str); 4] = [
    ("wall_s", "s"),
    ("refs_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of a traced run: name and unit.
pub const PER_LAYER: [(&str, &str); 53] = [
    ("trace.gen_s", "s"),
    ("trace.arena_hit_rate", "ratio"),
    ("trace.decode_ns_per_ref", "ns/ref"),
    ("trace.arena_mb", "MB"),
    ("cache.l1_touch_ns", "ns/op"),
    ("cache.l2_touch_ns", "ns/op"),
    ("cache.tlb_access_ns", "ns/op"),
    ("cache.wb_op_ns", "ns/op"),
    ("sim.run_ns_per_ref", "ns/ref"),
    ("sim.step_ns_per_ref", "ns/ref"),
    ("sim.residual_ns_per_ref", "ns/ref"),
    ("sim.cpi", "cycles/instr"),
    ("sim.l1i_miss_ratio", "ratio"),
    ("sim.l1d_miss_ratio", "ratio"),
    ("sim.l2_miss_ratio", "ratio"),
    ("sim.wb_stall_cpi", "cycles/instr"),
    ("telemetry.on_ns_per_ref", "ns/ref"),
    ("profile.record_ns_per_ref", "ns/ref"),
    ("profile.coprice_ns_per_lane_ref", "ns/ref"),
    ("profile.coprice_speedup", "x"),
    ("profile.price_ns_per_ref", "ns/ref"),
    ("profile.bytes_per_ref", "B/ref"),
    ("coherence.run_ns_per_ref.c2", "ns/ref"),
    ("coherence.run_ns_per_ref.c4", "ns/ref"),
    ("coherence.one_core_ns_per_ref", "ns/ref"),
    ("coherence.inval_per_kref", "1/kref"),
    ("coherence.c2c_per_kref", "1/kref"),
    ("coherence.upgrade_per_kref", "1/kref"),
    ("coherence.stall_cpi", "cycles/instr"),
    ("campaign.groups", "count"),
    ("campaign.functional_runs", "count"),
    ("campaign.priced_cells", "count"),
    ("campaign.copricer_fallbacks", "count"),
    ("campaign.reuse", "ratio"),
    ("campaign.group_s_p50", "s"),
    ("campaign.group_s_max", "s"),
    ("pool.busy_frac", "ratio"),
    ("exp.fig2_s", "s"),
    ("exp.fig3_s", "s"),
    ("exp.fig4_s", "s"),
    ("exp.fig5_s", "s"),
    ("exp.fig6_s", "s"),
    ("exp.fig7_s", "s"),
    ("exp.fig8_s", "s"),
    ("exp.fig9_s", "s"),
    ("exp.fig10_s", "s"),
    ("exp.sec5_s", "s"),
    ("exp.sec8_s", "s"),
    ("exp.threec_s", "s"),
    ("exp.ablations_s", "s"),
    ("exp.fig_cmp_s", "s"),
    ("exp.claims_passed", "count"),
    ("tracing.overhead_frac", "ratio"),
];

/// One benchmark run's settings.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workload to run.
    pub workload: Workload,
    /// Seed the workload's inputs are drawn from.
    pub seed: u64,
    /// Seconds to repeat the workload for (at least one repeat runs).
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Trace scale.
    pub scale: f64,
    /// Set-ups to time.
    pub setup_reps: usize,
    /// Where a traced run writes its spans (`None`: not written).
    pub spans_dir: Option<PathBuf>,
}

impl Options {
    /// The settings of a benchmark run from the command line.
    pub fn new(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Self {
        Options {
            workload,
            seed,
            seconds,
            trace,
            scale: workload.default_scale(),
            setup_reps: SETUP_REPS,
            spans_dir: Some(PathBuf::from(".bench_out")),
        }
    }
}

/// One named metric value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// What a run measured and checked.
#[derive(Debug, Clone)]
pub struct Report {
    /// True when every cell completed and every check passed.
    pub correct: bool,
    /// Cells, CMP runs, claims and checks attempted.
    pub attempted: u64,
    /// Of those, the ones that failed.
    pub failed: u64,
    /// The metrics of the final JSON line.
    pub metrics: Vec<Metric>,
    /// Human-readable report lines (printed before the JSON line).
    pub lines: Vec<String>,
}

impl Report {
    /// The final report line: one JSON object with `correct`,
    /// `attempted`, `failed` and `metrics`.
    pub fn json_line(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        s.push_str("}}");
        s
    }
}

/// Worker threads for sweeps: two, or fewer on a smaller host.
pub(crate) fn jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get().min(2))
        .unwrap_or(1)
}

/// Repeats of one timed phase.
struct Phase {
    walls: Vec<f64>,
    /// Simulated references the repeats represent.
    refs: u64,
    attempted: u64,
    failed: u64,
    first: Option<Outcome>,
    digest: u64,
    digests_agree: bool,
    claims: Option<u64>,
    memo: campaign::MemoStats,
    /// Process high-water mark after set-up and the first repeat.
    peak_rss_mb: f64,
}

impl Phase {
    /// Repeats the workload until `seconds` have passed (at least once).
    fn run(inputs: &Inputs, seconds: f64, t: &mut Tracer, events: u64) -> Self {
        let mut p = Phase {
            walls: Vec::new(),
            refs: 0,
            attempted: 0,
            failed: 0,
            first: None,
            digest: 0,
            digests_agree: true,
            claims: None,
            memo: campaign::MemoStats::default(),
            peak_rss_mb: 0.0,
        };
        let start = Instant::now();
        loop {
            campaign::reset_memo_stats();
            let t0 = Instant::now();
            let out = t.span("workload.repeat", 1, |t| {
                workload::run_once(inputs, t, events)
            });
            let wall = t0.elapsed().as_secs_f64();
            p.memo = campaign::memo_stats();
            let units = match &out {
                Outcome::Cells(_) | Outcome::Cmp(_) => out.attempted() - out.failed(),
                Outcome::Claims(_) => p.memo.cells(),
            };
            p.walls.push(wall);
            p.refs += units * events;
            p.attempted += out.attempted();
            p.failed += out.failed();
            if let Some(c) = out.claims_passed() {
                p.claims = Some(p.claims.map_or(c, |m| m.min(c)));
            }
            let digest = out.digest();
            if p.first.is_none() {
                p.peak_rss_mb = peak_rss_mb();
                p.digest = digest;
                p.first = Some(out);
            } else {
                p.digests_agree &= digest == p.digest;
            }
            if start.elapsed().as_secs_f64() >= seconds {
                return p;
            }
        }
    }
}

/// Clears the trace arena and materializes the workload's streams.
fn setup(inputs: &Inputs) {
    arena::clear();
    for (i, spec) in inputs.specs.iter().enumerate() {
        let pid = Pid::new(u8::try_from(i).expect("at most 256 benchmark streams"));
        drop(arena::cursor(spec, pid, inputs.scale));
    }
}

/// Process high-water resident set in MB (`VmHWM`), or 0 where the
/// kernel does not report it.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Runs one benchmark run (see the crate docs).
pub fn run(opts: &Options) -> Report {
    pool::set_jobs(jobs());
    campaign::set_memoize(true);
    let inputs = Inputs::new(opts.workload, opts.seed, opts.scale);
    let mut tracer = Tracer::new(opts.trace, u64::from(std::process::id()));
    let mut lines = vec![format!(
        "perfbench workload={} seed={} scale={} jobs={} nproc={} trace={}",
        opts.workload.name(),
        opts.seed,
        opts.scale,
        jobs(),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        u8::from(opts.trace)
    )];

    let mut setups = Vec::new();
    for _ in 0..opts.setup_reps.max(1) {
        let t0 = Instant::now();
        tracer.span("trace.gen", 1, |_| setup(&inputs));
        setups.push(t0.elapsed().as_secs_f64());
    }
    let arena0 = arena::stats();
    let events = arena0.resident_events;
    let coherence0 = coherence_totals();
    let untraced_s = if opts.trace {
        opts.seconds / 2.0
    } else {
        opts.seconds
    };
    let untraced = Phase::run(&inputs, untraced_s, &mut Tracer::new(false, 0), events);
    // Taken after one repeat: a user runs a sweep once, and later repeats
    // only add allocator arenas of the freshly spawned worker threads.
    let peak_rss = untraced.peak_rss_mb;
    let traced = opts
        .trace
        .then(|| Phase::run(&inputs, opts.seconds / 2.0, &mut tracer, events));
    let arena1 = arena::stats();
    let coherence1 = coherence_totals();

    let first = untraced.first.as_ref().expect("a phase runs at least once");
    let checked = workload::check(&inputs, first);
    // The extra check: every repeat of the seed simulated the same counters.
    let mut attempted = untraced.attempted + checked.attempted + 1;
    let mut failed = untraced.failed + checked.failures.len() as u64;
    let mut failures = checked.failures;
    let mut agree = untraced.digests_agree;
    if let Some(tp) = &traced {
        attempted += tp.attempted;
        failed += tp.failed;
        agree &= tp.digests_agree && tp.digest == untraced.digest;
    }
    if !agree {
        failed += 1;
        failures.push("repeats of one seed produced different simulated counters".into());
    }

    let walls = &untraced.walls;
    let wall = median(walls);
    let [q1, _, q3] = quartiles(walls);
    let t = tail(walls);
    // Throughput over the whole timed phase, not a median of per-repeat
    // rates: under a host whose speed shifts between regimes for tens of
    // seconds, the total is the steadier of the two.
    let refs_per_s = untraced.refs as f64 / walls.iter().sum::<f64>();
    let setup_s = median(&setups);
    lines.push(format!(
        "wall_s = {wall:.6} s (median of {} repeats; quartiles {q1:.6} .. {q3:.6})",
        walls.len()
    ));
    lines.push(format!(
        "wall_s_tail = {:.6} s ({} of {} repeats, {} beyond{})",
        t.value,
        if t.pct == 100 {
            "maximum".to_string()
        } else {
            format!("p{}", t.pct)
        },
        t.n,
        t.beyond,
        if t.beyond == 0 {
            "; too few repeats for a percentile with 10 beyond"
        } else {
            ""
        }
    ));
    lines.push(format!(
        "refs_per_s = {refs_per_s:.1} 1/s ({} simulated references over {} repeats)",
        untraced.refs,
        walls.len()
    ));
    lines.push(format!(
        "setup_s = {setup_s:.6} s (median of {} set-ups)",
        setups.len()
    ));
    lines.push(format!(
        "peak_rss_mb = {peak_rss:.3} MB (after set-up and the first repeat; {:.3} MB at the end)",
        peak_rss_mb()
    ));
    lines.push(format!(
        "failed_frac = {} ratio ({failed} of {attempted} cells, claims and checks)",
        ratio(failed as f64, attempted as f64)
    ));
    if let Some(c) = untraced.claims {
        lines.push(format!(
            "claims_passed = {c} count (of {}, lowest over repeats)",
            workload::CLAIMS
        ));
    }
    lines.push(format!("digest = {:016x}", untraced.digest));
    lines.push(format!(
        "arena over the timed phases: generated {} reused {} bypassed {}; after set-up {} streams, {} events, {} compressed bytes",
        arena1.generated - arena0.generated,
        arena1.reused - arena0.reused,
        arena1.bypassed - arena0.bypassed,
        arena0.resident_streams,
        arena0.resident_events,
        arena0.compressed_bytes
    ));
    lines.push(coherence_line(&coherence0, &coherence1));
    let m = untraced.memo;
    lines.push(format!(
        "memoization per repeat: functional_runs {} priced_cells {} copriced_groups {} copricer_fallbacks {}",
        m.functional_runs, m.priced_cells, m.copriced_groups, m.copricer_fallbacks
    ));

    let mut metrics = Vec::new();
    if let Some(tp) = traced {
        let probed = layers::probe(&inputs, &mut tracer, events);
        attempted += 1;
        if !probed.failures.is_empty() {
            failed += 1;
            failures.extend(probed.failures.iter().cloned());
        }
        if matches!(
            opts.workload,
            Workload::GeometrySweep | Workload::TimingSweep
        ) {
            layers::groups(&inputs, &mut tracer);
        }
        if opts.workload == Workload::PaperCheck {
            layers::drivers(inputs.scale, &mut tracer);
        }
        let traced_wall = median(&tp.walls);
        lines.push(format!(
            "traced wall_s = {traced_wall:.6} s (median of {} repeats) vs untraced {wall:.6} s",
            tp.walls.len()
        ));
        let layer = LayerInputs {
            opts,
            inputs: &inputs,
            tracer: &tracer,
            probed: &probed,
            events,
            arena_setup: arena0,
            arena_delta: (
                arena1.generated - arena0.generated,
                arena1.reused - arena0.reused,
            ),
            memo: tp.memo,
            claims: untraced.claims.unwrap_or(0),
            wall,
            traced_wall,
        };
        metrics = layer.metrics();
        for mtr in &metrics {
            lines.push(format!("{} = {} {}", mtr.name, mtr.value, mtr.unit));
        }
        if let Some(dir) = &opts.spans_dir {
            let path = dir.join(format!(
                "spans-{}-seed{}.json",
                opts.workload.name(),
                opts.seed
            ));
            let written =
                std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, tracer.to_json()));
            match written {
                Ok(()) => lines.push(format!(
                    "spans: {} written to {}",
                    tracer.spans().len(),
                    path.display()
                )),
                Err(e) => lines.push(format!("spans: not written to {}: {e}", path.display())),
            }
        }
    } else {
        let values = [wall, refs_per_s, setup_s, peak_rss];
        for ((name, unit), value) in END_TO_END.into_iter().zip(values) {
            metrics.push(Metric { name, value, unit });
        }
    }
    for f in &failures {
        lines.push(format!("FAILED: {f}"));
    }
    Report {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
        lines,
    }
}

fn coherence_line(before: &CoherenceTotals, after: &CoherenceTotals) -> String {
    format!(
        "coherence over the timed phases: runs {} invalidations {} c2c_transfers {} upgrade_misses {} stall_cycles {}",
        after.runs - before.runs,
        after.invalidations - before.invalidations,
        after.c2c_transfers - before.c2c_transfers,
        after.upgrade_misses - before.upgrade_misses,
        after.coherence_stall_cycles - before.coherence_stall_cycles
    )
}

/// Everything the per-layer metrics are computed from.
struct LayerInputs<'a> {
    opts: &'a Options,
    inputs: &'a Inputs,
    tracer: &'a Tracer,
    probed: &'a layers::Probed,
    events: u64,
    arena_setup: arena::ArenaStats,
    /// Streams generated and reused over the timed phases.
    arena_delta: (u64, u64),
    memo: campaign::MemoStats,
    claims: u64,
    wall: f64,
    traced_wall: f64,
}

impl LayerInputs<'_> {
    fn metrics(&self) -> Vec<Metric> {
        let t = self.tracer;
        let n = self.events as f64;
        let sweep = matches!(
            self.opts.workload,
            Workload::GeometrySweep | Workload::TimingSweep
        );
        // Decode spans are the children of the step spans, one per refill,
        // and carry no count of their own.
        let decode = ratio(
            t.total_self_ns("trace.decode") as f64,
            t.total_count("sim.step") as f64,
        );
        let run = t.ns_per_unit("sim.run_warmed");
        let step = t.ns_per_unit("sim.step");
        let coprice = t.ns_per_unit("profile.price_profiles");
        let price = t.ns_per_unit("profile.price_profile");
        let sim = self.probed.sim.unwrap_or_default();
        let c2 = self.probed.c2.unwrap_or_default();
        let per_instr = |c: u64, instr: u64| ratio(c as f64, instr as f64);
        let per_kref = |c: u64| ratio(c as f64 * 1000.0, n);
        let (generated, reused) = self.arena_delta;
        let groups = if sweep {
            campaign::group_preview(&self.inputs.cells).len() as u64
        } else if self.opts.workload == Workload::PaperCheck {
            self.memo.functional_runs
        } else {
            0
        };
        // Each group run alone, the median of its consecutive runs (sweeps
        // only).
        let runs: Vec<f64> = t
            .named("campaign.group")
            .map(|s| s.duration_ns() as f64 / 1e9)
            .collect();
        let group_s: Vec<f64> = runs.chunks(layers::PROBE_REPS).map(median).collect();
        let group_p50 = if group_s.is_empty() {
            0.0
        } else {
            median(&group_s)
        };
        let group_max = group_s.iter().copied().fold(0.0, f64::max);
        let busy = ratio(group_s.iter().sum(), jobs() as f64 * self.wall);
        let mut values: Vec<(&str, f64)> = vec![
            ("trace.gen_s", t.self_s("trace.gen")),
            (
                "trace.arena_hit_rate",
                ratio(reused as f64, (generated + reused) as f64),
            ),
            ("trace.decode_ns_per_ref", decode),
            (
                "trace.arena_mb",
                self.arena_setup.compressed_bytes as f64 / 1e6,
            ),
            ("cache.l1_touch_ns", t.ns_per_unit("cache.l1_touch")),
            ("cache.l2_touch_ns", t.ns_per_unit("cache.l2_touch")),
            ("cache.tlb_access_ns", t.ns_per_unit("cache.tlb_access")),
            ("cache.wb_op_ns", t.ns_per_unit("cache.wb_op")),
            ("sim.run_ns_per_ref", run),
            ("sim.step_ns_per_ref", step),
            ("sim.residual_ns_per_ref", run - step - decode),
            ("sim.cpi", per_instr(sim.total_cycles(), sim.instructions)),
            ("sim.l1i_miss_ratio", sim.l1i_miss_ratio()),
            ("sim.l1d_miss_ratio", sim.l1d_miss_ratio()),
            ("sim.l2_miss_ratio", sim.l2_miss_ratio()),
            (
                "sim.wb_stall_cpi",
                per_instr(sim.wb_wait_cycles, sim.instructions),
            ),
            (
                "telemetry.on_ns_per_ref",
                t.ns_per_unit("telemetry.run_warmed"),
            ),
            (
                "profile.record_ns_per_ref",
                t.ns_per_unit("profile.run_profiled") - run,
            ),
            ("profile.coprice_ns_per_lane_ref", coprice),
            ("profile.coprice_speedup", ratio(price, coprice)),
            ("profile.price_ns_per_ref", price),
            (
                "profile.bytes_per_ref",
                ratio(self.probed.profile_bytes as f64, n),
            ),
            (
                "coherence.run_ns_per_ref.c2",
                t.ns_per_unit(layers::CMP_PROBES[0].1),
            ),
            (
                "coherence.run_ns_per_ref.c4",
                t.ns_per_unit(layers::CMP_PROBES[1].1),
            ),
            (
                "coherence.one_core_ns_per_ref",
                t.ns_per_unit("coherence.one_core"),
            ),
            ("coherence.inval_per_kref", per_kref(c2.invalidations)),
            ("coherence.c2c_per_kref", per_kref(c2.c2c_transfers)),
            ("coherence.upgrade_per_kref", per_kref(c2.upgrade_misses)),
            (
                "coherence.stall_cpi",
                per_instr(c2.coherence_stall_cycles, c2.instructions),
            ),
            ("campaign.groups", groups as f64),
            ("campaign.functional_runs", self.memo.functional_runs as f64),
            ("campaign.priced_cells", self.memo.priced_cells as f64),
            (
                "campaign.copricer_fallbacks",
                self.memo.copricer_fallbacks as f64,
            ),
            (
                "campaign.reuse",
                ratio(self.memo.priced_cells as f64, self.memo.cells() as f64),
            ),
            ("campaign.group_s_p50", group_p50),
            ("campaign.group_s_max", group_max),
            ("pool.busy_frac", busy),
            ("exp.claims_passed", self.claims as f64),
            // The traced half's median wall time over the untraced half's.
            (
                "tracing.overhead_frac",
                ratio(self.traced_wall, self.wall) - 1.0,
            ),
        ];
        // Driver spans are named after their metrics and exist only on
        // paper_check; elsewhere they read 0.
        values.extend(
            layers::DRIVERS
                .iter()
                .map(|&(name, _)| (name, t.self_s(name))),
        );
        assert_eq!(
            values.len(),
            PER_LAYER.len(),
            "one value per per-layer metric"
        );
        PER_LAYER
            .into_iter()
            .map(|(name, unit)| {
                let value = values
                    .iter()
                    .find(|(n, _)| *n == name)
                    .map(|&(_, v)| v)
                    .expect("every per-layer metric has a value");
                Metric { name, value, unit }
            })
            .collect()
    }
}
