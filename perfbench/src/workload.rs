//! The four benchmark workloads: their seeded inputs, one timed repeat
//! each, and the correctness checks run after the timed phase.

use gaas_coherence::{CmpResult, CmpSimulator};
use gaas_experiments::campaign::{self, CellResult};
use gaas_experiments::{fig6, fig78, fig_cmp, runner, verify};
use gaas_sim::config::{ConcurrencyConfig, SimConfig, WbBypass, WriteBufferConfig};
use gaas_sim::{workload, CmpConfig, DiffCheckConfig, SimError, SimResult, Simulator, WritePolicy};
use gaas_trace::bench_model::{suite, BenchmarkSpec};
use gaas_trace::rng::SmallRng;
use gaas_trace::{SharingSpec, SharingTrace, Trace};

use crate::spans::Tracer;

/// A named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Distinct L2 geometries, each a full simulation.
    GeometrySweep,
    /// A few geometries, each crossed with many timing variants.
    TimingSweep,
    /// The CMP engine at 2 and 4 cores over shared-segment streams.
    CmpSharing,
    /// Every experiment driver and the paper's 18 claims.
    PaperCheck,
}

impl Workload {
    /// Every workload, in the order the benchmark lists them.
    pub const ALL: [Workload; 4] = [
        Workload::GeometrySweep,
        Workload::TimingSweep,
        Workload::CmpSharing,
        Workload::PaperCheck,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::GeometrySweep => "geometry_sweep",
            Workload::TimingSweep => "timing_sweep",
            Workload::CmpSharing => "cmp_sharing",
            Workload::PaperCheck => "paper_check",
        }
    }

    /// The workload named `name`, if any.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Trace scale a timed run uses. `paper_check` runs at the smallest
    /// scale at which all 18 claims hold.
    pub fn default_scale(self) -> f64 {
        match self {
            Workload::GeometrySweep => 5e-4,
            Workload::TimingSweep => 1e-3,
            Workload::CmpSharing => 1e-3,
            Workload::PaperCheck => PAPER_CHECK_SCALE,
        }
    }

    fn salt(self) -> u64 {
        match self {
            Workload::GeometrySweep => 0x6E0_5EED,
            Workload::TimingSweep => 0x7143_5EED,
            Workload::CmpSharing => 0xC3F_5EED,
            Workload::PaperCheck => 0xCAFE_5EED,
        }
    }
}

/// Scale of `paper_check`: `verify::run` at this scale reproduces all 18
/// claims (below it, the Fig. 9 and §8 margins fail).
pub const PAPER_CHECK_SCALE: f64 = 2e-3;

/// Claims `verify::run` evaluates.
pub const CLAIMS: usize = 18;

/// Timing variants per geometry in `timing_sweep`.
pub const TIMING_VARIANTS: usize = 9;

/// Geometries in `timing_sweep`: one per write policy.
pub const TIMING_GEOMETRIES: usize = 4;

/// Cells `geometry_sweep` re-runs directly to check the sweep's output.
const GEOMETRY_SAMPLES: usize = 3;

/// Everything a workload's run is derived from. The program sees only
/// these inputs; the seed itself never reaches it.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// The workload.
    pub workload: Workload,
    /// Seed the inputs were drawn from.
    pub seed: u64,
    /// Trace scale.
    pub scale: f64,
    /// Benchmark streams, one process each (PID = index).
    pub specs: Vec<BenchmarkSpec>,
    /// Configurations one repeat runs (sweep cells, or the CMP
    /// configurations; empty for `paper_check`).
    pub cells: Vec<SimConfig>,
    /// Seed of the shared-segment decoration of CMP streams.
    pub sharing_seed: u64,
}

impl Inputs {
    /// Draws `workload`'s inputs from `seed` at `scale`.
    pub fn new(workload: Workload, seed: u64, scale: f64) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed ^ workload.salt());
        let mut specs = suite();
        let mut cells = Vec::new();
        match workload {
            Workload::GeometrySweep => cells = geometry_cells(&mut rng),
            Workload::TimingSweep => cells = timing_cells(&mut rng),
            Workload::CmpSharing => {
                for spec in &mut specs {
                    spec.seed = rng.next_u64();
                }
                for cores in [2, 4] {
                    let mut cfg = SimConfig::baseline();
                    cfg.cmp = CmpConfig {
                        cores,
                        ..fig_cmp::sharing()
                    };
                    cells.push(cfg);
                }
            }
            Workload::PaperCheck => {}
        }
        let sharing_seed = rng.next_u64();
        Inputs {
            workload,
            seed,
            scale,
            specs,
            cells,
            sharing_seed,
        }
    }

    /// Fresh replay streams over the workload's benchmarks, PID = index.
    pub fn streams(&self) -> Vec<Box<dyn Trace>> {
        workload::from_specs(&self.specs, self.scale)
    }

    /// Instructions treated as warm-up (the experiments' fraction).
    pub fn warmup(&self) -> u64 {
        let total: u64 = self
            .specs
            .iter()
            .map(|s| s.scaled_instructions(self.scale))
            .sum();
        (total as f64 * runner::WARMUP_FRAC) as u64
    }

    /// The streams distributed over `cfg.cmp.cores` cores round-robin,
    /// decorated with shared-segment references when `cfg` shares data.
    pub fn cmp_streams(&self, cfg: &SimConfig) -> Vec<Vec<Box<dyn Trace>>> {
        let n = cfg.cmp.cores.max(1) as usize;
        let mut per_core: Vec<Vec<Box<dyn Trace>>> = (0..n).map(|_| Vec::new()).collect();
        let spec = SharingSpec {
            shared_frac: cfg.cmp.shared_frac,
            shared_words: cfg.cmp.shared_words,
            migration_interval: cfg.cmp.migration_interval,
            cores: cfg.cmp.cores,
            seed: self.sharing_seed,
        };
        for (i, trace) in self.streams().into_iter().enumerate() {
            let core = i % n;
            if cfg.cmp.shared_frac > 0.0 {
                per_core[core].push(Box::new(SharingTrace::new(trace, core as u32, &spec)));
            } else {
                per_core[core].push(trace);
            }
        }
        per_core
    }

    /// The single-CPU configuration the per-layer probes run: the first
    /// cell with the CMP extension off, or the baseline.
    pub fn reference_config(&self) -> SimConfig {
        let mut cfg = self
            .cells
            .first()
            .cloned()
            .unwrap_or_else(SimConfig::baseline);
        cfg.cmp = CmpConfig::default();
        cfg
    }
}

/// `geometry_sweep`: every Fig. 6 L2 size under every Fig. 5 write policy.
/// At each size the four Fig. 6 organizations go to the four policies in
/// a seeded order, so every (size, policy) and every (size, organization)
/// pair occurs once: the grid changes with the seed but its cost hardly
/// does. Every cell has its own geometry.
fn geometry_cells(rng: &mut SmallRng) -> Vec<SimConfig> {
    let mut cells = Vec::new();
    for &size in &fig6::SIZES {
        let orgs = shuffled(fig6::Org::all(), rng);
        for (policy, org) in WritePolicy::all().into_iter().zip(orgs) {
            let mut b = SimConfig::builder();
            b.policy(policy).l2(org.l2(size));
            cells.push(b.build().expect("Fig. 6 organizations are valid"));
        }
    }
    cells
}

/// `timing_sweep`: one geometry per Fig. 5 write policy, each with a
/// seeded Fig. 6 organization and size, followed by timing variants drawn
/// from the Fig. 7–10 axes (L2 access cycles, write-buffer depth,
/// concurrency switches, memory penalties). Variants never change the
/// geometry, so each geometry is one memoization group; one group per
/// policy keeps the groups' costs, and so the sweep's, nearly independent
/// of the seed.
fn timing_cells(rng: &mut SmallRng) -> Vec<SimConfig> {
    let orgs = fig6::Org::all();
    let mut cells = Vec::new();
    for policy in WritePolicy::all() {
        let org = orgs[rng.gen_range(0..orgs.len())];
        let size = fig6::SIZES[rng.gen_range(0..fig6::SIZES.len())];
        let mut base = SimConfig::builder();
        base.policy(policy).l2(org.l2(size));
        let base = base.build().expect("Fig. 6 organizations are valid");
        for _ in 0..TIMING_VARIANTS {
            cells.push(timing_variant(&base, rng));
        }
    }
    cells
}

/// `xs` in a seeded order (Fisher–Yates).
fn shuffled<T, const N: usize>(mut xs: [T; N], rng: &mut SmallRng) -> [T; N] {
    for i in (1..N).rev() {
        xs.swap(i, rng.gen_range(0..=i));
    }
    xs
}

fn timing_variant(base: &SimConfig, rng: &mut SmallRng) -> SimConfig {
    let pick = |rng: &mut SmallRng, xs: &[u32]| xs[rng.gen_range(0..xs.len())];
    let mut cfg = base.clone();
    let access = |rng: &mut SmallRng| pick(rng, &fig78::ACCESS_TIMES);
    cfg.l2 = match cfg.l2 {
        gaas_sim::L2Config::Unified(mut s) => {
            s.access_cycles = access(rng);
            gaas_sim::L2Config::Unified(s)
        }
        gaas_sim::L2Config::Split { mut i, mut d } => {
            i.access_cycles = access(rng);
            d.access_cycles = access(rng);
            gaas_sim::L2Config::Split { i, d }
        }
    };
    cfg.write_buffer = WriteBufferConfig {
        depth: pick(rng, &[1, 2, 4, 8]) as usize,
        ..WriteBufferConfig::for_policy(cfg.policy)
    };
    let mut bypasses = vec![WbBypass::Wait, WbBypass::Associative];
    if matches!(cfg.policy, WritePolicy::WriteOnly | WritePolicy::Subblock) {
        bypasses.push(WbBypass::DirtyBit);
    }
    cfg.concurrency = ConcurrencyConfig {
        concurrent_i_refill: cfg.l2.is_split() && rng.gen_bool(0.5),
        d_read_bypass: bypasses[rng.gen_range(0..bypasses.len())],
        l2d_dirty_buffer: rng.gen_bool(0.5),
    };
    let clean = pick(rng, &[100, 143, 190]);
    cfg.memory.clean_miss_cycles = clean;
    cfg.memory.dirty_miss_cycles = clean + pick(rng, &[47, 94]);
    cfg.validate().expect("timing variants stay valid");
    cfg
}

/// What one repeat of a workload produced.
#[derive(Debug)]
pub enum Outcome {
    /// Sweep cells, in submission order.
    Cells(Vec<CellResult>),
    /// One CMP run per configuration.
    Cmp(Vec<Result<CmpResult, SimError>>),
    /// The paper's claims.
    Claims(Vec<verify::Check>),
}

impl Outcome {
    /// Units attempted: cells, CMP runs or claims.
    pub fn attempted(&self) -> u64 {
        match self {
            Outcome::Cells(c) => c.len() as u64,
            Outcome::Cmp(r) => r.len() as u64,
            Outcome::Claims(c) => c.len() as u64,
        }
    }

    /// Units that errored, timed out or (claims) did not hold.
    pub fn failed(&self) -> u64 {
        let n = match self {
            Outcome::Cells(c) => c.iter().filter(|r| !r.is_done()).count(),
            Outcome::Cmp(r) => r.iter().filter(|r| r.is_err()).count(),
            Outcome::Claims(c) => c.iter().filter(|c| !c.passed).count(),
        };
        n as u64
    }

    /// Claims that held (`paper_check` only).
    pub fn claims_passed(&self) -> Option<u64> {
        match self {
            Outcome::Claims(c) => Some(c.iter().filter(|c| c.passed).count() as u64),
            _ => None,
        }
    }

    /// FNV-1a digest of every simulated counter (or claim measurement)
    /// the repeat produced, so two builds can be compared exactly.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::new();
        match self {
            Outcome::Cells(cells) => {
                for cell in cells {
                    match cell {
                        CellResult::Done(r) => h.text(&result_text(r)),
                        CellResult::Failed { error, .. } => h.text(error),
                    }
                }
            }
            Outcome::Cmp(runs) => {
                for run in runs {
                    match run {
                        Ok(r) => {
                            h.text(&result_text(&r.result));
                            h.text(&format!("{:?}", r.per_core));
                        }
                        Err(e) => h.text(&e.to_string()),
                    }
                }
            }
            Outcome::Claims(checks) => {
                for c in checks {
                    h.text(&format!(
                        "{}|{}|{}|{}",
                        c.artifact, c.claim, c.passed, c.detail
                    ));
                }
            }
        }
        h.finish()
    }
}

/// Every simulated quantity of a result, as text.
pub fn result_text(r: &SimResult) -> String {
    format!(
        "{:?}|{:?}|{:?}|{:?}",
        r.counters, r.per_process, r.completed, r.termination
    )
}

/// Runs one repeat of the workload, with a span around each call into
/// the sweep, CMP or experiment layer.
pub fn run_once(inputs: &Inputs, tracer: &mut Tracer, events: u64) -> Outcome {
    match inputs.workload {
        Workload::GeometrySweep | Workload::TimingSweep => {
            let cells = &inputs.cells;
            Outcome::Cells(tracer.span("campaign.run_cells", cells.len() as u64, |_| {
                campaign::run_cells(cells, inputs.scale)
            }))
        }
        Workload::CmpSharing => {
            let cells = &inputs.cells;
            let refs = events * cells.len() as u64;
            Outcome::Cmp(tracer.span("coherence.cmp_runs", refs, |_| {
                // Each CMP run is single-threaded; the 2- and 4-core runs
                // are independent, so they share the sweep workers.
                if crate::jobs() >= cells.len() {
                    std::thread::scope(|s| {
                        let runs: Vec<_> = cells
                            .iter()
                            .map(|cfg| s.spawn(move || run_cmp(inputs, cfg)))
                            .collect();
                        runs.into_iter()
                            .map(|r| r.join().expect("a CMP run thread panicked"))
                            .collect()
                    })
                } else {
                    cells.iter().map(|cfg| run_cmp(inputs, cfg)).collect()
                }
            }))
        }
        Workload::PaperCheck => {
            Outcome::Claims(tracer.span("exp.verify", CLAIMS as u64, |_| verify::run(inputs.scale)))
        }
    }
}

/// One CMP run of `cfg` over the workload's streams.
pub fn run_cmp(inputs: &Inputs, cfg: &SimConfig) -> Result<CmpResult, SimError> {
    CmpSimulator::new(cfg.clone())?.run_warmed(inputs.cmp_streams(cfg), inputs.warmup())
}

/// One full single-CPU simulation of `cfg` over the workload's streams.
pub fn run_single(inputs: &Inputs, cfg: &SimConfig) -> Result<SimResult, SimError> {
    Simulator::new(cfg.clone())?.run_warmed(inputs.streams(), inputs.warmup())
}

/// Result of the post-run correctness checks.
#[derive(Debug, Default)]
pub struct Checked {
    /// Checks made.
    pub attempted: u64,
    /// Checks that failed, with what went wrong.
    pub failures: Vec<String>,
}

impl Checked {
    fn record(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }
}

/// Checks the first repeat's outputs against independent re-runs,
/// outside the timed phase:
///
/// * `geometry_sweep`: every cell is its own group, and three seeded
///   cells re-run directly through `Simulator::run_warmed` give identical
///   counters;
/// * `timing_sweep`: one group per geometry forms, and one seeded priced
///   cell per group re-run with memoization off is byte-identical;
/// * `cmp_sharing`: a 1-core `CmpSimulator` equals the single-CPU
///   `Simulator`, and the 2-core run with the coherence oracle on
///   reports no violation and equals the timed run;
/// * `paper_check`: nothing beyond the claims every repeat evaluates.
pub fn check(inputs: &Inputs, first: &Outcome) -> Checked {
    let mut out = Checked::default();
    let mut rng = SmallRng::seed_from_u64(inputs.seed ^ inputs.workload.salt() ^ 0xC4EC);
    match (inputs.workload, first) {
        (Workload::GeometrySweep, Outcome::Cells(cells)) => {
            let groups = campaign::group_preview(&inputs.cells);
            out.record(groups.len() == inputs.cells.len(), || {
                format!(
                    "geometry_sweep formed {} groups from {} cells; every cell must be its own geometry",
                    groups.len(),
                    inputs.cells.len()
                )
            });
            let mut sample: Vec<usize> = Vec::new();
            while sample.len() < GEOMETRY_SAMPLES.min(cells.len()) {
                let i = rng.gen_range(0..cells.len());
                if !sample.contains(&i) {
                    sample.push(i);
                }
            }
            for i in sample {
                let direct = run_single(inputs, &inputs.cells[i]);
                let same = match (&cells[i], &direct) {
                    (CellResult::Done(swept), Ok(direct)) => {
                        result_text(swept) == result_text(direct)
                    }
                    _ => false,
                };
                out.record(same, || {
                    format!(
                        "cell {i}: the sweep's counters differ from a direct Simulator::run_warmed"
                    )
                });
            }
        }
        (Workload::TimingSweep, Outcome::Cells(cells)) => {
            let groups = campaign::group_preview(&inputs.cells);
            out.record(groups.len() == TIMING_GEOMETRIES, || {
                format!(
                    "timing_sweep formed {} groups; expected {TIMING_GEOMETRIES}",
                    groups.len()
                )
            });
            campaign::set_memoize(false);
            for (_, members) in &groups {
                // A non-lead member: its result came from pricing.
                let i = if members.len() > 1 {
                    members[rng.gen_range(1..members.len())]
                } else {
                    members[0]
                };
                let full =
                    campaign::run_cells(std::slice::from_ref(&inputs.cells[i]), inputs.scale);
                let same = match (&cells[i], full.first()) {
                    (CellResult::Done(priced), Some(CellResult::Done(full))) => {
                        result_text(priced) == result_text(full)
                    }
                    _ => false,
                };
                out.record(same, || {
                    format!("cell {i}: the priced result differs from a full simulation")
                });
            }
            campaign::set_memoize(true);
        }
        (Workload::CmpSharing, Outcome::Cmp(runs)) => {
            let one_core = inputs.reference_config();
            let single = run_single(inputs, &one_core);
            let cmp = CmpSimulator::new(one_core.clone())
                .map_err(SimError::from)
                .and_then(|sim| sim.run_warmed(vec![inputs.streams()], inputs.warmup()));
            let same = match (&single, &cmp) {
                (Ok(s), Ok(c)) => result_text(s) == result_text(&c.result),
                _ => false,
            };
            out.record(same, || {
                "a 1-core CmpSimulator differs from the single-CPU Simulator".to_string()
            });
            let mut checked = inputs.cells[0].clone();
            checked.diffcheck = DiffCheckConfig {
                enabled: true,
                ..DiffCheckConfig::default()
            };
            let oracle = run_cmp(inputs, &checked);
            let same = match (&oracle, &runs[0]) {
                (Ok(o), Ok(r)) => result_text(&o.result) == result_text(&r.result),
                _ => false,
            };
            out.record(same, || match &oracle {
                Err(e) => format!("the coherence oracle reported: {e}"),
                Ok(_) => "the oracle-checked CMP run's counters differ from the timed run".into(),
            });
        }
        (Workload::PaperCheck, Outcome::Claims(_)) => {}
        (w, _) => unreachable!("run_once gives {} its own outcome kind", w.name()),
    }
    out
}

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }

    fn text(&mut self, s: &str) {
        for &b in s.as_bytes().iter().chain(b"\n") {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}
