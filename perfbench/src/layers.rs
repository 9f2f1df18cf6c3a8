//! Per-layer probes of the traced run.
//!
//! Each probe calls one layer's public functions on the workload's own
//! inputs, inside a span named after the call, [`PROBE_REPS`] times; the
//! per-layer figures are medians over those spans. Nothing inside the
//! simulator is instrumented: the spans sit in this file, around the
//! calls.

use std::hint::black_box;

use gaas_cache::{CacheArray, PageMapper, Tlb, WriteBuffer};
use gaas_coherence::CmpSimulator;
use gaas_experiments::campaign;
use gaas_experiments::{
    ablations, fig10, fig2, fig3, fig4, fig5, fig6, fig78, fig9, fig_cmp, sec5, sec8, threec,
};
use gaas_sim::config::{L2Config, SimConfig, TelemetryConfig};
use gaas_sim::{price_profile, price_profiles, CmpConfig, Counters, SimError, Simulator};
use gaas_trace::{AccessKind, PhysAddr, Trace, TraceEvent};

use crate::spans::Tracer;
use crate::workload::{run_cmp, Inputs};

/// Repetitions of each probe; figures are medians over them.
pub const PROBE_REPS: usize = 3;

/// Events requested per `next_batch` call (one codec block).
const BATCH: usize = 4096;

/// Core counts of the CMP probes, with their span names.
pub const CMP_PROBES: [(u32, &str); 2] = [
    (2, "coherence.run_warmed.c2"),
    (4, "coherence.run_warmed.c4"),
];

/// L2 access times of the co-priced lanes (one Fig. 7/8 timing group).
const LANE_ACCESS: [u32; 4] = [2, 4, 6, 8];

/// What the probes measured besides span times.
#[derive(Debug, Default)]
pub struct Probed {
    /// Probe calls that returned an error.
    pub failures: Vec<String>,
    /// Counters of the reference cell's full simulation.
    pub sim: Option<Counters>,
    /// Counters of the 2-core CMP run.
    pub c2: Option<Counters>,
    /// Size of the reference cell's functional profile.
    pub profile_bytes: u64,
}

/// Runs every single-CPU, cache, trace, profile and coherence probe.
pub fn probe(inputs: &Inputs, t: &mut Tracer, events: u64) -> Probed {
    let mut out = Probed::default();
    let cfg = inputs.reference_config();
    sim(inputs, &cfg, events, t, &mut out);
    cache(&cfg, &decoded(inputs, events), t);
    profile(inputs, &cfg, events, t, &mut out);
    coherence(inputs, &cfg, events, t, &mut out);
    out
}

/// The workload's streams, decoded into one vector.
fn decoded(inputs: &Inputs, events: u64) -> Vec<TraceEvent> {
    let mut all = Vec::with_capacity(events as usize);
    for mut s in inputs.streams() {
        while s.next_batch(&mut all, BATCH) > 0 {}
    }
    all
}

enum L2Arrays {
    Unified(CacheArray),
    Split { i: CacheArray, d: CacheArray },
}

impl L2Arrays {
    fn new(l2: &L2Config) -> Self {
        let array = |side: gaas_sim::L2Side| {
            CacheArray::new(side.geometry().expect("validated L2 geometry"))
        };
        match *l2 {
            L2Config::Unified(s) => L2Arrays::Unified(array(s)),
            L2Config::Split { i, d } => L2Arrays::Split {
                i: array(i),
                d: array(d),
            },
        }
    }

    fn side(&mut self, kind: AccessKind) -> &mut CacheArray {
        match self {
            L2Arrays::Unified(a) => a,
            L2Arrays::Split { i, .. } if kind == AccessKind::IFetch => i,
            L2Arrays::Split { d, .. } => d,
        }
    }
}

/// Replays the decoded stream into the cache layer's public calls: L1
/// tag planes (`touch`, `fill` on a miss), the L2 arrays on the L1 miss
/// stream, the TLBs, and the write buffer on stores.
fn cache(cfg: &SimConfig, stream: &[TraceEvent], t: &mut Tracer) {
    let mut mapper = PageMapper::new(cfg.page_colors);
    let phys: Vec<PhysAddr> = stream.iter().map(|ev| mapper.translate(ev.addr)).collect();
    let n = stream.len() as u64;
    // Stores with their issue cycle (one cycle per event plus the trace's
    // processor stalls), so the write-buffer span covers buffer work only.
    let mut now = 0u64;
    let stores: Vec<(u64, PhysAddr)> = stream
        .iter()
        .zip(&phys)
        .filter_map(|(ev, &pa)| {
            now += 1 + u64::from(ev.stall_cycles);
            (ev.kind == AccessKind::Store).then_some((now, pa))
        })
        .collect();
    let access = cfg.l2.d_side().access_cycles;
    for _ in 0..PROBE_REPS {
        let mut l1i = CacheArray::new(cfg.l1i.geometry().expect("validated L1-I geometry"));
        let mut l1d = CacheArray::new(cfg.l1d.geometry().expect("validated L1-D geometry"));
        let mut misses: Vec<usize> = Vec::with_capacity(stream.len() / 8);
        t.span("cache.l1_touch", n, |_| {
            for (i, (ev, &pa)) in stream.iter().zip(&phys).enumerate() {
                let l1 = if ev.kind == AccessKind::IFetch {
                    &mut l1i
                } else {
                    &mut l1d
                };
                if l1.touch(pa).is_none() {
                    black_box(l1.fill(pa));
                    misses.push(i);
                }
            }
        });
        let mut l2 = L2Arrays::new(&cfg.l2);
        t.span("cache.l2_touch", misses.len() as u64, |_| {
            for &i in &misses {
                let arr = l2.side(stream[i].kind);
                if arr.touch(phys[i]).is_none() {
                    black_box(arr.fill(phys[i]));
                }
            }
        });

        let (mut itlb, mut dtlb) = (Tlb::instruction(), Tlb::data());
        let hits = t.span("cache.tlb_access", n, |_| {
            let mut hits = 0u64;
            for ev in stream {
                let tlb = if ev.kind == AccessKind::IFetch {
                    &mut itlb
                } else {
                    &mut dtlb
                };
                hits += u64::from(tlb.access(ev.addr));
            }
            hits
        });
        black_box(hits);

        let mut wb = WriteBuffer::new(cfg.write_buffer.depth);
        let done = t.span("cache.wb_op", stores.len() as u64, |_| {
            let mut stall = 0u64;
            for &(issue, pa) in &stores {
                let at = wb.slot_free_at(issue + stall);
                stall = at - issue;
                wb.enqueue(at, pa, access, access.saturating_sub(2).max(1), 0);
            }
            wb.last_completion()
        });
        black_box(done);
    }
}

/// Times the full simulation of the reference cell, the bare per-event
/// `step` over the same streams, and the telemetry-on simulation.
fn sim(inputs: &Inputs, cfg: &SimConfig, n: u64, t: &mut Tracer, out: &mut Probed) {
    for _ in 0..PROBE_REPS {
        let streams = inputs.streams();
        let res = t.span("sim.run_warmed", n, |_| {
            Simulator::new(cfg.clone())
                .map_err(SimError::from)
                .and_then(|s| s.run_warmed(streams, inputs.warmup()))
        });
        match res {
            Ok(r) => out.sim = Some(r.counters),
            Err(e) => out.failures.push(format!("sim.run_warmed: {e}")),
        }

        // Each refill is a child span, so the step span's self time is the
        // per-event work alone and its children are the trace decode.
        let mut stepper = Simulator::new(cfg.clone()).expect("reference config is valid");
        let mut streams = inputs.streams();
        t.span("sim.step", n, |t| {
            let mut buf = Vec::with_capacity(BATCH);
            for s in &mut streams {
                loop {
                    buf.clear();
                    if t.span("trace.decode", 0, |_| s.next_batch(&mut buf, BATCH)) == 0 {
                        break;
                    }
                    for ev in &buf {
                        stepper.step(ev);
                    }
                }
            }
        });
        black_box(stepper.counters().instructions);
    }

    let mut telem = cfg.clone();
    telem.telemetry = TelemetryConfig::on();
    for _ in 0..PROBE_REPS {
        let streams = inputs.streams();
        let res = t.span("telemetry.run_warmed", n, |_| {
            Simulator::new(telem.clone())
                .map_err(SimError::from)
                .and_then(|s| s.run_warmed(streams, inputs.warmup()))
        });
        if let Err(e) = res {
            out.failures.push(format!("telemetry.run_warmed: {e}"));
        }
    }
}

/// Times profile recording (`run_profiled`), one co-priced pass over a
/// 4-lane timing group (`price_profiles`) and the same lanes priced one
/// at a time (`price_profile`).
fn profile(inputs: &Inputs, cfg: &SimConfig, n: u64, t: &mut Tracer, out: &mut Probed) {
    let lanes: Vec<SimConfig> = LANE_ACCESS
        .iter()
        .map(|&a| {
            let mut b = cfg.to_builder();
            b.l2_access(a);
            b.build().expect("L2 access variants are valid")
        })
        .collect();
    for _ in 0..PROBE_REPS {
        let streams = inputs.streams();
        let recorded = t.span("profile.run_profiled", n, |_| {
            Simulator::new(cfg.clone())
                .map_err(SimError::from)
                .and_then(|s| s.run_profiled(streams, inputs.warmup()))
        });
        let profile = match recorded {
            Ok((_, p)) => p,
            Err(e) => {
                out.failures.push(format!("profile.run_profiled: {e}"));
                return;
            }
        };
        out.profile_bytes = profile.size_bytes() as u64;
        let lane_refs = n * lanes.len() as u64;
        if let Err(e) = t.span("profile.price_profiles", lane_refs, |_| {
            price_profiles(&lanes, &profile)
        }) {
            out.failures.push(format!("profile.price_profiles: {e}"));
        }
        for lane in &lanes {
            if let Err(e) = t.span("profile.price_profile", n, |_| {
                price_profile(lane, &profile)
            }) {
                out.failures.push(format!("profile.price_profile: {e}"));
            }
        }
    }
}

/// Times the CMP engine at 2 and 4 cores over the workload's shared
/// streams, and at 1 core over its plain streams.
fn coherence(inputs: &Inputs, cfg: &SimConfig, n: u64, t: &mut Tracer, out: &mut Probed) {
    for _ in 0..PROBE_REPS {
        for (cores, name) in CMP_PROBES {
            // The reference cell shared by `cores` cores, with the sharing
            // knobs of `fig_cmp` (on cmp_sharing: exactly its own cells).
            let mut shared = cfg.clone();
            shared.cmp = CmpConfig {
                cores,
                ..fig_cmp::sharing()
            };
            match t.span(name, n, |_| run_cmp(inputs, &shared)) {
                Ok(r) if cores == 2 => out.c2 = Some(r.result.counters),
                Ok(_) => {}
                Err(e) => out.failures.push(format!("{name}: {e}")),
            }
        }
        let streams = inputs.streams();
        let one = t.span("coherence.one_core", n, |_| {
            CmpSimulator::new(cfg.clone())
                .map_err(SimError::from)
                .and_then(|s| s.run_warmed(vec![streams], inputs.warmup()))
        });
        if let Err(e) = one {
            out.failures.push(format!("coherence.one_core: {e}"));
        }
    }
}

/// Runs each memoization group of the sweep alone through
/// `campaign::run_cells`, [`PROBE_REPS`] times in a row, each run in a
/// `campaign.group` span.
pub fn groups(inputs: &Inputs, t: &mut Tracer) {
    for (_, members) in campaign::group_preview(&inputs.cells) {
        let cfgs: Vec<SimConfig> = members.iter().map(|&i| inputs.cells[i].clone()).collect();
        for _ in 0..PROBE_REPS {
            black_box(t.span("campaign.group", cfgs.len() as u64, |_| {
                campaign::run_cells(&cfgs, inputs.scale)
            }));
        }
    }
}

/// A public experiment driver: its metric (and span) name and the driver
/// at a scale.
pub type Driver = (&'static str, fn(f64));

/// The public experiment drivers.
pub const DRIVERS: [Driver; 14] = [
    ("exp.fig2_s", |s| drop(black_box(fig2::run(s)))),
    ("exp.fig3_s", |s| drop(black_box(fig3::run(s)))),
    ("exp.fig4_s", |s| drop(black_box(fig4::run(s)))),
    ("exp.fig5_s", |s| drop(black_box(fig5::run(s)))),
    ("exp.fig6_s", |s| drop(black_box(fig6::run(s)))),
    ("exp.fig7_s", |s| {
        drop(black_box(fig78::run(fig78::Side::Instruction, s)))
    }),
    ("exp.fig8_s", |s| {
        drop(black_box(fig78::run(fig78::Side::Data, s)))
    }),
    ("exp.fig9_s", |s| drop(black_box(fig9::run(s)))),
    ("exp.fig10_s", |s| drop(black_box(fig10::run(s)))),
    ("exp.sec5_s", |s| drop(black_box(sec5::run(s)))),
    ("exp.sec8_s", |s| drop(black_box(sec8::run(s)))),
    ("exp.threec_s", |s| drop(black_box(threec::run(s)))),
    ("exp.ablations_s", |s| drop(black_box(ablations::run(s)))),
    ("exp.fig_cmp_s", |s| drop(black_box(fig_cmp::run(s)))),
];

/// Runs every experiment driver once at `scale`, each in its own span.
pub fn drivers(scale: f64, t: &mut Tracer) {
    for (name, run) in DRIVERS {
        t.span(name, 1, |_| run(scale));
    }
}
