//! The batch workloads: one caller converts a fixed set of Table I/II
//! rows back to back (closed loop), as a designer reproducing the tables
//! does.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use triphase_bench::{benchmarks, drive_stimulus, Benchmark, Scale};
use triphase_cells::Library;
use triphase_core::{run_flow_memo, FlowConfig, FlowReport};
use triphase_netlist::{Netlist, SplitMix64};
use triphase_serve::{report_json, Json};

use crate::checks;
use crate::gauge::Gauge;
use crate::layers::{self, Layers, Recorder};
use crate::replay::replay;
use crate::stats;
use crate::trace::Tracer;
use crate::{out_dir, Outcome, RunCtx};

/// Cycles of the scalar-simulator replay check per design.
const REPLAY_CYCLES: usize = 48;
/// Blocks of set-ups timed before the measured work and after it, and
/// set-ups per block (see [`Outcome::setup`]).
const SETUP_BLOCKS: usize = 4;
const SETUPS_PER_BLOCK: usize = 10;

type Table = HashMap<String, [usize; 3]>;

pub struct Design {
    pub bench: Benchmark,
    pub netlist: Netlist,
    pub cfg: FlowConfig,
}

/// Build the named rows and the cell library: the set-up a designer
/// pays before the first flow starts.
pub fn setup(names: &[&str]) -> Result<(Library, Vec<Design>), String> {
    let lib = Library::synthetic_28nm();
    let all = benchmarks();
    let designs = names
        .iter()
        .map(|&n| {
            let bench = all
                .iter()
                .find(|b| b.name == n)
                .cloned()
                .ok_or_else(|| format!("no benchmark row named {n}"))?;
            Ok(Design {
                netlist: bench.build(),
                cfg: bench.flow_config(Scale::Full),
                bench,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok((lib, designs))
}

/// `Benchmark::run` on a prebuilt netlist: the table's flow with the
/// row's own stimulus.
fn run_flow(d: &Design, lib: &Library) -> triphase_core::Result<FlowReport> {
    d.bench.run_netlist_with_config(&d.netlist, lib, &d.cfg)
}

/// Seeded visiting order for one sweep.
fn order(n: usize, rng: &mut SplitMix64) -> Vec<usize> {
    let mut v: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        v.swap(i, rng.below(i + 1));
    }
    v
}

pub fn run(names: &[&str], ctx: &RunCtx) -> Result<Outcome, String> {
    let gauge = Gauge::start();
    let mut blocks = Vec::with_capacity(2 * SETUP_BLOCKS);
    let mut block = || -> Result<_, String> {
        let t = Instant::now();
        let mut built = None;
        for _ in 0..SETUPS_PER_BLOCK {
            built = Some(std::hint::black_box(setup(names)?));
        }
        blocks.push((t, Instant::now()));
        Ok(built.expect("at least one set-up"))
    };
    let mut built = block()?;
    for _ in 1..SETUP_BLOCKS {
        built = block()?;
    }
    let (lib, designs) = built;
    let table = checks::table1()?;
    let mut out = Outcome::default();
    let mut rng = SplitMix64::new(ctx.seed);
    if ctx.trace {
        traced(&designs, &lib, &table, &mut rng, ctx, &mut out);
    } else {
        timed(
            &designs,
            &lib,
            &table,
            &mut rng,
            ctx.seconds,
            &gauge,
            &mut out,
        );
    }
    for _ in 0..SETUP_BLOCKS {
        drop(block()?);
    }
    out.setup(&blocks, SETUPS_PER_BLOCK, &gauge.finish());
    Ok(out)
}

/// The gates of one converted design: its Table I row, both equivalence
/// verdicts and the scalar replay.
fn check(d: &Design, r: &FlowReport, table: &Table, rng: &mut SplitMix64) -> Result<(), String> {
    let want = table
        .get(d.bench.name)
        .ok_or_else(|| format!("{}: no row in results/table1.txt", d.bench.name))?;
    checks::check_registers(r, want)?;
    checks::check_flow(&d.netlist, r, rng.next_u64(), REPLAY_CYCLES)
}

/// Untraced sweeps for `seconds`: another sweep starts only when it is
/// expected to end inside the window, and at least one always runs.
/// Every flow's report is checked as it arrives, and from a design's
/// second sweep on its deterministic fields must repeat the first
/// sweep's; the checking time is kept out of every measured interval.
/// Times are reported in reference seconds (see [`crate::gauge`]), the
/// wall times beside them in a note.
fn timed(
    designs: &[Design],
    lib: &Library,
    table: &Table,
    rng: &mut SplitMix64,
    seconds: u64,
    gauge: &Gauge,
    out: &mut Outcome,
) {
    let n = designs.len();
    let window = Instant::now();
    let mut checking = Duration::ZERO;
    // (sweep, design, start, end) of every flow that passed its checks.
    let mut flows: Vec<(usize, usize, Instant, Instant)> = Vec::new();
    let mut sweeps = 0usize;
    let mut power: Vec<Vec<f64>> = vec![Vec::new(); n];
    let mut regs: Vec<Option<usize>> = vec![None; n];
    let mut first: Vec<Option<Json>> = vec![None; n];
    loop {
        let t = Instant::now();
        let checked_before = checking;
        for i in order(n, rng) {
            let d = &designs[i];
            let t = Instant::now();
            let r = run_flow(d, lib);
            let end = Instant::now();
            out.attempted += 1;
            match r {
                Ok(r) => {
                    let tree = report_json(&r);
                    let repeats = match &first[i] {
                        Some(f) => checks::compare_reports(f, &tree).map(|_| ()).map_err(|e| {
                            format!("{}: differs from its first sweep: {e}", d.bench.name)
                        }),
                        None => Ok(()),
                    };
                    match check(d, &r, table, rng).and(repeats) {
                        Ok(()) => {
                            flows.push((sweeps, i, t, end));
                            regs[i] = Some(r.three_phase.registers());
                            power[i].push(r.three_phase.power.total_mw());
                            first[i].get_or_insert(tree);
                        }
                        Err(e) => out.fail(e),
                    }
                }
                Err(e) => out.fail(format!("{}: flow error: {e}", d.bench.name)),
            }
            checking += end.elapsed();
        }
        sweeps += 1;
        let sweep = (t.elapsed() - (checking - checked_before)).as_secs_f64();
        if (window.elapsed() - checking).as_secs_f64() + sweep > seconds as f64 {
            break;
        }
    }
    let wall = (window.elapsed() - checking).as_secs_f64();
    let speeds = gauge.speeds();
    // Per sweep and per design, in reference and in wall seconds.
    let mut sweep_s = vec![[0.0f64; 2]; sweeps];
    let mut per_design: Vec<[Vec<f64>; 2]> = vec![[Vec::new(), Vec::new()]; n];
    for &(k, i, a, b) in &flows {
        let v = [speeds.secs(a, b), (b - a).as_secs_f64()];
        for j in 0..2 {
            sweep_s[k][j] += v[j];
            per_design[i][j].push(v[j]);
        }
    }
    // Per-design medians over the sweeps: every design weighs equally in
    // the geometric mean and in the latency percentiles, whatever the
    // number of sweeps.
    let summary = |j: usize| {
        let ms: Vec<f64> = per_design
            .iter()
            .filter(|v| !v[j].is_empty())
            .map(|v| stats::median(&v[j]) * 1e3)
            .collect();
        let per_sweep: Vec<f64> = sweep_s.iter().map(|s| s[j]).collect();
        let total: f64 = per_design.iter().flat_map(|v| &v[j]).sum();
        let tail = stats::tail_pct(ms.len());
        [
            stats::median(&per_sweep),
            stats::geomean(&ms.iter().map(|v| v / 1e3).collect::<Vec<_>>()),
            stats::median(&ms),
            stats::percentile(&ms, tail),
            flows.len() as f64 / total,
        ]
    };
    let [suite, geo, p50, p95, rate] = summary(0);
    let raw = summary(1);
    let tail = stats::tail_pct(per_design.iter().filter(|v| !v[0].is_empty()).count());
    out.note(format!(
        "window {wall:.3} s: {sweeps} sweep(s) of {n} designs, {} flows, {:.3} s of output checks kept out; latency percentiles over per-design medians, tail p{tail:.0}",
        flows.len(),
        checking.as_secs_f64(),
    ));
    out.note(format!(
        "gauge: {} samples, median speed {:.4}; in wall time suite_s {:.6} s, flow_s_geomean {:.6} s, latency_p50_ms {:.3}, latency_p95_ms {:.3}, jobs_per_s {:.6}",
        speeds.len(),
        speeds.median(),
        raw[0], raw[1], raw[2], raw[3], raw[4]
    ));
    out.e2e("suite_s", suite, "s");
    out.e2e("flow_s_geomean", geo, "s");
    out.e2e(
        "regs_3p",
        regs.iter().flatten().sum::<usize>() as f64,
        "count",
    );
    let power_mw: f64 = power
        .iter()
        .filter(|v| !v.is_empty())
        .map(|v| stats::median(v))
        .sum();
    out.e2e("power_3p_mw", power_mw, "mW");
    out.e2e("latency_p50_ms", p50, "ms");
    out.e2e("latency_p95_ms", p95, "ms");
    out.e2e("jobs_per_s", rate, "1/s");
}

/// One traced sweep: per design, an untraced `run_flow` and the staged
/// replay, whose reports must agree on every deterministic field, and a
/// `run_flow_memo` that records the stage records a daemon would journal.
fn traced(
    designs: &[Design],
    lib: &Library,
    table: &Table,
    rng: &mut SplitMix64,
    ctx: &RunCtx,
    out: &mut Outcome,
) {
    let tr = Tracer::new();
    let mut layers = Layers::default();
    for i in order(designs.len(), rng) {
        let d = &designs[i];
        let t = Instant::now();
        let direct = run_flow(d, lib);
        layers.untraced_s += t.elapsed().as_secs_f64();
        let seed = d.bench.seed();
        let stim = d.bench.stimulus();
        let drive = move |n: &Netlist, cycles: u64| drive_stimulus(n, cycles, seed, stim);
        let replayed = replay(&d.netlist, lib, &d.cfg, &drive, "custom", &tr);
        out.attempted += 1;
        let (direct, rep) = match (direct, replayed) {
            (Ok(a), Ok(b)) => (a, b),
            (Err(e), _) => {
                out.fail(format!("{}: flow error: {e}", d.bench.name));
                continue;
            }
            (_, Err(e)) => {
                out.fail(format!("{}: replay error: {e}", d.bench.name));
                continue;
            }
        };
        match checks::compare_flow_reports(&direct, &rep.report) {
            Ok(differs) => layers.repro_mismatch += usize::from(differs),
            Err(e) => {
                out.fail(format!(
                    "{}: replay drifted from run_flow: {e}",
                    d.bench.name
                ));
                continue;
            }
        }
        if let Err(e) = check(d, &rep.report, table, rng) {
            let want = table.get(d.bench.name);
            if want.is_some_and(|w| checks::registers(&rep.report) != *w) {
                layers.table1_mismatch += 1;
            }
            out.fail(e);
            continue;
        }
        let recorder = Recorder::default();
        if let Err(e) = run_flow_memo(&d.netlist, lib, &d.cfg, &recorder, &mut |_| {}) {
            out.fail(format!("{}: run_flow_memo error: {e}", d.bench.name));
            continue;
        }
        layers.stages.extend(recorder.into_records());
        layers.add_flow(&d.netlist, &d.cfg, &direct, &rep);
    }
    layers::finish(&tr, layers, &out_dir(), &ctx.trace_path, &ctx.meta, out);
}
