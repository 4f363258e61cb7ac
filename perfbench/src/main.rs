//! The repository benchmark: end-to-end metrics of the conversion flow
//! and of the conversion service, and a traced run that splits them
//! into layers.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload batch-mid --seed 1 --seconds 25 --trace 0
//! ```
//!
//! Workloads:
//! - `batch-mid`: one caller runs the Table I/II flow over SHA256, MD5,
//!   Plasma, RISCV and ArmM0, back to back (closed loop). Placement, CTS
//!   and conversion carry most of the flow time on these rows.
//! - `batch-iscas`: the same loop over s35932, s38417 and s38584, where
//!   the dataflow checkpoints and equivalence streaming carry a large
//!   share and placement a small one.
//! - `serve-mixed`: an in-process `triphase-serve` daemon (journal on,
//!   one worker per core) fed an open-loop job mix in two chunks, each
//!   followed by a burst.
//!
//! Times are reported in reference seconds, scaled by a speed gauge
//! that runs beside the work (see [`gauge`]); the wall times are printed
//! in the notes.
//!
//! `--trace 0` measures the end-to-end metrics untraced; `--trace 1`
//! runs the staged replay under spans and prints the per-layer metrics,
//! writing the spans as Chrome trace-event JSON under `perfbench/out/`.
//! `--steady N` runs the workload N times with consecutive seeds, each
//! in its own process, and prints each metric's median, quartiles and
//! spread against its bound in `BENCHMARK.json`.
//!
//! Every run checks its outputs; a failed check is counted in
//! `failed_frac` and makes the run exit with code 1. The last line of
//! standard output is one JSON object: `correct`, `attempted`, `failed`
//! and `metrics`.

mod batch;
mod checks;
mod gauge;
mod layers;
mod replay;
mod serve;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use triphase_serve::Json;

/// End-to-end metrics in the result line of `--trace 0` runs, as listed
/// in `BENCHMARK.json`. `failed_frac` is printed with them but is a
/// per-layer metric there: on these workloads it is zero when the code
/// is correct, and a bound relative to zero means nothing.
pub const END_TO_END: [&str; 9] = [
    "setup_s",
    "suite_s",
    "flow_s_geomean",
    "peak_rss_mb",
    "regs_3p",
    "power_3p_mw",
    "latency_p50_ms",
    "latency_p95_ms",
    "jobs_per_s",
];

/// Per-layer metrics in the result line of `--trace 1` runs, as listed
/// in `BENCHMARK.json`: those every workload measures. The daemon's
/// queue, ack and engine latencies exist only on `serve-mixed`; they are
/// printed there but kept out of the result line.
pub const PER_LAYER: [&str; 38] = [
    "pnr.place_route_s",
    "pnr.trial_place_s",
    "pnr.wirelength_um",
    "dfa.s",
    "lint.s",
    "sim.equiv_stream_s",
    "core.preprocess_s",
    "core.convert_s",
    "core.retime_s",
    "core.clockgate_s",
    "activity.analyze_s",
    "ilp.solve_s",
    "ilp.optimal_frac",
    "sim.activity_s",
    "netlist.opt_s",
    "power.s",
    "timing.sta_s",
    "timing.c2_s",
    "timing.nonconverged",
    "par.variant_wall_s",
    "par.variant_busy_s",
    "journal.append_ms",
    "journal.replay_s",
    "memo.report_hit_rate",
    "memo.stage_hit_rate",
    "memo.evictions",
    "memo.key_ms",
    "proto.encode_ms",
    "proto.decode_ms",
    "proto.submit_bytes",
    "proto.done_bytes",
    "proto.unparseable_done",
    "serve.shed",
    "trace.coverage",
    "trace.overhead",
    "core.repro_mismatch",
    "core.table1_mismatch",
    "failed_frac",
];

pub const BATCH_MID: [&str; 5] = ["SHA256", "MD5", "Plasma", "RISCV", "ArmM0"];
pub const BATCH_ISCAS: [&str; 3] = ["s35932", "s38417", "s38584"];

/// Where traces and scratch journals go: inside the benchmark's own
/// directory of the checkout it was built in.
pub fn out_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

/// What one run measured and whether its outputs passed the checks.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    failures: Vec<String>,
    e2e: Vec<Metric>,
    layer: Vec<Metric>,
    notes: Vec<String>,
}

impl Outcome {
    /// Record `setup_s` from blocks of `per_block` set-ups back to back,
    /// `[start, end]` each, half of the blocks before the measured work
    /// and half after it: the median over the blocks of the mean set-up
    /// time in a block, in reference seconds (see [`gauge`]). One set-up
    /// takes milliseconds, shorter than the gauge's sampling period and
    /// short enough for a page fault to count; a block is long enough
    /// for both to even out.
    pub fn setup(
        &mut self,
        blocks: &[(Instant, Instant)],
        per_block: usize,
        speeds: &gauge::Speeds,
    ) {
        let n = per_block as f64;
        let wall: Vec<f64> = blocks
            .iter()
            .map(|(a, b)| (*b - *a).as_secs_f64() / n)
            .collect();
        let reference: Vec<f64> = blocks.iter().map(|&(a, b)| speeds.secs(a, b) / n).collect();
        let setup_s = stats::median(&reference);
        self.note(format!(
            "setup: {} blocks of {per_block} set-ups, median {setup_s:.6} s per set-up; in wall time median {:.6} s, fastest block {:.6} s",
            blocks.len(),
            stats::median(&wall),
            wall.iter().copied().fold(f64::INFINITY, f64::min),
        ));
        self.e2e("setup_s", setup_s, "s");
    }

    /// Count one failed operation or output check.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.failures.push(why);
    }

    pub fn e2e(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.e2e.push(Metric { name, value, unit });
    }

    pub fn layer(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.layer.push(Metric { name, value, unit });
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    steady: Option<usize>,
}

const USAGE: &str = "usage: perfbench --workload batch-mid|batch-iscas|serve-mixed \
                     --seed N --seconds S --trace 0|1 [--steady RUNS]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 25,
        trace: false,
        steady: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let num = |v: String| -> Result<u64, String> {
            v.parse()
                .map_err(|_| format!("{flag} needs a whole number, got `{v}`"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = num(value()?)?,
            "--seconds" => args.seconds = num(value()?)?.max(1),
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, got `{v}`")),
                }
            }
            "--steady" => args.steady = Some(num(value()?)?.max(1) as usize),
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    if !["batch-mid", "batch-iscas", "serve-mixed"].contains(&args.workload.as_str()) {
        return Err(format!("unknown workload `{}`", args.workload));
    }
    Ok(args)
}

fn fmt_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// Print the human-readable lines and the result line; returns whether
/// the run passed every check.
fn report(args: &Args, mut out: Outcome) -> bool {
    let mut env = stats::environment(args.seed);
    env.push(("workload".into(), args.workload.clone()));
    env.push(("seconds".into(), args.seconds.to_string()));
    let line: Vec<String> = env.iter().map(|(k, v)| format!("{k}={v}")).collect();
    println!("env {}", line.join(" "));
    let rss = stats::peak_rss_mb().unwrap_or(f64::NAN);
    if !args.trace {
        out.e2e("peak_rss_mb", rss, "MB");
    }
    for n in &out.notes {
        println!("note {n}");
    }
    let frac = out.failed_frac();
    let (wanted, measured): (&[&str], &[Metric]) = if args.trace {
        (&PER_LAYER, &out.layer)
    } else {
        (&END_TO_END, &out.e2e)
    };
    for m in measured {
        println!("metric {} = {} {}", m.name, fmt_num(m.value), m.unit);
    }
    println!(
        "metric failed_frac = {frac} ratio ({} failed of {} attempted)",
        out.failed, out.attempted
    );
    let mut fields = Vec::new();
    let mut missing = Vec::new();
    for &name in wanted {
        let (value, unit) = if name == "failed_frac" {
            (frac, "ratio")
        } else {
            match measured.iter().find(|m| m.name == name) {
                Some(m) => (m.value, m.unit),
                None => {
                    missing.push(name);
                    continue;
                }
            }
        };
        if !value.is_finite() {
            missing.push(name);
        }
        fields.push(format!(
            "{}: {{\"value\": {}, \"unit\": {}}}",
            trace::quote(name),
            fmt_num(value),
            trace::quote(unit)
        ));
    }
    for name in missing {
        out.fail(format!("metric {name} was not measured"));
    }
    for f in &out.failures {
        println!("FAILED {f}");
    }
    let correct = out.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted,
        out.failed,
        fields.join(", ")
    );
    correct
}

/// Run the workload `runs` times in child processes and print each
/// result-line metric's median, quartiles and spread, the spread being
/// (Q3 − Q1) / median as the acceptance check computes it.
fn steady(args: &Args, runs: usize) -> Result<bool, String> {
    let spec_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let spec = std::fs::read_to_string(spec_path).map_err(|e| format!("{spec_path}: {e}"))?;
    let spec = Json::parse(&spec).map_err(|e| format!("{spec_path}: {e}"))?;
    let bound = |name: &str| -> Option<f64> {
        let Some(Json::Arr(list)) = spec.get("end_to_end") else {
            return None;
        };
        list.iter()
            .find(|m| m.get("name").and_then(Json::as_str) == Some(name))
            .and_then(|m| m.get("bound"))
            .and_then(Json::as_f64)
    };
    let env: Vec<String> = stats::environment(args.seed)
        .iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect();
    println!("env {}", env.join(" "));
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut values: Vec<(String, String, Vec<f64>)> = Vec::new();
    let mut all_ok = true;
    for k in 0..runs {
        let seed = args.seed + k as u64;
        let child = std::process::Command::new(&exe)
            .args(["--workload", &args.workload])
            .args(["--seed", &seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .output()
            .map_err(|e| format!("spawning run {k}: {e}"))?;
        let stdout = String::from_utf8_lossy(&child.stdout);
        let last = stdout.lines().last().unwrap_or("");
        let result = Json::parse(last).map_err(|e| format!("run {k} (seed {seed}): {e}"))?;
        let ok = child.status.success() && result.get("correct") == Some(&Json::Bool(true));
        all_ok &= ok;
        println!("run {k} seed {seed}: {last}");
        if let Some(Json::Obj(metrics)) = result.get("metrics") {
            for (name, m) in metrics {
                let v = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
                let unit = m
                    .get("unit")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_owned();
                match values.iter_mut().find(|(n, _, _)| n == name) {
                    Some((_, _, vs)) => vs.push(v),
                    None => values.push((name.clone(), unit, vec![v])),
                }
            }
        }
    }
    println!("steadiness over {runs} runs of {}:", args.workload);
    for (name, unit, vs) in &values {
        let [q1, q2, q3] = stats::quartiles(vs);
        let spread = if q2 != 0.0 { (q3 - q1) / q2.abs() } else { 0.0 };
        let verdict = match bound(name) {
            Some(b) if spread < b / 3.0 => format!("bound {b}: ok"),
            Some(b) if spread <= b => format!("bound {b}: within, above a third"),
            Some(b) => format!("bound {b}: TOO WIDE"),
            None => "no bound".into(),
        };
        println!(
            "  {name:24} median {q2:>14.6} {unit:6} q1 {q1:>14.6} q3 {q3:>14.6} spread {spread:.4}  {verdict}"
        );
    }
    Ok(all_ok)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(runs) = args.steady {
        return match steady(&args, runs) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("steadiness mode: {e}");
                ExitCode::FAILURE
            }
        };
    }
    if let Err(e) = std::fs::create_dir_all(out_dir()) {
        eprintln!("creating {}: {e}", out_dir().display());
        return ExitCode::FAILURE;
    }
    let meta = stats::environment(args.seed);
    let trace_path = out_dir().join(format!("trace-{}-{}.json", args.workload, args.seed));
    let ctx = RunCtx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        trace_path,
        meta,
    };
    let result = match args.workload.as_str() {
        "batch-mid" => batch::run(&BATCH_MID, &ctx),
        "batch-iscas" => batch::run(&BATCH_ISCAS, &ctx),
        _ => serve::run(&ctx),
    };
    match result {
        Ok(out) => {
            if report(&args, out) {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("{}: {e}", args.workload);
            ExitCode::FAILURE
        }
    }
}

/// What a workload needs from the command line.
pub struct RunCtx {
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub trace_path: PathBuf,
    pub meta: Vec<(String, String)>,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The result line and `BENCHMARK.json` must name the same metrics.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let spec = Json::parse(&text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<String> {
            match spec.get(key) {
                Some(Json::Arr(list)) => list
                    .iter()
                    .filter_map(|m| m.get("name").and_then(Json::as_str).map(str::to_owned))
                    .collect(),
                _ => panic!("{key} missing"),
            }
        };
        assert_eq!(names("end_to_end"), END_TO_END);
        assert_eq!(names("per_layer"), PER_LAYER);
    }
}
