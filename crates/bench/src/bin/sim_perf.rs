//! Simulation-kernel performance report: compiled bytecode VM
//! throughput (lane-width sweep W=1/2/4/8) against the scalar reference
//! simulator, thread-scaling of the work-stealing pool, and determinism
//! checks (results must not depend on the thread count, a repeated
//! 512-stream run must be bit-identical, and a single-lane compiled run
//! must match the scalar simulator's toggles exactly).
//!
//! Writes the `compiled_vm` and `thread_scaling` sections of
//! `results/BENCH_sim.json` (see `triphase_bench::perf`); other sections
//! of the file are preserved. `--quick` (or `TRIPHASE_SCALE=quick`) runs
//! a reduced configuration.
//!
//! Exit codes (stable): `0` report written, `1` determinism /
//! certification / speedup-floor check or report write failed, `2`
//! internal error (flow/simulation failure).

use triphase_bench::json::Json;
use triphase_bench::microbench::{samples, time_throughput};
use triphase_bench::perf::{activity_hash, build_s5378, measurement_json};
use triphase_bench::report::{section, ReportFile};
use triphase_par::ThreadPool;
use triphase_sim::{run_random, run_random_compiled, CompiledAny, LANES};

/// Regression floor for the compiled W=8 (512-stream) per-cycle
/// throughput over the scalar simulator on s5378, both measured in the
/// same run. Deliberately conservative: 2-vCPU containers measure
/// 820–1072×, and CI machines are noisy.
const COMPILED_SPEEDUP_FLOOR: f64 = 300.0;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick")
        || std::env::var("TRIPHASE_SCALE").is_ok_and(|v| v == "quick");
    let cycles: u64 = if quick { 32 } else { 256 };
    let n_samples = samples(5);

    let (ff_design, latch_design) = build_s5378();

    // Scalar reference throughput on the FF design: the baseline every
    // compiled width is compared against.
    println!("== compiled VM lane sweep vs scalar (per-lane cycles: {cycles}) ==");
    let scalar = time_throughput("s5378/scalar", n_samples, cycles, || {
        run_random(&ff_design, 1, cycles)
            .expect("scalar run")
            .cycles()
    });
    let mut sweep = Vec::new();
    let mut widest_vs_scalar = 0.0f64;
    for width in [1usize, 2, 4, 8] {
        let lanes = 64 * width;
        let total = cycles * lanes as u64;
        let m = time_throughput(
            &format!("s5378/compiled x{lanes}"),
            n_samples,
            total,
            || {
                run_random_compiled(&ff_design, 1, cycles, lanes)
                    .expect("compiled run")
                    .activity()
                    .cycles
            },
        );
        let vs_scalar = scalar.ns_per_element() / m.ns_per_element();
        println!("compiled W={width} ({lanes:>3} streams)   vs scalar {vs_scalar:>8.1}x");
        let mut rec = Json::obj();
        rec.set("width_words", width.into());
        rec.set("lanes", lanes.into());
        rec.set("compiled", measurement_json(&m));
        rec.set("speedup_vs_scalar", vs_scalar.into());
        sweep.push(rec);
        if width == 8 {
            widest_vs_scalar = vs_scalar;
        }
    }

    // Certification: a single-lane compiled run must reproduce the
    // scalar simulator's toggle vector exactly (values feed toggles, so
    // this is a deep trajectory check over both circuits), and the wide
    // run must be reproducible. The x64/x512 fingerprints are pinned by
    // `perf::tests::golden_s5378_activity_fingerprints`.
    let mut certified = true;
    let mut cert_fps = Vec::new();
    for (label, nl) in [
        ("s5378/ff_design", &ff_design),
        ("s5378/three_phase", &latch_design),
    ] {
        let reference = run_random(nl, 11, cycles).expect("scalar cert run");
        let single = run_random_compiled(nl, 11, cycles, 1)
            .expect("compiled cert run")
            .activity();
        let matches_scalar = single.cycles == reference.activity().cycles
            && single.net_toggles == reference.activity().net_toggles;
        let c = activity_hash(
            &run_random_compiled(nl, 11, cycles, LANES)
                .expect("compiled x64 run")
                .activity(),
        );
        let w1 = activity_hash(
            &run_random_compiled(nl, 11, cycles, 512)
                .expect("compiled wide run")
                .activity(),
        );
        let w2 = activity_hash(
            &run_random_compiled(nl, 11, cycles, 512)
                .expect("compiled wide rerun")
                .activity(),
        );
        let ok = matches_scalar && w1 == w2;
        certified &= ok;
        println!(
            "certify {label:<22} x1 matches scalar: {matches_scalar}  x64 {c:016x}  \
             x512 {w1:016x}  wide deterministic: {}",
            w1 == w2
        );
        let mut rec = Json::obj();
        rec.set("name", label.into());
        rec.set("fingerprint_x64", format!("{c:016x}").into());
        rec.set("fingerprint_x512", format!("{w1:016x}").into());
        rec.set("matches_scalar", matches_scalar.into());
        cert_fps.push(rec);
    }

    let stats = CompiledAny::new(&ff_design, 512)
        .expect("compiled build")
        .lower_stats();
    let mut lower = Json::obj();
    lower.set("gates", stats.gates.into());
    lower.set("serial_words", stats.serial_words.into());
    lower.set("const_folded", stats.const_folded.into());
    lower.set("chains_collapsed", stats.chains_collapsed.into());
    lower.set("deduped", stats.deduped.into());
    lower.set("fused_pairs", stats.fused_pairs.into());
    lower.set("levels", stats.levels.into());

    let mut compiled_section = section();
    compiled_section.set("generated_by", "sim_perf".into());
    compiled_section.set("per_lane_cycles", cycles.into());
    compiled_section.set("scalar", measurement_json(&scalar));
    compiled_section.set("lane_sweep", Json::Arr(sweep));
    compiled_section.set("certification", Json::Arr(cert_fps));
    compiled_section.set("certified", certified.into());
    compiled_section.set("speedup_floor_vs_scalar", COMPILED_SPEEDUP_FLOOR.into());
    compiled_section.set("widest_speedup_vs_scalar", widest_vs_scalar.into());
    compiled_section.set("lower_stats", lower);

    // Thread scaling: independent 64-lane compiled activity collections,
    // run first
    // serially on the calling thread (the baseline), then fanned out
    // through explicit pools of 1/2/4/8 workers. A pool's caller helps
    // run its scope, so even a 1-worker pool uses two threads and is not
    // a serial baseline. Every pool's fingerprints must match the serial
    // ones (scheduling-independent output); wall-clock per pool size
    // gives the curve.
    let tasks: u64 = if quick { 4 } else { 16 };
    let task_cycles: u64 = if quick { 8 } else { 32 };
    let seeds: Vec<u64> = (0..tasks).collect();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "== thread scaling ({tasks} tasks, {task_cycles} cycles x {LANES} lanes each, \
         available parallelism {nproc}) =="
    );
    let task = |&seed: &u64| -> u64 {
        let sim =
            run_random_compiled(&ff_design, seed, task_cycles, LANES).expect("thread-scaling run");
        activity_hash(&sim.activity())
    };
    let t0 = std::time::Instant::now();
    let serial: Vec<u64> = seeds.iter().map(task).collect();
    let serial_secs = t0.elapsed().as_secs_f64();
    println!("serial      {:>9.3} ms", serial_secs * 1e3);
    let mut curve = Vec::new();
    let mut deterministic = true;
    for threads in [1usize, 2, 4, 8] {
        let pool = ThreadPool::new(threads);
        let t0 = std::time::Instant::now();
        let hashes = pool.par_map(&seeds, task);
        let secs = t0.elapsed().as_secs_f64();
        deterministic &= hashes == serial;
        let speedup_vs_serial = if secs > 0.0 { serial_secs / secs } else { 0.0 };
        println!(
            "threads {threads:>2}  {:>9.3} ms  speedup vs serial {speedup_vs_serial:>6.2}x",
            secs * 1e3
        );
        let mut point = Json::obj();
        point.set("threads", threads.into());
        point.set("secs", secs.into());
        point.set("speedup_vs_serial", speedup_vs_serial.into());
        curve.push(point);
    }
    let fingerprint = serial
        .iter()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, &v| h.rotate_left(7) ^ v);
    println!(
        "deterministic across thread counts: {deterministic}  (fingerprint {fingerprint:016x})"
    );

    let mut scaling = section();
    scaling.set("tasks", tasks.into());
    scaling.set("lanes", LANES.into());
    scaling.set("per_task_cycles", task_cycles.into());
    scaling.set("available_parallelism", nproc.into());
    scaling.set("serial_secs", serial_secs.into());
    scaling.set("deterministic", deterministic.into());
    scaling.set("fingerprint", format!("{fingerprint:016x}").into());
    scaling.set("curve", Json::Arr(curve));

    let out = ReportFile::new("BENCH_sim.json");
    let write = |section: &str, value: Json| {
        out.merge_or_exit(section, value);
        println!("wrote section {section:?} -> {}", out.path().display());
    };
    write("compiled_vm", compiled_section);
    write("thread_scaling", scaling);

    if !deterministic {
        eprintln!("error: results varied with thread count");
        std::process::exit(1);
    }
    if !certified {
        eprintln!("error: compiled VM diverged from the scalar simulator or was not reproducible");
        std::process::exit(1);
    }
    if widest_vs_scalar < COMPILED_SPEEDUP_FLOOR {
        eprintln!(
            "error: compiled x512 speedup vs scalar {widest_vs_scalar:.1}x \
             below floor {COMPILED_SPEEDUP_FLOOR}x"
        );
        std::process::exit(1);
    }
}
