//! Simulation-backend performance report: scalar vs 64-lane packed vs
//! compiled bytecode VM throughput (with a lane-width sweep W=1/2/4/8),
//! thread-scaling of the work-stealing pool, and determinism checks
//! (results must not depend on the thread count, and the compiled VM
//! must fingerprint-match the packed kernel).
//!
//! Writes the `packed_kernel`, `compiled_vm`, and `thread_scaling`
//! sections of `results/BENCH_sim.json` (see `triphase_bench::perf`);
//! other sections of the file are preserved. `--quick` (or
//! `TRIPHASE_SCALE=quick`) runs a reduced configuration.
//!
//! Exit codes (stable): `0` report written, `1` determinism /
//! certification / speedup-floor check or report write failed, `2`
//! internal error (flow/simulation failure).

use triphase_bench::json::Json;
use triphase_bench::microbench::{samples, time_throughput, Measurement};
use triphase_bench::perf::measurement_json;
use triphase_bench::report::{section, ReportFile};
use triphase_circuits::iscas::{generate_iscas, iscas_profiles};
use triphase_core::{assign_phases, extract_ff_graph, gated_clock_style, to_three_phase};
use triphase_ilp::PhaseConfig;
use triphase_netlist::Netlist;
use triphase_par::ThreadPool;
use triphase_sim::{
    run_random, run_random_compiled, run_random_packed, Activity, CompiledAny, LANES,
};

/// Regression floor for compiled-vs-packed per-cycle throughput at the
/// widest lane count on the smoke circuit. Deliberately conservative
/// (the acceptance target is 3×; CI machines are noisy).
const COMPILED_SPEEDUP_FLOOR: f64 = 1.5;

/// Build the s5378 FF design and its converted 3-phase twin — the same
/// pair the `sim_throughput` bench times.
fn build_s5378() -> (Netlist, Netlist) {
    let profile = iscas_profiles()
        .into_iter()
        .find(|p| p.name == "s5378")
        .expect("s5378 profile");
    let mut ff_design = generate_iscas(&profile, 42);
    gated_clock_style(&mut ff_design, 32).expect("clock gating");
    let idx = ff_design.index();
    let graph = extract_ff_graph(&ff_design, &idx).expect("FF graph");
    let assignment = assign_phases(&graph, &PhaseConfig::default());
    let (latch_design, _) = to_three_phase(&ff_design, &assignment).expect("conversion");
    (ff_design, latch_design)
}

/// FNV-1a over an activity's cycle count and toggle vector: a stable
/// fingerprint for the determinism check.
fn activity_hash(a: &Activity) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |v: u64| {
        for byte in v.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    mix(a.cycles);
    for &t in &a.net_toggles {
        mix(t);
    }
    h
}

/// Time scalar vs packed random simulation of `nl` and return the two
/// measurements plus the packed-over-scalar speedup in cycles/sec.
fn kernel_pair(
    label: &str,
    nl: &Netlist,
    cycles: u64,
    n_samples: usize,
) -> (Measurement, Measurement, f64) {
    let scalar = time_throughput(&format!("{label}/scalar"), n_samples, cycles, || {
        run_random(nl, 1, cycles).expect("scalar run").cycles()
    });
    let packed_cycles = cycles * LANES as u64;
    let packed = time_throughput(
        &format!("{label}/packed x{LANES}"),
        n_samples,
        packed_cycles,
        || {
            run_random_packed(nl, 1, cycles, LANES)
                .expect("packed run")
                .activity()
                .cycles
        },
    );
    let speedup = if packed.ns_per_element() > 0.0 {
        scalar.ns_per_element() / packed.ns_per_element()
    } else {
        0.0
    };
    println!("{label:<44} packed speedup {speedup:>7.1}x");
    (scalar, packed, speedup)
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick")
        || std::env::var("TRIPHASE_SCALE").is_ok_and(|v| v == "quick");
    let cycles: u64 = if quick { 32 } else { 256 };
    let n_samples = samples(5);

    let (ff_design, latch_design) = build_s5378();

    println!("== packed kernel vs scalar (per-lane cycles: {cycles}) ==");
    let mut circuits = Vec::new();
    let mut ff_baseline: Option<(Measurement, Measurement)> = None;
    for (label, nl) in [
        ("s5378/ff_design", &ff_design),
        ("s5378/three_phase", &latch_design),
    ] {
        let (scalar, packed, speedup) = kernel_pair(label, nl, cycles, n_samples);
        let mut rec = Json::obj();
        rec.set("name", label.into());
        rec.set("scalar", measurement_json(&scalar));
        rec.set("packed", measurement_json(&packed));
        rec.set("lanes", LANES.into());
        rec.set("speedup", speedup.into());
        circuits.push(rec);
        if label == "s5378/ff_design" {
            ff_baseline = Some((scalar, packed));
        }
    }
    let (scalar_base, packed_base) = ff_baseline.expect("ff_design measured");
    let mut kernel = section();
    kernel.set("generated_by", "sim_perf".into());
    kernel.set("per_lane_cycles", cycles.into());
    kernel.set("circuits", Json::Arr(circuits));

    // Compiled VM: lane-width sweep W=1/2/4/8 (64..512 streams/pass) on
    // the FF design, per-cycle speedups against both baselines.
    println!("== compiled VM lane sweep (per-lane cycles: {cycles}) ==");
    let mut sweep = Vec::new();
    let mut widest_vs_packed = 0.0f64;
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
        let vs_scalar = scalar_base.ns_per_element() / m.ns_per_element();
        let vs_packed = packed_base.ns_per_element() / m.ns_per_element();
        println!(
            "compiled W={width} ({lanes:>3} streams)   vs scalar {vs_scalar:>8.1}x   vs packed {vs_packed:>6.2}x"
        );
        let mut rec = Json::obj();
        rec.set("width_words", width.into());
        rec.set("lanes", lanes.into());
        rec.set("compiled", measurement_json(&m));
        rec.set("speedup_vs_scalar", vs_scalar.into());
        rec.set("speedup_vs_packed", vs_packed.into());
        sweep.push(rec);
        if width == 8 {
            widest_vs_packed = vs_packed;
            widest_vs_scalar = vs_scalar;
        }
    }

    // Certification: the compiled VM must fingerprint-match the packed
    // kernel (values feed toggles, so matching toggle vectors over both
    // circuits is a deep trajectory check), and its own wide run must be
    // reproducible.
    let mut certified = true;
    let mut cert_fps = Vec::new();
    for (label, nl) in [
        ("s5378/ff_design", &ff_design),
        ("s5378/three_phase", &latch_design),
    ] {
        let p = activity_hash(
            &run_random_packed(nl, 11, cycles, LANES)
                .expect("packed cert run")
                .activity(),
        );
        let c = activity_hash(
            &run_random_compiled(nl, 11, cycles, LANES)
                .expect("compiled cert run")
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
        let ok = p == c && w1 == w2;
        certified &= ok;
        println!(
            "certify {label:<22} packed=={}compiled {:016x}  wide deterministic: {}",
            if p == c { "" } else { "!" },
            c,
            w1 == w2
        );
        let mut rec = Json::obj();
        rec.set("name", label.into());
        rec.set("fingerprint_x64", format!("{c:016x}").into());
        rec.set("fingerprint_x512", format!("{w1:016x}").into());
        rec.set("matches_packed", (p == c).into());
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
    compiled_section.set("lane_sweep", Json::Arr(sweep));
    compiled_section.set("certification", Json::Arr(cert_fps));
    compiled_section.set("certified", certified.into());
    compiled_section.set("speedup_floor_vs_packed", COMPILED_SPEEDUP_FLOOR.into());
    compiled_section.set("widest_speedup_vs_packed", widest_vs_packed.into());
    compiled_section.set("widest_speedup_vs_scalar", widest_vs_scalar.into());
    compiled_section.set("lower_stats", lower);

    // Thread scaling: independent packed activity collections, run first
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
            run_random_packed(&ff_design, seed, task_cycles, LANES).expect("thread-scaling run");
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
    write("packed_kernel", kernel);
    write("compiled_vm", compiled_section);
    write("thread_scaling", scaling);

    if !deterministic {
        eprintln!("error: results varied with thread count");
        std::process::exit(1);
    }
    if !certified {
        eprintln!("error: compiled VM fingerprints diverged from the packed kernel");
        std::process::exit(1);
    }
    if widest_vs_packed < COMPILED_SPEEDUP_FLOOR {
        eprintln!(
            "error: compiled x512 speedup vs packed {widest_vs_packed:.2}x \
             below floor {COMPILED_SPEEDUP_FLOOR}x"
        );
        std::process::exit(1);
    }
}
