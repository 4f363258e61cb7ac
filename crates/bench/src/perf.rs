//! Read-merge-write helpers for the machine-readable perf report
//! `results/BENCH_sim.json`, plus the s5378 simulation fixture and
//! activity fingerprint that `sim_perf` reports and the golden test pins.
//!
//! Several binaries contribute sections to the same file (`sim_perf`
//! writes kernel throughput and thread-scaling curves, `runtime_report`
//! writes the flow runtime decomposition), so each merges its own
//! top-level key and leaves the others intact. A corrupt or missing file
//! is replaced with a fresh object rather than failing the run.

use std::path::{Path, PathBuf};

use triphase_circuits::iscas::{generate_iscas, iscas_profiles};
use triphase_core::{assign_phases, extract_ff_graph, gated_clock_style, to_three_phase};
use triphase_ilp::PhaseConfig;
use triphase_netlist::Netlist;
use triphase_sim::Activity;

use crate::json::Json;
use crate::microbench::Measurement;

/// Environment variable overriding the report directory (default
/// `results/`).
pub const RESULTS_DIR_ENV: &str = "TRIPHASE_RESULTS_DIR";

/// Path of the shared perf report. Without the env override, anchors at
/// the workspace root (nearest ancestor holding `Cargo.lock`) so bins run
/// from the repo root and benches run by cargo from the package directory
/// write the **same** `results/BENCH_sim.json`.
pub fn report_path() -> PathBuf {
    if let Ok(dir) = std::env::var(RESULTS_DIR_ENV) {
        return Path::new(&dir).join("BENCH_sim.json");
    }
    let mut dir = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    loop {
        if dir.join("Cargo.lock").exists() {
            return dir.join("results").join("BENCH_sim.json");
        }
        if !dir.pop() {
            return Path::new("results").join("BENCH_sim.json");
        }
    }
}

/// Merge `section` into the report at `path`: existing top-level keys are
/// preserved, `section` is inserted or replaced, and the file rewritten
/// pretty-printed. Returns the path written.
pub fn merge_section_at(path: &Path, section: &str, value: Json) -> std::io::Result<PathBuf> {
    let mut doc = match std::fs::read_to_string(path) {
        Ok(text) => Json::parse(&text).unwrap_or_else(|_| Json::obj()),
        Err(_) => Json::obj(),
    };
    if !matches!(doc, Json::Obj(_)) {
        doc = Json::obj();
    }
    doc.set(section, value);
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    std::fs::write(path, doc.to_pretty())?;
    Ok(path.to_owned())
}

/// [`merge_section_at`] targeting [`report_path`].
pub fn merge_section(section: &str, value: Json) -> std::io::Result<PathBuf> {
    merge_section_at(&report_path(), section, value)
}

/// JSON record for one [`Measurement`]: name, median/best seconds,
/// sample count, and — for throughput measurements — elements (simulated
/// cycles), ns/element, and elements/sec.
pub fn measurement_json(m: &Measurement) -> Json {
    let mut rec = Json::obj();
    rec.set("name", m.name.as_str().into());
    rec.set("median_secs", m.median_secs.into());
    rec.set("best_secs", m.best_secs.into());
    rec.set("samples", m.samples.into());
    if let Some(elements) = m.elements {
        rec.set("cycles", elements.into());
        rec.set("ns_per_cycle", m.ns_per_element().into());
        rec.set("cycles_per_sec", m.elements_per_sec().into());
    }
    rec
}

/// The s5378 FF design (clock-gated, generator seed 42) and its
/// converted 3-phase twin: the simulation-throughput and fingerprint
/// fixture of `sim_perf`.
///
/// # Panics
///
/// If the registered s5378 profile is missing or conversion fails.
pub fn build_s5378() -> (Netlist, Netlist) {
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
/// fingerprint of a whole simulated trajectory (values feed toggles).
pub fn activity_hash(a: &Activity) -> u64 {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_preserves_other_sections() {
        let dir = std::env::temp_dir().join(format!("triphase-perf-{}", std::process::id()));
        let path = dir.join("BENCH_sim.json");
        let mut a = Json::obj();
        a.set("x", 1u64.into());
        merge_section_at(&path, "alpha", a.clone()).unwrap();
        let mut b = Json::obj();
        b.set("y", 2u64.into());
        merge_section_at(&path, "beta", b.clone()).unwrap();
        let doc = Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(doc.get("alpha"), Some(&a));
        assert_eq!(doc.get("beta"), Some(&b));

        // Corrupt file: replaced, not fatal.
        std::fs::write(&path, "not json").unwrap();
        merge_section_at(&path, "alpha", a.clone()).unwrap();
        let doc = Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(doc.get("alpha"), Some(&a));
        assert_eq!(doc.get("beta"), None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn measurement_json_mirrors_derived_figures() {
        let m = Measurement {
            name: "compiled".into(),
            median_secs: 0.5,
            best_secs: 0.4,
            samples: 5,
            elements: Some(1000),
        };
        let rec = measurement_json(&m);
        assert_eq!(rec.get("cycles").and_then(Json::as_f64), Some(1000.0));
        assert_eq!(
            rec.get("cycles_per_sec").and_then(Json::as_f64),
            Some(m.elements_per_sec())
        );
        assert_eq!(
            rec.get("ns_per_cycle").and_then(Json::as_f64),
            Some(m.ns_per_element())
        );
    }

    #[test]
    fn golden_s5378_activity_fingerprints() {
        // Pinned on the compiled kernel (seed 11, 256 cycles per lane);
        // any change means simulated activity is no longer bit-identical.
        let (ff, three_phase) = build_s5378();
        let fp = |nl: &Netlist, lanes: usize| {
            let sim = triphase_sim::run_random_compiled(nl, 11, 256, lanes).unwrap();
            format!("{:016x}", activity_hash(&sim.activity()))
        };
        assert_eq!(fp(&ff, 64), "502c33ea0324c76c");
        assert_eq!(fp(&ff, 512), "3a1937eee7fae47b");
        assert_eq!(fp(&three_phase, 64), "30a5cacbc005192c");
        assert_eq!(fp(&three_phase, 512), "3e88b4e92909e3c5");
    }
}
