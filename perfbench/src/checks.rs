//! Output checks that gate every run.

use std::collections::HashMap;

use triphase_core::FlowReport;
use triphase_netlist::{Netlist, SplitMix64};
use triphase_serve::{report_json, strip_timings, Json};

/// Report fields that differ from run to run of the same input on
/// designs with gated clocks. Conversion iterates a std `HashMap` when it
/// re-roots the clock gates, so the 3-phase netlist's cell order, and
/// with it the placement-dependent figures of that variant, change; its
/// cell, register and clock-gate counts and every other stage report do
/// not. A difference here is counted as `core.repro_mismatch`; a
/// difference anywhere else fails the run.
const NONDETERMINISTIC: [(&str, &[&str]); 3] = [
    (
        "three_phase",
        &[
            "wirelength_um",
            "worst_setup_slack_ps",
            "worst_hold_slack_ps",
            "power",
        ],
    ),
    ("power_saving_vs_ff_pct", &[]),
    ("power_saving_vs_ms_pct", &[]),
];

/// Register counts per design from `results/table1.txt`: FF, M-S, 3-P.
pub fn table1() -> Result<HashMap<String, [usize; 3]>, String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../results/table1.txt");
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let mut rows = HashMap::new();
    for line in text.lines() {
        let Some((left, right)) = line.split_once('|') else {
            continue;
        };
        let mut head = left.split_whitespace();
        let (Some(_group), Some(name), None) = (head.next(), head.next(), head.next()) else {
            continue;
        };
        let counts: Vec<usize> = right
            .split_whitespace()
            .take(3)
            .map_while(|v| v.parse().ok())
            .collect();
        if let [ff, ms, tp] = counts[..] {
            rows.insert(name.to_owned(), [ff, ms, tp]);
        }
    }
    if rows.is_empty() {
        return Err(format!("{path} holds no register rows"));
    }
    Ok(rows)
}

/// FF / M-S / 3-P register counts as Table I counts them.
pub fn registers(r: &FlowReport) -> [usize; 3] {
    [r.ff.stats.ffs, r.ms.registers(), r.three_phase.registers()]
}

/// A report's wire tree without wall-clock fields, split into the part
/// that must repeat exactly and the [`NONDETERMINISTIC`] part.
fn split_report(tree: &Json) -> (String, String) {
    let mut exact = tree.clone();
    strip_timings(&mut exact);
    let mut loose = Json::obj();
    if let Json::Obj(fields) = &mut exact {
        for (key, subs) in NONDETERMINISTIC {
            let Some(pos) = fields.iter().position(|(k, _)| k == key) else {
                continue;
            };
            if subs.is_empty() {
                loose.set(key, fields.remove(pos).1);
            } else if let Json::Obj(inner) = &mut fields[pos].1 {
                let (moved, kept) = std::mem::take(inner)
                    .into_iter()
                    .partition(|(k, _)| subs.contains(&k.as_str()));
                *inner = kept;
                loose.set(key, Json::Obj(moved));
            }
        }
    }
    (exact.to_pretty(), loose.to_pretty())
}

/// Compare two report trees: `Err` when the fields that must repeat
/// differ, `Ok(true)` when only the [`NONDETERMINISTIC`] fields differ.
pub fn compare_reports(a: &Json, b: &Json) -> Result<bool, String> {
    let (ea, da) = split_report(a);
    let (eb, db) = split_report(b);
    if ea != eb {
        let line = ea
            .lines()
            .zip(eb.lines())
            .find(|(x, y)| x != y)
            .map_or_else(String::new, |(x, y)| {
                format!(": `{}` vs `{}`", x.trim(), y.trim())
            });
        return Err(format!("deterministic report fields differ{line}"));
    }
    Ok(da != db)
}

/// Direct-flow convenience over [`compare_reports`].
pub fn compare_flow_reports(a: &FlowReport, b: &FlowReport) -> Result<bool, String> {
    compare_reports(&report_json(a), &report_json(b))
}

/// Table I gate: FF / M-S / 3-P register counts equal the row of
/// `results/table1.txt`.
pub fn check_registers(r: &FlowReport, want: &[usize; 3]) -> Result<(), String> {
    let got = registers(r);
    if &got != want {
        return Err(format!(
            "{}: registers FF/M-S/3-P {got:?}, results/table1.txt says {want:?}",
            r.name
        ));
    }
    Ok(())
}

/// The gates every converted design passes: both streaming equivalence
/// verdicts, and an independent scalar-simulator replay of the FF design
/// against the final 3-phase netlist on vectors drawn from `seed`.
pub fn check_flow(
    ff_design: &Netlist,
    r: &FlowReport,
    seed: u64,
    cycles: usize,
) -> Result<(), String> {
    let name = &r.name;
    if r.equiv_ms != Some(true) || r.equiv_3p != Some(true) {
        return Err(format!(
            "{name}: equiv_ms {:?}, equiv_3p {:?}",
            r.equiv_ms, r.equiv_3p
        ));
    }
    let inputs = triphase_sim::data_inputs(ff_design).len();
    let mut rng = SplitMix64::new(seed);
    let vectors: Vec<Vec<bool>> = (0..cycles)
        .map(|_| (0..inputs).map(|_| rng.next_bit()).collect())
        .collect();
    let rep = triphase_sim::replay_vectors(ff_design, &r.three_phase.netlist, &vectors, 16)
        .map_err(|e| format!("{name}: scalar replay: {e}"))?;
    if let Some(m) = rep.mismatch {
        return Err(format!("{name}: scalar replay mismatch {m:?}"));
    }
    Ok(())
}

/// Whether a `done` frame for `report` would parse on the client. A
/// non-converged SMO run stores negative infinity, which the wire writer
/// prints as a bare `-inf`.
pub fn done_frame(report: &FlowReport) -> (String, bool) {
    let text = triphase_serve::proto::done_ok(0, &report.name, report, &[], None).to_pretty();
    let ok = Json::parse(&text).is_ok();
    (text, ok)
}
