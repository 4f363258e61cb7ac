//! FF-to-latch conversion: the 3-phase scheme (paper §IV) and the
//! master-slave baseline.
//!
//! The 3-phase conversion (from a phase [`Assignment`]):
//!
//! - every FF becomes a transparent-high latch on `p1` (`K=1`) or `p3`
//!   (`K=0`) — constraint C1: original positions stay latched;
//! - back-to-back FFs (`G=1`) get an extra `p2` latch at their output;
//!   the `p2` latch drives the FF's *original* output net, so every
//!   consumer (including primary outputs and clock-gate enables) sees the
//!   `p2`-timed value — this is what makes the conversion cycle-exact and
//!   guarantees "no direct path from a `p3` latch to a CG cell";
//! - primary inputs with `G(p)=1` get a `p2` latch on their fan-out;
//! - clock-gating cells are re-rooted from the old clock to `p1`/`p3`;
//!   an ICG serving latches of both phases is duplicated (§IV-B);
//! - the old clock port is removed and a 3-phase [`ClockSpec`] attached.

use crate::error::{Error, Result};
use crate::ffgraph::Assignment;
use std::collections::{BTreeMap, HashMap};
use triphase_netlist::{graph, CellId, CellKind, ClockSpec, Netlist, PortDir, PortId};

/// Statistics of a 3-phase conversion.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConvertReport {
    /// FFs converted to single latches (`G=0`).
    pub singles: usize,
    /// FFs converted to back-to-back latch pairs (`G=1`).
    pub back_to_back: usize,
    /// `p2` latches inserted on primary-input boundaries.
    pub pi_latches: usize,
    /// Clock-gating cells duplicated because they served both phases.
    pub icgs_duplicated: usize,
}

impl ConvertReport {
    /// Total latches in the converted design contributed by conversion.
    pub fn total_latches(&self) -> usize {
        self.singles + 2 * self.back_to_back + self.pi_latches
    }
}

/// Convert a (preprocessed, FF-only) design to 3-phase latches.
///
/// # Errors
///
/// [`Error::BadInput`] if the design has no single-phase clock, contains
/// latches/enabled FFs, or has clock-gate nesting deeper than one level.
pub fn to_three_phase(nl: &Netlist, assignment: &Assignment) -> Result<(Netlist, ConvertReport)> {
    let clock = nl
        .clock
        .as_ref()
        .ok_or_else(|| Error::BadInput("no clock spec".into()))?;
    if clock.phases.len() != 1 {
        return Err(Error::BadInput("expected a single-phase clock".into()));
    }
    let period = clock.period_ps;
    let old_ck_port = clock.phases[0].port;
    let old_ck_name = nl.port(old_ck_port).name.clone();
    let idx = nl.index();

    let mut out = nl.clone();
    let (_, p1n) = out.add_input("p1");
    let (_, p2n) = out.add_input("p2");
    let (_, p3n) = out.add_input("p3");

    let mut report = ConvertReport::default();
    // ICG -> (list of gated FFs by phase). Ordered by ICG id: step 2 adds
    // the duplicate gates in this order, so the 3-phase cell order (and
    // every placement-dependent figure) repeats from run to run.
    let mut icg_groups: BTreeMap<CellId, (Vec<CellId>, Vec<CellId>)> = BTreeMap::new();

    // 1. Replace FFs with latches.
    let ffs: Vec<CellId> = nl
        .cells()
        .filter(|(_, c)| c.kind.is_ff())
        .map(|(id, _)| id)
        .collect();
    if assignment.k.len() != ffs.len() || assignment.g.len() != ffs.len() {
        return Err(Error::BadInput(format!(
            "assignment covers {} (K) / {} (G) FFs but the design has {}",
            assignment.k.len(),
            assignment.g.len(),
            ffs.len()
        )));
    }
    for &ff in &ffs {
        let cell = nl.cell(ff);
        if cell.kind != CellKind::Dff {
            return Err(Error::BadInput(format!(
                "FF {} is enabled; run gated-clock preprocessing first",
                cell.name
            )));
        }
        let k = *assignment
            .k
            .get(&ff)
            .ok_or_else(|| Error::BadInput(format!("FF {} missing from assignment", cell.name)))?;
        let d = cell.pin(0);
        let ck = cell.pin(1);
        let q = cell.output();
        let trace = graph::trace_clock_root(nl, &idx, ck)?;
        let g_net = if trace.gates.is_empty() {
            if k {
                p1n
            } else {
                p3n
            }
        } else {
            if trace.gates.len() > 1 {
                return Err(Error::BadInput(format!(
                    "nested clock gating on FF {}",
                    cell.name
                )));
            }
            let entry = icg_groups.entry(trace.gates[0]).or_default();
            if k {
                entry.0.push(ff);
            } else {
                entry.1.push(ff);
            }
            ck // stays on the (re-rooted or duplicated) gated net for now
        };
        out.replace_cell(ff, CellKind::LatchH, vec![d, g_net, q]);
    }

    // 2. Re-root / duplicate ICGs.
    let mut dup_counter = 0usize;
    for (icg, (p1_ffs, p3_ffs)) in &icg_groups {
        let cell = nl.cell(*icg);
        debug_assert_eq!(cell.kind, CellKind::Icg);
        let en = cell.pin(0);
        let ck_pin = 1;
        match (p1_ffs.is_empty(), p3_ffs.is_empty()) {
            (false, true) => out.set_pin(*icg, ck_pin, p1n),
            (true, false) => out.set_pin(*icg, ck_pin, p3n),
            (false, false) => {
                // Original serves p1; duplicate for p3.
                out.set_pin(*icg, ck_pin, p1n);
                let gck3 = out.add_net(format!("gck3_dup{dup_counter}"));
                out.add_cell(
                    format!("{}_dup{dup_counter}", cell.name),
                    CellKind::Icg,
                    vec![en, p3n, gck3],
                );
                dup_counter += 1;
                report.icgs_duplicated += 1;
                for &ff in p3_ffs {
                    out.set_pin(ff, 1, gck3);
                }
            }
            (true, true) => unreachable!("group created with at least one FF"),
        }
    }

    // 3. Insert p2 latches at back-to-back outputs. The p2 latch takes
    // over the original output net; the leading latch drives a fresh
    // intermediate net.
    let mut p2_counter = 0usize;
    for &ff in &ffs {
        let g = assignment.g[&ff];
        if !g {
            report.singles += 1;
            continue;
        }
        report.back_to_back += 1;
        let q = out.cell(ff).output();
        let qpre = out.add_net(format!("q_pre{p2_counter}"));
        let out_pin = CellKind::LatchH.output_pin();
        out.set_pin(ff, out_pin, qpre);
        out.add_cell(
            format!("lat_p2_{p2_counter}"),
            CellKind::LatchH,
            vec![qpre, p2n, q],
        );
        p2_counter += 1;
    }

    // 4. Insert p2 latches on flagged primary inputs, moving their
    // combinational loads to the latched copy. In port order, like the
    // gates above, so the latches' cell ids repeat from run to run.
    let mut latched: Vec<PortId> = assignment
        .pi_g
        .iter()
        .filter_map(|(&port, &needs)| needs.then_some(port))
        .collect();
    latched.sort();
    for port in latched {
        let n = nl.port(port).net;
        let n2 = out.add_net(format!("pi_lat{}", report.pi_latches));
        out.add_cell(
            format!("lat_pi{}", report.pi_latches),
            CellKind::LatchH,
            vec![n, p2n, n2],
        );
        report.pi_latches += 1;
        for load in idx.loads(n) {
            out.set_pin(load.cell, load.pin, n2);
        }
    }

    // 5. Drop the old clock port and attach the 3-phase spec.
    out.clock = None;
    out.retain_ports(|_, p| !(p.dir == PortDir::Input && p.name == old_ck_name));
    let p1 = out.find_port("p1").expect("p1 port");
    let p2 = out.find_port("p2").expect("p2 port");
    let p3 = out.find_port("p3").expect("p3 port");
    out.clock = Some(ClockSpec::equal_phases(&[p1, p2, p3], period));
    let out = out.compact();
    out.validate()?;
    Ok((out, report))
}

/// Convert a (preprocessed, FF-only) design to the conventional
/// master-slave latch baseline: each FF becomes an active-low master latch
/// plus an active-high slave latch on the same (possibly gated) clock.
///
/// # Errors
///
/// [`Error::BadInput`] on latch/enabled-FF designs.
pub fn to_master_slave(nl: &Netlist) -> Result<Netlist> {
    let mut out = nl.clone();
    let ffs: Vec<CellId> = nl
        .cells()
        .filter(|(_, c)| c.kind.is_ff())
        .map(|(id, _)| id)
        .collect();
    for (counter, &ff) in ffs.iter().enumerate() {
        let cell = nl.cell(ff);
        if cell.kind != CellKind::Dff {
            return Err(Error::BadInput(format!(
                "FF {} is enabled; run gated-clock preprocessing first",
                cell.name
            )));
        }
        let d = cell.pin(0);
        let ck = cell.pin(1);
        let q = cell.output();
        let qm = out.add_net(format!("ms_m{counter}"));
        out.add_cell(
            format!("{}_m", cell.name),
            CellKind::LatchL,
            vec![d, ck, qm],
        );
        out.replace_cell(ff, CellKind::LatchH, vec![qm, ck, q]);
    }
    let out = out.compact();
    out.validate()?;
    Ok(out)
}

/// Classify latches of a converted design by phase index (0 = `p1`,
/// 1 = `p2`, 2 = `p3`), tracing through clock gates.
///
/// # Errors
///
/// Propagates clock-tracing failures.
pub fn latch_phases(nl: &Netlist) -> Result<HashMap<CellId, usize>> {
    let idx = nl.index();
    let phases = triphase_timing::storage_phases(nl, &idx)?;
    Ok(phases)
}

/// Count latches per phase — `[p1, p2, p3]`.
pub fn phase_census(nl: &Netlist) -> Result<[usize; 3]> {
    let phases = latch_phases(nl)?;
    let mut census = [0usize; 3];
    for (c, p) in phases {
        if nl.cell(c).kind.is_latch() && p < 3 {
            census[p] += 1;
        }
    }
    Ok(census)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ffgraph::{assign_phases, extract_ff_graph};
    use crate::preprocess::gated_clock_style;
    use triphase_circuits::iscas::{generate_iscas, iscas_profiles, s27};
    use triphase_circuits::pipeline::linear_pipeline;
    use triphase_ilp::PhaseConfig;
    use triphase_netlist::{Builder, NetId};
    use triphase_sim::equiv_stream;
    use triphase_timing::check_c2;

    fn convert(nl: &Netlist) -> (Netlist, ConvertReport) {
        let idx = nl.index();
        let g = extract_ff_graph(nl, &idx).unwrap();
        let a = assign_phases(&g, &PhaseConfig::default());
        to_three_phase(nl, &a).unwrap()
    }

    #[test]
    fn assignment_length_mismatch_is_bad_input() {
        let nl = linear_pipeline(3, 2, 1, 900.0);
        let idx = nl.index();
        let g = extract_ff_graph(&nl, &idx).unwrap();
        let mut a = assign_phases(&g, &PhaseConfig::default());
        // Drop one FF's K entry: the assignment no longer covers the design.
        let victim = *a.k.keys().next().unwrap();
        a.k.remove(&victim);
        let err = to_three_phase(&nl, &a).unwrap_err();
        assert!(
            matches!(&err, Error::BadInput(m) if m.contains("assignment covers")),
            "{err}"
        );
    }

    #[test]
    fn pipeline_converts_and_is_equivalent() {
        let nl = linear_pipeline(5, 4, 1, 900.0);
        let (tp, report) = convert(&nl);
        let s = tp.stats();
        assert_eq!(s.ffs, 0, "no FFs remain");
        assert_eq!(
            s.latches,
            report.total_latches(),
            "latch census matches the report"
        );
        assert!(report.singles > 0 && report.back_to_back > 0);
        // The headline saving: fewer latches than master-slave (2 per FF).
        assert!(s.latches < 2 * nl.stats().ffs + 5);
        let r = equiv_stream(&nl, &tp, 77, 300).unwrap();
        assert!(r.equivalent(), "{:?}", r.mismatch);
    }

    #[test]
    fn c2_holds_on_converted_designs() {
        let lib = triphase_cells::Library::synthetic_28nm();
        let nl = linear_pipeline(4, 3, 1, 900.0);
        let (tp, _) = convert(&nl);
        let idx = tp.index();
        let v = check_c2(&tp, &lib, &idx).unwrap();
        assert!(v.is_empty(), "C2 violations: {v:?}");
    }

    #[test]
    fn phase_census_consistent() {
        let nl = linear_pipeline(6, 2, 1, 900.0);
        let (tp, report) = convert(&nl);
        let census = phase_census(&tp).unwrap();
        assert_eq!(census[0] + census[2], report.singles + report.back_to_back);
        assert_eq!(census[1], report.back_to_back + report.pi_latches);
    }

    #[test]
    fn s27_converts_and_is_equivalent() {
        let nl = s27(1000.0);
        let (tp, _) = convert(&nl);
        let r = equiv_stream(&nl, &tp, 99, 500).unwrap();
        assert!(r.equivalent(), "{:?}", r.mismatch);
    }

    #[test]
    fn iscas_synthetic_converts_and_is_equivalent() {
        let p = &iscas_profiles()[0]; // s1196-like, has enabled FFs
        let nl = generate_iscas(p, 42);
        let mut pre = nl.clone();
        gated_clock_style(&mut pre, 32).unwrap();
        let (tp, _) = convert(&pre);
        let r = equiv_stream(&nl, &tp, 5, 120).unwrap();
        assert!(r.equivalent(), "{:?}", r.mismatch);
    }

    #[test]
    fn conversion_repeats_exactly_with_split_gates_and_input_latches() {
        let p = iscas_profiles()
            .into_iter()
            .find(|p| p.name == "s5378")
            .unwrap();
        let mut pre = generate_iscas(&p, 42);
        gated_clock_style(&mut pre, 32).unwrap();
        // Each conversion solves its own assignment, as separate flows do.
        let (a, report) = convert(&pre);
        let (b, _) = convert(&pre);
        assert!(report.icgs_duplicated >= 2 && report.pi_latches >= 2);
        assert_eq!(
            triphase_netlist::snapshot::to_text(&a),
            triphase_netlist::snapshot::to_text(&b)
        );
    }

    /// Two enabled FF banks sharing one enable, chained: the ILP will
    /// split them across p1/p3, forcing ICG duplication.
    fn gated_chain() -> Netlist {
        let mut nl = Netlist::new("gch");
        let mut b = Builder::new(&mut nl, "u");
        let (ckp, ck) = b.netlist().add_input("ck");
        let (_, en) = b.netlist().add_input("en");
        let (_, din) = b.netlist().add_input("d");
        let q0 = b.dffen(din, en, ck);
        let x = b.not(q0);
        let q1 = b.dffen(x, en, ck);
        b.netlist().add_output("q", q1);
        nl.clock = Some(triphase_netlist::ClockSpec::single(ckp, 900.0));
        nl
    }

    #[test]
    fn gated_design_converts_with_duplication_and_stays_equivalent() {
        let mut pre = gated_chain();
        gated_clock_style(&mut pre, 32).unwrap();
        let (tp, report) = convert(&pre);
        // q0 -> q1 chain behind one ICG: phases must differ, so the ICG
        // is duplicated.
        assert_eq!(report.icgs_duplicated, 1);
        assert_eq!(tp.stats().clock_gates, 2);
        let golden = gated_chain();
        let r = equiv_stream(&golden, &tp, 31, 400).unwrap();
        assert!(r.equivalent(), "{:?}", r.mismatch);
    }

    #[test]
    fn master_slave_equivalent_and_doubles_latches() {
        let nl = linear_pipeline(4, 4, 1, 900.0);
        let ms = to_master_slave(&nl).unwrap();
        assert_eq!(ms.stats().latches, 2 * nl.stats().ffs);
        assert_eq!(ms.stats().ffs, 0);
        let r = equiv_stream(&nl, &ms, 123, 300).unwrap();
        assert!(r.equivalent(), "{:?}", r.mismatch);
    }

    #[test]
    fn master_slave_with_gating_equivalent() {
        let mut pre = gated_chain();
        gated_clock_style(&mut pre, 32).unwrap();
        let ms = to_master_slave(&pre).unwrap();
        let golden = gated_chain();
        let r = equiv_stream(&golden, &ms, 7, 400).unwrap();
        assert!(r.equivalent(), "{:?}", r.mismatch);
    }

    #[test]
    fn pi_latch_insertion_moves_loads() {
        // One PI feeding a FF that the ILP makes p1-single by adding more
        // structure: PI -> ff0 -> ff1 (ff0 single p1 requires pi latch).
        let mut nl = Netlist::new("pig");
        let mut b = Builder::new(&mut nl, "u");
        let (ckp, ck) = b.netlist().add_input("ck");
        let (_, din) = b.netlist().add_input("d");
        let q0: NetId = b.dff(din, ck);
        let q1 = b.dff(q0, ck);
        b.netlist().add_output("q", q1);
        nl.clock = Some(triphase_netlist::ClockSpec::single(ckp, 900.0));
        let (tp, _report) = convert(&nl);
        // Whatever the optimum chose, behaviour must match.
        let r = equiv_stream(&nl, &tp, 17, 300).unwrap();
        assert!(r.equivalent(), "{:?}", r.mismatch);
    }

    #[test]
    fn old_clock_port_removed() {
        let nl = linear_pipeline(3, 2, 0, 900.0);
        let (tp, _) = convert(&nl);
        assert!(tp.find_port("ck").is_none(), "old clock port dropped");
        assert!(tp.find_port("p1").is_some());
        assert_eq!(tp.clock.as_ref().unwrap().phases.len(), 3);
    }
}
