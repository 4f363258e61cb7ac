//! Staged replay of `run_flow`: the same layer calls in the same order,
//! each wrapped in a span, with the three variant evaluations fanned out
//! on the `triphase_par` pool as the flow does.
//!
//! The replay duplicates `run_flow`'s orchestration, so its report is
//! checked against a real `run_flow` of the same design (see
//! [`crate::checks::compare_reports`]): drift between the two fails the
//! run instead of silently timing a different flow.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use triphase_cells::Library;
use triphase_core::{
    apply_ddcg_placed, apply_ddcg_static, apply_m2, assign_phases, assign_phases_weighted,
    extract_ff_graph, gate_p2_common_enable, gated_clock_style, retime_three_phase,
    to_master_slave, to_three_phase, CgReport, DfaPolicy, Drive, EquivPolicy, FlowConfig,
    FlowReport, LintPolicy, VariantResult,
};
use triphase_lint::{LintStage, Linter};
use triphase_netlist::Netlist;

use crate::trace::Tracer;

type R<T> = Result<T, String>;

/// A replayed flow's report plus what the report does not carry.
pub struct Replay {
    pub report: FlowReport,
    /// Variants whose SMO analysis did not converge (their slacks are
    /// stored as negative infinity, as `run_flow` stores them).
    pub nonconverged: usize,
}

fn err(who: &str, e: impl std::fmt::Display) -> String {
    format!("{who}: {e}")
}

/// Replay `run_flow_with(nl, lib, cfg, drive)` under spans; the root
/// span is named `flow` and every stage is a direct child of it.
pub fn replay(
    nl: &Netlist,
    lib: &Library,
    cfg: &FlowConfig,
    drive: &Drive<'_>,
    sim_backend: &'static str,
    tr: &Tracer,
) -> R<Replay> {
    let who = nl.name.as_str();
    let root = tr.span("flow", who, None);
    let rid = Some(root.id());
    let lint = |net: &Netlist, stage: LintStage, out: &mut Vec<triphase_lint::Report>| -> R<()> {
        if cfg.lint == LintPolicy::Off {
            return Ok(());
        }
        let report = tr.time("lint.run", who, rid, || Linter::new().run(net, stage));
        if cfg.lint == LintPolicy::Deny && !report.is_clean() {
            return Err(err(who, format!("lint denied at {stage:?}")));
        }
        out.push(report);
        Ok(())
    };
    let dfa = |name: &'static str,
               run: &dyn Fn() -> triphase_dfa::Result<triphase_dfa::DfaReport>,
               out: &mut Vec<triphase_dfa::DfaReport>|
     -> R<()> {
        if cfg.dfa == DfaPolicy::Off {
            return Ok(());
        }
        let report = tr.time(name, who, rid, run).map_err(|e| err(who, e))?;
        if cfg.dfa == DfaPolicy::Deny && !report.is_clean() {
            return Err(err(who, format!("{name} denied")));
        }
        out.push(report);
        Ok(())
    };

    // Stage 1: input checks and gated-clock preprocessing.
    let (pre, preprocess) = tr.time("core.preprocess", who, rid, || -> R<_> {
        nl.validate().map_err(|e| err(who, e))?;
        if nl.clock.is_none() {
            return Err(err(who, "design has no clock specification"));
        }
        let mut p = nl.clone();
        let rep = gated_clock_style(&mut p, cfg.cg_max_fanout).map_err(|e| err(who, e))?;
        Ok((p.compact(), rep))
    })?;
    let mut lint_reports = Vec::new();
    lint(&pre, LintStage::Preprocess, &mut lint_reports)?;
    let mut dfa_reports = Vec::new();
    dfa(
        "dfa.const",
        &|| triphase_dfa::const_report(&pre, &pre.index(), Some("preprocess")),
        &mut dfa_reports,
    )?;
    let ms_nl = tr
        .time("core.to_master_slave", who, rid, || to_master_slave(&pre))
        .map_err(|e| err(who, e))?;

    let activity_opts = triphase_activity::AnalysisOptions {
        cut_budget: cfg.activity.cut_budget,
        ..triphase_activity::AnalysisOptions::default()
    };
    let static_pre = tr.time("activity.analyze", who, rid, || {
        cfg.activity
            .enabled
            .then(|| triphase_activity::analyze(&pre, &activity_opts).ok())
            .flatten()
            .filter(|m| m.converged)
    });
    let activity_correlation_rate = static_pre.as_ref().map(|m| m.correlation_rate());
    let static_ok = static_pre
        .as_ref()
        .is_some_and(|m| m.correlation_rate() <= cfg.activity.max_correlation_rate);

    // Stage 2: phase assignment and conversion.
    let t0 = Instant::now();
    let a = tr.time("ilp.solve", who, rid, || -> R<_> {
        let idx = pre.index();
        let graph = extract_ff_graph(&pre, &idx).map_err(|e| err(who, e))?;
        Ok(match static_pre.as_ref().filter(|_| static_ok) {
            Some(model) => assign_phases_weighted(&graph, &cfg.phase_cfg, &pre, model),
            None => assign_phases(&graph, &cfg.phase_cfg),
        })
    })?;
    let (mut tp, convert_report) = tr
        .time("core.to_three_phase", who, rid, || to_three_phase(&pre, &a))
        .map_err(|e| err(who, e))?;
    lint(&tp, LintStage::Convert, &mut lint_reports)?;
    let mut equiv_formal = Vec::new();
    let equiv_opts = triphase_equiv::Options::default();
    let formal = |stage: &str,
                  check: &dyn Fn() -> triphase_equiv::Result<triphase_equiv::EquivOutcome>,
                  out: &mut Vec<(String, triphase_equiv::EquivOutcome)>|
     -> R<()> {
        if cfg.equiv == EquivPolicy::Off {
            return Ok(());
        }
        let outcome = tr
            .time("equiv.formal", who, rid, check)
            .map_err(|e| err(who, e))?;
        if cfg.equiv == EquivPolicy::Deny && !outcome.verdict.is_equivalent() {
            return Err(err(who, format!("{stage}: {:?}", outcome.verdict)));
        }
        out.push((stage.to_owned(), outcome));
        Ok(())
    };
    formal(
        "conversion",
        &|| triphase_equiv::check_conversion(&pre, &tp, &equiv_opts),
        &mut equiv_formal,
    )?;

    // Stage 3: modified retiming.
    let mut retime_report = None;
    if cfg.retime {
        let before = (cfg.equiv != EquivPolicy::Off).then(|| tp.clone());
        let (rt, rr) = tr
            .time("core.retime", who, rid, || {
                retime_three_phase(&tp, lib, cfg.retime_target_ratio)
            })
            .map_err(|e| err(who, e))?;
        tp = rt;
        retime_report = Some(rr);
        lint(&tp, LintStage::Retime, &mut lint_reports)?;
        if let Some(before) = before {
            formal(
                "retime",
                &|| triphase_equiv::check_sequential(&before, &tp, &equiv_opts),
                &mut equiv_formal,
            )?;
        }
    }

    // Stage 4: p2 clock gating, with the DDCG trial placement and its
    // activity source as child spans.
    let cg_span = tr.span("core.clockgate", who, rid);
    let cid = Some(cg_span.id());
    let mut cg = CgReport::default();
    if cfg.common_enable_cg {
        let r = gate_p2_common_enable(&mut tp, cfg.cg_max_fanout).map_err(|e| err(who, e))?;
        cg.common_enable_gated = r.common_enable_gated;
        cg.m1_cells = r.m1_cells;
    }
    if cfg.m2 {
        cg.m2_replaced = apply_m2(&mut tp).map_err(|e| err(who, e))?;
    }
    if cfg.ddcg {
        let trial = tr
            .time("pnr.trial_place", who, cid, || {
                triphase_pnr::place_and_route(&tp, lib, &cfg.pnr)
            })
            .map_err(|e| err(who, e))?;
        let static_tp = tr.time("activity.analyze", who, cid, || {
            static_ok
                .then(|| triphase_activity::analyze(&tp, &activity_opts).ok())
                .flatten()
                .filter(|m| {
                    m.converged && m.correlation_rate() <= cfg.activity.max_correlation_rate
                })
        });
        let r = match &static_tp {
            Some(model) => apply_ddcg_static(
                &mut tp,
                model,
                cfg.ddcg_threshold,
                cfg.cg_max_fanout,
                Some(&trial.positions),
            ),
            None => {
                let activity = tr
                    .time("sim.activity", who, cid, || drive(&tp, cfg.sim_cycles))
                    .map_err(|e| err(who, e))?;
                apply_ddcg_placed(
                    &mut tp,
                    &activity,
                    cfg.ddcg_threshold,
                    cfg.cg_max_fanout,
                    Some(&trial.positions),
                )
            }
        }
        .map_err(|e| err(who, e))?;
        cg.ddcg_groups = r.ddcg_groups;
        cg.ddcg_gated = r.ddcg_gated;
    }
    let convert_seconds = (t0.elapsed().as_secs_f64() - a.solve_seconds).max(0.0);
    let tp = tp.compact();
    cg_span.end();
    lint(&tp, LintStage::ClockGate, &mut lint_reports)?;

    let tp_idx = tr.time("core.index", who, rid, || tp.index());
    let c2 = tr
        .time("timing.c2", who, rid, || {
            triphase_timing::check_c2(&tp, lib, &tp_idx)
        })
        .map_err(|e| err(who, e))?;
    if !c2.is_empty() {
        return Err(err(who, format!("{} C2 violations", c2.len())));
    }
    dfa(
        "dfa.const",
        &|| triphase_dfa::const_report(&tp, &tp_idx, Some("clockgate")),
        &mut dfa_reports,
    )?;
    dfa(
        "dfa.reset",
        &|| {
            triphase_dfa::reset_report(
                &pre,
                &tp,
                triphase_dfa::DEFAULT_RESET_CYCLES,
                Some("clockgate"),
            )
        },
        &mut dfa_reports,
    )?;
    dfa(
        "dfa.race",
        &|| triphase_dfa::race_report(&tp, lib, &tp_idx, Some("clockgate")),
        &mut dfa_reports,
    )?;

    let (mut equiv_ms, mut equiv_3p) = (None, None);
    if cfg.equiv_cycles > 0 {
        let warmup = if cfg.retime { 16 } else { 0 };
        let stream = |dut: &Netlist, warmup: u64| {
            tr.time("sim.equiv_stream", who, rid, || {
                triphase_sim::equiv_stream_warmup(&pre, dut, cfg.seed, cfg.equiv_cycles, warmup)
            })
            .map_err(|e| err(who, e))
        };
        equiv_ms = Some(stream(&ms_nl, 0)?.equivalent());
        equiv_3p = Some(stream(&tp, warmup)?.equivalent());
        if equiv_ms == Some(false) || equiv_3p == Some(false) {
            return Err(err(who, "equivalence streaming found a mismatch"));
        }
    }

    // The variant fan-out, as in `run_flow`: three tasks on the pool,
    // results in fixed slots, panics contained per variant.
    let par = tr.span("par.variants", who, rid);
    let pid = Some(par.id());
    let mut variants = [Some(pre), Some(ms_nl), Some(tp)];
    let mut evaluated: [Option<R<(VariantResult, bool)>>; 3] = [None, None, None];
    triphase_par::scope(|s| {
        for (slot, out) in variants.iter_mut().zip(evaluated.iter_mut()) {
            let nl = slot.take().expect("variant present");
            s.spawn(move || {
                let r = catch_unwind(AssertUnwindSafe(|| {
                    let v = tr.span("par.variant", who, pid);
                    evaluate(nl, lib, cfg, drive, tr, Some(v.id()), who)
                }));
                *out = Some(r.unwrap_or_else(|_| Err(err(who, "variant evaluation panicked"))));
            });
        }
    });
    par.end();
    let [ff, ms, three_phase] = evaluated.map(|r| r.expect("scope joined all variants"));
    let (ff, ms, three_phase) = (ff?, ms?, three_phase?);
    let nonconverged = [ff.1, ms.1, three_phase.1].iter().filter(|&&x| x).count();
    root.end();

    Ok(Replay {
        report: FlowReport {
            name: nl.name.clone(),
            ff: ff.0,
            ms: ms.0,
            three_phase: three_phase.0,
            preprocess,
            ilp_cost: a.cost,
            ilp_optimal: a.optimal,
            ilp_seconds: a.solve_seconds,
            ilp_rung: a.rung,
            ilp_status: a.status,
            ilp_fallbacks: a.fallbacks,
            sim_backend,
            activity_source: if static_ok { "static" } else { "measured" },
            activity_correlation_rate,
            convert: convert_report,
            retime: retime_report,
            cg,
            convert_seconds,
            equiv_ms,
            equiv_3p,
            lint: lint_reports,
            equiv_formal,
            dfa: dfa_reports,
        },
        nonconverged,
    })
}

/// One variant's optimization, placement, simulation, power and timing,
/// as the flow's `evaluate` does them. The flag is true when SMO did
/// not converge.
fn evaluate(
    mut nl: Netlist,
    lib: &Library,
    cfg: &FlowConfig,
    drive: &Drive<'_>,
    tr: &Tracer,
    parent: Option<u64>,
    who: &str,
) -> R<(VariantResult, bool)> {
    let nl = tr.time("netlist.opt", who, parent, || {
        triphase_netlist::opt::optimize(&mut nl);
        nl.compact()
    });
    let layout = tr
        .time("pnr.place_route", who, parent, || {
            triphase_pnr::place_and_route(&nl, lib, &cfg.pnr)
        })
        .map_err(|e| err(who, e))?;
    let t0 = Instant::now();
    let activity = tr
        .time("sim.activity", who, parent, || drive(&nl, cfg.sim_cycles))
        .map_err(|e| err(who, e))?;
    let sim_seconds = t0.elapsed().as_secs_f64();
    let power = tr
        .time("power.estimate", who, parent, || {
            triphase_power::estimate_power(&nl, lib, &activity, Some(&layout))
        })
        .map_err(|e| err(who, e))?;
    let timing = tr.time("timing.sta", who, parent, || {
        let idx = nl.index();
        triphase_timing::analyze_smo(&nl, lib, &idx, Some(&layout.net_wire_cap))
    });
    let (setup, hold) = match &timing {
        Ok(r) => (r.worst_setup_slack_ps, r.worst_hold_slack_ps),
        Err(_) => (f64::NEG_INFINITY, f64::NEG_INFINITY),
    };
    let stats = nl.stats();
    let area_um2 = nl.cell_area(lib) + layout.clock_buffer_area();
    Ok((
        VariantResult {
            stats,
            area_um2,
            power,
            clock_sinks: layout.clock_trees.iter().map(|t| t.sinks).sum(),
            clock_buffers: layout.clock_buffers(),
            wirelength_um: layout.total_wirelength_um,
            worst_setup_slack_ps: setup,
            worst_hold_slack_ps: hold,
            pnr_seconds: layout.place_seconds + layout.route_seconds,
            sim_seconds,
            netlist: nl,
        },
        timing.is_err(),
    ))
}
