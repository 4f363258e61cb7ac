//! Kill-and-resume certification for stage memoization, the flow's only
//! resume mechanism.
//!
//! A flow is killed (via an injected panic) right after its retime stage
//! is recorded, then rerun over the same store. The store keeps each
//! entry only as [`stage_data_to_text`] and parses it back on lookup, so
//! every replayed stage crosses the durable encoding a journal would
//! write. The resumed report must be bit-exact against an uninterrupted
//! run — and the resume must actually *skip* the recorded stages, which
//! is proven by arming the phase solver with a numeric fault in the
//! resume configuration: had the ILP stage re-run, the fallback chain
//! would have answered from the greedy rung.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;
use triphase_cells::Library;
use triphase_circuits::pipeline::linear_pipeline;
use triphase_core::{
    run_flow, run_flow_memo, stage_data_from_text, stage_data_to_text, FlowConfig, FlowReport,
    Stage, StageData, StageMemo, StageObservation,
};
use triphase_fault::{Fault, FaultPlan};
use triphase_ilp::{PhaseConfig, SolveRung};
use triphase_netlist::Netlist;
use triphase_pnr::PnrOptions;

/// A stage store holding only the durable text form of each entry.
#[derive(Default)]
struct TextMemo {
    entries: Mutex<BTreeMap<(Stage, u64), String>>,
}

impl TextMemo {
    fn stages(&self) -> Vec<Stage> {
        let entries = self.entries.lock().expect("memo lock");
        entries.keys().map(|&(stage, _)| stage).collect()
    }
}

impl StageMemo for TextMemo {
    fn lookup(&self, stage: Stage, key: u64) -> Option<StageData> {
        let entries = self.entries.lock().expect("memo lock");
        stage_data_from_text(entries.get(&(stage, key))?)
    }

    fn record(&self, stage: Stage, key: u64, data: &StageData) {
        let mut entries = self.entries.lock().expect("memo lock");
        entries.insert((stage, key), stage_data_to_text(data));
    }
}

fn quick_cfg() -> FlowConfig {
    FlowConfig {
        sim_cycles: 48,
        equiv_cycles: 96,
        pnr: PnrOptions {
            moves_per_cell: 4,
            ..PnrOptions::default()
        },
        ..FlowConfig::default()
    }
}

/// A phase solver armed to fail numerically: an `Exact` rung in the
/// resulting report proves the convert stage was replayed, not re-run.
fn armed_phase_cfg() -> PhaseConfig {
    PhaseConfig {
        hook: Some(FaultPlan::new(1).inject("phase.", Fault::Numeric).shared()),
        ..PhaseConfig::default()
    }
}

/// Run the memoized flow, returning the report and the per-stage hits.
fn run_memo(
    nl: &Netlist,
    lib: &Library,
    cfg: &FlowConfig,
    memo: &TextMemo,
) -> (FlowReport, Vec<(Stage, bool)>) {
    let mut seen = Vec::new();
    let report = run_flow_memo(nl, lib, cfg, memo, &mut |o: StageObservation| {
        seen.push((o.stage, o.hit))
    })
    .unwrap();
    (report, seen)
}

fn assert_bit_exact(a: &FlowReport, b: &FlowReport) {
    for (va, vb, name) in [
        (&a.ff, &b.ff, "ff"),
        (&a.ms, &b.ms, "ms"),
        (&a.three_phase, &b.three_phase, "3p"),
    ] {
        assert_eq!(
            va.power.total_mw().to_bits(),
            vb.power.total_mw().to_bits(),
            "{name} total power"
        );
        assert_eq!(
            va.power.clock.total().to_bits(),
            vb.power.clock.total().to_bits(),
            "{name} clock power"
        );
        assert_eq!(va.area_um2.to_bits(), vb.area_um2.to_bits(), "{name} area");
        assert_eq!(va.stats, vb.stats, "{name} stats");
        assert_eq!(
            va.wirelength_um.to_bits(),
            vb.wirelength_um.to_bits(),
            "{name} wirelength"
        );
    }
    assert_eq!(a.ilp_cost, b.ilp_cost);
    assert_eq!(a.ilp_optimal, b.ilp_optimal);
    assert_eq!(a.convert, b.convert);
    assert_eq!(a.cg, b.cg);
    assert_eq!(a.equiv_3p, b.equiv_3p);
    assert_eq!(a.equiv_ms, b.equiv_ms);
}

#[test]
fn kill_after_retime_then_resume_reproduces_bit_exact_report() {
    let lib = Library::synthetic_28nm();
    let nl = linear_pipeline(4, 4, 1, 900.0);
    let memo = TextMemo::default();

    // Reference: uninterrupted run, no memo at all.
    let reference = run_flow(&nl, &lib, &quick_cfg()).unwrap();

    // Crashing run: dies right after the retime stage is recorded.
    let crash_cfg = FlowConfig {
        fault: Some(
            FaultPlan::new(11)
                .inject("flow.stage.retime", Fault::Panic)
                .shared(),
        ),
        ..quick_cfg()
    };
    let crashed = catch_unwind(AssertUnwindSafe(|| {
        run_flow_memo(&nl, &lib, &crash_cfg, &memo, &mut |_| {})
    }));
    assert!(crashed.is_err(), "the injected crash must fire");
    assert_eq!(
        memo.stages(),
        [Stage::Preprocess, Stage::Convert, Stage::Retime],
        "preprocess, convert, and retime must be recorded before the crash"
    );

    // Resume run over the same store, with the phase solver armed.
    let resume_cfg = FlowConfig {
        phase_cfg: armed_phase_cfg(),
        ..quick_cfg()
    };
    let (resumed, seen) = run_memo(&nl, &lib, &resume_cfg, &memo);
    assert_eq!(
        seen,
        [
            (Stage::Preprocess, true),
            (Stage::Convert, true),
            (Stage::Retime, true),
            (Stage::ClockGate, false),
        ]
    );
    assert_eq!(
        resumed.ilp_rung,
        SolveRung::Exact,
        "resume must skip the solved ILP stage (a re-run would have \
         fallen back to the greedy rung under the armed numeric fault)"
    );
    assert_eq!(resumed.ilp_fallbacks, 0);
    assert_bit_exact(&reference, &resumed);
}

#[test]
fn entries_for_an_edited_netlist_are_not_adopted() {
    let lib = Library::synthetic_28nm();
    let nl = linear_pipeline(3, 3, 1, 900.0);
    let memo = TextMemo::default();
    run_memo(&nl, &lib, &quick_cfg(), &memo);

    // Same store, another clock period: every stored stage is stale. The
    // armed numeric fault proves the solver really re-ran.
    let edited = linear_pipeline(3, 3, 1, 950.0);
    let cfg = FlowConfig {
        phase_cfg: armed_phase_cfg(),
        ..quick_cfg()
    };
    let (report, seen) = run_memo(&edited, &lib, &cfg, &memo);
    assert!(
        seen.iter().all(|&(_, hit)| !hit),
        "stale entries must not be adopted: {seen:?}"
    );
    assert_eq!(report.ilp_rung, SolveRung::Greedy);
    assert_eq!(report.equiv_3p, Some(true), "greedy result is still valid");
}

#[test]
fn full_resume_skips_everything_and_stays_bit_exact() {
    // Resume over a *complete* store (all four stages recorded): every
    // transform stage replays, validation re-runs, report identical.
    let lib = Library::synthetic_28nm();
    let nl = linear_pipeline(3, 4, 1, 900.0);
    let memo = TextMemo::default();
    let (first, seen) = run_memo(&nl, &lib, &quick_cfg(), &memo);
    assert!(seen.iter().all(|&(_, hit)| !hit), "{seen:?}");

    let (second, seen) = run_memo(&nl, &lib, &quick_cfg(), &memo);
    assert_eq!(
        seen,
        [
            (Stage::Preprocess, true),
            (Stage::Convert, true),
            (Stage::Retime, true),
            (Stage::ClockGate, true),
        ]
    );
    assert_bit_exact(&first, &second);
    assert_eq!(first.lint.len(), second.lint.len());
}
