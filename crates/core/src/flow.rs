//! The end-to-end design flow (paper §IV-B): preprocessing, ILP phase
//! assignment, conversion, modified retiming, clock gating, P&R,
//! simulation-based validation, and grouped power estimation — for all
//! three design styles (FF, master-slave, 3-phase).

use crate::clockgate::{apply_ddcg_static, apply_m2, gate_p2_common_enable, CgReport};
use crate::convert::{to_master_slave, to_three_phase, ConvertReport};
use crate::error::{Error, Result};
use crate::ffgraph::{assign_phases, assign_phases_weighted, extract_ff_graph};
use crate::preprocess::{gated_clock_style, PreprocessReport};
use crate::retiming::{retime_three_phase, RetimeReport};
use crate::stage::{stage_key, IlpOutcome, Stage};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;
use triphase_cells::Library;
use triphase_fault::{fault_at, injected_panic, Fault, SharedInjector};
use triphase_ilp::{PhaseConfig, SolveRung, Status};
use triphase_lint::{LintStage, Linter};
use triphase_netlist::{Netlist, NetlistStats};
use triphase_pnr::{place_and_route, Layout, PnrOptions};
use triphase_power::{estimate_power, PowerReport};
use triphase_sim::{equiv_stream_warmup, Activity};
use triphase_timing::analyze_smo;

/// Stimulus provider: produces a switching-activity profile for a design
/// variant. The default drives seeded pseudo-random inputs through the
/// compiled multi-lane kernel; CPU benchmarks substitute a closure that
/// pins the workload-select input. `Sync` because the flow evaluates its
/// design variants on the [`triphase_par`] pool concurrently.
pub type Drive<'a> = dyn Fn(&Netlist, u64) -> triphase_sim::Result<Activity> + Sync + 'a;

/// How the per-stage static-analysis checkpoints behave during the flow.
///
/// With [`LintPolicy::Warn`] (the default) or [`LintPolicy::Deny`], the
/// full [`Linter`] registry runs after preprocessing, conversion,
/// retiming, and clock gating; the reports are collected in
/// [`FlowReport::lint`]. `Deny` additionally aborts the flow with
/// [`Error::Lint`] as soon as a checkpoint reports an error-severity
/// finding (warnings never fail a flow).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LintPolicy {
    /// Skip the checkpoints entirely.
    Off,
    /// Run the checkpoints and collect reports; never fail.
    #[default]
    Warn,
    /// Run the checkpoints and fail on any error-severity finding.
    Deny,
}

/// How the formal equivalence checkpoints behave during the flow.
///
/// With [`EquivPolicy::Warn`] or [`EquivPolicy::Deny`], the SAT-based
/// checker ([`triphase_equiv`]) runs after conversion (FF design vs the
/// pristine 3-phase netlist, via the phase-collapsing chain induction)
/// and after retiming (pre- vs post-retiming netlist, via signal
/// correspondence); the outcomes are collected in
/// [`FlowReport::equiv_formal`]. `Deny` additionally aborts the flow
/// with [`Error::Equiv`] when a checkpoint does not end in a proof —
/// including `Unknown` verdicts, so a denied flow certifies every stage.
/// The default is `Off`: the streaming comparison remains the flow's
/// baseline validation and the formal pass is opt-in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EquivPolicy {
    /// Skip the formal checkpoints entirely.
    #[default]
    Off,
    /// Run the checkpoints and collect outcomes; never fail.
    Warn,
    /// Run the checkpoints and fail unless every stage is proven.
    Deny,
}

/// How the semantic dataflow-analysis checkpoints behave during the flow.
///
/// With [`DfaPolicy::Warn`] (the default) or [`DfaPolicy::Deny`], the
/// [`triphase_dfa`] analyses run next to the lint checkpoints: constant /
/// stuck-at propagation on the preprocessed FF design and on the final
/// gated 3-phase netlist, reset-reachability preservation (FF vs 3-phase),
/// and the static min-delay race check on the final netlist. Reports are
/// collected in [`FlowReport::dfa`]; `Deny` additionally aborts the flow
/// with [`Error::Dfa`] on any error-severity finding (warnings never fail
/// a flow, matching [`LintPolicy`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DfaPolicy {
    /// Skip the checkpoints entirely.
    Off,
    /// Run the checkpoints and collect reports; never fail.
    #[default]
    Warn,
    /// Run the checkpoints and fail on any error-severity finding.
    Deny,
}

/// Static switching-activity configuration: whether (and how) the flow
/// derives the ILP objective weights and the DDCG candidate ranking from
/// the zero-simulation static model ([`triphase_activity::analyze`])
/// instead of measured toggle counts.
///
/// The policy is Warn-style: when the analysis fails, does not converge,
/// or flags more than [`ActivityCfg::max_correlation_rate`] of the
/// combinational nets as correlation-afflicted, the flow silently falls
/// back to the measured path and records `"measured"` in
/// [`FlowReport::activity_source`] — it never aborts.
#[derive(Debug, Clone)]
pub struct ActivityCfg {
    /// Use the static model when it is healthy (default `true`).
    pub enabled: bool,
    /// Reconvergence supergate cut budget forwarded to the analyzer.
    pub cut_budget: usize,
    /// Fall back to measured activity when the correlation-flagged
    /// fraction of combinational nets exceeds this rate.
    pub max_correlation_rate: f64,
}

impl Default for ActivityCfg {
    fn default() -> Self {
        ActivityCfg {
            enabled: true,
            cut_budget: triphase_activity::AnalysisOptions::default().cut_budget,
            max_correlation_rate: 0.95,
        }
    }
}

/// Which simulation kernel gathers switching activity in [`run_flow`].
///
/// There is one: the compiled bytecode VM, which simulates up to 512
/// stimulus streams per pass and is certified bit-exact (values and
/// toggle counts) against the scalar reference simulator. The label is
/// part of every report and of the service's report key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SimBackend {
    /// Fused bytecode VM, up to 512 lanes.
    #[default]
    Compiled,
}

impl SimBackend {
    /// Stable label recorded in [`FlowReport::sim_backend`].
    pub fn label(self) -> &'static str {
        match self {
            SimBackend::Compiled => "compiled",
        }
    }

    /// Collect `cycles` total cycles of pseudo-random activity with this
    /// backend, split across up to 512 stimulus streams.
    ///
    /// # Errors
    ///
    /// Simulator construction/driving errors.
    pub fn collect(self, nl: &Netlist, seed: u64, cycles: u64) -> triphase_sim::Result<Activity> {
        match self {
            SimBackend::Compiled => triphase_sim::collect_activity_compiled(nl, seed, cycles),
        }
    }
}

/// Flow configuration.
#[derive(Debug, Clone)]
pub struct FlowConfig {
    /// Master seed (stimulus, P&R).
    pub seed: u64,
    /// Simulation kernel for activity collection (default: compiled).
    pub sim_backend: SimBackend,
    /// Cycles of stimulus for activity/power.
    pub sim_cycles: u64,
    /// Cycles of equivalence streaming (0 = skip validation).
    pub equiv_cycles: u64,
    /// Run the §IV-C modified retiming.
    pub retime: bool,
    /// Retiming target as a fraction of the period (paper: 0.5).
    pub retime_target_ratio: f64,
    /// Apply common-enable `p2` clock gating (M1 cells).
    pub common_enable_cg: bool,
    /// Apply the M2 latch-free ICG rewrite.
    pub m2: bool,
    /// Apply multi-bit DDCG to remaining `p2` latches.
    pub ddcg: bool,
    /// DDCG toggle-rate threshold (toggles/cycle; paper: activity below
    /// 1% of the clock frequency, i.e. 0.02 transitions per cycle).
    pub ddcg_threshold: f64,
    /// Max clock-gate fan-out (paper: 32).
    pub cg_max_fanout: usize,
    /// Place-and-route options.
    pub pnr: PnrOptions,
    /// ILP search budget.
    pub phase_cfg: PhaseConfig,
    /// Static-analysis checkpoint policy.
    pub lint: LintPolicy,
    /// Formal equivalence checkpoint policy.
    pub equiv: EquivPolicy,
    /// Semantic dataflow-analysis checkpoint policy.
    pub dfa: DfaPolicy,
    /// Static switching-activity source policy.
    pub activity: ActivityCfg,
    /// Fault-injection hook for the flow's own sites (`"flow.drive"`,
    /// `"flow.stage.<stage>"`, `"flow.variant.<name>"`). Note the ILP
    /// sites live on [`PhaseConfig::hook`]; `None` in production.
    pub fault: Option<SharedInjector>,
}

impl Default for FlowConfig {
    fn default() -> Self {
        FlowConfig {
            seed: 1,
            sim_backend: SimBackend::default(),
            sim_cycles: 200,
            equiv_cycles: 200,
            retime: true,
            retime_target_ratio: 0.5,
            common_enable_cg: true,
            m2: true,
            ddcg: true,
            ddcg_threshold: 0.02,
            cg_max_fanout: 32,
            pnr: PnrOptions::default(),
            phase_cfg: PhaseConfig::default(),
            lint: LintPolicy::default(),
            equiv: EquivPolicy::default(),
            dfa: DfaPolicy::default(),
            activity: ActivityCfg::default(),
            fault: None,
        }
    }
}

/// Run one lint checkpoint under `policy`, appending the report to
/// `reports` and failing on error findings under [`LintPolicy::Deny`].
fn lint_checkpoint(
    linter: Option<&Linter>,
    policy: LintPolicy,
    nl: &Netlist,
    stage: LintStage,
    reports: &mut Vec<triphase_lint::Report>,
) -> Result<()> {
    let Some(linter) = linter else {
        return Ok(());
    };
    let report = linter.run(nl, stage);
    let deny = policy == LintPolicy::Deny && !report.is_clean();
    if deny {
        return Err(Error::Lint(Box::new(report)));
    }
    reports.push(report);
    Ok(())
}

/// Run one dataflow-analysis checkpoint under `policy`, appending the
/// report to `reports` and failing on error findings under
/// [`DfaPolicy::Deny`].
fn dfa_checkpoint(
    policy: DfaPolicy,
    run: impl FnOnce() -> triphase_dfa::Result<triphase_dfa::DfaReport>,
    reports: &mut Vec<triphase_dfa::DfaReport>,
) -> Result<()> {
    if policy == DfaPolicy::Off {
        return Ok(());
    }
    let report = run().map_err(|e| Error::BadInput(format!("dataflow analysis: {e}")))?;
    if policy == DfaPolicy::Deny && !report.is_clean() {
        return Err(Error::Dfa(Box::new(report)));
    }
    reports.push(report);
    Ok(())
}

/// Run one formal equivalence checkpoint under `policy`, appending the
/// outcome to `outcomes` and failing under [`EquivPolicy::Deny`] unless
/// the stage is proven.
fn equiv_checkpoint(
    policy: EquivPolicy,
    stage: &str,
    check: impl FnOnce() -> triphase_equiv::Result<triphase_equiv::EquivOutcome>,
    outcomes: &mut Vec<(String, triphase_equiv::EquivOutcome)>,
) -> Result<()> {
    if policy == EquivPolicy::Off {
        return Ok(());
    }
    let outcome = check().map_err(|e| Error::Equiv(format!("{stage}: {e}")))?;
    if policy == EquivPolicy::Deny && !outcome.verdict.is_equivalent() {
        return Err(Error::Equiv(format!("{stage}: {:?}", outcome.verdict)));
    }
    outcomes.push((stage.to_owned(), outcome));
    Ok(())
}

/// Evaluation of one design variant after P&R.
#[derive(Debug, Clone)]
pub struct VariantResult {
    /// The final netlist.
    pub netlist: Netlist,
    /// Cell-category counts.
    pub stats: NetlistStats,
    /// Total area (cells + virtual clock buffers), µm².
    pub area_um2: f64,
    /// Grouped power (mW).
    pub power: PowerReport,
    /// Clock-tree sinks across all subtrees.
    pub clock_sinks: usize,
    /// Clock-tree buffers (virtual).
    pub clock_buffers: usize,
    /// Signal wirelength (µm).
    pub wirelength_um: f64,
    /// Worst setup slack from SMO analysis (ps).
    pub worst_setup_slack_ps: f64,
    /// Worst hold slack (ps).
    pub worst_hold_slack_ps: f64,
    /// Place/route runtime (s).
    pub pnr_seconds: f64,
    /// Stimulus simulation runtime (s).
    pub sim_seconds: f64,
}

impl VariantResult {
    /// The paper's "# of Regs" metric.
    pub fn registers(&self) -> usize {
        self.stats.registers()
    }
}

/// Full flow output: the three variants plus stage reports. `Clone` so a
/// caching service can hand out shared copies of a memoized report.
#[derive(Debug, Clone)]
pub struct FlowReport {
    /// Design name.
    pub name: String,
    /// Original FF-based design (after gated-clock preprocessing).
    pub ff: VariantResult,
    /// Master-slave latch baseline.
    pub ms: VariantResult,
    /// Proposed 3-phase design.
    pub three_phase: VariantResult,
    /// Gated-clock preprocessing statistics.
    pub preprocess: PreprocessReport,
    /// ILP objective value (p2 insertions).
    pub ilp_cost: usize,
    /// Whether the ILP was solved to proven optimality.
    pub ilp_optimal: bool,
    /// ILP runtime (s) — the paper reports this is a tiny flow fraction.
    pub ilp_seconds: f64,
    /// Which rung of the solver fallback chain answered (ILP → exact →
    /// greedy).
    pub ilp_rung: SolveRung,
    /// Solver termination status; budget exhaustion is distinguishable
    /// ([`Status::NodeLimit`] / [`Status::TimeLimit`]).
    pub ilp_status: Status,
    /// Rungs that failed before `ilp_rung` produced the answer.
    pub ilp_fallbacks: usize,
    /// Simulation kernel that gathered measured activity:
    /// [`SimBackend::label`] for [`run_flow`], `"custom"` when a caller
    /// supplied its own drive via [`run_flow_with`].
    pub sim_backend: &'static str,
    /// Activity source that drove the ILP objective weights and the DDCG
    /// candidate ranking: `"static"` (zero-simulation model) or
    /// `"measured"` (simulation toggle counts, including every fallback
    /// case and [`ActivityCfg::enabled`] `= false`).
    pub activity_source: &'static str,
    /// Correlation-flagged fraction of combinational nets reported by
    /// the static model on the preprocessed design (`None` when the
    /// analysis was disabled or failed).
    pub activity_correlation_rate: Option<f64>,
    /// Conversion statistics.
    pub convert: ConvertReport,
    /// Retiming statistics (if run).
    pub retime: Option<RetimeReport>,
    /// Clock-gating statistics (common-enable + DDCG merged).
    pub cg: CgReport,
    /// Conversion + retime + CG runtime (s).
    pub convert_seconds: f64,
    /// FF vs M-S equivalence (None when validation skipped).
    pub equiv_ms: Option<bool>,
    /// FF vs 3-phase equivalence.
    pub equiv_3p: Option<bool>,
    /// Per-stage lint reports (empty when [`FlowConfig::lint`] is
    /// [`LintPolicy::Off`]), in checkpoint order: preprocess, convert,
    /// retime (if run), clockgate.
    pub lint: Vec<triphase_lint::Report>,
    /// Formal equivalence outcomes per stage (empty when
    /// [`FlowConfig::equiv`] is [`EquivPolicy::Off`]), in checkpoint
    /// order: `"conversion"` (FF vs pristine 3-phase), `"retime"`
    /// (pre- vs post-retiming, if retiming ran).
    pub equiv_formal: Vec<(String, triphase_equiv::EquivOutcome)>,
    /// Dataflow-analysis reports (empty when [`FlowConfig::dfa`] is
    /// [`DfaPolicy::Off`]), in checkpoint order: `const@preprocess`,
    /// `const@clockgate`, `reset@clockgate` (FF vs final 3-phase
    /// reset-initialization preservation), `race@clockgate`.
    pub dfa: Vec<triphase_dfa::DfaReport>,
}

impl FlowReport {
    /// Register saving of 3-phase vs 2×FF, percent (Table I convention).
    pub fn reg_saving_vs_2ff(&self) -> f64 {
        let base = 2.0 * self.ff.stats.ffs as f64;
        triphase_power::percent_saving(base, self.three_phase.registers() as f64)
    }

    /// Register saving of 3-phase vs master-slave, percent.
    pub fn reg_saving_vs_ms(&self) -> f64 {
        triphase_power::percent_saving(
            self.ms.registers() as f64,
            self.three_phase.registers() as f64,
        )
    }

    /// Total-power saving of 3-phase vs FF, percent (Table II).
    pub fn power_saving_vs_ff(&self) -> f64 {
        triphase_power::percent_saving(self.ff.power.total_mw(), self.three_phase.power.total_mw())
    }

    /// Total-power saving of 3-phase vs M-S, percent.
    pub fn power_saving_vs_ms(&self) -> f64 {
        triphase_power::percent_saving(self.ms.power.total_mw(), self.three_phase.power.total_mw())
    }
}

/// Run the full three-variant flow with pseudo-random stimulus.
///
/// Activity is gathered with [`FlowConfig::sim_backend`] (the compiled
/// bytecode VM: `sim_cycles` total cycles split across up to 512
/// independent stimulus lanes, of which lane 0 replays the historical
/// single-stream sequence for `seed`).
///
/// # Errors
///
/// Propagates stage failures; [`Error::ValidationFailed`] if constraint
/// C2 is violated or equivalence streaming finds a mismatch.
pub fn run_flow(nl: &Netlist, lib: &Library, cfg: &FlowConfig) -> Result<FlowReport> {
    let seed = cfg.seed;
    let backend = cfg.sim_backend;
    run_flow_inner(
        nl,
        lib,
        cfg,
        &move |n: &Netlist, cycles: u64| backend.collect(n, seed, cycles),
        backend.label(),
        None,
        None,
    )
}

/// [`run_flow`] with custom stimulus (e.g. CPU workload selection).
/// [`FlowReport::sim_backend`] records `"custom"`.
///
/// # Errors
///
/// See [`run_flow`].
pub fn run_flow_with(
    nl: &Netlist,
    lib: &Library,
    cfg: &FlowConfig,
    drive: &Drive<'_>,
) -> Result<FlowReport> {
    // Custom stimulus is opaque to the memoization keys, so this entry
    // point never consults a stage cache.
    run_flow_inner(nl, lib, cfg, drive, "custom", None, None)
}

/// The artifacts one flow stage produces, as stored in (and replayed
/// from) a [`StageMemo`]. Each variant carries exactly what the flow
/// would have computed fresh: the stage's output netlist plus its report
/// scalars, so a memo hit is indistinguishable from a fresh computation.
#[derive(Debug, Clone)]
pub enum StageData {
    /// Gated-clock preprocessing: the `pre` netlist and its report.
    Preprocess(Netlist, PreprocessReport),
    /// Phase assignment + conversion.
    Convert {
        /// Solver summary (cost, rung, status, solve seconds).
        ilp: IlpOutcome,
        /// The pristine 3-phase netlist.
        netlist: Netlist,
        /// Conversion statistics.
        report: ConvertReport,
    },
    /// Modified retiming: the retimed netlist and its report.
    Retime(Netlist, RetimeReport),
    /// Clock gating: the final netlist, the merged gating report, and
    /// the conversion-seconds figure the original run measured.
    ClockGate(Netlist, CgReport, f64),
}

impl StageData {
    /// Which stage this data belongs to.
    pub fn stage(&self) -> Stage {
        match self {
            StageData::Preprocess(..) => Stage::Preprocess,
            StageData::Convert { .. } => Stage::Convert,
            StageData::Retime(..) => Stage::Retime,
            StageData::ClockGate(..) => Stage::ClockGate,
        }
    }
}

/// A stage-result cache consulted by [`run_flow_memo`].
///
/// Keys come from [`crate::stage_key`]: the stage's input netlist
/// snapshot plus the configuration fields that stage reads. The flow
/// looks a stage up before computing it and records every freshly
/// computed stage; a hit whose [`StageData`] variant does not match the
/// requested stage is treated as a miss. `Sync` because a server shares
/// one store across its worker threads.
pub trait StageMemo: Sync {
    /// Return the cached artifacts for `(stage, key)`, if any.
    fn lookup(&self, stage: Stage, key: u64) -> Option<StageData>;
    /// Store freshly computed artifacts under `(stage, key)`.
    fn record(&self, stage: Stage, key: u64, data: &StageData);
}

/// One per-stage cache-provenance event streamed by [`run_flow_memo`],
/// in stage execution order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageObservation {
    /// The stage that just resolved.
    pub stage: Stage,
    /// Its memoization key ([`crate::stage_key`]).
    pub key: u64,
    /// `true` when the stage was replayed from the memo instead of
    /// computed fresh.
    pub hit: bool,
}

/// [`run_flow`] with a stage-result cache and a per-stage provenance
/// observer — the service entry point for memoized incremental
/// conversion.
///
/// Before computing each of the four memoized stages the flow asks
/// `memo` for the stage's key; on a hit the cached netlist + report are
/// adopted verbatim and the stage is skipped, on a miss the stage runs
/// and its artifacts are recorded. Because the lookup is threaded
/// through the *same* `run_flow` body (lint/equiv/dfa checkpoints,
/// validation, and variant evaluation all still run), a replayed flow
/// returns a [`FlowReport`] bit-identical to an uninterrupted run in
/// everything but wall-clock timings. `observe` receives one
/// [`StageObservation`] per executed stage, in order, before that
/// stage's artifacts are recorded.
///
/// This is the flow's only resume mechanism. A fresh stage is recorded
/// before its `flow.stage.<stage>` crash site fires, so a flow killed
/// after stage N, rerun over a memo whose store outlived the crash
/// (`triphase-serve`'s fsync'd journal, or any store that keeps
/// [`crate::stage_data_to_text`] entries), replays stages 1..=N and
/// computes only the rest.
///
/// # Errors
///
/// See [`run_flow`].
pub fn run_flow_memo(
    nl: &Netlist,
    lib: &Library,
    cfg: &FlowConfig,
    memo: &dyn StageMemo,
    observe: &mut dyn FnMut(StageObservation),
) -> Result<FlowReport> {
    let seed = cfg.seed;
    let backend = cfg.sim_backend;
    run_flow_inner(
        nl,
        lib,
        cfg,
        &move |n: &Netlist, cycles: u64| backend.collect(n, seed, cycles),
        backend.label(),
        Some(memo),
        Some(observe),
    )
}

fn run_flow_inner(
    nl: &Netlist,
    lib: &Library,
    cfg: &FlowConfig,
    drive: &Drive<'_>,
    sim_backend: &'static str,
    memo: Option<&dyn StageMemo>,
    mut observe: Option<&mut dyn FnMut(StageObservation)>,
) -> Result<FlowReport> {
    // Input hardening: malformed or adversarial netlists become typed
    // errors before any stage touches them.
    nl.validate()?;
    if nl.clock.is_none() {
        return Err(Error::BadInput("design has no clock specification".into()));
    }

    // Fault site "flow.drive": EmptyActivity forces a zero-cycle
    // simulation, which downstream toggle-rate consumers must surface as
    // a typed error rather than silently-zero power numbers.
    let inner_drive = drive;
    let wrapped_drive = move |n: &Netlist, cycles: u64| match fault_at(&cfg.fault, "flow.drive") {
        Some(Fault::Panic) => injected_panic("flow.drive"),
        Some(Fault::EmptyActivity) => inner_drive(n, 0),
        _ => inner_drive(n, cycles),
    };
    let drive: &Drive<'_> = &wrapped_drive;

    // Stage memoization keys serialize the stage's input netlist, so
    // they are only computed when someone consumes them (a memo store or
    // a provenance observer).
    let keyed = memo.is_some() || observe.is_some();
    let memo_get = |stage: Stage, key: Option<u64>| -> Option<StageData> {
        let data = memo?.lookup(stage, key?)?;
        // A store returning the wrong variant is treated as a miss.
        (data.stage() == stage).then_some(data)
    };
    // Settle one stage: report its provenance to the observer, then —
    // only when it was freshly computed — record its artifacts in the
    // memo store and honor the stage's injected-crash site (the worst
    // place to die for an unprotected flow: artifacts just became
    // durable). Replayed stages skip both, which is what lets a
    // resubmitted job sail past a fault that killed its first run. The
    // order is load-bearing: an observer that aborts at stage N knows
    // exactly stages 1..N-1 are recorded, and a flow killed at a stage's
    // crash site finds that stage recorded on resume.
    let mut settle = |stage: Stage, key: Option<u64>, fresh: bool, data: &dyn Fn() -> StageData| {
        if let (Some(o), Some(key)) = (observe.as_mut(), key) {
            o(StageObservation {
                stage,
                key,
                hit: !fresh,
            });
        }
        if !fresh {
            return;
        }
        if let (Some(m), Some(key)) = (memo, key) {
            m.record(stage, key, &data());
        }
        let site = format!("flow.stage.{}", stage.name());
        if matches!(fault_at(&cfg.fault, &site), Some(Fault::Panic)) {
            injected_panic(&site);
        }
    };

    // Lint and formal-equivalence checkpoints always re-run, even over
    // replayed stages: they are cheap, deterministic functions of the
    // stage netlists, so a replayed report carries the same evidence.
    let linter = (cfg.lint != LintPolicy::Off).then(Linter::new);
    let mut lint_reports = Vec::new();

    // Stage 1 — shared preprocessing: the FF baseline also uses gated
    // clocks (the paper lets the tool pick the best CG style for every
    // variant).
    let k_pre = keyed.then(|| stage_key(Stage::Preprocess, nl, cfg, 0));
    let (pre, preprocess, pre_fresh) = match memo_get(Stage::Preprocess, k_pre) {
        Some(StageData::Preprocess(p, rep)) => (p, rep, false),
        _ => {
            let mut p = nl.clone();
            let rep = gated_clock_style(&mut p, cfg.cg_max_fanout)?;
            (p.compact(), rep, true)
        }
    };
    settle(Stage::Preprocess, k_pre, pre_fresh, &|| {
        StageData::Preprocess(pre.clone(), preprocess.clone())
    });
    lint_checkpoint(
        linter.as_ref(),
        cfg.lint,
        &pre,
        LintStage::Preprocess,
        &mut lint_reports,
    )?;
    // Semantic checkpoint: constness on the source design (stuck state
    // and dead clock gates are input defects, caught before conversion).
    let mut dfa_reports = Vec::new();
    dfa_checkpoint(
        cfg.dfa,
        || triphase_dfa::const_report(&pre, &pre.index(), Some("preprocess")),
        &mut dfa_reports,
    )?;

    // Master-slave baseline (cheap; recomputed even when stages replay).
    let ms_nl = to_master_slave(&pre)?;

    // Static switching-activity model on the preprocessed design. Like
    // the lint checkpoints, it is a cheap deterministic function of the
    // stage netlist and re-runs even over replayed stages so the report
    // carries the same provenance either way.
    let activity_opts = triphase_activity::AnalysisOptions {
        cut_budget: cfg.activity.cut_budget,
        ..triphase_activity::AnalysisOptions::default()
    };
    let static_pre = (cfg.activity.enabled)
        .then(|| triphase_activity::analyze(&pre, &activity_opts).ok())
        .flatten()
        .filter(|m| m.converged);
    let activity_correlation_rate = static_pre.as_ref().map(|m| m.correlation_rate());
    let static_ok = static_pre
        .as_ref()
        .is_some_and(|m| m.correlation_rate() <= cfg.activity.max_correlation_rate);
    let activity_source = if static_ok { "static" } else { "measured" };

    // Stage 2 — ILP phase assignment + conversion.
    let t0 = Instant::now();
    let k_conv = keyed.then(|| stage_key(Stage::Convert, &pre, cfg, 0));
    let (ilp, mut tp, convert_report, ilp_fresh) = match memo_get(Stage::Convert, k_conv) {
        Some(StageData::Convert {
            ilp,
            netlist,
            report,
        }) => (ilp, netlist, report, false),
        _ => {
            let idx = pre.index();
            let graph = extract_ff_graph(&pre, &idx)?;
            let a = match static_pre.as_ref().filter(|_| static_ok) {
                Some(model) => assign_phases_weighted(&graph, &cfg.phase_cfg, &pre, model),
                None => assign_phases(&graph, &cfg.phase_cfg),
            };
            let ilp = IlpOutcome {
                cost: a.cost,
                optimal: a.optimal,
                seconds: a.solve_seconds,
                rung: a.rung,
                status: a.status,
                fallbacks: a.fallbacks,
            };
            let (tp, cr) = to_three_phase(&pre, &a)?;
            (ilp, tp, cr, true)
        }
    };
    settle(Stage::Convert, k_conv, ilp_fresh, &|| StageData::Convert {
        ilp: ilp.clone(),
        netlist: tp.clone(),
        report: convert_report,
    });
    lint_checkpoint(
        linter.as_ref(),
        cfg.lint,
        &tp,
        LintStage::Convert,
        &mut lint_reports,
    )?;
    // Formal conversion proof runs on the pristine 3-phase netlist,
    // before retiming and clock gating rewrite it.
    let mut equiv_formal = Vec::new();
    let equiv_opts = triphase_equiv::Options::default();
    equiv_checkpoint(
        cfg.equiv,
        "conversion",
        || triphase_equiv::check_conversion(&pre, &tp, &equiv_opts),
        &mut equiv_formal,
    )?;

    // Stage 3 — modified retiming.
    let mut retime_report = None;
    if cfg.retime {
        let before = (cfg.equiv != EquivPolicy::Off).then(|| tp.clone());
        let k_rt = keyed.then(|| stage_key(Stage::Retime, &tp, cfg, 0));
        let (rt, rr, rt_fresh) = match memo_get(Stage::Retime, k_rt) {
            Some(StageData::Retime(rt, rr)) => (rt, rr, false),
            _ => {
                let (rt, rr) = retime_three_phase(&tp, lib, cfg.retime_target_ratio)?;
                (rt, rr, true)
            }
        };
        tp = rt;
        settle(Stage::Retime, k_rt, rt_fresh, &|| {
            StageData::Retime(tp.clone(), rr.clone())
        });
        retime_report = Some(rr);
        lint_checkpoint(
            linter.as_ref(),
            cfg.lint,
            &tp,
            LintStage::Retime,
            &mut lint_reports,
        )?;
        if let Some(before) = before {
            equiv_checkpoint(
                cfg.equiv,
                "retime",
                || triphase_equiv::check_sequential(&before, &tp, &equiv_opts),
                &mut equiv_formal,
            )?;
        }
    }

    // Stage 4 — p2 clock gating. The key folds in the flow's `static_ok`
    // decision bit: it is computed on the *preprocessed* netlist, so two
    // submissions whose gating inputs match but whose activity decisions
    // differ must not share cache entries.
    let k_cg = keyed.then(|| stage_key(Stage::ClockGate, &tp, cfg, u64::from(static_ok)));
    let (tp, cg, convert_seconds, cg_fresh) = match memo_get(Stage::ClockGate, k_cg) {
        Some(StageData::ClockGate(gated, cg, secs)) => (gated, cg, secs, false),
        _ => {
            let mut cg = CgReport::default();
            if cfg.common_enable_cg {
                let r = gate_p2_common_enable(&mut tp, cfg.cg_max_fanout)?;
                cg.common_enable_gated = r.common_enable_gated;
                cg.m1_cells = r.m1_cells;
            }
            if cfg.m2 {
                cg.m2_replaced = apply_m2(&mut tp)?;
            }
            if cfg.ddcg {
                // Trial placement so DDCG groups can be formed spatially
                // (each gated subtree must stay compact).
                let trial = place_and_route(&tp, lib, &cfg.pnr)?;
                // Zero-simulation candidate ranking from the static
                // model, re-analyzed on the converted netlist; same
                // Warn-style fallback to a measured profile.
                let static_tp = (static_ok)
                    .then(|| triphase_activity::analyze(&tp, &activity_opts).ok())
                    .flatten()
                    .filter(|m| {
                        m.converged && m.correlation_rate() <= cfg.activity.max_correlation_rate
                    });
                let r = match &static_tp {
                    Some(model) => apply_ddcg_static(
                        &mut tp,
                        model,
                        cfg.ddcg_threshold,
                        cfg.cg_max_fanout,
                        Some(&trial.positions),
                    )?,
                    None => {
                        let activity = drive(&tp, cfg.sim_cycles)?;
                        crate::clockgate::apply_ddcg_placed(
                            &mut tp,
                            &activity,
                            cfg.ddcg_threshold,
                            cfg.cg_max_fanout,
                            Some(&trial.positions),
                        )?
                    }
                };
                cg.ddcg_groups = r.ddcg_groups;
                cg.ddcg_gated = r.ddcg_gated;
            }
            // A replayed convert stage did its solving in an earlier run;
            // only freshly spent ILP time is subtracted from this run's
            // elapsed conversion time.
            let ilp_in_elapsed = if ilp_fresh { ilp.seconds } else { 0.0 };
            let secs = (t0.elapsed().as_secs_f64() - ilp_in_elapsed).max(0.0);
            (tp.compact(), cg, secs, true)
        }
    };
    settle(Stage::ClockGate, k_cg, cg_fresh, &|| {
        StageData::ClockGate(tp.clone(), cg, convert_seconds)
    });
    lint_checkpoint(
        linter.as_ref(),
        cfg.lint,
        &tp,
        LintStage::ClockGate,
        &mut lint_reports,
    )?;
    let ilp_seconds = ilp.seconds;

    // Constraint C2 must hold structurally.
    let tp_idx = tp.index();
    let c2 = triphase_timing::check_c2(&tp, lib, &tp_idx)?;
    if !c2.is_empty() {
        return Err(Error::ValidationFailed(format!(
            "{} C2 violations (co-transparent adjacent latches)",
            c2.len()
        )));
    }

    // Semantic checkpoints on the final gated 3-phase netlist: constness
    // (clock gating just introduced the enables worth checking),
    // reset-initialization preservation against the FF source, and the
    // static min-delay race check across the latch windows.
    dfa_checkpoint(
        cfg.dfa,
        || triphase_dfa::const_report(&tp, &tp_idx, Some("clockgate")),
        &mut dfa_reports,
    )?;
    dfa_checkpoint(
        cfg.dfa,
        || {
            triphase_dfa::reset_report(
                &pre,
                &tp,
                triphase_dfa::DEFAULT_RESET_CYCLES,
                Some("clockgate"),
            )
        },
        &mut dfa_reports,
    )?;
    dfa_checkpoint(
        cfg.dfa,
        || triphase_dfa::race_report(&tp, lib, &tp_idx, Some("clockgate")),
        &mut dfa_reports,
    )?;

    // Equivalence validation (the paper's output-stream comparison).
    let (mut equiv_ms, mut equiv_3p) = (None, None);
    if cfg.equiv_cycles > 0 {
        let warmup = if cfg.retime { 16 } else { 0 };
        let r = equiv_stream_warmup(&pre, &ms_nl, cfg.seed, cfg.equiv_cycles, 0)?;
        equiv_ms = Some(r.equivalent());
        let r3 = equiv_stream_warmup(&pre, &tp, cfg.seed, cfg.equiv_cycles, warmup)?;
        equiv_3p = Some(r3.equivalent());
        if equiv_ms == Some(false) {
            return Err(Error::ValidationFailed("M-S variant diverged".into()));
        }
        if equiv_3p == Some(false) {
            return Err(Error::ValidationFailed(format!(
                "3-phase variant diverged: {:?}",
                r3.mismatch
            )));
        }
    }

    // The three variant evaluations (P&R + simulation + power) are
    // independent — fan them out on the work-stealing pool. Results land
    // in fixed slots, so the report is identical at any thread count. A
    // panicking evaluation (a bug, or an injected fault) is contained
    // here: it becomes a typed `Error::Panic` for its own variant and
    // never unwinds through — or poisons — the shared pool.
    const VARIANT_NAMES: [&str; 3] = ["ff", "ms", "3p"];
    let mut variants = [Some(pre), Some(ms_nl), Some(tp)];
    let mut evaluated: [Option<Result<VariantResult>>; 3] = [None, None, None];
    triphase_par::scope(|s| {
        for ((slot, out), vname) in variants
            .iter_mut()
            .zip(evaluated.iter_mut())
            .zip(VARIANT_NAMES)
        {
            let nl = slot.take().expect("variant present");
            let fault = &cfg.fault;
            s.spawn(move || {
                let site = format!("flow.variant.{vname}");
                let r = catch_unwind(AssertUnwindSafe(|| {
                    if matches!(fault_at(fault, &site), Some(Fault::Panic)) {
                        injected_panic(&site);
                    }
                    evaluate(nl, lib, cfg, drive)
                }));
                *out = Some(r.unwrap_or_else(|payload| Err(Error::from_panic(&site, payload))));
            });
        }
    });
    let [ff, ms, three_phase] = evaluated.map(|r| r.expect("scope joined all variants"));
    let (ff, ms, three_phase) = (ff?, ms?, three_phase?);

    Ok(FlowReport {
        name: nl.name.clone(),
        ff,
        ms,
        three_phase,
        preprocess,
        ilp_cost: ilp.cost,
        ilp_optimal: ilp.optimal,
        ilp_seconds,
        ilp_rung: ilp.rung,
        ilp_status: ilp.status,
        ilp_fallbacks: ilp.fallbacks,
        sim_backend,
        activity_source,
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
    })
}

/// Place, simulate, and estimate power for one variant.
fn evaluate(
    mut nl: Netlist,
    lib: &Library,
    cfg: &FlowConfig,
    drive: &Drive<'_>,
) -> Result<VariantResult> {
    // Technology-independent cleanup (constant folding, dead logic,
    // buffer sweep) — the paper's post-retiming re-optimization, applied
    // to every variant equally.
    triphase_netlist::opt::optimize(&mut nl);
    let nl = nl.compact();
    let layout: Layout = place_and_route(&nl, lib, &cfg.pnr)?;
    let t0 = Instant::now();
    let activity = drive(&nl, cfg.sim_cycles)?;
    let sim_seconds = t0.elapsed().as_secs_f64();
    let power = estimate_power(&nl, lib, &activity, Some(&layout))?;
    let idx = nl.index();
    let timing = analyze_smo(&nl, lib, &idx, Some(&layout.net_wire_cap));
    let (setup, hold) = match &timing {
        Ok(r) => (r.worst_setup_slack_ps, r.worst_hold_slack_ps),
        Err(_) => (f64::NEG_INFINITY, f64::NEG_INFINITY),
    };
    let stats = nl.stats();
    let area_um2 = nl.cell_area(lib) + layout.clock_buffer_area();
    Ok(VariantResult {
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
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use triphase_circuits::iscas::{generate_iscas, IscasProfile};
    use triphase_circuits::pipeline::linear_pipeline;

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

    #[test]
    fn pipeline_flow_end_to_end() {
        let lib = Library::synthetic_28nm();
        let nl = linear_pipeline(5, 6, 2, 900.0);
        let report = run_flow(&nl, &lib, &quick_cfg()).unwrap();
        assert_eq!(report.equiv_ms, Some(true));
        assert_eq!(report.equiv_3p, Some(true));
        // Headline shape: fewer regs than M-S, register saving vs 2×FF.
        assert!(report.three_phase.registers() < report.ms.registers());
        assert!(report.reg_saving_vs_2ff() > 0.0);
        assert!(report.reg_saving_vs_ms() > 0.0);
        // Without enables to gate, 3-phase clock power lands near the FF
        // baseline (the paper itself reports negative clock savings on
        // several rows): latch pins are cheaper but there are 1.5x more
        // sinks on three trees.
        assert!(
            report.three_phase.power.clock.total() < report.ff.power.clock.total() * 1.4,
            "3P clock {} vs FF clock {}",
            report.three_phase.power.clock.total(),
            report.ff.power.clock.total()
        );
        // Master-slave is strictly worse on clock power (2x full-cap sinks).
        assert!(report.ms.power.clock.total() > report.three_phase.power.clock.total());
        assert!(report.ilp_optimal);
        assert!(report.ilp_seconds < 5.0);
    }

    #[test]
    fn control_dominated_design_shows_no_reg_benefit() {
        // All-feedback profile (the s1488 observation): every FF is
        // back-to-back, so 3-phase uses as many latches as M-S.
        let lib = Library::synthetic_28nm();
        let profile = IscasProfile {
            name: "ctrl",
            n_ff: 12,
            n_pi: 6,
            n_po: 4,
            n_gates: 80,
            selfloop_frac: 1.0,
            enable_frac: 0.0,
            n_layers: 2,
            period_ps: 1000.0,
        };
        let nl = generate_iscas(&profile, 7);
        let report = run_flow(&nl, &lib, &quick_cfg()).unwrap();
        assert_eq!(report.equiv_3p, Some(true));
        assert_eq!(
            report.convert.singles, 0,
            "feedback forces all FFs back-to-back"
        );
        assert!(report.reg_saving_vs_2ff() <= 1.0, "no latch-count benefit");
    }

    #[test]
    fn gated_iscas_flow_end_to_end() {
        let lib = Library::synthetic_28nm();
        let profile = IscasProfile {
            name: "mix",
            n_ff: 24,
            n_pi: 8,
            n_po: 6,
            n_gates: 150,
            selfloop_frac: 0.3,
            enable_frac: 0.5,
            n_layers: 3,
            period_ps: 1000.0,
        };
        let nl = generate_iscas(&profile, 3);
        let report = run_flow(&nl, &lib, &quick_cfg()).unwrap();
        assert_eq!(report.equiv_3p, Some(true));
        assert_eq!(report.equiv_ms, Some(true));
        assert!(report.preprocess.icgs_inserted > 0);
        assert!(report.three_phase.registers() <= report.ms.registers());
    }

    #[test]
    fn lint_checkpoints_run_per_stage_and_deny_passes() {
        let lib = Library::synthetic_28nm();
        let nl = linear_pipeline(4, 4, 1, 900.0);
        let cfg = FlowConfig {
            lint: LintPolicy::Deny,
            ..quick_cfg()
        };
        let report = run_flow(&nl, &lib, &cfg).unwrap();
        // preprocess, convert, retime, clockgate.
        assert_eq!(report.lint.len(), 4);
        assert!(report.lint.iter().all(|r| r.is_clean()));
        let stages: Vec<_> = report.lint.iter().filter_map(|r| r.stage).collect();
        assert_eq!(
            stages,
            vec![
                LintStage::Preprocess,
                LintStage::Convert,
                LintStage::Retime,
                LintStage::ClockGate
            ]
        );

        let cfg = FlowConfig {
            lint: LintPolicy::Off,
            ..quick_cfg()
        };
        assert!(run_flow(&nl, &lib, &cfg).unwrap().lint.is_empty());
    }

    #[test]
    fn formal_equiv_checkpoints_prove_conversion_and_retime() {
        let lib = Library::synthetic_28nm();
        let nl = linear_pipeline(3, 5, 1, 900.0);
        let cfg = FlowConfig {
            equiv: EquivPolicy::Deny,
            ..quick_cfg()
        };
        let report = run_flow(&nl, &lib, &cfg).unwrap();
        let stages: Vec<&str> = report
            .equiv_formal
            .iter()
            .map(|(s, _)| s.as_str())
            .collect();
        assert_eq!(stages, ["conversion", "retime"]);
        assert!(report
            .equiv_formal
            .iter()
            .all(|(_, o)| o.verdict.is_equivalent()));

        // Off (the default) skips the formal pass entirely.
        let report = run_flow(&nl, &lib, &quick_cfg()).unwrap();
        assert!(report.equiv_formal.is_empty());
    }

    #[test]
    fn dfa_checkpoints_run_per_stage_and_deny_passes() {
        let lib = Library::synthetic_28nm();
        let nl = linear_pipeline(4, 4, 1, 900.0);
        let cfg = FlowConfig {
            dfa: DfaPolicy::Deny,
            ..quick_cfg()
        };
        let report = run_flow(&nl, &lib, &cfg).unwrap();
        let checkpoints: Vec<_> = report
            .dfa
            .iter()
            .map(|r| (r.analysis, r.stage.as_deref()))
            .collect();
        assert_eq!(
            checkpoints,
            vec![
                ("const", Some("preprocess")),
                ("const", Some("clockgate")),
                ("reset", Some("clockgate")),
                ("race", Some("clockgate")),
            ]
        );
        assert!(report.dfa.iter().all(|r| r.is_clean()));

        let cfg = FlowConfig {
            dfa: DfaPolicy::Off,
            ..quick_cfg()
        };
        assert!(run_flow(&nl, &lib, &cfg).unwrap().dfa.is_empty());
    }

    #[test]
    fn conversion_preserves_reset_defined_state() {
        // Regression for the reset-reachability checkpoint on stateful
        // designs: direct conversion (no P&R) keeps the test fast. The
        // pipeline's registers are input-fed (trivially X after reset);
        // the CPU keeps a PC/state loop that must stay reset-defined.
        use triphase_circuits::cpu::{cpu_core, generate_program, m0_like};
        for nl in [linear_pipeline(4, 4, 1, 900.0), {
            let cpu = m0_like();
            cpu_core(&cpu, &generate_program(&cpu, 11))
        }] {
            let mut pre = nl.clone();
            gated_clock_style(&mut pre, 32).unwrap();
            let pre = pre.compact();
            let idx = pre.index();
            let graph = extract_ff_graph(&pre, &idx).unwrap();
            let assignment = assign_phases(&graph, &PhaseConfig::default());
            let (tp, _) = to_three_phase(&pre, &assignment).unwrap();
            let report = triphase_dfa::reset_report(
                &pre,
                &tp,
                triphase_dfa::DEFAULT_RESET_CYCLES,
                Some("convert"),
            )
            .unwrap();
            assert!(
                report.is_clean(),
                "{}: conversion lost reset-defined state: {report}",
                nl.name
            );
        }
    }

    #[test]
    fn malformed_netlists_are_typed_errors_not_panics() {
        let lib = Library::synthetic_28nm();
        // No clock specification.
        let mut nl = linear_pipeline(3, 2, 1, 900.0);
        nl.clock = None;
        assert!(matches!(
            run_flow(&nl, &lib, &quick_cfg()),
            Err(Error::BadInput(_))
        ));
        // Dangling pins after an adversarial net removal.
        let mut nl = linear_pipeline(3, 2, 1, 900.0);
        let net = nl.nets().next().expect("has nets").0;
        nl.remove_net(net);
        assert!(matches!(
            run_flow(&nl, &lib, &quick_cfg()),
            Err(Error::Netlist(_))
        ));
    }

    #[test]
    fn injected_variant_panic_is_contained_as_typed_error() {
        use triphase_fault::{Fault, FaultPlan};
        let lib = Library::synthetic_28nm();
        let nl = linear_pipeline(3, 3, 1, 900.0);
        let cfg = FlowConfig {
            fault: Some(
                FaultPlan::new(3)
                    .inject("flow.variant.ms", Fault::Panic)
                    .shared(),
            ),
            ..quick_cfg()
        };
        let err = run_flow(&nl, &lib, &cfg).unwrap_err();
        assert!(matches!(err, Error::Panic(_)), "{err}");
        assert!(err.to_string().contains("flow.variant.ms"), "{err}");
        // The contained panic must not poison the pool: the same process
        // immediately runs a clean flow to completion.
        let report = run_flow(&nl, &lib, &quick_cfg()).unwrap();
        assert_eq!(report.equiv_3p, Some(true));
    }

    #[test]
    fn injected_empty_activity_surfaces_as_typed_error() {
        use triphase_fault::{Fault, FaultPlan};
        let lib = Library::synthetic_28nm();
        let nl = linear_pipeline(3, 3, 1, 900.0);
        let cfg = FlowConfig {
            fault: Some(
                FaultPlan::new(5)
                    .inject("flow.drive", Fault::EmptyActivity)
                    .shared(),
            ),
            ..quick_cfg()
        };
        let err = run_flow(&nl, &lib, &cfg).unwrap_err();
        assert!(
            matches!(err, Error::Sim(_) | Error::Power(_)),
            "zero-cycle activity must become a typed error, got {err}"
        );
    }

    #[test]
    fn degraded_solver_budget_is_recorded_in_the_report() {
        // A node budget of zero degrades the phase assignment to the
        // greedy incumbent in place: the flow still completes and the
        // report carries the distinguishable status.
        let lib = Library::synthetic_28nm();
        let nl = linear_pipeline(4, 4, 1, 900.0);
        let cfg = FlowConfig {
            phase_cfg: PhaseConfig {
                max_nodes: 0,
                ..PhaseConfig::default()
            },
            ..quick_cfg()
        };
        let report = run_flow(&nl, &lib, &cfg).unwrap();
        assert!(!report.ilp_optimal);
        assert_eq!(report.ilp_status, Status::NodeLimit);
        assert_eq!(report.ilp_rung, SolveRung::Exact);
        assert_eq!(report.equiv_3p, Some(true), "degraded result is valid");
    }

    #[test]
    fn static_activity_drives_flow_by_default_and_ablates_cleanly() {
        let lib = Library::synthetic_28nm();
        let nl = linear_pipeline(4, 4, 1, 900.0);
        // Default: static source, correlation rate recorded, still
        // cycle-exact equivalent.
        let report = run_flow(&nl, &lib, &quick_cfg()).unwrap();
        assert_eq!(report.activity_source, "static");
        let rate = report.activity_correlation_rate.unwrap();
        assert!((0.0..=1.0).contains(&rate), "rate {rate}");
        assert_eq!(report.equiv_3p, Some(true));

        // Disabled: measured path, no model, same functional outcome.
        let cfg = FlowConfig {
            activity: crate::flow::ActivityCfg {
                enabled: false,
                ..Default::default()
            },
            ..quick_cfg()
        };
        let measured = run_flow(&nl, &lib, &cfg).unwrap();
        assert_eq!(measured.activity_source, "measured");
        assert_eq!(measured.activity_correlation_rate, None);
        assert_eq!(measured.equiv_3p, Some(true));

        // An impossible correlation ceiling forces the Warn-style
        // fallback while still reporting the measured rate.
        let cfg = FlowConfig {
            activity: crate::flow::ActivityCfg {
                max_correlation_rate: -1.0,
                ..Default::default()
            },
            ..quick_cfg()
        };
        let fell_back = run_flow(&nl, &lib, &cfg).unwrap();
        assert_eq!(fell_back.activity_source, "measured");
        assert!(fell_back.activity_correlation_rate.is_some());
        assert_eq!(fell_back.equiv_3p, Some(true));
    }

    #[test]
    fn ablation_flags_disable_stages() {
        let lib = Library::synthetic_28nm();
        let nl = linear_pipeline(4, 4, 1, 900.0);
        let cfg = FlowConfig {
            retime: false,
            common_enable_cg: false,
            m2: false,
            ddcg: false,
            ..quick_cfg()
        };
        let report = run_flow(&nl, &lib, &cfg).unwrap();
        assert!(report.retime.is_none());
        assert_eq!(report.cg, CgReport::default());
        assert_eq!(report.equiv_3p, Some(true));
    }
}
