//! The paper's contribution: automatic conversion of FF-based designs to
//! power-efficient 3-phase latch-based designs (DATE 2020).
//!
//! The flow, stage by stage (paper section in parentheses):
//!
//! 1. [`gated_clock_style`] (§IV-B, Fig. 2) — enabled FFs become ICG-gated
//!    plain FFs so recirculation muxes don't read as combinational
//!    feedback and "unduly constrain the optimization problem";
//! 2. [`extract_ff_graph`] + [`assign_phases`] (§IV-A) — the FF fan-out
//!    graph `FO(u)` is extracted and the paper's ILP assigns every FF a
//!    phase bit `K` and group bit `G`, minimizing `p2` insertions — by
//!    default weighted by the static switching-activity model
//!    ([`assign_phases_weighted`], [`ActivityCfg`]) so insertions land
//!    on quiet nets;
//! 3. [`to_three_phase`] (§IV-B) — FFs become `p1`/`p3` transparent
//!    latches, back-to-back FFs get a `p2` latch at their output, flagged
//!    primary inputs get boundary latches, and clock gates are re-rooted
//!    (duplicated when they serve both phases); [`to_master_slave`] builds
//!    the conventional baseline;
//! 4. [`retime_three_phase`] (§IV-C) — the modified retiming: latches map
//!    to a `clk`/`clkbar` FF proxy, only the `clkbar` (`p2`) proxies move
//!    toward balanced `T_c/2` half-stages, and the result converts back;
//! 5. [`gate_p2_common_enable`], [`apply_m2`], [`apply_ddcg`] (§IV-D) —
//!    the three `p2` clock-gating mechanisms (shared-enable gating with
//!    the inverter-free M1 cell, latch-free M2 rewriting, and multi-bit
//!    data-driven clock gating);
//! 6. [`run_flow`] — the end-to-end driver evaluating all three design
//!    styles (FF, master-slave, 3-phase) through place-and-route,
//!    simulation, grouped power estimation, and the paper's validation
//!    (constraint C2 plus cycle-exact output-stream equivalence).
//!
//! # Examples
//!
//! ```
//! use triphase_circuits::pipeline::linear_pipeline;
//! use triphase_cells::Library;
//! use triphase_core::{run_flow, FlowConfig};
//!
//! let design = linear_pipeline(4, 6, 1, 900.0);
//! let lib = Library::synthetic_28nm();
//! let cfg = FlowConfig { sim_cycles: 32, equiv_cycles: 64, ..FlowConfig::default() };
//! let report = run_flow(&design, &lib, &cfg)?;
//! assert_eq!(report.equiv_3p, Some(true));
//! assert!(report.three_phase.registers() < report.ms.registers());
//! # Ok::<(), triphase_core::Error>(())
//! ```

mod clockgate;
mod convert;
mod error;
mod ffgraph;
mod flow;
mod preprocess;
mod retiming;
mod stage;

pub use clockgate::{
    apply_ddcg, apply_ddcg_placed, apply_ddcg_static, apply_m2, gate_p2_common_enable, CgReport,
};
pub use convert::{latch_phases, phase_census, to_master_slave, to_three_phase, ConvertReport};
pub use error::{Error, Result};
pub use ffgraph::{assign_phases, assign_phases_weighted, extract_ff_graph, Assignment, FfGraph};
pub use flow::{
    run_flow, run_flow_memo, run_flow_with, ActivityCfg, DfaPolicy, Drive, EquivPolicy, FlowConfig,
    FlowReport, LintPolicy, SimBackend, StageData, StageMemo, StageObservation, VariantResult,
};
pub use preprocess::{gated_clock_style, PreprocessReport};
pub use retiming::{retime_three_phase, RetimeReport};
pub use stage::{
    fingerprint as flow_fingerprint, stage_data_from_text, stage_data_to_text, stage_key,
    IlpOutcome, Stage,
};
