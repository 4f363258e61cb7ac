//! Error type of the conversion flow.

use std::fmt;

/// Convenience alias.
pub type Result<T> = std::result::Result<T, Error>;

/// Errors produced by the conversion flow.
#[derive(Debug)]
pub enum Error {
    /// Underlying netlist problem.
    Netlist(triphase_netlist::Error),
    /// Timing analysis failed.
    Timing(triphase_timing::Error),
    /// Simulation failed.
    Sim(triphase_sim::Error),
    /// Retiming failed.
    Retime(triphase_retime::Error),
    /// Place-and-route failed.
    Pnr(triphase_pnr::Error),
    /// Power estimation failed.
    Power(triphase_power::Error),
    /// The design is not in the expected pre-conversion form (message
    /// explains what is wrong).
    BadInput(String),
    /// Post-conversion validation failed (equivalence or constraint C2).
    ValidationFailed(String),
    /// A lint checkpoint found error-severity violations while the flow
    /// ran with [`crate::LintPolicy::Deny`]. The full report is attached.
    Lint(Box<triphase_lint::Report>),
    /// A formal equivalence checkpoint failed to prove a stage while the
    /// flow ran with [`crate::EquivPolicy::Deny`] (message carries the
    /// stage and verdict details).
    Equiv(String),
    /// A dataflow-analysis checkpoint found error-severity violations
    /// while the flow ran with [`crate::DfaPolicy::Deny`]. The full
    /// report is attached.
    Dfa(Box<triphase_dfa::DfaReport>),
    /// A task panicked and the panic was contained at a crate boundary
    /// (variant evaluation, benchmark run). The message carries the task
    /// name and, when downcastable, the panic payload.
    Panic(String),
}

impl Error {
    /// Build an [`Error::Panic`] from a `catch_unwind` payload, keeping
    /// the panic message when the payload is a string.
    pub fn from_panic(task: &str, payload: Box<dyn std::any::Any + Send>) -> Error {
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".into());
        Error::Panic(format!("{task}: {msg}"))
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Netlist(e) => write!(f, "netlist error: {e}"),
            Error::Timing(e) => write!(f, "timing error: {e}"),
            Error::Sim(e) => write!(f, "simulation error: {e}"),
            Error::Retime(e) => write!(f, "retiming error: {e}"),
            Error::Pnr(e) => write!(f, "place-and-route error: {e}"),
            Error::Power(e) => write!(f, "power estimation error: {e}"),
            Error::BadInput(m) => write!(f, "bad input design: {m}"),
            Error::ValidationFailed(m) => write!(f, "validation failed: {m}"),
            Error::Lint(report) => {
                let stage = report.stage.map_or("-", |s| s.as_str());
                write!(
                    f,
                    "lint failed at stage {stage}: {} error(s)",
                    report.errors().len()
                )?;
                if let Some(first) = report.errors().first() {
                    write!(f, "; first: {first}")?;
                }
                Ok(())
            }
            Error::Equiv(m) => write!(f, "formal equivalence failed: {m}"),
            Error::Dfa(report) => {
                let stage = report.stage.as_deref().unwrap_or("-");
                write!(
                    f,
                    "dataflow analysis `{}` failed at stage {stage}: {} error(s)",
                    report.analysis,
                    report.errors().len()
                )?;
                if let Some(first) = report.errors().first() {
                    write!(f, "; first: {first}")?;
                }
                Ok(())
            }
            Error::Panic(m) => write!(f, "task panicked: {m}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Netlist(e) => Some(e),
            Error::Timing(e) => Some(e),
            Error::Sim(e) => Some(e),
            Error::Retime(e) => Some(e),
            Error::Pnr(e) => Some(e),
            Error::Power(e) => Some(e),
            _ => None,
        }
    }
}

macro_rules! from_err {
    ($variant:ident, $ty:ty) => {
        impl From<$ty> for Error {
            fn from(e: $ty) -> Self {
                Error::$variant(e)
            }
        }
    };
}

from_err!(Netlist, triphase_netlist::Error);
from_err!(Timing, triphase_timing::Error);
from_err!(Sim, triphase_sim::Error);
from_err!(Retime, triphase_retime::Error);
from_err!(Pnr, triphase_pnr::Error);
from_err!(Power, triphase_power::Error);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = Error::BadInput("latches present".into());
        assert!(e.to_string().contains("latches"));
        let e: Error = triphase_netlist::Error::Invalid("x".into()).into();
        assert!(std::error::Error::source(&e).is_some());
        let e: Error = triphase_sim::Error::NoClock.into();
        assert!(e.to_string().contains("clock"));
    }

    #[test]
    fn panic_payloads_become_typed_errors() {
        let p = std::panic::catch_unwind(|| panic!("boom {}", 7)).unwrap_err();
        let e = Error::from_panic("variant ff", p);
        assert_eq!(e.to_string(), "task panicked: variant ff: boom 7");
        let p = std::panic::catch_unwind(|| panic!("literal")).unwrap_err();
        assert!(Error::from_panic("t", p).to_string().contains("literal"));
    }

    #[test]
    fn lint_error_displays_stage_and_first_finding() {
        use triphase_lint::{Diagnostic, LintStage, Location, Report, Severity};
        let e = Error::Lint(Box::new(Report {
            design: "d".into(),
            stage: Some(LintStage::Convert),
            diagnostics: vec![Diagnostic {
                code: "P004",
                rule: "residual-ff",
                severity: Severity::Error,
                location: Location::Design,
                message: "ff left".into(),
            }],
        }));
        let text = e.to_string();
        assert!(text.contains("stage convert"), "{text}");
        assert!(text.contains("1 error(s)"), "{text}");
        assert!(text.contains("P004"), "{text}");
    }
}
