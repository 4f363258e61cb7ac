//! `triphase-fault` — deterministic fault injection for flow hardening.
//!
//! The conversion flow is a long pipeline (phase-assignment ILP → convert
//! → retime → clock gating → P&R → power) running batches of designs on a
//! work-stealing pool. Any stage can fail in the field: the branch-and-
//! bound solver exhausts its node or wall-clock budget, the simplex hits
//! a numeric edge, a malformed netlist slips in, a task panics. This
//! crate provides the *controlled* version of those failures so the rest
//! of the workspace can prove it degrades instead of crashing.
//!
//! # Design
//!
//! - [`Fault`] is the closed taxonomy of injectable failures.
//! - [`Injector`] is the hook trait threaded (as `Option<SharedInjector>`)
//!   through `IlpConfig`, `PhaseConfig`, and `FlowConfig`. Production
//!   code consults it at named **sites** (`"ilp.solve"`, `"phase.exact"`,
//!   `"flow.variant.3p"`, …) via [`fault_at`]; with no injector installed
//!   the check is a single `Option` match.
//! - [`FaultPlan`] is the standard implementation: an ordered list of
//!   site-prefix rules plus a seed. Whether a rule fires at a site is a
//!   pure function of `(seed, site, rule)` — never of thread count,
//!   scheduling, or wall-clock — so campaigns are reproducible under any
//!   `TRIPHASE_THREADS`.
//!
//! # Example
//!
//! ```
//! use triphase_fault::{Fault, FaultPlan, Injector};
//!
//! let plan = FaultPlan::new(42).inject("phase.", Fault::ExhaustNodes);
//! assert_eq!(plan.fault_at("phase.exact"), Some(Fault::ExhaustNodes));
//! assert_eq!(plan.fault_at("flow.drive"), None);
//! ```

use std::fmt;
use std::sync::Arc;

/// The closed taxonomy of injectable failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Fault {
    /// Force the solver's node budget to zero: the search must stop
    /// immediately and report a node-limit outcome (with or without an
    /// incumbent).
    ExhaustNodes,
    /// Force the wall-clock deadline into the past: the search must stop
    /// at its next deadline check and report a time-limit outcome.
    ExpireDeadline,
    /// Simulate simplex cycling / numeric instability: the solver must
    /// surface a typed numeric error, triggering the next fallback rung.
    Numeric,
    /// Panic at the site. Exercises `catch_unwind` containment around
    /// pool tasks and flow stages.
    Panic,
    /// Make the simulation driver produce zero cycles of activity, the
    /// `NoCycles` failure mode of toggle-rate estimation.
    EmptyActivity,
}

impl Fault {
    /// Stable lower-case name, used in campaign reports.
    pub fn name(self) -> &'static str {
        match self {
            Fault::ExhaustNodes => "exhaust-nodes",
            Fault::ExpireDeadline => "expire-deadline",
            Fault::Numeric => "numeric",
            Fault::Panic => "panic",
            Fault::EmptyActivity => "empty-activity",
        }
    }
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Injection hook consulted by production code at named sites.
///
/// Implementations must be deterministic: the answer for a given site
/// must not depend on thread scheduling or time.
pub trait Injector: Send + Sync + fmt::Debug {
    /// The fault (if any) to inject at `site`.
    fn fault_at(&self, site: &str) -> Option<Fault>;
}

/// Shareable injector handle, cheap to clone into configs.
pub type SharedInjector = Arc<dyn Injector>;

/// Consult an optional hook at a site. The no-injector fast path is a
/// single `Option` discriminant check.
pub fn fault_at(hook: &Option<SharedInjector>, site: &str) -> Option<Fault> {
    hook.as_ref().and_then(|h| h.fault_at(site))
}

/// Panic with the canonical injected-fault message. Call sites that
/// receive [`Fault::Panic`] use this so contained panics are
/// recognizable in reports.
pub fn injected_panic(site: &str) -> ! {
    panic!("injected fault: panic at {site}")
}

#[derive(Debug, Clone)]
struct Rule {
    prefix: String,
    fault: Fault,
    /// Firing rate out of 1000. 1000 = always.
    permille: u16,
}

/// Seeded, ordered site-prefix fault plan (first matching rule wins).
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    seed: u64,
    rules: Vec<Rule>,
}

impl FaultPlan {
    /// Empty plan (injects nothing) with the given seed.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            rules: Vec::new(),
        }
    }

    /// Always inject `fault` at every site starting with `prefix`.
    pub fn inject(self, prefix: &str, fault: Fault) -> Self {
        self.inject_permille(prefix, fault, 1000)
    }

    /// Inject `fault` at sites starting with `prefix` with probability
    /// `permille / 1000`, decided by hashing `(seed, site)` — i.e. a
    /// fixed site either always or never fires for a given plan.
    pub fn inject_permille(mut self, prefix: &str, fault: Fault, permille: u16) -> Self {
        self.rules.push(Rule {
            prefix: prefix.to_string(),
            fault,
            permille: permille.min(1000),
        });
        self
    }

    /// Wrap into the shared handle configs carry.
    pub fn shared(self) -> SharedInjector {
        Arc::new(self)
    }

    fn fires(&self, rule: &Rule, site: &str) -> bool {
        if rule.permille >= 1000 {
            return true;
        }
        let mut h = fnv1a64(site.as_bytes());
        h = mix64(h ^ self.seed ^ fnv1a64(rule.prefix.as_bytes()));
        (h % 1000) < u64::from(rule.permille)
    }
}

impl Injector for FaultPlan {
    fn fault_at(&self, site: &str) -> Option<Fault> {
        self.rules
            .iter()
            .find(|r| site.starts_with(&r.prefix) && self.fires(r, site))
            .map(|r| r.fault)
    }
}

/// FNV-1a 64-bit hash. Also used by the flow's stage keys and
/// fingerprints (`triphase_core::stage_key`) and by the service
/// journal's record checksums.
pub fn fnv1a64(data: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in data {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// SplitMix64 finalizer: bijective avalanche mix.
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_injects_nothing() {
        let plan = FaultPlan::new(7);
        assert_eq!(plan.fault_at("ilp.solve"), None);
        assert_eq!(plan.fault_at(""), None);
    }

    #[test]
    fn prefix_match_first_rule_wins() {
        let plan = FaultPlan::new(1)
            .inject("phase.exact", Fault::Numeric)
            .inject("phase.", Fault::ExhaustNodes);
        assert_eq!(plan.fault_at("phase.exact"), Some(Fault::Numeric));
        assert_eq!(plan.fault_at("phase.ilp"), Some(Fault::ExhaustNodes));
        assert_eq!(plan.fault_at("flow.drive"), None);
    }

    #[test]
    fn permille_is_deterministic_per_site() {
        let plan = FaultPlan::new(99).inject_permille("s.", Fault::Panic, 500);
        let sites: Vec<String> = (0..64).map(|i| format!("s.{i}")).collect();
        let first: Vec<_> = sites.iter().map(|s| plan.fault_at(s)).collect();
        for _ in 0..4 {
            let again: Vec<_> = sites.iter().map(|s| plan.fault_at(s)).collect();
            assert_eq!(first, again);
        }
        let hits = first.iter().filter(|f| f.is_some()).count();
        assert!(
            hits > 0 && hits < 64,
            "rate 500/1000 should hit some but not all: {hits}"
        );
    }

    #[test]
    fn permille_zero_never_fires() {
        let plan = FaultPlan::new(3).inject_permille("x", Fault::Numeric, 0);
        for i in 0..32 {
            assert_eq!(plan.fault_at(&format!("x{i}")), None);
        }
    }

    #[test]
    fn fnv_and_mix_are_stable() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(mix64(1), mix64(2));
    }

    #[test]
    fn shared_handle_works_through_trait_object() {
        let hook: Option<SharedInjector> = Some(
            FaultPlan::new(0)
                .inject("a", Fault::ExpireDeadline)
                .shared(),
        );
        assert_eq!(fault_at(&hook, "a.b"), Some(Fault::ExpireDeadline));
        assert_eq!(fault_at(&None, "a.b"), None);
    }
}
