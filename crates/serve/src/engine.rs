//! The conversion engine a worker runs per job: report-cache check,
//! then the memoized flow, with per-stage cache provenance emitted as
//! the stages resolve.
//!
//! Two resilience hooks thread through here:
//!
//! - **Cooperative cancellation** ([`CancelToken`]): the engine checks
//!   the token at entry and at every stage boundary (the flow's
//!   [`triphase_core::StageObservation`] hook). A fired token aborts the
//!   job by unwinding a [`CancelUnwind`] payload, which the worker's
//!   existing `catch_unwind` containment catches and maps to a typed
//!   `cancelled` / `deadline_exceeded` done event naming the last stage
//!   whose result was already banked in the memo store — a resubmission
//!   resumes from exactly there. Stage boundaries are the natural grain:
//!   each stage is the unit of memoized (and journaled) progress, so
//!   aborting between stages never wastes banked work.
//! - **Durable memoization** (`JournaledMemo`): when the server runs
//!   with a journal, every stage record is appended (and fsync'd) to the
//!   journal *before* it lands in the in-memory store, and the flow
//!   records a stage before its fault site fires, so a SIGKILL after
//!   stage N always finds N stages on disk.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use triphase_cells::Library;
use triphase_core::{run_flow_memo, FlowConfig, FlowReport, Stage, StageData, StageMemo};
use triphase_netlist::Netlist;

use crate::journal::Journal;
use crate::memo::{report_key, MemoStore};

/// Provenance of one resolved unit of work: a flow stage, or the
/// whole-report tier (`stage == "report"`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageProv {
    /// `"preprocess"`, `"convert"`, `"retime"`, `"clockgate"`, or
    /// `"report"` for the whole-report cache tier.
    pub stage: &'static str,
    /// The memoization key that was looked up.
    pub key: u64,
    /// Whether the lookup was answered from the cache.
    pub hit: bool,
    /// Wall-clock milliseconds until this unit resolved.
    pub millis: u64,
    /// Memo entries evicted since this job's previous event (cache
    /// pressure attributed to the work in between, including concurrent
    /// jobs' inserts).
    pub evictions: u64,
}

/// Cooperative cancellation handle for one job: an explicit `cancel`
/// request and/or a wall-clock deadline, checked by the engine at every
/// stage boundary.
#[derive(Clone)]
pub struct CancelToken {
    cancelled: Arc<AtomicBool>,
    deadline: Option<Instant>,
}

impl CancelToken {
    /// A token that fires on [`CancelToken::cancel`], and additionally
    /// `deadline_ms` after creation if given.
    pub fn new(deadline_ms: Option<u64>) -> CancelToken {
        CancelToken {
            cancelled: Arc::new(AtomicBool::new(false)),
            deadline: deadline_ms.map(|ms| Instant::now() + Duration::from_millis(ms)),
        }
    }

    /// Fire the token: the job aborts at its next stage boundary.
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::SeqCst);
    }

    /// The abort reason, if the token has fired: `"cancelled"` (explicit
    /// request wins over the clock) or `"deadline_exceeded"`.
    pub fn check(&self) -> Option<&'static str> {
        if self.cancelled.load(Ordering::SeqCst) {
            return Some("cancelled");
        }
        match self.deadline {
            Some(d) if Instant::now() >= d => Some("deadline_exceeded"),
            _ => None,
        }
    }
}

/// The unwind payload of a cancelled job. Thrown with
/// [`std::panic::panic_any`] from the stage-boundary check; the worker's
/// `catch_unwind` downcasts it back into a typed done event.
pub struct CancelUnwind {
    /// `"cancelled"` or `"deadline_exceeded"`.
    pub reason: &'static str,
    /// The last stage whose result was banked before the abort
    /// (`"none"` if the job aborted before its first stage landed); a
    /// resubmission replays the cache up to and including this stage.
    pub last_banked: &'static str,
}

/// A [`StageMemo`] that makes every record durable before it is
/// observable: append + fsync to the journal first, then the in-memory
/// store. Lookups go straight to the store.
struct JournaledMemo<'a> {
    memo: &'a MemoStore,
    journal: &'a Journal,
}

impl StageMemo for JournaledMemo<'_> {
    fn lookup(&self, stage: Stage, key: u64) -> Option<StageData> {
        self.memo.lookup(stage, key)
    }

    fn record(&self, stage: Stage, key: u64, data: &StageData) {
        // A journal write failure downgrades durability, not
        // correctness: the job still completes, and the miss is only
        // that a post-crash restart would recompute this stage.
        let _ = self.journal.append_stage(key, data);
        self.memo.record(stage, key, data);
    }
}

/// A shared, thread-safe conversion engine: one cell library plus the
/// two-tier [`MemoStore`] and (optionally) the durable journal behind
/// it. Workers call [`Engine::run`] concurrently.
pub struct Engine {
    lib: Library,
    memo: MemoStore,
    journal: Option<Arc<Journal>>,
    fault: Option<triphase_fault::SharedInjector>,
}

impl Engine {
    /// Create an engine with the synthetic 28 nm library and a memo
    /// store holding `memo_capacity` entries per tier.
    pub fn new(memo_capacity: usize) -> Engine {
        Engine::with_memo(MemoStore::new(memo_capacity))
    }

    /// Create an engine around an existing (possibly replay-seeded)
    /// memo store.
    pub fn with_memo(memo: MemoStore) -> Engine {
        Engine {
            lib: Library::synthetic_28nm(),
            memo,
            journal: None,
            fault: None,
        }
    }

    /// Journal every stage record (durably, before the in-memory store
    /// sees it).
    pub fn with_journal(mut self, journal: Arc<Journal>) -> Engine {
        self.journal = Some(journal);
        self
    }

    /// Install a fault-injection plan forced into every job's flow
    /// (test-only: lets integration tests kill a worker mid-job).
    pub fn with_fault(mut self, fault: triphase_fault::SharedInjector) -> Engine {
        self.fault = Some(fault);
        self
    }

    /// The shared memo store (for status counters).
    pub fn memo(&self) -> &MemoStore {
        &self.memo
    }

    /// Convert one design. The request's config is taken as-is except
    /// that the fault hook is forced from the engine — the wire cannot
    /// reach it. `emit` receives cache provenance in resolution order:
    /// the `"report"` tier first, then (on a report miss) each flow
    /// stage as it resolves. A fired `token` aborts at the next stage
    /// boundary by unwinding [`CancelUnwind`] (caught by the worker's
    /// panic containment, never crossing the daemon).
    ///
    /// # Errors
    ///
    /// Any flow error ([`triphase_core::Error`]); the caller maps it to
    /// a typed `done` event via [`crate::proto::error_code`].
    pub fn run(
        &self,
        nl: &Netlist,
        cfg: &FlowConfig,
        token: Option<&CancelToken>,
        emit: &mut dyn FnMut(&StageProv),
    ) -> triphase_core::Result<Arc<FlowReport>> {
        let mut cfg = cfg.clone();
        cfg.fault = self.fault.clone();
        let abort = |reason: &'static str, last_banked: &'static str| -> ! {
            std::panic::panic_any(CancelUnwind {
                reason,
                last_banked,
            })
        };
        if let Some(reason) = token.and_then(CancelToken::check) {
            abort(reason, "none");
        }
        let start = Instant::now();
        let evictions_before = |memo: &MemoStore| {
            let (s, r) = memo.stats();
            s.evictions + r.evictions
        };
        let mut last_evictions = evictions_before(&self.memo);
        let rkey = report_key(nl, &cfg);
        if let Some(report) = self.memo.get_report(rkey) {
            emit(&StageProv {
                stage: "report",
                key: rkey,
                hit: true,
                millis: start.elapsed().as_millis() as u64,
                evictions: 0,
            });
            return Ok(report);
        }
        emit(&StageProv {
            stage: "report",
            key: rkey,
            hit: false,
            millis: start.elapsed().as_millis() as u64,
            evictions: 0,
        });
        let mut last = Instant::now();
        // The stage whose record is already banked when the *next*
        // observation fires: observations precede their stage's memo
        // record, so at observe(N) the banked prefix ends at N-1.
        let mut banked: &'static str = "none";
        let memo = &self.memo;
        let mut observe = |obs: triphase_core::StageObservation| {
            if let Some(reason) = token.and_then(CancelToken::check) {
                abort(reason, banked);
            }
            let now_evictions = evictions_before(memo);
            emit(&StageProv {
                stage: obs.stage.name(),
                key: obs.key,
                hit: obs.hit,
                millis: last.elapsed().as_millis() as u64,
                evictions: now_evictions.saturating_sub(last_evictions),
            });
            last_evictions = now_evictions;
            last = Instant::now();
            banked = obs.stage.name();
        };
        let report = match &self.journal {
            Some(journal) => {
                let journaled = JournaledMemo {
                    memo: &self.memo,
                    journal,
                };
                run_flow_memo(nl, &self.lib, &cfg, &journaled, &mut observe)?
            }
            None => run_flow_memo(nl, &self.lib, &cfg, &self.memo, &mut observe)?,
        };
        let report = Arc::new(report);
        self.memo.put_report(rkey, Arc::clone(&report));
        Ok(report)
    }
}
