//! Wire protocol: request parsing, typed protocol errors, and event
//! builders — the JSON schema of the service.
//!
//! Every frame is one JSON document. Requests carry a `"kind"`
//! discriminator (`submit`, `cancel`, `status`, `ping`, `shutdown`);
//! every server frame carries an `"event"` discriminator (`ack`,
//! `queued`, `stage`, `done`, `cancelled`, `status`, `pong`, `bye`,
//! `error`). The schema is versioned ([`PROTOCOL_VERSION`], echoed in
//! `ack`/`status`/`pong`): a request may carry a `"proto"` field, and a
//! mismatch is answered with a typed `bad_request` naming the supported
//! version — never a frame error — so old clients fail cleanly. Error
//! codes are stable strings in the lint/equiv/dfa CLI style — clients
//! match on `code`, never on message text. The resilience additions
//! bring three more codes: `overloaded` (shed at admission, with a
//! `retry_after_ms` hint), `deadline_exceeded`, and `cancelled`.
//!
//! Like those CLIs, malformed input is answered with a typed error, not
//! a panic: every parser in this module returns [`ProtoError`].

use crate::json::Json;
use triphase_core::{
    ActivityCfg, DfaPolicy, EquivPolicy, Error, FlowConfig, FlowReport, LintPolicy, SimBackend,
    VariantResult,
};
use triphase_netlist::{snapshot, Netlist};

/// Wire-schema version, echoed in `ack`, `status`, and `pong` events.
/// v2 added admission control (`overloaded` + `retry_after_ms`,
/// `queued` position events), per-job deadlines and cancellation, and
/// drain-mode shutdown.
pub const PROTOCOL_VERSION: u64 = 2;

/// A typed protocol error: a stable machine-matchable `code` plus a
/// human-readable message, serialized as an `error` event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtoError {
    /// Stable error code (see the module docs / README table).
    pub code: &'static str,
    /// Human-readable detail; never stable, never matched by clients.
    pub message: String,
}

impl ProtoError {
    fn new(code: &'static str, message: impl Into<String>) -> ProtoError {
        ProtoError {
            code,
            message: message.into(),
        }
    }

    /// Serialize as an `error` event frame.
    pub fn event(&self) -> Json {
        let mut e = Json::obj();
        e.set("event", Json::Str("error".into()));
        e.set("code", Json::Str(self.code.into()));
        e.set("message", Json::Str(self.message.clone()));
        e
    }
}

/// One job of a `submit` request.
#[derive(Debug, Clone)]
pub struct JobRequest {
    /// Client-chosen display name (defaults to the netlist's own name).
    pub name: String,
    /// The design to convert.
    pub netlist: Netlist,
    /// Flow configuration (defaults + the request's overrides).
    pub cfg: FlowConfig,
    /// Echo the final 3-phase netlist snapshot in the `done` event.
    pub return_netlist: bool,
    /// Approximate queued footprint (snapshot text length), charged
    /// against the queue's byte budget at admission.
    pub est_bytes: usize,
    /// Client deadline. Already folded into `cfg.phase_cfg.time_limit`
    /// (deterministically, at parse time — so memo keys stay stable);
    /// the server also arms a cancellation token with it.
    pub deadline_ms: Option<u64>,
}

/// A parsed request frame.
#[derive(Debug, Clone)]
pub enum Request {
    /// Convert one or more designs (batch submission).
    Submit(Vec<JobRequest>),
    /// Kill a queued or running job by id.
    Cancel {
        /// Server-assigned job id (from the `ack` event).
        job: u64,
    },
    /// Queue/cache/worker statistics.
    Status,
    /// Liveness probe.
    Ping,
    /// Stop the server. `drain: true` (the default) finishes queued and
    /// running jobs first; `false` journals queued jobs for the next
    /// daemon life and stops after running jobs finish.
    Shutdown {
        /// Finish queued work before exiting.
        drain: bool,
    },
}

/// Parse one request frame.
///
/// # Errors
///
/// `bad_json` (not a JSON document), `bad_request` (not an object, a
/// missing/ill-typed field, or an unsupported `proto` version),
/// `unknown_kind`, `bad_netlist` (snapshot text does not parse),
/// `bad_config` (unknown or ill-typed config key).
pub fn parse_request(text: &str) -> Result<Request, ProtoError> {
    let doc = Json::parse(text).map_err(|e| ProtoError::new("bad_json", e))?;
    let Json::Obj(_) = &doc else {
        return Err(ProtoError::new("bad_request", "request must be an object"));
    };
    if let Some(v) = doc.get("proto") {
        let requested = v.as_f64();
        if requested != Some(PROTOCOL_VERSION as f64) {
            return Err(ProtoError::new(
                "bad_request",
                format!(
                    "unsupported protocol version {}; this server speaks version {PROTOCOL_VERSION}",
                    requested.map_or_else(|| "?".to_owned(), |v| format!("{v}"))
                ),
            ));
        }
    }
    let kind = doc
        .get("kind")
        .and_then(Json::as_str)
        .ok_or_else(|| ProtoError::new("bad_request", "missing string field `kind`"))?;
    match kind {
        "submit" => parse_submit(&doc),
        "cancel" => {
            let job = doc
                .get("job")
                .ok_or_else(|| ProtoError::new("bad_request", "cancel requires a `job` id"))
                .and_then(|v| {
                    want_u64(v, "job").map_err(|e| ProtoError::new("bad_request", e.message))
                })?;
            Ok(Request::Cancel { job })
        }
        "status" => Ok(Request::Status),
        "ping" => Ok(Request::Ping),
        "shutdown" => {
            let drain = match doc.get("mode").and_then(Json::as_str) {
                None | Some("drain") => true,
                Some("now") => false,
                Some(other) => {
                    return Err(ProtoError::new(
                        "bad_request",
                        format!("shutdown `mode` must be drain|now, got `{other}`"),
                    ))
                }
            };
            Ok(Request::Shutdown { drain })
        }
        other => Err(ProtoError::new(
            "unknown_kind",
            format!("unknown request kind `{other}`"),
        )),
    }
}

fn parse_submit(doc: &Json) -> Result<Request, ProtoError> {
    let Some(Json::Arr(jobs)) = doc.get("jobs") else {
        return Err(ProtoError::new(
            "bad_request",
            "submit requires an array field `jobs`",
        ));
    };
    if jobs.is_empty() {
        return Err(ProtoError::new("bad_request", "`jobs` must be non-empty"));
    }
    let mut parsed = Vec::with_capacity(jobs.len());
    for (i, job) in jobs.iter().enumerate() {
        let text = job.get("netlist").and_then(Json::as_str).ok_or_else(|| {
            ProtoError::new(
                "bad_request",
                format!("job {i}: missing string field `netlist` (snapshot text)"),
            )
        })?;
        let netlist = snapshot::from_text(text)
            .map_err(|e| ProtoError::new("bad_netlist", format!("job {i}: {e}")))?;
        let cfg = match job.get("config") {
            Some(c) => parse_config(c)
                .map_err(|e| ProtoError::new(e.code, format!("job {i}: {}", e.message)))?,
            None => FlowConfig::default(),
        };
        let mut cfg = cfg;
        let deadline_ms = match job.get("deadline_ms") {
            None => None,
            Some(v) => {
                let ms = want_u64(v, "deadline_ms").map_err(|e| {
                    ProtoError::new("bad_request", format!("job {i}: {}", e.message))
                })?;
                if ms == 0 {
                    return Err(ProtoError::new(
                        "bad_request",
                        format!("job {i}: `deadline_ms` must be positive"),
                    ));
                }
                Some(ms)
            }
        };
        if let Some(ms) = deadline_ms {
            // Fold the deadline into the ILP wall-clock budget here, at
            // parse time: the budget is a fingerprinted field, so it
            // must be a deterministic function of the request — never of
            // the wall clock remaining when the job reaches a worker.
            let budget = std::time::Duration::from_millis(ms);
            cfg.phase_cfg.time_limit = Some(match cfg.phase_cfg.time_limit {
                Some(existing) => existing.min(budget),
                None => budget,
            });
        }
        let name = job
            .get("name")
            .and_then(Json::as_str)
            .unwrap_or(&netlist.name)
            .to_owned();
        let return_netlist = matches!(job.get("return_netlist"), Some(Json::Bool(true)));
        parsed.push(JobRequest {
            name,
            netlist,
            cfg,
            return_netlist,
            est_bytes: text.len(),
            deadline_ms,
        });
    }
    Ok(Request::Submit(parsed))
}

fn want_u64(v: &Json, key: &str) -> Result<u64, ProtoError> {
    match v.as_f64() {
        Some(f) if f >= 0.0 && f.fract() == 0.0 && f <= u64::MAX as f64 => Ok(f as u64),
        _ => Err(ProtoError::new(
            "bad_config",
            format!("`{key}` must be a non-negative integer"),
        )),
    }
}

fn want_usize(v: &Json, key: &str) -> Result<usize, ProtoError> {
    want_u64(v, key).map(|n| n as usize)
}

fn want_f64(v: &Json, key: &str) -> Result<f64, ProtoError> {
    v.as_f64()
        .ok_or_else(|| ProtoError::new("bad_config", format!("`{key}` must be a number")))
}

fn want_bool(v: &Json, key: &str) -> Result<bool, ProtoError> {
    match v {
        Json::Bool(b) => Ok(*b),
        _ => Err(ProtoError::new(
            "bad_config",
            format!("`{key}` must be a boolean"),
        )),
    }
}

/// Parse the request's flow-configuration object: [`FlowConfig`]
/// defaults overridden by the given keys. Unknown keys are rejected
/// (`bad_config`) so schema drift fails loudly instead of silently
/// running with defaults. The fault-injection hook is deliberately not
/// reachable from the wire. `sim_backend` accepts only `"compiled"`,
/// the one simulation kernel.
///
/// # Errors
///
/// `bad_config` on unknown keys or ill-typed values.
pub fn parse_config(obj: &Json) -> Result<FlowConfig, ProtoError> {
    let Json::Obj(fields) = obj else {
        return Err(ProtoError::new("bad_config", "`config` must be an object"));
    };
    let mut cfg = FlowConfig::default();
    for (key, v) in fields {
        match key.as_str() {
            "seed" => cfg.seed = want_u64(v, key)?,
            "sim_cycles" => cfg.sim_cycles = want_u64(v, key)?,
            "equiv_cycles" => cfg.equiv_cycles = want_u64(v, key)?,
            "retime" => cfg.retime = want_bool(v, key)?,
            "retime_target_ratio" => cfg.retime_target_ratio = want_f64(v, key)?,
            "common_enable_cg" => cfg.common_enable_cg = want_bool(v, key)?,
            "m2" => cfg.m2 = want_bool(v, key)?,
            "ddcg" => cfg.ddcg = want_bool(v, key)?,
            "ddcg_threshold" => cfg.ddcg_threshold = want_f64(v, key)?,
            "cg_max_fanout" => cfg.cg_max_fanout = want_usize(v, key)?,
            "pnr_seed" => cfg.pnr.seed = want_u64(v, key)?,
            "pnr_moves_per_cell" => cfg.pnr.moves_per_cell = want_usize(v, key)?,
            "ilp_max_nodes" => cfg.phase_cfg.max_nodes = want_usize(v, key)?,
            "ilp_max_vars" => cfg.phase_cfg.ilp_max_vars = want_usize(v, key)?,
            "activity_enabled" => cfg.activity.enabled = want_bool(v, key)?,
            "activity_cut_budget" => cfg.activity.cut_budget = want_usize(v, key)?,
            "activity_max_correlation_rate" => {
                cfg.activity.max_correlation_rate = want_f64(v, key)?
            }
            "sim_backend" => {
                cfg.sim_backend = match v.as_str() {
                    Some("compiled") => SimBackend::Compiled,
                    _ => {
                        return Err(ProtoError::new(
                            "bad_config",
                            "`sim_backend` must be \"compiled\"",
                        ))
                    }
                }
            }
            "lint" => {
                cfg.lint =
                    parse_policy(v, key, LintPolicy::Off, LintPolicy::Warn, LintPolicy::Deny)?
            }
            "equiv" => {
                cfg.equiv = parse_policy(
                    v,
                    key,
                    EquivPolicy::Off,
                    EquivPolicy::Warn,
                    EquivPolicy::Deny,
                )?
            }
            "dfa" => {
                cfg.dfa = parse_policy(v, key, DfaPolicy::Off, DfaPolicy::Warn, DfaPolicy::Deny)?
            }
            other => {
                return Err(ProtoError::new(
                    "bad_config",
                    format!("unknown config key `{other}`"),
                ))
            }
        }
    }
    Ok(cfg)
}

fn parse_policy<T>(v: &Json, key: &str, off: T, warn: T, deny: T) -> Result<T, ProtoError> {
    match v.as_str() {
        Some("off") => Ok(off),
        Some("warn") => Ok(warn),
        Some("deny") => Ok(deny),
        _ => Err(ProtoError::new(
            "bad_config",
            format!("`{key}` must be off|warn|deny"),
        )),
    }
}

/// Serialize a config back to its wire object (the fields
/// [`parse_config`] accepts, with the activity knobs flattened).
/// Round-trips: `parse_config(&config_json(&cfg))` reproduces `cfg`.
pub fn config_json(cfg: &FlowConfig) -> Json {
    let FlowConfig {
        seed,
        sim_backend,
        sim_cycles,
        equiv_cycles,
        retime,
        retime_target_ratio,
        common_enable_cg,
        m2,
        ddcg,
        ddcg_threshold,
        cg_max_fanout,
        pnr,
        phase_cfg,
        lint,
        equiv,
        dfa,
        activity:
            ActivityCfg {
                enabled,
                cut_budget,
                max_correlation_rate,
            },
        ..
    } = cfg;
    let mut o = Json::obj();
    o.set("seed", Json::Num(*seed as f64));
    o.set("sim_backend", Json::Str(sim_backend.label().into()));
    o.set("sim_cycles", Json::Num(*sim_cycles as f64));
    o.set("equiv_cycles", Json::Num(*equiv_cycles as f64));
    o.set("retime", Json::Bool(*retime));
    o.set("retime_target_ratio", Json::Num(*retime_target_ratio));
    o.set("common_enable_cg", Json::Bool(*common_enable_cg));
    o.set("m2", Json::Bool(*m2));
    o.set("ddcg", Json::Bool(*ddcg));
    o.set("ddcg_threshold", Json::Num(*ddcg_threshold));
    o.set("cg_max_fanout", Json::Num(*cg_max_fanout as f64));
    o.set("pnr_seed", Json::Num(pnr.seed as f64));
    o.set("pnr_moves_per_cell", Json::Num(pnr.moves_per_cell as f64));
    o.set("ilp_max_nodes", Json::Num(phase_cfg.max_nodes as f64));
    o.set("ilp_max_vars", Json::Num(phase_cfg.ilp_max_vars as f64));
    o.set(
        "lint",
        Json::Str(
            match lint {
                LintPolicy::Off => "off",
                LintPolicy::Warn => "warn",
                LintPolicy::Deny => "deny",
            }
            .into(),
        ),
    );
    o.set(
        "equiv",
        Json::Str(
            match equiv {
                EquivPolicy::Off => "off",
                EquivPolicy::Warn => "warn",
                EquivPolicy::Deny => "deny",
            }
            .into(),
        ),
    );
    o.set(
        "dfa",
        Json::Str(
            match dfa {
                DfaPolicy::Off => "off",
                DfaPolicy::Warn => "warn",
                DfaPolicy::Deny => "deny",
            }
            .into(),
        ),
    );
    o.set("activity_enabled", Json::Bool(*enabled));
    o.set("activity_cut_budget", Json::Num(*cut_budget as f64));
    o.set(
        "activity_max_correlation_rate",
        Json::Num(*max_correlation_rate),
    );
    o
}

/// Stable error code for a flow failure ([`triphase_core::Error`]).
pub fn error_code(e: &Error) -> &'static str {
    match e {
        Error::Netlist(_) => "netlist",
        Error::Timing(_) => "timing",
        Error::Sim(_) => "sim",
        Error::Retime(_) => "retime",
        Error::Pnr(_) => "pnr",
        Error::Power(_) => "power",
        Error::BadInput(_) => "bad_input",
        Error::ValidationFailed(_) => "validation_failed",
        Error::Lint(_) => "lint_denied",
        Error::Equiv(_) => "equiv_denied",
        Error::Dfa(_) => "dfa_denied",
        Error::Panic(_) => "panic",
    }
}

fn num(v: f64) -> Json {
    Json::Num(v)
}

fn variant_json(v: &VariantResult) -> Json {
    let mut o = Json::obj();
    o.set("cells", num(v.stats.cells as f64));
    o.set("ffs", num(v.stats.ffs as f64));
    o.set("latches", num(v.stats.latches as f64));
    o.set("clock_gates", num(v.stats.clock_gates as f64));
    o.set("registers", num(v.registers() as f64));
    o.set("area_um2", num(v.area_um2));
    o.set("clock_sinks", num(v.clock_sinks as f64));
    o.set("clock_buffers", num(v.clock_buffers as f64));
    o.set("wirelength_um", num(v.wirelength_um));
    o.set("worst_setup_slack_ps", num(v.worst_setup_slack_ps));
    o.set("worst_hold_slack_ps", num(v.worst_hold_slack_ps));
    let mut p = Json::obj();
    for (group, g) in [
        ("clock", &v.power.clock),
        ("seq", &v.power.seq),
        ("comb", &v.power.comb),
    ] {
        let mut go = Json::obj();
        go.set("switching_mw", num(g.switching_mw));
        go.set("internal_mw", num(g.internal_mw));
        go.set("leakage_mw", num(g.leakage_mw));
        p.set(group, go);
    }
    p.set("total_mw", num(v.power.total_mw()));
    o.set("power", p);
    o.set("pnr_seconds", num(v.pnr_seconds));
    o.set("sim_seconds", num(v.sim_seconds));
    o
}

/// Serialize a [`FlowReport`] to its wire JSON. Every field that is a
/// deterministic function of (netlist, config) is included; wall-clock
/// fields keep a `_seconds` suffix so [`strip_timings`] can remove them
/// for bit-exactness comparisons.
pub fn report_json(r: &FlowReport) -> Json {
    let mut o = Json::obj();
    o.set("name", Json::Str(r.name.clone()));
    o.set("ff", variant_json(&r.ff));
    o.set("ms", variant_json(&r.ms));
    o.set("three_phase", variant_json(&r.three_phase));
    o.set(
        "preprocess_converted_ffs",
        num(r.preprocess.converted_ffs as f64),
    );
    o.set(
        "preprocess_icgs_inserted",
        num(r.preprocess.icgs_inserted as f64),
    );
    o.set("ilp_cost", num(r.ilp_cost as f64));
    o.set("ilp_optimal", Json::Bool(r.ilp_optimal));
    o.set("ilp_rung", Json::Str(r.ilp_rung.name().into()));
    o.set("ilp_status", Json::Str(r.ilp_status.name().into()));
    o.set("ilp_fallbacks", num(r.ilp_fallbacks as f64));
    o.set("ilp_seconds", num(r.ilp_seconds));
    o.set("sim_backend", Json::Str(r.sim_backend.into()));
    o.set("activity_source", Json::Str(r.activity_source.into()));
    o.set(
        "activity_correlation_rate",
        r.activity_correlation_rate.map_or(Json::Null, num),
    );
    o.set("convert_singles", num(r.convert.singles as f64));
    o.set("convert_back_to_back", num(r.convert.back_to_back as f64));
    o.set("convert_pi_latches", num(r.convert.pi_latches as f64));
    o.set(
        "convert_icgs_duplicated",
        num(r.convert.icgs_duplicated as f64),
    );
    o.set(
        "retime",
        match &r.retime {
            None => Json::Null,
            Some(rt) => {
                let mut t = Json::obj();
                t.set("ran", Json::Bool(rt.ran));
                t.set("fell_back", Json::Bool(rt.fell_back));
                t.set("original_ps", num(rt.original_ps));
                t.set("achieved_ps", num(rt.achieved_ps));
                t.set("met_target", Json::Bool(rt.met_target));
                t.set("movable", num(rt.movable as f64));
                t.set("pinned", num(rt.pinned as f64));
                t.set("p2_after", num(rt.p2_after as f64));
                t
            }
        },
    );
    let mut cg = Json::obj();
    cg.set("common_enable_gated", num(r.cg.common_enable_gated as f64));
    cg.set("m1_cells", num(r.cg.m1_cells as f64));
    cg.set("m2_replaced", num(r.cg.m2_replaced as f64));
    cg.set("ddcg_groups", num(r.cg.ddcg_groups as f64));
    cg.set("ddcg_gated", num(r.cg.ddcg_gated as f64));
    o.set("cg", cg);
    o.set("convert_seconds", num(r.convert_seconds));
    o.set("equiv_ms", r.equiv_ms.map_or(Json::Null, Json::Bool));
    o.set("equiv_3p", r.equiv_3p.map_or(Json::Null, Json::Bool));
    o.set(
        "lint",
        Json::Arr(
            r.lint
                .iter()
                .map(|rep| {
                    let mut l = Json::obj();
                    l.set(
                        "stage",
                        rep.stage
                            .map_or(Json::Null, |s| Json::Str(format!("{s:?}").to_lowercase())),
                    );
                    l.set("clean", Json::Bool(rep.is_clean()));
                    l.set("errors", num(rep.errors().len() as f64));
                    l.set("warnings", num(rep.warnings().len() as f64));
                    l
                })
                .collect(),
        ),
    );
    o.set(
        "equiv_formal",
        Json::Arr(
            r.equiv_formal
                .iter()
                .map(|(stage, outcome)| {
                    let mut e = Json::obj();
                    e.set("stage", Json::Str(stage.clone()));
                    e.set("equivalent", Json::Bool(outcome.verdict.is_equivalent()));
                    e.set("groups", num(outcome.groups as f64));
                    e
                })
                .collect(),
        ),
    );
    o.set(
        "dfa",
        Json::Arr(
            r.dfa
                .iter()
                .map(|rep| {
                    let mut d = Json::obj();
                    d.set("analysis", Json::Str(rep.analysis.into()));
                    d.set(
                        "stage",
                        rep.stage
                            .as_deref()
                            .map_or(Json::Null, |s| Json::Str(s.into())),
                    );
                    d.set("clean", Json::Bool(rep.is_clean()));
                    d.set("findings", num(rep.diagnostics.len() as f64));
                    d
                })
                .collect(),
        ),
    );
    o.set("reg_saving_vs_2ff_pct", num(r.reg_saving_vs_2ff()));
    o.set("reg_saving_vs_ms_pct", num(r.reg_saving_vs_ms()));
    o.set("power_saving_vs_ff_pct", num(r.power_saving_vs_ff()));
    o.set("power_saving_vs_ms_pct", num(r.power_saving_vs_ms()));
    o
}

/// Recursively remove wall-clock fields (`seconds` / `*_seconds` keys)
/// so two report trees can be compared for bit-exactness: timings are
/// the one part of a replayed flow that legitimately differs.
pub fn strip_timings(v: &mut Json) {
    match v {
        Json::Obj(fields) => {
            fields.retain(|(k, _)| k != "seconds" && !k.ends_with("_seconds"));
            for (_, v) in fields {
                strip_timings(v);
            }
        }
        Json::Arr(items) => {
            for item in items {
                strip_timings(item);
            }
        }
        _ => {}
    }
}

/// `ack` event: the server-assigned ids for one submit batch, in job
/// order.
pub fn ack_event(ids: &[u64]) -> Json {
    let mut e = Json::obj();
    e.set("event", Json::Str("ack".into()));
    e.set("proto", Json::Num(PROTOCOL_VERSION as f64));
    e.set(
        "jobs",
        Json::Arr(ids.iter().map(|&id| Json::Num(id as f64)).collect()),
    );
    e
}

/// `queued` event: the job's current position in the admission queue
/// (0 = next to run). Emitted at admission and re-emitted as the queue
/// drains, so a waiting client watches itself advance.
pub fn queued_event(job: u64, position: usize) -> String {
    let mut e = Json::obj();
    e.set("event", Json::Str("queued".into()));
    e.set("job", Json::Num(job as f64));
    e.set("position", Json::Num(position as f64));
    e.to_pretty()
}

/// `stage` progress event: one flow stage of `job` resolved, with its
/// cache key, hit/miss provenance, and how many memo entries this
/// stage's insert evicted (cache-pressure provenance).
pub fn stage_event(
    job: u64,
    stage: &str,
    key: u64,
    hit: bool,
    millis: u64,
    evictions: u64,
) -> Json {
    let mut e = Json::obj();
    e.set("event", Json::Str("stage".into()));
    e.set("job", Json::Num(job as f64));
    e.set("stage", Json::Str(stage.into()));
    e.set("key", Json::Str(format!("{key:016x}")));
    e.set("cache", Json::Str(if hit { "hit" } else { "miss" }.into()));
    e.set("millis", Json::Num(millis as f64));
    e.set("evictions", Json::Num(evictions as f64));
    e
}

/// `done` event for a successful job: the full report, per-stage cache
/// provenance, and (on request) the final 3-phase netlist snapshot.
pub fn done_ok(
    job: u64,
    name: &str,
    report: &FlowReport,
    prov: &[crate::engine::StageProv],
    netlist: Option<&str>,
) -> Json {
    let mut e = Json::obj();
    e.set("event", Json::Str("done".into()));
    e.set("job", Json::Num(job as f64));
    e.set("name", Json::Str(name.into()));
    e.set("ok", Json::Bool(true));
    e.set(
        "cached_report",
        Json::Bool(prov.first().is_some_and(|p| p.stage == "report" && p.hit)),
    );
    e.set(
        "provenance",
        Json::Arr(
            prov.iter()
                .map(|p| {
                    let mut o = Json::obj();
                    o.set("stage", Json::Str(p.stage.into()));
                    o.set("key", Json::Str(format!("{:016x}", p.key)));
                    o.set(
                        "cache",
                        Json::Str(if p.hit { "hit" } else { "miss" }.into()),
                    );
                    o.set("millis", Json::Num(p.millis as f64));
                    o
                })
                .collect(),
        ),
    );
    e.set("report", report_json(report));
    if let Some(text) = netlist {
        e.set("netlist", Json::Str(text.into()));
    }
    e
}

/// `done` event for a failed job: the stable error code plus detail.
pub fn done_err(job: u64, name: &str, code: &str, message: &str) -> Json {
    let mut e = Json::obj();
    e.set("event", Json::Str("done".into()));
    e.set("job", Json::Num(job as f64));
    e.set("name", Json::Str(name.into()));
    e.set("ok", Json::Bool(false));
    e.set("code", Json::Str(code.into()));
    e.set("message", Json::Str(message.into()));
    e
}

/// `done` event for a job shed at admission: code `overloaded` plus the
/// queue depth at shed time and a backoff hint a well-behaved client
/// honors before resubmitting.
pub fn done_overloaded(job: u64, name: &str, queued: usize, retry_after_ms: u64) -> Json {
    let mut e = done_err(
        job,
        name,
        "overloaded",
        &format!("queue full ({queued} jobs waiting); retry after the hinted backoff"),
    );
    e.set("queued", Json::Num(queued as f64));
    e.set("retry_after_ms", Json::Num(retry_after_ms as f64));
    e
}

/// `cancelled` event: answer to a `cancel` request, naming what the
/// cancel actually hit (`queued`, `running`, or `unknown` if the id
/// never existed or already finished).
pub fn cancelled_event(job: u64, state: &str) -> Json {
    let mut e = Json::obj();
    e.set("event", Json::Str("cancelled".into()));
    e.set("job", Json::Num(job as f64));
    e.set("state", Json::Str(state.into()));
    e
}

/// `status` event: queue depth (and parked bytes), worker count,
/// completed-job count, and the two cache tiers'
/// hit/miss/entry/byte/eviction counters.
pub fn status_event(
    queued: usize,
    queued_bytes: usize,
    workers: usize,
    done: u64,
    stage: crate::memo::TierStats,
    report: crate::memo::TierStats,
) -> Json {
    let mut e = Json::obj();
    e.set("event", Json::Str("status".into()));
    e.set("proto", Json::Num(PROTOCOL_VERSION as f64));
    e.set("queued", Json::Num(queued as f64));
    e.set("queued_bytes", Json::Num(queued_bytes as f64));
    e.set("workers", Json::Num(workers as f64));
    e.set("jobs_done", Json::Num(done as f64));
    for (tier, s) in [("stage_cache", stage), ("report_cache", report)] {
        let mut t = Json::obj();
        t.set("hits", Json::Num(s.hits as f64));
        t.set("misses", Json::Num(s.misses as f64));
        t.set("entries", Json::Num(s.entries as f64));
        t.set("bytes", Json::Num(s.bytes as f64));
        t.set("evictions", Json::Num(s.evictions as f64));
        e.set(tier, t);
    }
    e
}

/// `pong` event.
pub fn pong_event() -> Json {
    let mut e = Json::obj();
    e.set("event", Json::Str("pong".into()));
    e.set("proto", Json::Num(PROTOCOL_VERSION as f64));
    e
}

/// `bye` event, acknowledging a shutdown request and echoing the mode
/// the server will honor (`drain` or `now`).
pub fn bye_event(mode: &str) -> Json {
    let mut e = Json::obj();
    e.set("event", Json::Str("bye".into()));
    e.set("mode", Json::Str(mode.into()));
    e
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_round_trips_through_wire_json() {
        let mut cfg = FlowConfig {
            seed: 7,
            sim_cycles: 96,
            equiv_cycles: 128,
            retime: false,
            ddcg_threshold: 0.11,
            lint: LintPolicy::Deny,
            equiv: EquivPolicy::Warn,
            dfa: DfaPolicy::Off,
            sim_backend: SimBackend::Compiled,
            ..FlowConfig::default()
        };
        cfg.pnr.moves_per_cell = 3;
        cfg.activity.cut_budget = 9;
        let back = parse_config(&config_json(&cfg)).expect("round-trip parses");
        assert_eq!(
            triphase_core::flow_fingerprint(&triphase_netlist::Netlist::new("x"), &back),
            triphase_core::flow_fingerprint(&triphase_netlist::Netlist::new("x"), &cfg),
            "fingerprinted fields survive"
        );
        assert_eq!(back.lint, LintPolicy::Deny);
        assert_eq!(back.equiv, EquivPolicy::Warn);
        assert_eq!(back.dfa, DfaPolicy::Off);
        assert_eq!(back.equiv_cycles, 128);
        assert_eq!(back.sim_backend, SimBackend::Compiled);
    }

    #[test]
    fn unknown_keys_and_kinds_are_typed_errors() {
        let mut o = Json::obj();
        o.set("frobnicate", Json::Num(3.0));
        assert_eq!(parse_config(&o).expect_err("rejects").code, "bad_config");
        // Only the compiled kernel is accepted.
        for backend in ["scalar", "packed", "quantum"] {
            let mut o = Json::obj();
            o.set("sim_backend", Json::Str(backend.into()));
            assert_eq!(
                parse_config(&o).expect_err("rejects").code,
                "bad_config",
                "{backend}"
            );
        }
        assert_eq!(
            parse_request("{\"kind\":\"warp\"}")
                .expect_err("rejects")
                .code,
            "unknown_kind"
        );
        assert_eq!(
            parse_request("[1,2]").expect_err("rejects").code,
            "bad_request"
        );
        assert_eq!(
            parse_request("{nope").expect_err("rejects").code,
            "bad_json"
        );
    }

    #[test]
    fn protocol_mismatch_is_a_typed_bad_request_naming_the_version() {
        let err = parse_request("{\"proto\": 1, \"kind\": \"ping\"}").expect_err("v1 rejected");
        assert_eq!(err.code, "bad_request");
        assert!(
            err.message.contains("version 1") && err.message.contains("version 2"),
            "names both versions: {}",
            err.message
        );
        // The current version, and no version at all, both pass.
        assert!(parse_request("{\"proto\": 2, \"kind\": \"ping\"}").is_ok());
        assert!(parse_request("{\"kind\": \"ping\"}").is_ok());
        // A non-numeric version is still a typed error.
        let err = parse_request("{\"proto\": \"two\", \"kind\": \"ping\"}").expect_err("rejected");
        assert_eq!(err.code, "bad_request");
    }

    #[test]
    fn shutdown_modes_and_cancel_parse() {
        assert!(matches!(
            parse_request("{\"kind\": \"shutdown\"}"),
            Ok(Request::Shutdown { drain: true })
        ));
        assert!(matches!(
            parse_request("{\"kind\": \"shutdown\", \"mode\": \"now\"}"),
            Ok(Request::Shutdown { drain: false })
        ));
        assert_eq!(
            parse_request("{\"kind\": \"shutdown\", \"mode\": \"later\"}")
                .expect_err("rejects")
                .code,
            "bad_request"
        );
        assert!(matches!(
            parse_request("{\"kind\": \"cancel\", \"job\": 7}"),
            Ok(Request::Cancel { job: 7 })
        ));
        assert_eq!(
            parse_request("{\"kind\": \"cancel\"}")
                .expect_err("rejects")
                .code,
            "bad_request"
        );
    }

    #[test]
    fn deadline_folds_into_the_ilp_budget_at_parse_time() {
        let nl = triphase_netlist::Netlist::new("d");
        let text = triphase_netlist::snapshot::to_text(&nl);
        let mut req = Json::obj();
        req.set("kind", Json::Str("submit".into()));
        let mut job = Json::obj();
        job.set("netlist", Json::Str(text.clone()));
        job.set("deadline_ms", Json::Num(250.0));
        req.set("jobs", Json::Arr(vec![job]));
        let Ok(Request::Submit(jobs)) = parse_request(&req.to_pretty()) else {
            unreachable!("submit parses")
        };
        assert_eq!(jobs[0].deadline_ms, Some(250));
        assert_eq!(
            jobs[0].cfg.phase_cfg.time_limit,
            Some(std::time::Duration::from_millis(250))
        );
        assert_eq!(jobs[0].est_bytes, text.len());
        // A zero deadline is rejected, not silently ignored.
        let mut req0 = Json::obj();
        req0.set("kind", Json::Str("submit".into()));
        let mut job0 = Json::obj();
        job0.set("netlist", Json::Str(text));
        job0.set("deadline_ms", Json::Num(0.0));
        req0.set("jobs", Json::Arr(vec![job0]));
        assert_eq!(
            parse_request(&req0.to_pretty()).expect_err("rejects").code,
            "bad_request"
        );
    }

    #[test]
    fn report_with_non_converged_slack_parses_back() {
        let design = triphase_circuits::pipeline::linear_pipeline(3, 4, 1, 900.0);
        let cfg = FlowConfig {
            sim_cycles: 16,
            equiv_cycles: 32,
            ..FlowConfig::default()
        };
        let lib = triphase_cells::Library::synthetic_28nm();
        let mut report = triphase_core::run_flow(&design, &lib, &cfg).expect("flow runs");
        // What `evaluate` records when SMO does not converge.
        report.three_phase.worst_setup_slack_ps = f64::NEG_INFINITY;
        report.three_phase.worst_hold_slack_ps = f64::NEG_INFINITY;
        let text = report_json(&report).to_pretty();
        let parsed = Json::parse(&text).expect("non-finite slack stays valid JSON");
        let tp = parsed.get("three_phase").expect("variant present");
        assert_eq!(tp.get("worst_setup_slack_ps"), Some(&Json::Null));
        assert_eq!(tp.get("worst_hold_slack_ps"), Some(&Json::Null));
        let ff = parsed.get("ff").expect("variant present");
        assert_eq!(
            ff.get("worst_setup_slack_ps").and_then(Json::as_f64),
            Some(report.ff.worst_setup_slack_ps)
        );
    }

    /// A pipeline whose clock enables each span two consecutive stages,
    /// so conversion splits every clock gate's bank across phases and
    /// duplicates the gate.
    fn shared_enable_pipeline(gates: usize) -> Netlist {
        let mut nl = Netlist::new("shared_enable");
        let mut b = triphase_netlist::Builder::new(&mut nl, "u");
        let (ckp, ck) = b.netlist().add_input("ck");
        let mut w = b.word_input("d", 3);
        for g in 0..gates {
            let (_, en) = b.netlist().add_input(&format!("en{g}"));
            for _ in 0..2 {
                let x = b.xor_word(&w, &w.rotl(1));
                w = b.dffen_word(&x, en, ck);
            }
        }
        b.word_output("q", &w);
        nl.clock = Some(triphase_netlist::ClockSpec::single(ckp, 1000.0));
        nl
    }

    #[test]
    fn gated_design_converts_to_the_same_report_twice() {
        let design = shared_enable_pipeline(6);
        let cfg = FlowConfig {
            sim_cycles: 16,
            equiv_cycles: 32,
            ..FlowConfig::default()
        };
        let lib = triphase_cells::Library::synthetic_28nm();
        let run = || {
            let report = triphase_core::run_flow(&design, &lib, &cfg).expect("flow runs");
            assert!(report.convert.icgs_duplicated >= 2, "gates are split");
            let mut tree = report_json(&report);
            strip_timings(&mut tree);
            tree.to_pretty()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn strip_timings_removes_seconds_fields_recursively() {
        let mut v =
            Json::parse("{\"a_seconds\": 1, \"keep\": 2, \"nest\": [{\"seconds\": 3, \"b\": 4}]}")
                .expect("parses");
        strip_timings(&mut v);
        assert_eq!(v.get("a_seconds"), None);
        assert!(v.get("keep").is_some());
        let Some(Json::Arr(items)) = v.get("nest") else {
            unreachable!("nest survives")
        };
        assert_eq!(items[0].get("seconds"), None);
        assert!(items[0].get("b").is_some());
    }
}
