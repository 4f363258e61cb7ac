//! Per-layer metrics of a traced run: span totals from the staged
//! replay, plus direct timings of the service crate's public functions
//! (wire encoding and decoding, memo keys, journal appends and replay).

use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Instant;

use triphase_core::{FlowConfig, FlowReport, Stage, StageData, StageMemo};
use triphase_netlist::{snapshot, Netlist};
use triphase_serve::{report_key, AcceptRecord, Client, Journal, Json};

use crate::replay::Replay;
use crate::trace::{self, Tracer};
use crate::{stats, Outcome};

/// Counters a traced run gathers beside its spans.
#[derive(Default)]
pub struct Layers {
    /// Wall time of the untraced `run_flow` calls the replays are
    /// compared against.
    pub untraced_s: f64,
    pub repro_mismatch: usize,
    /// Designs whose register counts differ from `results/table1.txt`.
    pub table1_mismatch: usize,
    pub nonconverged: usize,
    pub flows: usize,
    pub ilp_optimal: usize,
    pub wirelength_um: f64,
    pub encode_ms: Vec<f64>,
    pub decode_ms: Vec<f64>,
    pub submit_bytes: Vec<f64>,
    pub done_bytes: Vec<f64>,
    pub unparseable_done: usize,
    pub key_ms: Vec<f64>,
    /// Accept records of the jobs, as the daemon journals them.
    pub accepts: Vec<AcceptRecord>,
    /// Stage records banked by cold flows, as the daemon journals them.
    pub stages: Vec<(u64, StageData)>,
    /// A journal the run's daemon wrote. When set, its replay is timed
    /// and its stage records replace [`Layers::stages`].
    pub run_journal: Option<PathBuf>,
    pub report_hit_rate: f64,
    pub stage_hit_rate: f64,
    pub evictions: f64,
    pub shed: f64,
}

impl Layers {
    /// Account one replayed flow and its untraced twin `direct`.
    pub fn add_flow(&mut self, nl: &Netlist, cfg: &FlowConfig, direct: &FlowReport, rep: &Replay) {
        self.flows += 1;
        self.nonconverged += rep.nonconverged;
        self.ilp_optimal += usize::from(rep.report.ilp_optimal);
        self.wirelength_um += [&rep.report.ff, &rep.report.ms, &rep.report.three_phase]
            .iter()
            .map(|v| v.wirelength_um)
            .sum::<f64>();

        let t = Instant::now();
        let text = snapshot::to_text(nl);
        let submit = Client::submit_request(&[(&nl.name, nl, cfg)]).to_pretty();
        self.encode_ms.push(t.elapsed().as_secs_f64() * 1e3);
        self.submit_bytes.push(submit.len() as f64);

        let t = Instant::now();
        let _ = std::hint::black_box(report_key(nl, cfg));
        self.key_ms.push(t.elapsed().as_secs_f64() * 1e3);

        let (done, parses) = crate::checks::done_frame(direct);
        let t = Instant::now();
        let _ = std::hint::black_box(snapshot::from_text(&text));
        let _ = std::hint::black_box(Json::parse(&done));
        self.decode_ms.push(t.elapsed().as_secs_f64() * 1e3);
        self.done_bytes.push(done.len() as f64);
        self.unparseable_done += usize::from(!parses);

        self.accepts.push(accept_record(
            self.accepts.len() as u64 + 1,
            &nl.name,
            text,
            cfg,
        ));
    }
}

/// The accept record the daemon journals when it admits a job.
pub fn accept_record(id: u64, name: &str, netlist_text: String, cfg: &FlowConfig) -> AcceptRecord {
    AcceptRecord {
        id,
        name: name.to_owned(),
        netlist_text,
        config: triphase_serve::proto::config_json(cfg),
        return_netlist: false,
        deadline_ms: None,
    }
}

/// A stage memo that never hits and keeps a copy of every record the
/// flow banks: run through `run_flow_memo`, it yields the stage records
/// a daemon journals for a cold job.
#[derive(Default)]
pub struct Recorder(Mutex<Vec<(u64, StageData)>>);

impl Recorder {
    pub fn into_records(self) -> Vec<(u64, StageData)> {
        self.0.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl StageMemo for Recorder {
    fn lookup(&self, _stage: Stage, _key: u64) -> Option<StageData> {
        None
    }

    fn record(&self, _stage: Stage, key: u64, data: &StageData) {
        self.0
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push((key, data.clone()));
    }
}

/// Time the daemon's journal traffic: `Journal::open_replay` of the
/// run's own journal when there is one, then `append_accept`, every
/// `append_stage` and `append_done` in a scratch journal under `dir`, and
/// the replay of that scratch journal when the run had none. Returns
/// (mean append ms, replay s).
fn journal_timings(layers: &Layers, dir: &Path) -> Result<(f64, f64), String> {
    let scratch = dir.join(format!("journal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::create_dir_all(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    let path = scratch.join("jobs.journal");
    fn io(p: &Path) -> impl Fn(std::io::Error) -> String + '_ {
        move |e| format!("journal {}: {e}", p.display())
    }
    let mut replay_s = None;
    let replayed;
    let stages = match &layers.run_journal {
        Some(run) => {
            let t = Instant::now();
            let (j, replay) = Journal::open_replay(run).map_err(io(run))?;
            replay_s = Some(t.elapsed().as_secs_f64());
            drop(j);
            replayed = replay.stages;
            &replayed
        }
        None => &layers.stages,
    };
    let mut appends = Vec::new();
    {
        let j = Journal::open(&path).map_err(io(&path))?;
        let mut timed = |f: &dyn Fn() -> std::io::Result<()>| -> Result<(), String> {
            let t = Instant::now();
            f().map_err(io(&path))?;
            appends.push(t.elapsed().as_secs_f64() * 1e3);
            Ok(())
        };
        for rec in &layers.accepts {
            timed(&|| j.append_accept(rec))?;
        }
        for (key, data) in stages {
            timed(&|| j.append_stage(*key, data))?;
        }
        for rec in &layers.accepts {
            timed(&|| j.append_done(rec.id, "ok"))?;
        }
    }
    let replay_s = match replay_s {
        Some(s) => s,
        None => {
            let t = Instant::now();
            let (j, replay) = Journal::open_replay(&path).map_err(io(&path))?;
            let s = t.elapsed().as_secs_f64();
            drop((j, replay));
            s
        }
    };
    let _ = std::fs::remove_dir_all(&scratch);
    Ok((stats::mean(&appends), replay_s))
}

/// Turn the spans and counters into the per-layer metrics, print the
/// ILP share, and write the Chrome trace to `trace_path`.
pub fn finish(
    tr: &Tracer,
    layers: Layers,
    out_dir: &Path,
    trace_path: &Path,
    meta: &[(String, String)],
    out: &mut Outcome,
) {
    let spans = tr.spans();
    let t = trace::totals(&spans);
    let sum = |names: &[&str]| {
        names
            .iter()
            .map(|n| t.get(n).copied().unwrap_or(0.0))
            .sum::<f64>()
    };
    let flow_s = sum(&["flow"]);
    let ilp_s = sum(&["ilp.solve"]);
    let (append_ms, replay_s) = match journal_timings(&layers, out_dir) {
        Ok(v) => v,
        Err(e) => {
            out.fail(e);
            (f64::NAN, f64::NAN)
        }
    };
    let flows = layers.flows.max(1) as f64;
    out.layer("pnr.place_route_s", sum(&["pnr.place_route"]), "s");
    out.layer("pnr.trial_place_s", sum(&["pnr.trial_place"]), "s");
    out.layer("pnr.wirelength_um", layers.wirelength_um, "um");
    out.layer("dfa.s", sum(&["dfa.const", "dfa.reset", "dfa.race"]), "s");
    out.layer("lint.s", sum(&["lint.run"]), "s");
    out.layer("sim.equiv_stream_s", sum(&["sim.equiv_stream"]), "s");
    out.layer("core.preprocess_s", sum(&["core.preprocess"]), "s");
    out.layer(
        "core.convert_s",
        sum(&["core.to_three_phase", "core.to_master_slave"]),
        "s",
    );
    out.layer("core.retime_s", sum(&["core.retime"]), "s");
    out.layer(
        "core.clockgate_s",
        trace::self_secs(&spans, "core.clockgate"),
        "s",
    );
    out.layer("activity.analyze_s", sum(&["activity.analyze"]), "s");
    out.layer("ilp.solve_s", ilp_s, "s");
    out.layer(
        "ilp.optimal_frac",
        layers.ilp_optimal as f64 / flows,
        "ratio",
    );
    out.layer("sim.activity_s", sum(&["sim.activity"]), "s");
    out.layer("netlist.opt_s", sum(&["netlist.opt"]), "s");
    out.layer("power.s", sum(&["power.estimate"]), "s");
    out.layer("timing.sta_s", sum(&["timing.sta"]), "s");
    out.layer("timing.c2_s", sum(&["timing.c2"]), "s");
    out.layer("timing.nonconverged", layers.nonconverged as f64, "count");
    out.layer("par.variant_wall_s", sum(&["par.variants"]), "s");
    out.layer("par.variant_busy_s", sum(&["par.variant"]), "s");
    out.layer("journal.append_ms", append_ms, "ms");
    out.layer("journal.replay_s", replay_s, "s");
    out.layer("memo.report_hit_rate", layers.report_hit_rate, "ratio");
    out.layer("memo.stage_hit_rate", layers.stage_hit_rate, "ratio");
    out.layer("memo.evictions", layers.evictions, "count");
    out.layer("memo.key_ms", stats::mean(&layers.key_ms), "ms");
    out.layer("proto.encode_ms", stats::mean(&layers.encode_ms), "ms");
    out.layer("proto.decode_ms", stats::mean(&layers.decode_ms), "ms");
    out.layer(
        "proto.submit_bytes",
        stats::mean(&layers.submit_bytes),
        "bytes",
    );
    out.layer("proto.done_bytes", stats::mean(&layers.done_bytes), "bytes");
    out.layer(
        "proto.unparseable_done",
        layers.unparseable_done as f64,
        "count",
    );
    out.layer("serve.shed", layers.shed, "count");
    out.layer("trace.coverage", trace::coverage(&spans, "flow"), "ratio");
    out.layer(
        "trace.overhead",
        if layers.untraced_s > 0.0 {
            flow_s / layers.untraced_s - 1.0
        } else {
            f64::NAN
        },
        "ratio",
    );
    out.layer("core.repro_mismatch", layers.repro_mismatch as f64, "count");
    out.layer(
        "core.table1_mismatch",
        layers.table1_mismatch as f64,
        "count",
    );
    out.note(format!(
        "ilp share of replayed flow wall: {:.4}% ({ilp_s:.4} s of {flow_s:.3} s over {} flows)",
        100.0 * ilp_s / flow_s.max(f64::MIN_POSITIVE),
        layers.flows
    ));
    match std::fs::write(trace_path, tr.chrome_json(meta)) {
        Ok(()) => out.note(format!(
            "trace: {} spans -> {}",
            spans.len(),
            trace_path.display()
        )),
        Err(e) => out.fail(format!("writing {}: {e}", trace_path.display())),
    }
}
