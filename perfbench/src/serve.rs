//! The `serve-mixed` workload: an in-process `triphase-serve` daemon
//! (journal on, one runner per core) fed by a generator over one
//! connection per core.
//!
//! Two kinds of phase share the daemon and its caches:
//! - open loop: the job list is sent on a fixed schedule whatever the
//!   daemon does; a job's latency runs from its scheduled send instant,
//!   so a stall is charged to every job it delays. Shed jobs are resent
//!   after the daemon's backoff hint with their clock still running.
//! - bursts: job lists sent at once, one after each chunk of the open
//!   loop; ok jobs over the makespan is the daemon's capacity, and the
//!   median over the bursts is reported.
//!
//! Each phase sends a fixed list of job kinds in a fixed order, so seeds
//! change the generated netlists and the edit values but not the mix.
//! Rows whose served reports carry a non-converged SMO slack (s13207,
//! s15850, MD5, SHA256) are left out: their `done` frames do not parse
//! (`proto.unparseable_done`), and a workload must not fail by design.
//! The batch workloads count that defect instead.

use std::collections::{HashMap, VecDeque};
use std::io::Write as _;
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use triphase_bench::{benchmarks, Scale};
use triphase_cells::Library;
use triphase_core::{run_flow, FlowConfig, FlowReport};
use triphase_netlist::gen::Recipe;
use triphase_netlist::{snapshot, Netlist, SplitMix64};
use triphase_serve::{
    read_frame, report_json, report_key, write_frame, Backoff, Client, Json, Server, ServerOptions,
    MAX_FRAME_DEFAULT,
};

use crate::checks;
use crate::gauge::{Gauge, Speeds};
use crate::layers::{self, Layers};
use crate::replay::replay;
use crate::stats;
use crate::trace::Tracer;
use crate::{out_dir, Outcome, RunCtx};

/// Table rows served; each is submitted once cold, and all but ArmM0,
/// the slowest, are then resubmitted and edited.
const DESIGNS: [&str; 4] = ["DES3", "s5378", "s9234", "ArmM0"];
/// Index into [`DESIGNS`] of the row the open loop iterates on.
const ITERATED: usize = 2;
/// Generated netlists in the open loop.
const RECIPES: usize = 2;
/// Rounds of edits (one of each kind) to the iterated row in the open
/// loop.
const OPEN_EDIT_ROUNDS: usize = 3;
/// Bursts, and rounds of row edits in each.
const BURSTS: usize = 2;
const BURST_EDIT_ROUNDS: usize = 2;
/// Resubmissions sent in each open-loop period.
const RESUBMITS_PER_PERIOD: usize = 10;
/// Blocks of set-ups (plan and server start) timed before the measured
/// work and after it, and set-ups per block (see [`Outcome::setup`]).
const SETUP_BLOCKS: usize = 3;
const SETUPS_PER_BLOCK: usize = 4;
/// Cycles of the scalar-simulator replay check per distinct input.
const REPLAY_CYCLES: usize = 48;
/// A burst keeps every core busy; it is scaled by the gauge's speed over
/// this much of the open loop before it (see [`Speeds::speed_before`]).
const BURST_GAUGE: Duration = Duration::from_secs(4);
/// Share of `--seconds` given to the open-loop phase.
const OPEN_SHARE: f64 = 0.75;
/// A phase that has not finished after this long counts its missing
/// jobs as failed.
const PHASE_LIMIT: Duration = Duration::from_secs(60);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// First submission: every stage and the report miss.
    First,
    /// Exact resubmission: a report-cache hit.
    Resubmit,
    /// `ddcg_threshold` changed: the clock-gate stage and the report miss.
    DdcgEdit,
    /// `pnr.seed` changed: the report misses, and so does the clock-gate
    /// stage, whose key holds the DDCG trial placement's options.
    PnrSeedEdit,
    /// The design renamed: its snapshot text changes, so every stage key
    /// misses.
    NetlistEdit,
}

const KINDS: [Kind; 5] = [
    Kind::First,
    Kind::Resubmit,
    Kind::DdcgEdit,
    Kind::PnrSeedEdit,
    Kind::NetlistEdit,
];

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::First => "first",
            Kind::Resubmit => "resubmit",
            Kind::DdcgEdit => "ddcg_edit",
            Kind::PnrSeedEdit => "pnr_seed_edit",
            Kind::NetlistEdit => "netlist_edit",
        }
    }
}

/// One input the generator can send.
struct Input {
    netlist: Arc<Netlist>,
    cfg: FlowConfig,
    key: u64,
    /// Index into [`DESIGNS`], for the quality-of-result sums.
    design: Option<usize>,
}

struct Job {
    kind: Kind,
    input: usize,
    /// Offset of the scheduled send from the phase start.
    offset: Duration,
    /// Phases alternate: `2k` is the `k`-th chunk of the open loop,
    /// `2k + 1` the burst after it.
    phase: usize,
}

impl Job {
    fn open_loop(&self) -> bool {
        self.phase % 2 == 0
    }
}

#[derive(Default)]
struct Rec {
    sched: Option<Instant>,
    sent: Option<Instant>,
    ack: Option<Instant>,
    first_stage: Option<Instant>,
    done: Option<Instant>,
    ok: bool,
    code: String,
    cached: bool,
    stage_hits: u32,
    stage_misses: u32,
    report: Option<Json>,
    done_bytes: usize,
    submit_bytes: usize,
    encode_ms: f64,
    decode_ms: f64,
    unparseable: bool,
}

/// Generator state shared by the sender and the per-connection readers.
struct Shared {
    recs: Mutex<Vec<Rec>>,
    /// Jobs sent on each connection and not yet acknowledged, in order.
    pending: Vec<Mutex<VecDeque<usize>>>,
    /// Server job id → job index.
    ids: Mutex<HashMap<u64, usize>>,
    /// Shed jobs waiting to be resent: (due, job).
    retries: Mutex<Vec<(Instant, usize)>>,
    backoff: Mutex<Backoff>,
    finished: Mutex<usize>,
    wake: Condvar,
    shed: AtomicU64,
    protocol_errors: Mutex<Vec<String>>,
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().expect("generator state poisoned")
}

fn recipe_inputs(seed: u64, n: usize) -> Vec<(Netlist, FlowConfig)> {
    let mut out = Vec::with_capacity(n);
    let mut tag = seed;
    while out.len() < n {
        for recipe in Recipe::stream(tag, 4 * n, 20, 8) {
            let nl = recipe.build();
            if nl.validate().is_err() || nl.stats().ffs == 0 {
                continue;
            }
            let mut cfg = FlowConfig {
                seed: recipe.seed + 1,
                sim_cycles: 128,
                equiv_cycles: 256,
                ..FlowConfig::default()
            };
            cfg.pnr.moves_per_cell = 2;
            out.push((nl, cfg));
            if out.len() == n {
                break;
            }
        }
        tag = tag.wrapping_add(0x9e37_79b9);
    }
    out
}

/// The inputs and the two phases' job lists. The lists are fixed; the
/// seed picks the generated netlists and the edit values.
fn plan(seed: u64, seconds: u64) -> Result<(Vec<Input>, Vec<Job>), String> {
    let mut rng = SplitMix64::new(seed ^ 0x5e7e);
    let all = benchmarks();
    let mut inputs = Vec::new();
    let add = |inputs: &mut Vec<Input>, nl: Netlist, cfg: FlowConfig, design| {
        let key = report_key(&nl, &cfg);
        inputs.push(Input {
            netlist: Arc::new(nl),
            cfg,
            key,
            design,
        });
        inputs.len() - 1
    };
    let mut bases = Vec::new();
    for (d, name) in DESIGNS.iter().enumerate() {
        let b = all
            .iter()
            .find(|b| b.name == *name)
            .ok_or_else(|| format!("no benchmark row named {name}"))?;
        bases.push(add(
            &mut inputs,
            b.build(),
            b.flow_config(Scale::Full),
            Some(d),
        ));
    }
    let recipes = recipe_inputs(rng.next_u64(), RECIPES);
    // The k-th edit of a kind to one base: distinct from every other
    // edit of that base, with the pnr seed and the new name drawn from
    // the seed.
    let mut edits: HashMap<(usize, &'static str), u64> = HashMap::new();
    let mut edit = |inputs: &mut Vec<Input>, base: usize, kind: Kind, rng: &mut SplitMix64| {
        let k = edits.entry((base, kind.name())).or_insert(0);
        *k += 1;
        let mut nl = (*inputs[base].netlist).clone();
        let mut cfg = inputs[base].cfg.clone();
        let draw = rng.next_u64() % 1000;
        match kind {
            Kind::DdcgEdit => cfg.ddcg_threshold *= 1.0 + 0.25 * *k as f64,
            Kind::PnrSeedEdit => cfg.pnr.seed = cfg.pnr.seed.wrapping_add(1000 * *k + draw),
            _ => nl.name = format!("{}_eco{k}_{draw}", nl.name),
        }
        let design = inputs[base].design;
        add(inputs, nl, cfg, design)
    };

    // Every phase sends its jobs in a fixed order, which keeps the
    // queueing pattern, and so the latency percentiles, the same across
    // seeds. The open loop spreads its flows out (see the periods
    // below).
    let recipe_bases: Vec<usize> = recipes
        .into_iter()
        .map(|(nl, cfg)| add(&mut inputs, nl, cfg, None))
        .collect();
    let slowest = bases[DESIGNS.len() - 1];
    let rows = &bases[..DESIGNS.len() - 1];
    use Kind::*;
    // The open loop's edits and resubmissions all go to one row, s9234,
    // as a designer iterating on one design while other rows arrive
    // cold. With one row behind them, the median latency falls inside a
    // block of like cache hits and the tail inside a block of like
    // flows, not on the boundary between two rows.
    let iterated = bases[ITERATED];
    let mut row_heads: Vec<(Kind, usize)> = rows.iter().map(|&b| (First, b)).collect();
    let mut recipe_heads: Vec<(Kind, usize)> = recipe_bases.iter().map(|&b| (First, b)).collect();
    for round in 0..OPEN_EDIT_ROUNDS {
        for kind in [DdcgEdit, PnrSeedEdit, NetlistEdit] {
            row_heads.push((kind, edit(&mut inputs, iterated, kind, &mut rng)));
            for &b in recipe_bases.iter().filter(|_| round == 0) {
                recipe_heads.push((kind, edit(&mut inputs, b, kind, &mut rng)));
            }
        }
    }
    // One period per row head. A period sends its row head, then a
    // generated-netlist head where one falls due, and late in the
    // period, when the row's flow has usually finished, resubmissions
    // of the iterated row once its cold answer is two periods old.
    let period =
        Duration::from_secs_f64(seconds as f64 * OPEN_SHARE) / (row_heads.len() + 1) as u32;
    let at = |p: usize, frac: f64| period * p as u32 + period.mul_f64(frac);
    let (nr, ng) = (row_heads.len(), recipe_heads.len());
    let mut g = recipe_heads.into_iter();
    let mut open = Vec::new();
    let mut resubmit_from = usize::MAX;
    for (p, head) in row_heads.into_iter().enumerate() {
        let mut starts = vec![head];
        if (p + 1) * ng / nr > p * ng / nr {
            starts.extend(g.next());
        }
        for (j, (kind, input)) in starts.into_iter().enumerate() {
            open.push((kind, input, p, at(p, 0.1 * j as f64)));
            if (kind, input) == (First, iterated) {
                resubmit_from = p + 2;
            }
        }
        for r in (0..RESUBMITS_PER_PERIOD).filter(|_| p >= resubmit_from) {
            let frac = 0.78 + 0.2 * r as f64 / RESUBMITS_PER_PERIOD as f64;
            open.push((Resubmit, iterated, p, at(p, frac)));
        }
    }
    // ArmM0, the slowest row, goes cold in a last period of its own: its
    // flow takes as long as four of the other rows' and would stall the
    // periods after it.
    open.push((First, slowest, nr, at(nr, 0.0)));
    // The open loop runs in `BURSTS` chunks of consecutive periods, each
    // followed by a burst, so that the bursts meet the machine at
    // several points of the run rather than at one.
    let chunk_of = |p: usize| p * BURSTS / (nr + 1);
    let chunk_start = |c: usize| at((0..=nr).find(|&p| chunk_of(p) == c).unwrap_or(0), 0.0);
    let mut jobs: Vec<Job> = open
        .into_iter()
        .map(|(kind, input, p, offset)| Job {
            kind,
            input,
            offset: offset - chunk_start(chunk_of(p)),
            phase: 2 * chunk_of(p),
        })
        .collect();

    // Bursts: resubmissions and fresh edits of the rows that ran in the
    // open loop's periods; no generated netlists, so a burst's work does
    // not change with the seed. Every burst edits anew, so each runs as
    // many flows as the first.
    for k in 0..BURSTS {
        for _ in 0..BURST_EDIT_ROUNDS {
            for kind in [DdcgEdit, PnrSeedEdit, NetlistEdit] {
                for &b in rows {
                    let edited = edit(&mut inputs, b, kind, &mut rng);
                    for (kind, input) in [(Resubmit, b), (kind, edited)] {
                        jobs.push(Job {
                            kind,
                            input,
                            offset: Duration::ZERO,
                            phase: 2 * k + 1,
                        });
                    }
                }
            }
        }
    }
    Ok((inputs, jobs))
}

/// Everything built before the timed work: inputs, job lists and a
/// running daemon with its journal.
struct Setup {
    inputs: Vec<Input>,
    jobs: Vec<Job>,
    server: Server,
    journal_dir: PathBuf,
}

fn setup(ctx: &RunCtx, round: usize) -> Result<Setup, String> {
    let (inputs, jobs) = plan(ctx.seed, ctx.seconds)?;
    let journal_dir = out_dir().join(format!("serve-{}-{round}", std::process::id()));
    let _ = std::fs::remove_dir_all(&journal_dir);
    std::fs::create_dir_all(&journal_dir).map_err(|e| format!("{}: {e}", journal_dir.display()))?;
    let server = Server::start(ServerOptions {
        workers: std::thread::available_parallelism().map_or(1, |n| n.get()),
        journal: Some(journal_dir.join("jobs.journal")),
        ..ServerOptions::default()
    })
    .map_err(|e| format!("starting the daemon: {e}"))?;
    Ok(Setup {
        inputs,
        jobs,
        server,
        journal_dir,
    })
}

fn stop(server: Server) -> (triphase_serve::TierStats, triphase_serve::TierStats) {
    server.stop();
    server.wait()
}

fn discard(s: Setup) {
    stop(s.server);
    let _ = std::fs::remove_dir_all(s.journal_dir);
}

pub fn run(ctx: &RunCtx) -> Result<Outcome, String> {
    let gauge = Gauge::start();
    let mut blocks = Vec::with_capacity(2 * SETUP_BLOCKS);
    let mut round = 0;
    // One timed block of set-ups; the daemons it started are stopped
    // after the block, all but the last, which is returned.
    let mut block = || -> Result<Setup, String> {
        let t = Instant::now();
        let mut made = Vec::with_capacity(SETUPS_PER_BLOCK);
        for _ in 0..SETUPS_PER_BLOCK {
            let s = setup(ctx, round);
            round += 1;
            match s {
                Ok(s) => made.push(s),
                Err(e) => {
                    made.into_iter().for_each(discard);
                    return Err(e);
                }
            }
        }
        blocks.push((t, Instant::now()));
        let last = made.pop().expect("at least one set-up");
        made.into_iter().for_each(discard);
        Ok(last)
    };
    let mut ready = block()?;
    for _ in 1..SETUP_BLOCKS {
        discard(std::mem::replace(&mut ready, block()?));
    }
    let Setup {
        inputs,
        jobs,
        server,
        journal_dir,
    } = ready;
    let mut out = Outcome::default();
    let conns = std::thread::available_parallelism().map_or(1, |n| n.get());
    let shared = Shared {
        recs: Mutex::new((0..jobs.len()).map(|_| Rec::default()).collect()),
        pending: (0..conns).map(|_| Mutex::new(VecDeque::new())).collect(),
        ids: Mutex::new(HashMap::new()),
        retries: Mutex::new(Vec::new()),
        backoff: Mutex::new(Backoff::new(ctx.seed)),
        finished: Mutex::new(0),
        wake: Condvar::new(),
        shed: AtomicU64::new(0),
        protocol_errors: Mutex::new(Vec::new()),
    };
    let generated = generate(server.addr(), &inputs, &jobs, &shared, conns);
    let (stage_tier, report_tier) = stop(server);
    let speeds = gauge.speeds();
    let journal = journal_dir.join("jobs.journal");
    let result = generated.and_then(|()| {
        evaluate(
            ctx,
            &inputs,
            &jobs,
            shared,
            (stage_tier, report_tier),
            &journal,
            &speeds,
            &mut out,
        )
    });
    let _ = std::fs::remove_dir_all(&journal_dir);
    result?;
    for _ in 0..SETUP_BLOCKS {
        discard(block()?);
    }
    out.setup(&blocks, SETUPS_PER_BLOCK, &gauge.finish());
    Ok(out)
}

/// Send both phases over `conns` connections, one reader thread each.
fn generate(
    addr: SocketAddr,
    inputs: &[Input],
    jobs: &[Job],
    shared: &Shared,
    conns: usize,
) -> Result<(), String> {
    let streams: Vec<TcpStream> = (0..conns)
        .map(|_| {
            let s = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
            s.set_nodelay(true).map_err(|e| e.to_string())?;
            Ok(s)
        })
        .collect::<Result<_, String>>()?;
    let mut writers: Vec<TcpStream> = streams
        .iter()
        .map(|s| s.try_clone().map_err(|e| e.to_string()))
        .collect::<Result<_, String>>()?;
    std::thread::scope(|scope| {
        for (c, stream) in streams.iter().enumerate() {
            scope.spawn(move || reader(c, stream, shared));
        }
        let mut sent = 0usize;
        let mut result = Ok(());
        for k in 0..2 * BURSTS {
            let phase: Vec<usize> = (0..jobs.len()).filter(|&i| jobs[i].phase == k).collect();
            result = phase_send(&phase, inputs, jobs, shared, &mut writers, &mut sent);
            if result.is_err() {
                break;
            }
        }
        for s in &streams {
            let _ = s.shutdown(Shutdown::Both);
        }
        result
    })
}

fn send(
    idx: usize,
    inputs: &[Input],
    jobs: &[Job],
    shared: &Shared,
    writers: &mut [TcpStream],
) -> Result<(), String> {
    let input = &inputs[jobs[idx].input];
    let c = idx % writers.len();
    let t = Instant::now();
    let name = format!("j{idx}");
    let frame = Client::submit_request(&[(&name, &input.netlist, &input.cfg)]).to_pretty();
    let encode_ms = t.elapsed().as_secs_f64() * 1e3;
    {
        let mut recs = lock(&shared.recs);
        let r = &mut recs[idx];
        r.encode_ms = encode_ms;
        r.submit_bytes = frame.len();
        r.sent = Some(Instant::now());
    }
    lock(&shared.pending[c]).push_back(idx);
    write_frame(&mut writers[c], &frame).map_err(|e| format!("send j{idx}: {e}"))?;
    writers[c].flush().map_err(|e| format!("send j{idx}: {e}"))
}

/// Send one phase's jobs on schedule (resending shed jobs when their
/// backoff is due) and wait until all of them are done.
fn phase_send(
    phase: &[usize],
    inputs: &[Input],
    jobs: &[Job],
    shared: &Shared,
    writers: &mut [TcpStream],
    sent_total: &mut usize,
) -> Result<(), String> {
    let start = Instant::now() + Duration::from_millis(20);
    {
        let mut recs = lock(&shared.recs);
        for &i in phase {
            recs[i].sched = Some(start + jobs[i].offset);
        }
    }
    let target = *sent_total + phase.len();
    let mut next = 0;
    let limit = start + PHASE_LIMIT;
    loop {
        let now = Instant::now();
        // Resends that are due.
        let due: Vec<usize> = {
            let mut r = lock(&shared.retries);
            let (due, wait): (Vec<_>, Vec<_>) = r.drain(..).partition(|(t, _)| *t <= now);
            *r = wait;
            due.into_iter().map(|(_, i)| i).collect()
        };
        for i in due {
            send(i, inputs, jobs, shared, writers)?;
        }
        if next < phase.len() {
            let i = phase[next];
            let at = start + jobs[i].offset;
            if at <= now {
                send(i, inputs, jobs, shared, writers)?;
                next += 1;
                continue;
            }
            let retry_at = lock(&shared.retries).iter().map(|(t, _)| *t).min();
            let wake = retry_at.map_or(at, |r| r.min(at));
            std::thread::sleep(wake.saturating_duration_since(Instant::now()));
            continue;
        }
        let finished = lock(&shared.finished);
        if *finished >= target || now >= limit {
            break;
        }
        let retry_at = lock(&shared.retries).iter().map(|(t, _)| *t).min();
        let wait = retry_at
            .map_or(Duration::from_millis(200), |r| {
                r.saturating_duration_since(now)
            })
            .min(Duration::from_millis(200));
        drop(
            shared
                .wake
                .wait_timeout(finished, wait)
                .expect("generator state poisoned"),
        );
    }
    *sent_total = target;
    Ok(())
}

fn job_of(text: &str) -> Option<u64> {
    let rest = &text[text.find("\"job\":")? + 6..];
    let digits: String = rest
        .trim_start()
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

/// Drain one connection: stamp acks, first stage events and dones.
fn reader(c: usize, stream: &TcpStream, shared: &Shared) {
    let mut stream = stream;
    loop {
        let Ok(text) = read_frame(&mut stream, MAX_FRAME_DEFAULT) else {
            return;
        };
        let now = Instant::now();
        let t = Instant::now();
        let parsed = Json::parse(&text);
        let decode_ms = t.elapsed().as_secs_f64() * 1e3;
        let ev = match parsed {
            Ok(ev) => ev,
            Err(e) => {
                // An unparseable frame: attribute it to its job if the
                // id can be read, so the job ends as failed.
                let idx = job_of(&text).and_then(|id| lock(&shared.ids).get(&id).copied());
                match idx {
                    Some(i) => finish(shared, i, now, |r| {
                        r.unparseable = true;
                        r.code = format!("unparseable done: {e}");
                        r.done_bytes = text.len();
                    }),
                    None => lock(&shared.protocol_errors).push(format!("unparseable frame: {e}")),
                }
                continue;
            }
        };
        let id = ev.get("job").and_then(Json::as_f64).map(|v| v as u64);
        let idx = id.and_then(|id| lock(&shared.ids).get(&id).copied());
        match ev.get("event").and_then(Json::as_str) {
            Some("ack") => {
                let Some(i) = lock(&shared.pending[c]).pop_front() else {
                    lock(&shared.protocol_errors).push("ack without a pending submit".into());
                    continue;
                };
                if let Some(Json::Arr(ids)) = ev.get("jobs") {
                    if let Some(id) = ids.first().and_then(Json::as_f64) {
                        lock(&shared.ids).insert(id as u64, i);
                    }
                }
                lock(&shared.recs)[i].ack = Some(now);
            }
            Some("stage") => {
                let Some(i) = idx else { continue };
                let mut recs = lock(&shared.recs);
                let r = &mut recs[i];
                r.first_stage.get_or_insert(now);
                if ev.get("stage").and_then(Json::as_str) != Some("report") {
                    if ev.get("cache").and_then(Json::as_str) == Some("hit") {
                        r.stage_hits += 1;
                    } else {
                        r.stage_misses += 1;
                    }
                }
            }
            Some("done") => {
                let Some(i) = idx else {
                    lock(&shared.protocol_errors).push("done for an unknown job".into());
                    continue;
                };
                let code = ev
                    .get("code")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_owned();
                if code == "overloaded" {
                    // Shed: resend after the hinted backoff; the job's
                    // clock keeps running from its scheduled instant.
                    shared.shed.fetch_add(1, Ordering::Relaxed);
                    let hint = ev
                        .get("retry_after_ms")
                        .and_then(Json::as_f64)
                        .map(|v| v as u64);
                    let delay = lock(&shared.backoff).delay(hint);
                    let mut recs = lock(&shared.recs);
                    recs[i].first_stage = None;
                    recs[i].stage_hits = 0;
                    recs[i].stage_misses = 0;
                    drop(recs);
                    lock(&shared.retries).push((now + delay, i));
                    shared.wake.notify_all();
                    continue;
                }
                finish(shared, i, now, |r| {
                    r.ok = ev.get("ok") == Some(&Json::Bool(true));
                    r.cached = ev.get("cached_report") == Some(&Json::Bool(true));
                    r.code = code;
                    r.report = ev.get("report").cloned();
                    r.done_bytes = text.len();
                    r.decode_ms = decode_ms;
                });
            }
            Some("error") => {
                lock(&shared.protocol_errors).push(format!("error event: {}", text.trim()))
            }
            _ => {}
        }
    }
}

fn finish(shared: &Shared, i: usize, now: Instant, f: impl FnOnce(&mut Rec)) {
    let mut recs = lock(&shared.recs);
    if recs[i].done.is_none() {
        recs[i].done = Some(now);
        f(&mut recs[i]);
        *lock(&shared.finished) += 1;
    }
    drop(recs);
    shared.wake.notify_all();
}

fn ms(a: Option<Instant>, b: Option<Instant>) -> Option<f64> {
    Some(b?.saturating_duration_since(a?).as_secs_f64() * 1e3)
}

/// Check every answer and turn the records into metrics.
fn evaluate(
    ctx: &RunCtx,
    inputs: &[Input],
    jobs: &[Job],
    shared: Shared,
    tiers: (triphase_serve::TierStats, triphase_serve::TierStats),
    journal: &Path,
    speeds: &Speeds,
    out: &mut Outcome,
) -> Result<(), String> {
    let recs = shared
        .recs
        .into_inner()
        .map_err(|_| "generator state poisoned".to_owned())?;
    for e in shared.protocol_errors.into_inner().unwrap_or_default() {
        out.fail(e);
    }
    let shed = shared.shed.into_inner();
    out.attempted = jobs.len() as u64;

    // Direct `run_flow` of every distinct input, after the timed phases.
    let lib = Library::synthetic_28nm();
    let mut distinct: Vec<usize> = jobs.iter().map(|j| j.input).collect();
    distinct.sort_unstable();
    distinct.dedup();
    let tr = Tracer::new();
    let mut layers = Layers::default();
    let mut reference: HashMap<usize, Result<FlowReport, String>> = HashMap::new();
    if ctx.trace {
        // Each cold row is run untraced, then replayed under spans.
        let firsts = jobs
            .iter()
            .filter(|j| j.kind == Kind::First)
            .map(|j| j.input);
        for i in firsts {
            let input = &inputs[i];
            let t = Instant::now();
            let direct = run_flow(&input.netlist, &lib, &input.cfg).map_err(|e| e.to_string());
            layers.untraced_s += t.elapsed().as_secs_f64();
            let (seed, backend) = (input.cfg.seed, input.cfg.sim_backend);
            let drive = move |n: &Netlist, c: u64| backend.collect(n, seed, c);
            let replayed = replay(
                &input.netlist,
                &lib,
                &input.cfg,
                &drive,
                backend.label(),
                &tr,
            );
            if let (Ok(d), Ok(rep)) = (&direct, &replayed) {
                match checks::compare_flow_reports(d, &rep.report) {
                    Ok(differs) => layers.repro_mismatch += usize::from(differs),
                    Err(e) => out.fail(format!(
                        "{}: replay drifted from run_flow: {e}",
                        input.netlist.name
                    )),
                }
                layers.add_flow(&input.netlist, &input.cfg, d, rep);
            } else if let Err(e) = &replayed {
                out.fail(format!("{}: replay error: {e}", input.netlist.name));
            }
            reference.insert(i, direct);
        }
    }
    let rest: Vec<usize> = distinct
        .iter()
        .copied()
        .filter(|i| !reference.contains_key(i))
        .collect();
    let computed = triphase_par::par_map(&rest, |&i| {
        let input = &inputs[i];
        run_flow(&input.netlist, &lib, &input.cfg).map_err(|e| e.to_string())
    });
    reference.extend(rest.into_iter().zip(computed));

    // Gate every direct report: both equivalence verdicts and the scalar
    // replay for each distinct input, and the Table I row for each table
    // row sent unedited. A Table I mismatch is counted as
    // `core.table1_mismatch` and named in a note; like the workload's
    // other known defects it does not fail the run.
    let table = checks::table1()?;
    let mut rng = SplitMix64::new(ctx.seed ^ 0xc4ec);
    for &i in &distinct {
        let Some(Ok(r)) = reference.get(&i) else {
            continue;
        };
        let input = &inputs[i];
        if let Err(e) = checks::check_flow(&input.netlist, r, rng.next_u64(), REPLAY_CYCLES) {
            out.fail(e);
        }
        let unedited = jobs.iter().any(|j| j.input == i && j.kind == Kind::First);
        let Some(d) = input.design.filter(|_| unedited) else {
            continue;
        };
        match table.get(DESIGNS[d]) {
            None => out.fail(format!("{}: no row in results/table1.txt", DESIGNS[d])),
            Some(want) => {
                if let Err(e) = checks::check_registers(r, want) {
                    layers.table1_mismatch += 1;
                    out.note(format!("table1 mismatch (core.table1_mismatch): {e}"));
                }
            }
        }
    }
    let reference: HashMap<usize, Json> = reference
        .into_iter()
        .filter_map(|(i, r)| match r {
            Ok(r) => Some((i, report_json(&r))),
            Err(e) => {
                out.fail(format!(
                    "{}: direct run_flow failed: {e}",
                    inputs[i].netlist.name
                ));
                None
            }
        })
        .collect();

    // Every answer: done, ok, parses, matches the direct flow; cache
    // hits repeat a computed answer for the same input byte for byte.
    let mut computed: HashMap<u64, Vec<String>> = HashMap::new();
    let mut hits = Vec::new();
    let mut repro_served = 0usize;
    let mut ok = vec![false; jobs.len()];
    for (i, (job, r)) in jobs.iter().zip(&recs).enumerate() {
        let input = &inputs[job.input];
        let name = format!("j{i} ({} {})", job.kind.name(), input.netlist.name);
        let Some(_) = r.done else {
            out.fail(format!("{name}: no done within the phase limit"));
            continue;
        };
        if r.unparseable {
            layers.unparseable_done += 1;
            out.fail(format!("{name}: {}", r.code));
            continue;
        }
        let Some(report) = r.report.as_ref().filter(|_| r.ok) else {
            out.fail(format!("{name}: done with code `{}`", r.code));
            continue;
        };
        let Some(want) = reference.get(&job.input) else {
            continue;
        };
        match checks::compare_reports(report, want) {
            Ok(differs) => repro_served += usize::from(differs),
            Err(e) => {
                out.fail(format!("{name}: served report differs from run_flow: {e}"));
                continue;
            }
        }
        let text = report.to_pretty();
        if r.cached {
            hits.push((i, input.key, text));
        } else {
            computed.entry(input.key).or_default().push(text);
        }
        ok[i] = true;
    }
    for (i, key, text) in hits {
        // A resubmission that raced its first submission ran a flow of
        // its own, and the cache keeps whichever answer was stored last.
        if !computed.get(&key).is_some_and(|c| c.contains(&text)) {
            ok[i] = false;
            out.fail(format!(
                "j{i} ({}): cache hit differs from every computed answer",
                inputs[jobs[i].input].netlist.name
            ));
        }
    }

    // Open-loop latency, burst capacity, quality of the served rows. The
    // times are in reference seconds (see [`crate::gauge`]); `wall` gives
    // them in wall time for the notes.
    let reference = |a: Option<Instant>, b: Option<Instant>| Some(speeds.secs(a?, b?) * 1e3);
    let open_ms_in = |t: &dyn Fn(Option<Instant>, Option<Instant>) -> Option<f64>| -> Vec<f64> {
        (0..jobs.len())
            .filter(|&i| ok[i] && jobs[i].open_loop())
            .filter_map(|i| t(recs[i].sched, recs[i].done))
            .collect()
    };
    let open_ms = open_ms_in(&reference);
    let open_wall_ms = open_ms_in(&ms);
    // Per burst: jobs, ok jobs, makespan in reference and in wall seconds.
    let bursts: Vec<(usize, usize, f64, f64)> = (0..BURSTS)
        .map(|k| {
            let of: Vec<usize> = (0..jobs.len())
                .filter(|&i| jobs[i].phase == 2 * k + 1)
                .collect();
            let start = of.iter().filter_map(|&i| recs[i].sched).min();
            let end = of.iter().filter_map(|&i| recs[i].done).max();
            let wall = ms(start, end).unwrap_or(f64::NAN) / 1e3;
            let speed = start.map_or(f64::NAN, |a| speeds.speed_before(a, BURST_GAUGE));
            let n_ok = of.iter().filter(|&&i| ok[i]).count();
            (of.len(), n_ok, wall * speed, wall)
        })
        .collect();
    let median_of = |f: &dyn Fn(&(usize, usize, f64, f64)) -> f64| {
        stats::median(&bursts.iter().map(f).collect::<Vec<_>>())
    };
    let makespan = median_of(&|b| b.2);
    let makespan_wall = median_of(&|b| b.3);
    let capacity = median_of(&|b| b.1 as f64 / b.2);
    let capacity_wall = median_of(&|b| b.1 as f64 / b.3);
    let (mut regs, mut power) = (0usize, 0.0f64);
    for (i, job) in jobs.iter().enumerate() {
        if job.kind != Kind::First || !ok[i] || inputs[job.input].design.is_none() {
            continue;
        }
        let report = recs[i].report.as_ref().expect("ok jobs carry a report");
        let tp = report.get("three_phase");
        let num = |path: &[&str]| -> f64 {
            let mut v = tp;
            for p in path {
                v = v.and_then(|x| x.get(p));
            }
            v.and_then(Json::as_f64).unwrap_or(f64::NAN)
        };
        regs += num(&["registers"]) as usize;
        power += num(&["power", "total_mw"]);
    }
    let tail = stats::tail_pct(open_ms.len());
    let open_n = jobs.iter().filter(|j| j.open_loop()).count();
    let open_span: f64 = (0..BURSTS)
        .filter_map(|c| {
            let offsets = jobs.iter().filter(|j| j.phase == 2 * c).map(|j| j.offset);
            offsets.max().map(|d| d.as_secs_f64())
        })
        .sum();
    out.note(format!(
        "open loop: {open_n} jobs over {open_span:.2} s ({:.2} jobs/s); latency p50 of {} ok samples, tail p{tail:.0} ({} samples beyond it)",
        open_n as f64 / open_span.max(1e-9),
        open_ms.len(),
        open_ms.len() - ((tail / 100.0) * open_ms.len() as f64).ceil() as usize
    ));
    for (k, (n, n_ok, span, wall)) in bursts.iter().enumerate() {
        out.note(format!(
            "burst {}: {n} jobs sent at once, {n_ok} ok in {span:.3} s ({wall:.3} s of wall time)",
            k + 1
        ));
    }
    for kind in KINDS {
        let of: Vec<usize> = (0..jobs.len()).filter(|&i| jobs[i].kind == kind).collect();
        let lat: Vec<f64> = of
            .iter()
            .filter(|&&i| ok[i] && jobs[i].open_loop())
            .filter_map(|&i| ms(recs[i].sched, recs[i].done))
            .collect();
        let hits: u32 = of.iter().map(|&i| recs[i].stage_hits).sum();
        let misses: u32 = of.iter().map(|&i| recs[i].stage_misses).sum();
        let cached = of.iter().filter(|&&i| recs[i].cached).count();
        out.note(format!(
            "kind {:14} share {:.3} ({} of {} jobs): report hits {cached}, stage hits {hits} misses {misses}, open-loop latency p50 {:.1} ms over {} samples",
            kind.name(),
            of.len() as f64 / jobs.len() as f64,
            of.len(),
            jobs.len(),
            stats::median(&lat),
            lat.len()
        ));
    }
    out.e2e("suite_s", makespan, "s");
    // Flow wall time inside the daemon, first stage event to done: per
    // row, the median over its open-loop jobs that ran a flow (report
    // misses), where flows seldom overlap; every row weighs equally.
    let flows_s_in = |t: &dyn Fn(Option<Instant>, Option<Instant>) -> Option<f64>| -> Vec<f64> {
        (0..DESIGNS.len())
            .filter_map(|d| {
                let v: Vec<f64> = (0..jobs.len())
                    .filter(|&i| ok[i] && jobs[i].open_loop() && !recs[i].cached)
                    .filter(|&i| inputs[jobs[i].input].design == Some(d))
                    .filter_map(|i| t(recs[i].first_stage, recs[i].done).map(|v| v / 1e3))
                    .collect();
                (!v.is_empty()).then(|| stats::median(&v))
            })
            .collect()
    };
    let flows_s = flows_s_in(&reference);
    out.note(format!(
        "gauge: {} samples, median speed {:.4}; in wall time suite_s {makespan_wall:.6} s, flow_s_geomean {:.6} s, latency_p50_ms {:.3}, latency_p95_ms {:.3}, jobs_per_s {:.6}",
        speeds.len(),
        speeds.median(),
        stats::geomean(&flows_s_in(&ms)),
        stats::median(&open_wall_ms),
        stats::percentile(&open_wall_ms, tail),
        capacity_wall
    ));
    out.e2e("flow_s_geomean", stats::geomean(&flows_s), "s");
    out.e2e("regs_3p", regs as f64, "count");
    out.e2e("power_3p_mw", power, "mW");
    out.e2e("latency_p50_ms", stats::median(&open_ms), "ms");
    out.e2e("latency_p95_ms", stats::percentile(&open_ms, tail), "ms");
    out.e2e("jobs_per_s", capacity, "1/s");

    if !ctx.trace {
        return Ok(());
    }
    // Client-side spans of every job, and the daemon-only layers.
    let pick = |f: &dyn Fn(&Rec) -> Option<f64>| -> Vec<f64> {
        (0..jobs.len())
            .filter(|&i| ok[i])
            .filter_map(|i| f(&recs[i]))
            .collect()
    };
    for (i, r) in recs.iter().enumerate() {
        let (Some(sched), Some(done)) = (r.sched, r.done) else {
            continue;
        };
        let who = format!(
            "j{i} {} {}",
            jobs[i].kind.name(),
            inputs[jobs[i].input].netlist.name
        );
        let root = tr.record("serve.job", &who, None, sched, done);
        if let (Some(a), Some(b)) = (r.sent, r.ack) {
            tr.record("serve.ack", &who, Some(root), a, b);
        }
        if let (Some(a), Some(b)) = (r.ack, r.first_stage) {
            tr.record("queue.wait", &who, Some(root), a, b);
        }
        if let Some(a) = r.first_stage {
            tr.record("engine.run", &who, Some(root), a, done);
        }
    }
    let report_line = |out: &mut Outcome, name: &str, v: &[f64]| {
        let tail = stats::tail_pct(v.len());
        out.note(format!(
            "metric {name}_p50 = {} ms; {name}_p95 = {} ms (nearest-rank p{tail:.0}; {} samples)",
            stats::median(v),
            stats::percentile(v, tail),
            v.len()
        ));
    };
    report_line(out, "serve.ack_ms", &pick(&|r| ms(r.sent, r.ack)));
    report_line(out, "queue.wait_ms", &pick(&|r| ms(r.ack, r.first_stage)));
    report_line(out, "engine.run_ms", &pick(&|r| ms(r.first_stage, r.done)));
    let lag: Vec<f64> = (0..jobs.len())
        .filter(|&i| jobs[i].open_loop())
        .filter_map(|i| ms(recs[i].sched, recs[i].sent))
        .collect();
    out.note(format!(
        "metric loadgen.lag_ms_p95 = {} ms ({} sends)",
        stats::percentile(&lag, 95.0),
        lag.len()
    ));
    let (stage_tier, report_tier) = tiers;
    let rate = |h: u64, m: u64| h as f64 / (h + m).max(1) as f64;
    layers.report_hit_rate = rate(report_tier.hits, report_tier.misses);
    layers.stage_hit_rate = rate(stage_tier.hits, stage_tier.misses);
    layers.evictions = (stage_tier.evictions + report_tier.evictions) as f64;
    layers.shed = shed as f64;
    layers.repro_mismatch += repro_served;
    // The wire cost of every job replaces the per-row estimates.
    layers.encode_ms = pick(&|r| Some(r.encode_ms));
    layers.submit_bytes = pick(&|r| Some(r.submit_bytes as f64));
    layers.done_bytes = pick(&|r| Some(r.done_bytes as f64));
    layers.decode_ms = (0..jobs.len())
        .filter(|&i| ok[i])
        .map(|i| {
            let text = snapshot::to_text(&inputs[jobs[i].input].netlist);
            let t = Instant::now();
            let _ = std::hint::black_box(snapshot::from_text(&text));
            recs[i].decode_ms + t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    layers.key_ms = jobs
        .iter()
        .map(|j| {
            let input = &inputs[j.input];
            let t = Instant::now();
            let _ = std::hint::black_box(report_key(&input.netlist, &input.cfg));
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    layers.accepts = jobs
        .iter()
        .enumerate()
        .map(|(i, j)| {
            let input = &inputs[j.input];
            let text = snapshot::to_text(&input.netlist);
            layers::accept_record(i as u64 + 1, &format!("j{i}"), text, &input.cfg)
        })
        .collect();
    layers.run_journal = Some(journal.to_path_buf());
    layers::finish(&tr, layers, &out_dir(), &ctx.trace_path, &ctx.meta, out);
    Ok(())
}
