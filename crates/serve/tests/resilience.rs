//! Overload, deadline, cancellation, and drain behavior over real
//! sockets: the daemon sheds excess load with typed `overloaded` +
//! `retry_after_ms`, aborts past-deadline jobs with the last banked
//! stage named, kills queued and running jobs on `cancel`, and keeps
//! serving after a contained worker panic.

use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use triphase_circuits::pipeline::linear_pipeline;
use triphase_core::FlowConfig;
use triphase_fault::{Fault, FaultPlan, Injector};
use triphase_netlist::{snapshot, Netlist};
use triphase_serve::{Client, Json, Server, ServerOptions};

fn quick_cfg() -> FlowConfig {
    let mut cfg = FlowConfig {
        sim_cycles: 16,
        equiv_cycles: 32,
        ..FlowConfig::default()
    };
    cfg.pnr.moves_per_cell = 2;
    cfg
}

fn tiny_server(queue_depth: usize) -> Server {
    Server::start(ServerOptions {
        workers: 1,
        queue_depth,
        ..ServerOptions::default()
    })
    .expect("bind")
}

/// Build a submit frame with per-job extras (deadline etc.) the plain
/// [`Client::submit_request`] helper does not set.
fn submit_with(name: &str, nl: &Netlist, cfg: &FlowConfig, deadline_ms: Option<u64>) -> Json {
    let mut j = Json::obj();
    j.set("name", Json::Str(name.into()));
    j.set("netlist", Json::Str(snapshot::to_text(nl)));
    j.set("config", triphase_serve::proto::config_json(cfg));
    if let Some(ms) = deadline_ms {
        j.set("deadline_ms", Json::Num(ms as f64));
    }
    let mut req = Json::obj();
    req.set("kind", Json::Str("submit".into()));
    req.set("jobs", Json::Arr(vec![j]));
    req
}

fn recv_done_for(client: &mut Client, id: u64) -> Json {
    loop {
        let ev = client.recv().expect("event");
        if ev.get("event").and_then(Json::as_str) == Some("done")
            && ev.get("job").and_then(Json::as_f64) == Some(id as f64)
        {
            return ev;
        }
    }
}

fn acked_ids(ack: &Json) -> Vec<u64> {
    let Some(Json::Arr(ids)) = ack.get("jobs") else {
        panic!("ack without ids: {}", ack.to_pretty());
    };
    ids.iter()
        .filter_map(Json::as_f64)
        .map(|f| f as u64)
        .collect()
}

#[test]
fn overload_sheds_with_retry_hint_and_recovers_after_drain() {
    let server = tiny_server(1);
    let mut client = Client::connect(server.addr()).expect("connect");
    let cfg = quick_cfg();
    let design = linear_pipeline(3, 4, 1, 900.0);

    // A 6-job batch against a depth-1 queue: every reservation happens
    // before any commit, so exactly one job is admitted and five shed.
    let jobs: Vec<(&str, &Netlist, &FlowConfig)> =
        (0..6).map(|_| ("burst", &design, &cfg)).collect();
    client.send(&Client::submit_request(&jobs)).expect("submit");
    let ack = client.recv().expect("ack");
    assert_eq!(ack.get("event").and_then(Json::as_str), Some("ack"));
    let ids = acked_ids(&ack);
    assert_eq!(ids.len(), 6, "ack names every job, shed or not");

    let (mut served, mut shed) = (Vec::new(), Vec::new());
    while served.len() + shed.len() < 6 {
        let ev = client.recv().expect("event");
        if ev.get("event").and_then(Json::as_str) != Some("done") {
            continue;
        }
        if ev.get("ok") == Some(&Json::Bool(true)) {
            served.push(ev);
        } else {
            assert_eq!(
                ev.get("code").and_then(Json::as_str),
                Some("overloaded"),
                "{}",
                ev.to_pretty()
            );
            let hint = ev
                .get("retry_after_ms")
                .and_then(Json::as_f64)
                .expect("retry hint present") as u64;
            assert!((25..=30_000).contains(&hint), "hint in bounds: {hint}");
            shed.push(ev);
        }
    }
    assert_eq!((served.len(), shed.len()), (1, 5));

    // The queue drained: an immediate resubmit is admitted and served
    // (from the report cache, even).
    let (_, done) = client.convert("retry", &design, &cfg).expect("resubmit");
    assert_eq!(done.get("ok"), Some(&Json::Bool(true)));
    server.stop();
    server.wait();
}

/// Fault hook that parks the first flow reaching `site` until the test
/// releases it, and never injects a fault: it keeps a worker provably
/// busy for exactly as long as a test needs.
#[derive(Debug)]
struct Gate {
    site: &'static str,
    /// (a flow is parked, the gate is released)
    state: Mutex<(bool, bool)>,
    cv: Condvar,
}

impl Gate {
    fn new(site: &'static str) -> Arc<Gate> {
        Arc::new(Gate {
            site,
            state: Mutex::new((false, false)),
            cv: Condvar::new(),
        })
    }

    /// Block until a flow is parked at the gate.
    fn wait_parked(&self) {
        let state = self.state.lock().expect("gate lock");
        let (state, timeout) = self
            .cv
            .wait_timeout_while(state, Duration::from_secs(60), |s| !s.0)
            .expect("gate lock");
        assert!(state.0 && !timeout.timed_out(), "no flow reached the gate");
    }

    fn release(&self) {
        self.state.lock().expect("gate lock").1 = true;
        self.cv.notify_all();
    }
}

impl Injector for Gate {
    fn fault_at(&self, site: &str) -> Option<Fault> {
        if site == self.site {
            let mut state = self.state.lock().expect("gate lock");
            if !state.0 {
                state.0 = true;
                self.cv.notify_all();
                let _released = self.cv.wait_while(state, |s| !s.1).expect("gate lock");
            }
        }
        None
    }
}

/// A one-worker server whose flows pass through `gate`.
fn gated_server(gate: &Arc<Gate>) -> Server {
    Server::start(ServerOptions {
        workers: 1,
        queue_depth: 8,
        fault: Some(gate.clone()),
        ..ServerOptions::default()
    })
    .expect("bind")
}

#[test]
fn expired_deadline_is_a_typed_error_naming_the_banked_prefix() {
    let gate = Gate::new("flow.stage.preprocess");
    let server = gated_server(&gate);
    let mut client = Client::connect(server.addr()).expect("connect");
    let cfg = quick_cfg();
    let blocker = linear_pipeline(3, 4, 1, 900.0);
    let hurried = linear_pipeline(2, 5, 1, 900.0);

    // Park the single worker inside the blocker's flow, then submit a
    // job whose 1 ms deadline is long gone by the time the worker is
    // released and picks it up.
    client
        .send(&Client::submit_request(&[("blocker", &blocker, &cfg)]))
        .expect("submit blocker");
    let ack1 = client.recv().expect("ack 1");
    let blocker_id = acked_ids(&ack1)[0];
    gate.wait_parked();
    client
        .send(&submit_with("hurried", &hurried, &cfg, Some(1)))
        .expect("submit hurried");
    // The hurried job's deadline clock starts at admission, before its
    // ack is sent; the blocker's stage events may arrive first.
    let hurried_id = loop {
        let ev = client.recv().expect("event");
        if ev.get("event").and_then(Json::as_str) == Some("ack") {
            break acked_ids(&ev)[0];
        }
    };
    std::thread::sleep(Duration::from_millis(2));
    gate.release();
    let mut blocker_done = None;
    // The blocker's done arrives before the hurried job's; collect both.
    let hurried_done = loop {
        let ev = client.recv().expect("event");
        if ev.get("event").and_then(Json::as_str) == Some("done") {
            let job = ev.get("job").and_then(Json::as_f64).map(|f| f as u64);
            if job == Some(blocker_id) {
                blocker_done = Some(ev);
            } else if job == Some(hurried_id) {
                break ev;
            }
        }
    };
    assert_eq!(
        hurried_done.get("code").and_then(Json::as_str),
        Some("deadline_exceeded"),
        "{}",
        hurried_done.to_pretty()
    );
    let msg = hurried_done
        .get("message")
        .and_then(Json::as_str)
        .expect("message");
    assert!(
        msg.contains("last banked stage: none"),
        "aborted before any stage banked: {msg}"
    );
    // The blocker itself was unaffected (its done landed first — the
    // single worker ran it to completion before even looking at the
    // hurried job).
    let blocker_done = blocker_done.expect("blocker finished before the hurried job");
    assert_eq!(blocker_done.get("ok"), Some(&Json::Bool(true)));
    server.stop();
    server.wait();
}

#[test]
fn cancel_kills_queued_jobs_and_running_jobs_at_stage_boundaries() {
    // The big job parks at its first stage's fault site until the test
    // releases it, so it is provably still running while both cancels
    // land, and the small job behind it provably still queued.
    let gate = Gate::new("flow.stage.preprocess");
    let server = gated_server(&gate);
    let mut client = Client::connect(server.addr()).expect("connect");
    let cfg = quick_cfg();
    let big = linear_pipeline(10, 10, 1, 900.0);
    let small = linear_pipeline(2, 3, 1, 900.0);
    let cancel = |job: u64| {
        let mut req = Json::obj();
        req.set("kind", Json::Str("cancel".into()));
        req.set("job", Json::Num(job as f64));
        req
    };

    client
        .send(&Client::submit_request(&[("big", &big, &cfg)]))
        .expect("submit big");
    let big_id = acked_ids(&client.recv().expect("ack"))[0];
    gate.wait_parked();
    client
        .send(&Client::submit_request(&[("small", &small, &cfg)]))
        .expect("submit small");

    // Cancel the queued job: its done is typed `cancelled`, and the
    // canceller hears which state the cancel hit. Then cancel the
    // running one, and let it reach its next stage boundary.
    let mut small_id = None;
    let mut cancel_sent = false;
    let mut saw_cancelled_queued = false;
    loop {
        let ev = client.recv().expect("event");
        match ev.get("event").and_then(Json::as_str) {
            Some("ack") => {
                small_id = Some(acked_ids(&ev)[0]);
                client
                    .send(&cancel(acked_ids(&ev)[0]))
                    .expect("cancel queued");
                cancel_sent = true;
            }
            Some("cancelled") => {
                let job = ev.get("job").and_then(Json::as_f64).map(|f| f as u64);
                let state = ev.get("state").and_then(Json::as_str);
                if job == small_id {
                    assert_eq!(state, Some("queued"), "{}", ev.to_pretty());
                    saw_cancelled_queued = true;
                    client.send(&cancel(big_id)).expect("cancel running");
                } else {
                    assert_eq!(job, Some(big_id));
                    assert_eq!(state, Some("running"), "{}", ev.to_pretty());
                    gate.release();
                }
            }
            Some("done") => {
                let job = ev.get("job").and_then(Json::as_f64).map(|f| f as u64);
                if job == small_id {
                    assert!(cancel_sent);
                    assert_eq!(
                        ev.get("code").and_then(Json::as_str),
                        Some("cancelled"),
                        "{}",
                        ev.to_pretty()
                    );
                } else if job == Some(big_id) {
                    assert_eq!(
                        ev.get("code").and_then(Json::as_str),
                        Some("cancelled"),
                        "{}",
                        ev.to_pretty()
                    );
                    let msg = ev.get("message").and_then(Json::as_str).expect("msg");
                    assert!(msg.contains("last banked stage"), "{msg}");
                    break;
                }
            }
            _ => {}
        }
    }
    assert!(saw_cancelled_queued);

    // Cancelling an unknown id is answered, not ignored.
    client.send(&cancel(99_999)).expect("cancel unknown");
    let ev = client.recv().expect("cancelled event");
    assert_eq!(ev.get("event").and_then(Json::as_str), Some("cancelled"));
    assert_eq!(ev.get("state").and_then(Json::as_str), Some("unknown"));
    server.stop();
    server.wait();
}

#[test]
fn queue_keeps_serving_after_a_contained_worker_panic() {
    let fault = FaultPlan::new(1)
        .inject("flow.stage.retime", Fault::Panic)
        .shared();
    let server = Server::start(ServerOptions {
        workers: 1,
        fault: Some(fault),
        ..ServerOptions::default()
    })
    .expect("bind");
    let mut client = Client::connect(server.addr()).expect("connect");
    let cfg = quick_cfg();
    let design = linear_pipeline(3, 4, 1, 900.0);

    let (_, done) = client.convert("victim", &design, &cfg).expect("first run");
    assert_eq!(done.get("code").and_then(Json::as_str), Some("panic"));

    // The daemon survived its worker's panic: control plane still
    // answers, and the resubmission is served to completion (the banked
    // prefix replays; retime's fault site is skipped on a cache hit).
    client
        .send(&Json::parse("{\"kind\": \"ping\"}").expect("ping"))
        .expect("send ping");
    assert_eq!(
        client
            .recv()
            .expect("pong")
            .get("event")
            .and_then(Json::as_str),
        Some("pong")
    );
    let (_, done2) = client.convert("victim", &design, &cfg).expect("second run");
    assert_eq!(
        done2.get("ok"),
        Some(&Json::Bool(true)),
        "{}",
        done2.to_pretty()
    );
    server.stop();
    server.wait();
}

#[test]
fn drain_shutdown_finishes_queued_work_before_stopping() {
    let server = tiny_server(8);
    let addr = server.addr();
    let mut client = Client::connect(addr).expect("connect");
    let cfg = quick_cfg();
    let designs = [
        linear_pipeline(3, 4, 1, 900.0),
        linear_pipeline(2, 5, 1, 900.0),
    ];
    let jobs: Vec<(&str, &Netlist, &FlowConfig)> =
        designs.iter().map(|nl| ("drainee", nl, &cfg)).collect();
    client.send(&Client::submit_request(&jobs)).expect("submit");
    let ids = acked_ids(&client.recv().expect("ack"));

    // Shutdown in drain mode from a second connection: the bye echoes
    // the mode, and every already-admitted job still completes.
    let mut admin = Client::connect(addr).expect("admin connect");
    admin
        .send(&Json::parse("{\"kind\": \"shutdown\", \"mode\": \"drain\"}").expect("req"))
        .expect("send shutdown");
    let bye = admin.recv().expect("bye");
    assert_eq!(bye.get("event").and_then(Json::as_str), Some("bye"));
    assert_eq!(bye.get("mode").and_then(Json::as_str), Some("drain"));

    for &id in &ids {
        let done = recv_done_for(&mut client, id);
        assert_eq!(
            done.get("ok"),
            Some(&Json::Bool(true)),
            "{}",
            done.to_pretty()
        );
    }
    server.wait();
}
