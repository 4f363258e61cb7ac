//! `triphase-serve` — conversion-as-a-service: a std-only TCP daemon
//! that runs the FF → 3-phase flow ([`triphase_core::run_flow`]) behind
//! a length-framed JSON wire protocol, with an async job queue, a
//! worker pool, and a two-tier memoization store keyed on the flow's
//! fingerprint and per-stage keys ([`triphase_core::flow_fingerprint`],
//! [`triphase_core::stage_key`]). With a journal the stage tier is
//! durable, which makes it the flow's resume mechanism across daemon
//! restarts.
//!
//! Why a daemon: the flow's dominant costs (P&R, simulation, the ILP)
//! recur identically across ECO-style iterations on the same design.
//! Holding the caches in a long-lived process turns a resubmitted
//! netlist into a report-cache hit and an *edited* netlist into a
//! partial replay — only stages at or after the first divergent
//! stage key re-run, with hit/miss provenance recorded per
//! job in the response ([`engine::StageProv`]).
//!
//! The wire format ([`frame`]) is a 4-byte big-endian length prefix
//! followed by UTF-8 JSON ([`json`]); the schema ([`proto`]) follows
//! the repo's CLI conventions — stable machine-matchable codes, typed
//! errors for every malformed input, no panics on hostile bytes.
//!
//! ```
//! use triphase_serve::{Client, Server, ServerOptions};
//! use triphase_core::FlowConfig;
//! use triphase_circuits::pipeline::linear_pipeline;
//!
//! let server = Server::start(ServerOptions::default())?;
//! let mut client = Client::connect(server.addr())?;
//! let design = linear_pipeline(3, 4, 1, 900.0);
//! let cfg = FlowConfig { sim_cycles: 16, equiv_cycles: 32, ..FlowConfig::default() };
//! let (stages, done) = client.convert("demo", &design, &cfg).expect("served");
//! assert_eq!(done.get("ok"), Some(&triphase_serve::json::Json::Bool(true)));
//! assert!(!stages.is_empty());
//! server.stop();
//! server.wait();
//! # Ok::<(), std::io::Error>(())
//! ```

pub mod client;
pub mod engine;
pub mod frame;
pub mod journal;
pub mod json;
pub mod memo;
pub mod proto;
pub mod queue;
pub mod server;

pub use client::{Backoff, Client, ClientError};
pub use engine::{CancelToken, CancelUnwind, Engine, StageProv};
pub use frame::{read_frame, write_frame, FrameError, MAX_FRAME_DEFAULT};
pub use journal::{AcceptRecord, Journal, Replay};
pub use json::Json;
pub use memo::{report_key, MemoStore, TierStats};
pub use proto::{parse_request, report_json, strip_timings, ProtoError, Request, PROTOCOL_VERSION};
pub use queue::{AdmitError, Job, JobQueue, QueueLimits};
pub use server::{Server, ServerOptions};
