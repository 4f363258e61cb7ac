//! Durable job journal: the daemon's crash-consistency backbone.
//!
//! An append-only text file of checksummed records, fsync'd per append.
//! Three record kinds cover the service's durable state:
//!
//! - `accept` — a job the daemon admitted (written **before** the ack
//!   frame leaves the process, so an acknowledged job is always
//!   recoverable);
//! - `stage` — one stage-cache entry, in the exact
//!   [`triphase_core::stage_data_to_text`] encoding (written before the
//!   in-memory memo record, which itself precedes the stage's
//!   fault-injection site: artifacts become durable before anything can
//!   kill the job);
//! - `done` — a job reached a terminal state (success, typed error,
//!   cancellation) and must not be resumed.
//!
//! On startup the daemon replays the journal: `stage` records rebuild
//! the [`crate::memo::MemoStore`] stage tier, and `accept` records with
//! no matching `done` are re-enqueued, so a SIGKILL'd daemon resumes
//! every acknowledged job from its last banked stage. Replay then
//! **compacts**: a fresh journal is atomically written (temp file,
//! fsync, rename, fsync of the parent directory) containing the
//! deduplicated stage entries and the still-pending accepts, bounding
//! growth across restarts.
//!
//! Records are framed as a header line — `rec <kind> <len> <fnv1a64>` —
//! followed by exactly `len` payload bytes and a separator newline.
//! Replay is torture-tolerant by construction: a corrupted checksum
//! skips that record (the length prefix keeps framing), a truncated
//! tail stops replay at the last whole record, and duplicate records
//! are idempotent (accepts dedupe by id, stages by key, last wins).

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use triphase_core::{stage_data_from_text, stage_data_to_text, StageData};
use triphase_fault::fnv1a64;

use crate::json::Json;

/// One admitted job, as journaled (and as recovered by replay).
#[derive(Debug, Clone)]
pub struct AcceptRecord {
    /// Server-assigned id.
    pub id: u64,
    /// Client-chosen display name.
    pub name: String,
    /// The design, in exact snapshot text.
    pub netlist_text: String,
    /// The flow configuration, in wire JSON ([`crate::proto::config_json`]).
    pub config: Json,
    /// Echo the final netlist in the `done` event.
    pub return_netlist: bool,
    /// Per-job deadline, if the submit carried one.
    pub deadline_ms: Option<u64>,
}

/// Everything a replay recovered from the journal.
#[derive(Default)]
pub struct Replay {
    /// Accepted jobs with no terminal `done` record, in accept order —
    /// the jobs a restarted daemon must resume.
    pub pending: Vec<AcceptRecord>,
    /// Stage-cache entries (deduplicated by key, last record wins), in
    /// first-seen order.
    pub stages: Vec<(u64, StageData)>,
    /// Records skipped for checksum or payload corruption.
    pub skipped: u64,
    /// Terminal records seen (for observability).
    pub done: u64,
    /// One past the highest job id seen (the restarted daemon's first
    /// fresh id).
    pub next_id: u64,
}

/// The append side of the journal. Clone-free; the server shares it via
/// `Arc`.
pub struct Journal {
    file: Mutex<File>,
    path: PathBuf,
}

fn esc(s: &str) -> String {
    s.replace('\\', "\\\\").replace('\n', "\\n")
}

fn unesc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.next() {
                Some('n') => out.push('\n'),
                Some(other) => out.push(other),
                None => break,
            }
        } else {
            out.push(c);
        }
    }
    out
}

fn push_block(out: &mut String, tag: &str, text: &str) {
    let body = if text.ends_with('\n') || text.is_empty() {
        text.to_owned()
    } else {
        format!("{text}\n")
    };
    out.push_str(&format!("{tag} {}\n", body.lines().count()));
    out.push_str(&body);
}

fn read_block<'a>(lines: &mut std::str::Lines<'a>, tag: &str) -> Option<String> {
    let header = lines.next()?;
    let n: usize = header.strip_prefix(tag)?.trim().parse().ok()?;
    let mut text = String::new();
    for _ in 0..n {
        text.push_str(lines.next()?);
        text.push('\n');
    }
    Some(text)
}

fn accept_payload(rec: &AcceptRecord) -> String {
    let mut s = String::new();
    s.push_str(&format!("job {}\n", rec.id));
    s.push_str(&format!("name {}\n", esc(&rec.name)));
    s.push_str(&format!(
        "return_netlist {}\n",
        u8::from(rec.return_netlist)
    ));
    match rec.deadline_ms {
        Some(ms) => s.push_str(&format!("deadline_ms {ms}\n")),
        None => s.push_str("deadline_ms none\n"),
    }
    push_block(&mut s, "config", &rec.config.to_pretty());
    push_block(&mut s, "netlist", &rec.netlist_text);
    s
}

fn parse_accept(payload: &str) -> Option<AcceptRecord> {
    let mut lines = payload.lines();
    let id: u64 = lines.next()?.strip_prefix("job ")?.parse().ok()?;
    let name = unesc(lines.next()?.strip_prefix("name ")?);
    let return_netlist = lines.next()?.strip_prefix("return_netlist ")? == "1";
    let deadline_ms = match lines.next()?.strip_prefix("deadline_ms ")? {
        "none" => None,
        ms => Some(ms.parse().ok()?),
    };
    let config = Json::parse(&read_block(&mut lines, "config")?).ok()?;
    let netlist_text = read_block(&mut lines, "netlist")?;
    Some(AcceptRecord {
        id,
        name,
        netlist_text,
        config,
        return_netlist,
        deadline_ms,
    })
}

/// The directory holding `path` (`.` for a bare file name).
fn parent_dir(path: &Path) -> &Path {
    match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    }
}

/// fsync a directory, making a just-created or just-renamed entry in it
/// survive power loss: the entry lives in the directory, which the
/// file's own fsync does not cover. A no-op off unix, where a directory
/// cannot be opened as a file.
fn sync_dir(dir: &Path) -> std::io::Result<()> {
    if cfg!(unix) {
        File::open(dir)?.sync_all()
    } else {
        Ok(())
    }
}

fn record_text(kind: &str, payload: &str) -> String {
    format!(
        "rec {kind} {} {:016x}\n{payload}\n",
        payload.len(),
        fnv1a64(payload.as_bytes())
    )
}

impl Journal {
    /// Open (or create) the journal at `path` for appending. The parent
    /// directory is created if missing, and fsync'd once the file is
    /// open: otherwise a power cut could lose a freshly created journal
    /// (or bring back the pre-compaction one) together with every
    /// fsync'd record appended to it.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures.
    pub fn open(path: impl Into<PathBuf>) -> std::io::Result<Journal> {
        let path = path.into();
        let dir = parent_dir(&path);
        std::fs::create_dir_all(dir)?;
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        sync_dir(dir)?;
        Ok(Journal {
            file: Mutex::new(file),
            path,
        })
    }

    /// Replay then compact the journal at `path`, returning the opened
    /// journal (positioned after the compacted records) and everything
    /// the replay recovered.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures. A missing file is not an error —
    /// it replays as empty.
    pub fn open_replay(path: impl Into<PathBuf>) -> std::io::Result<(Journal, Replay)> {
        let path = path.into();
        let replay = match std::fs::read_to_string(&path) {
            Ok(text) => replay_text(&text),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Replay::default(),
            Err(e) => return Err(e),
        };
        // Compact: rewrite only what still matters, atomically, then
        // append from there.
        let mut compacted = String::new();
        for (key, data) in &replay.stages {
            compacted.push_str(&record_text(
                "stage",
                &format!("key {key:016x}\n{}", stage_data_to_text(data)),
            ));
        }
        for rec in &replay.pending {
            compacted.push_str(&record_text("accept", &accept_payload(rec)));
        }
        let tmp = path.with_extension("journal.tmp");
        std::fs::create_dir_all(parent_dir(&path))?;
        {
            let mut f = File::create(&tmp)?;
            f.write_all(compacted.as_bytes())?;
            f.sync_data()?;
        }
        std::fs::rename(&tmp, &path)?;
        // `open` fsyncs the directory, which makes the rename durable.
        let journal = Journal::open(&path)?;
        Ok((journal, replay))
    }

    /// The journal's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    fn append(&self, kind: &str, payload: &str) -> std::io::Result<()> {
        let text = record_text(kind, payload);
        let mut file = self.file.lock().unwrap_or_else(|e| e.into_inner());
        file.write_all(text.as_bytes())?;
        // fsync before the caller acts on durability (acks a job, fires
        // a fault site): a record is either fully on disk or replay
        // drops it at the torn tail.
        file.sync_data()
    }

    /// Journal an admitted job. Call **before** sending the ack frame.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures; the caller must then shed the
    /// job rather than ack it.
    pub fn append_accept(&self, rec: &AcceptRecord) -> std::io::Result<()> {
        self.append("accept", &accept_payload(rec))
    }

    /// Journal one stage-cache entry. Call before (or atomically with)
    /// the in-memory memo record.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures.
    pub fn append_stage(&self, key: u64, data: &StageData) -> std::io::Result<()> {
        self.append(
            "stage",
            &format!("key {key:016x}\n{}", stage_data_to_text(data)),
        )
    }

    /// Journal a job's terminal state (`ok`, a typed error code, or
    /// `cancelled`): replay will not resume it.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures.
    pub fn append_done(&self, id: u64, code: &str) -> std::io::Result<()> {
        self.append("done", &format!("job {id}\nstatus {}\n", esc(code)))
    }
}

/// Replay journal text into recovered state. Tolerates every torture
/// case the tests throw at it: a torn tail (replay stops at the last
/// whole record), a corrupted checksum mid-file (that record is skipped,
/// framing continues), and duplicates (idempotent by id / key).
pub fn replay_text(text: &str) -> Replay {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let mut accepts: Vec<AcceptRecord> = Vec::new();
    let mut done_ids: HashMap<u64, ()> = HashMap::new();
    let mut stage_at: HashMap<u64, usize> = HashMap::new();
    let mut stages: Vec<(u64, StageData)> = Vec::new();
    let mut skipped = 0u64;
    let mut done = 0u64;
    let mut next_id = 1u64;
    loop {
        if pos >= bytes.len() {
            break;
        }
        let Some(nl) = bytes[pos..].iter().position(|&b| b == b'\n') else {
            // Torn header at the tail.
            break;
        };
        let header = &text[pos..pos + nl];
        let body_start = pos + nl + 1;
        let mut fields = header.split(' ');
        let (kind, len, sum) = match (
            fields.next(),
            fields.next(),
            fields.next().and_then(|s| s.parse::<usize>().ok()),
            fields.next().and_then(|s| u64::from_str_radix(s, 16).ok()),
        ) {
            (Some("rec"), Some(kind), Some(len), Some(sum)) => (kind, len, sum),
            _ => {
                // An unframeable header: without a trustworthy length we
                // cannot find the next boundary. Stop here.
                break;
            }
        };
        let body_end = body_start.saturating_add(len);
        if body_end > bytes.len() {
            break; // torn payload at the tail
        }
        let payload = &text[body_start..body_end];
        pos = (body_end + 1).min(bytes.len());
        if fnv1a64(payload.as_bytes()) != sum {
            skipped += 1;
            continue;
        }
        match kind {
            "accept" => match parse_accept(payload) {
                Some(rec) => {
                    next_id = next_id.max(rec.id + 1);
                    // Duplicate accept for an id: last record wins.
                    accepts.retain(|a| a.id != rec.id);
                    accepts.push(rec);
                }
                None => skipped += 1,
            },
            "stage" => {
                let parsed = payload.split_once('\n').and_then(|(head, rest)| {
                    let key = u64::from_str_radix(head.strip_prefix("key ")?, 16).ok()?;
                    Some((key, stage_data_from_text(rest)?))
                });
                match parsed {
                    Some((key, data)) => match stage_at.get(&key) {
                        Some(&i) => stages[i] = (key, data),
                        None => {
                            stage_at.insert(key, stages.len());
                            stages.push((key, data));
                        }
                    },
                    None => skipped += 1,
                }
            }
            "done" => {
                let id = payload
                    .lines()
                    .next()
                    .and_then(|l| l.strip_prefix("job "))
                    .and_then(|s| s.parse::<u64>().ok());
                match id {
                    Some(id) => {
                        next_id = next_id.max(id + 1);
                        done_ids.insert(id, ());
                        done += 1;
                    }
                    None => skipped += 1,
                }
            }
            _ => skipped += 1,
        }
    }
    let pending = accepts
        .into_iter()
        .filter(|a| !done_ids.contains_key(&a.id))
        .collect();
    Replay {
        pending,
        stages,
        skipped,
        done,
        next_id,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn accept(id: u64, name: &str) -> AcceptRecord {
        let mut config = Json::obj();
        config.set("seed", Json::Num(7.0));
        AcceptRecord {
            id,
            name: name.into(),
            netlist_text: "netlist v1\nname x\nnets 0\ncells 0\nports 0\nclock none\nend\n".into(),
            config,
            return_netlist: false,
            deadline_ms: if id.is_multiple_of(2) {
                Some(1500)
            } else {
                None
            },
        }
    }

    #[test]
    fn accept_payload_round_trips_hostile_names() {
        let mut rec = accept(3, "line\nbreak \\ and spaces");
        rec.return_netlist = true;
        let back = parse_accept(&accept_payload(&rec)).expect("parses");
        assert_eq!(back.id, 3);
        assert_eq!(back.name, "line\nbreak \\ and spaces");
        assert_eq!(back.netlist_text, rec.netlist_text);
        assert_eq!(back.deadline_ms, None);
        assert!(back.return_netlist);
        assert_eq!(back.config.get("seed").and_then(Json::as_f64), Some(7.0));
    }

    #[test]
    fn append_replay_round_trip_with_done_filtering() {
        let dir = std::env::temp_dir().join("triphase_journal_unit");
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("jobs.journal");
        let j = Journal::open(&path).expect("open");
        j.append_accept(&accept(1, "a")).expect("accept 1");
        j.append_accept(&accept(2, "b")).expect("accept 2");
        j.append_done(1, "ok").expect("done 1");
        let text = std::fs::read_to_string(&path).expect("read");
        let replay = replay_text(&text);
        assert_eq!(replay.skipped, 0);
        assert_eq!(replay.done, 1);
        assert_eq!(replay.next_id, 3);
        assert_eq!(replay.pending.len(), 1);
        assert_eq!(replay.pending[0].id, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_replay_compacts_done_jobs_away() {
        let dir = std::env::temp_dir().join("triphase_journal_compact");
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("jobs.journal");
        {
            let j = Journal::open(&path).expect("open");
            j.append_accept(&accept(1, "a")).expect("accept");
            j.append_done(1, "ok").expect("done");
            j.append_accept(&accept(2, "b")).expect("accept");
        }
        let before = std::fs::metadata(&path).expect("meta").len();
        let (_j, replay) = Journal::open_replay(&path).expect("replay");
        assert_eq!(replay.pending.len(), 1);
        let after = std::fs::metadata(&path).expect("meta").len();
        assert!(
            after < before,
            "compaction shrinks the file ({before} -> {after})"
        );
        // A second replay of the compacted file sees the same state.
        let again = replay_text(&std::fs::read_to_string(&path).expect("read"));
        assert_eq!(again.pending.len(), 1);
        assert_eq!(again.pending[0].id, 2);
        assert_eq!(again.skipped, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
