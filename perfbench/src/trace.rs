//! In-memory span recorder for the traced runs, written out at the end
//! as Chrome trace-event JSON (`chrome://tracing`, Perfetto).
//!
//! Spans are recorded from the benchmark's own code, around calls into
//! each layer's public functions; the program under test is not
//! instrumented. Parents are explicit ids, so a span opened on a pool
//! worker can name the span that spawned it on another thread.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One closed span. Times are nanoseconds from the tracer's origin.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    /// Design or job the span worked on.
    pub subject: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub thread: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

pub struct Tracer {
    origin: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
    threads: Mutex<HashMap<std::thread::ThreadId, u64>>,
}

/// An open span; closes (and is recorded) when dropped or ended.
pub struct Guard<'t> {
    tracer: &'t Tracer,
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    subject: String,
    start_ns: u64,
}

impl Guard<'_> {
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Close the span now.
    pub fn end(self) {}
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        let end_ns = self.tracer.now_ns();
        self.tracer.push(Span {
            id: self.id,
            parent: self.parent,
            name: self.name,
            subject: std::mem::take(&mut self.subject),
            start_ns: self.start_ns,
            end_ns,
            thread: self.tracer.thread_id(),
        });
    }
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
            threads: Mutex::new(HashMap::new()),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Nanoseconds from the origin to `t` (0 if `t` precedes it).
    fn at_ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    fn thread_id(&self) -> u64 {
        let mut map = self.threads.lock().expect("tracer thread map poisoned");
        let n = map.len() as u64 + 1;
        *map.entry(std::thread::current().id()).or_insert(n)
    }

    fn push(&self, span: Span) {
        self.spans
            .lock()
            .expect("tracer span list poisoned")
            .push(span);
    }

    /// Open a span named `name` about `subject` under `parent`.
    pub fn span(&self, name: &'static str, subject: &str, parent: Option<u64>) -> Guard<'_> {
        Guard {
            tracer: self,
            id: self.next.fetch_add(1, Ordering::Relaxed),
            parent,
            name,
            subject: subject.to_owned(),
            start_ns: self.now_ns(),
        }
    }

    /// Record a span whose interval was measured elsewhere (client-side
    /// events of a served job). Returns its id.
    pub fn record(
        &self,
        name: &'static str,
        subject: &str,
        parent: Option<u64>,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        self.push(Span {
            id,
            parent,
            name,
            subject: subject.to_owned(),
            start_ns: self.at_ns(start),
            end_ns: self.at_ns(end).max(self.at_ns(start)),
            thread: self.thread_id(),
        });
        id
    }

    /// Time `f` under a span.
    pub fn time<R>(
        &self,
        name: &'static str,
        subject: &str,
        parent: Option<u64>,
        f: impl FnOnce() -> R,
    ) -> R {
        let _g = self.span(name, subject, parent);
        f()
    }

    pub fn spans(&self) -> Vec<Span> {
        let mut v = self
            .spans
            .lock()
            .expect("tracer span list poisoned")
            .clone();
        v.sort_by_key(|s| (s.start_ns, s.id));
        v
    }

    /// Chrome trace-event JSON: one complete (`"ph": "X"`) event per
    /// span, microsecond timestamps, with the span id, parent id and
    /// subject in `args`, plus `meta` as the trace's metadata.
    pub fn chrome_json(&self, meta: &[(String, String)]) -> String {
        use std::fmt::Write;
        let mut out = String::from("{\"traceEvents\":[\n");
        let spans = self.spans();
        for (i, s) in spans.iter().enumerate() {
            let _ = writeln!(
                out,
                "{{\"name\":{},\"cat\":{},\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{},\
                 \"args\":{{\"id\":{},\"parent\":{},\"subject\":{}}}}}{}",
                quote(s.name),
                quote(s.name.split('.').next().unwrap_or(s.name)),
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.thread,
                s.id,
                s.parent.map_or("null".to_owned(), |p| p.to_string()),
                quote(&s.subject),
                if i + 1 < spans.len() { "," } else { "" }
            );
        }
        out.push_str("],\"displayTimeUnit\":\"ms\",\"metadata\":{");
        for (i, (k, v)) in meta.iter().enumerate() {
            let _ = write!(out, "{}:{}", quote(k), quote(v));
            if i + 1 < meta.len() {
                out.push(',');
            }
        }
        out.push_str("}}\n");
        out
    }
}

/// JSON string literal.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Summed durations (s) per span name.
pub fn totals(spans: &[Span]) -> HashMap<&'static str, f64> {
    let mut m = HashMap::new();
    for s in spans {
        *m.entry(s.name).or_insert(0.0) += s.secs();
    }
    m
}

/// Summed self time (s) of spans named `name`: each span's duration
/// minus the durations of its direct children.
pub fn self_secs(spans: &[Span], name: &str) -> f64 {
    let mut child = HashMap::<u64, f64>::new();
    for s in spans {
        if let Some(p) = s.parent {
            *child.entry(p).or_insert(0.0) += s.secs();
        }
    }
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.secs() - child.get(&s.id).copied().unwrap_or(0.0))
        .sum()
}

/// Share of the wall time of the spans named `root` that their direct
/// children cover.
pub fn coverage(spans: &[Span], root: &str) -> f64 {
    let roots: HashMap<u64, f64> = spans
        .iter()
        .filter(|s| s.name == root)
        .map(|s| (s.id, s.secs()))
        .collect();
    let wall: f64 = roots.values().sum();
    let covered: f64 = spans
        .iter()
        .filter(|s| s.parent.is_some_and(|p| roots.contains_key(&p)))
        .map(Span::secs)
        .sum();
    if wall > 0.0 {
        covered / wall
    } else {
        0.0
    }
}
