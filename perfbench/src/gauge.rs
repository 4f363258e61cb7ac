//! A speed gauge for shared machines: a fixed reference kernel, timed
//! in thread CPU time on a thread of its own while the measured work
//! runs.
//!
//! The machines this benchmark runs on share their cores with other
//! tenants. Over seconds to minutes the same code runs up to twice as
//! slow, and a thread's own CPU time slows with it, so the cause is the
//! host and not the scheduler inside the machine. A time reported as
//! measured then says as much about the neighbours as about the
//! program. Every timed interval is therefore reported in reference
//! seconds: its wall time multiplied by the gauge's speed over the
//! interval, speed 1 being the kernel's time on a quiet machine
//! ([`NOMINAL_S`]); the wall times are printed beside them. The kernel
//! is the benchmark's own code, so a change to the program moves the
//! program's times and not the kernel's.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Entries of the chase table: 4 MiB, twice a core's second-level
/// cache, so the chase runs from the shared last-level cache, where
/// other tenants' traffic shows.
const CHASE_LEN: usize = 1 << 20;
/// Dependent loads per sample.
const CHASE_STEPS: usize = 3000;
/// Keys inserted into a fresh hash map, and values sorted, per sample.
const MIX_LEN: usize = 2000;
/// Passes of the interpreter over its program per sample.
const INTERP_PASSES: usize = 2500;
/// Iterations of the independent-operations loop per sample.
const ALU_ROUNDS: u64 = 200_000;
/// CPU time of each part of one sample at reference speed, about its
/// time on a 2-vCPU Xeon VM: chase, hash-and-sort, interpreter, ALU.
const NOMINAL_S: [f64; 4] = [0.5e-3, 0.25e-3, 0.33e-3, 0.22e-3];
/// The shortest stretch of samples an interval is scaled by: a single
/// sample is a millisecond of work and as noisy as any other.
const MIN_WINDOW: Duration = Duration::from_secs(2);
/// Pause between samples. A sample takes about 1.3 ms of CPU, so the
/// gauge takes about 1% of one core.
const PERIOD: Duration = Duration::from_millis(100);

/// The reference kernel. It runs on a thread of its own and is timed in
/// that thread's CPU time, so it does not count time the scheduler gives
/// to the measured work's threads.
///
/// Neighbours slow different code differently: cache and memory
/// traffic slows loads that miss, a busy sibling hyperthread slows code
/// that keeps many execution units busy. Each part below stands for one
/// kind of code the flow runs, and the speed of a sample is the
/// geometric mean of the parts' speeds. On a 2-vCPU VM, over runs of
/// `batch-mid`, this mix followed the flow's slowdowns from run to run
/// more closely than any one part did.
/// - chase: dependent loads through a random single-cycle permutation,
///   carried on from where the last sample stopped, so each sample
///   touches lines it has not touched for seconds;
/// - hash-and-sort: inserts into a fresh hash map and a sort, which
///   allocate and branch;
/// - interpreter: a byte-coded loop, dispatching on every op;
/// - ALU: independent integer operations, as many as a core can issue.
struct Kernel {
    next: Vec<u32>,
    at: u32,
    program: Vec<u8>,
}

fn lcg(x: u64) -> u64 {
    x.wrapping_mul(6_364_136_223_846_793_005)
        .wrapping_add(1_442_695_040_888_963_407)
}

impl Kernel {
    fn new() -> Self {
        // Sattolo's shuffle: one cycle through every entry.
        let mut next: Vec<u32> = (0..CHASE_LEN as u32).collect();
        let mut rng = 0x9e37_79b9_7f4a_7c15u64;
        for i in (1..CHASE_LEN).rev() {
            rng = lcg(rng);
            next.swap(i, (rng >> 33) as usize % i);
        }
        let program = (0..64u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 7) as u8 % 6)
            .collect();
        Kernel {
            next,
            at: 0,
            program,
        }
    }

    fn chase(&mut self) -> u64 {
        let mut x = self.at;
        for _ in 0..CHASE_STEPS {
            x = self.next[x as usize];
        }
        self.at = x;
        u64::from(x)
    }

    fn hash_and_sort(&self) -> u64 {
        let mut map: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>> = HashMap::default();
        let mut vals = Vec::with_capacity(2 * MIX_LEN);
        let mut r = u64::from(self.at);
        for i in 0..2 * MIX_LEN as u64 {
            r = lcg(r);
            if i < MIX_LEN as u64 {
                map.insert(r, i);
            }
            vals.push(r ^ (r >> 29));
        }
        vals.sort_unstable();
        vals[MIX_LEN] ^ map.len() as u64
    }

    fn interpret(&self) -> u64 {
        let (mut a, mut b, mut c) = (1u64, 2u64, 3u64);
        for _ in 0..INTERP_PASSES {
            for &op in &self.program {
                match op {
                    0 => a = a.wrapping_add(b),
                    1 => b ^= a.rotate_left(5),
                    2 if a & 1 == 0 => c = c.wrapping_add(a),
                    2 => c = c.wrapping_sub(b),
                    3 => a = a.wrapping_mul(3) ^ c,
                    4 => b = b.wrapping_add(c >> 3),
                    _ => c = c.rotate_right(7) ^ b,
                }
            }
        }
        a ^ b ^ c
    }

    fn alu(&self) -> u64 {
        let (mut a, mut b, mut c, mut d) = (1u64, 2u64, 3u64, 4u64);
        for i in 0..ALU_ROUNDS {
            a = a.wrapping_add(i);
            b ^= i << 3;
            c = c.wrapping_add(b >> 1);
            d = d.wrapping_sub(a ^ 5);
        }
        a ^ b ^ c ^ d
    }

    /// One sample: the geometric mean of the parts' speeds.
    fn sample(&mut self) -> f64 {
        let mut log_speed = 0.0;
        for (part, nominal) in NOMINAL_S.iter().enumerate() {
            let t = thread_cpu_s();
            std::hint::black_box(match part {
                0 => self.chase(),
                1 => self.hash_and_sort(),
                2 => self.interpret(),
                _ => self.alu(),
            });
            log_speed += (nominal / (thread_cpu_s() - t).max(1e-9)).ln();
        }
        (log_speed / NOMINAL_S.len() as f64).exp()
    }
}

/// Time stolen from this machine's virtual CPUs by the host, in clock
/// ticks summed over the CPUs (the `steal` column of `/proc/stat`).
/// Thread CPU time leaves stolen time out, so the gauge adds it back.
fn steal_ticks() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    stat.lines().next()?.split_whitespace().nth(8)?.parse().ok()
}

/// Clock ticks per second of `/proc/stat` (`USER_HZ`, 100 on Linux).
const TICKS: f64 = 100.0;

#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// `CLOCK_THREAD_CPUTIME_ID` on Linux.
const THREAD_CPU: i32 = 3;

/// CPU time of the calling thread, in seconds.
fn thread_cpu_s() -> f64 {
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec with the C layout, and
    // CLOCK_THREAD_CPUTIME_ID is a clock every Linux kernel provides.
    let rc = unsafe { clock_gettime(THREAD_CPU, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.sec as f64 + ts.nsec as f64 * 1e-9
}

/// One sample: when it ended, the kernel's speed, and the steal
/// counter.
#[derive(Clone, Copy)]
struct Sample {
    at: Instant,
    speed: f64,
    steal: Option<f64>,
}

/// A running gauge; stopped and joined on drop.
pub struct Gauge {
    samples: Arc<Mutex<Vec<Sample>>>,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl Gauge {
    /// Start sampling; the first sample is taken before this returns.
    pub fn start() -> Self {
        let samples = Arc::new(Mutex::new(Vec::new()));
        let stop = Arc::new(AtomicBool::new(false));
        let (ready_tx, ready_rx) = std::sync::mpsc::channel();
        let thread = {
            let (samples, stop) = (samples.clone(), stop.clone());
            std::thread::spawn(move || {
                let mut kernel = Kernel::new();
                let mut ready = Some(ready_tx);
                while !stop.load(Ordering::Relaxed) {
                    let speed = kernel.sample();
                    let s = Sample {
                        at: Instant::now(),
                        speed,
                        steal: steal_ticks(),
                    };
                    samples.lock().expect("gauge poisoned").push(s);
                    if let Some(tx) = ready.take() {
                        let _ = tx.send(());
                    }
                    std::thread::park_timeout(PERIOD);
                }
            })
        };
        let _ = ready_rx.recv();
        Gauge {
            samples,
            stop,
            thread: Some(thread),
        }
    }

    /// The samples taken so far.
    pub fn speeds(&self) -> Speeds {
        let samples = self.samples.lock().expect("gauge poisoned").clone();
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
        Speeds { samples, cpus }
    }

    /// Stop sampling and return the samples.
    pub fn finish(mut self) -> Speeds {
        self.halt();
        self.speeds()
    }

    fn halt(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            t.thread().unpark();
            let _ = t.join();
        }
    }
}

impl Drop for Gauge {
    fn drop(&mut self) {
        self.halt();
    }
}

/// The samples of a gauge.
pub struct Speeds {
    samples: Vec<Sample>,
    cpus: f64,
}

impl Speeds {
    /// Speed over `[a, b]`, widened about its middle to at least
    /// [`MIN_WINDOW`]: the mean kernel speed of the samples that end inside
    /// it (failing those, of the one nearest to its middle), times the
    /// share of the CPUs' time the host did not steal. The mean, not the
    /// median: a slow spell that covers less than half of the samples
    /// still slows the measured work by its share.
    pub fn speed(&self, a: Instant, b: Instant) -> f64 {
        let len = b.saturating_duration_since(a);
        let mid = a + len / 2;
        let half = len.max(MIN_WINDOW) / 2;
        let from = mid.checked_sub(half).unwrap_or(a);
        self.speed_of(|s| s.at >= from && s.at <= mid + half, mid)
    }

    /// Speed over the `window` before `a`. A phase that keeps every core
    /// busy also slows the gauge's own thread in ways the host does not,
    /// so such a phase is scaled by the speed measured just before it.
    pub fn speed_before(&self, a: Instant, window: Duration) -> f64 {
        let from = a.checked_sub(window).unwrap_or(a);
        self.speed_of(|s| s.at >= from && s.at < a, a)
    }

    fn speed_of(&self, pick: impl Fn(&Sample) -> bool, near: Instant) -> f64 {
        let inside: Vec<&Sample> = self.samples.iter().filter(|s| pick(s)).collect();
        let kernel = if inside.is_empty() {
            let gap = |t: Instant| t.max(near) - t.min(near);
            self.samples
                .iter()
                .min_by_key(|s| gap(s.at))
                .map_or(1.0, |s| s.speed)
        } else {
            crate::stats::mean(&inside.iter().map(|s| s.speed).collect::<Vec<_>>())
        };
        let stolen = match (inside.first(), inside.last()) {
            (Some(f), Some(l)) if l.at > f.at => match (f.steal, l.steal) {
                (Some(s0), Some(s1)) => (s1 - s0) / TICKS / self.cpus / (l.at - f.at).as_secs_f64(),
                _ => 0.0,
            },
            _ => 0.0,
        };
        kernel * (1.0 - stolen.clamp(0.0, 0.9))
    }

    /// The interval `[a, b]` in reference seconds.
    pub fn secs(&self, a: Instant, b: Instant) -> f64 {
        b.saturating_duration_since(a).as_secs_f64() * self.speed(a, b)
    }

    /// Median kernel speed over the whole run, for the notes.
    pub fn median(&self) -> f64 {
        let v: Vec<f64> = self.samples.iter().map(|s| s.speed).collect();
        crate::stats::median(&v)
    }

    pub fn len(&self) -> usize {
        self.samples.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gauge_samples_and_scales_intervals() {
        let g = Gauge::start();
        let a = Instant::now();
        std::thread::sleep(Duration::from_millis(250));
        let b = Instant::now();
        let s = g.finish();
        assert!(s.len() >= 2);
        let speed = s.speed(a, b);
        assert!(speed.is_finite() && speed > 0.0);
        let secs = s.secs(a, b);
        assert!((secs / (b - a).as_secs_f64() - speed).abs() < 1e-9);
    }
}
