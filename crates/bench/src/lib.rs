//! Benchmark registry and reporting helpers for regenerating the paper's
//! tables and figures.
//!
//! Binaries (see DESIGN.md §3 for the experiment index):
//!
//! - `table1` — register counts and area (paper Table I);
//! - `table2` — grouped power (paper Table II);
//! - `fig1_pipeline` — linear-pipeline conversion minimality (Fig. 1);
//! - `fig4` — CPU power under Dhrystone-like / Coremark-like workloads;
//! - `runtime_report` — flow runtime decomposition (§V discussion).
//!
//! Every binary accepts `--quick` (or `TRIPHASE_SCALE=quick`) to run a
//! reduced configuration for smoke testing; the full configuration is the
//! EXPERIMENTS.md reference.

pub mod fuzz;
pub mod microbench;
pub mod perf;
pub mod report;

/// Hand-rolled JSON tree (re-exported from the service crate, which
/// owns it as its wire format; the report writers predate the move).
pub use triphase_serve::json;

use triphase_cells::Library;
use triphase_circuits::cpu::{self, CpuConfig, Workload};
use triphase_circuits::crypto::{aes, des3, md5, sha256};
use triphase_circuits::iscas::{generate_iscas, iscas_profiles, IscasProfile};
use triphase_core::{run_flow_with, FlowConfig, FlowReport};
use triphase_netlist::Netlist;
use triphase_pnr::PnrOptions;
use triphase_sim::{data_inputs, lane_seeds, Activity, CompiledSim, Lanes, Logic, Stream, LANES};

/// Benchmark grouping, mirroring the paper's table sections.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Group {
    /// ISCAS89 circuits (1 GHz).
    Iscas,
    /// MIT-LL CEP crypto submodules (500 MHz).
    Cep,
    /// CPU cores (500 / 333 MHz).
    Cpu,
}

impl Group {
    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            Group::Iscas => "ISCAS",
            Group::Cep => "CEP",
            Group::Cpu => "CPU",
        }
    }
}

#[derive(Debug, Clone)]
enum Kind {
    Iscas(IscasProfile),
    Aes,
    Des3,
    Sha256,
    Md5,
    Cpu(CpuConfig, Workload),
}

/// One benchmark circuit of the paper's evaluation.
#[derive(Debug, Clone)]
pub struct Benchmark {
    /// Row name as in the paper.
    pub name: &'static str,
    /// Table section.
    pub group: Group,
    kind: Kind,
    seed: u64,
}

/// Run scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Reduced stimulus/anneal for smoke tests.
    Quick,
    /// The EXPERIMENTS.md reference configuration.
    Full,
}

impl Scale {
    /// Parse from argv/environment (`--quick` or `TRIPHASE_SCALE=quick`).
    pub fn from_env() -> Scale {
        let argv_quick = std::env::args().any(|a| a == "--quick");
        let env_quick = std::env::var("TRIPHASE_SCALE").is_ok_and(|v| v == "quick");
        if argv_quick || env_quick {
            Scale::Quick
        } else {
            Scale::Full
        }
    }
}

impl Benchmark {
    /// Construct the benchmark netlist.
    pub fn build(&self) -> Netlist {
        match &self.kind {
            Kind::Iscas(profile) => generate_iscas(profile, self.seed),
            Kind::Aes => aes::aes128_pipelined(2000.0),
            Kind::Des3 => des3::des3_core(&des3::Des3Spec::new(self.seed), 2000.0),
            Kind::Sha256 => sha256::sha256_core(2000.0),
            Kind::Md5 => md5::md5_core(2000.0),
            Kind::Cpu(cfg, _) => cpu::build_cpu(cfg, self.seed).0,
        }
    }

    /// Flow configuration for this benchmark at a scale.
    pub fn flow_config(&self, scale: Scale) -> FlowConfig {
        let big = matches!(self.kind, Kind::Aes);
        let cep = self.group == Group::Cep;
        let (sim, equiv, moves) = match (scale, big) {
            (Scale::Quick, false) => (if cep { 120 } else { 48 }, 64, 2),
            (Scale::Quick, true) => (96, 24, 1),
            (Scale::Full, false) => (if cep { 240 } else { 200 }, 200, 12),
            (Scale::Full, true) => (144, 64, 4),
        };
        FlowConfig {
            seed: self.seed,
            sim_cycles: sim,
            equiv_cycles: equiv,
            // The paper's DDCG threshold is "activity below 1% of the
            // clock" measured over full testbench programs (thousands of
            // mostly-idle cycles). Our self-check bursts compress that
            // idle time, so the equivalent threshold over the shortened
            // window is somewhat higher for the CEP cores — but kept
            // tight enough that the *active* registers of the iterative
            // cores stay ungated (the comparison XORs would otherwise
            // cost more combinational power than the gating saves).
            ddcg_threshold: if cep { 0.08 } else { 0.02 },
            pnr: PnrOptions {
                seed: self.seed,
                moves_per_cell: moves,
                ..PnrOptions::default()
            },
            ..FlowConfig::default()
        }
    }

    /// The workload this benchmark is evaluated under (CPUs only).
    pub fn workload(&self) -> Option<Workload> {
        match &self.kind {
            Kind::Cpu(_, w) => Some(*w),
            _ => None,
        }
    }

    /// The stimulus style for this benchmark: ISCAS circuits stream
    /// pseudo-random vectors, CEP cores run self-check-style bursts (one
    /// operation, then idle — the open-source testbenches the paper
    /// uses), CPUs run their instruction-mix segment.
    pub fn stimulus(&self) -> Stimulus {
        match &self.kind {
            Kind::Iscas(_) => Stimulus::Random,
            Kind::Aes => Stimulus::SelfCheck { interval: 48 },
            Kind::Des3 => Stimulus::SelfCheck { interval: 60 },
            Kind::Sha256 | Kind::Md5 => Stimulus::SelfCheck { interval: 78 },
            Kind::Cpu(_, w) => Stimulus::Cpu(*w),
        }
    }

    /// Stimulus seed of this benchmark row.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Run the full three-variant flow.
    ///
    /// # Errors
    ///
    /// Propagates flow failures (equivalence or constraint violations are
    /// hard errors — a benchmark must not silently produce a wrong design).
    pub fn run(&self, lib: &Library, scale: Scale) -> triphase_core::Result<FlowReport> {
        self.run_netlist_with_config(&self.build(), lib, &self.flow_config(scale))
    }

    /// Run the flow on a caller-supplied netlist and configuration, with
    /// this benchmark's own stimulus style. Fault-injection campaigns use
    /// this to sweep budgets/faults (and adversarially mutated netlists)
    /// while keeping the stimulus identical to the real row.
    ///
    /// # Errors
    ///
    /// See [`Benchmark::run`].
    pub fn run_netlist_with_config(
        &self,
        nl: &Netlist,
        lib: &Library,
        cfg: &FlowConfig,
    ) -> triphase_core::Result<FlowReport> {
        let seed = self.seed;
        let stim = self.stimulus();
        run_flow_with(nl, lib, cfg, &move |n: &Netlist, cycles: u64| {
            drive_stimulus(n, cycles, seed, stim)
        })
    }
}

/// Stimulus styles.
#[derive(Debug, Clone, Copy)]
pub enum Stimulus {
    /// Fresh pseudo-random input vectors every cycle (the paper's ISCAS
    /// methodology).
    Random,
    /// Self-check style: pulse the start port (`load`/`valid_in`) with a
    /// fresh random operand every `interval` cycles; inputs are held
    /// static in between (the CEP testbench shape — the core computes,
    /// then idles).
    SelfCheck {
        /// Cycles between operations.
        interval: u64,
    },
    /// CPU instruction-mix workload (`mode` pinned to its ROM segment).
    Cpu(Workload),
}

/// One word of fresh random bits, one per lane stream.
fn draw(streams: &mut [Stream]) -> Lanes<1> {
    let mut bits = 0u64;
    for (l, s) in streams.iter_mut().enumerate() {
        bits |= u64::from(s.next_bit()) << l;
    }
    Lanes::from_bits([bits])
}

/// Drive a benchmark netlist with a stimulus style and return its
/// activity profile.
///
/// Runs on the compiled bytecode kernel (certified bit-exact against the
/// scalar simulator lane for lane): the requested `cycles` are split
/// across up to 64 independent stimulus lanes (lane 0 replays the
/// historical scalar stream for `seed`).
/// Stimuli with temporal structure
/// ([`Stimulus::SelfCheck`]) keep at least one full burst interval per
/// lane so the compute/idle activity shape is preserved; purely random
/// stimuli split down to one cycle per lane.
///
/// # Errors
///
/// Simulator construction errors.
pub fn drive_stimulus(
    nl: &Netlist,
    cycles: u64,
    seed: u64,
    stim: Stimulus,
) -> triphase_sim::Result<Activity> {
    run_stimulus(nl, cycles, seed, stim, |_| {})
}

/// Measured per-net profile: toggle counts plus the cycles each net
/// spent at logic one, the empirical (probability, density) pair the
/// static activity model is cross-validated against.
#[derive(Debug, Clone)]
pub struct StimulusProfile {
    /// Toggle counts, as [`drive_stimulus`] returns them.
    pub activity: Activity,
    /// Per-net count of observed-one samples (net index → count); the
    /// empirical signal probability is `ones[net] / activity.cycles`.
    pub ones: Vec<u64>,
}

impl StimulusProfile {
    /// Empirical signal probability of `net`.
    pub fn probability(&self, net: triphase_netlist::NetId) -> f64 {
        if self.activity.cycles == 0 {
            0.5
        } else {
            self.ones[net.index()] as f64 / self.activity.cycles as f64
        }
    }

    /// Empirical transition density (toggles/cycle) of `net`.
    pub fn density(&self, net: triphase_netlist::NetId) -> f64 {
        if self.activity.cycles == 0 {
            0.0
        } else {
            self.activity.net_toggles[net.index()] as f64 / self.activity.cycles as f64
        }
    }
}

/// [`drive_stimulus`], additionally sampling every net's value once per
/// cycle to accumulate empirical signal probabilities.
///
/// # Errors
///
/// Simulator construction errors.
pub fn profile_stimulus(
    nl: &Netlist,
    cycles: u64,
    seed: u64,
    stim: Stimulus,
) -> triphase_sim::Result<StimulusProfile> {
    let mut ones = vec![0u64; nl.net_capacity()];
    let activity = run_stimulus(nl, cycles, seed, stim, |sim| {
        let mask = triphase_sim::Mask::first(sim.lanes());
        for (i, count) in ones.iter_mut().enumerate() {
            let word = sim.net_value(triphase_netlist::NetId::from_index(i));
            *count += word.ones(mask);
        }
    })?;
    Ok(StimulusProfile { activity, ones })
}

/// Shared compiled-kernel stimulus loop behind [`drive_stimulus`] and
/// [`profile_stimulus`]; `observe` runs after every stepped cycle. Lane
/// counts stay at one word (≤ 64) so activity certification thresholds
/// (and every recorded toggle count) are bit-for-bit stable.
fn run_stimulus(
    nl: &Netlist,
    cycles: u64,
    seed: u64,
    stim: Stimulus,
    mut observe: impl FnMut(&CompiledSim<'_, 1>),
) -> triphase_sim::Result<Activity> {
    let lanes = match stim {
        Stimulus::SelfCheck { interval } => (cycles / interval.max(1)).clamp(1, LANES as u64),
        Stimulus::Random | Stimulus::Cpu(_) => cycles.clamp(1, LANES as u64),
    } as usize;
    let per_lane = cycles.div_ceil(lanes as u64);
    let inputs = data_inputs(nl);
    let mut sim = CompiledSim::<1>::new(nl, lanes)?;
    sim.reset_zero();
    let mut streams: Vec<Stream> = lane_seeds(seed, lanes)
        .into_iter()
        .map(Stream::new)
        .collect();
    match stim {
        Stimulus::Random => {
            for _ in 0..per_lane {
                for &p in &inputs {
                    sim.set_input(p, draw(&mut streams));
                }
                sim.step_cycle();
                observe(&sim);
            }
        }
        Stimulus::SelfCheck { interval } => {
            let start = nl.find_port("load").or_else(|| nl.find_port("valid_in"));
            for cycle in 0..per_lane {
                let pulse = cycle % interval.max(1) == 0;
                if pulse {
                    for &p in &inputs {
                        if Some(p) == start {
                            continue;
                        }
                        sim.set_input(p, draw(&mut streams));
                    }
                }
                if let Some(p) = start {
                    sim.set_input(p, Lanes::splat(Logic::from_bool(pulse)));
                }
                sim.step_cycle();
                observe(&sim);
            }
        }
        Stimulus::Cpu(workload) => {
            let mode_port = nl.find_port("mode");
            let mode = Lanes::splat(Logic::from_bool(workload.mode_bit()));
            for _ in 0..per_lane {
                for &p in &inputs {
                    let v = if Some(p) == mode_port {
                        mode
                    } else {
                        draw(&mut streams)
                    };
                    sim.set_input(p, v);
                }
                sim.step_cycle();
                observe(&sim);
            }
        }
    }
    Ok(sim.activity())
}

/// Back-compat wrapper used by the Fig. 4 binary: CPU workload or random.
///
/// # Errors
///
/// Simulator construction errors.
pub fn drive_benchmark(
    nl: &Netlist,
    cycles: u64,
    seed: u64,
    workload: Option<Workload>,
) -> triphase_sim::Result<Activity> {
    match workload {
        Some(w) => drive_stimulus(nl, cycles, seed, Stimulus::Cpu(w)),
        None => drive_stimulus(nl, cycles, seed, Stimulus::Random),
    }
}

/// The full benchmark suite (paper Tables I & II rows), in paper order.
pub fn benchmarks() -> Vec<Benchmark> {
    let mut v: Vec<Benchmark> = iscas_profiles()
        .into_iter()
        .map(|p| Benchmark {
            name: p.name,
            group: Group::Iscas,
            kind: Kind::Iscas(p),
            seed: 42,
        })
        .collect();
    v.push(Benchmark {
        name: "AES",
        group: Group::Cep,
        kind: Kind::Aes,
        seed: 7,
    });
    v.push(Benchmark {
        name: "DES3",
        group: Group::Cep,
        kind: Kind::Des3,
        seed: 7,
    });
    v.push(Benchmark {
        name: "SHA256",
        group: Group::Cep,
        kind: Kind::Sha256,
        seed: 7,
    });
    v.push(Benchmark {
        name: "MD5",
        group: Group::Cep,
        kind: Kind::Md5,
        seed: 7,
    });
    v.push(Benchmark {
        name: "Plasma",
        group: Group::Cpu,
        kind: Kind::Cpu(cpu::plasma_like(), Workload::DhrystoneLike),
        seed: 11,
    });
    v.push(Benchmark {
        name: "RISCV",
        group: Group::Cpu,
        kind: Kind::Cpu(cpu::rocket_lite(), Workload::DhrystoneLike),
        seed: 11,
    });
    v.push(Benchmark {
        name: "ArmM0",
        group: Group::Cpu,
        kind: Kind::Cpu(cpu::m0_like(), Workload::DhrystoneLike),
        seed: 11,
    });
    v
}

/// A reduced suite for `--quick` runs (small ISCAS rows, the light CEP
/// cores, and the compact CPU).
pub fn quick_benchmarks() -> Vec<Benchmark> {
    benchmarks()
        .into_iter()
        .filter(|b| {
            matches!(
                b.name,
                "s1196" | "s1238" | "s1488" | "s1423" | "DES3" | "SHA256" | "ArmM0"
            )
        })
        .collect()
}

/// Pick the suite for a scale.
pub fn suite(scale: Scale) -> Vec<Benchmark> {
    match scale {
        Scale::Quick => quick_benchmarks(),
        Scale::Full => benchmarks(),
    }
}

/// Unweighted mean, the paper's averaging convention.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Run the whole suite at a scale, printing per-row progress to stderr.
///
/// The rows fan out over the [`triphase_par`] work-stealing pool (worker
/// count from `TRIPHASE_THREADS` or the machine); results come back in
/// paper row order regardless of thread count, and each row's flow is
/// itself deterministic, so the tables are thread-count independent.
///
/// # Errors
///
/// Fails on the first (in row order) benchmark whose flow fails
/// validation.
pub fn run_suite(scale: Scale) -> triphase_core::Result<Vec<(Benchmark, FlowReport)>> {
    run_suite_results(scale)
        .into_iter()
        .map(|(b, r)| r.map(|report| (b, report)))
        .collect()
}

/// Like [`run_suite`], but every row returns its own `Result`: one
/// failing (or even panicking) benchmark never takes down the rest of
/// the sweep. A panicking flow is contained per row and surfaced as
/// [`triphase_core::Error::Panic`].
pub fn run_suite_results(scale: Scale) -> Vec<(Benchmark, triphase_core::Result<FlowReport>)> {
    let lib = Library::synthetic_28nm();
    let rows = suite(scale);
    let results = triphase_par::par_map(&rows, |b| {
        let t0 = std::time::Instant::now();
        let report = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| b.run(&lib, scale)))
            .unwrap_or_else(|payload| {
                Err(triphase_core::Error::from_panic(
                    &format!("benchmark {}", b.name),
                    payload,
                ))
            });
        match &report {
            Ok(r) => eprintln!(
                "[{}] {:>8} ... done in {:.1}s (equiv {})",
                b.group.label(),
                b.name,
                t0.elapsed().as_secs_f64(),
                match (r.equiv_ms, r.equiv_3p) {
                    (Some(true), Some(true)) => "ok",
                    _ => "SKIPPED/FAILED",
                }
            ),
            Err(e) => eprintln!(
                "[{}] {:>8} ... FAILED in {:.1}s: {e}",
                b.group.label(),
                b.name,
                t0.elapsed().as_secs_f64()
            ),
        }
        report
    });
    rows.into_iter().zip(results).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_covers_all_paper_rows() {
        let all = benchmarks();
        assert_eq!(all.len(), 18, "11 ISCAS + 4 CEP + 3 CPU");
        assert_eq!(all.iter().filter(|b| b.group == Group::Iscas).count(), 11);
        assert_eq!(all.iter().filter(|b| b.group == Group::Cep).count(), 4);
        assert_eq!(all.iter().filter(|b| b.group == Group::Cpu).count(), 3);
    }

    #[test]
    fn quick_suite_builds() {
        for b in quick_benchmarks() {
            let nl = b.build();
            nl.validate().unwrap();
            assert!(nl.stats().ffs > 0, "{}", b.name);
        }
    }

    #[test]
    fn quick_flow_on_smallest_row() {
        let lib = Library::synthetic_28nm();
        let b = quick_benchmarks()
            .into_iter()
            .find(|b| b.name == "s1488")
            .unwrap();
        let report = b.run(&lib, Scale::Quick).unwrap();
        assert_eq!(report.equiv_3p, Some(true));
        assert!(report.three_phase.registers() > 0);
    }

    #[test]
    fn mean_matches_paper_convention() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(mean(&[]), 0.0);
    }
}
