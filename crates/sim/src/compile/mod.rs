//! Compiled simulation backend: fused bytecode VM with multi-word lanes.
//!
//! The fast kernel next to the scalar [`Simulator`](crate::Simulator),
//! which stays its reference. The combinational fabric is lowered once
//! (see `lower`) into a fused, specialized bytecode executed by a
//! threaded-dispatch interpreter (see `ops`), generic over lane width
//! `W ∈ {1, 2, 4, 8}` machine words — 64 to [`MAX_STREAMS`] independent
//! stimulus streams per pass via [`Lanes`]. Values live in a dense slot
//! file ordered sources-then-levels, which also makes per-level parallel
//! batching over the work-stealing pool (`triphase-par`) a safe
//! `split_at_mut`: a level only reads slots below its own range.
//!
//! Sequencing (reset, settle fixpoint, clock-event rounds, FF capture,
//! latch transparency, ICG enable latches) follows the scalar
//! simulator's event order, so lane `l` of a compiled run follows the
//! same trajectory as a scalar run seeded with [`lane_seeds`]`[l]`;
//! values *and* per-net toggle counts are bit-identical (certified
//! against the scalar simulator over the benchmark suite). Multi-lane
//! toggle counts are the per-lane counts summed. [`CompiledAny`] erases
//! the width parameter and picks the narrowest width covering a
//! requested lane count.

mod lanes;
mod lower;
mod ops;

pub use lanes::{Lanes, Mask};
pub use lower::LowerStats;

use lower::Program;
use ops::{eval_value, run_stream, ExecCtx, Instr};

use crate::error::{Error, Result};
use crate::logic::Logic;
use crate::sim::{clock_network_order, Activity, MAX_SETTLE_PASSES};
use triphase_cells::CellKind;
use triphase_netlist::rng::SplitMix64;
use triphase_netlist::{CellId, NetId, Netlist, PortDir, PortId};

/// Maximum stimulus streams per pass (lane width `W = 8`).
pub const MAX_STREAMS: usize = 512;

/// Number of stimulus lanes in one machine word (lane width `W = 1`).
pub const LANES: usize = 64;

/// Per-level parallel batching engages above this gate count per chunk.
const PAR_CHUNK: usize = 512;
/// Widest-level threshold for enabling the parallel path by default.
const PAR_LEVEL_MIN: u32 = 2048;

/// Compiled clock-network cell (slot-indexed; dependency order kept).
#[derive(Debug, Clone, Copy)]
enum CClockOp {
    Buf {
        inp: u32,
        out: u32,
    },
    Icg {
        en: u32,
        ck: u32,
        out: u32,
        cell: u32,
    },
    IcgM1 {
        en: u32,
        p3: u32,
        ck: u32,
        out: u32,
        cell: u32,
    },
    IcgM2 {
        en: u32,
        ck: u32,
        out: u32,
    },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SKind {
    Dff,
    DffEn,
    LatchH,
    LatchL,
}

/// Compiled storage cell (slot-indexed).
#[derive(Debug, Clone, Copy)]
struct CStorage {
    kind: SKind,
    d: u32,
    ck: u32,
    q: u32,
    en: u32,
}

/// Compiled simulator over `64 * W` stimulus lanes (see module docs).
#[derive(Debug)]
pub struct CompiledSim<'a, const W: usize> {
    nl: &'a Netlist,
    prog: Program,
    clock_ops: Vec<CClockOp>,
    storage: Vec<CStorage>,
    icg_state: Vec<Lanes<W>>,
    values: Vec<Lanes<W>>,
    toggles: Vec<u64>,
    pending: Vec<(u32, Lanes<W>)>,
    per_lane_cycles: u64,
    events: Vec<f64>,
    clock_ports: Vec<(u32, usize)>,
    /// Per-phase (rise, fall) times reduced into one period.
    phase_times: Vec<(f64, f64)>,
    period: f64,
    lanes: usize,
    mask: Mask<W>,
    parallel: bool,
    // Reused per-pass scratch, allocated once rather than every pass.
    before_ck: Vec<Lanes<W>>,
    clk_snapshot: Vec<Lanes<W>>,
    updates: Vec<(u32, Lanes<W>)>,
    /// Per-slot changed-since-last-serial-pass bitset driving the
    /// event-driven gate in the serial stream (see `ops::ExecCtx`):
    /// external writes mark, one topological pass consumes and clears.
    dirty: Vec<u64>,
}

impl<'a, const W: usize> CompiledSim<'a, W> {
    /// Lower `nl` and build a compiled simulator with `lanes` active
    /// lanes (`1..=64 * W`). All state starts at X.
    ///
    /// # Errors
    ///
    /// [`Error::NoClock`] without a clock spec; [`Error::BadClock`] on
    /// an unusable one; [`Error::Netlist`] on combinational loops or a
    /// lane count outside `1..=64 * W`.
    pub fn new(nl: &'a Netlist, lanes: usize) -> Result<CompiledSim<'a, W>> {
        if lanes == 0 || lanes > 64 * W {
            return Err(Error::Netlist(triphase_netlist::Error::Invalid(format!(
                "compiled lane count {lanes} outside 1..={}",
                64 * W
            ))));
        }
        let clock = nl.clock.as_ref().ok_or(Error::NoClock)?;
        crate::sim::validate_clock(clock)?;
        let idx = nl.index();
        let prog = lower::lower(nl)?;
        let clock_order = clock_network_order(nl, &idx)?;

        let slot = |n: triphase_netlist::NetId| prog.slot_of_net[n.index()];
        let clock_ops = clock_order
            .iter()
            .map(|&c| {
                let cell = nl.cell(c);
                let out = slot(cell.output());
                let pin = |i: usize| slot(cell.pin(i));
                match cell.kind {
                    CellKind::Icg => CClockOp::Icg {
                        en: pin(0),
                        ck: pin(1),
                        out,
                        cell: c.index() as u32,
                    },
                    CellKind::IcgM1 => CClockOp::IcgM1 {
                        en: pin(0),
                        p3: pin(1),
                        ck: pin(2),
                        out,
                        cell: c.index() as u32,
                    },
                    CellKind::IcgM2 => CClockOp::IcgM2 {
                        en: pin(0),
                        ck: pin(1),
                        out,
                    },
                    // Remaining clock-network kind: ClkBuf/Buf.
                    _ => CClockOp::Buf { inp: pin(0), out },
                }
            })
            .collect();

        let storage: Vec<CStorage> = nl
            .cells()
            .filter(|(_, c)| c.kind.is_storage())
            .map(|(_, cell)| {
                let pin = |i: usize| slot(cell.pin(i));
                let (kind, d, ck, en) = match cell.kind {
                    CellKind::DffEn => (SKind::DffEn, pin(0), pin(2), pin(1)),
                    CellKind::LatchH => (SKind::LatchH, pin(0), pin(1), 0),
                    CellKind::LatchL => (SKind::LatchL, pin(0), pin(1), 0),
                    // Remaining storage kind: Dff.
                    _ => (SKind::Dff, pin(0), pin(1), 0),
                };
                CStorage {
                    kind,
                    d,
                    ck,
                    q: slot(cell.output()),
                    en,
                }
            })
            .collect();

        // Distinct edge times within the cycle, ascending (as scalar).
        let mut times: Vec<f64> = Vec::new();
        for p in &clock.phases {
            for t in [
                p.rise_ps.rem_euclid(clock.period_ps),
                p.fall_ps.rem_euclid(clock.period_ps),
            ] {
                if !times.iter().any(|&x| (x - t).abs() < 1e-9) {
                    times.push(t);
                }
            }
        }
        times.sort_by(f64::total_cmp);

        let clock_ports = clock
            .phases
            .iter()
            .enumerate()
            .map(|(i, p)| (slot(nl.port(p.port).net), i))
            .collect();
        let phase_times = clock
            .phases
            .iter()
            .map(|p| {
                (
                    p.rise_ps.rem_euclid(clock.period_ps),
                    p.fall_ps.rem_euclid(clock.period_ps),
                )
            })
            .collect();

        let n_slots = prog.net_of_slot.len();
        let n_storage = storage.len();
        let parallel = prog.max_level_width >= PAR_LEVEL_MIN
            && triphase_par::ThreadPool::global().threads() > 1;
        Ok(CompiledSim {
            nl,
            prog,
            clock_ops,
            storage,
            icg_state: vec![Lanes::X; nl.cell_capacity()],
            values: vec![Lanes::X; n_slots],
            toggles: vec![0; n_slots],
            pending: Vec::new(),
            per_lane_cycles: 0,
            events: times,
            clock_ports,
            phase_times,
            period: clock.period_ps,
            lanes,
            mask: Mask::first(lanes),
            parallel,
            before_ck: vec![Lanes::X; n_storage],
            clk_snapshot: vec![Lanes::X; n_storage],
            updates: Vec::new(),
            dirty: vec![u64::MAX; n_slots.div_ceil(64)],
        })
    }

    /// Active lane count.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Cycles stepped per lane since the last reset.
    pub fn per_lane_cycles(&self) -> u64 {
        self.per_lane_cycles
    }

    /// Lowering-pass counters for this design.
    pub fn lower_stats(&self) -> LowerStats {
        self.prog.stats
    }

    /// Force the per-level parallel path on or off (both paths are
    /// bit-identical; the default is a size heuristic).
    pub fn set_parallel(&mut self, on: bool) {
        self.parallel = on;
        // The parallel path evaluates every level unconditionally and
        // does not maintain the dirty set; re-mark everything so a
        // later serial pass starts from a sound over-approximation.
        self.dirty.fill(u64::MAX);
    }

    /// Reset every lane to the all-zero state with clocks at
    /// end-of-cycle levels and ICG enable latches loaded from the
    /// settled reset state — the exact twin of the scalar
    /// `reset_zero`.
    pub fn reset_zero(&mut self) {
        self.values.fill(Lanes::ZERO);
        self.icg_state.fill(Lanes::ZERO);
        self.toggles.fill(0);
        self.dirty.fill(u64::MAX);
        self.per_lane_cycles = 0;
        self.pending.clear();
        let period = self.period;
        for i in 0..self.clock_ports.len() {
            let (slot, phase) = self.clock_ports[i];
            // Direct write (no toggle count), matching scalar reset.
            self.values[slot as usize] = Lanes::splat(self.clock_level(phase, period - 1e-6));
        }
        self.eval_clock_network();
        self.settle_data();
        for i in 0..self.clock_ops.len() {
            match self.clock_ops[i] {
                CClockOp::Icg { en, cell, .. } | CClockOp::IcgM1 { en, cell, .. } => {
                    self.icg_state[cell as usize] = self.values[en as usize];
                }
                CClockOp::Buf { .. } | CClockOp::IcgM2 { .. } => {}
            }
        }
        self.eval_clock_network();
        self.settle_data();
    }

    /// Queue a packed input value; applied at the start of the next
    /// cycle.
    ///
    /// # Panics
    ///
    /// Panics if `port` is not an input port.
    pub fn set_input(&mut self, port: PortId, value: Lanes<W>) {
        let p = self.nl.port(port);
        assert_eq!(p.dir, PortDir::Input, "set_input on non-input");
        self.pending
            .push((self.prog.slot_of_net[p.net.index()], value));
    }

    /// Current packed value seen by an output port.
    pub fn output(&self, port: PortId) -> Lanes<W> {
        self.net_value(self.nl.port(port).net)
    }

    /// Current packed value of a net.
    pub fn net_value(&self, net: NetId) -> Lanes<W> {
        self.values[self.prog.slot_of_net[net.index()] as usize]
    }

    /// Current enable-latch state of a clock-gate cell.
    pub fn icg_state(&self, cell: CellId) -> Lanes<W> {
        self.icg_state[cell.index()]
    }

    /// Switching activity accumulated so far: toggles summed over
    /// active lanes, `cycles = per-lane cycles × lanes` (so each lane
    /// contributes exactly its scalar run's activity).
    pub fn activity(&self) -> Activity {
        let mut net_toggles = vec![0u64; self.nl.net_capacity()];
        for (s, &t) in self.toggles.iter().enumerate() {
            net_toggles[self.prog.net_of_slot[s] as usize] = t;
        }
        Activity {
            cycles: self.per_lane_cycles * self.lanes as u64,
            net_toggles,
        }
    }

    /// Advance one full clock cycle for every lane (pending inputs land
    /// just after the first clock event, as in the scalar simulator).
    pub fn step_cycle(&mut self) {
        self.settle_data();
        for i in 0..self.events.len() {
            let t = self.events[i];
            self.process_clock_event(t);
            if i == 0 {
                let pending = std::mem::take(&mut self.pending);
                for (slot, v) in pending {
                    self.set_slot(slot, v);
                }
                self.settle_data();
            }
        }
        self.per_lane_cycles += 1;
    }

    fn clock_level(&self, phase: usize, t: f64) -> Logic {
        let (r, f) = self.phase_times[phase];
        let high = if r < f {
            t >= r - 1e-9 && t < f - 1e-9
        } else {
            t >= r - 1e-9 || t < f - 1e-9
        };
        Logic::from_bool(high)
    }

    #[inline]
    fn set_slot(&mut self, slot: u32, val: Lanes<W>) {
        let old = self.values[slot as usize];
        let (diff, t) = old.delta_toggles(val, self.mask);
        if diff {
            self.toggles[slot as usize] += t;
            self.values[slot as usize] = val;
            self.dirty[(slot >> 6) as usize] |= 1u64 << (slot & 63);
        }
    }

    fn process_clock_event(&mut self, t: f64) {
        // Up to a few rounds in case a gated clock rises as a result of
        // data settling, exactly as the scalar event loop.
        for _ in 0..4 {
            for i in 0..self.storage.len() {
                self.before_ck[i] = self.values[self.storage[i].ck as usize];
            }
            for i in 0..self.clock_ports.len() {
                let (slot, phase) = self.clock_ports[i];
                let v = Lanes::splat(self.clock_level(phase, t));
                self.set_slot(slot, v);
            }
            self.eval_clock_network();

            // Capture: FF lanes whose clock rose latch pre-edge data.
            // Updates are batched (reads see pre-update values).
            let mut updates = std::mem::take(&mut self.updates);
            updates.clear();
            for (si, s) in self.storage.iter().enumerate() {
                if !matches!(s.kind, SKind::Dff | SKind::DffEn) {
                    continue;
                }
                let ck = self.values[s.ck as usize];
                let rose = self.before_ck[si].is_one().not().and(ck.is_one());
                if rose.is_empty() {
                    continue;
                }
                let d = self.values[s.d as usize];
                let q = self.values[s.q as usize];
                let next = match s.kind {
                    SKind::DffEn => {
                        let en = self.values[s.en as usize];
                        // EN=1 → d; EN=0 → q; EN=X → d if d == q else X.
                        let take_d = en.is_one().or(en.is_x().and(d.eq_lanes(q)));
                        let go_x = en.is_x().and(d.eq_lanes(q).not());
                        Lanes::merge(take_d, d, Lanes::merge(go_x, Lanes::X, q))
                    }
                    _ => d,
                };
                updates.push((s.q, Lanes::merge(rose, next, q)));
            }
            for &(slot, v) in &updates {
                self.set_slot(slot, v);
            }
            self.updates = updates;
            if !self.settle_data() {
                break;
            }
        }
    }

    fn eval_clock_network(&mut self) {
        for i in 0..self.clock_ops.len() {
            match self.clock_ops[i] {
                CClockOp::Buf { inp, out } => {
                    let v = self.values[inp as usize];
                    self.set_slot(out, v);
                }
                CClockOp::Icg { en, ck, out, cell } => {
                    let en = self.values[en as usize];
                    let ck = self.values[ck as usize];
                    // Enable latch transparent in lanes where CK != 1.
                    let state = Lanes::merge(ck.is_one().not(), en, self.icg_state[cell as usize]);
                    self.icg_state[cell as usize] = state;
                    self.set_slot(out, ck.and(state));
                }
                CClockOp::IcgM1 {
                    en,
                    p3,
                    ck,
                    out,
                    cell,
                } => {
                    let en = self.values[en as usize];
                    let p3 = self.values[p3 as usize];
                    let ck = self.values[ck as usize];
                    let state = Lanes::merge(p3.is_one(), en, self.icg_state[cell as usize]);
                    self.icg_state[cell as usize] = state;
                    self.set_slot(out, ck.and(state));
                }
                CClockOp::IcgM2 { en, ck, out } => {
                    let v = self.values[ck as usize].and(self.values[en as usize]);
                    self.set_slot(out, v);
                }
            }
        }
    }

    /// One combinational pass: fused serial stream through the dispatch
    /// table, or the plain stream batched per level over the pool. Both
    /// produce bit-identical values and toggles.
    fn run_comb(&mut self, changed: &mut bool) {
        if !self.parallel {
            let mut ctx = ExecCtx {
                values: &mut self.values,
                toggles: &mut self.toggles,
                arena: &self.prog.arena,
                mask: self.mask,
                changed: false,
                dirty: &mut self.dirty,
            };
            run_stream(&mut ctx, &self.prog.serial);
            *changed |= ctx.changed;
            // The stream is topologically ordered, so one full pass
            // consumes every dirty mark (all readers of every marked
            // slot have run); later external writes re-mark.
            self.dirty.fill(0);
            return;
        }
        let prog = &self.prog;
        let mask = self.mask;
        let fcs = prog.first_comb_slot as usize;
        for &(ls, le) in &prog.levels {
            let (ls, le) = (ls as usize, le as usize);
            let n = le - ls;
            let slot_start = fcs + ls;
            let ins = &prog.plain[ls..le];
            let (prefix, rest) = self.values.split_at_mut(slot_start);
            let outs = &mut rest[..n];
            let (_, trest) = self.toggles.split_at_mut(slot_start);
            let touts = &mut trest[..n];
            let prefix: &[Lanes<W>] = prefix;
            let arena: &[u32] = &prog.arena;
            let eval_chunk = |ic: &[Instr], oc: &mut [Lanes<W>], tc: &mut [u64]| -> bool {
                let mut ch = false;
                for k in 0..ic.len() {
                    let v = eval_value(&ic[k], prefix, arena);
                    let old = oc[k];
                    if old != v {
                        tc[k] += old.toggles_to(v, mask);
                        oc[k] = v;
                        ch = true;
                    }
                }
                ch
            };
            if n <= PAR_CHUNK {
                *changed |= eval_chunk(ins, outs, touts);
            } else {
                let mut flags = vec![false; n.div_ceil(PAR_CHUNK)];
                triphase_par::scope(|sc| {
                    let chunks = ins
                        .chunks(PAR_CHUNK)
                        .zip(outs.chunks_mut(PAR_CHUNK))
                        .zip(touts.chunks_mut(PAR_CHUNK))
                        .zip(flags.iter_mut());
                    for (((ic, oc), tc), fl) in chunks {
                        let eval_chunk = &eval_chunk;
                        sc.spawn(move || {
                            *fl = eval_chunk(ic, oc, tc);
                        });
                    }
                });
                *changed |= flags.iter().any(|&f| f);
            }
        }
    }

    /// Settle combinational logic, transparent latches, and clock-gate
    /// outputs to a fixpoint over all lanes. Returns `true` if any
    /// storage clock net changed in any lane (mid-step gated-clock
    /// event). Same structure as the scalar simulator's settle loop.
    fn settle_data(&mut self) -> bool {
        let mut clock_changed = false;
        for _pass in 0..MAX_SETTLE_PASSES {
            let mut changed = false;
            self.run_comb(&mut changed);

            for i in 0..self.storage.len() {
                self.clk_snapshot[i] = self.values[self.storage[i].ck as usize];
            }
            self.eval_clock_network();
            for (si, s) in self.storage.iter().enumerate() {
                if self.clk_snapshot[si] != self.values[s.ck as usize] {
                    clock_changed = true;
                    changed = true;
                }
            }

            for i in 0..self.storage.len() {
                let s = self.storage[i];
                let transparent_of = match s.kind {
                    SKind::LatchH => true,
                    SKind::LatchL => false,
                    SKind::Dff | SKind::DffEn => continue,
                };
                let g = self.values[s.ck as usize];
                let transparent = if transparent_of {
                    g.is_one()
                } else {
                    g.is_zero()
                };
                let d = self.values[s.d as usize];
                let q = self.values[s.q as usize];
                // transparent → d; X gate with d != q → X; else hold q.
                let go_x = g.is_x().and(d.eq_lanes(q).not());
                let next = Lanes::merge(transparent, d, Lanes::merge(go_x, Lanes::X, q));
                if next != q {
                    changed = true;
                    self.set_slot(s.q, next);
                }
            }
            if !changed {
                return clock_changed;
            }
        }
        clock_changed
    }
}

/// Width-erased compiled simulator: picks the narrowest lane width `W ∈
/// {1, 2, 4, 8}` covering the requested lane count (1..=64 → x1, …,
/// 257..=[`MAX_STREAMS`] → x8).
#[derive(Debug)]
pub enum CompiledAny<'a> {
    /// 64 lanes per pass.
    W1(CompiledSim<'a, 1>),
    /// 128 lanes per pass.
    W2(CompiledSim<'a, 2>),
    /// 256 lanes per pass.
    W4(CompiledSim<'a, 4>),
    /// 512 lanes per pass.
    W8(CompiledSim<'a, 8>),
}

macro_rules! on_any {
    ($self:expr, $s:ident => $e:expr) => {
        match $self {
            CompiledAny::W1($s) => $e,
            CompiledAny::W2($s) => $e,
            CompiledAny::W4($s) => $e,
            CompiledAny::W8($s) => $e,
        }
    };
}

impl<'a> CompiledAny<'a> {
    /// Build a compiled simulator for `lanes` stimulus streams
    /// (`1..=`[`MAX_STREAMS`]).
    ///
    /// # Errors
    ///
    /// As [`CompiledSim::new`]; lane counts outside the range are
    /// rejected.
    pub fn new(nl: &'a Netlist, lanes: usize) -> Result<CompiledAny<'a>> {
        match lanes {
            1..=64 => Ok(CompiledAny::W1(CompiledSim::new(nl, lanes)?)),
            65..=128 => Ok(CompiledAny::W2(CompiledSim::new(nl, lanes)?)),
            129..=256 => Ok(CompiledAny::W4(CompiledSim::new(nl, lanes)?)),
            257..=MAX_STREAMS => Ok(CompiledAny::W8(CompiledSim::new(nl, lanes)?)),
            _ => Err(Error::Netlist(triphase_netlist::Error::Invalid(format!(
                "compiled lane count {lanes} outside 1..={MAX_STREAMS}"
            )))),
        }
    }

    /// Lane width in 64-bit words (1, 2, 4, or 8).
    pub fn width(&self) -> usize {
        match self {
            CompiledAny::W1(_) => 1,
            CompiledAny::W2(_) => 2,
            CompiledAny::W4(_) => 4,
            CompiledAny::W8(_) => 8,
        }
    }

    /// Active lane count.
    pub fn lanes(&self) -> usize {
        on_any!(self, s => s.lanes())
    }

    /// Cycles stepped per lane since the last reset.
    pub fn per_lane_cycles(&self) -> u64 {
        on_any!(self, s => s.per_lane_cycles())
    }

    /// Lowering-pass counters for this design.
    pub fn lower_stats(&self) -> LowerStats {
        on_any!(self, s => s.lower_stats())
    }

    /// Force the per-level parallel path on or off.
    pub fn set_parallel(&mut self, on: bool) {
        on_any!(self, s => s.set_parallel(on));
    }

    /// Reset every lane to the all-zero state (see
    /// [`CompiledSim::reset_zero`]).
    pub fn reset_zero(&mut self) {
        on_any!(self, s => s.reset_zero());
    }

    /// Advance one full clock cycle for every lane.
    pub fn step_cycle(&mut self) {
        on_any!(self, s => s.step_cycle());
    }

    /// Queue known input bits per lane: lane `l` takes bit `l % 64` of
    /// `bits[l / 64]` (missing words read as 0).
    ///
    /// # Panics
    ///
    /// Panics if `port` is not an input port.
    pub fn set_input_bits(&mut self, port: PortId, bits: &[u64]) {
        fn gather<const W: usize>(bits: &[u64]) -> Lanes<W> {
            let mut words = [0u64; W];
            for (i, w) in words.iter_mut().enumerate() {
                *w = bits.get(i).copied().unwrap_or(0);
            }
            Lanes::from_bits(words)
        }
        on_any!(self, s => s.set_input(port, gather(bits)));
    }

    /// Queue the same value on every lane of an input port.
    ///
    /// # Panics
    ///
    /// Panics if `port` is not an input port.
    pub fn set_input_splat(&mut self, port: PortId, v: Logic) {
        on_any!(self, s => s.set_input(port, Lanes::splat(v)));
    }

    /// Value seen by an output port in one lane.
    pub fn output_lane(&self, port: PortId, lane: usize) -> Logic {
        on_any!(self, s => s.output(port).get(lane))
    }

    /// Value of a net in one lane.
    pub fn net_value_lane(&self, net: NetId, lane: usize) -> Logic {
        on_any!(self, s => s.net_value(net).get(lane))
    }

    /// Enable-latch state of a clock-gate cell in one lane.
    pub fn icg_state_lane(&self, cell: CellId, lane: usize) -> Logic {
        on_any!(self, s => s.icg_state(cell).get(lane))
    }

    /// Number of active lanes where a net currently holds exactly 1.
    pub fn net_ones(&self, net: NetId) -> u64 {
        on_any!(self, s => { let m = s.mask; s.net_value(net).ones(m) })
    }

    /// Switching activity accumulated so far (summed over lanes).
    pub fn activity(&self) -> Activity {
        on_any!(self, s => s.activity())
    }
}

/// Per-lane stream seeds: lane 0 keeps `seed` verbatim (so lane 0
/// reproduces the historical single-stream run exactly); lane `l > 0`
/// draws an independent seed from `splitmix64(seed + l)`.
pub fn lane_seeds(seed: u64, lanes: usize) -> Vec<u64> {
    (0..lanes)
        .map(|l| {
            if l == 0 {
                seed
            } else {
                SplitMix64::new(seed.wrapping_add(l as u64)).next_u64()
            }
        })
        .collect()
}

/// Multi-lane twin of [`run_random`](crate::run_random): drive `lanes`
/// independent pseudo-random streams for `cycles` cycles each. Lane
/// `l`'s stimulus equals a scalar `run_random` with seed
/// `lane_seeds(seed, lanes)[l]` (same per-port draw order), so results
/// are bit-exact with the scalar simulator lane for lane.
///
/// # Errors
///
/// Simulator construction errors.
pub fn run_random_compiled(
    nl: &Netlist,
    seed: u64,
    cycles: u64,
    lanes: usize,
) -> Result<CompiledAny<'_>> {
    let inputs = crate::equiv::data_inputs(nl);
    let mut sim = CompiledAny::new(nl, lanes)?;
    sim.reset_zero();
    let mut streams: Vec<SplitMix64> = lane_seeds(seed, lanes)
        .into_iter()
        .map(SplitMix64::new)
        .collect();
    for _ in 0..cycles {
        for &p in &inputs {
            let mut bits = [0u64; 8];
            for (l, s) in streams.iter_mut().enumerate() {
                bits[l / 64] |= u64::from(s.next_bit()) << (l % 64);
            }
            sim.set_input_bits(p, &bits);
        }
        sim.step_cycle();
    }
    Ok(sim)
}

/// Gather switching activity with the compiled backend: splits `cycles`
/// total simulated cycles across up to [`MAX_STREAMS`] lanes (per-lane
/// count rounded up). The default drive for flow activity collection.
///
/// # Errors
///
/// Simulator construction errors.
pub fn collect_activity_compiled(nl: &Netlist, seed: u64, cycles: u64) -> Result<Activity> {
    let lanes = cycles.clamp(1, MAX_STREAMS as u64) as usize;
    let per_lane = cycles.div_ceil(lanes as u64);
    Ok(run_random_compiled(nl, seed, per_lane, lanes)?.activity())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_random, Simulator};
    use triphase_cells::CellKind;
    use triphase_netlist::{Builder, ClockSpec, Word};

    /// Toggle vector of `lanes` scalar runs, one per lane seed, summed:
    /// the multi-lane kernel's activity must equal it exactly.
    fn scalar_lane_sum(nl: &Netlist, seed: u64, cycles: u64, lanes: usize) -> Vec<u64> {
        let mut summed = vec![0u64; nl.net_capacity()];
        for ls in lane_seeds(seed, lanes) {
            let scalar = run_random(nl, ls, cycles).unwrap();
            for (total, t) in summed.iter_mut().zip(&scalar.activity().net_toggles) {
                *total += t;
            }
        }
        summed
    }

    /// 3-bit counter.
    fn counter() -> Netlist {
        let mut nl = Netlist::new("cnt");
        let mut b = Builder::new(&mut nl, "u");
        let (ckp, ck) = b.netlist().add_input("ck");
        let q0 = b.net("q0");
        let q1 = b.net("q1");
        let q2 = b.net("q2");
        let one = b.const1();
        let q = Word(vec![q0, q1, q2]);
        let one_w = Word(vec![one, b.const0(), b.const0()]);
        let (next, _) = b.add(&q, &one_w, None);
        for (i, (&qn, d)) in [q0, q1, q2].iter().zip(next.bits()).enumerate() {
            let name = format!("ff{i}");
            b.netlist().add_cell(name, CellKind::Dff, vec![*d, ck, qn]);
        }
        b.word_output("q", &q);
        nl.clock = Some(ClockSpec::single(ckp, 1000.0));
        nl
    }

    #[test]
    fn compiled_counter_counts_in_distant_lanes() {
        let nl = counter();
        let mut sim = CompiledAny::new(&nl, 512).unwrap();
        sim.reset_zero();
        for expect in 1..=9u32 {
            sim.step_cycle();
            for lane in [0usize, 63, 64, 200, 511] {
                let got: u32 = (0..3)
                    .map(|i| {
                        let p = nl.find_port(&format!("q_{i}")).unwrap();
                        match sim.output_lane(p, lane) {
                            Logic::One => 1 << i,
                            _ => 0,
                        }
                    })
                    .sum();
                assert_eq!(got, expect % 8, "cycle {expect} lane {lane}");
            }
        }
    }

    #[test]
    fn single_lane_activity_identical_to_scalar() {
        let nl = counter();
        let scalar = {
            let mut sim = Simulator::new(&nl).unwrap();
            sim.reset_zero();
            for _ in 0..8 {
                sim.step_cycle();
            }
            sim.activity().clone()
        };
        let compiled = {
            let mut sim = CompiledAny::new(&nl, 1).unwrap();
            sim.reset_zero();
            for _ in 0..8 {
                sim.step_cycle();
            }
            sim.activity()
        };
        assert_eq!(compiled.cycles, scalar.cycles);
        assert_eq!(compiled.net_toggles, scalar.net_toggles);
    }

    #[test]
    fn matches_scalar_values_and_toggles_at_64_lanes() {
        let nl = counter();
        let seed = 42;
        let compiled = run_random_compiled(&nl, seed, 20, 64).unwrap();
        let ca = compiled.activity();
        assert_eq!(ca.cycles, 20 * 64);
        assert_eq!(ca.net_toggles, scalar_lane_sum(&nl, seed, 20, 64));
        let seeds = lane_seeds(seed, 64);
        for lane in [0usize, 17, 63] {
            let scalar = run_random(&nl, seeds[lane], 20).unwrap();
            for (net, _) in nl.nets() {
                assert_eq!(
                    compiled.net_value_lane(net, lane),
                    scalar.net_value(net),
                    "net {net:?} lane {lane}"
                );
            }
        }
    }

    #[test]
    fn wide_lanes_match_per_seed_scalar_runs() {
        let nl = counter();
        let seed = 7;
        let cycles = 12;
        let lanes = 130; // forces W = 4
        let compiled = run_random_compiled(&nl, seed, cycles, lanes).unwrap();
        assert_eq!(compiled.width(), 4);
        let q1 = nl.find_port("q_1").unwrap();
        for (l, &ls) in lane_seeds(seed, lanes)
            .iter()
            .enumerate()
            .filter(|(l, _)| [0, 64, 129].contains(l))
        {
            let scalar = run_random(&nl, ls, cycles).unwrap();
            assert_eq!(compiled.output_lane(q1, l), scalar.output(q1), "lane {l}");
        }
    }

    #[test]
    fn parallel_path_is_bit_identical() {
        let nl = counter();
        let run = |parallel: bool| {
            let mut sim = CompiledAny::new(&nl, 96).unwrap();
            sim.set_parallel(parallel);
            sim.reset_zero();
            let inputs = crate::equiv::data_inputs(&nl);
            let mut streams: Vec<SplitMix64> = lane_seeds(11, 96)
                .into_iter()
                .map(SplitMix64::new)
                .collect();
            for _ in 0..16 {
                for &p in &inputs {
                    let mut bits = [0u64; 8];
                    for (l, s) in streams.iter_mut().enumerate() {
                        bits[l / 64] |= u64::from(s.next_bit()) << (l % 64);
                    }
                    sim.set_input_bits(p, &bits);
                }
                sim.step_cycle();
            }
            sim.activity()
        };
        let serial = run(false);
        let parallel = run(true);
        assert_eq!(serial.cycles, parallel.cycles);
        assert_eq!(serial.net_toggles, parallel.net_toggles);
    }

    #[test]
    fn activity_cycles_scale_with_lanes() {
        let nl = counter();
        let act = collect_activity_compiled(&nl, 7, 5120).unwrap();
        assert_eq!(act.cycles, 5120);
        let ck = nl.find_port("ck").unwrap();
        let ck_net = nl.port(ck).net;
        assert_eq!(act.net_toggles[ck_net.index()], 2 * 5120);
    }

    #[test]
    fn lane_count_validated() {
        let nl = counter();
        assert!(CompiledAny::new(&nl, 0).is_err());
        assert!(CompiledAny::new(&nl, 513).is_err());
        assert!(CompiledAny::new(&nl, 512).is_ok());
        assert!(CompiledSim::<2>::new(&nl, 129).is_err());
    }

    #[test]
    fn lowering_folds_and_dedupes() {
        // Two identical AND gates plus a buf/inv chain and a constant
        // AND — exercises dedupe, chain collapse, and const folding.
        let mut nl = Netlist::new("t");
        let mut b = Builder::new(&mut nl, "u");
        let (ckp, ck) = b.netlist().add_input("ck");
        let (_, a) = b.netlist().add_input("a");
        let (_, c) = b.netlist().add_input("c");
        let x1 = b.gate(CellKind::And(2), &[a, c]);
        let x2 = b.gate(CellKind::And(2), &[a, c]);
        let inv = b.not(a);
        let buf = b.buf(inv);
        let z = b.const0();
        let dead = b.gate(CellKind::And(2), &[a, z]);
        let y = b.gate(CellKind::Or(2), &[x1, x2]);
        let w = b.gate(CellKind::Or(2), &[buf, dead]);
        let q = b.dff(y, ck);
        let q2 = b.dff(w, ck);
        b.netlist().add_output("q", q);
        b.netlist().add_output("q2", q2);
        nl.clock = Some(ClockSpec::single(ckp, 1000.0));

        let sim = CompiledAny::new(&nl, 8).unwrap();
        let st = sim.lower_stats();
        assert!(st.deduped >= 1, "duplicate AND should dedupe: {st:?}");
        assert!(st.const_folded >= 1, "AND(a, 0) should fold: {st:?}");
        assert!(
            st.chains_collapsed >= 1,
            "buf chain should collapse: {st:?}"
        );

        // And the optimized program still matches scalar bit-for-bit.
        let compiled = run_random_compiled(&nl, 3, 24, 8).unwrap();
        assert_eq!(
            compiled.activity().net_toggles,
            scalar_lane_sum(&nl, 3, 24, 8)
        );
    }
}
