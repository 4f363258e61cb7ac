//! Levelized cycle-accurate simulation with multi-phase clocks.
//!
//! Each cycle is divided into sub-steps at every distinct clock-edge time
//! of the design's [`ClockSpec`]. At each sub-step the clock network
//! (buffers + clock gates) is re-evaluated, rising-edge FFs capture their
//! pre-edge data, and the combinational fabric plus transparent latches are
//! settled to a fixpoint. Per-net 0↔1 toggles are counted into an
//! [`Activity`] profile that drives power estimation and data-driven clock
//! gating.

use crate::error::{Error, Result};
use crate::logic::{eval_kind, Logic};
use std::collections::HashMap;
use triphase_cells::CellKind;
use triphase_netlist::{graph, CellId, ConnIndex, NetId, Netlist, PortDir, PortId};

/// Reject clock specifications the edge scheduler cannot order: a
/// non-finite or non-positive period makes `rem_euclid` produce NaN edge
/// times (which are unsortable), and non-finite edge times do the same.
pub(crate) fn validate_clock(clock: &triphase_netlist::ClockSpec) -> Result<()> {
    if !clock.period_ps.is_finite() || clock.period_ps <= 0.0 {
        return Err(Error::BadClock(format!(
            "period {} ps is not a positive finite time",
            clock.period_ps
        )));
    }
    for (i, p) in clock.phases.iter().enumerate() {
        if !p.rise_ps.is_finite() || !p.fall_ps.is_finite() {
            return Err(Error::BadClock(format!(
                "phase {i} has non-finite edge times (rise {} ps, fall {} ps)",
                p.rise_ps, p.fall_ps
            )));
        }
    }
    Ok(())
}

/// Per-net switching statistics.
#[derive(Debug, Clone, Default)]
pub struct Activity {
    /// Simulated cycles.
    pub cycles: u64,
    /// Total 0↔1 transitions per net (indexed by `NetId`).
    pub net_toggles: Vec<u64>,
}

impl Activity {
    /// Average toggles per cycle of `net`.
    ///
    /// # Errors
    ///
    /// [`Error::NoCycles`] if no cycles were simulated — reachable e.g.
    /// when an activity collection is asked for zero cycles; a
    /// silent `0.0` (or NaN) here would corrupt downstream power numbers.
    pub fn toggle_rate(&self, net: NetId) -> Result<f64> {
        if self.cycles == 0 {
            Err(Error::NoCycles)
        } else {
            Ok(self.net_toggles[net.index()] as f64 / self.cycles as f64)
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct ClockEvent {
    /// Time within the cycle (ps).
    time: f64,
}

/// Cycle-accurate simulator over a netlist with a clock spec.
#[derive(Debug)]
pub struct Simulator<'a> {
    nl: &'a Netlist,
    comb_order: Vec<CellId>,
    clock_order: Vec<CellId>,
    storage: Vec<CellId>,
    /// Internal enable-latch state per clock-gate cell (by cell index).
    icg_state: Vec<Logic>,
    values: Vec<Logic>,
    pending_inputs: Vec<(NetId, Logic)>,
    activity: Activity,
    events: Vec<ClockEvent>,
    clock_ports: Vec<(PortId, NetId, usize)>,
    cycles: u64,
}

pub(crate) const MAX_SETTLE_PASSES: usize = 64;

impl<'a> Simulator<'a> {
    /// Build a simulator; all state starts at `X`.
    ///
    /// # Errors
    ///
    /// [`Error::NoClock`] if the netlist has no clock spec;
    /// [`Error::BadClock`] on an unusable one (zero/NaN period or
    /// non-finite edge times); [`Error::Netlist`] on combinational loops.
    pub fn new(nl: &'a Netlist) -> Result<Simulator<'a>> {
        let clock = nl.clock.as_ref().ok_or(Error::NoClock)?;
        validate_clock(clock)?;
        let idx = nl.index();
        let comb_order = graph::comb_topo_order(nl, &idx).map_err(Error::Netlist)?;
        let clock_order = clock_network_order(nl, &idx)?;
        let storage: Vec<CellId> = nl
            .cells()
            .filter(|(_, c)| c.kind.is_storage())
            .map(|(id, _)| id)
            .collect();

        // Distinct edge times within the cycle, ascending.
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
        times.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let events = times.into_iter().map(|time| ClockEvent { time }).collect();

        let clock_ports = clock
            .phases
            .iter()
            .enumerate()
            .map(|(i, p)| (p.port, nl.port(p.port).net, i))
            .collect();

        Ok(Simulator {
            nl,
            comb_order,
            clock_order,
            storage,
            icg_state: vec![Logic::X; nl.cell_capacity()],
            values: vec![Logic::X; nl.net_capacity()],
            pending_inputs: Vec::new(),
            activity: Activity {
                cycles: 0,
                net_toggles: vec![0; nl.net_capacity()],
            },
            events,
            clock_ports,
            cycles: 0,
        })
    }

    /// Reset all nets and internal state to logic 0 (the gate-level
    /// equivalent of a global reset) and clear activity counters.
    ///
    /// Clock nets are left at their **end-of-cycle** levels (e.g. `p3`
    /// high in a 3-phase scheme), as if reset were released just before a
    /// cycle boundary with the clocks running. This makes latches whose
    /// transparency window ends at the boundary sample the reset state
    /// during cycle 0's pre-settle — matching an FF capturing
    /// reset-settled data at its first edge, which is what cycle-exact
    /// FF-vs-latch equivalence requires.
    ///
    /// For the same reason, clock-gate enable latches (`Icg`/`IcgM1`)
    /// come out of reset holding the **settled** reset-state enable, not
    /// a blanket zero: with the clocks running during reset every enable
    /// latch saw a transparent window and tracked its enable cone. A
    /// gate whose root clock is high at the release boundary (e.g. a
    /// `p3`-rooted ICG) is opaque at that instant, so a stale zero would
    /// never be corrected and would suppress the boundary capture that
    /// the corresponding FF performs at its first edge.
    pub fn reset_zero(&mut self) {
        self.values.fill(Logic::Zero);
        self.icg_state.fill(Logic::Zero);
        self.activity.net_toggles.fill(0);
        self.activity.cycles = 0;
        self.cycles = 0;
        self.pending_inputs.clear();
        let period = self.nl.clock.as_ref().expect("checked in new").period_ps;
        for i in 0..self.clock_ports.len() {
            let (_, net, phase) = self.clock_ports[i];
            let v = self.clock_level(phase, period - 1e-6);
            self.values[net.index()] = v;
        }
        self.eval_clock_network();
        // Settle the enable cones over the all-zero state, then load every
        // enable latch as if its transparent window had just closed.
        self.settle_data();
        for ci in 0..self.nl.cell_capacity() {
            let c = CellId::from_index(ci);
            let Some(cell) = self.nl.try_cell(c) else {
                continue;
            };
            if matches!(cell.kind, CellKind::Icg | CellKind::IcgM1) {
                self.icg_state[ci] = self.values[cell.pin(0).index()];
            }
        }
        self.eval_clock_network();
        self.settle_data();
    }

    /// Queue an input value; applied at the start of the next cycle.
    ///
    /// # Panics
    ///
    /// Panics if `port` is not an input port.
    pub fn set_input(&mut self, port: PortId, value: Logic) {
        let p = self.nl.port(port);
        assert_eq!(p.dir, PortDir::Input, "set_input on non-input");
        self.pending_inputs.push((p.net, value));
    }

    /// Current value seen by an output port.
    pub fn output(&self, port: PortId) -> Logic {
        self.values[self.nl.port(port).net.index()]
    }

    /// Current value of a net.
    pub fn net_value(&self, net: NetId) -> Logic {
        self.values[net.index()]
    }

    /// Accumulated switching activity.
    pub fn activity(&self) -> &Activity {
        &self.activity
    }

    /// Cycles simulated since the last reset.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Current enable-latch state of a clock-gate cell (`Icg`/`IcgM1`);
    /// [`Logic::X`] for cells without internal state. Formal equivalence
    /// checking samples this to seed candidate state correspondences.
    pub fn icg_state(&self, cell: CellId) -> Logic {
        self.icg_state[cell.index()]
    }

    fn set_net(&mut self, net: NetId, val: Logic) {
        let old = self.values[net.index()];
        if old != val {
            if old.is_known() && val.is_known() {
                self.activity.net_toggles[net.index()] += 1;
            }
            self.values[net.index()] = val;
        }
    }

    /// Advance one full clock cycle.
    ///
    /// Input convention (matching the paper's treatment of PIs as
    /// `p1`-launched signals): pending inputs are applied **just after**
    /// the cycle's first clock event, so edge-triggered state captures the
    /// *previous* cycle's input values, exactly like a registered
    /// testbench driving inputs after the active edge.
    pub fn step_cycle(&mut self) {
        // Make combinational state consistent before the capture edge
        // (no-op in steady state; settles the reset state on cycle 0).
        self.settle_data();
        let events: Vec<ClockEvent> = self.events.clone();
        for (i, ev) in events.iter().enumerate() {
            self.process_clock_event(ev.time);
            if i == 0 {
                let pending = std::mem::take(&mut self.pending_inputs);
                for (net, v) in pending {
                    self.set_net(net, v);
                }
                self.settle_data();
            }
        }
        self.cycles += 1;
        self.activity.cycles += 1;
    }

    fn clock_level(&self, phase: usize, t: f64) -> Logic {
        let clock = self.nl.clock.as_ref().expect("checked in new");
        let p = &clock.phases[phase];
        let period = clock.period_ps;
        let (r, f) = (p.rise_ps.rem_euclid(period), p.fall_ps.rem_euclid(period));
        let high = if r < f {
            t >= r - 1e-9 && t < f - 1e-9
        } else {
            // Wrapping window.
            t >= r - 1e-9 || t < f - 1e-9
        };
        Logic::from_bool(high)
    }

    fn process_clock_event(&mut self, t: f64) {
        // Up to a few rounds in case a gated clock rises as a result of
        // data settling (models M2-style hazards instead of hiding them).
        for _ in 0..4 {
            let before_ck: Vec<Logic> = self
                .storage
                .iter()
                .map(|&c| {
                    let cell = self.nl.cell(c);
                    self.values[cell.pin(cell.kind.clock_pin().unwrap()).index()]
                })
                .collect();

            // Drive clock roots for this instant.
            for i in 0..self.clock_ports.len() {
                let (_, net, phase) = self.clock_ports[i];
                let v = self.clock_level(phase, t);
                self.set_net(net, v);
            }
            self.eval_clock_network();

            // Capture: FFs whose clock rose latch their pre-edge data.
            let mut updates: Vec<(NetId, Logic)> = Vec::new();
            for (si, &c) in self.storage.iter().enumerate() {
                let cell = self.nl.cell(c);
                if !cell.kind.is_ff() {
                    continue;
                }
                let ck = self.values[cell.pin(cell.kind.clock_pin().unwrap()).index()];
                // A definite rise captures; an X on either side of the
                // transition is a *maybe*-edge (e.g. a gate enable cone
                // fed by unknown inputs): the FF may or may not have
                // captured, so the result merges to X unless D == Q —
                // mirroring the conservative unknown-gate latch model.
                // Binary clock waveforms never take the maybe path.
                let rose = before_ck[si] == Logic::Zero && ck == Logic::One;
                let maybe =
                    !rose && (ck == Logic::X || (before_ck[si] == Logic::X && ck == Logic::One));
                if !rose && !maybe {
                    continue;
                }
                let d = self.values[cell.pin(0).index()];
                let q_net = cell.output();
                let q = self.values[q_net.index()];
                let captured = match cell.kind {
                    CellKind::Dff => d,
                    CellKind::DffEn => {
                        let en = self.values[cell.pin(1).index()];
                        match en {
                            Logic::One => d,
                            Logic::Zero => q,
                            Logic::X => {
                                if d == q {
                                    d
                                } else {
                                    Logic::X
                                }
                            }
                        }
                    }
                    _ => unreachable!(),
                };
                let next = if rose || captured == q {
                    captured
                } else {
                    Logic::X
                };
                updates.push((q_net, next));
            }
            for (net, v) in updates {
                self.set_net(net, v);
            }
            let changed_clocks = self.settle_data();
            if !changed_clocks {
                break;
            }
        }
    }

    /// Evaluate clock buffers and clock gates in dependency order.
    fn eval_clock_network(&mut self) {
        let order = std::mem::take(&mut self.clock_order);
        for &c in &order {
            self.eval_clock_cell(c);
        }
        self.clock_order = order;
    }

    fn eval_clock_cell(&mut self, c: CellId) {
        let cell = self.nl.cell(c);
        let out = cell.output();
        let v = match cell.kind {
            CellKind::ClkBuf | CellKind::Buf => self.values[cell.pin(0).index()],
            CellKind::Icg => {
                let en = self.values[cell.pin(0).index()];
                let ck = self.values[cell.pin(1).index()];
                if ck != Logic::One {
                    // Enable latch transparent while CK low.
                    self.icg_state[c.index()] = en;
                }
                ck.and(self.icg_state[c.index()])
            }
            CellKind::IcgM1 => {
                let en = self.values[cell.pin(0).index()];
                let p3 = self.values[cell.pin(1).index()];
                let ck = self.values[cell.pin(2).index()];
                if p3 == Logic::One {
                    self.icg_state[c.index()] = en;
                }
                ck.and(self.icg_state[c.index()])
            }
            CellKind::IcgM2 => {
                let en = self.values[cell.pin(0).index()];
                let ck = self.values[cell.pin(1).index()];
                ck.and(en)
            }
            _ => unreachable!("non-clock cell in clock order"),
        };
        self.set_net(out, v);
    }

    /// Settle combinational logic, transparent latches, and (data-driven)
    /// clock-gate outputs. Returns `true` if any storage clock net changed
    /// during settling (an M2-style mid-step clock event).
    fn settle_data(&mut self) -> bool {
        let mut clock_changed = false;
        let mut scratch: Vec<Logic> = Vec::with_capacity(8);
        for _pass in 0..MAX_SETTLE_PASSES {
            let mut changed = false;
            // Combinational fabric.
            let order = std::mem::take(&mut self.comb_order);
            for &c in &order {
                let cell = self.nl.cell(c);
                scratch.clear();
                scratch.extend(cell.inputs().iter().map(|&n| self.values[n.index()]));
                let v = eval_kind(cell.kind, &scratch);
                let out = cell.output();
                if self.values[out.index()] != v {
                    changed = true;
                    self.set_net(out, v);
                }
            }
            self.comb_order = order;
            // Clock gates may see new enables.
            let clk_snapshot: Vec<Logic> = self
                .storage
                .iter()
                .map(|&c| {
                    let cell = self.nl.cell(c);
                    self.values[cell.pin(cell.kind.clock_pin().unwrap()).index()]
                })
                .collect();
            self.eval_clock_network();
            for (si, &c) in self.storage.iter().enumerate() {
                let cell = self.nl.cell(c);
                let now = self.values[cell.pin(cell.kind.clock_pin().unwrap()).index()];
                if clk_snapshot[si] != now {
                    clock_changed = true;
                    changed = true;
                }
            }
            // Transparent latches.
            let storage = std::mem::take(&mut self.storage);
            for &c in &storage {
                let cell = self.nl.cell(c);
                if !cell.kind.is_latch() {
                    continue;
                }
                let g = self.values[cell.pin(1).index()];
                let transparent = match cell.kind {
                    CellKind::LatchH => g == Logic::One,
                    CellKind::LatchL => g == Logic::Zero,
                    _ => unreachable!(),
                };
                let unknown_gate = g == Logic::X;
                let d = self.values[cell.pin(0).index()];
                let q_net = cell.output();
                let q = self.values[q_net.index()];
                let next = if transparent {
                    d
                } else if unknown_gate && d != q {
                    Logic::X
                } else {
                    q
                };
                if next != q {
                    changed = true;
                    self.set_net(q_net, next);
                }
            }
            self.storage = storage;
            if !changed {
                return clock_changed;
            }
        }
        clock_changed
    }
}

/// Topological order of the clock network (buffers driving gates etc.).
/// Shared with the compiled kernel, whose clock ops must follow the
/// exact same dependency order.
pub(crate) fn clock_network_order(nl: &Netlist, idx: &ConnIndex) -> Result<Vec<CellId>> {
    let is_clock_cell = |k: CellKind| k.is_clock_gate() || k == CellKind::ClkBuf;
    let mut order = Vec::new();
    let mut state: HashMap<CellId, u8> = HashMap::new(); // 1=visiting, 2=done
    let mut stack: Vec<(CellId, bool)> = nl
        .cells()
        .filter(|(_, c)| is_clock_cell(c.kind))
        .map(|(id, _)| (id, false))
        .collect();
    while let Some((c, processed)) = stack.pop() {
        if processed {
            state.insert(c, 2);
            order.push(c);
            continue;
        }
        match state.get(&c) {
            Some(2) => continue,
            Some(1) => {
                return Err(Error::Netlist(triphase_netlist::Error::Invalid(format!(
                    "clock network cycle at {}",
                    nl.cell(c).name
                ))))
            }
            _ => {}
        }
        state.insert(c, 1);
        stack.push((c, true));
        // Depend on the upstream clock cell driving our clock input(s).
        let cell = nl.cell(c);
        let dep_pins: Vec<usize> = match cell.kind {
            CellKind::ClkBuf => vec![0],
            CellKind::Icg | CellKind::IcgM2 => vec![1],
            CellKind::IcgM1 => vec![1, 2],
            _ => unreachable!(),
        };
        for pin in dep_pins {
            if let Some(drv) = idx.driver(cell.pin(pin)) {
                if is_clock_cell(nl.cell(drv.cell).kind) {
                    match state.get(&drv.cell).copied() {
                        Some(2) => {}
                        Some(_) => {
                            return Err(Error::Netlist(triphase_netlist::Error::Invalid(format!(
                                "clock network cycle at {}",
                                nl.cell(drv.cell).name
                            ))))
                        }
                        None => stack.push((drv.cell, false)),
                    }
                }
            }
        }
    }
    Ok(order)
}

#[cfg(test)]
mod tests {
    use super::*;
    use triphase_netlist::{Builder, ClockSpec};

    #[test]
    fn zero_cycle_activity_is_a_typed_error() {
        // Regression: an empty activity used to yield NaN/undefined
        // toggle rates; it must surface as Error::NoCycles instead.
        let act = Activity {
            cycles: 0,
            net_toggles: vec![5],
        };
        let net = triphase_netlist::NetId::from_index(0);
        assert!(matches!(act.toggle_rate(net), Err(Error::NoCycles)));
        let nonzero = Activity {
            cycles: 10,
            net_toggles: vec![5],
        };
        assert_eq!(nonzero.toggle_rate(net).unwrap(), 0.5);
    }

    #[test]
    fn degenerate_clock_periods_are_typed_errors() {
        // Regression (found by the fuzz campaign): a zero/NaN clock
        // period made `rem_euclid` produce NaN edge times, and sorting
        // them panicked inside both simulator constructors.
        for period in [0.0, -1000.0, f64::NAN, f64::INFINITY] {
            let mut nl = counter();
            nl.clock.as_mut().unwrap().period_ps = period;
            assert!(
                matches!(Simulator::new(&nl), Err(Error::BadClock(_))),
                "scalar accepted period {period}"
            );
            assert!(
                matches!(
                    crate::CompiledSim::<1>::new(&nl, 1),
                    Err(Error::BadClock(_))
                ),
                "compiled accepted period {period}"
            );
        }
    }

    /// 3-bit counter with plain FFs.
    fn counter() -> Netlist {
        let mut nl = Netlist::new("cnt");
        let mut b = Builder::new(&mut nl, "u");
        let (ckp, ck) = b.netlist().add_input("ck");
        let q0 = b.net("q0");
        let q1 = b.net("q1");
        let q2 = b.net("q2");
        let one = b.const1();
        let q = triphase_netlist::Word(vec![q0, q1, q2]);
        let one_w = triphase_netlist::Word(vec![one, b.const0(), b.const0()]);
        let (next, _) = b.add(&q, &one_w, None);
        for (i, (&qn, d)) in [q0, q1, q2].iter().zip(next.bits()).enumerate() {
            let name = format!("ff{i}");
            b.netlist().add_cell(name, CellKind::Dff, vec![*d, ck, qn]);
        }
        b.word_output("q", &q);
        nl.clock = Some(ClockSpec::single(ckp, 1000.0));
        nl.validate().unwrap();
        nl
    }

    fn read_counter(sim: &Simulator, nl: &Netlist) -> u32 {
        (0..3)
            .map(|i| {
                let p = nl.find_port(&format!("q_{i}")).unwrap();
                match sim.output(p) {
                    Logic::One => 1 << i,
                    _ => 0,
                }
            })
            .sum()
    }

    #[test]
    fn counter_counts() {
        let nl = counter();
        let mut sim = Simulator::new(&nl).unwrap();
        sim.reset_zero();
        for expect in 1..=10u32 {
            sim.step_cycle();
            assert_eq!(read_counter(&sim, &nl), expect % 8, "cycle {expect}");
        }
        assert_eq!(sim.cycles(), 10);
    }

    #[test]
    fn activity_counts_toggles() {
        let nl = counter();
        let mut sim = Simulator::new(&nl).unwrap();
        sim.reset_zero();
        for _ in 0..8 {
            sim.step_cycle();
        }
        let act = sim.activity();
        assert_eq!(act.cycles, 8);
        // q0 toggles every cycle.
        let q0 = nl.find_port("q_0").unwrap();
        let q0_net = nl.port(q0).net;
        assert_eq!(act.net_toggles[q0_net.index()], 8);
        assert!((act.toggle_rate(q0_net).unwrap() - 1.0).abs() < 1e-9);
        // The clock toggles twice per cycle.
        let ck = nl.find_port("ck").unwrap();
        let ck_net = nl.port(ck).net;
        assert_eq!(act.net_toggles[ck_net.index()], 16);
    }

    #[test]
    fn dffen_holds_when_disabled() {
        let mut nl = Netlist::new("en");
        let mut b = Builder::new(&mut nl, "u");
        let (ckp, ck) = b.netlist().add_input("ck");
        let (enp, en) = b.netlist().add_input("en");
        let (dp, d) = b.netlist().add_input("d");
        let q = b.dffen(d, en, ck);
        b.netlist().add_output("q", q);
        nl.clock = Some(ClockSpec::single(ckp, 1000.0));
        let qp = nl.find_port("q").unwrap();
        let mut sim = Simulator::new(&nl).unwrap();
        sim.reset_zero();
        // Inputs land after the edge, so captures lag by one cycle.
        sim.set_input(dp, Logic::One);
        sim.set_input(enp, Logic::One);
        sim.step_cycle();
        sim.step_cycle();
        assert_eq!(sim.output(qp), Logic::One);
        sim.set_input(dp, Logic::Zero);
        sim.set_input(enp, Logic::Zero);
        sim.step_cycle();
        sim.step_cycle();
        assert_eq!(sim.output(qp), Logic::One, "disabled FF holds");
        sim.set_input(enp, Logic::One);
        sim.set_input(dp, Logic::Zero);
        sim.step_cycle();
        sim.step_cycle();
        assert_eq!(sim.output(qp), Logic::Zero);
    }

    #[test]
    fn latch_transparency_window() {
        // LatchH on a 1-phase clock: transparent in the first half-cycle.
        let mut nl = Netlist::new("lat");
        let (ckp, ck) = nl.add_input("ck");
        let (dp, d) = nl.add_input("d");
        let q = nl.add_net("q");
        nl.add_cell("l0", CellKind::LatchH, vec![d, ck, q]);
        nl.add_output("q", q);
        nl.clock = Some(ClockSpec::single(ckp, 1000.0));
        let qp = nl.find_port("q").unwrap();
        let mut sim = Simulator::new(&nl).unwrap();
        sim.reset_zero();
        sim.set_input(dp, Logic::One);
        sim.step_cycle();
        assert_eq!(sim.output(qp), Logic::One, "captured while transparent");
        sim.set_input(dp, Logic::Zero);
        sim.step_cycle();
        assert_eq!(sim.output(qp), Logic::Zero);
    }

    #[test]
    fn icg_gates_clock_and_saves_toggles() {
        // Two FFs: one behind an ICG with EN=0, one free-running.
        let mut nl = Netlist::new("cg");
        let mut b = Builder::new(&mut nl, "u");
        let (ckp, ck) = b.netlist().add_input("ck");
        let (enp, en) = b.netlist().add_input("en");
        let (dp, d) = b.netlist().add_input("d");
        let gck = b.net("gck");
        b.netlist()
            .add_cell("icg", CellKind::Icg, vec![en, ck, gck]);
        let q_gated = b.dff(d, gck);
        let q_free = b.dff(d, ck);
        b.netlist().add_output("qg", q_gated);
        b.netlist().add_output("qf", q_free);
        nl.clock = Some(ClockSpec::single(ckp, 1000.0));
        let qg = nl.find_port("qg").unwrap();
        let qf = nl.find_port("qf").unwrap();
        let mut sim = Simulator::new(&nl).unwrap();
        sim.reset_zero();
        sim.set_input(enp, Logic::Zero);
        sim.set_input(dp, Logic::One);
        sim.step_cycle();
        sim.step_cycle();
        assert_eq!(sim.output(qf), Logic::One, "free FF captured");
        assert_eq!(sim.output(qg), Logic::Zero, "gated FF froze");
        let gck_toggles = sim.activity().net_toggles[gck.index()];
        assert_eq!(gck_toggles, 0, "gated clock net silent");
        // Enable: gated FF follows again.
        sim.set_input(enp, Logic::One);
        sim.step_cycle();
        sim.step_cycle();
        assert_eq!(sim.output(qg), Logic::One);
        assert!(sim.activity().net_toggles[gck.index()] > 0);
    }

    #[test]
    fn icg_enable_sampled_safely() {
        // Enable raised mid-simulation must not produce a runt pulse: the
        // ICG's internal latch only opens while CK is low.
        let mut nl = Netlist::new("cg2");
        let (ckp, ck) = nl.add_input("ck");
        let (enp, en) = nl.add_input("en");
        let (_, d) = nl.add_input("d");
        let gck = nl.add_net("gck");
        let q = nl.add_net("q");
        nl.add_cell("icg", CellKind::Icg, vec![en, ck, gck]);
        nl.add_cell("ff", CellKind::Dff, vec![d, gck, q]);
        nl.add_output("q", q);
        nl.clock = Some(ClockSpec::single(ckp, 1000.0));
        let mut sim = Simulator::new(&nl).unwrap();
        sim.reset_zero();
        sim.set_input(enp, Logic::One);
        sim.step_cycle(); // enable latched while CK is low this cycle
        sim.step_cycle(); // first gated pulse: exactly one rise + fall
        assert_eq!(sim.activity().net_toggles[gck.index()], 2);
        let _ = ckp;
    }

    #[test]
    fn three_phase_latch_pipeline_shifts() {
        // p1 latch -> p2 latch -> p3 latch behaves as one FF stage per
        // cycle boundary-to-boundary.
        let mut nl = Netlist::new("p3");
        let (p1, c1) = nl.add_input("p1");
        let (p2, c2) = nl.add_input("p2");
        let (p3, c3) = nl.add_input("p3");
        let (dp, d) = nl.add_input("d");
        let q1 = nl.add_net("q1");
        let q2 = nl.add_net("q2");
        let q3 = nl.add_net("q3");
        nl.add_cell("l1", CellKind::LatchH, vec![d, c1, q1]);
        nl.add_cell("l2", CellKind::LatchH, vec![q1, c2, q2]);
        nl.add_cell("l3", CellKind::LatchH, vec![q2, c3, q3]);
        nl.add_output("q", q3);
        nl.clock = Some(ClockSpec::equal_phases(&[p1, p2, p3], 900.0));
        let qp = nl.find_port("q").unwrap();
        let mut sim = Simulator::new(&nl).unwrap();
        sim.reset_zero();
        sim.set_input(dp, Logic::One);
        sim.step_cycle();
        assert_eq!(
            sim.output(qp),
            Logic::One,
            "value traverses all three phases within the cycle"
        );
        sim.set_input(dp, Logic::Zero);
        sim.step_cycle();
        assert_eq!(sim.output(qp), Logic::Zero);
    }
}
