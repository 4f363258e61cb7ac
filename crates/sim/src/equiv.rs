//! Equivalence checking by input streaming (the paper's validation
//! methodology: "streaming inputs to the FF-based and latch-based designs
//! and compare output streams").

use crate::compile::{lane_seeds, CompiledSim, Lanes, LANES};
use crate::error::{Error, Result};
use crate::logic::Logic;
use crate::sim::Simulator;
use triphase_netlist::{Netlist, PortId};

/// First divergence found between two designs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mismatch {
    /// Cycle at which outputs diverged (0-based).
    pub cycle: u64,
    /// Name of the diverging output port.
    pub port: String,
    /// Value produced by the reference design.
    pub expected: Logic,
    /// Value produced by the design under test.
    pub actual: Logic,
}

/// Result of an equivalence stream run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EquivReport {
    /// Cycles simulated.
    pub cycles: u64,
    /// First mismatch, if any.
    pub mismatch: Option<Mismatch>,
}

impl EquivReport {
    /// `true` when no mismatch was observed.
    pub fn equivalent(&self) -> bool {
        self.mismatch.is_none()
    }
}

/// Deterministic stream generator: the workspace-wide splitmix64 from
/// [`triphase_netlist::rng`], re-exported under the historical name so
/// stream seeds keep producing the exact same sequences.
pub use triphase_netlist::rng::SplitMix64 as Stream;

/// Data ports of a design: inputs excluding clock phases, sorted by name.
pub fn data_inputs(nl: &Netlist) -> Vec<PortId> {
    let mut ports: Vec<PortId> = nl
        .input_ports()
        .into_iter()
        .filter(|&p| {
            nl.clock
                .as_ref()
                .is_none_or(|c| c.phase_of_port(p).is_none())
        })
        .collect();
    ports.sort_by(|&a, &b| nl.port(a).name.cmp(&nl.port(b).name));
    ports
}

/// Output ports sorted by name.
pub fn data_outputs(nl: &Netlist) -> Vec<PortId> {
    let mut ports = nl.output_ports();
    ports.sort_by(|&a, &b| nl.port(a).name.cmp(&nl.port(b).name));
    ports
}

/// Stream `cycles` pseudo-random input vectors (from `seed`) into both
/// designs and compare their output streams cycle by cycle.
///
/// Data ports are matched by name; both designs are reset to all-zero
/// state first.
///
/// # Errors
///
/// [`Error::PortMismatch`] if the designs' data port names differ;
/// simulator construction errors are propagated.
pub fn equiv_stream(
    golden: &Netlist,
    dut: &Netlist,
    seed: u64,
    cycles: u64,
) -> Result<EquivReport> {
    equiv_stream_warmup(golden, dut, seed, cycles, 0)
}

/// [`equiv_stream`] that ignores mismatches during the first `warmup`
/// cycles — used after retiming, whose relocated registers start from
/// reset values that flush through feed-forward logic within a few
/// cycles.
///
/// Runs on the compiled bytecode backend: every cycle streams **64**
/// independent random vectors (lane 0 drawn from `seed`'s historical
/// stream, the others from [`lane_seeds`]) through both designs at once,
/// so one call now covers 64× the stimulus of the old scalar pass for
/// well under the scalar cost. Lane `l` replays the scalar run seeded
/// with `lane_seeds(seed, 64)[l]` bit for bit. `cycles` in the report stays the per-lane cycle count; a
/// mismatch reports the earliest cycle, then the first port in name
/// order, then the lowest diverging lane.
///
/// # Errors
///
/// Same as [`equiv_stream`].
pub fn equiv_stream_warmup(
    golden: &Netlist,
    dut: &Netlist,
    seed: u64,
    cycles: u64,
    warmup: u64,
) -> Result<EquivReport> {
    let g_in = data_inputs(golden);
    let d_in = data_inputs(dut);
    let g_out = data_outputs(golden);
    let d_out = data_outputs(dut);
    let names = |nl: &Netlist, ps: &[PortId]| -> Vec<String> {
        ps.iter().map(|&p| nl.port(p).name.clone()).collect()
    };
    if names(golden, &g_in) != names(dut, &d_in) {
        return Err(Error::PortMismatch("input ports differ".into()));
    }
    if names(golden, &g_out) != names(dut, &d_out) {
        return Err(Error::PortMismatch("output ports differ".into()));
    }

    let mut gsim = CompiledSim::<1>::new(golden, LANES)?;
    let mut dsim = CompiledSim::<1>::new(dut, LANES)?;
    gsim.reset_zero();
    dsim.reset_zero();
    let mut streams: Vec<Stream> = lane_seeds(seed, LANES)
        .into_iter()
        .map(Stream::new)
        .collect();
    for cycle in 0..cycles {
        for (&gp, &dp) in g_in.iter().zip(&d_in) {
            let mut bits = 0u64;
            for (l, s) in streams.iter_mut().enumerate() {
                bits |= u64::from(s.next_bit()) << l;
            }
            let v = Lanes::from_bits([bits]);
            gsim.set_input(gp, v);
            dsim.set_input(dp, v);
        }
        gsim.step_cycle();
        dsim.step_cycle();
        if cycle < warmup {
            continue;
        }
        for (&gp, &dp) in g_out.iter().zip(&d_out) {
            let (e, a) = (gsim.output(gp), dsim.output(dp));
            let diff = e.eq_lanes(a).not();
            if let Some(lane) = diff.lowest() {
                return Ok(EquivReport {
                    cycles: cycle + 1,
                    mismatch: Some(Mismatch {
                        cycle,
                        port: golden.port(gp).name.clone(),
                        expected: e.get(lane),
                        actual: a.get(lane),
                    }),
                });
            }
        }
    }
    Ok(EquivReport {
        cycles,
        mismatch: None,
    })
}

/// Replay explicit per-cycle input vectors through both designs and
/// compare output streams — the confirmation step for SAT counterexamples
/// from formal equivalence checking. `vectors[c]` holds one bool per data
/// input port of the golden design, in [`data_inputs`] order (sorted by
/// name); mismatches during the first `warmup` cycles are ignored.
///
/// # Errors
///
/// [`Error::PortMismatch`] if port names differ or a vector's length does
/// not match the data-input count; simulator construction errors are
/// propagated.
pub fn replay_vectors(
    golden: &Netlist,
    dut: &Netlist,
    vectors: &[Vec<bool>],
    warmup: u64,
) -> Result<EquivReport> {
    let g_in = data_inputs(golden);
    let d_in = data_inputs(dut);
    let g_out = data_outputs(golden);
    let d_out = data_outputs(dut);
    let names = |nl: &Netlist, ps: &[PortId]| -> Vec<String> {
        ps.iter().map(|&p| nl.port(p).name.clone()).collect()
    };
    if names(golden, &g_in) != names(dut, &d_in) {
        return Err(Error::PortMismatch("input ports differ".into()));
    }
    if names(golden, &g_out) != names(dut, &d_out) {
        return Err(Error::PortMismatch("output ports differ".into()));
    }
    let mut gsim = Simulator::new(golden)?;
    let mut dsim = Simulator::new(dut)?;
    gsim.reset_zero();
    dsim.reset_zero();
    for (cycle, vec) in vectors.iter().enumerate() {
        if vec.len() != g_in.len() {
            return Err(Error::PortMismatch(format!(
                "cycle {cycle} vector has {} values for {} data inputs",
                vec.len(),
                g_in.len()
            )));
        }
        for ((&gp, &dp), &bit) in g_in.iter().zip(&d_in).zip(vec) {
            let v = Logic::from_bool(bit);
            gsim.set_input(gp, v);
            dsim.set_input(dp, v);
        }
        gsim.step_cycle();
        dsim.step_cycle();
        if (cycle as u64) < warmup {
            continue;
        }
        for (&gp, &dp) in g_out.iter().zip(&d_out) {
            let (e, a) = (gsim.output(gp), dsim.output(dp));
            if e != a {
                return Ok(EquivReport {
                    cycles: cycle as u64 + 1,
                    mismatch: Some(Mismatch {
                        cycle: cycle as u64,
                        port: golden.port(gp).name.clone(),
                        expected: e,
                        actual: a,
                    }),
                });
            }
        }
    }
    Ok(EquivReport {
        cycles: vectors.len() as u64,
        mismatch: None,
    })
}

/// Run `cycles` of pseudo-random stimulus on a single design and return
/// its simulator (with accumulated [`crate::Activity`]); the standard way
/// the flow gathers switching statistics.
///
/// # Errors
///
/// Simulator construction errors.
pub fn run_random<'a>(nl: &'a Netlist, seed: u64, cycles: u64) -> Result<Simulator<'a>> {
    let inputs = data_inputs(nl);
    let mut sim = Simulator::new(nl)?;
    sim.reset_zero();
    let mut stream = Stream::new(seed);
    for _ in 0..cycles {
        for &p in &inputs {
            sim.set_input(p, Logic::from_bool(stream.next_bit()));
        }
        sim.step_cycle();
    }
    Ok(sim)
}

#[cfg(test)]
mod tests {
    use super::*;
    use triphase_cells::CellKind;
    use triphase_netlist::{Builder, ClockSpec};

    /// FF pipeline: din -> FF -> INV -> FF -> dout.
    fn ff_design() -> Netlist {
        let mut nl = Netlist::new("ff");
        let mut b = Builder::new(&mut nl, "u");
        let (ckp, ck) = b.netlist().add_input("ck");
        let (_, din) = b.netlist().add_input("din");
        let q0 = b.dff(din, ck);
        let x = b.not(q0);
        let q1 = b.dff(x, ck);
        b.netlist().add_output("dout", q1);
        nl.clock = Some(ClockSpec::single(ckp, 1000.0));
        nl
    }

    /// Hand-converted master-slave version of [`ff_design`].
    fn ms_design() -> Netlist {
        let mut nl = Netlist::new("ms");
        let mut b = Builder::new(&mut nl, "u");
        let (ckp, ck) = b.netlist().add_input("ck");
        let (_, din) = b.netlist().add_input("din");
        let m0 = b.net("m0");
        let s0 = b.net("s0");
        let m1 = b.net("m1");
        let s1 = b.net("s1");
        b.netlist()
            .add_cell("l_m0", CellKind::LatchL, vec![din, ck, m0]);
        b.netlist()
            .add_cell("l_s0", CellKind::LatchH, vec![m0, ck, s0]);
        let x = b.not(s0);
        b.netlist()
            .add_cell("l_m1", CellKind::LatchL, vec![x, ck, m1]);
        b.netlist()
            .add_cell("l_s1", CellKind::LatchH, vec![m1, ck, s1]);
        b.netlist().add_output("dout", s1);
        nl.clock = Some(ClockSpec::single(ckp, 1000.0));
        nl
    }

    #[test]
    fn ff_equals_master_slave() {
        let golden = ff_design();
        let dut = ms_design();
        let r = equiv_stream(&golden, &dut, 42, 200).unwrap();
        assert!(r.equivalent(), "{:?}", r.mismatch);
        assert_eq!(r.cycles, 200);
    }

    #[test]
    fn detects_real_difference() {
        let golden = ff_design();
        // A DUT with the inverter missing.
        let mut nl = Netlist::new("bad");
        let mut b = Builder::new(&mut nl, "u");
        let (ckp, ck) = b.netlist().add_input("ck");
        let (_, din) = b.netlist().add_input("din");
        let q0 = b.dff(din, ck);
        let q1 = b.dff(q0, ck);
        b.netlist().add_output("dout", q1);
        nl.clock = Some(ClockSpec::single(ckp, 1000.0));
        let r = equiv_stream(&golden, &nl, 42, 50).unwrap();
        assert!(!r.equivalent());
        let m = r.mismatch.unwrap();
        assert_eq!(m.port, "dout");
    }

    #[test]
    fn port_mismatch_rejected() {
        let golden = ff_design();
        let mut nl = Netlist::new("other");
        let (ckp, _ck) = nl.add_input("ck");
        let (_, a) = nl.add_input("other_in");
        nl.add_output("dout", a);
        nl.clock = Some(ClockSpec::single(ckp, 1000.0));
        assert!(matches!(
            equiv_stream(&golden, &nl, 1, 10),
            Err(Error::PortMismatch(_))
        ));
    }

    #[test]
    fn stream_is_deterministic() {
        let mut a = Stream::new(7);
        let mut b = Stream::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_bit(), b.next_bit());
        }
        let mut c = Stream::new(8);
        let differs = (0..64).any(|_| a.next_u64() != c.next_u64());
        assert!(differs);
    }

    #[test]
    fn run_random_accumulates_activity() {
        let nl = ff_design();
        let sim = run_random(&nl, 5, 64).unwrap();
        assert_eq!(sim.activity().cycles, 64);
        let din = nl.find_port("din").unwrap();
        assert!(sim.activity().net_toggles[nl.port(din).net.index()] > 10);
    }
}
