//! Lowering pipeline: levelized netlist → fused bytecode program.
//!
//! Four passes, each **trajectory-preserving**: every net keeps its own
//! output slot, is written exactly once per settle pass, in a
//! topological order, with the same 3-valued value the scalar
//! simulator would compute in that lane — so per-pass values *and*
//! per-net toggle counts are bit-identical to the scalar simulator (the
//! certification suite checks both). Only the *computation strategy* changes:
//!
//! 1. **Normalize** (AIG-style): constant-fold through the fabric
//!    (3-valued-sound: `AND(x, 0) = 0` and `AND(x, 1) = x` hold for
//!    `x = X`), collapse buf/inverter chains into complement-carrying
//!    operand reads, and fold XOR input/constant complements into the
//!    output complement. Folded gates still write their output slot
//!    every pass (as a constant/copy), so downstream reads and toggle
//!    counts are unchanged.
//! 2. **Allocate**: map nets onto a dense slot file — graph sources
//!    (primary inputs, storage Q, clock nets) first in net order, then
//!    combinational outputs level by level in topological order. Every
//!    slot is live to the end of simulation (each net carries a toggle
//!    counter and an observable final value), so allocation orders the
//!    register file by definition time instead of recycling: reads
//!    cluster in the recently written region, each level's writes are
//!    one contiguous run, and the level partition makes the parallel
//!    path's `split_at_mut` sound (a level reads only lower slots).
//! 3. **Specialize + dedupe**: pick monomorphized opcodes for the hot
//!    gate shapes, and replace structurally identical gates (structural
//!    hash over kind + canonically ordered complement-carrying
//!    operands) with register-to-register copies from the first
//!    occurrence.
//! 4. **Fuse**: pair a 2-input gate with a single downstream 2-input
//!    gate (AOI/OAI, mux legs, xor-tree steps, absorbed inverters) into
//!    one two-word superop dispatched once, with the intermediate kept
//!    in a register. The pair executes at the producer's stream
//!    position; this is sound because the consumer's other operand is
//!    required to be defined before that position and the consumer's
//!    own readers sit even later in the stream.
//!
//! Two instruction streams come out: the fused `serial` stream (default
//! hot path) and an unfused `plain` stream aligned 1:1 with the slot
//! file for the per-level parallel path (no intra-level reads — dedupe
//! copies and fusion are serial-only transforms).

use std::collections::HashMap;

use super::ops::{desc, opcode, Instr};
use crate::error::{Error, Result};
use triphase_cells::CellKind;
use triphase_netlist::{graph, Netlist};

/// Counters from the lowering passes (reported by `sim_perf`).
#[derive(Debug, Default, Clone, Copy)]
pub struct LowerStats {
    /// Combinational gates lowered.
    pub gates: usize,
    /// Words in the fused serial stream.
    pub serial_words: usize,
    /// Gates reduced to constant writes.
    pub const_folded: usize,
    /// Operand reads routed through buf/inverter chains to their root.
    pub chains_collapsed: usize,
    /// Structurally duplicate gates replaced by register copies.
    pub deduped: usize,
    /// Fused superop pairs.
    pub fused_pairs: usize,
    /// Topological levels in the fabric.
    pub levels: usize,
}

/// A lowered program: both instruction streams, the operand arena, the
/// net↔slot permutation, and the level partition.
#[derive(Debug)]
pub(crate) struct Program {
    /// Fused serial stream (threaded dispatch).
    pub serial: Vec<Instr>,
    /// Unfused stream, one instruction per gate, aligned with the
    /// comb slot range (instruction `k` writes slot
    /// `first_comb_slot + k`).
    pub plain: Vec<Instr>,
    /// Operand arena for N-ary gates (slot indices).
    pub arena: Vec<u32>,
    /// Per-level ranges into `plain`.
    pub levels: Vec<(u32, u32)>,
    /// Net index → slot (a permutation of `0..net_capacity`).
    pub slot_of_net: Vec<u32>,
    /// Slot → net index.
    pub net_of_slot: Vec<u32>,
    /// Slots below this hold graph sources; at/above, comb outputs.
    pub first_comb_slot: u32,
    /// Widest level (gates), for the parallel-path heuristic.
    pub max_level_width: u32,
    /// Pass counters.
    pub stats: LowerStats,
}

/// Commutative gate family used in descriptors and dedupe keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum G2k {
    And,
    Or,
    Xor,
}

/// Logical instruction, pre-encoding (output slot kept separately).
#[derive(Debug, Clone, Copy)]
enum LIns {
    Konst {
        one: bool,
    },
    Copy {
        a: u32,
        ca: bool,
    },
    Gate2 {
        k: G2k,
        a: u32,
        b: u32,
        ca: bool,
        cb: bool,
        co: bool,
    },
    Gate3 {
        k: G2k,
        a: u32,
        b: u32,
        c: u32,
        co: bool,
    },
    GateN {
        k: G2k,
        start: u32,
        count: u32,
        co: bool,
    },
    Mux {
        d0: u32,
        d1: u32,
        sel: u32,
    },
}

/// Structural-hash key: kind + canonically ordered operands, output
/// complement excluded (stored in the value so an AND2/NAND2 twin still
/// dedupes, via a complemented copy).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum DedupKey {
    Gate2 { k: G2k, ops: [(u32, bool); 2] },
    Gate3 { k: G2k, ops: [u32; 3] },
    GateN { k: G2k, ops: Vec<u32> },
    Mux { d0: u32, d1: u32, sel: u32 },
}

/// A resolved gate operand: compile-time constant, or a slot read with
/// an optional absorbed complement.
#[derive(Debug, Clone, Copy)]
enum Operand {
    K(bool),
    S { slot: u32, c: bool },
}

/// One combinational cell in topological order.
struct Gate {
    kind: CellKind,
    out: u32,
    ins: Vec<u32>,
}

/// Lower the combinational fabric of `nl`.
///
/// # Errors
///
/// [`Error::Netlist`] on a combinational loop.
pub(crate) fn lower(nl: &Netlist) -> Result<Program> {
    let idx = nl.index();
    let comb_order = graph::comb_topo_order(nl, &idx).map_err(Error::Netlist)?;
    let net_cap = nl.net_capacity();

    let gates: Vec<Gate> = comb_order
        .iter()
        .map(|&c| {
            let cell = nl.cell(c);
            Gate {
                kind: cell.kind,
                out: cell.output().index() as u32,
                ins: cell.inputs().iter().map(|n| n.index() as u32).collect(),
            }
        })
        .collect();

    // Levelize: a gate's level is the max over its input nets of the
    // defining gate's level + 1 (sources are level 0), so every read of
    // a level-L gate resolves at a strictly lower level.
    let mut net_level = vec![0u32; net_cap];
    let mut gate_level = vec![0u32; gates.len()];
    let mut comb_driven = vec![false; net_cap];
    for (gi, g) in gates.iter().enumerate() {
        let lvl = g.ins.iter().map(|&n| net_level[n as usize]).max();
        gate_level[gi] = lvl.unwrap_or(0);
        net_level[g.out as usize] = gate_level[gi] + 1;
        comb_driven[g.out as usize] = true;
    }

    // Slot allocation: sources first (net order), then comb outputs
    // level-major in topological order.
    let mut slot_of_net = vec![0u32; net_cap];
    let mut net_of_slot = Vec::with_capacity(net_cap);
    for net in 0..net_cap {
        if !comb_driven[net] {
            slot_of_net[net] = net_of_slot.len() as u32;
            net_of_slot.push(net as u32);
        }
    }
    let first_comb_slot = net_of_slot.len() as u32;
    let mut order: Vec<u32> = (0..gates.len() as u32).collect();
    order.sort_by_key(|&gi| (gate_level[gi as usize], gi));
    for &gi in &order {
        let out = gates[gi as usize].out;
        slot_of_net[out as usize] = net_of_slot.len() as u32;
        net_of_slot.push(out);
    }

    // Level partition over the ordered gate list.
    let mut levels: Vec<(u32, u32)> = Vec::new();
    let mut max_level_width = 0u32;
    {
        let mut start = 0usize;
        while start < order.len() {
            let lvl = gate_level[order[start] as usize];
            let mut end = start;
            while end < order.len() && gate_level[order[end] as usize] == lvl {
                end += 1;
            }
            max_level_width = max_level_width.max((end - start) as u32);
            levels.push((start as u32, end as u32));
            start = end;
        }
    }

    // Constant lattice (3-valued sound) in topological order.
    let mut konst: Vec<Option<bool>> = vec![None; net_cap];
    for g in &gates {
        let k = |n: u32| konst[n as usize];
        let v = match g.kind {
            CellKind::Const0 => Some(false),
            CellKind::Const1 => Some(true),
            CellKind::Buf | CellKind::ClkBuf => k(g.ins[0]),
            CellKind::Inv => k(g.ins[0]).map(|b| !b),
            CellKind::And(_) | CellKind::Nand(_) => fold_konst(g.ins.iter().map(|&n| k(n)), false)
                .map(|b| b ^ matches!(g.kind, CellKind::Nand(_))),
            CellKind::Or(_) | CellKind::Nor(_) => fold_konst(g.ins.iter().map(|&n| k(n)), true)
                .map(|b| b ^ matches!(g.kind, CellKind::Nor(_))),
            CellKind::Xor(_) | CellKind::Xnor(_) => {
                let mut acc = Some(matches!(g.kind, CellKind::Xnor(_)));
                for &n in &g.ins {
                    acc = match (acc, k(n)) {
                        (Some(a), Some(b)) => Some(a ^ b),
                        _ => None,
                    };
                }
                acc
            }
            CellKind::Mux2 => match k(g.ins[2]) {
                Some(false) => k(g.ins[0]),
                Some(true) => k(g.ins[1]),
                None => match (k(g.ins[0]), k(g.ins[1])) {
                    (Some(a), Some(b)) if a == b => Some(a),
                    _ => None,
                },
            },
            _ => None,
        };
        konst[g.out as usize] = v;
    }

    // Buf/inverter chain roots with complement parity.
    let mut chain: Vec<(u32, bool)> = (0..net_cap as u32).map(|n| (n, false)).collect();
    for g in &gates {
        let inv = match g.kind {
            CellKind::Buf | CellKind::ClkBuf => false,
            CellKind::Inv => true,
            _ => continue,
        };
        let (root, c) = chain[g.ins[0] as usize];
        chain[g.out as usize] = (root, c ^ inv);
    }

    let mut stats = LowerStats {
        gates: gates.len(),
        levels: levels.len(),
        ..LowerStats::default()
    };

    // Operand resolution helpers.
    let resolve = |n: u32, stats: &mut LowerStats| -> Operand {
        if let Some(kv) = konst[n as usize] {
            return Operand::K(kv);
        }
        let (root, c) = chain[n as usize];
        if root != n {
            stats.chains_collapsed += 1;
        }
        Operand::S {
            slot: slot_of_net[root as usize],
            c,
        }
    };
    // Unabsorbed fallback: read the original input net's own slot
    // (written by its driver at a strictly lower level).
    let plain_slot = |n: u32| slot_of_net[n as usize];

    // Pass 3a: per-gate instruction selection (shared by both streams).
    let mut arena: Vec<u32> = Vec::new();
    let mut lins: Vec<LIns> = Vec::with_capacity(order.len());
    for &gi in &order {
        let g = &gates[gi as usize];
        let li = select_gate(g, &mut stats, &resolve, &plain_slot, &mut arena);
        if matches!(li, LIns::Konst { .. })
            && !matches!(g.kind, CellKind::Const0 | CellKind::Const1)
        {
            stats.const_folded += 1;
        }
        lins.push(li);
    }

    let plain: Vec<Instr> = lins
        .iter()
        .enumerate()
        .map(|(k, li)| encode(li, first_comb_slot + k as u32))
        .collect();

    // Pass 3b: structural dedupe on the serial stream.
    let mut dedup: HashMap<DedupKey, (u32, bool)> = HashMap::new();
    let serial_lins: Vec<LIns> = lins
        .iter()
        .enumerate()
        .map(|(k, li)| {
            let out = first_comb_slot + k as u32;
            let (key, co) = match *li {
                LIns::Gate2 {
                    k,
                    a,
                    b,
                    ca,
                    cb,
                    co,
                } => {
                    let mut ops = [(a, ca), (b, cb)];
                    ops.sort_unstable();
                    (DedupKey::Gate2 { k, ops }, co)
                }
                LIns::Gate3 { k, a, b, c, co } => {
                    let mut ops = [a, b, c];
                    ops.sort_unstable();
                    (DedupKey::Gate3 { k, ops }, co)
                }
                LIns::GateN {
                    k,
                    start,
                    count,
                    co,
                } => {
                    let mut ops: Vec<u32> =
                        arena[start as usize..(start + count) as usize].to_vec();
                    ops.sort_unstable();
                    (DedupKey::GateN { k, ops }, co)
                }
                LIns::Mux { d0, d1, sel } => (DedupKey::Mux { d0, d1, sel }, false),
                LIns::Konst { .. } | LIns::Copy { .. } => return *li,
            };
            match dedup.entry(key) {
                std::collections::hash_map::Entry::Occupied(e) => {
                    let (canon, canon_co) = *e.get();
                    stats.deduped += 1;
                    LIns::Copy {
                        a: canon,
                        ca: co ^ canon_co,
                    }
                }
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert((out, co));
                    *li
                }
            }
        })
        .collect();

    let mut serial: Vec<Instr> = serial_lins
        .iter()
        .enumerate()
        .map(|(k, li)| encode(li, first_comb_slot + k as u32))
        .collect();

    // Pass 4: greedy superop fusion on the serial stream.
    stats.fused_pairs = fuse(&mut serial, first_comb_slot);
    stats.serial_words = serial.len();

    Ok(Program {
        serial,
        plain,
        arena,
        levels,
        slot_of_net,
        net_of_slot,
        first_comb_slot,
        max_level_width,
        stats,
    })
}

/// Short-circuit fold for AND (`absorb = false`) / OR (`absorb = true`)
/// over the constant lattice: any absorbing input decides the output
/// regardless of X elsewhere; otherwise all inputs must be constant.
fn fold_konst(ins: impl Iterator<Item = Option<bool>>, absorb: bool) -> Option<bool> {
    let mut all = true;
    for i in ins {
        match i {
            Some(b) if b == absorb => return Some(absorb),
            Some(_) => {}
            None => all = false,
        }
    }
    if all {
        Some(!absorb)
    } else {
        None
    }
}

/// Select the logical instruction for one gate: resolve operands
/// (constants, chain roots), drop identity inputs, fold XOR complements
/// into the output, and fall back to plain operand reads where the
/// encoding has no complement bits (3+-input gates, mux branches).
fn select_gate(
    g: &Gate,
    stats: &mut LowerStats,
    resolve: &dyn Fn(u32, &mut LowerStats) -> Operand,
    plain_slot: &dyn Fn(u32) -> u32,
    arena: &mut Vec<u32>,
) -> LIns {
    let (k, mut co) = match g.kind {
        CellKind::Const0 => return LIns::Konst { one: false },
        CellKind::Const1 => return LIns::Konst { one: true },
        CellKind::Buf | CellKind::ClkBuf | CellKind::Inv => {
            let co = matches!(g.kind, CellKind::Inv);
            return match resolve(g.ins[0], stats) {
                Operand::K(b) => LIns::Konst { one: b ^ co },
                Operand::S { slot, c } => LIns::Copy {
                    a: slot,
                    ca: c ^ co,
                },
            };
        }
        CellKind::Mux2 => return select_mux(g, stats, resolve, plain_slot),
        CellKind::And(_) => (G2k::And, false),
        CellKind::Nand(_) => (G2k::And, true),
        CellKind::Or(_) => (G2k::Or, false),
        CellKind::Nor(_) => (G2k::Or, true),
        CellKind::Xor(_) => (G2k::Xor, false),
        CellKind::Xnor(_) => (G2k::Xor, true),
        // Not combinational: unreachable via comb_topo_order; emit a
        // benign constant rather than panicking.
        _ => return LIns::Konst { one: false },
    };

    // Resolve, dropping identity constants; an absorbing constant
    // decides the gate. XOR folds both constants and operand
    // complements into the output complement.
    let absorb = matches!(k, G2k::Or);
    let mut ops: Vec<(u32, Operand)> = Vec::with_capacity(g.ins.len());
    for &n in &g.ins {
        match (k, resolve(n, stats)) {
            (G2k::And | G2k::Or, Operand::K(b)) => {
                if b == absorb {
                    return LIns::Konst { one: absorb ^ co };
                }
            }
            (G2k::Xor, Operand::K(b)) => co ^= b,
            (G2k::Xor, Operand::S { slot, c }) => {
                co ^= c;
                ops.push((n, Operand::S { slot, c: false }));
            }
            (_, s) => ops.push((n, s)),
        }
    }
    match ops.len() {
        // All operands were identity constants: AND of none = 1,
        // OR/XOR of none = 0 (XOR's constants were folded into `co`).
        0 => LIns::Konst {
            one: matches!(k, G2k::And) ^ co,
        },
        1 => match ops[0].1 {
            Operand::S { slot, c } => LIns::Copy {
                a: slot,
                ca: c ^ co,
            },
            Operand::K(b) => LIns::Konst { one: b ^ co },
        },
        2 => {
            let (sa, ca) = slot_c(ops[0], plain_slot);
            let (sb, cb) = slot_c(ops[1], plain_slot);
            LIns::Gate2 {
                k,
                a: sa,
                b: sb,
                ca,
                cb,
                co,
            }
        }
        3 => LIns::Gate3 {
            k,
            a: unabsorbed(ops[0], plain_slot),
            b: unabsorbed(ops[1], plain_slot),
            c: unabsorbed(ops[2], plain_slot),
            co,
        },
        n => {
            let start = arena.len() as u32;
            arena.extend(ops.iter().map(|&op| unabsorbed(op, plain_slot)));
            LIns::GateN {
                k,
                start,
                count: n as u32,
                co,
            }
        }
    }
}

/// Mux selection: constant/complemented selects reduce or swap; equal
/// branches collapse to a copy; otherwise branches read plain slots.
fn select_mux(
    g: &Gate,
    stats: &mut LowerStats,
    resolve: &dyn Fn(u32, &mut LowerStats) -> Operand,
    plain_slot: &dyn Fn(u32) -> u32,
) -> LIns {
    let (mut n0, mut n1, nsel) = (g.ins[0], g.ins[1], g.ins[2]);
    let sel = match resolve(nsel, stats) {
        Operand::K(b) => {
            let branch = if b { n1 } else { n0 };
            return match resolve(branch, stats) {
                Operand::K(one) => LIns::Konst { one },
                Operand::S { slot, c } => LIns::Copy { a: slot, ca: c },
            };
        }
        Operand::S { slot, c } => {
            if c {
                std::mem::swap(&mut n0, &mut n1);
            }
            slot
        }
    };
    let (d0, d1) = (resolve(n0, stats), resolve(n1, stats));
    match (d0, d1) {
        (Operand::K(a), Operand::K(b)) if a == b => return LIns::Konst { one: a },
        (Operand::S { slot: sa, c: ca }, Operand::S { slot: sb, c: cb })
            if sa == sb && ca == cb =>
        {
            return LIns::Copy { a: sa, ca }
        }
        _ => {}
    }
    LIns::Mux {
        d0: unabsorbed((n0, d0), plain_slot),
        d1: unabsorbed((n1, d1), plain_slot),
        sel,
    }
}

/// Operand as (slot, complement) — complement kept (2-input encodings
/// have complement bits).
fn slot_c((n, op): (u32, Operand), plain_slot: &dyn Fn(u32) -> u32) -> (u32, bool) {
    match op {
        Operand::S { slot, c } => (slot, c),
        // Constants reaching here only via mux branches / mixed folds:
        // read the original net's slot (its driver writes the constant).
        Operand::K(_) => (plain_slot(n), false),
    }
}

/// Operand as a plain slot: absorbed complements fall back to reading
/// the original net (written by its inverter at a lower level).
fn unabsorbed((n, op): (u32, Operand), plain_slot: &dyn Fn(u32) -> u32) -> u32 {
    match op {
        Operand::S { slot, c: false } => slot,
        _ => plain_slot(n),
    }
}

/// Encode a logical instruction at output slot `out`.
fn encode(li: &LIns, out: u32) -> Instr {
    let i = |op: u8, flags: u8, a: u32, b: u32, c: u32| Instr {
        op,
        flags,
        a,
        b,
        c,
        out,
    };
    match *li {
        LIns::Konst { one } => i(
            if one { opcode::CONST1 } else { opcode::CONST0 },
            0,
            0,
            0,
            0,
        ),
        LIns::Copy { a, ca } => i(if ca { opcode::COPY_INV } else { opcode::COPY }, 0, a, a, 0),
        LIns::Gate2 {
            k,
            a,
            b,
            ca,
            cb,
            co,
        } => {
            if ca || cb {
                i(opcode::GATE2C, desc_flags(k, ca, cb, co), a, b, 0)
            } else {
                let op = match (k, co) {
                    (G2k::And, false) => opcode::AND2,
                    (G2k::And, true) => opcode::NAND2,
                    (G2k::Or, false) => opcode::OR2,
                    (G2k::Or, true) => opcode::NOR2,
                    (G2k::Xor, false) => opcode::XOR2,
                    (G2k::Xor, true) => opcode::XNOR2,
                };
                i(op, 0, a, b, 0)
            }
        }
        LIns::Gate3 { k, a, b, c, co } => {
            let op = match (k, co) {
                (G2k::And, false) => opcode::AND3,
                (G2k::And, true) => opcode::NAND3,
                (G2k::Or, false) => opcode::OR3,
                (G2k::Or, true) => opcode::NOR3,
                (G2k::Xor, false) => opcode::XOR3,
                (G2k::Xor, true) => opcode::XNOR3,
            };
            i(op, 0, a, b, c)
        }
        LIns::GateN {
            k,
            start,
            count,
            co,
        } => {
            let op = match (k, co) {
                (G2k::And, false) => opcode::ANDN,
                (G2k::And, true) => opcode::NANDN,
                (G2k::Or, false) => opcode::ORN,
                (G2k::Or, true) => opcode::NORN,
                (G2k::Xor, false) => opcode::XORN,
                (G2k::Xor, true) => opcode::XNORN,
            };
            i(op, 0, start, count, 0)
        }
        LIns::Mux { d0, d1, sel } => i(opcode::MUX2, 0, d0, d1, sel),
    }
}

fn desc_flags(k: G2k, ca: bool, cb: bool, co: bool) -> u8 {
    let kind = match k {
        G2k::And => desc::K_AND,
        G2k::Or => desc::K_OR,
        G2k::Xor => desc::K_XOR,
    };
    kind | if ca { desc::CA } else { 0 }
        | if cb { desc::CB } else { 0 }
        | if co { desc::CO } else { 0 }
}

/// Descriptor view of a 2-input/copy instruction, for fusion.
/// Returns `(desc_flags, a, b)`.
fn as_desc(i: &Instr) -> Option<(u8, u32, u32)> {
    let d = |k: u8, co: bool| k | if co { desc::CO } else { 0 };
    match i.op {
        opcode::COPY => Some((desc::K_COPY, i.a, i.b)),
        opcode::COPY_INV => Some((d(desc::K_COPY, true), i.a, i.b)),
        opcode::AND2 => Some((desc::K_AND, i.a, i.b)),
        opcode::NAND2 => Some((d(desc::K_AND, true), i.a, i.b)),
        opcode::OR2 => Some((desc::K_OR, i.a, i.b)),
        opcode::NOR2 => Some((d(desc::K_OR, true), i.a, i.b)),
        opcode::XOR2 => Some((desc::K_XOR, i.a, i.b)),
        opcode::XNOR2 => Some((d(desc::K_XOR, true), i.a, i.b)),
        opcode::GATE2C => Some((i.flags, i.a, i.b)),
        _ => None,
    }
}

/// Greedy fusion over the serial stream. A consumer `j` fuses onto the
/// producer `i` of one of its operands when `i` is the later-defined
/// operand, both have 2-input/copy descriptors, neither is already
/// fused, and `j`'s other operand is defined before `i` (so the pair
/// can execute at `i`'s position). Returns the number of pairs.
fn fuse(serial: &mut Vec<Instr>, first_comb_slot: u32) -> usize {
    let n_slots = first_comb_slot as usize + serial.len();
    // Execution position defining each slot (usize::MAX = source).
    let mut def_pos: Vec<usize> = vec![usize::MAX; n_slots];
    for (idx, ins) in serial.iter().enumerate() {
        def_pos[ins.out as usize] = idx;
    }
    let def = |def_pos: &[usize], s: u32| {
        let p = def_pos[s as usize];
        if p == usize::MAX {
            None
        } else {
            Some(p)
        }
    };

    let mut removed = vec![false; serial.len()];
    let mut second: Vec<Option<Instr>> = vec![None; serial.len()];
    let mut pairs = 0usize;

    for j in 0..serial.len() {
        if removed[j] || second[j].is_some() {
            continue;
        }
        let Some((d2, a2, b2)) = as_desc(&serial[j]) else {
            continue;
        };
        let is_copy = d2 & desc::KIND == desc::K_COPY;
        // Candidate producers: the operand(s) defined in this stream.
        let cand = |s: u32| def(&def_pos, s).filter(|&p| p < j);
        let (pa, pb) = (cand(a2), if is_copy { None } else { cand(b2) });
        let (prod, other, other_def, swap) = match (pa, pb) {
            (Some(x), Some(y)) if x >= y => (x, b2, Some(y), false),
            (Some(x), Some(y)) => (y, a2, Some(x), true),
            (Some(x), None) => (x, b2, def(&def_pos, b2), false),
            (None, Some(y)) => (y, a2, def(&def_pos, a2), true),
            (None, None) => continue,
        };
        if removed[prod] || second[prod].is_some() {
            continue;
        }
        let Some((d1, a1, b1)) = as_desc(&serial[prod]) else {
            continue;
        };
        // The copy kind ignores its b operand, so `other` may be
        // anything for copies; otherwise it must be live at `prod`.
        if !is_copy {
            if let Some(od) = other_def {
                if od >= prod {
                    continue;
                }
            }
        }
        // Rewrite: producer word becomes the FUSED2 head, consumer
        // becomes its FUSED_ARG tail executing at the producer's
        // position. Swapped operands exchange the CA/CB bits
        // (commutative kinds only — copies never swap their sole
        // operand into the register position unless it is the
        // producer's output, which `swap` already encodes).
        let mut tail_flags = d2 & (desc::KIND | desc::CO);
        if swap {
            tail_flags |= ((d2 & desc::CA) << 1) | ((d2 & desc::CB) >> 1);
        } else {
            tail_flags |= d2 & (desc::CA | desc::CB);
        }
        let out1 = serial[prod].out;
        let out2 = serial[j].out;
        serial[prod] = Instr {
            op: opcode::FUSED2,
            flags: d1,
            a: a1,
            b: b1,
            c: 0,
            out: out1,
        };
        second[prod] = Some(Instr {
            op: opcode::FUSED_ARG,
            flags: tail_flags,
            a: if is_copy { out1 } else { other },
            b: 0,
            c: 0,
            out: out2,
        });
        removed[j] = true;
        def_pos[out2 as usize] = prod;
        pairs += 1;
    }

    if pairs > 0 {
        let mut fused: Vec<Instr> = Vec::with_capacity(serial.len() + pairs);
        for (idx, ins) in serial.iter().enumerate() {
            if removed[idx] {
                continue;
            }
            fused.push(*ins);
            if let Some(tail) = second[idx] {
                fused.push(tail);
            }
        }
        *serial = fused;
    }
    pairs
}
