//! Bytecode instruction set and threaded-dispatch handlers.
//!
//! The lowered combinational fabric is a flat array of fixed-size
//! [`Instr`] words. The serial hot loop does **threaded dispatch**: an
//! opcode indexes a table of monomorphized handler function pointers
//! (one table per lane width `W`), each handler evaluates one
//! specialized operation over all `64 * W` lanes and returns the next
//! program counter — no per-gate `match`, no operand-count branch for
//! the common 2/3-input shapes, and superop ([`FUSED2`]) handlers
//! retire two gates per dispatch with the intermediate kept in a
//! register.
//!
//! The parallel per-level path evaluates the *plain* (unfused) stream
//! with [`eval_value`], which reads only slots below the level being
//! computed — see `lower.rs` for why that partition is sound.

use super::lanes::{Lanes, Mask};

/// One bytecode word: opcode + complement/descriptor flags + up to three
/// operand slots and an output slot. N-ary gates use `a`/`b` as a range
/// into the shared operand arena.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Instr {
    /// Opcode (see [`opcode`]).
    pub op: u8,
    /// Gate descriptor for [`GATE2C`]/[`FUSED2`]/[`FUSED_ARG`]; unused
    /// (zero) otherwise.
    pub flags: u8,
    /// First operand slot, or arena start for N-ary gates.
    pub a: u32,
    /// Second operand slot, or arena length for N-ary gates.
    pub b: u32,
    /// Third operand slot (`Mux2` select, 3-input gates); else zero.
    pub c: u32,
    /// Output slot.
    pub out: u32,
}

pub(crate) use opcode::*;

/// Opcode namespace. Specialized opcodes exist for every shape the
/// benchmark netlists hit hot (2- and 3-input gates with and without
/// output inversion); the generic forms ([`GATE2C`], the N-ary family)
/// cover the rest.
pub(crate) mod opcode {
    /// Write constant 0.
    pub const CONST0: u8 = 0;
    /// Write constant 1.
    pub const CONST1: u8 = 1;
    /// `out = a`.
    pub const COPY: u8 = 2;
    /// `out = !a`.
    pub const COPY_INV: u8 = 3;
    /// `out = a & b`.
    pub const AND2: u8 = 4;
    /// `out = !(a & b)`.
    pub const NAND2: u8 = 5;
    /// `out = a | b`.
    pub const OR2: u8 = 6;
    /// `out = !(a | b)`.
    pub const NOR2: u8 = 7;
    /// `out = a ^ b`.
    pub const XOR2: u8 = 8;
    /// `out = !(a ^ b)`.
    pub const XNOR2: u8 = 9;
    /// Generic 2-input gate described by `flags` (absorbed inverters).
    pub const GATE2C: u8 = 10;
    /// `out = mux(sel = c, d0 = a, d1 = b)`.
    pub const MUX2: u8 = 11;
    /// `out = a & b & c`.
    pub const AND3: u8 = 12;
    /// `out = !(a & b & c)`.
    pub const NAND3: u8 = 13;
    /// `out = a | b | c`.
    pub const OR3: u8 = 14;
    /// `out = !(a | b | c)`.
    pub const NOR3: u8 = 15;
    /// `out = a ^ b ^ c`.
    pub const XOR3: u8 = 16;
    /// `out = !(a ^ b ^ c)`.
    pub const XNOR3: u8 = 17;
    /// N-ary AND over `arena[a..a + b]`.
    pub const ANDN: u8 = 18;
    /// N-ary NAND.
    pub const NANDN: u8 = 19;
    /// N-ary OR.
    pub const ORN: u8 = 20;
    /// N-ary NOR.
    pub const NORN: u8 = 21;
    /// N-ary XOR.
    pub const XORN: u8 = 22;
    /// N-ary XNOR.
    pub const XNORN: u8 = 23;
    /// Fused gate pair (superop): this word is gate 1 (descriptor in
    /// `flags`, inputs `a`/`b`, output `out`); the following
    /// [`FUSED_ARG`] word is gate 2, whose first input is gate 1's
    /// result (still in a register) and whose second input is that
    /// word's `a` slot.
    pub const FUSED2: u8 = 24;
    /// Second word of a [`FUSED2`] pair; never dispatched on its own.
    pub const FUSED_ARG: u8 = 25;
    /// Number of opcodes (dispatch-table size).
    pub const N_OPS: usize = 26;
}

/// Gate-descriptor flag layout for [`GATE2C`] and fused words:
/// bits 0-1 = kind (0 AND, 1 OR, 2 XOR, 3 COPY — copy ignores the
/// second input), bit 2 = complement first input, bit 3 = complement
/// second input, bit 4 = complement output.
pub(crate) mod desc {
    /// Kind mask (bits 0-1).
    pub const KIND: u8 = 0b11;
    /// AND kind.
    pub const K_AND: u8 = 0;
    /// OR kind.
    pub const K_OR: u8 = 1;
    /// XOR kind.
    pub const K_XOR: u8 = 2;
    /// COPY kind (unary).
    pub const K_COPY: u8 = 3;
    /// Complement first input.
    pub const CA: u8 = 1 << 2;
    /// Complement second input.
    pub const CB: u8 = 1 << 3;
    /// Complement output.
    pub const CO: u8 = 1 << 4;
}

/// Execution context for the serial threaded-dispatch loop: the dense
/// slot-indexed value/toggle files plus the per-pass `changed` flag.
pub(crate) struct ExecCtx<'a, const W: usize> {
    /// Slot-indexed packed values.
    pub values: &'a mut [Lanes<W>],
    /// Slot-indexed toggle counters (summed over active lanes).
    pub toggles: &'a mut [u64],
    /// Operand arena for N-ary gates.
    pub arena: &'a [u32],
    /// Active-lane mask.
    pub mask: Mask<W>,
    /// Set when any output slot changed value this pass.
    pub changed: bool,
    /// Per-slot changed-since-readers-last-ran bitset. Handlers skip an
    /// instruction when every input slot is clean: unchanged inputs
    /// reproduce the unchanged output with zero toggles, so skipping is
    /// observationally identical to re-evaluating (the write path is
    /// gated on inequality). The owner sets bits on every external
    /// write and clears the whole set after each serial pass — the
    /// stream is in topological order, so by then every reader of every
    /// marked slot has run.
    pub dirty: &'a mut [u64],
}

/// Test slot `s`'s dirty bit.
#[inline(always)]
fn dirty<const W: usize>(ctx: &ExecCtx<'_, W>, s: u32) -> bool {
    ctx.dirty[(s >> 6) as usize] & (1u64 << (s & 63)) != 0
}

/// Write `v` to `out`, counting toggles on known→known differing lanes
/// — the scalar simulator's toggle rule applied lane-wise, gated on
/// inequality (equal values imply zero toggles). A changed
/// slot is marked dirty so downstream instructions re-evaluate.
#[inline(always)]
fn write<const W: usize>(ctx: &mut ExecCtx<'_, W>, out: u32, v: Lanes<W>) {
    let old = ctx.values[out as usize];
    let (diff, t) = old.delta_toggles(v, ctx.mask);
    if diff {
        ctx.toggles[out as usize] += t;
        ctx.values[out as usize] = v;
        ctx.dirty[(out >> 6) as usize] |= 1u64 << (out & 63);
        ctx.changed = true;
    }
}

/// Evaluate a gate descriptor (see [`desc`]) on two operand values.
#[inline(always)]
fn eval_desc<const W: usize>(flags: u8, a: Lanes<W>, b: Lanes<W>) -> Lanes<W> {
    let a = a.cnot(flags & desc::CA != 0);
    let b = b.cnot(flags & desc::CB != 0);
    let v = match flags & desc::KIND {
        desc::K_AND => a.and(b),
        desc::K_OR => a.or(b),
        desc::K_XOR => a.xor(b),
        _ => a,
    };
    v.cnot(flags & desc::CO != 0)
}

/// Handler signature: evaluate the instruction(s) at `pc` and return the
/// next program counter.
pub(crate) type Handler<const W: usize> = fn(&mut ExecCtx<'_, W>, &[Instr], usize) -> usize;

macro_rules! h_const {
    ($f:ident, $k:expr) => {
        fn $f<const W: usize>(ctx: &mut ExecCtx<'_, W>, ins: &[Instr], pc: usize) -> usize {
            // No inputs: only the reset-time mark on the out slot ever
            // re-runs a constant.
            if dirty(ctx, ins[pc].out) {
                write(ctx, ins[pc].out, $k);
            }
            pc + 1
        }
    };
}
h_const!(h_const0, Lanes::ZERO);
h_const!(h_const1, Lanes::ONE);

macro_rules! h_copy {
    ($f:ident, $co:expr) => {
        fn $f<const W: usize>(ctx: &mut ExecCtx<'_, W>, ins: &[Instr], pc: usize) -> usize {
            let i = ins[pc];
            if dirty(ctx, i.a) {
                let v = ctx.values[i.a as usize].cnot($co);
                write(ctx, i.out, v);
            }
            pc + 1
        }
    };
}
h_copy!(h_copy, false);
h_copy!(h_copy_inv, true);

macro_rules! h_gate2 {
    ($f:ident, $m:ident, $co:expr) => {
        fn $f<const W: usize>(ctx: &mut ExecCtx<'_, W>, ins: &[Instr], pc: usize) -> usize {
            let i = ins[pc];
            if dirty(ctx, i.a) || dirty(ctx, i.b) {
                let v = ctx.values[i.a as usize]
                    .$m(ctx.values[i.b as usize])
                    .cnot($co);
                write(ctx, i.out, v);
            }
            pc + 1
        }
    };
}
h_gate2!(h_and2, and, false);
h_gate2!(h_nand2, and, true);
h_gate2!(h_or2, or, false);
h_gate2!(h_nor2, or, true);
h_gate2!(h_xor2, xor, false);
h_gate2!(h_xnor2, xor, true);

macro_rules! h_gate3 {
    ($f:ident, $m:ident, $co:expr) => {
        fn $f<const W: usize>(ctx: &mut ExecCtx<'_, W>, ins: &[Instr], pc: usize) -> usize {
            let i = ins[pc];
            if dirty(ctx, i.a) || dirty(ctx, i.b) || dirty(ctx, i.c) {
                let v = ctx.values[i.a as usize]
                    .$m(ctx.values[i.b as usize])
                    .$m(ctx.values[i.c as usize])
                    .cnot($co);
                write(ctx, i.out, v);
            }
            pc + 1
        }
    };
}
h_gate3!(h_and3, and, false);
h_gate3!(h_nand3, and, true);
h_gate3!(h_or3, or, false);
h_gate3!(h_nor3, or, true);
h_gate3!(h_xor3, xor, false);
h_gate3!(h_xnor3, xor, true);

macro_rules! h_gaten {
    ($f:ident, $m:ident, $co:expr) => {
        fn $f<const W: usize>(ctx: &mut ExecCtx<'_, W>, ins: &[Instr], pc: usize) -> usize {
            let i = ins[pc];
            let (s, n) = (i.a as usize, i.b as usize);
            if !ctx.arena[s..s + n].iter().any(|&op| dirty(ctx, op)) {
                return pc + 1;
            }
            let mut v = ctx.values[ctx.arena[s] as usize];
            for k in 1..n {
                v = v.$m(ctx.values[ctx.arena[s + k] as usize]);
            }
            write(ctx, i.out, v.cnot($co));
            pc + 1
        }
    };
}
h_gaten!(h_andn, and, false);
h_gaten!(h_nandn, and, true);
h_gaten!(h_orn, or, false);
h_gaten!(h_norn, or, true);
h_gaten!(h_xorn, xor, false);
h_gaten!(h_xnorn, xor, true);

fn h_gate2c<const W: usize>(ctx: &mut ExecCtx<'_, W>, ins: &[Instr], pc: usize) -> usize {
    let i = ins[pc];
    if dirty(ctx, i.a) || dirty(ctx, i.b) {
        let v = eval_desc(i.flags, ctx.values[i.a as usize], ctx.values[i.b as usize]);
        write(ctx, i.out, v);
    }
    pc + 1
}

fn h_mux2<const W: usize>(ctx: &mut ExecCtx<'_, W>, ins: &[Instr], pc: usize) -> usize {
    let i = ins[pc];
    if dirty(ctx, i.a) || dirty(ctx, i.b) || dirty(ctx, i.c) {
        let v = ctx.values[i.c as usize].mux(ctx.values[i.a as usize], ctx.values[i.b as usize]);
        write(ctx, i.out, v);
    }
    pc + 1
}

/// Superop: two fused gates, one dispatch. Gate 1's result stays in a
/// register and feeds gate 2 directly; gate 1's output slot is written
/// first, so a gate 2 that also reads it through memory sees the
/// updated value.
fn h_fused2<const W: usize>(ctx: &mut ExecCtx<'_, W>, ins: &[Instr], pc: usize) -> usize {
    let w1 = ins[pc];
    let w2 = ins[pc + 1];
    if !(dirty(ctx, w1.a) || dirty(ctx, w1.b) || dirty(ctx, w2.a)) {
        return pc + 2;
    }
    let r = eval_desc(
        w1.flags,
        ctx.values[w1.a as usize],
        ctx.values[w1.b as usize],
    );
    write(ctx, w1.out, r);
    let r2 = eval_desc(w2.flags, r, ctx.values[w2.a as usize]);
    write(ctx, w2.out, r2);
    pc + 2
}

/// Defensive no-op: a [`FUSED_ARG`] word is always consumed by the
/// preceding [`FUSED2`] handler and never dispatched.
fn h_fused_arg<const W: usize>(_: &mut ExecCtx<'_, W>, _: &[Instr], pc: usize) -> usize {
    pc + 1
}

/// Monomorphized dispatch table for lane width `W`, indexed by opcode.
pub(crate) fn handlers<const W: usize>() -> [Handler<W>; N_OPS] {
    [
        h_const0,
        h_const1,
        h_copy,
        h_copy_inv,
        h_and2,
        h_nand2,
        h_or2,
        h_nor2,
        h_xor2,
        h_xnor2,
        h_gate2c,
        h_mux2,
        h_and3,
        h_nand3,
        h_or3,
        h_nor3,
        h_xor3,
        h_xnor3,
        h_andn,
        h_nandn,
        h_orn,
        h_norn,
        h_xorn,
        h_xnorn,
        h_fused2,
        h_fused_arg,
    ]
}

/// Run the serial instruction stream to completion through the dispatch
/// table.
#[inline]
pub(crate) fn run_stream<const W: usize>(ctx: &mut ExecCtx<'_, W>, instrs: &[Instr]) {
    let table = handlers::<W>();
    let mut pc = 0usize;
    while pc < instrs.len() {
        pc = table[instrs[pc].op as usize](ctx, instrs, pc);
    }
}

/// Evaluate one *plain-stream* instruction's value against a read-only
/// value file (the slots below the instruction's level). The plain
/// stream contains no fused superops; encountering one here returns X
/// defensively.
#[inline(always)]
pub(crate) fn eval_value<const W: usize>(i: &Instr, vals: &[Lanes<W>], arena: &[u32]) -> Lanes<W> {
    let v = |s: u32| vals[s as usize];
    let foldn = |f: fn(Lanes<W>, Lanes<W>) -> Lanes<W>| {
        let (s, n) = (i.a as usize, i.b as usize);
        let mut acc = v(arena[s]);
        for k in 1..n {
            acc = f(acc, v(arena[s + k]));
        }
        acc
    };
    match i.op {
        CONST0 => Lanes::ZERO,
        CONST1 => Lanes::ONE,
        COPY => v(i.a),
        COPY_INV => v(i.a).not(),
        AND2 => v(i.a).and(v(i.b)),
        NAND2 => v(i.a).and(v(i.b)).not(),
        OR2 => v(i.a).or(v(i.b)),
        NOR2 => v(i.a).or(v(i.b)).not(),
        XOR2 => v(i.a).xor(v(i.b)),
        XNOR2 => v(i.a).xor(v(i.b)).not(),
        GATE2C => eval_desc(i.flags, v(i.a), v(i.b)),
        MUX2 => v(i.c).mux(v(i.a), v(i.b)),
        AND3 => v(i.a).and(v(i.b)).and(v(i.c)),
        NAND3 => v(i.a).and(v(i.b)).and(v(i.c)).not(),
        OR3 => v(i.a).or(v(i.b)).or(v(i.c)),
        NOR3 => v(i.a).or(v(i.b)).or(v(i.c)).not(),
        XOR3 => v(i.a).xor(v(i.b)).xor(v(i.c)),
        XNOR3 => v(i.a).xor(v(i.b)).xor(v(i.c)).not(),
        ANDN => foldn(Lanes::and),
        NANDN => foldn(Lanes::and).not(),
        ORN => foldn(Lanes::or),
        NORN => foldn(Lanes::or).not(),
        XORN => foldn(Lanes::xor),
        XNORN => foldn(Lanes::xor).not(),
        _ => Lanes::X,
    }
}
