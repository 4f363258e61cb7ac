//! Exact textual snapshots of a netlist, for memoization keys and resume.
//!
//! Unlike the Verilog writer, a snapshot preserves the arena layout
//! byte-for-byte: tombstone slots, allocation order, and the clock spec
//! with `f64` fields stored as raw bit patterns. Restoring a snapshot
//! therefore yields a netlist on which every deterministic downstream
//! stage (retiming, clock gating, P&R, power) reproduces bit-identical
//! results — the property the flow's stage memo relies on.

use crate::error::{Error, Result};
use crate::id::{NetId, PortId};
use crate::netlist::{Cell, ClockSpec, Net, Netlist, PhaseDef, Port, PortDir};
use std::fmt::Write as _;
use triphase_cells::CellKind;

/// Escape a name for single-line storage (`\` → `\\`, space → `\s`,
/// tab → `\t`, newline → `\n`).
fn esc(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for c in name.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            ' ' => out.push_str("\\s"),
            '\t' => out.push_str("\\t"),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

fn unesc(s: &str, line: usize) -> Result<String> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('\\') => out.push('\\'),
            Some('s') => out.push(' '),
            Some('t') => out.push('\t'),
            Some('n') => out.push('\n'),
            other => {
                return Err(Error::Parse(
                    line,
                    format!(
                        "bad escape \\{}",
                        other.map(String::from).unwrap_or_default()
                    ),
                ))
            }
        }
    }
    Ok(out)
}

/// Serialize `nl` to the snapshot text format.
pub fn to_text(nl: &Netlist) -> String {
    let mut s = String::new();
    s.push_str("netlist v1\n");
    let _ = writeln!(s, "name {}", esc(&nl.name));
    let _ = writeln!(s, "nets {}", nl.nets.len());
    for slot in &nl.nets {
        match slot {
            Some(net) => {
                let _ = writeln!(s, "n {}", esc(&net.name));
            }
            None => s.push_str("x\n"),
        }
    }
    let _ = writeln!(s, "cells {}", nl.cells.len());
    for slot in &nl.cells {
        match slot {
            Some(cell) => {
                let _ = write!(s, "c {} {}", esc(&cell.name), cell.kind.lib_name());
                for pin in &cell.pins {
                    let _ = write!(s, " {}", pin.index());
                }
                s.push('\n');
            }
            None => s.push_str("x\n"),
        }
    }
    let _ = writeln!(s, "ports {}", nl.ports.len());
    for port in &nl.ports {
        let dir = match port.dir {
            PortDir::Input => 'i',
            PortDir::Output => 'o',
        };
        let _ = writeln!(s, "p {dir} {} {}", esc(&port.name), port.net.index());
    }
    match &nl.clock {
        Some(clock) => {
            let _ = writeln!(
                s,
                "clock {} {:016x}",
                clock.phases.len(),
                clock.period_ps.to_bits()
            );
            for ph in &clock.phases {
                let _ = writeln!(
                    s,
                    "phase {} {:016x} {:016x}",
                    ph.port.index(),
                    ph.rise_ps.to_bits(),
                    ph.fall_ps.to_bits()
                );
            }
        }
        None => s.push_str("clock none\n"),
    }
    s.push_str("end\n");
    s
}

struct Reader<'a> {
    lines: std::str::Lines<'a>,
    line_no: usize,
}

impl<'a> Reader<'a> {
    fn next(&mut self) -> Result<&'a str> {
        self.line_no += 1;
        self.lines
            .next()
            .ok_or_else(|| Error::Parse(self.line_no, "unexpected end of snapshot".into()))
    }

    fn expect_prefix(&mut self, prefix: &str) -> Result<&'a str> {
        let line = self.next()?;
        line.strip_prefix(prefix).ok_or_else(|| {
            Error::Parse(self.line_no, format!("expected `{prefix}…`, got `{line}`"))
        })
    }

    fn err(&self, msg: impl Into<String>) -> Error {
        Error::Parse(self.line_no, msg.into())
    }
}

fn parse_usize(r: &Reader<'_>, tok: &str) -> Result<usize> {
    tok.parse::<usize>()
        .map_err(|_| r.err(format!("bad integer `{tok}`")))
}

fn parse_f64_bits(r: &Reader<'_>, tok: &str) -> Result<f64> {
    u64::from_str_radix(tok, 16)
        .map(f64::from_bits)
        .map_err(|_| r.err(format!("bad f64 bit pattern `{tok}`")))
}

/// Restore a netlist from snapshot text produced by [`to_text`].
///
/// # Errors
///
/// Returns [`Error::Parse`] on any malformed or truncated input; no
/// partial netlist escapes.
pub fn from_text(text: &str) -> Result<Netlist> {
    let mut r = Reader {
        lines: text.lines(),
        line_no: 0,
    };
    let header = r.next()?;
    if header != "netlist v1" {
        return Err(r.err(format!("bad snapshot header `{header}`")));
    }
    let name = unesc(r.expect_prefix("name ")?, r.line_no)?;

    let tok = r.expect_prefix("nets ")?;
    let n_nets = parse_usize(&r, tok)?;
    let mut nets: Vec<Option<Net>> = Vec::with_capacity(n_nets);
    for _ in 0..n_nets {
        let line = r.next()?;
        if line == "x" {
            nets.push(None);
        } else if let Some(rest) = line.strip_prefix("n ") {
            nets.push(Some(Net {
                name: unesc(rest, r.line_no)?,
            }));
        } else {
            return Err(r.err(format!("expected net slot, got `{line}`")));
        }
    }

    let tok = r.expect_prefix("cells ")?;
    let n_cells = parse_usize(&r, tok)?;
    let mut cells: Vec<Option<Cell>> = Vec::with_capacity(n_cells);
    let mut live_cells = 0usize;
    for _ in 0..n_cells {
        let line = r.next()?;
        if line == "x" {
            cells.push(None);
            continue;
        }
        let rest = line
            .strip_prefix("c ")
            .ok_or_else(|| r.err(format!("expected cell slot, got `{line}`")))?;
        let mut toks = rest.split(' ');
        let cname = unesc(
            toks.next().ok_or_else(|| r.err("missing cell name"))?,
            r.line_no,
        )?;
        let kind_tok = toks.next().ok_or_else(|| r.err("missing cell kind"))?;
        let kind = CellKind::from_lib_name(kind_tok)
            .ok_or_else(|| r.err(format!("unknown cell kind `{kind_tok}`")))?;
        let mut pins = Vec::new();
        for tok in toks {
            let idx = parse_usize(&r, tok)?;
            if idx >= n_nets {
                return Err(r.err(format!("pin net index {idx} out of range")));
            }
            pins.push(NetId::from_index(idx));
        }
        if pins.len() != kind.pin_count() {
            return Err(r.err(format!(
                "cell `{cname}`: {} pins, kind {kind_tok} expects {}",
                pins.len(),
                kind.pin_count()
            )));
        }
        live_cells += 1;
        cells.push(Some(Cell {
            name: cname,
            kind,
            pins,
        }));
    }

    let tok = r.expect_prefix("ports ")?;
    let n_ports = parse_usize(&r, tok)?;
    let mut ports: Vec<Port> = Vec::with_capacity(n_ports);
    for _ in 0..n_ports {
        let rest = r.expect_prefix("p ")?;
        let mut toks = rest.split(' ');
        let dir = match toks.next() {
            Some("i") => PortDir::Input,
            Some("o") => PortDir::Output,
            other => return Err(r.err(format!("bad port direction {other:?}"))),
        };
        let pname = unesc(
            toks.next().ok_or_else(|| r.err("missing port name"))?,
            r.line_no,
        )?;
        let idx = parse_usize(&r, toks.next().ok_or_else(|| r.err("missing port net"))?)?;
        if idx >= n_nets {
            return Err(r.err(format!("port net index {idx} out of range")));
        }
        ports.push(Port {
            name: pname,
            dir,
            net: NetId::from_index(idx),
        });
    }

    let clock_line = r.next()?;
    let clock = if clock_line == "clock none" {
        None
    } else if let Some(rest) = clock_line.strip_prefix("clock ") {
        let mut toks = rest.split(' ');
        let n_phases = parse_usize(&r, toks.next().ok_or_else(|| r.err("missing phase count"))?)?;
        let period_ps = parse_f64_bits(
            &r,
            toks.next().ok_or_else(|| r.err("missing clock period"))?,
        )?;
        let mut phases = Vec::with_capacity(n_phases);
        for _ in 0..n_phases {
            let rest = r.expect_prefix("phase ")?;
            let mut toks = rest.split(' ');
            let pidx = parse_usize(&r, toks.next().ok_or_else(|| r.err("missing phase port"))?)?;
            if pidx >= n_ports {
                return Err(r.err(format!("phase port index {pidx} out of range")));
            }
            let rise_ps =
                parse_f64_bits(&r, toks.next().ok_or_else(|| r.err("missing rise time"))?)?;
            let fall_ps =
                parse_f64_bits(&r, toks.next().ok_or_else(|| r.err("missing fall time"))?)?;
            phases.push(PhaseDef {
                port: PortId::from_index(pidx),
                rise_ps,
                fall_ps,
            });
        }
        Some(ClockSpec { period_ps, phases })
    } else {
        return Err(r.err(format!("expected clock record, got `{clock_line}`")));
    };

    let end = r.next()?;
    if end != "end" {
        return Err(r.err(format!("expected `end`, got `{end}`")));
    }

    Ok(Netlist {
        name,
        cells,
        nets,
        ports,
        clock,
        live_cells,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::ClockSpec;

    fn sample() -> Netlist {
        let mut nl = Netlist::new("snap test"); // space exercises escaping
        let (ck_port, ck) = nl.add_input("ck");
        let (_, a) = nl.add_input("a");
        let y = nl.add_net("y\tweird");
        nl.add_cell("u1", CellKind::Inv, vec![a, y]);
        let q = nl.add_net("q");
        nl.add_cell("ff0", CellKind::Dff, vec![y, ck, q]);
        nl.add_output("q", q);
        // Tombstones: a removed net and a removed cell.
        let dead_net = nl.add_net("dead");
        nl.remove_net(dead_net);
        let z = nl.add_net("z");
        let dead_cell = nl.add_cell("tmp", CellKind::Buf, vec![q, z]);
        nl.remove_cell(dead_cell);
        nl.clock = Some(ClockSpec::single(ck_port, 1234.5));
        nl
    }

    #[test]
    fn round_trip_is_exact() {
        let nl = sample();
        let text = to_text(&nl);
        let back = from_text(&text).unwrap();
        // Arena layout (incl. tombstones), ports, clock, counters.
        assert_eq!(to_text(&back), text);
        assert_eq!(back.name, nl.name);
        assert_eq!(back.cell_count(), nl.cell_count());
        assert_eq!(back.cell_capacity(), nl.cell_capacity());
        assert_eq!(back.net_capacity(), nl.net_capacity());
        assert_eq!(back.ports(), nl.ports());
        assert_eq!(back.clock, nl.clock);
        assert_eq!(
            back.clock.as_ref().unwrap().period_ps.to_bits(),
            nl.clock.as_ref().unwrap().period_ps.to_bits()
        );
    }

    #[test]
    fn round_trip_no_clock_and_empty() {
        let nl = Netlist::new("empty");
        let back = from_text(&to_text(&nl)).unwrap();
        assert_eq!(back.name, "empty");
        assert!(back.clock.is_none());
        assert_eq!(back.cell_capacity(), 0);
    }

    #[test]
    fn truncated_and_malformed_inputs_are_typed_errors() {
        let nl = sample();
        let text = to_text(&nl);
        // Any prefix that cuts into or before the final `end` line must
        // produce a typed error, never a panic or a partial netlist.
        for cut in 0..text.len() - 4 {
            assert!(from_text(&text[..cut]).is_err(), "cut at {cut}");
        }
        assert!(from_text("garbage").is_err());
        assert!(from_text("netlist v1\nname x\nnets zzz\n").is_err());
        // Wrong pin count for INV_X1 (expects 2 pins).
        let bad =
            "netlist v1\nname t\nnets 1\nn w\ncells 1\nc u1 INV_X1 0\nports 0\nclock none\nend\n";
        assert!(from_text(bad).is_err());
        // Unknown kind.
        let bad2 =
            "netlist v1\nname t\nnets 1\nn w\ncells 1\nc u1 BOGUS 0 0\nports 0\nclock none\nend\n";
        assert!(from_text(bad2).is_err());
    }

    #[test]
    fn special_characters_round_trip() {
        assert_eq!(unesc(&esc("a b\\c\td\ne"), 1).unwrap(), "a b\\c\td\ne");
    }
}
