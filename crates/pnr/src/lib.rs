//! Placement, clock-tree synthesis, and wire estimation.
//!
//! The paper reports *post place-and-route* power; its savings are
//! dominated by clock-network capacitance (sink pins × tree wire ×
//! buffers), which this crate models:
//!
//! - **Placement**: constructive clustered seeding followed by simulated
//!   annealing on half-perimeter wirelength (HPWL), deterministic under a
//!   seed; each move is priced from cached per-net bounding boxes with
//!   edge pin counts;
//! - **Routing estimate**: per-net wire capacitance from HPWL with a
//!   fanout correction;
//! - **CTS**: a *virtual* clock-tree synthesis per clock net (root phases
//!   and gated subtrees separately): recursive geometric bisection down to
//!   a max fanout, buffer insertion, and tree wire/cap accounting. The
//!   netlist itself is not modified; the tree capacitance is attributed to
//!   the clock nets for timing and power.
//!
//! # Examples
//!
//! ```
//! use triphase_netlist::{Netlist, Builder, ClockSpec};
//! use triphase_cells::Library;
//! use triphase_pnr::{place_and_route, PnrOptions};
//!
//! let mut nl = Netlist::new("d");
//! let mut b = Builder::new(&mut nl, "u");
//! let (ckp, ck) = b.netlist().add_input("ck");
//! let d = b.word_input("d", 8);
//! let q = b.dff_word(&d, ck);
//! b.word_output("q", &q);
//! nl.clock = Some(ClockSpec::single(ckp, 1000.0));
//! let lib = Library::synthetic_28nm();
//! let layout = place_and_route(&nl, &lib, &PnrOptions::default())?;
//! assert!(layout.total_wirelength_um > 0.0);
//! assert_eq!(layout.clock_trees.len(), 1);
//! # Ok::<(), triphase_pnr::Error>(())
//! ```

use std::collections::HashMap;
use std::fmt;
use std::time::Instant;
use triphase_cells::{CellKind, Library, PinClass, PinDir};
use triphase_netlist::{CellId, ConnIndex, NetId, Netlist};

/// Convenience alias.
pub type Result<T> = std::result::Result<T, Error>;

/// Errors produced by place-and-route.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// The design has no cells to place.
    Empty,
    /// Underlying netlist problem.
    Netlist(triphase_netlist::Error),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Empty => write!(f, "netlist has no cells to place"),
            Error::Netlist(e) => write!(f, "netlist error: {e}"),
        }
    }
}

impl std::error::Error for Error {}

/// P&R knobs.
#[derive(Debug, Clone, Copy)]
pub struct PnrOptions {
    /// PRNG seed (placement is deterministic given the seed).
    pub seed: u64,
    /// Annealing moves per cell (total capped internally on huge designs).
    pub moves_per_cell: usize,
    /// Placement-row utilization target.
    pub utilization: f64,
    /// Max clock buffer fanout during CTS.
    pub cts_max_fanout: usize,
    /// Routed wire capacitance per µm (fF), signal nets.
    pub wire_cap_per_um: f64,
    /// Routed wire capacitance per µm (fF) for clock-tree wiring: clock
    /// nets use wide-spaced, shielded upper-metal routing with lower
    /// per-µm capacitance than minimum-pitch signal wiring.
    pub clock_wire_cap_per_um: f64,
}

impl Default for PnrOptions {
    fn default() -> Self {
        PnrOptions {
            seed: 1,
            moves_per_cell: 24,
            utilization: 0.65,
            cts_max_fanout: 32,
            wire_cap_per_um: 0.20,
            clock_wire_cap_per_um: 0.10,
        }
    }
}

/// Report for one synthesized clock (sub)tree.
#[derive(Debug, Clone)]
pub struct ClockTreeReport {
    /// Name of the net at the root of this subtree.
    pub root_net: String,
    /// The net id at the subtree root.
    pub net: NetId,
    /// Clock sinks (clock pins of storage and ICG cells).
    pub sinks: usize,
    /// Buffers inserted (virtual).
    pub buffers: usize,
    /// Total tree wirelength (µm).
    pub wirelength_um: f64,
    /// Total capacitance switched by this subtree each clock edge (fF):
    /// wire + buffer input pins + sink clock pins.
    pub total_cap_ff: f64,
    /// Buffer area added (µm², virtual).
    pub buffer_area: f64,
}

/// Result of place-and-route.
#[derive(Debug, Clone)]
pub struct Layout {
    /// Position per cell id (µm), `None` for dead ids.
    pub positions: Vec<Option<(f64, f64)>>,
    /// Die dimensions (µm).
    pub die: (f64, f64),
    /// Estimated routed wire capacitance per net (fF), indexed by net id.
    /// Clock nets carry their CTS tree wiring here.
    pub net_wire_cap: Vec<f64>,
    /// Total signal wirelength (µm).
    pub total_wirelength_um: f64,
    /// Final HPWL cost of the placement (µm).
    pub hpwl_um: f64,
    /// One report per clock net with clock sinks.
    pub clock_trees: Vec<ClockTreeReport>,
    /// Placement runtime (seconds).
    pub place_seconds: f64,
    /// CTS + routing-estimate runtime (seconds).
    pub route_seconds: f64,
}

impl Layout {
    /// Total capacitance of all clock trees (fF).
    pub fn clock_tree_cap_ff(&self) -> f64 {
        self.clock_trees.iter().map(|t| t.total_cap_ff).sum()
    }

    /// Total virtual clock-buffer area (µm²).
    pub fn clock_buffer_area(&self) -> f64 {
        self.clock_trees.iter().map(|t| t.buffer_area).sum()
    }

    /// Total virtual clock-buffer count.
    pub fn clock_buffers(&self) -> usize {
        self.clock_trees.iter().map(|t| t.buffers).sum()
    }
}

/// Deterministic PRNG (xorshift64*), independent of external crates.
#[derive(Debug, Clone)]
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed.max(1))
    }
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Place the design and estimate routing and clock trees.
///
/// # Errors
///
/// [`Error::Empty`] if there is nothing to place.
pub fn place_and_route(nl: &Netlist, lib: &Library, opts: &PnrOptions) -> Result<Layout> {
    let idx = nl.index();
    let cells: Vec<CellId> = nl.cells().map(|(id, _)| id).collect();
    if cells.is_empty() {
        return Err(Error::Empty);
    }
    let t0 = Instant::now();

    // Die sizing from total area at the utilization target.
    let total_area: f64 = nl.cell_area(lib);
    let side = (total_area / opts.utilization).sqrt().max(1.0);
    let mut placer = Placer::new(nl, &idx, &cells, side);

    // Simulated annealing with pairwise slot swaps.
    let mut rng = Rng::new(opts.seed);
    let budget = (opts.moves_per_cell * cells.len()).min(3_000_000);
    let mut temp = (placer.pitch.0 + placer.pitch.1) * 4.0;
    let cooling = if budget > 0 {
        (0.005f64).powf(1.0 / budget as f64)
    } else {
        1.0
    };
    for _ in 0..budget {
        if placer.step(&mut rng, temp) {
            temp *= cooling;
        }
    }
    let place_seconds = t0.elapsed().as_secs_f64();

    // Routing estimate + CTS.
    let t1 = Instant::now();
    let mut net_wire_cap = vec![0.0f64; nl.net_capacity()];
    let mut total_wl = 0.0;
    let mut hpwl_total = 0.0;
    for (net, _) in nl.nets() {
        let h = placer.hpwl_net(net);
        hpwl_total += h;
        let fanout = idx.fanout_count(net).max(1);
        // Net topology correction: star-like nets route longer than their
        // bounding box.
        let wl = h * (0.9 + 0.15 * (fanout as f64).ln_1p());
        total_wl += wl;
        net_wire_cap[net.index()] = wl * opts.wire_cap_per_um;
    }

    let clock_trees = synthesize_clock_trees(nl, lib, &placer.pos, opts);
    for t in &clock_trees {
        // Clock nets carry the synthesized tree's wiring instead of the
        // HPWL estimate (sink pin caps are counted by the power model).
        net_wire_cap[t.net.index()] = t.wirelength_um * opts.clock_wire_cap_per_um;
    }
    let route_seconds = t1.elapsed().as_secs_f64();

    Ok(Layout {
        positions: placer.pos,
        die: (side, side),
        net_wire_cap,
        total_wirelength_um: total_wl,
        hpwl_um: hpwl_total,
        clock_trees,
        place_seconds,
        route_seconds,
    })
}

/// Bounding box of one net's pins, with the number of pins lying on each
/// edge so that removing a pin only forces a rescan when it was the last
/// one on an edge. Min/max are exact, so the box is always the same
/// `f64`s a from-scratch scan of the same pins produces.
#[derive(Debug, Clone, Copy, PartialEq)]
struct NetBox {
    lo: (f64, f64),
    hi: (f64, f64),
    /// Pins on the low x and low y edges.
    on_lo: (u32, u32),
    /// Pins on the high x and high y edges.
    on_hi: (u32, u32),
    /// Live pins (placed cells and ports).
    pins: u32,
}

impl NetBox {
    const EMPTY: NetBox = NetBox {
        lo: (f64::INFINITY, f64::INFINITY),
        hi: (f64::NEG_INFINITY, f64::NEG_INFINITY),
        on_lo: (0, 0),
        on_hi: (0, 0),
        pins: 0,
    };

    /// Half-perimeter wirelength (0 for a net without pins).
    fn hpwl(&self) -> f64 {
        if self.pins == 0 {
            0.0
        } else {
            (self.hi.0 - self.lo.0) + (self.hi.1 - self.lo.1)
        }
    }

    /// Add a pin at `(x, y)`.
    fn add(&mut self, (x, y): (f64, f64)) {
        self.pins += 1;
        widen(x, &mut self.lo.0, &mut self.on_lo.0, |v, edge| v < edge);
        widen(x, &mut self.hi.0, &mut self.on_hi.0, |v, edge| v > edge);
        widen(y, &mut self.lo.1, &mut self.on_lo.1, |v, edge| v < edge);
        widen(y, &mut self.hi.1, &mut self.on_hi.1, |v, edge| v > edge);
    }

    /// Remove a pin at `(x, y)`. Returns `false` when that empties an
    /// edge: the box is then stale and must be rescanned.
    fn remove(&mut self, (x, y): (f64, f64)) -> bool {
        self.pins -= 1;
        let mut exact = true;
        for (v, edge, count) in [
            (x, self.lo.0, &mut self.on_lo.0),
            (x, self.hi.0, &mut self.on_hi.0),
            (y, self.lo.1, &mut self.on_lo.1),
            (y, self.hi.1, &mut self.on_hi.1),
        ] {
            if v == edge {
                *count -= 1;
                exact &= *count > 0;
            }
        }
        exact
    }
}

/// Extend one edge of a box by a coordinate: `beyond(v, edge)` is true
/// when `v` lies strictly outside the edge.
fn widen(v: f64, edge: &mut f64, count: &mut u32, beyond: fn(f64, f64) -> bool) {
    if beyond(v, *edge) {
        *edge = v;
        *count = 1;
    } else if v == *edge {
        *count += 1;
    }
}

/// Annealing state: the slot grid, cell positions, net membership, and
/// one cached [`NetBox`] per net. A move prices its touched nets from the
/// cached boxes, updates copies of them for the swapped pins, and writes
/// the copies back only when the move is accepted.
struct Placer {
    cols: usize,
    pitch: (f64, f64),
    /// Position per cell id.
    pos: Vec<Option<(f64, f64)>>,
    /// Occupant per slot.
    cell_at: Vec<Option<CellId>>,
    port_pos: Vec<(f64, f64)>,
    net_cells: Vec<Vec<CellId>>,
    net_ports: Vec<Vec<usize>>,
    /// Nets of each cell, deduplicated in pin order: cell `c`'s nets are
    /// `cell_nets[cell_net_start[c]..cell_net_start[c + 1]]`.
    cell_net_start: Vec<usize>,
    cell_nets: Vec<NetId>,
    boxes: Vec<NetBox>,
    /// Moved boxes of the current move (reused across moves).
    touched: Vec<(NetId, NetBox)>,
}

impl Placer {
    fn new(nl: &Netlist, idx: &ConnIndex, cells: &[CellId], side: f64) -> Placer {
        let n = cells.len();
        let cols = (n as f64).sqrt().ceil() as usize;
        let rows = n.div_ceil(cols);

        // Port positions around the perimeter.
        let nports = nl.ports().len().max(1);
        let port_pos: Vec<(f64, f64)> = (0..nports)
            .map(|i| {
                let t = i as f64 / nports as f64 * 4.0;
                match t as usize {
                    0 => (side * t.fract(), 0.0),
                    1 => (side, side * t.fract()),
                    2 => (side * (1.0 - t.fract()), side),
                    _ => (0.0, side * (1.0 - t.fract())),
                }
            })
            .collect();

        // Net membership, both ways.
        let mut net_cells: Vec<Vec<CellId>> = vec![Vec::new(); nl.net_capacity()];
        let mut net_ports: Vec<Vec<usize>> = vec![Vec::new(); nl.net_capacity()];
        let mut cell_net_start = Vec::with_capacity(nl.cell_capacity() + 1);
        let mut cell_nets = Vec::new();
        for &c in cells {
            // Ids come in ascending order; dead ids get empty ranges.
            let start = cell_nets.len();
            cell_net_start.resize(c.index() + 1, start);
            for &net in nl.cell(c).pins() {
                if !cell_nets[start..].contains(&net) {
                    cell_nets.push(net);
                    net_cells[net.index()].push(c);
                }
            }
        }
        cell_net_start.resize(nl.cell_capacity() + 1, cell_nets.len());
        for (i, port) in nl.ports().iter().enumerate() {
            net_ports[port.net.index()].push(i);
        }

        let mut placer = Placer {
            cols,
            pitch: (side / cols as f64, side / rows as f64),
            pos: vec![None; nl.cell_capacity()],
            cell_at: vec![None; cols * rows],
            port_pos,
            net_cells,
            net_ports,
            cell_net_start,
            cell_nets,
            boxes: Vec::new(),
            touched: Vec::new(),
        };
        // Constructive seeding: registers sharing a clock (gated) net are
        // placed contiguously (register banks cluster, keeping each clock
        // subtree compact, as row placers do), then BFS over connectivity
        // pulls the combinational fabric next to its consumers.
        for (s, c) in seed_order(nl, idx, cells).into_iter().enumerate() {
            placer.pos[c.index()] = Some(placer.slot_pos(s));
            placer.cell_at[s] = Some(c);
        }
        placer.boxes = (0..nl.net_capacity())
            .map(|i| placer.scan(NetId::from_index(i)))
            .collect();
        placer
    }

    fn slot_pos(&self, s: usize) -> (f64, f64) {
        let r = s / self.cols;
        let c = s % self.cols;
        (
            (c as f64 + 0.5) * self.pitch.0,
            (r as f64 + 0.5) * self.pitch.1,
        )
    }

    fn nets_of(&self, c: CellId) -> &[NetId] {
        &self.cell_nets[self.cell_net_start[c.index()]..self.cell_net_start[c.index() + 1]]
    }

    /// HPWL of a net from scratch over the current positions.
    fn hpwl_net(&self, net: NetId) -> f64 {
        let mut lo = (f64::INFINITY, f64::INFINITY);
        let mut hi = (f64::NEG_INFINITY, f64::NEG_INFINITY);
        let mut any = false;
        for &c in &self.net_cells[net.index()] {
            if let Some((x, y)) = self.pos[c.index()] {
                lo = (lo.0.min(x), lo.1.min(y));
                hi = (hi.0.max(x), hi.1.max(y));
                any = true;
            }
        }
        for &p in &self.net_ports[net.index()] {
            let (x, y) = self.port_pos[p];
            lo = (lo.0.min(x), lo.1.min(y));
            hi = (hi.0.max(x), hi.1.max(y));
            any = true;
        }
        if !any {
            0.0
        } else {
            (hi.0 - lo.0) + (hi.1 - lo.1)
        }
    }

    /// A net's box rebuilt from the current positions.
    fn scan(&self, net: NetId) -> NetBox {
        let mut bx = NetBox::EMPTY;
        for &c in &self.net_cells[net.index()] {
            if let Some(p) = self.pos[c.index()] {
                bx.add(p);
            }
        }
        for &p in &self.net_ports[net.index()] {
            bx.add(self.port_pos[p]);
        }
        bx
    }

    /// `bx` with one pin moved from `from` to `to`; rescans the net (whose
    /// positions must already hold the move) when the pin left an edge
    /// no other pin holds.
    fn moved(&self, net: NetId, mut bx: NetBox, from: (f64, f64), to: (f64, f64)) -> NetBox {
        bx.add(to);
        if bx.remove(from) {
            bx
        } else {
            self.scan(net)
        }
    }

    /// Try one random pairwise slot swap at temperature `temp` and keep
    /// it by the Metropolis rule. Returns `false` when no move was tried
    /// (the slots coincide or the first is empty); the schedule does not
    /// cool on those.
    fn step(&mut self, rng: &mut Rng, temp: f64) -> bool {
        let slots = self.cell_at.len();
        let a_slot = rng.below(slots);
        let b_slot = rng.below(slots);
        if a_slot == b_slot {
            return false;
        }
        let (Some(a), b) = (self.cell_at[a_slot], self.cell_at[b_slot]) else {
            return false;
        };
        let (pa, pb) = (self.slot_pos(a_slot), self.slot_pos(b_slot));
        self.pos[a.index()] = Some(pb);
        if let Some(b) = b {
            self.pos[b.index()] = Some(pa);
        }

        // Cost over a's nets, then b's nets that a lacks, before and
        // after the swap.
        let mut touched = std::mem::take(&mut self.touched);
        touched.clear();
        let (mut before, mut after) = (0.0, 0.0);
        let nets_a = self.nets_of(a);
        let nets_b = b.map_or(&[][..], |b| self.nets_of(b));
        for &net in nets_a {
            let bx = self.boxes[net.index()];
            before += bx.hpwl();
            if nets_b.contains(&net) {
                // Swapping two pins of one net keeps its pin set.
                after += bx.hpwl();
            } else {
                let moved = self.moved(net, bx, pa, pb);
                after += moved.hpwl();
                touched.push((net, moved));
            }
        }
        for &net in nets_b {
            if !nets_a.contains(&net) {
                let bx = self.boxes[net.index()];
                before += bx.hpwl();
                let moved = self.moved(net, bx, pb, pa);
                after += moved.hpwl();
                touched.push((net, moved));
            }
        }

        let delta = after - before;
        if delta <= 0.0 || rng.unit() < (-delta / temp.max(1e-9)).exp() {
            self.cell_at.swap(a_slot, b_slot);
            for &(net, bx) in &touched {
                self.boxes[net.index()] = bx;
            }
        } else {
            self.pos[a.index()] = Some(pa);
            if let Some(b) = b {
                self.pos[b.index()] = Some(pb);
            }
        }
        self.touched = touched;
        true
    }
}

fn seed_order(nl: &Netlist, idx: &ConnIndex, cells: &[CellId]) -> Vec<CellId> {
    let mut order = Vec::with_capacity(cells.len());
    let mut seen = vec![false; nl.cell_capacity()];
    let mut queue = std::collections::VecDeque::new();
    let bfs_from = |start: CellId,
                    order: &mut Vec<CellId>,
                    seen: &mut Vec<bool>,
                    queue: &mut std::collections::VecDeque<CellId>| {
        if seen[start.index()] {
            return;
        }
        queue.push_back(start);
        seen[start.index()] = true;
        while let Some(c) = queue.pop_front() {
            order.push(c);
            for &net in nl.cell(c).pins() {
                if let Some(drv) = idx.driver(net) {
                    if !seen[drv.cell.index()] {
                        seen[drv.cell.index()] = true;
                        queue.push_back(drv.cell);
                    }
                }
                for load in idx.loads(net) {
                    if !seen[load.cell.index()] {
                        seen[load.cell.index()] = true;
                        queue.push_back(load.cell);
                    }
                }
            }
        }
    };

    // Register banks first: group storage cells by clock net, largest
    // groups first; each bank seeds a contiguous slot run and the BFS
    // immediately pulls its local fabric alongside.
    let mut banks: HashMap<NetId, Vec<CellId>> = HashMap::new();
    for &c in cells {
        let cell = nl.cell(c);
        if let Some(ck) = cell.kind.clock_pin() {
            if cell.kind.is_storage() {
                banks.entry(cell.pin(ck)).or_default().push(c);
            }
        }
    }
    let mut bank_list: Vec<(NetId, Vec<CellId>)> = banks.into_iter().collect();
    bank_list.sort_by_key(|(net, members)| (std::cmp::Reverse(members.len()), *net));
    for (_, members) in bank_list {
        for c in members {
            bfs_from(c, &mut order, &mut seen, &mut queue);
        }
    }
    for &c in cells {
        bfs_from(c, &mut order, &mut seen, &mut queue);
    }
    order
}

/// Virtual CTS: one tree per net with clock-class sinks.
fn synthesize_clock_trees(
    nl: &Netlist,
    lib: &Library,
    pos: &[Option<(f64, f64)>],
    opts: &PnrOptions,
) -> Vec<ClockTreeReport> {
    // Gather sinks per net: clock-class input pins (storage and ICGs).
    let mut sinks_of: HashMap<NetId, Vec<(f64, f64, f64)>> = HashMap::new();
    for (id, cell) in nl.cells() {
        for (pin, &net) in cell.pins().iter().enumerate() {
            let def = cell.kind.pin_def(pin);
            if def.dir == PinDir::Input && def.class == PinClass::Clock {
                if let Some((x, y)) = pos[id.index()] {
                    let cap = lib.cell(cell.kind).pin_cap(pin);
                    sinks_of.entry(net).or_default().push((x, y, cap));
                }
            }
        }
    }
    let buf = lib.cell(CellKind::ClkBuf);
    let mut reports: Vec<ClockTreeReport> = sinks_of
        .into_iter()
        .map(|(net, sinks)| {
            let mut buffers = 0usize;
            let mut wire = 0.0f64;
            cluster(&sinks, opts.cts_max_fanout, &mut buffers, &mut wire);
            let sink_cap: f64 = sinks.iter().map(|s| s.2).sum();
            let total_cap =
                wire * opts.clock_wire_cap_per_um + buffers as f64 * buf.input_cap_ff + sink_cap;
            ClockTreeReport {
                root_net: nl.net(net).name.clone(),
                net,
                sinks: sinks.len(),
                buffers,
                wirelength_um: wire,
                total_cap_ff: total_cap,
                buffer_area: buffers as f64 * buf.area,
            }
        })
        .collect();
    reports.sort_by(|a, b| a.root_net.cmp(&b.root_net));
    reports
}

/// Recursive geometric bisection; accumulates buffers and wirelength.
fn cluster(sinks: &[(f64, f64, f64)], max_fanout: usize, buffers: &mut usize, wire: &mut f64) {
    if sinks.is_empty() {
        return;
    }
    if sinks.len() <= max_fanout {
        *buffers += 1;
        // Leaf-level routing: a shared trunk over the cluster's bounding
        // box with short taps (a star from the centroid would double-count
        // wire that real CTS shares between nearby sinks).
        let (mut lo_x, mut hi_x) = (f64::INFINITY, f64::NEG_INFINITY);
        let (mut lo_y, mut hi_y) = (f64::INFINITY, f64::NEG_INFINITY);
        for s in sinks {
            lo_x = lo_x.min(s.0);
            hi_x = hi_x.max(s.0);
            lo_y = lo_y.min(s.1);
            hi_y = hi_y.max(s.1);
        }
        let hpwl = (hi_x - lo_x) + (hi_y - lo_y);
        *wire += hpwl * (1.0 + 0.3 * (sinks.len() as f64).log2().max(0.0));
        return;
    }
    // Split along the wider dimension at the median.
    let mut v = sinks.to_vec();
    let (min_x, max_x) = v
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), s| {
            (lo.min(s.0), hi.max(s.0))
        });
    let (min_y, max_y) = v
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), s| {
            (lo.min(s.1), hi.max(s.1))
        });
    if max_x - min_x >= max_y - min_y {
        v.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
    } else {
        v.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
    }
    let mid = v.len() / 2;
    // Trunk wiring between the two halves' extents.
    *wire += ((max_x - min_x) + (max_y - min_y)) * 0.5;
    *buffers += 1;
    cluster(&v[..mid], max_fanout, buffers, wire);
    cluster(&v[mid..], max_fanout, buffers, wire);
}

#[cfg(test)]
mod tests {
    use super::*;
    use triphase_netlist::{Builder, ClockSpec};

    fn sample(n_ff: usize) -> Netlist {
        let mut nl = Netlist::new("s");
        let mut b = Builder::new(&mut nl, "u");
        let (ckp, ck) = b.netlist().add_input("ck");
        let d = b.word_input("d", n_ff);
        let q = b.dff_word(&d, ck);
        let inv: Vec<_> = q.bits().iter().map(|&x| b.not(x)).collect();
        let q2 = b.dff_word(&triphase_netlist::Word(inv), ck);
        b.word_output("q", &q2);
        nl.clock = Some(ClockSpec::single(ckp, 1000.0));
        nl
    }

    #[test]
    fn places_all_cells() {
        let nl = sample(8);
        let lib = Library::synthetic_28nm();
        let layout = place_and_route(&nl, &lib, &PnrOptions::default()).unwrap();
        for (id, _) in nl.cells() {
            assert!(layout.positions[id.index()].is_some());
        }
        assert!(layout.die.0 > 0.0);
        assert!(layout.hpwl_um > 0.0);
    }

    #[test]
    fn deterministic_under_seed() {
        let nl = sample(6);
        let lib = Library::synthetic_28nm();
        let a = place_and_route(&nl, &lib, &PnrOptions::default()).unwrap();
        let b = place_and_route(&nl, &lib, &PnrOptions::default()).unwrap();
        assert_eq!(a.hpwl_um, b.hpwl_um);
        assert_eq!(a.total_wirelength_um, b.total_wirelength_um);
    }

    #[test]
    fn annealing_not_worse_than_seed() {
        let nl = sample(16);
        let lib = Library::synthetic_28nm();
        let no_anneal = place_and_route(
            &nl,
            &lib,
            &PnrOptions {
                moves_per_cell: 0,
                ..Default::default()
            },
        )
        .unwrap();
        let annealed = place_and_route(&nl, &lib, &PnrOptions::default()).unwrap();
        assert!(annealed.hpwl_um <= no_anneal.hpwl_um * 1.05);
    }

    #[test]
    fn cts_counts_sinks_and_buffers() {
        let nl = sample(40); // 80 FFs on one clock
        let lib = Library::synthetic_28nm();
        let layout = place_and_route(&nl, &lib, &PnrOptions::default()).unwrap();
        assert_eq!(layout.clock_trees.len(), 1);
        let t = &layout.clock_trees[0];
        assert_eq!(t.sinks, 80);
        assert!(t.buffers >= 3, "80 sinks at fanout 32 need >= 3 buffers");
        assert!(t.total_cap_ff > 80.0, "at least the sink pin caps");
        assert!(layout.clock_tree_cap_ff() >= t.total_cap_ff);
        assert!(layout.clock_buffers() >= 3);
        assert!(layout.clock_buffer_area() > 0.0);
    }

    #[test]
    fn more_sinks_more_clock_cap() {
        let lib = Library::synthetic_28nm();
        let small = place_and_route(&sample(8), &lib, &PnrOptions::default()).unwrap();
        let big = place_and_route(&sample(64), &lib, &PnrOptions::default()).unwrap();
        assert!(big.clock_tree_cap_ff() > small.clock_tree_cap_ff() * 2.0);
    }

    #[test]
    fn gated_subtrees_reported_separately() {
        let mut nl = Netlist::new("g");
        let mut b = Builder::new(&mut nl, "u");
        let (ckp, ck) = b.netlist().add_input("ck");
        let (_, en) = b.netlist().add_input("en");
        let gck = b.net("gck");
        b.netlist()
            .add_cell("icg", CellKind::Icg, vec![en, ck, gck]);
        let d = b.word_input("d", 4);
        let q = b.dff_word(&d, gck);
        let q2 = b.dff_word(&q, ck);
        b.word_output("q", &q2);
        nl.clock = Some(ClockSpec::single(ckp, 1000.0));
        let lib = Library::synthetic_28nm();
        let layout = place_and_route(&nl, &lib, &PnrOptions::default()).unwrap();
        assert_eq!(layout.clock_trees.len(), 2, "root tree + gated subtree");
    }

    /// FNV-1a hasher for layout fingerprints.
    struct Fnv(u64);

    impl Fnv {
        fn bytes(&mut self, bytes: &[u8]) {
            for &b in bytes {
                self.0 ^= b as u64;
                self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
            }
        }
        fn f64(&mut self, v: f64) {
            self.bytes(&v.to_bits().to_le_bytes());
        }
        fn usize(&mut self, v: usize) {
            self.bytes(&(v as u64).to_le_bytes());
        }
    }

    /// Fingerprint of every deterministic output of a layout: positions,
    /// HPWL, wirelength, per-net wire caps and the clock-tree reports.
    fn fingerprint(l: &Layout) -> u64 {
        let mut h = Fnv(0xcbf2_9ce4_8422_2325);
        for p in &l.positions {
            match p {
                Some((x, y)) => {
                    h.f64(*x);
                    h.f64(*y);
                }
                None => h.bytes(&[0xff]),
            }
        }
        h.f64(l.hpwl_um);
        h.f64(l.total_wirelength_um);
        for &c in &l.net_wire_cap {
            h.f64(c);
        }
        for t in &l.clock_trees {
            h.bytes(t.root_net.as_bytes());
            h.usize(t.net.index());
            h.usize(t.sinks);
            h.usize(t.buffers);
            h.f64(t.wirelength_um);
            h.f64(t.total_cap_ff);
            h.f64(t.buffer_area);
        }
        h.0
    }

    /// A generated design with several register stages on one clock.
    fn generated(ops: &[u8], width: usize) -> Netlist {
        triphase_netlist::gen::Recipe {
            ops: ops.to_vec(),
            width,
            seed: 0,
        }
        .build()
    }

    #[test]
    fn golden_layout_fingerprint() {
        // Pinned before the annealer's move cost became incremental: any
        // change here means placement is no longer bit-identical.
        let nl = generated(&[5, 0, 4, 5, 1, 6, 5, 2, 3, 5, 4, 0, 5], 16);
        let lib = Library::synthetic_28nm();
        let opts = PnrOptions {
            seed: 7,
            ..Default::default()
        };
        let layout = place_and_route(&nl, &lib, &opts).unwrap();
        assert_eq!(fingerprint(&layout), 0xf02f_6b8b_923c_40a6);
    }

    impl Placer {
        /// Oracle hook: every cached box equals a fresh scan of its net,
        /// and its HPWL is bitwise the from-scratch [`Placer::hpwl_net`].
        /// Returns how many boxes have two or more pins on some edge.
        fn assert_boxes_exact(&self) -> usize {
            let mut shared = 0;
            for (i, bx) in self.boxes.iter().enumerate() {
                let net = NetId::from_index(i);
                assert_eq!(*bx, self.scan(net), "stale box for net {i}");
                assert_eq!(bx.hpwl().to_bits(), self.hpwl_net(net).to_bits());
                if bx.on_lo.0.max(bx.on_lo.1).max(bx.on_hi.0).max(bx.on_hi.1) > 1 {
                    shared += 1;
                }
            }
            shared
        }
    }

    #[test]
    fn cached_boxes_match_scratch_after_every_move() {
        let lib = Library::synthetic_28nm();
        let mut designs: Vec<Netlist> = triphase_netlist::gen::Recipe::stream(0x9a11, 4, 10, 12)
            .iter()
            .map(|r| r.build())
            .collect();
        designs.push(generated(&[5, 0, 4, 5, 1, 6, 5, 2, 3, 5, 4, 0, 5], 16));
        designs.push(sample(12));
        let mut shared = 0;
        for nl in &designs {
            for seed in [1, 0x5eed] {
                let cells: Vec<CellId> = nl.cells().map(|(id, _)| id).collect();
                let side = (nl.cell_area(&lib) / 0.65).sqrt().max(1.0);
                let mut placer = Placer::new(nl, &nl.index(), &cells, side);
                shared += placer.assert_boxes_exact();
                let mut rng = Rng::new(seed);
                let moves = (24 * cells.len()).min(4000);
                let mut temp = (placer.pitch.0 + placer.pitch.1) * 4.0;
                let cooling = (0.005f64).powf(1.0 / moves as f64);
                for _ in 0..moves {
                    if placer.step(&mut rng, temp) {
                        temp *= cooling;
                    }
                    shared += placer.assert_boxes_exact();
                }
            }
        }
        assert!(
            shared > 0,
            "no net ever had pins sharing an edge coordinate"
        );
    }

    #[test]
    fn empty_design_rejected() {
        let nl = Netlist::new("empty");
        let lib = Library::synthetic_28nm();
        assert!(matches!(
            place_and_route(&nl, &lib, &PnrOptions::default()),
            Err(Error::Empty)
        ));
    }
}
