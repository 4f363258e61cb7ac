//! Constrained min-period retiming for the `triphase` toolkit.
//!
//! The paper's flow (§IV-C) emulates latch retiming with FF retiming: the
//! 3-phase design is mapped to a proxy with `clk` FFs (the `p1`/`p3`
//! latches) and `clkbar` FFs (the inserted `p2` latches), and the proxy is
//! retimed **moving only the `clkbar` FFs**, splitting each stage's logic
//! into two halves that can each run at twice the frequency.
//!
//! This crate implements that machinery generically: Leiserson–Saxe style
//! retiming (the iterative `FEAS` algorithm under a binary search on the
//! period) over a graph whose nodes are combinational cells, *immovable*
//! registers (lag pinned to 0; their in-edges carry a mandatory register),
//! and a frozen host node for the I/O boundary. Movable registers are edge
//! weights.
//!
//! Clock-gate enable pins are modeled as frozen sinks, so legality forces
//! every node whose output reaches an enable cone combinationally to keep
//! lag 0 — registers can never be retimed into or out of an enable cone.
//! Callers must additionally exclude registers *inside* enable cones from
//! the movable set (the conversion flow does).
//!
//! # Examples
//!
//! ```
//! use std::collections::HashSet;
//! use triphase_netlist::{Netlist, Builder, ClockSpec};
//! use triphase_cells::Library;
//! use triphase_retime::{retime_movable, RetimeOptions};
//!
//! // PI -> 6 inverters -> movable FF -> PO: retiming pulls the FF
//! // toward the middle of the chain.
//! let mut nl = Netlist::new("chain");
//! let mut b = Builder::new(&mut nl, "u");
//! let (ckp, ck) = b.netlist().add_input("ck");
//! let (_, din) = b.netlist().add_input("d");
//! let mut x = din;
//! for _ in 0..6 { x = b.not(x); }
//! let q = b.dff(x, ck);
//! b.netlist().add_output("out", q);
//! nl.clock = Some(ClockSpec::single(ckp, 1000.0));
//! let movable: HashSet<_> = nl.cells()
//!     .filter(|(_, c)| c.kind.is_ff()).map(|(id, _)| id).collect();
//! let lib = Library::synthetic_28nm();
//! let out = retime_movable(&nl, &lib, &movable, &RetimeOptions::default())?;
//! assert!(out.achieved_period_ps <= out.original_period_ps);
//! # Ok::<(), triphase_retime::Error>(())
//! ```

use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt;
use triphase_cells::{CellKind, Library, PinClass, PinDir};
use triphase_netlist::{CellId, ConnIndex, NetId, Netlist, PortDir, PortId};

/// Convenience alias.
pub type Result<T> = std::result::Result<T, Error>;

/// Errors produced by retiming.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// Underlying netlist problem.
    Netlist(triphase_netlist::Error),
    /// The movable set is inconsistent (mixed kinds or clock nets, gated
    /// clocks, or empty).
    BadMovableSet(String),
    /// No legal retiming exists (combinational cycle in the model).
    Infeasible,
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Netlist(e) => write!(f, "netlist error: {e}"),
            Error::BadMovableSet(m) => write!(f, "bad movable set: {m}"),
            Error::Infeasible => write!(f, "no legal retiming exists"),
        }
    }
}

impl std::error::Error for Error {}

impl From<triphase_netlist::Error> for Error {
    fn from(e: triphase_netlist::Error) -> Self {
        Error::Netlist(e)
    }
}

/// Retiming options.
#[derive(Debug, Clone)]
pub struct RetimeOptions {
    /// Target period for the proxy design (ps); the flow passes `T_c / 2`.
    /// `None` minimizes the period outright.
    pub target_period_ps: Option<f64>,
    /// Binary-search resolution (ps).
    pub tol_ps: f64,
    /// Extra FEAS iterations beyond the node count per feasibility probe.
    pub max_feas_iters: usize,
    /// Cap on movable registers per collapsed edge. The 3-phase flow
    /// passes `Some(1)`: two same-phase latches in series would be
    /// co-transparent (a C2 violation), so a proxy edge may never carry
    /// more than one `clkbar` register.
    pub max_movable_per_edge: Option<i64>,
    /// Fixed registers whose incident edges may carry **no** movable
    /// registers at all. The 3-phase flow passes the pinned `p2` latches:
    /// a movable `p2` register retimed next to a pinned one would again
    /// be a same-phase adjacency.
    pub no_adjacent: HashSet<CellId>,
    /// Combinational cells after whose output no movable register may be
    /// placed (edges with such a tail get cap 0). The 3-phase flow passes
    /// the comb fan-out regions of pinned `p2` latches.
    pub cap0_after: HashSet<CellId>,
    /// Combinational cells before whose inputs no movable register may be
    /// placed (edges with such a head get cap 0) — the comb fan-in
    /// regions of pinned `p2` latches.
    pub cap0_before: HashSet<CellId>,
}

impl Default for RetimeOptions {
    fn default() -> Self {
        RetimeOptions {
            target_period_ps: None,
            tol_ps: 1.0,
            max_feas_iters: 64,
            max_movable_per_edge: None,
            no_adjacent: HashSet::new(),
            cap0_after: HashSet::new(),
            cap0_before: HashSet::new(),
        }
    }
}

/// Outcome of a retiming run.
#[derive(Debug)]
pub struct RetimeOutcome {
    /// The rewritten netlist (compacted; old cell/net ids are invalid,
    /// port order is preserved).
    pub netlist: Netlist,
    /// Worst stage delay achieved by the retimed proxy (ps).
    pub achieved_period_ps: f64,
    /// Worst stage delay before retiming (ps).
    pub original_period_ps: f64,
    /// Whether the requested target was met.
    pub met_target: bool,
    /// Number of movable registers after rebuilding (named `rt_ff*`).
    pub movable_after: usize,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Node {
    Comb(CellId),
    Fixed(CellId),
    /// I/O boundary, split into a source (PI) and a sink (PO/enable)
    /// node so PI-to-PO paths do not form false cycles.
    HostSource,
    HostSink,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Sink {
    Pin(CellId, usize),
    Port(PortId),
}

#[derive(Debug, Clone, Copy)]
struct Edge {
    from: usize,
    to: usize,
    /// Registers on this path (movable, plus the mandatory one of a fixed
    /// sink).
    weight: i64,
    /// 1 when the sink is a fixed register (it must keep its register).
    req: i64,
    /// Per-edge cap on movable registers (`None` = caller's global cap).
    cap: Option<i64>,
    sink: Sink,
}

struct RetimeGraph {
    nodes: Vec<Node>,
    edges: Vec<Edge>,
    delay: Vec<f64>,
    frozen: Vec<bool>,
}

/// Retime `nl`, moving only the registers in `movable`.
///
/// All movable registers must be plain [`CellKind::Dff`] sharing one clock
/// net driven directly by a port (no clock gating) — exactly the state the
/// conversion flow creates for the inserted `p2` proxies.
///
/// # Errors
///
/// [`Error::BadMovableSet`] on inconsistent movable registers;
/// [`Error::Netlist`]/[`Error::Infeasible`] on structural problems.
pub fn retime_movable(
    nl: &Netlist,
    lib: &Library,
    movable: &HashSet<CellId>,
    opts: &RetimeOptions,
) -> Result<RetimeOutcome> {
    let idx = nl.index();
    let (kind, clock_net) = check_movable(nl, &idx, movable)?;
    let graph = build_graph(nl, lib, &idx, movable, opts);

    // The un-retimed placement must itself satisfy the caps.
    for e in &graph.edges {
        if let Some(cap) = e.cap.or(opts.max_movable_per_edge) {
            if e.weight - e.req > cap {
                return Err(Error::BadMovableSet(
                    "initial placement violates the per-edge movable cap".into(),
                ));
            }
        }
    }
    let r0 = vec![0i64; graph.nodes.len()];
    let original_period = critical_period(&graph, &r0).ok_or(Error::Infeasible)?;
    let iters = graph.nodes.len() + opts.max_feas_iters;

    let cap = opts.max_movable_per_edge;
    let (r, achieved) = match opts.target_period_ps {
        Some(target) => match feasible(&graph, target, iters, cap) {
            Some(r) => {
                let p = critical_period(&graph, &r).ok_or(Error::Infeasible)?;
                (r, p)
            }
            None => search_min_period(&graph, original_period, iters, opts)?,
        },
        None => search_min_period(&graph, original_period, iters, opts)?,
    };
    let met_target = opts
        .target_period_ps
        .is_none_or(|t| achieved <= t + opts.tol_ps);

    let netlist = apply(nl, &idx, &graph, &r, movable, kind, clock_net);
    netlist.validate()?;
    let movable_after = netlist
        .cells()
        .filter(|(_, c)| c.name.starts_with("rt_ff"))
        .count();
    Ok(RetimeOutcome {
        netlist,
        achieved_period_ps: achieved,
        original_period_ps: original_period,
        met_target,
        movable_after,
    })
}

fn check_movable(
    nl: &Netlist,
    idx: &ConnIndex,
    movable: &HashSet<CellId>,
) -> Result<(CellKind, NetId)> {
    let mut sig: Option<(CellKind, NetId)> = None;
    for &c in movable {
        let cell = nl
            .try_cell(c)
            .ok_or_else(|| Error::BadMovableSet(format!("dead cell {c}")))?;
        if cell.kind != CellKind::Dff {
            return Err(Error::BadMovableSet(format!(
                "movable register {} is {}, expected plain DFF",
                cell.name, cell.kind
            )));
        }
        let ck = cell.pin(cell.kind.clock_pin().expect("ff"));
        if idx.driving_port(ck).is_none() {
            return Err(Error::BadMovableSet(format!(
                "movable register {} has a gated/buffered clock",
                cell.name
            )));
        }
        match sig {
            None => sig = Some((cell.kind, ck)),
            Some((k, n)) => {
                if k != cell.kind || n != ck {
                    return Err(Error::BadMovableSet(
                        "movable registers mix kinds or clock nets".into(),
                    ));
                }
            }
        }
    }
    sig.ok_or_else(|| Error::BadMovableSet("movable set is empty".into()))
}

fn build_graph(
    nl: &Netlist,
    lib: &Library,
    idx: &ConnIndex,
    movable: &HashSet<CellId>,
    opts: &RetimeOptions,
) -> RetimeGraph {
    let no_adjacent = &opts.no_adjacent;
    let mut nodes = vec![Node::HostSource, Node::HostSink];
    let mut delay = vec![0.0f64, 0.0];
    let mut frozen = vec![true, true];
    let mut node_of: HashMap<CellId, usize> = HashMap::new();

    for (id, cell) in nl.cells() {
        if movable.contains(&id) {
            continue; // edge weights, not nodes
        }
        let node = if cell.kind.is_storage() {
            Node::Fixed(id)
        } else if cell.kind.is_comb() && cell.kind != CellKind::ClkBuf {
            Node::Comb(id)
        } else {
            continue; // clock network cells are not data nodes
        };
        node_of.insert(id, nodes.len());
        frozen.push(matches!(node, Node::Fixed(_)));
        delay.push(match node {
            Node::Comb(_) => {
                let lc = lib.cell(cell.kind);
                let load: f64 = idx
                    .loads(cell.output())
                    .iter()
                    .map(|p| lib.cell(nl.cell(p.cell).kind).pin_cap(p.pin))
                    .sum();
                lc.intrinsic_ps + lc.res_ps_per_ff * load
            }
            Node::Fixed(_) => lib.cell(cell.kind).timing.clk_to_q_ps,
            Node::HostSource | Node::HostSink => 0.0,
        });
        nodes.push(node);
    }

    let clock_ports: HashSet<PortId> = nl
        .clock
        .iter()
        .flat_map(|c| c.phases.iter().map(|p| p.port))
        .collect();

    // Walk forward from every node output (and every data PI) through
    // movable register chains; one edge per reached sink pin/port.
    let mut edges = Vec::new();
    let walk = |from: usize, start: NetId, edges: &mut Vec<Edge>| {
        let mut stack: Vec<(NetId, i64)> = vec![(start, 0)];
        let mut seen: HashSet<(NetId, i64)> = HashSet::new();
        while let Some((net, w)) = stack.pop() {
            if !seen.insert((net, w)) {
                continue;
            }
            for pin in idx.loads(net) {
                let cell = nl.cell(pin.cell);
                let def = cell.kind.pin_def(pin.pin);
                if def.dir != PinDir::Input || def.class == PinClass::Clock {
                    continue;
                }
                if movable.contains(&pin.cell) {
                    stack.push((cell.output(), w + 1));
                } else if let Some(&to) = node_of.get(&pin.cell) {
                    let req = i64::from(matches!(nodes[to], Node::Fixed(_)));
                    let barrier = no_adjacent.contains(&pin.cell)
                        || opts.cap0_before.contains(&pin.cell)
                        || matches!(nodes[from], Node::Fixed(c) if no_adjacent.contains(&c))
                        || matches!(nodes[from], Node::Comb(c) if opts.cap0_after.contains(&c));
                    edges.push(Edge {
                        from,
                        to,
                        weight: w + req,
                        req,
                        cap: if barrier { Some(0) } else { None },
                        sink: Sink::Pin(pin.cell, pin.pin),
                    });
                } else if cell.kind.is_clock_gate() {
                    // Enable pins are frozen sinks: legality then pins the
                    // lag of everything feeding an enable cone to 0.
                    edges.push(Edge {
                        from,
                        to: 1,
                        weight: w,
                        req: 0,
                        cap: None,
                        sink: Sink::Pin(pin.cell, pin.pin),
                    });
                }
            }
            for &port in idx.observers(net) {
                let barrier = matches!(nodes[from], Node::Fixed(c) if no_adjacent.contains(&c))
                    || matches!(nodes[from], Node::Comb(c) if opts.cap0_after.contains(&c));
                edges.push(Edge {
                    from,
                    to: 1,
                    weight: w,
                    req: 0,
                    cap: if barrier { Some(0) } else { None },
                    sink: Sink::Port(port),
                });
            }
        }
    };

    for (i, node) in nodes.clone().iter().enumerate() {
        match node {
            Node::HostSource | Node::HostSink => {}
            Node::Comb(id) | Node::Fixed(id) => {
                walk(i, nl.cell(*id).output(), &mut edges);
            }
        }
    }
    for (pi, port) in nl.ports().iter().enumerate() {
        let pid = PortId::from_index(pi);
        if port.dir == PortDir::Input && !clock_ports.contains(&pid) {
            walk(0, port.net, &mut edges);
        }
    }

    RetimeGraph {
        nodes,
        edges,
        delay,
        frozen,
    }
}

/// Worst stage delay under retiming `r` (max zero-weight path delay), or
/// `None` if the zero-weight subgraph is cyclic.
fn critical_period(g: &RetimeGraph, r: &[i64]) -> Option<f64> {
    deltas(g, r).map(|d| d.iter().cloned().fold(0.0, f64::max))
}

/// Arrival times Δ(v) over the zero-weight subgraph (Kahn + relaxation).
fn deltas(g: &RetimeGraph, r: &[i64]) -> Option<Vec<f64>> {
    let n = g.nodes.len();
    let mut indeg = vec![0usize; n];
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    for e in &g.edges {
        let w = e.weight + r[e.to] - r[e.from];
        debug_assert!(w >= e.req, "illegal retiming state");
        if w == 0 {
            adj[e.from].push(e.to);
            indeg[e.to] += 1;
        }
    }
    let mut delta: Vec<f64> = g.delay.clone();
    let mut queue: Vec<usize> = (0..n).filter(|&v| indeg[v] == 0).collect();
    let mut visited = 0;
    while let Some(v) = queue.pop() {
        visited += 1;
        for &u in &adj[v] {
            if delta[v] + g.delay[u] > delta[u] {
                delta[u] = delta[v] + g.delay[u];
            }
            indeg[u] -= 1;
            if indeg[u] == 0 {
                queue.push(u);
            }
        }
    }
    if visited != n {
        return None; // combinational cycle
    }
    Some(delta)
}

/// FEAS: find a legal retiming meeting period `c`, or `None`. The
/// legality pre-check (out-edges may not drop below their mandatory
/// register count unless the head is bumped too) makes this slightly
/// conservative when frozen nodes are involved, which only costs a larger
/// reported period — never an illegal rebuild.
/// Bidirectional FEAS: the classic rule (bump the lag of nodes whose
/// *arrival* Δ exceeds `c`, pulling registers backward across them) plus a
/// dual push rule (decrement the lag of nodes whose *departure-side* path
/// Θ exceeds `c`, pushing registers forward) — needed because fixed
/// registers pin lags at 0, so purely monotone FEAS could never move the
/// freshly inserted `p2` proxies forward into their stages. Each candidate
/// move is applied only if every incident edge stays legal (mandatory
/// registers kept, movable caps respected), so any returned lag vector is
/// a legal retiming.
fn feasible(g: &RetimeGraph, c: f64, max_iters: usize, cap: Option<i64>) -> Option<Vec<i64>> {
    let n = g.nodes.len();
    let mut r = vec![0i64; n];
    let mut in_edges: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut out_edges: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (i, e) in g.edges.iter().enumerate() {
        in_edges[e.to].push(i);
        out_edges[e.from].push(i);
    }
    let edge_legal = |e: &Edge, r: &[i64]| -> bool {
        let w = e.weight + r[e.to] - r[e.from];
        if w < e.req {
            return false;
        }
        match e.cap.or(cap) {
            Some(cap) => w - e.req <= cap,
            None => true,
        }
    };
    for _ in 0..max_iters {
        let delta = deltas(g, &r)?;
        let theta = thetas(g, &r)?;
        let mut worklist: Vec<(usize, i64, f64)> = Vec::new();
        for v in 0..n {
            if g.frozen[v] {
                if delta[v] > c + 1e-9 {
                    return None; // a frozen node can never be helped
                }
                continue;
            }
            let pull = delta[v] > c + 1e-9;
            let push = theta[v] > c + 1e-9;
            match (pull, push) {
                (true, false) => worklist.push((v, 1, delta[v])),
                (false, true) => worklist.push((v, -1, theta[v])),
                _ => {}
            }
        }
        if worklist.is_empty() {
            // No single-direction candidates left; done if timing is met.
            let worst = delta.iter().cloned().fold(0.0, f64::max);
            return if worst <= c + 1e-9 { Some(r) } else { None };
        }
        // Greedy legal application, worst violation first.
        worklist.sort_by(|a, b| b.2.partial_cmp(&a.2).unwrap());
        let mut applied = 0usize;
        for (v, dir, _) in worklist {
            r[v] += dir;
            let ok = in_edges[v]
                .iter()
                .chain(&out_edges[v])
                .all(|&ei| edge_legal(&g.edges[ei], &r));
            if ok {
                applied += 1;
            } else {
                r[v] -= dir;
            }
        }
        if applied == 0 {
            return None; // stuck
        }
    }
    None
}

/// Departure-side criticality: the longest zero-weight path delay from
/// each node to the next register (reverse of [`deltas`]).
fn thetas(g: &RetimeGraph, r: &[i64]) -> Option<Vec<f64>> {
    let n = g.nodes.len();
    let mut outdeg = vec![0usize; n];
    let mut radj: Vec<Vec<usize>> = vec![Vec::new(); n];
    for e in &g.edges {
        let w = e.weight + r[e.to] - r[e.from];
        if w == 0 {
            radj[e.to].push(e.from);
            outdeg[e.from] += 1;
        }
    }
    let mut theta: Vec<f64> = g.delay.clone();
    let mut queue: Vec<usize> = (0..n).filter(|&v| outdeg[v] == 0).collect();
    let mut visited = 0;
    while let Some(v) = queue.pop() {
        visited += 1;
        for &u in &radj[v] {
            if theta[v] + g.delay[u] > theta[u] {
                theta[u] = theta[v] + g.delay[u];
            }
            outdeg[u] -= 1;
            if outdeg[u] == 0 {
                queue.push(u);
            }
        }
    }
    if visited != n {
        return None;
    }
    Some(theta)
}

fn search_min_period(
    g: &RetimeGraph,
    original: f64,
    iters: usize,
    opts: &RetimeOptions,
) -> Result<(Vec<i64>, f64)> {
    let mut lo = 0.0f64;
    let mut hi = original;
    let mut best: (Vec<i64>, f64) = (vec![0; g.nodes.len()], original);
    while hi - lo > opts.tol_ps {
        let mid = 0.5 * (lo + hi);
        match feasible(g, mid, iters, opts.max_movable_per_edge) {
            Some(r) => {
                let p = critical_period(g, &r).ok_or(Error::Infeasible)?;
                if p < best.1 {
                    best = (r, p);
                }
                hi = mid;
            }
            None => lo = mid,
        }
    }
    Ok(best)
}

/// Rewrite the netlist for retiming `r`: remove all movable registers and
/// re-insert `w_r(e) − req(e)` of them on each edge, sharing register
/// chains between edges with a common path start.
fn apply(
    nl: &Netlist,
    idx: &ConnIndex,
    g: &RetimeGraph,
    r: &[i64],
    movable: &HashSet<CellId>,
    kind: CellKind,
    clock_net: NetId,
) -> Netlist {
    let mut out = nl.clone();
    for &c in movable {
        out.remove_cell(c);
    }
    let mut fresh = 0usize;
    let mut chains: HashMap<NetId, Vec<NetId>> = HashMap::new();
    // Original net -> replacement driver for output ports, in net order
    // so the bridging buffers get the same cell ids on every run.
    let mut port_rewires: BTreeMap<NetId, NetId> = BTreeMap::new();

    for e in &g.edges {
        let w_r = e.weight + r[e.to] - r[e.from];
        let taps = usize::try_from(w_r - e.req).expect("legal retiming");
        let start = path_start(nl, idx, movable, e.sink);
        let chain = chains.entry(start).or_insert_with(|| vec![start]);
        while chain.len() <= taps {
            let prev = *chain.last().expect("chain seeded with start");
            let qn = out.add_net(format!("rt_n{fresh}"));
            out.add_cell(format!("rt_ff{fresh}"), kind, vec![prev, clock_net, qn]);
            fresh += 1;
            chain.push(qn);
        }
        let tap = chain[taps];
        match e.sink {
            Sink::Pin(c, pin) => out.set_pin(c, pin, tap),
            Sink::Port(p) => {
                let orig = nl.port(p).net;
                if orig != tap {
                    port_rewires.insert(orig, tap);
                }
            }
        }
    }
    for (orig, tap) in port_rewires {
        // The original PO net lost its (movable) driver; bridge it.
        out.add_cell(
            format!("rt_obuf{}", orig.index()),
            CellKind::Buf,
            vec![tap, orig],
        );
    }
    out.compact()
}

/// Walk backwards from an edge's sink through movable registers to the
/// path's start net (the source node's output or a PI net).
fn path_start(nl: &Netlist, idx: &ConnIndex, movable: &HashSet<CellId>, sink: Sink) -> NetId {
    let mut net = match sink {
        Sink::Pin(c, pin) => nl.cell(c).pin(pin),
        Sink::Port(p) => nl.port(p).net,
    };
    loop {
        match idx.driver(net) {
            Some(drv) if movable.contains(&drv.cell) => {
                net = nl.cell(drv.cell).pin(0);
            }
            _ => return net,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use triphase_netlist::{Builder, ClockSpec, PhaseDef};

    fn movable_set(nl: &Netlist, names: &[&str]) -> HashSet<CellId> {
        nl.cells()
            .filter(|(_, c)| names.contains(&c.name.as_str()))
            .map(|(id, _)| id)
            .collect()
    }

    fn two_phase_clock(nl: &mut Netlist) -> (NetId, NetId) {
        let (ckp, ck) = nl.add_input("clk");
        let (cbp, ckb) = nl.add_input("clkbar");
        let mut spec = ClockSpec::single(ckp, 1000.0);
        spec.phases.push(PhaseDef {
            port: cbp,
            rise_ps: 500.0,
            fall_ps: 1000.0,
        });
        nl.clock = Some(spec);
        (ck, ckb)
    }

    /// fixed FF -> 8 INV -> movable FF -> fixed FF.
    fn unbalanced() -> Netlist {
        let mut nl = Netlist::new("unb");
        let (ck, ckb) = two_phase_clock(&mut nl);
        let mut b = Builder::new(&mut nl, "u");
        let (_, din) = b.netlist().add_input("d");
        let q0 = b.net("q0");
        b.netlist()
            .add_cell("fix0", CellKind::Dff, vec![din, ck, q0]);
        let mut x = q0;
        for _ in 0..8 {
            x = b.not(x);
        }
        let qm = b.net("qm");
        b.netlist()
            .add_cell("mov0", CellKind::Dff, vec![x, ckb, qm]);
        let q2 = b.net("q2");
        b.netlist()
            .add_cell("fix1", CellKind::Dff, vec![qm, ck, q2]);
        b.netlist().add_output("out", q2);
        nl.validate().unwrap();
        nl
    }

    #[test]
    fn balances_unbalanced_stage() {
        let nl = unbalanced();
        let lib = Library::synthetic_28nm();
        let movable = movable_set(&nl, &["mov0"]);
        let out = retime_movable(&nl, &lib, &movable, &RetimeOptions::default()).unwrap();
        assert!(
            out.achieved_period_ps < out.original_period_ps * 0.75,
            "period {} -> {}",
            out.original_period_ps,
            out.achieved_period_ps
        );
        out.netlist.validate().unwrap();
        assert_eq!(out.netlist.stats().ffs, 3);
        assert_eq!(out.movable_after, 1);
    }

    #[test]
    fn already_balanced_is_stable() {
        let mut nl = Netlist::new("bal");
        let (ck, ckb) = two_phase_clock(&mut nl);
        let mut b = Builder::new(&mut nl, "u");
        let (_, din) = b.netlist().add_input("d");
        let q0 = b.net("q0");
        b.netlist()
            .add_cell("fix0", CellKind::Dff, vec![din, ck, q0]);
        let x1 = b.not(q0);
        let x2 = b.not(x1);
        let qm = b.net("qm");
        b.netlist()
            .add_cell("mov0", CellKind::Dff, vec![x2, ckb, qm]);
        let y1 = b.not(qm);
        let y2 = b.not(y1);
        let q2 = b.net("q2");
        b.netlist()
            .add_cell("fix1", CellKind::Dff, vec![y2, ck, q2]);
        b.netlist().add_output("out", q2);
        let lib = Library::synthetic_28nm();
        let movable = movable_set(&nl, &["mov0"]);
        let out = retime_movable(&nl, &lib, &movable, &RetimeOptions::default()).unwrap();
        assert!(out.achieved_period_ps <= out.original_period_ps + 1e-9);
        assert_eq!(out.netlist.stats().ffs, 3);
    }

    #[test]
    fn fixed_ffs_never_move() {
        let nl = unbalanced();
        let lib = Library::synthetic_28nm();
        let movable = movable_set(&nl, &["mov0"]);
        let out = retime_movable(&nl, &lib, &movable, &RetimeOptions::default()).unwrap();
        let rebuilt = &out.netlist;
        let fix0 = rebuilt
            .cells()
            .find(|(_, c)| c.name == "fix0")
            .expect("fix0 kept")
            .1;
        assert_eq!(rebuilt.net(fix0.pin(1)).name, "clk");
        let fix1 = rebuilt
            .cells()
            .find(|(_, c)| c.name == "fix1")
            .expect("fix1 kept")
            .1;
        assert_eq!(rebuilt.net(fix1.pin(1)).name, "clk");
    }

    #[test]
    fn rejects_mixed_clocks() {
        let nl = unbalanced();
        let lib = Library::synthetic_28nm();
        let movable = movable_set(&nl, &["mov0", "fix0"]);
        assert!(matches!(
            retime_movable(&nl, &lib, &movable, &RetimeOptions::default()),
            Err(Error::BadMovableSet(_))
        ));
    }

    #[test]
    fn rejects_empty_movable() {
        let nl = unbalanced();
        let lib = Library::synthetic_28nm();
        assert!(matches!(
            retime_movable(&nl, &lib, &HashSet::new(), &RetimeOptions::default()),
            Err(Error::BadMovableSet(_))
        ));
    }

    #[test]
    fn target_mode_reports_met_flag() {
        let nl = unbalanced();
        let lib = Library::synthetic_28nm();
        let movable = movable_set(&nl, &["mov0"]);
        let loose = retime_movable(
            &nl,
            &lib,
            &movable,
            &RetimeOptions {
                target_period_ps: Some(10_000.0),
                ..RetimeOptions::default()
            },
        )
        .unwrap();
        assert!(loose.met_target);
        let tight = retime_movable(
            &nl,
            &lib,
            &movable,
            &RetimeOptions {
                target_period_ps: Some(1.0),
                ..RetimeOptions::default()
            },
        )
        .unwrap();
        assert!(!tight.met_target, "1 ps is impossible");
    }

    #[test]
    fn fanout_shares_chain() {
        let mut nl = Netlist::new("fan");
        let (ck, ckb) = two_phase_clock(&mut nl);
        let mut b = Builder::new(&mut nl, "u");
        let (_, din) = b.netlist().add_input("d");
        let q0 = b.net("q0");
        b.netlist()
            .add_cell("fix0", CellKind::Dff, vec![din, ck, q0]);
        let x = b.not(q0);
        let qm = b.net("qm");
        b.netlist()
            .add_cell("mov0", CellKind::Dff, vec![x, ckb, qm]);
        let y1 = b.not(qm);
        let y2 = b.not(qm);
        let qa = b.net("qa");
        let qb = b.net("qb");
        b.netlist()
            .add_cell("fixa", CellKind::Dff, vec![y1, ck, qa]);
        b.netlist()
            .add_cell("fixb", CellKind::Dff, vec![y2, ck, qb]);
        b.netlist().add_output("oa", qa);
        b.netlist().add_output("ob", qb);
        let lib = Library::synthetic_28nm();
        let movable = movable_set(&nl, &["mov0"]);
        let out = retime_movable(&nl, &lib, &movable, &RetimeOptions::default()).unwrap();
        out.netlist.validate().unwrap();
        assert_eq!(out.movable_after, 1, "shared chain keeps one register");
    }

    #[test]
    fn po_fed_by_movable_register_survives() {
        // PI -> 4 INV -> movable FF -> PO. Retiming may move the FF; the
        // PO must stay functional (bridged by a buffer when rewired).
        let mut nl = Netlist::new("po");
        let (_ck, ckb) = two_phase_clock(&mut nl);
        let mut b = Builder::new(&mut nl, "u");
        let (_, din) = b.netlist().add_input("d");
        let mut x = din;
        for _ in 0..4 {
            x = b.not(x);
        }
        let qm = b.net("qm");
        b.netlist()
            .add_cell("mov0", CellKind::Dff, vec![x, ckb, qm]);
        b.netlist().add_output("out", qm);
        let lib = Library::synthetic_28nm();
        let movable = movable_set(&nl, &["mov0"]);
        let out = retime_movable(&nl, &lib, &movable, &RetimeOptions::default()).unwrap();
        out.netlist.validate().unwrap();
        assert_eq!(out.netlist.stats().ffs, 1);
        assert!(out.achieved_period_ps <= out.original_period_ps);
    }

    #[test]
    fn cg_enable_cone_is_pinned() {
        // comb node feeding both a data path (with a movable FF after it)
        // and an ICG enable: retiming must not move the register across
        // that node (its lag is pinned through the frozen enable sink).
        let mut nl = Netlist::new("cg");
        let (ck, ckb) = two_phase_clock(&mut nl);
        let mut b = Builder::new(&mut nl, "u");
        let (_, din) = b.netlist().add_input("d");
        let (_, en_src) = b.netlist().add_input("en");
        let q0 = b.net("q0");
        b.netlist()
            .add_cell("fix0", CellKind::Dff, vec![din, ck, q0]);
        // Deep logic then the shared node.
        let mut x = q0;
        for _ in 0..6 {
            x = b.not(x);
        }
        let shared = b.gate(CellKind::And(2), &[x, en_src]);
        let gck = b.net("gck");
        b.netlist()
            .add_cell("icg", CellKind::Icg, vec![shared, ck, gck]);
        let qm = b.net("qm");
        b.netlist()
            .add_cell("mov0", CellKind::Dff, vec![shared, ckb, qm]);
        let qg = b.net("qg");
        b.netlist()
            .add_cell("gff", CellKind::Dff, vec![qm, gck, qg]);
        b.netlist().add_output("out", qg);
        let lib = Library::synthetic_28nm();
        let movable = movable_set(&nl, &["mov0"]);
        let out = retime_movable(&nl, &lib, &movable, &RetimeOptions::default()).unwrap();
        out.netlist.validate().unwrap();
        // The ICG enable is still driven by the shared AND, not a register.
        let rebuilt = &out.netlist;
        let icg = rebuilt
            .cells()
            .find(|(_, c)| c.name == "icg")
            .expect("icg kept")
            .1;
        let ridx = rebuilt.index();
        let drv = ridx.driver(icg.pin(0)).expect("enable driven");
        assert!(
            rebuilt.cell(drv.cell).kind.is_comb(),
            "no register on enable"
        );
    }
}
