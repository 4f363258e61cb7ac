//! Consistency certification of the compiled simulation kernel against
//! the scalar reference simulator: for every registered benchmark, the
//! compiled bytecode VM must be **bit-exact** with the scalar
//! interpreter — identical per-net values and identical toggle counts —
//! over seeded random stimulus starting from `reset_zero` (which
//! exercises X-propagation out of the all-X reset state).
//!
//! Coverage:
//! - single-lane compiled vs scalar on all 18 benchmarks: full net-value
//!   sweep and full per-net toggle-count vector equality;
//! - 64-lane compiled (`W = 1`) vs one scalar run per lane seed on all
//!   18 benchmarks and both s5378 variants: every net value in every
//!   lane, and the toggle totals equal to the sum of the 64 scalar
//!   toggle vectors (over a shorter window than the single-lane sweep,
//!   shortest on the four largest designs);
//! - multi-word compiled lanes (`W = 8`, 320 streams) vs per-seed scalar
//!   runs on sampled lanes above 64 (`lane_seeds` is count-independent);
//! - 128-lane (`W = 2`) values and toggle totals likewise on the
//!   smallest circuit;
//! - clock-gated (`Icg`) and converted 3-phase (`IcgM1` + latch)
//!   variants of s5378, covering gated-clock X and enable-latch
//!   semantics.
//!
//! `TRIPHASE_SCALE=quick` trims cycle counts for smoke runs.

use triphase_bench::benchmarks;
use triphase_core::{assign_phases, extract_ff_graph, gated_clock_style, to_three_phase};
use triphase_ilp::PhaseConfig;
use triphase_netlist::Netlist;
use triphase_sim::{lane_seeds, run_random, run_random_compiled, LANES};

fn quick() -> bool {
    std::env::var("TRIPHASE_SCALE").is_ok_and(|v| v == "quick")
}

/// Assert the compiled kernel agrees with the scalar simulator on every
/// net value and every toggle count for the same seed/cycles: single
/// lane against the scalar activity vector, at `LANES` lanes against one
/// scalar run per lane seed over `lane_cycles` (values in every lane,
/// toggle totals against their sum), and at a multi-word width on
/// sampled lanes.
fn assert_consistent(name: &str, nl: &Netlist, seed: u64, cycles: u64, lane_cycles: u64) {
    // Single lane: bit-identical activity (cycles + full toggle vector)
    // and values.
    let scalar = run_random(nl, seed, cycles).unwrap();
    let compiled1 = run_random_compiled(nl, seed, cycles, 1).unwrap();
    let ca = compiled1.activity();
    assert_eq!(ca.cycles, scalar.activity().cycles, "{name}: cycles");
    assert_eq!(
        ca.net_toggles,
        scalar.activity().net_toggles,
        "{name}: single-lane toggle counts diverge"
    );
    for (net, _) in nl.nets() {
        assert_eq!(
            compiled1.net_value_lane(net, 0),
            scalar.net_value(net),
            "{name}: single-lane value of net {net:?}"
        );
    }

    // 64 lanes (W = 1): every lane (lane 0 is the historical stream).
    assert_lanes(name, nl, seed, lane_cycles, LANES);

    // 320 lanes (W = 8): sampled lanes above one word must match a
    // scalar run with that lane's seed.
    let lanes = 320;
    let compiled = run_random_compiled(nl, seed, cycles, lanes).unwrap();
    let seeds = lane_seeds(seed, lanes);
    for lane in [64, 200, 319] {
        let reference = run_random(nl, seeds[lane], cycles).unwrap();
        for (net, _) in nl.nets() {
            assert_eq!(
                compiled.net_value_lane(net, lane),
                reference.net_value(net),
                "{name}: x{lanes} lane {lane} value of net {net:?}"
            );
        }
    }
}

/// Assert a compiled `lanes`-lane run matches `lanes` scalar runs, one
/// per lane seed: every net value in every lane, and the compiled toggle
/// totals equal to the sum of the scalar toggle vectors.
fn assert_lanes(name: &str, nl: &Netlist, seed: u64, cycles: u64, lanes: usize) {
    let compiled = run_random_compiled(nl, seed, cycles, lanes).unwrap();
    let mut summed = vec![0u64; compiled.activity().net_toggles.len()];
    for (lane, lane_seed) in lane_seeds(seed, lanes).into_iter().enumerate() {
        let scalar = run_random(nl, lane_seed, cycles).unwrap();
        for (net, _) in nl.nets() {
            assert_eq!(
                compiled.net_value_lane(net, lane),
                scalar.net_value(net),
                "{name}: x{lanes} lane {lane} value of net {net:?}"
            );
        }
        for (total, t) in summed.iter_mut().zip(&scalar.activity().net_toggles) {
            *total += t;
        }
    }
    assert_eq!(
        compiled.activity().net_toggles,
        summed,
        "{name}: compiled {lanes}-lane toggle totals != sum of scalar lanes"
    );
}

/// Compiled toggle totals at one word (64 lanes, W = 1) and at two words
/// (128 lanes, W = 2) equal the per-seed scalar sums on the cheapest
/// circuit.
#[test]
fn compiled_toggle_totals_sum_over_lanes() {
    let all = benchmarks();
    let smallest = all
        .iter()
        .min_by_key(|b| b.build().net_count())
        .expect("non-empty registry");
    let nl = smallest.build();
    let cycles = if quick() { 8 } else { 24 };
    for lanes in [LANES, 128] {
        assert_lanes(smallest.name, &nl, 7, cycles, lanes);
    }
}

#[test]
fn compiled_matches_scalar_on_all_benchmarks() {
    let q = quick();
    for b in benchmarks() {
        let nl = b.build();
        // The 64-lane check reruns the scalar simulator once per lane:
        // give it a shorter window than the single-lane sweep, shortest
        // on the large designs (AES is by far the largest), so the
        // full-registry sweep stays tractable on one core.
        let nets = nl.net_count();
        let (cycles, lane_cycles) = match (q, nets) {
            (true, 20_000..) => (6, 2),
            (true, _) => (6, 6),
            (false, 20_000..) => (12, 4),
            (false, 10_000..) => (32, 8),
            (false, _) => (32, 16),
        };
        assert_consistent(b.name, &nl, 11, cycles, lane_cycles);
    }
}

/// Clock-gated and converted 3-phase variants: `Icg` enable latches,
/// `IcgM1` gating of the P3 clock, and transparent-latch storage all go
/// through the compiled clock-network path.
#[test]
fn compiled_matches_scalar_on_gated_and_three_phase() {
    let all = benchmarks();
    let b = all.iter().find(|b| b.name == "s5378").expect("s5378 row");
    let mut pre = b.build();
    gated_clock_style(&mut pre, 32).unwrap();
    let pre = pre.compact();
    let cycles = if quick() { 8 } else { 32 };
    assert_consistent("s5378+icg", &pre, 11, cycles, cycles);

    let idx = pre.index();
    let graph = extract_ff_graph(&pre, &idx).unwrap();
    let assignment = assign_phases(&graph, &PhaseConfig::default());
    let (tp, _) = to_three_phase(&pre, &assignment).unwrap();
    assert_consistent("s5378+3phase", &tp, 11, cycles, cycles);
}
