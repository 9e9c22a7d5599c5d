//! Reorder-identity property tests: the reordering search
//! (`pmsched::algorithm::power_manage_reordered`) prepares the baseline and
//! the cone analysis once, skips candidate orders whose mux sequence repeats
//! an earlier one, shares final schedules between candidates that accept
//! the same control edges and keeps accepted edges in an overlay instead of
//! the graph.  None of that may change a decision: the search must return
//! exactly what the best of cold `pmsched::naive::power_manage` runs over
//! every candidate order returns, ties going to the earliest candidate.
//!
//! Compared: the final and baseline schedules, every examined multiplexor
//! (acceptance, select driver, shut-down sets, number of control edges),
//! the result graph's control edges as endpoint pairs, and the savings to
//! the bit.  Control-edge *ids* are not compared — the naive loop inserts
//! and rolls back edges for rejected multiplexors too, so it draws other ids
//! from the graph's free list.

use cdfg::{Cdfg, NodeId};
use gen::{Family, GenSpec};
use pmsched::algorithm::power_manage_reordered;
use pmsched::{naive, MuxOrder, PowerManagementOptions, PowerManagementResult};
use proptest::prelude::*;
use sched::hyper::{self, HyperOptions};
use sched::ResourceConstraint;

/// The exhaustive-search limit the sweep engine uses.
const EXHAUSTIVE_LIMIT: usize = 5;

/// A small circuit of `family`; `size` walks the multiplexor count from one
/// or two up past the exhaustive limit (random-dag 2–7, mux-tree 1/3/7,
/// dsp-chain 1 or 8, cordic 3/6/9).
fn spec_for(family: Family, seed: u64, size: u8) -> (GenSpec, usize) {
    let mut spec = GenSpec::new(family, seed, 4);
    let mut index = 0;
    match family {
        Family::RandomDag => {
            spec.width = 3;
            spec.depth = 3 + u32::from(size % 6);
            spec.mux_permille = 200;
        }
        Family::MuxTree => spec.depth = 1 + u32::from(size % 3),
        Family::DspChain => {
            spec.taps = 2;
            index = usize::from(size % 3);
        }
        Family::Cordic => spec.iters = 1 + u32::from(size % 3),
    }
    (spec, index)
}

fn family_strategy() -> impl Strategy<Value = Family> {
    prop_oneof![
        Just(Family::RandomDag),
        Just(Family::MuxTree),
        Just(Family::DspChain),
        Just(Family::Cordic),
    ]
}

/// Latency-only constraints, or the minimum allocation the resource-
/// minimising scheduler needs (the sweep engine's list-scheduler setting,
/// under which the relaxation loop gives edges back).
fn options_for(cdfg: &Cdfg, latency: u32, limited: bool) -> PowerManagementOptions {
    if limited {
        let minimum = hyper::minimum_resources(cdfg, latency).expect("feasible budget");
        PowerManagementOptions::with_resources(latency, ResourceConstraint::Limited(minimum))
    } else {
        PowerManagementOptions::with_latency(latency)
    }
}

/// The candidate orders of the reordering search, in its order.
fn candidates(cdfg: &Cdfg) -> Vec<MuxOrder> {
    let mut out = vec![MuxOrder::OutputsFirst, MuxOrder::BySavings, MuxOrder::InputsFirst];
    let muxes = cdfg.mux_nodes();
    if muxes.len() > 1 && muxes.len() <= EXHAUSTIVE_LIMIT {
        out.extend(permutations(&muxes).into_iter().map(MuxOrder::Explicit));
    }
    out
}

fn permutations(items: &[NodeId]) -> Vec<Vec<NodeId>> {
    if items.len() <= 1 {
        return vec![items.to_vec()];
    }
    let mut out = Vec::new();
    for i in 0..items.len() {
        let mut rest = items.to_vec();
        let head = rest.remove(i);
        for tail in permutations(&rest) {
            out.push(std::iter::once(head).chain(tail).collect());
        }
    }
    out
}

/// What the search is compared against: cold per-order runs of the naive
/// reference, or of `pmsched::power_manage` where the naive loop is too slow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PerOrder {
    Naive,
    Fast,
}

impl PerOrder {
    fn run(self, cdfg: &Cdfg, options: &PowerManagementOptions) -> PowerManagementResult {
        match self {
            PerOrder::Naive => naive::power_manage(cdfg, options),
            PerOrder::Fast => pmsched::power_manage(cdfg, options),
        }
        .expect("feasible budget")
    }
}

/// The best cold `per_order` run over every candidate order; ties go to the
/// earliest candidate.  When `per_order` is the naive reference, every
/// order's single `pmsched::power_manage` run must match it too: orders
/// that examine inner multiplexors first are where the overlay's edges
/// feed the later ancestor queries, top-node choices and tightenings.
fn cold_best(
    cdfg: &Cdfg,
    options: &PowerManagementOptions,
    per_order: PerOrder,
    name: &str,
) -> PowerManagementResult {
    let mut best: Option<PowerManagementResult> = None;
    for (i, order) in candidates(cdfg).into_iter().enumerate() {
        let options = options.clone().mux_order(order);
        let run = per_order.run(cdfg, &options);
        if per_order == PerOrder::Naive {
            let fast = PerOrder::Fast.run(cdfg, &options);
            assert_same_decisions(&fast, &run, &format!("{name}, candidate {i}"));
        }
        let better = match &best {
            None => true,
            Some(current) => {
                run.savings().reduction_percent > current.savings().reduction_percent + 1e-9
            }
        };
        if better {
            best = Some(run);
        }
    }
    best.expect("at least one candidate")
}

fn control_pairs(result: &PowerManagementResult) -> Vec<(NodeId, NodeId)> {
    let graph = result.cdfg().graph();
    let mut pairs: Vec<(NodeId, NodeId)> =
        result.cdfg().control_edges().into_iter().filter_map(|e| graph.edge_endpoints(e)).collect();
    pairs.sort_unstable();
    pairs
}

fn assert_reorder_identity(
    cdfg: &Cdfg,
    options: &PowerManagementOptions,
    per_order: PerOrder,
    name: &str,
) {
    let fast = power_manage_reordered(cdfg, options, EXHAUSTIVE_LIMIT).expect("feasible budget");
    let slow = cold_best(cdfg, options, per_order, name);
    assert_same_decisions(&fast, &slow, name);
}

fn assert_same_decisions(fast: &PowerManagementResult, slow: &PowerManagementResult, name: &str) {
    assert_eq!(fast.schedule(), slow.schedule(), "{name}: schedules diverged");
    assert_eq!(fast.baseline_schedule(), slow.baseline_schedule(), "{name}: baselines diverged");
    assert_eq!(fast.managed_muxes().len(), slow.managed_muxes().len(), "{name}: mux counts");
    for (f, s) in fast.managed_muxes().iter().zip(slow.managed_muxes()) {
        assert_eq!(f.mux, s.mux, "{name}: mux order diverged");
        assert_eq!(f.accepted, s.accepted, "{name}: acceptance of {} diverged", f.mux);
        assert_eq!(f.select_driver, s.select_driver, "{name}: select driver of {}", f.mux);
        assert_eq!(f.shutdown_false, s.shutdown_false, "{name}: shutdown_false of {}", f.mux);
        assert_eq!(f.shutdown_true, s.shutdown_true, "{name}: shutdown_true of {}", f.mux);
        assert_eq!(
            f.control_edges.len(),
            s.control_edges.len(),
            "{name}: control edges of {}",
            f.mux
        );
    }
    assert_eq!(control_pairs(fast), control_pairs(slow), "{name}: result graph edges");
    assert_eq!(
        fast.savings().reduction_percent.to_bits(),
        slow.savings().reduction_percent.to_bits(),
        "{name}: savings must be bit-identical"
    );
}

/// A small deterministic stream (64-bit LCG) for picking and shuffling
/// edges.
struct Lcg(u64);

impl Lcg {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((self.0 >> 33) % n as u64) as usize
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The schedule memo of the search is keyed by the sorted,
    /// deduplicated control-edge set.  That is exact only if a schedule —
    /// force-directed or list — depends on that set alone, not on the order
    /// the edges went in or on repeated edges.  Insert the same acyclic
    /// edges in two shuffled orders, once with a duplicate, and compare.
    #[test]
    fn schedules_depend_only_on_the_control_edge_set(
        family in family_strategy(),
        seed in 0u64..500,
        size in 0u8..6,
        edges in 1usize..8,
        slack in 0u32..3,
    ) {
        let (spec, index) = spec_for(family, seed, size);
        let bench = gen::generate_one(&spec, index).expect("generator produces valid circuits");
        let base = &bench.cdfg;
        // Edges that run forward in one topological order never close a
        // cycle, whatever else is inserted.
        let functional: Vec<NodeId> = base
            .topological_order()
            .into_iter()
            .filter(|&n| base.node(n).is_some_and(|d| d.op.is_functional()))
            .collect();
        let mut rng = Lcg(seed ^ 0x9e37_79b9_7f4a_7c15);
        let mut pairs = Vec::new();
        for _ in 0..edges {
            let i = rng.below(functional.len() - 1);
            let j = i + 1 + rng.below(functional.len() - i - 1);
            pairs.push((functional[i], functional[j]));
        }
        let mut shuffled = pairs.clone();
        for i in (1..shuffled.len()).rev() {
            shuffled.swap(i, rng.below(i + 1));
        }
        shuffled.push(shuffled[rng.below(shuffled.len())]);

        let mut first = base.clone();
        for &(before, after) in &pairs {
            first.add_control_edge(before, after).expect("forward edge");
        }
        let mut second = base.clone();
        for &(before, after) in &shuffled {
            second.add_acyclic_control_edge(before, after).expect("forward edge");
        }
        let latency = first.critical_path_length().max(1) + slack;
        let minimum = hyper::minimum_resources(&first, latency).expect("feasible budget");
        for resources in [ResourceConstraint::Unlimited, ResourceConstraint::Limited(minimum)] {
            let options = HyperOptions::with_resources(latency, resources);
            prop_assert_eq!(
                hyper::schedule(&first, &options),
                hyper::schedule(&second, &options),
                "{} at {} with {:?}", bench.name, latency, options.resources
            );
        }
    }

    /// The reordering search equals the best cold per-order run across
    /// families, seeds, sizes, budgets and both constraint kinds.
    #[test]
    fn reordered_search_equals_best_cold_run(
        family in family_strategy(),
        seed in 0u64..500,
        size in 0u8..6,
        slack in 0u32..4,
        limited in 0u8..2,
    ) {
        let (spec, index) = spec_for(family, seed, size);
        let bench = gen::generate_one(&spec, index).expect("generator produces valid circuits");
        let latency = bench.cdfg.critical_path_length().max(1) + slack;
        let options = options_for(&bench.cdfg, latency, limited == 1);
        assert_reorder_identity(&bench.cdfg, &options, PerOrder::Naive, bench.name.as_str());
    }
}

/// Fixed circuits of every family on both sides of the exhaustive limit,
/// at a tight and a slack budget under both constraint kinds.
#[test]
fn exhaustive_and_heuristic_searches_match_per_family() {
    let mut mux_counts = Vec::new();
    for family in Family::ALL {
        for size in 0..6 {
            let (spec, index) = spec_for(family, 20261017, size);
            let bench = gen::generate_one(&spec, index).expect("valid circuit");
            mux_counts.push(bench.cdfg.mux_nodes().len());
            let cp = bench.cdfg.critical_path_length().max(1);
            for latency in [cp, cp + 2] {
                for limited in [false, true] {
                    let options = options_for(&bench.cdfg, latency, limited);
                    let name = format!("{} @ {latency} limited={limited}", bench.name);
                    assert_reorder_identity(&bench.cdfg, &options, PerOrder::Naive, &name);
                }
            }
        }
    }
    assert!(mux_counts.iter().any(|&n| (2..=EXHAUSTIVE_LIMIT).contains(&n)), "{mux_counts:?}");
    assert!(mux_counts.iter().any(|&n| n > EXHAUSTIVE_LIMIT), "{mux_counts:?}");
}

/// The paper circuits at every Table II budget, under both constraint
/// kinds.  `cordic` (47 multiplexors) is compared against cold per-order
/// `pmsched::power_manage` runs, which the cone-identity suite pins to the
/// naive reference: the naive loop needs seconds per order on it in a debug
/// build.
#[test]
fn paper_circuits_reorder_identically() {
    for bench in circuits::all_benchmarks() {
        let per_order = if bench.cdfg.mux_nodes().len() > 2 * EXHAUSTIVE_LIMIT {
            PerOrder::Fast
        } else {
            PerOrder::Naive
        };
        for &steps in &bench.control_steps {
            for limited in [false, true] {
                let options = options_for(&bench.cdfg, steps, limited);
                let name = format!("{} @ {steps} limited={limited}", bench.name);
                assert_reorder_identity(&bench.cdfg, &options, per_order, &name);
            }
        }
    }
}
