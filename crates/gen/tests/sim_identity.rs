//! Simulator-identity property tests: the compiled RTL simulator
//! (`rtl::Simulator`) and the retained map-based reference (`rtl::naive`)
//! must observe every design identically — the same outputs, executed and
//! gated operations per sample, the same per-unit activity, toggle and
//! gated-cycle totals per run, and bit-identical `GateLevelReport`s from
//! the dense gate-level flow and the reference flow.
//!
//! Both the power-managed design (gated controller, managed schedule) and
//! the original design (ungated controller, baseline schedule) are checked,
//! through both entry points of the compiled simulator: by-name sample maps
//! (`run_sample`) and dense buffers filled by `RandomVectors::sample_into`
//! (`run_dense`).  A gating condition read before it has a value is an
//! error in the compiled simulator and a silent zero in the reference, so
//! an unsound gate anywhere in these circuits fails this suite.

use cdfg::Cdfg;
use gen::{Family, GenSpec};
use pmsched::{power_manage, PowerManagementOptions};
use power::{GateLevelOptions, GateLevelReport, RandomVectors};
use proptest::prelude::*;
use rtl::Controller;

/// Builds the spec for one generated circuit of the given family with
/// family-appropriate size knobs (mirrors the cone-identity suite).
fn spec_for(family: Family, seed: u64, size: u8) -> GenSpec {
    let mut spec = GenSpec::new(family, seed, 1);
    match family {
        Family::RandomDag => {
            spec.width = 4 + u32::from(size % 3) * 4;
            spec.depth = 6 + u32::from(size / 3) * 6;
            spec.mux_permille = 250;
        }
        Family::MuxTree => spec.depth = 3 + u32::from(size % 4),
        Family::DspChain => spec.taps = 4 + u32::from(size % 5) * 4,
        Family::Cordic => spec.iters = 3 + u32::from(size % 6),
    }
    spec
}

fn family_strategy() -> impl Strategy<Value = Family> {
    prop_oneof![
        Just(Family::RandomDag),
        Just(Family::MuxTree),
        Just(Family::DspChain),
        Just(Family::Cordic),
    ]
}

/// A report's fields with every `f64` as its raw bits.
fn report_bits(r: &GateLevelReport) -> (String, u32, usize, [u64; 6]) {
    let floats = [
        r.original_area,
        r.managed_area,
        r.area_ratio,
        r.original_power,
        r.managed_power,
        r.power_reduction_percent,
    ];
    (r.name.clone(), r.latency, r.samples, floats.map(f64::to_bits))
}

/// Simulates the managed and the original design of `cdfg` at `latency`
/// on `samples` seeded vectors with the compiled simulator (map and dense
/// inputs) and the naive one, asserting identical observations, then
/// compares the two gate-level flows' reports bit for bit.
fn assert_sim_identity(cdfg: &Cdfg, latency: u32, samples: usize, seed: u64) {
    let name = format!("{} at {latency}", cdfg.name());
    let result = power_manage(cdfg, &PowerManagementOptions::with_latency(latency))
        .unwrap_or_else(|e| panic!("{name}: {e}"));
    let designs = [
        ("managed", result.cdfg(), result.schedule(), Controller::generate(&result)),
        (
            "baseline",
            cdfg,
            result.baseline_schedule(),
            Controller::ungated(cdfg, result.baseline_schedule()),
        ),
    ];
    for (design, g, schedule, controller) in &designs {
        let build = || rtl::Simulator::new(g, schedule, controller).expect("simulator builds");
        let (mut mapped, mut dense) = (build(), build());
        let mut naive = rtl::naive::Simulator::new(g, schedule, controller).expect("builds");
        let mut map_vectors = RandomVectors::new(cdfg, seed);
        let mut dense_vectors = RandomVectors::new(cdfg, seed);
        assert_eq!(dense.input_names(), dense_vectors.input_names(), "{name} {design}: layout");
        let mut buffer = vec![0; dense_vectors.input_names().len()];
        for i in 0..samples {
            let sample = map_vectors.sample();
            dense_vectors.sample_into(&mut buffer);
            let expected = naive.run_sample(&sample);
            assert_eq!(mapped.run_sample(&sample), expected, "{name} {design}: sample {i}");
            assert_eq!(
                dense.run_dense(&buffer),
                expected.map(drop),
                "{name} {design}: dense sample {i}"
            );
        }
        for (path, sim) in [("map", &mapped), ("dense", &dense)] {
            assert_eq!(sim.activity(), naive.activity(), "{name} {design} {path}: activity");
            assert_eq!(sim.total_toggled_bits(), naive.total_toggled_bits(), "{name} {design}");
            assert_eq!(sim.total_gated_cycles(), naive.total_gated_cycles(), "{name} {design}");
            assert_eq!(sim.samples_run(), naive.samples_run(), "{name} {design} {path}");
        }
    }

    let options = GateLevelOptions::new(latency).samples(samples).seed(seed);
    let fast = power::gate_level_with_result(cdfg, &result, &options);
    let slow = power::naive::gate_level_with_result(cdfg, &result, &options);
    match (fast, slow) {
        (Ok(fast), Ok(slow)) => {
            assert_eq!(report_bits(&fast), report_bits(&slow), "{name}: gate-level report");
        }
        (fast, slow) => assert_eq!(
            fast.map_err(|e| e.to_string()).err(),
            slow.map_err(|e| e.to_string()).err(),
            "{name}: gate-level outcome"
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every family, seed and size at budgets cp..=cp+3: the compiled and
    /// the naive simulator observe the managed and the original design
    /// identically, and the gate-level reports agree bit for bit.
    #[test]
    fn compiled_simulator_equals_naive_reference(
        family in family_strategy(),
        seed in 0u64..1000,
        size in 0u8..9,
        vector_seed in 0u64..1000,
    ) {
        let spec = spec_for(family, seed, size);
        let bench = gen::generate_one(&spec, 0).expect("generator produces valid circuits");
        let cp = bench.cdfg.critical_path_length().max(1);
        for latency in cp..=cp + 3 {
            assert_sim_identity(&bench.cdfg, latency, 64, vector_seed);
        }
    }
}

/// The paper circuits at their Table III budgets with the Table III vector
/// count and seed.
#[test]
fn paper_circuits_simulate_identically_at_table3_budgets() {
    for (cdfg, latency) in [(circuits::dealer(), 6), (circuits::gcd(), 7), (circuits::vender(), 6)]
    {
        assert_sim_identity(&cdfg, latency, 1000, 0xDAC96);
    }
}

/// Every paper circuit (and the `|a - b|` example) at every Table II
/// budget.
#[test]
fn paper_circuits_simulate_identically_at_table2_budgets() {
    assert_sim_identity(&circuits::abs_diff(), 3, 200, 7);
    for bench in circuits::all_benchmarks() {
        for &latency in &bench.control_steps {
            assert_sim_identity(&bench.cdfg, latency, 200, 7);
        }
    }
}

/// A denser budget walk over one mid-sized circuit per family.
#[test]
fn budget_walk_identity_per_family() {
    for family in Family::ALL {
        let spec = spec_for(family, 20261017, 4);
        let bench = gen::generate_one(&spec, 0).expect("valid circuit");
        let cp = bench.cdfg.critical_path_length().max(1);
        for latency in cp..=cp + 3 {
            assert_sim_identity(&bench.cdfg, latency, 200, 11);
        }
    }
}
