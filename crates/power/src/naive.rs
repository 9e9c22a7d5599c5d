//! The gate-level flow on the original map-based simulator, retained as a
//! reference.
//!
//! [`gate_level_with_result`] is the Table III flow as it ran before the
//! RTL simulator was compiled to dense programs: the random vectors are
//! drawn up front as by-name sample maps and fed to `rtl::naive`'s
//! simulator.  Controllers, areas and the energy model are shared with
//! [`crate::estimate::gate_level_with_result`], so the two reports are
//! bit-identical exactly when the two simulators produce the same
//! activity.  Compiled only for tests and under the `reference` feature.

use cdfg::Cdfg;
use pmsched::PowerManagementResult;
use rtl::naive::Simulator;

use crate::estimate::{Designs, EstimateError, GateLevelOptions, GateLevelReport};
use crate::vectors::RandomVectors;

/// [`crate::estimate::gate_level_with_result`] on the naive simulator.
///
/// # Errors
///
/// As [`crate::estimate::gate_level_with_result`].
pub fn gate_level_with_result(
    cdfg: &Cdfg,
    result: &PowerManagementResult,
    options: &GateLevelOptions,
) -> Result<GateLevelReport, EstimateError> {
    let designs = Designs::build(cdfg, result, options)?;
    let vectors = RandomVectors::new(cdfg, options.seed).samples(options.samples);
    let mut managed_sim = Simulator::new(result.cdfg(), result.schedule(), &designs.managed)?;
    let mut baseline_sim = Simulator::new(cdfg, result.baseline_schedule(), &designs.baseline)?;
    for sample in &vectors {
        managed_sim.run_sample(sample)?;
        baseline_sim.run_sample(sample)?;
    }
    designs.report(
        cdfg,
        options,
        (managed_sim.activity(), managed_sim.datapath()),
        (baseline_sim.activity(), baseline_sim.datapath()),
    )
}
