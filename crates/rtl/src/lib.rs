//! RTL generation and simulation for the power-management synthesis flow.
//!
//! This crate implements step 12 of the paper's algorithm — "Generate final
//! Datapath and Controller circuits" — together with the infrastructure the
//! paper obtained from Synopsys tools:
//!
//! * [`controller`] — the finite-state-machine controller.  For a
//!   power-managed design the load enables of the registers feeding a
//!   shut-down operation depend on a condition value computed in an earlier
//!   control step; this is the "somewhat more complex" controller the paper
//!   had to write a new routine for,
//! * [`vhdl`] — emission of synthesisable-style VHDL text for the datapath
//!   and controller (the artifact the paper fed to Synopsys Design
//!   Compiler),
//! * [`gates`] — a simple technology mapping model that expands the RTL
//!   into gate-equivalent counts (the Design Compiler area substitute used
//!   for Table III),
//! * [`sim`] — a cycle-accurate register-transfer simulator that executes
//!   the schedule sample by sample, honours the gated enables, checks
//!   functional equivalence against the untimed CDFG semantics and records
//!   switching activity (the DesignPower substitute used for Table III),
//!   compiled once per design into dense per-step programs,
//! * `naive` — the original map-based simulator, compiled under
//!   `cfg(test)` or the `reference` feature as the behavioural reference
//!   the simulator-identity tests compare against.
//!
//! # Example
//!
//! ```
//! use cdfg::{Cdfg, Op};
//! use pmsched::{power_manage, PowerManagementOptions};
//! use rtl::controller::Controller;
//! use rtl::sim::Simulator;
//! use std::collections::BTreeMap;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut g = Cdfg::new("abs_diff");
//! let a = g.add_input("a");
//! let b = g.add_input("b");
//! let gt = g.add_op(Op::Gt, &[a, b])?;
//! let amb = g.add_op(Op::Sub, &[a, b])?;
//! let bma = g.add_op(Op::Sub, &[b, a])?;
//! let m = g.add_mux(gt, bma, amb)?;
//! g.add_output("abs", m)?;
//!
//! let result = power_manage(&g, &PowerManagementOptions::with_latency(3))?;
//! let controller = Controller::generate(&result);
//! let mut sim = Simulator::new(result.cdfg(), result.schedule(), &controller)?;
//! let mut sample = BTreeMap::new();
//! sample.insert("a".to_owned(), 9);
//! sample.insert("b".to_owned(), 4);
//! let outputs = sim.run_sample(&sample)?.outputs;
//! assert_eq!(outputs["abs"], 5);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod controller;
pub mod gates;
#[cfg(any(test, feature = "reference"))]
pub mod naive;
pub mod sim;
pub mod vhdl;

pub use crate::controller::{Controller, GateCondition};
pub use crate::gates::{GateModel, GateReport};
pub use crate::sim::{SampleResult, SimError, Simulator};
