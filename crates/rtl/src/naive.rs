//! The original map-based RTL simulator, retained as a reference
//! implementation.
//!
//! This is the simulator the repository shipped before the compiled rewrite
//! in [`crate::sim`]: every sample allocates a `BTreeMap` of node values,
//! looks inputs up by name, rescans the schedule once per control step,
//! rebuilds each operation's operand list, keeps activity and operand
//! snapshots in maps and re-runs [`Cdfg::evaluate`] as the functional
//! cross-check.  It is compiled only for tests and under the `reference`
//! feature, where it pins the compiled simulator's behaviour: the
//! simulator-identity property tests assert the two produce equal sample
//! results, equal activity and bit-identical gate-level reports.
//!
//! The code is kept as it was, with one typed change shared with the
//! compiled simulator: a binding failure carries the
//! [`binding::BindError`] itself.  One behaviour deliberately differs:
//! here a gating condition with no value this sample reads as zero, where
//! the compiled simulator reports [`SimError::MissingCondition`].

use std::collections::BTreeMap;

use binding::Datapath;
use cdfg::{Cdfg, NodeId, Op};
use sched::Schedule;

use crate::controller::Controller;
use crate::sim::{SampleResult, SimError, UnitActivity};

/// The original map-based cycle-accurate simulator (see the module docs).
#[derive(Debug, Clone)]
pub struct Simulator {
    cdfg: Cdfg,
    schedule: Schedule,
    controller: Controller,
    datapath: Datapath,
    mask: i64,
    /// Last operand/result values seen by each *operation* (persists across
    /// samples, modelling the operand registers whose load enables the
    /// controller gates; a shut-down operation holds its previous values).
    op_state: BTreeMap<NodeId, Vec<i64>>,
    activity: BTreeMap<binding::UnitId, UnitActivity>,
    samples_run: u64,
}

impl Simulator {
    /// Builds a simulator for the given design, schedule and controller.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Binding`] when the datapath cannot be built (e.g.
    /// the schedule is incomplete).
    pub fn new(
        cdfg: &Cdfg,
        schedule: &Schedule,
        controller: &Controller,
    ) -> Result<Self, SimError> {
        let datapath = Datapath::build(cdfg, schedule).map_err(SimError::Binding)?;
        let mask =
            if cdfg.default_bitwidth() >= 64 { -1 } else { (1i64 << cdfg.default_bitwidth()) - 1 };
        Ok(Simulator {
            cdfg: cdfg.clone(),
            schedule: schedule.clone(),
            controller: controller.clone(),
            datapath,
            mask,
            op_state: BTreeMap::new(),
            activity: BTreeMap::new(),
            samples_run: 0,
        })
    }

    /// The datapath the simulator executes on.
    pub fn datapath(&self) -> &Datapath {
        &self.datapath
    }

    /// Number of samples simulated so far.
    pub fn samples_run(&self) -> u64 {
        self.samples_run
    }

    /// Runs one input sample through the whole schedule and returns the
    /// outputs together with the executed/gated operation sets.
    ///
    /// # Errors
    ///
    /// See [`SimError`]; in particular a [`SimError::Mismatch`] or
    /// [`SimError::MissingValue`] indicates an unsound power-management
    /// decision.
    pub fn run_sample(&mut self, inputs: &BTreeMap<String, i64>) -> Result<SampleResult, SimError> {
        // Seed values: primary inputs and constants.  Values are kept at
        // full word precision so the timed execution matches the untimed
        // reference semantics exactly; the datapath bitwidth only affects
        // the switching-activity accounting below.
        let mut values: BTreeMap<NodeId, i64> = BTreeMap::new();
        for (node, data) in self.cdfg.iter_nodes() {
            match data.op {
                Op::Input => {
                    let v = *inputs
                        .get(&data.name)
                        .ok_or_else(|| SimError::MissingInput(data.name.clone()))?;
                    values.insert(node, v);
                }
                Op::Const(c) => {
                    values.insert(node, c);
                }
                _ => {}
            }
        }

        let mut executed = Vec::new();
        let mut gated = Vec::new();

        for step in 1..=self.schedule.num_steps() {
            // Deterministic order within the step.
            for node in self.schedule.nodes_in_step(step) {
                let Some(enable) = self.controller.enable(node) else { continue };
                // Evaluate the gating conjunction using values recorded in
                // earlier steps.
                let mut active = true;
                for cond in &enable.conditions {
                    let cond_value = values.get(&cond.condition).copied().unwrap_or(0) != 0;
                    if cond_value != cond.active_when_one {
                        active = false;
                        break;
                    }
                }
                if !active {
                    gated.push(node);
                    if let Some(unit) = self.datapath.fu_binding().unit_of(node) {
                        self.activity.entry(unit).or_default().gated_cycles += 1;
                    }
                    continue;
                }

                // Gather operand values.
                let operands = self.cdfg.operands(node);
                let mut args = Vec::with_capacity(operands.len());
                for operand in &operands {
                    match values.get(operand) {
                        Some(&v) => args.push(v),
                        None => {
                            // The mux is special: only the selected data
                            // input needs a value (the other one may have
                            // been shut down).
                            if self.cdfg.op(node) == Op::Mux {
                                args.push(0);
                            } else {
                                return Err(SimError::MissingValue { node, operand: *operand });
                            }
                        }
                    }
                }
                let result = if self.cdfg.op(node) == Op::Mux {
                    // Re-read the selected input explicitly so a missing
                    // discarded input cannot corrupt the result.
                    let select = args[0];
                    let chosen = if select != 0 { operands[2] } else { operands[1] };
                    match values.get(&chosen) {
                        Some(&v) => v,
                        None => return Err(SimError::MissingValue { node, operand: chosen }),
                    }
                } else {
                    self.cdfg.op(node).eval(&args)
                };
                values.insert(node, result);
                executed.push(node);

                // Switching accounting on the unit executing this node,
                // restricted to the datapath word width.
                if let Some(unit) = self.datapath.fu_binding().unit_of(node) {
                    let mut snapshot: Vec<i64> = args.iter().map(|v| v & self.mask).collect();
                    snapshot.push(result & self.mask);
                    let entry = self.activity.entry(unit).or_default();
                    entry.active_cycles += 1;
                    let previous = self.op_state.entry(node).or_default();
                    let toggles = hamming(previous, &snapshot);
                    entry.toggled_bits += toggles;
                    *previous = snapshot;
                }
            }
        }

        // Collect and cross-check outputs.
        let reference = self.cdfg.evaluate(inputs);
        let mut outputs = BTreeMap::new();
        for &out in self.cdfg.outputs() {
            let name = self.cdfg.node(out).expect("live output").name.clone();
            let driver = self.cdfg.operands(out)[0];
            let value = values
                .get(&driver)
                .copied()
                .ok_or(SimError::MissingValue { node: out, operand: driver })?;
            let expect = reference[&name];
            if value != expect {
                return Err(SimError::Mismatch { output: name, rtl: value, reference: expect });
            }
            outputs.insert(name, value);
        }

        self.samples_run += 1;
        Ok(SampleResult { outputs, executed, gated })
    }

    /// Runs a batch of samples, returning the per-sample results.
    ///
    /// # Errors
    ///
    /// Stops at the first failing sample.
    pub fn run_samples(
        &mut self,
        samples: &[BTreeMap<String, i64>],
    ) -> Result<Vec<SampleResult>, SimError> {
        samples.iter().map(|s| self.run_sample(s)).collect()
    }

    /// Accumulated per-unit activity.
    pub fn activity(&self) -> &BTreeMap<binding::UnitId, UnitActivity> {
        &self.activity
    }

    /// Total toggled bits across all units (the raw switching count).
    pub fn total_toggled_bits(&self) -> u64 {
        self.activity.values().map(|a| a.toggled_bits).sum()
    }

    /// Total unit-cycles that were gated off.
    pub fn total_gated_cycles(&self) -> u64 {
        self.activity.values().map(|a| a.gated_cycles).sum()
    }
}

/// Bit-difference between two value snapshots (shorter snapshots are
/// zero-extended).
fn hamming(old: &[i64], new: &[i64]) -> u64 {
    let len = old.len().max(new.len());
    let mut toggles = 0u64;
    for i in 0..len {
        let a = old.get(i).copied().unwrap_or(0);
        let b = new.get(i).copied().unwrap_or(0);
        toggles += (a ^ b).count_ones() as u64;
    }
    toggles
}
