//! Cycle-accurate register-transfer simulation with switching-activity
//! accounting.
//!
//! This is the DesignPower substitute used for Table III: the design is
//! executed sample by sample, control step by control step, honouring the
//! controller's (possibly gated) enables.  For every execution unit the
//! simulator records how often it computed and how many input/output bits
//! toggled; an idle (shut-down) unit holds its previous operand values and
//! contributes no switching that cycle.
//!
//! The simulator also cross-checks every sample against the untimed
//! functional semantics of the CDFG (those of [`cdfg::Cdfg::evaluate`]) —
//! if the shut-down analysis ever disabled an operation whose value was
//! actually needed, the outputs would differ and the run would fail.
//!
//! # The compiled program
//!
//! [`Simulator::new`] compiles the design once into dense arrays indexed
//! by node slot ([`NodeId::index`]):
//!
//! * the timed program: the controller-enabled operations of every control
//!   step, steps in order and node-id order within a step, each holding its
//!   opcode, operand slots (for a multiplexor: select, 0-input, 1-input),
//!   dense unit index, gating terms as `(condition slot, polarity)` pairs
//!   and the offset of its operand/result snapshot;
//! * the untimed reference program: every functional node in topological
//!   order with its operand slots, evaluated every sample as the
//!   functional cross-check.
//!
//! A sample then runs over flat `i64` slot arrays with no map, string or
//! allocation on the way.  A per-slot stamp records which values were
//! computed this sample, so reading a shut-down value is still reported
//! as [`SimError::MissingValue`] (or [`SimError::MissingCondition`] for a
//! gating condition).  The map-based original survives as `rtl::naive`
//! (under `cfg(test)` or the `reference` feature); the identity tests pin
//! this simulator's sample results and activity to it.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::OnceLock;

use binding::{BindError, Datapath, UnitId};
use cdfg::{Cdfg, NodeId, Op};
use sched::Schedule;

use crate::controller::Controller;

/// Errors produced by the RTL simulator.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SimError {
    /// A primary input value is missing from the sample.
    MissingInput(String),
    /// An operation needed a value that was never computed — this indicates
    /// an unsound shut-down decision (or an invalid schedule).
    MissingValue {
        /// The operation that could not execute.
        node: NodeId,
        /// The operand whose value is missing.
        operand: NodeId,
    },
    /// A gated operation's condition had no value when the controller had
    /// to decide the enable: the condition was shut down, never computed,
    /// or is computed later than the operation it gates.  This indicates an
    /// unsound gating decision.
    MissingCondition {
        /// The gated operation.
        node: NodeId,
        /// The condition node whose value is missing.
        condition: NodeId,
    },
    /// The timed execution produced a different result than the untimed
    /// reference semantics.
    Mismatch {
        /// Output name where the difference was observed.
        output: String,
        /// Value produced by the RTL execution.
        rtl: i64,
        /// Value produced by the functional reference.
        reference: i64,
    },
    /// A dense sample does not carry exactly one value per primary input.
    SampleWidth {
        /// Number of primary inputs of the design.
        expected: usize,
        /// Number of values the sample carried.
        found: usize,
    },
    /// The datapath could not be constructed for this schedule.
    Binding(BindError),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::MissingInput(name) => write!(f, "missing value for primary input `{name}`"),
            SimError::MissingValue { node, operand } => {
                write!(f, "operation {node} needs operand {operand} which was shut down or never computed")
            }
            SimError::MissingCondition { node, condition } => {
                write!(
                    f,
                    "operation {node} is gated by condition {condition} which has no value yet"
                )
            }
            SimError::Mismatch { output, rtl, reference } => {
                write!(
                    f,
                    "output `{output}` mismatch: rtl produced {rtl}, reference expects {reference}"
                )
            }
            SimError::SampleWidth { expected, found } => {
                write!(f, "sample carries {found} values for {expected} primary inputs")
            }
            SimError::Binding(e) => write!(f, "datapath binding failed: {e}"),
        }
    }
}

impl std::error::Error for SimError {}

/// Per-unit activity accumulated over a simulation run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct UnitActivity {
    /// Number of control steps in which the unit actually computed.
    pub active_cycles: u64,
    /// Number of control steps in which the unit was scheduled to compute
    /// but was shut down by the controller.
    pub gated_cycles: u64,
    /// Total number of input/output bits that toggled on the unit.
    pub toggled_bits: u64,
}

/// The result of simulating one input sample.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SampleResult {
    /// Primary output values.
    pub outputs: BTreeMap<String, i64>,
    /// Operations that executed this sample.
    pub executed: Vec<NodeId>,
    /// Operations that were shut down this sample.
    pub gated: Vec<NodeId>,
}

/// Unit index of an operation bound to no execution unit.
const NO_UNIT: u32 = u32::MAX;

/// Stamp of primary inputs and constants: valid in every sample.
const ALWAYS: u64 = u64::MAX;

/// One controller-enabled operation of the timed program.
#[derive(Debug, Clone)]
struct TimedOp {
    node: NodeId,
    op: Op,
    /// Range of the operand slots in [`Program::operands`], port order.
    operands: (u32, u32),
    /// Range of the gating terms in [`Program::terms`].
    terms: (u32, u32),
    /// Dense unit index, or [`NO_UNIT`].
    unit: u32,
    /// Offset of the operand/result snapshot in [`Run::snapshots`].
    snapshot: u32,
}

/// One gating term: the operation runs only if the condition slot's value
/// is non-zero exactly when `when_one` is set.
#[derive(Debug, Clone, Copy)]
struct Term {
    slot: u32,
    when_one: bool,
}

/// One functional node of the untimed reference program.
#[derive(Debug, Clone)]
struct ReferenceOp {
    slot: u32,
    op: Op,
    /// Range of the operand slots in [`Program::operands`], port order.
    operands: (u32, u32),
}

/// One primary output.
#[derive(Debug, Clone)]
struct OutputPort {
    node: NodeId,
    name: String,
    /// Slot of the output's driver, in both the timed and the reference
    /// values.
    driver: u32,
}

/// The design compiled once by [`Simulator::new`]; immutable afterwards.
#[derive(Debug, Clone)]
struct Program {
    /// Size of every per-slot array.
    slots: usize,
    /// Input names in the dense sample layout (`Cdfg::inputs` order).
    input_names: Vec<String>,
    /// Primary inputs in node-id order, as `(slot, layout index)`; the
    /// index is that of the last input sharing the name, so duplicated
    /// names read one value exactly like a by-name sample map.
    inputs: Vec<(u32, u32)>,
    /// Constants as `(slot, value)`.
    constants: Vec<(u32, i64)>,
    timed: Vec<TimedOp>,
    reference: Vec<ReferenceOp>,
    operands: Vec<u32>,
    terms: Vec<Term>,
    outputs: Vec<OutputPort>,
    units: usize,
    snapshot_len: usize,
    mask: i64,
}

impl Program {
    fn compile(
        cdfg: &Cdfg,
        schedule: &Schedule,
        controller: &Controller,
        datapath: &Datapath,
    ) -> Self {
        let slot = |n: NodeId| n.index() as u32;
        let mut operands: Vec<u32> = Vec::new();
        let mut push_operands = |node: NodeId| {
            let start = operands.len() as u32;
            operands.extend(cdfg.operands(node).into_iter().map(slot));
            (start, operands.len() as u32)
        };

        let mut timed = Vec::new();
        let mut terms = Vec::new();
        let mut snapshot_len = 0usize;
        for node in schedule.by_step().into_iter().flatten() {
            let Some(enable) = controller.enable(node) else { continue };
            let first_term = terms.len() as u32;
            terms.extend(
                enable
                    .conditions
                    .iter()
                    .map(|c| Term { slot: slot(c.condition), when_one: c.active_when_one }),
            );
            let operands = push_operands(node);
            let unit = datapath.fu_binding().unit_of(node).map_or(NO_UNIT, |u| u.index() as u32);
            timed.push(TimedOp {
                node,
                op: cdfg.op(node),
                operands,
                terms: (first_term, terms.len() as u32),
                unit,
                snapshot: snapshot_len as u32,
            });
            if unit != NO_UNIT {
                snapshot_len += (operands.1 - operands.0) as usize + 1;
            }
        }

        let mut reference = Vec::new();
        let mut constants = Vec::new();
        for &node in cdfg.slices().topo() {
            match cdfg.op(node) {
                Op::Input | Op::Output => {}
                Op::Const(c) => constants.push((slot(node), c)),
                op => reference.push(ReferenceOp {
                    slot: slot(node),
                    op,
                    operands: push_operands(node),
                }),
            }
        }

        let input_names: Vec<String> =
            cdfg.inputs().iter().map(|&n| cdfg.node(n).expect("live input").name.clone()).collect();
        let mut inputs: Vec<(u32, u32)> = cdfg
            .inputs()
            .iter()
            .zip(&input_names)
            .map(|(&n, name)| {
                let last = input_names.iter().rposition(|other| other == name).expect("own name");
                (slot(n), last as u32)
            })
            .collect();
        inputs.sort_unstable();

        // `Cdfg::add_output` rejects duplicate names, so each output is
        // checked against its own driver's reference value.
        let outputs = cdfg
            .outputs()
            .iter()
            .map(|&node| OutputPort {
                node,
                name: cdfg.node(node).expect("live output").name.clone(),
                driver: slot(cdfg.operands(node)[0]),
            })
            .collect();

        // A controller built for another design may name a condition node
        // this one lacks: size the slot arrays past it, so the term reads
        // as never computed instead of indexing out of bounds.
        let slots =
            terms.iter().map(|t| t.slot as usize + 1).fold(cdfg.slices().slot_count(), usize::max);
        let width = cdfg.default_bitwidth();
        Program {
            slots,
            input_names,
            inputs,
            constants,
            timed,
            reference,
            operands,
            terms,
            outputs,
            units: datapath.units().len(),
            snapshot_len,
            mask: if width >= 64 { -1 } else { (1i64 << width) - 1 },
        }
    }
}

/// The mutable state of a simulation run.
#[derive(Debug, Clone)]
struct Run {
    /// Timed values by slot; valid only where `stamps` says so.
    values: Vec<i64>,
    /// Sample number that computed each slot ([`ALWAYS`] for inputs and
    /// constants).
    stamps: Vec<u64>,
    /// Untimed reference values by slot.
    reference: Vec<i64>,
    /// Last operand/result values seen by each unit-bound *operation*
    /// (persists across samples, modelling the operand registers whose
    /// load enables the controller gates; a shut-down operation holds its
    /// previous values).  Starts at zero, which toggles exactly like the
    /// naive simulator's empty first snapshot.
    snapshots: Vec<i64>,
    /// Per-unit activity by dense unit index.
    activity: Vec<UnitActivity>,
    /// The current sample's number; stamps below it are stale.
    epoch: u64,
    /// Scratch operand buffer.
    args: Vec<i64>,
}

/// A cycle-accurate simulator for one scheduled, power-managed design.
#[derive(Debug, Clone)]
pub struct Simulator {
    datapath: Datapath,
    program: Program,
    run: Run,
    samples_run: u64,
    /// [`Simulator::activity`]'s map, built on demand and dropped by every
    /// sample.
    activity_map: OnceLock<BTreeMap<UnitId, UnitActivity>>,
}

impl Simulator {
    /// Builds a simulator for the given design, schedule and controller,
    /// compiling them into the dense program every sample runs.
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
        let program = Program::compile(cdfg, schedule, controller, &datapath);
        let mut run = Run {
            values: vec![0; program.slots],
            stamps: vec![0; program.slots],
            reference: vec![0; program.slots],
            snapshots: vec![0; program.snapshot_len],
            activity: vec![UnitActivity::default(); program.units],
            epoch: 0,
            args: Vec::with_capacity(3),
        };
        for &(slot, value) in &program.constants {
            let slot = slot as usize;
            (run.values[slot], run.reference[slot], run.stamps[slot]) = (value, value, ALWAYS);
        }
        for &(slot, _) in &program.inputs {
            run.stamps[slot as usize] = ALWAYS;
        }
        Ok(Simulator { datapath, program, run, samples_run: 0, activity_map: OnceLock::new() })
    }

    /// The datapath the simulator executes on.
    pub fn datapath(&self) -> &Datapath {
        &self.datapath
    }

    /// Number of samples simulated so far.
    pub fn samples_run(&self) -> u64 {
        self.samples_run
    }

    /// The primary-input names in the order [`Simulator::run_dense`] reads
    /// its values: the order of [`Cdfg::inputs`].
    pub fn input_names(&self) -> &[String] {
        &self.program.input_names
    }

    /// Runs one input sample through the whole schedule and returns the
    /// outputs together with the executed/gated operation sets.
    ///
    /// # Errors
    ///
    /// See [`SimError`]; in particular a [`SimError::Mismatch`],
    /// [`SimError::MissingValue`] or [`SimError::MissingCondition`]
    /// indicates an unsound power-management decision.
    pub fn run_sample(&mut self, inputs: &BTreeMap<String, i64>) -> Result<SampleResult, SimError> {
        let program = &self.program;
        let mut dense = Vec::with_capacity(program.input_names.len());
        for name in &program.input_names {
            match inputs.get(name) {
                Some(&v) => dense.push(v),
                None => {
                    // Report the lowest-id missing input, as a scan of the
                    // graph's nodes would.
                    let &(_, index) = program
                        .inputs
                        .iter()
                        .find(|(_, i)| !inputs.contains_key(&program.input_names[*i as usize]))
                        .expect("a name is missing");
                    return Err(SimError::MissingInput(
                        program.input_names[index as usize].clone(),
                    ));
                }
            }
        }
        let ops = program.timed.len();
        let (mut executed, mut gated) = (Vec::with_capacity(ops), Vec::new());
        self.execute(&dense, Some((&mut executed, &mut gated)))?;
        let outputs = self
            .program
            .outputs
            .iter()
            .map(|o| (o.name.clone(), self.run.values[o.driver as usize]))
            .collect();
        Ok(SampleResult { outputs, executed, gated })
    }

    /// Runs one input sample given as one value per primary input in
    /// [`Simulator::input_names`] order — the layout
    /// `power::RandomVectors::sample_into` fills — without building a
    /// [`SampleResult`].  Activity, checks and errors are exactly those of
    /// [`Simulator::run_sample`] on the same values.
    ///
    /// # Errors
    ///
    /// [`SimError::SampleWidth`] if `inputs` does not hold one value per
    /// primary input; otherwise as [`Simulator::run_sample`].
    pub fn run_dense(&mut self, inputs: &[i64]) -> Result<(), SimError> {
        self.execute(inputs, None)
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

    /// One sample: seed the inputs, run the timed program, run the
    /// reference program and cross-check the outputs.  `record` collects
    /// the executed and gated operations when given.
    fn execute(
        &mut self,
        inputs: &[i64],
        mut record: Option<(&mut Vec<NodeId>, &mut Vec<NodeId>)>,
    ) -> Result<(), SimError> {
        let program = &self.program;
        let run = &mut self.run;
        if inputs.len() != program.input_names.len() {
            return Err(SimError::SampleWidth {
                expected: program.input_names.len(),
                found: inputs.len(),
            });
        }
        self.activity_map = OnceLock::new();
        run.epoch += 1;
        let epoch = run.epoch;
        for &(slot, index) in &program.inputs {
            let value = inputs[index as usize];
            run.values[slot as usize] = value;
            run.reference[slot as usize] = value;
        }

        for op in &program.timed {
            // The gating conjunction over values recorded earlier.
            let mut active = true;
            for term in &program.terms[op.terms.0 as usize..op.terms.1 as usize] {
                let slot = term.slot as usize;
                if run.stamps[slot] < epoch {
                    return Err(SimError::MissingCondition {
                        node: op.node,
                        condition: NodeId::new(term.slot),
                    });
                }
                if (run.values[slot] != 0) != term.when_one {
                    active = false;
                    break;
                }
            }
            if !active {
                if let Some((_, gated)) = record.as_mut() {
                    gated.push(op.node);
                }
                if op.unit != NO_UNIT {
                    run.activity[op.unit as usize].gated_cycles += 1;
                }
                continue;
            }

            let operands = &program.operands[op.operands.0 as usize..op.operands.1 as usize];
            run.args.clear();
            for &operand in operands {
                let slot = operand as usize;
                if run.stamps[slot] >= epoch {
                    run.args.push(run.values[slot]);
                } else if op.op == Op::Mux {
                    // Only the selected data input needs a value; the
                    // other one may have been shut down.
                    run.args.push(0);
                } else {
                    return Err(SimError::MissingValue {
                        node: op.node,
                        operand: NodeId::new(operand),
                    });
                }
            }
            let result = if op.op == Op::Mux {
                let chosen = operands[if run.args[0] != 0 { 2 } else { 1 }];
                if run.stamps[chosen as usize] < epoch {
                    return Err(SimError::MissingValue {
                        node: op.node,
                        operand: NodeId::new(chosen),
                    });
                }
                run.values[chosen as usize]
            } else {
                op.op.eval(&run.args)
            };
            let slot = op.node.index();
            run.values[slot] = result;
            run.stamps[slot] = epoch;
            if let Some((executed, _)) = record.as_mut() {
                executed.push(op.node);
            }

            // Switching accounting on the unit executing this node,
            // restricted to the datapath word width.
            if op.unit != NO_UNIT {
                let start = op.snapshot as usize;
                let snapshot = &mut run.snapshots[start..start + run.args.len() + 1];
                let mut toggles = 0u64;
                for (held, &value) in snapshot.iter_mut().zip(run.args.iter().chain([&result])) {
                    let value = value & program.mask;
                    toggles += u64::from((*held ^ value).count_ones());
                    *held = value;
                }
                let activity = &mut run.activity[op.unit as usize];
                activity.active_cycles += 1;
                activity.toggled_bits += toggles;
            }
        }

        // The untimed reference semantics, then the output cross-check.
        for op in &program.reference {
            run.args.clear();
            run.args.extend(
                program.operands[op.operands.0 as usize..op.operands.1 as usize]
                    .iter()
                    .map(|&s| run.reference[s as usize]),
            );
            run.reference[op.slot as usize] = op.op.eval(&run.args);
        }
        for output in &program.outputs {
            if run.stamps[output.driver as usize] < epoch {
                return Err(SimError::MissingValue {
                    node: output.node,
                    operand: NodeId::new(output.driver),
                });
            }
            let value = run.values[output.driver as usize];
            let expect = run.reference[output.driver as usize];
            if value != expect {
                return Err(SimError::Mismatch {
                    output: output.name.clone(),
                    rtl: value,
                    reference: expect,
                });
            }
        }

        self.samples_run += 1;
        Ok(())
    }

    /// Accumulated per-unit activity, keyed by every unit that was active
    /// or gated at least once.
    pub fn activity(&self) -> &BTreeMap<UnitId, UnitActivity> {
        self.activity_map.get_or_init(|| {
            (0u32..)
                .zip(&self.run.activity)
                .filter(|(_, a)| a.active_cycles + a.gated_cycles > 0)
                .map(|(unit, a)| (UnitId::new(unit), a.clone()))
                .collect()
        })
    }

    /// Total toggled bits across all units (the raw switching count).
    pub fn total_toggled_bits(&self) -> u64 {
        self.run.activity.iter().map(|a| a.toggled_bits).sum()
    }

    /// Total unit-cycles that were gated off.
    pub fn total_gated_cycles(&self) -> u64 {
        self.run.activity.iter().map(|a| a.gated_cycles).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::{GateCondition, OperationEnable};
    use pmsched::{power_manage, PowerManagementOptions};

    fn abs_diff() -> Cdfg {
        let mut g = Cdfg::new("abs_diff");
        let a = g.add_input("a");
        let b = g.add_input("b");
        let gt = g.add_op(Op::Gt, &[a, b]).unwrap();
        let amb = g.add_op(Op::Sub, &[a, b]).unwrap();
        let bma = g.add_op(Op::Sub, &[b, a]).unwrap();
        let m = g.add_mux(gt, bma, amb).unwrap();
        g.add_output("abs", m).unwrap();
        g
    }

    fn sample(a: i64, b: i64) -> BTreeMap<String, i64> {
        let mut s = BTreeMap::new();
        s.insert("a".to_owned(), a);
        s.insert("b".to_owned(), b);
        s
    }

    fn simulator(latency: u32) -> Simulator {
        let g = abs_diff();
        let result = power_manage(&g, &PowerManagementOptions::with_latency(latency)).unwrap();
        let controller = Controller::generate(&result);
        Simulator::new(result.cdfg(), result.schedule(), &controller).unwrap()
    }

    #[test]
    fn outputs_match_reference_for_both_branches() {
        let mut sim = simulator(3);
        assert_eq!(sim.run_sample(&sample(9, 4)).unwrap().outputs["abs"], 5);
        assert_eq!(sim.run_sample(&sample(4, 9)).unwrap().outputs["abs"], 5);
        assert_eq!(sim.run_sample(&sample(7, 7)).unwrap().outputs["abs"], 0);
        assert_eq!(sim.samples_run(), 3);
    }

    #[test]
    fn managed_design_gates_one_subtraction_per_sample() {
        let mut sim = simulator(3);
        let r = sim.run_sample(&sample(9, 4)).unwrap();
        assert_eq!(r.gated.len(), 1, "exactly one subtraction is shut down");
        let r = sim.run_sample(&sample(4, 9)).unwrap();
        assert_eq!(r.gated.len(), 1);
        assert!(sim.total_gated_cycles() >= 2);
    }

    #[test]
    fn unmanaged_design_gates_nothing_and_toggles_more() {
        let mut managed = simulator(3);
        let mut unmanaged = simulator(2);
        for i in 0..50i64 {
            let s = sample((i * 37) % 256, (i * 91) % 256);
            managed.run_sample(&s).unwrap();
            unmanaged.run_sample(&s).unwrap();
        }
        assert_eq!(unmanaged.total_gated_cycles(), 0);
        assert!(managed.total_gated_cycles() >= 50);
        // The managed design executes fewer operations, so it toggles fewer
        // bits on its subtractor units overall.
        assert!(managed.total_toggled_bits() < unmanaged.total_toggled_bits() * 2);
    }

    #[test]
    fn missing_input_is_reported() {
        let mut sim = simulator(3);
        let err = sim.run_sample(&BTreeMap::new()).unwrap_err();
        assert!(matches!(err, SimError::MissingInput(_)));
    }

    #[test]
    fn wide_values_still_match_the_reference() {
        let mut sim = simulator(3);
        // Word-level values match the untimed reference exactly; only the
        // switching-activity accounting is restricted to the 8-bit width.
        let r = sim.run_sample(&sample(300, 10)).unwrap();
        assert_eq!(r.outputs["abs"], 290);
        assert!(sim.total_toggled_bits() > 0);
    }

    #[test]
    fn dense_and_map_samples_match_the_naive_simulator() {
        let g = abs_diff();
        for latency in [2, 3, 4] {
            let result = power_manage(&g, &PowerManagementOptions::with_latency(latency)).unwrap();
            let controller = Controller::generate(&result);
            let (cdfg, schedule) = (result.cdfg(), result.schedule());
            let mut naive = crate::naive::Simulator::new(cdfg, schedule, &controller).unwrap();
            let mut mapped = Simulator::new(cdfg, schedule, &controller).unwrap();
            let mut dense = Simulator::new(cdfg, schedule, &controller).unwrap();
            assert_eq!(dense.input_names(), ["a".to_owned(), "b".to_owned()]);
            for i in 0..64i64 {
                let (a, b) = ((i * 37) % 300, (i * 91) % 256);
                let expected = naive.run_sample(&sample(a, b)).unwrap();
                assert_eq!(mapped.run_sample(&sample(a, b)).unwrap(), expected);
                dense.run_dense(&[a, b]).unwrap();
            }
            for sim in [&mapped, &dense] {
                assert_eq!(sim.activity(), naive.activity(), "latency {latency}");
                assert_eq!(sim.total_toggled_bits(), naive.total_toggled_bits());
                assert_eq!(sim.total_gated_cycles(), naive.total_gated_cycles());
                assert_eq!(sim.samples_run(), naive.samples_run());
            }
        }
    }

    #[test]
    fn duplicate_input_names_read_one_value_like_the_naive_simulator() {
        // A by-name sample holds one value per name, so both `x` inputs
        // read it; a dense sample reads the last `x` slot for both.
        let mut g = Cdfg::new("dup");
        let x0 = g.add_input("x");
        let y = g.add_input("y");
        let x1 = g.add_input("x");
        let s0 = g.add_op(Op::Sub, &[x0, y]).unwrap();
        let s1 = g.add_op(Op::Add, &[s0, x1]).unwrap();
        g.add_output("o", s1).unwrap();
        let result = power_manage(&g, &PowerManagementOptions::with_latency(2)).unwrap();
        let controller = Controller::generate(&result);
        let (cdfg, schedule) = (result.cdfg(), result.schedule());
        let mut naive = crate::naive::Simulator::new(cdfg, schedule, &controller).unwrap();
        let mut mapped = Simulator::new(cdfg, schedule, &controller).unwrap();
        let mut dense = Simulator::new(cdfg, schedule, &controller).unwrap();
        let by_name = BTreeMap::from([("x".to_owned(), 7), ("y".to_owned(), 2)]);
        let expected = naive.run_sample(&by_name).unwrap();
        assert_eq!(expected.outputs["o"], 12);
        assert_eq!(mapped.run_sample(&by_name).unwrap(), expected);
        dense.run_dense(&[100, 2, 7]).unwrap();
        assert_eq!(dense.activity(), naive.activity());
    }

    #[test]
    fn dense_sample_of_the_wrong_width_is_rejected() {
        let mut sim = simulator(3);
        let err = sim.run_dense(&[1]).unwrap_err();
        assert_eq!(err, SimError::SampleWidth { expected: 2, found: 1 });
        assert_eq!(sim.samples_run(), 0);
        assert!(sim.activity().is_empty());
    }

    #[test]
    fn condition_never_computed_is_a_typed_error() {
        // A hand-built controller gates both subtractions on the
        // comparison but never enables the comparison itself, so the
        // condition has no value when the subtractions are decided.
        let g = abs_diff();
        let [gt, amb, bma, m] = [2, 3, 4, 5].map(NodeId::new);
        let mut schedule = Schedule::new(3);
        for (node, step) in [(gt, 1), (amb, 2), (bma, 2), (m, 3)] {
            schedule.assign(node, step);
        }
        let gate = |node, active_when_one| OperationEnable {
            node,
            step: 2,
            conditions: vec![GateCondition { mux: m, condition: gt, active_when_one }],
        };
        let controller = Controller::from_enables(
            3,
            [
                gate(amb, true),
                gate(bma, false),
                OperationEnable { node: m, step: 3, conditions: vec![] },
            ],
        );
        let mut sim = Simulator::new(&g, &schedule, &controller).unwrap();
        let err = sim.run_sample(&sample(4, 9)).unwrap_err();
        assert_eq!(err, SimError::MissingCondition { node: amb, condition: gt });
        assert!(err.to_string().contains("condition n2"), "{err}");
        // The naive reference reads the missing condition as zero and
        // silently passes on this sample.
        let mut naive = crate::naive::Simulator::new(&g, &schedule, &controller).unwrap();
        assert_eq!(naive.run_sample(&sample(4, 9)).unwrap().outputs["abs"], 5);
    }

    #[test]
    fn unsound_gating_fails_exactly_like_the_naive_simulator() {
        let g = abs_diff();
        let [b, gt, amb, bma, m] = [1, 2, 3, 4, 5].map(NodeId::new);
        let mut schedule = Schedule::new(3);
        for (node, step) in [(gt, 1), (amb, 2), (bma, 2), (m, 3)] {
            schedule.assign(node, step);
        }
        let enable = |node, step, conditions| OperationEnable { node, step, conditions };
        let when =
            |condition, active_when_one| GateCondition { mux: m, condition, active_when_one };
        // Both subtractions gated with swapped polarities: the mux selects
        // the one that was shut down.
        let swapped = Controller::from_enables(
            3,
            [
                enable(gt, 1, vec![]),
                enable(amb, 2, vec![when(gt, false)]),
                enable(bma, 2, vec![when(gt, true)]),
                enable(m, 3, vec![]),
            ],
        );
        // The comparison shut down whenever `b` is non-zero: the mux reads
        // no select, takes its 0-input and produces b - a.
        let no_select = Controller::from_enables(
            3,
            [
                enable(gt, 1, vec![when(b, false)]),
                enable(amb, 2, vec![]),
                enable(bma, 2, vec![]),
                enable(m, 3, vec![]),
            ],
        );
        let cases = [
            (swapped, SimError::MissingValue { node: m, operand: amb }),
            (no_select, SimError::Mismatch { output: "abs".to_owned(), rtl: -5, reference: 5 }),
        ];
        for (controller, expected) in cases {
            let build = || Simulator::new(&g, &schedule, &controller).unwrap();
            let (mut mapped, mut dense) = (build(), build());
            let mut naive = crate::naive::Simulator::new(&g, &schedule, &controller).unwrap();
            assert_eq!(naive.run_sample(&sample(9, 4)).unwrap_err(), expected);
            assert_eq!(mapped.run_sample(&sample(9, 4)).unwrap_err(), expected);
            assert_eq!(dense.run_dense(&[9, 4]).unwrap_err(), expected);
            for sim in [&mapped, &dense] {
                assert_eq!(sim.activity(), naive.activity(), "activity up to the failure");
                assert_eq!(sim.samples_run(), 0);
            }
        }
    }

    #[test]
    fn binding_failure_keeps_its_type_and_text() {
        let g = abs_diff();
        let mut schedule = Schedule::new(2);
        schedule.assign(NodeId::new(2), 1);
        let controller = Controller::ungated(&g, &schedule);
        let err = Simulator::new(&g, &schedule, &controller).unwrap_err();
        let bind = binding::BindError::UnscheduledNode(NodeId::new(3));
        assert_eq!(err.to_string(), format!("datapath binding failed: {bind}"));
        assert_eq!(err, SimError::Binding(bind));
    }

    #[test]
    fn run_samples_batches() {
        let mut sim = simulator(3);
        let batch: Vec<_> = (0..10).map(|i| sample(i, 10 - i)).collect();
        let results = sim.run_samples(&batch).unwrap();
        assert_eq!(results.len(), 10);
    }
}
