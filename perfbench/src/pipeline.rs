//! The `walk` and `gate` workloads: one cold `Engine::run` on a fresh
//! `Engine` per op.
//!
//! Circuits are the paper's four plus generated ones drawn from `gen` at the
//! run's seed.  `walk` sweeps each circuit across budgets cp..=cp+8 under
//! each scheduler and reorder setting, so scheduling dominates; `gate` runs
//! one budget per circuit with gate-level simulation, so binding, RTL
//! simulation and power estimation dominate.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use binding::Datapath;
use cdfg::Cdfg;
use circuits::Benchmark;
use engine::{BudgetPolicy, Engine, Scenario, SchedulerKind, SweepPlan, SweepRecord, SweepReport};
use gen::{Family, GenSpec};
use pmsched::algorithm::power_manage_reordered;
use pmsched::{
    power_manage, MuxOrder, OpWeights, PowerManagementOptions, PowerManagementResult,
    SelectProbabilities,
};
use power::{gate_level_with_result, GateLevelOptions, RandomVectors};
use rtl::{Controller, GateModel, Simulator};
use sched::hyper::{self, HyperOptions};
use sched::{force, ResourceConstraint};

use crate::measure::Workload;
use crate::trace::Tracer;

/// Budgets above the critical path a `walk` op sweeps.
const WALK_SPAN: u32 = 8;
/// Budget above the critical path a `gate` op runs at.
const GATE_SLACK: u32 = 2;
/// Random vectors each `gate` op simulates on both designs.
const GATE_SAMPLES: usize = 1000;
/// Circuits `walk` draws from each random-DAG family.  One 262-node DAG's
/// walk costs anywhere from 130 to 230 ms depending on the seed; averaging
/// three keeps a run's totals comparable from seed to seed.
pub const WALK_DAGS: usize = 3;
/// The engine's exhaustive reordering limit: every mux permutation is tried
/// for designs with at most this many multiplexors.
const REORDER_EXHAUSTIVE_LIMIT: usize = 5;

/// The generated circuit families of both workloads: mux trees (the paper's
/// sweet spot), a DSP chain, and random DAGs of two sizes, so the force
/// kernel's growth with circuit size shows.  Random-DAG families hold
/// `dags` circuits each, the others one.
///
/// Larger DAGs are left out: a 520-node DAG's walk costs 0.5 to 1.2 s
/// depending on the seed, which no affordable number of copies averages
/// out, and cordic's 48-step budgets already show how the kernel grows.
fn gen_specs(seed: u64, dags: usize) -> Vec<GenSpec> {
    let mut specs = Vec::new();
    for depth in [2, 4] {
        let mut spec = GenSpec::new(Family::MuxTree, seed, 1);
        spec.depth = depth;
        specs.push(spec);
    }
    let mut dsp = GenSpec::new(Family::DspChain, seed, 1);
    dsp.taps = 8;
    specs.push(dsp);
    for (width, depth) in [(6, 8), (12, 16)] {
        let mut spec = GenSpec::new(Family::RandomDag, seed, dags);
        spec.width = width;
        spec.depth = depth;
        specs.push(spec);
    }
    specs
}

/// The generated circuits at `seed`, `dags` per random-DAG family.
///
/// # Errors
///
/// Returns the generator's message if a spec fails.
pub fn generated(seed: u64, dags: usize) -> Result<Vec<Benchmark>, String> {
    let mut benches = Vec::new();
    for spec in gen_specs(seed, dags) {
        benches.extend(gen::generate(&spec).map_err(|e| e.to_string())?);
    }
    Ok(benches)
}

/// The circuits of a workload at `seed`: the paper's four, then the
/// generated ones, `dags` per random-DAG family.
///
/// # Errors
///
/// Returns the generator's message if a spec fails.
pub fn circuits(seed: u64, dags: usize) -> Result<Vec<Benchmark>, String> {
    let mut benches = circuits::all_benchmarks();
    benches.extend(generated(seed, dags)?);
    Ok(benches)
}

/// One op: a plan over one circuit.
struct Op {
    label: String,
    cdfg: Cdfg,
    /// Generated circuits must be registered on the fresh engine; the
    /// paper's are preloaded by `Engine::new`.
    generated: bool,
    scheduler: SchedulerKind,
    reorder: bool,
    /// The budgets the plan expands to.
    budgets: Vec<u32>,
    plan: SweepPlan,
}

/// A workload of cold engine runs.
pub struct Pipeline {
    ops: Vec<Op>,
    /// Each op's naive-reference metrics by budget.
    expected: Vec<Result<BTreeMap<u32, Expected>, String>>,
    /// Each op's first output that matched the naive references; later
    /// passes must repeat it exactly.
    reference: Vec<Option<Vec<SweepRecord>>>,
}

impl Pipeline {
    fn new(ops: Vec<Op>) -> Self {
        let reference = vec![None; ops.len()];
        let expected = vec![Err("naive references not prepared".to_owned()); ops.len()];
        Pipeline { ops, expected, reference }
    }

    /// The `walk` workload: every circuit × budgets cp..=cp+8 × scheduler ×
    /// reorder setting, one op per (circuit, scheduler, reorder).
    ///
    /// # Errors
    ///
    /// Returns generator or plan errors.
    pub fn walk(benches: &[Benchmark]) -> Result<Self, String> {
        let mut ops = Vec::new();
        for bench in benches {
            let cp = bench.cdfg.critical_path_length();
            for scheduler in [SchedulerKind::ForceDirected, SchedulerKind::List] {
                for reorder in [false, true] {
                    let scenario = Scenario::new(bench.name.as_str(), cp + WALK_SPAN)
                        .scheduler(scheduler)
                        .reorder(reorder);
                    let plan = SweepPlan::builder()
                        .scenarios([scenario])
                        .budget_policy(BudgetPolicy::FullRange)
                        .build()
                        .map_err(|e| e.to_string())?;
                    ops.push(Op {
                        label: format!("{} {} reorder={reorder}", bench.name, scheduler.label()),
                        cdfg: bench.cdfg.clone(),
                        generated: bench.name.starts_with("gen-"),
                        scheduler,
                        reorder,
                        budgets: (cp..=cp + WALK_SPAN).collect(),
                        plan,
                    });
                }
            }
        }
        Ok(Pipeline::new(ops))
    }

    /// The `gate` workload: each circuit at budget cp+2, force-directed,
    /// with gate-level simulation of 1000 vectors drawn from `seed`.
    ///
    /// # Errors
    ///
    /// Returns plan errors.
    pub fn gate(benches: &[Benchmark], seed: u64) -> Result<Self, String> {
        let mut ops = Vec::new();
        for bench in benches {
            let budget = bench.cdfg.critical_path_length() + GATE_SLACK;
            let plan = SweepPlan::builder()
                .case(bench.name.as_str(), budget)
                .gate_level(GATE_SAMPLES, seed)
                .build()
                .map_err(|e| e.to_string())?;
            ops.push(Op {
                label: format!("{} @{budget} gate-level", bench.name),
                cdfg: bench.cdfg.clone(),
                generated: bench.name.starts_with("gen-"),
                scheduler: SchedulerKind::ForceDirected,
                reorder: false,
                budgets: vec![budget],
                plan,
            });
        }
        Ok(Pipeline::new(ops))
    }

    fn fresh_engine(&self, op: usize) -> Engine {
        let mut engine = Engine::new();
        if self.ops[op].generated {
            engine.register_circuit(self.ops[op].cdfg.clone());
        }
        engine
    }

    /// Replays the public calls `Engine::run` made for `record` as children
    /// of `root`, checking that they reproduce the record.
    fn replay(
        &self,
        op: usize,
        record: &SweepRecord,
        root: usize,
        t: &mut Tracer,
    ) -> Result<(), String> {
        let cdfg = &self.ops[op].cdfg;
        let scenario = &record.scenario;
        let Some(metrics) = record.metrics() else { return Ok(()) };
        let latency = scenario.effective_latency();
        let resources = match scenario.scheduler {
            SchedulerKind::ForceDirected => ResourceConstraint::Unlimited,
            SchedulerKind::List => {
                let (_, minimum) = t.span("sched.minimum_resources", Some(root), || {
                    hyper::minimum_resources(cdfg, latency)
                });
                ResourceConstraint::Limited(minimum.map_err(|e| e.to_string())?)
            }
        };
        let options = PowerManagementOptions::with_resources(latency, resources.clone());
        let (core, result) = if scenario.reorder {
            t.span("core.reorder", Some(root), || {
                power_manage_reordered(cdfg, &options, REORDER_EXHAUSTIVE_LIMIT)
            })
        } else {
            t.span("core.power_manage", Some(root), || power_manage(cdfg, &options))
        };
        let result = result.map_err(|e| e.to_string())?;
        if result.managed_mux_count() != metrics.pm_muxes
            || result.schedule().num_steps() != metrics.schedule_steps
        {
            return Err(format!("replayed scheduling diverged from the op at {scenario:?}"));
        }

        // The schedules power management ran inside: the baseline on the
        // input and the final one on the constrained graph, once per
        // candidate order, sharing one workspace as the real calls do.
        let candidates =
            if scenario.reorder { reorder_candidates(cdfg.mux_nodes().len()) } else { 1 };
        if scenario.reorder {
            t.count("core.reorder_candidates", candidates as f64);
        }
        let hyper_options = HyperOptions::with_resources(latency, resources);
        let mut ws = force::Workspace::new();
        for _ in 0..candidates {
            for graph in [cdfg, result.cdfg()] {
                let (_, schedule) = t.span("sched.schedule", Some(core), || {
                    hyper::schedule_with_workspace(graph, &hyper_options, &mut ws)
                });
                schedule.map_err(|e| e.to_string())?;
            }
        }

        if let (Some(spec), Some(gate)) = (self.ops[op].plan.gate_level(), &metrics.gate) {
            replay_gate_level(cdfg, &result, latency, spec, root, t)?;
            if gate.samples != spec.samples {
                return Err(format!("op simulated {} samples, not {}", gate.samples, spec.samples));
            }
        }
        Ok(())
    }

    /// Computes every op's expected metrics from the naive references, on
    /// all cores, before anything is measured.  The plain and reordered ops
    /// of one circuit and scheduler share their naive runs.
    ///
    /// # Errors
    ///
    /// Never: a reference that cannot be computed fails its ops' checks.
    pub fn prepare_references(&mut self) -> Result<(), String> {
        let mut groups: Vec<Vec<usize>> = Vec::new();
        for op in 0..self.ops.len() {
            let same = |g: &Vec<usize>| {
                let first = &self.ops[g[0]];
                first.cdfg.name() == self.ops[op].cdfg.name()
                    && first.scheduler == self.ops[op].scheduler
            };
            match groups.iter_mut().find(|g| same(g)) {
                Some(group) => group.push(op),
                None => groups.push(vec![op]),
            }
        }
        // Largest circuits first, so the last group to finish is a small one.
        groups.sort_by_key(|g| std::cmp::Reverse(self.ops[g[0]].cdfg.node_count()));
        let threads = std::thread::available_parallelism().map_or(1, usize::from);
        let next = AtomicUsize::new(0);
        let results: Vec<Mutex<Option<NaiveGroup>>> =
            groups.iter().map(|_| Mutex::new(None)).collect();
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| loop {
                    let g = next.fetch_add(1, Ordering::Relaxed);
                    let Some(group) = groups.get(g) else { break };
                    let op = &self.ops[group[0]];
                    let reorder = group.iter().any(|&i| self.ops[i].reorder);
                    let naive = naive_group(&op.cdfg, op.scheduler, &op.budgets, reorder);
                    *results[g].lock().expect("no verifier panics holding the lock") = Some(naive);
                });
            }
        });
        for (group, result) in groups.iter().zip(results) {
            let result = result.into_inner().expect("verifiers finished").expect("every group ran");
            for &op in group {
                self.expected[op] = match &result {
                    Ok(by_budget) => Ok(by_budget
                        .iter()
                        .map(|(&b, &(plain, best))| {
                            (b, if self.ops[op].reorder { best } else { plain })
                        })
                        .collect()),
                    Err(why) => Err(why.clone()),
                };
            }
        }
        Ok(())
    }
}

/// What the naive references give for one scenario: (schedule steps,
/// managed muxes, accepted muxes, control edges, datapath power reduction).
type Expected = (u32, usize, usize, usize, f64);

/// Per budget, the naive expectation without and with mux reordering.
type NaiveGroup = Result<BTreeMap<u32, (Expected, Expected)>, String>;

fn expected_of(result: &PowerManagementResult) -> Expected {
    (
        result.schedule().num_steps(),
        result.managed_mux_count(),
        result.accepted_muxes().len(),
        result.control_edge_count(),
        reduction(result),
    )
}

/// Runs `pmsched::naive::power_manage` for one circuit and scheduler at
/// every budget, over every candidate mux order when `reorder` is set, and
/// checks each chosen force-directed schedule against `sched::naive`.
fn naive_group(
    cdfg: &Cdfg,
    scheduler: SchedulerKind,
    budgets: &[u32],
    reorder: bool,
) -> NaiveGroup {
    let muxes = cdfg.mux_nodes();
    let mut orders = vec![MuxOrder::OutputsFirst];
    if reorder {
        orders.extend([MuxOrder::BySavings, MuxOrder::InputsFirst]);
        if muxes.len() > 1 && muxes.len() <= REORDER_EXHAUSTIVE_LIMIT {
            orders.extend(permutations(&muxes).into_iter().map(MuxOrder::Explicit));
        }
    }
    let mut out = BTreeMap::new();
    for &latency in budgets {
        let options = match scheduler {
            SchedulerKind::ForceDirected => PowerManagementOptions::with_latency(latency),
            SchedulerKind::List => PowerManagementOptions::with_resources(
                latency,
                ResourceConstraint::Limited(
                    hyper::minimum_resources(cdfg, latency).map_err(|e| e.to_string())?,
                ),
            ),
        };
        let mut plain: Option<PowerManagementResult> = None;
        let mut best: Option<PowerManagementResult> = None;
        for order in &orders {
            let run = pmsched::naive::power_manage(cdfg, &options.clone().mux_order(order.clone()))
                .map_err(|e| format!("pmsched::naive at {latency}: {e}"))?;
            // Ties go to the earlier candidate, as in `power_manage_reordered`.
            if best.as_ref().map_or(true, |b| reduction(&run) > reduction(b) + 1e-9) {
                best = Some(run.clone());
            }
            plain.get_or_insert(run);
        }
        let plain = plain.expect("the outputs-first order always runs");
        let best = best.expect("the outputs-first order always runs");
        if scheduler == SchedulerKind::ForceDirected {
            for result in [&plain, &best] {
                let naive = sched::naive::schedule(result.cdfg(), latency)
                    .map_err(|e| format!("sched::naive at {latency}: {e}"))?;
                if &naive != result.schedule() {
                    return Err(format!("force schedule differs from sched::naive at {latency}"));
                }
                if reduction(&plain) == reduction(&best) && plain.schedule() == best.schedule() {
                    break;
                }
            }
        }
        out.insert(latency, (expected_of(&plain), expected_of(&best)));
    }
    Ok(out)
}

/// Candidate mux orders `power_manage_reordered` evaluates for `muxes`
/// multiplexors: three heuristic orders, plus every permutation when
/// 1 < muxes ≤ 5.
pub fn reorder_candidates(muxes: usize) -> usize {
    let permutations =
        if muxes > 1 && muxes <= REORDER_EXHAUSTIVE_LIMIT { (1..=muxes).product() } else { 0 };
    3 + permutations
}

fn reduction(result: &PowerManagementResult) -> f64 {
    result.savings_with(&SelectProbabilities::fair(), &OpWeights::paper_power()).reduction_percent
}

fn permutations<T: Clone>(items: &[T]) -> Vec<Vec<T>> {
    if items.len() <= 1 {
        return vec![items.to_vec()];
    }
    let mut out = Vec::new();
    for i in 0..items.len() {
        let mut rest = items.to_vec();
        let head = rest.remove(i);
        for tail in permutations(&rest) {
            let mut perm = vec![head.clone()];
            perm.extend(tail);
            out.push(perm);
        }
    }
    out
}

/// Replays the calls `gate_level_with_result` makes, as children of its
/// span, and records the simulation counts.
fn replay_gate_level(
    cdfg: &Cdfg,
    result: &PowerManagementResult,
    latency: u32,
    spec: engine::GateLevelSpec,
    root: usize,
    t: &mut Tracer,
) -> Result<(), String> {
    let options = GateLevelOptions::new(latency).samples(spec.samples).seed(spec.seed);
    let (gate, report) =
        t.span("power.gate_level", Some(root), || gate_level_with_result(cdfg, result, &options));
    report.map_err(|e| e.to_string())?;
    let (_, (managed_ctl, baseline_ctl)) = t.span("rtl.controller", Some(gate), || {
        (Controller::generate(result), Controller::ungated(cdfg, result.baseline_schedule()))
    });
    let (_, datapaths) = t.span("binding.datapath", Some(gate), || {
        Datapath::build(result.cdfg(), result.schedule())
            .and_then(|m| Ok((m, Datapath::build(cdfg, result.baseline_schedule())?)))
    });
    let (managed_dp, baseline_dp) = datapaths.map_err(|e| e.to_string())?;
    let model = GateModel::new();
    t.span("rtl.gates", Some(gate), || {
        (model.expand(&managed_dp, &managed_ctl), model.expand(&baseline_dp, &baseline_ctl))
    });
    let (_, vectors) = t.span("power.vectors", Some(gate), || {
        RandomVectors::new(cdfg, spec.seed).samples(spec.samples)
    });
    let (_, sims) = t.span("rtl.sim_new", Some(gate), || {
        Simulator::new(result.cdfg(), result.schedule(), &managed_ctl)
            .and_then(|m| Ok((m, Simulator::new(cdfg, result.baseline_schedule(), &baseline_ctl)?)))
    });
    let (mut managed, mut baseline) = sims.map_err(|e| e.to_string())?;
    let (_, ran) = t.span("rtl.sim", Some(gate), || {
        vectors.iter().try_for_each(|sample| {
            managed.run_sample(sample)?;
            baseline.run_sample(sample).map(drop)
        })
    });
    ran.map_err(|e| format!("simulation failed: {e}"))?;

    t.count("binding.units", (managed_dp.units().len() + baseline_dp.units().len()) as f64);
    t.count(
        "binding.steering_inputs",
        (managed_dp.steering_input_count() + baseline_dp.steering_input_count()) as f64,
    );
    t.count("rtl.samples", (managed.samples_run() + baseline.samples_run()) as f64);
    let toggled = managed.total_toggled_bits() + baseline.total_toggled_bits();
    t.count("rtl.toggled_bits", toggled as f64);
    t.count("rtl.gated_cycles", managed.total_gated_cycles() as f64);
    let active: u64 = managed.activity().values().map(|a| a.active_cycles).sum();
    t.count("rtl.active_cycles", active as f64);
    Ok(())
}

impl Workload for Pipeline {
    type Output = Result<SweepReport, String>;

    fn pass_len(&self) -> usize {
        self.ops.len()
    }

    fn label(&self, op: usize) -> String {
        self.ops[op].label.clone()
    }

    fn run(&mut self, op: usize) -> Self::Output {
        Ok(self.fresh_engine(op).run(&self.ops[op].plan, 1))
    }

    fn check(&mut self, op: usize, out: Self::Output) -> Result<(), String> {
        let report = out?;
        if let Some(failed) = report.records.iter().find(|r| r.metrics().is_none()) {
            return Err(format!(
                "{:?} failed: {}",
                failed.scenario,
                failed.error().unwrap_or("unknown error")
            ));
        }
        match &self.reference[op] {
            Some(reference) if *reference == report.records => Ok(()),
            Some(_) => Err("output differs from the same op's first pass".to_owned()),
            None => {
                let expected = self.expected[op].as_ref().map_err(Clone::clone)?;
                for record in &report.records {
                    let metrics = record.metrics().expect("failures returned above");
                    let got = (
                        metrics.schedule_steps,
                        metrics.pm_muxes,
                        metrics.accepted_muxes,
                        metrics.control_edges,
                        metrics.power_reduction,
                    );
                    let want = expected.get(&record.scenario.latency);
                    if want != Some(&got) {
                        return Err(format!(
                            "{:?}: (steps, muxes, accepted, edges, reduction) = {got:?}, \
                             the naive references give {want:?}",
                            record.scenario
                        ));
                    }
                }
                self.reference[op] = Some(report.records);
                Ok(())
            }
        }
    }

    fn trace(&mut self, op: usize, t: &mut Tracer) -> Self::Output {
        let root = t.open("engine.run", None);
        let engine = self.fresh_engine(op);
        let report = engine.run(&self.ops[op].plan, 1);
        let stats = engine.cache_stats();
        drop(engine);
        t.close(root);
        t.count("engine.cache_hits", stats.hits as f64);
        t.count("engine.cache_misses", stats.misses as f64);
        for record in &report.records {
            self.replay(op, record, root, t)?;
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dealer() -> Vec<Benchmark> {
        circuits::all_benchmarks().into_iter().filter(|b| b.name == "dealer").collect()
    }

    fn corrupt(out: &<Pipeline as Workload>::Output) -> <Pipeline as Workload>::Output {
        let mut report = out.clone().expect("the op ran");
        let metrics = report.records[0].outcome.as_mut().expect("the scenario succeeded");
        metrics.power_reduction += 1.0;
        if let Some(gate) = &mut metrics.gate {
            gate.managed_power *= 1.5;
        }
        Ok(report)
    }

    #[test]
    fn a_corrupted_output_fails_the_correctness_gate() {
        for mut w in [Pipeline::walk(&dealer()).unwrap(), Pipeline::gate(&dealer(), 7).unwrap()] {
            w.prepare_references().unwrap();
            let out = w.run(0);
            // Against the naive references, on the first pass...
            assert!(w.check(0, corrupt(&out)).is_err());
            assert_eq!(w.check(0, out.clone()), Ok(()));
            // ...and against the first pass afterwards.
            assert!(w.check(0, corrupt(&out)).is_err());
            assert!(w.check(0, Err("op failed".to_owned())).is_err());
            assert_eq!(w.check(0, out), Ok(()));
        }
    }

    #[test]
    fn candidate_count_matches_the_exhaustive_limit() {
        assert_eq!(reorder_candidates(1), 3);
        assert_eq!(reorder_candidates(3), 9);
        assert_eq!(reorder_candidates(5), 123);
        assert_eq!(reorder_candidates(6), 3);
        assert_eq!(permutations(&[1, 2, 3]).len(), 6);
    }
}
