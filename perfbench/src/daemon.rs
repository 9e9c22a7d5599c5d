//! The `daemon` workload: one `Client::submit_and_wait` round trip per op
//! to an in-process `sweepd` that has already run every job once.
//!
//! The op list cycles three jobs: a sweep whose prefixes are all cached (the
//! paper matrix plus a generated random-DAG batch), an online stream whose
//! churn and rescale events make `sched::repair` do real work, and an
//! exploration of the paper circuits under per-op three-level voltages.

use std::path::{Path, PathBuf};

use engine::online::{record_json as online_record_json, OnlineReport, SessionState};
use engine::report::record_json as sweep_record_json;
use engine::{
    BranchModel, BudgetCeiling, BudgetPolicy, Engine, ExploreOptions, ExploreRequest, Scenario,
    SchedulerKind, SweepPlan, VoltagePolicy, VoltagePreset,
};
use gen::{Family, GenSpec, StreamSpec};
use service::{Client, DaemonConfig, DaemonHandle, Event, JobOutcome, JobSpec, JobState, Request};

use crate::measure::Workload;
use crate::metrics::KINDS;
use crate::trace::Tracer;

/// Circuits in the sweep job's generated random-DAG batch.
const SWEEP_BATCH: usize = 8;
/// Circuits an online stream draws from.
const STREAM_POOL: usize = 4;
/// Events in one online job.
const STREAM_EVENTS: usize = 200;

/// The jobs at `seed`, in [`KINDS`] order.
///
/// # Errors
///
/// Returns generator errors.
pub fn jobs(seed: u64) -> Result<Vec<JobSpec>, String> {
    let batch_spec = GenSpec::new(Family::RandomDag, seed, SWEEP_BATCH);
    let batch = gen::generate(&batch_spec).map_err(|e| e.to_string())?;
    let mut scenarios = Vec::new();
    for bench in circuits::all_benchmarks() {
        for &steps in &bench.control_steps {
            for scheduler in [SchedulerKind::ForceDirected, SchedulerKind::List] {
                scenarios.push(Scenario::new(bench.name.as_str(), steps).scheduler(scheduler));
            }
        }
    }
    scenarios.extend(service::plans::batch_scenarios(&batch));
    let sweep = JobSpec::Sweep {
        gen: vec![batch_spec.spec_string()],
        scenarios,
        policy: BudgetPolicy::Fixed,
        gate_level: None,
    };

    let stream =
        StreamSpec::new(GenSpec::new(Family::RandomDag, seed, STREAM_POOL), STREAM_EVENTS, seed);
    let online = JobSpec::online(stream.spec_string());

    let explore = JobSpec::Explore {
        gen: Vec::new(),
        requests: circuits::all_benchmarks()
            .into_iter()
            .map(|b| ExploreRequest::new(b.name))
            .collect(),
        policy: BudgetPolicy::Pareto,
        ceiling: BudgetCeiling::default(),
        voltage: VoltagePolicy::PerOp(VoltagePreset::ThreeLevel),
        branch_model: BranchModel::default(),
    };
    Ok(vec![sweep, online, explore])
}

/// A report computed in-process, kept typed so its JSON can be timed apart.
enum InProcess {
    Sweep(engine::SweepReport),
    Online(OnlineReport),
    Explore(engine::ParetoReport),
}

impl InProcess {
    fn to_json(&self) -> String {
        match self {
            InProcess::Sweep(report) => report.to_json(),
            InProcess::Online(report) => report.to_json(),
            InProcess::Explore(report) => report.to_json(),
        }
    }

    /// The per-record lines the daemon streams besides the report.
    fn record_lines(&self) -> Vec<String> {
        match self {
            InProcess::Sweep(report) => report.records.iter().map(sweep_record_json).collect(),
            InProcess::Online(report) => report.records.iter().map(online_record_json).collect(),
            InProcess::Explore(_) => Vec::new(),
        }
    }
}

/// Runs `spec` on the in-process `engine` the way the daemon does, with the
/// online session's per-event `apply` calls as spans under `parent`.
fn run_in_process(
    engine: &Engine,
    spec: &JobSpec,
    mut trace: Option<(&mut Tracer, usize)>,
) -> Result<InProcess, String> {
    match spec {
        JobSpec::Sweep { scenarios, policy, .. } => {
            let plan = SweepPlan::builder()
                .scenarios(scenarios.iter().cloned())
                .budget_policy(*policy)
                .build()
                .map_err(|e| e.to_string())?;
            Ok(InProcess::Sweep(engine.run(&plan, 1)))
        }
        JobSpec::Online { stream } => {
            let spec = StreamSpec::parse(stream).map_err(|e| e.to_string())?;
            let (batch, events) = gen::stream(&spec).map_err(|e| e.to_string())?;
            let mut state = SessionState::new(batch);
            let mut records = Vec::with_capacity(events.len());
            for (index, event) in events.iter().enumerate() {
                records.push(match trace.as_mut() {
                    Some((t, parent)) => {
                        t.span("engine.online_apply", Some(*parent), || state.apply(index, event)).1
                    }
                    None => state.apply(index, event),
                });
            }
            Ok(InProcess::Online(OnlineReport::from_records(&spec, records)))
        }
        JobSpec::Explore { requests, policy, ceiling, voltage, branch_model, .. } => {
            let options = ExploreOptions::new()
                .policy(*policy)
                .ceiling(*ceiling)
                .voltage(*voltage)
                .branch_model(*branch_model);
            Ok(InProcess::Explore(engine.explore(requests, &options, 1)))
        }
    }
}

/// The event lines the daemon sent for `outcome`: one progress tick per
/// work item, the records, then the terminal event.
fn sent_events(outcome: &JobOutcome) -> Vec<Event> {
    let id = outcome.id;
    let total = outcome.progress_events;
    let mut events: Vec<Event> =
        (1..=total).map(|completed| Event::Progress { id, completed, total }).collect();
    events.extend(outcome.records.iter().map(|json| Event::Record { id, json: json.clone() }));
    events.push(Event::Done {
        id,
        state: outcome.state,
        failures: outcome.failures,
        job_cache: outcome.job_cache,
        report: outcome.report.clone(),
        error: outcome.error.clone(),
    });
    events
}

/// A running daemon, a connected client and the in-process twin engine.
pub struct DaemonWorkload {
    daemon: Option<DaemonHandle>,
    client: Option<Client>,
    jobs: Vec<JobSpec>,
    /// In-process report of each job: every daemon report must equal it.
    references: Vec<String>,
    /// Warm in-process engine holding the same circuits as the daemon.
    engine: Engine,
}

impl DaemonWorkload {
    /// Starts a daemon on `socket` with one engine thread and submits every
    /// job once, so the ops that follow read its cache.
    ///
    /// # Errors
    ///
    /// Returns start-up, connection and warm-up failures.
    pub fn start(jobs: Vec<JobSpec>, socket: &Path) -> Result<Self, String> {
        let config = DaemonConfig { threads: 1, ..DaemonConfig::new(PathBuf::from(socket)) };
        let daemon = service::Daemon::start(config).map_err(|e| format!("sweepd: {e}"))?;
        let mut workload = DaemonWorkload {
            daemon: Some(daemon),
            client: None,
            jobs,
            references: Vec::new(),
            engine: Engine::new(),
        };
        let mut client = Client::connect(socket).map_err(|e| e.to_string())?;
        for spec in &workload.jobs {
            let outcome = client.submit_and_wait(spec.clone()).map_err(|e| e.to_string())?;
            if outcome.state != JobState::Done {
                return Err(format!("warm-up job ended {:?}: {:?}", outcome.state, outcome.error));
            }
        }
        workload.client = Some(client);
        Ok(workload)
    }

    /// Computes every job's in-process reference report, which also warms
    /// the twin engine the traced run replays jobs on.
    ///
    /// # Errors
    ///
    /// Returns generator and plan errors.
    pub fn prepare_references(&mut self) -> Result<(), String> {
        let batch = service::plans::generate_batch(
            &self.jobs.iter().flat_map(|j| j.gen_specs().iter().cloned()).collect::<Vec<_>>(),
        )?;
        self.engine.register_benchmarks(batch);
        self.references = self
            .jobs
            .iter()
            .map(|spec| run_in_process(&self.engine, spec, None).map(|r| r.to_json()))
            .collect::<Result<_, _>>()?;
        Ok(())
    }

    fn client(&mut self) -> &mut Client {
        self.client.as_mut().expect("the client lives until the workload drops")
    }
}

impl Drop for DaemonWorkload {
    fn drop(&mut self) {
        self.client = None;
        if let Some(daemon) = self.daemon.take() {
            daemon.shutdown();
            daemon.join();
        }
    }
}

impl Workload for DaemonWorkload {
    type Output = Result<JobOutcome, String>;

    fn pass_len(&self) -> usize {
        self.jobs.len()
    }

    fn label(&self, op: usize) -> String {
        format!("{} job", KINDS[op])
    }

    fn run(&mut self, op: usize) -> Self::Output {
        let spec = self.jobs[op].clone();
        self.client().submit_and_wait(spec).map_err(|e| e.to_string())
    }

    fn check(&mut self, op: usize, out: Self::Output) -> Result<(), String> {
        let outcome = out?;
        if outcome.state != JobState::Done || outcome.failures != Some(0) {
            return Err(format!(
                "job ended {:?} with {:?} failures: {:?}",
                outcome.state, outcome.failures, outcome.error
            ));
        }
        match outcome.report {
            Some(report) if report == self.references[op] => Ok(()),
            Some(_) => Err("report differs from the in-process run of the same spec".to_owned()),
            None => Err("done without a report".to_owned()),
        }
    }

    fn trace(&mut self, op: usize, t: &mut Tracer) -> Self::Output {
        let kind = KINDS[op];
        let spec = self.jobs[op].clone();
        let root = t.open(format!("service.roundtrip.{kind}"), None);
        let outcome = self.client().submit_and_wait(spec.clone());
        t.close(root);
        let outcome = outcome.map_err(|e| e.to_string())?;

        // Replay, as the round trip's children, the calls made on both sides
        // of the socket.
        let (_, line) = t
            .span("service.request_encode", Some(root), || Request::Submit(spec.clone()).to_line());
        let (_, parsed) = t.span("service.request_parse", Some(root), || Request::parse(&line));
        if parsed != Ok(Request::Submit(spec.clone())) {
            return Err("request did not survive its wire round trip".to_owned());
        }
        let job = t.open(format!("engine.job.{kind}"), Some(root));
        let report = run_in_process(&self.engine, &spec, Some((&mut *t, job)));
        t.close(job);
        let report = report?;
        t.span(format!("engine.report_json.{kind}"), Some(root), || {
            (report.to_json(), report.record_lines())
        });
        let events = sent_events(&outcome);
        let (_, lines) = t.span(format!("service.event_encode.{kind}"), Some(root), || {
            events.iter().map(Event::to_line).collect::<Vec<_>>()
        });
        let (_, reparsed) = t.span(format!("service.event_parse.{kind}"), Some(root), || {
            lines.iter().map(|l| Event::parse(l)).collect::<Result<Vec<_>, _>>()
        });
        if reparsed.as_ref() != Ok(&events) {
            return Err("events did not survive their wire round trip".to_owned());
        }

        let wire: usize = lines.iter().map(|l| l.len() + 1).sum::<usize>() + line.len() + 1;
        t.count("service.wire_bytes", wire as f64);
        t.count("service.events", events.len() as f64);
        if let Some(cache) = outcome.job_cache {
            t.count("engine.cache_hits", cache.hits as f64);
            t.count("engine.cache_misses", cache.misses as f64);
        }
        if let InProcess::Online(online) = &report {
            t.count("engine.online_events", online.records.len() as f64);
            let full = online.records.iter().filter(|r| r.stats.full_recompute).count();
            t.count("sched.repair_full_recomputes", full as f64);
            let touched: usize = online.records.iter().map(|r| r.stats.nodes_touched).sum();
            t.count("sched.repair_nodes_touched", touched as f64);
        }
        Ok(outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_corrupted_report_fails_the_correctness_gate() {
        std::fs::create_dir_all("out").expect("out directory");
        let socket = PathBuf::from(format!("out/test-corrupt-{}.sock", std::process::id()));
        let mut w = DaemonWorkload::start(jobs(3).unwrap(), &socket).unwrap();
        w.prepare_references().unwrap();
        for op in 0..w.pass_len() {
            let outcome = w.run(op).expect("round trip");
            assert_eq!(w.check(op, Ok(outcome.clone())), Ok(()), "{}", w.label(op));
            let mut bad = outcome.clone();
            bad.report = bad.report.map(|r| r.replacen('1', "2", 1));
            assert!(w.check(op, Ok(bad)).is_err());
            let mut failed = outcome;
            failed.failures = Some(1);
            assert!(w.check(op, Ok(failed)).is_err());
        }
    }
}
