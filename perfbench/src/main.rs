//! The benchmark of the power-management pipeline.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <walk|gate|daemon> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Run from the repository root.  Each workload is a closed loop of one
//! caller; every op's output is checked outside its timed window.  With
//! `--trace 0` the last line of standard output carries the end-to-end
//! metrics; with `--trace 1` it carries the per-layer metrics of a traced
//! run, and the spans are written to `perfbench/out/`.  `NOTES.md` explains
//! the workloads, the metrics and the first measured attribution.

mod daemon;
mod measure;
mod metrics;
mod pipeline;
mod trace;

use std::path::{Path, PathBuf};
use std::process::exit;
use std::time::{Duration, Instant};

use measure::{run_traced, run_untraced, Run, Workload};
use metrics::Metric;
use trace::Tracer;

/// Where the traced run's spans and the daemon's socket go, relative to the
/// repository root the benchmark runs from.  The socket path stays relative
/// because a Unix socket path may not exceed 107 bytes.
const OUT_DIR: &str = "perfbench/out";
/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Share of `--seconds` a traced run spends untraced (the overhead
/// baseline), and again traced: replaying each traced op's calls takes
/// about as long as the op, so the run lasts about `--seconds`.
const TRACE_SHARE: f64 = 1.0 / 3.0;

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Directory for spans and the daemon socket.
    out: PathBuf,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number =
            || value.parse::<u64>().map_err(|_| format!("{flag}: `{value}` is not a number"));
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = Some(number()?),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !["walk", "gate", "daemon"].contains(&workload.as_str()) {
        return Err(format!("unknown workload `{workload}` (walk, gate or daemon)"));
    }
    let trace = match trace.unwrap_or(0) {
        0 => false,
        1 => true,
        other => return Err(format!("--trace takes 0 or 1, not {other}")),
    };
    Ok(Args {
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace,
        out: PathBuf::from(OUT_DIR),
    })
}

/// Keeps every thread's allocations in glibc's one main arena.
///
/// By default glibc gives a thread its own arena when the one it would use
/// is locked, so how many arenas the daemon's threads and the reference
/// workers touch depends on how the host schedules them.  On 2 vCPUs shared
/// with two busy loops, one `daemon` run's `peak_rss_mb` jumped between 9.5
/// and 11.1 MB in steps of an arena; with one arena it stayed within
/// 7.3–7.5 MB.  Called first thing in `main`, before any thread starts.
fn single_malloc_arena() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn mallopt(
                param: std::os::raw::c_int,
                value: std::os::raw::c_int,
            ) -> std::os::raw::c_int;
        }
        /// glibc's `M_ARENA_MAX`.
        const M_ARENA_MAX: std::os::raw::c_int = -8;
        // SAFETY: `mallopt` only sets an allocator parameter; no other
        // thread exists yet to allocate concurrently.
        unsafe {
            mallopt(M_ARENA_MAX, 1);
        }
    }
}

/// Peak resident set size of this process, in MB (0 where `/proc` is absent).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The commit being measured, when the benchmark runs at the top of a git
/// checkout; `unknown` otherwise.
fn commit() -> String {
    let git = |args: &[&str]| {
        std::process::Command::new("git")
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
    };
    let here = std::env::current_dir().and_then(|d| d.canonicalize()).ok();
    let top =
        git(&["rev-parse", "--show-toplevel"]).and_then(|t| Path::new(&t).canonicalize().ok());
    match (here, top) {
        (Some(here), Some(top)) if here == top => git(&["rev-parse", "HEAD"]).unwrap_or_default(),
        _ => "unknown".to_owned(),
    }
}

/// Machine context printed beside every result.
fn context(args: &Args) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let profile = if cfg!(debug_assertions) { "debug" } else { "release" };
    format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {nproc}, \
         \"threads\": 1, \"profile\": \"{profile}\", \"commit\": \"{}\"}}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        commit()
    )
}

/// What a measured workload hands back for printing.
struct Outcome {
    attempted: usize,
    failed: usize,
    metrics: Vec<Metric>,
    /// Human-readable lines printed above the result.
    notes: Vec<String>,
}

/// Sets the workload up `SETUP_REPS` times (the last one is kept), runs one
/// warm-up pass, then measures it traced or untraced.
fn measure<W: Workload>(
    args: &Args,
    mut setup: impl FnMut() -> Result<W, String>,
    mut after_setup: impl FnMut(&mut W) -> Result<(), String>,
    gen_ms: f64,
) -> Result<Outcome, String> {
    let reps = if args.trace { 1 } else { SETUP_REPS };
    let mut setup_s = Vec::with_capacity(reps);
    let mut kept: Option<(W, Vec<W::Output>)> = None;
    for _ in 0..reps {
        drop(kept.take()); // stop the previous set-up's daemon before the next starts
        let before = measure::kernel_seconds();
        let start = Instant::now();
        let mut w = setup()?;
        let warm: Vec<W::Output> = (0..w.pass_len()).map(|op| w.run(op)).collect();
        let elapsed = start.elapsed().as_secs_f64();
        setup_s.push(measure::to_reference(elapsed, before, measure::kernel_seconds()));
        kept = Some((w, warm));
    }
    let (mut w, warm) = kept.expect("at least one set-up");
    after_setup(&mut w)?;
    let mut warm_run = Run::default();
    for (op, out) in warm.into_iter().enumerate() {
        warm_run.attempted += 1;
        if let Err(why) = w.check(op, out) {
            warm_run.failed += 1;
            println!("FAILED warm-up op {op} ({}): {why}", w.label(op));
        }
    }

    let budget = Duration::from_secs(args.seconds);
    let mut notes = Vec::new();
    let (run, metrics) = if args.trace {
        let untraced = run_untraced(&mut w, budget.mul_f64(TRACE_SHARE));
        let mut tracer = Tracer::new();
        let traced = run_traced(&mut w, budget.mul_f64(TRACE_SHARE), &mut tracer);
        std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out.display()))?;
        let path = args.out.join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
        tracer
            .write_jsonl(&path, &context(args))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        notes.push(format!("spans: {} written to {}", tracer.spans().len(), path.display()));
        let metrics = metrics::per_layer(&tracer, &untraced, &traced, gen_ms);
        let mut run = untraced;
        run.attempted += traced.attempted;
        run.failed += traced.failed;
        (run, metrics)
    } else {
        let run = run_untraced(&mut w, budget);
        notes.extend(metrics::end_to_end_notes(&run, w.pass_len()));
        let metrics = metrics::end_to_end(&setup_s, &run, w.pass_len(), peak_rss_mb());
        (run, metrics)
    };
    let attempted = run.attempted + warm_run.attempted;
    let failed = run.failed + warm_run.failed;
    notes.push(format!(
        "failed_ratio {} ratio ({failed} of {attempted} ops failed or mismatched)",
        failed as f64 / attempted.max(1) as f64
    ));
    Ok(Outcome { attempted, failed, metrics, notes })
}

fn run(args: &Args) -> Result<Outcome, String> {
    match args.workload.as_str() {
        "walk" | "gate" => {
            let walk = args.workload == "walk";
            let dags = if walk { pipeline::WALK_DAGS } else { 1 };
            let gen_start = Instant::now();
            pipeline::generated(args.seed, dags)?;
            let gen_ms = gen_start.elapsed().as_secs_f64() * 1e3;
            let setup = || {
                let benches = pipeline::circuits(args.seed, dags)?;
                if walk {
                    pipeline::Pipeline::walk(&benches)
                } else {
                    pipeline::Pipeline::gate(&benches, args.seed)
                }
            };
            measure(args, setup, pipeline::Pipeline::prepare_references, gen_ms)
        }
        "daemon" => {
            let gen_start = Instant::now();
            daemon::jobs(args.seed)?;
            let gen_ms = gen_start.elapsed().as_secs_f64() * 1e3;
            std::fs::create_dir_all(&args.out)
                .map_err(|e| format!("{}: {e}", args.out.display()))?;
            let socket = args.out.join(format!("sweepd-{}.sock", std::process::id()));
            let setup = || daemon::DaemonWorkload::start(daemon::jobs(args.seed)?, &socket);
            measure(args, setup, daemon::DaemonWorkload::prepare_references, gen_ms)
        }
        other => Err(format!("unknown workload `{other}`")),
    }
}

fn main() {
    single_malloc_arena();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(why) => {
            eprintln!("perfbench: {why}");
            eprintln!("usage: perfbench --workload <walk|gate|daemon> --seed <n> --seconds <n> --trace <0|1>");
            exit(2);
        }
    };
    println!("context: {}", context(&args));
    match run(&args) {
        Ok(outcome) => {
            for note in &outcome.notes {
                println!("{note}");
            }
            for m in &outcome.metrics {
                println!("{:<40} {:>16.6} {}", m.name, m.value, m.unit);
            }
            println!(
                "{}",
                metrics::result_json(outcome.attempted, outcome.failed, &outcome.metrics)
            );
        }
        Err(why) => {
            eprintln!("perfbench: {why}");
            exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use service::json::Json;

    /// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
    fn declared(section: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text =
            std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
        let json = Json::parse(&text).expect("BENCHMARK.json parses");
        let field = |m: &Json, key: &str| m.get(key).and_then(Json::as_str).expect(key).to_owned();
        json.get(section)
            .and_then(Json::as_array)
            .expect(section)
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit")))
            .collect()
    }

    fn printed(metrics: &[Metric]) -> Vec<(String, String)> {
        metrics.iter().map(|m| (m.name.clone(), m.unit.to_owned())).collect()
    }

    fn args(workload: &str, trace: bool) -> Args {
        Args {
            workload: workload.to_owned(),
            seed: 7,
            seconds: 0,
            trace,
            out: PathBuf::from("out"),
        }
    }

    fn dealer() -> Vec<circuits::Benchmark> {
        circuits::all_benchmarks().into_iter().filter(|b| b.name == "dealer").collect()
    }

    /// One pass of each workload, on `dealer` alone for the pipeline ones,
    /// untraced and traced: every declared metric comes out, with its unit,
    /// and nothing fails.
    #[test]
    fn every_declared_metric_is_printed_with_its_unit_for_every_workload() {
        for trace in [false, true] {
            let section = if trace { "per_layer" } else { "end_to_end" };
            let walk = measure(
                &args("walk", trace),
                || pipeline::Pipeline::walk(&dealer()),
                pipeline::Pipeline::prepare_references,
                0.0,
            )
            .expect("walk runs");
            let gate = measure(
                &args("gate", trace),
                || pipeline::Pipeline::gate(&dealer(), 7),
                pipeline::Pipeline::prepare_references,
                0.0,
            )
            .expect("gate runs");
            std::fs::create_dir_all("out").expect("out directory");
            let socket = PathBuf::from(format!("out/test-{}-{trace}.sock", std::process::id()));
            let daemon = measure(
                &args("daemon", trace),
                || daemon::DaemonWorkload::start(daemon::jobs(7)?, &socket),
                daemon::DaemonWorkload::prepare_references,
                0.0,
            )
            .expect("daemon runs");
            for (name, outcome) in [("walk", walk), ("gate", gate), ("daemon", daemon)] {
                assert_eq!(printed(&outcome.metrics), declared(section), "{name}, {section}");
                assert_eq!(outcome.failed, 0, "{name}: {:?}", outcome.notes);
                assert!(outcome.attempted > 0);
            }
        }
    }

    #[test]
    fn declared_metrics_obey_the_naming_rules() {
        for section in ["end_to_end", "per_layer"] {
            for (name, unit) in declared(section) {
                assert!(name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()));
                assert!(name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
                assert!(unit.len() <= 16, "{unit}");
            }
        }
    }

    #[test]
    fn arguments_are_checked() {
        let argv = |s: &str| s.split_whitespace().map(str::to_owned).collect::<Vec<_>>();
        let parsed = parse_args(&argv("--workload gate --seed 3 --seconds 20 --trace 1")).unwrap();
        assert_eq!(
            (parsed.workload.as_str(), parsed.seed, parsed.seconds, parsed.trace),
            ("gate", 3, 20, true)
        );
        assert!(parse_args(&argv("--workload fly --seed 3 --seconds 20 --trace 0")).is_err());
        assert!(parse_args(&argv("--workload walk --seconds 20 --trace 0")).is_err());
        assert!(parse_args(&argv("--workload walk --seed 1 --seconds 20 --trace 2")).is_err());
    }

    #[test]
    fn the_same_seed_makes_the_same_inputs() {
        let dots = |seed| -> Vec<String> {
            pipeline::circuits(seed, pipeline::WALK_DAGS)
                .unwrap()
                .iter()
                .map(|b| cdfg::dot::to_dot(&b.cdfg))
                .collect()
        };
        assert_eq!(dots(7), dots(7));
        assert_ne!(dots(7), dots(8));
        assert_eq!(daemon::jobs(7), daemon::jobs(7));
        assert_ne!(daemon::jobs(7), daemon::jobs(8));
    }
}
