//! The closed loop every workload runs under, and the statistics over it.
//!
//! One caller sends one op at a time and waits for it; only the op itself is
//! timed.  Its output is checked right after, outside the timed window, and
//! a run always covers whole passes over the workload's fixed op list, so
//! every op weighs the same in every run.
//!
//! The machine this runs on changes speed by up to 1.7× over spells of
//! seconds to minutes, which moves a raw run's figures far more than the
//! bounds a change is held to.  So every 200 ms of op time the loop also
//! times a fixed reference kernel, and each op's time is scaled to the
//! kernel's reference speed by the mean of the two kernel times around it.
//! Scaled times are what a machine running the kernel in exactly
//! [`KERNEL_REF_S`] would take; the raw times are kept and printed beside.

use std::time::{Duration, Instant};

use crate::trace::Tracer;

/// At most this many failures are printed per run; all are counted.
const PRINTED_FAILURES: usize = 20;
/// Reference time of one [`kernel_seconds`] run, in seconds: close to its
/// median on the machine the bounds were set on.
pub const KERNEL_REF_S: f64 = 0.005;
/// Op time between two kernel runs.
const SEGMENT: Duration = Duration::from_millis(200);

/// Runs the reference kernel once and returns its wall time in seconds.
///
/// The kernel depends on nothing in the repository, so no change to the
/// program moves it; it is shaped like the pipeline's hot loops (small
/// string-keyed ordered maps, short vectors, allocation), so it slows down
/// with the machine the way they do.
pub fn kernel_seconds() -> f64 {
    let start = Instant::now();
    let mut acc = 0i64;
    for i in 0..800i64 {
        let mut map = std::collections::BTreeMap::new();
        for k in 0..32i64 {
            map.insert(format!("n{k}"), i * k);
        }
        let mut values: Vec<i64> = map.values().copied().collect();
        values.sort_unstable_by(|a, b| b.cmp(a));
        acc += values.iter().sum::<i64>();
        for k in 0..32i64 {
            acc += map.get(&format!("n{}", (k * 7) % 32)).copied().unwrap_or(0);
        }
    }
    std::hint::black_box(acc);
    start.elapsed().as_secs_f64()
}

/// `seconds` measured between kernel runs of `before` and `after` seconds,
/// scaled to the kernel's reference speed.
pub fn to_reference(seconds: f64, before: f64, after: f64) -> f64 {
    seconds * KERNEL_REF_S * 2.0 / (before + after)
}

/// One workload: a fixed list of ops, run in order, pass after pass.
pub trait Workload {
    /// What one op returns for checking.
    type Output;

    /// Number of ops in one pass.
    fn pass_len(&self) -> usize;

    /// A human-readable name of op `op`, for failure reports.
    fn label(&self, op: usize) -> String;

    /// Runs op `op`; only this call is timed.
    fn run(&mut self, op: usize) -> Self::Output;

    /// Checks op `op`'s output; `Err` describes a failed op or an output
    /// that does not match its reference.
    ///
    /// # Errors
    ///
    /// Returns the mismatch description.
    fn check(&mut self, op: usize, out: Self::Output) -> Result<(), String>;

    /// Runs op `op` as its root span, then replays the public calls it made
    /// as that span's children.
    fn trace(&mut self, op: usize, tracer: &mut Tracer) -> Self::Output;
}

/// Latencies and failure counts of a run.
#[derive(Debug, Default, Clone)]
pub struct Run {
    /// Per-op wall time, in run order.
    pub latencies: Vec<Duration>,
    /// Per-op time scaled to the reference kernel speed, in seconds, in run
    /// order; untraced runs only.
    pub scaled: Vec<f64>,
    /// Every kernel time measured, in seconds; untraced runs only.
    pub kernels: Vec<f64>,
    /// Ops attempted.
    pub attempted: usize,
    /// Ops that failed or whose output mismatched.
    pub failed: usize,
}

impl Run {
    /// Summed op time.
    pub fn measured(&self) -> Duration {
        self.latencies.iter().sum()
    }

    fn record<W: Workload>(&mut self, w: &mut W, op: usize, elapsed: Duration, out: W::Output) {
        self.latencies.push(elapsed);
        self.attempted += 1;
        if let Err(why) = w.check(op, out) {
            self.failed += 1;
            if self.failed <= PRINTED_FAILURES {
                println!("FAILED op {op} ({}): {why}", w.label(op));
            }
        }
    }
}

/// Scales the ops run since the last kernel time by the mean of that kernel
/// time and a fresh one.
fn close_segment(run: &mut Run) {
    let before = *run.kernels.last().expect("a kernel time opens every segment");
    let after = kernel_seconds();
    run.kernels.push(after);
    let from = run.scaled.len();
    let scaled: Vec<f64> = run.latencies[from..]
        .iter()
        .map(|d| to_reference(d.as_secs_f64(), before, after))
        .collect();
    run.scaled.extend(scaled);
}

/// Runs whole passes, untraced, until the summed op time reaches `budget`.
pub fn run_untraced<W: Workload>(w: &mut W, budget: Duration) -> Run {
    let mut run = Run { kernels: vec![kernel_seconds()], ..Run::default() };
    let mut segment = Duration::ZERO;
    while run.latencies.is_empty() || run.measured() < budget {
        for op in 0..w.pass_len() {
            let start = Instant::now();
            let out = std::hint::black_box(w.run(op));
            let elapsed = start.elapsed();
            run.record(w, op, elapsed, out);
            segment += elapsed;
            if segment >= SEGMENT {
                close_segment(&mut run);
                segment = Duration::ZERO;
            }
        }
    }
    if run.scaled.len() < run.latencies.len() {
        close_segment(&mut run);
    }
    run
}

/// Runs whole passes, traced, until the summed root-span time reaches
/// `budget`.  The returned run holds each op's root-span time.
pub fn run_traced<W: Workload>(w: &mut W, budget: Duration, tracer: &mut Tracer) -> Run {
    let mut run = Run::default();
    let mut next_op_id = 0;
    while run.latencies.is_empty() || run.measured() < budget {
        for op in 0..w.pass_len() {
            tracer.begin_op(next_op_id);
            next_op_id += 1;
            let root = tracer.spans().len();
            let out = w.trace(op, tracer);
            let elapsed = Duration::from_nanos(tracer.spans()[root].duration_ns());
            run.record(w, op, elapsed, out);
        }
    }
    run
}

/// Nearest-rank percentile `p` (0 < p ≤ 100) of ascending `sorted`.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of `values` (any order); 0 for none.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The tail percentiles the benchmark reports from, highest last.  Each
/// step needs ten times the samples of the one before, so that a run's
/// sample count, which moves with the machine's speed, does not flip the
/// reported percentile: `walk` runs land on p99, `gate` and `daemon` on p90.
const TAIL_LADDER: [f64; 4] = [50.0, 90.0, 99.0, 99.9];

/// The highest percentile of [`TAIL_LADDER`] with at least ten samples
/// beyond it: `(percentile, value, samples beyond)`.
pub fn tail(sorted: &[f64]) -> (f64, f64, usize) {
    let n = sorted.len();
    let beyond = |p: f64| n - (p / 100.0 * n as f64).ceil() as usize;
    let p = TAIL_LADDER.iter().copied().rev().find(|&p| beyond(p) >= 10).unwrap_or(50.0);
    (p, percentile(sorted, p), beyond(p))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        let samples: Vec<f64> = (1..=400).map(f64::from).collect();
        assert_eq!(tail(&samples), (90.0, 360.0, 40));
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&samples), (99.0, 990.0, 10));
        assert_eq!(percentile(&[1.0, 2.0, 3.0], 50.0), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn scaling_follows_the_kernel() {
        assert_eq!(to_reference(2.0, KERNEL_REF_S, KERNEL_REF_S), 2.0);
        assert_eq!(to_reference(2.0, 2.0 * KERNEL_REF_S, 2.0 * KERNEL_REF_S), 1.0);
        assert!(kernel_seconds() > 0.0);
    }
}
