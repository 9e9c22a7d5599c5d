//! The metrics the benchmark reports, by name and unit.
//!
//! `BENCHMARK.json` declares the same names; a test keeps the two in step.

use std::fmt::Write as _;

use crate::measure::{median, percentile, tail, Run, KERNEL_REF_S};
use crate::trace::Tracer;

/// Daemon job kinds, which qualify the per-kind service and engine metrics.
pub const KINDS: [&str; 3] = ["sweep", "online", "explore"];

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as declared in `BENCHMARK.json`.
    pub name: String,
    /// Unit, as declared in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
}

fn metric(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
    Metric { name: name.into(), unit, value: if value.is_finite() { value } else { 0.0 } }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Ascending `values` in milliseconds.
fn sorted_ms(values: impl Iterator<Item = f64>) -> Vec<f64> {
    let mut ms: Vec<f64> = values.map(|s| s * 1e3).collect();
    ms.sort_by(f64::total_cmp);
    ms
}

/// `(ops_per_s, op_p50_ms, op_tail_ms)` of per-op seconds in run order:
/// the rate is the median over passes of `pass_len` ops, so that a slow
/// spell moves it only if it lasts half the run.
fn op_figures(seconds: &[f64], pass_len: usize) -> (f64, f64, f64) {
    let rates: Vec<f64> =
        seconds.chunks(pass_len).map(|p| ratio(p.len() as f64, p.iter().sum())).collect();
    let sorted = sorted_ms(seconds.iter().copied());
    (median(&rates), percentile(&sorted, 50.0), tail(&sorted).1)
}

/// Lines describing an untraced run beside its metrics: the tail's
/// percentile and sample count, and the raw (unscaled) figures.
pub fn end_to_end_notes(run: &Run, pass_len: usize) -> Vec<String> {
    let (p, _, beyond) = tail(&sorted_ms(run.scaled.iter().copied()));
    let raw: Vec<f64> = run.latencies.iter().map(|d| d.as_secs_f64()).collect();
    let (rate, p50, tail_ms) = op_figures(&raw, pass_len);
    vec![
        format!("op_tail_ms is p{p}, with {beyond} of {} samples beyond it", raw.len()),
        format!(
            "raw, unscaled: ops_per_s {rate:.4} 1/s, op_p50_ms {p50:.4} ms, op_tail_ms \
             {tail_ms:.4} ms; reference kernel median {:.4} ms (reference {} ms)",
            median(&run.kernels) * 1e3,
            KERNEL_REF_S * 1e3
        ),
    ]
}

/// The end-to-end metrics of an untraced run of `pass_len`-op passes, with
/// op times scaled to the reference kernel speed.  `setup_s` holds each
/// set-up's scaled time.  `failed_ratio` is reported through the result's
/// `attempted` and `failed` counts instead: it is 0 on a correct program,
/// and a spread around 0 is undefined.
pub fn end_to_end(setup_s: &[f64], run: &Run, pass_len: usize, peak_rss_mb: f64) -> Vec<Metric> {
    let (rate, p50, tail_ms) = op_figures(&run.scaled, pass_len);
    vec![
        metric("setup_s", "s", median(setup_s)),
        metric("ops_per_s", "1/s", rate),
        metric("op_p50_ms", "ms", p50),
        metric("op_tail_ms", "ms", tail_ms),
        metric("peak_rss_mb", "MB", peak_rss_mb),
    ]
}

/// The per-layer metrics of a traced run.  Times and counts are per traced
/// op, `.<kind>` metrics per op of that kind, `*_share` metrics are shares
/// of the traced ops' root time.  `gen_ms` is the generator time of the
/// run's set-up.
pub fn per_layer(t: &Tracer, untraced: &Run, traced: &Run, gen_ms: f64) -> Vec<Metric> {
    let ops = traced.attempted.max(1) as f64;
    let per_op = |ms: f64| ms / ops;
    let roots_ms: f64 = traced.measured().as_secs_f64() * 1e3;
    let sched_ms = t.total_ms("sched.schedule") + t.total_ms("sched.minimum_resources");
    let hits = t.counter("engine.cache_hits");
    let misses = t.counter("engine.cache_misses");
    let gated = t.counter("rtl.gated_cycles");
    let events = t.counter("engine.online_events");
    let mut out = vec![
        metric("sched.schedule_ms", "ms", per_op(t.total_ms("sched.schedule"))),
        metric("sched.schedule_calls", "count", per_op(t.calls("sched.schedule") as f64)),
        metric("sched.share", "ratio", ratio(sched_ms, roots_ms)),
        metric("sched.minimum_resources_ms", "ms", per_op(t.total_ms("sched.minimum_resources"))),
        metric(
            "sched.repair_full_recompute_ratio",
            "ratio",
            ratio(t.counter("sched.repair_full_recomputes"), events),
        ),
        metric(
            "sched.repair_nodes_touched",
            "count",
            ratio(t.counter("sched.repair_nodes_touched"), events),
        ),
        metric("core.power_manage_ms", "ms", per_op(t.total_ms("core.power_manage"))),
        metric(
            "core.self_ms",
            "ms",
            per_op(t.self_ms("core.power_manage") + t.self_ms("core.reorder")),
        ),
        metric("core.reorder_ms", "ms", per_op(t.total_ms("core.reorder"))),
        metric("core.reorder_candidates", "count", per_op(t.counter("core.reorder_candidates"))),
        metric("engine.self_ms", "ms", per_op(t.self_ms("engine.run"))),
        metric("engine.cache_misses", "count", per_op(misses)),
        metric("engine.cache_hit_ratio", "ratio", ratio(hits, hits + misses)),
        metric(
            "engine.online_apply_us",
            "us",
            ratio(t.total_ms("engine.online_apply") * 1e3, events),
        ),
        metric("binding.datapath_ms", "ms", per_op(t.total_ms("binding.datapath"))),
        metric("binding.units", "count", per_op(t.counter("binding.units"))),
        metric("binding.steering_inputs", "count", per_op(t.counter("binding.steering_inputs"))),
        metric("rtl.controller_ms", "ms", per_op(t.total_ms("rtl.controller"))),
        metric("rtl.gates_ms", "ms", per_op(t.total_ms("rtl.gates"))),
        metric("rtl.sim_new_ms", "ms", per_op(t.total_ms("rtl.sim_new"))),
        metric("rtl.sim_ms", "ms", per_op(t.total_ms("rtl.sim"))),
        metric(
            "rtl.sim_sample_us",
            "us",
            ratio(t.total_ms("rtl.sim") * 1e3, t.counter("rtl.samples")),
        ),
        metric("rtl.samples", "count", per_op(t.counter("rtl.samples"))),
        metric("rtl.share", "ratio", ratio(t.total_ms("rtl.sim"), roots_ms)),
        metric("rtl.toggled_bits", "count", per_op(t.counter("rtl.toggled_bits"))),
        metric("rtl.gated_cycles", "count", per_op(gated)),
        metric("rtl.gated_ratio", "ratio", ratio(gated, gated + t.counter("rtl.active_cycles"))),
        metric("power.vectors_ms", "ms", per_op(t.total_ms("power.vectors"))),
        metric("power.gate_level_ms", "ms", per_op(t.total_ms("power.gate_level"))),
        metric("power.self_ms", "ms", per_op(t.self_ms("power.gate_level"))),
        metric("service.request_encode_ms", "ms", per_op(t.total_ms("service.request_encode"))),
        metric("service.request_parse_ms", "ms", per_op(t.total_ms("service.request_parse"))),
    ];
    let mut parse_ms = 0.0;
    for kind in KINDS {
        let kind_ops = t.calls(&format!("service.roundtrip.{kind}")) as f64;
        let per = |ms: f64| ratio(ms, kind_ops);
        parse_ms += t.total_ms(&format!("service.event_parse.{kind}"));
        out.extend([
            metric(
                format!("engine.job_ms.{kind}"),
                "ms",
                per(t.total_ms(&format!("engine.job.{kind}"))),
            ),
            metric(
                format!("engine.report_json_ms.{kind}"),
                "ms",
                per(t.total_ms(&format!("engine.report_json.{kind}"))),
            ),
            metric(
                format!("service.event_encode_ms.{kind}"),
                "ms",
                per(t.total_ms(&format!("service.event_encode.{kind}"))),
            ),
            metric(
                format!("service.event_parse_ms.{kind}"),
                "ms",
                per(t.total_ms(&format!("service.event_parse.{kind}"))),
            ),
            metric(
                format!("service.self_ms.{kind}"),
                "ms",
                per(t.self_ms(&format!("service.roundtrip.{kind}"))),
            ),
        ]);
    }
    let untraced_op = ratio(untraced.measured().as_secs_f64(), untraced.attempted as f64);
    let traced_op = ratio(traced.measured().as_secs_f64(), traced.attempted as f64);
    out.extend([
        metric("service.parse_share", "ratio", ratio(parse_ms, roots_ms)),
        metric("service.wire_bytes", "bytes", per_op(t.counter("service.wire_bytes"))),
        metric("service.events", "count", per_op(t.counter("service.events"))),
        metric("gen.generate_ms", "ms", gen_ms),
        metric("trace.overhead_ratio", "ratio", ratio(traced_op, untraced_op)),
        metric("trace.accounted_ratio", "ratio", t.accounted_ratio()),
    ]);
    out
}

/// The result line: the last line the benchmark prints.
pub fn result_json(attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let mut body = String::new();
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            body.push_str(", ");
        }
        write!(body, "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}", m.name, m.value, m.unit)
            .expect("writing to a String cannot fail");
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{body}}}}}",
        failed == 0 && attempted > 0
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_is_one_json_object_with_every_metric() {
        let metrics = vec![metric("setup_s", "s", 0.5), metric("op_p50_ms", "ms", f64::NAN)];
        let line = result_json(10, 1, &metrics);
        assert_eq!(
            line,
            "{\"correct\": false, \"attempted\": 10, \"failed\": 1, \"metrics\": \
             {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}, \
             \"op_p50_ms\": {\"value\": 0.0, \"unit\": \"ms\"}}}"
        );
    }
}
