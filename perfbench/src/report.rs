//! Per-layer metrics derived from a traced trial's spans.
//!
//! A layer's self time is its spans' duration minus the part covered by
//! their child spans.  The engine has no span of its own inside a run: its
//! share is the self time of the `engine.run` spans, i.e. whatever the
//! engine did between calls into the scheduler, intake, routing, admission
//! and migration layers.

use crate::probe::{Layer, Span, ROOT};
use crate::workloads::{median, ratio, Simulated};
use pcaps_metrics::percentile;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;

/// Host-time totals of one layer within a trial.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTime {
    /// Spans recorded.
    pub calls: u64,
    /// Summed span duration (seconds).
    pub total_s: f64,
    /// Summed self time (seconds).
    pub self_s: f64,
}

/// Totals per layer of one span list.
pub fn layer_times(spans: &[Span]) -> BTreeMap<Layer, LayerTime> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != ROOT {
            child_ns[s.parent as usize] += s.duration_ns();
        }
    }
    let mut out: BTreeMap<Layer, LayerTime> = BTreeMap::new();
    for (s, &children) in spans.iter().zip(&child_ns) {
        let t = out.entry(s.layer).or_default();
        t.calls += 1;
        t.total_s += s.duration_ns() as f64 * 1e-9;
        t.self_s += s.duration_ns().saturating_sub(children) as f64 * 1e-9;
    }
    out
}

fn durations(spans: &[Span], layer: Layer, scale: f64) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.layer == layer)
        .map(|s| s.duration_ns() as f64 * scale)
        .collect()
}

fn pct(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        percentile(values, p)
    }
}

/// The per-layer metrics of one traced trial, by name, with their units;
/// `sim` is the input set's total.  The `trace.*` metrics compare traced
/// with untraced trials, so the caller adds them.
pub fn layer_metrics(spans: &[Span], sim: &Simulated) -> Vec<(&'static str, f64, &'static str)> {
    let t = layer_times(spans);
    let get = |l: Layer| t.get(&l).copied().unwrap_or_default();
    let on_event_us = durations(spans, Layer::OnEvent, 1e-3);
    let slice_ms = durations(spans, Layer::Slice, 1e-6);
    let engine = get(Layer::Run);
    let sched = get(Layer::OnEvent);
    let admit = get(Layer::Admit);
    let consult = get(Layer::Consult);
    vec![
        ("workloads.pull_s", get(Layer::Pull).total_s, "s"),
        ("workloads.pulls", get(Layer::Pull).calls as f64, "count"),
        ("schedulers.on_event_s", sched.total_s, "s"),
        ("schedulers.calls", sched.calls as f64, "count"),
        ("schedulers.p50_us", pct(&on_event_us, 50.0), "us"),
        ("schedulers.p99_us", pct(&on_event_us, 99.0), "us"),
        ("schedulers.p999_us", pct(&on_event_us, 99.9), "us"),
        (
            "schedulers.useful_frac",
            ratio(sim.sched_useful as f64, sim.sched_calls as f64),
            "frac",
        ),
        (
            "schedulers.defer_frac",
            ratio(sim.sched_deferring as f64, sim.sched_calls as f64),
            "frac",
        ),
        ("engine.self_s", engine.self_s, "s"),
        (
            "engine.self_ns_per_task",
            ratio(engine.self_s * 1e9, sim.tasks as f64),
            "ns",
        ),
        ("routing.route_s", get(Layer::Route).total_s, "s"),
        ("routing.calls", get(Layer::Route).calls as f64, "count"),
        ("admission.admit_s", admit.total_s, "s"),
        ("admission.calls", admit.calls as f64, "count"),
        (
            "admission.reject_frac",
            ratio((sim.arrivals - sim.accepted) as f64, sim.arrivals as f64),
            "frac",
        ),
        ("migration.consult_s", consult.total_s, "s"),
        ("migration.calls", consult.calls as f64, "count"),
        (
            "migration.moves_per_call",
            ratio(sim.migration_moves as f64, sim.migration_calls as f64),
            "count",
        ),
        ("network.gb_carried", sim.network_gb, "GB"),
        (
            "network.transfer_s_mean",
            ratio(sim.transfer_s_sum, sim.migrations as f64),
            "s",
        ),
        ("faults.tasks_failed", sim.tasks_failed as f64, "count"),
        ("faults.retries", sim.retries as f64, "count"),
        ("serve.slice_p50_ms", pct(&slice_ms, 50.0), "ms"),
        ("serve.slice_p99_ms", pct(&slice_ms, 99.0), "ms"),
        ("serve.drain_s", get(Layer::Drain).total_s, "s"),
        ("serve.p99_queue_delay_s", sim.p99_queue_delay_s, "s"),
        (
            "serve.in_system_first_half",
            sim.in_system_first_half,
            "jobs",
        ),
        (
            "serve.in_system_second_half",
            sim.in_system_second_half,
            "jobs",
        ),
        ("metrics.account_s", get(Layer::Account).total_s, "s"),
    ]
}

/// Medians, metric by metric, of several traced trials' metrics.
pub fn median_metrics(
    trials: &[Vec<(&'static str, f64, &'static str)>],
) -> Vec<(&'static str, f64, &'static str)> {
    let Some(first) = trials.first() else {
        return Vec::new();
    };
    first
        .iter()
        .enumerate()
        .map(|(i, &(name, _, unit))| {
            let values: Vec<f64> = trials.iter().map(|t| t[i].1).collect();
            (name, median(&values), unit)
        })
        .collect()
}

/// A human-readable table of where one traced trial's host time went.
pub fn split_table(spans: &[Span], traced_wall_s: f64) -> String {
    let t = layer_times(spans);
    let mut out = format!(
        "{:<28} {:>10} {:>10} {:>10} {:>7}\n",
        "layer (self time)", "spans", "total_s", "self_s", "share"
    );
    for (layer, time) in &t {
        out.push_str(&format!(
            "{:<28} {:>10} {:>10.4} {:>10.4} {:>6.1}%\n",
            layer.name(),
            time.calls,
            time.total_s,
            time.self_s,
            100.0 * ratio(time.self_s, traced_wall_s)
        ));
    }
    out
}

/// The spans of the first instance of a trial: its first root span and
/// everything recorded inside it.
pub fn first_instance(spans: &[Span]) -> &[Span] {
    let end = spans
        .iter()
        .skip(1)
        .position(|s| s.parent == ROOT)
        .map_or(spans.len(), |i| i + 1);
    &spans[..end]
}

/// Writes `spans` as tab-separated lines: index, name, start and end in
/// nanoseconds since recording began, parent index (`-` for none).
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "index\tname\tstart_ns\tend_ns\tparent")?;
    for (i, s) in spans.iter().enumerate() {
        let (name, start, end) = (s.layer.name(), s.start_ns, s.end_ns);
        if s.parent == ROOT {
            writeln!(w, "{i}\t{name}\t{start}\t{end}\t-")?;
        } else {
            writeln!(w, "{i}\t{name}\t{start}\t{end}\t{}", s.parent)?;
        }
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: Layer, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span {
            layer,
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_excludes_children() {
        let spans = [
            span(Layer::Run, 0, 1_000, ROOT),
            span(Layer::OnEvent, 100, 300, 0),
            span(Layer::Pull, 400, 500, 0),
            span(Layer::OnEvent, 600, 650, 0),
        ];
        let t = layer_times(&spans);
        assert_eq!(t[&Layer::Run].calls, 1);
        assert!((t[&Layer::Run].total_s - 1e-6).abs() < 1e-15);
        assert!((t[&Layer::Run].self_s - 650e-9).abs() < 1e-15);
        assert_eq!(t[&Layer::OnEvent].calls, 2);
        assert!((t[&Layer::OnEvent].self_s - 250e-9).abs() < 1e-15);
    }
}
