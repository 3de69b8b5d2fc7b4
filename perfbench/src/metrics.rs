//! Turns a run's totals and spans into the named metrics the command
//! prints.
//!
//! End-to-end metrics come from an untraced run. Per-layer metrics come
//! from a traced pass, preceded by an untraced pass over the same inputs
//! so the tracing overhead can be measured.

use crate::driver::Decision;
use crate::run::{self, Kind, Totals};
use crate::trace::Tracer;
use crate::workloads::ENGINE_SIZES;
use std::time::Duration;

/// Share of the traced run's wall time the top-level spans may leave
/// uncovered.
pub const TRACE_SLACK: f64 = 0.05;

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: String,
    /// The value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// What the command prints.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted.
    pub attempted: usize,
    /// Failed operations and checks, one line each.
    pub failures: Vec<String>,
    /// The metrics, in print order.
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Outcome {
    /// The one-line JSON result.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failures.is_empty(),
            self.attempted,
            self.failures.len(),
            metrics.join(", ")
        )
    }

    fn from_totals(totals: &Totals, metrics: Vec<Metric>) -> Self {
        let mut failures = totals.failures.clone();
        for m in &metrics {
            if !m.value.is_finite() {
                failures.push(format!("metric {} is not finite", m.name));
            }
        }
        Outcome {
            attempted: totals.attempted,
            failures,
            metrics,
            notes: Vec::new(),
        }
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn median(durations: &[Duration]) -> Duration {
    let mut sorted = durations.to_vec();
    sorted.sort();
    sorted.get(sorted.len() / 2).copied().unwrap_or_default()
}

fn median_of(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted.get(sorted.len() / 2).copied().unwrap_or(f64::NAN)
}

fn mean(durations: &[Duration]) -> Duration {
    match durations.len() {
        0 => Duration::ZERO,
        n => durations.iter().sum::<Duration>() / n as u32,
    }
}

/// Nearest-rank percentile `p` (0–100) of `values`.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The end-to-end metrics of one untraced run, in `BENCHMARK.json` order.
pub fn end_to_end_metrics(totals: &Totals) -> Vec<Metric> {
    let host = totals.host.iter().sum::<Duration>().as_secs_f64();
    let peak_rss_mb = peak_rss_kb().map_or(f64::NAN, |kb| kb as f64 / 1024.0);
    vec![
        metric("setup_s", median(&totals.setup).as_secs_f64(), "s"),
        metric("tenants_per_s", totals.attempted as f64 / host, "1/s"),
        metric("admit_p50_ms", percentile(&totals.latencies_ms, 50.0), "ms"),
        metric("admit_p95_ms", percentile(&totals.latencies_ms, 95.0), "ms"),
        metric(
            "served_share",
            totals.served as f64 / totals.attempted as f64,
            "ratio",
        ),
        metric("usd_per_served", totals.bill / totals.served as f64, "USD"),
        metric("recovery_s", mean(&totals.recovery).as_secs_f64(), "s"),
        metric("tasks_per_s", totals.tasks as f64 / host, "1/s"),
        metric("peak_rss_mb", peak_rss_mb, "MB"),
    ]
}

/// Runs `kind` untraced and reports its end-to-end metrics.
pub fn end_to_end(kind: Kind, seed: u64, budget: Duration) -> Outcome {
    let episodes = kind.episodes_for(budget);
    let totals = run::run(kind, seed, episodes, &mut Tracer::new(false));
    let mut outcome = Outcome::from_totals(&totals, end_to_end_metrics(&totals));

    outcome.notes.push(format!(
        "workload {} seed {seed}: {} episodes, {} requests, {} failed checks, \
         {} latency samples (p95 has {} beyond it), host-to-reference factor {:.3}",
        kind.name(),
        totals.episodes,
        totals.attempted,
        totals.failures.len(),
        totals.latencies_ms.len(),
        totals.latencies_ms.len() / 20,
        median_of(&totals.speed),
    ));
    for m in &outcome.metrics {
        outcome
            .notes
            .push(format!("  {:<16} {:>14.6} {}", m.name, m.value, m.unit));
    }

    outcome
}

/// Runs `kind` untraced for half the budget, then the same episodes
/// traced, and reports the per-layer metrics of the traced run. Its spans
/// are written to `perfbench/out/spans-<workload>-<seed>.jsonl`.
pub fn traced(kind: Kind, seed: u64, budget: Duration) -> Outcome {
    let episodes = kind.episodes_for(budget / 2);
    let untraced = run::run(kind, seed, episodes, &mut Tracer::new(false));
    let mut tracer = Tracer::new(true);
    let totals = run::run(kind, seed, episodes, &mut tracer);
    let untraced_wall = untraced.wall.mul_f64(median_of(&untraced.speed));
    let metrics = per_layer_metrics(&totals, &tracer, untraced_wall);
    let mut outcome = Outcome::from_totals(&totals, metrics);
    outcome.failures.extend(untraced.failures.iter().cloned());
    let unattributed = 1.0 - ratio(tracer.covered().as_secs_f64(), totals.wall.as_secs_f64());
    if unattributed > TRACE_SLACK {
        outcome.failures.push(format!(
            "layer spans cover only {:.1}% of the traced wall time (slack {:.0}%)",
            100.0 * (1.0 - unattributed),
            100.0 * TRACE_SLACK
        ));
    }
    let path = run::out_dir().join(format!("spans-{}-{seed}.jsonl", kind.name()));
    let written = std::fs::create_dir_all(run::out_dir())
        .and_then(|()| std::fs::File::create(&path))
        .and_then(|file| {
            let mut out = std::io::BufWriter::new(file);
            tracer.write_jsonl(&mut out)?;
            std::io::Write::flush(&mut out)
        });
    match written {
        Ok(()) => outcome.notes.push(format!(
            "{} spans written to {}",
            tracer.spans().len(),
            path.display()
        )),
        Err(e) => outcome.failures.push(format!("writing spans: {e}")),
    }
    for m in &outcome.metrics {
        outcome
            .notes
            .push(format!("  {:<32} {:>14.6} {}", m.name, m.value, m.unit));
    }
    outcome
}

/// The per-layer metrics of one traced run, in `BENCHMARK.json` order.
/// `untraced_wall` is the wall time of the same inputs run untraced, at
/// the reference host speed; the traced wall time is scaled the same way
/// for `trace.overhead_share`, so a change in the host's speed between
/// the two runs does not read as tracing overhead.
pub fn per_layer_metrics(totals: &Totals, tracer: &Tracer, untraced_wall: Duration) -> Vec<Metric> {
    let wall = totals.wall.as_secs_f64();
    let d = &totals.drive;
    let kind_ms = |k: Decision| ms(d.admit_time[k as usize]);
    let kind_n = |k: Decision| d.admit_n[k as usize] as f64;
    let span_ms = |name: &str| ms(tracer.total(name));
    let planned = totals.planned as f64;
    let warm = (totals.warm_hits + totals.warm_misses) as f64;
    let cache = (totals.cache_hits + totals.cache_misses) as f64;
    let episodes = totals.episodes.max(1) as f64;
    let mut m = vec![
        metric("fleet.admit_ms", span_ms("fleet.admit"), "ms"),
        metric("fleet.admit.solved_ms", kind_ms(Decision::Solved), "ms"),
        metric("fleet.admit.solved_n", kind_n(Decision::Solved), "count"),
        metric("fleet.admit.hit_ms", kind_ms(Decision::Hit), "ms"),
        metric("fleet.admit.hit_n", kind_n(Decision::Hit), "count"),
        metric("fleet.admit.rejected_ms", kind_ms(Decision::Rejected), "ms"),
        metric(
            "fleet.admit.rejected_n",
            kind_n(Decision::Rejected),
            "count",
        ),
        metric(
            "fleet.admit.rejected_share",
            ratio(
                d.admit_time[Decision::Rejected as usize].as_secs_f64(),
                wall,
            ),
            "ratio",
        ),
        metric("fleet.drive_ms", span_ms("fleet.drive"), "ms"),
        metric("fleet.drive.replans_n", d.replans as f64, "count"),
        metric("fleet.drive.readmits_n", d.readmits as f64, "count"),
        metric("fleet.submit_ms", span_ms("fleet.submit"), "ms"),
        metric("fleet.events_n", totals.events as f64, "count"),
        metric("planner.model_build_ms", ms(totals.model_build), "ms"),
        metric("lp.solve_ms", ms(totals.solve), "ms"),
        metric(
            "planner.model_vars_mean",
            ratio(totals.model_vars as f64, planned),
            "count",
        ),
        metric("lp.nodes", totals.nodes as f64, "count"),
        metric(
            "lp.simplex_iterations",
            totals.simplex_iterations as f64,
            "count",
        ),
        metric(
            "lp.warm_start_rate",
            ratio(totals.warm_hits as f64, warm),
            "ratio",
        ),
        metric(
            "lp.basis_factorizations",
            totals.factorizations as f64,
            "count",
        ),
        metric("cache.hits", totals.cache_hits as f64, "count"),
        metric("cache.misses", totals.cache_misses as f64, "count"),
        metric(
            "cache.hit_ratio",
            ratio(totals.cache_hits as f64, cache),
            "ratio",
        ),
        metric(
            "durability.checkpoint_ms",
            span_ms("durability.checkpoint"),
            "ms",
        ),
        metric("durability.encode_ms", span_ms("durability.encode"), "ms"),
        metric("durability.decode_ms", span_ms("durability.decode"), "ms"),
        metric("durability.restore_ms", span_ms("durability.restore"), "ms"),
        metric(
            "durability.wal_read_ms",
            span_ms("durability.wal_read"),
            "ms",
        ),
        metric("durability.replay_ms", span_ms("durability.replay"), "ms"),
        metric(
            "durability.snapshot_bytes",
            totals.snapshot_bytes as f64 / episodes,
            "bytes",
        ),
        metric(
            "durability.wal_bytes",
            totals.wal_bytes as f64 / episodes,
            "bytes",
        ),
        metric("policy.faults_n", totals.faults as f64, "count"),
        metric("policy.retries_n", totals.retries as f64, "count"),
        metric("policy.dead_letters_n", totals.dead_letters as f64, "count"),
    ];
    let us_per_task: Vec<f64> = totals
        .engine
        .iter()
        .map(|s| ratio(s.time.as_secs_f64() * 1e6, s.tasks as f64))
        .collect();
    for (i, &(gb, _)) in ENGINE_SIZES.iter().enumerate() {
        m.push(metric(
            format!("engine.run_ms.{gb}"),
            ms(totals.engine[i].time),
            "ms",
        ));
        m.push(metric(
            format!("engine.us_per_task.{gb}"),
            us_per_task[i],
            "us",
        ));
    }
    m.push(metric(
        "engine.scaling",
        ratio(us_per_task[us_per_task.len() - 1], us_per_task[0]),
        "ratio",
    ));
    m.push(metric("bench.setup_ms", span_ms("bench.setup"), "ms"));
    m.push(metric("bench.probe_ms", span_ms("bench.probe"), "ms"));
    m.push(metric(
        "bench.host_factor",
        median_of(&totals.speed),
        "ratio",
    ));
    m.push(metric("bench.check_ms", span_ms("bench.check"), "ms"));
    m.push(metric("trace.wall_ms", ms(totals.wall), "ms"));
    m.push(metric(
        "trace.overhead_share",
        ratio(wall * median_of(&totals.speed), untraced_wall.as_secs_f64()) - 1.0,
        "ratio",
    ));
    m.push(metric(
        "trace.unattributed_share",
        1.0 - ratio(tracer.covered().as_secs_f64(), wall),
        "ratio",
    ));
    m
}

/// Peak resident memory of this process, from `/proc/self/status`.
fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
}
