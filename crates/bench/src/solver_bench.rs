//! Before/after comparison harness for the planner's MIP solver.
//!
//! Runs the fig16-style planning workloads through the production LP
//! engine (`Engine::RevisedSparse`, the default) and through the preserved
//! seed implementation (`Engine::SeedBaseline`, the frozen oracle), and
//! reports wall-clock, plan cost per engine and the production engine's
//! warm-start/factorization statistics. The `fig16_solve_time` binary
//! serializes this report to `BENCH_solver.json` so the perf trajectory is
//! tracked across changes.

use crate::experiments::{churn_fixture, run_fleet_online, run_sharded_session};
use conductor_cloud::{catalog::mbps_to_gb_per_hour, Catalog};
use conductor_core::{Goal, Planner, PlanningReport, ResourcePool};
use conductor_lp::{Engine, SolveOptions};
use conductor_mapreduce::{JobSpec, Workload};
use serde::{Deserialize, Serialize};
use std::time::{Duration, Instant};

/// One workload measured under the seed and the production engine.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SolverBenchRow {
    /// Workload label, e.g. `kmeans-64gb-mig` for the migration-enabled run.
    pub workload: String,
    /// Input size driving the model's horizon.
    pub input_gb: u32,
    /// Planning interval length (larger inputs use coarser intervals, as in
    /// Figure 16).
    pub interval_hours: f64,
    /// Whether the model includes migration variables.
    pub migration: bool,
    /// End-to-end planning wall-clock (model build + solve), milliseconds.
    /// Seed columns are `None` when the seed engine cannot complete the
    /// workload (its fragile pivoting exhausts the per-LP iteration cap on
    /// the larger residency-charged models — itself a headline result).
    pub seed_total_ms: Option<f64>,
    pub production_total_ms: f64,
    /// Solver-only wall-clock, milliseconds.
    pub seed_solve_ms: Option<f64>,
    pub production_solve_ms: f64,
    /// Plan cost (objective) per engine. Both solve to the same relative
    /// gap, so the production cost must stay within `seed × (1 + gap)`.
    pub seed_cost: Option<f64>,
    pub production_cost: f64,
    /// Production-engine branch & bound statistics.
    pub nodes: usize,
    pub simplex_iterations: usize,
    /// Ratio-test bound flips (pivots avoided entirely) and Forrest–Tomlin
    /// factor updates.
    pub bound_flips: usize,
    pub ft_updates: usize,
    pub warm_start_hits: usize,
    pub warm_start_misses: usize,
    pub warm_start_rate: f64,
    /// LU factorizations, and the subset triggered mid-stream by the
    /// update limit / drift checks.
    pub basis_factorizations: usize,
    pub basis_refactorizations: usize,
    /// `seed_solve_ms / production_solve_ms` (`None` when the seed engine
    /// DNF'd).
    pub speedup_vs_seed: Option<f64>,
}

/// Admission throughput on the canonical churn fleet: the same Poisson
/// fixture ([`churn_fixture`]) driven end to end with the admission plan
/// cache off (the deterministic pinned path every figure uses) and on
/// (the certified fast path). `*_admissions_per_sec` counts admission
/// *decisions* — every arrival is planned and then admitted or rejected —
/// over the full end-to-end wall clock including execution simulation,
/// so the number is the fleet-scale metric an operator sees, not a
/// solver microbenchmark.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AdmissionBenchRow {
    /// Poisson arrivals in the fixture.
    pub jobs: usize,
    /// End-to-end wall clock with the plan cache off / on, seconds.
    pub cold_wall_s: f64,
    pub cached_wall_s: f64,
    /// Admission decisions per second of end-to-end wall clock.
    pub cold_admissions_per_sec: f64,
    pub cached_admissions_per_sec: f64,
    /// `cold_wall_s / cached_wall_s` (equals the admissions/sec ratio).
    pub wall_speedup: f64,
    /// Certified cache hits (branch & bound skipped) and misses on the
    /// cached run.
    pub plan_cache_hits: usize,
    pub plan_cache_misses: usize,
}

/// Sharded-runtime throughput on the canonical churn fleet: the same
/// 200-arrival fixture drained through a [`conductor_core::ShardedFleet`]
/// at 1, 2 and 4 shards (hash routing, no rebalancer, one scoped thread
/// per shard). `threads_available` records the host's parallelism —
/// speedups are only meaningful when it is ≥ the shard count, so CI
/// gates its floor on that field rather than trusting a 1-CPU runner.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ShardScalingRow {
    /// Poisson arrivals in the fixture.
    pub jobs: usize,
    /// `std::thread::available_parallelism()` on the machine that
    /// generated this row.
    pub threads_available: usize,
    /// End-to-end wall clock at 1 / 2 / 4 shards, seconds.
    pub n1_wall_s: f64,
    pub n2_wall_s: f64,
    pub n4_wall_s: f64,
    /// Jobs drained per second of end-to-end wall clock.
    pub n1_jobs_per_sec: f64,
    pub n2_jobs_per_sec: f64,
    pub n4_jobs_per_sec: f64,
    /// `n1_wall_s / n2_wall_s` and `n1_wall_s / n4_wall_s`.
    pub n2_speedup: f64,
    pub n4_speedup: f64,
}

/// Measures [`ShardScalingRow`] on a `jobs`-arrival churn fleet.
pub fn shard_scaling_benchmark(jobs: usize) -> ShardScalingRow {
    let (requests, service) = churn_fixture(jobs, 1.0);
    let mut walls = [0.0f64; 3];
    for (slot, shards) in [(0usize, 1usize), (1, 2), (2, 4)] {
        let t0 = Instant::now();
        let fleet = run_sharded_session(&service, shards, None, &requests);
        walls[slot] = t0.elapsed().as_secs_f64();
        assert_eq!(
            fleet.pending_events(),
            0,
            "the {shards}-shard run drains to quiescence"
        );
    }
    let [n1, n2, n4] = walls;
    ShardScalingRow {
        jobs,
        threads_available: std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        n1_wall_s: n1,
        n2_wall_s: n2,
        n4_wall_s: n4,
        n1_jobs_per_sec: jobs as f64 / n1.max(1e-9),
        n2_jobs_per_sec: jobs as f64 / n2.max(1e-9),
        n4_jobs_per_sec: jobs as f64 / n4.max(1e-9),
        n2_speedup: n1 / n2.max(1e-9),
        n4_speedup: n1 / n4.max(1e-9),
    }
}

/// Measures [`AdmissionBenchRow`] on a `jobs`-arrival churn fleet.
pub fn admission_benchmark(jobs: usize) -> AdmissionBenchRow {
    let (requests, service) = churn_fixture(jobs, 1.0);
    let t0 = Instant::now();
    let _cold = run_fleet_online(&service, &requests);
    let cold_wall = t0.elapsed().as_secs_f64();
    let cached_service = service.with_plan_cache(true);
    let t1 = Instant::now();
    let cached = run_fleet_online(&cached_service, &requests);
    let cached_wall = t1.elapsed().as_secs_f64();
    AdmissionBenchRow {
        jobs,
        cold_wall_s: cold_wall,
        cached_wall_s: cached_wall,
        cold_admissions_per_sec: jobs as f64 / cold_wall.max(1e-9),
        cached_admissions_per_sec: jobs as f64 / cached_wall.max(1e-9),
        wall_speedup: cold_wall / cached_wall.max(1e-9),
        plan_cache_hits: cached.plan_cache_hits,
        plan_cache_misses: cached.plan_cache_misses,
    }
}

/// The full report: rows plus aggregate summary.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SolverBenchReport {
    /// How to regenerate this file.
    pub generated_by: String,
    /// The relative MIP gap both engines solve to.
    pub relative_gap: f64,
    pub rows: Vec<SolverBenchRow>,
    /// Minimum per-row speedup of the production engine over the seed
    /// engine, over the rows the seed engine completed at all — the CI
    /// floor is on this minimum.
    pub min_speedup_vs_seed: Option<f64>,
    /// Geometric mean of the per-row production-vs-seed speedups
    /// (completed rows only).
    pub geomean_speedup_vs_seed: Option<f64>,
    /// Rows the seed engine failed to complete (per-LP iteration cap).
    pub seed_dnf_rows: usize,
    /// Production-engine warm-start hits / attempts across all rows.
    pub overall_warm_start_rate: f64,
    /// Churn-fleet admission throughput, plan cache off vs on (`None` in
    /// reports generated before the cache existed).
    #[serde(default)]
    pub admission: Option<AdmissionBenchRow>,
    /// Sharded-runtime throughput at 1/2/4 shards (`None` in reports
    /// generated before the sharded fleet existed).
    #[serde(default)]
    pub shard_scaling: Option<ShardScalingRow>,
}

/// Solve options shared by both engines (fig16's gap, a generous cap so none
/// of the measured sizes are time-limited).
fn bench_options() -> SolveOptions {
    SolveOptions {
        time_limit: Duration::from_secs(120),
        ..Default::default()
    }
}

fn planner_for(input_gb: u32, migration: bool) -> Planner {
    let pool =
        ResourcePool::from_catalog(&Catalog::aws_july_2011(), 1.0).with_compute_only(&["m1.large"]);
    let mut planner = Planner::new(pool).with_migration(migration);
    // Figure 16 keeps the comparison fair across input sizes by coarsening
    // the interval for long horizons; 64 GB also gets the coarser interval
    // here so no configuration is time-limited.
    planner.interval_hours = if input_gb > 32 { 2.0 } else { 1.0 };
    planner
}

fn spec_for(input_gb: u32) -> (JobSpec, f64) {
    // The paper's k-means workload (0.44 GB/h per m1.large) scaled up — the
    // hard, node-heavy models Figure 16 measures.
    let spec = Workload::KMeansScaled { input_gb }.spec();
    let upload_hours = spec.input_gb / mbps_to_gb_per_hour(16.0);
    let deadline = (upload_hours * 1.3).ceil().max(6.0);
    (spec, deadline)
}

fn run_one(
    input_gb: u32,
    migration: bool,
    options: SolveOptions,
) -> Option<(f64, f64, f64, PlanningReport)> {
    let planner = planner_for(input_gb, migration).with_solve_options(options);
    let (spec, deadline) = spec_for(input_gb);
    let t0 = Instant::now();
    let (plan, report) = planner
        .plan(
            &spec,
            Goal::MinimizeCost {
                deadline_hours: deadline,
            },
        )
        .ok()?;
    let total_ms = t0.elapsed().as_secs_f64() * 1e3;
    Some((
        total_ms,
        report.solve_time.as_secs_f64() * 1e3,
        plan.expected_cost,
        report,
    ))
}

/// Repetitions per engine; the minimum is reported (standard practice for
/// wall-clock microbenchmarks — the minimum is the least noisy estimator of
/// the true cost).
const REPS: usize = 5;

fn run_best(
    input_gb: u32,
    migration: bool,
    options: SolveOptions,
) -> Option<(f64, f64, f64, PlanningReport)> {
    // A DNF on the first repetition is a DNF for the row (deterministic).
    let mut best: Option<(f64, f64, f64, PlanningReport)> = None;
    for _ in 0..REPS {
        let r = run_one(input_gb, migration, options.clone())?;
        if best.as_ref().is_none_or(|b| r.1 < b.1) {
            best = Some(r);
        }
    }
    best
}

/// Measures one workload under the seed and the production engine.
pub fn bench_workload(input_gb: u32, migration: bool) -> SolverBenchRow {
    let seed = run_best(
        input_gb,
        migration,
        SolveOptions {
            engine: Engine::SeedBaseline,
            ..bench_options()
        },
    );
    let (total, solve, cost, report) = run_best(input_gb, migration, bench_options())
        .expect("the production engine must complete the bench workloads");

    SolverBenchRow {
        workload: format!("kmeans-{input_gb}gb{}", if migration { "-mig" } else { "" }),
        input_gb,
        interval_hours: if input_gb > 32 { 2.0 } else { 1.0 },
        migration,
        seed_total_ms: seed.as_ref().map(|s| s.0),
        production_total_ms: total,
        seed_solve_ms: seed.as_ref().map(|s| s.1),
        production_solve_ms: solve,
        seed_cost: seed.as_ref().map(|s| s.2),
        production_cost: cost,
        nodes: report.nodes_explored,
        simplex_iterations: report.simplex_iterations,
        bound_flips: report.bound_flips,
        ft_updates: report.ft_updates,
        warm_start_hits: report.warm_start_hits,
        warm_start_misses: report.warm_start_misses,
        warm_start_rate: report.warm_start_rate(),
        basis_factorizations: report.basis_factorizations,
        basis_refactorizations: report.basis_refactorizations,
        speedup_vs_seed: seed.as_ref().map(|s| s.1 / solve.max(1e-9)),
    }
}

/// Runs the whole comparison matrix (fig16 sizes plus a migration-enabled
/// model) and aggregates the summary.
pub fn solver_benchmark() -> SolverBenchReport {
    let matrix: &[(u32, bool)] = &[(32, false), (128, false), (256, false), (128, true)];
    let rows: Vec<SolverBenchRow> = matrix
        .iter()
        .map(|&(gb, mig)| bench_workload(gb, mig))
        .collect();

    let vs_seed: Vec<f64> = rows.iter().filter_map(|r| r.speedup_vs_seed).collect();
    let geomean = |xs: &[f64]| {
        if xs.is_empty() {
            None
        } else {
            Some((xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp())
        }
    };
    let min_of = |xs: &[f64]| xs.iter().copied().reduce(f64::min);
    let hits: usize = rows.iter().map(|r| r.warm_start_hits).sum();
    let misses: usize = rows.iter().map(|r| r.warm_start_misses).sum();
    let overall_rate = if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    };

    SolverBenchReport {
        generated_by: "cargo run --release -p conductor-bench --bin fig16_solve_time".to_string(),
        relative_gap: bench_options().relative_gap,
        min_speedup_vs_seed: min_of(&vs_seed),
        geomean_speedup_vs_seed: geomean(&vs_seed),
        seed_dnf_rows: rows.iter().filter(|r| r.seed_solve_ms.is_none()).count(),
        overall_warm_start_rate: overall_rate,
        admission: Some(admission_benchmark(200)),
        shard_scaling: Some(shard_scaling_benchmark(200)),
        rows,
    }
}

/// Renders the report as a human-readable table (printed next to the JSON).
pub fn render_report(report: &SolverBenchReport) -> String {
    let mut out = String::from(
        "workload          seed ms  prod. ms  vs seed  warm-rate  iterations  bound-flips  ft-updates  cost (seed/prod.)\n",
    );
    let opt = |v: Option<f64>, decimals: usize, unit: &str| match v {
        Some(x) => format!("{x:>8.decimals$}{unit}"),
        None => format!("{:>8}{unit}", "DNF"),
    };
    for r in &report.rows {
        out.push_str(&format!(
            "{:<16} {} {:>9.1} {} {:>9.0}% {:>11} {:>12} {:>11}  {}/{:.2}\n",
            r.workload,
            opt(r.seed_solve_ms, 1, ""),
            r.production_solve_ms,
            opt(r.speedup_vs_seed, 2, "x"),
            r.warm_start_rate * 100.0,
            r.simplex_iterations,
            r.bound_flips,
            r.ft_updates,
            r.seed_cost
                .map(|c| format!("{c:.2}"))
                .unwrap_or_else(|| "DNF".into()),
            r.production_cost,
        ));
    }
    out.push_str(&format!(
        "production vs seed: min {} geomean {} ({} seed DNF rows) | warm-start rate {:.0}%\n",
        opt(report.min_speedup_vs_seed, 2, "x"),
        opt(report.geomean_speedup_vs_seed, 2, "x"),
        report.seed_dnf_rows,
        report.overall_warm_start_rate * 100.0
    ));
    if let Some(a) = &report.admission {
        out.push_str(&format!(
            "churn admissions ({} jobs): cold {:.1}/s ({:.2} s), plan cache {:.1}/s ({:.2} s) = {:.2}x, {} hits / {} misses\n",
            a.jobs,
            a.cold_admissions_per_sec,
            a.cold_wall_s,
            a.cached_admissions_per_sec,
            a.cached_wall_s,
            a.wall_speedup,
            a.plan_cache_hits,
            a.plan_cache_misses,
        ));
    }
    if let Some(s) = &report.shard_scaling {
        out.push_str(&format!(
            "shard scaling ({} jobs, {} threads): 1 shard {:.1}/s ({:.2} s), 2 shards {:.1}/s = {:.2}x, 4 shards {:.1}/s = {:.2}x\n",
            s.jobs,
            s.threads_available,
            s.n1_jobs_per_sec,
            s.n1_wall_s,
            s.n2_jobs_per_sec,
            s.n2_speedup,
            s.n4_jobs_per_sec,
            s.n4_speedup,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The smallest workload: both engines must agree on cost within the
    /// configured gap, and production warm starts must actually fire.
    #[test]
    fn engines_agree_and_warm_starts_fire() {
        let row = bench_workload(32, false);
        let seed_cost = row.seed_cost.expect("seed completes the 32 GB workload");
        let tol = bench_options().relative_gap * seed_cost.abs() + 1e-6;
        assert!(
            (seed_cost - row.production_cost).abs() <= 2.0 * tol,
            "seed {seed_cost} vs production {}",
            row.production_cost
        );
        assert!(row.warm_start_hits > 0, "no warm-start hits: {row:?}");
        assert!(
            row.basis_factorizations > 0,
            "production engine reported no factorizations: {row:?}"
        );
    }
}
