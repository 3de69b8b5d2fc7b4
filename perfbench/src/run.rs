//! Runs one workload and gathers what its metrics are computed from.
//!
//! A run runs a fixed number of episodes — each one fleet, or one sweep
//! of deployments, from seeds derived from the run's seed and the
//! episode's index — so its inputs depend on the seed and the time budget
//! alone, never on how fast the host is. The host's speed is gauged
//! throughout each episode, and the episode's timings are scaled to the
//! reference host (see [`crate::speed`]). Correctness checks run on every
//! episode.

use crate::driver::{self, DriveStats};
use crate::speed::Gauge;
use crate::trace::Tracer;
use crate::workloads::{self, Deployment, Seeds, ENGINE_SIZES};
use conductor_cloud::Catalog;
use conductor_core::{
    ConductorService, Fleet, FleetEvent, FleetJobRequest, FleetReport, FleetSnapshot, OutcomeClass,
    WalReader, WalWriter,
};
use conductor_mapreduce::engine::Engine;
use conductor_mapreduce::scheduler::PlanFollowingScheduler;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Shortest host time of one timed batch of set-ups. One set-up takes
/// microseconds, too little to time alone, so each episode times a batch
/// of back-to-back set-ups and records their mean.
pub const SETUP_BATCH: Duration = Duration::from_millis(20);
/// Arrival groups per `burst` fleet.
pub const BURST_GROUPS: usize = 40;
/// Requests per `faulted-durable` fleet. A run drives several independent
/// fleets rather than one larger one: much of the spread across seeds
/// comes from fleet-wide draws such as arrival clusters, so more fleets
/// per run make the aggregate steadier.
pub const FAULTED_JOBS: usize = 50;
/// Shortest host time of one timed batch of restores of the final
/// checkpoint of a `burst` fleet; the batch's mean is the episode's
/// recovery time.
pub const RESTORE_BATCH: Duration = Duration::from_millis(100);
/// Arrival groups between checkpoints in `faulted-durable`.
pub const CHECKPOINT_EVERY: usize = 10;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Simultaneous look-alike arrivals with the plan cache on.
    Burst,
    /// Faulted churn with a WAL, periodic checkpoints and crash recovery.
    FaultedDurable,
    /// Large planner-free engine deployments.
    EngineLarge,
}

impl Kind {
    /// Every workload.
    pub const ALL: [Kind; 3] = [Kind::Burst, Kind::FaultedDurable, Kind::EngineLarge];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Burst => "burst",
            Kind::FaultedDurable => "faulted-durable",
            Kind::EngineLarge => "engine-large",
        }
    }

    /// Nominal host time of one episode: what it takes on the reference
    /// host.
    pub fn episode_time(self) -> Duration {
        Duration::from_millis(match self {
            Kind::Burst => 2_200,
            Kind::FaultedDurable => 6_500,
            Kind::EngineLarge => 5_000,
        })
    }

    /// Episodes that fill `budget` at the nominal episode time (at least
    /// one). The count depends on the budget alone, so the same seed and
    /// budget give the same inputs on any host. The more distinct fleets a
    /// run drives, the less its figures depend on any one fleet's draws.
    pub fn episodes_for(self, budget: Duration) -> usize {
        ((budget.as_secs_f64() / self.episode_time().as_secs_f64()) as usize).max(1)
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// Host time and work of one engine deployment size.
#[derive(Debug, Default, Clone, Copy)]
pub struct EngineSize {
    /// Time in `Engine::run`.
    pub time: Duration,
    /// Simulated tasks.
    pub tasks: usize,
}

/// Everything one run measured. Set-up, host, latency and recovery
/// samples are scaled to the reference host's speed; the per-layer times
/// are not.
#[derive(Debug, Default)]
pub struct Totals {
    /// Episodes run.
    pub episodes: usize,
    /// Each episode's factor from host time to reference time.
    pub speed: Vec<f64>,
    /// Requests (fleet submissions, or deployments) attempted.
    pub attempted: usize,
    /// Mean time of one set-up, per episode.
    pub setup: Vec<Duration>,
    /// Errors from public calls and failed correctness checks.
    pub failures: Vec<String>,
    /// Request → decision latency of every request, ms.
    pub latencies_ms: Vec<f64>,
    /// Time the requests took, one entry per fleet (first submit to
    /// quiescence) or per deployment (`Engine::run`).
    pub host: Vec<Duration>,
    /// Requests that finished by their deadline (a retry chain once).
    pub served: usize,
    /// Sum of the bills, USD.
    pub bill: f64,
    /// Simulated tasks completed.
    pub tasks: usize,
    /// Time of one recovery, per episode.
    pub recovery: Vec<Duration>,
    /// The client's per-layer fleet timings, summed over episodes.
    pub drive: DriveStats,
    /// Admitted tenants with a planning report.
    pub planned: usize,
    /// Sum of `PlanningReport::model_build_time`.
    pub model_build: Duration,
    /// Sum of `PlanningReport::solve_time`.
    pub solve: Duration,
    /// Sum of `PlanningReport::model_vars`.
    pub model_vars: usize,
    /// Sum of branch & bound nodes.
    pub nodes: usize,
    /// Sum of simplex iterations.
    pub simplex_iterations: usize,
    /// Sum of warm-start hits.
    pub warm_hits: usize,
    /// Sum of warm-start misses.
    pub warm_misses: usize,
    /// Sum of basis factorizations.
    pub factorizations: usize,
    /// Plan-cache hits.
    pub cache_hits: usize,
    /// Plan-cache misses.
    pub cache_misses: usize,
    /// Fleet events logged.
    pub events: usize,
    /// Faults injected.
    pub faults: usize,
    /// Retry attempts issued.
    pub retries: usize,
    /// Tenants dead-lettered.
    pub dead_letters: usize,
    /// Bytes of the snapshots restored.
    pub snapshot_bytes: usize,
    /// Bytes of the WALs written.
    pub wal_bytes: u64,
    /// Engine time and tasks per size, indexed like [`ENGINE_SIZES`].
    pub engine: [EngineSize; ENGINE_SIZES.len()],
    /// Host time of the whole run, set-up included.
    pub wall: Duration,
}

impl Totals {
    fn fail(&mut self, what: String) {
        self.failures.push(what);
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.fail(what());
        }
    }
}

/// Where runs write their WALs and span files: `perfbench/out` of the
/// checkout the benchmark was built in.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Runs `episodes` episodes of workload `kind` from `seed`, recording
/// spans into `tracer`. The set-up, host, latency and recovery samples of
/// each episode are scaled to the reference host by the [`Gauge`] samples
/// taken at its start, throughout it and at its end.
pub fn run(kind: Kind, seed: u64, episodes: usize, tracer: &mut Tracer) -> Totals {
    let started = Instant::now();
    let mut totals = Totals::default();
    let mut gauge = Gauge::default();
    for e in 0..episodes {
        let marks = Marks::of(&totals);
        let seeds = Seeds::derive(seed, e as u64);
        gauge.sample(tracer);
        match kind {
            Kind::EngineLarge => engine_episode(seeds, tracer, &mut gauge, &mut totals),
            _ => {
                let fx = set_up(tracer, &mut totals, || fleet_fixture(kind, seeds));
                let episode =
                    fx.and_then(|fx| fleet_episode(kind, fx, tracer, &mut gauge, &mut totals));
                if let Err(e) = episode {
                    totals.fail(e);
                }
            }
        }
        gauge.sample(tracer);
        let factor = gauge.take_factor();
        marks.rescale(&mut totals, factor);
        totals.speed.push(factor);
        totals.episodes += 1;
    }
    totals.wall = started.elapsed();
    totals
}

/// Where an episode's timed samples start in the run's totals.
struct Marks {
    setup: usize,
    host: usize,
    latencies: usize,
    recovery: usize,
}

impl Marks {
    fn of(totals: &Totals) -> Self {
        Marks {
            setup: totals.setup.len(),
            host: totals.host.len(),
            latencies: totals.latencies_ms.len(),
            recovery: totals.recovery.len(),
        }
    }

    /// Scales every sample taken since the marks by `factor`.
    fn rescale(&self, totals: &mut Totals, factor: f64) {
        for d in totals.setup[self.setup..]
            .iter_mut()
            .chain(&mut totals.host[self.host..])
            .chain(&mut totals.recovery[self.recovery..])
        {
            *d = d.mul_f64(factor);
        }
        for ms in &mut totals.latencies_ms[self.latencies..] {
            *ms *= factor;
        }
    }
}

/// One fleet's inputs and opened session.
struct FleetFixture {
    requests: Vec<FleetJobRequest>,
    service: ConductorService,
    fleet: Fleet,
}

/// Generates `kind`'s fleet inputs from `seeds` and opens the session.
fn fleet_fixture(kind: Kind, seeds: Seeds) -> Result<FleetFixture, String> {
    let (requests, service) = match kind {
        Kind::Burst => workloads::burst(seeds, BURST_GROUPS),
        Kind::FaultedDurable => workloads::faulted(seeds, FAULTED_JOBS),
        Kind::EngineLarge => unreachable!("engine-large runs no fleet"),
    };
    let fleet = service.open().map_err(|e| format!("open: {e}"))?;
    Ok(FleetFixture {
        requests,
        service,
        fleet,
    })
}

/// Sets an episode up back to back for at least [`SETUP_BATCH`], records
/// the mean time of one set-up (each but the first also drops the one it
/// replaces) and returns the last set-up.
fn set_up<T>(tracer: &mut Tracer, totals: &mut Totals, mut setup: impl FnMut() -> T) -> T {
    let span = tracer.open("bench.setup", None);
    let t0 = Instant::now();
    let mut made = setup();
    let mut reps = 1u32;
    while t0.elapsed() < SETUP_BATCH {
        made = setup();
        reps += 1;
    }
    totals.setup.push(t0.elapsed() / reps);
    tracer.close(span);
    made
}

/// What the durable workload records at its crash point.
struct CrashPoint {
    wal_bytes: u64,
    events: usize,
    bill: f64,
}

fn fleet_episode(
    kind: Kind,
    fx: FleetFixture,
    tracer: &mut Tracer,
    gauge: &mut Gauge,
    totals: &mut Totals,
) -> Result<(), String> {
    let FleetFixture {
        requests,
        service,
        mut fleet,
    } = fx;
    let durable = kind == Kind::FaultedDurable;
    let wal_path = out_dir().join(format!("live-{}.wal", std::process::id()));
    if durable {
        std::fs::create_dir_all(out_dir()).map_err(|e| format!("out dir: {e}"))?;
        fleet.attach_wal(WalWriter::create(&wal_path).map_err(|e| format!("WAL: {e}"))?);
    }
    let mut group = 0usize;
    let mut crash: Option<CrashPoint> = None;
    let mut snapshot: Option<(String, usize)> = None;
    let stats = driver::drive(&mut fleet, &requests, tracer, |fleet, submitted, tracer| {
        gauge.sample(tracer);
        if !durable {
            return Ok(());
        }
        group += 1;
        if group.is_multiple_of(CHECKPOINT_EVERY) {
            snapshot = Some((checkpoint(fleet, tracer), submitted));
        }
        // The crash: after the last arrival's decision, so recovery replays
        // every admission the fleet made. A replay re-solves them, and
        // solve times are heavy-tailed: the more a recovery replays, the
        // less its time depends on a few long solves.
        if submitted == requests.len() {
            let wal_bytes = std::fs::metadata(&wal_path)
                .map_err(|e| format!("WAL size: {e}"))?
                .len();
            crash = Some(CrashPoint {
                wal_bytes,
                events: fleet.events().len(),
                bill: fleet.fleet_bill(),
            });
        }
        Ok(())
    })?;
    if let Some(error) = fleet.wal_error() {
        totals.fail(format!("WAL write: {error}"));
    }

    let span = tracer.open("bench.check", None);
    let report = fleet.report();
    account_fleet(kind, &fleet, &report, &stats, totals);
    tracer.close(span);
    totals.host.push(stats.wall);
    absorb(&mut totals.drive, stats);

    if durable {
        let crash = crash.ok_or("the workload has no crash point")?;
        let (json, submitted) = snapshot.ok_or("the workload took no checkpoint")?;
        drop(fleet.detach_wal());
        totals.wal_bytes += std::fs::metadata(&wal_path).map_or(0, |m| m.len());
        let recovered = recover_from_crash(&service, &wal_path, &crash, &fleet, tracer, totals);
        let _ = std::fs::remove_file(&wal_path);
        recovered?;
        restore_and_finish(
            &service,
            &json,
            &requests[submitted..],
            &fleet,
            tracer,
            totals,
        )?;
    } else {
        // Without a WAL, the durable record is a checkpoint of the drained
        // fleet. A restore takes milliseconds, so the sample is the mean of
        // a batch of them.
        let json = checkpoint(&fleet, tracer);
        totals.snapshot_bytes += json.len();
        let mut spent = Duration::ZERO;
        let mut reps = 0u32;
        while spent < RESTORE_BATCH {
            let t0 = Instant::now();
            let restored = decode_and_restore(&service, &json, tracer)?;
            spent += t0.elapsed();
            reps += 1;
            let span = tracer.open("bench.check", None);
            totals.check(
                restored.fleet_bill().to_bits() == fleet.fleet_bill().to_bits(),
                || "restored final checkpoint bills differently".into(),
            );
            tracer.close(span);
        }
        totals.recovery.push(spent / reps);
    }
    Ok(())
}

fn checkpoint(fleet: &Fleet, tracer: &mut Tracer) -> String {
    let span = tracer.open("durability.checkpoint", None);
    let snapshot = fleet.checkpoint();
    tracer.close(span);
    let span = tracer.open("durability.encode", None);
    let json = snapshot.to_json();
    tracer.close(span);
    json
}

fn absorb(sum: &mut DriveStats, stats: DriveStats) {
    sum.submitted += stats.submitted;
    sum.wall += stats.wall;
    for i in 0..3 {
        sum.admit_time[i] += stats.admit_time[i];
        sum.admit_n[i] += stats.admit_n[i];
    }
    sum.replans += stats.replans;
    sum.readmits += stats.readmits;
}

/// Correctness checks and outcome accounting of one drained fleet.
fn account_fleet(
    kind: Kind,
    fleet: &Fleet,
    report: &FleetReport,
    stats: &DriveStats,
    totals: &mut Totals,
) {
    totals.attempted += stats.submitted;
    totals.latencies_ms.extend_from_slice(&stats.latencies_ms);
    totals.check(stats.latencies_ms.len() == stats.submitted, || {
        "a submission got no admission decision".into()
    });

    // Every tenant ends terminal.
    let running = report.tenants_by_outcome(OutcomeClass::Running).count();
    totals.check(running == 0, || format!("{running} tenants not terminal"));

    // Per-tenant bills sum to the fleet bill and to its category roll-up.
    let tenant_sum: f64 = report
        .tenants
        .iter()
        .filter_map(|t| t.execution.as_ref())
        .map(|e| e.total_cost)
        .sum();
    totals.check(tenant_sum.to_bits() == report.fleet_cost.to_bits(), || {
        format!(
            "tenant bills {tenant_sum} != fleet bill {}",
            report.fleet_cost
        )
    });
    totals.check(
        fleet.fleet_bill().to_bits() == report.fleet_cost.to_bits(),
        || "live fleet bill differs from the report".into(),
    );
    let rollup = report.fleet_breakdown.total();
    totals.check(
        (rollup - report.fleet_cost).abs() <= 1e-9 * report.fleet_cost.abs().max(1.0),
        || {
            format!(
                "category roll-up {rollup} != fleet bill {}",
                report.fleet_cost
            )
        },
    );

    // Without injected faults, every admitted job completes.
    if kind != Kind::FaultedDurable {
        let unfinished = report
            .tenants
            .iter()
            .filter(|t| t.admitted && t.outcome_class() != OutcomeClass::Completed)
            .count();
        totals.check(unfinished == 0, || {
            format!("{unfinished} admitted jobs did not complete")
        });
    }

    // Served requests: a retry chain counts once, served when any attempt
    // completed by its deadline.
    let mut chain_served = vec![false; report.tenants.len()];
    for (i, t) in report.tenants.iter().enumerate() {
        let root = t.retry_of.unwrap_or(i);
        let met = t.outcome_class() == OutcomeClass::Completed
            && t.execution.as_ref().and_then(|e| e.met_deadline) == Some(true);
        if met && root < chain_served.len() {
            chain_served[root] = true;
        }
    }
    totals.served += chain_served.iter().filter(|&&s| s).count();
    totals.bill += report.fleet_cost;
    totals.tasks += report
        .tenants
        .iter()
        .filter_map(|t| t.execution.as_ref())
        .map(|e| e.task_timeline.last().map_or(0, |&(_, n)| n))
        .sum::<usize>();

    for planning in report.tenants.iter().filter_map(|t| t.planning.as_ref()) {
        totals.planned += 1;
        totals.model_build += planning.model_build_time;
        totals.solve += planning.solve_time;
        totals.model_vars += planning.model_vars;
        totals.nodes += planning.nodes_explored;
        totals.simplex_iterations += planning.simplex_iterations;
        totals.warm_hits += planning.warm_start_hits;
        totals.warm_misses += planning.warm_start_misses;
        totals.factorizations += planning.basis_factorizations;
    }
    totals.cache_hits += report.plan_cache_hits;
    totals.cache_misses += report.plan_cache_misses;
    totals.events += fleet.events().len();
    totals.faults += fleet
        .events()
        .iter()
        .filter(|e| matches!(e, FleetEvent::FaultInjected { .. }))
        .count();
    totals.retries += report.retries;
    totals.dead_letters += report.dead_lettered;
    let logged_hits = fleet
        .events()
        .iter()
        .filter(|e| {
            matches!(
                e,
                FleetEvent::Admitted {
                    cache_key: Some(_),
                    ..
                }
            )
        })
        .count();
    totals.check(logged_hits == report.plan_cache_hits, || {
        format!(
            "{logged_hits} cache-served admissions logged, {} reported",
            report.plan_cache_hits
        )
    });
}

/// Crash recovery: the WAL as it stood at the crash point, plus a torn
/// half-written line, is recovered and replayed into a live fleet, which
/// must match the live fleet at that point event for event and bill for
/// bill.
fn recover_from_crash(
    service: &ConductorService,
    wal_path: &Path,
    crash: &CrashPoint,
    live: &Fleet,
    tracer: &mut Tracer,
    totals: &mut Totals,
) -> Result<(), String> {
    let span = tracer.open("bench.check", None);
    let image = out_dir().join(format!("crash-{}.wal", std::process::id()));
    let written = std::fs::read(wal_path)
        .map_err(|e| format!("reading WAL: {e}"))
        .and_then(|bytes| {
            let mut torn = bytes
                .get(..crash.wal_bytes as usize)
                .ok_or("WAL shorter than at the crash point")?
                .to_vec();
            torn.extend_from_slice(b"{\"Completed\":{\"tenant\":");
            std::fs::write(&image, torn).map_err(|e| format!("writing crash image: {e}"))
        });
    tracer.close(span);
    written?;

    let t0 = Instant::now();
    let span = tracer.open("durability.wal_read", None);
    let events = WalReader::recover(&image);
    tracer.close(span);
    let read = t0.elapsed();
    let _ = std::fs::remove_file(&image);
    let events = events.map_err(|e| format!("WAL recover: {e}"))?;
    let span = tracer.open("durability.replay", None);
    let t1 = Instant::now();
    let replayed = service.replay(&events);
    let replay = t1.elapsed();
    tracer.close(span);
    let replayed = replayed.map_err(|e| format!("replay: {e}"))?;
    totals.recovery.push(read + replay);

    let span = tracer.open("bench.check", None);
    let expected = &live.events()[..crash.events.min(live.events().len())];
    totals.check(events.len() == crash.events && events == expected, || {
        format!(
            "recovered WAL holds {} events, the live log had {} at the crash",
            events.len(),
            crash.events
        )
    });
    totals.check(replayed.events() == expected, || {
        "replayed event log differs from the live log".into()
    });
    totals.check(
        replayed.fleet_bill().to_bits() == crash.bill.to_bits(),
        || "replayed fleet bills differently from the live fleet at the crash".into(),
    );
    tracer.close(span);
    Ok(())
}

fn decode_and_restore(
    service: &ConductorService,
    json: &str,
    tracer: &mut Tracer,
) -> Result<Fleet, String> {
    let span = tracer.open("durability.decode", None);
    let snapshot = FleetSnapshot::from_json(json);
    tracer.close(span);
    let snapshot = snapshot.map_err(|e| format!("decode: {e}"))?;
    let span = tracer.open("durability.restore", None);
    let restored = service.restore(&snapshot);
    tracer.close(span);
    restored.map_err(|e| format!("restore: {e}"))
}

/// The last checkpoint, restored and driven through the requests that
/// arrived after it, must reproduce the live fleet's bill bitwise.
fn restore_and_finish(
    service: &ConductorService,
    json: &str,
    remaining: &[FleetJobRequest],
    live: &Fleet,
    tracer: &mut Tracer,
    totals: &mut Totals,
) -> Result<(), String> {
    totals.snapshot_bytes += json.len();
    let mut restored = decode_and_restore(service, json, tracer)?;
    let span = tracer.open("bench.check", None);
    let finished = driver::drive(
        &mut restored,
        remaining,
        &mut Tracer::new(false),
        |_, _, _| Ok(()),
    );
    tracer.close(span);
    finished?;
    totals.check(
        restored.fleet_bill().to_bits() == live.fleet_bill().to_bits(),
        || "restored checkpoint did not reproduce the live fleet bill".into(),
    );
    Ok(())
}

/// The engine service's set-up: the catalog, the engine over it, the
/// scheduler and the deployments.
struct EngineFixture {
    engine: Engine,
    scheduler: PlanFollowingScheduler,
    deployments: Vec<Deployment>,
}

fn engine_fixture(seeds: Seeds) -> EngineFixture {
    EngineFixture {
        engine: Engine::new(Catalog::aws_july_2011()),
        scheduler: PlanFollowingScheduler::cloud_only_defaults(),
        deployments: workloads::engine_large(seeds),
    }
}

fn engine_episode(seeds: Seeds, tracer: &mut Tracer, gauge: &mut Gauge, totals: &mut Totals) {
    let fx = set_up(tracer, totals, || engine_fixture(seeds));
    for (i, d) in fx.deployments.iter().enumerate() {
        if i > 0 {
            gauge.sample(tracer);
        }
        totals.attempted += 1;
        let span = tracer.open("engine.run", None);
        let t0 = Instant::now();
        let result = fx.engine.run(&d.spec, &d.options, &fx.scheduler);
        let took = t0.elapsed();
        tracer.close(span);
        let report = match result {
            Ok(report) => report,
            Err(e) => {
                totals.fail(format!("engine run {} GB: {e}", d.input_gb));
                continue;
            }
        };
        let span = tracer.open("bench.check", None);
        totals.latencies_ms.push(took.as_secs_f64() * 1e3);
        totals.host.push(took);
        let size = ENGINE_SIZES
            .iter()
            .position(|&(gb, _)| gb == d.input_gb)
            .expect("deployments come from ENGINE_SIZES");
        totals.engine[size].time += took;
        totals.engine[size].tasks += report.total_tasks;
        totals.tasks += report.total_tasks;
        totals.bill += report.total_cost;
        if report.met_deadline == Some(true) {
            totals.served += 1;
        }
        let last = report.task_timeline.last().map(|&(_, n)| n);
        totals.check(last == Some(report.total_tasks), || {
            format!(
                "{} GB: task timeline ends at {last:?} of {} tasks",
                d.input_gb, report.total_tasks
            )
        });
        // The engine keeps no durable state: a deployment lost in a
        // crash is recovered by running it again from its inputs, so
        // the smallest deployment's run time stands in for recovery.
        if size == 0 {
            totals.recovery.push(took);
        }
        tracer.close(span);
    }
}
