//! The closed-loop fleet client.
//!
//! For each distinct arrival hour the client steps the fleet to that hour,
//! submits every request due then, and makes one timed `step_one_batch`
//! call: that batch is the admission decision. It then waits for the
//! decision before stepping on, so a slow admission delays the next
//! group (a closed loop with one client). The decision is read back from
//! the public event log: `Admitted` with a cache key is a plan-cache hit,
//! `Admitted` without one is a branch & bound solve, `Rejected` is a
//! rejection.
//!
//! Stepping to each arrival and submitting it is what
//! `conductor_bench::experiments::run_fleet_online` does one request at a
//! time; grouping the submits of one hour changes nothing in the fleet,
//! which the package's tests pin bitwise.

use crate::trace::Tracer;
use conductor_core::{Fleet, FleetEvent, FleetJobRequest, FleetReport};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const LOCK: &str = "decision log lock is never poisoned: its holders do not panic";

/// How an admission batch decided one tenant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// Admitted after a full branch & bound solve.
    Solved,
    /// Admitted from the plan cache.
    Hit,
    /// Rejected at admission.
    Rejected,
}

impl Decision {
    fn of(event: &FleetEvent) -> Option<(usize, Decision)> {
        match event {
            FleetEvent::Admitted {
                tenant, cache_key, ..
            } => Some((
                tenant.0,
                if cache_key.is_some() {
                    Decision::Hit
                } else {
                    Decision::Solved
                },
            )),
            FleetEvent::Rejected { tenant, .. } => Some((tenant.0, Decision::Rejected)),
            _ => None,
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// What the client measured while driving one fleet.
#[derive(Debug, Default)]
pub struct DriveStats {
    /// Requests submitted by the client (retries issued by the fleet are
    /// not requests).
    pub submitted: usize,
    /// Submit → decision latency of every submitted request, in ms.
    pub latencies_ms: Vec<f64>,
    /// Host time from the first submit to quiescence.
    pub wall: Duration,
    /// Admission-batch time per decision kind (indexed by [`Decision`]);
    /// a batch holding several decisions is split evenly among them.
    pub admit_time: [Duration; 3],
    /// Decisions per kind made in the client's admission batches.
    pub admit_n: [usize; 3],
    /// Monitor re-plans made while the clock was driven.
    pub replans: usize,
    /// Admission decisions made while the clock was driven (retry
    /// arrivals the fleet issued itself).
    pub readmits: usize,
}

/// Drives `requests` (sorted by arrival) through `fleet` to quiescence.
/// After each arrival group's decision, `after_group` is called with the
/// fleet and the number of requests submitted so far; its time counts as
/// drive wall time. Errors name the public call that failed.
pub fn drive(
    fleet: &mut Fleet,
    requests: &[FleetJobRequest],
    tracer: &mut Tracer,
    mut after_group: impl FnMut(&mut Fleet, usize, &mut Tracer) -> Result<(), String>,
) -> Result<DriveStats, String> {
    if requests
        .windows(2)
        .any(|w| w[0].arrival_hours > w[1].arrival_hours)
    {
        return Err("requests are not sorted by arrival".into());
    }
    // Decisions are timed where the fleet emits them, through a public
    // observer, so a tenant decided early in a batch is not charged for
    // the decisions after it.
    let log: Arc<Mutex<Vec<(usize, Decision, Instant)>>> = Arc::default();
    let sink = Arc::clone(&log);
    fleet.observe(Box::new(move |event: &FleetEvent| {
        if let Some((tenant, decision)) = Decision::of(event) {
            sink.lock()
                .expect(LOCK)
                .push((tenant, decision, Instant::now()));
        }
    }));
    let mut stats = DriveStats::default();
    let mut start: Option<Instant> = None;
    let mut rest = requests;
    while let Some(first) = rest.first() {
        let hour = first.arrival_hours;
        let len = rest
            .iter()
            .take_while(|r| r.arrival_hours.to_bits() == hour.to_bits())
            .count();
        let (group, tail) = rest.split_at(len);
        rest = tail;

        step_clock(fleet, &log, &mut stats, tracer, |f| f.step_until(hour));

        let mut pending: Vec<(usize, Instant)> = Vec::with_capacity(group.len());
        for request in group {
            let at = Instant::now();
            start.get_or_insert(at);
            let span = tracer.open("fleet.submit", None);
            let id = fleet.submit(request.clone());
            if let Ok(id) = &id {
                tracer.tag(&span, id.0);
            }
            tracer.close(span);
            let id = id.map_err(|e| format!("submit `{}`: {e}", request.tenant))?;
            pending.push((id.0, at));
        }
        stats.submitted += group.len();

        // The admission decision: step event batches until every tenant of
        // the group has one (normally exactly one batch).
        while !pending.is_empty() {
            let span = tracer.open("fleet.admit", None);
            let t0 = Instant::now();
            let stepped = fleet.step_one_batch();
            let took = t0.elapsed();
            tracer.close(span);
            let batch: Vec<(usize, Decision, Instant)> =
                log.lock().expect(LOCK).drain(..).collect();
            if !batch.is_empty() {
                let share = took / batch.len() as u32;
                for &(_, d, _) in &batch {
                    stats.admit_time[d.index()] += share;
                    stats.admit_n[d.index()] += 1;
                }
            }
            pending.retain(|&(id, at)| match batch.iter().find(|&&(t, _, _)| t == id) {
                Some(&(_, _, decided)) => {
                    stats.latencies_ms.push((decided - at).as_secs_f64() * 1e3);
                    false
                }
                None => true,
            });
            if !stepped && !pending.is_empty() {
                return Err(format!(
                    "fleet ran out of events with {} undecided submissions",
                    pending.len()
                ));
            }
        }
        after_group(fleet, stats.submitted, tracer)?;
    }
    step_clock(fleet, &log, &mut stats, tracer, Fleet::run_to_quiescence);
    stats.wall = start.map_or(Duration::ZERO, |s| s.elapsed());
    Ok(stats)
}

/// Runs one clock-driving call under the `fleet.drive` span and counts
/// the re-plans and the admission decisions (retry arrivals) it made.
fn step_clock(
    fleet: &mut Fleet,
    log: &Mutex<Vec<(usize, Decision, Instant)>>,
    stats: &mut DriveStats,
    tracer: &mut Tracer,
    call: impl FnOnce(&mut Fleet),
) {
    let mark = fleet.events().len();
    let span = tracer.open("fleet.drive", None);
    call(fleet);
    tracer.close(span);
    stats.readmits += log.lock().expect(LOCK).drain(..).count();
    stats.replans += fleet
        .events_since(mark)
        .iter()
        .filter(|e| matches!(e, FleetEvent::Replanned { .. }))
        .count();
}

/// The report with every host-time field cleared, rendered exactly
/// (`Debug` prints floats shortest-round-trip): two fleets that made the
/// same decisions and bills render identically.
pub fn fingerprint(report: &FleetReport) -> String {
    let mut report = report.clone();
    for tenant in &mut report.tenants {
        if let Some(planning) = &mut tenant.planning {
            planning.model_build_time = Duration::ZERO;
            planning.solve_time = Duration::ZERO;
        }
    }
    format!("{report:?}")
}
