//! Seeded input generators, one per workload.
//!
//! Every generator takes its seeds as arguments and builds only inputs —
//! requests, a spot trace, a fault plan, deployment options — which the
//! program then receives through its public API. [`Seeds::CANONICAL`] are
//! the seeds of the repository's canonical fixtures
//! (`conductor_bench::experiments::churn_fixture` and
//! `faulted_churn_fixture`), and benchmark seed 0 maps onto them.

use conductor_bench::experiments::{churn_policy, churn_requests, churn_service};
use conductor_cloud::catalog::mbps_to_gb_per_hour;
use conductor_core::{ConductorService, FailurePolicy, FleetJobRequest, Goal};
use conductor_mapreduce::engine::DeploymentOptions;
use conductor_mapreduce::{JobSpec, Workload};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// The seeds one workload instance is generated from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Seeds {
    /// Arrival times, sizes and deadlines of the requests.
    pub requests: u64,
    /// The spot-price trace.
    pub trace: u64,
    /// The injected task failures and node crashes.
    pub faults: u64,
}

impl Seeds {
    /// The canonical fixture seeds.
    pub const CANONICAL: Seeds = Seeds {
        requests: 20_260_729,
        trace: 17,
        faults: 20_260_808,
    };

    /// The seeds of benchmark seed `seed`, episode `episode` of a run.
    /// Requests and faults use the canonical seeds offset by
    /// `seed + episode·φ` (φ = 0x9E3779B97F4A7C15), so runs with distinct
    /// seeds share no episode. The spot trace is offset by `episode·φ`
    /// alone: episode `e` of every run faces the same market, because
    /// storms in the trace are the largest fleet-wide draw and would
    /// otherwise dominate the spread across seeds. Seed 0, episode 0 is the
    /// canonical fixture.
    pub fn derive(seed: u64, episode: u64) -> Seeds {
        let market = episode.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let offset = seed.wrapping_add(market);
        Seeds {
            requests: Self::CANONICAL.requests.wrapping_add(offset),
            trace: Self::CANONICAL.trace.wrapping_add(market),
            faults: Self::CANONICAL.faults.wrapping_add(offset),
        }
    }
}

/// Mean hours between churn arrivals, as in the canonical fixture.
pub const CHURN_MEAN_GAP_HOURS: f64 = 1.0;
/// Fleet-wide m1.large cap, as in the canonical fixture.
pub const FLEET_CAP: usize = 150;

/// The churn inputs `faulted-durable` builds on: Poisson arrivals with the
/// 8/16/32 GB mix on the storm-bearing, 150-node production-default
/// service. With [`Seeds::CANONICAL`] this is exactly
/// `churn_fixture(jobs, 1.0)`.
pub fn churn(seeds: Seeds, jobs: usize) -> (Vec<FleetJobRequest>, ConductorService) {
    let requests = churn_requests(seeds.requests, jobs, CHURN_MEAN_GAP_HOURS);
    let horizon = last_arrival(&requests) + 200.0;
    let service = churn_service(seeds.trace, FLEET_CAP, horizon.ceil() as usize);
    (requests, service)
}

/// `faulted-durable`: the churn inputs under the failure policy of
/// `faulted_churn_fixture(jobs, 1.0)` — seeded task failures and node
/// crashes, retries with backoff, the dead-letter queue and the spot
/// circuit breaker — without its admission gate. Whether the gate trips
/// in a fleet is an on/off draw of the fault seed that halves the fleet's
/// served share, which left the spread across seeds wider than the
/// benchmark's bounds.
pub fn faulted(seeds: Seeds, jobs: usize) -> (Vec<FleetJobRequest>, ConductorService) {
    let (requests, service) = churn(seeds, jobs);
    let horizon = last_arrival(&requests) + 24.0;
    let policy = FailurePolicy {
        failure_threshold: None,
        ..churn_policy(seeds.faults, jobs, horizon)
    };
    (requests, service.with_failure_policy(policy))
}

/// `burst`: `groups` groups of 3–8 simultaneous look-alike arrivals,
/// 8–16 hours apart. Each group takes one size from the churn mix and
/// uses that size's single deadline, so its members share one plan-cache
/// key; the plan cache is on. Groups this far apart leave most of them
/// decided by cache hits alone, which keeps the median latency off the
/// boundary between hit and solve latencies. Sizes are dealt from a
/// shuffled deck of ten — five 8 GB, three 16 GB, two 32 GB — refilled
/// when empty, so every ten groups hold the mix exactly: the bill per
/// served request depends mostly on the size mix, and free draws made it
/// vary across seeds.
pub fn burst(seeds: Seeds, groups: usize) -> (Vec<FleetJobRequest>, ConductorService) {
    let mut rng = SmallRng::seed_from_u64(seeds.requests);
    let mut at = 0.0f64;
    let mut requests = Vec::new();
    let mut deck: Vec<u32> = Vec::new();
    for g in 0..groups {
        at += rng.gen_range(8.0..16.0);
        let members = rng.gen_range(3usize..9);
        if deck.is_empty() {
            deck = (0..10).collect();
            for i in (1..deck.len()).rev() {
                deck.swap(i, rng.gen_range(0..i + 1));
            }
        }
        let card = deck.pop().expect("the deck was just refilled");
        let (spec, deadline_hours) = match card {
            0..=4 => (Workload::KMeansScaled { input_gb: 8 }.spec(), 5.0),
            5..=7 => (Workload::KMeansScaled { input_gb: 16 }.spec(), 6.5),
            _ => (Workload::KMeans32Gb.spec(), 7.5),
        };
        for m in 0..members {
            requests.push(FleetJobRequest::new(
                format!("burst-{g:03}-{m}"),
                spec.clone(),
                Goal::MinimizeCost { deadline_hours },
                at,
            ));
        }
    }
    let horizon = last_arrival(&requests) + 200.0;
    let service =
        churn_service(seeds.trace, FLEET_CAP, horizon.ceil() as usize).with_plan_cache(true);
    (requests, service)
}

/// One planner-free deployment of the `engine-large` workload.
#[derive(Debug, Clone)]
pub struct Deployment {
    /// Input size in GB; also the deployment's metric label.
    pub input_gb: u32,
    /// The computation.
    pub spec: JobSpec,
    /// Nodes, uplink and deadline.
    pub options: DeploymentOptions,
}

/// Input sizes and node counts of `engine-large`, smallest first.
pub const ENGINE_SIZES: [(u32, usize); 3] = [(256, 100), (512, 200), (1024, 400)];

/// `engine-large`: one deployment per [`ENGINE_SIZES`] entry, 64 MB splits
/// on m1.large nodes, in seeded order, over a seeded 180–220 Mbit/s
/// uplink. The deadline leaves twice the upload time plus two hours.
pub fn engine_large(seeds: Seeds) -> Vec<Deployment> {
    let mut rng = SmallRng::seed_from_u64(seeds.requests);
    let uplink = mbps_to_gb_per_hour(rng.gen_range(180.0..220.0));
    let mut deployments: Vec<Deployment> = ENGINE_SIZES
        .iter()
        .map(|&(input_gb, nodes)| {
            let options = DeploymentOptions {
                max_hours: 2_000.0,
                deadline_hours: Some(2.0 * input_gb as f64 / uplink + 2.0),
                ..DeploymentOptions::new(format!("engine-{input_gb}gb"), uplink)
                    .with_nodes("m1.large", nodes, 0.0)
            };
            Deployment {
                input_gb,
                spec: Workload::KMeansScaled { input_gb }.spec(),
                options,
            }
        })
        .collect();
    // Seeded Fisher–Yates shuffle.
    for i in (1..deployments.len()).rev() {
        deployments.swap(i, rng.gen_range(0..i + 1));
    }
    deployments
}

fn last_arrival(requests: &[FleetJobRequest]) -> f64 {
    requests.last().map_or(0.0, |r| r.arrival_hours)
}
