//! The benchmark's own tests: the client drives the fleet exactly as the
//! repository's reference driver does, tracing does not change what the
//! fleet decides, and the names the benchmark prints are the names
//! `BENCHMARK.json` declares.

use conductor_bench::experiments::{churn_fixture, run_fleet_online};
use conductor_core::{ConductorService, FleetJobRequest, FleetReport};
use perfbench::driver::{drive, fingerprint};
use perfbench::metrics::{end_to_end_metrics, per_layer_metrics, Metric};
use perfbench::run::{self, Kind, Totals};
use perfbench::trace::Tracer;
use perfbench::workloads::{self, Seeds};
use serde_json::Json;
use std::time::Duration;

fn drive_report(
    requests: &[FleetJobRequest],
    service: &ConductorService,
    traced: bool,
) -> FleetReport {
    let mut fleet = service.open().expect("fleet opens");
    let mut tracer = Tracer::new(traced);
    drive(&mut fleet, requests, &mut tracer, |_, _, _| Ok(())).expect("drive succeeds");
    assert_eq!(tracer.spans().is_empty(), !traced);
    fleet.report()
}

#[test]
fn seed_zero_is_the_canonical_churn_fixture() {
    let (canonical, _) = churn_fixture(30, 1.0);
    let (ours, _) = workloads::churn(Seeds::derive(0, 0), 30);
    assert_eq!(format!("{canonical:?}"), format!("{ours:?}"));
    assert_ne!(Seeds::derive(1, 0), Seeds::derive(0, 1));
}

#[test]
fn group_driver_matches_run_fleet_online_on_churn_traced_or_not() {
    let (requests, service) = workloads::churn(Seeds::CANONICAL, 16);
    let expected = fingerprint(&run_fleet_online(&service, &requests));
    assert_eq!(
        fingerprint(&drive_report(&requests, &service, false)),
        expected
    );
    assert_eq!(
        fingerprint(&drive_report(&requests, &service, true)),
        expected
    );
}

#[test]
fn group_driver_matches_run_fleet_online_on_burst_traced_or_not() {
    let (requests, service) = workloads::burst(Seeds::CANONICAL, 4);
    assert!(
        requests
            .windows(2)
            .any(|w| w[0].arrival_hours == w[1].arrival_hours),
        "burst groups arrive together"
    );
    let reference = run_fleet_online(&service, &requests);
    assert!(reference.plan_cache_hits > 0, "the plan cache is exercised");
    let expected = fingerprint(&reference);
    assert_eq!(
        fingerprint(&drive_report(&requests, &service, false)),
        expected
    );
    assert_eq!(
        fingerprint(&drive_report(&requests, &service, true)),
        expected
    );
}

fn field<'a>(json: &'a Json, key: &str) -> &'a Json {
    json.as_object()
        .and_then(|o| o.iter().find(|(k, _)| k == key))
        .map(|(_, v)| v)
        .unwrap_or_else(|| panic!("BENCHMARK.json lacks `{key}`"))
}

fn declared(json: &Json, list: &str) -> Vec<(String, String)> {
    field(json, list)
        .as_array()
        .expect("a list")
        .iter()
        .map(|m| {
            let name = field(m, "name").as_str().expect("name").to_string();
            let unit = field(m, "unit").as_str().expect("unit").to_string();
            (name, unit)
        })
        .collect()
}

fn printed(metrics: &[Metric]) -> Vec<(String, String)> {
    metrics
        .iter()
        .map(|m| (m.name.clone(), m.unit.to_string()))
        .collect()
}

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    serde_json::parse(&text).expect("BENCHMARK.json parses")
}

#[test]
fn printed_metrics_and_workloads_are_the_declared_ones() {
    let json = benchmark_json();
    let totals = Totals::default();
    assert_eq!(
        printed(&end_to_end_metrics(&totals)),
        declared(&json, "end_to_end")
    );
    let layers = per_layer_metrics(&totals, &Tracer::new(false), Duration::from_secs(1));
    assert_eq!(printed(&layers), declared(&json, "per_layer"));
    let workloads: Vec<&str> = field(&json, "workloads")
        .as_array()
        .expect("a list")
        .iter()
        .map(|w| field(w, "name").as_str().expect("name"))
        .collect();
    let ours: Vec<&str> = Kind::ALL.iter().map(|k| k.name()).collect();
    assert_eq!(workloads, ours);
}

#[test]
fn every_workload_runs_clean_and_names_its_spans_after_declared_metrics() {
    let json = benchmark_json();
    let layers: Vec<String> = declared(&json, "per_layer")
        .into_iter()
        .map(|(name, _)| name)
        .collect();
    for kind in Kind::ALL {
        let mut tracer = Tracer::new(true);
        let totals = run::run(kind, 1, 1, &mut tracer);
        assert!(
            totals.failures.is_empty(),
            "{}: {:?}",
            kind.name(),
            totals.failures
        );
        assert!(totals.attempted > 0 && totals.served > 0, "{}", kind.name());
        for span in tracer.spans() {
            let metric = format!("{}_ms", span.name);
            let prefix = format!("{metric}.");
            assert!(
                layers
                    .iter()
                    .any(|l| *l == metric || l.starts_with(&prefix)),
                "{}: span `{}` has no per-layer metric",
                kind.name(),
                span.name
            );
        }
    }
}
