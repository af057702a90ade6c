//! The probes only observe: a traced measurement must reproduce the
//! untraced runs' simulated outputs bit for bit, pass the output gate at
//! the recorded seed, and emit every metric `BENCHMARK.json` names — with
//! the layers each workload exercises showing non-zero work.
//!
//! Run with `cargo test --release` from this directory.

use simbench::measure::{per_layer_metrics, END_TO_END, RECORDED_SEED};
use simbench::{measure, Measurement, Mode, Workload};
use std::collections::BTreeMap;

/// Per-layer metrics that must be non-zero on each workload.
fn exercised(w: Workload) -> &'static [&'static str] {
    match w {
        Workload::Grid => &[
            "workload.generate_s",
            "policies.base.hook_s",
            "policies.tpm.hook_s",
            "policies.drpm.hook_s",
            "policies.pdc.hook_s",
            "policies.maid.hook_s",
            "policies.fixed_slow.hook_s",
            "policies.maid.route_s",
            "cache.tier_hit_ratio",
            "core.tick_s",
            "core.ticks",
            "run.maid.oltp.wall_s",
            "run.fixed_slow.cello.wall_s",
        ],
        Workload::Fleet256 => &[
            "workload.generate_s",
            "core.tick_s",
            "core.reconfigurations",
            "fleet.ns_per_event",
            "fleet.placement_s",
            "fleet.epochs",
            "fleet.cap_violation_s",
            "parallel.workers",
            "parallel.cpu_util",
        ],
        Workload::StormAudit => &[
            "workload.pull_s",
            "workload.pulls",
            "policies.base.hook_s",
            "core.boosts",
            "faults.retries",
            "faults.redirects",
            "faults.rebuild_chunks",
            "telemetry.audit_s",
            "telemetry.events",
            "telemetry.bytes",
            "run.base.storm.wall_s",
            "run.hibernator.storm.wall_s",
        ],
    }
}

fn names(metrics: &[(String, f64, &str)]) -> Vec<String> {
    metrics.iter().map(|(n, _, _)| n.clone()).collect()
}

/// Asserts the measurement is correct and complete.
fn check_complete(m: &Measurement) {
    assert!(m.correct(), "{}: {:#?}", m.workload.name(), m.failures);
    let e2e: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
    assert_eq!(names(&m.end_to_end), e2e);
    let layers: Vec<String> = per_layer_metrics().into_iter().map(|(n, _)| n).collect();
    assert_eq!(names(&m.per_layer), layers);
    let values: BTreeMap<String, f64> = m
        .end_to_end
        .iter()
        .chain(&m.per_layer)
        .map(|(n, v, _)| (n.clone(), *v))
        .collect();
    for (name, v) in &values {
        assert!(v.is_finite(), "{name} = {v}");
    }
    for (name, _) in END_TO_END {
        assert!(values[name] > 0.0, "{}: {name} is 0", m.workload.name());
    }
    for name in exercised(m.workload) {
        assert!(values[*name] > 0.0, "{}: {name} is 0", m.workload.name());
    }
}

fn fingerprints(m: &Measurement, mode: Mode) -> Vec<Vec<(String, Option<String>)>> {
    m.passes
        .iter()
        .filter(|(md, _)| *md == mode)
        .map(|(_, units)| {
            units
                .iter()
                .filter(|u| u.fingerprint.is_some())
                .map(|u| (u.label.clone(), u.fingerprint.clone()))
                .collect()
        })
        .collect()
}

fn lockdown(w: Workload) {
    let m = measure(w, RECORDED_SEED, 0.0, true);
    check_complete(&m);
    let plain = fingerprints(&m, Mode::Plain);
    let traced = fingerprints(&m, Mode::Traced);
    assert!(!plain.is_empty() && !traced.is_empty());
    assert_eq!(plain[0], traced[0], "probes changed the simulated outputs");
    if w == Workload::StormAudit {
        let off = fingerprints(&m, Mode::TelemetryOff);
        assert_eq!(plain[0], off[0], "telemetry changed the simulated outputs");
    }
}

#[test]
fn grid_traced_is_bit_identical_and_complete() {
    lockdown(Workload::Grid);
}

#[test]
fn fleet_traced_is_bit_identical_and_complete() {
    lockdown(Workload::Fleet256);
}

#[test]
fn storm_traced_is_bit_identical_and_complete() {
    lockdown(Workload::StormAudit);
}

#[test]
fn benchmark_json_names_every_metric() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let section = |key: &str| {
        let start = json.find(&format!("\"{key}\"")).expect(key);
        let end = json[start..].find(']').expect("section ends") + start;
        json[start..end]
            .split("\"name\"")
            .skip(1)
            .filter_map(|s| s.split('"').nth(1).map(str::to_string))
            .collect::<Vec<_>>()
    };
    let workloads: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(section("workloads"), workloads);
    let e2e: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
    assert_eq!(section("end_to_end"), e2e);
    let layers: Vec<String> = per_layer_metrics().into_iter().map(|(n, _)| n).collect();
    assert_eq!(section("per_layer"), layers);
}
