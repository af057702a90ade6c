//! Cross-commit pin of a faulted, migrating run.
//!
//! `fault_tolerance.rs` only compares a faulted run with itself, and the
//! golden t3 stream has no faults and no migrations. This test runs a
//! small RAID-5 fault scenario with telemetry on and compares the stream
//! against a digest recorded once and committed below: FNV-1a 64 over the
//! JSON-lines bytes, the line count, and the count of every `ev` kind. Any
//! change to the retry path, the degraded-mode routing or the migration
//! engine's job and piece bookkeeping that moves a single byte fails it.
//!
//! The schedule is chosen so the stream covers the rare edges, not just
//! the common ones:
//! * a transient burst with one allowed retry on disk 1 exhausts retries,
//!   losing volumes although their stripes are alive;
//! * the first failure (disk 2) starts a rebuild wave, and the second
//!   (disk 5) lands 3.6 s later while jobs read from or write to it, so
//!   the engine tears active jobs down (`mig_drop`) and orphans their
//!   pieces;
//! * PDC's two-minute epochs keep relocations in flight, and foreground
//!   writes dirty chunks that are mid-copy (`mig_abort`).
//!
//! If the digest changes on purpose, the failure message prints the new
//! values to paste in.

use array::{run_policy, ArrayConfig, Redundancy, RunOptions, RunReport};
use faults::{FaultConfig, FaultEvent, FaultKind, FaultPlan, FaultSchedule};
use policies::{PdcConfig, PdcPolicy};
use simkit::{SimDuration, SimTime};
use std::collections::BTreeMap;
use telemetry::TelemetryConfig;
use workload::WorkloadSpec;

const DURATION_S: f64 = 900.0;

/// Digest of the stream, recorded once; every later commit must
/// reproduce it byte for byte.
const EXPECTED_FNV1A: u64 = 0xecee086b5b6c4443;
const EXPECTED_LINES: usize = 32822;
const EXPECTED_EVS: &[(&str, u64)] = &[
    ("disk", 6),
    ("fault", 3),
    ("mig_abort", 3),
    ("mig_drop", 2),
    ("mig_moved", 3017),
    ("mig_start", 3022),
    ("power", 15),
    ("run_end", 1),
    ("run_start", 1),
    ("served", 26752),
];
/// Transient errors, retries, lost volumes and degraded redirects: the
/// retry path's counters, which the stream does not carry.
const EXPECTED_FAULTS: [u64; 4] = [305, 200, 79, 16];

fn plan() -> FaultPlan {
    let at = |f: f64| SimTime::from_secs(DURATION_S * f);
    FaultPlan {
        schedule: FaultSchedule::new(vec![
            FaultEvent {
                time: at(0.15),
                disk: 1,
                kind: FaultKind::TransientBurst {
                    error_prob: 0.5,
                    duration_s: DURATION_S * 0.1,
                },
            },
            FaultEvent {
                time: at(0.4),
                disk: 2,
                kind: FaultKind::DiskFailure,
            },
            FaultEvent {
                time: at(0.405),
                disk: 5,
                kind: FaultKind::DiskFailure,
            },
        ]),
        config: FaultConfig {
            max_retries: 1,
            ..FaultConfig::default()
        },
    }
}

fn run() -> RunReport {
    let mut spec = WorkloadSpec::oltp(DURATION_S, 30.0);
    spec.extents = 1024;
    let trace = spec.generate(41);
    let mut config = ArrayConfig::default_for_volume(1 << 30);
    config.disks = 6;
    config.seed = 41;
    config.redundancy = Redundancy::Raid5Like;
    let mut opts = RunOptions::with_faults(DURATION_S, plan());
    opts.telemetry = Some(TelemetryConfig::new("fault-digest").with_goal(0.02, 90.0));
    let pdc = PdcPolicy::new(PdcConfig {
        epoch: SimDuration::from_secs(120.0),
        heat_tau: SimDuration::from_secs(120.0),
        ..PdcConfig::default()
    });
    run_policy(config, pdc, &trace, opts)
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Count of every `ev` kind in the stream.
fn ev_counts(text: &str) -> BTreeMap<&str, u64> {
    let mut counts = BTreeMap::new();
    for line in text.lines() {
        let ev = line
            .strip_prefix("{\"ev\":\"")
            .and_then(|rest| rest.split('"').next())
            .unwrap_or_else(|| panic!("line without a leading ev: {line}"));
        *counts.entry(ev).or_insert(0) += 1;
    }
    counts
}

#[test]
fn faulted_migrating_run_matches_recorded_digest() {
    let mut report = run();
    let bytes = report.telemetry.take().expect("telemetry stream").bytes;
    let text = std::str::from_utf8(&bytes).expect("stream is UTF-8");
    let evs = ev_counts(text);
    let count = |ev: &str| evs.get(ev).copied().unwrap_or(0);

    // The scenario reaches the edges it was chosen for.
    let f = report.faults;
    assert_eq!(f.disk_failures, 2);
    assert!(count("mig_drop") >= 1, "no job torn down by a failure");
    assert!(count("mig_abort") >= 1, "no dirty-aborted job");
    assert!(
        f.transient_errors > f.retries,
        "no transient error exhausted its retries"
    );
    assert!(f.lost_requests >= 1);

    let got_fnv = fnv1a(&bytes);
    let got_lines = text.lines().count();
    let got_evs: Vec<(&str, u64)> = evs.into_iter().collect();
    let got_faults = [
        f.transient_errors,
        f.retries,
        f.lost_requests,
        f.degraded_redirects,
    ];
    assert!(
        got_fnv == EXPECTED_FNV1A
            && got_lines == EXPECTED_LINES
            && got_evs == EXPECTED_EVS
            && got_faults == EXPECTED_FAULTS,
        "faulted run digest changed:\n\
         const EXPECTED_FNV1A: u64 = {got_fnv:#018x};\n\
         const EXPECTED_LINES: usize = {got_lines};\n\
         const EXPECTED_EVS: &[(&str, u64)] = &{got_evs:?};\n\
         const EXPECTED_FAULTS: [u64; 4] = {got_faults:?};",
    );
}
