//! Cross-commit pin of MAID's cache-disk tier under eviction pressure.
//!
//! The golden t3 stream is too short to fill MAID's tier, and the seed-42
//! fingerprints are checked only by the benchmark package, so no test-suite
//! run would notice a change to `cache::TierDirectory`'s victim order or
//! slot assignment. This test runs MAID with a 2 × 32-chunk tier on a
//! skewed OLTP trace whose hot set is many times the tier, with telemetry
//! on, and compares the stream against a digest recorded once and
//! committed below: FNV-1a 64 over the JSON-lines bytes, the line count,
//! the count of every `ev` kind, and the number of promotions (raw writes
//! to the tier). Every read hit is served from the tier slot the directory
//! names, so evicting a different victim or handing out a different slot
//! moves bytes in the stream.
//!
//! If the digest changes on purpose, the failure message prints the new
//! values to paste in.

use array::{ArrayConfig, RunOptions, Simulation};
use policies::{maid_array_config, MaidConfig, MaidPolicy};
use std::collections::BTreeMap;
use telemetry::TelemetryConfig;
use workload::WorkloadSpec;

const DURATION_S: f64 = 600.0;
const CACHE_DISKS: usize = 2;
const CHUNKS_PER_DISK: u32 = 32;

/// Digest of the stream, recorded once; every later commit must
/// reproduce it byte for byte.
const EXPECTED_FNV1A: u64 = 0x2dbd9cb2e7f34172;
const EXPECTED_LINES: usize = 36930;
const EXPECTED_EVS: &[(&str, u64)] = &[
    ("disk", 6),
    ("mig_moved", 9492),
    ("mig_start", 9492),
    ("power", 10),
    ("run_end", 1),
    ("run_start", 1),
    ("served", 17928),
];
/// Promotions into the tier: one raw write per read miss.
const EXPECTED_RAW_WRITES: u64 = 9492;

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
fn evicting_maid_run_matches_recorded_digest() {
    let mut spec = WorkloadSpec::oltp(DURATION_S, 30.0);
    spec.extents = 1024;
    spec.zipf_theta = 0.9;
    let trace = spec.generate(43);
    let mut config = ArrayConfig::default_for_volume(1 << 30);
    config.disks = 6;
    config.seed = 43;
    let config = maid_array_config(config, CACHE_DISKS);
    let mut opts = RunOptions::for_horizon(DURATION_S);
    opts.telemetry = Some(TelemetryConfig::new("maid-digest").with_goal(0.02, 90.0));
    let maid = MaidPolicy::new(MaidConfig {
        cache_disks: CACHE_DISKS,
        cache_chunks_per_disk: CHUNKS_PER_DISK,
        tpm_threshold_s: Some(60.0),
    });
    let (mut report, policy) = Simulation::new(config, maid, &trace, opts).run_returning_policy();
    let bytes = report.telemetry.take().expect("telemetry stream").bytes;
    let text = std::str::from_utf8(&bytes).expect("stream is UTF-8");

    // The scenario reaches the regime it was chosen for: the tier fills,
    // then evicts many times over while still serving hits.
    let capacity = CACHE_DISKS * CHUNKS_PER_DISK as usize;
    let raw_writes = report.migration.raw_writes;
    assert_eq!(report.incomplete, 0);
    assert_eq!(policy.cached_chunks(), capacity, "tier never filled");
    assert!(
        raw_writes > 20 * capacity as u64,
        "too few evictions: {raw_writes} promotions into {capacity} slots"
    );
    let hit_ratio = policy.hit_ratio();
    assert!(
        (0.05..0.95).contains(&hit_ratio),
        "hit ratio {hit_ratio} leaves no hits or no misses to pin"
    );

    let got_fnv = fnv1a(&bytes);
    let got_lines = text.lines().count();
    let got_evs: Vec<(&str, u64)> = ev_counts(text).into_iter().collect();
    assert!(
        got_fnv == EXPECTED_FNV1A
            && got_lines == EXPECTED_LINES
            && got_evs == EXPECTED_EVS
            && raw_writes == EXPECTED_RAW_WRITES,
        "MAID tier digest changed:\n\
         const EXPECTED_FNV1A: u64 = {got_fnv:#018x};\n\
         const EXPECTED_LINES: usize = {got_lines};\n\
         const EXPECTED_EVS: &[(&str, u64)] = &{got_evs:?};\n\
         const EXPECTED_RAW_WRITES: u64 = {raw_writes};",
    );
}
