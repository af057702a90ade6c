//! A stream longer than four million events must still audit.
//!
//! Full-scale OLTP issues about 150 requests a second, and every served
//! request is one `served` event, so a day-long run records some 13 M
//! events. A recorder that kept only the newest 4 000 000 events lost the
//! `run_start` header first, and the run failed its own `stream-shape`
//! audit. This test records eight hours of Base on a streamed OLTP trace
//! (about 4.3 M `served` events, past that old bound) and audits it.
//!
//! It takes about 8 s and 370 MB in release mode, so it is ignored by
//! default. Run it with
//! `cargo test --release --test telemetry_full_scale -- --ignored`.

use array::{run_policy_streamed, ArrayConfig, BasePolicy, RunOptions};
use telemetry::TelemetryConfig;
use workload::WorkloadSpec;

const HORIZON_S: f64 = 8.0 * 3600.0;

#[test]
#[ignore = "release-mode scale test; run with --release -- --ignored"]
fn eight_hour_oltp_stream_keeps_every_event_and_audits() {
    let spec = WorkloadSpec::oltp(HORIZON_S, 150.0);
    let config = ArrayConfig::default_for_volume(spec.footprint_sectors() * 512);
    let mut opts = RunOptions::for_horizon(HORIZON_S);
    opts.telemetry = Some(TelemetryConfig::new("full-scale/base"));
    let mut report = run_policy_streamed(config, BasePolicy, spec.stream(42), opts);
    let bytes = report.telemetry.take().expect("telemetry stream").bytes;
    let text = std::str::from_utf8(&bytes).expect("stream is UTF-8");

    let trailer = text.lines().last().expect("non-empty stream");
    let dropped = trailer
        .split("\"dropped\":")
        .nth(1)
        .and_then(|v| v.trim_end_matches('}').parse::<u64>().ok())
        .expect("run_end trailer with a dropped count");
    assert_eq!(dropped, 0, "the recorder dropped events");
    assert!(
        text.starts_with("{\"ev\":\"run_start\""),
        "the run_start header is missing"
    );
    let served = text.matches("{\"ev\":\"served\"").count() as u64;
    assert!(
        served > 4_000_000,
        "only {served} served events: the run is too short to test the old bound"
    );
    assert_eq!(served, report.completed);

    let outcome = telemetry::audit::audit_bytes(&bytes).expect("parsable stream");
    assert_eq!(outcome.runs.len(), 1);
    for check in &outcome.runs[0].checks {
        assert!(check.passed, "{} failed: {}", check.name, check.detail);
    }
}
