//! `storm_audit` — Base, then Hibernator, through the scripted fault storm
//! of `repro --quick faults` on a RAID-5-like array fed by a streamed OLTP
//! source, with telemetry on; both streams are then serialised and
//! replayed through the telemetry auditor.

use crate::measure::Mode;
use crate::probe::{self, Sink};
use crate::scenario::{self, Input, Load, Policy, Sim, Span, Unit, GOAL_FACTOR, HORIZON_S};
use array::{ArrayConfig, Redundancy, RunOptions, RunReport};
use faults::{FaultConfig, FaultEvent, FaultKind, FaultPlan, FaultSchedule};
use simkit::SimTime;
use telemetry::TelemetryConfig;
use workload::WorkloadSpec;

/// The audit unit's label.
pub const AUDIT_LABEL: &str = "audit/storm";
/// Warm-up excluded from the goal-violation accounting of both runs.
const WARMUP_S: f64 = 600.0;

/// The storm of `repro faults` for a run of `horizon_s` seconds: disk 3
/// dies at 30 % of the horizon after a transient burst and a
/// sticky-spindle window, disk 9 dies at 55 % after a burst, and disk 5
/// suffers a late burst that only the retry machinery sees.
pub fn storm(horizon_s: f64) -> FaultSchedule {
    let at = |f: f64| SimTime::from_secs(horizon_s * f);
    let burst = |error_prob: f64, f: f64| FaultKind::TransientBurst {
        error_prob,
        duration_s: horizon_s * f,
    };
    FaultSchedule::new(vec![
        FaultEvent {
            time: at(0.27),
            disk: 3,
            kind: burst(0.2, 0.03),
        },
        FaultEvent {
            time: at(0.25),
            disk: 3,
            kind: FaultKind::SlowTransition {
                factor: 3.0,
                duration_s: horizon_s * 0.05,
            },
        },
        FaultEvent {
            time: at(0.30),
            disk: 3,
            kind: FaultKind::DiskFailure,
        },
        FaultEvent {
            time: at(0.52),
            disk: 9,
            kind: burst(0.15, 0.03),
        },
        FaultEvent {
            time: at(0.55),
            disk: 9,
            kind: FaultKind::DiskFailure,
        },
        FaultEvent {
            time: at(0.70),
            disk: 5,
            kind: burst(0.1, 0.02),
        },
    ])
}

/// The storm's array, fault plan and request spec.
pub struct Setup {
    config: ArrayConfig,
    opts: RunOptions,
    spec: WorkloadSpec,
}

impl Setup {
    /// Builds the RAID-5-like array, the storm plan and the OLTP spec, and
    /// opens one request stream to check the spec (the timed set-up).
    pub fn new(seed: u64) -> Setup {
        let mut config = Load::Oltp.array_config(seed);
        config.redundancy = Redundancy::Raid5Like;
        let mut opts = scenario::run_options();
        opts.faults = Some(FaultPlan {
            schedule: storm(HORIZON_S),
            config: FaultConfig::default(),
        });
        let spec = Load::Oltp.spec();
        std::hint::black_box(spec.stream(seed));
        Setup { config, opts, spec }
    }
}

/// One storm run (probed when `probe` is set); telemetry is recorded
/// under `repro faults`' label when `telemetry` is on.
pub fn run(
    setup: &Setup,
    seed: u64,
    policy: Policy,
    goal_s: f64,
    telemetry: bool,
    probe: Option<&Sink>,
) -> (RunReport, Vec<Span>) {
    let mut opts = setup.opts.clone();
    if telemetry {
        let label = format!("faults/{}", policy.label());
        opts.telemetry = Some(TelemetryConfig::new(label).with_goal(goal_s, WARMUP_S));
    }
    let input = Input::Stream(setup.spec.stream(seed));
    scenario::run(policy, setup.config.clone(), input, opts, goal_s, probe)
}

/// The storm once: Base (whose mean response sets the goal), Hibernator,
/// then — with telemetry on — the audit of both streams.
pub fn pass(setup: &Setup, seed: u64, mode: Mode) -> Vec<Unit> {
    let telemetry = mode != Mode::TelemetryOff;
    let (base, mut base_report) = timed_run(setup, seed, Policy::Base, f64::MAX, mode);
    let goal = base_report.response.mean() * GOAL_FACTOR;
    let (hib, mut hib_report) = timed_run(setup, seed, Policy::Hibernator, goal, mode);
    let mut units = vec![base, hib];
    if telemetry {
        let streams = [base_report.telemetry.take(), hib_report.telemetry.take()];
        drop((base_report, hib_report));
        units.push(audit(streams));
    }
    units
}

fn timed_run(
    setup: &Setup,
    seed: u64,
    policy: Policy,
    goal_s: f64,
    mode: Mode,
) -> (Unit, RunReport) {
    let sink = (mode == Mode::Traced).then(probe::sink);
    let telemetry = mode != Mode::TelemetryOff;
    let (report, spans) = run(setup, seed, policy, goal_s, telemetry, sink.as_ref());
    let mut problems = Vec::new();
    if telemetry && report.telemetry.is_none() {
        problems.push("telemetry stream missing".to_string());
    }
    let unit = Unit {
        label: format!("{}/storm", policy.label()),
        policy: Some(policy),
        spans,
        workers: 1,
        fingerprint: Some(scenario::fingerprint(&report)),
        problems,
        sim: Sim::of(&report),
        tally: sink.map(|s| probe::read(&s)).unwrap_or_default(),
        extra: Vec::new(),
    };
    (unit, report)
}

/// Serialises both run streams into one JSON-lines body, ordered by label
/// as `repro --telemetry-out` writes it, and replays it through
/// `telemetry::audit::audit_bytes`.
fn audit(streams: [Option<telemetry::RunStream>; 2]) -> Unit {
    let ((events, bytes, problems), span) = scenario::clocked(|| {
        let mut streams: Vec<_> = streams.into_iter().flatten().collect();
        streams.sort_by(|a, b| a.label.cmp(&b.label));
        let mut body = Vec::with_capacity(streams.iter().map(|s| s.bytes.len()).sum());
        for s in &streams {
            body.extend_from_slice(&s.bytes);
        }
        drop(streams);
        let mut problems = Vec::new();
        let events = match telemetry::audit::audit_bytes(&body) {
            Ok(outcome) => {
                for run in &outcome.runs {
                    for c in run.checks.iter().filter(|c| !c.passed) {
                        problems.push(format!("{}: {} failed: {}", run.label, c.name, c.detail));
                    }
                }
                if outcome.runs.len() != 2 {
                    problems.push(format!("audited {} runs, expected 2", outcome.runs.len()));
                }
                outcome.runs.iter().map(|r| r.events).sum::<usize>()
            }
            Err(e) => {
                problems.push(format!("stream does not parse: {e:?}"));
                0
            }
        };
        (events, body.len(), problems)
    });
    Unit {
        label: AUDIT_LABEL.to_string(),
        spans: vec![span],
        workers: 1,
        problems,
        extra: vec![
            ("telemetry.events", events as f64),
            ("telemetry.bytes", bytes as f64),
        ],
        ..Unit::default()
    }
}
