//! `grid` — the 16 serial runs of `repro --quick --jobs 1 t3`: every
//! policy of the headline table on OLTP and on Cello, from materialised
//! traces, with telemetry off.

use crate::probe::{self, Sink};
use crate::scenario::{self, Input, Load, Policy, Sim, Span, Unit, GOAL_FACTOR};
use array::RunReport;
use std::time::Instant;
use workload::Trace;

/// The materialised traces every run replays.
pub struct Setup {
    oltp: Trace,
    cello: Trace,
    generate_s: f64,
}

impl Setup {
    /// Generates both traces for `seed` (the timed set-up).
    pub fn new(seed: u64) -> Setup {
        let t0 = Instant::now();
        let oltp = Load::Oltp.spec().generate(seed);
        let cello = Load::Cello.spec().generate(seed);
        Setup {
            oltp,
            cello,
            generate_s: t0.elapsed().as_secs_f64(),
        }
    }

    /// Host time of trace generation, s.
    pub fn generate_s(&self) -> f64 {
        self.generate_s
    }

    /// The trace of `load`.
    pub fn trace(&self, load: Load) -> &Trace {
        match load {
            Load::Oltp => &self.oltp,
            Load::Cello => &self.cello,
        }
    }
}

/// One grid run, exactly as `repro` makes it (probed when `probe` is set).
pub fn run(
    setup: &Setup,
    seed: u64,
    policy: Policy,
    load: Load,
    goal_s: f64,
    probe: Option<&Sink>,
) -> (RunReport, Vec<Span>) {
    let input = Input::Trace(setup.trace(load));
    let opts = scenario::run_options();
    scenario::run(policy, load.array_config(seed), input, opts, goal_s, probe)
}

/// Runs the whole grid once: Base on both loads first (their mean
/// responses set the goals), then every other policy on OLTP and Cello,
/// in `repro`'s order.
pub fn pass(setup: &Setup, seed: u64, traced: bool) -> Vec<Unit> {
    let mut units = Vec::with_capacity(2 * Policy::GRID.len());
    let mut goals = [0.0; 2];
    for (i, load) in [Load::Oltp, Load::Cello].into_iter().enumerate() {
        let (unit, report) = timed_run(setup, seed, Policy::Base, load, f64::MAX, traced);
        goals[i] = report.response.mean() * GOAL_FACTOR;
        units.push(unit);
    }
    for policy in &Policy::GRID[1..] {
        for (i, load) in [Load::Oltp, Load::Cello].into_iter().enumerate() {
            units.push(timed_run(setup, seed, *policy, load, goals[i], traced).0);
        }
    }
    units
}

fn timed_run(
    setup: &Setup,
    seed: u64,
    policy: Policy,
    load: Load,
    goal_s: f64,
    traced: bool,
) -> (Unit, RunReport) {
    let sink = traced.then(probe::sink);
    let (report, spans) = run(setup, seed, policy, load, goal_s, sink.as_ref());
    let mut problems = Vec::new();
    let fed = setup.trace(load).len() as u64;
    if report.completed + report.incomplete != fed {
        problems.push(format!(
            "request conservation: {} completed + {} incomplete != {fed} fed",
            report.completed, report.incomplete
        ));
    }
    let joules = report.energy.total_joules();
    if !(joules.is_finite() && joules > 0.0) {
        problems.push(format!("energy {joules} J is not positive and finite"));
    }
    let unit = Unit {
        label: format!("{}/{}", policy.label(), load.label()),
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
