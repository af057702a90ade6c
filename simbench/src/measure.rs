//! The measurement loop: set-up repetitions, timed passes within the run
//! budget, the output gate, and the reduction of passes to metrics.

use crate::scenario::{Load, Policy, Span, Unit};
use crate::{fleet, gauge, grid, storm, sys};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// The seed whose simulated outputs are recorded in `expected/`.
pub const RECORDED_SEED: u64 = 42;

/// The recorded fingerprints: `<workload> <run label> <fingerprint>` per
/// line, written by `simbench --emit-fingerprints` at the seed commit.
const EXPECTED: &str = include_str!("../expected/seed42.txt");

/// An untraced measurement makes at least this many passes, whatever its
/// budget, so its unit times are means of several samples.
const MIN_PLAIN_PASSES: usize = 3;

/// Set-up runs at least this many times per measurement...
const SETUP_MIN_REPS: usize = 5;
/// ...and until this much host time has gone into it (cheap set-ups
/// repeat more, so their median is steady)...
const SETUP_MIN_S: f64 = 0.5;
/// ...but never more often than this.
const SETUP_MAX_REPS: usize = 1000;

/// The end-to-end metrics and their units, in report order.
pub const END_TO_END: [(&str, &str); 6] = [
    ("wall_s", "s"),
    ("events_per_s", "events/s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
    ("hib_energy_kj", "kJ"),
];

/// Every per-layer metric and its unit, in report order.
pub fn per_layer_metrics() -> Vec<(String, &'static str)> {
    let mut m: Vec<(String, &'static str)> = Vec::new();
    let mut add = |name: &str, unit: &'static str| m.push((name.to_string(), unit));
    add("workload.generate_s", "s");
    add("workload.pull_s", "s");
    add("workload.pulls", "count");
    for p in Policy::GRID.iter().filter(|p| !p.is_core()) {
        add(&format!("policies.{}.hook_s", p.key()), "s");
    }
    add("policies.maid.route_s", "s");
    add("cache.tier_hit_ratio", "fraction");
    add("core.tick_s", "s");
    add("core.arrival_s", "s");
    add("core.completion_s", "s");
    add("core.other_s", "s");
    add("core.ticks", "count");
    add("core.reconfigurations", "count");
    add("core.boosts", "count");
    add("array.driver_self_s", "s");
    add("array.ns_per_event", "ns");
    add("array.events", "count");
    add("array.completed", "count");
    add("array.incomplete", "count");
    add("array.transitions", "count");
    add("array.migrated_chunks", "count");
    for name in run_names() {
        add(&name, "s");
    }
    add("faults.retries", "count");
    add("faults.redirects", "count");
    add("faults.lost", "count");
    add("faults.rebuild_chunks", "count");
    add("telemetry.record_s", "s");
    add("telemetry.audit_s", "s");
    add("telemetry.events", "count");
    add("telemetry.bytes", "bytes");
    add("fleet.ns_per_event", "ns");
    add("fleet.placement_s", "s");
    add("fleet.epochs", "count");
    add("fleet.tenant_moves", "count");
    add("fleet.cap_violation_s", "s");
    add("parallel.workers", "count");
    add("parallel.cpu_util", "fraction");
    add("bench.trace_overhead_pct", "%");
    add("bench.host_speed", "ratio");
    add("hib_response_ms", "ms");
    m
}

/// `run.<policy>.<trace>.wall_s` for every `grid` and `storm_audit` run.
fn run_names() -> Vec<String> {
    let mut names = Vec::new();
    for p in Policy::GRID {
        for load in [Load::Oltp, Load::Cello] {
            names.push(run_name(p.key(), &load.label().to_lowercase()));
        }
    }
    names.push(run_name(Policy::Base.key(), "storm"));
    names.push(run_name(Policy::Hibernator.key(), "storm"));
    names
}

fn run_name(policy: &str, trace: &str) -> String {
    format!("run.{policy}.{trace}.wall_s")
}

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The 16 runs of `repro --quick --jobs 1 t3`.
    Grid,
    /// Hibernator on 256 arrays under a fleet power cap.
    Fleet256,
    /// Base and Hibernator through the fault storm, telemetry audited.
    StormAudit,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [Workload::Grid, Workload::Fleet256, Workload::StormAudit];

    /// The workload's name on the command line and in results.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Grid => "grid",
            Workload::Fleet256 => "fleet_256",
            Workload::StormAudit => "storm_audit",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The pass kinds a measurement cycles through.
    fn modes(self, traced: bool) -> &'static [Mode] {
        match (traced, self) {
            (false, _) => &[Mode::Plain],
            (true, Workload::StormAudit) => &[Mode::Plain, Mode::Traced, Mode::TelemetryOff],
            (true, _) => &[Mode::Plain, Mode::Traced],
        }
    }
}

/// How a pass runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// As users run it: no probes. The end-to-end metrics come from these.
    Plain,
    /// Every policy and trace source wrapped in a timing probe.
    Traced,
    /// As `Plain`, with telemetry off (`storm_audit` only), to price
    /// telemetry recording.
    TelemetryOff,
}

/// A workload's set-up, built once per repetition.
#[allow(clippy::large_enum_variant)] // one lives at a time
enum Prepared {
    Grid(grid::Setup),
    Fleet(fleet::Setup),
    Storm(storm::Setup),
}

impl Prepared {
    fn new(w: Workload, seed: u64) -> Prepared {
        match w {
            Workload::Grid => Prepared::Grid(grid::Setup::new(seed)),
            Workload::Fleet256 => Prepared::Fleet(fleet::Setup::new(seed)),
            Workload::StormAudit => Prepared::Storm(storm::Setup::new(seed)),
        }
    }

    fn generate_s(&self) -> f64 {
        match self {
            Prepared::Grid(s) => s.generate_s(),
            Prepared::Fleet(s) => s.generate_s(),
            Prepared::Storm(_) => 0.0,
        }
    }

    fn pass(&self, seed: u64, mode: Mode) -> Vec<Unit> {
        let traced = mode == Mode::Traced;
        match self {
            Prepared::Grid(s) => grid::pass(s, seed, traced),
            Prepared::Fleet(s) => fleet::pass(s, traced),
            Prepared::Storm(s) => storm::pass(s, seed, mode),
        }
    }
}

/// Everything one measurement produced.
#[derive(Debug)]
pub struct Measurement {
    /// The workload measured.
    pub workload: Workload,
    /// Its seed.
    pub seed: u64,
    /// Whether traced passes ran (per-layer metrics are then filled in).
    pub traced: bool,
    /// Host time of each set-up repetition, s.
    pub setup_s: Vec<f64>,
    /// Every gauge reading taken during the measurement, s.
    pub gauge_s: Vec<f64>,
    /// Host time of trace generation in each repetition, s.
    pub generate_s: Vec<f64>,
    /// Every pass, in run order.
    pub passes: Vec<(Mode, Vec<Unit>)>,
    /// Units attempted (runs, fleets and audits, over all passes).
    pub attempted: u64,
    /// Units that panicked, failed a check, or changed their outputs.
    pub failed: u64,
    /// One line per failure.
    pub failures: Vec<String>,
    /// End-to-end metrics: (name, value, unit).
    pub end_to_end: Vec<(String, f64, &'static str)>,
    /// Per-layer metrics (traced measurements only): (name, value, unit).
    pub per_layer: Vec<(String, f64, &'static str)>,
}

impl Measurement {
    /// Whether every unit was sound and matched its recorded outputs.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.failures.is_empty()
    }

    /// Requests the workload feeds per pass.
    pub fn requests(&self) -> u64 {
        self.first_plain().iter().map(|u| u.sim.requests).sum()
    }

    /// Simulation events per pass.
    pub fn events(&self) -> u64 {
        self.first_plain().iter().map(|u| u.sim.events).sum()
    }

    /// The simulated fingerprint of every unit of the first pass, as
    /// `(label, fingerprint)` lines.
    pub fn fingerprints(&self) -> Vec<(String, String)> {
        self.first_plain()
            .iter()
            .filter_map(|u| Some((u.label.clone(), u.fingerprint.clone()?)))
            .collect()
    }

    fn first_plain(&self) -> &[Unit] {
        self.passes
            .iter()
            .find(|(m, _)| *m == Mode::Plain)
            .map_or(&[], |(_, u)| u.as_slice())
    }

    /// The host's speed over the measurement relative to the reference
    /// speed: [`gauge::REFERENCE_S`] over the mean gauge reading. Host
    /// times × this speed are times at the reference speed.
    pub fn host_speed(&self) -> f64 {
        gauge::REFERENCE_S * self.gauge_s.len() as f64 / self.gauge_s.iter().sum::<f64>()
    }

    fn units(&self, mode: Mode) -> impl Iterator<Item = &Vec<Unit>> {
        self.passes
            .iter()
            .filter(move |(m, _)| *m == mode)
            .map(|(_, u)| u)
    }
}

/// Runs workload `w` for `seed`: set-up repetitions, then passes until
/// `seconds` of host time are spent (at least one pass of each mode), then
/// the output gate and the metrics.
pub fn measure(w: Workload, seed: u64, seconds: f64, traced: bool) -> Measurement {
    let mut m = Measurement {
        workload: w,
        seed,
        traced,
        setup_s: Vec::new(),
        gauge_s: Vec::new(),
        generate_s: Vec::new(),
        passes: Vec::new(),
        attempted: 0,
        failed: 0,
        failures: Vec::new(),
        end_to_end: Vec::new(),
        per_layer: Vec::new(),
    };

    gauge::reset();
    let prepared = catch_unwind(|| {
        let mut prepared = None;
        let started = Instant::now();
        let mut setup_s = Vec::new();
        let mut generate_s = Vec::new();
        while setup_s.len() < SETUP_MIN_REPS
            || (started.elapsed().as_secs_f64() < SETUP_MIN_S && setup_s.len() < SETUP_MAX_REPS)
        {
            drop(prepared.take());
            gauge::point();
            let t0 = Instant::now();
            let p = Prepared::new(w, seed);
            setup_s.push(t0.elapsed().as_secs_f64());
            generate_s.push(p.generate_s());
            prepared = Some(p);
        }
        (prepared.expect("set-up ran"), setup_s, generate_s)
    });
    let prepared = match prepared {
        Ok((p, setup_s, generate_s)) => {
            m.setup_s = setup_s;
            m.generate_s = generate_s;
            p
        }
        Err(e) => {
            m.attempted = 1;
            m.failed = 1;
            m.failures
                .push(format!("set-up panicked: {}", panic_text(&*e)));
            return m;
        }
    };

    let modes = w.modes(traced);
    let min_passes = if traced {
        modes.len()
    } else {
        MIN_PLAIN_PASSES
    };
    let mut last_pass_s: BTreeMap<usize, f64> = BTreeMap::new();
    let started = Instant::now();
    for i in 0.. {
        let slot = i % modes.len();
        if let Some(est) = last_pass_s.get(&slot) {
            if i >= min_passes && started.elapsed().as_secs_f64() + est > seconds {
                break;
            }
        }
        gauge::point();
        let t0 = Instant::now();
        match catch_unwind(AssertUnwindSafe(|| prepared.pass(seed, modes[slot]))) {
            Ok(units) => m.passes.push((modes[slot], units)),
            Err(e) => {
                m.attempted += 1;
                m.failed += 1;
                m.failures.push(format!(
                    "{:?} pass panicked: {}",
                    modes[slot],
                    panic_text(&*e)
                ));
                return m;
            }
        }
        last_pass_s.insert(slot, t0.elapsed().as_secs_f64());
    }
    drop(prepared);
    m.gauge_s = gauge::readings();

    gate(&mut m);
    m.end_to_end = end_to_end(&m);
    if traced {
        m.per_layer = per_layer(&m);
    }
    for (name, value, _) in m.end_to_end.iter().chain(&m.per_layer) {
        if !value.is_finite() {
            m.failures
                .push(format!("metric {name} is not finite: {value}"));
        }
    }
    m
}

fn panic_text(e: &(dyn std::any::Any + Send)) -> String {
    e.downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| e.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-text panic".to_string())
}

/// The recorded fingerprints of `w`, by run label.
pub fn expected(w: Workload) -> BTreeMap<&'static str, &'static str> {
    EXPECTED
        .lines()
        .filter_map(|l| {
            let (workload, rest) = l.split_once(' ')?;
            let (label, fp) = rest.split_once(' ')?;
            (workload == w.name()).then_some((label, fp))
        })
        .collect()
}

/// The output gate: every unit's own checks, identical outputs across all
/// passes (plain, traced and telemetry-off alike), and — at the recorded
/// seed — the outputs recorded at the seed commit.
fn gate(m: &mut Measurement) {
    let expected = (m.seed == RECORDED_SEED).then(|| expected(m.workload));
    let mut first: BTreeMap<String, String> = BTreeMap::new();
    for (mode, units) in &m.passes {
        for u in units {
            m.attempted += 1;
            let mut bad: Vec<String> = u.problems.clone();
            if let Some(fp) = &u.fingerprint {
                let seen = first.entry(u.label.clone()).or_insert_with(|| fp.clone());
                if seen != fp {
                    bad.push(format!(
                        "outputs differ from the first pass ({mode:?} pass)"
                    ));
                }
                if let Some(exp) = &expected {
                    match exp.get(u.label.as_str()) {
                        Some(e) if e == fp => {}
                        Some(e) => bad.push(format!("outputs differ from record: {fp} vs {e}")),
                        None => bad.push("no recorded outputs".to_string()),
                    }
                }
            }
            if !bad.is_empty() {
                m.failed += 1;
                for b in bad {
                    m.failures.push(format!("{} ({mode:?}): {b}", u.label));
                }
            }
        }
    }
    if let Some(exp) = &expected {
        for label in exp.keys().filter(|l| !first.contains_key(**l)) {
            m.failures
                .push(format!("{label}: recorded run did not run"));
        }
    }
}

/// The median of `xs` (0 for none).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The host time of every unit over the passes of `mode`: the mean of
/// `f` summed over the unit's segments. A mean over the passes covers the
/// same stretch of host time as the gauge readings taken between them.
fn unit_times(m: &Measurement, mode: Mode, f: impl Fn(&Span) -> f64) -> BTreeMap<String, f64> {
    let mut samples: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for u in m.units(mode).flatten() {
        let t = u.spans.iter().map(&f).sum();
        samples.entry(u.label.clone()).or_default().push(t);
    }
    samples
        .into_iter()
        .map(|(label, ts)| (label, ts.iter().sum::<f64>() / ts.len() as f64))
        .collect()
}

/// Host wall time of every unit of `mode` passes but the storm's audit.
fn sim_wall_s(m: &Measurement, mode: Mode) -> f64 {
    unit_times(m, mode, |s| s.wall_s)
        .iter()
        .filter(|(label, _)| label.as_str() != storm::AUDIT_LABEL)
        .map(|(_, t)| t)
        .sum()
}

/// The end-to-end metrics. The time of a one-thread unit is its host
/// time at the reference speed (see [`Measurement::host_speed`]); the
/// gauge runs on one thread and does not follow a unit that spreads over
/// several workers, whose time is the host time as measured. Set-up time
/// is as measured.
fn end_to_end(m: &Measurement) -> Vec<(String, f64, &'static str)> {
    let speed = m.host_speed();
    let scale: BTreeMap<&str, f64> = m
        .first_plain()
        .iter()
        .map(|u| (u.label.as_str(), if u.workers == 1 { speed } else { 1.0 }))
        .collect();
    let scaled = |f: fn(&Span) -> f64| -> f64 {
        unit_times(m, Mode::Plain, f)
            .iter()
            .map(|(label, t)| t * scale[label.as_str()])
            .sum()
    };
    let wall_s = scaled(|s| s.wall_s);
    let cpu_s = scaled(|s| s.cpu_s);
    let hib_energy_kj: f64 = m
        .first_plain()
        .iter()
        .filter(|u| u.hib())
        .map(|u| u.sim.energy_kj)
        .sum();
    let values = [
        wall_s,
        m.events() as f64 / wall_s,
        cpu_s,
        sys::peak_rss_mb(),
        median(&m.setup_s),
        hib_energy_kj,
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| (name.to_string(), v, unit))
        .collect()
}

/// The per-layer values one traced pass shows.
fn traced_layers(units: &[Unit]) -> BTreeMap<String, f64> {
    let mut l: BTreeMap<String, f64> = BTreeMap::new();
    let secs = |d: std::time::Duration| d.as_secs_f64();
    let mut add = |k: &str, v: f64| *l.entry(k.to_string()).or_default() += v;
    let mut maid_runs = 0usize;
    for u in units {
        let t = &u.tally;
        if u.fingerprint.is_some() {
            add("workload.pull_s", secs(t.pull));
            add("workload.pulls", t.pulls as f64);
            let self_s = u.wall_s() * u.workers as f64 - secs(t.hooks()) - secs(t.pull);
            add("array.driver_self_s", self_s);
        }
        match u.policy {
            Some(p) if p.is_core() => {
                add("core.tick_s", secs(t.tick));
                add("core.arrival_s", secs(t.arrival));
                add("core.completion_s", secs(t.completion));
                add("core.other_s", secs(t.route + t.other));
                add("core.ticks", t.ticks as f64);
                add("core.reconfigurations", t.reconfigurations as f64);
                add("core.boosts", t.boosts as f64);
            }
            Some(p) => add(&format!("policies.{}.hook_s", p.key()), secs(t.hooks())),
            None => {}
        }
        if u.policy == Some(Policy::Maid) {
            add("policies.maid.route_s", secs(t.route));
            add("cache.tier_hit_ratio", t.tier_hit_ratio);
            maid_runs += 1;
        }
        for &(k, v) in &u.extra {
            add(k, v);
        }
    }
    if maid_runs > 0 {
        *l.entry("cache.tier_hit_ratio".to_string()).or_default() /= maid_runs as f64;
    }
    l
}

fn per_layer(m: &Measurement) -> Vec<(String, f64, &'static str)> {
    let mut l: BTreeMap<String, f64> = BTreeMap::new();

    // Probe times and directly timed calls: the median of each value over
    // the traced passes (their simulated extras equal the plain passes').
    let mut samples: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for units in m.units(Mode::Traced) {
        for (k, v) in traced_layers(units) {
            samples.entry(k).or_default().push(v);
        }
    }
    for (k, v) in samples {
        l.insert(k, median(&v));
    }
    let events = m.events() as f64;
    if let Some(self_s) = l.get("array.driver_self_s").copied() {
        l.insert("array.ns_per_event".to_string(), self_s / events * 1e9);
    }

    // Simulated counts: identical in every pass (the gate checks this).
    let first = m.first_plain();
    let mut add = |k: &str, v: f64| *l.entry(k.to_string()).or_default() += v;
    for u in first {
        add("array.events", u.sim.events as f64);
        add("array.completed", u.sim.completed as f64);
        add("array.incomplete", u.sim.incomplete as f64);
        add("array.transitions", u.sim.transitions as f64);
        add("array.migrated_chunks", u.sim.migrated as f64);
        add("faults.retries", u.sim.retries as f64);
        add("faults.redirects", u.sim.redirects as f64);
        add("faults.lost", u.sim.lost as f64);
        add("faults.rebuild_chunks", u.sim.rebuild_chunks as f64);
    }
    let workers = first.iter().map(|u| u.workers).max().unwrap_or(1);
    l.insert("parallel.workers".to_string(), workers as f64);

    // Simulated fidelity: mean response of the Hibernator runs.
    let hib: Vec<&Unit> = first.iter().filter(|u| u.hib()).collect();
    let responses: u64 = hib.iter().map(|u| u.sim.responses).sum();
    let response_sum_s: f64 = hib.iter().map(|u| u.sim.response_sum_s).sum();
    l.insert(
        "hib_response_ms".to_string(),
        response_sum_s / responses as f64 * 1e3,
    );

    // Host times of plain runs: per-run walls, the audit, and telemetry.
    l.insert("workload.generate_s".to_string(), median(&m.generate_s));
    let walls = unit_times(m, Mode::Plain, |s| s.wall_s);
    for u in first {
        if let Some(p) = u.policy {
            let trace = u.label.rsplit('/').next().unwrap_or("").to_lowercase();
            l.insert(run_name(p.key(), &trace), walls[&u.label]);
        }
    }
    if let Some(&wall) = walls.get(fleet::LABEL) {
        l.insert("fleet.ns_per_event".to_string(), wall / events * 1e9);
    }
    if let Some(&audit) = walls.get(storm::AUDIT_LABEL) {
        l.insert("telemetry.audit_s".to_string(), audit);
    }
    if m.units(Mode::TelemetryOff).next().is_some() {
        let record_s = sim_wall_s(m, Mode::Plain) - sim_wall_s(m, Mode::TelemetryOff);
        l.insert("telemetry.record_s".to_string(), record_s);
    }

    let e2e: BTreeMap<&str, f64> = m
        .end_to_end
        .iter()
        .map(|(k, v, _)| (k.as_str(), *v))
        .collect();
    l.insert(
        "parallel.cpu_util".to_string(),
        e2e["cpu_s"] / (e2e["wall_s"] * workers as f64),
    );
    l.insert("bench.host_speed".to_string(), m.host_speed());
    l.insert(
        "bench.trace_overhead_pct".to_string(),
        (sim_wall_s(m, Mode::Traced) / sim_wall_s(m, Mode::Plain) - 1.0) * 100.0,
    );

    per_layer_metrics()
        .into_iter()
        .map(|(name, unit)| {
            let v = l.get(&name).copied().unwrap_or(0.0);
            (name, v, unit)
        })
        .collect()
}
