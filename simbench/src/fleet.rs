//! `fleet_256` — `repro fleet --quick --arrays 256 --tenants 512`:
//! Hibernator on 256 arrays sharing one OLTP stream, under a constant
//! budget of 60 % of nominal power, stepped by two array workers.

use crate::probe::{self, Sink, Traced};
use crate::scenario::{self, clocked, Load, Policy, Sim, Unit, GOAL_FACTOR, HORIZON_S};
use array::{ArrayConfig, BasePolicy};
use diskmodel::PowerModel;
use fleet::{run_fleet, BudgetSchedule, FleetReport, FleetSpec};
use hibernator::Hibernator;
use parallel::Pool;
use simkit::SimDuration;
use std::time::Instant;
use workload::{tenants, Trace};

/// The fleet unit's label.
pub const LABEL: &str = "Hibernator/fleet";
/// Arrays under management.
pub const ARRAYS: usize = 256;
/// Tenant shards of the shared volume.
pub const TENANTS: u32 = 512;
/// The budget as a fraction of nominal fleet power.
pub const BUDGET_FRAC: f64 = 0.6;
/// Fleet epochs per horizon.
const EPOCHS_PER_HORIZON: f64 = 12.0;
/// Array workers (never more than the host's threads).
pub const WORKERS: usize = 2;

/// The shared trace, the array configuration and the calibrated goal.
pub struct Setup {
    trace: Trace,
    config: ArrayConfig,
    goal_s: f64,
    generate_s: f64,
}

impl Setup {
    /// Generates the OLTP trace and calibrates the goal with a solo Base
    /// run (the timed set-up).
    pub fn new(seed: u64) -> Setup {
        let t0 = Instant::now();
        let trace = Load::Oltp.spec().generate(seed);
        let generate_s = t0.elapsed().as_secs_f64();
        let config = Load::Oltp.array_config(seed);
        let base = array::run_policy(config.clone(), BasePolicy, &trace, scenario::run_options());
        Setup {
            trace,
            config,
            goal_s: base.response.mean() * GOAL_FACTOR,
            generate_s,
        }
    }

    /// Host time of trace generation within the set-up, s.
    pub fn generate_s(&self) -> f64 {
        self.generate_s
    }
}

/// Nominal fleet draw: every disk of every array idling at full speed.
pub fn nominal_w(config: &ArrayConfig) -> f64 {
    let pm = PowerModel::new(&config.spec);
    ARRAYS as f64 * config.disks as f64 * pm.idle_w(config.spec.top_level())
}

/// The fleet spec `repro fleet` builds.
pub fn spec(setup: &Setup) -> FleetSpec {
    let budget = BudgetSchedule::constant(nominal_w(&setup.config) * BUDGET_FRAC);
    let opts = scenario::run_options();
    let mut spec = FleetSpec::new(ARRAYS, TENANTS, setup.config.clone(), opts, budget);
    spec.fleet_epoch = SimDuration::from_secs((HORIZON_S / EPOCHS_PER_HORIZON).max(60.0));
    spec
}

/// The array workers this host runs.
pub fn workers() -> usize {
    WORKERS.min(parallel::available_parallelism())
}

/// One fleet run (every array's policy probed when `probe` is set).
pub fn run(setup: &Setup, pool: &Pool, probe: Option<&Sink>) -> FleetReport {
    let spec = spec(setup);
    let hib = || Hibernator::new(scenario::hibernator_config(setup.goal_s));
    match probe {
        None => run_fleet(&spec, &setup.trace, pool, |_| hib()),
        Some(s) => run_fleet(&spec, &setup.trace, pool, |_| Traced::new(hib(), s.clone())),
    }
}

/// The fleet once. A traced pass also times placement planning as the
/// driver does it: `tenants::tenant_heat` then `fleet::plan_placement`.
pub fn pass(setup: &Setup, traced: bool) -> Vec<Unit> {
    let workers = workers();
    let pool = Pool::new(workers);
    let sink = traced.then(probe::sink);
    let (report, span) = clocked(|| run(setup, &pool, sink.as_ref()));

    let mut problems = Vec::new();
    match report.audit() {
        Ok(audit) => problems.extend(
            audit
                .checks
                .iter()
                .filter(|c| !c.passed)
                .map(|c| format!("fleet audit {} failed: {}", c.name, c.detail)),
        ),
        Err(e) => problems.push(format!("fleet stream does not parse: {e:?}")),
    }
    if report.completed + report.incomplete != report.total_requests
        || report.routed_requests != report.total_requests
    {
        problems.push(format!(
            "request conservation: {} completed + {} incomplete, {} routed, {} fed",
            report.completed, report.incomplete, report.routed_requests, report.total_requests
        ));
    }

    let mut sim = Sim::default();
    for r in &report.arrays {
        sim.add(&Sim::of(r));
    }
    sim.requests = report.total_requests;
    sim.energy_kj = report.fleet_energy_j / 1e3;

    let mut extra = vec![
        ("fleet.epochs", report.epochs.len() as f64),
        ("fleet.tenant_moves", report.tenant_moves as f64),
        ("fleet.cap_violation_s", report.cap_violation_s),
    ];
    if traced {
        extra.push(("fleet.placement_s", placement_s(setup)));
    }
    vec![Unit {
        label: LABEL.to_string(),
        policy: Some(Policy::Hibernator),
        spans: vec![span],
        workers,
        fingerprint: Some(fingerprint(&report, &sim)),
        problems,
        sim,
        tally: sink.map(|s| probe::read(&s)).unwrap_or_default(),
        extra,
    }]
}

/// Host time of planning placement from the trace's heat, s.
fn placement_s(setup: &Setup) -> f64 {
    let spec = spec(setup);
    let epoch_s = spec.fleet_epoch.as_secs();
    let epochs = ((HORIZON_S / epoch_s).ceil() as usize).max(1);
    let t0 = Instant::now();
    let heat = tenants::tenant_heat(
        &setup.trace,
        spec.tenants,
        spec.tenant_sectors,
        epoch_s,
        epochs,
    );
    let plan = fleet::plan_placement(&heat, spec.arrays, spec.rebalance, spec.max_moves_per_epoch);
    let secs = t0.elapsed().as_secs_f64();
    std::hint::black_box(plan);
    secs
}

/// The fleet's simulated outputs: fleet energy, request-weighted mean
/// response, the summed counts, cap violation, moves, and digests of the
/// arbiter's epoch log and of every array's own fingerprint.
fn fingerprint(report: &FleetReport, sim: &Sim) -> String {
    let mut epochs = format!("{:?}", report.epochs);
    for k in 0..report.epochs.len() {
        for cap in report.epoch_caps(k) {
            epochs.push_str(&format!(" {:016x}", cap.to_bits()));
        }
    }
    let arrays: String = report.arrays.iter().map(scenario::fingerprint).collect();
    format!(
        "energy={:016x} mean={:016x} completed={} incomplete={} events={} transitions={} \
         migrated={} cap_violation={:016x} moves={} epochs={:016x} arrays={:016x}",
        report.fleet_energy_j.to_bits(),
        (sim.response_sum_s / sim.responses as f64).to_bits(),
        report.completed,
        report.incomplete,
        sim.events,
        sim.transitions,
        sim.migrated,
        report.cap_violation_s.to_bits(),
        report.tenant_moves,
        fnv1a(epochs.as_bytes()),
        fnv1a(arrays.as_bytes()),
    )
}

/// FNV-1a over `bytes`: a stable digest for long fingerprint parts.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}
