//! The runs the benchmark times, rebuilt from the public API with the
//! constants of `repro --quick` (`crates/repro/src/common.rs`): 16 disks
//! of 6 speed levels, 2048-sector chunks, a two-hour horizon, goal =
//! 1.3 × Base mean response, 20-minute epochs and heat τ, and MAID with 3
//! cache disks × 2048 chunks. The cross-check tests compare these runs
//! with the CSVs `repro` writes.

use crate::gauge;
use crate::probe::{Introspect, Sink, Tally, TimedSource, Traced};
use array::{ArrayConfig, BasePolicy, PowerPolicy, Redundancy, RunOptions, RunReport, Simulation};
use diskmodel::{DiskSpec, SpeedLevel};
use hibernator::{Hibernator, HibernatorConfig};
use policies::{maid_array_config, DrpmPolicy, FixedSpeed, MaidConfig, MaidPolicy, PdcPolicy};
use policies::{SleepScalePolicy, TpmPolicy};
use simkit::{SimDuration, SimTime};
use workload::{SpecStream, Trace, WorkloadSpec};

/// Simulated horizon of every run: `repro --quick`'s two hours.
pub const HORIZON_S: f64 = 2.0 * 3600.0;
/// Goal = this factor × the Base run's mean response.
pub const GOAL_FACTOR: f64 = 1.3;
const DISKS: usize = 16;
const SPEED_LEVELS: usize = 6;
const CHUNK_SECTORS: u64 = 2048;
/// Series bucket and power-sampling interval at quick scale.
const SERIES_BUCKET_S: f64 = 120.0;
/// Hibernator epoch and heat time constant at quick scale.
const EPOCH_MIN: f64 = 20.0;
const MAID_CACHE_DISKS: usize = 3;
const MAID_CACHE_CHUNKS: u32 = 2048;

/// The two calibrated request streams.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Load {
    /// Poisson 150 req/s, Zipf 0.95, 16 GiB.
    Oltp,
    /// Diurnal MMPP 80 req/s mean, Zipf 0.75, 24 GiB.
    Cello,
}

impl Load {
    /// `repro`'s label.
    pub fn label(self) -> &'static str {
        match self {
            Load::Oltp => "OLTP",
            Load::Cello => "Cello",
        }
    }

    /// The workload spec at quick scale.
    pub fn spec(self) -> WorkloadSpec {
        match self {
            Load::Oltp => WorkloadSpec::oltp(HORIZON_S, 150.0),
            Load::Cello => WorkloadSpec::cello_like(HORIZON_S, 80.0),
        }
    }

    /// The array this load runs on (before any policy-specific layout).
    pub fn array_config(self, seed: u64) -> ArrayConfig {
        ArrayConfig {
            disks: DISKS,
            spec: DiskSpec::ultrastar_multispeed(SPEED_LEVELS),
            chunk_sectors: CHUNK_SECTORS,
            volume_chunks: (self.spec().footprint_sectors() / CHUNK_SECTORS) as u32,
            redundancy: Redundancy::None,
            seed,
            stripe_width: None,
        }
    }
}

/// Run options at quick scale.
pub fn run_options() -> RunOptions {
    let mut o = RunOptions::for_horizon(HORIZON_S);
    o.series_bucket = SimDuration::from_secs(SERIES_BUCKET_S);
    o.sample_interval = o.series_bucket;
    o
}

/// Hibernator's configuration for a goal at quick scale.
pub fn hibernator_config(goal_s: f64) -> HibernatorConfig {
    let mut cfg = HibernatorConfig::for_goal(goal_s);
    cfg.epoch = SimDuration::from_mins(EPOCH_MIN);
    cfg.heat_tau = SimDuration::from_mins(EPOCH_MIN);
    cfg
}

/// The policies of `repro t3`: the seven headline ones plus the
/// always-slow bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// No power management.
    Base,
    /// Threshold spin-down.
    Tpm,
    /// Per-disk RPM control.
    Drpm,
    /// Popular data concentration.
    Pdc,
    /// Cache disks + spin-down.
    Maid,
    /// The paper's system.
    Hibernator,
    /// Hibernator hosting the SleepScale optimizer.
    SleepScale,
    /// Every disk at the slowest level.
    FixedSlow,
}

impl Policy {
    /// `repro t3`'s rows, in its order.
    pub const GRID: [Policy; 8] = [
        Policy::Base,
        Policy::Tpm,
        Policy::Drpm,
        Policy::Pdc,
        Policy::Maid,
        Policy::Hibernator,
        Policy::SleepScale,
        Policy::FixedSlow,
    ];

    /// `repro`'s label.
    pub fn label(self) -> &'static str {
        match self {
            Policy::Base => "Base",
            Policy::Tpm => "TPM",
            Policy::Drpm => "DRPM",
            Policy::Pdc => "PDC",
            Policy::Maid => "MAID",
            Policy::Hibernator => "Hibernator",
            Policy::SleepScale => "SleepScale",
            Policy::FixedSlow => "Fixed(slow)",
        }
    }

    /// Metric-name component.
    pub fn key(self) -> &'static str {
        match self {
            Policy::Base => "base",
            Policy::Tpm => "tpm",
            Policy::Drpm => "drpm",
            Policy::Pdc => "pdc",
            Policy::Maid => "maid",
            Policy::Hibernator => "hibernator",
            Policy::SleepScale => "sleepscale",
            Policy::FixedSlow => "fixed_slow",
        }
    }

    /// Whether the policy is hosted by the `hibernator` crate (layer `core`).
    pub fn is_core(self) -> bool {
        matches!(self, Policy::Hibernator | Policy::SleepScale)
    }
}

/// Where a run's requests come from.
#[allow(clippy::large_enum_variant)] // built once per run, moved into it
pub enum Input<'a> {
    /// A materialised trace, as `repro` runs the grid.
    Trace(&'a Trace),
    /// A request stream generated as the run pulls it.
    Stream(SpecStream),
}

/// Timed segments a run is split into: construction, `SEGMENTS` equal
/// slices of simulated time, and the final report.
pub const SEGMENTS: usize = 24;

/// Host time of one timed segment.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Span {
    /// Wall time, s.
    pub wall_s: f64,
    /// CPU time, s: of the calling thread for a single-array run segment,
    /// of the whole process otherwise.
    pub cpu_s: f64,
}

/// Drives a simulation as `Simulation::run` does — `start`, `step_until`
/// the horizon, `finish` — but steps the horizon in [`SEGMENTS`] slices and
/// times each one, with a gauge point between slices. Stepping in slices
/// processes the exact event sequence of an unpaused run (the fleet driver
/// relies on the same guarantee), so the outputs are those of
/// `array::run_policy`.
fn stepped<'a, P: PowerPolicy>(
    horizon: SimTime,
    build: impl FnOnce() -> Simulation<'a, P>,
) -> (RunReport, Vec<Span>) {
    let mut spans = Vec::with_capacity(SEGMENTS + 2);
    gauge::point();
    let (mut sim, span) = thread_clocked(build);
    spans.push(span);
    for k in 1..=SEGMENTS {
        let limit = if k == SEGMENTS {
            horizon
        } else {
            SimTime::from_secs(horizon.as_secs() * k as f64 / SEGMENTS as f64)
        };
        gauge::point();
        let ((), span) = thread_clocked(|| {
            sim.step_until(limit);
        });
        spans.push(span);
    }
    gauge::point();
    // The policy (and any probe around it) drops inside the last segment.
    let (report, span) = thread_clocked(|| sim.finish().0);
    spans.push(span);
    (report, spans)
}

/// Runs `policy` through the library's public simulation driver. With a
/// `probe` sink, the policy and stream are wrapped in timing probes.
fn simulate<P: PowerPolicy + Introspect + Send>(
    config: ArrayConfig,
    policy: P,
    input: Input<'_>,
    opts: RunOptions,
    probe: Option<&Sink>,
) -> (RunReport, Vec<Span>) {
    let h = opts.horizon;
    match (input, probe) {
        (Input::Trace(t), None) => stepped(h, || Simulation::new(config, policy, t, opts)),
        (Input::Trace(t), Some(s)) => {
            let policy = Traced::new(policy, s.clone());
            stepped(h, || Simulation::new(config, policy, t, opts))
        }
        (Input::Stream(src), None) => {
            stepped(h, || Simulation::from_source(config, policy, src, opts))
        }
        (Input::Stream(src), Some(s)) => {
            let (policy, src) = (
                Traced::new(policy, s.clone()),
                TimedSource::new(src, s.clone()),
            );
            stepped(h, || Simulation::from_source(config, policy, src, opts))
        }
    }
}

/// Runs one policy as `repro`'s `Ctx::run_kind` does, returning its report
/// and the host time of each segment. `goal_s` is read by the goal-aware
/// policies only.
pub fn run(
    policy: Policy,
    config: ArrayConfig,
    input: Input<'_>,
    opts: RunOptions,
    goal_s: f64,
    probe: Option<&Sink>,
) -> (RunReport, Vec<Span>) {
    match policy {
        Policy::Base => simulate(config, BasePolicy, input, opts, probe),
        Policy::Tpm => simulate(config, TpmPolicy::competitive(), input, opts, probe),
        Policy::Drpm => simulate(config, DrpmPolicy::default(), input, opts, probe),
        Policy::Pdc => simulate(config, PdcPolicy::default(), input, opts, probe),
        Policy::Maid => {
            let maid = MaidPolicy::new(MaidConfig {
                cache_disks: MAID_CACHE_DISKS,
                cache_chunks_per_disk: MAID_CACHE_CHUNKS,
                tpm_threshold_s: None,
            });
            let config = maid_array_config(config, MAID_CACHE_DISKS);
            simulate(config, maid, input, opts, probe)
        }
        Policy::Hibernator => {
            let hib = Hibernator::new(hibernator_config(goal_s));
            simulate(config, hib, input, opts, probe)
        }
        Policy::SleepScale => {
            let hib = Hibernator::with_policy(
                hibernator_config(goal_s),
                Box::new(SleepScalePolicy::new()),
            );
            simulate(config, hib, input, opts, probe)
        }
        Policy::FixedSlow => simulate(config, FixedSpeed::new(SpeedLevel(0)), input, opts, probe),
    }
}

/// Simulated counts of a unit, summed into the per-layer counts.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Sim {
    /// Events the driver processed.
    pub events: u64,
    /// Requests fed (completed + incomplete + lost).
    pub requests: u64,
    /// Requests completed.
    pub completed: u64,
    /// Requests still in flight at the horizon.
    pub incomplete: u64,
    /// Disk speed transitions.
    pub transitions: u64,
    /// Chunk migrations committed.
    pub migrated: u64,
    /// Transient-error retries.
    pub retries: u64,
    /// Requests redirected around a failed disk.
    pub redirects: u64,
    /// Requests lost to faults.
    pub lost: u64,
    /// Chunks rebuilt after failures.
    pub rebuild_chunks: u64,
    /// Energy, kJ.
    pub energy_kj: f64,
    /// Sum of response times, s (for request-weighted means).
    pub response_sum_s: f64,
    /// Responses recorded.
    pub responses: u64,
}

impl Sim {
    /// The counts of one array's report.
    pub fn of(r: &RunReport) -> Sim {
        let f = &r.faults;
        Sim {
            events: r.events_processed,
            requests: r.completed + r.incomplete + f.lost_requests,
            completed: r.completed,
            incomplete: r.incomplete,
            transitions: r.transitions,
            migrated: r.migration.committed,
            retries: f.retries,
            redirects: f.degraded_redirects,
            lost: f.lost_requests,
            rebuild_chunks: f.rebuild_chunks,
            energy_kj: r.energy.total_joules() / 1e3,
            response_sum_s: r.response.sum(),
            responses: r.response.count(),
        }
    }

    /// Adds `o` into `self`.
    pub fn add(&mut self, o: &Sim) {
        self.events += o.events;
        self.requests += o.requests;
        self.completed += o.completed;
        self.incomplete += o.incomplete;
        self.transitions += o.transitions;
        self.migrated += o.migrated;
        self.retries += o.retries;
        self.redirects += o.redirects;
        self.lost += o.lost;
        self.rebuild_chunks += o.rebuild_chunks;
        self.energy_kj += o.energy_kj;
        self.response_sum_s += o.response_sum_s;
        self.responses += o.responses;
    }
}

/// The simulated outputs of one array run that must never change for a
/// given seed: exact energy and mean-response bits plus the counts.
pub fn fingerprint(r: &RunReport) -> String {
    let f = &r.faults;
    format!(
        "energy={:016x} mean={:016x} completed={} incomplete={} events={} transitions={} \
         migrated={} retries={} redirects={} lost={} rebuilt={}",
        r.energy.total_joules().to_bits(),
        r.response.mean().to_bits(),
        r.completed,
        r.incomplete,
        r.events_processed,
        r.transitions,
        r.migration.committed,
        f.retries,
        f.degraded_redirects,
        f.lost_requests,
        f.rebuild_chunks,
    )
}

/// One timed piece of a pass: a simulation run, a fleet, or an audit.
#[derive(Debug, Clone, Default)]
pub struct Unit {
    /// `repro`-style label, e.g. `MAID/OLTP`.
    pub label: String,
    /// The policy that ran (`None` for the storm's audit).
    pub policy: Option<Policy>,
    /// Host time of the unit's timed segments, in order (one segment for
    /// a fleet or an audit).
    pub spans: Vec<Span>,
    /// Threads that ran the unit.
    pub workers: usize,
    /// Simulated outputs; `None` for a unit that simulates nothing.
    pub fingerprint: Option<String>,
    /// Failed checks; empty when the unit is sound.
    pub problems: Vec<String>,
    /// Simulated counts.
    pub sim: Sim,
    /// Probe tally (zero unless the pass was traced).
    pub tally: Tally,
    /// Further per-layer values the unit measured directly.
    pub extra: Vec<(&'static str, f64)>,
}

impl Unit {
    /// Whether the unit is a Hibernator run, whose energy and response
    /// are the workload's fidelity metrics.
    pub fn hib(&self) -> bool {
        self.policy == Some(Policy::Hibernator)
    }

    /// Host wall time of the whole unit, s.
    pub fn wall_s(&self) -> f64 {
        self.spans.iter().map(|s| s.wall_s).sum()
    }
}

/// Times `f` on the host, with the CPU time of the whole process.
pub fn clocked<T>(f: impl FnOnce() -> T) -> (T, Span) {
    clocked_with(crate::sys::cpu_s, f)
}

/// Times `f` on the host, with the CPU time of the calling thread.
fn thread_clocked<T>(f: impl FnOnce() -> T) -> (T, Span) {
    clocked_with(crate::sys::thread_cpu_s, f)
}

fn clocked_with<T>(cpu: fn() -> f64, f: impl FnOnce() -> T) -> (T, Span) {
    let cpu0 = cpu();
    let t0 = std::time::Instant::now();
    let out = f();
    let wall_s = t0.elapsed().as_secs_f64();
    (
        out,
        Span {
            wall_s,
            cpu_s: cpu() - cpu0,
        },
    )
}
