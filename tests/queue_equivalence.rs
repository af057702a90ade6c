//! Property: the optimised hot path is observationally identical to its
//! reference. Running the same scenario with [`RunOptions::reference`] on
//! and off must produce bit-identical [`RunReport`] numerics,
//! byte-identical telemetry streams, and byte-identical fleet streams.
//!
//! Reference mode swaps in two oracles at once, and each equivalence has
//! its own argument:
//! * **Wake resync.** The full scan pushes a wake event only for disks
//!   whose next event time moved; the incremental path visits exactly the
//!   disks handlers marked (a superset of the changed ones) in the same
//!   ascending order, so the push sequences agree.
//! * **Event queue and admission.** The packed `(time, seq)` keys are
//!   unique, so the ladder and the `BinaryHeap` pop identical streams for
//!   identical push sequences; batched admission reserves the next
//!   arrival's key at the exact code point the unbatched path pushes it
//!   and only handles the arrival inline when that key would be the very
//!   next pop anyway; and slab slot indices never influence ordering
//!   (disk queues are FIFO and telemetry carries no request ids).
//!
//! The scenarios stress every piece of both arguments: all seven headline
//! policies, a policy that churns spindle speeds from the per-event hooks,
//! same-instant event bursts, the DRAM cache's inline completions, fault
//! storms with retries and slot reuse after disk failure, and
//! fleet-segmented stepping with finite budgets.

use array::{run_policy, ArrayConfig, ArrayState, PowerPolicy, Redundancy, RunOptions, RunReport};
use diskmodel::{Completion, SpeedLevel, SpinTarget};
use faults::{FaultConfig, FaultEvent, FaultKind, FaultPlan, FaultSchedule};
use fleet::{run_fleet, BudgetSchedule, FleetSpec};
use hibernator::{Hibernator, HibernatorConfig};
use parallel::Pool;
use policies::{
    maid_array_config, DrpmPolicy, MaidConfig, MaidPolicy, PdcPolicy, SleepScalePolicy, TpmPolicy,
};
use simkit::{SimDuration, SimTime};
use telemetry::TelemetryConfig;
use workload::{Trace, VolumeRequest, WorkloadSpec};

const DURATION_S: f64 = 900.0;

fn trace(seed: u64) -> Trace {
    let mut spec = WorkloadSpec::oltp(DURATION_S, 25.0);
    spec.extents = 1024;
    spec.zipf_theta = 1.0;
    spec.generate(seed)
}

fn config() -> ArrayConfig {
    let mut c = ArrayConfig::default_for_volume(2 << 30);
    c.disks = 6;
    c
}

fn small_config(seed: u64, disks: usize) -> ArrayConfig {
    let mut config = ArrayConfig::default_for_volume(1 << 30);
    config.disks = disks;
    config.seed = seed;
    config
}

fn hib_config() -> HibernatorConfig {
    let mut cfg = HibernatorConfig::for_goal(0.02);
    cfg.epoch = SimDuration::from_secs(180.0);
    cfg.heat_tau = SimDuration::from_secs(180.0);
    cfg
}

fn hibernator() -> Hibernator {
    Hibernator::new(hib_config())
}

fn maid() -> MaidPolicy {
    MaidPolicy::new(MaidConfig {
        cache_disks: 2,
        cache_chunks_per_disk: 256,
        tpm_threshold_s: Some(120.0),
    })
}

/// A policy that changes spindle speeds from the *per-event* hooks (the
/// paths the conservative `mark_all` after tick/init does not cover), via
/// the mandatory [`ArrayState::request_speed`] wrapper. Deterministic:
/// driven by event counters, not time or randomness.
#[derive(Default)]
struct ChurnSpeed {
    arrivals: u64,
    completions: u64,
}

impl PowerPolicy for ChurnSpeed {
    fn name(&self) -> &str {
        "ChurnSpeed"
    }

    fn on_volume_arrival(
        &mut self,
        now: SimTime,
        _req: &VolumeRequest,
        _chunks: &[array::ChunkId],
        state: &mut ArrayState,
    ) {
        self.arrivals += 1;
        if self.arrivals.is_multiple_of(13) {
            let d = (self.arrivals / 13) as usize % state.disks.len();
            if !state.disks[d].has_failed() {
                state.request_speed(now, d, SpinTarget::Level(SpeedLevel(0)));
            }
        }
    }

    fn on_completion(
        &mut self,
        now: SimTime,
        _comp: &Completion,
        _volume_response_s: Option<f64>,
        state: &mut ArrayState,
    ) {
        self.completions += 1;
        if self.completions.is_multiple_of(17) {
            let d = (self.completions / 17) as usize % state.disks.len();
            let top = state.config.spec.top_level();
            if !state.disks[d].has_failed() {
                state.request_speed(now, d, SpinTarget::Level(top));
            }
        } else if self.completions.is_multiple_of(29) {
            let d = (self.completions / 29) as usize % state.disks.len();
            if !state.disks[d].has_failed() {
                state.request_speed(now, d, SpinTarget::Standby);
            }
        }
    }
}

/// Scripted faults exercising every fault-handler marking path.
fn fault_plan(horizon_s: f64) -> FaultPlan {
    let at = |f: f64| SimTime::from_secs(horizon_s * f);
    FaultPlan {
        schedule: FaultSchedule::new(vec![
            FaultEvent {
                time: at(0.2),
                disk: 1,
                kind: FaultKind::SlowTransition {
                    factor: 3.0,
                    duration_s: horizon_s * 0.1,
                },
            },
            FaultEvent {
                time: at(0.3),
                disk: 2,
                kind: FaultKind::TransientBurst {
                    error_prob: 0.2,
                    duration_s: horizon_s * 0.05,
                },
            },
            FaultEvent {
                time: at(0.45),
                disk: 2,
                kind: FaultKind::DiskFailure,
            },
        ]),
        config: FaultConfig::default(),
    }
}

/// Everything numeric a run reports, bit-exact.
fn fingerprint(r: &RunReport) -> Vec<u64> {
    vec![
        r.completed,
        r.incomplete,
        r.events_processed,
        r.transitions,
        r.energy.total_joules().to_bits(),
        r.response.mean().to_bits(),
        r.response.raw_second_moment().to_bits(),
        r.service.mean().to_bits(),
        r.fg_sectors,
        r.migration.committed,
        r.migration.aborted,
        r.migration.rebuilt,
        r.migration.raw_writes,
        r.faults.lost_requests,
        r.faults.degraded_redirects,
        r.faults.rebuild_chunks,
        r.faults.retries,
        r.faults.transient_errors,
    ]
}

/// Runs the same scenario in optimised and reference mode with telemetry
/// capture on, and asserts reports, tenant histograms and telemetry
/// streams agree exactly.
fn assert_equivalent<P: PowerPolicy + Send>(
    label: &str,
    config: ArrayConfig,
    trace: &Trace,
    mut opts: RunOptions,
    mk_policy: impl Fn() -> P,
) {
    opts.telemetry = Some(TelemetryConfig::new(label).with_goal(0.02, 90.0));
    let mut fast_opts = opts.clone();
    fast_opts.reference = false;
    let mut ref_opts = opts;
    ref_opts.reference = true;

    let mut fast = run_policy(config.clone(), mk_policy(), trace, fast_opts);
    let mut reference = run_policy(config, mk_policy(), trace, ref_opts);

    assert_eq!(
        fingerprint(&fast),
        fingerprint(&reference),
        "{label}: optimised run diverged from reference mode"
    );
    for (t, (a, b)) in fast
        .tenant_latency
        .iter()
        .zip(&reference.tenant_latency)
        .enumerate()
    {
        assert_eq!(a.count(), b.count(), "{label}: tenant {t} count");
        assert_eq!(a.quantile(0.5), b.quantile(0.5), "{label}: tenant {t} p50");
    }
    let fs = fast.telemetry.take().expect("optimised stream");
    let rs = reference.telemetry.take().expect("reference stream");
    assert_eq!(
        fs.bytes, rs.bytes,
        "{label}: telemetry streams differ between optimised and reference mode"
    );
}

#[test]
fn headline_policies_match_reference_queue() {
    let trace = trace(7);
    let cfg = config();
    let opts = RunOptions::for_horizon(DURATION_S);
    assert_equivalent("Base", cfg.clone(), &trace, opts.clone(), || {
        array::BasePolicy
    });
    assert_equivalent(
        "TPM",
        cfg.clone(),
        &trace,
        opts.clone(),
        TpmPolicy::competitive,
    );
    assert_equivalent(
        "DRPM",
        cfg.clone(),
        &trace,
        opts.clone(),
        DrpmPolicy::default,
    );
    assert_equivalent("PDC", cfg.clone(), &trace, opts.clone(), PdcPolicy::default);
    assert_equivalent(
        "MAID",
        maid_array_config(cfg.clone(), 2),
        &trace,
        opts.clone(),
        maid,
    );
    assert_equivalent("Hibernator", cfg.clone(), &trace, opts.clone(), hibernator);
    assert_equivalent("SleepScale", cfg, &trace, opts, || {
        Hibernator::with_policy(hib_config(), Box::new(SleepScalePolicy::new()))
    });
}

#[test]
fn base_and_churn_policies_match_reference() {
    for seed in [11u64, 12, 13] {
        let mut spec = WorkloadSpec::oltp(600.0, 30.0);
        spec.extents = 1024;
        let trace = spec.generate(seed);
        let config = small_config(seed, 4);
        let opts = RunOptions::for_horizon(600.0);
        assert_equivalent(
            &format!("base-{seed}"),
            config.clone(),
            &trace,
            opts.clone(),
            || array::BasePolicy,
        );
        assert_equivalent(&format!("churn-{seed}"), config, &trace, opts, || {
            ChurnSpeed::default()
        });
    }
}

#[test]
fn managed_policies_match_reference() {
    for (seed, disks) in [(21u64, 4), (22, 6)] {
        let spec = WorkloadSpec::cello_like(900.0, 25.0);
        let trace = spec.generate(seed);
        let mut config = ArrayConfig::default_for_volume(spec.footprint_sectors() * 512);
        config.disks = disks;
        config.seed = seed;
        let opts = RunOptions::for_horizon(900.0);
        assert_equivalent(
            &format!("tpm-{seed}"),
            config.clone(),
            &trace,
            opts.clone(),
            TpmPolicy::competitive,
        );
        assert_equivalent(&format!("hib-{seed}"), config, &trace, opts, || {
            let mut cfg = HibernatorConfig::for_goal(0.015);
            cfg.epoch = SimDuration::from_secs(180.0);
            cfg.heat_tau = SimDuration::from_secs(180.0);
            Hibernator::new(cfg)
        });
    }
}

#[test]
fn faulted_raid5_runs_match_reference() {
    for seed in [31u64, 32] {
        let mut spec = WorkloadSpec::oltp(900.0, 40.0);
        spec.extents = 1024;
        let trace = spec.generate(seed);
        let mut config = small_config(seed, 6);
        config.redundancy = Redundancy::Raid5Like;
        let mut opts = RunOptions::for_horizon(900.0);
        opts.faults = Some(fault_plan(900.0));
        assert_equivalent(
            &format!("fault-churn-{seed}"),
            config.clone(),
            &trace,
            opts.clone(),
            ChurnSpeed::default,
        );
        assert_equivalent(&format!("fault-tpm-{seed}"), config, &trace, opts, || {
            TpmPolicy::with_threshold(120.0)
        });
    }
}

#[test]
fn faulted_cached_tenant_run_matches_reference_queue() {
    // The hard scenario for slab slot reuse: RAID-5 parity ids, a fault
    // storm with transient retries and a whole-disk failure (stranded
    // pieces, lost volumes, rebuild traffic), a DRAM cache absorbing and
    // destaging writes, and per-tenant accounting — on both a managed and
    // an unmanaged policy.
    let at = |f: f64| SimTime::from_secs(DURATION_S * f);
    let plan = FaultPlan {
        schedule: FaultSchedule::new(vec![
            FaultEvent {
                time: at(0.2),
                disk: 1,
                kind: FaultKind::TransientBurst {
                    error_prob: 0.25,
                    duration_s: DURATION_S * 0.1,
                },
            },
            FaultEvent {
                time: at(0.4),
                disk: 2,
                kind: FaultKind::DiskFailure,
            },
            FaultEvent {
                time: at(0.6),
                disk: 4,
                kind: FaultKind::TransientBurst {
                    error_prob: 0.15,
                    duration_s: DURATION_S * 0.05,
                },
            },
        ]),
        config: FaultConfig::default(),
    };
    let trace = trace(19);
    let mut cfg = config();
    cfg.redundancy = Redundancy::Raid5Like;
    let mut o = RunOptions::with_faults(DURATION_S, plan);
    o.cache = Some(cache::CacheConfig::with_capacity(256));
    o.tenant_sectors = Some(cfg.volume_sectors() / 8);
    assert_equivalent("fault-cache-tpm", cfg.clone(), &trace, o.clone(), || {
        TpmPolicy::with_threshold(120.0)
    });
    assert_equivalent("fault-cache-hib", cfg, &trace, o, hibernator);
}

#[test]
fn fleet_run_matches_reference_queue() {
    // Fleet-segmented stepping: arrays pause at every arbiter epoch, so
    // batched admission must respect the segment limit exactly. Finite
    // budget and rebalancing keep the arbiter and placement layers active.
    let trace = trace(23);
    let run = |reference: bool| {
        let mut o = RunOptions::for_horizon(DURATION_S);
        o.telemetry = Some(TelemetryConfig::new("fleet").with_goal(0.02, 90.0));
        o.reference = reference;
        let mut spec = FleetSpec::new(3, 8, config(), o, BudgetSchedule::constant(160.0));
        spec.fleet_epoch = SimDuration::from_secs(150.0);
        run_fleet(&spec, &trace, &Pool::new(2), |_| hibernator())
    };
    let mut fast = run(false);
    let mut reference = run(true);

    assert_eq!(
        fast.fleet_stream.bytes, reference.fleet_stream.bytes,
        "fleet streams differ between optimised and reference mode"
    );
    assert_eq!(fast.arrays.len(), reference.arrays.len());
    for (i, (a, b)) in fast
        .arrays
        .iter_mut()
        .zip(&mut reference.arrays)
        .enumerate()
    {
        assert_eq!(
            fingerprint(a),
            fingerprint(b),
            "fleet array {i} diverged between optimised and reference mode"
        );
        let fs = a.telemetry.take().expect("optimised stream");
        let rs = b.telemetry.take().expect("reference stream");
        assert_eq!(fs.bytes, rs.bytes, "fleet array {i} telemetry differs");
    }
}
