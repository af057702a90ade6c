//! Timing probes placed around the simulator's public seams.
//!
//! The simulator is not instrumented: these wrappers sit *outside* it, at
//! the two trait boundaries the driver calls through — [`PowerPolicy`]
//! (every policy hook) and [`TraceSource`] (every request pull). They
//! forward each call unchanged and add the elapsed host time to a local
//! [`Tally`], which they merge into a shared sink when dropped. The
//! driver drops both at the end of a run, fleet workers included, so one
//! sink per run collects everything without atomics on the hot path.

use array::{ArrayState, BasePolicy, ChunkId, DiskId, PowerPolicy};
use diskmodel::{Completion, IoKind};
use hibernator::Hibernator;
use policies::{DrpmPolicy, FixedSpeed, MaidPolicy, PdcPolicy, TpmPolicy};
use simkit::{SimDuration, SimTime};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use workload::{TraceSource, VolumeRequest};

/// Host time and counts gathered by the probes of one run (or one fleet).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Tally {
    /// Time in `PowerPolicy::route`.
    pub route: Duration,
    /// Time in `PowerPolicy::on_volume_arrival`.
    pub arrival: Duration,
    /// Time in `PowerPolicy::on_completion`.
    pub completion: Duration,
    /// Time in `PowerPolicy::on_tick`.
    pub tick: Duration,
    /// Time in `init`, `on_disk_failure` and `set_power_cap`.
    pub other: Duration,
    /// `on_tick` calls.
    pub ticks: u64,
    /// Time in `TraceSource::next_request`.
    pub pull: Duration,
    /// `next_request` calls.
    pub pulls: u64,
    /// Hibernator reconfigurations (from `Hibernator::stats`).
    pub reconfigurations: u64,
    /// Hibernator guard boosts (from `Hibernator::stats`).
    pub boosts: u64,
    /// MAID cache-tier read hit ratio (from `MaidPolicy::hit_ratio`).
    pub tier_hit_ratio: f64,
}

impl Tally {
    /// Host time spent inside policy hooks.
    pub fn hooks(&self) -> Duration {
        self.route + self.arrival + self.completion + self.tick + self.other
    }

    fn merge(&mut self, o: &Tally) {
        self.route += o.route;
        self.arrival += o.arrival;
        self.completion += o.completion;
        self.tick += o.tick;
        self.other += o.other;
        self.ticks += o.ticks;
        self.pull += o.pull;
        self.pulls += o.pulls;
        self.reconfigurations += o.reconfigurations;
        self.boosts += o.boosts;
        self.tier_hit_ratio += o.tier_hit_ratio;
    }
}

/// Where the probes of one run deposit their tallies.
pub type Sink = Arc<Mutex<Tally>>;

/// A fresh, empty sink.
pub fn sink() -> Sink {
    Arc::default()
}

/// The tally collected in `sink` so far.
pub fn read(sink: &Sink) -> Tally {
    *sink.lock().expect("probe sink poisoned")
}

fn deposit(sink: &Sink, t: &Tally) {
    // Runs from `Drop`: never panic, even on a poisoned sink.
    if let Ok(mut s) = sink.lock() {
        s.merge(t);
    }
}

/// Simulated counters a policy exposes through its public API, read once
/// when its probe is dropped.
pub trait Introspect {
    /// Adds the policy's counters to `t`.
    fn introspect(&self, t: &mut Tally) {
        let _ = t;
    }
}

impl Introspect for BasePolicy {}
impl Introspect for TpmPolicy {}
impl Introspect for DrpmPolicy {}
impl Introspect for PdcPolicy {}
impl Introspect for FixedSpeed {}

impl Introspect for MaidPolicy {
    fn introspect(&self, t: &mut Tally) {
        t.tier_hit_ratio += self.hit_ratio();
    }
}

impl Introspect for Hibernator {
    fn introspect(&self, t: &mut Tally) {
        let s = self.stats();
        t.reconfigurations += s.reconfigurations;
        t.boosts += s.boosts;
    }
}

/// A policy that times every hook of the policy it delegates to.
pub struct Traced<P: PowerPolicy + Introspect> {
    inner: P,
    tally: Tally,
    sink: Sink,
}

impl<P: PowerPolicy + Introspect> Traced<P> {
    /// Wraps `inner`; its tally lands in `sink` when the wrapper drops.
    pub fn new(inner: P, sink: Sink) -> Self {
        Traced {
            inner,
            tally: Tally::default(),
            sink,
        }
    }
}

impl<P: PowerPolicy + Introspect> Drop for Traced<P> {
    fn drop(&mut self) {
        self.inner.introspect(&mut self.tally);
        deposit(&self.sink, &self.tally);
    }
}

/// Runs `f`, adding its host time to `acc`.
#[inline(always)]
fn timed<T>(acc: &mut Duration, f: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let out = f();
    *acc += t0.elapsed();
    out
}

impl<P: PowerPolicy + Introspect> PowerPolicy for Traced<P> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn init(&mut self, now: SimTime, state: &mut ArrayState) {
        let inner = &mut self.inner;
        timed(&mut self.tally.other, || inner.init(now, state))
    }

    fn tick_interval(&self) -> Option<SimDuration> {
        self.inner.tick_interval()
    }

    fn on_tick(&mut self, now: SimTime, state: &mut ArrayState) {
        self.tally.ticks += 1;
        let inner = &mut self.inner;
        timed(&mut self.tally.tick, || inner.on_tick(now, state))
    }

    fn route(
        &mut self,
        now: SimTime,
        chunk: ChunkId,
        offset: u64,
        kind: IoKind,
        state: &mut ArrayState,
    ) -> Option<(DiskId, u64)> {
        let inner = &mut self.inner;
        timed(&mut self.tally.route, || {
            inner.route(now, chunk, offset, kind, state)
        })
    }

    fn on_volume_arrival(
        &mut self,
        now: SimTime,
        req: &VolumeRequest,
        chunks: &[ChunkId],
        state: &mut ArrayState,
    ) {
        let inner = &mut self.inner;
        timed(&mut self.tally.arrival, || {
            inner.on_volume_arrival(now, req, chunks, state)
        })
    }

    fn on_completion(
        &mut self,
        now: SimTime,
        comp: &Completion,
        volume_response_s: Option<f64>,
        state: &mut ArrayState,
    ) {
        let inner = &mut self.inner;
        timed(&mut self.tally.completion, || {
            inner.on_completion(now, comp, volume_response_s, state)
        })
    }

    fn on_disk_failure(&mut self, now: SimTime, disk: usize, state: &mut ArrayState) {
        let inner = &mut self.inner;
        timed(&mut self.tally.other, || {
            inner.on_disk_failure(now, disk, state)
        })
    }

    fn set_power_cap(&mut self, cap_w: Option<f64>) {
        let inner = &mut self.inner;
        timed(&mut self.tally.other, || inner.set_power_cap(cap_w))
    }
}

/// A trace source that times every pull from the source it delegates to.
pub struct TimedSource<S: TraceSource> {
    inner: S,
    tally: Tally,
    sink: Sink,
}

impl<S: TraceSource> TimedSource<S> {
    /// Wraps `inner`; its tally lands in `sink` when the wrapper drops.
    pub fn new(inner: S, sink: Sink) -> Self {
        TimedSource {
            inner,
            tally: Tally::default(),
            sink,
        }
    }
}

impl<S: TraceSource> Drop for TimedSource<S> {
    fn drop(&mut self) {
        deposit(&self.sink, &self.tally);
    }
}

impl<S: TraceSource> TraceSource for TimedSource<S> {
    fn next_request(&mut self) -> Option<VolumeRequest> {
        self.tally.pulls += 1;
        let inner = &mut self.inner;
        timed(&mut self.tally.pull, || inner.next_request())
    }

    fn len_hint(&self) -> Option<usize> {
        self.inner.len_hint()
    }
}
