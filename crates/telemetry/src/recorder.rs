//! The per-run recording handle.

use crate::Event;
use simkit::FixedHistogram;

/// Latency histogram layout: 2 ms buckets spanning 0–200 ms.
const LATENCY_BUCKET_US: f64 = 2_000.0;
const LATENCY_BUCKETS: usize = 100;
/// Queue-depth histogram layout: unit buckets spanning 0–63.
const QUEUE_BUCKET: f64 = 1.0;
const QUEUE_BUCKETS: usize = 64;

/// How a run's telemetry is captured.
#[derive(Debug, Clone)]
pub struct TelemetryConfig {
    /// Deterministic run label embedded in the stream header; streams are
    /// later flushed sorted, so the label must uniquely identify the run.
    pub label: String,
    /// Response-time goal used for goal-violation accounting
    /// (`f64::MAX` for unmanaged runs — nothing ever violates).
    pub goal_s: f64,
    /// Warm-up cutoff: series buckets starting before this are excluded
    /// from the violation fraction, mirroring the T4 convention.
    pub warmup_s: f64,
}

impl TelemetryConfig {
    /// A config with no goal and no warm-up.
    pub fn new(label: impl Into<String>) -> Self {
        TelemetryConfig {
            label: label.into(),
            goal_s: f64::MAX,
            warmup_s: 0.0,
        }
    }

    /// Sets the goal and warm-up used for violation accounting.
    pub fn with_goal(mut self, goal_s: f64, warmup_s: f64) -> Self {
        self.goal_s = goal_s;
        self.warmup_s = warmup_s;
        self
    }
}

/// Monotonic per-run event counters (single-threaded, so plain integers —
/// "lock-cheap" is literal here).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// Total events recorded.
    pub events: u64,
    /// `RequestServed` events.
    pub served: u64,
    /// `SpeedTransition` events.
    pub transitions: u64,
    /// `MigrationStarted` events.
    pub migrations_started: u64,
    /// `MigrationMoved` events.
    pub migrations_moved: u64,
    /// `MigrationAborted` events.
    pub migrations_aborted: u64,
    /// `MigrationDropped` events.
    pub migrations_dropped: u64,
    /// `GuardBoost` entries (exits not counted).
    pub boosts: u64,
    /// `FaultInjected` events.
    pub faults: u64,
    /// `EpochPlanned` events.
    pub epochs: u64,
    /// `PowerSample` events.
    pub power_samples: u64,
    /// `CacheHit` events (DRAM-served requests: read hits + absorbed
    /// writes).
    pub cache_hits: u64,
    /// `CacheMiss` events.
    pub cache_misses: u64,
    /// `FlushBatch` events.
    pub flushes: u64,
}

/// A serialized per-run stream plus the label it sorts under.
#[derive(Debug, Clone)]
pub struct RunStream {
    /// The run's deterministic label (also in the stream's header line).
    pub label: String,
    /// The JSON-lines bytes of the full stream.
    pub bytes: Vec<u8>,
}

struct Inner {
    cfg: TelemetryConfig,
    /// The JSON-lines stream so far: each event's line is appended as it
    /// is recorded.
    bytes: Vec<u8>,
    counters: Counters,
    latency_us: FixedHistogram,
    queue_depth: FixedHistogram,
}

/// The recording handle threaded through the simulation.
///
/// An enabled recorder serializes each event to its JSON line the moment
/// it is recorded and keeps only the bytes (about 88 per event on the
/// quick fault storm), so a stream holds every event of the run, however
/// long, in recording order.
///
/// A disabled recorder is a single `None` — every emit path is one branch
/// and never constructs an event (use [`Recorder::emit_with`] on paths
/// where building the event itself would allocate), so the hot path is
/// allocation-free when telemetry is off.
pub struct Recorder {
    inner: Option<Box<Inner>>,
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            None => write!(f, "Recorder(disabled)"),
            Some(i) => write!(
                f,
                "Recorder({:?}, {} events, {} bytes)",
                i.cfg.label,
                i.counters.events,
                i.bytes.len()
            ),
        }
    }
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::disabled()
    }
}

impl Recorder {
    /// The no-op recorder.
    pub fn disabled() -> Recorder {
        Recorder { inner: None }
    }

    /// An enabled recorder capturing into a fresh stream.
    pub fn new(cfg: TelemetryConfig) -> Recorder {
        Recorder {
            inner: Some(Box::new(Inner {
                cfg,
                bytes: Vec::new(),
                counters: Counters::default(),
                latency_us: FixedHistogram::new(LATENCY_BUCKET_US, LATENCY_BUCKETS),
                queue_depth: FixedHistogram::new(QUEUE_BUCKET, QUEUE_BUCKETS),
            })),
        }
    }

    /// True when events are being captured.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The capture config, when enabled.
    pub fn config(&self) -> Option<&TelemetryConfig> {
        self.inner.as_deref().map(|i| &i.cfg)
    }

    /// Records an event (no-op when disabled).
    #[inline]
    pub fn emit(&mut self, ev: Event) {
        if let Some(inner) = self.inner.as_deref_mut() {
            inner.record(ev);
        }
    }

    /// Records the event built by `f`, constructing it only when enabled.
    #[inline]
    pub fn emit_with(&mut self, f: impl FnOnce() -> Event) {
        if let Some(inner) = self.inner.as_deref_mut() {
            inner.record(f());
        }
    }

    /// Samples a queue depth into the fixed histogram (no-op when
    /// disabled).
    #[inline]
    pub fn record_queue_depth(&mut self, depth: f64) {
        if let Some(inner) = self.inner.as_deref_mut() {
            inner.queue_depth.record(depth);
        }
    }

    /// Counter snapshot (zeros when disabled).
    pub fn counters(&self) -> Counters {
        self.inner
            .as_deref()
            .map(|i| i.counters)
            .unwrap_or_default()
    }

    /// The latency histogram, when enabled.
    pub fn latency_hist(&self) -> Option<&FixedHistogram> {
        self.inner.as_deref().map(|i| &i.latency_us)
    }

    /// The queue-depth histogram, when enabled.
    pub fn queue_hist(&self) -> Option<&FixedHistogram> {
        self.inner.as_deref().map(|i| &i.queue_depth)
    }

    /// The captured stream, consuming the recorder. Returns `None` when
    /// disabled.
    pub fn into_stream(self) -> Option<RunStream> {
        let inner = self.inner?;
        Some(RunStream {
            label: inner.cfg.label,
            bytes: inner.bytes,
        })
    }
}

impl Inner {
    fn record(&mut self, ev: Event) {
        self.counters.events += 1;
        match &ev {
            Event::RequestServed { latency_us, .. } => {
                self.counters.served += 1;
                self.latency_us.record(*latency_us);
            }
            Event::SpeedTransition { .. } => self.counters.transitions += 1,
            Event::MigrationStarted { .. } => self.counters.migrations_started += 1,
            Event::MigrationMoved { .. } => self.counters.migrations_moved += 1,
            Event::MigrationAborted { .. } => self.counters.migrations_aborted += 1,
            Event::MigrationDropped { .. } => self.counters.migrations_dropped += 1,
            Event::GuardBoost { entered, .. } => {
                if *entered {
                    self.counters.boosts += 1;
                }
            }
            Event::FaultInjected { .. } => self.counters.faults += 1,
            Event::EpochPlanned { .. } => self.counters.epochs += 1,
            Event::PowerSample { .. } => self.counters.power_samples += 1,
            Event::CacheHit { latency_us, .. } => {
                // A DRAM-served request still counts in the latency
                // histogram: the run_end hist covers every completion.
                self.counters.cache_hits += 1;
                self.latency_us.record(*latency_us);
            }
            Event::CacheMiss { .. } => self.counters.cache_misses += 1,
            Event::FlushBatch { .. } => self.counters.flushes += 1,
            Event::RunStart { .. }
            | Event::PolicyDecision { .. }
            | Event::DiskSummary { .. }
            | Event::CacheSummary { .. }
            | Event::RunSummary { .. }
            | Event::FleetEpoch { .. }
            | Event::CapGrant { .. }
            | Event::TenantMove { .. }
            | Event::FleetSummary { .. } => {}
        }
        ev.write_jsonl(&mut self.bytes)
            .expect("serialize to Vec cannot fail");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_is_inert() {
        let mut r = Recorder::disabled();
        r.emit(Event::PowerSample {
            time_s: 1.0,
            watts: 10.0,
        });
        r.record_queue_depth(3.0);
        assert!(!r.is_enabled());
        assert_eq!(r.counters(), Counters::default());
        assert!(r.into_stream().is_none());
    }

    #[test]
    fn emit_with_skips_construction_when_disabled() {
        let mut r = Recorder::disabled();
        let mut built = false;
        r.emit_with(|| {
            built = true;
            Event::PowerSample {
                time_s: 0.0,
                watts: 0.0,
            }
        });
        assert!(!built);
    }

    #[test]
    fn stream_is_each_event_line_in_recording_order() {
        let evs = [
            Event::PowerSample {
                time_s: 1.0,
                watts: 10.0,
            },
            Event::RequestServed {
                time_s: 2.0,
                latency_us: 1e-7,
                disk: 3,
                tier: crate::STANDBY,
            },
            Event::PowerSample {
                time_s: 3.0,
                watts: -0.0,
            },
        ];
        let mut r = Recorder::new(TelemetryConfig::new("order"));
        let mut want = Vec::new();
        for ev in evs {
            ev.write_jsonl(&mut want).unwrap();
            r.emit(ev);
        }
        assert_eq!(r.into_stream().unwrap().bytes, want);
    }

    #[test]
    fn counters_and_histograms_track_events() {
        let mut r = Recorder::new(TelemetryConfig::new("test"));
        r.emit(Event::RequestServed {
            time_s: 1.0,
            latency_us: 4500.0,
            disk: 0,
            tier: 5,
        });
        r.emit(Event::GuardBoost {
            time_s: 2.0,
            entered: true,
            reason: crate::BoostReason::Latency,
        });
        r.emit(Event::GuardBoost {
            time_s: 3.0,
            entered: false,
            reason: crate::BoostReason::Latency,
        });
        r.record_queue_depth(2.0);
        let c = r.counters();
        assert_eq!((c.events, c.served, c.boosts), (3, 1, 1));
        assert_eq!(r.latency_hist().unwrap().count(), 1);
        assert_eq!(r.latency_hist().unwrap().counts()[2], 1); // 4500 us -> bucket 2
        assert_eq!(r.queue_hist().unwrap().counts()[2], 1);
        let stream = r.into_stream().unwrap();
        assert_eq!(stream.label, "test");
        assert_eq!(
            std::str::from_utf8(&stream.bytes).unwrap().lines().count(),
            3
        );
    }
}
