//! Micro-benchmarks of the simulator's hot data structures and algorithms.
//!
//! These pin down where the ~2 M events/second of the end-to-end simulator
//! goes: the event queue, per-request service computation, statistics
//! recording, popularity sampling, MAID's cache-disk tier directory, the
//! once-per-epoch allocator DP, and telemetry recording and audit.

use array::{ChunkId, HeatMap, RankScratch};
use bench::{criterion_group, criterion_main, Criterion};
use cache::TierDirectory;
use diskmodel::{Disk, DiskRequest, DiskSpec, IoKind, RequestClass, ServiceModel, SpeedLevel};
use hibernator::{AllocationInput, ServiceEstimator, SpeedAllocator};
use simkit::{DetRng, EventQueue, LatencyHistogram, Moments, SimDuration, SimTime, SlidingWindow};
use std::hint::black_box;
use telemetry::{Event, Recorder, TelemetryConfig};
use workload::ZipfExtents;

fn event_queue(c: &mut Criterion) {
    c.bench_function("event_queue_push_pop_1k", |b| {
        let mut rng = DetRng::new(1, "bench-eq");
        let times: Vec<f64> = (0..1000).map(|_| rng.uniform(0.0, 1e6)).collect();
        b.iter(|| {
            let mut q = EventQueue::with_capacity(1024);
            for (i, &t) in times.iter().enumerate() {
                q.push(SimTime::from_secs(t), i);
            }
            let mut acc = 0usize;
            while let Some((_, p)) = q.pop() {
                acc = acc.wrapping_add(p);
            }
            black_box(acc)
        })
    });
}

fn event_queue_ties(c: &mut Criterion) {
    // All-same-time bursts stress the packed (time, seq) key's FIFO
    // tie-breaking — the common case after a tick wakes many disks at once.
    c.bench_function("event_queue_same_time_fifo_1k", |b| {
        let t = SimTime::from_secs(123.456);
        b.iter(|| {
            let mut q = EventQueue::with_capacity(1024);
            for i in 0..1000usize {
                q.push(t, i);
            }
            let mut acc = 0usize;
            while let Some((_, p)) = q.pop() {
                acc = acc.wrapping_add(p);
            }
            black_box(acc)
        })
    });
}

fn service_model(c: &mut Criterion) {
    let spec = DiskSpec::ultrastar_multispeed(6);
    let model = ServiceModel::new(&spec);
    let mut rng = DetRng::new(2, "bench-svc");
    let cap = model.geometry().total_sectors();
    let reqs: Vec<DiskRequest> = (0..256)
        .map(|i| DiskRequest {
            id: i,
            sector: rng.below(cap - 64),
            sectors: 16,
            kind: IoKind::Read,
            class: RequestClass::Foreground,
            issue_time: SimTime::ZERO,
        })
        .collect();
    c.bench_function("service_time_256_random_reqs", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for (i, r) in reqs.iter().enumerate() {
                let phases = model.service(r, (i * 37 % 18000) as u32, SpeedLevel(5), 0.5);
                acc += phases.total_s();
            }
            black_box(acc)
        })
    });
}

fn disk_service_loop(c: &mut Criterion) {
    c.bench_function("disk_1k_requests_end_to_end", |b| {
        let spec = DiskSpec::ultrastar_multispeed(6);
        b.iter(|| {
            let mut disk = Disk::new(0, &spec, 9, SpeedLevel(5));
            let t0 = SimTime::ZERO;
            for i in 0..1000u64 {
                disk.submit(
                    t0,
                    DiskRequest {
                        id: i,
                        sector: (i * 104_729) % 40_000_000,
                        sectors: 16,
                        kind: IoKind::Read,
                        class: RequestClass::Foreground,
                        issue_time: t0,
                    },
                );
            }
            let mut done = 0;
            while let Some(t) = disk.next_event_time() {
                done += disk.on_event(t).len();
            }
            black_box(done)
        })
    });
}

fn statistics(c: &mut Criterion) {
    let mut rng = DetRng::new(3, "bench-stats");
    let samples: Vec<f64> = (0..10_000).map(|_| rng.uniform(1e-4, 0.5)).collect();
    c.bench_function("moments_record_10k", |b| {
        b.iter(|| {
            let mut m = Moments::new();
            for &s in &samples {
                m.record(s);
            }
            black_box(m.variance())
        })
    });
    c.bench_function("histogram_record_10k", |b| {
        b.iter(|| {
            let mut h = LatencyHistogram::new_latency();
            for &s in &samples {
                h.record(s);
            }
            black_box(h.quantile(0.99))
        })
    });
    c.bench_function("sliding_window_record_10k", |b| {
        b.iter(|| {
            let mut w = SlidingWindow::new(SimDuration::from_secs(10.0));
            for (i, &s) in samples.iter().enumerate() {
                w.record(SimTime::from_secs(i as f64 * 0.01), s);
            }
            black_box(w.mean(SimTime::from_secs(100.0)))
        })
    });
}

fn popularity(c: &mut Criterion) {
    let mut rng = DetRng::new(4, "bench-zipf");
    let zipf = ZipfExtents::new(&mut rng, 16_384, 2048, 0.95);
    c.bench_function("zipf_sample_10k", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for _ in 0..10_000 {
                acc = acc.wrapping_add(zipf.sample_sector(&mut rng, 16));
            }
            black_box(acc)
        })
    });
}

fn tier_directory(c: &mut Criterion) {
    // MAID's tier at the grid's shape (3 cache disks × 2048 chunks) under
    // a Zipf chunk stream, driven as `MaidPolicy::route` drives it: look
    // up, promote on a miss. θ = 0.85 over OLTP's 16 384-chunk footprint
    // gives about 75% hits once warm, as in the grid's OLTP run.
    let mut rng = DetRng::new(6, "bench-tier");
    let zipf = ZipfExtents::new(&mut rng, 16_384, 1, 0.85);
    let chunks: Vec<u32> = (0..65_536)
        .map(|_| zipf.sample_sector(&mut rng, 1) as u32)
        .collect();
    let mut dir = TierDirectory::new(&[13, 14, 15], 2048);
    let pass = |dir: &mut TierDirectory| {
        let mut hits = 0u32;
        for &chunk in &chunks {
            match dir.lookup(chunk) {
                Some(_) => hits += 1,
                None => {
                    dir.insert(chunk);
                }
            }
        }
        hits
    };
    // Warm the tier so every timed pass runs at steady state.
    for _ in 0..3 {
        pass(&mut dir);
    }
    c.bench_function("tier_directory_6k_zipf", |b| {
        b.iter(|| black_box(pass(&mut dir)))
    });
}

fn heat_ranking(c: &mut Criterion) {
    // Both cases time `ranking_into` alone, with the scratch reused as the
    // epoch planners reuse theirs. Dense: a single OLTP array touches
    // nearly all of its 16 384 chunks between epochs.
    let mut rng = DetRng::new(5, "bench-heat");
    let mut dense = HeatMap::new(16_384, SimDuration::from_hours(2.0));
    for i in 0..200_000 {
        let chunk = ChunkId((rng.below(16_384)) as u32);
        dense.touch(SimTime::from_secs(i as f64 * 0.01), chunk, 1.0);
    }
    // Fleet-shaped: each of 256 arrays serves 1/256 of the load and
    // touches a few dozen chunks, here 64 spread over the volume.
    let mut sparse = HeatMap::new(16_384, SimDuration::from_hours(2.0));
    let warm: Vec<u32> = (0..64).map(|k| k * 256 + rng.below(256) as u32).collect();
    for i in 0..2_000 {
        let chunk = ChunkId(warm[rng.below(64) as usize]);
        sparse.touch(SimTime::from_secs(i as f64), chunk, 1.0);
    }
    let now = SimTime::from_secs(2000.0);
    let mut scratch = RankScratch::new();
    for (name, heat) in [
        ("heat_ranking_16k_chunks", &dense),
        ("heat_ranking_16k_chunks_64_warm", &sparse),
    ] {
        c.bench_function(name, |b| {
            b.iter(|| {
                heat.ranking_into(now, &mut scratch);
                black_box(scratch.ranked()[0])
            })
        });
    }
}

fn allocator_dp(c: &mut Criterion) {
    let spec = DiskSpec::ultrastar_multispeed(6);
    let alloc = SpeedAllocator::new(&diskmodel::PowerModel::new(&spec), 6);
    let est = ServiceEstimator::new(&ServiceModel::new(&spec), 6, 16);
    let rates: Vec<f64> = (0..16_384)
        .map(|i| 150.0 / (i as f64 + 1.0) / 10.0)
        .collect();
    c.bench_function("allocator_dp_16_disks", |b| {
        b.iter(|| {
            let input = AllocationInput {
                chunk_rates: &rates,
                disks: 16,
                goal_s: 0.004,
            };
            black_box(alloc.allocate(&input, &est))
        })
    });
    c.bench_function("allocator_dp_64_disks", |b| {
        b.iter(|| {
            let input = AllocationInput {
                chunk_rates: &rates,
                disks: 64,
                goal_s: 0.004,
            };
            black_box(alloc.allocate(&input, &est))
        })
    });
}

fn worker_pool(c: &mut Criterion) {
    // Dispatch overhead of the experiment harness's executor: many tiny
    // jobs (worst case for queue contention) and a batch of short
    // simulation-shaped jobs, at 1 worker (inline path) vs 4.
    let pool1 = parallel::Pool::new(1);
    let pool4 = parallel::Pool::new(4);
    c.bench_function("pool_1k_tiny_jobs_1_worker", |b| {
        b.iter(|| {
            let jobs: Vec<_> = (0..1000u64).map(|i| move || i.wrapping_mul(i)).collect();
            black_box(pool1.map(jobs))
        })
    });
    c.bench_function("pool_1k_tiny_jobs_4_workers", |b| {
        b.iter(|| {
            let jobs: Vec<_> = (0..1000u64).map(|i| move || i.wrapping_mul(i)).collect();
            black_box(pool4.map(jobs))
        })
    });
    c.bench_function("pool_16_cpu_jobs_4_workers", |b| {
        b.iter(|| {
            let jobs: Vec<_> = (0..16u64)
                .map(|i| {
                    move || {
                        let mut acc = i;
                        for k in 0..200_000u64 {
                            acc = acc.wrapping_mul(6364136223846793005).wrapping_add(k);
                        }
                        acc
                    }
                })
                .collect();
            black_box(pool4.map(jobs))
        })
    });
}

/// A header, `n` `RequestServed` events with realistic float tails, and
/// a trailer whose totals reconcile, recorded by an enabled `Recorder`.
fn served_stream(n: u64) -> Vec<u8> {
    let mut rng = DetRng::new(7, "bench-telemetry");
    let mut r = Recorder::new(TelemetryConfig::new("bench/served"));
    r.emit(Event::RunStart {
        time_s: 0.0,
        label: "bench/served".into(),
        disks: 16,
        levels: 6,
        horizon_s: n as f64,
        migration_inflight: 2,
        sample_interval_s: 120.0,
        series_bucket_s: 120.0,
        goal_s: f64::MAX,
        warmup_s: 0.0,
        seed: 7,
    });
    for i in 0..n {
        r.emit(Event::RequestServed {
            time_s: i as f64 + rng.uniform(0.0, 1.0),
            latency_us: rng.uniform(500.0, 20_000.0),
            disk: rng.below(16) as u32,
            tier: 5,
        });
    }
    for disk in 0..16 {
        r.emit(Event::DiskSummary {
            time_s: n as f64,
            disk,
            energy_j: [0.0; 6],
            transitions: 0,
            failed_at_s: None,
        });
    }
    let hist = r.latency_hist().expect("enabled");
    let (latency_hist, latency_overflow) = (hist.counts().to_vec(), hist.overflow());
    r.emit(Event::RunSummary {
        time_s: n as f64,
        total_j: 0.0,
        energy_j: [0.0; 6],
        completed: n,
        incomplete: 0,
        transitions: 0,
        mean_response_s: 0.0,
        violation: 0.0,
        latency_hist,
        latency_overflow,
        queue_hist: Vec::new(),
        queue_overflow: 0,
        moved: 0,
        remap_version: 0,
        dropped: 0,
    });
    r.into_stream().expect("enabled").bytes
}

fn telemetry(c: &mut Criterion) {
    c.bench_function("telemetry_record_served_100k", |b| {
        b.iter(|| black_box(served_stream(100_000).len()))
    });
    let bytes = served_stream(100_000);
    assert!(telemetry::audit::audit_bytes(&bytes)
        .expect("parsable stream")
        .passed());
    c.bench_function("audit_served_100k", |b| {
        b.iter(|| black_box(telemetry::audit::audit_bytes(&bytes).map(|o| o.runs.len())))
    });
}

criterion_group!(
    micro,
    event_queue,
    event_queue_ties,
    service_model,
    disk_service_loop,
    statistics,
    popularity,
    tier_directory,
    heat_ranking,
    allocator_dp,
    worker_pool,
    telemetry,
);
criterion_main!(micro);
