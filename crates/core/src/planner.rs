//! Turning an allocation into concrete disk targets and migration jobs.
//!
//! The allocator decides *how many* disks spin at each level; the planner
//! decides *which* disks and *which chunks move where*, minimising
//! disruption:
//!
//! * **Disk matching** — disks already at (or heading to) a level are kept
//!   there when the new allocation still wants disks at that level, so an
//!   unchanged allocation causes zero spindle transitions.
//! * **Chunk delta** — the target layout puts the hottest chunk range on
//!   the fastest tier; only chunks whose *current* disk lies outside their
//!   target tier are moved, hottest first, up to a per-epoch budget.
//!   Destinations are chosen to keep per-disk chunk counts balanced.

use array::{ArrayState, ChunkId, DiskId, MigrationJob};
use diskmodel::SpeedLevel;

/// The planner's output for one epoch: concrete disk targets plus the
/// migration delta, bundled by [`plan_epoch`].
#[derive(Debug, Clone)]
pub struct EpochPlan {
    /// Per-disk target level, indexed by disk id.
    pub disk_levels: Vec<SpeedLevel>,
    /// Migration jobs, most valuable first, already truncated to budget.
    pub jobs: Vec<MigrationJob>,
}

/// Convenience wrapper combining [`match_disks`] and [`plan_migrations`]
/// into one call — the whole planning step for an epoch.
pub fn plan_epoch(
    state: &ArrayState,
    per_level: &[usize],
    ranking: &[ChunkId],
    budget: usize,
) -> EpochPlan {
    let disk_levels = match_disks(state, per_level);
    let jobs = plan_migrations(state, ranking, &disk_levels, budget);
    EpochPlan { disk_levels, jobs }
}

/// Assigns concrete disks to the allocation's per-level counts, preferring
/// to keep each disk at its current effective level. Failed disks are
/// excluded from the matching: the counts must cover exactly the *alive*
/// disks, and a dead disk's output slot carries its (inert) effective
/// level — ramping it is a no-op and the migration planner skips it.
///
/// Returns the per-disk target level, indexed by disk id.
///
/// # Panics
/// Panics if the counts do not sum to the number of alive disks.
pub fn match_disks(state: &ArrayState, per_level: &[usize]) -> Vec<SpeedLevel> {
    let n = state.disks.len();
    assert_eq!(
        per_level.iter().sum::<usize>(),
        state.alive_disks(),
        "counts must cover disks"
    );
    let mut remaining: Vec<usize> = per_level.to_vec();
    let mut out: Vec<Option<SpeedLevel>> = vec![None; n];

    // Pass 0: dead disks keep their inert level and consume no count.
    for (i, d) in state.disks.iter().enumerate() {
        if d.has_failed() {
            out[i] = Some(d.effective_level());
        }
    }
    // Pass 1: keep alive disks already at a level that still wants disks.
    for (i, d) in state.disks.iter().enumerate() {
        if out[i].is_some() {
            continue;
        }
        let l = d.effective_level();
        if remaining[l.index()] > 0 {
            remaining[l.index()] -= 1;
            out[i] = Some(l);
        }
    }
    // Pass 2: hand out the rest, fastest levels to lowest-id free disks
    // (deterministic).
    let mut free: Vec<usize> = (0..n).filter(|&i| out[i].is_none()).collect();
    for level in (0..per_level.len()).rev() {
        for _ in 0..remaining[level] {
            let disk = free.remove(0);
            out[disk] = Some(SpeedLevel(level));
        }
        remaining[level] = 0;
    }
    out.into_iter()
        .map(|o| o.expect("every disk assigned"))
        .collect()
}

/// Plans the chunk moves for the epoch.
///
/// `ranking` is the full chunk ranking hottest→coldest; `disk_levels` the
/// result of [`match_disks`]. Chunks are assigned hottest-first to the
/// fastest tier's disks (each disk taking an equal share), and a
/// [`MigrationJob::Relocate`] is emitted for every chunk not already on a
/// disk of its target tier, until `budget` jobs have been emitted.
pub fn plan_migrations(
    state: &ArrayState,
    ranking: &[ChunkId],
    disk_levels: &[SpeedLevel],
    budget: usize,
) -> Vec<MigrationJob> {
    let n = disk_levels.len();
    if n == 0 || ranking.is_empty() || budget == 0 {
        return Vec::new();
    }
    let alive = state.alive_disks();
    if alive == 0 {
        return Vec::new();
    }
    let cpd = ranking.len().div_ceil(alive);

    // Disks per level, fastest tier first, ids ascending within a tier.
    // Dead disks can neither hold nor receive chunks; leave them out.
    let levels = state.config.spec.num_levels();
    let mut tier_disks: Vec<Vec<DiskId>> = vec![Vec::new(); levels];
    for (i, &l) in disk_levels.iter().enumerate() {
        if !state.disks[i].has_failed() {
            tier_disks[l.index()].push(DiskId(i));
        }
    }

    // Fill counters spread relocation destinations evenly across each tier.
    let mut fill: Vec<usize> = vec![0; n];

    let mut jobs = Vec::new();
    let mut unplaced = ranking;
    'tiers: for level in (0..levels).rev() {
        let disks = &tier_disks[level];
        if disks.is_empty() {
            continue;
        }
        let capacity = disks.len() * cpd;
        let (members, rest) = unplaced.split_at(capacity.min(unplaced.len()));
        unplaced = rest;
        if members.is_empty() {
            continue;
        }
        let in_tier = |d: DiskId| disks.contains(&d);
        // First account for chunks already in place.
        let mut movers = Vec::new();
        for &c in members {
            let cur = state.remap.disk_of(c);
            if in_tier(cur) {
                fill[cur.index()] += 1;
            } else {
                movers.push(c);
            }
        }
        // Movers go to the least-filled tier disk.
        for c in movers {
            let &dst = disks
                .iter()
                .min_by_key(|d| fill[d.index()])
                .expect("tier non-empty");
            fill[dst.index()] += 1;
            jobs.push(MigrationJob::Relocate { chunk: c, dst });
            if jobs.len() >= budget {
                break 'tiers;
            }
        }
    }
    jobs
}

#[cfg(test)]
mod tests {
    use super::*;
    use array::{ArrayConfig, ArrayStats, MigrationEngine, RemapTable};
    use diskmodel::{Disk, SpinTarget};
    use simkit::{SimDuration, SimTime};

    fn mk_state(disks: usize, chunks: u32) -> ArrayState {
        let mut config = ArrayConfig::default_for_volume(1 << 30);
        config.disks = disks;
        config.volume_chunks = chunks;
        let remap = RemapTable::striped(&config);
        let ds = (0..disks)
            .map(|i| Disk::new(i, &config.spec, 1, config.spec.top_level()))
            .collect();
        let stats = ArrayStats::new(config.spec.num_levels(), SimDuration::from_secs(60.0));
        ArrayState {
            config,
            disks: ds,
            remap,
            migrator: MigrationEngine::new(2),
            stats,
            telemetry: telemetry::Recorder::disabled(),
            wake_marks: array::WakeMarks::new(disks),
        }
    }

    #[test]
    fn unchanged_allocation_keeps_everyone_in_place() {
        let state = mk_state(4, 16);
        // All disks are at level 5; allocation wants 4 at level 5.
        let mut counts = vec![0; 6];
        counts[5] = 4;
        let targets = match_disks(&state, &counts);
        assert!(targets.iter().all(|&l| l == SpeedLevel(5)));
    }

    #[test]
    fn matching_minimises_changes() {
        let mut state = mk_state(4, 16);
        // Move disk 0 and 1 to level 0 first.
        state.disks[0].request_speed(SimTime::ZERO, SpinTarget::Level(SpeedLevel(0)));
        state.disks[1].request_speed(SimTime::ZERO, SpinTarget::Level(SpeedLevel(0)));
        // New allocation wants 1 slow + 3 fast: one of {0,1} stays slow.
        let mut counts = vec![0; 6];
        counts[0] = 1;
        counts[5] = 3;
        let targets = match_disks(&state, &counts);
        let slow: Vec<usize> = targets
            .iter()
            .enumerate()
            .filter(|(_, &l)| l == SpeedLevel(0))
            .map(|(i, _)| i)
            .collect();
        assert_eq!(slow.len(), 1);
        assert!(slow[0] == 0 || slow[0] == 1, "a slow disk should stay slow");
    }

    #[test]
    #[should_panic(expected = "counts must cover")]
    fn match_rejects_bad_counts() {
        let state = mk_state(4, 16);
        let counts = vec![0, 0, 0, 0, 0, 3];
        let _ = match_disks(&state, &counts);
    }

    #[test]
    fn plan_moves_hot_chunks_to_fast_tier() {
        let state = mk_state(4, 16);
        // Allocation: disks 0,1 fast (level 5), disks 2,3 slow (level 0).
        let disk_levels = vec![SpeedLevel(5), SpeedLevel(5), SpeedLevel(0), SpeedLevel(0)];
        // Ranking: chunks 2, 3 are hottest (they live on disks 2 and 3 under
        // striping), the rest colder.
        let ranking: Vec<ChunkId> = [2u32, 3, 6, 7, 0, 1, 4, 5, 8, 9, 10, 11, 12, 13, 14, 15]
            .iter()
            .map(|&c| ChunkId(c))
            .collect();
        let jobs = plan_migrations(&state, &ranking, &disk_levels, 100);
        // The hot chunks on slow disks (2, 3, 6, 7) must move to disks 0/1.
        let mut moved: Vec<(u32, usize)> = jobs
            .iter()
            .map(|j| match j {
                MigrationJob::Relocate { chunk, dst } => (chunk.0, dst.index()),
                other => panic!("unexpected job {other:?}"),
            })
            .collect();
        moved.sort_unstable();
        for (chunk, dst) in &moved[..4.min(moved.len())] {
            if [2, 3, 6, 7].contains(chunk) {
                assert!(*dst <= 1, "hot chunk {chunk} routed to slow disk {dst}");
            }
        }
        assert!(
            jobs.len() >= 4,
            "hot-on-slow and cold-on-fast chunks both need moves: {}",
            jobs.len()
        );
    }

    #[test]
    fn plan_respects_budget_and_orders_hottest_first() {
        let state = mk_state(4, 16);
        let disk_levels = vec![SpeedLevel(5), SpeedLevel(5), SpeedLevel(0), SpeedLevel(0)];
        let ranking: Vec<ChunkId> = (0..16).map(ChunkId).collect();
        let all = plan_migrations(&state, &ranking, &disk_levels, 100);
        let capped = plan_migrations(&state, &ranking, &disk_levels, 2);
        assert_eq!(capped.len(), 2);
        assert_eq!(&all[..2], &capped[..]);
    }

    #[test]
    fn aligned_layout_needs_no_moves() {
        let state = mk_state(2, 8);
        // Striping: chunks 0,2,4,6 on disk 0; 1,3,5,7 on disk 1.
        let disk_levels = vec![SpeedLevel(5), SpeedLevel(0)];
        // Ranking exactly matches the current split: disk-0 chunks hottest.
        let ranking: Vec<ChunkId> = [0u32, 2, 4, 6, 1, 3, 5, 7]
            .iter()
            .map(|&c| ChunkId(c))
            .collect();
        let jobs = plan_migrations(&state, &ranking, &disk_levels, 100);
        assert!(jobs.is_empty(), "layout already matches: {jobs:?}");
    }

    #[test]
    fn empty_inputs_no_jobs() {
        let state = mk_state(2, 8);
        assert!(plan_migrations(&state, &[], &[SpeedLevel(0), SpeedLevel(0)], 10).is_empty());
        let ranking: Vec<ChunkId> = (0..8).map(ChunkId).collect();
        assert!(plan_migrations(&state, &ranking, &[SpeedLevel(0), SpeedLevel(0)], 0).is_empty());
    }

    #[test]
    fn plan_epoch_bundles_matching_and_jobs() {
        let state = mk_state(4, 16);
        let mut counts = vec![0; 6];
        counts[0] = 2;
        counts[5] = 2;
        let ranking: Vec<ChunkId> = (0..16).map(ChunkId).collect();
        let plan = plan_epoch(&state, &counts, &ranking, 100);
        assert_eq!(plan.disk_levels.len(), 4);
        let manual = plan_migrations(&state, &ranking, &plan.disk_levels, 100);
        assert_eq!(plan.jobs.len(), manual.len());
    }

    #[test]
    fn destinations_stay_balanced() {
        let state = mk_state(4, 32);
        let disk_levels = vec![SpeedLevel(5), SpeedLevel(5), SpeedLevel(0), SpeedLevel(0)];
        let ranking: Vec<ChunkId> = (0..32).map(ChunkId).collect();
        let jobs = plan_migrations(&state, &ranking, &disk_levels, 1000);
        let mut per_dst = std::collections::HashMap::new();
        for j in &jobs {
            if let MigrationJob::Relocate { dst, .. } = j {
                *per_dst.entry(dst.index()).or_insert(0usize) += 1;
            }
        }
        let max = per_dst.values().copied().max().unwrap_or(0);
        let min = per_dst.values().copied().min().unwrap_or(0);
        assert!(max - min <= 2, "unbalanced destinations: {per_dst:?}");
    }
}
