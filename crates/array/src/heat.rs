//! Per-chunk access-temperature tracking.
//!
//! Both Hibernator and PDC need "how hot is each chunk lately". [`HeatMap`]
//! keeps one exponentially decaying counter per chunk (time constant `tau`),
//! so temperature reflects recent traffic and forgets ancient history. The
//! decay is applied lazily, making `touch` O(1).
//!
//! The map also remembers which chunks have been touched (its *warm set*).
//! Every other chunk is exactly cold, so ranking costs one `exp()` per warm
//! chunk and a sort of those with non-zero temperature, not a sort of the
//! whole volume.

use crate::types::ChunkId;
use simkit::{SimDuration, SimTime};

/// One decaying counter per chunk.
#[derive(Debug, Clone)]
pub struct HeatMap {
    tau_s: f64,
    mass: Vec<f64>,
    last: Vec<SimTime>,
    /// `is_warm[c]` once chunk `c` has been touched since the last reset.
    is_warm: Vec<bool>,
    /// The touched chunks, in first-touch order. Every chunk not listed
    /// has zero mass.
    warm: Vec<u32>,
}

impl HeatMap {
    /// Creates a map over `chunks` chunks with decay time constant `tau`.
    ///
    /// # Panics
    /// Panics if `tau` is zero or `chunks == 0`.
    pub fn new(chunks: u32, tau: SimDuration) -> HeatMap {
        assert!(!tau.is_zero(), "HeatMap: zero tau");
        assert!(chunks > 0, "HeatMap: no chunks");
        HeatMap {
            tau_s: tau.as_secs(),
            mass: vec![0.0; chunks as usize],
            last: vec![SimTime::ZERO; chunks as usize],
            is_warm: vec![false; chunks as usize],
            warm: Vec::new(),
        }
    }

    /// Number of chunks tracked.
    pub fn chunks(&self) -> u32 {
        self.mass.len() as u32
    }

    /// Registers `weight` accesses to `chunk` at `now` (weight 1.0 = one
    /// request; callers may weight by sectors). Weights are non-negative.
    pub fn touch(&mut self, now: SimTime, chunk: ChunkId, weight: f64) {
        let i = chunk.index();
        if !self.is_warm[i] {
            self.is_warm[i] = true;
            self.warm.push(chunk.0);
        }
        let dt = now.saturating_since(self.last[i]).as_secs();
        if dt > 0.0 {
            self.mass[i] *= (-dt / self.tau_s).exp();
            self.last[i] = now;
        }
        self.mass[i] += weight;
    }

    /// The decayed temperature of `chunk` as of `now`.
    pub fn temperature(&self, now: SimTime, chunk: ChunkId) -> f64 {
        let i = chunk.index();
        let dt = now.saturating_since(self.last[i]).as_secs();
        self.mass[i] * (-dt / self.tau_s).exp()
    }

    /// Estimated recent access rate of `chunk` (accesses/sec).
    pub fn rate(&self, now: SimTime, chunk: ChunkId) -> f64 {
        self.temperature(now, chunk) / self.tau_s
    }

    /// All chunk ids ordered hottest → coldest as of `now`. Ties broken by
    /// chunk id for determinism.
    ///
    /// Allocates fresh buffers; epoch planners that rank repeatedly should
    /// hold a [`RankScratch`] and call [`HeatMap::ranking_into`] instead.
    pub fn ranking(&self, now: SimTime) -> Vec<ChunkId> {
        let mut scratch = RankScratch::new();
        self.ranking_into(now, &mut scratch);
        scratch.order
    }

    /// Ranks all chunks hottest → coldest into `scratch`, reusing its
    /// buffers, and fills [`RankScratch::rates`] alongside. Same order as
    /// [`HeatMap::ranking`]: temperature descending, id ascending on ties.
    ///
    /// Only warm chunks are evaluated. Those with a temperature above zero
    /// are sorted; every other chunk (never touched, or decayed to exactly
    /// zero) has temperature 0.0 and so follows them in ascending id order.
    /// The comparator is a total order, so this is the permutation a sort of
    /// the whole volume gives.
    ///
    /// # Panics
    /// Panics if a temperature is NaN or negative (a NaN or negative
    /// weight was touched).
    pub fn ranking_into(&self, now: SimTime, scratch: &mut RankScratch) {
        let RankScratch { order, rates, hot } = scratch;
        hot.clear();
        for &c in &self.warm {
            let t = self.temperature(now, ChunkId(c));
            assert!(t >= 0.0, "temperatures are not NaN or negative");
            if t > 0.0 {
                hot.push((t, c));
            }
        }
        hot.sort_unstable_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
        order.clear();
        order.extend(hot.iter().map(|&(_, c)| ChunkId(c)));
        rates.clear();
        rates.extend(hot.iter().map(|&(t, _)| t / self.tau_s));
        // The cold tail: every id not in the hot prefix, ascending, rate 0.
        hot.sort_unstable_by_key(|&(_, c)| c);
        let mut next = 0;
        for &(_, c) in hot.iter() {
            order.extend((next..c).map(ChunkId));
            next = c + 1;
        }
        order.extend((next..self.chunks()).map(ChunkId));
        rates.resize(order.len(), 0.0);
    }

    /// Sum of all temperatures as of `now` (total recent traffic mass).
    pub fn total(&self, now: SimTime) -> f64 {
        (0..self.chunks())
            .map(|c| self.temperature(now, ChunkId(c)))
            .sum()
    }

    /// Resets every counter to zero.
    pub fn reset(&mut self) {
        for &c in &self.warm {
            self.mass[c as usize] = 0.0;
            self.is_warm[c as usize] = false;
        }
        self.warm.clear();
    }
}

/// Reusable buffers for [`HeatMap::ranking_into`].
///
/// Epoch planners rank every chunk each planning round; holding one of
/// these across rounds avoids rebuilding (and re-allocating) the ranking
/// and rate vectors every call.
#[derive(Debug, Clone, Default)]
pub struct RankScratch {
    order: Vec<ChunkId>,
    rates: Vec<f64>,
    /// `(temperature, chunk)` of the chunks above zero.
    hot: Vec<(f64, u32)>,
}

impl RankScratch {
    /// Empty scratch; buffers grow on first use and are then reused.
    pub fn new() -> Self {
        Self::default()
    }

    /// The ranking produced by the most recent [`HeatMap::ranking_into`]
    /// call, hottest first.
    pub fn ranked(&self) -> &[ChunkId] {
        &self.order
    }

    /// The access rate of each chunk of [`RankScratch::ranked`], aligned
    /// with it: `rates()[k]` has the bits of `HeatMap::rate(now, ranked()[k])`
    /// for the `now` of that call.
    pub fn rates(&self) -> &[f64] {
        &self.rates
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn untouched_chunks_are_cold() {
        let h = HeatMap::new(8, SimDuration::from_secs(100.0));
        for c in 0..8 {
            assert_eq!(h.temperature(t(50.0), ChunkId(c)), 0.0);
        }
        assert_eq!(h.total(t(0.0)), 0.0);
    }

    #[test]
    fn touches_accumulate_and_decay() {
        let mut h = HeatMap::new(4, SimDuration::from_secs(10.0));
        h.touch(t(0.0), ChunkId(1), 1.0);
        h.touch(t(0.0), ChunkId(1), 1.0);
        assert!((h.temperature(t(0.0), ChunkId(1)) - 2.0).abs() < 1e-12);
        // One time constant later: e^{-1} of the mass remains.
        let later = h.temperature(t(10.0), ChunkId(1));
        assert!((later - 2.0 * (-1.0f64).exp()).abs() < 1e-9);
        // Ten time constants later: effectively cold.
        assert!(h.temperature(t(100.0), ChunkId(1)) < 1e-3);
    }

    #[test]
    fn ranking_orders_by_recent_traffic() {
        let mut h = HeatMap::new(4, SimDuration::from_secs(100.0));
        for _ in 0..10 {
            h.touch(t(1.0), ChunkId(2), 1.0);
        }
        for _ in 0..5 {
            h.touch(t(1.0), ChunkId(0), 1.0);
        }
        h.touch(t(1.0), ChunkId(3), 1.0);
        let r = h.ranking(t(1.0));
        assert_eq!(r[0], ChunkId(2));
        assert_eq!(r[1], ChunkId(0));
        assert_eq!(r[2], ChunkId(3));
        assert_eq!(r[3], ChunkId(1));
    }

    #[test]
    fn ranking_ties_break_by_id() {
        let h = HeatMap::new(3, SimDuration::from_secs(10.0));
        assert_eq!(h.ranking(t(0.0)), vec![ChunkId(0), ChunkId(1), ChunkId(2)]);
    }

    #[test]
    fn recency_beats_stale_volume() {
        let mut h = HeatMap::new(2, SimDuration::from_secs(60.0));
        // Chunk 0: heavy traffic long ago. Chunk 1: light traffic now.
        for _ in 0..100 {
            h.touch(t(0.0), ChunkId(0), 1.0);
        }
        for _ in 0..5 {
            h.touch(t(600.0), ChunkId(1), 1.0);
        }
        let r = h.ranking(t(600.0));
        assert_eq!(r[0], ChunkId(1), "recent traffic should dominate");
    }

    #[test]
    fn rate_estimates_frequency() {
        let mut h = HeatMap::new(1, SimDuration::from_secs(50.0));
        for i in 0..2500 {
            h.touch(t(i as f64 * 0.2), ChunkId(0), 1.0); // 5/sec
        }
        let r = h.rate(t(500.0), ChunkId(0));
        assert!((r - 5.0).abs() < 0.5, "rate {r}");
    }

    #[test]
    fn ranking_into_matches_ranking_and_reuses_buffers() {
        let mut h = HeatMap::new(16, SimDuration::from_secs(50.0));
        for i in 0..200u32 {
            h.touch(t(i as f64 * 0.3), ChunkId(i * 7 % 16), 1.0 + (i % 3) as f64);
        }
        let mut scratch = RankScratch::new();
        for probe in [10.0, 30.0, 60.0] {
            h.ranking_into(t(probe), &mut scratch);
            assert_eq!(scratch.ranked(), h.ranking(t(probe)).as_slice());
        }
        // Buffers sized to the chunk count after first use; later calls
        // must not grow them.
        let cap = scratch.order.capacity();
        h.ranking_into(t(90.0), &mut scratch);
        assert_eq!(scratch.order.capacity(), cap);
    }

    #[test]
    fn reset_clears() {
        let mut h = HeatMap::new(2, SimDuration::from_secs(10.0));
        h.touch(t(0.0), ChunkId(0), 3.0);
        h.reset();
        assert_eq!(h.temperature(t(0.0), ChunkId(0)), 0.0);
    }

    /// The ranking as it was before the warm set: every chunk's temperature,
    /// then one sort of the whole volume. The oracle for `ranking_into`.
    fn full_sort_ranking(h: &HeatMap, now: SimTime) -> Vec<ChunkId> {
        let n = h.chunks();
        let temps: Vec<f64> = (0..n).map(|c| h.temperature(now, ChunkId(c))).collect();
        let mut order: Vec<ChunkId> = (0..n).map(ChunkId).collect();
        order.sort_unstable_by(|a, b| {
            temps[b.index()]
                .partial_cmp(&temps[a.index()])
                .expect("temperatures are finite")
                .then(a.0.cmp(&b.0))
        });
        order
    }

    /// `ranking_into` gives the oracle's permutation, and each rate has the
    /// bits `rate` gives for its chunk.
    fn assert_matches_oracle(h: &HeatMap, now: SimTime, scratch: &mut RankScratch) {
        h.ranking_into(now, scratch);
        assert_eq!(scratch.ranked(), full_sort_ranking(h, now).as_slice());
        assert_eq!(scratch.rates().len(), scratch.ranked().len());
        for (k, (&c, &r)) in scratch.ranked().iter().zip(scratch.rates()).enumerate() {
            assert_eq!(r.to_bits(), h.rate(now, c).to_bits(), "rate {k} of {c:?}");
        }
    }

    /// `touches` random touches over `chunks` of `h`, at 0.5 s steps so
    /// that same-step touches of different chunks tie.
    fn touch_random(h: &mut HeatMap, rng: &mut simkit::DetRng, chunks: &[u32], touches: u32) {
        for i in 0..touches {
            let c = chunks[rng.below(chunks.len() as u64) as usize];
            h.touch(t(f64::from(i / 4) * 0.5), ChunkId(c), 1.0);
        }
    }

    #[test]
    fn ranking_matches_full_sort_oracle() {
        let mut rng = simkit::DetRng::new(15, "heat-oracle");
        let mut scratch = RankScratch::new();

        // Sparse, fleet-shaped: 64 warm chunks out of 16 384.
        let mut sparse = HeatMap::new(16_384, SimDuration::from_hours(2.0));
        let warm: Vec<u32> = (0..64).map(|_| rng.below(16_384) as u32).collect();
        touch_random(&mut sparse, &mut rng, &warm, 2_000);
        for probe in [250.0, 1_000.0, 7_200.0] {
            assert_matches_oracle(&sparse, t(probe), &mut scratch);
        }

        // Dense: most of a 2 048-chunk volume warm, with many ties.
        let mut dense = HeatMap::new(2_048, SimDuration::from_secs(300.0));
        let all: Vec<u32> = (0..2_048).collect();
        touch_random(&mut dense, &mut rng, &all, 20_000);
        for probe in [2_500.0, 2_600.0, 9_000.0] {
            assert_matches_oracle(&dense, t(probe), &mut scratch);
        }

        // Never touched: the identity, all rates zero.
        let cold = HeatMap::new(1_000, SimDuration::from_secs(60.0));
        assert_matches_oracle(&cold, t(0.0), &mut scratch);
        assert_matches_oracle(&cold, t(1e6), &mut scratch);

        // After a reset, and after touching again.
        dense.reset();
        assert_matches_oracle(&dense, t(2_500.0), &mut scratch);
        touch_random(&mut dense, &mut rng, &all[..100], 300);
        assert_matches_oracle(&dense, t(2_500.0), &mut scratch);
    }

    #[test]
    fn ranking_puts_underflowed_chunks_in_the_id_ordered_tail() {
        // τ = 1 s: mass touched at t = 0 decays to exactly 0.0 by t = 800 s
        // (e^-800 underflows), so those warm chunks rank with the
        // never-touched ones, by id.
        let mut h = HeatMap::new(64, SimDuration::from_secs(1.0));
        for c in (0..64).step_by(3) {
            h.touch(t(0.0), ChunkId(c), 5.0);
        }
        for c in (1..64).step_by(7) {
            h.touch(t(850.0), ChunkId(c), 1.0 + f64::from(c % 4));
        }
        assert_eq!(h.temperature(t(850.0), ChunkId(0)), 0.0);
        let mut scratch = RankScratch::new();
        for probe in [0.0, 10.0, 801.0, 850.0, 851.0, 2_000.0] {
            assert_matches_oracle(&h, t(probe), &mut scratch);
        }
    }

    #[test]
    #[should_panic(expected = "temperatures are not NaN")]
    fn ranking_rejects_nan_temperature() {
        let mut h = HeatMap::new(4, SimDuration::from_secs(10.0));
        h.touch(t(0.0), ChunkId(2), f64::NAN);
        let _ = h.ranking(t(1.0));
    }
}
