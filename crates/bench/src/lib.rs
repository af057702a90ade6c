//! Minimal benchmarking harness with a Criterion-compatible surface.
//!
//! The workspace builds in environments with no access to crates.io, so the
//! benches in `benches/` run on this self-contained shim instead of the
//! `criterion` crate. It reproduces the small slice of Criterion's API the
//! benches use — [`Criterion::bench_function`], [`Bencher::iter`], and the `criterion_group!`/`criterion_main!` macros —
//! and reports mean wall-clock time per iteration on stdout. It aims for
//! useful relative numbers, not Criterion's statistical rigour.

use std::time::Instant;

/// Number of timed iterations per benchmark (after one warm-up).
const DEFAULT_SAMPLES: usize = 10;

/// Top-level benchmark driver, mirroring `criterion::Criterion`.
pub struct Criterion {
    /// Timed iterations per benchmark. Under `cargo test` (cargo passes
    /// `--test` to harness-less bench binaries) every benchmark runs
    /// exactly once as a smoke test.
    samples: usize,
}

impl Default for Criterion {
    fn default() -> Self {
        Self::new()
    }
}

impl Criterion {
    /// A driver with the default sample count; honours `--test` smoke mode.
    pub fn new() -> Self {
        let test_mode = std::env::args().any(|a| a == "--test");
        Criterion {
            samples: if test_mode { 1 } else { DEFAULT_SAMPLES },
        }
    }

    /// Runs one named benchmark.
    pub fn bench_function<F>(&mut self, name: &str, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        run_one(name, self.samples, &mut f);
        self
    }
}

/// Passed to each benchmark closure; call [`Bencher::iter`] with the body.
pub struct Bencher {
    samples: usize,
    /// Mean seconds per iteration, filled in by [`Bencher::iter`].
    mean_s: f64,
}

impl Bencher {
    /// Times `f`: one warm-up call, then `samples` timed calls.
    pub fn iter<R, F: FnMut() -> R>(&mut self, mut f: F) {
        std::hint::black_box(f());
        let start = Instant::now();
        for _ in 0..self.samples {
            std::hint::black_box(f());
        }
        self.mean_s = start.elapsed().as_secs_f64() / self.samples as f64;
    }
}

fn run_one<F: FnMut(&mut Bencher)>(name: &str, samples: usize, f: &mut F) {
    let mut b = Bencher {
        samples,
        mean_s: 0.0,
    };
    f(&mut b);
    println!("{name:<44} {}", format_duration(b.mean_s));
}

fn format_duration(s: f64) -> String {
    if s >= 1.0 {
        format!("{s:>10.3} s /iter")
    } else if s >= 1e-3 {
        format!("{:>10.3} ms/iter", s * 1e3)
    } else if s >= 1e-6 {
        format!("{:>10.3} µs/iter", s * 1e6)
    } else {
        format!("{:>10.1} ns/iter", s * 1e9)
    }
}

/// Declares a function running a list of benchmarks, like Criterion's macro.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($bench:path),+ $(,)?) => {
        fn $name(c: &mut $crate::Criterion) {
            $( $bench(c); )+
        }
    };
}

/// Declares `main` for a bench binary, like Criterion's macro.
#[macro_export]
macro_rules! criterion_main {
    ($group:ident) => {
        fn main() {
            let mut c = $crate::Criterion::new();
            $group(&mut c);
        }
    };
}
