//! The benchmark measures the program users run, not a look-alike: its
//! runs, rebuilt from the library API, must reproduce the CSVs `repro`
//! writes for the same experiments, byte for byte.
//!
//! Each test builds and runs `repro` from this repository with cargo, so
//! run them with `cargo test --release` from this directory.

use simbench::scenario::{Load, Policy, GOAL_FACTOR};
use simbench::{fleet, grid, storm};
use simkit::{LatencyHistogram, TimeSeries};
use std::path::{Path, PathBuf};
use std::process::Command;

const SEED: u64 = 42;

/// Runs `repro` with `args` into a fresh output directory and returns it.
fn repro(name: &str, args: &[&str]) -> PathBuf {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives inside the repository");
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&out);
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    let status = Command::new(cargo)
        .args([
            "run",
            "--release",
            "--quiet",
            "-p",
            "repro",
            "--manifest-path",
        ])
        .arg(root.join("Cargo.toml"))
        .arg("--target-dir")
        .arg(root.join("target"))
        .args(["--", "--seed", &SEED.to_string(), "--out"])
        .arg(&out)
        .args(args)
        .stdout(std::process::Stdio::null())
        .status()
        .expect("cargo runs");
    assert!(status.success(), "repro {args:?} failed: {status}");
    out
}

fn csv_rows(path: &Path) -> Vec<String> {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{path:?}: {e}"));
    text.lines().skip(1).map(str::to_string).collect()
}

#[test]
fn grid_matches_repro_t3() {
    let out = repro("t3", &["--quick", "--jobs", "1", "t3"]);
    let setup = grid::Setup::new(SEED);
    let run = |p, load, goal| grid::run(&setup, SEED, p, load, goal, None).0;
    let base = [Load::Oltp, Load::Cello].map(|l| run(Policy::Base, l, f64::MAX));
    let goals = [0, 1].map(|i| base[i].response.mean() * GOAL_FACTOR);
    let rows: Vec<String> = Policy::GRID
        .into_iter()
        .map(|p| {
            let managed = (p != Policy::Base)
                .then(|| [run(p, Load::Oltp, goals[0]), run(p, Load::Cello, goals[1])]);
            let [o, c] = managed
                .as_ref()
                .map_or([&base[0], &base[1]], |[o, c]| [o, c]);
            format!(
                "{},{:.0},{:.1},{:.0},{:.1}",
                p.label(),
                o.energy_kj(),
                o.savings_vs(&base[0]) * 100.0,
                c.energy_kj(),
                c.savings_vs(&base[1]) * 100.0
            )
        })
        .collect();
    assert_eq!(rows, csv_rows(&out.join("t3_energy.csv")));
}

/// `repro`'s goal-violation share: post-warm-up series buckets whose mean
/// response exceeds the goal.
fn violation_fraction(series: &TimeSeries, goal_s: f64, warmup_s: f64) -> f64 {
    let half_width = series.bucket_width().as_secs() / 2.0;
    let (mut kept, mut over) = (0u64, 0u64);
    for (mid, mean) in series.mean_points() {
        if mid - half_width < warmup_s {
            continue;
        }
        kept += 1;
        if mean > goal_s {
            over += 1;
        }
    }
    if kept == 0 {
        0.0
    } else {
        over as f64 / kept as f64
    }
}

#[test]
fn storm_matches_repro_faults() {
    let out = repro("faults", &["--quick", "faults"]);
    let setup = storm::Setup::new(SEED);
    let base = storm::run(&setup, SEED, Policy::Base, f64::MAX, true, None).0;
    let goal = base.response.mean() * GOAL_FACTOR;
    let hib = storm::run(&setup, SEED, Policy::Hibernator, goal, true, None).0;
    let row = |p: Policy, r: &array::RunReport| {
        let f = &r.faults;
        format!(
            "{},{:.0},{:.2},{:.1},{},{},{},{},{}",
            p.label(),
            r.energy.total_joules() / 1e3,
            r.response.mean() * 1e3,
            violation_fraction(&r.response_series, goal, 600.0) * 100.0,
            r.transitions,
            f.lost_requests,
            f.degraded_redirects,
            f.rebuild_chunks,
            f.rebuild_completed_s
                .map_or_else(|| "-".to_string(), |t| format!("{t:.0}")),
        )
    };
    let expected = csv_rows(&out.join("faults_storm.csv"));
    let pick = |label: &str| {
        expected
            .iter()
            .find(|r| r.starts_with(&format!("{label},")))
            .cloned()
            .unwrap_or_else(|| panic!("no {label} row in faults_storm.csv"))
    };
    assert_eq!(row(Policy::Base, &base), pick("Base"));
    assert_eq!(row(Policy::Hibernator, &hib), pick("Hibernator"));
}

#[test]
fn fleet_matches_repro_fleet() {
    let arrays = fleet::ARRAYS.to_string();
    let tenants = fleet::TENANTS.to_string();
    let out = repro(
        "fleet",
        &[
            "fleet",
            "--quick",
            "--arrays",
            &arrays,
            "--tenants",
            &tenants,
        ],
    );
    let setup = fleet::Setup::new(SEED);
    let pool = parallel::Pool::new(fleet::workers());
    let report = fleet::run(&setup, &pool, None);
    let spec = fleet::spec(&setup);
    let nominal_w = fleet::nominal_w(&spec.config);
    let mut all = LatencyHistogram::new_latency();
    for h in &report.tenant_latency {
        all.merge(h);
    }
    let q = |p: f64| {
        all.quantile(p)
            .map_or(String::new(), |v| format!("{:.3}", v * 1e3))
    };
    let row = format!(
        "{},{},{:.1},{nominal_w:.1},{:.1},{},{:.1},{},{},{},{},{},{},{},{}",
        fleet::ARRAYS,
        fleet::TENANTS,
        nominal_w * fleet::BUDGET_FRAC,
        report.fleet_energy_j,
        report.budget_j.map_or(String::new(), |b| format!("{b:.1}")),
        report.cap_violation_s,
        report.completed,
        report.incomplete,
        report.total_requests,
        report.routed_requests,
        report.tenant_moves,
        q(0.50),
        q(0.95),
        q(0.99),
    );
    assert_eq!(vec![row], csv_rows(&out.join("fleet_summary.csv")));
}
