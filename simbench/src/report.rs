//! The result a run prints, and the comparison of two saved results.
//!
//! A result is plain text: `key=value` lines for the host block
//! (`host.*`), the workload fingerprint (`workload.*`) and every metric
//! (`metric.*`), then one JSON line with the verdict and the metrics the
//! run was asked for. Save a run's standard output to keep its result;
//! `simbench compare OLD NEW` refuses two results whose workload
//! fingerprints differ.

use crate::measure::{median, Measurement};
use crate::sys::Host;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The full result text of a measurement, ending with the JSON line.
pub fn render(m: &Measurement, host: &Host) -> String {
    let mut out = String::new();
    let mut line = |s: String| {
        out.push_str(&s);
        out.push('\n');
    };
    line(format!(
        "# simbench {} seed {} ({})",
        m.workload.name(),
        m.seed,
        if m.traced { "traced" } else { "untraced" }
    ));
    line(format!("host.cpu_model={}", host.cpu_model));
    line(format!("host.nproc={}", host.nproc));
    line(format!("host.rustc={}", host.rustc));
    line(format!("host.git_rev={}", host.git_rev));
    line(format!("workload.name={}", m.workload.name()));
    line(format!("workload.seed={}", m.seed));
    line(format!("workload.traced={}", u8::from(m.traced)));
    line(format!("workload.requests={}", m.requests()));
    line(format!("workload.events={}", m.events()));
    line(format!("workload.runs={}", m.fingerprints().len()));
    line(format!(
        "# {} set-up(s), {} pass(es), {} unit(s) attempted, {} failed",
        m.setup_s.len(),
        m.passes.len(),
        m.attempted,
        m.failed
    ));
    line(format!(
        "# {} gauge reading(s), median {:.4} ms; host speed {:.4} of the reference",
        m.gauge_s.len(),
        median(&m.gauge_s) * 1e3,
        m.host_speed()
    ));
    let mut walls: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for u in m.passes.iter().flat_map(|(_, units)| units) {
        walls.entry(u.label.as_str()).or_default().push(u.wall_s());
    }
    for (label, w) in &walls {
        let samples: Vec<String> = w.iter().map(|s| format!("{s:.4}")).collect();
        line(format!(
            "# {label}: median {:.4} s of {}",
            median(w),
            samples.join(" ")
        ));
    }
    for (name, value, unit) in m.end_to_end.iter().chain(&m.per_layer) {
        line(format!("metric.{name}={value} {unit}"));
    }
    let share = if m.attempted == 0 {
        1.0
    } else {
        m.failed as f64 / m.attempted as f64
    };
    line(format!("failed_run_share={share}"));
    for f in &m.failures {
        line(format!("FAILED: {f}"));
    }
    line(json_line(m));
    out
}

/// The verdict line: end-to-end metrics for an untraced run, per-layer
/// metrics for a traced one.
pub fn json_line(m: &Measurement) -> String {
    let metrics = if m.traced {
        &m.per_layer
    } else {
        &m.end_to_end
    };
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        m.correct(),
        m.attempted.max(1),
        m.failed
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let value = if value.is_finite() { *value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    s.push_str("}}");
    s
}

/// The `key=value` lines of a saved result whose key starts with `prefix`.
fn fields<'a>(text: &'a str, prefix: &str) -> BTreeMap<&'a str, &'a str> {
    text.lines()
        .filter(|l| l.starts_with(prefix))
        .filter_map(|l| l.split_once('='))
        .collect()
}

/// Compares two saved results metric by metric, or refuses when their
/// workload fingerprints (workload, seed, tracing, requests, events,
/// runs) differ: their numbers measure different work.
pub fn compare(old: &str, new: &str) -> Result<String, String> {
    let (wa, wb) = (fields(old, "workload."), fields(new, "workload."));
    if wa.is_empty() || wb.is_empty() {
        return Err("refused: a result has no workload fingerprint".to_string());
    }
    if wa != wb {
        let mut why = String::from("refused: workload fingerprints differ");
        for key in wa.keys().chain(wb.keys()) {
            let (a, b) = (wa.get(key), wb.get(key));
            if a != b {
                let _ = write!(
                    why,
                    "\n  {key}: {} vs {}",
                    a.unwrap_or(&"-"),
                    b.unwrap_or(&"-")
                );
            }
        }
        return Err(why);
    }
    let (ma, mb) = (fields(old, "metric."), fields(new, "metric."));
    let mut out = String::new();
    for key in ["host.cpu_model", "host.nproc", "host.rustc", "host.git_rev"] {
        let (a, b) = (fields(old, key), fields(new, key));
        let show = |m: &BTreeMap<&str, &str>| m.get(key).copied().unwrap_or("-").to_string();
        let _ = writeln!(out, "{key}: {} -> {}", show(&a), show(&b));
    }
    let _ = writeln!(
        out,
        "{:<34} {:>16} {:>16} {:>9}",
        "metric", "old", "new", "new/old"
    );
    for (key, a) in &ma {
        let Some(b) = mb.get(key) else { continue };
        let num = |s: &str| {
            s.split_whitespace()
                .next()
                .and_then(|v| v.parse::<f64>().ok())
        };
        let ratio = match (num(a), num(b)) {
            (Some(x), Some(y)) if x != 0.0 => format!("{:.4}", y / x),
            _ => "-".to_string(),
        };
        let name = key.trim_start_matches("metric.");
        let _ = writeln!(out, "{name:<34} {a:>16} {b:>16} {ratio:>9}");
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: &str = "host.nproc=2\nworkload.name=grid\nworkload.events=10\nmetric.wall_s=2 s\n";

    #[test]
    fn compare_prints_ratios_for_matching_workloads() {
        let b = A.replace("wall_s=2", "wall_s=1");
        let out = compare(A, &b).expect("same workload");
        assert!(out.contains("wall_s"), "{out}");
        assert!(out.contains("0.5000"), "{out}");
    }

    #[test]
    fn compare_refuses_different_workloads() {
        let b = A.replace("events=10", "events=11");
        let err = compare(A, &b).expect_err("fingerprints differ");
        assert!(err.contains("workload.events: 10 vs 11"), "{err}");
    }
}
