//! A held-out seed: every workload, traced, on a seed no recorded output
//! or tuning used. Every metric must be emitted and every audit must pass;
//! the recorded-output gate applies to the recorded seed only, so here the
//! gate checks that every pass reproduces the first.
//!
//! Run with `cargo test --release` from this directory.

use simbench::measure::{expected, RECORDED_SEED};
use simbench::{measure, Workload};

/// The held-out seed.
const HELD_OUT_SEED: u64 = 20_051_023;

fn held_out(w: Workload) {
    assert_ne!(HELD_OUT_SEED, RECORDED_SEED);
    let m = measure(w, HELD_OUT_SEED, 0.0, true);
    assert!(m.correct(), "{}: {:#?}", w.name(), m.failures);
    assert_eq!(
        m.per_layer.len(),
        simbench::measure::per_layer_metrics().len()
    );
    assert!(m
        .end_to_end
        .iter()
        .all(|(_, v, _)| v.is_finite() && *v > 0.0));
    // The seed reaches the simulation: outputs differ from the record.
    let recorded = expected(w);
    for (label, fp) in m.fingerprints() {
        assert_ne!(recorded.get(label.as_str()), Some(&fp.as_str()), "{label}");
    }
}

#[test]
fn grid_on_held_out_seed() {
    held_out(Workload::Grid);
}

#[test]
fn fleet_on_held_out_seed() {
    held_out(Workload::Fleet256);
}

#[test]
fn storm_on_held_out_seed() {
    held_out(Workload::StormAudit);
}
