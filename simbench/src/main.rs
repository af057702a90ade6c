//! The benchmark's command line.
//!
//! ```text
//! simbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//! simbench --emit-fingerprints      # print expected/seed42.txt
//! simbench compare OLD NEW          # compare two saved results
//! ```
//!
//! A run prints its result (see `report`) and exits 0 once it has measured,
//! whatever the verdict; usage errors exit 2.

use simbench::measure::RECORDED_SEED;
use simbench::{measure, report, sys::Host, Workload};
use std::process::ExitCode;

const USAGE: &str = "usage: simbench --workload grid|fleet_256|storm_audit [--seed N] \
                     [--seconds S] [--trace 0|1]\n       simbench --emit-fingerprints\n       \
                     simbench compare OLD NEW";

fn usage() -> ExitCode {
    eprintln!("{USAGE}");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("compare") => return compare(&args[1..]),
        Some("--emit-fingerprints") if args.len() == 1 => {
            for w in Workload::ALL {
                for (label, fp) in measure(w, RECORDED_SEED, 0.0, false).fingerprints() {
                    println!("{} {label} {fp}", w.name());
                }
            }
            return ExitCode::SUCCESS;
        }
        _ => {}
    }

    let (mut workload, mut seed, mut seconds, mut traced) = (None, 42u64, 10.0f64, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return usage();
        };
        match flag.as_str() {
            "--workload" => workload = Workload::parse(value),
            "--seed" => match value.parse() {
                Ok(s) => seed = s,
                Err(_) => return usage(),
            },
            "--seconds" => match value.parse::<f64>() {
                Ok(s) if s >= 0.0 && s.is_finite() => seconds = s,
                _ => return usage(),
            },
            "--trace" => match value.as_str() {
                "0" => traced = false,
                "1" => traced = true,
                _ => return usage(),
            },
            _ => return usage(),
        }
    }
    let Some(workload) = workload else {
        return usage();
    };

    let root = std::env::current_dir().unwrap_or_default();
    let host = Host::detect(&root);
    let m = measure(workload, seed, seconds, traced);
    print!("{}", report::render(&m, &host));
    ExitCode::SUCCESS
}

fn compare(args: &[String]) -> ExitCode {
    let [old, new] = args else {
        return usage();
    };
    let read = |p: &String| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
    match read(old).and_then(|a| read(new).and_then(|b| report::compare(&a, &b))) {
        Ok(table) => {
            print!("{table}");
            ExitCode::SUCCESS
        }
        Err(why) => {
            eprintln!("{why}");
            ExitCode::from(1)
        }
    }
}
