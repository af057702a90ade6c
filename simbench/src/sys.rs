//! What the benchmark reads about its own process and host: CPU time,
//! peak resident set, and the host block every result carries.

use std::path::Path;

/// Kernel clock ticks per second for `/proc/self/stat` times (`USER_HZ`,
/// 100 on every Linux ABI).
const CLK_TCK: f64 = 100.0;

/// User + system CPU seconds of the whole process so far, every thread
/// (exited ones included). Resolution is one clock tick, 10 ms; 0 where
/// `/proc` is unavailable.
pub fn cpu_s() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // The command name may hold spaces: fields resume after its ')'.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // utime and stime are fields 14 and 15 of the line, 12th and 13th
    // after the command name.
    let tick = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok());
    match (tick(11), tick(12)) {
        (Some(u), Some(s)) => (u + s) / CLK_TCK,
        _ => 0.0,
    }
}

/// CPU seconds of the calling thread so far, at nanosecond resolution
/// (`/proc/thread-self/schedstat`); 0 where unavailable.
pub fn thread_cpu_s() -> f64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |ns| ns / 1e9)
}

/// Peak resident set size of this process (`VmHWM`) in MiB; 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The host a result was measured on.
#[derive(Debug, Clone)]
pub struct Host {
    /// CPU model name from `/proc/cpuinfo`.
    pub cpu_model: String,
    /// Threads the process may run in parallel.
    pub nproc: usize,
    /// The compiler that built the benchmark.
    pub rustc: String,
    /// Commit of the working directory, when it is a git checkout.
    pub git_rev: String,
}

impl Host {
    /// Reads the host block; `root` is the repository checkout.
    pub fn detect(root: &Path) -> Host {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find_map(|l| l.strip_prefix("model name"))
                    .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        Host {
            cpu_model,
            nproc: parallel::available_parallelism(),
            rustc: env!("SIMBENCH_RUSTC").to_string(),
            git_rev: git_rev(root).unwrap_or_else(|| "unknown".to_string()),
        }
    }
}

/// The commit `root/.git/HEAD` names, read from the files directly so
/// nothing outside `root` is consulted.
fn git_rev(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return Some(rev.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|l| {
        let (rev, name) = l.split_once(' ')?;
        (name == reference).then(|| rev.to_string())
    })
}
