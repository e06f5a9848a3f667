//! The host record stamped beside every number, and the process's peak
//! resident set.

use emx_obs::Json;
use std::fs;

/// Worker count of every parallel arm: the cores the host has, capped
/// at 4 so that numbers from bigger hosts stay comparable.
pub fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(4))
}

fn first_line_value(path: &str, key: &str) -> Option<String> {
    let text = fs::read_to_string(path).ok()?;
    text.lines()
        .find(|l| l.starts_with(key))
        .and_then(|l| l.split_once(':'))
        .map(|(_, v)| v.trim().to_string())
}

pub fn record() -> Json {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu = first_line_value("/proc/cpuinfo", "model name").unwrap_or_else(|| "unknown".into());
    // cgroup v2 quota ("max 100000" = unlimited); absent outside a
    // cgroup-v2 container, which is itself worth recording.
    let cpu_max = fs::read_to_string("/sys/fs/cgroup/cpu.max")
        .map_or_else(|_| "absent".into(), |s| s.trim().to_string());
    Json::obj(vec![
        ("nproc", Json::Num(nproc as f64)),
        ("workers", Json::Num(workers() as f64)),
        ("cpu_model", Json::Str(cpu)),
        ("cgroup_cpu_max", Json::Str(cpu_max)),
    ])
}

/// Peak resident set of this process so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> Option<f64> {
    let v = first_line_value("/proc/self/status", "VmHWM")?;
    let kb: f64 = v.split_whitespace().next()?.parse().ok()?;
    Some(kb / 1024.0)
}
