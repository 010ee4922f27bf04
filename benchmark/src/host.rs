//! What the benchmark records about the machine and its own process.

use crate::json::Json;

fn proc_field(file: &str, key: &str) -> Option<String> {
    let text = std::fs::read_to_string(file).ok()?;
    text.lines()
        .find_map(|line| line.strip_prefix(key)?.trim_start().strip_prefix(':'))
        .map(|v| v.trim().to_string())
}

/// `VmHWM` of this process in MB: the most resident memory it ever held.
/// `None` where `/proc` is not available.
#[must_use]
pub fn peak_rss_mb() -> Option<f64> {
    let kb: f64 = proc_field("/proc/self/status", "VmHWM")?
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// Cores the process may use.
#[must_use]
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Host shape for `results.json`. `run.sh` hands the git revision and the
/// compiler version down through the environment (the driver's checkout
/// is not a git repository, so both may be `unknown`).
#[must_use]
pub fn shape(threads: usize) -> Json {
    let env = |key: &str| std::env::var(key).unwrap_or_else(|_| "unknown".to_string());
    Json::obj([
        ("nproc", Json::Num(nproc() as f64)),
        (
            "cpu_model",
            Json::Str(
                proc_field("/proc/cpuinfo", "model name").unwrap_or_else(|| "unknown".to_string()),
            ),
        ),
        ("threads_used", Json::Num(threads as f64)),
        ("git_rev", Json::Str(env("BENCH_GIT_REV"))),
        ("rustc", Json::Str(env("BENCH_RUSTC"))),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_this_process() {
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(peak_rss_mb().unwrap() > 0.5);
        }
        assert!(nproc() >= 1);
        let s = shape(2);
        assert_eq!(s.get("threads_used").unwrap().as_f64(), Some(2.0));
        assert!(s.get("cpu_model").unwrap().as_str().is_some());
    }
}
