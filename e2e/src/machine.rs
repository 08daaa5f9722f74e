//! What ran the benchmark, and how much memory it used.

use std::process::Command;

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8(out.stdout).ok()?;
    let line = text.lines().next()?.trim();
    (!line.is_empty()).then(|| line.to_string())
}

fn cpu_model() -> Option<String> {
    let info = std::fs::read_to_string("/proc/cpuinfo").ok()?;
    info.lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split(':').nth(1))
        .map(|m| m.trim().to_string())
}

/// One line that every report carries.
pub fn fingerprint(seed: u64, scale: &str) -> String {
    let unknown = || "unknown".to_string();
    format!(
        "machine: nproc={} cpu=\"{}\" rustc=\"{}\" git={} seed={} scale={}",
        crate::load::nproc(),
        cpu_model().unwrap_or_else(unknown),
        command_line("rustc", &["--version"]).unwrap_or_else(unknown),
        command_line("git", &["rev-parse", "--short", "HEAD"]).unwrap_or_else(unknown),
        seed,
        scale,
    )
}

/// Reset the resident-set high-water mark, so that the next
/// [`peak_rss_mb`] covers only what follows. `false` where the kernel
/// refuses; the mark then covers the whole process.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// `VmHWM` of this process in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
