//! Host facts recorded beside every result, so a host change cannot pass
//! for a code change, and the process's resident-set readings.

use std::path::Path;

/// `(key, value)` pairs describing the machine and the filesystem holding
/// `dir`.
pub fn facts(dir: &Path) -> Vec<(&'static str, String)> {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let l3 = read_trim("/sys/devices/system/cpu/cpu0/cache/index3/size");
    let kernel = read_trim("/proc/sys/kernel/osrelease");
    vec![
        ("nproc", nproc.to_string()),
        ("l3", l3.unwrap_or_else(|| "unknown".into())),
        ("kernel", kernel.unwrap_or_else(|| "unknown".into())),
        ("fs", filesystem_of(dir)),
    ]
}

fn read_trim(path: &str) -> Option<String> {
    std::fs::read_to_string(path).ok().map(|s| s.trim().to_string())
}

/// The filesystem type of the mount holding `path` (longest mount-point
/// prefix in `/proc/self/mounts`).
fn filesystem_of(path: &Path) -> String {
    let Ok(abs) = std::fs::canonicalize(path) else { return "unknown".into() };
    let Some(mounts) = read_trim("/proc/self/mounts") else { return "unknown".into() };
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_dev, mnt, fs) = (f.next()?, f.next()?, f.next()?);
            abs.starts_with(mnt).then(|| (mnt.len(), fs.to_string()))
        })
        .max_by_key(|&(len, _)| len)
        .map_or_else(|| "unknown".into(), |(_, fs)| fs)
}

/// Bytes as MiB; 0 where `/proc/self/status` could not be read.
fn mib(bytes: Option<u64>) -> f64 {
    bytes.unwrap_or(0) as f64 / (1u64 << 20) as f64
}

/// Resident set size now (`VmRSS`), MiB.
pub fn rss_mb() -> f64 {
    mib(wf_bench::current_rss_bytes())
}

/// Peak resident set size so far (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    mib(wf_bench::peak_rss_bytes())
}
