//! What the host says about a repetition: scheduler accounting, peak
//! memory, and the filesystem under the journal.

/// `(on_cpu_s, run_delay_s)` of the calling thread from
/// `/proc/self/schedstat`: time spent running, and time spent runnable
/// but waiting for a CPU. A repetition is single-threaded, so this is
/// the whole process.
pub fn schedstat() -> Option<(f64, f64)> {
    let text = std::fs::read_to_string("/proc/self/schedstat").ok()?;
    let mut fields = text.split_whitespace().map(|f| f.parse::<u64>().ok());
    let on_cpu = fields.next()??;
    let delay = fields.next()??;
    Some((on_cpu as f64 / 1e9, delay as f64 / 1e9))
}

/// Peak resident set (`VmHWM`) of this process in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let text = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = text.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Filesystem type of the mount holding `path` (longest mount-point
/// prefix in `/proc/mounts`), e.g. `ext4` or `tmpfs` — fsync cost, and
/// with it every journaled publish, depends on it.
pub fn filesystem_of(path: &std::path::Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_dev, at, fs) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(at).then(|| (at.len(), fs.to_owned()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".to_owned(), |(_, fs)| fs)
}
