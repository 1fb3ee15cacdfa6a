//! Host measurements read from `/proc`: process CPU time and peak RSS.
//! Linux only; elsewhere they read as unavailable and the run fails
//! rather than report a made-up number.

/// Clock ticks per second in `/proc/<pid>/stat` (`USER_HZ`, fixed at
/// 100 by the Linux ABI regardless of the kernel's internal tick).
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds of this process so far, all threads
/// (exited ones included), at 10 ms resolution.
pub fn cpu_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the parenthesised command name, which may hold
    // spaces: state is field 3, utime 14 and stime 15.
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) as f64 / USER_HZ)
}

/// Peak resident set size (`VmHWM`) of this process, MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: u64 = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()?;
    Some(kb as f64 / 1024.0)
}

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_see_this_process() {
        assert!(cpu_seconds().expect("/proc/self/stat is readable") >= 0.0);
        assert!(peak_rss_mb().expect("/proc/self/status is readable") > 0.0);
        assert!(nproc() >= 1);
    }
}
