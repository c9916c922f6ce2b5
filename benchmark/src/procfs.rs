//! `/proc` readers: process CPU time, peak RSS, threads and voluntary
//! context switches. The parsers take text so they can be tested on
//! captured fixtures.

use std::fs;

/// Kernel `USER_HZ`: the unit of `utime`/`stime` in `/proc/<pid>/stat`.
/// It is 100 on every Linux ABI; without libc there is no `sysconf`.
const CLK_TCK: f64 = 100.0;

/// User + system CPU seconds from the text of `/proc/<pid>/stat`,
/// including threads that have already exited. The command name may
/// contain spaces and parentheses, so fields are counted from the last
/// `)`.
pub fn parse_stat_cpu_s(stat: &str) -> Option<f64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace();
    // After the command: state is field 3, utime 14, stime 15.
    let utime: f64 = fields.nth(11)?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / CLK_TCK)
}

/// The numeric value of `key:` in the text of `/proc/<pid>/status`
/// (`VmHWM` in kB, `Threads`, `voluntary_ctxt_switches`).
pub fn parse_status_field(status: &str, key: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let value = line.strip_prefix(key)?.strip_prefix(':')?;
        value.split_ascii_whitespace().next()?.parse().ok()
    })
}

/// Process CPU seconds so far (0 where `/proc` is unreadable).
pub fn cpu_s() -> f64 {
    fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_stat_cpu_s(&s))
        .unwrap_or(0.0)
}

fn self_status(key: &str) -> u64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_status_field(&s, key))
        .unwrap_or(0)
}

/// Peak resident set size of this process, MiB.
pub fn peak_rss_mb() -> f64 {
    self_status("VmHWM") as f64 / 1024.0
}

/// Live threads of this process.
pub fn threads() -> u64 {
    self_status("Threads")
}

/// Voluntary context switches summed over the live threads.
pub fn voluntary_switches() -> u64 {
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .flatten()
        .filter_map(|t| fs::read_to_string(t.path().join("status")).ok())
        .filter_map(|s| parse_status_field(&s, "voluntary_ctxt_switches"))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    const STAT: &str = "8514 (remo bench) x) R 8508 8514 8508 0 -1 4194304 82 0 0 0 \
        1234 56 0 0 20 0 1 0 205388 2703360 305 18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0";

    const STATUS: &str = "Name:\tremo-benchmark\nVmPeak:\t  205388 kB\nVmHWM:\t    1436 kB\n\
        Threads:\t19\nvoluntary_ctxt_switches:\t4242\nnonvoluntary_ctxt_switches:\t7\n";

    #[test]
    fn stat_cpu_survives_a_hostile_command_name() {
        assert_eq!(parse_stat_cpu_s(STAT), Some(12.9));
        assert_eq!(parse_stat_cpu_s("1 (x) R 2 3"), None);
        assert_eq!(parse_stat_cpu_s(""), None);
    }

    #[test]
    fn status_fields_match_whole_keys_only() {
        assert_eq!(parse_status_field(STATUS, "VmHWM"), Some(1436));
        assert_eq!(parse_status_field(STATUS, "Threads"), Some(19));
        assert_eq!(
            parse_status_field(STATUS, "voluntary_ctxt_switches"),
            Some(4242)
        );
        assert_eq!(parse_status_field(STATUS, "VmRSS"), None);
        assert_eq!(parse_status_field(STATUS, "Vm"), None);
    }

    #[test]
    fn live_readers_return_something_on_linux() {
        assert!(peak_rss_mb() > 0.0);
        assert!(threads() >= 1);
    }
}
