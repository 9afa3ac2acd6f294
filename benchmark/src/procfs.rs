//! CPU time and peak memory from `/proc/self`.

/// Kernel clock ticks per second (`USER_HZ`): 100 on every Linux ABI
/// this benchmark runs on; there is no libc binding here to ask.
const CLK_TCK: f64 = 100.0;

/// Process CPU time in clock ticks, from `/proc/<pid>/stat`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CpuTicks {
    /// User + system time of this process, all threads.
    pub own: u64,
    /// User + system time of waited-for children.
    pub children: u64,
}

/// Parses the `utime stime cutime cstime` fields of a `stat` line. The
/// command name (field 2) may contain spaces and parentheses, so fields
/// are counted from the *last* `)`.
pub fn parse_stat(stat: &str) -> Option<CpuTicks> {
    let after = &stat[stat.rfind(')')? + 1..];
    // `after` starts at field 3 (state); utime is field 14.
    let mut fields = after.split_ascii_whitespace().skip(11);
    let mut next = || fields.next()?.parse::<u64>().ok();
    let (utime, stime, cutime, cstime) = (next()?, next()?, next()?, next()?);
    Some(CpuTicks { own: utime + stime, children: cutime + cstime })
}

/// Parses `VmHWM` (peak resident set, kB) out of a `status` file.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_ascii_whitespace().nth(1)?.parse().ok()
}

/// This process's CPU ticks so far (zeros if `/proc` is unreadable).
pub fn cpu_ticks() -> CpuTicks {
    std::fs::read_to_string("/proc/self/stat").ok().and_then(|s| parse_stat(&s)).unwrap_or_default()
}

/// Milliseconds of CPU for a tick count.
pub fn ticks_to_ms(ticks: u64) -> f64 {
    ticks as f64 * 1000.0 / CLK_TCK
}

/// Peak resident set of this process, MB (0 if `/proc` is unreadable).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_vm_hwm_kb(&s))
        .map_or(0.0, |kb| kb as f64 / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_are_counted_after_the_last_paren() {
        // A hostile command name: spaces and a ')' inside.
        let line = "4242 (evil) name)) S 1 4242 4242 0 -1 4194304 100 200 0 0 \
                    31 7 11 5 20 0 3 0 12345 1000000 250 18446744073709551615";
        let t = parse_stat(line).expect("parses");
        assert_eq!(t, CpuTicks { own: 38, children: 16 });
        assert_eq!(ticks_to_ms(38), 380.0);
        assert!(parse_stat("no paren here").is_none());
        assert!(parse_stat("1 (x) S 1 2").is_none(), "truncated line");
    }

    #[test]
    fn vm_hwm_is_read_in_kb() {
        let status = "Name:\tbench\nVmPeak:\t  999 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(20480));
        assert_eq!(parse_vm_hwm_kb("Name:\tbench\n"), None);
    }

    #[test]
    fn live_proc_is_readable() {
        assert!(peak_rss_mb() > 0.0);
        let before = cpu_ticks();
        let after = cpu_ticks();
        assert!(after.own >= before.own);
    }
}
