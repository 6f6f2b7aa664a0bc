//! Process accounting without extra crates: `getrusage(2)` through a
//! std-only `extern "C"` declaration (libc is linked by std anyway) and
//! plain-text parsers for `/proc/<pid>/{stat,status}` and `/proc/net/dev`.

/// `struct timeval` on 64-bit Linux.
#[repr(C)]
#[derive(Default, Clone, Copy)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals then fourteen longs.
#[repr(C)]
#[derive(Default, Clone, Copy)]
struct RawRusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    ru_maxrss: i64,
    ru_ixrss: i64,
    ru_idrss: i64,
    ru_isrss: i64,
    ru_minflt: i64,
    ru_majflt: i64,
    ru_nswap: i64,
    ru_inblock: i64,
    ru_oublock: i64,
    ru_msgsnd: i64,
    ru_msgrcv: i64,
    ru_nsignals: i64,
    ru_nvcsw: i64,
    ru_nivcsw: i64,
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RawRusage) -> i32;
    fn sysconf(name: i32) -> i64;
}

const RUSAGE_SELF: i32 = 0;
const RUSAGE_CHILDREN: i32 = -1;
const SC_CLK_TCK: i32 = 2;

/// CPU, context switches and peak RSS of a process (or of its reaped
/// children), as `getrusage` reports them.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Usage {
    pub user_s: f64,
    pub sys_s: f64,
    pub ctx_switches: u64,
    /// Peak resident set, KiB.
    pub max_rss_kb: u64,
}

impl Usage {
    /// User plus system CPU seconds.
    pub fn cpu_s(&self) -> f64 {
        self.user_s + self.sys_s
    }

    /// Counter-wise difference `self - earlier` (peak RSS is kept).
    pub fn since(&self, earlier: &Usage) -> Usage {
        Usage {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
            ctx_switches: self.ctx_switches.saturating_sub(earlier.ctx_switches),
            max_rss_kb: self.max_rss_kb,
        }
    }
}

fn rusage(who: i32) -> Usage {
    let mut raw = RawRusage::default();
    // SAFETY: `raw` is a properly sized and aligned `struct rusage`.
    let rc = unsafe { getrusage(who, &mut raw) };
    if rc != 0 {
        return Usage::default();
    }
    let secs = |t: Timeval| t.tv_sec as f64 + t.tv_usec as f64 * 1e-6;
    Usage {
        user_s: secs(raw.ru_utime),
        sys_s: secs(raw.ru_stime),
        ctx_switches: (raw.ru_nvcsw + raw.ru_nivcsw).max(0) as u64,
        max_rss_kb: raw.ru_maxrss.max(0) as u64,
    }
}

/// This process, all threads included.
pub fn self_usage() -> Usage {
    rusage(RUSAGE_SELF)
}

/// Every child this process has waited for (killed children included).
pub fn children_usage() -> Usage {
    rusage(RUSAGE_CHILDREN)
}

fn clock_ticks_per_s() -> f64 {
    // SAFETY: sysconf has no preconditions.
    let t = unsafe { sysconf(SC_CLK_TCK) };
    if t > 0 {
        t as f64
    } else {
        100.0
    }
}

/// One `/proc/<pid>` reading.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ProcSample {
    pub user_s: f64,
    pub sys_s: f64,
    pub threads: u64,
    pub vm_hwm_kb: u64,
}

impl ProcSample {
    pub fn cpu_s(&self) -> f64 {
        self.user_s + self.sys_s
    }
}

/// `(utime, stime)` in clock ticks from a `/proc/<pid>/stat` line. The
/// command name (field 2) may contain spaces and parentheses, so fields
/// are counted from the last `)`.
pub fn parse_stat_ticks(line: &str) -> Option<(u64, u64)> {
    let rest = &line[line.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // After the name: state is field 3, utime field 14, stime field 15.
    let utime = fields.get(11)?.parse().ok()?;
    let stime = fields.get(12)?.parse().ok()?;
    Some((utime, stime))
}

/// A `Key:   value [kB]` field of `/proc/<pid>/status`.
pub fn parse_status_field(text: &str, key: &str) -> Option<u64> {
    text.lines().find_map(|l| {
        let (k, v) = l.split_once(':')?;
        if k.trim() != key {
            return None;
        }
        v.split_whitespace().next()?.parse().ok()
    })
}

/// Reads `/proc/<pid>/{stat,status}`; `None` once the process is gone.
pub fn sample_pid(pid: u32) -> Option<ProcSample> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let (ut, st) = parse_stat_ticks(&stat)?;
    let hz = clock_ticks_per_s();
    Some(ProcSample {
        user_s: ut as f64 / hz,
        sys_s: st as f64 / hz,
        threads: parse_status_field(&status, "Threads").unwrap_or(0),
        vm_hwm_kb: parse_status_field(&status, "VmHWM").unwrap_or(0),
    })
}

/// Transmitted bytes of interface `iface` from `/proc/net/dev` text.
pub fn parse_net_dev_tx(text: &str, iface: &str) -> Option<u64> {
    text.lines().find_map(|l| {
        let (name, rest) = l.split_once(':')?;
        if name.trim() != iface {
            return None;
        }
        // Receive has 8 fields; transmit bytes is the 9th.
        rest.split_whitespace().nth(8)?.parse().ok()
    })
}

/// Bytes sent over loopback in this network namespace so far. The wire
/// protocol runs over loopback TCP, and std's sockets write with
/// `send(2)`, which `/proc/<pid>/io` `wchar` does not count.
pub fn loopback_tx_bytes() -> u64 {
    std::fs::read_to_string("/proc/net/dev")
        .ok()
        .and_then(|t| parse_net_dev_tx(&t, "lo"))
        .unwrap_or(0)
}

/// This process's `/proc` reading.
pub fn sample_self() -> ProcSample {
    sample_pid(std::process::id()).unwrap_or_default()
}

/// Sleeps until `deadline`, tolerating a deadline already past.
pub fn sleep_until(deadline: std::time::Instant) {
    let now = std::time::Instant::now();
    if deadline > now {
        std::thread::sleep(deadline - now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const STAT: &str = "4242 (fuxi (node) a) S 1 4242 4242 0 -1 4194560 2203 0 0 0 \
        357 41 0 0 20 0 17 0 123456 987654321 5120 18446744073709551615 1 1 0 0 0 0 0 \
        4096 0 0 0 0 17 1 0 0 0 0 0";

    const STATUS: &str = "Name:\tfuxibench\nUmask:\t0022\nState:\tS (sleeping)\n\
        VmPeak:\t  912344 kB\nVmHWM:\t   48212 kB\nVmRSS:\t   40100 kB\n\
        Threads:\t17\nvoluntary_ctxt_switches:\t1500\nnonvoluntary_ctxt_switches:\t25\n";

    #[test]
    fn stat_ticks_skip_a_name_with_spaces_and_parens() {
        assert_eq!(parse_stat_ticks(STAT), Some((357, 41)));
        assert_eq!(parse_stat_ticks("garbage"), None);
    }

    #[test]
    fn status_fields() {
        assert_eq!(parse_status_field(STATUS, "VmHWM"), Some(48212));
        assert_eq!(parse_status_field(STATUS, "Threads"), Some(17));
        assert_eq!(
            parse_status_field(STATUS, "voluntary_ctxt_switches"),
            Some(1500)
        );
        assert_eq!(
            parse_status_field(STATUS, "nonvoluntary_ctxt_switches"),
            Some(25)
        );
        assert_eq!(parse_status_field(STATUS, "VmSwap"), None);
    }

    #[test]
    fn net_dev_transmit_bytes() {
        let dev = "Inter-|   Receive                                                |  Transmit\n \
            face |bytes    packets errs drop fifo frame compressed multicast|bytes    packets errs drop fifo colls carrier compressed\n    \
            lo: 1571563499  107738    0    0    0     0          0         0 1571563400  107737    0    0    0     0       0          0\n  \
            eth0:    8068     110    0    0    0     0          0         0     7009     120    0    0    0     0       0          0\n";
        assert_eq!(parse_net_dev_tx(dev, "lo"), Some(1571563400));
        assert_eq!(parse_net_dev_tx(dev, "eth0"), Some(7009));
        assert_eq!(parse_net_dev_tx(dev, "wlan0"), None);
    }

    #[test]
    fn live_readings_are_plausible() {
        let u = self_usage();
        assert!(u.max_rss_kb > 0);
        let s = sample_self();
        assert!(s.threads >= 1 && s.vm_hwm_kb > 0);
    }
}
