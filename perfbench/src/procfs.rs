//! Process counters from `/proc` and the host's transparent-huge-page
//! mode. Off Linux every reader returns `None`, and the metrics built
//! from them are left out of the result instead of reading 0.

/// Clock ticks per second of `/proc` CPU times. Linux fixes `USER_HZ`
/// at 100 in its user ABI, whatever the kernel's internal tick rate.
const USER_HZ: f64 = 100.0;

/// The `/proc/self/stat` fields the benchmark uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stat {
    /// Minor page faults of the whole process so far.
    pub minflt: u64,
    /// User plus system CPU time of all threads, in clock ticks.
    pub cpu_ticks: u64,
}

impl Stat {
    /// CPU seconds between `earlier` and `self`.
    pub fn cpu_s_since(&self, earlier: &Stat) -> f64 {
        self.cpu_ticks.saturating_sub(earlier.cpu_ticks) as f64 / USER_HZ
    }
}

/// Parse the text of `/proc/<pid>/stat`. The command name (field 2)
/// may hold spaces and parentheses, so fields are counted from the last
/// `)`: `minflt` is field 10, `utime` 14 and `stime` 15.
pub fn parse_stat(text: &str) -> Option<Stat> {
    let rest = &text[text.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let field = |n: usize| fields.get(n - 3)?.parse::<u64>().ok();
    Some(Stat {
        minflt: field(10)?,
        cpu_ticks: field(14)? + field(15)?,
    })
}

/// Peak resident set size in KiB, from the `VmHWM:` line of the text of
/// `/proc/<pid>/status`.
pub fn parse_vmhwm_kib(text: &str) -> Option<u64> {
    let line = text.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut parts = line["VmHWM:".len()..].split_whitespace();
    let kib = parts.next()?.parse().ok()?;
    (parts.next() == Some("kB")).then_some(kib)
}

/// Host-wide CPU ticks from the first line of the text of `/proc/stat`:
/// `(steal, total)`. Steal is time the hypervisor ran something else
/// while a vCPU had work; a busy host shows as steal.
pub fn parse_steal(text: &str) -> Option<(u64, u64)> {
    let line = text.lines().next()?.strip_prefix("cpu ")?;
    let ticks: Vec<u64> = line
        .split_whitespace()
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    // user nice system idle iowait irq softirq steal [guest guest_nice],
    // where guest time is already counted in user and nice.
    let steal = *ticks.get(7)?;
    Some((steal, ticks.iter().take(8).sum()))
}

/// The selected mode in the text of
/// `/sys/kernel/mm/transparent_hugepage/enabled`, e.g. `madvise` from
/// `always [madvise] never`.
pub fn parse_thp(text: &str) -> Option<String> {
    let open = text.find('[')?;
    let close = open + text[open..].find(']')?;
    Some(text[open + 1..close].to_string())
}

#[cfg(target_os = "linux")]
fn read(path: &str) -> Option<String> {
    std::fs::read_to_string(path).ok()
}

#[cfg(not(target_os = "linux"))]
fn read(_path: &str) -> Option<String> {
    None
}

/// This process's page-fault and CPU counters.
pub fn stat() -> Option<Stat> {
    parse_stat(&read("/proc/self/stat")?)
}

/// This process's peak resident set size in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    Some(parse_vmhwm_kib(&read("/proc/self/status")?)? as f64 / 1024.0)
}

/// Host-wide `(steal, total)` CPU ticks so far.
pub fn steal() -> Option<(u64, u64)> {
    parse_steal(&read("/proc/stat")?)
}

/// The host's transparent-huge-page mode; first touch of fresh memory
/// costs differ by mode.
pub fn thp_mode() -> String {
    read("/sys/kernel/mm/transparent_hugepage/enabled")
        .and_then(|t| parse_thp(&t))
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_count_from_the_last_paren() {
        let line = "4242 (perf (bench) x) R 1 4242 4242 0 -1 4194560 \
                    1234 0 7 0 250 31 0 0 20 0 3 0 99 123456 789 \n";
        assert_eq!(
            parse_stat(line),
            Some(Stat {
                minflt: 1234,
                cpu_ticks: 281
            })
        );
        assert_eq!(parse_stat("garbage"), None);
        assert_eq!(parse_stat("1 (x) R 1 2"), None);
        let a = Stat {
            minflt: 0,
            cpu_ticks: 100,
        };
        let b = Stat {
            minflt: 0,
            cpu_ticks: 350,
        };
        assert_eq!(b.cpu_s_since(&a), 2.5);
    }

    #[test]
    fn vmhwm_and_thp() {
        let status = "Name:\tperfbench\nVmPeak:\t  900 kB\nVmHWM:\t  345600 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_vmhwm_kib(status), Some(345_600));
        assert_eq!(parse_vmhwm_kib("Name:\tx\nVmRSS:\t1 kB\n"), None);
        assert_eq!(parse_vmhwm_kib("VmHWM:\t12 MB\n"), None);
        assert_eq!(
            parse_thp("always [madvise] never\n").as_deref(),
            Some("madvise")
        );
        assert_eq!(parse_thp("always madvise never"), None);
    }

    #[test]
    fn steal_is_the_eighth_cpu_field() {
        let stat = "cpu  100 0 50 800 5 0 1 44 7 0\ncpu0 50 0 25 400 2 0 1 22 0 0\n";
        assert_eq!(parse_steal(stat), Some((44, 1000)));
        assert_eq!(parse_steal("cpu  1 2 3\n"), None);
        assert_eq!(parse_steal("intr 5\n"), None);
    }

    #[test]
    fn readers_are_present_on_linux_and_missing_elsewhere() {
        // Off Linux the readers report nothing, so the metrics built on
        // them are omitted rather than reported as 0.
        let on_linux = cfg!(target_os = "linux");
        assert_eq!(stat().is_some(), on_linux);
        assert_eq!(peak_rss_mib().is_some(), on_linux);
        if let Some(mib) = peak_rss_mib() {
            assert!(mib > 0.0);
        }
    }
}
