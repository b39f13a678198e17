//! Process accounting and the host fingerprint, read from `/proc` and
//! `/sys` (Linux only; the workspace denies `unsafe`, so no `getrusage`).

use std::fs;

/// Kernel clock ticks per second of the `utime`/`stime` fields. Linux has
/// exported `USER_HZ = 100` to user space on every architecture for two
/// decades; `sysconf(_SC_CLK_TCK)` would need libc.
pub const CLOCK_TICKS_PER_SEC: f64 = 100.0;

/// `utime + stime` in ticks from one `/proc/<pid>/stat` line. The command
/// name (field 2) is parenthesised and may itself contain spaces and
/// parentheses, so fields are counted from the *last* `)`.
pub fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace();
    // `rest` starts at field 3 (state); utime and stime are fields 14, 15.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// CPU seconds (user + system, all threads, including those that have
/// already been joined) this process has consumed so far.
pub fn process_cpu_seconds() -> f64 {
    fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_stat_cpu_ticks(&s))
        .map_or(f64::NAN, |t| t as f64 / CLOCK_TICKS_PER_SEC)
}

/// The value in KiB of a `Key:   1234 kB` line of `/proc/<pid>/status`.
pub fn parse_status_kib(status: &str, key: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let rest = line.strip_prefix(key)?.strip_prefix(':')?;
        rest.split_whitespace().next()?.parse().ok()
    })
}

/// Peak resident set size (`VmHWM`) of this process, MiB.
pub fn peak_rss_mib() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_status_kib(&s, "VmHWM"))
        .map_or(f64::NAN, |kib| kib as f64 / 1024.0)
}

/// What must match before two result files may be compared.
#[derive(Clone, Debug, PartialEq)]
pub struct HostFingerprint {
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// `model name` of the first processor in `/proc/cpuinfo`.
    pub cpu_model: String,
    /// Cache sizes of cpu0, e.g. `L1d 48K, L1i 32K, L2 2048K, L3 55296K`.
    pub caches: String,
    /// `rustc --version` of the compiler that built the benchmark.
    pub rustc: String,
}

impl HostFingerprint {
    /// Read the fingerprint of this host.
    pub fn read() -> Self {
        let cpu_model = fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| parse_cpu_model(&s))
            .unwrap_or_else(|| "unknown".into());
        HostFingerprint {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model,
            caches: read_caches(),
            rustc: env!("CCA_BENCH_RUSTC").to_string(),
        }
    }

    /// Total bytes of the last-level cache, for sizing bandwidth arrays.
    pub fn last_level_cache_bytes(&self) -> u64 {
        parse_cache_list(&self.caches)
            .iter()
            .max_by_key(|(level, _)| *level)
            .map_or(32 << 20, |(_, bytes)| *bytes)
    }
}

/// First `model name` of a `/proc/cpuinfo` dump.
pub fn parse_cpu_model(cpuinfo: &str) -> Option<String> {
    cpuinfo.lines().find_map(|l| {
        let (key, value) = l.split_once(':')?;
        (key.trim() == "model name").then(|| value.trim().to_string())
    })
}

fn read_caches() -> String {
    let mut out = Vec::new();
    for index in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
        let read = |f: &str| {
            fs::read_to_string(format!("{dir}/{f}"))
                .ok()
                .map(|s| s.trim().to_string())
        };
        let (Some(level), Some(size)) = (read("level"), read("size")) else {
            continue;
        };
        let kind = match read("type").as_deref() {
            Some("Data") => "d",
            Some("Instruction") => "i",
            _ => "",
        };
        out.push(format!("L{level}{kind} {size}"));
    }
    if out.is_empty() {
        "unknown".into()
    } else {
        out.join(", ")
    }
}

/// `(level, bytes)` of every entry of a cache list as [`read_caches`]
/// formats it; entries it cannot read are skipped.
pub fn parse_cache_list(caches: &str) -> Vec<(u32, u64)> {
    caches
        .split(',')
        .filter_map(|entry| {
            let (name, size) = entry.trim().split_once(' ')?;
            let level: u32 = name
                .strip_prefix('L')?
                .trim_end_matches(['d', 'i'])
                .parse()
                .ok()?;
            let size = size.trim();
            let (digits, mult) = match size.chars().last()? {
                'K' => (&size[..size.len() - 1], 1u64 << 10),
                'M' => (&size[..size.len() - 1], 1u64 << 20),
                'G' => (&size[..size.len() - 1], 1u64 << 30),
                _ => (size, 1),
            };
            Some((level, digits.parse::<u64>().ok()? * mult))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_are_counted_from_the_last_paren() {
        // comm = "a b) (c": spaces and parentheses inside the name.
        let line = "1234 (a b) (c) S 1 1234 1234 0 -1 4194304 100 0 0 0 \
                    157 23 0 0 20 0 3 0 100 1000 200 18446744073709551615";
        assert_eq!(parse_stat_cpu_ticks(line), Some(180));
        assert_eq!(parse_stat_cpu_ticks("no paren"), None);
        assert_eq!(parse_stat_cpu_ticks("1 (x) S 1 2"), None);
    }

    #[test]
    fn own_cpu_time_is_readable_and_monotone() {
        let a = process_cpu_seconds();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(i);
        }
        std::hint::black_box(x);
        let b = process_cpu_seconds();
        assert!(a.is_finite() && b >= a, "{a} -> {b}");
    }

    #[test]
    fn status_lines_parse_in_kib() {
        let status = "Name:\tx\nVmPeak:\t  9000 kB\nVmHWM:\t    5120 kB\nVmRSS:\t 4096 kB\n";
        assert_eq!(parse_status_kib(status, "VmHWM"), Some(5120));
        assert_eq!(parse_status_kib(status, "VmRSS"), Some(4096));
        assert_eq!(parse_status_kib(status, "VmSwap"), None);
        // A key that is a prefix of another must not match it.
        assert_eq!(parse_status_kib(status, "Vm"), None);
        assert!(peak_rss_mib() > 0.0);
    }

    #[test]
    fn cpu_model_and_cache_list_parse() {
        let info = "processor\t: 0\nmodel name\t: Test CPU @ 2.60GHz\nmodel name\t: other\n";
        assert_eq!(parse_cpu_model(info).as_deref(), Some("Test CPU @ 2.60GHz"));
        let caches = "L1d 48K, L1i 32K, L2 2M, L3 55296K";
        assert_eq!(
            parse_cache_list(caches),
            vec![(1, 48 << 10), (1, 32 << 10), (2, 2 << 20), (3, 55296 << 10)]
        );
        let fp = HostFingerprint {
            nproc: 2,
            cpu_model: String::new(),
            caches: caches.into(),
            rustc: String::new(),
        };
        assert_eq!(fp.last_level_cache_bytes(), 55296 << 10);
    }
}
