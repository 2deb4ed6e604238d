//! `/proc` readers and the sample statistics, `std` only.
//!
//! Every parser takes the file's text, so the unit tests run on captured
//! samples instead of the live machine.

use std::fs;

/// Clock ticks per second when `/proc/self/auxv` cannot be read.
const DEFAULT_TICKS_PER_S: u64 = 100;
/// `AT_CLKTCK` key in the ELF auxiliary vector.
const AT_CLKTCK: u64 = 17;

/// Parses a `Cpus_allowed_list` value such as `0-1` or `0,2-3,7`.
pub fn parse_cpu_list(list: &str) -> Option<Vec<usize>> {
    let mut cpus = Vec::new();
    for part in list.trim().split(',') {
        match part.split_once('-') {
            Some((lo, hi)) => {
                let (lo, hi): (usize, usize) = (lo.trim().parse().ok()?, hi.trim().parse().ok()?);
                if lo > hi || hi - lo > 4096 {
                    return None;
                }
                cpus.extend(lo..=hi);
            }
            None => cpus.push(part.trim().parse().ok()?),
        }
    }
    (!cpus.is_empty()).then_some(cpus)
}

/// The value of one `Key:\tvalue` line of a `/proc/<pid>/status` text.
pub fn status_field<'a>(status: &'a str, key: &str) -> Option<&'a str> {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))
        .map(str::trim)
}

/// CPUs a `/proc/<pid>/status` text allows.
pub fn cpus_allowed(status: &str) -> Option<Vec<usize>> {
    parse_cpu_list(status_field(status, "Cpus_allowed_list")?)
}

/// Peak resident set of a `/proc/<pid>/status` text, in KiB. A zombie's
/// status has no `VmHWM` line.
pub fn vm_hwm_kib(status: &str) -> Option<u64> {
    status_field(status, "VmHWM")?
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()
}

/// `cutime + cstime` of a `/proc/self/stat` text, in clock ticks: the
/// CPU time of every child waited for so far. The command name may hold
/// spaces and parentheses, so fields are counted from the last `)`.
pub fn children_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    // `rest` starts at field 3 (state); cutime and cstime are 16 and 17.
    let mut fields = rest.split_whitespace().skip(13);
    let cutime: u64 = fields.next()?.parse().ok()?;
    let cstime: u64 = fields.next()?.parse().ok()?;
    Some(cutime + cstime)
}

/// Steal ticks of one CPU in a `/proc/stat` text.
pub fn steal_ticks(stat: &str, cpu: usize) -> Option<u64> {
    let key = format!("cpu{cpu}");
    let line = stat
        .lines()
        .find(|l| l.split_whitespace().next() == Some(key.as_str()))?;
    // cpuN user nice system idle iowait irq softirq steal ...
    line.split_whitespace().nth(8)?.parse().ok()
}

/// `AT_CLKTCK` out of a raw auxiliary vector (native-endian u64 pairs).
pub fn clk_tck_of_auxv(auxv: &[u8]) -> Option<u64> {
    auxv.chunks_exact(16).find_map(|pair| {
        let key = u64::from_ne_bytes(pair[..8].try_into().ok()?);
        let val = u64::from_ne_bytes(pair[8..].try_into().ok()?);
        (key == AT_CLKTCK && val > 0).then_some(val)
    })
}

/// Clock ticks per second of this machine.
pub fn ticks_per_s() -> u64 {
    fs::read("/proc/self/auxv")
        .ok()
        .and_then(|b| clk_tck_of_auxv(&b))
        .unwrap_or(DEFAULT_TICKS_PER_S)
}

/// CPU ticks of all children this process has waited for.
pub fn self_children_cpu_ticks() -> u64 {
    fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| children_cpu_ticks(&s))
        .unwrap_or(0)
}

/// Steal ticks of `cpu` right now (0 where the kernel reports none).
pub fn cpu_steal_ticks(cpu: usize) -> u64 {
    fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| steal_ticks(&s, cpu))
        .unwrap_or(0)
}

/// How children are placed on CPUs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Pinning {
    /// Every child runs under `taskset -c <cpu>`.
    Pinned { cpu: usize },
    /// `taskset` or the CPU list is unavailable: children run wherever
    /// the kernel puts them and `bench.pinned` reads 0.
    Unpinned { why: String },
}

impl Pinning {
    /// Chooses the last CPU of `status`'s `Cpus_allowed_list`, leaving
    /// the lower ones to the parent and its sampler.
    pub fn choose(status: Option<&str>, taskset_works: bool) -> Pinning {
        if !taskset_works {
            return Pinning::Unpinned {
                why: "taskset is not available".into(),
            };
        }
        match status
            .and_then(cpus_allowed)
            .and_then(|c| c.last().copied())
        {
            Some(cpu) => Pinning::Pinned { cpu },
            None => Pinning::Unpinned {
                why: "no Cpus_allowed_list in /proc/self/status".into(),
            },
        }
    }

    /// Probes the live machine.
    pub fn detect() -> Pinning {
        let status = fs::read_to_string("/proc/self/status").ok();
        let taskset_works = std::process::Command::new("taskset")
            .arg("--version")
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::null())
            .status()
            .is_ok_and(|s| s.success());
        Pinning::choose(status.as_deref(), taskset_works)
    }

    /// The CPU children are pinned to, if any.
    pub fn cpu(&self) -> Option<usize> {
        match self {
            Pinning::Pinned { cpu } => Some(*cpu),
            Pinning::Unpinned { .. } => None,
        }
    }

    /// 1 when pinned, 0 otherwise: the `bench.pinned` metric.
    pub fn flag(&self) -> u64 {
        u64::from(matches!(self, Pinning::Pinned { .. }))
    }

    /// The warning printed once per run when children are not pinned.
    pub fn warning(&self) -> Option<String> {
        match self {
            Pinning::Pinned { .. } => None,
            Pinning::Unpinned { why } => Some(format!(
                "hostbench: WARNING bench.pinned=0 ({why}); host timings cross CPUs and are not to be trusted"
            )),
        }
    }
}

/// Smallest sample.
pub fn min(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Largest sample.
pub fn max(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

/// Median (mean of the two middle samples for an even count).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile as Python's `statistics.quantiles(xs, n=4)`
/// gives them (the exclusive method), which is how the spread of a
/// metric over several runs is judged.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        return (f64::NAN, f64::NAN);
    }
    let at = |k: usize| {
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `/proc/<pid>/status` of a `taskset -c 1 cvm sweep` child, trimmed.
    const STATUS_PINNED: &str = "Name:\tcvm\nUmask:\t0022\nState:\tR (running)\nTgid:\t4242\n\
        VmPeak:\t  412340 kB\nVmSize:\t  401200 kB\nVmHWM:\t   351232 kB\nVmRSS:\t   349000 kB\n\
        Threads:\t513\nCpus_allowed:\t2\nCpus_allowed_list:\t1\nMems_allowed_list:\t0\n";
    /// The same for this benchmark's own process on the 2-vCPU box.
    const STATUS_SELF: &str =
        "Name:\thostbench\nVmHWM:\t    2304 kB\nCpus_allowed:\t3\nCpus_allowed_list:\t0-1\n";
    /// A zombie has neither Vm lines nor an affinity worth reading.
    const STATUS_ZOMBIE: &str = "Name:\tcvm\nState:\tZ (zombie)\nTgid:\t4242\nThreads:\t1\n";
    /// `/proc/self/stat` with an awkward command name; utime=7 stime=3
    /// cutime=412 cstime=38.
    const STAT_SELF: &str = "977 (host) bench (x) S 1 977 977 0 -1 4194304 120 9000 0 0 7 3 412 38 20 0 2 0 12345 1000000 300 18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0";
    const PROC_STAT: &str = "cpu  100 0 50 9000 10 0 5 30 0 0\ncpu0 60 0 20 4500 5 0 2 10 0 0\ncpu1 40 0 30 4500 5 0 3 20 0 0\nintr 12345\n";

    #[test]
    fn cpu_lists_parse() {
        assert_eq!(parse_cpu_list("0-1"), Some(vec![0, 1]));
        assert_eq!(parse_cpu_list("0,2-3,7\n"), Some(vec![0, 2, 3, 7]));
        assert_eq!(parse_cpu_list("5"), Some(vec![5]));
        assert_eq!(parse_cpu_list(""), None);
        assert_eq!(parse_cpu_list("3-1"), None);
        assert_eq!(parse_cpu_list("a-b"), None);
        assert_eq!(parse_cpu_list("0-99999999"), None);
    }

    #[test]
    fn status_fields_parse() {
        assert_eq!(cpus_allowed(STATUS_PINNED), Some(vec![1]));
        assert_eq!(cpus_allowed(STATUS_SELF), Some(vec![0, 1]));
        assert_eq!(cpus_allowed(STATUS_ZOMBIE), None);
        assert_eq!(vm_hwm_kib(STATUS_PINNED), Some(351_232));
        assert_eq!(vm_hwm_kib(STATUS_ZOMBIE), None);
        // "Cpus_allowed" must not match the "Cpus_allowed_list" line.
        assert_eq!(status_field(STATUS_PINNED, "Cpus_allowed"), Some("2"));
    }

    #[test]
    fn child_cpu_delta_survives_odd_command_names() {
        assert_eq!(children_cpu_ticks(STAT_SELF), Some(450));
        let later = STAT_SELF.replace(" 412 38 ", " 630 45 ");
        let delta = children_cpu_ticks(&later).unwrap() - children_cpu_ticks(STAT_SELF).unwrap();
        assert_eq!(delta, 225);
        assert_eq!(children_cpu_ticks("garbage"), None);
        assert_eq!(children_cpu_ticks("1 (x) S 1 2"), None);
    }

    #[test]
    fn steal_delta_is_per_cpu() {
        assert_eq!(steal_ticks(PROC_STAT, 0), Some(10));
        assert_eq!(steal_ticks(PROC_STAT, 1), Some(20));
        assert_eq!(steal_ticks(PROC_STAT, 2), None);
        let later = PROC_STAT.replace("cpu1 40 0 30 4500 5 0 3 20", "cpu1 90 0 40 4600 5 0 3 27");
        assert_eq!(
            steal_ticks(&later, 1).unwrap() - steal_ticks(PROC_STAT, 1).unwrap(),
            7
        );
    }

    #[test]
    fn clk_tck_is_found_in_auxv() {
        let mut auxv = Vec::new();
        for (k, v) in [(6u64, 4096u64), (17, 100), (0, 0)] {
            auxv.extend_from_slice(&k.to_ne_bytes());
            auxv.extend_from_slice(&v.to_ne_bytes());
        }
        assert_eq!(clk_tck_of_auxv(&auxv), Some(100));
        assert_eq!(clk_tck_of_auxv(&auxv[..16]), None);
        assert!(ticks_per_s() > 0);
    }

    #[test]
    fn pinning_takes_the_last_allowed_cpu() {
        assert_eq!(
            Pinning::choose(Some(STATUS_SELF), true),
            Pinning::Pinned { cpu: 1 }
        );
        assert_eq!(Pinning::choose(Some(STATUS_SELF), true).flag(), 1);
        assert_eq!(Pinning::choose(Some(STATUS_SELF), true).warning(), None);
    }

    #[test]
    fn unpinned_fallback_warns_and_reports_zero() {
        for p in [
            Pinning::choose(Some(STATUS_SELF), false),
            Pinning::choose(Some(STATUS_ZOMBIE), true),
            Pinning::choose(None, true),
        ] {
            assert_eq!(p.flag(), 0);
            let w = p.warning().expect("an unpinned run must warn");
            assert!(w.contains("bench.pinned=0"), "{w}");
        }
    }

    #[test]
    fn min_median_max_select() {
        let xs = [3.0, 1.0, 2.0, 10.0];
        assert_eq!(min(&xs), 1.0);
        assert_eq!(max(&xs), 10.0);
        assert_eq!(median(&xs), 2.5);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 4.0, 2.0, 8.0]), (1.5, 12.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
    }
}
