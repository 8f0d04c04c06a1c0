//! Small self-contained helpers: the input generator, the output digest,
//! order statistics and the host stamp. None of them comes from the
//! program under test, so a change to the program cannot move the
//! benchmark's inputs or its yardsticks.

use std::time::Instant;

/// SplitMix64: the benchmark's own seeded input generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream for `label`, a pure function of the seed.
    pub fn derive(seed: u64, label: u64) -> Rng {
        let mut r = Rng(seed ^ label.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// FNV-1a over bytes, printed as 16 hex digits.
#[derive(Debug, Clone)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn write_f64(&mut self, v: f64) {
        self.write(&v.to_bits().to_le_bytes());
    }

    pub fn value(&self) -> u64 {
        self.0
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.value())
    }
}

/// Linear-interpolated quantile (`q` in `[0, 1]`) of unsorted samples,
/// the same rule as numpy's default. `NaN` for an empty slice.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// Linux's clocks of the CPU time consumed by all threads of this
/// process (exited ones included) and by the calling thread.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn read_clock(clock: i32) -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `timespec` (two 64-bit fields on
    // 64-bit Linux) that outlives the call, and both clock ids the
    // callers pass are ones the kernel defines for every process.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "the CPU-time clocks are always readable");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// CPU time this process has consumed so far, in seconds. With the
/// kernel's paravirtual steal accounting, time a vCPU spends stolen by
/// the host is not counted.
pub fn cpu_s() -> f64 {
    read_clock(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time the calling thread has consumed so far, in seconds.
pub fn thread_cpu_s() -> f64 {
    read_clock(CLOCK_THREAD_CPUTIME_ID)
}

/// Wall-clock and process CPU time since a start point.
#[derive(Debug, Clone, Copy)]
pub struct Clock {
    wall: Instant,
    cpu: f64,
}

impl Clock {
    pub fn start() -> Clock {
        Clock {
            wall: Instant::now(),
            cpu: cpu_s(),
        }
    }

    pub fn wall_s(&self) -> f64 {
        secs(self.wall)
    }

    pub fn cpu_s(&self) -> f64 {
        cpu_s() - self.cpu
    }
}

/// Peak resident set of this process in MB (`VmHWM`), 0 when the kernel
/// does not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Host-wide CPU steal ticks so far (the eighth field of the `cpu` line
/// of `/proc/stat`), `None` where unavailable.
pub fn steal_ticks() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    line.split_whitespace().nth(8)?.parse().ok()
}

/// Host CPU ticks of all kinds so far, for the steal share.
pub fn total_ticks() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    Some(
        line.split_whitespace()
            .skip(1)
            .filter_map(|v| v.parse::<u64>().ok())
            .sum(),
    )
}

/// The commit under test: `git rev-parse HEAD` where the checkout is a
/// git repository, else a digest of the workspace sources so that two
/// runs can still tell whether they measured the same code.
pub fn commit_stamp(root: &std::path::Path) -> String {
    let git = std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .current_dir(root)
        .stderr(std::process::Stdio::null())
        .output();
    if let Ok(out) = git {
        if out.status.success() {
            return String::from_utf8_lossy(&out.stdout).trim().to_string();
        }
    }
    let mut files = Vec::new();
    collect_sources(&root.join("crates"), &mut files);
    files.push(root.join("Cargo.toml"));
    files.push(root.join("Cargo.lock"));
    files.sort();
    let mut d = Digest::new();
    for f in &files {
        if let Ok(bytes) = std::fs::read(f) {
            d.write(
                f.strip_prefix(root)
                    .unwrap_or(f)
                    .to_string_lossy()
                    .as_bytes(),
            );
            d.write(&bytes);
        }
    }
    format!("src-{}", d.hex())
}

fn collect_sources(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs" || e == "toml") {
            out.push(path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_like_numpy() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert!((quantile(&xs, 0.9) - 3.7).abs() < 1e-12);
    }

    #[test]
    fn cpu_clock_advances_with_work() {
        let c = Clock::start();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i * i));
        }
        assert!(c.cpu_s() > 0.0 && c.cpu_s() <= c.wall_s() * 2.0 + 1e-3);
    }

    #[test]
    fn derived_streams_are_reproducible_and_distinct() {
        let a: Vec<u64> = (0..4).map(|_| Rng::derive(7, 1).next_u64()).collect();
        assert!(a.iter().all(|&x| x == a[0]));
        assert_ne!(Rng::derive(7, 1).next_u64(), Rng::derive(7, 2).next_u64());
        assert_ne!(Rng::derive(7, 1).next_u64(), Rng::derive(8, 1).next_u64());
    }
}
