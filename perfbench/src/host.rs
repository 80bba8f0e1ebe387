//! Process and host facts read from `/proc` and the toolchain: CPU time
//! and resident memory of a process, and the provenance block of a
//! result.

use std::process::Command;
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Clock ticks per second for `/proc/<pid>/stat` times.
fn clock_ticks() -> f64 {
    static TICKS: OnceLock<f64> = OnceLock::new();
    *TICKS.get_or_init(|| {
        Command::new("getconf")
            .arg("CLK_TCK")
            .output()
            .ok()
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .and_then(|s| s.trim().parse::<f64>().ok())
            .filter(|t| *t > 0.0)
            .unwrap_or(100.0)
    })
}

/// User + system CPU seconds consumed so far by process `pid` (`None`
/// for the current process), all threads included.
pub fn cpu_seconds(pid: Option<u32>) -> Option<f64> {
    let path = match pid {
        Some(p) => format!("/proc/{p}/stat"),
        None => "/proc/self/stat".to_string(),
    };
    let text = std::fs::read_to_string(path).ok()?;
    // The command name may contain spaces; fields restart after ')'.
    let rest = &text[text.rfind(')')? + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // utime and stime are fields 14 and 15 of stat, 12 and 13 after ')'.
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) / clock_ticks())
}

/// A `/proc/<pid>/status` size field (`VmRSS`, `VmHWM`) of process
/// `pid` in MiB.
fn status_mib(pid: Option<u32>, field: &str) -> Option<f64> {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_string(),
    };
    let text = std::fs::read_to_string(path).ok()?;
    let line = text
        .lines()
        .find(|l| l.strip_prefix(field).is_some_and(|r| r.starts_with(':')))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Peak resident set size over the life of process `pid` (VmHWM) in
/// MiB.
pub fn hwm_mib(pid: Option<u32>) -> Option<f64> {
    status_mib(pid, "VmHWM")
}

/// CPU time of the working process at one instant.
#[derive(Debug, Clone, Copy)]
pub struct Tick {
    pub at: Instant,
    pub cpu_s: f64,
}

fn tick(pid: Option<u32>) -> Tick {
    Tick {
        at: Instant::now(),
        cpu_s: cpu_seconds(pid).unwrap_or(f64::NAN),
    }
}

/// How often a [`Sampler`] reads the working process.
pub const SAMPLE_EVERY: Duration = Duration::from_millis(100);

/// Samples a process's CPU time every `period` on a
/// thread of its own.
pub struct Sampler {
    stop: Arc<(Mutex<bool>, Condvar)>,
    handle: JoinHandle<Vec<Tick>>,
}

impl Sampler {
    /// Take the first sample now and keep sampling every `period`.
    pub fn start(pid: Option<u32>, period: Duration) -> Sampler {
        let stop = Arc::new((Mutex::new(false), Condvar::new()));
        let first = tick(pid);
        let flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let mut ticks = vec![first];
            let (lock, cv) = &*flag;
            let mut stopped = lock.lock().unwrap_or_else(|e| e.into_inner());
            let mut next = first.at + period;
            while !*stopped {
                let now = Instant::now();
                if now >= next {
                    ticks.push(tick(pid));
                    next += period;
                    continue;
                }
                stopped = cv
                    .wait_timeout(stopped, next - now)
                    .unwrap_or_else(|e| e.into_inner())
                    .0;
            }
            ticks
        });
        Sampler { stop, handle }
    }

    /// Take the last sample and return them all, in time order.
    pub fn finish(self, pid: Option<u32>) -> Vec<Tick> {
        let (lock, cv) = &*self.stop;
        *lock.lock().unwrap_or_else(|e| e.into_inner()) = true;
        cv.notify_all();
        let mut ticks = self.handle.join().unwrap_or_default();
        ticks.push(tick(pid));
        ticks
    }
}

/// Cumulative (steal, total) jiffies of the host's CPUs from
/// `/proc/stat`: time the hypervisor gave this machine's CPUs to others.
pub fn steal_jiffies() -> Option<(f64, f64)> {
    let text = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<f64> = text
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    Some((*fields.get(7)?, fields.iter().take(8).sum()))
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        // Never let git look above the checkout for a repository.
        .env("GIT_CEILING_DIRECTORIES", parent_of_cwd())
        .output()
        .ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8(out.stdout).ok()?;
    Some(text.trim().to_string()).filter(|s| !s.is_empty())
}

fn parent_of_cwd() -> String {
    std::env::current_dir()
        .ok()
        .and_then(|d| d.parent().map(|p| p.display().to_string()))
        .unwrap_or_default()
}

/// FNV-1a over every source file of the measured crates (sorted by
/// path), so a result names the code it measured even in a checkout
/// that is not a git repository.
fn source_digest() -> String {
    fn walk(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, out);
            } else if path
                .extension()
                .is_some_and(|e| e == "rs" || e == "toml" || e == "lock")
            {
                out.push(path);
            }
        }
    }
    let mut files = Vec::new();
    walk(std::path::Path::new("crates"), &mut files);
    files.push("Cargo.lock".into());
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in &files {
        let Ok(bytes) = std::fs::read(f) else {
            continue;
        };
        for b in f.to_string_lossy().bytes().chain(bytes) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("fnv1a:{h:016x} over {} files", files.len())
}

/// Host and build facts for the provenance block.
pub fn provenance() -> Vec<(&'static str, String)> {
    vec![
        ("nproc", nproc().to_string()),
        ("cpu_model", cpu_model()),
        (
            "rustc",
            command_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".to_string()),
        ),
        (
            "git_commit",
            command_line("git", &["rev-parse", "HEAD"])
                .unwrap_or_else(|| "unavailable (not a git checkout)".to_string()),
        ),
        ("source_digest", source_digest()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampler_ticks_bracket_the_window() {
        let s = Sampler::start(None, Duration::from_millis(5));
        std::thread::sleep(Duration::from_millis(30));
        let ticks = s.finish(None);
        assert!(ticks.len() >= 3, "{}", ticks.len());
        assert!(ticks
            .windows(2)
            .all(|w| w[0].at <= w[1].at && w[0].cpu_s <= w[1].cpu_s));
    }

    #[test]
    fn own_process_figures_are_readable() {
        let cpu = cpu_seconds(None).unwrap();
        assert!(cpu >= 0.0);
        assert!(status_mib(None, "VmRSS").unwrap() > 0.0);
        assert!(hwm_mib(None).unwrap() > 0.0);
        assert!(status_mib(None, "VmRS").is_none());
        assert!(nproc() >= 1);
    }
}
