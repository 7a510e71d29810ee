//! What the benchmark reads about its host and processes: CPU time and
//! peak memory from `/proc`, and the envelope printed beside every result
//! so results from different hosts are never mixed silently.

use snb_obs::Json;
use std::path::Path;
use std::process::Command;

/// Kernel clock ticks per second in `/proc/<pid>/stat` (`USER_HZ`, fixed at
/// 100 by the Linux ABI on the architectures this runs on).
const USER_HZ: f64 = 100.0;

fn proc_dir(pid: Option<u32>) -> String {
    pid.map_or_else(|| "/proc/self".to_string(), |p| format!("/proc/{p}"))
}

/// User + system CPU seconds of a process (all its threads); `None` is the
/// benchmark itself. Zero if the process is gone.
pub fn cpu_seconds(pid: Option<u32>) -> f64 {
    let Ok(stat) = std::fs::read_to_string(format!("{}/stat", proc_dir(pid))) else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let Some(rest) = stat.rfind(')').map(|i| &stat[i + 1..]) else { return 0.0 };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok()).unwrap_or(0.0);
    (ticks(11) + ticks(12)) / USER_HZ
}

/// Peak resident set (`VmHWM`) of a process in MiB; zero if unreadable.
pub fn peak_rss_mb(pid: Option<u32>) -> f64 {
    let status = std::fs::read_to_string(format!("{}/status", proc_dir(pid))).unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Restart the benchmark's own `VmHWM` from its current resident set
/// (Linux 4.0 and later), so each round's peak is that round's alone.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// The 1-minute load average.
pub fn load_average() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next().and_then(|v| v.parse().ok()))
        .unwrap_or(f64::NAN)
}

/// Restrict the calling thread, and every thread and process it starts
/// from now on, to the first CPU it may run on; return that CPU.
pub fn pin_to_first_cpu() -> Result<usize, String> {
    // A glibc `cpu_set_t`: 1024 bits.
    const WORDS: usize = 16;
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    let size = WORDS * std::mem::size_of::<u64>();
    let mut mask = [0u64; WORDS];
    // SAFETY: `mask` is `size` writable bytes; pid 0 is the calling thread.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return Err(format!("sched_getaffinity: {}", std::io::Error::last_os_error()));
    }
    let cpu = (0..WORDS * 64)
        .find(|&i| mask[i / 64] >> (i % 64) & 1 == 1)
        .ok_or("sched_getaffinity: no CPU allowed")?;
    let mut one = [0u64; WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is `size` readable bytes; pid 0 is the calling thread.
    if unsafe { sched_setaffinity(0, size, one.as_ptr()) } != 0 {
        return Err(format!("sched_setaffinity: {}", std::io::Error::last_os_error()));
    }
    Ok(cpu)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The checked-out commit, read from `.git` in the working directory only
/// (never a parent directory): `None` outside a git checkout.
fn git_rev() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(rev) = std::fs::read_to_string(Path::new(".git").join(reference)) {
        return Some(rev.trim().to_string());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed.lines().find_map(|l| {
        let (rev, name) = l.split_once(' ')?;
        (name == reference).then(|| rev.to_string())
    })
}

fn rustc_version() -> Option<String> {
    let out = Command::new("rustc").arg("--version").output().ok()?;
    out.status.success().then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Host facts that do not change during a run; `nproc` as read before the
/// benchmark pinned itself to `cpu`, if it did.
pub fn envelope(nproc: usize, cpu: Option<usize>, load_start: f64, load_end: f64) -> Json {
    let opt = |v: Option<String>| v.map_or(Json::Null, Json::from);
    Json::obj([
        ("nproc", Json::from(nproc)),
        ("pinned_cpu", cpu.map_or(Json::Null, Json::from)),
        ("git_rev", opt(git_rev())),
        ("rustc", opt(rustc_version())),
        ("loadavg_1m_start", Json::from(load_start)),
        ("loadavg_1m_end", Json::from(load_end)),
    ])
}
