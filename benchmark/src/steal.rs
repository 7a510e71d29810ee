//! Steal time: CPU time the hypervisor gave to other guests while this
//! machine's virtual CPUs had work to run. On a shared host it is the one
//! kind of interference the guest can see, and no change to the program
//! can raise or lower it. A background thread samples the aggregate line
//! of `/proc/stat` every [`PERIOD`], so any stretch of a run can be asked
//! what share of its CPU time was stolen.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Sampling period. `/proc/stat` counts in 10 ms ticks per CPU, so on two
/// CPUs one period holds twenty ticks.
const PERIOD: Duration = Duration::from_millis(100);

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// `at` in nanoseconds since the benchmark first read this clock: the
/// clock the probe stamps calls with and the monitor stamps readings with.
pub fn ns_at(at: Instant) -> u64 {
    at.saturating_duration_since(*EPOCH.get_or_init(Instant::now)).as_nanos() as u64
}

pub fn now_ns() -> u64 {
    ns_at(Instant::now())
}

/// One reading of the aggregate CPU line.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reading {
    pub at_ns: u64,
    pub steal: u64,
    pub total: u64,
}

/// Steal and total ticks of all CPUs, from the first line of `/proc/stat`
/// (`cpu user nice system idle iowait irq softirq steal ...`).
fn read_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .strip_prefix("cpu ")?
        .split_whitespace()
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    // Guest time (fields 9 and 10) is already counted in user and nice.
    let total = fields.iter().take(8).sum();
    Some((*fields.get(7)?, total))
}

/// Samples steal time in the background until [`Monitor::finish`].
pub struct Monitor {
    readings: Arc<Mutex<Vec<Reading>>>,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl Monitor {
    pub fn start() -> Monitor {
        let readings = Arc::new(Mutex::new(Vec::new()));
        let stop = Arc::new(AtomicBool::new(false));
        let (log, done) = (Arc::clone(&readings), Arc::clone(&stop));
        let sample = move || {
            if let Some((steal, total)) = read_ticks() {
                let reading = Reading { at_ns: now_ns(), steal, total };
                log.lock().unwrap_or_else(|e| e.into_inner()).push(reading);
            }
        };
        let thread = std::thread::Builder::new()
            .name("steal-monitor".into())
            .spawn(move || {
                sample();
                while !done.load(Ordering::Relaxed) {
                    std::thread::sleep(PERIOD);
                    sample();
                }
            })
            .ok();
        Monitor { readings, stop, thread }
    }

    /// Stop sampling, wait for the thread, and return what it saw.
    pub fn finish(mut self) -> Timeline {
        self.halt();
        let readings =
            std::mem::take(&mut *self.readings.lock().unwrap_or_else(|e| e.into_inner()));
        Timeline { readings }
    }

    fn halt(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

impl Drop for Monitor {
    fn drop(&mut self) {
        self.halt();
    }
}

/// The readings of one run, in time order.
pub struct Timeline {
    readings: Vec<Reading>,
}

impl Timeline {
    #[cfg(test)]
    pub fn from_readings(readings: Vec<Reading>) -> Timeline {
        Timeline { readings }
    }

    /// Share of all CPU time stolen over the shortest sampled stretch that
    /// covers `[from_ns, to_ns]`: from the last reading at or before
    /// `from_ns` to the first at or after `to_ns`, clamped to the readings
    /// there are. Zero when fewer than two readings exist (no `/proc/stat`).
    pub fn share(&self, from_ns: u64, to_ns: u64) -> f64 {
        let r = &self.readings;
        if r.len() < 2 {
            return 0.0;
        }
        let first = r.partition_point(|x| x.at_ns <= from_ns).saturating_sub(1);
        let last = r.partition_point(|x| x.at_ns < to_ns).min(r.len() - 1).max(first + 1);
        let (a, b) = (r[first], r[last]);
        let total = b.total.saturating_sub(a.total);
        if total == 0 {
            return 0.0;
        }
        b.steal.saturating_sub(a.steal) as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timeline() -> Timeline {
        // Every 100 ms, 20 ticks; the stretch 200–300 ms had 5 stolen.
        let at = |ms: u64, steal: u64| Reading { at_ns: ms * 1_000_000, steal, total: ms / 5 };
        Timeline::from_readings(vec![at(0, 0), at(100, 0), at(200, 0), at(300, 5), at(400, 5)])
    }

    #[test]
    fn share_covers_the_sampled_stretch_around_an_interval() {
        let t = timeline();
        // Inside one period: that period's share.
        assert_eq!(t.share(210_000_000, 290_000_000), 0.25);
        assert_eq!(t.share(110_000_000, 190_000_000), 0.0);
        // Spanning two periods, one of them stolen from.
        assert_eq!(t.share(150_000_000, 250_000_000), 5.0 / 40.0);
        // On a reading boundary the stretch starts there.
        assert_eq!(t.share(300_000_000, 400_000_000), 0.0);
        // Before the first or after the last reading: clamped.
        assert_eq!(t.share(0, 50_000_000), 0.0);
        assert_eq!(t.share(350_000_000, 900_000_000), 0.0);
        assert_eq!(t.share(0, 900_000_000), 5.0 / 80.0);
        assert_eq!(Timeline::from_readings(Vec::new()).share(0, 1), 0.0);
    }

    #[test]
    fn the_monitor_reads_this_host() {
        let monitor = Monitor::start();
        std::thread::sleep(PERIOD * 2);
        let t = monitor.finish();
        if std::path::Path::new("/proc/stat").exists() {
            assert!(t.readings.len() >= 2);
            let share = t.share(0, now_ns());
            assert!((0.0..=1.0).contains(&share));
        }
    }
}
