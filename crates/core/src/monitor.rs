//! System Monitor: "responsible for gathering resource utilization
//! statistics from the SUT" (paper §2.3, Figure 2).
//!
//! A [`PeriodicSampler`] reads the process's resident set size and CPU
//! time from `/proc` at a fixed interval for the duration of a benchmark
//! run.
//! On platforms without `/proc` the monitor degrades to wall-clock-only
//! reports rather than failing the benchmark.

use std::time::{Duration, Instant};

use crate::sampler::PeriodicSampler;

/// One resource sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Seconds since monitoring started.
    pub at_seconds: f64,
    /// Resident set size in bytes (0 when unavailable).
    pub rss_bytes: u64,
    /// Cumulative process CPU seconds (user + system; 0 when unavailable).
    pub cpu_seconds: f64,
}

impl Sample {
    /// Reads `/proc` now, for a session that began at `started`.
    fn take(started: Instant) -> Self {
        Self {
            at_seconds: started.elapsed().as_secs_f64(),
            rss_bytes: read_rss_bytes().unwrap_or(0),
            cpu_seconds: read_cpu_seconds().unwrap_or(0.0),
        }
    }
}

/// Aggregated view of a monitoring session.
#[derive(Debug, Clone, PartialEq)]
pub struct MonitorReport {
    /// All samples in order.
    pub samples: Vec<Sample>,
    /// Wall-clock duration monitored: from `start` to the call of `stop`,
    /// not to its return, so the monitor's own shutdown is not in it.
    pub wall_seconds: f64,
    /// Peak resident set observed.
    pub peak_rss_bytes: u64,
    /// CPU seconds consumed between the first and the last sample.
    pub cpu_seconds: f64,
    /// Mean CPU utilization (CPU seconds / wall seconds; >1 on multicore).
    pub avg_cpu_utilization: f64,
}

/// A running monitor; call [`SystemMonitor::stop`] to collect the report.
pub struct SystemMonitor {
    sampler: PeriodicSampler<Vec<Sample>>,
    started: Instant,
}

impl SystemMonitor {
    /// Takes the t=0 sample, then one every `interval`.
    pub fn start(interval: Duration) -> Self {
        let started = Instant::now();
        let sampler = PeriodicSampler::start(interval, Vec::new(), move |samples| {
            samples.push(Sample::take(started));
        });
        Self { sampler, started }
    }

    /// Stops sampling and aggregates. A final sample is taken at stop
    /// time, so even runs shorter than one sampling interval report a
    /// timeline that brackets them.
    pub fn stop(self) -> MonitorReport {
        let wall_seconds = self.started.elapsed().as_secs_f64();
        let mut samples = self.sampler.stop();
        samples.push(Sample::take(self.started));
        let (first, last) = (samples[0], samples[samples.len() - 1]);
        let peak_rss_bytes = samples.iter().map(|s| s.rss_bytes).max().unwrap_or(0);
        let cpu_seconds = (last.cpu_seconds - first.cpu_seconds).max(0.0);
        MonitorReport {
            samples,
            wall_seconds,
            peak_rss_bytes,
            cpu_seconds,
            avg_cpu_utilization: if wall_seconds > 0.0 {
                cpu_seconds / wall_seconds
            } else {
                0.0
            },
        }
    }
}

/// Resident set size in bytes. Primary source is `/proc/self/status`'s
/// `VmRSS:` line, which the kernel reports in kB independent of the page
/// size; `/proc/self/statm` (page-granular) is the fallback.
pub fn read_rss_bytes() -> Option<u64> {
    read_rss_from_status().or_else(read_rss_from_statm)
}

/// `VmRSS:  1234 kB` from `/proc/self/status` — unit-safe (the kernel
/// always emits kB here regardless of the architecture's page size).
fn read_rss_from_status() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_vmrss_kb(&status).map(|kb| kb * 1024)
}

/// Parses the `VmRSS:` value (in kB) out of a `/proc/self/status` body.
fn parse_vmrss_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
    let mut parts = line.split_whitespace();
    let _key = parts.next()?;
    let value: u64 = parts.next()?.parse().ok()?;
    match parts.next() {
        Some("kB") | None => Some(value),
        Some(_) => None, // Unknown unit; refuse to guess.
    }
}

/// Fallback: `/proc/self/statm` field 2 counts pages. There is no
/// dependency-free way to query the page size, so this assumes the Linux
/// default of 4 KiB — wrong on 16K/64K-page kernels, which is exactly why
/// the `VmRSS:` path above is preferred.
fn read_rss_from_statm() -> Option<u64> {
    const ASSUMED_PAGE_SIZE: u64 = 4096;
    let statm = std::fs::read_to_string("/proc/self/statm").ok()?;
    let rss_pages: u64 = statm.split_whitespace().nth(1)?.parse().ok()?;
    Some(rss_pages * ASSUMED_PAGE_SIZE)
}

/// Cumulative user+system CPU seconds from `/proc/self/stat`.
pub fn read_cpu_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Fields 14 and 15 (utime, stime) count clock ticks; the command name
    // (field 2) can contain spaces but is parenthesized — split after ')'.
    let after = stat.rsplit_once(')')?.1;
    let fields: Vec<&str> = after.split_whitespace().collect();
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    // utime/stime are scaled by USER_HZ, which is a kernel *ABI* constant
    // fixed at 100 on every mainstream Linux architecture (distinct from
    // the kernel's internal, configurable HZ). Querying it exactly needs
    // sysconf(_SC_CLK_TCK), i.e. libc — not worth a dependency for a
    // monitoring statistic, so the assumption stays documented here.
    const USER_HZ: f64 = 100.0;
    Some((utime + stime) / USER_HZ)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monitor_collects_samples_and_cpu() {
        let monitor = SystemMonitor::start(Duration::from_millis(5));
        // Burn CPU so utilization is observable.
        let mut acc = 0u64;
        let t0 = Instant::now();
        while t0.elapsed() < Duration::from_millis(60) {
            acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
        }
        std::hint::black_box(acc);
        let report = monitor.stop();
        assert!(!report.samples.is_empty());
        assert!(report.wall_seconds >= 0.05);
        assert!(
            report.peak_rss_bytes > 0,
            "proc should be readable on Linux"
        );
        assert!(report.cpu_seconds > 0.0);
        assert!(report.avg_cpu_utilization > 0.1);
    }

    #[test]
    fn samples_are_monotone_in_time() {
        let monitor = SystemMonitor::start(Duration::from_millis(2));
        std::thread::sleep(Duration::from_millis(20));
        let report = monitor.stop();
        assert!(report
            .samples
            .windows(2)
            .all(|w| w[0].at_seconds <= w[1].at_seconds));
        assert!(report
            .samples
            .windows(2)
            .all(|w| w[0].cpu_seconds <= w[1].cpu_seconds));
    }

    #[test]
    fn proc_readers_return_plausible_values() {
        let rss = read_rss_bytes().expect("linux /proc");
        assert!(rss > 1 << 20, "rss should exceed 1 MiB: {rss}");
        let cpu = read_cpu_seconds().expect("linux /proc");
        assert!(cpu >= 0.0);
    }

    #[test]
    fn vmrss_parser_handles_units() {
        assert_eq!(
            parse_vmrss_kb("VmPeak:\t 10 kB\nVmRSS:\t 2048 kB\n"),
            Some(2048)
        );
        assert_eq!(parse_vmrss_kb("VmRSS: 7\n"), Some(7));
        assert_eq!(parse_vmrss_kb("VmRSS: 7 MB\n"), None);
        assert_eq!(parse_vmrss_kb("VmSize: 7 kB\n"), None);
        assert_eq!(parse_vmrss_kb(""), None);
    }

    #[test]
    fn status_and_statm_roughly_agree() {
        let status = read_rss_from_status().expect("linux /proc/self/status");
        let statm = read_rss_from_statm().expect("linux /proc/self/statm");
        // Both measure the same RSS; allow slack for allocation between
        // the two reads and for huge-page rounding.
        let ratio = status as f64 / statm as f64;
        assert!(
            (0.5..=2.0).contains(&ratio),
            "status={status} statm={statm}"
        );
    }

    #[test]
    fn stop_is_a_wake_up_not_a_poll() {
        // A sampler that sleeps through stop() is slow in every session;
        // a woken one is slow only when the box is too busy to schedule
        // it. So the gate is the fastest fifth of 50 sessions, which load
        // cannot push over the line and polling cannot get under it.
        let mut latencies: Vec<Duration> = (0..50)
            .map(|_| {
                let monitor = SystemMonitor::start(Duration::from_millis(50));
                // Long enough for the sampler thread to be waiting.
                std::thread::sleep(Duration::from_micros(500));
                let t0 = Instant::now();
                let report = monitor.stop();
                let latency = t0.elapsed();
                assert!(report.wall_seconds <= report.samples.last().unwrap().at_seconds);
                latency
            })
            .collect();
        latencies.sort();
        assert!(
            latencies[9] < Duration::from_millis(1),
            "10th fastest stop() of 50 took {:?}, median {:?}",
            latencies[9],
            latencies[25]
        );
    }

    #[test]
    fn short_runs_still_get_a_final_sample() {
        // Interval far longer than the monitored window: the sampling
        // thread contributes its t=0 sample, and stop() must add the
        // final one so the timeline brackets the run.
        let monitor = SystemMonitor::start(Duration::from_secs(3600));
        let report = monitor.stop();
        assert!(!report.samples.is_empty());
        let last = report.samples.last().unwrap();
        assert!(last.rss_bytes > 0);
        assert!((last.at_seconds - report.wall_seconds).abs() < 0.05);
    }
}
