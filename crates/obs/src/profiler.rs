//! The span-stack sampling profiler.
//!
//! A [`PeriodicSampler`] calls [`Tracer::sample_stacks`] every `interval`
//! — which reads the shared open-span stacks every traced thread mirrors
//! through a TLS hook — and folds each observed stack into a
//! `frame;frame;frame → count` multiset, the flamegraph community's
//! folded-stack format.
//!
//! Overhead contract: one sample costs `O(threads × stack depth)` string
//! work under short uncontended locks; worker threads only ever pay one
//! `Arc` clone plus a mutex push/pop per span, whether or not a sampler
//! is attached. With no profiler started, nothing here runs at all, and
//! a *disabled* tracer never registers sampling frames in the first
//! place. Sampling timestamps never reach run outputs — the profile is
//! a histogram of stack shapes, not of wall-clock values.

use std::collections::BTreeMap;
use std::sync::Arc;
// lint:allow(determinism-time): sampling cadence only; nothing derived from it reaches run outputs
use std::time::Duration;

use graphalytics_core::sampler::PeriodicSampler;
use graphalytics_core::trace::{StackSample, Tracer};

/// Default sampling interval: 2 ms (≈500 Hz), fine enough to see
/// supersteps at scale 16+ while keeping sampler CPU use negligible.
pub const DEFAULT_INTERVAL: Duration = Duration::from_millis(2);

/// An aggregated profile: folded stacks and how many sampling ticks
/// produced them.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Profile {
    /// `frame;frame;frame` (outermost first) → times observed.
    pub folded: BTreeMap<String, u64>,
    /// Sampling ticks taken (including ticks that saw no open spans).
    pub ticks: u64,
}

impl Profile {
    /// Folds one snapshot of per-thread stacks into the profile.
    pub fn record(&mut self, stacks: &[StackSample]) {
        self.ticks += 1;
        for stack in stacks {
            *self.folded.entry(stack.frames.join(";")).or_insert(0) += 1;
        }
    }

    /// Total folded-stack observations (≥ number of busy ticks).
    pub fn total_samples(&self) -> u64 {
        self.folded.values().sum()
    }

    /// True when no stack was ever observed.
    pub fn is_empty(&self) -> bool {
        self.folded.is_empty()
    }

    /// The canonical folded-stack text: one `stack count` line per
    /// distinct stack, sorted — the input format of flamegraph tooling.
    pub fn folded_text(&self) -> String {
        let mut out = String::new();
        for (stack, count) in &self.folded {
            out.push_str(stack);
            out.push(' ');
            out.push_str(&count.to_string());
            out.push('\n');
        }
        out
    }
}

/// The background sampler. Start one next to a run, stop it afterwards,
/// and export the returned [`Profile`]. Dropping it unstopped still ends
/// the sampling thread.
pub struct SamplingProfiler {
    sampler: PeriodicSampler<Profile>,
}

impl SamplingProfiler {
    /// Starts sampling `tracer` at [`DEFAULT_INTERVAL`].
    pub fn start(tracer: Arc<Tracer>) -> Self {
        Self::start_with_interval(tracer, DEFAULT_INTERVAL)
    }

    /// Starts sampling with an explicit interval.
    pub fn start_with_interval(tracer: Arc<Tracer>, interval: Duration) -> Self {
        let sampler = PeriodicSampler::start(interval, Profile::default(), move |profile| {
            profile.record(&tracer.sample_stacks());
        });
        Self { sampler }
    }

    /// Stops the sampler and returns the aggregated profile.
    pub fn stop(self) -> Profile {
        self.sampler.stop()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_folds_stacks() {
        let mut p = Profile::default();
        let s = |frames: &[&str]| StackSample {
            thread: 1,
            thread_name: "t".to_string(),
            frames: frames.iter().map(|f| f.to_string()).collect(),
        };
        p.record(&[s(&["run", "run.execute"]), s(&["run"])]);
        p.record(&[s(&["run", "run.execute"])]);
        p.record(&[]);
        assert_eq!(p.ticks, 3);
        assert_eq!(p.total_samples(), 3);
        assert_eq!(p.folded.get("run;run.execute"), Some(&2));
        assert_eq!(p.folded.get("run"), Some(&1));
        let text = p.folded_text();
        assert!(text.contains("run;run.execute 2\n"));
        assert!(text.contains("run 1\n"));
    }

    #[test]
    fn sampler_observes_a_busy_span() {
        let tracer = Arc::new(Tracer::new());
        let profiler =
            SamplingProfiler::start_with_interval(Arc::clone(&tracer), Duration::from_micros(200));
        {
            let _busy = tracer.span("busy.loop");
            // Spin long enough for several sampling ticks to land.
            let mut x = 1u64;
            let deadline = 5_000_000;
            for i in 0..deadline {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(i);
            }
            assert_ne!(x, 0);
            std::thread::sleep(Duration::from_millis(20));
        }
        let profile = profiler.stop();
        assert!(profile.ticks > 0);
        assert!(
            profile.folded.keys().any(|k| k.contains("busy.loop")),
            "sampler saw the open span: {:?}",
            profile.folded
        );
    }

    #[test]
    fn stop_is_a_wake_up_not_a_poll() {
        // The fastest fifth of 50 sessions: a sampler sleeping through
        // stop() is slow every time, a woken one only on a busy box.
        let tracer = Arc::new(Tracer::new());
        let mut latencies: Vec<Duration> = (0..50)
            .map(|_| {
                let profiler = SamplingProfiler::start(Arc::clone(&tracer));
                // Long enough for the sampler thread to be waiting.
                std::thread::sleep(Duration::from_micros(500));
                let t0 = std::time::Instant::now();
                assert!(profiler.stop().ticks > 0);
                t0.elapsed()
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
    fn sampler_on_disabled_tracer_sees_nothing() {
        let tracer = Arc::new(Tracer::disabled());
        let profiler =
            SamplingProfiler::start_with_interval(Arc::clone(&tracer), Duration::from_micros(200));
        {
            let _busy = tracer.span("invisible");
            std::thread::sleep(Duration::from_millis(5));
        }
        let profile = profiler.stop();
        assert!(profile.is_empty());
        assert!(profile.ticks > 0);
    }
}
