//! The periodic background sampler behind the System Monitor: the one
//! place the harness spawns a thread to watch a run, and the one place it
//! has to get rid of that thread again.
//!
//! A sampler sits next to every kernel run, so stopping it is on the
//! benchmark's per-run path. The thread therefore never sleeps: it parks
//! until its next tick is due, and [`PeriodicSampler::stop`] unparks it, so
//! shutdown costs a wake-up and a join however long the interval is.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// A running sampler: `tick` folds one observation into a state `S`, and
/// [`PeriodicSampler::stop`] hands the state back. Dropping a sampler
/// without stopping it (an unwinding caller) still wakes and joins the
/// thread.
pub struct PeriodicSampler<S> {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<S>>,
}

impl<S: Send + 'static> PeriodicSampler<S> {
    /// Ticks once on the calling thread — the t=0 observation exists
    /// before `start` returns, however late a fresh thread gets
    /// scheduled — then once per `interval` on a background thread. Ticks
    /// are due at `start + k * interval`; a tick that was missed (the
    /// sampler was starved of CPU) is skipped, not made up for.
    pub fn start(
        interval: Duration,
        mut state: S,
        mut tick: impl FnMut(&mut S) + Send + 'static,
    ) -> Self {
        tick(&mut state);
        let stop = Arc::new(AtomicBool::new(false));
        let stopped = Arc::clone(&stop);
        let handle = thread::Builder::new()
            .name("gx-sampler".to_string())
            .spawn(move || {
                let mut due = Instant::now() + interval;
                // Relaxed: the flag publishes nothing (the state travels
                // through `join`), and `unpark` happens-before the return
                // of the `park_timeout` it wakes, so a load after a wake-up
                // sees the store that preceded it.
                while !stopped.load(Ordering::Relaxed) {
                    let now = Instant::now();
                    if now < due {
                        // May return early; the loop re-checks both the
                        // flag and the clock.
                        thread::park_timeout(due - now);
                        continue;
                    }
                    tick(&mut state);
                    due = (due + interval).max(now);
                }
                state
            })
            .expect("spawn sampler thread");
        Self {
            stop,
            handle: Some(handle),
        }
    }
}

impl<S> PeriodicSampler<S> {
    /// Wakes the thread, joins it and returns the state its ticks built.
    /// A panic inside `tick` resurfaces here.
    pub fn stop(mut self) -> S {
        self.shutdown()
            .expect("only stop and drop take the handle, and both consume self")
            .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
    }

    fn shutdown(&mut self) -> Option<thread::Result<S>> {
        let handle = self.handle.take()?;
        self.stop.store(true, Ordering::Relaxed);
        handle.thread().unpark();
        Some(handle.join())
    }
}

impl<S> Drop for PeriodicSampler<S> {
    fn drop(&mut self) {
        // Nobody is left to receive the state or a tick's panic.
        let _ = self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    /// A sampler that counts its ticks in its state and holds `probe`, so
    /// `Arc::strong_count(&probe) == 1` means the thread (which owns the
    /// closure) is gone.
    fn counting(interval: Duration, probe: &Arc<AtomicUsize>) -> PeriodicSampler<u64> {
        let held = Arc::clone(probe);
        PeriodicSampler::start(interval, 0u64, move |ticks| {
            *ticks += 1;
            held.fetch_add(1, Ordering::Relaxed);
        })
    }

    #[test]
    fn first_tick_happens_before_start_returns() {
        let probe = Arc::new(AtomicUsize::new(0));
        let sampler = counting(Duration::from_secs(3600), &probe);
        assert_eq!(probe.load(Ordering::Relaxed), 1);
        assert_eq!(sampler.stop(), 1);
    }

    #[test]
    fn stop_does_not_wait_for_the_interval() {
        let probe = Arc::new(AtomicUsize::new(0));
        let sampler = counting(Duration::from_secs(3600), &probe);
        let t0 = Instant::now();
        sampler.stop();
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "stop took {:?} with a one-hour interval",
            t0.elapsed()
        );
        assert_eq!(Arc::strong_count(&probe), 1, "thread joined by stop()");
    }

    #[test]
    fn ticks_once_per_interval() {
        let interval = Duration::from_millis(10);
        let probe = Arc::new(AtomicUsize::new(0));
        let sampler = counting(interval, &probe);
        let t0 = Instant::now();
        thread::sleep(Duration::from_millis(60));
        let window = t0.elapsed();
        let ticks = sampler.stop();
        let whole_intervals = (window.as_nanos() / interval.as_nanos()) as u64;
        // One at t=0 plus one per whole interval, minus one for a tick the
        // scheduler delivered late enough to be skipped.
        assert!(
            ticks >= whole_intervals && ticks <= whole_intervals + 2,
            "{ticks} ticks over {window:?}"
        );
    }

    #[test]
    fn drop_on_the_panic_path_joins_the_thread() {
        let probe = Arc::new(AtomicUsize::new(0));
        let unwound = std::panic::catch_unwind(|| {
            let _sampler = counting(Duration::from_secs(3600), &probe);
            panic!("the monitored run panicked");
        });
        assert!(unwound.is_err());
        assert_eq!(Arc::strong_count(&probe), 1, "thread joined by drop");
    }

    #[test]
    fn a_panicking_tick_resurfaces_in_stop() {
        let (failing, failed) = std::sync::mpsc::channel();
        let sampler = PeriodicSampler::start(Duration::from_millis(1), 0u32, move |ticks| {
            *ticks += 1;
            if *ticks == 2 {
                failing.send(()).expect("test is waiting");
                panic!("second tick fails");
            }
        });
        failed.recv().expect("second tick ran");
        let stopped = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| sampler.stop()));
        assert!(stopped.is_err());
    }
}
