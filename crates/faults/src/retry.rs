//! Retry policy: bounded attempts, exponential backoff, seed-derived
//! jitter — in **virtual** milliseconds.
//!
//! The backoff never sleeps and never reads real time. A delay is a plain
//! `u64` of milliseconds that the harness records with the retry it
//! precedes, so the retry schedule is byte-reproducible (this crate is
//! inside the lint's determinism scope: no `Instant`, no OS entropy) and a
//! faulty benchmark run costs no extra wall time waiting.

/// Jitter hash (SplitMix64 finalizer, same as in `plan.rs`).
fn jitter_hash(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Bounded-attempt retry with exponential, seed-jittered virtual backoff.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts allowed, including the first (1 = no retries).
    pub max_attempts: u32,
    /// Backoff charged after the first failure (virtual ms); doubles per
    /// subsequent failure.
    pub base_backoff_ms: u64,
    /// Backoff ceiling (virtual ms).
    pub max_backoff_ms: u64,
    /// Seed for the deterministic jitter.
    pub jitter_seed: u64,
}

impl RetryPolicy {
    /// No retries at all (the harness default).
    pub fn none() -> Self {
        Self {
            max_attempts: 1,
            base_backoff_ms: 0,
            max_backoff_ms: 0,
            jitter_seed: 0,
        }
    }

    /// `max_attempts` total attempts, backoff starting at `base_ms` and
    /// capped at `64 × base_ms`, jittered from `seed`.
    pub fn new(max_attempts: u32, base_ms: u64, seed: u64) -> Self {
        Self {
            max_attempts: max_attempts.max(1),
            base_backoff_ms: base_ms,
            max_backoff_ms: base_ms.saturating_mul(64),
            jitter_seed: seed,
        }
    }

    /// True when attempt number `attempt` (0-based) may still run.
    pub fn allows(&self, attempt: u32) -> bool {
        attempt < self.max_attempts
    }

    /// Virtual backoff before retrying after failure number
    /// `failed_attempt` (0-based): exponential with "equal jitter" — the
    /// delay lands in `[half, full]` of the exponential step, where the
    /// jitter is a pure function of `(jitter_seed, failed_attempt)`.
    pub fn backoff_ms(&self, failed_attempt: u32) -> u64 {
        if self.base_backoff_ms == 0 {
            return 0;
        }
        let exp = self
            .base_backoff_ms
            .saturating_mul(1u64 << failed_attempt.min(32))
            .min(self.max_backoff_ms.max(self.base_backoff_ms));
        let half = exp / 2;
        half + jitter_hash(self.jitter_seed ^ (failed_attempt as u64)) % (exp - half + 1)
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self::none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_allows_exactly_one_attempt() {
        let p = RetryPolicy::none();
        assert!(p.allows(0));
        assert!(!p.allows(1));
        assert_eq!(p.backoff_ms(0), 0);
    }

    #[test]
    fn attempts_are_bounded() {
        let p = RetryPolicy::new(3, 10, 42);
        assert!(p.allows(0));
        assert!(p.allows(2));
        assert!(!p.allows(3));
    }

    #[test]
    fn backoff_grows_and_stays_in_jitter_window() {
        let p = RetryPolicy::new(8, 100, 7);
        for a in 0..8u32 {
            let exp = (100u64 << a).min(p.max_backoff_ms);
            let b = p.backoff_ms(a);
            assert!(b >= exp / 2 && b <= exp, "attempt {a}: {b} not in window");
        }
        // Caps at max_backoff_ms even for huge attempt numbers.
        assert!(p.backoff_ms(40) <= p.max_backoff_ms);
    }

    #[test]
    fn backoff_is_deterministic_per_seed() {
        let a = RetryPolicy::new(5, 50, 1);
        let b = RetryPolicy::new(5, 50, 1);
        let c = RetryPolicy::new(5, 50, 2);
        let seq = |p: &RetryPolicy| (0..5).map(|i| p.backoff_ms(i)).collect::<Vec<_>>();
        assert_eq!(seq(&a), seq(&b));
        assert_ne!(seq(&a), seq(&c));
    }
}
