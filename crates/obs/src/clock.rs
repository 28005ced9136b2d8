//! The millisecond time source shared by lease bookkeeping, registrars,
//! caches and simulated backends.
//!
//! Code that expires or renews state never reads wall-clock time
//! directly; it takes a [`Clock`], so simulations and tests control
//! expiry deterministically with a [`ManualClock`].

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Milliseconds since an arbitrary epoch.
pub trait Clock: Send + Sync {
    fn now_ms(&self) -> u64;
}

/// Wall-clock time relative to the clock's creation.
pub struct SystemClock {
    start: Instant,
}

impl SystemClock {
    pub fn new() -> Arc<Self> {
        Arc::new(SystemClock {
            start: Instant::now(),
        })
    }
}

impl Clock for SystemClock {
    fn now_ms(&self) -> u64 {
        self.start.elapsed().as_millis() as u64
    }
}

/// A manually advanced clock.
#[derive(Default)]
pub struct ManualClock {
    now: AtomicU64,
}

impl ManualClock {
    pub fn new() -> Arc<Self> {
        Arc::new(ManualClock::default())
    }

    pub fn advance(&self, ms: u64) {
        self.now.fetch_add(ms, Ordering::Relaxed);
    }

    pub fn set(&self, ms: u64) {
        self.now.store(ms, Ordering::Relaxed);
    }
}

impl Clock for ManualClock {
    fn now_ms(&self) -> u64 {
        self.now.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manual_clock() {
        let c = ManualClock::new();
        assert_eq!(c.now_ms(), 0);
        c.advance(100);
        assert_eq!(c.now_ms(), 100);
        c.set(5);
        assert_eq!(c.now_ms(), 5);
    }

    #[test]
    fn system_clock_monotonic() {
        let c = SystemClock::new();
        let a = c.now_ms();
        assert!(c.now_ms() >= a);
    }
}
