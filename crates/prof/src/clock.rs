//! The workspace's one time seam, defined here because this is the
//! bottom crate: the profiler reads it, and `hadfl::clock` re-exports
//! it (with the seam's documentation) for the protocol loops and the
//! TCP transport.

use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// A monotone time source plus the ability to wait.
///
/// `now()` is the elapsed time since the clock's epoch; deadlines are
/// expressed as `now() + timeout` and compared against later `now()`
/// readings.
pub trait Clock: Send + Sync {
    /// Monotone time since this clock's epoch.
    fn now(&self) -> Duration;

    /// Blocks (or virtually advances) for `d`.
    fn sleep(&self, d: Duration);
}

/// The production clock: epoch is construction time, `sleep` is
/// `std::thread::sleep`.
///
/// # Example
///
/// ```
/// use hadfl_prof::{Clock, WallClock};
/// use std::time::Duration;
///
/// let clock = WallClock::new();
/// let t0 = clock.now();
/// clock.sleep(Duration::from_millis(5));
/// assert!(clock.now() >= t0 + Duration::from_millis(5));
/// ```
#[derive(Debug, Clone)]
pub struct WallClock {
    epoch: Instant,
}

impl WallClock {
    /// A wall clock whose epoch is now.
    pub fn new() -> Self {
        WallClock {
            epoch: Instant::now(),
        }
    }

    /// A shareable wall clock (`Arc<dyn Clock>`), the default for the
    /// TCP transport.
    pub fn shared() -> Arc<dyn Clock> {
        Arc::new(WallClock::new())
    }
}

impl Default for WallClock {
    fn default() -> Self {
        WallClock::new()
    }
}

impl Clock for WallClock {
    fn now(&self) -> Duration {
        self.epoch.elapsed()
    }

    fn sleep(&self, d: Duration) {
        std::thread::sleep(d);
    }
}

/// A hand-advanced virtual clock for deterministic tests.
///
/// `sleep` advances the clock instead of blocking, so code written
/// against [`Clock`] runs through its timeout logic at full speed.
/// Clones share the same underlying time.
///
/// # Example
///
/// ```
/// use hadfl_prof::{Clock, ManualClock};
/// use std::time::Duration;
///
/// let clock = ManualClock::new();
/// assert_eq!(clock.now(), Duration::ZERO);
/// clock.advance(Duration::from_secs(3));
/// clock.sleep(Duration::from_secs(2));
/// assert_eq!(clock.now(), Duration::from_secs(5));
/// ```
#[derive(Debug, Clone, Default)]
pub struct ManualClock {
    now: Arc<Mutex<Duration>>,
}

impl ManualClock {
    /// A virtual clock starting at time zero.
    pub fn new() -> Self {
        ManualClock::default()
    }

    /// Advances the clock by `d`.
    pub fn advance(&self, d: Duration) {
        let mut now = self.now.lock().unwrap_or_else(PoisonError::into_inner);
        *now += d;
    }

    /// Sets the clock to an absolute time since its epoch.
    ///
    /// # Panics
    ///
    /// Panics if `t` would move the clock backwards — the trait
    /// promises monotonicity.
    pub fn set(&self, t: Duration) {
        let mut now = self.now.lock().unwrap_or_else(PoisonError::into_inner);
        assert!(t >= *now, "ManualClock must not move backwards");
        *now = t;
    }
}

impl Clock for ManualClock {
    fn now(&self) -> Duration {
        *self.now.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn sleep(&self, d: Duration) {
        self.advance(d);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wall_clock_is_monotone() {
        let clock = WallClock::new();
        let a = clock.now();
        let b = clock.now();
        assert!(b >= a);
    }

    #[test]
    fn manual_clock_advances_only_by_hand() {
        let clock = ManualClock::new();
        assert_eq!(clock.now(), Duration::ZERO);
        clock.advance(Duration::from_millis(250));
        assert_eq!(clock.now(), Duration::from_millis(250));
        let alias = clock.clone();
        alias.sleep(Duration::from_millis(250));
        assert_eq!(clock.now(), Duration::from_millis(500), "clones share time");
    }

    #[test]
    #[should_panic(expected = "backwards")]
    fn manual_clock_rejects_time_travel() {
        let clock = ManualClock::new();
        clock.advance(Duration::from_secs(2));
        clock.set(Duration::from_secs(1));
    }

    #[test]
    fn clock_objects_are_shareable() {
        let clock: Arc<dyn Clock> = WallClock::shared();
        let t = std::thread::spawn({
            let clock = Arc::clone(&clock);
            move || clock.now()
        })
        .join()
        .unwrap();
        assert!(t <= clock.now());
    }
}
