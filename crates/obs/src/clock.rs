//! The sanctioned wall-clock seam.
//!
//! **Policy.** The deterministic crate set (`core`, `sim`, `scenario`,
//! `dynamics`, `selectors`, `obs`) must not read wall-clock time —
//! `xtask lint` rule D2 rejects `std::time` there. This file is the one
//! exemption (`lint.toml` exempts `crates/obs/src/clock.rs`): code that
//! genuinely needs timing — benchmarks, the `bench` crate's harnesses —
//! takes a [`Clock`] and is handed a [`WallClock`] at the edge, while
//! library code under test gets a [`ManualClock`]. Durations measured
//! here must never flow into traces or reports; those are counts-only by
//! construction.

use std::cell::Cell;
use std::time::Instant;

/// A monotonic time source, in nanoseconds from an arbitrary origin.
pub trait Clock {
    /// Nanoseconds elapsed since the clock's origin.
    fn now_nanos(&self) -> u64;
}

/// The real wall clock (monotonic, origin = construction time).
///
/// The only sanctioned `std::time` user inside the deterministic crate
/// set; see the module docs for the policy.
#[derive(Debug)]
pub struct WallClock {
    origin: Instant,
}

impl WallClock {
    /// A wall clock whose origin is now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
        }
    }
}

impl Default for WallClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for WallClock {
    fn now_nanos(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }
}

/// A deterministic, manually-advanced clock for tests.
#[derive(Debug, Default)]
pub struct ManualClock {
    nanos: Cell<u64>,
}

impl ManualClock {
    /// A manual clock at origin 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Advances the clock by `nanos`.
    pub fn advance(&self, nanos: u64) {
        self.nanos.set(self.nanos.get() + nanos);
    }
}

impl Clock for ManualClock {
    fn now_nanos(&self) -> u64 {
        self.nanos.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manual_clock_is_deterministic() {
        let c = ManualClock::new();
        assert_eq!(c.now_nanos(), 0);
        c.advance(5);
        c.advance(7);
        assert_eq!(c.now_nanos(), 12);
    }

    #[test]
    fn wall_clock_is_monotonic() {
        let c = WallClock::new();
        let a = c.now_nanos();
        let b = c.now_nanos();
        assert!(b >= a);
    }
}
