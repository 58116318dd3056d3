//! The traced run's clock: as cheap a timestamp as the machine has.
//!
//! A span needs two timestamps, and the timer-dominated workload has
//! 1.4 million spans in half a second. `Instant::now()` costs ≈ 33 ns on
//! the 2-core box, the time-stamp counter ≈ 16 ns; with `Instant` the
//! traced rep of `wan_loss_failover` ran 30–45 % longer than the untraced
//! one, and a third of `netsim`'s measured self time was the clock.
//! Ticks are scaled to nanoseconds afterwards, against `Instant` over the
//! whole rep.

/// A raw timestamp: TSC ticks on x86-64, nanoseconds elsewhere.
#[cfg(target_arch = "x86_64")]
#[inline]
pub fn ticks() -> u64 {
    // SAFETY: RDTSC has no preconditions: it reads a counter every
    // x86-64 processor has and touches no memory.
    unsafe { core::arch::x86_64::_rdtsc() }
}

/// A raw timestamp: TSC ticks on x86-64, nanoseconds elsewhere.
#[cfg(not(target_arch = "x86_64"))]
#[inline]
pub fn ticks() -> u64 {
    use std::sync::OnceLock;
    use std::time::Instant;
    static BASE: OnceLock<Instant> = OnceLock::new();
    BASE.get_or_init(Instant::now).elapsed().as_nanos() as u64
}
