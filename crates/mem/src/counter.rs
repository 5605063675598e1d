//! Per-virtual-NPU memory access counting and bandwidth limiting.
//!
//! "vChunk implements an Access Counter to locally track its memory access
//! counts during the monitored time window ... The NPU controller can set
//! the maximum memory bandwidth for different virtual NPUs according to
//! user's requirements" (§4.2). Without the limit, co-located virtual NPUs
//! contend on HBM (the interference measured in Figure 15's multi-instance
//! UVM bars).

/// Sliding-window byte counter with an optional per-window budget.
///
/// Time is in core cycles (the caller's clock domain).
#[derive(Debug, Clone)]
pub struct AccessCounter {
    window_cycles: u64,
    budget_per_window: Option<u64>,
    window_start: u64,
    used_in_window: u64,
    total_accesses: u64,
    throttle_events: u64,
    throttle_cycles: u64,
}

impl AccessCounter {
    /// Creates a counter with the given monitoring window; `budget` is the
    /// maximum bytes admitted per window (`None` = unlimited).
    ///
    /// # Panics
    ///
    /// Panics if `window_cycles == 0`.
    pub fn new(window_cycles: u64, budget: Option<u64>) -> Self {
        assert!(window_cycles > 0, "window must be positive");
        AccessCounter {
            window_cycles,
            budget_per_window: budget,
            window_start: 0,
            used_in_window: 0,
            total_accesses: 0,
            throttle_events: 0,
            throttle_cycles: 0,
        }
    }

    /// Records an access of `bytes` at time `now` and returns the number of
    /// cycles the access must be delayed to respect the bandwidth budget
    /// (0 when admitted immediately).
    ///
    /// An access larger than a whole window's budget is spread over
    /// multiple windows (delayed to the start of the window in which its
    /// final byte fits).
    pub fn record(&mut self, now: u64, bytes: u64) -> u64 {
        self.total_accesses += 1;
        self.roll_to(now);
        let Some(budget) = self.budget_per_window else {
            self.used_in_window += bytes;
            return 0;
        };
        if self.used_in_window + bytes <= budget {
            self.used_in_window += bytes;
            return 0;
        }
        // Delay into the window where the remaining budget fits.
        let deficit = self.used_in_window + bytes - budget;
        let windows_ahead = deficit.div_ceil(budget.max(1));
        let admit_at = self.window_start + windows_ahead * self.window_cycles;
        let delay = admit_at - now;
        self.window_start = admit_at;
        self.used_in_window = deficit - (windows_ahead - 1) * budget.max(1);
        self.throttle_events += 1;
        self.throttle_cycles += delay;
        delay
    }

    fn roll_to(&mut self, now: u64) {
        if now >= self.window_start + self.window_cycles {
            let advanced = (now - self.window_start) / self.window_cycles;
            self.window_start += advanced * self.window_cycles;
            self.used_in_window = 0;
        }
    }

    /// Total accesses recorded.
    pub fn total_accesses(&self) -> u64 {
        self.total_accesses
    }

    /// Number of accesses that were delayed.
    pub fn throttle_events(&self) -> u64 {
        self.throttle_events
    }

    /// Total delay imposed, in cycles.
    pub fn throttle_cycles(&self) -> u64 {
        self.throttle_cycles
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_never_delays() {
        let mut c = AccessCounter::new(1000, None);
        for t in 0..100u64 {
            assert_eq!(c.record(t * 10, 1 << 20), 0);
        }
        assert_eq!(c.throttle_events(), 0);
    }

    #[test]
    fn within_budget_no_delay() {
        let mut c = AccessCounter::new(1000, Some(4096));
        assert_eq!(c.record(0, 2048), 0);
        assert_eq!(c.record(10, 2048), 0);
    }

    #[test]
    fn over_budget_delays_to_next_window() {
        let mut c = AccessCounter::new(1000, Some(4096));
        assert_eq!(c.record(0, 4096), 0);
        let delay = c.record(100, 2048);
        assert_eq!(delay, 900, "must wait for the next window boundary");
        assert_eq!(c.throttle_events(), 1);
    }

    #[test]
    fn window_roll_resets_usage() {
        let mut c = AccessCounter::new(1000, Some(4096));
        assert_eq!(c.record(0, 4096), 0);
        // Next window: budget refreshed.
        assert_eq!(c.record(1500, 4096), 0);
    }

    #[test]
    fn giant_access_spreads_windows() {
        let mut c = AccessCounter::new(1000, Some(1024));
        // 4 KiB access with 1 KiB/window: needs ~3 extra windows.
        let delay = c.record(0, 4096);
        assert!(delay >= 2000, "got {delay}");
        // Subsequent access must observe the shifted window accounting.
        let d2 = c.record(delay, 1024);
        assert!(d2 > 0 || c.throttle_events() >= 1);
    }

    #[test]
    fn bandwidth_accounting() {
        let mut c = AccessCounter::new(100, None);
        c.record(0, 500);
        c.record(100, 500);
        assert_eq!(c.total_accesses(), 2);
    }

    #[test]
    fn throttled_counter_halves_effective_bandwidth() {
        // Two identical streams, one capped at half rate: the capped one
        // must accumulate delay roughly equal to the stream time.
        let mut unlimited = AccessCounter::new(1000, None);
        let mut capped = AccessCounter::new(1000, Some(2048));
        let mut t_un = 0u64;
        let mut t_cap = 0u64;
        for _ in 0..64 {
            t_un += 100;
            unlimited.record(t_un, 4096);
            t_cap += 100;
            t_cap += capped.record(t_cap, 4096);
        }
        assert!(
            t_cap > t_un * 3 / 2,
            "capped stream must run slower: {t_cap} vs {t_un}"
        );
    }
}
