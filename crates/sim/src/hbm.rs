//! Global-memory (HBM/DRAM) bandwidth model.
//!
//! The chip exposes `mem_interfaces` channels on the mesh edge; each core's
//! DMA engine is statically attached to one channel
//! ([`crate::config::SocConfig::interface_of`]). A channel is a
//! `busy_until` resource with `total bandwidth / interfaces` bytes per
//! cycle of service rate — so co-located tenants streaming weights contend
//! per channel, which is exactly the memory interference the UVM baseline
//! suffers in the multi-instance experiment (Figure 15) and the reason
//! warm-up time scales with the number of interfaces a virtual NPU owns
//! (Figure 16, §6.3.4).

use crate::config::SocConfig;

/// One HBM channel's state.
#[derive(Debug, Clone, Copy, Default)]
struct Channel {
    busy_until: u64,
    bytes_served: u64,
}

/// The set of HBM channels.
#[derive(Debug, Clone)]
pub struct Hbm {
    channels: Vec<Channel>,
    bytes_per_cycle: u64,
    latency: u64,
    wait_cycles: u64,
    /// `(bytes, service cycles)` of the last DMA burst: a stream's bursts
    /// are all one size, so the division is paid per stream, not per
    /// burst.
    last_service: (u64, u64),
}

impl Hbm {
    /// Builds the HBM model from the SoC configuration.
    pub fn new(cfg: &SocConfig) -> Self {
        Hbm {
            channels: vec![Channel::default(); cfg.mem_interfaces as usize],
            bytes_per_cycle: cfg.bandwidth_per_interface(),
            latency: cfg.mem_latency,
            wait_cycles: 0,
            last_service: (0, 0),
        }
    }

    /// Services a `bytes`-long access on `channel` arriving at `now`;
    /// returns the completion time.
    ///
    /// # Panics
    ///
    /// Panics if `channel` is out of range.
    pub fn access(&mut self, channel: u32, bytes: u64, now: u64) -> u64 {
        let service = self.service(bytes);
        let ch = &mut self.channels[channel as usize];
        let start = now.max(ch.busy_until);
        self.wait_cycles += start - now;
        ch.busy_until = start + service;
        ch.bytes_served += bytes;
        ch.busy_until + self.latency
    }

    /// Service cycles of a `bytes`-long DMA burst.
    fn service(&mut self, bytes: u64) -> u64 {
        if self.last_service.0 != bytes {
            self.last_service = (bytes, bytes.div_ceil(self.bytes_per_cycle));
        }
        self.last_service.1
    }

    /// The closed form of `k` [`Hbm::access`] calls of `bytes` each on
    /// `channel`, arriving at `first`, `first + stride`, … : the same
    /// channel state and wait total, and the last access's completion
    /// (the latest, since a channel's completions never go backwards).
    ///
    /// With `s` the service time, `d` the stride and `w0` the first
    /// access's wait behind `busy_until`, each access waits `s − d`
    /// longer than the one before when `s ≥ d`, and `d − s` less, down to
    /// zero, otherwise — so the waits are an arithmetic series.
    ///
    /// Returns `None`, leaving the channel untouched, when `k` is zero or
    /// a time or total overflows `u64`.
    ///
    /// # Panics
    ///
    /// Panics if `channel` is out of range.
    #[inline]
    pub fn access_run(
        &mut self,
        channel: u32,
        bytes: u64,
        first: u64,
        stride: u64,
        k: u64,
    ) -> Option<u64> {
        let service = self.service(bytes);
        let ch = &mut self.channels[channel as usize];
        let last = k.checked_sub(1)?;
        let w0 = ch.busy_until.saturating_sub(first);
        // Every product below is a part of a sum that must fit, so the
        // checks fail only when a true total does not.
        let (waits, last_wait) = if last == 0 {
            // The common run under page translation — the second half of
            // a page — is one access: no series to sum.
            (w0, w0)
        } else if service >= stride {
            // w0, w0 + grow, …, w0 + (k − 1)·grow.
            let grow = service - stride;
            let series = match grow {
                0 => 0,
                _ => grow.checked_mul(triangle(k)?)?,
            };
            let last_wait = w0.checked_add(last.checked_mul(grow)?)?;
            (k.checked_mul(w0)?.checked_add(series)?, last_wait)
        } else {
            // w0, w0 − shrink, … down to `w`, the last of the `m` that
            // are positive: read backwards, `w`, …, `w + (m − 1)·shrink`.
            let shrink = stride - service;
            let m = k.min(w0.div_ceil(shrink));
            let w = w0 - m.saturating_sub(1) * shrink;
            let series = shrink.checked_mul(triangle(m)?)?;
            let last_wait = last
                .checked_mul(shrink)
                .map_or(0, |fall| w0.saturating_sub(fall));
            (m.checked_mul(w)?.checked_add(series)?, last_wait)
        };
        let busy_until = last
            .checked_mul(stride)
            .and_then(|span| first.checked_add(span))
            .and_then(|start| start.checked_add(last_wait))
            .and_then(|start| start.checked_add(service))?;
        let completion = busy_until.checked_add(self.latency)?;
        let wait_cycles = self.wait_cycles.checked_add(waits)?;
        let bytes_served = k
            .checked_mul(bytes)
            .and_then(|run| ch.bytes_served.checked_add(run))?;
        ch.busy_until = busy_until;
        ch.bytes_served = bytes_served;
        self.wait_cycles = wait_cycles;
        Some(completion)
    }

    /// Repeats `times` more a period of accesses just served on
    /// `channel` that moved its clock by `span` (the next period starts
    /// `span` after it did), waited `waits` cycles in total and moved
    /// `bytes`: the closed form of a period whose timing is a function of
    /// where it starts alone. Returns `times · span`, or `None`, leaving
    /// the channel untouched, when a total overflows `u64`.
    ///
    /// # Panics
    ///
    /// Panics if `channel` is out of range.
    pub fn repeat(
        &mut self,
        channel: u32,
        times: u64,
        span: u64,
        waits: u64,
        bytes: u64,
    ) -> Option<u64> {
        let ch = &mut self.channels[channel as usize];
        let shift = times.checked_mul(span)?;
        let busy_until = ch.busy_until.checked_add(shift)?;
        let bytes_served = times
            .checked_mul(bytes)
            .and_then(|more| ch.bytes_served.checked_add(more))?;
        let wait_cycles = times
            .checked_mul(waits)
            .and_then(|more| self.wait_cycles.checked_add(more))?;
        ch.busy_until = busy_until;
        ch.bytes_served = bytes_served;
        self.wait_cycles = wait_cycles;
        Some(shift)
    }

    /// Services a UVM (load/store path) access: unlike a DMA burst, the
    /// transfer moves at cache-line granularity and the channel is held
    /// for the full latency-bound duration — `bytes/bw +
    /// ⌈lines/mlp⌉·latency`. This is what makes memory-synchronized
    /// broadcast readers serialize (Figure 13's UVM bars).
    pub fn access_uvm(
        &mut self,
        channel: u32,
        bytes: u64,
        now: u64,
        line_bytes: u64,
        mlp: u64,
    ) -> u64 {
        let ch = &mut self.channels[channel as usize];
        let start = now.max(ch.busy_until);
        self.wait_cycles += start - now;
        let lines = bytes.div_ceil(line_bytes.max(1));
        let occupancy =
            bytes.div_ceil(self.bytes_per_cycle) + lines.div_ceil(mlp.max(1)) * self.latency;
        ch.busy_until = start + occupancy;
        ch.bytes_served += bytes;
        ch.busy_until
    }

    /// Rewinds every channel to idle for a fresh machine epoch: the
    /// `busy_until` clocks and per-epoch counters are zeroed, the channel
    /// structures are reused.
    pub fn reset_epoch(&mut self) {
        for ch in &mut self.channels {
            *ch = Channel::default();
        }
        self.wait_cycles = 0;
    }

    /// Total cycles requests waited behind busy channels.
    pub fn wait_cycles(&self) -> u64 {
        self.wait_cycles
    }
}

/// `0 + 1 + … + (n − 1)`, or `None` if it overflows `u64`.
fn triangle(n: u64) -> Option<u64> {
    let below = n.saturating_sub(1);
    if n % 2 == 0 {
        (n / 2).checked_mul(below)
    } else {
        n.checked_mul(below / 2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hbm() -> Hbm {
        Hbm::new(&SocConfig::fpga()) // 2 interfaces, 8 B/cyc each, 40 lat
    }

    #[test]
    fn access_time_includes_service_and_latency() {
        let mut h = hbm();
        // 2048 B at 8 B/cyc = 256 service + 40 latency.
        assert_eq!(h.access(0, 2048, 0), 296);
    }

    #[test]
    fn same_channel_serializes() {
        let mut h = hbm();
        let a = h.access(0, 2048, 0);
        let b = h.access(0, 2048, 0);
        assert_eq!(b, a + 256);
        assert_eq!(h.wait_cycles(), 256);
    }

    #[test]
    fn different_channels_parallel() {
        let mut h = hbm();
        let a = h.access(0, 2048, 0);
        let b = h.access(1, 2048, 0);
        assert_eq!(a, b);
        assert_eq!(h.wait_cycles(), 0);
    }

    #[test]
    fn burst_sizes_may_alternate() {
        // The remembered service time belongs to one burst size only.
        let mut h = hbm();
        let mut expect = 0;
        for bytes in [2048u64, 2048, 64, 2048, 7, 64, 64] {
            expect += bytes.div_ceil(8);
            assert_eq!(h.access(0, bytes, 0), expect + 40);
        }
    }

    #[test]
    fn loads_tracked() {
        let mut h = hbm();
        h.access(0, 100, 0);
        h.access(0, 50, 0);
        h.access(1, 7, 0);
        let loads: Vec<u64> = h.channels.iter().map(|c| c.bytes_served).collect();
        assert_eq!(loads, vec![150, 7]);
    }

    #[test]
    fn access_run_matches_repeated_access() {
        // 8 B/cyc: 2048 B is 256 cycles of service, 7 B is one. Strides
        // below, at and above the service time; the channel idle, busy
        // until before the first arrival, and busy past it by a little
        // and by a lot.
        let mut runs = 0;
        for (bytes, service) in [(2048u64, 256u64), (7, 1), (64, 8)] {
            let strides = [0, 1, service - 1, service, service + 1, 3 * service, 1000];
            for stride in strides {
                for pre_busy in [None, Some(0), Some(900), Some(5_000)] {
                    for k in (1..=64).chain([255, 256, 257, 1000, 4096]) {
                        let (mut run, mut each) = (hbm(), hbm());
                        for h in [&mut run, &mut each] {
                            if let Some(at) = pre_busy {
                                h.access(0, 4096, at);
                            }
                            h.access(1, 100, 0);
                        }
                        let first = 1_000;
                        let last = (0..k)
                            .map(|i| each.access(0, bytes, first + i * stride))
                            .last();
                        assert_eq!(
                            run.access_run(0, bytes, first, stride, k),
                            last,
                            "{bytes} B, stride {stride}, {pre_busy:?}, k {k}"
                        );
                        assert_eq!(format!("{run:?}"), format!("{each:?}"));
                        runs += 1;
                    }
                }
            }
        }
        assert_eq!(runs, 3 * 7 * 4 * 69);
    }

    #[test]
    fn access_run_overflow_is_none_and_leaves_the_channel() {
        let mut h = hbm();
        h.access(0, 2048, 0);
        let before = format!("{h:?}");
        assert_eq!(h.access_run(0, 2048, 0, 4, 0), None, "no accesses");
        for (first, stride, k) in [
            (0, 4, u64::MAX),
            (u64::MAX - 100, 0, 1),
            (0, u64::MAX, 2),
            (0, 0, 1 << 60),
        ] {
            assert_eq!(h.access_run(0, 2048, first, stride, k), None);
            assert_eq!(format!("{h:?}"), before);
        }
        // A run of 2^40 accesses that fits still answers.
        assert_eq!(
            h.access_run(0, 8, 0, 1, 1 << 40),
            Some(256 + (1 << 40) + 40)
        );
    }

    #[test]
    fn repeat_is_the_period_served_again_later() {
        // A period: a 2 KiB access on an idle channel at `x`, then three
        // queued behind it. Served again later on an idle channel, it
        // waits and moves exactly what it did the first time.
        let period = |h: &mut Hbm, x: u64| {
            h.access(0, 2048, x);
            h.access_run(0, 2048, x + 5, 5, 3).unwrap()
        };
        let (mut once, mut each) = (hbm(), hbm());
        let span = period(&mut once, 100) + 200 - 100;
        for i in 0..=5 {
            period(&mut each, 100 + i * span);
        }
        let waits = once.wait_cycles();
        assert!(waits > 0);
        assert_eq!(once.repeat(0, 5, span, waits, 4 * 2048), Some(5 * span));
        assert_eq!(format!("{once:?}"), format!("{each:?}"));
        let before = format!("{once:?}");
        assert_eq!(once.repeat(0, u64::MAX, 2, 0, 0), None);
        assert_eq!(once.repeat(0, 2, 1, u64::MAX, 0), None);
        assert_eq!(format!("{once:?}"), before, "an overflow moves nothing");
    }

    #[test]
    fn late_arrival_no_wait() {
        let mut h = hbm();
        h.access(0, 2048, 0); // busy until 256
        let done = h.access(0, 8, 1000);
        assert_eq!(done, 1041);
        assert_eq!(h.wait_cycles(), 0);
    }
}
