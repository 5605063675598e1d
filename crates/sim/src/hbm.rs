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

    /// Number of channels.
    pub fn channel_count(&self) -> usize {
        self.channels.len()
    }

    /// Services a `bytes`-long access on `channel` arriving at `now`;
    /// returns the completion time.
    ///
    /// # Panics
    ///
    /// Panics if `channel` is out of range.
    pub fn access(&mut self, channel: u32, bytes: u64, now: u64) -> u64 {
        let ch = &mut self.channels[channel as usize];
        let start = now.max(ch.busy_until);
        self.wait_cycles += start - now;
        if self.last_service.0 != bytes {
            self.last_service = (bytes, bytes.div_ceil(self.bytes_per_cycle));
        }
        ch.busy_until = start + self.last_service.1;
        ch.bytes_served += bytes;
        ch.busy_until + self.latency
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

    /// Bytes served per channel.
    pub fn channel_loads(&self) -> Vec<u64> {
        self.channels.iter().map(|c| c.bytes_served).collect()
    }

    /// Service rate of one channel in bytes per cycle.
    pub fn bytes_per_cycle(&self) -> u64 {
        self.bytes_per_cycle
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
        assert_eq!(h.channel_loads(), vec![150, 7]);
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
