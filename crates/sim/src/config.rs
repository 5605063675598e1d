//! SoC configurations — Table 2 of the paper, plus the NoC/DMA parameters
//! calibrated against the paper's micro-benchmarks (Table 3, Figure 12).

/// Full parameter set of a simulated inter-core connected NPU.
#[derive(Debug, Clone, PartialEq)]
pub struct SocConfig {
    /// Mesh width (columns of NPU tiles).
    pub mesh_width: u32,
    /// Mesh height (rows of NPU tiles).
    pub mesh_height: u32,
    /// Systolic-array dimension per tile (16 on the FPGA config, 128 in
    /// the large simulation config).
    pub systolic_dim: u32,
    /// Vector-unit lanes per tile.
    pub vector_lanes: u32,
    /// Scratchpad bytes per tile (512 KiB FPGA / 30 MiB SIM).
    pub scratchpad_bytes: u64,
    /// Total DRAM/HBM bandwidth in bytes per core-clock cycle
    /// (16 GB/s at 1 GHz = 16 B/cyc; 360 GB/s at 500 MHz = 720 B/cyc).
    pub mem_bandwidth_bytes_per_cycle: u64,
    /// DRAM/HBM access latency in cycles (fixed part per chunk).
    pub mem_latency: u64,
    /// Number of memory interfaces (HBM channels) on the mesh west edge.
    pub mem_interfaces: u32,
    /// NoC link width: bytes serialized per cycle per link.
    pub link_bytes_per_cycle: u64,
    /// Per-hop router pipeline latency in cycles.
    pub router_latency: u64,
    /// Routing-packet granularity in bytes (the unit one send instruction
    /// moves; 2048 B in the paper's Table 3 micro-test).
    pub packet_bytes: u64,
    /// Fixed cycles to set up a send instruction (engine programming).
    pub send_setup: u64,
    /// Per-packet handshake overhead in cycles (NoC handshake protocol).
    pub packet_overhead: u64,
    /// DMA chunk request size in bytes.
    pub dma_burst_bytes: u64,
    /// Cycles between successive DMA chunk issues ("every few cycles").
    pub dma_issue_interval: u64,
    /// UVM global-memory synchronization granularity: unlike DMA bursts,
    /// load/store traffic through the shared cache moves at cache-line
    /// granularity (§2.1's "classical memory hierarchy").
    pub uvm_line_bytes: u64,
    /// Outstanding UVM line requests (memory-level parallelism of the
    /// load/store path).
    pub uvm_mlp: u64,
    /// Context-switch penalty when a TDM core changes the active virtual
    /// core (scratchpad working-set swap amortization).
    pub tdm_switch_penalty: u64,
    /// Maximum unconsumed bytes in flight per NoC flow before the sender
    /// blocks (models finite receive buffering in the scratchpad).
    pub flow_credit_bytes: u64,
    /// Core clock frequency in Hz (for converting cycles to fps).
    pub freq_hz: u64,
    /// Cycle budget before [`crate::SimError::CycleLimit`] aborts a run.
    pub max_cycles: u64,
}

impl SocConfig {
    /// The paper's FPGA configuration (Table 2 left column): 8 tiles,
    /// 16×16 systolic arrays, 512 KiB scratchpads, 16 GB/s DRAM at 1 GHz.
    pub fn fpga() -> Self {
        SocConfig {
            mesh_width: 4,
            mesh_height: 2,
            systolic_dim: 16,
            vector_lanes: 16,
            scratchpad_bytes: 512 * 1024,
            mem_bandwidth_bytes_per_cycle: 16,
            mem_latency: 40,
            mem_interfaces: 2,
            link_bytes_per_cycle: 16,
            router_latency: 3,
            packet_bytes: 2048,
            send_setup: 27,
            packet_overhead: 13,
            dma_burst_bytes: 2048,
            dma_issue_interval: 4,
            uvm_line_bytes: 64,
            uvm_mlp: 1,
            tdm_switch_penalty: 500,
            flow_credit_bytes: 64 * 1024,
            freq_hz: 1_000_000_000,
            max_cycles: 2_000_000_000,
        }
    }

    /// The paper's large simulation configuration (Table 2 right column):
    /// 36 tiles (6×6), 128×128 systolic arrays, 30 MiB scratchpads,
    /// 360 GB/s HBM at 500 MHz.
    pub fn sim() -> Self {
        SocConfig {
            mesh_width: 6,
            mesh_height: 6,
            systolic_dim: 128,
            vector_lanes: 128,
            scratchpad_bytes: 30 * 1024 * 1024,
            mem_bandwidth_bytes_per_cycle: 720,
            mem_latency: 60,
            mem_interfaces: 6,
            link_bytes_per_cycle: 64,
            router_latency: 3,
            packet_bytes: 2048,
            send_setup: 27,
            packet_overhead: 13,
            dma_burst_bytes: 2048,
            dma_issue_interval: 4,
            uvm_line_bytes: 64,
            uvm_mlp: 6,
            tdm_switch_penalty: 2_000,
            flow_credit_bytes: 1024 * 1024,
            freq_hz: 500_000_000,
            max_cycles: 20_000_000_000,
        }
    }

    /// The 48-core variant used in Figure 16's right half (8×6 mesh,
    /// 1440 MB total SRAM).
    pub fn sim48() -> Self {
        SocConfig {
            mesh_width: 8,
            mesh_height: 6,
            mem_interfaces: 6,
            ..SocConfig::sim()
        }
    }

    /// Total number of NPU tiles.
    pub fn core_count(&self) -> u32 {
        self.mesh_width * self.mesh_height
    }

    /// The tile mesh's shape (row-major core IDs).
    pub fn mesh_shape(&self) -> vnpu_topo::MeshShape {
        vnpu_topo::MeshShape {
            width: self.mesh_width,
            height: self.mesh_height,
        }
    }

    /// Bandwidth of one memory interface in bytes/cycle.
    pub fn bandwidth_per_interface(&self) -> u64 {
        (self.mem_bandwidth_bytes_per_cycle / u64::from(self.mem_interfaces)).max(1)
    }

    /// The physical core serving as the memory interface for `core`
    /// (nearest west-edge row port, modulo the interface count).
    pub fn interface_of(&self, core: u32) -> u32 {
        let row = core / self.mesh_width;
        row % self.mem_interfaces
    }
}

impl Default for SocConfig {
    fn default() -> Self {
        SocConfig::fpga()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fpga_matches_table2() {
        let c = SocConfig::fpga();
        assert_eq!(c.core_count(), 8);
        assert_eq!(c.systolic_dim, 16);
        // Table 2: 4 MB of scratchpad, and 2·16² ops a cycle at 1 GHz,
        // 0.5 TOPS per tile and 4 TOPS in total.
        assert_eq!(c.scratchpad_bytes, 512 * 1024);
        assert_eq!(c.freq_hz, 1_000_000_000);
    }

    #[test]
    fn sim_matches_table2() {
        let c = SocConfig::sim();
        assert_eq!(c.core_count(), 36);
        assert_eq!(c.systolic_dim, 128);
        // Table 2: 1080 MB of scratchpad, and 2·128² ops a cycle at
        // 500 MHz, 16 TOPS per tile and 576 TOPS in total.
        assert_eq!(c.scratchpad_bytes, 30 * 1024 * 1024);
        assert_eq!(c.freq_hz, 500_000_000);
    }

    #[test]
    fn sim48_has_48_cores() {
        let c = SocConfig::sim48();
        assert_eq!(c.core_count(), 48);
        assert_eq!(c.scratchpad_bytes, 30 * 1024 * 1024); // 1440 MB total
    }

    #[test]
    fn interface_assignment_covers_rows() {
        let c = SocConfig::sim();
        for core in 0..c.core_count() {
            assert!(c.interface_of(core) < c.mem_interfaces);
        }
        // Cores on the same row share an interface.
        assert_eq!(c.interface_of(0), c.interface_of(5));
        assert_ne!(c.interface_of(0), c.interface_of(6));
    }

    #[test]
    fn per_interface_bandwidth() {
        let c = SocConfig::sim();
        assert_eq!(c.bandwidth_per_interface(), 120);
    }
}
