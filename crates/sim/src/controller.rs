//! NPU-controller cost models: instruction dispatch (Figure 12) and
//! routing-table configuration (Figure 11).
//!
//! The controller sits at mesh node 0 (top-left corner). Instructions reach
//! cores either over a dedicated instruction bus (IBUS — fixed latency but
//! "its transmission structure lacks scalability in multi-core systems")
//! or over a separate instruction NoC whose latency grows with the hop
//! distance from the controller.

use crate::config::SocConfig;

/// How NPU instructions travel from the controller to the cores.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DispatchPath {
    /// Dedicated instruction bus: fixed latency, poor scalability.
    InstructionBus,
    /// Separate instruction NoC: per-hop latency from the controller node.
    InstructionNoc,
}

/// Fixed IBUS dispatch latency in cycles.
pub const IBUS_LATENCY: u64 = 12;

/// Per-hop latency of the instruction NoC (router + single-flit
/// serialization).
pub const INST_NOC_HOP: u64 = 7;

/// Base overhead of injecting an instruction into the instruction NoC.
pub const INST_NOC_BASE: u64 = 10;

/// Latency for the controller to dispatch one instruction to `core`.
pub fn dispatch_latency(cfg: &SocConfig, path: DispatchPath, core: u32) -> u64 {
    match path {
        DispatchPath::InstructionBus => IBUS_LATENCY,
        DispatchPath::InstructionNoc => {
            // From the corner of a mesh the hop distance is the core's
            // column plus its row; every thread of every epoch asks.
            let hops = core % cfg.mesh_width + core / cfg.mesh_width;
            INST_NOC_BASE + u64::from(hops) * INST_NOC_HOP
        }
    }
}

/// Cycles to check one core's availability during virtual-NPU creation.
pub const AVAILABILITY_QUERY: u64 = 9;

/// Cycles to write one routing-table entry into controller SRAM.
pub const RT_ENTRY_WRITE: u64 = 22;

/// Fixed controller-side setup cost of a routing-table configuration.
pub const RT_CONFIG_BASE: u64 = 35;

/// Total cycles to configure a routing table for `cores` virtual cores —
/// the Figure 11 micro-benchmark ("querying for core availability and
/// configuring the routing table"; a few hundred cycles at 8 cores).
pub fn rt_config_cycles(cores: u32) -> u64 {
    RT_CONFIG_BASE + u64::from(cores) * (AVAILABILITY_QUERY + RT_ENTRY_WRITE)
}

/// Cycles to configure a *compact* (mesh-shaped) routing table, which
/// stores only a base mapping and the shape regardless of core count
/// (Figure 4's "2D Mesh, 1 Entry" organization) — availability still has
/// to be queried per core.
pub fn rt_config_cycles_compact(cores: u32) -> u64 {
    RT_CONFIG_BASE + u64::from(cores) * AVAILABILITY_QUERY + RT_ENTRY_WRITE
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instruction_noc_latency_is_the_mesh_hop_distance_from_the_controller() {
        use vnpu_topo::{NodeId, Topology};
        for cfg in [SocConfig::fpga(), SocConfig::sim(), SocConfig::sim48()] {
            let topo = Topology::mesh2d(cfg.mesh_width, cfg.mesh_height);
            for core in 0..cfg.core_count() {
                let hops = topo.hop_distance(NodeId(0), NodeId(core)).unwrap();
                assert_eq!(
                    dispatch_latency(&cfg, DispatchPath::InstructionNoc, core),
                    INST_NOC_BASE + u64::from(hops) * INST_NOC_HOP
                );
            }
        }
    }

    #[test]
    fn ibus_is_fixed() {
        let cfg = SocConfig::fpga();
        for core in 0..8 {
            assert_eq!(
                dispatch_latency(&cfg, DispatchPath::InstructionBus, core),
                IBUS_LATENCY
            );
        }
    }

    #[test]
    fn inst_noc_grows_with_distance() {
        let cfg = SocConfig::fpga(); // 4x2 mesh
        let near = dispatch_latency(&cfg, DispatchPath::InstructionNoc, 0);
        let far = dispatch_latency(&cfg, DispatchPath::InstructionNoc, 7);
        assert!(far > near);
        // Core 7 is at (3,1): 4 hops from node 0.
        assert_eq!(far, INST_NOC_BASE + 4 * INST_NOC_HOP);
    }

    #[test]
    fn ibus_faster_than_noc_but_both_small() {
        let cfg = SocConfig::fpga();
        for core in 1..8 {
            let noc = dispatch_latency(&cfg, DispatchPath::InstructionNoc, core);
            assert!(noc >= IBUS_LATENCY);
            assert!(noc < 100, "dispatch must stay orders below kernel times");
        }
    }

    #[test]
    fn fig11_rt_config_shape() {
        // Linear growth, a few hundred cycles at 8 cores.
        let c1 = rt_config_cycles(1);
        let c8 = rt_config_cycles(8);
        assert!(c1 < c8);
        assert!((200..400).contains(&c8), "8-core config = {c8}");
        // Perfectly linear increments.
        let inc = rt_config_cycles(2) - rt_config_cycles(1);
        for n in 2..8 {
            assert_eq!(rt_config_cycles(n + 1) - rt_config_cycles(n), inc);
        }
    }

    #[test]
    fn compact_table_cheaper() {
        assert!(rt_config_cycles_compact(8) < rt_config_cycles(8));
    }
}
