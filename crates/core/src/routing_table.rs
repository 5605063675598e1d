//! Routing tables — the vRouter's core data structure (§4.1.1, Figure 4).
//!
//! "Similar to the page table used in memory virtualization ... the routing
//! table maps virtual NPU core IDs to physical NPU core IDs." Two
//! organizations exist:
//!
//! * [`RoutingTable::standard`] — one entry per virtual core (needed for
//!   irregular virtual topologies);
//! * [`RoutingTable::mesh2d`] — the compact form for regular shapes:
//!   "only records the initial ID of the virtual and physical NPU core,
//!   and the shape of the virtual NPU topology" — one entry regardless of
//!   core count.
//!
//! Tables are keyed by `VMID` and stored in controller SRAM; per-core NoC
//! copies may carry per-destination *direction* overrides (Figure 5's
//! `Direction` column) to keep packets inside the virtual topology.

use crate::ids::{PhysCoreId, VirtCoreId, VmId};
use std::collections::BTreeMap;
use vnpu_sim::controller;
use vnpu_topo::MeshShape;

/// Bits per standard routing-table entry: 16-bit virtual ID + 16-bit
/// physical ID + 8-bit VMID + 4-bit direction + valid bit (padded).
pub const RT_ENTRY_BITS: u64 = 48;

/// Cycles for one routing-table lookup in controller SRAM (charged on the
/// first send to a new destination; consecutive sends to the same core hit
/// the cached translation — §6.2.1).
pub const RT_LOOKUP_CYCLES: u64 = 30;

/// A per-VM routing table in one of the two Figure 4 organizations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RoutingTable {
    /// One `(v_CoreID, p_CoreID)` row per virtual core.
    Standard {
        /// Owning virtual machine.
        vmid: VmId,
        /// Virtual → physical core map.
        entries: BTreeMap<VirtCoreId, PhysCoreId>,
    },
    /// Compact regular-shape form: virtual core `(x, y)` maps to physical
    /// core `p_origin + y·phys_width + x`.
    Mesh2d {
        /// Owning virtual machine.
        vmid: VmId,
        /// Physical core backing virtual core 0 (the window origin).
        p_origin: PhysCoreId,
        /// Shape of the virtual mesh.
        shape: MeshShape,
        /// Row stride of the *physical* mesh.
        phys_width: u32,
    },
}

impl RoutingTable {
    /// Builds a standard table from `(virtual, physical)` pairs.
    pub fn standard(vmid: VmId, pairs: impl IntoIterator<Item = (VirtCoreId, PhysCoreId)>) -> Self {
        RoutingTable::Standard {
            vmid,
            entries: pairs.into_iter().collect(),
        }
    }

    /// Builds a standard table from a dense virtual→physical vector
    /// (index = virtual core ID).
    pub fn from_dense(vmid: VmId, v2p: &[u32]) -> Self {
        RoutingTable::standard(
            vmid,
            v2p.iter()
                .enumerate()
                .map(|(v, &p)| (VirtCoreId(v as u32), PhysCoreId(p))),
        )
    }

    /// Builds a compact mesh table.
    pub fn mesh2d(vmid: VmId, p_origin: PhysCoreId, shape: MeshShape, phys_width: u32) -> Self {
        RoutingTable::Mesh2d {
            vmid,
            p_origin,
            shape,
            phys_width,
        }
    }

    /// Number of virtual cores covered.
    pub fn core_count(&self) -> u32 {
        match self {
            RoutingTable::Standard { entries, .. } => entries.len() as u32,
            RoutingTable::Mesh2d { shape, .. } => shape.width * shape.height,
        }
    }

    /// Number of SRAM entries occupied (the Figure 4 distinction: the mesh
    /// form needs a single entry).
    pub fn entry_count(&self) -> u32 {
        match self {
            RoutingTable::Standard { entries, .. } => entries.len() as u32,
            RoutingTable::Mesh2d { .. } => 1,
        }
    }

    /// Translates a virtual core ID to its physical core.
    pub fn lookup(&self, v: VirtCoreId) -> Option<PhysCoreId> {
        match self {
            RoutingTable::Standard { entries, .. } => entries.get(&v).copied(),
            RoutingTable::Mesh2d {
                p_origin,
                shape,
                phys_width,
                ..
            } => {
                if v.0 >= shape.width * shape.height {
                    return None;
                }
                let vx = v.0 % shape.width;
                let vy = v.0 / shape.width;
                Some(PhysCoreId(p_origin.0 + vy * phys_width + vx))
            }
        }
    }

    /// Cycles for the hyper-mode controller to install this table
    /// (availability queries + entry writes — the Figure 11 cost).
    pub fn config_cycles(&self) -> u64 {
        match self {
            RoutingTable::Standard { .. } => controller::rt_config_cycles(self.core_count()),
            RoutingTable::Mesh2d { .. } => controller::rt_config_cycles_compact(self.core_count()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mesh_table() -> RoutingTable {
        // Figure 4's vNPU1: a 2x2 virtual mesh at physical origin 0 on a
        // 3-wide physical mesh: v0->p0 v1->p1 v2->p3 v3->p4.
        RoutingTable::mesh2d(
            VmId(1),
            PhysCoreId(0),
            MeshShape {
                width: 2,
                height: 2,
            },
            3,
        )
    }

    #[test]
    fn figure4_mesh_lookup() {
        let t = mesh_table();
        assert_eq!(t.lookup(VirtCoreId(0)), Some(PhysCoreId(0)));
        assert_eq!(t.lookup(VirtCoreId(1)), Some(PhysCoreId(1)));
        assert_eq!(t.lookup(VirtCoreId(2)), Some(PhysCoreId(3)));
        assert_eq!(t.lookup(VirtCoreId(3)), Some(PhysCoreId(4)));
        assert_eq!(t.lookup(VirtCoreId(4)), None);
    }

    #[test]
    fn standard_lookup() {
        let t = RoutingTable::from_dense(VmId(2), &[1, 2, 4, 5]);
        assert_eq!(t.lookup(VirtCoreId(0)), Some(PhysCoreId(1)));
        assert_eq!(t.lookup(VirtCoreId(3)), Some(PhysCoreId(5)));
        assert_eq!(t.lookup(VirtCoreId(9)), None);
        assert_eq!(t.core_count(), 4);
    }

    #[test]
    fn compact_form_saves_storage() {
        let mesh = RoutingTable::mesh2d(
            VmId(0),
            PhysCoreId(0),
            MeshShape {
                width: 4,
                height: 4,
            },
            6,
        );
        let standard = RoutingTable::from_dense(VmId(0), &(0..16).collect::<Vec<_>>());
        assert_eq!(mesh.entry_count(), 1);
        assert_eq!(standard.entry_count(), 16);
    }

    #[test]
    fn config_cost_scales_with_cores() {
        let small = RoutingTable::from_dense(VmId(0), &[0]);
        let big = RoutingTable::from_dense(VmId(0), &(0..8).collect::<Vec<_>>());
        assert!(big.config_cycles() > small.config_cycles());
        // And the compact form is cheaper to configure.
        let mesh = RoutingTable::mesh2d(
            VmId(0),
            PhysCoreId(0),
            MeshShape {
                width: 4,
                height: 2,
            },
            6,
        );
        assert!(mesh.config_cycles() < big.config_cycles());
    }

    #[test]
    fn vmid_preserved() {
        assert!(matches!(
            mesh_table(),
            RoutingTable::Mesh2d { vmid: VmId(1), .. }
        ));
    }
}
