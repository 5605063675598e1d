//! **vNPU** — topology-aware virtualization for inter-core connected NPUs.
//!
//! This crate is the reproduction of the ISCA'25 paper's contribution: it
//! layers virtual NPUs — each with its own *virtual topology*, guest memory
//! space and bandwidth budget — on top of the physical machine modelled by
//! [`vnpu_sim`], using three mechanisms:
//!
//! * **vRouter** ([`routing_table`], [`vrouter`]) — routing tables mapping
//!   virtual core IDs to physical ones, in either the standard per-entry
//!   organization or the compact base-plus-shape form for regular meshes,
//!   and a per-core NoC router that rewrites destinations and can confine
//!   packets to the virtual topology by the direction-override routes
//!   deployed with a virtual NPU's cores (*NoC non-interference*).
//! * **vChunk** ([`vchunk`], [`meta`]) — per-core range translation over
//!   the hypervisor's buddy-allocated HBM blocks, plus access counters and
//!   bandwidth caps; meta-tables live in the SRAM *meta-zone*, which the
//!   hypervisor writes directly (the paper's §5.1 hyper-mode controller
//!   and its PF/VF MMIO isolation are not modelled).
//! * **Topology mapping** ([`hypervisor`]) — virtual-NPU core allocation
//!   by exact match, zig-zag, or minimum topology edit distance
//!   (re-exported from [`vnpu_topo::mapping`]).
//!
//! The comparative systems of §6 are here too: [`mig`] (fixed-partition
//! MIG-style NPU with TDM fallback) and [`uvm`] (unified-virtual-memory
//! NPUs without interconnect virtualization), plus the [`hwcost`] model
//! reproducing the Figure 19 FPGA resource analysis.
//!
//! Above the single chip, [`cluster`] scales the same machinery to a
//! fleet: a [`cluster::Cluster`] owns N hypervisors (heterogeneous chip
//! models allowed) behind one admission queue, with pluggable
//! [`cluster::ChipPlacement`] policies and a mapping cache shared across
//! chips (keys carry each chip's topology fingerprint, so entries never
//! alias). Admission lives on the [`cluster::Cluster`] only — a
//! [`hypervisor::Hypervisor`] places and tears down what it is told to and
//! owns no queue, so a single chip is served by a 1-chip cluster. The
//! queue admits in arrival order with head-of-line blocking.
//! Everything runs on the caller's thread, the mapper included: per-chip
//! work (drain and defrag planning, machine epochs) is a plain loop in
//! chip order. Fleet operations compose on top: [`plan`] makes every
//! migration a costed, atomically committable transaction, and [`drain`] turns
//! whole-chip maintenance evacuation into a budgeted pipeline over those
//! transactions.
//!
//! # Quickstart
//!
//! ```
//! use vnpu::hypervisor::Hypervisor;
//! use vnpu::VnpuRequest;
//! use vnpu_sim::SocConfig;
//!
//! # fn main() -> Result<(), vnpu::VnpuError> {
//! let mut hv = Hypervisor::new(SocConfig::sim());
//! let vm = hv.create_vnpu(VnpuRequest::mesh(2, 2).mem_bytes(64 << 20))?;
//! let vnpu = hv.vnpu(vm)?;
//! assert_eq!(vnpu.core_count(), 4);
//! assert_eq!(vnpu.mapping().edit_distance(), 0); // empty chip: exact match
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod cluster;
pub mod drain;
pub mod hwcost;
pub mod hypervisor;
pub mod meta;
pub mod mig;
pub mod plan;
pub mod routing_table;
pub mod uvm;
pub mod vchunk;
pub mod vnpu;
pub mod vrouter;

mod ids;

pub use admission::{AdmissionQueue, FitHint, FragmentationStats, PendingView, RequestId};
pub use cluster::{
    ChipPlacement, ChipSnapshot, Cluster, ClusterAdmissionEvent, ClusterAdmissionOutcome,
    ClusterVmId, FirstFit, LeastLoaded,
};
pub use drain::{ChipSchedState, DrainMove, DrainStep};
pub use hypervisor::Hypervisor;
pub use ids::{PhysCoreId, VirtCoreId, VmId};
pub use plan::{
    CommitReceipt, Defragmenter, GreedyDefrag, MigrationTarget, PlacementTxn, PlanOp, PlannedOp,
    ReconfigBudget, ReconfigCost,
};
pub use routing_table::RoutingTable;
pub use vnpu::{VirtualNpu, VnpuRequest};
pub use vrouter::VRouterNoc;

use std::fmt;
use vnpu_mem::MemError;
use vnpu_sim::SimError;
use vnpu_topo::TopoError;

/// Errors produced by the virtualization layer.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum VnpuError {
    /// Core allocation failed (insufficient or unsatisfiable topology).
    Mapping(TopoError),
    /// Guest memory allocation or table construction failed.
    Memory(MemError),
    /// The underlying simulation rejected a binding or run.
    Sim(SimError),
    /// Referenced virtual NPU does not exist.
    UnknownVm(VmId),
    /// A cluster operation referenced a chip index outside the fleet.
    UnknownChip {
        /// The offending chip index.
        chip: usize,
        /// Chips in the cluster.
        count: usize,
    },
    /// A virtual core ID outside the virtual NPU was referenced.
    VirtCoreOutOfRange {
        /// The offending virtual core.
        vcore: VirtCoreId,
        /// Cores in the virtual NPU.
        count: u32,
    },
    /// The request asked for zero cores or zero memory.
    EmptyRequest,
    /// A [`plan::PlacementTxn`] no longer matches the live hypervisor
    /// state (the free region, HBM occupancy, VM numbering or the
    /// plan-generation chain changed between plan and commit). The
    /// commit applied nothing.
    StalePlan {
        /// Which validation failed.
        detail: &'static str,
    },
    /// A core was released more times than it was acquired (double
    /// release) — previously masked by a saturating subtraction.
    OverRelease {
        /// The physical core whose user count would go negative.
        core: u32,
    },
    /// Meta-tables exceed the SRAM meta-zone budget.
    MetaZoneOverflow {
        /// Bytes required.
        required: u64,
        /// Bytes available.
        capacity: u64,
    },
    /// A drain-lifecycle rule was violated: placing on (or migrating
    /// onto) a draining chip, or an operation invalid for the chip's
    /// current [`drain::ChipSchedState`].
    Drain {
        /// The chip the operation was about.
        chip: usize,
        /// Which rule was violated.
        detail: &'static str,
    },
    /// The operation touched a physical resource marked faulted by the
    /// hardware-fault layer: the hypervisor refuses to hand out a dead
    /// core until it is repaired.
    Faulted {
        /// The faulted physical core.
        core: u32,
    },
    /// No MIG partition is free.
    NoPartition,
}

impl fmt::Display for VnpuError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VnpuError::Mapping(e) => write!(f, "core mapping failed: {e}"),
            VnpuError::Memory(e) => write!(f, "memory virtualization failed: {e}"),
            VnpuError::Sim(e) => write!(f, "simulation error: {e}"),
            VnpuError::UnknownVm(vm) => write!(f, "unknown virtual NPU {vm}"),
            VnpuError::UnknownChip { chip, count } => {
                write!(f, "chip index {chip} out of range ({count} chips)")
            }
            VnpuError::VirtCoreOutOfRange { vcore, count } => {
                write!(f, "virtual core {vcore} out of range ({count} cores)")
            }
            VnpuError::EmptyRequest => write!(f, "request must ask for at least one core and byte"),
            VnpuError::StalePlan { detail } => {
                write!(f, "placement plan is stale ({detail}); nothing was applied")
            }
            VnpuError::OverRelease { core } => {
                write!(f, "core {core} released more times than it was acquired")
            }
            VnpuError::MetaZoneOverflow { required, capacity } => {
                write!(
                    f,
                    "meta-zone overflow: need {required} bytes, have {capacity}"
                )
            }
            VnpuError::Drain { chip, detail } => {
                write!(f, "drain lifecycle violation on chip {chip}: {detail}")
            }
            VnpuError::Faulted { core } => {
                write!(f, "physical core {core} is marked faulted")
            }
            VnpuError::NoPartition => write!(f, "no free MIG partition"),
        }
    }
}

impl std::error::Error for VnpuError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            VnpuError::Mapping(e) => Some(e),
            VnpuError::Memory(e) => Some(e),
            VnpuError::Sim(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TopoError> for VnpuError {
    fn from(e: TopoError) -> Self {
        VnpuError::Mapping(e)
    }
}

impl From<MemError> for VnpuError {
    fn from(e: MemError) -> Self {
        VnpuError::Memory(e)
    }
}

impl From<SimError> for VnpuError {
    fn from(e: SimError) -> Self {
        VnpuError::Sim(e)
    }
}

/// Convenience alias for results in this crate.
pub type Result<T> = std::result::Result<T, VnpuError>;
