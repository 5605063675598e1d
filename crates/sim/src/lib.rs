//! Discrete-event simulator for inter-core connected NPUs.
//!
//! This crate is the substrate the paper evaluated on FPGA
//! (Chipyard + FireSim, Gemmini-based tiles) and with the DCRA chiplet
//! simulator — rebuilt as a cycle-approximate, deterministic event-driven
//! model:
//!
//! * [`config`] — the Table-2 SoC configurations (FPGA: 8 tiles / 16×16
//!   systolic arrays; SIM: 36 tiles / 128×128) plus NoC/DMA/HBM parameters.
//! * [`isa`] — the per-core instruction stream: DMA loads/stores, matrix
//!   and vector kernels, NoC send/receive, global-memory synchronization
//!   (the UVM baseline's broadcast primitive), and barriers.
//! * [`compute`] — Gemmini-style systolic-array and vector-unit timing.
//! * [`noc`] — a 2D-mesh NoC with per-link serialization and contention,
//!   2048-byte routing packets, and pluggable routing (plain DOR for
//!   bare-metal; the `vnpu` crate plugs in the vRouter).
//! * [`hbm`] — global-memory channels with per-interface bandwidth.
//! * [`machine`] — the event loop tying cores, NoC and memory together,
//!   with multi-tenant core binding and TDM (time-division multiplexing)
//!   sharing for the MIG baseline.
//! * [`controller`] — NPU-controller cost models: routing-table
//!   configuration and instruction dispatch via IBUS or instruction NoC.
//! * [`stats`] — per-tenant makespans, warm-up times, per-core busy/send/
//!   receive traces, link-contention counters and memory-access traces.
//!
//! # Example: two cores, one send
//!
//! ```
//! use vnpu_sim::config::SocConfig;
//! use vnpu_sim::isa::{Instr, Program};
//! use vnpu_sim::machine::Machine;
//!
//! # fn main() -> Result<(), vnpu_sim::SimError> {
//! let cfg = SocConfig::fpga();
//! let mut m = Machine::new(cfg);
//! let t = m.add_tenant("demo");
//! m.bind(0, t, 0, Program::once(vec![Instr::send(1, 4096, 0)]))?;
//! m.bind(1, t, 1, Program::once(vec![Instr::recv(0, 4096, 0)]))?;
//! let report = m.run()?;
//! assert!(report.makespan() > 0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compute;
pub mod config;
pub mod controller;
pub mod epoch;
pub mod hbm;
pub mod isa;
pub mod machine;
pub mod noc;
pub mod stats;

pub use config::SocConfig;
pub use isa::{Instr, Kernel, Program};
pub use machine::{Machine, TenantId};
pub use stats::Report;

use std::fmt;
use vnpu_mem::MemError;

/// Errors produced by simulator construction and execution.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SimError {
    /// A physical core index was out of range.
    CoreOutOfRange {
        /// The offending core index.
        core: u32,
        /// Number of cores in the machine.
        count: u32,
    },
    /// Two programs bound to the same (core, thread slot).
    SlotOccupied {
        /// Physical core.
        core: u32,
    },
    /// A program's scratchpad footprint exceeds the per-tile capacity.
    ScratchpadOverflow {
        /// Physical core.
        core: u32,
        /// Bytes required.
        required: u64,
        /// Bytes available.
        capacity: u64,
    },
    /// A memory access faulted during DMA.
    MemFault {
        /// Physical core that faulted.
        core: u32,
        /// Underlying memory error.
        err: MemError,
    },
    /// Destination core could not be resolved by the router.
    RouteFault {
        /// Physical core issuing the send.
        core: u32,
        /// Program-level destination that failed to resolve.
        dst: u32,
    },
    /// Simulation stalled: no events pending but threads are still blocked.
    Deadlock {
        /// Human-readable description of blocked threads.
        detail: String,
    },
    /// Simulation exceeded the configured cycle limit.
    CycleLimit {
        /// The limit that was hit.
        limit: u64,
    },
    /// An unknown tenant was referenced.
    UnknownTenant(u32),
    /// The tenant still has threads bound in the current epoch and cannot
    /// be removed until the epoch finishes.
    TenantBusy(u32),
    /// A physical core is marked faulted (an injected hardware failure):
    /// the operation touched dead hardware.
    CoreFaulted {
        /// The faulted physical core.
        core: u32,
    },
    /// A NoC link is marked faulted (an injected hardware failure): a
    /// packet tried to cross it.
    LinkFaulted {
        /// Link source core.
        src: u32,
        /// Link destination core.
        dst: u32,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::CoreOutOfRange { core, count } => {
                write!(f, "core {core} out of range (machine has {count})")
            }
            SimError::SlotOccupied { core } => write!(f, "core {core} already bound"),
            SimError::ScratchpadOverflow {
                core,
                required,
                capacity,
            } => write!(
                f,
                "scratchpad overflow on core {core}: need {required} bytes, have {capacity}"
            ),
            SimError::MemFault { core, err } => write!(f, "memory fault on core {core}: {err}"),
            SimError::RouteFault { core, dst } => {
                write!(f, "core {core} cannot route to program destination {dst}")
            }
            SimError::Deadlock { detail } => write!(f, "deadlock: {detail}"),
            SimError::CycleLimit { limit } => write!(f, "cycle limit {limit} exceeded"),
            SimError::UnknownTenant(t) => write!(f, "unknown tenant {t}"),
            SimError::TenantBusy(t) => {
                write!(f, "tenant {t} still has bound threads in the current epoch")
            }
            SimError::CoreFaulted { core } => {
                write!(f, "physical core {core} is faulted")
            }
            SimError::LinkFaulted { src, dst } => {
                write!(f, "NoC link {src} \u{2192} {dst} is faulted")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// Convenience alias for results in this crate.
pub type Result<T> = std::result::Result<T, SimError>;
