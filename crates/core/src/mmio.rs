//! Hyper-mode MMIO register model (§5.1).
//!
//! "vNPU first introduces a new feature: hyper mode for the NPU
//! controller. Only the hyper-mode NPU controller is permitted to modify
//! virtualization-related tables ... only the hypervisor is authorized to
//! map MMIO space of hyper-mode NPU controller (e.g., PF); whereas guest
//! VMs are restricted to mapping the MMIO spaces only associated with
//! virtual NPUs (e.g., VF)."
//!
//! This module models that register file and its access-control rules:
//! the physical function (PF) holds the meta-table base/bound registers
//! and per-core hyper registers; each virtual function (VF) exposes only
//! its own doorbell/status window. Guest writes to PF space — or to
//! another tenant's VF — are rejected, as this module's own tests check.

use crate::ids::VmId;
use crate::{Result, VnpuError};
use std::collections::BTreeMap;

/// Who is issuing an MMIO access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Requester {
    /// The hypervisor through the hyper-mode controller mapping.
    Hypervisor,
    /// A guest VM through its VF mapping.
    Guest(VmId),
}

/// PF register offsets (one page, hypervisor-only).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u64)]
#[non_exhaustive]
pub enum PfReg {
    /// Base address of the routing table in controller SRAM.
    RtBase = 0x00,
    /// Number of routing-table entries.
    RtLen = 0x08,
    /// Base address of the range translation table (meta-zone).
    RttBase = 0x10,
    /// `RTT_END`: number of RTT entries.
    RttLen = 0x18,
    /// Per-window byte budget of the access counter (0 = unlimited).
    BandwidthBudget = 0x20,
    /// Hyper-mode enable bit.
    HyperEnable = 0x28,
}

/// VF register offsets (one page per virtual NPU, guest-mappable).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u64)]
#[non_exhaustive]
pub enum VfReg {
    /// Doorbell: guest kicks program dispatch.
    Doorbell = 0x00,
    /// Status: busy/idle.
    Status = 0x08,
    /// Completed-iterations counter (read-only to the guest).
    Completed = 0x10,
}

/// Size of each function's register window in bytes.
pub const FUNCTION_WINDOW_BYTES: u64 = 0x1000;

/// The controller's MMIO space: one PF window plus one VF window per
/// virtual NPU.
#[derive(Debug, Default)]
pub struct MmioSpace {
    pf: BTreeMap<u64, u64>,
    vfs: BTreeMap<VmId, BTreeMap<u64, u64>>,
}

impl MmioSpace {
    /// Creates an empty MMIO space (hyper mode disabled).
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a VF window for a newly created virtual NPU.
    pub fn add_vf(&mut self, vm: VmId) {
        self.vfs.entry(vm).or_default();
    }

    /// Removes a VF window on teardown.
    pub fn remove_vf(&mut self, vm: VmId) {
        self.vfs.remove(&vm);
    }

    /// Writes a PF register. Hypervisor-only.
    ///
    /// # Errors
    ///
    /// [`VnpuError::MmioDenied`] for guest requesters.
    pub fn write_pf(&mut self, who: Requester, reg: PfReg, value: u64) -> Result<()> {
        match who {
            Requester::Hypervisor => {
                self.pf.insert(reg as u64, value);
                Ok(())
            }
            Requester::Guest(vm) => Err(VnpuError::MmioDenied {
                vm,
                offset: reg as u64,
            }),
        }
    }

    /// Reads a PF register. Hypervisor-only.
    ///
    /// # Errors
    ///
    /// [`VnpuError::MmioDenied`] for guest requesters.
    pub fn read_pf(&self, who: Requester, reg: PfReg) -> Result<u64> {
        match who {
            Requester::Hypervisor => Ok(self.pf.get(&(reg as u64)).copied().unwrap_or(0)),
            Requester::Guest(vm) => Err(VnpuError::MmioDenied {
                vm,
                offset: reg as u64,
            }),
        }
    }

    /// Writes a VF register: the hypervisor may touch any VF; a guest
    /// only its own.
    ///
    /// # Errors
    ///
    /// [`VnpuError::MmioDenied`] on cross-tenant access;
    /// [`VnpuError::UnknownVm`] for unregistered windows.
    pub fn write_vf(&mut self, who: Requester, vm: VmId, reg: VfReg, value: u64) -> Result<()> {
        self.check_vf(who, vm, reg as u64)?;
        self.vfs
            .get_mut(&vm)
            .ok_or(VnpuError::UnknownVm(vm))?
            .insert(reg as u64, value);
        Ok(())
    }

    /// Reads a VF register under the same rules as [`MmioSpace::write_vf`].
    ///
    /// # Errors
    ///
    /// See [`MmioSpace::write_vf`].
    pub fn read_vf(&self, who: Requester, vm: VmId, reg: VfReg) -> Result<u64> {
        self.check_vf(who, vm, reg as u64)?;
        Ok(self
            .vfs
            .get(&vm)
            .ok_or(VnpuError::UnknownVm(vm))?
            .get(&(reg as u64))
            .copied()
            .unwrap_or(0))
    }

    fn check_vf(&self, who: Requester, vm: VmId, offset: u64) -> Result<()> {
        match who {
            Requester::Hypervisor => Ok(()),
            Requester::Guest(g) if g == vm => Ok(()),
            Requester::Guest(g) => Err(VnpuError::MmioDenied { vm: g, offset }),
        }
    }

    /// Whether hyper mode has been enabled by the hypervisor.
    pub fn hyper_enabled(&self) -> bool {
        self.pf
            .get(&(PfReg::HyperEnable as u64))
            .copied()
            .unwrap_or(0)
            != 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hypervisor_owns_pf() {
        let mut m = MmioSpace::new();
        m.write_pf(Requester::Hypervisor, PfReg::RtBase, 0x4000)
            .unwrap();
        m.write_pf(Requester::Hypervisor, PfReg::HyperEnable, 1)
            .unwrap();
        assert_eq!(
            m.read_pf(Requester::Hypervisor, PfReg::RtBase).unwrap(),
            0x4000
        );
        assert!(m.hyper_enabled());
    }

    #[test]
    fn guest_cannot_touch_pf() {
        let mut m = MmioSpace::new();
        let deny = m.write_pf(Requester::Guest(VmId(1)), PfReg::RttBase, 0xdead);
        assert!(matches!(deny, Err(VnpuError::MmioDenied { .. })));
        assert!(m
            .read_pf(Requester::Guest(VmId(1)), PfReg::RttBase)
            .is_err());
    }

    #[test]
    fn guest_owns_only_its_vf() {
        let mut m = MmioSpace::new();
        m.add_vf(VmId(1));
        m.add_vf(VmId(2));
        m.write_vf(Requester::Guest(VmId(1)), VmId(1), VfReg::Doorbell, 7)
            .unwrap();
        assert_eq!(
            m.read_vf(Requester::Guest(VmId(1)), VmId(1), VfReg::Doorbell)
                .unwrap(),
            7
        );
        // Cross-tenant access denied.
        assert!(m
            .write_vf(Requester::Guest(VmId(1)), VmId(2), VfReg::Doorbell, 1)
            .is_err());
        assert!(m
            .read_vf(Requester::Guest(VmId(2)), VmId(1), VfReg::Status)
            .is_err());
        // The hypervisor can service any VF.
        m.write_vf(Requester::Hypervisor, VmId(2), VfReg::Status, 1)
            .unwrap();
    }

    #[test]
    fn vf_lifecycle() {
        let mut m = MmioSpace::new();
        m.add_vf(VmId(3));
        m.write_vf(Requester::Hypervisor, VmId(3), VfReg::Completed, 42)
            .unwrap();
        m.remove_vf(VmId(3));
        assert!(matches!(
            m.read_vf(Requester::Hypervisor, VmId(3), VfReg::Completed),
            Err(VnpuError::UnknownVm(_))
        ));
    }

    #[test]
    fn unwritten_registers_read_zero() {
        let mut m = MmioSpace::new();
        m.add_vf(VmId(0));
        assert_eq!(m.read_pf(Requester::Hypervisor, PfReg::RtLen).unwrap(), 0);
        assert_eq!(
            m.read_vf(Requester::Guest(VmId(0)), VmId(0), VfReg::Status)
                .unwrap(),
            0
        );
    }
}
