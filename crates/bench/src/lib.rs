//! The paper's figures, tables and ablations, and the design bindings
//! they share.
//!
//! * the plumbing in this root module — binding compiled workloads onto
//!   machines under the various virtualization designs (vNPU, UVM, MIG,
//!   bare-metal) and uniform table rendering;
//! * [`figs`] — the sixteen reproductions, each rendering its rows at
//!   paper scale and asserting the paper's claims. The `figs` binary
//!   prints them, and `tests/figures.rs` (all sixteen, in order) and
//!   `tests/benches_smoke.rs` (one test each) hold their output to the
//!   committed `FIGURES.txt` ledger.
//!
//! Nothing here times anything: wall-clock numbers come from the separate
//! `benchmark/` package, which imports [`bind_design`], [`bind_mig`] and
//! [`Design`] from this crate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod figs;

use vnpu::mig::MigAllocation;
use vnpu::uvm;
use vnpu::vchunk::MemMode;
use vnpu::vrouter::{RoutePolicy, VRouterNoc};
use vnpu::{Hypervisor, VirtCoreId, VmId};
use vnpu_mem::translate::PhysicalTranslator;
use vnpu_sim::isa::Program;
use vnpu_sim::machine::{CoreServices, Machine, TenantId};
use vnpu_sim::noc::{DorRouter, NocRouter};
use vnpu_sim::SocConfig;
use vnpu_topo::Topology;

/// Which virtualization design services a binding — the comparative
/// systems of §6.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Design {
    /// vNPU: vRouter + vChunk, with the virtual NPU's own policies.
    Vnpu,
    /// vNPU with explicit memory mode / route policy (ablations).
    VnpuWith(MemMode, RoutePolicy),
    /// UVM baseline: page-based IOTLB translation, DOR routing.
    Uvm {
        /// IOTLB entries.
        iotlb: usize,
    },
    /// Bare metal: core-ID remapping only, no virtualization hardware
    /// (the §6.3.3 overhead comparison).
    BareMetal,
}

/// Binds every virtual core of a provisioned virtual NPU into `machine`
/// under the given design, returning the tenant ID.
///
/// `programs[v]` is bound to physical core `mapping.phys_nodes()[v]`. For the
/// UVM design, NoC programs should be pre-rewritten with
/// [`vnpu::uvm::uvm_program`].
///
/// # Panics
///
/// Panics on binding failures (bench-harness context).
pub fn bind_design(
    machine: &mut Machine,
    hv: &Hypervisor,
    vm: VmId,
    programs: &[Program],
    design: Design,
    name: &str,
) -> TenantId {
    let vnpu = hv.vnpu(vm).expect("vm exists");
    let tenant = machine.add_tenant(name);
    for (v, program) in programs.iter().enumerate() {
        let vcore = VirtCoreId(v as u32);
        let phys = vnpu.phys_core(vcore).expect("vcore in range");
        let services = match design {
            Design::Vnpu => vnpu.services(vcore).expect("services build"),
            Design::VnpuWith(mode, policy) => vnpu
                .services_with(vcore, mode, policy)
                .expect("services build"),
            Design::Uvm { iotlb } => uvm::services(vnpu, vcore, iotlb).expect("services build"),
            Design::BareMetal => CoreServices {
                router: Box::new(RemapRouter::new(
                    hv.config(),
                    vnpu.mapping().phys_nodes().iter().map(|n| n.0).collect(),
                )),
                translator: Box::new(PhysicalTranslator::new()),
                limiter: None,
            },
        };
        let program = match design {
            Design::Uvm { .. } => uvm::uvm_program(vnpu, v as u32, program),
            _ => program.clone(),
        };
        machine
            .bind_with(phys, tenant, v as u32, program, services)
            .expect("bind");
    }
    tenant
}

/// Binds a MIG allocation: programs indexed by virtual core, physical
/// cores from the allocation (TDM sharing allowed). Cores keep inter-core
/// connections inside the partition (DOR routing), with no translation
/// hardware.
pub fn bind_mig(
    machine: &mut Machine,
    cfg: &SocConfig,
    alloc: &MigAllocation,
    programs: &[Program],
    name: &str,
) -> TenantId {
    let tenant = machine.add_tenant(name);
    for (v, program) in programs.iter().enumerate() {
        let phys = alloc.assignment()[v];
        let services = CoreServices {
            router: Box::new(RemapRouter::new(cfg, alloc.assignment().to_vec())),
            translator: Box::new(PhysicalTranslator::new()),
            limiter: None,
        };
        machine
            .bind_with(phys, tenant, v as u32, program.clone(), services)
            .expect("bind");
    }
    tenant
}

/// A cost-free core-ID remapping router (bare-metal / MIG): virtual core
/// `v` lives on `v2p[v]`; paths are plain DOR.
#[derive(Debug, Clone)]
pub struct RemapRouter {
    dor: DorRouter,
    v2p: Vec<u32>,
}

impl RemapRouter {
    /// Creates the router over the machine's mesh.
    pub fn new(cfg: &SocConfig, v2p: Vec<u32>) -> Self {
        RemapRouter {
            dor: DorRouter::new(cfg),
            v2p,
        }
    }
}

impl NocRouter for RemapRouter {
    fn resolve(&mut self, dst_program: u32) -> vnpu_sim::Result<(u32, u64)> {
        self.v2p
            .get(dst_program as usize)
            .map(|&p| (p, 0))
            .ok_or(vnpu_sim::SimError::RouteFault {
                core: u32::MAX,
                dst: dst_program,
            })
    }

    fn path(&mut self, src_phys: u32, dst_phys: u32) -> vnpu_sim::Result<&[u32]> {
        self.dor.path(src_phys, dst_phys)
    }

    fn name(&self) -> String {
        "remap".to_owned()
    }
}

/// Convenience: a `VRouterNoc` for an ad-hoc virtual NPU (no hypervisor).
pub fn adhoc_vrouter(cfg: &SocConfig, v2p: Vec<u32>, policy: RoutePolicy) -> VRouterNoc {
    VRouterNoc::new(
        Topology::mesh2d(cfg.mesh_width, cfg.mesh_height),
        v2p,
        policy,
    )
}

/// Renders a fixed-width table with a title, headers and rows: a blank
/// line, the title, the header, a rule, then one line per row.
pub fn render_table(title: &str, headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths.get(i).copied().unwrap_or(8)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let mut out = format!(
        "\n== {title} ==\n{}\n{}\n",
        fmt_row(&headers.iter().map(|s| s.to_string()).collect::<Vec<_>>()),
        "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len())
    );
    for row in rows {
        out += &fmt_row(row);
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use vnpu::VnpuRequest;
    use vnpu_sim::isa::Instr;

    #[test]
    fn bind_design_end_to_end() {
        let cfg = SocConfig::sim();
        let mut hv = Hypervisor::new(cfg.clone());
        let vm = hv.create_vnpu(VnpuRequest::mesh(2, 1)).unwrap();
        let programs = vec![
            Program::once(vec![Instr::send(1, 2048, 0)]),
            Program::once(vec![Instr::recv(0, 2048, 0)]),
        ];
        for design in [Design::Vnpu, Design::Uvm { iotlb: 32 }, Design::BareMetal] {
            let mut m = Machine::new(cfg.clone());
            let t = bind_design(&mut m, &hv, vm, &programs, design, "x");
            let r = m.run().unwrap();
            assert!(r.tenant(t).unwrap().end > 0, "{design:?}");
        }
    }

    #[test]
    fn bind_mig_with_tdm() {
        let cfg = SocConfig::sim48();
        let mut mig = vnpu::mig::MigPartitioner::standard(&cfg);
        let alloc = mig.allocate(36).unwrap();
        assert!(alloc.is_tdm());
        let programs: Vec<Program> = (0..36)
            .map(|_| Program::once(vec![Instr::matmul(64, 64, 64)]))
            .collect();
        let mut m = Machine::new(cfg.clone());
        let t = bind_mig(&mut m, &cfg, &alloc, &programs, "mig");
        let r = m.run().unwrap();
        assert!(r.tenant(t).unwrap().end > 0);
    }

    #[test]
    fn remap_router_paths() {
        let cfg = SocConfig::fpga();
        let mut r = RemapRouter::new(&cfg, vec![3, 5]);
        assert_eq!(r.resolve(1).unwrap(), (5, 0));
        assert!(r.resolve(2).is_err());
        assert_eq!(r.path(0, 1).unwrap(), vec![0, 1]);
    }
}
