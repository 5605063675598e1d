//! The UVM-based virtual NPU baseline (§6.1, §6.3.1).
//!
//! Prior NPU virtualization work (AuRORA, V10) builds on unified virtual
//! memory and "lack\[s\] interconnection support": virtual cores exchange
//! intermediate results through *global memory synchronization* instead of
//! the NoC, and translate with page tables + IOTLBs. This module provides
//! that configuration: page-based services and a program rewriter that
//! turns NoC sends/receives into [`vnpu_sim::isa::Instr::GlobalWrite`] /
//! [`GlobalRead`](vnpu_sim::isa::Instr::GlobalRead) pairs, so the same
//! compiled workload can run under both designs (Figures 13 and 15).

use crate::vchunk::MemMode;
use crate::vnpu::VirtualNpu;
use crate::vrouter::RoutePolicy;
use crate::{ids::VirtCoreId, Result};
use vnpu_mem::VirtAddr;
use vnpu_sim::isa::{Instr, Program};
use vnpu_sim::machine::CoreServices;

/// Builds UVM-style services for a virtual core: page-based translation,
/// DOR routing (no virtual-topology awareness).
///
/// # Errors
///
/// Propagates core-range and table-construction failures.
pub fn services(
    vnpu: &VirtualNpu,
    vcore: VirtCoreId,
    iotlb_entries: usize,
) -> Result<CoreServices> {
    vnpu.services_with(
        vcore,
        MemMode::Page {
            tlb_entries: iotlb_entries,
        },
        RoutePolicy::Dor,
    )
}

/// Scratch area (per tenant) in the guest VA space where UVM
/// synchronization buffers live: the top half of the memory window.
pub fn sync_buffer_va(vnpu: &VirtualNpu, tag: u32) -> VirtAddr {
    let half = vnpu.mem_bytes() / 2;
    vnpu.va_base()
        .offset(half + u64::from(tag % 1024) * 0x1_0000)
}

/// Rewrites a NoC-oriented program into its UVM equivalent: every `Send`
/// becomes a `GlobalWrite` of the same bytes (publishing under the same
/// tag, uniquified per source-destination pair), every `Recv` a
/// `GlobalRead`. Other instructions pass through.
///
/// `self_id` is the program-level core the program belongs to; tags are
/// remapped to `(src, dst, tag)`-unique values so that flows that were
/// distinct on the NoC stay distinct in memory.
pub fn uvm_program(vnpu: &VirtualNpu, self_id: u32, program: &Program) -> Program {
    let rewrite = |instrs: &[Instr]| -> Vec<Instr> {
        instrs
            .iter()
            .map(|i| match *i {
                Instr::Send { dst, bytes, tag } => Instr::GlobalWrite {
                    va: sync_buffer_va(vnpu, flow_tag(self_id, dst, tag)),
                    bytes,
                    tag: flow_tag(self_id, dst, tag),
                },
                Instr::Recv { src, bytes, tag } => Instr::GlobalRead {
                    va: sync_buffer_va(vnpu, flow_tag(src, self_id, tag)),
                    bytes,
                    tag: flow_tag(src, self_id, tag),
                },
                other => other,
            })
            .collect()
    };
    Program {
        prelude: rewrite(&program.prelude),
        body: rewrite(&program.body),
        iterations: program.iterations,
        footprint_bytes: program.footprint_bytes,
    }
}

/// Unique tag for a (src, dst, tag) flow in the shared memory space.
pub fn flow_tag(src: u32, dst: u32, tag: u32) -> u32 {
    (src << 20) ^ (dst << 10) ^ (tag & 0x3ff)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hypervisor::Hypervisor;
    use crate::vnpu::VnpuRequest;
    use vnpu_sim::SocConfig;

    fn sample_vnpu() -> (Hypervisor, crate::VmId) {
        let mut h = Hypervisor::new(SocConfig::sim());
        let vm = h.create_vnpu(VnpuRequest::mesh(2, 2)).unwrap();
        (h, vm)
    }

    #[test]
    fn services_use_page_translation_and_dor() {
        let (h, vm) = sample_vnpu();
        let s = services(h.vnpu(vm).unwrap(), VirtCoreId(0), 32).unwrap();
        assert_eq!(s.translator.name(), "iotlb-32");
        assert_eq!(s.router.name(), "vrouter-dor");
    }

    #[test]
    fn program_rewrite_replaces_noc_ops() {
        let (h, vm) = sample_vnpu();
        let v = h.vnpu(vm).unwrap();
        let p = Program::looped(
            vec![Instr::dma_load(0x1000_0000, 4096)],
            vec![
                Instr::recv(0, 2048, 5),
                Instr::matmul(8, 8, 8),
                Instr::send(2, 2048, 5),
            ],
            3,
        );
        let u = uvm_program(v, 1, &p);
        assert_eq!(u.iterations, 3);
        assert!(matches!(u.prelude[0], Instr::DmaLoad { .. }));
        assert!(matches!(u.body[0], Instr::GlobalRead { .. }));
        assert!(matches!(u.body[1], Instr::Compute(_)));
        assert!(matches!(u.body[2], Instr::GlobalWrite { .. }));
    }

    #[test]
    fn rewrite_matches_producer_consumer_tags() {
        let (h, vm) = sample_vnpu();
        let v = h.vnpu(vm).unwrap();
        let producer = uvm_program(v, 0, &Program::once(vec![Instr::send(1, 2048, 9)]));
        let consumer = uvm_program(v, 1, &Program::once(vec![Instr::recv(0, 2048, 9)]));
        let (
            Instr::GlobalWrite {
                tag: wt, va: wva, ..
            },
            Instr::GlobalRead {
                tag: rt, va: rva, ..
            },
        ) = (producer.body[0], consumer.body[0])
        else {
            panic!("rewrite failed");
        };
        assert_eq!(wt, rt, "producer and consumer must agree on the tag");
        assert_eq!(wva, rva, "and on the buffer address");
    }

    #[test]
    fn distinct_flows_get_distinct_tags() {
        assert_ne!(flow_tag(0, 1, 0), flow_tag(1, 0, 0));
        assert_ne!(flow_tag(0, 1, 0), flow_tag(0, 2, 0));
        assert_ne!(flow_tag(0, 1, 0), flow_tag(0, 1, 1));
    }

    #[test]
    fn sync_buffers_inside_guest_window() {
        let (h, vm) = sample_vnpu();
        let v = h.vnpu(vm).unwrap();
        let va = sync_buffer_va(v, 3);
        assert!(va >= v.va_base());
        assert!(va.value() < v.va_base().value() + v.mem_bytes());
    }
}
