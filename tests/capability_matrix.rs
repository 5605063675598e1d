//! Table 1 as executable claims: vNPU is a full-virtualization design
//! whose hypervisor isolates instruction routing, memory, *and*
//! interconnection, with an (effectively) unlimited number of virtual
//! accelerators — unlike MIG's fixed partitions.

use vnpu::mig::MigPartitioner;
use vnpu::vchunk::MemMode;
use vnpu::{Hypervisor, VirtCoreId, VnpuRequest};
use vnpu_mem::{Perm, VirtAddr};
use vnpu_sim::SocConfig;
use vnpu_topo::mapping::Strategy;

#[test]
fn instruction_virtualization_guests_see_virtual_ids() {
    // Guests program virtual core IDs; the vRouter translates. A guest
    // cannot name a physical core outside its own virtual NPU.
    let mut hv = Hypervisor::new(SocConfig::sim());
    let _first = hv.create_vnpu(VnpuRequest::mesh(2, 2)).unwrap();
    let vm = hv.create_vnpu(VnpuRequest::mesh(2, 2)).unwrap();
    let vnpu = hv.vnpu(vm).unwrap();
    let mut services = vnpu.services(VirtCoreId(0)).unwrap();
    // Virtual IDs 0..3 resolve; 4+ (which would be other tenants'
    // physical cores) fault.
    for v in 0..4u32 {
        let (p, _) = services.router.resolve(v).unwrap();
        assert!(vnpu.mapping().phys_nodes().iter().any(|n| n.0 == p));
    }
    assert!(services.router.resolve(4).is_err());
    assert!(services.router.resolve(99).is_err());
}

#[test]
fn memory_virtualization_guests_cannot_escape_their_ranges() {
    let mut hv = Hypervisor::new(SocConfig::sim());
    let vm_a = hv
        .create_vnpu(VnpuRequest::mesh(2, 2).mem_bytes(64 << 20))
        .unwrap();
    let vm_b = hv
        .create_vnpu(VnpuRequest::mesh(2, 2).mem_bytes(64 << 20))
        .unwrap();
    let a = hv.vnpu(vm_a).unwrap();
    let b = hv.vnpu(vm_b).unwrap();
    // Physical ranges are disjoint.
    for ea in a.rtt_entries() {
        for eb in b.rtt_entries() {
            let a_end = ea.pa.value() + ea.size;
            let b_end = eb.pa.value() + eb.size;
            assert!(
                a_end <= eb.pa.value() || b_end <= ea.pa.value(),
                "tenant memory overlaps"
            );
        }
    }
    // Accesses beyond the guest window fault.
    let mut tr = a.services(VirtCoreId(0)).unwrap().translator;
    assert!(tr
        .translate(a.va_base().offset(a.mem_bytes() + 4096), 64, Perm::R)
        .is_err());
    assert!(tr.translate(VirtAddr(0), 64, Perm::R).is_err());
}

#[test]
fn interconnection_virtualization_confines_paths() {
    // With NoC isolation requested, every pairwise path stays inside the
    // virtual NPU's cores (the Table 1 "Interconnection: Yes" row).
    let mut hv = Hypervisor::new(SocConfig::sim());
    // Fragment the free region so the second tenant gets an irregular set.
    hv.create_vnpu(VnpuRequest::mesh(3, 3)).unwrap();
    let vm = hv
        .create_vnpu(
            VnpuRequest::custom(vnpu_topo::Topology::line(5))
                .noc_isolation(true)
                .strategy(Strategy::similar_topology().candidate_cap(2000)),
        )
        .unwrap();
    let vnpu = hv.vnpu(vm).unwrap();
    let own: Vec<u32> = vnpu.mapping().phys_nodes().iter().map(|n| n.0).collect();
    let mut services = vnpu.services(VirtCoreId(0)).unwrap();
    for &src in &own {
        for &dst in &own {
            if src == dst {
                continue;
            }
            let path = services.router.path(src, dst).unwrap();
            for hop in path {
                assert!(
                    own.contains(hop),
                    "isolated vNPU path {src}->{dst} crosses foreign core {hop}"
                );
            }
        }
    }
}

#[test]
fn unlimited_virtual_accelerators_vs_migs_fixed_partitions() {
    let cfg = SocConfig::sim();
    // MIG: exactly two partitions, then NoPartition.
    let mut mig = MigPartitioner::standard(&cfg);
    assert!(mig.allocate(4).is_ok());
    assert!(mig.allocate(4).is_ok());
    assert!(mig.allocate(4).is_err(), "MIG caps the tenant count");

    // vNPU: as many tenants as cores.
    let mut hv = Hypervisor::new(cfg);
    let mut created = 0;
    while hv
        .create_vnpu(VnpuRequest::mesh(1, 1).mem_bytes(1 << 20))
        .is_ok()
    {
        created += 1;
    }
    assert_eq!(created, 36, "one single-core tenant per physical core");
}

#[test]
fn full_virtualization_guest_programs_are_design_agnostic() {
    // The same compiled program binds under vChunk, IOTLB, or physical
    // memory services without modification (guests are unaware of the
    // virtualization mechanism — "full virtualization").
    let mut hv = Hypervisor::new(SocConfig::sim());
    let vm = hv
        .create_vnpu(VnpuRequest::mesh(2, 2).mem_bytes(64 << 20))
        .unwrap();
    let vnpu = hv.vnpu(vm).unwrap();
    for mode in [
        MemMode::Physical,
        MemMode::vchunk(),
        MemMode::Page { tlb_entries: 32 },
    ] {
        let mut s = vnpu
            .services_with(VirtCoreId(0), mode, vnpu.route_policy())
            .unwrap();
        if mode == MemMode::Physical {
            continue; // identity translator accepts anything
        }
        let t = s
            .translator
            .translate(vnpu.va_base(), 2048, Perm::R)
            .unwrap();
        // Both real translators agree on the physical mapping.
        assert_eq!(
            t.pa,
            vnpu.rtt_entries()[0].pa,
            "translators must agree on the plan"
        );
    }
}
